//! The read-mapping workload: `PimReadMapper` over a seed index in DRAM,
//! driven through `MappingExec`, checked against `software_map`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use pim_assembler::ir::{BackendKind, OptLevel};
use pim_assembler::mapping::KmerMapper;
use pim_assembler::mapping_stage::{
    software_map, MappingConfig, MappingExec, MappingHit, PimReadMapper,
};
use pim_assembler::ParallelDispatcher;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_genome::fasta::read_fasta;
use pim_genome::{DnaSequence, Read, ReadSimulator};

use crate::inputs::{generate, io, load_reads};
use crate::metrics::{fnv1a, imbalance, peak_rss_mb, ratio, FNV_BASIS};
use crate::spec::MapSpec;
use crate::{add_coverage, Rep, Spans, Workload};

/// A prepared mapping workload.
pub struct MapWorkload {
    spec: MapSpec,
    reference: DnaSequence,
    reads: Vec<Read>,
    /// The software mapper's hit per read.
    pub oracle: Vec<Option<MappingHit>>,
}

/// A built platform: controller, dispatcher and seed index.
struct Platform {
    ctrl: Controller,
    dispatcher: ParallelDispatcher,
    mapper: PimReadMapper,
    build_s: f64,
}

impl MapWorkload {
    /// Writes the reference and reads for `seed` into `dir`, loads them
    /// back and maps them with the software oracle.
    ///
    /// # Errors
    ///
    /// I/O and parse failures, as text.
    pub fn prepare(spec: MapSpec, seed: u64, dir: &Path) -> Result<Self, String> {
        let simulator =
            ReadSimulator::new(spec.read_len, spec.coverage).with_error_rate(spec.error_rate);
        let inputs = generate(dir, seed, spec.reference_len, simulator, false, true)?;
        let path = inputs.reference.as_deref().ok_or("mapping inputs lack a reference")?;
        let records = read_fasta(BufReader::new(File::open(path).map_err(io(path))?))
            .map_err(|e| e.to_string())?;
        let reference = records.into_iter().next().ok_or("empty reference FASTA")?.seq;
        let reads = load_reads(&inputs.reads)?;
        let oracle = software_map(&reference, &reads, spec.read_len, &MappingConfig::default());
        Ok(MapWorkload { spec, reference, reads, oracle })
    }

    fn setup(&self, traced: bool) -> Result<Platform, String> {
        let geometry = DramGeometry::paper_assembly();
        if self.spec.subarrays == 0 || self.spec.subarrays > geometry.total_subarrays() {
            return Err(format!("{} seed sub-arrays do not fit the geometry", self.spec.subarrays));
        }
        let mut ctrl = Controller::with_profile(geometry, &BackendKind::PimAssembler.profile());
        if traced {
            ctrl.enable_metrics();
        }
        let dispatcher = ParallelDispatcher::with_workers(self.spec.workers);
        let layout = KmerMapper::new(&geometry, self.spec.subarrays, self.spec.bucket_rows);
        let t = Instant::now();
        let mapper = PimReadMapper::build(
            &mut ctrl,
            layout,
            &self.reference,
            self.spec.read_len,
            MappingConfig::default(),
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
        .map_err(|e| e.to_string())?;
        Ok(Platform { ctrl, dispatcher, mapper, build_s: t.elapsed().as_secs_f64() })
    }
}

impl Workload for MapWorkload {
    fn setup_only(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let platform = self.setup(false)?;
        let setup_s = t.elapsed().as_secs_f64();
        drop(platform);
        Ok(setup_s)
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let t = Instant::now();
        let Platform { mut ctrl, dispatcher, mapper, build_s } = self.setup(traced)?;
        let setup_s = t.elapsed().as_secs_f64();

        let mut spans = Spans::new(traced);
        let before = *ctrl.stats();
        let t = Instant::now();
        let mut exec = MappingExec::new(mapper);
        spans
            .time("mapping_stage.feed_s", || exec.feed(&mut ctrl, &dispatcher, &self.reads))
            .map_err(|e| e.to_string())?;
        if traced {
            spans.set("rss.hwm_after_feed_mb", peak_rss_mb().unwrap_or(0.0));
        }
        exec.seal();
        let (hits, stats) = exec.finish();
        let run_s = t.elapsed().as_secs_f64();
        if traced {
            spans.set("rss.hwm_after_finish_mb", peak_rss_mb().unwrap_or(0.0));
        }

        if hits != self.oracle {
            let differ = hits.iter().zip(&self.oracle).filter(|(a, b)| a != b).count();
            return Err(format!(
                "oracle mismatch: {differ} of {} reads map differently from software_map",
                self.reads.len()
            ));
        }
        let digest = hits.iter().fold(FNV_BASIS, |h, hit| {
            let (pos, score) = hit.map_or((u64::MAX, 0), |m| (m.position as u64, m.score));
            fnv1a(fnv1a(h, &pos.to_le_bytes()), &score.to_le_bytes())
        });
        let delta = ctrl.stats().since(&before);
        let mut counts = BTreeMap::new();
        for (class, n) in
            [("aap", delta.aap), ("aap2", delta.aap2), ("aap3", delta.aap3), ("dpu", delta.dpu)]
        {
            counts.insert(format!("cmd.mapping.{class}"), n);
        }
        let energy_pj = ctrl.ledger().total_energy_pj();
        counts.insert("ledger.energy_pj".into(), energy_pj);

        let feed_s = spans.values.get("mapping_stage.feed_s").copied().unwrap_or(0.0);
        spans.set("mapping_stage.build_s", build_s);
        spans.set("mapping_stage.seeded", stats.seeded as f64);
        spans.set("mapping_stage.candidates", stats.candidates as f64);
        spans.set("mapping_stage.survivors", stats.survivors as f64);
        spans.set("mapping_stage.dp_cells", stats.dp_cells as f64);
        spans.set("mapping_stage.mapped", stats.mapped as f64);
        spans.set("mapping_stage.survivor_ratio", ratio(stats.survivors, stats.candidates));
        let cmds = delta.aap + delta.aap2 + delta.aap3;
        spans.set("mapping_stage.host_ns_per_cmd", feed_s * 1e9 / cmds.max(1) as f64);
        let dm = dispatcher.metrics();
        let det: BTreeMap<&str, u64> = dm.deterministic_counters().into_iter().collect();
        spans.set("dispatch.batches", det.get("batches").copied().unwrap_or(0) as f64);
        let host = dm.host_counters();
        let wait_ns = host.iter().find(|(k, _)| k == "barrier_wait_ns").map_or(0, |&(_, v)| v);
        spans.set("dispatch.barrier_wait_s", wait_ns as f64 / 1e9);
        let items: Vec<u64> =
            host.iter().filter(|(k, _)| k.starts_with("worker")).map(|&(_, v)| v).collect();
        spans.set("dispatch.imbalance", imbalance(&items));
        let mut layers = spans.values;
        if traced {
            add_coverage(&mut layers, run_s);
        }
        Ok(Rep {
            setup_s,
            run_s,
            device_time_ms: ctrl.stats().serial_ns / 1e6,
            device_energy_uj: energy_pj as f64 / 1e6,
            counts,
            digest,
            layers,
        })
    }
}
