//! The assembly workloads: `PimAssembler` driven through `Session` from a
//! reads file to a contigs FASTA, checked against `SoftwareAssembler`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pim_assembler::checkpoint::{prepare_dir, StageCheckpoint};
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimRun, Session};
use pim_dram::schedule::{queues_from_totals, schedule};
use pim_genome::assemble::{AssemblyConfig, SoftwareAssembler};
use pim_genome::fasta::{write_fasta, FastaRecord};
use pim_genome::fastq::fastq_records;
use pim_genome::{Contig, Read, ReadSimulator};

use crate::inputs::{generate, io, is_fastq, load_reads, Inputs};
use crate::metrics::{fnv1a, imbalance, median, peak_rss_mb, ratio, Values, FNV_BASIS};
use crate::spec::AsmSpec;
use crate::{add_coverage, Rep, Spans, Workload};

/// Times `StageCheckpoint::load` is repeated per traced repetition.
const CHECKPOINT_LOADS: usize = 5;

/// What the software assembler produced for the workload's reads.
#[derive(Debug, Clone)]
pub struct AsmOracle {
    /// Contig sequences, sorted.
    pub contigs: Vec<String>,
    pub distinct_kmers: usize,
    pub graph_edges: usize,
}

/// A prepared assembly workload.
pub struct AsmWorkload {
    spec: AsmSpec,
    inputs: Inputs,
    pub oracle: AsmOracle,
    checkpoint_dir: Option<PathBuf>,
    contigs_out: PathBuf,
}

impl AsmWorkload {
    /// Writes the reads for `seed` into `dir` and assembles them with the
    /// software oracle.
    ///
    /// # Errors
    ///
    /// I/O and parse failures, as text.
    pub fn prepare(spec: AsmSpec, seed: u64, dir: &Path) -> Result<Self, String> {
        let simulator =
            ReadSimulator::new(spec.read_len, spec.coverage).with_error_rate(spec.error_rate);
        let inputs = generate(dir, seed, spec.genome_len, simulator, spec.fastq, false)?;
        let reads = load_reads(&inputs.reads)?;
        let soft = SoftwareAssembler::new(AssemblyConfig::new(spec.k)).assemble(&reads);
        let mut contigs: Vec<String> = soft.contigs.iter().map(Contig::to_string).collect();
        contigs.sort();
        let oracle = AsmOracle {
            contigs,
            distinct_kmers: soft.distinct_kmers,
            graph_edges: soft.graph_edges,
        };
        Ok(AsmWorkload {
            spec,
            inputs,
            oracle,
            checkpoint_dir: spec.checkpoint.then(|| dir.join("checkpoint")),
            contigs_out: dir.join("contigs.fasta"),
        })
    }

    fn config(&self, traced: bool) -> Result<PimAssemblerConfig, String> {
        let s = &self.spec;
        let config = PimAssemblerConfig::paper(s.k)
            .with_hash_subarrays(s.hash_subarrays)
            .with_workers(s.workers)
            .with_observability(traced);
        match s.chunk_reads {
            Some(n) => config.with_chunk_reads(n).map_err(|e| e.to_string()),
            None => Ok(config),
        }
    }

    /// The checkpoint directory, prepared as `pim-asm assemble --force`
    /// does; `Session::start` overwrites the previous repetition's file.
    fn fresh_checkpoint_dir(&self) -> Result<Option<PathBuf>, String> {
        let Some(dir) = &self.checkpoint_dir else { return Ok(None) };
        prepare_dir(dir, true).map(Some).map_err(|e| e.to_string())
    }

    /// Feeds the reads file into the session: whole file then one feed, or
    /// `chunk` reads per feed while parsing.
    fn ingest(
        &self,
        session: &mut Session<'_>,
        spans: &mut Spans,
        checkpoint: &mut CheckpointProbe,
    ) -> Result<(), String> {
        let Some(chunk) = self.spec.chunk_reads else {
            let reads = spans.time("genome.parse_s", || load_reads(&self.inputs.reads))?;
            spans.time("pipeline.feed_s", || session.feed(&reads)).map_err(|e| e.to_string())?;
            spans.set("pipeline.feed_chunk_ms_max", spans.last_s * 1e3);
            return checkpoint.observe();
        };
        let path = &self.inputs.reads;
        let file = BufReader::new(File::open(path).map_err(io(path))?);
        let mut records: Box<dyn Iterator<Item = Result<pim_genome::DnaSequence, String>>> =
            if is_fastq(path) {
                Box::new(fastq_records(file).map(|r| r.map(|r| r.seq).map_err(|e| e.to_string())))
            } else {
                Box::new(
                    pim_genome::fasta::fasta_records(file)
                        .map(|r| r.map(|r| r.seq).map_err(|e| e.to_string())),
                )
            };
        let mut next_id = 0;
        let mut max_chunk_s: f64 = 0.0;
        loop {
            let batch = spans.time("genome.parse_s", || {
                let mut batch = Vec::with_capacity(chunk);
                for seq in records.by_ref().take(chunk) {
                    batch.push(Read { id: next_id, seq: seq?, origin: 0 });
                    next_id += 1;
                }
                Ok::<_, String>(batch)
            })?;
            if batch.is_empty() {
                break;
            }
            spans.time("pipeline.feed_s", || session.feed(&batch)).map_err(|e| e.to_string())?;
            max_chunk_s = max_chunk_s.max(spans.last_s);
            checkpoint.observe()?;
        }
        spans.set("pipeline.feed_chunk_ms_max", max_chunk_s * 1e3);
        Ok(())
    }

    /// Checks the run against the oracle and returns the contigs digest.
    fn check(&self, run: &PimRun) -> Result<u64, String> {
        let contigs: Vec<String> = run.assembly.contigs.iter().map(Contig::to_string).collect();
        let digest = contigs.iter().fold(FNV_BASIS, |h, c| fnv1a(fnv1a(h, c.as_bytes()), b"\n"));
        let mut sorted = contigs;
        sorted.sort();
        let a = &run.assembly;
        if sorted != self.oracle.contigs
            || a.distinct_kmers != self.oracle.distinct_kmers
            || a.graph_edges != self.oracle.graph_edges
        {
            return Err(format!(
                "oracle mismatch: {} contigs, {} distinct k-mers, {} edges; software assembler: \
                 {} contigs, {} distinct k-mers, {} edges",
                sorted.len(),
                a.distinct_kmers,
                a.graph_edges,
                self.oracle.contigs.len(),
                self.oracle.distinct_kmers,
                self.oracle.graph_edges
            ));
        }
        Ok(digest)
    }
}

impl Workload for AsmWorkload {
    fn setup_only(&mut self) -> Result<f64, String> {
        let config = self.config(false)?;
        let dir = self.fresh_checkpoint_dir()?;
        let t = Instant::now();
        let mut asm = PimAssembler::new(config);
        let session = Session::start(&mut asm, dir).map_err(|e| e.to_string())?;
        let setup_s = t.elapsed().as_secs_f64();
        drop(session);
        Ok(setup_s)
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let config = self.config(traced)?;
        let dir = self.fresh_checkpoint_dir()?;
        let mut spans = Spans::new(traced);
        let mut checkpoint = CheckpointProbe::new(dir.clone(), traced);

        let t = Instant::now();
        let mut asm = PimAssembler::new(config);
        let mut session = spans
            .time("pipeline.start_s", || Session::start(&mut asm, dir))
            .map_err(|e| e.to_string())?;
        let setup_s = t.elapsed().as_secs_f64();
        checkpoint.observe()?;

        let t = Instant::now();
        self.ingest(&mut session, &mut spans, &mut checkpoint)?;
        if traced {
            spans.set("rss.hwm_after_feed_mb", peak_rss_mb().unwrap_or(0.0));
        }
        spans.time("pipeline.seal_s", || session.seal()).map_err(|e| e.to_string())?;
        checkpoint.observe()?;
        spans
            .time("pipeline.advance_graph_s", || session.advance_graph())
            .map_err(|e| e.to_string())?;
        checkpoint.observe()?;
        let run =
            spans.time("pipeline.finish_s", || session.finish()).map_err(|e| e.to_string())?;
        checkpoint.observe()?;
        if traced {
            spans.set("rss.hwm_after_finish_mb", peak_rss_mb().unwrap_or(0.0));
        }
        spans.time("genome.write_s", || write_contigs(&self.contigs_out, &run.assembly.contigs))?;
        let run_s = t.elapsed().as_secs_f64();

        let digest = self.check(&run)?;
        let r = &run.report;
        let mut counts = BTreeMap::new();
        for (stage, perf) in
            [("hashmap", &r.hashmap), ("graph", &r.debruijn), ("traverse", &r.traverse)]
        {
            let c = &perf.commands;
            for (class, n) in [("aap", c.aap), ("aap2", c.aap2), ("aap3", c.aap3), ("dpu", c.dpu)] {
                counts.insert(format!("cmd.{stage}.{class}"), n);
            }
        }
        let energy_pj = asm.controller().ledger().total_energy_pj();
        counts.insert("ledger.energy_pj".into(), energy_pj);

        let mut layers = spans.values;
        if traced {
            self.trace_layers(&asm, &run, &mut layers, &checkpoint)?;
            add_coverage(&mut layers, run_s);
        }
        Ok(Rep {
            setup_s,
            run_s,
            device_time_ms: r.total_wall_s() * 1e3,
            device_energy_uj: energy_pj as f64 / 1e6,
            counts,
            digest,
            layers,
        })
    }
}

impl AsmWorkload {
    /// Layer values read from the finished run, its controller and its
    /// checkpoint, outside the timed region.
    fn trace_layers(
        &self,
        asm: &PimAssembler,
        run: &PimRun,
        layers: &mut Values,
        checkpoint: &CheckpointProbe,
    ) -> Result<(), String> {
        let feed_s = layers.get("pipeline.feed_s").copied().unwrap_or(0.0);
        let mut set = |name: &str, value: f64| {
            layers.insert(name.to_string(), value);
        };
        let h = &run.hash_stats;
        let hc = &run.report.hashmap.commands;
        set("hashmap_stage.probes", h.probes as f64);
        set("hashmap_stage.hits", h.hits as f64);
        set("hashmap_stage.distinct", h.distinct as f64);
        set("hashmap_stage.hit_ratio", ratio(h.hits, h.probes));
        let hash_cmds = hc.aap + hc.aap2 + hc.aap3;
        set("hashmap_stage.host_ns_per_cmd", feed_s * 1e9 / hash_cmds.max(1) as f64);
        set("graph_stage.edges", run.assembly.graph_edges as f64);
        set("traverse_stage.trails", run.assembly.trails as f64);

        // Re-run the report's command-bus schedule on the finished
        // controller's totals: `Session::finish` runs the same two calls.
        let totals = asm.controller().subarray_command_totals();
        let issue_ns = 3.0 * asm.config().timing.t_ck_ns;
        let t = Instant::now();
        let queues = queues_from_totals(&totals);
        let sched = schedule(&queues, issue_ns);
        let schedule_s = t.elapsed().as_secs_f64();
        if Some(sched.effective_parallelism) != run.report.measured_parallelism {
            return Err(format!(
                "schedule re-run gives parallelism {} but the report holds {:?}",
                sched.effective_parallelism, run.report.measured_parallelism
            ));
        }
        let queue_count = queues.len();
        let queue_bytes = queue_count * std::mem::size_of::<Vec<f64>>()
            + sched.commands * std::mem::size_of::<f64>();
        drop(queues);
        set("dram.schedule_s", schedule_s);
        set("dram.schedule_queues", queue_count as f64);
        set("dram.schedule_commands", sched.commands as f64);
        set("dram.schedule_queue_bytes", queue_bytes as f64);

        let metrics = run.report.metrics.as_ref().ok_or("traced run has no metrics snapshot")?;
        let host = |key: &str| metrics.host.get(key).copied().unwrap_or(0);
        set("dispatch.batches", host("dispatch.batches") as f64);
        set("dispatch.barrier_wait_s", host("dispatch.barrier_wait_ns") as f64 / 1e9);
        let items: Vec<u64> = metrics
            .host
            .iter()
            .filter(|(k, _)| k.starts_with("dispatch.worker") && k.ends_with("_items"))
            .map(|(_, &v)| v)
            .collect();
        set("dispatch.imbalance", imbalance(&items));
        set("obsv.spans_dropped", host("spans.dropped") as f64);

        set("checkpoint.writes", checkpoint.writes as f64);
        set("checkpoint.bytes", checkpoint.bytes as f64);
        if let Some(dir) = &checkpoint.dir {
            let mut loads = Vec::with_capacity(CHECKPOINT_LOADS);
            for _ in 0..CHECKPOINT_LOADS {
                let t = Instant::now();
                let cp = StageCheckpoint::load(dir).map_err(|e| e.to_string())?;
                loads.push(t.elapsed().as_secs_f64());
                std::hint::black_box(cp);
            }
            set("checkpoint.load_s", median(&loads));
        }
        Ok(())
    }
}

/// Counts checkpoint writes and sums the checkpoint file's size after
/// each, when tracing a checkpointed session.
struct CheckpointProbe {
    dir: Option<PathBuf>,
    on: bool,
    writes: u64,
    bytes: u64,
}

impl CheckpointProbe {
    fn new(dir: Option<PathBuf>, on: bool) -> Self {
        CheckpointProbe { dir, on, writes: 0, bytes: 0 }
    }

    /// Called after each session call that writes a checkpoint.
    fn observe(&mut self) -> Result<(), String> {
        let (Some(dir), true) = (&self.dir, self.on) else { return Ok(()) };
        let path = dir.join("session.ckpt");
        let meta = std::fs::metadata(&path).map_err(io(&path))?;
        self.writes += 1;
        self.bytes += meta.len();
        Ok(())
    }
}

fn write_contigs(path: &Path, contigs: &[Contig]) -> Result<(), String> {
    let records: Vec<FastaRecord> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| FastaRecord {
            name: format!("contig_{i} len={}", c.len()),
            seq: c.sequence().clone(),
        })
        .collect();
    let mut out = BufWriter::new(File::create(path).map_err(io(path))?);
    write_fasta(&mut out, &records).map_err(|e| e.to_string())?;
    out.flush().map_err(io(path))
}
