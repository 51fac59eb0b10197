//! Hot-path timing measurements backing `pim-asm bench`.
//!
//! Measures host-side simulator throughput on the AAP hot path — the
//! per-command `op2`/`op3` kernels, instruction-stream execution, and the
//! end-to-end three-stage pipeline — and renders the numbers as a
//! `BENCH_*.json` perf-trajectory artifact. A previous artifact can be
//! passed back in as a baseline to record speedups across commits.
//!
//! Kernel *compilation* (the IR legalize → allocate → peephole pipeline)
//! is timed as its own measurement, separate from the steady-state
//! execution numbers: the template cache pays it once per geometry, so it
//! must never be mixed into per-command figures.
//!
//! The JSON schema is flat on purpose (one object per measurement, all
//! values in nanoseconds per operation); it is written and read through
//! the `pim_obsv::json` codec, one member per line.

use std::time::Instant;

use pim_assembler::ir::{self, kernels, BackendKind, LowerOptions, OptLevel};
use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_assembler::{PimAssembler, PimAssemblerConfig};
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;
use pim_genome::reads::ReadSimulator;
use pim_genome::sequence::DnaSequence;
use pim_obsv::json::Json;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The bench harness failed to drive a stage — most commonly the
/// end-to-end dataset overflowing the hash partition. Carries the
/// offending sizes so the caller can see *why* instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError {
    /// Genome length of the synthetic dataset that failed.
    pub genome_len: usize,
    /// Hash-partition sub-arrays the run was configured with.
    pub hash_subarrays: usize,
    /// The underlying stage error, rendered.
    pub source: String,
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bench pipeline failed on a {} bp dataset over {} hash sub-arrays: {} \
             (shrink --genome-len or widen the hash partition)",
            self.genome_len, self.hash_subarrays, self.source
        )
    }
}

impl std::error::Error for BenchError {}

/// One timed hot-path measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Stable measurement key (used to match baselines across runs).
    pub name: String,
    /// Nanoseconds per operation (or per pipeline run for `pipeline_e2e`).
    pub ns_per_op: f64,
    /// How many operations the timing loop executed.
    pub ops: u64,
    /// Which workload the measurement drives: `"assembly"` for the
    /// pipeline + its kernels, `"mapping"` for the read-mapping funnel.
    pub workload: &'static str,
    /// How the workload ingests its input: `"batch"` for one-shot loads,
    /// `"streamed"` for chunked ingestion through the staged engine.
    pub execution: &'static str,
}

/// Results of one full `pim-asm bench` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Canonical name of the lowering backend the sweep ran on.
    pub backend: &'static str,
    /// IR optimization level the kernels were compiled at.
    pub opt_level: &'static str,
    /// All measurements, in execution order.
    pub measurements: Vec<Measurement>,
    /// Whether the serial and worker-pool pipeline runs produced
    /// bit-identical contigs and command statistics.
    pub serial_parallel_identical: bool,
}

fn setup(backend: BackendKind) -> (Controller, pim_dram::SubarrayId) {
    let ctrl = Controller::with_profile(DramGeometry::paper_assembly(), &backend.profile());
    let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
    (ctrl, id)
}

/// Times `iters` repetitions of `f`, returning ns per repetition.
///
/// The repetitions run as five equal blocks and the *fastest* block wins:
/// the minimum is the standard noise rejector for throughput loops — host
/// scheduling and frequency drift only ever add time, so the fastest
/// block is the closest observation of the true cost. Without it,
/// cross-sweep comparisons (the CI O2-vs-O0 gate) drown in machine noise.
fn time_ns_per_op<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    // One warm-up pass keeps one-time lazy work out of the measurement.
    f();
    let block = (iters / 5).max(1);
    let mut best = f64::INFINITY;
    let mut done = 0u64;
    while done < iters {
        let n = block.min(iters - done);
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
        done += n;
    }
    best
}

/// Two-source AAP (XNOR) issued directly at the controller, result unused —
/// the dominant command of the hashmap stage.
fn bench_op2(iters: u64, backend: BackendKind) -> Measurement {
    let (mut ctrl, id) = setup(backend);
    let cols = ctrl.geometry().cols;
    ctrl.write_row(id, 1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
    ctrl.write_row(id, 2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
    let (x1, x2) = (ctrl.compute_row(0), ctrl.compute_row(1));
    ctrl.aap_copy(id, 1, x1).unwrap();
    ctrl.aap_copy(id, 2, x2).unwrap();
    let ns = time_ns_per_op(iters, || {
        ctrl.aap2_discard(id, SaMode::Xnor, [x1, x2], RowAddr(9)).unwrap();
    });
    Measurement {
        name: "op2_xnor".into(),
        ns_per_op: ns,
        ops: iters,
        workload: "assembly",
        execution: "batch",
    }
}

/// Triple-row-activation carry, result unused — the dominant command of
/// in-memory addition.
fn bench_op3(iters: u64, backend: BackendKind) -> Measurement {
    let (mut ctrl, id) = setup(backend);
    let cols = ctrl.geometry().cols;
    for r in 1..=3usize {
        ctrl.write_row(id, r, &BitRow::from_fn(cols, |i| (i + r) % 3 == 0)).unwrap();
    }
    let (x1, x2, x3) = (ctrl.compute_row(0), ctrl.compute_row(1), ctrl.compute_row(2));
    ctrl.aap_copy(id, 1, x1).unwrap();
    ctrl.aap_copy(id, 2, x2).unwrap();
    ctrl.aap_copy(id, 3, x3).unwrap();
    let ns = time_ns_per_op(iters, || {
        ctrl.aap3_carry_discard(id, [x1, x2, x3], RowAddr(8)).unwrap();
    });
    Measurement {
        name: "op3_carry".into(),
        ns_per_op: ns,
        ops: iters,
        workload: "assembly",
        execution: "batch",
    }
}

/// The IR-compiled full-adder kernel replayed through the template execute
/// path — the shape stage kernels ship to detached contexts. At `O2` the
/// optimizer's shorter stream is what executes, so this measurement is the
/// direct per-kernel payoff of the bounded sequence search.
fn bench_stream_exec(iters: u64, backend: BackendKind, opt: OptLevel) -> Measurement {
    let (mut ctrl, id) = setup(backend);
    let cols = ctrl.geometry().cols;
    for r in 1..=3usize {
        ctrl.write_row(id, r, &BitRow::from_fn(cols, |i| (i + r) % 5 == 0)).unwrap();
    }
    ctrl.write_row(id, 4, &BitRow::zeros(cols)).unwrap();
    let adder = CompiledTemplate::compile(
        TemplateKey::new(Kernel::FullAdder, cols, cols).with_backend(backend).with_opt(opt),
    );
    let mut rows = [RowAddr(0); 24];
    let n = adder
        .bind_roles_into(
            &ctrl,
            &[RowAddr(1), RowAddr(2), RowAddr(3)],
            &[RowAddr(10), RowAddr(11)],
            RowAddr(4),
            &[],
            &mut rows,
        )
        .unwrap();
    let ns = time_ns_per_op(iters, || {
        adder.execute(&mut ctrl, id, &rows[..n]).unwrap();
    });
    Measurement {
        name: "stream_full_adder".into(),
        ns_per_op: ns,
        ops: iters,
        workload: "assembly",
        execution: "batch",
    }
}

/// One full IR lowering of both built-in kernels, cache bypassed — the
/// compile-time cost the template cache amortizes out of every
/// steady-state number above.
fn bench_ir_compile(iters: u64, backend: BackendKind) -> Measurement {
    let cols = DramGeometry::paper_assembly().cols;
    let options = LowerOptions::for_row(cols);
    let (xnor, adder) = (kernels::xnor(), kernels::full_adder());
    let ns = time_ns_per_op(iters, || {
        let x = ir::compile_backend(&xnor, &options, backend).unwrap();
        let fa = ir::compile_backend(&adder, &options, backend).unwrap();
        assert!(x.role_count() + fa.role_count() > 0);
    });
    Measurement {
        name: "ir_compile_kernels".into(),
        ns_per_op: ns,
        ops: iters,
        workload: "assembly",
        execution: "batch",
    }
}

/// End-to-end three-stage pipeline wall-clock on a synthetic read set, run
/// serially and through the worker pool; also checks the two runs agree
/// bit-for-bit.
///
/// # Errors
///
/// [`BenchError`] when the dataset overflows the `subarrays`-wide hash
/// partition (or any stage fails), naming the offending sizes.
fn bench_pipeline(
    genome_len: usize,
    subarrays: usize,
    opt: OptLevel,
) -> Result<(Measurement, Measurement, Measurement, bool), BenchError> {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let genome = DnaSequence::random(&mut rng, genome_len);
    let reads = ReadSimulator::new(101, 10.0).simulate(&genome, &mut rng);
    let config = PimAssemblerConfig::paper(15).with_hash_subarrays(subarrays).with_opt_level(opt);
    // Streamed leg: the same workload ingested 64 reads at a time through
    // the staged engine (results must stay byte-identical to batch).
    let streamed_config = config.with_chunk_reads(64).map_err(|e| BenchError {
        genome_len,
        hash_subarrays: subarrays,
        source: e.to_string(),
    })?;

    let run_once = |cfg: PimAssemblerConfig, workers: usize| {
        let mut asm = PimAssembler::new(cfg.with_workers(workers));
        let start = Instant::now();
        let run = asm.assemble(&reads).map_err(|e| BenchError {
            genome_len,
            hash_subarrays: subarrays,
            source: e.to_string(),
        })?;
        Ok((start.elapsed().as_nanos() as f64, run))
    };

    // Warm-up (page cache, allocator arenas), then best-of-three timed
    // runs each — the same noise rejection as the micro-bench blocks,
    // without which single-shot wall clocks swing far more than any real
    // effect being tracked.
    const RUNS: usize = 3;
    let _ = run_once(config, 1)?;
    let mut serial_ns = f64::INFINITY;
    let mut pool_ns = f64::INFINITY;
    let mut streamed_ns = f64::INFINITY;
    let mut serial_run = None;
    let mut pool_run = None;
    let mut streamed_run = None;
    for _ in 0..RUNS {
        let (ns, run) = run_once(config, 1)?;
        serial_ns = serial_ns.min(ns);
        serial_run = Some(run);
        let (ns, run) = run_once(config, 4)?;
        pool_ns = pool_ns.min(ns);
        pool_run = Some(run);
        let (ns, run) = run_once(streamed_config, 1)?;
        streamed_ns = streamed_ns.min(ns);
        streamed_run = Some(run);
    }
    let (serial_run, pool_run, streamed_run) = (
        serial_run.expect("RUNS > 0"),
        pool_run.expect("RUNS > 0"),
        streamed_run.expect("RUNS > 0"),
    );
    let identical = serial_run.assembly.contigs == pool_run.assembly.contigs
        && serial_run.report.commands == pool_run.report.commands
        && serial_run.assembly.contigs == streamed_run.assembly.contigs
        && serial_run.report.commands == streamed_run.report.commands;
    Ok((
        Measurement {
            name: "pipeline_e2e_serial".into(),
            ns_per_op: serial_ns,
            ops: RUNS as u64,
            workload: "assembly",
            execution: "batch",
        },
        Measurement {
            name: "pipeline_e2e_pool4".into(),
            ns_per_op: pool_ns,
            ops: RUNS as u64,
            workload: "assembly",
            execution: "batch",
        },
        Measurement {
            name: "pipeline_e2e_streamed".into(),
            ns_per_op: streamed_ns,
            ops: RUNS as u64,
            workload: "assembly",
            execution: "streamed",
        },
        identical,
    ))
}

/// End-to-end read-mapping workload wall-clock: index a synthetic
/// reference, stream an error-bearing read set through the seed-filter +
/// DP funnel, and require software-oracle agreement. Sized well below the
/// assembly dataset — the DP leg dominates and scales with reads, not
/// genome length.
///
/// # Errors
///
/// [`BenchError`] when the mapping run fails (overflowing seed regions).
fn bench_mapping(opt: OptLevel) -> Result<Measurement, BenchError> {
    use pim_assembler::mapping_stage::{run_mapping, MappingRunConfig};
    let config = MappingRunConfig { error_rate: 0.02, opt, ..MappingRunConfig::default() };
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let genome = DnaSequence::random(&mut rng, config.genome_len);
    let reads = ReadSimulator::new(config.read_len, config.coverage)
        .with_error_rate(config.error_rate)
        .simulate(&genome, &mut rng);
    let run_once = || {
        let start = Instant::now();
        let report = run_mapping(&config, &genome, &reads).map_err(|e| BenchError {
            genome_len: config.genome_len,
            hash_subarrays: config.subarrays,
            source: e.to_string(),
        })?;
        assert!(report.agreement, "bench mapping run diverged from the software oracle");
        Ok(start.elapsed().as_nanos() as f64)
    };
    const RUNS: usize = 3;
    let _ = run_once()?;
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        best = best.min(run_once()?);
    }
    Ok(Measurement {
        name: "mapping_e2e".into(),
        ns_per_op: best,
        ops: RUNS as u64,
        workload: "mapping",
        execution: "batch",
    })
}

/// Runs the full sweep against `backend`'s substrate profile at `opt`.
/// `iters` scales the micro-bench loops and `genome_len` the end-to-end
/// dataset. The end-to-end pipeline is a PIM-Assembler workload, so
/// non-default backends measure the micro-benches only (command kernels,
/// stream execution, lowering).
///
/// # Errors
///
/// [`BenchError`] when the end-to-end dataset cannot be driven through
/// the pipeline (the micro-benches themselves cannot fail).
pub fn run_all_for(
    iters: u64,
    genome_len: usize,
    backend: BackendKind,
    opt: OptLevel,
) -> Result<BenchReport, BenchError> {
    let mut measurements = vec![
        bench_op2(iters, backend),
        bench_op3(iters, backend),
        bench_stream_exec(iters / 8 + 1, backend, opt),
        bench_ir_compile(iters / 64 + 1, backend),
    ];
    let mut identical = true;
    if backend == BackendKind::PimAssembler {
        let subarrays = (genome_len / 300 + 2).next_power_of_two().max(8);
        let (serial, pool, streamed, pipeline_identical) =
            bench_pipeline(genome_len, subarrays, opt)?;
        measurements.push(serial);
        measurements.push(pool);
        measurements.push(streamed);
        measurements.push(bench_mapping(opt)?);
        identical = pipeline_identical;
    }
    Ok(BenchReport {
        backend: backend.name(),
        opt_level: opt.name(),
        measurements,
        serial_parallel_identical: identical,
    })
}

/// Renders the report as the `BENCH_*.json` artifact. When `baseline`
/// measurements are given, matching names gain `baseline_ns_per_op` and
/// `speedup` fields.
pub fn to_json(report: &BenchReport, baseline: &[Measurement]) -> String {
    let results = report.measurements.iter().map(|m| {
        let mut fields = vec![
            ("name", Json::from(m.name.as_str())),
            ("workload", Json::from(m.workload)),
            ("execution", Json::from(m.execution)),
            ("ns_per_op", Json::fixed(m.ns_per_op, 2)),
            ("ops", Json::num(m.ops)),
        ];
        if let Some(b) = baseline.iter().find(|b| b.name == m.name && m.ns_per_op > 0.0) {
            fields.push(("baseline_ns_per_op", Json::fixed(b.ns_per_op, 2)));
            fields.push(("speedup", Json::fixed(b.ns_per_op / m.ns_per_op, 3)));
        }
        Json::object(fields)
    });
    Json::object([
        ("schema", Json::from("pim-bench-hotpath-v3")),
        ("backend", Json::from(report.backend)),
        ("opt_level", Json::from(report.opt_level)),
        ("results", Json::Array(results.collect())),
        ("serial_parallel_identical", Json::Bool(report.serial_parallel_identical)),
    ])
    .render()
}

/// Why a `--baseline` file cannot serve as a baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Not JSON, or not a `pim-bench-hotpath-*` artifact whose `results`
    /// are `{"name", "ns_per_op"}` objects; says which.
    NotAnArtifact(String),
    /// A bench artifact whose `results` array is empty.
    NoMeasurements,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::NotAnArtifact(why) => write!(f, "not a bench artifact ({why})"),
            BaselineError::NoMeasurements => f.write_str("bench artifact holds no measurements"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Parses the measurements back out of a `BENCH_*.json` artifact produced
/// by [`to_json`] (names and `ns_per_op` only — enough to baseline).
///
/// # Errors
///
/// [`BaselineError`] when the text is not a bench artifact or holds no
/// measurements.
pub fn parse_measurements(json: &str) -> Result<Vec<Measurement>, BaselineError> {
    let not_bench = |why: &str| BaselineError::NotAnArtifact(why.to_string());
    let doc = Json::parse(json).map_err(|e| not_bench(&e.to_string()))?;
    match doc.get("schema") {
        Some(Json::String(s)) if s.starts_with("pim-bench-hotpath-") => {}
        _ => return Err(not_bench("no pim-bench-hotpath schema")),
    }
    let Some(Json::Array(results)) = doc.get("results") else {
        return Err(not_bench("no results array"));
    };
    if results.is_empty() {
        return Err(BaselineError::NoMeasurements);
    }
    let measurement = |m: &Json| {
        let Some(Json::String(name)) = m.get("name") else { return None };
        let ns_per_op = m.get("ns_per_op")?.number()?;
        Some(Measurement { name: name.clone(), ns_per_op, ops: 0, workload: "", execution: "" })
    };
    results
        .iter()
        .map(measurement)
        .collect::<Option<_>>()
        .ok_or_else(|| not_bench("a result lacks a string name or a numeric ns_per_op"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_parser() {
        let report = BenchReport {
            backend: "pim-assembler",
            opt_level: "O0",
            measurements: vec![
                Measurement {
                    name: "op2_xnor".into(),
                    ns_per_op: 123.45,
                    ops: 10,
                    workload: "assembly",
                    execution: "batch",
                },
                Measurement {
                    name: "pipeline_e2e_serial".into(),
                    ns_per_op: 9.5e8,
                    ops: 1,
                    workload: "assembly",
                    execution: "batch",
                },
            ],
            serial_parallel_identical: true,
        };
        let json = to_json(&report, &[]);
        assert!(json.contains("\"backend\": \"pim-assembler\""), "{json}");
        assert!(json.contains("\"opt_level\": \"O0\""), "{json}");
        let parsed = parse_measurements(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "op2_xnor");
        assert!((parsed[0].ns_per_op - 123.45).abs() < 1e-9);
        assert!((parsed[1].ns_per_op - 9.5e8).abs() < 1.0);
    }

    #[test]
    fn committed_baselines_parse_to_their_measurements() {
        let pairs = |json: &str| -> Vec<(String, f64)> {
            parse_measurements(json).unwrap().into_iter().map(|m| (m.name, m.ns_per_op)).collect()
        };
        let expect = |list: &[(&str, f64)]| -> Vec<(String, f64)> {
            list.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        assert_eq!(
            pairs(include_str!("../../../BENCH_pr3.json")),
            expect(&[
                ("op2_xnor", 61.79),
                ("op3_carry", 64.96),
                ("stream_full_adder", 494.56),
                ("pipeline_e2e_serial", 65128275.0),
                ("pipeline_e2e_pool4", 71542142.0),
            ])
        );
        assert_eq!(
            pairs(include_str!("../../../BENCH_pr7.json")),
            expect(&[
                ("op2_xnor", 47.39),
                ("op3_carry", 60.37),
                ("stream_full_adder", 372.1),
                ("ir_compile_kernels", 6002.0),
                ("pipeline_e2e_serial", 6068138.0),
                ("pipeline_e2e_pool4", 6588641.0),
            ])
        );
    }

    #[test]
    fn baseline_errors_distinguish_non_artifacts_from_empty_ones() {
        let err = parse_measurements("not json").unwrap_err();
        assert!(err.to_string().contains("invalid JSON at byte 0"), "{err}");
        for not_bench in [
            r#"{"schema": "pim-obsv-metrics-v1", "counters": {}}"#,
            r#"{"results": [{"name": "op2_xnor", "ns_per_op": 1.0}]}"#,
            r#"{"schema": "pim-bench-hotpath-v3", "results": [{"name": "op2_xnor"}]}"#,
        ] {
            let err = parse_measurements(not_bench).unwrap_err();
            assert!(matches!(err, BaselineError::NotAnArtifact(_)), "{not_bench}: {err}");
        }
        let empty = r#"{"schema": "pim-bench-hotpath-v3", "results": []}"#;
        assert_eq!(parse_measurements(empty), Err(BaselineError::NoMeasurements));
    }

    #[test]
    fn baseline_produces_speedup_fields() {
        let report = BenchReport {
            backend: "pim-assembler",
            opt_level: "O2",
            measurements: vec![Measurement {
                name: "op2_xnor".into(),
                ns_per_op: 50.0,
                ops: 10,
                workload: "assembly",
                execution: "batch",
            }],
            serial_parallel_identical: true,
        };
        let baseline = vec![Measurement {
            name: "op2_xnor".into(),
            ns_per_op: 100.0,
            ops: 0,
            workload: "assembly",
            execution: "batch",
        }];
        let json = to_json(&report, &baseline);
        assert!(json.contains("\"speedup\": 2.000"), "{json}");
        assert!(json.contains("\"baseline_ns_per_op\": 100.00"), "{json}");
    }

    #[test]
    fn quick_sweep_produces_all_measurements() {
        let report = run_all_for(50, 600, BackendKind::PimAssembler, OptLevel::O0).unwrap();
        assert_eq!(report.backend, "pim-assembler");
        assert_eq!(report.opt_level, "O0");
        let names: Vec<&str> = report.measurements.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "op2_xnor",
                "op3_carry",
                "stream_full_adder",
                "ir_compile_kernels",
                "pipeline_e2e_serial",
                "pipeline_e2e_pool4",
                "pipeline_e2e_streamed",
                "mapping_e2e"
            ]
        );
        let json = to_json(&report, &[]);
        assert!(json.contains("\"schema\": \"pim-bench-hotpath-v3\""), "{json}");
        assert!(json.contains("\"workload\": \"mapping\""), "{json}");
        assert!(json.contains("\"workload\": \"assembly\""), "{json}");
        assert!(json.contains("\"execution\": \"streamed\""), "{json}");
        assert!(json.contains("\"execution\": \"batch\""), "{json}");
        assert!(report.measurements.iter().all(|m| m.ns_per_op > 0.0));
        assert!(report.serial_parallel_identical);
    }

    #[test]
    fn overflowing_dataset_reports_sizes_instead_of_panicking() {
        // A 3000 bp dataset into a single hash sub-array cannot fit; the
        // harness must surface the offending sizes and the remediation
        // hint, never panic (the old `expect` at this site did).
        let err = bench_pipeline(3000, 1, OptLevel::O0).unwrap_err();
        assert_eq!(err.genome_len, 3000);
        assert_eq!(err.hash_subarrays, 1);
        let msg = err.to_string();
        assert!(msg.contains("3000 bp"), "{msg}");
        assert!(msg.contains("1 hash sub-arrays"), "{msg}");
        assert!(msg.contains("--genome-len"), "{msg}");
    }

    #[test]
    fn o2_sweep_runs_and_records_its_level() {
        let report = run_all_for(20, 600, BackendKind::PimAssembler, OptLevel::O2).unwrap();
        assert_eq!(report.opt_level, "O2");
        assert!(report.serial_parallel_identical, "O2 must not perturb results");
        let json = to_json(&report, &[]);
        assert!(json.contains("\"opt_level\": \"O2\""), "{json}");
    }

    #[test]
    fn retargeted_sweeps_run_the_micro_benches() {
        for backend in [BackendKind::AmbitTra, BackendKind::PandaMram] {
            let report = run_all_for(20, 600, backend, OptLevel::O0).unwrap();
            assert_eq!(report.backend, backend.name());
            let names: Vec<&str> = report.measurements.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                ["op2_xnor", "op3_carry", "stream_full_adder", "ir_compile_kernels"],
                "non-default backends skip the end-to-end pipeline"
            );
            assert!(report.measurements.iter().all(|m| m.ns_per_op > 0.0));
            let json = to_json(&report, &[]);
            assert!(json.contains(&format!("\"backend\": \"{}\"", backend.name())), "{json}");
        }
    }
}
