//! Workspace-level pins for the `pim-obsv` layer.
//!
//! The load-bearing guarantee: the *deterministic* sections of a metrics
//! snapshot (counters + floats) depend only on the workload, never on how
//! many host worker threads executed it. A serial run and a `--workers 8`
//! run must render byte-identical `deterministic_json()` artifacts —
//! host-timing values (barrier waits, per-worker item counts) live in the
//! separate `host` section and are excluded from that rendering.

use pim_assembler::checkpoint::{prepare_dir, CHECKPOINT_FILE};
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimRun, Session};
use pim_obsv::MetricsSnapshot;

fn observed_run(workers: usize) -> PimRun {
    let (_, reads) = pim_bench::scaled_dataset(2000, 8.0, 42);
    let config = PimAssemblerConfig::paper(15)
        .with_hash_subarrays(16)
        .with_observability(true)
        .with_workers(workers);
    PimAssembler::new(config).assemble(&reads).expect("scaled run fits the hash partition")
}

/// Counter keys every observed pipeline run must populate (the CI
/// metrics-smoke step asserts the same set on the CLI artifact).
const REQUIRED_COUNTERS: &[&str] = &[
    "hashmap.aap",
    "hashmap.aap2",
    "hashmap.hash_probes",
    "hashmap.hash_inserts",
    "graph.graph_kmers",
    "traverse.aap3",
    "traverse.traverse_edges",
    "hist.hash_probe_len.total",
    "total.commands",
    "total.energy_fj",
];

#[test]
fn serial_and_pooled_runs_render_byte_identical_deterministic_metrics() {
    let serial = observed_run(1);
    let pooled = observed_run(8);
    let serial_snap = serial.report.metrics.as_ref().expect("observability enabled");
    let pooled_snap = pooled.report.metrics.as_ref().expect("observability enabled");
    assert_eq!(
        serial_snap.deterministic_json(),
        pooled_snap.deterministic_json(),
        "deterministic metrics must not depend on the worker count"
    );
    for key in REQUIRED_COUNTERS {
        assert!(serial_snap.counter(key) > 0, "required counter {key} is zero or missing");
    }
    // Dispatch telemetry depends on how the stream was chunked, so since
    // the staged-engine refactor it lives in the host section wholesale.
    assert!(serial_snap.host.get("dispatch.batches").copied().unwrap_or(0) > 0);
    // The worker pool actually ran: its host telemetry says so, and the
    // assembled contigs agree with the serial run's.
    assert!(pooled_snap.host.get("dispatch.pool_batches").copied().unwrap_or(0) > 0);
    assert_eq!(serial.assembly.contigs, pooled.assembly.contigs);
}

#[test]
fn full_snapshot_roundtrips_through_the_artifact_parser() {
    let run = observed_run(2);
    let snap = run.report.metrics.expect("observability enabled");
    let parsed = MetricsSnapshot::parse(&snap.to_json()).expect("artifact parses");
    assert_eq!(parsed.counters, snap.counters);
    assert_eq!(parsed.host, snap.host);
    // Floats are rendered at 9 decimal places, so roundtrip to tolerance.
    assert_eq!(parsed.floats.keys().collect::<Vec<_>>(), snap.floats.keys().collect::<Vec<_>>());
    for (key, value) in &snap.floats {
        assert!((parsed.floats[key] - value).abs() <= 1e-9, "float {key} drifted in roundtrip");
    }
    let det = MetricsSnapshot::parse(&snap.deterministic_json()).expect("artifact parses");
    assert_eq!(det.counters, snap.counters);
    assert!(det.host.is_empty(), "deterministic artifact must exclude host timings");
}

#[test]
fn the_report_schedule_is_a_traced_span() {
    let (_, reads) = pim_bench::scaled_dataset(2000, 8.0, 42);
    let config = PimAssemblerConfig::paper(15).with_hash_subarrays(16).with_observability(true);
    let mut asm = PimAssembler::new(config);
    let run = asm.assemble(&reads).expect("scaled run fits the hash partition");
    let spans = asm.span_recorder().expect("observability enabled").events();
    let names: Vec<&str> = spans.iter().map(|e| e.name).collect();
    let at = |name: &str| names.iter().position(|&n| n == name);
    // One schedule span per run, after the last stage it reports on, and
    // it counts the commands the schedule placed on the bus.
    assert_eq!(names.iter().filter(|&&n| n == "report.schedule").count(), 1, "{names:?}");
    let schedule = at("report.schedule").expect("schedule span");
    assert!(at("stage.traverse").expect("traverse span") < schedule, "{names:?}");
    let snap = run.report.metrics.as_ref().expect("observability enabled");
    let commands = spans[schedule].items;
    assert!(commands > 0 && commands <= snap.counter("total.commands"));
    // The snapshot is taken after the span, so it counts it.
    assert_eq!(snap.host.get("spans.recorded").copied(), Some(spans.len() as u64));
}

#[test]
fn every_checkpoint_write_is_a_traced_span() {
    let (_, reads) = pim_bench::scaled_dataset(2000, 8.0, 42);
    let chunk = 64;
    let config = PimAssemblerConfig::paper(15)
        .with_hash_subarrays(16)
        .with_observability(true)
        .with_chunk_reads(chunk)
        .expect("positive chunk size");
    let dir = std::env::temp_dir().join(format!("pim_obsv_ckpt_spans_{}", std::process::id()));
    let dir = prepare_dir(&dir, true).expect("checkpoint dir");
    let mut asm = PimAssembler::new(config);
    let mut session = Session::start(&mut asm, Some(dir.clone())).expect("session starts");
    session.feed_chunked(&reads, Some(chunk)).expect("chunks fit");
    session.finish().expect("run completes");
    let spans = asm.span_recorder().expect("observability enabled").events();
    let writes: Vec<_> = spans.iter().filter(|e| e.name == "checkpoint.write").collect();
    // Start, one per chunk, then the graph, traverse and done boundaries.
    assert_eq!(writes.len(), reads.len().div_ceil(chunk) + 4);
    assert!(writes.iter().all(|e| e.cat == "checkpoint" && e.items > 0));
    let on_disk = std::fs::metadata(dir.join(CHECKPOINT_FILE)).expect("checkpoint file").len();
    assert_eq!(writes.last().map(|e| e.items), Some(on_disk), "items count the bytes written");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn observability_stays_off_by_default() {
    let (_, reads) = pim_bench::scaled_dataset(1000, 6.0, 42);
    let config = PimAssemblerConfig::paper(15).with_hash_subarrays(8);
    let run = PimAssembler::new(config).assemble(&reads).expect("run completes");
    assert!(run.report.metrics.is_none(), "metrics must be opt-in");
}
