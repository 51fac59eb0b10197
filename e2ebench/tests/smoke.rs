//! The benchmark's own checks, at reduced sizes: every metric that
//! `BENCHMARK.json` names is printed with its unit, and failures of the
//! program under test are counted, never panicked on.

use std::path::PathBuf;

use pim_e2ebench::assembly::AsmWorkload;
use pim_e2ebench::mapping::MapWorkload;
use pim_e2ebench::metrics::{END_TO_END, PER_LAYER};
use pim_e2ebench::spec::{workload, Spec, WORKLOADS};
use pim_e2ebench::{run, run_workload, Options};

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The workload at test size: a 2 kbp genome or a 1 kbp reference.
fn small(name: &str) -> Spec {
    let spec = workload(name).expect("known workload");
    match spec {
        Spec::Asm(_) => spec.with_genome_len(2_000),
        Spec::Map(_) => spec.with_genome_len(1_000),
    }
}

fn opts(trace: bool) -> Options {
    Options { seed: 3, seconds: 0.01, trace }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("key present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item[..item.find('"').expect("name closes")].to_string();
            let unit = item.split("\"unit\": \"").nth(1).expect("unit present");
            (name, unit[..unit.find('"').expect("unit closes")].to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_benchmark_prints() {
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads = &BENCHMARK_JSON[BENCHMARK_JSON.find("\"workloads\"").unwrap()..];
    let workloads = &workloads[..workloads.find(']').unwrap()];
    let names: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|item| &item[..item.find('"').unwrap()])
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn smoke_run_prints_every_metric_with_its_unit() {
    for name in WORKLOADS {
        for trace in [false, true] {
            let dir = scratch(&format!("smoke-{name}-{trace}"));
            let outcome = run(small(name), &opts(trace), &dir).expect("inputs generate");
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.errors);
            assert!(outcome.attempted >= 1);
            let line = outcome.json(trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            let key = if trace { "per_layer" } else { "end_to_end" };
            for (metric, unit) in listed(key) {
                let needle = format!("\"{metric}\": {{\"value\": ");
                let at = line.find(&needle).unwrap_or_else(|| panic!("{name}: {metric} missing"));
                let object = &line[at + needle.len()..];
                let object = &object[..object.find('}').expect("metric object closes")];
                let (value, unit_field) = object.split_once(", ").expect("value, unit");
                assert_eq!(unit_field, format!("\"unit\": \"{unit}\""), "{name}: {metric}");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{name}: {metric}");
                if !trace {
                    assert!(value > 0.0, "{name}: end-to-end metric {metric} reads {value}");
                }
            }
            if trace {
                let v = &outcome.values;
                assert!(v["trace.coverage"] >= 0.95, "{name}: coverage {}", v["trace.coverage"]);
                assert!(v["ledger.energy_pj"] > 0.0);
                if name.starts_with("map") {
                    for idle in ["dram.schedule_s", "hashmap_stage.probes", "checkpoint.load_s"] {
                        assert_eq!(v[idle], 0.0, "{name}: {idle}");
                    }
                    assert!(v["cmd.mapping.aap2"] > 0.0);
                } else {
                    assert!(v["dram.schedule_s"] > 0.0 && v["hashmap_stage.probes"] > 0.0);
                    assert_eq!(v["cmd.mapping.aap2"], 0.0);
                }
                assert_eq!(v["checkpoint.writes"] > 0.0, name == "asm-stream-20k-err", "{name}");
            }
        }
    }
}

#[test]
fn a_forced_oracle_mismatch_counts_as_one_failed_operation() {
    let Spec::Asm(spec) = small("asm-batch-50k") else { unreachable!() };
    let mut asm = AsmWorkload::prepare(spec, 3, &scratch("mismatch-asm")).expect("inputs");
    asm.oracle.contigs.pop();
    let outcome = run_workload(&mut asm, &opts(false));
    assert_eq!(outcome.failed, 1, "{:?}", outcome.errors);
    assert!(outcome.errors[0].contains("oracle mismatch"), "{:?}", outcome.errors);
    assert!(outcome.json(false).starts_with("{\"correct\": false"));

    let Spec::Map(spec) = small("map-10k") else { unreachable!() };
    let mut map = MapWorkload::prepare(spec, 3, &scratch("mismatch-map")).expect("inputs");
    map.oracle[0] = map.oracle[0].map_or(
        Some(pim_assembler::mapping_stage::MappingHit { read_id: 0, position: 0, score: -9 }),
        |_| None,
    );
    let outcome = run_workload(&mut map, &opts(false));
    assert_eq!(outcome.failed, 1, "{:?}", outcome.errors);
    assert!(outcome.errors[0].contains("oracle mismatch"), "{:?}", outcome.errors);
}

#[test]
fn an_overflowing_config_counts_as_one_failed_operation() {
    for name in ["asm-batch-50k", "map-10k"] {
        let dir = scratch(&format!("overflow-{name}"));
        let spec = small(name).with_genome_len(3_000).with_subarrays(1);
        let outcome = run(spec, &opts(false), &dir).expect("inputs generate");
        assert_eq!(outcome.failed, 1, "{name}: {:?}", outcome.errors);
        assert!(outcome.errors[0].contains("full"), "{name}: {:?}", outcome.errors);
        assert!(outcome.json(false).starts_with("{\"correct\": false"));
    }
}
