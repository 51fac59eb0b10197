//! Golden-snapshot regression suite over the paper-figure emitters.
//!
//! Each test renders one deterministic artifact (`pim_bench::golden`) and
//! diffs it against the checked-in golden file under `tests/golden/`:
//! string values and integers must match exactly, floats within `1e-9`.
//!
//! **Bless path** — after an intentional model change, regenerate the
//! golden files and commit them alongside the change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_figures
//! ```
//!
//! The diff is reported per key, so an unintentional drift names the
//! exact figure cell that moved.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use pim_obsv::json::Json;

/// Float comparison tolerance (absolute, and relative to the golden
/// value's magnitude).
const FLOAT_TOLERANCE: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Extracts the leaf `"key": value` pairs of a golden artifact through
/// the shared codec. Values stay their JSON text; section objects
/// (`"counters": {`) are descended into, not listed.
fn entries(json: &str) -> BTreeMap<String, String> {
    fn walk(value: &Json, map: &mut BTreeMap<String, String>) {
        let Json::Object(members) = value else { panic!("artifact sections are objects") };
        for (key, value) in members {
            if let Json::Object(_) = value {
                walk(value, map);
                continue;
            }
            let clash = map.insert(key.clone(), value.to_string());
            assert!(clash.is_none(), "duplicate key {key:?} in artifact");
        }
    }
    let mut map = BTreeMap::new();
    walk(&Json::parse(json).expect("artifact is valid JSON"), &mut map);
    map
}

fn looks_like_float(value: &str) -> bool {
    value.contains('.') || value.contains('e') || value.contains('E')
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; bless it with `GOLDEN_BLESS=1 cargo test --test golden_figures`",
            path.display()
        )
    });
    let exp = entries(&expected);
    let act = entries(actual);
    let missing: Vec<_> = exp.keys().filter(|k| !act.contains_key(*k)).collect();
    let extra: Vec<_> = act.keys().filter(|k| !exp.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{name}: key set drifted (missing {missing:?}, unexpected {extra:?}); \
         if intentional, re-bless with GOLDEN_BLESS=1"
    );
    for (key, e) in &exp {
        let a = &act[key];
        if e.starts_with('"') {
            assert_eq!(a, e, "{name}: string value drifted at {key}");
        } else if looks_like_float(e) || looks_like_float(a) {
            let ev: f64 = e.parse().unwrap_or_else(|_| panic!("{name}: bad golden float at {key}"));
            let av: f64 =
                a.parse().unwrap_or_else(|_| panic!("{name}: bad measured float at {key}"));
            let tol = FLOAT_TOLERANCE * ev.abs().max(1.0);
            assert!(
                (ev - av).abs() <= tol,
                "{name}: float drifted at {key}: golden {ev} vs measured {av} (tol {tol:e}); \
                 if intentional, re-bless with GOLDEN_BLESS=1"
            );
        } else {
            assert_eq!(a, e, "{name}: integer drifted at {key}; if intentional, re-bless");
        }
    }
}

#[test]
fn fig3b_throughput_matches_golden() {
    assert_matches_golden("fig3b_throughput.json", &pim_bench::golden::throughput_golden());
}

#[test]
fn table1_variation_matches_golden() {
    assert_matches_golden("table1_variation.json", &pim_bench::golden::variation_golden(42));
}

#[test]
fn area_overhead_matches_golden() {
    assert_matches_golden("area_overhead.json", &pim_bench::golden::area_golden());
}

#[test]
fn assembly_cost_model_matches_golden() {
    assert_matches_golden("assembly_model.json", &pim_bench::golden::assembly_model_golden());
}

#[test]
fn pipeline_metrics_match_golden() {
    assert_matches_golden("pipeline_metrics.json", &pim_bench::golden::pipeline_metrics_golden(42));
}

#[test]
fn mapping_metrics_match_golden() {
    assert_matches_golden("mapping_metrics.json", &pim_bench::golden::mapping_metrics_golden(42));
}

#[test]
fn entry_parser_handles_sections_and_rejects_duplicates() {
    let parsed = entries("{\n  \"counters\": {\n    \"a.b\": 3\n  },\n  \"x\": 1.5\n}\n");
    assert_eq!(parsed.get("a.b").map(String::as_str), Some("3"));
    assert_eq!(parsed.get("x").map(String::as_str), Some("1.5"));
    assert!(!parsed.contains_key("counters"));
    for duplicated in [
        "{\n  \"x\": 1,\n  \"x\": 2\n}\n",
        "{\n  \"counters\": {\n    \"x\": 3\n  },\n  \"x\": 1.5\n}\n",
    ] {
        assert!(std::panic::catch_unwind(|| entries(duplicated)).is_err(), "{duplicated}");
    }
}
