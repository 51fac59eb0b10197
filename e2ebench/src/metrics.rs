//! Metric names and units, summary statistics, peak RSS, and the result
//! line. `BENCHMARK.json` lists the same names and units; the benchmark's
//! tests hold the two in step.

use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("device_time_ms", "ms"),
    ("device_energy_uj", "uJ"),
];

/// Per-layer metrics, printed with `--trace 1`. A metric that a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.start_s", "s"),
    ("pipeline.feed_s", "s"),
    ("pipeline.feed_chunk_ms_max", "ms"),
    ("pipeline.seal_s", "s"),
    ("pipeline.advance_graph_s", "s"),
    ("pipeline.finish_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("dram.schedule_s", "s"),
    ("dram.schedule_queues", "count"),
    ("dram.schedule_commands", "count"),
    ("dram.schedule_queue_bytes", "bytes"),
    ("hashmap_stage.probes", "count"),
    ("hashmap_stage.hits", "count"),
    ("hashmap_stage.distinct", "count"),
    ("hashmap_stage.hit_ratio", "ratio"),
    ("hashmap_stage.host_ns_per_cmd", "ns"),
    ("graph_stage.edges", "count"),
    ("traverse_stage.trails", "count"),
    ("dispatch.batches", "count"),
    ("dispatch.barrier_wait_s", "s"),
    ("dispatch.imbalance", "ratio"),
    ("dispatch.batch1_ns", "ns"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_s", "s"),
    ("genome.parse_s", "s"),
    ("genome.write_s", "s"),
    ("mapping_stage.build_s", "s"),
    ("mapping_stage.feed_s", "s"),
    ("mapping_stage.seeded", "count"),
    ("mapping_stage.candidates", "count"),
    ("mapping_stage.survivors", "count"),
    ("mapping_stage.dp_cells", "count"),
    ("mapping_stage.mapped", "count"),
    ("mapping_stage.survivor_ratio", "ratio"),
    ("mapping_stage.host_ns_per_cmd", "ns"),
    ("dram.bitrow_xnor_ns", "ns"),
    ("dram.subarray_op2_ns", "ns"),
    ("dram.context_op2_ns", "ns"),
    ("dram.controller_op2_ns", "ns"),
    ("template.full_adder_ns", "ns"),
    ("ir.compile_s", "s"),
    ("cmd.hashmap.aap", "count"),
    ("cmd.hashmap.aap2", "count"),
    ("cmd.hashmap.aap3", "count"),
    ("cmd.hashmap.dpu", "count"),
    ("cmd.graph.aap", "count"),
    ("cmd.graph.aap2", "count"),
    ("cmd.graph.aap3", "count"),
    ("cmd.graph.dpu", "count"),
    ("cmd.traverse.aap", "count"),
    ("cmd.traverse.aap2", "count"),
    ("cmd.traverse.aap3", "count"),
    ("cmd.traverse.dpu", "count"),
    ("cmd.mapping.aap", "count"),
    ("cmd.mapping.aap2", "count"),
    ("cmd.mapping.aap3", "count"),
    ("cmd.mapping.dpu", "count"),
    ("ledger.energy_pj", "pJ"),
    ("rss.hwm_after_feed_mb", "MB"),
    ("rss.hwm_after_finish_mb", "MB"),
    ("obsv.spans_dropped", "count"),
];

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of `n`
/// samples beyond it, with its nearest-rank value; `None` below 20
/// samples.
pub fn tail_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    [999, 990, 900, 500].into_iter().find_map(|per_mille| {
        let rank = (per_mille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, s[rank - 1]))
    })
}

/// The process's peak resident set (VmHWM) in MiB, read from
/// `/proc/self/status`; `None` where that file or line is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: one JSON object with every metric of `table` from
/// `values`, each with its unit.
///
/// # Panics
///
/// Panics when `values` lacks a metric of `table` — a benchmark bug.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// FNV-1a over `bytes`, continuing from `hash` — the contig and hit
/// digests that every repetition must reproduce.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Max over mean of per-worker item counts (1 is perfectly balanced; 0
/// when no worker ran).
pub fn imbalance(items: &[u64]) -> f64 {
    let total: u64 = items.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = items.iter().copied().max().unwrap_or(0);
    max as f64 * items.len() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
