//! Deterministic golden-snapshot emitters for the regression suite.
//!
//! Each function renders one figure/table of the paper's evaluation — or
//! the functional pipeline's `pim-obsv` metrics snapshot — as a flat JSON
//! object with sorted keys and **no timestamps or host-timing values**, so
//! the output is byte-stable for a fixed seed. The workspace test
//! `tests/golden_figures.rs` diffs these against the checked-in artifacts
//! under `tests/golden/`; regenerate them with
//! `GOLDEN_BLESS=1 cargo test --test golden_figures`.

use std::collections::BTreeMap;

use pim_circuits::area::AreaModel;
use pim_circuits::variation::MonteCarlo;
use pim_obsv::json::Json;
use pim_platforms::assembly_model::{
    AssemblyCostModel, GpuAssemblyModel, PimAssemblyModel, StageBreakdown,
};
use pim_platforms::memwall::{mbr_percent, rur_percent};
use pim_platforms::throughput::ThroughputReport;
use pim_platforms::workload::AssemblyWorkload;

use crate::{observed_mapping_run, observed_pim_run};

/// Schema tag written into every golden artifact (except the pipeline
/// metrics one, which reuses the `pim-obsv` snapshot schema).
pub const GOLDEN_SCHEMA: &str = "pim-golden-v1";

/// The artifact: the schema tag, then the sorted pairs.
fn render(pairs: BTreeMap<String, Json>) -> String {
    Json::object([("schema".to_string(), Json::from(GOLDEN_SCHEMA))].into_iter().chain(pairs))
        .render()
}

/// Fig. 3b — raw XNOR2/addition throughput of every platform at the
/// paper's three vector lengths. Purely analytic, no randomness.
pub fn throughput_golden() -> String {
    let report = ThroughputReport::paper_sweep();
    let mut pairs = BTreeMap::new();
    for p in &report.points {
        let log2 = p.bits.trailing_zeros();
        pairs.insert(
            format!("throughput.{}.pow{log2}.xnor_bits_per_s", p.platform),
            Json::num(p.xnor_bits_per_s),
        );
        pairs.insert(
            format!("throughput.{}.pow{log2}.add_bits_per_s", p.platform),
            Json::num(p.add_bits_per_s),
        );
    }
    render(pairs)
}

/// Table I — Monte-Carlo process-variation test error for TRA vs the
/// proposed two-row activation, 10 000 trials per cell at `seed`.
pub fn variation_golden(seed: u64) -> String {
    let table = MonteCarlo::new(10_000, seed).table1();
    let mut pairs = BTreeMap::new();
    for row in &table.rows {
        let pct = row.variation_pct as u64;
        pairs.insert(format!("variation.pm{pct:02}.tra_error_pct"), Json::num(row.tra_error_pct));
        pairs.insert(
            format!("variation.pm{pct:02}.two_row_error_pct"),
            Json::num(row.two_row_error_pct),
        );
    }
    render(pairs)
}

/// §II-B — transistor accounting of the add-on hardware. Pure integers
/// plus the derived overhead percentage.
pub fn area_golden() -> String {
    let a = AreaModel::paper();
    let mut pairs = BTreeMap::new();
    pairs.insert("area.rows".into(), Json::num(a.rows));
    pairs.insert("area.cols".into(), Json::num(a.cols));
    pairs.insert("area.sa_addon_per_bitline".into(), Json::num(a.sa_addon_per_bitline));
    pairs.insert("area.mrd_addon".into(), Json::num(a.mrd_addon));
    pairs.insert("area.ctrl_addon".into(), Json::num(a.ctrl_addon));
    pairs.insert("area.addon_transistors".into(), Json::num(a.addon_transistors()));
    pairs.insert("area.addon_row_equivalents".into(), Json::num(a.addon_row_equivalents()));
    pairs.insert("area.overhead_percent".into(), Json::num(a.overhead_percent()));
    render(pairs)
}

/// Figs. 9 & 11 — the analytic chr14-scale assembly cost model: per-stage
/// times, power, and the derived MBR/RUR percentages for every platform
/// at k = 16 and k = 32.
pub fn assembly_model_golden() -> String {
    let mut pairs = BTreeMap::new();
    for k in [16usize, 32] {
        let w = AssemblyWorkload::chr14(k);
        let rows: Vec<StageBreakdown> = vec![
            GpuAssemblyModel::gtx_1080ti().estimate(&w),
            PimAssemblyModel::pim_assembler(2).estimate(&w),
            PimAssemblyModel::ambit(2).estimate(&w),
            PimAssemblyModel::drisa_3t1c(2).estimate(&w),
            PimAssemblyModel::drisa_1t1c(2).estimate(&w),
        ];
        for b in &rows {
            let base = format!("model.k{k}.{}", b.name);
            pairs.insert(format!("{base}.hashmap_s"), Json::num(b.hashmap_s));
            pairs.insert(format!("{base}.debruijn_s"), Json::num(b.debruijn_s));
            pairs.insert(format!("{base}.traverse_s"), Json::num(b.traverse_s));
            pairs.insert(format!("{base}.transfer_s"), Json::num(b.transfer_s));
            pairs.insert(format!("{base}.power_w"), Json::num(b.power_w));
            pairs.insert(format!("{base}.mbr_percent"), Json::num(mbr_percent(b)));
            pairs.insert(format!("{base}.rur_percent"), Json::num(rur_percent(b)));
        }
    }
    render(pairs)
}

/// The functional pipeline's deterministic `pim-obsv` metrics snapshot
/// for the standard scaled dataset at `seed` (k = 15, 2 kb genome, 8×
/// coverage). Host-timing counters are excluded by construction
/// ([`pim_obsv::MetricsSnapshot::deterministic_json`]), so the artifact
/// is identical for serial and worker-pool runs.
pub fn pipeline_metrics_golden(seed: u64) -> String {
    let run = observed_pim_run(15, 2000, 8.0, seed);
    run.report.metrics.expect("observability is enabled").deterministic_json()
}

/// The mapping workload's deterministic `pim-obsv` metrics snapshot at
/// `seed` — the second workload's counter totals (seed probes, match
/// planes, popcount executions, DP wavefronts, and the per-class command
/// counters they drive), pinned the same way as the assembly pipeline's.
/// The run must agree with the software oracle before its counters are
/// worth pinning.
pub fn mapping_metrics_golden(seed: u64) -> String {
    let report = observed_mapping_run(seed);
    assert!(report.agreement, "golden mapping run diverged from the software oracle");
    report.metrics.expect("run_mapping always records metrics").deterministic_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitters_are_deterministic_across_calls() {
        assert_eq!(throughput_golden(), throughput_golden());
        assert_eq!(variation_golden(42), variation_golden(42));
        assert_eq!(area_golden(), area_golden());
        assert_eq!(assembly_model_golden(), assembly_model_golden());
    }

    #[test]
    fn seeds_actually_steer_the_variation_table() {
        assert_ne!(variation_golden(42), variation_golden(43));
    }

    #[test]
    fn artifacts_carry_their_schema_tags() {
        for artifact in [throughput_golden(), area_golden(), assembly_model_golden()] {
            assert!(artifact.contains(GOLDEN_SCHEMA), "{artifact}");
        }
        assert!(pipeline_metrics_golden(42).contains(pim_obsv::SNAPSHOT_SCHEMA));
    }
}
