//! The shared JSON codec against every committed artifact: the goldens
//! render back byte for byte, every truncation inside an artifact's value
//! is rejected, and no single-byte flip makes the parser panic.

use proptest::prelude::*;

use pim_obsv::json::Json;

/// The six goldens first, then the committed bench baselines.
const ARTIFACTS: [(&str, &str); 8] = [
    ("area_overhead.json", include_str!("../../../tests/golden/area_overhead.json")),
    ("assembly_model.json", include_str!("../../../tests/golden/assembly_model.json")),
    ("fig3b_throughput.json", include_str!("../../../tests/golden/fig3b_throughput.json")),
    ("mapping_metrics.json", include_str!("../../../tests/golden/mapping_metrics.json")),
    ("pipeline_metrics.json", include_str!("../../../tests/golden/pipeline_metrics.json")),
    ("table1_variation.json", include_str!("../../../tests/golden/table1_variation.json")),
    ("BENCH_pr3.json", include_str!("../../../BENCH_pr3.json")),
    ("BENCH_pr7.json", include_str!("../../../BENCH_pr7.json")),
];
const GOLDENS: usize = 6;

#[test]
fn goldens_render_back_byte_for_byte() {
    for (name, text) in &ARTIFACTS[..GOLDENS] {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.render(), *text, "{name}");
    }
}

#[test]
fn every_truncation_inside_the_value_is_rejected() {
    for (name, text) in ARTIFACTS {
        let end = text.trim_end().len();
        for cut in 0..end {
            assert!(Json::parse(&text[..cut]).is_err(), "{name} cut at byte {cut} parsed");
        }
        assert!(Json::parse(&text[..end]).is_ok(), "{name} without its newline");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // XOR with a 7-bit mask keeps the ASCII artifacts valid UTF-8, so
    // every flip reaches the parser.
    #[test]
    fn single_byte_flips_never_panic(
        which in 0usize..ARTIFACTS.len(),
        at in any::<u64>(),
        mask in 1u8..128,
    ) {
        let (name, text) = ARTIFACTS[which];
        let mut bytes = text.as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        let flipped = String::from_utf8(bytes).expect("artifacts are ASCII");
        if let Ok(doc) = Json::parse(&flipped) {
            prop_assert!(Json::parse(&doc.render()).is_ok(), "{name}: flip at {at} rendered");
        }
    }
}
