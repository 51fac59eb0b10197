//! Flat, serde-free metrics snapshot (the `--metrics-out` artifact).

use std::collections::BTreeMap;

use crate::json::Json;

/// Schema tag written into every snapshot artifact.
pub const SNAPSHOT_SCHEMA: &str = "pim-obsv-metrics-v1";

/// A flattened view of one run's metrics: scoped integer counters,
/// derived floats, and host-side (timing-dependent) integers.
///
/// Keys follow a dotted taxonomy:
/// `"{stage}.{metric}"` for stage aggregates,
/// `"{stage}.subNNNNN.{metric}"` for per-sub-array detail,
/// `"hist.{key}.bNN"` / `"hist.{key}.total"` for histogram buckets,
/// `"total.*"` for ledger-derived run totals, and
/// `"dispatch.*"` for dispatcher telemetry.
///
/// The `counters` and `floats` sections are execution-order deterministic
/// (identical for serial and worker-pool runs); `host` holds wall-clock
/// dependent values and is excluded from
/// [`deterministic_json`](MetricsSnapshot::deterministic_json).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Deterministic integer counters, keyed by dotted scope names.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic derived floats (e.g. `measured_parallelism`).
    pub floats: BTreeMap<String, f64>,
    /// Host-timing integers (barrier waits, per-worker items, span drops).
    pub host: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key` (creating it at zero).
    pub fn add_counter(&mut self, key: impl Into<String>, n: u64) {
        *self.counters.entry(key.into()).or_insert(0) += n;
    }

    /// Value of counter `key`, or 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Full JSON artifact including the host section.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// JSON restricted to the execution-order deterministic sections
    /// (`counters` + `floats`) — byte-identical across worker counts.
    pub fn deterministic_json(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_host: bool) -> String {
        let section = |map: &BTreeMap<String, u64>| {
            Json::object(map.iter().map(|(k, v)| (k.as_str(), Json::num(v))))
        };
        let floats = self.floats.iter().map(|(k, v)| (k.as_str(), Json::fixed(*v, 9)));
        let mut members = vec![
            ("schema", Json::from(SNAPSHOT_SCHEMA)),
            ("counters", section(&self.counters)),
            ("floats", Json::object(floats)),
        ];
        if with_host {
            members.push(("host", section(&self.host)));
        }
        Json::object(members).render()
    }

    /// Parses an artifact produced by [`to_json`](Self::to_json) or
    /// [`deterministic_json`](Self::deterministic_json). Returns `None`
    /// unless the text is one valid JSON object carrying the schema tag
    /// and the `counters` and `floats` sections (`host` is optional).
    pub fn parse(json: &str) -> Option<MetricsSnapshot> {
        let doc = Json::parse(json).ok()?;
        if doc.get("schema")? != &Json::from(SNAPSHOT_SCHEMA) {
            return None;
        }
        Some(MetricsSnapshot {
            counters: section(doc.get("counters")?)?,
            floats: section(doc.get("floats")?)?,
            host: doc.get("host").map_or(Some(BTreeMap::new()), section)?,
        })
    }
}

/// Reads one `{"key": number}` section.
fn section<T: std::str::FromStr>(value: &Json) -> Option<BTreeMap<String, T>> {
    let Json::Object(members) = value else { return None };
    members.iter().map(|(k, v)| Some((k.clone(), v.number()?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("hashmap.aap2", 42);
        snap.add_counter("graph.host_writes", 7);
        snap.floats.insert("measured_parallelism".into(), 3.5);
        snap.host.insert("dispatch.barrier_wait_ns".into(), 123_456);
        let parsed = MetricsSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn deterministic_json_excludes_host() {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("total.commands", 9);
        snap.host.insert("dispatch.pool_batches".into(), 3);
        let det = snap.deterministic_json();
        assert!(!det.contains("pool_batches"), "{det}");
        let parsed = MetricsSnapshot::parse(&det).expect("parses");
        assert_eq!(parsed.counter("total.commands"), 9);
        assert!(parsed.host.is_empty());
    }

    #[test]
    fn missing_schema_is_rejected() {
        assert!(MetricsSnapshot::parse("{\"counters\": {}, \"floats\": {}}").is_none());
    }

    #[test]
    fn truncated_and_duplicated_snapshots_are_rejected() {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("hashmap.aap2", 42);
        snap.floats.insert("measured_parallelism".into(), 3.5);
        let json = snap.to_json();
        let cut = json.find("  \"floats\"").expect("floats section");
        assert!(MetricsSnapshot::parse(&json[..cut]).is_none(), "{}", &json[..cut]);
        let line = "    \"hashmap.aap2\": 42";
        let dup = json.replace(line, &[line, line].join(",\n"));
        assert_ne!(dup, json);
        assert!(MetricsSnapshot::parse(&dup).is_none(), "{dup}");
    }
}
