//! Bounded-ring span recording with Chrome `trace_event` export.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One completed span (a Chrome `"X"` complete event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `"stage.hashmap"`, `"dispatch.batch"`,
    /// `"report.schedule"`).
    pub name: &'static str,
    /// Category tag (`"stage"`, `"dispatch"`, `"report"` or
    /// `"checkpoint"`).
    pub cat: &'static str,
    /// Track id (0 for the pipeline, worker index + 1 for pool workers).
    pub tid: u64,
    /// Span start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// One free integer argument (items processed in the span).
    pub items: u64,
}

struct SpanRing {
    events: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

/// Thread-safe bounded recorder for pipeline/dispatcher spans.
///
/// Timestamps are taken against a per-recorder [`Instant`] epoch so the
/// exported trace starts near zero. When the ring is full the **oldest**
/// events are evicted and counted in [`dropped`](Self::dropped) — the tail
/// of a run is always retained.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    inner: Mutex<SpanRing>,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("events", &self.events.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl SpanRecorder {
    /// A recorder holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(SpanRing {
                events: VecDeque::with_capacity(capacity.clamp(1, 1 << 16)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Nanoseconds elapsed since the recorder's epoch — use as a span's
    /// start mark, then pass to [`record`](Self::record) at span end.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that began at `start_ns` (from [`now_ns`](Self::now_ns))
    /// and ends now.
    pub fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        start_ns: u64,
        items: u64,
    ) {
        let end = self.now_ns();
        let dur_ns = end.saturating_sub(start_ns);
        let mut ring = self.inner.lock().expect("span ring poisoned");
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(SpanEvent { name, cat, tid, start_ns, dur_ns, items });
    }

    /// Snapshot of all retained spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.lock().expect("span ring poisoned").events.iter().copied().collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span ring poisoned").events.len()
    }

    /// Whether no spans were recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("span ring poisoned").dropped
    }

    /// Renders the retained spans as Chrome `trace_event` JSON
    /// (`traceEvents` array of `"X"` complete events, timestamps in
    /// microseconds, one member per line), loadable in `chrome://tracing`
    /// or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events().into_iter().map(|e| {
            Json::object([
                ("name", Json::from(e.name)),
                ("cat", Json::from(e.cat)),
                ("ph", Json::from("X")),
                ("pid", Json::num(1)),
                ("tid", Json::num(e.tid)),
                ("ts", Json::fixed(e.start_ns as f64 / 1000.0, 3)),
                ("dur", Json::fixed(e.dur_ns as f64 / 1000.0, 3)),
                ("args", Json::object([("items", Json::num(e.items))])),
            ])
        });
        Json::object([
            ("displayTimeUnit", Json::from("ns")),
            ("traceEvents", Json::Array(events.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_exports_spans() {
        let rec = SpanRecorder::new(8);
        let t0 = rec.now_ns();
        rec.record("stage.hashmap", "stage", 0, t0, 100);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.dropped(), 0);
        let json = rec.to_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"stage.hashmap\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        let doc = Json::parse(&json).expect("trace parses");
        let Some(Json::Array(events)) = doc.get("traceEvents") else { panic!("{json}") };
        let event = &events[0];
        assert_eq!(event.get("args").and_then(|a| a.get("items")), Some(&Json::num(100)));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        for i in 0..5u64 {
            let t0 = rec.now_ns();
            rec.record("dispatch.batch", "dispatch", 0, t0, i);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let items: Vec<u64> = rec.events().iter().map(|e| e.items).collect();
        assert_eq!(items, [3, 4]);
    }
}
