//! Measurement: latency histograms, aggregated run statistics, and a
//! deterministic JSON writer.
//!
//! JSON rendering is byte-deterministic — object keys are emitted in
//! insertion order and floats with a fixed precision — so two runs with
//! the same seed produce identical files at any thread count, which is
//! what lets CI `diff` sweep artifacts run to run.

use protogen_runtime::PairSet;
use std::fmt;

/// An exact latency histogram: every sample is retained, percentiles are
/// computed over the sorted sample set. Simulated transaction counts are
/// small enough (thousands) that exactness beats bucketing.
///
/// Percentile reads take `&self`: the sorted view is built once, on the
/// first read after the last [`Histogram::record`], and shared by every
/// subsequent read (amortized sorting without leaking `&mut` into
/// read-only stats consumers).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: std::sync::OnceLock<Vec<u64>>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted.take(); // invalidate the finalized view
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted sample view, built on first use after the last record.
    fn sorted(&self) -> &[u64] {
        self.sorted.get_or_init(|| {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        })
    }

    /// The `p`-th percentile (nearest-rank), or 0 with no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

/// Aggregated measurements of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Accesses completed (hits + transaction completions).
    pub completed: usize,
    /// Accesses satisfied without a coherence transaction.
    pub hits: usize,
    /// Accesses that launched a coherence transaction.
    pub misses: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Node-cycles spent with a stalled message at a channel head (the
    /// paper's stalling cost).
    pub stall_cycles: u64,
    /// Node-cycles spent blocked on a full outgoing channel
    /// (bounded-buffer backpressure).
    pub backpressure_cycles: u64,
    /// Coherence messages delivered.
    pub messages: u64,
    /// Deepest any `(src, dst)` channel ever grew.
    pub peak_channel_depth: usize,
    /// Mean cycles from issue to completion over miss transactions.
    pub avg_miss_latency: f64,
    /// Median miss latency.
    pub p50_latency: u64,
    /// 95th-percentile miss latency.
    pub p95_latency: u64,
    /// 99th-percentile miss latency.
    pub p99_latency: u64,
    /// Worst-case miss latency.
    pub max_latency: u64,
    /// Messages delivered per miss transaction.
    pub msgs_per_miss: f64,
    /// Fraction of directory-entry cycles spent in a transient (busy)
    /// state — how occupied the directory was mid-transaction.
    pub dir_occupancy: f64,
    /// Observed `(machine, state, event)` dispatches, when
    /// [`crate::SimConfig::collect_coverage`] was set. Not serialized.
    pub coverage: Option<PairSet>,
}

impl SimResult {
    /// The run's measurements as an ordered JSON object (coverage is
    /// bookkeeping for conformance tests and is not serialized).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("completed", Json::U64(self.completed as u64)),
            ("hits", Json::U64(self.hits as u64)),
            ("misses", Json::U64(self.misses as u64)),
            ("cycles", Json::U64(self.cycles)),
            ("stall_cycles", Json::U64(self.stall_cycles)),
            ("backpressure_cycles", Json::U64(self.backpressure_cycles)),
            ("messages", Json::U64(self.messages)),
            ("peak_channel_depth", Json::U64(self.peak_channel_depth as u64)),
            ("avg_miss_latency", Json::F64(self.avg_miss_latency)),
            ("p50_latency", Json::U64(self.p50_latency)),
            ("p95_latency", Json::U64(self.p95_latency)),
            ("p99_latency", Json::U64(self.p99_latency)),
            ("max_latency", Json::U64(self.max_latency)),
            ("msgs_per_miss", Json::F64(self.msgs_per_miss)),
            ("dir_occupancy", Json::F64(self.dir_occupancy)),
        ])
    }
}

/// A JSON value with deterministic rendering: objects keep insertion
/// order, floats print with fixed 4-decimal precision, output is
/// 2-space-indented with a trailing newline at the document root.
///
/// This is the serialization layer the whole workspace's JSON artifacts go
/// through (`BENCH_*.json`, sweep cells).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed without a decimal point.
    U64(u64),
    /// A float, printed with fixed `{:.4}` precision.
    F64(f64),
    /// A string (escaped minimally: `"`, `\`, and control characters).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an [`Json::Obj`].
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(entries) => entries.push((key.to_string(), value)),
            other => panic!("push on non-object JSON value {other:?}"),
        }
    }

    /// Renders the document with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(v) => out.push_str(&format!("{v:.4}")),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(95.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 55.0);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentile_reads_take_shared_references() {
        let mut h = Histogram::new();
        for v in [30u64, 10, 20] {
            h.record(v);
        }
        // Two simultaneous &self borrows: the read path must not need &mut.
        let (r, s) = (&h, &h);
        assert_eq!(r.percentile(50.0), 20);
        assert_eq!(s.percentile(50.0), 20);
    }

    #[test]
    fn percentile_extremes_and_single_sample() {
        let mut h = Histogram::new();
        for v in [50u64, 10, 40, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 10, "p=0 is the minimum sample");
        assert_eq!(h.percentile(100.0), 50, "p=100 is the maximum sample");
        let mut single = Histogram::new();
        single.record(7);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(single.percentile(p), 7, "single-sample p={p}");
        }
    }

    #[test]
    fn recording_after_a_read_invalidates_the_sorted_view() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.percentile(100.0), 10);
        h.record(99);
        assert_eq!(h.percentile(100.0), 99);
        assert_eq!(h.percentile(0.0), 10);
    }

    #[test]
    fn json_renders_deterministically() {
        let j = Json::obj([
            ("name", Json::Str("msi \"v1\"".into())),
            ("n", Json::U64(3)),
            ("ratio", Json::F64(1.0 / 3.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = j.render();
        assert_eq!(text, j.render());
        assert!(text.contains("\"name\": \"msi \\\"v1\\\"\""), "{text}");
        assert!(text.contains("\"ratio\": 0.3333"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "push on non-object")]
    fn push_rejects_non_objects() {
        Json::U64(1).push("k", Json::U64(2));
    }
}
