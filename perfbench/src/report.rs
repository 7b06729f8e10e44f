//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// A reported metric: name and unit, as declared in `BENCHMARK.json`.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    ("dsl.parse_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("serve.envelope_ms", "ms"),
    ("runtime.dispatch_ns", "ns"),
    ("mc.steps_ns", "ns"),
    ("mc.successor_ns", "ns"),
    ("mc.canon_ns", "ns"),
    ("mc.canon_candidates", "count"),
    ("mc.fingerprint_ns", "ns"),
    ("mc.decode_ns", "ns"),
    ("mc.new_state_ratio", "ratio"),
    ("mc.store_bytes_per_state", "B"),
    ("mc.parallel_efficiency", "ratio"),
    ("mc.unaccounted_frac", "ratio"),
    ("hier.check_s", "s"),
    ("hier.state_ns", "ns"),
    ("hier.states", "count"),
    ("hier.transitions", "count"),
    ("hier.group_size", "count"),
    ("hier.unaccounted_frac", "ratio"),
    ("litmus.outcomes_s", "s"),
    ("litmus.reference_ms", "ms"),
    ("litmus.outcome_count", "count"),
    ("litmus.unaccounted_frac", "ratio"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_max", "ms"),
    ("sim.workload_expand_ms", "ms"),
    ("sim.shard_imbalance", "ratio"),
    ("sim.host_ns_per_message", "ns"),
    ("sim.messages", "count"),
    ("sim.cycles", "count"),
    ("sim.unaccounted_frac", "ratio"),
    ("serve.misses", "count"),
    ("serve.messages", "count"),
    ("serve.msgs_per_miss", "ratio"),
    ("serve.cpu_ns_per_op", "ns"),
    ("serve.cpu_util", "ratio"),
    ("serve.peak_queue_depth", "count"),
    ("serve.miss_p50_us", "us"),
    ("serve.miss_p99_us", "us"),
    ("serve.unaccounted_frac", "ratio"),
    ("mailbox.push_pop_ns", "ns"),
    ("mailbox.handoff_ns", "ns"),
    ("trace.overhead_s", "s"),
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked results: one per unit of work and per extra check.
    pub attempted: u64,
    /// Of those, the ones whose result did not match the pinned answer.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// On a name missing from both tables or a non-finite value: both are
    /// benchmark bugs that would otherwise surface later and less clearly.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked unit of work.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced), each with its unit.
    ///
    /// # Panics
    ///
    /// When an end-to-end metric was never recorded.
    pub fn render(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
