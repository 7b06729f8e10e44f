//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule, and load imbalance.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice: a metric with no samples is a benchmark bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points of `xs` into quarters, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default `exclusive` method),
/// so the spread printed here matches the one the acceptance check
/// computes.
///
/// # Panics
///
/// With fewer than two samples, as Python raises.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric's bound has to cover.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The standard percentile ladder tail percentiles are picked from.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`], at most `want`, that still has
/// at least ten of `n` samples beyond it; `None` when not even the median
/// qualifies (fewer than 20 samples).
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| p <= want && n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Max over mean worker load when item `i` (costing `costs[i]`) runs on
/// worker `i % workers` — the static assignment `run_sweep` uses. 1.0 is
/// perfect balance; `workers` is the ceiling.
pub fn shard_imbalance(costs: &[f64], workers: usize) -> f64 {
    assert!(workers > 0, "shard_imbalance needs at least one worker");
    let mut load = vec![0.0; workers];
    for (i, c) in costs.iter().enumerate() {
        load[i % workers] += c;
    }
    let mean = load.iter().sum::<f64>() / workers as f64;
    if mean == 0.0 {
        return 1.0;
    }
    load.iter().copied().fold(f64::MIN, f64::max) / mean
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
