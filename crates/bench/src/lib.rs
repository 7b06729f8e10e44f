//! Shared infrastructure for the bench harnesses in `benches/`, plus the
//! harness index.
//!
//! Each bench is a plain `harness = false` main: it regenerates one of
//! the paper's tables or figures (DESIGN.md §5), then measures the
//! machinery behind it. Every bench that writes a machine-readable report
//! (`BENCH_mc.json`, `BENCH_sim.json`, `BENCH_paper_eval.json`, …) goes
//! through this crate's one report writer, and the nightly CI gates go
//! through its one baseline checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use protogen_sim::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// Whether an environment toggle is set (`1` or `true`).
pub fn env_on(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1" || v.eq_ignore_ascii_case("true")).unwrap_or(false)
}

/// Available hardware parallelism (1 when unknown).
pub fn cores_available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The up-front verdict on a `*_scaling` bench's speedup assertion:
/// whether this host can measure it, and what to do when it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingGate {
    /// Enforcement requested and the host has enough cores: assert the
    /// speedup threshold at the end of the run.
    Enforce,
    /// Enforcement not requested: measure, record, gate nothing.
    RecordOnly,
    /// Enforcement explicitly requested (`*_ENFORCE_SCALING`) on a host
    /// with fewer cores than the bench's workers. The run cannot measure
    /// what it was asked to gate, so it must **fail loudly** — a silent
    /// skip here is a nightly that gates nothing while looking green.
    FailUndersized,
}

/// Decides, **up front**, whether a multi-thread-speedup assertion at
/// `threads` workers is meaningful on this host, and returns the decision
/// string the report JSON records under its `speedup_gate` key. A host
/// with fewer cores than workers measures scheduling overhead, not
/// parallel speedup — BENCH_mc's seed baseline was recorded on a 1-core
/// box, where an unconditional gate asserted an impossible 1.8× and
/// misfired by design. When the caller did not request enforcement the
/// gate degrades to record-only; when it *did* (`enforce_requested`), an
/// undersized host is a hard failure, never a skip.
pub fn speedup_gate(threads: usize, enforce_requested: bool) -> (ScalingGate, String) {
    speedup_gate_with_cores(threads, cores_available(), enforce_requested)
}

/// [`speedup_gate`] with the core count injected, so every quadrant of
/// the decision is unit-testable regardless of the host running the
/// tests.
pub fn speedup_gate_with_cores(
    threads: usize,
    cores: usize,
    enforce_requested: bool,
) -> (ScalingGate, String) {
    match (cores >= threads, enforce_requested) {
        (true, true) => {
            (ScalingGate::Enforce, format!("enforced ({cores} cores >= {threads} threads)"))
        }
        (true, false) => (
            ScalingGate::RecordOnly,
            format!(
                "recorded only ({cores} cores >= {threads} threads, enforcement not requested)"
            ),
        ),
        (false, true) => (
            ScalingGate::FailUndersized,
            format!(
                "unsatisfiable: scaling enforcement requested but cores_available \
                 ({cores}) < threads ({threads})"
            ),
        ),
        (false, false) => (
            ScalingGate::RecordOnly,
            format!("recorded only: cores_available ({cores}) < threads ({threads})"),
        ),
    }
}

/// Applies a multi-thread-speedup assertion uniformly for the `*_scaling`
/// benches, honouring the up-front [`speedup_gate`] decision:
///
/// * [`ScalingGate::RecordOnly`] prints the decision and passes — the
///   measurement is informational;
/// * [`ScalingGate::FailUndersized`] **fails** regardless of the measured
///   ratio: enforcement was requested on a host that cannot measure it,
///   and the fix is a bigger runner or unsetting the toggle, not a skip;
/// * [`ScalingGate::Enforce`] treats missing measurement points as a
///   structured failure and enforces `speedup > threshold` otherwise.
///
/// Returns `true` when the gate failed.
pub fn enforce_scaling(
    gate: ScalingGate,
    decision: &str,
    speedup: Option<f64>,
    threshold: f64,
    label: &str,
) -> bool {
    match gate {
        ScalingGate::RecordOnly => {
            println!("scaling check {decision}");
            false
        }
        ScalingGate::FailUndersized => {
            eprintln!(
                "SCALING FAILURE: {decision} — provision a runner with at least as many \
                 cores as the bench's workers, or unset the *_ENFORCE_SCALING toggle"
            );
            true
        }
        ScalingGate::Enforce => match speedup {
            None => {
                eprintln!("SCALING FAILURE: {label} needs both 1- and 4-worker points");
                true
            }
            Some(s) if s > threshold => {
                println!("scaling check OK: {s:.2}× > {threshold}×");
                false
            }
            Some(s) => {
                eprintln!("SCALING FAILURE: {label} speedup {s:.2}× ≤ {threshold}×");
                true
            }
        },
    }
}

/// Median wall-clock timings of named bench bodies, gathered into one
/// report object (`{"name": median_us, ...}`).
#[derive(Debug)]
pub struct Timings {
    samples: usize,
    medians: Json,
}

impl Timings {
    /// Times every body over `samples` runs (at least one).
    pub fn new(samples: usize) -> Self {
        Timings { samples: samples.max(1), medians: Json::Obj(Vec::new()) }
    }

    /// Runs `body` once per sample, prints its median and records it in
    /// microseconds under `name`.
    pub fn time<O>(&mut self, name: &str, mut body: impl FnMut() -> O) {
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(body());
                start.elapsed()
            })
            .collect();
        times.sort();
        let median = times[times.len() / 2];
        println!("bench {name:<40} median {median:>12?} over {} samples", times.len());
        self.medians.push(name, Json::F64(median.as_secs_f64() * 1e6));
    }

    /// The `{"name": median_us}` object of everything timed so far.
    pub fn into_json(self) -> Json {
        self.medians
    }
}

/// One cache-count point of the canonicalization microbenchmark: how many
/// states per second the symmetry canonicalizer fingerprints through the
/// full n!-permutation `encode_permuted_to` sweep versus the pruned
/// sort-key path, over the same reachable-state corpus.
#[derive(Debug, Clone, Copy)]
pub struct CanonPoint {
    /// Cache count (n! permutations for the full sweep).
    pub caches: usize,
    /// States the corpus holds.
    pub corpus: usize,
    /// Mean permutations the pruned path actually enumerated per state.
    pub mean_candidates: f64,
    /// Full-sweep canonicalizations per second.
    pub full_states_per_sec: f64,
    /// Pruned canonicalizations per second.
    pub pruned_states_per_sec: f64,
}

impl CanonPoint {
    /// Pruned-over-full throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.pruned_states_per_sec / self.full_states_per_sec
    }
}

/// Measures the canonicalization microbenchmark (ISSUE 5 satellite) on
/// the MESI non-stalling controllers at 2, 3, and 4 caches: a reachable
/// corpus of `corpus` states per cache count, canonicalized `reps` times
/// through the seed full-sweep discipline (minimum fingerprint over all
/// n! streamed `encode_permuted_to` encodings) and through the pruned
/// sort-key path. The pruned path's *representative* equivalence to the
/// full sweep is pinned separately by the `canon_prop` proptests; this
/// measures the enumeration cost the pruning removes.
pub fn canonicalization_points(corpus: usize, reps: usize) -> Vec<CanonPoint> {
    use protogen_mc::{permutations, Canonicalizer, Fingerprinter, McConfig, ModelChecker};
    use std::time::Instant;
    let ssp = protogen_protocols::mesi();
    let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::non_stalling())
        .expect("MESI generates");
    let mut out = Vec::new();
    for n in 2..=4usize {
        let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(n));
        let states = mc.sample_states(corpus);
        let perms = permutations(n);
        let invs: Vec<Vec<u8>> = perms.iter().map(|p| protogen_mc::invert(p)).collect();

        // Full sweep: minimum fingerprint over all n! streamed encodings
        // (the seed hot path).
        let start = Instant::now();
        for _ in 0..reps {
            for s in &states {
                let mut best = u64::MAX;
                for (p, inv) in perms.iter().zip(&invs) {
                    let mut h = Fingerprinter::new();
                    s.encode_permuted_to(p, inv, &mut h);
                    best = best.min(h.finish());
                }
                std::hint::black_box(best);
            }
        }
        let full_secs = start.elapsed().as_secs_f64();

        // Pruned path (the shipping hot path).
        let mut canon = Canonicalizer::new(n, true);
        let start = Instant::now();
        for _ in 0..reps {
            for s in &states {
                std::hint::black_box(canon.canonical_fp(s));
            }
        }
        let pruned_secs = start.elapsed().as_secs_f64();

        let mean_candidates = states.iter().map(|s| canon.pruned_candidates(s) as f64).sum::<f64>()
            / states.len() as f64;
        let total = (reps * states.len()) as f64;
        out.push(CanonPoint {
            caches: n,
            corpus: states.len(),
            mean_candidates,
            full_states_per_sec: total / full_secs,
            pruned_states_per_sec: total / pruned_secs,
        });
    }
    out
}

/// Writes a report document to `<workspace root>/<filename>` and returns
/// the path written.
///
/// # Panics
///
/// Panics when the file cannot be written — a bench without its report is
/// a CI artifact silently missing.
pub fn write_report(filename: &str, doc: &Json) -> PathBuf {
    let path = workspace_root().join(filename);
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("write {filename}: {e}"));
    println!("wrote {}", path.display());
    path
}

/// Minimal flat-JSON number lookup (`"key": 123.4`) — enough for the
/// baseline files, which [`write_report`] itself produces.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// How a measured value may legally relate to its baseline.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Throughput-style: the value must stay above `100 - pct`% of the
    /// baseline (higher is better, only regressions fail).
    FloorPct(f64),
    /// Latency/behaviour-style: the value must stay within ±`pct`% of the
    /// baseline (drift in either direction is a change worth flagging).
    WithinPct(f64),
}

/// One measured value to gate against the committed baseline.
#[derive(Debug, Clone, Copy)]
pub struct BaselineCheck<'a> {
    /// The flat JSON key in both the report and the baseline.
    pub key: &'a str,
    /// This run's value.
    pub current: f64,
    /// The allowed relation to the baseline value.
    pub tolerance: Tolerance,
}

/// Gates this run against a committed baseline file, mirroring the model
/// checker's nightly discipline:
///
/// * a missing/unreadable baseline or key is a **failure** (a gate that
///   silently skips gates nothing);
/// * a baseline measured on a different core count is a **failure** (an
///   incomparable floor gates nothing useful — refresh the baseline from
///   this run's uploaded report);
/// * each [`BaselineCheck`] is then enforced per its [`Tolerance`].
///
/// Prints one line per check and returns `true` when anything failed.
pub fn enforce_baseline(baseline_path: &Path, checks: &[BaselineCheck]) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            return true;
        }
    };
    let mut failed = false;
    if let Some(cores) = extract_number(&text, "cores_available") {
        if cores as usize != cores_available() {
            eprintln!(
                "STALE BASELINE: measured on {} core(s) but this machine has {} — the \
                 regression floor is not comparable. Refresh {} from this run's report.",
                cores,
                cores_available(),
                baseline_path.display()
            );
            failed = true;
        }
    }
    for check in checks {
        let Some(base) = extract_number(&text, check.key) else {
            eprintln!("baseline {} lacks {}", baseline_path.display(), check.key);
            failed = true;
            continue;
        };
        let ok = match check.tolerance {
            Tolerance::FloorPct(pct) => check.current >= base * (1.0 - pct / 100.0),
            Tolerance::WithinPct(pct) => (check.current - base).abs() <= base * (pct / 100.0),
        };
        if ok {
            println!(
                "baseline check OK: {} = {:.2} vs baseline {:.2} ({:?})",
                check.key, check.current, base, check.tolerance
            );
        } else {
            eprintln!(
                "REGRESSION: {} = {:.2} vs baseline {:.2} violates {:?}",
                check.key, check.current, base, check.tolerance
            );
            failed = true;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_run_each_body_once_per_sample() {
        let mut t = Timings::new(3);
        let mut runs = 0;
        t.time("count", || runs += 1);
        assert_eq!(runs, 3);
        let Json::Obj(entries) = t.into_json() else { panic!("timings are an object") };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "count");
    }

    #[test]
    fn scaling_gate_fails_rather_than_skips_when_enforcement_is_unsatisfiable() {
        // Enforcement requested on an undersized host: hard failure, even
        // when the (meaningless) measured ratio would clear the threshold.
        let (gate, decision) = speedup_gate_with_cores(4, 2, true);
        assert_eq!(gate, ScalingGate::FailUndersized);
        assert!(decision.contains("unsatisfiable"), "{decision}");
        assert!(enforce_scaling(gate, &decision, Some(3.0), 1.5, "4-thread"));
        // Same host without the toggle: informational, never fails.
        let (gate, decision) = speedup_gate_with_cores(4, 2, false);
        assert_eq!(gate, ScalingGate::RecordOnly);
        assert!(!enforce_scaling(gate, &decision, Some(0.5), 1.5, "4-thread"));
    }

    #[test]
    fn scaling_gate_enforces_threshold_on_a_big_enough_host() {
        let (gate, decision) = speedup_gate_with_cores(4, 8, true);
        assert_eq!(gate, ScalingGate::Enforce);
        assert!(decision.starts_with("enforced"), "{decision}");
        assert!(!enforce_scaling(gate, &decision, Some(2.0), 1.5, "4-thread"));
        assert!(enforce_scaling(gate, &decision, Some(1.2), 1.5, "4-thread"));
        // Missing points under enforcement are a structured failure.
        assert!(enforce_scaling(gate, &decision, None, 1.5, "4-thread"));
        // Enforcement not requested: recorded, not gated.
        let (gate, decision) = speedup_gate_with_cores(4, 8, false);
        assert_eq!(gate, ScalingGate::RecordOnly);
        assert!(!enforce_scaling(gate, &decision, Some(1.0), 1.5, "4-thread"));
    }

    #[test]
    fn extract_number_reads_flat_keys() {
        let json = "{\n  \"a\": 12.5,\n  \"b_4t\": 300,\n  \"s\": \"text\"\n}";
        assert_eq!(extract_number(json, "a"), Some(12.5));
        assert_eq!(extract_number(json, "b_4t"), Some(300.0));
        assert_eq!(extract_number(json, "missing"), None);
        assert_eq!(extract_number(json, "s"), None);
    }

    #[test]
    fn enforce_baseline_fails_on_missing_file_and_missing_keys() {
        let dir = std::env::temp_dir().join("protogen-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nonexistent-baseline.json");
        let _ = std::fs::remove_file(&path);
        assert!(enforce_baseline(
            &path,
            &[BaselineCheck { key: "x", current: 1.0, tolerance: Tolerance::FloorPct(20.0) }]
        ));
        // Present file, absent key: also a failure.
        std::fs::write(&path, "{\n  \"y\": 1\n}\n").unwrap();
        assert!(enforce_baseline(
            &path,
            &[BaselineCheck { key: "x", current: 1.0, tolerance: Tolerance::FloorPct(20.0) }]
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tolerances_gate_in_the_right_directions() {
        let dir = std::env::temp_dir().join("protogen-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(
            &path,
            format!("{{\n  \"cores_available\": {},\n  \"rate\": 100\n}}\n", cores_available()),
        )
        .unwrap();
        let gate = |current: f64, tolerance: Tolerance| {
            enforce_baseline(&path, &[BaselineCheck { key: "rate", current, tolerance }])
        };
        // Floor: improvements always pass, 20% drops fail.
        assert!(!gate(130.0, Tolerance::FloorPct(20.0)));
        assert!(!gate(81.0, Tolerance::FloorPct(20.0)));
        assert!(gate(79.0, Tolerance::FloorPct(20.0)));
        // Within: drift in either direction fails.
        assert!(!gate(110.0, Tolerance::WithinPct(20.0)));
        assert!(gate(130.0, Tolerance::WithinPct(20.0)));
        assert!(gate(70.0, Tolerance::WithinPct(20.0)));
        std::fs::remove_file(&path).unwrap();
    }
}
