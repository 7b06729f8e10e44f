//! The four workloads. Each builds its inputs from the workload seed,
//! times set-up and its unit of work, and checks every unit against a
//! pinned answer. An untraced run repeats the unit for `--seconds` and
//! records the end-to-end metrics; a traced run does the unit once with
//! tracing off and once with it on, then replays the layers' per-call
//! costs on inputs taken from the same workload.

use crate::layers::{
    dispatch_contexts, dispatch_ns, fabric_handoff_ns, mc_costs, ring_push_pop_ns, DispatchCtx,
};
use crate::procfs;
use crate::report::Report;
use crate::stats::{median, spread, tail_percentile};
use crate::trace::Tracer;
use protogen_core::{compose, generate, GenConfig, Generated};
use protogen_dsl::{parse_protocol, MESI_PGEN, MSI_PGEN};
use protogen_litmus::reference::sc_outcomes;
use protogen_litmus::{parse_litmus, Harness, Limits, IRIW};
use protogen_mc::{CheckResult, HierChecker, HierConfig, McConfig, ModelChecker, PropertySet};
use protogen_runtime::PairSet;
use protogen_serve::{checked_envelope, serve, ServeConfig, ServeReport, StopReason};
use protogen_sim::{
    run_sweep, simulate, NetModel, SimConfig, SimError, SimResult, SweepConfig, SweepReport,
    Workload,
};
use protogen_spec::{Composition, LevelSpec, Ssp};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed runs use unless told otherwise; the pinned sweep digest
/// belongs to it.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim made on the default.
pub const HELD_OUT_SEED: u64 = 7;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// Workload names with the threads each runs on.
pub const WORKLOADS: &[(&str, usize)] = &[
    ("verify-flat", FLAT_THREADS),
    ("verify-composed", 1),
    ("litmus-iriw", 1),
    ("sweep", SWEEP_THREADS),
];

/// One run's command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds of an untraced run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run produced besides its metrics.
#[derive(Debug)]
pub struct Run {
    /// Metrics and the correctness tally.
    pub report: Report,
    /// Spans of a traced run (empty otherwise).
    pub tracer: Tracer,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Runs `args.workload`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run { report: Report::default(), tracer: Tracer::new(args.trace), notes: vec![] };
    match args.workload.as_str() {
        "verify-flat" => verify_flat(args, &mut run),
        "verify-composed" => verify_composed(args, &mut run),
        "litmus-iriw" => litmus_iriw(args, &mut run),
        "sweep" => sweep(args, &mut run),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}` (one of {})", names.join(", ")));
        }
    }
    Ok(run)
}

// ---------------------------------------------------------------- helpers

/// Whether one unit of work matched its pinned answer, and the work it
/// did in the workload's own unit (states, simulated cycles, verdicts).
type Checked = (bool, f64);

/// One timed unit of work.
struct Unit {
    wall: f64,
    cpu: f64,
    work: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Runs set-up `SETUP_REPS` times; returns each repetition's seconds and
/// the last repetition's result.
fn setups<T>(tr: &mut Tracer, mut f: impl FnMut(&mut Tracer) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (v, t) = timed(|| f(tr));
        times.push(t);
        last = Some(v);
    }
    (times, last.expect("SETUP_REPS is positive"))
}

/// Repeats `f` while another unit still fits in `seconds` (always at
/// least once), checking each result outside the timed region.
fn measure<T>(
    seconds: f64,
    rep: &mut Report,
    mut f: impl FnMut() -> T,
    mut check: impl FnMut(&T) -> Checked,
) -> Vec<Unit> {
    let start = Instant::now();
    let mut units = Vec::new();
    loop {
        let cpu0 = procfs::cpu_seconds();
        let (v, wall) = timed(&mut f);
        let cpu = procfs::cpu_seconds() - cpu0;
        let (ok, work) = check(&v);
        drop(v);
        rep.check(ok);
        units.push(Unit { wall, cpu, work });
        if start.elapsed().as_secs_f64() + wall > seconds {
            return units;
        }
    }
}

/// Records the end-to-end metrics and a summary line.
fn end_to_end(run: &mut Run, setup: &[f64], units: &[Unit], work_unit: &str) {
    let col = |f: fn(&Unit) -> f64| units.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|u| u.wall);
    let rep = &mut run.report;
    rep.set("setup_s", median(setup));
    rep.set("wall_s", median(&walls));
    rep.set("cpu_s", median(&col(|u| u.cpu)));
    rep.set("peak_rss_mb", procfs::peak_rss_mb());
    rep.set("work_per_s", median(&col(|u| u.work / u.wall)));
    run.notes.push(format!(
        "units={} setup_reps={} wall_s={:.4} (unit min {:.4}, max {:.4}, quartile spread {:.3}) \
         work_per_s={:.1} ({work_unit}/s) failed_frac={}",
        units.len(),
        setup.len(),
        rep.get("wall_s").unwrap_or(0.0),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        if walls.len() >= 2 { spread(&walls) } else { 0.0 },
        rep.get("work_per_s").unwrap_or(0.0),
        rep.failed as f64 / rep.attempted.max(1) as f64,
    ));
}

/// Median duration in milliseconds of the spans called `name`.
fn span_ms(tr: &Tracer, name: &str) -> Option<f64> {
    let d: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    (!d.is_empty()).then(|| median(&d))
}

/// Copies the median set-up span times into the per-layer metrics.
fn setup_layers(run: &mut Run) {
    for (span, metric) in [
        ("dsl.parse", "dsl.parse_ms"),
        ("core.generate", "core.generate_ms"),
        ("core.compose", "core.compose_ms"),
        ("serve.envelope", "serve.envelope_ms"),
    ] {
        if let Some(ms) = span_ms(&run.tracer, span) {
            run.report.set(metric, ms);
        }
    }
}

fn parse(tr: &mut Tracer, src: &str) -> Ssp {
    tr.span("dsl.parse", || parse_protocol(src).expect("bundled protocol sources parse"))
}

fn gen(tr: &mut Tracer, ssp: &Ssp, cfg: &GenConfig) -> Generated {
    tr.span("core.generate", || generate(ssp, cfg).expect("bundled protocols generate"))
}

/// The flat checker configuration the CLI's `verify` uses.
fn flat_config(ssp: &Ssp, caches: usize, threads: usize) -> McConfig {
    let mut cfg = McConfig::with_caches_and_threads(caches, threads);
    cfg.ordered = ssp.network_ordered;
    cfg.properties = PropertySet::promised(ssp.consistency);
    cfg
}

// ------------------------------------------------------------ verify-flat

/// MESI, stalling generation, 4 caches, full store, 2 checker threads.
const FLAT_CACHES: usize = 4;
const FLAT_THREADS: usize = 2;
/// States and transitions of that check (`protogen verify mesi --caches 4
/// --stalling` prints the same).
const FLAT_PIN: (usize, usize) = (254_130, 1_163_240);
/// Reachable states replayed through the checker's entry points.
const FLAT_CORPUS: usize = 2_000;

fn verify_flat(a: &Args, run: &mut Run) {
    let (setup, (ssp, g)) = setups(&mut run.tracer, |tr| {
        let ssp = parse(tr, MESI_PGEN);
        let g = gen(tr, &ssp, &GenConfig::stalling());
        let cfg = flat_config(&ssp, FLAT_CACHES, FLAT_THREADS);
        tr.span("mc.new", || drop(ModelChecker::new(&g.cache, &g.directory, cfg)));
        (ssp, g)
    });
    let mc =
        ModelChecker::new(&g.cache, &g.directory, flat_config(&ssp, FLAT_CACHES, FLAT_THREADS));
    let check =
        |r: &CheckResult| (r.passed() && (r.states, r.transitions) == FLAT_PIN, r.states as f64);
    run.notes.push(format!(
        "verify-flat: MESI stalling, {FLAT_CACHES} caches, {FLAT_THREADS} threads; pinned {} \
         states / {} transitions",
        FLAT_PIN.0, FLAT_PIN.1
    ));
    if !a.trace {
        let units = measure(a.seconds, &mut run.report, || mc.run(), check);
        end_to_end(run, &setup, &units, "states");
        return;
    }
    let (r0, wall0) = timed(|| mc.run());
    let (r2, wall2) = timed(|| run.tracer.span("mc.run", || mc.run()));
    let mc1 = ModelChecker::new(&g.cache, &g.directory, flat_config(&ssp, FLAT_CACHES, 1));
    let (r1, wall1) = timed(|| run.tracer.span("mc.run_1t", || mc1.run()));
    for r in [&r0, &r1, &r2] {
        run.report.check(check(r).0);
    }
    let corpus = run.tracer.span("mc.sample_states", || mc.sample_states(FLAT_CORPUS));
    let costs = run.tracer.span("mc.replay", || mc_costs(&mc, &corpus, true));
    let ctxs = dispatch_contexts(&mc, &corpus);
    let dispatch = run.tracer.span("runtime.replay", || dispatch_ns(&g.cache, &g.directory, &ctxs));

    let (states, transitions) = (r1.states as f64, r1.transitions as f64);
    let explained = states * (costs.steps_ns + costs.decode_ns)
        + transitions * (costs.successor_ns + costs.canon_ns);
    let rep = &mut run.report;
    rep.set("trace.overhead_s", wall2 - wall0);
    rep.set("mc.steps_ns", costs.steps_ns);
    rep.set("mc.successor_ns", costs.successor_ns);
    rep.set("mc.canon_ns", costs.canon_ns);
    rep.set("mc.canon_candidates", costs.canon_candidates);
    rep.set("mc.fingerprint_ns", costs.fingerprint_ns);
    rep.set("mc.decode_ns", costs.decode_ns);
    rep.set("mc.new_state_ratio", states / transitions);
    rep.set("mc.store_bytes_per_state", r2.store_bytes as f64 / r2.states as f64);
    rep.set("mc.parallel_efficiency", wall1 / (FLAT_THREADS as f64 * wall2));
    rep.set("mc.unaccounted_frac", 1.0 - explained / (wall1 * 1e9));
    if let Some(d) = dispatch {
        rep.set("runtime.dispatch_ns", d);
    }
    setup_layers(run);
}

// -------------------------------------------------------- verify-composed

/// `l1=msi:2,llc=msi:2`, stalling generation, through `HierChecker`.
const COMPOSED_PIN: (usize, usize) = (343_838, 1_584_992);
/// States `HierChecker::sample_encodings` replays per traced run.
const COMPOSED_SAMPLE: usize = 3_000;

fn verify_composed(a: &Args, run: &mut Run) {
    let (setup, hc) = setups(&mut run.tracer, |tr| {
        let msi = parse(tr, MSI_PGEN);
        let consistency = msi.consistency;
        let level = |label: &str, ssp: Ssp| LevelSpec { label: label.into(), ssp, fanout: 2 };
        let comp = Composition {
            name: "l1=msi:2,llc=msi:2".into(),
            levels: vec![level("l1", msi.clone()), level("llc", msi)],
        };
        let composed = tr.span("core.compose", || {
            compose(&comp, &GenConfig::stalling()).expect("bundled composition generates")
        });
        let cfg =
            HierConfig { properties: PropertySet::promised(consistency), ..HierConfig::default() };
        tr.span("hier.new", || HierChecker::new(&composed, cfg))
    });
    let check = |r: &protogen_mc::HierResult| {
        (r.passed() && (r.states, r.transitions) == COMPOSED_PIN, r.states as f64)
    };
    run.notes.push(format!(
        "verify-composed: l1=msi:2,llc=msi:2 stalling, symmetry group {}; pinned {} states / {} \
         transitions",
        hc.group_size(),
        COMPOSED_PIN.0,
        COMPOSED_PIN.1
    ));
    if !a.trace {
        let units = measure(a.seconds, &mut run.report, || hc.check(), check);
        end_to_end(run, &setup, &units, "states");
        return;
    }
    let (r0, wall0) = timed(|| hc.check());
    let (r1, wall1) = timed(|| run.tracer.span("hier.check", || hc.check()));
    for r in [&r0, &r1] {
        run.report.check(check(r).0);
    }
    let (sample, sample_s) =
        timed(|| run.tracer.span("hier.sample", || hc.sample_encodings(COMPOSED_SAMPLE)));
    let state_ns = sample_s * 1e9 / sample.len() as f64;
    let rep = &mut run.report;
    rep.set("trace.overhead_s", wall1 - wall0);
    rep.set("hier.check_s", wall1);
    rep.set("hier.state_ns", state_ns);
    rep.set("hier.states", r1.states as f64);
    rep.set("hier.transitions", r1.transitions as f64);
    rep.set("hier.group_size", hc.group_size() as f64);
    rep.set("hier.unaccounted_frac", 1.0 - r1.states as f64 * state_ns / (wall1 * 1e9));
    setup_layers(run);
}

// ------------------------------------------------------------ litmus-iriw

/// IRIW's registers `(r1, r2, r3, r4)`: the 15 outcomes sequential
/// consistency admits (all 16 but `1,0,1,0`).
const IRIW_PIN: [[u8; 4]; 15] = [
    [0, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, 0, 1, 1],
    [0, 1, 0, 0],
    [0, 1, 0, 1],
    [0, 1, 1, 0],
    [0, 1, 1, 1],
    [1, 0, 0, 0],
    [1, 0, 0, 1],
    [1, 0, 1, 1],
    [1, 1, 0, 0],
    [1, 1, 0, 1],
    [1, 1, 1, 0],
    [1, 1, 1, 1],
];

fn litmus_iriw(a: &Args, run: &mut Run) {
    let (setup, (ssp, g, test)) = setups(&mut run.tracer, |tr| {
        let ssp = parse(tr, MSI_PGEN);
        let g = gen(tr, &ssp, &GenConfig::default());
        let test = parse_litmus(IRIW).expect("bundled IRIW parses");
        tr.span("litmus.harness", || drop(Harness::new(&ssp, &g)));
        (ssp, g, test)
    });
    let harness = Harness::new(&ssp, &g);
    let limits = Limits { seed: a.seed, ..Limits::default() };
    let pinned: std::collections::BTreeSet<Vec<u8>> = IRIW_PIN.iter().map(|o| o.to_vec()).collect();
    let check = |r: &Result<std::collections::BTreeSet<Vec<u8>>, _>| {
        (r.as_ref().is_ok_and(|o| *o == pinned), 1.0)
    };
    run.notes.push(format!(
        "litmus-iriw: IRIW on MSI (default generation), Limits.seed={}; pinned the {} SC outcomes",
        a.seed,
        IRIW_PIN.len()
    ));
    if !a.trace {
        let units = measure(a.seconds, &mut run.report, || harness.outcomes(&test, &limits), check);
        end_to_end(run, &setup, &units, "verdicts");
        return;
    }
    let (r0, wall0) = timed(|| harness.outcomes(&test, &limits));
    let (r1, wall1) =
        timed(|| run.tracer.span("litmus.outcomes", || harness.outcomes(&test, &limits)));
    let (reference, ref_s) = timed(|| run.tracer.span("litmus.reference", || sc_outcomes(&test)));
    for r in [&r0, &r1] {
        run.report.check(check(r).0);
    }
    run.report.check(reference == pinned);
    let rep = &mut run.report;
    rep.set("trace.overhead_s", wall1 - wall0);
    rep.set("litmus.outcomes_s", wall1);
    rep.set("litmus.reference_ms", ref_s * 1e3);
    rep.set("litmus.outcome_count", r1.map_or(0, |o| o.len()) as f64);
    // The harness has no public per-step entry point to replay, so none
    // of its time is explained from outside the program.
    rep.set("litmus.unaccounted_frac", 1.0);
    setup_layers(run);
}

// ------------------------------------------------------------------ sweep

/// Accesses per core of every cell of the default 64-cell grid.
const SWEEP_ACCESSES: usize = 5_000;
const SWEEP_THREADS: usize = 2;
/// FNV-1a of the sweep report's JSON at [`DEFAULT_SEED`].
const SWEEP_DIGEST: u64 = 0x60ab_c013_1286_9c13;
/// Reachable states per protocol configuration for the dispatch replay.
const SWEEP_CORPUS: usize = 500;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn sweep_config(seed: u64, threads: usize) -> SweepConfig {
    SweepConfig { accesses_per_core: SWEEP_ACCESSES, seed, threads, ..SweepConfig::default() }
}

/// The seed `run_sweep` derives for cell `index` (SplitMix64 of the
/// sweep seed and index); the traced replay checks it reproduces every
/// cell's statistics exactly.
fn cell_seed(sweep_seed: u64, index: usize) -> u64 {
    let mut z = sweep_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pgen_source(protocol: &str) -> &'static str {
    match protocol {
        "msi" => MSI_PGEN,
        "mesi" => MESI_PGEN,
        other => panic!("the sweep grid names protocol `{other}`, which has no bundled source"),
    }
}

fn sweep_ok(r: &SweepReport, cfg: &SweepConfig) -> bool {
    r.cells.iter().all(|c| c.stats.completed == c.cell.n_caches * cfg.accesses_per_core)
}

fn sweep(a: &Args, run: &mut Run) {
    let (setup, (cfg, ssps)) = setups(&mut run.tracer, |tr| {
        let cfg = sweep_config(a.seed, SWEEP_THREADS);
        let mut ssps = BTreeMap::new();
        for p in &cfg.protocols {
            let ssp = parse(tr, pgen_source(p));
            for &stalling in &cfg.stalling {
                drop(gen(tr, &ssp, &gen_config(stalling)));
            }
            ssps.insert(p.clone(), ssp);
        }
        (cfg, ssps)
    });
    let cells = cfg.cells().len();
    run.notes.push(format!(
        "sweep: default {cells}-cell grid, {SWEEP_ACCESSES} accesses/core, seed {}, \
         {SWEEP_THREADS} threads; report must match at 1 thread{}",
        a.seed,
        if a.seed == DEFAULT_SEED { " and the pinned digest" } else { "" }
    ));
    let mut first: Option<String> = None;
    let mut check = |r: &Result<SweepReport, SimError>| match r {
        Ok(r) => {
            let json = r.to_json().render();
            let same = first.get_or_insert_with(|| json.clone()) == &json;
            let cycles = r.cells.iter().map(|c| c.stats.cycles as f64).sum();
            (same && sweep_ok(r, &cfg), cycles)
        }
        Err(_) => (false, 0.0),
    };
    let (mut units, mut overhead) = (Vec::new(), 0.0);
    if a.trace {
        let (r0, wall0) = timed(|| run_sweep(&cfg));
        let (r2, wall2) = timed(|| run.tracer.span("sim.run_sweep", || run_sweep(&cfg)));
        run.report.check(check(&r0).0);
        run.report.check(check(&r2).0);
        overhead = wall2 - wall0;
    } else {
        units = measure(a.seconds, &mut run.report, || run_sweep(&cfg), &mut check);
    }
    // The report may not depend on the thread count, and at the default
    // seed it must match the pinned digest; otherwise the whole run fails.
    let (one, wall1) =
        timed(|| run.tracer.span("sim.run_sweep_1t", || run_sweep(&sweep_config(a.seed, 1))));
    let same_at_one_thread = check(&one).0;
    let digest = first.as_deref().map(|j| fnv1a(j.as_bytes()));
    if !same_at_one_thread || (a.seed == DEFAULT_SEED && digest != Some(SWEEP_DIGEST)) {
        run.report.failed = run.report.attempted;
    }
    run.notes.push(format!("sweep report digest {:016x}", digest.unwrap_or(0)));
    if !a.trace {
        end_to_end(run, &setup, &units, "sim cycles");
        return;
    }
    let Ok(report) = one else { return };
    sweep_replay(run, &cfg, &ssps, &report, wall1);
    serve_layers(a.seed, run);
    run.report.set("trace.overhead_s", overhead);
    setup_layers(run);
}

fn gen_config(stalling: bool) -> GenConfig {
    if stalling {
        GenConfig::stalling()
    } else {
        GenConfig::non_stalling()
    }
}

/// Re-runs every cell on its own, as `run_sweep` would, timing the
/// generate and simulate calls; then replays dispatch on the pairs the
/// cells covered.
fn sweep_replay(
    run: &mut Run,
    cfg: &SweepConfig,
    ssps: &BTreeMap<String, Ssp>,
    report: &SweepReport,
    wall_1t: f64,
) {
    let tr = &mut run.tracer;
    let (mut cell_s, mut sim_s, mut messages, mut cycles) = (vec![], 0.0, 0u64, 0u64);
    let mut faithful = true;
    let sim_config = |cell: &protogen_sim::SweepCell, ssp: &Ssp, coverage: bool| {
        let mut network = cell.network.config;
        if ssp.network_ordered && network.model == NetModel::Unordered {
            network.model = NetModel::Ordered;
        }
        SimConfig {
            n_caches: cell.n_caches,
            n_addrs: cfg.n_addrs,
            think_time: cfg.think_time,
            accesses_per_core: cfg.accesses_per_core,
            workload: cell.workload.clone(),
            network,
            seed: cell_seed(cfg.seed, cell.index),
            max_cycles: cfg.max_cycles,
            collect_coverage: coverage,
        }
    };
    for (cell, done) in cfg.cells().iter().zip(&report.cells) {
        let ssp = &ssps[&cell.protocol];
        let ((), t) = timed(|| {
            let id = tr.open("sim.cell");
            let g = tr.span("sim.cell_generate", || {
                generate(ssp, &gen_config(cell.stalling)).expect("bundled protocols generate")
            });
            let sc = sim_config(cell, ssp, false);
            let (stats, s) =
                timed(|| tr.span("sim.simulate", || simulate(&g.cache, &g.directory, &sc)));
            sim_s += s;
            let stats: SimResult = stats.expect("sweep cells simulate");
            faithful &= (stats.cycles, stats.messages, stats.completed)
                == (done.stats.cycles, done.stats.messages, done.stats.completed);
            messages += stats.messages;
            cycles += stats.cycles;
            tr.close(id);
        });
        cell_s.push(t);
    }
    // The cells' workload expansion, replayed on each cell's own seed.
    let (_, expand_s) = timed(|| {
        tr.span("sim.schedules", || {
            for cell in cfg.cells() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(cell_seed(cfg.seed, cell.index));
                let s = cell.workload.schedules(
                    cell.n_caches,
                    cfg.n_addrs,
                    cfg.accesses_per_core,
                    &mut rng,
                );
                std::hint::black_box(s.expect("synthetic workloads expand"));
            }
        })
    });
    // Dispatch cost on each protocol configuration's covered pairs.
    let mut covered: BTreeMap<(String, bool, usize), PairSet> = BTreeMap::new();
    let mut weighted = (0.0, 0.0);
    tr.span("runtime.replay", || {
        for cell in cfg.cells() {
            let ssp = &ssps[&cell.protocol];
            let g = generate(ssp, &gen_config(cell.stalling)).expect("bundled protocols generate");
            let stats = simulate(&g.cache, &g.directory, &sim_config(&cell, ssp, true))
                .expect("sweep cells simulate");
            covered
                .entry((cell.protocol.clone(), cell.stalling, cell.n_caches))
                .or_default()
                .extend(stats.coverage.expect("coverage was requested"));
        }
        for ((protocol, stalling, caches), pairs) in &covered {
            let ssp = &ssps[protocol];
            let g = generate(ssp, &gen_config(*stalling)).expect("bundled protocols generate");
            let mc = ModelChecker::new(&g.cache, &g.directory, flat_config(ssp, *caches, 1));
            let ctxs: Vec<DispatchCtx> = dispatch_contexts(&mc, &mc.sample_states(SWEEP_CORPUS))
                .into_iter()
                .filter(|c| pairs.contains(&c.pair()))
                .collect();
            if let Some(ns) = dispatch_ns(&g.cache, &g.directory, &ctxs) {
                weighted.0 += ns * ctxs.len() as f64;
                weighted.1 += ctxs.len() as f64;
            }
        }
    });
    run.report.check(faithful);
    let rep = &mut run.report;
    let cell_ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
    rep.set("sim.cell_ms_p50", median(&cell_ms));
    rep.set("sim.cell_ms_max", cell_ms.iter().copied().fold(0.0, f64::max));
    rep.set("sim.workload_expand_ms", expand_s * 1e3);
    rep.set("sim.shard_imbalance", crate::stats::shard_imbalance(&cell_s, SWEEP_THREADS));
    rep.set("sim.host_ns_per_message", sim_s * 1e9 / messages as f64);
    rep.set("sim.messages", messages as f64);
    rep.set("sim.cycles", cycles as f64);
    rep.set("sim.unaccounted_frac", 1.0 - cell_s.iter().sum::<f64>() / wall_1t);
    if weighted.1 > 0.0 {
        rep.set("runtime.dispatch_ns", weighted.0 / weighted.1);
    }
    if !faithful {
        run.notes.push("sweep replay did not reproduce run_sweep's cells".into());
    }
}

// ------------------------------------------------------------------ serve

/// The service: MSI non-stalling, 2 cache workers + 1 directory shard,
/// 1024 blocks, uniform 50% stores, closed loop.
const SERVE_CACHES: usize = 2;
const SERVE_ADDRS: usize = 1024;
const SERVE_OPS: usize = 200_000;
/// Reachable states whose dispatches are replayed (2-cache MSI has fewer).
const SERVE_CORPUS: usize = 5_000;
/// Ping-pong round trips timed for the mailbox hand-off.
const HANDOFF_ROUNDS: u32 = 50_000;

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        dir_shards: 1,
        n_addrs: SERVE_ADDRS,
        total_ops: SERVE_OPS,
        workload: Workload::Uniform { store_pct: 50 },
        seed,
        ..ServeConfig::new(SERVE_CACHES)
    }
}

/// Whether a service run quiesced with every op done and every dispatch
/// inside the checked envelope.
fn serve_ok(r: &Result<ServeReport, protogen_serve::ServeError>, envelope: &PairSet) -> bool {
    r.as_ref().is_ok_and(|r| {
        r.stop_reason == StopReason::Quiesced
            && r.escapes(envelope).is_empty()
            && r.ops == SERVE_OPS as u64
            && r.hits + r.misses == r.ops
    })
}

/// Miss latency `(p50, tail)` in microseconds, the tail at p99 or the
/// highest percentile below it with ten samples beyond.
fn miss_latency_us(r: &ServeReport) -> Option<(f64, f64)> {
    let p = tail_percentile(r.miss_latency.len(), 99.0)?;
    let us = |q: f64| r.miss_latency.percentile(q) as f64 / 1e3;
    Some((us(50.0), us(p)))
}

/// The live service, measured per layer from the sweep's traced run. Its
/// wall time swings several-fold between identical runs at the same miss
/// count, too far to bound as a workload of its own (see README.md).
fn serve_layers(seed: u64, run: &mut Run) {
    let ssp = parse_protocol(MSI_PGEN).expect("bundled protocol sources parse");
    let g = generate(&ssp, &GenConfig::non_stalling()).expect("bundled protocols generate");
    let mc = flat_config(&ssp, SERVE_CACHES, SERVE_CACHES);
    let envelope = run.tracer.span("serve.envelope", || {
        checked_envelope(&g.cache, &g.directory, mc).expect("MSI's envelope checks clean")
    });
    let cfg = serve_config(seed);
    let cpu0 = procfs::cpu_seconds();
    let (r, wall) = timed(|| run.tracer.span("serve.run", || serve(&g.cache, &g.directory, &cfg)));
    let cpu = procfs::cpu_seconds() - cpu0;
    run.report.check(serve_ok(&r, &envelope));
    let Ok(r) = r else { return };
    run.notes.push(format!(
        "serve: MSI non-stalling, {SERVE_CACHES} caches + 1 dir shard, {SERVE_ADDRS} addrs, \
         uniform-50, {SERVE_OPS} ops closed loop, seed {seed}: {:.3} s, {} misses, {} \
         miss-latency samples",
        wall,
        r.misses,
        r.miss_latency.len()
    ));
    let mc = ModelChecker::new(&g.cache, &g.directory, flat_config(&ssp, SERVE_CACHES, 1));
    let ctxs: Vec<DispatchCtx> = dispatch_contexts(&mc, &mc.sample_states(SERVE_CORPUS))
        .into_iter()
        .filter(|c| r.coverage.contains(&c.pair()))
        .collect();
    let dispatch = run.tracer.span("serve.dispatch_replay", || {
        dispatch_ns(&g.cache, &g.directory, &ctxs).expect("serve dispatches on MSI's own arcs")
    });
    let push_pop = run.tracer.span("mailbox.ring", ring_push_pop_ns);
    let handoff = run.tracer.span("mailbox.fabric", || fabric_handoff_ns(HANDOFF_ROUNDS));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (ops, msgs) = (r.ops as f64, r.messages as f64);
    let explained = (ops + msgs) * dispatch + msgs * push_pop;
    let rep = &mut run.report;
    rep.set("serve.misses", r.misses as f64);
    rep.set("serve.messages", msgs);
    rep.set("serve.msgs_per_miss", msgs / r.misses.max(1) as f64);
    rep.set("serve.cpu_ns_per_op", cpu * 1e9 / ops);
    rep.set("serve.cpu_util", cpu / (wall * nproc as f64));
    rep.set(
        "serve.peak_queue_depth",
        r.peak_queue_depths.iter().copied().max().unwrap_or(0) as f64,
    );
    if let Some((p50, tail)) = miss_latency_us(&r) {
        rep.set("serve.miss_p50_us", p50);
        rep.set("serve.miss_p99_us", tail);
    }
    rep.set("serve.unaccounted_frac", 1.0 - explained / (cpu * 1e9));
    rep.set("mailbox.push_pop_ns", push_pop);
    rep.set("mailbox.handoff_ns", handoff);
}
