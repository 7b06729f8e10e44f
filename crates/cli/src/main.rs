//! `protogen` — the command-line front door to the toolchain.
//!
//! ```text
//! protogen table   <protocol> [--stalling] [--machine cache|dir] [--markdown]
//! protogen verify  <protocol> [--stalling] [--caches N] [--threads N] [--max-states N]
//!                  [--mem-budget BYTES] [--store full|delta|fp-only] [--spill-chunk BYTES]
//!                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//! protogen verify  --compose l1=msi:2,llc=mesi [--stalling] [--max-states N]
//! protogen dot     <protocol> [--stalling] [--machine cache|dir]
//! protogen murphi  <protocol> [--stalling] [--caches N]
//! protogen sim     <protocol> [--stalling] [--caches N] [--addrs N] [--accesses N]
//!                  [--workload W] [--store-pct P] [--trace FILE]
//!                  [--network ordered|unordered] [--latency DIST] [--cap N]
//!                  [--seed N] [--json]
//! protogen serve   <protocol> [--stalling] [--caches N] [--dir-shards N] [--addrs N]
//!                  [--workload W] [--store-pct P] [--ops N] [--seed N]
//!                  [--duration SECS] [--mailbox-cap N] [--threads N] [--json]
//!                  [--faults delay,stall,squeeze,crash|all] [--fault-seed N]
//!                  [--crash-at-op N]
//! protogen sweep   [--protocols a,b] [--caches 2,4] [--accesses N] [--seed N]
//!                  [--threads N] [--list] [--out DIR] [--json]
//! protogen fuzz    [--seed N] [--mutants N] [--threads N] [--budget N]
//!                  [--protocols a,b] [--out DIR] [--json]
//! protogen fuzz    --replay FILE [--budget N]
//! protogen litmus  [protocol|all] [--tests SB,MP] [--threads N] [--seed N]
//!                  [--depth N] [--markdown]
//! protogen stats   [--stalling]
//! protogen compile <file.pgen> [--stalling] [--caches N] [--threads N] [--max-states N]
//! ```
//!
//! `--threads` sets the worker count (default: all available cores);
//! verification and sweep results are identical for every thread count.
//!
//! `--compose` points `verify`, `table`, or `dot` at a *hierarchical
//! composition* instead of a flat protocol: a comma-separated stack of
//! `label=protocol[:fanout]` levels, leaf-first (fanout defaults to 1).
//! `verify --compose` model-checks the whole tree — per-level SWMR,
//! leaf-level data-value, deadlock freedom — single-threaded with
//! per-level symmetry reduction; `table`/`dot --compose` render one
//! section (or cluster) per level with the derived glue. `compile` on a
//! `.pgen` file carrying a `compose { … }` block does the same after
//! resolving the referenced protocol names.
//!
//! `verify --mem-budget` caps the checker's accounted RAM (suffixes K/M/G,
//! binary): over budget, cold frontier bytes and frozen visited records
//! spill to scratch files and stream back — results are byte-identical at
//! any budget. `--store delta` delta-compresses frontier encodings;
//! `--store fp-only` keeps only 64-bit fingerprints (least RAM, no
//! counterexample trace, collision bound printed with the result).
//!
//! `verify --checkpoint-dir` snapshots the exploration at epoch
//! boundaries (every `--checkpoint-every` depths, default 8) into a
//! checksummed, versioned checkpoint; after a crash or `kill -9`,
//! `--resume` continues from the newest committed checkpoint and produces
//! byte-identical states, transitions, and violation traces. Flat
//! verification only (not `--compose`).
//!
//! `serve --faults` injects a seeded, replayable fault schedule into the
//! live run: FIFO-preserving delivery delays, bounded worker stalls,
//! transient mailbox-capacity squeezes, and full cache crashes recovered
//! through ordinary replacement traffic. Every fault schedule must stay
//! inside the verified envelope; the JSON report carries structured
//! fault/recovery counters and a `stop_reason` (exit 3 on `deadline`,
//! 4 on an unfinished fault plan).
//!
//! `sim` workloads: uniform, zipfian, producer-consumer, migratory,
//! false-sharing, private — or `--trace file.trc` to replay a trace.
//! Latency distributions: `fixed:N`, `uniform:LO:HI`, `geometric:BASE:PCT`.
//! `simulate` is kept as a legacy alias for `sim` (`--stores`/`--cores`
//! map to `--store-pct`/`--caches`).
//!
//! `serve` runs the protocol as a live multi-threaded cache service (one
//! thread per cache plus `--dir-shards` directory shards) *inside the
//! model-checked envelope*: the checker first collects exhaustive
//! `(machine, state, event)` pair coverage at the same cache count, then
//! the service executes `--ops` operations and any live dispatch outside
//! that coverage — or any invariant violation — exits non-zero.
//!
//! `litmus` classifies each protocol's observable memory model by
//! exhaustively enumerating the classical litmus tests (SB, MP, LB, IRIW,
//! CoRR) through the generated FSMs and comparing against executable SC
//! and TSO reference models. The exit code is non-zero unless every
//! protocol is classified exactly as its specification promises.
//! `--depth` bounds the per-(protocol, test) state space; `--seed` only
//! perturbs exploration order (the enumeration is exhaustive, so outcomes
//! are seed-invariant).
//!
//! `<protocol>` is one of: msi, mesi, mosi, msi-upgrade, msi-unordered,
//! tso-cc, si-sd.

use protogen_backend::{
    render_composed_table, render_table, to_dot, to_dot_composed, to_murphi, TableOptions,
};
use protogen_core::{compose, generate, Composed, GenConfig, Generated};
use protogen_litmus::{run_suite, Limits};
use protogen_mc::{HierChecker, HierConfig, McConfig, ModelChecker, PropertySet, StoreMode};
use protogen_serve::{
    checked_envelope, pair_label, serve, FaultConfig, ServeConfig, ServeError, StopReason,
};
use protogen_sim::{
    parse_trace, run_sweep, simulate, Json, LatencyDist, NetModel, SimConfig, SweepConfig, Workload,
};
use protogen_spec::{Composition, LevelSpec, Ssp};
use std::process::ExitCode;

struct Args {
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse() -> Args {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(f) = a.strip_prefix("--") {
                let needs_value = matches!(
                    f,
                    "machine"
                        | "caches"
                        | "stores"
                        | "cores"
                        | "threads"
                        | "addrs"
                        | "accesses"
                        | "workload"
                        | "store-pct"
                        | "dir-shards"
                        | "ops"
                        | "duration"
                        | "mailbox-cap"
                        | "trace"
                        | "network"
                        | "latency"
                        | "cap"
                        | "seed"
                        | "protocols"
                        | "out"
                        | "mutants"
                        | "budget"
                        | "max-states"
                        | "mem-budget"
                        | "store"
                        | "spill-chunk"
                        | "replay"
                        | "compose"
                        | "property"
                        | "tests"
                        | "depth"
                        | "checkpoint-dir"
                        | "checkpoint-every"
                        | "faults"
                        | "fault-seed"
                        | "crash-at-op"
                );
                if needs_value {
                    let v = it.next().unwrap_or_default();
                    flags.push(format!("{f}={v}"));
                } else {
                    flags.push(f.to_string());
                }
            } else {
                positional.push(a);
            }
        }
        Args { flags, positional }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find_map(|f| f.strip_prefix(&format!("{name}=")))
    }
}

fn gen_config(args: &Args) -> GenConfig {
    if args.flag("stalling") {
        GenConfig::stalling()
    } else {
        GenConfig::non_stalling()
    }
}

fn generate_or_exit(ssp: &Ssp, args: &Args) -> Generated {
    match generate(ssp, &gen_config(args)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("generation failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses a byte size with optional binary K/M/G suffix (`64M` = 64 MiB).
fn parse_bytes(v: &str) -> Option<usize> {
    let (digits, shift) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 10),
        b'M' | b'm' => (&v[..v.len() - 1], 20),
        b'G' | b'g' => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits.parse::<usize>().ok()?.checked_shl(shift)
}

/// Resolves the `--property` flag: a named contract (`sc`, `tso`, `weak`,
/// `none`) or a `+`-combination of individual properties; defaults to the
/// set the protocol's declared memory model promises.
fn property_set(ssp: &Ssp, args: &Args) -> PropertySet {
    match args.value("property") {
        None => PropertySet::promised(ssp.consistency),
        Some(v) => match v.parse() {
            Ok(set) => set,
            Err(e) => {
                eprintln!("bad --property: {e}");
                std::process::exit(2);
            }
        },
    }
}

fn verify(g: &Generated, ssp: &Ssp, args: &Args, n: usize, threads: usize) -> bool {
    let mut cfg = McConfig::with_caches(n);
    cfg.ordered = ssp.network_ordered;
    cfg.threads = threads;
    // `--max-states` raises (or lowers) the exploration budget — deep
    // cache counts can exceed the 20M-state default. A zero budget would
    // stop before the initial state and print a "PASSED"-shaped line for
    // an exploration that proved nothing, so reject it outright.
    if let Some(v) = args.value("max-states") {
        match v.parse() {
            Ok(0) => {
                eprintln!(
                    "bad --max-states `0`: the budget must admit at least the initial state \
                     (an empty exploration verifies nothing)"
                );
                std::process::exit(2);
            }
            Ok(n) => cfg.max_states = n,
            Err(_) => {
                eprintln!("bad --max-states `{v}`");
                std::process::exit(2);
            }
        }
    }
    if let Some(v) = args.value("mem-budget") {
        match parse_bytes(v) {
            Some(b) => cfg.mem_budget_bytes = b,
            None => {
                eprintln!("bad --mem-budget `{v}` (bytes, with optional K/M/G suffix)");
                std::process::exit(2);
            }
        }
    }
    if let Some(v) = args.value("spill-chunk") {
        match parse_bytes(v) {
            Some(b) => cfg.spill_chunk_bytes = b,
            None => {
                eprintln!("bad --spill-chunk `{v}` (bytes, with optional K/M/G suffix)");
                std::process::exit(2);
            }
        }
    }
    if let Some(v) = args.value("store") {
        match v.parse::<StoreMode>() {
            Ok(mode) => cfg.store = mode,
            Err(e) => {
                eprintln!("bad --store: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = args.value("checkpoint-dir") {
        cfg.checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(v) = args.value("checkpoint-every") {
        match v.parse() {
            Ok(n) if n >= 1 => cfg.checkpoint_every = n,
            _ => {
                eprintln!("bad --checkpoint-every `{v}` (whole epochs, at least 1)");
                std::process::exit(2);
            }
        }
    }
    let resume = args.flag("resume");
    if resume && cfg.checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir (where the checkpoints live)");
        std::process::exit(2);
    }
    // Default to the property contract the protocol declares; `--property`
    // overrides it (e.g. `--property sc` to demonstrate that TSO-CC
    // really does trade SWMR away).
    cfg.properties = property_set(ssp, args);
    let fp_only = cfg.store == StoreMode::FpOnly;
    let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
    let r = if resume {
        match mc.resume() {
            Ok(r) => r,
            Err(e) => {
                // Corruption and mismatches are hard errors, never a
                // silent fresh start: a "PASSED" that quietly re-ran from
                // scratch would misrepresent what was verified.
                eprintln!("cannot resume: {e}");
                std::process::exit(2);
            }
        }
    } else {
        mc.run()
    };
    println!(
        "{}: {} — {} states, {} transitions, {:.2}s ({:.0} states/s) on {} thread{}",
        ssp.name,
        if r.passed() { "PASSED" } else { "FAILED" },
        r.states,
        r.transitions,
        r.seconds,
        r.states as f64 / r.seconds.max(1e-9),
        r.threads,
        if r.threads == 1 { "" } else { "s" }
    );
    if r.spill_bytes > 0 {
        println!(
            "spilled {} bytes in {} chunks under the memory budget (peak accounted RAM {} \
             bytes){}",
            r.spill_bytes,
            r.spill_chunks,
            r.peak_mem_bytes,
            // "spilled + completed" is not an early stop: unless a limit
            // fired below, the whole space was still explored.
            if r.limit.is_none() { " — exploration completed" } else { "" }
        );
    }
    if fp_only {
        println!(
            "fingerprint-only store: no counterexample traces; expected state pairs merged by \
             a 64-bit collision ≈ {:.3e}",
            r.expected_collision_pairs()
        );
    }
    if let Some(v) = &r.violation {
        println!("violation: {}", v.kind);
        for line in &v.trace {
            println!("  {line}");
        }
    }
    if let Some(l) = &r.limit {
        println!("stopped early: {l} — partial stats only (raise --max-states to go further)");
    }
    r.passed()
}

/// Builds a [`Composition`] from `label=protocol[:fanout]` level specs,
/// leaf-first. Fanout defaults to 1.
fn build_composition(
    name: &str,
    levels: impl Iterator<Item = Result<(String, String, usize), String>>,
) -> Result<Composition, String> {
    let mut out = Vec::new();
    for level in levels {
        let (label, proto, fanout) = level?;
        let ssp = protogen_protocols::by_name(&proto).ok_or(format!(
            "unknown protocol `{proto}` in composition (try msi, mesi, mosi, msi-upgrade, \
             msi-unordered, tso-cc, si-sd)"
        ))?;
        out.push(LevelSpec { label, ssp, fanout });
    }
    if out.is_empty() {
        return Err("composition has no levels".into());
    }
    Ok(Composition { name: name.to_string(), levels: out })
}

/// Parses the `--compose l1=msi:2,llc=mesi` level list.
fn parse_compose_flag(spec: &str) -> Result<Composition, String> {
    build_composition(
        spec,
        spec.split(',').map(|part| {
            let (label, rest) = part
                .split_once('=')
                .ok_or(format!("bad level `{part}` (want label=protocol[:fanout])"))?;
            let (proto, fanout) = match rest.split_once(':') {
                Some((p, f)) => {
                    (p, f.parse().map_err(|_| format!("bad fanout `{f}` in `{part}`"))?)
                }
                None => (rest, 1),
            };
            Ok((label.to_string(), proto.to_string(), fanout))
        }),
    )
}

/// Generates a composition or exits with a usage error, mirroring
/// [`generate_or_exit`] for the composed pipeline.
fn compose_or_exit(comp: &Composition, args: &Args) -> Composed {
    match compose(comp, &gen_config(args)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            std::process::exit(2);
        }
    }
}

/// `verify --compose`: model-check the whole stack with the hierarchical
/// checker (per-level SWMR, leaf data-value, deadlock freedom).
fn verify_composed(composed: &Composed, comp: &Composition, args: &Args) -> bool {
    let mut cfg = HierConfig::default();
    if let Some(v) = args.value("max-states") {
        match v.parse() {
            Ok(n) if n > 0 => cfg.max_states = n,
            _ => {
                eprintln!("bad --max-states `{v}` (a positive state budget)");
                std::process::exit(2);
            }
        }
    }
    // The property contract comes from the leaf protocol — inner levels
    // are where cores live; `--property` overrides as for flat verify.
    cfg.properties = property_set(&comp.levels[0].ssp, args);
    let hc = HierChecker::new(composed, cfg);
    let (counts, _) = hc.topology();
    let r = hc.check();
    println!(
        "{}: {} — {} states, {} transitions, {:.2}s ({:.0} states/s); {} levels, {} nodes, \
         symmetry group {}",
        comp.name,
        if r.passed() { "PASSED" } else { "FAILED" },
        r.states,
        r.transitions,
        r.seconds,
        r.states as f64 / r.seconds.max(1e-9),
        composed.depth(),
        counts.iter().sum::<usize>(),
        hc.group_size(),
    );
    if let Some(v) = &r.violation {
        println!("violation: {}", v.kind);
        for line in &v.trace {
            println!("  {line}");
        }
    }
    if r.hit_state_limit {
        println!("stopped early: state budget — partial stats only (raise --max-states)");
    }
    r.passed()
}

/// Dispatches `verify`/`table`/`dot` over a resolved composition.
fn compose_cmd(cmd: &str, comp: &Composition, args: &Args) -> ExitCode {
    let composed = compose_or_exit(comp, args);
    match cmd {
        "verify" => {
            if args.value("checkpoint-dir").is_some() || args.flag("resume") {
                // The hierarchical checker is single-threaded with its own
                // store layout; checkpoint/resume covers flat runs only.
                eprintln!("--checkpoint-dir/--resume are not supported with --compose");
                return ExitCode::from(2);
            }
            if verify_composed(&composed, comp, args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "table" => {
            let opts = TableOptions { markdown: args.flag("markdown"), ..TableOptions::default() };
            print!("{}", render_composed_table(&composed, &opts));
            ExitCode::SUCCESS
        }
        "dot" => {
            print!("{}", to_dot_composed(&composed));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("--compose supports verify, table, and dot (not `{other}`)");
            ExitCode::from(2)
        }
    }
}

/// Builds a [`SimConfig`] from CLI flags, warning (and clamping to FIFO
/// delivery) when an ordered-network protocol is pointed at an unordered
/// interconnect. `legacy` is the `simulate` alias, whose historical
/// contract is one contended block, not the default working set.
fn sim_config(ssp: &Ssp, args: &Args, legacy: bool) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::default();
    if legacy {
        cfg.n_addrs = 1;
    }
    // `--cores`/`--stores` are the legacy `simulate` spellings.
    if let Some(v) = args.value("caches").or_else(|| args.value("cores")) {
        cfg.n_caches = v.parse().map_err(|_| format!("bad --caches `{v}`"))?;
    }
    if let Some(v) = args.value("addrs") {
        cfg.n_addrs = v.parse().map_err(|_| format!("bad --addrs `{v}`"))?;
    }
    if let Some(v) = args.value("accesses") {
        cfg.accesses_per_core = v.parse().map_err(|_| format!("bad --accesses `{v}`"))?;
    }
    if let Some(v) = args.value("seed") {
        cfg.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
    }
    let store_pct = args
        .value("store-pct")
        .or_else(|| args.value("stores"))
        .map(|v| v.parse().map_err(|_| format!("bad --store-pct `{v}`")))
        .transpose()?
        .unwrap_or(50);
    cfg.workload = if let Some(path) = args.value("trace") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Workload::Trace(parse_trace(&src).map_err(|e| e.to_string())?)
    } else {
        Workload::parse(args.value("workload").unwrap_or("uniform"), store_pct)?
    };
    match args.value("network") {
        None | Some("ordered") => {}
        Some("unordered") => {
            // An unordered request implies jittered hops (the sweep's
            // unordered point) unless --latency overrides below.
            cfg.network.latency = LatencyDist::Uniform { lo: 4, hi: 16 };
            if ssp.network_ordered {
                eprintln!(
                    "note: {} is generated for ordered networks; applying latency jitter \
                     with per-block FIFO delivery instead of reordering",
                    ssp.name
                );
            } else {
                cfg.network.model = NetModel::Unordered;
            }
        }
        Some(other) => return Err(format!("bad --network `{other}` (ordered or unordered)")),
    }
    if let Some(v) = args.value("latency") {
        cfg.network.latency = LatencyDist::parse(v)?;
    }
    if let Some(v) = args.value("cap") {
        cfg.network.capacity = v.parse().map_err(|_| format!("bad --cap `{v}`"))?;
    }
    Ok(cfg)
}

fn sim(ssp: &Ssp, g: &Generated, args: &Args, legacy: bool) -> ExitCode {
    let cfg = match sim_config(ssp, args, legacy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match simulate(&g.cache, &g.directory, &cfg) {
        Ok(r) => {
            if args.flag("json") {
                let doc = Json::obj([
                    ("protocol", Json::Str(ssp.name.clone())),
                    (
                        "config",
                        Json::Str(
                            if args.flag("stalling") { "stalling" } else { "non-stalling" }.into(),
                        ),
                    ),
                    ("workload", Json::Str(cfg.workload.label())),
                    ("caches", Json::U64(cfg.n_caches as u64)),
                    ("seed", Json::U64(cfg.seed)),
                    ("stats", r.to_json()),
                ]);
                print!("{}", doc.render());
            } else {
                println!(
                    "{}: {} accesses ({} hits, {} misses) in {} cycles under {}",
                    ssp.name, r.completed, r.hits, r.misses, r.cycles, cfg.workload
                );
                println!(
                    "  miss latency p50/p95/p99/max: {}/{}/{}/{} (avg {:.1})",
                    r.p50_latency, r.p95_latency, r.p99_latency, r.max_latency, r.avg_miss_latency
                );
                println!(
                    "  {} messages ({:.1}/miss), {} stall-cycles, {} backpressure-cycles, \
                     dir occupancy {:.1}%",
                    r.messages,
                    r.msgs_per_miss,
                    r.stall_cycles,
                    r.backpressure_cycles,
                    r.dir_occupancy * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `protogen serve`: model-check the coverage envelope, run the live
/// multi-threaded service, and fail on any escape or invariant violation.
fn serve_cmd(ssp: &Ssp, g: &Generated, args: &Args, caches: usize, threads: usize) -> ExitCode {
    let usage_err = |m: String| -> ExitCode {
        eprintln!("{m}");
        ExitCode::from(2)
    };
    let mut cfg = ServeConfig::new(caches);
    macro_rules! num_flag {
        ($flag:literal, $field:expr) => {
            if let Some(v) = args.value($flag) {
                match v.parse() {
                    Ok(n) => $field = n,
                    Err(_) => return usage_err(format!("bad --{} `{v}`", $flag)),
                }
            }
        };
    }
    num_flag!("dir-shards", cfg.dir_shards);
    num_flag!("addrs", cfg.n_addrs);
    num_flag!("ops", cfg.total_ops);
    num_flag!("seed", cfg.seed);
    num_flag!("mailbox-cap", cfg.mailbox_cap);
    num_flag!("duration", cfg.max_seconds);
    let store_pct = match args.value("store-pct").map(str::parse).transpose() {
        Ok(p) => p.unwrap_or(50),
        Err(_) => {
            return usage_err(format!("bad --store-pct `{}`", args.value("store-pct").unwrap()))
        }
    };
    cfg.workload = match Workload::parse(args.value("workload").unwrap_or("uniform"), store_pct) {
        Ok(w) => w,
        Err(e) => return usage_err(e),
    };
    if let Some(list) = args.value("faults") {
        // The fault seed defaults to the workload seed: one seed replays
        // the whole run, faults included.
        let seed = match args.value("fault-seed").map(str::parse).transpose() {
            Ok(s) => s.unwrap_or(cfg.seed),
            Err(_) => {
                return usage_err(format!(
                    "bad --fault-seed `{}`",
                    args.value("fault-seed").unwrap()
                ))
            }
        };
        let mut fc = FaultConfig::none(seed);
        for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match item {
                "all" => fc = FaultConfig::all(seed),
                "delay" | "delays" => fc.delays = true,
                "stall" | "stalls" => fc.stalls = true,
                "squeeze" | "squeezes" => fc.squeezes = true,
                "crash" | "crashes" => fc.crashes = fc.crashes.max(1),
                other => {
                    return usage_err(format!(
                        "bad --faults item `{other}` (delay, stall, squeeze, crash, or all)"
                    ))
                }
            }
        }
        if let Some(v) = args.value("crash-at-op") {
            match v.parse() {
                Ok(n) => {
                    fc.crash_at_op = Some(n);
                    fc.crashes = fc.crashes.max(1);
                }
                Err(_) => return usage_err(format!("bad --crash-at-op `{v}`")),
            }
        }
        cfg.faults = Some(fc);
    } else if args.value("crash-at-op").is_some() {
        return usage_err("--crash-at-op requires --faults (e.g. --faults crash)".into());
    }

    // The envelope: exhaustive pair coverage at the same cache count. Runs
    // first so a protocol the checker rejects never goes live. Progress
    // goes to stderr — `--json` keeps stdout machine-readable.
    let mut mc_cfg = McConfig::with_caches(caches);
    mc_cfg.ordered = ssp.network_ordered;
    mc_cfg.threads = threads;
    // The envelope enforces exactly the contract `verify` enforces: the
    // property set the protocol's memory model promises (or --property).
    mc_cfg.properties = property_set(ssp, args);
    eprintln!("model-checking the {caches}-cache envelope for {}…", ssp.name);
    let envelope = match checked_envelope(&g.cache, &g.directory, mc_cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("envelope: {} model-checked (machine, state, event) pairs", envelope.len());

    let report = match serve(&g.cache, &g.directory, &cfg) {
        Ok(r) => r,
        Err(ServeError::Config(m)) => return usage_err(format!("bad configuration: {m}")),
        Err(e) => {
            eprintln!("service run FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let escapes = report.escapes(&envelope);

    if args.flag("json") {
        let doc = Json::obj([
            ("protocol", Json::Str(ssp.name.clone())),
            (
                "config",
                Json::Str(if args.flag("stalling") { "stalling" } else { "non-stalling" }.into()),
            ),
            ("workload", Json::Str(cfg.workload.label())),
            ("seed", Json::U64(cfg.seed)),
            ("envelope_pairs", Json::U64(envelope.len() as u64)),
            ("report", report.to_json(&g.cache, &g.directory, &escapes)),
        ]);
        print!("{}", doc.render());
    } else {
        println!(
            "{}: {} ops ({} hits, {} misses) in {:.3}s — {:.0} ops/s over {} cache \
             worker(s) + {} dir shard(s)",
            ssp.name,
            report.ops,
            report.hits,
            report.misses,
            report.seconds,
            report.ops_per_sec(),
            report.n_caches,
            report.dir_shards
        );
        if !report.miss_latency.is_empty() {
            println!(
                "  miss latency p50/p95/p99/max: {}/{}/{}/{} ns",
                report.miss_latency.percentile(50.0),
                report.miss_latency.percentile(95.0),
                report.miss_latency.percentile(99.0),
                report.miss_latency.max()
            );
        }
        println!(
            "  {} messages, peak queue depths {:?}",
            report.messages, report.peak_queue_depths
        );
        println!(
            "  live coverage: {} pairs, all inside the {}-pair checked envelope: {}",
            report.coverage.len(),
            envelope.len(),
            if escapes.is_empty() { "yes" } else { "NO" }
        );
        println!("  stop reason: {}", report.stop_reason.label());
        if let Some(fs) = &report.faults {
            println!(
                "  faults: {}/{} crash recoveries, {} recovery writeback(s), {} delay(s), \
                 {} stall(s), {} squeeze park(s){}",
                fs.crashes_completed,
                fs.planned_crashes,
                fs.recovery_writebacks,
                fs.delays_injected,
                fs.stalls_injected,
                fs.squeeze_parks,
                if fs.lines_lost > 0 {
                    format!(", {} LINE(S) LOST", fs.lines_lost)
                } else {
                    String::new()
                }
            );
        }
    }
    if !escapes.is_empty() {
        eprintln!(
            "COVERAGE ESCAPE: {} live pair(s) the model checker never visited:",
            escapes.len()
        );
        for p in &escapes {
            eprintln!("  {}", pair_label(&g.cache, &g.directory, p));
        }
        return ExitCode::FAILURE;
    }
    match report.stop_reason {
        StopReason::Quiesced => ExitCode::SUCCESS,
        StopReason::Deadline => {
            eprintln!("run stopped at the wall-clock deadline — partial measurements only");
            ExitCode::from(3)
        }
        StopReason::Fault => {
            eprintln!("fault plan did not complete (crash point never reached) — inconclusive");
            ExitCode::from(4)
        }
    }
}

fn sweep(args: &Args, threads: usize) -> ExitCode {
    let mut cfg = SweepConfig { threads, ..SweepConfig::default() };
    if let Some(list) = args.value("protocols") {
        cfg.protocols = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = args.value("caches") {
        match list.split(',').map(str::parse).collect::<Result<Vec<usize>, _>>() {
            Ok(counts) if !counts.is_empty() => cfg.cache_counts = counts,
            _ => {
                eprintln!("bad --caches `{list}` (comma-separated counts)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(v) = args.value("accesses") {
        match v.parse() {
            Ok(n) => cfg.accesses_per_core = n,
            Err(_) => {
                eprintln!("bad --accesses `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(v) = args.value("seed") {
        match v.parse() {
            Ok(n) => cfg.seed = n,
            Err(_) => {
                eprintln!("bad --seed `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if args.flag("list") {
        print!("{}", cfg.listing());
        return ExitCode::SUCCESS;
    }
    let report = match run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = args.value("out") {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        // One diffable JSON per config cell, plus the merged report.
        for cell in &report.cells {
            let path = dir.join(format!("{}.json", cell.cell.label()));
            if let Err(e) = std::fs::write(&path, cell.to_json().render()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        let path = dir.join("sweep.json");
        if let Err(e) = std::fs::write(&path, report.to_json().render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} cell files + sweep.json to {}", report.cells.len(), dir.display());
    }
    if args.flag("json") {
        print!("{}", report.to_json().render());
    } else if args.value("out").is_none() {
        println!(
            "{:<44} {:>9} {:>6} {:>6} {:>6} {:>8}",
            "cell", "cycles", "p50", "p95", "stalls", "msgs"
        );
        for c in &report.cells {
            println!(
                "{:<44} {:>9} {:>6} {:>6} {:>6} {:>8}",
                c.cell.label(),
                c.stats.cycles,
                c.stats.p50_latency,
                c.stats.p95_latency,
                c.stats.stall_cycles,
                c.stats.messages
            );
        }
    }
    ExitCode::SUCCESS
}

/// `protogen fuzz`: a seeded mutation campaign (or a single `--replay`).
///
/// Exit code 0 only when every negative control was caught *and* no
/// unexpected outcome (generator/checker panic, exec violation) appeared.
fn fuzz(args: &Args, threads: usize) -> ExitCode {
    use protogen_fuzz::{run_fuzz, run_mutant, FuzzConfig, Script};
    let mut cfg = FuzzConfig { threads, ..FuzzConfig::default() };
    if let Some(v) = args.value("seed") {
        match v.parse() {
            Ok(n) => cfg.seed = n,
            Err(_) => {
                eprintln!("bad --seed `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(v) = args.value("mutants") {
        match v.parse() {
            Ok(n) => cfg.mutants = n,
            Err(_) => {
                eprintln!("bad --mutants `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(v) = args.value("budget") {
        match v.parse() {
            Ok(n) => cfg.budget = n,
            Err(_) => {
                eprintln!("bad --budget `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(list) = args.value("protocols") {
        cfg.protocols = list.split(',').map(str::to_string).collect();
    }

    // Single-reproducer replay: run one script back through the pipeline.
    if let Some(path) = args.value("replay") {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let script = match Script::parse(&src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        let Some(base) = protogen_protocols::by_name(&script.protocol) else {
            eprintln!("unknown protocol `{}`", script.protocol);
            return ExitCode::from(2);
        };
        let r = run_mutant(&base, &script.mutations, &script.gen_config(), cfg.budget, false);
        println!("{}: {}", r.outcome.label(), r.outcome.detail());
        for line in &r.trace {
            println!("  {line}");
        }
        // A script whose site no longer applies did not reconstruct the
        // mutant — that is a usage error, not "the bug is fixed".
        return match r.outcome {
            protogen_fuzz::Outcome::MutationInapplicable(_) => ExitCode::from(2),
            o if o.is_unexpected() => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        };
    }

    // Mutant pipelines panic by design; compress each panic to one line
    // so caught-and-classified mutants don't spray backtraces, while a
    // panic that *escapes* the harness still leaves a trail to debug.
    std::panic::set_hook(Box::new(|info| eprintln!("fuzz worker panic: {info}")));
    let report = match run_fuzz(&cfg) {
        Ok(r) => r,
        Err(e) => {
            let _ = std::panic::take_hook();
            eprintln!("fuzz failed: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::panic::take_hook();

    if let Some(dir) = args.value("out") {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("fuzz.json");
        if let Err(e) = std::fs::write(&path, report.to_json().render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        for r in report.unexpected() {
            let s = r.shrunk.as_ref().expect("unexpected records carry a shrunk case");
            let path = dir.join(format!("repro-{}.mut", r.index));
            if let Err(e) = std::fs::write(&path, &s.script) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!(
            "wrote fuzz.json + {} reproducer script(s) to {}",
            report.unexpected().len(),
            dir.display()
        );
    }
    if args.flag("json") {
        print!("{}", report.to_json().render());
    } else {
        println!("fuzz: seed {}, {} mutants, budget {}", report.seed, cfg.mutants, report.budget);
        for (label, count) in report.distribution() {
            if count > 0 {
                println!("  {label:<22} {count:>6}");
            }
            if label == "rejected-by-checker" {
                // The property-aware breakdown of what the checker caught.
                for (family, n) in report.checker_families() {
                    println!("    {family:<20} {n:>6}");
                }
            }
        }
        for c in &report.controls {
            println!(
                "control {:<38} {} ({})",
                c.name,
                if c.caught { "CAUGHT" } else { "MISSED" },
                c.detail
            );
        }
        for r in report.unexpected() {
            let s = r.shrunk.as_ref().expect("unexpected records carry a shrunk case");
            println!("unexpected mutant {}: {} — {}", r.index, r.outcome, r.detail);
            for line in s.script.lines() {
                println!("  {line}");
            }
        }
    }
    if report.all_controls_caught() && report.unexpected().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `protogen litmus`: classify protocols against the litmus suite and
/// fail unless every one matches its promised memory model.
fn litmus_cmd(args: &Args, threads: usize) -> ExitCode {
    let which = args.positional.get(1).map(String::as_str).unwrap_or("all");
    let ssps: Vec<Ssp> = if which == "all" {
        protogen_protocols::all()
    } else {
        match protogen_protocols::by_name(which) {
            Some(ssp) => vec![ssp],
            None => {
                eprintln!(
                    "unknown protocol `{which}` (try all, msi, mesi, mosi, msi-upgrade, \
                     msi-unordered, tso-cc, si-sd)"
                );
                return ExitCode::from(2);
            }
        }
    };
    let all_tests = protogen_litmus::bundled();
    let tests: Vec<_> = match args.value("tests") {
        None => all_tests,
        Some(list) => {
            let mut picked = Vec::new();
            for name in list.split(',') {
                match all_tests.iter().find(|t| t.name.eq_ignore_ascii_case(name.trim())) {
                    Some(t) => picked.push(t.clone()),
                    None => {
                        let known: Vec<&str> = all_tests.iter().map(|t| t.name.as_str()).collect();
                        eprintln!("unknown litmus test `{name}` (known: {})", known.join(", "));
                        return ExitCode::from(2);
                    }
                }
            }
            picked
        }
    };
    let mut limits = Limits::default();
    if let Some(d) = args.value("depth").and_then(|v| v.parse().ok()) {
        limits.max_states = d;
    }
    if let Some(s) = args.value("seed").and_then(|v| v.parse().ok()) {
        limits.seed = s;
    }
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    match run_suite(&ssps, &tests, &limits, workers) {
        Err(e) => {
            eprintln!("litmus: {e}");
            ExitCode::FAILURE
        }
        Ok(report) => {
            if args.flag("markdown") {
                print!("{}", report.render_markdown());
            } else {
                print!("{}", report.render_text());
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                eprintln!("litmus: observed memory model differs from the specification's promise");
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        eprintln!(
            "usage: protogen <table|verify|dot|murphi|sim|serve|sweep|fuzz|litmus|simulate|stats|compile> …"
        );
        return ExitCode::from(2);
    };
    let caches: usize = args.value("caches").and_then(|v| v.parse().ok()).unwrap_or(2);
    // 0 = "auto": the checker resolves it to available_parallelism.
    let threads: usize = args.value("threads").and_then(|v| v.parse().ok()).unwrap_or(0);

    match cmd {
        "stats" => {
            println!(
                "{:<14} {:<13} {:>12} {:>12} {:>10} {:>10}",
                "protocol", "config", "cache-states", "dir-states", "cache-arcs", "dir-arcs"
            );
            for ssp in protogen_protocols::all() {
                for (label, cfg) in [
                    ("stalling", GenConfig::stalling()),
                    ("non-stalling", GenConfig::non_stalling()),
                ] {
                    match generate(&ssp, &cfg) {
                        Ok(g) => println!(
                            "{:<14} {:<13} {:>12} {:>12} {:>10} {:>10}",
                            ssp.name,
                            label,
                            g.cache.state_count(),
                            g.directory.state_count(),
                            g.cache.transition_count(),
                            g.directory.transition_count()
                        ),
                        Err(e) => println!("{:<14} {label}: error {e}", ssp.name),
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => sweep(&args, threads),
        "fuzz" => fuzz(&args, threads),
        "litmus" => litmus_cmd(&args, threads),
        "table" | "verify" | "dot" | "murphi" | "sim" | "serve" | "simulate" => {
            if let Some(spec) = args.value("compose") {
                let comp = match parse_compose_flag(spec) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bad --compose: {e}");
                        return ExitCode::from(2);
                    }
                };
                return compose_cmd(cmd, &comp, &args);
            }
            let Some(name) = args.positional.get(1) else {
                eprintln!("usage: protogen {cmd} <protocol> [flags]");
                return ExitCode::from(2);
            };
            let Some(ssp) = protogen_protocols::by_name(name) else {
                eprintln!(
                    "unknown protocol `{name}` (try msi, mesi, mosi, msi-upgrade, \
                     msi-unordered, tso-cc, si-sd)"
                );
                return ExitCode::from(2);
            };
            let g = generate_or_exit(&ssp, &args);
            match cmd {
                "table" => {
                    let machine =
                        if args.value("machine") == Some("dir") { &g.directory } else { &g.cache };
                    let opts =
                        TableOptions { markdown: args.flag("markdown"), ..TableOptions::default() };
                    println!("{}", g.report);
                    println!("{}", render_table(machine, &opts));
                    ExitCode::SUCCESS
                }
                "dot" => {
                    let machine =
                        if args.value("machine") == Some("dir") { &g.directory } else { &g.cache };
                    println!("{}", to_dot(machine));
                    ExitCode::SUCCESS
                }
                "murphi" => {
                    println!("{}", to_murphi(&g.cache, &g.directory, caches));
                    ExitCode::SUCCESS
                }
                "verify" => {
                    if verify(&g, &ssp, &args, caches, threads) {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                "serve" => serve_cmd(&ssp, &g, &args, caches, threads),
                _ => sim(&ssp, &g, &args, cmd == "simulate"),
            }
        }
        "compile" => {
            let Some(path) = args.positional.get(1) else {
                eprintln!("usage: protogen compile <file.pgen> [flags]");
                return ExitCode::from(2);
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let ast = match protogen_dsl::parse(&src) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            // A `compose { … }` block makes this a composition source:
            // resolve the referenced protocols and run the composed
            // pipeline (table + verify) instead of the flat one.
            if !ast.compose.is_empty() {
                let comp = match build_composition(
                    &ast.name,
                    ast.compose.iter().map(|l| {
                        Ok((l.label.clone(), l.protocol.clone(), l.fanout.unwrap_or(1) as usize))
                    }),
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bad compose block in {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let composed = compose_or_exit(&comp, &args);
                print!("{}", render_composed_table(&composed, &TableOptions::default()));
                return if verify_composed(&composed, &comp, &args) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            let ssp = match protogen_dsl::lower(&ast) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let g = generate_or_exit(&ssp, &args);
            println!("{}", g.report);
            println!("{}", render_table(&g.cache, &TableOptions::default()));
            if verify(&g, &ssp, &args, caches, threads) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}
