//! `protogen-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the host record and a few human-readable lines, then, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its spans
//! to `out/trace-<workload>-seed<N>.json` beside this package's manifest.

use protogen_perfbench::host::Host;
use protogen_perfbench::workloads::{self, Args, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: protogen-perfbench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad {flag} `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad {flag} `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = WORKLOADS.iter().find(|w| w.0 == args.workload).map_or(0, |w| w.1);
    println!("{}", Host::detect().render(threads));
    println!(
        "workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds={} \
         trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &run.notes {
        println!("{note}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, run.tracer.to_json()))
        {
            Ok(()) => println!("spans: {} written to {}", run.tracer.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", run.report.render(args.trace));
    if run.report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} attempted failed their pinned check",
            run.report.failed, run.report.attempted
        );
        ExitCode::FAILURE
    }
}
