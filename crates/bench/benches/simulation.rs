//! The performance-shape experiment (E10): stalling vs non-stalling
//! generated MSI under increasing write contention. The paper's claim —
//! stalling "degrades performance" on racing transactions — appears as
//! the speedup column; the crossover toward 1.0x at 0% stores shows the
//! protocols are identical without contention. The table and the timing
//! medians go to `BENCH_simulation.json`.

use protogen_bench::{write_report, Json, Timings};
use protogen_core::{generate, GenConfig};
use protogen_sim::{simulate, SimConfig, Workload};

fn main() {
    let ssp = protogen_protocols::msi();
    let st = generate(&ssp, &GenConfig::stalling()).unwrap();
    let ns = generate(&ssp, &GenConfig::non_stalling()).unwrap();

    println!("\n=== E10: stalling vs non-stalling MSI, 4 cores, contended block ===");
    println!("{:>8} {:>14} {:>14} {:>9}", "store %", "stalling cyc", "non-stall cyc", "speedup");
    let mut rows = Vec::new();
    for store_pct in [0u8, 25, 50, 75, 100] {
        // n_addrs = 1: every access races on the same block.
        let cfg = SimConfig {
            workload: Workload::Uniform { store_pct },
            n_addrs: 1,
            ..SimConfig::default()
        };
        let a = simulate(&st.cache, &st.directory, &cfg).unwrap();
        let b = simulate(&ns.cache, &ns.directory, &cfg).unwrap();
        let speedup = a.cycles as f64 / b.cycles as f64;
        println!("{:>8} {:>14} {:>14} {:>8.3}x", store_pct, a.cycles, b.cycles, speedup);
        rows.push(Json::obj([
            ("store_pct", Json::U64(store_pct.into())),
            ("stalling_cycles", Json::U64(a.cycles)),
            ("non_stalling_cycles", Json::U64(b.cycles)),
            ("speedup", Json::F64(speedup)),
        ]));
    }

    let mut t = Timings::new(20);
    let cfg = SimConfig {
        workload: Workload::Uniform { store_pct: 50 },
        n_addrs: 1,
        accesses_per_core: 100,
        ..SimConfig::default()
    };
    t.time("simulate_msi/stalling/50pct", || simulate(&st.cache, &st.directory, &cfg).unwrap());
    t.time("simulate_msi/non_stalling/50pct", || simulate(&ns.cache, &ns.directory, &cfg).unwrap());
    write_report(
        "BENCH_simulation.json",
        &Json::obj([("contention", Json::Arr(rows)), ("median_us", t.into_json())]),
    );
}
