//! The paper's verification evaluation (§VI-A/B/C/D, experiments E8, E9,
//! E11, E12): generate every protocol and model-check it at the paper's
//! 3-cache bound, reporting explored states and wall time (the paper's
//! Murϕ runs exhausted memory beyond 3 caches; ours complete in seconds
//! thanks to symmetry reduction). The table and the 2-cache timing
//! medians go to `BENCH_paper_eval.json`.

use protogen_bench::{write_report, Json, Timings};
use protogen_core::{generate, GenConfig};
use protogen_mc::{McConfig, ModelChecker, PropertySet};

fn main() {
    println!("\n=== §VI: full verification sweep at 3 caches ===");
    println!(
        "{:<14} {:<13} {:>6} {:>6} {:>10} {:>8} {:>8}",
        "protocol", "config", "cache", "dir", "explored", "result", "time"
    );
    let mut t = Timings::new(10);
    let mut rows = Vec::new();
    for ssp in protogen_protocols::all() {
        for (label, cfg) in
            [("stalling", GenConfig::stalling()), ("non-stalling", GenConfig::non_stalling())]
        {
            let g = generate(&ssp, &cfg).unwrap();
            let mut mc_cfg = McConfig::with_caches(3);
            mc_cfg.ordered = ssp.network_ordered;
            mc_cfg.properties = PropertySet::promised(ssp.consistency);
            let r = ModelChecker::new(&g.cache, &g.directory, mc_cfg.clone()).run();
            println!(
                "{:<14} {:<13} {:>6} {:>6} {:>10} {:>8} {:>7.2}s",
                ssp.name,
                label,
                g.cache.state_count(),
                g.directory.state_count(),
                r.states,
                if r.passed() { "PASSED" } else { "FAILED" },
                r.seconds
            );
            assert!(r.passed(), "{} {label}: {:?}", ssp.name, r.violation);
            rows.push(Json::obj([
                ("protocol", Json::Str(ssp.name.clone())),
                ("config", Json::Str(label.into())),
                ("cache_states", Json::U64(g.cache.state_count() as u64)),
                ("dir_states", Json::U64(g.directory.state_count() as u64)),
                ("explored", Json::U64(r.states as u64)),
                ("passed", Json::Bool(r.passed())),
                ("seconds", Json::F64(r.seconds)),
            ]));
            // Time the cheaper 2-cache exploration so the suite stays
            // fast; the 3-cache numbers above are the reported result.
            let mut small = mc_cfg;
            small.n_caches = 2;
            t.time(&format!("verify_2_caches/{}/{label}", ssp.name), || {
                ModelChecker::new(&g.cache, &g.directory, small.clone()).run()
            });
        }
    }
    write_report(
        "BENCH_paper_eval.json",
        &Json::obj([("verify_3_caches", Json::Arr(rows)), ("median_us", t.into_json())]),
    );
}
