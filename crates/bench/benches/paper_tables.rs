//! Regenerates the paper's tables and figures (E1–E7, E13, E14 of
//! DESIGN.md). Each section first prints the reproduced artifact, then
//! times the generation machinery behind it; §VI-E reports generation
//! runtimes "well less than one second", and these timings quantify ours.
//! The medians and the §VI-E state counts go to `BENCH_paper_tables.json`.

use protogen_backend::{render_ssp_table, render_table, TableOptions};
use protogen_bench::{write_report, Json, Timings};
use protogen_core::{generate, preprocess, GenConfig};
use protogen_spec::MachineKind;

fn main() {
    let mut t = Timings::new(20);

    let msi = protogen_protocols::msi();
    println!("\n=== Table I: atomic MSI cache specification ===");
    println!("{}", render_ssp_table(&msi, MachineKind::Cache));
    println!("=== Table II: atomic MSI directory specification ===");
    println!("{}", render_ssp_table(&msi, MachineKind::Directory));
    t.time("table1_2/render_atomic_msi", || {
        (render_ssp_table(&msi, MachineKind::Cache), render_ssp_table(&msi, MachineKind::Directory))
    });

    let mosi = protogen_protocols::mosi();
    let (_, renames) = preprocess(&mosi).unwrap();
    println!("\n=== Tables III/IV: MOSI preprocessing ===");
    for r in &renames {
        println!("  {} -> {} (arrives at {})", r.original, r.renamed, r.state);
    }
    t.time("table3_4/preprocess_mosi", || preprocess(&mosi).unwrap());

    let g = generate(&msi, &GenConfig::non_stalling()).unwrap();
    println!("\n=== Table V: transient states of the I->M transaction ===");
    for name in ["IM_AD", "IM_A"] {
        let id = g.cache.state_by_name(name).unwrap();
        println!("  {name}: {:?} perm", g.cache.state(id).perm);
    }
    t.time("table5/generate_msi_step2", || generate(&msi, &GenConfig::non_stalling()).unwrap());

    println!("\n=== Table VI: generated non-stalling MSI cache controller ===");
    println!("{}", g.report);
    println!("{}", render_table(&g.cache, &TableOptions::default()));
    t.time("table6/generate_nonstalling_msi", || {
        generate(&msi, &GenConfig::non_stalling()).unwrap()
    });

    println!("\n=== §VI-E: generation runtime for every protocol (paper: <1s) ===");
    let mut generation = Vec::new();
    for ssp in protogen_protocols::all() {
        for (label, cfg) in
            [("stalling", GenConfig::stalling()), ("non-stalling", GenConfig::non_stalling())]
        {
            let start = std::time::Instant::now();
            let g = generate(&ssp, &cfg).unwrap();
            println!(
                "  {:<14} {:<13} {:>3} cache / {:>3} dir states in {:?}",
                ssp.name,
                label,
                g.cache.state_count(),
                g.directory.state_count(),
                start.elapsed()
            );
            generation.push(Json::obj([
                ("protocol", Json::Str(ssp.name.clone())),
                ("config", Json::Str(label.into())),
                ("cache_states", Json::U64(g.cache.state_count() as u64)),
                ("dir_states", Json::U64(g.directory.state_count() as u64)),
            ]));
            t.time(&format!("sec6e_generation/{}/{label}", ssp.name), || {
                generate(&ssp, &cfg).unwrap()
            });
        }
    }

    let upgrade = protogen_protocols::msi_upgrade();
    let g = generate(&upgrade, &GenConfig::non_stalling()).unwrap();
    println!("\n=== §V-D1: Upgrade reinterpretation rules ===");
    for r in &g.report.reinterpretations {
        println!("  {} treated as {} at directory {}", r.original, r.treated_as, r.dir_state);
    }
    t.time("sec5d/generate_msi_upgrade", || {
        generate(&upgrade, &GenConfig::non_stalling()).unwrap()
    });

    write_report(
        "BENCH_paper_tables.json",
        &Json::obj([("generation", Json::Arr(generation)), ("median_us", t.into_json())]),
    );
}
