//! The benchmark's own arithmetic and parsers.

use protogen_perfbench::host::{cpu_model, git_commit};
use protogen_perfbench::procfs::{cpu_seconds, parse_stat_cpu_ticks, parse_status_kb, peak_rss_mb};
use protogen_perfbench::report::{Report, END_TO_END, PER_LAYER};
use protogen_perfbench::stats::{median, quartiles, shard_imbalance, spread, tail_percentile};
use protogen_perfbench::trace::{self_times_ns, Span, Tracer};
use protogen_perfbench::workloads::{fnv1a, WORKLOADS};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&xs);
    assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quartiles(&[2.0, 1.0]);
    assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "{q:?}");
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
    assert!(close(q[0], 1.5) && close(q[1], 4.0) && close(q[2], 12.0), "{q:?}");
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(spread(&xs), (8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
    assert_eq!(tail_percentile(999, 99.0), Some(90.0));
    assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
    assert_eq!(tail_percentile(100_000, 100.0), Some(99.99));
    assert_eq!(tail_percentile(20, 99.0), Some(50.0));
    assert_eq!(tail_percentile(19, 99.0), None);
}

#[test]
fn shard_imbalance_under_round_robin() {
    assert_eq!(shard_imbalance(&[1.0, 1.0, 1.0, 1.0], 2), 1.0);
    // Loads: worker 0 gets 3 + 1, worker 1 gets 1 + 1; mean 3.
    assert!(close(shard_imbalance(&[3.0, 1.0, 1.0, 1.0], 2), 4.0 / 3.0));
    // One item on two workers: all the load on one, ceiling = workers.
    assert_eq!(shard_imbalance(&[5.0], 2), 2.0);
    assert_eq!(shard_imbalance(&[2.0, 9.0], 1), 1.0);
    assert_eq!(shard_imbalance(&[0.0, 0.0], 2), 1.0);
}

fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
    Span { name: "x", start_ns: start, end_ns: end, parent }
}

#[test]
fn self_time_subtracts_covered_child_interval_once() {
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),  // overlaps the first child
        span(25, 40, Some(2)),  // grandchild: not subtracted from the root
        span(90, 120, Some(0)), // overruns the parent: clipped to 90..100
    ];
    assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 30 - 15, 15, 30]);
}

#[test]
fn tracer_nests_spans_and_disabled_records_nothing() {
    let mut tr = Tracer::new(true);
    let outer = tr.open("outer");
    let v = tr.span("inner", || 42);
    tr.close(outer);
    assert_eq!(v, 42);
    let s = tr.spans();
    assert_eq!((s[0].name, s[0].parent), ("outer", None));
    assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    assert!(tr.to_json().contains("\"name\":\"inner\""));

    let mut off = Tracer::new(false);
    let id = off.open("outer");
    off.close(id);
    assert!(off.spans().is_empty());
}

#[test]
fn stat_parser_skips_command_names_with_spaces_and_parens() {
    let stat = "1234 (my (odd) cmd) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 99 1000 200";
    assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
    assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    assert_eq!(parse_stat_cpu_ticks("no parens"), None);
}

#[test]
fn status_parser_matches_the_whole_key() {
    let status = "Name:\tbench\nVmPeak:\t  100 kB\nVmHWMX:\t 7 kB\nVmHWM:\t    2048 kB\n";
    assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
    assert_eq!(parse_status_kb(status, "VmPeak"), Some(100));
    assert_eq!(parse_status_kb(status, "VmRSS"), None);
}

#[test]
fn live_proc_readings_are_sane() {
    assert!(cpu_seconds() >= 0.0);
    assert!(peak_rss_mb() > 0.0);
}

#[test]
fn cpuinfo_and_git_head_parsers() {
    let info = "processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\n\nprocessor\t: 1\n";
    assert_eq!(cpu_model(info), Some("Some CPU @ 2.0GHz"));
    assert_eq!(cpu_model("processor : 0"), None);

    let git = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fake-git");
    let _ = std::fs::remove_dir_all(&git);
    std::fs::create_dir_all(git.join("refs/heads")).unwrap();
    std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
    std::fs::write(git.join("packed-refs"), "# pack-refs\nabc123 refs/heads/main\n").unwrap();
    assert_eq!(git_commit(&git).as_deref(), Some("abc123"));
    std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
    assert_eq!(git_commit(&git).as_deref(), Some("def456"));
    std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
    assert_eq!(git_commit(&git).as_deref(), Some("0123abcd"));
    assert_eq!(git_commit(&git.join("missing")), None);
}

#[test]
fn fnv1a_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn result_line_lists_every_metric_of_its_kind() {
    let mut r = Report::default();
    for (name, _) in END_TO_END {
        r.set(name, 1.5);
    }
    r.check(true);
    let line = r.render(false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "), "{line}");
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}")));
    }
    // Layers a workload does not exercise read 0.
    let traced = r.render(true);
    for (name, _) in PER_LAYER {
        assert!(traced.contains(&format!("\"{name}\": {{\"value\": 0,")), "{name}");
    }
    r.check(false);
    assert!(r.render(false).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

/// The names in `BENCHMARK.json`, in file order.
fn declared_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_prints() {
    let expected: Vec<String> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .map(str::to_string)
        .collect();
    assert_eq!(declared_names(), expected);
}
