//! Metric arithmetic, result formatting, and agreement between the names
//! the benchmark emits and the names `BENCHMARK.json` declares.

use apecache_perfbench::probe::Probe;
use apecache_perfbench::spans::Spans;
use apecache_perfbench::{
    ap_layer_hit_ratio, fail_share, median, metrics_json, percentile_resolved, result_line,
    success_share, Loop, Workload, END_TO_END, PER_LAYER,
};

#[test]
fn ap_layer_hit_ratio_handles_zero_demand() {
    assert_eq!(ap_layer_hit_ratio(0, 0, 0), 0.0);
    // Peer hits without any demand cannot happen; the ratio stays defined.
    assert_eq!(ap_layer_hit_ratio(0, 3, 0), 0.0);
    assert_eq!(ap_layer_hit_ratio(2, 0, 2), 0.5);
    // Peer hits count as AP-tier hits; delegations are the demand they
    // served.
    assert_eq!(ap_layer_hit_ratio(2, 1, 2), 0.75);
}

#[test]
fn fail_share_handles_zero_fetches() {
    assert_eq!(fail_share(0, 0), 0.0);
    assert_eq!(success_share(0, 0), 1.0);
    assert_eq!(fail_share(1, 4), 0.25);
    assert_eq!(success_share(1, 4), 0.75);
    assert_eq!(success_share(0, 10), 1.0);
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    assert!(!percentile_resolved(99, 999));
    assert!(percentile_resolved(99, 1000));
    assert!(!percentile_resolved(50, 19));
    assert!(percentile_resolved(50, 20));
    assert!(!percentile_resolved(99, 0));
}

#[test]
#[should_panic(expected = "out of range")]
fn percentile_100_is_rejected() {
    percentile_resolved(100, 1_000_000);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn fetches_per_probe_is_throughput_times_probe_time() {
    let l = Loop {
        fetches: 1000,
        loop_s: 2.0,
        probe_s: 0.05,
    };
    assert_eq!(l.fetches_per_s(), 500.0);
    assert_eq!(l.fetches_per_probe(), 25.0);
    // A host half as fast doubles both times; the quotient stays.
    let slow = Loop {
        loop_s: 4.0,
        probe_s: 0.1,
        ..l
    };
    assert_eq!(slow.fetches_per_probe(), l.fetches_per_probe());
}

#[test]
fn probe_times_every_run() {
    let mut probe = Probe::default();
    probe.run();
    probe.run();
    assert_eq!(probe.runs, 2);
    assert!(probe.seconds > 0.0);
    assert_eq!(probe.mean_s(), probe.seconds / 2.0);
}

#[test]
#[should_panic(expected = "never ran")]
fn unrun_probe_has_no_mean() {
    Probe::default().mean_s();
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let metrics = [("setup_s", 0.5)];
    let line = result_line(true, 10, 0, &metrics_json(&metrics, &[("setup_s", "s")]));
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
    );
}

#[test]
#[should_panic(expected = "declaration order")]
fn metrics_out_of_declared_order_are_rejected() {
    metrics_json(&[("b", 1.0), ("a", 2.0)], &[("a", "s"), ("b", "s")]);
}

#[test]
#[should_panic(expected = "non-finite")]
fn non_finite_values_are_rejected() {
    metrics_json(&[("a", f64::NAN)], &[("a", "s")]);
}

#[test]
fn span_self_time_excludes_children() {
    let mut spans = Spans::new();
    let root = spans.open("root", None);
    let child = spans.open("child", Some(root));
    std::thread::sleep(std::time::Duration::from_millis(2));
    spans.close(child);
    spans.close(root);
    let all = spans.all();
    assert_eq!(all[1].parent, Some(0));
    let root_ns = spans.end_ns(root) - spans.start_ns(root);
    let child_ns = spans.end_ns(child) - spans.start_ns(child);
    assert_eq!(spans.self_ns(0), root_ns - child_ns);
    assert_eq!(spans.self_ns(1), child_ns);
}

/// `(name, unit)` pairs of the objects in the JSON array under `key`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    let field = |obj: &str, name: &str| -> String {
        let at = obj
            .find(&format!("\"{name}\""))
            .unwrap_or_else(|| panic!("object {obj} has no {name}"));
        let rest = &obj[at + name.len() + 2..];
        let value = &rest[rest.find('"').expect("string value") + 1..];
        value[..value.find('"').expect("string ends")].to_owned()
    };
    json[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| {
            let unit = if obj.contains("\"unit\"") {
                field(obj, "unit")
            } else {
                String::new()
            };
            (field(obj, "name"), unit)
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn emitted_names_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::City)
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("nope"), None);
}
