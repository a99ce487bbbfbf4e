//! End-to-end benchmark of the APE-CACHE reproduction.
//!
//! One command runs one of four workloads through the public `apecache`
//! API and prints every end-to-end metric by name and unit, or, with
//! tracing on, every per-layer metric; it also checks the outputs. See
//! `README.md` in this directory for the workloads, the metrics and how to
//! read the traced output.

pub mod probe;
pub mod spans;
pub mod workload;

use std::fmt::Write as _;

use ape_proto::names;
use ape_simnet::{Fingerprint, ProfCategory};

pub use workload::{Outcome, Workload};

/// A metric's name and value.
pub type Metric = (&'static str, f64);

/// A declared metric's name and unit.
pub type Declared = (&'static str, &'static str);

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [Declared; 11] = [
    ("setup_s", "s"),
    ("fetches_per_probe", "fetches/probe"),
    ("peak_rss_mb", "MB"),
    ("app_p50_ms", "ms"),
    ("app_p99_ms", "ms"),
    ("object_ms", "ms"),
    ("hit_ratio", "ratio"),
    ("ap_layer_hit_ratio", "ratio"),
    ("ap_cpu_mean", "ratio"),
    ("ap_mem_mb", "MB"),
    ("success_share", "ratio"),
];

/// Per-layer metrics from the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [Declared; 48] = [
    ("appdag.suite_s", "s"),
    ("core.build_s", "s"),
    ("simnet.run_s", "s"),
    ("core.collect_s", "s"),
    ("core.summary_s", "s"),
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.link_fault.ns_per_call", "ns"),
    ("simnet.link_fault.calls", "count"),
    ("simnet.queue_pop.ns_per_call", "ns"),
    ("simnet.metrics.ns_per_call", "ns"),
    ("simnet.metrics.calls", "count"),
    ("simnet.shard_barrier.ns", "ns"),
    ("simnet.shard_barrier.calls", "count"),
    ("simnet.barrier_wait_fraction", "ratio"),
    ("simnet.mailbox_drain.ns_per_call", "ns"),
    ("simnet.net_messages", "count"),
    ("simnet.net_bytes", "bytes"),
    ("simnet.net_dropped", "count"),
    ("cachealg.evict.ns_per_call", "ns"),
    ("cachealg.evict.calls", "count"),
    ("cachealg.solver_runs", "count"),
    ("cachealg.dp_runs", "count"),
    ("cachealg.greedy_runs", "count"),
    ("cachealg.evicted_items", "count"),
    ("cachealg.evictions_per_admission", "ratio"),
    ("nodes.dispatch_self.ns_per_event", "ns"),
    ("nodes.ap.cache_hits", "count"),
    ("nodes.ap.delegations", "count"),
    ("nodes.ap.short_circuits", "count"),
    ("nodes.edge.origin_fetches", "count"),
    ("nodes.ap.peer_fetches", "count"),
    ("nodes.ap.peer_hits", "count"),
    ("nodes.ap.peer_hit_ratio", "ratio"),
    ("nodes.client.roams", "count"),
    ("nodes.client.dns_retries", "count"),
    ("nodes.client.http_retries", "count"),
    ("nodes.ap.dns_upstream_retries", "count"),
    ("nodes.ap.delegation_retries", "count"),
    ("nodes.client.lookup_ms", "ms"),
    ("nodes.client.retrieval_hit_ms", "ms"),
    ("nodes.client.retrieval_edge_ms", "ms"),
    ("nodes.ap.delegation_fetch_ms", "ms"),
    ("bench.untraced_loop_s", "s"),
    ("bench.traced_loop_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.fetches_per_s", "fetches/s"),
    ("bench.probe_s", "s"),
];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of cacheable demand the AP tier absorbs before the edge:
/// `(home hits + peer hits) / (home hits + delegations)`.
pub fn ap_layer_hit_ratio(cache_hits: u64, peer_hits: u64, delegations: u64) -> f64 {
    ratio(cache_hits + peer_hits, cache_hits + delegations)
}

/// Failed fetches over fetches.
pub fn fail_share(failures: u64, fetches: u64) -> f64 {
    ratio(failures, fetches)
}

/// Fetches that succeeded over fetches: `1 - fail_share`, reported in its
/// place because a metric that reads 0 on every run has no spread to
/// bound.
pub fn success_share(failures: u64, fetches: u64) -> f64 {
    1.0 - fail_share(failures, fetches)
}

/// Whether the `percent`-th percentile of `samples` values has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn percentile_resolved(percent: u64, samples: u64) -> bool {
    assert!(percent < 100, "percentile {percent} out of range");
    samples * (100 - percent) >= MIN_TAIL_SAMPLES * 100
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib as f64 * 1024.0 / 1e6
}

/// Host measurements of one timed pass's loop.
#[derive(Debug, Clone, Copy)]
pub struct Loop {
    /// Client fetches the pass made.
    pub fetches: u64,
    /// Host seconds in `run_for`, `collect` and `summary`.
    pub loop_s: f64,
    /// Mean host seconds of the probe runs made between the pass's steps.
    pub probe_s: f64,
}

impl Loop {
    /// The loop of pass `outcome`, run with `probe` between its steps.
    pub fn new(outcome: &Outcome, probe: &probe::Probe) -> Loop {
        Loop {
            fetches: outcome.counter(names::CLIENT_FETCHES),
            loop_s: outcome.loop_s,
            probe_s: probe.mean_s(),
        }
    }

    /// Client fetches per host second.
    pub fn fetches_per_s(&self) -> f64 {
        self.fetches as f64 / self.loop_s
    }

    /// Client fetches per probe run's worth of host time: the pass's
    /// throughput over the probe's speed beside it, which cancels most of
    /// the shared host's drift (see [`probe`]).
    pub fn fetches_per_probe(&self) -> f64 {
        self.fetches_per_s() * self.probe_s
    }
}

/// Host measurements of one run: one set-up time per set-up and one
/// [`Loop`] per untraced pass.
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// Host seconds of each timed set-up.
    pub setups: Vec<f64>,
    /// Each untraced pass's loop.
    pub loops: Vec<Loop>,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, in [`END_TO_END`] order: host figures from
/// `host` (medians), simulated figures from `outcome`.
pub fn end_to_end(host: &HostTimes, outcome: &Outcome) -> Vec<Metric> {
    let rates: Vec<f64> = host.loops.iter().map(Loop::fetches_per_probe).collect();
    let s = &outcome.summary;
    let fetches = outcome.counter(names::CLIENT_FETCHES);
    let values = [
        median(&host.setups),
        median(&rates),
        host.peak_rss_mb,
        s.app_latency_p50_ms,
        s.app_latency_p99_ms,
        s.object_level_ms,
        s.hit_ratio,
        ap_layer_hit_ratio(
            outcome.counter(names::AP_CACHE_HITS),
            outcome.counter(names::AP_PEER_HITS),
            outcome.counter(names::AP_DELEGATIONS),
        ),
        outcome.ap_cpu_mean,
        s.ape_mem_mb_max,
        success_share(outcome.counter(names::CLIENT_FETCH_FAILURES), fetches),
    ];
    END_TO_END.iter().map(|&(n, _)| n).zip(values).collect()
}

/// Host nanoseconds per profiled call of `category` (0 when never called).
fn ns_per_call(outcome: &Outcome, category: ProfCategory) -> f64 {
    let p = &outcome.profile;
    if p.calls(category) == 0 {
        0.0
    } else {
        p.nanos(category) as f64 / p.calls(category) as f64
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order, from a profiled pass
/// and the untraced pass it repeats, which ran with the probe as `probed`.
pub fn per_layer(traced: &Outcome, untraced: &Outcome, probed: &Loop) -> Vec<Metric> {
    let c = |name| traced.counter(name) as f64;
    let p = &traced.profile;
    let dispatches = p.calls(ProfCategory::Dispatch);
    let values = [
        traced.suite_s,
        traced.build_s,
        traced.run_s,
        traced.collect_s,
        traced.summary_s,
        traced.fingerprint.events as f64,
        traced.run_s * 1e9 / traced.fingerprint.events.max(1) as f64,
        ns_per_call(traced, ProfCategory::LinkFault),
        p.calls(ProfCategory::LinkFault) as f64,
        ns_per_call(traced, ProfCategory::QueuePop),
        ns_per_call(traced, ProfCategory::Metrics),
        p.calls(ProfCategory::Metrics) as f64,
        p.nanos(ProfCategory::ShardBarrier) as f64,
        p.calls(ProfCategory::ShardBarrier) as f64,
        p.barrier_wait_fraction(),
        ns_per_call(traced, ProfCategory::MailboxDrain),
        c(names::NET_MESSAGES),
        c(names::NET_BYTES),
        c(names::NET_DROPPED),
        ns_per_call(traced, ProfCategory::Evict),
        p.calls(ProfCategory::Evict) as f64,
        c(names::AP_EVICT_SOLVER_RUNS),
        c(names::AP_EVICT_DP_RUNS),
        c(names::AP_EVICT_GREEDY_RUNS),
        c(names::AP_EVICTIONS),
        ratio(
            traced.counter(names::AP_EVICTIONS),
            traced.counter(names::AP_ADMISSIONS),
        ),
        if dispatches == 0 {
            0.0
        } else {
            p.dispatch_self_nanos() as f64 / dispatches as f64
        },
        c(names::AP_CACHE_HITS),
        c(names::AP_DELEGATIONS),
        c(names::AP_SHORT_CIRCUITS),
        c(names::EDGE_ORIGIN_FETCHES),
        c(names::AP_PEER_FETCHES),
        c(names::AP_PEER_HITS),
        ratio(
            traced.counter(names::AP_PEER_HITS),
            traced.counter(names::AP_PEER_FETCHES),
        ),
        c(names::CLIENT_ROAMS),
        c(names::CLIENT_DNS_RETRIES),
        c(names::CLIENT_HTTP_RETRIES),
        c(names::AP_DNS_UPSTREAM_RETRIES),
        c(names::AP_DELEGATION_RETRIES),
        traced.summary.lookup_ms,
        traced.summary.retrieval_hit_ms,
        traced.summary.retrieval_edge_ms,
        traced.delegation_fetch_ms,
        untraced.loop_s,
        traced.loop_s,
        traced.loop_s - untraced.loop_s,
        probed.fetches_per_s(),
        probed.probe_s,
    ];
    PER_LAYER.iter().map(|&(n, _)| n).zip(values).collect()
}

/// Output checks that hold for every pass of `workload`, traced or not.
/// Each failed check is one message; an empty list means all passed.
pub fn check_outcome(workload: Workload, o: &Outcome) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed.push(format!("{}: {what}", workload.name()));
        }
    };
    let s = &o.summary;
    check(s.executions > 0, "no app execution completed".into());
    check(
        percentile_resolved(99, o.app_samples),
        format!("{} app-latency samples cannot resolve p99", o.app_samples),
    );
    let failures = o.counter(names::CLIENT_FETCH_FAILURES);
    check(
        failures == 0,
        format!("{failures} fetches failed on a lossless workload"),
    );
    // Peer fetches still in flight when the run stops have not resolved.
    check(
        o.counter(names::AP_PEER_HITS) + o.counter(names::AP_PEER_MISSES)
            <= o.counter(names::AP_PEER_FETCHES),
        "more peer fetches resolved than were sent".into(),
    );
    let evictions = o.counter(names::AP_EVICTIONS);
    let roams = o.counter(names::CLIENT_ROAMS);
    let peer_hits = o.counter(names::AP_PEER_HITS);
    match workload {
        Workload::PaperHit => {
            check(
                evictions == 0,
                format!("{evictions} evictions with a cache that fits the suite"),
            );
        }
        Workload::PaperEvict => check(evictions > 0, "the 5 MB cache never evicted".into()),
        Workload::City | Workload::CitySharded => {
            check(roams > 0, "no client roamed".into());
            check(peer_hits > 0, "no peer hit on a cooperative grid".into());
        }
    }
    failed
}

/// Fingerprint as one hex string: clock, events, metrics digest, trace
/// digest.
pub fn fingerprint_hex(fp: &Fingerprint) -> String {
    format!(
        "{:016x}-{:016x}-{:016x}-{:016x}",
        fp.clock_ns, fp.events, fp.metrics, fp.trace
    )
}

/// A finite number as JSON (Rust's shortest round-trip decimal form).
pub fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    format!("{value}")
}

/// `{"name": {"value": v, "unit": u}, ...}` for `metrics`, whose names and
/// order must be exactly those of `declared`.
pub fn metrics_json(metrics: &[Metric], declared: &[Declared]) -> String {
    assert_eq!(
        metrics.len(),
        declared.len(),
        "metric count differs from declaration"
    );
    let mut out = String::from("{");
    for (i, (&(name, value), &(decl, unit))) in metrics.iter().zip(declared).enumerate() {
        assert_eq!(name, decl, "metric emitted out of declaration order");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push('}');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}
