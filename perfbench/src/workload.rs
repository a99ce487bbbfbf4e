//! The four benchmark workloads and one timed pass over a workload.
//!
//! Load is open-loop: each pass installs an execution schedule (Zipf 0.8
//! app popularity, Poisson arrivals) fixed at build time from the seed,
//! whatever the completion times turn out to be. Host-side a pass is a
//! batch job: set up, run the schedule to its end, collect, summarize.

use std::collections::BTreeMap;

use ape_appdag::{AppSpec, DummyAppConfig};
use ape_proto::names;
use ape_simnet::{Fingerprint, ProfileReport, SimDuration, TimeSeries};
use ape_workload::ScheduleConfig;
use apecache::{
    build, build_topology_sharded, collect, collect_topology_sharded, paper_suite, synthetic_suite,
    RunResult, ShardedTopology, Summary, System, Testbed, TestbedConfig, TopologyConfig,
};

use crate::probe::Probe;
use crate::spans::{SpanId, Spans};

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 testbed, AP cache larger than the whole suite: the read path
    /// (DNS-Cache hit serving, client runtime, links and queue); PACM idle.
    PaperHit,
    /// Fig. 9 testbed, the paper's 5 MB AP cache: the write path, about
    /// one PACM knapsack solve per execution.
    PaperEvict,
    /// 256-AP cooperative grid with roaming on one shard: per-send cost
    /// that grows with scale, gossip, peer fetch and roaming. Not in
    /// `BENCHMARK.json`: it runs untimed in every `CitySharded` run, as
    /// the reference that run's fingerprint must equal.
    City,
    /// The city world split into 2 shards, run on one thread: epoch
    /// barriers and mailbox drains. Its fingerprint must equal `City`'s.
    CitySharded,
}

/// How a workload's world is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// The single-AP testbed through [`apecache::build`].
    Paper {
        /// AP cache capacity, bytes.
        ap_cache: u64,
    },
    /// A multi-AP grid through [`apecache::build_topology_sharded`].
    City {
        /// APs in the grid.
        aps: usize,
        /// Shards the world is split into, all run on one thread.
        shards: u32,
    },
}

/// Seed of the app suites. A suite drawn per run seed would move the
/// simulated figures by the suite's make-up (object sizes, DAG depth) as
/// much as by the traffic, and those are what the benchmark compares.
const SUITE_SEED: u64 = 42;

/// App executions per app per minute on the paper testbed (the paper's
/// default rate).
const PAPER_RATE: f64 = 3.0;
/// Clients on the paper testbed: 2 phones and 1 emulator host.
const PAPER_CLIENTS: usize = 3;
/// An AP cache far above the paper suite's cacheable bytes, so nothing is
/// ever evicted.
const PAPER_HIT_CACHE: u64 = 1_000_000_000;
/// The paper's default AP cache.
const PAPER_EVICT_CACHE: u64 = 5_000_000;

/// APs in the city grid. At 64 APs the app-latency p99 of one 180 s run
/// has too few samples to stay put from seed to seed.
const CITY_APS: usize = 256;
/// Apps in the city suite.
const CITY_APPS: usize = 5;
/// Executions per app per minute at each city AP.
const CITY_RATE: f64 = 10.0;
/// Clients homed at each city AP.
const CITY_CLIENTS_PER_AP: usize = 2;
/// City AP cache: far below the suite's working set, so misses and
/// therefore cooperation stay relevant for the whole run.
const CITY_CACHE: u64 = 400_000;
/// Roams per client per minute.
const CITY_ROAM: f64 = 6.0;

impl Workload {
    /// Every workload that `--workload` accepts; `BENCHMARK.json` lists
    /// all but `City`, in this order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperHit,
        Workload::PaperEvict,
        Workload::City,
        Workload::CitySharded,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHit => "paper_hit",
            Workload::PaperEvict => "paper_evict",
            Workload::City => "city",
            Workload::CitySharded => "city_sharded",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the world is built.
    fn shape(self) -> Shape {
        match self {
            Workload::PaperHit => Shape::Paper {
                ap_cache: PAPER_HIT_CACHE,
            },
            Workload::PaperEvict => Shape::Paper {
                ap_cache: PAPER_EVICT_CACHE,
            },
            Workload::City => Shape::City {
                aps: CITY_APS,
                shards: 1,
            },
            Workload::CitySharded => Shape::City {
                aps: CITY_APS,
                shards: 2,
            },
        }
    }

    /// One pass's simulated span, as a `run_for` chunk length and the
    /// number of chunks. Chunks are long enough that the per-call cost of
    /// `run_for` (a thread spawn per call on a threaded world) stays small.
    pub fn chunks(self) -> (SimDuration, u32) {
        match self {
            Workload::PaperHit => (SimDuration::from_mins(30), 8),
            Workload::PaperEvict => (SimDuration::from_mins(30), 8),
            Workload::City | Workload::CitySharded => (SimDuration::from_secs(30), 6),
        }
    }

    /// The app suite. It is the same for every seed: the apps installed
    /// are part of the deployment, while `--seed` draws the traffic
    /// (schedule, roams, link jitter) through `TestbedConfig::seed`.
    pub fn suite(self) -> Vec<AppSpec> {
        let dummy = DummyAppConfig::default();
        match self.shape() {
            Shape::Paper { .. } => paper_suite(&dummy, SUITE_SEED),
            Shape::City { .. } => synthetic_suite(CITY_APPS, &dummy, SUITE_SEED),
        }
    }

    /// The workload that runs the same world on one shard, for a workload
    /// that splits it: their fingerprints must be equal.
    pub fn reference(self) -> Option<Workload> {
        match self {
            Workload::CitySharded => Some(Workload::City),
            _ => None,
        }
    }
}

/// A built world of either shape.
enum Bed {
    Paper(Box<Testbed>),
    City(Box<ShardedTopology>),
}

impl Bed {
    fn build(
        shape: Shape,
        apps: Vec<AppSpec>,
        seed: u64,
        span: SimDuration,
        profiler: bool,
    ) -> Bed {
        let mut base = TestbedConfig::new(System::ApeCache, apps);
        base.seed = seed;
        base.profiler = profiler;
        match shape {
            Shape::Paper { ap_cache } => {
                base.clients = PAPER_CLIENTS;
                base.ap.cache_capacity = ap_cache;
                base.schedule = ScheduleConfig {
                    apps: base.apps.len(),
                    avg_per_minute: PAPER_RATE,
                    zipf_exponent: 0.8,
                    duration: span,
                };
                Bed::Paper(Box::new(build(&base)))
            }
            Shape::City { aps, shards } => {
                base.ap.cache_capacity = CITY_CACHE;
                base.schedule = ScheduleConfig {
                    apps: base.apps.len(),
                    avg_per_minute: CITY_RATE,
                    zipf_exponent: 0.8,
                    duration: span,
                };
                let config = TopologyConfig::new(base, aps)
                    .with_clients_per_ap(CITY_CLIENTS_PER_AP)
                    .with_roam_rate(CITY_ROAM);
                Bed::City(Box::new(build_topology_sharded(&config, shards)))
            }
        }
    }

    fn run_for(&mut self, span: SimDuration) {
        match self {
            Bed::Paper(bed) => {
                bed.world.run_for(span);
            }
            Bed::City(top) => {
                top.world.run_for(span);
            }
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        match self {
            Bed::Paper(bed) => bed.world.fingerprint(),
            Bed::City(top) => top.world.fingerprint(),
        }
    }

    fn collect(&mut self) -> RunResult {
        match self {
            Bed::Paper(bed) => collect(System::ApeCache, bed),
            Bed::City(top) => collect_topology_sharded(System::ApeCache, top),
        }
    }
}

/// Counters kept from a pass's metric registry.
const COUNTERS: [&str; 22] = [
    names::CLIENT_FETCHES,
    names::CLIENT_FETCH_FAILURES,
    names::CLIENT_ROAMS,
    names::CLIENT_DNS_RETRIES,
    names::CLIENT_HTTP_RETRIES,
    names::AP_CACHE_HITS,
    names::AP_DELEGATIONS,
    names::AP_SHORT_CIRCUITS,
    names::AP_PEER_FETCHES,
    names::AP_PEER_HITS,
    names::AP_PEER_MISSES,
    names::AP_DNS_UPSTREAM_RETRIES,
    names::AP_DELEGATION_RETRIES,
    names::AP_ADMISSIONS,
    names::AP_EVICTIONS,
    names::AP_EVICT_SOLVER_RUNS,
    names::AP_EVICT_DP_RUNS,
    names::AP_EVICT_GREEDY_RUNS,
    names::EDGE_ORIGIN_FETCHES,
    names::NET_MESSAGES,
    names::NET_BYTES,
    names::NET_DROPPED,
];

/// What one pass produced: its host timings, its deterministic outputs
/// and the parts of the metric registry the benchmark reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The world's fingerprint after the run.
    pub fingerprint: Fingerprint,
    /// Simulated span run, seconds.
    pub sim_span_s: f64,
    /// Host seconds generating the app suite.
    pub suite_s: f64,
    /// Host seconds building the world.
    pub build_s: f64,
    /// Host seconds inside `run_for`, all chunks (probe runs excluded).
    pub run_s: f64,
    /// Host seconds in `collect`.
    pub collect_s: f64,
    /// Host seconds in `summary`.
    pub summary_s: f64,
    /// Host seconds in `run_for`, `collect` and `summary` together.
    pub loop_s: f64,
    /// The run's headline summary.
    pub summary: Summary,
    /// App-latency samples behind the summary's percentiles.
    pub app_samples: u64,
    /// Mean of every `ap.cpu` sample, 0..1. Every AP samples once per
    /// simulated second, so equal weights are time weights. On a grid all
    /// APs write one series, whose time-weighted mean
    /// (`Summary::ap_cpu_mean`) weighs only the samples next to each
    /// one-second gap.
    pub ap_cpu_mean: f64,
    /// Mean upstream fetch time of delegated objects, ms (simulated).
    pub delegation_fetch_ms: f64,
    /// Counters from [`COUNTERS`], by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// The sim-loop self-profiler's attribution (all zero unless on).
    pub profile: ProfileReport,
}

impl Outcome {
    /// Counter `name`, which must be one of the kept [`COUNTERS`].
    pub fn counter(&self, name: &str) -> u64 {
        *self
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} is not kept"))
    }
}

/// Generates the suite and builds the world under `parent`, returning the
/// world and the two host timings.
fn setup(
    workload: Workload,
    seed: u64,
    span: SimDuration,
    profiler: bool,
    spans: &mut Spans,
    parent: SpanId,
) -> (Bed, f64, f64) {
    let suite = spans.open("suite", Some(parent));
    let apps = workload.suite();
    spans.close(suite);
    let build = spans.open("build", Some(parent));
    let bed = Bed::build(workload.shape(), apps, seed, span, profiler);
    spans.close(build);
    (bed, spans.seconds(suite), spans.seconds(build))
}

/// Times set-up alone: suite generation plus world build. The world is
/// dropped outside the span.
pub fn setup_only(workload: Workload, seed: u64, spans: &mut Spans) -> f64 {
    let (chunk, chunks) = workload.chunks();
    let root = spans.open(format!("{}/setup", workload.name()), None);
    let (bed, suite_s, build_s) = setup(
        workload,
        seed,
        chunk * u64::from(chunks),
        false,
        spans,
        root,
    );
    spans.close(root);
    drop(bed);
    suite_s + build_s
}

/// Runs the workload's one-shard [`reference`](Workload::reference) over
/// the same chunks and returns its fingerprint; `None` for a workload that
/// runs on one shard anyway.
pub fn reference_fingerprint(workload: Workload, seed: u64, chunks: u32) -> Option<Fingerprint> {
    let reference = workload.reference()?;
    Some(pass(reference, seed, chunks, false, &mut Spans::new(), None).fingerprint)
}

/// Runs one pass of `workload` over its first `chunks` chunks: suite →
/// build → `run_for` per chunk → collect → summary, each in a span under
/// one root span. With a `probe`, the probe runs before each chunk and
/// after the summary, in `probe` spans outside the timed steps.
pub fn pass(
    workload: Workload,
    seed: u64,
    chunks: u32,
    profiler: bool,
    spans: &mut Spans,
    mut probe: Option<&mut Probe>,
) -> Outcome {
    let (chunk, _) = workload.chunks();
    let span = chunk * u64::from(chunks);
    let label = if profiler { "/profiled" } else { "" };
    let root = spans.open(format!("{}{label}", workload.name()), None);
    let (mut bed, suite_s, build_s) = setup(workload, seed, span, profiler, spans, root);
    let mut run_probe = |spans: &mut Spans, parent| {
        if let Some(probe) = probe.as_deref_mut() {
            spans.time("probe", Some(parent), || probe.run());
        }
    };

    let run = spans.open("run", Some(root));
    let mut run_s = 0.0;
    for _ in 0..chunks {
        run_probe(spans, run);
        let id = spans.open("run_for", Some(run));
        bed.run_for(chunk);
        spans.close(id);
        run_s += spans.seconds(id);
    }
    spans.close(run);
    let collect = spans.open("collect", Some(root));
    let mut result = bed.collect();
    spans.close(collect);
    let summary_span = spans.open("summary", Some(root));
    let summary = result.summary();
    spans.close(summary_span);
    run_probe(spans, root);
    spans.close(root);

    let fingerprint = bed.fingerprint();
    drop(bed);
    let metrics = &result.metrics;
    Outcome {
        fingerprint,
        sim_span_s: span.as_secs_f64(),
        suite_s,
        build_s,
        run_s,
        collect_s: spans.seconds(collect),
        summary_s: spans.seconds(summary_span),
        loop_s: run_s + spans.seconds(collect) + spans.seconds(summary_span),
        summary,
        app_samples: metrics
            .histogram(names::CLIENT_APP_LATENCY_MS)
            .map_or(0, |h| h.count() as u64),
        ap_cpu_mean: metrics
            .time_series(names::AP_CPU)
            .map_or(0.0, TimeSeries::mean),
        delegation_fetch_ms: metrics.mean(names::AP_DELEGATION_FETCH_MS),
        counters: COUNTERS.iter().map(|&n| (n, metrics.counter(n))).collect(),
        profile: result.profile.clone(),
    }
}
