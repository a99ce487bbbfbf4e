//! The sharded engine's headline contract, enforced on the full Fig. 9
//! testbed: partitioning a run over any number of shards — under any
//! tie-perturbation key — changes **nothing**. Fingerprints (clock, event
//! count, metric digest, trace digest), merged metric registries, and the
//! byte-for-byte merged trace stream must all be identical to the
//! single-shard run.
//!
//! A companion test proves the oracle is not vacuous: a world whose
//! lookahead is deliberately overclaimed produces a genuine cross-shard
//! interleaving bug, and `enable_shard_oracle` catches it.

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::{Fingerprint, SimDuration, TraceConfig, TraceEvent};
use ape_workload::ScheduleConfig;
use apecache::{
    build_sharded, build_topology_sharded, synthetic_suite, System, TestbedConfig, TopologyConfig,
};

/// Distinct nonzero tie-perturbation keys; `None` first for the FIFO path.
const PERTURBATIONS: [Option<u64>; 4] = [
    None,
    Some(0x5EED_F00D_0000_0001),
    Some(0x9E37_79B9_7F4A_7C15),
    Some(0xDEAD_BEEF_CAFE_F00D),
];

fn config(system: System, perturbation: Option<u64>) -> TestbedConfig {
    let apps = synthetic_suite(4, &DummyAppConfig::default(), 7);
    let mut config = TestbedConfig::new(system, apps);
    config.schedule = ScheduleConfig {
        apps: 4,
        ..ScheduleConfig::default()
    };
    config.clients = 6;
    config.tie_perturbation = perturbation;
    // Large capacity so the ring never drops events: the merged stream
    // must be byte-comparable, not merely digest-comparable.
    config.trace = TraceConfig {
        enabled: true,
        capacity: 1 << 16,
        sample_every: 1,
    };
    config
}

/// Runs the full testbed at `shards` shards and returns everything the
/// invariance contract covers.
fn run_at(
    system: System,
    perturbation: Option<u64>,
    shards: u32,
) -> (Fingerprint, u64, u64, Vec<TraceEvent>) {
    let mut bed = build_sharded(&config(system, perturbation), shards);
    bed.world.enable_shard_oracle();
    bed.world.run_for(SimDuration::from_secs(90));
    let metrics = bed.world.metrics().into_owned();
    let fetches = metrics.counter(names::CLIENT_FETCHES);
    let net = metrics.counter(names::NET_MESSAGES);
    (
        bed.world.fingerprint(),
        fetches,
        net,
        bed.world.take_trace_events(),
    )
}

/// Tentpole acceptance: shard counts {1, 2, 4, 8} × 4 perturbation keys,
/// all bitwise identical — fingerprints, headline counters, and the full
/// merged trace artifact.
#[test]
fn full_testbed_is_invariant_across_shard_counts_and_perturbations() {
    for &perturbation in &PERTURBATIONS {
        let (fp1, fetches1, net1, trace1) = run_at(System::ApeCache, perturbation, 1);
        assert!(fetches1 > 0, "workload must actually run");
        assert!(!trace1.is_empty(), "tracing must capture spans");
        for shards in [2u32, 4, 8] {
            let (fp, fetches, net, trace) = run_at(System::ApeCache, perturbation, shards);
            assert_eq!(
                fp, fp1,
                "fingerprint diverged at {shards} shards (perturbation {perturbation:?})"
            );
            assert_eq!(fetches, fetches1);
            assert_eq!(net, net1);
            assert_eq!(
                trace, trace1,
                "merged trace stream diverged at {shards} shards"
            );
        }
    }
}

/// The Wi-Cache topology adds the controller (and its cross-shard client
/// links); the invariance contract must hold there too.
#[test]
fn wicache_testbed_is_invariant_across_shard_counts() {
    let (fp1, fetches1, _, _) = run_at(System::WiCache, None, 1);
    assert!(fetches1 > 0);
    for shards in [2u32, 4] {
        let (fp, fetches, _, _) = run_at(System::WiCache, None, shards);
        assert_eq!(fp, fp1, "Wi-Cache fingerprint diverged at {shards} shards");
        assert_eq!(fetches, fetches1);
    }
}

/// Thread count is a pure execution detail: a multi-threaded epoch executor
/// must reproduce the sequential results bit for bit.
#[test]
fn thread_count_does_not_change_results() {
    let base = run_at(System::ApeCache, None, 4);
    let mut bed = build_sharded(&config(System::ApeCache, None), 4);
    bed.world.enable_shard_oracle();
    bed.world.set_threads(4);
    bed.world.run_for(SimDuration::from_secs(90));
    assert_eq!(bed.world.fingerprint(), base.0);
    assert_eq!(bed.world.take_trace_events(), base.3);
}

/// A roaming, cooperating 16-AP grid for the multi-AP invariance pins:
/// clients walk between APs mid-run, APs gossip summaries and peer-fetch,
/// so cross-shard traffic covers every new message kind.
fn topology_config(system: System, perturbation: Option<u64>) -> TopologyConfig {
    let mut base = config(system, perturbation);
    base.schedule.duration = SimDuration::from_mins(2);
    TopologyConfig::new(base, 16)
        .with_clients_per_ap(2)
        .with_roam_rate(1.5)
}

/// Runs the 16-AP topology at `shards` shards (optionally with a worker
/// pool) and returns everything the invariance contract covers.
fn run_topology_at(
    system: System,
    perturbation: Option<u64>,
    shards: u32,
    threads: usize,
) -> (Fingerprint, u64, u64, u64, Vec<TraceEvent>) {
    let mut top = build_topology_sharded(&topology_config(system, perturbation), shards);
    top.world.enable_shard_oracle();
    if threads > 1 {
        top.world.set_threads(threads);
    }
    top.world.run_for(SimDuration::from_secs(75));
    let metrics = top.world.metrics().into_owned();
    let fetches = metrics.counter(names::CLIENT_FETCHES);
    let roams = metrics.counter(names::CLIENT_ROAMS);
    let net = metrics.counter(names::NET_MESSAGES);
    (
        top.world.fingerprint(),
        fetches,
        roams,
        net,
        top.world.take_trace_events(),
    )
}

/// The 16-AP topology — roaming clients, summary gossip, peer fetches —
/// under shard counts {1, 2, 4, 8} × every perturbation key: fingerprints,
/// merged counters, and the byte-level merged trace stream all identical.
#[test]
fn sixteen_ap_topology_is_invariant_across_shards_and_perturbations() {
    for &perturbation in &PERTURBATIONS {
        let (fp1, fetches1, roams1, net1, trace1) =
            run_topology_at(System::ApeCache, perturbation, 1, 1);
        assert!(fetches1 > 0, "workload must actually run");
        assert!(roams1 > 0, "clients must actually roam");
        assert!(!trace1.is_empty(), "tracing must capture spans");
        for shards in [2u32, 4, 8] {
            let (fp, fetches, roams, net, trace) =
                run_topology_at(System::ApeCache, perturbation, shards, 1);
            assert_eq!(
                fp, fp1,
                "topology fingerprint diverged at {shards} shards (perturbation {perturbation:?})"
            );
            assert_eq!(fetches, fetches1);
            assert_eq!(roams, roams1);
            assert_eq!(net, net1);
            assert_eq!(
                trace, trace1,
                "merged topology trace diverged at {shards} shards"
            );
        }
    }
}

/// The Wi-Cache 16-AP topology adds the multi-holder controller and its
/// cross-shard client links; same contract.
#[test]
fn sixteen_ap_wicache_topology_is_invariant_across_shards() {
    let (fp1, fetches1, roams1, net1, trace1) = run_topology_at(System::WiCache, None, 1, 1);
    assert!(fetches1 > 0);
    assert!(roams1 > 0);
    for shards in [2u32, 4, 8] {
        let (fp, fetches, roams, net, trace) = run_topology_at(System::WiCache, None, shards, 1);
        assert_eq!(
            fp, fp1,
            "Wi-Cache topology fingerprint diverged at {shards} shards"
        );
        assert_eq!(fetches, fetches1);
        assert_eq!(roams, roams1);
        assert_eq!(net, net1);
        assert_eq!(trace, trace1);
    }
}

/// Thread count stays a pure execution detail on the multi-AP topology,
/// for both cache systems.
#[test]
fn topology_thread_count_does_not_change_results() {
    for system in [System::ApeCache, System::WiCache] {
        let sequential = run_topology_at(system, None, 4, 1);
        let threaded = run_topology_at(system, None, 4, 4);
        assert_eq!(
            threaded.0, sequential.0,
            "{system:?} topology fingerprint diverged under 4 threads"
        );
        assert_eq!(threaded.4, sequential.4, "{system:?} trace diverged");
    }
}

/// Oracle sensitivity: overclaiming the lookahead makes cross-shard
/// messages arrive inside an epoch that already executed past them. The
/// oracle must detect the stale delivery instead of silently producing a
/// different (non-deterministic) run.
#[test]
#[should_panic(expected = "shard oracle")]
fn oracle_fires_on_overclaimed_lookahead() {
    let mut bed = build_sharded(&config(System::ApeCache, None), 4);
    bed.world.enable_shard_oracle();
    // The real WiFi links floor the lookahead at 1.5 ms; claiming 500 ms
    // lets client shards race far ahead of the spine's replies.
    bed.world.override_lookahead(SimDuration::from_millis(500));
    bed.world.run_for(SimDuration::from_secs(90));
}
