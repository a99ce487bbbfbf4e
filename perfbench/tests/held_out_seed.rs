//! Every workload, run briefly on a seed other than the one the workloads
//! were sized with, still meets its output checks: the workloads are not
//! tuned to one seed.

use ape_simnet::ProfCategory;
use apecache_perfbench::spans::Spans;
use apecache_perfbench::workload::{pass, reference_fingerprint};
use apecache_perfbench::{check_outcome, Workload};

const HELD_OUT_SEED: u64 = 7;

/// Chunks per brief pass: an hour on the paper testbed; 90 s on a city
/// grid, past the first 60 s summary window so gossip has produced peer
/// hits.
fn brief(workload: Workload) -> u32 {
    match workload {
        Workload::PaperHit | Workload::PaperEvict => 2,
        Workload::City | Workload::CitySharded => 3,
    }
}

fn assert_checks_pass(workload: Workload, profiler: bool) -> apecache_perfbench::Outcome {
    let mut spans = Spans::new();
    let outcome = pass(
        workload,
        HELD_OUT_SEED,
        brief(workload),
        profiler,
        &mut spans,
        None,
    );
    let failed = check_outcome(workload, &outcome);
    assert!(failed.is_empty(), "{failed:?}");
    outcome
}

#[test]
fn paper_hit_on_a_held_out_seed() {
    assert_checks_pass(Workload::PaperHit, false);
}

#[test]
fn paper_evict_on_a_held_out_seed() {
    assert_checks_pass(Workload::PaperEvict, false);
}

#[test]
fn city_on_a_held_out_seed() {
    assert_checks_pass(Workload::City, false);
}

#[test]
fn city_sharded_on_a_held_out_seed_matches_one_shard_and_its_traced_run() {
    let w = Workload::CitySharded;
    let untraced = assert_checks_pass(w, false);
    let traced = assert_checks_pass(w, true);
    assert_eq!(traced.fingerprint, untraced.fingerprint);
    assert!(traced.profile.calls(ProfCategory::ShardBarrier) > 0);
    assert!(traced.profile.calls(ProfCategory::MailboxDrain) > 0);
    assert_eq!(untraced.profile.calls(ProfCategory::ShardBarrier), 0);
    let reference =
        reference_fingerprint(w, HELD_OUT_SEED, brief(w)).expect("city_sharded splits the world");
    assert_eq!(reference, untraced.fingerprint);
}
