//! `repro profile` — where the host CPU goes when the simulator runs.
//!
//! Runs the standard sweep workload for all four systems with the sim-loop
//! self-profiler on ([`World::enable_profiler`]
//! (ape_simnet::World::enable_profiler)) and renders each system's
//! host-time attribution table: queue pops, node dispatch, link/fault
//! resolution, trace recording, metric recording and cache eviction, with
//! the node callbacks' own logic computed by subtraction. This is the
//! ROADMAP item-2 instrument: before making the loop faster, see which
//! subsystem is actually paying for each simulated minute.
//!
//! A final section runs the default testbed through the sharded engine
//! (`DESIGN.md` §16) so the two coordination categories — `shard.barrier`
//! (idle wait at epoch barriers) and `mailbox.drain` (cross-shard
//! delivery) — carry real attribution, alongside the headline
//! barrier-wait fraction `repro bench-shard` tracks per cell.
//!
//! Simulation outputs are identical with the profiler on or off (the
//! `profiler_does_not_change_fingerprints` test in `ape-simnet` pins it);
//! only the wall-clock attribution varies run to run, like every number in
//! this crate's benches.

use std::fmt::Write as _;

use ape_appdag::DummyAppConfig;
use apecache::{build_sharded, collect, System};

use crate::experiments::{base_config, replica_jobs, ReproOptions};

/// Number of apps in the profiled workload (matches the table sweeps).
const PROFILE_APPS: usize = 30;

/// Runs all four systems with the self-profiler enabled (`opts.trials`
/// replicas each, attribution merged across trials) and renders the
/// per-system host-time tables.
pub fn profile(opts: &ReproOptions) -> String {
    let mut jobs = Vec::new();
    for &system in System::ALL.iter() {
        let mut config = base_config(system, opts, &DummyAppConfig::default(), PROFILE_APPS);
        config.profiler = true;
        jobs.extend(replica_jobs(&config, opts));
    }

    let trials = opts.trials.max(1);
    let mut results = opts.runner().run_many(&jobs).into_iter();

    let mut out = String::from(
        "Sim-loop self-profile: host time by simulator subsystem\n\
         (wall-clock attribution only; simulation outputs are unchanged)\n",
    );
    for &system in System::ALL.iter() {
        let mut merged = results.next().expect("one result per job");
        for _ in 1..trials {
            merged.merge(&results.next().expect("one result per job"));
        }
        let report = &merged.profile;
        let events: u64 = report.calls(ape_simnet::ProfCategory::Dispatch);
        let _ = writeln!(
            out,
            "\n=== {} ({} dispatches, {:.1} ms host loop time) ===",
            system.label(),
            events,
            report.loop_nanos() as f64 / 1e6,
        );
        out.push_str(&report.to_string());
    }

    // Sharded-engine attribution: the same workload partitioned over four
    // shards, so the epoch-coordination categories (shard.barrier,
    // mailbox.drain) show their cost next to the dispatch subsystems.
    let mut config = base_config(
        System::ApeCache,
        opts,
        &DummyAppConfig::default(),
        PROFILE_APPS,
    );
    config.profiler = true;
    let mut bed = build_sharded(&config, 4);
    bed.world.run_for(opts.duration());
    let sharded = collect(config.system, &mut bed);
    let report = &sharded.profile;
    let _ = writeln!(
        out,
        "\n=== {}, sharded x4 ({} dispatches, {:.1} ms host loop time, \
         {:.1} ms coordination, barrier-wait {:.1}%) ===",
        System::ApeCache.label(),
        report.calls(ape_simnet::ProfCategory::Dispatch),
        report.loop_nanos() as f64 / 1e6,
        report.coordination_nanos() as f64 / 1e6,
        report.barrier_wait_fraction() * 100.0,
    );
    out.push_str(&report.to_string());
    out
}
