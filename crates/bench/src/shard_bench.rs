//! `repro bench-shard` — sharded-world scale sweep.
//!
//! Sweeps client populations {10k, 100k, 1M} (quick mode keeps the small
//! cell for CI smoke), running the same fetch/think workload under two
//! client representations:
//!
//! * **fleet** — [`ape_nodes::FleetNode`] struct-of-arrays populations (8
//!   sub-fleets per cell) spread over {1, 2, 4, 8} shards of a
//!   [`World`], with the serving spine on shard 0,
//! * **boxed** — the classic one-node-per-client baseline
//!   ([`ape_nodes::BoxedClientNode`]) on a single shard.
//!
//! Per cell the sweep reports events processed, wall-clock, aggregate
//! events/sec, settled fetches/sec and the profiler's barrier-wait
//! fraction. Because the cell's node set is fixed at 8 sub-fleets
//! regardless of shard count, every fleet run of one population must
//! produce a bitwise-identical [`Fingerprint`]; the bench asserts this
//! before reporting any timing, so the throughput comparison is between
//! provably-identical simulations. Results go to `BENCH_shard.json` at the
//! repo root; `EXPERIMENTS.md` tracks the trajectory.
//!
//! The workload is deterministic in `--seed`; only wall-clock timings vary
//! run to run (the bench crate is the one place wall-clock is permitted).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ape_nodes::{BoxedClientNode, FleetConfig, FleetMsg, FleetNode, FleetOrigin, FleetResponder};
use ape_proto::names;
use ape_simnet::{Fingerprint, LinkSpec, SimDuration, SimTime, World};
use ape_workload::ZipfSampler;

use crate::ReproOptions;

/// Client populations swept in a full run.
const SWEEP_FULL: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Quick-mode subset (CI smoke: small population only).
const SWEEP_QUICK: [usize; 1] = [10_000];

/// Shard counts every fleet population is run at.
const SHARDS: [u32; 4] = [1, 2, 4, 8];

/// Sub-fleets per cell: fixed regardless of shard count so the node set —
/// and therefore the fingerprint — is invariant across the shard sweep.
const SUB_FLEETS: u32 = 8;

/// Mean think time between fetches. Denser than the paper's 20 s fleet
/// average so a few simulated seconds carry bench-grade traffic.
const THINK_MEAN: SimDuration = SimDuration::from_secs(2);

/// Simulated span per cell (full / quick).
const SIM_SECS_FULL: u64 = 4;
const SIM_SECS_QUICK: u64 = 2;

/// Catalog size and skew for the Zipf app popularity.
const APPS: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;

/// Responder cache model: share of the catalog considered cached.
const HIT_PCT: u8 = 60;

/// One `(representation, population, shards)` sweep cell.
struct Cell {
    repr: &'static str,
    clients: usize,
    shards: u32,
    /// Simulation events processed during the measured span.
    events: u64,
    /// Median wall-clock of the measured span.
    wall_ms: f64,
    /// Aggregate throughput implied by the median wall-clock.
    events_per_sec: u64,
    /// Fetches issued (CLIENT_FETCHES) during the span.
    fetches: u64,
    /// Fetch throughput implied by the median wall-clock.
    fetches_per_sec: u64,
    /// Host time spent waiting at epoch barriers, as a fraction of the
    /// measured execution time.
    barrier_wait_fraction: f64,
}

/// What one world run yields besides timings.
struct RunOutcome {
    fingerprint: Fingerprint,
    events: u64,
    fetches: u64,
    barrier_wait_fraction: f64,
    wall_ms: f64,
}

fn fleet_config(clients_per_fleet: usize) -> FleetConfig {
    FleetConfig {
        clients: clients_per_fleet,
        think_mean: THINK_MEAN,
        apps: APPS,
        zipf_exponent: ZIPF_EXPONENT,
        timeout: SimDuration::from_secs(5),
        tick: SimDuration::from_millis(10),
    }
}

/// The WiFi-hop link every client population uses to reach the spine; its
/// 1.5 ms propagation floors the cross-shard lookahead.
fn link() -> LinkSpec {
    LinkSpec::new(2, SimDuration::from_micros(1_500))
}

/// Builds a fleet cell: spine on shard 0, `SUB_FLEETS` fleets round-robin
/// over the client shards.
fn build_fleet(clients: usize, shards: u32, seed: u64) -> World<FleetMsg> {
    let mut w: World<FleetMsg> = World::with_shards(seed, shards);
    w.enable_profiler();
    let origin = w.add_node_on(0, "origin", FleetOrigin::new(SimDuration::from_micros(200)));
    let responder = w.add_node_on(
        0,
        "responder",
        FleetResponder::new(origin, HIT_PCT, SimDuration::from_micros(100), seed),
    );
    w.connect(responder, origin, link());
    let per_fleet = clients / SUB_FLEETS as usize;
    for f in 0..SUB_FLEETS {
        let shard = if shards == 1 { 0 } else { 1 + f % (shards - 1) };
        let fleet = w.add_node_on(
            shard,
            format!("fleet{f}"),
            FleetNode::new(fleet_config(per_fleet), responder, f),
        );
        w.connect(fleet, responder, link());
    }
    w
}

/// Builds the boxed baseline cell: the same spine, one node per client,
/// all on a single shard.
fn build_boxed(clients: usize, seed: u64) -> World<FleetMsg> {
    let mut w: World<FleetMsg> = World::with_shards(seed, 1);
    w.enable_profiler();
    let origin = w.add_node_on(0, "origin", FleetOrigin::new(SimDuration::from_micros(200)));
    let responder = w.add_node_on(
        0,
        "responder",
        FleetResponder::new(origin, HIT_PCT, SimDuration::from_micros(100), seed),
    );
    w.connect(responder, origin, link());
    let zipf = Arc::new(ZipfSampler::new(APPS, ZIPF_EXPONENT));
    for i in 0..clients as u32 {
        let c = w.add_node_on(
            0,
            format!("client{i}"),
            BoxedClientNode::new(
                responder,
                THINK_MEAN,
                SimDuration::from_secs(5),
                Arc::clone(&zipf),
                i,
            ),
        );
        w.connect(c, responder, link());
    }
    w
}

/// Runs one freshly built world for `sim` and collects its outcome. Only
/// the run itself is timed; construction is excluded.
fn run_world(mut w: World<FleetMsg>, sim: SimDuration) -> RunOutcome {
    let t = Instant::now();
    w.run_until(SimTime::ZERO + sim);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let fetches = w.metrics().counter(names::CLIENT_FETCHES);
    RunOutcome {
        fingerprint: w.fingerprint(),
        events: w.events_processed(),
        fetches,
        barrier_wait_fraction: w.profile_report().barrier_wait_fraction(),
        wall_ms,
    }
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock is finite"));
    samples[samples.len() / 2]
}

/// Runs a cell `trials` times (plus a warm-up) and folds the outcomes into
/// a [`Cell`], returning the fingerprint for cross-shard-count asserts.
fn run_cell(
    repr: &'static str,
    clients: usize,
    shards: u32,
    trials: usize,
    sim: SimDuration,
    build: impl Fn() -> World<FleetMsg>,
) -> (Cell, Fingerprint) {
    // Warm-up pass: faults in code paths and grows allocator arenas.
    let warm = run_world(build(), sim);
    let mut walls = Vec::with_capacity(trials);
    let mut last = warm;
    for _ in 0..trials {
        let outcome = run_world(build(), sim);
        assert_eq!(
            outcome.fingerprint, last.fingerprint,
            "world must be deterministic across trials"
        );
        walls.push(outcome.wall_ms);
        last = outcome;
    }
    let wall_ms = median_ms(walls);
    let per_sec = |count: u64| (count as f64 / (wall_ms / 1e3)) as u64;
    let cell = Cell {
        repr,
        clients,
        shards,
        events: last.events,
        wall_ms,
        events_per_sec: per_sec(last.events),
        fetches: last.fetches,
        fetches_per_sec: per_sec(last.fetches),
        barrier_wait_fraction: last.barrier_wait_fraction,
    };
    (cell, last.fingerprint)
}

/// Events/sec of the cell matching `(repr, clients, shards)`.
fn rate_of(cells: &[Cell], repr: &str, clients: usize, shards: u32) -> Option<u64> {
    cells
        .iter()
        .find(|c| c.repr == repr && c.clients == clients && c.shards == shards)
        .map(|c| c.events_per_sec)
}

/// Headline ratio: the largest population's 8-shard fleet throughput over
/// its single-shard boxed baseline.
fn headline(cells: &[Cell], clients: usize) -> Option<f64> {
    let fleet = rate_of(cells, "fleet", clients, 8)?;
    let boxed = rate_of(cells, "boxed", clients, 1)?;
    Some(fleet as f64 / boxed as f64)
}

fn render_json(
    cells: &[Cell],
    sizes: &[usize],
    trials: usize,
    seed: u64,
    quick: bool,
    sim_secs: u64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ape-bench/shard/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"trials_per_cell\": {trials},");
    let _ = writeln!(out, "  \"sim_seconds\": {sim_secs},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"repr\": \"{}\", \"clients\": {}, \"shards\": {}, \"events\": {}, \
             \"wall_ms\": {:.2}, \"events_per_sec\": {}, \"fetches\": {}, \
             \"fetches_per_sec\": {}, \"barrier_wait_fraction\": {:.4}",
            c.repr,
            c.clients,
            c.shards,
            c.events,
            c.wall_ms,
            c.events_per_sec,
            c.fetches,
            c.fetches_per_sec,
            c.barrier_wait_fraction
        );
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    let largest = *sizes.iter().max().expect("sweep is non-empty");
    let _ = writeln!(
        out,
        "  \"headline\": {{\"clients\": {}, \"fleet_8shard_events_per_sec\": {}, \
         \"boxed_baseline_events_per_sec\": {}, \"speedup\": {:.2}}},",
        largest,
        rate_of(cells, "fleet", largest, 8).unwrap_or(0),
        rate_of(cells, "boxed", largest, 1).unwrap_or(0),
        headline(cells, largest).unwrap_or(0.0)
    );
    out.push_str("  \"sizes\": [");
    for (i, s) in sizes.iter().enumerate() {
        let _ = write!(out, "{}{s}", if i > 0 { ", " } else { "" });
    }
    out.push_str("]\n}\n");
    out
}

/// Runs the sharded-world scale sweep, writes `BENCH_shard.json` at the
/// repo root, and returns a human-readable summary.
pub fn bench_shard(opts: &ReproOptions) -> String {
    let quick = opts.micro_trials < ReproOptions::default().micro_trials;
    let sizes: &[usize] = if quick { &SWEEP_QUICK } else { &SWEEP_FULL };
    let sim_secs = if quick { SIM_SECS_QUICK } else { SIM_SECS_FULL };
    let sim = SimDuration::from_secs(sim_secs);
    let base_trials = (opts.micro_trials / 33).clamp(1, 3);

    let mut cells = Vec::new();
    for &clients in sizes {
        // The largest population is run once: its span is long enough that
        // run-to-run wall-clock noise is far below the headline margin.
        let trials = if clients >= 1_000_000 { 1 } else { base_trials };
        let mut base_fp = None;
        for &shards in &SHARDS {
            let (cell, fp) = run_cell("fleet", clients, shards, trials, sim, || {
                build_fleet(clients, shards, opts.seed)
            });
            match &base_fp {
                None => base_fp = Some(fp),
                Some(base) => assert_eq!(
                    &fp, base,
                    "fleet fingerprint diverged at {shards} shards ({clients} clients)"
                ),
            }
            cells.push(cell);
        }
        let (cell, _) = run_cell("boxed", clients, 1, trials, sim, || {
            build_boxed(clients, opts.seed)
        });
        cells.push(cell);
    }

    let json = render_json(&cells, sizes, base_trials, opts.seed, quick, sim_secs);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shard.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("wrote {}", path.display()),
        Err(err) => format!("FAILED to write {}: {err}", path.display()),
    };

    let mut out = String::from(
        "Sharded-world scale sweep: SoA fleet vs boxed per-client baseline\n\
         (identical workload; fleet fingerprints asserted equal across shard counts)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>6} {:>11} {:>10} {:>13} {:>12} {:>9}",
        "repr", "clients", "shards", "events", "wall ms", "events/sec", "fetches/sec", "barrier"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>6} {:>11} {:>10.1} {:>13} {:>12} {:>8.1}%",
            c.repr,
            c.clients,
            c.shards,
            c.events,
            c.wall_ms,
            c.events_per_sec,
            c.fetches_per_sec,
            c.barrier_wait_fraction * 100.0,
        );
    }
    let largest = *sizes.iter().max().expect("sweep is non-empty");
    let _ = writeln!(
        out,
        "\nheadline: fleet@8shards vs boxed baseline at {largest} clients = {:.2}x events/sec",
        headline(&cells, largest).unwrap_or(0.0)
    );
    let _ = writeln!(out, "{note}");
    out
}
