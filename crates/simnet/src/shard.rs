//! Sharded deterministic execution: one world partitioned across shards.
//!
//! A [`World`](crate::World) splits its nodes over one or more [`Shard`]s
//! that each own a subset of the nodes, a private event queue
//! ([`crate::wheel::TimerWheel`] via [`EventQueue`]), per-node RNG streams,
//! and private metrics/trace buffers. Shards advance in lock-step *epochs*:
//! every epoch processes the window `[S, S + L)` where `S` is the earliest
//! pending event anywhere and `L` is the **conservative lookahead** — the
//! minimum propagation delay of any cross-shard link. Cross-shard messages
//! stage in per-shard outboxes and are delivered into the destination queue
//! at the epoch barrier; since a message sent at `t ≥ S` arrives at
//! `t + owd ≥ S + L`, no delivery can land inside a window that has already
//! been processed. A one-shard world has no cross-shard link, so its single
//! epoch runs to the deadline.
//!
//! # Determinism contract
//!
//! A run is **bitwise identical at any shard count and any thread count**.
//! Three mechanisms make that hold:
//!
//! 1. **Intrinsic canonical tie-break keys.** Every scheduled event's key
//!    is a hash of its *identity in the schedule* — a message is `(send
//!    instant, sender, receiver, repeat)`, a timer `(arm instant, node,
//!    token, repeat)` (see `InstantKeys` in [`crate::world`]) — never of
//!    the callback that created it. The key is therefore independent of
//!    which queue an event was inserted into, when a mailbox drained it,
//!    and which of two same-nanosecond callbacks emitted it: lazily
//!    triggered work (a window roll run by whichever tick reaches the due
//!    instant first) mints identical keys in either tie order. Keys are
//!    distinct with overwhelming probability (64-bit birthday bound). Tie
//!    perturbation scrambles the keys bijectively at push time.
//! 2. **Key-derived send randomness; per-node streams elsewhere.** Each
//!    send draws its loss and jitter from a one-shot stream seeded by its
//!    own intrinsic key, so the draw is a property of the message, not of
//!    how many draws its sender made first — two callbacks tied on one
//!    nanosecond cannot couple through a shared stream in either dispatch
//!    order. Every other draw a node makes (`ctx.rng()`) comes from its own
//!    SplitMix-derived stream seeded by `(world seed, node id)`,
//!    independent of global interleaving.
//! 3. **Node-keyed trace/metric state.** Trace and span ids derive from the
//!    recording node, every trace event is stamped with its dispatch key,
//!    and per-shard buffers are merged by stamp into one canonical stream;
//!    metric registries merge commutatively.
//!
//! [`enable_shard_oracle`](crate::World::enable_shard_oracle) turns on
//! online checks of the epoch protocol itself (monotone per-shard dispatch,
//! no mailbox delivery into an already-processed window), and
//! [`override_lookahead`](crate::World::override_lookahead) lets tests
//! claim a larger-than-true lookahead to prove the oracle catches a real
//! interleaving bug.

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::link::{LinkSerializer, Topology};
use crate::metrics::Metrics;
use crate::node::{Message, Node, NodeId};
use crate::profiler::{ProfCategory, Profiler};
use crate::rng::{mix64, SimRng};
use crate::time::SimTime;
use crate::trace::{SpanCtx, TraceSink};
use crate::world::{Context, InstantKeys};

/// A cross-shard event staged in a shard's outbox during an epoch, to be
/// delivered into the destination shard's queue at the next barrier.
pub(crate) struct Outbound<M> {
    pub at: SimTime,
    /// Intrinsic canonical tie-break key (see `InstantKeys`).
    pub key: u64,
    pub dst_shard: u32,
    pub kind: EventKind<M>,
}

/// Derives the RNG stream for one node from the world seed. Golden-ratio
/// increments keep the streams well separated under `mix64`.
pub(crate) fn node_stream(seed: u64, raw: u32) -> SimRng {
    let stream = (raw as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    SimRng::seed_from(mix64(seed ^ stream))
}

/// The world's read-only wiring every shard dispatches against.
#[derive(Clone, Copy)]
pub(crate) struct Wiring<'a> {
    pub topology: &'a Topology,
    pub faults: &'a FaultPlan,
    /// Global node raw index → owning shard.
    pub home_shard: &'a [u32],
    /// Global node raw index → local index within its shard.
    pub home_local: &'a [u32],
}

/// One shard: a slice of the node table with its own queue, RNG streams and
/// observability buffers.
pub(crate) struct Shard<M: Message> {
    pub queue: EventQueue<M>,
    pub nodes: Vec<Option<Box<dyn Node<M>>>>,
    /// Local index → global id.
    pub node_ids: Vec<NodeId>,
    /// Per-node RNG streams (local index).
    pub rngs: Vec<SimRng>,
    /// World seed, folded into key-derived send randomness.
    seed: u64,
    /// Intrinsic tie-break key allocator (see `InstantKeys`).
    pub keys: InstantKeys,
    pub metrics: Metrics,
    pub trace: TraceSink,
    pub prof: Profiler,
    /// Per-directed-link arrival serialization. Keyed by `(src, dst)` and a
    /// source node lives on exactly one shard, so per-shard state reserves
    /// identically at any shard count — including for cross-shard sends,
    /// whose arrival time is fixed here at send time before staging.
    pub links: LinkSerializer,
    /// Cross-shard sends staged during the current epoch.
    pub outbox: Vec<Outbound<M>>,
    pub processed: u64,
    /// Shard-oracle state: the `(at, key)` of the last dispatched event.
    last_dispatch: Option<(SimTime, u64)>,
    /// Shard-oracle state: events strictly below this time have been
    /// processed; a mailbox delivery below it is a protocol violation.
    pub drained_to: SimTime,
}

impl<M: Message> Shard<M> {
    pub fn new(seed: u64) -> Self {
        Shard {
            queue: EventQueue::new(),
            nodes: Vec::new(),
            node_ids: Vec::new(),
            rngs: Vec::new(),
            seed,
            keys: InstantKeys::default(),
            metrics: Metrics::new(),
            trace: TraceSink::default(),
            prof: Profiler::new(),
            links: LinkSerializer::default(),
            outbox: Vec::new(),
            processed: 0,
            last_dispatch: None,
            drained_to: SimTime::ZERO,
        }
    }

    /// Runs `f` against one local node with a fully wired [`Context`].
    pub fn dispatch(
        &mut self,
        local: usize,
        now: SimTime,
        span: Option<SpanCtx>,
        wiring: Wiring<'_>,
        self_shard: u32,
        f: impl FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    ) {
        let t = self.prof.start();
        let id = self.node_ids[local];
        let mut node = self.nodes[local]
            .take()
            .unwrap_or_else(|| panic!("re-entrant dispatch on {id}"));
        {
            let mut ctx = Context {
                now,
                self_id: id,
                self_shard,
                home: wiring.home_shard,
                seed: self.seed,
                keys: &mut self.keys,
                queue: &mut self.queue,
                outbox: &mut self.outbox,
                topology: wiring.topology,
                faults: wiring.faults,
                links: &mut self.links,
                rng: &mut self.rngs[local],
                metrics: &mut self.metrics,
                trace: &mut self.trace,
                prof: &mut self.prof,
                span,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[local] = Some(node);
        self.prof.record(ProfCategory::Dispatch, t);
    }

    /// Processes local events with `at < horizon && at <= deadline`, at
    /// most `budget` of them. Returns `(events processed, last event
    /// time)`.
    pub fn drain_epoch(
        &mut self,
        horizon: SimTime,
        deadline: SimTime,
        budget: u64,
        wiring: Wiring<'_>,
        self_shard: u32,
        oracle: bool,
    ) -> (u64, Option<SimTime>) {
        let mut events = 0u64;
        let mut last_at = None;
        while let Some(at) = self.queue.peek_time() {
            if at >= horizon || at > deadline || events >= budget {
                break;
            }
            let t = self.prof.start();
            let ev = self.queue.pop().expect("peeked event vanished");
            self.prof.record(ProfCategory::QueuePop, t);
            if oracle {
                if let Some(last) = self.last_dispatch {
                    assert!(
                        (ev.at, ev.seq) > last,
                        "shard oracle: dispatch order regressed on shard {self_shard}: \
                         ({:?}, {:#x}) after ({:?}, {:#x})",
                        ev.at,
                        ev.seq,
                        last.0,
                        last.1,
                    );
                }
                self.last_dispatch = Some((ev.at, ev.seq));
            }
            if self.trace.is_enabled() {
                self.trace.set_dispatch_stamp(ev.at, ev.seq);
            }
            events += 1;
            last_at = Some(ev.at);
            match ev.kind {
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    span,
                } => {
                    debug_assert_eq!(wiring.home_shard[to.index()], self_shard);
                    let local = wiring.home_local[to.index()] as usize;
                    self.dispatch(local, ev.at, span, wiring, self_shard, |node, ctx| {
                        node.on_message(ctx, from, msg)
                    });
                }
                EventKind::Timer { node, token, span } => {
                    let local = wiring.home_local[node.index()] as usize;
                    self.dispatch(local, ev.at, span, wiring, self_shard, |n, ctx| {
                        n.on_timer(ctx, token)
                    });
                }
            }
        }
        self.processed += events;
        // A budget stop leaves the rest of the window unprocessed.
        let completed = if events >= budget {
            last_at.unwrap_or(self.drained_to)
        } else {
            horizon.min(deadline)
        };
        if completed > self.drained_to {
            self.drained_to = completed;
        }
        (events, last_at)
    }
}

#[cfg(test)]
mod tests {
    use crate::determinism::perturbation_key;
    use crate::link::LinkSpec;
    use crate::node::{Message, Node, NodeId, TimerToken};
    use crate::profiler::ProfCategory;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::TraceConfig;
    use crate::world::{Context, StopReason, World};

    #[derive(Debug, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Replies until the payload reaches zero; counts arrivals in metrics
    /// and observes a jittered histogram so RNG streams are exercised.
    struct Echo;
    impl Node<Num> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, msg: Num) {
            ctx.metrics().incr("echo.arrivals", 1);
            let noise = ctx.rng().unit();
            ctx.metrics().observe("echo.noise", noise);
            if msg.0 > 0 {
                ctx.send(from, Num(msg.0 - 1));
            }
        }
    }

    /// Starts a traced ping chain toward `peer` and re-arms a timer twice.
    struct Pinger {
        peer: NodeId,
        rounds: u64,
        timers: u64,
    }
    impl Node<Num> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            ctx.begin_trace("ping");
            ctx.send(self.peer, Num(self.rounds));
            ctx.schedule(SimDuration::from_millis(3), TimerToken::new(1));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, msg: Num) {
            ctx.metrics().incr("pinger.replies", 1);
            if msg.0 > 0 {
                ctx.send(from, Num(msg.0 - 1));
            } else {
                ctx.span_instant("done");
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _token: TimerToken) {
            self.timers += 1;
            if self.timers < 3 {
                ctx.schedule(SimDuration::from_millis(3), TimerToken::new(1));
            }
        }
    }

    /// A star of pingers (spread over shards 1..N when N > 1) around one
    /// echo sink on shard 0, with per-link jitter so RNG draws matter.
    fn build(shards: u32, pert: Option<u64>, pingers: u32) -> World<Num> {
        let mut w = World::with_shards(42, shards);
        if let Some(key) = pert {
            w.set_tie_perturbation(key);
        }
        w.set_trace_config(TraceConfig::enabled());
        let sink = w.add_node_on(0, "sink", Echo);
        for i in 0..pingers {
            let shard = if shards == 1 {
                0
            } else {
                1 + (i % (shards - 1))
            };
            let p = w.add_node_on(
                shard,
                format!("pinger{i}"),
                Pinger {
                    peer: sink,
                    rounds: 4 + (i as u64 % 3),
                    timers: 0,
                },
            );
            w.connect(
                p,
                sink,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(150)),
            );
        }
        w
    }

    #[test]
    fn results_are_shard_count_invariant() {
        let fp = |shards| {
            let mut w = build(shards, None, 6);
            w.run_to_idle();
            w.fingerprint()
        };
        let base = fp(1);
        assert!(base.events > 0 && base.trace != 0);
        for shards in [2, 3, 4, 7] {
            assert_eq!(fp(shards), base, "diverged at {shards} shards");
        }
    }

    #[test]
    fn results_are_shard_count_invariant_under_perturbation() {
        for n in 0..4u32 {
            let key = perturbation_key(42, n);
            let fp = |shards| {
                let mut w = build(shards, Some(key), 6);
                w.run_to_idle();
                w.fingerprint()
            };
            let base = fp(1);
            for shards in [2, 4] {
                assert_eq!(fp(shards), base, "key {key:#x} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let fp = |threads| {
            let mut w = build(4, None, 6);
            w.set_threads(threads);
            w.run_to_idle();
            w.fingerprint()
        };
        assert_eq!(fp(1), fp(2));
        assert_eq!(fp(1), fp(8));
    }

    #[test]
    fn merged_traces_arrive_in_canonical_order() {
        let events = |shards| {
            let mut w = build(shards, None, 5);
            w.run_to_idle();
            w.take_trace_events()
        };
        let single = events(1);
        assert!(!single.is_empty());
        assert_eq!(events(3), single, "merged trace stream must be identical");
    }

    #[test]
    fn oracle_accepts_a_correct_run() {
        let mut w = build(4, None, 6);
        w.enable_shard_oracle();
        let report = w.run_to_idle();
        assert_eq!(report.reason, StopReason::Idle);
        assert!(report.events > 0);
    }

    #[test]
    #[should_panic(expected = "shard oracle")]
    fn oracle_fires_when_lookahead_is_overclaimed() {
        // Claiming a 50 ms lookahead over 1 ms links lets an epoch process
        // events whose replies land inside the already-processed window —
        // a genuine interleaving bug the oracle must catch.
        let mut w = build(2, None, 4);
        w.enable_shard_oracle();
        w.override_lookahead(SimDuration::from_millis(50));
        w.run_to_idle();
    }

    #[test]
    fn cross_shard_link_with_zero_propagation_is_rejected() {
        let mut w: World<Num> = World::with_shards(1, 2);
        let a = w.add_node_on(0, "a", Echo);
        let b = w.add_node_on(1, "b", Echo);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.connect(a, b, LinkSpec::new(1, SimDuration::ZERO));
        }));
        assert!(r.is_err(), "zero-propagation cross-shard link must panic");
    }

    #[test]
    fn multi_shard_without_cross_link_panics_on_run() {
        let mut w: World<Num> = World::with_shards(1, 2);
        w.add_node_on(0, "a", Echo);
        w.add_node_on(1, "b", Echo);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_to_idle();
        }));
        assert!(r.is_err(), "undefined lookahead must panic");
    }

    #[test]
    fn deadline_and_resume_match_plain_world_semantics() {
        let mut w = build(3, None, 4);
        let r = w.run_until(SimTime::from_millis(2));
        assert_eq!(r.reason, StopReason::Deadline);
        assert_eq!(w.now(), SimTime::from_millis(2));
        let r2 = w.run_to_idle();
        assert_eq!(r2.reason, StopReason::Idle);
        assert!(w.pending_events() == 0);
    }

    #[test]
    fn profiler_records_coordination_without_changing_results() {
        let run = |profile: bool| {
            let mut w = build(3, None, 5);
            if profile {
                w.enable_profiler();
            }
            w.run_to_idle();
            (w.fingerprint(), w.profile_report())
        };
        let (fp_off, rep_off) = run(false);
        let (fp_on, rep_on) = run(true);
        assert_eq!(fp_off, fp_on, "profiling must not perturb sim state");
        assert!(!rep_off.enabled);
        assert!(rep_on.enabled);
        assert!(rep_on.calls(ProfCategory::Dispatch) > 0);
        assert!(rep_on.calls(ProfCategory::ShardBarrier) > 0);
        assert!(rep_on.calls(ProfCategory::MailboxDrain) > 0);
    }

    #[test]
    fn node_access_and_names_span_shards() {
        let mut w = build(3, None, 4);
        w.run_to_idle();
        assert_eq!(w.node_count(), 5);
        assert_eq!(w.node_name(NodeId::from_raw(0)), "sink");
        assert_eq!(w.shard_of(NodeId::from_raw(0)), 0);
        let p1 = NodeId::from_raw(1);
        assert!(w.shard_of(p1) > 0);
        assert_eq!(w.node::<Pinger>(p1).timers, 3);
        w.node_mut::<Pinger>(p1).timers = 0;
        assert_eq!(w.node::<Pinger>(p1).timers, 0);
    }

    #[test]
    fn metrics_merge_matches_single_shard_totals() {
        let totals = |shards| {
            let mut w = build(shards, None, 6);
            w.run_to_idle();
            let m = w.metrics();
            (m.counter("echo.arrivals"), m.counter("pinger.replies"))
        };
        assert_eq!(totals(1), totals(4));
    }

    #[test]
    fn fingerprint_digests_the_merged_registry_in_place() {
        for shards in [1, 2, 4] {
            let mut w = build(shards, None, 6);
            w.run_to_idle();
            assert_eq!(
                w.fingerprint().metrics,
                w.metrics().digest(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn injected_events_are_shard_count_invariant() {
        let fp = |shards| {
            let mut w = build(shards, None, 4);
            let (sink, pinger) = (NodeId::from_raw(0), NodeId::from_raw(2));
            w.post(pinger, sink, Num(3));
            w.schedule_timer(pinger, SimDuration::from_millis(1), TimerToken::new(9));
            w.run_until(SimTime::from_millis(4));
            w.post(sink, pinger, Num(2));
            w.run_to_idle();
            w.fingerprint()
        };
        let base = fp(1);
        for shards in [2, 3] {
            assert_eq!(fp(shards), base, "diverged at {shards} shards");
        }
    }
}
