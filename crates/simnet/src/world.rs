//! The simulation world: node table, topology, clock and event loop.
//!
//! One executor runs every simulation: a [`World`] of one or more shards
//! (the `shard` module documents the epoch protocol and the determinism
//! contract). [`World::new`] is one shard; [`World::with_shards`] splits
//! the node table so a run can fan out over threads, with bitwise
//! identical results at any shard and thread count.

use std::borrow::Cow;

use crate::determinism::{perturbation_key, DeterminismReport, Fingerprint, PerturbedRun};
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::link::{LinkSerializer, LinkSpec, Topology};
use crate::metrics::{keys, Metrics, MetricsConfig};
use crate::node::{Message, Node, NodeId, TimerToken};
use crate::profiler::{ProfCategory, ProfTimer, ProfileReport, Profiler};
use crate::rng::{mix64, KeyStream, SimRng};
use crate::shard::{node_stream, Outbound, Shard, Wiring};
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanCtx, TraceConfig, TraceEvent, TracePhase, TraceSink};

/// Why a call to [`World::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained before the deadline.
    Idle,
    /// The deadline was reached with events still pending.
    Deadline,
    /// The configured event cap was hit (runaway protection).
    EventCap,
}

/// Summary of one `run_*` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events processed during this call.
    pub events: u64,
    /// Why the loop stopped.
    pub reason: StopReason,
    /// Clock value when the loop stopped.
    pub now: SimTime,
}

/// Domain separator folded into message keys (arbitrary odd constant).
const MSG_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;
/// Domain separator folded into timer keys (arbitrary odd constant).
const TIMER_DOMAIN: u64 = 0xA24B_AED4_963E_E407;

/// One slot of [`InstantKeys`]' open-addressed table.
#[derive(Debug, Clone, Copy, Default)]
struct KeySlot {
    /// Hash of the event's `(domain, a, b)` tuple at the current instant.
    tag: u64,
    /// Instant generation the slot belongs to; any other value is empty.
    generation: u32,
    /// Repeats of the tuple minted so far this instant.
    count: u32,
}

/// Slots a fresh table starts with (and shrinks back to).
const KEY_TABLE_MIN: usize = 64;
/// A table above this many slots shrinks once an instant uses under a
/// sixteenth of it, so one burst (every client arming its whole schedule
/// at instant 0) does not pin its memory for the rest of the run.
const KEY_TABLE_SHRINK: usize = 4096;

/// Allocator of **intrinsic canonical tie-break keys** (one per shard).
///
/// An event's key is a hash of its *identity in the schedule*, not of the
/// callback that created it: a message is `(send instant, sender,
/// receiver, k)` and a timer is `(arm instant, node, token, k)`, where `k`
/// counts repeats of the same tuple within the instant. Two callbacks tied
/// on one nanosecond therefore mint the *same* keys for the same logical
/// events in either dispatch order — in particular, lazily triggered work
/// (e.g. a window roll run by whichever periodic tick reaches the due
/// instant first) emits identically-keyed messages no matter which tick
/// hosts it. A node dispatches only on its home shard and a shard pops in
/// canonical `(at, key)` order, so the `k` sequence is itself invariant
/// across shard counts, thread counts and tie-break permutations.
///
/// Keys are distinct with overwhelming probability (64-bit birthday bound
/// at simulation event counts); the repeat counter keeps the only
/// systematic collision source (identical tuple, same instant) apart.
///
/// The repeat counters live in a linear-probing table keyed by the tuple's
/// hash, whose slots carry the generation of the instant that wrote them:
/// moving to a new instant bumps the generation, which empties every slot
/// at once, so the per-instant reset costs nothing however large an
/// earlier burst grew the table.
#[derive(Debug)]
pub(crate) struct InstantKeys {
    /// Instant the repeat counters refer to.
    now: SimTime,
    /// Generation of `now`; slots stamped with another one are empty.
    generation: u32,
    /// Live slots this instant.
    live: usize,
    /// Power-of-two sized, or empty before the first key.
    slots: Vec<KeySlot>,
}

impl Default for InstantKeys {
    fn default() -> Self {
        InstantKeys {
            now: SimTime::ZERO,
            generation: 1,
            live: 0,
            slots: Vec::new(),
        }
    }
}

impl InstantKeys {
    fn next(&mut self, now: SimTime, domain: u64, a: u64, b: u64) -> u64 {
        if now != self.now {
            self.advance(now);
        }
        let tag = mix64(mix64(mix64(domain ^ now.as_nanos()) ^ a) ^ b);
        if (self.live + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                *slot = KeySlot {
                    tag,
                    generation: self.generation,
                    count: 1,
                };
                self.live += 1;
                return mix64(tag);
            }
            if slot.tag == tag {
                let k = slot.count;
                slot.count += 1;
                return mix64(tag ^ u64::from(k));
            }
            i = (i + 1) & mask;
        }
    }

    /// Moves the counters to a new instant: O(1), except the rare shrink
    /// after a burst and a full wipe once every 2^32 instants.
    fn advance(&mut self, now: SimTime) {
        if self.slots.len() > KEY_TABLE_SHRINK && self.live * 16 < self.slots.len() {
            self.slots = vec![KeySlot::default(); KEY_TABLE_MIN];
        }
        self.now = now;
        self.live = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(KeySlot::default());
            self.generation = 1;
        }
    }

    /// Doubles the table, re-placing this instant's live slots.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(KEY_TABLE_MIN);
        let old = std::mem::replace(&mut self.slots, vec![KeySlot::default(); size]);
        let mask = size - 1;
        for slot in old.into_iter().filter(|s| s.generation == self.generation) {
            let mut i = slot.tag as usize & mask;
            while self.slots[i].generation == self.generation {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Key of a message sent `from → to` at `now`.
    pub(crate) fn next_msg(&mut self, now: SimTime, from: NodeId, to: NodeId) -> u64 {
        self.next(now, MSG_DOMAIN, from.as_raw() as u64, to.as_raw() as u64)
    }

    /// Key of a timer armed on `node` at `now` carrying `token`.
    pub(crate) fn next_timer(&mut self, now: SimTime, node: NodeId, token: TimerToken) -> u64 {
        self.next(now, TIMER_DOMAIN, node.as_raw() as u64, token.get())
    }
}

/// The execution environment handed to node callbacks.
///
/// Nodes use the context to read the clock, send messages over topology
/// links, arm timers on themselves, draw randomness and record metrics.
pub struct Context<'a, M: Message> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    /// Shard that owns the executing node.
    pub(crate) self_shard: u32,
    /// Global node raw index → owning shard.
    pub(crate) home: &'a [u32],
    /// World seed, folded into each send's key-derived draws.
    pub(crate) seed: u64,
    /// The owning shard's intrinsic key allocator (see [`InstantKeys`]).
    pub(crate) keys: &'a mut InstantKeys,
    pub(crate) queue: &'a mut EventQueue<M>,
    /// Staging area for cross-shard sends (drained at the epoch barrier).
    pub(crate) outbox: &'a mut Vec<Outbound<M>>,
    pub(crate) topology: &'a Topology,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) links: &'a mut LinkSerializer,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) trace: &'a mut TraceSink,
    pub(crate) prof: &'a mut Profiler,
    /// Span context of the event being dispatched; attached to every
    /// message/timer this callback schedules so causality propagates.
    pub(crate) span: Option<SpanCtx>,
}

impl<M: Message> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("span", &self.span)
            .finish_non_exhaustive()
    }
}

impl<'a, M: Message> Context<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose callback is running.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the registered link, applying propagation
    /// delay, transfer time, jitter and loss.
    ///
    /// # Panics
    ///
    /// Panics if no link connects this node to `to`; topology is static, so
    /// that is a wiring bug in the experiment builder.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Like [`send`](Self::send) but the message leaves this node only after
    /// `local_delay` (modelling local processing before transmission).
    ///
    /// # Panics
    ///
    /// Panics if no link connects this node to `to`.
    pub fn send_after(&mut self, local_delay: SimDuration, to: NodeId, msg: M) {
        // Profiler attribution: key minting, link lookup, fault/loss/delay
        // resolution and the queue push charge to `link+fault.resolve`;
        // the metric increments account for themselves (`metrics.record`),
        // so each timer stops before recording.
        let t = self.prof.start();
        let link = self
            .topology
            .link(self.self_id, to)
            .unwrap_or_else(|| panic!("no link {} -> {}", self.self_id, to));
        // The send's tie-break key and its loss and jitter draws are pure
        // functions of the message's identity — (instant, sender,
        // receiver, repeat) — so two callbacks tied on one nanosecond
        // cannot couple through a shared stream in either dispatch order.
        // A dropped send still consumes its key: loss must not shift the
        // repeat counter for later same-pair sends.
        let key = self.keys.next_msg(self.now, self.self_id, to);
        let mut draws = KeyStream::new(self.seed, key);
        // Fault windows are evaluated at send time. The empty-plan path
        // draws nothing and records no metrics, so a world without a
        // FaultPlan is bit-identical to one predating fault injection.
        let mut fault_delay = SimDuration::ZERO;
        if !self.faults.is_empty() {
            let effect = self.faults.effect(self.self_id, to, self.now);
            if effect.down || (effect.loss > 0.0 && draws.chance(effect.loss)) {
                self.prof.record(ProfCategory::LinkFault, t);
                self.metrics.incr_id(keys::id::NET_FAULT_DROPPED, 1);
                return;
            }
            fault_delay = effect.extra_delay;
        }
        if link.sample_loss(&mut draws) {
            self.prof.record(ProfCategory::LinkFault, t);
            self.metrics.incr_id(keys::id::NET_DROPPED, 1);
            return;
        }
        let wire = msg.wire_size();
        let owd = link.sample_owd(wire, &mut draws);
        // The link delivers serially: an arrival that lands on an occupied
        // nanosecond is bumped to the next free one, so same-pair messages
        // never tie at the receiver (see [`LinkSerializer`]).
        let at = self.links.reserve(
            self.self_id,
            to,
            self.now,
            self.now + local_delay + owd + fault_delay,
        );
        let kind = EventKind::Deliver {
            to,
            from: self.self_id,
            msg,
            span: self.span,
        };
        // Cross-shard events stage in the outbox and enter the destination
        // queue at the epoch barrier.
        let dst_shard = self.home[to.index()];
        if dst_shard == self.self_shard {
            self.queue.push(at, key, kind);
        } else {
            self.outbox.push(Outbound {
                at,
                key,
                dst_shard,
                kind,
            });
        }
        self.prof.record(ProfCategory::LinkFault, t);
        // Counter order relative to the push is digest-invisible (counters
        // add, the digest walks names sorted); keeping the increments last
        // keeps them out of the link+fault timing above.
        self.metrics.incr_id(keys::id::NET_MESSAGES, 1);
        self.metrics.incr_id(keys::id::NET_BYTES, wire as u64);
    }

    /// Whether a link to `to` exists.
    pub fn has_link(&self, to: NodeId) -> bool {
        self.topology.link(self.self_id, to).is_some()
    }

    /// Nominal RTT of the link to `to`, if one exists.
    pub fn link_rtt(&self, to: NodeId) -> Option<SimDuration> {
        self.topology
            .link(self.self_id, to)
            .map(LinkSpec::nominal_rtt)
    }

    /// Arms a timer on this node that fires after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, token: TimerToken) {
        // Timers are always shard-local (a node arms only itself).
        let key = self.keys.next_timer(self.now, self.self_id, token);
        let kind = EventKind::Timer {
            node: self.self_id,
            token,
            span: self.span,
        };
        self.queue.push(self.now + delay, key, kind);
    }

    /// This node's deterministic randomness stream, seeded by the world
    /// seed and the node id.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The run's metric registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    // --- Profiling -------------------------------------------------------

    /// Starts a self-profiler measurement (`None`, for free, when the
    /// profiler is off). Node crates use this to attribute their own
    /// subsystem time — e.g. the AP charges [`ProfCategory::Evict`] around
    /// cache admission — without naming any wall-clock type.
    #[inline]
    pub fn prof_start(&self) -> Option<ProfTimer> {
        self.prof.start()
    }

    /// Stops a measurement from [`prof_start`](Self::prof_start), charging
    /// the elapsed host time to `category`. A `None` timer is a no-op.
    #[inline]
    pub fn prof_end(&mut self, category: ProfCategory, timer: Option<ProfTimer>) {
        self.prof.record(category, timer);
    }

    // --- Tracing ---------------------------------------------------------

    /// Whether the world's trace sink is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// The span context of the event being dispatched (propagated from the
    /// sender/scheduler), if any.
    pub fn span_ctx(&self) -> Option<SpanCtx> {
        self.span
    }

    /// Overrides the active span context for the rest of this callback.
    /// Messages and timers scheduled afterwards carry the new context.
    /// Nodes multiplexing several logical requests in one callback (e.g.
    /// answering all waiters of a coalesced fetch) use this to attribute
    /// each send to the right trace.
    pub fn set_span_ctx(&mut self, span: Option<SpanCtx>) {
        self.span = span;
    }

    /// Starts a new trace rooted at a span of the given kind, makes it the
    /// active context, and returns it.
    ///
    /// Returns `None` — and clears the active context, so the new logical
    /// operation never inherits its trigger's trace — when tracing is
    /// disabled or this trace was sampled out.
    pub fn begin_trace(&mut self, kind: &'static str) -> Option<SpanCtx> {
        self.span = None;
        let t = self.prof.start();
        let Some(trace) = self.trace.try_begin_trace(self.self_id) else {
            self.prof.record(ProfCategory::Trace, t);
            return None;
        };
        let span = self.trace.next_span_id(self.self_id);
        let ctx = SpanCtx { trace, span };
        self.trace.push(TraceEvent {
            at: self.now,
            trace,
            span,
            parent: None,
            node: self.self_id,
            kind,
            phase: TracePhase::Start,
        });
        self.span = Some(ctx);
        self.prof.record(ProfCategory::Trace, t);
        Some(ctx)
    }

    /// Opens a child span of the active context and returns its context
    /// (for a later [`span_end`](Self::span_end)). The active context is
    /// left unchanged. Returns `None` when there is no active traced
    /// context.
    pub fn span_start(&mut self, kind: &'static str) -> Option<SpanCtx> {
        let parent = self.span?;
        if !self.trace.is_enabled() {
            return None;
        }
        let t = self.prof.start();
        let span = self.trace.next_span_id(self.self_id);
        self.trace.push(TraceEvent {
            at: self.now,
            trace: parent.trace,
            span,
            parent: Some(parent.span),
            node: self.self_id,
            kind,
            phase: TracePhase::Start,
        });
        self.prof.record(ProfCategory::Trace, t);
        Some(SpanCtx {
            trace: parent.trace,
            span,
        })
    }

    /// Closes a span previously opened with [`begin_trace`](Self::begin_trace)
    /// or [`span_start`](Self::span_start).
    pub fn span_end(&mut self, ctx: SpanCtx, kind: &'static str) {
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at: self.now,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind,
            phase: TracePhase::End,
        });
        self.prof.record(ProfCategory::Trace, t);
    }

    /// Closes a span at an explicit timestamp instead of the current clock.
    ///
    /// For work the node accounts for synchronously but whose simulated
    /// duration extends past the dispatch instant (e.g. the AP charges
    /// `eviction_processing` during admission and delays the response by
    /// it), so the span covers the modeled interval `[start, at]`.
    pub fn span_end_at(&mut self, ctx: SpanCtx, kind: &'static str, at: SimTime) {
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind,
            phase: TracePhase::End,
        });
        self.prof.record(ProfCategory::Trace, t);
    }

    /// Records a point-in-time marker inside the active span, if any.
    pub fn span_instant(&mut self, kind: &'static str) {
        let Some(ctx) = self.span else { return };
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at: self.now,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind,
            phase: TracePhase::Instant,
        });
        self.prof.record(ProfCategory::Trace, t);
    }
}

/// A complete simulated deployment: nodes, links, clock and metrics.
///
/// The node table is split over one or more shards that advance in
/// lookahead-sized epochs and exchange traffic through deterministic
/// mailboxes: [`World::new`] is one shard, [`World::with_shards`] more. Results are
/// bitwise identical at any shard and thread count.
///
/// # Examples
///
/// ```
/// use ape_simnet::{Context, LinkSpec, Message, Node, NodeId, SimDuration, World};
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 64 }
/// }
///
/// struct Echo;
/// impl Node<Ping> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
///         if msg.0 > 0 {
///             ctx.send(from, Ping(msg.0 - 1));
///         }
///     }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node("a", Echo);
/// let b = world.add_node("b", Echo);
/// world.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
/// world.post(a, b, Ping(3));
/// let report = world.run_to_idle();
/// assert_eq!(report.events, 4);
/// ```
pub struct World<M: Message> {
    shards: Vec<Shard<M>>,
    /// Global node raw index → owning shard.
    home_shard: Vec<u32>,
    /// Global node raw index → local index within its shard.
    home_local: Vec<u32>,
    names: Vec<String>,
    topology: Topology,
    faults: FaultPlan,
    seed: u64,
    clock: SimTime,
    started: bool,
    /// Minimum propagation delay over cross-shard links, tracked at
    /// `connect` time. `None` until the first cross-shard link exists.
    min_cross_owd: Option<SimDuration>,
    lookahead_override: Option<SimDuration>,
    threads: usize,
    oracle: bool,
    tie_perturbation: Option<u64>,
    /// Coordinator-level profiler: epoch barriers and mailbox drains.
    prof: Profiler,
    event_cap: u64,
}

impl<M: Message> World<M> {
    /// Creates an empty one-shard world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World::with_shards(seed, 1)
    }

    /// Creates an empty world with `shard_count` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn with_shards(seed: u64, shard_count: u32) -> Self {
        assert!(shard_count > 0, "a world needs at least one shard");
        World {
            shards: (0..shard_count).map(|_| Shard::new(seed)).collect(),
            home_shard: Vec::new(),
            home_local: Vec::new(),
            names: Vec::new(),
            topology: Topology::new(),
            faults: FaultPlan::new(),
            seed,
            clock: SimTime::ZERO,
            started: false,
            min_cross_owd: None,
            lookahead_override: None,
            threads: 1,
            oracle: false,
            tie_perturbation: None,
            prof: Profiler::new(),
            event_cap: u64::MAX,
        }
    }

    /// Replaces the canonical tie-break order for same-timestamp events
    /// with a seeded bijective permutation of the keys. Events at distinct
    /// timestamps are unaffected.
    ///
    /// This is the schedule-perturbation race detector's knob (normally
    /// driven via [`check_determinism`](Self::check_determinism)): a world
    /// whose results change under a perturbed tie-break order has an
    /// event-ordering race.
    ///
    /// # Panics
    ///
    /// Panics if the world has already started or has pending events —
    /// perturbation must cover the whole schedule to be meaningful.
    pub fn set_tie_perturbation(&mut self, key: u64) {
        assert!(
            !self.started && self.pending_events() == 0,
            "set_tie_perturbation must be called before any event is scheduled"
        );
        self.tie_perturbation = Some(key);
        for shard in &mut self.shards {
            shard.queue.set_perturbation(Some(key));
        }
    }

    /// The active tie-break perturbation key, if any.
    pub fn tie_perturbation(&self) -> Option<u64> {
        self.tie_perturbation
    }

    /// Mirrors every event-queue operation of this run against the frozen
    /// pre-wheel heap ([`crate::reference::ReferenceEventQueue`]); the
    /// first pop where the timing wheel disagrees with the heap panics
    /// with both `(at, seq)` pairs. A differential-testing knob — it
    /// roughly doubles scheduler work, so leave it off outside tests.
    ///
    /// # Panics
    ///
    /// Panics if events have already been scheduled — the oracle must see
    /// the whole schedule to mirror it.
    pub fn enable_queue_oracle(&mut self) {
        assert!(
            !self.started && self.pending_events() == 0,
            "enable_queue_oracle must be called before any event is scheduled"
        );
        for shard in &mut self.shards {
            shard.queue.enable_oracle();
        }
    }

    /// Turns on the shard-protocol oracle: every dispatch is checked for
    /// strictly increasing `(at, key)` order per shard, and every mailbox
    /// delivery is checked against the destination shard's completed
    /// horizon. A violated check panics with the offending pair.
    ///
    /// # Panics
    ///
    /// Panics if the run has started.
    pub fn enable_shard_oracle(&mut self) {
        assert!(
            !self.started,
            "enable_shard_oracle must be called before the run starts"
        );
        self.oracle = true;
    }

    /// Overrides the computed lookahead. **Testing knob**: claiming a
    /// larger-than-true lookahead breaks the epoch-safety argument, which
    /// is precisely how the oracle tests manufacture a real interleaving
    /// bug. Never use this to "tune" a run.
    ///
    /// # Panics
    ///
    /// Panics if the run has started or `lookahead` is zero.
    pub fn override_lookahead(&mut self, lookahead: SimDuration) {
        assert!(!self.started, "override_lookahead after the run started");
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        self.lookahead_override = Some(lookahead);
    }

    /// Sets how many worker threads epochs may fan out over (default 1:
    /// the sequential executor). The thread count never changes results —
    /// shards are data-independent within an epoch and mailboxes are
    /// drained by the coordinator in shard order.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Digest of everything the determinism contract covers, merged across
    /// shards: metric content, canonical trace stream, final clock and
    /// events processed. Equal at any shard and thread count. Computed in
    /// place: no registry is cloned.
    pub fn fingerprint(&self) -> Fingerprint {
        let metrics: Vec<&Metrics> = self.shards.iter().map(|s| &s.metrics).collect();
        let traces: Vec<&TraceSink> = self.shards.iter().map(|s| &s.trace).collect();
        Fingerprint {
            clock_ns: self.clock.as_nanos(),
            events: self.events_processed(),
            metrics: Metrics::digest_merged(&metrics),
            trace: TraceSink::digest_merged(&traces),
        }
    }

    /// Runs `scenario` once in canonical tie-break order and
    /// `perturbations` more times under distinct seeded tie-break
    /// permutations, comparing run [`Fingerprint`]s.
    ///
    /// `scenario` receives a freshly seeded empty world each time and must
    /// build and run it (add nodes, connect links, call `run_*`). Any
    /// divergence between a perturbed run and the baseline means the
    /// scenario's results depend on the processing order of same-timestamp
    /// events — a hidden ordering race. See the [`determinism`]
    /// (crate::determinism) module docs.
    pub fn check_determinism(
        seed: u64,
        perturbations: u32,
        mut scenario: impl FnMut(&mut World<M>),
    ) -> DeterminismReport {
        let mut run = |key: Option<u64>| {
            let mut world = World::new(seed);
            if let Some(key) = key {
                world.set_tie_perturbation(key);
            }
            scenario(&mut world);
            world.fingerprint()
        };
        let baseline = run(None);
        let runs = (0..perturbations)
            .map(|n| {
                let key = perturbation_key(seed, n);
                PerturbedRun {
                    key,
                    fingerprint: run(Some(key)),
                }
            })
            .collect();
        DeterminismReport { baseline, runs }
    }

    /// Attaches a deterministic fault schedule to the run. Normally called
    /// once, before the run starts; the plan applies to every node-initiated
    /// send from then on ([`post`](Self::post) bypasses faults, like loss).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The active fault schedule (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Configures tracing on every shard's sink (enable/disable, capacity,
    /// sampling). Normally called once, before the run starts. The
    /// capacity is per shard: size it for the run, because ring-buffer
    /// eviction per shard *is* shard-count-sensitive.
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        for shard in &mut self.shards {
            shard.trace.set_config(config);
        }
    }

    /// Configures every shard's metric registry (histogram mode, sketch
    /// oracle, series capacity). Must be called before any metric is
    /// recorded.
    ///
    /// # Panics
    ///
    /// Panics if the run has started or any metric has been recorded —
    /// mixing histogram representations mid-run would corrupt digests.
    pub fn set_metrics_config(&mut self, config: MetricsConfig) {
        assert!(
            !self.started,
            "set_metrics_config must be called before the run starts"
        );
        for shard in &mut self.shards {
            shard.metrics.set_config(config.clone());
        }
    }

    /// Turns on the sim-loop self-profiler (see [`crate::Profiler`]) on the
    /// coordinator (epoch barriers, mailbox drains) and on every shard
    /// (dispatch, queue, trace, …). Simulation outputs are unaffected —
    /// the profiler reads the host clock but never feeds it back into sim
    /// state.
    pub fn enable_profiler(&mut self) {
        self.prof.enable();
        for shard in &mut self.shards {
            shard.prof.enable();
            shard.metrics.enable_self_profile();
        }
    }

    /// Whether the self-profiler is on.
    pub fn profiler_enabled(&self) -> bool {
        self.prof.is_enabled()
    }

    /// Merged profiler attribution: all shard profilers, the coordinator's
    /// barrier/mailbox rows, and metric-registry self-time (folded into
    /// the [`ProfCategory::Metrics`] row).
    pub fn profile_report(&self) -> ProfileReport {
        let mut report = self.prof.report();
        for shard in &self.shards {
            report.merge(&shard.prof.report());
            let (nanos, calls) = shard.metrics.self_profile();
            report.nanos[ProfCategory::Metrics as usize] += nanos;
            report.calls[ProfCategory::Metrics as usize] += calls;
        }
        report
    }

    /// Read access to shard 0's trace sink: the whole sink of a one-shard
    /// world. A split world's sinks share one config but buffer their own
    /// shard's events; [`take_trace_events`](Self::take_trace_events)
    /// merges them.
    pub fn trace(&self) -> &TraceSink {
        &self.shards[0].trace
    }

    /// Removes and returns all buffered trace events merged into the
    /// canonical global dispatch order (by `(at, key, intra)` stamp).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut stamped: Vec<_> = self
            .shards
            .iter_mut()
            .flat_map(|s| s.trace.drain_stamped())
            .collect();
        stamped.sort_unstable_by_key(|(stamp, _)| *stamp);
        stamped.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Limits the number of events one `run_*` call may process. Exceeding
    /// the cap stops the loop with [`StopReason::EventCap`]. A one-shard
    /// world stops exactly at the cap; a split world enforces it per
    /// epoch, so its stop point depends on the shard count — it is runaway
    /// protection, not a precision instrument.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Registers a node on shard 0 and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node<M> + 'static) -> NodeId {
        self.add_node_on(0, name, node)
    }

    /// Registers a node on `shard` and returns its (global) id. Ids are
    /// assigned densely in call order, independent of the shard argument —
    /// the same build sequence yields the same ids at any shard count. A
    /// node added after the run started never gets `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn add_node_on(
        &mut self,
        shard: u32,
        name: impl Into<String>,
        node: impl Node<M> + 'static,
    ) -> NodeId {
        assert!(
            (shard as usize) < self.shards.len(),
            "shard {shard} out of range"
        );
        let id = NodeId::from_raw(self.home_shard.len() as u32);
        let s = &mut self.shards[shard as usize];
        self.home_shard.push(shard);
        self.home_local.push(s.nodes.len() as u32);
        s.nodes.push(Some(Box::new(node)));
        s.node_ids.push(id);
        s.rngs.push(node_stream(self.seed, id.as_raw()));
        self.names.push(name.into());
        id
    }

    /// Registers a symmetric link between two nodes. A cross-shard link
    /// contributes its propagation delay to the epoch lookahead.
    ///
    /// # Panics
    ///
    /// Panics if either id was not returned by [`add_node`](Self::add_node),
    /// or if a cross-shard link has zero propagation delay (which would
    /// collapse the lookahead to nothing).
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert!(a.index() < self.home_shard.len(), "unknown node {a}");
        assert!(b.index() < self.home_shard.len(), "unknown node {b}");
        if self.home_shard[a.index()] != self.home_shard[b.index()] {
            let owd = spec.propagation_owd();
            assert!(
                owd > SimDuration::ZERO,
                "cross-shard link {a} <-> {b} must have nonzero propagation delay: \
                 it bounds the epoch lookahead"
            );
            self.min_cross_owd = Some(self.min_cross_owd.map_or(owd, |cur| cur.min(owd)));
        }
        self.topology.connect(a, b, spec);
    }

    /// Injects a message from `from` to `to` at the current time, as if
    /// `from` had sent it (link delays apply, loss and faults do not —
    /// injected messages always arrive). Useful to seed a run.
    ///
    /// Counts toward `net.messages`/`net.bytes` like any node-sent
    /// message, so traffic accounting is consistent however a message
    /// entered the network.
    ///
    /// # Panics
    ///
    /// Panics if no link connects the two nodes.
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        let link = *self
            .topology
            .link(from, to)
            .unwrap_or_else(|| panic!("no link {from} -> {to}"));
        let now = self.clock;
        let src = &mut self.shards[self.home_shard[from.index()] as usize];
        let key = src.keys.next_msg(now, from, to);
        let wire = msg.wire_size();
        let owd = link.sample_owd(wire, &mut KeyStream::new(self.seed, key));
        src.metrics.incr_id(keys::id::NET_MESSAGES, 1);
        src.metrics.incr_id(keys::id::NET_BYTES, wire as u64);
        let at = src.links.reserve(from, to, now, now + owd);
        let kind = EventKind::Deliver {
            to,
            from,
            msg,
            span: None,
        };
        self.shards[self.home_shard[to.index()] as usize]
            .queue
            .push(at, key, kind);
    }

    /// Arms a timer on `node` that fires after `delay`.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: TimerToken) {
        let shard = &mut self.shards[self.home_shard[node.index()] as usize];
        let key = shard.keys.next_timer(self.clock, node, token);
        let kind = EventKind::Timer {
            node,
            token,
            span: None,
        };
        shard.queue.push(self.clock + delay, key, kind);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a node.
    pub fn shard_of(&self, id: NodeId) -> u32 {
        self.home_shard[id.index()]
    }

    /// The epoch lookahead currently in force: the override if set, else
    /// the minimum cross-shard propagation delay, else `None` (single
    /// shard or no cross-shard link yet).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead_override.or(self.min_cross_owd)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of registered nodes (across all shards).
    pub fn node_count(&self) -> usize {
        self.home_shard.len()
    }

    /// The registered name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// The run's metrics: the one registry of a one-shard world, borrowed;
    /// on a split world, every shard's registry merged into an owned one
    /// (counters add, histogram sample multisets union — all
    /// order-insensitive).
    pub fn metrics(&self) -> Cow<'_, Metrics> {
        match self.shards.as_slice() {
            [only] => Cow::Borrowed(&only.metrics),
            [first, rest @ ..] => {
                let mut merged = first.metrics.clone();
                for shard in rest {
                    merged.merge(&shard.metrics);
                }
                Cow::Owned(merged)
            }
            [] => unreachable!("a world has at least one shard"),
        }
    }

    /// Mutable access to the run's metrics (percentile queries sort
    /// lazily).
    ///
    /// # Panics
    ///
    /// Panics on a split world, which has no single registry to hand out.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        assert_eq!(self.shards.len(), 1, "metrics_mut needs a one-shard world");
        &mut self.shards[0].metrics
    }

    /// Downcasts a node to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, the node is mid-dispatch, or the type
    /// does not match.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        let shard = &self.shards[self.home_shard[id.index()] as usize];
        shard.nodes[self.home_local[id.index()] as usize]
            .as_ref()
            .expect("node is mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable variant of [`node`](Self::node).
    ///
    /// # Panics
    ///
    /// Same conditions as [`node`](Self::node).
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        let shard = &mut self.shards[self.home_shard[id.index()] as usize];
        shard.nodes[self.home_local[id.index()] as usize]
            .as_mut()
            .expect("node is mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Events processed across all shards and `run_*` calls.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Number of pending events across all shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // on_start runs in global id order on the node's home shard; the
        // resulting cross-shard sends are delivered before the first epoch.
        // Its trace events carry the synthetic stamp key `node_raw << 40`,
        // scrambled like every dispatch key under a perturbation.
        let World {
            shards,
            topology,
            faults,
            home_shard,
            home_local,
            tie_perturbation,
            ..
        } = self;
        let wiring = Wiring {
            topology,
            faults,
            home_shard,
            home_local,
        };
        for raw in 0..home_shard.len() {
            let shard_idx = home_shard[raw];
            let shard = &mut shards[shard_idx as usize];
            if shard.trace.is_enabled() {
                let key = (raw as u64) << 40;
                let key = tie_perturbation.map_or(key, |pert| mix64(key ^ pert));
                shard.trace.set_dispatch_stamp(SimTime::ZERO, key);
            }
            shard.dispatch(
                home_local[raw] as usize,
                SimTime::ZERO,
                None,
                wiring,
                shard_idx,
                |node, ctx| node.on_start(ctx),
            );
        }
        self.drain_mailboxes();
    }

    /// Delivers every staged cross-shard event into its destination queue,
    /// in shard order. Order of insertion is irrelevant to results — the
    /// destination wheel orders on the canonical `(at, key)` — but fixing
    /// it keeps the walk cache-friendly and the oracle's view simple.
    fn drain_mailboxes(&mut self) {
        let t = self.prof.start();
        for src in 0..self.shards.len() {
            if self.shards[src].outbox.is_empty() {
                continue;
            }
            let mut staged = std::mem::take(&mut self.shards[src].outbox);
            for ob in staged.drain(..) {
                let dst = &mut self.shards[ob.dst_shard as usize];
                if self.oracle {
                    assert!(
                        ob.at >= dst.drained_to,
                        "shard oracle: mailbox delivery at {:?} into shard {} which already \
                         processed up to {:?} — lookahead violated",
                        ob.at,
                        ob.dst_shard,
                        dst.drained_to,
                    );
                }
                dst.queue.push(ob.at, ob.key, ob.kind);
            }
            // Hand the (now empty) buffer back so the allocation is reused.
            self.shards[src].outbox = staged;
        }
        self.prof.record(ProfCategory::MailboxDrain, t);
    }

    /// Runs until every queue drains or the clock reaches `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if the world has more than one shard but no cross-shard link
    /// (or [`override_lookahead`](Self::override_lookahead)): the epoch
    /// lookahead would be undefined.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        self.start_if_needed();
        let lookahead = if self.shards.len() > 1 {
            Some(self.lookahead().unwrap_or_else(|| {
                panic!(
                    "a {}-shard world needs at least one cross-shard link \
                     (or override_lookahead) to define the epoch lookahead",
                    self.shards.len()
                )
            }))
        } else {
            None
        };
        let mut events = 0u64;
        loop {
            // Epoch barrier: agree on the global window [start, horizon).
            let t = self.prof.start();
            let start = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.peek_time())
                .min();
            self.prof.record(ProfCategory::ShardBarrier, t);
            let report = |reason, now| RunReport {
                events,
                reason,
                now,
            };
            let Some(start) = start else {
                // With a finite deadline, idle time still passes: advance the
                // clock so sampling loops built on `run_for` stay aligned.
                if deadline < SimTime::MAX {
                    self.clock = deadline;
                }
                return report(StopReason::Idle, self.clock);
            };
            if start > deadline {
                self.clock = deadline;
                return report(StopReason::Deadline, self.clock);
            }
            if events >= self.event_cap {
                return report(StopReason::EventCap, self.clock);
            }
            let horizon = lookahead.map_or(SimTime::MAX, |l| start + l);
            let (epoch_events, epoch_last) =
                self.run_epoch(horizon, deadline, self.event_cap - events);
            events += epoch_events;
            if let Some(last) = epoch_last {
                self.clock = self.clock.max(last);
            }
            self.drain_mailboxes();
        }
    }

    /// Drains every shard over `[.., horizon) ∩ [.., deadline]`, at most
    /// `budget` events each, on one thread or several. Returns total
    /// events and the latest event time.
    fn run_epoch(
        &mut self,
        horizon: SimTime,
        deadline: SimTime,
        budget: u64,
    ) -> (u64, Option<SimTime>) {
        let oracle = self.oracle;
        let workers = self.threads.min(self.shards.len());
        let World {
            shards,
            topology,
            faults,
            home_shard,
            home_local,
            prof,
            ..
        } = self;
        let wiring = Wiring {
            topology,
            faults,
            home_shard,
            home_local,
        };
        let results: Vec<(u64, Option<SimTime>)> = if workers <= 1 {
            shards
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| {
                    shard.drain_epoch(horizon, deadline, budget, wiring, i as u32, oracle)
                })
                .collect()
        } else {
            // Scoped fan-out: shards are data-independent within an epoch
            // (each touches only its own queue/nodes/buffers), so any
            // partition of the shard vector over threads yields identical
            // results; the coordinator's join is the barrier.
            let t = prof.start();
            let chunk = shards.len().div_ceil(workers);
            let out = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(chunk_idx, chunk_shards)| {
                        let base = chunk_idx * chunk;
                        scope.spawn(move || {
                            chunk_shards
                                .iter_mut()
                                .enumerate()
                                .map(|(j, shard)| {
                                    let idx = (base + j) as u32;
                                    shard
                                        .drain_epoch(horizon, deadline, budget, wiring, idx, oracle)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            prof.record(ProfCategory::ShardBarrier, t);
            out
        };
        let events = results.iter().map(|(e, _)| e).sum();
        let last = results.iter().filter_map(|(_, at)| *at).max();
        (events, last)
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> RunReport {
        let deadline = self.clock + span;
        self.run_until(deadline)
    }

    /// Runs until every event queue is empty.
    pub fn run_to_idle(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }
}

impl<M: Message> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("clock", &self.clock)
            .field("shards", &self.shards.len())
            .field("nodes", &self.names)
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceId};

    #[derive(Debug, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Counts received messages; replies until the payload reaches zero.
    struct Counter {
        received: u64,
        timers: u64,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                received: 0,
                timers: 0,
            }
        }
    }

    impl Node<Num> for Counter {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, msg: Num) {
            self.received += 1;
            ctx.metrics().incr("msgs", 1);
            if msg.0 > 0 {
                ctx.send(from, Num(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Num>, _token: TimerToken) {
            self.timers += 1;
        }
    }

    fn two_node_world() -> (World<Num>, NodeId, NodeId) {
        let mut w = World::new(1);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        (w, a, b)
    }

    /// `InstantKeys` must mint exactly what a map of repeat counters,
    /// cleared on every new instant, would — through a 30k-tuple burst at
    /// one instant, the shrink after it, and a generation wrap.
    #[test]
    fn instant_keys_match_the_cleared_map_reference() {
        let mut keys = InstantKeys::default();
        let mut counts: std::collections::HashMap<(u64, u64, u64), u64> = Default::default();
        let mut stamp = None;
        let mut rng = SimRng::seed_from(3);
        let mut now = SimTime::ZERO;
        let mut wrapped = false;
        for step in 0..200_000u32 {
            if step > 30_000 && rng.chance(0.01) {
                now += SimDuration::from_nanos(rng.uniform_u64(1, 1_000));
            }
            let domain = if rng.chance(0.5) {
                MSG_DOMAIN
            } else {
                TIMER_DOMAIN
            };
            let a = rng.uniform_u64(0, 20);
            let b = rng.uniform_u64(0, if step < 30_000 { 5_000 } else { 20 });
            if stamp != Some(now) {
                counts.clear();
                stamp = Some(now);
                if step >= 100_000 && !wrapped {
                    // The next instant's generation bump wraps soon.
                    keys.generation = u32::MAX - 3;
                    wrapped = true;
                }
            }
            let k = counts.entry((domain, a, b)).or_insert(0);
            let expect = mix64(mix64(mix64(mix64(domain ^ now.as_nanos()) ^ a) ^ b) ^ *k);
            *k += 1;
            assert_eq!(keys.next(now, domain, a, b), expect, "step {step}");
        }
        assert!(
            keys.slots.len() <= KEY_TABLE_SHRINK,
            "the burst's table was never released: {} slots",
            keys.slots.len()
        );
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(3));
        let r = w.run_to_idle();
        assert_eq!(r.reason, StopReason::Idle);
        assert_eq!(r.events, 4);
        assert_eq!(w.node::<Counter>(b).received, 2);
        assert_eq!(w.node::<Counter>(a).received, 2);
        assert_eq!(w.metrics().counter("msgs"), 4);
        // 4 deliveries: 1ms propagation + 80ns transfer (8 B at 100 MB/s) each.
        assert_eq!(w.now(), SimTime::from_nanos(4 * (1_000_000 + 80)));
    }

    #[test]
    fn deadline_stops_midway() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(100));
        let r = w.run_until(SimTime::from_millis(5));
        assert_eq!(r.reason, StopReason::Deadline);
        assert_eq!(w.now(), SimTime::from_millis(5));
        assert!(w.pending_events() > 0);
        // Resume where we left off.
        let r2 = w.run_to_idle();
        assert_eq!(r2.reason, StopReason::Idle);
    }

    #[test]
    fn event_cap_halts_runaway() {
        let (mut w, a, b) = two_node_world();
        w.set_event_cap(10);
        w.post(a, b, Num(1_000_000));
        let r = w.run_to_idle();
        assert_eq!(r.reason, StopReason::EventCap);
        assert_eq!(r.events, 10);
    }

    #[test]
    fn timers_fire_on_the_right_node() {
        let (mut w, a, _b) = two_node_world();
        w.schedule_timer(a, SimDuration::from_millis(2), TimerToken::new(1));
        w.schedule_timer(a, SimDuration::from_millis(4), TimerToken::new(2));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(a).timers, 2);
        assert_eq!(w.now(), SimTime::from_millis(4));
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        let run = |seed| {
            let mut w = World::new(seed);
            let a = w.add_node("a", Counter::new());
            let b = w.add_node("b", Counter::new());
            w.connect(
                a,
                b,
                LinkSpec::new(3, SimDuration::from_micros(700))
                    .jitter_mean(SimDuration::from_micros(300)),
            );
            w.post(a, b, Num(50));
            w.run_to_idle();
            w.now()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let mut w = World::new(3);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.connect(
            a,
            b,
            LinkSpec::new(1, SimDuration::from_millis(1)).loss_probability(0.9),
        );
        for _ in 0..100 {
            w.post(a, b, Num(0));
        }
        // post() does not sample loss (it seeds the run); sends from nodes do.
        w.run_to_idle();
        let b_node = w.node::<Counter>(b);
        assert_eq!(b_node.received, 100);
    }

    #[test]
    fn post_counts_traffic_like_node_sends() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(2));
        // The injected message is on the books before the run starts…
        assert_eq!(w.metrics().counter("net.messages"), 1);
        assert_eq!(w.metrics().counter("net.bytes"), 8);
        // …and the two node-sent replies (2 → 1 → 0) accumulate on top,
        // so injected and node-sent traffic share one consistent tally.
        w.run_to_idle();
        assert_eq!(w.metrics().counter("net.messages"), 3);
        assert_eq!(w.metrics().counter("net.bytes"), 24);
    }

    #[test]
    fn node_send_applies_loss() {
        struct Spammer {
            peer: Option<NodeId>,
        }
        impl Node<Num> for Spammer {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    for _ in 0..1000 {
                        ctx.send(peer, Num(0));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("spammer", Spammer { peer: Some(b) });
        w.connect(
            a,
            b,
            LinkSpec::new(1, SimDuration::from_millis(1)).loss_probability(0.5),
        );
        w.run_to_idle();
        let dropped = w.metrics().counter("net.dropped");
        assert!(
            (300..700).contains(&(dropped as usize)),
            "dropped {dropped}"
        );
        assert_eq!(w.node::<Counter>(b).received + dropped, 1000);
    }

    #[test]
    fn fault_link_down_drops_node_sends() {
        use crate::fault::FaultPlan;
        struct Burst {
            peer: Option<NodeId>,
        }
        impl Node<Num> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    for _ in 0..10 {
                        ctx.send(peer, Num(0));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("burst", Burst { peer: Some(b) });
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        w.set_fault_plan(FaultPlan::new().link_down(a, b, SimTime::ZERO, SimTime::from_secs(1)));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(b).received, 0);
        assert_eq!(w.metrics().counter(keys::NET_FAULT_DROPPED), 10);
        assert_eq!(w.metrics().counter(keys::NET_DROPPED), 0);
        assert_eq!(w.metrics().counter(keys::NET_MESSAGES), 0);
    }

    #[test]
    fn fault_delay_spike_postpones_delivery() {
        use crate::fault::FaultPlan;
        struct One {
            peer: Option<NodeId>,
        }
        impl Node<Num> for One {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Num(0));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("one", One { peer: Some(b) });
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        w.set_fault_plan(FaultPlan::new().delay_spike(
            a,
            b,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(5),
        ));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(b).received, 1);
        // 1 ms propagation + 80 ns transfer (8 B at 100 MB/s) + 5 ms spike.
        assert_eq!(w.now(), SimTime::from_nanos(1_000_000 + 80 + 5_000_000));
    }

    #[test]
    fn empty_fault_plan_is_bitwise_invisible() {
        let fp = |with_plan: bool| {
            let mut w = World::new(7);
            let a = w.add_node("a", Counter::new());
            let b = w.add_node("b", Counter::new());
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(300))
                    .loss_probability(0.2),
            );
            if with_plan {
                w.set_fault_plan(crate::fault::FaultPlan::new());
            }
            w.post(a, b, Num(40));
            w.run_to_idle();
            w.fingerprint()
        };
        assert_eq!(fp(false), fp(true));
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn sending_without_link_panics() {
        let mut w: World<Num> = World::new(1);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.post(a, b, Num(1));
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn downcast_to_wrong_type_panics() {
        let (w, a, _) = two_node_world();
        struct Other;
        let _ = w.node::<Other>(a);
    }

    #[test]
    fn names_and_counts() {
        let (w, a, b) = two_node_world();
        assert_eq!(w.node_count(), 2);
        assert_eq!(w.node_name(a), "a");
        assert_eq!(w.node_name(b), "b");
        assert!(format!("{w:?}").contains("World"));
    }

    /// Begins a trace on start, expects the reply and a timer to carry it.
    struct Requester {
        peer: Option<NodeId>,
        root: Option<SpanCtx>,
        reply_had_ctx: bool,
        timer_had_ctx: bool,
    }

    impl Node<Num> for Requester {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            self.root = ctx.begin_trace("fetch");
            if let Some(peer) = self.peer {
                ctx.send(peer, Num(1));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
            self.reply_had_ctx = ctx.span_ctx() == self.root && self.root.is_some();
            ctx.schedule(SimDuration::from_millis(1), TimerToken::new(7));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _token: TimerToken) {
            self.timer_had_ctx = ctx.span_ctx() == self.root && self.root.is_some();
            if let Some(root) = self.root {
                ctx.span_end(root, "fetch");
            }
        }
    }

    /// Opens a child span under whatever context arrived, then replies.
    struct Responder;

    impl Node<Num> for Responder {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, _msg: Num) {
            if let Some(child) = ctx.span_start("serve") {
                ctx.span_end(child, "serve");
            }
            ctx.send(from, Num(0));
        }
    }

    fn traced_pair() -> (World<Num>, NodeId) {
        let mut w = World::new(1);
        let b = w.add_node("b", Responder);
        let a = w.add_node(
            "a",
            Requester {
                peer: Some(b),
                root: None,
                reply_had_ctx: false,
                timer_had_ctx: false,
            },
        );
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        (w, a)
    }

    #[test]
    fn spans_propagate_across_hops_and_timers() {
        let (mut w, a) = traced_pair();
        w.set_trace_config(TraceConfig::enabled());
        w.run_to_idle();
        let requester = w.node::<Requester>(a);
        assert!(requester.reply_had_ctx, "reply lost the span context");
        assert!(requester.timer_had_ctx, "timer lost the span context");

        let events: Vec<(&str, TracePhase, Option<SpanId>)> = w
            .trace()
            .events()
            .map(|e| (e.kind, e.phase, e.parent))
            .collect();
        assert_eq!(
            events,
            vec![
                ("fetch", TracePhase::Start, None),
                // Span ids are node-keyed: the requester is node 1.
                ("serve", TracePhase::Start, Some(SpanId(1 << 32))),
                ("serve", TracePhase::End, None),
                ("fetch", TracePhase::End, None),
            ]
        );
        assert!(w.trace().events().all(|e| e.trace == TraceId(1 << 32)));
        assert_eq!(w.trace().dropped(), 0);
    }

    #[test]
    fn tracing_disabled_records_nothing_and_sets_no_context() {
        let (mut w, a) = traced_pair();
        w.run_to_idle();
        let requester = w.node::<Requester>(a);
        assert_eq!(requester.root, None, "begin_trace must return None");
        assert!(!requester.reply_had_ctx);
        assert!(w.trace().is_empty());
        assert_eq!(w.trace().traces_started(), 0);
    }

    #[test]
    fn begin_trace_clears_inherited_context() {
        /// Starts a fresh trace for every message it receives.
        struct PerMessage {
            roots: Vec<Option<SpanCtx>>,
        }
        impl Node<Num> for PerMessage {
            fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
                self.roots.push(ctx.begin_trace("op"));
            }
        }
        /// Begins a trace on start and sends two messages under it.
        struct TwoSends {
            peer: NodeId,
            root: Option<SpanCtx>,
        }
        impl Node<Num> for TwoSends {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                self.root = ctx.begin_trace("fetch");
                ctx.send(self.peer, Num(0));
                ctx.send(self.peer, Num(0));
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(1);
        let sink = w.add_node("sink", PerMessage { roots: Vec::new() });
        let src = w.add_node(
            "src",
            TwoSends {
                peer: sink,
                root: None,
            },
        );
        w.connect(src, sink, LinkSpec::new(1, SimDuration::from_millis(1)));
        // Sample every 2nd trace of each node: src's root and the sink's
        // first op are kept, the sink's second op is sampled out — and
        // must NOT inherit src's context.
        w.set_trace_config(TraceConfig {
            enabled: true,
            sample_every: 2,
            ..TraceConfig::default()
        });
        w.run_to_idle();
        let src_root = w.node::<TwoSends>(src).root.expect("src root is kept");
        let roots = &w.node::<PerMessage>(sink).roots;
        assert_eq!(roots.len(), 2);
        let first = roots[0].expect("sink's first op is kept");
        assert_ne!(
            first.trace, src_root.trace,
            "a kept op starts its own trace"
        );
        assert_eq!(roots[1], None, "sampled-out trace must clear the context");
    }

    /// Order-insensitive sink: tallies arrivals, ignores who came first.
    struct Tally;
    impl Node<Num> for Tally {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
            ctx.metrics().incr("arrivals", 1);
        }
    }

    /// Order-SENSITIVE sink: records the full arrival order of its peers,
    /// position-weighted so any transposition changes a metric value. This
    /// is the synthetic ordering race the detector must catch.
    struct FirstWins {
        position: u64,
    }
    impl Node<Num> for FirstWins {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, _msg: Num) {
            self.position += 1;
            let weighted = self.position * 100 + from.index() as u64;
            ctx.metrics().observe("arrival.order", weighted as f64);
        }
    }

    /// Star topology: `n` identical zero-jitter links into one sink, one
    /// same-size message posted from each spoke at t=0 — so all arrivals
    /// tie at exactly the same virtual instant.
    fn tied_star(w: &mut World<Num>, sink: NodeId, n: u32) {
        for i in 0..n {
            let src = w.add_node(format!("src{i}"), Tally);
            w.connect(src, sink, LinkSpec::new(1, SimDuration::from_millis(1)));
            w.post(src, sink, Num(0));
        }
    }

    #[test]
    fn check_determinism_passes_on_order_insensitive_scenario() {
        let report = World::check_determinism(11, 4, |w| {
            let sink = w.add_node("sink", Tally);
            tied_star(w, sink, 8);
            w.run_to_idle();
        });
        assert!(report.is_deterministic(), "{report}");
        assert_eq!(report.runs.len(), 4);
    }

    #[test]
    fn check_determinism_flags_ordering_dependent_node() {
        let report = World::check_determinism(11, 4, |w| {
            let sink = w.add_node("sink", FirstWins { position: 0 });
            tied_star(w, sink, 8);
            w.run_to_idle();
        });
        assert!(
            !report.is_deterministic(),
            "an 8-way tie feeding an order-sensitive node must diverge"
        );
        assert!(!report.divergent_keys().is_empty());
        assert!(format!("{report}").contains("ORDERING RACE"));
        // Only the metric content differs: same events, same final clock.
        for run in &report.runs {
            assert_eq!(run.fingerprint.events, report.baseline.events);
            assert_eq!(run.fingerprint.clock_ns, report.baseline.clock_ns);
        }
    }

    #[test]
    fn fingerprint_is_stable_across_identical_runs() {
        let fp = |seed| {
            let mut w = World::new(seed);
            let a = w.add_node("a", Tally);
            let b = w.add_node("b", Tally);
            // Jitter makes the arrival time — hence the fingerprint — a
            // function of the seed, not just the topology.
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(100)),
            );
            w.post(a, b, Num(0));
            w.run_to_idle();
            w.fingerprint()
        };
        assert_eq!(fp(5), fp(5));
        assert_ne!(fp(5), fp(6));
    }

    #[test]
    fn profiler_does_not_change_fingerprints() {
        let fp = |profile: bool| {
            let mut w = World::new(5);
            if profile {
                w.enable_profiler();
            }
            w.set_trace_config(TraceConfig::enabled());
            let a = w.add_node("a", Tally);
            let b = w.add_node("b", Tally);
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(100)),
            );
            w.post(a, b, Num(0));
            w.run_to_idle();
            (w.fingerprint(), w.profile_report())
        };
        let (fp_off, report_off) = fp(false);
        let (fp_on, report_on) = fp(true);
        assert_eq!(fp_off, fp_on, "profiling must not perturb sim state");
        // Off = all-zero attribution; on = the loop charged something.
        assert!(!report_off.enabled);
        assert_eq!(report_off.loop_nanos(), 0);
        assert!(report_on.enabled);
        assert!(report_on.calls(ProfCategory::Dispatch) > 0);
        assert!(report_on.calls(ProfCategory::QueuePop) > 0);
        assert!(report_on.calls(ProfCategory::Metrics) > 0);
    }

    #[test]
    fn metrics_config_flows_into_new_histograms() {
        let mut w: World<Num> = World::new(1);
        w.set_metrics_config(MetricsConfig {
            histogram_mode: crate::metrics::HistogramMode::Sketch,
            ..MetricsConfig::default()
        });
        w.metrics_mut().observe("h", 2.0);
        assert!(w.metrics().histogram("h").unwrap().is_sketch());
    }

    #[test]
    #[should_panic(expected = "before the run starts")]
    fn metrics_config_rejected_after_start() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(0));
        w.run_to_idle();
        w.set_metrics_config(MetricsConfig::default());
    }

    #[test]
    #[should_panic(expected = "before any event")]
    fn tie_perturbation_rejected_after_scheduling() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(0));
        w.set_tie_perturbation(1);
    }

    #[test]
    fn run_for_advances_relative_span() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(0));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.now(), SimTime::from_millis(10));
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.now(), SimTime::from_millis(15));
    }
}
