//! Measurement collection for simulation runs.
//!
//! Nodes record observations into a [`Metrics`] registry owned by the
//! [`World`](crate::World). After a run completes, experiment harnesses read
//! counters, latency histograms and resource time series out of the registry
//! to produce the paper's tables and figures.
//!
//! ## Fixed-memory mode
//!
//! The registry has two operating points, selected by [`MetricsConfig`]
//! before a run records anything:
//!
//! * **Exact-compat** (default): histograms store every sample in a
//!   `Vec<f64>` and series grow unbounded — bitwise identical behavior to
//!   the seed registry, which every committed artifact and fingerprint
//!   pins.
//! * **Sketch**: histograms become fixed-size log-bucketed sketches
//!   (HDR-style — see [`Histogram`]) and series are bounded by
//!   deterministic decimation, so memory is O(1) per metric no matter how
//!   many observations arrive. The frozen seed histogram lives on as
//!   [`crate::reference::ExactHistogram`] and can shadow every live sketch
//!   as a differential oracle ([`MetricsConfig::sketch_oracle`]).
//!
//! Independently of the mode, hot-path recording is allocation-free when
//! callers use interned [`MetricId`]s ([`Metrics::incr_id`],
//! [`Metrics::observe_id`], [`Metrics::record_point_id`]): ids index
//! straight into slot vectors, skipping both the string hash and the
//! `String` key allocation. The string API remains for dynamic names and
//! is itself allocation-free on the existing-key path.

use std::collections::BTreeMap;
use std::fmt;
// Metrics can time their own recording cost for the sim-loop self-profiler
// (`World::enable_profiler`); host time never feeds back into sim state.
use std::time::Instant;

use crate::reference::ExactHistogram;
use crate::time::SimTime;

/// Metric names owned by the simulator itself.
///
/// Application-level names (`ap.*`, `client.*`, `edge.*`) live with the
/// protocol crate (`ape_proto::names`), which re-exports these network
/// constants so harness code can import every key from one module.
pub mod keys {
    /// Messages that entered the network (sent or injected).
    pub const NET_MESSAGES: &str = "net.messages";
    /// Total wire bytes that entered the network.
    pub const NET_BYTES: &str = "net.bytes";
    /// Messages dropped by link loss.
    pub const NET_DROPPED: &str = "net.dropped";
    /// Messages dropped by an injected fault window (link-down or loss
    /// burst from a [`FaultPlan`](crate::FaultPlan)); disjoint from
    /// [`NET_DROPPED`] so experiments can tell scheduled faults from
    /// steady-state radio loss.
    pub const NET_FAULT_DROPPED: &str = "net.fault_dropped";

    /// Interned [`MetricId`](crate::MetricId)s for the simulator's own
    /// metric names, used by the `World` send path so per-message
    /// accounting allocates nothing.
    ///
    /// Indices 0..[`FIRST_FREE_INDEX`](id::FIRST_FREE_INDEX) are reserved
    /// here; `ape_proto::names::id` continues the same index space for
    /// application-level names. Every registry shares one space, so a
    /// given index must mean the same name everywhere (enforced by a
    /// debug assertion on slot access and the uniqueness tests in both
    /// crates).
    pub mod id {
        use crate::metrics::MetricId;

        /// Interned [`NET_MESSAGES`](super::NET_MESSAGES).
        pub const NET_MESSAGES: MetricId = MetricId::new(0, super::NET_MESSAGES);
        /// Interned [`NET_BYTES`](super::NET_BYTES).
        pub const NET_BYTES: MetricId = MetricId::new(1, super::NET_BYTES);
        /// Interned [`NET_DROPPED`](super::NET_DROPPED).
        pub const NET_DROPPED: MetricId = MetricId::new(2, super::NET_DROPPED);
        /// Interned [`NET_FAULT_DROPPED`](super::NET_FAULT_DROPPED).
        pub const NET_FAULT_DROPPED: MetricId = MetricId::new(3, super::NET_FAULT_DROPPED);
        /// First slot index not claimed by the simulator; downstream
        /// registries (`ape_proto::names::id`) start here.
        pub const FIRST_FREE_INDEX: u16 = 4;
    }
}

/// An interned metric name: a compile-time `(slot index, name)` pair.
///
/// Recording through an id ([`Metrics::incr_id`] and friends) indexes a
/// slot vector directly instead of hashing and possibly allocating a
/// `String` key, which is what makes the hot path allocation-free. Ids are
/// declared as `const`s next to the name constants they intern
/// ([`keys::id`] here, `ape_proto::names::id` for application names); the
/// index space is global across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId {
    index: u16,
    name: &'static str,
}

impl MetricId {
    /// Creates an id binding `index` to `name`. Callers must keep the
    /// index unique across the workspace-wide registry (see [`keys::id`]).
    pub const fn new(index: u16, name: &'static str) -> Self {
        MetricId { index, name }
    }

    /// The slot index.
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// The interned name.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// How [`Metrics`] stores histogram observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HistogramMode {
    /// Seed behavior: every sample stored exactly in a `Vec<f64>`.
    /// Unbounded memory, exact quantiles, bitwise identical to the
    /// registry every committed artifact was produced with.
    #[default]
    ExactCompat,
    /// Fixed-memory log-bucketed sketch (see [`Histogram`] for the bucket
    /// layout and error bound). O(1) memory per histogram.
    Sketch,
}

/// Registry-wide configuration, applied via [`Metrics::set_config`] (or
/// [`World::set_metrics_config`](crate::World::set_metrics_config)) before
/// anything is recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Histogram storage mode for histograms the registry creates.
    pub histogram_mode: HistogramMode,
    /// In [`HistogramMode::Sketch`], shadow every live sketch with a
    /// frozen [`ExactHistogram`] and assert each quantile query against it
    /// (the PR 4/6 live-oracle pattern). Costs the exact histogram's
    /// memory again — for differential testing, not production runs.
    pub sketch_oracle: bool,
    /// Soft bound on stored points per [`TimeSeries`]; `0` (default) keeps
    /// every point (seed behavior). When set, a series that exceeds the
    /// bound is decimated deterministically (every other interior point
    /// dropped, endpoints kept), halving its resolution; aggregate queries
    /// (`mean`, `max`) are maintained incrementally over *all* recorded
    /// points and stay exact regardless.
    pub series_capacity: usize,
}

// ---------------------------------------------------------------------------
// Sketch bucket layout.
//
// Observations are latencies in milliseconds (and other non-negative
// meters), so the layout spends its precision where the paper's claims
// live — sub-millisecond:
//
//   * linear region: 1024 buckets of width 1/1024 covering [0, 1);
//     absolute error <= 1/2048 per bucket midpoint.
//   * log region: for v >= 1, bucket = (exponent, top 6 mantissa bits),
//     i.e. 64 sub-buckets per power of two, exponents 0..=40 (values up
//     to 2^41 ~ 2.2e12 ms; larger values clamp into the top bucket).
//     Relative error <= 1/128 < 1% per bucket midpoint.
//
// Bucketing is pure integer bit math on the IEEE-754 representation — no
// `ln()`/`log2()` on the hot path, and bucket indices are deterministic
// bitwise functions of the sample.
// ---------------------------------------------------------------------------

const LINEAR_BUCKETS: usize = 1024;
const SUB_BUCKETS: usize = 64;
const MAX_EXPONENT: usize = 40;
const LOG_BUCKETS: usize = (MAX_EXPONENT + 1) * SUB_BUCKETS;
const SKETCH_BUCKETS: usize = LINEAR_BUCKETS + LOG_BUCKETS;

/// Bucket index for a finite sample. Negative values clamp into bucket 0
/// (the registry's producers record non-negative meters; `min`/`max`/`sum`
/// still track the true values).
fn sketch_bucket(value: f64) -> usize {
    let v = if value > 0.0 { value } else { 0.0 };
    if v < 1.0 {
        // v * 1024 < 1024, so the floor is always a valid linear index.
        (v * LINEAR_BUCKETS as f64) as usize
    } else {
        let bits = v.to_bits();
        let e = ((bits >> 52) & 0x7ff) as usize - 1023;
        let sub = ((bits >> 46) & 0x3f) as usize;
        let log_index = if e > MAX_EXPONENT {
            LOG_BUCKETS - 1
        } else {
            e * SUB_BUCKETS + sub
        };
        LINEAR_BUCKETS + log_index
    }
}

/// Midpoint representative of a bucket, the value quantile queries report
/// (clamped to the exact observed `[min, max]` by the caller).
fn sketch_representative(index: usize) -> f64 {
    if index < LINEAR_BUCKETS {
        (index as f64 + 0.5) / LINEAR_BUCKETS as f64
    } else {
        let li = index - LINEAR_BUCKETS;
        let e = (li / SUB_BUCKETS) as u64;
        let sub = (li % SUB_BUCKETS) as f64;
        // 2^e via exponent-field construction: deterministic bit math, no
        // powi in sight.
        let scale = f64::from_bits((e + 1023) << 52);
        (1.0 + (sub + 0.5) / SUB_BUCKETS as f64) * scale
    }
}

/// Fixed bucket array of a sketch histogram. Debug output summarizes
/// occupancy instead of dumping 3648 counters into assertion messages.
#[derive(Clone, PartialEq)]
struct SketchBuckets(Box<[u64; SKETCH_BUCKETS]>);

impl SketchBuckets {
    fn new() -> Self {
        SketchBuckets(Box::new([0u64; SKETCH_BUCKETS]))
    }
}

impl fmt::Debug for SketchBuckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occupied = self.0.iter().filter(|&&c| c != 0).count();
        write!(f, "SketchBuckets({occupied}/{SKETCH_BUCKETS} occupied)")
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Exact { samples: Vec<f64>, sorted: bool },
    Sketch { buckets: SketchBuckets },
}

/// A set of latency samples with percentile queries.
///
/// Two storage modes (see [`HistogramMode`]):
///
/// * **Exact** ([`Histogram::new`], the default): samples stored exactly
///   in a `Vec<f64>`, quantiles by lazy sort + nearest rank — the seed
///   behavior, bitwise-pinned by committed artifacts.
/// * **Sketch** ([`Histogram::new_sketch`]): a fixed array of 3648
///   buckets — 1024 linear buckets over `[0, 1)` (absolute error
///   ≤ 1/2048) plus 64 log sub-buckets per power of two up to 2^41
///   (relative error ≤ 1/128 < 1%). Memory is constant no matter how
///   many samples arrive, and merge/digest are order-independent by
///   construction.
///
/// In both modes `count`/`sum`/`min`/`max` are maintained incrementally
/// on `record`/`merge` (O(1) queries, no O(n) scans), and the sums are
/// bitwise identical to the seed's insertion-order `iter().sum()` folds.
///
/// # Examples
///
/// ```
/// use ape_simnet::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    repr: Repr,
    count: u64,
    /// Incremental sum. Starts at `-0.0` so the accumulation is bitwise
    /// identical to `iter().sum::<f64>()`, which folds from `-0.0`.
    sum: f64,
    lo: f64,
    hi: f64,
    /// Non-finite observations rejected by [`record`](Self::record).
    dropped: u64,
    /// Live differential oracle ([`MetricsConfig::sketch_oracle`]):
    /// mirrors every record/merge and asserts on quantile queries.
    oracle: Option<Box<ExactHistogram>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty exact histogram (seed-compatible storage).
    pub fn new() -> Self {
        Histogram {
            repr: Repr::Exact {
                samples: Vec::new(),
                sorted: false,
            },
            count: 0,
            sum: -0.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            dropped: 0,
            oracle: None,
        }
    }

    /// Creates an empty fixed-memory sketch histogram. With `oracle` set,
    /// a frozen [`ExactHistogram`] shadows every observation and each
    /// quantile query is asserted against it (differential testing only —
    /// the oracle re-introduces the exact histogram's memory cost).
    pub fn new_sketch(oracle: bool) -> Self {
        Histogram {
            repr: Repr::Sketch {
                buckets: SketchBuckets::new(),
            },
            count: 0,
            sum: -0.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            dropped: 0,
            oracle: oracle.then(|| Box::new(ExactHistogram::new())),
        }
    }

    /// Whether this histogram uses the fixed-memory sketch representation.
    pub fn is_sketch(&self) -> bool {
        matches!(self.repr, Repr::Sketch { .. })
    }

    /// Records one observation.
    ///
    /// A non-finite value is a bug in the producer (latencies and meter
    /// readings are always finite): debug builds panic on one, release
    /// builds drop it and count it in
    /// [`dropped_samples`](Self::dropped_samples) so the corruption stays
    /// visible instead of poisoning [`quantile`](Self::quantile).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.count += 1;
            self.sum += value;
            self.lo = self.lo.min(value);
            self.hi = self.hi.max(value);
            match &mut self.repr {
                Repr::Exact { samples, sorted } => {
                    samples.push(value);
                    *sorted = false;
                }
                Repr::Sketch { buckets } => buckets.0[sketch_bucket(value)] += 1,
            }
        } else {
            debug_assert!(false, "non-finite histogram sample: {value}");
            self.dropped += 1;
        }
        if let Some(oracle) = &mut self.oracle {
            oracle.record(value);
        }
    }

    /// Number of non-finite observations rejected by
    /// [`record`](Self::record) (release builds only; debug builds panic
    /// at the offending `record` call instead).
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0.0 when empty. O(1): the sum is maintained
    /// incrementally and matches the seed's query-time fold bitwise.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or 0.0 when empty. O(1).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.lo
        }
    }

    /// Largest observation, or 0.0 when empty. O(1).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.hi
        }
    }

    /// Sum of all observations, or 0.0 when empty — bitwise identical to
    /// the seed's insertion-order `iter().sum::<f64>()` fold. O(1).
    pub fn sum(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// Returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        self.quantile(p / 100.0)
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`.
    ///
    /// Returns 0.0 when empty. Exact histograms sort lazily and answer
    /// exactly; sketches walk the bucket array and answer the bucket
    /// midpoint clamped to the observed `[min, max]` (relative error ≤ 1%
    /// in the log region, absolute error ≤ 1/2048 below 1.0). With a live
    /// oracle attached, the sketch answer is asserted against the exact
    /// one on every call.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`, or if an attached oracle detects
    /// divergence beyond the error bound.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let result = if let Repr::Exact { samples, sorted } = &mut self.repr {
            if !*sorted {
                // `total_cmp` is a total order on f64, so sorting cannot
                // panic even if a non-finite sample ever slipped in.
                samples.sort_by(f64::total_cmp);
                *sorted = true;
            }
            let n = samples.len();
            let rank = (q * n as f64).ceil() as usize;
            samples[rank.clamp(1, n) - 1]
        } else {
            self.sketch_quantile(q)
        };
        if let Some(oracle) = &mut self.oracle {
            let exact = oracle.quantile(q);
            let tol = (0.01 * exact.abs()).max(1.0 / LINEAR_BUCKETS as f64) + 1e-9;
            assert!(
                (result - exact).abs() <= tol,
                "sketch quantile diverged from exact oracle: \
                 q={q} sketch={result} exact={exact} tol={tol}"
            );
        }
        result
    }

    /// Non-mutating quantile: identical answer to [`quantile`]
    /// (Self::quantile) but leaves lazy-sort state and the oracle
    /// untouched (exact unsorted histograms sort a copy). Used by
    /// `Display` and other `&self` readers; prefer `quantile` on hot
    /// query paths.
    pub fn quantile_snapshot(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        match &self.repr {
            Repr::Exact { samples, sorted } => {
                let n = samples.len();
                let rank = (q * n as f64).ceil() as usize;
                let idx = rank.clamp(1, n) - 1;
                if *sorted {
                    samples[idx]
                } else {
                    let mut copy = samples.clone();
                    copy.sort_by(f64::total_cmp);
                    copy[idx]
                }
            }
            Repr::Sketch { .. } => self.sketch_quantile(q),
        }
    }

    fn sketch_quantile(&self, q: f64) -> f64 {
        let Repr::Sketch { buckets } = &self.repr else {
            unreachable!("sketch_quantile on exact histogram");
        };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in buckets.0.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                // The rank-th smallest sample landed in this bucket; its
                // midpoint is within the error bound, and clamping to the
                // exact observed extremes can only move it closer.
                return sketch_representative(i).clamp(self.lo, self.hi);
            }
        }
        self.hi
    }

    /// Median (50th percentile).
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// All recorded samples, in insertion or sorted order. Exact
    /// histograms only: a sketch does not retain samples and returns the
    /// empty slice.
    pub fn samples(&self) -> &[f64] {
        match &self.repr {
            Repr::Exact { samples, .. } => samples,
            Repr::Sketch { .. } => &[],
        }
    }

    /// Merges another histogram's samples (and dropped-sample count) into
    /// this one.
    ///
    /// Exact absorbs exact (sample vectors concatenate, sums fold in the
    /// other's insertion order so the result is bitwise identical to
    /// recording the pooled sequence); sketch absorbs sketch (bucket
    /// arrays add element-wise — order-independent) and exact (samples
    /// replayed through the bucketing).
    ///
    /// # Panics
    ///
    /// Panics when an exact histogram is asked to absorb a sketch: the
    /// sketch no longer has the samples an exact merge is defined over.
    /// Registries that merge (trial pooling) must share a
    /// [`HistogramMode`].
    pub fn merge(&mut self, other: &Histogram) {
        match (&mut self.repr, &other.repr) {
            (Repr::Exact { samples, sorted }, Repr::Exact { samples: os, .. }) => {
                samples.extend_from_slice(os);
                *sorted = false;
            }
            (Repr::Sketch { buckets }, Repr::Sketch { buckets: ob }) => {
                for (d, s) in buckets.0.iter_mut().zip(ob.0.iter()) {
                    *d += s;
                }
            }
            (Repr::Sketch { buckets }, Repr::Exact { samples: os, .. }) => {
                for &s in os.iter() {
                    buckets.0[sketch_bucket(s)] += 1;
                }
            }
            (Repr::Exact { .. }, Repr::Sketch { .. }) => panic!(
                "cannot merge a sketch histogram into an exact histogram \
                 (sketches do not retain samples); configure both registries \
                 with the same HistogramMode"
            ),
        }
        if let (Repr::Exact { .. }, Repr::Exact { samples: os, .. }) = (&self.repr, &other.repr) {
            for &s in os.iter() {
                self.sum += s;
            }
        } else {
            self.sum += other.sum;
        }
        self.count += other.count;
        self.dropped += other.dropped;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        let drop_oracle = match (&mut self.oracle, &other.oracle) {
            (Some(mine), Some(theirs)) => {
                mine.merge(theirs);
                false
            }
            (Some(mine), None) => {
                if let Repr::Exact { samples, .. } = &other.repr {
                    // An oracle-less exact source still has its samples;
                    // replay them so the oracle keeps tracking. (Its
                    // dropped count may lag — it only gates quantiles.)
                    for &s in samples.iter() {
                        mine.record(s);
                    }
                    false
                } else {
                    // An oracle-less sketch source cannot be reconstructed;
                    // drop the oracle rather than assert against a
                    // histogram it no longer mirrors.
                    true
                }
            }
            (None, _) => false,
        };
        if drop_oracle {
            self.oracle = None;
        }
    }

    /// Order-independent fold over the content of the histogram `parts`
    /// would [`merge`](Self::merge) into (in order), for
    /// [`Metrics::digest`] — computed without building the merged
    /// histogram. Exact histograms fold sample bit patterns (the seed
    /// digest, byte for byte, and additive across parts); sketches fold
    /// occupied `(bucket, count)` pairs plus totals — deterministic and
    /// invariant under tie-perturbation because bucket indices are bitwise
    /// functions of the samples.
    ///
    /// # Panics
    ///
    /// Panics where [`merge`](Self::merge) would: an exact first part
    /// cannot absorb a sketch.
    fn merged_fold(parts: &[&Histogram]) -> u64 {
        use crate::rng::mix64;
        let exact_fold = |samples: &[f64]| {
            samples
                .iter()
                .fold(0u64, |acc, s| acc.wrapping_add(mix64(s.to_bits())))
        };
        if let Repr::Exact { .. } = parts[0].repr {
            return parts.iter().fold(0u64, |acc, h| match &h.repr {
                Repr::Exact { samples, .. } => acc.wrapping_add(exact_fold(samples)),
                Repr::Sketch { .. } => {
                    panic!("cannot merge a sketch histogram into an exact histogram")
                }
            });
        }
        let mut counts = vec![0u64; SKETCH_BUCKETS];
        let (mut total, mut dropped) = (0u64, 0u64);
        for h in parts {
            match &h.repr {
                Repr::Sketch { buckets } => {
                    for (d, s) in counts.iter_mut().zip(buckets.0.iter()) {
                        *d += s;
                    }
                }
                Repr::Exact { samples, .. } => {
                    for &s in samples {
                        counts[sketch_bucket(s)] += 1;
                    }
                }
            }
            total += h.count;
            dropped += h.dropped;
        }
        let mut fold = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c != 0 {
                fold = fold.wrapping_add(mix64(mix64(i as u64).wrapping_add(c)));
            }
        }
        fold = fold.wrapping_add(mix64(total));
        fold.wrapping_add(mix64(!dropped))
    }

    /// Approximate heap footprint in bytes (sample buffer or bucket
    /// array, plus any attached oracle) — the `bench-metrics` memory
    /// column.
    pub fn approx_bytes(&self) -> usize {
        let repr = match &self.repr {
            Repr::Exact { samples, .. } => samples.capacity() * std::mem::size_of::<f64>(),
            Repr::Sketch { .. } => SKETCH_BUCKETS * std::mem::size_of::<u64>(),
        };
        repr + self.oracle.as_ref().map_or(0, |o| o.approx_bytes())
    }
}

/// A time series of `(time, value)` points, e.g. CPU utilization samples.
///
/// Aggregates (`mean`, `max`) are maintained incrementally over every
/// recorded point, bitwise identical to the seed's query-time folds. With a
/// capacity bound ([`MetricsConfig::series_capacity`]), stored points are
/// decimated deterministically once the bound is exceeded — resolution
/// halves, but the aggregates keep covering the full-resolution stream
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    /// Soft bound on stored points; 0 = unbounded (seed behavior).
    capacity: usize,
    /// Points ever recorded (>= `points.len()` once decimation kicks in).
    recorded: u64,
    /// Incremental value sum; starts at `-0.0` to match `Sum for f64`.
    sum: f64,
    vmax: f64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new()
    }
}

impl TimeSeries {
    /// Creates an empty, unbounded series.
    pub fn new() -> Self {
        TimeSeries::with_capacity(0)
    }

    /// Creates an empty series keeping at most ~`capacity` points
    /// (`0` = unbounded). Bounds below 2 are treated as 2: decimation
    /// always keeps both endpoints.
    pub fn with_capacity(capacity: usize) -> Self {
        TimeSeries {
            points: Vec::new(),
            capacity,
            recorded: 0,
            sum: -0.0,
            vmax: f64::NEG_INFINITY,
        }
    }

    /// Appends a point. Points should be appended in time order.
    pub fn record(&mut self, at: SimTime, value: f64) {
        self.recorded += 1;
        self.sum += value;
        self.vmax = self.vmax.max(value);
        self.points.push((at, value));
        if self.capacity > 0 && self.points.len() > self.capacity.max(2) {
            self.decimate();
        }
    }

    /// Halves stored resolution: keeps even-indexed points plus the final
    /// one. Deterministic in the insertion sequence alone.
    fn decimate(&mut self) {
        let n = self.points.len();
        let mut w = 0;
        for r in 0..n {
            if r % 2 == 0 || r == n - 1 {
                self.points[w] = self.points[r];
                w += 1;
            }
        }
        self.points.truncate(w);
    }

    /// All stored points (the full record, unless a capacity bound forced
    /// decimation).
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Number of points ever recorded (ignores decimation).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Mean of the values, or 0.0 when empty. O(1), over every recorded
    /// point (decimation does not skew it).
    pub fn mean(&self) -> f64 {
        if self.recorded == 0 {
            0.0
        } else {
            self.sum / self.recorded as f64
        }
    }

    /// Maximum value, or 0.0 when empty. O(1), over every recorded point.
    pub fn max(&self) -> f64 {
        if self.recorded == 0 {
            0.0
        } else {
            self.vmax
        }
    }

    /// Approximate heap footprint of the stored points in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<(SimTime, f64)>()
    }
}

/// Host-time self-accounting for the registry (the sim-loop profiler's
/// `metrics.record` category). Off by default: every hook is one branch.
#[derive(Debug, Clone, Default)]
struct SelfProfile {
    enabled: bool,
    nanos: u64,
    calls: u64,
}

impl SelfProfile {
    #[inline]
    fn start(&self) -> Option<Instant> {
        if self.enabled {
            // ape-lint: allow(wall-clock) -- measures the metrics plane's own host-CPU cost; the reading is reported, never fed back into simulated state
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn stop(&mut self, started: Option<Instant>) {
        if let Some(t) = started {
            self.nanos += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.calls += 1;
        }
    }
}

/// An interned metric's storage: the id's name plus its value.
#[derive(Debug, Clone)]
struct Slot<T> {
    name: &'static str,
    value: T,
}

/// Central metric registry for a simulation run.
///
/// Metrics are keyed by string names; harnesses use stable, documented
/// names such as `"client.lookup_latency_ms"`. Names interned as
/// [`MetricId`]s additionally get a dedicated slot, making the `*_id`
/// recording paths allocation- and hash-free; a name lives in exactly one
/// place (string map or slot — first `*_id` use migrates it), and every
/// read API, the digest, `Display` and `merge` see the union.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
    counter_slots: Vec<Option<Slot<u64>>>,
    hist_slots: Vec<Option<Slot<Histogram>>>,
    series_slots: Vec<Option<Slot<TimeSeries>>>,
    config: MetricsConfig,
    profile: SelfProfile,
}

impl Metrics {
    /// Creates an empty registry with the default (exact-compat) config.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Sets the registry configuration. Must be called before anything is
    /// recorded: histograms and series capture their storage mode at
    /// creation.
    ///
    /// # Panics
    ///
    /// Panics if any metric has already been recorded.
    pub fn set_config(&mut self, config: MetricsConfig) {
        assert!(
            self.is_unused(),
            "metrics config must be set before any metric is recorded"
        );
        self.config = config;
    }

    /// The active configuration.
    pub fn config(&self) -> &MetricsConfig {
        &self.config
    }

    /// Whether nothing has been recorded yet.
    pub fn is_unused(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
            && self.counter_slots.is_empty()
            && self.hist_slots.is_empty()
            && self.series_slots.is_empty()
    }

    /// Turns on self-profiling: recording paths accumulate their own host
    /// time for the sim-loop profiler's `metrics.record` row.
    pub fn enable_self_profile(&mut self) {
        self.profile.enabled = true;
    }

    /// Accumulated `(nanos, calls)` of self-profiled recording time.
    pub fn self_profile(&self) -> (u64, u64) {
        (self.profile.nanos, self.profile.calls)
    }

    fn histogram_for(config: &MetricsConfig) -> Histogram {
        match config.histogram_mode {
            HistogramMode::ExactCompat => Histogram::new(),
            HistogramMode::Sketch => Histogram::new_sketch(config.sketch_oracle),
        }
    }

    fn series_for(config: &MetricsConfig) -> TimeSeries {
        TimeSeries::with_capacity(config.series_capacity)
    }

    fn new_histogram(&self) -> Histogram {
        Metrics::histogram_for(&self.config)
    }

    fn new_series(&self) -> TimeSeries {
        Metrics::series_for(&self.config)
    }

    // --- counters ---------------------------------------------------------

    /// Adds `delta` to the named counter, creating it at zero first.
    /// Allocation-free when the counter already exists (borrowed lookup
    /// before any `to_owned`).
    pub fn incr(&mut self, name: &str, delta: u64) {
        let t = self.profile.start();
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else if let Some(slot) = self
            .counter_slots
            .iter_mut()
            .flatten()
            .find(|s| s.name == name)
        {
            slot.value += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
        self.profile.stop(t);
    }

    /// Adds `delta` to the counter interned as `id`: a direct slot index,
    /// no hashing, no allocation.
    pub fn incr_id(&mut self, id: MetricId, delta: u64) {
        let t = self.profile.start();
        if let Some(Some(slot)) = self.counter_slots.get_mut(id.index()) {
            debug_assert_eq!(slot.name, id.name(), "metric id index collision");
            slot.value += delta;
        } else {
            self.register_counter(id.index(), id.name()).value += delta;
        }
        self.profile.stop(t);
    }

    #[cold]
    fn register_counter(&mut self, index: usize, name: &'static str) -> &mut Slot<u64> {
        if self.counter_slots.len() <= index {
            self.counter_slots.resize_with(index + 1, || None);
        }
        if self.counter_slots[index].is_none() {
            // Migrate any earlier string-API recording of the same name so
            // it never exists in both places.
            let migrated = self.counters.remove(name).unwrap_or(0);
            self.counter_slots[index] = Some(Slot {
                name,
                value: migrated,
            });
        }
        let slot = self.counter_slots[index].as_mut().expect("just ensured");
        debug_assert_eq!(slot.name, name, "metric id index collision");
        slot
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or_else(|| {
            self.counter_slots
                .iter()
                .flatten()
                .find(|s| s.name == name)
                .map_or(0, |s| s.value)
        })
    }

    /// Current value of an interned counter (0 if never incremented).
    pub fn counter_id(&self, id: MetricId) -> u64 {
        match self.counter_slots.get(id.index()) {
            Some(Some(slot)) => slot.value,
            _ => self.counters.get(id.name()).copied().unwrap_or(0),
        }
    }

    // --- histograms -------------------------------------------------------

    /// Records an observation into the named histogram. Allocation-free
    /// when the histogram already exists.
    pub fn observe(&mut self, name: &str, value: f64) {
        let t = self.profile.start();
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else if let Some(slot) = self
            .hist_slots
            .iter_mut()
            .flatten()
            .find(|s| s.name == name)
        {
            slot.value.record(value);
        } else {
            let mut h = self.new_histogram();
            h.record(value);
            self.histograms.insert(name.to_owned(), h);
        }
        self.profile.stop(t);
    }

    /// Records an observation into the histogram interned as `id`: a
    /// direct slot index, no hashing, no allocation.
    pub fn observe_id(&mut self, id: MetricId, value: f64) {
        let t = self.profile.start();
        if let Some(Some(slot)) = self.hist_slots.get_mut(id.index()) {
            debug_assert_eq!(slot.name, id.name(), "metric id index collision");
            slot.value.record(value);
        } else {
            self.register_histogram(id.index(), id.name())
                .value
                .record(value);
        }
        self.profile.stop(t);
    }

    #[cold]
    fn register_histogram(&mut self, index: usize, name: &'static str) -> &mut Slot<Histogram> {
        if self.hist_slots.len() <= index {
            self.hist_slots.resize_with(index + 1, || None);
        }
        if self.hist_slots[index].is_none() {
            let migrated = self.histograms.remove(name);
            let value = match migrated {
                Some(h) => h,
                None => self.new_histogram(),
            };
            self.hist_slots[index] = Some(Slot { name, value });
        }
        let slot = self.hist_slots[index].as_mut().expect("just ensured");
        debug_assert_eq!(slot.name, name, "metric id index collision");
        slot
    }

    /// Read access to a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name).or_else(|| {
            self.hist_slots
                .iter()
                .flatten()
                .find(|s| s.name == name)
                .map(|s| &s.value)
        })
    }

    /// Read access to an interned histogram, if it exists.
    pub fn histogram_id(&self, id: MetricId) -> Option<&Histogram> {
        match self.hist_slots.get(id.index()) {
            Some(Some(slot)) => Some(&slot.value),
            _ => self.histograms.get(id.name()),
        }
    }

    /// Mutable access (needed for percentile queries, which sort lazily).
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        if self.histograms.contains_key(name) {
            return self.histograms.get_mut(name);
        }
        self.hist_slots
            .iter_mut()
            .flatten()
            .find(|s| s.name == name)
            .map(|s| &mut s.value)
    }

    /// Mean of a histogram, or 0.0 if absent.
    pub fn mean(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, Histogram::mean)
    }

    /// Percentile of a histogram, or 0.0 if absent.
    pub fn percentile(&mut self, name: &str, p: f64) -> f64 {
        self.histogram_mut(name).map_or(0.0, |h| h.percentile(p))
    }

    /// Quantile (`q` in `[0, 1]`) of a histogram, or 0.0 if absent.
    pub fn quantile(&mut self, name: &str, q: f64) -> f64 {
        self.histogram_mut(name).map_or(0.0, |h| h.quantile(q))
    }

    // --- time series ------------------------------------------------------

    /// Appends a point to the named time series. Allocation-free when the
    /// series already exists.
    pub fn record_point(&mut self, name: &str, at: SimTime, value: f64) {
        let t = self.profile.start();
        if let Some(s) = self.series.get_mut(name) {
            s.record(at, value);
        } else if let Some(slot) = self
            .series_slots
            .iter_mut()
            .flatten()
            .find(|s| s.name == name)
        {
            slot.value.record(at, value);
        } else {
            let mut s = self.new_series();
            s.record(at, value);
            self.series.insert(name.to_owned(), s);
        }
        self.profile.stop(t);
    }

    /// Appends a point to the series interned as `id`: a direct slot
    /// index, no hashing, no allocation.
    pub fn record_point_id(&mut self, id: MetricId, at: SimTime, value: f64) {
        let t = self.profile.start();
        if let Some(Some(slot)) = self.series_slots.get_mut(id.index()) {
            debug_assert_eq!(slot.name, id.name(), "metric id index collision");
            slot.value.record(at, value);
        } else {
            self.register_series(id.index(), id.name())
                .value
                .record(at, value);
        }
        self.profile.stop(t);
    }

    #[cold]
    fn register_series(&mut self, index: usize, name: &'static str) -> &mut Slot<TimeSeries> {
        if self.series_slots.len() <= index {
            self.series_slots.resize_with(index + 1, || None);
        }
        if self.series_slots[index].is_none() {
            let migrated = self.series.remove(name);
            let value = match migrated {
                Some(s) => s,
                None => self.new_series(),
            };
            self.series_slots[index] = Some(Slot { name, value });
        }
        let slot = self.series_slots[index].as_mut().expect("just ensured");
        debug_assert_eq!(slot.name, name, "metric id index collision");
        slot
    }

    /// Read access to a time series, if it exists.
    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name).or_else(|| {
            self.series_slots
                .iter()
                .flatten()
                .find(|s| s.name == name)
                .map(|s| &s.value)
        })
    }

    /// Read access to an interned time series, if it exists.
    pub fn time_series_id(&self, id: MetricId) -> Option<&TimeSeries> {
        match self.series_slots.get(id.index()) {
            Some(Some(slot)) => Some(&slot.value),
            _ => self.series.get(id.name()),
        }
    }

    // --- union views, digest, merge --------------------------------------

    fn sorted_counters(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        out.extend(
            self.counter_slots
                .iter()
                .flatten()
                .map(|s| (s.name, s.value)),
        );
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    fn sorted_histograms(&self) -> Vec<(&str, &Histogram)> {
        let mut out: Vec<(&str, &Histogram)> = self
            .histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        out.extend(self.hist_slots.iter().flatten().map(|s| (s.name, &s.value)));
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    fn sorted_series(&self) -> Vec<(&str, &TimeSeries)> {
        let mut out: Vec<(&str, &TimeSeries)> =
            self.series.iter().map(|(k, v)| (k.as_str(), v)).collect();
        out.extend(
            self.series_slots
                .iter()
                .flatten()
                .map(|s| (s.name, &s.value)),
        );
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Names of all histograms currently registered, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.sorted_histograms().into_iter().map(|(k, _)| k)
    }

    /// Names of all counters currently registered, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.sorted_counters().into_iter().map(|(k, _)| k)
    }

    /// Stable 64-bit digest of the registry's full content, used by the
    /// schedule-perturbation race detector to compare runs.
    ///
    /// Counters and time series hash in key order; histogram content
    /// hashes as an order-independent fold (sample bit patterns for exact
    /// histograms — percentile queries sort lazily, and a digest must not
    /// change just because someone asked for a p99 first — and occupied
    /// bucket/count pairs for sketches). Interned and string-keyed
    /// metrics hash identically: the digest walks the sorted union, so
    /// adopting `MetricId`s does not move a single byte.
    pub fn digest(&self) -> u64 {
        Metrics::digest_merged(&[self])
    }

    /// The [`digest`](Self::digest) of the registry that merging `parts`
    /// in order (the first cloned, the rest [`merge`](Self::merge)d into
    /// it) would produce, computed without building that registry: no
    /// histogram sample is copied. This is how a sharded world
    /// fingerprints its per-shard registries.
    pub(crate) fn digest_merged(parts: &[&Metrics]) -> u64 {
        use crate::determinism::Fnv64;
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<&str, Vec<&Histogram>> = BTreeMap::new();
        let mut series: BTreeMap<&str, Vec<(usize, &TimeSeries)>> = BTreeMap::new();
        for (i, m) in parts.iter().enumerate() {
            for (k, v) in m.sorted_counters() {
                *counters.entry(k).or_insert(0) += v;
            }
            for (k, hist) in m.sorted_histograms() {
                histograms.entry(k).or_default().push(hist);
            }
            for (k, s) in m.sorted_series() {
                series.entry(k).or_default().push((i, s));
            }
        }
        let mut h = Fnv64::new();
        h.write_u64(counters.len() as u64);
        for (k, v) in counters {
            h.write(k.as_bytes());
            h.write_u64(v);
        }
        h.write_u64(histograms.len() as u64);
        for (k, hists) in histograms {
            h.write(k.as_bytes());
            h.write_u64(hists.iter().map(|x| x.count).sum());
            h.write_u64(Histogram::merged_fold(&hists));
        }
        h.write_u64(series.len() as u64);
        for (k, parts_of) in series {
            h.write(k.as_bytes());
            // A series is stored as its points, and merging replays points
            // through the destination's decimation, so only the common
            // case (one part, on the first registry) is read in place.
            let merged;
            let s = match parts_of.as_slice() {
                [(0, s)] => *s,
                [(first, s0), rest @ ..] => {
                    let (mut acc, replay) = if *first == 0 {
                        ((*s0).clone(), rest)
                    } else {
                        (Metrics::series_for(&parts[0].config), &parts_of[..])
                    };
                    for (_, part) in replay {
                        for &(t, v) in part.points() {
                            acc.record(t, v);
                        }
                    }
                    merged = acc;
                    &merged
                }
                [] => unreachable!("a series name has at least one part"),
            };
            for (t, v) in s.points() {
                h.write_u64(t.as_nanos());
                h.write_u64(v.to_bits());
            }
        }
        h.finish()
    }

    /// Merges another registry into this one (counters add, samples
    /// append). Interned metrics merge slot-to-slot by index; a metric
    /// that is interned on one side and string-keyed on the other lands
    /// in the interned slot.
    pub fn merge(&mut self, other: &Metrics) {
        for (i, slot) in other.counter_slots.iter().enumerate() {
            if let Some(s) = slot {
                self.register_counter(i, s.name).value += s.value;
            }
        }
        for (k, v) in &other.counters {
            if let Some(slot) = self
                .counter_slots
                .iter_mut()
                .flatten()
                .find(|s| s.name == k.as_str())
            {
                slot.value += v;
            } else {
                *self.counters.entry(k.clone()).or_insert(0) += v;
            }
        }
        for (i, slot) in other.hist_slots.iter().enumerate() {
            if let Some(s) = slot {
                self.register_histogram(i, s.name).value.merge(&s.value);
            }
        }
        for (k, h) in &other.histograms {
            if let Some(slot) = self
                .hist_slots
                .iter_mut()
                .flatten()
                .find(|s| s.name == k.as_str())
            {
                slot.value.merge(h);
            } else {
                let config = &self.config;
                self.histograms
                    .entry(k.clone())
                    .or_insert_with(|| Metrics::histogram_for(config))
                    .merge(h);
            }
        }
        for (i, slot) in other.series_slots.iter().enumerate() {
            if let Some(s) = slot {
                let dst = self.register_series(i, s.name);
                for (t, v) in s.value.points() {
                    dst.value.record(*t, *v);
                }
            }
        }
        for (k, s) in &other.series {
            if let Some(slot) = self
                .series_slots
                .iter_mut()
                .flatten()
                .find(|sl| sl.name == k.as_str())
            {
                for (t, v) in s.points() {
                    slot.value.record(*t, *v);
                }
            } else {
                let config = &self.config;
                let dst = self
                    .series
                    .entry(k.clone())
                    .or_insert_with(|| Metrics::series_for(config));
                for (t, v) in s.points() {
                    dst.record(*t, *v);
                }
            }
        }
    }

    /// Approximate heap footprint of the registry in bytes (keys, sample
    /// buffers or bucket arrays, series points) — the `bench-metrics`
    /// memory column.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for k in self.counters.keys() {
            total += k.capacity() + std::mem::size_of::<u64>();
        }
        for (k, h) in &self.histograms {
            total += k.capacity() + h.approx_bytes();
        }
        for (k, s) in &self.series {
            total += k.capacity() + s.approx_bytes();
        }
        total += self.counter_slots.capacity() * std::mem::size_of::<Option<Slot<u64>>>();
        total += self.hist_slots.capacity() * std::mem::size_of::<Option<Slot<()>>>();
        for s in self.hist_slots.iter().flatten() {
            total += s.value.approx_bytes();
        }
        total += self.series_slots.capacity() * std::mem::size_of::<Option<Slot<()>>>();
        for s in self.series_slots.iter().flatten() {
            total += s.value.approx_bytes();
        }
        total
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.sorted_counters() {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, h) in self.sorted_histograms() {
            writeln!(
                f,
                "hist {k}: n={} mean={:.3} p50={:.3} p99={:.3} dropped={}",
                h.count(),
                h.mean(),
                h.quantile_snapshot(0.50),
                h.quantile_snapshot(0.99),
                h.dropped_samples()
            )?;
        }
        for (k, s) in self.sorted_series() {
            writeln!(f, "series {k}: n={} mean={:.3}", s.len(), s.mean())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_config(oracle: bool) -> MetricsConfig {
        MetricsConfig {
            histogram_mode: HistogramMode::Sketch,
            sketch_oracle: oracle,
            series_capacity: 0,
        }
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(95.0), 95.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite histogram sample")]
    fn histogram_panics_on_non_finite_in_debug() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn histogram_drops_and_counts_non_finite_in_release() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.dropped_samples(), 2);
        // The quantile path stays panic-free regardless.
        assert_eq!(h.p50(), 2.0);
        let mut merged = Histogram::new();
        merged.merge(&h);
        assert_eq!(merged.dropped_samples(), 2);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_min_max_merge() {
        let mut a = Histogram::new();
        a.record(5.0);
        let mut b = Histogram::new();
        b.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 9.0);
        assert_eq!(a.sum(), 15.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.percentile(101.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn registry_histograms_and_series() {
        let mut m = Metrics::new();
        m.observe("lat", 4.0);
        m.observe("lat", 6.0);
        assert_eq!(m.mean("lat"), 5.0);
        assert_eq!(m.percentile("lat", 100.0), 6.0);
        m.record_point("cpu", SimTime::from_secs(1), 0.25);
        assert_eq!(m.time_series("cpu").unwrap().len(), 1);
    }

    #[test]
    fn registry_merge_adds() {
        let mut a = Metrics::new();
        a.incr("c", 1);
        a.observe("h", 1.0);
        let mut b = Metrics::new();
        b.incr("c", 2);
        b.observe("h", 3.0);
        b.record_point("s", SimTime::ZERO, 1.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.time_series("s").unwrap().len(), 1);
    }

    #[test]
    fn quantile_matches_percentile_and_shortcuts() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.5), h.percentile(50.0));
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p95(), 95.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);

        let mut m = Metrics::new();
        m.observe("lat", 1.0);
        m.observe("lat", 9.0);
        assert_eq!(m.quantile("lat", 0.5), 1.0);
        assert_eq!(m.quantile("missing", 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn merge_empty_into_nonempty_is_identity() {
        let mut a = Metrics::new();
        a.incr("c", 7);
        a.observe("h", 1.0);
        a.record_point("s", SimTime::ZERO, 2.0);
        let before = format!("{a}");
        a.merge(&Metrics::new());
        assert_eq!(format!("{a}"), before);
    }

    #[test]
    fn merge_nonempty_into_empty_copies_everything() {
        let mut src = Metrics::new();
        src.incr("c", 7);
        src.observe("h", 1.0);
        src.observe("h", 3.0);
        src.record_point("s", SimTime::from_secs(1), 2.0);
        let mut dst = Metrics::new();
        dst.merge(&src);
        assert_eq!(dst.counter("c"), 7);
        assert_eq!(dst.histogram("h").unwrap().count(), 2);
        assert_eq!(dst.time_series("s").unwrap().len(), 1);
    }

    #[test]
    fn merge_disjoint_keys_unions() {
        let mut a = Metrics::new();
        a.incr("only.a", 1);
        a.observe("hist.a", 1.0);
        let mut b = Metrics::new();
        b.incr("only.b", 2);
        b.observe("hist.b", 5.0);
        a.merge(&b);
        assert_eq!(a.counter("only.a"), 1);
        assert_eq!(a.counter("only.b"), 2);
        assert_eq!(a.histogram("hist.a").unwrap().count(), 1);
        assert_eq!(a.histogram("hist.b").unwrap().count(), 1);
    }

    #[test]
    fn merged_histogram_quantiles_pool_samples() {
        // Samples are stored exactly, so a merge must behave as if both
        // sample sets were recorded into one histogram — no bucket
        // alignment error is possible by construction.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for v in 1..=50 {
            a.record(v as f64);
            pooled.record(v as f64);
        }
        for v in 51..=100 {
            b.record(v as f64);
            pooled.record(v as f64);
        }
        // Sorting `a` first must not perturb the merge result.
        let _ = a.p50();
        a.merge(&b);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), pooled.quantile(q).to_bits());
        }
        assert_eq!(a.count(), pooled.count());
        assert_eq!(a.mean().to_bits(), pooled.mean().to_bits());
    }

    #[test]
    fn net_keys_are_stable() {
        assert_eq!(keys::NET_MESSAGES, "net.messages");
        assert_eq!(keys::NET_BYTES, "net.bytes");
        assert_eq!(keys::NET_DROPPED, "net.dropped");
    }

    #[test]
    fn time_series_stats() {
        let mut s = TimeSeries::new();
        assert_eq!(s.mean(), 0.0);
        s.record(SimTime::ZERO, 2.0);
        s.record(SimTime::from_secs(1), 4.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 4.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn display_lists_entries() {
        let mut m = Metrics::new();
        m.incr("c", 1);
        m.observe("h", 1.0);
        let text = format!("{m}");
        assert!(text.contains("counter c = 1"));
        assert!(text.contains("hist h"));
    }

    // --- fixed-memory plane ----------------------------------------------

    #[test]
    fn net_key_ids_intern_their_names() {
        assert_eq!(keys::id::NET_MESSAGES.name(), keys::NET_MESSAGES);
        assert_eq!(keys::id::NET_BYTES.name(), keys::NET_BYTES);
        assert_eq!(keys::id::NET_DROPPED.name(), keys::NET_DROPPED);
        assert_eq!(keys::id::NET_FAULT_DROPPED.name(), keys::NET_FAULT_DROPPED);
        let ids = [
            keys::id::NET_MESSAGES,
            keys::id::NET_BYTES,
            keys::id::NET_DROPPED,
            keys::id::NET_FAULT_DROPPED,
        ];
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i, "net ids must stay densely indexed");
            assert!(id.index() < keys::id::FIRST_FREE_INDEX as usize);
        }
    }

    #[test]
    fn interned_and_string_recording_share_one_metric() {
        let mut m = Metrics::new();
        m.incr(keys::NET_MESSAGES, 2);
        // First id use migrates the string entry into the slot...
        m.incr_id(keys::id::NET_MESSAGES, 3);
        // ...and later string-API calls find the slot, not a new map key.
        m.incr(keys::NET_MESSAGES, 5);
        assert_eq!(m.counter(keys::NET_MESSAGES), 10);
        assert_eq!(m.counter_id(keys::id::NET_MESSAGES), 10);
        assert_eq!(m.counter_names().count(), 1);

        m.observe(keys::NET_BYTES, 1.0);
        m.observe_id(keys::id::NET_BYTES, 3.0);
        m.observe(keys::NET_BYTES, 5.0);
        assert_eq!(m.histogram(keys::NET_BYTES).unwrap().count(), 3);
        assert_eq!(m.mean(keys::NET_BYTES), 3.0);
        assert_eq!(m.histogram_names().count(), 1);

        m.record_point(keys::NET_DROPPED, SimTime::ZERO, 1.0);
        m.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(1), 2.0);
        assert_eq!(m.time_series(keys::NET_DROPPED).unwrap().len(), 2);
        assert_eq!(m.time_series_id(keys::id::NET_DROPPED).unwrap().len(), 2);
    }

    #[test]
    fn interned_digest_matches_string_digest() {
        let mut by_str = Metrics::new();
        let mut by_id = Metrics::new();
        by_str.incr(keys::NET_MESSAGES, 7);
        by_id.incr_id(keys::id::NET_MESSAGES, 7);
        by_str.observe(keys::NET_BYTES, 64.0);
        by_id.observe_id(keys::id::NET_BYTES, 64.0);
        by_str.record_point(keys::NET_DROPPED, SimTime::from_secs(2), 1.5);
        by_id.record_point_id(keys::id::NET_DROPPED, SimTime::from_secs(2), 1.5);
        assert_eq!(by_str.digest(), by_id.digest());
        assert_eq!(format!("{by_str}"), format!("{by_id}"));
    }

    #[test]
    fn interned_registries_merge_by_slot() {
        let mut a = Metrics::new();
        a.incr_id(keys::id::NET_MESSAGES, 1);
        let mut b = Metrics::new();
        b.incr_id(keys::id::NET_MESSAGES, 2);
        b.incr(keys::NET_BYTES, 4); // string-keyed on the source side
        a.incr_id(keys::id::NET_BYTES, 8); // interned on the destination
        a.merge(&b);
        assert_eq!(a.counter_id(keys::id::NET_MESSAGES), 3);
        assert_eq!(a.counter_id(keys::id::NET_BYTES), 12);
        assert_eq!(a.counter_names().count(), 2);
    }

    #[test]
    fn sketch_quantiles_stay_within_error_bound() {
        let mut sketch = Histogram::new_sketch(false);
        let mut exact = ExactHistogram::new();
        // Mixed sub-millisecond and long-tail values.
        for i in 0..5000u64 {
            let v = (i as f64 * 0.731) % 900.0 + (i as f64) / 7000.0;
            sketch.record(v);
            exact.record(v);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let s = sketch.quantile(q);
            let e = exact.quantile(q);
            let tol = (0.01 * e.abs()).max(1.0 / 1024.0);
            assert!(
                (s - e).abs() <= tol,
                "q={q}: sketch {s} vs exact {e} (tol {tol})"
            );
        }
        assert_eq!(sketch.count(), exact.count());
        assert_eq!(sketch.min(), exact.min());
        assert_eq!(sketch.max(), exact.max());
        assert!((sketch.mean() - exact.mean()).abs() < 1e-9);
    }

    #[test]
    fn sketch_memory_is_constant() {
        let mut sketch = Histogram::new_sketch(false);
        let before = sketch.approx_bytes();
        for i in 0..100_000u64 {
            sketch.record(i as f64 * 0.01);
        }
        assert_eq!(sketch.approx_bytes(), before);
        assert_eq!(sketch.count(), 100_000);
        assert!(sketch.samples().is_empty(), "sketches retain no samples");
    }

    #[test]
    fn sketch_bucketing_is_monotone_across_the_linear_log_seam() {
        let mut prev = 0;
        for i in 0..100_000 {
            let v = i as f64 * 0.0005; // crosses 1.0 at i == 2000
            let b = sketch_bucket(v);
            assert!(b >= prev, "bucket order inverted at v={v}");
            prev = b;
        }
        // Representatives are monotone too, and clamping covers the ends.
        assert!(sketch_bucket(0.0) == 0);
        assert!(sketch_bucket(f64::MAX) == SKETCH_BUCKETS - 1);
        assert!(sketch_bucket(-5.0) == 0);
        let mut prev_rep = f64::NEG_INFINITY;
        for b in 0..SKETCH_BUCKETS {
            let r = sketch_representative(b);
            assert!(r > prev_rep, "representative order inverted at {b}");
            prev_rep = r;
        }
    }

    #[test]
    fn sketch_merge_is_order_independent_and_matches_pooling() {
        let mut a = Histogram::new_sketch(false);
        let mut b = Histogram::new_sketch(false);
        let mut pooled = Histogram::new_sketch(false);
        for i in 0..500u64 {
            let v = (i as f64).sqrt();
            a.record(v);
            pooled.record(v);
        }
        for i in 500..1000u64 {
            let v = (i as f64).sqrt();
            b.record(v);
            pooled.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(ab.quantile(q).to_bits(), pooled.quantile(q).to_bits());
            assert_eq!(ba.quantile(q).to_bits(), pooled.quantile(q).to_bits());
        }
        assert_eq!(ab.count(), pooled.count());
        // A sketch can also absorb an exact histogram by replaying samples.
        let mut exact_src = Histogram::new();
        exact_src.record(2.0);
        ab.merge(&exact_src);
        assert_eq!(ab.count(), 1001);
    }

    #[test]
    #[should_panic(expected = "cannot merge a sketch histogram into an exact histogram")]
    fn exact_histogram_rejects_sketch_merge() {
        let mut exact = Histogram::new();
        exact.record(1.0);
        let mut sketch = Histogram::new_sketch(false);
        sketch.record(2.0);
        exact.merge(&sketch);
    }

    #[test]
    fn sketch_digest_ignores_recording_order() {
        let mut forward = Metrics::new();
        forward.set_config(sketch_config(false));
        let mut reverse = Metrics::new();
        reverse.set_config(sketch_config(false));
        let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.37).collect();
        for v in &values {
            forward.observe("lat", *v);
        }
        for v in values.iter().rev() {
            reverse.observe("lat", *v);
        }
        assert_eq!(forward.digest(), reverse.digest());
    }

    #[test]
    fn sketch_config_applies_to_new_histograms_and_series() {
        let mut m = Metrics::new();
        m.set_config(MetricsConfig {
            histogram_mode: HistogramMode::Sketch,
            sketch_oracle: false,
            series_capacity: 8,
        });
        m.observe("lat", 1.0);
        assert!(m.histogram("lat").unwrap().is_sketch());
        for i in 0..100 {
            m.record_point("cpu", SimTime::from_secs(i), i as f64);
        }
        let s = m.time_series("cpu").unwrap();
        assert!(s.len() <= 9, "series not bounded: {}", s.len());
        assert_eq!(s.recorded(), 100);
    }

    #[test]
    #[should_panic(expected = "before any metric is recorded")]
    fn config_rejects_used_registry() {
        let mut m = Metrics::new();
        m.incr("c", 1);
        m.set_config(sketch_config(false));
    }

    #[test]
    fn sketch_oracle_validates_quantile_queries() {
        let mut m = Metrics::new();
        m.set_config(sketch_config(true));
        for i in 0..2000u64 {
            m.observe("lat", (i % 97) as f64 * 0.25);
        }
        // Each query runs the live differential assertion internally.
        let p50 = m.quantile("lat", 0.5);
        let p99 = m.quantile("lat", 0.99);
        assert!(p50 > 0.0 && p99 >= p50);
    }

    #[test]
    fn bounded_series_keeps_exact_aggregates() {
        let mut bounded = TimeSeries::with_capacity(16);
        let mut unbounded = TimeSeries::new();
        for i in 0..500u64 {
            let at = SimTime::from_millis(i * 10);
            let v = ((i * 37) % 100) as f64 / 10.0;
            bounded.record(at, v);
            unbounded.record(at, v);
        }
        assert!(bounded.len() <= 17, "len {}", bounded.len());
        assert_eq!(bounded.recorded(), 500);
        assert_eq!(bounded.mean().to_bits(), unbounded.mean().to_bits());
        assert_eq!(bounded.max().to_bits(), unbounded.max().to_bits());
        // Decimation keeps both endpoints.
        assert_eq!(bounded.points()[0].0, SimTime::ZERO);
        assert_eq!(
            bounded.points().last().unwrap().0,
            SimTime::from_millis(499 * 10)
        );
    }

    #[test]
    fn display_shows_quantiles_and_drops() {
        let mut m = Metrics::new();
        for v in 1..=100 {
            m.observe("h", v as f64);
        }
        let text = format!("{m}");
        assert!(text.contains("p50=50.000"), "display: {text}");
        assert!(text.contains("p99=99.000"), "display: {text}");
        assert!(text.contains("dropped=0"), "display: {text}");
        // Display must not disturb lazy-sort state or the digest.
        let before = m.digest();
        let _ = format!("{m}");
        assert_eq!(m.digest(), before);
    }

    #[test]
    fn self_profile_counts_recording_calls() {
        let mut m = Metrics::new();
        m.incr("c", 1); // before enabling: not counted
        m.enable_self_profile();
        m.incr("c", 1);
        m.incr_id(keys::id::NET_MESSAGES, 1);
        m.observe("h", 1.0);
        m.record_point("s", SimTime::ZERO, 1.0);
        let (_, calls) = m.self_profile();
        assert_eq!(calls, 4);
        let off = Metrics::new();
        assert_eq!(off.self_profile(), (0, 0));
    }

    #[test]
    fn incremental_sum_matches_iter_sum_bitwise() {
        // The seed computed histogram means as `iter().sum::<f64>() / n`
        // at query time; the incremental sum must reproduce those bits.
        let values: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.1 + 0.0137).collect();
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let folded: f64 = values.iter().sum();
        assert_eq!(h.sum().to_bits(), folded.to_bits());
        assert_eq!(h.mean().to_bits(), (folded / values.len() as f64).to_bits());
    }
}
