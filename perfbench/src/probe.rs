//! A fixed host-speed probe, timed between the steps of each pass.
//!
//! The host the benchmark runs on is shared: the speed it gives one thread
//! drifts by ±20 % over tens of seconds, and the drift follows how much
//! of the shared cache the neighbours take, not how much CPU time the
//! thread gets. The probe is a small allocation- and cache-bound kernel
//! (an ordered map filled and emptied again) that slows down with the
//! simulator when the host does. It belongs to the benchmark, not the
//! program, so a change to the program leaves it as it was. Dividing a
//! pass's throughput by the probe's speed right next to it cancels most of
//! the drift, while a faster or slower program still moves the quotient
//! in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Entries the probe's map holds at its fullest: a few MB, far more than
/// a core's private caches, so the probe feels the shared cache.
const PROBE_ENTRIES: u64 = 100_000;

/// SplitMix64 finalizer: scatters the probe's keys over the key space.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One probe run: fills a map with [`PROBE_ENTRIES`] heap-allocated
/// values under scattered keys, then empties it key by key. Returns a
/// checksum so the work cannot be optimised away.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..PROBE_ENTRIES {
        map.insert(mix(i), vec![i as u8; 24]);
    }
    let mut sum = 0;
    for i in 0..PROBE_ENTRIES {
        if let Some(v) = map.remove(&mix(i)) {
            sum += v.len() as u64;
        }
    }
    sum
}

/// Host time of the probe runs made so far.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Probe runs made.
    pub runs: u32,
    /// Host seconds they took, together.
    pub seconds: f64,
}

impl Probe {
    /// Runs the probe once and adds its time.
    pub fn run(&mut self) {
        let start = Instant::now();
        let sum = black_box(kernel());
        self.seconds += start.elapsed().as_secs_f64();
        self.runs += 1;
        assert_eq!(sum, 24 * PROBE_ENTRIES, "probe lost entries");
    }

    /// Mean host seconds per probe run.
    pub fn mean_s(&self) -> f64 {
        assert!(self.runs > 0, "probe never ran");
        self.seconds / f64::from(self.runs)
    }
}
