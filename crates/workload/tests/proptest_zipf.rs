//! Property tests for the Zipf sampler against the inverse-CDF reference.
//!
//! The production sampler draws from a Vose alias table. The cumulative
//! scan it replaced lives on here as the oracle: both must agree in
//! distribution, and both consume exactly one RNG draw per sample, so
//! swapping one for the other never desynchronizes downstream consumers of
//! the same stream.

use ape_simnet::SimRng;
use ape_workload::ZipfSampler;
use proptest::prelude::*;

/// The inverse-CDF reference: a binary search of the cumulative weights
/// for one uniform draw, `O(log n)` per sample.
struct ReferenceScan {
    cumulative: Vec<f64>,
}

impl ReferenceScan {
    fn new(sampler: &ZipfSampler) -> Self {
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = (0..sampler.len())
            .map(|i| {
                acc += sampler.weight(i);
                acc
            })
            .collect();
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        ReferenceScan { cumulative }
    }

    fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        let n = self.cumulative.len();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite cumulative"))
        {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        }
    }
}

proptest! {
    // Alias draws stay in range and consume exactly one RNG word per
    // sample, like the reference scan.
    #[test]
    fn alias_is_in_range_with_one_draw_per_sample(
        n in 1usize..64,
        exp_milli in 0u32..3_000,
        seed in any::<u64>(),
        draws in 1usize..256,
    ) {
        let exponent = f64::from(exp_milli) / 1_000.0;
        let alias = ZipfSampler::new(n, exponent);
        let scan = ReferenceScan::new(&alias);
        let mut ra = SimRng::seed_from(seed);
        let mut rs = SimRng::seed_from(seed);
        for _ in 0..draws {
            let idx = alias.sample(&mut ra);
            prop_assert!(idx < n);
            prop_assert!(scan.sample(&mut rs) < n);
        }
        prop_assert_eq!(ra.next_u64(), rs.next_u64());
    }

    // Both samplers reproduce the Zipf weights: their empirical
    // frequencies agree with each other and with the weights.
    #[test]
    fn alias_matches_the_reference_in_distribution(
        n in 1usize..24,
        exp_milli in 0u32..2_000,
        seed in any::<u64>(),
    ) {
        let exponent = f64::from(exp_milli) / 1_000.0;
        let alias = ZipfSampler::new(n, exponent);
        let scan = ReferenceScan::new(&alias);
        let draws = 40_000;
        let mut rng = SimRng::seed_from(seed);
        let mut alias_counts = vec![0usize; n];
        let mut scan_counts = vec![0usize; n];
        for _ in 0..draws {
            alias_counts[alias.sample(&mut rng)] += 1;
            scan_counts[scan.sample(&mut rng)] += 1;
        }
        for i in 0..n {
            let a = alias_counts[i] as f64 / draws as f64;
            let s = scan_counts[i] as f64 / draws as f64;
            let w = alias.weight(i);
            prop_assert!((a - w).abs() < 0.015, "alias item {}: {} vs weight {}", i, a, w);
            prop_assert!((s - w).abs() < 0.015, "scan item {}: {} vs weight {}", i, s, w);
        }
    }
}
