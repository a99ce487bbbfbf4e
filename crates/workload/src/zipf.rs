//! Zipf popularity sampling.
//!
//! The paper draws app usage from a Zipf distribution (§V-A, citing content
//! demand studies): a few apps are used constantly, a long tail rarely.
//!
//! [`ZipfSampler`] draws from a Vose alias table: `O(1)` per draw, `O(n)`
//! to build, exactly one RNG draw per sample. The inverse-CDF scan it
//! replaced survives as the distribution oracle in
//! `tests/proptest_zipf.rs`.

use ape_simnet::SimRng;

/// One column of a Vose alias table: take `index` with probability
/// `threshold` (scaled to the column), else take `alias`.
#[derive(Debug, Clone, Copy)]
struct AliasColumn {
    /// Acceptance threshold in `[0, 1]`, already divided by `n`.
    threshold: f64,
    /// Donor index used when the coin flip rejects the column owner.
    alias: u32,
}

/// Samples indices `0..n` with probability proportional to
/// `1 / (rank + 1)^exponent`.
///
/// # Examples
///
/// ```
/// use ape_simnet::SimRng;
/// use ape_workload::ZipfSampler;
///
/// let zipf = ZipfSampler::new(10, 1.0);
/// let mut rng = SimRng::seed_from(1);
/// let idx = zipf.sample(&mut rng);
/// assert!(idx < 10);
/// assert!(zipf.weight(0) > zipf.weight(9));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Normalized per-index probabilities.
    weights: Vec<f64>,
    /// Alias table over `weights`.
    alias: Vec<AliasColumn>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `exponent` is negative/non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "exponent must be non-negative"
        );
        let raw: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let alias = build_alias_table(&weights);
        ZipfSampler { weights, alias }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the sampler is over zero items (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Probability mass of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Draws one index from one RNG draw, in `O(1)`: the uniform draw is
    /// split into a column index (integer part of `u * n`) and a coin
    /// (fractional part); the two parts are independent because `u` is
    /// uniform on `[0, 1)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        let n = self.alias.len();
        let scaled = u * n as f64;
        let col = (scaled as usize).min(n - 1);
        let coin = scaled - col as f64;
        let entry = self.alias[col];
        if coin < entry.threshold {
            col
        } else {
            entry.alias as usize
        }
    }
}

/// Builds a Vose alias table from normalized weights.
///
/// Columns with mass below average (`1/n`) borrow the remainder from a
/// column with mass above average; after construction, every column is a
/// two-outcome Bernoulli whose mixture reproduces the input distribution
/// exactly (up to float rounding).
fn build_alias_table(weights: &[f64]) -> Vec<AliasColumn> {
    let n = weights.len();
    debug_assert!(n <= u32::MAX as usize, "alias table indexes with u32");
    // Scale so the average column holds exactly 1.0.
    let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64).collect();
    let mut table = vec![
        AliasColumn {
            threshold: 1.0,
            alias: 0,
        };
        n
    ];
    // Worklists are drained back-to-front, which keeps construction
    // deterministic for a given weight vector.
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        table[s as usize] = AliasColumn {
            threshold: scaled[s as usize],
            alias: l,
        };
        // The donor loses exactly the mass the small column was missing.
        scaled[l as usize] -= 1.0 - scaled[s as usize];
        if scaled[l as usize] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Whatever remains (float dust) saturates to "always take the owner".
    for &i in small.iter().chain(large.iter()) {
        table[i as usize].threshold = 1.0;
        table[i as usize].alias = i;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(20, 1.0);
        let sum: f64 = (0..20).map(|i| z.weight(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for i in 1..20 {
            assert!(z.weight(i) < z.weight(i - 1));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        for i in 0..4 {
            assert!((z.weight(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let z = ZipfSampler::new(5, 1.0);
        let mut rng = SimRng::seed_from(9);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            assert!(
                (observed - z.weight(i)).abs() < 0.01,
                "item {i}: observed {observed}, expected {}",
                z.weight(i)
            );
        }
    }

    #[test]
    fn single_item_always_sampled() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_items_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_rejected() {
        let _ = ZipfSampler::new(3, -1.0);
    }

    #[test]
    fn alias_draws_stay_in_range_and_match_bands() {
        let z = ZipfSampler::new(8, 0.9);
        let mut rng = SimRng::seed_from(42);
        let n = 200_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            let idx = z.sample(&mut rng);
            assert!(idx < 8);
            counts[idx] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            assert!(
                (observed - z.weight(i)).abs() < 0.01,
                "alias item {i}: observed {observed}, expected {}",
                z.weight(i)
            );
        }
    }

    #[test]
    fn alias_table_mass_reconstructs_weights() {
        // Summing each column's contribution must reproduce the input
        // distribution: the alias transform is exact, not approximate.
        let z = ZipfSampler::new(17, 1.0);
        let n = z.len();
        let mut mass = vec![0.0f64; n];
        for (col, entry) in z.alias.iter().enumerate() {
            mass[col] += entry.threshold / n as f64;
            mass[entry.alias as usize] += (1.0 - entry.threshold) / n as f64;
        }
        for (i, &m) in mass.iter().enumerate() {
            assert!(
                (m - z.weight(i)).abs() < 1e-12,
                "column mass {i} diverged: {m} vs {}",
                z.weight(i)
            );
        }
    }
}
