//! Seeded constrained-random stimulus generation.

use testkit::{mix_seed, Rng};

/// Derives an independent sub-seed from a campaign seed and a shard/case
/// index (testkit's SplitMix64 mixer).
///
/// Campaign runners use this to give every shard its own stimulus stream
/// while keeping the whole campaign a pure function of `(base, index)` —
/// results are bit-identical no matter how many worker threads pull the
/// shards.
///
/// # Examples
///
/// ```
/// use stimuli::derive_seed;
///
/// assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
/// assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
/// ```
pub fn derive_seed(base: u64, index: u64) -> u64 {
    mix_seed(base, index)
}

/// Derives an independent sub-seed separated by a stream salt: two
/// consumers of the same `(base, index)` pair (e.g. a shard's request
/// stimulus and that shard's randomized fault plan) stay statistically
/// independent by mixing under different salts.
///
/// # Examples
///
/// ```
/// use stimuli::{derive_seed, derive_seed_salted};
///
/// assert_eq!(derive_seed_salted(7, 0xA5, 3), derive_seed_salted(7, 0xA5, 3));
/// assert_ne!(derive_seed_salted(7, 0xA5, 3), derive_seed_salted(7, 0xA6, 3));
/// assert_ne!(derive_seed_salted(7, 0xA5, 3), derive_seed(7, 3));
/// ```
pub fn derive_seed_salted(base: u64, salt: u64, index: u64) -> u64 {
    mix_seed(mix_seed(base, salt), index)
}

/// A reproducible constrained-random generator.
///
/// All draws go through one seeded PRNG, so a test case sequence is fully
/// determined by its seed — essential for debugging failing runs.
///
/// # Examples
///
/// ```
/// use stimuli::Stimulus;
///
/// let mut a = Stimulus::new(7);
/// let mut b = Stimulus::new(7);
/// assert_eq!(a.int_in(0, 100), b.int_in(0, 100));
/// ```
#[derive(Debug)]
pub struct Stimulus {
    rng: Rng,
}

impl Stimulus {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Stimulus {
            rng: Rng::new(seed),
        }
    }

    /// Draws an integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo <= hi, "empty range");
        self.rng.i32_in(lo, hi)
    }

    /// Draws one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        let i = self.int_in(0, items.len() as i32 - 1) as usize;
        items[i]
    }

    /// Draws one element according to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted<T: Copy>(&mut self, items: &[(T, u32)]) -> T {
        let total: u64 = items.iter().map(|&(_, w)| u64::from(w)).sum();
        assert!(total > 0, "weighted choice needs a positive total weight");
        let mut point = self.rng.below(total);
        for &(item, w) in items {
            let w = u64::from(w);
            if point < w {
                return item;
            }
            point -= w;
        }
        unreachable!("point always falls inside the total weight")
    }

    /// Returns `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.rng.below(100) < u64::from(percent.min(100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Stimulus::new(1234);
        let mut b = Stimulus::new(1234);
        for _ in 0..100 {
            assert_eq!(a.int_in(-50, 50), b.int_in(-50, 50));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Stimulus::new(1);
        let mut b = Stimulus::new(2);
        let va: Vec<i32> = (0..32).map(|_| a.int_in(0, 1000)).collect();
        let vb: Vec<i32> = (0..32).map(|_| b.int_in(0, 1000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn int_in_respects_bounds() {
        let mut s = Stimulus::new(9);
        for _ in 0..1000 {
            let v = s.int_in(-3, 3);
            assert!((-3..=3).contains(&v));
        }
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut s = Stimulus::new(5);
        for _ in 0..200 {
            let v = s.weighted(&[("never", 0), ("always", 10)]);
            assert_eq!(v, "always");
        }
    }

    #[test]
    fn weighted_roughly_follows_weights() {
        let mut s = Stimulus::new(11);
        let mut heavy = 0;
        for _ in 0..1000 {
            if s.weighted(&[(true, 90), (false, 10)]) {
                heavy += 1;
            }
        }
        assert!(heavy > 800, "heavy arm drawn {heavy}/1000");
    }

    #[test]
    fn chance_extremes() {
        let mut s = Stimulus::new(3);
        assert!(!(0..100).any(|_| s.chance(0)));
        assert!((0..100).all(|_| s.chance(100)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Stimulus::new(0).int_in(5, 4);
    }
}
