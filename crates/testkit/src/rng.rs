//! Seeded, dependency-free pseudo-random number generation.
//!
//! A [`Rng`] is a xoshiro256** stream seeded through SplitMix64 — the
//! textbook combination (Blackman & Vigna): SplitMix64 turns an arbitrary
//! 64-bit seed into four well-mixed state words, xoshiro256** generates the
//! stream. Both algorithms are tiny, portable, and fully deterministic, so
//! every stimulus sequence is reproducible from its seed alone.

/// The SplitMix64 step: advances `state` and returns the next output.
///
/// Used as the seeder for [`Rng`] and for deriving per-case sub-seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a base seed with an index into an independent derived seed.
pub fn mix_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// A seeded xoshiro256** pseudo-random number generator.
///
/// Not cryptographic — a fast, high-quality generator for randomized
/// testing. Identical seeds produce identical streams on every platform.
///
/// # Examples
///
/// ```
/// use testkit::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        // The all-zero state is a fixed point of xoshiro; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Returns the next 64 random bits (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a uniform value in `0..n` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Rejection sampling on the top of the range keeps the draw uniform.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Draws an integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        // span == 0 means the full u64 range (lo == i64::MIN, hi == i64::MAX).
        let off = if span == 0 {
            self.next_u64()
        } else {
            self.below(span)
        };
        (lo as i128 + off as i128) as i64
    }

    /// Draws an integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Draws an `i32` in `lo..=hi`.
    pub fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        self.i64_in(lo as i64, hi as i64) as i32
    }

    /// Draws a `usize` in `lo..=hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Returns `true` with probability 1/2.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < u64::from(percent.min(100))
    }

    /// Draws one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        items[self.below(items.len() as u64) as usize]
    }

    /// Draws an index according to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_idx(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weighted choice needs a positive total weight");
        let mut point = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if point < w {
                return i;
            }
            point -= w;
        }
        unreachable!("point always falls inside the total weight")
    }

    /// Draws one element according to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted<T: Copy>(&mut self, items: &[(T, u32)]) -> T {
        let weights: Vec<u32> = items.iter().map(|&(_, w)| w).collect();
        items[self.weighted_idx(&weights)].0
    }

    /// Draws a uniform `f64` in `[0, 1)` with 53 bits of precision (the
    /// standard top-bits construction, so the value is an exact multiple
    /// of 2⁻⁵³ and identical on every platform).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        // Draw unconditionally so the stream position never depends on `p`.
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(2);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..2000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues drawn: {seen:?}");
    }

    #[test]
    fn i64_in_handles_extremes() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            let v = r.i64_in(i64::MIN, i64::MAX);
            let _ = v; // full range must not panic or loop
            let w = r.i64_in(-5, 5);
            assert!((-5..=5).contains(&w));
            assert_eq!(r.i64_in(9, 9), 9);
        }
    }

    #[test]
    fn weighted_zero_arms_never_drawn() {
        let mut r = Rng::new(5);
        for _ in 0..500 {
            assert_eq!(r.weighted(&[("never", 0), ("always", 3)]), "always");
        }
    }

    #[test]
    fn weighted_roughly_follows_weights() {
        let mut r = Rng::new(11);
        let heavy = (0..2000)
            .filter(|_| r.weighted(&[(true, 90), (false, 10)]))
            .count();
        assert!(heavy > 1600, "heavy arm drawn {heavy}/2000");
    }

    #[test]
    fn statistical_sanity_mean_of_uniform() {
        // Mean of 10k draws in [0,1000] must land near 500 (±5%).
        let mut r = Rng::new(2024);
        let sum: u64 = (0..10_000).map(|_| r.u64_in(0, 1000)).sum();
        let mean = sum as f64 / 10_000.0;
        assert!((450.0..550.0).contains(&mean), "mean {mean}");
    }
}
