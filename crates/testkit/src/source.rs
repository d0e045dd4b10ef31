//! The choice tape behind integrated shrinking.
//!
//! Generators draw structured values through a [`Source`]. In fresh mode
//! every draw comes from the PRNG and is recorded on a *tape*; in replay
//! mode draws are read back from a (possibly mutated) tape. Shrinking never
//! touches generated values directly — it simplifies the tape and re-runs
//! the generator, so *any* generator, however complex, shrinks for free and
//! every shrunk value is by construction one the generator could produce
//! (the Hypothesis "internal shrinking" discipline).

use crate::rng::Rng;

/// A recorded sequence of draw results. Element `i` is the value returned
/// by the `i`-th call to [`Source::draw`], always in `0..bound` for that
/// call's bound — so `0` is the canonical "simplest" choice.
pub type Tape = Vec<u64>;

enum Mode<'a> {
    /// Draw fresh values from the PRNG and record them.
    Fresh(Rng),
    /// Replay a tape; out-of-range entries are reduced, an exhausted tape
    /// yields zeros (the simplest continuation).
    Replay(&'a [u64], usize),
}

/// The draw interface generators are written against.
pub struct Source<'a> {
    mode: Mode<'a>,
    record: Tape,
}

impl<'a> Source<'a> {
    /// A fresh source drawing from `rng`.
    pub fn fresh(rng: Rng) -> Source<'static> {
        Source {
            mode: Mode::Fresh(rng),
            record: Tape::new(),
        }
    }

    /// A replaying source reading from `tape`.
    pub fn replay(tape: &'a [u64]) -> Source<'a> {
        Source {
            mode: Mode::Replay(tape, 0),
            record: Tape::new(),
        }
    }

    /// Draws a value in `0..n`, recording it on the tape.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn draw(&mut self, n: u64) -> u64 {
        assert!(n > 0, "draw bound must be positive");
        let v = match &mut self.mode {
            Mode::Fresh(rng) => rng.below(n),
            Mode::Replay(tape, pos) => {
                let raw = tape.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                raw % n
            }
        };
        self.record.push(v);
        v
    }

    /// Consumes the source, returning its tape.
    pub fn into_tape(self) -> Tape {
        self.record
    }

    // ---- convenience draws, mirroring `Rng` but tape-recorded ----

    /// Draws an integer in `lo..=hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        let off = if span == 0 {
            // Full u64 span: compose from two draws.
            (self.draw(1 << 32) << 32) | self.draw(1 << 32)
        } else {
            self.draw(span)
        };
        (lo as i128 + off as i128) as i64
    }

    /// Draws an integer in `lo..=hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return (self.draw(1 << 32) << 32) | self.draw(1 << 32);
        }
        lo + self.draw(span + 1)
    }

    /// Draws an `i32` in `lo..=hi`.
    pub fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        self.i64_in(lo as i64, hi as i64) as i32
    }

    /// Draws a `u32` in `lo..=hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    /// Draws a `usize` in `lo..=hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Draws a boolean. `false` is the simpler choice.
    pub fn bool(&mut self) -> bool {
        self.draw(2) == 1
    }

    /// Returns `true` with probability `percent`/100. `false` shrinks first.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.draw(100) < u64::from(percent.min(100))
    }

    /// Draws one element of a non-empty slice. Earlier elements are
    /// considered simpler, so put the minimal case first.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        items[self.draw(items.len() as u64) as usize]
    }

    /// Draws an index according to integer weights. Shrinks toward the
    /// first arm, so order arms simplest-first.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_idx(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weighted choice needs a positive total weight");
        let mut point = self.draw(total);
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
    pub fn weighted<T: Copy>(&mut self, items: &[(T, u32)]) -> T {
        let weights: Vec<u32> = items.iter().map(|&(_, w)| w).collect();
        items[self.weighted_idx(&weights)].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_draws_are_recorded_and_replayable() {
        let mut src = Source::fresh(Rng::new(77));
        let a = src.i64_in(-10, 10);
        let b = src.usize_in(0, 5);
        let c = src.bool();
        let tape = src.into_tape();

        let mut replay = Source::replay(&tape);
        assert_eq!(replay.i64_in(-10, 10), a);
        assert_eq!(replay.usize_in(0, 5), b);
        assert_eq!(replay.bool(), c);
    }

    #[test]
    fn fresh_draws_stay_in_range() {
        let mut src = Source::fresh(Rng::new(8));
        for _ in 0..200 {
            assert!((0..=9).contains(&src.i64_in(0, 9)));
            assert!((1..=5).contains(&src.usize_in(1, 5)));
        }
    }

    #[test]
    fn exhausted_tape_yields_simplest_values() {
        let mut src = Source::replay(&[]);
        assert_eq!(src.i64_in(-10, 10), -10);
        assert_eq!(src.u64_in(3, 9), 3);
        assert!(!src.bool());
        assert_eq!(src.pick(&['x', 'y', 'z']), 'x');
        // The shrink target of recursive generators: the first (leaf) arm
        // and the lower length bound.
        assert_eq!(src.weighted_idx(&[1, 9]), 0);
        assert_eq!(src.usize_in(2, 6), 2);
    }

    #[test]
    fn out_of_range_tape_entries_are_reduced() {
        let tape = vec![u64::MAX, 1000];
        let mut src = Source::replay(&tape);
        let v = src.draw(7);
        assert!(v < 7);
        let w = src.draw(3);
        assert!(w < 3);
    }
}
