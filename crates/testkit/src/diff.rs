//! Differential oracles: run one input through several execution substrates
//! and demand agreement, shrinking the input on divergence.
//!
//! The harness is generic over the script element type `E` and the
//! observation type `O`; concrete substrate adapters live with the code
//! under test. Scripts are slices of elements so a divergence can be
//! minimized by deleting elements (and optionally simplifying them) while
//! the divergence persists.

use std::fmt::Debug;

/// A named execution substrate: replays a whole script from a fresh state
/// and returns its observable behaviour.
pub type SubstrateFn<E, O> = Box<dyn FnMut(&[E]) -> O>;

/// A shrinking hook proposing simpler replacements for one script element.
pub type SimplifyFn<E> = Box<dyn Fn(&E) -> Vec<E>>;

/// A disagreement between substrates on one script.
#[derive(Clone, Debug)]
pub struct Divergence<E, O> {
    /// The (possibly shrunk) script that exposes the disagreement.
    pub script: Vec<E>,
    /// Every substrate's observation of that script, in registration order.
    pub outputs: Vec<(String, O)>,
}

impl<E: Debug, O: PartialEq + Debug> std::fmt::Display for Divergence<E, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "substrates diverge on a {}-element script:",
            self.script.len()
        )?;
        for (i, e) in self.script.iter().enumerate() {
            writeln!(f, "  [{i}] {e:?}")?;
        }
        let reference = &self.outputs[0];
        for (name, out) in &self.outputs {
            let marker = if out == &reference.1 { " " } else { "*" };
            writeln!(f, " {marker}{name}: {out:?}")?;
        }
        Ok(())
    }
}

/// How many script executions the shrinker may spend.
const SHRINK_BUDGET: u32 = 2000;

/// Runs scripts through a set of substrates and checks agreement.
pub struct DiffHarness<E, O> {
    substrates: Vec<(String, SubstrateFn<E, O>)>,
    simplify: Option<SimplifyFn<E>>,
}

impl<E, O> Default for DiffHarness<E, O>
where
    E: Clone + Debug,
    O: PartialEq + Clone + Debug,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<E, O> DiffHarness<E, O>
where
    E: Clone + Debug,
    O: PartialEq + Clone + Debug,
{
    /// An empty harness.
    pub fn new() -> Self {
        DiffHarness {
            substrates: Vec::new(),
            simplify: None,
        }
    }

    /// Registers a substrate. The first registered substrate is the
    /// reference others are compared against.
    pub fn substrate(mut self, name: &str, f: impl FnMut(&[E]) -> O + 'static) -> Self {
        self.substrates.push((name.to_owned(), Box::new(f)));
        self
    }

    /// Sets an element simplifier: candidate replacements for one script
    /// element, simplest first. Used during shrinking only.
    pub fn simplify_with(mut self, f: impl Fn(&E) -> Vec<E> + 'static) -> Self {
        self.simplify = Some(Box::new(f));
        self
    }

    /// Number of registered substrates.
    pub fn len(&self) -> usize {
        self.substrates.len()
    }

    /// True when no substrate is registered.
    pub fn is_empty(&self) -> bool {
        self.substrates.is_empty()
    }

    /// Runs the script through every substrate once. Returns the agreed
    /// observation, or the raw (unshrunk) divergence.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two substrates are registered.
    pub fn run(&mut self, script: &[E]) -> Result<O, Divergence<E, O>> {
        assert!(
            self.substrates.len() >= 2,
            "differential testing needs at least two substrates"
        );
        let outputs: Vec<(String, O)> = self
            .substrates
            .iter_mut()
            .map(|(name, f)| (name.clone(), f(script)))
            .collect();
        let reference = outputs[0].1.clone();
        if outputs.iter().all(|(_, o)| *o == reference) {
            Ok(reference)
        } else {
            Err(Divergence {
                script: script.to_vec(),
                outputs,
            })
        }
    }

    /// Like [`run`](Self::run), but on divergence the script is shrunk to a
    /// minimal reproducer: greedy block deletion plus per-element
    /// simplification, keeping every candidate that still diverges.
    pub fn check(&mut self, script: &[E]) -> Result<O, Divergence<E, O>> {
        match self.run(script) {
            Ok(o) => Ok(o),
            Err(first) => Err(self.shrink(first)),
        }
    }

    fn diverges(&mut self, script: &[E]) -> bool {
        self.run(script).is_err()
    }

    fn shrink(&mut self, seed: Divergence<E, O>) -> Divergence<E, O> {
        let mut script = seed.script;
        let mut runs = 0u32;
        loop {
            let mut improved = false;

            // Delete blocks, large to small.
            let mut size = script.len().max(1);
            while size >= 1 {
                let mut start = 0;
                while start < script.len() {
                    if runs >= SHRINK_BUDGET {
                        break;
                    }
                    let end = (start + size).min(script.len());
                    let mut candidate = script.clone();
                    candidate.drain(start..end);
                    runs += 1;
                    if self.diverges(&candidate) {
                        script = candidate;
                        improved = true;
                    } else {
                        start += size;
                    }
                }
                if size == 1 {
                    break;
                }
                size /= 2;
            }

            // Simplify individual elements.
            if let Some(simplify) = self.simplify.take() {
                for i in 0..script.len() {
                    for replacement in simplify(&script[i]) {
                        if runs >= SHRINK_BUDGET {
                            break;
                        }
                        let mut candidate = script.clone();
                        candidate[i] = replacement;
                        runs += 1;
                        if self.diverges(&candidate) {
                            script = candidate;
                            improved = true;
                            break;
                        }
                    }
                }
                self.simplify = Some(simplify);
            }

            if !improved || runs >= SHRINK_BUDGET {
                // One final run to capture the minimal outputs.
                return match self.run(&script) {
                    Err(d) => d,
                    // The divergence vanished (flaky substrate): report the
                    // last known-diverging outputs on the shrunk script.
                    Ok(_) => Divergence {
                        script,
                        outputs: Vec::new(),
                    },
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy substrates: sum a list; the "buggy" one miscounts sevens.
    fn sum(script: &[i64]) -> i64 {
        script.iter().sum()
    }
    fn buggy_sum(script: &[i64]) -> i64 {
        script.iter().map(|&x| if x == 7 { 8 } else { x }).sum()
    }

    #[test]
    fn agreeing_substrates_return_the_observation() {
        let mut h = DiffHarness::new()
            .substrate("a", sum)
            .substrate("b", sum)
            .substrate("c", |s: &[i64]| s.iter().copied().sum::<i64>());
        assert_eq!(h.check(&[1, 2, 3]).expect("agree"), 6);
    }

    #[test]
    fn divergence_is_shrunk_to_the_minimal_reproducer() {
        let mut h = DiffHarness::new()
            .substrate("good", sum)
            .substrate("bad", buggy_sum)
            .simplify_with(|&e: &i64| if e > 0 { vec![0, e / 2] } else { vec![] });
        let script: Vec<i64> = vec![1, 2, 3, 7, 4, 5, 7, 6, 9, 10];
        let d = h.check(&script).expect_err("must diverge");
        assert_eq!(d.script, vec![7], "minimal reproducer is a single 7");
        assert_eq!(d.outputs.len(), 2);
        assert_ne!(d.outputs[0].1, d.outputs[1].1);
        // The display form marks the diverging substrate.
        let text = d.to_string();
        assert!(text.contains("*bad"), "display: {text}");
    }

    #[test]
    fn no_divergence_on_scripts_avoiding_the_bug() {
        let mut h = DiffHarness::new()
            .substrate("good", sum)
            .substrate("bad", buggy_sum);
        for s in [vec![], vec![1], vec![70, 17, 6]] {
            assert!(h.check(&s).is_ok(), "{s:?}");
        }
    }
}
