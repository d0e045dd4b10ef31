//! Abstract syntax of FLTL — linear temporal logic with optional time bounds
//! on the temporal operators (paper Section 3, citing Ruf et al.).

use std::collections::BTreeSet;
use std::fmt;

/// An upper time bound `[<= b]` on a temporal operator, counted in trigger
/// steps (clock cycles in the microprocessor flow, statements in the
/// derived-model flow).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimeBound(pub u64);

impl fmt::Display for TimeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[<={}]", self.0)
    }
}

/// An FLTL formula.
///
/// Temporal operators take an optional [`TimeBound`]; `None` gives the plain
/// LTL operator.
///
/// # Examples
///
/// ```
/// use sctc_temporal::Formula;
///
/// // F (read -> F[<=1000] eee_ok)   — the paper's property template (A)
/// let f = Formula::finally(
///     None,
///     Formula::implies(Formula::prop("read"), Formula::finally(Some(1000), Formula::prop("eee_ok"))),
/// );
/// assert_eq!(f.to_string(), "F (read -> F[<=1000] eee_ok)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atomic proposition, referred to by name.
    Prop(String),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Next-step operator `X f`.
    Next(Box<Formula>),
    /// Eventually `F f` / bounded `F[<=b] f`.
    Finally(Option<TimeBound>, Box<Formula>),
    /// Always `G f` / bounded `G[<=b] f`.
    Globally(Option<TimeBound>, Box<Formula>),
    /// Until `f U g` / bounded `f U[<=b] g` (strong until).
    Until(Option<TimeBound>, Box<Formula>, Box<Formula>),
    /// Release `f R g` (dual of until).
    Release(Option<TimeBound>, Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Builds an atomic proposition.
    pub fn prop(name: &str) -> Formula {
        Formula::Prop(name.to_owned())
    }

    /// Builds `!f`.
    // Named for the logic connective; this is a constructor taking the
    // operand, not a negation of `self`, so `ops::Not` does not fit.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Builds `a & b`.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Builds `a | b`.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Builds `a -> b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Builds `X f`.
    pub fn next(f: Formula) -> Formula {
        Formula::Next(Box::new(f))
    }

    /// Builds `F f` or `F[<=b] f`.
    pub fn finally(bound: Option<u64>, f: Formula) -> Formula {
        Formula::Finally(bound.map(TimeBound), Box::new(f))
    }

    /// Builds `G f` or `G[<=b] f`.
    pub fn globally(bound: Option<u64>, f: Formula) -> Formula {
        Formula::Globally(bound.map(TimeBound), Box::new(f))
    }

    /// Builds `a U g` or `a U[<=b] g`.
    pub fn until(bound: Option<u64>, a: Formula, b: Formula) -> Formula {
        Formula::Until(bound.map(TimeBound), Box::new(a), Box::new(b))
    }

    /// Builds `a R g` or `a R[<=b] g`.
    pub fn release(bound: Option<u64>, a: Formula, b: Formula) -> Formula {
        Formula::Release(bound.map(TimeBound), Box::new(a), Box::new(b))
    }

    /// Collects the names of all atomic propositions, sorted and deduplicated.
    pub fn propositions(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_props(&mut set);
        set.into_iter().collect()
    }

    fn collect_props(&self, out: &mut BTreeSet<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Prop(name) => {
                out.insert(name.clone());
            }
            Formula::Not(f) | Formula::Next(f) => f.collect_props(out),
            Formula::Finally(_, f) | Formula::Globally(_, f) => f.collect_props(out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Until(_, a, b)
            | Formula::Release(_, a, b) => {
                a.collect_props(out);
                b.collect_props(out);
            }
        }
    }

    /// The number of steps after which a fully bounded formula is guaranteed
    /// to be decided, or `None` for formulas with unbounded operators.
    pub fn decision_horizon(&self) -> Option<u64> {
        match self {
            Formula::True | Formula::False | Formula::Prop(_) => Some(0),
            Formula::Not(f) => f.decision_horizon(),
            Formula::Next(f) => f.decision_horizon().map(|h| h + 1),
            Formula::Finally(b, f) | Formula::Globally(b, f) => {
                Some(b.as_ref()?.0 + f.decision_horizon()?)
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                Some(a.decision_horizon()?.max(b.decision_horizon()?))
            }
            Formula::Until(bd, a, b) | Formula::Release(bd, a, b) => {
                Some(bd.as_ref()?.0 + a.decision_horizon()?.max(b.decision_horizon()?))
            }
        }
    }
}

/// Operator precedence used by the printer (higher binds tighter).
fn precedence(f: &Formula) -> u8 {
    match f {
        Formula::True | Formula::False | Formula::Prop(_) => 5,
        Formula::Not(_) | Formula::Next(_) | Formula::Finally(..) | Formula::Globally(..) => 4,
        Formula::Until(..) | Formula::Release(..) => 3,
        Formula::And(..) => 2,
        Formula::Or(..) => 1,
        Formula::Implies(..) => 0,
    }
}

fn fmt_child(f: &Formula, parent_prec: u8, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    if precedence(f) < parent_prec {
        write!(out, "({f})")
    } else {
        write!(out, "{f}")
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => out.write_str("true"),
            Formula::False => out.write_str("false"),
            Formula::Prop(name) => out.write_str(name),
            Formula::Not(f) => {
                out.write_str("!")?;
                fmt_child(f, 5, out)
            }
            Formula::Next(f) => {
                out.write_str("X ")?;
                fmt_child(f, 4, out)
            }
            Formula::Finally(b, f) => {
                out.write_str("F")?;
                if let Some(b) = b {
                    write!(out, "{b}")?;
                }
                out.write_str(" ")?;
                fmt_child(f, 4, out)
            }
            Formula::Globally(b, f) => {
                out.write_str("G")?;
                if let Some(b) = b {
                    write!(out, "{b}")?;
                }
                out.write_str(" ")?;
                fmt_child(f, 4, out)
            }
            Formula::And(a, b) => {
                fmt_child(a, 2, out)?;
                out.write_str(" & ")?;
                fmt_child(b, 3, out)
            }
            Formula::Or(a, b) => {
                fmt_child(a, 1, out)?;
                out.write_str(" | ")?;
                fmt_child(b, 2, out)
            }
            Formula::Implies(a, b) => {
                fmt_child(a, 1, out)?;
                out.write_str(" -> ")?;
                fmt_child(b, 0, out)
            }
            Formula::Until(bd, a, b) => {
                fmt_child(a, 4, out)?;
                out.write_str(" U")?;
                if let Some(bd) = bd {
                    write!(out, "{bd}")?;
                }
                out.write_str(" ")?;
                fmt_child(b, 4, out)
            }
            Formula::Release(bd, a, b) => {
                fmt_child(a, 4, out)?;
                out.write_str(" R")?;
                if let Some(bd) = bd {
                    write!(out, "{bd}")?;
                }
                out.write_str(" ")?;
                fmt_child(b, 4, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn props_are_collected_sorted_and_unique() {
        let f = Formula::and(
            Formula::prop("b"),
            Formula::or(Formula::prop("a"), Formula::prop("b")),
        );
        assert_eq!(f.propositions(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn display_uses_minimal_parentheses() {
        let f = Formula::or(
            Formula::and(Formula::prop("a"), Formula::prop("b")),
            Formula::prop("c"),
        );
        assert_eq!(f.to_string(), "a & b | c");
        let g = Formula::and(
            Formula::or(Formula::prop("a"), Formula::prop("b")),
            Formula::prop("c"),
        );
        assert_eq!(g.to_string(), "(a | b) & c");
    }

    #[test]
    fn bounded_operators_print_bounds() {
        let f = Formula::finally(Some(10), Formula::prop("ok"));
        assert_eq!(f.to_string(), "F[<=10] ok");
        let g = Formula::until(Some(3), Formula::prop("busy"), Formula::prop("done"));
        assert_eq!(g.to_string(), "busy U[<=3] done");
    }

    #[test]
    fn fully_bounded_detection() {
        let f = Formula::finally(Some(10), Formula::globally(Some(2), Formula::prop("p")));
        assert_eq!(f.decision_horizon(), Some(12));
        let g = Formula::finally(None, Formula::prop("p"));
        assert_eq!(g.decision_horizon(), None);
    }

    #[test]
    fn next_adds_one_to_horizon() {
        let f = Formula::next(Formula::next(Formula::prop("p")));
        assert_eq!(f.decision_horizon(), Some(2));
    }
}
