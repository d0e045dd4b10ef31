//! Formula progression: the transition function of AR-automata.
//!
//! [`progress_with`] rewrites a formula after observing one step with
//! proposition valuation `v`; the residual formula characterises what must
//! hold of the remaining trace. Reaching the constant `true` (`false`) node
//! is exactly the AR-automaton's accept (reject) verdict.

use std::collections::HashMap;

use crate::il::{IlStore, Node, NodeId};

/// A proposition valuation: bit `i` is the truth of proposition `i` in the
/// store's table.
pub type Valuation = u64;

/// Progresses `id` over one observation step with valuation `v`.
///
/// The rewrite follows Bacchus–Kabanza progression, extended with the FLTL
/// time bounds (each step decrements the bound; an exhausted `F`/`U` bound
/// rejects, an exhausted `G`/`R` bound accepts):
///
/// ```text
/// prog(p)          = v(p)
/// prog(!f)         = !prog(f)
/// prog(X f)        = f
/// prog(F[b] f)     = prog(f) | F[b-1] f          (F[0] f reduces to f)
/// prog(G[b] f)     = prog(f) & G[b-1] f
/// prog(f U[b] g)   = prog(g) | (prog(f) & f U[b-1] g)
/// prog(f R[b] g)   = prog(g) & (prog(f) | f R[b-1] g)
/// ```
///
/// `memo` maps the subterms already progressed under `v`, so a shared
/// subterm of the DAG is rewritten once. It is only valid for a single
/// `(id, v)` rewrite: the caller clears it between calls, and reusing one
/// map keeps its capacity instead of allocating a fresh one per step.
pub fn progress_with(
    store: &mut IlStore,
    id: NodeId,
    v: Valuation,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let result = match store.node(id) {
        Node::True => IlStore::TRUE,
        Node::False => IlStore::FALSE,
        Node::Prop(i) => {
            if v & (1u64 << i) != 0 {
                IlStore::TRUE
            } else {
                IlStore::FALSE
            }
        }
        Node::Not(f) => {
            let pf = progress_with(store, f, v, memo);
            store.mk_not(pf)
        }
        Node::And(args) => {
            let operands: Vec<NodeId> = store.args(args).to_vec();
            let progressed: Vec<NodeId> = operands
                .into_iter()
                .map(|op| progress_with(store, op, v, memo))
                .collect();
            store.mk_and_n(progressed)
        }
        Node::Or(args) => {
            let operands: Vec<NodeId> = store.args(args).to_vec();
            let progressed: Vec<NodeId> = operands
                .into_iter()
                .map(|op| progress_with(store, op, v, memo))
                .collect();
            store.mk_or_n(progressed)
        }
        Node::Next(f) => f,
        Node::Finally(bound, f) => {
            let pf = progress_with(store, f, v, memo);
            let cont = match bound {
                None => store.mk_finally(None, f),
                Some(0) => IlStore::FALSE,
                Some(b) => store.mk_finally(Some(b - 1), f),
            };
            store.mk_or(pf, cont)
        }
        Node::Globally(bound, f) => {
            let pf = progress_with(store, f, v, memo);
            let cont = match bound {
                None => store.mk_globally(None, f),
                Some(0) => IlStore::TRUE,
                Some(b) => store.mk_globally(Some(b - 1), f),
            };
            store.mk_and(pf, cont)
        }
        Node::Until(bound, f, g) => {
            let pg = progress_with(store, g, v, memo);
            let pf = progress_with(store, f, v, memo);
            let cont = match bound {
                None => store.mk_until(None, f, g),
                Some(0) => IlStore::FALSE,
                Some(b) => store.mk_until(Some(b - 1), f, g),
            };
            let hold = store.mk_and(pf, cont);
            store.mk_or(pg, hold)
        }
        Node::Release(bound, f, g) => {
            let pg = progress_with(store, g, v, memo);
            let pf = progress_with(store, f, v, memo);
            let cont = match bound {
                None => store.mk_release(None, f, g),
                Some(0) => IlStore::TRUE,
                Some(b) => store.mk_release(Some(b - 1), f, g),
            };
            let release = store.mk_or(pf, cont);
            store.mk_and(pg, release)
        }
    };
    memo.insert(id, result);
    result
}

/// Builds a valuation mask from a slice of booleans in proposition-table
/// order.
///
/// # Panics
///
/// Panics if more than 64 values are supplied.
pub fn valuation_from_bools(values: &[bool]) -> Valuation {
    assert!(values.len() <= 64, "at most 64 propositions supported");
    values
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| if b { acc | (1 << i) } else { acc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog_chain(text: &str, steps: &[&[bool]]) -> NodeId {
        let f = parse(text).unwrap();
        let (mut store, mut node) = IlStore::from_formula(&f).unwrap();
        let mut memo = HashMap::new();
        for step in steps {
            memo.clear();
            node = progress_with(&mut store, node, valuation_from_bools(step), &mut memo);
        }
        node
    }

    #[test]
    fn proposition_resolves_immediately() {
        assert_eq!(prog_chain("p", &[&[true]]), IlStore::TRUE);
        assert_eq!(prog_chain("p", &[&[false]]), IlStore::FALSE);
    }

    #[test]
    fn next_defers_one_step() {
        assert_eq!(prog_chain("X p", &[&[false], &[true]]), IlStore::TRUE);
        assert_eq!(prog_chain("X p", &[&[true], &[false]]), IlStore::FALSE);
    }

    #[test]
    fn bounded_finally_rejects_after_bound() {
        // F[<=2] p: p may appear at steps 0, 1 or 2.
        assert_eq!(
            prog_chain("F[<=2] p", &[&[false], &[false], &[true]]),
            IlStore::TRUE
        );
        assert_eq!(
            prog_chain("F[<=2] p", &[&[false], &[false], &[false]]),
            IlStore::FALSE
        );
    }

    #[test]
    fn bounded_globally_accepts_after_bound() {
        assert_eq!(prog_chain("G[<=1] p", &[&[true], &[true]]), IlStore::TRUE);
        assert_eq!(prog_chain("G[<=1] p", &[&[true], &[false]]), IlStore::FALSE);
    }

    #[test]
    fn unbounded_globally_never_accepts() {
        let node = prog_chain("G p", &[&[true], &[true], &[true]]);
        assert_ne!(node, IlStore::TRUE);
        assert_ne!(node, IlStore::FALSE);
    }

    #[test]
    fn unbounded_finally_accepts_on_witness() {
        assert_eq!(prog_chain("F p", &[&[false], &[true]]), IlStore::TRUE);
    }

    #[test]
    fn until_requires_left_operand_until_witness() {
        // a U b on trace a,a,b.
        let t = &[true, false];
        let b = &[false, true];
        let none = &[false, false];
        assert_eq!(prog_chain("a U b", &[t, t, b]), IlStore::TRUE);
        assert_eq!(prog_chain("a U b", &[t, none]), IlStore::FALSE);
    }

    #[test]
    fn bounded_until_rejects_past_bound() {
        let t = &[true, false];
        assert_eq!(prog_chain("a U[<=1] b", &[t, t]), IlStore::FALSE);
    }

    #[test]
    fn release_holds_when_right_never_dropped() {
        // a R b with b always true stays pending (unbounded).
        let b_only = &[false, true];
        let node = prog_chain("a R b", &[b_only, b_only]);
        assert_ne!(node, IlStore::FALSE);
        // Once a & b observed, release discharges.
        let both = &[true, true];
        assert_eq!(prog_chain("a R b", &[b_only, both]), IlStore::TRUE);
        // b dropping before a rejects.
        let none = &[false, false];
        assert_eq!(prog_chain("a R b", &[none]), IlStore::FALSE);
    }

    #[test]
    fn bounded_release_accepts_after_bound() {
        let b_only = &[false, true];
        assert_eq!(prog_chain("a R[<=1] b", &[b_only, b_only]), IlStore::TRUE);
    }

    #[test]
    fn negation_commutes_with_progression() {
        // !(F[<=1] p) over p-free steps becomes true.
        assert_eq!(
            prog_chain("!(F[<=1] p)", &[&[false], &[false]]),
            IlStore::TRUE
        );
    }

    #[test]
    fn valuation_builder_sets_bits() {
        assert_eq!(valuation_from_bools(&[true, false, true]), 0b101);
    }

    #[test]
    fn progression_state_space_is_finite_for_bounded_formula() {
        // Stepping F[<=100] p with p=false must walk a descending chain and
        // never blow up the store.
        let f = parse("F[<=100] p").unwrap();
        let (mut store, mut node) = IlStore::from_formula(&f).unwrap();
        let mut memo = HashMap::new();
        // The bound covers steps 0..=100, so 101 steps decide the formula.
        for _ in 0..101 {
            memo.clear();
            node = progress_with(&mut store, node, 0, &mut memo);
        }
        assert_eq!(node, IlStore::FALSE);
        assert!(store.node_count() < 300);
    }
}
