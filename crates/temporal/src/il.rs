//! Intermediate Language (IL): a hash-consed formula DAG.
//!
//! SCTC translates property text into an IL representation before building
//! the AR-automaton (paper Section 3). Our IL is a hash-consed store of
//! formula nodes with simplifying smart constructors; AR-automaton states are
//! simply IL node ids, so synthesis and monitoring share one structure.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Formula;

/// An index into an [`IlStore`]'s node table.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a proposition in the store's proposition table.
pub type PropIdx = u16;

/// An index into an [`IlStore`]'s operand-list table (n-ary `And`/`Or`).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArgsId(pub(crate) u32);

/// One IL node. `Implies` is desugared on import, so the IL core stays
/// minimal.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Atomic proposition by table index.
    Prop(PropIdx),
    /// Negation.
    Not(NodeId),
    /// N-ary conjunction over a sorted, deduplicated operand list.
    ///
    /// Associative-commutative flattening is what keeps progression-based
    /// AR-automata finite: without it, `F (a & F b)` style formulas generate
    /// ever-growing `Or(x, Or(x, ...))` chains.
    And(ArgsId),
    /// N-ary disjunction over a sorted, deduplicated operand list.
    Or(ArgsId),
    /// Next.
    Next(NodeId),
    /// `F f` (`None`) or `F[<=b] f`.
    Finally(Option<u64>, NodeId),
    /// `G f` or `G[<=b] f`.
    Globally(Option<u64>, NodeId),
    /// `f U g` or `f U[<=b] g`.
    Until(Option<u64>, NodeId, NodeId),
    /// `f R g` or `f R[<=b] g`.
    Release(Option<u64>, NodeId, NodeId),
}

/// Error raised when a formula exceeds the IL limits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IlError {
    /// More distinct propositions than the supported maximum (64).
    TooManyPropositions {
        /// Number of propositions found in the formula.
        found: usize,
    },
}

impl fmt::Display for IlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlError::TooManyPropositions { found } => {
                write!(
                    f,
                    "formula uses {found} propositions; at most 64 are supported"
                )
            }
        }
    }
}

impl std::error::Error for IlError {}

/// A hash-consed store of IL nodes plus the proposition table.
///
/// Node ids are canonical: structurally equal (post-simplification) formulas
/// share one id, so id equality doubles as a fast formula-equality test —
/// the property that makes progression-based AR-automata finite.
#[derive(Clone, Debug)]
pub struct IlStore {
    props: Vec<String>,
    nodes: Vec<Node>,
    index: HashMap<Node, NodeId>,
    args: Vec<Vec<NodeId>>,
    args_index: HashMap<Vec<NodeId>, ArgsId>,
}

impl IlStore {
    /// Creates a store over a fixed set of proposition names.
    ///
    /// # Errors
    ///
    /// Fails if more than 64 propositions are supplied (valuations are
    /// represented as `u64` bit masks).
    pub fn new(prop_names: Vec<String>) -> Result<Self, IlError> {
        if prop_names.len() > 64 {
            return Err(IlError::TooManyPropositions {
                found: prop_names.len(),
            });
        }
        let mut store = IlStore {
            props: prop_names,
            nodes: Vec::new(),
            index: HashMap::new(),
            args: Vec::new(),
            args_index: HashMap::new(),
        };
        // Pre-intern the constants at fixed positions.
        let t = store.intern(Node::True);
        let f = store.intern(Node::False);
        debug_assert_eq!(t, IlStore::TRUE);
        debug_assert_eq!(f, IlStore::FALSE);
        Ok(store)
    }

    /// The canonical `true` node.
    pub const TRUE: NodeId = NodeId(0);
    /// The canonical `false` node.
    pub const FALSE: NodeId = NodeId(1);

    /// Returns the proposition names in index order.
    pub fn props(&self) -> &[String] {
        &self.props
    }

    /// Returns the number of interned nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the node behind an id.
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Returns an operand list.
    pub fn args(&self, id: ArgsId) -> &[NodeId] {
        &self.args[id.0 as usize]
    }

    fn intern_args(&mut self, operands: Vec<NodeId>) -> ArgsId {
        if let Some(&id) = self.args_index.get(&operands) {
            return id;
        }
        let id = ArgsId(self.args.len() as u32);
        self.args.push(operands.clone());
        self.args_index.insert(operands, id);
        id
    }

    /// Collapses same-shaped temporal operands that differ only in their
    /// time bound (`None` = unbounded = infinite bound):
    ///
    /// * conjunction keeps the **stronger** obligation
    ///   (`F`/`U`: smaller bound; `G`/`R`: larger bound),
    /// * disjunction keeps the **weaker** one (the duals).
    ///
    /// Without this, response properties like `G (a -> F[<=b] c)` accumulate
    /// one `F[k] c` obligation per trigger and the AR state space explodes
    /// exponentially in `b`.
    fn subsume_bounds(&self, flat: &mut Vec<NodeId>, conjunction: bool) {
        use std::collections::HashMap;
        // Key: (operator tag, child ids). Value: index of current winner.
        let mut winners: HashMap<(u8, NodeId, NodeId), usize> = HashMap::new();
        let mut remove = vec![false; flat.len()];
        let inf = |b: Option<u64>| b.unwrap_or(u64::MAX);
        for (i, &id) in flat.iter().enumerate() {
            let (tag, a, b, bound, smaller_is_stronger) = match self.node(id) {
                Node::Finally(bd, f) => (1u8, f, NodeId(u32::MAX), bd, true),
                Node::Globally(bd, f) => (2, f, NodeId(u32::MAX), bd, false),
                Node::Until(bd, f, g) => (3, f, g, bd, true),
                Node::Release(bd, f, g) => (4, f, g, bd, false),
                _ => continue,
            };
            let key = (tag, a, b);
            match winners.get(&key).copied() {
                None => {
                    winners.insert(key, i);
                }
                Some(w) => {
                    let w_bound = match self.node(flat[w]) {
                        Node::Finally(bd, _)
                        | Node::Globally(bd, _)
                        | Node::Until(bd, ..)
                        | Node::Release(bd, ..) => bd,
                        _ => unreachable!("winner has the same operator"),
                    };
                    // In a conjunction the stronger operand wins; in a
                    // disjunction the weaker one does.
                    let candidate_stronger = if smaller_is_stronger {
                        inf(bound) < inf(w_bound)
                    } else {
                        inf(bound) > inf(w_bound)
                    };
                    let candidate_wins = candidate_stronger == conjunction;
                    if candidate_wins {
                        remove[w] = true;
                        winners.insert(key, i);
                    } else {
                        remove[i] = true;
                    }
                }
            }
        }
        let mut keep = remove.iter().map(|r| !r);
        flat.retain(|_| keep.next().expect("same length"));
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.index.insert(node, id);
        id
    }

    /// Interns a proposition by table index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the proposition table.
    fn mk_prop(&mut self, idx: PropIdx) -> NodeId {
        assert!(
            (idx as usize) < self.props.len(),
            "proposition index out of range"
        );
        self.intern(Node::Prop(idx))
    }

    /// Interns a negation with simplification.
    pub fn mk_not(&mut self, f: NodeId) -> NodeId {
        match self.node(f) {
            Node::True => IlStore::FALSE,
            Node::False => IlStore::TRUE,
            Node::Not(inner) => inner,
            _ => self.intern(Node::Not(f)),
        }
    }

    /// Interns a binary conjunction; see [`IlStore::mk_and_n`].
    pub fn mk_and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.mk_and_n(vec![a, b])
    }

    /// Interns an n-ary conjunction with simplification: AC-flattening,
    /// operand sorting and deduplication, constant folding and complement
    /// elimination.
    pub fn mk_and_n(&mut self, operands: Vec<NodeId>) -> NodeId {
        let mut flat = Vec::with_capacity(operands.len());
        for op in operands {
            match self.node(op) {
                Node::True => {}
                Node::False => return IlStore::FALSE,
                Node::And(args) => flat.extend_from_slice(&self.args[args.0 as usize]),
                _ => flat.push(op),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        self.subsume_bounds(&mut flat, true);
        for &x in &flat {
            if let Node::Not(inner) = self.node(x) {
                if flat.binary_search(&inner).is_ok() {
                    return IlStore::FALSE;
                }
            }
        }
        match flat.len() {
            0 => IlStore::TRUE,
            1 => flat[0],
            _ => {
                let args = self.intern_args(flat);
                self.intern(Node::And(args))
            }
        }
    }

    /// Interns a binary disjunction; see [`IlStore::mk_or_n`].
    pub fn mk_or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.mk_or_n(vec![a, b])
    }

    /// Interns an n-ary disjunction with the dual simplifications of
    /// [`IlStore::mk_and_n`].
    pub fn mk_or_n(&mut self, operands: Vec<NodeId>) -> NodeId {
        let mut flat = Vec::with_capacity(operands.len());
        for op in operands {
            match self.node(op) {
                Node::False => {}
                Node::True => return IlStore::TRUE,
                Node::Or(args) => flat.extend_from_slice(&self.args[args.0 as usize]),
                _ => flat.push(op),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        self.subsume_bounds(&mut flat, false);
        for &x in &flat {
            if let Node::Not(inner) = self.node(x) {
                if flat.binary_search(&inner).is_ok() {
                    return IlStore::TRUE;
                }
            }
        }
        match flat.len() {
            0 => IlStore::FALSE,
            1 => flat[0],
            _ => {
                let args = self.intern_args(flat);
                self.intern(Node::Or(args))
            }
        }
    }

    /// Interns a next-step operator.
    fn mk_next(&mut self, f: NodeId) -> NodeId {
        match self.node(f) {
            Node::True => IlStore::TRUE,
            Node::False => IlStore::FALSE,
            _ => self.intern(Node::Next(f)),
        }
    }

    /// Interns `F[bound] f`, reducing trivial cases (`F[0] f = f`,
    /// constants).
    pub fn mk_finally(&mut self, bound: Option<u64>, f: NodeId) -> NodeId {
        match self.node(f) {
            Node::True => return IlStore::TRUE,
            Node::False => return IlStore::FALSE,
            _ => {}
        }
        if bound == Some(0) {
            return f;
        }
        self.intern(Node::Finally(bound, f))
    }

    /// Interns `G[bound] f`, reducing trivial cases.
    pub fn mk_globally(&mut self, bound: Option<u64>, f: NodeId) -> NodeId {
        match self.node(f) {
            Node::True => return IlStore::TRUE,
            Node::False => return IlStore::FALSE,
            _ => {}
        }
        if bound == Some(0) {
            return f;
        }
        self.intern(Node::Globally(bound, f))
    }

    /// Interns `f U[bound] g`, reducing trivial cases
    /// (`f U[0] g = g`, `false U g = g`, `f U true = true`).
    pub fn mk_until(&mut self, bound: Option<u64>, f: NodeId, g: NodeId) -> NodeId {
        if g == IlStore::TRUE {
            return IlStore::TRUE;
        }
        if g == IlStore::FALSE {
            return IlStore::FALSE;
        }
        if bound == Some(0) || f == IlStore::FALSE {
            return g;
        }
        if f == IlStore::TRUE {
            return self.mk_finally(bound, g);
        }
        self.intern(Node::Until(bound, f, g))
    }

    /// Interns `f R[bound] g`, reducing trivial cases.
    pub fn mk_release(&mut self, bound: Option<u64>, f: NodeId, g: NodeId) -> NodeId {
        if g == IlStore::TRUE {
            return IlStore::TRUE;
        }
        if g == IlStore::FALSE {
            return IlStore::FALSE;
        }
        if bound == Some(0) {
            return g;
        }
        if f == IlStore::TRUE {
            return g;
        }
        if f == IlStore::FALSE {
            return self.mk_globally(bound, g);
        }
        self.intern(Node::Release(bound, f, g))
    }

    /// Imports an AST [`Formula`], desugaring implications.
    ///
    /// # Panics
    ///
    /// Panics if the formula mentions a proposition not present in the
    /// store's table (create the store from `formula.propositions()`).
    fn import(&mut self, formula: &Formula) -> NodeId {
        match formula {
            Formula::True => IlStore::TRUE,
            Formula::False => IlStore::FALSE,
            Formula::Prop(name) => {
                let idx = self
                    .props
                    .iter()
                    .position(|p| p == name)
                    .unwrap_or_else(|| panic!("proposition `{name}` missing from store table"));
                self.mk_prop(idx as PropIdx)
            }
            Formula::Not(f) => {
                let f = self.import(f);
                self.mk_not(f)
            }
            Formula::And(a, b) => {
                let a = self.import(a);
                let b = self.import(b);
                self.mk_and(a, b)
            }
            Formula::Or(a, b) => {
                let a = self.import(a);
                let b = self.import(b);
                self.mk_or(a, b)
            }
            Formula::Implies(a, b) => {
                let a = self.import(a);
                let b = self.import(b);
                let na = self.mk_not(a);
                self.mk_or(na, b)
            }
            Formula::Next(f) => {
                let f = self.import(f);
                self.mk_next(f)
            }
            Formula::Finally(b, f) => {
                let f = self.import(f);
                self.mk_finally(b.map(|t| t.0), f)
            }
            Formula::Globally(b, f) => {
                let f = self.import(f);
                self.mk_globally(b.map(|t| t.0), f)
            }
            Formula::Until(bd, a, b) => {
                let a = self.import(a);
                let b = self.import(b);
                self.mk_until(bd.map(|t| t.0), a, b)
            }
            Formula::Release(bd, a, b) => {
                let a = self.import(a);
                let b = self.import(b);
                self.mk_release(bd.map(|t| t.0), a, b)
            }
        }
    }

    /// Builds a store containing exactly one formula; returns the store and
    /// the root node.
    ///
    /// # Errors
    ///
    /// See [`IlStore::new`].
    pub fn from_formula(formula: &Formula) -> Result<(Self, NodeId), IlError> {
        let mut store = IlStore::new(formula.propositions())?;
        let root = store.import(formula);
        Ok((store, root))
    }

    /// Renders a node as FLTL text (for diagnostics).
    pub fn render(&self, id: NodeId) -> String {
        match self.node(id) {
            Node::True => "true".to_owned(),
            Node::False => "false".to_owned(),
            Node::Prop(i) => self.props[i as usize].clone(),
            Node::Not(f) => format!("!({})", self.render(f)),
            Node::And(args) => {
                let parts: Vec<String> = self.args[args.0 as usize]
                    .clone()
                    .iter()
                    .map(|&n| self.render(n))
                    .collect();
                format!("({})", parts.join(" & "))
            }
            Node::Or(args) => {
                let parts: Vec<String> = self.args[args.0 as usize]
                    .clone()
                    .iter()
                    .map(|&n| self.render(n))
                    .collect();
                format!("({})", parts.join(" | "))
            }
            Node::Next(f) => format!("X ({})", self.render(f)),
            Node::Finally(b, f) => format!("F{} ({})", bound_str(b), self.render(f)),
            Node::Globally(b, f) => format!("G{} ({})", bound_str(b), self.render(f)),
            Node::Until(bd, a, b) => {
                format!("({} U{} {})", self.render(a), bound_str(bd), self.render(b))
            }
            Node::Release(bd, a, b) => {
                format!("({} R{} {})", self.render(a), bound_str(bd), self.render(b))
            }
        }
    }
}

fn bound_str(b: Option<u64>) -> String {
    match b {
        Some(b) => format!("[<={b}]"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn hash_consing_shares_structure() {
        let f = parse("(a & b) | (a & b)").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        // a, b, a&b, plus constants: or-of-identical collapses entirely.
        assert!(matches!(store.node(root), Node::And(_)));
    }

    #[test]
    fn constants_fold() {
        let f = parse("true & (false | p)").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        assert_eq!(store.node(root), Node::Prop(0));
    }

    #[test]
    fn complement_collapses() {
        let f = parse("p & !p").unwrap();
        let (_, root) = IlStore::from_formula(&f).unwrap();
        assert_eq!(root, IlStore::FALSE);
        let g = parse("p | !p").unwrap();
        let (_, root) = IlStore::from_formula(&g).unwrap();
        assert_eq!(root, IlStore::TRUE);
    }

    #[test]
    fn implication_desugars_to_or() {
        let f = parse("a -> b").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        assert!(matches!(store.node(root), Node::Or(_)));
    }

    #[test]
    fn zero_bounds_reduce() {
        let f = parse("F[<=0] p").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        assert_eq!(store.node(root), Node::Prop(0));
        let g = parse("a U[<=0] b").unwrap();
        let (store, root) = IlStore::from_formula(&g).unwrap();
        assert_eq!(store.node(root), Node::Prop(1)); // prop table sorted: a, b
    }

    #[test]
    fn until_with_constant_operands_reduces() {
        let f = parse("true U p").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        assert!(matches!(store.node(root), Node::Finally(None, _)));
        let g = parse("false U p").unwrap();
        let (store, root) = IlStore::from_formula(&g).unwrap();
        assert_eq!(store.node(root), Node::Prop(0));
    }

    #[test]
    fn commutative_operands_are_ordered() {
        let ab = parse("a & b").unwrap();
        let ba = parse("b & a").unwrap();
        let (mut store, r1) = IlStore::from_formula(&ab).unwrap();
        let r2 = store.import(&ba);
        assert_eq!(r1, r2);
    }

    #[test]
    fn too_many_props_rejected() {
        let names: Vec<String> = (0..65).map(|i| format!("p{i}")).collect();
        assert!(matches!(
            IlStore::new(names),
            Err(IlError::TooManyPropositions { found: 65 })
        ));
    }

    #[test]
    fn bound_subsumption_in_conjunction_keeps_stronger() {
        let (mut store, _) = IlStore::from_formula(&parse("p").unwrap()).unwrap();
        let p = store.mk_prop(0);
        let f2 = store.mk_finally(Some(2), p);
        let f5 = store.mk_finally(Some(5), p);
        let finf = store.mk_finally(None, p);
        assert_eq!(store.mk_and(f2, f5), f2);
        assert_eq!(store.mk_and(f5, finf), f5);
        assert_eq!(store.mk_or(f2, f5), f5);
        assert_eq!(store.mk_or(f5, finf), finf);
        let g2 = store.mk_globally(Some(2), p);
        let g5 = store.mk_globally(Some(5), p);
        assert_eq!(store.mk_and(g2, g5), g5);
        assert_eq!(store.mk_or(g2, g5), g2);
    }

    #[test]
    fn until_release_subsumption() {
        let f = parse("a & b").unwrap();
        let (mut store, _) = IlStore::from_formula(&f).unwrap();
        let a = store.mk_prop(0);
        let b = store.mk_prop(1);
        let u2 = store.mk_until(Some(2), a, b);
        let u9 = store.mk_until(Some(9), a, b);
        assert_eq!(store.mk_and(u2, u9), u2);
        assert_eq!(store.mk_or(u2, u9), u9);
        let r2 = store.mk_release(Some(2), a, b);
        let r9 = store.mk_release(Some(9), a, b);
        assert_eq!(store.mk_and(r2, r9), r9);
        assert_eq!(store.mk_or(r2, r9), r2);
    }

    #[test]
    fn subsumption_ignores_different_operands() {
        let f = parse("a & b").unwrap();
        let (mut store, _) = IlStore::from_formula(&f).unwrap();
        let a = store.mk_prop(0);
        let b = store.mk_prop(1);
        let fa = store.mk_finally(Some(2), a);
        let fb = store.mk_finally(Some(5), b);
        let both = store.mk_and(fa, fb);
        assert!(matches!(store.node(both), Node::And(_)));
    }

    #[test]
    fn render_is_readable() {
        let f = parse("G (a -> F[<=2] b)").unwrap();
        let (store, root) = IlStore::from_formula(&f).unwrap();
        let text = store.render(root);
        assert!(text.contains("F[<=2]"));
        assert!(text.starts_with("G"));
    }
}
