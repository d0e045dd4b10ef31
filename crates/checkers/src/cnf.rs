//! Tseitin CNF construction and 32-bit bit-vector blasting.
//!
//! [`CnfBuilder`] wraps a [`Solver`] and builds circuits
//! gate by gate: every gate output is a fresh literal constrained by its
//! Tseitin clauses. Bit-vectors are little-endian `Vec<Lit>` of width 32.

use crate::sat::{Lit, SatResult, Solver};

/// Bit-vector width used throughout (mini-C `int`).
pub const WIDTH: usize = 32;

/// A 32-bit symbolic word, least-significant bit first.
pub type BitVec = Vec<Lit>;

/// Circuit builder over a SAT solver.
///
/// # Examples
///
/// ```
/// use checkers::cnf::CnfBuilder;
///
/// let mut b = CnfBuilder::new();
/// let x = b.bv_fresh();
/// let seven = b.bv_const(7);
/// let ten = b.bv_const(10);
/// let sum = b.bv_add(&x, &seven);
/// let eq = b.bv_eq(&sum, &ten);
/// b.assert_lit(eq);
/// let model = b.solve(1_000_000);
/// assert!(model.is_sat());
/// ```
#[derive(Debug)]
pub struct CnfBuilder {
    solver: Solver,
    true_lit: Lit,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates a builder with a fresh solver.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let t = Lit::pos(solver.new_var());
        solver.add_clause(&[t]);
        CnfBuilder {
            solver,
            true_lit: t,
        }
    }

    /// The constant-true literal.
    pub fn tru(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn fls(&self) -> Lit {
        self.true_lit.negate()
    }

    /// A literal for a boolean constant.
    pub fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// Allocates a fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// Asserts a literal at the top level.
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause(&[l]);
    }

    /// Number of solver variables (size metric).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of solver clauses (size metric).
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Runs the solver with a conflict budget.
    pub fn solve(&mut self, max_conflicts: u64) -> SatResult {
        self.solver.solve(max_conflicts)
    }

    /// Evaluates a bit-vector under a model.
    pub fn bv_value(model: &[bool], bv: &BitVec) -> u32 {
        bv.iter().enumerate().fold(0u32, |acc, (i, &l)| {
            let bit = model[l.var().0 as usize] ^ l.is_neg();
            if bit {
                acc | (1 << i)
            } else {
                acc
            }
        })
    }

    // ---------------------------------------------------------------
    // Gates.
    // ---------------------------------------------------------------

    /// `o = a ∧ b`
    pub fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fls() || b == self.fls() {
            return self.fls();
        }
        if a == self.tru() {
            return b;
        }
        if b == self.tru() || a == b {
            return a;
        }
        if a == b.negate() {
            return self.fls();
        }
        let o = self.fresh();
        self.solver.add_clause(&[o.negate(), a]);
        self.solver.add_clause(&[o.negate(), b]);
        self.solver.add_clause(&[o, a.negate(), b.negate()]);
        o
    }

    /// `o = a ∨ b`
    pub fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        self.and2(a.negate(), b.negate()).negate()
    }

    /// `o = a ⊕ b`
    fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fls() {
            return b;
        }
        if b == self.fls() {
            return a;
        }
        if a == self.tru() {
            return b.negate();
        }
        if b == self.tru() {
            return a.negate();
        }
        if a == b {
            return self.fls();
        }
        if a == b.negate() {
            return self.tru();
        }
        let o = self.fresh();
        self.solver.add_clause(&[o.negate(), a, b]);
        self.solver
            .add_clause(&[o.negate(), a.negate(), b.negate()]);
        self.solver.add_clause(&[o, a, b.negate()]);
        self.solver.add_clause(&[o, a.negate(), b]);
        o
    }

    /// `o = a ↔ b`
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor2(a, b).negate()
    }

    /// `o = c ? t : e`
    fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.tru() {
            return t;
        }
        if c == self.fls() {
            return e;
        }
        if t == e {
            return t;
        }
        let o = self.fresh();
        self.solver.add_clause(&[c.negate(), t.negate(), o]);
        self.solver.add_clause(&[c.negate(), t, o.negate()]);
        self.solver.add_clause(&[c, e.negate(), o]);
        self.solver.add_clause(&[c, e, o.negate()]);
        o
    }

    /// `o = ∧ lits`
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.tru();
        for &l in lits {
            acc = self.and2(acc, l);
        }
        acc
    }

    /// `o = ∨ lits`
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.fls();
        for &l in lits {
            acc = self.or2(acc, l);
        }
        acc
    }

    // ---------------------------------------------------------------
    // Bit-vectors.
    // ---------------------------------------------------------------

    /// A constant word.
    pub fn bv_const(&mut self, value: u32) -> BitVec {
        (0..WIDTH)
            .map(|i| self.const_lit(value >> i & 1 == 1))
            .collect()
    }

    /// A fresh unconstrained word.
    pub fn bv_fresh(&mut self) -> BitVec {
        (0..WIDTH).map(|_| self.fresh()).collect()
    }

    /// Bitwise AND / OR / XOR / NOT.
    pub fn bv_and(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        (0..WIDTH).map(|i| self.and2(a[i], b[i])).collect()
    }

    /// Bitwise OR.
    pub fn bv_or(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        (0..WIDTH).map(|i| self.or2(a[i], b[i])).collect()
    }

    /// Bitwise XOR.
    pub fn bv_xor(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        (0..WIDTH).map(|i| self.xor2(a[i], b[i])).collect()
    }

    /// Bitwise complement.
    pub fn bv_not(&mut self, a: &BitVec) -> BitVec {
        a.iter().map(|l| l.negate()).collect()
    }

    /// Wrapping addition.
    pub fn bv_add(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let mut out = Vec::with_capacity(WIDTH);
        let mut carry = self.fls();
        for i in 0..WIDTH {
            let axb = self.xor2(a[i], b[i]);
            let sum = self.xor2(axb, carry);
            let c1 = self.and2(a[i], b[i]);
            let c2 = self.and2(axb, carry);
            carry = self.or2(c1, c2);
            out.push(sum);
        }
        out
    }

    /// Wrapping negation (two's complement).
    pub fn bv_neg(&mut self, a: &BitVec) -> BitVec {
        let inv = self.bv_not(a);
        let one = self.bv_const(1);
        self.bv_add(&inv, &one)
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let nb = self.bv_neg(b);
        self.bv_add(a, &nb)
    }

    /// Wrapping multiplication (shift-and-add).
    pub fn bv_mul(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let mut acc = self.bv_const(0);
        for i in 0..WIDTH {
            // Partial product: (b << i) masked by a[i].
            let mut partial = Vec::with_capacity(WIDTH);
            for k in 0..WIDTH {
                if k < i {
                    partial.push(self.fls());
                } else {
                    let bit = self.and2(a[i], b[k - i]);
                    partial.push(bit);
                }
            }
            acc = self.bv_add(&acc, &partial);
        }
        acc
    }

    /// Shift left by a variable amount (taken mod 32, like the ISS).
    pub fn bv_shl(&mut self, a: &BitVec, amount: &BitVec) -> BitVec {
        let mut cur = a.clone();
        for (stage, &sel) in amount.iter().enumerate().take(5) {
            let dist = 1usize << stage;
            let mut next = Vec::with_capacity(WIDTH);
            for i in 0..WIDTH {
                let shifted = if i >= dist { cur[i - dist] } else { self.fls() };
                next.push(self.ite(sel, shifted, cur[i]));
            }
            cur = next;
        }
        cur
    }

    /// Arithmetic shift right by a variable amount (mod 32).
    pub fn bv_sra(&mut self, a: &BitVec, amount: &BitVec) -> BitVec {
        let sign = a[WIDTH - 1];
        let mut cur = a.clone();
        for (stage, &sel) in amount.iter().enumerate().take(5) {
            let dist = 1usize << stage;
            let mut next = Vec::with_capacity(WIDTH);
            for i in 0..WIDTH {
                let shifted = if i + dist < WIDTH {
                    cur[i + dist]
                } else {
                    sign
                };
                next.push(self.ite(sel, shifted, cur[i]));
            }
            cur = next;
        }
        cur
    }

    /// Word equality.
    pub fn bv_eq(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        let bits: Vec<Lit> = (0..WIDTH).map(|i| self.iff(a[i], b[i])).collect();
        self.and_many(&bits)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        let mut lt = self.fls();
        for i in 0..WIDTH {
            let diff = self.xor2(a[i], b[i]);
            let bi_gt = self.and2(a[i].negate(), b[i]);
            lt = self.ite(diff, bi_gt, lt);
        }
        lt
    }

    /// Signed less-than (sign-bit flip reduces to unsigned).
    pub fn bv_slt(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        let mut af = a.clone();
        let mut bf = b.clone();
        af[WIDTH - 1] = a[WIDTH - 1].negate();
        bf[WIDTH - 1] = b[WIDTH - 1].negate();
        self.bv_ult(&af, &bf)
    }

    /// Word multiplexer.
    pub fn bv_ite(&mut self, c: Lit, t: &BitVec, e: &BitVec) -> BitVec {
        (0..WIDTH).map(|i| self.ite(c, t[i], e[i])).collect()
    }

    /// `word != 0`
    pub fn bv_nonzero(&mut self, a: &BitVec) -> Lit {
        self.or_many(&a.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    /// Asserts that the circuit forces `out` to equal `expect` when `a`/`b`
    /// take concrete values.
    fn check_binop(
        op: impl Fn(&mut CnfBuilder, &BitVec, &BitVec) -> BitVec,
        a: u32,
        b: u32,
        expect: u32,
    ) {
        let mut c = CnfBuilder::new();
        let av = c.bv_const(a);
        let bv = c.bv_const(b);
        let out = op(&mut c, &av, &bv);
        let want = c.bv_const(expect);
        let eq = c.bv_eq(&out, &want);
        c.assert_lit(eq.negate());
        assert_eq!(
            c.solve(100_000),
            SatResult::Unsat,
            "{a:#x} op {b:#x} must equal {expect:#x}"
        );
    }

    #[test]
    fn addition_matches_wrapping_semantics() {
        check_binop(CnfBuilder::bv_add, 2, 3, 5);
        check_binop(CnfBuilder::bv_add, u32::MAX, 1, 0);
        check_binop(CnfBuilder::bv_add, 0x8000_0000, 0x8000_0000, 0);
    }

    #[test]
    fn subtraction_and_negation() {
        check_binop(CnfBuilder::bv_sub, 10, 3, 7);
        check_binop(CnfBuilder::bv_sub, 0, 1, u32::MAX);
    }

    #[test]
    fn multiplication() {
        check_binop(CnfBuilder::bv_mul, 6, 7, 42);
        check_binop(CnfBuilder::bv_mul, 0xffff, 0x10001, 0xffff_ffff);
        check_binop(CnfBuilder::bv_mul, (-3i32) as u32, 5, (-15i32) as u32);
    }

    #[test]
    fn bitwise_operations() {
        check_binop(CnfBuilder::bv_and, 0b1100, 0b1010, 0b1000);
        check_binop(CnfBuilder::bv_or, 0b1100, 0b1010, 0b1110);
        check_binop(CnfBuilder::bv_xor, 0b1100, 0b1010, 0b0110);
    }

    #[test]
    fn shifts() {
        check_binop(CnfBuilder::bv_shl, 1, 4, 16);
        check_binop(CnfBuilder::bv_shl, 0x8000_0001, 1, 2);
        check_binop(CnfBuilder::bv_sra, (-8i32) as u32, 1, (-4i32) as u32);
        check_binop(CnfBuilder::bv_sra, 64, 3, 8);
    }

    #[test]
    fn comparisons() {
        let mut c = CnfBuilder::new();
        let a = c.bv_const(3);
        let b = c.bv_const(5);
        let m = c.bv_const((-2i32) as u32);
        let ult = c.bv_ult(&a, &b);
        c.assert_lit(ult);
        let slt = c.bv_slt(&m, &a); // -2 < 3 signed
        c.assert_lit(slt);
        let not_ult = c.bv_ult(&m, &a); // 0xfffffffe < 3 unsigned is false
        c.assert_lit(not_ult.negate());
        assert!(c.solve(100_000).is_sat());
    }

    #[test]
    fn solver_finds_inverse_of_addition() {
        // x + 7 == 10 → x == 3.
        let mut c = CnfBuilder::new();
        let x = c.bv_fresh();
        let seven = c.bv_const(7);
        let ten = c.bv_const(10);
        let sum = c.bv_add(&x, &seven);
        let eq = c.bv_eq(&sum, &ten);
        c.assert_lit(eq);
        match c.solve(1_000_000) {
            SatResult::Sat(model) => assert_eq!(CnfBuilder::bv_value(&model, &x), 3),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn solver_inverts_multiplication() {
        // x * 3 == 21 has solution x = 7 (among others mod 2^32).
        let mut c = CnfBuilder::new();
        let x = c.bv_fresh();
        let three = c.bv_const(3);
        let prod = c.bv_mul(&x, &three);
        let want = c.bv_const(21);
        let eq = c.bv_eq(&prod, &want);
        c.assert_lit(eq);
        match c.solve(2_000_000) {
            SatResult::Sat(model) => {
                let v = CnfBuilder::bv_value(&model, &x);
                assert_eq!(v.wrapping_mul(3), 21);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn ite_selects() {
        let mut c = CnfBuilder::new();
        let cond = c.fresh();
        let a = c.bv_const(11);
        let b = c.bv_const(22);
        let out = c.bv_ite(cond, &a, &b);
        c.assert_lit(cond);
        let want = c.bv_const(11);
        let eq = c.bv_eq(&out, &want);
        c.assert_lit(eq);
        assert!(c.solve(10_000).is_sat());
    }

    #[test]
    fn nonzero_detector() {
        let mut c = CnfBuilder::new();
        let z = c.bv_const(0);
        let nz = c.bv_nonzero(&z);
        c.assert_lit(nz);
        assert_eq!(c.solve(10_000), SatResult::Unsat);
    }
}
