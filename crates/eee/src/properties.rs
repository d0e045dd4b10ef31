//! The paper's property set for the EEELib operations.
//!
//! Each property instantiates the template of Section 4 for one operation:
//! whenever the operation is executing, a return value is delivered within
//! the time bound —
//!
//! ```text
//! G (op_active -> F[<=b] op_done)
//! ```
//!
//! where `op_active` observes the operation's function through the `fname`
//! mechanism and `op_done` observes the shared return-code variable
//! (`eee_last_ret != 0`; the dispatcher clears it before every operation).
//! Omitting the bound gives the pure-LTL ("No-TB") variant used in the
//! microprocessor flow, where a statement takes many clock cycles.

use minic::codegen::CompiledProgram;
use minic::SharedInterp;
use sctc_core::{esw, sym, Proposition};
use sctc_cpu::SharedSoc;
use sctc_temporal::{parse, Formula};

use crate::ops::Op;

/// Builds the response property for an operation with an optional bound.
///
/// # Panics
///
/// Never — the generated text is valid by construction.
pub fn response_property(op: Op, bound: Option<u64>) -> Formula {
    let bound_text = match bound {
        Some(b) => format!("[<={b}]"),
        None => String::new(),
    };
    let text = format!("G (op_active -> F{bound_text} op_done)");
    parse(&text).unwrap_or_else(|e| panic!("property template for {op} must parse: {e}"))
}

/// Binds the property's propositions against the derived model.
pub fn bind_derived(op: Op, interp: &SharedInterp) -> Vec<Box<dyn Proposition>> {
    vec![
        esw::fname_is("op_active", interp.clone(), op.func_name()),
        esw::global_nonzero("op_done", interp.clone(), "eee_last_ret"),
    ]
}

/// Binds the property's propositions against the microprocessor model.
///
/// State is referenced by symbolic name through the memory's attached
/// symbol map (`__fname`, `eee_last_ret`); the resolved observations — and
/// therefore the canonical atom keys and every campaign fingerprint — are
/// identical to the former address-based binding.
pub fn bind_micro(
    op: Op,
    soc: &SharedSoc,
    compiled: &CompiledProgram,
) -> Vec<Box<dyn Proposition>> {
    vec![
        sym::word_eq(
            "op_active",
            soc.clone(),
            "__fname",
            compiled.fname_value(op.func_name()),
        ),
        sym::word_nonzero("op_done", soc.clone(), "eee_last_ret"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_unbounded_templates_parse() {
        for op in Op::ALL {
            let bounded = response_property(op, Some(1000));
            // The bounded response sits inside an unbounded `G`, so no
            // finite horizon decides it.
            assert_eq!(bounded.decision_horizon(), None);
            assert_eq!(
                bounded.propositions(),
                vec!["op_active".to_owned(), "op_done".to_owned()]
            );
            let unbounded = response_property(op, None);
            assert_eq!(unbounded.propositions().len(), 2);
        }
    }

    #[test]
    fn bound_appears_in_formula_text() {
        let f = response_property(Op::Read, Some(42));
        assert!(f.to_string().contains("[<=42]"));
        let g = response_property(Op::Read, None);
        assert!(!g.to_string().contains("[<="));
    }
}
