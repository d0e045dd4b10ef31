//! Loading, lowering and compiling of the embedded mini-C source.
//!
//! The source is a compile-time constant, so its IR and its program image
//! are too: each thread parses, lowers and compiles it once and hands out
//! `Rc` clones to every campaign shard, fault unit, SMC sample and served
//! job it runs. The memo is per thread because the flows are `!Send` and
//! built inside the worker, and because the interpreter clones its
//! program `Rc` on every statement, where an `Arc` would put an atomic on
//! the hottest path.

use std::cell::RefCell;
use std::rc::Rc;

use minic::codegen::{compile, CodegenOptions, CompiledProgram};
use minic::ir::IrProgram;
use sctc_cpu::IsaKind;

/// The EEPROM-emulation software, DFALib + EEELib + dispatcher, in mini-C.
pub const EEE_SOURCE: &str = include_str!("eee.mc");

thread_local! {
    static IR: Rc<IrProgram> = {
        let ast = minic::parse(EEE_SOURCE).expect("embedded EEE source parses");
        Rc::new(minic::lower(&ast).expect("embedded EEE source type-checks"))
    };
    /// At most one image per [`IsaKind`].
    static IMAGES: RefCell<Vec<Rc<CompiledProgram>>> = const { RefCell::new(Vec::new()) };
}

/// The parsed and lowered case-study program, built once per thread.
///
/// # Panics
///
/// Panics if the embedded source fails to parse or type-check — that is a
/// build defect, not a runtime condition.
pub fn build_ir() -> Rc<IrProgram> {
    IR.with(Rc::clone)
}

/// The case-study program compiled for `isa` with the default layout,
/// built once per thread and encoding.
///
/// # Panics
///
/// Panics if the embedded program fails to compile (a build defect).
pub fn compiled_program(isa: IsaKind) -> Rc<CompiledProgram> {
    IMAGES.with(|images| {
        if let Some(image) = images.borrow().iter().find(|image| image.isa() == isa) {
            return Rc::clone(image);
        }
        let options = CodegenOptions {
            isa,
            ..CodegenOptions::default()
        };
        let image = Rc::new(compile(&build_ir(), options).expect("EEE program compiles"));
        images.borrow_mut().push(Rc::clone(&image));
        image
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    #[test]
    fn source_parses_and_lowers() {
        let ir = build_ir();
        assert!(ir.main.is_some());
        // All seven operations exist as functions.
        for op in Op::ALL {
            assert!(
                ir.func_by_name(op.func_name()).is_some(),
                "missing {}",
                op.func_name()
            );
        }
        // The observable globals exist.
        for g in [
            "flag",
            "req_op",
            "req_arg0",
            "req_arg1",
            "eee_last_ret",
            "eee_read_value",
            "eee_ready",
        ] {
            assert!(ir.global_by_name(g).is_some(), "missing global {g}");
        }
    }

    #[test]
    fn program_has_case_study_scale() {
        let ir = build_ir();
        // The original case study is ~8k lines C with 81 functions; our
        // scaled version must still be a substantial state-driven program.
        assert!(ir.functions.len() >= 15, "found {}", ir.functions.len());
        assert!(ir.stmt_count() >= 200, "found {}", ir.stmt_count());
    }

    #[test]
    fn one_thread_shares_one_ir_and_one_image_per_encoding() {
        assert!(Rc::ptr_eq(&build_ir(), &build_ir()));
        for isa in [IsaKind::Word32, IsaKind::Comp16] {
            let image = compiled_program(isa);
            assert!(Rc::ptr_eq(&image, &compiled_program(isa)));
            assert_eq!(image.isa(), isa);
        }
        assert!(!Rc::ptr_eq(
            &compiled_program(IsaKind::Word32),
            &compiled_program(IsaKind::Comp16)
        ));
    }

    #[test]
    fn a_spawned_thread_builds_and_uses_its_own_memo() {
        let ir = build_ir();
        let here = Rc::as_ptr(&ir) as usize;
        let outcome = |cases| {
            let outcome = crate::run_micro(crate::ExperimentConfig {
                cases,
                ..crate::ExperimentConfig::default()
            });
            (outcome.report.test_cases, outcome.report.sim_ticks)
        };
        let (there, shared, theirs) = std::thread::spawn(move || {
            let ir = build_ir();
            let shared = Rc::ptr_eq(&ir, &build_ir())
                && Rc::ptr_eq(
                    &compiled_program(IsaKind::Word32),
                    &compiled_program(IsaKind::Word32),
                );
            (Rc::as_ptr(&ir) as usize, shared, outcome(3))
        })
        .join()
        .expect("the spawned thread runs");
        // `ir` is still alive here, so the other thread's allocation
        // cannot reuse its address.
        assert_ne!(here, there, "each thread parses its own IR");
        assert!(shared, "the spawned thread reuses its own memo");
        assert_eq!(theirs, outcome(3));
    }

    #[test]
    fn memoised_images_equal_a_fresh_compile() {
        for isa in [IsaKind::Word32, IsaKind::Comp16] {
            let ast = minic::parse(EEE_SOURCE).expect("parses");
            let options = CodegenOptions {
                isa,
                ..CodegenOptions::default()
            };
            let fresh = compile(&minic::lower(&ast).expect("lowers"), options).expect("compiles");
            let memo = compiled_program(isa);
            assert_eq!(memo.text, fresh.text, "{isa:?}");
            assert_eq!(memo.global_addrs, fresh.global_addrs, "{isa:?}");
            assert_eq!(memo.global_words, fresh.global_words, "{isa:?}");
            assert_eq!(memo.fname_addr, fresh.fname_addr, "{isa:?}");
            assert_eq!(memo.fname_values, fresh.fname_values, "{isa:?}");
            assert_eq!(memo.global_init, fresh.global_init, "{isa:?}");
            assert_eq!(memo.options, fresh.options, "{isa:?}");
        }
    }
}
