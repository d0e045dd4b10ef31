//! Steady-state allocation audit for both monitoring engines.
//!
//! A counting `#[global_allocator]` proves that once a checker is warm —
//! compiled kernels lowered, atom table built — `Sctc::sample()` performs
//! **zero heap allocations**, clean and dirty samples alike, on the
//! change-driven engine and on the naive reference. That is the contract
//! that lets the monitor ride inside a simulation hot loop without
//! disturbing the model it observes.
//!
//! The counter is thread-local and gated by an explicit flag, so parallel
//! test threads (and the libtest harness itself) cannot pollute the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use minic::{lower, parse as parse_c, share_interp, Interp, SharedInterp};
use sctc_core::{esw, EngineKind, Proposition, Sctc};
use sctc_temporal::parse;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn tally() {
        // `try_with` so allocations during thread teardown (after the TLS
        // slot is destroyed) fall through silently instead of aborting.
        let live = COUNTING.try_with(Cell::get).unwrap_or(false);
        if live {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: delegates verbatim to `System`; the tally itself never allocates
// (const-initialised thread locals need no lazy setup).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the audit live and returns how many allocations it made.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn fresh_model() -> SharedInterp {
    let src = "int g0 = 0; int g1 = 0; int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(src).expect("model parses")).expect("model lowers"));
    share_interp(Interp::with_virtual_memory(ir))
}

/// The periodic stimulus: valuation writes on a fixed 8-sample cycle with
/// clean stutter stretches in between. Because both the input and the
/// monitor are finite-state, the warm phase drives the checker into its
/// steady-state orbit; every stutter-table level, memo entry, and kernel
/// row the measured window can touch has already been touched.
const PERIOD: [Option<u64>; 8] = [
    Some(0b01),
    None,
    None,
    Some(0b11),
    None,
    Some(0b00),
    None,
    None,
];

fn drive(sctc: &mut Sctc, model: &SharedInterp, cycles: usize, audit: bool) -> u64 {
    let mut allocs = 0;
    for _ in 0..cycles {
        for step in PERIOD {
            if let Some(v) = step {
                // The model write happens outside the audit window: the
                // contract under test is the *checker's* hot path, not the
                // interpreter's write path.
                let mut interp = model.borrow_mut();
                interp.set_global_by_name("g0", i32::from(v & 1 != 0));
                interp.set_global_by_name("g1", i32::from(v & 2 != 0));
            }
            if audit {
                allocs += allocations_in(|| {
                    sctc.sample();
                });
            } else {
                sctc.sample();
            }
        }
    }
    allocs
}

#[test]
fn warm_driven_engines_sample_without_allocating() {
    // An unbounded-G response property stays Pending forever on this
    // stimulus, so the measured window exercises the real stepping paths
    // (dirty flushes, stutter compression) rather than a latched verdict.
    let f = parse("G (p0 -> F[<=4] p1)").expect("property parses");

    for engine in [EngineKind::Compiled, EngineKind::Naive] {
        let model = fresh_model();
        let props: Vec<Box<dyn Proposition>> = vec![
            esw::global_nonzero("p0", model.clone(), "g0"),
            esw::global_nonzero("p1", model.clone(), "g1"),
        ];
        let mut sctc = Sctc::new();
        sctc.add_property("resp", &f, props, engine).unwrap();

        // Warm: 16 full periods reach the steady-state orbit (state count
        // times stimulus phase bounds the orbit length well below this).
        drive(&mut sctc, &model, 16, false);
        // Measure: 8 more periods, counting every allocation made inside
        // `sample()` — clean samples, dirty flushes, and monitor steps.
        let allocs = drive(&mut sctc, &model, 8, true);
        assert_eq!(
            allocs, 0,
            "{engine:?} allocated {allocs} times in the steady-state window"
        );
        assert!(
            sctc.results()[0].verdict == sctc_temporal::Verdict::Pending,
            "{engine:?}: stimulus must keep the property live"
        );
    }
}

/// The audit instrument itself must see allocations, or a green zero above
/// proves nothing.
#[test]
fn the_counter_actually_counts() {
    let n = allocations_in(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(v);
    });
    assert!(
        n >= 1,
        "instrument failure: Vec::with_capacity not observed"
    );
}
