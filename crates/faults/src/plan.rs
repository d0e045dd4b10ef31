//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is a pure function of `(seed, cases, percent)`: a seeded
//! [`Stimulus`] (SplitMix64, the same determinism contract as the stimulus
//! and campaign crates) schedules at most one [`FaultEvent`] per test case.
//! Slicing the plan per shard with [`FaultPlan::for_shard`] preserves the
//! schedule exactly, so a sharded fault campaign replays the same faults
//! for any worker count.

use eee::{FaultKind, NUM_PAGES, PAGE_WORDS};
use stimuli::{derive_seed, derive_seed_salted, Stimulus};

/// Seed salt separating the fault schedule from the request stream (which
/// uses the shard seed directly).
pub const FAULT_PLAN_SALT: u64 = 0xFA17_0BAD;

/// One fault to inject, scheduled against a test case.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultEvent {
    /// Arm a one-shot flash command failure (the FAULT register's typed
    /// encoding) before the case starts.
    Command(FaultKind),
    /// Persistently flip one stored bit before the case starts.
    BitFlip {
        /// Global word index into the flash array.
        word: u32,
        /// Bit position (0..32).
        bit: u32,
    },
    /// Force one cell bit to read as 0 until further notice.
    StuckZero {
        /// Global word index into the flash array.
        word: u32,
        /// Bit position (0..32).
        bit: u32,
    },
    /// Force one cell bit to read as 1 until further notice.
    StuckOne {
        /// Global word index into the flash array.
        word: u32,
        /// Bit position (0..32).
        bit: u32,
    },
    /// Corrupt exactly the next data read of one word (soft error).
    TransientRead {
        /// Global word index into the flash array.
        word: u32,
        /// Bit position (0..32).
        bit: u32,
    },
    /// Cut power once the flash has consumed this many further device
    /// cycles: the ESW is torn down mid-operation and restarted while the
    /// flash array persists.
    PowerLoss {
        /// Device cycles (busy ticks) after the case starts.
        after_device_cycles: u64,
    },
}

impl FaultEvent {
    /// Short class name used as the detection-matrix row key.
    pub fn class(&self) -> &'static str {
        match self {
            FaultEvent::Command(FaultKind::EraseFail) => "cmd-erase",
            FaultEvent::Command(FaultKind::ProgramFail) => "cmd-program",
            FaultEvent::BitFlip { .. } => "bit-flip",
            FaultEvent::StuckZero { .. } => "stuck-0",
            FaultEvent::StuckOne { .. } => "stuck-1",
            FaultEvent::TransientRead { .. } => "transient",
            FaultEvent::PowerLoss { .. } => "power-loss",
        }
    }

    /// Human-readable parameters (word/bit or cycle offset).
    pub fn detail(&self) -> String {
        match self {
            FaultEvent::Command(kind) => format!("{kind:?}"),
            FaultEvent::BitFlip { word, bit }
            | FaultEvent::StuckZero { word, bit }
            | FaultEvent::StuckOne { word, bit }
            | FaultEvent::TransientRead { word, bit } => format!("word {word} bit {bit}"),
            FaultEvent::PowerLoss {
                after_device_cycles,
            } => format!("after {after_device_cycles} device cycles"),
        }
    }
}

/// A fault bound to the test case that triggers it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PlannedFault {
    /// Index of the test case (plan-local; global before
    /// [`FaultPlan::for_shard`] rebases it).
    pub case_index: u64,
    /// The fault to inject when that case launches.
    pub event: FaultEvent,
}

/// The full fault schedule of a campaign.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Faults in ascending `case_index` order, at most one per case.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Generates the schedule for `cases` test cases: each case draws a
    /// fault with probability `percent`%. Pure in `(seed, cases, percent)`.
    pub fn generate(seed: u64, cases: u64, percent: u32) -> Self {
        Self::from_stimulus(
            Stimulus::new(derive_seed(seed, FAULT_PLAN_SALT)),
            cases,
            percent,
        )
    }

    /// Generates an independently **randomized** plan for one indexed
    /// sample of a statistical campaign: the stream is salted with both
    /// the caller's salt and the sample index, so every sample draws its
    /// faults from a fresh SplitMix64 stream while the whole family stays
    /// a pure function of `(seed, salt, index, cases, percent)`.
    pub fn randomized(seed: u64, salt: u64, index: u64, cases: u64, percent: u32) -> Self {
        Self::from_stimulus(
            Stimulus::new(derive_seed_salted(seed, salt ^ FAULT_PLAN_SALT, index)),
            cases,
            percent,
        )
    }

    fn from_stimulus(mut stim: Stimulus, cases: u64, percent: u32) -> Self {
        let words = (NUM_PAGES * PAGE_WORDS) as i32;
        let mut faults = Vec::new();
        for case_index in 0..cases {
            if !stim.chance(percent) {
                continue;
            }
            let class = stim.weighted(&[
                (0u8, 20), // command failure
                (1, 12),   // bit flip
                (2, 9),    // stuck-at-0
                (3, 9),    // stuck-at-1
                (4, 15),   // transient read
                (5, 35),   // power loss
            ]);
            let event = match class {
                0 => {
                    FaultEvent::Command(stim.pick(&[FaultKind::EraseFail, FaultKind::ProgramFail]))
                }
                1..=4 => {
                    let word = stim.int_in(0, words - 1) as u32;
                    let bit = stim.int_in(0, 31) as u32;
                    match class {
                        1 => FaultEvent::BitFlip { word, bit },
                        2 => FaultEvent::StuckZero { word, bit },
                        3 => FaultEvent::StuckOne { word, bit },
                        _ => FaultEvent::TransientRead { word, bit },
                    }
                }
                _ => FaultEvent::PowerLoss {
                    after_device_cycles: stim.int_in(1, 12) as u64,
                },
            };
            faults.push(PlannedFault { case_index, event });
        }
        FaultPlan { faults }
    }

    /// The slice of the plan falling into `[start_case, start_case+cases)`,
    /// rebased to shard-local case indices.
    pub fn for_shard(&self, start_case: u64, cases: u64) -> FaultPlan {
        FaultPlan {
            faults: self
                .faults
                .iter()
                .filter(|f| f.case_index >= start_case && f.case_index < start_case + cases)
                .map(|f| PlannedFault {
                    case_index: f.case_index - start_case,
                    event: f.event,
                })
                .collect(),
        }
    }

    /// Whether any power-loss event is scheduled (drivers use this to
    /// enable the per-statement power hook only when needed).
    pub fn has_power_loss(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.event, FaultEvent::PowerLoss { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let a = FaultPlan::generate(7, 200, 40);
        let b = FaultPlan::generate(7, 200, 40);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(8, 200, 40));
    }

    #[test]
    fn shard_slices_tile_the_global_plan() {
        let plan = FaultPlan::generate(3, 100, 50);
        let mut rebuilt = Vec::new();
        for start in (0..100).step_by(25) {
            let local = plan.for_shard(start, 25);
            for f in &local.faults {
                assert!(f.case_index < 25);
                rebuilt.push(PlannedFault {
                    case_index: f.case_index + start,
                    event: f.event,
                });
            }
        }
        assert_eq!(rebuilt, plan.faults);
    }

    #[test]
    fn at_most_one_fault_per_case_and_all_classes_show_up() {
        let plan = FaultPlan::generate(11, 2000, 60);
        for pair in plan.faults.windows(2) {
            assert!(pair[0].case_index < pair[1].case_index);
        }
        let classes: std::collections::BTreeSet<&str> =
            plan.faults.iter().map(|f| f.event.class()).collect();
        for class in [
            "cmd-erase",
            "cmd-program",
            "bit-flip",
            "stuck-0",
            "stuck-1",
            "transient",
            "power-loss",
        ] {
            assert!(classes.contains(class), "missing {class}");
        }
    }

    #[test]
    fn zero_percent_means_no_faults() {
        assert!(FaultPlan::generate(1, 500, 0).faults.is_empty());
        assert!(!FaultPlan::generate(1, 500, 0).has_power_loss());
    }

    #[test]
    fn randomized_plans_are_pure_and_index_independent() {
        let a = FaultPlan::randomized(7, 0xCAFE, 3, 50, 60);
        assert_eq!(a, FaultPlan::randomized(7, 0xCAFE, 3, 50, 60));
        assert_ne!(a, FaultPlan::randomized(7, 0xCAFE, 4, 50, 60));
        assert_ne!(a, FaultPlan::randomized(7, 0xBEEF, 3, 50, 60));
        assert_ne!(a, FaultPlan::randomized(8, 0xCAFE, 3, 50, 60));
    }

    #[test]
    fn randomized_stream_is_independent_of_the_campaign_stream() {
        // A sample plan must not replay the campaign-global schedule even
        // when seed and case budget coincide.
        let campaign = FaultPlan::generate(11, 100, 50);
        let sample = FaultPlan::randomized(11, 0, 0, 100, 50);
        assert_ne!(campaign, sample);
    }

    #[test]
    fn randomized_family_covers_all_classes() {
        let classes: std::collections::BTreeSet<&str> = (0..200)
            .flat_map(|i| FaultPlan::randomized(5, 1, i, 10, 80).faults)
            .map(|f| f.event.class())
            .collect();
        assert!(classes.len() >= 6, "family too narrow: {classes:?}");
    }
}
