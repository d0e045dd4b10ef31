//! Operation and return codes of the EEPROM-emulation software.
//!
//! These Rust constants mirror the literals used inside the mini-C source
//! (`eee.mc`); keep the two in sync.

use std::fmt;

/// Operation codes written to the `req_op` mailbox.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Op {
    /// `eee_read(id)`
    Read = 1,
    /// `eee_write(id, value)`
    Write = 2,
    /// `eee_format()`
    Format = 3,
    /// `eee_prepare()`
    Prepare = 4,
    /// `eee_refresh()`
    Refresh = 5,
    /// `eee_startup1()`
    Startup1 = 6,
    /// `eee_startup2()`
    Startup2 = 7,
}

impl Op {
    /// All operations in the paper's reporting order.
    pub const ALL: [Op; 7] = [
        Op::Read,
        Op::Write,
        Op::Startup1,
        Op::Startup2,
        Op::Format,
        Op::Prepare,
        Op::Refresh,
    ];

    /// The mailbox code.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// The mini-C function implementing the operation (the `fname`
    /// observation target).
    pub fn func_name(self) -> &'static str {
        match self {
            Op::Read => "eee_read",
            Op::Write => "eee_write",
            Op::Format => "eee_format",
            Op::Prepare => "eee_prepare",
            Op::Refresh => "eee_refresh",
            Op::Startup1 => "eee_startup1",
            Op::Startup2 => "eee_startup2",
        }
    }

    /// The return codes this operation may produce per specification —
    /// the denominator of the paper's coverage metric C.(%).
    pub fn specified_returns(self) -> &'static [RetCode] {
        use RetCode::*;
        match self {
            Op::Read => &[Ok, NotFound, ErrorState, ErrorParam],
            Op::Write => &[Ok, Busy, ErrorFlash, ErrorState, ErrorParam],
            Op::Format => &[Ok, ErrorFlash],
            Op::Prepare => &[Ok, ErrorFlash, ErrorState],
            Op::Refresh => &[Ok, Busy, ErrorFlash, ErrorState],
            Op::Startup1 => &[Ok, ErrorState],
            Op::Startup2 => &[Ok, ErrorState],
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Read => "Read",
            Op::Write => "Write",
            Op::Format => "Format",
            Op::Prepare => "Prepare",
            Op::Refresh => "Refresh",
            Op::Startup1 => "Startup1",
            Op::Startup2 => "Startup2",
        };
        f.write_str(s)
    }
}

/// Return codes of the EEELib operations.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RetCode {
    /// Success.
    Ok = 1,
    /// Resource temporarily unavailable (page full / nothing prepared).
    Busy = 2,
    /// No record with the requested id.
    NotFound = 3,
    /// The flash device reported a failure.
    ErrorFlash = 4,
    /// Operation not allowed in the current emulation state.
    ErrorState = 5,
    /// Invalid parameter.
    ErrorParam = 6,
}

impl RetCode {
    /// All return codes.
    pub const ALL: [RetCode; 6] = [
        RetCode::Ok,
        RetCode::Busy,
        RetCode::NotFound,
        RetCode::ErrorFlash,
        RetCode::ErrorState,
        RetCode::ErrorParam,
    ];

    /// The integer value used by the software.
    pub fn code(self) -> i32 {
        self as i32
    }
}

impl fmt::Display for RetCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RetCode::Ok => "EEE_OK",
            RetCode::Busy => "EEE_BUSY",
            RetCode::NotFound => "EEE_NOT_FOUND",
            RetCode::ErrorFlash => "EEE_ERROR_FLASH",
            RetCode::ErrorState => "EEE_ERROR_STATE",
            RetCode::ErrorParam => "EEE_ERROR_PARAM",
        };
        f.write_str(s)
    }
}

/// Number of distinct record ids supported by the emulation.
pub const NUM_IDS: i32 = 16;
/// Records per page (page words minus header, two words per record).
pub const RECORDS_PER_PAGE: i32 = 15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_specifies_ok() {
        for op in Op::ALL {
            assert!(op.specified_returns().contains(&RetCode::Ok));
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Op::Startup1.to_string(), "Startup1");
        assert_eq!(RetCode::Ok.to_string(), "EEE_OK");
    }
}
