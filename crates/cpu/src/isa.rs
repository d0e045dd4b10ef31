//! Instruction-set architecture of the microprocessor model.
//!
//! A small RISC in the RV32I mould: 16 general registers (`r0` wired to
//! zero), load/store architecture. The operation set is exactly what the
//! mini-C code generator needs — no more.
//!
//! Since PR 9 the architecture is *described*, not hand-written: the
//! [`ISA`] table is the single in-tree declarative description of every
//! operation (opcode, mnemonic, operand kind), and the encoder, the
//! decoder, the assembler's mnemonic lookup and the disassembly printer
//! are all derived from it. Decoding is a table walk through a
//! const-built 256-entry LUT ([`op_desc`]), which is what the SoC hot
//! loop executes.
//!
//! Two *encodings* of the same operation set exist, selected by
//! [`IsaKind`]:
//!
//! * [`IsaKind::Word32`] — fixed 32-bit words:
//!   `[31:24] opcode | [23:20] rd | [19:16] rs1 | [15:12] rs2 | [15:0] imm`
//!   (R-type instructions use the `rs2` nibble, I/B-types the 16-bit
//!   immediate, so `rd`/`rs1` never overlap `imm`). Branch/jump offsets
//!   count 4-byte words.
//! * [`IsaKind::Comp16`] — a compressed variable-width encoding. The
//!   first halfword is `[15:9] opcode | [8:5] rd | [4:1] rs1 | [0] ext`;
//!   when `ext` is set a second halfword carries the full 16-bit
//!   immediate field, otherwise the immediate is implicitly zero and the
//!   instruction is 2 bytes. Control-flow instructions (branch, `jal`,
//!   `jalr`) are always extended so every instruction's size is known
//!   locally — program layout needs no relaxation fixpoint. Branch/jump
//!   offsets count 2-byte halfwords.
//!
//! Both encodings share the operation semantics, the [`Instr`] type and
//! the opcode space; the compressed variant is data in the same table,
//! not a fork.

use std::fmt;

/// A register index `r0`–`r15`. `r0` always reads zero.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return-value register (software convention).
    pub const RV: Reg = Reg(12);
    /// Frame pointer (software convention).
    pub const FP: Reg = Reg(13);
    /// Stack pointer (software convention).
    pub const SP: Reg = Reg(14);
    /// Link register (software convention).
    pub const RA: Reg = Reg(15);

    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 16 or larger.
    pub fn new(index: u8) -> Reg {
        assert!(index < 16, "register index out of range");
        Reg(index)
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Three-register ALU operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by rs2 & 31).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Signed less-than (result 0/1).
    Slt,
    /// Unsigned less-than (result 0/1).
    Sltu,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (division by zero yields all-ones, RISC-V style).
    Div,
    /// Signed remainder (remainder by zero yields the dividend).
    Rem,
    /// Unsigned division.
    Divu,
    /// Unsigned remainder.
    Remu,
}

/// Branch conditions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// One machine instruction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `rd = rs1 <op> rs2`
    Alu(AluOp, Reg, Reg, Reg),
    /// `rd = rs1 + sign_extend(imm)`
    Addi(Reg, Reg, i16),
    /// `rd = rs1 & zero_extend(imm)`
    Andi(Reg, Reg, u16),
    /// `rd = rs1 | zero_extend(imm)`
    Ori(Reg, Reg, u16),
    /// `rd = rs1 ^ zero_extend(imm)`
    Xori(Reg, Reg, u16),
    /// `rd = rs1 <u zero_extend(imm)` (result 0/1)
    Sltiu(Reg, Reg, u16),
    /// `rd = imm << 16`
    Lui(Reg, u16),
    /// `rd = mem32[rs1 + sign_extend(imm)]`
    Lw(Reg, Reg, i16),
    /// `mem32[rs1 + sign_extend(imm)] = rd` (note: `rd` field holds the
    /// stored register)
    Sw(Reg, Reg, i16),
    /// Branch to `pc + unit*offset` when `rs1 <cond> rs2` — offset in
    /// encoding units (words on `Word32`, halfwords on `Comp16`).
    Branch(BranchCond, Reg, Reg, i16),
    /// `rd = pc + size; pc += unit*offset`
    Jal(Reg, i16),
    /// `rd = pc + size; pc = rs1 + sign_extend(imm)` (absolute bytes)
    Jalr(Reg, Reg, i16),
    /// Stop the processor.
    Halt,
    /// No operation.
    Nop,
}

/// An error decoding an instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The undecodable fetch unit — the full 32-bit word on `Word32`,
    /// the zero-extended leading halfword on `Comp16`.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Operand/semantics class of one described operation. Together with the
/// fixed field layout this fully determines how an instruction of that
/// kind is assembled, encoded, decoded and printed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// No operands, no effect.
    Nop,
    /// No operands, stops the core.
    Halt,
    /// R-type: `rd, rs1, rs2` (rs2 rides in the high immediate nibble).
    Alu(AluOp),
    /// I-type, signed immediate: `rd, rs1, simm`.
    Addi,
    /// I-type, unsigned immediate: `rd, rs1, uimm`.
    Andi,
    /// I-type, unsigned immediate.
    Ori,
    /// I-type, unsigned immediate.
    Xori,
    /// I-type, unsigned immediate.
    Sltiu,
    /// U-type: `rd, uimm` (`rd = uimm << 16`).
    Lui,
    /// Load: `rd, simm(rs1)`.
    Lw,
    /// Store: `rs2, simm(rs1)` (stored register in the rd field).
    Sw,
    /// B-type: `rs1, rs2, offset` (rs2 in the rd field).
    Branch(BranchCond),
    /// J-type: `rd, offset`.
    Jal,
    /// Indirect jump: `rd, simm(rs1)`.
    Jalr,
}

/// One row of the declarative ISA description.
#[derive(Copy, Clone, Debug)]
pub struct OpDesc {
    /// The opcode byte (7 bits used; shared by both encodings).
    pub opcode: u8,
    /// Assembly mnemonic (drives the assembler and the printer).
    pub mnemonic: &'static str,
    /// Operand/semantics class.
    pub kind: OpKind,
}

const fn op(opcode: u8, mnemonic: &'static str, kind: OpKind) -> OpDesc {
    OpDesc {
        opcode,
        mnemonic,
        kind,
    }
}

/// The declarative ISA description: every operation the machine has.
///
/// Opcode layout (all ≤ `0x7f`, so both the 8-bit `Word32` field and the
/// 7-bit `Comp16` field hold every opcode):
/// `0x00` nop · `0x01..=0x0f` ALU · `0x20..=0x25` immediates ·
/// `0x30/0x31` memory · `0x40..=0x45` branches · `0x50/0x51` jumps ·
/// `0x7f` halt.
pub const ISA: &[OpDesc] = &[
    op(0x00, "nop", OpKind::Nop),
    op(0x01, "add", OpKind::Alu(AluOp::Add)),
    op(0x02, "sub", OpKind::Alu(AluOp::Sub)),
    op(0x03, "and", OpKind::Alu(AluOp::And)),
    op(0x04, "or", OpKind::Alu(AluOp::Or)),
    op(0x05, "xor", OpKind::Alu(AluOp::Xor)),
    op(0x06, "sll", OpKind::Alu(AluOp::Sll)),
    op(0x07, "srl", OpKind::Alu(AluOp::Srl)),
    op(0x08, "sra", OpKind::Alu(AluOp::Sra)),
    op(0x09, "slt", OpKind::Alu(AluOp::Slt)),
    op(0x0a, "sltu", OpKind::Alu(AluOp::Sltu)),
    op(0x0b, "mul", OpKind::Alu(AluOp::Mul)),
    op(0x0c, "div", OpKind::Alu(AluOp::Div)),
    op(0x0d, "rem", OpKind::Alu(AluOp::Rem)),
    op(0x0e, "divu", OpKind::Alu(AluOp::Divu)),
    op(0x0f, "remu", OpKind::Alu(AluOp::Remu)),
    op(0x20, "addi", OpKind::Addi),
    op(0x21, "andi", OpKind::Andi),
    op(0x22, "ori", OpKind::Ori),
    op(0x23, "xori", OpKind::Xori),
    op(0x24, "sltiu", OpKind::Sltiu),
    op(0x25, "lui", OpKind::Lui),
    op(0x30, "lw", OpKind::Lw),
    op(0x31, "sw", OpKind::Sw),
    op(0x40, "beq", OpKind::Branch(BranchCond::Eq)),
    op(0x41, "bne", OpKind::Branch(BranchCond::Ne)),
    op(0x42, "blt", OpKind::Branch(BranchCond::Lt)),
    op(0x43, "bge", OpKind::Branch(BranchCond::Ge)),
    op(0x44, "bltu", OpKind::Branch(BranchCond::Ltu)),
    op(0x45, "bgeu", OpKind::Branch(BranchCond::Geu)),
    op(0x50, "jal", OpKind::Jal),
    op(0x51, "jalr", OpKind::Jalr),
    op(0x7f, "halt", OpKind::Halt),
];

/// Opcode → `ISA` index + 1, zero meaning "no such opcode". Built from
/// the description at compile time so decoding is one bounds-check-free
/// load.
const DECODE_LUT: [u8; 256] = build_decode_lut();

const fn build_decode_lut() -> [u8; 256] {
    let mut lut = [0u8; 256];
    let mut i = 0;
    while i < ISA.len() {
        let opcode = ISA[i].opcode as usize;
        assert!(lut[opcode] == 0, "duplicate opcode in ISA description");
        assert!(ISA[i].opcode <= 0x7f, "opcode exceeds the 7-bit space");
        lut[opcode] = (i + 1) as u8;
        i += 1;
    }
    lut
}

/// Looks up an opcode byte in the description table.
#[inline]
pub fn op_desc(opcode: u8) -> Option<&'static OpDesc> {
    match DECODE_LUT[opcode as usize] {
        0 => None,
        i => Some(&ISA[(i - 1) as usize]),
    }
}

/// Finds a described operation by mnemonic (the assembler's lookup).
pub fn op_by_mnemonic(mnemonic: &str) -> Option<&'static OpDesc> {
    ISA.iter().find(|d| d.mnemonic == mnemonic)
}

const fn kind_matches(a: OpKind, b: OpKind) -> bool {
    match (a, b) {
        (OpKind::Nop, OpKind::Nop)
        | (OpKind::Halt, OpKind::Halt)
        | (OpKind::Addi, OpKind::Addi)
        | (OpKind::Andi, OpKind::Andi)
        | (OpKind::Ori, OpKind::Ori)
        | (OpKind::Xori, OpKind::Xori)
        | (OpKind::Sltiu, OpKind::Sltiu)
        | (OpKind::Lui, OpKind::Lui)
        | (OpKind::Lw, OpKind::Lw)
        | (OpKind::Sw, OpKind::Sw)
        | (OpKind::Jal, OpKind::Jal)
        | (OpKind::Jalr, OpKind::Jalr) => true,
        (OpKind::Alu(x), OpKind::Alu(y)) => x as u8 == y as u8,
        (OpKind::Branch(x), OpKind::Branch(y)) => x as u8 == y as u8,
        _ => false,
    }
}

/// Opcode of a kind, looked up in the description at compile time.
const fn opcode_of(kind: OpKind) -> u8 {
    let mut i = 0;
    while i < ISA.len() {
        if kind_matches(ISA[i].kind, kind) {
            return ISA[i].opcode;
        }
        i += 1;
    }
    panic!("operation missing from the ISA description")
}

fn pack(opcode: u8, rd: Reg, rs1: Reg, imm: u16) -> u32 {
    ((opcode as u32) << 24)
        | ((rd.index() as u32) << 20)
        | ((rs1.index() as u32) << 16)
        | imm as u32
}

impl Instr {
    /// Projects the instruction onto the shared field layout:
    /// `(kind, rd-slot, rs1-slot, imm)`. Both encodings pack exactly
    /// these four fields.
    fn fields(self) -> (OpKind, Reg, Reg, u16) {
        match self {
            Instr::Nop => (OpKind::Nop, Reg::ZERO, Reg::ZERO, 0),
            Instr::Halt => (OpKind::Halt, Reg::ZERO, Reg::ZERO, 0),
            Instr::Alu(op, rd, rs1, rs2) => (OpKind::Alu(op), rd, rs1, (rs2.index() as u16) << 12),
            Instr::Addi(rd, rs1, imm) => (OpKind::Addi, rd, rs1, imm as u16),
            Instr::Andi(rd, rs1, imm) => (OpKind::Andi, rd, rs1, imm),
            Instr::Ori(rd, rs1, imm) => (OpKind::Ori, rd, rs1, imm),
            Instr::Xori(rd, rs1, imm) => (OpKind::Xori, rd, rs1, imm),
            Instr::Sltiu(rd, rs1, imm) => (OpKind::Sltiu, rd, rs1, imm),
            Instr::Lui(rd, imm) => (OpKind::Lui, rd, Reg::ZERO, imm),
            Instr::Lw(rd, rs1, imm) => (OpKind::Lw, rd, rs1, imm as u16),
            Instr::Sw(rs2, rs1, imm) => (OpKind::Sw, rs2, rs1, imm as u16),
            // The branch rd slot holds rs2.
            Instr::Branch(cond, rs1, rs2, offset) => {
                (OpKind::Branch(cond), rs2, rs1, offset as u16)
            }
            Instr::Jal(rd, offset) => (OpKind::Jal, rd, Reg::ZERO, offset as u16),
            Instr::Jalr(rd, rs1, imm) => (OpKind::Jalr, rd, rs1, imm as u16),
        }
    }

    /// Rebuilds an instruction from the shared field layout.
    fn from_fields(kind: OpKind, rd: Reg, rs1: Reg, imm: u16) -> Instr {
        let simm = imm as i16;
        match kind {
            OpKind::Nop => Instr::Nop,
            OpKind::Halt => Instr::Halt,
            OpKind::Alu(op) => Instr::Alu(op, rd, rs1, Reg(((imm >> 12) & 0xf) as u8)),
            OpKind::Addi => Instr::Addi(rd, rs1, simm),
            OpKind::Andi => Instr::Andi(rd, rs1, imm),
            OpKind::Ori => Instr::Ori(rd, rs1, imm),
            OpKind::Xori => Instr::Xori(rd, rs1, imm),
            OpKind::Sltiu => Instr::Sltiu(rd, rs1, imm),
            OpKind::Lui => Instr::Lui(rd, imm),
            OpKind::Lw => Instr::Lw(rd, rs1, simm),
            OpKind::Sw => Instr::Sw(rd, rs1, simm),
            OpKind::Branch(cond) => Instr::Branch(cond, rs1, rd, simm),
            OpKind::Jal => Instr::Jal(rd, simm),
            OpKind::Jalr => Instr::Jalr(rd, rs1, simm),
        }
    }

    /// The table row describing this instruction's operation.
    pub fn desc(self) -> &'static OpDesc {
        let (kind, ..) = self.fields();
        op_desc(opcode_of(kind)).expect("every kind is described")
    }

    /// Encodes the instruction into a 32-bit `Word32` word.
    pub fn encode(self) -> u32 {
        let (kind, rd, rs1, imm) = self.fields();
        pack(opcode_of(kind), rd, rs1, imm)
    }

    /// Decodes a 32-bit `Word32` word by walking the description table.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown opcodes.
    #[inline]
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let desc = op_desc((word >> 24) as u8).ok_or(DecodeError { word })?;
        let rd = Reg(((word >> 20) & 0xf) as u8);
        let rs1 = Reg(((word >> 16) & 0xf) as u8);
        let imm = (word & 0xffff) as u16;
        Ok(Instr::from_fields(desc.kind, rd, rs1, imm))
    }

    /// Whether this operation is always emitted in extended (4-byte) form
    /// under `Comp16`. Control flow always extends so instruction sizes
    /// are position-independent and layout needs no relaxation fixpoint.
    fn c16_always_ext(kind: OpKind) -> bool {
        matches!(kind, OpKind::Branch(_) | OpKind::Jal | OpKind::Jalr)
    }

    /// Encodes the instruction under `Comp16`: the leading halfword and,
    /// when extended, the immediate halfword.
    pub fn encode_c16(self) -> (u16, Option<u16>) {
        let (kind, rd, rs1, imm) = self.fields();
        let ext = Self::c16_always_ext(kind) || imm != 0;
        let lo = ((opcode_of(kind) as u16) << 9)
            | ((rd.index() as u16) << 5)
            | ((rs1.index() as u16) << 1)
            | u16::from(ext);
        (lo, ext.then_some(imm))
    }

    /// Size of this instruction under `Comp16`, in halfwords (1 or 2).
    fn c16_halfwords(self) -> u32 {
        let (_, hi) = self.encode_c16();
        if hi.is_some() {
            2
        } else {
            1
        }
    }

    /// Inspects a `Comp16` leading halfword: validates the opcode and
    /// returns whether an immediate halfword follows.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown opcodes (the fetcher then never
    /// reads past the invalid halfword).
    #[inline]
    pub fn c16_ext(lo: u16) -> Result<bool, DecodeError> {
        op_desc((lo >> 9) as u8)
            .ok_or(DecodeError { word: lo as u32 })
            .map(|_| lo & 1 == 1)
    }

    /// Decodes a `Comp16` instruction from its leading halfword and the
    /// (possibly absent, then ignored) immediate halfword.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown opcodes.
    #[inline]
    pub fn decode_c16(lo: u16, hi: u16) -> Result<Instr, DecodeError> {
        let desc = op_desc((lo >> 9) as u8).ok_or(DecodeError { word: lo as u32 })?;
        let rd = Reg(((lo >> 5) & 0xf) as u8);
        let rs1 = Reg(((lo >> 1) & 0xf) as u8);
        let imm = if lo & 1 == 1 { hi } else { 0 };
        Ok(Instr::from_fields(desc.kind, rd, rs1, imm))
    }
}

/// Which encoding of the described operation set a core executes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum IsaKind {
    /// Fixed 32-bit instruction words (the default; all shipped
    /// fingerprints are computed under it).
    #[default]
    Word32,
    /// Compressed variable-width (16/32-bit) encoding of the same
    /// operations.
    Comp16,
}

impl IsaKind {
    /// Stable display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            IsaKind::Word32 => "word32",
            IsaKind::Comp16 => "comp16",
        }
    }

    /// Stable wire byte for job specs.
    pub fn to_byte(self) -> u8 {
        match self {
            IsaKind::Word32 => 0,
            IsaKind::Comp16 => 1,
        }
    }

    /// Inverse of [`IsaKind::to_byte`].
    pub fn from_byte(b: u8) -> Option<IsaKind> {
        match b {
            0 => Some(IsaKind::Word32),
            1 => Some(IsaKind::Comp16),
            _ => None,
        }
    }

    /// Bytes per branch/jump offset unit (the fetch granule).
    pub fn offset_unit(self) -> u32 {
        match self {
            IsaKind::Word32 => 4,
            IsaKind::Comp16 => 2,
        }
    }

    /// Encodes a whole program into the memory image (a little-endian
    /// word vector for [`crate::Memory::load_image`]).
    ///
    /// The code generator emits branch/`jal` offsets in *instruction
    /// index* units. `Word32` maps one instruction to one word, so those
    /// offsets are already word offsets. `Comp16` lays the instructions
    /// out at their variable widths and rewrites each offset to the
    /// halfword delta between the source and target instructions.
    ///
    /// # Panics
    ///
    /// Panics if a rewritten `Comp16` offset leaves the i16 range or a
    /// branch targets outside the program — both code-generator bugs.
    pub fn encode_program(self, code: &[Instr]) -> Vec<u32> {
        match self {
            IsaKind::Word32 => code.iter().map(|i| i.encode()).collect(),
            IsaKind::Comp16 => {
                // Sizes are instruction-local (control flow always
                // extends), so one prefix-sum pass fixes every position.
                let mut pos = Vec::with_capacity(code.len() + 1);
                let mut at = 0u32;
                for instr in code {
                    pos.push(at);
                    at += instr.c16_halfwords();
                }
                pos.push(at);
                let delta = |i: usize, offset: i16| -> i16 {
                    let target = i as i64 + offset as i64;
                    assert!(
                        (0..=code.len() as i64).contains(&target),
                        "branch target outside the program"
                    );
                    let d = pos[target as usize] as i64 - pos[i] as i64;
                    i16::try_from(d).expect("comp16 branch offset out of range")
                };
                let mut half = Vec::with_capacity(at as usize);
                for (i, instr) in code.iter().enumerate() {
                    let translated = match *instr {
                        Instr::Branch(c, rs1, rs2, off) => {
                            Instr::Branch(c, rs1, rs2, delta(i, off))
                        }
                        Instr::Jal(rd, off) => Instr::Jal(rd, delta(i, off)),
                        other => other,
                    };
                    let (lo, hi) = translated.encode_c16();
                    half.push(lo);
                    if let Some(h) = hi {
                        half.push(h);
                    }
                }
                if half.len() % 2 == 1 {
                    half.push(0);
                }
                half.chunks_exact(2)
                    .map(|p| p[0] as u32 | ((p[1] as u32) << 16))
                    .collect()
            }
        }
    }

    /// Size in bytes of the encoded program (text segment).
    pub fn text_bytes(self, code: &[Instr]) -> u32 {
        match self {
            IsaKind::Word32 => 4 * code.len() as u32,
            IsaKind::Comp16 => 2 * code.iter().map(|i| i.c16_halfwords()).sum::<u32>(),
        }
    }
}

impl fmt::Display for IsaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let desc = self.desc();
        let m = desc.mnemonic;
        match *self {
            Instr::Alu(_, rd, rs1, rs2) => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Instr::Addi(rd, rs1, imm) => write!(f, "{m} {rd}, {rs1}, {imm}"),
            Instr::Andi(rd, rs1, imm)
            | Instr::Ori(rd, rs1, imm)
            | Instr::Xori(rd, rs1, imm)
            | Instr::Sltiu(rd, rs1, imm) => write!(f, "{m} {rd}, {rs1}, {imm}"),
            Instr::Lui(rd, imm) => write!(f, "{m} {rd}, {imm}"),
            Instr::Lw(rd, rs1, imm) => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instr::Sw(rs2, rs1, imm) => write!(f, "{m} {rs2}, {imm}({rs1})"),
            Instr::Branch(_, rs1, rs2, offset) => write!(f, "{m} {rs1}, {rs2}, {offset}"),
            Instr::Jal(rd, offset) => write!(f, "{m} {rd}, {offset}"),
            Instr::Jalr(rd, rs1, imm) => write!(f, "{m} {rd}, {imm}({rs1})"),
            Instr::Halt | Instr::Nop => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instrs() -> Vec<Instr> {
        use AluOp::*;
        use BranchCond::*;
        let r = Reg::new;
        vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Alu(Add, r(1), r(2), r(3)),
            Instr::Alu(Sub, r(15), r(0), r(7)),
            Instr::Alu(Mul, r(4), r(4), r(4)),
            Instr::Alu(Divu, r(5), r(6), r(7)),
            Instr::Alu(Remu, r(5), r(6), r(7)),
            Instr::Alu(Sra, r(9), r(10), r(11)),
            Instr::Addi(r(1), r(2), -5),
            Instr::Addi(r(1), r(2), 32767),
            Instr::Andi(r(3), r(3), 0xffff),
            Instr::Ori(r(3), r(3), 0x00ff),
            Instr::Xori(r(3), r(3), 1),
            Instr::Sltiu(r(2), r(2), 1),
            Instr::Lui(r(8), 0xdead),
            Instr::Lw(r(1), r(14), -4),
            Instr::Sw(r(1), r(14), 8),
            Instr::Branch(Eq, r(1), r(2), -10),
            Instr::Branch(Geu, r(3), r(0), 100),
            Instr::Jal(r(15), 42),
            Instr::Jalr(r(0), r(15), 0),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for instr in all_sample_instrs() {
            let word = instr.encode();
            let back = Instr::decode(word).unwrap();
            assert_eq!(instr, back, "word {word:#010x}");
        }
    }

    #[test]
    fn c16_round_trips() {
        for instr in all_sample_instrs() {
            let (lo, hi) = instr.encode_c16();
            let ext = Instr::c16_ext(lo).unwrap();
            assert_eq!(ext, hi.is_some());
            let back = Instr::decode_c16(lo, hi.unwrap_or(0)).unwrap();
            assert_eq!(instr, back, "halfword {lo:#06x}");
        }
    }

    #[test]
    fn c16_compacts_zero_immediates_but_never_control_flow() {
        assert_eq!(Instr::Nop.c16_halfwords(), 1);
        assert_eq!(Instr::Addi(Reg::new(1), Reg::new(2), 0).c16_halfwords(), 1);
        assert_eq!(Instr::Addi(Reg::new(1), Reg::new(2), 5).c16_halfwords(), 2);
        assert_eq!(
            Instr::Branch(BranchCond::Eq, Reg::ZERO, Reg::ZERO, 0).c16_halfwords(),
            2
        );
        assert_eq!(Instr::Jal(Reg::RA, 0).c16_halfwords(), 2);
        assert_eq!(Instr::Jalr(Reg::ZERO, Reg::RA, 0).c16_halfwords(), 2);
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let err = Instr::decode(0x6000_0000).unwrap_err();
        assert_eq!(err.word, 0x6000_0000);
        assert!(err.to_string().contains("invalid instruction"));
        let lo = 0x60u16 << 9;
        assert!(Instr::c16_ext(lo).is_err());
        assert_eq!(Instr::decode_c16(lo, 0).unwrap_err().word, lo as u32);
    }

    #[test]
    fn description_table_is_well_formed() {
        // Every opcode resolves back to its own row; mnemonics unique.
        for desc in ISA {
            assert_eq!(op_desc(desc.opcode).unwrap().mnemonic, desc.mnemonic);
            assert_eq!(op_by_mnemonic(desc.mnemonic).unwrap().opcode, desc.opcode);
        }
        assert!(op_desc(0x60).is_none());
        assert!(op_by_mnemonic("bogus").is_none());
    }

    #[test]
    fn comp16_program_encoding_translates_offsets() {
        let r = Reg::new;
        // addi r1,r0,5 (ext) ; loop: addi r1,r1,-1 (ext) ; nop (compact) ;
        // bne r1,r0,loop → instruction offset -2, halfword delta -3.
        let code = [
            Instr::Addi(r(1), Reg::ZERO, 5),
            Instr::Addi(r(1), r(1), -1),
            Instr::Nop,
            Instr::Branch(BranchCond::Ne, r(1), Reg::ZERO, -2),
            Instr::Halt,
        ];
        let words = IsaKind::Comp16.encode_program(&code);
        // Halfwords: 2 + 2 + 1 + 2 + 1 = 8 → 4 words.
        assert_eq!(words.len(), 4);
        // The branch starts at halfword 5; its target is halfword 2.
        let lo = (words[2] >> 16) as u16;
        let hi = (words[3] & 0xffff) as u16;
        let back = Instr::decode_c16(lo, hi).unwrap();
        assert_eq!(
            back,
            Instr::Branch(BranchCond::Ne, r(1), Reg::ZERO, -3),
            "offset must be rewritten to halfword units"
        );
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn register_16_is_rejected() {
        let _ = Reg::new(16);
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::Lw(Reg::new(1), Reg::SP, -4);
        assert_eq!(i.to_string(), "lw r1, -4(r14)");
        let b = Instr::Branch(BranchCond::Ne, Reg::new(1), Reg::new(2), 3);
        assert_eq!(b.to_string(), "bne r1, r2, 3");
    }

    #[test]
    fn negative_immediates_survive_encoding() {
        let i = Instr::Addi(Reg::new(1), Reg::new(1), -32768);
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
        let b = Instr::Branch(BranchCond::Eq, Reg::ZERO, Reg::ZERO, -1);
        assert_eq!(Instr::decode(b.encode()).unwrap(), b);
    }

    #[test]
    fn isa_kind_bytes_round_trip() {
        for kind in [IsaKind::Word32, IsaKind::Comp16] {
            assert_eq!(IsaKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(IsaKind::from_byte(9), None);
    }
}
