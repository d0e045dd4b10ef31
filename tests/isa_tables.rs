//! Encode/decode round-trip properties of the declarative ISA tables.
//!
//! Every encodable instruction must survive an encode→decode round trip
//! under **both** encodings ([`IsaKind::Word32`] and [`IsaKind::Comp16`]),
//! the table-driven `Word32` decoder must agree with the retired
//! hand-written one on *every* 32-bit word, and every opcode outside the
//! description table must decode to a typed [`DecodeError`] — never a
//! panic — in both encodings. The testkit harness shrinks any failing
//! instruction or program.

use esw_verify::cpu::isa::{op_desc, OpKind, ISA};
use esw_verify::cpu::{AluOp, BranchCond, DecodeError, Instr, IsaKind, Reg};
use testkit::{Checker, Source};

/// The pre-table hand-written `Word32` decoder, kept as an independent
/// oracle for the table-driven [`Instr::decode`]: it shares no code with
/// the description table.
fn decode_legacy(word: u32) -> Result<Instr, DecodeError> {
    use AluOp::*;
    use BranchCond::*;
    let op = word >> 24;
    let rd = Reg::new(((word >> 20) & 0xf) as u8);
    let rs1 = Reg::new(((word >> 16) & 0xf) as u8);
    let rs2 = Reg::new(((word >> 12) & 0xf) as u8);
    let imm = (word & 0xffff) as u16;
    let simm = imm as i16;
    Ok(match op {
        0x00 => Instr::Nop,
        0x7f => Instr::Halt,
        o @ 0x01..=0x0f => {
            let alu = match o - 0x01 {
                0 => Add,
                1 => Sub,
                2 => And,
                3 => Or,
                4 => Xor,
                5 => Sll,
                6 => Srl,
                7 => Sra,
                8 => Slt,
                9 => Sltu,
                10 => Mul,
                11 => Div,
                12 => Rem,
                13 => Divu,
                _ => Remu,
            };
            Instr::Alu(alu, rd, rs1, rs2)
        }
        0x20 => Instr::Addi(rd, rs1, simm),
        0x21 => Instr::Andi(rd, rs1, imm),
        0x22 => Instr::Ori(rd, rs1, imm),
        0x23 => Instr::Xori(rd, rs1, imm),
        0x24 => Instr::Sltiu(rd, rs1, imm),
        0x25 => Instr::Lui(rd, imm),
        0x30 => Instr::Lw(rd, rs1, simm),
        0x31 => Instr::Sw(rd, rs1, simm),
        o @ 0x40..=0x45 => {
            let cond = match o - 0x40 {
                0 => Eq,
                1 => Ne,
                2 => Lt,
                3 => Ge,
                4 => Ltu,
                _ => Geu,
            };
            Instr::Branch(cond, rs1, rd, simm)
        }
        0x50 => Instr::Jal(rd, simm),
        0x51 => Instr::Jalr(rd, rs1, simm),
        _ => return Err(DecodeError { word }),
    })
}

/// Draws one encodable instruction: any described operation with random
/// fields. Branch/jump offsets stay in `i16` (layout constraints on the
/// offsets are program-level and exercised separately).
fn gen_instr(src: &mut Source<'_>) -> Instr {
    let desc = &ISA[src.usize_in(0, ISA.len() - 1)];
    let reg = |src: &mut Source<'_>| Reg::new(src.usize_in(0, 15) as u8);
    let simm = |src: &mut Source<'_>| src.i32_in(i16::MIN as i32, i16::MAX as i32) as i16;
    let uimm = |src: &mut Source<'_>| src.i32_in(0, u16::MAX as i32) as u16;
    match desc.kind {
        OpKind::Nop => Instr::Nop,
        OpKind::Halt => Instr::Halt,
        OpKind::Alu(op) => Instr::Alu(op, reg(src), reg(src), reg(src)),
        OpKind::Addi => Instr::Addi(reg(src), reg(src), simm(src)),
        OpKind::Andi => Instr::Andi(reg(src), reg(src), uimm(src)),
        OpKind::Ori => Instr::Ori(reg(src), reg(src), uimm(src)),
        OpKind::Xori => Instr::Xori(reg(src), reg(src), uimm(src)),
        OpKind::Sltiu => Instr::Sltiu(reg(src), reg(src), uimm(src)),
        OpKind::Lui => Instr::Lui(reg(src), uimm(src)),
        OpKind::Lw => Instr::Lw(reg(src), reg(src), simm(src)),
        OpKind::Sw => Instr::Sw(reg(src), reg(src), simm(src)),
        OpKind::Branch(cond) => Instr::Branch(cond, reg(src), reg(src), simm(src)),
        OpKind::Jal => Instr::Jal(reg(src), simm(src)),
        OpKind::Jalr => Instr::Jalr(reg(src), reg(src), simm(src)),
    }
}

/// Round trip under both encodings: `decode(encode(i)) == i` and
/// `decode_c16(encode_c16(i)) == i`, and the legacy decoder agrees on the
/// `Word32` word.
#[test]
fn every_instruction_round_trips_under_both_encodings() {
    Checker::new("every_instruction_round_trips_under_both_encodings")
        .cases(400)
        .run(gen_instr, |&instr| {
            let word = instr.encode();
            assert_eq!(Instr::decode(word), Ok(instr), "word32 round trip");
            assert_eq!(decode_legacy(word), Ok(instr), "legacy decoder agrees");
            let (lo, hi) = instr.encode_c16();
            assert_eq!(
                Instr::c16_ext(lo),
                Ok(hi.is_some()),
                "extension bit matches the emitted width"
            );
            assert_eq!(
                Instr::decode_c16(lo, hi.unwrap_or(0)),
                Ok(instr),
                "comp16 round trip"
            );
        });
}

/// The table decoder and the retired hand-written decoder are the same
/// function on every 32-bit word — all 256 opcode bytes with exhaustive
/// field corners, plus random words.
#[test]
fn table_decode_equals_legacy_decode_on_every_opcode() {
    for opcode in 0u32..=255 {
        for fields in [0u32, 0x00ff_ffff, 0x0012_3456, 0x00f0_0001, 0x000f_8000] {
            let word = (opcode << 24) | fields;
            assert_eq!(
                Instr::decode(word),
                decode_legacy(word),
                "decoders disagree on {word:#010x}"
            );
        }
    }
    Checker::new("table_decode_equals_legacy_decode_on_random_words")
        .cases(400)
        .run(
            |src| src.i32_in(i32::MIN, i32::MAX) as u32,
            |&word| assert_eq!(Instr::decode(word), decode_legacy(word)),
        );
}

/// Every opcode byte outside the description table yields a typed
/// [`DecodeError`] — never a panic — in both encodings, and every
/// described opcode decodes. Exhaustive over the whole opcode space.
#[test]
fn invalid_opcodes_decode_to_typed_errors_never_panic() {
    for opcode in 0u16..=255 {
        let described = op_desc(opcode as u8).is_some();
        let word = (u32::from(opcode) << 24) | 0x0012_3456;
        match Instr::decode(word) {
            Ok(_) => assert!(described, "undescribed opcode {opcode:#04x} decoded"),
            Err(e) => {
                assert!(!described, "described opcode {opcode:#04x} rejected");
                assert_eq!(e, DecodeError { word });
            }
        }
        // Comp16 opcodes are 7 bits; bytes above 0x7f are unreachable in
        // the halfword field, so only probe the reachable half.
        if opcode <= 0x7f {
            for ext in [0u16, 1] {
                let lo = (opcode << 9) | (3 << 5) | (5 << 1) | ext;
                assert_eq!(Instr::c16_ext(lo).is_ok(), described, "c16_ext {lo:#06x}");
                match Instr::decode_c16(lo, 0xbeef) {
                    Ok(_) => assert!(described, "undescribed c16 opcode {opcode:#04x} decoded"),
                    Err(e) => {
                        assert!(!described, "described c16 opcode {opcode:#04x} rejected");
                        assert_eq!(
                            e,
                            DecodeError {
                                word: u32::from(lo)
                            }
                        );
                    }
                }
            }
        }
    }
}

/// Draws a whole program whose branch/jump targets stay inside it, the
/// program-level constraint [`IsaKind::encode_program`] relies on.
fn gen_program(src: &mut Source<'_>) -> Vec<Instr> {
    let len = src.usize_in(1, 40);
    (0..len)
        .map(|i| {
            let mut instr = gen_instr(src);
            let retarget = |src: &mut Source<'_>| {
                let target = src.usize_in(0, len) as i64;
                (target - i as i64) as i16
            };
            match instr {
                Instr::Branch(c, rs1, rs2, _) => instr = Instr::Branch(c, rs1, rs2, retarget(src)),
                Instr::Jal(rd, _) => instr = Instr::Jal(rd, retarget(src)),
                _ => {}
            }
            instr
        })
        .collect()
}

/// Program-level agreement: a `Word32` image decodes word-for-word back
/// to the source program, and the `Comp16` image of the same program is
/// never larger and decodes halfword-for-halfword to the same operations
/// (offsets rewritten to halfword units by the layout pass).
#[test]
fn program_images_decode_back_to_the_source_program() {
    Checker::new("program_images_decode_back_to_the_source_program")
        .cases(200)
        .run(gen_program, |code| {
            let w32 = IsaKind::Word32.encode_program(code);
            assert_eq!(w32.len(), code.len());
            assert_eq!(IsaKind::Word32.text_bytes(code), 4 * code.len() as u32);
            for (word, &instr) in w32.iter().zip(code) {
                assert_eq!(Instr::decode(*word), Ok(instr));
            }

            let c16 = IsaKind::Comp16.encode_program(code);
            let c16_bytes = IsaKind::Comp16.text_bytes(code);
            assert!(
                c16_bytes <= 4 * code.len() as u32,
                "compressed text must never be larger"
            );
            assert_eq!(c16.len() as u32, c16_bytes.div_ceil(4), "image is padded");

            // Walk the halfword stream exactly like the fetcher does.
            let halfwords: Vec<u16> = c16
                .iter()
                .flat_map(|w| [(*w & 0xffff) as u16, (*w >> 16) as u16])
                .collect();
            let mut at = 0usize;
            for &instr in code {
                let lo = halfwords[at];
                let ext = Instr::c16_ext(lo).expect("encoded opcode is described");
                let hi = if ext { halfwords[at + 1] } else { 0 };
                let decoded = Instr::decode_c16(lo, hi).expect("encoded instruction decodes");
                match (instr, decoded) {
                    // Control-flow offsets are rewritten to halfword
                    // units; compare everything but the offset.
                    (Instr::Branch(c0, a0, b0, _), Instr::Branch(c1, a1, b1, _)) => {
                        assert_eq!((c0, a0, b0), (c1, a1, b1));
                    }
                    (Instr::Jal(r0, _), Instr::Jal(r1, _)) => assert_eq!(r0, r1),
                    (expect, got) => assert_eq!(got, expect),
                }
                at += if ext { 2 } else { 1 };
            }
        });
}

/// The description table itself is total and injective: every kind is
/// reachable from a mnemonic, every opcode is unique, and the ALU /
/// branch sub-tables cover the full enum spaces.
#[test]
fn description_table_covers_the_full_operation_space() {
    let alu = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Divu,
        AluOp::Remu,
    ];
    for op in alu {
        assert!(
            ISA.iter().any(|d| d.kind == OpKind::Alu(op)),
            "ALU op {op:?} missing from the description"
        );
    }
    let conds = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    for cond in conds {
        assert!(
            ISA.iter().any(|d| d.kind == OpKind::Branch(cond)),
            "branch condition {cond:?} missing from the description"
        );
    }
}
