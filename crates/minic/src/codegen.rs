//! Code generation: IR → microprocessor machine code.
//!
//! This is the "software side" of the paper's first approach: the embedded
//! program is compiled for the [`sctc_cpu`] core, its globals live at known
//! RAM addresses, and a reserved `__fname` word is updated on every function
//! entry (and restored after every call) so the checker can observe function
//! sequencing through memory — step (c) of paper Section 3.1.
//!
//! The generator is deliberately simple: no optimisation, sp-relative
//! frames, expression trees evaluated in a register stack (`r1`–`r11`),
//! arguments passed in `r1`–`r8`.
//!
//! ## Deliberate semantic notes
//!
//! * Division by zero follows the CPU's RISC-V-style convention instead of
//!   trapping (the interpreter traps; programs under equivalence testing
//!   avoid it).
//! * Array accesses are not bounds-checked, exactly like the original C.

use std::collections::HashMap;
use std::fmt;

use std::rc::Rc;

use sctc_cpu::{AluOp, BranchCond, Instr, IsaKind, Memory, Reg, SymbolMap};

use crate::ast::{BinOp, UnOp};
use crate::ir::{FuncId, IrExpr, IrFunction, IrProgram, IrStmt, Place, SeqId};

/// Layout and limits for compilation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CodegenOptions {
    /// Base address of the globals section (must lie above the text).
    pub global_base: u32,
    /// Initial stack pointer (stack grows down).
    pub stack_top: u32,
    /// Instruction encoding to emit. The generated [`Instr`] sequence is
    /// identical for every encoding; only the final serialisation differs.
    pub isa: IsaKind,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            global_base: 0x0001_0000,
            stack_top: 0x0004_0000,
            isa: IsaKind::Word32,
        }
    }
}

/// An error raised during compilation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// The program has no `main`.
    NoMain,
    /// A function takes more than 8 parameters.
    TooManyParams {
        /// Offending function name.
        func: String,
    },
    /// An expression tree is too deep for the register stack.
    ExprTooDeep {
        /// Function containing the expression.
        func: String,
    },
    /// A branch target exceeded the 16-bit word offset.
    JumpOutOfRange,
    /// The text section would overlap the globals section.
    TextOverflow {
        /// Bytes of generated text.
        text_bytes: u32,
        /// Configured globals base.
        global_base: u32,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::NoMain => write!(f, "program has no main function"),
            CodegenError::TooManyParams { func } => {
                write!(f, "function `{func}` has more than 8 parameters")
            }
            CodegenError::ExprTooDeep { func } => {
                write!(f, "expression in `{func}` exceeds the register stack")
            }
            CodegenError::JumpOutOfRange => write!(f, "branch or jump target out of range"),
            CodegenError::TextOverflow {
                text_bytes,
                global_base,
            } => write!(
                f,
                "text section of {text_bytes} bytes overlaps globals at {global_base:#x}"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

/// A compiled program image plus its symbol information.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Encoded instructions, loaded at address 0.
    pub text: Vec<u32>,
    /// Address of each global (by source name).
    pub global_addrs: HashMap<String, u32>,
    /// Extent of each global in 32-bit words (1 for scalars, `n` for arrays).
    pub global_words: HashMap<String, u32>,
    /// Address of the reserved `__fname` word.
    pub fname_addr: u32,
    /// `__fname` value for each function name (function id + 1; 0 = none).
    pub fname_values: HashMap<String, u32>,
    /// Initial (address, value) pairs for the globals section.
    pub global_init: Vec<(u32, u32)>,
    /// Options used for layout.
    pub options: CodegenOptions,
}

impl CompiledProgram {
    /// Returns a global's address.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn global_addr(&self, name: &str) -> u32 {
        *self
            .global_addrs
            .get(name)
            .unwrap_or_else(|| panic!("unknown global `{name}`"))
    }

    /// Returns the `__fname` value identifying a function.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn fname_value(&self, name: &str) -> u32 {
        *self
            .fname_values
            .get(name)
            .unwrap_or_else(|| panic!("unknown function `{name}`"))
    }

    /// The instruction encoding this program was serialised with.
    pub fn isa(&self) -> IsaKind {
        self.options.isa
    }

    /// Builds the typed symbol view of the globals section: `__fname` plus
    /// every program global with its word extent. [`Self::build_memory`]
    /// attaches this to the memory so observers (checker atoms, witness
    /// provenance) can name state symbolically.
    fn symbol_map(&self) -> SymbolMap {
        let mut map = SymbolMap::new();
        map.insert("__fname", self.fname_addr, 1);
        for (name, &addr) in &self.global_addrs {
            map.insert(name, addr, self.global_words[name]);
        }
        map
    }

    /// Builds a memory image: text at 0, globals initialised, with
    /// `ram_bytes` of RAM and the globals' [`SymbolMap`] attached.
    ///
    /// # Panics
    ///
    /// Panics if `ram_bytes` cannot hold the layout.
    pub fn build_memory(&self, ram_bytes: u32) -> Memory {
        assert!(
            ram_bytes >= self.options.stack_top,
            "RAM must reach the configured stack top"
        );
        let mut mem = Memory::new(ram_bytes);
        mem.load_image(0, &self.text);
        for &(addr, value) in &self.global_init {
            mem.write_u32(addr, value).expect("globals lie inside RAM");
        }
        mem.attach_symbols(Rc::new(self.symbol_map()));
        mem
    }
}

/// Compiles a lowered program.
///
/// # Errors
///
/// See [`CodegenError`].
///
/// # Examples
///
/// ```
/// use minic::{codegen, lower, parse};
/// use sctc_cpu::Cpu;
///
/// let ir = lower(&parse("int g = 1; int main() { g = g + 41; return g; }")?)?;
/// let compiled = codegen::compile(&ir, codegen::CodegenOptions::default())?;
/// let mut mem = compiled.build_memory(0x40000);
/// let mut cpu = Cpu::new(0);
/// cpu.run(&mut mem, 100_000).unwrap();
/// assert_eq!(mem.peek_u32(compiled.global_addr("g")).unwrap(), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(prog: &IrProgram, options: CodegenOptions) -> Result<CompiledProgram, CodegenError> {
    let main = prog.main.ok_or(CodegenError::NoMain)?;

    // Lay out globals: __fname first, then program globals.
    let mut global_addrs = HashMap::new();
    let mut global_words = HashMap::new();
    let fname_addr = options.global_base;
    let mut next = options.global_base + 4;
    let mut global_init = vec![(fname_addr, 0u32)];
    let mut global_elem_addr = Vec::with_capacity(prog.globals.len());
    for g in &prog.globals {
        global_addrs.insert(g.name.clone(), next);
        global_words.insert(g.name.clone(), g.len as u32);
        global_elem_addr.push(next);
        for (i, &v) in g.init.iter().enumerate() {
            global_init.push((next + (i as u32) * 4, v as u32));
        }
        next += (g.len as u32) * 4;
    }

    let fname_values: HashMap<String, u32> = prog
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i as u32 + 1))
        .collect();

    let mut gen = Gen {
        prog,
        global_elem_addr,
        fname_addr,
        code: Vec::new(),
        labels: Vec::new(),
        fixups: Vec::new(),
        func_labels: Vec::new(),
        loop_stack: Vec::new(),
        epilogue: Label(0),
        frame_size: 0,
        current_func: main,
    };

    // Entry stub: sp, jal main, halt.
    gen.emit_load_const(Reg::SP, options.stack_top as i32);
    let main_label = gen.alloc_func_labels();
    gen.emit_call(main_label[main.0 as usize]);
    gen.emit(Instr::Halt);

    for (i, f) in prog.functions.iter().enumerate() {
        gen.bind(main_label[i]);
        gen.compile_function(FuncId(i as u32), f)?;
    }

    let code = gen.finish()?;
    let text_bytes = options.isa.text_bytes(&code);
    if text_bytes > options.global_base {
        return Err(CodegenError::TextOverflow {
            text_bytes,
            global_base: options.global_base,
        });
    }
    Ok(CompiledProgram {
        text: options.isa.encode_program(&code),
        global_addrs,
        global_words,
        fname_addr,
        fname_values,
        global_init,
        options,
    })
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Label(usize);

enum Fixup {
    /// Patch the branch offset of the instruction at `at` to reach `target`.
    Branch { at: usize, target: Label },
    /// Patch the jal offset of the instruction at `at`.
    Jal { at: usize, target: Label },
}

/// Register-stack base: expressions evaluate in r1..=r11.
const EXPR_BASE: u8 = 1;
const EXPR_LIMIT: u8 = 11;
/// Arguments are passed in r1..=r8.
const MAX_PARAMS: usize = 8;

struct Gen<'p> {
    prog: &'p IrProgram,
    global_elem_addr: Vec<u32>,
    fname_addr: u32,
    code: Vec<Instr>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    func_labels: Vec<Label>,
    loop_stack: Vec<(Label, Label)>, // (continue target, break target)
    epilogue: Label,
    frame_size: i32,
    current_func: FuncId,
}

impl<'p> Gen<'p> {
    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, label: Label) {
        debug_assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    fn alloc_func_labels(&mut self) -> Vec<Label> {
        let labels: Vec<Label> = (0..self.prog.functions.len())
            .map(|_| self.new_label())
            .collect();
        self.func_labels = labels.clone();
        labels
    }

    fn emit_branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.fixups.push(Fixup::Branch {
            at: self.code.len(),
            target,
        });
        self.emit(Instr::Branch(cond, rs1, rs2, 0));
    }

    fn emit_jump(&mut self, target: Label) {
        self.fixups.push(Fixup::Jal {
            at: self.code.len(),
            target,
        });
        self.emit(Instr::Jal(Reg::ZERO, 0));
    }

    fn emit_call(&mut self, target: Label) {
        self.fixups.push(Fixup::Jal {
            at: self.code.len(),
            target,
        });
        self.emit(Instr::Jal(Reg::RA, 0));
    }

    fn emit_load_const(&mut self, rd: Reg, value: i32) {
        if let Ok(small) = i16::try_from(value) {
            self.emit(Instr::Addi(rd, Reg::ZERO, small));
        } else {
            let v = value as u32;
            self.emit(Instr::Lui(rd, (v >> 16) as u16));
            if v & 0xffff != 0 {
                self.emit(Instr::Ori(rd, rd, (v & 0xffff) as u16));
            }
        }
    }

    fn emit_set_fname(&mut self, value: u32, scratch_a: Reg, scratch_b: Reg) {
        self.emit_load_const(scratch_a, value as i32);
        self.emit_load_const(scratch_b, self.fname_addr as i32);
        self.emit(Instr::Sw(scratch_a, scratch_b, 0));
    }

    fn local_offset(local: u32) -> i16 {
        // ra at 0(sp); local i at 4 + 4i.
        (4 + 4 * local) as i16
    }

    fn reg(idx: u8) -> Reg {
        Reg::new(idx)
    }

    fn too_deep(&self) -> CodegenError {
        CodegenError::ExprTooDeep {
            func: self.prog.func(self.current_func).name.clone(),
        }
    }

    fn compile_function(&mut self, id: FuncId, f: &IrFunction) -> Result<(), CodegenError> {
        if f.param_count > MAX_PARAMS {
            return Err(CodegenError::TooManyParams {
                func: f.name.clone(),
            });
        }
        self.current_func = id;
        self.epilogue = self.new_label();
        self.frame_size = 4 + 4 * f.locals.len() as i32;
        // Prologue.
        self.emit(Instr::Addi(Reg::SP, Reg::SP, -(self.frame_size) as i16));
        self.emit(Instr::Sw(Reg::RA, Reg::SP, 0));
        for p in 0..f.param_count {
            self.emit(Instr::Sw(
                Self::reg(EXPR_BASE + p as u8),
                Reg::SP,
                Self::local_offset(p as u32),
            ));
        }
        self.emit_set_fname(id.0 + 1, Self::reg(1), Self::reg(2));
        // Body.
        self.compile_seq(f, IrFunction::BODY)?;
        // Implicit return: rv = 0 for non-void functions.
        if f.ret.is_some() {
            self.emit(Instr::Addi(Reg::RV, Reg::ZERO, 0));
        }
        // Epilogue.
        let epilogue = self.epilogue;
        self.bind(epilogue);
        self.emit(Instr::Lw(Reg::RA, Reg::SP, 0));
        self.emit(Instr::Addi(Reg::SP, Reg::SP, self.frame_size as i16));
        self.emit(Instr::Jalr(Reg::ZERO, Reg::RA, 0));
        Ok(())
    }

    fn compile_seq(&mut self, f: &IrFunction, seq: SeqId) -> Result<(), CodegenError> {
        for &sid in f.seq(seq) {
            self.compile_stmt(f, f.stmt(sid))?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, f: &IrFunction, stmt: &IrStmt) -> Result<(), CodegenError> {
        match stmt {
            IrStmt::Assign { target, value, .. } => {
                self.emit_expr(value, EXPR_BASE)?;
                self.emit_store_to_place(target, EXPR_BASE)?;
                Ok(())
            }
            IrStmt::Call {
                dst, func, args, ..
            } => {
                let n = args.len();
                debug_assert!(n <= MAX_PARAMS, "arity checked at function definition");
                // Evaluate argument i directly into its argument register,
                // using the registers above it as that expression's scratch
                // space; earlier arguments stay untouched below.
                for (i, a) in args.iter().enumerate() {
                    self.emit_expr_at(a, EXPR_BASE + i as u8)?;
                }
                let target = self.func_labels[func.0 as usize];
                self.emit_call(target);
                // Restore the caller's fname (stack semantics at statement
                // granularity, matching the interpreter).
                self.emit_set_fname(self.current_func.0 + 1, Self::reg(9), Self::reg(10));
                if let Some(place) = dst {
                    // Move the return value into the expression base and
                    // store it.
                    self.emit(Instr::Addi(Self::reg(EXPR_BASE), Reg::RV, 0));
                    self.emit_store_to_place(place, EXPR_BASE)?;
                }
                Ok(())
            }
            IrStmt::If {
                cond,
                then_seq,
                else_seq,
                ..
            } => {
                let else_label = self.new_label();
                let end_label = self.new_label();
                self.emit_expr(cond, EXPR_BASE)?;
                self.emit_branch(BranchCond::Eq, Self::reg(EXPR_BASE), Reg::ZERO, else_label);
                self.compile_seq(f, *then_seq)?;
                self.emit_jump(end_label);
                self.bind(else_label);
                self.compile_seq(f, *else_seq)?;
                self.bind(end_label);
                Ok(())
            }
            IrStmt::While { cond, body_seq, .. } => {
                let head = self.new_label();
                let end = self.new_label();
                self.bind(head);
                self.emit_expr(cond, EXPR_BASE)?;
                self.emit_branch(BranchCond::Eq, Self::reg(EXPR_BASE), Reg::ZERO, end);
                self.loop_stack.push((head, end));
                self.compile_seq(f, *body_seq)?;
                self.loop_stack.pop();
                self.emit_jump(head);
                self.bind(end);
                Ok(())
            }
            IrStmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.emit_expr(e, EXPR_BASE)?;
                    self.emit(Instr::Addi(Reg::RV, Self::reg(EXPR_BASE), 0));
                }
                let epilogue = self.epilogue;
                self.emit_jump(epilogue);
                Ok(())
            }
            IrStmt::Break { .. } => {
                let (_, brk) = *self.loop_stack.last().expect("break inside loop");
                self.emit_jump(brk);
                Ok(())
            }
            IrStmt::Continue { .. } => {
                let (cont, _) = *self.loop_stack.last().expect("continue inside loop");
                self.emit_jump(cont);
                Ok(())
            }
        }
    }

    /// Stores register `base` to a place, using `base+1..` as scratch.
    fn emit_store_to_place(&mut self, place: &Place, base: u8) -> Result<(), CodegenError> {
        match place {
            Place::Local(id) => {
                self.emit(Instr::Sw(
                    Self::reg(base),
                    Reg::SP,
                    Self::local_offset(id.0),
                ));
                Ok(())
            }
            Place::Global(id) => {
                let addr = self.global_elem_addr[id.0 as usize];
                if base + 1 > EXPR_LIMIT {
                    return Err(self.too_deep());
                }
                self.emit_load_const(Self::reg(base + 1), addr as i32);
                self.emit(Instr::Sw(Self::reg(base), Self::reg(base + 1), 0));
                Ok(())
            }
            Place::GlobalElem(id, idx) => {
                let addr = self.global_elem_addr[id.0 as usize];
                if base + 2 > EXPR_LIMIT {
                    return Err(self.too_deep());
                }
                self.emit_expr_at(idx, base + 1)?;
                self.emit_load_const(Self::reg(base + 2), 4);
                self.emit(Instr::Alu(
                    AluOp::Mul,
                    Self::reg(base + 1),
                    Self::reg(base + 1),
                    Self::reg(base + 2),
                ));
                self.emit_load_const(Self::reg(base + 2), addr as i32);
                self.emit(Instr::Alu(
                    AluOp::Add,
                    Self::reg(base + 1),
                    Self::reg(base + 1),
                    Self::reg(base + 2),
                ));
                self.emit(Instr::Sw(Self::reg(base), Self::reg(base + 1), 0));
                Ok(())
            }
            Place::Mem(addr) => {
                if base + 1 > EXPR_LIMIT {
                    return Err(self.too_deep());
                }
                self.emit_expr_at(addr, base + 1)?;
                self.emit(Instr::Sw(Self::reg(base), Self::reg(base + 1), 0));
                Ok(())
            }
        }
    }

    fn emit_expr(&mut self, e: &IrExpr, base: u8) -> Result<(), CodegenError> {
        self.emit_expr_at(e, base)
    }

    /// Evaluates `e` into register `base`, using `base+1..=EXPR_LIMIT` as
    /// scratch.
    fn emit_expr_at(&mut self, e: &IrExpr, base: u8) -> Result<(), CodegenError> {
        if base > EXPR_LIMIT {
            return Err(self.too_deep());
        }
        let rd = Self::reg(base);
        match e {
            IrExpr::Const(v) => {
                self.emit_load_const(rd, *v);
                Ok(())
            }
            IrExpr::Local(id) => {
                self.emit(Instr::Lw(rd, Reg::SP, Self::local_offset(id.0)));
                Ok(())
            }
            IrExpr::Global(id) => {
                let addr = self.global_elem_addr[id.0 as usize];
                self.emit_load_const(rd, addr as i32);
                self.emit(Instr::Lw(rd, rd, 0));
                Ok(())
            }
            IrExpr::GlobalElem(id, idx) => {
                let addr = self.global_elem_addr[id.0 as usize];
                if base + 1 > EXPR_LIMIT {
                    return Err(self.too_deep());
                }
                self.emit_expr_at(idx, base)?;
                self.emit_load_const(Self::reg(base + 1), 4);
                self.emit(Instr::Alu(AluOp::Mul, rd, rd, Self::reg(base + 1)));
                self.emit_load_const(Self::reg(base + 1), addr as i32);
                self.emit(Instr::Alu(AluOp::Add, rd, rd, Self::reg(base + 1)));
                self.emit(Instr::Lw(rd, rd, 0));
                Ok(())
            }
            IrExpr::MemRead(addr) => {
                self.emit_expr_at(addr, base)?;
                self.emit(Instr::Lw(rd, rd, 0));
                Ok(())
            }
            IrExpr::Unary(op, inner) => {
                self.emit_expr_at(inner, base)?;
                match op {
                    UnOp::Neg => self.emit(Instr::Alu(AluOp::Sub, rd, Reg::ZERO, rd)),
                    UnOp::Not => self.emit(Instr::Sltiu(rd, rd, 1)),
                    UnOp::BitNot => {
                        if base + 1 > EXPR_LIMIT {
                            return Err(self.too_deep());
                        }
                        self.emit_load_const(Self::reg(base + 1), -1);
                        self.emit(Instr::Alu(AluOp::Xor, rd, rd, Self::reg(base + 1)));
                    }
                }
                Ok(())
            }
            IrExpr::Binary(op, a, b) => self.emit_binary(*op, a, b, base),
        }
    }

    fn emit_binary(
        &mut self,
        op: BinOp,
        a: &IrExpr,
        b: &IrExpr,
        base: u8,
    ) -> Result<(), CodegenError> {
        let rd = Self::reg(base);
        // Short-circuit operators need branches, not ALU ops.
        match op {
            BinOp::And => {
                let end = self.new_label();
                self.emit_expr_at(a, base)?;
                self.emit_branch(BranchCond::Eq, rd, Reg::ZERO, end);
                self.emit_expr_at(b, base)?;
                self.emit(Instr::Alu(AluOp::Sltu, rd, Reg::ZERO, rd));
                self.bind(end);
                return Ok(());
            }
            BinOp::Or => {
                let one = self.new_label();
                let end = self.new_label();
                self.emit_expr_at(a, base)?;
                self.emit_branch(BranchCond::Ne, rd, Reg::ZERO, one);
                self.emit_expr_at(b, base)?;
                self.emit(Instr::Alu(AluOp::Sltu, rd, Reg::ZERO, rd));
                self.emit_jump(end);
                self.bind(one);
                self.emit(Instr::Addi(rd, Reg::ZERO, 1));
                self.bind(end);
                return Ok(());
            }
            _ => {}
        }
        if base + 1 > EXPR_LIMIT {
            return Err(self.too_deep());
        }
        let rs = Self::reg(base + 1);
        self.emit_expr_at(a, base)?;
        self.emit_expr_at(b, base + 1)?;
        match op {
            BinOp::Add => self.emit(Instr::Alu(AluOp::Add, rd, rd, rs)),
            BinOp::Sub => self.emit(Instr::Alu(AluOp::Sub, rd, rd, rs)),
            BinOp::Mul => self.emit(Instr::Alu(AluOp::Mul, rd, rd, rs)),
            BinOp::Div => self.emit(Instr::Alu(AluOp::Div, rd, rd, rs)),
            BinOp::Rem => self.emit(Instr::Alu(AluOp::Rem, rd, rd, rs)),
            BinOp::BitAnd => self.emit(Instr::Alu(AluOp::And, rd, rd, rs)),
            BinOp::BitOr => self.emit(Instr::Alu(AluOp::Or, rd, rd, rs)),
            BinOp::BitXor => self.emit(Instr::Alu(AluOp::Xor, rd, rd, rs)),
            BinOp::Shl => self.emit(Instr::Alu(AluOp::Sll, rd, rd, rs)),
            BinOp::Shr => self.emit(Instr::Alu(AluOp::Sra, rd, rd, rs)),
            BinOp::Eq => {
                self.emit(Instr::Alu(AluOp::Sub, rd, rd, rs));
                self.emit(Instr::Sltiu(rd, rd, 1));
            }
            BinOp::Ne => {
                self.emit(Instr::Alu(AluOp::Sub, rd, rd, rs));
                self.emit(Instr::Alu(AluOp::Sltu, rd, Reg::ZERO, rd));
            }
            BinOp::Lt => self.emit(Instr::Alu(AluOp::Slt, rd, rd, rs)),
            BinOp::Gt => self.emit(Instr::Alu(AluOp::Slt, rd, rs, rd)),
            BinOp::Le => {
                self.emit(Instr::Alu(AluOp::Slt, rd, rs, rd));
                self.emit(Instr::Xori(rd, rd, 1));
            }
            BinOp::Ge => {
                self.emit(Instr::Alu(AluOp::Slt, rd, rd, rs));
                self.emit(Instr::Xori(rd, rd, 1));
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<Instr>, CodegenError> {
        let mut code = self.code;
        for fixup in &self.fixups {
            let (at, target) = match fixup {
                Fixup::Branch { at, target } | Fixup::Jal { at, target } => (*at, *target),
            };
            let target_word = self.labels[target.0].expect("all labels bound");
            let delta = target_word as i64 - at as i64;
            let offset = i16::try_from(delta).map_err(|_| CodegenError::JumpOutOfRange)?;
            code[at] = match code[at] {
                Instr::Branch(cond, rs1, rs2, _) => Instr::Branch(cond, rs1, rs2, offset),
                Instr::Jal(rd, _) => Instr::Jal(rd, offset),
                other => unreachable!("fixup on non-jump instruction {other}"),
            };
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::lower;
    use sctc_cpu::Cpu;

    fn run(src: &str) -> (Cpu, Memory, CompiledProgram) {
        let ir = lower(&parse(src).expect("parse")).expect("typeck");
        let compiled = compile(&ir, CodegenOptions::default()).expect("codegen");
        let mut mem = compiled.build_memory(0x40000);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, 10_000_000).expect("no cpu fault");
        assert!(cpu.is_halted(), "program must halt");
        (cpu, mem, compiled)
    }

    fn main_result(src: &str) -> i32 {
        let (cpu, _, _) = run(src);
        cpu.reg(Reg::RV) as i32
    }

    #[test]
    fn returns_value_through_rv() {
        assert_eq!(main_result("int main() { return 41 + 1; }"), 42);
    }

    #[test]
    fn loops_and_locals() {
        assert_eq!(
            main_result(
                "int main() { int s = 0; int i = 0;
                 while (i < 5) { i = i + 1; s = s + i; } return s; }"
            ),
            15
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            main_result(
                "int main() { int s = 0; int i = 0;
                 while (true) {
                     i = i + 1;
                     if (i > 10) { break; }
                     if (i % 2 == 0) { continue; }
                     s = s + i;
                 } return s; }"
            ),
            25
        );
    }

    #[test]
    fn recursion_works() {
        assert_eq!(
            main_result(
                "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
                 int main() { return fib(10); }"
            ),
            55
        );
    }

    #[test]
    fn globals_and_arrays_in_memory() {
        let (cpu, mem, compiled) = run("int tab[4] = {10, 20, 30, 40};
             int sum = 0;
             int main() { int i = 0; while (i < 4) { sum = sum + tab[i]; i = i + 1; }
                          tab[0] = 99; return sum; }");
        assert_eq!(cpu.reg(Reg::RV), 100);
        assert_eq!(mem.peek_u32(compiled.global_addr("sum")).unwrap(), 100);
        assert_eq!(mem.peek_u32(compiled.global_addr("tab")).unwrap(), 99);
        assert_eq!(mem.peek_u32(compiled.global_addr("tab") + 12).unwrap(), 40);
    }

    #[test]
    fn deref_reads_and_writes_ram() {
        let (_, mem, _) =
            run("int main() { *(0x20000) = 7; *(0x20004) = *(0x20000) + 1; return 0; }");
        assert_eq!(mem.peek_u32(0x20000).unwrap(), 7);
        assert_eq!(mem.peek_u32(0x20004).unwrap(), 8);
    }

    #[test]
    fn signed_operations() {
        assert_eq!(main_result("int main() { return -7 / 2; }"), -3);
        assert_eq!(main_result("int main() { return -7 % 2; }"), -1);
        assert_eq!(main_result("int main() { return -8 >> 1; }"), -4);
        assert_eq!(main_result("int main() { return 3 << 4; }"), 48);
        assert_eq!(
            main_result("int main() { if (0 - 1 < 1) { return 1; } return 0; }"),
            1
        );
    }

    #[test]
    fn comparisons_produce_zero_one() {
        assert_eq!(
            main_result("int main() { int one = 1; if (2 >= 2) { return 10; } return one; }"),
            10
        );
        assert_eq!(
            main_result("int main() { if (2 != 2) { return 10; } return 11; }"),
            11
        );
        assert_eq!(
            main_result("int main() { if (3 <= 2) { return 10; } return 12; }"),
            12
        );
    }

    #[test]
    fn short_circuit_in_generated_code() {
        // Division by zero on the skipped branch must not execute: the CPU
        // would produce -1 rather than trap, changing the result.
        assert_eq!(
            main_result(
                "int z = 0; int main() { if (z != 0 && 10 / z > 0) { return 1; } return 2; }"
            ),
            2
        );
        assert_eq!(
            main_result("int main() { if (true || false) { return 3; } return 4; }"),
            3
        );
    }

    #[test]
    fn fname_tracks_function_entry_and_restores() {
        let (_, mem, compiled) = run("int helper() { return 5; }
             int r = 0;
             int main() { r = helper(); return r; }");
        // After the run, main executed last (fname restored after the call,
        // and main's value is re-stored on return into the stub... the stub
        // is not a function, so the final value is main's).
        let fname = mem.peek_u32(compiled.fname_addr).unwrap();
        assert_eq!(fname, compiled.fname_value("main"));
        assert_ne!(compiled.fname_value("helper"), compiled.fname_value("main"));
    }

    #[test]
    fn void_functions_and_implicit_return() {
        assert_eq!(
            main_result(
                "int g = 0; void bump() { g = g + 1; }
                 int main() { bump(); bump(); return g; }"
            ),
            2
        );
        // Non-void falling off the end returns 0.
        assert_eq!(main_result("int f() { } int main() { return f() + 9; }"), 9);
    }

    #[test]
    fn eight_parameters_are_supported() {
        assert_eq!(
            main_result(
                "int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
                     return a + b + c + d + e + f + g + h;
                 }
                 int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }"
            ),
            36
        );
    }

    #[test]
    fn nine_parameters_are_rejected() {
        let ir = lower(
            &parse(
                "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j) { return 0; }
                 int main() { return f(1,2,3,4,5,6,7,8,9); }",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            compile(&ir, CodegenOptions::default()),
            Err(CodegenError::TooManyParams { .. })
        ));
    }

    #[test]
    fn no_main_is_rejected() {
        let ir = lower(&parse("int f() { return 0; }").unwrap()).unwrap();
        assert!(matches!(
            compile(&ir, CodegenOptions::default()),
            Err(CodegenError::NoMain)
        ));
    }

    #[test]
    fn large_constants_load_correctly() {
        assert_eq!(main_result("int main() { return 0x12345678; }"), 0x12345678);
        assert_eq!(main_result("int main() { return -400000; }"), -400000);
        assert_eq!(main_result("int main() { return 0x7FFF0000; }"), 0x7fff0000);
    }

    #[test]
    fn comp16_encoding_runs_the_same_program() {
        let src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
                   int main() { return fib(10); }";
        let ir = lower(&parse(src).unwrap()).unwrap();
        let compiled = compile(
            &ir,
            CodegenOptions {
                isa: IsaKind::Comp16,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let mut mem = compiled.build_memory(0x40000);
        let mut cpu = Cpu::with_isa(0, IsaKind::Comp16);
        cpu.run(&mut mem, 10_000_000).expect("no cpu fault");
        assert!(cpu.is_halted());
        assert_eq!(cpu.reg(Reg::RV), 55);
        // The compressed image is strictly smaller than the 32-bit one.
        let word32 = compile(&ir, CodegenOptions::default()).unwrap();
        assert!(compiled.text.len() < word32.text.len());
    }

    #[test]
    fn symbol_map_names_the_globals() {
        let (_, mem, compiled) =
            run("int tab[4] = {1, 2, 3, 4}; int sum = 0; int main() { return 0; }");
        let syms = mem.symbols().expect("build_memory attaches the symbol map");
        assert_eq!(syms.symbol("__fname").unwrap().addr, compiled.fname_addr);
        assert_eq!(syms.symbol("tab").unwrap().words, 4);
        assert_eq!(
            syms.label_for_range(compiled.global_addr("sum"), 4)
                .as_deref(),
            Some("sum")
        );
        assert_eq!(
            syms.label_for_range(compiled.global_addr("tab") + 8, 4)
                .as_deref(),
            Some("tab[2]")
        );
    }

    #[test]
    fn bitwise_operations() {
        assert_eq!(main_result("int main() { return 12 & 10; }"), 8);
        assert_eq!(main_result("int main() { return 12 | 3; }"), 15);
        assert_eq!(main_result("int main() { return 12 ^ 10; }"), 6);
        assert_eq!(main_result("int main() { return ~0; }"), -1);
    }
}
