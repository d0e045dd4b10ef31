//! Small-step, statement-level interpreter for the IR.
//!
//! One [`Interp::step`] executes exactly one statement (or one loop-condition
//! evaluation) — the granularity at which the paper's C2SystemC translator
//! inserts `esw_pc_event.notify(); wait();` (Fig. 5). The
//! [deriver](crate::deriver) wraps this machine in a simulation process; the
//! checkers and the reference oracle drive it directly.

use std::fmt;
use std::rc::Rc;

use crate::ast::{BinOp, Pos, UnOp};
use crate::ir::{FuncId, IrExpr, IrFunction, IrProgram, IrStmt, Place, SeqId, StmtId};
use crate::vmem::{EswMemory, MemFault, VirtualMemory};

/// Maximum call depth before the interpreter traps.
pub const MAX_CALL_DEPTH: usize = 1024;

/// A runtime fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// Division or remainder by zero.
    DivByZero {
        /// Source position of the statement.
        pos: Pos,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Source position.
        pos: Pos,
        /// The offending index.
        index: i32,
        /// The array length.
        len: usize,
    },
    /// Raw memory access fault.
    Mem(MemFault),
    /// Call depth exceeded [`MAX_CALL_DEPTH`].
    StackOverflow,
    /// The program has no `main` function.
    NoMain,
    /// `start_call` used with a wrong argument count.
    BadArity {
        /// Callee name.
        func: String,
        /// Expected argument count.
        expected: usize,
        /// Provided argument count.
        found: usize,
    },
    /// `start_call` named an unknown function.
    UnknownFunction(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DivByZero { pos } => write!(f, "division by zero at {pos}"),
            RuntimeError::IndexOutOfBounds { pos, index, len } => {
                write!(f, "index {index} out of bounds for length {len} at {pos}")
            }
            RuntimeError::Mem(e) => write!(f, "{e}"),
            RuntimeError::StackOverflow => write!(f, "call depth exceeded"),
            RuntimeError::NoMain => write!(f, "program has no main function"),
            RuntimeError::BadArity {
                func,
                expected,
                found,
            } => write!(f, "`{func}` expects {expected} arguments, found {found}"),
            RuntimeError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MemFault> for RuntimeError {
    fn from(e: MemFault) -> Self {
        RuntimeError::Mem(e)
    }
}

/// The execution state of the machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecState {
    /// No activation is in flight; `start_main`/`start_call` may be used.
    Idle,
    /// Mid-execution.
    Running,
    /// The started activation returned (with its value, if non-void).
    Finished(Option<i32>),
    /// A runtime fault occurred.
    Trapped(RuntimeError),
}

impl ExecState {
    /// Returns `true` while more steps can be taken.
    pub fn is_running(&self) -> bool {
        matches!(self, ExecState::Running)
    }
}

/// A location resolved to a concrete storage slot (indices already
/// evaluated), so it stays meaningful across a call.
#[derive(Clone, Debug)]
enum ResolvedPlace {
    GlobalFlat(usize),
    Local { frame: usize, slot: usize },
    Mem(u32),
}

enum Work {
    /// Next statement of a sequence.
    Seq(SeqId, usize),
    /// A live `while` statement; re-evaluates its condition.
    Loop(StmtId),
}

struct Frame {
    func: FuncId,
    locals: Vec<i32>,
    work: Vec<Work>,
    ret_dst: Option<ResolvedPlace>,
}

/// What an interpreter watch observes (see [`Interp::watch_global`]).
#[derive(Clone, Debug)]
enum WatchTarget {
    /// One flat global slot.
    GlobalSlot(usize),
    /// The name of the executing function — the paper's `fname` shadow
    /// variable, which changes on every call-stack push/pop.
    Fname,
}

struct InterpWatch {
    target: WatchTarget,
    dirty: bool,
}

/// The interpreter.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use minic::{lower, parse, ExecState, Interp, VirtualMemory};
///
/// let ir = lower(&parse("int main() { int s = 0; int i = 1;
///     while (i <= 10) { s = s + i; i = i + 1; } return s; }")?)?;
/// let mut interp = Interp::new(Rc::new(ir), Box::new(VirtualMemory::new()));
/// interp.start_main()?;
/// assert_eq!(interp.run(10_000), ExecState::Finished(Some(55)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Interp {
    prog: Rc<IrProgram>,
    globals: Vec<i32>,
    global_base: Vec<usize>,
    mem: Box<dyn EswMemory>,
    frames: Vec<Frame>,
    state: ExecState,
    steps: u64,
    watches: Vec<InterpWatch>,
    /// See [`Interp::watch_epoch`].
    watch_epoch: u64,
}

impl Interp {
    /// Creates an interpreter over a program with the given memory model.
    pub fn new(prog: Rc<IrProgram>, mem: Box<dyn EswMemory>) -> Self {
        let mut global_base = Vec::with_capacity(prog.globals.len());
        let mut globals = Vec::new();
        for g in &prog.globals {
            global_base.push(globals.len());
            globals.extend_from_slice(&g.init);
        }
        Interp {
            prog,
            globals,
            global_base,
            mem,
            frames: Vec::new(),
            state: ExecState::Idle,
            steps: 0,
            watches: Vec::new(),
            watch_epoch: 0,
        }
    }

    /// Registers a watch on a global scalar (element 0 of an array) and
    /// returns its watch id. New watches start **dirty**; thereafter the
    /// watch is re-dirtied by any write to the slot (program assignment or
    /// testbench injection) and by [`Interp::reset`].
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn watch_global(&mut self, name: &str) -> usize {
        let id = self
            .prog
            .global_by_name(name)
            .unwrap_or_else(|| panic!("unknown global `{name}`"));
        self.watches.push(InterpWatch {
            target: WatchTarget::GlobalSlot(self.global_base[id.0 as usize]),
            dirty: true,
        });
        self.watch_epoch += 1;
        self.watches.len() - 1
    }

    /// Registers a watch on the executing-function name, dirtied by every
    /// call-stack push or pop. Starts dirty, like [`Interp::watch_global`].
    pub fn watch_fname(&mut self) -> usize {
        self.watches.push(InterpWatch {
            target: WatchTarget::Fname,
            dirty: true,
        });
        self.watch_epoch += 1;
        self.watches.len() - 1
    }

    /// A counter that advances whenever a watch turns from clean to dirty,
    /// when a watch is registered, and on wholesale invalidation
    /// ([`Interp::reset`]). Taking a dirty flag never moves it, so an
    /// observer that drained all of its watches when the epoch read `e`
    /// knows none of them has been dirtied while the epoch still reads
    /// `e`, whatever other observers of this interpreter drain meanwhile.
    pub fn watch_epoch(&self) -> u64 {
        self.watch_epoch
    }

    /// Takes and clears the dirty flag of one watch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered watch id.
    pub fn take_dirty_watch(&mut self, id: usize) -> bool {
        std::mem::take(&mut self.watches[id].dirty)
    }

    /// Describes a registered watch for diagnostics: the write path that
    /// dirties it, e.g. ``global `tb_reset` write`` or
    /// `fname change (call/return)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered watch id.
    pub fn watch_label(&self, id: usize) -> String {
        match &self.watches[id].target {
            WatchTarget::GlobalSlot(slot) => {
                let name = self
                    .global_base
                    .iter()
                    .position(|&base| base == *slot)
                    .map(|gi| self.prog.globals[gi].name.as_str())
                    .unwrap_or("?");
                format!("global `{name}` write")
            }
            WatchTarget::Fname => "fname change (call/return)".to_owned(),
        }
    }

    /// Marks every watch dirty (conservative invalidation).
    pub fn mark_all_watches_dirty(&mut self) {
        for w in &mut self.watches {
            w.dirty = true;
        }
        self.watch_epoch += 1;
    }

    fn mark_global_write(&mut self, slot: usize) {
        for w in &mut self.watches {
            if !w.dirty && matches!(w.target, WatchTarget::GlobalSlot(s) if s == slot) {
                w.dirty = true;
                self.watch_epoch += 1;
            }
        }
    }

    fn mark_frame_change(&mut self) {
        for w in &mut self.watches {
            if !w.dirty && matches!(w.target, WatchTarget::Fname) {
                w.dirty = true;
                self.watch_epoch += 1;
            }
        }
    }

    /// Convenience constructor with a fresh [`VirtualMemory`].
    pub fn with_virtual_memory(prog: Rc<IrProgram>) -> Self {
        Interp::new(prog, Box::new(VirtualMemory::new()))
    }

    /// Returns the current execution state.
    pub fn state(&self) -> &ExecState {
        &self.state
    }

    /// Number of statement steps executed so far (the derived model's
    /// program-counter event count).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Resets globals to their initializers and clears all activation state.
    /// The memory model is left untouched.
    pub fn reset(&mut self) {
        let mut flat = Vec::with_capacity(self.globals.len());
        for g in &self.prog.globals {
            flat.extend_from_slice(&g.init);
        }
        self.globals = flat;
        self.frames.clear();
        self.state = ExecState::Idle;
        self.steps = 0;
        // Wholesale re-initialisation: every watched slot may have changed.
        self.mark_all_watches_dirty();
    }

    /// Starts executing `main`.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::NoMain`] if the program has none.
    pub fn start_main(&mut self) -> Result<(), RuntimeError> {
        let main = self.prog.main.ok_or(RuntimeError::NoMain)?;
        self.start(main, &[])
    }

    /// Starts executing an arbitrary function with the given arguments.
    ///
    /// # Errors
    ///
    /// Fails on unknown names or arity mismatch.
    pub fn start_call(&mut self, name: &str, args: &[i32]) -> Result<(), RuntimeError> {
        let func = self
            .prog
            .func_by_name(name)
            .ok_or_else(|| RuntimeError::UnknownFunction(name.to_owned()))?;
        let def = self.prog.func(func);
        if def.param_count != args.len() {
            return Err(RuntimeError::BadArity {
                func: name.to_owned(),
                expected: def.param_count,
                found: args.len(),
            });
        }
        self.start(func, args)
    }

    fn start(&mut self, func: FuncId, args: &[i32]) -> Result<(), RuntimeError> {
        let def = self.prog.func(func);
        let mut locals = vec![0i32; def.locals.len()];
        locals[..args.len()].copy_from_slice(args);
        self.frames.clear();
        self.frames.push(Frame {
            func,
            locals,
            work: vec![Work::Seq(IrFunction::BODY, 0)],
            ret_dst: None,
        });
        self.state = ExecState::Running;
        if !self.watches.is_empty() {
            self.mark_frame_change();
        }
        Ok(())
    }

    /// Returns the function currently at the top of the call stack.
    fn current_function(&self) -> Option<FuncId> {
        self.frames.last().map(|f| f.func)
    }

    /// Returns the name of the function currently executing — the paper's
    /// `fname` shadow variable.
    pub fn current_function_name(&self) -> Option<&str> {
        self.current_function()
            .map(|id| self.prog.func(id).name.as_str())
    }

    /// Reads a global scalar (or element 0 of an array) by id.
    pub fn global(&self, id: crate::ir::GlobalId) -> i32 {
        self.globals[self.global_base[id.0 as usize]]
    }

    /// Reads a global scalar by name.
    ///
    /// # Panics
    ///
    /// Panics on unknown names (propositions are bound at setup time; a miss
    /// is a harness bug).
    pub fn global_by_name(&self, name: &str) -> i32 {
        let id = self
            .prog
            .global_by_name(name)
            .unwrap_or_else(|| panic!("unknown global `{name}`"));
        self.global(id)
    }

    /// Writes a global scalar by name (testbench input injection).
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn set_global_by_name(&mut self, name: &str, value: i32) {
        let id = self
            .prog
            .global_by_name(name)
            .unwrap_or_else(|| panic!("unknown global `{name}`"));
        let slot = self.global_base[id.0 as usize];
        self.globals[slot] = value;
        if !self.watches.is_empty() {
            self.mark_global_write(slot);
        }
    }

    /// Returns the memory model.
    pub fn mem(&self) -> &dyn EswMemory {
        self.mem.as_ref()
    }

    /// Executes one statement. Returns the state afterwards.
    pub fn step(&mut self) -> ExecState {
        if !self.state.is_running() {
            return self.state.clone();
        }
        let prog = Rc::clone(&self.prog);
        if let Err(e) = self.step_inner(&prog) {
            self.state = ExecState::Trapped(e);
        }
        self.steps += 1;
        self.state.clone()
    }

    /// Runs until the machine stops or `max_steps` statements have executed.
    pub fn run(&mut self, max_steps: u64) -> ExecState {
        for _ in 0..max_steps {
            if !self.step().is_running() {
                break;
            }
        }
        self.state.clone()
    }

    fn step_inner(&mut self, prog: &IrProgram) -> Result<(), RuntimeError> {
        enum Action {
            ImplicitReturn,
            Exec(FuncId, StmtId),
            LoopCheck(FuncId, StmtId),
        }
        loop {
            let action = {
                let Some(frame) = self.frames.last_mut() else {
                    self.state = ExecState::Finished(None);
                    return Ok(());
                };
                let func = prog.func(frame.func);
                match frame.work.last_mut() {
                    None => Action::ImplicitReturn,
                    Some(Work::Seq(seq, idx)) => {
                        let list = func.seq(*seq);
                        if *idx >= list.len() {
                            frame.work.pop();
                            continue; // structural pop, not a step
                        }
                        let sid = list[*idx];
                        *idx += 1;
                        Action::Exec(frame.func, sid)
                    }
                    Some(Work::Loop(sid)) => Action::LoopCheck(frame.func, *sid),
                }
            };
            return match action {
                Action::ImplicitReturn => {
                    // Fell off the end of the body: implicit `return`.
                    self.do_return(None);
                    Ok(())
                }
                Action::Exec(func_id, sid) => self.exec_stmt(prog, func_id, sid),
                Action::LoopCheck(func_id, sid) => {
                    let (body_seq, pos) = match prog.func(func_id).stmt(sid) {
                        IrStmt::While { body_seq, pos, .. } => (*body_seq, *pos),
                        _ => unreachable!("Loop work item always references a While"),
                    };
                    let taken = self.eval_top(prog, cond_of(prog, func_id, sid), pos)? != 0;
                    let frame = self.frames.last_mut().expect("frame checked above");
                    if taken {
                        frame.work.push(Work::Seq(body_seq, 0));
                    } else {
                        frame.work.pop();
                    }
                    Ok(()) // condition evaluation is one step
                }
            };
        }
    }

    fn exec_stmt(
        &mut self,
        prog: &IrProgram,
        func_id: FuncId,
        sid: StmtId,
    ) -> Result<(), RuntimeError> {
        let func = prog.func(func_id);
        let stmt = func.stmt(sid);
        match stmt {
            IrStmt::Assign { target, value, pos } => {
                let v = self.eval_top(prog, value, *pos)?;
                let place = self.resolve_place(prog, target, *pos)?;
                self.write_place(&place, v)?;
                Ok(())
            }
            IrStmt::Call {
                dst,
                func: callee,
                args,
                pos,
            } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    return Err(RuntimeError::StackOverflow);
                }
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval_top(prog, a, *pos)?);
                }
                let ret_dst = match dst {
                    Some(place) => Some(self.resolve_place(prog, place, *pos)?),
                    None => None,
                };
                let callee_def = prog.func(*callee);
                let mut locals = vec![0i32; callee_def.locals.len()];
                locals[..arg_vals.len()].copy_from_slice(&arg_vals);
                self.frames.push(Frame {
                    func: *callee,
                    locals,
                    work: vec![Work::Seq(IrFunction::BODY, 0)],
                    ret_dst,
                });
                if !self.watches.is_empty() {
                    self.mark_frame_change();
                }
                Ok(())
            }
            IrStmt::If {
                cond,
                then_seq,
                else_seq,
                pos,
            } => {
                let c = self.eval_top(prog, cond, *pos)? != 0;
                let chosen = if c { *then_seq } else { *else_seq };
                let frame = self.frames.last_mut().expect("executing frame exists");
                frame.work.push(Work::Seq(chosen, 0));
                Ok(())
            }
            IrStmt::While {
                cond,
                body_seq,
                pos,
            } => {
                // Entering the loop: evaluate the condition once now; further
                // iterations go through the Loop work item.
                let c = self.eval_top(prog, cond, *pos)? != 0;
                let frame = self.frames.last_mut().expect("executing frame exists");
                if c {
                    frame.work.push(Work::Loop(sid));
                    frame.work.push(Work::Seq(*body_seq, 0));
                }
                Ok(())
            }
            IrStmt::Return { value, pos } => {
                let v = match value {
                    Some(e) => Some(self.eval_top(prog, e, *pos)?),
                    None => None,
                };
                self.do_return(v);
                Ok(())
            }
            IrStmt::Break { .. } => {
                let frame = self.frames.last_mut().expect("executing frame exists");
                while let Some(item) = frame.work.pop() {
                    if matches!(item, Work::Loop(_)) {
                        break;
                    }
                }
                Ok(())
            }
            IrStmt::Continue { .. } => {
                let frame = self.frames.last_mut().expect("executing frame exists");
                while let Some(item) = frame.work.last() {
                    if matches!(item, Work::Loop(_)) {
                        break;
                    }
                    frame.work.pop();
                }
                Ok(())
            }
        }
    }

    fn eval_top(&mut self, prog: &IrProgram, e: &IrExpr, pos: Pos) -> Result<i32, RuntimeError> {
        let frame = self.frames.last().expect("executing frame exists");
        eval(
            prog,
            &self.globals,
            &self.global_base,
            &frame.locals,
            self.mem.as_mut(),
            e,
            pos,
        )
    }

    fn resolve_place(
        &mut self,
        prog: &IrProgram,
        place: &Place,
        pos: Pos,
    ) -> Result<ResolvedPlace, RuntimeError> {
        match place {
            Place::Global(id) => Ok(ResolvedPlace::GlobalFlat(self.global_base[id.0 as usize])),
            Place::GlobalElem(id, idx) => {
                let i = self.eval_top(prog, idx, pos)?;
                let len = prog.global(*id).len;
                if i < 0 || i as usize >= len {
                    return Err(RuntimeError::IndexOutOfBounds { pos, index: i, len });
                }
                Ok(ResolvedPlace::GlobalFlat(
                    self.global_base[id.0 as usize] + i as usize,
                ))
            }
            Place::Local(id) => Ok(ResolvedPlace::Local {
                frame: self.frames.len() - 1,
                slot: id.0 as usize,
            }),
            Place::Mem(addr) => {
                let a = self.eval_top(prog, addr, pos)?;
                Ok(ResolvedPlace::Mem(a as u32))
            }
        }
    }

    fn write_place(&mut self, place: &ResolvedPlace, value: i32) -> Result<(), RuntimeError> {
        match place {
            ResolvedPlace::GlobalFlat(i) => {
                self.globals[*i] = value;
                if !self.watches.is_empty() {
                    self.mark_global_write(*i);
                }
                Ok(())
            }
            ResolvedPlace::Local { frame, slot } => {
                self.frames[*frame].locals[*slot] = value;
                Ok(())
            }
            ResolvedPlace::Mem(addr) => {
                self.mem.write(*addr, value as u32)?;
                Ok(())
            }
        }
    }

    fn do_return(&mut self, value: Option<i32>) {
        let frame = self.frames.pop().expect("return needs a frame");
        if !self.watches.is_empty() {
            self.mark_frame_change();
        }
        // C leaves falling off the end of a non-void function undefined; we
        // (and the code generator) make it deterministic: the value is 0.
        let value = match (value, self.prog.func(frame.func).ret) {
            (None, Some(_)) => Some(0),
            (v, _) => v,
        };
        if self.frames.is_empty() {
            self.state = ExecState::Finished(value);
            return;
        }
        if let (Some(dst), Some(v)) = (frame.ret_dst, value) {
            // Returning into the caller cannot fault: the place was resolved
            // (and its memory write deferred) at call time only for
            // non-memory places... except Mem, which can fault.
            if let Err(e) = self.write_place(&dst, v) {
                self.state = ExecState::Trapped(e);
            }
        }
    }
}

impl fmt::Debug for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("state", &self.state)
            .field("steps", &self.steps)
            .field("depth", &self.frames.len())
            .field("current", &self.current_function_name())
            .finish()
    }
}

fn cond_of(prog: &IrProgram, func: FuncId, sid: StmtId) -> &IrExpr {
    match prog.func(func).stmt(sid) {
        IrStmt::While { cond, .. } => cond,
        _ => unreachable!("Loop work item always references a While"),
    }
}

/// Evaluates a pure expression. 32-bit wrapping semantics; division by zero
/// and out-of-bounds indexing trap; raw memory reads may fault and may have
/// device side effects.
fn eval(
    prog: &IrProgram,
    globals: &[i32],
    global_base: &[usize],
    locals: &[i32],
    mem: &mut dyn EswMemory,
    e: &IrExpr,
    pos: Pos,
) -> Result<i32, RuntimeError> {
    Ok(match e {
        IrExpr::Const(v) => *v,
        IrExpr::Local(id) => locals[id.0 as usize],
        IrExpr::Global(id) => globals[global_base[id.0 as usize]],
        IrExpr::GlobalElem(id, idx) => {
            let i = eval(prog, globals, global_base, locals, mem, idx, pos)?;
            let len = prog.global(*id).len;
            if i < 0 || i as usize >= len {
                return Err(RuntimeError::IndexOutOfBounds { pos, index: i, len });
            }
            globals[global_base[id.0 as usize] + i as usize]
        }
        IrExpr::MemRead(addr) => {
            let a = eval(prog, globals, global_base, locals, mem, addr, pos)?;
            mem.read(a as u32)? as i32
        }
        IrExpr::Unary(op, inner) => {
            let v = eval(prog, globals, global_base, locals, mem, inner, pos)?;
            match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => i32::from(v == 0),
                UnOp::BitNot => !v,
            }
        }
        IrExpr::Binary(op, a, b) => {
            // Short-circuit first.
            match op {
                BinOp::And => {
                    let av = eval(prog, globals, global_base, locals, mem, a, pos)?;
                    if av == 0 {
                        return Ok(0);
                    }
                    let bv = eval(prog, globals, global_base, locals, mem, b, pos)?;
                    return Ok(i32::from(bv != 0));
                }
                BinOp::Or => {
                    let av = eval(prog, globals, global_base, locals, mem, a, pos)?;
                    if av != 0 {
                        return Ok(1);
                    }
                    let bv = eval(prog, globals, global_base, locals, mem, b, pos)?;
                    return Ok(i32::from(bv != 0));
                }
                _ => {}
            }
            let av = eval(prog, globals, global_base, locals, mem, a, pos)?;
            let bv = eval(prog, globals, global_base, locals, mem, b, pos)?;
            match op {
                BinOp::Add => av.wrapping_add(bv),
                BinOp::Sub => av.wrapping_sub(bv),
                BinOp::Mul => av.wrapping_mul(bv),
                BinOp::Div => {
                    if bv == 0 {
                        return Err(RuntimeError::DivByZero { pos });
                    }
                    av.wrapping_div(bv)
                }
                BinOp::Rem => {
                    if bv == 0 {
                        return Err(RuntimeError::DivByZero { pos });
                    }
                    av.wrapping_rem(bv)
                }
                BinOp::BitAnd => av & bv,
                BinOp::BitOr => av | bv,
                BinOp::BitXor => av ^ bv,
                BinOp::Shl => av.wrapping_shl(bv as u32 & 31),
                BinOp::Shr => av.wrapping_shr(bv as u32 & 31),
                BinOp::Eq => i32::from(av == bv),
                BinOp::Ne => i32::from(av != bv),
                BinOp::Lt => i32::from(av < bv),
                BinOp::Le => i32::from(av <= bv),
                BinOp::Gt => i32::from(av > bv),
                BinOp::Ge => i32::from(av >= bv),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::lower;

    fn make(src: &str) -> Interp {
        let ir = lower(&parse(src).expect("parse")).expect("typeck");
        Interp::with_virtual_memory(Rc::new(ir))
    }

    fn run_main(src: &str) -> ExecState {
        let mut i = make(src);
        i.start_main().unwrap();
        i.run(1_000_000)
    }

    #[test]
    fn global_watches_follow_writes_and_reset() {
        let mut i = make(
            "int g = 0; int h = 0;
             int main() { g = 1; g = 1; return 0; }",
        );
        let wg = i.watch_global("g");
        let wh = i.watch_global("h");
        assert!(i.take_dirty_watch(wg) && i.take_dirty_watch(wh));
        i.start_main().unwrap();
        i.run(100);
        // Only `g` was written — twice, and the second same-value write
        // still counts (dirty tracks writes, not value flips).
        assert!(i.take_dirty_watch(wg));
        assert!(!i.take_dirty_watch(wh));
        i.set_global_by_name("h", 5);
        assert!(!i.take_dirty_watch(wg));
        assert!(i.take_dirty_watch(wh));
        i.reset();
        assert!(i.take_dirty_watch(wg) && i.take_dirty_watch(wh));
    }

    #[test]
    fn fname_watch_follows_call_stack_changes() {
        let mut i = make(
            "int g = 0;
             int f() { return 3; }
             int main() { g = f(); return 0; }",
        );
        let wf = i.watch_fname();
        assert!(i.take_dirty_watch(wf));
        i.start_main().unwrap();
        assert!(i.take_dirty_watch(wf), "start pushes a frame");
        // Step until the call into f() happens.
        while i.current_function_name() != Some("f") {
            assert!(matches!(i.step(), ExecState::Running));
        }
        assert!(i.take_dirty_watch(wf), "call pushes a frame");
        i.run(100);
        assert!(i.take_dirty_watch(wf), "returns pop frames");
    }

    #[test]
    fn watch_epoch_advances_on_every_clean_to_dirty_transition() {
        let mut i = make(
            "int g = 0; int h = 0;
             int f() { return 3; }
             int main() { h = 2; g = f(); return 0; }",
        );
        let before = i.watch_epoch();
        let wg = i.watch_global("g");
        assert!(i.watch_epoch() > before, "a new global watch starts dirty");
        let before = i.watch_epoch();
        let wh = i.watch_global("h");
        let wf = i.watch_fname();
        assert!(i.watch_epoch() > before, "a new fname watch starts dirty");
        let ids = [wg, wh, wf];
        let drain = |i: &mut Interp| {
            for id in ids {
                i.take_dirty_watch(id);
            }
        };
        drain(&mut i);
        let before = i.watch_epoch();
        i.set_global_by_name("h", 5);
        assert!(i.watch_epoch() > before, "set_global_by_name");
        drain(&mut i);
        let before = i.watch_epoch();
        i.start_main().unwrap();
        assert!(i.watch_epoch() > before, "start pushes a frame");
        drain(&mut i);
        let before = i.watch_epoch();
        assert!(matches!(i.step(), ExecState::Running));
        assert_eq!(i.global_by_name("h"), 2);
        assert!(i.watch_epoch() > before, "a program assignment");
        drain(&mut i);
        let before = i.watch_epoch();
        while i.current_function_name() != Some("f") {
            assert!(matches!(i.step(), ExecState::Running));
        }
        assert!(i.watch_epoch() > before, "a call pushes a frame");
        drain(&mut i);
        let before = i.watch_epoch();
        while i.current_function_name() == Some("f") {
            assert!(matches!(i.step(), ExecState::Running));
        }
        assert!(i.watch_epoch() > before, "a return pops a frame");
        assert!(i.take_dirty_watch(wg), "the return value lands in `g`");
        drain(&mut i);
        let before = i.watch_epoch();
        i.reset();
        assert!(i.watch_epoch() > before, "reset");
    }

    #[test]
    fn watch_epoch_stays_put_without_a_new_dirty_watch() {
        let mut i = make(
            "int g = 0; int h = 0;
             int main() { int x = 1; h = 2; x = x + 1; return 0; }",
        );
        let wg = i.watch_global("g");
        assert!(i.take_dirty_watch(wg));
        let before = i.watch_epoch();
        i.set_global_by_name("h", 4);
        assert_eq!(i.global_by_name("g"), 0);
        assert!(!i.take_dirty_watch(wg));
        assert_eq!(i.watch_epoch(), before, "unwatched writes, reads, drains");
        // With no fname watch, the call stack may change freely; locals
        // and the unwatched `h` are written too.
        i.start_main().unwrap();
        i.run(100);
        assert_eq!(i.watch_epoch(), before, "an unwatched run");
        // A second write to a watch nobody drained is no new transition.
        i.set_global_by_name("g", 1);
        let dirty = i.watch_epoch();
        i.set_global_by_name("g", 2);
        assert_eq!(i.watch_epoch(), dirty, "a write to a dirty watch");
    }

    #[test]
    fn returns_value_from_main() {
        assert_eq!(
            run_main("int main() { return 41 + 1; }"),
            ExecState::Finished(Some(42))
        );
    }

    #[test]
    fn loops_and_locals() {
        assert_eq!(
            run_main(
                "int main() { int s = 0; int i = 0;
                 while (i < 5) { i = i + 1; s = s + i; } return s; }"
            ),
            ExecState::Finished(Some(15))
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            run_main(
                "int main() { int s = 0; int i = 0;
                 while (true) {
                     i = i + 1;
                     if (i > 10) { break; }
                     if (i % 2 == 0) { continue; }
                     s = s + i;
                 } return s; }"
            ),
            ExecState::Finished(Some(25)) // 1+3+5+7+9
        );
    }

    #[test]
    fn nested_loop_break_only_exits_inner() {
        assert_eq!(
            run_main(
                "int main() { int n = 0; int i = 0;
                 while (i < 3) {
                     i = i + 1;
                     int j = 0;
                     while (true) { j = j + 1; if (j == 2) { break; } }
                     n = n + j;
                 } return n; }"
            ),
            ExecState::Finished(Some(6))
        );
    }

    #[test]
    fn function_calls_and_recursion() {
        assert_eq!(
            run_main(
                "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
                 int main() { return fib(10); }"
            ),
            ExecState::Finished(Some(55))
        );
    }

    #[test]
    fn globals_and_arrays() {
        assert_eq!(
            run_main(
                "int tab[4] = {10, 20, 30, 40};
                 int sum = 0;
                 int main() { int i = 0; while (i < 4) { sum = sum + tab[i]; i = i + 1; }
                              tab[0] = 99; return sum + tab[0]; }"
            ),
            ExecState::Finished(Some(199))
        );
    }

    #[test]
    fn memory_derefs_round_trip_through_virtual_memory() {
        assert_eq!(
            run_main("int main() { *(0x8000) = 7; *(0x8004) = *(0x8000) + 1; return *(0x8004); }"),
            ExecState::Finished(Some(8))
        );
    }

    #[test]
    fn division_by_zero_traps() {
        match run_main("int z = 0; int main() { return 1 / z; }") {
            ExecState::Trapped(RuntimeError::DivByZero { .. }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn out_of_bounds_index_traps() {
        match run_main("int a[2]; int main() { return a[5]; }") {
            ExecState::Trapped(RuntimeError::IndexOutOfBounds {
                index: 5, len: 2, ..
            }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn infinite_recursion_traps_with_stack_overflow() {
        match run_main("int f() { return f(); } int main() { return f(); }") {
            ExecState::Trapped(RuntimeError::StackOverflow) => {}
            other => panic!("expected stack overflow, got {other:?}"),
        }
    }

    #[test]
    fn short_circuit_avoids_division_by_zero() {
        assert_eq!(
            run_main("int z = 0; int main() { if (z != 0 && 1 / z > 0) { return 1; } return 2; }"),
            ExecState::Finished(Some(2))
        );
    }

    #[test]
    fn current_function_name_tracks_calls() {
        let mut i = make(
            "void inner() { int x = 1; x = x; }
             int main() { inner(); return 0; }",
        );
        i.start_main().unwrap();
        let mut saw_inner = false;
        while i.step().is_running() {
            if i.current_function_name() == Some("inner") {
                saw_inner = true;
            }
        }
        assert!(saw_inner, "fname should reach `inner` during the run");
    }

    #[test]
    fn start_call_runs_arbitrary_functions() {
        let mut i = make("int add(int a, int b) { return a + b; } int main() { return 0; }");
        i.start_call("add", &[20, 22]).unwrap();
        assert_eq!(i.run(100), ExecState::Finished(Some(42)));
        // Re-start without reset.
        i.start_call("add", &[1, 2]).unwrap();
        assert_eq!(i.run(100), ExecState::Finished(Some(3)));
    }

    #[test]
    fn start_call_checks_arity_and_name() {
        let mut i = make("int f(int a) { return a; } int main() { return 0; }");
        assert!(matches!(
            i.start_call("f", &[]),
            Err(RuntimeError::BadArity { .. })
        ));
        assert!(matches!(
            i.start_call("nope", &[]),
            Err(RuntimeError::UnknownFunction(_))
        ));
    }

    #[test]
    fn globals_are_observable_and_settable_between_steps() {
        let mut i = make("int x = 5; int main() { x = x * 2; return x; }");
        assert_eq!(i.global_by_name("x"), 5);
        i.set_global_by_name("x", 10);
        i.start_main().unwrap();
        assert_eq!(i.run(100), ExecState::Finished(Some(20)));
    }

    #[test]
    fn reset_restores_initializers() {
        let mut i = make("int x = 1; int main() { x = 9; return x; }");
        i.start_main().unwrap();
        i.run(100);
        assert_eq!(i.global_by_name("x"), 9);
        i.reset();
        assert_eq!(i.global_by_name("x"), 1);
        assert_eq!(*i.state(), ExecState::Idle);
    }

    #[test]
    fn step_counts_match_statement_granularity() {
        // main: let(1) + while-entry-cond(1) + 3*(body 2 stmts + re-cond)
        // Exact count matters less than determinism: two identical runs
        // must agree.
        let src = "int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }";
        let mut a = make(src);
        a.start_main().unwrap();
        a.run(1000);
        let mut b = make(src);
        b.start_main().unwrap();
        b.run(1000);
        assert_eq!(a.steps(), b.steps());
        assert!(a.steps() >= 8);
    }

    #[test]
    fn void_main_finishes_with_none() {
        let mut i = make("void main() { int x = 1; x = x; }");
        i.start_main().unwrap();
        assert_eq!(i.run(100), ExecState::Finished(None));
    }
}
