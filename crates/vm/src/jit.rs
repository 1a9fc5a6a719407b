//! The just-in-time execution engine (paper §3.4).
//!
//! The paper's second code-generation option: "a just-in-time Execution
//! Engine can be used which invokes the appropriate code generator at
//! runtime, **translating one function at a time** for execution". This
//! module is that translator for the VM: on a function's first call it is
//! lowered to a dense, pre-resolved form — constants pre-evaluated,
//! `getelementptr` type walks pre-compiled to scale/offset arithmetic,
//! φ-moves attached to edges, direct callees pre-bound — and the flat code
//! is then executed by a tight dispatch loop. Later calls hit the
//! translation cache (a dense `Vec` indexed by `FuncId`).
//!
//! Two dispatch-level optimizations ride on the translated form:
//!
//! * **Superinstructions**: the dominant dispatch pairs — a compare
//!   feeding a conditional branch, and a binary op followed by an
//!   unconditional branch (the classic loop-latch `i += 1; br header`
//!   shape) — are fused into single `LowOp`s after translation. Fusion
//!   uses a *dead-slot* scheme: the fused op replaces the first
//!   instruction and the second stays in place (sequentially unreachable,
//!   but still a valid jump target), so no pc needs rewriting. Fused ops
//!   charge fuel and the opcode histogram per *micro-op*, keeping
//!   accounting identical to the interpreter.
//! * **Inline caches**: each indirect call site carries a monomorphic
//!   cache mapping the last callee address to its `FuncId`, skipping the
//!   address decode on a hit (function addresses are static for the
//!   engine's lifetime, so a hit can never go stale).
//!
//! Semantics are identical to the reference interpreter (differential
//! tests in `tests/` run all engines on the whole workload suite) —
//! including, since the tiered engine landed, the profile counters and
//! the per-opcode histogram: translated code records the same
//! block/edge/call/callsite counts and opcode counts the interpreter
//! would, so profiles and `--stats` are engine-independent.

use std::cell::Cell;
use std::rc::Rc;

use lpat_core::trace;
use lpat_core::{
    BinOp, BlockId, CmpPred, Const, FuncId, GepStep, Inst, IntKind, Module, Type, TypeId, Value,
};

use crate::counters::EdgeLayout;
use crate::error::{ExecError, TrapKind};
use crate::interp::{Entered, Vm};
use crate::value::VmValue;

/// A pre-resolved operand.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    /// A virtual register (instruction result).
    Reg(u32),
    /// A formal argument.
    Arg(u32),
    /// A pre-evaluated constant.
    Imm(VmValue),
}

/// What a load/store moves.
#[derive(Copy, Clone, Debug)]
pub(crate) enum MemKind {
    Bool,
    Int(IntKind),
    F32,
    F64,
    Ptr,
}

/// A CFG edge: φ-moves then a jump target. `to` is the target block's
/// index and `slot` the edge's place in the function's counter slab,
/// resolved here so translated dispatch records the same edge profile
/// the interpreter would with one indexed add.
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    pub(crate) copies: Vec<(u32, Slot)>,
    pub(crate) target: usize,
    pub(crate) to: u32,
    pub(crate) slot: u32,
}

/// One translated instruction.
#[derive(Clone, Debug)]
pub(crate) enum LowOp {
    Bin {
        op: BinOp,
        dst: u32,
        a: Slot,
        b: Slot,
    },
    Cmp {
        pred: CmpPred,
        dst: u32,
        a: Slot,
        b: Slot,
    },
    Cast {
        dst: u32,
        src: Slot,
        to: TypeId,
    },
    Load {
        dst: u32,
        ptr: Slot,
        kind: MemKind,
    },
    Store {
        val: Slot,
        ptr: Slot,
    },
    /// addr = base + const_off + Σ index·scale — the type walk is gone.
    Gep {
        dst: u32,
        base: Slot,
        const_off: i64,
        scaled: Vec<(Slot, i64)>,
    },
    Alloc {
        dst: u32,
        elem_size: u32,
        count: Option<Slot>,
        stack: bool,
    },
    Free(Slot),
    Call {
        dst: Option<u32>,
        callee: Callee,
        args: Vec<Slot>,
        /// `Some((normal, unwind))` for invokes.
        eh: Option<(usize, usize)>,
        /// Source `InstId` index, for callsite profiling.
        site: u32,
    },
    Br(usize),
    CondBr {
        c: Slot,
        t: usize,
        f: usize,
    },
    Switch {
        v: Slot,
        cases: Vec<(i64, usize)>,
        default: usize,
    },
    Ret(Option<Slot>),
    Unwind,
    Unreachable,
    VaArg {
        dst: u32,
    },
    /// Superinstruction: compare + conditional branch on the result.
    CmpBr {
        pred: CmpPred,
        dst: u32,
        a: Slot,
        b: Slot,
        t: usize,
        f: usize,
    },
    /// Superinstruction: binary op + unconditional branch (loop latch).
    BinBr {
        op: BinOp,
        dst: u32,
        a: Slot,
        b: Slot,
        e: usize,
    },
}

#[derive(Clone, Debug)]
pub(crate) enum Callee {
    Direct(FuncId),
    /// Indirect call with a monomorphic inline cache:
    /// `(addr, func_index + 1)`, `(_, 0)` = empty. Function addresses are
    /// a fixed arithmetic range for the engine's lifetime, so a cached
    /// mapping can never go stale. `Cell` is sound here: translated code
    /// is only shared within one (single-threaded) engine.
    Indirect {
        s: Slot,
        ic: Cell<(u32, u32)>,
    },
}

/// A translated function.
pub struct LowFunc {
    pub(crate) n_regs: usize,
    pub(crate) code: Vec<LowOp>,
    pub(crate) edges: Vec<Edge>,
    /// Function name (for diagnostics and listings).
    pub name: String,
}

/// Translate `fid` (the per-function "code generation" step) for `vm`:
/// constants become the immediates [`Vm::const_value`] gives them under
/// this engine's memory layout.
pub(crate) fn translate(vm: &Vm<'_>, fid: FuncId) -> Result<LowFunc, ExecError> {
    let m = vm.module();
    let f = m.func(fid);
    if f.is_declaration() {
        return Err(ExecError::trap(
            TrapKind::Invalid,
            format!("cannot translate declaration @{}", f.name()),
        ));
    }
    // Pass 1: pc of each block (φs emit no code).
    let mut block_pc: Vec<usize> = Vec::with_capacity(f.num_blocks());
    let mut pc = 0usize;
    for b in f.block_ids() {
        block_pc.push(pc);
        pc += f
            .block_insts(b)
            .iter()
            .filter(|&&i| !matches!(f.inst(i), Inst::Phi { .. }))
            .count();
    }
    let slot_of = |v: Value| -> Result<Slot, ExecError> {
        Ok(match v {
            Value::Inst(i) => Slot::Reg(i.index() as u32),
            Value::Arg(n) => Slot::Arg(n),
            Value::Const(c) => Slot::Imm(vm.const_value(c)?),
        })
    };
    // Pass 2: emit.
    let mut code: Vec<LowOp> = Vec::with_capacity(pc);
    let mut edges: Vec<Edge> = Vec::new();
    let layout = EdgeLayout::new(f);
    let make_edge = |m: &Module,
                     edges: &mut Vec<Edge>,
                     from: BlockId,
                     to: BlockId|
     -> Result<usize, ExecError> {
        let f = m.func(fid);
        let mut copies = Vec::new();
        for &iid in f.block_insts(to) {
            if let Inst::Phi { incoming } = f.inst(iid) {
                let (v, _) = incoming
                    .iter()
                    .find(|(_, b)| *b == from)
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "phi missing edge"))?;
                copies.push((iid.index() as u32, slot_of(*v)?));
            }
        }
        edges.push(Edge {
            copies,
            target: block_pc[to.index()],
            to: to.index() as u32,
            slot: layout.slot(from.index() as u32, to.index() as u32),
        });
        Ok(edges.len() - 1)
    };
    for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            let dst = iid.index() as u32;
            let op = match f.inst(iid).clone() {
                Inst::Phi { .. } => continue,
                Inst::Bin { op, lhs, rhs } => LowOp::Bin {
                    op,
                    dst,
                    a: slot_of(lhs)?,
                    b: slot_of(rhs)?,
                },
                Inst::Cmp { pred, lhs, rhs } => LowOp::Cmp {
                    pred,
                    dst,
                    a: slot_of(lhs)?,
                    b: slot_of(rhs)?,
                },
                Inst::Cast { val, to } => LowOp::Cast {
                    dst,
                    src: slot_of(val)?,
                    to,
                },
                Inst::Load { ptr } => LowOp::Load {
                    dst,
                    ptr: slot_of(ptr)?,
                    kind: mem_kind(m, f.inst_ty(iid))?,
                },
                Inst::Store { val, ptr } => LowOp::Store {
                    val: slot_of(val)?,
                    ptr: slot_of(ptr)?,
                },
                Inst::Gep { ptr, indices } => {
                    // Pre-compile the type walk into `const_off + Σ slot·scale`.
                    let mut const_off: i64 = 0;
                    let mut scaled = Vec::new();
                    m.types.gep_steps(
                        m.value_type(f, ptr),
                        &indices,
                        true,
                        |v| m.consts.int_of(v),
                        |step| {
                            match step {
                                GepStep::Field { offset, .. } => {
                                    const_off = const_off.wrapping_add(offset as i64)
                                }
                                GepStep::Scaled { index, stride } => match m.consts.int_of(index) {
                                    Some(v) => {
                                        const_off =
                                            const_off.wrapping_add(v.wrapping_mul(stride as i64))
                                    }
                                    None => scaled.push((slot_of(index)?, stride as i64)),
                                },
                            }
                            Ok::<(), ExecError>(())
                        },
                    )?;
                    LowOp::Gep {
                        dst,
                        base: slot_of(ptr)?,
                        const_off,
                        scaled,
                    }
                }
                Inst::Malloc { elem_ty, count } | Inst::Alloca { elem_ty, count } => {
                    let stack = matches!(f.inst(iid), Inst::Alloca { .. });
                    LowOp::Alloc {
                        dst,
                        elem_size: m
                            .types
                            .try_size_of(elem_ty)
                            .ok_or_else(|| {
                                ExecError::trap(TrapKind::Invalid, "allocation of unsized type")
                            })?
                            .min(u32::MAX as u64) as u32,
                        count: match count {
                            Some(c) => Some(slot_of(c)?),
                            None => None,
                        },
                        stack,
                    }
                }
                Inst::Free(p) => LowOp::Free(slot_of(p)?),
                Inst::Call { callee, args } => LowOp::Call {
                    dst: producing(m, f, iid),
                    callee: compile_callee(m, callee, &slot_of)?,
                    args: args.iter().map(|&a| slot_of(a)).collect::<Result<_, _>>()?,
                    eh: None,
                    site: iid.index() as u32,
                },
                Inst::Invoke {
                    callee,
                    args,
                    normal,
                    unwind,
                } => {
                    let n = make_edge(m, &mut edges, b, normal)?;
                    let u = make_edge(m, &mut edges, b, unwind)?;
                    LowOp::Call {
                        dst: producing(m, f, iid),
                        callee: compile_callee(m, callee, &slot_of)?,
                        args: args.iter().map(|&a| slot_of(a)).collect::<Result<_, _>>()?,
                        eh: Some((n, u)),
                        site: iid.index() as u32,
                    }
                }
                Inst::Br(t) => LowOp::Br(make_edge(m, &mut edges, b, t)?),
                Inst::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => LowOp::CondBr {
                    c: slot_of(cond)?,
                    t: make_edge(m, &mut edges, b, then_bb)?,
                    f: make_edge(m, &mut edges, b, else_bb)?,
                },
                Inst::Switch {
                    val,
                    default,
                    cases,
                } => {
                    let mut lc = Vec::with_capacity(cases.len());
                    for (c, blk) in &cases {
                        let (_, v) = m
                            .consts
                            .as_int(*c)
                            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "switch case"))?;
                        lc.push((v, make_edge(m, &mut edges, b, *blk)?));
                    }
                    LowOp::Switch {
                        v: slot_of(val)?,
                        cases: lc,
                        default: make_edge(m, &mut edges, b, default)?,
                    }
                }
                Inst::Ret(v) => LowOp::Ret(match v {
                    Some(v) => Some(slot_of(v)?),
                    None => None,
                }),
                Inst::Unwind => LowOp::Unwind,
                Inst::Unreachable => LowOp::Unreachable,
                Inst::VaArg { .. } => LowOp::VaArg { dst },
            };
            code.push(op);
        }
    }
    fuse(&mut code);
    Ok(LowFunc {
        n_regs: f.num_inst_slots(),
        code,
        edges,
        name: f.name().to_string(),
    })
}

/// Fuse dominant dispatch pairs into superinstructions.
///
/// The fused op replaces `code[i]`; `code[i+1]` is left untouched — it
/// becomes sequentially dead (the fused op always jumps) but remains a
/// valid jump target, so no pc in `edges` needs rewriting and a jump
/// *into* the second slot behaves exactly as before fusion.
fn fuse(code: &mut [LowOp]) {
    for i in 0..code.len().saturating_sub(1) {
        let fused = match (&code[i], &code[i + 1]) {
            (
                LowOp::Cmp { pred, dst, a, b },
                LowOp::CondBr {
                    c: Slot::Reg(r),
                    t,
                    f,
                },
            ) if *r == *dst => Some(LowOp::CmpBr {
                pred: *pred,
                dst: *dst,
                a: a.clone(),
                b: b.clone(),
                t: *t,
                f: *f,
            }),
            (LowOp::Bin { op, dst, a, b }, LowOp::Br(e)) => Some(LowOp::BinBr {
                op: *op,
                dst: *dst,
                a: a.clone(),
                b: b.clone(),
                e: *e,
            }),
            _ => None,
        };
        if let Some(op) = fused {
            code[i] = op;
        }
    }
}

fn producing(m: &Module, f: &lpat_core::Function, iid: lpat_core::InstId) -> Option<u32> {
    if f.inst_ty(iid) == m.types.void() {
        None
    } else {
        Some(iid.index() as u32)
    }
}

fn mem_kind(m: &Module, ty: TypeId) -> Result<MemKind, ExecError> {
    Ok(match m.types.ty(ty) {
        Type::Bool => MemKind::Bool,
        Type::Int(k) => MemKind::Int(*k),
        Type::F32 => MemKind::F32,
        Type::F64 => MemKind::F64,
        Type::Ptr(_) => MemKind::Ptr,
        other => {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("non-first-class memory access {other:?}"),
            ))
        }
    })
}

fn compile_callee(
    m: &Module,
    callee: Value,
    slot_of: &dyn Fn(Value) -> Result<Slot, ExecError>,
) -> Result<Callee, ExecError> {
    if let Value::Const(c) = callee {
        if let Const::FuncAddr(f) = m.consts.get(c) {
            return Ok(Callee::Direct(*f));
        }
    }
    Ok(Callee::Indirect {
        s: slot_of(callee)?,
        ic: Cell::new((0, 0)),
    })
}

// ----------------------------------------------------------------------
// Execution
// ----------------------------------------------------------------------

pub(crate) struct JitFrame {
    pub(crate) func: FuncId,
    /// The frame's translated code, resolved once at push so the hot
    /// dispatch loop never touches the translation cache.
    pub(crate) lf: Rc<LowFunc>,
    pub(crate) regs: Vec<VmValue>,
    pub(crate) args: Vec<VmValue>,
    pub(crate) varargs: Vec<VmValue>,
    pub(crate) va_next: usize,
    pub(crate) pc: usize,
    pub(crate) allocas: Vec<u32>,
    /// Pending call's (dst, eh-edges), restored on return/unwind.
    pub(crate) pending: PendingCall,
}

/// A suspended call site: destination register (if any) and the invoke's
/// (normal, unwind) edge indices (if the call was an invoke).
pub(crate) type PendingCall = Option<(Option<u32>, Option<(usize, usize)>)>;

impl<'m> Vm<'m> {
    /// Run `main` under the JIT engine (translate-on-first-call +
    /// translation cache). Produces the same results as [`Vm::run_main`],
    /// including profile counters when `opts.profile` is set: translated
    /// dispatch records the same block/edge/call/callsite counts the
    /// interpreter would.
    pub fn run_main_jit(&mut self) -> Result<i64, ExecError> {
        self.run_main_with("jit", "jit @main", Vm::run_function_jit)
    }

    /// Call `f` with `args` under the JIT engine. Every function is
    /// translated on first call; a translation failure is fatal (the
    /// tiered engine, by contrast, interprets the function).
    pub fn run_function_jit(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        self.run_function_mixed(f, args, crate::tier::MixedMode::JitOnly)
    }

    /// The translated form of `f`, translating (and caching) on first
    /// use. The `jit.translate` fault site fires here; any injected
    /// non-delay action surfaces as a translation error (pure-JIT treats
    /// it as fatal, the tiered engine interprets the function).
    pub(crate) fn ensure_translated(&mut self, f: FuncId) -> Result<Rc<LowFunc>, ExecError> {
        if let Some(lf) = &self.jit_cache[f.index()] {
            return Ok(lf.clone());
        }
        let mut sp = if trace::enabled() {
            Some(trace::span(
                "jit",
                format!("translate @{}", self.module().func(f).name()),
            ))
        } else {
            None
        };
        let t0 = std::time::Instant::now();
        let result = match lpat_core::faultpoint!("jit.translate") {
            Some(lpat_core::fault::FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                translate(self, f)
            }
            Some(action) => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("injected {action:?} fault at site 'jit.translate'"),
            )),
            None => translate(self, f),
        };
        self.tier_stats.translate_ns += t0.elapsed().as_nanos() as u64;
        match result {
            Ok(lf) => {
                self.tier_stats.translated += 1;
                let rc = Rc::new(lf);
                self.jit_cache[f.index()] = Some(rc.clone());
                Ok(rc)
            }
            Err(e) => {
                if let Some(sp) = &mut sp {
                    sp.arg("error", e.to_string());
                    trace::instant_args(
                        "jit",
                        "bail-to-interp",
                        vec![
                            ("function", self.module().func(f).name().to_string()),
                            ("error", e.to_string()),
                        ],
                    );
                }
                Err(e)
            }
        }
    }

    /// Build a JIT activation record for a call to `f`, translating on
    /// first use, recording the call in the profile, and drawing the
    /// register slab from the free-list arena. Stack-depth policy is the
    /// caller's job.
    pub(crate) fn make_jit_frame(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    ) -> Result<JitFrame, ExecError> {
        let lf = self.ensure_translated(f)?;
        if self.opts.profile {
            self.counters.enter(self.module(), f);
        }
        let mut regs = self.jit_reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(lf.n_regs, VmValue::Ptr(0));
        Ok(JitFrame {
            func: f,
            lf,
            regs,
            args,
            varargs,
            va_next: 0,
            pc: 0,
            allocas: Vec::new(),
            pending: None,
        })
    }

    /// Release a popped frame's allocas and return its register slab to
    /// the arena.
    pub(crate) fn recycle_jit_frame(&mut self, mut fr: JitFrame) -> Result<(), ExecError> {
        let mut regs = std::mem::take(&mut fr.regs);
        regs.clear();
        self.jit_reg_pool.push(regs);
        for a in fr.allocas {
            self.mem.release(a)?;
        }
        Ok(())
    }

    /// Transfer control along translated edge `e`, executing φ-copies and
    /// recording the edge/block profile (matching the interpreter's
    /// `transfer`).
    #[inline]
    pub(crate) fn take_edge(
        &mut self,
        fr: &mut JitFrame,
        lf: &LowFunc,
        e: usize,
    ) -> Result<(), ExecError> {
        let edge = &lf.edges[e];
        // Simultaneous φ assignment: read all, then write all.
        match edge.copies.len() {
            0 => {}
            1 => {
                let (d, s) = &edge.copies[0];
                fr.regs[*d as usize] = read(fr, s)?;
            }
            _ => {
                let mut buf = std::mem::take(&mut self.phi_buf);
                buf.clear();
                for (d, s) in &edge.copies {
                    buf.push((*d, read(fr, s)?));
                }
                for &(d, v) in &buf {
                    fr.regs[d as usize] = v;
                }
                self.phi_buf = buf;
            }
        }
        fr.pc = edge.target;
        if self.opts.profile {
            self.counters.edge(fr.func, edge.slot, edge.to);
        }
        Ok(())
    }
}

pub(crate) enum Flow {
    Next,
    Call {
        target: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
        dst: Option<u32>,
        eh: Option<(usize, usize)>,
    },
    Ret(Option<VmValue>),
    Unwinding,
}

#[inline(always)]
fn read(fr: &JitFrame, s: &Slot) -> Result<VmValue, ExecError> {
    match s {
        Slot::Reg(r) => Ok(fr.regs[*r as usize]),
        // An indirect call through a mistyped function pointer can supply
        // fewer actuals than the callee's formals; like the interpreter,
        // the missing argument traps at its first *read*, not at entry.
        Slot::Arg(a) => fr
            .args
            .get(*a as usize)
            .copied()
            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, format!("missing argument {a}"))),
        Slot::Imm(v) => Ok(*v),
    }
}

// Dense opcode-histogram indices (see `Inst::opcode_index`); fused
// superinstructions charge both of their micro-ops so the histogram and
// the fuel budget stay engine-independent. A test in `tests/tiered.rs`
// pins the cross-engine alignment end-to-end.
const OP_RET: usize = 0;
const OP_BR: usize = 1;
const OP_SWITCH: usize = 2;
const OP_INVOKE: usize = 3;
const OP_UNWIND: usize = 4;
const OP_UNREACHABLE: usize = 5;
const OP_MALLOC: usize = 6;
const OP_FREE: usize = 7;
const OP_ALLOCA: usize = 8;
const OP_LOAD: usize = 9;
const OP_STORE: usize = 10;
const OP_GEP: usize = 11;
const OP_CALL: usize = 13;
const OP_CAST: usize = 14;
const OP_VAARG: usize = 15;
const OP_BIN_BASE: usize = 16;
const OP_CMP_BASE: usize = 26;

/// Run the translated frame `fr` until it calls, returns or unwinds. Out
/// of line, like the native tier's `run_frame`, so the frame switches in
/// `mixed_loop` do not weigh on the dispatch.
#[inline(never)]
pub(crate) fn jit_burst(
    vm: &mut Vm<'_>,
    fr: &mut JitFrame,
    lf: &LowFunc,
) -> Result<Flow, ExecError> {
    loop {
        let op = &lf.code[fr.pc];
        fr.pc += 1;
        match exec_low(vm, fr, lf, op)? {
            Flow::Next => {}
            flow => return Ok(flow),
        }
    }
}

/// Execute one translated instruction, charging fuel and the opcode
/// histogram exactly as the interpreter would for the source
/// instruction(s).
pub(crate) fn exec_low(
    vm: &mut Vm<'_>,
    fr: &mut JitFrame,
    lf: &LowFunc,
    op: &LowOp,
) -> Result<Flow, ExecError> {
    match op {
        LowOp::Bin { op, dst, a, b } => {
            vm.charge_jit(OP_BIN_BASE + *op as usize)?;
            let r = crate::interp::exec_bin(*op, read(fr, a)?, read(fr, b)?)?;
            fr.regs[*dst as usize] = r;
            Ok(Flow::Next)
        }
        LowOp::Cmp { pred, dst, a, b } => {
            vm.charge_jit(OP_CMP_BASE + *pred as usize)?;
            let r = crate::interp::exec_cmp(*pred, read(fr, a)?, read(fr, b)?)?;
            fr.regs[*dst as usize] = VmValue::Bool(r);
            Ok(Flow::Next)
        }
        LowOp::CmpBr {
            pred,
            dst,
            a,
            b,
            t,
            f,
        } => {
            // Micro-op 1: the compare (result written like the unfused op,
            // so later reads of the register still see it).
            vm.charge_jit(OP_CMP_BASE + *pred as usize)?;
            let r = crate::interp::exec_cmp(*pred, read(fr, a)?, read(fr, b)?)?;
            fr.regs[*dst as usize] = VmValue::Bool(r);
            // Micro-op 2: the branch — charged separately so an exhausted
            // fuel budget traps at the same instruction as the interpreter.
            vm.charge_jit(OP_BR)?;
            vm.take_edge(fr, lf, if r { *t } else { *f })?;
            Ok(Flow::Next)
        }
        LowOp::BinBr { op, dst, a, b, e } => {
            vm.charge_jit(OP_BIN_BASE + *op as usize)?;
            let r = crate::interp::exec_bin(*op, read(fr, a)?, read(fr, b)?)?;
            fr.regs[*dst as usize] = r;
            vm.charge_jit(OP_BR)?;
            vm.take_edge(fr, lf, *e)?;
            Ok(Flow::Next)
        }
        LowOp::Cast { dst, src, to } => {
            vm.charge_jit(OP_CAST)?;
            let r = crate::interp::exec_cast(&vm.module().types, read(fr, src)?, *to)?;
            fr.regs[*dst as usize] = r;
            Ok(Flow::Next)
        }
        LowOp::Load { dst, ptr, kind } => {
            vm.charge_jit(OP_LOAD)?;
            let a = read(fr, ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "load"))?;
            let v = match kind {
                MemKind::Bool => vm.mem.load_bool(a)?,
                MemKind::Int(k) => vm.mem.load_int(a, *k)?,
                MemKind::F32 => vm.mem.load_f32(a)?,
                MemKind::F64 => vm.mem.load_f64(a)?,
                MemKind::Ptr => vm.mem.load_ptr(a)?,
            };
            fr.regs[*dst as usize] = v;
            Ok(Flow::Next)
        }
        LowOp::Store { val, ptr } => {
            vm.charge_jit(OP_STORE)?;
            let a = read(fr, ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "store"))?;
            vm.mem.store(a, read(fr, val)?)?;
            Ok(Flow::Next)
        }
        LowOp::Gep {
            dst,
            base,
            const_off,
            scaled,
        } => {
            vm.charge_jit(OP_GEP)?;
            let b = read(fr, base)?
                .as_ptr()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "gep"))?;
            let mut off = *const_off;
            for (s, scale) in scaled {
                let i = read(fr, s)?
                    .as_i64()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "gep index"))?;
                off = off.wrapping_add(i.wrapping_mul(*scale));
            }
            fr.regs[*dst as usize] = VmValue::Ptr(b.wrapping_add(off as u32));
            Ok(Flow::Next)
        }
        LowOp::Alloc {
            dst,
            elem_size,
            count,
            stack,
        } => {
            vm.charge_jit(if *stack { OP_ALLOCA } else { OP_MALLOC })?;
            let count = count.as_ref().map(|c| read(fr, c)).transpose()?;
            let addr = vm.alloc(*elem_size as u64, count)?;
            if *stack {
                fr.allocas.push(addr);
            }
            fr.regs[*dst as usize] = VmValue::Ptr(addr);
            Ok(Flow::Next)
        }
        LowOp::Free(p) => {
            vm.charge_jit(OP_FREE)?;
            let a = read(fr, p)?
                .as_ptr()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "free"))?;
            if a != 0 {
                vm.mem.release(a)?;
            }
            Ok(Flow::Next)
        }
        LowOp::Call {
            dst,
            callee,
            args,
            eh,
            site,
        } => {
            vm.charge_jit(if eh.is_some() { OP_INVOKE } else { OP_CALL })?;
            if vm.opts.profile {
                // Before callee resolution, like the interpreter: a failed
                // resolution still counts the site.
                vm.counters.site(fr.func, *site as usize);
            }
            let target = match callee {
                Callee::Direct(f) => *f,
                Callee::Indirect { s, ic } => {
                    let addr = read(fr, s)?
                        .as_ptr()
                        .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "callee"))?;
                    vm.resolve_cached(addr, ic)?
                }
            };
            let argv: Vec<VmValue> = args.iter().map(|s| read(fr, s)).collect::<Result<_, _>>()?;
            match vm.enter_call(target, argv)? {
                Entered::External(ret) => {
                    if let (Some(d), Some(v)) = (dst, ret) {
                        fr.regs[*d as usize] = v;
                    }
                    if let Some((normal, _)) = eh {
                        vm.take_edge(fr, lf, *normal)?;
                    }
                    Ok(Flow::Next)
                }
                Entered::Defined { fixed, extra } => Ok(Flow::Call {
                    target,
                    args: fixed,
                    varargs: extra,
                    dst: *dst,
                    eh: *eh,
                }),
            }
        }
        LowOp::Br(e) => {
            vm.charge_jit(OP_BR)?;
            vm.take_edge(fr, lf, *e)?;
            Ok(Flow::Next)
        }
        LowOp::CondBr { c, t, f } => {
            vm.charge_jit(OP_BR)?;
            let v = read(fr, c)?
                .as_bool()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "condbr"))?;
            vm.take_edge(fr, lf, if v { *t } else { *f })?;
            Ok(Flow::Next)
        }
        LowOp::Switch { v, cases, default } => {
            vm.charge_jit(OP_SWITCH)?;
            let x = read(fr, v)?
                .as_i64()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "switch"))?;
            let e = cases
                .iter()
                .find(|(c, _)| *c == x)
                .map(|(_, e)| *e)
                .unwrap_or(*default);
            vm.take_edge(fr, lf, e)?;
            Ok(Flow::Next)
        }
        LowOp::Ret(v) => {
            vm.charge_jit(OP_RET)?;
            Ok(Flow::Ret(match v {
                Some(s) => Some(read(fr, s)?),
                None => None,
            }))
        }
        LowOp::Unwind => {
            vm.charge_jit(OP_UNWIND)?;
            Ok(Flow::Unwinding)
        }
        LowOp::Unreachable => {
            vm.charge_jit(OP_UNREACHABLE)?;
            Err(ExecError::trap(TrapKind::Unreachable, "unreachable"))
        }
        LowOp::VaArg { dst } => {
            vm.charge_jit(OP_VAARG)?;
            let v = fr
                .varargs
                .get(fr.va_next)
                .copied()
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "vaarg"))?;
            fr.va_next += 1;
            fr.regs[*dst as usize] = v;
            Ok(Flow::Next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Vm, VmOptions};

    fn both(src: &str) -> (i64, i64) {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap();
        let mut a = Vm::new(&m, VmOptions::default()).unwrap();
        let ra = a.run_main().unwrap_or_else(|e| panic!("interp: {e}"));
        let mut b = Vm::new(&m, VmOptions::default()).unwrap();
        let rb = b.run_main_jit().unwrap_or_else(|e| panic!("jit: {e}"));
        assert_eq!(a.output, b.output, "output must match");
        (ra, rb)
    }

    #[test]
    fn jit_matches_interp_on_loops_and_calls() {
        let (a, b) = both(
            "
define int @fact(int %n) {
e:
  %c = setle int %n, 1
  br bool %c, label %base, label %rec
base:
  ret int 1
rec:
  %n1 = sub int %n, 1
  %r = call int @fact(int %n1)
  %v = mul int %n, %r
  ret int %v
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 1, %e ], [ %i2, %h ]
  %s = phi int [ 0, %e ], [ %s2, %h ]
  %f = call int @fact(int %i)
  %s2 = add int %s, %f
  %i2 = add int %i, 1
  %c = setle int %i2, 6
  br bool %c, label %h, label %x
x:
  ret int %s2
}",
        );
        assert_eq!(a, b);
        assert_eq!(a, 873); // 1!+2!+...+6!
    }

    #[test]
    fn jit_memory_globals_and_gep() {
        let (a, b) = both(
            "
%s = type { int, [4 x int] }
@tab = global %s zeroinitializer
declare void @print_int(int)
define int @main() {
e:
  %f0 = getelementptr %s* @tab, long 0, ubyte 0
  store int 7, int* %f0
  br label %h
h:
  %i = phi long [ 0, %e ], [ %i2, %h ]
  %p = getelementptr %s* @tab, long 0, ubyte 1, long %i
  %iv = cast long %i to int
  %v = mul int %iv, 3
  store int %v, int* %p
  %i2 = add long %i, 1
  %c = setlt long %i2, 4
  br bool %c, label %h, label %x
x:
  %last = getelementptr %s* @tab, long 0, ubyte 1, long 3
  %lv = load int* %last
  %base = load int* %f0
  %r = add int %lv, %base
  call void @print_int(int %r)
  ret int %r
}",
        );
        assert_eq!(a, b);
        assert_eq!(a, 16);
    }

    #[test]
    fn jit_eh_unwinds() {
        let (a, b) = both(
            "
define void @thrower() {
e:
  unwind
}
define void @mid() {
e:
  call void @thrower()
  ret void
}
define int @main() {
e:
  invoke void @mid() to label %fine unwind label %handler
fine:
  ret int 1
handler:
  ret int 2
}",
        );
        assert_eq!((a, b), (2, 2));
    }

    #[test]
    fn jit_indirect_calls_and_switch() {
        let (a, b) = both(
            "
define int @one(int %x) {
e:
  ret int 1
}
define int @two(int %x) {
e:
  ret int 2
}
@vt = constant [2 x int (int)*] [ int (int)* @one, int (int)* @two ]
define int @main() {
e:
  %slot = getelementptr [2 x int (int)*]* @vt, long 0, long 1
  %fp = load int (int)** %slot
  %v = call int %fp(int 0)
  switch int %v, label %d [ int 2, label %good ]
good:
  ret int 42
d:
  ret int 0
}",
        );
        assert_eq!((a, b), (42, 42));
    }

    #[test]
    fn jit_is_faster_than_interp_per_instruction() {
        // Not a wall-clock assertion (too flaky); instead verify the
        // translation cache is exercised and results agree on a heavy
        // workload.
        let w = &lpat_workloads::suite(0)[0];
        let m = lpat_minic::compile(w.name, &w.source).unwrap();
        let mut a = Vm::new(&m, VmOptions::default()).unwrap();
        let ra = a.run_main().unwrap();
        let mut b = Vm::new(&m, VmOptions::default()).unwrap();
        let rb = b.run_main_jit().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn fusion_produces_superinstructions_and_preserves_semantics() {
        let src = "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 10
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}";
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap();
        let main = m.func_by_name("main").unwrap();
        let vm = Vm::new(&m, VmOptions::default()).unwrap();
        let lf = translate(&vm, main).unwrap();
        let n_cmpbr = lf
            .code
            .iter()
            .filter(|op| matches!(op, LowOp::CmpBr { .. }))
            .count();
        let n_binbr = lf
            .code
            .iter()
            .filter(|op| matches!(op, LowOp::BinBr { .. }))
            .count();
        assert_eq!(n_cmpbr, 1, "setlt+br must fuse");
        assert_eq!(n_binbr, 1, "latch add+br must fuse");
        let (a, b) = both(src);
        assert_eq!((a, b), (45, 45));
    }

    #[test]
    fn jit_histogram_and_fuel_match_interp() {
        let w = &lpat_workloads::suite(0)[1];
        let m = lpat_minic::compile(w.name, &w.source).unwrap();
        let opts = VmOptions {
            fuel: Some(20_000_000),
            ..VmOptions::default()
        };
        let mut a = Vm::new(&m, opts.clone()).unwrap();
        let ra = a.run_main().unwrap();
        let mut b = Vm::new(&m, opts).unwrap();
        let rb = b.run_main_jit().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.insts_executed, b.insts_executed);
        assert_eq!(a.opcode_counts, b.opcode_counts);
        assert_eq!(a.opts.fuel, b.opts.fuel);
    }
}
