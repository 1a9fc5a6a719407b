//! The portable interpreter (the "Execution Engine" of paper §3.4).
//!
//! Executes a module one function at a time against the simulated memory,
//! implementing the full semantics of the representation including the
//! `invoke`/`unwind` exception model (§2.4): `unwind` pops activation
//! records until it removes one created by an `invoke`, then transfers
//! control to that invoke's unwind successor — running no handler code of
//! its own, exactly as the abstract model prescribes.
//!
//! When profiling is enabled the engine plays the role of the paper's
//! lightweight instrumentation (§3.5), counting block and edge executions
//! for the runtime optimizer.

use std::collections::VecDeque;

use lpat_core::trace;
use lpat_core::{
    fold, BinOp, BlockId, CmpPred, Const, ConstId, FuncId, GepStep, Inst, InstId, IntKind, Module,
    Type, TypeId, Value,
};

use crate::counters::Counters;
use crate::error::{ExecError, TrapKind};
use crate::mem::Memory;
use crate::profile::ProfileData;
use crate::value::VmValue;

/// Trace-counter name per dense opcode index: `"vm.op."` +
/// [`Inst::opcode_mnemonic`]. Spelled out because counter names must be
/// `&'static str`; a unit test pins the alignment.
const OP_COUNTER_NAMES: [&str; Inst::NUM_OPCODES] = [
    "vm.op.ret",
    "vm.op.br",
    "vm.op.switch",
    "vm.op.invoke",
    "vm.op.unwind",
    "vm.op.unreachable",
    "vm.op.malloc",
    "vm.op.free",
    "vm.op.alloca",
    "vm.op.load",
    "vm.op.store",
    "vm.op.getelementptr",
    "vm.op.phi",
    "vm.op.call",
    "vm.op.cast",
    "vm.op.vaarg",
    "vm.op.add",
    "vm.op.sub",
    "vm.op.mul",
    "vm.op.div",
    "vm.op.rem",
    "vm.op.and",
    "vm.op.or",
    "vm.op.xor",
    "vm.op.shl",
    "vm.op.shr",
    "vm.op.seteq",
    "vm.op.setne",
    "vm.op.setlt",
    "vm.op.setgt",
    "vm.op.setle",
    "vm.op.setge",
];

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Instruction budget; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Collect block/edge/call profiles.
    pub profile: bool,
    /// Memory limit in bytes.
    pub mem_limit: u32,
    /// Scripted input for `read_int`.
    pub input: VecDeque<i64>,
    /// Call-stack depth limit: deep recursion traps with
    /// [`TrapKind::StackOverflow`] instead of overflowing the host stack
    /// (the interpreter's call stack is heap-allocated, so the limit is a
    /// policy bound, not a host constraint).
    pub max_stack: usize,
    /// Ignored: the tiered engine decides each function's tier at its
    /// first call. Kept only because the benchmark (`lpbench/`) sets it;
    /// ROADMAP 1(b) deletes it.
    pub tier_up: u64,
    /// Ignored, like [`VmOptions::tier_up`], and kept for the same
    /// reason.
    pub native_up: Option<u64>,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel: None,
            profile: false,
            mem_limit: 64 << 20,
            input: VecDeque::new(),
            max_stack: 10_000,
            tier_up: 0,
            native_up: None,
        }
    }
}

/// Speculation statistics: how the guards emitted by the speculative
/// optimizer behaved at run time. Engine-independent: a guard is a
/// conditional branch, and its passes and failures are its then and else
/// edges in the edge profile, read when the counters are drained.
#[derive(Clone, Debug, Default)]
pub struct SpecStats {
    /// Guards the speculation pass emitted into the executing module.
    pub emitted: u64,
    /// Plan entries retracted (prior misspeculation rate over threshold).
    pub retracted: u64,
    /// Guard executions that took the speculated fast path.
    pub passed: u64,
    /// Guard executions that failed (misspeculation).
    pub failed: u64,
    /// Always 0: a failing guard takes its else edge in whatever engine
    /// runs it, and no frame is ever deoptimised. Kept only because the
    /// benchmark (`lpbench/`) reads it; ROADMAP 1(b) deletes it.
    pub deopts: u64,
}

impl SpecStats {
    /// Human-readable speculation table for `--stats`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("  guards emitted  {:>12}\n", self.emitted));
        s.push_str(&format!("  retracted       {:>12}\n", self.retracted));
        s.push_str(&format!("  guard passed    {:>12}\n", self.passed));
        s.push_str(&format!("  guard failed    {:>12}\n", self.failed));
        s
    }
}

/// An activation record.
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) args: Vec<VmValue>,
    pub(crate) varargs: Vec<VmValue>,
    pub(crate) va_next: usize,
    pub(crate) regs: Vec<Option<VmValue>>,
    pub(crate) block: BlockId,
    pub(crate) idx: usize,
    pub(crate) allocas: Vec<u32>,
    /// The call/invoke instruction in *this* frame currently awaiting a
    /// callee's return.
    pub(crate) pending: Option<InstId>,
}

/// The execution engine.
pub struct Vm<'m> {
    m: &'m Module,
    /// Simulated memory.
    pub mem: Memory,
    /// Configuration.
    pub opts: VmOptions,
    /// Captured program output.
    pub output: String,
    /// Collected profile (when `opts.profile`). The engines record into
    /// private counter slabs; those are folded in here whenever
    /// `run_main`, `run_function` or one of their `_jit` / `_tiered`
    /// forms returns, `Ok` or `Err` — read it between runs.
    pub profile: ProfileData,
    pub(crate) counters: Counters,
    /// Total instructions executed. Complete whenever a run entry point
    /// has returned: machine code counts region entries, folded in by
    /// the drain that ends every run.
    pub insts_executed: u64,
    /// Executed-instruction histogram, indexed by
    /// [`Inst::opcode_index`]. Counted unconditionally: the interpreter
    /// and the JIT add one per dispatched instruction, machine code one
    /// region count × the region's opcode vector per region at the end
    /// of each run. Rendered by `--stats` and folded into the trace by
    /// [`Vm::flush_trace`].
    pub opcode_counts: [u64; Inst::NUM_OPCODES],
    /// Tiered-execution statistics (tier decisions, per-tier instruction
    /// counts, translation time). Populated by every engine; the tiered
    /// engine is the main writer.
    pub tier_stats: crate::tier::TierStats,
    /// Speculation statistics (guards installed, pass/fail outcomes).
    /// All zero unless speculation was installed.
    pub spec_stats: SpecStats,
    /// The speculation overlay: which conditional branches are guards, so
    /// a drain can read their counts off the edge profile. Installed by
    /// [`Vm::install_speculation`]; `None` means the module carries no
    /// speculation.
    spec: Option<std::rc::Rc<lpat_transform::SpecMap>>,
    /// Address of each global, by index.
    pub(crate) global_addrs: Vec<u32>,
    /// JIT translation cache, dense over `FuncId` (translated on first
    /// call, reused across `run_*` invocations).
    pub(crate) jit_cache: Vec<Option<std::rc::Rc<crate::jit::LowFunc>>>,
    /// Native (tier-3) translation cache, dense over `FuncId`.
    pub(crate) native_cache: Vec<crate::native::NativeSlot>,
    /// Free-list arena of native spill-slot slabs (see `jit_reg_pool`).
    pub(crate) native_slot_pool: Vec<Vec<u32>>,
    /// Each function's tier once the tiered engine has called it, dense
    /// over `FuncId`.
    pub(crate) tier: Vec<Option<crate::tier::Tier>>,
    /// The tier decisions this engine shares with others running the
    /// same module ([`Vm::share_tiers`]); `None` decides alone.
    pub(crate) shared_tiers: Option<std::sync::Arc<crate::tier::TierCode>>,
    /// Free-list arenas of register slabs, recycled across frames so the
    /// hot call path does not allocate.
    pub(crate) jit_reg_pool: Vec<Vec<VmValue>>,
    pub(crate) interp_reg_pool: Vec<Vec<Option<VmValue>>>,
    /// The values of one edge's φ-copies, read before any is written:
    /// reused by every edge of the interpreter and the JIT, so taking an
    /// edge allocates nothing.
    pub(crate) phi_buf: Vec<(u32, VmValue)>,
}

impl<'m> Vm<'m> {
    /// Create an engine for `m`, materializing global variables into the
    /// simulated memory.
    ///
    /// # Errors
    ///
    /// Fails when globals exceed the memory limit.
    pub fn new(m: &'m Module, opts: VmOptions) -> Result<Vm<'m>, ExecError> {
        let _sp = trace::span("heap", "materialize-globals");
        let mut mem = Memory::new(opts.mem_limit, m.num_funcs() as u32);
        // Two passes: assign addresses, then write initializers (which may
        // reference other globals' addresses).
        let mut global_addrs = Vec::with_capacity(m.num_globals());
        for (_, g) in m.globals() {
            let size: u32 = m
                .types
                .try_size_of(g.value_ty)
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "global of unsized type"))?
                .try_into()
                .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "global too large"))?;
            global_addrs.push(mem.alloc(size.max(1))?);
        }
        let mut vm = Vm {
            m,
            mem,
            opts,
            output: String::new(),
            profile: ProfileData::default(),
            counters: Counters::default(),
            insts_executed: 0,
            opcode_counts: [0; Inst::NUM_OPCODES],
            tier_stats: crate::tier::TierStats::default(),
            spec_stats: SpecStats::default(),
            spec: None,
            global_addrs,
            jit_cache: vec![None; m.num_funcs()],
            native_cache: vec![crate::native::NativeSlot::Untried; m.num_funcs()],
            native_slot_pool: Vec::new(),
            tier: vec![None; m.num_funcs()],
            shared_tiers: None,
            jit_reg_pool: Vec::new(),
            interp_reg_pool: Vec::new(),
            phi_buf: Vec::new(),
        };
        for (gid, g) in m.globals() {
            if let Some(init) = g.init {
                let addr = vm.global_addrs[gid.index()];
                vm.write_const(addr, g.value_ty, init)?;
            }
        }
        Ok(vm)
    }

    /// Address of a global.
    pub fn global_addr(&self, g: lpat_core::GlobalId) -> u32 {
        self.global_addrs[g.index()]
    }

    /// The module this engine executes.
    pub fn module(&self) -> &'m Module {
        self.m
    }

    /// Install a speculation overlay: the guard map produced by
    /// `lpat_transform::speculate` for *this engine's module*, plus the
    /// plan's emitted/retracted counts for `--stats`. A guard's outcomes
    /// are edge counts, so this turns edge recording on
    /// (`opts.profile`); whether the profile is persisted stays the
    /// caller's decision.
    pub fn install_speculation(
        &mut self,
        map: std::rc::Rc<lpat_transform::SpecMap>,
        emitted: u64,
        retracted: u64,
    ) {
        self.opts.profile = true;
        self.spec = if map.is_empty() { None } else { Some(map) };
        self.spec_stats.emitted = emitted;
        self.spec_stats.retracted = retracted;
    }

    /// Fold the counter slabs into [`Vm::profile`], the guards' edges
    /// into [`Vm::spec_stats`], and machine code's region counts into the
    /// instruction counts and the histogram; every run entry point ends
    /// here, whether the run returned a value, trapped or ran dry.
    pub(crate) fn drain_counters(&mut self) {
        self.drain_regions();
        let (passed, failed) = self
            .counters
            .drain_into(self.spec.as_deref(), &mut self.profile);
        self.spec_stats.passed += passed;
        self.spec_stats.failed += failed;
    }

    /// What profiling allocated and recorded so far.
    pub fn profile_stats(&self) -> crate::counters::ProfileStats {
        self.counters.stats()
    }

    /// Serialize a constant of type `ty` into memory at `addr`.
    fn write_const(&mut self, addr: u32, ty: TypeId, c: ConstId) -> Result<(), ExecError> {
        self.write_const_at(addr, ty, c, 0)
    }

    fn write_const_at(
        &mut self,
        addr: u32,
        ty: TypeId,
        c: ConstId,
        depth: u32,
    ) -> Result<(), ExecError> {
        // This recursion runs on the host stack, so a deeply nested
        // aggregate constant (possible in decoded-but-unverified modules)
        // needs an explicit bound.
        if depth > 512 {
            return Err(ExecError::trap(
                TrapKind::StackOverflow,
                "constant nesting too deep",
            ));
        }
        match self.m.consts.get(c).clone() {
            Const::Zero(_) | Const::Undef(_) => {
                let size: u32 = self
                    .m
                    .types
                    .try_size_of(ty)
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "unsized zero constant"))?
                    .try_into()
                    .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "constant too large"))?;
                // Zero in bounded chunks so a hostile declared size hits
                // the range check before any proportional host allocation.
                let zeros = [0u8; 4096];
                let mut done = 0u32;
                while done < size {
                    let n = (size - done).min(zeros.len() as u32);
                    let at = addr.checked_add(done).ok_or_else(|| {
                        ExecError::trap(TrapKind::BadAccess, "address wraparound")
                    })?;
                    self.mem.write_bytes(at, &zeros[..n as usize])?;
                    done += n;
                }
            }
            Const::Array { elems, ty: aty } => {
                let elem_ty = match self.m.types.ty(aty) {
                    Type::Array { elem, .. } => *elem,
                    _ => return Err(ExecError::trap(TrapKind::Invalid, "bad array constant")),
                };
                let stride =
                    self.m.types.try_size_of(elem_ty).ok_or_else(|| {
                        ExecError::trap(TrapKind::Invalid, "unsized array element")
                    })?;
                for (i, e) in elems.iter().enumerate() {
                    let at = (i as u64)
                        .checked_mul(stride)
                        .and_then(|o| o.checked_add(addr as u64))
                        .filter(|&end| end <= u32::MAX as u64)
                        .ok_or_else(|| ExecError::trap(TrapKind::BadAccess, "address wraparound"))?
                        as u32;
                    self.write_const_at(at, elem_ty, *e, depth + 1)?;
                }
            }
            Const::Struct { fields, ty: sty } => {
                let ftys = match self.m.types.ty(sty) {
                    Type::Struct { fields, .. } => fields.clone(),
                    _ => return Err(ExecError::trap(TrapKind::Invalid, "bad struct constant")),
                };
                if fields.len() != ftys.len() || self.m.types.try_size_of(sty).is_none() {
                    return Err(ExecError::trap(TrapKind::Invalid, "bad struct constant"));
                }
                for (i, e) in fields.iter().enumerate() {
                    let off = self.m.types.field_offset(sty, i);
                    let at = (addr as u64)
                        .checked_add(off)
                        .filter(|&end| end <= u32::MAX as u64)
                        .ok_or_else(|| ExecError::trap(TrapKind::BadAccess, "address wraparound"))?
                        as u32;
                    self.write_const_at(at, ftys[i], *e, depth + 1)?;
                }
            }
            _ => {
                let v = self.const_value(c)?;
                self.mem.store(addr, v)?;
            }
        }
        Ok(())
    }

    /// Evaluate a scalar constant — the one `Const` → `VmValue` mapping:
    /// the interpreter reads operands through it, the JIT translator
    /// pre-evaluates its immediates with it.
    pub(crate) fn const_value(&self, c: ConstId) -> Result<VmValue, ExecError> {
        Ok(match self.m.consts.get(c) {
            Const::Bool(b) => VmValue::Bool(*b),
            Const::Int { kind, value } => VmValue::Int {
                kind: *kind,
                v: *value,
            },
            Const::F32(bits) => VmValue::F32(f32::from_bits(*bits)),
            Const::F64(bits) => VmValue::F64(f64::from_bits(*bits)),
            Const::Null(_) => VmValue::Ptr(0),
            Const::Undef(t) if self.m.types.is_first_class(*t) => {
                VmValue::zero_of(&self.m.types, *t)
            }
            Const::Zero(t) if self.m.types.is_first_class(*t) => {
                VmValue::zero_of(&self.m.types, *t)
            }
            Const::GlobalAddr(g) => VmValue::Ptr(self.global_addrs[g.index()]),
            Const::FuncAddr(f) => VmValue::Ptr(Memory::func_addr(f.index())),
            other => {
                return Err(ExecError::trap(
                    TrapKind::Invalid,
                    format!("aggregate constant {other:?} used as scalar"),
                ))
            }
        })
    }

    /// Run `main()` and return its integer exit value (an explicit
    /// `exit(code)` also returns here).
    pub fn run_main(&mut self) -> Result<i64, ExecError> {
        self.run_main_with("vm", "interp @main", Vm::run_function)
    }

    /// The body shared by [`Vm::run_main`] and its `_jit` / `_tiered`
    /// forms: find `@main`, call it through `call` under a `cat` / `name`
    /// span, map its outcome to an exit value, and record that (or the
    /// trap) on the span.
    pub(crate) fn run_main_with(
        &mut self,
        cat: &'static str,
        name: &'static str,
        call: impl FnOnce(&mut Self, FuncId, Vec<VmValue>) -> Result<Option<VmValue>, ExecError>,
    ) -> Result<i64, ExecError> {
        let mut sp = trace::span(cat, name);
        let result = match self.m.func_by_name("main") {
            None => Err(ExecError::trap(TrapKind::Invalid, "no @main in module")),
            Some(main) => match call(self, main, vec![]) {
                Ok(Some(v)) => v
                    .as_i64()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "main returned non-integer")),
                Ok(None) => Ok(0),
                Err(ExecError::Exited(c)) => Ok(c as i64),
                Err(e) => Err(e),
            },
        };
        if trace::enabled() {
            match &result {
                Ok(code) => sp.arg("exit", code.to_string()),
                Err(e) => {
                    sp.arg("error", e.to_string());
                    trace::instant_args(cat, "trap", vec![("error", e.to_string())]);
                }
            }
        }
        result
    }

    /// Call function `f` with `args`; returns its return value.
    ///
    /// # Errors
    ///
    /// Any trap, uncaught `unwind`, or `exit` call surfaces here.
    pub fn run_function(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        self.run_function_mixed(f, args, crate::tier::MixedMode::InterpOnly)
    }

    /// Charge one executed IR instruction against the fuel budget and the
    /// dispatch counters. The interpreter and the JIT account through here
    /// per instruction; machine code charges whole regions and comes here
    /// only when fuel is shorter than one (`native.rs`). Both add up to
    /// the same fuel and opcode histogram.
    ///
    /// `inline(always)`, like the other per-instruction helpers the engine
    /// loops call (`value`, `exec_bin`, `exec_cmp`, the JIT's `read`, the
    /// native tier's `value_of` / `take_nat_edge`): left to the inliner
    /// they stayed calls in a build without LTO, and the JIT-resident
    /// kernels ran a fifth to a third slower for it.
    #[inline(always)]
    fn charge(&mut self, opidx: usize) -> Result<(), ExecError> {
        if let Some(fuel) = &mut self.opts.fuel {
            if *fuel == 0 {
                return Err(ExecError::trap(TrapKind::OutOfFuel, "instruction budget"));
            }
            *fuel -= 1;
        }
        self.insts_executed += 1;
        self.opcode_counts[opidx] += 1;
        Ok(())
    }

    /// [`Vm::charge`], attributed to the interpreter tier.
    #[inline(always)]
    pub(crate) fn charge_interp(&mut self, opidx: usize) -> Result<(), ExecError> {
        self.charge(opidx)?;
        self.tier_stats.interp_insts += 1;
        Ok(())
    }

    /// [`Vm::charge`], attributed to the JIT tier.
    #[inline(always)]
    pub(crate) fn charge_jit(&mut self, opidx: usize) -> Result<(), ExecError> {
        self.charge(opidx)?;
        self.tier_stats.jit_insts += 1;
        Ok(())
    }

    /// [`Vm::charge`], attributed to the native tier: machine code's
    /// exact-fuel path.
    #[inline(always)]
    pub(crate) fn charge_native(&mut self, opidx: usize) -> Result<(), ExecError> {
        self.charge(opidx)?;
        self.tier_stats.native_insts += 1;
        Ok(())
    }

    /// Build an interpreter activation record for a call to `f`, recording
    /// the call in the profile and drawing the register slab from the
    /// free-list arena. Stack-depth policy is the caller's job.
    pub(crate) fn make_frame(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    ) -> Result<Frame, ExecError> {
        let func = self.m.func(f);
        if func.is_declaration() {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("call into declaration @{}", func.name()),
            ));
        }
        if self.opts.profile {
            self.counters.enter(self.m, f);
        }
        let mut regs = self.interp_reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(func.num_inst_slots(), None);
        Ok(Frame {
            func: f,
            args,
            varargs,
            va_next: 0,
            regs,
            block: func.entry(),
            idx: 0,
            allocas: Vec::new(),
            pending: None,
        })
    }

    /// Release a popped frame's allocas and return its register slab to
    /// the arena.
    pub(crate) fn recycle_frame(&mut self, mut fr: Frame) -> Result<(), ExecError> {
        let mut regs = std::mem::take(&mut fr.regs);
        regs.clear();
        self.interp_reg_pool.push(regs);
        for a in fr.allocas {
            self.mem.release(a)?;
        }
        Ok(())
    }

    /// Transfer control along the CFG edge `from -> to`, executing φs.
    pub(crate) fn transfer(
        &mut self,
        fr: &mut Frame,
        from: BlockId,
        to: BlockId,
    ) -> Result<(), ExecError> {
        let func = self.m.func(fr.func);
        // Simultaneous φ assignment: read all inputs first.
        let mut buf = std::mem::take(&mut self.phi_buf);
        buf.clear();
        for &iid in func.block_insts(to) {
            if let Inst::Phi { incoming } = func.inst(iid) {
                let (v, _) = incoming.iter().find(|(_, b)| *b == from).ok_or_else(|| {
                    ExecError::trap(
                        TrapKind::Invalid,
                        format!("phi in bb{} lacks edge from bb{}", to.index(), from.index()),
                    )
                })?;
                buf.push((iid.index() as u32, self.value(fr, *v)?));
            }
        }
        for &(i, v) in &buf {
            fr.regs[i as usize] = Some(v);
        }
        self.phi_buf = buf;
        if self.opts.profile {
            self.counters.edge_between(fr.func, from, to);
        }
        fr.block = to;
        fr.idx = 0;
        Ok(())
    }

    /// Evaluate an operand in a frame.
    #[inline(always)]
    pub(crate) fn value(&self, fr: &Frame, v: Value) -> Result<VmValue, ExecError> {
        match v {
            Value::Inst(i) => fr.regs[i.index()].ok_or_else(|| {
                ExecError::trap(
                    TrapKind::Invalid,
                    format!("read of unassigned register %t{}", i.index()),
                )
            }),
            Value::Arg(n) => {
                fr.args.get(n as usize).copied().ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "argument index out of range")
                })
            }
            Value::Const(c) => self.const_value(c),
        }
    }

    /// Execute one instruction in frame `fr` (the top of whatever stack
    /// the caller maintains — the pure interpreter's or the tiered
    /// engine's mixed stack). Calls into defined functions are *not*
    /// pushed here: `fr.pending` is set and [`StepResult::Call`] returned
    /// so the caller can pick the callee's tier.
    ///
    /// `inst` is the already-fetched instruction for `iid` — borrowed from
    /// the module (which outlives the engine), never cloned: several
    /// opcodes carry heap-allocated operand lists (`call`, `switch`,
    /// `getelementptr`), and cloning them per dispatch dominated the
    /// interpreter's hot loop.
    pub(crate) fn step(
        &mut self,
        fr: &mut Frame,
        block: BlockId,
        iid: InstId,
        inst: &'m Inst,
    ) -> Result<StepResult, ExecError> {
        let fid = fr.func;
        let func = self.m.func(fid);
        // Shorthand to evaluate operands in the frame.
        macro_rules! ev {
            ($v:expr) => {{
                self.value(fr, $v)?
            }};
        }
        macro_rules! setreg {
            ($v:expr) => {{
                fr.regs[iid.index()] = Some($v);
            }};
        }
        match inst {
            Inst::Phi { .. } => {
                // Already assigned by `transfer` on block entry.
                Ok(StepResult::Continue)
            }
            Inst::Ret(v) => {
                let out = match v {
                    Some(v) => Some(ev!(*v)),
                    None => None,
                };
                Ok(StepResult::Returned(out))
            }
            Inst::Br(t) => {
                self.transfer(fr, block, *t)?;
                Ok(StepResult::Jumped)
            }
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = ev!(*cond)
                    .as_bool()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "non-bool condition"))?;
                let t = if c { *then_bb } else { *else_bb };
                self.transfer(fr, block, t)?;
                Ok(StepResult::Jumped)
            }
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                let v = ev!(*val)
                    .as_i64()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "non-int switch"))?;
                let mut target = *default;
                for (c, b) in cases {
                    if let Some((_, cv)) = self.m.consts.as_int(*c) {
                        if cv == v {
                            target = *b;
                            break;
                        }
                    }
                }
                self.transfer(fr, block, target)?;
                Ok(StepResult::Jumped)
            }
            Inst::Unwind => Ok(StepResult::Unwinding),
            Inst::Unreachable => Err(ExecError::trap(
                TrapKind::Unreachable,
                "unreachable executed",
            )),
            Inst::Bin { op, lhs, rhs } => {
                let a = ev!(*lhs);
                let b = ev!(*rhs);
                setreg!(exec_bin(*op, a, b)?);
                Ok(StepResult::Continue)
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let a = ev!(*lhs);
                let b = ev!(*rhs);
                setreg!(VmValue::Bool(exec_cmp(*pred, a, b)?));
                Ok(StepResult::Continue)
            }
            Inst::Cast { val, to } => {
                let v = ev!(*val);
                setreg!(exec_cast(&self.m.types, v, *to)?);
                Ok(StepResult::Continue)
            }
            Inst::Malloc { elem_ty, count } | Inst::Alloca { elem_ty, count } => {
                let count = count.map(|c| self.value(fr, c)).transpose()?;
                let elem_size = self.m.types.try_size_of(*elem_ty).ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "allocation of unsized type")
                })?;
                let addr = self.alloc(elem_size, count)?;
                if matches!(inst, Inst::Alloca { .. }) {
                    fr.allocas.push(addr);
                }
                setreg!(VmValue::Ptr(addr));
                Ok(StepResult::Continue)
            }
            Inst::Free(p) => {
                let a = ev!(*p)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "free of non-pointer"))?;
                if a != 0 {
                    self.mem.release(a)?;
                }
                Ok(StepResult::Continue)
            }
            Inst::Load { ptr } => {
                let a = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "load of non-pointer"))?;
                let ty = func.inst_ty(iid);
                let v = self.load_typed(a, ty)?;
                setreg!(v);
                Ok(StepResult::Continue)
            }
            Inst::Store { val, ptr } => {
                let v = ev!(*val);
                let a = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "store to non-pointer"))?;
                self.mem.store(a, v)?;
                Ok(StepResult::Continue)
            }
            Inst::Gep { ptr, indices } => {
                let base = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "gep on non-pointer"))?;
                // Σ index·stride + field offsets, straight from the frame.
                let mut off: i64 = 0;
                self.m.types.gep_steps(
                    self.m.value_type(func, *ptr),
                    indices,
                    true,
                    |v| self.m.consts.int_of(v),
                    |step| {
                        off = off.wrapping_add(match step {
                            GepStep::Field { offset, .. } => offset as i64,
                            GepStep::Scaled { index, stride } => self
                                .value(fr, index)?
                                .as_i64()
                                .ok_or_else(|| {
                                    ExecError::trap(TrapKind::Invalid, "non-int gep index")
                                })?
                                .wrapping_mul(stride as i64),
                        });
                        Ok::<(), ExecError>(())
                    },
                )?;
                setreg!(VmValue::Ptr(base.wrapping_add(off as u32)));
                Ok(StepResult::Continue)
            }
            Inst::VaArg { .. } => {
                let v = fr.varargs.get(fr.va_next).copied().ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "vaarg past the end of the variadic list")
                })?;
                fr.va_next += 1;
                fr.regs[iid.index()] = Some(v);
                Ok(StepResult::Continue)
            }
            Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => {
                if self.opts.profile {
                    self.counters.site(fid, iid.index());
                }
                let target = self.resolve_callee(fr, *callee)?;
                let argv: Vec<VmValue> = args
                    .iter()
                    .map(|&a| self.value(fr, a))
                    .collect::<Result<_, _>>()?;
                match self.enter_call(target, argv)? {
                    Entered::External(ret) => {
                        if let Some(v) = ret {
                            setreg!(v);
                        }
                        // Invokes of externals return normally (externals
                        // here never unwind).
                        if let Inst::Invoke { normal, .. } = inst {
                            self.transfer(fr, block, *normal)?;
                            return Ok(StepResult::Jumped);
                        }
                        Ok(StepResult::Continue)
                    }
                    Entered::Defined { fixed, extra } => {
                        fr.pending = Some(iid);
                        Ok(StepResult::Call {
                            target,
                            fixed,
                            extra,
                        })
                    }
                }
            }
        }
    }

    fn resolve_callee(&self, fr: &Frame, callee: Value) -> Result<FuncId, ExecError> {
        let v = self.value(fr, callee)?;
        let addr = v
            .as_ptr()
            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "call through non-pointer"))?;
        self.mem
            .addr_to_func(addr)
            .map(FuncId::from_index)
            .ok_or_else(|| {
                ExecError::trap(
                    TrapKind::Invalid,
                    format!("call through {addr:#x}, not a function address"),
                )
            })
    }

    /// The function at `addr`, for the translated tiers' indirect calls:
    /// function addresses are a fixed arithmetic range, so this is a
    /// range check and a shift.
    #[inline]
    pub(crate) fn resolve(&self, addr: u32) -> Result<FuncId, ExecError> {
        self.mem
            .addr_to_func(addr)
            .map(FuncId::from_index)
            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "call through data pointer"))
    }

    /// What a call to `target` with `argv` does on every engine: a
    /// declaration runs in the VM's runtime library right here; a
    /// definition gets its arguments split into the fixed parameters and
    /// the variadic tail, and the caller's loop pushes the frame. Forced
    /// inline: out of line, handing the two vectors back through memory
    /// cost the JIT ≈ 8 % on a call-bound kernel.
    #[inline(always)]
    pub(crate) fn enter_call(
        &mut self,
        target: FuncId,
        mut argv: Vec<VmValue>,
    ) -> Result<Entered, ExecError> {
        let tf = self.m.func(target);
        if tf.is_declaration() {
            return Ok(Entered::External(self.call_external(target, &argv)?));
        }
        // Only a variadic call has a tail to split off; the common case
        // must not pay for an empty split.
        let extra = match tf.num_params() {
            n if n < argv.len() => argv.split_off(n),
            _ => Vec::new(),
        };
        Ok(Entered::Defined { fixed: argv, extra })
    }

    /// `malloc` / `alloca` of `count` elements (`None`: one) of
    /// `elem_size` bytes: a negative or non-integer count allocates
    /// nothing, an empty allocation still gets a distinct address.
    #[inline]
    pub(crate) fn alloc(
        &mut self,
        elem_size: u64,
        count: Option<VmValue>,
    ) -> Result<u32, ExecError> {
        let n = match count {
            None => 1u64,
            Some(c) => c.as_i64().unwrap_or(0).max(0) as u64,
        };
        let size: u32 = elem_size
            .saturating_mul(n)
            .try_into()
            .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "allocation too large"))?;
        self.mem.alloc(size.max(1))
    }

    fn load_typed(&mut self, addr: u32, ty: TypeId) -> Result<VmValue, ExecError> {
        match self.m.types.ty(ty) {
            Type::Bool => self.mem.load_bool(addr),
            Type::Int(k) => self.mem.load_int(addr, *k),
            Type::F32 => self.mem.load_f32(addr),
            Type::F64 => self.mem.load_f64(addr),
            Type::Ptr(_) => self.mem.load_ptr(addr),
            other => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("load of non-first-class type {other:?}"),
            )),
        }
    }

    /// The `n` most-executed opcodes so far: `(mnemonic, count)`, sorted by
    /// descending count (ties broken by opcode index, so the order is
    /// deterministic). Zero-count opcodes are omitted.
    pub fn top_opcodes(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut order: Vec<usize> = (0..Inst::NUM_OPCODES)
            .filter(|&i| self.opcode_counts[i] > 0)
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.opcode_counts[i]), i));
        order
            .into_iter()
            .take(n)
            .map(|i| (Inst::opcode_mnemonic(i), self.opcode_counts[i]))
            .collect()
    }

    /// Fold the engine's accumulated counters — dispatch total, per-opcode
    /// histogram, heap traffic — into the trace layer. Counts are
    /// cumulative, so call once, after the last run, before exporting.
    pub fn flush_trace(&self) {
        if !trace::enabled() {
            return;
        }
        trace::counter("vm.insts", self.insts_executed);
        for (i, &n) in self.opcode_counts.iter().enumerate() {
            trace::counter(OP_COUNTER_NAMES[i], n);
        }
        let t = &self.tier_stats;
        trace::counter("vm.tier.promotions", t.promoted);
        trace::counter("vm.tier.demotions", t.demoted);
        trace::counter("vm.tier.translated", t.translated);
        trace::counter("vm.tier.interp_insts", t.interp_insts);
        trace::counter("vm.tier.jit_insts", t.jit_insts);
        trace::counter("vm.tier.native.promotions", t.native_promoted);
        trace::counter("vm.tier.native.demotions", t.native_demoted);
        trace::counter("vm.tier.native.translated", t.native_translated);
        trace::counter("vm.tier.native.insts", t.native_insts);
        trace::counter("vm.tier.native.calls", t.native_calls);
        trace::counter("vm.tier.native.mem_checked", t.native_mem_checked);
        // Speculation counters are exported unconditionally (all zero
        // without `--speculate`) so trace consumers see a stable key set.
        let s = &self.spec_stats;
        trace::counter_keyed("vm.spec.emitted", s.emitted);
        trace::counter_keyed("vm.spec.retracted", s.retracted);
        trace::counter_keyed("vm.spec.passed", s.passed);
        trace::counter_keyed("vm.spec.failed", s.failed);
        let p = self.profile_stats();
        trace::counter_keyed("vm.profile.funcs", p.funcs);
        trace::counter_keyed("vm.profile.slots", p.slots);
        trace::counter_keyed("vm.profile.nonzero", p.nonzero);
        let h = self.mem.stats();
        trace::counter("heap.allocs", h.allocs);
        trace::counter("heap.frees", h.frees);
        trace::counter("heap.coalesces", h.coalesces);
        trace::counter("heap.peak_bytes", h.peak_bytes);
    }

    /// Dispatch a call to an external declaration (the VM's tiny runtime
    /// library: I/O and process control).
    fn call_external(&mut self, f: FuncId, args: &[VmValue]) -> Result<Option<VmValue>, ExecError> {
        use std::fmt::Write;
        let name = self.m.func(f).name().to_string();
        let geti = |i: usize| -> i64 { args.get(i).and_then(|v| v.as_i64()).unwrap_or(0) };
        match name.as_str() {
            "print_int" => {
                let _ = writeln!(self.output, "{}", geti(0));
                Ok(None)
            }
            "print_double" => {
                let v = match args.first() {
                    Some(VmValue::F64(f)) => *f,
                    Some(VmValue::F32(f)) => *f as f64,
                    _ => 0.0,
                };
                let _ = writeln!(self.output, "{v}");
                Ok(None)
            }
            "print_str" | "puts" => {
                let addr = args.first().and_then(|v| v.as_ptr()).unwrap_or(0);
                if addr != 0 {
                    let bytes = self.mem.read_cstr(addr, 1 << 20)?;
                    self.output.push_str(&String::from_utf8_lossy(&bytes));
                }
                self.output.push('\n');
                Ok(Some(VmValue::int(IntKind::S32, 0)))
            }
            "putchar" => {
                let c = geti(0) as u8 as char;
                self.output.push(c);
                Ok(Some(VmValue::int(IntKind::S32, geti(0))))
            }
            "read_int" => {
                let v = self.opts.input.pop_front().unwrap_or(0);
                Ok(Some(VmValue::int(IntKind::S32, v)))
            }
            "exit" => Err(ExecError::Exited(geti(0) as i32)),
            "abort" => Err(ExecError::trap(TrapKind::Invalid, "abort() called")),
            other => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("call to unknown external @{other}"),
            )),
        }
    }
}

/// How [`Vm::enter_call`] disposed of a call.
pub(crate) enum Entered {
    /// The callee was an external: it ran, and this is what it returned.
    External(Option<VmValue>),
    /// The callee is defined here: the arguments for its frame.
    Defined {
        fixed: Vec<VmValue>,
        extra: Vec<VmValue>,
    },
}

pub(crate) enum StepResult {
    Continue,
    Jumped,
    /// A call into a defined function: `fr.pending` is already set; the
    /// caller decides which tier executes the callee and pushes the frame.
    Call {
        target: FuncId,
        fixed: Vec<VmValue>,
        extra: Vec<VmValue>,
    },
    Returned(Option<VmValue>),
    Unwinding,
}

// ----------------------------------------------------------------------
// Scalar semantics: `lpat_core::fold`'s kernel on run-time values
// ----------------------------------------------------------------------

#[inline(always)]
pub(crate) fn exec_bin(op: BinOp, a: VmValue, b: VmValue) -> Result<VmValue, ExecError> {
    match (a, b) {
        (VmValue::Int { kind, v: x }, VmValue::Int { v: y, .. }) => fold::int_bin(op, kind, x, y)
            .map(|v| VmValue::Int { kind, v })
            .ok_or_else(|| {
                let what = match op {
                    BinOp::Rem => "integer remainder",
                    _ => "integer division",
                };
                ExecError::trap(TrapKind::DivByZero, what)
            }),
        (VmValue::F64(x), VmValue::F64(y)) => Ok(VmValue::F64(exec_fbin(op, x, y)?)),
        (VmValue::F32(x), VmValue::F32(y)) => {
            Ok(VmValue::F32(exec_fbin(op, x as f64, y as f64)? as f32))
        }
        (VmValue::Bool(x), VmValue::Bool(y)) => Ok(VmValue::Bool(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            BinOp::Xor => x != y,
            _ => return Err(ExecError::trap(TrapKind::Invalid, "arith on bool")),
        })),
        _ => Err(ExecError::trap(
            TrapKind::Invalid,
            format!("{} on mismatched operands", op.name()),
        )),
    }
}

fn exec_fbin(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
    fold::float_bin(op, x, y).ok_or_else(|| ExecError::trap(TrapKind::Invalid, "bitwise on float"))
}

#[inline(always)]
pub(crate) fn exec_cmp(pred: CmpPred, a: VmValue, b: VmValue) -> Result<bool, ExecError> {
    let ord = match (a, b) {
        (VmValue::Int { kind, v: x }, VmValue::Int { v: y, .. }) => Some(fold::int_ord(kind, x, y)),
        (VmValue::Bool(x), VmValue::Bool(y)) => Some(x.cmp(&y)),
        (VmValue::F32(x), VmValue::F32(y)) => x.partial_cmp(&y),
        (VmValue::F64(x), VmValue::F64(y)) => x.partial_cmp(&y),
        (VmValue::Ptr(x), VmValue::Ptr(y)) => Some(x.cmp(&y)),
        _ => return Err(ExecError::trap(TrapKind::Invalid, "mismatched comparison")),
    };
    Ok(fold::pred_holds(pred, ord))
}

pub(crate) fn exec_cast(
    tc: &lpat_core::TypeCtx,
    v: VmValue,
    to: TypeId,
) -> Result<VmValue, ExecError> {
    Ok(match (v, tc.ty(to)) {
        (VmValue::Int { v, .. }, Type::Int(k)) => VmValue::int(*k, v),
        (VmValue::Int { kind, v }, Type::F32) => VmValue::F32(fold::int_to_float(kind, v) as f32),
        (VmValue::Int { kind, v }, Type::F64) => VmValue::F64(fold::int_to_float(kind, v)),
        (VmValue::Int { v, .. }, Type::Bool) => VmValue::Bool(v != 0),
        (VmValue::Int { v, .. }, Type::Ptr(_)) => VmValue::Ptr(v as u32),
        (VmValue::Bool(b), Type::Int(k)) => VmValue::int(*k, b as i64),
        (VmValue::Bool(b), Type::Bool) => VmValue::Bool(b),
        (VmValue::F32(f), t) => cast_float(f as f64, t)?,
        (VmValue::F64(f), t) => cast_float(f, t)?,
        (VmValue::Ptr(p), Type::Ptr(_)) => VmValue::Ptr(p),
        (VmValue::Ptr(p), Type::Int(k)) => VmValue::int(*k, p as i64),
        (VmValue::Ptr(p), Type::Bool) => VmValue::Bool(p != 0),
        (v, t) => {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("unsupported cast of {v:?} to {t:?}"),
            ))
        }
    })
}

fn cast_float(f: f64, t: &Type) -> Result<VmValue, ExecError> {
    Ok(match t {
        Type::F32 => VmValue::F32(f as f32),
        Type::F64 => VmValue::F64(f),
        Type::Bool => VmValue::Bool(f != 0.0),
        Type::Int(k) => VmValue::Int {
            kind: *k,
            v: fold::float_to_int(*k, f),
        },
        other => {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("unsupported float cast to {other:?}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counter_names_align_with_opcode_table() {
        for (i, name) in OP_COUNTER_NAMES.iter().enumerate() {
            assert_eq!(
                name.strip_prefix("vm.op."),
                Some(Inst::opcode_mnemonic(i)),
                "counter name {i} out of sync with the opcode table"
            );
        }
    }
}
