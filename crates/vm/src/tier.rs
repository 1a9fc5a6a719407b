//! Tiered hot-path execution (paper §3.5's runtime optimizer, applied to
//! the execution engine itself).
//!
//! The paper's runtime model assumes execution *starts* cheap and
//! *becomes* fast: lightweight profiling identifies hot regions, which
//! are then handed to the native tier. This module is that adaptive
//! middle layer for the VM:
//!
//! * Every function starts in the **profiling interpreter**. A hotness
//!   counter per function sums its calls and its loop back-edges.
//! * When the counter *exceeds* `VmOptions::tier_up`, the function is
//!   **promoted**: translated to [`crate::jit::LowFunc`] form and run by
//!   the JIT dispatch loop from then on. If the current activation is
//!   interpreted when its function crosses the threshold on a back-edge,
//!   it is switched in place at the loop-header boundary (**on-stack
//!   replacement**) — hot loops in `main` get fast without waiting for a
//!   second call that never comes.
//! * A translation failure **demotes** the function permanently: it keeps
//!   interpreting, execution continues (pure-JIT mode instead fails the
//!   run, preserving its historical semantics).
//! * A function that stays hot on the JIT tier — `VmOptions::native_up`
//!   more calls and back-edges — is promoted again, to machine code
//!   ([`crate::native`]), its running activations switched at the next
//!   loop header. A refusal by that backend leaves it on the JIT tier for
//!   good (`NativeDemoted`; [`Vm::native_refusals`] says why).
//! * A speculation guard is a conditional branch on every rung: a failing
//!   one takes its else edge to the generic path in whatever tier the
//!   frame runs. Nothing is ever deoptimised.
//! * Interpreted and translated frames interleave freely on one call
//!   stack in both directions — interpreted caller → JIT'd callee,
//!   JIT'd caller → (cold) interpreted callee — including across
//!   `invoke`/`unwind`.
//! * [`Vm::warm_start`] seeds the tier decisions from a prior run's
//!   profile (the lifelong store's accumulated counts): functions already
//!   known hot are translated eagerly at load, closing the paper's
//!   "lifelong" loop at the execution layer.
//!
//! Observational identity: the tiered engine produces the same output,
//! return value, trap kind, fuel consumption, profile counters, and
//! opcode histogram as the reference interpreter at *any* threshold —
//! a differential suite in `tests/tiered.rs` pins this across the whole
//! workload suite.

use lpat_core::trace;
use lpat_core::{FuncId, Inst, InstId};

use crate::error::{ExecError, TrapKind};
use crate::interp::{Frame, StepResult, Vm};
use crate::jit::{Flow, JitFrame};
use crate::profile::ProfileData;
use crate::value::VmValue;

/// Per-function tier state: the promotion ladder is
/// `Cold → Hot → Native`, with a permanent demotion state at each rung.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TierCell {
    /// Interpreted; the payload is the hotness counter (calls +
    /// back-edges observed so far).
    Cold(u64),
    /// Promoted to the JIT tier: translated code exists in the cache and
    /// is used for every call (and, via OSR, for running interpreted
    /// activations). The payload is the *native* hotness counter —
    /// calls + back-edges observed while on this tier — driving the
    /// second promotion.
    Hot(u64),
    /// Promoted twice: single-pass machine code exists in the native
    /// cache and is used for every call whose arguments match the
    /// declared classes (others fall back to the JIT frame, per call).
    Native,
    /// JIT translation failed; permanently interpreted.
    Demoted,
    /// Native translation failed (`native.translate` fault or a backend
    /// bail); permanently on the JIT tier.
    NativeDemoted,
}

/// What an interpreter burst ended with. The burst holds a borrow of the
/// top frame, so the stack surgery happens in `mixed_loop`, where that
/// borrow is dead.
enum After {
    Call {
        target: FuncId,
        fixed: Vec<VmValue>,
        extra: Vec<VmValue>,
    },
    Ret(Option<VmValue>),
    Unwind,
    Osr,
}

/// How [`Vm::run_function_mixed`] picks a tier per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MixedMode {
    /// Every callee is interpreted: no counters, no promotion. This is
    /// the reference interpreter, `run_main`.
    InterpOnly,
    /// Every callee is translated on first call; translation failure is
    /// fatal. This is the classic `run_main_jit` engine.
    JitOnly,
    /// Counter-driven promotion with the configured thresholds.
    /// `native_up = None` disables the third tier.
    Tiered {
        threshold: u64,
        native_up: Option<u64>,
    },
}

/// A call-boundary tier decision.
#[derive(Clone, Copy, Debug)]
enum TierChoice {
    Interp,
    Jit,
    Native,
}

/// Tiered-execution statistics, kept outside the trace layer so wall
/// clock–dependent values (translation time) never leak into
/// byte-deterministic trace exports.
#[derive(Clone, Debug, Default)]
pub struct TierStats {
    /// Functions promoted interpreter → JIT at run time (includes
    /// warm-start promotions; `promoted - warmed` is the runtime count).
    pub promoted: u64,
    /// Functions demoted after a translation failure.
    pub demoted: u64,
    /// Functions promoted eagerly from a prior run's profile.
    pub warmed: u64,
    /// Interpreted activations switched to translated code mid-run at a
    /// loop header (on-stack replacement).
    pub osr: u64,
    /// Functions translated (JIT code-generation invocations).
    pub translated: u64,
    /// Instructions dispatched by the interpreter tier.
    pub interp_insts: u64,
    /// Instructions dispatched by the translated tier.
    pub jit_insts: u64,
    /// Wall-clock nanoseconds spent translating.
    pub translate_ns: u64,
    /// Functions promoted JIT → native machine code.
    pub native_promoted: u64,
    /// Functions demoted to the JIT tier after a native translation
    /// failure (backend bail or `native.translate` fault).
    pub native_demoted: u64,
    /// Activations switched JIT/interp → native mid-run at a loop header.
    pub native_osr: u64,
    /// Functions translated by the single-pass native backend.
    pub native_translated: u64,
    /// Instructions dispatched by the native (machine-code) tier.
    pub native_insts: u64,
    /// Wall-clock nanoseconds spent in the native backend.
    pub native_translate_ns: u64,
    /// Calls from machine code into machine code whose return landed in
    /// the caller's registers without leaving the native burst.
    pub native_calls: u64,
}

/// A frame on the mixed call stack: interpreted, translated, or native.
pub(crate) enum TFrame {
    I(Frame),
    J(JitFrame),
    N(crate::native::NatFrame),
}

/// Per-tier trace segments: one span per contiguous run of same-tier
/// execution, so a Perfetto timeline shows execution time migrating from
/// the interpreter to the JIT as promotions happen.
struct TierSegments {
    active: bool,
    cur: Option<(trace::Span, u8)>,
}

impl TierSegments {
    fn new(active: bool) -> TierSegments {
        TierSegments {
            active: active && trace::enabled(),
            cur: None,
        }
    }

    fn enter(&mut self, tier: u8) {
        if !self.active {
            return;
        }
        if let Some((_, k)) = &self.cur {
            if *k == tier {
                return;
            }
        }
        // Dropping the old span records its end before the new one opens.
        self.cur = None;
        let name = match tier {
            0 => "tier-interp",
            1 => "tier-jit",
            _ => "tier-native",
        };
        self.cur = Some((trace::span("vm", name), tier));
    }
}

impl<'m> Vm<'m> {
    /// Run `main()` under the tiered engine. Produces the same results as
    /// [`Vm::run_main`] at any `VmOptions::tier_up` threshold.
    pub fn run_main_tiered(&mut self) -> Result<i64, ExecError> {
        self.run_main_with("vm", "tiered @main", Vm::run_function_tiered)
    }

    /// Call `f` with `args` under the tiered engine.
    pub fn run_function_tiered(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        let threshold = self.opts.tier_up;
        let native_up = self.opts.native_up;
        self.run_function_mixed(
            f,
            args,
            MixedMode::Tiered {
                threshold,
                native_up,
            },
        )
    }

    /// Seed tier decisions from a prior run's profile (typically the
    /// lifelong store's accumulated counts): every function whose call
    /// count or hottest block count already exceeds the `tier_up`
    /// threshold is translated eagerly, so the run starts in the fast
    /// tier instead of re-warming — and one past `tier_up + native_up`
    /// climbs on to machine code. A failed translation demotes as it
    /// would at run time. Returns the number of functions warmed.
    pub fn warm_start(&mut self, profile: &ProfileData) -> usize {
        let _sp = trace::span("vm", "warm-start");
        let threshold = self.opts.tier_up;
        let native_threshold = self.opts.native_up.map(|n| threshold.saturating_add(n));
        let m = self.module();
        let nf = m.num_funcs();
        // One pass over the profile maps; per-function max hotness.
        let mut hotness = vec![0u64; nf];
        for (&(f, _), &c) in &profile.block_counts {
            if f.index() < nf {
                hotness[f.index()] = hotness[f.index()].max(c);
            }
        }
        for (&f, &c) in &profile.call_counts {
            if f.index() < nf {
                hotness[f.index()] = hotness[f.index()].max(c);
            }
        }
        let mut warmed = 0usize;
        // Function-index order: deterministic regardless of map order.
        for (i, &hot) in hotness.iter().enumerate() {
            let f = FuncId::from_index(i);
            if hot <= threshold
                || m.func(f).is_declaration()
                || !matches!(self.tier[i], TierCell::Cold(_))
            {
                continue;
            }
            if self.try_promote(f) {
                self.tier_stats.warmed += 1;
                warmed += 1;
                if native_threshold.is_some_and(|n| hot > n) {
                    self.try_promote_native(f);
                }
            }
        }
        warmed
    }

    /// The one engine loop: a single stack of interpreted, translated and
    /// native frames. `InterpOnly` is the reference interpreter, `JitOnly`
    /// the pure-JIT engine; `Tiered` adds counters, promotion, and OSR.
    pub(crate) fn run_function_mixed(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
        mode: MixedMode,
    ) -> Result<Option<VmValue>, ExecError> {
        self.tier_native_on = matches!(
            mode,
            MixedMode::Tiered {
                native_up: Some(_),
                ..
            }
        );
        self.pending_native_osr = None;
        let mut stack: Vec<TFrame> = Vec::new();
        let mut seg = TierSegments::new(matches!(mode, MixedMode::Tiered { .. }));
        let result = self
            .push_mixed(&mut stack, f, args, Vec::new(), mode)
            .and_then(|()| self.mixed_loop(&mut stack, mode, &mut seg));
        self.drain_counters();
        result
    }

    fn mixed_loop(
        &mut self,
        stack: &mut Vec<TFrame>,
        mode: MixedMode,
        seg: &mut TierSegments,
    ) -> Result<Option<VmValue>, ExecError> {
        'outer: loop {
            // A pending native OSR is only valid at the check directly
            // after the edge that set it; any other control transfer
            // drops it (the frame may no longer sit at a block boundary).
            self.pending_native_osr = None;
            let tier_top = match stack.last().expect("frame") {
                TFrame::I(_) => 0u8,
                TFrame::J(_) => 1,
                TFrame::N(_) => 2,
            };
            seg.enter(tier_top);
            if tier_top == 2 {
                // Native machine-code burst: runs native frames, calls and
                // returns between them included, until control leaves
                // machine code, unwinds, or traps.
                match crate::native::run_native_burst(self, stack)? {
                    Flow::Call {
                        target,
                        args,
                        varargs,
                        ..
                    } => {
                        // dst/eh already parked in the frame's typed
                        // pending slot by the burst loop.
                        self.push_mixed(stack, target, args, varargs, mode)?;
                        continue 'outer;
                    }
                    Flow::Ret(v) => {
                        if let Some(out) = self.deliver_return(stack, v)? {
                            return Ok(out);
                        }
                        continue 'outer;
                    }
                    Flow::Unwinding => {
                        self.deliver_unwind(stack)?;
                        continue 'outer;
                    }
                    Flow::Next => unreachable!("native bursts end at call/ret/unwind"),
                }
            } else if tier_top == 1 {
                let Some(TFrame::J(fr)) = stack.last_mut() else {
                    unreachable!()
                };
                let lf = fr.lf.clone();
                match crate::jit::jit_burst(self, fr, &lf)? {
                    Flow::Next => {
                        // A back-edge just promoted this function to
                        // machine code; the frame sits at the loop-header
                        // boundary, so switch now.
                        let block = self.pending_native_osr.take();
                        self.native_osr(stack, block);
                    }
                    Flow::Call {
                        target,
                        args,
                        varargs,
                        dst,
                        eh,
                    } => {
                        fr.pending = Some((dst, eh));
                        self.push_mixed(stack, target, args, varargs, mode)?;
                    }
                    Flow::Ret(v) => {
                        if let Some(out) = self.deliver_return(stack, v)? {
                            return Ok(out);
                        }
                    }
                    Flow::Unwinding => self.deliver_unwind(stack)?,
                }
            } else {
                let fr = match stack.last_mut().expect("frame") {
                    TFrame::I(fr) => fr,
                    _ => unreachable!(),
                };
                match self.interp_burst(fr, mode)? {
                    After::Call {
                        target,
                        fixed,
                        extra,
                    } => self.push_mixed(stack, target, fixed, extra, mode)?,
                    After::Ret(v) => {
                        if let Some(out) = self.deliver_return(stack, v)? {
                            return Ok(out);
                        }
                    }
                    After::Unwind => self.deliver_unwind(stack)?,
                    After::Osr => self.osr_any(stack)?,
                }
                continue 'outer;
            }
        }
    }

    /// Interpret the activation `fr` until it leaves its own frame: a
    /// call, a return, an unwind, or (tiered) a back-edge that finds the
    /// function hot. The function lookup and module access are hoisted
    /// out of the per-instruction loop (`fr.func` never changes within an
    /// activation). Kept out of line so that [`Vm::step`], inlined here,
    /// does not weigh on the translated tiers' dispatch in `mixed_loop`.
    #[inline(never)]
    fn interp_burst(&mut self, fr: &mut Frame, mode: MixedMode) -> Result<After, ExecError> {
        let func = self.module().func(fr.func);
        loop {
            let insts = func.block_insts(fr.block);
            if fr.idx >= insts.len() {
                return Err(ExecError::trap(
                    TrapKind::Invalid,
                    "fell off the end of a block",
                ));
            }
            let iid = insts[fr.idx];
            let block = fr.block;
            let fetched = func.inst(iid);
            if !matches!(fetched, Inst::Phi { .. }) {
                self.charge_interp(fetched.opcode_index())?;
            }
            match self.step(fr, block, iid, fetched)? {
                StepResult::Continue => fr.idx += 1,
                StepResult::Jumped => {
                    // A back-edge (jump to the same or an earlier block)
                    // marks a loop iteration: bump the hotness counter,
                    // and if the function has (or just got) translated
                    // code, switch this activation to it at the header
                    // (OSR). `NativeDemoted` counts: an activation that
                    // began interpreted while its function climbed past
                    // the JIT rung still has translated code to enter.
                    if let MixedMode::Tiered {
                        threshold,
                        native_up,
                    } = mode
                    {
                        if fr.block.index() <= block.index() {
                            let f = fr.func;
                            self.tier_bump(f, threshold, native_up);
                            if matches!(
                                self.tier[f.index()],
                                TierCell::Hot(_) | TierCell::Native | TierCell::NativeDemoted
                            ) {
                                return Ok(After::Osr);
                            }
                        }
                    }
                }
                StepResult::Call {
                    target,
                    fixed,
                    extra,
                } => {
                    return Ok(After::Call {
                        target,
                        fixed,
                        extra,
                    })
                }
                StepResult::Returned(v) => return Ok(After::Ret(v)),
                StepResult::Unwinding => return Ok(After::Unwind),
            }
        }
    }

    /// Push an activation for `f`, choosing the tier per `mode`.
    fn push_mixed(
        &mut self,
        stack: &mut Vec<TFrame>,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
        mode: MixedMode,
    ) -> Result<(), ExecError> {
        if stack.len() >= self.opts.max_stack {
            return Err(ExecError::trap(TrapKind::StackOverflow, "call depth"));
        }
        let choice = match mode {
            MixedMode::InterpOnly => TierChoice::Interp,
            MixedMode::JitOnly => TierChoice::Jit,
            MixedMode::Tiered {
                threshold,
                native_up,
            } => self.tier_decide_call(f, threshold, native_up),
        };
        match choice {
            TierChoice::Native => {
                let fr = self.native_frame_for(f, 0, &args, |_| None, &mut Vec::new())?;
                if let Some(fr) = fr {
                    if self.opts.profile {
                        self.counters.enter(self.module(), f);
                    }
                    stack.push(TFrame::N(fr));
                } else {
                    // An actual argument defies the declared class
                    // (possible only through mistyped indirect calls):
                    // the JIT frame represents any value, so this call
                    // runs one tier down.
                    let fr = self.make_jit_frame(f, args, varargs)?;
                    stack.push(TFrame::J(fr));
                }
            }
            TierChoice::Jit => {
                let fr = self.make_jit_frame(f, args, varargs)?;
                stack.push(TFrame::J(fr));
            }
            TierChoice::Interp => {
                let fr = self.make_frame(f, args, varargs)?;
                stack.push(TFrame::I(fr));
            }
        }
        Ok(())
    }

    /// Pop and recycle the top frame.
    fn pop_mixed(&mut self, stack: &mut Vec<TFrame>) -> Result<(), ExecError> {
        match stack.pop().expect("frame to pop") {
            TFrame::I(fr) => self.recycle_frame(fr),
            TFrame::J(fr) => self.recycle_jit_frame(fr),
            TFrame::N(mut fr) => self.recycle_native_frame(&mut fr),
        }
    }

    /// Pop the finished frame and deliver `v` to the caller (whatever its
    /// tier). Returns `Some(v)` when the popped frame was the outermost.
    fn deliver_return(
        &mut self,
        stack: &mut Vec<TFrame>,
        v: Option<VmValue>,
    ) -> Result<Option<Option<VmValue>>, ExecError> {
        self.pop_mixed(stack)?;
        let Some(parent) = stack.last_mut() else {
            return Ok(Some(v));
        };
        match parent {
            TFrame::I(fr) => {
                let site = fr.pending.take().expect("return into pending call");
                if let Some(v) = v {
                    fr.regs[site.index()] = Some(v);
                }
                // An invoke transfers to its normal successor; a call
                // continues in-line.
                let site_inst = self.module().func(fr.func).inst(site);
                if let Inst::Invoke { normal, .. } = site_inst {
                    let n = *normal;
                    let from = fr.block;
                    self.transfer(fr, from, n)?;
                } else {
                    fr.idx += 1;
                }
            }
            TFrame::J(fr) => {
                let (dst, eh) = fr.pending.take().expect("pending call");
                if let (Some(d), Some(v)) = (dst, v) {
                    fr.regs[d as usize] = v;
                }
                if let Some((normal, _)) = eh {
                    let lf = fr.lf.clone();
                    self.take_edge(fr, &lf, normal)?;
                }
            }
            TFrame::N(fr) => {
                let pending = fr.pending.take().expect("pending call");
                let v = v.map(|v| (crate::native::low32(&v), crate::native::class_of(&v)));
                crate::native::resume_native(self, fr, pending, v)?;
            }
        }
        Ok(None)
    }

    /// Unwind: pop frames until one is suspended on an `invoke`, then
    /// transfer to its unwind successor — across tiers.
    fn deliver_unwind(&mut self, stack: &mut Vec<TFrame>) -> Result<(), ExecError> {
        if trace::enabled() {
            if let Some(top) = stack.last() {
                let f = match top {
                    TFrame::I(fr) => fr.func,
                    TFrame::J(fr) => fr.func,
                    TFrame::N(fr) => fr.func,
                };
                let fname = self.module().func(f).name().to_string();
                trace::instant_args("vm", "unwind", vec![("from", fname)]);
            }
        }
        loop {
            self.pop_mixed(stack)?;
            let Some(parent) = stack.last_mut() else {
                return Err(ExecError::trap(
                    TrapKind::UncaughtUnwind,
                    "unwind reached the bottom of the stack",
                ));
            };
            match parent {
                TFrame::I(fr) => {
                    let site = fr.pending.take().expect("unwind into pending call");
                    let site_inst = self.module().func(fr.func).inst(site);
                    if let Inst::Invoke { unwind, .. } = site_inst {
                        let u = *unwind;
                        let from = fr.block;
                        self.transfer(fr, from, u)?;
                        return Ok(());
                    }
                    // A plain call: keep unwinding through it.
                }
                TFrame::J(fr) => {
                    let (_, eh) = fr.pending.take().expect("pending call");
                    if let Some((_, unwind)) = eh {
                        let lf = fr.lf.clone();
                        self.take_edge(fr, &lf, unwind)?;
                        return Ok(());
                    }
                }
                TFrame::N(fr) => {
                    let (_, eh) = fr.pending.take().expect("pending call");
                    if let Some((_, unwind)) = eh {
                        let code = fr.code.clone();
                        fr.pc = crate::native::take_nat_edge(self, fr, &code, unwind as usize);
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Tier decision at a call boundary: native functions run machine
    /// code, hot ones run translated, demoted ones interpret, cold ones
    /// bump their counter (a call is a hotness event) and may promote
    /// right here. A fresh JIT promotion immediately counts the same
    /// call toward native hotness, so `tier_up 0` + `native_up 0` runs
    /// everything native from the first call.
    fn tier_decide_call(
        &mut self,
        f: FuncId,
        threshold: u64,
        native_up: Option<u64>,
    ) -> TierChoice {
        match self.tier[f.index()] {
            TierCell::Native => TierChoice::Native,
            TierCell::NativeDemoted => TierChoice::Jit,
            TierCell::Demoted => TierChoice::Interp,
            TierCell::Hot(_) => {
                if self.native_call_bump(f, native_up) {
                    TierChoice::Native
                } else {
                    TierChoice::Jit
                }
            }
            TierCell::Cold(n) => {
                let n = n.saturating_add(1);
                self.tier[f.index()] = TierCell::Cold(n);
                if n > threshold && self.try_promote(f) {
                    if self.native_call_bump(f, native_up) {
                        TierChoice::Native
                    } else {
                        TierChoice::Jit
                    }
                } else {
                    TierChoice::Interp
                }
            }
        }
    }

    /// Count a hotness event against a JIT-tier function's native
    /// counter; promote to machine code when the threshold is crossed.
    /// Returns whether the function is on the native tier afterwards.
    fn native_call_bump(&mut self, f: FuncId, native_up: Option<u64>) -> bool {
        let Some(nu) = native_up else {
            return false;
        };
        if let TierCell::Hot(n) = self.tier[f.index()] {
            let n = n.saturating_add(1);
            self.tier[f.index()] = TierCell::Hot(n);
            if n > nu {
                return self.try_promote_native(f);
            }
        }
        matches!(self.tier[f.index()], TierCell::Native)
    }

    /// Bump `f`'s hotness counter for a loop back-edge; promote when the
    /// relevant threshold is crossed (cold → JIT, JIT → native).
    fn tier_bump(&mut self, f: FuncId, threshold: u64, native_up: Option<u64>) {
        match self.tier[f.index()] {
            TierCell::Cold(n) => {
                let n = n.saturating_add(1);
                self.tier[f.index()] = TierCell::Cold(n);
                if n > threshold {
                    self.try_promote(f);
                }
            }
            TierCell::Hot(_) => {
                self.native_call_bump(f, native_up);
            }
            _ => {}
        }
    }

    /// Translate `f` and mark it `Hot`; on failure mark it `Demoted` (it
    /// keeps interpreting). Returns whether the function is now hot.
    fn try_promote(&mut self, f: FuncId) -> bool {
        match self.ensure_translated(f) {
            Ok(_) => {
                self.tier[f.index()] = TierCell::Hot(0);
                self.tier_stats.promoted += 1;
                if trace::enabled() {
                    trace::instant_args(
                        "vm",
                        "tier-up",
                        vec![("function", self.module().func(f).name().to_string())],
                    );
                }
                true
            }
            Err(_) => {
                // `ensure_translated` already emitted the bail-to-interp
                // instant with the error.
                self.tier[f.index()] = TierCell::Demoted;
                self.tier_stats.demoted += 1;
                if trace::enabled() {
                    trace::instant_args(
                        "vm",
                        "tier-demote",
                        vec![("function", self.module().func(f).name().to_string())],
                    );
                }
                false
            }
        }
    }

    /// Translate `f` to machine code and mark it `Native`; on failure —
    /// a backend bail or an injected `native.translate` fault — mark it
    /// `NativeDemoted` (it stays on the JIT tier permanently, the
    /// program keeps running). Returns whether the function is native.
    fn try_promote_native(&mut self, f: FuncId) -> bool {
        match self.ensure_native_translated(f) {
            Ok(_) => {
                self.tier[f.index()] = TierCell::Native;
                self.tier_stats.native_promoted += 1;
                if trace::enabled() {
                    trace::instant_args(
                        "vm",
                        "tier-up-native",
                        vec![("function", self.module().func(f).name().to_string())],
                    );
                }
                true
            }
            Err(_) => {
                // `ensure_native_translated` already emitted the
                // bail-to-jit instant with the error, and kept the
                // reason for `Vm::native_refusals`.
                self.tier[f.index()] = TierCell::NativeDemoted;
                self.tier_stats.native_demoted += 1;
                if trace::enabled() {
                    trace::instant_args(
                        "vm",
                        "tier-demote-native",
                        vec![("function", self.module().func(f).name().to_string())],
                    );
                }
                false
            }
        }
    }

    /// Count a JIT-dispatched loop back-edge toward native promotion.
    /// Called from [`Vm::take_edge`] (gated on `tier_native_on`); when
    /// the function is — or just became — native, requests an OSR at
    /// `to_block`, consumed by the dispatch loop at the very next
    /// boundary check.
    pub(crate) fn native_backedge_bump(&mut self, f: FuncId, to_block: u32) {
        match self.tier[f.index()] {
            TierCell::Hot(_) => {
                let nu = self.opts.native_up;
                if self.native_call_bump(f, nu) {
                    self.pending_native_osr = Some(to_block);
                }
            }
            TierCell::Native => {
                // Promoted at a call boundary while this activation kept
                // running translated code: switch it at this loop header.
                self.pending_native_osr = Some(to_block);
            }
            _ => {}
        }
    }

    /// OSR dispatch for an interpreted frame whose function moved up the
    /// ladder: native if possible, JIT otherwise.
    fn osr_any(&mut self, stack: &mut [TFrame]) -> Result<(), ExecError> {
        let f = match stack.last().expect("frame") {
            TFrame::I(fr) => fr.func,
            _ => return Ok(()),
        };
        if matches!(self.tier[f.index()], TierCell::Native) && self.native_osr(stack, None) {
            return Ok(());
        }
        self.osr_enter(stack)
    }

    /// On-stack replacement into machine code of the interpreted top frame
    /// at its block boundary (`idx == 0`) or the translated one at the
    /// `block` a back-edge just landed on. `false`, frame untouched, when
    /// an argument's class defies the signature or translation fails:
    /// machine code is an optimization, never a semantic requirement.
    fn native_osr(&mut self, stack: &mut [TFrame], block: Option<u32>) -> bool {
        let top = stack.last_mut().expect("frame");
        let nf = match top {
            TFrame::I(fr) => {
                debug_assert_eq!(fr.idx, 0, "OSR only at a block boundary");
                let reg = |i: InstId| fr.regs[i.index()];
                self.native_frame_for(fr.func, fr.block.index(), &fr.args, reg, &mut fr.allocas)
            }
            TFrame::J(fr) => {
                let (reg, b) = (
                    |i: InstId| Some(fr.regs[i.index()]),
                    block.expect("OSR block"),
                );
                self.native_frame_for(fr.func, b as usize, &fr.args, reg, &mut fr.allocas)
            }
            TFrame::N(_) => return false,
        };
        let Ok(Some(nf)) = nf else {
            return false;
        };
        self.tier_stats.native_osr += 1;
        if trace::enabled() {
            trace::instant_args(
                "vm",
                "tier-osr-native",
                vec![("function", self.module().func(nf.func).name().to_string())],
            );
        }
        *top = TFrame::N(nf);
        true
    }

    /// On-stack replacement: the top frame must be interpreted, sitting
    /// at a block boundary (`idx == 0`, right after a `transfer`), and
    /// its function must have translated code. The frame is rebuilt in
    /// translated form at the same block: φs were already executed by the
    /// transfer, so entering at the block's first non-φ pc with the
    /// registers copied over is state-identical. Register indices are the
    /// same in both forms (an instruction's `InstId` index); a register
    /// never assigned reads `Ptr(0)` in the dense form, which is
    /// unobservable because definitions dominate uses.
    fn osr_enter(&mut self, stack: &mut [TFrame]) -> Result<(), ExecError> {
        let top = stack.last_mut().expect("frame");
        let TFrame::I(fr) = top else {
            return Ok(());
        };
        debug_assert_eq!(fr.idx, 0, "OSR only at a block boundary");
        let Some(lf) = self.jit_cache[fr.func.index()].clone() else {
            return Ok(());
        };
        let mut regs = self.jit_reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(lf.n_regs, VmValue::Ptr(0));
        for (slot, r) in regs.iter_mut().zip(&fr.regs) {
            if let Some(v) = r {
                *slot = *v;
            }
        }
        let pc = lf.block_pc[fr.block.index()];
        let jfr = JitFrame {
            func: fr.func,
            lf,
            regs,
            args: std::mem::take(&mut fr.args),
            varargs: std::mem::take(&mut fr.varargs),
            va_next: fr.va_next,
            pc,
            allocas: std::mem::take(&mut fr.allocas),
            pending: None,
        };
        let mut old_regs = std::mem::take(&mut fr.regs);
        old_regs.clear();
        self.interp_reg_pool.push(old_regs);
        self.tier_stats.osr += 1;
        if trace::enabled() {
            trace::instant_args(
                "vm",
                "tier-osr",
                vec![("function", self.module().func(jfr.func).name().to_string())],
            );
        }
        *stack.last_mut().expect("frame") = TFrame::J(jfr);
        Ok(())
    }
}

impl TierStats {
    /// Human-readable tier table for `--stats`.
    pub fn render(&self) -> String {
        let total = self.interp_insts + self.jit_insts + self.native_insts;
        let pct = |n: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            }
        };
        let mut s = String::new();
        s.push_str(&format!(
            "  interp insts    {:>12}  ({:.1}%)\n",
            self.interp_insts,
            pct(self.interp_insts)
        ));
        s.push_str(&format!(
            "  jit insts       {:>12}  ({:.1}%)\n",
            self.jit_insts,
            pct(self.jit_insts)
        ));
        s.push_str(&format!(
            "  native insts    {:>12}  ({:.1}%)\n",
            self.native_insts,
            pct(self.native_insts)
        ));
        s.push_str(&format!(
            "  promoted        {:>12}  (warm-start {}, osr {})\n",
            self.promoted, self.warmed, self.osr
        ));
        s.push_str(&format!("  demoted         {:>12}\n", self.demoted));
        s.push_str(&format!(
            "  translated      {:>12}  ({} us)\n",
            self.translated,
            self.translate_ns / 1_000
        ));
        s.push_str(&format!(
            "  native promoted {:>12}  (osr {})\n",
            self.native_promoted, self.native_osr
        ));
        s.push_str(&format!("  native demoted  {:>12}\n", self.native_demoted));
        s.push_str(&format!(
            "  native compiled {:>12}  ({} us)\n",
            self.native_translated,
            self.native_translate_ns / 1_000
        ));
        s.push_str(&format!("  native calls    {:>12}\n", self.native_calls));
        s
    }
}
