//! Tiered execution: one engine loop over interpreted, translated and
//! machine-code frames.
//!
//! The paper's execution engine translates a function on its first call
//! (§3.4). The tiered engine does the same, with one decision per
//! function, made at that call and never revised:
//!
//! * **machine code** ([`crate::native`]) when the single-pass backend
//!   (`lpat_codegen::fast`) accepts the function;
//! * else the **JIT** ([`crate::jit::LowFunc`]), which handles every type
//!   (floats, full 64-bit values, varargs);
//! * else — only when the JIT translation faults — the **interpreter**.
//!
//! A frame never changes tier while it runs, so a native frame is always
//! entered at its function's entry block with its arguments in their
//! homes. The one per-call exception: a native function called with an
//! argument whose class defies its signature (only a mistyped indirect
//! call can do that) runs that call on the JIT, which represents any
//! value. [`Vm::native_refusals`] says why a function is not machine code.
//!
//! * A speculation guard is a conditional branch on every tier: a failing
//!   one takes its else edge to the generic path in whatever tier the
//!   frame runs. Nothing is ever deoptimised.
//! * Frames of all three tiers interleave freely on one call stack, in
//!   both directions and across `invoke`/`unwind`.
//!
//! Observational identity: the tiered engine produces the same output,
//! return value, trap kind, fuel consumption, profile counters, and
//! opcode histogram as the reference interpreter — a differential suite
//! in `tests/tiered.rs` pins this across the whole workload suite and
//! under injected translation faults.

use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use lpat_core::trace;
use lpat_core::{FuncId, Inst};

use crate::error::{ExecError, TrapKind};
use crate::interp::{Frame, StepResult, Vm};
use crate::jit::{Flow, JitFrame, LowFunc};
use crate::native::{NatBody, NatCode, NativeSlot};
use crate::profile::ProfileData;
use crate::value::VmValue;

/// The tier a function runs on, decided at its first call under the
/// tiered engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    Interp,
    Jit,
    Native,
}

/// A function's tier decision with the code it decided on, as any engine
/// running the same module under the same address layout can take it
/// over instead of translating again.
enum Decided {
    /// Machine code.
    Native(NatBody),
    /// The native backend refused the function for `refusal`; its JIT
    /// code, or `None` when that translation failed too (interpreted).
    Lower {
        refusal: String,
        jit: Option<LowFunc>,
    },
}

/// The tier decisions of one module's functions, shared by every engine
/// that runs the module (a `crate::session::ModuleCache` entry holds
/// one): filled by whichever engine calls a function first, then copied
/// by the others at their first call. Translation reads the module and
/// the global addresses (`FastEnv`, `Vm::const_value`), so the table is
/// tied to the layout of the first engine that joins it; an engine laid
/// out otherwise translates for itself.
pub(crate) struct TierCode {
    layout: OnceLock<Vec<u32>>,
    funcs: Box<[OnceLock<Decided>]>,
}

impl TierCode {
    /// An empty table for a module of `n_funcs` functions.
    pub(crate) fn new(n_funcs: usize) -> TierCode {
        TierCode {
            layout: OnceLock::new(),
            funcs: (0..n_funcs).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// How [`Vm::run_function_mixed`] picks a tier per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MixedMode {
    /// Every callee is interpreted. This is the reference interpreter,
    /// `run_main`.
    InterpOnly,
    /// Every callee is translated on first call; translation failure is
    /// fatal. This is the `run_main_jit` engine.
    JitOnly,
    /// Each function on the tier decided at its first call.
    Tiered,
}

/// Tiered-execution statistics, kept outside the trace layer so wall
/// clock–dependent values (translation time) never leak into
/// byte-deterministic trace exports.
#[derive(Clone, Debug, Default)]
pub struct TierStats {
    /// Functions the tiered engine put on the JIT tier (the native
    /// backend refused them).
    pub promoted: u64,
    /// Functions the tiered engine put on the interpreter: their JIT
    /// translation failed too.
    pub demoted: u64,
    /// Always 0: no frame changes tier while it runs. Kept only because
    /// the benchmark (`lpbench/`) reads it; ROADMAP 1(b) deletes it.
    pub osr: u64,
    /// Functions translated (JIT code-generation invocations).
    pub translated: u64,
    /// Instructions dispatched by the interpreter tier.
    pub interp_insts: u64,
    /// Instructions dispatched by the translated tier.
    pub jit_insts: u64,
    /// Wall-clock nanoseconds spent translating.
    pub translate_ns: u64,
    /// Functions the tiered engine put on machine code.
    pub native_promoted: u64,
    /// Functions the native backend refused (a bail or a
    /// `native.translate` fault).
    pub native_demoted: u64,
    /// Always 0, like [`TierStats::osr`], and kept for the same reason.
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
/// execution, so a Perfetto timeline shows where execution time goes
/// between the tiers.
struct TierSegments {
    active: bool,
    cur: Option<(trace::Span, Tier)>,
}

impl TierSegments {
    fn new(active: bool) -> TierSegments {
        TierSegments {
            active: active && trace::enabled(),
            cur: None,
        }
    }

    fn enter(&mut self, tier: Tier) {
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
            Tier::Interp => "tier-interp",
            Tier::Jit => "tier-jit",
            Tier::Native => "tier-native",
        };
        self.cur = Some((trace::span("vm", name), tier));
    }
}

impl<'m> Vm<'m> {
    /// Run `main()` under the tiered engine. Produces the same results as
    /// [`Vm::run_main`].
    pub fn run_main_tiered(&mut self) -> Result<i64, ExecError> {
        self.run_main_with("vm", "tiered @main", Vm::run_function_tiered)
    }

    /// Call `f` with `args` under the tiered engine.
    pub fn run_function_tiered(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        self.run_function_mixed(f, args, MixedMode::Tiered)
    }

    /// Does nothing and returns 0: a function's tier is decided at its
    /// first call, so a prior profile has nothing to warm. Kept only
    /// because the benchmark (`lpbench/`) calls it; ROADMAP 1(b) deletes
    /// it.
    pub fn warm_start(&mut self, _profile: &ProfileData) -> usize {
        0
    }

    /// The one engine loop: a single stack of interpreted, translated and
    /// native frames. `InterpOnly` is the reference interpreter, `JitOnly`
    /// the pure-JIT engine, `Tiered` the first-call tier decision.
    pub(crate) fn run_function_mixed(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
        mode: MixedMode,
    ) -> Result<Option<VmValue>, ExecError> {
        let mut stack: Vec<TFrame> = Vec::new();
        let mut seg = TierSegments::new(mode == MixedMode::Tiered);
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
        loop {
            // Each burst runs the top frame (native bursts: native frames,
            // calls and returns between them included) until control
            // calls out of it, returns, unwinds, or traps.
            let flow = match stack.last_mut().expect("frame") {
                TFrame::N(_) => {
                    seg.enter(Tier::Native);
                    // dst/eh of a call are already parked in the frame's
                    // typed pending slot by the burst loop.
                    crate::native::run_native_burst(self, stack)?
                }
                TFrame::J(fr) => {
                    seg.enter(Tier::Jit);
                    let lf = fr.lf.clone();
                    let flow = crate::jit::jit_burst(self, fr, &lf)?;
                    if let Flow::Call { dst, eh, .. } = flow {
                        fr.pending = Some((dst, eh));
                    }
                    flow
                }
                TFrame::I(fr) => {
                    seg.enter(Tier::Interp);
                    self.interp_burst(fr)?
                }
            };
            match flow {
                Flow::Call {
                    target,
                    args,
                    varargs,
                    ..
                } => self.push_mixed(stack, target, args, varargs, mode)?,
                Flow::Ret(v) => {
                    if let Some(out) = self.deliver_return(stack, v)? {
                        return Ok(out);
                    }
                }
                Flow::Unwinding => self.deliver_unwind(stack)?,
                Flow::Next => unreachable!("bursts end at a call, a return or an unwind"),
            }
        }
    }

    /// Interpret the activation `fr` until it leaves its own frame: a
    /// call, a return or an unwind. The function lookup and module access
    /// are hoisted out of the per-instruction loop (`fr.func` never
    /// changes within an activation). Kept out of line so that
    /// [`Vm::step`], inlined here, does not weigh on the translated tiers'
    /// dispatch in `mixed_loop`.
    #[inline(never)]
    fn interp_burst(&mut self, fr: &mut Frame) -> Result<Flow, ExecError> {
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
                StepResult::Jumped => {}
                StepResult::Call {
                    target,
                    fixed,
                    extra,
                } => {
                    return Ok(Flow::Call {
                        target,
                        args: fixed,
                        varargs: extra,
                        dst: None,
                        eh: None,
                    })
                }
                StepResult::Returned(v) => return Ok(Flow::Ret(v)),
                StepResult::Unwinding => return Ok(Flow::Unwinding),
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
        let tier = match mode {
            MixedMode::InterpOnly => Tier::Interp,
            MixedMode::JitOnly => Tier::Jit,
            MixedMode::Tiered => self.tier_of(f),
        };
        let frame = match tier {
            Tier::Native => match self.native_frame_for(f, &args) {
                Some(fr) => {
                    if self.opts.profile {
                        self.counters.enter(self.module(), f);
                    }
                    TFrame::N(fr)
                }
                // An actual argument defies the declared class (possible
                // only through mistyped indirect calls): the JIT frame
                // represents any value, so this call runs there.
                None => TFrame::J(self.make_jit_frame(f, args, varargs)?),
            },
            Tier::Jit => TFrame::J(self.make_jit_frame(f, args, varargs)?),
            Tier::Interp => TFrame::I(self.make_frame(f, args, varargs)?),
        };
        stack.push(frame);
        Ok(())
    }

    /// Take `f`'s tier decisions from `code` (and publish this engine's
    /// own into it) when this engine's globals are laid out as the
    /// table's are. Before the first run.
    pub(crate) fn share_tiers(&mut self, code: &Arc<TierCode>) {
        let layout = code.layout.get_or_init(|| self.global_addrs.clone());
        if *layout == self.global_addrs {
            self.shared_tiers = Some(code.clone());
        }
    }

    /// `f`'s tier, decided at its first call and kept: machine code when
    /// the native backend accepts it, else the JIT, else — its JIT
    /// translation faulted — the interpreter. A decision already in the
    /// shared table is copied, not translated again.
    fn tier_of(&mut self, f: FuncId) -> Tier {
        if let Some(tier) = self.tier[f.index()] {
            return tier;
        }
        let shared = self.shared_tiers.clone();
        let tier = match shared.as_ref().and_then(|c| c.funcs[f.index()].get()) {
            Some(decided) => self.adopt(f, decided),
            None => {
                let tier = self.translate_tier(f);
                if let Some(code) = &shared {
                    let _ = code.funcs[f.index()].set(self.decided(f));
                }
                tier
            }
        };
        match tier {
            Tier::Native => self.tier_stats.native_promoted += 1,
            Tier::Jit => {
                self.tier_stats.native_demoted += 1;
                self.tier_stats.promoted += 1;
            }
            Tier::Interp => {
                self.tier_stats.native_demoted += 1;
                self.tier_stats.demoted += 1;
            }
        }
        if trace::enabled() {
            let name = match tier {
                Tier::Interp => "interp",
                Tier::Jit => "jit",
                Tier::Native => "native",
            };
            trace::instant_args(
                "vm",
                "tier",
                vec![
                    ("function", self.module().func(f).name().to_string()),
                    ("tier", name.to_string()),
                ],
            );
        }
        self.tier[f.index()] = Some(tier);
        tier
    }

    /// Translate `f` for its tier: the translators emit the bail instants
    /// with the error and keep the native backend's reason for
    /// [`Vm::native_refusals`].
    fn translate_tier(&mut self, f: FuncId) -> Tier {
        if self.native_translate(f) {
            Tier::Native
        } else if self.ensure_translated(f).is_ok() {
            Tier::Jit
        } else {
            Tier::Interp
        }
    }

    /// This engine's decision for `f`, as the shared table keeps it.
    fn decided(&self, f: FuncId) -> Decided {
        match &self.native_cache[f.index()] {
            NativeSlot::Code(code) => Decided::Native(code.body().clone()),
            NativeSlot::Refused(refusal) => Decided::Lower {
                refusal: refusal.clone(),
                jit: self.jit_cache[f.index()].as_deref().cloned(),
            },
            NativeSlot::Untried => unreachable!("a decided function was offered to the backend"),
        }
    }

    /// Copy a shared decision for `f` into this engine's own slots.
    fn adopt(&mut self, f: FuncId, decided: &Decided) -> Tier {
        match decided {
            Decided::Native(body) => {
                self.native_cache[f.index()] =
                    NativeSlot::Code(Rc::new(NatCode::new(body.clone())));
                Tier::Native
            }
            Decided::Lower { refusal, jit } => {
                self.native_cache[f.index()] = NativeSlot::Refused(refusal.clone());
                match jit {
                    Some(lf) => {
                        self.jit_cache[f.index()] = Some(Rc::new(lf.clone()));
                        Tier::Jit
                    }
                    None => Tier::Interp,
                }
            }
        }
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
        for (label, n) in [
            ("interp insts", self.interp_insts),
            ("jit insts", self.jit_insts),
            ("native insts", self.native_insts),
        ] {
            s.push_str(&format!("  {label:<15} {n:>12}  ({:.1}%)\n", pct(n)));
        }
        s.push_str(&format!("  promoted        {:>12}\n", self.promoted));
        s.push_str(&format!("  demoted         {:>12}\n", self.demoted));
        s.push_str(&format!(
            "  translated      {:>12}  ({} us)\n",
            self.translated,
            self.translate_ns / 1_000
        ));
        s.push_str(&format!("  native promoted {:>12}\n", self.native_promoted));
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
