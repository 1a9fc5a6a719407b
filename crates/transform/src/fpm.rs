//! The function-pass layer: per-function transformations and the
//! executor that runs them over a whole module.
//!
//! A [`FunctionPass`] sees one function at a time through a [`FuncUnit`] —
//! the function body plus the module's type/constant pools and the cached
//! analyses of that function. A [`FunctionPassAdapter`] runs its pipeline
//! over the module's functions one at a time, in index order, on the
//! calling thread, as the paper's optimizer does (§3.2–3.3). Each unit
//! interns straight into the module's pools, so function N sees the
//! entries functions 0..N-1 added, and the output is a function of the
//! input module alone: two runs give the same bytes.
//!
//! # Fault isolation
//!
//! Each per-function unit is its own isolation domain with **one**
//! rollback point: the function as it entered the stage, held as a clone
//! (a [`Function`] clone shares the body, so holding it costs nothing
//! until a sub-pass writes, and then one body copy for the whole stage),
//! and the lengths the two pools had when *that unit* began. Every
//! sub-pass runs under `catch_unwind`; when one panics the adapter goes
//! back to the unit's entry state — function restored, pools truncated to
//! the unit's own lengths (what earlier units interned stays), the
//! function's analysis slot invalidated — and *replays* the
//! sub-passes that had already succeeded, records a [`PassFault`], and
//! carries on: the other functions and the rest of the pipeline are
//! unaffected. Replay is exact because a sub-pass is a deterministic
//! function of the unit: from the same state it interns the same pool
//! entries under the same ids and leaves the same body, so the unit ends
//! up byte for byte where skipping the faulted sub-pass would have left
//! it. The price of a rollback is paid by the unit that faults, not as a
//! body copy before every sub-pass of every unit. (A replayed sub-pass
//! counts its work in its `stats()` line a second time.)
//!
//! Injected faults name units by ordinal: before the first unit runs, the
//! adapter reserves one hit ordinal per function for each sub-pass
//! ([`FaultPlan::reserve`]), and unit `idx` evaluates `base + idx`
//! ([`FaultPlan::fires_at`]). Ordinal N of a pass occurrence is therefore
//! function N of the module, whatever earlier units did, and an `abort`
//! spec there acts as a panic the unit's rollback absorbs.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use lpat_analysis::{CacheStats, FuncAnalyses, PreservedAnalyses};
use lpat_core::fault::{FaultAction, FaultPlan};
use lpat_core::trace;
use lpat_core::{
    body_copies, AddrTypeTable, ConstId, ConstPool, Function, Module, TypeCtx, TypeId, Value,
};

use crate::pm::{
    panic_message, FaultCause, FuncTiming, ModulePass, PassContext, PassDetails, PassEffect,
    PassExecution, PassFault,
};

/// Everything a function-local transformation may read or write: the
/// function body, the module's interning pools, the address-type side
/// table, and the function's cached analyses.
pub struct FuncUnit<'a> {
    /// The module's type context.
    pub types: &'a mut TypeCtx,
    /// The module's constant pool.
    pub consts: &'a mut ConstPool,
    /// The function being transformed.
    pub func: &'a mut Function,
    /// Types of global/function addresses (immutable during a stage).
    pub info: &'a AddrTypeTable,
    /// This function's analysis cache slot.
    pub analyses: &'a mut FuncAnalyses,
}

impl FuncUnit<'_> {
    /// The type of `v` in this function (the unit-level counterpart of
    /// `Module::value_type`).
    pub fn value_type(&self, v: Value) -> TypeId {
        self.info.value_type(self.types, self.consts, self.func, v)
    }

    /// The type of constant `c` (resolving global/function addresses).
    pub fn const_type(&self, c: ConstId) -> TypeId {
        self.info.const_type(self.types, self.consts, c)
    }
}

/// Build a one-off [`FuncUnit`] for `fid` — the module's pools, a fresh
/// analysis slot — and run `body` against it. This is the module-level
/// compatibility entry the `*_function(m, fid)` helpers use.
pub fn with_unit<R>(
    m: &mut Module,
    fid: lpat_core::FuncId,
    body: impl FnOnce(&mut FuncUnit<'_>) -> R,
) -> R {
    let info = m.addr_type_table();
    let idx = fid.index();
    let (types, consts, funcs) = m.split_mut();
    let mut fa = FuncAnalyses::default();
    let mut u = FuncUnit {
        types,
        consts,
        func: &mut funcs[idx],
        info: &info,
        analyses: &mut fa,
    };
    body(&mut u)
}

/// An intra-procedural transformation. One pass instance runs over every
/// function of a stage in turn and may accumulate statistics in itself.
pub trait FunctionPass {
    /// Short, stable pass name (`gvn`, `mem2reg`, ...).
    fn name(&self) -> &'static str;
    /// Transform one function.
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect;
    /// A human-readable statistics line aggregated over all functions.
    fn stats(&self) -> String {
        String::new()
    }
}

/// The fault plan each per-function unit runs under.
struct UnitExec<'a> {
    plan: Option<&'a FaultPlan>,
    /// Reserved 1-based hit-ordinal base per sub-pass (aligned with the
    /// pass list; empty when no plan is active).
    bases: &'a [u64],
}

/// Runs a pipeline of [`FunctionPass`]es over every function of a module,
/// one function at a time. Implements [`ModulePass`], so it slots into a
/// [`crate::pm::PassManager`] between interprocedural passes.
pub struct FunctionPassAdapter {
    name: &'static str,
    passes: Vec<Box<dyn FunctionPass>>,
    details: PassDetails,
}

impl FunctionPassAdapter {
    /// An empty adapter with a display name for reports.
    pub fn new(name: &'static str) -> FunctionPassAdapter {
        FunctionPassAdapter {
            name,
            passes: Vec::new(),
            details: PassDetails::default(),
        }
    }

    /// Append a function pass (builder style; named after LLVM's
    /// `PassManager::add`, not `std::ops::Add`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, p: impl FunctionPass + 'static) -> FunctionPassAdapter {
        self.passes.push(Box::new(p));
        self
    }

    /// Number of function passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }
}

impl ModulePass for FunctionPassAdapter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let info = m.addr_type_table();
        let num = m.num_funcs();
        let slots = cx.am.func_slots(num);
        let (types, consts, funcs) = m.split_mut();

        // Reserve a contiguous hit-ordinal block per sub-pass before the
        // first unit runs: unit `idx` of pass `pi` evaluates ordinal
        // `bases[pi] + idx`, so which unit a `@N` spec hits is a pure
        // function of function order.
        let plan = cx.faults.as_deref();
        let bases: Vec<u64> = match plan {
            Some(pl) => self
                .passes
                .iter()
                .map(|p| pl.reserve(p.name(), num as u64))
                .collect(),
            None => Vec::new(),
        };
        let exec = UnitExec {
            plan,
            bases: &bases,
        };

        let mut details = PassDetails {
            sub: self
                .passes
                .iter()
                .map(|p| PassExecution {
                    name: p.name(),
                    duration: Duration::ZERO,
                    changed: false,
                    stats: String::new(),
                    cache: CacheStats::default(),
                    copied_funcs: 0,
                    copied_insts: 0,
                    sub: Vec::new(),
                    functions: Vec::new(),
                })
                .collect(),
            functions: Vec::with_capacity(num),
            faults: Vec::new(),
        };
        let mut cg_preserved = true;
        for (idx, (f, fa)) in funcs.iter_mut().zip(slots.iter_mut()).enumerate() {
            let mut u = FuncUnit {
                types: &mut *types,
                consts: &mut *consts,
                func: f,
                info: &info,
                analyses: fa,
            };
            cg_preserved &= run_pipeline_on(&mut self.passes, &mut u, idx, &exec, &mut details);
        }
        for (row, p) in details.sub.iter_mut().zip(&self.passes) {
            row.stats = p.stats();
        }
        let any_changed = details.functions.iter().any(|f| f.changed);
        self.details = details;

        // `cfg: true` here means "the manager's per-function slots are
        // already consistent": each slot was updated (re-stamped or
        // dropped) by the per-pass `FuncAnalyses::apply` inside the run.
        PassEffect::from_change(
            any_changed,
            PreservedAnalyses {
                cfg: true,
                call_graph: cg_preserved,
            },
        )
    }

    fn stats(&self) -> String {
        format!("{} function passes", self.passes.len())
    }

    fn take_details(&mut self) -> PassDetails {
        std::mem::take(&mut self.details)
    }
}

/// Run the whole pass pipeline over unit `idx`, adding each sub-pass's
/// time, change flag, cache traffic and rollback-point cost to its row of
/// `d.sub`, the function's row to `d.functions`, and any isolated fault to
/// `d.faults`. Returns whether every sub-pass that changed the function
/// kept the call graph.
///
/// Each sub-pass is an isolation domain, and the whole unit has one
/// rollback point: the function as it entered the stage (a clone, so it
/// shares the body until a sub-pass writes) and the pool lengths the unit
/// began with. A sub-pass that panics is undone by going back to that
/// point and running the sub-passes that had succeeded again ([`replay`]);
/// a fault row is recorded instead of unwinding.
fn run_pipeline_on(
    passes: &mut [Box<dyn FunctionPass>],
    u: &mut FuncUnit<'_>,
    idx: usize,
    exec: &UnitExec<'_>,
    d: &mut PassDetails,
) -> bool {
    let (ty_base, c_base) = (u.types.len(), u.consts.len());
    let mut timing = FuncTiming {
        name: u.func.name().to_string(),
        duration: Duration::ZERO,
        changed: false,
    };
    let mut cg_preserved = true;
    // The unit's one rollback point, and the sub-passes to run again after
    // going back to it: `(index, left a simulated miscompile behind)`.
    let entry = u.func.clone();
    let mut done: Vec<(usize, bool)> = Vec::new();
    for pi in 0..passes.len() {
        let name = passes[pi].name();
        // `bases` is only indexed under an active plan, where it is
        // aligned with `passes`.
        let injected = exec
            .plan
            .and_then(|pl| pl.fires_at(name, exec.bases[pi] + idx as u64));
        let s0 = u.analyses.stats();
        let copies0 = body_copies();
        // One stopwatch: the span's duration is the row's elapsed time.
        let mut sp = trace::span(
            "fpass",
            if trace::enabled() {
                Cow::Owned(format!("{name} @{}", timing.name))
            } else {
                Cow::Borrowed(name)
            },
        );
        let p = passes[pi].as_mut();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_unit(p, u, injected)));
        let elapsed = sp.stop();
        let mut fault = None;
        let mut changed = false;
        match outcome {
            Ok(eff) => {
                // The analysis caches take "same version" to mean "same
                // function"; hold the passes to it.
                debug_assert!(
                    entry.version() != u.func.version() || entry == *u.func,
                    "pass '{name}' changed @{} without moving its version",
                    timing.name,
                );
                u.analyses.apply(&eff.preserved, u.func.version());
                changed = eff.changed;
                cg_preserved &= eff.preserved.call_graph || !eff.changed;
                done.push((pi, injected == Some(FaultAction::Corrupt)));
            }
            Err(payload) => fault = Some(FaultCause::Panic(panic_message(payload.as_ref()))),
        }
        sp.arg("changed", if changed { "true" } else { "false" });
        if let Some(cause) = &fault {
            sp.arg("fault", cause.to_string());
        }
        drop(sp);
        if let Some(cause) = fault {
            *u.func = entry.clone();
            u.types.truncate(ty_base);
            u.consts.truncate(c_base);
            // The restored function reuses version numbers the faulted
            // pass already bumped past; cached entries stamped during it
            // could ABA-collide with future versions. Drop the slot.
            u.analyses.invalidate();
            replay(passes, &done, u);
            d.faults.push(PassFault {
                pass: name.to_string(),
                function: Some(timing.name.clone()),
                cause,
                elapsed,
            });
        }
        let row = &mut d.sub[pi];
        let copied = body_copies() - copies0;
        row.duration += elapsed;
        row.changed |= changed;
        row.cache.add(u.analyses.stats() - s0);
        row.copied_funcs += copied.funcs;
        row.copied_insts += copied.insts;
        timing.duration += elapsed;
        timing.changed |= changed;
    }
    d.functions.push(timing);
    cg_preserved
}

/// Bring a unit that was just put back to its entry state (function
/// restored, pools truncated to the unit's base) forward again through
/// the sub-passes `done`, which ran to completion before the fault. A
/// pass is a deterministic function of the unit, so running them again
/// from the same state interns the same pool entries under the same ids
/// and leaves the body they left: exactly the pipeline without the
/// faulted sub-pass. No panic or delay is injected (a simulated
/// miscompile one of them left behind is left behind again), nothing is
/// timed or traced: these runs already happened and were reported.
fn replay(passes: &mut [Box<dyn FunctionPass>], done: &[(usize, bool)], u: &mut FuncUnit<'_>) {
    for &(qi, corrupt) in done {
        let injected = corrupt.then_some(FaultAction::Corrupt);
        let eff = run_unit(passes[qi].as_mut(), u, injected);
        u.analyses.apply(&eff.preserved, u.func.version());
    }
}

/// Execute one sub-pass on one function, manifesting any injected fault:
/// `panic` panics here (inside the unit's `catch_unwind`), `delay` sleeps
/// inside the timed region (only the row's time shows it), and `corrupt`
/// leaves a terminator-less block behind *after* the pass — a simulated
/// miscompile for module-level `--verify-each` to catch.
fn run_unit(
    p: &mut dyn FunctionPass,
    u: &mut FuncUnit<'_>,
    injected: Option<FaultAction>,
) -> PassEffect {
    match injected {
        // `fires_at` hands `abort` back instead of aborting (only
        // `FaultPlan::next` aborts in place); treat it as a panic so the
        // unit's rollback still gets exercised deterministically.
        Some(FaultAction::Panic) | Some(FaultAction::Abort) => {
            panic!("injected fault at pass '{}'", p.name())
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Corrupt) | Some(FaultAction::Io) | None => {}
    }
    let eff = p.run_on(u);
    if injected == Some(FaultAction::Corrupt) && !u.func.is_declaration() {
        u.func.add_block();
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::PassManager;
    use lpat_asm::parse_module;

    /// A pass that interns a fresh constant and type per function.
    #[derive(Default)]
    struct ConstAdder {
        ran: usize,
    }

    impl FunctionPass for ConstAdder {
        fn name(&self) -> &'static str {
            "const-adder"
        }
        fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
            if u.func.is_declaration() {
                return PassEffect::unchanged();
            }
            self.ran += 1;
            // Intern a constant derived from the body so different
            // functions create different pool entries.
            let n = u.func.num_insts() as i64;
            let c = u.consts.i64(1_000_000 + n);
            let ty = u.types.i64();
            let pty = u.types.ptr(ty);
            let _ = (c, pty);
            PassEffect::unchanged()
        }
        fn stats(&self) -> String {
            format!("ran on {} functions", self.ran)
        }
    }

    fn sample() -> Module {
        parse_module(
            "t",
            "
define int @a(int %x) {
e:
  %y = add int %x, 1
  ret int %y
}
define int @b(int %x) {
e:
  %y = mul int %x, 2
  %z = add int %y, 3
  ret int %z
}",
        )
        .unwrap()
    }

    #[test]
    fn adapter_runs_over_all_functions_and_interns_into_the_module() {
        let mut m = sample();
        let consts0 = m.consts.len();
        let mut pm = PassManager::new();
        pm.add(FunctionPassAdapter::new("fn-passes").add(ConstAdder::default()));
        let report = pm.run(&mut m);
        m.verify().unwrap();
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].sub.len(), 1);
        assert_eq!(report.passes[0].sub[0].stats, "ran on 2 functions");
        assert_eq!(report.passes[0].functions.len(), 2);
        // One new constant per function: 1_000_002 and 1_000_003.
        assert_eq!(m.consts.len(), consts0 + 2);
    }

    #[test]
    fn domtree_cached_across_passes_and_recomputed_after_cfg_edit() {
        // mem2reg computes the dominator tree (miss), gvn reuses it (hit),
        // simplifycfg folds the constant branch (invalidation), and a
        // second gvn must recompute (miss again).
        let mut m = parse_module(
            "t",
            "
define int @f(int %x) {
e:
  %a = alloca int
  store int %x, int* %a
  br bool true, label %l, label %r
l:
  %v = load int* %a
  %y = add int %v, 1
  %y2 = add int %v, 1
  %z = add int %y, %y2
  ret int %z
r:
  ret int 0
}",
        )
        .unwrap();
        m.verify().unwrap();
        let mut pm = PassManager::new();
        pm.verify_each = true;
        pm.add(
            FunctionPassAdapter::new("fn-passes")
                .add(crate::mem2reg::Mem2Reg::default())
                .add(crate::gvn::Gvn::default())
                .add(crate::simplifycfg::SimplifyCfg::default())
                .add(crate::gvn::Gvn::default()),
        );
        let report = pm.run(&mut m);
        let sub = &report.passes[0].sub;
        assert_eq!(sub.len(), 4);
        // mem2reg's up-front dependency request is the one true miss; its
        // promotion step may re-request the warmed tree (an in-pass hit).
        assert_eq!(sub[0].cache.misses, 1, "mem2reg computes: {:?}", sub[0]);
        assert_eq!(sub[0].cache.invalidations, 0, "{:?}", sub[0]);
        assert!(sub[1].cache.hits >= 1, "first gvn reuses: {:?}", sub[1]);
        assert_eq!(sub[1].cache.misses, 0, "{:?}", sub[1]);
        assert!(
            sub[2].cache.invalidations >= 1,
            "simplifycfg rewrote the CFG: {:?}",
            sub[2]
        );
        assert!(
            sub[3].cache.misses >= 1,
            "second gvn recomputes: {:?}",
            sub[3]
        );
        assert_eq!(sub[3].cache.hits, 0, "{:?}", sub[3]);
        assert!(report.cache.hits >= 1 && report.cache.misses >= 2);
        // And the work itself happened: promoted, folded, CSE'd.
        let text = m.display();
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("br bool"), "{text}");
    }
}
