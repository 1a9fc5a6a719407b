//! The function-pass layer: per-function transformations and the
//! (optionally parallel) executor that runs them over a whole module.
//!
//! A [`FunctionPass`] sees one function at a time through a [`FuncUnit`] —
//! the function body plus the module's type/constant pools and the cached
//! analyses of that function. Because the unit holds everything a
//! function-local transformation may touch, a [`FunctionPassAdapter`] can
//! run the same pipeline over different functions on different threads.
//!
//! # Determinism: the snapshot / truncate / merge protocol
//!
//! Pools are interning tables: the *id* a value receives depends on
//! insertion order, and passes (e.g. GVN's commutative canonicalization)
//! order values by id. Naively sharing pools across threads would make
//! output depend on scheduling. Instead, every worker clones the pools at
//! stage start, and for **each** function: runs the pipeline against the
//! snapshot, captures the entries the function added (index `>= base`),
//! and truncates back to the snapshot. Afterwards the adapter merges each
//! function's captured overlay into the master pools **in function-index
//! order**, structurally re-interning and rewriting overlay ids in the
//! function body via [`Function::remap_pool_ids`].
//!
//! Every function therefore observes exactly the stage-start pool state,
//! and the master pools grow in function order — so the result is
//! byte-identical for any `--jobs` value (`jobs = 1` uses the same
//! protocol, not a separate code path).
//!
//! # Fault isolation
//!
//! Each per-function unit is its own isolation domain with **one**
//! rollback point: the function as it entered the stage, held as a clone
//! (a [`Function`] clone shares the body, so holding it costs nothing
//! until a sub-pass writes, and then one body copy for the whole stage).
//! Every sub-pass runs under `catch_unwind`; when one panics or blows its
//! budget the worker goes back to the entry state — function restored,
//! pools truncated to the unit's base, the function's analysis slot
//! invalidated — and *replays* the sub-passes that had already succeeded,
//! records a [`PassFault`], and carries on: the other functions and the
//! rest of the pipeline are unaffected. Replay is exact because a
//! sub-pass is a deterministic function of the unit (the contract behind
//! "byte-identical at any `--jobs`" above): from the same state it interns
//! the same pool entries under the same ids and leaves the same body, so
//! the unit ends up byte for byte where skipping the faulted sub-pass
//! would have left it. The price of a rollback is paid by the unit that
//! faults, not as a body copy before every sub-pass of every unit. (A
//! replayed sub-pass counts its work in its `stats()` line a second
//! time.) Injected faults stay deterministic under parallelism because
//! the adapter *reserves* hit ordinals per
//! sub-pass up front ([`lpat_core::fault::FaultPlan::reserve`]) and each
//! unit evaluates `base + function_index`, so fault placement depends
//! only on function order, never on thread scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lpat_analysis::{CacheStats, FuncAnalyses, PreservedAnalyses};
use lpat_core::fault::{FaultAction, FaultPlan};
use lpat_core::trace;
use lpat_core::{
    add_body_copies, body_copies, AddrTypeTable, BodyCopies, Const, ConstId, ConstPool, Function,
    Module, Type, TypeCtx, TypeId, Value,
};

use crate::pm::{
    panic_message, FaultCause, FuncTiming, ModulePass, PassContext, PassDetails, PassEffect,
    PassExecution, PassFault,
};

/// Everything a function-local transformation may read or write: the
/// function body, the module's interning pools, the address-type side
/// table, and the function's cached analyses.
pub struct FuncUnit<'a> {
    /// The module's type context (shared interner; a worker snapshot when
    /// running under the parallel executor).
    pub types: &'a mut TypeCtx,
    /// The module's constant pool (ditto).
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

/// Build a one-off [`FuncUnit`] for `fid` — master pools, a fresh analysis
/// slot — and run `body` against it. This is the module-level
/// compatibility entry the `*_function(m, fid)` helpers use; unlike the
/// adapter it interns directly into the master pools.
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

/// An intra-procedural transformation.
///
/// `run_on` takes `&self` (not `&mut`) because one pass instance runs over
/// many functions concurrently; accumulate statistics in atomics.
pub trait FunctionPass: Sync {
    /// Short, stable pass name (`gvn`, `mem2reg`, ...).
    fn name(&self) -> &'static str;
    /// Transform one function.
    fn run_on(&self, u: &mut FuncUnit<'_>) -> PassEffect;
    /// A human-readable statistics line aggregated over all functions.
    fn stats(&self) -> String {
        String::new()
    }
}

/// What one function produced under a worker: its pool overlay and the
/// per-pass measurements.
struct FuncResult {
    idx: usize,
    new_types: Vec<Type>,
    new_consts: Vec<Const>,
    /// Per pass: `(duration, changed, cache delta, call graph preserved,
    /// bodies duplicated for the rollback point)`.
    rows: Vec<(Duration, bool, CacheStats, bool, BodyCopies)>,
    /// Isolated faults: `(sub-pass index, cause, elapsed)`.
    faults: Vec<(usize, FaultCause, Duration)>,
}

/// Fault-isolation inputs each per-function unit runs under.
#[derive(Clone, Copy)]
struct UnitExec<'a> {
    plan: Option<&'a FaultPlan>,
    /// Reserved 1-based hit-ordinal base per sub-pass (aligned with the
    /// pass list; empty when no plan is active).
    bases: &'a [u64],
    /// Reserved trace-span ordinal base per sub-pass (aligned with the
    /// pass list; empty when tracing is off). Unit `idx` of pass `pi`
    /// records with ordinal `tr[pi] + idx` — the same serial-reservation
    /// protocol as fault sites, so the trace is `--jobs`-independent.
    tr: &'a [u64],
    budget: Option<Duration>,
    degrade: bool,
}

/// Runs a pipeline of [`FunctionPass`]es over every function of a module,
/// in parallel across functions when the [`PassContext`] allows more than
/// one job. Implements [`ModulePass`], so it slots into a
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
        let jobs = cx.jobs.max(1);
        let info = m.addr_type_table();
        let num = m.num_funcs();
        let names: Vec<String> = m.func_ids().map(|f| m.func(f).name().to_string()).collect();
        let slots = cx.am.func_slots(num);
        let (types, consts, funcs) = m.split_mut();
        let ty_base = types.len();
        let c_base = consts.len();

        // Round-robin distribution keeps the load roughly even without
        // affecting the output (the merge below is ordered by index).
        let mut work: Vec<Vec<(usize, &mut Function, &mut FuncAnalyses)>> =
            (0..jobs).map(|_| Vec::new()).collect();
        for (i, (f, fa)) in funcs.iter_mut().zip(slots.iter_mut()).enumerate() {
            work[i % jobs].push((i, f, fa));
        }

        // Reserve a contiguous hit-ordinal block per sub-pass *before*
        // spawning workers: unit `idx` of pass `pi` always evaluates
        // ordinal `bases[pi] + idx`, so which unit a `@N` spec hits is a
        // pure function of function order — identical at any job count.
        let plan = cx.faults.clone();
        let bases: Vec<u64> = match plan.as_deref() {
            Some(pl) => self
                .passes
                .iter()
                .map(|p| pl.reserve(p.name(), num as u64))
                .collect(),
            None => Vec::new(),
        };
        // Same reservation trick for trace-span ordinals: one serial
        // block per sub-pass, indexed by function number.
        let tr: Vec<u64> = if trace::enabled() {
            let base = trace::reserve((self.passes.len() * num) as u64);
            (0..self.passes.len())
                .map(|pi| base + (pi * num) as u64)
                .collect()
        } else {
            Vec::new()
        };
        let exec = UnitExec {
            plan: plan.as_deref(),
            bases: &bases,
            tr: &tr,
            budget: cx.budget,
            degrade: cx.degrade,
        };

        let passes = &self.passes;
        let info_ref = &info;
        let types_snapshot: &TypeCtx = &*types;
        let consts_snapshot: &ConstPool = &*consts;
        let run_chunk = |chunk: Vec<(usize, &mut Function, &mut FuncAnalyses)>| {
            let mut my_types = types_snapshot.clone();
            let mut my_consts = consts_snapshot.clone();
            let mut out = Vec::with_capacity(chunk.len());
            for (idx, f, fa) in chunk {
                out.push(run_pipeline_on(
                    passes,
                    &mut my_types,
                    &mut my_consts,
                    f,
                    info_ref,
                    fa,
                    idx,
                    ty_base,
                    c_base,
                    exec,
                ));
            }
            out
        };
        // The calling thread is a worker too: it takes the first chunk, so
        // one job spawns nothing.
        let mut chunks = work.into_iter();
        let first = chunks.next().expect("at least one job");
        let results: Vec<Vec<FuncResult>> = std::thread::scope(|s| {
            let run_chunk = &run_chunk;
            let handles: Vec<_> = chunks
                .map(|chunk| s.spawn(move || run_chunk(chunk)))
                .collect();
            let mut results = vec![run_chunk(first)];
            for h in handles {
                let out = match h.join() {
                    Ok(v) => v,
                    // Only reachable in strict mode (degrade catches unit
                    // panics in the worker); re-raise the original payload.
                    Err(payload) => resume_unwind(payload),
                };
                // What that thread copied counts as this pass's doing.
                for (.., copied) in out.iter().flat_map(|fr| &fr.rows) {
                    add_body_copies(*copied);
                }
                results.push(out);
            }
            results
        });

        // Merge overlays into the master pools in function-index order.
        let mut per_func: Vec<Option<FuncResult>> = (0..num).map(|_| None).collect();
        for r in results.into_iter().flatten() {
            let i = r.idx;
            per_func[i] = Some(r);
        }
        for (idx, fr) in per_func.iter().enumerate() {
            let Some(fr) = fr else { continue };
            let ty_map = merge_types(types, &fr.new_types, ty_base);
            let c_map = merge_consts(consts, &fr.new_consts, ty_base, &ty_map, c_base);
            if !ty_map.is_empty() || !c_map.is_empty() {
                funcs[idx].remap_pool_ids(ty_base, &ty_map, c_base, &c_map);
            }
        }

        // Aggregate per-pass and per-function rows for the report.
        let mut sub: Vec<PassExecution> = passes
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
            .collect();
        let mut functions = Vec::new();
        let mut faults = Vec::new();
        let mut any_changed = false;
        let mut cg_preserved = true;
        for (idx, fr) in per_func.iter().enumerate() {
            let Some(fr) = fr else { continue };
            let mut fdur = Duration::ZERO;
            let mut fchanged = false;
            for (pi, (d, ch, cs, cg, cp)) in fr.rows.iter().enumerate() {
                sub[pi].duration += *d;
                sub[pi].changed |= *ch;
                sub[pi].cache.add(*cs);
                sub[pi].copied_funcs += cp.funcs;
                sub[pi].copied_insts += cp.insts;
                fdur += *d;
                fchanged |= *ch;
                cg_preserved &= *cg;
            }
            for (pi, cause, elapsed) in &fr.faults {
                faults.push(PassFault {
                    pass: passes[*pi].name().to_string(),
                    function: Some(names[idx].clone()),
                    cause: cause.clone(),
                    elapsed: *elapsed,
                });
            }
            any_changed |= fchanged;
            functions.push(FuncTiming {
                name: names[idx].clone(),
                duration: fdur,
                changed: fchanged,
            });
        }
        for (pi, p) in passes.iter().enumerate() {
            sub[pi].stats = p.stats();
        }
        self.details = PassDetails {
            sub,
            functions,
            faults,
        };

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

/// Run the whole pass pipeline over one function against a worker's pool
/// snapshot, capture the pool overlay it created, and reset the snapshot.
/// Each sub-pass is an isolation domain, and the whole unit has one
/// rollback point: the function as it entered the stage (a clone, so it
/// shares the body until a sub-pass writes). In degrade mode a sub-pass
/// that panics or blows its budget is undone by going back to that point
/// and running the sub-passes that had succeeded again ([`replay`]); a
/// fault row is recorded instead of unwinding the worker.
#[allow(clippy::too_many_arguments)]
fn run_pipeline_on(
    passes: &[Box<dyn FunctionPass>],
    types: &mut TypeCtx,
    consts: &mut ConstPool,
    f: &mut Function,
    info: &AddrTypeTable,
    fa: &mut FuncAnalyses,
    idx: usize,
    ty_base: usize,
    c_base: usize,
    exec: UnitExec<'_>,
) -> FuncResult {
    let mut rows = Vec::with_capacity(passes.len());
    let mut faults = Vec::new();
    // The unit's one rollback point, and the sub-passes to run again after
    // going back to it: `(index, left a simulated miscompile behind)`.
    let entry = if exec.degrade { Some(f.clone()) } else { None };
    let mut done: Vec<(usize, bool)> = Vec::new();
    for (pi, p) in passes.iter().enumerate() {
        // `bases` is only indexed under an active plan, where it is
        // aligned with `passes`.
        let injected = exec
            .plan
            .and_then(|pl| pl.fires_at(p.name(), exec.bases[pi] + idx as u64));
        let s0 = fa.stats();
        let copies0 = body_copies();
        let ts_us = if exec.tr.is_empty() {
            0
        } else {
            trace::now_us()
        };
        let t0 = Instant::now();
        let outcome = if exec.degrade {
            catch_unwind(AssertUnwindSafe(|| {
                run_unit(p.as_ref(), types, consts, f, info, fa, injected)
            }))
        } else {
            Ok(run_unit(p.as_ref(), types, consts, f, info, fa, injected))
        };
        let elapsed = t0.elapsed();
        let mut fault = None;
        let mut unit_changed = false;
        match outcome {
            Ok(eff) => {
                if let Some(budget) = exec.budget {
                    if elapsed > budget {
                        if exec.degrade {
                            fault = Some(FaultCause::Timeout { budget });
                        } else {
                            panic!(
                                "pass '{}' exceeded its {budget:.1?} budget on @{} \
                                 (ran {elapsed:.1?})",
                                p.name(),
                                f.name(),
                            );
                        }
                    }
                }
                if fault.is_none() {
                    // The analysis caches take "same version" to mean
                    // "same function"; hold the passes to it.
                    debug_assert!(
                        entry
                            .as_ref()
                            .is_none_or(|e| e.version() != f.version() || e == f),
                        "pass '{}' changed @{} without moving its version",
                        p.name(),
                        f.name(),
                    );
                    fa.apply(&eff.preserved, f.version());
                    unit_changed = eff.changed;
                    done.push((pi, injected == Some(FaultAction::Corrupt)));
                    rows.push((
                        elapsed,
                        eff.changed,
                        fa.stats() - s0,
                        eff.preserved.call_graph || !eff.changed,
                        body_copies() - copies0,
                    ));
                }
            }
            Err(payload) => fault = Some(FaultCause::Panic(panic_message(payload.as_ref()))),
        }
        if !exec.tr.is_empty() {
            let mut args = vec![(
                "changed",
                if unit_changed { "true" } else { "false" }.to_string(),
            )];
            if let Some(cause) = &fault {
                args.push(("fault", cause.to_string()));
            }
            trace::record_span_at(
                "fpass",
                format!("{} @{}", p.name(), f.name()),
                exec.tr[pi] + idx as u64,
                ts_us,
                elapsed,
                args,
            );
        }
        if let Some(cause) = fault {
            *f = entry.clone().expect("degrade mode keeps the entry state");
            types.truncate(ty_base);
            consts.truncate(c_base);
            // The restored function reuses version numbers the faulted
            // pass already bumped past; cached entries stamped during it
            // could ABA-collide with future versions. Drop the slot.
            fa.invalidate();
            replay(passes, &done, types, consts, f, info, fa);
            rows.push((
                elapsed,
                false,
                fa.stats() - s0,
                true,
                body_copies() - copies0,
            ));
            faults.push((pi, cause, elapsed));
        }
    }
    let new_types: Vec<Type> = (ty_base..types.len())
        .map(|i| types.ty(TypeId::from_index(i)).clone())
        .collect();
    let new_consts: Vec<Const> = (c_base..consts.len())
        .map(|i| consts.get(ConstId::from_index(i)).clone())
        .collect();
    types.truncate(ty_base);
    consts.truncate(c_base);
    FuncResult {
        idx,
        new_types,
        new_consts,
        rows,
        faults,
    }
}

/// Bring a unit that was just put back to its stage-entry state (function
/// restored, pools truncated to the unit's base) forward again through the
/// sub-passes `done`, which ran to completion before the fault. A pass is
/// a deterministic function of the unit — the contract that makes output
/// independent of `--jobs` — so running them again from the same state
/// interns the same pool entries under the same ids and leaves the body
/// they left: exactly the pipeline without the faulted sub-pass. No panic
/// or delay is injected (a simulated miscompile one of them left behind is
/// left behind again), nothing is timed against the budget or traced:
/// these runs already happened and were reported.
fn replay(
    passes: &[Box<dyn FunctionPass>],
    done: &[(usize, bool)],
    types: &mut TypeCtx,
    consts: &mut ConstPool,
    f: &mut Function,
    info: &AddrTypeTable,
    fa: &mut FuncAnalyses,
) {
    for &(qi, corrupt) in done {
        let injected = corrupt.then_some(FaultAction::Corrupt);
        let eff = run_unit(passes[qi].as_ref(), types, consts, f, info, fa, injected);
        fa.apply(&eff.preserved, f.version());
    }
}

/// Execute one sub-pass on one function, manifesting any injected fault:
/// `panic` panics here (inside the unit's `catch_unwind`), `delay` sleeps
/// inside the timed region so budgets see it, and `corrupt` leaves a
/// terminator-less block behind *after* the pass — a simulated miscompile
/// for module-level `--verify-each` to catch.
fn run_unit(
    p: &dyn FunctionPass,
    types: &mut TypeCtx,
    consts: &mut ConstPool,
    f: &mut Function,
    info: &AddrTypeTable,
    fa: &mut FuncAnalyses,
    injected: Option<FaultAction>,
) -> PassEffect {
    match injected {
        // Abort can reach here only via the parallel fires_at path (the
        // serial path aborts inside FaultPlan::next); treat it as a panic
        // so the rollback machinery still gets exercised deterministically.
        Some(FaultAction::Panic) | Some(FaultAction::Abort) => {
            panic!("injected fault at pass '{}'", p.name())
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Corrupt) | Some(FaultAction::Io) | None => {}
    }
    let mut unit = FuncUnit {
        types,
        consts,
        func: f,
        info,
        analyses: fa,
    };
    let eff = p.run_on(&mut unit);
    if injected == Some(FaultAction::Corrupt) && !f.is_declaration() {
        f.add_block();
    }
    eff
}

#[inline]
fn mt(ty_map: &[TypeId], ty_base: usize, id: TypeId) -> TypeId {
    if id.index() >= ty_base {
        ty_map[id.index() - ty_base]
    } else {
        id
    }
}

/// Re-intern a function's type overlay into the master context. Overlay
/// entries only reference ids below them (interning is bottom-up), so a
/// single forward sweep suffices.
fn merge_types(types: &mut TypeCtx, overlay: &[Type], ty_base: usize) -> Vec<TypeId> {
    let mut ty_map: Vec<TypeId> = Vec::with_capacity(overlay.len());
    for t in overlay {
        let id = match t {
            Type::Ptr(p) => types.ptr(mt(&ty_map, ty_base, *p)),
            Type::Array { elem, len } => types.array(mt(&ty_map, ty_base, *elem), *len),
            Type::Struct { name: None, fields } => {
                let fs = fields.iter().map(|&f| mt(&ty_map, ty_base, f)).collect();
                types.struct_lit(fs)
            }
            Type::Func {
                ret,
                params,
                varargs,
            } => {
                let ps = params.iter().map(|&p| mt(&ty_map, ty_base, p)).collect();
                types.func(mt(&ty_map, ty_base, *ret), ps, *varargs)
            }
            // Nominal types: resolve by name (creating the declaration and
            // body if this run is the first to mention it).
            Type::Opaque(n) => types.named_struct(n),
            Type::Struct {
                name: Some(n),
                fields,
            } => match types.lookup_named(n) {
                Some(id) => id,
                None => {
                    let id = types.named_struct(n);
                    let fs = fields.iter().map(|&f| mt(&ty_map, ty_base, f)).collect();
                    types.set_struct_body(id, fs);
                    id
                }
            },
            prim => types.intern_type(prim.clone()),
        };
        ty_map.push(id);
    }
    ty_map
}

/// Re-intern a function's constant overlay into the master pool, remapping
/// the type and constant ids its entries embed.
fn merge_consts(
    consts: &mut ConstPool,
    overlay: &[Const],
    ty_base: usize,
    ty_map: &[TypeId],
    c_base: usize,
) -> Vec<ConstId> {
    let mut c_map: Vec<ConstId> = Vec::with_capacity(overlay.len());
    let mc = |c_map: &[ConstId], id: ConstId| -> ConstId {
        if id.index() >= c_base {
            c_map[id.index() - c_base]
        } else {
            id
        }
    };
    for c in overlay {
        let c2 = match c {
            Const::Null(t) => Const::Null(mt(ty_map, ty_base, *t)),
            Const::Undef(t) => Const::Undef(mt(ty_map, ty_base, *t)),
            Const::Zero(t) => Const::Zero(mt(ty_map, ty_base, *t)),
            Const::Array { ty, elems } => Const::Array {
                ty: mt(ty_map, ty_base, *ty),
                elems: elems.iter().map(|&e| mc(&c_map, e)).collect(),
            },
            Const::Struct { ty, fields } => Const::Struct {
                ty: mt(ty_map, ty_base, *ty),
                fields: fields.iter().map(|&f| mc(&c_map, f)).collect(),
            },
            other => other.clone(),
        };
        c_map.push(consts.intern(c2));
    }
    c_map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::PassManager;
    use lpat_asm::parse_module;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pass that interns a fresh constant per function and uses it, to
    /// exercise the overlay merge.
    struct ConstAdder {
        ran: AtomicUsize,
    }

    impl FunctionPass for ConstAdder {
        fn name(&self) -> &'static str {
            "const-adder"
        }
        fn run_on(&self, u: &mut FuncUnit<'_>) -> PassEffect {
            if u.func.is_declaration() {
                return PassEffect::unchanged();
            }
            self.ran.fetch_add(1, Ordering::Relaxed);
            // Intern a constant derived from the body so different
            // functions create different overlay entries.
            let n = u.func.num_insts() as i64;
            let c = u.consts.i64(1_000_000 + n);
            let ty = u.types.i64();
            let pty = u.types.ptr(ty);
            let _ = (c, pty);
            PassEffect::unchanged()
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
    fn adapter_runs_over_all_functions_and_merges_pools() {
        for jobs in [1, 4] {
            let mut m = sample();
            let mut pm = PassManager::new();
            pm.jobs = Some(jobs);
            pm.add(FunctionPassAdapter::new("fn-passes").add(ConstAdder {
                ran: AtomicUsize::new(0),
            }));
            let report = pm.run(&mut m);
            m.verify().unwrap();
            assert_eq!(report.passes.len(), 1);
            assert_eq!(report.passes[0].sub.len(), 1);
            assert_eq!(report.passes[0].functions.len(), 2);
        }
    }

    #[test]
    fn jobs_do_not_change_pool_contents() {
        let run = |jobs: usize| {
            let mut m = sample();
            let mut pm = PassManager::new();
            pm.jobs = Some(jobs);
            pm.add(FunctionPassAdapter::new("fn-passes").add(ConstAdder {
                ran: AtomicUsize::new(0),
            }));
            pm.run(&mut m);
            (m.consts.len(), m.types.len(), m.display())
        };
        assert_eq!(run(1), run(3));
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
