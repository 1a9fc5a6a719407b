//! The two-level pass manager.
//!
//! Modeled on LLVM's new-pass-manager design, split into two layers:
//!
//! * [`ModulePass`] — a whole-module transformation. Interprocedural
//!   passes (internalize, inlining, DGE, ...) implement this directly.
//! * [`crate::fpm::FunctionPass`] — an intra-procedural transformation
//!   over one function, run across all functions (possibly in parallel)
//!   by [`crate::fpm::FunctionPassAdapter`], which itself is a
//!   `ModulePass`.
//!
//! Every pass returns a [`PassEffect`]: a change flag plus the
//! [`PreservedAnalyses`] set that drives the
//! [`lpat_analysis::AnalysisManager`] cache owned by the [`PassContext`].
//! The manager records a structured [`PipelineReport`] — per-pass and
//! per-function wall-clock, change flags, and analysis cache traffic —
//! which regenerates the paper's Table 2 and backs `lpatc --time-passes`.
//!
//! # Fault isolation
//!
//! The lifelong-optimization model (paper §3.6) runs the optimizer
//! against live programs, so a crashing or runaway pass must degrade
//! gracefully rather than take the process down. By default every module
//! pass executes under [`std::panic::catch_unwind`] against a rollback
//! point — [`lpat_core::Module::checkpoint`]: the function table with
//! every body *shared*, the global table, and the lengths of the two
//! interning pools. Taking it copies no instruction; a body is duplicated
//! when, and only if, the pass writes to that function (reported per pass
//! as `copied_funcs` / `copied_insts`: what the fault boundary cost). On
//! a panic, a `--verify-each` failure, or a blown per-pass wall-clock
//! budget the module is restored to the point, every cached analysis is
//! invalidated (the restored functions reuse version numbers, so stale
//! entries could otherwise ABA-collide), a structured [`PassFault`] is
//! appended to the report, and the pipeline continues with the remaining
//! passes. Strict mode ([`PassManager::degrade`]` = false`,
//! `--no-degrade`) takes no rollback point and propagates the failure
//! instead. Deterministic fault
//! *injection* — [`lpat_core::fault::FaultPlan`] — drives the whole
//! machinery from tests and from `LPAT_FAULTS`/`--inject-faults`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use lpat_analysis::{AnalysisManager, CacheStats, PreservedAnalyses};
use lpat_core::fault::{self, FaultAction, FaultPlan};
use lpat_core::trace;
use lpat_core::{body_copies, Module};

/// What a pass did: whether it changed the module, and which analysis
/// classes survived it.
#[derive(Copy, Clone, Debug)]
pub struct PassEffect {
    /// Whether anything changed.
    pub changed: bool,
    /// Which cached analyses remain valid.
    pub preserved: PreservedAnalyses,
}

impl PassEffect {
    /// No change: everything preserved.
    pub fn unchanged() -> PassEffect {
        PassEffect {
            changed: false,
            preserved: PreservedAnalyses::all(),
        }
    }

    /// Changed, with the given preserved set.
    pub fn changed(preserved: PreservedAnalyses) -> PassEffect {
        PassEffect {
            changed: true,
            preserved,
        }
    }

    /// Convenience: changed-if with a preserved set used only on change
    /// (an unchanged pass preserves everything by definition).
    pub fn from_change(changed: bool, if_changed: PreservedAnalyses) -> PassEffect {
        if changed {
            PassEffect::changed(if_changed)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// Shared state threaded through a pipeline run: the analysis cache, the
/// parallelism budget for function-pass stages, and the fault-isolation
/// policy the managers apply.
pub struct PassContext {
    /// The analysis cache. Passes request analyses through this instead of
    /// recomputing them.
    pub am: AnalysisManager,
    /// Worker-thread budget for the function-pass executor (`>= 1`).
    pub jobs: usize,
    /// Active fault-injection plan, if any. [`PassManager::run_with`]
    /// resolves this from the manager's own plan or the process-wide one.
    pub faults: Option<Arc<FaultPlan>>,
    /// Per-pass (and per-function-unit) wall-clock budget. A pass that
    /// exceeds it is rolled back with [`FaultCause::Timeout`].
    pub budget: Option<Duration>,
    /// Degrade mode: isolate faults via rollback point + restore and
    /// continue (`true`, the default), or propagate them (`false`,
    /// `--no-degrade`).
    pub degrade: bool,
}

impl PassContext {
    /// A context with an explicit job count, or the environment/default
    /// resolution when `None`: `LPAT_JOBS`, then available parallelism.
    pub fn new(jobs: Option<usize>) -> PassContext {
        PassContext {
            am: AnalysisManager::new(),
            jobs: jobs.unwrap_or_else(default_jobs).max(1),
            faults: None,
            budget: None,
            degrade: true,
        }
    }
}

impl Default for PassContext {
    fn default() -> PassContext {
        PassContext::new(None)
    }
}

/// The job count used when none is given explicitly: the `LPAT_JOBS`
/// environment variable, else `std::thread::available_parallelism`.
pub fn default_jobs() -> usize {
    std::env::var("LPAT_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A whole-module transformation.
pub trait ModulePass {
    /// Short, stable pass name (used in reports: `dge`, `dae`, `inline`).
    fn name(&self) -> &'static str;
    /// Run over the module.
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect;
    /// A human-readable statistics line (e.g. "eliminated 331 functions"),
    /// valid after `run`.
    fn stats(&self) -> String {
        String::new()
    }
    /// Structured sub-pass details of the last run, for composite passes
    /// (the function-pass adapter). Consumed by the pass manager.
    fn take_details(&mut self) -> PassDetails {
        PassDetails::default()
    }
}

/// Why a pass (or one per-function unit of a function-pass stage) was
/// rolled back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// The pass panicked; the payload message is captured.
    Panic(String),
    /// `--verify-each` found the module broken after the pass.
    VerifyFailed(String),
    /// The pass exceeded the per-pass wall-clock budget.
    Timeout {
        /// The budget that was exceeded.
        budget: Duration,
    },
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::Panic(msg) => write!(f, "panic: {msg}"),
            FaultCause::VerifyFailed(msg) => write!(f, "verifier: {msg}"),
            FaultCause::Timeout { budget } => write!(f, "exceeded {budget:.1?} budget"),
        }
    }
}

/// Record of one isolated fault: the pass was rolled back and the
/// pipeline continued without its effect.
#[derive(Clone, Debug)]
pub struct PassFault {
    /// Name of the faulting pass.
    pub pass: String,
    /// The function whose unit faulted, for per-function stages
    /// (`None` for module-level faults).
    pub function: Option<String>,
    /// What went wrong.
    pub cause: FaultCause,
    /// Wall-clock spent in the pass before the rollback.
    pub elapsed: Duration,
}

impl std::fmt::Display for PassFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass '{}'", self.pass)?;
        if let Some(func) = &self.function {
            write!(f, " on @{func}")?;
        }
        write!(
            f,
            ": {} (rolled back after {:.1?})",
            self.cause, self.elapsed
        )
    }
}

/// Nested execution details a composite pass hands to the manager.
#[derive(Clone, Debug, Default)]
pub struct PassDetails {
    /// Per-sub-pass rows (durations summed across functions).
    pub sub: Vec<PassExecution>,
    /// Per-function rows (durations summed across sub-passes).
    pub functions: Vec<FuncTiming>,
    /// Per-function-unit faults isolated inside the composite pass.
    pub faults: Vec<PassFault>,
}

/// Wall-clock attributed to one function by a function-pass stage.
#[derive(Clone, Debug)]
pub struct FuncTiming {
    /// Function name.
    pub name: String,
    /// Total time all sub-passes spent in this function.
    pub duration: Duration,
    /// Whether any sub-pass changed this function.
    pub changed: bool,
}

/// Record of one executed pass (possibly composite).
#[derive(Clone, Debug)]
pub struct PassExecution {
    /// Pass name.
    pub name: &'static str,
    /// Wall-clock duration. For a parallel function-pass stage the
    /// top-level row is elapsed time; its `sub` rows are CPU-time sums
    /// across functions and can exceed it.
    pub duration: Duration,
    /// Whether the pass reported a change.
    pub changed: bool,
    /// The pass's statistics line.
    pub stats: String,
    /// Analysis cache traffic attributed to this pass.
    pub cache: CacheStats,
    /// Function bodies duplicated on behalf of the rollback point: the
    /// pass wrote to a function whose body the point still shared. Zero in
    /// strict mode, and for any function the pass left alone.
    pub copied_funcs: u64,
    /// Linked instructions in those bodies.
    pub copied_insts: u64,
    /// Sub-pass rows for composite passes (empty otherwise).
    pub sub: Vec<PassExecution>,
    /// Per-function rows for function-pass stages (empty otherwise).
    pub functions: Vec<FuncTiming>,
}

/// Structured result of a pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// One row per executed pass, in order.
    pub passes: Vec<PassExecution>,
    /// Total analysis cache traffic of the run.
    pub cache: CacheStats,
    /// Elapsed wall-clock of the whole pipeline.
    pub total: Duration,
    /// Faults isolated during the run (empty on a clean run). Each one
    /// means a pass was rolled back and the pipeline degraded to the
    /// remaining passes.
    pub faults: Vec<PassFault>,
}

impl PipelineReport {
    /// Whether any pass reported a change.
    pub fn changed(&self) -> bool {
        self.passes.iter().any(|p| p.changed)
    }

    /// Whether any pass was rolled back — the output is valid but some
    /// optimization was skipped.
    pub fn degraded(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Render the report as the `--time-passes` table: one row per pass
    /// (sub-passes indented), with change flags, cache traffic, and what
    /// the rollback point cost (`cp.fn` bodies, `cp.inst` instructions
    /// duplicated).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>3}  {:>6} {:>6} {:>6}  {:>6} {:>8}  stats",
            "pass", "time", "chg", "hit", "miss", "inval", "cp.fn", "cp.inst"
        );
        for p in &self.passes {
            render_row(&mut out, p, 0);
        }
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>3}  {:>6} {:>6} {:>6}  {:>6} {:>8}",
            "TOTAL",
            format!("{:.1?}", self.total),
            if self.changed() { "*" } else { "" },
            self.cache.hits,
            self.cache.misses,
            self.cache.invalidations,
            self.passes.iter().map(|p| p.copied_funcs).sum::<u64>(),
            self.passes.iter().map(|p| p.copied_insts).sum::<u64>(),
        );
        if self.degraded() {
            let _ = writeln!(out, "faults ({} isolated):", self.faults.len());
            for f in &self.faults {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

fn render_row(out: &mut String, p: &PassExecution, depth: usize) {
    let name = format!("{:indent$}{}", "", p.name, indent = depth * 2);
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>3}  {:>6} {:>6} {:>6}  {:>6} {:>8}  {}",
        name,
        format!("{:.1?}", p.duration),
        if p.changed { "*" } else { "" },
        p.cache.hits,
        p.cache.misses,
        p.cache.invalidations,
        p.copied_funcs,
        p.copied_insts,
        p.stats,
    );
    for s in &p.sub {
        render_row(out, s, depth + 1);
    }
}

/// An ordered pipeline of module passes.
pub struct PassManager {
    passes: Vec<Box<dyn ModulePass>>,
    /// When set, the module is verified after every pass. In degrade mode
    /// a verifier error rolls the pass back ([`FaultCause::VerifyFailed`]);
    /// in strict mode the manager panics — type mismatches are useful for
    /// detecting optimizer bugs (paper §2.2).
    pub verify_each: bool,
    /// Worker-thread budget for function-pass stages. `None` resolves via
    /// `LPAT_JOBS` / available parallelism at run time.
    pub jobs: Option<usize>,
    /// Degrade mode (default `true`): faulting passes are rolled back to
    /// a rollback point and the pipeline continues. `false`
    /// (`--no-degrade`) propagates panics and aborts on verifier/budget
    /// failures instead, and takes no rollback point at all.
    pub degrade: bool,
    /// Per-pass wall-clock budget (`--pass-budget-ms`); `None` = no budget.
    pub budget: Option<Duration>,
    /// Explicit fault-injection plan. `None` resolves the process-wide
    /// plan ([`fault::global`], i.e. `--inject-faults` / `LPAT_FAULTS`).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for PassManager {
    fn default() -> PassManager {
        PassManager {
            passes: Vec::new(),
            verify_each: false,
            jobs: None,
            degrade: true,
            budget: None,
            faults: None,
        }
    }
}

impl PassManager {
    /// Create an empty pipeline.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Append a pass.
    pub fn add(&mut self, p: impl ModulePass + 'static) -> &mut Self {
        self.passes.push(Box::new(p));
        self
    }

    /// Run all passes in order with a fresh [`PassContext`].
    ///
    /// # Panics
    ///
    /// In strict mode (`degrade = false`): propagates pass panics and
    /// panics on verifier or budget failures. In degrade mode faults are
    /// isolated and reported instead.
    pub fn run(&mut self, m: &mut Module) -> PipelineReport {
        let mut cx = PassContext::new(self.jobs);
        self.run_with(m, &mut cx)
    }

    /// Run all passes in order against an existing context, so analysis
    /// caches can persist across pipelines (the VM's reoptimizer reruns
    /// pipelines over its lifetime).
    pub fn run_with(&mut self, m: &mut Module, cx: &mut PassContext) -> PipelineReport {
        cx.degrade = self.degrade;
        cx.budget = self.budget;
        cx.faults = self.faults.clone().or_else(fault::global);
        let mut run_sp = trace::span("pipeline", "run");
        let cache0 = cx.am.stats();
        let mut out = Vec::with_capacity(self.passes.len());
        let mut faults = Vec::new();
        for p in &mut self.passes {
            let name = p.name();
            let pass_cache0 = cx.am.stats();
            // The rollback point: shared structure, not a copy (see
            // `Module::checkpoint`). Strict mode takes none: a fault aborts
            // the process anyway, so the module never survives it.
            let rollback = cx.degrade.then(|| m.checkpoint());
            let copies0 = body_copies();
            let injected = cx.faults.as_deref().and_then(|pl| pl.next(name));
            // One stopwatch: the report's per-pass duration *is* this
            // span's duration, so `--time-passes` and `--trace-out` can
            // never disagree.
            let mut sp = trace::span("pass", name);
            let outcome = if cx.degrade {
                catch_unwind(AssertUnwindSafe(|| run_pass(p.as_mut(), m, cx, injected)))
            } else {
                Ok(run_pass(p.as_mut(), m, cx, injected))
            };
            let duration = sp.stop();
            let mut fault = None;
            let mut changed = false;
            match outcome {
                Ok(effect) => {
                    changed = effect.changed;
                    cx.am.apply(&effect.preserved, m.num_funcs());
                    if injected == Some(FaultAction::Corrupt) {
                        // Simulate a miscompiling pass: break the module
                        // *after* the pass so --verify-each has something
                        // real to catch. Without --verify-each the damage
                        // flows downstream — exactly the failure mode the
                        // flag exists to detect.
                        corrupt_module(m);
                    }
                    if self.verify_each {
                        if let Err(errs) = m.verify() {
                            let msg = errs
                                .iter()
                                .map(|e| e.to_string())
                                .collect::<Vec<_>>()
                                .join("; ");
                            if cx.degrade {
                                fault = Some(FaultCause::VerifyFailed(msg));
                            } else {
                                panic!("verifier failed after pass '{name}':\n{msg}");
                            }
                        }
                    }
                    if fault.is_none() {
                        if let Some(budget) = cx.budget {
                            if duration > budget {
                                if cx.degrade {
                                    fault = Some(FaultCause::Timeout { budget });
                                } else {
                                    panic!(
                                        "pass '{name}' exceeded its {budget:.1?} budget \
                                         (ran {duration:.1?})"
                                    );
                                }
                            }
                        }
                    }
                }
                Err(payload) => fault = Some(FaultCause::Panic(panic_message(payload.as_ref()))),
            }
            let details = p.take_details();
            // What the rollback point cost: bodies this pass had to
            // duplicate because the point still shared them (a function-pass
            // stage folds its workers' counts into this thread's).
            let copied = body_copies() - copies0;
            if trace::enabled() {
                sp.arg("copied_funcs", copied.funcs.to_string());
                sp.arg("copied_insts", copied.insts.to_string());
            }
            if let Some(cause) = fault {
                m.restore(rollback.expect("degrade mode always takes a rollback point"));
                // The restored functions reuse version numbers the faulted
                // pass already bumped past, so any entry cached during it
                // could ABA-collide with a future version. Drop everything.
                cx.am.invalidate_all();
                let cache = cx.am.stats() - pass_cache0;
                fold_cache_counters(&cache);
                sp.arg("changed", "false");
                sp.arg("fault", cause.to_string());
                drop(sp);
                trace::instant_args("fault", name, vec![("cause", cause.to_string())]);
                faults.push(PassFault {
                    pass: name.to_string(),
                    function: None,
                    cause,
                    elapsed: duration,
                });
                out.push(PassExecution {
                    name,
                    duration,
                    changed: false,
                    stats: "faulted; rolled back".to_string(),
                    cache,
                    copied_funcs: copied.funcs,
                    copied_insts: copied.insts,
                    sub: Vec::new(),
                    functions: Vec::new(),
                });
                continue;
            }
            let cache = cx.am.stats() - pass_cache0;
            fold_cache_counters(&cache);
            sp.arg("changed", if changed { "true" } else { "false" });
            drop(sp);
            // Per-function units isolated inside a composite pass surface
            // here; the stage itself completed. Their fault events are
            // emitted serially, in function order, so ordinals stay
            // deterministic under any --jobs.
            if trace::enabled() {
                for f in &details.faults {
                    let mut args = vec![("cause", f.cause.to_string())];
                    if let Some(func) = &f.function {
                        args.push(("function", func.clone()));
                    }
                    trace::instant_args("fault", f.pass.clone(), args);
                }
            }
            faults.extend(details.faults);
            out.push(PassExecution {
                name,
                duration,
                changed,
                stats: p.stats(),
                cache,
                copied_funcs: copied.funcs,
                copied_insts: copied.insts,
                sub: details.sub,
                functions: details.functions,
            });
        }
        PipelineReport {
            passes: out,
            cache: cx.am.stats() - cache0,
            total: run_sp.stop(),
            faults,
        }
    }
}

/// Execute one pass, manifesting any injected fault first: `panic` panics
/// here (inside the `catch_unwind`), `delay` sleeps inside the timed
/// region so budgets see it. `corrupt` is handled by the caller after the
/// pass runs.
fn run_pass(
    p: &mut dyn ModulePass,
    m: &mut Module,
    cx: &mut PassContext,
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
    p.run(m, cx)
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Break the module in a way the verifier reliably flags: append an empty
/// (terminator-less) block to the first defined function.
fn corrupt_module(m: &mut Module) {
    if let Some(id) = m.func_ids().find(|&id| !m.func(id).is_declaration()) {
        m.func_mut(id).add_block();
    }
}

/// Fold one pass's analysis-cache delta into the trace counters. Counter
/// sums commute, so per-pass folding adds up to the run totals no matter
/// how stages interleave.
fn fold_cache_counters(delta: &CacheStats) {
    if !trace::enabled() {
        return;
    }
    trace::counter("analysis.cache.hits", delta.hits);
    trace::counter("analysis.cache.misses", delta.misses);
    trace::counter("analysis.cache.invalidations", delta.invalidations);
}

/// Wrap a closure as a module pass (useful in tests and ad-hoc pipelines).
pub struct FnPass<F> {
    name: &'static str,
    f: F,
}

impl<F: FnMut(&mut Module) -> bool> FnPass<F> {
    /// Create a pass from a closure. The closure's change flag maps to a
    /// conservative `PreservedAnalyses::none()` when true.
    pub fn new(name: &'static str, f: F) -> FnPass<F> {
        FnPass { name, f }
    }
}

impl<F: FnMut(&mut Module) -> bool> ModulePass for FnPass<F> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn run(&mut self, m: &mut Module, _cx: &mut PassContext) -> PassEffect {
        PassEffect::from_change((self.f)(m), PreservedAnalyses::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_order_and_times() {
        let mut m = Module::new("t");
        let mut pm = PassManager::new();
        pm.add(FnPass::new("a", |m: &mut Module| {
            m.name.push('a');
            true
        }));
        pm.add(FnPass::new("b", |m: &mut Module| {
            m.name.push('b');
            false
        }));
        let report = pm.run(&mut m);
        assert_eq!(m.name, "tab");
        assert_eq!(report.passes.len(), 2);
        assert!(report.passes[0].changed);
        assert!(!report.passes[1].changed);
        assert_eq!(report.passes[0].name, "a");
        assert!(report.changed());
        assert!(report.render().contains("TOTAL"));
    }

    #[test]
    fn jobs_resolution_prefers_explicit() {
        let cx = PassContext::new(Some(3));
        assert_eq!(cx.jobs, 3);
        assert!(PassContext::new(None).jobs >= 1);
    }
}
