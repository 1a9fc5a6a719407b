//! Offline reoptimization with end-user profile information (paper §3.6).
//!
//! Because the representation is preserved alongside the native code, an
//! idle-time optimizer can rerun interprocedural transformations with the
//! profiles gathered from the user's actual runs. This module implements
//! two such profile-guided transformations:
//!
//! * **hot call-site inlining** — call sites whose execution count clears a
//!   threshold are integrated regardless of the static inliner's size
//!   policy;
//! * **profile-guided code layout** — blocks are reordered so the hottest
//!   successor of each block is its fall-through, improving the locality of
//!   the native code a backend would emit.

use std::cell::Cell;
use std::rc::Rc;

use lpat_analysis::PreservedAnalyses;
use lpat_core::trace;
use lpat_core::{BlockId, Const, FuncId, Inst, Module, Value};
use lpat_transform::gvn::Gvn;
use lpat_transform::inline::inline_site;
use lpat_transform::scalar::{Dce, InstSimplify};
use lpat_transform::simplifycfg::SimplifyCfg;
use lpat_transform::{
    FunctionPassAdapter, ModulePass, PassContext, PassEffect, PassFault, PassManager,
    PipelineReport,
};

use crate::profile::ProfileData;

/// Thresholds for the reoptimizer.
#[derive(Clone, Debug)]
pub struct PgoOptions {
    /// Minimum call-site count for profile-guided inlining.
    pub hot_call_threshold: u64,
    /// Ceiling on callee size for hot inlining (instructions).
    pub max_callee_size: usize,
    /// Ceiling on caller growth (instructions).
    pub caller_cap: usize,
    /// When set, compute the speculation plan against the reoptimized
    /// module: which guards the accumulated profile justifies emitting,
    /// and which prior speculations it retracts (misspeculation rate over
    /// the threshold). The plan is *reported*, not baked into the stored
    /// module — guards are re-applied in memory at run time, so the store
    /// keeps the unspeculated module the profile is attributed to.
    pub spec: Option<lpat_transform::SpecOptions>,
}

impl Default for PgoOptions {
    fn default() -> Self {
        PgoOptions {
            hot_call_threshold: 64,
            max_callee_size: 2000,
            caller_cap: 50_000,
            spec: None,
        }
    }
}

/// What the reoptimizer did.
#[derive(Clone, Debug, Default)]
pub struct PgoReport {
    /// Hot call sites inlined.
    pub inlined: usize,
    /// Functions whose block layout changed.
    pub relaid: usize,
    /// Per-pass timings and analysis-cache traffic of the cleanup pipeline
    /// run after hot inlining (empty when nothing was inlined) — the same
    /// structured report the static pipelines and `lpatc --time-passes`
    /// produce.
    pub cleanup: PipelineReport,
    /// Faults isolated during reoptimization: a rolled-back `pgo-inline`
    /// or `pgo-layout` stage plus anything the cleanup pipeline degraded
    /// on. The reoptimizer runs against a *live* program, so a fault here
    /// must leave the module untouched, never take the process down.
    pub faults: Vec<PassFault>,
    /// The speculation plan computed against the final module (when
    /// [`PgoOptions::spec`] is set). Its canonical rendering is pure in
    /// `(module, profile, options)`, so offline reopt produces
    /// byte-identical plan text to the in-memory decision.
    pub spec_plan: Option<lpat_transform::SpecPlan>,
}

impl PgoReport {
    /// Whether any reoptimization stage was rolled back.
    pub fn degraded(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Apply profile-guided reoptimization to `m` using `profile`.
///
/// Each stage is a module pass run by the pass manager — hot inlining as
/// `pgo-inline`, layout as `pgo-layout` (both fault sites too) — so a
/// panic in one restores the module it started from and is recorded in
/// [`PgoReport::faults`]; the stages after it still run.
pub fn reoptimize(m: &mut Module, profile: &ProfileData, opts: &PgoOptions) -> PgoReport {
    let mut report = PgoReport::default();
    // A pass the manager owns must own what it reads.
    let shared = Rc::new(profile.clone());
    let (p, o) = (shared.clone(), opts.clone());
    report.inlined = run_stage(m, &mut report.faults, "pgo-inline", move |m| {
        inline_hot_sites(m, &p, &o)
    });
    if report.inlined > 0 {
        // Clean up what hot inlining exposed before choosing a layout,
        // through the instrumented pass framework.
        let mut pm = PassManager::new();
        pm.add(
            FunctionPassAdapter::new("pgo-cleanup")
                .add(InstSimplify::default())
                .add(Gvn::default())
                .add(SimplifyCfg::default())
                .add(Dce::default()),
        );
        report.cleanup = pm.run(m);
        report.faults.extend(report.cleanup.faults.iter().cloned());
    }
    report.relaid = run_stage(m, &mut report.faults, "pgo-layout", move |m| {
        layout_by_profile(m, &shared)
    });
    if let Some(sopts) = &opts.spec {
        // Plan only — `compute_plan` takes `&Module` and never interns
        // constants, so the stored module's bytes are unaffected.
        report.spec_plan = Some(lpat_transform::speculate::compute_plan(
            m,
            &profile.to_spec_profile(),
            sopts,
        ));
    }
    report
}

/// One reoptimizer stage as a module pass; `count` receives how many
/// units (sites, functions) the stage changed.
struct Stage<F> {
    name: &'static str,
    run: F,
    count: Rc<Cell<usize>>,
}

impl<F: FnMut(&mut Module) -> usize> ModulePass for Stage<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, m: &mut Module, _cx: &mut PassContext) -> PassEffect {
        let n = (self.run)(m);
        self.count.set(n);
        PassEffect::from_change(n > 0, PreservedAnalyses::none())
    }
}

/// Run one stage alone through the pass manager. A stage rolled back
/// changed nothing and counts 0; its fault joins `faults`.
fn run_stage(
    m: &mut Module,
    faults: &mut Vec<PassFault>,
    name: &'static str,
    run: impl FnMut(&mut Module) -> usize + 'static,
) -> usize {
    let count = Rc::new(Cell::new(0));
    let mut pm = PassManager::new();
    pm.add(Stage {
        name,
        run,
        count: count.clone(),
    });
    faults.extend(pm.run(m).faults);
    count.get()
}

/// Inline call sites hotter than the threshold. Returns sites inlined.
pub fn inline_hot_sites(m: &mut Module, profile: &ProfileData, opts: &PgoOptions) -> usize {
    let mut inlined = 0;
    for (caller, site, count) in profile.hot_callsites(opts.hot_call_threshold) {
        if caller.index() >= m.num_funcs() {
            continue;
        }
        let f = m.func(caller);
        if f.is_declaration() || f.num_insts() >= opts.caller_cap {
            continue;
        }
        // The site must still exist (earlier inlining may have rewritten
        // the caller) and be a direct call to a small-enough definition.
        let inst_blocks = f.inst_blocks();
        let b = match inst_blocks.get(site.index()).copied().flatten() {
            Some(b) => b,
            None => continue,
        };
        let callee = match f.inst(site) {
            Inst::Call {
                callee: Value::Const(c),
                ..
            } => match m.consts.get(*c) {
                Const::FuncAddr(t) => *t,
                _ => continue,
            },
            _ => continue, // invoke sites are left to the static inliner
        };
        if callee == caller {
            continue;
        }
        let target = m.func(callee);
        if target.is_declaration()
            || target.is_varargs()
            || target.num_insts() > opts.max_callee_size
        {
            continue;
        }
        inline_site(m, caller, b, site, callee);
        inlined += 1;
        if trace::enabled() {
            trace::instant_args(
                "pgo",
                "hot-callsite",
                vec![
                    ("caller", m.func(caller).name().to_string()),
                    ("site", site.index().to_string()),
                    ("count", count.to_string()),
                ],
            );
        }
    }
    inlined
}

/// Reorder every profiled function's blocks so hot successors fall
/// through. Returns the number of functions re-laid.
pub fn layout_by_profile(m: &mut Module, profile: &ProfileData) -> usize {
    let mut relaid = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        let order = hot_layout_order(m, fid, profile);
        let identity: Vec<BlockId> = m.func(fid).block_ids().collect();
        if order != identity {
            m.func_mut(fid).permute_blocks(&order);
            relaid += 1;
            if trace::enabled() {
                trace::instant_args(
                    "pgo",
                    "relaid",
                    vec![("function", m.func(fid).name().to_string())],
                );
            }
        }
    }
    relaid
}

/// Compute a block order: greedy chains following the hottest outgoing
/// edge, seeded from the entry, then remaining blocks by hotness.
fn hot_layout_order(m: &Module, fid: FuncId, profile: &ProfileData) -> Vec<BlockId> {
    let f = m.func(fid);
    let n = f.num_blocks();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut seeds: Vec<BlockId> = f.block_ids().collect();
    // Hottest seeds first, but the entry block must lead.
    seeds.sort_by_key(|&b| {
        (
            b != f.entry(),
            std::cmp::Reverse(profile.block_count(fid, b)),
        )
    });
    for seed in seeds {
        let mut cur = seed;
        while !placed[cur.index()] {
            placed[cur.index()] = true;
            order.push(cur);
            // Follow the hottest not-yet-placed successor.
            let next = f
                .successors(cur)
                .into_iter()
                .filter(|s| !placed[s.index()])
                .max_by_key(|&s| profile.edge_count(fid, cur, s));
            match next {
                Some(s) => cur = s,
                None => break,
            }
        }
    }
    order
}
