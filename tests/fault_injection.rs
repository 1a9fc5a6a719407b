//! Fault isolation end-to-end: injected panics, timeouts, and
//! miscompiles must roll back cleanly, surface as structured
//! [`PassFault`]s, and leave the output byte-identical to skipping the
//! faulted pass — at any `--jobs` value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use lpat::asm::parse_module;
use lpat::bytecode::write_module;
use lpat::core::{FaultPlan, Module};
use lpat::transform::adce::Adce;
use lpat::transform::devirtualize::Devirtualize;
use lpat::transform::gvn::Gvn;
use lpat::transform::inline::Inline;
use lpat::transform::ipo::{Dae, Dge, Internalize, Ipcp};
use lpat::transform::licm::Licm;
use lpat::transform::mem2reg::Mem2Reg;
use lpat::transform::pm::FnPass;
use lpat::transform::prune_eh::PruneEh;
use lpat::transform::reassociate::Reassociate;
use lpat::transform::scalar::{Dce, InstSimplify};
use lpat::transform::simplifycfg::SimplifyCfg;
use lpat::transform::sroa::Sroa;
use lpat::transform::{
    function_pipeline, link_time_pipeline, FaultCause, FuncUnit, FunctionPass, FunctionPassAdapter,
    ModulePass, PassContext, PassEffect, PassManager, PipelineReport,
};

/// A miniature whole program: a helper worth inlining, a loop through
/// allocas, an unused function internalize+DGE can delete.
fn sample() -> Module {
    let m = parse_module(
        "t",
        "
@limit = global int 10
define int @square(int %x) {
e:
  %r = mul int %x, %x
  ret int %r
}
define int @sum_squares() {
e:
  %i = alloca int
  %s = alloca int
  store int 0, int* %i
  store int 0, int* %s
  br label %h
h:
  %iv = load int* %i
  %lim = load int* @limit
  %c = setlt int %iv, %lim
  br bool %c, label %b, label %x
b:
  %sq = call int @square(int %iv)
  %sv = load int* %s
  %s2 = add int %sv, %sq
  store int %s2, int* %s
  %i2 = add int %iv, 1
  store int %i2, int* %i
  br label %h
x:
  %r = load int* %s
  ret int %r
}
define int @unused_helper(int %a) {
e:
  ret int %a
}
define int @main() {
e:
  %v = call int @sum_squares()
  ret int %v
}",
    )
    .unwrap();
    m.verify().unwrap();
    m
}

fn plan(s: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(s).unwrap()))
}

#[test]
fn module_pass_panic_rolls_back_and_pipeline_continues() {
    let mut m = sample();
    let clean = m.display();
    let mut pm = PassManager::new();
    pm.add(FnPass::new("wreck", |m: &mut Module| -> bool {
        // Mutate, then die: the mutation must not survive.
        m.name.push('X');
        panic!("boom")
    }));
    pm.add(FnPass::new("tag", |_: &mut Module| true));
    let report = pm.run(&mut m);
    assert!(report.degraded());
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].pass, "wreck");
    assert!(report.faults[0].function.is_none());
    assert!(matches!(report.faults[0].cause, FaultCause::Panic(ref msg) if msg == "boom"));
    // Rolled back, and the pipeline still ran the next pass.
    assert_eq!(m.name, "t");
    assert_eq!(m.display(), clean);
    assert_eq!(report.passes.len(), 2);
    assert_eq!(report.passes[0].stats, "faulted; rolled back");
    assert!(!report.passes[0].changed);
    assert!(report.passes[1].changed);
}

/// Run [Internalize?, Dge] over `sample()` and return the resulting
/// text, bytecode, and fault count.
fn run_ipo(fault_plan: Option<&str>, with_internalize: bool) -> (String, Vec<u8>, usize) {
    let mut m = sample();
    let mut pm = PassManager::new();
    if with_internalize {
        pm.add(Internalize::default());
    }
    pm.add(Dge::default());
    if let Some(p) = fault_plan {
        pm.faults = plan(p);
    }
    let report = pm.run(&mut m);
    (m.display(), write_module(&m), report.faults.len())
}

#[test]
fn injected_panic_output_identical_to_skipping_the_pass() {
    let (skip_text, skip_bytes, n_skip) = run_ipo(None, false);
    let (fault_text, fault_bytes, n_fault) = run_ipo(Some("internalize:panic@1"), true);
    assert_eq!(n_skip, 0);
    assert_eq!(n_fault, 1);
    assert_eq!(fault_text, skip_text);
    assert_eq!(fault_bytes, skip_bytes);
    // The pass genuinely matters here, so the equality above is not
    // vacuous: with internalize intact, DGE can delete @unused_helper.
    let (full_text, _, _) = run_ipo(None, true);
    assert_ne!(full_text, skip_text);
    assert!(!full_text.contains("unused_helper"));
    assert!(skip_text.contains("unused_helper"));
}

/// Run the standard function pipeline with a fault plan and return the
/// output bytes plus (pass, function) for each isolated fault.
fn run_fn_pipeline(jobs: usize, fault_plan: &str) -> (Vec<u8>, Vec<(String, Option<String>)>) {
    let mut m = sample();
    let mut pm = function_pipeline();
    pm.jobs = Some(jobs);
    pm.faults = plan(fault_plan);
    let report = pm.run(&mut m);
    let faults = report
        .faults
        .iter()
        .map(|f| (f.pass.clone(), f.function.clone()))
        .collect();
    (write_module(&m), faults)
}

#[test]
fn unit_fault_is_deterministic_across_job_counts() {
    let (b1, f1) = run_fn_pipeline(1, "gvn:panic@2");
    let (b8, f8) = run_fn_pipeline(8, "gvn:panic@2");
    assert_eq!(f1.len(), 1);
    assert_eq!(f1, f8, "fault must land on the same unit at any -jobs");
    assert_eq!(f1[0].0, "gvn");
    assert!(f1[0].1.is_some(), "unit faults carry the function name");
    assert_eq!(b1, b8, "output must be byte-identical at any --jobs");
}

/// Build [mem2reg, gvn?, simplifycfg] as one function-pass stage.
fn run_units(with_gvn: bool, fault_plan: Option<&str>, jobs: usize) -> (Vec<u8>, usize) {
    let mut m = sample();
    let mut a = FunctionPassAdapter::new("units").add(Mem2Reg::default());
    if with_gvn {
        a = a.add(Gvn::default());
    }
    let a = a.add(SimplifyCfg::default());
    let mut pm = PassManager::new();
    pm.jobs = Some(jobs);
    pm.add(a);
    if let Some(p) = fault_plan {
        pm.faults = plan(p);
    }
    let report = pm.run(&mut m);
    (write_module(&m), report.faults.len())
}

#[test]
fn faulting_every_unit_equals_dropping_the_pass() {
    let (skip, n_skip) = run_units(false, None, 1);
    let (fault1, n1) = run_units(true, Some("gvn:panic"), 1);
    let (fault8, n8) = run_units(true, Some("gvn:panic"), 8);
    assert_eq!(n_skip, 0);
    assert!(n1 >= 1, "the unconditional plan must fire on every unit");
    assert_eq!(n1, n8);
    assert_eq!(fault1, skip, "all-units rollback == pipeline without gvn");
    assert_eq!(fault8, skip);
}

#[test]
fn suite_wide_fault_determinism() {
    for (name, m0) in lpat::workloads::compile_suite(0) {
        let run = |jobs: usize| {
            let mut m = m0.clone();
            let mut pm = function_pipeline();
            pm.jobs = Some(jobs);
            pm.faults = plan("instsimplify:panic@3,gvn:panic@1");
            let report = pm.run(&mut m);
            (write_module(&m), report.faults.len())
        };
        let (b1, n1) = run(1);
        let (b8, n8) = run(8);
        assert_eq!(b1, b8, "{name}: output differs across job counts");
        assert_eq!(n1, n8, "{name}: fault count differs across job counts");
    }
}

#[test]
fn blown_budget_rolls_back_with_timeout_fault() {
    let mut m = sample();
    let clean = m.display();
    let mut pm = PassManager::new();
    pm.budget = Some(Duration::from_millis(5));
    pm.faults = plan("slow:delay=60ms");
    pm.add(FnPass::new("slow", |m: &mut Module| {
        m.name.push('s');
        true
    }));
    let report = pm.run(&mut m);
    assert_eq!(report.faults.len(), 1);
    assert!(matches!(
        report.faults[0].cause,
        FaultCause::Timeout { budget } if budget == Duration::from_millis(5)
    ));
    assert_eq!(m.name, "t");
    assert_eq!(m.display(), clean);
}

#[test]
fn corrupt_injection_caught_by_verify_each_and_rolled_back() {
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.verify_each = true;
    pm.faults = plan("internalize:corrupt@1");
    pm.add(Internalize::default());
    let report = pm.run(&mut m);
    assert_eq!(report.faults.len(), 1);
    assert!(matches!(
        report.faults[0].cause,
        FaultCause::VerifyFailed(_)
    ));
    m.verify().unwrap();
    assert_eq!(m.display(), sample().display(), "rolled back to the input");

    // Without --verify-each the simulated miscompile flows downstream —
    // exactly the failure mode the flag exists to catch.
    let mut m2 = sample();
    let mut pm2 = PassManager::new();
    pm2.faults = plan("internalize:corrupt@1");
    pm2.add(Internalize::default());
    let r2 = pm2.run(&mut m2);
    assert!(r2.faults.is_empty());
    assert!(m2.verify().is_err());
}

#[test]
fn strict_mode_propagates_faults() {
    // Module-level panic propagates out of run().
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.degrade = false;
    pm.faults = plan("internalize:panic@1");
    pm.add(Internalize::default());
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());

    // A panic on a parallel worker is re-raised on the caller.
    let mut m = sample();
    let mut pm = function_pipeline();
    pm.degrade = false;
    pm.jobs = Some(4);
    pm.faults = plan("gvn:panic@1");
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());

    // A blown budget aborts instead of degrading.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.degrade = false;
    pm.budget = Some(Duration::from_millis(5));
    pm.faults = plan("slow:delay=60ms");
    pm.add(FnPass::new("slow", |_: &mut Module| false));
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());
}

/// Requests the dominator tree of every defined function, so its cache
/// row exposes hits vs. misses.
struct DomProbe;

impl ModulePass for DomProbe {
    fn name(&self) -> &'static str {
        "dom-probe"
    }
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let slots = cx.am.func_slots(m.num_funcs());
        for (i, id) in m.func_ids().enumerate() {
            let f = m.func(id);
            if !f.is_declaration() {
                let _ = slots[i].domtree(f);
            }
        }
        PassEffect::unchanged()
    }
}

#[test]
fn rollback_invalidates_cached_analyses() {
    // Baseline: with no fault in between, the second probe hits.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.add(DomProbe);
    pm.add(DomProbe);
    let r = pm.run(&mut m);
    assert!(r.passes[0].cache.misses > 0);
    assert_eq!(r.passes[1].cache.misses, 0);
    assert!(r.passes[1].cache.hits > 0);

    // A rolled-back pass in between must drop every cached analysis:
    // the restored module reuses version numbers, so stale entries
    // could ABA-collide with future versions.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.add(DomProbe);
    pm.add(FnPass::new("boom", |_: &mut Module| -> bool {
        panic!("kaboom")
    }));
    pm.add(DomProbe);
    let r = pm.run(&mut m);
    assert_eq!(r.faults.len(), 1);
    assert_eq!(r.passes[2].cache.hits, 0, "stale cache survived rollback");
    assert_eq!(r.passes[2].cache.misses, r.passes[0].cache.misses);
}

// ---------------------------------------------------------------------
// Rollback equivalence: a faulted unit leaves exactly what a pipeline
// built without that unit leaves.
// ---------------------------------------------------------------------

/// Several suite programs as units of one program: every defined function
/// of unit `i` is renamed `p<i>_…`, and a `main` unit calls each
/// `p<i>_main` (and defines one function nobody calls). Linked, not yet
/// optimized.
fn linked(picks: &[usize]) -> Module {
    let suite = lpat::workloads::compile_suite(0);
    let mut units = Vec::new();
    let (mut decls, mut calls) = (String::new(), String::new());
    for (i, &k) in picks.iter().enumerate() {
        let mut m = suite[k].1.clone();
        let defined: Vec<_> = m
            .func_ids()
            .filter(|&f| !m.func(f).is_declaration())
            .collect();
        for f in defined {
            let renamed = format!("p{i}_{}", m.func(f).name());
            m.rename_function(f, &renamed);
        }
        decls += &format!("extern int p{i}_main();\n");
        calls += &format!("  s = s + p{i}_main();\n");
        units.push(m);
    }
    // `spare` is there for DGE to delete.
    let main = format!(
        "{decls}int spare(int a) {{ return a + 1; }}\n\
         int main() {{\n  int s;\n  s = 0;\n{calls}  return s % 256;\n}}\n"
    );
    units.push(lpat::minic::compile("main", &main).unwrap());
    let m = lpat::linker::link(units, "linked").unwrap();
    m.verify().unwrap();
    m
}

/// gzip, gcc, perlbmk (calls through function pointers) and mcf.
const FOUR_UNITS: [usize; 4] = [0, 2, 10, 5];

/// One stage of a pipeline written down by pass name, so that it can be
/// rebuilt with a unit left out.
#[derive(Clone)]
enum Stage {
    Module(&'static str),
    Functions(&'static str, &'static [&'static str]),
}

/// `function_pipeline()` and `link_time_pipeline()`, by name
/// (`the_pipelines_by_name_are_the_real_ones` holds them to it).
const FUNCTION_OPTS: [Stage; 1] = [Stage::Functions(
    "function-opts",
    &[
        "sroa",
        "mem2reg",
        "instsimplify",
        "reassociate",
        "instsimplify",
        "gvn",
        "simplifycfg",
        "licm",
        "adce",
        "simplifycfg",
    ],
)];
const LINK_TIME: [Stage; 9] = [
    Stage::Module("internalize"),
    Stage::Module("devirtualize"),
    Stage::Module("ipcp"),
    Stage::Module("dae"),
    Stage::Module("dge"),
    Stage::Module("inline"),
    Stage::Module("prune-eh"),
    Stage::Functions(
        "cleanup",
        &[
            "sroa",
            "mem2reg",
            "instsimplify",
            "gvn",
            "instsimplify",
            "simplifycfg",
            "licm",
            "adce",
            "simplifycfg",
            "dce",
        ],
    ),
    Stage::Module("dge"),
];

/// A function pass that leaves one function alone.
struct Except {
    inner: Box<dyn FunctionPass>,
    skip: Option<String>,
}

impl FunctionPass for Except {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run_on(&self, u: &mut FuncUnit<'_>) -> PassEffect {
        if self.skip.as_deref() == Some(u.func.name()) {
            return PassEffect::unchanged();
        }
        self.inner.run_on(u)
    }
}

fn function_pass(name: &str) -> Box<dyn FunctionPass> {
    match name {
        "sroa" => Box::new(Sroa::default()),
        "mem2reg" => Box::new(Mem2Reg::default()),
        "instsimplify" => Box::new(InstSimplify::default()),
        "reassociate" => Box::new(Reassociate::default()),
        "gvn" => Box::new(Gvn::default()),
        "licm" => Box::new(Licm::default()),
        "simplifycfg" => Box::new(SimplifyCfg::default()),
        "adce" => Box::new(Adce::default()),
        "dce" => Box::new(Dce::default()),
        other => panic!("no function pass named {other}"),
    }
}

/// What to leave out of a pipeline: stage `.0` altogether, or only its
/// sub-pass `.1.0` on the function named `.1.1`.
type Skip = (usize, Option<(usize, String)>);

fn build(stages: &[Stage], skips: &[Skip]) -> PassManager {
    let mut pm = PassManager::new();
    for (si, stage) in stages.iter().enumerate() {
        if skips.contains(&(si, None)) {
            continue;
        }
        match stage {
            Stage::Module("internalize") => pm.add(Internalize::default()),
            Stage::Module("devirtualize") => pm.add(Devirtualize::default()),
            Stage::Module("ipcp") => pm.add(Ipcp::default()),
            Stage::Module("dae") => pm.add(Dae::default()),
            Stage::Module("dge") => pm.add(Dge::default()),
            Stage::Module("inline") => pm.add(Inline::default()),
            Stage::Module("prune-eh") => pm.add(PruneEh::default()),
            Stage::Module(other) => panic!("no module pass named {other}"),
            Stage::Functions(name, subs) => {
                let mut a = FunctionPassAdapter::new(name);
                for (pi, sub) in subs.iter().enumerate() {
                    let skip = skips.iter().find_map(|(s, unit)| match unit {
                        Some((p, f)) if (*s, *p) == (si, pi) => Some(f.clone()),
                        _ => None,
                    });
                    a = a.add(Except {
                        inner: function_pass(sub),
                        skip,
                    });
                }
                pm.add(a)
            }
        };
    }
    pm
}

#[test]
fn the_pipelines_by_name_are_the_real_ones() {
    let names = |r: &PipelineReport| -> Vec<(&'static str, Vec<&'static str>)> {
        (r.passes.iter())
            .map(|p| (p.name, p.sub.iter().map(|s| s.name).collect()))
            .collect()
    };
    let (mut a, mut b) = (linked(&FOUR_UNITS), linked(&FOUR_UNITS));
    let (ra, rb) = (
        function_pipeline().run(&mut a),
        build(&FUNCTION_OPTS, &[]).run(&mut b),
    );
    assert_eq!(names(&ra), names(&rb));
    assert_eq!(write_module(&a), write_module(&b));
    let (ra, rb) = (
        link_time_pipeline().run(&mut a),
        build(&LINK_TIME, &[]).run(&mut b),
    );
    assert_eq!(names(&ra), names(&rb));
    assert_eq!(write_module(&a), write_module(&b));
}

/// The three ways a unit can fault, as `--inject-faults` spells them and
/// with the flag each needs to be noticed.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Kind {
    Panic,
    /// `corrupt` + `--verify-each`.
    Corrupt,
    /// `delay` past `--pass-budget-ms`.
    Delay,
}

fn armed(stages: &[Stage], skips: &[Skip], kind: Kind, jobs: usize) -> PassManager {
    let mut pm = build(stages, skips);
    pm.jobs = Some(jobs);
    pm.verify_each = kind == Kind::Corrupt;
    pm
}

/// Every ordinal of pass `pass` in `stages` over `input`, under `kind`, at
/// `--jobs` 1 and 4: the bytes must equal those of the pipeline built
/// without whatever the report says was rolled back. Returns how many
/// ordinals there were.
fn every_ordinal(stages: &[Stage], input: &Module, pass: &str, kind: Kind) -> usize {
    // Where each ordinal lands. Nothing differs from a clean run before the
    // fault fires, so the clean run's function tables tell.
    let mut clean = input.clone();
    let report = build(stages, &[]).run(&mut clean);
    let mut units: Vec<Skip> = Vec::new();
    for (si, stage) in stages.iter().enumerate() {
        match stage {
            Stage::Module(name) if *name == pass => units.push((si, None)),
            Stage::Module(_) => {}
            Stage::Functions(_, subs) => {
                for (pi, _) in subs.iter().enumerate().filter(|(_, s)| **s == pass) {
                    for f in &report.passes[si].functions {
                        units.push((si, Some((pi, f.name.clone()))));
                    }
                }
            }
        }
    }
    for (n, unit) in units.iter().enumerate() {
        let spec = match kind {
            Kind::Panic => format!("{pass}:panic@{}", n + 1),
            Kind::Corrupt => format!("{pass}:corrupt@{}", n + 1),
            Kind::Delay => format!("{pass}:delay=60ms@{}", n + 1),
        };
        for jobs in [1, 4] {
            let mut faulted = input.clone();
            let mut pm = armed(stages, &[], kind, jobs);
            pm.faults = plan(&spec);
            if kind == Kind::Delay {
                pm.budget = Some(Duration::from_millis(30));
            }
            let report = pm.run(&mut faulted);
            // Whole stages the manager rolled back (a module pass; or a
            // function-pass stage that a corrupted or delayed unit took
            // down with it — or, under the budget, a slow machine).
            let mut skips: Vec<Skip> = (report.passes.iter().enumerate())
                .filter(|(_, p)| p.stats == "faulted; rolled back")
                .map(|(si, _)| (si, None))
                .collect();
            if kind == Kind::Panic {
                // A panic is contained where it happened, and reported.
                let expected: Vec<_> = match unit {
                    (_, None) => vec![(pass.to_string(), None)],
                    (_, Some((_, f))) => vec![(pass.to_string(), Some(f.clone()))],
                };
                let got: Vec<_> = (report.faults.iter())
                    .map(|f| (f.pass.clone(), f.function.clone()))
                    .collect();
                assert_eq!(got, expected, "{spec} --jobs {jobs}");
                match unit {
                    (si, None) => assert_eq!(skips, [(*si, None)], "{spec}"),
                    unit => {
                        assert_eq!(skips, [], "{spec}");
                        skips.push(unit.clone());
                    }
                }
            } else if let (si, None) = unit {
                assert!(skips.contains(&(*si, None)), "{spec}: not rolled back");
            }
            let mut without = input.clone();
            let r = armed(stages, &skips, kind, jobs).run(&mut without);
            assert!(r.faults.is_empty(), "{spec}: the reference faulted");
            assert_eq!(
                write_module(&faulted),
                write_module(&without),
                "{spec} --jobs {jobs}: not what the pipeline without {skips:?} leaves"
            );
        }
    }
    units.len()
}

/// One leg per pass name (`LPAT_FAULTS_MATRIX`, as for the subprocess
/// matrix; `gvn` and `inline` without it).
#[test]
fn every_unit_rolls_back_to_the_pipeline_without_it() {
    let raw = linked(&FOUR_UNITS);
    let mut optimized = raw.clone();
    function_pipeline().run(&mut optimized);
    for pass in matrix_passes().into_iter().filter(|p| !p.contains('.')) {
        let mut ordinals = 0;
        for kind in [Kind::Panic, Kind::Corrupt, Kind::Delay] {
            ordinals = every_ordinal(&FUNCTION_OPTS, &raw, &pass, kind)
                + every_ordinal(&LINK_TIME, &optimized, &pass, kind);
        }
        assert!(ordinals > 0, "no pass named {pass} in either pipeline");
    }
}

/// What the matrix above cannot reach one ordinal at a time.
#[test]
fn rollback_corner_cases() {
    let raw = linked(&FOUR_UNITS);
    let run = |stages: &[Stage], input: &Module, skips: &[Skip], spec: Option<&str>, jobs| {
        let mut m = input.clone();
        // `--verify-each` on throughout, so a `corrupt` is noticed.
        let mut pm = armed(stages, skips, Kind::Corrupt, jobs);
        pm.faults = spec.and_then(plan);
        let report = pm.run(&mut m);
        (write_module(&m), report)
    };
    let (_, clean) = run(&FUNCTION_OPTS, &raw, &[], None, 1);
    let funcs = &clean.passes[0].functions;
    let n = funcs.len();
    // A function every sub-pass has something to do in.
    let (k, victim) = (funcs.iter().enumerate())
        .find(|(_, f)| f.name == "p1_main")
        .map(|(k, f)| (k, f.name.clone()))
        .unwrap();
    let unit = |pi: usize| -> Skip { (0, Some((pi, victim.clone()))) };
    for jobs in [1, 4] {
        // Two faults in one function's pipeline: sub-passes 3 and 8.
        let spec = format!("reassociate:panic@{},adce:panic@{}", k + 1, k + 1);
        let (faulted, r) = run(&FUNCTION_OPTS, &raw, &[], Some(&spec), jobs);
        assert_eq!(r.faults.len(), 2);
        let (without, _) = run(&FUNCTION_OPTS, &raw, &[unit(3), unit(8)], None, jobs);
        assert_eq!(faulted, without, "{spec}");
        // The first sub-pass, and the last (the second `simplifycfg`).
        let spec = format!("sroa:panic@{},simplifycfg:panic@{}", k + 1, n + k + 1);
        let (faulted, r) = run(&FUNCTION_OPTS, &raw, &[], Some(&spec), jobs);
        assert_eq!(r.faults.len(), 2);
        let (without, _) = run(&FUNCTION_OPTS, &raw, &[unit(0), unit(9)], None, jobs);
        assert_eq!(faulted, without, "{spec}");
        // A simulated miscompile nothing later cleans up (the last
        // sub-pass) beside a panic in the same function: the replay must
        // leave the miscompile behind again for `--verify-each` to take
        // the stage down.
        let spec = format!("simplifycfg:corrupt@{},gvn:panic@{}", n + k + 1, k + 1);
        let (faulted, r) = run(&FUNCTION_OPTS, &raw, &[], Some(&spec), jobs);
        assert!(matches!(r.faults[0].cause, FaultCause::VerifyFailed(_)));
        assert_eq!(faulted, write_module(&raw), "{spec}");
    }

    // Module passes that had already edited the function table when they
    // were rolled back: DAE appends rewritten functions and deletes the
    // originals, DGE and the inliner delete.
    let mut optimized = raw.clone();
    function_pipeline().run(&mut optimized);
    let (_, clean) = run(&LINK_TIME, &optimized, &[], None, 1);
    for (si, name) in [(3, "dae"), (4, "dge"), (5, "inline")] {
        assert!(clean.passes[si].changed, "{name} has nothing to do here");
        let spec = format!("{name}:corrupt@1");
        let (faulted, r) = run(&LINK_TIME, &optimized, &[], Some(&spec), 1);
        assert_eq!(r.faults.len(), 1, "{spec}");
        assert!(matches!(r.faults[0].cause, FaultCause::VerifyFailed(_)));
        let (without, _) = run(&LINK_TIME, &optimized, &[(si, None)], None, 1);
        assert_eq!(faulted, without, "{spec}");
    }
}

/// What the fault boundary costs is what the passes write: a rollback
/// point shares every body, so a pass that changes nothing copies nothing,
/// and a whole pipeline copies each function a small number of times —
/// not once per pass (ten module passes: the module times ten) and once
/// more per sub-pass.
#[test]
fn rollback_points_cost_what_the_passes_write() {
    for (name, mut m) in lpat::workloads::compile_suite(60) {
        let entered = m.total_insts() as u64;
        let front = function_pipeline().run(&mut m);
        let copied: u64 = front.passes.iter().map(|p| p.copied_insts).sum();
        assert!(copied <= entered, "{name}: {copied} of {entered}");
        let held = m.total_insts() as u64;
        let link = link_time_pipeline().run(&mut m);
        let copied: u64 = link.passes.iter().map(|p| p.copied_insts).sum();
        assert!(copied < 3 * held, "{name}: {copied} of {held}");
        for p in front.passes.iter().chain(&link.passes) {
            assert!(
                p.copied_insts >= p.sub.iter().map(|s| s.copied_insts).sum::<u64>(),
                "{name}: {} copied less than its sub-passes",
                p.name
            );
            for row in std::iter::once(p).chain(&p.sub).filter(|r| !r.changed) {
                assert_eq!(
                    (row.copied_funcs, row.copied_insts),
                    (0, 0),
                    "{name}: {} changed nothing",
                    row.name
                );
            }
        }
    }
    // Strict mode takes no rollback point, so nothing is shared.
    let mut pm = function_pipeline();
    pm.degrade = false;
    let mut m = linked(&FOUR_UNITS);
    let report = pm.run(&mut m);
    assert!(report.changed() && report.passes.iter().all(|p| p.copied_funcs == 0));
}

// ---------------------------------------------------------------------
// Subprocess tests: the lpatc driver under LPAT_FAULTS / --inject-faults.
// ---------------------------------------------------------------------

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Passes to fault in the subprocess matrix. CI overrides this with
/// `LPAT_FAULTS_MATRIX=<pass>` to run one leg per transform pass.
fn matrix_passes() -> Vec<String> {
    match std::env::var("LPAT_FAULTS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v.split(',').map(|s| s.trim().to_string()).collect(),
        _ => vec!["gvn".to_string(), "inline".to_string()],
    }
}

#[test]
fn lpatc_degrades_cleanly_under_fault_matrix() {
    // Runtime fault sites (dotted names like `native.translate`) have
    // their own matrix test below; this one injects into optimizer passes.
    for pass in matrix_passes().into_iter().filter(|p| !p.contains('.')) {
        for (name, m) in lpat::workloads::compile_suite(0) {
            let input = tmp(&format!("fi-{pass}-{name}.bc"));
            std::fs::write(&input, write_module(&m)).unwrap();
            let mut outputs = Vec::new();
            for jobs in ["1", "8"] {
                let out_path = tmp(&format!("fi-{pass}-{name}-j{jobs}.bc"));
                let out = lpatc()
                    .args([
                        "opt",
                        input.to_str().unwrap(),
                        "--link-pipeline",
                        "-o",
                        out_path.to_str().unwrap(),
                        "--emit",
                        "bc",
                        "--jobs",
                        jobs,
                    ])
                    .env("LPAT_FAULTS", format!("{pass}:panic@1"))
                    .output()
                    .unwrap();
                assert!(
                    out.status.success(),
                    "lpatc died on {pass}/{name}:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    stderr.matches("isolated fault").count(),
                    1,
                    "{pass}/{name} --jobs {jobs}: expected exactly one isolated \
                     fault, stderr:\n{stderr}"
                );
                outputs.push(std::fs::read(&out_path).unwrap());
            }
            assert_eq!(
                outputs[0], outputs[1],
                "{pass}/{name}: output differs across --jobs"
            );
        }
    }
}

/// Runtime fault-site matrix: `native.translate` (the single-pass machine
/// code backend fails — the function is permanently demoted to the JIT
/// tier and the answer is unchanged). CI runs one leg per job via
/// `LPAT_FAULTS_MATRIX=<site>`; locally all legs run.
#[test]
fn lpatc_vm_fault_sites_degrade_cleanly() {
    let sites: Vec<String> = match std::env::var("LPAT_FAULTS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| s.contains('.'))
            .collect(),
        _ => vec!["native.translate".to_string()],
    };
    if sites.is_empty() {
        return; // a transform-pass leg; nothing to do here
    }
    let src = "
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @disp(int (int)* @alpha, int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %w = call int @disp(int (int)* @beta, int 5)
  %t = add int %s, %w
  %m = rem int %t, 97
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("fi-vm-sites.ll");
    std::fs::write(&p, src).unwrap();
    let seed = lpatc().arg("run").arg(&p).arg("--quiet").output().unwrap();
    assert!(seed.status.code().is_some());
    for site in sites {
        match site.as_str() {
            "native.translate" => {
                // The machine-code backend fails on every candidate: each
                // hot function is permanently demoted to the JIT tier, no
                // native instructions ever retire, and the answer is
                // unchanged.
                let out = lpatc()
                    .arg("run")
                    .arg(&p)
                    .args(["--tier-up", "1", "--native-up", "1", "--stats"])
                    .args(["--inject-faults", "native.translate:io", "--quiet"])
                    .output()
                    .unwrap();
                assert_eq!(seed.status.code(), out.status.code());
                assert_eq!(seed.stdout, out.stdout, "demoted run changed the answer");
                let stderr = String::from_utf8_lossy(&out.stderr);
                let row = |label: &str| -> u64 {
                    stderr
                        .lines()
                        .find(|l| l.trim_start().starts_with(label))
                        .and_then(|l| l.split_whitespace().find_map(|w| w.parse::<u64>().ok()))
                        .unwrap_or_else(|| panic!("no `{label}` row in stats:\n{stderr}"))
                };
                assert!(
                    row("native demoted") >= 1,
                    "translate fault never demoted:\n{stderr}"
                );
                assert_eq!(
                    row("native insts"),
                    0,
                    "faulted backend still ran machine code:\n{stderr}"
                );
            }
            other => panic!("unknown runtime fault site {other}"),
        }
    }
}

/// The reoptimizer's stages run on the pass manager: `pgo-inline:panic`
/// or `pgo-layout:panic` rolls back that stage alone, and `lpatc reopt`
/// still exits 0 and writes a module that verifies. CI runs one leg per
/// site via `LPAT_FAULTS_MATRIX=<site>`; locally both run.
#[test]
fn lpatc_reopt_isolates_a_faulting_pgo_stage() {
    let sites: Vec<String> = match std::env::var("LPAT_FAULTS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| s.starts_with("pgo-"))
            .collect(),
        _ => vec!["pgo-inline".to_string(), "pgo-layout".to_string()],
    };
    let src = "
declare void @print_int(int)
define internal int @step(int %x) {
e:
  %odd = rem int %x, 2
  %c = seteq int %odd, 0
  br bool %c, label %even, label %other
even:
  %h = div int %x, 2
  ret int %h
other:
  %t = mul int %x, 3
  %u = add int %t, 1
  ret int %u
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @step(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";
    for site in sites {
        let cache = tmp(&format!("fi-{site}-cache"));
        let _ = std::fs::remove_dir_all(&cache);
        let prog = tmp(&format!("fi-{site}.ll"));
        let out_path = tmp(&format!("fi-{site}-out.bc"));
        std::fs::write(&prog, src).unwrap();
        let run = lpatc()
            .arg("run")
            .arg(&prog)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--quiet")
            .output()
            .unwrap();
        assert!(run.status.code().is_some());
        let out = lpatc()
            .arg("reopt")
            .arg(&prog)
            .arg("--cache-dir")
            .arg(&cache)
            .args(["--inject-faults", &format!("{site}:panic")])
            .args(["--emit", "bc", "-o"])
            .arg(&out_path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{site}: reopt failed:\n{stderr}");
        assert!(
            stderr.contains(&format!("isolated fault: pass '{site}'")),
            "{site}: no isolated fault reported:\n{stderr}"
        );
        // The rolled-back stage changed nothing; a clean reopt of this
        // profile inlines 1 site and re-lays 2 functions.
        let counts = match site.as_str() {
            "pgo-inline" => "inlined 0 hot sites, re-laid 1 functions",
            "pgo-layout" => "inlined 1 hot sites, re-laid 0 functions",
            other => panic!("unknown reoptimizer fault site {other}"),
        };
        assert!(stderr.contains(counts), "{site}:\n{stderr}");
        let bytes = std::fs::read(&out_path).unwrap();
        let m = lpat::bytecode::read_module("reopt", &bytes).unwrap();
        m.verify().unwrap();
    }
}

/// The faults one plan isolates, as `lpatc` reports them (the
/// `PipelineReport::faults` rows on stderr) and as the trace records them
/// (`fault` instants), at `--jobs` 1 and 4. The seven faults were captured
/// from the implementation that took a deep copy of the function before
/// every sub-pass (the commit before rollback points became shared
/// structure), with the same command line. The output bytes hash to
/// `BYTES` from the commit after 8008f9e, where miniC builds SSA itself
/// (before it, from the commit after 631818c, where GVN answers loads
/// across blocks and loops and `licm` joins both pipelines); the faults
/// are the same seven.
#[test]
fn lpatc_reports_the_same_faults_as_the_deep_copy_implementation() {
    const PLAN: &str = "mem2reg:panic@3,gvn:panic@12,simplifycfg:panic@30,adce:panic@12,\
                        dae:panic@1,dge:panic@2,instsimplify:panic@40";
    const FAULTS: [(&str, Option<&str>); 7] = [
        ("mem2reg", Some("p0_encode")),
        ("simplifycfg", Some("p1_make_int")),
        ("gvn", Some("p2_new_int_sv")),
        ("adce", Some("p2_new_int_sv")),
        ("instsimplify", Some("p2_op_xor")),
        ("dae", None),
        ("dge", None),
    ];
    const BYTES: u64 = 0xa61d_7196_56f5_b250;
    let input = tmp("fi-pinned.bc");
    std::fs::write(&input, write_module(&linked(&FOUR_UNITS))).unwrap();
    for jobs in ["1", "4"] {
        let (out_path, trace_path) = (
            tmp(&format!("fi-pinned-j{jobs}.bc")),
            tmp(&format!("fi-pinned-j{jobs}.json")),
        );
        let out = lpatc()
            .args(["opt", input.to_str().unwrap(), "-O", "--link-pipeline"])
            .args(["--jobs", jobs, "--inject-faults", PLAN])
            .args(["--trace-out", trace_path.to_str().unwrap()])
            .args(["--trace-clock", "virtual", "--emit", "bc", "-o"])
            .arg(&out_path)
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let reported: Vec<(String, Option<String>)> = stderr
            .lines()
            .filter_map(|l| l.split_once("isolated fault: pass '"))
            .map(|(_, rest)| {
                let (pass, rest) = rest.split_once('\'').unwrap();
                let function = rest
                    .strip_prefix(" on @")
                    .map(|r| r.split_once(':').unwrap().0.to_string());
                (pass.to_string(), function)
            })
            .collect();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let field = |ev: &str, key: &str| -> Option<String> {
            let (_, rest) = ev.split_once(&format!("\"{key}\":\""))?;
            Some(rest.split_once('"').unwrap().0.to_string())
        };
        let instants: Vec<(String, Option<String>)> = trace
            .split("{\"name\":")
            .filter(|ev| ev.contains("\"cat\":\"fault\""))
            .map(|ev| {
                let name = ev.split('"').nth(1).unwrap().to_string();
                assert!(field(ev, "cause").unwrap().starts_with("panic: injected"));
                (name, field(ev, "function"))
            })
            .collect();
        let expected: Vec<(String, Option<String>)> = FAULTS
            .iter()
            .map(|(p, f)| (p.to_string(), f.map(str::to_string)))
            .collect();
        assert_eq!(reported, expected, "--jobs {jobs}:\n{stderr}");
        assert_eq!(instants, expected, "--jobs {jobs}");
        let bytes = std::fs::read(&out_path).unwrap();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, BYTES, "--jobs {jobs}: {hash:#018x}");
    }
}

#[test]
fn lpatc_inject_faults_flag_matches_env_behavior() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-flag-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args([
            "opt",
            input.to_str().unwrap(),
            "--inject-faults",
            "gvn:panic@1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("isolated fault").count(), 1, "{stderr}");
}

#[test]
fn lpatc_no_degrade_makes_injected_fault_fatal() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-strict-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args([
            "opt",
            input.to_str().unwrap(),
            "--no-degrade",
            "--inject-faults",
            "gvn:panic@1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn lpatc_reports_bytecode_read_fault_gracefully() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-read-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args(["dis", input.to_str().unwrap()])
        .env("LPAT_FAULTS", "bytecode.read:panic@1")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "graceful error exit, not a crash"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault"), "{stderr}");
}
