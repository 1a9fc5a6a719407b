//! `lifelong-cycle` — the paper's distinguishing loop (§3.5–3.6) on four
//! profile-sensitive programs. One operation, on a fresh store, does what
//! a user of `lpatc run/reopt --cache-dir` does over a program's life:
//! a profiled first-generation run whose profile is flushed to the store;
//! idle-time reoptimization from the stored profile (`reoptimize` + `-O`),
//! saved to the store; then three second-generation runs that load the
//! reoptimized module, speculate on its accumulated profile, install the
//! guards, warm-start the tiers, run, and flush again. It is the workload
//! that uses `vm` with profiling on, `transform` at run time, and `store`
//! writes beside reads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use lpat_core::Module;
use lpat_transform::SpecOptions;
use lpat_vm::{module_hash, FlushGuard, FlushOutcome, PgoOptions, Store, Vm};

use super::{count_report, count_tiers, maybe_corrupt, ran, tiered_options, Program, Ran};
use crate::harness::run::{put_overhead, Config, Facts, PassOutcome, Sample, Workload};
use crate::harness::span::Tracer;
use crate::inputs::{kernels, spec15};

/// Second-generation runs per operation.
const GEN2_RUNS: usize = 3;

/// The workload's state.
pub struct Lifelong {
    programs: Vec<Program>,
    /// Parent of the per-operation store directories.
    dir: PathBuf,
}

fn read(tr: &mut Tracer, p: &Program) -> Result<Module, String> {
    tr.span("bytecode.read", |_| {
        lpat_bytecode::read_module(&p.name, &p.bytes)
    })
    .map_err(|e| format!("{}: {e}", p.name))
}

/// One stored, profiled, tiered run of `m` — `lpatc run --cache-dir
/// --tiered --speculate`: speculate and warm-start from the profile the
/// store holds for exactly these module bytes, run, flush this run's
/// profile.
fn stored_run(
    tr: &mut Tracer,
    exec_span: &'static str,
    mut m: Module,
    store: &Store,
) -> Result<Ran, String> {
    let hash = tr.span("vm.store.module_hash", |_| module_hash(&m));
    let prior = tr
        .span("vm.store.load_profile", |_| store.load_profile(hash))
        .map_err(|e| e.to_string())?
        .value;
    let mut spec = None;
    if let Some(sp) = &prior {
        let (map, plan) = tr.span("transform.speculate", |_| {
            lpat_transform::speculate::speculate(
                &mut m,
                &sp.profile.to_spec_profile(),
                &SpecOptions::default(),
            )
        });
        tr.span("core.verify", |_| m.verify())
            .map_err(|e| format!("verifier after speculation: {}", e[0]))?;
        tr.count("transform.guards_emitted", plan.emitted() as f64);
        spec = Some((Rc::new(map), plan));
    }
    let mut vm = tr
        .span("vm.new", |_| Vm::new(&m, tiered_options(true)))
        .map_err(|e| e.to_string())?;
    if let Some((map, plan)) = &spec {
        vm.install_speculation(map.clone(), plan.emitted() as u64, plan.retracted() as u64);
    }
    if let Some(sp) = &prior {
        tr.span("vm.warm_start", |_| vm.warm_start(&sp.profile));
    }
    let mut flush = FlushGuard::new(Some(store), hash);
    let result = tr.span(exec_span, |_| vm.run_main_tiered());
    flush.set_delta(vm.profile.clone());
    if let FlushOutcome::Failed(e) = tr.span("vm.store.record_run", |_| flush.flush()) {
        return Err(format!("profile flush: {e}"));
    }
    count_tiers(tr, &vm.tier_stats, vm.insts_executed);
    tr.count("_guards_passed", vm.spec_stats.passed as f64);
    tr.count("_guards_failed", vm.spec_stats.failed as f64);
    tr.count("vm.deopts", vm.spec_stats.deopts as f64);
    ran(&vm, result)
}

/// The operation. Returns the instructions its four runs executed, or the
/// first thing that went wrong (a wrong output included).
fn cycle(tr: &mut Tracer, p: &Program, dir: &Path) -> Result<u64, String> {
    let check = |r: Ran, what: &str| {
        if r.matches(&p.oracle) {
            Ok(r.insts)
        } else {
            Err(format!("{}: {what} run disagrees with the oracle", p.name))
        }
    };
    let store = tr
        .span("vm.store.open", |_| Store::open(dir))
        .map_err(|e| e.to_string())?;

    // Generation 1: the shipped program, profiled.
    let m = read(tr, p)?;
    let hash = tr.span("vm.store.module_hash", |_| module_hash(&m));
    let mut insts = check(
        stored_run(tr, "vm.gen1_exec", m, &store)?,
        "first-generation",
    )?;

    // Idle time: reoptimize the shipped program from its stored profile.
    let mut re = read(tr, p)?;
    let profile = tr
        .span("vm.store.load_profile", |_| store.load_profile(hash))
        .map_err(|e| e.to_string())?
        .value
        .ok_or("the first run's profile is not in the store")?;
    let report = tr.span("vm.pgo_reoptimize", |_| {
        lpat_vm::reoptimize(&mut re, &profile.profile, &PgoOptions::default())
    });
    tr.count("vm.pgo_inlined", report.inlined as f64);
    count_report(tr, &report.cleanup);
    let report = tr.span("transform.fpm", |_| {
        lpat_transform::function_pipeline().run(&mut re)
    });
    count_report(tr, &report);
    tr.span("core.verify", |_| re.verify())
        .map_err(|e| format!("verifier after reoptimization: {}", e[0]))?;
    tr.span("vm.store.save_reopt", |_| store.save_reopt(hash, &re))
        .map_err(|e| e.to_string())?;

    // Generation 2: every later run finds the reoptimized module.
    for _ in 0..GEN2_RUNS {
        let shipped = read(tr, p)?;
        let hash = tr.span("vm.store.module_hash", |_| module_hash(&shipped));
        let cached = tr
            .span("vm.store.load_reopt", |_| store.load_reopt(hash, &p.name))
            .map_err(|e| e.to_string())?
            .value
            .ok_or("the reoptimized module is not in the store")?;
        insts += check(
            stored_run(tr, "vm.gen2_exec", cached, &store)?,
            "second-generation",
        )?;
    }
    Ok(insts)
}

impl Lifelong {
    fn store_dir(&self, class: usize) -> Result<PathBuf, String> {
        let dir = self.dir.join(format!("store{class}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Workload for Lifelong {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let (dispatch_scale, iters) = if cfg.smoke { (1, 2_000) } else { (18, 120_000) };
        let dispatch = &kernels::all()[5];
        assert_eq!(dispatch.name, "dispatch");
        let (const_src, const_oracle) = kernels::const_arg(iters, cfg.seed);
        let (branch_src, branch_oracle) = kernels::hot_cold(iters, cfg.seed);
        let perl = spec15::programs(0)
            .into_iter()
            .find(|p| p.0 == "253.perlbmk")
            .expect("suite has 253.perlbmk");
        let mut programs = vec![
            Program::build_unit(
                "dispatch",
                &(dispatch.source)(dispatch_scale, cfg.seed),
                (dispatch.expected)(dispatch_scale, cfg.seed),
            )?,
            Program::build_unit("const-arg", &const_src, const_oracle)?,
            Program::build_unit("hot-cold", &branch_src, branch_oracle)?,
            Program::build_unit(perl.0, &perl.1, perl.2)?,
        ];
        maybe_corrupt(cfg.corrupt_oracle, &mut programs[0].oracle);
        let mut w = Lifelong {
            programs,
            dir: cfg.scratch("stores")?,
        };
        // Golden check: one full cycle of every program, untimed.
        let check = w.pass(&mut Tracer::new(false, Instant::now()));
        if check.failed > 0 {
            w.teardown();
            return Err(format!(
                "lifelong-cycle: {} of {} cycles failed their oracle",
                check.failed,
                check.samples.len()
            ));
        }
        Ok(w)
    }

    fn classes(&self) -> Vec<String> {
        self.programs.iter().map(|p| p.name.clone()).collect()
    }

    fn facts(&self) -> Facts {
        Facts {
            bytecode_bytes: self.programs.iter().map(|p| p.bytes.len() as u64).sum(),
            native_bytes: self.programs.iter().map(|p| p.native_bytes).sum(),
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let mut out = PassOutcome::default();
        for (class, p) in self.programs.iter().enumerate() {
            tr.set_op(class as u32);
            // The fresh store is made before the clock starts: emptying
            // the previous one is the harness's work, not the cycle's.
            let dir = self.store_dir(class);
            let t = Instant::now();
            let got = dir.and_then(|d| tr.span("bench.op", |tr| cycle(tr, p, &d)));
            out.samples.push(Sample {
                class,
                ms: t.elapsed().as_secs_f64() * 1e3,
            });
            match got {
                Ok(insts) => out.insts += insts,
                Err(e) => {
                    eprintln!("lpbench: {e}");
                    out.failed += 1;
                }
            }
        }
        out
    }

    /// What collecting a profile costs: each program run with and without
    /// instrumentation, alternating, five times.
    fn extras(&mut self, _untraced: &[f64], layer: &mut BTreeMap<String, f64>) {
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            for (profile, walls) in [(true, &mut with), (false, &mut without)] {
                let mut secs = 0.0;
                for p in &self.programs {
                    let m =
                        lpat_bytecode::read_module(&p.name, &p.bytes).expect("checked in set-up");
                    let mut vm = Vm::new(&m, tiered_options(profile)).expect("checked in set-up");
                    let t = Instant::now();
                    let _ = vm.run_main_tiered();
                    secs += t.elapsed().as_secs_f64();
                }
                walls.push(secs);
            }
        }
        put_overhead(layer, "vm.profile_overhead_pct", &with, &without);
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
