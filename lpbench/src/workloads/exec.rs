//! `exec-hot` and `exec-startup` — the same operation (optimized bytecode
//! bytes → `read_module` → `Vm::new` → three-tier run → output) used two
//! ways. `exec-hot` runs the eight kernels at full size once per pass:
//! steady-state execution, nearly all wall time inside the engines.
//! `exec-startup` runs the fifteen `spec15` programs many times per pass,
//! each run cold: thousands of short runs where decode, `Vm::new` and
//! translation are a large share, so a change that buys `exec-hot`
//! throughput with costlier translation shows here as a loss.

use std::collections::BTreeMap;
use std::time::Instant;

use lpat_vm::{Vm, VmOptions};

use super::{exec_op, maybe_corrupt, ran, Program};
use crate::harness::run::{put_overhead, Config, Facts, PassOutcome, Sample, Workload};
use crate::harness::span::Tracer;
use crate::inputs::{kernels, spec15, Rng};

/// One way of running `main` to completion.
type Engine = fn(&mut Vm) -> Result<i64, lpat_vm::ExecError>;

/// The workload's state.
pub struct Exec {
    /// In the order a sweep visits them, which the seed draws.
    programs: Vec<Program>,
    /// Cold runs of each program per pass.
    reps: usize,
    hot: bool,
}

impl Exec {
    fn run_all(&self, tr: &mut Tracer) -> PassOutcome {
        let mut out = PassOutcome::default();
        // Sweep the program list `reps` times rather than repeating each
        // program in place, so no run finds its predecessor's data warm.
        for rep in 0..self.reps {
            for (class, p) in self.programs.iter().enumerate() {
                tr.set_op((rep * self.programs.len() + class) as u32);
                let t = Instant::now();
                let got = tr.span("bench.op", |tr| exec_op(tr, &p.name, &p.bytes));
                out.samples.push(Sample {
                    class,
                    ms: t.elapsed().as_secs_f64() * 1e3,
                });
                match got {
                    Ok(r) if r.matches(&p.oracle) => out.insts += r.insts,
                    _ => out.failed += 1,
                }
            }
        }
        out
    }

    /// Throughput of each engine on its own, over all programs: one run
    /// per program per engine.
    fn pure_engines(&self, layer: &mut BTreeMap<String, f64>) {
        let engines: [(&str, Engine, VmOptions); 3] = [
            (
                "vm.interp_minsts_per_s",
                |vm| vm.run_main(),
                VmOptions::default(),
            ),
            (
                "vm.jit_minsts_per_s",
                |vm| vm.run_main_jit(),
                VmOptions::default(),
            ),
            (
                "vm.native_minsts_per_s",
                |vm| vm.run_main_tiered(),
                VmOptions {
                    tier_up: 0,
                    native_up: Some(0),
                    ..VmOptions::default()
                },
            ),
        ];
        for (metric, run, opts) in engines {
            let (mut insts, mut secs) = (0u64, 0.0f64);
            for p in &self.programs {
                let m = lpat_bytecode::read_module(&p.name, &p.bytes).expect("checked in set-up");
                let mut vm = Vm::new(&m, opts.clone()).expect("checked in set-up");
                let t = Instant::now();
                let result = run(&mut vm);
                secs += t.elapsed().as_secs_f64();
                match ran(&vm, result) {
                    Ok(r) if r.matches(&p.oracle) => insts += r.insts,
                    // A wrong answer has no throughput.
                    _ => return,
                }
            }
            layer.insert(metric.to_string(), insts as f64 / secs / 1e6);
        }
    }
}

impl Workload for Exec {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let hot = cfg.workload == "exec-hot";
        let mut programs = Vec::new();
        if hot {
            for k in kernels::all() {
                let scale = if cfg.smoke { 1 } else { k.full_scale };
                programs.push(Program::build(
                    k.name,
                    &(k.source)(scale, cfg.seed),
                    (k.expected)(scale, cfg.seed),
                )?);
            }
        } else {
            for (name, src, oracle) in spec15::programs(0) {
                programs.push(Program::build(name, &src, oracle)?);
            }
        }
        maybe_corrupt(cfg.corrupt_oracle, &mut programs[0].oracle);
        let mut rng = Rng::new(cfg.seed, 0x65_78_65_63);
        for i in (1..programs.len()).rev() {
            programs.swap(i, rng.below(i + 1));
        }
        let reps = match (hot, cfg.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 80,
        };
        let w = Exec {
            programs,
            reps: 1,
            hot,
        };
        // Golden check: one run of everything before anything is timed.
        let check = w.run_all(&mut Tracer::new(false, Instant::now()));
        if check.failed > 0 {
            return Err(format!(
                "{}: {} of {} programs disagree with their oracles",
                cfg.workload,
                check.failed,
                check.samples.len()
            ));
        }
        Ok(Exec { reps, ..w })
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
        self.run_all(tr)
    }

    fn extras(&mut self, untraced: &[f64], layer: &mut BTreeMap<String, f64>) {
        if self.hot {
            self.pure_engines(layer);
        } else {
            // What the program's own tracing costs when switched on: two
            // more passes with `lpat_core::trace` recording.
            let mut off = Tracer::new(false, Instant::now());
            let mut walls = Vec::new();
            for _ in 0..2 {
                lpat_core::trace::enable(lpat_core::trace::ClockMode::Real);
                let t = Instant::now();
                self.run_all(&mut off);
                walls.push(t.elapsed().as_secs_f64());
                lpat_core::trace::disable();
                drop(lpat_core::trace::drain());
            }
            put_overhead(layer, "core.trace.enabled_overhead_pct", &walls, untraced);
        }
    }
}
