//! `compile-cold` — the static half of Figure 4. One operation compiles
//! one program from source to final bytecode, textual IR and three code
//! generators; `minic`, `transform`, `analysis`, `linker`, `bytecode`,
//! `asm` and `codegen` do all the work, `vm` and `serve` none (each final
//! program is executed once, untimed, during set-up to check it against
//! its oracle).

use std::time::Instant;

use lpat_analysis::{CallGraph, Dsa, DsaOptions};
use lpat_codegen::{compile_module, Cisc32, Risc32};
use lpat_core::Module;
use lpat_vm::{Vm, VmOptions};

use super::{build, fast_codegen, maybe_corrupt, ran};
use crate::harness::run::{Config, Facts, PassOutcome, Sample, Workload};
use crate::harness::span::Tracer;
use crate::inputs::progen::{App, Shape, STRUCTURE};
use crate::inputs::{spec15, Oracle};

struct Source {
    name: String,
    units: Vec<(String, String)>,
    oracle: Oracle,
    /// Final bytecode the set-up run produced and checked; compiling is
    /// deterministic, so every timed pass must reproduce it exactly.
    golden: Vec<u8>,
    /// One of the paper's Table 1 programs: its typed-access share counts.
    table1: bool,
}

/// The workload's state.
pub struct CompileCold {
    sources: Vec<Source>,
    facts: Facts,
    /// IR instructions the final `spec15` programs execute, one run each.
    /// The generated applications' runs are checked but not counted: which
    /// of their branches are taken depends on the seed's values.
    oracle_insts: u64,
}

/// Everything after the final bytecode: textual IR round trip, the
/// Table 1 analysis, and the three code generators.
fn back_end(tr: &mut Tracer, m: &Module, table1: bool) -> Result<u64, String> {
    let text = tr.span("asm.print", |_| m.display());
    tr.span("asm.parse", |_| lpat_asm::parse_module(&m.name, &text))
        .map_err(|e| format!("{}: printed IR does not parse: {e}", m.name))?;
    let cg = tr.span("analysis.callgraph", |_| CallGraph::build(m));
    let dsa = tr.span("analysis.dsa", |_| {
        Dsa::analyze(m, &cg, &DsaOptions::default())
    });
    if table1 {
        let access = dsa.access_stats();
        tr.count("_typed_accesses", access.typed as f64);
        tr.count("_accesses", (access.typed + access.untyped) as f64);
    }
    let cisc = tr.span("codegen.cisc32", |_| compile_module(m, &Cisc32));
    let risc = tr.span("codegen.risc32", |_| compile_module(m, &Risc32));
    tr.count("codegen.cisc32_bytes", cisc.code_size as f64);
    tr.count("codegen.risc32_bytes", risc.code_size as f64);
    let (bytes, attempted, bails) = tr.span("codegen.fast_translate", |_| fast_codegen(m));
    tr.count("codegen.fast_bytes", bytes as f64);
    tr.count("_fast_attempts", attempted as f64);
    tr.count("_fast_bails", bails as f64);
    Ok(bytes)
}

/// The operation: returns the final bytecode and the `fast` code size.
fn compile(tr: &mut Tracer, s: &Source) -> Result<(Module, Vec<u8>, u64), String> {
    let (m, bytes) = build(tr, &s.name, &s.units)?;
    let native = back_end(tr, &m, s.table1)?;
    Ok((m, bytes, native))
}

impl Workload for CompileCold {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let (apps, shape, scale) = if cfg.smoke {
            (
                1,
                Shape {
                    units: 2,
                    funcs_per_unit: 12,
                },
                2,
            )
        } else {
            (
                2,
                Shape {
                    units: 4,
                    funcs_per_unit: 40,
                },
                60,
            )
        };
        let mut sources = Vec::new();
        for i in 0..apps {
            let app = App::generate(STRUCTURE, cfg.seed, i, shape);
            sources.push(Source {
                name: app.name.clone(),
                units: app.sources(),
                oracle: app.oracle(),
                golden: Vec::new(),
                table1: false,
            });
        }
        for (name, src, oracle) in spec15::programs(scale) {
            sources.push(Source {
                name: name.to_string(),
                units: vec![(name.to_string(), src)],
                oracle,
                golden: Vec::new(),
                table1: true,
            });
        }
        maybe_corrupt(cfg.corrupt_oracle, &mut sources[0].oracle);

        let mut off = Tracer::new(false, Instant::now());
        let mut facts = Facts::default();
        let mut oracle_insts = 0;
        for s in &mut sources {
            let (m, bytes, native) = compile(&mut off, s)?;
            // The one untimed oracle run: reference interpreter, final module.
            let mut vm =
                Vm::new(&m, VmOptions::default()).map_err(|e| format!("{}: {e}", s.name))?;
            let result = vm.run_main();
            let got = ran(&vm, result).map_err(|e| format!("{}: {e}", s.name))?;
            if !got.matches(&s.oracle) {
                return Err(format!(
                    "{}: compiled program disagrees with its oracle\n  expected exit {} output {:?}\n  got      exit {} output {:?}",
                    s.name, s.oracle.exit, s.oracle.output, got.exit, got.output
                ));
            }
            if s.table1 {
                oracle_insts += got.insts;
            }
            facts.bytecode_bytes += bytes.len() as u64;
            facts.native_bytes += native;
            s.golden = bytes;
        }
        Ok(CompileCold {
            sources,
            facts,
            oracle_insts,
        })
    }

    fn classes(&self) -> Vec<String> {
        self.sources.iter().map(|s| s.name.clone()).collect()
    }

    fn facts(&self) -> Facts {
        self.facts
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let mut out = PassOutcome {
            insts: self.oracle_insts,
            ..PassOutcome::default()
        };
        for (class, s) in self.sources.iter().enumerate() {
            tr.set_op(class as u32);
            let t = Instant::now();
            let built = tr.span("bench.op", |tr| compile(tr, s));
            out.samples.push(Sample {
                class,
                ms: t.elapsed().as_secs_f64() * 1e3,
            });
            if !matches!(built, Ok((_, bytes, _)) if bytes == s.golden) {
                out.failed += 1;
            }
        }
        out
    }
}
