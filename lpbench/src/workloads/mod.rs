//! The five workloads, and the layer calls they share. Every call into a
//! layer's public function goes through a [`Tracer`] span here or in a
//! workload module; the layers' own counters are read at the same place.

pub mod compile_cold;
pub mod exec;
pub mod lifelong;
pub mod serve_mixed;

use lpat_core::Module;
use lpat_transform::PipelineReport;
use lpat_vm::{ExecError, TierStats, Vm, VmOptions};

use crate::harness::metrics::pass_metric;
use crate::harness::span::Tracer;
use crate::inputs::Oracle;

/// Extra hotness on the JIT tier before a function rises to machine code.
pub const NATIVE_UP: u64 = 200;

/// The engine configuration `exec-*` and `lifelong-cycle` run under: the
/// three-tier ladder.
pub fn tiered_options(profile: bool) -> VmOptions {
    VmOptions {
        profile,
        native_up: Some(NATIVE_UP),
        ..VmOptions::default()
    }
}

/// Record a pipeline run's own report: per-pass time (sub-passes of a
/// function-pass stage are CPU time summed over functions), analysis-cache
/// traffic and isolated faults.
pub fn count_report(tr: &mut Tracer, report: &PipelineReport) {
    // A composite stage is reported through its sub-passes.
    for p in &report.passes {
        let rows = if p.sub.is_empty() {
            std::slice::from_ref(p)
        } else {
            &p.sub[..]
        };
        for row in rows {
            if let Some(metric) = pass_metric(row.name) {
                tr.count(&metric, row.duration.as_secs_f64() * 1e3);
            }
        }
    }
    tr.count("_cache_hits", report.cache.hits as f64);
    tr.count("_cache_misses", report.cache.misses as f64);
    tr.count("transform.pass_faults", report.faults.len() as f64);
}

/// The static half of Figure 4 for one program: per unit miniC → verify →
/// `-O` → bytecode; then read → link → link-time IPO → verify → final
/// bytecode. Returns the final module and its bytes.
pub fn build(
    tr: &mut Tracer,
    name: &str,
    units: &[(String, String)],
) -> Result<(Module, Vec<u8>), String> {
    let mut objects = Vec::with_capacity(units.len());
    for (unit, src) in units {
        let mut m = tr
            .span("minic.compile", |_| lpat_minic::compile(unit, src))
            .map_err(|e| format!("{unit}: {e}"))?;
        tr.count("minic.ir_insts", m.total_insts() as f64);
        tr.span("core.verify", |_| m.verify())
            .map_err(|e| format!("{unit}: verifier: {}", e[0]))?;
        let report = tr.span("transform.fpm", |_| {
            lpat_transform::function_pipeline().run(&mut m)
        });
        count_report(tr, &report);
        tr.count("transform.ir_insts_after_fpm", m.total_insts() as f64);
        objects.push(tr.span("bytecode.write", |_| lpat_bytecode::write_module(&m)));
    }
    let mut modules = Vec::with_capacity(units.len());
    for ((unit, _), bytes) in units.iter().zip(&objects) {
        modules.push(
            tr.span("bytecode.read", |_| lpat_bytecode::read_module(unit, bytes))
                .map_err(|e| format!("{unit}: {e}"))?,
        );
    }
    let mut m = tr
        .span("linker.link", |_| lpat_linker::link(modules, name))
        .map_err(|e| format!("{name}: {e}"))?;
    let report = tr.span("transform.ltp", |_| {
        lpat_transform::link_time_pipeline().run(&mut m)
    });
    count_report(tr, &report);
    tr.count("transform.ir_insts_after_ltp", m.total_insts() as f64);
    tr.span("core.verify", |_| m.verify())
        .map_err(|e| format!("{name}: verifier after link-time IPO: {}", e[0]))?;
    let bytes = tr.span("bytecode.write", |_| lpat_bytecode::write_module(&m));
    tr.count("_bytecode_bytes", bytes.len() as f64);
    tr.count("_bytecode_insts", m.total_insts() as f64);
    Ok((m, bytes))
}

/// `fast` risc32 code for every function of `m`, under a fixed address
/// layout (the VM's function addresses, globals 64 bytes apart): returns
/// `(code bytes, functions attempted, functions refused)`.
pub fn fast_codegen(m: &Module) -> (u64, u64, u64) {
    let env = lpat_codegen::fast::FastEnv {
        func_addr: &|f| lpat_vm::mem::Memory::func_addr(f.index()),
        global_addr: &|i| Some(0x1_0000 + 64 * i as u32),
        guarded: &|_| false,
    };
    let (mut bytes, mut attempted, mut bails) = (0u64, 0u64, 0u64);
    for (fid, f) in m.funcs() {
        if f.is_declaration() {
            continue;
        }
        attempted += 1;
        match lpat_codegen::fast::translate_fast(m, fid, &env) {
            Ok(code) => bytes += 4 * code.words.len() as u64,
            Err(_) => bails += 1,
        }
    }
    (bytes, attempted, bails)
}

/// What one execution observed.
pub struct Ran {
    /// `print_int` stream.
    pub output: String,
    /// `main`'s result, or the `exit` code.
    pub exit: i64,
    /// IR instructions executed.
    pub insts: u64,
}

impl Ran {
    /// Whether the run matches `oracle`.
    pub fn matches(&self, oracle: &Oracle) -> bool {
        oracle.matches(&self.output, self.exit)
    }
}

/// Fold an engine's result into a [`Ran`]; a trap is an error.
pub fn ran(vm: &Vm, result: Result<i64, ExecError>) -> Result<Ran, String> {
    let exit = match result {
        Ok(code) => code,
        Err(ExecError::Exited(code)) => i64::from(code),
        Err(e) => return Err(e.to_string()),
    };
    Ok(Ran {
        output: vm.output.clone(),
        exit,
        insts: vm.insts_executed,
    })
}

/// Record the tiered engine's own counters for one run.
pub fn count_tiers(tr: &mut Tracer, t: &TierStats, insts: u64) {
    tr.count("_vm_insts", insts as f64);
    tr.count("_native_insts", t.native_insts as f64);
    tr.count("vm.jit_translate_ms", t.translate_ns as f64 / 1e6);
    tr.count("vm.native_translate_ms", t.native_translate_ns as f64 / 1e6);
    tr.count("vm.promoted", (t.promoted + t.native_promoted) as f64);
    tr.count("vm.osr", (t.osr + t.native_osr) as f64);
}

/// The `exec-*` operation: optimized bytecode bytes → `read_module` →
/// `Vm::new` → `run_main_tiered` → output.
pub fn exec_op(tr: &mut Tracer, name: &str, bytes: &[u8]) -> Result<Ran, String> {
    let m = tr
        .span("bytecode.read", |_| lpat_bytecode::read_module(name, bytes))
        .map_err(|e| format!("{name}: {e}"))?;
    let mut vm = tr
        .span("vm.new", |_| Vm::new(&m, tiered_options(false)))
        .map_err(|e| format!("{name}: {e}"))?;
    let result = tr.span("vm.exec", |_| vm.run_main_tiered());
    count_tiers(tr, &vm.tier_stats, vm.insts_executed);
    ran(&vm, result).map_err(|e| format!("{name}: {e}"))
}

/// A program ready to execute, with its reference result.
pub struct Program {
    /// Row label.
    pub name: String,
    /// Fully optimized bytecode.
    pub bytes: Vec<u8>,
    /// Expected output and exit code.
    pub oracle: Oracle,
    /// `fast` code bytes of the optimized module.
    pub native_bytes: u64,
}

impl Program {
    /// Build single-unit `source` with tracing off.
    pub fn build(name: &str, source: &str, oracle: Oracle) -> Result<Program, String> {
        let mut off = Tracer::new(false, std::time::Instant::now());
        let (m, bytes) = build(&mut off, name, &[(name.to_string(), source.to_string())])?;
        Ok(Program {
            name: name.to_string(),
            bytes,
            oracle,
            native_bytes: fast_codegen(&m).0,
        })
    }

    /// What `lpatc compile -O` ships for one unit: front-end and function
    /// pipeline, no link-time IPO — which calls are worth inlining is left
    /// for the profile to say.
    pub fn build_unit(name: &str, source: &str, oracle: Oracle) -> Result<Program, String> {
        let mut m = lpat_minic::compile(name, source).map_err(|e| format!("{name}: {e}"))?;
        lpat_transform::function_pipeline().run(&mut m);
        m.verify()
            .map_err(|e| format!("{name}: verifier: {}", e[0]))?;
        Ok(Program {
            name: name.to_string(),
            bytes: lpat_bytecode::write_module(&m),
            oracle,
            native_bytes: fast_codegen(&m).0,
        })
    }
}

/// Falsify the first oracle of a set when the run asked for it.
pub fn maybe_corrupt(corrupt: bool, oracle: &mut Oracle) {
    if corrupt {
        oracle.exit += 1;
    }
}
