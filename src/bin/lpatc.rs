//! `lpatc` — the command-line driver for the lpat framework.
//!
//! ```text
//! lpatc compile <in.mc> [-o out.bc] [--emit text|bc] [-O]   miniC -> IR
//! lpatc opt     <in>    [-o out]    [--emit text|bc] [--link-pipeline]
//!               [--verify-each] [--time-passes] [--inject-faults PLAN]
//! lpatc link    <in...> -o out      [--emit text|bc] [-O]
//! lpatc dis     <in.bc>                                     bytecode -> text
//! lpatc run     <in>    [-O] [--profile] [--fuel N] [--input a,b,c] [--max-stack N]
//!               [--speculate] [--spec-threshold N] [--cache-dir DIR]
//! lpatc reopt   <in>    --cache-dir DIR [-o out]
//!               [--speculate] [--spec-threshold N]
//! lpatc analyze <in>                                        DSA + call graph report
//! lpatc size    <in>                                        code-size report
//! ```
//!
//! Flags may appear anywhere after the command, before or after the
//! inputs. Each command declares the flags it reads (`lpat::cli`): a flag
//! it does not read, a flag missing its value, or a value that does not
//! parse is an error naming the flag (exit 2), never silently ignored.
//!
//! Every command also accepts `--quiet` (silence stderr notices and
//! warnings) and the observability flags `--trace-out FILE` (Chrome
//! trace-event JSON, loadable in Perfetto / `chrome://tracing`),
//! `--metrics-out FILE` (machine-readable metrics summary), `--stats`
//! (human-readable metrics table on stderr), and
//! `--trace-clock virtual|real` (or `LPAT_TRACE_CLOCK`) — the virtual
//! clock makes trace exports byte-deterministic for tests.
//!
//! Inputs are auto-detected: files beginning with the `LPAT` magic load as
//! bytecode, files ending in `.mc` compile as miniC, anything else parses
//! as the textual form.
//!
//! # Degraded compilation
//!
//! A pass that panics or miscompiles (under `--verify-each`) is rolled
//! back and the pipeline continues — each fault is reported on stderr and
//! the output is exactly what skipping that pass would produce. There is
//! no strict mode and no time budget: the output is a function of the
//! input and the fault plan alone. `--inject-faults 'gvn:panic@2,...'`
//! (or the `LPAT_FAULTS` environment variable) deterministically triggers
//! faults at named sites for testing; see `lpat_core::fault`.
//!
//! # Tiered execution
//!
//! `run` decides each function's tier once, at its first call: risc32
//! machine code — from the single-pass backend in
//! `lpat_codegen::fast`, executed by the fuel-metered emulator in
//! `lpat_vm::native` — when that backend accepts the function, else the
//! translated (JIT) tier, which handles every type, else (only when JIT
//! translation faults) the interpreter. `--stats` prints a per-tier
//! instruction table and, for each function the native backend refused,
//! why. Tiered execution is observationally identical to the plain
//! interpreter (`Vm::run_main`), which, like the JIT alone
//! (`Vm::run_main_jit`), stays a reference engine for tests and
//! benchmarks rather than a `run` flag.
//!
//! # Speculative PGO
//!
//! `run --speculate` consults the accumulated profile and speculatively
//! devirtualizes hot indirect calls / specializes hot functions on
//! observed constant arguments, protecting each assumption with a guard.
//! A guard is a conditional branch: on every engine a failing one takes
//! its else edge to the generic path, and its executions and failures are
//! its two edges in the edge profile, so they flow back into the lifelong
//! store with it. `reopt --speculate` reports the offline plan — which
//! guards the profile justifies and which are *retracted* because their
//! misspeculation rate reaches `--spec-threshold` percent (0 to 100,
//! default 25; the flag implies `--speculate`) — byte-identically to the
//! in-memory decision. Speculation is an in-memory
//! overlay: the stored module and its profile stay unspeculated.
//!
//! # Lifelong persistence
//!
//! `run --cache-dir DIR` (or `LPAT_CACHE_DIR`) keeps a crash-safe store of
//! execution profiles and reoptimized bytecode keyed by the content hash
//! of the module: each run appends its counts to the module's one profile
//! file (flushed on clean exit *and* on trap), and `reopt` folds and
//! consumes the accumulated profile offline, caching the reoptimized
//! module so the next `run` picks it up automatically; `reopt` reads no
//! other profile, so it needs a cache directory. Corrupt, truncated, or
//! stale store files are quarantined and regenerated, never trusted. A
//! profile moves elsewhere as the file it is: `profile-<hash>.lpp`, copied
//! into another cache directory.

use std::convert::Infallible;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use lpat::cli::{self, Args, Flags, TraceOutputs};
use lpat::core::Module;
use lpat::vm::session::{self, Note, OptConfig, ReoptError, RunConfig, RunError};

/// What `compile`, `opt` and `link` read, beside [`cli::GLOBAL`].
const COMPILE: Flags = Flags {
    switches: "-O --link-pipeline --verify-each --time-passes",
    valued: "-o --emit",
};

/// `dis`, `analyze` and `size` read an input and the global flags.
const INPUT_ONLY: Flags = Flags {
    switches: "",
    valued: "",
};

const RUN: Flags = Flags {
    switches: "-O --profile --speculate",
    valued: "--fuel --input --max-stack --spec-threshold --cache-dir",
};

const REOPT: Flags = Flags {
    switches: "--speculate",
    valued: "--cache-dir -o --emit --hot-threshold --spec-threshold",
};

/// `remote ping|run|compile|reopt|stats`.
const REMOTE: Flags = Flags {
    switches: "-O",
    valued: "--connect --connect-timeout-ms --tenant --fuel --deadline-ms --input \
             --request-id --retries -o",
};

const REMOTE_TOP: Flags = Flags {
    switches: "",
    valued: "--connect --interval-ms --iterations",
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lpatc: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    let rest = &argv[1.min(argv.len())..];
    let declared = match cmd {
        "compile" | "opt" | "link" => &COMPILE,
        "dis" | "analyze" | "size" => &INPUT_ONLY,
        "run" => &RUN,
        "reopt" => &REOPT,
        // The op follows `remote` the way a subcommand follows `lpatc`.
        "remote" if rest.first().is_some_and(|op| op == "top") => &REMOTE_TOP,
        "remote" => &REMOTE,
        "help" | "--help" | "-h" => {
            usage();
            return Ok(ExitCode::SUCCESS);
        }
        other => return Err(format!("unknown command '{other}' (try 'lpatc help')")),
    };
    let args = Args::parse(rest, &[&cli::GLOBAL, declared])?;
    // Install the fault plan before any module is loaded: the bytecode
    // reader's `bytecode.read` site must see it.
    if let Some(plan) = args.fault_plan()? {
        lpat::core::fault::install(plan);
    }
    let trace = TraceOutputs::begin(&args)?;
    let mut diag = Diag::new(args.has("--quiet"));
    let result = match cmd {
        "compile" | "opt" | "link" => compile(cmd, &args, &diag),
        "dis" => dis(&args),
        "run" => run_program(&args, &mut diag),
        "reopt" => reopt(&args, &mut diag),
        "analyze" => analyze(&args),
        "size" => size(&args),
        _ => remote(&args, &mut diag),
    };
    trace.finish(diag.quiet)?;
    diag.flush();
    result
}

fn usage() {
    eprintln!(
        "usage: lpatc <compile|opt|link|dis|run|reopt|analyze|size|remote> <inputs> [flags]\n\
         remote: lpatc remote <ping|run|compile|reopt|stats|top> [input] --connect ADDR\n\
         \x20      [--tenant T] [--fuel N] [--deadline-ms N] [--input a,b,c]\n\
         \x20      [-O] [--retries N] [--connect-timeout-ms N] [-o FILE]\n\
         \x20      [--request-id N]; top: [--interval-ms N] [--iterations N]\n\
         flags: -o FILE, --emit text|bc, -O, --link-pipeline,\n\
         \x20      --verify-each, --time-passes,\n\
         \x20      --inject-faults PLAN, --profile,\n\
         \x20      --fuel N, --input a,b,c, --max-stack N,\n\
         \x20      --cache-dir DIR (or LPAT_CACHE_DIR; reopt needs one),\n\
         \x20      --hot-threshold N, --speculate, --spec-threshold N,\n\
         \x20      --trace-out FILE, --metrics-out FILE, --stats,\n\
         \x20      --trace-clock virtual|real (or LPAT_TRACE_CLOCK), --quiet\n\
         flags may appear anywhere after the command; a flag the command does\n\
         not read is an error"
    );
}

/// `compile`, `opt`, `link`: load (and link), optimize, emit.
fn compile(cmd: &str, args: &Args, diag: &Diag) -> Result<ExitCode, String> {
    let inputs = args.positionals();
    if inputs.is_empty() {
        return Err(format!("{cmd}: no input files"));
    }
    let mut m = if cmd == "link" {
        let mods: Result<Vec<Module>, String> = inputs.iter().map(|p| load(p)).collect();
        lpat::linker::link(mods?, "a.out").map_err(|e| e.to_string())?
    } else {
        load(&inputs[0])?
    };
    let o = args.has("-O");
    let cfg = OptConfig {
        function: o || cmd == "opt",
        link_time: args.has("--link-pipeline") || (cmd == "link" && o),
        verify_each: args.has("--verify-each"),
    };
    optimize(&mut m, &cfg, args.has("--time-passes"), diag)?;
    emit(&m, args)?;
    Ok(ExitCode::SUCCESS)
}

/// [`session::optimize`], with its reports rendered: the `--time-passes`
/// tables and one warning per isolated pass fault.
fn optimize(m: &mut Module, cfg: &OptConfig, time_passes: bool, diag: &Diag) -> Result<(), String> {
    let reports = session::optimize(m, cfg).map_err(|e| format!("verifier: {e}"))?;
    if time_passes {
        for (title, r) in &reports {
            diag.dump(&format!("=== {title} ==="));
            diag.dump_raw(&r.render());
        }
    }
    for (title, r) in &reports {
        for f in &r.faults {
            diag.warn(&format!("{title}: isolated fault: {f}"));
        }
    }
    Ok(())
}

/// `--speculate`, or `--spec-threshold N` (a percentage), which implies
/// it.
fn spec_options(args: &Args) -> Result<Option<lpat::transform::SpecOptions>, String> {
    let threshold = args.parsed::<u32>("--spec-threshold")?;
    if !args.has("--speculate") && threshold.is_none() {
        return Ok(None);
    }
    let mut sopts = lpat::transform::SpecOptions::default();
    if let Some(pct) = threshold {
        if pct > 100 {
            return Err(format!("bad --spec-threshold value '{pct}'"));
        }
        sopts.misspec_threshold_pct = pct;
    }
    Ok(Some(sopts))
}

/// `--input a,b,c`: the scripted `read_int` values.
fn scripted_input(args: &Args) -> Result<Vec<i64>, String> {
    let Some(vals) = args.value("--input") else {
        return Ok(Vec::new());
    };
    vals.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("bad --input value '{v}'"))
        })
        .collect()
}

/// `run`: turn the flags into a [`RunConfig`], hand the module to the
/// session, render its report.
fn run_program(args: &Args, diag: &mut Diag) -> Result<ExitCode, String> {
    let input = args.positionals().first().ok_or("run: no input file")?;
    let mut m = load(input)?;
    // `run -O` optimizes in-process first, so a single traced run covers
    // the compiler, the VM, the heap, and the store.
    if args.has("-O") {
        let cfg = OptConfig {
            function: true,
            ..Default::default()
        };
        optimize(&mut m, &cfg, false, diag)?;
    }
    let cache_dir = cache_dir(args);
    let mut opts = lpat::vm::VmOptions {
        // Persistence implies instrumentation: the profile is exactly
        // what gets persisted.
        profile: args.has("--profile") || cache_dir.is_some(),
        fuel: args.parsed("--fuel")?,
        input: scripted_input(args)?.into(),
        ..Default::default()
    };
    if let Some(n) = args.parsed("--max-stack")? {
        if n == 0 {
            return Err("bad --max-stack value '0'".into());
        }
        opts.max_stack = n;
    }
    // The cache must never stop the program from running: a store that
    // does not open degrades to an uncached run with a warning.
    let store = match &cache_dir {
        Some(d) => match lpat::vm::Store::open(d) {
            Ok(s) => Some(s),
            Err(e) => {
                diag.cache_warn(e.class(), &format!("{e}; running uncached"));
                None
            }
        },
        None => None,
    };
    let spec = spec_options(args)?;
    let speculating = spec.is_some();
    let config = RunConfig { opts, spec };
    let (profile, stats) = (args.has("--profile"), args.has("--stats"));
    let report = session::run(
        m,
        store.as_ref(),
        config,
        || Ok::<(), Infallible>(()),
        |vm| {
            (
                profile.then(|| hot_spots(vm.module(), &vm.profile)),
                stats.then(|| vm_stats(vm, speculating)),
            )
        },
    )
    .map_err(|e| match e {
        RunError::Verify(e) => format!("verifier after speculation: {e}"),
        RunError::BadModule(e) => e.to_string(),
        RunError::Aborted(never) => match never {},
    })?;
    render_notes(&report.notes, diag);
    print!("{}", report.output);
    let (hot, table) = &report.inspected;
    if let Some(hot) = hot {
        diag.dump_raw(hot);
    }
    if let Some(table) = table {
        diag.dump_raw(table);
        if let Some(plan) = &report.spec_plan {
            diag.dump_raw(&plan.render());
        }
    }
    let code = report.result.map_err(|e| e.to_string())?;
    diag.note(&format!("[exit {code}; {} instructions]", report.insts));
    Ok(ExitCode::from((code & 0xFF) as u8))
}

/// The per-run `--stats` tables: opcode histogram, what collecting the
/// profile allocated and recorded (all zero without `--profile`,
/// `--cache-dir` or speculation), and the tier and speculation counters.
fn vm_stats(vm: &lpat::vm::Vm<'_>, speculating: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let top = vm.top_opcodes(10);
    if !top.is_empty() {
        out.push_str("\n[profile] top opcodes:\n");
        for (name, n) in top {
            let _ = writeln!(out, "  {name:<14} {n:>12}");
        }
    }
    let p = vm.profile_stats();
    out.push_str("[profile] counters:\n");
    for (name, n) in [
        ("vm.profile.funcs", p.funcs),
        ("vm.profile.slots", p.slots),
        ("vm.profile.nonzero", p.nonzero),
    ] {
        let _ = writeln!(out, "  {name:<18} {n:>8}");
    }
    out.push_str("\n[tier]\n");
    out.push_str(&vm.tier_stats.render());
    for (name, reason) in vm.native_refusals() {
        let _ = writeln!(out, "  not native: @{name}: {reason}");
    }
    if speculating {
        out.push_str("\n[spec]\n");
        out.push_str(&vm.spec_stats.render());
    }
    out
}

/// One stderr line per thing the session reports, in the order it
/// happened.
fn render_notes(notes: &[Note], diag: &mut Diag) {
    for note in notes {
        match note {
            Note::Quarantined(q) => diag.cache_warn(q.error.class(), &q.to_string()),
            Note::LoadFailed(e) | Note::FlushFailed(e) | Note::CompactFailed(e) => {
                diag.cache_warn(e.class(), &e.to_string())
            }
            Note::UsingReopt { source_hash } => diag.note(&format!(
                "[cache] using reoptimized module for {source_hash:016x}"
            )),
            Note::Speculated { emitted, retracted } => diag.note(&format!(
                "[spec] {emitted} guard(s) emitted, {retracted} retracted"
            )),
            Note::NothingToSpeculate => {
                diag.note("[spec] no prior profile for this module; nothing to speculate")
            }
        }
    }
}

/// `reopt`: the offline half of the lifelong loop, on the profile the
/// store holds for the module.
fn reopt(args: &Args, diag: &mut Diag) -> Result<ExitCode, String> {
    let input = args.positionals().first().ok_or("reopt: no input file")?;
    let dir = cache_dir(args).ok_or("reopt: --cache-dir DIR (or LPAT_CACHE_DIR) is required")?;
    let m = load(input)?;
    let store = lpat::vm::Store::open(&dir).map_err(|e| e.to_string())?;
    let mut pgo = lpat::vm::PgoOptions {
        spec: spec_options(args)?,
        ..Default::default()
    };
    if let Some(t) = args.parsed("--hot-threshold")? {
        pgo.hot_call_threshold = t;
    }
    let report = session::reopt(m, &store, &pgo).map_err(|e| match e {
        ReoptError::NoProfile => format!("reopt: no run of this module recorded in {dir}"),
        other => other.to_string(),
    })?;
    render_notes(&report.notes, diag);
    diag.note(&format!(
        "[reopt] inlined {} hot sites, re-laid {} functions ({} runs of profile)",
        report.pgo.inlined, report.pgo.relaid, report.runs
    ));
    if let Some(plan) = &report.pgo.spec_plan {
        diag.note(&format!(
            "[spec] plan: {} guard(s) to emit, {} retracted",
            plan.emitted(),
            plan.retracted()
        ));
        // The canonical plan rendering goes to stdout so tests can
        // compare offline decisions byte-for-byte with in-memory ones.
        print!("{}", plan.render());
    }
    for f in &report.pgo.faults {
        diag.warn(&format!("reopt: isolated fault: {f}"));
    }
    diag.note(&format!(
        "[reopt] cached reoptimized module for {:016x}",
        report.source_hash
    ));
    if args.value("-o").is_some() {
        emit(&report.module, args)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The one input of `dis`, `analyze` and `size`, loaded.
fn input(args: &Args, cmd: &str) -> Result<Module, String> {
    let path = args
        .positionals()
        .first()
        .ok_or_else(|| format!("{cmd}: no input file"))?;
    load(path)
}

fn dis(args: &Args) -> Result<ExitCode, String> {
    print!("{}", input(args, "dis")?.display());
    Ok(ExitCode::SUCCESS)
}

fn analyze(args: &Args) -> Result<ExitCode, String> {
    let m = input(args, "analyze")?;
    let cg = lpat::analysis::CallGraph::build(&m);
    let dsa = lpat::analysis::Dsa::analyze(&m, &cg, &lpat::analysis::DsaOptions::default());
    println!(
        "module {}: {} functions, {} globals, {} instructions",
        m.name,
        m.num_funcs(),
        m.num_globals(),
        m.total_insts()
    );
    println!("\nper-function typed memory accesses (DSA):");
    for (fid, f) in m.funcs() {
        if f.is_declaration() {
            continue;
        }
        let s = dsa.access_stats_for(fid);
        println!(
            "  @{:<24} {:>4} typed {:>4} untyped  ({:>5.1}%)  callees: {}",
            f.name(),
            s.typed,
            s.untyped,
            s.percent(),
            cg.callees(fid).len()
        );
    }
    let total = dsa.access_stats();
    println!(
        "\ntotal: {} typed / {} untyped ({:.1}%)",
        total.typed,
        total.untyped,
        total.percent()
    );
    Ok(ExitCode::SUCCESS)
}

fn size(args: &Args) -> Result<ExitCode, String> {
    let m = input(args, "size")?;
    let bc = lpat::bytecode::write_module(&m);
    let cisc = lpat::codegen::compile_module(&m, &lpat::codegen::Cisc32);
    let risc = lpat::codegen::compile_module(&m, &lpat::codegen::Risc32);
    println!("{:<12} {:>10}", "form", "bytes");
    println!("{:<12} {:>10}", "bytecode", bc.len());
    println!(
        "{:<12} {:>10}   (code {} data {})",
        "cisc32", cisc.total, cisc.code_size, cisc.data_size
    );
    println!(
        "{:<12} {:>10}   (code {} data {})",
        "risc32", risc.total, risc.code_size, risc.data_size
    );
    Ok(ExitCode::SUCCESS)
}

/// `lpatc remote <op> [input] --connect ADDR` — run an op against a
/// running `lpatd` instead of in-process. `Busy` answers (tenant cap,
/// shed queue) are retried with jittered bounded exponential backoff,
/// honoring the server's `retry_after_ms` hint; a still-busy server
/// after the retry budget exits with a distinct code (3) so scripts can
/// tell "declined" from "failed", and a crash-loop-quarantined payload
/// exits 4 — retrying it cannot help.
fn remote(args: &Args, diag: &mut Diag) -> Result<ExitCode, String> {
    use lpat::serve::{Addr, Client, ErrClass, Op, Request, Response, RetryPolicy, FLAG_MINIC};

    let op = match args.positionals().first().map(String::as_str) {
        Some("ping") => Op::Ping,
        Some("run") => Op::Run,
        Some("compile") => Op::Compile,
        Some("reopt") => Op::Reopt,
        Some("stats") => Op::Stats,
        Some("top") => return remote_top(args),
        Some(other) => return Err(format!("remote: unknown op '{other}'")),
        None => return Err("remote: no op (ping|run|compile|reopt|stats|top)".into()),
    };
    let addr = args
        .value("--connect")
        .ok_or("remote: --connect ADDR is required")?;
    let addr = Addr::parse(addr).map_err(|e| format!("remote: {e}"))?;
    let connect_timeout =
        Duration::from_millis(args.parsed("--connect-timeout-ms")?.unwrap_or(5000));
    let mut req = Request::new(op);
    if let Some(t) = args.value("--tenant") {
        req.tenant = t.to_string();
    }
    if let Some(f) = args.parsed("--fuel")? {
        req.fuel = f;
    }
    if let Some(d) = args.parsed("--deadline-ms")? {
        req.deadline_ms = d;
    }
    req.inputs = scripted_input(args)?;
    if args.has("-O") {
        req.flags |= lpat::serve::FLAG_OPT;
    }
    // Originate the distributed-trace context: the id rides the wire,
    // every daemon and worker span for this request carries it, and the
    // merged `lpatd --trace-out` file can be grepped for it end to end.
    // Accepts decimal or the 0x-hex form the diagnostics print, so an id
    // copied from another transcript round-trips.
    req.request_id = match args.value("--request-id") {
        Some(v) => match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => {
                u64::from_str_radix(hex, 16).map_err(|_| format!("bad --request-id value '{v}'"))?
            }
            None => args.parsed("--request-id")?.unwrap_or_default(),
        },
        None => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            // Time and pid, mixed; `| 1` keeps it nonzero (zero means
            // "daemon, assign one").
            lpat::core::hash::splitmix64(nanos ^ (u64::from(std::process::id()) << 32)) | 1
        }
    };
    diag.note(&format!("[remote] request id {:#018x}", req.request_id));
    // Ops that carry a module read it from the argument after the op
    // name. The bytes ship raw — the daemon does the auto-detection —
    // except miniC, which the wire marks with a flag since filenames
    // don't cross it.
    if matches!(op, Op::Run | Op::Compile | Op::Reopt) {
        let input = args.positionals().get(1).ok_or("remote: no input file")?;
        req.module = std::fs::read(input.as_str()).map_err(|e| format!("{input}: {e}"))?;
        req.name = module_name(input).to_string();
        if is_minic(input) {
            req.flags |= FLAG_MINIC;
        }
    }
    let mut policy = RetryPolicy::default();
    if let Some(retries) = args.parsed::<u32>("--retries")? {
        policy.max_attempts = retries.saturating_add(1);
    }
    let mut client = Client::connect(&addr, connect_timeout).map_err(|e| format!("remote: {e}"))?;
    let mut sp = lpat::core::trace::span("serve.client", "request");
    sp.arg("rid", req.request_id.to_string());
    sp.arg("op", op.name());
    let resp = client
        .request_with_retry(&req, &policy)
        .map_err(|e| format!("remote: {e}"))?;
    sp.arg("status", resp.status_label());
    drop(sp);
    match resp {
        Response::Ok {
            exit,
            insts,
            cache_hit,
            output,
            module,
        } => {
            // Program stdout is relayed verbatim; server-generated status
            // lines (reopt summaries, stats JSON) get a terminating newline
            // so shell prompts don't glue onto them.
            let text = String::from_utf8_lossy(&output);
            if matches!(op, Op::Run) || text.ends_with('\n') || text.is_empty() {
                print!("{text}");
            } else {
                println!("{text}");
            }
            if !module.is_empty() {
                if let Some(p) = args.value("-o") {
                    std::fs::write(p, &module).map_err(|e| format!("-o {p}: {e}"))?;
                    diag.note(&format!("[remote] wrote {p} ({} bytes)", module.len()));
                }
            }
            if cache_hit {
                diag.note("[remote] served from reopt cache");
            }
            if matches!(op, Op::Run) {
                diag.note(&format!("[remote exit {exit}; {insts} instructions]"));
                Ok(ExitCode::from((exit & 0xFF) as u8))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        Response::Err { class, message } => {
            // Guest traps mirror local `lpatc run` (error text, exit 2 via
            // the caller); a quarantined payload gets its own exit code
            // (4) — retrying it is pointless until the denylist is
            // cleared, and scripts need to tell that apart from a
            // retryable failure; everything else is prefixed with its
            // class so scripts can dispatch on it.
            match class {
                ErrClass::Trap => Err(message),
                ErrClass::Quarantined => {
                    diag.warn(&format!("quarantined: {message}"));
                    Ok(ExitCode::from(4))
                }
                _ => Err(format!("{}: {message}", class.name())),
            }
        }
        Response::Busy {
            retry_after_ms,
            reason,
        } => {
            diag.warn(&format!(
                "server busy after {} attempt(s): {reason} (retry_after {retry_after_ms}ms)",
                policy.max_attempts
            ));
            Ok(ExitCode::from(3))
        }
    }
}

/// `lpatc remote top --connect ADDR` — a refreshing live view of a
/// running daemon: req/s, latency/queue-wait quantiles, worker states,
/// and crash/quarantine counters, all scraped from the `Stats` op's
/// `lpat-serve-stats/v2` JSON once per `--interval-ms` (default 1000).
/// `--iterations N` stops after N polls (0 = until interrupted), which
/// is how scripts and tests get one deterministic snapshot.
fn remote_top(args: &Args) -> Result<ExitCode, String> {
    use lpat::core::trace::{parse_json, Json};
    use lpat::serve::{Addr, Client, Op, Request, Response};

    let addr = args
        .value("--connect")
        .ok_or("remote top: --connect ADDR is required")?;
    let addr = Addr::parse(addr).map_err(|e| format!("remote top: {e}"))?;
    let interval = Duration::from_millis(args.parsed("--interval-ms")?.unwrap_or(1000));
    let iterations: u64 = args.parsed("--iterations")?.unwrap_or(0);
    let mut client = Client::connect(&addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("remote top: {e}"))?;
    let mut prev: Option<(f64, std::time::Instant)> = None;
    let mut poll = 0u64;
    loop {
        poll += 1;
        let json = match client.request(&Request::new(Op::Stats)) {
            Ok(Response::Ok { output, .. }) => String::from_utf8_lossy(&output).into_owned(),
            Ok(other) => return Err(format!("remote top: stats answered {other:?}")),
            Err(e) => return Err(format!("remote top: {e}")),
        };
        let stats = parse_json(&json).map_err(|e| format!("remote top: bad stats JSON: {e}"))?;
        let now = std::time::Instant::now();
        let requests = stats.num("requests").unwrap_or(0.0);
        let rate = match prev {
            Some((r0, t0)) => {
                let dt = now.duration_since(t0).as_secs_f64();
                if dt > 0.0 {
                    (requests - r0).max(0.0) / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        prev = Some((requests, now));
        {
            use std::io::IsTerminal as _;
            if std::io::stdout().is_terminal() {
                // Home + clear-to-end keeps a live table without scroll.
                print!("\x1b[H\x1b[2J");
            }
        }
        let n = |k: &str| stats.num(k).unwrap_or(0.0) as u64;
        println!(
            "lpatd {} — {} (poll {poll})",
            addr,
            stats.str_field("schema").unwrap_or("?")
        );
        println!(
            "requests {:>8}   {:>8.1} req/s   ok {}   errors {}   busy {}   shed {}",
            n("requests"),
            rate,
            n("ok"),
            n("errors"),
            n("busy"),
            n("shed_queue"),
        );
        let pids: Vec<String> = match stats.get("worker_pids") {
            Some(Json::Arr(v)) => v
                .iter()
                .filter_map(|p| match p {
                    Json::Num(x) if *x > 0.0 => Some(format!("{}", *x as u64)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        println!(
            "workers [{}]   crashes {}   restarts {}   watchdog {}   quarantined {}   flight {}",
            pids.join(", "),
            n("worker_crashes"),
            n("worker_restarts"),
            n("watchdog_kills"),
            n("quarantined"),
            n("flight_salvaged"),
        );
        println!(
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        if let Some(q) = stats.get("quantiles") {
            let row = |label: &str, h: &Json| {
                let f = |k: &str| h.num(k).unwrap_or(0.0) as u64;
                println!(
                    "{label:<24} {:>8} {:>8} {:>8} {:>8} {:>10}",
                    f("count"),
                    f("p50"),
                    f("p90"),
                    f("p99"),
                    f("max")
                );
            };
            if let Some(lat) = q.get("latency_us") {
                for (k, h) in lat.fields() {
                    row(&format!("latency_us {k}"), h);
                }
            }
            for plain in ["queue_wait_us", "fuel", "payload_bytes"] {
                if let Some(h) = q.get(plain) {
                    row(plain, h);
                }
            }
        }
        if iterations > 0 && poll >= iterations {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(interval);
    }
}

/// All driver diagnostics flow through here, and only program output and
/// report tables go to stdout. Notices and warnings print to stderr and
/// are silenced by `--quiet`; explicitly requested dumps (`--time-passes`,
/// `--profile`, `--stats`) always print. Cache warnings deduplicate per
/// `StoreError` class: the first of each class prints, the rest are
/// counted and summarized by `Diag::flush`.
struct Diag {
    quiet: bool,
    cache_seen: std::collections::BTreeMap<&'static str, u64>,
}

impl Diag {
    fn new(quiet: bool) -> Diag {
        Diag {
            quiet,
            cache_seen: std::collections::BTreeMap::new(),
        }
    }

    /// Informational notice (`[cache]`, `[reopt]`, `[exit …]`).
    fn note(&self, msg: &str) {
        if !self.quiet {
            eprintln!("{msg}");
        }
    }

    /// Warning (prefixed `lpatc: warning:`).
    fn warn(&self, msg: &str) {
        if !self.quiet {
            eprintln!("lpatc: warning: {msg}");
        }
    }

    /// Cache warning, deduplicated by error class.
    fn cache_warn(&mut self, class: &'static str, msg: &str) {
        let n = self.cache_seen.entry(class).or_insert(0);
        *n += 1;
        if *n == 1 {
            self.warn(&format!("cache: {msg}"));
        }
    }

    /// Explicitly requested dump line — prints even under `--quiet`.
    fn dump(&self, msg: &str) {
        eprintln!("{msg}");
    }

    /// Explicitly requested dump, pre-formatted (no trailing newline added).
    fn dump_raw(&self, msg: &str) {
        eprint!("{msg}");
    }

    /// Summarize suppressed duplicate cache warnings.
    fn flush(&self) {
        for (class, n) in &self.cache_seen {
            if *n > 1 {
                self.warn(&format!(
                    "cache: {} more '{class}' warning(s) suppressed",
                    n - 1
                ));
            }
        }
    }
}

/// Resolve the lifelong cache directory: `--cache-dir DIR` flag, falling
/// back to the `LPAT_CACHE_DIR` environment variable.
fn cache_dir(args: &Args) -> Option<String> {
    args.value("--cache-dir")
        .map(str::to_string)
        .or_else(|| std::env::var("LPAT_CACHE_DIR").ok())
}

/// The module name a path stands for: its file stem.
fn module_name(path: &str) -> &str {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module")
}

/// Whether a path names miniC source (anything else is detected by
/// content).
fn is_minic(path: &str) -> bool {
    path.ends_with(".mc") || path.ends_with(".c")
}

/// Load a module from any of the three on-disk shapes.
fn load(path: &str) -> Result<Module, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    lpat::serve::server::load_module(module_name(path), &bytes, is_minic(path))
        .map_err(|e| format!("{path}: {e}"))
}

/// Write the module per `-o` / `--emit` (default: text to stdout).
fn emit(m: &Module, args: &Args) -> Result<(), String> {
    let emit_kind = args.value("--emit").unwrap_or("text");
    let out = args.value("-o");
    match (emit_kind, out) {
        ("text", None) => {
            print!("{}", m.display());
            Ok(())
        }
        ("text", Some(p)) => std::fs::write(p, m.display()).map_err(|e| e.to_string()),
        ("bc", Some(p)) => {
            std::fs::write(p, lpat::bytecode::write_module(m)).map_err(|e| e.to_string())
        }
        ("bc", None) => Err("--emit bc requires -o FILE".into()),
        (other, _) => Err(format!("unknown --emit kind '{other}'")),
    }
}

/// The `--profile` dump: this run's hottest loops, with the trace through
/// each, and its hottest call sites.
fn hot_spots(m: &Module, profile: &lpat::vm::ProfileData) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("\n[profile]\n");
    let hot = profile.hot_loops(m, 100);
    for h in hot.iter().take(8) {
        let (trace, cov) = lpat::vm::form_trace(m, profile, h);
        let _ = writeln!(
            out,
            "  hot loop @{} bb{} x{}  trace {:?} ({:.0}% coverage)",
            m.func(h.func).name(),
            h.header.index(),
            h.header_count,
            trace.iter().map(|b| b.index()).collect::<Vec<_>>(),
            cov * 100.0
        );
    }
    for (caller, site, n) in profile.hot_callsites(100).iter().take(8) {
        let _ = writeln!(
            out,
            "  hot call site @{} %t{} x{n}",
            m.func(*caller).name(),
            site.index()
        );
    }
    out
}
