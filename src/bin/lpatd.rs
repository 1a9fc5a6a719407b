//! `lpatd` — the fault-isolated multi-tenant compile-and-run daemon.
//!
//! ```text
//! lpatd [--listen ADDR] [--workers N] [--queue N]
//!       [--isolate thread|process] [--crash-k N] [--crash-window-ms N]
//!       [--watchdog-grace-ms N] [--restart-backoff-ms N] [--cache-dir DIR]
//!       [--max-frame-bytes N] [--default-fuel N] [--deadline-ms N]
//!       [--tenant-inflight N] [--tenant-bytes N] [--tenant-fuel N]
//!       [--max-requests N] [--inject-faults PLAN] [--quiet]
//!       [--trace-out FILE] [--metrics-out FILE] [--stats]
//!       [--trace-clock virtual|real] [--flight-dir DIR]
//! ```
//!
//! Flags may appear in any order; a flag the daemon does not read, a flag
//! missing its value, or a value that does not parse is an error naming
//! the flag (exit 2) and nothing is served (`lpat::cli`).
//!
//! `ADDR` is `tcp:host:port` (port 0 binds an ephemeral port) or
//! `unix:/path/to.sock`. On startup the daemon prints exactly one line —
//! `listening on <addr>` with the resolved address — to stdout, so
//! scripts and tests can discover the ephemeral port. It then serves
//! until killed, or until `--max-requests N` requests have completed
//! (tests and benchmarks use this for a clean, trace-flushing exit).
//! SIGTERM and SIGINT request the same graceful drain: stop accepting,
//! finish the queue, flush, exit 0.
//!
//! `--cache-dir DIR` (or `LPAT_CACHE_DIR`) is the lifelong store of `lpatc
//! run --cache-dir DIR`, laid out the same: `lpatc reopt --cache-dir DIR`
//! reoptimizes with the profiles the daemon recorded there, and the
//! daemon's next run serves what `lpatc` cached.
//!
//! Every request is fault-isolated: a panicking, hostile, or runaway
//! request becomes a structured error on its own connection while the
//! daemon keeps serving everyone else. `--isolate process` raises the
//! blast shield from `catch_unwind` to process boundaries: requests run
//! in pooled `lpatd --worker` subprocesses, so aborts, stack overflows,
//! OOM kills, and `kill -9` cost one worker (that client gets a
//! `crashed` error) while the daemon keeps serving; a payload whose
//! workers keep dying is quarantined by the crash-loop breaker
//! (`--crash-k` strikes inside `--crash-window-ms`).
//!
//! Observability: `--trace-out` merges the daemon's spans with every
//! worker subprocess's per-request trace buffer (shipped back over the
//! worker's stdout framing) into one Chrome/Perfetto trace with one pid
//! lane per process; under `--trace-clock virtual` the merged file is
//! byte-deterministic at any worker count. Under `--isolate process` each
//! worker also keeps a crash flight recorder — a bounded ring of its
//! recent trace events spilled to a checksummed file under `--flight-dir`
//! (default: `<cache-dir>/flight`, or a temp directory) — which the
//! supervisor salvages into a `*.flight` dump referenced by the `crashed`
//! diagnostic whenever a worker dies. The final `--stats`/`--metrics-out`
//! dump happens on every graceful exit path, including SIGTERM/SIGINT
//! drain.
//!
//! `--inject-faults` (or the `LPAT_FAULTS` environment variable) arms
//! the `serve.accept`, `serve.decode`, `serve.worker`, `serve.deadline`,
//! and `store.journal` (one hit per durability step of a profile flush:
//! append, fsync and, when the run compacts, temp write and rename)
//! sites, and the engines' `jit.translate` and `native.translate` (a
//! refused translation leaves the function one tier lower) — the same deterministic fault grammar the optimizer and store
//! use — which is how CI proves the isolation actually holds. Under `--isolate process` the plan is forwarded to
//! the worker subprocesses rather than armed in the daemon, so faults
//! land where requests execute.

use std::process::ExitCode;
use std::time::Duration;

use lpat::cli::{self, Args, Flags, TraceOutputs};
use lpat::serve::{Isolation, ServerConfig};

/// What the daemon reads, beside [`cli::GLOBAL`].
const DAEMON: Flags = Flags {
    switches: "--help -h",
    valued: "--listen --workers --queue --isolate --crash-k --crash-window-ms \
             --watchdog-grace-ms --restart-backoff-ms --cache-dir \
             --max-frame-bytes --default-fuel --deadline-ms --tenant-inflight \
             --tenant-bytes --tenant-fuel --max-requests --flight-dir",
};

/// What `lpatd --worker` reads: exactly what `ProcWorker::spawn` forwards.
const WORKER: Flags = Flags {
    switches: "",
    valued: "--default-fuel --max-frame-bytes --cache-dir --trace-clock --flight-file \
             --inject-faults",
};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--worker` selects a mode the way a subcommand would; the supervisor
    // always passes it first.
    let result = match argv.split_first() {
        Some((first, rest)) if first == "--worker" => run_worker(rest),
        _ => run(&argv),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lpatd: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &[&cli::GLOBAL, &DAEMON])?;
    if args.has("--help") || args.has("-h") {
        eprintln!(
            "usage: lpatd [--listen tcp:host:port|unix:/path] [--workers N] [--queue N]\n\
             \x20      [--isolate thread|process] [--crash-k N] [--crash-window-ms N]\n\
             \x20      [--watchdog-grace-ms N] [--restart-backoff-ms N]\n\
             \x20      [--cache-dir DIR] [--max-frame-bytes N]\n\
             \x20      [--default-fuel N] [--deadline-ms N]\n\
             \x20      [--tenant-inflight N] [--tenant-bytes N] [--tenant-fuel N]\n\
             \x20      [--max-requests N] [--inject-faults PLAN] [--quiet]\n\
             \x20      [--trace-out FILE] [--metrics-out FILE] [--stats]\n\
             \x20      [--trace-clock virtual|real] [--flight-dir DIR]\n\
             flags may appear in any order; an unknown flag is an error"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let mut cfg = ServerConfig::default();
    if let Some(v) = args.value("--isolate") {
        cfg.isolate = Isolation::parse(v).map_err(|e| format!("--isolate: {e}"))?;
    }
    // Install the fault plan before the server starts: the serve.* sites
    // must see it from the first accepted connection. Under process
    // isolation the plan is NOT armed here — requests execute in worker
    // subprocesses, so the plan is forwarded on their command line
    // instead (the daemon's own bookkeeping writes must not consume the
    // plan's ordinals).
    if let (Some(plan), Some(text)) = (args.fault_plan()?, args.value("--inject-faults")) {
        match cfg.isolate {
            Isolation::Thread => {
                lpat::core::fault::install(plan);
            }
            Isolation::Process => cfg
                .worker_args
                .extend(["--inject-faults".to_string(), text.to_string()]),
        }
    }
    let trace = TraceOutputs::begin(&args)?;
    let quiet = args.has("--quiet");

    if let Some(a) = args.value("--listen") {
        cfg.addr = a.to_string();
    }
    if let Some(n) = args.parsed("--workers")? {
        if n == 0 {
            return Err("--workers must be at least 1".into());
        }
        cfg.workers = n;
    }
    set(&args, "--queue", &mut cfg.queue_depth)?;
    set(&args, "--max-frame-bytes", &mut cfg.max_frame)?;
    set(&args, "--default-fuel", &mut cfg.default_fuel)?;
    set_ms(&args, "--deadline-ms", &mut cfg.default_deadline)?;
    set(&args, "--tenant-inflight", &mut cfg.quota.max_inflight)?;
    set(&args, "--tenant-bytes", &mut cfg.quota.max_bytes)?;
    set(&args, "--tenant-fuel", &mut cfg.quota.max_fuel)?;
    cfg.max_requests = args.parsed("--max-requests")?;
    cfg.cache_dir = args
        .value("--cache-dir")
        .map(str::to_string)
        .or_else(|| std::env::var("LPAT_CACHE_DIR").ok())
        .map(Into::into);
    set(&args, "--crash-k", &mut cfg.crash_k)?;
    set_ms(&args, "--crash-window-ms", &mut cfg.crash_window)?;
    set_ms(&args, "--watchdog-grace-ms", &mut cfg.watchdog_grace)?;
    set_ms(&args, "--restart-backoff-ms", &mut cfg.restart_backoff)?;
    if cfg.isolate == Isolation::Process {
        // Workers trace each request and ship the buffer back whenever
        // the daemon itself is exporting a trace.
        if trace.active() {
            cfg.worker_trace = Some(trace.clock);
        }
        // The flight recorder is always on under process isolation: the
        // whole point is having evidence *after* an unplanned death.
        cfg.flight_dir = Some(match args.value("--flight-dir") {
            Some(d) => std::path::PathBuf::from(d),
            None => match &cfg.cache_dir {
                Some(c) => c.join("flight"),
                None => std::env::temp_dir().join(format!("lpatd-flight-{}", std::process::id())),
            },
        });
    }

    // SIGTERM/SIGINT drain the daemon through the same clean path
    // `--max-requests` takes (finish the queue, flush, exit 0).
    lpat::serve::signal::install_term_handlers();
    let server = lpat::serve::Server::bind(cfg)?;
    let addr = server.local_addr();
    // The one machine-readable startup line; tests parse the port off it.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if !quiet {
        eprintln!("lpatd: serving (ctrl-c to stop)");
    }
    server.run();
    if !quiet {
        eprintln!("lpatd: shut down cleanly");
    }
    // Export the trace only after the pool has drained so every request
    // span and serve.* counter is in the file.
    trace.finish(quiet)?;
    Ok(ExitCode::SUCCESS)
}

/// Overwrite `field` with the parsed value of `flag`, when given.
fn set<T: std::str::FromStr>(args: &Args, flag: &str, field: &mut T) -> Result<(), String> {
    if let Some(v) = args.parsed(flag)? {
        *field = v;
    }
    Ok(())
}

/// [`set`] for a flag that counts milliseconds.
fn set_ms(args: &Args, flag: &str, field: &mut Duration) -> Result<(), String> {
    if let Some(ms) = args.parsed(flag)? {
        *field = Duration::from_millis(ms);
    }
    Ok(())
}

/// The `--worker` mode: a supervised subprocess speaking the LPRQ/LPRS
/// framing over stdin/stdout. No listen socket, no startup line —
/// stdout carries nothing but response frames. Exits 0 on stdin EOF
/// (the supervisor's graceful-drain signal).
fn run_worker(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &[&WORKER])?;
    // A ctrl-c to the process group must not kill workers out from
    // under the supervisor mid-drain; the supervisor alone decides
    // worker fate (stdin EOF to drain, SIGKILL for wedges).
    lpat::serve::signal::ignore_term_signals();
    // The worker is where requests actually execute, so the fault plan
    // arms here (the supervisor forwards `--inject-faults` verbatim).
    if let Some(plan) = args.fault_plan()? {
        lpat::core::fault::install(plan);
    }
    // What the supervisor does not forward it leaves at the default.
    let mut cfg = ServerConfig::default();
    set(&args, "--max-frame-bytes", &mut cfg.max_frame)?;
    set(&args, "--default-fuel", &mut cfg.default_fuel)?;
    let store = match args.value("--cache-dir") {
        Some(dir) => Some(lpat::vm::Store::open(dir).map_err(|e| format!("cache dir {e}"))?),
        None => None,
    };
    // Observability plumbing from the supervisor: `--trace-clock` turns
    // on per-request trace sessions shipped back as sidecar frames;
    // `--flight-file` additionally spills a bounded ring of recent
    // events for post-mortem salvage. A flight file without a trace
    // clock still needs sessions running (the recorder observes events
    // as they are recorded), so it forces a real-clock session that is
    // drained and discarded instead of shipped.
    let mut trace_clock = args.trace_clock()?;
    let ships_trace = trace_clock.is_some();
    if let Some(path) = args.value("--flight-file") {
        let rec =
            lpat::core::trace::FlightRecorder::create(std::path::Path::new(path), FLIGHT_RING)
                .map_err(|e| format!("--flight-file {path}: {e}"))?;
        lpat::core::trace::install_flight_recorder(rec);
        trace_clock.get_or_insert(lpat::core::trace::ClockMode::Real);
    }
    let engine = lpat::serve::Engine::new(store, cfg.default_fuel);
    let code = lpat::serve::run_worker_stdio(&engine, cfg.max_frame, trace_clock, ships_trace);
    Ok(ExitCode::from(code as u8))
}

/// Flight-recorder ring capacity: the last N trace events a worker keeps
/// for post-mortem salvage.
const FLIGHT_RING: usize = 64;
