//! `lpatd` — the fault-isolated multi-tenant compile-and-run daemon.
//!
//! ```text
//! lpatd [--listen ADDR] [--workers N] [--queue N]
//!       [--isolate thread|process] [--crash-k N] [--crash-window-ms N]
//!       [--watchdog-grace-ms N] [--restart-backoff-ms N]
//!       [--cache-dir DIR] [--shards N]
//!       [--max-frame-bytes N] [--default-fuel N] [--deadline-ms N]
//!       [--tenant-inflight N] [--tenant-bytes N] [--tenant-fuel N]
//!       [--max-requests N] [--inject-faults PLAN] [--quiet]
//!       [--trace-out FILE] [--metrics-out FILE] [--stats]
//!       [--trace-clock virtual|real] [--flight-dir DIR]
//! ```
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
//! and `store.journal` (one hit per durability step of a profile flush)
//! sites — the same deterministic fault grammar the optimizer and store
//! use — which is how CI proves the isolation actually holds. Under `--isolate process` the plan is forwarded to
//! the worker subprocesses rather than armed in the daemon, so faults
//! land where requests execute.

use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lpatd: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if has_flag(args, "--help") || has_flag(args, "-h") {
        eprintln!(
            "usage: lpatd [--listen tcp:host:port|unix:/path] [--workers N] [--queue N]\n\
             \x20      [--isolate thread|process] [--crash-k N] [--crash-window-ms N]\n\
             \x20      [--watchdog-grace-ms N] [--restart-backoff-ms N]\n\
             \x20      [--cache-dir DIR] [--shards N] [--max-frame-bytes N]\n\
             \x20      [--default-fuel N] [--deadline-ms N]\n\
             \x20      [--tenant-inflight N] [--tenant-bytes N] [--tenant-fuel N]\n\
             \x20      [--max-requests N] [--inject-faults PLAN] [--quiet]\n\
             \x20      [--trace-out FILE] [--metrics-out FILE] [--stats]\n\
             \x20      [--trace-clock virtual|real] [--flight-dir DIR]"
        );
        return Ok(ExitCode::SUCCESS);
    }
    if has_flag(args, "--worker") {
        return run_worker(args);
    }
    let isolate = match flag_value(args, "--isolate") {
        Some(v) => lpat::serve::Isolation::parse(v).map_err(|e| format!("--isolate: {e}"))?,
        None => lpat::serve::Isolation::Thread,
    };
    // Install the fault plan before the server starts: the serve.* sites
    // must see it from the first accepted connection. Under process
    // isolation the plan is NOT armed here — requests execute in worker
    // subprocesses, so the plan is forwarded on their command line
    // instead (the daemon's own bookkeeping writes must not consume the
    // plan's ordinals).
    let mut worker_args: Vec<String> = Vec::new();
    if let Some(plan) = flag_value(args, "--inject-faults") {
        let parsed =
            lpat::core::FaultPlan::parse(plan).map_err(|e| format!("--inject-faults: {e}"))?;
        match isolate {
            lpat::serve::Isolation::Thread => {
                lpat::core::fault::install(parsed);
            }
            lpat::serve::Isolation::Process => {
                worker_args.extend(["--inject-faults".to_string(), plan.to_string()]);
            }
        }
    }
    let trace_out = flag_value(args, "--trace-out").map(str::to_string);
    let metrics_out = flag_value(args, "--metrics-out").map(str::to_string);
    let stats = has_flag(args, "--stats");
    let tracing = trace_out.is_some() || metrics_out.is_some() || stats;
    // The flag wins over the environment, same as lpatc.
    let clock = match flag_value(args, "--trace-clock") {
        Some("virtual") => lpat::core::trace::ClockMode::Virtual,
        Some("real") => lpat::core::trace::ClockMode::Real,
        Some(other) => return Err(format!("bad --trace-clock '{other}' (virtual or real)")),
        None => match std::env::var("LPAT_TRACE_CLOCK").as_deref() {
            Ok("virtual") => lpat::core::trace::ClockMode::Virtual,
            _ => lpat::core::trace::ClockMode::Real,
        },
    };
    if tracing {
        lpat::core::trace::enable(clock);
    }
    let quiet = has_flag(args, "--quiet");

    let mut cfg = lpat::serve::ServerConfig::default();
    if let Some(a) = flag_value(args, "--listen") {
        cfg.addr = a.to_string();
    }
    if let Some(v) = flag_value(args, "--workers") {
        cfg.workers = parse(v, "--workers")?;
        if cfg.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
    }
    if let Some(v) = flag_value(args, "--queue") {
        cfg.queue_depth = parse(v, "--queue")?;
    }
    if let Some(v) = flag_value(args, "--max-frame-bytes") {
        cfg.max_frame = parse(v, "--max-frame-bytes")?;
    }
    if let Some(v) = flag_value(args, "--default-fuel") {
        cfg.default_fuel = parse(v, "--default-fuel")?;
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        cfg.default_deadline = Duration::from_millis(parse(v, "--deadline-ms")?);
    }
    if let Some(v) = flag_value(args, "--tenant-inflight") {
        cfg.quota.max_inflight = parse(v, "--tenant-inflight")?;
    }
    if let Some(v) = flag_value(args, "--tenant-bytes") {
        cfg.quota.max_bytes = parse(v, "--tenant-bytes")?;
    }
    if let Some(v) = flag_value(args, "--tenant-fuel") {
        cfg.quota.max_fuel = parse(v, "--tenant-fuel")?;
    }
    if let Some(v) = flag_value(args, "--max-requests") {
        cfg.max_requests = Some(parse(v, "--max-requests")?);
    }
    if let Some(v) = flag_value(args, "--shards") {
        cfg.shards = parse(v, "--shards")?;
    }
    cfg.cache_dir = flag_value(args, "--cache-dir")
        .map(str::to_string)
        .or_else(|| std::env::var("LPAT_CACHE_DIR").ok())
        .map(Into::into);
    cfg.isolate = isolate;
    cfg.worker_args = worker_args;
    if let Some(v) = flag_value(args, "--crash-k") {
        cfg.crash_k = parse(v, "--crash-k")?;
    }
    if let Some(v) = flag_value(args, "--crash-window-ms") {
        cfg.crash_window = Duration::from_millis(parse(v, "--crash-window-ms")?);
    }
    if let Some(v) = flag_value(args, "--watchdog-grace-ms") {
        cfg.watchdog_grace = Duration::from_millis(parse(v, "--watchdog-grace-ms")?);
    }
    if let Some(v) = flag_value(args, "--restart-backoff-ms") {
        cfg.restart_backoff = Duration::from_millis(parse(v, "--restart-backoff-ms")?);
    }
    if isolate == lpat::serve::Isolation::Process {
        // Workers trace each request and ship the buffer back whenever
        // the daemon itself is exporting a trace.
        if tracing {
            cfg.worker_trace = Some(clock);
        }
        // The flight recorder is always on under process isolation: the
        // whole point is having evidence *after* an unplanned death.
        cfg.flight_dir = Some(match flag_value(args, "--flight-dir") {
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
    if trace_out.is_some() || metrics_out.is_some() || stats {
        let data = lpat::core::trace::drain();
        if let Some(p) = &trace_out {
            std::fs::write(p, data.to_chrome_json())
                .map_err(|e| format!("--trace-out {p}: {e}"))?;
        }
        if let Some(p) = &metrics_out {
            std::fs::write(p, data.to_metrics_json())
                .map_err(|e| format!("--metrics-out {p}: {e}"))?;
        }
        if stats {
            eprint!("{}", data.render_stats());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--worker` mode: a supervised subprocess speaking the LPRQ/LPRS
/// framing over stdin/stdout. No listen socket, no startup line —
/// stdout carries nothing but response frames. Exits 0 on stdin EOF
/// (the supervisor's graceful-drain signal).
fn run_worker(args: &[String]) -> Result<ExitCode, String> {
    // A ctrl-c to the process group must not kill workers out from
    // under the supervisor mid-drain; the supervisor alone decides
    // worker fate (stdin EOF to drain, SIGKILL for wedges).
    lpat::serve::signal::ignore_term_signals();
    // The worker is where requests actually execute, so the fault plan
    // arms here (the supervisor forwards `--inject-faults` verbatim).
    if let Some(plan) = flag_value(args, "--inject-faults") {
        let plan =
            lpat::core::FaultPlan::parse(plan).map_err(|e| format!("--inject-faults: {e}"))?;
        lpat::core::fault::install(plan);
    }
    let mut max_frame = lpat::serve::DEFAULT_MAX_FRAME;
    if let Some(v) = flag_value(args, "--max-frame-bytes") {
        max_frame = parse(v, "--max-frame-bytes")?;
    }
    let mut default_fuel: u64 = 100_000_000;
    if let Some(v) = flag_value(args, "--default-fuel") {
        default_fuel = parse(v, "--default-fuel")?;
    }
    let mut default_deadline = Duration::from_secs(10);
    if let Some(v) = flag_value(args, "--deadline-ms") {
        default_deadline = Duration::from_millis(parse(v, "--deadline-ms")?);
    }
    let store = match flag_value(args, "--cache-dir") {
        Some(dir) => {
            let shards: u32 = match flag_value(args, "--shards") {
                Some(v) => parse(v, "--shards")?,
                None => 16,
            };
            Some(
                lpat::serve::ShardedStore::open(std::path::Path::new(dir), shards)
                    .map_err(|e| format!("cache dir {e}"))?,
            )
        }
        None => None,
    };
    // Observability plumbing from the supervisor: `--trace-clock` turns
    // on per-request trace sessions shipped back as sidecar frames;
    // `--flight-file` additionally spills a bounded ring of recent
    // events for post-mortem salvage. A flight file without a trace
    // clock still needs sessions running (the recorder observes events
    // as they are recorded), so it forces a real-clock session that is
    // drained and discarded instead of shipped.
    let mut ships_trace = false;
    let mut trace_clock = match flag_value(args, "--trace-clock") {
        Some("virtual") => {
            ships_trace = true;
            Some(lpat::core::trace::ClockMode::Virtual)
        }
        Some("real") => {
            ships_trace = true;
            Some(lpat::core::trace::ClockMode::Real)
        }
        Some(other) => return Err(format!("bad --trace-clock '{other}' (virtual or real)")),
        None => None,
    };
    if let Some(path) = flag_value(args, "--flight-file") {
        let rec =
            lpat::core::trace::FlightRecorder::create(std::path::Path::new(path), FLIGHT_RING)
                .map_err(|e| format!("--flight-file {path}: {e}"))?;
        lpat::core::trace::install_flight_recorder(rec);
        if trace_clock.is_none() {
            trace_clock = Some(lpat::core::trace::ClockMode::Real);
        }
    }
    let engine = lpat::serve::Engine::new(store, default_fuel);
    let code = lpat::serve::run_worker_stdio(
        &engine,
        max_frame,
        default_deadline,
        trace_clock,
        ships_trace,
    );
    Ok(ExitCode::from(code as u8))
}

/// Flight-recorder ring capacity: the last N trace events a worker keeps
/// for post-mortem salvage.
const FLIGHT_RING: usize = 64;

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value '{v}'"))
}

fn has_flag(args: &[String], f: &str) -> bool {
    args.iter().any(|a| a == f)
}

fn flag_value<'a>(args: &'a [String], f: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == f)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
