//! Process-isolated workers: the crash-only layer behind
//! `lpatd --isolate process`.
//!
//! The thread isolation in [`crate::server`] is `catch_unwind`-deep: it
//! absorbs panics, but an abort, stack smash, OOM kill, or `kill -9`
//! still takes the whole daemon down. Under process isolation each of the
//! daemon's slots owns a worker: the daemon binary re-exec'd as
//! `lpatd --worker`, a subprocess speaking the existing LPRQ/LPRS framing
//! over its inherited stdin/stdout pipes. The connection thread holding
//! the slot hands its request to the slot's worker and waits:
//!
//! - a worker that **answers** delivers its response frame to the client,
//!   exactly as a thread-isolated request would;
//! - a worker that **dies** mid-request (any exit, any signal) costs that
//!   one client a structured [`ErrClass::Crashed`] response; the corpse is
//!   reaped and the slot's next holder spawns a fresh worker once the
//!   exponential respawn backoff has passed (consecutive crashes back
//!   off, a success resets);
//! - a worker that **wedges** — no answer by the request's deadline plus
//!   `WATCHDOG_GRACE` — is hard-killed (SIGKILL; cooperative deadline
//!   checks cannot stop a runaway native path), answered as
//!   [`ErrClass::Deadline`], and replaced the same way.
//!
//! On top sits the crash-loop circuit breaker (`CrashBreaker`): every
//! crash or watchdog kill is charged to the FNV-1a hash of the raw
//! request payload (never the parsed module — the daemon must not parse
//! a payload that kills workers). K strikes inside the breaker window
//! denylist the hash: subsequent requests answer
//! [`ErrClass::Quarantined`] instantly, without burning a worker. The
//! denylist is persisted through [`lpat_vm::store::DenyRecord`]s in the
//! lifelong store, so a crash-looping module stays quarantined across
//! daemon restarts.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use crate::proto::{
    backoff_delay, decode_request, decode_response, encode_request, encode_response, read_frame,
    write_frame, ErrClass, ProtoError, Request, Response,
};
use crate::server::{panic_message, process, Engine, ServerConfig};
use lpat_core::trace;
use lpat_vm::store::DenyRecord;
use lpat_vm::Store;

/// Where request pipelines execute.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Isolation {
    /// On the connection's thread under `catch_unwind`: cheapest,
    /// absorbs panics, dies with aborts.
    #[default]
    Thread,
    /// One `lpatd --worker` subprocess per slot: absorbs aborts, stack
    /// overflows, OOM kills, and `kill -9`.
    Process,
}

impl Isolation {
    /// Parse the `--isolate` flag value.
    ///
    /// # Errors
    ///
    /// A human-readable message for anything but `thread` / `process`.
    pub fn parse(s: &str) -> Result<Isolation, String> {
        match s {
            "thread" => Ok(Isolation::Thread),
            "process" => Ok(Isolation::Process),
            other => Err(format!("bad isolation '{other}' (thread, process)")),
        }
    }
}

/// The first respawn backoff of a slot whose worker died; it doubles per
/// consecutive death.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(50);
/// Upper bound on the respawn backoff.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(5);
/// Slack past a request's deadline before a silent worker is declared
/// wedged and hard-killed.
const WATCHDOG_GRACE: Duration = Duration::from_millis(500);
/// How long a graceful shutdown waits for a worker to exit on stdin EOF
/// before hard-killing it.
const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(2);

/// Outcome of handing one request to a worker process.
pub(crate) enum Dispatch {
    /// The worker answered with this response; when worker-side tracing
    /// is on, the second field carries the sidecar frame with the
    /// worker's serialized trace buffer for this request.
    Reply(Response, Option<Vec<u8>>),
    /// The worker process died before answering (exit, abort, signal).
    Crashed(String),
    /// The worker blew the deadline plus `WATCHDOG_GRACE`; the caller
    /// must hard-kill it.
    Wedged,
}

/// One worker subprocess plus the reader thread that pumps its stdout
/// frames into a channel (so its slot's holder can time out a read
/// without platform-specific pipe polling).
pub(crate) struct ProcWorker {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    rx: mpsc::Receiver<Vec<u8>>,
    reader: Option<thread::JoinHandle<()>>,
    /// OS pid, for stats (and for chaos tests to `kill -9`).
    pub(crate) pid: u32,
    /// Whether this worker was spawned with `--trace-clock` and therefore
    /// follows every response frame with a trace sidecar frame.
    ships_trace: bool,
}

impl ProcWorker {
    /// Re-exec this binary as `lpatd --worker` with pipes on
    /// stdin/stdout. Stderr is inherited: a worker's dying words (panic
    /// messages, abort notices) belong in the daemon's log. `slot` names
    /// the slot's flight-recorder spill file.
    pub(crate) fn spawn(cfg: &ServerConfig, slot: usize) -> std::io::Result<ProcWorker> {
        let mut cmd = std::process::Command::new(std::env::current_exe()?);
        cmd.arg("--worker");
        cmd.arg("--default-fuel").arg(cfg.default_fuel.to_string());
        cmd.arg("--max-frame-bytes").arg(cfg.max_frame.to_string());
        if let Some(dir) = &cfg.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if let Some(mode) = cfg.worker_trace {
            cmd.arg("--trace-clock").arg(match mode {
                lpat_core::trace::ClockMode::Virtual => "virtual",
                lpat_core::trace::ClockMode::Real => "real",
            });
        }
        if let Some(dir) = &cfg.flight_dir {
            cmd.arg("--flight-file")
                .arg(dir.join(format!("slot{slot}.spill")));
        }
        cmd.args(&cfg.worker_args);
        cmd.stdin(std::process::Stdio::piped());
        cmd.stdout(std::process::Stdio::piped());
        cmd.stderr(std::process::Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let pid = child.id();
        let (tx, rx) = mpsc::channel();
        let max_frame = cfg.max_frame;
        let reader = thread::Builder::new()
            .name(format!("lpatd-reader-{pid}"))
            .spawn(move || {
                // Frames flow until the pipe closes (worker death or
                // clean EOF exit); either way the channel disconnects and
                // the dispatcher sees it as recv failure.
                while let Ok(frame) = read_frame(&mut stdout, max_frame) {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            })?;
        Ok(ProcWorker {
            child,
            stdin: Some(stdin),
            rx,
            reader: Some(reader),
            pid,
            ships_trace: cfg.worker_trace.is_some(),
        })
    }

    /// Hand one request to the worker and wait for its answer, the
    /// watchdog timeout, or its death. `remaining` is the request's
    /// remaining wall-clock budget; the worker sees it as its own
    /// deadline, and the caller waits `remaining + WATCHDOG_GRACE` before
    /// declaring a wedge.
    pub(crate) fn dispatch(&mut self, req: &Request, remaining: Duration) -> Dispatch {
        let mut fwd = req.clone();
        fwd.deadline_ms = u32::try_from(remaining.as_millis())
            .unwrap_or(u32::MAX)
            .max(1);
        let frame = encode_request(&fwd);
        let Some(stdin) = self.stdin.as_mut() else {
            return Dispatch::Crashed("worker stdin already closed".into());
        };
        if write_frame(stdin, &frame).is_err() || stdin.flush().is_err() {
            // EPIPE: the worker died between requests.
            return Dispatch::Crashed("write to worker failed (EPIPE)".into());
        }
        match self.rx.recv_timeout(remaining + WATCHDOG_GRACE) {
            Ok(frame) => match decode_response(&frame) {
                Ok(resp) => {
                    // A tracing worker writes its sidecar frame back to
                    // back with the response; a worker that dies (or
                    // stalls) in between forfeits the trace, never the
                    // answer that already arrived intact.
                    let sidecar = if self.ships_trace {
                        self.rx.recv_timeout(WATCHDOG_GRACE).ok()
                    } else {
                        None
                    };
                    Dispatch::Reply(resp, sidecar)
                }
                Err(e) => Dispatch::Crashed(format!("garbled worker response: {e}")),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let detail = match self.child.try_wait() {
                    Ok(Some(status)) => format!("worker exited: {status}"),
                    _ => "worker pipe closed".into(),
                };
                Dispatch::Crashed(detail)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Dispatch::Wedged,
        }
    }

    /// Hard-kill (SIGKILL) and reap the worker. Used for wedges and for
    /// post-crash cleanup; safe to call on an already-dead child.
    pub(crate) fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(j) = self.reader.take() {
            let _ = j.join();
        }
    }

    /// Graceful shutdown: close stdin so the worker exits on EOF, give it
    /// [`SHUTDOWN_PATIENCE`], then hard-kill whatever is left.
    pub(crate) fn shutdown(mut self) {
        drop(self.stdin.take());
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if start.elapsed() < SHUTDOWN_PATIENCE => {
                    thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(j) = self.reader.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ProcWorker {
    fn drop(&mut self) {
        // Backstop for a slot dropped without `shutdown`: never leak a
        // child.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(j) = self.reader.take() {
            let _ = j.join();
        }
    }
}

// -- crash-loop circuit breaker -------------------------------------------

struct BreakerEntry {
    count: u32,
    window_start: Instant,
    first_unix_ms: u64,
    denied: bool,
}

/// Per-payload-hash crash accounting: K strikes within `window` denylist
/// the hash. State is seeded from (and persisted to) the lifelong store's
/// deny records, so quarantine survives daemon restarts; persistence is
/// best-effort — a store failure never blocks the in-memory breaker.
pub(crate) struct CrashBreaker {
    k: u32,
    window: Duration,
    entries: Mutex<HashMap<u64, BreakerEntry>>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl CrashBreaker {
    pub(crate) fn new(k: u32, window: Duration) -> CrashBreaker {
        CrashBreaker {
            k: k.max(1),
            window,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Seed the entry for `hash` from the persisted deny record (once per
    /// hash per daemon life). A persisted denial is authoritative; a
    /// persisted strike count only carries over while still inside the
    /// breaker window.
    fn entry<'a>(
        &self,
        map: &'a mut HashMap<u64, BreakerEntry>,
        hash: u64,
        store: Option<&Store>,
    ) -> &'a mut BreakerEntry {
        map.entry(hash).or_insert_with(|| {
            let rec = store.and_then(|s| s.load_deny(hash));
            let now = Instant::now();
            match rec {
                Some(r) => {
                    let fresh =
                        unix_ms().saturating_sub(r.last_unix_ms) <= self.window.as_millis() as u64;
                    BreakerEntry {
                        count: if fresh { r.count } else { 0 },
                        window_start: now,
                        first_unix_ms: r.first_unix_ms,
                        denied: r.denied,
                    }
                }
                None => BreakerEntry {
                    count: 0,
                    window_start: now,
                    first_unix_ms: 0,
                    denied: false,
                },
            }
        })
    }

    /// Is this payload hash denylisted?
    pub(crate) fn is_denied(&self, hash: u64, store: Option<&Store>) -> bool {
        let mut map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        self.entry(&mut map, hash, store).denied
    }

    /// Charge one worker crash to `hash`. Returns `true` when this strike
    /// trips the breaker (K reached inside the window).
    pub(crate) fn record_crash(&self, hash: u64, store: Option<&Store>) -> bool {
        let now_ms = unix_ms();
        let (rec, newly) = {
            let mut map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            let ent = self.entry(&mut map, hash, store);
            if ent.window_start.elapsed() > self.window {
                // The previous strikes aged out: a fresh window starts
                // with this crash.
                ent.count = 0;
                ent.window_start = Instant::now();
            }
            ent.count = ent.count.saturating_add(1);
            if ent.first_unix_ms == 0 {
                ent.first_unix_ms = now_ms;
            }
            let newly = !ent.denied && ent.count >= self.k;
            if newly {
                ent.denied = true;
            }
            (
                DenyRecord {
                    hash,
                    count: ent.count,
                    denied: ent.denied,
                    first_unix_ms: ent.first_unix_ms,
                    last_unix_ms: now_ms,
                },
                newly,
            )
        };
        // Persist outside the map lock; every strike is recorded so the
        // count survives even a daemon crash between strikes.
        if let Some(s) = store {
            let _ = s.save_deny(&rec);
        }
        newly
    }
}

// -- worker-process main loop ---------------------------------------------

/// The `lpatd --worker` main loop: read request frames from stdin,
/// execute each through the same `process` pipeline thread isolation
/// uses (still under `catch_unwind` — a plain panic should cost one
/// *request*, not one worker process), write response frames to stdout.
/// Exits 0 on stdin EOF (the daemon's graceful drain signal).
///
/// With `trace_clock` set the worker runs one fresh trace session per
/// request — ordinals and timestamps restart at zero, so the recorded
/// buffer is a pure function of the request, independent of how many
/// slots the daemon has. When `ships_trace` is also set, every
/// response frame is followed by a sidecar frame carrying the serialized
/// buffer ([`lpat_core::trace::encode_wire_trace`]) for the daemon to
/// absorb as this process's lane. Enabling the session without shipping
/// is how the flight recorder observes events on its own
/// (`--flight-file` without `--trace-clock`).
///
/// Stdout carries nothing but frames: the daemon's startup line, logs,
/// and panic messages all go to stderr.
pub fn run_worker_stdio(
    engine: &Engine,
    max_frame: u32,
    trace_clock: Option<trace::ClockMode>,
    ships_trace: bool,
) -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    loop {
        let frame = match read_frame(&mut input, max_frame) {
            Ok(f) => f,
            Err(ProtoError::Closed) => return 0,
            Err(_) => return 1,
        };
        // The session starts before decode so the sidecar framing stays
        // in lockstep with responses even on a decode error (the sidecar
        // is then simply empty).
        if let Some(mode) = trace_clock {
            trace::enable(mode);
        }
        let resp = match decode_request(&frame) {
            Ok(req) => {
                // Recorded first thing so a mid-request kill always
                // leaves at least one event in the flight ring.
                trace::instant_args(
                    "serve.worker",
                    "request.begin",
                    vec![
                        ("op", req.op.name().to_string()),
                        ("rid", req.request_id.to_string()),
                    ],
                );
                // The daemon always forwards the budget that is left
                // (`ProcWorker::dispatch`), never 0 for "use a default".
                let deadline = Instant::now() + Duration::from_millis(u64::from(req.deadline_ms));
                match catch_unwind(AssertUnwindSafe(|| process(engine, &req, deadline))) {
                    Ok(resp) => resp,
                    Err(payload) => Response::err(
                        ErrClass::Panic,
                        format!("request pipeline panicked: {}", panic_message(&payload)),
                    ),
                }
            }
            Err(e) => Response::err(ErrClass::Decode, e.to_string()),
        };
        let sidecar = if trace_clock.is_some() {
            let data = trace::drain();
            trace::disable();
            ships_trace.then(|| trace::encode_wire_trace(&data, std::process::id()))
        } else {
            None
        };
        if write_frame(&mut output, &encode_response(&resp)).is_err() || output.flush().is_err() {
            // The daemon is gone; nothing left to serve.
            return 0;
        }
        if let Some(blob) = sidecar {
            if write_frame(&mut output, &blob).is_err() || output.flush().is_err() {
                return 0;
            }
        }
    }
}

/// How long a slot waits before respawning a worker after `consecutive`
/// deaths in a row (0 for the first).
pub(crate) fn respawn_backoff(consecutive: u32) -> Duration {
    backoff_delay(RESPAWN_BACKOFF, consecutive, RESPAWN_BACKOFF_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_parses() {
        assert_eq!(Isolation::parse("thread"), Ok(Isolation::Thread));
        assert_eq!(Isolation::parse("process"), Ok(Isolation::Process));
        assert!(Isolation::parse("vm").is_err());
    }

    #[test]
    fn breaker_trips_at_k_within_window() {
        let b = CrashBreaker::new(3, Duration::from_secs(60));
        assert!(!b.is_denied(7, None));
        assert!(!b.record_crash(7, None));
        assert!(!b.record_crash(7, None));
        assert!(!b.is_denied(7, None), "two strikes: still allowed");
        assert!(b.record_crash(7, None), "third strike trips");
        assert!(b.is_denied(7, None));
        // Other hashes are unaffected.
        assert!(!b.is_denied(8, None));
        // Further strikes report already-tripped, not newly-tripped.
        assert!(!b.record_crash(7, None));
    }

    #[test]
    fn breaker_window_expiry_resets_the_count() {
        let b = CrashBreaker::new(2, Duration::ZERO); // every strike ages out
        assert!(!b.record_crash(9, None));
        assert!(!b.record_crash(9, None), "window ZERO: counts never stack");
        assert!(!b.is_denied(9, None));
    }

    #[test]
    fn breaker_persists_and_reloads_denials() {
        let dir = std::env::temp_dir().join(format!("lpat-breaker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let b = CrashBreaker::new(2, Duration::from_secs(300));
        assert!(!b.record_crash(0xBAD, Some(&store)));
        assert!(b.record_crash(0xBAD, Some(&store)));
        assert!(b.is_denied(0xBAD, Some(&store)));
        // A brand-new breaker (daemon restart) sees the persisted denial.
        let b2 = CrashBreaker::new(2, Duration::from_secs(300));
        assert!(b2.is_denied(0xBAD, Some(&store)));
        assert!(!b2.is_denied(0xF00D, Some(&store)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn respawn_backoff_grows_and_caps() {
        assert_eq!(respawn_backoff(0), RESPAWN_BACKOFF);
        assert_eq!(respawn_backoff(1), RESPAWN_BACKOFF * 2);
        assert!(respawn_backoff(30) <= RESPAWN_BACKOFF_CAP);
    }
}
