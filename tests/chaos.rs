//! Chaos tests for the crash-only daemon (`lpatd --isolate process`).
//!
//! Where `tests/serve.rs` proves the `catch_unwind` isolation holds
//! against *panics*, this suite proves the process-isolation layer holds
//! against the failures `catch_unwind` cannot absorb: `abort(3)`,
//! `SIGKILL` mid-request, and `SIGKILL` parked between any two
//! durability steps of a run's profile flush. Every test drives a real
//! `lpatd` subprocess over a real socket and kills real worker
//! processes; after each induced death the daemon must keep serving,
//! exactly one client may see a structured error, and the store must
//! hold zero quarantine debris.
//!
//! CI fans these out via the `chaos-matrix` job, one leg per crash
//! family (`LPAT_CHAOS_MATRIX=worker-abort|journal-kill|watchdog`);
//! locally everything runs.

use std::io::Read as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lpat::serve::{Addr, Client, ErrClass, Op, Request, Response};
use lpat::vm::{module_hash, Store};

const ADD_PROG: &str = "\
define int @main() {
entry:
  %a = add int 40, 2
  ret int %a
}
";

/// A second payload with a different hash, for per-payload breaker
/// isolation checks.
const MUL_PROG: &str = "\
define int @main() {
entry:
  %a = mul int 6, 7
  ret int %a
}
";

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_request(module: &str) -> Request {
    let mut req = Request::new(Op::Run);
    req.module = module.as_bytes().to_vec();
    req
}

fn connect(addr: &Addr) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

/// An `lpatd` subprocess. Fault plans go through `--inject-faults` (not
/// the environment) so that under `--isolate process` the daemon
/// forwards them to workers instead of arming them in itself.
struct Daemon {
    child: Child,
    addr: Addr,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lpatd"));
        cmd.args(["--listen", "tcp:127.0.0.1:0", "--quiet"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn lpatd");
        let mut line = String::new();
        {
            let stdout = child.stdout.as_mut().unwrap();
            let mut one = [0u8; 1];
            while stdout.read(&mut one).unwrap() == 1 {
                if one[0] == b'\n' {
                    break;
                }
                line.push(one[0] as char);
            }
        }
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad startup line: {line:?}"))
            .trim()
            .to_string();
        Daemon {
            child,
            addr: Addr::parse(&addr).unwrap(),
        }
    }

    fn alive(&mut self) -> bool {
        self.child.try_wait().unwrap().is_none()
    }

    /// Wait (bounded) for the daemon to exit on its own; the exit code.
    fn wait_exit(&mut self, patience: Duration) -> Option<i32> {
        let start = Instant::now();
        while start.elapsed() < patience {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Fetch the daemon's stats JSON (answered in-daemon under process
/// isolation, so it works even while every worker is busy or dead).
fn stats_json(addr: &Addr) -> String {
    let mut c = connect(addr);
    match c.request(&Request::new(Op::Stats)).expect("stats") {
        Response::Ok { output, .. } => String::from_utf8(output).unwrap(),
        other => panic!("stats answered {other:?}"),
    }
}

/// Pull one numeric counter out of the stats JSON.
fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The live worker pids the supervisor published (zeroes filtered).
fn worker_pids(json: &str) -> Vec<u32> {
    let at = json.find("\"worker_pids\":[").expect("worker_pids");
    let rest = &json[at + "\"worker_pids\":[".len()..];
    let end = rest.find(']').unwrap();
    rest[..end]
        .split(',')
        .filter_map(|s| s.trim().parse::<u32>().ok())
        .filter(|&p| p != 0)
        .collect()
}

/// Wait until the supervisor has published at least one live worker pid.
fn wait_for_worker_pid(addr: &Addr, patience: Duration) -> u32 {
    let start = Instant::now();
    loop {
        let pids = worker_pids(&stats_json(addr));
        if let Some(&p) = pids.first() {
            return p;
        }
        assert!(
            start.elapsed() < patience,
            "no worker pid appeared within {patience:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

fn sigkill(pid: u32) {
    let ok = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -9 {pid} failed");
}

fn sigterm(pid: u32) {
    let ok = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -TERM {pid} failed");
}

/// Every file whose name contains `pat`, anywhere under the cache dir.
fn files_named(root: &std::path::Path, pat: &str) -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for ent in std::fs::read_dir(&dir).unwrap() {
            let path = ent.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().unwrap().to_string_lossy().contains(pat) {
                found.push(path);
            }
        }
    }
    found
}

fn assert_no_files_named(root: &std::path::Path, pat: &str, what: &str) {
    let found = files_named(root, pat);
    assert!(found.is_empty(), "{what}: {found:?}");
}

/// No `*.corrupt-N` quarantine debris anywhere under the cache dir —
/// a torn tail is cut off and a whole file is replaced atomically, so
/// crashes never surface as corrupt-store quarantines.
fn assert_no_corrupt_files(root: &std::path::Path) {
    assert_no_files_named(root, ".corrupt-", "quarantine debris after crash");
}

/// Stored run count for `module` (0 when no profile was persisted).
fn stored_runs(cache: &std::path::Path, module: &str) -> u64 {
    let m = lpat::asm::parse_module("chaos", module).unwrap();
    let store = Store::open(cache).unwrap();
    let hash = module_hash(&m);
    store
        .load_profile(hash)
        .unwrap()
        .value
        .map(|sp| sp.runs)
        .unwrap_or(0)
}

/// Matrix legs: CI runs one family per job via `LPAT_CHAOS_MATRIX`;
/// locally all run.
fn in_matrix(family: &str) -> bool {
    match std::env::var("LPAT_CHAOS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v.split(',').any(|s| s.trim() == family),
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Worker aborts: one request, not the daemon.
// ---------------------------------------------------------------------------

#[test]
fn worker_abort_costs_one_request_not_the_daemon() {
    if !in_matrix("worker-abort") {
        return;
    }
    // The worker aborts on its SECOND request: request 1 proves the slot
    // works, request 2 takes the abort, request 3 proves the respawned
    // slot works. `catch_unwind` cannot absorb abort(3) — only the
    // process boundary can.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--inject-faults",
        "serve.worker:abort@2",
    ]);
    let mut c = connect(&d.addr);
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("warmup answered {other:?}"),
    }
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
            assert!(message.contains("worker died"), "{message}");
        }
        other => panic!("aborting request answered {other:?}"),
    }
    // Same connection, next request: a fresh worker serves it.
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("post-crash request answered {other:?}"),
    }
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "worker_crashes"), 1, "{json}");
    assert_eq!(stat(&json, "worker_restarts"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

#[test]
fn sigkill_mid_request_answers_crashed_and_daemon_survives() {
    if !in_matrix("worker-abort") {
        return;
    }
    // Every request stalls 5s inside the worker; the test SIGKILLs the
    // worker mid-stall — the client must get `crashed` long before the
    // stall would have ended, and the daemon must not notice.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--inject-faults",
        "serve.worker:delay=5000",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        c.request(&run_request(ADD_PROG)).unwrap()
    });
    let pid = wait_for_worker_pid(&d.addr, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(300)); // let it park in the stall
    let t0 = Instant::now();
    sigkill(pid);
    match inflight.join().unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
        }
        other => panic!("killed request answered {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "crash answer took {:?} — the supervisor waited out the stall",
        t0.elapsed()
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "worker_crashes"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

#[test]
fn sigkill_salvages_a_flight_record_into_the_crash_diagnostic() {
    if !in_matrix("worker-abort") {
        return;
    }
    // A worker dying to SIGKILL cannot flush anything at death; its
    // flight recorder must therefore have already spilled the recent
    // trace ring incrementally. The supervisor salvages the
    // checksum-valid prefix into a standalone dump and references it in
    // the `Crashed` diagnostic.
    let flight_dir = tmp("flight-salvage");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--flight-dir",
        flight_dir.to_str().unwrap(),
        "--inject-faults",
        "serve.worker:delay=5000",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        let mut req = run_request(ADD_PROG);
        req.request_id = 77; // client-chosen: pins the dump's file name
        c.request(&req).unwrap()
    });
    let pid = wait_for_worker_pid(&d.addr, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(300)); // let it park in the stall
    sigkill(pid);
    let message = match inflight.join().unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
            message
        }
        other => panic!("killed request answered {other:?}"),
    };
    assert!(
        message.contains("flight record:"),
        "crash diagnostic must reference the salvaged flight record: {message}"
    );
    let dump = flight_dir.join("slot0-rid77.flight");
    assert!(
        message.contains(&dump.display().to_string()),
        "diagnostic must name the dump path: {message}"
    );
    let bytes = std::fs::read(&dump).expect("flight dump exists");
    assert!(
        bytes.starts_with(&lpat::core::trace::FLIGHT_MAGIC),
        "flight dump must start with the LPFR magic"
    );
    let events = lpat::core::trace::read_flight(&dump).expect("flight dump parses");
    assert!(
        !events.is_empty(),
        "flight dump must carry the worker's last events"
    );
    // The ring captured the doomed request itself, not just old traffic.
    assert!(
        events
            .iter()
            .any(|e| e.cat == "serve.worker" && e.name == "request.begin"),
        "flight events: {events:?}"
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "flight_salvaged"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

// ---------------------------------------------------------------------------
// Profile-traffic crash points: SIGKILL parked before every durability
// step of a run that appends to its profile and compacts it; the store
// must read back a consistent state every time.
// ---------------------------------------------------------------------------

/// One profiled run of `module`, as the daemon's `Run` op collects it.
fn profile_of(module: &str) -> lpat::vm::ProfileData {
    let m = lpat::asm::parse_module("chaos", module).unwrap();
    let opts = lpat::vm::VmOptions {
        profile: true,
        ..Default::default()
    };
    let mut vm = lpat::vm::Vm::new(&m, opts).unwrap();
    vm.run_main().unwrap();
    vm.profile
}

#[test]
fn sigkill_at_every_journal_step_leaves_a_consistent_store() {
    if !in_matrix("journal-kill") {
        return;
    }
    // Steps of a run's profile flush: 1 the append, 2 its fsync, and — in
    // the run that takes the appended records past their bound — 3 the
    // compacted file's temp write, 4 its rename over the profile.
    // `store.journal:delay=...@N` parks the worker immediately BEFORE
    // step N's action, so a SIGKILL during the stall means steps 1..N-1
    // happened and step N did not:
    //   - killed before the append (step 1): the run's delta is LOST;
    //   - killed anywhere later (steps 2-4): the delta is in the file (a
    //     process kill does not take the page cache with it) and is KEPT,
    //     whatever state the compaction was left in — nothing written
    //     (3) or an orphan temp (4).
    // Either way: one profile file, no torn file, no quarantine debris,
    // and the run count equals what the crash semantics promise.
    let delta = profile_of(ADD_PROG);
    let hash = module_hash(&lpat::asm::parse_module("chaos", ADD_PROG).unwrap());
    // How many runs of this module take a file past its bound (the store
    // keeps the bound to itself): count them on a scratch store, up to the
    // run that leaves the file shorter than it found it.
    let to_compact = {
        let scratch = tmp("journal-brink");
        let _ = std::fs::remove_dir_all(&scratch);
        let store = Store::open(&scratch).unwrap();
        let (mut runs, mut len) = (0u64, 0);
        loop {
            store.record_run(hash, &delta).unwrap();
            runs += 1;
            let now = std::fs::metadata(store.profile_path(hash)).unwrap().len();
            if now < len {
                break runs;
            }
            len = now;
        }
    };
    let n = to_compact - 1;
    for step in 1..=4u32 {
        let cache = tmp(&format!("journal-step-{step}"));
        let _ = std::fs::remove_dir_all(&cache);
        // n earlier runs: the next one appends AND compacts, so in a fresh
        // worker the site's ordinals 1..=4 are exactly the four steps.
        {
            let store = Store::open(&cache).unwrap();
            for _ in 0..n {
                store.record_run(hash, &delta).unwrap();
            }
        }
        assert_eq!(stored_runs(&cache, ADD_PROG), n);
        let mut d = Daemon::spawn(&[
            "--isolate",
            "process",
            "--workers",
            "1",
            "--crash-k",
            "100",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--inject-faults",
            &format!("store.journal:delay=5000@{step}"),
        ]);
        let addr = d.addr.clone();
        let inflight = std::thread::spawn(move || {
            let mut c = connect(&addr);
            c.request(&run_request(ADD_PROG)).unwrap()
        });
        let pid = wait_for_worker_pid(&d.addr, Duration::from_secs(5));
        // Give the worker time to execute the module and park in the
        // stall, then kill it between two durability steps.
        std::thread::sleep(Duration::from_millis(600));
        sigkill(pid);
        match inflight.join().unwrap() {
            Response::Err { class, .. } => assert_eq!(class, ErrClass::Crashed, "step {step}"),
            other => panic!("step {step}: killed request answered {other:?}"),
        }
        // What the dead worker left reads back as the crash semantics
        // promise, and opening the store (under the lock the dead worker
        // no longer holds) has swept step 4's orphan temp: the module has
        // its one profile file and nothing else.
        let kept = u64::from(step > 1);
        assert_eq!(
            stored_runs(&cache, ADD_PROG),
            n + kept,
            "step {step}: killed run should be {}",
            if kept == 1 { "kept" } else { "lost" }
        );
        assert_no_files_named(&cache, ".tmp-", "orphan temp survived an open");
        assert_eq!(files_named(&cache, "profile-").len(), 1, "step {step}");
        // A fresh worker serves the next run of the same module. Its own
        // @N delay fires during its own flush, which compacts whatever
        // its predecessor left — a stall, not a kill, so the request
        // completes.
        let mut c = connect(&d.addr);
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Ok { exit, .. } => assert_eq!(exit, 42, "step {step}"),
            other => panic!("step {step}: post-crash run answered {other:?}"),
        }
        assert!(d.alive(), "step {step}: daemon died");
        drop(d);
        assert_no_corrupt_files(&cache);
        assert_eq!(stored_runs(&cache, ADD_PROG), n + kept + 1, "step {step}");
    }
}

// ---------------------------------------------------------------------------
// Crash-loop quarantine.
// ---------------------------------------------------------------------------

#[test]
fn crash_loop_quarantine_trips_and_survives_daemon_restart() {
    if !in_matrix("worker-abort") {
        return;
    }
    let cache = tmp("quarantine");
    let _ = std::fs::remove_dir_all(&cache);
    let common = [
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "2",
        "--cache-dir",
    ];
    {
        // Daemon A: every request aborts its worker. Two strikes trip
        // the breaker; the third answers from the denylist without
        // burning a worker.
        let mut args: Vec<&str> = common.to_vec();
        args.push(cache.to_str().unwrap());
        args.extend(["--inject-faults", "serve.worker:abort"]);
        let d = Daemon::spawn(&args);
        let mut c = connect(&d.addr);
        for strike in 0..2 {
            match c.request(&run_request(ADD_PROG)).unwrap() {
                Response::Err { class, .. } => {
                    assert_eq!(class, ErrClass::Crashed, "strike {strike}")
                }
                other => panic!("strike {strike} answered {other:?}"),
            }
        }
        let crashes_before = stat(&stats_json(&d.addr), "worker_crashes");
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Err { class, message } => {
                assert_eq!(class, ErrClass::Quarantined, "{message}");
                assert!(message.contains("denylisted"), "{message}");
            }
            other => panic!("post-trip request answered {other:?}"),
        }
        let json = stats_json(&d.addr);
        assert_eq!(
            stat(&json, "worker_crashes"),
            crashes_before,
            "quarantined request burned a worker: {json}"
        );
        assert_eq!(stat(&json, "quarantined"), 1, "{json}");
        // A different payload is NOT quarantined (it aborts — its own
        // first strike — proving the denylist is per-payload).
        match c.request(&run_request(MUL_PROG)).unwrap() {
            Response::Err { class, .. } => assert_eq!(class, ErrClass::Crashed),
            other => panic!("other payload answered {other:?}"),
        }
    }
    {
        // Daemon B: same store, NO fault plan — the module would run
        // fine now, but the persisted deny record must still refuse it.
        let mut args: Vec<&str> = common.to_vec();
        args.push(cache.to_str().unwrap());
        let d = Daemon::spawn(&args);
        let mut c = connect(&d.addr);
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Err { class, message } => {
                assert_eq!(class, ErrClass::Quarantined, "{message}")
            }
            other => panic!("restarted daemon answered {other:?}"),
        }
        // The payload that never tripped the breaker runs normally.
        match c.request(&run_request(MUL_PROG)).unwrap() {
            Response::Ok { exit, .. } => assert_eq!(exit, 42),
            other => panic!("clean payload answered {other:?}"),
        }
    }
    assert_no_corrupt_files(&cache);
}

// ---------------------------------------------------------------------------
// Watchdog: a wedged worker is hard-killed at deadline + grace.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_hard_kills_a_wedged_worker() {
    if !in_matrix("watchdog") {
        return;
    }
    // The worker stalls 60s — far past any deadline; cooperative checks
    // never run during the stall, so only the supervisor's SIGKILL can
    // reclaim the slot.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--inject-faults",
        "serve.worker:delay=60000",
    ]);
    let mut c = connect(&d.addr);
    let mut req = run_request(ADD_PROG);
    req.deadline_ms = 500;
    let t0 = Instant::now();
    match c.request(&req).unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Deadline, "{message}");
            assert!(message.contains("hard-killed"), "{message}");
        }
        other => panic!("wedged request answered {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "watchdog answer took {:?}",
        t0.elapsed()
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "watchdog_kills"), 1, "{json}");
    assert!(d.alive(), "daemon died with its wedged worker");
}

// ---------------------------------------------------------------------------
// Graceful drain on SIGTERM.
// ---------------------------------------------------------------------------

#[test]
fn sigterm_drains_the_inflight_request_and_exits_zero() {
    if !in_matrix("watchdog") {
        return;
    }
    // The in-flight request stalls 1.5s in its worker; SIGTERM arrives
    // mid-stall. The daemon must finish that request (the client sees
    // Ok 42, not a reset connection), dump its final metrics, then
    // exit 0.
    let metrics = tmp("sigterm-metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--inject-faults",
        "serve.worker:delay=1500@1",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        c.request(&run_request(ADD_PROG)).unwrap()
    });
    // Let the request reach the worker, then ask for the drain.
    std::thread::sleep(Duration::from_millis(400));
    sigterm(d.child.id());
    match inflight.join().unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("drained request answered {other:?}"),
    }
    let code = d
        .wait_exit(Duration::from_secs(10))
        .expect("daemon did not exit after SIGTERM");
    assert_eq!(code, 0, "drain must exit cleanly");
    // The graceful drain goes through the same export path as
    // `--max-requests`: the final metrics land on disk, drained request
    // included.
    let dumped = std::fs::read_to_string(&metrics).expect("SIGTERM drain must dump --metrics-out");
    assert!(dumped.contains("\"counters\""), "{dumped}");
    assert!(
        dumped.contains("\"serve.ok\":1"),
        "the drained request must be in the final dump: {dumped}"
    );
}
