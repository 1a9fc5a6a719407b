//! Integration tests for `lpatd` — the fault-isolated multi-tenant
//! daemon (`lpat::serve`).
//!
//! Three layers of evidence:
//!
//! 1. **Protocol robustness**: a fuzzer throws truncated, oversized, and
//!    SplitMix64-mutated frames at a live server over a real socket; the
//!    server must never die and a well-formed request must still succeed
//!    afterwards.
//! 2. **Fault-site matrix** (subprocess): `lpatd` is started with an
//!    injected fault at each `serve.*` site in turn — a panic in the
//!    accept path, the decoder, the worker pipeline, and a forced
//!    deadline expiry — and must answer the faulted request with a
//!    structured error (or drop that one connection) while *subsequent*
//!    requests succeed. CI fans one leg per site via `LPAT_SERVE_MATRIX`.
//! 3. **Multi-tenant isolation**: two tenants hammer the same module
//!    hash concurrently through the daemon's store — no quarantine
//!    storms, an order-independent saturating merge, and deterministic
//!    per-tenant quota rejection.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use lpat::core::hash::SplitMix64;
use lpat::serve::{
    encode_request, Addr, Client, ErrClass, Op, Request, Response, RetryPolicy, Server,
    ServerConfig, FLAG_MINIC,
};

const ADD_PROG: &str = "\
define int @main() {
entry:
  %a = add int 40, 2
  ret int %a
}
";

/// ~6M executed instructions: long enough to occupy a worker for an
/// observable window, short enough to finish promptly.
const SLOW_PROG: &str = "\
define int @main() {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %i2, %loop ]
  %i2 = add int %i, 1
  %c = setlt int %i2, 1500000
  br bool %c, label %loop, label %done
done:
  ret int 0
}
";

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve");
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

fn expect_ok(resp: &Response) -> (i32, &[u8]) {
    match resp {
        Response::Ok { exit, output, .. } => (*exit, output.as_slice()),
        other => panic!("expected Ok, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 1. Protocol robustness: socket-level fuzzing against a live server.
// ---------------------------------------------------------------------------

fn raw_tcp(addr: &Addr) -> TcpStream {
    let Addr::Tcp(hp) = addr else {
        panic!("fuzz test uses tcp")
    };
    let s = TcpStream::connect(hp.as_str()).expect("raw connect");
    s.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    s
}

#[test]
fn fuzzed_frames_never_kill_the_server() {
    let h = Server::bind(ServerConfig::default()).unwrap().start();
    let mut rng = SplitMix64(0x5EED_CAFE);
    let good = encode_request(&run_request(ADD_PROG));

    for round in 0..60 {
        let mut s = raw_tcp(h.addr());
        match round % 4 {
            // Truncated frame: a valid header promising more than we send.
            0 => {
                let cut = 1 + rng.below(good.len() as u64 - 1) as usize;
                let mut buf = (good.len() as u32).to_le_bytes().to_vec();
                buf.extend_from_slice(&good[..cut]);
                let _ = s.write_all(&buf);
                // Close mid-frame; the server must just drop us.
            }
            // Hostile length prefix: enormous, zero, or random.
            1 => {
                let len: u32 = match rng.below(3) {
                    0 => u32::MAX,
                    1 => 0,
                    _ => rng.next() as u32,
                };
                let mut buf = len.to_le_bytes().to_vec();
                buf.extend_from_slice(&good[..good.len().min(32)]);
                let _ = s.write_all(&buf);
                // A bad length answers a Decode error and closes, or just
                // closes; either way the next connection must work.
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
            // Mutated payload: correct framing, N corrupted bytes inside.
            2 => {
                let mut payload = good.clone();
                for _ in 0..1 + rng.below(8) {
                    let i = rng.below(payload.len() as u64) as usize;
                    payload[i] ^= (rng.next() as u8) | 1;
                }
                let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
                buf.extend_from_slice(&payload);
                let _ = s.write_all(&buf);
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
            // Pure garbage, no framing discipline at all.
            _ => {
                let n = 1 + rng.below(256) as usize;
                let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                let _ = s.write_all(&garbage);
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
        }
        drop(s);
        // The invariant under fuzz: after every hostile exchange, a
        // well-formed request on a fresh connection succeeds.
        if round % 10 == 9 {
            let mut c = connect(h.addr());
            let resp = c.request(&run_request(ADD_PROG)).expect("server died");
            assert_eq!(expect_ok(&resp).0, 42);
        }
    }
    let mut c = connect(h.addr());
    let resp = c.request(&Request::new(Op::Ping)).unwrap();
    assert_eq!(expect_ok(&resp).1, b"pong");
    h.stop();
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let cfg = ServerConfig {
        max_frame: 1024,
        ..Default::default()
    };
    let h = Server::bind(cfg).unwrap().start();
    let mut s = raw_tcp(h.addr());
    // Claim a 512 MiB frame; the server must answer/close without ever
    // allocating it (if it tried, CI memory limits would notice).
    s.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
    drop(s);
    let mut c = connect(h.addr());
    assert!(matches!(
        c.request(&Request::new(Op::Ping)).unwrap(),
        Response::Ok { .. }
    ));
    h.stop();
}

// ---------------------------------------------------------------------------
// 2. Fault-site matrix: subprocess lpatd with injected serve.* faults.
// ---------------------------------------------------------------------------

struct Daemon {
    child: Child,
    addr: Addr,
}

impl Daemon {
    /// Spawn `lpatd`, wait for its `listening on <addr>` line, parse it.
    fn spawn(extra_args: &[&str], faults: Option<&str>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lpatd"));
        cmd.args(["--listen", "tcp:127.0.0.1:0", "--quiet"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(p) = faults {
            cmd.env("LPAT_FAULTS", p);
        }
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

    /// `--max-requests` makes the daemon drain, export its trace, and exit
    /// on its own; wait for that rather than killing it.
    fn wait_for_drain(&mut self) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "daemon exit after drain: {status:?}");
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon did not exit after --max-requests"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Fault-matrix legs: CI runs one per job via `LPAT_SERVE_MATRIX=<site>`;
/// locally all run.
fn matrix_sites() -> Vec<String> {
    match std::env::var("LPAT_SERVE_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v.split(',').map(|s| s.trim().to_string()).collect(),
        _ => vec![
            "serve.accept".into(),
            "serve.decode".into(),
            "serve.worker".into(),
            "serve.deadline".into(),
        ],
    }
}

#[test]
fn daemon_survives_a_fault_at_every_serve_site() {
    for site in matrix_sites() {
        // panic for the catch_unwind sites; the deadline site uses
        // `corrupt` (forced expiry) — its panic leg is the worker's.
        let (action, expected) = match site.as_str() {
            "serve.accept" => ("panic", None), // connection dies, no response
            "serve.decode" => ("panic", Some(ErrClass::Panic)),
            "serve.worker" => ("panic", Some(ErrClass::Panic)),
            "serve.deadline" => ("corrupt", Some(ErrClass::Deadline)),
            other => panic!("unknown serve site {other}"),
        };
        let plan = format!("{site}:{action}@1");
        let mut d = Daemon::spawn(&[], Some(&plan));

        // Request 1 takes the injected fault.
        match Client::connect(&d.addr, Duration::from_secs(10)) {
            Ok(mut c) => match c.request(&run_request(ADD_PROG)) {
                Ok(resp) => match (expected, resp) {
                    (Some(class), Response::Err { class: got, .. }) => assert_eq!(
                        got, class,
                        "{site}: wrong error class for the faulted request"
                    ),
                    (None, other) => {
                        panic!("{site}: expected dropped connection, got {other:?}")
                    }
                    (Some(c), other) => panic!("{site}: expected Err({c:?}), got {other:?}"),
                },
                Err(_) => assert!(
                    expected.is_none(),
                    "{site}: connection died but a structured error was expected"
                ),
            },
            Err(_) => assert!(
                expected.is_none(),
                "{site}: could not even connect, expected a structured error"
            ),
        }

        // The daemon must still be alive and request 2 must succeed.
        assert!(d.alive(), "{site}: daemon process died");
        let mut c = connect(&d.addr);
        let resp = c
            .request(&run_request(ADD_PROG))
            .unwrap_or_else(|e| panic!("{site}: daemon stopped serving: {e}"));
        assert_eq!(expect_ok(&resp).0, 42, "{site}: wrong answer after fault");
        // And a third, through the whole pipeline again, for good measure.
        let resp = c.request(&Request::new(Op::Ping)).unwrap();
        assert_eq!(expect_ok(&resp).1, b"pong");
    }
}

#[test]
fn worker_delay_fault_trips_the_request_deadline() {
    // A worker stalled mid-request (delay fault) must burn only ITS
    // client's deadline; the daemon then serves the next request.
    let mut d = Daemon::spawn(&["--workers", "2"], Some("serve.worker:delay=600@1"));
    let mut c = connect(&d.addr);
    let mut req = run_request(ADD_PROG);
    req.deadline_ms = 150;
    match c.request(&req).unwrap() {
        Response::Err { class, .. } => assert_eq!(class, ErrClass::Deadline),
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    assert!(d.alive());
    let resp = connect(&d.addr).request(&run_request(ADD_PROG)).unwrap();
    assert_eq!(expect_ok(&resp).0, 42);
}

#[test]
fn a_request_that_outwaits_its_deadline_frees_its_place() {
    // One slot, a line of one. A stalls 1.5 s in the slot; B waits in the
    // line with a 200 ms deadline. B must be answered at its deadline,
    // naming the wait, and its place must go with it: C, sent while A
    // still stalls, waits in that place and is served after A.
    let mut d = Daemon::spawn(
        &["--workers", "1", "--queue", "1"],
        Some("serve.worker:delay=1500@1"),
    );
    let addr = d.addr.clone();
    let a = std::thread::spawn(move || connect(&addr).request(&run_request(ADD_PROG)).unwrap());
    std::thread::sleep(Duration::from_millis(300)); // let A take the slot
    let mut b = run_request(ADD_PROG);
    b.deadline_ms = 200;
    let t0 = std::time::Instant::now();
    match connect(&d.addr).request(&b).unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Deadline, "{message}");
            assert!(message.contains("'queued'"), "{message}");
        }
        other => panic!("B answered {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "B answered after {waited:?}"
    );
    let resp = connect(&d.addr).request(&run_request(ADD_PROG)).unwrap();
    assert_eq!(expect_ok(&resp).0, 42, "C");
    assert_eq!(expect_ok(&a.join().unwrap()).0, 42, "A");
    assert!(d.alive());
}

// ---------------------------------------------------------------------------
// 3. Multi-tenant isolation and quotas.
// ---------------------------------------------------------------------------

#[test]
fn two_tenants_hammering_one_module_hash_is_clean() {
    let cache = tmp("mt-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cfg = ServerConfig {
        cache_dir: Some(cache.clone()),
        workers: 4,
        ..Default::default()
    };
    let h = Server::bind(cfg).unwrap().start();
    let addr = h.addr().clone();

    const THREADS: usize = 6;
    const PER_THREAD: usize = 5;
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let tenant = if t % 2 == 0 { "alice" } else { "bob" };
            let mut c = connect(&addr);
            let mut ok = 0u64;
            for _ in 0..PER_THREAD {
                let mut req = run_request(ADD_PROG);
                req.tenant = tenant.into();
                match c
                    .request_with_retry(&req, &RetryPolicy::default())
                    .expect("protocol error")
                {
                    Response::Ok { exit, .. } => {
                        assert_eq!(exit, 42);
                        ok += 1;
                    }
                    Response::Busy { .. } => {} // shed under load: acceptable, uncounted
                    Response::Err { class, message } => {
                        panic!("tenant {tenant}: unexpected error {class:?}: {message}")
                    }
                }
            }
            ok
        }));
    }
    let total_ok: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(total_ok > 0);
    h.stop();

    // No quarantine storm: concurrent same-hash flushes went through the
    // module's lock, so no store file was ever read half-written.
    let mut corrupt = Vec::new();
    for entry in walk(&cache) {
        if entry.to_string_lossy().contains(".corrupt-") {
            corrupt.push(entry);
        }
    }
    assert!(
        corrupt.is_empty(),
        "quarantined files after concurrent runs: {corrupt:?}"
    );

    // Order-independent merge: the stored lifetime profile counted every
    // successful run exactly once, regardless of interleaving.
    let m = lpat::asm::parse_module("module", ADD_PROG).unwrap();
    let hash = lpat::vm::module_hash(&m);
    let store = lpat::vm::Store::open(&cache).unwrap();
    let loaded = store.load_profile(hash).unwrap();
    assert!(loaded.quarantined.is_empty());
    let sp = loaded.value.expect("profile must exist");
    assert_eq!(
        sp.runs, total_ok,
        "stored run count disagrees with successful responses"
    );
}

fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(walk(&p));
        } else {
            out.push(p);
        }
    }
    out
}

#[test]
fn per_tenant_quota_rejection_is_deterministic_under_load() {
    let mut cfg = ServerConfig::default();
    cfg.quota.max_bytes = 64;
    let h = Server::bind(cfg).unwrap().start();
    let addr = h.addr().clone();
    // From several threads at once: an oversized payload is ALWAYS Quota
    // (deterministic), never Busy, never load-dependent.
    let mut joins = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = connect(&addr);
            for _ in 0..10 {
                let mut req = run_request(ADD_PROG);
                req.module = vec![b'x'; 4096];
                match c.request(&req).unwrap() {
                    Response::Err { class, .. } => assert_eq!(class, ErrClass::Quota),
                    other => panic!("expected deterministic Quota, got {other:?}"),
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Within-quota requests still work afterwards.
    let resp = connect(&addr).request(&run_request(ADD_PROG)).unwrap();
    assert_eq!(expect_ok(&resp).0, 42);
    h.stop();
}

#[test]
fn full_queue_sheds_busy_and_retry_eventually_succeeds() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    };
    let h = Server::bind(cfg).unwrap().start();
    let addr = h.addr().clone();

    // Saturate: several concurrent slow requests against 1 worker + 1
    // queue slot. Some must be shed with Busy (bounded memory), and a
    // retrying client must eventually get through.
    let mut joins = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = connect(&addr);
            match c.request(&run_request(SLOW_PROG)).unwrap() {
                Response::Ok { exit, .. } => {
                    assert_eq!(exit, 0);
                    (1u32, 0u32)
                }
                Response::Busy { .. } => (0, 1),
                Response::Err { class, message } => {
                    panic!("unexpected error {class:?}: {message}")
                }
            }
        }));
    }
    let (mut ok, mut busy) = (0, 0);
    for j in joins {
        let (o, b) = j.join().unwrap();
        ok += o;
        busy += b;
    }
    assert!(ok >= 1, "nobody got through a saturated server");
    assert!(busy >= 1, "expected at least one Busy shed (ok={ok})");

    // A patient client retries Busy with backoff and lands.
    let mut c = connect(&addr);
    let policy = RetryPolicy {
        max_attempts: 20,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(200),
        seed: Some(0x5EED),
    };
    let resp = c
        .request_with_retry(&run_request(ADD_PROG), &policy)
        .unwrap();
    assert_eq!(expect_ok(&resp).0, 42);
    h.stop();
}

// ---------------------------------------------------------------------------
// 4. The lifelong loop over the wire, and the lpatc remote client.
// ---------------------------------------------------------------------------

#[test]
fn run_reopt_run_closes_the_lifelong_loop_over_the_wire() {
    // Under both isolation modes: the requests execute in a thread of the
    // daemon or in a worker subprocess, the daemon's counters must not
    // care which.
    for isolate in ["thread", "process"] {
        let cache = tmp(&format!("loop-cache-{isolate}"));
        let _ = std::fs::remove_dir_all(&cache);
        let cache_dir = cache.to_str().unwrap();
        let mut d = Daemon::spawn(
            &[
                "--isolate",
                isolate,
                "--workers",
                "1",
                "--cache-dir",
                cache_dir,
            ],
            None,
        );
        let mut c = connect(&d.addr);
        // Run twice (each logs a profile delta), reopt (folds the log,
        // consumes the profile, caches the module), run again (must be a
        // cache hit).
        for _ in 0..2 {
            let resp = c.request(&run_request(ADD_PROG)).unwrap();
            assert_eq!(expect_ok(&resp).0, 42, "{isolate}");
        }
        let mut reopt = run_request(ADD_PROG);
        reopt.op = Op::Reopt;
        match c.request(&reopt).unwrap() {
            Response::Ok { module, output, .. } => {
                assert!(module.starts_with(b"LPAT"), "reopt returns bytecode");
                let output = String::from_utf8_lossy(&output);
                assert!(output.contains("reopt:"), "{isolate}: {output}");
                assert!(
                    output.contains("(2 runs of profile)"),
                    "{isolate}: {output}"
                );
            }
            other => panic!("{isolate}: reopt failed: {other:?}"),
        }
        // Reopt is idle time: it left the two runs in the base file and no
        // delta log behind.
        let files = walk(&cache);
        let with_ext = |ext: &str| {
            files
                .iter()
                .filter(|p| p.extension().is_some_and(|e| e == ext))
                .count()
        };
        assert_eq!((with_ext("lpp"), with_ext("log")), (1, 0), "{files:?}");
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Ok {
                exit, cache_hit, ..
            } => {
                assert_eq!(exit, 42);
                assert!(cache_hit, "{isolate}: third run must hit the reopt cache");
            }
            other => panic!("{isolate}: unexpected: {other:?}"),
        }
        match c.request(&Request::new(Op::Stats)).unwrap() {
            Response::Ok { output, .. } => {
                let json = String::from_utf8(output).unwrap();
                assert!(
                    json.contains("\"cache_hits\":1,\"cache_misses\":2"),
                    "{isolate}: {json}"
                );
            }
            other => panic!("{isolate}: stats answered {other:?}"),
        }
        assert!(d.alive());
    }
}

#[test]
fn lpatc_remote_run_and_compile_roundtrip() {
    let mut d = Daemon::spawn(&[], None);
    let addr = d.addr.to_string();
    let src = tmp("remote-add.ll");
    std::fs::write(&src, ADD_PROG).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lpatc"))
        .args(["remote", "run", src.to_str().unwrap(), "--connect", &addr])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(42),
        "remote run exit: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bc = tmp("remote-add.bc");
    let out = Command::new(env!("CARGO_BIN_EXE_lpatc"))
        .args([
            "remote",
            "compile",
            src.to_str().unwrap(),
            "--connect",
            &addr,
            "-O",
            "-o",
            bc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "remote compile: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&bc).unwrap();
    assert!(bytes.starts_with(b"LPAT"), "compile must return bytecode");
    assert!(d.alive());

    // A connect to a dead address must fail fast (bounded), not hang.
    let t0 = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lpatc"))
        .args([
            "remote",
            "ping",
            "--connect",
            "tcp:127.0.0.1:1",
            "--connect-timeout-ms",
            "300",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "connect timeout not honored"
    );
}

/// What `lpatc run` / `lpatc remote run` print about the exit: the text
/// between `exit ` and `]` — `<code>; <n> instructions` on both.
fn exit_note(stderr: &str) -> &str {
    let at = stderr.find("exit ").expect("no exit note") + "exit ".len();
    &stderr[at..at + stderr[at..].find(']').expect("unterminated exit note")]
}

#[test]
fn the_cli_and_the_daemon_are_the_same_program() {
    // `lpatc` and `lpatd` are two callers of one pipeline
    // (`lpat::vm::session`): the same life-cycle of the same program must
    // print the same, count the same, and leave the same bytes in the
    // store whichever of them ran it.
    let suite = lpat::workloads::suite(0);
    for isolate in ["thread", "process"] {
        for name in ["164.gzip", "181.mcf", "253.perlbmk"] {
            let ctx = format!("{name} under --isolate {isolate}");
            let dir = tmp(&format!("same-{isolate}-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = |leaf: &str| dir.join(leaf).to_str().unwrap().to_string();
            let src = path(&format!("{name}.mc"));
            let workload = suite.iter().find(|w| w.name == name).unwrap();
            std::fs::write(&src, &workload.source).unwrap();
            let (a, b) = (path("A"), path("B"));
            let mut d = Daemon::spawn(
                &["--isolate", isolate, "--workers", "1", "--cache-dir", &b],
                None,
            );
            let addr = d.addr.to_string();
            let lpatc = |args: &[&str]| {
                let out = Command::new(env!("CARGO_BIN_EXE_lpatc"))
                    .args(args)
                    .env_remove("LPAT_CACHE_DIR")
                    .output()
                    .unwrap();
                (
                    out.status.code(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                    String::from_utf8_lossy(&out.stderr).into_owned(),
                )
            };
            let run_both_on = |src: &str, step: &str| {
                let local = lpatc(&["run", src, "--cache-dir", &a]);
                let remote = lpatc(&["remote", "run", src, "--connect", &addr]);
                assert_eq!(local.0, remote.0, "{ctx}, {step}: exit code");
                assert_eq!(local.1, remote.1, "{ctx}, {step}: stdout");
                assert_eq!(
                    exit_note(&local.2),
                    exit_note(&remote.2),
                    "{ctx}, {step}: exit note"
                );
                (local.2, remote.2)
            };
            let run_both = |step: &str| run_both_on(&src, step);
            run_both("run 1");
            run_both("run 2");
            let (a_out, b_out) = (path("a.bc"), path("b.bc"));
            let local = lpatc(&[
                "reopt",
                &src,
                "--cache-dir",
                &a,
                "-o",
                &a_out,
                "--emit",
                "bc",
            ]);
            let remote = lpatc(&["remote", "reopt", &src, "--connect", &addr, "-o", &b_out]);
            assert_eq!((local.0, remote.0), (Some(0), Some(0)), "{ctx}: reopt");
            assert!(
                local.2.contains("(2 runs of profile)"),
                "{ctx}: {}",
                local.2
            );
            assert!(
                remote.1.contains("(2 runs of profile)"),
                "{ctx}: {}",
                remote.1
            );
            assert_eq!(
                std::fs::read(&a_out).unwrap(),
                std::fs::read(&b_out).unwrap(),
                "{ctx}: reopt -o bytes"
            );
            let (local_err, remote_err) = run_both("run 3");
            assert!(
                local_err.contains("using reoptimized module"),
                "{ctx}: {local_err}"
            );
            assert!(
                remote_err.contains("served from reopt cache"),
                "{ctx}: {remote_err}"
            );
            // Both sides run tiered, machine code included: a kernel that
            // reaches machine code is answered with the same output and
            // instruction count.
            let kernel = path("kernel.mc");
            std::fs::write(
                &kernel,
                "extern void print_int(int v);
                 int step(int a, int i) { return (a * 31 + i) % 65521; }
                 int main() {
                   int i; int a; i = 0; a = 1;
                   while (i < 20000) { a = step(a, i); i = i + 1; }
                   print_int(a); return a % 100;
                 }",
            )
            .unwrap();
            run_both_on(&kernel, "kernel");
            let stats = lpatc(&["run", &kernel, "--stats"]).2;
            let native: Option<u64> = stats
                .lines()
                .find_map(|l| l.trim_start().strip_prefix("native insts"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok());
            assert!(
                native.is_some_and(|n| n > 0),
                "{ctx}: the kernel never reached machine code:\n{stats}"
            );
            assert!(d.alive());
            // Every profile and reopt file, byte for byte.
            let artifacts = |root: &std::path::Path| {
                let mut files: Vec<(String, Vec<u8>)> = walk(root)
                    .into_iter()
                    .filter_map(|p| {
                        let leaf = p.file_name()?.to_str()?.to_string();
                        (leaf.starts_with("profile-") || leaf.starts_with("reopt-"))
                            .then(|| (leaf, std::fs::read(&p).unwrap()))
                    })
                    .collect();
                files.sort();
                files
            };
            let local_files = artifacts(std::path::Path::new(&a));
            let remote_files = artifacts(std::path::Path::new(&b));
            assert!(local_files.len() >= 3, "{ctx}: {local_files:?}");
            let leaves = |files: &[(String, Vec<u8>)]| -> Vec<String> {
                files.iter().map(|(leaf, _)| leaf.clone()).collect()
            };
            assert_eq!(leaves(&local_files), leaves(&remote_files), "{ctx}");
            for ((leaf, local), (_, remote)) in local_files.iter().zip(&remote_files) {
                assert_eq!(local, remote, "{ctx}: {leaf} differs");
            }
            // One layout: `lpatc` on the daemon's directory runs what the
            // daemon's reopt cached there.
            let (_, _, err) = lpatc(&["run", &src, "--cache-dir", &b]);
            assert!(
                err.contains("[cache] using reoptimized module"),
                "{ctx}: {err}"
            );
        }
    }
}

#[test]
fn a_quarantined_store_file_is_counted_not_dropped() {
    let cache = tmp("quarantine-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let metrics = tmp("quarantine-metrics.json");
    let _ = std::fs::remove_file(&metrics);
    // A real compacted profile for ADD_PROG in the daemon's store, its
    // folded history short of its last byte: damage no kill can cause.
    let m = lpat::asm::parse_module("module", ADD_PROG).unwrap();
    let hash = lpat::vm::module_hash(&m);
    {
        let store = lpat::vm::Store::open(&cache).unwrap();
        let opts = lpat::vm::VmOptions {
            profile: true,
            ..Default::default()
        };
        let mut vm = lpat::vm::Vm::new(&m, opts).unwrap();
        vm.run_main().unwrap();
        store.record_run(hash, &vm.profile).unwrap();
        store.compact(hash).unwrap();
        let profile = store.profile_path(hash);
        let bytes = std::fs::read(&profile).unwrap();
        std::fs::write(&profile, &bytes[..bytes.len() - 1]).unwrap();
    }
    let mut d = Daemon::spawn(
        &[
            "--workers",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--max-requests",
            "1",
        ],
        None,
    );
    // The run is answered as if the store were clean ...
    let resp = connect(&d.addr).request(&run_request(ADD_PROG)).unwrap();
    assert_eq!(expect_ok(&resp).0, 42);
    d.wait_for_drain();
    // ... the bad file is moved aside, and the daemon says so.
    let json = std::fs::read_to_string(&metrics).expect("metrics written on drain");
    assert!(json.contains("\"serve.store_quarantined\":1"), "{json}");
    let moved: Vec<_> = walk(&cache)
        .into_iter()
        .filter(|p| p.to_string_lossy().ends_with(".corrupt-1"))
        .collect();
    assert_eq!(moved.len(), 1, "{moved:?}");
}

// ---------------------------------------------------------------------------
// Process isolation smoke: the crash-only worker pool serves the same
// protocol (the full kill/abort/journal chaos lives in tests/chaos.rs).
// ---------------------------------------------------------------------------

#[test]
fn process_isolation_serves_the_same_protocol() {
    let mut d = Daemon::spawn(&["--isolate", "process", "--workers", "2"], None);
    let mut c = connect(&d.addr);
    let (_, out) = match c.request(&Request::new(Op::Ping)).unwrap() {
        r @ Response::Ok { .. } => {
            let Response::Ok { exit, output, .. } = r else {
                unreachable!()
            };
            (exit, output)
        }
        other => panic!("ping answered {other:?}"),
    };
    assert_eq!(out, b"pong");
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Ok { exit, insts, .. } => {
            assert_eq!(exit, 42);
            assert!(insts > 0, "the run executed in a worker subprocess");
        }
        other => panic!("run answered {other:?}"),
    }
    // Stats answers in-daemon and exposes the live worker pids.
    match c.request(&Request::new(Op::Stats)).unwrap() {
        Response::Ok { output, .. } => {
            let json = String::from_utf8(output).unwrap();
            assert!(json.contains("\"worker_pids\":["), "{json}");
            assert!(json.contains("\"worker_crashes\":0"), "{json}");
        }
        other => panic!("stats answered {other:?}"),
    }
    assert!(d.alive());
}

/// A module that names one global twice is the client's fault: the daemon
/// answers `BadModule` naming the symbol, in-process and from a worker
/// subprocess alike, and goes on serving.
#[test]
fn a_duplicate_global_is_a_bad_module() {
    let mut req = run_request("int g; int g;\nint main() { return 0; }");
    req.flags |= FLAG_MINIC;
    let expect_bad = |resp: Response| match resp {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::BadModule, "{message}");
            assert!(message.contains("duplicate global 'g'"), "{message}");
        }
        other => panic!("expected BadModule, got {other:?}"),
    };
    let h = Server::bind(ServerConfig::default()).unwrap().start();
    expect_bad(connect(h.addr()).request(&req).unwrap());
    let resp = connect(h.addr()).request(&run_request(ADD_PROG)).unwrap();
    assert_eq!(expect_ok(&resp).0, 42);

    let mut d = Daemon::spawn(&["--isolate", "process", "--workers", "1"], None);
    let mut c = connect(&d.addr);
    expect_bad(c.request(&req).unwrap());
    assert_eq!(expect_ok(&c.request(&run_request(ADD_PROG)).unwrap()).0, 42);
    match c.request(&Request::new(Op::Stats)).unwrap() {
        Response::Ok { output, .. } => {
            let json = String::from_utf8(output).unwrap();
            assert!(json.contains("\"worker_crashes\":0"), "{json}");
        }
        other => panic!("stats answered {other:?}"),
    }
    assert!(d.alive());
}

// ---------------------------------------------------------------------------
// Distributed tracing: one merged Chrome trace spanning the daemon and its
// worker subprocesses, byte-deterministic under the virtual clock.
// ---------------------------------------------------------------------------

/// Spawn a process-isolated tracing daemon, push a fixed serial request
/// sequence with client-chosen request ids, let `--max-requests` drain
/// it, and return the merged trace bytes it wrote on exit.
fn traced_run(trace_path: &std::path::Path, rids: &[u64]) -> Vec<u8> {
    let mut d = Daemon::spawn(
        &[
            "--isolate",
            "process",
            "--workers",
            "2",
            "--trace-clock",
            "virtual",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--max-requests",
            &rids.len().to_string(),
        ],
        None,
    );
    for &rid in rids {
        let mut c = connect(&d.addr);
        let mut req = run_request(ADD_PROG);
        req.request_id = rid;
        match c.request(&req).unwrap() {
            Response::Ok { exit, .. } => assert_eq!(exit, 42),
            other => panic!("traced run answered {other:?}"),
        }
    }
    d.wait_for_drain();
    std::fs::read(trace_path).expect("trace file written on drain")
}

#[test]
fn distributed_trace_merges_worker_lanes_and_is_deterministic() {
    use lpat::core::trace::{parse_json, Json};

    let rids: &[u64] = &[0x1111, 0x2222, 0x3333];
    let a = traced_run(&tmp("dist-trace-a.json"), rids);
    let b = traced_run(&tmp("dist-trace-b.json"), rids);
    assert_eq!(
        a, b,
        "virtual-clock merged trace must be byte-identical across runs"
    );

    // Schema check: valid JSON, one traceEvents array, daemon + worker
    // pid lanes labeled by process_name metadata, and every client-chosen
    // request id present in BOTH lanes (end-to-end propagation).
    let doc = parse_json(std::str::from_utf8(&a).unwrap()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    assert!(!events.is_empty());
    let lane_label = |pid: f64| -> Option<&str> {
        events.iter().find_map(|e| {
            (e.str_field("ph") == Some("M")
                && e.str_field("name") == Some("process_name")
                && e.num("pid") == Some(pid))
            .then(|| e.get("args")?.str_field("name"))
            .flatten()
        })
    };
    assert_eq!(lane_label(1.0), Some("daemon"));
    assert_eq!(lane_label(2.0), Some("worker"));
    for &rid in rids {
        let rid_in_lane = |pid: f64| {
            events.iter().any(|e| {
                e.num("pid") == Some(pid)
                    && e.get("args").and_then(|a| a.str_field("rid"))
                        == Some(rid.to_string().as_str())
            })
        };
        assert!(rid_in_lane(1.0), "rid {rid:#x} missing from daemon lane");
        assert!(rid_in_lane(2.0), "rid {rid:#x} missing from worker lane");
    }
    // Virtual clock: timestamps are ordinals scaled by a constant, so
    // they carry no wall-clock residue (strictly bounded by event count).
    for e in events.iter().filter(|e| e.str_field("ph") != Some("M")) {
        let ts = e.num("ts").expect("event ts");
        assert!(
            ts >= 0.0 && ts <= 10.0 * events.len() as f64,
            "virtual ts {ts}"
        );
    }
}
