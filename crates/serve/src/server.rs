//! The `lpatd` server core: accept loop, per-connection framing, the slots
//! requests run in, and the fault-isolated request pipeline. A request
//! runs on the thread of the connection that read it, once it holds one
//! of `workers` slots; no other thread executes requests.
//!
//! # Isolation model
//!
//! Every layer that executes on behalf of one client is wrapped so its
//! failure is *that client's* failure and nobody else's:
//!
//! - **accept** (`serve.accept`): a fault while setting up a freshly
//!   accepted connection drops that connection; the accept loop continues.
//! - **decode** (`serve.decode`): request decoding is total (no panics on
//!   hostile bytes, lengths validated before allocation) *and* wrapped in
//!   `catch_unwind` anyway — defense in depth; a decode failure answers
//!   that frame with a structured error and keeps the connection.
//! - **worker** (`serve.worker`): the whole compile/run pipeline for one
//!   request runs under `catch_unwind`; a panic becomes an
//!   [`ErrClass::Panic`] response to that one client while the
//!   connection's thread goes on to read its next frame.
//! - **deadline** (`serve.deadline`): cooperative deadline checks at stage
//!   boundaries turn a runaway request into [`ErrClass::Deadline`];
//!   execution itself is always fuel-bounded so overrun is bounded by one
//!   stage, never unbounded.
//!
//! # Overload model
//!
//! Admission is two-tiered (see [`crate::admission`]): deterministic
//! quota violations answer [`ErrClass::Quota`]; load-dependent pressure —
//! tenant in-flight caps and a full line for a slot — answers
//! [`Response::Busy`] with a retry hint. A connection holds one frame at
//! a time, waiting for a slot or not, so memory use is bounded by
//! `max_frame` × connections; nothing queues unboundedly.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lpat_core::fault::FaultAction;
use lpat_core::{faultpoint, trace, Module};
use lpat_vm::session::{self, Note, ReoptError, RunConfig, RunError};
use lpat_vm::{PgoOptions, Store, VmOptions};

use lpat_core::hash::fnv1a64;

use crate::admission::{Admission, NoSlot, Slots, TenantQuota};
use crate::net::{Conn, Listener};
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, Addr, ErrClass, Op, ProtoError,
    Request, Response, DEFAULT_MAX_FRAME, FLAG_MINIC, FLAG_OPT,
};
use crate::signal;
use crate::worker::{respawn_backoff, CrashBreaker, Dispatch, Isolation, ProcWorker};

/// Server configuration; every knob has a safe default.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`tcp:host:port` or `unix:/path`). Port 0 binds an
    /// ephemeral port; read it back from [`Server::local_addr`].
    pub addr: String,
    /// Slots: how many requests execute at once, each on the thread of
    /// the connection that sent it.
    pub workers: usize,
    /// How many requests may wait for a slot while every slot is busy; a
    /// request past them is answered `Busy` at once. 0: none waits.
    pub queue_depth: usize,
    /// Maximum accepted frame length (request payload bound).
    pub max_frame: u32,
    /// Fuel granted to a request that asks for none. Always finite: the
    /// daemon never runs an unbounded guest.
    pub default_fuel: u64,
    /// Deadline applied to requests that specify none.
    pub default_deadline: Duration,
    /// Per-tenant quotas enforced at admission.
    pub quota: TenantQuota,
    /// Lifelong store directory, the layout `lpatc --cache-dir` uses;
    /// `None` serves uncached.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Stop after completing this many requests (tests, benchmarks).
    pub max_requests: Option<u64>,
    /// Request isolation: on the connection's thread (default) or in a
    /// re-exec'd `lpatd --worker` subprocess, one per slot.
    pub isolate: Isolation,
    /// Extra argv appended to worker subprocesses (e.g. a fault plan
    /// that must arm inside workers rather than in the daemon).
    pub worker_args: Vec<String>,
    /// Crash-loop breaker: worker crashes charged to one payload hash
    /// within [`ServerConfig::crash_window`] before it is quarantined.
    pub crash_k: u32,
    /// Crash-loop breaker window.
    pub crash_window: Duration,
    /// When set, process-isolated workers trace each request under this
    /// clock and ship the serialized buffer back as a sidecar frame; the
    /// daemon absorbs it as a per-process lane of its own trace
    /// ([`trace::absorb_foreign`]). `None` disables worker-side tracing.
    pub worker_trace: Option<trace::ClockMode>,
    /// Directory for per-slot flight-recorder spill files. When set, each
    /// worker keeps a bounded ring of its recent trace events spilled to
    /// `slot<N>.spill`; after a crash or watchdog kill the daemon
    /// salvages the checksum-valid prefix into a `*.flight` dump that the
    /// `Crashed` diagnostic references. `None` disables the recorder.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "tcp:127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 16,
            max_frame: DEFAULT_MAX_FRAME,
            default_fuel: 100_000_000,
            default_deadline: Duration::from_secs(10),
            quota: TenantQuota::default(),
            cache_dir: None,
            max_requests: None,
            isolate: Isolation::Thread,
            worker_args: Vec::new(),
            crash_k: 3,
            crash_window: Duration::from_secs(300),
            worker_trace: None,
            flight_dir: None,
        }
    }
}

/// Distinct `op:*` / `tenant:*` keys admitted per histogram family before
/// further keys fold into `"other"` (a tenant-name flood must not grow
/// daemon memory without bound).
const MAX_TELEMETRY_KEYS: usize = 32;

/// Always-on quantile telemetry over the request stream: zero-dep
/// log-linear histograms (see [`trace::Histogram`] for the bucket scheme
/// and error bound), summarized as p50/p90/p99 in the `Stats` op's
/// `lpat-serve-stats/v2` response.
pub struct Telemetry {
    /// End-to-end request latency in microseconds (decode to response),
    /// keyed `op:<op>` and `tenant:<tenant>`.
    pub latency_us: trace::HistogramSet,
    /// Wait for a slot in microseconds, from admission.
    pub queue_wait_us: trace::Histogram,
    /// Fuel granted per request, after defaulting.
    pub fuel: trace::Histogram,
    /// Module payload sizes in bytes.
    pub payload_bytes: trace::Histogram,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            latency_us: trace::HistogramSet::new(MAX_TELEMETRY_KEYS),
            queue_wait_us: trace::Histogram::new(),
            fuel: trace::Histogram::new(),
            payload_bytes: trace::Histogram::new(),
        }
    }
}

/// Monotonic counters exposed by the `Stats` op and mirrored into the
/// trace layer as `serve.*` counters.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub conns: AtomicU64,
    /// Connections dropped by an injected/real accept-path fault.
    pub accept_faults: AtomicU64,
    /// Requests decoded and admitted to the pipeline.
    pub requests: AtomicU64,
    /// Requests answered `Ok`.
    pub ok: AtomicU64,
    /// Requests answered with a structured error (any class).
    pub errors: AtomicU64,
    /// Requests answered `Busy` (tenant cap or a full line).
    pub busy: AtomicU64,
    /// `Busy` responses because the line for a slot was full (shedding).
    pub shed_queue: AtomicU64,
    /// `Busy` responses from a tenant's in-flight cap.
    pub busy_tenant: AtomicU64,
    /// Deterministic quota rejections (bytes / fuel).
    pub quota_rejected: AtomicU64,
    /// Frames that failed to decode.
    pub decode_errors: AtomicU64,
    /// Panics caught and converted to error responses.
    pub panics_isolated: AtomicU64,
    /// Requests that hit their deadline.
    pub deadline_expired: AtomicU64,
    /// Guest traps (the guest's fault, not ours).
    pub traps: AtomicU64,
    /// Run requests served from a cached reoptimized module.
    pub cache_hits: AtomicU64,
    /// Run requests that missed the reopt cache (store configured).
    pub cache_misses: AtomicU64,
    /// Worker subprocesses that died mid-request or between requests
    /// (process isolation only).
    pub worker_crashes: AtomicU64,
    /// Worker subprocesses respawned after a crash or watchdog kill.
    pub worker_restarts: AtomicU64,
    /// Wedged workers hard-killed by the per-request watchdog.
    pub watchdog_kills: AtomicU64,
    /// Requests refused because their payload hash is crash-loop
    /// quarantined.
    pub quarantined: AtomicU64,
    /// Flight records salvaged from dead workers' spill files.
    pub flight_salvaged: AtomicU64,
    /// Live worker-subprocess pids by slot (0 = slot currently empty /
    /// thread isolation). Chaos tests read these to aim `kill -9`.
    pub worker_pids: std::sync::Mutex<Vec<u64>>,
    /// Quantile telemetry (latency, queue wait, fuel, payload bytes).
    pub telemetry: std::sync::Mutex<Telemetry>,
}

impl ServerStats {
    fn bump(&self, c: &AtomicU64, trace_name: &'static str) {
        c.fetch_add(1, Ordering::Relaxed);
        trace::counter(trace_name, 1);
    }

    /// Lock the telemetry histograms (poison-proof: counters must stay
    /// readable even after a panicked recorder).
    pub fn telemetry(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        self.telemetry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Render the counters and quantile telemetry as a stable
    /// `lpat-serve-stats/v2` JSON object (the `Stats` op's response body;
    /// `lpbench`'s `serve-mixed` and `lpatc remote top` consume it).
    pub fn render_json(&self) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut w = trace::JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "lpat-serve-stats/v2");
        w.field_u64("conns", g(&self.conns));
        w.field_u64("accept_faults", g(&self.accept_faults));
        w.field_u64("requests", g(&self.requests));
        w.field_u64("ok", g(&self.ok));
        w.field_u64("errors", g(&self.errors));
        w.field_u64("busy", g(&self.busy));
        w.field_u64("shed_queue", g(&self.shed_queue));
        w.field_u64("busy_tenant", g(&self.busy_tenant));
        w.field_u64("quota_rejected", g(&self.quota_rejected));
        w.field_u64("decode_errors", g(&self.decode_errors));
        w.field_u64("panics_isolated", g(&self.panics_isolated));
        w.field_u64("deadline_expired", g(&self.deadline_expired));
        w.field_u64("traps", g(&self.traps));
        w.field_u64("cache_hits", g(&self.cache_hits));
        w.field_u64("cache_misses", g(&self.cache_misses));
        w.field_u64("worker_crashes", g(&self.worker_crashes));
        w.field_u64("worker_restarts", g(&self.worker_restarts));
        w.field_u64("watchdog_kills", g(&self.watchdog_kills));
        w.field_u64("quarantined", g(&self.quarantined));
        w.field_u64("flight_salvaged", g(&self.flight_salvaged));
        w.begin_array_field("worker_pids");
        {
            let pids = self.worker_pids.lock().unwrap_or_else(|e| e.into_inner());
            for p in pids.iter() {
                w.value_u64(*p);
            }
        }
        w.end_array();
        w.begin_object_field("quantiles");
        {
            let t = self.telemetry();
            w.begin_object_field("latency_us");
            t.latency_us.write_fields(&mut w);
            w.end_object();
            w.begin_object_field("queue_wait_us");
            t.queue_wait_us.write_fields(&mut w);
            w.end_object();
            w.begin_object_field("fuel");
            t.fuel.write_fields(&mut w);
            w.end_object();
            w.begin_object_field("payload_bytes");
            t.payload_bytes.write_fields(&mut w);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Everything needed to execute one request, independent of transport or
/// isolation: the counters, the lifelong store, and the fuel policy.
/// The daemon owns one inside its shared state; an `lpatd --worker`
/// subprocess builds its own around stdio
/// ([`crate::worker::run_worker_stdio`]).
pub struct Engine {
    pub(crate) stats: ServerStats,
    pub(crate) store: Option<Store>,
    pub(crate) default_fuel: u64,
}

impl Engine {
    /// Build an engine around an (optionally) opened store.
    pub fn new(store: Option<Store>, default_fuel: u64) -> Engine {
        Engine {
            stats: ServerStats::default(),
            store,
            default_fuel,
        }
    }
}

/// One of the `workers` slots a request runs in. Under thread isolation
/// it is only a permit; under process isolation it owns the slot's worker
/// subprocess and what respawning it needs.
struct Slot {
    /// Names the slot's pid in the stats and its flight-recorder spill.
    index: usize,
    worker: Option<ProcWorker>,
    /// Worker deaths since the last clean answer.
    crashes: u32,
    /// No worker is spawned before this: the respawn backoff.
    not_before: Instant,
    /// Whether the slot ever had a worker (a later spawn is a restart).
    spawned: bool,
}

impl Slot {
    /// Count one more death in a row and hold off the next spawn for its
    /// backoff.
    fn back_off(&mut self) {
        self.not_before = Instant::now() + respawn_backoff(self.crashes);
        self.crashes = self.crashes.saturating_add(1);
    }
}

/// State shared by the accept loop and the connection threads.
struct Shared {
    cfg: ServerConfig,
    engine: Engine,
    admission: Arc<Admission>,
    slots: Slots<Slot>,
    breaker: Option<CrashBreaker>,
    shutdown: AtomicBool,
    completed: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Count one finished request; trip shutdown at `max_requests`.
    fn request_completed(&self) {
        let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(max) = self.cfg.max_requests {
            if done >= max {
                self.begin_shutdown();
            }
        }
    }

    /// Publish the live worker pid of `slot` (0: none) for the stats.
    fn set_pid(&self, slot: usize, pid: u32) {
        let mut pids = self
            .engine
            .stats
            .worker_pids
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(p) = pids.get_mut(slot) {
            *p = u64::from(pid);
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread.
pub struct Handle {
    addr: Addr,
    shared: Arc<Shared>,
    join: Option<thread::JoinHandle<()>>,
}

impl Handle {
    /// The bound address (ephemeral ports resolved).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Ask the server to stop and wait for it.
    pub fn stop(mut self) {
        self.shared.begin_shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }

    /// Whether the server initiated shutdown (e.g. hit `max_requests`).
    pub fn shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Wait for the server to exit on its own (`max_requests`).
    pub fn wait(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Server {
    /// Bind the listen socket, open the store, and set out the slots.
    /// The accept loop does not run until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Bad address, bind failure, or store-open failure (a daemon that
    /// was *asked* to persist refuses to start blind, unlike `lpatc run`
    /// which degrades to uncached).
    pub fn bind(cfg: ServerConfig) -> Result<Server, String> {
        let addr = Addr::parse(&cfg.addr)?;
        let listener = Listener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let store = match &cfg.cache_dir {
            Some(d) => Some(Store::open(d).map_err(|e| format!("cache dir {e}"))?),
            None => None,
        };
        if let Some(dir) = &cfg.flight_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("flight dir {}: {e}", dir.display()))?;
        }
        let breaker = match cfg.isolate {
            Isolation::Process => Some(CrashBreaker::new(cfg.crash_k, cfg.crash_window)),
            Isolation::Thread => None,
        };
        let nslots = cfg.workers.max(1);
        let slots = (0..nslots)
            .map(|index| Slot {
                index,
                worker: None,
                crashes: 0,
                not_before: Instant::now(),
                spawned: false,
            })
            .collect();
        let engine = Engine::new(store, cfg.default_fuel);
        if cfg.isolate == Isolation::Process {
            // One pid per slot; chaos tests scrape these from the Stats op
            // to aim their kills.
            engine
                .stats
                .worker_pids
                .lock()
                .expect("a new mutex is not poisoned")
                .resize(nslots, 0);
        }
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.quota.clone()),
            slots: Slots::new(slots, cfg.queue_depth),
            engine,
            breaker,
            shutdown: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            cfg,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (ephemeral ports resolved).
    pub fn local_addr(&self) -> Addr {
        self.listener.local_addr()
    }

    /// Run the accept loop on this thread until shutdown, then join the
    /// connection threads and let the slots' workers exit.
    pub fn run(self) {
        let Server { listener, shared } = self;
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        let engine = &shared.engine;
        while !shared.shutting_down() {
            // SIGTERM/SIGINT request the same drain `--max-requests`
            // takes: stop accepting, finish what was admitted, join
            // everything.
            if signal::drain_requested() {
                shared.begin_shutdown();
                break;
            }
            match listener.accept() {
                Ok(conn) => {
                    engine.stats.bump(&engine.stats.conns, "serve.conns");
                    // The accept-path fault site: a panic or error while
                    // setting up THIS connection drops this connection
                    // only — the loop (and every other client) survives.
                    let setup = catch_unwind(AssertUnwindSafe(|| {
                        match faultpoint!("serve.accept") {
                            Some(FaultAction::Panic) => {
                                panic!("injected fault at site 'serve.accept'")
                            }
                            Some(FaultAction::Delay(d)) => {
                                thread::sleep(d);
                                true
                            }
                            Some(_) => false, // corrupt/io: treat as setup failure
                            None => true,
                        }
                    }));
                    match setup {
                        Ok(true) => {
                            let sh = Arc::clone(&shared);
                            conns.retain(|j| !j.is_finished());
                            match thread::Builder::new()
                                .name("lpatd-conn".into())
                                .spawn(move || connection_loop(&sh, conn))
                            {
                                Ok(j) => conns.push(j),
                                Err(_) => {
                                    engine
                                        .stats
                                        .bump(&engine.stats.accept_faults, "serve.accept_faults");
                                }
                            }
                        }
                        _ => {
                            engine
                                .stats
                                .bump(&engine.stats.accept_faults, "serve.accept_faults");
                            drop(conn);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => thread::sleep(Duration::from_millis(2)),
            }
        }
        for j in conns {
            let _ = j.join();
        }
        // Nothing holds a slot now: each worker exits on stdin EOF.
        for slot in shared.slots.take_all() {
            if let Some(w) = slot.worker {
                w.shutdown();
            }
        }
    }

    /// Run the server on a background thread; the returned [`Handle`]
    /// stops it on [`Handle::stop`] or drop.
    pub fn start(self) -> Handle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("lpatd-accept".into())
            .spawn(move || self.run())
            .expect("spawn accept loop");
        Handle {
            addr,
            shared,
            join: Some(join),
        }
    }
}

/// How long an idle connection read blocks before re-checking shutdown:
/// what makes a drain prompt, not a client-visible timeout.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Serve one connection: read frames, admit, run, answer.
/// Every exit path answers or closes cleanly — the protocol has no
/// half-written frames because responses are single `write_frame` calls.
fn connection_loop(shared: &Arc<Shared>, mut conn: Conn) {
    let engine = &shared.engine;
    let _ = conn.set_read_timeout(Some(IDLE_POLL));
    loop {
        let frame = match read_frame(&mut conn, shared.cfg.max_frame) {
            Ok(f) => f,
            Err(ProtoError::Closed) => return,
            Err(ProtoError::IdleTimeout) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(e @ (ProtoError::FrameLength { .. } | ProtoError::Malformed(_))) => {
                // Hostile framing: answer once, then close — after a bad
                // length the stream offset is unknowable.
                engine
                    .stats
                    .bump(&engine.stats.decode_errors, "serve.decode_errors");
                send(&mut conn, &Response::err(ErrClass::Decode, e.to_string()));
                return;
            }
            Err(_) => return, // I/O mid-frame: nothing sane to answer onto
        };
        // Decode is total, but run it under catch_unwind anyway: a decoder
        // bug must cost one frame, not the daemon. Frame boundaries are
        // intact either way, so the connection can continue.
        let decoded = catch_unwind(AssertUnwindSafe(|| decode_request(&frame)));
        let req = match decoded {
            Ok(Ok(req)) => req,
            Ok(Err(e)) => {
                engine
                    .stats
                    .bump(&engine.stats.decode_errors, "serve.decode_errors");
                if !send(&mut conn, &Response::err(ErrClass::Decode, e.to_string())) {
                    return;
                }
                continue;
            }
            Err(_) => {
                engine
                    .stats
                    .bump(&engine.stats.panics_isolated, "serve.panics");
                engine
                    .stats
                    .bump(&engine.stats.decode_errors, "serve.decode_errors");
                if !send(
                    &mut conn,
                    &Response::err(ErrClass::Panic, "panic while decoding request"),
                ) {
                    return;
                }
                continue;
            }
        };
        let op_key = format!("op:{}", req.op.name());
        let tenant_key = format!("tenant:{}", req.tenant);
        let t0 = Instant::now();
        let resp = handle_request(shared, req);
        let latency_us = t0.elapsed().as_micros() as u64;
        {
            let mut t = engine.stats.telemetry();
            t.latency_us.record(&op_key, latency_us);
            t.latency_us.record(&tenant_key, latency_us);
        }
        let ok = send(&mut conn, &resp);
        count_response(shared, &resp);
        shared.request_completed();
        if !ok {
            return;
        }
    }
}

/// Request ids assigned by the daemon to requests that arrive without a
/// client-originated one (`request_id == 0`). Starts at 1 per daemon
/// process, so serial request sequences get deterministic ids.
static NEXT_RID: AtomicU64 = AtomicU64::new(1);

/// Admit one decoded request, wait for a slot, and run it there.
fn handle_request(shared: &Arc<Shared>, mut req: Request) -> Response {
    let engine = &shared.engine;
    engine.stats.bump(&engine.stats.requests, "serve.requests");
    if req.request_id == 0 {
        req.request_id = NEXT_RID.fetch_add(1, Ordering::Relaxed);
    }
    let rid = req.request_id;
    {
        let mut t = engine.stats.telemetry();
        t.payload_bytes.record(req.module.len() as u64);
        t.fuel.record(if req.fuel > 0 {
            req.fuel
        } else {
            shared.cfg.default_fuel
        });
    }
    let mut adm = trace::span("serve", "admission");
    adm.arg("rid", rid.to_string());
    adm.arg("op", req.op.name());
    adm.arg("tenant", req.tenant.clone());
    if req.parent_span != 0 {
        adm.arg("parent", req.parent_span.to_string());
    }
    if shared.shutting_down() {
        return Response::Busy {
            retry_after_ms: 200,
            reason: "shutting down".into(),
        };
    }
    // The breaker key is the raw payload bytes — never the parsed module;
    // the daemon must not parse a payload with a history of killing
    // workers. Payload-less ops hash to 0 and are never charged/denied.
    let payload_hash = if req.module.is_empty() {
        0
    } else {
        fnv1a64(&req.module)
    };
    if let Some(breaker) = &shared.breaker {
        // Ping/Stats answer in-daemon under process isolation: they touch
        // no guest code, and Stats must reflect the daemon's counters —
        // a worker subprocess only knows its own.
        if matches!(req.op, Op::Ping | Op::Stats) {
            return process(engine, &req, Instant::now() + Duration::from_secs(1));
        }
        if payload_hash != 0 && breaker.is_denied(payload_hash, engine.store.as_ref()) {
            engine
                .stats
                .bump(&engine.stats.quarantined, "serve.quarantined");
            return Response::err(
                ErrClass::Quarantined,
                format!("payload {payload_hash:016x} denylisted after repeated worker crashes"),
            );
        }
    }
    let _inflight = match shared
        .admission
        .admit(&req.tenant, req.module.len() as u64, req.fuel)
    {
        Ok(g) => g,
        Err(e) if e.retryable() => {
            engine
                .stats
                .bump(&engine.stats.busy_tenant, "serve.busy_tenant");
            return Response::Busy {
                retry_after_ms: 50,
                reason: e.to_string(),
            };
        }
        Err(e) => {
            engine
                .stats
                .bump(&engine.stats.quota_rejected, "serve.quota_rejected");
            return Response::err(ErrClass::Quota, e.to_string());
        }
    };
    let deadline_ms = if req.deadline_ms > 0 {
        Duration::from_millis(u64::from(req.deadline_ms))
    } else {
        shared.cfg.default_deadline
    };
    let deadline = Instant::now() + deadline_ms;
    adm.arg("outcome", "admitted");
    drop(adm);
    let mut queued = trace::span("serve", "queued");
    queued.arg("rid", rid.to_string());
    let waiting = Instant::now();
    let slot = shared.slots.acquire(deadline);
    drop(queued);
    let mut slot = match slot {
        Ok(slot) => slot,
        Err(NoSlot::Full) => {
            // The load-shedding path: every slot is busy and the line is
            // full.
            engine
                .stats
                .bump(&engine.stats.shed_queue, "serve.shed_queue");
            return Response::Busy {
                retry_after_ms: 100,
                reason: "work queue full".into(),
            };
        }
        Err(NoSlot::Expired) => return expired("queued"),
    };
    engine
        .stats
        .telemetry()
        .queue_wait_us
        .record(waiting.elapsed().as_micros() as u64);
    let resp = execute(shared, &mut slot, &req, payload_hash, deadline);
    // Counted here, from the answer, and not where the run executes:
    // under process isolation that is a worker subprocess with counters
    // of its own.
    if let (Op::Run, Response::Ok { cache_hit, .. }) = (req.op, &resp) {
        if *cache_hit {
            engine
                .stats
                .bump(&engine.stats.cache_hits, "serve.cache_hits");
        } else if engine.store.is_some() {
            engine
                .stats
                .bump(&engine.stats.cache_misses, "serve.cache_misses");
        }
    }
    resp
}

/// Attribute one outgoing response in the stats.
fn count_response(shared: &Shared, resp: &Response) {
    let engine = &shared.engine;
    match resp {
        Response::Ok { .. } => engine.stats.bump(&engine.stats.ok, "serve.ok"),
        Response::Err { class, .. } => {
            engine.stats.bump(&engine.stats.errors, "serve.errors");
            match class {
                ErrClass::Deadline => engine
                    .stats
                    .bump(&engine.stats.deadline_expired, "serve.deadline_expired"),
                ErrClass::Trap => engine.stats.bump(&engine.stats.traps, "serve.traps"),
                ErrClass::Panic => engine
                    .stats
                    .bump(&engine.stats.panics_isolated, "serve.panics"),
                _ => {}
            }
        }
        Response::Busy { .. } => engine.stats.bump(&engine.stats.busy, "serve.busy"),
    }
}

/// Encode and write one response; `false` means the connection is gone.
fn send(conn: &mut Conn, resp: &Response) -> bool {
    let payload = encode_response(resp);
    write_frame(conn, &payload).is_ok() && conn.flush().is_ok()
}

/// Run one request in the slot it holds: in place under `catch_unwind`,
/// or in the slot's worker subprocess.
fn execute(
    shared: &Shared,
    slot: &mut Slot,
    req: &Request,
    payload_hash: u64,
    deadline: Instant,
) -> Response {
    let mut sp = trace::span("serve", "request");
    sp.arg("rid", req.request_id.to_string());
    sp.arg("op", req.op.name());
    sp.arg("tenant", req.tenant.clone());
    let resp = match shared.cfg.isolate {
        // The whole pipeline for one request is one isolation domain: a
        // panic anywhere inside — parser, optimizer, VM, store — becomes
        // a structured error for THIS client; the daemon survives.
        Isolation::Thread => {
            catch_unwind(AssertUnwindSafe(|| process(&shared.engine, req, deadline)))
                .unwrap_or_else(|payload| {
                    let msg = panic_message(&payload);
                    Response::err(ErrClass::Panic, format!("request pipeline panicked: {msg}"))
                })
        }
        Isolation::Process => in_worker(shared, slot, req, payload_hash, deadline, &mut sp),
    };
    sp.arg("status", resp.status_label());
    resp
}

/// Hand one request to the slot's `lpatd --worker` subprocess, spawning
/// one first if the slot has none. A crash or watchdog kill costs this
/// client a structured error ([`ErrClass::Crashed`] / deadline), charges
/// the crash breaker and reaps the worker; the slot's next holder spawns
/// a fresh one once the respawn backoff has passed, so this client is
/// answered without waiting for it. The daemon never goes down with a
/// worker.
fn in_worker(
    shared: &Shared,
    slot: &mut Slot,
    req: &Request,
    payload_hash: u64,
    deadline: Instant,
    sp: &mut trace::Span,
) -> Response {
    let engine = &shared.engine;
    if slot.worker.is_none() {
        thread::sleep(
            slot.not_before
                .min(deadline)
                .saturating_duration_since(Instant::now()),
        );
        if Instant::now() >= deadline {
            return expired("queued");
        }
        match ProcWorker::spawn(&shared.cfg, slot.index) {
            Ok(w) => {
                if slot.spawned {
                    engine
                        .stats
                        .bump(&engine.stats.worker_restarts, "serve.worker_restarts");
                }
                slot.spawned = true;
                shared.set_pid(slot.index, w.pid);
                slot.worker = Some(w);
            }
            Err(e) => {
                // Can't even exec the worker binary: answer this client
                // and let a later holder try again after the backoff.
                slot.back_off();
                return Response::err(
                    ErrClass::Internal,
                    format!("cannot spawn worker process: {e}"),
                );
            }
        }
    }
    let w = slot.worker.as_mut().expect("worker spawned above");
    if trace::clock_mode() == trace::ClockMode::Real {
        // Real pids vary run to run; the virtual-clock export must stay a
        // pure function of the request sequence.
        sp.arg("worker_pid", w.pid.to_string());
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    // Absorbed worker events are re-timed relative to dispatch start.
    let ts_base = trace::now_us();
    let (class, what) = match w.dispatch(req, remaining) {
        Dispatch::Reply(resp, sidecar) => {
            slot.crashes = 0;
            if let Some(blob) = sidecar {
                // A garbled sidecar costs the trace lane, never the
                // response that already arrived intact.
                let _ = trace::absorb_foreign(&blob, ts_base);
            }
            return resp;
        }
        Dispatch::Crashed(detail) => {
            engine
                .stats
                .bump(&engine.stats.worker_crashes, "serve.worker_crashes");
            (
                ErrClass::Crashed,
                format!("worker died mid-request: {detail}"),
            )
        }
        Dispatch::Wedged => {
            // Past deadline + grace with no answer: cooperative checks
            // have failed; SIGKILL is the only deadline an uncooperative
            // pipeline respects.
            engine
                .stats
                .bump(&engine.stats.watchdog_kills, "serve.watchdog_kills");
            (
                ErrClass::Deadline,
                "worker exceeded its deadline and was hard-killed by the watchdog".to_string(),
            )
        }
    };
    charge_crash(shared, payload_hash);
    let msg = match salvage_flight(shared, slot.index, req.request_id) {
        Some(note) => format!("{what}; {note}"),
        None => what,
    };
    if let Some(mut w) = slot.worker.take() {
        w.reap();
    }
    shared.set_pid(slot.index, 0);
    slot.back_off();
    Response::err(class, msg)
}

/// Salvage a dead (or wedged) worker's flight-recorder spill: parse the
/// checksum-valid prefix of `slot<N>.spill`, preserve it as a standalone
/// `slot<N>-rid<R>.flight` dump, and return a diagnostic note referencing
/// it. `None` when the recorder is off or nothing salvageable exists —
/// flight records are best-effort and must never delay the client's
/// answer beyond one file read.
fn salvage_flight(shared: &Shared, slot: usize, rid: u64) -> Option<String> {
    let dir = shared.cfg.flight_dir.as_ref()?;
    let spill = dir.join(format!("slot{slot}.spill"));
    let events = trace::read_flight(&spill).ok()?;
    if events.is_empty() {
        return None;
    }
    let dump = dir.join(format!("slot{slot}-rid{rid}.flight"));
    trace::write_flight_dump(&dump, &events).ok()?;
    let engine = &shared.engine;
    engine
        .stats
        .bump(&engine.stats.flight_salvaged, "serve.flight_salvaged");
    let last = events
        .last()
        .map(|e| format!("{}.{}", e.cat, e.name))
        .unwrap_or_default();
    Some(format!(
        "flight record: {} ({} events, last {last})",
        dump.display(),
        events.len()
    ))
}

/// Charge one worker death to the crash breaker (payload-less ops are
/// never charged). A newly tripped breaker is surfaced as a trace event.
fn charge_crash(shared: &Shared, payload_hash: u64) {
    if payload_hash == 0 {
        return;
    }
    if let Some(breaker) = &shared.breaker {
        if breaker.record_crash(payload_hash, shared.engine.store.as_ref()) {
            trace::instant_args(
                "serve",
                "quarantine",
                vec![("payload", format!("{payload_hash:016x}"))],
            );
        }
    }
}

/// Best-effort extraction of a panic payload message.
#[allow(clippy::borrowed_box)]
pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// The answer to a request whose deadline passed at `stage`.
fn expired(stage: &str) -> Response {
    Response::err(
        ErrClass::Deadline,
        format!("deadline expired at stage '{stage}'"),
    )
}

/// Cooperative deadline check at a stage boundary. The `serve.deadline`
/// fault site can force expiry (corrupt/io), panic, or stall here.
fn check_deadline(stage: &str, deadline: Instant) -> Result<(), Response> {
    let mut forced = false;
    match faultpoint!("serve.deadline") {
        Some(FaultAction::Panic) => panic!("injected fault at site 'serve.deadline'"),
        Some(FaultAction::Delay(d)) => thread::sleep(d),
        Some(_) => forced = true,
        None => {}
    }
    if forced || Instant::now() >= deadline {
        return Err(expired(stage));
    }
    Ok(())
}

/// Execute one request end to end against an [`Engine`]. Runs under the
/// connection thread's `catch_unwind` (thread isolation) or inside an
/// `lpatd --worker` subprocess (process isolation); may panic freely.
pub(crate) fn process(engine: &Engine, req: &Request, deadline: Instant) -> Response {
    // The worker fault site, manifested before any real work.
    match faultpoint!("serve.worker") {
        Some(FaultAction::Panic) => panic!("injected fault at site 'serve.worker'"),
        Some(FaultAction::Delay(d)) => thread::sleep(d),
        Some(_) => {
            return Response::err(ErrClass::Internal, "injected worker fault");
        }
        None => {}
    }
    if let Err(resp) = check_deadline("queued", deadline) {
        return resp;
    }
    match req.op {
        Op::Ping => Ok(Response::Ok {
            exit: 0,
            insts: 0,
            cache_hit: false,
            output: b"pong".to_vec(),
            module: Vec::new(),
        }),
        Op::Stats => Ok(Response::Ok {
            exit: 0,
            insts: 0,
            cache_hit: false,
            output: engine.stats.render_json().into_bytes(),
            module: Vec::new(),
        }),
        Op::Compile => do_compile(req, deadline),
        Op::Run => do_run(engine, req, deadline),
        Op::Reopt => do_reopt(engine, req, deadline),
    }
    .unwrap_or_else(|resp| resp)
}

/// Load a module from any of its three shapes — bytecode by its `LPAT`
/// magic, miniC source when `minic` says so, textual IR otherwise — and
/// verify it. The one door for the daemon's requests and `lpatc`'s files:
/// nothing reaches an optimizer or an engine unverified.
///
/// # Errors
///
/// The reader's, front end's or parser's message, or `verifier: …`.
pub fn load_module(name: &str, bytes: &[u8], minic: bool) -> Result<Module, String> {
    let m = if bytes.starts_with(b"LPAT") {
        lpat_bytecode::read_module(name, bytes).map_err(|e| e.to_string())?
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| "module is not LPAT bytecode and not UTF-8 text")?;
        if minic {
            lpat_minic::compile(name, text).map_err(|e| e.to_string())?
        } else {
            lpat_asm::parse_module(name, text).map_err(|e| e.to_string())?
        }
    };
    m.verify().map_err(|e| format!("verifier: {}", e[0]))?;
    Ok(m)
}

/// [`load_module`] on the request's payload — the wire carries a flag where
/// `lpatc` has a file extension — and the `parsed` deadline stage.
fn parse_module(req: &Request, deadline: Instant) -> Result<Module, Response> {
    let name = if req.name.is_empty() {
        "module"
    } else {
        req.name.as_str()
    };
    let m = load_module(name, &req.module, req.flags & FLAG_MINIC != 0)
        .map_err(|e| Response::err(ErrClass::BadModule, e))?;
    check_deadline("parsed", deadline)?;
    Ok(m)
}

/// Optimize a request's module under `FLAG_OPT` — the function pipeline,
/// plus the link-time one for a compile. A crashing pass is rolled back
/// and counted, never fatal.
fn optimize(m: &mut Module, link_time: bool) -> Result<(), Response> {
    let cfg = session::OptConfig {
        function: true,
        link_time,
        ..Default::default()
    };
    let reports = session::optimize(m, &cfg).map_err(|e| {
        Response::err(
            ErrClass::Internal,
            format!("verifier after optimization: {e}"),
        )
    })?;
    let faults: usize = reports.iter().map(|(_, r)| r.faults.len()).sum();
    if faults > 0 {
        trace::counter("serve.pass_faults", faults as u64);
    }
    Ok(())
}

/// Count what the session worked around while serving this request; the
/// request itself was answered regardless.
fn count_notes(notes: &[Note]) {
    for note in notes {
        match note {
            Note::Quarantined(_) => trace::counter("serve.store_quarantined", 1),
            Note::FlushFailed(_) => trace::counter("serve.flush_failures", 1),
            Note::CompactFailed(_) => trace::counter("serve.compact_failures", 1),
            _ => {}
        }
    }
}

// The three ops that carry a module. `Err` is an answer too: the stage
// that could not go on answers with its own response.

fn do_compile(req: &Request, deadline: Instant) -> Result<Response, Response> {
    let mut m = parse_module(req, deadline)?;
    if req.flags & FLAG_OPT != 0 {
        optimize(&mut m, true)?;
    }
    Ok(Response::Ok {
        exit: 0,
        insts: 0,
        cache_hit: false,
        output: Vec::new(),
        module: lpat_bytecode::write_module(&m),
    })
}

fn do_run(engine: &Engine, req: &Request, deadline: Instant) -> Result<Response, Response> {
    let mut m = parse_module(req, deadline)?;
    if req.flags & FLAG_OPT != 0 {
        optimize(&mut m, false)?;
    }
    // Every daemon-side run is fuel-bounded: the request's ask, or the
    // server default — never unlimited.
    let fuel = if req.fuel > 0 {
        req.fuel
    } else {
        engine.default_fuel
    };
    let mut opts = VmOptions {
        fuel: Some(fuel),
        profile: engine.store.is_some(),
        ..VmOptions::default()
    };
    opts.input.extend(req.inputs.iter().copied());
    // Every run is tiered, as `lpatc run` is; FLAG_TIERED is ignored. The
    // wire has no way to ask for the JIT alone or for speculation.
    let config = RunConfig { opts, spec: None };
    let pre_exec = || check_deadline("pre-exec", deadline);
    let report =
        session::run(m, engine.store.as_ref(), config, pre_exec, |_| ()).map_err(|e| match e {
            RunError::Aborted(resp) => resp,
            RunError::BadModule(e) => Response::err(ErrClass::BadModule, e.to_string()),
            RunError::Verify(e) => Response::err(
                ErrClass::Internal,
                format!("verifier after speculation: {e}"),
            ),
        })?;
    count_notes(&report.notes);
    // The stage is passed (and its fault site hit) whether or not the
    // guest trapped; a trap is answered as a trap.
    let post = check_deadline("post-exec", deadline);
    let code = report
        .result
        .map_err(|e| Response::err(ErrClass::Trap, e.to_string()))?;
    post?;
    Ok(Response::Ok {
        exit: (code & 0xFF) as i32,
        insts: report.insts,
        cache_hit: report.cache_hit,
        output: report.output.into_bytes(),
        module: Vec::new(),
    })
}

fn do_reopt(engine: &Engine, req: &Request, deadline: Instant) -> Result<Response, Response> {
    let Some(store) = engine.store.as_ref() else {
        return Err(Response::err(
            ErrClass::Unsupported,
            "reopt requires the daemon to run with --cache-dir",
        ));
    };
    let m = parse_module(req, deadline)?;
    let report = session::reopt(m, store, &PgoOptions::default()).map_err(|e| match e {
        ReoptError::NoProfile => Response::err(ErrClass::Unsupported, e.to_string()),
        ReoptError::Verify(e) => {
            Response::err(ErrClass::Internal, format!("verifier after reopt: {e}"))
        }
        e => Response::err(ErrClass::Internal, e.to_string()),
    })?;
    count_notes(&report.notes);
    check_deadline("post-exec", deadline)?;
    Ok(Response::Ok {
        exit: 0,
        insts: 0,
        cache_hit: false,
        output: format!(
            "reopt: inlined {} hot sites, re-laid {} functions ({} runs of profile)",
            report.pgo.inlined, report.pgo.relaid, report.runs
        )
        .into_bytes(),
        module: lpat_bytecode::write_module(&report.module),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    const ADD_PROG: &str = "\
define int @main() {
entry:
  %a = add int 40, 2
  ret int %a
}
";

    fn start_default() -> Handle {
        Server::bind(ServerConfig::default()).unwrap().start()
    }

    #[test]
    fn ping_and_run_roundtrip() {
        let h = start_default();
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let pong = c.request(&Request::new(Op::Ping)).unwrap();
        match pong {
            Response::Ok { ref output, .. } => assert_eq!(output, b"pong"),
            other => panic!("unexpected: {other:?}"),
        }
        let mut req = Request::new(Op::Run);
        req.module = ADD_PROG.as_bytes().to_vec();
        match c.request(&req).unwrap() {
            Response::Ok { exit, insts, .. } => {
                assert_eq!(exit, 42);
                assert!(insts > 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
        h.stop();
    }

    #[test]
    fn bad_module_answers_structured_error_and_connection_survives() {
        let h = start_default();
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let mut req = Request::new(Op::Run);
        req.module = b"func @main( THIS IS NOT A PROGRAM".to_vec();
        match c.request(&req).unwrap() {
            Response::Err { class, .. } => assert_eq!(class, ErrClass::BadModule),
            other => panic!("unexpected: {other:?}"),
        }
        // Same connection still works.
        assert!(matches!(
            c.request(&Request::new(Op::Ping)).unwrap(),
            Response::Ok { .. }
        ));
        h.stop();
    }

    #[test]
    fn infinite_loop_is_fuel_bounded() {
        let cfg = ServerConfig {
            default_fuel: 10_000, // tiny budget
            ..Default::default()
        };
        let h = Server::bind(cfg).unwrap().start();
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let mut req = Request::new(Op::Run);
        req.module = b"\
define int @main() {
entry:
  br label %spin
spin:
  br label %spin
}
"
        .to_vec();
        match c.request(&req).unwrap() {
            Response::Err { class, message } => {
                assert_eq!(class, ErrClass::Trap);
                assert!(
                    message.contains("fuel") || message.contains("Fuel"),
                    "{message}"
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The daemon is still alive.
        assert!(matches!(
            c.request(&Request::new(Op::Ping)).unwrap(),
            Response::Ok { .. }
        ));
        h.stop();
    }

    #[test]
    fn quota_rejection_is_deterministic() {
        let mut cfg = ServerConfig::default();
        cfg.quota.max_bytes = 16;
        let h = Server::bind(cfg).unwrap().start();
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let mut req = Request::new(Op::Run);
        req.module = vec![b'x'; 64];
        for _ in 0..3 {
            match c.request(&req).unwrap() {
                Response::Err { class, .. } => assert_eq!(class, ErrClass::Quota),
                other => panic!("unexpected: {other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn max_requests_triggers_clean_shutdown() {
        let cfg = ServerConfig {
            max_requests: Some(1),
            ..Default::default()
        };
        let h = Server::bind(cfg).unwrap().start();
        let addr = h.addr().clone();
        let mut c = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let _ = c.request(&Request::new(Op::Ping)).unwrap();
        h.wait();
    }
}
