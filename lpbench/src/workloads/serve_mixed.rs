//! `serve-mixed` — the daemon path users of `lpatd` see: framing,
//! admission, queue, worker, per-request store flush. An in-process
//! `lpat_serve::Server` (workers = `nproc`, a queue deeper than the client
//! count so nothing is shed, a store on a scratch directory) is driven
//! **closed-loop** by `nproc` client connections over real sockets: each
//! client sends its next request when the previous answer arrives, through
//! a fixed, seeded schedule that every pass replays.
//!
//! Overload and shedding are deliberately not measured here: an open-loop
//! run on two shared cores does not repeat within a tenth.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use lpat_core::trace::{self, Json};
use lpat_serve::{
    decode_request, encode_request, Client, ErrClass, Handle, Op, Request, Response, Server,
    ServerConfig, FLAG_MINIC, FLAG_OPT, FLAG_TIERED,
};
use lpat_vm::{Vm, VmOptions};

use super::{fast_codegen, maybe_corrupt, ran, Program};
use crate::harness::run::{put_overhead, Config, Facts, PassOutcome, Sample, Workload};
use crate::harness::span::Tracer;
use crate::harness::stats;
use crate::inputs::progen::{App, Shape, STRUCTURE};
use crate::inputs::{kernels, spec15, Oracle, Rng};

/// Request classes `(row label, share of the schedule in percent)`. The
/// last one has no row of its own: turning garbage away takes a few tens
/// of microseconds of thread wake-ups, which would put the sandbox's
/// scheduling noise into `op_ms_geomean` with a sixth of the weight. Its
/// requests still count in `req_ms_*` and must still be rejected.
const CLASSES: [(&str, usize); 6] = [
    ("run-bytecode", 60),
    ("run-minic", 20),
    ("compile", 10),
    ("run-kernel", 5),
    ("reopt", 3),
    ("hostile", 2),
];

/// `spec15` programs that are reoptimized during priming, so their runs
/// are served from the reoptimized-module cache.
const REOPTED: usize = 5;

/// What a response must be.
enum Expect {
    /// `Ok` with this output and exit code.
    Run(Oracle),
    /// `Ok` carrying exactly these module bytes.
    Module(Vec<u8>),
    /// `Err` of class `BadModule`.
    Rejected,
}

struct Planned {
    class: usize,
    req: Request,
    expect: Expect,
}

/// The workload's state.
pub struct ServeMixed {
    handle: Option<Handle>,
    clients: Vec<Client>,
    /// The schedule, dealt round-robin to the clients.
    plans: Vec<Vec<Planned>>,
    facts: Facts,
    dir: PathBuf,
    /// Client latencies of the untraced passes, in ms.
    latencies: Vec<f64>,
}

fn request(op: Op, flags: u8, name: &str, tenant: &str, module: Vec<u8>) -> Request {
    let mut r = Request::new(op);
    r.flags = flags;
    r.name = name.to_string();
    r.tenant = tenant.to_string();
    r.module = module;
    r
}

/// Whether `resp` is what `expect` demands; the instructions it reports.
fn judge(resp: &Response, expect: &Expect) -> (bool, u64) {
    match (resp, expect) {
        (
            Response::Ok {
                exit,
                insts,
                output,
                ..
            },
            Expect::Run(o),
        ) => {
            // The wire carries the exit code as a byte.
            let ok = output == o.output.as_bytes() && i64::from(*exit) == (o.exit & 0xFF);
            (ok, *insts)
        }
        (Response::Ok { module, .. }, Expect::Module(golden)) => (module == golden, 0),
        (Response::Err { class, .. }, Expect::Rejected) => (*class == ErrClass::BadModule, 0),
        _ => (false, 0),
    }
}

/// One client's share of a pass.
fn drive(client: &mut Client, plan: &[Planned], tr: &mut Tracer, first_op: u32) -> PassOutcome {
    let mut out = PassOutcome::default();
    for (k, p) in plan.iter().enumerate() {
        tr.set_op(first_op + k as u32);
        let t = Instant::now();
        let resp = tr.span("serve.client_request", |_| client.request(&p.req));
        out.samples.push(Sample {
            class: p.class,
            ms: t.elapsed().as_secs_f64() * 1e3,
        });
        match resp.as_ref().map(|r| judge(r, &p.expect)) {
            Ok((true, insts)) => out.insts += insts,
            _ => out.failed += 1,
        }
    }
    out
}

fn ok_module(client: &mut Client, req: &Request, what: &str) -> Result<Vec<u8>, String> {
    match client.request(req).map_err(|e| format!("{what}: {e}"))? {
        Response::Ok { module, .. } => Ok(module),
        other => Err(format!("{what}: {}", other.status_label())),
    }
}

impl ServeMixed {
    fn scrape(&mut self) -> Result<Json, String> {
        match self.clients[0].request(&Request::new(Op::Stats)) {
            Ok(Response::Ok { output, .. }) => {
                trace::parse_json(&String::from_utf8_lossy(&output)).map_err(|e| e.to_string())
            }
            other => Err(format!("stats: {other:?}")),
        }
    }
}

impl Workload for ServeMixed {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let total = if cfg.smoke { 50 } else { 350 };
        let dir = cfg.scratch("daemon")?;
        let handle = Server::bind(ServerConfig {
            workers: nproc,
            queue_depth: 4 * nproc + 8,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })?
        .start();
        let mut clients = Vec::new();
        for _ in 0..nproc {
            clients.push(
                Client::connect(handle.addr(), Duration::from_secs(10))
                    .map_err(|e| e.to_string())?,
            );
        }
        let c = &mut clients[0];

        // Inputs and their oracles.
        let mut spec: Vec<(Program, String)> = Vec::new();
        for (name, src, oracle) in spec15::programs(0) {
            spec.push((Program::build(name, &src, oracle)?, src));
        }
        maybe_corrupt(cfg.corrupt_oracle, &mut spec[0].0.oracle);
        // A kernel of a little under a million instructions.
        let dispatch = &kernels::all()[5];
        let scale = if cfg.smoke { 1 } else { 12 };
        let kernel = Program::build(
            dispatch.name,
            &(dispatch.source)(scale, cfg.seed),
            (dispatch.expected)(scale, cfg.seed),
        )?;
        let shape = Shape {
            units: 1,
            funcs_per_unit: if cfg.smoke { 12 } else { 16 },
        };
        let app = App::generate(STRUCTURE, cfg.seed, 0, shape);
        let (unit, app_src) = app.sources().remove(0);
        let app_o0 = lpat_bytecode::write_module(
            &lpat_minic::compile(&unit, &app_src).map_err(|e| format!("{unit}: {e}"))?,
        );

        // Cache priming, which is also the golden check of the two
        // classes that answer with a module. Compile: the daemon's output
        // must run to the generator's oracle.
        let compile = request(Op::Compile, FLAG_OPT, &unit, "timed", app_o0);
        let compiled = ok_module(c, &compile, "priming compile")?;
        let m = lpat_bytecode::read_module(&unit, &compiled).map_err(|e| e.to_string())?;
        let mut vm = Vm::new(&m, VmOptions::default()).map_err(|e| e.to_string())?;
        let result = vm.run_main();
        if !ran(&vm, result)?.matches(&app.oracle()) {
            return Err(
                "the daemon's compiled module disagrees with the generator's oracle".into(),
            );
        }
        let mut facts = Facts {
            bytecode_bytes: compiled.len() as u64,
            native_bytes: fast_codegen(&m).0,
        };
        // Reopt: one run records a profile, one reopt caches the
        // reoptimized module; from then on runs of these programs are
        // cache hits and their source profile no longer changes, so every
        // later reopt must answer with the same bytes.
        let mut reopts = Vec::new();
        for (p, _) in spec.iter().take(REOPTED) {
            let run = request(Op::Run, FLAG_TIERED, &p.name, "setup", p.bytes.clone());
            let resp = c.request(&run).map_err(|e| e.to_string())?;
            if !judge(&resp, &Expect::Run(p.oracle.clone())).0 {
                return Err(format!("{}: priming run disagrees with the oracle", p.name));
            }
            let reopt = request(Op::Reopt, 0, &p.name, "timed", p.bytes.clone());
            let golden = ok_module(c, &reopt, "priming reopt")?;
            reopts.push((reopt, golden));
        }
        for p in spec.iter().map(|(p, _)| p).chain([&kernel]) {
            facts.bytecode_bytes += p.bytes.len() as u64;
            facts.native_bytes += p.native_bytes;
        }

        // The schedule: exact class counts, seeded order.
        let hostile: [Vec<u8>; 3] = [
            b"define int @main( THIS IS NOT A MODULE {{{".to_vec(),
            spec[1].0.bytes[..spec[1].0.bytes.len() / 2].to_vec(),
            vec![0xFF, 0xFE, 0x80, 0x81, 0xC0, 0x00, 0xFF],
        ];
        let mut rng = Rng::new(cfg.seed, 0x73_65_72_76);
        let mut schedule = Vec::new();
        for (class, (_, share)) in CLASSES.iter().enumerate() {
            for k in 0..(total * share).div_ceil(100) {
                // Programs take turns, so every pass runs each equally
                // often; the seed decides the order requests go out in.
                let (p, src) = &spec[k % spec.len()];
                let (req, expect) = match class {
                    0 => (
                        request(Op::Run, FLAG_TIERED, &p.name, "timed", p.bytes.clone()),
                        Expect::Run(p.oracle.clone()),
                    ),
                    1 => (
                        request(
                            Op::Run,
                            FLAG_MINIC | FLAG_OPT | FLAG_TIERED,
                            &p.name,
                            "timed",
                            src.clone().into_bytes(),
                        ),
                        Expect::Run(p.oracle.clone()),
                    ),
                    2 => (compile.clone(), Expect::Module(compiled.clone())),
                    3 => (
                        request(
                            Op::Run,
                            FLAG_TIERED,
                            &kernel.name,
                            "timed",
                            kernel.bytes.clone(),
                        ),
                        Expect::Run(kernel.oracle.clone()),
                    ),
                    4 => {
                        let (req, golden) = &reopts[k % reopts.len()];
                        (req.clone(), Expect::Module(golden.clone()))
                    }
                    _ => (
                        request(Op::Run, 0, "hostile", "timed", hostile[k % 3].clone()),
                        Expect::Rejected,
                    ),
                };
                schedule.push(Planned { class, req, expect });
            }
        }
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.below(i + 1));
        }
        let mut plans: Vec<Vec<Planned>> = (0..nproc).map(|_| Vec::new()).collect();
        for (i, p) in schedule.into_iter().enumerate() {
            plans[i % nproc].push(p);
        }
        Ok(ServeMixed {
            handle: Some(handle),
            clients,
            plans,
            facts,
            dir,
            latencies: Vec::new(),
        })
    }

    fn classes(&self) -> Vec<String> {
        CLASSES[..5].iter().map(|c| c.0.to_string()).collect()
    }

    fn facts(&self) -> Facts {
        self.facts
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let mut out = PassOutcome::default();
        let plans = &self.plans;
        let parts: Vec<(PassOutcome, Tracer)> = std::thread::scope(|s| {
            let mut first_op = 0u32;
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(plans)
                .map(|(client, plan)| {
                    let mut t = tr.fork();
                    let base = first_op;
                    first_op += plan.len() as u32;
                    s.spawn(move || {
                        let o = drive(client, plan, &mut t, base);
                        (o, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (o, t) in parts {
            out.samples.extend(o.samples);
            out.failed += o.failed;
            out.insts += o.insts;
            tr.absorb(t);
        }
        if !tr.on {
            self.latencies.extend(out.samples.iter().map(|s| s.ms));
        }
        out
    }

    fn extras(&mut self, untraced: &[f64], layer: &mut BTreeMap<String, f64>) {
        let requests: usize = self.plans.iter().map(Vec::len).sum();
        layer.insert(
            "serve.req_per_s".into(),
            requests as f64 / stats::quiet(untraced),
        );
        // The daemon's own view, scraped over the wire with the `Stats`
        // op. Its histograms are cumulative since the daemon started:
        // `tenant:timed` holds the warm-up and every pass, the queue-wait
        // histogram also the few priming requests.
        if let Ok(doc) = self.scrape() {
            let q = |path: &[&str], field: &str| -> f64 {
                path.iter()
                    .try_fold(&doc, |j, k| j.get(k))
                    .and_then(|j| j.num(field))
                    .unwrap_or(0.0)
            };
            let service = ["quantiles", "latency_us", "tenant:timed"];
            let wait = ["quantiles", "queue_wait_us"];
            layer.insert("serve.service_us_p50".into(), q(&service, "p50"));
            layer.insert("serve.service_us_p99".into(), q(&service, "p99"));
            layer.insert("serve.queue_wait_us_p50".into(), q(&wait, "p50"));
            layer.insert("serve.queue_wait_us_p99".into(), q(&wait, "p99"));
            layer.insert(
                "serve.transport_us_p50".into(),
                stats::median(&self.latencies) * 1e3 - q(&service, "p50"),
            );
            let n = |k: &str| doc.num(k).unwrap_or(0.0);
            if n("requests") > 0.0 {
                layer.insert("serve.busy_share".into(), n("busy") / n("requests"));
            }
            if n("cache_hits") + n("cache_misses") > 0.0 {
                layer.insert(
                    "serve.cache_hit_share".into(),
                    n("cache_hits") / (n("cache_hits") + n("cache_misses")),
                );
            }
        }
        // Framing cost by itself: every scheduled request encoded, then
        // decoded, mean per request.
        let reqs: Vec<&Request> = self.plans.iter().flatten().map(|p| &p.req).collect();
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = reqs.iter().map(|r| encode_request(r)).collect();
        let encode = t.elapsed();
        let t = Instant::now();
        let decoded = frames.iter().filter(|f| decode_request(f).is_ok()).count();
        let decode = t.elapsed();
        assert_eq!(decoded, reqs.len(), "a scheduled request does not decode");
        let per_req = |d: Duration| d.as_secs_f64() * 1e6 / reqs.len() as f64;
        layer.insert("serve.proto_encode_us".into(), per_req(encode));
        layer.insert("serve.proto_decode_us".into(), per_req(decode));

        // What the program's own tracing costs when switched on; the
        // daemon runs in this process, so its spans are recorded too.
        let mut off = Tracer::new(false, Instant::now());
        let mut walls = Vec::new();
        for _ in 0..2 {
            trace::enable(trace::ClockMode::Real);
            let t = Instant::now();
            self.pass(&mut off);
            walls.push(t.elapsed().as_secs_f64());
            trace::disable();
            drop(trace::drain());
        }
        put_overhead(layer, "core.trace.enabled_overhead_pct", &walls, untraced);
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
