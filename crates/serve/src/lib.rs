//! `lpat-serve` — the fault-isolated multi-tenant compile-and-run daemon.
//!
//! The paper's lifelong model (§4.2, §3.6) has the compiler living beside
//! running programs: profiles stream in, reoptimization happens between
//! runs, and the optimizer must never take a running program down. This
//! crate is that model as a *service*: `lpatd` accepts concurrent
//! compile/run/reopt requests over a length-framed protocol, runs each on
//! the thread of the connection that sent it once it holds one of a fixed
//! number of slots, and isolates every request so a panicking, hostile,
//! or runaway guest is one client's structured error, never the daemon's
//! crash.
//!
//! The layers:
//!
//! - [`proto`] — the wire format: length-framed, magic/versioned, totally
//!   decoded (hostile bytes produce errors, never panics or allocations
//!   beyond the frame bound).
//! - [`admission`] — per-tenant quotas (deterministic: bytes, fuel;
//!   load-dependent: in-flight) and the slots, whose bounded line for a
//!   free slot is the load-shedding point.
//! - [`server`] — accept loop, connection framing, and the request
//!   pipeline with `catch_unwind` isolation, fuel bounds, and
//!   cooperative deadlines. Fault sites `serve.accept`, `serve.decode`,
//!   `serve.worker`, `serve.deadline` hook [`lpat_core::fault`] for the
//!   CI fault matrix. Requests read and write one [`lpat_vm::Store`] on
//!   `--cache-dir`, the directory layout `lpatc` uses; its per-key locks
//!   keep concurrent tenants from convoying on one lock.
//! - [`worker`] — the crash-only layer: `--isolate process` gives each
//!   slot an `lpatd --worker` subprocess, respawned after a death, and
//!   runs the slot's requests there, so aborts, OOM kills, and `kill -9`
//!   cost one worker, not the daemon; a per-payload crash-loop breaker
//!   quarantines modules that keep killing workers.
//! - [`signal`] — dependency-free SIGTERM/SIGINT handling that turns
//!   termination signals into a graceful drain.
//! - [`client`] — connect-with-timeout, one-shot requests, and bounded
//!   jittered exponential-backoff retry of `Busy` answers.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod net;
pub mod proto;
pub mod server;
pub mod signal;
pub mod worker;

pub use admission::{Admission, AdmitError, InflightGuard, TenantQuota};
pub use client::{Client, RetryPolicy};
pub use proto::{
    backoff_delay, decode_request, decode_response, encode_request, encode_response, read_frame,
    write_frame, Addr, ErrClass, Op, ProtoError, Request, Response, DEFAULT_MAX_FRAME, FLAG_MINIC,
    FLAG_OPT, FLAG_TIERED,
};
pub use server::{Engine, Handle, Server, ServerConfig, ServerStats};
pub use worker::{run_worker_stdio, Isolation};
