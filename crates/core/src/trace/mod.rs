//! Unified tracing and metrics (observability spine).
//!
//! Every subsystem — pass manager, interpreter, JIT, heap, PGO, and the
//! lifelong store — records into this one module: RAII **spans** (timed
//! regions), **instant events** (point-in-time facts such as traps or
//! quarantines), and named **counters** (monotonic sums such as cache hits
//! or per-opcode execution counts). Recordings land in per-thread ring
//! buffers and are exported as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) plus a machine-readable metrics summary.
//!
//! # Cost model
//!
//! Tracing is off by default. Every record site ([`counter`], [`instant`],
//! [`instant_args`], span recording) is gated on a single relaxed atomic
//! load ([`enabled`]); when disabled nothing else runs and nothing
//! allocates. [`Span`] additionally measures wall time with
//! [`Instant`] because its callers (e.g. `--time-passes`) need the
//! duration whether or not tracing is on — the pass report is a *view*
//! over the same measurement the trace records, not a second stopwatch.
//!
//! # Determinism
//!
//! Two mechanisms keep the exported trace byte-identical regardless of
//! `--jobs`, mirroring the fault-injection design:
//!
//! 1. **Ordinals.** Every event carries a `u64` ordinal; export sorts by
//!    it. Serial code draws ordinals from a global counter; parallel
//!    stages [`reserve`] a contiguous block *before* spawning workers and
//!    index it by function number (exactly like `FaultPlan::reserve`), so
//!    the set of (ordinal, event) pairs is independent of interleaving.
//! 2. **Virtual clock.** Under [`ClockMode::Virtual`] (the injectable
//!    clock pattern from `lpat_vm::store`), exported timestamps, durations
//!    and thread ids are pure functions of the ordinal: `ts = ordinal *
//!    10`, `dur = 5`, `tid = 0`. Real measurements still happen (reports
//!    keep their wall-clock numbers); only the *export* is virtualized.
//!
//! Counters are order-independent sums and need no special handling.
//!
//! # Distributed traces
//!
//! A trace session can *absorb* event buffers recorded by other
//! processes (the `lpatd` workers): the remote side serializes its
//! drained session with [`encode_wire_trace`], ships the bytes over
//! whatever transport it already has, and the collecting side calls
//! [`absorb_foreign`]. Foreign events are re-based onto this session's
//! ordinal space (via [`reserve`]) and exported as their own Chrome
//! `pid` lane; under the virtual clock all foreign lanes collapse to
//! one stable virtual pid so the merged export stays byte-deterministic
//! no matter how many worker processes served the requests.
//!
//! # Always-on telemetry and the flight recorder
//!
//! [`Histogram`] is a zero-dependency log-linear (HDR-style) quantile
//! sketch for always-on latency/size telemetry — see its docs for the
//! bucket scheme and error bound. [`FlightRecorder`] keeps a bounded
//! ring of the most recent trace events spilled incrementally to a
//! checksummed file, so a `SIGKILL`ed process leaves a salvageable
//! post-mortem record behind ([`read_flight`]).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

mod flight;
mod hist;
mod json;

pub use flight::{
    absorb_foreign, decode_wire_trace, encode_wire_trace, install_flight_recorder, read_flight,
    uninstall_flight_recorder, write_flight_dump, FlightRecorder, WireTrace, FLIGHT_MAGIC,
    WIRE_TRACE_MAGIC,
};
pub use hist::{Histogram, HistogramSet};
pub use json::{parse_json, validate_chrome_trace, Json, JsonWriter};

use flight::flight_observe;
use json::escape_json;

/// Maximum buffered events per thread; overflow increments a drop counter
/// instead of reallocating without bound.
pub const RING_CAPACITY: usize = 1 << 16;

/// Clock used when *exporting* timestamps (recording always measures real
/// time; see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Wall-clock microseconds since [`enable`].
    Real,
    /// Timestamps derived purely from event ordinals — byte-deterministic
    /// across runs and `--jobs` values.
    Virtual,
}

/// What kind of trace event a [`TraceEvent`] is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timed region (Chrome phase `"X"`).
    Span {
        /// Measured wall-clock duration, in microseconds.
        dur_us: u64,
    },
    /// A point-in-time event (Chrome phase `"i"`).
    Instant,
}

/// One recorded event, as drained by [`drain`].
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Deterministic sort key; see the module docs.
    pub ordinal: u64,
    /// Subsystem category (`"pass"`, `"vm"`, `"jit"`, `"heap"`, `"pgo"`,
    /// `"store"`, ...).
    pub cat: &'static str,
    /// Event name (pass name, opcode, file stem, ...).
    pub name: String,
    /// Span or instant.
    pub kind: EventKind,
    /// Wall-clock start, microseconds since [`enable`].
    pub ts_us: u64,
    /// Recording thread's lane (export `tid` under the real clock).
    pub lane: u32,
    /// Structured key/value payload.
    pub args: Vec<(&'static str, String)>,
}

struct LocalBuf {
    lane: u32,
    events: Vec<TraceEvent>,
    counters: HashMap<&'static str, u64>,
    dropped: u64,
}

impl LocalBuf {
    fn new(lane: u32) -> LocalBuf {
        LocalBuf {
            lane,
            events: Vec::new(),
            counters: HashMap::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        flight_observe(&ev);
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

struct GlobalTrace {
    enabled: AtomicBool,
    virtual_clock: AtomicBool,
    /// Bumped by [`enable`] so thread-local buffers from a previous session
    /// re-register instead of writing into drained storage.
    epoch: AtomicU64,
    ordinal: AtomicU64,
    next_lane: AtomicU32,
    start: Mutex<Option<Instant>>,
    buffers: Mutex<Vec<Arc<Mutex<LocalBuf>>>>,
    foreign: Mutex<Vec<ForeignLane>>,
}

fn global() -> &'static GlobalTrace {
    static G: OnceLock<GlobalTrace> = OnceLock::new();
    G.get_or_init(|| GlobalTrace {
        enabled: AtomicBool::new(false),
        virtual_clock: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        ordinal: AtomicU64::new(0),
        next_lane: AtomicU32::new(0),
        start: Mutex::new(None),
        buffers: Mutex::new(Vec::new()),
        foreign: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static TLS: RefCell<Option<(u64, Arc<Mutex<LocalBuf>>)>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> R {
    let g = global();
    let epoch = g.epoch.load(Ordering::Relaxed);
    TLS.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let lane = g.next_lane.fetch_add(1, Ordering::Relaxed);
            let buf = Arc::new(Mutex::new(LocalBuf::new(lane)));
            g.buffers.lock().unwrap().push(Arc::clone(&buf));
            *slot = Some((epoch, buf));
        }
        let buf = Arc::clone(&slot.as_ref().unwrap().1);
        drop(slot);
        let r = f(&mut buf.lock().unwrap());
        r
    })
}

/// Start a tracing session, discarding any previous one.
pub fn enable(clock: ClockMode) {
    let g = global();
    g.enabled.store(false, Ordering::SeqCst);
    g.buffers.lock().unwrap().clear();
    g.foreign.lock().unwrap().clear();
    g.epoch.fetch_add(1, Ordering::SeqCst);
    g.ordinal.store(0, Ordering::SeqCst);
    g.next_lane.store(0, Ordering::SeqCst);
    *g.start.lock().unwrap() = Some(Instant::now());
    g.virtual_clock
        .store(clock == ClockMode::Virtual, Ordering::SeqCst);
    g.enabled.store(true, Ordering::SeqCst);
}

/// Stop recording. Buffered events stay drainable.
pub fn disable() {
    global().enabled.store(false, Ordering::SeqCst);
}

/// Whether tracing is on — the one relaxed atomic check every record site
/// is gated on.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// The clock mode of the current (or last) session.
pub fn clock_mode() -> ClockMode {
    if global().virtual_clock.load(Ordering::Relaxed) {
        ClockMode::Virtual
    } else {
        ClockMode::Real
    }
}

/// Microseconds since [`enable`] (0 when tracing is off).
pub fn now_us() -> u64 {
    if !enabled() {
        return 0;
    }
    match *global().start.lock().unwrap() {
        Some(t0) => t0.elapsed().as_micros() as u64,
        None => 0,
    }
}

fn next_ordinal() -> u64 {
    global().ordinal.fetch_add(1, Ordering::Relaxed)
}

/// Reserve a contiguous block of `n` ordinals and return its base.
///
/// Call this *serially* before fanning work out to parallel workers; each
/// worker then records with `base + deterministic_index` via
/// [`record_span_at`], so the exported trace is independent of `--jobs`
/// (the same protocol `FaultPlan::reserve` uses for fault sites).
pub fn reserve(n: u64) -> u64 {
    global().ordinal.fetch_add(n, Ordering::Relaxed)
}

/// A timed region. Created by [`span`]; records itself on drop.
///
/// The measured [`Duration`] is available through [`Span::stop`] /
/// [`Span::finish`] so callers (e.g. `--time-passes`) report *exactly*
/// the number the trace records — one stopwatch, two views.
pub struct Span {
    recording: bool,
    cat: &'static str,
    name: Cow<'static, str>,
    ordinal: u64,
    ts_us: u64,
    t0: Instant,
    dur: Option<Duration>,
    args: Vec<(&'static str, String)>,
}

/// Open a [`Span`] in category `cat`. Draws a serial ordinal — parallel
/// workers must use [`record_span_at`] with reserved ordinals instead.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    let recording = enabled();
    Span {
        recording,
        cat,
        name: name.into(),
        ordinal: if recording { next_ordinal() } else { 0 },
        ts_us: if recording { now_us() } else { 0 },
        t0: Instant::now(),
        dur: None,
        args: Vec::new(),
    }
}

impl Span {
    /// Attach a structured argument (no-op when tracing is off).
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        if self.recording {
            self.args.push((key, value.into()));
        }
    }

    /// Freeze and return the duration without recording yet (idempotent).
    /// Lets callers bank the measurement, then attach outcome args before
    /// the span records on drop.
    pub fn stop(&mut self) -> Duration {
        if self.dur.is_none() {
            self.dur = Some(self.t0.elapsed());
        }
        self.dur.unwrap()
    }

    /// Record the span and return its measured duration.
    pub fn finish(mut self) -> Duration {
        self.stop()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.dur.unwrap_or_else(|| self.t0.elapsed());
        if self.recording {
            let ev = TraceEvent {
                ordinal: self.ordinal,
                cat: self.cat,
                name: std::mem::take(&mut self.name).into_owned(),
                kind: EventKind::Span {
                    dur_us: dur.as_micros() as u64,
                },
                ts_us: self.ts_us,
                lane: 0, // filled from the local buffer below
                args: std::mem::take(&mut self.args),
            };
            with_local(|b| {
                let mut ev = ev;
                ev.lane = b.lane;
                b.push(ev);
            });
        }
    }
}

/// Record a completed span with a *reserved* ordinal (parallel workers).
///
/// `ts_us` should come from [`now_us`] at region start; `dur` is the
/// measured duration. Only call when [`enabled`] — reserved ordinals only
/// exist in that case.
pub fn record_span_at(
    cat: &'static str,
    name: String,
    ordinal: u64,
    ts_us: u64,
    dur: Duration,
    args: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    with_local(|b| {
        let lane = b.lane;
        b.push(TraceEvent {
            ordinal,
            cat,
            name,
            kind: EventKind::Span {
                dur_us: dur.as_micros() as u64,
            },
            ts_us,
            lane,
            args,
        });
    });
}

/// Record a point-in-time event.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    instant_args(cat, name, Vec::new());
}

/// Record a point-in-time event with structured arguments.
pub fn instant_args(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    let ordinal = next_ordinal();
    let ts_us = now_us();
    let name = name.into().into_owned();
    with_local(|b| {
        let lane = b.lane;
        b.push(TraceEvent {
            ordinal,
            cat,
            name,
            kind: EventKind::Instant,
            ts_us,
            lane,
            args,
        });
    });
}

/// Add `delta` to the named counter. Sums are folded across threads at
/// [`drain`] time; addition commutes, so counters never perturb
/// determinism.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Like [`counter`], but records the key even when `delta` is zero.
/// For counter families whose consumers rely on a stable key set
/// (e.g. `vm.spec.*`): a zero is a statement, not an omission.
pub fn counter_keyed(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Events absorbed from another process ([`absorb_foreign`]), exported
/// as their own Chrome `pid` lane.
#[derive(Clone, Debug)]
pub struct ForeignLane {
    /// Recording process id (collapsed to one virtual pid on export
    /// under [`ClockMode::Virtual`]).
    pub pid: u32,
    /// The absorbed events; ordinals already re-based onto the local
    /// session's ordinal space.
    pub events: Vec<TraceEvent>,
    /// Events the remote ring dropped before shipping.
    pub dropped: u64,
}

/// Everything recorded in the current session, drained and merged.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// All events, sorted by ordinal (deterministic order).
    pub events: Vec<TraceEvent>,
    /// Folded counter sums, keyed by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Events discarded due to per-thread ring overflow.
    pub dropped: u64,
    /// Clock mode the session was enabled with.
    pub clock: ClockMode,
    /// Per-process lanes absorbed from workers via [`absorb_foreign`].
    pub foreign: Vec<ForeignLane>,
}

/// Drain all per-thread buffers into one deterministic [`TraceData`].
/// Recording may continue afterwards (buffers stay registered, emptied).
pub fn drain() -> TraceData {
    let g = global();
    let mut events = Vec::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dropped = 0;
    for buf in g.buffers.lock().unwrap().iter() {
        let mut b = buf.lock().unwrap();
        events.append(&mut b.events);
        for (k, v) in b.counters.drain() {
            *counters.entry(k).or_insert(0) += v;
        }
        dropped += b.dropped;
        b.dropped = 0;
    }
    events.sort_by_key(|e| e.ordinal);
    let foreign = std::mem::take(&mut *g.foreign.lock().unwrap());
    TraceData {
        events,
        counters,
        dropped,
        clock: clock_mode(),
        foreign,
    }
}
impl TraceData {
    /// Exported (ts, dur, tid) for an event — virtualized under
    /// [`ClockMode::Virtual`] so the JSON is byte-identical across runs
    /// and `--jobs` values.
    fn view(&self, e: &TraceEvent) -> (u64, u64, u32) {
        let dur = match e.kind {
            EventKind::Span { dur_us } => dur_us,
            EventKind::Instant => 0,
        };
        match self.clock {
            ClockMode::Real => (e.ts_us, dur, e.lane),
            ClockMode::Virtual => (
                e.ordinal * 10,
                match e.kind {
                    EventKind::Span { .. } => 5,
                    EventKind::Instant => 0,
                },
                0,
            ),
        }
    }

    /// The Chrome `pid` a local event exports with: the stable virtual
    /// pid 1 under [`ClockMode::Virtual`], the real process id otherwise.
    fn local_pid(&self) -> u64 {
        match self.clock {
            ClockMode::Virtual => 1,
            ClockMode::Real => u64::from(std::process::id()),
        }
    }

    /// The Chrome `pid` a foreign lane exports with. Under the virtual
    /// clock every worker collapses to pid 2 (which worker served a
    /// request is scheduling noise; keeping real pids would break byte
    /// determinism), under the real clock each keeps its process id.
    fn foreign_pid(&self, lane: &ForeignLane) -> u64 {
        match self.clock {
            ClockMode::Virtual => 2,
            ClockMode::Real => u64::from(lane.pid),
        }
    }

    /// Serialize as Chrome trace-event JSON (`{"traceEvents": [...]}`),
    /// loadable in Perfetto and `chrome://tracing`. Span events use phase
    /// `"X"`, instants `"i"`, counters `"C"`. Local events export under
    /// [`Self::local_pid`]; absorbed worker lanes under their own pid
    /// (phase `"M"` `process_name` metadata labels the lanes), the whole
    /// merged stream sorted by ordinal.
    pub fn to_chrome_json(&self) -> String {
        let n = self.events.len() + self.foreign.iter().map(|l| l.events.len()).sum::<usize>();
        let mut out = String::with_capacity(256 + n * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // Merge local + foreign into one ordinal-sorted stream.
        // Absorbed lanes carry re-based (unique) ordinals, so the sort
        // is total and the merged bytes stay deterministic.
        let mut merged: Vec<(u64, u32, &TraceEvent)> = Vec::with_capacity(n);
        let local_pid = self.local_pid();
        for e in &self.events {
            merged.push((local_pid, e.lane, e));
        }
        for lane in &self.foreign {
            let pid = self.foreign_pid(lane);
            for e in &lane.events {
                let tid = match self.clock {
                    ClockMode::Virtual => 0,
                    ClockMode::Real => e.lane,
                };
                merged.push((pid, tid, e));
            }
        }
        merged.sort_by_key(|(_, _, e)| e.ordinal);
        if !self.foreign.is_empty() {
            // Label the process lanes so Perfetto shows "daemon" and
            // "worker" instead of bare numbers.
            let mut pids: Vec<(u64, &str)> = vec![(local_pid, "daemon")];
            for lane in &self.foreign {
                let pid = self.foreign_pid(lane);
                if !pids.iter().any(|&(p, _)| p == pid) {
                    pids.push((pid, "worker"));
                }
            }
            pids.sort_unstable();
            for (pid, label) in pids {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
                );
            }
        }
        let mut end_ts = 0u64;
        for (pid, tid, e) in &merged {
            let (ts, dur, local_tid) = self.view(e);
            let tid = if *pid == local_pid { local_tid } else { *tid };
            end_ts = end_ts.max(ts + dur);
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":\"");
            escape_json(&e.name, &mut out);
            out.push_str("\",\"cat\":\"");
            escape_json(e.cat, &mut out);
            match e.kind {
                EventKind::Span { .. } => {
                    let _ = write!(out, "\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur}");
                }
                EventKind::Instant => {
                    let _ = write!(out, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts}");
                }
            }
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, &mut out);
                    out.push_str("\":\"");
                    escape_json(v, &mut out);
                    out.push('"');
                }
                out.push('}');
            }
            out.push('}');
        }
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":\"");
            escape_json(name, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"C\",\"ts\":{end_ts},\"pid\":{local_pid},\"tid\":0,\
                 \"args\":{{\"value\":{value}}}}}"
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per-category span aggregates: `(count, total duration in µs)`,
    /// absorbed worker lanes included. Virtualized durations under the
    /// virtual clock, so the metrics file is deterministic whenever the
    /// trace is.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let locals = self.events.iter();
        let foreigns = self.foreign.iter().flat_map(|l| l.events.iter());
        for e in locals.chain(foreigns) {
            if let EventKind::Span { .. } = e.kind {
                let (_, dur, _) = self.view(e);
                let t = totals.entry(e.cat).or_insert((0, 0));
                t.0 += 1;
                t.1 += dur;
            }
        }
        totals
    }

    /// Serialize the metrics summary as JSON: counters, per-category span
    /// aggregates, event/drop totals.
    pub fn to_metrics_json(&self) -> String {
        let foreign_events: usize = self.foreign.iter().map(|l| l.events.len()).sum();
        let foreign_dropped: u64 = self.foreign.iter().map(|l| l.dropped).sum();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str(
            "clock",
            match self.clock {
                ClockMode::Real => "real",
                ClockMode::Virtual => "virtual",
            },
        );
        w.field_u64("events", self.events.len() as u64);
        w.field_u64("foreign_events", foreign_events as u64);
        w.field_u64("dropped", self.dropped + foreign_dropped);
        w.begin_object_field("counters");
        for (k, v) in &self.counters {
            w.field_u64(k, *v);
        }
        w.end_object();
        w.begin_object_field("spans");
        for (cat, (count, total_us)) in &self.span_totals() {
            w.begin_object_field(cat);
            w.field_u64("count", *count);
            w.field_u64("total_us", *total_us);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Render the human `--stats` table.
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== trace stats ===");
        let totals = self.span_totals();
        if !totals.is_empty() {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12}",
                "span category", "count", "total µs"
            );
            for (cat, (count, total_us)) in &totals {
                let _ = writeln!(out, "{cat:<20} {count:>8} {total_us:>12}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<32} {:>14}", "counter", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<32} {v:>14}");
            }
        }
        let foreign_events: usize = self.foreign.iter().map(|l| l.events.len()).sum();
        if foreign_events > 0 {
            let _ = writeln!(
                out,
                "{} event(s) (+{} from {} worker lane(s)), {} dropped",
                self.events.len(),
                foreign_events,
                self.foreign.len(),
                self.dropped + self.foreign.iter().map(|l| l.dropped).sum::<u64>()
            );
        } else {
            let _ = writeln!(
                out,
                "{} event(s), {} dropped",
                self.events.len(),
                self.dropped
            );
        }
        out
    }
}

/// Tracing state is process-global; tests that enable it (here and in
/// the submodules) serialize through this lock.
#[cfg(test)]
fn locked() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        disable();
        let _ = drain();
        counter("t.disabled", 3);
        instant("test", "nope");
        let s = span("test", "also-nope");
        let d = s.finish();
        assert!(d <= Duration::from_secs(1));
        let data = drain();
        assert!(data.events.is_empty());
        assert!(data.counters.is_empty());
    }

    #[test]
    fn spans_counters_and_instants_roundtrip() {
        let _g = locked();
        enable(ClockMode::Real);
        {
            let mut s = span("test", "outer");
            s.arg("k", "v");
            instant_args("test", "mark", vec![("why", "because".into())]);
            counter("t.count", 2);
            counter("t.count", 3);
            let _ = s.finish();
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 2);
        // Ordinal order: the span opened before the instant.
        assert_eq!(data.events[0].name, "outer");
        assert_eq!(data.events[0].args, vec![("k", "v".to_string())]);
        assert!(matches!(data.events[0].kind, EventKind::Span { .. }));
        assert_eq!(data.events[1].name, "mark");
        assert!(matches!(data.events[1].kind, EventKind::Instant));
        assert_eq!(data.counters.get("t.count"), Some(&5));
        assert!(validate_chrome_trace(&data.to_chrome_json()).unwrap() >= 3);
    }

    #[test]
    fn reserved_ordinals_sort_deterministically() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let base = reserve(4);
        // Record out of order, as racing workers would.
        for idx in [2u64, 0, 3, 1] {
            record_span_at(
                "test",
                format!("unit-{idx}"),
                base + idx,
                0,
                Duration::from_micros(7),
                Vec::new(),
            );
        }
        disable();
        let data = drain();
        let names: Vec<&str> = data.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["unit-0", "unit-1", "unit-2", "unit-3"]);
        // Virtual clock: export is a pure function of ordinals.
        let json = data.to_chrome_json();
        assert!(json.contains("\"ts\":0,\"dur\":5"));
        assert!(json.contains(&format!("\"ts\":{}", (base + 3) * 10)));
        assert!(!json.contains("\"tid\":1"));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = locked();
        enable(ClockMode::Virtual);
        for _ in 0..(RING_CAPACITY + 10) {
            instant("test", "spam");
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), RING_CAPACITY);
        assert_eq!(data.dropped, 10);
    }

    #[test]
    fn json_escaping_and_validation() {
        let _g = locked();
        enable(ClockMode::Virtual);
        instant_args(
            "test",
            "weird \"name\"\twith\nescapes\u{1}",
            vec![("path", "a\\b".into())],
        );
        disable();
        let data = drain();
        let json = data.to_chrome_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
        assert!(json.contains("weird \\\"name\\\"\\twith\\nescapes\\u0001"));
        assert!(json.contains("a\\\\b"));
    }

    #[test]
    fn metrics_and_stats_render() {
        let _g = locked();
        enable(ClockMode::Virtual);
        counter("m.counter", 41);
        counter("m.counter", 1);
        let _ = span("mcat", "thing").finish();
        disable();
        let data = drain();
        let metrics = data.to_metrics_json();
        assert!(metrics.contains("\"m.counter\":42"));
        assert!(metrics.contains("\"mcat\":{\"count\":1,\"total_us\":5}"));
        assert!(metrics.contains("\"clock\":\"virtual\""));
        let stats = data.render_stats();
        assert!(stats.contains("m.counter"));
        assert!(stats.contains("mcat"));
    }

    #[test]
    fn reenable_resets_ordinals_and_buffers() {
        let _g = locked();
        enable(ClockMode::Virtual);
        instant("test", "first-session");
        enable(ClockMode::Virtual);
        instant("test", "second-session");
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].name, "second-session");
        assert_eq!(data.events[0].ordinal, 0);
    }

    #[test]
    fn worker_threads_fold_into_one_drain() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let base = reserve(8);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                scope.spawn(move || {
                    record_span_at(
                        "test",
                        format!("w{w}"),
                        base + w,
                        0,
                        Duration::from_micros(1),
                        Vec::new(),
                    );
                    counter("t.worker", 1);
                });
            }
        });
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.counters.get("t.worker"), Some(&4));
        // Virtual export never leaks real lane ids.
        assert!(!data.to_chrome_json().contains("\"tid\":2"));
    }
}
