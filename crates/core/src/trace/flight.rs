//! Events as bytes. Cross-process trace shipping (the `LPTB` blob: binary
//! event encoding, and absorption into the collecting session as foreign
//! pid lanes) and the crash flight recorder (the `LPFR` file: a bounded
//! ring of recent events, spilled incrementally as checksummed records
//! that survive `SIGKILL`). Both decode through [`crate::wire`].

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use super::{
    counter_keyed, enabled, global, reserve, EventKind, ForeignLane, TraceData, TraceEvent,
};
use crate::wire::{
    file_header, file_records, push_record, records, Cursor, HeaderError, FILE_HEADER_LEN,
};

/// Intern a string, returning a `&'static str`. Backs decoded event
/// categories, arg keys, and counter names, which [`TraceEvent`] holds
/// as `&'static str`. The leak is bounded by the vocabulary of names the
/// workspace actually records — a fixed set, not per-event data.
fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let m = INTERNED.get_or_init(|| Mutex::new(HashMap::new()));
    let mut m = m.lock().unwrap();
    if let Some(&v) = m.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    m.insert(s.to_owned(), leaked);
    leaked
}

fn push_str16(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let n = b.len().min(u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&b[..n]);
}

fn encode_event(e: &TraceEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&e.ordinal.to_le_bytes());
    let (kind, dur_us) = match e.kind {
        EventKind::Span { dur_us } => (0u8, dur_us),
        EventKind::Instant => (1u8, 0),
    };
    out.push(kind);
    out.extend_from_slice(&dur_us.to_le_bytes());
    out.extend_from_slice(&e.ts_us.to_le_bytes());
    out.extend_from_slice(&e.lane.to_le_bytes());
    push_str16(out, e.cat);
    push_str16(out, &e.name);
    let nargs = e.args.len().min(u16::MAX as usize);
    out.extend_from_slice(&(nargs as u16).to_le_bytes());
    for (k, v) in e.args.iter().take(nargs) {
        push_str16(out, k);
        push_str16(out, v);
    }
}

fn decode_event_at(c: &mut Cursor) -> Result<TraceEvent, String> {
    let ordinal = c.u64("event ordinal")?;
    let kind = c.u8("event kind")?;
    let dur_us = c.u64("event dur")?;
    let ts_us = c.u64("event ts")?;
    let lane = c.u32("event lane")?;
    let cat = intern(&c.str16("event cat")?);
    let name = c.str16("event name")?;
    let nargs = c.u16("event nargs")?;
    let mut args = Vec::with_capacity(usize::from(nargs).min(64));
    for _ in 0..nargs {
        let k = intern(&c.str16("arg key")?);
        let v = c.str16("arg value")?;
        args.push((k, v));
    }
    let kind = match kind {
        0 => EventKind::Span { dur_us },
        1 => EventKind::Instant,
        k => return Err(format!("bad event kind {k}")),
    };
    Ok(TraceEvent {
        ordinal,
        cat,
        name,
        kind,
        ts_us,
        lane,
        args,
    })
}

/// Magic prefix of a serialized trace buffer ([`encode_wire_trace`]).
pub const WIRE_TRACE_MAGIC: [u8; 4] = *b"LPTB";
const WIRE_TRACE_VERSION: u16 = 1;

/// A decoded wire trace buffer ([`decode_wire_trace`]): one process's
/// events plus its counter sums.
pub struct WireTrace {
    /// The remote events as a lane (ordinals still in the remote
    /// session's space until [`absorb_foreign`] re-bases them).
    pub lane: ForeignLane,
    /// Counter sums the remote session folded.
    pub counters: Vec<(&'static str, u64)>,
}

/// Serialize a drained session for shipping to a collecting process.
/// Layout: `"LPTB"` magic, `u16` version, `u32` pid, `u64` dropped,
/// `u32` event count + events, `u16` counter count + `(name, u64)`
/// pairs; all integers little-endian, strings as `u16` length + UTF-8.
/// `data.foreign` lanes are not nested (workers have none).
pub fn encode_wire_trace(data: &TraceData, pid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.events.len() * 64);
    out.extend_from_slice(&WIRE_TRACE_MAGIC);
    out.extend_from_slice(&WIRE_TRACE_VERSION.to_le_bytes());
    out.extend_from_slice(&pid.to_le_bytes());
    out.extend_from_slice(&data.dropped.to_le_bytes());
    let n_events = data.events.len().min(u32::MAX as usize);
    out.extend_from_slice(&(n_events as u32).to_le_bytes());
    for e in data.events.iter().take(n_events) {
        encode_event(e, &mut out);
    }
    let n_counters = data.counters.len().min(u16::MAX as usize);
    out.extend_from_slice(&(n_counters as u16).to_le_bytes());
    for (k, v) in data.counters.iter().take(n_counters) {
        push_str16(&mut out, k);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a buffer produced by [`encode_wire_trace`]. Total: every
/// malformed input yields `Err`, never a panic.
///
/// # Errors
///
/// A description of the first framing/bounds violation.
pub fn decode_wire_trace(bytes: &[u8]) -> Result<WireTrace, String> {
    let mut c = Cursor::new(bytes);
    if c.take(4, "magic")? != WIRE_TRACE_MAGIC {
        return Err("bad wire-trace magic".into());
    }
    let ver = c.u16("version")?;
    if ver != WIRE_TRACE_VERSION {
        return Err(format!("unsupported wire-trace version {ver}"));
    }
    let pid = c.u32("pid")?;
    let dropped = c.u64("dropped")?;
    let n_events = c.u32("event count")?;
    let mut events = Vec::with_capacity((n_events as usize).min(4096));
    for _ in 0..n_events {
        events.push(decode_event_at(&mut c)?);
    }
    let n_counters = c.u16("counter count")?;
    let mut counters = Vec::with_capacity(usize::from(n_counters).min(256));
    for _ in 0..n_counters {
        let k = intern(&c.str16("counter name")?);
        let v = c.u64("counter value")?;
        counters.push((k, v));
    }
    c.finish("wire trace")?;
    Ok(WireTrace {
        lane: ForeignLane {
            pid,
            events,
            dropped,
        },
        counters,
    })
}

/// Absorb a remote process's serialized trace buffer into the current
/// session: its events are re-ordered by remote ordinal, re-based onto a
/// reserved block of local ordinals (so merged export order is
/// deterministic), shifted by `ts_base_us` (the local time the remote
/// work started), and kept as a [`ForeignLane`]; its counters fold into
/// the session counters. No-op (but still validated) when tracing is
/// off. Returns the number of absorbed events.
///
/// # Errors
///
/// Propagates [`decode_wire_trace`] errors.
pub fn absorb_foreign(bytes: &[u8], ts_base_us: u64) -> Result<usize, String> {
    let mut wt = decode_wire_trace(bytes)?;
    if !enabled() {
        return Ok(0);
    }
    wt.lane.events.sort_by_key(|e| e.ordinal);
    let base = reserve(wt.lane.events.len() as u64);
    for (i, e) in wt.lane.events.iter_mut().enumerate() {
        e.ordinal = base + i as u64;
        e.ts_us = e.ts_us.saturating_add(ts_base_us);
    }
    for (k, v) in &wt.counters {
        counter_keyed(k, *v);
    }
    let n = wt.lane.events.len();
    if n > 0 || wt.lane.dropped > 0 {
        global().foreign.lock().unwrap().push(wt.lane);
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Crash flight recorder: a bounded ring of recent events, spilled
// incrementally to a checksummed file that survives SIGKILL.
// ---------------------------------------------------------------------------

/// Magic prefix of a flight spill/dump file.
pub const FLIGHT_MAGIC: [u8; 4] = *b"LPFR";
const FLIGHT_VERSION: u16 = 1;
/// Rewrite the spill file from the ring once it grows past this size, so
/// a long-lived worker's spill stays bounded.
const FLIGHT_REWRITE_BYTES: u64 = 64 * 1024;

/// A bounded ring of the most recent trace events, spilled incrementally
/// to a file. Install with [`install_flight_recorder`]; every event any
/// record site pushes is then appended as a [`crate::wire`] record after
/// a `"LPFR"` [`file_header`] — the shape of the store's files. Plain
/// `write(2)` per
/// event — the data reaches the page cache, so it survives `SIGKILL`
/// and `abort(3)`; only a machine crash can lose the tail. A supervisor
/// salvages the file post-mortem with [`read_flight`], which keeps the
/// longest checksum-valid prefix and drops a torn tail record.
pub struct FlightRecorder {
    path: PathBuf,
    file: std::fs::File,
    ring: VecDeque<Vec<u8>>,
    capacity: usize,
    spilled_bytes: u64,
}

impl FlightRecorder {
    /// Create (truncating) the spill file at `path`, keeping at most
    /// `capacity` events in the ring.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file header.
    pub fn create(path: &Path, capacity: usize) -> std::io::Result<FlightRecorder> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&file_header(FLIGHT_MAGIC, FLIGHT_VERSION))?;
        Ok(FlightRecorder {
            path: path.to_path_buf(),
            file,
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            spilled_bytes: FILE_HEADER_LEN as u64,
        })
    }

    /// The spill file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_record(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(payload.len() + 8);
        push_record(&mut framed, payload);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.spilled_bytes += framed.len() as u64;
        Ok(())
    }

    fn record(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        let mut payload = Vec::new();
        encode_event(ev, &mut payload);
        self.ring.push_back(payload.clone());
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
        if self.spilled_bytes >= FLIGHT_REWRITE_BYTES {
            self.rewrite()
        } else {
            self.append_record(&payload)
        }
    }

    /// Rewrite the spill from the in-memory ring: truncate, re-write the
    /// header, and append the ring's records.
    fn rewrite(&mut self) -> std::io::Result<()> {
        use std::io::Seek as _;
        self.file.rewind()?;
        self.file.set_len(0)?;
        self.file
            .write_all(&file_header(FLIGHT_MAGIC, FLIGHT_VERSION))?;
        self.spilled_bytes = FILE_HEADER_LEN as u64;
        let ring: Vec<Vec<u8>> = self.ring.iter().cloned().collect();
        for payload in &ring {
            self.append_record(payload)?;
        }
        Ok(())
    }
}

static FLIGHT_ON: AtomicBool = AtomicBool::new(false);

fn flight_global() -> &'static Mutex<Option<FlightRecorder>> {
    static F: OnceLock<Mutex<Option<FlightRecorder>>> = OnceLock::new();
    F.get_or_init(|| Mutex::new(None))
}

/// Install `r` as the process-wide flight recorder: from now on every
/// recorded trace event is also spilled to its file (sessions come and
/// go via [`super::enable`]; the flight ring persists across them).
pub fn install_flight_recorder(r: FlightRecorder) {
    *flight_global().lock().unwrap() = Some(r);
    FLIGHT_ON.store(true, Ordering::SeqCst);
}

/// Remove and return the installed flight recorder, if any.
pub fn uninstall_flight_recorder() -> Option<FlightRecorder> {
    FLIGHT_ON.store(false, Ordering::SeqCst);
    flight_global().lock().unwrap().take()
}

pub(super) fn flight_observe(ev: &TraceEvent) {
    if !FLIGHT_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(r) = flight_global().lock().unwrap().as_mut() {
        // Spill errors must never take down the recording process; the
        // flight record is best-effort by design.
        let _ = r.record(ev);
    }
}

/// Parse a flight spill/dump file: validate the `"LPFR"` header, then
/// decode records while their CRCs hold, dropping a torn or corrupt
/// tail. A process killed mid-`write(2)` therefore still yields every
/// fully-written event.
///
/// # Errors
///
/// Unreadable file, bad magic, or unsupported version. Torn/corrupt
/// record tails are not errors — the valid prefix is returned.
pub fn read_flight(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spilled = file_records(&bytes, FLIGHT_MAGIC, FLIGHT_VERSION).map_err(|e| match e {
        HeaderError::Version(ver) => {
            format!("{}: unsupported flight version {ver}", path.display())
        }
        _ => format!("{}: not a flight record (bad magic)", path.display()),
    })?;
    let mut out = Vec::new();
    for payload in records(spilled, u32::MAX) {
        let mut c = Cursor::new(payload);
        match decode_event_at(&mut c) {
            Ok(ev) if c.finish("event").is_ok() => out.push(ev),
            _ => break,
        }
    }
    Ok(out)
}

/// Write `events` as a standalone flight dump at `path`, in the same
/// checksummed format [`read_flight`] parses. Used by the supervisor to
/// preserve a dead worker's salvaged ring next to its diagnostics.
///
/// # Errors
///
/// I/O errors writing the file.
pub fn write_flight_dump(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let mut out = file_header(FLIGHT_MAGIC, FLIGHT_VERSION).to_vec();
    let mut payload = Vec::new();
    for ev in events {
        payload.clear();
        encode_event(ev, &mut payload);
        push_record(&mut out, &payload);
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use super::*;

    #[test]
    fn wire_trace_roundtrips_and_rejects_garbage() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let mut sp = span("serve.worker", "request");
        sp.arg("rid", "0000000000000001");
        drop(sp);
        instant("vm", "trap");
        counter("vm.insts", 42);
        disable();
        let data = drain();
        let bytes = encode_wire_trace(&data, 4242);
        let wt = decode_wire_trace(&bytes).expect("roundtrip");
        assert_eq!(wt.lane.pid, 4242);
        assert_eq!(wt.lane.events.len(), 2);
        assert_eq!(wt.lane.events[0].name, "request");
        assert_eq!(wt.lane.events[0].cat, "serve.worker");
        assert_eq!(
            wt.lane.events[0].args,
            vec![("rid", "0000000000000001".to_string())]
        );
        assert!(wt.counters.contains(&("vm.insts", 42)));
        // Total decoding: truncation at every offset errors, never panics.
        for cut in 0..bytes.len() {
            assert!(decode_wire_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_wire_trace(&bad).is_err());
    }

    #[test]
    fn absorbed_foreign_lanes_export_as_worker_pids() {
        let _g = locked();
        // "Worker" session: record two events, ship them.
        enable(ClockMode::Virtual);
        let _ = span("serve.worker", "request").finish();
        instant("vm", "ret");
        disable();
        let shipped = encode_wire_trace(&drain(), 777);

        // "Daemon" session: local span, then absorb the worker buffer.
        enable(ClockMode::Virtual);
        let _ = span("serve", "dispatch").finish();
        let n = absorb_foreign(&shipped, 0).expect("absorb");
        assert_eq!(n, 2);
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.foreign.len(), 1);
        assert_eq!(data.foreign[0].pid, 777);
        // Foreign ordinals were re-based after the local span's ordinal.
        assert!(data.foreign[0].events[0].ordinal > data.events[0].ordinal);
        let json = data.to_chrome_json();
        validate_chrome_trace(&json).expect("merged trace schema");
        // Virtual clock: daemon lane pid 1, worker lane pid 2, labeled.
        assert!(json.contains("\"pid\":1"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"name\":\"worker\""), "{json}");
        // Worker counters folded into the session counters.
        // (vm.insts was not recorded here, but spans totals include the
        // foreign request span.)
        let totals = data.span_totals();
        assert_eq!(totals.get("serve.worker"), Some(&(1, 5)));
        // Byte determinism: same inputs, same merged bytes.
        enable(ClockMode::Virtual);
        let _ = span("serve", "dispatch").finish();
        absorb_foreign(&shipped, 0).unwrap();
        disable();
        assert_eq!(drain().to_chrome_json(), json);
    }

    #[test]
    fn flight_recorder_spills_salvageable_checksummed_events() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("lpat-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("slot-0.spill");
        install_flight_recorder(FlightRecorder::create(&spill, 8).unwrap());
        enable(ClockMode::Virtual);
        for i in 0..20 {
            instant_args(
                "serve.worker",
                format!("ev-{i}"),
                vec![("i", i.to_string())],
            );
        }
        disable();
        let _ = drain();
        uninstall_flight_recorder();
        let events = read_flight(&spill).expect("salvage");
        // The spill holds at least the ring's worth of recent events and
        // ends with the last one recorded.
        assert!(events.len() >= 8, "only {} events salvaged", events.len());
        assert_eq!(events.last().unwrap().name, "ev-19");
        // A torn tail (partial record) is dropped, the prefix survives.
        let mut bytes = std::fs::read(&spill).unwrap();
        let clean = events.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3, 4, 0xAB]); // bogus half record
        let torn = dir.join("torn.spill");
        std::fs::write(&torn, &bytes).unwrap();
        assert_eq!(read_flight(&torn).unwrap().len(), clean);
        // Corrupting a payload byte truncates the salvage at that record.
        let mut corrupt = std::fs::read(&spill).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let cpath = dir.join("corrupt.spill");
        std::fs::write(&cpath, &corrupt).unwrap();
        let salvaged = read_flight(&cpath).unwrap();
        assert!(salvaged.len() < clean, "corruption not detected");
        // A dump written from salvaged events reads back identically.
        let dump = dir.join("crash.flight");
        write_flight_dump(&dump, &events).unwrap();
        let reread = read_flight(&dump).unwrap();
        assert_eq!(reread.len(), events.len());
        assert_eq!(reread.last().unwrap().name, "ev-19");
        // Bad magic is an error, not an empty success.
        let junk = dir.join("junk.spill");
        std::fs::write(&junk, b"not a flight file").unwrap();
        assert!(read_flight(&junk).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
