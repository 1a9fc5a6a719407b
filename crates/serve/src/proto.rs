//! The length-framed wire protocol between `lpatc remote` and `lpatd`.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by exactly that many payload bytes. The payload begins with a
//! four-byte magic (`LPRQ` for requests, `LPRS` for responses) and a
//! `u16` protocol version, so a peer speaking anything else is rejected
//! before any lengths inside the payload are trusted.
//!
//! Decoding is **total**: [`decode_request`] and [`decode_response`]
//! return a structured [`ProtoError`] on *any* input — truncated frames,
//! hostile lengths, junk magic, unknown ops, trailing garbage — and never
//! panic. The frame reader refuses lengths above the connection's
//! configured maximum before allocating, so a hostile 4 GB length field
//! costs four bytes of reading, not four gigabytes of memory. The server
//! additionally arms the `serve.decode` fault site here so CI can prove a
//! crashing or lying decoder is survived.
//!
//! The encoding is deliberately boring: fixed-width little-endian
//! integers, length-prefixed byte strings (`u8` length for short names,
//! `u32` for payloads), no compression, no self-description. Robustness
//! reviews beat wire-format cleverness for a protocol whose peers we
//! both control.

use std::io::{Read, Write};
use std::time::Duration;

use lpat_core::fault::FaultAction;
use lpat_core::faultpoint;
use lpat_core::wire::{Cursor, Malformed};

/// Protocol version spoken by this build. A peer with a different version
/// is rejected at decode with [`ProtoError::Version`].
///
/// History: v1 was the original request/response protocol; v2 added the
/// distributed-tracing context (`request_id` + `parent_span`) to
/// requests. Versioning is strict equality — both peers ship from this
/// repository, so a skewed pair should fail loudly, not negotiate.
pub const PROTO_VERSION: u16 = 2;

/// Request-payload magic.
pub const MAGIC_REQUEST: [u8; 4] = *b"LPRQ";

/// Response-payload magic.
pub const MAGIC_RESPONSE: [u8; 4] = *b"LPRS";

/// Default per-frame size cap (16 MiB). Connections reject larger frames
/// before allocating.
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;

/// What the client wants done with the module it sent.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; empty success response.
    Ping,
    /// Optimize the module and return its bytecode.
    Compile,
    /// Execute the module and return output + exit code.
    Run,
    /// Offline profile-guided reoptimization from the server's store.
    Reopt,
    /// Server counters as a small JSON document.
    Stats,
}

impl Op {
    fn to_byte(self) -> u8 {
        match self {
            Op::Ping => 0,
            Op::Compile => 1,
            Op::Run => 2,
            Op::Reopt => 3,
            Op::Stats => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Op> {
        match b {
            0 => Some(Op::Ping),
            1 => Some(Op::Compile),
            2 => Some(Op::Run),
            3 => Some(Op::Reopt),
            4 => Some(Op::Stats),
            _ => None,
        }
    }

    /// Stable lower-case name (trace args, stats tables).
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Compile => "compile",
            Op::Run => "run",
            Op::Reopt => "reopt",
            Op::Stats => "stats",
        }
    }
}

/// Request flag: run the optimization pipeline first (`-O`).
pub const FLAG_OPT: u8 = 1 << 0;
/// Request flag, ignored: every `Run` is tiered. The bit stays assigned
/// because clients still set it (`lpbench`'s `serve-mixed` does on every
/// request), and setting it changes nothing.
pub const FLAG_TIERED: u8 = 1 << 1;
/// Request flag: the module payload is miniC source, not bytecode/text IR.
pub const FLAG_MINIC: u8 = 1 << 2;

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// Tenant identity the server accounts quotas against. The protocol
    /// trusts it (peers are authenticated by socket ownership, not by this
    /// field); an empty tenant is accounted as `"anon"`.
    pub tenant: String,
    /// Module name (diagnostics and store labels).
    pub name: String,
    /// Instruction budget for `Run` (0 = server default). Values above the
    /// tenant's fuel quota are rejected at admission.
    pub fuel: u64,
    /// Wall-clock deadline for the whole request in milliseconds
    /// (0 = server default).
    pub deadline_ms: u32,
    /// Distributed-trace request id originated by the client (0 = unset;
    /// the daemon then assigns one). All daemon and worker spans for this
    /// request carry it as a `rid` argument so one id threads the merged
    /// trace end to end.
    pub request_id: u64,
    /// Ordinal of the client-side span this request was issued under
    /// (0 = none). Purely observability metadata; the server echoes it
    /// into its spans and never interprets it.
    pub parent_span: u64,
    /// Scripted `read_int` input for `Run`.
    pub inputs: Vec<i64>,
    /// The module payload: bytecode (`LPAT` magic), textual IR, or miniC
    /// source (with [`FLAG_MINIC`]).
    pub module: Vec<u8>,
}

impl Request {
    /// A minimal request for `op` with empty payload and defaults.
    pub fn new(op: Op) -> Request {
        Request {
            op,
            flags: 0,
            tenant: String::new(),
            name: "module".into(),
            fuel: 0,
            deadline_ms: 0,
            request_id: 0,
            parent_span: 0,
            inputs: Vec::new(),
            module: Vec::new(),
        }
    }
}

/// Machine-stable failure class carried in error responses. The client
/// uses it to decide retry behavior; tests assert on it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrClass {
    /// The request frame or payload did not decode.
    Decode,
    /// The module failed to parse or verify.
    BadModule,
    /// A per-tenant quota (bytes, fuel) rejected the request at admission.
    Quota,
    /// The request's wall-clock deadline expired.
    Deadline,
    /// The worker panicked mid-request and was isolated.
    Panic,
    /// The program trapped at runtime (including fuel exhaustion).
    Trap,
    /// The operation is not available (e.g. `reopt` with no store).
    Unsupported,
    /// Anything else that went wrong server-side.
    Internal,
    /// The worker *process* serving the request died (abort, stack
    /// smash, OOM kill, SIGKILL). The request's fate is unknown; the
    /// daemon itself kept serving. Retrying the same payload may trip
    /// the crash-loop breaker.
    Crashed,
    /// The payload is denylisted: it crashed workers K times within the
    /// breaker window and is refused without being run.
    Quarantined,
}

impl ErrClass {
    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            ErrClass::Decode => "decode",
            ErrClass::BadModule => "bad-module",
            ErrClass::Quota => "quota",
            ErrClass::Deadline => "deadline",
            ErrClass::Panic => "panic",
            ErrClass::Trap => "trap",
            ErrClass::Unsupported => "unsupported",
            ErrClass::Internal => "internal",
            ErrClass::Crashed => "crashed",
            ErrClass::Quarantined => "quarantined",
        }
    }

    fn from_name(s: &str) -> Option<ErrClass> {
        Some(match s {
            "decode" => ErrClass::Decode,
            "bad-module" => ErrClass::BadModule,
            "quota" => ErrClass::Quota,
            "deadline" => ErrClass::Deadline,
            "panic" => ErrClass::Panic,
            "trap" => ErrClass::Trap,
            "unsupported" => ErrClass::Unsupported,
            "internal" => ErrClass::Internal,
            "crashed" => ErrClass::Crashed,
            "quarantined" => ErrClass::Quarantined,
            _ => return None,
        })
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The request completed.
    Ok {
        /// Program exit code (`Run`; 0 otherwise).
        exit: i32,
        /// Instructions executed (`Run`; 0 otherwise).
        insts: u64,
        /// Whether a reoptimized module from the store served this
        /// request. Not whether the daemon had loaded the payload before:
        /// its module cache is counted in `Stats` (`module_cache_*`).
        cache_hit: bool,
        /// Program output (`Run`) or report text (`Reopt`, `Stats`).
        output: Vec<u8>,
        /// Result module bytecode (`Compile`, `Reopt`); empty otherwise.
        module: Vec<u8>,
    },
    /// The request failed; the server keeps serving.
    Err {
        /// Failure class.
        class: ErrClass,
        /// Human-readable detail.
        message: String,
    },
    /// The server shed this request under load; retry after the hint.
    Busy {
        /// Backoff hint in milliseconds.
        retry_after_ms: u32,
        /// What was saturated (`queue`, `connections`, `tenant-inflight`).
        reason: String,
    },
}

impl Response {
    /// An empty success.
    pub fn ok() -> Response {
        Response::Ok {
            exit: 0,
            insts: 0,
            cache_hit: false,
            output: Vec::new(),
            module: Vec::new(),
        }
    }

    /// An error response.
    pub fn err(class: ErrClass, message: impl Into<String>) -> Response {
        Response::Err {
            class,
            message: message.into(),
        }
    }

    /// Stable status label (`ok`, `err:<class>`, `busy`) for trace args.
    pub fn status_label(&self) -> String {
        match self {
            Response::Ok { .. } => "ok".into(),
            Response::Err { class, .. } => format!("err:{}", class.name()),
            Response::Busy { .. } => "busy".into(),
        }
    }
}

/// Why a frame or payload failed to decode or move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The read timeout expired at a frame boundary (idle connection —
    /// benign; the server re-checks shutdown and keeps waiting).
    IdleTimeout,
    /// An I/O failure mid-frame.
    Io(String),
    /// A frame length of zero or above the configured maximum.
    FrameLength {
        /// The declared length.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// Structurally invalid payload (bad magic, truncation, junk).
    Malformed(String),
    /// The peer speaks a different protocol version.
    Version(u16),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::IdleTimeout => write!(f, "idle read timeout"),
            ProtoError::Io(m) => write!(f, "I/O error: {m}"),
            ProtoError::FrameLength { len, max } => {
                write!(f, "frame length {len} outside 1..={max}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
            ProtoError::Version(v) => {
                write!(f, "protocol version {v}, this build speaks {PROTO_VERSION}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// -- framing --------------------------------------------------------------

/// Read one frame: the `u32` length, validated against `max`, then the
/// payload. A clean EOF before the first length byte is [`ProtoError::Closed`];
/// EOF anywhere later is a truncation ([`ProtoError::Io`]).
///
/// # Errors
///
/// Any framing violation; the connection should be dropped on
/// [`ProtoError::Io`] / [`ProtoError::FrameLength`] because the stream can
/// no longer be resynchronized.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Vec<u8>, ProtoError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Io("EOF inside frame length".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(ProtoError::IdleTimeout)
            }
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > max {
        return Err(ProtoError::FrameLength { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| ProtoError::Io(format!("EOF inside frame body: {e}")))?;
    Ok(payload)
}

/// Write one frame.
///
/// # Errors
///
/// [`ProtoError::Io`] on write failure, [`ProtoError::FrameLength`] if the
/// payload exceeds `u32::MAX` (never for messages we build).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtoError::FrameLength {
        len: u32::MAX,
        max: u32::MAX,
    })?;
    w.write_all(&len.to_le_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| ProtoError::Io(e.to_string()))
}

// -- payload helpers ------------------------------------------------------

impl From<Malformed> for ProtoError {
    fn from(e: Malformed) -> ProtoError {
        ProtoError::Malformed(e.0)
    }
}

fn push_str8(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let n = b.len().min(255);
    out.push(n as u8);
    out.extend_from_slice(&b[..n]);
}

fn push_bytes32(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

// -- request --------------------------------------------------------------

/// Serialize a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + req.module.len());
    out.extend_from_slice(&MAGIC_REQUEST);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.push(req.op.to_byte());
    out.push(req.flags);
    push_str8(&mut out, &req.tenant);
    push_str8(&mut out, &req.name);
    out.extend_from_slice(&req.fuel.to_le_bytes());
    out.extend_from_slice(&req.deadline_ms.to_le_bytes());
    out.extend_from_slice(&req.request_id.to_le_bytes());
    out.extend_from_slice(&req.parent_span.to_le_bytes());
    out.extend_from_slice(&(req.inputs.len().min(u16::MAX as usize) as u16).to_le_bytes());
    for v in req.inputs.iter().take(u16::MAX as usize) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    push_bytes32(&mut out, &req.module);
    out
}

/// Decode a request payload. Total: every hostile input maps to a
/// [`ProtoError`]. Carries the `serve.decode` fault site — an injected
/// `panic` genuinely panics here (the connection handler's `catch_unwind`
/// must survive it), while `corrupt`/`io` surface as decode errors.
///
/// # Errors
///
/// [`ProtoError::Malformed`] / [`ProtoError::Version`] as classified.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    match faultpoint!("serve.decode") {
        Some(FaultAction::Panic) => panic!("injected fault at site 'serve.decode'"),
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(_) => {
            return Err(ProtoError::Malformed(
                "injected fault at site 'serve.decode'".into(),
            ))
        }
        None => {}
    }
    let mut c = Cursor::new(payload);
    let magic = c.take(4, "magic")?;
    if magic != MAGIC_REQUEST {
        return Err(ProtoError::Malformed(format!(
            "bad request magic {magic:02x?}"
        )));
    }
    let version = c.u16("version")?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version(version));
    }
    let op = Op::from_byte(c.u8("op")?)
        .ok_or_else(|| ProtoError::Malformed("unknown op byte".into()))?;
    let flags = c.u8("flags")?;
    let tenant = c.str8("tenant")?;
    let name = c.str8("name")?;
    let fuel = c.u64("fuel")?;
    let deadline_ms = c.u32("deadline")?;
    let request_id = c.u64("request id")?;
    let parent_span = c.u64("parent span")?;
    let n_inputs = c.u16("input count")? as usize;
    let mut inputs = Vec::with_capacity(n_inputs.min(1024));
    for _ in 0..n_inputs {
        inputs.push(c.i64("input value")?);
    }
    let module = c.bytes32("module payload")?;
    c.finish("request")?;
    Ok(Request {
        op,
        flags,
        tenant,
        name,
        fuel,
        deadline_ms,
        request_id,
        parent_span,
        inputs,
        module,
    })
}

// -- response -------------------------------------------------------------

/// Serialize a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&MAGIC_RESPONSE);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    match resp {
        Response::Ok {
            exit,
            insts,
            cache_hit,
            output,
            module,
        } => {
            out.push(0);
            out.extend_from_slice(&exit.to_le_bytes());
            out.extend_from_slice(&insts.to_le_bytes());
            out.push(u8::from(*cache_hit));
            push_bytes32(&mut out, output);
            push_bytes32(&mut out, module);
        }
        Response::Err { class, message } => {
            out.push(1);
            push_str8(&mut out, class.name());
            push_bytes32(&mut out, message.as_bytes());
        }
        Response::Busy {
            retry_after_ms,
            reason,
        } => {
            out.push(2);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            push_str8(&mut out, reason);
        }
    }
    out
}

/// Decode a response payload. Total, like [`decode_request`].
///
/// # Errors
///
/// [`ProtoError`] as classified.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let magic = c.take(4, "magic")?;
    if magic != MAGIC_RESPONSE {
        return Err(ProtoError::Malformed(format!(
            "bad response magic {magic:02x?}"
        )));
    }
    let version = c.u16("version")?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version(version));
    }
    let resp = match c.u8("status")? {
        0 => {
            let exit = c.u32("exit code")? as i32;
            let insts = c.u64("instruction count")?;
            let cache_hit = c.u8("cache flag")? != 0;
            let output = c.bytes32("output")?;
            let module = c.bytes32("module")?;
            Response::Ok {
                exit,
                insts,
                cache_hit,
                output,
                module,
            }
        }
        1 => {
            let class_name = c.str8("error class")?;
            let class = ErrClass::from_name(&class_name).ok_or_else(|| {
                ProtoError::Malformed(format!("unknown error class '{class_name}'"))
            })?;
            let message = String::from_utf8_lossy(&c.bytes32("error message")?).into_owned();
            Response::Err { class, message }
        }
        2 => {
            let retry_after_ms = c.u32("retry hint")?;
            let reason = c.str8("busy reason")?;
            Response::Busy {
                retry_after_ms,
                reason,
            }
        }
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown status byte {other}"
            )))
        }
    };
    c.finish("response")?;
    Ok(resp)
}

// -- addresses ------------------------------------------------------------

/// A parsed listen/connect address: `tcp:HOST:PORT` (or bare
/// `HOST:PORT`), or `unix:/path/to.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// TCP socket address string (`host:port`).
    Tcp(String),
    /// Unix domain socket path.
    Unix(std::path::PathBuf),
}

impl Addr {
    /// Parse an address string.
    ///
    /// # Errors
    ///
    /// A human-readable message on empty/unsupported forms.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Addr::Unix(path.into()));
        }
        let hostport = s.strip_prefix("tcp:").unwrap_or(s);
        if hostport.is_empty() || !hostport.contains(':') {
            return Err(format!(
                "bad address '{s}' (expected tcp:HOST:PORT or unix:/path)"
            ));
        }
        Ok(Addr::Tcp(hostport.to_string()))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Deterministic exponential backoff schedule shared by the client's
/// `Busy` retry loop and documented for third-party clients: attempt `n`
/// (0-based) waits `base << min(n, 6)`, capped at `cap`.
pub fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    let d = base * (1u32 << attempt.min(6));
    d.min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            op: Op::Run,
            flags: FLAG_OPT | FLAG_TIERED,
            tenant: "tenant-a".into(),
            name: "app".into(),
            fuel: 1_000_000,
            deadline_ms: 2_500,
            request_id: 0xD15C_0BEE,
            parent_span: 7,
            inputs: vec![-1, 0, 42],
            module: b"LPAT-not-really".to_vec(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let empty = Request::new(Op::Ping);
        assert_eq!(decode_request(&encode_request(&empty)).unwrap(), empty);
    }

    #[test]
    fn response_roundtrip() {
        let cases = [
            Response::Ok {
                exit: -7,
                insts: u64::MAX,
                cache_hit: true,
                output: b"hello\n".to_vec(),
                module: vec![1, 2, 3],
            },
            Response::err(ErrClass::Trap, "trap (DivByZero): ..."),
            Response::Busy {
                retry_after_ms: 40,
                reason: "queue".into(),
            },
        ];
        for r in cases {
            assert_eq!(decode_response(&encode_response(&r)).unwrap(), r);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_malformed_never_panics() {
        let full = encode_request(&sample_request());
        for cut in 0..full.len() {
            assert!(
                decode_request(&full[..cut]).is_err(),
                "decoded a truncated request at {cut} bytes"
            );
        }
        let full = encode_response(&Response::err(ErrClass::Internal, "x"));
        for cut in 0..full.len() {
            assert!(decode_response(&full[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_and_bad_magic_rejected() {
        let mut buf = encode_request(&Request::new(Op::Ping));
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(ProtoError::Malformed(_))
        ));
        let mut bad = encode_request(&Request::new(Op::Ping));
        bad[0] = b'X';
        assert!(decode_request(&bad).is_err());
        let mut ver = encode_request(&Request::new(Op::Ping));
        ver[4] = 0xFF;
        assert!(matches!(decode_request(&ver), Err(ProtoError::Version(_))));
    }

    #[test]
    fn frame_reader_rejects_hostile_lengths_before_allocating() {
        // Zero length.
        let mut z: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut z, 1024),
            Err(ProtoError::FrameLength { len: 0, .. })
        ));
        // 4 GB declared length: rejected from the 4 length bytes alone.
        let mut huge: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut huge, 1024),
            Err(ProtoError::FrameLength { .. })
        ));
        // Clean close vs truncation.
        let mut eof: &[u8] = &[];
        assert_eq!(read_frame(&mut eof, 1024), Err(ProtoError::Closed));
        let mut torn: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(matches!(
            read_frame(&mut torn, 1024),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"payload");
    }

    #[test]
    fn addr_parsing() {
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7878").unwrap(),
            Addr::Tcp("127.0.0.1:7878".into())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:0").unwrap(),
            Addr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            Addr::parse("unix:/tmp/l.sock").unwrap(),
            Addr::Unix("/tmp/l.sock".into())
        );
        assert!(Addr::parse("").is_err());
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("justahost").is_err());
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let b = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        assert_eq!(backoff_delay(b, 0, cap), Duration::from_millis(10));
        assert_eq!(backoff_delay(b, 3, cap), Duration::from_millis(80));
        assert_eq!(backoff_delay(b, 20, cap), cap);
    }
}
