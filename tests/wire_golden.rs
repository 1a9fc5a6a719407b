//! Golden wire bytes. `lpat_core::wire` took over the byte cursors and
//! the `[len][crc32][payload]` record framing that `serve::proto`,
//! `trace` and the store each used to spell out; these hashes were
//! captured from those hand-rolled encoders (the commit before `wire`
//! landed), so "formats unchanged" is proved against that implementation
//! and not only by today's encoders round-tripping with today's decoders.
//!
//! FNV-1a 64 of: an LPRQ request payload, an LPRS `Ok` and an LPRS `Err`
//! payload, an LPTB trace blob, and an LPFR flight dump file.

use std::collections::BTreeMap;

use lpat::core::hash::fnv1a64;
use lpat::core::trace::{
    decode_wire_trace, encode_wire_trace, read_flight, write_flight_dump, ClockMode, EventKind,
    TraceData, TraceEvent,
};
use lpat::serve::{
    decode_request, decode_response, encode_request, encode_response, ErrClass, Op, Request,
    Response, FLAG_OPT, FLAG_TIERED,
};

#[track_caller]
fn pin(what: &str, bytes: &[u8], len: usize, hash: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, hash),
        "{what}: {} bytes, fnv1a64 {:#018x}",
        bytes.len(),
        fnv1a64(bytes)
    );
}

fn events() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            ordinal: 3,
            cat: "serve",
            name: "request".into(),
            kind: EventKind::Span { dur_us: 1_250 },
            ts_us: 40,
            lane: 0,
            args: vec![("rid", "0x00000000d15c0bee".into()), ("op", "run".into())],
        },
        TraceEvent {
            ordinal: 4,
            cat: "vm",
            name: "tier-up: fib \u{2192} native".into(),
            kind: EventKind::Instant,
            ts_us: 55,
            lane: 2,
            args: vec![],
        },
        TraceEvent {
            ordinal: u64::MAX,
            cat: "store",
            name: String::new(),
            kind: EventKind::Span { dur_us: 0 },
            ts_us: u64::MAX - 1,
            lane: u32::MAX,
            args: vec![("file", "a.prof".into())],
        },
    ]
}

#[test]
fn request_and_response_payloads_are_byte_stable() {
    let req = Request {
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
    };
    let bytes = encode_request(&req);
    pin("LPRQ", &bytes, 94, 0xa088454ed7cd4b39);
    assert_eq!(decode_request(&bytes).unwrap(), req);

    let ok = Response::Ok {
        exit: -7,
        insts: u64::MAX,
        cache_hit: true,
        output: b"hello\n".to_vec(),
        module: vec![1, 2, 3],
    };
    let bytes = encode_response(&ok);
    pin("LPRS ok", &bytes, 37, 0x98005c8971c678d6);
    assert_eq!(decode_response(&bytes).unwrap(), ok);

    let err = Response::err(ErrClass::Trap, "trap (DivByZero): in @main");
    let bytes = encode_response(&err);
    pin("LPRS err", &bytes, 42, 0xe63d23c77fb1e3ec);
    assert_eq!(decode_response(&bytes).unwrap(), err);
}

#[test]
fn trace_blob_is_byte_stable() {
    let data = TraceData {
        events: events(),
        counters: BTreeMap::from([("vm.insts", 123_456_789), ("store.flushes", 2)]),
        dropped: 5,
        clock: ClockMode::Virtual,
        foreign: Vec::new(),
    };
    let bytes = encode_wire_trace(&data, 4242);
    pin("LPTB", &bytes, 260, 0x340f1e217fce9933);
    let back = decode_wire_trace(&bytes).unwrap();
    assert_eq!((back.lane.pid, back.lane.dropped), (4242, 5));
    assert_eq!(back.lane.events.len(), 3);
    assert_eq!(back.lane.events[1].name, "tier-up: fib \u{2192} native");
    assert_eq!(
        back.counters,
        vec![("store.flushes", 2), ("vm.insts", 123_456_789)]
    );
}

#[test]
fn flight_dump_is_byte_stable() {
    let path = std::env::temp_dir().join(format!("lpat-wire-golden-{}.flight", std::process::id()));
    write_flight_dump(&path, &events()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let back = read_flight(&path);
    let _ = std::fs::remove_file(&path);
    pin("LPFR", &bytes, 225, 0xedf0b45c48a867e2);
    let back = back.unwrap();
    assert_eq!(back.len(), 3);
    assert_eq!(back[0].args, events()[0].args);
    assert_eq!(back[2].ordinal, u64::MAX);
}
