//! Golden profile bytes. The engines record into dense per-function
//! counter slabs and `Vm::profile` is materialised from them when a run
//! returns; "same profile" was first proved against the implementation
//! that recorded straight into `ProfileData`'s maps (the commit before the
//! slabs landed), and is held here across every engine.
//!
//! FNV-1a 64 of `ProfileData::to_bytes()` — the exact bytes the lifelong
//! store persists — for each of the fifteen `lpat_workloads::suite`
//! programs under the reference interpreter, plus the one suite program
//! that carries a live speculation guard (253.perlbmk), speculated, under
//! every engine. The hashes come from the commit after 8008f9e, where
//! miniC builds SSA itself: the profiled blocks and edges are unchanged,
//! but call sites are keyed by instruction, and no `load` or `store` of a
//! scalar local numbers among them any more. Before it they were those of
//! the commit after 70df9ba, where miniC lowers loops rotated and
//! conditions as jumping code and `simplifycfg` forwards empty blocks.

use std::rc::Rc;

use lpat::vm::{ProfileData, Vm, VmOptions};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn profile_of(
    m: &lpat::core::Module,
    engine: &str,
    spec: Option<&Rc<lpat::transform::SpecMap>>,
) -> ProfileData {
    let (tier_up, native_up) = match engine {
        "native" => (0, Some(0)),
        "tiered50" => (50, None),
        _ => (0, None),
    };
    let opts = VmOptions {
        profile: true,
        fuel: Some(20_000_000),
        tier_up,
        native_up,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).expect("vm init");
    if let Some(map) = spec {
        vm.install_speculation(map.clone(), map.len() as u64, 0);
    }
    match engine {
        "interp" => vm.run_main(),
        "jit" => vm.run_main_jit(),
        _ => vm.run_main_tiered(),
    }
    .unwrap_or_else(|e| panic!("{engine}: {e}"));
    std::mem::take(&mut vm.profile)
}

/// Interpreter profile of each suite program, in suite order.
const GOLDEN: [(&str, u64); 15] = [
    ("164.gzip", 0x257268b929bdf841),
    ("175.vpr", 0x735625261be3dbf3),
    ("176.gcc", 0xf70c5b4508b8f7a4),
    ("177.mesa", 0x05daf5f8f0836846),
    ("179.art", 0x8a17c721e2744d5c),
    ("181.mcf", 0x8f6dd9961e29d1f0),
    ("183.equake", 0xf55cfabf2b5d2c29),
    ("186.crafty", 0x3096d415fe9d1cf1),
    ("188.ammp", 0x8fa36a3cc004bf1a),
    ("197.parser", 0x89fa6bef953712a0),
    ("253.perlbmk", 0xa77159a42e567e4b),
    ("254.gap", 0x8690fb67f62b9b9f),
    ("255.vortex", 0xc7cb6369cc0263be),
    ("256.bzip2", 0x91e629e7faa23e6f),
    ("300.twolf", 0x1c57e53cbc875e3d),
];

/// Speculated 253.perlbmk: one value, the same bytes under every engine.
const GOLDEN_SPEC_PERLBMK: u64 = 0xddd21f691edbfa0d;

#[test]
fn profile_bytes_match_the_map_recording_implementation() {
    let suite = lpat::workloads::compile_suite(0);
    assert_eq!(suite.len(), GOLDEN.len());
    for ((name, m), (golden_name, golden)) in suite.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let plain = profile_of(m, "interp", None);
        let got = fnv1a64(&plain.to_bytes());
        assert_eq!(got, golden, "{name}: profile bytes hash to {got:#018x}");
        if *name != "253.perlbmk" {
            continue;
        }
        let mut sm = m.clone();
        let (map, plan) = lpat::transform::speculate::speculate(
            &mut sm,
            &plain.to_spec_profile(),
            &lpat::transform::SpecOptions::default(),
        );
        assert!(plan.emitted() >= 1, "perlbmk no longer speculates");
        sm.verify().expect("speculated module verifies");
        let map = Rc::new(map);
        for engine in ["interp", "jit", "native", "tiered0", "tiered50"] {
            let p = profile_of(&sm, engine, Some(&map));
            assert!(!p.guard_exec_counts.is_empty(), "{engine}: no guard ran");
            let got = fnv1a64(&p.to_bytes());
            assert_eq!(
                got, GOLDEN_SPEC_PERLBMK,
                "speculated {name} under {engine}: profile bytes hash to {got:#018x}"
            );
        }
    }
}
