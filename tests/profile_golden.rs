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
//! every engine. The hashes come from the commit after 70df9ba, where
//! miniC lowers loops rotated and conditions as jumping code and
//! `simplifycfg` forwards empty blocks: the profiled blocks and edges are
//! those of the new loop shape.

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
    ("164.gzip", 0x430913cf4be7f9e7),
    ("175.vpr", 0x1334563ea097fee4),
    ("176.gcc", 0x25263b8b32109992),
    ("177.mesa", 0xcdce1d22d72f8b35),
    ("179.art", 0x1f8599614f3d6209),
    ("181.mcf", 0x5d5e9361fe6c0109),
    ("183.equake", 0x6c8cc360785f9e03),
    ("186.crafty", 0xf06e15324bc16ea6),
    ("188.ammp", 0x43545c80c1072137),
    ("197.parser", 0xfbc9d60b5bd2a528),
    ("253.perlbmk", 0xf1238da23d673706),
    ("254.gap", 0x33967ff02bb859e1),
    ("255.vortex", 0x241b4b7cd3f28642),
    ("256.bzip2", 0x96de43aee1854f2d),
    ("300.twolf", 0x3abdce258e8dfe10),
];

/// Speculated 253.perlbmk: one value, the same bytes under every engine.
const GOLDEN_SPEC_PERLBMK: u64 = 0xd2361bfb4f9f6a9f;

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
