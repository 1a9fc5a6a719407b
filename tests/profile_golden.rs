//! Golden profile bytes. The engines record into dense per-function
//! counter slabs and `Vm::profile` is materialised from them when a run
//! returns; these hashes were captured from the implementation that
//! recorded straight into `ProfileData`'s maps (the commit before the
//! slabs landed), so "same profile" is proved against that implementation
//! and not only across today's engines.
//!
//! FNV-1a 64 of `ProfileData::to_bytes()` — the exact bytes the lifelong
//! store persists — for each of the fifteen `lpat_workloads::suite`
//! programs under the reference interpreter, plus the one suite program
//! that carries a live speculation guard (253.perlbmk), speculated, under
//! every engine.

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
    ("164.gzip", 0x0e1f56291a6618c2),
    ("175.vpr", 0x94a6d1f868c35442),
    ("176.gcc", 0xc2812669c3004f18),
    ("177.mesa", 0x7ab9104f8c049d7c),
    ("179.art", 0x13536f51b82366b9),
    ("181.mcf", 0x6e006b33ae50e529),
    ("183.equake", 0x53a7e52b643eab20),
    ("186.crafty", 0xe49f9526661458b7),
    ("188.ammp", 0xf1133b97a1977d78),
    ("197.parser", 0x4424558af06a4965),
    ("253.perlbmk", 0xe341469acc3ac9bf),
    ("254.gap", 0x0a2633fd048a110e),
    ("255.vortex", 0x43689b0385264a52),
    ("256.bzip2", 0x70b66c8356ce308f),
    ("300.twolf", 0x86ae08a5a9326271),
];

/// Speculated 253.perlbmk: one value, because the old implementation
/// already produced the same bytes under every engine.
const GOLDEN_SPEC_PERLBMK: u64 = 0xf42cf185da467e48;

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
