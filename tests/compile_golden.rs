//! Golden compile output. `simplifycfg` merges block chains in one sweep
//! and the size-model register allocator works on dense tables; these
//! constants were captured from the implementation that merged one block
//! per CFG rescan and allocated out of hash maps (the commit before the
//! rewrite), so "same output" is proved against that implementation.
//!
//! For each of the fifteen `lpat_workloads::suite` programs, at scale 0
//! and at scale 60 (sixty extra worker functions for the optimizer to
//! chew through, which link-time IPO then deletes), after the `-O`
//! pipeline and again after the link-time pipeline: FNV-1a 64 of
//! `bytecode::write_module`, and the module's risc32 code size. The
//! cisc32 size is left out because the old allocator broke its ties by
//! hash-map iteration order and had no single value.

use lpat::codegen::{compile_module, Risc32};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bytecode hash and risc32 code bytes after `-O`, then after link time.
type Row = [(u64, usize); 2];

fn row(mut m: lpat::core::Module) -> Row {
    let snap = |m: &lpat::core::Module| {
        m.verify().unwrap_or_else(|e| panic!("{}: {e:?}", m.name));
        (
            fnv1a64(&lpat::bytecode::write_module(m)),
            compile_module(m, &Risc32).code_size,
        )
    };
    lpat::transform::function_pipeline().run(&mut m);
    let after_o = snap(&m);
    lpat::transform::link_time_pipeline().run(&mut m);
    [after_o, snap(&m)]
}

/// `(name, row at scale 0, row at scale 60)`, in suite order.
#[rustfmt::skip]
const GOLDEN: [(&str, Row, Row); 15] = [
    ("164.gzip", [(0xf6f2948facc1e4bf, 516), (0x0b2eafb0c7ab940a, 496)], [(0x057477a35261f3b8, 9888), (0xfa2d06d91710b31b, 496)]),
    ("175.vpr", [(0x1203633a80af1b00, 456), (0xbcd5a7c220a1679f, 428)], [(0xddb49a84a981eef4, 9828), (0x182a0d5592c3ad20, 428)]),
    ("176.gcc", [(0xdb25a8923e68893e, 580), (0x43f6ba04b8f947d4, 552)], [(0x2617ceb2a48b55ae, 9952), (0x33aa099c5641ae99, 552)]),
    ("177.mesa", [(0x26f13c0df97aae0c, 580), (0x111a529025bb0b2f, 516)], [(0x8b3b542adcb1ea18, 9952), (0x442d95617ab56d7c, 516)]),
    ("179.art", [(0x9ef7d11d924db568, 428), (0x5c39bd1347635d62, 412)], [(0xa02a32dddc8c7c3b, 9800), (0x567f19432c9bbbdb, 412)]),
    ("181.mcf", [(0xa409cba10f4c7ba0, 696), (0xc34df98b1bb3ec8e, 652)], [(0xc1fd1dd89140ac7f, 10068), (0xbbcc047531b0cf8d, 652)]),
    ("183.equake", [(0x8c8ca7914b7b3a30, 748), (0xdf315658630dd196, 740)], [(0x2fafade9dd65ba31, 10120), (0xbf642e9f482426d0, 740)]),
    ("186.crafty", [(0x38ea1e02b86891b0, 504), (0xb4a1ba0f11e20b97, 468)], [(0x1258e2d60dc2ca2b, 9876), (0xc629863d71b9aab5, 468)]),
    ("188.ammp", [(0xb2c8e867bbaccd68, 708), (0xc8e89105bdb28e6d, 628)], [(0x628267f13584372a, 10080), (0x4b313d87c8326a0d, 628)]),
    ("197.parser", [(0x568cbd926b3b1356, 504), (0xfd1628884f57f8a0, 492)], [(0x77399fb42429cb8d, 9876), (0x2b17f4bf019daabc, 492)]),
    ("253.perlbmk", [(0x6fc9c9bd887d6e40, 900), (0xcd83c865a18e3577, 740)], [(0x9a1b9ea8d802863a, 10272), (0x62893a2dbea2fe0d, 740)]),
    ("254.gap", [(0x6f7ebb3522fe6144, 720), (0xdb790da16ff6ba03, 672)], [(0xc5d61dd59b6a4b72, 10092), (0x193f7d33db1269f2, 672)]),
    ("255.vortex", [(0x2252531a1c9269b2, 604), (0x97995419b73ce086, 560)], [(0xc34ee9275d91452f, 9976), (0xe55b5a8a632190d3, 560)]),
    ("256.bzip2", [(0xd8fbde3e568c7afd, 668), (0xb63ad1f74b74fd87, 664)], [(0x3e14731507a016f6, 10040), (0x6cb1ad6c5debb074, 664)]),
    ("300.twolf", [(0xe991ae2e745ef64a, 664), (0xaefffca3ec9e9c4d, 808)], [(0x04e75f5225e6f861, 10036), (0xccc1f108dbee777d, 808)]),
];

#[test]
fn optimized_bytecode_and_risc32_size_match_the_old_implementation() {
    let small = lpat::workloads::compile_suite(0);
    let large = lpat::workloads::compile_suite(60);
    let got: Vec<(&str, Row, Row)> = small
        .into_iter()
        .zip(large)
        .map(|((name, m0), (_, m60))| (name, row(m0), row(m60)))
        .collect();
    let show = |r: &Row| {
        format!(
            "[({:#018x}, {}), ({:#018x}, {})]",
            r[0].0, r[0].1, r[1].0, r[1].1
        )
    };
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    ({n:?}, {}, {}),\n", show(a), show(b)))
        .collect();
    assert!(
        got == GOLDEN,
        "compile output changed; computed table:\n{table}"
    );
}
