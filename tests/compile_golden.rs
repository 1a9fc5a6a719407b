//! Golden compile output: for each of the fifteen `lpat_workloads::suite`
//! programs, at scale 0 and at scale 60 (sixty extra worker functions for
//! the optimizer to chew through, which link-time IPO then deletes),
//! after the `-O` pipeline and again after the link-time pipeline: FNV-1a
//! 64 of `bytecode::write_module`, and the module's risc32 code size. The
//! cisc32 size is left out because an earlier allocator broke its ties by
//! hash-map iteration order and had no single value.
//!
//! The constants come from the commit after 631818c, the one where GVN
//! answers a load across blocks, loops and stores that cannot touch it,
//! and `licm` hoists invariant expressions into existing preheaders in
//! both pipelines. From the commit after 70df9ba (miniC lowers loops
//! rotated and conditions as jumping code, `simplifycfg` forwards empty
//! blocks) up to 631818c they were that commit's; before it, those of the
//! implementation that merged one block per CFG rescan and allocated out
//! of hash maps, against which the one-sweep `simplifycfg` and the
//! dense-table allocator were proved to give the same output.

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
    ("164.gzip", [(0x17cde474009ea601, 660), (0xade3ef2aa2b3e4ba, 608)], [(0x63b5dd65b8d80207, 10272), (0x5df6ad38f9e80e11, 608)]),
    ("175.vpr", [(0xb7f4f273ba803dfc, 464), (0xb1237d2a6c0c2ea1, 440)], [(0x31db8f40a21ec7e4, 10076), (0x1fa6c65d3055d9b9, 440)]),
    ("176.gcc", [(0x765feb51d624026e, 584), (0x6dd278aaa781a827, 472)], [(0x29701fd0ce82e74f, 10196), (0x474b7ed0696a0d79, 472)]),
    ("177.mesa", [(0x445c769e48555524, 640), (0x6187a5a249f1b665, 480)], [(0x1c8ae9d17cb356eb, 10252), (0x22491114d03e5b2a, 480)]),
    ("179.art", [(0x6f6ae6e1f5e08c7a, 424), (0x9d6cf0bb36f38532, 408)], [(0x9603c58f6e0b31b3, 10036), (0xc6d5861a165d93f7, 408)]),
    ("181.mcf", [(0x7017fee83eee02a1, 736), (0xb043fe579500db4a, 684)], [(0xa8de7369dec30cb0, 10348), (0xc56e95c0de4d715c, 684)]),
    ("183.equake", [(0x59e5a28e11e777d3, 736), (0x8f3b50dceff6d438, 760)], [(0x1c9597f0ea1742a5, 10348), (0xa8eff163bf8a4724, 760)]),
    ("186.crafty", [(0xa8f26b659e40b0ca, 548), (0x786f1243168a97f1, 512)], [(0x5ddd3cc70b5a1595, 10160), (0xaa1dee235345388a, 512)]),
    ("188.ammp", [(0x559e46be08f76c8b, 720), (0x1bbb247a4f4676fd, 644)], [(0x3f15f2c7a12f6550, 10332), (0x0e893de3889e6675, 644)]),
    ("197.parser", [(0x7f16461fa5957546, 500), (0x9774e96e0a17a3f9, 448)], [(0x3df05f706ace315c, 10112), (0xee572eedd9c1a283, 448)]),
    ("253.perlbmk", [(0x4a2b0b5f5e007e22, 936), (0xa9aea5093dccb0c2, 712)], [(0xe79d36dbe6a20551, 10548), (0x239f511f8b434d89, 712)]),
    ("254.gap", [(0xd0570c5997fe51fd, 764), (0xbe42e5957dce7e4e, 664)], [(0x2110c7948de72491, 10376), (0x1af0d9f5f4e09707, 664)]),
    ("255.vortex", [(0xfb04e2ce814ae6c4, 548), (0x1d55de6fc3f9e5dc, 568)], [(0xe0149874a09c7ef6, 10160), (0xe01baa1e08ef809e, 568)]),
    ("256.bzip2", [(0xba7fdc1fbf12ce8c, 712), (0x14e1b49b357ea3d7, 636)], [(0x5df62a9e5616755a, 10324), (0x7eb93886899fcc08, 636)]),
    ("300.twolf", [(0xee52dac39c113060, 684), (0xb263e48f93f82d47, 840)], [(0xf1df4773674dde29, 10296), (0x6842fa8f11aa1d33, 840)]),
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
