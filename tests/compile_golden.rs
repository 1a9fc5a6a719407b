//! Golden compile output: for each of the fifteen `lpat_workloads::suite`
//! programs, at scale 0 and at scale 60 (sixty extra worker functions for
//! the optimizer to chew through, which link-time IPO then deletes),
//! after the `-O` pipeline and again after the link-time pipeline: FNV-1a
//! 64 of `bytecode::write_module`, and the module's risc32 code size. The
//! cisc32 size is left out because an earlier allocator broke its ties by
//! hash-map iteration order and had no single value.
//!
//! The constants come from the commit after 70df9ba, the one where miniC
//! lowers loops rotated and conditions as jumping code and `simplifycfg`
//! forwards empty blocks. Up to 70df9ba they were those of the
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
    ("164.gzip", [(0x17cde474009ea601, 660), (0xc6509c32a5287708, 612)], [(0x63b5dd65b8d80207, 10272), (0xb3b0ad2b2649e7ef, 612)]),
    ("175.vpr", [(0xb7f4f273ba803dfc, 464), (0xb1237d2a6c0c2ea1, 440)], [(0x31db8f40a21ec7e4, 10076), (0x1fa6c65d3055d9b9, 440)]),
    ("176.gcc", [(0x765feb51d624026e, 584), (0xcfad6e10836acb3c, 552)], [(0x29701fd0ce82e74f, 10196), (0xc9d1b4d5a9833723, 552)]),
    ("177.mesa", [(0x68d5fabc1fe0a6e2, 656), (0x3d13c5108adc6a6e, 520)], [(0xc0850c22e944d85d, 10268), (0x78a9787153809c3d, 520)]),
    ("179.art", [(0x6f6ae6e1f5e08c7a, 424), (0x9d6cf0bb36f38532, 408)], [(0x9603c58f6e0b31b3, 10036), (0xc6d5861a165d93f7, 408)]),
    ("181.mcf", [(0xb02bb22bab29bdad, 744), (0xde4e00d758c9115a, 692)], [(0x8de63fdabe737a8e, 10356), (0xb9964ee5b39f109e, 692)]),
    ("183.equake", [(0x2de252eb95ed42a6, 736), (0xb3748bfb513e696d, 748)], [(0x9ae796e5ee790f7a, 10348), (0xe8abe6e208f5f071, 748)]),
    ("186.crafty", [(0xa8f26b659e40b0ca, 548), (0x786f1243168a97f1, 512)], [(0x5ddd3cc70b5a1595, 10160), (0xaa1dee235345388a, 512)]),
    ("188.ammp", [(0x3f8d3ce6976d1122, 752), (0x8646a9bf54adea3d, 676)], [(0xf006d4b220d0d17e, 10364), (0x7bc4da9949b2ca2f, 676)]),
    ("197.parser", [(0x7f16461fa5957546, 500), (0x6252015784e6b8fc, 484)], [(0x3df05f706ace315c, 10112), (0x13c080a8e0fcb006, 484)]),
    ("253.perlbmk", [(0x4a2b0b5f5e007e22, 936), (0xf8d22173df897d1f, 768)], [(0xe79d36dbe6a20551, 10548), (0x8e281d737af5becd, 768)]),
    ("254.gap", [(0x117e6d293fbbc6e5, 768), (0xf0029dd7f1c2679b, 716)], [(0xa4bf6658ec69095d, 10380), (0x71b9107a62ac8b22, 716)]),
    ("255.vortex", [(0x86c39ef399edfe51, 572), (0xc23c1aa67e0629b4, 520)], [(0xf14ade291875ca5b, 10184), (0xca2a1902c04b8a47, 520)]),
    ("256.bzip2", [(0xdfb87be5b51ee8ac, 716), (0x7f441b4f8e15f1e8, 640)], [(0x043ec9dce8b49686, 10328), (0x4a8267f4ff4b87b7, 640)]),
    ("300.twolf", [(0x21afc4095bad78c8, 688), (0x1014e083d4a5f5d0, 844)], [(0xd317baa0ffb6f595, 10300), (0xadada5b68922edb4, 844)]),
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
