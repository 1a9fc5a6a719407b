//! Golden compile output: for each of the fifteen `lpat_workloads::suite`
//! programs, at scale 0 and at scale 60 (sixty extra worker functions for
//! the optimizer to chew through, which link-time IPO then deletes),
//! after the `-O` pipeline and again after the link-time pipeline: FNV-1a
//! 64 of `bytecode::write_module`, and the module's risc32 code size. The
//! cisc32 size is left out because an earlier allocator broke its ties by
//! hash-map iteration order and had no single value.
//!
//! The constants come from the commit after 338e022, the one where the
//! bytecode numbers its constants by use (most used first) instead of in
//! pool order: every bytecode hash moved and no risc32 size did, and each
//! module read back from its bytes prints the text it did before. From
//! the commit after 2091778, the one where
//! compile time, link time and the reoptimizer run one scalar stage
//! (`reassociate` joins the link-time cleanup and its trailing `dce`
//! goes; at compile time the second `instsimplify` moves after GVN), up
//! to 338e022 they were that commit's: only
//! 254.gap's two rows after link time moved, its risc32 size 664 → 660
//! bytes. From the commit after d621658, the one where the size models
//! take their registers from the `fast` back end's allocator (exact live
//! ranges instead of intervals stretched over every back edge), up to
//! 2091778 they were that commit's: the bytecode did not move, and of the
//! risc32 sizes only 183.equake's after link time did, 760 → 728 bytes.
//! From the commit after 8008f9e, the one where miniC
//! builds SSA itself (scalar locals never become `alloca`s), up to d621658
//! they were that commit's: the risc32
//! sizes did not move; the bytecode did, with φs and their operands in
//! another order. From the commit
//! after 631818c (GVN answers a load across blocks, loops and stores that
//! cannot touch it, and `licm` hoists invariant expressions into existing
//! preheaders in both pipelines) up to 8008f9e they were that commit's.
//! From the commit after 70df9ba (miniC lowers loops
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
    ("164.gzip", [(0x0a787d603fd52e84, 660), (0x77da3c516b40fe02, 608)], [(0xbb37ee50641c6fbd, 10272), (0x427727e7c468a3ae, 608)]),
    ("175.vpr", [(0xcb860c3757232976, 464), (0xa4907b034f44e8de, 440)], [(0xb0c8f36773df8628, 10076), (0xca6dc71c5a6bbb70, 440)]),
    ("176.gcc", [(0x87d3b4cac81f539a, 584), (0xbba260937efab2db, 472)], [(0xa6b842a7fd1e711d, 10196), (0x8392554cc899fed1, 472)]),
    ("177.mesa", [(0xa52f9f095cd3b327, 640), (0x76410d103b1ddb8f, 480)], [(0x72343c6386027904, 10252), (0x14d8432fe6737ccd, 480)]),
    ("179.art", [(0x6515f99a540ef0ab, 424), (0x4d891bf5df184d73, 408)], [(0xfba9a4cb939d347e, 10036), (0x022f066a2431a4ae, 408)]),
    ("181.mcf", [(0x422e31c0052f1a75, 736), (0x600caac1cc4a9020, 684)], [(0x9eadc8c4c228b8ba, 10348), (0xb5887ffe908d4da3, 684)]),
    ("183.equake", [(0x21614f7965aea8f8, 736), (0x9a52b439739ca487, 728)], [(0x94aa9965b1b44199, 10348), (0xd85c47b2855b358e, 728)]),
    ("186.crafty", [(0x3261fbc0ba398546, 548), (0xb104b92e0ea99c44, 512)], [(0x816b99cb2baf892c, 10160), (0xbf25d78079fb8754, 512)]),
    ("188.ammp", [(0xc7101648fbe58b34, 720), (0xeb2d9b828103137a, 644)], [(0x13b8422bf86f5b37, 10332), (0x17f8bc50cda5cba0, 644)]),
    ("197.parser", [(0x1cb1b0092a39f6f0, 500), (0xc7c91bf722241551, 448)], [(0x6caa699bc88253ec, 10112), (0x296a3ace4c10d3d3, 448)]),
    ("253.perlbmk", [(0x42e876e243d8b488, 936), (0xab4a34047c91fa2c, 712)], [(0xb8d8af892c0272e8, 10548), (0x96b155bea03769be, 712)]),
    ("254.gap", [(0xb1cbfae294f1b8fb, 764), (0x602489876e654489, 660)], [(0xc174bb66faa1b509, 10376), (0xd159d63069b5a7d4, 660)]),
    ("255.vortex", [(0xaed11cc4772607f7, 548), (0xd5c92b9f3f92ff9c, 568)], [(0x84e5fda04166aede, 10160), (0xf09d0f2bf66874f6, 568)]),
    ("256.bzip2", [(0x43c2ab5ef3e5b224, 712), (0x6df30d8499055145, 636)], [(0xf7cc1961ad57a150, 10324), (0x5758d20de153d170, 636)]),
    ("300.twolf", [(0x304a3e491f38e0e2, 684), (0xcd08adbf7eb66b40, 840)], [(0x12e0aa938a755eda, 10296), (0xf9d5791587eb144f, 840)]),
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
