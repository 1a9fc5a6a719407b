//! Golden compile output: for each of the fifteen `lpat_workloads::suite`
//! programs, at scale 0 and at scale 60 (sixty extra worker functions for
//! the optimizer to chew through, which link-time IPO then deletes),
//! after the `-O` pipeline and again after the link-time pipeline: FNV-1a
//! 64 of `bytecode::write_module`, and the module's risc32 code size. The
//! cisc32 size is left out because an earlier allocator broke its ties by
//! hash-map iteration order and had no single value.
//!
//! The constants come from the commit after 2091778, the one where
//! compile time, link time and the reoptimizer run one scalar stage
//! (`reassociate` joins the link-time cleanup and its trailing `dce`
//! goes; at compile time the second `instsimplify` moves after GVN): only
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
    ("164.gzip", [(0xed2941cb51a4ba4c, 660), (0x9a3a2a74b437fffa, 608)], [(0xfa1f692f0a932b04, 10272), (0x620658447c3ae07e, 608)]),
    ("175.vpr", [(0xa58e9de78a8bc0e4, 464), (0xee31669f69cc65df, 440)], [(0x782f80404bc39c8c, 10076), (0x920a6a779c6ecd44, 440)]),
    ("176.gcc", [(0x4b9757c0356cb053, 584), (0x9ba17514fec8d0bd, 472)], [(0x74ff634ad57cc3e5, 10196), (0xd2897d3777665fc3, 472)]),
    ("177.mesa", [(0x329453096483cc85, 640), (0xb46466b7f9415784, 480)], [(0xf5393941168b9658, 10252), (0x78d5f26e2b058715, 480)]),
    ("179.art", [(0x7f8035d5fa3fa507, 424), (0x3541d8768e6be85c, 408)], [(0x97a069f2cfd29961, 10036), (0x68d3515eff4bc78b, 408)]),
    ("181.mcf", [(0xd0d5e67beca8a58b, 736), (0x629de70c0767c22e, 684)], [(0x75851ee23bc92b82, 10348), (0x4e5207d834895a44, 684)]),
    ("183.equake", [(0xfeda288e4320842c, 736), (0x7751ace1e173223f, 728)], [(0x23e0636c2d3ea755, 10348), (0xa8eff163bf8a4724, 728)]),
    ("186.crafty", [(0xc61213e60ac0cd76, 548), (0xe74a5def42755567, 512)], [(0x03beda9de874b489, 10160), (0x8d25b8ebc2aef2bc, 512)]),
    ("188.ammp", [(0x4136f649b3b5b750, 720), (0xc3517bd55fc44205, 644)], [(0x41e3f2a49d0712c5, 10332), (0x953df9fa3b5881e5, 644)]),
    ("197.parser", [(0x4aa33d731ad23f07, 500), (0x67820c0571ccebc9, 448)], [(0x8319cc1953d6f29e, 10112), (0x48d159ef49d2d115, 448)]),
    ("253.perlbmk", [(0xe1c06b78448743cf, 936), (0x170e559538cc41ef, 712)], [(0x13d1f6068ee6ca2a, 10548), (0x5af9e052cf2eefda, 712)]),
    ("254.gap", [(0xa43d2ff223e5699c, 764), (0x468506e4de463137, 660)], [(0xf56c052eea03eaa5, 10376), (0x2a48be56e6d6bc2b, 660)]),
    ("255.vortex", [(0x5b3aeafe94c6dc27, 548), (0x73a454ca7c116024, 568)], [(0x2684871c9c6bea25, 10160), (0xdaa6a779630394ae, 568)]),
    ("256.bzip2", [(0x20c05532f8595144, 712), (0x52e039e9ca059287, 636)], [(0xb5b7a49200929602, 10324), (0x72ca95fa429393b8, 636)]),
    ("300.twolf", [(0x7af1063382e47d58, 684), (0x8413497728e7a22f, 840)], [(0x34d517320e23daf1, 10296), (0x8b6e497140a8f00b, 840)]),
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
