//! Scaling guard for the two stages of the static compiler that were once
//! superlinear: `simplifycfg`'s chain merge (a whole-arena rewrite per
//! merged block) and the size-model register allocator (a CFG rescan per
//! SSA value). A function of N straight-line blocks inside one loop is
//! the shape link-time inlining produces; quadrupling N must not cost
//! anywhere near sixteen times as much.
//!
//! Timing test: only with `--features slow-tests`, and only meaningful in
//! release (`cargo test --release --features slow-tests --test compile_scaling`).

#![cfg(feature = "slow-tests")]

use std::fmt::Write;
use std::time::{Duration, Instant};

use lpat::codegen::{compile_module, Cisc32, Risc32};
use lpat::core::Module;

/// `e → h → w (a self-loop) → b1 → … → bN → h | x`: `%i` and `%s` are
/// carried around the outer loop and across the inner one's back edge,
/// every `bK` defines one value, and `b1 … bN` is one mergeable chain.
fn chain_in_a_loop(n: usize) -> Module {
    let mut src = format!(
        "define int @main(int %n) {{
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b{n} ]
  %s = phi int [ 0, %e ], [ %v{n}, %b{n} ]
  br label %w
w:
  %j = phi int [ 0, %h ], [ %j2, %w ]
  %j2 = add int %j, 1
  %cw = setlt int %j2, %i
  br bool %cw, label %w, label %b1
b1:
  %v1 = add int %s, %j2
"
    );
    for k in 2..=n {
        let p = k - 1;
        write!(
            src,
            "  br label %b{k}\nb{k}:\n  %v{k} = add int %v{p}, %i\n"
        )
        .unwrap();
    }
    write!(
        src,
        "  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %h, label %x
x:
  ret int %v{n}
}}
"
    )
    .unwrap();
    let m = lpat::asm::parse_module("scaling", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Best of three: `simplifycfg` to a fixed point on a copy, then both size
/// models on the unmerged function (N blocks, N values).
fn cost(n: usize) -> Duration {
    let m = chain_in_a_loop(n);
    let fid = m.func_by_name("main").unwrap();
    (0..3)
        .map(|_| {
            let mut merged = m.clone();
            let t = Instant::now();
            while lpat::transform::simplifycfg::simplify_cfg_function(&mut merged, fid) != (0, 0, 0)
            {
            }
            let (cisc, risc) = (compile_module(&m, &Cisc32), compile_module(&m, &Risc32));
            let took = t.elapsed();
            assert!(merged.func(fid).num_blocks() <= 5, "the chain merged");
            assert!(cisc.code_size > 2 * n && risc.code_size > 4 * n);
            took
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_blocks_costs_less_than_eight_times_the_time() {
    let (small, large) = (cost(2_000), cost(8_000));
    assert!(
        large < 8 * small,
        "N = 2000: {small:?}, N = 8000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
