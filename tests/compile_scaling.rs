//! Scaling guard for the two stages of the static compiler that were once
//! superlinear: `simplifycfg`'s chain merge (a whole-arena rewrite per
//! merged block) and the size-model register allocator (a CFG rescan per
//! SSA value). A function of N straight-line blocks inside one loop is
//! the shape link-time inlining produces; quadrupling N must not cost
//! anywhere near sixteen times as much. The same holds for `simplifycfg`'s
//! forwarding of empty blocks on a ladder of N nested `if`s without
//! `else`, whose empty joins form one run that every level enters.
//!
//! Timing test: only with `--features slow-tests`, and only meaningful in
//! release (`cargo test --release --features slow-tests --test compile_scaling`).

#![cfg(feature = "slow-tests")]

use std::fmt::Write;
use std::sync::Mutex;
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
            while lpat::transform::simplifycfg::simplify_cfg_function(&mut merged, fid)
                != (0, 0, 0, 0)
            {}
            let (cisc, risc) = (compile_module(&m, &Cisc32), compile_module(&m, &Risc32));
            let took = t.elapsed();
            assert!(merged.func(fid).num_blocks() <= 5, "the chain merged");
            assert!(cisc.code_size > 2 * n && risc.code_size > 4 * n);
            took
        })
        .min()
        .unwrap()
}

/// Held by each timing test, so that the test threads do not time each
/// other.
static TIMING: Mutex<()> = Mutex::new(());

#[test]
fn four_times_the_blocks_costs_less_than_eight_times_the_time() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (cost(2_000), cost(8_000));
    assert!(
        large < 8 * small,
        "N = 2000: {small:?}, N = 8000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// `if (x != 0) { if (x < 1) { … if (x < N) { g = 1; } … } }` after stack
/// promotion: `cK` tests, the empty `fK` is the `else` the front end
/// always emits and the empty `jK` joins level K into level K-1, so every
/// `jK` has two predecessors and none merges. The joins are laid out
/// innermost first, the order that would retarget the outer tests once
/// per level if blocks were decided in layout order.
fn if_ladder(n: usize) -> Module {
    let mut src = String::from(
        "@g = global int 0\ndefine int @main(int %x) {\ne:\n  %k0 = seteq int %x, 0\n  br bool %k0, label %x, label %c1\n",
    );
    for k in 1..=n {
        let then = if k == n {
            "t".into()
        } else {
            format!("c{}", k + 1)
        };
        write!(
            src,
            "c{k}:\n  %k{k} = setlt int %x, {k}\n  br bool %k{k}, label %{then}, label %f{k}\n"
        )
        .unwrap();
    }
    write!(src, "t:\n  store int 1, int* @g\n  br label %j{n}\n").unwrap();
    for k in 1..=n {
        write!(src, "f{k}:\n  br label %j{k}\n").unwrap();
    }
    for k in (1..=n).rev() {
        let out = if k == 1 {
            "x".into()
        } else {
            format!("j{}", k - 1)
        };
        write!(src, "j{k}:\n  br label %{out}\n").unwrap();
    }
    src += "x:\n  ret int 0\n}\n";
    let m = lpat::asm::parse_module("ladder", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Best of three: `simplifycfg` to a fixed point on a copy of the ladder.
fn ladder_cost(n: usize) -> Duration {
    let m = if_ladder(n);
    let fid = m.func_by_name("main").unwrap();
    (0..3)
        .map(|_| {
            let mut m = m.clone();
            let mut forwarded = 0;
            let t = Instant::now();
            loop {
                let round = lpat::transform::simplifycfg::simplify_cfg_function(&mut m, fid);
                forwarded += round.3;
                if round == (0, 0, 0, 0) {
                    break;
                }
            }
            let took = t.elapsed();
            assert_eq!(forwarded, 2 * n, "every else and every join went");
            took
        })
        .min()
        .unwrap()
}

#[test]
fn an_if_ladder_four_times_as_deep_costs_less_than_eight_times_the_time() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (ladder_cost(5_000), ladder_cost(20_000));
    assert!(
        large < 8 * small,
        "N = 5000: {small:?}, N = 20000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
