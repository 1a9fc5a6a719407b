//! Scaling guard for the two stages of the static compiler that were once
//! superlinear: `simplifycfg`'s chain merge (a whole-arena rewrite per
//! merged block) and the size-model register allocator (a CFG rescan per
//! SSA value). A function of N straight-line blocks inside one loop is
//! the shape link-time inlining produces; quadrupling N must not cost
//! anywhere near sixteen times as much. The same holds for `simplifycfg`'s
//! forwarding of empty blocks on a ladder of N nested `if`s without
//! `else`, whose empty joins form one run that every level enters. GVN's
//! load availability and `licm` hold the same bound on a function of N
//! sequential loops, and miniC's SSA construction on a function of N
//! sequential `if`s whose one read of a variable looks it up back through
//! all N joins (the lookup is iterative: no recursion that deep). The
//! `fast` back end's analysis pass (live ranges over the blocks in
//! reverse post-order, then one linear scan) holds it on a straight line
//! of N values and on N / 20 loop nests. `instsimplify` holds it on one
//! block of N dependent folds (it used to sweep the whole function once
//! per fold level), and the inliner on N chained calls to a
//! three-instruction callee (it used to rewrite the whole caller once per
//! inlined site).
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

/// `N` loops one after another, each behind its own preheader: every
/// iteration loads and stores four globals and computes one invariant
/// product. GVN's load availability sees `N` back edges and sixteen
/// `N` memory operations; `licm` visits `N` loops.
fn sequential_loops(n: usize) -> Module {
    let mut src = String::from(
        "@g0 = global int 0\n@g1 = global int 1\n@g2 = global int 2\n@g3 = global int 3\n\
         define int @main(int %n, int %k) {\np0:\n  br label %l1\n",
    );
    for k in 1..=n {
        let next = if k == n {
            "x".to_string()
        } else {
            format!("p{k}")
        };
        write!(
            src,
            "l{k}:
  %i{k} = phi int [ 0, %p{prev} ], [ %i{k}x, %l{k} ]
  %m{k} = mul int %k, {k}
  %a{k} = load int* @g0
  %b{k} = load int* @g1
  %c{k} = load int* @g2
  %d{k} = load int* @g3
  %s{k} = add int %a{k}, %m{k}
  store int %s{k}, int* @g0
  store int %a{k}, int* @g1
  %t{k} = add int %b{k}, %c{k}
  store int %t{k}, int* @g2
  store int %d{k}, int* @g3
  %i{k}x = add int %i{k}, 1
  %c{k}x = setlt int %i{k}x, %n
  br bool %c{k}x, label %l{k}, label %{next}
",
            prev = k - 1
        )
        .unwrap();
        if k < n {
            write!(src, "p{k}:\n  br label %l{}\n", k + 1).unwrap();
        }
    }
    src += "x:\n  %r = load int* @g0\n  ret int %r\n}\n";
    let m = lpat::asm::parse_module("loops", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Best of three: `gvn` then `licm` on a copy.
fn loops_cost(n: usize) -> Duration {
    let m = sequential_loops(n);
    let fid = m.func_by_name("main").unwrap();
    (0..3)
        .map(|_| {
            let mut m = m.clone();
            let t = Instant::now();
            let reused = lpat::transform::gvn::gvn_function(&mut m, fid);
            let hoisted = lpat::transform::licm::licm_function(&mut m, fid);
            let took = t.elapsed();
            // `@g3` only ever gets its own value stored back, so every loop
            // after the first reuses the first loop's load, and the exit
            // reuses the last store to `@g0`; each loop hoists its product.
            assert_eq!((reused, hoisted), (n, n), "each loop's work was done");
            took
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_loops_cost_less_than_eight_times_the_time() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (loops_cost(1_000), loops_cost(4_000));
    assert!(
        large < 8 * small,
        "N = 1000: {small:?}, N = 4000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// `int main(int x) { int v = 0; if (x < 1) v = 1; … if (x < N) v = N;
/// return v; }`: the one read of `v` walks back through every join.
fn if_sequence(n: usize) -> String {
    let mut src = String::from("int main(int x) {\n    int v = 0;\n");
    for k in 1..=n {
        writeln!(src, "    if (x < {k}) v = {k};").unwrap();
    }
    src += "    return v;\n}\n";
    src
}

/// Best of three: miniC from source to IR, on the test's own thread.
fn ssa_cost(n: usize) -> Duration {
    let src = if_sequence(n);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let m = lpat::minic::compile("ifs", &src).expect("compiles");
            let took = t.elapsed();
            let main = m.func(m.func_by_name("main").unwrap());
            assert_eq!(
                main.num_blocks(),
                3 * n + 1,
                "one test, arm and join per if"
            );
            took
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_joins_cost_less_than_eight_times_the_time() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (ssa_cost(5_000), ssa_cost(20_000));
    assert!(
        large < 8 * small,
        "N = 5000: {small:?}, N = 20000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// A straight line of `n` values, each reading the one before it and the
/// one eight back.
fn straight_line(n: usize) -> String {
    let mut src = String::from("define int @line(int %a) {\ne:\n  %v0 = add int %a, 1\n");
    for k in 1..n {
        let back = if k >= 8 {
            format!("%v{}", k - 8)
        } else {
            "%a".into()
        };
        writeln!(src, "  %v{k} = xor int %v{}, {back}", k - 1).unwrap();
    }
    writeln!(src, "  ret int %v{}\n}}", n - 1).unwrap();
    src
}

/// `n` three-deep loop nests in sequence, about twenty instructions each:
/// every level's counter is live across the levels inside it, and the
/// innermost body stores to `@g`.
fn loop_nests(n: usize) -> String {
    let mut src =
        String::from("@g = global int 0\ndefine void @nests(int %n) {\ne:\n  br label %a0\n");
    for k in 0..n {
        let next = if k + 1 == n {
            "x".to_string()
        } else {
            format!("a{}", k + 1)
        };
        let prev = if k == 0 {
            "e".to_string()
        } else {
            format!("c{}", k - 1)
        };
        write!(
            src,
            "a{k}:
  %i{k} = phi int [ 0, %{prev} ], [ %i{k}n, %c{k} ]
  br label %b{k}
b{k}:
  %j{k} = phi int [ 0, %a{k} ], [ %j{k}n, %l{k} ]
  br label %d{k}
d{k}:
  %m{k} = phi int [ 0, %b{k} ], [ %m{k}n, %d{k} ]
  %p{k} = mul int %i{k}, %j{k}
  %q{k} = add int %p{k}, %m{k}
  %r{k} = xor int %q{k}, %n
  store int %r{k}, int* @g
  %m{k}n = add int %m{k}, 1
  %dc{k} = setlt int %m{k}n, %n
  br bool %dc{k}, label %d{k}, label %l{k}
l{k}:
  %j{k}n = add int %j{k}, 1
  %lc{k} = setlt int %j{k}n, %n
  br bool %lc{k}, label %b{k}, label %c{k}
c{k}:
  %i{k}n = add int %i{k}, 1
  %cc{k} = setlt int %i{k}n, %n
  br bool %cc{k}, label %a{k}, label %{next}
"
        )
        .unwrap();
    }
    src += "x:\n  ret void\n}\n";
    src
}

/// Best of three: `fast`'s translation of the straight line of `n`
/// values and of `n / 20` loop nests (about `n` instructions each), the
/// shapes of a large inlined `main`.
fn translate_cost(n: usize) -> Duration {
    let src = straight_line(n) + &loop_nests(n / 20);
    let m = lpat::asm::parse_module("fast", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    let env = lpat::codegen::fast::FastEnv {
        func_addr: &|f| 0x1000 + 16 * f.index() as u32,
        global_addr: &|i| Some(0x2000 + 64 * i as u32),
        guarded: &|_| false,
    };
    let funcs: Vec<_> = m.funcs().map(|(fid, _)| fid).collect();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for &fid in &funcs {
                let ff = lpat::codegen::fast::translate_fast(&m, fid, &env).expect("translates");
                assert_eq!(ff.n_slots, 0, "no more than 28 values are ever live");
            }
            t.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_code_costs_less_than_eight_times_the_fast_translation() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (translate_cost(3_500), translate_cost(14_000));
    assert!(
        large < 8 * small,
        "N = 3500: {small:?}, N = 14000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// One block holding a chain of `n` dependent folds, `%v{k} = add int
/// %v{k-1}, 1` from `add int 1, 1`: each reads the one before it.
fn fold_chain(n: usize) -> Module {
    let mut src = String::from("define int @main() {\ne:\n  %v0 = add int 1, 1\n");
    for k in 1..n {
        writeln!(src, "  %v{k} = add int %v{}, 1", k - 1).unwrap();
    }
    writeln!(src, "  ret int %v{}\n}}", n - 1).unwrap();
    let m = lpat::asm::parse_module("folds", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Best of three: `instsimplify` on a copy of the chain.
fn fold_cost(n: usize) -> Duration {
    let m = fold_chain(n);
    let fid = m.func_by_name("main").unwrap();
    (0..3)
        .map(|_| {
            let mut m = m.clone();
            let t = Instant::now();
            lpat::transform::scalar::simplify_function(&mut m, fid);
            let took = t.elapsed();
            let text = m.display();
            assert!(text.contains(&format!("ret int {}", n + 1)), "folded");
            assert_eq!(m.func(fid).num_insts(), 1, "every fold went");
            took
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_folds_cost_less_than_eight_times_the_time() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (fold_cost(2_000), fold_cost(8_000));
    assert!(
        large < 8 * small,
        "N = 2000: {small:?}, N = 8000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// `main` makes `n` chained calls to a three-instruction callee, each
/// passing on the result of the one before.
fn call_chain(n: usize) -> Module {
    let mut src = String::from(
        "define internal int @step(int %x) {\ne:\n  %a = add int %x, 1\n  %b = mul int %a, 3\n  ret int %b\n}\n\
         define int @main(int %x) {\ne:\n  %v0 = call int @step(int %x)\n",
    );
    for k in 1..n {
        writeln!(src, "  %v{k} = call int @step(int %v{})", k - 1).unwrap();
    }
    writeln!(src, "  ret int %v{}\n}}", n - 1).unwrap();
    let m = lpat::asm::parse_module("calls", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Best of three: `Inline` on a copy of the chain, its caller cap raised
/// so that every site is inlined.
fn inline_cost(n: usize) -> Duration {
    use lpat::transform::pm::{ModulePass, PassContext};
    let m = call_chain(n);
    (0..3)
        .map(|_| {
            let mut m = m.clone();
            let mut inline = lpat::transform::inline::Inline::default();
            inline.caller_cap = 8 * n;
            let t = Instant::now();
            inline.run(&mut m, &mut PassContext::default());
            let took = t.elapsed();
            assert!(!m.display().contains("call int"), "every site was inlined");
            assert!(m.func_by_name("step").is_none(), "the callee went");
            took
        })
        .min()
        .unwrap()
}

#[test]
fn four_times_the_calls_cost_less_than_eight_times_the_inlining() {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (inline_cost(1_000), inline_cost(4_000));
    assert!(
        large < 8 * small,
        "N = 1000: {small:?}, N = 4000: {large:?} ({:.1}x; linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
