//! Scaling guard for the link-time passes that once searched every body
//! for each candidate function: IPCP (a module scan per function) and DAE
//! (a module scan, and a `func_mut` of every function, per rewritten
//! signature). Both now read a callee's call sites from the call graph's
//! index, so the work follows the module's size, not its square.
//!
//! No timing: both passes count the instructions they read and say so in
//! `stats()`. Doubling the number of functions at a fixed function size
//! may at most double that count (+10 %).

use std::fmt::Write;

use lpat::core::Module;
use lpat::transform::ipo::{Dae, Ipcp};
use lpat::transform::PassManager;

/// `main → f0 → f1 → … → f(n-1)`: every `f` has one call site, which passes
/// the constant 7 (IPCP propagates it) and a value the callee never reads
/// (DAE drops both parameters, so every signature and every site is
/// rewritten).
fn chain(n: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        let next = if i + 1 < n {
            format!(
                "  %r = call int @f{}(int 7, int %y)\n  %s = add int %r, %y\n  ret int %s\n",
                i + 1
            )
        } else {
            "  ret int %y\n".to_string()
        };
        write!(
            src,
            "define internal int @f{i}(int %a, int %dead) {{\ne:\n  %x = add int %a, {i}\n  \
             %y = mul int %x, 3\n{next}}}\n"
        )
        .unwrap();
    }
    src += "define int @main(int %n) {\ne:\n  %v = call int @f0(int 7, int %n)\n  ret int %v\n}\n";
    let m = lpat::asm::parse_module("chain", &src).expect("generated IR parses");
    m.verify().expect("generated IR verifies");
    m
}

/// Instructions `[ipcp, dae]` say they read on a chain of `n` functions.
fn scanned(n: usize) -> [u64; 2] {
    let mut m = chain(n);
    let mut pm = PassManager::new();
    pm.verify_each = true;
    pm.add(Ipcp::default());
    pm.add(Dae::default());
    let report = pm.run(&mut m);
    assert!(report.faults.is_empty());
    let count = |i: usize| -> u64 {
        let stats = &report.passes[i].stats;
        let (_, rest) = stats
            .split_once("scanned ")
            .expect("the pass says what it read");
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    // Not vacuous: one parameter of every function is propagated, and then
    // both are dead.
    assert!(report.passes[0]
        .stats
        .starts_with(&format!("propagated {n} ")));
    assert!(report.passes[1]
        .stats
        .starts_with(&format!("eliminated {} arguments", 2 * n)));
    [count(0), count(1)]
}

#[test]
fn twice_the_functions_is_at_most_twice_the_instructions_read() {
    let (small, large) = (scanned(200), scanned(400));
    for (pass, (s, l)) in ["ipcp", "dae"].iter().zip(small.iter().zip(&large)) {
        assert!(
            *l * 10 <= *s * 22,
            "{pass}: 200 functions read {s} instructions, 400 read {l}"
        );
    }
}
