//! Differential tests for the tiered execution engine: at *any* tier-up
//! threshold — 0 (promote everything on first call), 1, the default, or
//! effectively-infinite (never promote) — the tiered engine must be
//! observationally identical to the reference interpreter: same program
//! output, same return value or trap kind, same instruction count, fuel
//! consumption, opcode histogram, and profile counters. This holds across
//! the whole workload suite, for trapping programs, under injected
//! translation faults (the tiered engine demotes and keeps going), and
//! with warm-started tier decisions.

use std::process::Command;

use lpat::vm::{ExecError, TrapKind, Vm, VmOptions};

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<i64, TrapKind>,
    output: String,
    insts: u64,
    fuel_left: Option<u64>,
    opcode_counts: Vec<u64>,
    profile: lpat::vm::ProfileData,
}

fn observe(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    warm: Option<&lpat::vm::ProfileData>,
) -> Observed {
    observe_spec(m, engine, tier_up, warm, None)
}

fn observe_spec(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
) -> Observed {
    observe_full(m, engine, tier_up, None, warm, spec)
}

/// Tiered run with the third (machine-code) tier enabled.
fn observe_native(m: &lpat::core::Module, tier_up: u64, native_up: u64) -> Observed {
    observe_full(m, "tiered", tier_up, Some(native_up), None, None)
}

fn observe_full(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    native_up: Option<u64>,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
) -> Observed {
    observe_fueled(m, engine, tier_up, native_up, warm, spec, 20_000_000)
}

fn observe_fueled(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    native_up: Option<u64>,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
    fuel: u64,
) -> Observed {
    observe_counted(m, engine, tier_up, native_up, warm, spec, fuel).0
}

/// [`observe_fueled`], and the engine's own account of how it got there
/// (which is *not* engine-independent).
fn observe_counted(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    native_up: Option<u64>,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
    fuel: u64,
) -> (Observed, lpat::vm::TierStats, lpat::vm::SpecStats) {
    let opts = VmOptions {
        profile: true,
        fuel: Some(fuel),
        tier_up,
        native_up,
        ..VmOptions::default()
    };
    observe_with(m, engine, opts, warm, spec)
}

/// [`observe_counted`] under any options.
fn observe_with(
    m: &lpat::core::Module,
    engine: &str,
    opts: VmOptions,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
) -> (Observed, lpat::vm::TierStats, lpat::vm::SpecStats) {
    let mut vm = Vm::new(m, opts).expect("vm init");
    if let Some(map) = spec {
        vm.install_speculation(map.clone(), map.len() as u64, 0);
    }
    if let Some(p) = warm {
        vm.warm_start(p);
    }
    let r = match engine {
        "interp" => vm.run_main(),
        "jit" => vm.run_main_jit(),
        "tiered" => vm.run_main_tiered(),
        other => panic!("unknown engine {other}"),
    };
    let outcome = match r {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(kind),
        Err(other) => panic!("unexpected error class: {other}"),
    };
    let seen = Observed {
        outcome,
        output: vm.output.clone(),
        insts: vm.insts_executed,
        fuel_left: vm.opts.fuel,
        opcode_counts: vm.opcode_counts.to_vec(),
        profile: vm.profile.clone(),
    };
    (seen, vm.tier_stats.clone(), vm.spec_stats.clone())
}

/// The thresholds every differential case runs at: full-JIT-equivalent,
/// near-instant promotion, the default, and never-promote.
const THRESHOLDS: [u64; 4] = [0, 1, 50, u64::MAX];

#[test]
fn tiered_matches_interp_across_suite_at_every_threshold() {
    for (name, m) in lpat::workloads::compile_suite(0) {
        let reference = observe(&m, "interp", 0, None);
        for t in THRESHOLDS {
            let tiered = observe(&m, "tiered", t, None);
            assert_eq!(reference, tiered, "workload {name} diverged at tier_up={t}");
        }
        // The full JIT must agree too (it shares the mixed-frame loop).
        let jit = observe(&m, "jit", 0, None);
        assert_eq!(reference, jit, "workload {name} diverged under full JIT");
    }
}

#[test]
fn native_tier_matches_interp_across_suite_at_every_threshold() {
    // The observational-identity contract extends to machine code: with
    // the third tier enabled at every threshold pairing — including
    // tier_up 0 / native_up 0, where every function runs native from its
    // first call — output, return value, trap kind, fuel, histogram, and
    // profile counters must match the reference interpreter exactly.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let reference = observe(&m, "interp", 0, None);
        for t in THRESHOLDS {
            let native = observe_native(&m, t, t);
            assert_eq!(
                reference, native,
                "workload {name} diverged at tier_up={t}/native_up={t}"
            );
        }
    }
}

#[test]
fn native_tier_executes_the_bulk_of_a_hot_loop() {
    // Not just correct but *used*: on a loop-dominated workload with
    // immediate promotion, the machine-code tier must dispatch the vast
    // majority of instructions, and staged thresholds must reach native
    // through both OSR paths.
    let suite = lpat::workloads::compile_suite(0);
    let (name, m) = &suite[0]; // 164.gzip: loop-heavy
    let opts = VmOptions {
        tier_up: 0,
        native_up: Some(0),
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let t = &vm.tier_stats;
    assert!(t.native_promoted > 0, "{name}: nothing promoted to native");
    assert!(
        t.native_insts > 9 * (t.jit_insts + t.interp_insts),
        "{name}: native tier dispatched too little: {t:?}"
    );

    // Staged thresholds: the hot loop crosses interp → jit → native
    // while running, so at least one on-stack replacement lands in
    // machine code.
    let opts = VmOptions {
        tier_up: 1,
        native_up: Some(1),
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        vm.tier_stats.native_osr > 0,
        "{name}: staged run never OSR'd into native: {:?}",
        vm.tier_stats
    );
    assert!(vm.tier_stats.native_insts > 0);
}

#[test]
fn tiered_matches_interp_with_warm_start() {
    for (name, m) in lpat::workloads::compile_suite(0) {
        // First run populates the profile (as the lifelong store would).
        let first = observe(&m, "tiered", 50, None);
        let warm = observe(&m, "tiered", 50, Some(&first.profile));
        assert_eq!(
            first, warm,
            "workload {name} diverged between cold and warm-started runs"
        );
        // A profile past tier_up + native_up warm-starts into machine code.
        let first = observe_full(&m, "tiered", 50, Some(200), None, None);
        let warm = observe_full(&m, "tiered", 50, Some(200), Some(&first.profile), None);
        assert_eq!(
            first, warm,
            "workload {name} diverged between cold and warm-started native runs"
        );
    }
}

#[test]
fn warm_start_promotes_hot_functions_eagerly() {
    let suite = lpat::workloads::compile_suite(0);
    let (name, m) = &suite[0]; // 164.gzip: loop-heavy, several hot functions
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts.clone()).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let profile = vm.profile.clone();
    let cold_promoted = vm.tier_stats.promoted;
    assert!(cold_promoted > 0, "{name}: nothing promoted in a cold run");

    let mut vm2 = Vm::new(m, opts).unwrap();
    let warmed = vm2.warm_start(&profile);
    assert!(warmed > 0, "{name}: warm-start promoted nothing");
    assert_eq!(vm2.tier_stats.warmed, warmed as u64);
    vm2.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    // The warm run starts hot: it never needs OSR for the functions the
    // profile already identified, so less of it is interpreted.
    assert!(
        vm2.tier_stats.interp_insts <= vm.tier_stats.interp_insts,
        "{name}: warm run interpreted more instructions than cold"
    );
    // Functions past tier_up + native_up start in machine code, so the
    // warm run does not re-climb the JIT rung either.
    assert!(
        vm2.tier_stats.native_promoted > 0,
        "{name}: warm-start promoted nothing to machine code"
    );
    assert!(
        vm2.tier_stats.jit_insts <= vm.tier_stats.jit_insts,
        "{name}: warm run dispatched more JIT instructions than cold"
    );
}

// ---------------------------------------------------------------------
// Trap differentials: the trap kind and everything executed before the
// trap must match at every threshold.
// ---------------------------------------------------------------------

fn trap_case(src: &str, expect: TrapKind) {
    let reference = same_in_every_engine(&parse(src), 20_000_000);
    assert_eq!(reference.outcome, Err(expect));
}

#[test]
fn div_by_zero_in_hot_loop_traps_identically() {
    // The divisor reaches zero only after the loop has run hot: the trap
    // fires in translated code in tiered mode, interpreted otherwise.
    trap_case(
        "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 200, %e ], [ %i2, %b ]
  %c = setgt int %i, -1
  br bool %c, label %b, label %x
b:
  %q = div int 1000, %i
  %i2 = sub int %i, 1
  br label %h
x:
  ret int 0
}",
        TrapKind::DivByZero,
    );
}

#[test]
fn out_of_fuel_traps_at_identical_instruction() {
    let m = lpat::asm::parse_module(
        "t",
        "
define int @main() {
e:
  br label %l
l:
  br label %l
}",
    )
    .unwrap();
    for t in THRESHOLDS {
        for native_up in [None, Some(t)] {
            let opts = VmOptions {
                fuel: Some(10_000),
                tier_up: t,
                native_up,
                ..VmOptions::default()
            };
            let mut vm = Vm::new(&m, opts).unwrap();
            match vm.run_main_tiered().unwrap_err() {
                ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::OutOfFuel),
                other => panic!("{other:?}"),
            }
            assert_eq!(vm.opts.fuel, Some(0));
            assert_eq!(
                vm.insts_executed, 10_000,
                "tier_up={t} native_up={native_up:?}"
            );
        }
    }
}

#[test]
fn uncaught_unwind_traps_identically_across_tiers() {
    trap_case(
        "
define void @thrower() {
e:
  unwind
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, 100
  br bool %c, label %b, label %t
b:
  %i2 = add int %i, 1
  br label %h
t:
  call void @thrower()
  ret int 0
}",
        TrapKind::UncaughtUnwind,
    );
}

#[test]
fn invoke_across_tier_boundary_catches_unwind() {
    // The invoke sits in `main` (interpreted until OSR); the thrower gets
    // hot and throws from translated code. The unwind must cross the
    // tier boundary and land in the handler.
    let src = "
define void @maybe_throw(int %i) {
e:
  %c = seteq int %i, 900
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %cont ]
  invoke void @maybe_throw(int %i) to label %cont unwind label %caught
cont:
  %i2 = add int %i, 1
  %c = setlt int %i2, 2000
  br bool %c, label %h, label %x
caught:
  ret int 77
x:
  ret int 0
}";
    let m = lpat::asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let reference = observe(&m, "interp", 0, None);
    assert_eq!(reference.outcome, Ok(77));
    for t in THRESHOLDS {
        let tiered = observe(&m, "tiered", t, None);
        assert_eq!(reference, tiered, "invoke case diverged at tier_up={t}");
        let native = observe_native(&m, t, t);
        assert_eq!(reference, native, "invoke case diverged at native_up={t}");
    }
}

// ---------------------------------------------------------------------
// Native calls: a call from machine code into a function on the native
// rung pushes its frame inside the burst, and the return lands in the
// caller's registers. Nothing observable may change.
// ---------------------------------------------------------------------

/// Recursion (`fib`, three-argument `tak`, mutual `even`/`odd`), an
/// indirect call through an eight-entry table (the inline cache misses
/// every time), `char` / `short` / `bool` / pointer returns, a `void`
/// callee, an `invoke` whose callee unwinds from two frames down, and an
/// indirect call whose `sbyte` argument defies `@k7`'s `int`: that one
/// runs on the JIT rung.
const NATIVE_CALLS: &str = "
declare void @print_int(int)
@tbl = global [8 x int (int)*] zeroinitializer
@cells = global [8 x int] zeroinitializer
define internal int @fib(int %n) {
e:
  %small = setlt int %n, 2
  br bool %small, label %base, label %rec
base:
  ret int %n
rec:
  %n1 = sub int %n, 1
  %a = call int @fib(int %n1)
  %n2 = sub int %n, 2
  %b = call int @fib(int %n2)
  %r = add int %a, %b
  ret int %r
}
define internal int @tak(int %x, int %y, int %z) {
e:
  %c = setlt int %y, %x
  br bool %c, label %rec, label %done
done:
  ret int %z
rec:
  %x1 = sub int %x, 1
  %a = call int @tak(int %x1, int %y, int %z)
  %y1 = sub int %y, 1
  %b = call int @tak(int %y1, int %z, int %x)
  %z1 = sub int %z, 1
  %d = call int @tak(int %z1, int %x, int %y)
  %r = call int @tak(int %a, int %b, int %d)
  ret int %r
}
define internal bool @even(int %n) {
e:
  %z = seteq int %n, 0
  br bool %z, label %yes, label %rec
yes:
  ret bool true
rec:
  %m = sub int %n, 1
  %r = call bool @odd(int %m)
  ret bool %r
}
define internal bool @odd(int %n) {
e:
  %z = seteq int %n, 0
  br bool %z, label %no, label %rec
no:
  ret bool false
rec:
  %m = sub int %n, 1
  %r = call bool @even(int %m)
  ret bool %r
}
define internal sbyte @lo(int %x) {
e:
  %c = cast int %x to sbyte
  ret sbyte %c
}
define internal short @half(int %x) {
e:
  %s = cast int %x to short
  ret short %s
}
define internal int* @cell(int %i) {
e:
  %p = getelementptr [8 x int]* @cells, long 0, int %i
  ret int* %p
}
define internal void @bump(int* %p, int %by) {
e:
  %v = load int* %p
  %v2 = add int %v, %by
  store int %v2, int* %p
  ret void
}
define internal int @k0(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @k1(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define internal int @k2(int %x) {
e:
  %r = sub int 100, %x
  ret int %r
}
define internal int @k3(int %x) {
e:
  %r = xor int %x, 85
  ret int %r
}
define internal int @k4(int %x) {
e:
  %r = shl int %x, 2
  ret int %r
}
define internal int @k5(int %x) {
e:
  %r = and int %x, 7
  ret int %r
}
define internal int @k6(int %x) {
e:
  %r = call int @fib(int 5)
  %s = add int %r, %x
  ret int %s
}
define internal int @k7(int %x) {
e:
  ret int 7
}
define internal void @thrower(int %x) {
e:
  %c = seteq int %x, 5
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define internal int @middle(int %x) {
e:
  call void @thrower(int %x)
  %r = add int %x, 1
  ret int %r
}
define int @main() {
e:
  %t0 = getelementptr [8 x int (int)*]* @tbl, long 0, int 0
  store int (int)* @k0, int (int)** %t0
  %t1 = getelementptr [8 x int (int)*]* @tbl, long 0, int 1
  store int (int)* @k1, int (int)** %t1
  %t2 = getelementptr [8 x int (int)*]* @tbl, long 0, int 2
  store int (int)* @k2, int (int)** %t2
  %t3 = getelementptr [8 x int (int)*]* @tbl, long 0, int 3
  store int (int)* @k3, int (int)** %t3
  %t4 = getelementptr [8 x int (int)*]* @tbl, long 0, int 4
  store int (int)* @k4, int (int)** %t4
  %t5 = getelementptr [8 x int (int)*]* @tbl, long 0, int 5
  store int (int)* @k5, int (int)** %t5
  %t6 = getelementptr [8 x int (int)*]* @tbl, long 0, int 6
  store int (int)* @k6, int (int)** %t6
  %t7 = getelementptr [8 x int (int)*]* @tbl, long 0, int 7
  store int (int)* @k7, int (int)** %t7
  %f = call int @fib(int 12)
  call void @print_int(int %f)
  %t = call int @tak(int 12, int 8, int 4)
  call void @print_int(int %t)
  %ev = call bool @even(int 31)
  %evi = cast bool %ev to int
  call void @print_int(int %evi)
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %latch ]
  %s = phi int [ 0, %e ], [ %s3, %latch ]
  %c = setlt int %i, 64
  br bool %c, label %b, label %x
b:
  %slot = rem int %i, 8
  %fpp = getelementptr [8 x int (int)*]* @tbl, long 0, int %slot
  %fp = load int (int)** %fpp
  %v = call int %fp(int %i)
  %lo = call sbyte @lo(int %v)
  %loi = cast sbyte %lo to int
  %hf = call short @half(int %v)
  %hfi = cast short %hf to int
  %p = call int* @cell(int %slot)
  call void @bump(int* %p, int %v)
  %mis = cast int (int)* @k7 to int (sbyte)*
  %m = call int %mis(sbyte %lo)
  %s1 = add int %s, %loi
  %s2 = add int %s1, %hfi
  %w = invoke int @middle(int %slot) to label %ok unwind label %caught
ok:
  %s2b = add int %s2, %w
  br label %latch
caught:
  %s2c = add int %s2, %m
  br label %latch
latch:
  %s3 = phi int [ %s2b, %ok ], [ %s2c, %caught ]
  %i2 = add int %i, 1
  br label %h
x:
  call void @print_int(int %s)
  %q = getelementptr [8 x int]* @cells, long 0, int 3
  %qv = load int* %q
  call void @print_int(int %qv)
  %r = rem int %s, 97
  ret int %r
}";

#[test]
fn native_calls_stay_in_machine_code_and_match_interp() {
    let m = parse(NATIVE_CALLS);
    let reference = same_in_every_engine(&m, 20_000_000);
    assert_eq!(reference.outcome, Ok(57));
    assert_eq!(reference.output, "144\n5\n0\n6168\n784\n");
    // At tier_up 0 / native_up 0 every function is native from its
    // first call, so every call returns inside the burst except the
    // 8 × 2 frames the unwind pops and the 64 mistyped calls — which run
    // `@k7`'s one `ret` each on the JIT rung.
    let (got, t, _) = observe_counted(&m, "tiered", 0, Some(0), None, None, 20_000_000);
    assert_eq!(reference, got);
    assert_eq!((t.interp_insts, t.jit_insts), (0, 64), "{t:?}");
    let main = m.func_by_name("main").unwrap();
    let calls: u64 = (got.profile.call_counts.iter())
        .filter(|&(&f, _)| f != main)
        .map(|(_, &n)| n)
        .sum();
    assert_eq!(t.native_calls, calls - 16 - 64, "{t:?}");
}

/// Recursion past `max_stack` traps `StackOverflow` at the same depth,
/// after the same instructions and profile, whether the frames are
/// pushed inside the native burst or outside it.
#[test]
fn native_calls_overflow_the_stack_like_the_interpreter() {
    let m = parse(
        "
define internal int @down(int %n) {
e:
  %z = seteq int %n, 0
  br bool %z, label %base, label %rec
base:
  ret int 0
rec:
  %m = sub int %n, 1
  %r = call int @down(int %m)
  %s = add int %r, 1
  ret int %s
}
define int @main() {
e:
  %r = call int @down(int 1000)
  ret int %r
}",
    );
    let opts = VmOptions {
        profile: true,
        max_stack: 64,
        ..VmOptions::default()
    };
    let reference = same_in_every_engine_under(&m, opts);
    assert_eq!(reference.outcome, Err(TrapKind::StackOverflow));
}

/// Fuel runs dry on every instruction of `fib(4)` in turn — its calls
/// and returns inside the burst among them — and every engine stops on
/// the same instruction with the same profile.
#[test]
fn native_calls_run_out_of_fuel_like_the_interpreter() {
    let m = parse(
        "
define internal int @fib(int %n) {
e:
  %small = setlt int %n, 2
  br bool %small, label %base, label %rec
base:
  ret int %n
rec:
  %n1 = sub int %n, 1
  %a = call int @fib(int %n1)
  %n2 = sub int %n, 2
  %b = call int @fib(int %n2)
  %r = add int %a, %b
  ret int %r
}
define int @main() {
e:
  %r = call int @fib(int 4)
  ret int %r
}",
    );
    let full = same_in_every_engine(&m, 20_000_000);
    assert_eq!(full.outcome, Ok(3));
    for fuel in 0..full.insts {
        let dry = same_in_every_engine(&m, fuel);
        assert_eq!(dry.outcome, Err(TrapKind::OutOfFuel), "fuel={fuel}");
    }
}

/// Machine code charges a run of instructions that only its last can
/// leave once, on entry. The loop's one block is such a run up to its
/// `print_int` call, with a `div` in its middle whose divisor reaches 0
/// on iteration 120 — after every threshold has reached machine code.
/// At every fuel value up to that trap, fuel running dry anywhere in the
/// run and the `div` trapping halfway through it leave the interpreter's
/// fuel remainder, instruction count, histogram and profile.
#[test]
fn a_trap_in_the_middle_of_a_region_refunds_its_rest() {
    let m = parse(
        "
declare void @print_int(int)
@cell = global int 7
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %v = load int* @cell
  %d = sub int 120, %i
  %q = div int 1200, %d
  %s = add int %v, %q
  store int %s, int* @cell
  call void @print_int(int %s)
  %i2 = add int %i, 1
  br label %h
}",
    );
    let full = same_in_every_engine(&m, 20_000_000);
    assert_eq!(full.outcome, Err(TrapKind::DivByZero));
    assert_eq!(full.output.lines().count(), 120);
    for fuel in 0..=full.insts {
        let dry = same_in_every_engine(&m, fuel);
        let expect = if fuel == full.insts {
            Err(TrapKind::DivByZero)
        } else {
            Err(TrapKind::OutOfFuel)
        };
        assert_eq!(dry.outcome, expect, "fuel={fuel}");
    }
}

/// Machine code shares a register between values that are never live at
/// once, so entering it mid-function must copy only the values live at
/// the loop header. In `@work`, 24 values plus the loop's two φs are live
/// at `%h`, and two values dead there sit in registers a live one shares:
/// `%t` (`xor 77`), defined before the loop on the path every run takes,
/// and `%f` (`xor 99`), on a path no run takes, so an interpreter frame
/// holds `%t`'s stale value and a JIT frame holds both `%t`'s and `%f`'s
/// filler. Both have higher instruction ids than every live value, so a
/// copy of every value would write them last. `@work(1)` runs `@work(0)`
/// first: its loop climbs to machine code by OSR from a JIT frame, and
/// `@work(1)`'s own loop then enters it by OSR from an interpreter frame.
#[test]
fn entering_machine_code_at_a_loop_copies_only_the_values_live_there() {
    let live: Vec<String> = (1..=24).map(|k| format!("%v{k}")).collect();
    let mut src = String::from(
        "declare void @print_int(int)
@g = global int 3
@sink = global int 0
define internal int @work(int %d) {
e:
  %a = load int* @g
  %r = seteq int %a, 12345
  br bool %r, label %rare, label %p0
p2:
",
    );
    for (k, v) in live.iter().enumerate() {
        src += &format!("  {v} = add int %a, {}\n", k + 1);
    }
    src += "  br label %h
h:
  %i = phi int [ 0, %p2 ], [ %i2, %h ]
  %s = phi int [ 0, %p2 ], [ %s2, %h ]
  %m = mul int %s, 3
  %s2 = add int %m, %i
  %i2 = add int %i, 1
  %c = setlt int %i2, 300
  br bool %c, label %h, label %x
x:
  %o0 = and int %s2, 65535
";
    for (k, v) in live.iter().enumerate() {
        src += &format!("  %o{} = add int %o{k}, {v}\n", k + 1);
    }
    src += &format!(
        "  ret int %o{}
p0:
  %dd = setgt int %d, 0
  br bool %dd, label %rec, label %p1
rec:
  %sub = sub int %d, 1
  %rr = call int @work(int %sub)
  call void @print_int(int %rr)
  br label %p1
p1:
  %t = xor int %a, 77
  store int %t, int* @sink
  br label %p2
rare:
  %f = xor int %a, 99
  call void @print_int(int %f)
  br label %p0
}}
define int @main() {{
e:
  %w = call int @work(int 1)
  call void @print_int(int %w)
  ret int 0
}}
",
        live.len()
    );
    let m = parse(&src);

    // The premise: `%t`'s and `%f`'s registers each hold a value live
    // into `%h` (block 2) — the interpreter and the JIT would write them.
    use lpat::codegen::fast::{enc, translate_fast, FastEnv, Home};
    let env = FastEnv {
        func_addr: &|f| lpat::vm::mem::Memory::func_addr(f.index()),
        global_addr: &|i| Some(0x1_0000 + 64 * i as u32),
        guarded: &|_| false,
    };
    let ff = translate_fast(&m, m.func_by_name("work").unwrap(), &env).unwrap();
    let (_, at_h) = ff
        .live_in
        .iter()
        .find(|(b, _)| *b == 2)
        .expect("%h is a loop header");
    for imm in [77, 99] {
        let w = ff
            .words
            .iter()
            .find(|&&w| enc::op(w) == enc::XORI && enc::simm14(w) == imm);
        let home = Home::Reg(enc::rd(*w.expect("xori")));
        assert!(
            at_h.iter().any(|&(_, h, _)| h == home),
            "xor {imm}: {home:?} shared at %h"
        );
    }
    assert_eq!(at_h.len(), live.len() + 2, "the 24 values and the two φs");

    let full = same_in_every_engine(&m, 20_000_000);
    assert_eq!(full.outcome, Ok(0));
    // Both ways in happen: at the default thresholds `@work(0)`'s frame
    // goes interpreter → JIT → machine code, and `@work(1)`'s
    // interpreter frame straight into machine code.
    let (_, tiers, _) = observe_counted(&m, "tiered", 50, Some(50), None, None, 20_000_000);
    assert_eq!((tiers.osr, tiers.native_osr), (1, 2), "{tiers:?}");
}

/// Every register-immediate form machine code has — `addi` (and `sub` as
/// `addi` of the negation), `muli`, `andi`, `ori`, `xori`, the three
/// shifts with their amount masked to the width, `cmpi` under each
/// signedness with the constant on either side — on every integer class,
/// narrow ones renormalised and `long` in its low-word view, with
/// constants at the edges of the 14-bit field and past them: the same
/// output, fuel and histogram as the interpreter, all of it in machine
/// code at the lowest thresholds.
#[test]
fn every_immediate_form_computes_what_the_interpreter_does() {
    let m = parse(IMMEDIATES);
    let full = same_in_every_engine(&m, 20_000_000);
    assert_eq!((full.outcome, full.output.lines().count()), (Ok(0), 300));
    let (seen, tiers, _) = observe_counted(&m, "tiered", 0, Some(0), None, None, 20_000_000);
    assert_eq!(tiers.native_insts, seen.insts, "{tiers:?}");
}

const IMMEDIATES: &str = "
declare void @print_int(int)
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %acc = phi int [ 0, %e ], [ %acc9, %h ]
  %a1 = mul int %i, -37
  %a2 = and int %a1, -8
  %a3 = or int %a2, 8191
  %a4 = xor int %a3, -8192
  %a5 = shl int %a4, 33
  %a6 = shr int %a5, 3
  %a7 = sub int 8000, %a6
  %a8 = sub int %a7, -8192
  %u = cast int %a6 to uint
  %u2 = shr uint %u, 29
  %u3 = mul uint %u2, 4294967295
  %b = cast int %i to sbyte
  %b2 = add sbyte %b, 100
  %b3 = mul sbyte %b2, 3
  %b4 = shr sbyte %b3, 1
  %ub = cast int %i to ubyte
  %ub2 = sub ubyte %ub, 7
  %ub3 = shl ubyte %ub2, 3
  %ub4 = shr ubyte %ub3, 9
  %s = cast int %i to short
  %s2 = xor short %s, -1
  %s3 = shl short %s2, 12
  %us = cast int %i to ushort
  %us2 = or ushort %us, 40000
  %us3 = add ushort %us2, 30000
  %c1 = setlt int %a4, -100
  %c2 = setge uint %u, 4294967295
  %c3 = setgt sbyte %b4, -3
  %c4 = setle ubyte %ub3, 200
  %c5 = setne short 5, %s2
  %c6 = setlt int 7, %i
  %c7 = xor bool %c1, true
  %c8 = and bool %c7, %c3
  %l = cast int %i to long
  %l2 = mul long %l, 100000000000
  %l3 = add long %l2, -5
  %l4 = and long %l3, 4095
  %l5 = cast long %l4 to int
  %x0 = add int %a8, %l5
  %x1 = cast uint %u3 to int
  %x2 = cast sbyte %b4 to int
  %x3 = cast ubyte %ub4 to int
  %x4 = cast short %s3 to int
  %x5 = cast ushort %us3 to int
  %y1 = cast bool %c2 to int
  %y2 = cast bool %c4 to int
  %y3 = cast bool %c5 to int
  %y4 = cast bool %c6 to int
  %y5 = cast bool %c8 to int
  %acc1 = mul int %acc, 31
  %acc2 = xor int %acc1, %x0
  %acc3 = add int %acc2, %x1
  %acc4 = xor int %acc3, %x2
  %acc5 = add int %acc4, %x3
  %acc6 = xor int %acc5, %x4
  %acc7 = add int %acc6, %x5
  %z1 = shl int %y1, 1
  %z2 = shl int %y2, 2
  %z3 = shl int %y3, 3
  %z4 = shl int %y4, 4
  %z5 = shl int %y5, 5
  %z6 = or int %z1, %z2
  %z7 = or int %z6, %z3
  %z8 = or int %z7, %z4
  %z9 = or int %z8, %z5
  %acc8 = xor int %acc7, %z9
  %acc9 = add int %acc8, %i
  call void @print_int(int %acc9)
  %i2 = add int %i, 1
  %c = setlt int %i2, 300
  br bool %c, label %h, label %x
x:
  ret int 0
}
";

// ---------------------------------------------------------------------
// Profile recording: the engines count in index-addressed slabs that are
// folded into `Vm::profile` when a run returns. Edge identity and the
// drain must hold in every engine and on every way out of a run.
// ---------------------------------------------------------------------

/// `m` under every engine configuration — full JIT, and the tiered engine
/// at each threshold with and without the machine-code tier — each of
/// which must observe what the reference interpreter (returned) observes
/// at the same fuel, down to the bytes of the profile the store persists.
fn same_in_every_engine(m: &lpat::core::Module, fuel: u64) -> Observed {
    let opts = VmOptions {
        profile: true,
        fuel: Some(fuel),
        ..VmOptions::default()
    };
    same_in_every_engine_under(m, opts)
}

/// [`same_in_every_engine`] with `opts` (its thresholds aside) in every run.
fn same_in_every_engine_under(m: &lpat::core::Module, opts: VmOptions) -> Observed {
    let run = |engine: &str, tier_up: u64, native_up: Option<u64>| {
        let opts = VmOptions {
            tier_up,
            native_up,
            ..opts.clone()
        };
        observe_with(m, engine, opts, None, None).0
    };
    let reference = run("interp", 0, None);
    let check = |what: String, got: Observed| {
        assert_eq!(
            reference.profile.to_bytes(),
            got.profile.to_bytes(),
            "{what}: profile bytes"
        );
        assert_eq!(reference, got, "{what}");
    };
    check("jit".into(), run("jit", 0, None));
    for t in THRESHOLDS {
        for native_up in [None, Some(t)] {
            check(
                format!("tier_up={t} native_up={native_up:?}"),
                run("tiered", t, native_up),
            );
        }
    }
    reference
}

fn parse(src: &str) -> lpat::core::Module {
    let m = lpat::asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    m
}

/// A traversal counts once, under the single `(from, to)` key it has,
/// when one terminator names a block several times: a `condbr` with both
/// arms on one block, a `switch` with several cases (and the default) on
/// one target. Invoke normal/unwind edges land beside them. And a slot
/// that was never bumped must not surface as a zero-count entry.
#[test]
fn duplicate_successors_count_once_under_one_key() {
    let m = parse(
        "
define void @maybe_throw(int %i) {
e:
  %c = seteq int %i, 253
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %l ]
  %s = phi int [ 0, %e ], [ %s2, %l ]
  %c = setlt int %i, 300
  br bool %c, label %body, label %x
body:
  %odd = rem int %i, 2
  %isodd = seteq int %odd, 1
  br bool %isodd, label %same, label %same
same:
  %r = rem int %i, 5
  switch int %r, label %other [ int 0, label %hit int 1, label %hit int 2, label %other int 3, label %three ]
hit:
  br label %l
three:
  invoke void @maybe_throw(int %i) to label %l unwind label %caught
other:
  br label %l
l:
  %k = phi int [ 1, %hit ], [ 3, %three ], [ 0, %other ]
  %s2 = add int %s, %k
  %i2 = add int %i, 1
  br label %h
caught:
  ret int -1
x:
  ret int %s
}",
    );
    let seen = same_in_every_engine(&m, 20_000_000);
    // The invoke at i = 253 throws: 254 iterations reach `same`.
    assert_eq!(seen.outcome, Ok(-1));
    let main = m.func_by_name("main").unwrap();
    let block = |n: usize| lpat::core::BlockId::from_index(n);
    let (body, same, hit, three, other, l, caught) = (
        block(2),
        block(3),
        block(4),
        block(5),
        block(6),
        block(7),
        block(8),
    );
    let edge = |a, b| seen.profile.edge_count(main, a, b);
    assert_eq!(edge(body, same), 254);
    assert_eq!(seen.profile.block_count(main, same), 254);
    assert_eq!(edge(same, hit), 102); // i % 5 in {0, 1}
    assert_eq!(edge(same, other), 101); // 2 by case, 4 by default
    assert_eq!(edge(same, three), 51);
    assert_eq!(edge(three, l), 50);
    assert_eq!(edge(three, caught), 1);
    let p = &seen.profile;
    let zero = |n: &u64| *n == 0;
    assert!(
        !(p.block_counts.values().any(zero)
            || p.edge_counts.values().any(zero)
            || p.call_counts.values().any(zero)
            || p.callsite_counts.values().any(zero)),
        "a zero-count slot surfaced: {p:?}"
    );
    // `x` never ran and `t` ran once: absent and present, not zero.
    assert!(!p.block_counts.contains_key(&(main, block(9))));

    // Without instrumentation nothing is recorded at all.
    let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
    vm.run_main_tiered().unwrap();
    assert!(vm.profile.is_empty());
    assert_eq!(vm.profile_stats(), lpat::vm::ProfileStats::default());
}

/// The slabs are drained on every way out of a run, not only on a clean
/// return: fuel running dry inside a hot (machine-code) loop, a trap
/// inside a translated frame, and an `unwind` escaping `main` each leave
/// the bytes the reference interpreter leaves at the same fuel.
#[test]
fn profile_is_drained_on_every_exit_path() {
    let hot_loop = parse(
        "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setgt int %i, -1
  br bool %c, label %b, label %x
b:
  %i2 = add int %i, 1
  br label %h
x:
  ret int 0
}",
    );
    let seen = same_in_every_engine(&hot_loop, 10_000);
    assert_eq!(seen.outcome, Err(TrapKind::OutOfFuel));
    assert_eq!(seen.fuel_left, Some(0));
    let main = hot_loop.func_by_name("main").unwrap();
    let h = lpat::core::BlockId::from_index(1);
    assert!(seen.profile.block_count(main, h) > 2_000);

    let trap_in_callee = parse(
        "
define int @inv(int %d) {
e:
  %q = div int 1000, %d
  ret int %q
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 100, %e ], [ %i2, %h ]
  %q = call int @inv(int %i)
  %i2 = sub int %i, 1
  br label %h
}",
    );
    let seen = same_in_every_engine(&trap_in_callee, 20_000_000);
    assert_eq!(seen.outcome, Err(TrapKind::DivByZero));
    let inv = trap_in_callee.func_by_name("inv").unwrap();
    assert_eq!(seen.profile.call_counts[&inv], 101);

    let escaping_unwind = parse(
        "
define void @thrower(int %i) {
e:
  %c = seteq int %i, 120
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  call void @thrower(int %i)
  %i2 = add int %i, 1
  br label %h
}",
    );
    let seen = same_in_every_engine(&escaping_unwind, 20_000_000);
    assert_eq!(seen.outcome, Err(TrapKind::UncaughtUnwind));
    let thrower = escaping_unwind.func_by_name("thrower").unwrap();
    assert_eq!(seen.profile.call_counts[&thrower], 121);
}

// ---------------------------------------------------------------------
// Injected translation faults: the tiered engine demotes the function
// and keeps interpreting; output is unchanged. Fault plans are
// process-global, so this runs through the lpatc driver in a subprocess.
// ---------------------------------------------------------------------

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn tiered_demotes_and_matches_interp_under_translate_fault() {
    let src = "
declare void @print_int(int)
define int @hot(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 500
  br bool %c, label %b, label %x
b:
  %v = call int @hot(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("tiered_fault.ll");
    std::fs::write(&p, src).unwrap();

    let reference = lpatc().arg("run").arg(&p).arg("--quiet").output().unwrap();
    // Every translation attempt faults: all promotions demote, the whole
    // run interprets, and the answer is still right.
    let faulted = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--tiered")
        .arg("--tier-up")
        .arg("1")
        .arg("--inject-faults")
        .arg("jit.translate:io")
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), faulted.status.code());
    assert_eq!(reference.stdout, faulted.stdout);

    // Same plan under the pure JIT is fatal — demotion is a tiered-only
    // recovery.
    let jit_faulted = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--jit")
        .arg("--inject-faults")
        .arg("jit.translate:io@1")
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(jit_faulted.status.code(), Some(2), "pure JIT must fail");

    // A fault on only the *first* translation demotes one function; the
    // rest still promote, and the answer is still right.
    let partial = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--tier-up")
        .arg("1")
        .arg("--inject-faults")
        .arg("jit.translate:io@1")
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), partial.status.code());
    assert_eq!(reference.stdout, partial.stdout);
}

#[test]
fn native_demotes_to_jit_and_matches_interp_under_translate_fault() {
    // The `native.translate` site mirrors `jit.translate` one tier up: a
    // fault there permanently demotes the function to the JIT tier and
    // the run's answer is unchanged. Fault plans are process-global, so
    // this goes through the driver in a subprocess.
    let src = "
declare void @print_int(int)
define int @hot(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 500
  br bool %c, label %b, label %x
b:
  %v = call int @hot(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("native_fault.ll");
    std::fs::write(&p, src).unwrap();

    let reference = lpatc().arg("run").arg(&p).arg("--quiet").output().unwrap();

    // Clean third-tier run: same answer as the interpreter.
    let native = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1", "--native-up", "1", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), native.status.code());
    assert_eq!(reference.stdout, native.stdout);

    // Every native translation faults: all candidates demote to the JIT
    // tier (which still translates fine) and the answer is unchanged.
    let faulted = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1", "--native-up", "1"])
        .args(["--inject-faults", "native.translate:io"])
        .args(["--stats", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), faulted.status.code());
    assert_eq!(reference.stdout, faulted.stdout);
    // The demotion is visible in the tier table: demoted functions, zero
    // native instructions, and JIT instructions picking up the slack.
    let stats = String::from_utf8_lossy(&faulted.stderr);
    let row = |label: &str| -> u64 {
        stats
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .and_then(|l| {
                l.split_whitespace()
                    .filter_map(|w| w.parse::<u64>().ok())
                    .next()
            })
            .unwrap_or_else(|| panic!("no '{label}' row in stats:\n{stats}"))
    };
    assert!(row("native demoted") >= 1, "stats:\n{stats}");
    assert_eq!(row("native insts"), 0, "stats:\n{stats}");
    assert!(row("jit insts") > 0, "stats:\n{stats}");

    // A fault on only the *first* native translation demotes one
    // function; the rest still reach machine code.
    let partial = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1", "--native-up", "1"])
        .args(["--inject-faults", "native.translate:io@1"])
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), partial.status.code());
    assert_eq!(reference.stdout, partial.stdout);
}

// ---------------------------------------------------------------------
// Speculation differentials: a speculated module (guards installed as an
// in-memory overlay) must stay observationally identical across the
// interpreter, the tiered engine at every threshold, the full JIT and
// the machine-code tier — fuel, opcode histogram, and profile counters
// included. A guard is a conditional branch on every engine: a failing
// one takes its else edge, and its counts are its two edges' counts.
// ---------------------------------------------------------------------

/// Hot monomorphic dispatch loop with a polymorphic tail: the guard the
/// profile justifies passes 400 times and fails once.
const SPEC_WORKLOAD: &str = "
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @disp(int (int)* @alpha, int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %w = call int @disp(int (int)* @beta, int 5)
  %t = add int %s, %w
  %m = rem int %t, 97
  call void @print_int(int %m)
  ret int %m
}";

type Speculated = (lpat::core::Module, std::rc::Rc<lpat::transform::SpecMap>);

/// `m` speculated on `profile` with the default options, verified, and
/// its guard overlay.
fn speculate_on(m: &lpat::core::Module, profile: &lpat::transform::SpecProfile) -> Speculated {
    let mut sm = m.clone();
    let (map, _) = lpat::transform::speculate::speculate(
        &mut sm,
        profile,
        &lpat::transform::SpecOptions::default(),
    );
    sm.verify()
        .unwrap_or_else(|e| panic!("speculated module broken: {e:?}"));
    (sm, std::rc::Rc::new(map))
}

/// `m` speculated on the profile of one interpreted run of itself.
fn speculate_on_own_profile(m: &lpat::core::Module) -> Speculated {
    speculate_on(m, &observe(m, "interp", 0, None).profile.to_spec_profile())
}

/// SPEC_WORKLOAD speculated on its own profile. Asserts speculation
/// actually fired.
fn speculated_workload() -> Speculated {
    let (sm, map) = speculate_on_own_profile(&parse(SPEC_WORKLOAD));
    assert!(!map.is_empty(), "speculation emitted nothing");
    (sm, map)
}

#[test]
fn speculated_tiered_matches_interp_at_every_threshold() {
    let (sm, map) = speculated_workload();
    let reference = observe_spec(&sm, "interp", 0, None, Some(&map));
    // Same answer as the unspeculated program.
    let plain = observe(
        &lpat::asm::parse_module("t", SPEC_WORKLOAD).unwrap(),
        "interp",
        0,
        None,
    );
    assert_eq!(reference.outcome, plain.outcome);
    assert_eq!(reference.output, plain.output);
    for t in THRESHOLDS {
        let tiered = observe_spec(&sm, "tiered", t, None, Some(&map));
        assert_eq!(reference, tiered, "speculated run diverged at tier_up={t}");
        let native = observe_full(&sm, "tiered", t, Some(t), None, Some(&map));
        assert_eq!(
            reference, native,
            "speculated run diverged at native_up={t}"
        );
    }
    let jit = observe_spec(&sm, "jit", 0, None, Some(&map));
    assert_eq!(reference, jit, "speculated run diverged under full JIT");

    // A guard is no reason to stay off the native tier: promoted on first
    // call, the guarded `disp` and everything around it run as machine
    // code, and the one failing guard takes its slow path there.
    let (seen, t, sp) = observe_counted(&sm, "tiered", 0, Some(0), None, Some(&map), 20_000_000);
    assert_eq!(t.native_demoted, 0, "{t:?}");
    assert!(
        t.native_insts * 10 > seen.insts * 9,
        "guarded code is not native: {t:?}"
    );
    assert_eq!((sp.passed, sp.failed), (400, 1), "{sp:?}");
}

/// A loop whose body makes an indirect call that goes to `@alpha` nine
/// times in ten: speculation puts a guard *inside the loop of `main`*,
/// failing on every tenth iteration. `extra` is spliced into the loop
/// body (an instruction the native backend refuses keeps `main` on the
/// JIT rung).
fn loop_guard_workload(extra: &str) -> (lpat::core::Module, std::rc::Rc<lpat::transform::SpecMap>) {
    let src = format!(
        "
declare void @print_int(int)
define internal int @alpha(int %x) {{
e:
  %r = add int %x, 1
  ret int %r
}}
define internal int @beta(int %x) {{
e:
  %r = mul int %x, 2
  ret int %r
}}
define int @main() {{
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %call ]
  %s = phi int [ 0, %e ], [ %s2, %call ]
  %c = setlt int %i, {LOOP_GUARD_ITERS}
  br bool %c, label %b, label %x
b:
{extra}
  %r = rem int %i, 10
  %z = seteq int %r, 9
  br bool %z, label %rare, label %call
rare:
  br label %call
call:
  %fp = phi int (int)* [ @beta, %rare ], [ @alpha, %b ]
  %v = call int %fp(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}}"
    );
    let (sm, map) = speculate_on_own_profile(&parse(&src));
    let main = sm.func_by_name("main").unwrap();
    assert!(
        map.guards.iter().any(|g| g.func == main),
        "no guard landed in main's loop"
    );
    (sm, map)
}

const LOOP_GUARD_ITERS: u64 = 2000;

/// The line that keeps `main` of [`loop_guard_workload`] off the native
/// tier: a 64-bit compare.
const LONG_COMPARE: &str = "  %w = cast int %i to long
  %big = setgt long %w, 100000";

/// A failing guard never leaves translated code. `main` carries a guard
/// in its loop that fails every tenth iteration, and stays on the JIT
/// rung for an unrelated reason (a 64-bit compare). Once promoted, its
/// activation enters translated code once and stays there: what is
/// interpreted is the cold start — the entry, the iteration before the
/// promotion and each callee's first call — and not one instruction per
/// failing guard, on the two-tier ladder and on the three-tier one.
#[test]
fn a_failing_guard_never_leaves_translated_code() {
    let (sm, map) = loop_guard_workload(LONG_COMPARE);
    let reference = observe_spec(&sm, "interp", 0, None, Some(&map));
    // Instructions per iteration, callee included.
    let body = reference.insts / LOOP_GUARD_ITERS + 1;
    for native_up in [Some(1), None] {
        let (got, t, sp) =
            observe_counted(&sm, "tiered", 1, native_up, None, Some(&map), 20_000_000);
        if native_up.is_some() {
            assert_eq!(t.native_demoted, 1, "main should be refused: {t:?}");
        }
        assert_eq!(
            sp.failed,
            LOOP_GUARD_ITERS / 10,
            "native_up={native_up:?}: the guard fails every tenth iteration: {sp:?}"
        );
        assert_eq!(t.osr, 1, "native_up={native_up:?}: {t:?}");
        assert!(
            t.interp_insts <= body + 4,
            "native_up={native_up:?}: {} instructions interpreted, one iteration is \
             {body}: {t:?}",
            t.interp_insts
        );
        assert_eq!(reference, got, "native_up={native_up:?}");
    }
}

/// Fuel runs dry on every instruction of a native loop iteration in
/// turn, the guard's own `CondBr` among them: the branch is charged
/// before its edge is taken, so a run that stops there has counted
/// neither a pass nor a failure — as in the interpreter.
#[test]
fn fuel_running_dry_on_a_native_guard_matches_interp() {
    let (sm, map) = loop_guard_workload("");
    let full = observe_spec(&sm, "interp", 0, None, Some(&map));
    let gid = map.guards[0].id;
    let body = full.insts / LOOP_GUARD_ITERS + 1;
    // Iterations 8 and 9 of the loop: a passing and a failing guard.
    let mut guard_counts = std::collections::BTreeSet::new();
    for fuel in 8 * body..10 * body + 2 {
        let reference = observe_fueled(&sm, "interp", 0, None, None, Some(&map), fuel);
        assert_eq!(reference.outcome, Err(TrapKind::OutOfFuel));
        let native = observe_fueled(&sm, "tiered", 0, Some(0), None, Some(&map), fuel);
        assert_eq!(
            reference.profile.to_bytes(),
            native.profile.to_bytes(),
            "fuel={fuel}: profile bytes"
        );
        assert_eq!(reference, native, "fuel={fuel}");
        guard_counts.insert((
            native.profile.guard_exec(gid),
            native.profile.guard_misspec(gid),
        ));
    }
    // The window stepped across guard executions of both kinds, so some
    // fuel value in it ran dry exactly on the guard's branch.
    assert!(guard_counts.len() >= 3, "{guard_counts:?}");
    assert!(guard_counts.iter().any(|&(_, failed)| failed > 0));
}

#[test]
fn speculated_suite_matches_interp() {
    // Speculation over the whole workload suite: profile a run, apply
    // whatever the profile justifies, and require observational identity
    // between interpreter and tiered engine on the speculated module.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let profiled = observe(&m, "interp", 0, None);
        let (sm, map) = speculate_on(&m, &profiled.profile.to_spec_profile());
        let reference = observe_spec(&sm, "interp", 0, None, Some(&map));
        assert_eq!(
            reference.outcome, profiled.outcome,
            "{name}: answer changed"
        );
        assert_eq!(reference.output, profiled.output, "{name}: output changed");
        for t in [0, 1, 50] {
            for native_up in [None, Some(t)] {
                let tiered = observe_full(&sm, "tiered", t, native_up, None, Some(&map));
                assert_eq!(
                    reference, tiered,
                    "{name} diverged at tier_up={t} native_up={native_up:?}"
                );
            }
        }
    }
}

/// Two guards a hand-built profile can make lie about: `@gamma` is
/// address-taken but never called, and the one call passing `-7` to
/// `@disp` sits behind a branch that is never taken.
const LYING_WORKLOAD: &str = "
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define internal int @gamma(int %x) {
e:
  %r = sub int %x, 3
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @disp(int (int)* @alpha, int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %w = call int @disp(int (int)* @beta, int 5)
  %t = add int %s, %w
  %never = seteq int %t, -1
  br bool %never, label %n, label %done
n:
  %z = call int @disp(int (int)* @gamma, int -7)
  br label %done
done:
  %m = rem int %t, 97
  call void @print_int(int %m)
  ret int %m
}";

/// LYING_WORKLOAD speculated on a profile that names what the run never
/// does: `@disp`'s indirect call goes to `@gamma`, and `@disp` is called
/// with `-7`. Both guards land in `@disp` — the devirtualization one in
/// the entry block the constant-argument split then moves.
fn lying_workload() -> (lpat::core::Module, Speculated) {
    use lpat::core::{Inst, Value};
    let m = parse(LYING_WORKLOAD);
    let (disp, gamma, main) = (
        m.func_by_name("disp").unwrap(),
        m.func_by_name("gamma").unwrap(),
        m.func_by_name("main").unwrap(),
    );
    let call_where = |f, pick: &dyn Fn(&Value, &[Value]) -> bool| {
        let body = m.func(f);
        body.inst_ids_in_order()
            .find(|&i| matches!(body.inst(i), Inst::Call { callee, args } if pick(callee, args)))
            .unwrap()
    };
    let indirect = call_where(disp, &|callee, _| !matches!(callee, Value::Const(_)));
    let never = call_where(main, &|_, args| {
        args.len() == 2 && m.consts.int_of(args[1]) == Some(-7)
    });
    let mut lie = lpat::transform::SpecProfile::default();
    lie.callsite_counts.insert((disp, indirect), 1000);
    lie.callsite_counts.insert((main, never), 1000);
    lie.call_counts.insert(gamma, 1000);
    let speculated = speculate_on(&m, &lie);
    assert_eq!(speculated.1.len(), 2, "both lies should be believed");
    (m, speculated)
}

/// Every guard fails: a profile that lies makes each guard take its
/// generic path on every execution, so a speculated run must print the
/// plain run's answer — interpreted, under the JIT, on the two-tier and
/// the default ladder, or as machine code from the first call — and
/// leave what the interpreter leaves: instruction count, fuel, opcode
/// table, and the profile's bytes, per-guard executions and
/// misspeculations included.
#[test]
fn forced_guard_failure_is_observationally_clean() {
    let (plain, (sm, map)) = lying_workload();
    let unspeculated = observe(&plain, "interp", 0, None);
    let interp = observe_spec(&sm, "interp", 0, None, Some(&map));
    assert_eq!(unspeculated.outcome, interp.outcome);
    assert_eq!(
        unspeculated.output, interp.output,
        "forced failure changed the answer"
    );
    for g in &map.guards {
        assert_eq!(interp.profile.guard_exec(g.id), 401, "{}", g.desc);
        assert_eq!(interp.profile.guard_misspec(g.id), 401, "{}", g.desc);
    }
    for (leg, engine, tier_up, native_up) in [
        ("jit", "jit", 0, None),
        ("two tiers", "tiered", 1, None),
        ("default ladder", "tiered", 1, Some(200)),
        ("native", "tiered", 0, Some(0)),
    ] {
        let (got, t, _) = observe_counted(
            &sm,
            engine,
            tier_up,
            native_up,
            None,
            Some(&map),
            20_000_000,
        );
        assert_eq!(
            interp.profile.to_bytes(),
            got.profile.to_bytes(),
            "{leg}: profile bytes"
        );
        assert_eq!(interp, got, "{leg}");
        if leg == "native" {
            assert_eq!(t.native_demoted, 0, "{t:?}");
            assert!(t.native_insts * 10 > got.insts * 9, "{t:?}");
        }
    }
}

/// A small function called with the constant 7 at one hot site and with
/// a varying value at a colder one: speculation specializes it on 7,
/// and the guard fails on the colder calls.
const CONSTARG_WORKLOAD: &str = "
declare void @print_int(int)
define internal int @poly(int %n, int %k) {
e:
  %c = setgt int %n, 0
  br bool %c, label %l, label %d
l:
  %r = mul int %n, %k
  ret int %r
d:
  ret int 0
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %latch ]
  %s = phi int [ 0, %e ], [ %s3, %latch ]
  %c = setlt int %i, 300
  br bool %c, label %b, label %x
b:
  %a = call int @poly(int %i, int 7)
  %s2 = add int %s, %a
  %r = rem int %i, 10
  %z = seteq int %r, 0
  br bool %z, label %rare, label %latch
rare:
  %v = call int @poly(int %i, int %r)
  br label %latch
latch:
  %w = phi int [ %v, %rare ], [ 0, %b ]
  %s3 = add int %s2, %w
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";

/// A guard's counts are a view of the edge profile: every emitted guard
/// has executed exactly as often as its branch took either edge, and
/// misspeculated exactly as often as it took the else edge — on every
/// engine, threshold and program, in the profile each run leaves.
#[test]
fn guard_counts_are_the_edge_counts_of_their_branch() {
    let mut programs: Vec<(String, Speculated)> = lpat::workloads::compile_suite(0)
        .into_iter()
        .map(|(name, m)| (name.to_string(), speculate_on_own_profile(&m)))
        .collect();
    programs.push(("spec".into(), speculated_workload()));
    programs.push(("loop guard".into(), loop_guard_workload("")));
    programs.push((
        "loop guard, 64-bit".into(),
        loop_guard_workload(LONG_COMPARE),
    ));
    programs.push((
        "constarg".into(),
        speculate_on_own_profile(&parse(CONSTARG_WORKLOAD)),
    ));
    programs.push(("lying".into(), lying_workload().1));
    let mut guards = 0;
    for (name, (sm, map)) in &programs {
        guards += map.len();
        let check = |leg: String, seen: Observed| {
            for g in &map.guards {
                let lpat::core::Inst::CondBr {
                    then_bb, else_bb, ..
                } = *sm.func(g.func).inst(g.br)
                else {
                    panic!("{name}: guard {} is not a conditional branch", g.desc);
                };
                let edge = |to| seen.profile.edge_count(g.func, g.block, to);
                assert_eq!(
                    seen.profile.guard_exec(g.id),
                    edge(then_bb) + edge(else_bb),
                    "{name}, {leg}: executions of {}",
                    g.desc
                );
                assert_eq!(
                    seen.profile.guard_misspec(g.id),
                    edge(else_bb),
                    "{name}, {leg}: misspeculations of {}",
                    g.desc
                );
            }
        };
        let spec = Some(map);
        check("interp".into(), observe_spec(sm, "interp", 0, None, spec));
        check("jit".into(), observe_spec(sm, "jit", 0, None, spec));
        for t in [0, 1, 50] {
            for native_up in [None, Some(t)] {
                check(
                    format!("tier_up={t} native_up={native_up:?}"),
                    observe_full(sm, "tiered", t, native_up, None, spec),
                );
            }
        }
    }
    assert!(guards >= 6, "only {guards} guards were emitted");
}

/// `--stats` says why a function is not machine code — and a guard is
/// never the reason.
#[test]
fn stats_name_the_reason_a_function_is_not_native() {
    let bails = |stderr: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(stderr)
            .lines()
            .filter_map(|l| l.strip_prefix("  not native: "))
            .map(str::to_string)
            .collect()
    };
    let float = tmp("bail_float.ll");
    std::fs::write(
        &float,
        "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %d = phi double [ 0x3FF0000000000000, %e ], [ %d2, %h ]
  %d2 = mul double %d, 0x3FF8000000000000
  %i2 = add int %i, 1
  %c = setlt int %i2, 1000
  br bool %c, label %h, label %x
x:
  ret int 0
}",
    )
    .unwrap();
    let out = lpatc()
        .arg("run")
        .arg(&float)
        .args(["--tiered", "--stats"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        bails(&out.stderr),
        ["@main: native backend: float value"],
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A speculated run straight into machine code: the guarded function
    // is translated like any other, so there is no row at all.
    let p = tmp("bail_spec.ll");
    std::fs::write(&p, SPEC_WORKLOAD).unwrap();
    let cache = tmp("bail_spec_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let seed = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--cache-dir"])
        .arg(&cache)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(seed.status.code().is_some());
    let out = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--cache-dir")
        .arg(&cache)
        .args([
            "--speculate",
            "--tier-up",
            "0",
            "--native-up",
            "0",
            "--stats",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 guard(s) emitted"), "{stderr}");
    assert_eq!(bails(&out.stderr), [""; 0], "{stderr}");
}

/// Offline retraction decisions are byte-identical to the in-memory run
/// at any `--jobs`: the canonical plan rendering is printed to stdout by
/// `reopt --speculate` and compared across job counts.
#[test]
fn reopt_speculation_plan_is_byte_identical_across_jobs() {
    let p = tmp("spec_reopt.ll");
    std::fs::write(&p, SPEC_WORKLOAD).unwrap();
    let cache = tmp("spec_reopt_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let seed = lpatc()
        .args(["run"])
        .arg(&p)
        .args(["--profile", "--cache-dir"])
        .arg(&cache)
        .args(["--quiet"])
        .output()
        .unwrap();
    assert!(seed.status.code().is_some());
    let reopt = |jobs: &str| {
        lpatc()
            .arg("reopt")
            .arg(&p)
            .args(["--cache-dir"])
            .arg(&cache)
            .args(["--speculate", "--quiet", "--jobs", jobs])
            .output()
            .unwrap()
    };
    let j1 = reopt("1");
    let j8 = reopt("8");
    assert!(
        j1.status.success(),
        "{}",
        String::from_utf8_lossy(&j1.stderr)
    );
    let plan = String::from_utf8_lossy(&j1.stdout);
    assert!(plan.contains("guard "), "no plan on stdout:\n{plan}");
    assert!(plan.contains("-> emit"), "{plan}");
    assert_eq!(j1.stdout, j8.stdout, "plan differs across --jobs");
}

/// The value of the `label` row of a `--stats` table.
fn stats_row(stderr: &str, label: &str) -> u64 {
    stderr
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .and_then(|l| l.split_whitespace().find_map(|w| w.parse().ok()))
        .unwrap_or_else(|| panic!("no `{label}` row in:\n{stderr}"))
}

/// Retraction closes the loop through the store: a guard trained on one
/// input misspeculates on another, `reopt --speculate` retracts it from
/// what the store recorded, and the next speculated run emits nothing.
/// `main` calls `@alpha` when `i % 10 < k` and `@beta` otherwise, `k`
/// read from the input; its blocks are already in the order the
/// reoptimizer would pick, so the cached module is the source module and
/// keeps its profile.
#[test]
fn a_misspeculating_guard_is_retracted_through_the_store() {
    let p = tmp("retract.ll");
    std::fs::write(
        &p,
        "
declare int @read_int()
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @main() {
e:
  %k = call int @read_int()
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %call ]
  %s = phi int [ 0, %e ], [ %s2, %call ]
  %c = setlt int %i, 200
  br bool %c, label %b, label %x
b:
  %r = rem int %i, 10
  %a = setlt int %r, %k
  br bool %a, label %call, label %other
call:
  %fp = phi int (int)* [ @alpha, %b ], [ @beta, %other ]
  %v = call int %fp(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
other:
  br label %call
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int 0
}",
    )
    .unwrap();
    let cache = tmp("retract_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let lpatc_in_store = |args: &[&str]| {
        let out = lpatc()
            .args(&args[..1])
            .arg(&p)
            .arg("--cache-dir")
            .arg(&cache)
            .args(&args[1..])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    // Training: 9 calls in 10 go to @alpha.
    lpatc_in_store(&["run", "--input", "9"]);
    // Speculated on that, run where 8 in 10 go to @beta.
    let (answer, stderr) = lpatc_in_store(&["run", "--speculate", "--input", "2", "--stats"]);
    assert!(
        stderr.contains("1 guard(s) emitted, 0 retracted"),
        "{stderr}"
    );
    assert_eq!(stats_row(&stderr, "guard passed"), 40, "{stderr}");
    assert_eq!(stats_row(&stderr, "guard failed"), 160, "{stderr}");
    let (plan, stderr) = lpatc_in_store(&["reopt", "--speculate"]);
    assert!(
        stderr.contains("inlined 0 hot sites, re-laid 0 functions (2 runs of profile)"),
        "{stderr}"
    );
    assert!(
        plan.contains("=> alpha exec=200 misspec=160 -> retract"),
        "{plan}"
    );
    let (again, stderr) = lpatc_in_store(&["run", "--speculate", "--input", "2", "--stats"]);
    assert_eq!(answer, again);
    assert_eq!(stats_row(&stderr, "retracted"), 1, "{stderr}");
    assert_eq!(stats_row(&stderr, "guards emitted"), 0, "{stderr}");
    assert_eq!(stats_row(&stderr, "guard failed"), 0, "{stderr}");
}

#[test]
fn lpatc_tiered_warm_start_from_store_matches_cold() {
    let src = "
declare void @print_int(int)
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 3000
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 101
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("tiered_store.ll");
    std::fs::write(&p, src).unwrap();
    let cache = tmp("tiered_store_cache");
    let _ = std::fs::remove_dir_all(&cache);

    let run = |extra: &[&str]| {
        let mut c = lpatc();
        c.arg("run")
            .arg(&p)
            .arg("--tiered")
            .arg("--cache-dir")
            .arg(&cache);
        for a in extra {
            c.arg(a);
        }
        c.output().unwrap()
    };
    let cold = run(&["--quiet"]);
    let warm = run(&[]);
    assert_eq!(cold.status.code(), warm.status.code());
    assert_eq!(cold.stdout, warm.stdout);
    let notices = String::from_utf8_lossy(&warm.stderr);
    assert!(
        notices.contains("warm-start"),
        "second run did not warm-start: {notices}"
    );
}

/// `src` as the front end emits it and after the `-O` pipeline: loops are
/// rotated and conditions lowered as jumping code in both, and every
/// engine must agree with the interpreter on each.
fn minic_same_in_every_engine(src: &str) -> [Observed; 2] {
    let m = lpat::minic::compile("t", src).unwrap_or_else(|e| panic!("{e}"));
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let mut opt = m.clone();
    lpat::transform::function_pipeline().run(&mut opt);
    opt.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let [plain, opt] = [&m, &opt].map(|m| same_in_every_engine(m, 20_000_000));
    assert_eq!(
        (&plain.outcome, &plain.output),
        (&opt.outcome, &opt.output),
        "-O changed what the program does"
    );
    [plain, opt]
}

#[test]
fn zero_trip_loops_skip_their_body_and_step() {
    let [seen, _] = minic_same_in_every_engine(
        "extern void print_int(int v);
int n;
int main() {
  int i; int s;
  s = 0;
  i = 5;
  while (i < n) { s = s + 1; i = i + 1; }
  for (i = 0; i < 0; i = i + 1) s = s + 100;
  for (i = 10; i < n; i = i + 1) s = s + 1000;
  while (false) s = s + 7;
  print_int(s);
  print_int(i);
  return s + i;
}",
    );
    assert_eq!((seen.outcome, seen.output.as_str()), (Ok(10), "0\n10\n"));
}

#[test]
fn continue_and_break_in_nested_while_and_for_loops() {
    // `continue` in a `for` runs the step; a `for` without a test leaves
    // only by `break`.
    let [seen, _] = minic_same_in_every_engine(
        "extern void print_int(int v);
int main() {
  int i; int j; int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 3 == 0) continue;
    if (i == 8) break;
    j = 0;
    while (true) {
      j = j + 1;
      if (j > i) break;
      if (j % 2 == 0) continue;
      s = s + j * 10 + i;
    }
  }
  print_int(s);
  print_int(i);
  i = 0;
  while (i < 20) {
    i = i + 1;
    if (i % 4 == 0) continue;
    if (i > 13) break;
    for (j = 0; ; j = j + 1) {
      if (j == i % 3) break;
      s = s + 1;
    }
    s = s + 100;
  }
  print_int(s);
  print_int(i);
  return s % 256;
}",
    );
    assert_eq!(
        (seen.outcome, seen.output.as_str()),
        (Ok(94), "364\n8\n1374\n14\n")
    );
}

#[test]
fn a_loop_test_with_side_effects_runs_once_per_iteration_and_once_more() {
    let [seen, _] = minic_same_in_every_engine(
        "extern void print_int(int v);
int calls;
int next() { calls = calls + 1; return calls; }
int main() {
  int it;
  it = 0;
  while (next() < 5) it = it + 1;
  print_int(it);
  print_int(calls);
  for (calls = 0; next() < 3; ) it = it + 10;
  print_int(it);
  print_int(calls);
  calls = 10;
  while (next() < 5) it = it + 1000;
  print_int(it);
  print_int(calls);
  return it;
}",
    );
    assert_eq!(
        (seen.outcome, seen.output.as_str()),
        (Ok(24), "4\n5\n24\n3\n24\n11\n")
    );
}

#[test]
fn and_or_not_conditions_keep_the_short_circuit_order() {
    // `trace` records which operands ran, in order; `&&` and `||` in value
    // position and in a `?:` test as well as in `if`, `while` and `for`.
    let [seen, _] = minic_same_in_every_engine(
        "extern void print_int(int v);
int trace;
int t(int id, int v) { trace = trace * 10 + id; return v; }
int main() {
  int n; int k; int v;
  n = 0;
  trace = 0;
  if (t(1, 0) && t(2, 1)) n = n + 1;
  print_int(trace);
  trace = 0;
  if (t(1, 1) && t(2, 0)) n = n + 1; else n = n + 2;
  print_int(trace);
  trace = 0;
  if (t(1, 1) || t(2, 1)) n = n + 4;
  print_int(trace);
  trace = 0;
  if (!(t(1, 0) || t(2, 0)) && !t(3, 0)) n = n + 8;
  print_int(trace);
  trace = 0;
  k = 0;
  while (t(1, k < 3) && !t(2, k == 1)) k = k + 1;
  print_int(trace);
  trace = 0;
  for (k = 0; t(1, k == 0) || t(2, k < 2); k = k + 1) n = n + 16;
  print_int(trace);
  trace = 0;
  v = t(1, 0) || t(2, 5);
  print_int(trace);
  print_int(v);
  trace = 0;
  v = t(1, 1) && t(2, 0) ? 5 : 6;
  print_int(trace);
  print_int(v);
  print_int(n);
  return n;
}",
    );
    assert_eq!(
        (seen.outcome, seen.output.as_str()),
        (Ok(46), "1\n12\n1\n123\n1212\n11212\n12\n1\n12\n6\n46\n")
    );
}

/// A counted loop runs one branch per iteration after `-O`: its guard
/// folds away and the test sits in the latch, so 1000 iterations execute
/// the latch's 1000 `br`s and at most two more.
#[test]
fn an_optimized_counted_loop_runs_one_branch_per_iteration() {
    let [_, seen] = minic_same_in_every_engine(
        "extern void print_int(int v);
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 1000; i = i + 1) s = s + i;
  print_int(s);
  return 0;
}",
    );
    assert_eq!(seen.output, "499500\n");
    let br = lpat::core::Inst::Br(lpat::core::BlockId::from_index(0)).opcode_index();
    assert!(
        seen.opcode_counts[br] <= 1000 + 2,
        "{} br executed",
        seen.opcode_counts[br]
    );
}
