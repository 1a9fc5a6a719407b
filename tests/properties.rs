//! Randomized property tests over generated programs (no external
//! dependencies: a seeded SplitMix64 generator drives the cases, so runs
//! are deterministic and reproducible by seed):
//!
//! * the three equivalent forms round-trip losslessly;
//! * the verifier accepts everything the generator builds;
//! * the scalar optimizers preserve the VM-observable result;
//! * constant folding agrees with the interpreter's arithmetic.
//!
//! Build with `--features slow-tests` to multiply the case counts.

use lpat::core::hash::SplitMix64;
use lpat::core::{inst::Value, BinOp, CmpPred, IntKind, Linkage, Module};
use lpat::vm::{ExecError, Vm, VmOptions, VmValue};

/// Deterministic 64-bit generator (SplitMix64).
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(SplitMix64(seed))
    }
    fn next(&mut self) -> u64 {
        self.0.next()
    }
    fn usize(&mut self, bound: usize) -> usize {
        self.0.below(bound as u64) as usize
    }
    fn i32(&mut self) -> i32 {
        self.next() as i32
    }
    fn i64(&mut self) -> i64 {
        self.next() as i64
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.usize(xs.len())]
    }
}

/// Number of random cases per property (`slow-tests` multiplies by 8).
fn cases() -> u64 {
    if cfg!(feature = "slow-tests") {
        512
    } else {
        64
    }
}

/// A recipe for one instruction in a generated straight-line function.
#[derive(Clone, Debug)]
enum OpSpec {
    Bin(BinOp, usize, usize),
    Cmp(CmpPred, usize, usize),
    Const(i32),
}

fn gen_ops(rng: &mut Rng) -> Vec<OpSpec> {
    let n = 1 + rng.usize(39);
    (0..n)
        .map(|_| match rng.usize(3) {
            0 => OpSpec::Bin(*rng.pick(&BinOp::ALL[..]), rng.usize(64), rng.usize(64)),
            1 => OpSpec::Cmp(*rng.pick(&CmpPred::ALL[..]), rng.usize(64), rng.usize(64)),
            _ => OpSpec::Const(rng.i32()),
        })
        .collect()
}

/// Build `int f(int, int)` from the recipe, plus a `main` that calls it
/// with the given constants. All values are `int`; comparisons are cast
/// back to `int` so every op feeds the same pool.
fn build(ops: &[OpSpec], a0: i32, a1: i32) -> Module {
    let mut m = Module::new("gen");
    let i32t = m.types.i32();
    let f = m.add_function("f", &[i32t, i32t], i32t, false, Linkage::Internal);
    let mut b = m.builder(f);
    b.block();
    let mut pool: Vec<Value> = vec![Value::Arg(0), Value::Arg(1)];
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let v = match op {
            OpSpec::Bin(op, x, y) => b.bin(*op, pick(*x), pick(*y)),
            OpSpec::Cmp(p, x, y) => {
                let c = b.cmp(*p, pick(*x), pick(*y));
                b.cast(c, i32t)
            }
            OpSpec::Const(k) => b.iconst32(*k),
        };
        pool.push(v);
    }
    let last = *pool.last().unwrap();
    b.ret(Some(last));
    let main = m.add_function("main", &[], i32t, false, Linkage::External);
    let mut b = m.builder(main);
    b.block();
    let c0 = b.iconst32(a0);
    let c1 = b.iconst32(a1);
    let r = b.call(f, vec![c0, c1]);
    b.ret(Some(r));
    m
}

/// Run main; traps map to a distinguishable sentinel so optimized and
/// unoptimized programs can be compared even when they trap.
fn observe(m: &Module) -> Result<i64, &'static str> {
    let opts = VmOptions {
        fuel: Some(1_000_000),
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    match vm.run_main() {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(match kind {
            lpat::vm::TrapKind::DivByZero => "div0",
            _ => "trap",
        }),
        Err(_) => Err("exit"),
    }
}

#[test]
fn generated_ir_verifies_and_round_trips() {
    let mut rng = Rng::new(0xA11C_E500);
    for case in 0..cases() {
        let ops = gen_ops(&mut rng);
        let (a0, a1) = (rng.i32(), rng.i32());
        let m = build(&ops, a0, a1);
        assert!(m.verify().is_ok(), "case {case}: {:?}", m.verify());
        // Text round trip.
        let text = m.display();
        let re = lpat::asm::parse_module("gen", &text).unwrap();
        assert_eq!(&text, &re.display(), "case {case}");
        // Binary round trip.
        let bytes = lpat::bytecode::write_module(&m);
        let rb = lpat::bytecode::read_module("gen", &bytes).unwrap();
        assert_eq!(&text, &rb.display(), "case {case}");
    }
}

#[test]
fn optimizers_preserve_observable_behavior() {
    let mut rng = Rng::new(0xB0B0_CAFE);
    for case in 0..cases() {
        let ops = gen_ops(&mut rng);
        let (a0, a1) = (rng.i32(), rng.i32());
        let m = build(&ops, a0, a1);
        let before = observe(&m);
        let mut o = m.clone();
        lpat::transform::function_pipeline().run(&mut o);
        assert!(o.verify().is_ok(), "case {case}: {:?}", o.verify());
        // Division/remainder by zero is *undefined behavior* in the IR
        // (as in C and in LLVM itself); the VM traps as a sanitizer
        // courtesy. Optimizers may therefore delete an unused trapping
        // division — so when the baseline execution hits UB, any outcome
        // is acceptable for the optimized program.
        if before != Err("div0") {
            assert_eq!(before, observe(&o), "case {case}: function pipeline");
        }
        lpat::transform::link_time_pipeline().run(&mut o);
        assert!(o.verify().is_ok(), "case {case}");
        if before != Err("div0") {
            assert_eq!(before, observe(&o), "case {case}: link-time pipeline");
        }
    }
}

#[test]
fn constant_folding_matches_interpreter() {
    use lpat::core::fold::fold_bin;
    use lpat::core::Const;
    let mut rng = Rng::new(0xF01D_0101);
    for case in 0..cases() * 4 {
        let op = *rng.pick(&BinOp::ALL[..]);
        let kind = *rng.pick(&IntKind::ALL[..]);
        let (x, y) = (rng.i64(), rng.i64());
        let a = Const::Int {
            kind,
            value: kind.canonicalize(x),
        };
        let b = Const::Int {
            kind,
            value: kind.canonicalize(y),
        };
        let mut pool = lpat::core::ConstPool::new();
        let folded = fold_bin(&mut pool, op, &a, &b);
        // Interpreter result via a one-instruction program.
        let mut m = Module::new("t");
        let ty = m.types.int(kind);
        let f = m.add_function("f", &[ty, ty], ty, false, Linkage::External);
        let mut bl = m.builder(f);
        bl.block();
        let r = bl.bin(op, Value::Arg(0), Value::Arg(1));
        bl.ret(Some(r));
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        let exec = vm.run_function(f, vec![VmValue::int(kind, x), VmValue::int(kind, y)]);
        match (folded, exec) {
            (Some(Const::Int { value, .. }), Ok(Some(v))) => {
                assert_eq!(
                    Some(value),
                    v.as_i64(),
                    "case {case}: {:?} {} {:?}",
                    a,
                    op.name(),
                    b
                );
            }
            (None, Err(_)) => {} // div/rem by zero: not folded, traps
            (fold, run) => panic!("case {case}: fold {fold:?} vs run {run:?}"),
        }
    }
}

#[test]
fn type_display_parses_back() {
    let mut rng = Rng::new(0x7E57_7E57);
    for case in 0..cases() {
        // Random nested types built from the four derived constructors.
        let depth = rng.usize(4);
        let seed = rng.next() as u32;
        let mut m = Module::new("t");
        let mut ty = match seed % 5 {
            0 => m.types.i8(),
            1 => m.types.i32(),
            2 => m.types.u64(),
            3 => m.types.f64(),
            _ => m.types.bool_(),
        };
        for i in 0..depth {
            let w = rng.usize(4);
            ty = match (seed as usize + i) % 3 {
                0 => m.types.ptr(ty),
                1 => m.types.array(ty, w as u64 + 1),
                _ => {
                    let fields = vec![ty; w + 1];
                    m.types.struct_lit(fields)
                }
            };
        }
        let pty = m.types.ptr(ty);
        // Round-trip through a function signature.
        m.add_function("f", &[pty], m.types.void(), false, Linkage::External);
        let text = m.display();
        let re = lpat::asm::parse_module("t", &text).unwrap();
        assert_eq!(text, re.display(), "case {case}");
    }
}

/// Cross-run guard-counter merge: misspeculation and execution counts
/// saturate at `u64::MAX` (never wrap) and the accumulated profile is
/// independent of merge order. The seed folds in `LPAT_STORE_MATRIX`, so
/// every CI store-matrix leg shuffles the runs differently — and every
/// leg must converge on byte-identical accumulated bytes.
#[test]
fn guard_merge_saturates_and_is_order_independent() {
    use lpat::vm::ProfileData;
    let tag = std::env::var("LPAT_STORE_MATRIX").unwrap_or_default();
    let mut seed = 0xabad_cafe_d00d_u64;
    for b in tag.bytes() {
        seed = seed.wrapping_mul(0x0100_0000_01b3) ^ b as u64;
    }
    let mut rng = Rng::new(seed);
    // Guard ids as the planner packs them: devirt (bit 31 clear) and
    // const-arg specialization (bit 31 set).
    let ids = [0x0003_0000u32, 0x0001_0002, 0x8003_0001, 0x8000_0000];
    for case in 0..cases() {
        let k = 2 + rng.usize(6);
        let runs: Vec<ProfileData> = (0..k)
            .map(|_| {
                let mut p = ProfileData::default();
                for &id in &ids {
                    if rng.usize(3) == 0 {
                        continue; // guard not executed this run
                    }
                    // A third of the counts sit close enough to the
                    // ceiling that any multi-run sum overflows.
                    let near_max = rng.usize(3) == 0;
                    let exec = if near_max {
                        u64::MAX - rng.next() % 4
                    } else {
                        rng.next() % 1_000
                    };
                    p.guard_exec_counts.insert(id, exec);
                    p.guard_misspec_counts
                        .insert(id, exec.min(rng.next() % 1_000));
                }
                p
            })
            .collect();
        // Reference: forward merge.
        let mut fwd = ProfileData::default();
        for r in &runs {
            fwd.merge_saturating(r);
        }
        // Saturation: each id's merged count is the saturating sum.
        for &id in &ids {
            let want = runs
                .iter()
                .fold(0u64, |a, r| a.saturating_add(r.guard_exec(id)));
            assert_eq!(fwd.guard_exec(id), want, "case {case} id {id:#x}");
            let want_m = runs
                .iter()
                .fold(0u64, |a, r| a.saturating_add(r.guard_misspec(id)));
            assert_eq!(fwd.guard_misspec(id), want_m, "case {case} id {id:#x}");
        }
        // Order independence, down to the canonical container bytes the
        // store would persist.
        let mut perm: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            perm.swap(i, rng.usize(i + 1));
        }
        let mut shuffled = ProfileData::default();
        for &i in &perm {
            shuffled.merge_saturating(&runs[i]);
        }
        assert_eq!(
            fwd.to_bytes(),
            shuffled.to_bytes(),
            "case {case}: merge order {perm:?} changed the accumulated profile"
        );
    }
}
