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
use lpat::core::{inst::Value, BinOp, CmpPred, Const, IntKind, Linkage, Module, TypeId};
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

/// A scalar operand, as both the folder (`Const`) and the VM (`VmValue`)
/// are handed it.
#[derive(Copy, Clone, Debug)]
enum Scalar {
    Int(IntKind, i64),
    Bool(bool),
    F32(f32),
    F64(f64),
    Null,
}

/// The type of a [`Scalar`], also used as a cast target.
#[derive(Copy, Clone, Debug)]
enum ScalarTy {
    Int(IntKind),
    Bool,
    F32,
    F64,
    Ptr,
}

impl ScalarTy {
    fn id(self, m: &mut Module) -> TypeId {
        match self {
            ScalarTy::Int(k) => m.types.int(k),
            ScalarTy::Bool => m.types.bool_(),
            ScalarTy::F32 => m.types.f32(),
            ScalarTy::F64 => m.types.f64(),
            ScalarTy::Ptr => m.types.ptr(m.types.i8()),
        }
    }
}

impl Scalar {
    fn ty(self) -> ScalarTy {
        match self {
            Scalar::Int(k, _) => ScalarTy::Int(k),
            Scalar::Bool(_) => ScalarTy::Bool,
            Scalar::F32(_) => ScalarTy::F32,
            Scalar::F64(_) => ScalarTy::F64,
            Scalar::Null => ScalarTy::Ptr,
        }
    }
    fn as_const(self, m: &mut Module) -> Const {
        match self {
            Scalar::Int(kind, v) => Const::Int {
                kind,
                value: kind.canonicalize(v),
            },
            Scalar::Bool(b) => Const::Bool(b),
            Scalar::F32(f) => Const::F32(f.to_bits()),
            Scalar::F64(f) => Const::F64(f.to_bits()),
            Scalar::Null => Const::Null(ScalarTy::Ptr.id(m)),
        }
    }
    fn as_vm(self) -> VmValue {
        match self {
            Scalar::Int(kind, v) => VmValue::int(kind, v),
            Scalar::Bool(b) => VmValue::Bool(b),
            Scalar::F32(f) => VmValue::F32(f),
            Scalar::F64(f) => VmValue::F64(f),
            Scalar::Null => VmValue::Ptr(0),
        }
    }
}

/// One instruction over constant operands: a question the folder and the
/// VM are both asked.
#[derive(Copy, Clone, Debug)]
enum Shared {
    Bin(BinOp, Scalar, Scalar),
    Cmp(CmpPred, Scalar, Scalar),
    Cast(Scalar, ScalarTy),
}

/// Everything `lpat_core::fold` and the VM's `exec_*` both implement:
/// random integer arithmetic, then comparisons and casts swept over every
/// kind and over the values where the two could part ways (sign and width
/// boundaries, NaN, ±0, both float→int clamps).
fn shared_inputs(rng: &mut Rng) -> Vec<Shared> {
    let mut out = Vec::new();
    for _ in 0..cases() * 4 {
        let kind = *rng.pick(&IntKind::ALL[..]);
        let (a, b) = (Scalar::Int(kind, rng.i64()), Scalar::Int(kind, rng.i64()));
        out.push(Shared::Bin(*rng.pick(&BinOp::ALL[..]), a, b));
    }
    let edges = [0, 1, -1, 127, 128, 255, 256, i64::MAX, i64::MIN];
    let f64s = [
        f64::NAN,
        0.0,
        -0.0,
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        // At and beyond the signed and unsigned clamps.
        i64::MAX as f64,
        i64::MIN as f64,
        u64::MAX as f64,
        -1e30,
        1e30,
        rng.i32() as f64 / 7.0,
    ];
    let floats = |x: f64| [Scalar::F64(x), Scalar::F32(x as f32)];
    for pred in CmpPred::ALL {
        for kind in IntKind::ALL {
            for _ in 0..4 {
                let (x, y) = (*rng.pick(&edges), rng.i64());
                out.push(Shared::Cmp(
                    pred,
                    Scalar::Int(kind, x),
                    Scalar::Int(kind, y),
                ));
                out.push(Shared::Cmp(
                    pred,
                    Scalar::Int(kind, y),
                    Scalar::Int(kind, x),
                ));
                out.push(Shared::Cmp(
                    pred,
                    Scalar::Int(kind, x),
                    Scalar::Int(kind, x),
                ));
            }
        }
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            out.push(Shared::Cmp(pred, Scalar::Bool(x), Scalar::Bool(y)));
        }
        out.push(Shared::Cmp(pred, Scalar::Null, Scalar::Null));
        for x in f64s {
            for y in f64s {
                for (a, b) in floats(x).into_iter().zip(floats(y)) {
                    out.push(Shared::Cmp(pred, a, b));
                }
            }
        }
    }
    let float_tys = [ScalarTy::F32, ScalarTy::F64];
    for from in IntKind::ALL {
        for v in edges.into_iter().chain([rng.i64(), rng.i64()]) {
            let v = Scalar::Int(from, v);
            let ints = IntKind::ALL.map(ScalarTy::Int);
            for to in ints.into_iter().chain(float_tys).chain([ScalarTy::Bool]) {
                out.push(Shared::Cast(v, to));
            }
        }
    }
    for x in f64s {
        for v in floats(x) {
            let ints = IntKind::ALL.map(ScalarTy::Int);
            for to in ints.into_iter().chain(float_tys).chain([ScalarTy::Bool]) {
                out.push(Shared::Cast(v, to));
            }
        }
    }
    for b in [false, true] {
        for to in IntKind::ALL.map(ScalarTy::Int) {
            out.push(Shared::Cast(Scalar::Bool(b), to));
        }
        out.push(Shared::Cast(Scalar::Bool(b), ScalarTy::Bool));
    }
    for to in IntKind::ALL.map(ScalarTy::Int) {
        out.push(Shared::Cast(Scalar::Null, to));
    }
    out.push(Shared::Cast(Scalar::Null, ScalarTy::Bool));
    out.push(Shared::Cast(Scalar::Null, ScalarTy::Ptr));
    out
}

#[test]
fn constant_folding_matches_interpreter() {
    use lpat::core::fold::{fold_bin, fold_cast, fold_cmp};
    let mut rng = Rng::new(0xF01D_0101);
    for (case, input) in shared_inputs(&mut rng).into_iter().enumerate() {
        // The folder's answer, and the VM's via a one-instruction program.
        let mut m = Module::new("t");
        let (a, b) = match input {
            Shared::Bin(_, a, b) | Shared::Cmp(_, a, b) => (a, b),
            Shared::Cast(a, _) => (a, a),
        };
        let (ca, cb) = (a.as_const(&mut m), b.as_const(&mut m));
        let (ta, tb) = (a.ty().id(&mut m), b.ty().id(&mut m));
        let (folded, ret) = match input {
            Shared::Bin(op, ..) => (fold_bin(op, &ca, &cb), ta),
            Shared::Cmp(pred, ..) => (fold_cmp(pred, &ca, &cb).map(Const::Bool), m.types.bool_()),
            Shared::Cast(_, to) => {
                let to = to.id(&mut m);
                (fold_cast(&m.types, &ca, to), to)
            }
        };
        let f = m.add_function("f", &[ta, tb], ret, false, Linkage::External);
        let mut bl = m.builder(f);
        bl.block();
        let r = match input {
            Shared::Bin(op, ..) => bl.bin(op, Value::Arg(0), Value::Arg(1)),
            Shared::Cmp(pred, ..) => bl.cmp(pred, Value::Arg(0), Value::Arg(1)),
            Shared::Cast(..) => bl.cast(Value::Arg(0), ret),
        };
        bl.ret(Some(r));
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        let exec = vm.run_function(f, vec![a.as_vm(), b.as_vm()]);
        // Where the folder declines, the VM must do what the IR says.
        let unordered = |s: Scalar| match s {
            Scalar::F32(f) => f.is_nan(),
            Scalar::F64(f) => f.is_nan(),
            _ => false,
        };
        let same = match (&folded, &exec, input) {
            (Some(Const::Int { kind, value }), Ok(Some(v)), _) => *v == VmValue::int(*kind, *value),
            (Some(Const::Bool(b)), Ok(Some(v)), _) => *v == VmValue::Bool(*b),
            (Some(Const::F32(bits)), Ok(Some(VmValue::F32(v))), _) => *bits == v.to_bits(),
            (Some(Const::F64(bits)), Ok(Some(VmValue::F64(v))), _) => *bits == v.to_bits(),
            (Some(Const::Null(_)), Ok(Some(v)), _) => *v == VmValue::Ptr(0),
            // div/rem by zero: not folded, traps.
            (None, Err(_), Shared::Bin(BinOp::Div | BinOp::Rem, _, Scalar::Int(k, y))) => {
                k.canonicalize(y) == 0
            }
            // Unordered: not folded, and per IEEE only `setne` holds.
            (None, Ok(Some(v)), Shared::Cmp(pred, a, b)) => {
                (unordered(a) || unordered(b)) && *v == VmValue::Bool(pred == CmpPred::Ne)
            }
            _ => false,
        };
        assert!(
            same,
            "case {case}: {input:?}: fold {folded:?} vs run {exec:?}"
        );
    }
}

/// A generated aggregate type with its own idea of layout (natural
/// alignment, ILP32), independent of `TypeCtx`.
#[derive(Clone, Debug)]
enum GenTy {
    Prim(ScalarTy),
    Array(Box<GenTy>, u64),
    Struct(Vec<GenTy>),
}

impl GenTy {
    fn random(rng: &mut Rng, depth: usize) -> GenTy {
        let prims = IntKind::ALL.map(ScalarTy::Int);
        let prims =
            prims
                .into_iter()
                .chain([ScalarTy::Bool, ScalarTy::F32, ScalarTy::F64, ScalarTy::Ptr]);
        match (depth, rng.usize(5)) {
            (0, _) | (_, 0) => GenTy::Prim(*rng.pick(&prims.collect::<Vec<_>>())),
            (_, 1 | 2) => GenTy::Array(
                Box::new(GenTy::random(rng, depth - 1)),
                1 + rng.usize(4) as u64,
            ),
            _ => GenTy::Struct(
                (0..1 + rng.usize(4))
                    .map(|_| GenTy::random(rng, depth - 1))
                    .collect(),
            ),
        }
    }
    fn id(&self, m: &mut Module) -> TypeId {
        match self {
            GenTy::Prim(p) => p.id(m),
            GenTy::Array(elem, len) => {
                let elem = elem.id(m);
                m.types.array(elem, *len)
            }
            GenTy::Struct(fields) => {
                let fields = fields.iter().map(|f| f.id(m)).collect();
                m.types.struct_lit(fields)
            }
        }
    }
    fn align(&self) -> u64 {
        match self {
            GenTy::Prim(ScalarTy::Int(k)) => k.bytes(),
            GenTy::Prim(ScalarTy::Bool) => 1,
            GenTy::Prim(ScalarTy::F64) => 8,
            GenTy::Prim(ScalarTy::F32 | ScalarTy::Ptr) => 4,
            GenTy::Array(elem, _) => elem.align(),
            GenTy::Struct(fields) => fields.iter().map(GenTy::align).max().unwrap(),
        }
    }
    fn size(&self) -> u64 {
        match self {
            GenTy::Prim(_) => self.align(),
            GenTy::Array(elem, len) => elem.size() * len,
            GenTy::Struct(fields) => self
                .field_offset(fields.len())
                .next_multiple_of(self.align()),
        }
    }
    /// Offset of field `n` of a struct (`n == len`: the unpadded end).
    fn field_offset(&self, n: usize) -> u64 {
        let GenTy::Struct(fields) = self else {
            panic!("not a struct")
        };
        let end = fields[..n]
            .iter()
            .fold(0u64, |off, f| off.next_multiple_of(f.align()) + f.size());
        fields
            .get(n)
            .map_or(end, |f| end.next_multiple_of(f.align()))
    }
}

/// One `getelementptr` over a random aggregate, with constant and
/// run-time indices of every kind: every consumer of the instruction —
/// the builder's typing, the bytecode reader's, the parser's, the
/// verifier, the three engines' address arithmetic, DSA's offsets — must
/// agree with each other and with the layout computed right here.
#[test]
fn one_gep_every_consumer_agrees() {
    use lpat::analysis::{CallGraph, Dsa, DsaOptions};
    use lpat::codegen::fast::{translate_fast, FastEnv};
    use lpat::core::{GepError, GepStep, Inst};
    let mut rng = Rng::new(0x6E9_A6EE);
    for case in 0..cases() {
        let gty = loop {
            let depth = 1 + rng.usize(4);
            match GenTy::random(&mut rng, depth) {
                GenTy::Prim(_) => continue,
                aggregate => break aggregate,
            }
        };
        let mut m = Module::new("gep");
        let ty = gty.id(&mut m);
        let init = m.consts.zero(ty);
        let g = m.add_global("g", ty, Some(init), false, Linkage::Internal);
        // The index path: (kind, value, constant?) per index, and the
        // byte offset it denotes by this file's arithmetic.
        let int = |rng: &mut Rng| {
            let kind = *rng.pick(&IntKind::ALL[..]);
            let edges = [0, 1, -1, 3, i64::MAX, i64::MIN, rng.i64()];
            (kind, kind.canonicalize(*rng.pick(&edges)))
        };
        let mut path: Vec<(IntKind, i64, bool)> = Vec::new();
        let mut want: i64 = 0;
        let (k0, v0) = int(&mut rng);
        path.push((k0, v0, rng.usize(2) == 0));
        want = want.wrapping_add(v0.wrapping_mul(gty.size() as i64));
        let mut cur = &gty;
        while rng.usize(5) != 0 {
            match cur {
                GenTy::Prim(_) => break,
                GenTy::Array(elem, _) => {
                    let (k, v) = int(&mut rng);
                    path.push((k, v, rng.usize(2) == 0));
                    want = want.wrapping_add(v.wrapping_mul(elem.size() as i64));
                    cur = elem;
                }
                GenTy::Struct(fields) => {
                    let n = rng.usize(fields.len());
                    path.push((*rng.pick(&IntKind::ALL[..]), n as i64, true));
                    want = want.wrapping_add(cur.field_offset(n) as i64);
                    cur = &fields[n];
                }
            }
        }
        let all_const = path.iter().all(|&(_, _, is_const)| is_const);
        // Run-time indices are loaded from globals, so no engine and no
        // analysis sees them as constants.
        let cells: Vec<_> = path
            .iter()
            .enumerate()
            .map(|(i, &(kind, v, _))| {
                let init = m.consts.int(kind, v);
                let ity = m.types.int(kind);
                m.add_global(&format!("i{i}"), ity, Some(init), false, Linkage::Internal)
            })
            .collect();
        let u32t = m.types.u32();
        let main = m.add_function("main", &[], u32t, false, Linkage::External);
        let mut b = m.builder(main);
        b.block();
        let indices: Vec<Value> = path
            .iter()
            .zip(&cells)
            .map(|(&(kind, v, is_const), &cell)| match is_const {
                true => b.iconst(kind, v),
                false => {
                    let addr = b.global_addr(cell);
                    b.load(addr)
                }
            })
            .collect();
        let base = b.global_addr(g);
        let gep = b.gep(base, indices.clone());
        let addr = b.cast(gep, u32t);
        b.ret(Some(addr));
        let what = format!("case {case}: {gty:?} via {path:?}");

        // Typing: builder = walker = bytecode reader = parser = verifier.
        let landed = cur.id(&mut m);
        let gep_ty = |m: &Module| {
            let f = m.func(m.func_by_name("main").unwrap());
            let gep = f
                .inst_ids_in_order()
                .find(|&i| matches!(f.inst(i), Inst::Gep { .. }))
                .unwrap();
            m.types.display(f.inst_ty(gep))
        };
        let built = gep_ty(&m);
        assert_eq!(built, format!("{}*", m.types.display(landed)), "{what}");
        assert_eq!(m.verify(), Ok(()), "{what}");
        let bytes = lpat::bytecode::write_module(&m);
        let read = lpat::bytecode::read_module("gep", &bytes).unwrap();
        assert_eq!(gep_ty(&read), built, "{what}: bytecode");
        let parsed = lpat::asm::parse_module("gep", &m.display()).unwrap();
        assert_eq!(gep_ty(&parsed), built, "{what}: text");
        assert_eq!(parsed.display(), m.display(), "{what}: text");

        // The walker's own steps add up to the same offset.
        let value_of = |v: Value| {
            let at = indices.iter().position(|&i| i == v).unwrap();
            path[at].1
        };
        let mut walked: i64 = 0;
        let base_ty = m.global(g).addr_ty;
        let to = m.types.gep_steps::<GepError>(
            base_ty,
            &indices,
            true,
            |v| m.consts.int_of(v),
            |step| {
                walked = walked.wrapping_add(match step {
                    GepStep::Field { offset, .. } => offset as i64,
                    GepStep::Scaled { index, stride } => {
                        value_of(index).wrapping_mul(stride as i64)
                    }
                });
                Ok(())
            },
        );
        assert_eq!((to, walked), (Ok(landed), want), "{what}: walker");

        // Execution: every engine computes base + offset.
        let gid = m.func_by_name("main").unwrap();
        let env = FastEnv {
            func_addr: &|_| 0,
            global_addr: &|_| Some(0),
            guarded: &|_| false,
        };
        let native_ok = translate_fast(&m, gid, &env).is_ok();
        let tiered = VmOptions {
            tier_up: 0,
            native_up: Some(0),
            ..VmOptions::default()
        };
        for (engine, opts) in [
            ("interp", VmOptions::default()),
            ("jit", VmOptions::default()),
            ("tiered", tiered),
        ] {
            let mut vm = Vm::new(&m, opts).unwrap();
            let got = match engine {
                "interp" => vm.run_main(),
                "jit" => vm.run_main_jit(),
                _ => vm.run_main_tiered(),
            };
            let expect = vm.global_addr(g).wrapping_add(want as u32);
            assert_eq!(got, Ok(expect as i64), "{what}: {engine}");
            if engine == "tiered" && native_ok {
                assert!(vm.tier_stats.native_insts > 0, "{what}: not native");
            }
        }

        // DSA: an all-constant path is an exact offset into @g's node
        // (offsets are 32-bit addresses held in a u64).
        if all_const {
            let cg = CallGraph::build(&m);
            let dsa = Dsa::analyze(&m, &cg, &DsaOptions::default());
            let off = dsa.known_offset(main, gep).map(|o| o as u32);
            assert_eq!(off, Some(want as u32), "{what}: dsa");
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
        // Order independence, down to the canonical profile bytes the
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
