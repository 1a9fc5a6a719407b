//! Scalar simplifications: constant folding, algebraic identities, and
//! dead-instruction elimination.
//!
//! `InstSimplify` is the workhorse run repeatedly between the structural
//! passes; `Dce` removes unused side-effect-free instructions.

use std::collections::HashMap;

use lpat_analysis::PreservedAnalyses;
use lpat_core::fold::{fold_bin, fold_cast, fold_cmp};
use lpat_core::{BinOp, Const, FuncId, Inst, InstId, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// Constant folding plus algebraic identity simplification.
#[derive(Default)]
pub struct InstSimplify {
    simplified: usize,
}

impl FunctionPass for InstSimplify {
    fn name(&self) -> &'static str {
        "instsimplify"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let mut rounds = 0;
        while simplify_unit(u) {
            rounds += 1;
        }
        self.simplified += rounds;
        // Only pure instructions are replaced; CFG and calls untouched.
        PassEffect::from_change(rounds > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("{} simplification rounds", self.simplified)
    }
}

/// One simplification sweep over a function; returns whether anything
/// changed (callers iterate to a fixpoint).
pub fn simplify_function(m: &mut Module, fid: FuncId) -> bool {
    crate::fpm::with_unit(m, fid, simplify_unit)
}

/// One simplification sweep against a [`FuncUnit`].
pub fn simplify_unit(u: &mut FuncUnit<'_>) -> bool {
    if u.func.is_declaration() {
        return false;
    }
    let mut repl: HashMap<InstId, Value> = HashMap::new();
    let ids: Vec<InstId> = u.func.inst_ids_in_order().collect();
    for iid in ids {
        if let Some(v) = simplify_inst(u, iid) {
            repl.insert(iid, v);
        }
    }
    if repl.is_empty() {
        return false;
    }
    let fm = &mut *u.func;
    let n = fm.num_inst_slots();
    for i in 0..n {
        let iid = InstId::from_index(i);
        fm.inst_mut(iid).map_operands(|mut v| {
            while let Value::Inst(d) = v {
                match repl.get(&d) {
                    Some(&x) => v = x,
                    None => break,
                }
            }
            v
        });
    }
    // The replaced instructions are now dead; drop them.
    let inst_blocks = fm.inst_blocks();
    for &iid in repl.keys() {
        if let Some(b) = inst_blocks[iid.index()] {
            fm.remove_inst(b, iid);
        }
    }
    true
}

/// Try to simplify one instruction to an existing value.
fn simplify_inst(u: &mut FuncUnit<'_>, iid: InstId) -> Option<Value> {
    let inst = u.func.inst(iid).clone();
    fn as_const(u: &FuncUnit<'_>, v: Value) -> Option<Const> {
        match v {
            Value::Const(c) => Some(u.consts.get(c).clone()),
            _ => None,
        }
    }
    fn int_val(u: &FuncUnit<'_>, v: Value) -> Option<i64> {
        match as_const(u, v)? {
            Const::Int { value, .. } => Some(value),
            _ => None,
        }
    }
    fn vty(u: &FuncUnit<'_>, v: Value) -> lpat_core::TypeId {
        u.value_type(v)
    }
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            // Constant folding.
            if let (Some(a), Some(b)) = (as_const(u, lhs), as_const(u, rhs)) {
                if let Some(c) = fold_bin(op, &a, &b) {
                    let id = u.consts.intern(c);
                    return Some(Value::Const(id));
                }
            }
            let ty = vty(u, lhs);
            let is_int = u.types.is_int(ty);
            // Identities (integer only: float identities are unsound under
            // NaN/-0.0).
            if is_int {
                match op {
                    BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                        if int_val(u, rhs) == Some(0) {
                            return Some(lhs);
                        }
                        if matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor)
                            && int_val(u, lhs) == Some(0)
                        {
                            return Some(rhs);
                        }
                    }
                    BinOp::Sub => {
                        if int_val(u, rhs) == Some(0) {
                            return Some(lhs);
                        }
                        if lhs == rhs {
                            let k = u.types.int_kind(ty)?;
                            return Some(Value::Const(u.consts.int(k, 0)));
                        }
                    }
                    BinOp::Mul => {
                        if int_val(u, rhs) == Some(1) {
                            return Some(lhs);
                        }
                        if int_val(u, lhs) == Some(1) {
                            return Some(rhs);
                        }
                        if int_val(u, rhs) == Some(0) || int_val(u, lhs) == Some(0) {
                            let k = u.types.int_kind(ty)?;
                            return Some(Value::Const(u.consts.int(k, 0)));
                        }
                    }
                    BinOp::Div if int_val(u, rhs) == Some(1) => {
                        return Some(lhs);
                    }
                    BinOp::And => {
                        if lhs == rhs {
                            return Some(lhs);
                        }
                        if int_val(u, rhs) == Some(0) {
                            return Some(rhs);
                        }
                    }
                    _ => {}
                }
                if op == BinOp::Or && lhs == rhs {
                    return Some(lhs);
                }
                if op == BinOp::Xor && lhs == rhs {
                    let k = u.types.int_kind(ty)?;
                    return Some(Value::Const(u.consts.int(k, 0)));
                }
            }
            None
        }
        Inst::Cmp { pred, lhs, rhs } => {
            if let (Some(a), Some(b)) = (as_const(u, lhs), as_const(u, rhs)) {
                if let Some(r) = fold_cmp(pred, &a, &b) {
                    return Some(Value::Const(u.consts.bool_(r)));
                }
            }
            if lhs == rhs && u.types.is_int(vty(u, lhs)) {
                use lpat_core::CmpPred::*;
                let r = matches!(pred, Eq | Le | Ge);
                return Some(Value::Const(u.consts.bool_(r)));
            }
            None
        }
        Inst::Cast { val, to } => {
            // Identity cast.
            if vty(u, val) == to {
                return Some(val);
            }
            if let Some(c) = as_const(u, val) {
                if let Some(folded) = fold_cast(u.types, &c, to) {
                    let id = u.consts.intern(folded);
                    // A global's address keeps its own type: a cast of it
                    // to another pointer type has no constant to fold to.
                    if u.const_type(id) == to {
                        return Some(Value::Const(id));
                    }
                }
            }
            // cast (cast x to A) to B where both casts are pointer casts:
            // collapse to a single cast.
            if let Value::Inst(src) = val {
                if let Inst::Cast { val: inner, .. } = u.func.inst(src).clone() {
                    let it = vty(u, inner);
                    if u.types.is_ptr(it) && u.types.is_ptr(to) && it == to {
                        return Some(inner);
                    }
                }
            }
            None
        }
        Inst::Phi { incoming } => {
            // φ with all-equal incoming values (ignoring self-references).
            let me = Value::Inst(iid);
            let mut uniq: Option<Value> = None;
            for (v, _) in &incoming {
                if *v == me {
                    continue;
                }
                match uniq {
                    None => uniq = Some(*v),
                    Some(u) if u == *v => {}
                    Some(_) => return None,
                }
            }
            uniq
        }
        Inst::Gep { ptr, indices } => {
            // gep p, 0 (and any all-zero constant index list) = p.
            let all_zero = indices.iter().all(|&i| int_val(u, i) == Some(0));
            if all_zero && vty(u, Value::Inst(iid)) == vty(u, ptr) {
                return Some(ptr);
            }
            None
        }
        _ => None,
    }
}

/// Dead-code elimination: unlink side-effect-free instructions whose
/// results are unused, iterating to a fixpoint.
#[derive(Default)]
pub struct Dce {
    removed: usize,
}

impl FunctionPass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let n = dce_unit(u);
        self.removed += n;
        // Removed instructions have no side effects, so no calls are lost.
        PassEffect::from_change(n > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("removed {} dead instructions", self.removed)
    }
}

/// Remove dead instructions from one function; returns how many.
pub fn dce_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, dce_unit)
}

/// Dead-code elimination against a [`FuncUnit`]; returns removed count.
pub fn dce_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() {
        return 0;
    }
    let mut removed = 0;
    loop {
        let f = &*u.func;
        let uses = f.use_counts();
        let mut dead = Vec::new();
        for b in f.block_ids() {
            for &iid in f.block_insts(b) {
                if uses[iid.index()] == 0 && !f.inst(iid).has_side_effects() {
                    dead.push((b, iid));
                }
            }
        }
        if dead.is_empty() {
            break;
        }
        removed += dead.len();
        let fm = &mut *u.func;
        for (b, iid) in dead {
            fm.remove_inst(b, iid);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn opt(src: &str) -> Module {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        while simplify_function(&mut m, fid) {}
        dce_function(&mut m, fid);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        m
    }

    #[test]
    fn folds_constant_chain() {
        let m = opt("
define int @f() {
e:
  %a = add int 2, 3
  %b = mul int %a, 4
  %c = sub int %b, 20
  ret int %c
}");
        assert!(m.display().contains("ret int 0"), "{}", m.display());
        assert_eq!(m.func(m.func_by_name("f").unwrap()).num_insts(), 1);
    }

    #[test]
    fn applies_identities() {
        let m = opt("
define int @f(int %x) {
e:
  %a = add int %x, 0
  %b = mul int %a, 1
  %c = xor int %b, %b
  %d = or int %b, %c
  ret int %d
}");
        assert!(m.display().contains("ret int %a0"), "{}", m.display());
    }

    #[test]
    fn a_punning_cast_of_a_global_stays() {
        // `(char*)&g`: the global's address has no `sbyte*` constant, so
        // the cast is kept (folding it retyped the address under its
        // `getelementptr`, which the verifier then refused).
        let m = opt("
%s = type { int, int }
@g = global %s zeroinitializer
define void @f() {
e:
  %c = cast %s* @g to sbyte*
  %p = getelementptr sbyte* %c, int 5
  store sbyte 1, sbyte* %p
  ret void
}");
        assert!(
            m.display().contains("cast %s* @g to sbyte*"),
            "{}",
            m.display()
        );
    }

    #[test]
    fn folds_comparisons_and_casts() {
        let m = opt("
define bool @f(int %x) {
e:
  %c = setlt int 3, 5
  %i = cast bool %c to int
  %d = seteq int %i, 1
  ret bool %d
}");
        assert!(m.display().contains("ret bool true"), "{}", m.display());
    }

    #[test]
    fn does_not_fold_div_by_zero() {
        let m = opt("
define int @f() {
e:
  %a = div int 1, 0
  ret int %a
}");
        assert!(m.display().contains("div int 1, 0"), "{}", m.display());
    }

    #[test]
    fn phi_with_single_value_simplifies() {
        let m = opt("
define int @f(bool %c, int %x) {
e:
  br bool %c, label %l, label %r
l:
  br label %j
r:
  br label %j
j:
  %p = phi int [ %x, %l ], [ %x, %r ]
  ret int %p
}");
        assert!(m.display().contains("ret int %a1"), "{}", m.display());
    }

    #[test]
    fn dce_keeps_side_effects() {
        let m = opt("
declare int @ext()
define void @f() {
e:
  %unused = call int @ext()
  %dead = add int 1, 2
  ret void
}");
        let text = m.display();
        assert!(text.contains("call int @ext()"), "{text}");
        assert!(!text.contains("add"), "{text}");
    }

    #[test]
    fn float_identities_not_applied() {
        // x + 0.0 is not x for -0.0; the pass must leave it.
        let m = opt("
define double @f(double %x) {
e:
  %a = add double %x, 0x0000000000000000
  ret double %a
}");
        assert!(m.display().contains("add double"), "{}", m.display());
    }
}
