//! Scalar simplifications: constant folding and algebraic identities.
//!
//! [`InstSimplify`] runs twice in the scalar stage
//! ([`crate::pipelines::scalar_stage`]): before `reassociate`, so that
//! folded constants reach it, and after GVN. It reaches its fixpoint in
//! one sweep in layout order: each instruction's operands are read
//! through the replacements the sweep has already made, so `(3 + 4) * 2`
//! folds where it stands, and the sweep's whole map is applied in one
//! rewrite ([`Function::replace_insts`]). It sweeps again only when an
//! instruction it kept names a value it replaced later in the sweep (a
//! back-edge φ operand, or a use laid out before its def). An operand
//! that dies with a replaced instruction is left to [`crate::adce`], the
//! optimizer's one dead-code pass.
//!
//! [`Function::replace_insts`]: lpat_core::Function::replace_insts

use lpat_analysis::PreservedAnalyses;
use lpat_core::fold::{fold_bin, fold_cast, fold_cmp};
use lpat_core::{resolve_replaced, BinOp, BlockId, Const, FuncId, Inst, InstId, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// Constant folding plus algebraic identity simplification.
#[derive(Default)]
pub struct InstSimplify {
    sweeps: usize,
}

impl FunctionPass for InstSimplify {
    fn name(&self) -> &'static str {
        "instsimplify"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let sweeps = simplify_unit(u);
        self.sweeps += sweeps;
        // Only pure instructions are replaced; CFG and calls untouched.
        PassEffect::from_change(sweeps > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("{} simplifying sweeps", self.sweeps)
    }
}

/// Simplify one function to its fixpoint; returns the number of sweeps
/// that replaced something (0: the function is unchanged).
pub fn simplify_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, simplify_unit)
}

/// [`simplify_function`] against a [`FuncUnit`].
pub fn simplify_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() {
        return 0;
    }
    let mut sweeps = 0;
    loop {
        let (mut repl, again) = sweep(u);
        if u.func.replace_insts(&mut repl) == 0 {
            return sweeps;
        }
        sweeps += 1;
        if !again {
            return sweeps;
        }
    }
}

/// One sweep in layout order: the replacement map it found, and whether
/// an instruction it kept names a value it replaced only after visiting
/// that instruction (then another sweep may find more).
fn sweep(u: &mut FuncUnit<'_>) -> (Vec<Option<Value>>, bool) {
    let n = u.func.num_inst_slots();
    let mut repl = vec![None; n];
    // Named (after resolution) by an instruction visited and kept.
    let mut named = vec![false; n];
    let mut again = false;
    for b in 0..u.func.num_blocks() {
        let b = BlockId::from_index(b);
        for k in 0..u.func.block_insts(b).len() {
            let iid = u.func.block_insts(b)[k];
            match simplify_inst(u, &mut repl, iid) {
                // A self-use is only legal in unreachable code; standing
                // the instruction in for itself would make a cycle.
                Some(v) if v != Value::Inst(iid) => {
                    again |= named[iid.index()];
                    repl[iid.index()] = Some(v);
                }
                _ => u.func.inst(iid).for_each_operand(|v| {
                    if let Value::Inst(d) = resolve_replaced(&mut repl, v) {
                        named[d.index()] = true;
                    }
                }),
            }
        }
    }
    (repl, again)
}

/// Try to simplify one instruction, its operands read through `repl`, to
/// an existing value.
fn simplify_inst(u: &mut FuncUnit<'_>, repl: &mut [Option<Value>], iid: InstId) -> Option<Value> {
    let inst = match *u.func.inst(iid) {
        Inst::Bin { op, lhs, rhs } => Inst::Bin {
            op,
            lhs: resolve_replaced(repl, lhs),
            rhs: resolve_replaced(repl, rhs),
        },
        Inst::Cmp { pred, lhs, rhs } => Inst::Cmp {
            pred,
            lhs: resolve_replaced(repl, lhs),
            rhs: resolve_replaced(repl, rhs),
        },
        Inst::Cast { val, to } => Inst::Cast {
            val: resolve_replaced(repl, val),
            to,
        },
        Inst::Phi { ref incoming } => {
            // φ with all-equal incoming values (ignoring self-references).
            let me = Value::Inst(iid);
            let mut uniq: Option<Value> = None;
            for &(v, _) in incoming {
                let v = resolve_replaced(repl, v);
                if v == me {
                    continue;
                }
                match uniq {
                    None => uniq = Some(v),
                    Some(u) if u == v => {}
                    Some(_) => return None,
                }
            }
            return uniq;
        }
        Inst::Gep { ptr, ref indices } => {
            // gep p, 0 (and any all-zero constant index list) = p.
            let all_zero = indices
                .iter()
                .all(|&i| u.consts.int_of(resolve_replaced(repl, i)) == Some(0));
            let ptr = resolve_replaced(repl, ptr);
            if all_zero && u.value_type(Value::Inst(iid)) == u.value_type(ptr) {
                return Some(ptr);
            }
            return None;
        }
        _ => return None,
    };
    fn as_const<'a>(u: &'a FuncUnit<'_>, v: Value) -> Option<&'a Const> {
        match v {
            Value::Const(c) => Some(u.consts.get(c)),
            _ => None,
        }
    }
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            // Constant folding.
            if let (Some(a), Some(b)) = (as_const(u, lhs), as_const(u, rhs)) {
                if let Some(c) = fold_bin(op, a, b) {
                    let id = u.consts.intern(c);
                    return Some(Value::Const(id));
                }
            }
            let ty = u.value_type(lhs);
            let is_int = u.types.is_int(ty);
            // Identities (integer only: float identities are unsound under
            // NaN/-0.0).
            if is_int {
                match op {
                    BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                        if u.consts.int_of(rhs) == Some(0) {
                            return Some(lhs);
                        }
                        if matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor)
                            && u.consts.int_of(lhs) == Some(0)
                        {
                            return Some(rhs);
                        }
                    }
                    BinOp::Sub => {
                        if u.consts.int_of(rhs) == Some(0) {
                            return Some(lhs);
                        }
                        if lhs == rhs {
                            let k = u.types.int_kind(ty)?;
                            return Some(Value::Const(u.consts.int(k, 0)));
                        }
                    }
                    BinOp::Mul => {
                        if u.consts.int_of(rhs) == Some(1) {
                            return Some(lhs);
                        }
                        if u.consts.int_of(lhs) == Some(1) {
                            return Some(rhs);
                        }
                        if u.consts.int_of(rhs) == Some(0) || u.consts.int_of(lhs) == Some(0) {
                            let k = u.types.int_kind(ty)?;
                            return Some(Value::Const(u.consts.int(k, 0)));
                        }
                    }
                    BinOp::Div if u.consts.int_of(rhs) == Some(1) => {
                        return Some(lhs);
                    }
                    BinOp::And => {
                        if lhs == rhs {
                            return Some(lhs);
                        }
                        if u.consts.int_of(rhs) == Some(0) {
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
                if let Some(r) = fold_cmp(pred, a, b) {
                    return Some(Value::Const(u.consts.bool_(r)));
                }
            }
            if lhs == rhs && u.types.is_int(u.value_type(lhs)) {
                use lpat_core::CmpPred::*;
                let r = matches!(pred, Eq | Le | Ge);
                return Some(Value::Const(u.consts.bool_(r)));
            }
            None
        }
        Inst::Cast { val, to } => {
            // Identity cast.
            if u.value_type(val) == to {
                return Some(val);
            }
            if let Some(c) = as_const(u, val) {
                if let Some(folded) = fold_cast(u.types, c, to) {
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
                if let Inst::Cast { val: inner, .. } = *u.func.inst(src) {
                    let inner = resolve_replaced(repl, inner);
                    let it = u.value_type(inner);
                    if u.types.is_ptr(it) && u.types.is_ptr(to) && it == to {
                        return Some(inner);
                    }
                }
            }
            None
        }
        _ => unreachable!("only Bin, Cmp and Cast are copied out"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn opt(src: &str) -> Module {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        simplify_function(&mut m, fid);
        crate::adce::adce_function(&mut m, fid);
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
    fn a_five_deep_fold_chain_takes_one_sweep() {
        let mut m = parse_module(
            "t",
            "
define int @f() {
e:
  %a = add int 3, 4
  %b = mul int %a, 2
  %c = sub int %b, 4
  %d = shl int %c, 1
  %e = add int %d, 1
  ret int %e
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(simplify_function(&mut m, fid), 1);
        assert_eq!(m.func(fid).num_insts(), 1, "{}", m.display());
        assert!(m.display().contains("ret int 21"), "{}", m.display());
        assert_eq!(simplify_function(&mut m, fid), 0, "already at the fixpoint");
    }

    #[test]
    fn a_phi_whose_back_edge_operand_folds_later_in_layout_is_simplified() {
        // `%q` folds to 7 after the sweep has passed `%p`, whose other
        // operand is 7: only a second sweep sees `phi [7, 7]`.
        let mut m = parse_module(
            "t",
            "
define int @f(int %n) {
e:
  br label %h
h:
  %p = phi int [ 7, %e ], [ %q, %l ]
  %c = setlt int %p, %n
  br bool %c, label %l, label %x
l:
  %q = add int 3, 4
  br label %h
x:
  ret int %p
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(simplify_function(&mut m, fid), 2);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let text = m.display();
        assert!(
            !text.contains("phi") && text.contains("ret int 7"),
            "{text}"
        );
    }

    #[test]
    fn a_self_use_in_unreachable_code_is_left_alone() {
        // `%x` names itself, which only unreachable code may do; standing
        // it in for itself would leave a cycle to resolve.
        let m = opt("
define int @f(int %a) {
e:
  ret int %a
dead:
  %x = add int %x, 0
  br label %dead
}");
        assert!(m.display().contains("ret int %a0"), "{}", m.display());
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
