//! Reassociation: canonicalize commutative expressions so that constants
//! sink to the right and constant-operand chains expose folding
//! opportunities — the paper singles out reassociation as one of the
//! optimizations explicit `getelementptr` address arithmetic enables
//! (§2.2).
//!
//! `(x + c1) + c2` becomes `x + (c1 + c2)`, with `c1 + c2` folded here
//! through `lpat_core::fold` (the inner `x + c1` is left for ADCE when
//! nothing else uses it), and `c + x` becomes `x + c`. In the scalar stage
//! it runs after the first `instsimplify`, whose folded constants it
//! moves to the right, and before GVN, which then numbers the canonical
//! forms.

use lpat_analysis::PreservedAnalyses;
use lpat_core::fold::fold_bin;
use lpat_core::{FuncId, Inst, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// The reassociation pass.
#[derive(Default)]
pub struct Reassociate {
    rewritten: usize,
}

impl FunctionPass for Reassociate {
    fn name(&self) -> &'static str {
        "reassociate"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let n = reassociate_unit(u);
        self.rewritten += n;
        // Rewrites operands in place; CFG and calls untouched.
        PassEffect::from_change(n > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("rewrote {} expressions", self.rewritten)
    }
}

/// Reassociate one function; returns rewritten instruction count.
pub fn reassociate_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, reassociate_unit)
}

/// Reassociate against a [`FuncUnit`]; returns rewritten instruction count.
pub fn reassociate_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() {
        return 0;
    }
    let mut rewritten = 0;
    let ids: Vec<lpat_core::InstId> = u.func.inst_ids_in_order().collect();
    for iid in ids {
        let f = &*u.func;
        let Inst::Bin { op, lhs, rhs } = f.inst(iid).clone() else {
            continue;
        };
        if !op.is_commutative() || u.types.is_float(f.inst_ty(iid)) {
            continue;
        }
        let is_const = |v: Value| matches!(v, Value::Const(_));
        // c ⊕ x  →  x ⊕ c
        if is_const(lhs) && !is_const(rhs) {
            *u.func.inst_mut(iid) = Inst::Bin {
                op,
                lhs: rhs,
                rhs: lhs,
            };
            rewritten += 1;
            continue;
        }
        // (x ⊕ c1) ⊕ c2  →  x ⊕ (c1 ⊕ c2)
        if let (Value::Inst(inner_id), Value::Const(c2)) = (lhs, rhs) {
            let f = &*u.func;
            if let Inst::Bin {
                op: iop,
                lhs: x,
                rhs: Value::Const(c1),
            } = f.inst(inner_id).clone()
            {
                if iop == op {
                    let (a, b) = (u.consts.get(c1).clone(), u.consts.get(c2).clone());
                    if let Some(folded) = fold_bin(op, &a, &b) {
                        let fc = u.consts.intern(folded);
                        *u.func.inst_mut(iid) = Inst::Bin {
                            op,
                            lhs: x,
                            rhs: Value::Const(fc),
                        };
                        rewritten += 1;
                    }
                }
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn constants_sink_right_and_chains_fold() {
        let mut m = parse_module(
            "t",
            "
define int @f(int %x) {
e:
  %a = add int 5, %x
  %b = add int %a, 7
  ret int %b
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let n = reassociate_function(&mut m, fid);
        assert_eq!(n, 2);
        m.verify().unwrap();
        let text = m.display();
        assert!(text.contains("add int %a0, 5"), "{text}");
        assert!(text.contains("add int %a0, 12"), "{text}");
        // After DCE the chain is one instruction.
        crate::adce::adce_function(&mut m, fid);
        assert_eq!(m.func(fid).num_insts(), 2);
    }

    #[test]
    fn subtraction_untouched() {
        let mut m = parse_module(
            "t",
            "define int @f(int %x) {\ne:\n  %a = sub int 5, %x\n  ret int %a\n}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(reassociate_function(&mut m, fid), 0);
    }
}
