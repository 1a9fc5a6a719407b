//! Aggressive dead-code elimination.
//!
//! Liveness is computed from roots (terminators, stores, calls) backwards
//! through operands; everything unmarked is deleted. Unlike the simple
//! [`crate::scalar::Dce`] fixpoint, this removes *cyclic* dead code —
//! e.g. a dead loop-carried φ chain — in one pass, and also deletes dead
//! loads and allocations.

use lpat_analysis::PreservedAnalyses;
use lpat_core::{FuncId, Inst, InstId, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// The aggressive DCE pass.
#[derive(Default)]
pub struct Adce {
    removed: usize,
}

impl FunctionPass for Adce {
    fn name(&self) -> &'static str {
        "adce"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let n = adce_unit(u);
        self.removed += n;
        // Only instructions with no observable effect are deleted; blocks
        // and calls survive.
        PassEffect::from_change(n > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("removed {} dead instructions", self.removed)
    }
}

/// Whether an instruction is a liveness root (its execution is observable
/// regardless of whether its result is used).
fn is_root(inst: &Inst) -> bool {
    match inst {
        Inst::Store { .. }
        | Inst::Call { .. }
        | Inst::Invoke { .. }
        | Inst::Free(_)
        | Inst::VaArg { .. } => true,
        t => t.is_terminator(),
    }
}

/// Run aggressive DCE on one function; returns removed count.
pub fn adce_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, adce_unit)
}

/// Aggressive DCE against a [`FuncUnit`]; returns removed count.
pub fn adce_unit(u: &mut FuncUnit<'_>) -> usize {
    let f = &*u.func;
    if f.is_declaration() {
        return 0;
    }
    let n = f.num_inst_slots();
    let mut live = vec![false; n];
    let mut work: Vec<InstId> = Vec::new();
    for iid in f.inst_ids_in_order() {
        if is_root(f.inst(iid)) {
            live[iid.index()] = true;
            work.push(iid);
        }
    }
    while let Some(iid) = work.pop() {
        f.inst(iid).for_each_operand(|v| {
            if let Value::Inst(d) = v {
                if !live[d.index()] {
                    live[d.index()] = true;
                    work.push(d);
                }
            }
        });
    }
    let mut dead = Vec::new();
    for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            if !live[iid.index()] {
                dead.push((b, iid));
            }
        }
    }
    let removed = dead.len();
    let fm = &mut *u.func;
    for (b, iid) in dead {
        fm.remove_inst(b, iid);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn opt(src: &str) -> (Module, usize) {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        let n = adce_function(&mut m, fid);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        (m, n)
    }

    #[test]
    fn removes_cyclic_dead_phis() {
        // A dead induction chain: the φ and its increment feed only each
        // other; the loop itself stays (its branch is a root).
        let (m, n) = opt("
define int @f(int %n) {
e:
  br label %h
h:
  %dead = phi int [ 0, %e ], [ %dead2, %h ]
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %dead2 = add int %dead, 7
  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %h, label %x
x:
  ret int %i2
}");
        assert_eq!(n, 2);
        let text = m.display();
        assert!(!text.contains(", 7"), "dead add survived: {text}");
        assert!(text.contains("%t2 = phi"), "{text}");
    }

    #[test]
    fn removes_dead_loads_and_allocs() {
        let (m, n) = opt("
define void @f(int* %p) {
e:
  %x = load int* %p
  %a = malloc int
  %s = alloca int
  ret void
}");
        assert_eq!(n, 3);
        assert_eq!(m.func(m.func_by_name("f").unwrap()).num_insts(), 1);
    }

    #[test]
    fn keeps_observable_effects() {
        let (m, n) = opt("
declare void @ext(int)
define void @f() {
e:
  %x = add int 1, 2
  call void @ext(int %x)
  ret void
}");
        assert_eq!(n, 0);
        assert!(m.display().contains("call void @ext"));
    }
}
