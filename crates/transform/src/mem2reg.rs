//! Stack promotion: `alloca` → SSA registers (paper §3.2).
//!
//! A front end may leave SSA construction to this pass: it allocates
//! mutable variables on the stack, and the pass promotes them to SSA
//! registers, inserting φ-nodes on the iterated dominance frontier of the
//! stores and renaming along the dominator tree. miniC builds SSA itself,
//! so what is promoted here is textual IR's, the scalars `sroa` splits
//! out of aggregates, and inlined callees'. An alloca is promotable when
//! its address never escapes: every use is a direct load or store through
//! it.

use std::collections::HashMap;

use lpat_analysis::PreservedAnalyses;
use lpat_core::{BlockId, FuncId, Inst, InstId, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;
use crate::util::remove_unreachable_blocks;

/// The stack-promotion (SSA construction) pass.
#[derive(Default)]
pub struct Mem2Reg {
    promoted: usize,
    phis: usize,
}

impl FunctionPass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        if u.func.is_declaration() {
            return PassEffect::unchanged();
        }
        let removed = remove_unreachable_blocks(u.func);
        // Declare the dominator-tree dependency up front, after the
        // unreachable blocks are gone: the tree is computed (and cached)
        // for the final CFG even when nothing promotes, so downstream
        // passes that keep the CFG intact reuse it instead of recomputing.
        let _ = u.analyses.domtree(u.func);
        let (p, ph) = promote_unit(u);
        self.promoted += p;
        self.phis += ph;
        // The cached tree post-dates every CFG edit this pass makes
        // (promotion adds no blocks or edges), so CFG-derived analyses are
        // preserved; removed blocks may have contained calls, though.
        PassEffect::from_change(
            removed || p > 0,
            PreservedAnalyses {
                cfg: true,
                call_graph: !removed,
            },
        )
    }
    fn stats(&self) -> String {
        format!(
            "promoted {} allocas, inserted {} phis",
            self.promoted, self.phis
        )
    }
}

/// Promote all eligible allocas of one function. Returns
/// `(promoted allocas, φ-nodes inserted)`.
pub fn promote_function(m: &mut Module, fid: FuncId) -> (usize, usize) {
    crate::fpm::with_unit(m, fid, promote_unit)
}

/// Stack promotion against a [`FuncUnit`]; returns
/// `(promoted allocas, φ-nodes inserted)`.
pub fn promote_unit(u: &mut FuncUnit<'_>) -> (usize, usize) {
    let f = &*u.func;
    // 1. Find promotable allocas.
    let mut candidates: Vec<InstId> = Vec::new();
    for iid in f.inst_ids_in_order() {
        if let Inst::Alloca {
            elem_ty,
            count: None,
        } = f.inst(iid)
        {
            if u.types.is_first_class(*elem_ty) {
                candidates.push(iid);
            }
        }
    }
    if candidates.is_empty() {
        return (0, 0);
    }
    let mut promotable: HashMap<InstId, usize> = HashMap::new();
    'cand: for &a in &candidates {
        let av = Value::Inst(a);
        for iid in f.inst_ids_in_order() {
            match f.inst(iid) {
                Inst::Load { ptr } if *ptr == av => {}
                Inst::Store { val, ptr } if *ptr == av && *val != av => {}
                other => {
                    let mut escapes = false;
                    other.for_each_operand(|v| {
                        if v == av {
                            escapes = true;
                        }
                    });
                    if escapes {
                        continue 'cand;
                    }
                }
            }
        }
        let idx = promotable.len();
        promotable.insert(a, idx);
    }
    if promotable.is_empty() {
        return (0, 0);
    }
    let n_allocas = promotable.len();
    let elem_tys: Vec<lpat_core::TypeId> = {
        let mut v = vec![u.types.void(); n_allocas];
        for (&a, &i) in &promotable {
            if let Inst::Alloca { elem_ty, .. } = f.inst(a) {
                v[i] = *elem_ty;
            }
        }
        v
    };

    // 2. φ placement on the iterated dominance frontier of the def blocks.
    let dt = u.analyses.domtree(f);
    let inst_blocks = f.inst_blocks();
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); n_allocas];
    for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            if let Inst::Store {
                ptr: Value::Inst(p),
                ..
            } = f.inst(iid)
            {
                if let Some(&idx) = promotable.get(p) {
                    def_blocks[idx].push(b);
                }
            }
        }
    }
    let _ = inst_blocks;
    // phi_at[(block, alloca)] -> phi inst id
    let mut phi_at: HashMap<(BlockId, usize), InstId> = HashMap::new();
    let mut phi_count = 0usize;
    {
        let f = &mut *u.func;
        for idx in 0..n_allocas {
            for b in dt.iterated_frontier(&def_blocks[idx]) {
                phi_at.entry((b, idx)).or_insert_with(|| {
                    phi_count += 1;
                    f.new_inst(Inst::Phi { incoming: vec![] }, elem_tys[idx])
                });
            }
        }
        // Link the φs at the head of their blocks.
        let mut by_block: HashMap<BlockId, Vec<InstId>> = HashMap::new();
        for (&(b, _), &p) in &phi_at {
            by_block.entry(b).or_default().push(p);
        }
        for (b, mut phis) in by_block {
            phis.sort();
            let mut insts = phis;
            insts.extend_from_slice(f.block_insts(b));
            f.set_block_insts(b, insts);
        }
    }

    // 3. Renaming along the dominator tree.
    let undef: Vec<Value> = elem_tys
        .iter()
        .map(|&t| Value::Const(u.consts.undef(t)))
        .collect();
    let f = &*u.func;
    let phi_idx: HashMap<InstId, usize> = phi_at.iter().map(|(&(_, i), &p)| (p, i)).collect();
    let mut repl: HashMap<InstId, Value> = HashMap::new();
    let mut dead: Vec<InstId> = Vec::new();
    // Stack of (block, current values) to process in dominator-tree
    // preorder.
    let mut phi_incoming: HashMap<InstId, Vec<(Value, BlockId)>> = HashMap::new();
    let mut stack: Vec<(BlockId, Vec<Value>)> = vec![(f.entry(), undef.clone())];
    let resolve = |repl: &HashMap<InstId, Value>, mut v: Value| -> Value {
        while let Value::Inst(i) = v {
            match repl.get(&i) {
                Some(&n) => v = n,
                None => break,
            }
        }
        v
    };
    while let Some((b, mut cur)) = stack.pop() {
        for &iid in f.block_insts(b) {
            match f.inst(iid) {
                Inst::Phi { .. } => {
                    if let Some(&idx) = phi_idx.get(&iid) {
                        cur[idx] = Value::Inst(iid);
                    }
                }
                Inst::Load {
                    ptr: Value::Inst(p),
                } => {
                    if let Some(&idx) = promotable.get(p) {
                        repl.insert(iid, cur[idx]);
                        dead.push(iid);
                    }
                }
                Inst::Store {
                    val,
                    ptr: Value::Inst(p),
                } => {
                    if let Some(&idx) = promotable.get(p) {
                        cur[idx] = resolve(&repl, *val);
                        dead.push(iid);
                    }
                }
                Inst::Alloca { .. } if promotable.contains_key(&iid) => {
                    dead.push(iid);
                }
                _ => {}
            }
        }
        // Feed successor φs.
        for s in f.successors(b) {
            for (idx, &v) in cur.iter().enumerate() {
                if let Some(&p) = phi_at.get(&(s, idx)) {
                    phi_incoming.entry(p).or_default().push((v, b));
                }
            }
        }
        for &c in dt.children(b) {
            stack.push((c, cur.clone()));
        }
        // `cur` is moved into the last child push; avoid clone for it.
        let _ = &mut cur;
    }

    // 4. Apply: set φ incoming lists, rewrite uses, unlink dead insts.
    let fm = &mut *u.func;
    for (p, mut inc) in phi_incoming {
        // A block can be a duplicate predecessor (e.g. both switch arms);
        // incoming entries must match predecessor multiset. Our collection
        // walks successors once per CFG edge via `successors()`, which
        // already yields duplicates, so `inc` is correct as-is.
        for (v, _) in inc.iter_mut() {
            let mut x = *v;
            while let Value::Inst(i) = x {
                match repl.get(&i) {
                    Some(&n) => x = n,
                    None => break,
                }
            }
            *v = x;
        }
        if let Inst::Phi { incoming } = fm.inst_mut(p) {
            *incoming = inc;
        }
    }
    let n_slots = fm.num_inst_slots();
    for i in 0..n_slots {
        let iid = InstId::from_index(i);
        fm.inst_mut(iid).map_operands(|mut v| {
            while let Value::Inst(d) = v {
                match repl.get(&d) {
                    Some(&n) => v = n,
                    None => break,
                }
            }
            v
        });
    }
    let inst_blocks = fm.inst_blocks();
    for d in dead {
        if let Some(b) = inst_blocks[d.index()] {
            fm.remove_inst(b, d);
        }
    }
    (n_allocas, phi_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn promote(src: &str) -> (Module, FuncId, usize, usize) {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        let (p, ph) = promote_function(&mut m, fid);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        (m, fid, p, ph)
    }

    #[test]
    fn straight_line_promotion_no_phis() {
        let (m, _, p, ph) = promote(
            "
define int @f(int %x) {
e:
  %v = alloca int
  store int %x, int* %v
  %a = load int* %v
  %b = add int %a, 1
  store int %b, int* %v
  %c = load int* %v
  ret int %c
}",
        );
        assert_eq!(p, 1);
        assert_eq!(ph, 0);
        let text = m.display();
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("load"), "{text}");
        assert!(text.contains("ret int %t3"), "{text}");
    }

    #[test]
    fn diamond_inserts_phi() {
        let (m, _, p, ph) = promote(
            "
define int @f(bool %c, int %x, int %y) {
e:
  %v = alloca int
  br bool %c, label %l, label %r
l:
  store int %x, int* %v
  br label %j
r:
  store int %y, int* %v
  br label %j
j:
  %o = load int* %v
  ret int %o
}",
        );
        assert_eq!(p, 1);
        assert_eq!(ph, 1);
        let text = m.display();
        assert!(text.contains("phi int"), "{text}");
        assert!(!text.contains("alloca"), "{text}");
    }

    #[test]
    fn loop_counter_promotes_with_phi() {
        let (m, _, p, ph) = promote(
            "
define int @f(int %n) {
e:
  %i = alloca int
  %s = alloca int
  store int 0, int* %i
  store int 0, int* %s
  br label %h
h:
  %iv = load int* %i
  %c = setlt int %iv, %n
  br bool %c, label %b, label %x
b:
  %sv = load int* %s
  %s2 = add int %sv, %iv
  store int %s2, int* %s
  %i2 = add int %iv, 1
  store int %i2, int* %i
  br label %h
x:
  %r = load int* %s
  ret int %r
}",
        );
        assert_eq!(p, 2);
        assert!(ph >= 2, "need loop-carried phis, got {ph}");
        assert!(!m.display().contains("alloca"));
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let (m, _, p, _) = promote(
            "
declare void @ext(int*)
define int @f() {
e:
  %v = alloca int
  store int 1, int* %v
  call void @ext(int* %v)
  %r = load int* %v
  ret int %r
}",
        );
        assert_eq!(p, 0);
        assert!(m.display().contains("alloca"));
    }

    #[test]
    fn aggregate_alloca_not_promoted() {
        let (_, _, p, _) = promote(
            "
define int @f() {
e:
  %v = alloca { int, int }
  %p = getelementptr { int, int }* %v, long 0, ubyte 0
  store int 1, int* %p
  %r = load int* %p
  ret int %r
}",
        );
        assert_eq!(p, 0);
    }

    #[test]
    fn load_before_store_becomes_undef() {
        let (m, _, p, _) = promote(
            "
define int @f() {
e:
  %v = alloca int
  %r = load int* %v
  ret int %r
}",
        );
        assert_eq!(p, 1);
        assert!(m.display().contains("ret int undef"), "{}", m.display());
    }
}
