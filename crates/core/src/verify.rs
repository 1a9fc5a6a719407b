//! The module verifier.
//!
//! Checks the structural and typing invariants of the representation: every
//! block ends in exactly one terminator, all operations obey the strict type
//! rules (paper §2.2 — "type mismatches are useful for detecting optimizer
//! bugs"), φ-nodes agree with the CFG, and SSA dominance holds (every use of
//! a register is dominated by its definition).

use crate::constant::FuncId;
use crate::function::Function;
use crate::inst::{BlockId, Inst, InstId, Value};
use crate::module::Module;
use crate::types::Type;

/// A verifier diagnostic, with the function and instruction it refers to
/// when applicable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function containing the fault, if any.
    pub func: Option<String>,
    /// Offending instruction, if any.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.func, &self.inst) {
            (Some(fun), Some(i)) => write!(f, "in @{fun} at %t{}: {}", i.index(), self.message),
            (Some(fun), None) => write!(f, "in @{fun}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Immediate-dominator tree for the blocks of one function, computed with
/// the Cooper–Harvey–Kennedy iterative algorithm.
///
/// Exposed from `core` because the verifier needs it; richer dominance
/// utilities (frontiers, tree children) live in `lpat-analysis`.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` is the immediate dominator of block `b`; the entry is its
    /// own idom. `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Reverse postorder of reachable blocks.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    pub rpo_pos: Vec<usize>,
}

impl Dominators {
    /// Compute dominators for `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a declaration.
    pub fn compute(f: &Function) -> Dominators {
        let n = f.num_blocks();
        assert!(n > 0, "cannot compute dominators of a declaration");
        // Postorder DFS from entry.
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 open, 2 done
        let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
        stack.push((f.entry(), f.successors(f.entry()), 0));
        state[f.entry().index()] = 1;
        while let Some((b, succs, idx)) = stack.last_mut() {
            if *idx < succs.len() {
                let s = succs[*idx];
                *idx += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    let ss = f.successors(s);
                    stack.push((s, ss, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(*b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.iter().rev().copied().collect();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let preds = f.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry().index()] = Some(f.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom, rpo, rpo_pos }
    }

    /// Whether block `a` dominates block `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_pos[b.index()] == usize::MAX {
            // Everything vacuously dominates unreachable code.
            return true;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(i) if i != cur => cur = i,
                _ => return false,
            }
        }
    }

    /// Whether block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a.index()] > rpo_pos[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_pos[b.index()] > rpo_pos[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

impl Module {
    /// Verify the whole module.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic found (it does not stop at the first).
    pub fn verify(&self) -> Result<(), Vec<VerifyError>> {
        let mut errs = Vec::new();
        for (fid, f) in self.funcs() {
            if f.is_declaration() {
                continue;
            }
            self.verify_func(fid, &mut errs);
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn err(errs: &mut Vec<VerifyError>, f: &Function, inst: Option<InstId>, msg: String) {
        errs.push(VerifyError {
            func: Some(f.name().to_string()),
            inst,
            message: msg,
        });
    }

    fn verify_func(&self, fid: FuncId, errs: &mut Vec<VerifyError>) {
        let f = self.func(fid);
        // 1. Block structure: non-empty, exactly one trailing terminator.
        for b in f.block_ids() {
            let insts = f.block_insts(b);
            if insts.is_empty() {
                Self::err(errs, f, None, format!("block bb{} is empty", b.index()));
                continue;
            }
            for (pos, &i) in insts.iter().enumerate() {
                let is_last = pos + 1 == insts.len();
                if f.inst(i).is_terminator() != is_last {
                    Self::err(
                        errs,
                        f,
                        Some(i),
                        if is_last {
                            format!("block bb{} does not end in a terminator", b.index())
                        } else {
                            format!("terminator in the middle of bb{}", b.index())
                        },
                    );
                }
            }
        }
        if !errs.is_empty() {
            // Without well-formed blocks the CFG checks below would panic.
            return;
        }

        let doms = Dominators::compute(f);
        let preds = f.predecessors();
        let inst_blocks = f.inst_blocks();

        // Map from linked InstId -> position within its block, for
        // same-block dominance.
        let mut pos_in_block = vec![usize::MAX; f.num_inst_slots()];
        for b in f.block_ids() {
            for (p, &i) in f.block_insts(b).iter().enumerate() {
                pos_in_block[i.index()] = p;
            }
        }

        for b in f.block_ids() {
            for (my_pos, &iid) in f.block_insts(b).to_vec().iter().enumerate() {
                let inst = f.inst(iid);
                // Range-check operands first; type checking would index out
                // of bounds on dangling references.
                let mut in_range = true;
                inst.for_each_operand(|v| match v {
                    Value::Inst(d) if d.index() >= f.num_inst_slots() => in_range = false,
                    Value::Arg(n) if n as usize >= f.num_params() => in_range = false,
                    _ => {}
                });
                if !in_range {
                    Self::err(errs, f, Some(iid), "operand out of range".into());
                    continue;
                }
                self.verify_inst_types(f, b, iid, inst, errs);
                // Successor sanity.
                for s in inst.successors() {
                    if s.index() >= f.num_blocks() {
                        Self::err(
                            errs,
                            f,
                            Some(iid),
                            format!("branch to missing bb{}", s.index()),
                        );
                    }
                }
                // SSA dominance for operands.
                let mut check_use = |v: Value, use_block: BlockId, use_pos: usize| {
                    if let Value::Inst(d) = v {
                        if d.index() >= f.num_inst_slots() {
                            Self::err(
                                errs,
                                f,
                                Some(iid),
                                format!("use of missing %t{}", d.index()),
                            );
                            return;
                        }
                        let db = match inst_blocks[d.index()] {
                            Some(db) => db,
                            None => {
                                Self::err(
                                    errs,
                                    f,
                                    Some(iid),
                                    format!("use of unlinked instruction %t{}", d.index()),
                                );
                                return;
                            }
                        };
                        // A use at `usize::MAX` means "at the end of the
                        // block" (φ-operands are used on the incoming edge).
                        let ok = if db == use_block {
                            pos_in_block[d.index()] < use_pos
                        } else {
                            doms.dominates(db, use_block)
                        };
                        if !ok && doms.is_reachable(use_block) {
                            Self::err(
                                errs,
                                f,
                                Some(iid),
                                format!("definition %t{} does not dominate this use", d.index()),
                            );
                        }
                    }
                };
                if let Inst::Phi { incoming } = inst {
                    // φ operands are "used" at the end of the incoming edge.
                    for (v, pb) in incoming {
                        check_use(*v, *pb, usize::MAX);
                    }
                    // Incoming blocks must be exactly the CFG predecessors.
                    let mut have: Vec<BlockId> = incoming.iter().map(|(_, b)| *b).collect();
                    let mut want = preds[b.index()].clone();
                    have.sort();
                    want.sort();
                    if have != want && doms.is_reachable(b) {
                        Self::err(
                            errs,
                            f,
                            Some(iid),
                            format!(
                                "phi incoming blocks {have:?} do not match predecessors {want:?}"
                            ),
                        );
                    }
                } else {
                    inst.for_each_operand(|v| check_use(v, b, my_pos));
                }
            }
        }
    }

    fn verify_inst_types(
        &self,
        f: &Function,
        _b: BlockId,
        iid: InstId,
        inst: &Inst,
        errs: &mut Vec<VerifyError>,
    ) {
        let vt = |v: Value| self.value_type(f, v);
        let mut fail = |msg: String| Self::err(errs, f, Some(iid), msg);
        // Every cached result type but a φ's (which is declared) must be
        // the one the typing rule derives from the operands.
        if !matches!(inst, Inst::Phi { .. }) {
            match self.infer_inst_type(inst, |v| Some(vt(v))) {
                Ok(want) if want.is(&self.types, f.inst_ty(iid)) => {}
                Ok(_) => fail(format!(
                    "cached {} result type does not match its operands",
                    inst.opcode_name()
                )),
                Err(e) => fail(format!("{}: {e}", inst.opcode_name())),
            }
        }
        match inst {
            Inst::Ret(v) => {
                let want = f.ret_type();
                match v {
                    None => {
                        if self.types.ty(want) != &Type::Void {
                            fail("ret void in non-void function".into());
                        }
                    }
                    Some(v) => {
                        if vt(*v) != want {
                            fail(format!(
                                "ret type {} != function return type {}",
                                self.types.display(vt(*v)),
                                self.types.display(want)
                            ));
                        }
                    }
                }
            }
            Inst::Br(_) | Inst::Unwind | Inst::Unreachable => {}
            Inst::CondBr { cond, .. } => {
                if vt(*cond) != self.types.bool_() {
                    fail("conditional branch on non-bool".into());
                }
            }
            Inst::Switch { val, cases, .. } => {
                let t = vt(*val);
                if !self.types.is_int(t) {
                    fail("switch on non-integer".into());
                }
                for (c, _) in cases {
                    match self.consts.as_int(*c) {
                        Some((k, _)) if Some(k) == self.types.int_kind(t) => {}
                        _ => fail("switch case type mismatch".into()),
                    }
                }
            }
            Inst::Bin { op, lhs, rhs } => {
                let lt = vt(*lhs);
                let rt = vt(*rhs);
                if lt != rt {
                    fail(format!(
                        "{} operand types differ: {} vs {}",
                        op.name(),
                        self.types.display(lt),
                        self.types.display(rt)
                    ));
                } else if self.types.is_float(lt) {
                    if !op.allows_float() {
                        fail(format!("{} on floating point", op.name()));
                    }
                } else if self.types.ty(lt) == &Type::Bool {
                    if !op.allows_bool() {
                        fail(format!("{} on bool", op.name()));
                    }
                } else if !self.types.is_int(lt) {
                    fail(format!("{} on non-arithmetic type", op.name()));
                }
            }
            Inst::Cmp { lhs, rhs, .. } => {
                let lt = vt(*lhs);
                let rt = vt(*rhs);
                if lt != rt {
                    fail("comparison operand types differ".into());
                }
                if !self.types.is_first_class(lt) {
                    fail("comparison of non-first-class values".into());
                }
            }
            Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => {
                if let Some(c) = count {
                    if !self.types.is_int(vt(*c)) {
                        fail("allocation count is not an integer".into());
                    }
                }
            }
            Inst::Free(p) => {
                if !self.types.is_ptr(vt(*p)) {
                    fail("free of non-pointer".into());
                }
            }
            // A non-pointer address was reported by the typing rule.
            Inst::Load { ptr } => {
                if let Some(p) = self.types.pointee(vt(*ptr)) {
                    if !self.types.is_first_class(p) {
                        fail("load of non-first-class type".into());
                    }
                }
            }
            Inst::Store { val, ptr } => match self.types.pointee(vt(*ptr)) {
                Some(p) => {
                    if vt(*val) != p {
                        fail(format!(
                            "store of {} through {}*",
                            self.types.display(vt(*val)),
                            self.types.display(p)
                        ));
                    }
                    if !self.types.is_first_class(p) {
                        fail("store of non-first-class type".into());
                    }
                }
                None => fail("store through non-pointer".into()),
            },
            Inst::Gep { indices, .. } => {
                if !indices.iter().all(|&i| self.types.is_int(vt(i))) {
                    fail("getelementptr index must be an integer".into());
                }
            }
            Inst::Phi { incoming } => {
                let ty = f.inst_ty(iid);
                if !self.types.is_first_class(ty) {
                    fail("phi of non-first-class type".into());
                }
                for (v, _) in incoming {
                    if vt(*v) != ty {
                        fail(format!(
                            "phi incoming type {} != declared {}",
                            self.types.display(vt(*v)),
                            self.types.display(ty)
                        ));
                    }
                }
            }
            Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => {
                let fnty = match self.types.pointee(vt(*callee)) {
                    Some(t) if self.types.is_func(t) => t,
                    // Reported by the typing rule above.
                    _ => return,
                };
                let params = self.types.func_params(fnty).unwrap().to_vec();
                let varargs = self.types.func_varargs(fnty).unwrap();
                if args.len() < params.len() || (!varargs && args.len() != params.len()) {
                    fail(format!(
                        "call arity {} does not match signature {}",
                        args.len(),
                        self.types.display(fnty)
                    ));
                    return;
                }
                for (i, (&a, &p)) in args.iter().zip(params.iter()).enumerate() {
                    if vt(a) != p {
                        fail(format!(
                            "argument {i} has type {} but parameter is {}",
                            self.types.display(vt(a)),
                            self.types.display(p)
                        ));
                    }
                }
            }
            Inst::Cast { val, to } => {
                let from = vt(*val);
                if !self.types.is_first_class(from) || !self.types.is_first_class(*to) {
                    fail("cast between non-first-class types".into());
                }
            }
            Inst::VaArg { .. } => {
                if !f.is_varargs() {
                    fail("vaarg in non-variadic function".into());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Linkage;
    use crate::inst::{BinOp, CmpPred};

    #[test]
    fn accepts_valid_function() {
        let mut m = Module::new("ok");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        b.block();
        let one = b.iconst32(1);
        let s = b.add(Value::Arg(0), one);
        b.ret(Some(s));
        assert!(m.verify().is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("bad");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        b.block();
        let one = b.iconst32(1);
        b.add(Value::Arg(0), one);
        let errs = m.verify().unwrap_err();
        assert!(errs[0].message.contains("terminator"), "{errs:?}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = Module::new("bad2");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let fb = m.func_mut(f);
        let b = fb.add_block();
        // Manually construct add of int and long.
        let c = m.consts.i64(1);
        let void = m.types.void();
        let fb = m.func_mut(f);
        let add = fb.append_inst(
            b,
            Inst::Bin {
                op: BinOp::Add,
                lhs: Value::Arg(0),
                rhs: Value::Const(c),
            },
            i32t,
        );
        fb.append_inst(b, Inst::Ret(Some(Value::Inst(add))), void);
        let errs = m.verify().unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("operand types differ")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_a_cached_type_the_operands_do_not_give() {
        // (instruction, wrong cached type) — one comparison covers every
        // opcode, the allocations the per-opcode checks forgot included.
        let mut m = Module::new("bad");
        let (i32t, f64t, void) = (m.types.i32(), m.types.f64(), m.types.void());
        let (pi8, pi32) = (m.types.ptr(m.types.i8()), m.types.ptr(i32t));
        let f = m.add_function("f", &[pi32], void, false, Linkage::External);
        let (elem_ty, count) = (i32t, None);
        let cases = [
            (Inst::Alloca { elem_ty, count }, f64t),
            (Inst::Malloc { elem_ty, count }, pi8),
            (Inst::Load { ptr: Value::Arg(0) }, f64t),
            (Inst::Free(Value::Arg(0)), i32t),
        ];
        let fb = m.func_mut(f);
        let b = fb.add_block();
        let ids: Vec<InstId> = cases
            .iter()
            .map(|(inst, ty)| fb.append_inst(b, inst.clone(), *ty))
            .collect();
        fb.append_inst(b, Inst::Ret(None), void);
        let errs = m.verify().unwrap_err();
        for (id, (inst, _)) in ids.iter().zip(&cases) {
            assert!(
                errs.iter().any(|e| e.inst == Some(*id)
                    && e.message.contains(inst.opcode_name())
                    && e.message.contains("result type")),
                "{} not named in {errs:?}",
                inst.opcode_name()
            );
        }
        // With the types the rule derives, the same body verifies.
        for (id, ty) in ids.iter().zip([pi32, pi32, i32t, void]) {
            m.func_mut(f).set_inst_ty(*id, ty);
        }
        assert_eq!(m.verify(), Ok(()));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut m = Module::new("bad3");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let void = m.types.void();
        let fb = m.func_mut(f);
        let b = fb.add_block();
        // %t1 used before defined: build ret first referencing later inst.
        let add_id = InstId::from_index(1);
        fb.append_inst(b, Inst::Ret(Some(Value::Inst(add_id))), void);
        let errs = m.verify().unwrap_err();
        assert!(!errs.is_empty());
    }

    #[test]
    fn rejects_bad_phi_preds() {
        let mut m = Module::new("bad4");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        let b0 = b.block();
        let b1 = b.new_block();
        b.br(b1);
        b.switch_to(b1);
        // phi claims an incoming edge from b1 (not a predecessor).
        let p = b.phi(i32t, vec![(Value::Arg(0), b1)]);
        b.ret(Some(p));
        let _ = b0;
        let errs = m.verify().unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("do not match predecessors")),
            "{errs:?}"
        );
    }

    #[test]
    fn dominators_of_diamond() {
        let mut m = Module::new("dom");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[m.types.bool_()], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        let b0 = b.block();
        let b1 = b.new_block();
        let b2 = b.new_block();
        let b3 = b.new_block();
        b.cond_br(Value::Arg(0), b1, b2);
        b.switch_to(b1);
        b.br(b3);
        b.switch_to(b2);
        b.br(b3);
        b.switch_to(b3);
        let one = b.iconst32(1);
        let two = b.iconst32(2);
        let p = b.phi(i32t, vec![(one, b1), (two, b2)]);
        b.ret(Some(p));
        assert!(m.verify().is_ok());
        let d = Dominators::compute(m.func(f));
        assert_eq!(d.idom[b3.index()], Some(b0));
        assert_eq!(d.idom[b1.index()], Some(b0));
        assert!(d.dominates(b0, b3));
        assert!(!d.dominates(b1, b3));
        assert!(d.dominates(b3, b3));
    }

    #[test]
    fn phi_cycle_is_legal_ssa() {
        // Loop-carried phi whose operand is defined later in its own block.
        let mut m = Module::new("cyc");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        let b0 = b.block();
        let b1 = b.new_block();
        let b2 = b.new_block();
        let zero = b.iconst32(0);
        b.br(b1);
        b.switch_to(b1);
        let i = b.phi(i32t, vec![(zero, b0)]);
        let one = b.iconst32(1);
        let i2 = b.add(i, one);
        let c = b.cmp(CmpPred::Lt, i2, Value::Arg(0));
        b.cond_br(c, b1, b2);
        b.switch_to(b2);
        b.ret(Some(i));
        // Patch the back edge.
        let iid = match i {
            Value::Inst(x) => x,
            _ => unreachable!(),
        };
        if let Inst::Phi { incoming } = m.func_mut(f).inst_mut(iid) {
            incoming.push((i2, b1));
        }
        assert!(m.verify().is_ok(), "{:?}", m.verify());
    }
}
