//! CFG simplification: constant-fold terminators, delete unreachable
//! blocks, merge straight-line block chains, and forward empty blocks.

use lpat_analysis::PreservedAnalyses;
use lpat_core::{BlockId, Const, FuncId, Function, Inst, InstId, Module, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;
use crate::util::remove_unreachable_blocks;

/// The CFG simplification pass.
#[derive(Default)]
pub struct SimplifyCfg {
    folded: usize,
    merged: usize,
    removed: usize,
    forwarded: usize,
}

impl FunctionPass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let mut changed = false;
        loop {
            let (f1, f2, f3, f4) = simplify_cfg_unit(u);
            self.folded += f1;
            self.removed += f2;
            self.merged += f3;
            self.forwarded += f4;
            if f1 + f2 + f3 + f4 == 0 {
                break;
            }
            changed = true;
        }
        // Any rewrite restructures the CFG and may delete blocks that
        // contained calls.
        PassEffect::from_change(changed, PreservedAnalyses::none())
    }
    fn stats(&self) -> String {
        format!(
            "folded {} branches, removed {} blocks, merged {} chains, forwarded {} blocks",
            self.folded, self.removed, self.merged, self.forwarded
        )
    }
}

/// One round of CFG simplification; returns
/// `(branches folded, blocks removed, chains merged, blocks forwarded)`.
pub fn simplify_cfg_function(m: &mut Module, fid: FuncId) -> (usize, usize, usize, usize) {
    crate::fpm::with_unit(m, fid, simplify_cfg_unit)
}

/// One round of CFG simplification against a [`FuncUnit`].
pub fn simplify_cfg_unit(u: &mut FuncUnit<'_>) -> (usize, usize, usize, usize) {
    if u.func.is_declaration() {
        return (0, 0, 0, 0);
    }
    let mut folded = 0;

    // 1. Constant-fold conditional branches and switches.
    {
        let f = &*u.func;
        let mut patches: Vec<(BlockId, InstId, Inst)> = Vec::new();
        for b in f.block_ids() {
            let Some(t) = f.terminator(b) else { continue };
            match f.inst(t) {
                Inst::CondBr {
                    cond: Value::Const(c),
                    then_bb,
                    else_bb,
                } => {
                    if let Const::Bool(v) = u.consts.get(*c) {
                        let target = if *v { *then_bb } else { *else_bb };
                        patches.push((b, t, Inst::Br(target)));
                    }
                }
                Inst::CondBr {
                    then_bb, else_bb, ..
                } if then_bb == else_bb => {
                    patches.push((b, t, Inst::Br(*then_bb)));
                }
                Inst::Switch {
                    val: Value::Const(c),
                    default,
                    cases,
                } => {
                    let target = cases
                        .iter()
                        .find(|(cc, _)| cc == c)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                    patches.push((b, t, Inst::Br(target)));
                }
                _ => {}
            }
        }
        if !patches.is_empty() {
            folded = patches.len();
            // Removing an edge b -> dropped requires dropping b's entry
            // from dropped's φs. Compute old edges per patch.
            let f = &*u.func;
            let mut phi_fixes: Vec<(BlockId, BlockId)> = Vec::new();
            for (block, t, new_term) in &patches {
                let new_succs = new_term.successors();
                // One φ entry must go per lost edge *occurrence* (duplicate
                // edges count separately).
                let mut targets: Vec<BlockId> = f.inst(*t).successors();
                for s in new_succs {
                    if let Some(pos) = targets.iter().position(|&x| x == s) {
                        targets.remove(pos);
                    }
                }
                for s in targets {
                    phi_fixes.push((s, *block));
                }
            }
            let fm = &mut *u.func;
            for (_, t, new_term) in patches {
                *fm.inst_mut(t) = new_term;
            }
            for (s, pred) in phi_fixes {
                for &iid in fm.block_insts(s).to_vec().iter() {
                    if let Inst::Phi { incoming } = fm.inst_mut(iid) {
                        if let Some(pos) = incoming.iter().position(|(_, b)| *b == pred) {
                            incoming.remove(pos);
                        }
                    }
                }
            }
        }
    }

    // 2. Remove unreachable blocks.
    let before = u.func.num_blocks();
    remove_unreachable_blocks(u.func);
    let removed = before - u.func.num_blocks();

    // 3. Merge a block into its unique successor when that successor has a
    //    unique predecessor (splice the chain).
    let merged = merge_chains(u.func);

    // 4. Retarget the edges into a block that only branches on. After the
    //    merge, so that a successor with one predecessor absorbs the block
    //    and its φs, rather than keeping one-entry φs.
    let forwarded = forward_empty_blocks(u.func);

    (folded, removed, merged, forwarded)
}

/// Remove every non-entry block whose only instruction is `br label %s`
/// (`s` not the block itself): its predecessors branch to `s` directly,
/// and its entry in each φ of `s` becomes one entry per predecessor.
/// Returns the number of blocks removed.
///
/// A block is kept when one of its predecessors reaches it twice or
/// already reaches `s`, since `s`'s φs could then need two entries for one
/// predecessor. It is done in one sweep: each block is decided after the
/// block it branches to, so a forwarded block's predecessors are
/// retargeted once, straight to where a run of empty blocks ends (an
/// empty predecessor that goes later passes its own predecessors on to
/// that end). `via[b]` keeps the predecessors a forwarded block had when
/// it went; the φ rewrite resolves those that went later to the blocks
/// that remain, as [`resolve`] does for φ values.
fn forward_empty_blocks(f: &mut Function) -> usize {
    let entry = f.entry();
    let n = f.num_blocks();
    let target: Vec<Option<BlockId>> = f
        .block_ids()
        .map(|b| match *f.block_insts(b) {
            [only] if b != entry => match *f.inst(only) {
                Inst::Br(s) if s != b => Some(s),
                _ => None,
            },
            _ => None,
        })
        .collect();
    if target.iter().all(Option::is_none) {
        return 0;
    }
    let mut order = Vec::new();
    let mut placed = vec![false; n];
    for b in f.block_ids() {
        let mut run = Vec::new();
        let mut x = b;
        while let (false, Some(s)) = (placed[x.index()], target[x.index()]) {
            placed[x.index()] = true;
            run.push(x);
            x = s;
        }
        order.extend(run.into_iter().rev());
    }

    let mut preds = f.predecessors();
    let mut via: Vec<Option<Vec<BlockId>>> = vec![None; n];
    // The blocks forwarded into: the only ones whose φs name a forwarded
    // block.
    let mut joins = Vec::new();
    // `seen[p] == b`: `p` was met among `b`'s predecessors.
    let mut seen = vec![usize::MAX; n];
    let mut forwarded = 0;
    for b in order {
        // Read again: an earlier forward may have retargeted it.
        let Inst::Br(s) = *f.inst(f.block_insts(b)[0]) else {
            unreachable!("an empty block ends in br")
        };
        if s == b {
            continue;
        }
        // `preds` lists a retargeted edge under its new target and leaves
        // the stale one under the forwarded block, so skip forwarded ones.
        let live: Vec<BlockId> = preds[b.index()]
            .iter()
            .copied()
            .filter(|p| via[p.index()].is_none())
            .collect();
        let clash = live.iter().any(|&p| {
            let twice = std::mem::replace(&mut seen[p.index()], b.index()) == b.index();
            twice || f.successors(p).contains(&s)
        });
        if live.is_empty() || clash {
            continue;
        }
        for &p in &live {
            let t = f.terminator(p).expect("a predecessor ends in a terminator");
            f.inst_mut(t).map_successors(|x| if x == b { s } else { x });
        }
        // Read again only when `s` is decided later: on a cycle of empty
        // blocks.
        preds[s.index()].extend_from_slice(&live);
        via[b.index()] = Some(live);
        joins.push(s);
        forwarded += 1;
    }
    if forwarded == 0 {
        return 0;
    }

    // A join that went later has no φs: its only instruction was a `br`.
    joins.sort_unstable();
    joins.dedup();
    for s in joins {
        let phis: Vec<InstId> = (f.block_insts(s).iter().copied())
            .take_while(|&i| matches!(f.inst(i), Inst::Phi { .. }))
            .collect();
        for iid in phis {
            let Inst::Phi { incoming } = f.inst(iid) else {
                unreachable!("taken as a φ")
            };
            let mut rewritten = Vec::with_capacity(incoming.len());
            for &(v, pb) in incoming {
                match via[pb.index()] {
                    Some(_) => rewritten.extend(sources(&mut via, pb).into_iter().map(|p| (v, p))),
                    None => rewritten.push((v, pb)),
                }
            }
            *f.inst_mut(iid) = Inst::Phi {
                incoming: rewritten,
            };
        }
    }
    let keep: Vec<bool> = via.iter().map(Option::is_none).collect();
    f.retain_blocks(&keep);
    forwarded
}

/// The remaining blocks whose edges now stand where the forwarded block
/// `b`'s did, in predecessor order. A block in `via[b]` was forwarded
/// later than `b`, so the walk ends; its result replaces `via[b]`.
fn sources(via: &mut [Option<Vec<BlockId>>], b: BlockId) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut stack: Vec<BlockId> = via[b.index()].iter().flatten().rev().copied().collect();
    while let Some(p) = stack.pop() {
        match &via[p.index()] {
            Some(ps) => stack.extend(ps.iter().rev()),
            None => out.push(p),
        }
    }
    via[b.index()] = Some(out.clone());
    out
}

/// Splice every maximal chain `head → s1 → s2 → …`, where each link is a
/// `Br` into a block with that one predecessor, into `head`; returns the
/// number of blocks merged away.
///
/// A merge changes no other block's predecessor count, so which blocks
/// merge is decided from one `predecessors()` and the result does not
/// depend on the order of the merges. The chains are found first, then
/// the instruction lists are spliced, and the two renames a merge calls
/// for — a merged block's φs become their single incoming value, and φs
/// downstream name `head` where they named the merged block — are applied
/// to the arena in one sweep, followed by one `retain_blocks`.
fn merge_chains(f: &mut Function) -> usize {
    let preds = f.predecessors();
    let entry = f.entry();
    let n = f.num_blocks();
    // `next[b]`: the block spliced after `b`. `tail[h]`: the last block of
    // the chain `h` heads, so that absorbing a head met earlier in layout
    // order skips to the end of its chain in one step.
    let mut next: Vec<Option<BlockId>> = vec![None; n];
    let mut absorbed = vec![false; n];
    let mut tail: Vec<BlockId> = f.block_ids().collect();
    let mut merged = 0;
    for head in f.block_ids() {
        if absorbed[head.index()] {
            continue;
        }
        let mut last = head;
        while let Some(&Inst::Br(s)) = f.terminator(last).map(|t| f.inst(t)) {
            if s == head || s == entry || preds[s.index()].len() != 1 {
                break;
            }
            next[last.index()] = Some(s);
            absorbed[s.index()] = true;
            last = tail[s.index()];
            merged += 1;
        }
        tail[head.index()] = last;
    }
    if merged == 0 {
        return 0;
    }

    // Splice: the head's instructions minus each `Br`, then each merged
    // block's non-φ instructions. Its φs have exactly one incoming value
    // and are replaced by it.
    let mut into: Vec<Option<BlockId>> = vec![None; n];
    let mut replaced: Vec<Option<Value>> = vec![None; f.num_inst_slots()];
    for head in f.block_ids() {
        if absorbed[head.index()] || next[head.index()].is_none() {
            continue;
        }
        let mut insts = f.block_insts(head).to_vec();
        let mut b = head;
        while let Some(s) = next[b.index()] {
            insts.pop();
            for &iid in f.block_insts(s) {
                match f.inst(iid) {
                    Inst::Phi { incoming } => {
                        assert_eq!(incoming.len(), 1, "single-pred block phi arity");
                        replaced[iid.index()] = Some(incoming[0].0);
                    }
                    _ => insts.push(iid),
                }
            }
            into[s.index()] = Some(head);
            b = s;
        }
        f.set_block_insts(head, insts);
    }

    for i in 0..f.num_inst_slots() {
        let inst = f.inst_mut(InstId::from_index(i));
        inst.map_operands(|v| resolve(&mut replaced, v));
        if let Inst::Phi { incoming } = inst {
            for (_, pb) in incoming {
                if let Some(Some(head)) = into.get(pb.index()) {
                    *pb = *head;
                }
            }
        }
    }
    let keep: Vec<bool> = into.iter().map(Option::is_none).collect();
    f.retain_blocks(&keep);
    merged
}

/// The value `v` stands for once every replaced φ is gone. A replacement
/// may itself be a replaced φ (of a block merged further up the same
/// chain, or in another one); the final value is cached along the path
/// walked, so a long run of forwarding φs is not walked once per use.
fn resolve(replaced: &mut [Option<Value>], v: Value) -> Value {
    let step = |replaced: &[Option<Value>], v: Value| match v {
        Value::Inst(i) => replaced[i.index()].map(|r| (i, r)),
        _ => None,
    };
    let mut fin = v;
    while let Some((_, r)) = step(replaced, fin) {
        fin = r;
    }
    let mut cur = v;
    while let Some((i, r)) = step(replaced, cur) {
        replaced[i.index()] = Some(fin);
        cur = r;
    }
    fin
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn opt(src: &str) -> Module {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        while simplify_cfg_function(&mut m, fid) != (0, 0, 0, 0) {}
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        m
    }

    #[test]
    fn folds_constant_branch_and_removes_dead_arm() {
        let m = opt("
define int @f() {
e:
  br bool true, label %l, label %r
l:
  br label %j
r:
  br label %j
j:
  %p = phi int [ 1, %l ], [ 2, %r ]
  ret int %p
}");
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(m.func(fid).num_blocks(), 1);
        assert!(m.display().contains("ret int 1"), "{}", m.display());
    }

    #[test]
    fn folds_constant_switch() {
        let m = opt("
define int @f() {
e:
  switch int 2, label %d [ int 1, label %a int 2, label %b ]
a:
  ret int 10
b:
  ret int 20
d:
  ret int 30
}");
        assert!(m.display().contains("ret int 20"), "{}", m.display());
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(m.func(fid).num_blocks(), 1);
    }

    #[test]
    fn merges_chains() {
        let m = opt("
define int @f(int %x) {
e:
  %a = add int %x, 1
  br label %m1
m1:
  %b = add int %a, 2
  br label %m2
m2:
  %c = add int %b, 3
  ret int %c
}");
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(m.func(fid).num_blocks(), 1);
        assert_eq!(m.func(fid).num_insts(), 4);
    }

    /// The chain-merge cases below print the same text under the
    /// implementation that merged one block per CFG rescan; their expected
    /// strings were captured from it. The forwarding cases' strings were
    /// checked by hand.
    fn check(src: &str, expected: &str) {
        let text = opt(src).display();
        let body = text.split_once("define").expect("one function").1;
        assert_eq!(body.trim(), expected.trim(), "\n{text}");
    }

    #[test]
    fn merges_a_long_chain_whose_tail_was_found_first() {
        // Layout order meets %a (which absorbs %b, %c, %d) before %j, the
        // block that absorbs %a: five blocks end up in %j.
        check(
            "
define int @f(int %x, bool %k) {
e:
  br bool %k, label %j, label %s
a:
  %va = add int %vj, 1
  br label %b
b:
  %vb = add int %va, 2
  br label %c
c:
  %vc = add int %vb, 3
  br label %d
d:
  %vd = add int %vc, 4
  ret int %vd
s:
  br label %j
j:
  %vj = phi int [ 1, %e ], [ 2, %s ]
  br label %a
}",
            "
int @f(int %a0, bool %a1) {
bb0:
  br bool %a1, label %bb2, label %bb1
bb1:
  br label %bb2
bb2:
  %t10 = phi int [ 1, %bb0 ], [ 2, %bb1 ]
  %t1 = add int %t10, 1
  %t3 = add int %t1, 2
  %t5 = add int %t3, 3
  %t7 = add int %t5, 4
  ret int %t7
}",
        );
    }

    #[test]
    fn phi_of_a_merged_block_naming_a_phi_of_another_resolves_through() {
        // %p2 (in %s2) is replaced by %p1 (in %s1), itself replaced by %v;
        // %s2's chain comes first in layout order, %s1's second, and %s3
        // adds a third hop within one chain.
        check(
            "
define int @f(int %x, bool %k) {
e:
  br bool %k, label %h1, label %o
j:
  br label %s2
s2:
  %p2 = phi int [ %p1, %j ]
  br label %s3
s3:
  %p3 = phi int [ %p2, %s2 ]
  %r = add int %p3, %p1
  ret int %r
h1:
  %v = add int %x, 1
  br label %s1
s1:
  %p1 = phi int [ %v, %h1 ]
  br bool %k, label %j, label %o2
o:
  ret int 0
o2:
  ret int %p1
}",
            "
int @f(int %a0, bool %a1) {
bb0:
  br bool %a1, label %bb2, label %bb3
bb1:
  %t5 = add int %t7, %t7
  ret int %t5
bb2:
  %t7 = add int %a0, 1
  br bool %a1, label %bb1, label %bb4
bb3:
  ret int 0
bb4:
  ret int %t7
}",
        );
    }

    #[test]
    fn successors_of_a_merged_tail_name_the_head_in_their_phis() {
        check(
            "
define int @f(int %x, bool %k) {
e:
  br bool %k, label %h, label %m
h:
  %a = add int %x, 1
  br label %s1
s1:
  %b = add int %a, 2
  br label %s2
s2:
  %c = add int %b, 3
  br bool %k, label %m, label %n
n:
  br label %m
m:
  %p = phi int [ 0, %e ], [ %c, %s2 ], [ %b, %n ]
  ret int %p
}",
            "
int @f(int %a0, bool %a1) {
bb0:
  br bool %a1, label %bb1, label %bb3
bb1:
  %t1 = add int %a0, 1
  %t3 = add int %t1, 2
  %t5 = add int %t3, 3
  br bool %a1, label %bb3, label %bb2
bb2:
  br label %bb3
bb3:
  %t8 = phi int [ 0, %bb0 ], [ %t5, %bb1 ], [ %t3, %bb2 ]
  ret int %t8
}",
        );
    }

    #[test]
    fn self_loop_branch_is_left_alone() {
        check(
            "
define int @f(int %x, bool %k) {
e:
  br bool %k, label %l, label %x
l:
  br label %l
x:
  ret int %x
}",
            "
int @f(int %a0, bool %a1) {
bb0:
  br bool %a1, label %bb1, label %bb2
bb1:
  br label %bb1
bb2:
  ret int %a0
}",
        );
    }

    #[test]
    fn entry_is_never_merged_into_its_predecessor() {
        // %a branches to the entry, whose only predecessor it is.
        check(
            "
define void @f() {
e:
  br label %a
a:
  br label %e
}",
            "
void @f() {
bb0:
  br label %bb0
}",
        );
    }

    #[test]
    fn an_empty_block_is_forwarded_into_a_phi_successor() {
        // %a goes: each of its predecessors gets its own φ entry.
        check(
            "
define int @f(int %x, bool %k, bool %m) {
e:
  br bool %k, label %c, label %d
c:
  br bool %m, label %a, label %o
d:
  br bool %m, label %a, label %q
q:
  %y = add int %x, 1
  br label %j
a:
  br label %j
j:
  %p = phi int [ %x, %a ], [ %y, %q ]
  ret int %p
o:
  ret int 0
}",
            "
int @f(int %a0, bool %a1, bool %a2) {
bb0:
  br bool %a1, label %bb1, label %bb2
bb1:
  br bool %a2, label %bb4, label %bb5
bb2:
  br bool %a2, label %bb4, label %bb3
bb3:
  %t3 = add int %a0, 1
  br label %bb4
bb4:
  %t6 = phi int [ %a0, %bb1 ], [ %a0, %bb2 ], [ %t3, %bb3 ]
  ret int %t6
bb5:
  ret int 0
}",
        );
    }

    #[test]
    fn forwarding_is_refused_when_a_predecessor_already_reaches_the_successor() {
        // %e reaches %j both through %a and directly, with different
        // values: one φ entry for %e could not say which.
        check(
            "
define int @f(int %x, bool %k) {
e:
  br bool %k, label %a, label %j
a:
  br label %j
j:
  %p = phi int [ %x, %a ], [ 7, %e ]
  ret int %p
}",
            "
int @f(int %a0, bool %a1) {
bb0:
  br bool %a1, label %bb1, label %bb2
bb1:
  br label %bb2
bb2:
  %t2 = phi int [ %a0, %bb1 ], [ 7, %bb0 ]
  ret int %t2
}",
        );
    }

    #[test]
    fn the_entry_block_and_a_self_loop_are_not_forwarded() {
        // %e and %l each hold only a `br`; %h2 goes.
        check(
            "
define void @f(bool %k) {
e:
  br label %h
h:
  br bool %k, label %h2, label %l
h2:
  br label %h
l:
  br label %l
}",
            "
void @f(bool %a0) {
bb0:
  br label %bb1
bb1:
  br bool %a0, label %bb1, label %bb2
bb2:
  br label %bb2
}",
        );
    }

    /// `b1 → … → bN → j`, in layout order or reversed, where `ck` branches
    /// to `bk` or on to `c(k+1)`: each `bk` has two predecessors, so none
    /// merges, and all N go.
    fn empty_chain(n: usize, reversed: bool) -> String {
        let mut tests = String::new();
        let mut links = Vec::new();
        for k in 1..=n {
            let on = if k == n {
                "o".into()
            } else {
                format!("c{}", k + 1)
            };
            let next = if k == n {
                "j".into()
            } else {
                format!("b{}", k + 1)
            };
            tests += &format!("c{k}:\n  br bool %m, label %b{k}, label %{on}\n");
            links.push(format!("b{k}:\n  br label %{next}\n"));
        }
        if reversed {
            links.reverse();
        }
        format!(
            "define int @f(int %x, bool %k, bool %m) {{
e:
  br bool %k, label %c1, label %o
{tests}{}o:
  %y = add int %x, 1
  br label %j
j:
  %p = phi int [ 1, %b{n} ], [ %y, %o ]
  ret int %p
}}",
            links.concat()
        )
    }

    #[test]
    fn a_chain_of_empty_blocks_goes_in_one_sweep() {
        let n = 50;
        for reversed in [false, true] {
            let mut m = parse_module("t", &empty_chain(n, reversed)).unwrap();
            let fid = m.func_by_name("f").unwrap();
            assert_eq!(simplify_cfg_function(&mut m, fid), (0, 0, 0, n));
            m.verify().unwrap();
            let f = m.func(fid);
            // e, c1 … cN, o, j: every ck now branches to j, which has one
            // φ entry per ck and one for o.
            assert_eq!(f.num_blocks(), n + 3, "reversed: {reversed}");
            let j = BlockId::from_index(n + 2);
            assert_eq!(f.predecessors()[j.index()].len(), n + 1);
            match f.inst(f.block_insts(j)[0]) {
                Inst::Phi { incoming } => assert_eq!(incoming.len(), n + 1),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn keeps_loops_intact() {
        let src = "
define int @f(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %h, label %x
x:
  ret int %i2
}";
        let m = opt(src);
        let fid = m.func_by_name("f").unwrap();
        assert!(m.func(fid).num_blocks() >= 2);
        assert!(m.display().contains("phi"));
    }

    #[test]
    fn same_target_condbr_becomes_br() {
        let m = opt("
define int @f(bool %c) {
e:
  br bool %c, label %j, label %j
j:
  ret int 7
}");
        let text = m.display();
        assert!(!text.contains("br bool"), "{text}");
        assert!(text.contains("ret int 7"), "{text}");
    }
}
