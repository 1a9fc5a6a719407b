//! Loop-invariant code motion: an expression whose operands a loop never
//! changes is computed once, in the loop's preheader, instead of on every
//! iteration.
//!
//! Loops are visited innermost first, so an invariant of a nest climbs
//! one preheader per level as far as it stays invariant. Only what cannot
//! trap moves: `bin` (a `div` or `rem` only by a nonzero constant, or on
//! floats), `cmp`, `cast` and `getelementptr`, whose operands are all
//! defined outside the loop. Nothing moves out of a block that does not
//! dominate every exit of the loop — such a block may not run on an
//! iteration, and the hoisted copy would add work to the paths that skip
//! it. A loop is left alone unless it already has a dedicated preheader:
//! its header's only predecessor outside the loop, ending in a plain
//! `br` to the header. The pass creates no block (a new one is a branch
//! executed on every entry of the loop, a loss on loops that mostly run
//! once) and moves no load, so the CFG and every analysis of it survive.

use lpat_analysis::{DomTree, PreservedAnalyses};
use lpat_core::{
    BinOp, BlockId, ConstPool, FuncId, Function, Inst, InstId, Module, TypeCtx, Value,
};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// The loop-invariant code motion pass.
#[derive(Default)]
pub struct Licm {
    hoisted: usize,
}

impl FunctionPass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let n = licm_unit(u);
        self.hoisted += n;
        // Instructions move between existing blocks; edges stay put.
        PassEffect::from_change(n > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!(
            "hoisted {} loop-invariant instructions (one per loop left)",
            self.hoisted
        )
    }
}

/// Run loop-invariant code motion on one function; returns the number of
/// moves (an instruction that leaves two nested loops moves twice).
pub fn licm_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, licm_unit)
}

/// Loop-invariant code motion against a [`FuncUnit`]; returns the number
/// of moves.
pub fn licm_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() || !has_backward_edge(u.func) {
        return 0;
    }
    let (dt, li) = u.analyses.domtree_and_loops(u.func);
    let f = &mut *u.func;
    // The predecessors of each loop header, reachable ones only.
    let mut entries = vec![Vec::new(); f.num_blocks()];
    let mut is_header = vec![false; f.num_blocks()];
    for l in &li.loops {
        is_header[l.header.index()] = true;
    }
    for b in f.block_ids().filter(|&b| dt.is_reachable(b)) {
        for s in f.successors(b) {
            if is_header[s.index()] {
                entries[s.index()].push(b);
            }
        }
    }
    // Where each instruction lives now.
    let mut home = f.inst_blocks();
    let mut in_loop = vec![false; f.num_blocks()];
    let mut hoisted = 0;
    // `li.loops` is sorted by body size, largest first: a loop nested in
    // another is smaller, so the reverse order is innermost first.
    for l in li.loops.iter().rev() {
        for &b in &l.body {
            in_loop[b.index()] = true;
        }
        let outside = (entries[l.header.index()].iter().copied()).filter(|p| !in_loop[p.index()]);
        if let Some(pre) = preheader(f, outside, l.header) {
            let mut moved: Vec<InstId> = Vec::new();
            for b in dominating_every_exit(f, dt, &l.body, l.header, &in_loop) {
                let (out, stay): (Vec<InstId>, Vec<InstId>) =
                    f.block_insts(b).iter().partition(|&&i| {
                        let go = hoistable(f, u.types, u.consts, i)
                            && operands_outside(f, i, &home, &in_loop);
                        if go {
                            home[i.index()] = Some(pre);
                        }
                        go
                    });
                if !out.is_empty() {
                    f.set_block_insts(b, stay);
                    moved.extend(out);
                }
            }
            if !moved.is_empty() {
                hoisted += moved.len();
                let mut insts = f.block_insts(pre).to_vec();
                let term = insts.pop().expect("a preheader ends in its br");
                insts.extend(moved);
                insts.push(term);
                f.set_block_insts(pre, insts);
            }
        }
        for &b in &l.body {
            in_loop[b.index()] = false;
        }
    }
    hoisted
}

/// Whether some edge goes to a block at or before its source in layout
/// order, as one edge of every cycle does: without one there is no loop,
/// and no analysis to ask for.
fn has_backward_edge(f: &Function) -> bool {
    f.block_ids()
        .any(|b| f.successors(b).iter().any(|s| s.index() <= b.index()))
}

/// The blocks of a loop that dominate each of its exits — the blocks that
/// leave the loop or the function — in dominance order, header first:
/// the dominator-tree path from the header down to the exits' nearest
/// common dominator.
fn dominating_every_exit(
    f: &Function,
    dt: &DomTree,
    body: &[BlockId],
    header: BlockId,
    in_loop: &[bool],
) -> Vec<BlockId> {
    let doms = dt.dominators();
    let common = |mut a: BlockId, mut b: BlockId| {
        while a != b {
            if doms.rpo_pos[a.index()] > doms.rpo_pos[b.index()] {
                a = dt.idom(a).unwrap_or(a);
            } else {
                b = dt.idom(b).unwrap_or(b);
            }
        }
        a
    };
    let exits = body.iter().copied().filter(|&b| {
        let succs = f.successors(b);
        succs.is_empty() || succs.iter().any(|s| !in_loop[s.index()])
    });
    let mut path = vec![exits.reduce(common).unwrap_or(header)];
    while let Some(&b) = path.last().filter(|&&b| b != header) {
        path.push(dt.idom(b).expect("the header dominates its loop"));
    }
    path.reverse();
    path
}

/// The loop's dedicated preheader: the only one of the header's reachable
/// predecessors `outside` the loop, when it ends in an unconditional `br`
/// to the header.
fn preheader(
    f: &Function,
    mut outside: impl Iterator<Item = BlockId>,
    header: BlockId,
) -> Option<BlockId> {
    let pre = outside.next()?;
    if outside.any(|p| p != pre) {
        return None;
    }
    let term = f.terminator(pre)?;
    matches!(f.inst(term), Inst::Br(t) if *t == header).then_some(pre)
}

/// Whether `i` computes a value and cannot trap wherever it runs.
fn hoistable(f: &Function, types: &TypeCtx, consts: &ConstPool, i: InstId) -> bool {
    match f.inst(i) {
        Inst::Bin {
            op: BinOp::Div | BinOp::Rem,
            rhs,
            ..
        } => types.is_float(f.inst_ty(i)) || consts.int_of(*rhs).is_some_and(|k| k != 0),
        Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Cast { .. } | Inst::Gep { .. } => true,
        _ => false,
    }
}

/// Whether every operand of `i` is defined outside the loop marked in
/// `in_loop`, `home` saying where each instruction lives now.
fn operands_outside(f: &Function, i: InstId, home: &[Option<BlockId>], in_loop: &[bool]) -> bool {
    let mut outside = true;
    f.inst(i).for_each_operand(|v| {
        if let Value::Inst(d) = v {
            outside &= home[d.index()].is_some_and(|b| !in_loop[b.index()]);
        }
    });
    outside
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    /// `(module, instructions hoisted, blocks before)` after `licm` on `@f`.
    fn opt(src: &str) -> (Module, usize, usize) {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        let blocks = m.func(fid).num_blocks();
        let n = licm_function(&mut m, fid);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        assert_eq!(m.func(fid).num_blocks(), blocks, "licm creates no block");
        (m, n, blocks)
    }

    /// The opcodes of block `b` of `@f`, in order.
    fn ops(m: &Module, b: usize) -> Vec<String> {
        let f = m.func(m.func_by_name("f").unwrap());
        (f.block_insts(BlockId::from_index(b)).iter())
            .map(|&i| match f.inst(i) {
                Inst::Bin { op, .. } => op.name().to_string(),
                other => format!("{other:?}")
                    .split([' ', '(', '{'])
                    .next()
                    .unwrap()
                    .to_lowercase(),
            })
            .collect()
    }

    #[test]
    fn invariant_arithmetic_and_addresses_move_to_the_preheader() {
        let (m, n, _) = opt("
@a = global [8 x int] zeroinitializer
define int @f(int %k, int %n) {
e:
  br label %l
l:
  %i = phi int [ 0, %e ], [ %i2, %l ]
  %s = phi int [ 0, %e ], [ %s2, %l ]
  %m = mul int %k, 3
  %p = getelementptr [8 x int]* @a, long 0, int %k
  %v = load int* %p
  %t = add int %v, %m
  %s2 = add int %s, %t
  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %l, label %x
x:
  ret int %s2
}");
        assert_eq!(n, 2);
        assert_eq!(ops(&m, 0), ["mul", "gep", "br"]);
        // The load of an invariant address stays in the loop.
        assert_eq!(ops(&m, 1)[..3], ["phi", "phi", "load"]);
    }

    #[test]
    fn an_invariant_of_a_nest_reaches_the_outermost_preheader() {
        let (m, _, _) = opt("
define int @f(int %k, int %n) {
e:
  br label %o
o:
  %i = phi int [ 0, %e ], [ %i2, %ol ]
  br label %in
in:
  %j = phi int [ 0, %o ], [ %j2, %in ]
  %m = mul int %k, 3
  %w = mul int %i, %k
  %j1 = add int %j, %m
  %j2 = add int %j1, %w
  %c = setlt int %j2, %n
  br bool %c, label %in, label %ol
ol:
  %i2 = add int %i, 1
  %c2 = setlt int %i2, %n
  br bool %c2, label %o, label %x
x:
  ret int %i2
}");
        assert_eq!(ops(&m, 0), ["mul", "br"], "k * 3 leaves both loops");
        assert_eq!(
            ops(&m, 1),
            ["phi", "mul", "br"],
            "i * k leaves the inner one"
        );
        assert_eq!(ops(&m, 2), ["phi", "add", "add", "cmp", "condbr"]);
    }

    #[test]
    fn nothing_that_may_trap_or_may_not_run_moves() {
        let (m, n, _) = opt("
define int @f(int %k, int %d, int %n, bool %b) {
e:
  br label %l
l:
  %i = phi int [ 0, %e ], [ %i2, %latch ]
  %q = div int %k, %d
  %q5 = div int %k, 5
  %r0 = rem int %k, 0
  br bool %b, label %side, label %latch
side:
  %m = mul int %k, %k
  br label %latch
latch:
  %p = phi int [ %q, %l ], [ %m, %side ]
  %i1 = add int %i, %p
  %i2 = add int %i1, %q5
  %c = setlt int %i2, %n
  br bool %c, label %l, label %x
x:
  ret int %r0
}");
        assert_eq!(n, 1, "{}", m.display());
        assert_eq!(ops(&m, 0), ["div", "br"]);
        assert_eq!(ops(&m, 1), ["phi", "div", "rem", "condbr"]);
        assert_eq!(ops(&m, 2), ["mul", "br"]);
    }

    #[test]
    fn a_guarded_loop_has_no_preheader_and_gets_none() {
        let (_, n, _) = opt("
define int @f(int %k, int %n) {
e:
  %g = setlt int 0, %n
  br bool %g, label %l, label %x
l:
  %i = phi int [ 0, %e ], [ %i2, %l ]
  %m = mul int %k, 3
  %i2 = add int %i, %m
  %c = setlt int %i2, %n
  br bool %c, label %l, label %x
x:
  ret int 0
}");
        assert_eq!(n, 0);
    }
}
