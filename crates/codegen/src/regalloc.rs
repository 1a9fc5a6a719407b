//! Live ranges and the linear-scan register allocator, shared by the
//! executable [`crate::fast`] back end and the [`crate::lower`] size
//! models.
//!
//! ## Live ranges
//!
//! Every SSA value has a *value number*: parameter `n` is `n`, the
//! instruction in arena slot `i` is `params + i`. Blocks are numbered in
//! reverse post-order (unreachable blocks follow in layout order) and laid
//! on one line of positions: a block's start, two positions per non-φ
//! instruction — the slot its operands are read at and the one its result
//! is written at — and an edge slot, where the φ-copies of its outgoing
//! edges read their sources. Arguments are written at the entry's start
//! and φs at their block's start.
//!
//! Liveness is exact at block granularity on any CFG, irreducible ones
//! included: from each use, a backward walk over predecessors marks the
//! blocks the value is live into, stopping at its defining block, and
//! visits each block at most once per value, so the cost is the size of
//! the live sets. A value's *range* is the hull `[start, end]` of every
//! position it is live at; two values whose ranges are disjoint are never
//! live at once and may share a register.
//!
//! A result is written after its operands are read, so it may take the
//! register of an operand that dies at the same instruction (the loop
//! counter `%i2 = add %i, 1` takes `%i`'s, and the back edge's φ-copy
//! vanishes). The one exception is a `getelementptr` with a variable
//! index, whose machine sequence writes the result before it has read
//! every index: it is written at its read slot, so it overlaps them.

use lpat_core::{BlockId, Function, Inst, Value};

/// A value's number: parameter `n` is `n`, the instruction in arena slot
/// `i` is `params + i`; constants have none.
fn value_number(params: usize, v: Value) -> Option<usize> {
    match v {
        Value::Arg(n) => Some(n as usize),
        Value::Inst(i) => Some(params + i.index()),
        Value::Const(_) => None,
    }
}

/// The result of [`live_ranges`].
pub struct LiveRanges {
    /// `[start, end]` per value number; `None` for unlinked arena slots.
    /// `start == end` exactly when the value is never used.
    pub range: Vec<Option<(u32, u32)>>,
}

/// Per block: where its successors and predecessors start in the edge
/// list, its start and edge-slot positions, and the last value found
/// live into it (`value + 1`).
#[derive(Copy, Clone)]
struct Blk {
    succ: u32,
    pred: u32,
    start: u32,
    end: u32,
    seen: u32,
}

/// Per value: where it is written, its block, and where its uses start in
/// the use list.
#[derive(Copy, Clone)]
struct Val {
    def: u32,
    block: u32,
    uses: u32,
}

const NONE: u32 = u32::MAX;

/// Number `f`'s blocks in reverse post-order and compute every value's
/// live range. The tables are a few flat arrays, whatever the function's
/// size.
pub fn live_ranges(f: &Function) -> LiveRanges {
    let params = f.num_params();
    let n_blocks = f.num_blocks();
    let n_vals = params + f.num_inst_slots();
    let mut blk = vec![
        Blk {
            succ: 0,
            pred: 0,
            start: 0,
            end: 0,
            seen: 0,
        };
        n_blocks + 1
    ];
    // `edges` holds every block's successors, in block order, then every
    // block's predecessors: `edges[blk[b].succ..blk[b + 1].succ]` and
    // likewise from `pred`.
    let mut edges: Vec<u32> = Vec::new();
    for b in f.block_ids() {
        blk[b.index()].succ = edges.len() as u32;
        if let Some(t) = f.terminator(b) {
            f.inst(t).for_each_successor(|s| {
                edges.push(s.index() as u32);
                blk[s.index() + 1].pred += 1;
            });
        }
    }
    let n_edges = edges.len() as u32;
    blk[n_blocks].succ = n_edges;
    blk[0].pred = n_edges;
    for b in 0..n_blocks {
        blk[b + 1].pred += blk[b].pred;
    }
    edges.resize(2 * n_edges as usize, 0);
    for b in 0..n_blocks {
        for k in blk[b].succ..blk[b + 1].succ {
            let s = edges[k as usize] as usize;
            // `end` counts the predecessors placed so far.
            edges[(blk[s].pred + blk[s].end) as usize] = b as u32;
            blk[s].end += 1;
        }
    }
    let preds = |blk: &[Blk], b: usize| blk[b].pred..blk[b + 1].pred;

    // -- block order: reverse post-order, then the unreachable rest -----
    // `seen` marks a block visited until the walks below reset it.
    let mut order: Vec<u32> = Vec::with_capacity(n_blocks);
    if n_blocks > 0 {
        let mut stack: Vec<(u32, u32)> = vec![(0, blk[0].succ)];
        blk[0].seen = 1;
        while let Some(top) = stack.last_mut() {
            let (b, next) = *top;
            if next < blk[b as usize + 1].succ {
                top.1 += 1;
                let s = edges[next as usize];
                if blk[s as usize].seen == 0 {
                    blk[s as usize].seen = 1;
                    stack.push((s, blk[s as usize].succ));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order.extend((0..n_blocks as u32).filter(|&b| blk[b as usize].seen == 0));
    }

    // -- positions -----------------------------------------------------
    let mut val = vec![
        Val {
            def: NONE,
            block: 0,
            uses: 0,
        };
        n_vals + 1
    ];
    let mut pos = 0u32;
    for &b in &order {
        blk[b as usize].seen = 0;
        blk[b as usize].start = pos;
        for &iid in f.block_insts(BlockId::from_index(b as usize)) {
            let mut count = |v| {
                if let Some(v) = value_number(params, v) {
                    val[v + 1].uses += 1;
                }
            };
            let def = match f.inst(iid) {
                Inst::Phi { incoming } => {
                    incoming.iter().for_each(|&(v, _)| count(v));
                    blk[b as usize].start
                }
                inst => {
                    inst.for_each_operand(count);
                    // The read slot, then the write slot.
                    pos += 2;
                    pos - writes_before_reading(inst) as u32
                }
            };
            val[params + iid.index()] = Val {
                def,
                block: b,
                uses: val[params + iid.index()].uses,
            };
        }
        // The edge slot: where a φ's incoming value is read and what a
        // value live out of the block reaches.
        pos += 1;
        blk[b as usize].end = pos;
        pos += 1;
    }
    if n_blocks > 0 {
        for v in &mut val[..params] {
            v.def = 0;
        }
    }

    // -- uses, grouped by value (counting sort, counted above) ----------
    for v in 0..n_vals {
        val[v + 1].uses += val[v].uses;
    }
    let mut fill: Vec<u32> = val.iter().map(|v| v.uses).collect();
    let mut uses: Vec<(u32, u32)> = vec![(0, 0); val[n_vals].uses as usize];
    for_each_use(f, &order, &blk, &val, |v, b, at| {
        uses[fill[v] as usize] = (b, at);
        fill[v] += 1;
    });
    drop(fill);

    // -- live sets, one backward walk per value -------------------------
    let mut range: Vec<Option<(u32, u32)>> = vec![None; n_vals];
    let mut work: Vec<u32> = Vec::new();
    for v in 0..n_vals {
        let Val {
            def,
            block: d,
            uses: first,
        } = val[v];
        if def == NONE {
            continue; // an unlinked arena slot
        }
        let mark = v as u32 + 1;
        let (mut lo, mut hi) = (def, def);
        // `v` is live into `b`: walk on from there.
        let enter = |blk: &mut [Blk], b: u32, lo: &mut u32, work: &mut Vec<u32>| {
            let at = &mut blk[b as usize];
            if b != d && at.seen != mark {
                at.seen = mark;
                *lo = (*lo).min(at.start);
                work.push(b);
            }
        };
        let vs = &uses[first as usize..val[v + 1].uses as usize];
        for &(b, at) in vs {
            lo = lo.min(at);
            hi = hi.max(at);
            enter(&mut blk, b, &mut lo, &mut work);
        }
        while let Some(b) = work.pop() {
            for k in preds(&blk, b as usize) {
                let p = edges[k as usize];
                hi = hi.max(blk[p as usize].end);
                enter(&mut blk, p, &mut lo, &mut work);
            }
        }
        range[v] = Some((lo, hi));
    }
    LiveRanges { range }
}

/// Visit every use `(value, block, position)` of `f`'s values, blocks in
/// `order`: a φ reads its value at the end of the incoming block, where
/// the value must be live out.
fn for_each_use(
    f: &Function,
    order: &[u32],
    blk: &[Blk],
    val: &[Val],
    mut visit: impl FnMut(usize, u32, u32),
) {
    let params = f.num_params();
    for &b in order {
        for &iid in f.block_insts(BlockId::from_index(b as usize)) {
            match f.inst(iid) {
                Inst::Phi { incoming } => {
                    for &(v, p) in incoming {
                        if let Some(v) = value_number(params, v) {
                            visit(v, p.index() as u32, blk[p.index()].end);
                        }
                    }
                }
                inst => {
                    let def = val[params + iid.index()].def;
                    let read = def - (!writes_before_reading(inst)) as u32;
                    inst.for_each_operand(|v| {
                        if let Some(v) = value_number(params, v) {
                            visit(v, b, read);
                        }
                    });
                }
            }
        }
    }
}

/// Whether an instruction's machine sequence writes its result before it
/// has read every operand: a `getelementptr` with a variable index
/// accumulates the address in its destination.
fn writes_before_reading(inst: &Inst) -> bool {
    matches!(inst, Inst::Gep { indices, .. } if indices.iter().any(|v| !matches!(v, Value::Const(_))))
}

/// Where [`linear_scan`] put a value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Assign {
    /// Register `k` of the budget (`0..regs`).
    Reg(u8),
    /// Spill slot `n`: the value lives in memory for its whole range.
    Slot(u32),
    /// Never used, and no register was free at its definition: whatever
    /// it is written to is never read.
    Dead,
}

/// Hand `regs` registers to the ranges of `range` (by value number) so
/// that no two overlapping ranges share one; returns each value's
/// assignment and the number of spill slots.
///
/// Ranges are scanned in `(start, end, value number)` order, which is
/// total, so the result is a function of the IR alone. A range that finds
/// every register taken spills whichever of it and the active ranges ends
/// last (Poletto and Sarkar's heuristic); an unused value takes a free
/// register if there is one and is [`Assign::Dead`] otherwise. With at
/// most 28 active ranges the scan is linear in the number of values.
pub fn linear_scan(range: &[Option<(u32, u32)>], regs: u8) -> (Vec<Assign>, u32) {
    let mut order: Vec<(u32, u32, usize)> = (range.iter().enumerate())
        .filter_map(|(v, r)| r.map(|(s, e)| (s, e, v)))
        .collect();
    order.sort_unstable();
    let mut assign = vec![Assign::Dead; range.len()];
    let mut free: Vec<u8> = (0..regs).rev().collect();
    // Ascending by end: expiry drains a prefix, the furthest is last.
    let mut active: Vec<(u32, usize, u8)> = Vec::new(); // (end, value, reg)
    let mut slots = 0u32;
    for (s, e, v) in order {
        // Freed in order of end, so the register on top of `free` is the
        // one of the operand that died last: a result takes it.
        let expired = active.partition_point(|&(ae, _, _)| ae < s);
        free.extend(active.drain(..expired).map(|(_, _, r)| r));
        let hold = |active: &mut Vec<(u32, usize, u8)>, r: u8| {
            let at = active.partition_point(|&a| a < (e, v, r));
            active.insert(at, (e, v, r));
            Assign::Reg(r)
        };
        if let Some(r) = free.pop() {
            assign[v] = hold(&mut active, r);
        } else if s == e {
            // Never read and no register free: written to nowhere.
        } else if active.last().is_some_and(|&(ae, _, _)| ae > e) {
            let (_, spilled, r) = active.pop().expect("checked");
            assign[spilled] = Assign::Slot(slots);
            slots += 1;
            assign[v] = hold(&mut active, r);
        } else {
            assign[v] = Assign::Slot(slots);
            slots += 1;
        }
    }
    (assign, slots)
}

/// The largest number of ranges that overlap at any position: the
/// registers [`linear_scan`] needs to spill nothing.
#[cfg(test)]
pub(crate) fn max_pressure(range: &[Option<(u32, u32)>]) -> usize {
    let mut ev: Vec<(u32, i32)> = Vec::with_capacity(2 * range.len());
    for &(s, e) in range.iter().flatten() {
        ev.push((s, 1));
        ev.push((e + 1, -1));
    }
    ev.sort_unstable();
    let (mut cur, mut max) = (0i32, 0i32);
    for (_, d) in ev {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(src: &str) -> lpat_core::Module {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap_or_else(|e| panic!("{e:?}"));
        m
    }

    /// The value number of instruction `k` of block `b` in `@f`.
    fn num(m: &lpat_core::Module, b: usize, k: usize) -> usize {
        let f = m.func(m.func_by_name("f").unwrap());
        f.num_params() + f.block_insts(BlockId::from_index(b))[k].index()
    }

    fn overlap(a: Option<(u32, u32)>, b: Option<(u32, u32)>) -> bool {
        let ((s1, e1), (s2, e2)) = (a.unwrap(), b.unwrap());
        s1 <= e2 && s2 <= e1
    }

    /// A cycle with two entries (`l` and `r` each reach the other) is not
    /// a loop with a header, so no loop-based extension would see `%k`
    /// live in both; the backward walk does, and `%k`'s range covers
    /// every value of either block, their φs included.
    #[test]
    fn liveness_is_exact_on_an_irreducible_cycle() {
        let m = func(
            "define int @f(int %a) {
e:
  %k = mul int %a, 3
  %c = setlt int %a, 0
  br bool %c, label %l, label %r
l:
  %x = phi int [ 0, %e ], [ %y2, %r ]
  %x2 = add int %x, %k
  %cl = setlt int %x2, 100
  br bool %cl, label %r, label %out
r:
  %y = phi int [ 1, %e ], [ %x2, %l ]
  %y2 = add int %y, %k
  %cr = setlt int %y2, 100
  br bool %cr, label %l, label %out
out:
  %z = phi int [ %x2, %l ], [ %y2, %r ]
  ret int %z
}",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let live = live_ranges(f);
        let (k, c) = (num(&m, 0, 0), num(&m, 0, 1));
        // `%k` is read on every trip around the cycle: its range covers
        // every value defined in it.
        for (b, i) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)] {
            assert!(
                overlap(live.range[k], live.range[num(&m, b, i)]),
                "%k vs {b}:{i}"
            );
        }
        // `%c` dies at the branch that ends `e`.
        for b in [1, 2] {
            assert!(
                !overlap(live.range[c], live.range[num(&m, b, 0)]),
                "%c vs the φ of block {b}"
            );
        }
    }

    /// `%i2 = add %i, 1` takes `%i`'s register (the back edge's φ-copy is
    /// then a no-op), a value never read holds a register only at its
    /// definition, and a getelementptr with a variable index never
    /// shares one with its operands.
    #[test]
    fn results_take_the_registers_of_operands_that_die() {
        let m = func(
            "define int* @f(int* %p, int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %dead = mul int %i, 7
  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %h, label %x
x:
  %q = getelementptr int* %p, int %i2
  ret int* %q
}",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let live = live_ranges(f);
        let (assign, slots) = linear_scan(&live.range, 28);
        assert_eq!(slots, 0);
        let (i, dead, i2, q) = (num(&m, 1, 0), num(&m, 1, 1), num(&m, 1, 2), num(&m, 2, 0));
        assert_eq!(assign[i2], assign[i], "the counter reuses its register");
        let (s, e) = live.range[dead].unwrap();
        assert_eq!(s, e, "an unused value's range is one position");
        assert_ne!(assign[q], assign[i2]);
        assert_ne!(assign[q], assign[0], "%q vs %p");
    }

    /// Values never read and no register free: `Dead`, not a slot; and
    /// the spill choice is the range that ends last.
    #[test]
    fn linear_scan_spills_the_range_that_ends_last() {
        let range = vec![Some((0, 10)), Some((1, 3)), Some((2, 2)), Some((4, 5))];
        let (assign, slots) = linear_scan(&range, 1);
        assert_eq!(slots, 1);
        assert_eq!(assign[0], Assign::Slot(0), "[0, 10] ends last");
        assert_eq!(assign[1], Assign::Reg(0));
        assert_eq!(assign[2], Assign::Dead);
        assert_eq!(assign[3], Assign::Reg(0), "free again after 3");
        assert_eq!(max_pressure(&range), 3);
    }
}
