//! Run-time profile recording: dense, index-addressed counter slabs.
//!
//! [`ProfileData`] is the sparse interchange form the store, the
//! reoptimizer and the speculator consume; hashing its keys at every
//! taken branch made a profiled run cost twice an unprofiled one. The
//! engines therefore bump plain `u64` slots here — one `+= 1` on an index
//! known at translation time — and [`Counters::drain_into`] folds the
//! non-zero slots into `Vm::profile` whenever a run entry point returns.
//! Slabs are sized from the module being executed, never from file input.

use std::collections::HashMap;
use std::hash::Hash;

use lpat_core::{BlockId, FuncId, Function, InstId, Module};
use lpat_transform::SpecMap;

use crate::profile::ProfileData;

/// The slot of an edge that is not in the CFG. Only an unverified module
/// can take one (an `invoke` that is not its block's terminator); it goes
/// uncounted instead of indexing out of range.
const NO_SLOT: u32 = u32::MAX;

/// Where each CFG edge of one function lives in its edge slab: block `b`'s
/// successors, in [`lpat_core::Inst::successors`] order, own the slots
/// `base[b]..base[b + 1]`, and `to[slot]` is the successor's block index.
#[derive(Default)]
pub(crate) struct EdgeLayout {
    base: Vec<u32>,
    to: Vec<u32>,
}

impl EdgeLayout {
    pub(crate) fn new(f: &Function) -> EdgeLayout {
        let mut base = Vec::with_capacity(f.num_blocks() + 1);
        let mut to = Vec::new();
        for b in f.block_ids() {
            base.push(to.len() as u32);
            to.extend(f.successors(b).iter().map(|s| s.index() as u32));
        }
        base.push(to.len() as u32);
        EdgeLayout { base, to }
    }

    /// Slot of the edge `from -> to`. Duplicate successors of one
    /// terminator (a `condbr` with both arms on one block, several
    /// `switch` cases on one target) share the first one's slot, so a
    /// traversal counts once, under the one `(from, to)` key it has.
    pub(crate) fn slot(&self, from: u32, to: u32) -> u32 {
        let lo = self.base[from as usize] as usize;
        let hi = self.base[from as usize + 1] as usize;
        self.to[lo..hi]
            .iter()
            .position(|&t| t == to)
            .map_or(NO_SLOT, |i| (lo + i) as u32)
    }
}

/// One function's slabs; all empty until its first profiled call.
#[derive(Default)]
struct FuncCounters {
    calls: u64,
    /// Entries of each block, by block index.
    blocks: Vec<u64>,
    /// Traversals of each edge, by [`EdgeLayout::slot`].
    edges: Vec<u64>,
    /// Executions of each call site, by the call's `InstId` index.
    sites: Vec<u64>,
    layout: EdgeLayout,
}

/// What profiling allocated and recorded so far (`--stats`, the trace).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Functions with counter slabs.
    pub funcs: u64,
    /// Counter slots allocated across all slabs.
    pub slots: u64,
    /// Non-zero slots folded into `Vm::profile` by all drains so far.
    pub nonzero: u64,
}

/// The engines' recording form, owned by `Vm`.
#[derive(Default)]
pub(crate) struct Counters {
    /// Dense over `FuncId`; empty until the first profiled call.
    funcs: Vec<FuncCounters>,
    nonzero: u64,
}

fn add<K: Hash + Eq>(map: &mut HashMap<K, u64>, key: K, slot: &mut u64, nonzero: &mut u64) {
    let n = std::mem::take(slot);
    if n != 0 {
        *map.entry(key).or_insert(0) += n;
        *nonzero += 1;
    }
}

impl Counters {
    /// A call of `f`: allocate its slabs on first use, count the call and
    /// the entry block. Every frame is made through here, so the other
    /// recorders may index `funcs[f]` for any function on the stack.
    pub(crate) fn enter(&mut self, m: &Module, f: FuncId) {
        if self.funcs.is_empty() {
            self.funcs.resize_with(m.num_funcs(), FuncCounters::default);
        }
        let func = m.func(f);
        let fc = &mut self.funcs[f.index()];
        if fc.blocks.is_empty() {
            fc.layout = EdgeLayout::new(func);
            fc.blocks = vec![0; func.num_blocks()];
            fc.edges = vec![0; fc.layout.to.len()];
            fc.sites = vec![0; func.num_inst_slots()];
        }
        fc.calls += 1;
        fc.blocks[func.entry().index()] += 1;
    }

    /// A traversal of the edge at `slot` into block `to`.
    #[inline]
    pub(crate) fn edge(&mut self, f: FuncId, slot: u32, to: u32) {
        let fc = &mut self.funcs[f.index()];
        if let Some(n) = fc.edges.get_mut(slot as usize) {
            *n += 1;
        }
        fc.blocks[to as usize] += 1;
    }

    /// [`Counters::edge`] for the interpreter, which has no translated
    /// edge table: the slot is found from `from`'s successor list (at most
    /// two entries outside `switch`).
    #[inline]
    pub(crate) fn edge_between(&mut self, f: FuncId, from: BlockId, to: BlockId) {
        let to = to.index() as u32;
        let slot = self.funcs[f.index()].layout.slot(from.index() as u32, to);
        self.edge(f, slot, to);
    }

    #[inline]
    pub(crate) fn site(&mut self, f: FuncId, site: usize) {
        self.funcs[f.index()].sites[site] += 1;
    }

    /// Fold every non-zero slot into `p` and zero it. A guard in `spec`
    /// is its branch's two edges, read before they are zeroed: both are
    /// executions, the else edge is a misspeculation, keyed by the
    /// guard's stable id. Returns the guards' `(passed, failed)`.
    pub(crate) fn drain_into(&mut self, spec: Option<&SpecMap>, p: &mut ProfileData) -> (u64, u64) {
        let nz = &mut self.nonzero;
        let (mut passed, mut failed) = (0, 0);
        for g in spec.map_or(&[][..], |s| &s.guards) {
            let Some(fc) = self.funcs.get(g.func.index()) else {
                continue;
            };
            // Not called since the last drain, or an overlay made for
            // another module: nothing of this guard was counted here.
            let b = g.block.index();
            if b >= fc.blocks.len() || fc.layout.base[b + 1] - fc.layout.base[b] != 2 {
                continue;
            }
            let then = fc.layout.base[b] as usize;
            let (pass, fail) = (fc.edges[then], fc.edges[then + 1]);
            passed += pass;
            failed += fail;
            add(&mut p.guard_exec_counts, g.id, &mut (pass + fail), nz);
            add(&mut p.guard_misspec_counts, g.id, &mut { fail }, nz);
        }
        for (i, fc) in self.funcs.iter_mut().enumerate() {
            // Frames do not outlive a run, so a function that recorded
            // anything since the last drain was also called since then.
            if fc.calls == 0 {
                continue;
            }
            let f = FuncId::from_index(i);
            add(&mut p.call_counts, f, &mut fc.calls, nz);
            for (b, n) in fc.blocks.iter_mut().enumerate() {
                let from = BlockId::from_index(b);
                add(&mut p.block_counts, (f, from), n, nz);
                for slot in fc.layout.base[b] as usize..fc.layout.base[b + 1] as usize {
                    let to = BlockId::from_index(fc.layout.to[slot] as usize);
                    add(&mut p.edge_counts, (f, from, to), &mut fc.edges[slot], nz);
                }
            }
            for (s, n) in fc.sites.iter_mut().enumerate() {
                add(&mut p.callsite_counts, (f, InstId::from_index(s)), n, nz);
            }
        }
        (passed, failed)
    }

    pub(crate) fn stats(&self) -> ProfileStats {
        let live = self.funcs.iter().filter(|fc| !fc.blocks.is_empty());
        ProfileStats {
            funcs: live.clone().count() as u64,
            slots: live
                .map(|fc| 1 + fc.blocks.len() + fc.edges.len() + fc.sites.len())
                .sum::<usize>() as u64,
            nonzero: self.nonzero,
        }
    }
}
