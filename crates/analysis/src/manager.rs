//! Analysis caching with explicit invalidation.
//!
//! The pass framework's counterpart to LLVM's analysis manager: analyses
//! are computed on demand, cached, and reused until something invalidates
//! them. Two mechanisms drive invalidation:
//!
//! * **Modification counters.** Every [`Function`] carries a version
//!   number bumped by each mutating method. A cached per-function analysis
//!   remembers the version it was computed at; a mismatch at request time
//!   means the cache entry is stale and is recomputed (a *miss*).
//! * **[`PreservedAnalyses`].** Every pass reports which analysis classes
//!   it kept valid. When a pass mutates a function but preserves the CFG
//!   (the common case — constant folding, GVN, dead-code removal), the
//!   manager re-stamps the cached entries to the new version instead of
//!   discarding them, which is what turns recomputation into cache *hits*
//!   for the next pass. A pass that does not preserve an analysis class
//!   causes the cached entries to be dropped (*invalidations*).
//!
//! Per-function analyses (dominator trees, loops) live in [`FuncAnalyses`]
//! slots — one per function — so the parallel function-pass executor can
//! hand each worker its functions' slots without sharing. The module-level
//! call graph is cached directly on the [`AnalysisManager`].

use std::ops::Sub;

use lpat_core::{Function, Module};

use crate::callgraph::CallGraph;
use crate::domtree::DomTree;
use crate::loops::LoopInfo;

/// Which analysis classes a pass kept valid. Returned by every pass; the
/// manager applies it after the pass runs.
///
/// The contract is about *classes*, not instances: `cfg: true` promises
/// the function's control-flow structure (blocks, edges) is unchanged
/// since the pass's last analysis request, so CFG-derived analyses
/// (dominators, loops) computed during or before the pass remain valid
/// even though instruction-level edits bumped the modification counter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PreservedAnalyses {
    /// CFG-derived per-function analyses (dominator tree, loop info)
    /// survive this pass.
    pub cfg: bool,
    /// The module call graph survives this pass.
    pub call_graph: bool,
}

impl PreservedAnalyses {
    /// The pass changed nothing the caches care about.
    pub fn all() -> PreservedAnalyses {
        PreservedAnalyses {
            cfg: true,
            call_graph: true,
        }
    }

    /// Conservative bottom: every cached analysis is dropped.
    pub fn none() -> PreservedAnalyses {
        PreservedAnalyses {
            cfg: false,
            call_graph: false,
        }
    }

    /// CFG shape intact, but calls may have been added or removed (e.g.
    /// a pass that rewrites instructions without touching block edges
    /// cannot promise the call graph if it deletes call instructions).
    pub fn cfg_only() -> PreservedAnalyses {
        PreservedAnalyses {
            cfg: true,
            call_graph: false,
        }
    }

    /// Intersection: preserved only if both sides preserved.
    pub fn intersect(self, other: PreservedAnalyses) -> PreservedAnalyses {
        PreservedAnalyses {
            cfg: self.cfg && other.cfg,
            call_graph: self.call_graph && other.call_graph,
        }
    }
}

/// Cache traffic counters. `Sub` yields the delta between two snapshots,
/// which is how per-pass counts are attributed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that had to (re)compute.
    pub misses: u64,
    /// Cached entries dropped by a pass that did not preserve them.
    pub invalidations: u64,
}

impl CacheStats {
    /// Accumulate another counter set into this one.
    pub fn add(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }

    /// Whether all counters are zero.
    pub fn is_empty(&self) -> bool {
        *self == CacheStats::default()
    }
}

impl Sub for CacheStats {
    type Output = CacheStats;
    fn sub(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            invalidations: self.invalidations - rhs.invalidations,
        }
    }
}

/// The cached analyses of one function, stamped with the function version
/// they were computed at.
#[derive(Debug, Default)]
pub struct FuncAnalyses {
    domtree: Option<(u64, DomTree)>,
    loops: Option<(u64, LoopInfo)>,
    stats: CacheStats,
}

impl FuncAnalyses {
    /// The dominator tree of `f`, cached across passes that preserve the
    /// CFG.
    pub fn domtree(&mut self, f: &Function) -> &DomTree {
        match &self.domtree {
            Some((v, _)) if *v == f.version() => self.stats.hits += 1,
            _ => {
                self.stats.misses += 1;
                self.domtree = Some((f.version(), DomTree::compute(f)));
            }
        }
        &self.domtree.as_ref().unwrap().1
    }

    /// The natural-loop forest of `f`, cached like the dominator tree.
    pub fn loops(&mut self, f: &Function) -> &LoopInfo {
        let fresh = matches!(&self.loops, Some((v, _)) if *v == f.version());
        if fresh {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            // Computing loops needs the dominator tree; route the request
            // through the cache (it counts as its own hit or miss).
            let dt_fresh = matches!(&self.domtree, Some((v, _)) if *v == f.version());
            if dt_fresh {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                self.domtree = Some((f.version(), DomTree::compute(f)));
            }
            let dt = &self.domtree.as_ref().unwrap().1;
            self.loops = Some((f.version(), LoopInfo::compute(f, dt)));
        }
        &self.loops.as_ref().unwrap().1
    }

    /// The dominator tree and the natural-loop forest of `f` together,
    /// each cached as by [`FuncAnalyses::domtree`] and
    /// [`FuncAnalyses::loops`].
    pub fn domtree_and_loops(&mut self, f: &Function) -> (&DomTree, &LoopInfo) {
        self.loops(f);
        self.domtree(f);
        (
            &self.domtree.as_ref().unwrap().1,
            &self.loops.as_ref().unwrap().1,
        )
    }

    /// Apply a pass's [`PreservedAnalyses`] at function version
    /// `new_version` (the version after the pass ran): re-stamp preserved
    /// entries so later requests hit, drop the rest.
    pub fn apply(&mut self, preserved: &PreservedAnalyses, new_version: u64) {
        if preserved.cfg {
            if let Some((v, _)) = &mut self.domtree {
                *v = new_version;
            }
            if let Some((v, _)) = &mut self.loops {
                *v = new_version;
            }
        } else {
            self.stats.invalidations += self.domtree.is_some() as u64 + self.loops.is_some() as u64;
            self.domtree = None;
            self.loops = None;
        }
    }

    /// Drop every cached entry of this slot, counting invalidations.
    ///
    /// Used when a pass faults and the function is rolled back to its
    /// pre-pass snapshot: entries computed *during* the pass are stamped
    /// with version numbers the restored function will reach again later
    /// (the snapshot restores the old counter), so keeping them would risk
    /// an ABA mismatch — a stale analysis treated as fresh.
    pub fn invalidate(&mut self) {
        self.stats.invalidations += self.domtree.is_some() as u64 + self.loops.is_some() as u64;
        self.domtree = None;
        self.loops = None;
    }

    /// Snapshot of this slot's cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Module-wide analysis cache: one [`FuncAnalyses`] slot per function plus
/// the call graph. Owned by the pass manager's context and threaded
/// through every pass.
#[derive(Debug, Default)]
pub struct AnalysisManager {
    funcs: Vec<FuncAnalyses>,
    call_graph: Option<CallGraph>,
    cg_stats: CacheStats,
}

impl AnalysisManager {
    /// An empty manager.
    pub fn new() -> AnalysisManager {
        AnalysisManager::default()
    }

    /// The call graph of `m`, cached until a pass fails to preserve it.
    pub fn call_graph(&mut self, m: &Module) -> &CallGraph {
        if self.call_graph.is_some() {
            self.cg_stats.hits += 1;
        } else {
            self.cg_stats.misses += 1;
            self.call_graph = Some(CallGraph::build(m));
        }
        self.call_graph.as_ref().unwrap()
    }

    /// Drop the cached call graph (a pass mutated calls mid-run and wants
    /// a rebuild before its next request).
    pub fn invalidate_call_graph(&mut self) {
        if self.call_graph.take().is_some() {
            self.cg_stats.invalidations += 1;
        }
    }

    /// The per-function analysis slots, resized to `n` functions. The
    /// function-pass executor distributes these across workers alongside
    /// the function bodies.
    pub fn func_slots(&mut self, n: usize) -> &mut [FuncAnalyses] {
        if self.funcs.len() != n {
            // The function table was renumbered (functions added or
            // removed): positional slots no longer line up, drop them all.
            let dropped: u64 = self
                .funcs
                .iter()
                .map(|s| s.domtree.is_some() as u64 + s.loops.is_some() as u64)
                .sum();
            self.cg_stats.invalidations += dropped;
            self.funcs.clear();
            self.funcs.resize_with(n, FuncAnalyses::default);
        }
        &mut self.funcs
    }

    /// Apply a module pass's [`PreservedAnalyses`]. `num_funcs` is the
    /// function count after the pass (a changed count always drops the
    /// per-function slots, preserved or not).
    pub fn apply(&mut self, preserved: &PreservedAnalyses, num_funcs: usize) {
        if !preserved.call_graph {
            self.invalidate_call_graph();
        }
        if !preserved.cfg || self.funcs.len() != num_funcs {
            let dropped: u64 = self
                .funcs
                .iter()
                .map(|s| s.domtree.is_some() as u64 + s.loops.is_some() as u64)
                .sum();
            self.cg_stats.invalidations += dropped;
            self.funcs.clear();
            self.funcs.resize_with(num_funcs, FuncAnalyses::default);
        }
    }

    /// Drop everything: the call graph and every per-function entry.
    ///
    /// The pass manager calls this after rolling a module back to a
    /// pre-pass snapshot — the restored functions carry their old version
    /// counters, so any entry cached during the faulted pass could later
    /// collide with a re-used version number (see
    /// [`FuncAnalyses::invalidate`]).
    pub fn invalidate_all(&mut self) {
        self.invalidate_call_graph();
        for s in &mut self.funcs {
            s.invalidate();
        }
    }

    /// Aggregate cache counters: every function slot plus the call graph.
    pub fn stats(&self) -> CacheStats {
        let mut total = self.cg_stats;
        for s in &self.funcs {
            total.add(s.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn sample() -> Module {
        parse_module(
            "t",
            "
define int @f(int %x) {
e:
  %c = setlt int %x, 10
  br bool %c, label %a, label %b
a:
  ret int 1
b:
  ret int 2
}",
        )
        .unwrap()
    }

    #[test]
    fn domtree_hits_when_version_unchanged() {
        let m = sample();
        let f = m.func(m.func_by_name("f").unwrap());
        let mut fa = FuncAnalyses::default();
        fa.domtree(f);
        fa.domtree(f);
        let s = fa.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn mutation_forces_recompute_but_preserved_restamps() {
        let mut m = sample();
        let fid = m.func_by_name("f").unwrap();
        let mut fa = FuncAnalyses::default();
        fa.domtree(m.func(fid));
        // An instruction-level edit bumps the version...
        let f = m.func_mut(fid);
        let term = f.terminator(f.entry()).unwrap();
        let _ = f.inst_mut(term);
        // ...so without a preserved re-stamp the next request misses.
        fa.domtree(m.func(fid));
        assert_eq!(fa.stats().misses, 2);
        // With a CFG-preserving re-stamp, it hits.
        let f = m.func_mut(fid);
        let _ = f.inst_mut(term);
        let v = f.version();
        fa.apply(&PreservedAnalyses::all(), v);
        fa.domtree(m.func(fid));
        assert_eq!(fa.stats().hits, 1);
    }

    #[test]
    fn non_preserving_pass_invalidates() {
        let m = sample();
        let f = m.func(m.func_by_name("f").unwrap());
        let mut fa = FuncAnalyses::default();
        fa.domtree(f);
        fa.apply(&PreservedAnalyses::none(), f.version());
        assert_eq!(fa.stats().invalidations, 1);
        fa.domtree(f);
        assert_eq!(fa.stats().misses, 2);
    }

    #[test]
    fn call_graph_caches_and_invalidates() {
        let m = sample();
        let mut am = AnalysisManager::new();
        am.call_graph(&m);
        am.call_graph(&m);
        assert_eq!((am.stats().hits, am.stats().misses), (1, 1));
        am.apply(&PreservedAnalyses::cfg_only(), m.num_funcs());
        am.call_graph(&m);
        let s = am.stats();
        assert_eq!((s.misses, s.invalidations), (2, 1));
    }

    #[test]
    fn loops_ride_the_domtree_cache() {
        let m = sample();
        let f = m.func(m.func_by_name("f").unwrap());
        let mut fa = FuncAnalyses::default();
        fa.domtree(f); // miss
        fa.loops(f); // loops miss + domtree hit
        fa.loops(f); // hit
        let s = fa.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }
}
