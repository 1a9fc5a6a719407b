//! Runtime path profiling (paper §3.5).
//!
//! The engine's lightweight instrumentation counts block entries, CFG edge
//! traversals, and call activity — the data the paper's runtime optimizer
//! uses to identify frequently executed loop regions and then the hot
//! *paths* (traces) within them. [`ProfileData::hot_loops`] and
//! [`form_trace`] reproduce that region-then-trace strategy.
//!
//! The engines count in dense slabs (`counters.rs`); [`ProfileData`] is
//! the sparse form those are drained into when a run returns, and the
//! only one that is stored, merged or read from a file.
//!
//! Profiles are the unit the lifelong store persists across runs:
//! [`ProfileData::to_bytes`]/[`ProfileData::from_bytes`] give them a
//! deterministic binary form, and [`ProfileData::merge_saturating`] folds
//! one run's counts into the accumulated lifetime profile.

use std::collections::HashMap;

use lpat_analysis::{DomTree, LoopInfo};
use lpat_bytecode::format::{write_varint, DecodeError, Reader};
use lpat_core::{BlockId, FuncId, InstId, Module};

/// `table[key] += n`, saturating.
fn add<K: std::hash::Hash + Eq>(table: &mut HashMap<K, u64>, key: K, n: u64) {
    let c = table.entry(key).or_insert(0);
    *c = c.saturating_add(n);
}

/// Execution counts collected by the engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileData {
    /// Times each block was entered.
    pub block_counts: HashMap<(FuncId, BlockId), u64>,
    /// Times each CFG edge was taken.
    pub edge_counts: HashMap<(FuncId, BlockId, BlockId), u64>,
    /// Times each function was called.
    pub call_counts: HashMap<FuncId, u64>,
    /// Times each call site executed (caller, site instruction).
    pub callsite_counts: HashMap<(FuncId, InstId), u64>,
    /// Times each speculation guard executed (guard id).
    pub guard_exec_counts: HashMap<u32, u64>,
    /// Times each speculation guard *failed* (misspeculated).
    pub guard_misspec_counts: HashMap<u32, u64>,
}

impl ProfileData {
    /// Times one guard executed.
    pub fn guard_exec(&self, id: u32) -> u64 {
        self.guard_exec_counts.get(&id).copied().unwrap_or(0)
    }

    /// Times one guard misspeculated.
    pub fn guard_misspec(&self, id: u32) -> u64 {
        self.guard_misspec_counts.get(&id).copied().unwrap_or(0)
    }

    /// Project this profile into the view the speculative optimizer
    /// reads (`lpat_transform` cannot depend on this crate, so the
    /// planner takes its own profile type).
    pub fn to_spec_profile(&self) -> lpat_transform::SpecProfile {
        lpat_transform::SpecProfile {
            callsite_counts: self.callsite_counts.clone(),
            call_counts: self.call_counts.clone(),
            guard_exec: self.guard_exec_counts.clone(),
            guard_misspec: self.guard_misspec_counts.clone(),
        }
    }

    /// Count for one block.
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_counts.get(&(f, b)).copied().unwrap_or(0)
    }

    /// Count for one edge.
    pub fn edge_count(&self, f: FuncId, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts.get(&(f, from, to)).copied().unwrap_or(0)
    }

    /// Hot loop regions: natural loops whose header count is at least
    /// `threshold`, hottest first. This models the offline
    /// instrumentation's "frequently executed loop region" detection.
    pub fn hot_loops(&self, m: &Module, threshold: u64) -> Vec<HotLoop> {
        let mut out = Vec::new();
        for (fid, f) in m.funcs() {
            if f.is_declaration() {
                continue;
            }
            let dt = DomTree::compute(f);
            let li = LoopInfo::compute(f, &dt);
            for l in &li.loops {
                let count = self.block_count(fid, l.header);
                if count >= threshold {
                    out.push(HotLoop {
                        func: fid,
                        header: l.header,
                        body: l.body.clone(),
                        header_count: count,
                    });
                }
            }
        }
        out.sort_by_key(|h| {
            (
                std::cmp::Reverse(h.header_count),
                h.func.index(),
                h.header.index(),
            )
        });
        out
    }

    /// Fold `other`'s counts into `self` with saturating addition: counters
    /// accumulated over a program's whole lifetime must sharpen hot-loop
    /// detection, never wrap back to cold.
    pub fn merge_saturating(&mut self, other: &ProfileData) {
        for (k, &v) in &other.block_counts {
            add(&mut self.block_counts, *k, v);
        }
        for (k, &v) in &other.edge_counts {
            add(&mut self.edge_counts, *k, v);
        }
        for (k, &v) in &other.call_counts {
            add(&mut self.call_counts, *k, v);
        }
        for (k, &v) in &other.callsite_counts {
            add(&mut self.callsite_counts, *k, v);
        }
        for (k, &v) in &other.guard_exec_counts {
            add(&mut self.guard_exec_counts, *k, v);
        }
        for (k, &v) in &other.guard_misspec_counts {
            add(&mut self.guard_misspec_counts, *k, v);
        }
    }

    /// Whether any counter was recorded.
    pub fn is_empty(&self) -> bool {
        self.block_counts.is_empty()
            && self.edge_counts.is_empty()
            && self.call_counts.is_empty()
            && self.callsite_counts.is_empty()
            && self.guard_exec_counts.is_empty()
            && self.guard_misspec_counts.is_empty()
    }

    /// Deterministic binary form: each table is written as a varint count
    /// followed by key-sorted `(key..., count)` varint tuples, so equal
    /// profiles serialize to equal bytes regardless of hash-map iteration
    /// order (the store's merge tests compare files byte-for-byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut blocks: Vec<_> = self.block_counts.iter().collect();
        blocks.sort_by_key(|(k, _)| **k);
        write_varint(&mut out, blocks.len() as u64);
        for (&(f, b), &n) in blocks {
            write_varint(&mut out, f.index() as u64);
            write_varint(&mut out, b.index() as u64);
            write_varint(&mut out, n);
        }
        let mut edges: Vec<_> = self.edge_counts.iter().collect();
        edges.sort_by_key(|(k, _)| **k);
        write_varint(&mut out, edges.len() as u64);
        for (&(f, a, b), &n) in edges {
            write_varint(&mut out, f.index() as u64);
            write_varint(&mut out, a.index() as u64);
            write_varint(&mut out, b.index() as u64);
            write_varint(&mut out, n);
        }
        let mut calls: Vec<_> = self.call_counts.iter().collect();
        calls.sort_by_key(|(k, _)| **k);
        write_varint(&mut out, calls.len() as u64);
        for (&f, &n) in calls {
            write_varint(&mut out, f.index() as u64);
            write_varint(&mut out, n);
        }
        let mut sites: Vec<_> = self.callsite_counts.iter().collect();
        sites.sort_by_key(|(k, _)| **k);
        write_varint(&mut out, sites.len() as u64);
        for (&(f, i), &n) in sites {
            write_varint(&mut out, f.index() as u64);
            write_varint(&mut out, i.index() as u64);
            write_varint(&mut out, n);
        }
        for table in [&self.guard_exec_counts, &self.guard_misspec_counts] {
            let mut guards: Vec<_> = table.iter().collect();
            guards.sort_by_key(|(k, _)| **k);
            write_varint(&mut out, guards.len() as u64);
            for (&g, &n) in guards {
                write_varint(&mut out, g as u64);
                write_varint(&mut out, n);
            }
        }
        out
    }

    /// Decode [`ProfileData::to_bytes`] output. An ingestion boundary like
    /// the bytecode reader: hostile bytes produce an `Err`, never a panic
    /// or an unbounded allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<ProfileData, DecodeError> {
        let mut p = ProfileData::default();
        p.merge_bytes(buf)?;
        Ok(p)
    }

    /// Decode [`ProfileData::to_bytes`] output straight into `self` with
    /// saturating addition: `merge_saturating(&from_bytes(buf)?)` without
    /// the maps in between, which is what folding a log of run deltas
    /// spends its time on.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input; `self` then holds
    /// whatever part of `buf` decoded before the damage, so a caller that
    /// needs all or nothing folds into a scratch profile first.
    pub fn merge_bytes(&mut self, buf: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(buf);
        let n = r.bounded_count("block profile entry", 3)?;
        for _ in 0..n {
            let f = FuncId::from_index(r.vusize()?);
            let b = BlockId::from_index(r.vusize()?);
            add(&mut self.block_counts, (f, b), r.varint()?);
        }
        let n = r.bounded_count("edge profile entry", 4)?;
        for _ in 0..n {
            let f = FuncId::from_index(r.vusize()?);
            let a = BlockId::from_index(r.vusize()?);
            let b = BlockId::from_index(r.vusize()?);
            add(&mut self.edge_counts, (f, a, b), r.varint()?);
        }
        let n = r.bounded_count("call profile entry", 2)?;
        for _ in 0..n {
            let f = FuncId::from_index(r.vusize()?);
            add(&mut self.call_counts, f, r.varint()?);
        }
        let n = r.bounded_count("call-site profile entry", 3)?;
        for _ in 0..n {
            let f = FuncId::from_index(r.vusize()?);
            let i = InstId::from_index(r.vusize()?);
            add(&mut self.callsite_counts, (f, i), r.varint()?);
        }
        for table in [&mut self.guard_exec_counts, &mut self.guard_misspec_counts] {
            let n = r.bounded_count("guard profile entry", 2)?;
            for _ in 0..n {
                let id = r.varint()?;
                if id > u32::MAX as u64 {
                    return Err(DecodeError("guard id out of range".into()));
                }
                add(table, id as u32, r.varint()?);
            }
        }
        if !r.at_end() {
            return Err(DecodeError("trailing bytes after profile".into()));
        }
        Ok(())
    }

    /// Hot call sites (count ≥ threshold), hottest first.
    pub fn hot_callsites(&self, threshold: u64) -> Vec<(FuncId, InstId, u64)> {
        let mut v: Vec<(FuncId, InstId, u64)> = self
            .callsite_counts
            .iter()
            .filter(|(_, &c)| c >= threshold)
            .map(|(&(f, i), &c)| (f, i, c))
            .collect();
        // Ties broken by position, not by map iteration order: the
        // reoptimizer inlines in this order, and lifelong persistence
        // promises byte-identical output for equal profiles.
        v.sort_by_key(|&(f, i, c)| (std::cmp::Reverse(c), f.index(), i.index()));
        v
    }
}

/// A frequently executed loop region.
#[derive(Clone, Debug)]
pub struct HotLoop {
    /// Enclosing function.
    pub func: FuncId,
    /// Loop header.
    pub header: BlockId,
    /// Loop body blocks.
    pub body: Vec<BlockId>,
    /// Times the header executed.
    pub header_count: u64,
}

/// Form the hot trace through a loop: starting at the header, repeatedly
/// follow the most frequently taken successor edge that stays in the loop
/// body, stopping when the trace would revisit a block.
///
/// Returns the block sequence, plus the fraction of the loop's block
/// executions the trace covers (a proxy for trace-cache hit rate).
pub fn form_trace(m: &Module, profile: &ProfileData, hot: &HotLoop) -> (Vec<BlockId>, f64) {
    let f = m.func(hot.func);
    let mut trace = vec![hot.header];
    let mut cur = hot.header;
    loop {
        let succs = f.successors(cur);
        let next = succs
            .iter()
            .filter(|s| hot.body.contains(s))
            .max_by_key(|&&s| profile.edge_count(hot.func, cur, s));
        match next {
            Some(&n) if !trace.contains(&n) => {
                trace.push(n);
                cur = n;
            }
            _ => break,
        }
    }
    let total: u64 = hot
        .body
        .iter()
        .map(|&b| profile.block_count(hot.func, b))
        .sum();
    let covered: u64 = trace
        .iter()
        .map(|&b| profile.block_count(hot.func, b))
        .sum();
    let coverage = if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    };
    (trace, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileData {
        let mut p = ProfileData::default();
        let f = FuncId::from_index(0);
        let g = FuncId::from_index(3);
        let (b0, b1) = (BlockId::from_index(0), BlockId::from_index(1));
        p.block_counts.insert((f, b1), 2);
        p.block_counts.insert((g, b0), 1);
        p.edge_counts.insert((f, b0, b1), 1);
        p.call_counts.insert(g, 1);
        p.callsite_counts.insert((f, InstId::from_index(7)), 1);
        p.guard_exec_counts.extend([(11, 2), (42, 1)]);
        p.guard_misspec_counts.insert(11, 1);
        p
    }

    #[test]
    fn bytes_roundtrip_and_are_deterministic() {
        let p = sample();
        let b1 = p.to_bytes();
        let q = ProfileData::from_bytes(&b1).unwrap();
        assert_eq!(p.block_counts, q.block_counts);
        assert_eq!(p.edge_counts, q.edge_counts);
        assert_eq!(p.call_counts, q.call_counts);
        assert_eq!(p.callsite_counts, q.callsite_counts);
        assert_eq!(p.guard_exec_counts, q.guard_exec_counts);
        assert_eq!(p.guard_misspec_counts, q.guard_misspec_counts);
        assert_eq!(b1, q.to_bytes(), "serialization must be canonical");
    }

    #[test]
    fn hostile_profile_bytes_error_out() {
        assert!(ProfileData::from_bytes(&[0xFF; 3]).is_err());
        // A declared count far past the input must be rejected, not
        // allocated.
        let mut buf = Vec::new();
        lpat_bytecode::format::write_varint(&mut buf, u32::MAX as u64);
        assert!(ProfileData::from_bytes(&buf).is_err());
        // Trailing garbage after a valid profile is rejected.
        let mut ok = sample().to_bytes();
        ok.push(9);
        assert!(ProfileData::from_bytes(&ok).is_err());
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = sample();
        let f = FuncId::from_index(0);
        a.block_counts
            .insert((f, BlockId::from_index(9)), u64::MAX - 1);
        let mut b = ProfileData::default();
        b.block_counts.insert((f, BlockId::from_index(9)), 5);
        a.merge_saturating(&b);
        assert_eq!(a.block_count(f, BlockId::from_index(9)), u64::MAX);
        // Disjoint keys are unioned; shared keys add.
        let mut two = sample();
        two.merge_saturating(&sample());
        assert_eq!(two.block_count(f, BlockId::from_index(1)), 4);
        assert_eq!(two.call_counts[&FuncId::from_index(3)], 2);
        assert_eq!(two.guard_exec(11), 4);
        assert_eq!(two.guard_misspec(11), 2);
    }

    #[test]
    fn guard_merge_saturates() {
        let mut a = ProfileData::default();
        a.guard_misspec_counts.insert(7, u64::MAX - 1);
        a.guard_exec_counts.insert(7, u64::MAX);
        let mut b = ProfileData::default();
        b.guard_exec_counts.insert(7, 2);
        b.guard_misspec_counts.insert(7, 2);
        a.merge_saturating(&b);
        assert_eq!(a.guard_misspec(7), u64::MAX);
        assert_eq!(a.guard_exec(7), u64::MAX);
    }
}
