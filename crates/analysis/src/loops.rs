//! Natural-loop detection.
//!
//! Identifies back edges via the dominator tree and collects natural loop
//! bodies. Used by the runtime profiler (hot *loop regions* are the unit of
//! instrumentation — paper §3.5) and by profile-guided optimization.

use lpat_core::{BlockId, Function};

use crate::domtree::DomTree;

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// Blocks in the loop body, header included.
    pub body: Vec<BlockId>,
    /// Back-edge sources (latches).
    pub latches: Vec<BlockId>,
    /// Loop nesting depth (outermost = 1).
    pub depth: u32,
}

/// All natural loops of a function.
#[derive(Clone, Debug, Default)]
pub struct LoopInfo {
    /// Loops, outermost first (sorted by body size, descending).
    pub loops: Vec<Loop>,
    /// For each block, the depth of the innermost loop containing it
    /// (0 = not in a loop).
    pub depth: Vec<u32>,
}

impl LoopInfo {
    /// Compute loop info for `f` using `dt`.
    pub fn compute(f: &Function, dt: &DomTree) -> LoopInfo {
        let n = f.num_blocks();
        // Find back edges: s -> h where h dominates s. `slot[h]` is the
        // index of h's entry in `headers`.
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        let mut slot = vec![usize::MAX; n];
        for b in f.block_ids() {
            if !dt.is_reachable(b) {
                continue;
            }
            for s in f.successors(b) {
                if dt.dominates(s, b) {
                    if slot[s.index()] == usize::MAX {
                        slot[s.index()] = headers.len();
                        headers.push((s, Vec::new()));
                    }
                    headers[slot[s.index()]].1.push(b);
                }
            }
        }
        let preds = f.predecessors();
        let mut loops = Vec::new();
        // `seen[b] == k + 1` while the body of the k-th loop is collected.
        let mut seen = vec![0usize; n];
        for (k, (header, latches)) in headers.into_iter().enumerate() {
            // Natural loop: header + all blocks that reach a latch without
            // passing through the header.
            seen[header.index()] = k + 1;
            let mut body = vec![header];
            let mut work: Vec<BlockId> = latches.clone();
            while let Some(b) = work.pop() {
                if seen[b.index()] == k + 1 {
                    continue;
                }
                seen[b.index()] = k + 1;
                body.push(b);
                for &p in &preds[b.index()] {
                    if dt.is_reachable(p) {
                        work.push(p);
                    }
                }
            }
            body.sort();
            loops.push(Loop {
                header,
                body,
                latches,
                depth: 0,
            });
        }
        // Nesting depth: a block's depth = number of loops containing it.
        let mut depth = vec![0u32; n];
        for l in &loops {
            for b in &l.body {
                depth[b.index()] += 1;
            }
        }
        for l in &mut loops {
            l.depth = depth[l.header.index()];
        }
        loops.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
        LoopInfo { loops, depth }
    }

    /// Depth of the innermost loop containing `b` (0 if none).
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.depth.get(b.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn finds_nested_loops() {
        let m = parse_module(
            "t",
            "
define void @f(int %n) {
e:
  br label %oh
oh:
  %i = phi int [ 0, %e ], [ %i2, %ol ]
  br label %ih
ih:
  %j = phi int [ 0, %oh ], [ %j2, %ib ]
  %c = setlt int %j, %n
  br bool %c, label %ib, label %ol
ib:
  %j2 = add int %j, 1
  br label %ih
ol:
  %i2 = add int %i, 1
  %c2 = setlt int %i2, %n
  br bool %c2, label %oh, label %x
x:
  ret void
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert_eq!(li.loops.len(), 2);
        // Outer loop (header oh = block 1) contains the inner one.
        let outer = &li.loops[0];
        let inner = &li.loops[1];
        assert_eq!(outer.header, BlockId::from_index(1));
        assert_eq!(inner.header, BlockId::from_index(2));
        assert!(outer.body.len() > inner.body.len());
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        // Block order: e=0 oh=1 ih=2 ib=3 ol=4 x=5.
        assert_eq!(li.depth_of(BlockId::from_index(3)), 2); // ib
        assert_eq!(li.depth_of(BlockId::from_index(4)), 1); // ol
        assert_eq!(li.depth_of(BlockId::from_index(5)), 0); // x
    }

    #[test]
    fn no_loops_in_dag() {
        let m = parse_module(
            "t",
            "
define void @f(bool %c) {
e:
  br bool %c, label %a, label %b
a:
  br label %x
b:
  br label %x
x:
  ret void
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let li = LoopInfo::compute(f, &DomTree::compute(f));
        assert!(li.loops.is_empty());
    }
}
