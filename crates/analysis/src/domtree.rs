//! Dominator tree and dominance frontiers.
//!
//! Builds on the immediate-dominator computation in `lpat-core` (used there
//! by the verifier) and adds the tree structure and the dominance frontiers
//! required by SSA construction (the stack-promotion pass inserts φ-nodes on
//! the iterated dominance frontier of each store — paper §3.2).

use lpat_core::{BlockId, Dominators, Function};

/// Dominator tree with child lists and dominance frontiers.
#[derive(Clone, Debug)]
pub struct DomTree {
    doms: Dominators,
    children: Vec<Vec<BlockId>>,
    frontier: Vec<Vec<BlockId>>,
    /// `span[b]`: when a depth-first walk of the tree enters and leaves
    /// `b`. `a` dominates `b` exactly when `a`'s span holds `b`'s.
    span: Vec<(u32, u32)>,
}

impl DomTree {
    /// Compute the dominator tree of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a declaration.
    pub fn compute(f: &Function) -> DomTree {
        let doms = Dominators::compute(f);
        let n = f.num_blocks();
        let mut children = vec![Vec::new(); n];
        for b in f.block_ids() {
            if b == f.entry() {
                continue;
            }
            if let Some(idom) = doms.idom[b.index()] {
                children[idom.index()].push(b);
            }
        }
        // Dominance frontiers (Cooper–Harvey–Kennedy).
        let mut frontier = vec![Vec::new(); n];
        let preds = f.predecessors();
        for b in f.block_ids() {
            if preds[b.index()].len() < 2 {
                continue;
            }
            let idom_b = match doms.idom[b.index()] {
                Some(i) => i,
                None => continue, // unreachable
            };
            for &p in &preds[b.index()] {
                if doms.idom[p.index()].is_none() {
                    continue; // unreachable predecessor
                }
                let mut runner = p;
                while runner != idom_b {
                    if !frontier[runner.index()].contains(&b) {
                        frontier[runner.index()].push(b);
                    }
                    runner = match doms.idom[runner.index()] {
                        Some(i) if i != runner => i,
                        _ => break,
                    };
                }
            }
        }
        // Number the tree depth first, without recursion: a deep tree
        // (a long chain of loops) must not cost stack.
        let mut span = vec![(u32::MAX, 0); n];
        let mut clock = 0u32;
        let mut stack = vec![(f.entry(), 0usize)];
        span[f.entry().index()].0 = 0;
        while let Some((b, next)) = stack.last_mut() {
            let b = *b;
            match children[b.index()].get(*next) {
                Some(&c) => {
                    *next += 1;
                    clock += 1;
                    span[c.index()].0 = clock;
                    stack.push((c, 0));
                }
                None => {
                    clock += 1;
                    span[b.index()].1 = clock;
                    stack.pop();
                }
            }
        }
        DomTree {
            doms,
            children,
            frontier,
            span,
        }
    }

    /// The underlying immediate-dominator table.
    pub fn dominators(&self) -> &Dominators {
        &self.doms
    }

    /// Immediate dominator of `b` (`None` for the entry and unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.doms.idom[b.index()] {
            Some(i) if i != b => Some(i),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive), in constant time. Like
    /// [`Dominators::dominates`], everything dominates an unreachable
    /// block.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(b) {
            return true;
        }
        let ((a_in, a_out), (b_in, b_out)) = (self.span[a.index()], self.span[b.index()]);
        a_in <= b_in && b_out <= a_out
    }

    /// Dominator-tree children of `b`.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Dominance frontier of `b`.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        &self.frontier[b.index()]
    }

    /// Reverse postorder of reachable blocks.
    pub fn rpo(&self) -> &[BlockId] {
        &self.doms.rpo
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.doms.is_reachable(b)
    }

    /// Iterated dominance frontier of a set of blocks (the φ-placement set
    /// of pruned SSA construction).
    pub fn iterated_frontier(&self, blocks: &[BlockId]) -> Vec<BlockId> {
        let mut in_set = vec![false; self.children.len()];
        let mut out = Vec::new();
        let mut work: Vec<BlockId> = blocks.to_vec();
        while let Some(b) = work.pop() {
            for &d in self.frontier(b) {
                if !in_set[d.index()] {
                    in_set[d.index()] = true;
                    out.push(d);
                    work.push(d);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn diamond() -> (lpat_core::Module, lpat_core::FuncId) {
        let m = parse_module(
            "t",
            "
define int @f(bool %c) {
e:
  br bool %c, label %l, label %r
l:
  br label %j
r:
  br label %j
j:
  ret int 0
}",
        )
        .unwrap();
        let f = m.func_by_name("f").unwrap();
        (m, f)
    }

    #[test]
    fn frontiers_of_diamond() {
        let (m, fid) = diamond();
        let f = m.func(fid);
        let dt = DomTree::compute(f);
        let b = |i: usize| BlockId::from_index(i);
        // l and r have frontier {j}; e and j have empty frontiers.
        assert_eq!(dt.frontier(b(1)), &[b(3)]);
        assert_eq!(dt.frontier(b(2)), &[b(3)]);
        assert!(dt.frontier(b(0)).is_empty());
        assert!(dt.frontier(b(3)).is_empty());
        assert_eq!(dt.children(b(0)).len(), 3);
        assert_eq!(dt.idom(b(3)), Some(b(0)));
        assert_eq!(dt.idom(b(0)), None);
    }

    #[test]
    fn loop_header_frontier_includes_itself() {
        let m = parse_module(
            "t",
            "
define void @f(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %i2 = add int %i, 1
  br label %h
x:
  ret void
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let dt = DomTree::compute(m.func(fid));
        let h = BlockId::from_index(1);
        let b = BlockId::from_index(2);
        assert!(dt.frontier(b).contains(&h));
        let idf = dt.iterated_frontier(&[b]);
        assert!(idf.contains(&h));
    }
}
