//! Call-graph construction (paper §3.3).
//!
//! Handles direct calls precisely and indirect calls through function
//! pointers conservatively, by matching every *address-taken* function with
//! a compatible type. Used by the interprocedural optimizers (inlining,
//! dead-global elimination, dead-argument elimination) and by DSA.

use std::collections::HashSet;

use lpat_core::{Const, FuncId, Inst, InstId, Module, Value};

/// The module call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `callees[f]`: functions directly or possibly (indirect) called by `f`.
    callees: Vec<Vec<FuncId>>,
    /// `callers[f]`: inverse edges.
    callers: Vec<Vec<FuncId>>,
    /// Functions whose address is taken somewhere other than a direct call
    /// (stored in memory, a global initializer, or passed as data).
    address_taken: HashSet<FuncId>,
    /// Functions containing at least one indirect call.
    has_indirect_call: Vec<bool>,
    /// The call-site index: per callee, its direct call sites as `(caller,
    /// instruction)`, in the order one sweep of the module meets them
    /// (caller id, then block layout). The interprocedural passes read a
    /// callee's sites from here instead of searching every body for them.
    sites: Vec<Vec<(FuncId, InstId)>>,
}

impl CallGraph {
    /// Build the call graph of `m`.
    pub fn build(m: &Module) -> CallGraph {
        let n = m.num_funcs();
        let mut callees: Vec<HashSet<FuncId>> = vec![HashSet::new(); n];
        let mut address_taken = HashSet::new();
        let mut has_indirect_call = vec![false; n];
        let mut sites: Vec<Vec<(FuncId, InstId)>> = vec![Vec::new(); n];

        // Addresses taken in global initializers (e.g. vtables).
        for (_, g) in m.globals() {
            if let Some(init) = g.init {
                collect_func_addrs(m, init, &mut address_taken);
            }
        }

        let direct_callee = |v: Value| -> Option<FuncId> {
            match v {
                Value::Const(c) => match m.consts.get(c) {
                    Const::FuncAddr(f) => Some(*f),
                    _ => None,
                },
                _ => None,
            }
        };

        for (fid, f) in m.funcs() {
            for iid in f.inst_ids_in_order() {
                let inst = f.inst(iid);
                match inst {
                    Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => {
                        match direct_callee(*callee) {
                            Some(t) => {
                                callees[fid.index()].insert(t);
                                sites[t.index()].push((fid, iid));
                            }
                            None => has_indirect_call[fid.index()] = true,
                        }
                        // Function addresses passed as *arguments* are taken.
                        for a in args {
                            if let Value::Const(c) = a {
                                collect_func_addrs(m, *c, &mut address_taken);
                            }
                        }
                    }
                    other => {
                        // Any other use of a function address takes it.
                        other.for_each_operand(|v| {
                            if let Value::Const(c) = v {
                                collect_func_addrs(m, c, &mut address_taken);
                            }
                        });
                    }
                }
            }
        }

        // Indirect calls: add conservative edges to every address-taken
        // function whose signature matches any indirect call site in the
        // caller. (Type matching is implicit: linking them all is sound and
        // simple; DSA can refine this.)
        for fid in m.func_ids() {
            if has_indirect_call[fid.index()] {
                for &t in address_taken.iter() {
                    callees[fid.index()].insert(t);
                }
            }
        }

        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let callees: Vec<Vec<FuncId>> = callees
            .into_iter()
            .map(|s| {
                let mut v: Vec<FuncId> = s.into_iter().collect();
                v.sort();
                v
            })
            .collect();
        for (f, cs) in callees.iter().enumerate() {
            for c in cs {
                callers[c.index()].push(FuncId::from_index(f));
            }
        }
        CallGraph {
            callees,
            callers,
            address_taken,
            has_indirect_call,
            sites,
        }
    }

    /// Possible callees of `f`.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Possible callers of `f`.
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        &self.callers[f.index()]
    }

    /// Whether `f`'s address escapes into data.
    pub fn is_address_taken(&self, f: FuncId) -> bool {
        self.address_taken.contains(&f)
    }

    /// Whether `f` contains an indirect call site.
    pub fn has_indirect_call(&self, f: FuncId) -> bool {
        self.has_indirect_call[f.index()]
    }

    /// Number of direct call sites targeting `f`.
    pub fn direct_call_sites(&self, f: FuncId) -> usize {
        self.sites[f.index()].len()
    }

    /// The direct call sites targeting `f`, as `(caller, instruction)`.
    ///
    /// Exact as long as the graph is: a pass that adds, copies, moves or
    /// deletes a call must not report the call graph preserved. A pass
    /// that rewrites calls while it runs (DAE appends rewritten copies of
    /// whole functions) works on its own copy of the lists and keeps that
    /// current.
    pub fn call_sites(&self, f: FuncId) -> &[(FuncId, InstId)] {
        &self.sites[f.index()]
    }

    /// Post-order of the call graph from `roots` (callees before callers
    /// where the graph is acyclic); recursion is handled by visited marks.
    ///
    /// The inliner processes functions bottom-up in this order.
    pub fn post_order(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let n = self.callees.len();
        let mut state = vec![0u8; n];
        let mut out = Vec::new();
        for &r in roots {
            if state[r.index()] != 0 {
                continue;
            }
            let mut stack = vec![(r, 0usize)];
            state[r.index()] = 1;
            while let Some(&mut (f, ref mut i)) = stack.last_mut() {
                let cs = &self.callees[f.index()];
                if *i < cs.len() {
                    let c = cs[*i];
                    *i += 1;
                    if state[c.index()] == 0 {
                        state[c.index()] = 1;
                        stack.push((c, 0));
                    }
                } else {
                    state[f.index()] = 2;
                    out.push(f);
                    stack.pop();
                }
            }
        }
        out
    }
}

/// Collect all function addresses reachable from constant `c`.
fn collect_func_addrs(m: &Module, c: lpat_core::ConstId, out: &mut HashSet<FuncId>) {
    match m.consts.get(c) {
        Const::FuncAddr(f) => {
            out.insert(*f);
        }
        Const::Array { elems, .. } => {
            for e in elems {
                collect_func_addrs(m, *e, out);
            }
        }
        Const::Struct { fields, .. } => {
            for e in fields {
                collect_func_addrs(m, *e, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn direct_edges_and_postorder() {
        let m = parse_module(
            "t",
            "
define void @leaf() {
e:
  ret void
}
define void @mid() {
e:
  call void @leaf()
  ret void
}
define void @main() {
e:
  call void @mid()
  call void @leaf()
  ret void
}",
        )
        .unwrap();
        let cg = CallGraph::build(&m);
        let leaf = m.func_by_name("leaf").unwrap();
        let mid = m.func_by_name("mid").unwrap();
        let main = m.func_by_name("main").unwrap();
        assert_eq!(cg.callees(main), &[leaf, mid]);
        assert_eq!(cg.callees(mid), &[leaf]);
        assert_eq!(cg.callers(leaf), &[mid, main]);
        assert_eq!(cg.direct_call_sites(leaf), 2);
        let in_entry = |f, k| m.func(f).block_insts(m.func(f).entry())[k];
        assert_eq!(
            cg.call_sites(leaf),
            &[(mid, in_entry(mid, 0)), (main, in_entry(main, 1))]
        );
        assert!(!cg.is_address_taken(leaf));
        let po = cg.post_order(&[main]);
        assert_eq!(po, vec![leaf, mid, main]);
    }

    #[test]
    fn vtable_makes_address_taken_and_indirect_edges() {
        let m = parse_module(
            "t",
            "
define int @impl(int %x) {
e:
  ret int %x
}
@vt = constant [1 x int (int)*] [ int (int)* @impl ]
define int @call_virtual(int %x) {
e:
  %s = getelementptr [1 x int (int)*]* @vt, long 0, long 0
  %fp = load int (int)** %s
  %r = call int %fp(int %x)
  ret int %r
}",
        )
        .unwrap();
        let cg = CallGraph::build(&m);
        let imp = m.func_by_name("impl").unwrap();
        let cv = m.func_by_name("call_virtual").unwrap();
        assert!(cg.is_address_taken(imp));
        assert!(cg.has_indirect_call(cv));
        assert!(cg.callees(cv).contains(&imp));
    }

    #[test]
    fn recursion_does_not_hang_postorder() {
        let m = parse_module(
            "t",
            "
define void @a() {
e:
  call void @b()
  ret void
}
define void @b() {
e:
  call void @a()
  ret void
}",
        )
        .unwrap();
        let cg = CallGraph::build(&m);
        let a = m.func_by_name("a").unwrap();
        let po = cg.post_order(&[a]);
        assert_eq!(po.len(), 2);
    }
}
