//! Exception-handling pruning (paper §2.4, §4.1.2).
//!
//! Having exceptional control flow explicit in the CFG lets the link-time
//! optimizer reason about it interprocedurally:
//!
//! * an `invoke` of a callee that provably cannot unwind becomes a plain
//!   `call` with an unconditional branch to the normal destination — the
//!   handler edge disappears;
//! * handler blocks that thereby lose all predecessors are deleted
//!   ("an interprocedural analysis to eliminate unused exception
//!   handlers").

use std::collections::HashSet;

use lpat_analysis::PreservedAnalyses;
use lpat_core::{Const, FuncId, Inst, Module, Value};

use crate::pm::{ModulePass, PassContext, PassEffect};
use crate::util::remove_unreachable_blocks;

/// The EH pruning pass.
#[derive(Default)]
pub struct PruneEh {
    devirtualized: usize,
}

impl ModulePass for PruneEh {
    fn name(&self) -> &'static str {
        "prune-eh"
    }
    fn run(&mut self, m: &mut Module, _cx: &mut PassContext) -> PassEffect {
        let n = run_prune_eh(m);
        self.devirtualized += n;
        // invoke -> call rewrites edges and deletes handler blocks.
        PassEffect::from_change(n > 0, PreservedAnalyses::none())
    }
    fn stats(&self) -> String {
        format!("converted {} invokes to calls", self.devirtualized)
    }
}

/// Compute the set of functions that may unwind (contain a reachable
/// `unwind`, call something that may, or are unanalyzable).
fn may_unwind_set(m: &Module) -> HashSet<FuncId> {
    let mut may: HashSet<FuncId> = HashSet::new();
    for (fid, f) in m.funcs() {
        if f.is_declaration() {
            // External code must be assumed to throw.
            may.insert(fid);
            continue;
        }
        let mut local = false;
        let mut indirect = false;
        for iid in f.inst_ids_in_order() {
            match f.inst(iid) {
                Inst::Unwind => local = true,
                Inst::Call { callee, .. }
                    // An *invoke* catches its callee's unwind; a plain call
                    // propagates it — only calls matter here, and only
                    // until the fixpoint below refines direct ones.
                    if direct_target(m, *callee).is_none() => {
                        indirect = true;
                    }
                _ => {}
            }
        }
        if local || indirect {
            may.insert(fid);
        }
    }
    // Propagate through plain-call edges to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for (fid, f) in m.funcs() {
            if may.contains(&fid) || f.is_declaration() {
                continue;
            }
            let mut throws = false;
            for iid in f.inst_ids_in_order() {
                if let Inst::Call { callee, .. } = f.inst(iid) {
                    match direct_target(m, *callee) {
                        Some(t) => {
                            if may.contains(&t) {
                                throws = true;
                                break;
                            }
                        }
                        None => {
                            throws = true;
                            break;
                        }
                    }
                }
            }
            if throws {
                may.insert(fid);
                changed = true;
            }
        }
    }
    may
}

fn direct_target(m: &Module, v: Value) -> Option<FuncId> {
    match v {
        Value::Const(c) => match m.consts.get(c) {
            Const::FuncAddr(t) => Some(*t),
            _ => None,
        },
        _ => None,
    }
}

/// Convert non-throwing invokes to calls and delete dead handlers.
/// Returns the number of invokes converted.
pub fn run_prune_eh(m: &mut Module) -> usize {
    let may = may_unwind_set(m);
    prune_with_set(m, &may)
}

fn prune_with_set(m: &mut Module, may: &HashSet<FuncId>) -> usize {
    let mut converted = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        // Find invokes of non-throwing callees.
        let mut patches = Vec::new();
        for b in f.block_ids() {
            let Some(t) = f.terminator(b) else { continue };
            if let Inst::Invoke {
                callee,
                args,
                normal,
                unwind,
            } = f.inst(t)
            {
                let throwy = match direct_target(m, *callee) {
                    Some(target) => may.contains(&target),
                    None => true,
                };
                if !throwy {
                    patches.push((b, t, *callee, args.clone(), *normal, *unwind));
                }
            }
        }
        if patches.is_empty() {
            continue;
        }
        converted += patches.len();
        let void = m.types.void();
        for (b, t, callee, args, normal, unwind) in patches {
            let ty = m.func(fid).inst_ty(t);
            let fm = m.func_mut(fid);
            // invoke -> call + br normal.
            *fm.inst_mut(t) = Inst::Call { callee, args };
            fm.set_inst_ty(t, ty);
            let br = fm.new_inst(Inst::Br(normal), void);
            let mut insts = fm.block_insts(b).to_vec();
            insts.push(br);
            fm.set_block_insts(b, insts);
            // The unwind edge is gone: drop φ entries for it.
            for &pid in fm.block_insts(unwind).to_vec().iter() {
                if let Inst::Phi { incoming } = fm.inst_mut(pid) {
                    if let Some(pos) = incoming.iter().position(|(_, pb)| *pb == b) {
                        incoming.remove(pos);
                    }
                }
            }
        }
        // Handlers with no remaining predecessors disappear.
        remove_unreachable_blocks(m.func_mut(fid));
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn invoke_of_safe_callee_becomes_call() {
        let mut m = parse_module(
            "t",
            "
define internal int @safe(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define int @main() {
e:
  invoke void @wrapper() to label %ok unwind label %h
ok:
  ret int 0
h:
  ret int 1
}
define internal void @wrapper() {
e:
  %v = invoke int @safe(int 1) to label %done unwind label %bad
done:
  ret void
bad:
  ret void
}",
        )
        .unwrap();
        m.verify().unwrap();
        // Neither @safe nor @wrapper can unwind (an invoke catches its
        // callee's unwinds), so both invokes convert in one run.
        let n = run_prune_eh(&mut m);
        assert_eq!(n, 2);
        assert_eq!(run_prune_eh(&mut m), 0);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let text = m.display();
        assert!(!text.contains("invoke"), "{text}");
        assert!(!text.contains("ret int 1"), "dead handler deleted: {text}");
    }

    #[test]
    fn invoke_of_thrower_kept() {
        let mut m = parse_module(
            "t",
            "
define internal void @thrower() {
e:
  unwind
}
define int @main() {
e:
  invoke void @thrower() to label %ok unwind label %h
ok:
  ret int 0
h:
  ret int 1
}",
        )
        .unwrap();
        let n = run_prune_eh(&mut m);
        assert_eq!(n, 0);
        assert!(m.display().contains("invoke"));
    }

    #[test]
    fn external_callee_assumed_throwing() {
        let mut m = parse_module(
            "t",
            "
declare void @ext()
define int @main() {
e:
  invoke void @ext() to label %ok unwind label %h
ok:
  ret int 0
h:
  ret int 1
}",
        )
        .unwrap();
        assert_eq!(run_prune_eh(&mut m), 0);
    }

    #[test]
    fn transitive_caller_of_thrower_kept() {
        let mut m = parse_module(
            "t",
            "
define internal void @thrower() {
e:
  unwind
}
define internal void @indirect() {
e:
  call void @thrower()
  ret void
}
define int @main() {
e:
  invoke void @indirect() to label %ok unwind label %h
ok:
  ret int 0
h:
  ret int 1
}",
        )
        .unwrap();
        assert_eq!(run_prune_eh(&mut m), 0, "{}", m.display());
    }
}
