//! Function integration (inlining) — one of the three link-time IPO passes
//! timed in the paper's Table 2.
//!
//! Works bottom-up over the call graph. Besides the usual size-based
//! policy, two exception-handling interactions from paper §2.4 are
//! implemented:
//!
//! * inlining a callee that `unwind`s into an **invoke** site turns the
//!   stack-unwinding operation into a **direct branch** to the invoke's
//!   unwind destination ("this often occurs due to inlining");
//! * inlining at ordinary call sites leaves `unwind` instructions intact,
//!   which is semantics-preserving: the unwind continues into the caller's
//!   dynamic context exactly as it would have at run time.
//!
//! A caller is rewritten once, however many sites go into it: each
//! spliced site is recorded with the value that stands for its result,
//! the scan for the next site reads through those records, and one
//! [`Function::replace_insts`] applies them all at the end.

use std::collections::HashSet;

use lpat_analysis::{CallGraph, PreservedAnalyses};
use lpat_core::{resolve_replaced, BlockId, Const, FuncId, Function, Inst, InstId, Module, Value};

use crate::pm::{ModulePass, PassContext, PassEffect};

/// The inlining pass.
pub struct Inline {
    /// Callees at most this many instructions are always eligible.
    pub threshold: usize,
    /// Callers are not grown beyond this many instructions.
    pub caller_cap: usize,
    inlined: usize,
    deleted: usize,
}

impl Default for Inline {
    fn default() -> Self {
        Inline {
            threshold: 40,
            caller_cap: 10_000,
            inlined: 0,
            deleted: 0,
        }
    }
}

impl ModulePass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let cg = cx.am.call_graph(m);
        let roots: Vec<FuncId> = m.func_ids().collect();
        let mut any = false;
        for f in cg.post_order(&roots) {
            let n = inline_calls_in(m, f, cg, self.threshold, self.caller_cap);
            self.inlined += n;
            any |= n > 0;
        }
        // Delete internal functions that no longer have any references
        // ("... deleting 438 which are no longer referenced" — §4.1.4).
        // Inlining rewrote call sites, so the cached graph is stale now.
        if any {
            cx.am.invalidate_call_graph();
        }
        let cg = cx.am.call_graph(m);
        let dead: HashSet<FuncId> = m
            .funcs()
            .filter(|&(fid, f)| {
                matches!(f.linkage(), lpat_core::Linkage::Internal)
                    && !f.is_declaration()
                    && cg.direct_call_sites(fid) == 0
                    && !cg.is_address_taken(fid)
            })
            .map(|(fid, _)| fid)
            .collect();
        if !dead.is_empty() {
            self.deleted += dead.len();
            m.retain_functions(|f| !dead.contains(&f));
            any = true;
        }
        // Splicing callee bodies rewrites CFGs, and deletions renumber ids.
        PassEffect::from_change(any, PreservedAnalyses::none())
    }
    fn stats(&self) -> String {
        format!(
            "inlined {} call sites, deleted {} functions",
            self.inlined, self.deleted
        )
    }
}

/// Inline the eligible call sites of `caller`, one at a time, each the
/// first a scan from the entry block finds once the one before it is
/// spliced in. Returns how many.
///
/// A spliced site's result is not rewritten at once: the site is recorded
/// in a forwarding map with the value that stands for it, the scan reads
/// operands through that map, and the map is applied to the caller in one
/// rewrite when no eligible site is left ([`Function::replace_insts`]).
///
/// The scan does not go back to the entry block every time. A splice at
/// `site` in block `b` leaves blocks `0..b` and the part of `b` before
/// `site` as they were, except that uses of the call's result now stand
/// for the returned value; so a site in that part that was passed over is
/// passed over again — unless the reason it was passed over can change
/// with the caller. Two can: an indirect call through a computed value
/// (the value may have just become a function address), and an invoke
/// whose result is used with a many-predecessor normal destination (uses
/// and edges both move). If the scan met neither, it resumes at block
/// `b + 1` (what followed `site` now sits in blocks appended behind it, in
/// scan order); if it met one, it starts over from the entry block.
fn inline_calls_in(
    m: &mut Module,
    caller: FuncId,
    cg: &CallGraph,
    threshold: usize,
    caller_cap: usize,
) -> usize {
    let mut inlined = 0;
    let mut first_block = 0;
    let mut fwd: Vec<Option<Value>> = Vec::new();
    // The caller's linked instructions. Every slot a splice makes is
    // linked and the site it replaces is unlinked, so a splice adds one
    // fewer than the slots it makes.
    let mut size = m.func(caller).num_insts();
    loop {
        let f = m.func(caller);
        if f.is_declaration() || size >= caller_cap {
            break;
        }
        let mut site: Option<(BlockId, InstId, FuncId)> = None;
        let mut may_change = false;
        // Both are whole-function sweeps; one of each serves a whole scan.
        let mut uses: Option<Vec<u32>> = None;
        let mut preds: Option<Vec<Vec<BlockId>>> = None;
        'outer: for b in (first_block..f.num_blocks()).map(BlockId::from_index) {
            for &iid in f.block_insts(b) {
                let callee_val = match f.inst(iid) {
                    Inst::Call { callee, .. } | Inst::Invoke { callee, .. } => *callee,
                    _ => continue,
                };
                let callee = match resolve_replaced(&mut fwd, callee_val) {
                    Value::Const(c) => match m.consts.get(c) {
                        Const::FuncAddr(t) => *t,
                        _ => continue,
                    },
                    Value::Inst(_) => {
                        may_change = true;
                        continue;
                    }
                    Value::Arg(_) => continue,
                };
                if callee == caller {
                    continue; // no self-inlining
                }
                let target = m.func(callee);
                if target.is_declaration() || target.is_varargs() {
                    continue;
                }
                let size = target.num_insts();
                let single_site = matches!(target.linkage(), lpat_core::Linkage::Internal)
                    && cg.direct_call_sites(callee) == 1
                    && !cg.is_address_taken(callee);
                if !(size <= threshold || (single_site && size <= threshold * 16)) {
                    continue;
                }
                // Invoke sites: only callees free of calls/invokes (so the
                // only exceptional exit is a literal `unwind`, which becomes a
                // branch), and the result must be unused or the normal dest
                // single-predecessor (for the φ insertion to be well-formed).
                if let Inst::Invoke { normal, .. } = f.inst(iid) {
                    let has_calls = target
                        .inst_ids_in_order()
                        .any(|i| matches!(target.inst(i), Inst::Call { .. } | Inst::Invoke { .. }));
                    if has_calls {
                        continue;
                    }
                    let uses = uses.get_or_insert_with(|| f.use_counts(&mut fwd));
                    if uses[iid.index()] > 0
                        && preds.get_or_insert_with(|| f.predecessors())[normal.index()].len() != 1
                    {
                        may_change = true;
                        continue;
                    }
                }
                site = Some((b, iid, callee));
                break 'outer;
            }
        }
        let Some((b, iid, callee)) = site else {
            break;
        };
        let slots = m.func(caller).num_inst_slots();
        let result = splice(m, caller, b, iid, callee);
        size += m.func(caller).num_inst_slots() - slots - 1;
        if let Some(r) = result {
            // A self-use is only legal in unreachable code; the result
            // cannot stand for itself there.
            let r = match resolve_replaced(&mut fwd, r) {
                r if r == Value::Inst(iid) => {
                    Value::Const(m.consts.undef(m.func(caller).inst_ty(iid)))
                }
                r => r,
            };
            fwd.resize(m.func(caller).num_inst_slots(), None);
            fwd[iid.index()] = Some(r);
        }
        inlined += 1;
        first_block = if may_change { 0 } else { b.index() + 1 };
    }
    m.func_mut(caller).replace_insts(&mut fwd);
    inlined
}

/// Splice `callee`'s body into `caller` at call/invoke `site` in block
/// `b`, and rewrite the caller's uses of the site's result to the value
/// that stands for it.
pub fn inline_site(m: &mut Module, caller: FuncId, b: BlockId, site: InstId, callee_id: FuncId) {
    if let Some(r) = splice(m, caller, b, site, callee_id) {
        m.func_mut(caller).replace_all_uses(Value::Inst(site), r);
    }
}

/// Splice `callee`'s body into `caller` at call/invoke `site` in block `b`
/// and unlink the site. Returns the value that stands for the site's
/// result (`None` for a void call); nothing is rewritten to it yet.
fn splice(
    m: &mut Module,
    caller: FuncId,
    b: BlockId,
    site: InstId,
    callee_id: FuncId,
) -> Option<Value> {
    // A clone shares the body: a handle to read the callee through while
    // the caller is edited, not a copy.
    let callee: Function = m.func(callee_id).clone();
    let (args, invoke_dests) = match m.func(caller).inst(site) {
        Inst::Call { args, .. } => (args.clone(), None),
        Inst::Invoke {
            args,
            normal,
            unwind,
            ..
        } => (args.clone(), Some((*normal, *unwind))),
        other => panic!("inline_site on non-call {other:?}"),
    };
    let ret_ty = m.func(caller).inst_ty(site);
    let is_void = ret_ty == m.types.void();

    // 1. Instruction & block id maps for the copied body.
    let base_inst = m.func(caller).num_inst_slots();
    let mut inst_map: Vec<Option<InstId>> = vec![None; callee.num_inst_slots()];
    for (k, old) in callee.inst_ids_in_order().enumerate() {
        inst_map[old.index()] = Some(InstId::from_index(base_inst + k));
    }
    // 2. Continuation: where control goes after an inlined `ret`.
    //    Call sites split the block; invoke sites branch to `normal`.
    let cont: BlockId = match invoke_dests {
        Some((normal, _)) => normal,
        None => {
            let fm = m.func_mut(caller);
            let cont = fm.add_block();
            let insts = fm.block_insts(b);
            let pos = insts.iter().position(|&i| i == site).expect("site in b");
            let (before, after) = (insts[..pos].to_vec(), insts[pos + 1..].to_vec());
            fm.set_block_insts(b, before);
            fm.set_block_insts(cont, after);
            cont
        }
    };
    // Copied callee blocks start after everything created so far
    // (including the continuation split above).
    let base_block = m.func(caller).num_blocks();
    let block_map = |old: BlockId| BlockId::from_index(base_block + old.index());

    // φs in the successors of the moved terminator must re-point from `b`
    // to `cont` (call case only: the terminator moved there).
    if invoke_dests.is_none() {
        let succs: Vec<BlockId> = m.func(caller).successors(cont);
        let fm = m.func_mut(caller);
        for s in succs {
            for &pid in fm.block_insts(s).to_vec().iter() {
                if let Inst::Phi { incoming } = fm.inst_mut(pid) {
                    for (_, pb) in incoming {
                        if *pb == b {
                            *pb = cont;
                        }
                    }
                }
            }
        }
    }

    // 3. Copy blocks & instructions.
    let mut ret_edges: Vec<(Option<Value>, BlockId)> = Vec::new();
    let mut unwind_edges: Vec<BlockId> = Vec::new();
    {
        let remap_val = |v: Value| -> Value {
            match v {
                Value::Arg(i) => args[i as usize],
                Value::Inst(d) => Value::Inst(inst_map[d.index()].expect("operand is linked")),
                c => c,
            }
        };
        for ob in callee.block_ids() {
            let fm = m.func_mut(caller);
            let nb = fm.add_block();
            debug_assert_eq!(nb, block_map(ob));
        }
        let fm = m.func_mut(caller);
        for ob in callee.block_ids() {
            let nb = block_map(ob);
            let mut copied = Vec::with_capacity(callee.block_insts(ob).len());
            for &oi in callee.block_insts(ob) {
                let mut inst = callee.inst(oi).clone();
                let ty = callee.inst_ty(oi);
                let new_inst = match &mut inst {
                    Inst::Ret(v) => {
                        ret_edges.push((v.map(remap_val), nb));
                        Inst::Br(cont)
                    }
                    Inst::Unwind if invoke_dests.is_some() => {
                        // The paper's unwind→branch conversion: the unwind
                        // target is now in the same function.
                        let (_, uw) = invoke_dests.unwrap();
                        unwind_edges.push(nb);
                        Inst::Br(uw)
                    }
                    other => {
                        other.map_operands(remap_val);
                        other.map_successors(block_map);
                        other.clone()
                    }
                };
                let made = fm.new_inst(new_inst, ty);
                debug_assert_eq!(Some(made), inst_map[oi.index()]);
                copied.push(made);
            }
            fm.set_block_insts(nb, copied);
        }
    }

    // 4. Invoke sites: every φ entry `(v, b)` in `normal` becomes one
    //    entry per ret block; in `unwind`, one per unwind block.
    if let Some((normal, unwind)) = invoke_dests {
        let fix = |m: &mut Module, dest: BlockId, new_preds: &[BlockId]| {
            let fm = m.func_mut(caller);
            for &pid in fm.block_insts(dest).to_vec().iter() {
                if let Inst::Phi { incoming } = fm.inst_mut(pid) {
                    let mut out = Vec::with_capacity(incoming.len());
                    for (v, pb) in incoming.iter() {
                        if *pb == b {
                            for &np in new_preds {
                                out.push((*v, np));
                            }
                        } else {
                            out.push((*v, *pb));
                        }
                    }
                    *incoming = out;
                }
            }
        };
        let ret_blocks: Vec<BlockId> = ret_edges.iter().map(|(_, bb)| *bb).collect();
        fix(m, normal, &ret_blocks);
        fix(m, unwind, &unwind_edges);
    }

    // 5. The result value. A call's `cont` is freshly split, so its only
    //    preds are the ret blocks and it has no φs of its own yet; an
    //    invoke's is `normal`, which the policy guarantees has a single
    //    pred when the result is used.
    let result = if is_void {
        None
    } else if ret_edges.len() == 1 {
        ret_edges[0].0
    } else if ret_edges.is_empty() {
        Some(Value::Const(m.consts.undef(ret_ty)))
    } else {
        let fm = m.func_mut(caller);
        let phi = fm.new_inst(
            Inst::Phi {
                incoming: ret_edges
                    .iter()
                    .map(|(v, bb)| (v.expect("typed ret"), *bb))
                    .collect(),
            },
            ret_ty,
        );
        fm.insert_inst(cont, 0, phi);
        Some(Value::Inst(phi))
    };

    // 6. Replace the call site with a branch into the inlined entry. A
    //    call's block was split before the site; an invoke ends its block.
    let entry_new = block_map(callee.entry());
    let void = m.types.void();
    let fm = m.func_mut(caller);
    let br = fm.new_inst(Inst::Br(entry_new), void);
    let mut insts = fm.block_insts(b).to_vec();
    if invoke_dests.is_some() {
        let last = insts.pop();
        debug_assert_eq!(last, Some(site));
    }
    insts.push(br);
    fm.set_block_insts(b, insts);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn run_inline(src: &str) -> (Module, Inline) {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let mut p = Inline::default();
        p.run(&mut m, &mut PassContext::default());
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        (m, p)
    }

    #[test]
    fn inlines_small_leaf() {
        let (m, p) = run_inline(
            "
define internal int @sq(int %x) {
e:
  %r = mul int %x, %x
  ret int %r
}
define int @main(int %a) {
e:
  %v = call int @sq(int %a)
  %w = add int %v, 1
  ret int %w
}",
        );
        assert_eq!(p.inlined, 1);
        assert_eq!(p.deleted, 1, "sq no longer referenced");
        let text = m.display();
        assert!(!text.contains("call"), "{text}");
        assert!(text.contains("mul int %a0, %a0"), "{text}");
    }

    #[test]
    fn inlines_multi_return_with_phi() {
        let (m, _) = run_inline(
            "
define internal int @pick(bool %c) {
e:
  br bool %c, label %l, label %r
l:
  ret int 1
r:
  ret int 2
}
define int @main(bool %c) {
e:
  %v = call int @pick(bool %c)
  ret int %v
}",
        );
        let text = m.display();
        assert!(text.contains("phi int"), "{text}");
        assert!(!text.contains("call"), "{text}");
    }

    #[test]
    fn unwind_becomes_branch_at_invoke_site() {
        let (m, p) = run_inline(
            "
define internal void @thrower(bool %c) {
e:
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main(bool %c) {
e:
  invoke void @thrower(bool %c) to label %fine unwind label %handler
fine:
  ret int 0
handler:
  ret int 1
}",
        );
        assert_eq!(p.inlined, 1);
        let text = m.display();
        assert!(!text.contains("invoke"), "{text}");
        assert!(
            !text.contains("unwind"),
            "unwind must become a branch: {text}"
        );
    }

    #[test]
    fn does_not_inline_recursive() {
        let (m, p) = run_inline(
            "
define int @fact(int %n) {
e:
  %c = setle int %n, 1
  br bool %c, label %base, label %rec
base:
  ret int 1
rec:
  %n1 = sub int %n, 1
  %r = call int @fact(int %n1)
  %v = mul int %n, %r
  ret int %v
}",
        );
        assert_eq!(p.inlined, 0);
        assert!(m.display().contains("call int @fact"));
    }

    #[test]
    fn keeps_unwind_at_plain_call_site() {
        // Inlining a thrower at a *call* site keeps the unwind: it will
        // continue into the caller's dynamic context at run time.
        let (m, _) = run_inline(
            "
define internal void @thrower() {
e:
  unwind
}
define void @main() {
e:
  call void @thrower()
  ret void
}",
        );
        let text = m.display();
        assert!(!text.contains("call"), "{text}");
        assert!(text.contains("unwind"), "{text}");
    }

    #[test]
    fn single_site_large_internal_inlined() {
        let mut body = String::new();
        for i in 0..60 {
            body.push_str(&format!("  %v{i} = add int %x, {i}\n"));
        }
        let src = format!(
            "
define internal int @big(int %x) {{
e:
{body}  ret int %v59
}}
define int @main(int %a) {{
e:
  %v = call int @big(int %a)
  ret int %v
}}"
        );
        let (m, p) = run_inline(&src);
        assert_eq!(p.inlined, 1, "{}", m.display());
    }

    #[test]
    fn an_indirect_call_through_a_forwarded_result_is_inlined() {
        // `%fp` is `@pick`'s call, spliced and forwarded to `@leaf`'s
        // address but not yet rewritten when the scan reaches `%v`.
        let (m, p) = run_inline(
            "
define internal int @leaf(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int (int)* @pick() {
e:
  ret int (int)* @leaf
}
define int @main(int %a) {
e:
  %fp = call int (int)* @pick()
  %v = call int %fp(int %a)
  ret int %v
}",
        );
        assert_eq!(p.inlined, 2, "{}", m.display());
        let text = m.display();
        assert!(!text.contains("call"), "{text}");
        assert!(text.contains("add int %a0, 1"), "{text}");
    }

    #[test]
    fn an_invoke_used_only_through_a_forwarded_result_counts_as_used() {
        // `@id`'s call is spliced first (its block is laid out before the
        // invoke's) and forwarded to `%r`, leaving `%r`'s only uses naming
        // the call. Counted through the forwarding, `%r` is used and its
        // normal destination has two predecessors, so it is not inlined:
        // the φ the splice would put there could not cover the back edge.
        let (m, p) = run_inline(
            "
define internal int @id(int %x) {
e:
  ret int %x
}
define internal int @two(bool %c) {
e:
  br bool %c, label %l, label %r
l:
  ret int 1
r:
  ret int 2
}
define int @main(bool %c, int %n) {
e:
  br label %inv
use:
  %s = call int @id(int %r)
  %k = setlt int %s, %n
  br bool %k, label %use, label %x
inv:
  %r = invoke int @two(bool %c) to label %use unwind label %h
x:
  ret int %s
h:
  ret int 0
}",
        );
        assert_eq!(p.inlined, 1);
        let text = m.display();
        assert!(text.contains("%t4 = invoke int @two"), "{text}");
        assert!(text.contains("setlt int %t4, %a1"), "{text}");
    }

    #[test]
    fn a_call_passing_its_own_result_in_unreachable_code_is_inlined() {
        // `%x` passes itself to `@id`, which only unreachable code may do:
        // its result cannot stand for itself, so its uses get `undef`.
        let (m, p) = run_inline(
            "
define internal int @id(int %x) {
e:
  ret int %x
}
define int @main(int %a) {
e:
  ret int %a
dead:
  %x = call int @id(int %x)
  %y = add int %x, 1
  br label %dead
}",
        );
        assert_eq!(p.inlined, 1);
        assert!(m.display().contains("add int undef, 1"), "{}", m.display());
    }

    #[test]
    fn args_in_loop_preserved() {
        // Inline inside a loop: φs around the continuation must stay
        // consistent.
        let (m, _) = run_inline(
            "
define internal int @inc(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define int @main(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %i2 = call int @inc(int %i)
  %c = setlt int %i2, %n
  br bool %c, label %h, label %x
x:
  ret int %i2
}",
        );
        let text = m.display();
        assert!(!text.contains("call"), "{text}");
    }
}
