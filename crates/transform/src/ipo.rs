//! Link-time interprocedural optimizations (paper §3.3, Table 2):
//! internalization, aggressive dead-global & dead-function elimination
//! (DGE), dead-argument & dead-return-value elimination (DAE), and
//! interprocedural constant propagation (IPCP).
//!
//! IPCP and DAE never search the module for the calls of a function: they
//! read them from the call graph's call-site index
//! ([`CallGraph::call_sites`], cached by the analysis manager). IPCP only
//! reads it; DAE, which appends rewritten copies of whole functions as it
//! goes, keeps its own copy of the lists current. Both write only to the
//! functions they change (`Module::func_mut` of a function is what makes
//! a rollback point pay for a copy of its body), and both count the
//! instructions they read — `tests/ipo_scaling.rs` holds that count to
//! the module's size.

use std::collections::HashSet;

use lpat_analysis::{CallGraph, PreservedAnalyses};
use lpat_core::{Const, ConstId, FuncId, GlobalId, Inst, InstId, Linkage, Module, Value};

use crate::pm::{ModulePass, PassContext, PassEffect};

// ----------------------------------------------------------------------
// Internalize
// ----------------------------------------------------------------------

/// After whole-program linking, only the entry point needs external
/// linkage; everything else becomes internal, unlocking the aggressive IPO
/// passes.
pub struct Internalize {
    /// Symbols to keep external (default: `main`).
    pub keep: Vec<String>,
    count: usize,
}

impl Default for Internalize {
    fn default() -> Self {
        Internalize {
            keep: vec!["main".to_string()],
            count: 0,
        }
    }
}

impl ModulePass for Internalize {
    fn name(&self) -> &'static str {
        "internalize"
    }
    fn run(&mut self, m: &mut Module, _cx: &mut PassContext) -> PassEffect {
        let mut changed = false;
        for fid in m.func_ids().collect::<Vec<_>>() {
            let f = m.func_mut(fid);
            if !f.is_declaration()
                && matches!(f.linkage(), Linkage::External)
                && !self.keep.iter().any(|k| k == f.name())
            {
                f.set_linkage(Linkage::Internal);
                self.count += 1;
                changed = true;
            }
        }
        for gid in 0..m.num_globals() {
            let g = m.global_mut(GlobalId::from_index(gid));
            if !g.is_declaration()
                && matches!(g.linkage, Linkage::External)
                && !self.keep.contains(&g.name)
            {
                g.linkage = Linkage::Internal;
                self.count += 1;
                changed = true;
            }
        }
        // Only linkage flags change; bodies, CFGs and call edges are intact.
        PassEffect::from_change(changed, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("internalized {} symbols", self.count)
    }
}

// ----------------------------------------------------------------------
// DGE — aggressive dead global (variable & function) elimination
// ----------------------------------------------------------------------

/// Aggressive dead-global elimination: assumes objects are dead until
/// proven reachable from an external root, so dead cycles are deleted too
/// (paper footnote 9).
#[derive(Default)]
pub struct Dge {
    /// Functions eliminated.
    pub funcs_removed: usize,
    /// Global variables eliminated.
    pub globals_removed: usize,
}

impl ModulePass for Dge {
    fn name(&self) -> &'static str {
        "dge"
    }
    fn run(&mut self, m: &mut Module, _cx: &mut PassContext) -> PassEffect {
        let (f, g) = run_dge(m);
        self.funcs_removed += f;
        self.globals_removed += g;
        // Deleting functions renumbers ids: every cached analysis is stale.
        PassEffect::from_change(f + g > 0, PreservedAnalyses::none())
    }
    fn stats(&self) -> String {
        format!(
            "eliminated {} functions and {} global variables",
            self.funcs_removed, self.globals_removed
        )
    }
}

/// Run DGE once; returns `(functions removed, globals removed)`.
pub fn run_dge(m: &mut Module) -> (usize, usize) {
    // Roots: external-linkage definitions and all declarations (their
    // addresses may be referenced by unseen code).
    let mut live_f: HashSet<FuncId> = HashSet::new();
    let mut live_g: HashSet<GlobalId> = HashSet::new();
    let mut work_f: Vec<FuncId> = Vec::new();
    let mut work_g: Vec<GlobalId> = Vec::new();
    for (fid, f) in m.funcs() {
        if matches!(f.linkage(), Linkage::External) {
            live_f.insert(fid);
            work_f.push(fid);
        }
    }
    for (gid, g) in m.globals() {
        if matches!(g.linkage, Linkage::External) {
            live_g.insert(gid);
            work_g.push(gid);
        }
    }
    // Trace.
    loop {
        if let Some(fid) = work_f.pop() {
            let f = m.func(fid);
            for iid in f.inst_ids_in_order() {
                f.inst(iid).for_each_operand(|v| {
                    if let Value::Const(c) = v {
                        mark_const(m, c, &mut live_f, &mut live_g, &mut work_f, &mut work_g);
                    }
                });
            }
            continue;
        }
        if let Some(gid) = work_g.pop() {
            if let Some(init) = m.global(gid).init {
                mark_const(m, init, &mut live_f, &mut live_g, &mut work_f, &mut work_g);
            }
            continue;
        }
        break;
    }
    let fr = m.retain_functions(|f| live_f.contains(&f));
    let gr = m.retain_globals(|g| live_g.contains(&g));
    (fr, gr)
}

fn mark_const(
    m: &Module,
    c: ConstId,
    live_f: &mut HashSet<FuncId>,
    live_g: &mut HashSet<GlobalId>,
    work_f: &mut Vec<FuncId>,
    work_g: &mut Vec<GlobalId>,
) {
    match m.consts.get(c) {
        Const::FuncAddr(f) if live_f.insert(*f) => {
            work_f.push(*f);
        }
        Const::GlobalAddr(g) if live_g.insert(*g) => {
            work_g.push(*g);
        }
        Const::Array { elems, .. } => {
            for e in elems {
                mark_const(m, *e, live_f, live_g, work_f, work_g);
            }
        }
        Const::Struct { fields, .. } => {
            for e in fields {
                mark_const(m, *e, live_f, live_g, work_f, work_g);
            }
        }
        _ => {}
    }
}

// ----------------------------------------------------------------------
// DAE — dead argument & return value elimination
// ----------------------------------------------------------------------

/// Aggressive dead-argument and dead-return-value elimination for internal
/// functions whose address is never taken.
#[derive(Default)]
pub struct Dae {
    /// Arguments removed.
    pub args_removed: usize,
    /// Return values removed (function return type changed to void).
    pub rets_removed: usize,
    /// Instructions read to get there (the analysis sweep, plus every body
    /// copied and call site patched).
    pub scanned: u64,
}

impl ModulePass for Dae {
    fn name(&self) -> &'static str {
        "dae"
    }
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let (a, r, scanned) = run_dae_with(m, cx.am.call_graph(m));
        self.args_removed += a;
        self.rets_removed += r;
        self.scanned += scanned;
        // Signature rewrites clone bodies into fresh functions and delete
        // the originals.
        PassEffect::from_change(a + r > 0, PreservedAnalyses::none())
    }
    fn stats(&self) -> String {
        format!(
            "eliminated {} arguments and {} return values (scanned {} instructions)",
            self.args_removed, self.rets_removed, self.scanned
        )
    }
}

/// Run DAE; returns `(arguments removed, return values removed)`.
///
/// One analysis sweep gathers every candidate (dead-argument masks from
/// each body, return-value liveness from one pass over all call sites);
/// the rewrites then proceed by *name*, since each rewrite renumbers
/// function ids.
pub fn run_dae(m: &mut Module) -> (usize, usize) {
    let cg = CallGraph::build(m);
    let (a, r, _) = run_dae_with(m, &cg);
    (a, r)
}

/// [`run_dae`] against a caller-provided (typically cached) call graph;
/// also returns the number of instructions read.
pub fn run_dae_with(m: &mut Module, cg: &CallGraph) -> (usize, usize, u64) {
    let mut args_removed = 0;
    let mut rets_removed = 0;
    let mut scanned = 0u64;
    // One pass over all operands: which functions' results are ever used?
    // (keyed by id now, carried by name across rewrites).
    let mut ret_used = vec![false; m.num_funcs()];
    for (_, cf) in m.funcs() {
        for uid in cf.inst_ids_in_order() {
            scanned += 1;
            cf.inst(uid).for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    if let Some(t) = direct_callee(m, cf.inst(d)) {
                        ret_used[t.index()] = true;
                    }
                }
            });
        }
    }
    // Candidates, by name (ids shift as rewrites delete old functions).
    let mut plan: Vec<(String, Vec<bool>, bool)> = Vec::new();
    for (fid, f) in m.funcs() {
        if f.is_declaration()
            || !matches!(f.linkage(), Linkage::Internal)
            || cg.is_address_taken(fid)
            || f.is_varargs()
        {
            continue;
        }
        let mut used = vec![false; f.num_params()];
        for iid in f.inst_ids_in_order() {
            scanned += 1;
            f.inst(iid).for_each_operand(|v| {
                if let Value::Arg(i) = v {
                    used[i as usize] = true;
                }
            });
        }
        let drop_ret = f.ret_type() != m.types.void() && !ret_used[fid.index()];
        if used.iter().all(|&u| u) && !drop_ret {
            continue;
        }
        args_removed += used.iter().filter(|&&u| !u).count();
        if drop_ret {
            rets_removed += 1;
        }
        plan.push((f.name().to_string(), used, drop_ret));
    }
    // The pass's own copy of the call-site index: a rewrite patches the
    // sites listed for its function and lists the calls of the copy it
    // appends, so a later rewrite finds them without searching any body.
    let mut sites: Vec<Vec<(FuncId, InstId)>> = if plan.is_empty() {
        Vec::new()
    } else {
        m.func_ids().map(|f| cg.call_sites(f).to_vec()).collect()
    };
    // Rewrites only *append* replacement functions, so ids stay stable
    // until the single batched deletion at the end.
    let mut retired: HashSet<FuncId> = HashSet::new();
    for (name, used, drop_ret) in plan {
        let fid = m.func_by_name(&name).expect("candidate still present");
        retired.insert(fid);
        scanned += rewrite_signature(m, fid, &used, drop_ret, &mut sites, &retired);
    }
    if !retired.is_empty() {
        m.retain_functions(|f| !retired.contains(&f));
    }
    (args_removed, rets_removed, scanned)
}

/// The function a call or invoke names directly, if it names one.
fn direct_callee(m: &Module, inst: &Inst) -> Option<FuncId> {
    match inst {
        Inst::Call {
            callee: Value::Const(c),
            ..
        }
        | Inst::Invoke {
            callee: Value::Const(c),
            ..
        } => match m.consts.get(*c) {
            Const::FuncAddr(t) => Some(*t),
            _ => None,
        },
        _ => None,
    }
}

/// Rebuild `fid`'s signature keeping only `used` arguments and optionally
/// dropping the return value, then rewrite the body and the call sites
/// `sites` lists for it. Functions in `retired` (`fid` among them) are
/// about to be deleted and are left as they are. Returns the number of
/// instructions read.
fn rewrite_signature(
    m: &mut Module,
    fid: FuncId,
    used: &[bool],
    drop_ret: bool,
    sites: &mut [Vec<(FuncId, InstId)>],
    retired: &HashSet<FuncId>,
) -> u64 {
    // Map old arg index -> new.
    let mut map: Vec<Option<u32>> = Vec::with_capacity(used.len());
    let mut next = 0u32;
    for &u in used {
        if u {
            map.push(Some(next));
            next += 1;
        } else {
            map.push(None);
        }
    }
    // A clone shares the body, so this is a handle to read the old
    // function through while the module is edited, not a copy.
    let src = m.func(fid).clone();
    let new_params: Vec<lpat_core::TypeId> = src
        .params()
        .iter()
        .zip(used)
        .filter(|(_, &u)| u)
        .map(|(&t, _)| t)
        .collect();
    let void = m.types.void();
    let ret = if drop_ret { void } else { src.ret_type() };
    // Temporarily rename, create the replacement, then swap bodies.
    let name = src.name();
    m.rename_function(fid, &format!("{name}$dae"));
    let new_fid = m.add_function(name, &new_params, ret, false, src.linkage());
    // Copy the body, remapping arg references and (possibly sparse) old
    // instruction ids to the new dense layout.
    let mut imap: Vec<Option<InstId>> = vec![None; src.num_inst_slots()];
    for (k, oi) in src.inst_ids_in_order().enumerate() {
        imap[oi.index()] = Some(InstId::from_index(k));
    }
    let mut scanned = 0u64;
    for _ in 0..src.num_blocks() {
        m.func_mut(new_fid).add_block();
    }
    for bidx in src.block_ids() {
        let mut copied = Vec::with_capacity(src.block_insts(bidx).len());
        for &oi in src.block_insts(bidx) {
            scanned += 1;
            let mut inst = src.inst(oi).clone();
            let mut ty = src.inst_ty(oi);
            inst.map_operands(|v| match v {
                Value::Arg(i) => Value::Arg(map[i as usize].expect("used arg")),
                Value::Inst(d) => Value::Inst(imap[d.index()].expect("operand is linked")),
                other => other,
            });
            if drop_ret {
                if let Inst::Ret(_) = inst {
                    inst = Inst::Ret(None);
                    ty = void;
                }
            }
            let callee = direct_callee(m, &inst);
            let made = m.func_mut(new_fid).new_inst(inst, ty);
            debug_assert_eq!(Some(made), imap[oi.index()]);
            // The copy's calls are call sites too (of `fid` itself, when
            // it recurses). An appended function is never rewritten again,
            // so only the functions the index was built over have lists.
            if let Some(list) = callee.and_then(|t| sites.get_mut(t.index())) {
                list.push((new_fid, made));
            }
            copied.push(made);
        }
        m.func_mut(new_fid).set_block_insts(bidx, copied);
    }
    // Rewrite every call site.
    let new_addr = m.consts.func_addr(new_fid);
    for (holder, uid) in std::mem::take(&mut sites[fid.index()]) {
        if retired.contains(&holder) {
            continue;
        }
        scanned += 1;
        let inst = m.func(holder).inst(uid);
        if direct_callee(m, inst) != Some(fid) {
            continue;
        }
        let (args, dests) = match inst {
            Inst::Call { args, .. } => (args, None),
            Inst::Invoke {
                args,
                normal,
                unwind,
                ..
            } => (args, Some((*normal, *unwind))),
            _ => continue,
        };
        let args: Vec<Value> = args
            .iter()
            .zip(used)
            .filter(|(_, &u)| u)
            .map(|(&a, _)| a)
            .collect();
        let callee = Value::Const(new_addr);
        let hm = m.func_mut(holder);
        *hm.inst_mut(uid) = match dests {
            None => Inst::Call { callee, args },
            Some((normal, unwind)) => Inst::Invoke {
                callee,
                args,
                normal,
                unwind,
            },
        };
        if drop_ret {
            hm.set_inst_ty(uid, void);
        }
    }
    // The old function is now unreferenced; the caller batch-deletes it.
    scanned
}

// ----------------------------------------------------------------------
// IPCP — interprocedural constant propagation
// ----------------------------------------------------------------------

/// Propagate constants into internal functions when every call site passes
/// the same constant for a parameter.
#[derive(Default)]
pub struct Ipcp {
    propagated: usize,
    /// Call instructions read to get there.
    scanned: u64,
}

impl ModulePass for Ipcp {
    fn name(&self) -> &'static str {
        "ipcp"
    }
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let (n, scanned) = run_ipcp_with(m, cx.am.call_graph(m));
        self.propagated += n;
        self.scanned += scanned;
        // Operand substitution only — but a propagated function address can
        // turn an indirect call direct, so don't keep the call graph.
        PassEffect::from_change(
            n > 0,
            PreservedAnalyses {
                cfg: true,
                call_graph: false,
            },
        )
    }
    fn stats(&self) -> String {
        format!(
            "propagated {} constant arguments (scanned {} instructions)",
            self.propagated, self.scanned
        )
    }
}

/// Run IPCP once; returns number of parameters replaced by constants.
pub fn run_ipcp(m: &mut Module) -> usize {
    let cg = CallGraph::build(m);
    run_ipcp_with(m, &cg).0
}

/// [`run_ipcp`] against a caller-provided (typically cached) call graph;
/// also returns the number of instructions read.
///
/// Each function's arguments are read from its listed call sites when its
/// turn comes, so a constant an earlier turn propagated into a caller is
/// seen. The turn may make an indirect call direct (a propagated function
/// address), but only to an address-taken function, whose list is never
/// read.
pub fn run_ipcp_with(m: &mut Module, cg: &CallGraph) -> (usize, u64) {
    let mut count = 0;
    let mut scanned = 0u64;
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration()
            || !matches!(f.linkage(), Linkage::Internal)
            || cg.is_address_taken(fid)
        {
            continue;
        }
        // Gather, for each parameter, the set of constants passed.
        let nparams = f.num_params();
        let mut arg_consts: Vec<Option<ConstId>> = vec![None; nparams];
        let mut arg_bad = vec![false; nparams];
        let mut any_site = false;
        for &(caller, uid) in cg.call_sites(fid) {
            scanned += 1;
            let inst = m.func(caller).inst(uid);
            if direct_callee(m, inst) != Some(fid) {
                continue;
            }
            let (Inst::Call { args, .. } | Inst::Invoke { args, .. }) = inst else {
                continue;
            };
            any_site = true;
            for (i, &a) in args.iter().enumerate().take(nparams) {
                match a {
                    Value::Const(c) => match arg_consts[i] {
                        None => arg_consts[i] = Some(c),
                        Some(prev) if prev == c => {}
                        Some(_) => arg_bad[i] = true,
                    },
                    _ => arg_bad[i] = true,
                }
            }
        }
        if !any_site {
            continue;
        }
        for i in 0..nparams {
            if arg_bad[i] {
                continue;
            }
            if let Some(c) = arg_consts[i] {
                // Don't propagate undef or aggregates.
                if matches!(
                    m.consts.get(c),
                    Const::Undef(_) | Const::Array { .. } | Const::Struct { .. }
                ) {
                    continue;
                }
                m.func_mut(fid)
                    .replace_all_uses(Value::Arg(i as u32), Value::Const(c));
                count += 1;
            }
        }
    }
    (count, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn internalize_keeps_main() {
        let mut m = parse_module(
            "t",
            "
@data = global int 1
define void @helper() {
e:
  ret void
}
define int @main() {
e:
  ret int 0
}",
        )
        .unwrap();
        let mut p = Internalize::default();
        assert!(p.run(&mut m, &mut PassContext::default()).changed);
        assert!(matches!(
            m.func(m.func_by_name("helper").unwrap()).linkage(),
            Linkage::Internal
        ));
        assert!(matches!(
            m.func(m.func_by_name("main").unwrap()).linkage(),
            Linkage::External
        ));
        assert!(matches!(
            m.global(m.global_by_name("data").unwrap()).linkage,
            Linkage::Internal
        ));
    }

    #[test]
    fn dge_removes_dead_cycle() {
        let mut m = parse_module(
            "t",
            "
define internal void @a() {
e:
  call void @b()
  ret void
}
define internal void @b() {
e:
  call void @a()
  ret void
}
@dead_g = internal global int 7
define int @main() {
e:
  ret int 0
}",
        )
        .unwrap();
        let (f, g) = run_dge(&mut m);
        assert_eq!(f, 2, "mutually-recursive dead functions deleted");
        assert_eq!(g, 1);
        assert_eq!(m.num_funcs(), 1);
        m.verify().unwrap();
    }

    #[test]
    fn dge_keeps_vtable_referenced() {
        let mut m = parse_module(
            "t",
            "
define internal int @impl(int %x) {
e:
  ret int %x
}
@vt = constant [1 x int (int)*] [ int (int)* @impl ]
define int @main() {
e:
  ret int 0
}",
        )
        .unwrap();
        let (f, _) = run_dge(&mut m);
        assert_eq!(f, 0, "vtable keeps impl alive");
        m.verify().unwrap();
    }

    #[test]
    fn dae_removes_unused_arg_and_ret() {
        let mut m = parse_module(
            "t",
            "
define internal int @f(int %used, int %unused) {
e:
  %r = add int %used, 1
  ret int %r
}
define void @main() {
e:
  %x = call int @f(int 1, int 2)
  ret void
}",
        )
        .unwrap();
        let (a, r) = run_dae(&mut m);
        assert_eq!(a, 1);
        assert_eq!(r, 1);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let text = m.display();
        assert!(text.contains("define internal void @f(int %a0)"), "{text}");
        assert!(text.contains("call void @f(int 1)"), "{text}");
    }

    #[test]
    fn dae_keeps_used_returns() {
        let mut m = parse_module(
            "t",
            "
define internal int @f(int %x) {
e:
  ret int %x
}
define int @main() {
e:
  %v = call int @f(int 3)
  ret int %v
}",
        )
        .unwrap();
        let (a, r) = run_dae(&mut m);
        assert_eq!((a, r), (0, 0));
    }

    #[test]
    fn ipcp_propagates_common_constant() {
        let mut m = parse_module(
            "t",
            "
define internal int @f(int %x, int %y) {
e:
  %r = add int %x, %y
  ret int %r
}
define int @main(int %v) {
e:
  %a = call int @f(int 5, int %v)
  %b = call int @f(int 5, int 9)
  %c = add int %a, %b
  ret int %c
}",
        )
        .unwrap();
        let n = run_ipcp(&mut m);
        assert_eq!(n, 1, "only %x is constant at all sites");
        m.verify().unwrap();
        assert!(m.display().contains("add int 5, %a1"), "{}", m.display());
    }

    #[test]
    fn dae_rewrites_invoke_sites() {
        let mut m = parse_module(
            "t",
            "
define internal int @f(int %unused) {
e:
  ret int 0
}
define void @main() {
e:
  invoke void @wrap() to label %ok unwind label %h
ok:
  ret void
h:
  ret void
}
define internal void @wrap() {
e:
  %x = call int @f(int 9)
  ret void
}",
        )
        .unwrap();
        let (a, r) = run_dae(&mut m);
        assert!(a >= 1);
        assert!(r >= 1);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
    }
}
