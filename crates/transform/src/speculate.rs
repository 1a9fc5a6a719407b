//! Speculative profile-guided optimization with guard-based side exits
//! (paper §3.5–§3.6).
//!
//! The paper's lifelong thesis is that the offline and runtime optimizers
//! may transform *speculatively*, because runtime evidence can revoke a
//! transformation that turned out to be wrong. This module is the
//! speculative half of our PGO split: where [`crate::devirtualize`] and
//! the reoptimizer's hot inlining are strictly safe (they only rewrite
//! what analysis proves), the [`speculate`] entry point emits **guarded**
//! rewrites justified by profile evidence alone:
//!
//! * **speculative devirtualization** — a hot *indirect* call site whose
//!   profile strongly suggests one callee is rewritten to
//!   `if (fp == @target) call @target(...) else call fp(...)`;
//! * **constant-argument specialization** — a hot function observed to
//!   receive one constant argument value gets a cloned body with that
//!   argument folded in, entered through `if (arg == C)` at the top.
//!
//! Guards are ordinary IR — a `seteq` compare plus a conditional branch —
//! and every engine runs them as the branch they are: a failing guard
//! takes its else edge to the generic path. What makes them *guards* is
//! the [`SpecMap`] overlay: each carries a stable numeric id and the block
//! its branch ends, so the VM reads the guard's executions (both edges)
//! and failures ([misspeculations], the else edge) off the edge profile
//! into the lifetime profile's guard tables. The map is ephemeral: it is
//! re-derived deterministically from `(module, profile, options)` on every
//! run and never persisted, so the stored module stays unspeculated and
//! the profile stays attributed to it.
//!
//! **Retraction** closes the loop: a guard whose accumulated
//! misspeculation rate exceeds the threshold is simply not re-emitted.
//! The decision function is pure integer arithmetic over the merged
//! lifetime counters, so the offline reoptimizer and the in-memory run
//! reach byte-identical [`SpecPlan`]s, run after run.
//!
//! [misspeculations]: SpecProfile::guard_misspec

use std::collections::HashMap;

use lpat_analysis::{CallGraph, Dsa, DsaOptions};
use lpat_core::trace;
use lpat_core::{BlockId, CmpPred, FuncId, Inst, InstId, IntKind, Module, Value};

/// Thresholds and caps for speculation.
#[derive(Clone, Debug)]
pub struct SpecOptions {
    /// Minimum profile count for a call site (devirtualization) or a
    /// specialization weight (constant arguments) to be speculated on.
    pub hot_threshold: u64,
    /// Retract a guard once `misspec/exec` reaches this percentage.
    pub misspec_threshold_pct: u32,
    /// Minimum guard executions before the retraction test applies
    /// (prevents one cold-start failure from retracting forever).
    pub min_samples: u64,
    /// Ceiling on plan entries per module (deterministic: sorted by id).
    pub max_guards: usize,
    /// Ceiling on function size for constant-argument cloning.
    pub max_clone_insts: usize,
}

impl Default for SpecOptions {
    fn default() -> Self {
        SpecOptions {
            hot_threshold: 64,
            misspec_threshold_pct: 25,
            min_samples: 16,
            max_guards: 64,
            max_clone_insts: 400,
        }
    }
}

/// The profile slice speculation decisions read. The VM's `ProfileData`
/// lives above this crate, so callers project it down to the four tables
/// the planner needs.
#[derive(Clone, Debug, Default)]
pub struct SpecProfile {
    /// Times each call site executed (caller, site instruction).
    pub callsite_counts: HashMap<(FuncId, InstId), u64>,
    /// Times each function was called.
    pub call_counts: HashMap<FuncId, u64>,
    /// Times each guard executed, from prior runs.
    pub guard_exec: HashMap<u32, u64>,
    /// Times each guard failed, from prior runs.
    pub guard_misspec: HashMap<u32, u64>,
}

impl SpecProfile {
    fn exec(&self, id: u32) -> u64 {
        self.guard_exec.get(&id).copied().unwrap_or(0)
    }
    fn misspec(&self, id: u32) -> u64 {
        self.guard_misspec.get(&id).copied().unwrap_or(0)
    }
}

/// What one guard speculates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecAction {
    /// Rewrite indirect call `site` in `func` to a guarded direct call.
    Devirt {
        /// Caller containing the indirect site.
        func: FuncId,
        /// The indirect `Call` instruction.
        site: InstId,
        /// Predicted callee.
        target: FuncId,
    },
    /// Clone `func`'s body with argument `arg` folded to `value`.
    ConstArg {
        /// Function to specialize.
        func: FuncId,
        /// Argument index.
        arg: u32,
        /// Integer kind of the argument.
        kind: IntKind,
        /// Observed constant value.
        value: i64,
    },
}

/// One planned guard: the decision record the offline reoptimizer and the
/// in-memory run must agree on byte-for-byte.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    /// Stable guard id (a pure function of the pre-speculation module
    /// position, independent of the profile).
    pub id: u32,
    /// The speculation.
    pub action: SpecAction,
    /// Human-readable description (canonical; used in the rendered plan).
    pub desc: String,
    /// Prior-run executions of this guard.
    pub exec: u64,
    /// Prior-run failures of this guard.
    pub misspec: u64,
    /// `true` = emit the guard; `false` = retracted by misspec rate.
    pub emit: bool,
}

/// The full speculation plan for one `(module, profile)` pair.
#[derive(Clone, Debug, Default)]
pub struct SpecPlan {
    /// Entries sorted by guard id.
    pub entries: Vec<PlanEntry>,
}

impl SpecPlan {
    /// Entries that will be emitted.
    pub fn emitted(&self) -> usize {
        self.entries.iter().filter(|e| e.emit).count()
    }

    /// Entries retracted by their misspeculation rate.
    pub fn retracted(&self) -> usize {
        self.entries.len() - self.emitted()
    }

    /// Canonical one-line-per-guard rendering. The offline reoptimizer
    /// and `run --speculate` both print exactly this, so tests can
    /// compare the two decision sets byte-for-byte.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "guard {:08x} {} exec={} misspec={} -> {}\n",
                e.id,
                e.desc,
                e.exec,
                e.misspec,
                if e.emit { "emit" } else { "retract" }
            ));
        }
        out
    }
}

/// One emitted guard: where the engine's edge profile holds its counts.
#[derive(Clone, Debug)]
pub struct GuardInfo {
    /// Stable guard id.
    pub id: u32,
    /// Function containing the guard.
    pub func: FuncId,
    /// The guard's `seteq` compare.
    pub cmp: InstId,
    /// The guard's conditional branch (`then` = speculated fast path).
    pub br: InstId,
    /// The block `br` terminates: its then edge is a pass, its else edge
    /// a misspeculation.
    pub block: BlockId,
    /// Canonical description.
    pub desc: String,
}

/// The ephemeral guard overlay for a speculated module. Never persisted:
/// re-derived from `(module, profile, options)` each run.
#[derive(Clone, Debug, Default)]
pub struct SpecMap {
    /// Emitted guards, in application order.
    pub guards: Vec<GuardInfo>,
}

impl SpecMap {
    /// Number of emitted guards.
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// Whether no guards were emitted.
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }
}

/// The retraction decision: pure integer arithmetic so the offline and
/// in-memory evaluations can never diverge (no floats, no ordering
/// sensitivity, saturation-safe at `u64::MAX`).
pub fn should_retract(exec: u64, misspec: u64, opts: &SpecOptions) -> bool {
    exec >= opts.min_samples
        && (misspec as u128) * 100 >= (exec as u128) * (opts.misspec_threshold_pct as u128)
}

// Guard ids pack the pre-speculation module position so they are stable
// across runs and independent of which guards are emitted:
//   bit 31     — kind (0 = devirt at a call site, 1 = const-arg)
//   bits 16-30 — function index (< 2^15)
//   bits 0-15  — site instruction index / argument index (< 2^16)
fn devirt_id(f: FuncId, site: InstId) -> Option<u32> {
    if f.index() < (1 << 15) && site.index() < (1 << 16) {
        Some(((f.index() as u32) << 16) | site.index() as u32)
    } else {
        None
    }
}

fn constarg_id(f: FuncId, arg: u32) -> Option<u32> {
    if f.index() < (1 << 15) && arg < (1 << 16) {
        Some((1 << 31) | ((f.index() as u32) << 16) | arg)
    } else {
        None
    }
}

/// Compute the speculation plan for `(m, profile)` without mutating `m`.
///
/// Deterministic: candidates are enumerated in `(function, instruction)`
/// order, ties broken by index, and the result is sorted by guard id and
/// capped at [`SpecOptions::max_guards`]. Both `lpatc run --speculate`
/// and the offline reoptimizer call exactly this.
pub fn compute_plan(m: &Module, profile: &SpecProfile, opts: &SpecOptions) -> SpecPlan {
    let mut sp = trace::span("spec", "plan");
    let cg = CallGraph::build(m);
    let dsa = Dsa::analyze(m, &cg, &DsaOptions::default());
    let mut entries = Vec::new();
    devirt_candidates(m, &cg, &dsa, profile, opts, &mut entries);
    constarg_candidates(m, &cg, profile, opts, &mut entries);
    entries.sort_by_key(|e: &PlanEntry| e.id);
    entries.truncate(opts.max_guards);
    sp.arg("entries", entries.len().to_string());
    SpecPlan { entries }
}

fn devirt_candidates(
    m: &Module,
    cg: &CallGraph,
    dsa: &Dsa,
    profile: &SpecProfile,
    opts: &SpecOptions,
    out: &mut Vec<PlanEntry>,
) {
    let mut sites: Vec<((FuncId, InstId), u64)> = profile
        .callsite_counts
        .iter()
        .filter(|(_, &c)| c >= opts.hot_threshold)
        .map(|(&k, &c)| (k, c))
        .collect();
    sites.sort_by_key(|&((f, i), _)| (f.index(), i.index()));
    for ((fid, site), _count) in sites {
        if fid.index() >= m.num_funcs() {
            continue;
        }
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        if f.inst_blocks()
            .get(site.index())
            .copied()
            .flatten()
            .is_none()
        {
            continue;
        }
        // Only plain indirect calls: invoke sites keep their two-successor
        // shape and are left to the safe devirtualizer.
        let callee = match f.inst(site) {
            Inst::Call { callee, .. } if !matches!(callee, Value::Const(_)) => *callee,
            _ => continue,
        };
        let Some(id) = devirt_id(fid, site) else {
            continue;
        };
        let fn_ty = match m.types.pointee(m.value_type(f, callee)) {
            Some(t) => t,
            None => continue,
        };
        // Candidate targets: address-taken definitions of the right type
        // (the call graph's conservative indirect-call target set).
        let candidates: Vec<FuncId> = m
            .func_ids()
            .filter(|&g| {
                cg.is_address_taken(g)
                    && !m.func(g).is_declaration()
                    && m.func(g).fn_type() == fn_ty
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        // DSA narrows trust: a collapsed or externally-reachable
        // points-to node for the function pointer means the value may
        // come from code the analysis never saw, so a single-candidate
        // shortcut is not justified and profile evidence is required.
        let trusted = dsa
            .node_of(m, fid, callee)
            .map(|n| !dsa.is_collapsed(n) && !dsa.node_flags(n).external)
            .unwrap_or(false);
        let target = if candidates.len() == 1 && trusted {
            candidates[0]
        } else {
            let best = candidates
                .iter()
                .map(|&g| (profile.call_counts.get(&g).copied().unwrap_or(0), g))
                .max_by_key(|&(c, g)| (c, std::cmp::Reverse(g.index())));
            match best {
                Some((c, g)) if c > 0 => g,
                _ => continue,
            }
        };
        let (exec, misspec) = (profile.exec(id), profile.misspec(id));
        out.push(PlanEntry {
            id,
            desc: format!(
                "devirt {}@{} => {}",
                f.name(),
                site.index(),
                m.func(target).name()
            ),
            action: SpecAction::Devirt {
                func: fid,
                site,
                target,
            },
            exec,
            misspec,
            emit: !should_retract(exec, misspec, opts),
        });
    }
}

fn constarg_candidates(
    m: &Module,
    cg: &CallGraph,
    profile: &SpecProfile,
    opts: &SpecOptions,
    out: &mut Vec<PlanEntry>,
) {
    // Gather, per callee, the constant-argument evidence from every
    // direct call site in the module.
    // (arg index, kind, value) -> summed hot-site weight
    let mut weights: HashMap<(FuncId, u32, IntKind, i64), u64> = HashMap::new();
    // arg positions seeing a non-constant or conflicting value
    let mut varying: HashMap<(FuncId, u32), bool> = HashMap::new();
    for (caller, cf) in m.funcs() {
        if cf.is_declaration() {
            continue;
        }
        for iid in cf.inst_ids_in_order() {
            let (callee, args) = match cf.inst(iid) {
                Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => (callee, args),
                _ => continue,
            };
            let target = match callee {
                Value::Const(c) => match m.consts.get(*c) {
                    lpat_core::Const::FuncAddr(t) => *t,
                    _ => continue,
                },
                _ => continue,
            };
            let w = profile
                .callsite_counts
                .get(&(caller, iid))
                .copied()
                .unwrap_or(0);
            for (j, &a) in args.iter().enumerate() {
                let j = j as u32;
                match a {
                    Value::Const(c) => match m.consts.as_int(c) {
                        Some((kind, v)) => {
                            *weights.entry((target, j, kind, v)).or_insert(0) += w;
                        }
                        None => {
                            varying.insert((target, j), true);
                        }
                    },
                    _ => {
                        varying.insert((target, j), true);
                    }
                }
            }
        }
    }
    let mut fids: Vec<FuncId> = m.func_ids().collect();
    fids.sort_by_key(|f| f.index());
    for fid in fids {
        let f = m.func(fid);
        if f.is_declaration()
            || f.is_varargs()
            || f.num_insts() > opts.max_clone_insts
            || f.params().is_empty()
        {
            continue;
        }
        // An entry block with φs (a looping CFG edge back to the entry)
        // cannot be split safely; skip.
        if f.block_insts(f.entry())
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Phi { .. }))
        {
            continue;
        }
        // Pick the hottest (arg, value); ties break toward the lowest
        // argument index, then the smallest value.
        let mut best: Option<(u64, u32, IntKind, i64)> = None;
        for (&(g, j, kind, v), &w) in &weights {
            if g != fid || w < opts.hot_threshold {
                continue;
            }
            // The observed kind must be the declared parameter kind.
            if m.types.int_kind(f.params()[j as usize]) != Some(kind) {
                continue;
            }
            let cand = (w, j, kind, v);
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if (cand.0, std::cmp::Reverse(cand.1), std::cmp::Reverse(cand.3))
                        > (b.0, std::cmp::Reverse(b.1), std::cmp::Reverse(b.3))
                    {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        let Some((_, arg, kind, value)) = best else {
            continue;
        };
        // If no call can disagree — not address-taken and every direct
        // site passes this same constant — interprocedural constant
        // propagation handles it without a guard; speculation would only
        // add overhead.
        let can_vary =
            cg.is_address_taken(fid) || varying.get(&(fid, arg)).copied().unwrap_or(false) || {
                weights
                    .iter()
                    .any(|(&(g, j, k, v), _)| g == fid && j == arg && (k, v) != (kind, value))
            };
        if !can_vary {
            continue;
        }
        let Some(id) = constarg_id(fid, arg) else {
            continue;
        };
        let (exec, misspec) = (profile.exec(id), profile.misspec(id));
        out.push(PlanEntry {
            id,
            desc: format!("constarg {} arg{} == {}", f.name(), arg, value),
            action: SpecAction::ConstArg {
                func: fid,
                arg,
                kind,
                value,
            },
            exec,
            misspec,
            emit: !should_retract(exec, misspec, opts),
        });
    }
}

/// Compute the plan and apply every emitted entry to `m`, returning the
/// guard overlay plus the plan. The module is mutated in place; callers
/// that need the unspeculated module (hash keying, the lifelong store)
/// must take it before calling this.
pub fn speculate(m: &mut Module, profile: &SpecProfile, opts: &SpecOptions) -> (SpecMap, SpecPlan) {
    let plan = compute_plan(m, profile, opts);
    let mut sp = trace::span("spec", "apply");
    let mut map = SpecMap::default();
    for e in &plan.entries {
        if !e.emit {
            continue;
        }
        let applied = match e.action {
            SpecAction::Devirt { func, site, target } => apply_devirt(m, func, site, target),
            SpecAction::ConstArg {
                func,
                arg,
                kind,
                value,
            } => apply_constarg(m, func, arg, kind, value),
        };
        if let Some((cmp, br)) = applied {
            let func = match e.action {
                SpecAction::Devirt { func, .. } | SpecAction::ConstArg { func, .. } => func,
            };
            if trace::enabled() {
                trace::instant_args(
                    "spec",
                    "guard",
                    vec![("id", format!("{:08x}", e.id)), ("desc", e.desc.clone())],
                );
            }
            map.guards.push(GuardInfo {
                id: e.id,
                func,
                cmp,
                br,
                block: BlockId::from_index(0),
                desc: e.desc.clone(),
            });
        }
    }
    // Read each branch's block once every rewrite is done: specializing a
    // function moves its entry block's contents, a devirtualization guard
    // placed there before it included.
    for g in &mut map.guards {
        g.block = m.func(g.func).inst_blocks()[g.br.index()].expect("an emitted guard is placed");
    }
    sp.arg("guards", map.len().to_string());
    (map, plan)
}

/// Rewrite indirect call `site` into
/// `%g = seteq fp, @target; br %g, fast, slow` with a direct call on the
/// fast path, the original call on the slow path, and a φ merging the
/// result. Returns the guard's `(cmp, br)` on success.
fn apply_devirt(
    m: &mut Module,
    fid: FuncId,
    site: InstId,
    target: FuncId,
) -> Option<(InstId, InstId)> {
    let f = m.func(fid);
    let b = f.inst_blocks().get(site.index()).copied().flatten()?;
    let (callee, args) = match f.inst(site) {
        Inst::Call { callee, args } if !matches!(callee, Value::Const(_)) => {
            (*callee, args.clone())
        }
        _ => return None,
    };
    // The rewrite must be well-typed: the pointer's function type must be
    // exactly the target's.
    if m.types.pointee(m.value_type(f, callee)) != Some(m.func(target).fn_type()) {
        return None;
    }
    let ret_ty = f.inst_ty(site);
    let result_used = f.use_counts()[site.index()] > 0;
    let void = m.types.void();
    let is_void = ret_ty == void;
    let bool_ty = m.types.bool_();
    let addr = m.consts.func_addr(target);

    let fm = m.func_mut(fid);
    let insts = fm.block_insts(b).to_vec();
    let pos = insts.iter().position(|&i| i == site)?;
    let before = insts[..pos].to_vec();
    let after = insts[pos + 1..].to_vec();
    let fast = fm.add_block();
    let slow = fm.add_block();
    let cont = fm.add_block();
    // b keeps the prefix and gains the guard.
    fm.set_block_insts(b, before);
    let cmp = fm.append_inst(
        b,
        Inst::Cmp {
            pred: CmpPred::Eq,
            lhs: callee,
            rhs: Value::Const(addr),
        },
        bool_ty,
    );
    let br = fm.append_inst(
        b,
        Inst::CondBr {
            cond: Value::Inst(cmp),
            then_bb: fast,
            else_bb: slow,
        },
        void,
    );
    // Fast path: the direct call.
    let direct = fm.append_inst(
        fast,
        Inst::Call {
            callee: Value::Const(addr),
            args,
        },
        ret_ty,
    );
    fm.append_inst(fast, Inst::Br(cont), void);
    // Slow path: the original indirect call, moved.
    fm.set_block_insts(slow, vec![site]);
    fm.append_inst(slow, Inst::Br(cont), void);
    // Continuation: the rest of the split block.
    fm.set_block_insts(cont, after);
    // The split moved b's terminator into cont: φs in its successors
    // must re-point their incoming edge.
    let succs = fm.successors(cont);
    for s in succs {
        for pid in fm.block_insts(s).to_vec() {
            if let Inst::Phi { incoming } = fm.inst_mut(pid) {
                for (_, pb) in incoming {
                    if *pb == b {
                        *pb = cont;
                    }
                }
            }
        }
    }
    // Merge the two results.
    if !is_void && result_used {
        let phi = fm.new_inst(
            Inst::Phi {
                incoming: Vec::new(),
            },
            ret_ty,
        );
        fm.insert_inst(cont, 0, phi);
        fm.replace_all_uses(Value::Inst(site), Value::Inst(phi));
        *fm.inst_mut(phi) = Inst::Phi {
            incoming: vec![(Value::Inst(direct), fast), (Value::Inst(site), slow)],
        };
    }
    Some((cmp, br))
}

/// Clone `fid`'s body with `Arg(arg)` folded to `value`, and split the
/// entry into `%g = seteq arg, C; br %g, clone_entry, original_entry`.
/// Returns the guard's `(cmp, br)` on success.
fn apply_constarg(
    m: &mut Module,
    fid: FuncId,
    arg: u32,
    kind: IntKind,
    value: i64,
) -> Option<(InstId, InstId)> {
    {
        let f = m.func(fid);
        if f.is_declaration() || m.types.int_kind(*f.params().get(arg as usize)?) != Some(kind) {
            return None;
        }
        if f.block_insts(f.entry())
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Phi { .. }))
        {
            return None;
        }
    }
    let cval = Value::Const(m.consts.int(kind, value));
    let bool_ty = m.types.bool_();
    let void = m.types.void();
    let snapshot = m.func(fid).clone();
    let fm = m.func_mut(fid);
    // Allocate clone ids: instructions first (arena append order), then
    // blocks.
    let base_inst = fm.num_inst_slots();
    let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
    for (k, old) in snapshot.inst_ids_in_order().enumerate() {
        inst_map.insert(old, InstId::from_index(base_inst + k));
    }
    let base_block = fm.num_blocks();
    let block_map = |old: BlockId| BlockId::from_index(base_block + old.index());
    for _ in snapshot.block_ids() {
        fm.add_block();
    }
    for ob in snapshot.block_ids() {
        let nb = block_map(ob);
        for &oi in snapshot.block_insts(ob) {
            let mut inst = snapshot.inst(oi).clone();
            inst.map_operands(|v| match v {
                Value::Arg(i) if i == arg => cval,
                Value::Inst(d) => Value::Inst(inst_map[&d]),
                other => other,
            });
            inst.map_successors(block_map);
            let made = fm.new_inst(inst, snapshot.inst_ty(oi));
            debug_assert_eq!(Some(&made), inst_map.get(&oi));
            let mut list = fm.block_insts(nb).to_vec();
            list.push(made);
            fm.set_block_insts(nb, list);
        }
    }
    // Split the entry: its contents move to `cold`, and the entry becomes
    // the guard. Back-edges into the old entry (and φ incoming records in
    // the *original* body) re-point to `cold`; the clone's references were
    // already remapped and are untouched.
    let entry = snapshot.entry();
    let cold = fm.add_block();
    let moved = fm.block_insts(entry).to_vec();
    fm.set_block_insts(entry, Vec::new());
    fm.set_block_insts(cold, moved);
    for ob in snapshot.block_ids() {
        for iid in fm.block_insts(ob).to_vec() {
            fm.inst_mut(iid)
                .map_successors(|s| if s == entry { cold } else { s });
        }
    }
    let cmp = fm.append_inst(
        entry,
        Inst::Cmp {
            pred: CmpPred::Eq,
            lhs: Value::Arg(arg),
            rhs: cval,
        },
        bool_ty,
    );
    let br = fm.append_inst(
        entry,
        Inst::CondBr {
            cond: Value::Inst(cmp),
            then_bb: block_map(entry),
            else_bb: cold,
        },
        void,
    );
    Some((cmp, br))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn find_indirect_site(m: &Module, fname: &str) -> (FuncId, InstId) {
        for (fid, f) in m.funcs() {
            if f.name() != fname {
                continue;
            }
            for iid in f.inst_ids_in_order() {
                if let Inst::Call { callee, .. } = f.inst(iid) {
                    if !matches!(callee, Value::Const(_)) {
                        return (fid, iid);
                    }
                }
            }
        }
        panic!("no indirect site in {fname}");
    }

    const DISPATCH: &str = "
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  %s = add int %r, 0
  ret int %s
}
define int @main() {
e:
  %a = call int @disp(int (int)* @alpha, int 5)
  %b = call int @disp(int (int)* @beta, int 5)
  %r = add int %a, %b
  ret int %r
}";

    fn dispatch_profile(m: &Module) -> SpecProfile {
        let (disp, site) = find_indirect_site(m, "disp");
        let alpha = m
            .funcs()
            .find(|(_, f)| f.name() == "alpha")
            .map(|(id, _)| id)
            .unwrap();
        let mut p = SpecProfile::default();
        p.callsite_counts.insert((disp, site), 100);
        p.call_counts.insert(alpha, 90);
        p
    }

    #[test]
    fn devirt_guard_emitted_and_verifies() {
        let mut m = parse_module("t", DISPATCH).unwrap();
        m.verify().unwrap();
        let p = dispatch_profile(&m);
        let (map, plan) = speculate(&mut m, &p, &SpecOptions::default());
        assert_eq!(map.len(), 1, "{}", plan.render());
        assert_eq!(plan.emitted(), 1);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let text = m.display().to_string();
        assert!(text.contains("seteq"), "{text}");
        assert!(text.contains("call int @alpha"), "{text}");
        // The overlay names the block the guard's branch ends.
        let g = &map.guards[0];
        let f = m.func(g.func);
        assert_eq!(f.block_insts(g.block).last(), Some(&g.br));
        assert!(matches!(f.inst(g.br), Inst::CondBr { .. }));
        assert!(g.desc.contains("devirt disp@"), "{}", g.desc);
    }

    #[test]
    fn plan_is_deterministic_and_pure() {
        let m = parse_module("t", DISPATCH).unwrap();
        let p = dispatch_profile(&m);
        let before = m.display().to_string();
        let a = compute_plan(&m, &p, &SpecOptions::default());
        let b = compute_plan(&m, &p, &SpecOptions::default());
        assert_eq!(a.render(), b.render());
        assert_eq!(m.display().to_string(), before, "plan must not mutate");
    }

    #[test]
    fn misspec_rate_retracts_guard() {
        let mut m = parse_module("t", DISPATCH).unwrap();
        let mut p = dispatch_profile(&m);
        let opts = SpecOptions::default();
        let id = compute_plan(&m, &p, &opts).entries[0].id;
        // Half the executions failed: way past the 25% threshold.
        p.guard_exec.insert(id, 100);
        p.guard_misspec.insert(id, 50);
        let (map, plan) = speculate(&mut m, &p, &opts);
        assert!(map.is_empty());
        assert_eq!(plan.retracted(), 1);
        assert!(plan.render().contains("-> retract"), "{}", plan.render());
        // Below min_samples the rate test must not fire.
        assert!(!should_retract(2, 2, &opts));
        assert!(should_retract(u64::MAX, u64::MAX, &opts), "saturation-safe");
    }

    #[test]
    fn constarg_specialization_clones_and_verifies() {
        let mut m = parse_module(
            "t",
            "
define internal int @poly(int %n, int %k) {
e:
  %c = setgt int %n, 0
  br bool %c, label %l, label %d
l:
  %r = mul int %n, %k
  ret int %r
d:
  ret int 0
}
@tbl = constant [1 x int (int, int)*] [ int (int, int)* @poly ]
define int @main(int %x) {
e:
  %a = call int @poly(int %x, int 7)
  ret int %a
}",
        )
        .unwrap();
        m.verify().unwrap();
        let poly = m
            .funcs()
            .find(|(_, f)| f.name() == "poly")
            .map(|(id, _)| id)
            .unwrap();
        let (main, site) = {
            let (mid, f) = m.funcs().find(|(_, f)| f.name() == "main").unwrap();
            let site = f
                .inst_ids_in_order()
                .find(|&i| matches!(f.inst(i), Inst::Call { .. }))
                .unwrap();
            (mid, site)
        };
        let mut p = SpecProfile::default();
        p.callsite_counts.insert((main, site), 500);
        p.call_counts.insert(poly, 500);
        let (map, plan) = speculate(&mut m, &p, &SpecOptions::default());
        assert!(
            plan.entries
                .iter()
                .any(|e| e.desc.contains("constarg poly arg1 == 7")),
            "{}",
            plan.render()
        );
        assert_eq!(map.len(), plan.emitted());
        assert!(!map.is_empty(), "{}", plan.render());
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        for g in &map.guards {
            assert_eq!(m.func(g.func).block_insts(g.block).last(), Some(&g.br));
        }
        // The clone folded the argument (printer names: args are %aN) and
        // the guard compares it at entry.
        let text = m.display().to_string();
        assert!(text.contains("mul int %a0, 7"), "{text}");
        assert!(text.contains("seteq int %a1, 7"), "{text}");
    }

    #[test]
    fn cold_profile_emits_nothing() {
        let mut m = parse_module("t", DISPATCH).unwrap();
        let before = m.display().to_string();
        let (map, plan) = speculate(&mut m, &SpecProfile::default(), &SpecOptions::default());
        assert!(map.is_empty());
        assert!(plan.entries.is_empty());
        assert_eq!(m.display().to_string(), before);
    }
}
