//! Redundancy elimination: dominator-scoped value numbering of pure
//! expressions, and loads answered by a value already loaded or stored at
//! the same address anywhere on every path to them.
//!
//! SSA form makes the first a hash-and-dominate sweep — the "fast,
//! flow-insensitive algorithms achieve many of the benefits of
//! flow-sensitive ones" point of paper §2.1.
//!
//! The second is a must-availability dataflow over the whole CFG. A fact
//! is `pointer → value`. A load adds one. A store first drops every fact
//! whose pointer the local memory oracle ([`Alias`]) says it may touch,
//! then adds its own. A `call`, `invoke`, `free` or `vaarg` drops them
//! all. Where control merges, a fact survives only when every reachable
//! predecessor carries it with the same value. A back edge starts out
//! carrying every fact, and the sweep repeats until what the back edges
//! carry stops changing; a function without one is solved in one sweep.
//! A load is never moved, only replaced by a value that was loaded from
//! or stored to its address before it, so no trap moves.

use std::collections::HashMap;

use lpat_analysis::{Alias, DomTree, PreservedAnalyses};
use lpat_core::hash::IdHashBuilder;
use lpat_core::{
    resolve_replaced as resolve, BinOp, BlockId, CmpPred, FuncId, Function, Inst, InstId, Module,
    TypeId, Value,
};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// The value-numbering pass.
#[derive(Default)]
pub struct Gvn {
    eliminated: usize,
}

impl FunctionPass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        let n = gvn_unit(u);
        self.eliminated += n;
        // CFG untouched; only pure, non-call instructions are removed.
        PassEffect::from_change(n > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("eliminated {} redundant instructions", self.eliminated)
    }
}

#[derive(Hash, PartialEq, Eq, Clone)]
enum Key {
    Bin(BinOp, Value, Value),
    Cmp(CmpPred, Value, Value),
    Cast(Value, TypeId),
    Gep(Value, Vec<Value>),
}

/// The loads known at one program point: `(pointer, value)`, sorted by
/// pointer, one value per pointer.
type Facts = Vec<(Value, Value)>;

/// Sweeps after which the back edges stop being optimistic. A loop whose
/// body kills a fact that entered it takes two; a nest of loops, or a
/// replaced load that changes which pointers are the same value, can take
/// more.
const MAX_SWEEPS: usize = 4;

/// Run value numbering on one function; returns eliminated count.
pub fn gvn_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, gvn_unit)
}

/// Value numbering against a [`FuncUnit`]; returns eliminated count.
pub fn gvn_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() {
        return 0;
    }
    let mut repl = {
        let dt = u.analyses.domtree(u.func);
        let f: &Function = u.func;
        // Without a load there is nothing to make available: no facts,
        // so no predecessor lists and no second sweep.
        let loads = f
            .inst_ids_in_order()
            .any(|i| matches!(f.inst(i), Inst::Load { .. }));
        let preds = if loads { f.predecessors() } else { Vec::new() };
        let mut alias = Alias::new(u.types, u.consts, f, u.info);
        // What each block carries along a back edge into a block the
        // sweep reaches before it (`None`: every fact).
        let mut back: Vec<Option<Facts>> = vec![None; f.num_blocks()];
        let mut sweeps = 1;
        loop {
            let s = sweep(f, dt, &preds, &back, &mut alias);
            if s.converged {
                break s.repl;
            }
            if sweeps == MAX_SWEEPS {
                // Pessimistic: a back edge carries nothing.
                back.fill(Some(Facts::new()));
                break sweep(f, dt, &preds, &back, &mut alias).repl;
            }
            sweeps += 1;
            back = s.out;
        }
    };
    u.func.replace_insts(&mut repl)
}

/// Instructions to delete, each with the value that replaces it, by
/// instruction index.
type Repl = Vec<Option<Value>>;

/// What one sweep over the reachable blocks found.
struct Sweep {
    /// Instructions to delete, each with the value that replaces it.
    repl: Repl,
    /// The facts at each block's end (`None`: unreachable).
    out: Vec<Option<Facts>>,
    /// Whether every back edge carried what the sweep assumed it did.
    converged: bool,
}

/// One reverse-postorder sweep: value numbering plus load availability,
/// with `back` standing in for the facts of predecessors not swept yet.
/// Empty `preds` means the function has no load: every block starts with
/// no facts.
fn sweep(
    f: &Function,
    dt: &DomTree,
    preds: &[Vec<BlockId>],
    back: &[Option<Facts>],
    alias: &mut Alias<'_>,
) -> Sweep {
    let mut exprs: HashMap<Key, (InstId, BlockId), IdHashBuilder> = HashMap::default();
    let mut repl: Repl = vec![None; f.num_inst_slots()];
    let mut out: Vec<Option<Facts>> = vec![None; f.num_blocks()];
    // Blocks entered along a back edge, with the facts assumed there.
    let mut assumed: Vec<(BlockId, Facts)> = Vec::new();
    for &b in dt.rpo() {
        let mut facts = match b == f.entry() || preds.is_empty() {
            true => Facts::new(),
            false => {
                let (facts, along_back) = entry_facts(dt, &preds[b.index()], &out, back);
                if along_back {
                    assumed.push((b, facts.clone()));
                }
                facts
            }
        };
        for &iid in f.block_insts(b) {
            let key = match f.inst(iid) {
                Inst::Bin { op, lhs, rhs } => {
                    let (mut l, mut r) = (resolve(&mut repl, *lhs), resolve(&mut repl, *rhs));
                    if op.is_commutative() && r < l {
                        std::mem::swap(&mut l, &mut r);
                    }
                    Some(Key::Bin(*op, l, r))
                }
                Inst::Cmp { pred, lhs, rhs } => {
                    let (mut p, mut l, mut r) =
                        (*pred, resolve(&mut repl, *lhs), resolve(&mut repl, *rhs));
                    if r < l {
                        std::mem::swap(&mut l, &mut r);
                        p = p.swapped();
                    }
                    Some(Key::Cmp(p, l, r))
                }
                Inst::Cast { val, to } => Some(Key::Cast(resolve(&mut repl, *val), *to)),
                Inst::Gep { ptr, indices } => Some(Key::Gep(
                    resolve(&mut repl, *ptr),
                    indices.iter().map(|&i| resolve(&mut repl, i)).collect(),
                )),
                Inst::Load { ptr } => {
                    let p = resolve(&mut repl, *ptr);
                    match facts.binary_search_by(|&(q, _)| q.cmp(&p)) {
                        Ok(k) => repl[iid.index()] = Some(facts[k].1),
                        Err(k) => facts.insert(k, (p, Value::Inst(iid))),
                    }
                    None
                }
                Inst::Store { val, ptr } => {
                    let p = resolve(&mut repl, *ptr);
                    facts.retain(|&(q, _)| !alias.may_alias(q, p));
                    let k = facts.partition_point(|&(q, _)| q < p);
                    facts.insert(k, (p, resolve(&mut repl, *val)));
                    None
                }
                Inst::Call { .. } | Inst::Invoke { .. } | Inst::Free(_) | Inst::VaArg { .. } => {
                    facts.clear();
                    None
                }
                _ => None,
            };
            if let Some(key) = key {
                match exprs.get(&key) {
                    Some(&(def, db)) if dt.dominates(db, b) && def != iid => {
                        repl[iid.index()] = Some(Value::Inst(def));
                    }
                    _ => {
                        exprs.insert(key, (iid, b));
                    }
                }
            }
        }
        out[b.index()] = Some(facts);
    }
    let converged = assumed
        .iter()
        .all(|(b, facts)| entry_facts(dt, &preds[b.index()], &out, back).0 == *facts);
    Sweep {
        repl,
        out,
        converged,
    }
}

/// The facts on entry to a block with predecessors `preds`: those every
/// reachable predecessor ends with, each with the same value. A
/// predecessor not swept yet (`out` is `None`) carries `back`'s facts
/// instead; the flag says whether there was one.
fn entry_facts(
    dt: &DomTree,
    preds: &[BlockId],
    out: &[Option<Facts>],
    back: &[Option<Facts>],
) -> (Facts, bool) {
    let mut along_back = false;
    let mut acc: Option<Facts> = None;
    for &p in preds {
        if !dt.is_reachable(p) {
            continue;
        }
        let carried = match &out[p.index()] {
            Some(o) => Some(o),
            None => {
                along_back = true;
                back[p.index()].as_ref()
            }
        };
        if let Some(o) = carried {
            acc = Some(match acc {
                None => o.clone(),
                Some(a) => meet(&a, o),
            });
        }
    }
    (acc.unwrap_or_default(), along_back)
}

/// The facts two sorted fact lists agree on.
fn meet(a: &Facts, b: &Facts) -> Facts {
    let mut both = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].1 == b[j].1 {
                    both.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    both
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn opt(src: &str) -> (Module, usize) {
        let mut m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let fid = m.func_by_name("f").unwrap();
        let n = gvn_function(&mut m, fid);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        (m, n)
    }

    #[test]
    fn eliminates_common_subexpressions() {
        let (m, n) = opt("
define int @f(int %a, int %b) {
e:
  %x = add int %a, %b
  %y = add int %a, %b
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 1);
        // %z becomes x + x.
        assert!(m.display().contains("add int %t0, %t0"), "{}", m.display());
    }

    #[test]
    fn commutative_canonicalization() {
        let (_, n) = opt("
define int @f(int %a, int %b) {
e:
  %x = add int %a, %b
  %y = add int %b, %a
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 1);
    }

    #[test]
    fn dominating_expr_reused_across_blocks() {
        let (_, n) = opt("
define int @f(int %a, bool %c) {
e:
  %x = mul int %a, %a
  br bool %c, label %l, label %r
l:
  %y = mul int %a, %a
  ret int %y
r:
  ret int %x
}");
        assert_eq!(n, 1);
    }

    #[test]
    fn sibling_blocks_not_merged() {
        // Defs in sibling branches don't dominate each other.
        let (_, n) = opt("
define int @f(int %a, bool %c) {
e:
  br bool %c, label %l, label %r
l:
  %x = mul int %a, %a
  ret int %x
r:
  %y = mul int %a, %a
  ret int %y
}");
        assert_eq!(n, 0);
    }

    #[test]
    fn store_to_load_forwarding() {
        let (m, n) = opt("
define int @f(int* %p, int %v) {
e:
  store int %v, int* %p
  %x = load int* %p
  ret int %x
}");
        assert_eq!(n, 1);
        assert!(m.display().contains("ret int %a1"), "{}", m.display());
    }

    #[test]
    fn call_clobbers_loads() {
        let (_, n) = opt("
declare void @ext()
define int @f(int* %p) {
e:
  %x = load int* %p
  call void @ext()
  %y = load int* %p
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 0, "call may write *p");
    }

    #[test]
    fn repeated_loads_cse_within_block() {
        let (_, n) = opt("
define int @f(int* %p) {
e:
  %x = load int* %p
  %y = load int* %p
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 1);
    }

    #[test]
    fn gep_cse() {
        let (_, n) = opt("
%s = type { int, int }
define int @f(%s* %p) {
e:
  %a = getelementptr %s* %p, long 0, ubyte 1
  %b = getelementptr %s* %p, long 0, ubyte 1
  %x = load int* %a
  %y = load int* %b
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 2, "gep + the second load");
    }

    #[test]
    fn a_load_is_reused_across_blocks() {
        let (m, n) = opt("
@g = global int 0
define int @f(bool %c) {
e:
  %x = load int* @g
  br bool %c, label %l, label %r
l:
  br label %j
r:
  br label %j
j:
  %y = load int* @g
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 1);
        assert!(m.display().contains("add int %t0, %t0"), "{}", m.display());
    }

    /// A loop over `@g` that stores to `@h` (or to `@g`).
    fn loop_storing_to(target: &str) -> String {
        format!(
            "
@g = global int 0
@h = global int 0
define int @f(int %n) {{
e:
  %x = load int* @g
  br label %l
l:
  %i = phi int [ 0, %e ], [ %i2, %l ]
  %y = load int* @g
  store int %i, int* {target}
  %i2 = add int %i, 1
  %c = setlt int %i2, %n
  br bool %c, label %l, label %out
out:
  %z = load int* @g
  %s = add int %y, %z
  %r = add int %s, %x
  ret int %r
}}"
        )
    }

    #[test]
    fn a_load_survives_a_loop_that_stores_only_to_another_global() {
        let (m, n) = opt(&loop_storing_to("@h"));
        assert_eq!(n, 2, "the loop's load and the exit's");
        assert_eq!(m.display().matches("load").count(), 1, "{}", m.display());
        // Storing to `@g` itself kills the fact on the back edge: the
        // loop's load stays, and only the exit's is answered by the store.
        let (m, n) = opt(&loop_storing_to("@g"));
        assert_eq!(n, 1);
        assert_eq!(m.display().matches("load").count(), 2, "{}", m.display());
    }

    #[test]
    fn a_store_to_another_field_of_the_same_root_keeps_the_fact() {
        let (_, n) = opt("
%s = type { int, int }
define int @f(%s* %p) {
e:
  %a = getelementptr %s* %p, long 0, ubyte 0
  %b = getelementptr %s* %p, long 0, ubyte 1
  %x = load int* %a
  store int 7, int* %b
  %y = load int* %a
  %z = add int %x, %y
  ret int %z
}");
        assert_eq!(n, 1);
    }

    /// `@g`, loaded twice around `clobber`.
    fn around(decls: &str, clobber: &str) -> usize {
        opt(&format!(
            "
%s = type {{ int, int }}
@g = global %s zeroinitializer
@pp = global int* null
{decls}
define int @f(int* %q, ...) {{
e:
  %a = getelementptr %s* @g, long 0, ubyte 0
  %x = load int* %a
  {clobber}
  %y = load int* %a
  %z = add int %x, %y
  ret int %z
}}"
        ))
        .1
    }

    #[test]
    fn a_store_that_may_alias_kills_the_fact() {
        // Through an argument, and through a loaded pointer.
        assert_eq!(around("", "store int 1, int* %q"), 0);
        assert_eq!(around("", "%p = load int** @pp\n  store int 1, int* %p"), 0);
        // Punned: the first byte of `@g` overlaps field 0, the fifth does not.
        let punned = "%c = cast %s* @g to sbyte*";
        assert_eq!(
            around("", &format!("{punned}\n  store sbyte 1, sbyte* %c")),
            0
        );
        let fifth = format!(
            "{punned}\n  %c4 = getelementptr sbyte* %c, long 4\n  store sbyte 1, sbyte* %c4"
        );
        assert_eq!(around("", &fifth), 1);
        // A store to another global, or to a local, does not touch `@g`.
        assert_eq!(around("", "store int* null, int** @pp"), 1);
        assert_eq!(around("", "%l = alloca int\n  store int 1, int* %l"), 1);
    }

    #[test]
    fn calls_free_and_vaarg_kill_every_fact() {
        assert_eq!(around("declare void @ext()", "call void @ext()"), 0);
        let invoke = "invoke void @ext() to label %ok unwind label %bad\nbad:\n  unwind\nok:";
        assert_eq!(around("declare void @ext()", invoke), 0);
        assert_eq!(around("", "%m = malloc int\n  free int* %m"), 0);
        assert_eq!(around("", "%v = vaarg int"), 0);
    }

    #[test]
    fn a_merge_of_two_different_values_is_not_reused() {
        let merge = |right: &str| {
            opt(&format!(
                "
@g = global int 0
define int @f(bool %c) {{
e:
  br bool %c, label %l, label %r
l:
  store int 5, int* @g
  br label %j
r:
  {right}
  br label %j
j:
  %y = load int* @g
  ret int %y
}}"
            ))
            .1
        };
        assert_eq!(merge("%x = load int* @g"), 0);
        assert_eq!(merge("store int 6, int* @g"), 0);
        // The same value on both sides is available at the merge.
        assert_eq!(merge("store int 5, int* @g"), 1);
    }
}
