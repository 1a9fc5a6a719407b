//! Compile-time interprocedural summaries (paper §3.3).
//!
//! "At compile-time, interprocedural summaries can be computed for each
//! function in the program and attached to the bytecode. The link-time
//! interprocedural optimizer can then process these interprocedural
//! summaries as input instead of having to compute results from scratch" —
//! the well-known technique for speeding up incremental whole-program
//! compilation.
//!
//! A [`FuncSummary`] captures the per-function facts the link-time passes
//! consume: local `unwind` presence and call structure (for `prune-eh`),
//! and directly read/written globals (a symbol-level Mod/Ref). Summaries
//! are name-keyed so they survive linking and can be serialized next to
//! the bytecode (`lpat-bytecode` appends them to the module).

use std::collections::{HashMap, HashSet};

use lpat_core::{Const, Inst, Module, Value};

/// Per-function summary facts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncSummary {
    /// Function name (the cross-module key).
    pub name: String,
    /// Is a declaration (externally defined — worst-case assumptions).
    pub is_declaration: bool,
    /// Contains a literal `unwind` instruction.
    pub may_unwind_local: bool,
    /// Contains an indirect call (callee unknown at summary time).
    pub has_indirect_calls: bool,
    /// Names of directly *called* functions (through `call`; invokes
    /// catch their callees' unwinds and are excluded from unwind
    /// propagation, matching `prune-eh`'s analysis).
    pub direct_callees: Vec<String>,
    /// Names of globals read directly.
    pub reads_globals: Vec<String>,
    /// Names of globals written directly.
    pub writes_globals: Vec<String>,
}

/// Summaries for a whole module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleSummaries {
    /// One summary per function, in module order.
    pub funcs: Vec<FuncSummary>,
}

/// Compute summaries for every function of `m`.
pub fn compute_summaries(m: &Module) -> ModuleSummaries {
    let mut funcs = Vec::with_capacity(m.num_funcs());
    for (_, f) in m.funcs() {
        let mut s = FuncSummary {
            name: f.name().to_string(),
            is_declaration: f.is_declaration(),
            ..FuncSummary::default()
        };
        let mut callees = HashSet::new();
        let mut reads = HashSet::new();
        let mut writes = HashSet::new();
        for iid in f.inst_ids_in_order() {
            match f.inst(iid) {
                Inst::Unwind => s.may_unwind_local = true,
                Inst::Call { callee, .. } => match direct_name(m, *callee) {
                    Some(n) => {
                        callees.insert(n);
                    }
                    None => s.has_indirect_calls = true,
                },
                Inst::Load { ptr } => {
                    if let Some(n) = global_name(m, *ptr) {
                        reads.insert(n);
                    }
                }
                Inst::Store { ptr, .. } => {
                    if let Some(n) = global_name(m, *ptr) {
                        writes.insert(n);
                    }
                }
                _ => {}
            }
        }
        s.direct_callees = callees.into_iter().collect();
        s.reads_globals = reads.into_iter().collect();
        s.writes_globals = writes.into_iter().collect();
        s.direct_callees.sort();
        s.reads_globals.sort();
        s.writes_globals.sort();
        funcs.push(s);
    }
    ModuleSummaries { funcs }
}

fn direct_name(m: &Module, v: Value) -> Option<String> {
    match v {
        Value::Const(c) => match m.consts.get(c) {
            Const::FuncAddr(f) => Some(m.func(*f).name().to_string()),
            _ => None,
        },
        _ => None,
    }
}

fn global_name(m: &Module, v: Value) -> Option<String> {
    match v {
        Value::Const(c) => match m.consts.get(c) {
            Const::GlobalAddr(g) => Some(m.global(*g).name.clone()),
            _ => None,
        },
        _ => None,
    }
}

impl ModuleSummaries {
    /// Merge summaries from several modules (the linker's view: one entry
    /// per symbol, definitions win over declarations).
    ///
    /// Internal symbols that collide across modules are renamed by the
    /// linker (`name.1`, ...) but keyed here by their original name, so
    /// the merged entry may describe the *other* copy. Consumers must
    /// treat functions they cannot find in the summaries conservatively
    /// (see `run_prune_eh_with_summaries`), which makes a collision cost
    /// optimization, never soundness.
    pub fn merge(parts: Vec<ModuleSummaries>) -> ModuleSummaries {
        let mut by_name: HashMap<String, FuncSummary> = HashMap::new();
        for p in parts {
            for s in p.funcs {
                match by_name.get(&s.name) {
                    Some(prev) if !prev.is_declaration => {}
                    _ => {
                        by_name.insert(s.name.clone(), s);
                    }
                }
            }
        }
        let mut funcs: Vec<FuncSummary> = by_name.into_values().collect();
        funcs.sort_by(|a, b| a.name.cmp(&b.name));
        ModuleSummaries { funcs }
    }

    /// The set of function names that may unwind, computed purely from the
    /// summaries (no IR traversal) — the `prune-eh` fixpoint over summary
    /// data.
    pub fn may_unwind_closure(&self) -> HashSet<String> {
        let mut may: HashSet<String> = self
            .funcs
            .iter()
            .filter(|s| s.is_declaration || s.may_unwind_local || s.has_indirect_calls)
            .map(|s| s.name.clone())
            .collect();
        // Names called but not summarized are unknown externals.
        let known: HashSet<&str> = self.funcs.iter().map(|s| s.name.as_str()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for s in &self.funcs {
                if may.contains(&s.name) {
                    continue;
                }
                let throws = s
                    .direct_callees
                    .iter()
                    .any(|c| may.contains(c) || !known.contains(c.as_str()));
                if throws {
                    may.insert(s.name.clone());
                    changed = true;
                }
            }
        }
        may
    }

    /// Whether `caller` may (transitively, per summaries) write global
    /// `global` — the symbol-level Mod query.
    pub fn may_write_global(&self, caller: &str, global: &str) -> bool {
        let idx: HashMap<&str, &FuncSummary> =
            self.funcs.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut seen = HashSet::new();
        let mut work = vec![caller.to_string()];
        while let Some(f) = work.pop() {
            if !seen.insert(f.clone()) {
                continue;
            }
            match idx.get(f.as_str()) {
                None => return true, // unknown external: assume the worst
                Some(s) => {
                    if s.is_declaration || s.has_indirect_calls {
                        return true;
                    }
                    if s.writes_globals.iter().any(|g| g == global) {
                        return true;
                    }
                    work.extend(s.direct_callees.iter().cloned());
                }
            }
        }
        false
    }

    // ---- serialization (attached to bytecode files) ----------------------

    /// Serialize to bytes (a simple length-prefixed layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        fn wv(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let b = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(b);
                    break;
                }
                out.push(b | 0x80);
            }
        }
        fn ws(out: &mut Vec<u8>, s: &str) {
            wv(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        fn wl(out: &mut Vec<u8>, l: &[String]) {
            wv(out, l.len() as u64);
            for s in l {
                ws(out, s);
            }
        }
        let mut out = Vec::new();
        wv(&mut out, self.funcs.len() as u64);
        for s in &self.funcs {
            ws(&mut out, &s.name);
            out.push(
                s.is_declaration as u8
                    | (s.may_unwind_local as u8) << 1
                    | (s.has_indirect_calls as u8) << 2,
            );
            wl(&mut out, &s.direct_callees);
            wl(&mut out, &s.reads_globals);
            wl(&mut out, &s.writes_globals);
        }
        out
    }

    /// Deserialize from [`ModuleSummaries::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn from_bytes(mut b: &[u8]) -> Result<ModuleSummaries, String> {
        fn rv(b: &mut &[u8]) -> Result<u64, String> {
            let mut v = 0u64;
            let mut shift = 0;
            loop {
                let (&x, rest) = b.split_first().ok_or("truncated summary")?;
                *b = rest;
                v |= ((x & 0x7F) as u64) << shift;
                if x & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift >= 64 {
                    return Err("overlong varint".into());
                }
            }
        }
        fn rs(b: &mut &[u8]) -> Result<String, String> {
            let n = rv(b)? as usize;
            if b.len() < n {
                return Err("truncated string".into());
            }
            let (s, rest) = b.split_at(n);
            *b = rest;
            String::from_utf8(s.to_vec()).map_err(|_| "bad utf8".into())
        }
        fn rl(b: &mut &[u8]) -> Result<Vec<String>, String> {
            let n = rv(b)? as usize;
            let mut out = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                out.push(rs(b)?);
            }
            Ok(out)
        }
        let b = &mut b;
        let n = rv(b)? as usize;
        let mut funcs = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = rs(b)?;
            let (&flags, rest) = b.split_first().ok_or("truncated flags")?;
            *b = rest;
            funcs.push(FuncSummary {
                name,
                is_declaration: flags & 1 != 0,
                may_unwind_local: flags & 2 != 0,
                has_indirect_calls: flags & 4 != 0,
                direct_callees: rl(b)?,
                reads_globals: rl(b)?,
                writes_globals: rl(b)?,
            });
        }
        Ok(ModuleSummaries { funcs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    const SRC: &str = "
@g = global int 0
declare void @external()
define internal void @thrower() {
e:
  unwind
}
define internal void @calls_thrower() {
e:
  call void @thrower()
  ret void
}
define internal int @pure(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal void @writer() {
e:
  store int 1, int* @g
  ret void
}
define int @main() {
e:
  call void @calls_thrower()
  call void @writer()
  %v = call int @pure(int 1)
  %g = load int* @g
  %s = add int %v, %g
  ret int %s
}";

    #[test]
    fn closure_matches_direct_analysis() {
        let m = parse_module("t", SRC).unwrap();
        let sums = compute_summaries(&m);
        let may = sums.may_unwind_closure();
        assert!(may.contains("thrower"));
        assert!(may.contains("calls_thrower"));
        assert!(may.contains("main"));
        assert!(may.contains("external"), "declarations assumed throwing");
        assert!(!may.contains("pure"));
        assert!(!may.contains("writer"));
    }

    #[test]
    fn mod_queries() {
        let m = parse_module("t", SRC).unwrap();
        let sums = compute_summaries(&m);
        assert!(sums.may_write_global("writer", "g"));
        assert!(sums.may_write_global("main", "g"), "transitive");
        assert!(!sums.may_write_global("pure", "g"));
        assert!(!sums.may_write_global("thrower", "g"));
    }

    #[test]
    fn serialization_roundtrip() {
        let m = parse_module("t", SRC).unwrap();
        let sums = compute_summaries(&m);
        let bytes = sums.to_bytes();
        let back = ModuleSummaries::from_bytes(&bytes).unwrap();
        assert_eq!(sums, back);
        assert!(ModuleSummaries::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn merge_prefers_definitions() {
        let a = parse_module(
            "a",
            "declare void @f()\ndefine void @g() {\ne:\n  call void @f()\n  ret void\n}",
        )
        .unwrap();
        let b = parse_module("b", "define void @f() {\ne:\n  ret void\n}").unwrap();
        let merged = ModuleSummaries::merge(vec![compute_summaries(&a), compute_summaries(&b)]);
        let f = merged.funcs.iter().find(|s| s.name == "f").unwrap();
        assert!(!f.is_declaration);
        // With the definition visible, nothing throws.
        assert!(merged.may_unwind_closure().is_empty());
    }
}
