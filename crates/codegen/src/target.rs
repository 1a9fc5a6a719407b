//! The target abstraction and the module compiler driver.

use lpat_core::{Inst, Module};

use crate::lower::{lower_function, RegBudget};
use crate::mir::MInst;

/// A code-generation target: supplies the register budget used during
/// lowering and the encoded size of each machine instruction.
pub trait Target {
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Short label for tables (`x86`, `sparc`).
    fn short_name(&self) -> &'static str;
    /// Allocatable registers.
    fn reg_budget(&self) -> RegBudget;
    /// Encoded size of `i` in bytes. `next` enables compare/branch fusion;
    /// returning `true` in the second slot consumes `next`.
    fn size_inst(&self, i: &MInst, next: Option<&MInst>) -> (usize, bool);
    /// Data-section bytes for a jump table with `cases` entries.
    fn jump_table_data(&self, cases: usize) -> usize;
}

/// Per-function compilation result.
#[derive(Clone, Debug)]
pub struct FuncCode {
    /// Function name.
    pub name: String,
    /// Encoded code bytes.
    pub code_size: usize,
    /// Machine instructions emitted.
    pub insts: usize,
}

/// A "linked executable" produced for one target: sizes of all sections.
#[derive(Clone, Debug)]
pub struct Binary {
    /// Target short name.
    pub target: &'static str,
    /// Per-function code.
    pub funcs: Vec<FuncCode>,
    /// Total code bytes.
    pub code_size: usize,
    /// Data section (globals + jump tables + EH tables).
    pub data_size: usize,
    /// Header + symbol/relocation overhead.
    pub overhead: usize,
    /// Grand total.
    pub total: usize,
}

/// Fixed executable-header size (ELF-header-plus-program-headers scale).
const HEADER: usize = 84;
/// Per-external-symbol table cost.
const SYM_COST: usize = 18;

/// Compile (size) a whole module for `target`.
pub fn compile_module(m: &Module, target: &dyn Target) -> Binary {
    let budget = target.reg_budget();
    let mut funcs = Vec::new();
    let mut code_size = 0usize;
    let mut table_data = 0usize;
    let mut invokes = 0usize;
    for (fid, f) in m.funcs() {
        if f.is_declaration() {
            continue;
        }
        let mf = lower_function(m, fid, budget);
        let mut size = 0usize;
        let mut insts = 0usize;
        for block in &mf.blocks {
            let mut k = 0;
            while k < block.len() {
                let next = block.get(k + 1);
                let (bytes, fused) = target.size_inst(&block[k], next);
                size += bytes;
                insts += 1;
                k += if fused { 2 } else { 1 };
            }
        }
        // Jump tables & EH entries.
        for iid in f.inst_ids_in_order() {
            match f.inst(iid) {
                Inst::Switch { cases, .. } => table_data += target.jump_table_data(cases.len()),
                Inst::Invoke { .. } => invokes += 1,
                _ => {}
            }
        }
        code_size += size;
        funcs.push(FuncCode {
            name: mf.name,
            code_size: size,
            insts,
        });
    }
    // Data section: globals at their layout sizes.
    let mut data_size = 0usize;
    for (_, g) in m.globals() {
        if !g.is_declaration() {
            data_size += m.types.size_of(g.value_ty) as usize;
        }
    }
    data_size += table_data + invokes * 8; // landing-pad table entries
                                           // Symbols: externally visible definitions and all declarations.
    let n_syms = m
        .funcs()
        .filter(|(_, f)| matches!(f.linkage(), lpat_core::Linkage::External))
        .count()
        + m.globals()
            .filter(|(_, g)| matches!(g.linkage, lpat_core::Linkage::External))
            .count();
    let overhead = HEADER + n_syms * SYM_COST;
    Binary {
        target: target.short_name(),
        code_size,
        data_size,
        overhead,
        total: code_size + data_size + overhead,
        funcs,
    }
}
