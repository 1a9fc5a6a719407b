//! Functions: explicit CFGs of basic blocks holding SSA instructions.
//!
//! A function is a set of basic blocks; each basic block is a sequence of
//! instructions ending in exactly one terminator, and each terminator
//! explicitly names its successors (paper §2.1). Instructions live in a
//! per-function arena indexed by [`InstId`]; blocks hold ordered lists of
//! instruction ids. This id-based layout is the idiomatic Rust analogue of
//! LLVM's intrusive pointer-linked lists.

use std::cell::Cell;
use std::sync::Arc;

use crate::inst::{BlockId, Inst, InstId, Value};
use crate::types::TypeId;

/// Symbol linkage of a function or global variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Linkage {
    /// Visible to other modules; participates in link-time symbol
    /// resolution.
    #[default]
    External,
    /// Local to its module; renameable and eligible for aggressive
    /// interprocedural optimization (e.g. dead-global elimination after
    /// internalization).
    Internal,
}

/// A basic block: an ordered list of instructions, the last of which is a
/// terminator once the function is complete.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    insts: Vec<InstId>,
}

/// Per-instruction arena record: the instruction and its (cached) result
/// type. Instructions that produce no value have type `void`.
#[derive(Clone, Debug, PartialEq)]
pub struct InstData {
    /// The instruction.
    pub inst: Inst,
    /// Result type, fixed at creation.
    pub ty: TypeId,
}

/// What rollback points have cost this thread: function bodies duplicated
/// because a write reached a body that a pre-image still shared (see
/// [`body_copies`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BodyCopies {
    /// Bodies duplicated.
    pub funcs: u64,
    /// Linked instructions in them.
    pub insts: u64,
}

impl std::ops::Sub for BodyCopies {
    type Output = BodyCopies;
    fn sub(self, rhs: BodyCopies) -> BodyCopies {
        BodyCopies {
            funcs: self.funcs - rhs.funcs,
            insts: self.insts - rhs.insts,
        }
    }
}

impl std::ops::Add for BodyCopies {
    type Output = BodyCopies;
    fn add(self, rhs: BodyCopies) -> BodyCopies {
        BodyCopies {
            funcs: self.funcs + rhs.funcs,
            insts: self.insts + rhs.insts,
        }
    }
}

thread_local! {
    static BODY_COPIES: Cell<BodyCopies> = const { Cell::new(BodyCopies { funcs: 0, insts: 0 }) };
}

/// Running total of the bodies the calling thread has duplicated on
/// write. A clone of a [`Function`] shares its body; the first write to
/// either side afterwards pays one deep copy, counted here. The pass
/// managers report the difference across a pass as what its rollback
/// point cost.
pub fn body_copies() -> BodyCopies {
    BODY_COPIES.with(Cell::get)
}

/// The blocks and the instruction arena of a function: the part a clone
/// shares until one side writes.
#[derive(Clone, Debug, Default, PartialEq)]
struct Body {
    blocks: Vec<Block>,
    insts: Vec<InstData>,
}

/// A function definition or declaration.
///
/// A function with no basic blocks is a *declaration* (an external symbol to
/// be resolved at link time).
///
/// `clone` is cheap: the copy shares the body, and whichever side is
/// written first duplicates it then. A rollback point is therefore a clone,
/// and costs a body copy only for the functions a pass goes on to edit.
///
/// `==` is structural and includes the modification counter; the pass
/// managers use it in debug builds to check that an unchanged counter
/// means an unchanged function.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    name: String,
    /// The function type (a `Type::Func` id in the owning module's context).
    ty: TypeId,
    /// Pointer-to-function type, pre-interned so `value_type` needs no
    /// mutation.
    addr_ty: TypeId,
    linkage: Linkage,
    /// Parameter types (copied out of `ty` for cheap access).
    params: Vec<TypeId>,
    /// Return type (copied out of `ty`).
    ret: TypeId,
    /// Whether the function is variadic.
    varargs: bool,
    body: Arc<Body>,
    /// Modification counter: bumped by every mutating method, so analysis
    /// caches can detect staleness with one integer compare (see
    /// `lpat-analysis`'s `AnalysisManager`).
    version: u64,
}

impl Function {
    pub(crate) fn new(
        name: String,
        ty: TypeId,
        addr_ty: TypeId,
        params: Vec<TypeId>,
        ret: TypeId,
        varargs: bool,
        linkage: Linkage,
    ) -> Function {
        Function {
            name,
            ty,
            addr_ty,
            linkage,
            params,
            ret,
            varargs,
            body: Arc::default(),
            version: 0,
        }
    }

    /// The current modification counter.
    ///
    /// Every method that can change the function (blocks, instructions,
    /// uses, name, linkage) increments this; a cached analysis stamped
    /// with an older value is stale. The counter never decreases and is
    /// not serialized.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Exclusive access to the body, duplicating it first if a clone of
    /// this function still shares it.
    #[inline]
    fn body_mut(&mut self) -> &mut Body {
        // No `Weak` to a body is ever made, so a strong count of one means
        // `make_mut` will not copy.
        if Arc::strong_count(&self.body) != 1 {
            let copy = BodyCopies {
                funcs: 1,
                insts: self.num_insts() as u64,
            };
            BODY_COPIES.with(|c| c.set(c.get() + copy));
        }
        Arc::make_mut(&mut self.body)
    }

    /// [`Function::body_mut`] for a change the modification counter
    /// records.
    #[inline]
    fn edit(&mut self) -> &mut Body {
        self.version += 1;
        self.body_mut()
    }

    /// Symbol name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename; only [`crate::Module::rename_function`] may, because the
    /// module indexes its functions by name.
    pub(crate) fn set_name(&mut self, name: String) -> String {
        self.version += 1;
        std::mem::replace(&mut self.name, name)
    }

    /// Linkage.
    #[inline]
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Change the linkage. The body is not touched, so a clone keeps
    /// sharing it.
    pub fn set_linkage(&mut self, linkage: Linkage) {
        self.version += 1;
        self.linkage = linkage;
    }

    /// The function type id.
    #[inline]
    pub fn fn_type(&self) -> TypeId {
        self.ty
    }

    /// The pointer-to-function type id (the type of this function's
    /// address).
    #[inline]
    pub fn addr_type(&self) -> TypeId {
        self.addr_ty
    }

    /// Parameter types.
    #[inline]
    pub fn params(&self) -> &[TypeId] {
        &self.params
    }

    /// Number of formal parameters.
    #[inline]
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Return type.
    #[inline]
    pub fn ret_type(&self) -> TypeId {
        self.ret
    }

    /// Whether the function is variadic.
    #[inline]
    pub fn is_varargs(&self) -> bool {
        self.varargs
    }

    /// Whether this is a declaration (no body).
    #[inline]
    pub fn is_declaration(&self) -> bool {
        self.body.blocks.is_empty()
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics on declarations.
    #[inline]
    pub fn entry(&self) -> BlockId {
        assert!(
            !self.body.blocks.is_empty(),
            "declaration has no entry block"
        );
        BlockId(0)
    }

    /// Append a new, empty basic block. The first block created is the
    /// entry.
    pub fn add_block(&mut self) -> BlockId {
        let body = self.edit();
        let id = BlockId(body.blocks.len() as u32);
        body.blocks.push(Block::default());
        id
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.body.blocks.len()
    }

    /// Iterate over all block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.body.blocks.len() as u32).map(BlockId)
    }

    /// The ordered instruction list of block `b`.
    #[inline]
    pub fn block_insts(&self, b: BlockId) -> &[InstId] {
        &self.body.blocks[b.0 as usize].insts
    }

    /// Replace the instruction list of block `b` (used by transforms that
    /// rebuild block contents).
    pub fn set_block_insts(&mut self, b: BlockId, insts: Vec<InstId>) {
        self.edit().blocks[b.0 as usize].insts = insts;
    }

    /// The arena record of instruction `i`.
    #[inline]
    pub fn inst(&self, i: InstId) -> &Inst {
        &self.body.insts[i.0 as usize].inst
    }

    /// Mutable access to instruction `i`.
    #[inline]
    pub fn inst_mut(&mut self, i: InstId) -> &mut Inst {
        &mut self.edit().insts[i.0 as usize].inst
    }

    /// The cached result type of instruction `i` (`void` when it produces no
    /// value).
    #[inline]
    pub fn inst_ty(&self, i: InstId) -> TypeId {
        self.body.insts[i.0 as usize].ty
    }

    /// Overwrite the cached result type (used when a transform retypes an
    /// instruction, e.g. replacing a call with a cast).
    pub fn set_inst_ty(&mut self, i: InstId, ty: TypeId) {
        self.edit().insts[i.0 as usize].ty = ty;
    }

    /// Total number of arena slots (including instructions no longer linked
    /// into any block).
    #[inline]
    pub fn num_inst_slots(&self) -> usize {
        self.body.insts.len()
    }

    /// Create a new instruction in the arena without linking it into a
    /// block. Most callers want [`Function::append_inst`].
    pub fn new_inst(&mut self, inst: Inst, ty: TypeId) -> InstId {
        let body = self.edit();
        let id = InstId(body.insts.len() as u32);
        body.insts.push(InstData { inst, ty });
        id
    }

    /// Create an instruction and append it to block `b`.
    pub fn append_inst(&mut self, b: BlockId, inst: Inst, ty: TypeId) -> InstId {
        let body = self.edit();
        let id = InstId(body.insts.len() as u32);
        body.insts.push(InstData { inst, ty });
        body.blocks[b.0 as usize].insts.push(id);
        id
    }

    /// Link an existing arena instruction at `pos` within block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >` the block's current length.
    pub fn insert_inst(&mut self, b: BlockId, pos: usize, id: InstId) {
        self.edit().blocks[b.0 as usize].insts.insert(pos, id);
    }

    /// Apply a whole replacement map in one rewrite. `repl` is indexed by
    /// [`InstId`] (slots past its end are not replaced): every instruction
    /// `i` with `repl[i] = Some(v)` is unlinked, and every operand of a
    /// linked instruction that names one names its replacement instead. A
    /// replacement may itself be replaced; each entry is first resolved to
    /// its final value (see [`resolve_replaced`]) and is left so. The map
    /// must be acyclic. Returns the number of instructions unlinked; with
    /// no entry at all the body is not written.
    pub fn replace_insts(&mut self, repl: &mut [Option<Value>]) -> usize {
        if repl.iter().all(Option::is_none) {
            return 0;
        }
        for i in 0..repl.len() {
            if let Some(v) = repl[i] {
                repl[i] = Some(resolve_replaced(repl, v));
            }
        }
        let repl = &*repl;
        let replaced = |i: InstId| repl.get(i.0 as usize).is_some_and(Option::is_some);
        let Body { blocks, insts } = self.edit();
        let mut unlinked = 0;
        for block in blocks {
            let before = block.insts.len();
            block.insts.retain(|&i| !replaced(i));
            unlinked += before - block.insts.len();
            for i in &block.insts {
                insts[i.0 as usize].inst.map_operands(|v| match v {
                    Value::Inst(d) => repl.get(d.0 as usize).copied().flatten().unwrap_or(v),
                    v => v,
                });
            }
        }
        unlinked
    }

    /// Unlink every linked instruction `dead` holds, with no replacement:
    /// no instruction left linked may name one. Returns how many; when
    /// none is linked the body is not written.
    pub fn unlink_insts(&mut self, dead: impl Fn(InstId) -> bool) -> usize {
        if !self.inst_ids_in_order().any(&dead) {
            return 0;
        }
        let mut unlinked = 0;
        for block in &mut self.edit().blocks {
            let before = block.insts.len();
            block.insts.retain(|&i| !dead(i));
            unlinked += before - block.insts.len();
        }
        unlinked
    }

    /// The terminator of block `b`, if the block is non-empty and ends in
    /// one.
    pub fn terminator(&self, b: BlockId) -> Option<InstId> {
        let last = *self.body.blocks[b.0 as usize].insts.last()?;
        self.inst(last).is_terminator().then_some(last)
    }

    /// Successor blocks of `b` (empty when the block lacks a terminator).
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match self.terminator(b) {
            Some(t) => self.inst(t).successors(),
            None => Vec::new(),
        }
    }

    /// Compute predecessor lists for every block.
    ///
    /// Duplicate edges (e.g. a conditional branch with both targets equal)
    /// are preserved, matching φ-node incoming-list semantics.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.body.blocks.len()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                preds[s.0 as usize].push(b);
            }
        }
        preds
    }

    /// Iterate over every linked instruction id, in block layout order.
    pub fn inst_ids_in_order(&self) -> impl Iterator<Item = InstId> + '_ {
        self.body
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter().copied())
    }

    /// Number of linked instructions (excluding unlinked arena slots).
    pub fn num_insts(&self) -> usize {
        self.body.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Compute, for every linked instruction, the block containing it.
    pub fn inst_blocks(&self) -> Vec<Option<BlockId>> {
        let mut map = vec![None; self.body.insts.len()];
        for b in self.block_ids() {
            for &i in self.block_insts(b) {
                map[i.0 as usize] = Some(b);
            }
        }
        map
    }

    /// Replace every use of `from` with `to` across the whole function.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for data in &mut self.edit().insts {
            data.inst.map_operands(|v| if v == from { to } else { v });
        }
    }

    /// Renumber the linked instructions densely in block layout order, the
    /// numbering reading the function back from bytecode gives, and drop
    /// the unlinked arena slots. `forward` first rewrites each operand (in
    /// the old numbering), say to stand a removed instruction's
    /// replacement in for it; every instruction an operand names after
    /// that must be linked.
    ///
    /// # Panics
    ///
    /// Panics if an operand names an unlinked instruction.
    pub fn compact(&mut self, mut forward: impl FnMut(Value) -> Value) {
        let Body { blocks, insts } = self.edit();
        let mut new_id = vec![u32::MAX; insts.len()];
        let mut n = 0u32;
        for i in blocks.iter().flat_map(|b| &b.insts) {
            new_id[i.0 as usize] = n;
            n += 1;
        }
        let mut dense = Vec::with_capacity(n as usize);
        for i in blocks.iter_mut().flat_map(|b| &mut b.insts) {
            let data = &mut insts[i.0 as usize];
            let mut inst = std::mem::replace(&mut data.inst, Inst::Unreachable);
            inst.map_operands(|v| match forward(v) {
                Value::Inst(d) => {
                    let k = new_id[d.0 as usize];
                    assert!(k != u32::MAX, "an operand names unlinked %t{}", d.0);
                    Value::Inst(InstId(k))
                }
                v => v,
            });
            *i = InstId(dense.len() as u32);
            dense.push(InstData { inst, ty: data.ty });
        }
        *insts = dense;
    }

    /// Count uses of each instruction result among linked instructions,
    /// each operand read through the replacement map `repl` (see
    /// [`resolve_replaced`]; `&mut []` for none): a use of a replaced
    /// instruction counts for what replaces it.
    pub fn use_counts(&self, repl: &mut [Option<Value>]) -> Vec<u32> {
        let mut counts = vec![0u32; self.body.insts.len()];
        for i in self.inst_ids_in_order() {
            self.inst(i).for_each_operand(|v| {
                if let Value::Inst(d) = resolve_replaced(repl, v) {
                    counts[d.0 as usize] += 1;
                }
            });
        }
        counts
    }

    /// Drop all blocks and instructions, turning the function back into a
    /// declaration (used by dead-global elimination when only the address of
    /// a dead function is needed transiently).
    pub fn clear_body(&mut self) {
        self.version += 1;
        self.body = Arc::default();
    }

    /// Reorder blocks into `order` (a permutation of all block ids whose
    /// first element is the entry), rewriting successor references and φ
    /// incoming lists. Used by profile-guided code layout.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation or does not start with the
    /// entry block.
    pub fn permute_blocks(&mut self, order: &[BlockId]) {
        let body = self.edit();
        assert_eq!(order.len(), body.blocks.len());
        assert_eq!(order.first(), Some(&BlockId(0)), "entry must stay first");
        let mut remap = vec![None; order.len()];
        for (new_idx, &old) in order.iter().enumerate() {
            assert!(remap[old.0 as usize].is_none(), "duplicate block in order");
            remap[old.0 as usize] = Some(BlockId(new_idx as u32));
        }
        let old_blocks = std::mem::take(&mut body.blocks);
        let mut slots: Vec<Option<Block>> = old_blocks.into_iter().map(Some).collect();
        body.blocks = order
            .iter()
            .map(|&old| slots[old.0 as usize].take().expect("permutation"))
            .collect();
        for data in &mut body.insts {
            if let Inst::Phi { incoming } = &mut data.inst {
                for (_, b) in incoming {
                    if let Some(Some(nb)) = remap.get(b.0 as usize) {
                        *b = *nb;
                    }
                }
            } else {
                data.inst
                    .map_successors(|b| remap.get(b.0 as usize).copied().flatten().unwrap_or(b));
            }
        }
    }

    /// Remove blocks for which `keep[b] == false`, renumbering the rest and
    /// rewriting all successor references and φ incoming lists. Incoming
    /// φ edges from removed blocks are dropped.
    ///
    /// Returns the remap table (`None` = removed).
    ///
    /// # Panics
    ///
    /// Panics if the entry block is removed or `keep.len()` mismatches.
    pub fn retain_blocks(&mut self, keep: &[bool]) -> Vec<Option<BlockId>> {
        let body = self.edit();
        assert_eq!(keep.len(), body.blocks.len());
        assert!(keep[0], "cannot remove the entry block");
        let mut remap: Vec<Option<BlockId>> = Vec::with_capacity(keep.len());
        let mut next = 0u32;
        for &k in keep {
            if k {
                remap.push(Some(BlockId(next)));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let mut new_blocks = Vec::with_capacity(next as usize);
        for (i, b) in std::mem::take(&mut body.blocks).into_iter().enumerate() {
            if keep[i] {
                new_blocks.push(b);
            }
        }
        body.blocks = new_blocks;
        // Note: unlinked arena slots may hold stale block references from
        // earlier transforms; tolerate out-of-range ids (those
        // instructions are unreachable from the CFG).
        for data in &mut body.insts {
            if let Inst::Phi { incoming } = &mut data.inst {
                incoming.retain(|(_, b)| remap.get(b.0 as usize).is_none_or(|r| r.is_some()));
            }
            data.inst
                .map_successors(|b| remap.get(b.0 as usize).copied().flatten().unwrap_or(b));
        }
        remap
    }
}

/// The value `v` stands for under the replacement map `repl` (indexed by
/// [`InstId`], as [`Function::replace_insts`] takes it; slots past its end
/// are not replaced). A replacement may itself be replaced: the final
/// value is written back along the path walked, so a long run of
/// forwarding is walked once, not once per use. The map must be acyclic.
pub fn resolve_replaced(repl: &mut [Option<Value>], v: Value) -> Value {
    let step = |repl: &[Option<Value>], v: Value| match v {
        Value::Inst(i) => repl.get(i.0 as usize).copied().flatten().map(|r| (i, r)),
        _ => None,
    };
    let mut fin = v;
    while let Some((_, r)) = step(repl, fin) {
        fin = r;
    }
    let mut cur = v;
    while let Some((i, r)) = step(repl, cur) {
        repl[i.0 as usize] = Some(fin);
        cur = r;
    }
    fin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    fn sample() -> (Module, crate::constant::FuncId) {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let fid = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        (m, fid)
    }

    #[test]
    fn declaration_then_body() {
        let (mut m, fid) = sample();
        assert!(m.func(fid).is_declaration());
        let one = m.consts.i32(1);
        let f = m.func_mut(fid);
        let b = f.add_block();
        assert!(!f.is_declaration());
        assert_eq!(f.entry(), b);
        let i32t = TypeId(4); // not used for checking here
        let add = f.append_inst(
            b,
            Inst::Bin {
                op: crate::inst::BinOp::Add,
                lhs: Value::Arg(0),
                rhs: Value::Const(one),
            },
            i32t,
        );
        f.append_inst(b, Inst::Ret(Some(Value::Inst(add))), TypeId(0));
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.terminator(b), Some(InstId(1)));
        assert!(f.successors(b).is_empty());
    }

    #[test]
    fn predecessors_and_rau() {
        let (mut m, fid) = sample();
        let f = m.func_mut(fid);
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.append_inst(
            b0,
            Inst::CondBr {
                cond: Value::Arg(0),
                then_bb: b1,
                else_bb: b2,
            },
            TypeId(0),
        );
        f.append_inst(b1, Inst::Br(b2), TypeId(0));
        f.append_inst(b2, Inst::Ret(Some(Value::Arg(0))), TypeId(0));
        let preds = f.predecessors();
        assert_eq!(preds[b2.index()], vec![b0, b1]);
        f.replace_all_uses(Value::Arg(0), Value::Arg(1));
        match f.inst(InstId(2)) {
            Inst::Ret(Some(Value::Arg(1))) => {}
            other => panic!("RAUW failed: {other:?}"),
        }
    }

    #[test]
    fn a_clone_shares_the_body_until_one_side_writes() {
        let (mut m, fid) = sample();
        let f = m.func_mut(fid);
        let b = f.add_block();
        f.append_inst(b, Inst::Ret(Some(Value::Arg(0))), TypeId(0));
        let copies = body_copies();
        let pre = f.clone();
        assert_eq!(pre, *f);
        // A header edit moves the version and leaves the body shared.
        f.set_linkage(Linkage::Internal);
        assert!(f.version() > pre.version() && *f != pre);
        assert_eq!(body_copies(), copies);
        // The first write to the body pays for one copy; the next is free,
        // and the pre-image never sees either.
        f.add_block();
        let one = BodyCopies { funcs: 1, insts: 1 };
        assert_eq!(body_copies() - copies, one);
        f.append_inst(b, Inst::Unreachable, TypeId(0));
        assert_eq!(body_copies() - copies, one);
        assert_eq!((pre.num_blocks(), pre.num_insts()), (1, 1));
        assert_eq!((f.num_blocks(), f.num_insts()), (2, 2));
        // Dropping a body is not a write to it.
        let mut gone = pre.clone();
        gone.clear_body();
        assert!(gone.is_declaration() && !pre.is_declaration());
        assert_eq!(body_copies() - copies, one);
    }
}

#[cfg(test)]
mod block_surgery_tests {
    use crate::inst::{BinOp, Inst, Value};
    use crate::module::Module;

    fn diamond() -> (Module, crate::constant::FuncId) {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let bt = m.types.bool_();
        let f = m.add_function(
            "f",
            &[bt, i32t],
            i32t,
            false,
            crate::function::Linkage::External,
        );
        let mut b = m.builder(f);
        let e = b.block();
        let l = b.new_block();
        let r = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::Arg(0), l, r);
        b.switch_to(l);
        let one = b.iconst32(1);
        let x = b.add(Value::Arg(1), one);
        b.br(j);
        b.switch_to(r);
        let two = b.iconst32(2);
        let y = b.mul(Value::Arg(1), two);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(i32t, vec![(x, l), (y, r)]);
        b.ret(Some(p));
        let _ = e;
        (m, f)
    }

    #[test]
    fn permute_blocks_preserves_semantics_metadata() {
        let (mut m, f) = diamond();
        m.verify().unwrap();
        let before = m.display();
        // Reverse everything but the entry.
        let order: Vec<crate::inst::BlockId> = [0usize, 3, 2, 1]
            .iter()
            .map(|&i| crate::inst::BlockId::from_index(i))
            .collect();
        m.func_mut(f).permute_blocks(&order);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        // Round-trip to the identity permutation restores the text.
        m.func_mut(f).permute_blocks(&order);
        m.verify().unwrap();
        assert_eq!(before, m.display());
    }

    #[test]
    #[should_panic(expected = "entry must stay first")]
    fn permute_blocks_rejects_moving_entry() {
        let (mut m, f) = diamond();
        let order: Vec<crate::inst::BlockId> = [1usize, 0, 2, 3]
            .iter()
            .map(|&i| crate::inst::BlockId::from_index(i))
            .collect();
        m.func_mut(f).permute_blocks(&order);
    }

    #[test]
    fn retain_blocks_drops_phi_edges() {
        let (mut m, f) = diamond();
        // Make the r-arm unreachable by rewriting the entry branch, then
        // drop it.
        let fm = m.func_mut(f);
        let entry_term = fm.terminator(crate::inst::BlockId::from_index(0)).unwrap();
        *fm.inst_mut(entry_term) = Inst::Br(crate::inst::BlockId::from_index(1));
        fm.retain_blocks(&[true, true, false, true]);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let text = m.display();
        assert!(!text.contains("mul"), "{text}");
        assert_eq!(text.matches("phi").count(), 1);
        assert_eq!(
            text.matches("[").count(),
            1,
            "one incoming edge left: {text}"
        );
    }

    #[test]
    fn compact_numbers_in_layout_order_and_forwards() {
        use crate::inst::InstId;
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let f = m.add_function(
            "f",
            &[i32t],
            i32t,
            false,
            crate::function::Linkage::External,
        );
        let mut b = m.builder(f);
        b.block();
        let one = b.iconst32(1);
        let a = b.add(Value::Arg(0), one);
        let c = b.bin(BinOp::Mul, a, a);
        b.ret(Some(c));
        let fm = m.func_mut(f);
        // An instruction made after the others and linked at the head, and
        // a dead one left unlinked, as a front end placing a φ leaves them.
        let head = fm.new_inst(
            Inst::Bin {
                op: BinOp::Sub,
                lhs: Value::Arg(0),
                rhs: one,
            },
            i32t,
        );
        fm.new_inst(Inst::Unreachable, i32t);
        let entry = crate::inst::BlockId::from_index(0);
        let mut insts = vec![head];
        insts.extend_from_slice(fm.block_insts(entry));
        fm.set_block_insts(entry, insts);
        // Stand the new `sub` in for the `add`.
        fm.compact(|v| if v == a { Value::Inst(head) } else { v });
        assert_eq!(fm.num_inst_slots(), 4, "the unlinked slot is dropped");
        let ids: Vec<usize> = fm.block_insts(entry).iter().map(|i| i.index()).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        let first = Value::Inst(InstId::from_index(0));
        assert!(
            matches!(fm.inst(InstId::from_index(2)), Inst::Bin { op: BinOp::Mul, lhs, rhs } if *lhs == first && *rhs == first)
        );
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
    }

    #[test]
    fn replace_insts_resolves_chains_and_unlinks_in_one_rewrite() {
        use crate::inst::InstId;
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let f = m.add_function(
            "f",
            &[i32t],
            i32t,
            false,
            crate::function::Linkage::External,
        );
        let mut b = m.builder(f);
        b.block();
        let one = b.iconst32(1);
        let a = b.add(Value::Arg(0), one);
        let c = b.bin(BinOp::Mul, a, a);
        let zero = b.iconst32(0);
        let d = b.add(c, zero);
        b.ret(Some(d));
        let fm = m.func_mut(f);
        // `d` stands for `c`, which stands for `a`.
        let mut repl = vec![None; fm.num_inst_slots()];
        let id = |v: Value| match v {
            Value::Inst(i) => i.index(),
            _ => unreachable!(),
        };
        repl[id(d)] = Some(c);
        repl[id(c)] = Some(a);
        assert_eq!(fm.replace_insts(&mut repl), 2);
        assert_eq!(repl[id(d)], Some(a), "left resolved");
        assert_eq!(fm.num_insts(), 2);
        assert!(matches!(fm.inst(InstId::from_index(3)), Inst::Ret(Some(v)) if *v == a));
        // Nothing to do writes nothing.
        let version = fm.version();
        assert_eq!(fm.replace_insts(&mut [None, None]), 0);
        assert_eq!(fm.unlink_insts(|_| false), 0);
        assert_eq!(fm.version(), version);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
    }

    #[test]
    fn use_counts_and_rau_interact() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let f = m.add_function(
            "f",
            &[i32t],
            i32t,
            false,
            crate::function::Linkage::External,
        );
        let mut b = m.builder(f);
        b.block();
        let one = b.iconst32(1);
        let a = b.add(Value::Arg(0), one);
        let c = b.bin(BinOp::Mul, a, a);
        b.ret(Some(c));
        let fm = m.func_mut(f);
        let counts = fm.use_counts(&mut []);
        let aid = match a {
            Value::Inst(i) => i,
            _ => unreachable!(),
        };
        assert_eq!(counts[aid.index()], 2);
        fm.replace_all_uses(a, Value::Arg(0));
        let counts = fm.use_counts(&mut []);
        assert_eq!(counts[aid.index()], 0);
    }
}
