//! A convenience builder for constructing functions instruction by
//! instruction.
//!
//! The builder owns a mutable borrow of the [`Module`] and a current
//! insertion block; every `emit` computes and caches the instruction's
//! result type via [`Module::infer_inst_type`], so malformed IR is caught at
//! construction time rather than at verification.

use crate::constant::{ConstId, FuncId, GlobalId};
use crate::inst::{BinOp, BlockId, CmpPred, Inst, InstId, Value};
use crate::module::Module;
use crate::types::{IntKind, TypeId};

/// Builder positioned inside one function of a module.
///
/// Create with [`Module::builder`]. Blocks are created with
/// [`FuncBuilder::block`]; the builder auto-positions at the most recently
/// created block, and [`FuncBuilder::switch_to`] repositions it.
///
/// # Examples
///
/// ```
/// use lpat_core::{Module, Linkage, inst::Value};
///
/// let mut m = Module::new("demo");
/// let i32t = m.types.i32();
/// let f = m.add_function("inc", &[i32t], i32t, false, Linkage::External);
/// let mut b = m.builder(f);
/// b.block();
/// let one = b.iconst32(1);
/// let sum = b.add(Value::Arg(0), one);
/// b.ret(Some(sum));
/// ```
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: FuncId,
    cur: Option<BlockId>,
}

impl Module {
    /// Start building into function `func`.
    pub fn builder(&mut self, func: FuncId) -> FuncBuilder<'_> {
        let cur = if self.func(func).is_declaration() {
            None
        } else {
            Some(BlockId::from_index(self.func(func).num_blocks() - 1))
        };
        FuncBuilder {
            module: self,
            func,
            cur,
        }
    }
}

impl<'m> FuncBuilder<'m> {
    /// The underlying module.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// Create a new block and position the builder at its end.
    pub fn block(&mut self) -> BlockId {
        let b = self.module.func_mut(self.func).add_block();
        self.cur = Some(b);
        b
    }

    /// Create a new block *without* repositioning.
    pub fn new_block(&mut self) -> BlockId {
        self.module.func_mut(self.func).add_block()
    }

    /// Reposition at the end of `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been created yet.
    pub fn current(&self) -> BlockId {
        self.cur.expect("builder has no current block")
    }

    /// Emit `inst` at the end of the current block, inferring its type.
    ///
    /// # Panics
    ///
    /// Panics when type inference fails — the instruction is malformed for
    /// its operands (this is the construction-time analogue of a verifier
    /// error).
    pub fn emit(&mut self, inst: Inst) -> InstId {
        let m = &*self.module;
        let f = m.func(self.func);
        let ty = m
            .infer_inst_type(&inst, |v| Some(m.value_type(f, v)))
            .unwrap_or_else(|e| panic!("cannot emit {}: {e}", inst.opcode_name()))
            .intern(&mut self.module.types);
        self.emit_typed(inst, ty)
    }

    /// Emit an instruction with an explicitly declared type (required for
    /// `phi`, allowed everywhere).
    pub fn emit_typed(&mut self, inst: Inst, ty: TypeId) -> InstId {
        let b = self.current();
        self.module.func_mut(self.func).append_inst(b, inst, ty)
    }

    // ---- constants ------------------------------------------------------

    /// Intern a typed integer constant as a [`Value`].
    pub fn iconst(&mut self, kind: IntKind, v: i64) -> Value {
        Value::Const(self.module.consts.int(kind, v))
    }

    /// Intern an `int` (signed 32-bit) constant.
    pub fn iconst32(&mut self, v: i32) -> Value {
        self.iconst(IntKind::S32, v as i64)
    }

    /// Intern a `long` (signed 64-bit) constant.
    pub fn iconst64(&mut self, v: i64) -> Value {
        self.iconst(IntKind::S64, v)
    }

    /// Intern a `uint` constant.
    pub fn uconst32(&mut self, v: u32) -> Value {
        self.iconst(IntKind::U32, v as i64)
    }

    /// Intern a `ubyte` constant (struct field index type).
    pub fn uconst8(&mut self, v: u8) -> Value {
        self.iconst(IntKind::U8, v as i64)
    }

    /// Intern a `bool` constant.
    pub fn bconst(&mut self, v: bool) -> Value {
        Value::Const(self.module.consts.bool_(v))
    }

    /// Intern a `float` constant.
    pub fn fconst32(&mut self, v: f32) -> Value {
        Value::Const(self.module.consts.f32(v))
    }

    /// Intern a `double` constant.
    pub fn fconst64(&mut self, v: f64) -> Value {
        Value::Const(self.module.consts.f64(v))
    }

    /// The null pointer of `pointee*`.
    pub fn null_ptr(&mut self, pointee: TypeId) -> Value {
        let pt = self.module.types.ptr(pointee);
        Value::Const(self.module.consts.null(pt))
    }

    /// The address of global `g`.
    pub fn global_addr(&mut self, g: GlobalId) -> Value {
        Value::Const(self.module.consts.global_addr(g))
    }

    /// The address of function `f`.
    pub fn func_addr(&mut self, f: FuncId) -> Value {
        Value::Const(self.module.consts.func_addr(f))
    }

    /// An arbitrary pool constant as a value.
    pub fn const_value(&self, c: ConstId) -> Value {
        Value::Const(c)
    }

    // ---- arithmetic -----------------------------------------------------

    /// Emit a binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        Value::Inst(self.emit(Inst::Bin { op, lhs, rhs }))
    }

    /// Emit `add`.
    pub fn add(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Add, l, r)
    }
    /// Emit `sub`.
    pub fn sub(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Sub, l, r)
    }
    /// Emit `mul`.
    pub fn mul(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Mul, l, r)
    }
    /// Emit `div`.
    pub fn div(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Div, l, r)
    }
    /// Emit `rem`.
    pub fn rem(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Rem, l, r)
    }
    /// Emit `and`.
    pub fn and(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::And, l, r)
    }
    /// Emit `or`.
    pub fn or(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Or, l, r)
    }
    /// Emit `xor`.
    pub fn xor(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Xor, l, r)
    }
    /// Emit `shl`.
    pub fn shl(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Shl, l, r)
    }
    /// Emit `shr`.
    pub fn shr(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOp::Shr, l, r)
    }

    /// Emit a comparison producing `bool`.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        Value::Inst(self.emit(Inst::Cmp { pred, lhs, rhs }))
    }

    /// Emit a `cast` to `to`.
    pub fn cast(&mut self, val: Value, to: TypeId) -> Value {
        Value::Inst(self.emit(Inst::Cast { val, to }))
    }

    // ---- memory ---------------------------------------------------------

    /// Emit `alloca` of one `elem_ty`.
    pub fn alloca(&mut self, elem_ty: TypeId) -> Value {
        Value::Inst(self.emit(Inst::Alloca {
            elem_ty,
            count: None,
        }))
    }

    /// Emit `malloc` of one `elem_ty`.
    pub fn malloc(&mut self, elem_ty: TypeId) -> Value {
        Value::Inst(self.emit(Inst::Malloc {
            elem_ty,
            count: None,
        }))
    }

    /// Emit `malloc` of `count` elements.
    pub fn malloc_n(&mut self, elem_ty: TypeId, count: Value) -> Value {
        Value::Inst(self.emit(Inst::Malloc {
            elem_ty,
            count: Some(count),
        }))
    }

    /// Emit `free`.
    pub fn free(&mut self, ptr: Value) {
        self.emit(Inst::Free(ptr));
    }

    /// Emit `load` through `ptr`.
    pub fn load(&mut self, ptr: Value) -> Value {
        Value::Inst(self.emit(Inst::Load { ptr }))
    }

    /// Emit `store` of `val` through `ptr`.
    pub fn store(&mut self, val: Value, ptr: Value) {
        self.emit(Inst::Store { val, ptr });
    }

    /// Emit `getelementptr`.
    pub fn gep(&mut self, ptr: Value, indices: Vec<Value>) -> Value {
        Value::Inst(self.emit(Inst::Gep { ptr, indices }))
    }

    /// Emit the common two-index struct-field GEP `&ptr[0].field`.
    pub fn gep_field(&mut self, ptr: Value, field: u8) -> Value {
        let zero = self.iconst64(0);
        let idx = self.uconst8(field);
        self.gep(ptr, vec![zero, idx])
    }

    /// Emit the common array-element GEP `&ptr[index]` (pointer as array).
    pub fn gep_index(&mut self, ptr: Value, index: Value) -> Value {
        self.gep(ptr, vec![index])
    }

    // ---- calls & control flow --------------------------------------------

    /// Emit a direct `call` to function `callee`.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>) -> Value {
        let c = self.func_addr(callee);
        self.call_ptr(c, args)
    }

    /// Emit an indirect `call` through a function-pointer value.
    pub fn call_ptr(&mut self, callee: Value, args: Vec<Value>) -> Value {
        Value::Inst(self.emit(Inst::Call { callee, args }))
    }

    /// Emit a direct `invoke` with normal and unwind successors.
    pub fn invoke(
        &mut self,
        callee: FuncId,
        args: Vec<Value>,
        normal: BlockId,
        unwind: BlockId,
    ) -> Value {
        let c = self.func_addr(callee);
        Value::Inst(self.emit(Inst::Invoke {
            callee: c,
            args,
            normal,
            unwind,
        }))
    }

    /// Emit `ret`.
    pub fn ret(&mut self, v: Option<Value>) {
        self.emit(Inst::Ret(v));
    }

    /// Emit an unconditional branch.
    pub fn br(&mut self, b: BlockId) {
        self.emit(Inst::Br(b));
    }

    /// Emit a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.emit(Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Emit a `switch`.
    pub fn switch(&mut self, val: Value, default: BlockId, cases: Vec<(ConstId, BlockId)>) {
        self.emit(Inst::Switch {
            val,
            default,
            cases,
        });
    }

    /// Emit `unwind` (throw).
    pub fn unwind(&mut self) {
        self.emit(Inst::Unwind);
    }

    /// Emit `unreachable`.
    pub fn unreachable(&mut self) {
        self.emit(Inst::Unreachable);
    }

    /// Emit a `phi` with declared type `ty`.
    pub fn phi(&mut self, ty: TypeId, incoming: Vec<(Value, BlockId)>) -> Value {
        Value::Inst(self.emit_typed(Inst::Phi { incoming }, ty))
    }

    /// Emit `vaarg` fetching the next variadic argument at type `ty`.
    pub fn vaarg(&mut self, ty: TypeId) -> Value {
        Value::Inst(self.emit_typed(Inst::VaArg { ty }, ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Linkage;
    use crate::inst::CmpPred;

    #[test]
    fn builds_a_loop() {
        // int sum(int n) { s = 0; for (i = 0; i < n; i++) s += i; return s; }
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f = m.add_function("sum", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        let entry = b.block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.switch_to(entry);
        let zero = b.iconst32(0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(i32t, vec![(zero, entry)]);
        let s = b.phi(i32t, vec![(zero, entry)]);
        let c = b.cmp(CmpPred::Lt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let s2 = b.add(s, i);
        let one = b.iconst32(1);
        let i2 = b.add(i, one);
        b.br(header);
        // patch the phis with the back edge
        let (iid, sid) = match (i, s) {
            (Value::Inst(a), Value::Inst(b)) => (a, b),
            _ => unreachable!(),
        };
        let fm = m.func_mut(f);
        if let Inst::Phi { incoming } = fm.inst_mut(iid) {
            incoming.push((i2, body));
        }
        if let Inst::Phi { incoming } = fm.inst_mut(sid) {
            incoming.push((s2, body));
        }
        let mut b = m.builder(f);
        b.switch_to(exit);
        b.ret(Some(s));
        assert_eq!(m.func(f).num_blocks(), 4);
        assert!(m.func(f).num_insts() >= 8);
    }

    #[test]
    #[should_panic(expected = "cannot emit load")]
    fn emit_rejects_ill_typed() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        b.block();
        b.load(Value::Arg(0)); // loading through an int: type error
    }

    #[test]
    fn gep_helpers() {
        let mut m = Module::new("m");
        let s = m.types.struct_lit(vec![m.types.i32(), m.types.f64()]);
        let ps = m.types.ptr(s);
        let v = m.types.void();
        let f = m.add_function("f", &[ps], v, false, Linkage::External);
        let mut b = m.builder(f);
        b.block();
        let p = b.gep_field(Value::Arg(0), 1);
        b.ret(None);
        let fr = m.func(f);
        let pt = m.value_type(fr, p);
        assert_eq!(m.types.pointee(pt), Some(m.types.f64()));
    }
}
