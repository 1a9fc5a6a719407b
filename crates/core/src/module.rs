//! Modules: translation units of the representation.
//!
//! A module owns the type context, the constant pool, global variables, and
//! functions. Global variable and function definitions define a *symbol
//! providing the address* of the object, not the object itself (paper §2.3):
//! the value of `@G` in operand position is a pointer constant.

use std::collections::HashMap;

use crate::constant::{Const, ConstId, ConstPool, FuncId, GlobalId};
use crate::function::{Function, Linkage};
use crate::inst::{Inst, Value};
use crate::types::{GepError, TypeCtx, TypeId};

/// A global variable definition or declaration.
#[derive(Clone, Debug)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Type of the value stored in the global (not the pointer).
    pub value_ty: TypeId,
    /// Pointer-to-`value_ty`, pre-interned (the type of `@name`).
    pub addr_ty: TypeId,
    /// Initializer; `None` makes this an external declaration.
    pub init: Option<ConstId>,
    /// Whether the memory is immutable (`constant` vs `global`).
    pub is_const: bool,
    /// Linkage.
    pub linkage: Linkage,
}

/// Pre-resolved address types of a module's functions and globals, indexed
/// by raw id (see [`Module::addr_type_table`]).
#[derive(Clone, Debug)]
pub struct AddrTypeTable {
    /// `func_addr_tys[f.index()]` is the type of `FuncAddr(f)`.
    pub func_addr_tys: Vec<TypeId>,
    /// `global_addr_tys[g.index()]` is the type of `GlobalAddr(g)`.
    pub global_addr_tys: Vec<TypeId>,
}

impl AddrTypeTable {
    /// The type of constant `c`, like [`Module::const_type`] but against
    /// the snapshot instead of the module.
    pub fn const_type(&self, types: &TypeCtx, consts: &ConstPool, c: ConstId) -> TypeId {
        match consts.get(c) {
            Const::GlobalAddr(g) => self.global_addr_tys[g.index()],
            Const::FuncAddr(f) => self.func_addr_tys[f.index()],
            _ => consts.type_of(types, c),
        }
    }

    /// The type of operand `v` inside `f`, like [`Module::value_type`] but
    /// against the snapshot.
    pub fn value_type(
        &self,
        types: &TypeCtx,
        consts: &ConstPool,
        f: &Function,
        v: Value,
    ) -> TypeId {
        match v {
            Value::Inst(i) => f.inst_ty(i),
            Value::Arg(n) => f.params()[n as usize],
            Value::Const(c) => self.const_type(types, consts, c),
        }
    }
}

/// What [`Module::infer_inst_type`] derives: a type that exists already,
/// or a pointer to one. Kept apart so that a `&Module` caller can compare
/// a cached type against the rule without interning anything.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResultType {
    /// Exactly this type.
    Exactly(TypeId),
    /// A pointer to this type.
    PointerTo(TypeId),
}

impl ResultType {
    /// The type itself, interning the pointer when there is one.
    pub fn intern(self, types: &mut TypeCtx) -> TypeId {
        match self {
            ResultType::Exactly(t) => t,
            ResultType::PointerTo(t) => types.ptr(t),
        }
    }

    /// Whether `ty` is this type.
    pub fn is(self, types: &TypeCtx, ty: TypeId) -> bool {
        match self {
            ResultType::Exactly(t) => ty == t,
            ResultType::PointerTo(t) => types.pointee(ty) == Some(t),
        }
    }
}

/// Why [`Module::infer_inst_type`] derives no type for an instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// This operand, which the rule needs, has no type yet.
    Untyped(Value),
    /// A `load` or call through something that is not a pointer.
    NotPointer,
    /// A call through a pointer to something that is not a function.
    NotFunction,
    /// A `getelementptr` whose indices do not fit its base type.
    Gep(GepError),
    /// A `phi`: its type is declared, not derived.
    Declared,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::Untyped(_) => f.write_str("operand type is not known"),
            TypeError::NotPointer => f.write_str("operand is not a pointer"),
            TypeError::NotFunction => f.write_str("callee is not a pointer to a function"),
            TypeError::Gep(e) => e.fmt(f),
            TypeError::Declared => f.write_str("type must be declared"),
        }
    }
}

impl Global {
    /// Whether this is a declaration (no initializer).
    pub fn is_declaration(&self) -> bool {
        self.init.is_none()
    }
}

/// A translation unit: types, constants, globals, and functions.
///
/// # Examples
///
/// ```
/// use lpat_core::{Module, Linkage, inst::Value};
///
/// let mut m = Module::new("demo");
/// let i32t = m.types.i32();
/// let f = m.add_function("double_it", &[i32t], i32t, false, Linkage::External);
/// let mut b = m.builder(f);
/// let entry = b.block();
/// let two = b.iconst32(2);
/// let x = b.mul(Value::Arg(0), two);
/// b.ret(Some(x));
/// assert!(m.verify().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Module {
    /// Module identifier (usually the source file name).
    pub name: String,
    /// The type context.
    pub types: TypeCtx,
    /// The constant pool.
    pub consts: ConstPool,
    globals: Vec<Global>,
    funcs: Vec<Function>,
    global_names: HashMap<String, GlobalId>,
    func_names: HashMap<String, FuncId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: &str) -> Module {
        Module {
            name: name.to_string(),
            types: TypeCtx::new(),
            consts: ConstPool::new(),
            globals: Vec::new(),
            funcs: Vec::new(),
            global_names: HashMap::new(),
            func_names: HashMap::new(),
        }
    }

    // ---- globals ---------------------------------------------------------

    /// Add a global variable. `init == None` declares an external global.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken by another global.
    pub fn add_global(
        &mut self,
        name: &str,
        value_ty: TypeId,
        init: Option<ConstId>,
        is_const: bool,
        linkage: Linkage,
    ) -> GlobalId {
        assert!(
            !self.global_names.contains_key(name),
            "duplicate global {name}"
        );
        let addr_ty = self.types.ptr(value_ty);
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.to_string(),
            value_ty,
            addr_ty,
            init,
            is_const,
            linkage,
        });
        self.global_names.insert(name.to_string(), id);
        id
    }

    /// Look up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_names.get(name).copied()
    }

    /// The global record for `id`.
    #[inline]
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Mutable global record.
    #[inline]
    pub fn global_mut(&mut self, id: GlobalId) -> &mut Global {
        &mut self.globals[id.0 as usize]
    }

    /// Iterate over `(GlobalId, &Global)`.
    pub fn globals(&self) -> impl Iterator<Item = (GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// Number of globals.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// Remove globals not satisfying `keep`, remapping all references.
    ///
    /// Returns the number of globals removed. Used by dead-global
    /// elimination.
    pub fn retain_globals(&mut self, keep: impl Fn(GlobalId) -> bool) -> usize {
        let mut remap: Vec<Option<GlobalId>> = Vec::with_capacity(self.globals.len());
        let mut kept = Vec::new();
        for (i, g) in self.globals.drain(..).enumerate() {
            if keep(GlobalId(i as u32)) {
                remap.push(Some(GlobalId(kept.len() as u32)));
                kept.push(g);
            } else {
                remap.push(None);
            }
        }
        let removed = remap.iter().filter(|r| r.is_none()).count();
        self.globals = kept;
        self.index_names();
        if removed > 0 {
            self.remap_const_refs(
                &remap,
                &(0..self.funcs.len())
                    .map(|i| Some(FuncId(i as u32)))
                    .collect::<Vec<_>>(),
            );
        }
        removed
    }

    /// Remove functions not satisfying `keep`, remapping all references.
    ///
    /// Returns the number removed.
    pub fn retain_functions(&mut self, keep: impl Fn(FuncId) -> bool) -> usize {
        let mut remap: Vec<Option<FuncId>> = Vec::with_capacity(self.funcs.len());
        let mut kept = Vec::new();
        for (i, f) in self.funcs.drain(..).enumerate() {
            if keep(FuncId(i as u32)) {
                remap.push(Some(FuncId(kept.len() as u32)));
                kept.push(f);
            } else {
                remap.push(None);
            }
        }
        let removed = remap.iter().filter(|r| r.is_none()).count();
        self.funcs = kept;
        self.index_names();
        if removed > 0 {
            let gremap: Vec<Option<GlobalId>> = (0..self.globals.len())
                .map(|i| Some(GlobalId(i as u32)))
                .collect();
            self.remap_const_refs(&gremap, &remap);
        }
        removed
    }

    /// Rewrite `GlobalAddr`/`FuncAddr` constants through the given remaps.
    ///
    /// Constants referencing removed symbols are replaced by `Undef` of
    /// their address type — the caller guarantees no live code still uses
    /// them.
    fn remap_const_refs(&mut self, gmap: &[Option<GlobalId>], fmap: &[Option<FuncId>]) {
        // The pool interns by structure, so rewrite by rebuilding: walk all
        // constants, compute replacements, then patch instruction operands
        // and initializers via a ConstId -> ConstId table.
        let ids = |n: usize| (0..n).map(ConstId::from_index);
        let mut cmap: Vec<ConstId> = ids(self.consts.len()).collect();
        for id in ids(cmap.len()) {
            let to = match *self.consts.get(id) {
                Const::GlobalAddr(g) => match gmap.get(g.index()).copied().flatten() {
                    Some(ng) if ng == g => continue,
                    Some(ng) => Some(self.consts.global_addr(ng)),
                    None => None,
                },
                Const::FuncAddr(f) => match fmap.get(f.index()).copied().flatten() {
                    Some(nf) if nf == f => continue,
                    Some(nf) => Some(self.consts.func_addr(nf)),
                    None => None,
                },
                _ => continue,
            };
            // A symbol that is gone: nothing live names it any more.
            cmap[id.index()] = to.unwrap_or_else(|| {
                let ty = self.types.ptr(self.types.i8());
                self.consts.undef(ty)
            });
        }
        // Aggregates containing remapped ids must be rewritten too (an
        // aggregate only names constants interned before it).
        cmap.extend(ids(self.consts.len()).skip(cmap.len()));
        for id in ids(cmap.len()) {
            let (ty, elems, is_array) = match self.consts.get(id) {
                Const::Array { ty, elems } => (*ty, elems, true),
                Const::Struct { ty, fields } => (*ty, fields, false),
                _ => continue,
            };
            if elems.iter().all(|e| cmap[e.index()] == *e) {
                continue;
            }
            let elems = elems.iter().map(|e| cmap[e.index()]).collect();
            cmap[id.index()] = if is_array {
                self.consts.array(ty, elems)
            } else {
                self.consts.struct_(ty, elems)
            };
        }
        if ids(cmap.len()).all(|id| cmap[id.index()] == id) {
            return;
        }
        // Only an instruction that names a remapped constant is written, so
        // a function that names none keeps sharing its body with any clone.
        // (Switch case labels are scalar ints, never remapped.)
        let remap = |v: Value| match v {
            Value::Const(c) => Value::Const(cmap[c.index()]),
            other => other,
        };
        for f in &mut self.funcs {
            for i in 0..f.num_inst_slots() {
                let iid = crate::inst::InstId(i as u32);
                let mut hit = false;
                f.inst(iid).for_each_operand(|v| hit |= remap(v) != v);
                if hit {
                    f.inst_mut(iid).map_operands(remap);
                }
            }
        }
        for g in &mut self.globals {
            g.init = g.init.map(|init| cmap[init.index()]);
        }
    }

    // ---- functions --------------------------------------------------------

    /// Add a function with the given signature. The function starts as a
    /// declaration; add blocks (e.g. via [`Module::builder`]) to define it.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_function(
        &mut self,
        name: &str,
        params: &[TypeId],
        ret: TypeId,
        varargs: bool,
        linkage: Linkage,
    ) -> FuncId {
        assert!(
            !self.func_names.contains_key(name),
            "duplicate function {name}"
        );
        let ty = self.types.func(ret, params.to_vec(), varargs);
        let addr_ty = self.types.ptr(ty);
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(Function::new(
            name.to_string(),
            ty,
            addr_ty,
            params.to_vec(),
            ret,
            varargs,
            linkage,
        ));
        self.func_names.insert(name.to_string(), id);
        id
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// The function record for `id`.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable function record.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Iterate over `(FuncId, &Function)`.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Rename a function, keeping the name index consistent.
    ///
    /// # Panics
    ///
    /// Panics if the new name is taken.
    pub fn rename_function(&mut self, id: FuncId, new_name: &str) {
        assert!(!self.func_names.contains_key(new_name));
        let old = self.funcs[id.0 as usize].set_name(new_name.to_string());
        self.func_names.remove(&old);
        self.func_names.insert(new_name.to_string(), id);
    }

    // ---- typing -----------------------------------------------------------

    /// The type of constant `c`, including global/function addresses.
    pub fn const_type(&self, c: ConstId) -> TypeId {
        match self.consts.get(c) {
            Const::GlobalAddr(g) => self.global(*g).addr_ty,
            Const::FuncAddr(f) => self.func(*f).addr_type(),
            _ => self.consts.type_of(&self.types, c),
        }
    }

    /// The type of `v` as an operand inside function `f`.
    pub fn value_type(&self, f: &Function, v: Value) -> TypeId {
        match v {
            Value::Inst(i) => f.inst_ty(i),
            Value::Arg(n) => f.params()[n as usize],
            Value::Const(c) => self.const_type(c),
        }
    }

    /// Snapshot the address types of every function and global.
    ///
    /// This is the only cross-function state the intra-procedural passes
    /// read (through [`Module::value_type`] on `GlobalAddr`/`FuncAddr`
    /// constants). Signatures are immutable while function passes run, so
    /// one snapshot stays valid for a whole function-pass stage, letting
    /// each function be optimized against just (types, consts, body).
    pub fn addr_type_table(&self) -> AddrTypeTable {
        AddrTypeTable {
            func_addr_tys: self.funcs.iter().map(|f| f.addr_type()).collect(),
            global_addr_tys: self.globals.iter().map(|g| g.addr_ty).collect(),
        }
    }

    /// Split the module into disjoint mutable borrows of the type context,
    /// the constant pool, and the function table — the shape the parallel
    /// function-pass executor needs (each worker gets its own pool clones
    /// plus exclusive access to a subset of the functions).
    pub fn split_mut(&mut self) -> (&mut TypeCtx, &mut ConstPool, &mut [Function]) {
        (&mut self.types, &mut self.consts, &mut self.funcs)
    }

    /// The result type of `inst`, derived from its operands — the one
    /// typing rule of the representation. `type_of` answers "what type
    /// does this operand have" (`None`: not known yet), so a `&Function`
    /// and a decoder's partly resolved type table can both drive it. The
    /// builder and the bytecode reader take their types from here; the
    /// verifier checks every cached type against it.
    ///
    /// # Errors
    ///
    /// A [`TypeError`] when the operands admit no result type. `phi`
    /// fails with [`TypeError::Declared`]: its type is stated, not derived.
    #[inline]
    pub fn infer_inst_type(
        &self,
        inst: &Inst,
        type_of: impl Fn(Value) -> Option<TypeId>,
    ) -> Result<ResultType, TypeError> {
        use ResultType::{Exactly, PointerTo};
        let ty = |v: Value| type_of(v).ok_or(TypeError::Untyped(v));
        let pointee = |v: Value| self.types.pointee(ty(v)?).ok_or(TypeError::NotPointer);
        Ok(match inst {
            Inst::Ret(_)
            | Inst::Br(_)
            | Inst::CondBr { .. }
            | Inst::Switch { .. }
            | Inst::Unwind
            | Inst::Unreachable
            | Inst::Free(_)
            | Inst::Store { .. } => Exactly(self.types.void()),
            Inst::Bin { lhs, .. } => Exactly(ty(*lhs)?),
            Inst::Cmp { .. } => Exactly(self.types.bool_()),
            Inst::Malloc { elem_ty, .. } | Inst::Alloca { elem_ty, .. } => PointerTo(*elem_ty),
            Inst::Load { ptr } => Exactly(pointee(*ptr)?),
            Inst::Gep { ptr, indices } => PointerTo(
                self.types
                    .gep_steps::<GepError>(
                        ty(*ptr)?,
                        indices,
                        false,
                        |v| self.consts.int_of(v),
                        |_| Ok(()),
                    )
                    .map_err(TypeError::Gep)?,
            ),
            Inst::Call { callee, .. } | Inst::Invoke { callee, .. } => Exactly(
                self.types
                    .func_ret(pointee(*callee)?)
                    .ok_or(TypeError::NotFunction)?,
            ),
            Inst::Cast { to, .. } => Exactly(*to),
            Inst::VaArg { ty } => Exactly(*ty),
            Inst::Phi { .. } => return Err(TypeError::Declared),
        })
    }

    /// Count linked instructions across all functions (a cheap size
    /// metric used in reports).
    pub fn total_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }

    // ---- rollback ---------------------------------------------------------

    /// A point [`Module::restore`] can return to. Taking one costs a
    /// reference per function and a copy of the global table, not a copy
    /// of any body: a [`Function`] clone shares its body until one side is
    /// written, so what is paid later is one body copy per function
    /// actually edited.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            name: self.name.clone(),
            types_len: self.types.len(),
            consts_len: self.consts.len(),
            globals: self.globals.clone(),
            funcs: self.funcs.clone(),
        }
    }

    /// Return to `cp`: the module compares equal, id for id, to what it
    /// was when `cp` was taken.
    ///
    /// The pools come back by length. That is exact because interning
    /// only appends and nothing that runs between the two calls (a pass)
    /// edits an entry in place — the contract the function-pass
    /// executor's worker pools already rest on.
    pub fn restore(&mut self, cp: Checkpoint) {
        self.name = cp.name;
        self.types.truncate(cp.types_len);
        self.consts.truncate(cp.consts_len);
        self.globals = cp.globals;
        self.funcs = cp.funcs;
        self.index_names();
    }

    /// Rebuild the by-name indexes after the tables were replaced.
    fn index_names(&mut self) {
        self.global_names = (self.globals.iter().enumerate())
            .map(|(i, g)| (g.name.clone(), GlobalId(i as u32)))
            .collect();
        self.func_names = (self.funcs.iter().enumerate())
            .map(|(i, f)| (f.name().to_string(), FuncId(i as u32)))
            .collect();
    }
}

/// What [`Module::checkpoint`] holds: the function and global tables (the
/// functions sharing their bodies with the live module) and the lengths
/// of the two interning pools.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    name: String,
    types_len: usize,
    consts_len: usize,
    globals: Vec<Global>,
    funcs: Vec<Function>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;
    use crate::types::GepStep;

    #[test]
    fn globals_and_functions_by_name() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let init = m.consts.i32(7);
        let g = m.add_global("G", i32t, Some(init), false, Linkage::External);
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::Internal);
        assert_eq!(m.global_by_name("G"), Some(g));
        assert_eq!(m.func_by_name("f"), Some(f));
        assert_eq!(m.global(g).value_ty, i32t);
        assert_eq!(m.types.pointee(m.global(g).addr_ty), Some(i32t));
        assert_eq!(m.func(f).ret_type(), i32t);
    }

    #[test]
    fn value_types() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fid = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let c = m.consts.f64(1.0);
        let g = m.add_global("G", i32t, None, false, Linkage::External);
        let ga = m.consts.global_addr(g);
        let fa = m.consts.func_addr(fid);
        let f = m.func(fid);
        assert_eq!(m.value_type(f, Value::Arg(0)), i32t);
        assert_eq!(m.value_type(f, Value::Const(c)), m.types.f64());
        assert_eq!(m.types.pointee(m.const_type(ga)), Some(i32t));
        assert!(m.types.is_ptr(m.const_type(fa)));
    }

    #[test]
    fn infer_types() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fid = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let f = m.func(fid);
        let add = Inst::Bin {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::Arg(0),
        };
        let t = m.infer_inst_type(&add, |v| Some(m.value_type(f, v)));
        assert_eq!(t, Ok(ResultType::Exactly(i32t)));
        // The same rule driven by a table that does not know the operand.
        assert_eq!(
            m.infer_inst_type(&add, |_| None),
            Err(TypeError::Untyped(Value::Arg(0)))
        );
        let alloca = Inst::Alloca {
            elem_ty: i32t,
            count: None,
        };
        let t = m.infer_inst_type(&alloca, |_| None).unwrap();
        assert_eq!(t, ResultType::PointerTo(i32t));
        assert!(!t.is(&m.types, i32t));
        let p = t.intern(&mut m.types);
        assert_eq!(m.types.pointee(p), Some(i32t));
        assert!(t.is(&m.types, p));
    }

    #[test]
    fn gep_resolution() {
        let mut m = Module::new("m");
        // %xty = { int, [4 x float] }
        let arr = m.types.array(m.types.f32(), 4);
        let xty = m.types.struct_lit(vec![m.types.i32(), arr]);
        let pxty = m.types.ptr(xty);
        let zero = Value::Const(m.consts.i64(0));
        let one = Value::Const(m.consts.u8(1));
        let nine = Value::Const(m.consts.u8(9));
        let walk = |indices: &[Value], layout: bool| {
            let mut steps = Vec::new();
            m.types
                .gep_steps::<GepError>(
                    pxty,
                    indices,
                    layout,
                    |v| m.consts.int_of(v),
                    |s| {
                        steps.push(s);
                        Ok(())
                    },
                )
                .map(|t| (t, steps))
        };
        // X[0].field1[i] : float, 4 bytes into X plus 4 per element.
        let (elem, steps) = walk(&[zero, one, Value::Arg(1)], true).unwrap();
        assert_eq!(elem, m.types.f32());
        assert_eq!(
            steps,
            [
                GepStep::Scaled {
                    index: zero,
                    stride: 20
                },
                GepStep::Field {
                    field: 1,
                    offset: 4
                },
                GepStep::Scaled {
                    index: Value::Arg(1),
                    stride: 4
                },
            ]
        );
        // A struct index is always the constant.
        assert_eq!(
            walk(&[zero, Value::Arg(1)], false),
            Err(GepError::StructIndexNotConst)
        );
        assert_eq!(walk(&[zero, nine], false), Err(GepError::StructIndexRange));
        assert_eq!(
            walk(&[zero, one, zero, zero], false),
            Err(GepError::IntoScalar)
        );
        // Typing steps over an opaque pointee; layout cannot.
        let opaque = m.types.named_struct("o");
        let po = m.types.ptr(opaque);
        let over = |layout| {
            m.types
                .gep_steps::<GepError>(po, &[one], layout, |_| None, |_| Ok(()))
        };
        assert_eq!(over(false), Ok(opaque));
        assert_eq!(over(true), Err(GepError::Unsized));
        assert_eq!(
            m.types
                .gep_steps::<GepError>(xty, &[], false, |_| None, |_| Ok(())),
            Err(GepError::BaseNotPointer)
        );
    }

    #[test]
    fn restore_returns_to_the_checkpoint_id_for_id() {
        let mut m = Module::new("m");
        let (v, i32t) = (m.types.void(), m.types.i32());
        let one = m.consts.i32(1);
        m.add_global("G", i32t, Some(one), false, Linkage::External);
        let a = m.add_function("a", &[], v, false, Linkage::External);
        let b = m.add_function("b", &[], v, false, Linkage::External);
        for f in [a, b] {
            let blk = m.func_mut(f).add_block();
            m.func_mut(f).append_inst(blk, Inst::Ret(None), v);
        }
        let (text, types, consts) = (m.display(), m.types.len(), m.consts.len());
        let copies = crate::function::body_copies();
        let cp = m.checkpoint();
        // Everything a pass may do: intern, edit a body and a header, add,
        // rename and delete symbols, rename the module.
        m.types.ptr(i32t);
        m.consts.i32(2);
        m.func_mut(a).add_block();
        m.func_mut(b).set_linkage(Linkage::Internal);
        m.add_function("c", &[i32t], i32t, false, Linkage::Internal);
        m.rename_function(b, "b2");
        m.retain_functions(|f| f != a);
        m.retain_globals(|_| false);
        m.name.push('!');
        assert_ne!(m.display(), text);
        // Only `a`'s body was written, so only it was copied.
        assert_eq!((crate::function::body_copies() - copies).funcs, 1);
        m.restore(cp);
        assert_eq!(m.display(), text);
        assert_eq!((m.types.len(), m.consts.len()), (types, consts));
        assert_eq!(
            (m.func_by_name("a"), m.func_by_name("b")),
            (Some(a), Some(b))
        );
        assert_eq!((m.func_by_name("b2"), m.func_by_name("c")), (None, None));
        assert!(m.global_by_name("G").is_some());
        // The pools intern the same ids again.
        assert_eq!(m.consts.i32(2).index(), consts);
        m.verify().unwrap();
    }

    #[test]
    fn retain_functions_remaps_addresses() {
        let mut m = Module::new("m");
        let v = m.types.void();
        let a = m.add_function("a", &[], v, false, Linkage::Internal);
        let b = m.add_function("b", &[], v, false, Linkage::External);
        let c = m.add_function("c", &[], v, false, Linkage::External);
        let fb = m.consts.func_addr(b);
        // c calls b by address; after removing a, the operand must still
        // denote b under its new id.
        let blk = m.func_mut(c).add_block();
        m.func_mut(c).append_inst(
            blk,
            Inst::Call {
                callee: Value::Const(fb),
                args: vec![],
            },
            v,
        );
        m.func_mut(c).append_inst(blk, Inst::Ret(None), v);
        let removed = m.retain_functions(|f| f != a);
        assert_eq!(removed, 1);
        assert_eq!(m.num_funcs(), 2);
        let nb = m.func_by_name("b").unwrap();
        let nc = m.func_by_name("c").unwrap();
        let call = m.func(nc).inst(crate::inst::InstId(0)).clone();
        match call {
            Inst::Call {
                callee: Value::Const(cc),
                ..
            } => match m.consts.get(cc) {
                Const::FuncAddr(f) => assert_eq!(*f, nb),
                other => panic!("expected FuncAddr, got {other:?}"),
            },
            other => panic!("expected call, got {other:?}"),
        }
    }
}
