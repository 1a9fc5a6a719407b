//! Constants and the per-module constant pool.
//!
//! Constants are immutable, interned values: integer/float/bool scalars,
//! `null` pointers, `undef`, aggregate initializers, and the *addresses* of
//! globals and functions (the paper's unified memory model: a global
//! definition defines a symbol providing the **address** of the object, not
//! the object itself — §2.3).

use std::collections::HashMap;
use std::fmt;

use crate::inst::Value;
use crate::types::{IntKind, TypeCtx, TypeId};

/// Handle to an interned [`Const`] in a [`ConstPool`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub(crate) u32);

impl ConstId {
    /// Raw pool index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw pool index (for deserializers).
    #[inline]
    pub fn from_index(i: usize) -> ConstId {
        ConstId(i as u32)
    }
}

impl fmt::Debug for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Handle to a global variable in a module.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub(crate) u32);

impl GlobalId {
    /// Raw module index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw module index (for deserializers).
    #[inline]
    pub fn from_index(i: usize) -> GlobalId {
        GlobalId(i as u32)
    }
}

impl fmt::Debug for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Handle to a function in a module.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub(crate) u32);

impl FuncId {
    /// Raw module index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw module index (for deserializers).
    #[inline]
    pub fn from_index(i: usize) -> FuncId {
        FuncId(i as u32)
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An interned constant value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Const {
    /// A boolean constant.
    Bool(bool),
    /// An integer constant; `value` is stored canonicalized for `kind`
    /// (see [`IntKind::canonicalize`]).
    Int {
        /// Integer kind.
        kind: IntKind,
        /// Canonical two's-complement payload.
        value: i64,
    },
    /// A `float` constant, stored as raw bits so interning is exact.
    F32(u32),
    /// A `double` constant, stored as raw bits so interning is exact.
    F64(u64),
    /// The null pointer of pointer type `ty`.
    Null(TypeId),
    /// An undefined value of first-class type `ty`.
    Undef(TypeId),
    /// A zero initializer for any sized type `ty`.
    Zero(TypeId),
    /// A constant array of type `ty` (an `Array` type) with element
    /// constants.
    Array {
        /// The array type.
        ty: TypeId,
        /// One constant per element.
        elems: Vec<ConstId>,
    },
    /// A constant struct of type `ty` with field constants.
    Struct {
        /// The struct type.
        ty: TypeId,
        /// One constant per field.
        fields: Vec<ConstId>,
    },
    /// The address of a global variable (type: pointer to the global's
    /// value type).
    GlobalAddr(GlobalId),
    /// The address of a function (type: pointer to the function type).
    FuncAddr(FuncId),
}

/// Interning pool for constants; one per [`crate::Module`].
#[derive(Clone, Debug, Default)]
pub struct ConstPool {
    consts: Vec<Const>,
    intern: HashMap<Const, ConstId>,
}

impl ConstPool {
    /// Create an empty pool.
    pub fn new() -> ConstPool {
        ConstPool::default()
    }

    /// Number of distinct constants interned.
    pub fn len(&self) -> usize {
        self.consts.len()
    }

    /// Whether the pool has no constants.
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty()
    }

    /// Look up a constant's structure.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    #[inline]
    pub fn get(&self, id: ConstId) -> &Const {
        &self.consts[id.0 as usize]
    }

    /// Drop every constant with index `>= len`, restoring the pool to an
    /// earlier snapshot. Used by the parallel function-pass executor to
    /// reset a worker's pool overlay between functions.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.consts.len() {
            return;
        }
        self.intern.retain(|_, id| (id.0 as usize) < len);
        self.consts.truncate(len);
    }

    /// Iterate over `(ConstId, &Const)` in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (ConstId, &Const)> {
        self.consts
            .iter()
            .enumerate()
            .map(|(i, c)| (ConstId(i as u32), c))
    }

    /// Intern an arbitrary constant.
    pub fn intern(&mut self, c: Const) -> ConstId {
        if let Some(&id) = self.intern.get(&c) {
            return id;
        }
        let id = ConstId(self.consts.len() as u32);
        self.intern.insert(c.clone(), id);
        self.consts.push(c);
        id
    }

    /// Intern a boolean constant.
    pub fn bool_(&mut self, b: bool) -> ConstId {
        self.intern(Const::Bool(b))
    }

    /// Intern an integer constant, canonicalizing `value` for `kind`.
    pub fn int(&mut self, kind: IntKind, value: i64) -> ConstId {
        self.intern(Const::Int {
            kind,
            value: kind.canonicalize(value),
        })
    }

    /// Intern a signed 32-bit integer constant (`int`).
    pub fn i32(&mut self, value: i32) -> ConstId {
        self.int(IntKind::S32, value as i64)
    }

    /// Intern a signed 64-bit integer constant (`long`).
    pub fn i64(&mut self, value: i64) -> ConstId {
        self.int(IntKind::S64, value)
    }

    /// Intern an unsigned 32-bit integer constant (`uint`).
    pub fn u32(&mut self, value: u32) -> ConstId {
        self.int(IntKind::U32, value as i64)
    }

    /// Intern an unsigned 8-bit integer constant (`ubyte`), the type of
    /// struct field indices in `getelementptr`.
    pub fn u8(&mut self, value: u8) -> ConstId {
        self.int(IntKind::U8, value as i64)
    }

    /// Intern a `float` constant.
    pub fn f32(&mut self, value: f32) -> ConstId {
        self.intern(Const::F32(value.to_bits()))
    }

    /// Intern a `double` constant.
    pub fn f64(&mut self, value: f64) -> ConstId {
        self.intern(Const::F64(value.to_bits()))
    }

    /// Intern the null pointer of pointer type `ty`.
    pub fn null(&mut self, ty: TypeId) -> ConstId {
        self.intern(Const::Null(ty))
    }

    /// Intern `undef` of type `ty`.
    pub fn undef(&mut self, ty: TypeId) -> ConstId {
        self.intern(Const::Undef(ty))
    }

    /// Intern a zero initializer of type `ty`.
    pub fn zero(&mut self, ty: TypeId) -> ConstId {
        self.intern(Const::Zero(ty))
    }

    /// Intern the address of global `g`.
    pub fn global_addr(&mut self, g: GlobalId) -> ConstId {
        self.intern(Const::GlobalAddr(g))
    }

    /// Intern the address of function `f`.
    pub fn func_addr(&mut self, f: FuncId) -> ConstId {
        self.intern(Const::FuncAddr(f))
    }

    /// Intern a constant array.
    pub fn array(&mut self, ty: TypeId, elems: Vec<ConstId>) -> ConstId {
        self.intern(Const::Array { ty, elems })
    }

    /// Intern a constant struct.
    pub fn struct_(&mut self, ty: TypeId, fields: Vec<ConstId>) -> ConstId {
        self.intern(Const::Struct { ty, fields })
    }

    /// Intern a NUL-terminated byte string as `[len+1 x sbyte]`, the common
    /// encoding of C string literals.
    pub fn cstr(&mut self, tc: &mut TypeCtx, s: &str) -> ConstId {
        let bytes: Vec<ConstId> = s
            .bytes()
            .chain(std::iter::once(0))
            .map(|b| self.int(IntKind::S8, b as i64))
            .collect();
        let ty = tc.array(tc.i8(), bytes.len() as u64);
        self.array(ty, bytes)
    }

    /// The type of constant `id`, resolved against `tc`.
    ///
    /// `GlobalAddr`/`FuncAddr` types depend on the module; use
    /// [`crate::Module::const_type`] for those. This method panics on them.
    pub fn type_of(&self, tc: &TypeCtx, id: ConstId) -> TypeId {
        match self.get(id) {
            Const::Bool(_) => tc.bool_(),
            Const::Int { kind, .. } => tc.int(*kind),
            Const::F32(_) => tc.f32(),
            Const::F64(_) => tc.f64(),
            Const::Null(t) | Const::Undef(t) | Const::Zero(t) => *t,
            Const::Array { ty, .. } | Const::Struct { ty, .. } => *ty,
            Const::GlobalAddr(_) | Const::FuncAddr(_) => {
                panic!("type of global/function address requires the module")
            }
        }
    }

    /// If `id` is an integer constant, return `(kind, value)`.
    pub fn as_int(&self, id: ConstId) -> Option<(IntKind, i64)> {
        match self.get(id) {
            Const::Int { kind, value } => Some((*kind, *value)),
            _ => None,
        }
    }

    /// The payload of operand `v` when it is an integer constant — how a
    /// `getelementptr` index is read statically.
    #[inline]
    pub fn int_of(&self, v: Value) -> Option<i64> {
        match v {
            Value::Const(c) => self.as_int(c).map(|(_, value)| value),
            _ => None,
        }
    }

    /// If `id` is a boolean constant, return it.
    pub fn as_bool(&self, id: ConstId) -> Option<bool> {
        match self.get(id) {
            Const::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeCtx;

    #[test]
    fn interning_dedups_and_canonicalizes() {
        let mut cp = ConstPool::new();
        let a = cp.int(IntKind::U8, 256 + 7);
        let b = cp.int(IntKind::U8, 7);
        assert_eq!(a, b);
        let c = cp.int(IntKind::S8, -1);
        let d = cp.int(IntKind::S8, 255);
        assert_eq!(c, d);
        assert_ne!(a, c); // different kinds
        assert_eq!(cp.as_int(a), Some((IntKind::U8, 7)));
    }

    #[test]
    fn float_bits_exact() {
        let mut cp = ConstPool::new();
        let a = cp.f64(0.1);
        let b = cp.f64(0.1);
        assert_eq!(a, b);
        let nan1 = cp.f32(f32::NAN);
        let nan2 = cp.f32(f32::NAN);
        assert_eq!(nan1, nan2); // same bit pattern interned once
    }

    #[test]
    fn cstr_builds_sbyte_array() {
        let mut tc = TypeCtx::new();
        let mut cp = ConstPool::new();
        let s = cp.cstr(&mut tc, "hi");
        match cp.get(s) {
            Const::Array { ty, elems } => {
                assert_eq!(tc.display(*ty), "[3 x sbyte]");
                assert_eq!(elems.len(), 3);
                assert_eq!(cp.as_int(elems[2]), Some((IntKind::S8, 0)));
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn type_of_scalars() {
        let mut tc = TypeCtx::new();
        let mut cp = ConstPool::new();
        let i = cp.i32(5);
        assert_eq!(cp.type_of(&tc, i), tc.i32());
        let p = tc.ptr(tc.f64());
        let n = cp.null(p);
        assert_eq!(cp.type_of(&tc, n), p);
        let z = cp.zero(p);
        assert_ne!(n, z);
    }
}
