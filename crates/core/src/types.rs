//! The language-independent type system (paper §2.2).
//!
//! The representation has source-language-independent primitive types with
//! predefined sizes (`void`, `bool`, signed/unsigned integers from 8 to 64
//! bits, and single- and double-precision floating point) and exactly four
//! derived types: **pointers**, **arrays**, **structures**, and **functions**.
//! Higher-level language types (C++ classes, closures, tagged unions, ...)
//! are expressed as combinations of these four in terms of their operational
//! behaviour.
//!
//! Types are interned in a [`TypeCtx`]: structurally equal types receive the
//! same [`TypeId`], so type equality is integer equality. Named structure
//! types are *nominal* (two distinct names are distinct types even with equal
//! bodies), which is what permits recursive types such as
//! `%list = type { int, %list* }`.

use std::collections::HashMap;
use std::fmt;

use crate::inst::Value;

/// A compact handle to an interned [`Type`] inside a [`TypeCtx`].
///
/// `TypeId`s are only meaningful relative to the context that created them.
/// Equality of ids implies structural equality of the types (and for named
/// structs, identity).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// Raw index of this type inside its context, useful for dense side
    /// tables keyed by type.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw index (for deserializers and pool merging).
    #[inline]
    pub fn from_index(i: usize) -> TypeId {
        TypeId(i as u32)
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// The eight integer kinds of the representation.
///
/// Following the paper's instruction set, integers carry both a width and a
/// signedness; the textual names mirror the original assembly syntax
/// (`sbyte`, `ubyte`, `short`, `ushort`, `int`, `uint`, `long`, `ulong`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum IntKind {
    /// `sbyte`: signed 8-bit.
    S8,
    /// `ubyte`: unsigned 8-bit.
    U8,
    /// `short`: signed 16-bit.
    S16,
    /// `ushort`: unsigned 16-bit.
    U16,
    /// `int`: signed 32-bit.
    S32,
    /// `uint`: unsigned 32-bit.
    U32,
    /// `long`: signed 64-bit.
    S64,
    /// `ulong`: unsigned 64-bit.
    U64,
}

impl IntKind {
    /// All integer kinds, in width-then-signedness order.
    pub const ALL: [IntKind; 8] = [
        IntKind::S8,
        IntKind::U8,
        IntKind::S16,
        IntKind::U16,
        IntKind::S32,
        IntKind::U32,
        IntKind::S64,
        IntKind::U64,
    ];

    /// Bit width of this integer kind (8, 16, 32 or 64).
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            IntKind::S8 | IntKind::U8 => 8,
            IntKind::S16 | IntKind::U16 => 16,
            IntKind::S32 | IntKind::U32 => 32,
            IntKind::S64 | IntKind::U64 => 64,
        }
    }

    /// Byte width of this integer kind.
    #[inline]
    pub fn bytes(self) -> u64 {
        (self.bits() / 8) as u64
    }

    /// Whether the kind is signed.
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            IntKind::S8 | IntKind::S16 | IntKind::S32 | IntKind::S64
        )
    }

    /// The assembly name of this kind (`sbyte`, `uint`, ...).
    pub fn name(self) -> &'static str {
        match self {
            IntKind::S8 => "sbyte",
            IntKind::U8 => "ubyte",
            IntKind::S16 => "short",
            IntKind::U16 => "ushort",
            IntKind::S32 => "int",
            IntKind::U32 => "uint",
            IntKind::S64 => "long",
            IntKind::U64 => "ulong",
        }
    }

    /// Parse an assembly name back into a kind.
    pub fn from_name(name: &str) -> Option<IntKind> {
        Some(match name {
            "sbyte" => IntKind::S8,
            "ubyte" => IntKind::U8,
            "short" => IntKind::S16,
            "ushort" => IntKind::U16,
            "int" => IntKind::S32,
            "uint" => IntKind::U32,
            "long" => IntKind::S64,
            "ulong" => IntKind::U64,
            _ => return None,
        })
    }

    /// Truncate/sign-extend `raw` (a 64-bit two's-complement payload) to the
    /// canonical in-range representation for this kind.
    ///
    /// Signed kinds sign-extend from their width; unsigned kinds zero-extend.
    /// All integer constants and VM registers store their payload in this
    /// canonical form so that equality and hashing behave.
    #[inline]
    pub fn canonicalize(self, raw: i64) -> i64 {
        let bits = self.bits();
        if bits == 64 {
            return raw;
        }
        let shift = 64 - bits;
        if self.is_signed() {
            (raw << shift) >> shift
        } else {
            (((raw as u64) << shift) >> shift) as i64
        }
    }
}

/// A type of the representation.
///
/// Obtain instances via [`TypeCtx`] constructors and inspect them through
/// [`TypeCtx::ty`]; user code rarely builds `Type` values directly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// The `void` type: no value. Functions returning nothing and
    /// non-value-producing instructions have this type.
    Void,
    /// The `bool` type produced by comparisons and consumed by conditional
    /// branches.
    Bool,
    /// An integer type of one of the eight [`IntKind`]s.
    Int(IntKind),
    /// Single-precision IEEE-754 floating point (`float`).
    F32,
    /// Double-precision IEEE-754 floating point (`double`).
    F64,
    /// A typed pointer `T*`.
    Ptr(TypeId),
    /// A fixed-size array `[len x T]`.
    Array {
        /// Element type.
        elem: TypeId,
        /// Number of elements.
        len: u64,
    },
    /// A structure type.
    ///
    /// Anonymous (`name == None`) structs are structural and interned;
    /// named structs are nominal and may be recursive.
    Struct {
        /// Optional nominal name (`%list = type { ... }`).
        name: Option<String>,
        /// Field types, in declaration order.
        fields: Vec<TypeId>,
    },
    /// A function type `ret (params...)`, optionally variadic.
    Func {
        /// Return type (may be `Void`).
        ret: TypeId,
        /// Parameter types.
        params: Vec<TypeId>,
        /// Whether the function accepts additional variadic arguments.
        varargs: bool,
    },
    /// A named struct that has been declared but whose body is not yet set
    /// (used while constructing recursive types, and for genuinely opaque
    /// types).
    Opaque(String),
}

/// The interning context that owns every [`Type`] of a module.
///
/// A fresh context pre-interns all primitive types so that handles like
/// [`TypeCtx::i32`] are constant-time and allocation-free.
///
/// # Examples
///
/// ```
/// use lpat_core::types::TypeCtx;
///
/// let mut tc = TypeCtx::new();
/// let p1 = tc.ptr(tc.i32());
/// let p2 = tc.ptr(tc.i32());
/// assert_eq!(p1, p2); // structural interning
/// ```
#[derive(Clone, Debug)]
pub struct TypeCtx {
    types: Vec<Type>,
    intern: HashMap<Type, TypeId>,
    named: HashMap<String, TypeId>,
}

impl Default for TypeCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// Ids of the pre-interned primitives, in creation order.
const VOID: TypeId = TypeId(0);
const BOOL: TypeId = TypeId(1);
const INT0: u32 = 2; // S8..U64 occupy 2..=9
const F32T: TypeId = TypeId(10);
const F64T: TypeId = TypeId(11);

impl TypeCtx {
    /// Create a context with all primitive types pre-interned.
    pub fn new() -> TypeCtx {
        let mut tc = TypeCtx {
            types: Vec::with_capacity(16),
            intern: HashMap::new(),
            named: HashMap::new(),
        };
        tc.intern_new(Type::Void);
        tc.intern_new(Type::Bool);
        for k in IntKind::ALL {
            tc.intern_new(Type::Int(k));
        }
        tc.intern_new(Type::F32);
        tc.intern_new(Type::F64);
        tc
    }

    fn intern_new(&mut self, t: Type) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.intern.insert(t.clone(), id);
        self.types.push(t);
        id
    }

    fn intern(&mut self, t: Type) -> TypeId {
        if let Some(&id) = self.intern.get(&t) {
            return id;
        }
        self.intern_new(t)
    }

    /// Number of distinct types interned so far.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Intern an arbitrary structural type built elsewhere (pool merging).
    ///
    /// # Panics
    ///
    /// Panics on named/opaque struct types: those are nominal, not
    /// structural — create them with [`TypeCtx::named_struct`] and
    /// [`TypeCtx::set_struct_body`] instead.
    pub fn intern_type(&mut self, t: Type) -> TypeId {
        assert!(
            !matches!(t, Type::Opaque(_) | Type::Struct { name: Some(_), .. }),
            "intern_type is for structural types; use named_struct for nominal ones"
        );
        self.intern(t)
    }

    /// Drop every type with index `>= len`, restoring the context to an
    /// earlier snapshot. Used by the parallel function-pass executor to
    /// reset a worker's pool overlay between functions.
    ///
    /// # Panics
    ///
    /// Panics if `len` would remove the pre-interned primitives.
    pub fn truncate(&mut self, len: usize) {
        assert!(len > (F64T.0 as usize), "cannot drop primitive types");
        if len >= self.types.len() {
            return;
        }
        self.intern.retain(|_, id| (id.0 as usize) < len);
        self.named.retain(|_, id| (id.0 as usize) < len);
        self.types.truncate(len);
    }

    /// Whether the context is empty (never true: primitives are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Look up the structure of a type.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this context.
    #[inline]
    pub fn ty(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }

    /// Iterate over `(TypeId, &Type)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &Type)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (TypeId(i as u32), t))
    }

    /// The `void` type.
    #[inline]
    pub fn void(&self) -> TypeId {
        VOID
    }
    /// The `bool` type.
    #[inline]
    pub fn bool_(&self) -> TypeId {
        BOOL
    }
    /// The integer type for `kind`.
    #[inline]
    pub fn int(&self, kind: IntKind) -> TypeId {
        TypeId(INT0 + kind as u32)
    }
    /// Signed 8-bit (`sbyte`).
    #[inline]
    pub fn i8(&self) -> TypeId {
        self.int(IntKind::S8)
    }
    /// Unsigned 8-bit (`ubyte`).
    #[inline]
    pub fn u8(&self) -> TypeId {
        self.int(IntKind::U8)
    }
    /// Signed 16-bit (`short`).
    #[inline]
    pub fn i16(&self) -> TypeId {
        self.int(IntKind::S16)
    }
    /// Unsigned 16-bit (`ushort`).
    #[inline]
    pub fn u16(&self) -> TypeId {
        self.int(IntKind::U16)
    }
    /// Signed 32-bit (`int`).
    #[inline]
    pub fn i32(&self) -> TypeId {
        self.int(IntKind::S32)
    }
    /// Unsigned 32-bit (`uint`).
    #[inline]
    pub fn u32(&self) -> TypeId {
        self.int(IntKind::U32)
    }
    /// Signed 64-bit (`long`).
    #[inline]
    pub fn i64(&self) -> TypeId {
        self.int(IntKind::S64)
    }
    /// Unsigned 64-bit (`ulong`).
    #[inline]
    pub fn u64(&self) -> TypeId {
        self.int(IntKind::U64)
    }
    /// Single-precision float.
    #[inline]
    pub fn f32(&self) -> TypeId {
        F32T
    }
    /// Double-precision float.
    #[inline]
    pub fn f64(&self) -> TypeId {
        F64T
    }

    /// Intern the pointer type `pointee*`.
    pub fn ptr(&mut self, pointee: TypeId) -> TypeId {
        self.intern(Type::Ptr(pointee))
    }

    /// Intern the array type `[len x elem]`.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(Type::Array { elem, len })
    }

    /// Intern an anonymous (structural) struct type `{ fields... }`.
    pub fn struct_lit(&mut self, fields: Vec<TypeId>) -> TypeId {
        self.intern(Type::Struct { name: None, fields })
    }

    /// Declare a named struct type with no body yet.
    ///
    /// Returns the existing id when the name has already been declared,
    /// allowing forward references while parsing recursive types.
    pub fn named_struct(&mut self, name: &str) -> TypeId {
        if let Some(&id) = self.named.get(name) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(Type::Opaque(name.to_string()));
        self.named.insert(name.to_string(), id);
        id
    }

    /// Set the body of a named struct declared with [`TypeCtx::named_struct`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an opaque named struct (e.g. the body was
    /// already set).
    pub fn set_struct_body(&mut self, id: TypeId, fields: Vec<TypeId>) {
        let name = match &self.types[id.0 as usize] {
            Type::Opaque(n) => n.clone(),
            other => panic!("set_struct_body on non-opaque type {other:?}"),
        };
        self.types[id.0 as usize] = Type::Struct {
            name: Some(name),
            fields,
        };
    }

    /// Look up a named struct by name.
    pub fn lookup_named(&self, name: &str) -> Option<TypeId> {
        self.named.get(name).copied()
    }

    /// Intern the function type `ret (params...)`.
    pub fn func(&mut self, ret: TypeId, params: Vec<TypeId>, varargs: bool) -> TypeId {
        self.intern(Type::Func {
            ret,
            params,
            varargs,
        })
    }

    // ---- queries -------------------------------------------------------

    /// Whether `id` is an integer type.
    pub fn is_int(&self, id: TypeId) -> bool {
        matches!(self.ty(id), Type::Int(_))
    }

    /// The [`IntKind`] of `id`, if it is an integer type.
    pub fn int_kind(&self, id: TypeId) -> Option<IntKind> {
        match self.ty(id) {
            Type::Int(k) => Some(*k),
            _ => None,
        }
    }

    /// Whether `id` is `float` or `double`.
    pub fn is_float(&self, id: TypeId) -> bool {
        matches!(self.ty(id), Type::F32 | Type::F64)
    }

    /// Whether `id` is a pointer type.
    pub fn is_ptr(&self, id: TypeId) -> bool {
        matches!(self.ty(id), Type::Ptr(_))
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self, id: TypeId) -> Option<TypeId> {
        match self.ty(id) {
            Type::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// Whether `id` is a first-class type: one that an SSA register can hold
    /// (bool, int, float, or pointer).
    pub fn is_first_class(&self, id: TypeId) -> bool {
        matches!(
            self.ty(id),
            Type::Bool | Type::Int(_) | Type::F32 | Type::F64 | Type::Ptr(_)
        )
    }

    /// Whether `id` is an aggregate (array or struct).
    pub fn is_aggregate(&self, id: TypeId) -> bool {
        matches!(self.ty(id), Type::Array { .. } | Type::Struct { .. })
    }

    /// Whether `id` is a function type.
    pub fn is_func(&self, id: TypeId) -> bool {
        matches!(self.ty(id), Type::Func { .. })
    }

    /// Return type of a function type.
    pub fn func_ret(&self, id: TypeId) -> Option<TypeId> {
        match self.ty(id) {
            Type::Func { ret, .. } => Some(*ret),
            _ => None,
        }
    }

    /// Parameter types of a function type.
    pub fn func_params(&self, id: TypeId) -> Option<&[TypeId]> {
        match self.ty(id) {
            Type::Func { params, .. } => Some(params),
            _ => None,
        }
    }

    /// Whether a function type is variadic.
    pub fn func_varargs(&self, id: TypeId) -> Option<bool> {
        match self.ty(id) {
            Type::Func { varargs, .. } => Some(*varargs),
            _ => None,
        }
    }

    // ---- layout --------------------------------------------------------

    /// Size in bytes of a value of type `id` under the reference data layout
    /// (ILP32: pointers are 4 bytes, natural alignment everywhere).
    ///
    /// # Panics
    ///
    /// Panics on `void`, function, and opaque types, which have no size.
    pub fn size_of(&self, id: TypeId) -> u64 {
        match self.ty(id) {
            Type::Void => panic!("void has no size"),
            Type::Bool => 1,
            Type::Int(k) => k.bytes(),
            Type::F32 => 4,
            Type::F64 => 8,
            Type::Ptr(_) => 4,
            Type::Array { elem, len } => self.size_of(*elem) * len,
            Type::Struct { fields, .. } => {
                let mut layout = StructLayout::compute(self, fields);
                layout.size = align_to(layout.size, layout.align);
                layout.size
            }
            Type::Func { .. } => panic!("function types have no size"),
            Type::Opaque(n) => panic!("opaque type {n} has no size"),
        }
    }

    /// Size in bytes of `id`, or `None` when the type has no size: void,
    /// function, and opaque types, plus pathologies only a hostile
    /// bytecode image can encode (self-referential by-value aggregates,
    /// arrays whose total size overflows `u64`). The sized results agree
    /// with [`TypeCtx::size_of`] exactly; execution engines use this at
    /// ingestion boundaries so bad modules trap instead of panicking.
    pub fn try_size_of(&self, id: TypeId) -> Option<u64> {
        self.try_layout(id, 0).map(|(size, _)| size)
    }

    /// `(size, align)` with the same guarantees as [`TypeCtx::try_size_of`].
    fn try_layout(&self, id: TypeId, depth: u32) -> Option<(u64, u64)> {
        if depth > 64 {
            return None;
        }
        Some(match self.ty(id) {
            Type::Void | Type::Func { .. } | Type::Opaque(_) => return None,
            Type::Bool => (1, 1),
            Type::Int(k) => (k.bytes(), k.bytes()),
            Type::F32 => (4, 4),
            Type::F64 => (8, 8),
            Type::Ptr(_) => (4, 4),
            Type::Array { elem, len } => {
                let (s, a) = self.try_layout(*elem, depth + 1)?;
                (s.checked_mul(*len)?, a)
            }
            Type::Struct { fields, .. } => {
                // Mirrors `StructLayout::compute`, with checked arithmetic.
                let mut size = 0u64;
                let mut align = 1u64;
                for &f in fields {
                    let (fs, fa) = self.try_layout(f, depth + 1)?;
                    align = align.max(fa);
                    size = size.div_ceil(fa).checked_mul(fa)?.checked_add(fs)?;
                }
                (size.div_ceil(align).checked_mul(align)?, align)
            }
        })
    }

    /// Alignment in bytes of type `id` under the reference data layout.
    pub fn align_of(&self, id: TypeId) -> u64 {
        match self.ty(id) {
            Type::Void => 1,
            Type::Bool => 1,
            Type::Int(k) => k.bytes(),
            Type::F32 => 4,
            Type::F64 => 8,
            Type::Ptr(_) => 4,
            Type::Array { elem, .. } => self.align_of(*elem),
            Type::Struct { fields, .. } => StructLayout::compute(self, fields).align,
            Type::Func { .. } => 1,
            Type::Opaque(_) => 1,
        }
    }

    /// Byte offset of field `idx` within struct type `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a struct or `idx` is out of range.
    pub fn field_offset(&self, id: TypeId, idx: usize) -> u64 {
        match self.ty(id) {
            Type::Struct { fields, .. } => {
                assert!(idx < fields.len(), "field index out of range");
                let mut off = 0u64;
                for (i, &f) in fields.iter().enumerate() {
                    off = align_to(off, self.align_of(f));
                    if i == idx {
                        return off;
                    }
                    off += self.size_of(f);
                }
                unreachable!()
            }
            other => panic!("field_offset on non-struct {other:?}"),
        }
    }

    /// Step a `getelementptr` index list through the pointee of `base_ptr`
    /// — the one place that knows how indices select array elements and
    /// struct fields. Every index reaches `visit` as a [`GepStep`], in
    /// order; the result is the type the indices land on (the instruction
    /// yields a pointer to it). `const_int` reads an index as an integer
    /// constant: a struct index must be one, every other index is handed
    /// to `visit` as it stands. Strides and field offsets are computed
    /// only `with_layout`, so a pure type walk costs no layout work and
    /// can step over an unsized pointee.
    ///
    /// # Errors
    ///
    /// A [`GepError`] when the indices do not fit the type (converted
    /// into `E`), or whatever `visit` returns.
    #[inline]
    pub fn gep_steps<E: From<GepError>>(
        &self,
        base_ptr: TypeId,
        indices: &[Value],
        with_layout: bool,
        const_int: impl Fn(Value) -> Option<i64>,
        mut visit: impl FnMut(GepStep) -> Result<(), E>,
    ) -> Result<TypeId, E> {
        // Size of `ty` when the caller wants layout, 0 when it does not.
        let sized = |ty: TypeId| match with_layout {
            true => self.try_size_of(ty).ok_or(GepError::Unsized),
            false => Ok(0),
        };
        let mut cur = self.pointee(base_ptr).ok_or(GepError::BaseNotPointer)?;
        for (k, &index) in indices.iter().enumerate() {
            if k > 0 {
                match self.ty(cur) {
                    Type::Array { elem, .. } => cur = *elem,
                    Type::Struct { fields, .. } => {
                        let field = const_int(index).ok_or(GepError::StructIndexNotConst)?;
                        let field = usize::try_from(field)
                            .ok()
                            .filter(|&f| f < fields.len())
                            .ok_or(GepError::StructIndexRange)?;
                        let offset = if with_layout {
                            // `field_offset` panics on an unsized field.
                            sized(cur)?;
                            self.field_offset(cur, field)
                        } else {
                            0
                        };
                        visit(GepStep::Field { field, offset })?;
                        cur = fields[field];
                        continue;
                    }
                    _ => return Err(GepError::IntoScalar.into()),
                }
            }
            // The first index steps over the pointer as over an array.
            let stride = sized(cur)?;
            visit(GepStep::Scaled { index, stride })?;
        }
        Ok(cur)
    }

    /// Render a type to its assembly syntax (`int`, `%list*`, `[4 x float]`,
    /// `{ int, %list* }`, `int (int, sbyte**)`).
    pub fn display(&self, id: TypeId) -> String {
        let mut s = String::new();
        self.write_ty(&mut s, id);
        s
    }

    fn write_ty(&self, out: &mut String, id: TypeId) {
        use std::fmt::Write;
        match self.ty(id) {
            Type::Void => out.push_str("void"),
            Type::Bool => out.push_str("bool"),
            Type::Int(k) => out.push_str(k.name()),
            Type::F32 => out.push_str("float"),
            Type::F64 => out.push_str("double"),
            Type::Ptr(p) => {
                self.write_ty(out, *p);
                out.push('*');
            }
            Type::Array { elem, len } => {
                write!(out, "[{len} x ").unwrap();
                self.write_ty(out, *elem);
                out.push(']');
            }
            Type::Struct { name: Some(n), .. } => {
                write!(out, "%{n}").unwrap();
            }
            Type::Struct { name: None, fields } => {
                out.push_str("{ ");
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_ty(out, *f);
                }
                out.push_str(" }");
            }
            Type::Func {
                ret,
                params,
                varargs,
            } => {
                self.write_ty(out, *ret);
                out.push_str(" (");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_ty(out, *p);
                }
                if *varargs {
                    if !params.is_empty() {
                        out.push_str(", ");
                    }
                    out.push_str("...");
                }
                out.push(')');
            }
            Type::Opaque(n) => {
                write!(out, "%{n}").unwrap();
            }
        }
    }
}

/// One index of a `getelementptr`, as [`TypeCtx::gep_steps`] visits it.
/// `stride` and `offset` are 0 on a walk without layout.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GepStep {
    /// The leading pointer-as-array index or an array index: the address
    /// moves by `index · stride` bytes.
    Scaled {
        /// The index operand, constant or not.
        index: Value,
        /// Size in bytes of the element stepped over.
        stride: u64,
    },
    /// A struct index: the address moves to field `field`, `offset` bytes
    /// into the struct.
    Field {
        /// The constant field number, in range.
        field: usize,
        /// [`TypeCtx::field_offset`] of that field.
        offset: u64,
    },
}

/// Why a `getelementptr` index list does not fit its base type.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GepError {
    /// The base operand is not a pointer.
    BaseNotPointer,
    /// A struct is indexed by something other than an integer constant.
    StructIndexNotConst,
    /// A struct index names no field.
    StructIndexRange,
    /// An index is left over after reaching a non-aggregate type.
    IntoScalar,
    /// Layout was asked for through a type that has no size.
    Unsized,
}

impl fmt::Display for GepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GepError::BaseNotPointer => "getelementptr base is not a pointer",
            GepError::StructIndexNotConst => "struct index must be an integer constant",
            GepError::StructIndexRange => "struct index out of range",
            GepError::IntoScalar => "cannot index into a non-aggregate type",
            GepError::Unsized => "getelementptr through an unsized type",
        })
    }
}

/// For walkers whose own failures are free text (`codegen::fast` bails
/// with a `String`).
impl From<GepError> for String {
    fn from(e: GepError) -> String {
        e.to_string()
    }
}

/// Struct layout scratch result.
struct StructLayout {
    size: u64,
    align: u64,
}

impl StructLayout {
    fn compute(tc: &TypeCtx, fields: &[TypeId]) -> StructLayout {
        let mut size = 0u64;
        let mut align = 1u64;
        for &f in fields {
            let fa = tc.align_of(f);
            align = align.max(fa);
            size = align_to(size, fa) + tc.size_of(f);
        }
        StructLayout { size, align }
    }
}

/// Round `x` up to the next multiple of `align` (a power of two or any
/// positive integer).
#[inline]
pub fn align_to(x: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_preinterned() {
        let tc = TypeCtx::new();
        assert_eq!(tc.ty(tc.void()), &Type::Void);
        assert_eq!(tc.ty(tc.bool_()), &Type::Bool);
        assert_eq!(tc.ty(tc.i32()), &Type::Int(IntKind::S32));
        assert_eq!(tc.ty(tc.u64()), &Type::Int(IntKind::U64));
        assert_eq!(tc.ty(tc.f32()), &Type::F32);
        assert_eq!(tc.ty(tc.f64()), &Type::F64);
    }

    #[test]
    fn interning_dedups() {
        let mut tc = TypeCtx::new();
        let a = tc.ptr(tc.i32());
        let b = tc.ptr(tc.i32());
        assert_eq!(a, b);
        let c = tc.array(a, 10);
        let d = tc.array(b, 10);
        assert_eq!(c, d);
        let e = tc.struct_lit(vec![a, c]);
        let f = tc.struct_lit(vec![b, d]);
        assert_eq!(e, f);
        let g = tc.struct_lit(vec![c, a]);
        assert_ne!(e, g);
    }

    #[test]
    fn named_structs_are_nominal_and_recursive() {
        let mut tc = TypeCtx::new();
        let list = tc.named_struct("list");
        let list_ptr = tc.ptr(list);
        tc.set_struct_body(list, vec![tc.i32(), list_ptr]);
        let other = tc.named_struct("other");
        let other_ptr = tc.ptr(other);
        tc.set_struct_body(other, vec![tc.i32(), other_ptr]);
        assert_ne!(list, other);
        assert_eq!(tc.lookup_named("list"), Some(list));
        assert_eq!(tc.display(list), "%list");
        match tc.ty(list) {
            Type::Struct { name, fields } => {
                assert_eq!(name.as_deref(), Some("list"));
                assert_eq!(fields.len(), 2);
            }
            _ => panic!("expected struct"),
        }
    }

    #[test]
    fn layout_ilp32() {
        let mut tc = TypeCtx::new();
        assert_eq!(tc.size_of(tc.i8()), 1);
        assert_eq!(tc.size_of(tc.i64()), 8);
        let p = tc.ptr(tc.i32());
        assert_eq!(tc.size_of(p), 4);
        // { sbyte, int, sbyte } -> 0, 4, 8 -> size 12 align 4
        let s = tc.struct_lit(vec![tc.i8(), tc.i32(), tc.i8()]);
        assert_eq!(tc.field_offset(s, 0), 0);
        assert_eq!(tc.field_offset(s, 1), 4);
        assert_eq!(tc.field_offset(s, 2), 8);
        assert_eq!(tc.size_of(s), 12);
        assert_eq!(tc.align_of(s), 4);
        // arrays multiply
        let a = tc.array(s, 3);
        assert_eq!(tc.size_of(a), 36);
    }

    #[test]
    fn display_round_syntax() {
        let mut tc = TypeCtx::new();
        let pp = tc.ptr(tc.i8());
        let ppp = tc.ptr(pp);
        assert_eq!(tc.display(ppp), "sbyte**");
        let a = tc.array(tc.f32(), 4);
        assert_eq!(tc.display(a), "[4 x float]");
        let s = tc.struct_lit(vec![tc.i32(), ppp]);
        assert_eq!(tc.display(s), "{ int, sbyte** }");
        let f = tc.func(tc.i32(), vec![tc.i32(), pp], true);
        assert_eq!(tc.display(f), "int (int, sbyte*, ...)");
        let v = tc.func(tc.void(), vec![], false);
        assert_eq!(tc.display(v), "void ()");
    }

    #[test]
    fn canonicalize_int_values() {
        assert_eq!(IntKind::U8.canonicalize(-1), 255);
        assert_eq!(IntKind::S8.canonicalize(255), -1);
        assert_eq!(IntKind::S8.canonicalize(127), 127);
        assert_eq!(IntKind::U32.canonicalize(-1), 0xFFFF_FFFF);
        assert_eq!(IntKind::S64.canonicalize(-5), -5);
        assert_eq!(IntKind::U16.canonicalize(0x1_0005), 5);
    }

    #[test]
    fn first_class_and_aggregate_queries() {
        let mut tc = TypeCtx::new();
        let p = tc.ptr(tc.i32());
        assert!(tc.is_first_class(tc.bool_()));
        assert!(tc.is_first_class(p));
        assert!(!tc.is_first_class(tc.void()));
        let s = tc.struct_lit(vec![tc.i32()]);
        assert!(tc.is_aggregate(s));
        assert!(!tc.is_first_class(s));
        let a = tc.array(tc.i8(), 2);
        assert!(tc.is_aggregate(a));
    }
}
