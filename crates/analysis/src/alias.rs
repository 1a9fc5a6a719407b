//! A local memory oracle: may two memory accesses in one function touch
//! the same bytes?
//!
//! Every pointer is traced back through its definitions to a **root**:
//! `getelementptr`s and pointer-to-pointer casts are stripped, anything
//! else (an argument, a loaded pointer, a φ, an integer-to-pointer cast)
//! is a root of its own. A root is an *identified object* when it is a
//! global's address or the result of `alloca` or `malloc`. On the way,
//! the constant-index `getelementptr`s nearest the pointer are folded into
//! a **base** and a constant byte offset, through [`TypeCtx::gep_steps`]
//! with layout; the first index that is not a constant stops the folding,
//! and that `getelementptr` becomes the base. An access covers
//! `[offset, offset + size)` of its base, `size` being the size of the
//! pointer's pointee.
//!
//! Two accesses are **disjoint** when their roots are distinct identified
//! objects, or when they share a base and their byte ranges do not
//! overlap. Anything else may alias.
//!
//! The first case rests on one rule, the rule C's pointer arithmetic and
//! DSA (paper §4.1.1) already rely on: *an address computed from an object
//! stays inside that object* — no index walks a pointer from one global,
//! stack slot or heap block into another, and no address of a freed block
//! is used again. A program that breaks it has no defined meaning in C,
//! and the optimizer may change what it prints.

use std::collections::HashMap;

use lpat_core::hash::IdHashBuilder;

use lpat_core::{
    AddrTypeTable, Const, ConstPool, Function, GepError, GepStep, Inst, TypeCtx, Value,
};

/// Where a pointer points: its root, and its constant offset from a base.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Loc {
    /// What every `getelementptr` and pointer cast leads back to.
    root: Value,
    /// Whether `root` is a global, an `alloca` or a `malloc`.
    identified: bool,
    /// What the nearest constant-index `getelementptr`s lead back to.
    base: Value,
    /// The byte offset from `base`.
    offset: i64,
    /// Bytes an access through the pointer covers (`None` when its
    /// pointee has no size).
    size: Option<u64>,
}

/// Why a `getelementptr` adds no constant offset: an index is not a
/// constant, the offset overflows, or the indices do not fit the type.
struct NoOffset;

impl From<GepError> for NoOffset {
    fn from(_: GepError) -> NoOffset {
        NoOffset
    }
}

/// The memory oracle of one function. Each pointer's `Loc` is computed
/// once, on first use.
pub struct Alias<'a> {
    types: &'a TypeCtx,
    consts: &'a ConstPool,
    func: &'a Function,
    info: &'a AddrTypeTable,
    /// The location of every pointer asked about so far, and of the
    /// pointers it was computed from.
    locs: HashMap<Value, Loc, IdHashBuilder>,
}

impl<'a> Alias<'a> {
    /// An oracle for the pointers of `func`.
    pub fn new(
        types: &'a TypeCtx,
        consts: &'a ConstPool,
        func: &'a Function,
        info: &'a AddrTypeTable,
    ) -> Alias<'a> {
        Alias {
            types,
            consts,
            func,
            info,
            locs: HashMap::default(),
        }
    }

    /// Whether a load or store through `a` and one through `b` may touch
    /// a common byte.
    pub fn may_alias(&mut self, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        let (la, lb) = (self.loc(a), self.loc(b));
        if la.identified && lb.identified && la.root != lb.root {
            return false;
        }
        if la.base != lb.base {
            return true;
        }
        match (la.size, lb.size) {
            (Some(sa), Some(sb)) => {
                let (oa, ob) = (la.offset as i128, lb.offset as i128);
                oa < ob + sb as i128 && ob < oa + sa as i128
            }
            _ => true,
        }
    }

    /// Bytes a load or store through `p` covers.
    fn access_size(&self, p: Value) -> Option<u64> {
        let ty = self.info.value_type(self.types, self.consts, self.func, p);
        self.types.try_size_of(self.types.pointee(ty)?)
    }

    /// The location of `v`. A chain of `getelementptr`s and casts is
    /// walked down to the first value already known, then filled back up,
    /// so a long chain costs no stack.
    fn loc(&mut self, v: Value) -> Loc {
        let mut chain = Vec::new();
        let mut cur = v;
        let mut known = loop {
            if let Some(&l) = self.locs.get(&cur) {
                break l;
            }
            let step = match cur {
                Value::Inst(i) => match self.func.inst(i) {
                    Inst::Gep { ptr, .. } => Some(*ptr),
                    Inst::Cast { val, .. } if self.is_ptr(*val) && self.is_ptr(cur) => Some(*val),
                    _ => None,
                },
                _ => None,
            };
            match step {
                Some(from) => {
                    chain.push(cur);
                    cur = from;
                }
                None => {
                    let l = self.leaf(cur);
                    self.locs.insert(cur, l);
                    break l;
                }
            }
        };
        while let Some(p) = chain.pop() {
            if let Value::Inst(i) = p {
                if let Inst::Gep { ptr, indices } = self.func.inst(i) {
                    let offset = self.const_offset(*ptr, indices);
                    known = match offset.and_then(|d| known.offset.checked_add(d)) {
                        Some(offset) => Loc { offset, ..known },
                        None => Loc {
                            base: p,
                            offset: 0,
                            ..known
                        },
                    };
                }
            }
            known.size = self.access_size(p);
            self.locs.insert(p, known);
        }
        known
    }

    /// The location of a value that is its own root.
    fn leaf(&self, v: Value) -> Loc {
        let identified = match v {
            Value::Inst(i) => {
                matches!(self.func.inst(i), Inst::Alloca { .. } | Inst::Malloc { .. })
            }
            Value::Const(c) => matches!(self.consts.get(c), Const::GlobalAddr(_)),
            Value::Arg(_) => false,
        };
        Loc {
            root: v,
            identified,
            base: v,
            offset: 0,
            size: self.access_size(v),
        }
    }

    /// The byte offset a `getelementptr` adds to `ptr`, when every index
    /// is a constant and the walk fits the type.
    fn const_offset(&self, ptr: Value, indices: &[Value]) -> Option<i64> {
        let ty = self
            .info
            .value_type(self.types, self.consts, self.func, ptr);
        let mut offset = 0i64;
        let walked = self.types.gep_steps::<NoOffset>(
            ty,
            indices,
            true,
            |v| self.consts.int_of(v),
            |step| {
                let d = match step {
                    GepStep::Scaled { index, stride } => {
                        let k = self.consts.int_of(index).ok_or(NoOffset)?;
                        k.checked_mul(i64::try_from(stride).map_err(|_| NoOffset)?)
                    }
                    GepStep::Field { offset, .. } => i64::try_from(offset).ok(),
                };
                offset = d.and_then(|d| offset.checked_add(d)).ok_or(NoOffset)?;
                Ok(())
            },
        );
        walked.ok().map(|_| offset)
    }

    fn is_ptr(&self, v: Value) -> bool {
        let ty = self.info.value_type(self.types, self.consts, self.func, v);
        self.types.is_ptr(ty)
    }
}
