//! Runtime values of the execution engine.

use lpat_core::{IntKind, Type, TypeCtx, TypeId};

/// A first-class runtime value: exactly the types SSA registers can hold.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum VmValue {
    /// A boolean.
    Bool(bool),
    /// An integer with its kind; payload canonicalized (see
    /// [`IntKind::canonicalize`]).
    Int {
        /// Integer kind.
        kind: IntKind,
        /// Canonical payload.
        v: i64,
    },
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// A pointer (byte address in the VM's simulated memory; 0 is null).
    Ptr(u32),
}

impl VmValue {
    /// Construct a canonicalized integer.
    pub fn int(kind: IntKind, v: i64) -> VmValue {
        VmValue::Int {
            kind,
            v: kind.canonicalize(v),
        }
    }

    /// The zero/default value of a first-class type.
    pub fn zero_of(tc: &TypeCtx, ty: TypeId) -> VmValue {
        match tc.ty(ty) {
            Type::Bool => VmValue::Bool(false),
            Type::Int(k) => VmValue::Int { kind: *k, v: 0 },
            Type::F32 => VmValue::F32(0.0),
            Type::F64 => VmValue::F64(0.0),
            Type::Ptr(_) => VmValue::Ptr(0),
            other => panic!("no zero value for non-first-class type {other:?}"),
        }
    }

    /// Interpret as an `i64` (integers and bools).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            VmValue::Int { v, .. } => Some(*v),
            VmValue::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret as a pointer.
    pub fn as_ptr(&self) -> Option<u32> {
        match self {
            VmValue::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// Interpret as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            VmValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_on_construction() {
        assert_eq!(VmValue::int(IntKind::U8, 300).as_i64(), Some(44));
        assert_eq!(VmValue::int(IntKind::S8, 255).as_i64(), Some(-1));
    }

    #[test]
    fn zero_values() {
        let tc = TypeCtx::new();
        assert_eq!(VmValue::zero_of(&tc, tc.bool_()), VmValue::Bool(false));
        assert_eq!(VmValue::zero_of(&tc, tc.f64()), VmValue::F64(0.0));
    }
}
