//! Scalar semantics of the instruction set, and constant folding over it.
//!
//! The first half is the *kernel*: what `add`, `div`, `shr`, the six
//! comparison predicates and the numeric `cast`s mean on plain machine
//! values. It is written once and shared: [`fold_bin`], [`fold_cmp`] and
//! [`fold_cast`] wrap it for [`Const`] operands, the VM's `exec_*` wrap it
//! for run-time values, and each wrapper only converts representation and
//! decides policy — a zero divisor is declined by the folder and trapped
//! by the VM, an unordered float compare is declined by the folder and
//! answered per IEEE by the VM.

use std::cmp::Ordering;

use crate::constant::Const;
use crate::inst::{BinOp, CmpPred};
use crate::types::{IntKind, Type, TypeCtx, TypeId};

/// `a <op> b` on integers of `kind` (canonical payloads in, canonical
/// payload out): arithmetic wraps in the kind, shift counts are taken
/// modulo its width, `shr` and `div`/`rem` follow its signedness. `None`
/// is a zero divisor.
#[inline]
pub fn int_bin(op: BinOp, kind: IntKind, a: i64, b: i64) -> Option<i64> {
    let signed = kind.is_signed();
    let shift = || (b as u64 % kind.bits() as u64) as u32;
    let value = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Rem if b == 0 => return None,
        BinOp::Div if signed => a.wrapping_div(b),
        BinOp::Div => (a as u64).wrapping_div(b as u64) as i64,
        BinOp::Rem if signed => a.wrapping_rem(b),
        BinOp::Rem => (a as u64).wrapping_rem(b as u64) as i64,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(shift()),
        BinOp::Shr if signed => a.wrapping_shr(shift()),
        BinOp::Shr => (((a as u64) & mask(kind)) >> shift()) as i64,
    };
    Some(kind.canonicalize(value))
}

fn mask(kind: IntKind) -> u64 {
    match kind.bits() {
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// `a <op> b` on floating point, computed in double precision (`float`
/// operands widen first and the caller narrows the result). `None` for
/// the bitwise and shift operators, which floats do not have.
#[inline]
pub fn float_bin(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => return None,
    })
}

/// How two integers of `kind` compare, under its signedness.
#[inline]
pub fn int_ord(kind: IntKind, a: i64, b: i64) -> Ordering {
    if kind.is_signed() {
        a.cmp(&b)
    } else {
        (a as u64).cmp(&(b as u64))
    }
}

/// Whether `pred` holds of operands that compare as `ord`. `None` is
/// IEEE unordered (a NaN operand): only `setne` holds.
#[inline]
pub fn pred_holds(pred: CmpPred, ord: Option<Ordering>) -> bool {
    match (pred, ord) {
        (CmpPred::Ne, None) => true,
        (_, None) => false,
        (CmpPred::Eq, Some(o)) => o == Ordering::Equal,
        (CmpPred::Ne, Some(o)) => o != Ordering::Equal,
        (CmpPred::Lt, Some(o)) => o == Ordering::Less,
        (CmpPred::Gt, Some(o)) => o == Ordering::Greater,
        (CmpPred::Le, Some(o)) => o != Ordering::Greater,
        (CmpPred::Ge, Some(o)) => o != Ordering::Less,
    }
}

/// `cast` of an integer of `kind` to floating point.
#[inline]
pub fn int_to_float(kind: IntKind, v: i64) -> f64 {
    if kind.is_signed() {
        v as f64
    } else {
        v as u64 as f64
    }
}

/// `cast` of a float to an integer of `kind`: truncates toward zero,
/// clamps to the 64-bit range of the kind's signedness (NaN gives 0),
/// then wraps to the kind.
#[inline]
pub fn float_to_int(kind: IntKind, v: f64) -> i64 {
    kind.canonicalize(if kind.is_signed() {
        v.clamp(i64::MIN as f64, i64::MAX as f64) as i64
    } else {
        v.clamp(0.0, u64::MAX as f64) as u64 as i64
    })
}

/// Fold a binary operation over two constants.
///
/// Returns `None` when the operation cannot be folded (mismatched kinds,
/// division by zero, non-scalar operands).
pub fn fold_bin(op: BinOp, lhs: &Const, rhs: &Const) -> Option<Const> {
    match (lhs, rhs) {
        (Const::Int { kind, value: a }, Const::Int { kind: kb, value: b }) if kind == kb => {
            let value = int_bin(op, *kind, *a, *b)?;
            Some(Const::Int { kind: *kind, value })
        }
        (Const::F32(a), Const::F32(b)) => {
            let r = float_bin(op, f32::from_bits(*a) as f64, f32::from_bits(*b) as f64)?;
            Some(Const::F32((r as f32).to_bits()))
        }
        (Const::F64(a), Const::F64(b)) => {
            let r = float_bin(op, f64::from_bits(*a), f64::from_bits(*b))?;
            Some(Const::F64(r.to_bits()))
        }
        (Const::Bool(a), Const::Bool(b)) => Some(Const::Bool(match op {
            BinOp::And => *a && *b,
            BinOp::Or => *a || *b,
            BinOp::Xor => *a != *b,
            _ => return None,
        })),
        _ => None,
    }
}

/// Fold a comparison over two constants, producing a boolean. An
/// unordered float compare is not folded.
pub fn fold_cmp(pred: CmpPred, lhs: &Const, rhs: &Const) -> Option<bool> {
    let ord = match (lhs, rhs) {
        (Const::Int { kind, value: a }, Const::Int { kind: kb, value: b }) if kind == kb => {
            int_ord(*kind, *a, *b)
        }
        (Const::Bool(a), Const::Bool(b)) => a.cmp(b),
        (Const::F32(a), Const::F32(b)) => f32::from_bits(*a).partial_cmp(&f32::from_bits(*b))?,
        (Const::F64(a), Const::F64(b)) => f64::from_bits(*a).partial_cmp(&f64::from_bits(*b))?,
        (Const::Null(_), Const::Null(_)) => Ordering::Equal,
        // A global's address is never null.
        (Const::GlobalAddr(_) | Const::FuncAddr(_), Const::Null(_)) => Ordering::Greater,
        (Const::Null(_), Const::GlobalAddr(_) | Const::FuncAddr(_)) => Ordering::Less,
        (Const::GlobalAddr(a), Const::GlobalAddr(b)) if a == b => Ordering::Equal,
        (Const::FuncAddr(a), Const::FuncAddr(b)) if a == b => Ordering::Equal,
        _ => return None,
    };
    Some(pred_holds(pred, Some(ord)))
}

/// Fold a `cast` of a constant to type `to`.
///
/// Conversion semantics: int→int re-canonicalizes (truncate / extend with
/// the *source* signedness); int↔float converts numerically; anything→bool
/// compares against zero; bool→int is 0/1; null→int is 0.
pub fn fold_cast(tc: &TypeCtx, c: &Const, to: TypeId) -> Option<Const> {
    let int = |kind: IntKind, value: i64| Some(Const::Int { kind, value });
    match (c, tc.ty(to)) {
        // Identity-ish pointer casts.
        (Const::Null(_), Type::Ptr(_)) => Some(Const::Null(to)),
        (Const::Undef(_), _) => Some(Const::Undef(to)),
        (Const::GlobalAddr(_) | Const::FuncAddr(_), Type::Ptr(_)) => Some(c.clone()),
        (Const::Null(_), Type::Int(k)) => int(*k, 0),
        (Const::Null(_), Type::Bool) => Some(Const::Bool(false)),
        (Const::Int { value, .. }, Type::Bool) => Some(Const::Bool(*value != 0)),
        // Extension uses the *source* signedness: the canonical payload
        // already is the sign/zero-extended 64-bit image.
        (Const::Int { value, .. }, Type::Int(k)) => int(*k, k.canonicalize(*value)),
        (Const::Int { kind, value }, Type::F32) => {
            Some(Const::F32((int_to_float(*kind, *value) as f32).to_bits()))
        }
        (Const::Int { kind, value }, Type::F64) => {
            Some(Const::F64(int_to_float(*kind, *value).to_bits()))
        }
        (Const::Bool(b), Type::Int(k)) => int(*k, *b as i64),
        (Const::Bool(b), Type::Bool) => Some(Const::Bool(*b)),
        (Const::F32(bits), t) => fold_float_cast(f32::from_bits(*bits) as f64, t),
        (Const::F64(bits), t) => fold_float_cast(f64::from_bits(*bits), t),
        _ => None,
    }
}

fn fold_float_cast(v: f64, to: &Type) -> Option<Const> {
    match to {
        Type::F32 => Some(Const::F32((v as f32).to_bits())),
        Type::F64 => Some(Const::F64(v.to_bits())),
        Type::Bool => Some(Const::Bool(v != 0.0)),
        Type::Int(k) => Some(Const::Int {
            kind: *k,
            value: float_to_int(*k, v),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ic(kind: IntKind, v: i64) -> Const {
        Const::Int {
            kind,
            value: kind.canonicalize(v),
        }
    }

    #[test]
    fn int_arith_wraps() {
        let r = fold_bin(BinOp::Add, &ic(IntKind::U8, 200), &ic(IntKind::U8, 100));
        assert_eq!(r, Some(ic(IntKind::U8, 44)));
        let r = fold_bin(BinOp::Mul, &ic(IntKind::S8, 64), &ic(IntKind::S8, 2));
        assert_eq!(r, Some(ic(IntKind::S8, -128)));
    }

    #[test]
    fn signedness_of_div_and_shr() {
        let r = fold_bin(BinOp::Div, &ic(IntKind::S32, -7), &ic(IntKind::S32, 2));
        assert_eq!(r, Some(ic(IntKind::S32, -3)));
        let r = fold_bin(BinOp::Div, &ic(IntKind::U32, -7), &ic(IntKind::U32, 2));
        assert_eq!(r, Some(ic(IntKind::U32, 0x7FFF_FFFC)));
        let r = fold_bin(BinOp::Shr, &ic(IntKind::S32, -8), &ic(IntKind::S32, 1));
        assert_eq!(r, Some(ic(IntKind::S32, -4)));
        let r = fold_bin(BinOp::Shr, &ic(IntKind::U32, -8), &ic(IntKind::U32, 1));
        assert_eq!(r, Some(ic(IntKind::U32, 0x7FFF_FFFC)));
    }

    #[test]
    fn div_by_zero_not_folded() {
        assert_eq!(
            fold_bin(BinOp::Div, &ic(IntKind::S32, 1), &ic(IntKind::S32, 0)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::Rem, &ic(IntKind::U8, 1), &ic(IntKind::U8, 0)),
            None
        );
    }

    #[test]
    fn unsigned_compare() {
        assert_eq!(
            fold_cmp(CmpPred::Lt, &ic(IntKind::U8, 200), &ic(IntKind::U8, 100)),
            Some(false)
        );
        assert_eq!(
            fold_cmp(CmpPred::Lt, &ic(IntKind::S8, 200), &ic(IntKind::S8, 100)),
            Some(true) // 200 canonicalizes to -56
        );
    }

    #[test]
    fn float_and_nan() {
        let a = Const::F64(1.5f64.to_bits());
        let b = Const::F64(2.5f64.to_bits());
        assert_eq!(fold_cmp(CmpPred::Lt, &a, &b), Some(true));
        let nan = Const::F64(f64::NAN.to_bits());
        assert_eq!(fold_cmp(CmpPred::Lt, &a, &nan), None); // unordered: stay conservative
    }

    #[test]
    fn casts() {
        let tc = TypeCtx::new();
        let c = fold_cast(&tc, &ic(IntKind::S32, -1), tc.u8()).unwrap();
        assert_eq!(c, ic(IntKind::U8, 255));
        let c = fold_cast(&tc, &ic(IntKind::S32, -2), tc.f64()).unwrap();
        assert_eq!(c, Const::F64((-2.0f64).to_bits()));
        let c = fold_cast(&tc, &Const::F64(3.9f64.to_bits()), tc.i32()).unwrap();
        assert_eq!(c, ic(IntKind::S32, 3));
        let c = fold_cast(&tc, &ic(IntKind::S32, 5), tc.bool_()).unwrap();
        assert_eq!(c, Const::Bool(true));
        // unsigned extension uses source signedness via canonical payload
        let c = fold_cast(&tc, &ic(IntKind::U8, 200), tc.i32()).unwrap();
        assert_eq!(c, ic(IntKind::S32, 200));
        let c = fold_cast(&tc, &ic(IntKind::S8, -1), tc.u32()).unwrap();
        assert_eq!(c, ic(IntKind::U32, -1)); // 0xFFFFFFFF
    }
}
