//! Shared constants and primitives of the binary encoding.
//!
//! The design follows the paper's description (§4.1.3): the flat,
//! three-address form gets a simple linear layout in which **most
//! instructions require only a single 32-bit word**, falling back on a
//! 64-bit or larger encoding when operands do not fit.
//!
//! Each instruction is one `u32` *head word*:
//!
//! ```text
//!  bits  0..6   opcode        (35 opcodes)
//!  bits  6..8   format        0 = compact (A and B are inline operands)
//!                             1 = extended (operands follow as varints)
//!  bits  8..20  field A       12 bits
//!  bits 20..32  field B       12 bits
//! ```
//!
//! Variable-length operand lists (call arguments, φ incomings, switch
//! cases, `getelementptr` indices) always follow the head word as LEB128
//! varints; this mirrors the original bytecode, where such instructions
//! also exceeded one word.
//!
//! Operand references use a tagged *valnum*: `inst` references are
//! zigzag-encoded **relative** indices (distance from the using
//! instruction), which keeps them small — the property that lets most
//! instructions fit the compact format.

use lpat_core::{BinOp, CmpPred};

/// Magic bytes at the start of every bytecode file.
pub const MAGIC: [u8; 4] = *b"LPAT";
/// Format version.
pub const VERSION: u32 = 1;

/// Binary opcodes. Kept dense and ≤ 64 so they fit 6 bits.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Op {
    RetVoid = 0,
    RetVal = 1,
    Br = 2,
    CondBr = 3,
    Switch = 4,
    Invoke = 5,
    Unwind = 6,
    Unreachable = 7,
    Add = 8,
    Sub = 9,
    Mul = 10,
    Div = 11,
    Rem = 12,
    And = 13,
    Or = 14,
    Xor = 15,
    Shl = 16,
    Shr = 17,
    SetEq = 18,
    SetNe = 19,
    SetLt = 20,
    SetGt = 21,
    SetLe = 22,
    SetGe = 23,
    Malloc = 24,
    MallocN = 25,
    Free = 26,
    Alloca = 27,
    AllocaN = 28,
    Load = 29,
    Store = 30,
    Gep = 31,
    Phi = 32,
    Call = 33,
    Cast = 34,
    VaArg = 35,
}

impl Op {
    /// Decode a 6-bit opcode.
    pub fn from_u8(v: u8) -> Option<Op> {
        if v <= 35 {
            // SAFETY-free: exhaustive match keeps this honest.
            Some(match v {
                0 => Op::RetVoid,
                1 => Op::RetVal,
                2 => Op::Br,
                3 => Op::CondBr,
                4 => Op::Switch,
                5 => Op::Invoke,
                6 => Op::Unwind,
                7 => Op::Unreachable,
                8 => Op::Add,
                9 => Op::Sub,
                10 => Op::Mul,
                11 => Op::Div,
                12 => Op::Rem,
                13 => Op::And,
                14 => Op::Or,
                15 => Op::Xor,
                16 => Op::Shl,
                17 => Op::Shr,
                18 => Op::SetEq,
                19 => Op::SetNe,
                20 => Op::SetLt,
                21 => Op::SetGt,
                22 => Op::SetLe,
                23 => Op::SetGe,
                24 => Op::Malloc,
                25 => Op::MallocN,
                26 => Op::Free,
                27 => Op::Alloca,
                28 => Op::AllocaN,
                29 => Op::Load,
                30 => Op::Store,
                31 => Op::Gep,
                32 => Op::Phi,
                33 => Op::Call,
                34 => Op::Cast,
                _ => Op::VaArg,
            })
        } else {
            None
        }
    }

    /// The binary opcode for a binary operator.
    pub fn from_bin(op: BinOp) -> Op {
        match op {
            BinOp::Add => Op::Add,
            BinOp::Sub => Op::Sub,
            BinOp::Mul => Op::Mul,
            BinOp::Div => Op::Div,
            BinOp::Rem => Op::Rem,
            BinOp::And => Op::And,
            BinOp::Or => Op::Or,
            BinOp::Xor => Op::Xor,
            BinOp::Shl => Op::Shl,
            BinOp::Shr => Op::Shr,
        }
    }

    /// The binary operator for an opcode in the binop range.
    pub fn to_bin(self) -> Option<BinOp> {
        Some(match self {
            Op::Add => BinOp::Add,
            Op::Sub => BinOp::Sub,
            Op::Mul => BinOp::Mul,
            Op::Div => BinOp::Div,
            Op::Rem => BinOp::Rem,
            Op::And => BinOp::And,
            Op::Or => BinOp::Or,
            Op::Xor => BinOp::Xor,
            Op::Shl => BinOp::Shl,
            Op::Shr => BinOp::Shr,
            _ => return None,
        })
    }

    /// The binary opcode for a comparison predicate.
    pub fn from_pred(p: CmpPred) -> Op {
        match p {
            CmpPred::Eq => Op::SetEq,
            CmpPred::Ne => Op::SetNe,
            CmpPred::Lt => Op::SetLt,
            CmpPred::Gt => Op::SetGt,
            CmpPred::Le => Op::SetLe,
            CmpPred::Ge => Op::SetGe,
        }
    }

    /// The comparison predicate for an opcode in the setcc range.
    pub fn to_pred(self) -> Option<CmpPred> {
        Some(match self {
            Op::SetEq => CmpPred::Eq,
            Op::SetNe => CmpPred::Ne,
            Op::SetLt => CmpPred::Lt,
            Op::SetGt => CmpPred::Gt,
            Op::SetLe => CmpPred::Le,
            Op::SetGe => CmpPred::Ge,
            _ => return None,
        })
    }
}

/// Maximum value an inline 12-bit field can carry (one value is reserved).
pub const FIELD_MAX: u32 = 0xFFE;

/// Pack a head word.
pub fn pack_head(op: Op, fmt: u8, a: u32, b: u32) -> u32 {
    debug_assert!(a <= 0xFFF && b <= 0xFFF && fmt < 4);
    (op as u32) | ((fmt as u32) << 6) | (a << 8) | (b << 20)
}

/// Unpack a head word into `(op, fmt, a, b)`.
pub fn unpack_head(w: u32) -> (u8, u8, u32, u32) {
    (
        (w & 0x3F) as u8,
        ((w >> 6) & 0x3) as u8,
        (w >> 8) & 0xFFF,
        (w >> 20) & 0xFFF,
    )
}

/// Append a LEB128-encoded `u64`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encode a signed value for varint storage.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A read cursor over the byte stream.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bytecode decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Whether the stream is exhausted.
    pub fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read one byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| DecodeError("unexpected end of stream".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// Bytes left in the stream. The upper bound for any declared element
    /// count — see [`Reader::bounded_count`].
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // checked_add: `pos + n` must not wrap on a hostile 64-bit length.
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DecodeError("unexpected end of stream".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a LEB128 `u64`.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError("varint too long".into()));
            }
        }
    }

    /// Read a varint and narrow to `usize`.
    pub fn vusize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.varint()?)
            .map_err(|_| DecodeError("length field exceeds usize".into()))
    }

    /// Read a declared element count and bound it against the remaining
    /// input, given a minimum encoded size per element. A hostile header
    /// can then never drive a preallocation past the input's own length —
    /// `Vec::with_capacity(count)` stays proportional to real data.
    pub fn bounded_count(
        &mut self,
        what: &str,
        min_elem_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let n = self.vusize()?;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(DecodeError(format!(
                "declared {what} count {n} exceeds remaining input ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.vusize()?;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError("invalid UTF-8 in name".into()))
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.at_end());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1i64, 0, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn head_word_roundtrip() {
        let w = pack_head(Op::Add, 0, 0xABC, 0x123);
        let (op, fmt, a, b) = unpack_head(w);
        assert_eq!(Op::from_u8(op), Some(Op::Add));
        assert_eq!(fmt, 0);
        assert_eq!(a, 0xABC);
        assert_eq!(b, 0x123);
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for v in 0..=35u8 {
            let op = Op::from_u8(v).unwrap();
            assert_eq!(op as u8, v);
        }
        assert_eq!(Op::from_u8(36), None);
    }
}
