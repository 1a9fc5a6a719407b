//! # Two-pass "fast" backend: lpat IR → risc32 machine words
//!
//! A TPDE-style low-latency backend (PAPERS.md: "TPDE: A Fast Adaptable
//! Compiler Back-End Framework"): one analysis pass, then instruction
//! selection and binary encoding fused into **one forward walk** of the IR
//! per function. There is no MIR and no iterative allocator — the analysis
//! ([`crate::regalloc`]: blocks in reverse post-order, each value's live
//! range, one linear scan) and the emission are each linear in the
//! function, which is what lets the tiered VM afford a third tier.
//!
//! ## Value model
//!
//! Every SSA value is assigned a [`Class`] from its static type and one
//! **home** for its whole live range: a register of the risc32 file, or a
//! frame slot where the file is full (spill on pressure). Registers hold
//! the low 32 bits of the interpreter's canonical two's-complement value:
//!
//! * classes ≤ 32 bits (`Bool`, `S8`…`U32`, `Ptr`) are **exact**: the
//!   canonical `i64` is the sign/zero-extension of the register, so every
//!   operation below reproduces interpreter semantics bit-for-bit;
//! * 64-bit integers get the [`Class::L64`] *low-word view*: the register
//!   carries only the low 32 bits, and the translator admits exactly the
//!   operations whose observable result is determined by those bits
//!   (add/sub/mul/bitwise, GEP indexing, truncating casts, 8-byte loads).
//!   Anything else — compares, shifts, division, stores, returns, call
//!   arguments — **bails out** of native translation for the whole
//!   function, demoting it to the `LowFunc` JIT tier;
//! * floats always bail: the risc32 executable subset is an integer file.
//!
//! Bailing is an `Err(String)` from [`translate_fast`]; it is a *tiering*
//! decision, never a semantic one. The VM keeps such functions on the JIT
//! tier, which handles every type.
//!
//! ## Register file
//!
//! 32 × `u32`. `r0` is hardwired zero; `r1`–`r3` are translator scratch
//! (wide constants, spill staging, φ-cycle breaking); `r4`–`r31` (28
//! registers) are allocatable homes, handed out by the linear scan of
//! [`crate::regalloc`] to live ranges that do not overlap. A home is
//! shared by values never live at once, and a result may take the home
//! of an operand that dies at it; a value spills to a frame slot only
//! where more than 28 ranges overlap. So a frame is entered (a call, or
//! on-stack replacement at a loop header) by copying exactly the values
//! live into that block: [`FastFunc::live_in`] lists them, with their
//! homes, for the entry block and each loop header.
//!
//! Constants that fit a signed 14-bit field fold into the
//! register-immediate form of their op (`ADDI`, `MULI`, `ANDI`, `ORI`,
//! `XORI`, the shifts, `CMPI`, a GEP stride's `MADDI`); a wider one is
//! built by `LUI`+`ORI` in the destination when no operand is read from
//! it.
//!
//! ## Encoding
//!
//! Fixed 4-byte words in four formats (see [`enc`]); side tables carry the
//! data a fixed-width word cannot (φ-edge copy lists, call descriptors,
//! switch tables), exactly as real RISC binaries park jump tables and
//! relocation records out of line. Accounting words ([`enc::ACCT`]) mark
//! the start of each IR instruction's machine sequence with its opcode
//! index; the emulator's decoder groups them into accounting regions it
//! charges once each, so fuel metering and the opcode histogram stay *per
//! IR instruction*, identical to the interpreter.

use lpat_core::{
    BinOp, BlockId, CmpPred, Const, FuncId, Function, GepStep, Inst, InstId, IntKind, Module, Type,
    TypeId, Value,
};

use crate::regalloc::{self, Assign};

// ----------------------------------------------------------------------
// Value classes
// ----------------------------------------------------------------------

/// Static class of an SSA value in the native value model.
///
/// Classes ≤ 32 bits are exact (register = low 32 bits of the canonical
/// value = the whole value); `L64` is the low-word view of a 64-bit
/// integer; floats have no class and force a bail-out.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Class {
    /// `bool`: register holds 0 or 1.
    Bool,
    /// `sbyte`: register holds the 32-bit sign-extension of the value.
    S8,
    /// `ubyte`: register holds the zero-extension of the value.
    U8,
    /// `short`.
    S16,
    /// `ushort`.
    U16,
    /// `int`: register is the value (two's complement).
    S32,
    /// `uint`: register is the value.
    U32,
    /// Any pointer: register is the 32-bit address.
    Ptr,
    /// 64-bit integer, low-word view: register holds the low 32 bits
    /// only. Admitted for operations whose result is determined by the
    /// low word; everything else bails.
    L64,
}

impl Class {
    /// Stable numeric code used in instruction `extra` fields and tables.
    pub fn code(self) -> u16 {
        match self {
            Class::Bool => 0,
            Class::S8 => 1,
            Class::U8 => 2,
            Class::S16 => 3,
            Class::U16 => 4,
            Class::S32 => 5,
            Class::U32 => 6,
            Class::Ptr => 7,
            Class::L64 => 8,
        }
    }

    /// Inverse of [`Class::code`].
    pub fn from_code(c: u16) -> Option<Class> {
        Some(match c {
            0 => Class::Bool,
            1 => Class::S8,
            2 => Class::U8,
            3 => Class::S16,
            4 => Class::U16,
            5 => Class::S32,
            6 => Class::U32,
            7 => Class::Ptr,
            8 => Class::L64,
            _ => return None,
        })
    }

    /// Class of an integer kind (both 64-bit kinds map to the `L64`
    /// low-word view).
    pub fn of_kind(k: IntKind) -> Class {
        classify_kind(k)
    }

    /// The integer kind for integer classes (including `L64` → `S64`;
    /// the emulator never reconstructs an `L64` scalar, it only needs the
    /// kind for 8-byte memory accesses, where `S64`/`U64` are identical).
    pub fn int_kind(self) -> Option<IntKind> {
        Some(match self {
            Class::S8 => IntKind::S8,
            Class::U8 => IntKind::U8,
            Class::S16 => IntKind::S16,
            Class::U16 => IntKind::U16,
            Class::S32 => IntKind::S32,
            Class::U32 => IntKind::U32,
            Class::L64 => IntKind::S64,
            Class::Bool | Class::Ptr => return None,
        })
    }

    /// Bit width for shift masking and renormalisation (≤ 32-bit ints).
    fn bits(self) -> Option<u16> {
        Some(match self {
            Class::S8 | Class::U8 => 8,
            Class::S16 | Class::U16 => 16,
            Class::S32 | Class::U32 => 32,
            _ => return None,
        })
    }

    fn is_signed_int(self) -> bool {
        matches!(self, Class::S8 | Class::S16 | Class::S32)
    }

    fn is_narrow(self) -> bool {
        matches!(self, Class::S8 | Class::U8 | Class::S16 | Class::U16)
    }

    /// The register image of a value's low word `v` in this class: a
    /// narrow class sign- or zero-extends its low 8 or 16 bits, any
    /// other keeps the word.
    pub fn norm(self, v: u32) -> u32 {
        match self {
            Class::S8 => v as i8 as i32 as u32,
            Class::U8 => v & 0xFF,
            Class::S16 => v as i16 as i32 as u32,
            Class::U16 => v & 0xFFFF,
            _ => v,
        }
    }

    /// Whether the register representation is the full canonical value
    /// (everything except the `L64` low-word view).
    pub fn is_exact(self) -> bool {
        !matches!(self, Class::L64)
    }
}

/// Classify a type: `Ok(None)` for void (no value), `Ok(Some)` for a
/// representable first-class type, `Err` when the type forces a bail-out.
fn classify(m: &Module, t: TypeId) -> Result<Option<Class>, String> {
    Ok(Some(match m.types.ty(t) {
        Type::Void => return Ok(None),
        Type::Bool => Class::Bool,
        Type::Int(k) => match k {
            IntKind::S8 => Class::S8,
            IntKind::U8 => Class::U8,
            IntKind::S16 => Class::S16,
            IntKind::U16 => Class::U16,
            IntKind::S32 => Class::S32,
            IntKind::U32 => Class::U32,
            IntKind::S64 | IntKind::U64 => Class::L64,
        },
        Type::Ptr(_) => Class::Ptr,
        Type::F32 | Type::F64 => return Err("float value".into()),
        other => return Err(format!("non-scalar value type {other:?}")),
    }))
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

/// Binary word formats and opcode assignments of the risc32 executable
/// subset.
///
/// All words are 32 bits, opcode in the top byte. Formats:
///
/// * **R**: `op(8) | rd(5) | ra(5) | rb(5) | extra(9)` — three-address ALU,
///   memory and compare ops; `extra` carries the class/predicate.
/// * **I**: `op(8) | rd(5) | ra(5) | imm14` — register-immediate ALU
///   ops and compares, spill-slot traffic, conditional branch (edge
///   index), `ret` flags. `imm14` is signed for ALU operands and unsigned
///   for shift amounts and indices.
/// * **U**: `op(8) | rd(5) | imm19` — `LUI` loads `imm19 << 13`; paired
///   with `ORI`'s 13-bit immediate it materialises any 32-bit constant in
///   two words (the classic `sethi`/`or` split).
/// * **E**: `op(8) | idx(24)` — edge/descriptor/table references and
///   accounting words.
pub mod enc {
    /// Accounting word (format E): `idx` is the IR opcode index of the
    /// instruction whose machine sequence begins at the next executable
    /// op.
    pub const ACCT: u8 = 0x00;
    /// `rd = ra + rb` (wrapping).
    pub const ADD: u8 = 0x01;
    /// `rd = ra - rb` (wrapping).
    pub const SUB: u8 = 0x02;
    /// `rd = ra * rb` (wrapping).
    pub const MUL: u8 = 0x03;
    /// `rd = rd + ra * rb` (wrapping) — GEP address chains.
    pub const MADD: u8 = 0x04;
    /// `rd = ra & rb`.
    pub const AND: u8 = 0x05;
    /// `rd = ra | rb`.
    pub const OR: u8 = 0x06;
    /// `rd = ra ^ rb`.
    pub const XOR: u8 = 0x07;
    /// `rd = ra << (rb & (extra-1))`; `extra` = operand bit width.
    pub const SLL: u8 = 0x08;
    /// Logical right shift, same masking.
    pub const SRL: u8 = 0x09;
    /// Arithmetic right shift, same masking.
    pub const SRA: u8 = 0x0A;
    /// Signed division (traps DivByZero at run time).
    pub const DIVS: u8 = 0x0B;
    /// Unsigned division.
    pub const DIVU: u8 = 0x0C;
    /// Signed remainder.
    pub const REMS: u8 = 0x0D;
    /// Unsigned remainder.
    pub const REMU: u8 = 0x0E;
    /// `rd = ra <pred> rb`; `extra` bits 0–2 = predicate
    /// (eq,ne,lt,gt,le,ge), bit 3 = unsigned compare.
    pub const CMP: u8 = 0x0F;
    /// `rd = (ra != 0)` — casts to bool.
    pub const SETNZ: u8 = 0x10;
    /// Renormalise `ra` to the narrow class in `extra` (sign/zero-extend
    /// its low 8/16 bits over the register) — keeps narrow arithmetic
    /// canonical. Charges nothing.
    pub const NORM: u8 = 0x11;
    /// `rd = ra`.
    pub const MOV: u8 = 0x12;
    /// `rd = ra * simm14` (wrapping).
    pub const MULI: u8 = 0x13;
    /// `rd = ra & simm14`.
    pub const ANDI: u8 = 0x14;
    /// `rd = ra ^ simm14`.
    pub const XORI: u8 = 0x15;
    /// `rd = ra << uimm14`; the amount is masked to the operand width at
    /// translation.
    pub const SLLI: u8 = 0x16;
    /// Logical right shift by an immediate, same masking.
    pub const SRLI: u8 = 0x17;
    /// `rd = ra + simm14`.
    pub const ADDI: u8 = 0x18;
    /// `rd = simm14`.
    pub const LDI: u8 = 0x19;
    /// `rd = imm19 << 13` (format U).
    pub const LUI: u8 = 0x1A;
    /// `rd = ra | simm14` (`LUI`'s partner: a 13-bit low part is positive).
    pub const ORI: u8 = 0x1B;
    /// `rd = slots[uimm14]` — spill reload.
    pub const LDS: u8 = 0x1C;
    /// `slots[uimm14] = ra` — spill store.
    pub const STS: u8 = 0x1D;
    /// Arithmetic right shift by an immediate, same masking as `SLLI`.
    pub const SRAI: u8 = 0x1E;
    /// `rd = rd + ra * simm14` (wrapping) — a GEP index times its stride.
    pub const MADDI: u8 = 0x1F;
    /// `rd = ra <pred> simm14`: one opcode per predicate, `CMPI + code`
    /// with `code` as in [`CMP`]'s `extra` (bits 0–2 predicate, bit 3
    /// unsigned); the sixteen opcodes from `CMPI` are compares.
    pub const CMPI: u8 = 0x30;
    /// The last opcode of the `CMPI` family.
    pub const CMPI_LAST: u8 = CMPI + 15;
    /// Memory load: `rd = mem[ra]` at the class in `extra` (full access
    /// checks; `L64` checks 8 bytes and keeps the low word).
    pub const LD: u8 = 0x20;
    /// Memory store: `mem[ra] = rb` at the class in `extra`.
    pub const ST: u8 = 0x21;
    /// Allocate: `rd = alloc(rb_elem_size × count(ra))`; `extra` bit 0 =
    /// stack (alloca), bit 1 = count-is-one, bit 2 = count unsigned.
    pub const ALLOC: u8 = 0x22;
    /// Free the pointer in `ra`.
    pub const FREE: u8 = 0x23;
    /// Unconditional branch through edge `idx` (format E).
    pub const BR: u8 = 0x28;
    /// Branch through edge `uimm14` when `ra != 0`.
    pub const CBNZ: u8 = 0x29;
    /// Multi-way branch: scrutinee `ra`, switch table `uimm14`.
    pub const SWITCH: u8 = 0x2A;
    /// Call through descriptor `idx` (format E).
    pub const CALLD: u8 = 0x2B;
    /// Return; `imm14` bit 0 = has-value, bits 1–4 = value class, value
    /// in `ra`.
    pub const RET: u8 = 0x2C;
    /// Begin unwinding (format E).
    pub const UNWIND: u8 = 0x2D;
    /// Unreachable-executed trap (format E).
    pub const UNREACHABLE: u8 = 0x2E;

    /// Hardwired zero register.
    pub const R_ZERO: u8 = 0;
    /// First scratch register (immediates, first spilled operand,
    /// φ-cycle temporary).
    pub const R_S1: u8 = 1;
    /// Second scratch register (second spilled operand).
    pub const R_S2: u8 = 2;
    /// Third scratch register (spilled destinations before `STS`).
    pub const R_S3: u8 = 3;
    /// First allocatable register.
    pub const R_FIRST: u8 = 4;
    /// Register file size.
    pub const NUM_REGS: usize = 32;

    /// Pack an R-format word.
    pub fn r(op: u8, rd: u8, ra: u8, rb: u8, extra: u16) -> u32 {
        debug_assert!(rd < 32 && ra < 32 && rb < 32 && extra < 512);
        (op as u32) << 24 | (rd as u32) << 19 | (ra as u32) << 14 | (rb as u32) << 9 | extra as u32
    }

    /// Whether a 32-bit constant fits a signed 14-bit immediate field.
    pub fn fits14(k: u32) -> bool {
        (-(1 << 13)..(1 << 13)).contains(&(k as i32))
    }

    /// A constant that [`fits14`], reduced to the field.
    pub fn imm14(k: u32) -> u32 {
        k & 0x3FFF
    }

    /// Pack an I-format word (`imm` already reduced to 14 bits).
    pub fn i(op: u8, rd: u8, ra: u8, imm: u32) -> u32 {
        debug_assert!(rd < 32 && ra < 32 && imm < (1 << 14));
        (op as u32) << 24 | (rd as u32) << 19 | (ra as u32) << 14 | imm
    }

    /// Pack a U-format word.
    pub fn u(op: u8, rd: u8, imm19: u32) -> u32 {
        debug_assert!(rd < 32 && imm19 < (1 << 19));
        (op as u32) << 24 | (rd as u32) << 19 | imm19
    }

    /// Pack an E-format word.
    pub fn e(op: u8, idx: u32) -> u32 {
        debug_assert!(idx < (1 << 24));
        (op as u32) << 24 | idx
    }

    /// Opcode byte of a word.
    pub fn op(w: u32) -> u8 {
        (w >> 24) as u8
    }
    /// `rd` field.
    pub fn rd(w: u32) -> u8 {
        ((w >> 19) & 31) as u8
    }
    /// `ra` field.
    pub fn ra(w: u32) -> u8 {
        ((w >> 14) & 31) as u8
    }
    /// `rb` field.
    pub fn rb(w: u32) -> u8 {
        ((w >> 9) & 31) as u8
    }
    /// R-format `extra` field.
    pub fn extra(w: u32) -> u16 {
        (w & 511) as u16
    }
    /// I-format immediate, sign-extended.
    pub fn simm14(w: u32) -> i32 {
        ((w as i32) << 18) >> 18
    }
    /// I-format immediate, unsigned.
    pub fn uimm14(w: u32) -> u32 {
        w & 0x3FFF
    }
    /// U-format immediate.
    pub fn imm19(w: u32) -> u32 {
        w & 0x7FFFF
    }
    /// E-format index.
    pub fn idx24(w: u32) -> u32 {
        w & 0xFF_FFFF
    }
}

// ----------------------------------------------------------------------
// Side tables
// ----------------------------------------------------------------------

/// A value's storage for its whole live range.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Home {
    /// An allocatable register (`r4`–`r31`).
    Reg(u8),
    /// A frame spill slot.
    Slot(u16),
}

/// A copy/argument source: a home or a pre-evaluated 32-bit immediate.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Src {
    /// Read a register.
    Reg(u8),
    /// Read a frame slot.
    Slot(u16),
    /// A constant's low 32 bits.
    Imm(u32),
}

impl From<Home> for Src {
    fn from(h: Home) -> Src {
        match h {
            Home::Reg(r) => Src::Reg(r),
            Home::Slot(s) => Src::Slot(s),
        }
    }
}

/// One φ-copy on an edge, already sequentialised (safe to apply in order).
#[derive(Clone, Debug)]
pub struct FastCopy {
    /// Destination home (scratch `r1` appears as `Reg(1)` in cycle breaks).
    pub dst: Home,
    /// Source location or immediate.
    pub src: Src,
}

/// A control-flow edge: φ-copies plus the branch target, with the CFG
/// metadata the profiler and tier ladder need.
#[derive(Clone, Debug)]
pub struct FastEdge {
    /// Sequentialised parallel copy for the target block's φs.
    pub copies: Vec<FastCopy>,
    /// Word index of the target block's first word.
    pub target: u32,
    /// Source block index.
    pub from: u32,
    /// Target block index.
    pub to: u32,
    /// Whether this is a loop back-edge (`to <= from`), the tier ladder's
    /// hotness signal.
    pub back: bool,
}

/// Call target in a descriptor.
#[derive(Clone, Debug)]
pub enum FastCallee {
    /// Statically known function.
    Direct(FuncId),
    /// Function pointer read from `Src` at call time.
    Indirect(Src),
}

/// Out-of-line call descriptor referenced by a [`enc::CALLD`] word.
#[derive(Clone, Debug)]
pub struct FastCall {
    /// Callee.
    pub callee: FastCallee,
    /// Actual arguments with the classes used to rebuild scalar values at
    /// the call boundary.
    pub args: Vec<(Src, Class)>,
    /// Return-value home and class, when the callee's result is used.
    pub dst: Option<(Home, Class)>,
    /// `(normal, unwind)` edge indices for invokes.
    pub eh: Option<(u32, u32)>,
    /// IR instruction id of the call site (profiling key).
    pub site: u32,
}

/// Out-of-line switch table referenced by a [`enc::SWITCH`] word.
#[derive(Clone, Debug)]
pub struct FastSwitch {
    /// `(case value low word, edge index)`, compared in order. Case
    /// constants share the scrutinee's (≤ 32-bit) kind, so comparing low
    /// words equals comparing canonical values.
    pub cases: Vec<(u32, u32)>,
    /// Default edge index.
    pub default: u32,
}

/// A translated function: the word buffer plus its side tables.
#[derive(Clone, Debug)]
pub struct FastFunc {
    /// Encoded machine words.
    pub words: Vec<u32>,
    /// Word index of each block's first word (φs emit no code, so this is
    /// also the on-stack-replacement entry point of the block).
    pub block_word: Vec<u32>,
    /// Edge table.
    pub edges: Vec<FastEdge>,
    /// Call descriptors.
    pub calls: Vec<FastCall>,
    /// Switch tables.
    pub switches: Vec<FastSwitch>,
    /// Number of frame spill slots.
    pub n_slots: u32,
    /// Home and class of each formal argument.
    pub arg_homes: Vec<(Home, Class)>,
    /// Where a frame can be entered — the entry block (a call) and each
    /// loop header (on-stack replacement at a back edge) — the block index
    /// and the values live into it, with their homes and classes,
    /// ascending by block. Homes are shared between values that are never
    /// live at once, so a frame is entered by copying exactly these.
    pub live_in: Vec<(u32, LiveIn)>,
    /// Function name (diagnostics, trace spans).
    pub name: String,
}

/// The values live into a block where a frame can be entered, with the
/// home and class of each.
pub type LiveIn = Vec<(Value, Home, Class)>;

/// Engine facts the translator needs but must not compute itself: the
/// address layout, which the VM owns.
pub struct FastEnv<'a> {
    /// Address of a function (for `FuncAddr` constants).
    pub func_addr: &'a dyn Fn(FuncId) -> u32,
    /// Address of a global by index, if the engine has laid it out.
    pub global_addr: &'a dyn Fn(usize) -> Option<u32>,
    /// Ignored: a speculation guard is a conditional branch like any
    /// other. Kept only because the benchmark (`lpbench/`) builds this
    /// struct by literal; ROADMAP 1(b) deletes it.
    pub guarded: &'a dyn Fn(InstId) -> bool,
}

// ----------------------------------------------------------------------
// Translation
// ----------------------------------------------------------------------

/// Operand as seen during emission.
#[derive(Copy, Clone)]
enum Opnd {
    Home(Home, Class),
    Imm(u32, Class),
}

impl Opnd {
    fn class(&self) -> Class {
        match *self {
            Opnd::Home(_, c) | Opnd::Imm(_, c) => c,
        }
    }
    fn src(&self) -> Src {
        match *self {
            Opnd::Home(h, _) => h.into(),
            Opnd::Imm(k, _) => Src::Imm(k),
        }
    }
    /// Whether the operand is read from register `r`.
    fn in_reg(&self, r: u8) -> bool {
        matches!(*self, Opnd::Home(Home::Reg(x), _) if x == r)
    }
}

struct Tr<'a> {
    m: &'a Module,
    f: &'a Function,
    env: &'a FastEnv<'a>,
    words: Vec<u32>,
    block_word: Vec<u32>,
    edges: Vec<FastEdge>,
    calls: Vec<FastCall>,
    switches: Vec<FastSwitch>,
    homes: Vec<Option<(Home, Class)>>,
    arg_homes: Vec<(Home, Class)>,
    /// Per instruction: never read (its φ needs no copies).
    unused: Vec<bool>,
    n_slots: u32,
}

/// Translate one function to native words: the analysis pass, then one
/// forward emission pass.
///
/// `Err` means "this function stays on the JIT tier" — unsupported types
/// or operations, or encoding limits. The error text names the first
/// reason encountered.
pub fn translate_fast(m: &Module, fid: FuncId, env: &FastEnv) -> Result<FastFunc, String> {
    let f = m.func(fid);
    if f.is_declaration() {
        return Err("declaration has no body".into());
    }
    if f.is_varargs() {
        // Native frames carry no vararg vector; `va_arg` callees stay on
        // the JIT tier.
        return Err("varargs function".into());
    }

    // -- classes -------------------------------------------------------
    let mut arg_classes = Vec::with_capacity(f.num_params());
    for &p in f.params() {
        match classify(m, p)? {
            Some(c) => arg_classes.push(c),
            None => return Err("void parameter".into()),
        }
    }
    let n_insts = f.num_inst_slots();
    let mut inst_class: Vec<Option<Class>> = vec![None; n_insts];
    for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            inst_class[iid.index()] = classify(m, f.inst_ty(iid))?;
        }
    }

    // -- analysis: live ranges over the blocks in reverse post-order ---
    // A frame can be entered at the entry block (a call) and at each loop
    // header, where a back edge can move a running frame into machine
    // code; those blocks get a table of the values live into them.
    let mut entries = vec![f.entry()];
    for b in f.block_ids() {
        if let Some(t) = f.terminator(b) {
            f.inst(t).for_each_successor(|s| {
                if s.index() <= b.index() {
                    entries.push(s);
                }
            });
        }
    }
    entries.sort_unstable();
    entries.dedup();
    let params = arg_classes.len();
    let mut live = regalloc::live_ranges(f, &entries);
    for (i, c) in inst_class.iter().enumerate() {
        if c.is_none() {
            live.range[params + i] = None; // no value, no home
        }
    }

    // -- allocation: one linear scan hands out the 28 register homes ---
    let n_regs = (enc::NUM_REGS - enc::R_FIRST as usize) as u8;
    let (assign, n_slots) = regalloc::linear_scan(&live.range, n_regs);
    if n_slots > 16_000 {
        return Err("frame too large for slot encoding".into());
    }
    let home = |v: usize| match assign[v] {
        Assign::Reg(r) => Home::Reg(enc::R_FIRST + r),
        Assign::Slot(s) => Home::Slot(s as u16),
        // Never read: written to scratch.
        Assign::Dead => Home::Reg(enc::R_S3),
    };
    let arg_homes: Vec<(Home, Class)> = (arg_classes.iter().enumerate())
        .map(|(v, &c)| (home(v), c))
        .collect();
    let homes: Vec<Option<(Home, Class)>> = (inst_class.iter().enumerate())
        .map(|(i, c)| c.map(|c| (home(params + i), c)))
        .collect();
    let live_in = (entries.iter().zip(&live.live_in))
        .map(|(b, vals)| {
            let vals = vals.iter().map(|&v| {
                let v = v as usize;
                match v.checked_sub(params) {
                    None => (Value::Arg(v as u32), arg_homes[v].0, arg_homes[v].1),
                    Some(i) => {
                        let (h, c) = homes[i].expect("a live value has a class");
                        (Value::Inst(InstId::from_index(i)), h, c)
                    }
                }
            });
            (b.index() as u32, vals.collect())
        })
        .collect();
    let unused = (0..n_insts)
        .map(|i| live.range[params + i].is_some_and(|(s, e)| s == e))
        .collect();

    let mut tr = Tr {
        m,
        f,
        env,
        words: Vec::new(),
        block_word: Vec::new(),
        edges: Vec::new(),
        calls: Vec::new(),
        switches: Vec::new(),
        homes,
        arg_homes,
        unused,
        n_slots,
    };

    // -- emission: one forward walk ------------------------------------
    for b in f.block_ids() {
        tr.block_word.push(tr.words.len() as u32);
        let insts = f.block_insts(b);
        if insts.is_empty() {
            return Err("block without terminator".into());
        }
        for &iid in insts {
            tr.emit_inst(b, iid)?;
        }
    }

    // Resolve edge targets now that every block's word offset is known
    // (the only fixup in the pass; TPDE does the same for forward jumps).
    for e in &mut tr.edges {
        e.target = tr.block_word[e.to as usize];
    }

    Ok(FastFunc {
        words: tr.words,
        block_word: tr.block_word,
        edges: tr.edges,
        calls: tr.calls,
        switches: tr.switches,
        n_slots: tr.n_slots,
        arg_homes: tr.arg_homes,
        live_in,
        name: f.name().to_string(),
    })
}

impl<'a> Tr<'a> {
    fn word(&mut self, w: u32) {
        self.words.push(w);
    }

    fn acct(&mut self, inst: &Inst) {
        self.word(enc::e(enc::ACCT, inst.opcode_index() as u32));
    }

    /// Evaluate a `Value` to an operand (no code emitted).
    fn opnd(&mut self, v: Value) -> Result<Opnd, String> {
        match v {
            Value::Inst(i) => self.homes[i.index()]
                .map(|(h, c)| Opnd::Home(h, c))
                .ok_or_else(|| "use of void value".into()),
            Value::Arg(a) => self
                .arg_homes
                .get(a as usize)
                .map(|&(h, c)| Opnd::Home(h, c))
                .ok_or_else(|| "argument out of range".into()),
            Value::Const(c) => self.const_opnd(c),
        }
    }

    fn const_opnd(&mut self, c: lpat_core::ConstId) -> Result<Opnd, String> {
        Ok(match self.m.consts.get(c) {
            Const::Bool(b) => Opnd::Imm(*b as u32, Class::Bool),
            Const::Int { kind, value } => {
                let class = classify_kind(*kind);
                Opnd::Imm(*value as u32, class)
            }
            Const::Null(_) => Opnd::Imm(0, Class::Ptr),
            Const::Undef(t) | Const::Zero(t) => match classify(self.m, *t)? {
                Some(cl) => Opnd::Imm(0, cl),
                None => return Err("void constant".into()),
            },
            Const::FuncAddr(f) => Opnd::Imm((self.env.func_addr)(*f), Class::Ptr),
            Const::GlobalAddr(g) => match (self.env.global_addr)(g.index()) {
                Some(addr) => Opnd::Imm(addr, Class::Ptr),
                None => return Err("global address unavailable".into()),
            },
            Const::F32(_) | Const::F64(_) => return Err("float constant".into()),
            other => return Err(format!("aggregate constant {other:?} as scalar")),
        })
    }

    /// Materialise a 32-bit constant into `rd`.
    fn load_imm(&mut self, rd: u8, k: u32) {
        if enc::fits14(k) {
            self.word(enc::i(enc::LDI, rd, 0, enc::imm14(k)));
        } else {
            self.word(enc::u(enc::LUI, rd, k >> 13));
            if k & 0x1FFF != 0 {
                self.word(enc::i(enc::ORI, rd, rd, k & 0x1FFF));
            }
        }
    }

    /// Bring an operand into a register, spilling through `scratch` when
    /// it lives in a slot or is a constant. Returns the register to read.
    fn use_reg(&mut self, o: Opnd, scratch: u8) -> u8 {
        match o {
            Opnd::Home(Home::Reg(r), _) => r,
            Opnd::Home(Home::Slot(s), _) => {
                self.word(enc::i(enc::LDS, scratch, 0, s as u32));
                scratch
            }
            Opnd::Imm(0, _) => enc::R_ZERO,
            Opnd::Imm(k, _) => {
                self.load_imm(scratch, k);
                scratch
            }
        }
    }

    /// Register to compute a destination into; the closer writes it back
    /// to the slot when the home is spilled.
    fn dst_reg(&self, iid: InstId) -> Option<(u8, Option<u16>)> {
        self.homes[iid.index()].map(|(h, _)| match h {
            Home::Reg(r) => (r, None),
            Home::Slot(s) => (enc::R_S3, Some(s)),
        })
    }

    fn dst_done(&mut self, spill: Option<u16>) {
        if let Some(s) = spill {
            self.word(enc::i(enc::STS, 0, enc::R_S3, s as u32));
        }
    }

    fn norm_if_narrow(&mut self, class: Class, rd: u8) {
        if class.is_narrow() {
            self.word(enc::r(enc::NORM, rd, rd, 0, class.code()));
        }
    }

    fn make_edge(&mut self, from: BlockId, to: BlockId) -> Result<u32, String> {
        let mut moves: Vec<(Home, Src)> = Vec::new();
        for &iid in self.f.block_insts(to) {
            if let Inst::Phi { incoming } = self.f.inst(iid) {
                let Some((dst, _)) = self.homes[iid.index()] else {
                    continue;
                };
                if self.unused[iid.index()] {
                    continue;
                }
                let Some(&(v, _)) = incoming.iter().find(|&&(_, p)| p == from) else {
                    return Err("phi missing incoming for edge".into());
                };
                let src = self.opnd(v)?.src();
                if Src::from(dst) != src {
                    moves.push((dst, src));
                }
            }
        }
        let copies = sequentialize(moves);
        let idx = self.edges.len() as u32;
        if idx >= (1 << 14) {
            return Err("too many edges for encoding".into());
        }
        self.edges.push(FastEdge {
            copies,
            target: 0,
            from: from.index() as u32,
            to: to.index() as u32,
            back: to.index() <= from.index(),
        });
        Ok(idx)
    }

    fn emit_inst(&mut self, b: BlockId, iid: InstId) -> Result<(), String> {
        let inst = self.f.inst(iid);
        match inst {
            Inst::Phi { .. } => Ok(()), // edges carry φs; no code, no charge
            Inst::Br(t) => {
                self.acct(inst);
                let e = self.make_edge(b, *t)?;
                self.word(enc::e(enc::BR, e));
                Ok(())
            }
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                self.acct(inst);
                let c = self.opnd(*cond)?;
                if c.class() != Class::Bool {
                    return Err("condbr on non-bool".into());
                }
                let cr = self.use_reg(c, enc::R_S1);
                let et = self.make_edge(b, *then_bb)?;
                let ee = self.make_edge(b, *else_bb)?;
                self.word(enc::i(enc::CBNZ, 0, cr, et));
                self.word(enc::e(enc::BR, ee));
                Ok(())
            }
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                self.acct(inst);
                let v = self.opnd(*val)?;
                let vc = v.class();
                if !matches!(
                    vc,
                    Class::S8 | Class::U8 | Class::S16 | Class::U16 | Class::S32 | Class::U32
                ) {
                    return Err("switch scrutinee class".into());
                }
                let vr = self.use_reg(v, enc::R_S1);
                let mut tbl = FastSwitch {
                    cases: Vec::with_capacity(cases.len()),
                    default: self.make_edge(b, *default)?,
                };
                for &(c, t) in cases {
                    let Some((k, cv)) = self.m.consts.as_int(c) else {
                        return Err("non-integer switch case".into());
                    };
                    if classify_kind(k) != vc {
                        return Err("switch case kind mismatch".into());
                    }
                    tbl.cases.push((cv as u32, self.make_edge(b, t)?));
                }
                let ti = self.switches.len() as u32;
                if ti >= (1 << 14) {
                    return Err("too many switch tables".into());
                }
                self.switches.push(tbl);
                self.word(enc::i(enc::SWITCH, 0, vr, ti));
                Ok(())
            }
            Inst::Ret(v) => {
                self.acct(inst);
                match v {
                    None => self.word(enc::i(enc::RET, 0, 0, 0)),
                    Some(v) => {
                        let o = self.opnd(*v)?;
                        let c = o.class();
                        if !c.is_exact() {
                            return Err("64-bit return value".into());
                        }
                        let r = self.use_reg(o, enc::R_S1);
                        self.word(enc::i(enc::RET, 0, r, 1 | (c.code() as u32) << 1));
                    }
                }
                Ok(())
            }
            Inst::Unwind => {
                self.acct(inst);
                self.word(enc::e(enc::UNWIND, 0));
                Ok(())
            }
            Inst::Unreachable => {
                self.acct(inst);
                self.word(enc::e(enc::UNREACHABLE, 0));
                Ok(())
            }
            Inst::Bin { op, lhs, rhs } => self.emit_bin(iid, *op, *lhs, *rhs, inst),
            Inst::Cmp { pred, lhs, rhs } => self.emit_cmp(iid, *pred, *lhs, *rhs, inst),
            Inst::Cast { val, to } => self.emit_cast(iid, *val, *to, inst),
            Inst::Load { ptr } => {
                self.acct(inst);
                let Some((_, class)) = self.homes[iid.index()] else {
                    return Err("void load".into());
                };
                let p = self.opnd(*ptr)?;
                if p.class() != Class::Ptr {
                    return Err("load address class".into());
                }
                let pr = self.use_reg(p, enc::R_S1);
                let Some((rd, spill)) = self.dst_reg(iid) else {
                    return Err("void load".into());
                };
                self.word(enc::r(enc::LD, rd, pr, 0, class.code()));
                self.dst_done(spill);
                Ok(())
            }
            Inst::Store { val, ptr } => {
                self.acct(inst);
                let v = self.opnd(*val)?;
                if !v.class().is_exact() {
                    return Err("64-bit store".into());
                }
                let p = self.opnd(*ptr)?;
                if p.class() != Class::Ptr {
                    return Err("store address class".into());
                }
                let pr = self.use_reg(p, enc::R_S1);
                let vr = self.use_reg(v, enc::R_S2);
                self.word(enc::r(enc::ST, 0, pr, vr, v.class().code()));
                Ok(())
            }
            Inst::Gep { ptr, indices } => self.emit_gep(b, iid, *ptr, indices, inst),
            Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => {
                self.acct(inst);
                let stack = matches!(inst, Inst::Alloca { .. });
                let elem_ty = match inst {
                    Inst::Malloc { elem_ty, .. } | Inst::Alloca { elem_ty, .. } => *elem_ty,
                    _ => unreachable!(),
                };
                let elem_size = self
                    .m
                    .types
                    .try_size_of(elem_ty)
                    .ok_or("allocation of unsized type")?;
                let elem32: u32 = elem_size.try_into().map_err(|_| "giant element type")?;
                let mut extra: u16 = if stack { 1 } else { 0 };
                let cr = match count {
                    None => {
                        extra |= 2;
                        enc::R_ZERO
                    }
                    Some(cv) => {
                        let c = self.opnd(*cv)?;
                        match c.class() {
                            Class::U32 => extra |= 4,
                            Class::Bool
                            | Class::S8
                            | Class::U8
                            | Class::S16
                            | Class::U16
                            | Class::S32 => {}
                            _ => return Err("allocation count class".into()),
                        }
                        self.use_reg(c, enc::R_S1)
                    }
                };
                self.load_imm(enc::R_S2, elem32);
                let Some((rd, spill)) = self.dst_reg(iid) else {
                    return Err("void allocation".into());
                };
                self.word(enc::r(enc::ALLOC, rd, cr, enc::R_S2, extra));
                self.dst_done(spill);
                Ok(())
            }
            Inst::Free(p) => {
                self.acct(inst);
                let o = self.opnd(*p)?;
                if o.class() != Class::Ptr {
                    return Err("free of non-pointer".into());
                }
                let r = self.use_reg(o, enc::R_S1);
                self.word(enc::r(enc::FREE, 0, r, 0, 0));
                Ok(())
            }
            Inst::Call { callee, args } => self.emit_call(b, iid, *callee, args, None, inst),
            Inst::Invoke {
                callee,
                args,
                normal,
                unwind,
            } => {
                let en = self.make_edge(b, *normal)?;
                let eu = self.make_edge(b, *unwind)?;
                self.emit_call(b, iid, *callee, args, Some((en, eu)), inst)
            }
            Inst::VaArg { .. } => Err("vaarg".into()),
        }
    }

    /// `use_reg` for an operand of an op whose result goes to `rd`: a
    /// constant or spilled operand is staged in `rd` itself unless
    /// `rd_busy` (another operand is read from it), else in `scratch`.
    fn stage(&mut self, o: Opnd, rd: u8, rd_busy: bool, scratch: u8) -> u8 {
        self.use_reg(o, if rd_busy { scratch } else { rd })
    }

    fn emit_bin(
        &mut self,
        iid: InstId,
        op: BinOp,
        lhs: Value,
        rhs: Value,
        inst: &Inst,
    ) -> Result<(), String> {
        let Some((_, class)) = self.homes[iid.index()] else {
            return Err("void bin".into());
        };
        let l = self.opnd(lhs)?;
        let r = self.opnd(rhs)?;
        if l.class() != class || r.class() != class {
            return Err("bin operand class mismatch".into());
        }
        // Which ops are sound for this class?
        match class {
            Class::Bool if !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) => {
                return Err("arith on bool".into());
            }
            // Only the low-word-determined subset.
            Class::L64
                if !matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                ) =>
            {
                return Err("64-bit op needs full width".into());
            }
            Class::Ptr => return Err("arith on pointer".into()),
            _ => {}
        }
        self.acct(inst);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void bin".into());
        };
        let bits = class.bits().unwrap_or(32);
        let signed = class.is_signed_int();
        let (word_op, extra, renorm) = match op {
            BinOp::Add => (enc::ADD, 0, true),
            BinOp::Sub => (enc::SUB, 0, true),
            BinOp::Mul => (enc::MUL, 0, true),
            BinOp::And => (enc::AND, 0, false),
            BinOp::Or => (enc::OR, 0, false),
            BinOp::Xor => (enc::XOR, 0, false),
            BinOp::Shl => (enc::SLL, bits, true),
            BinOp::Shr if signed => (enc::SRA, bits, true),
            BinOp::Shr => (enc::SRL, bits, false),
            BinOp::Div if signed => (enc::DIVS, 0, true),
            BinOp::Div => (enc::DIVU, 0, false),
            BinOp::Rem if signed => (enc::REMS, 0, true),
            BinOp::Rem => (enc::REMU, 0, false),
        };
        // A constant operand that fits folds into the immediate form;
        // commutative ops take it on either side.
        let commutes = matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        );
        let (l, r) = match (l, r) {
            (Opnd::Imm(..), Opnd::Home(..)) if commutes => (r, l),
            lr => lr,
        };
        if let Opnd::Imm(k, _) = r {
            let folded = match op {
                BinOp::Add => Some((enc::ADDI, k)),
                BinOp::Sub => Some((enc::ADDI, k.wrapping_neg())),
                BinOp::Mul => Some((enc::MULI, k)),
                BinOp::And => Some((enc::ANDI, k)),
                BinOp::Or => Some((enc::ORI, k)),
                BinOp::Xor => Some((enc::XORI, k)),
                // The amount is masked to the width, so it always fits.
                BinOp::Shl => Some((enc::SLLI, k & (bits as u32 - 1))),
                BinOp::Shr if signed => Some((enc::SRAI, k & (bits as u32 - 1))),
                BinOp::Shr => Some((enc::SRLI, k & (bits as u32 - 1))),
                BinOp::Div | BinOp::Rem => None,
            };
            if let Some((iop, k)) = folded.filter(|&(_, k)| enc::fits14(k)) {
                let la = self.stage(l, rd, false, enc::R_S1);
                self.word(enc::i(iop, rd, la, enc::imm14(k)));
                if renorm {
                    self.norm_if_narrow(class, rd);
                }
                self.dst_done(spill);
                return Ok(());
            }
        }
        let la = self.stage(l, rd, r.in_reg(rd), enc::R_S1);
        let rb = self.stage(r, rd, la == rd, enc::R_S2);
        self.word(enc::r(word_op, rd, la, rb, extra));
        if renorm {
            self.norm_if_narrow(class, rd);
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_cmp(
        &mut self,
        iid: InstId,
        pred: CmpPred,
        lhs: Value,
        rhs: Value,
        inst: &Inst,
    ) -> Result<(), String> {
        let l = self.opnd(lhs)?;
        let r = self.opnd(rhs)?;
        let c = l.class();
        if r.class() != c {
            return Err("cmp operand class mismatch".into());
        }
        if !c.is_exact() {
            return Err("64-bit compare".into());
        }
        // Canonical ≤32-bit values order exactly like their 32-bit
        // representations under the matching signedness; pointers and
        // bools compare unsigned.
        let unsigned = !c.is_signed_int();
        self.acct(inst);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void cmp".into());
        };
        // A constant goes on the right, where it folds when it fits.
        let (pred, l, r) = match (l, r) {
            (Opnd::Imm(..), Opnd::Home(..)) => (pred.swapped(), r, l),
            lr => (pred, lr.0, lr.1),
        };
        let pcode = match pred {
            CmpPred::Eq => 0u16,
            CmpPred::Ne => 1,
            CmpPred::Lt => 2,
            CmpPred::Gt => 3,
            CmpPred::Le => 4,
            CmpPred::Ge => 5,
        } | if unsigned { 8 } else { 0 };
        match r {
            Opnd::Imm(k, _) if enc::fits14(k) => {
                let la = self.stage(l, rd, false, enc::R_S1);
                self.word(enc::i(enc::CMPI + pcode as u8, rd, la, enc::imm14(k)));
            }
            _ => {
                let la = self.stage(l, rd, r.in_reg(rd), enc::R_S1);
                let rb = self.stage(r, rd, la == rd, enc::R_S2);
                self.word(enc::r(enc::CMP, rd, la, rb, pcode));
            }
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_cast(
        &mut self,
        iid: InstId,
        val: Value,
        to: TypeId,
        inst: &Inst,
    ) -> Result<(), String> {
        let Some(tc) = classify(self.m, to)? else {
            return Err("cast to void".into());
        };
        let v = self.opnd(val)?;
        let fc = v.class();
        self.acct(inst);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void cast".into());
        };
        // != 0 test for bool: sound for every exact class. A 64-bit
        // source needs all 64 bits.
        if tc == Class::Bool && !fc.is_exact() {
            return Err("64-bit to bool".into());
        }
        if let Opnd::Imm(k, _) = v {
            // A constant's cast is a constant, built in the destination.
            let k = match tc {
                Class::Bool => (k != 0) as u32,
                _ => tc.norm(k),
            };
            self.load_imm(rd, k);
            self.dst_done(spill);
            return Ok(());
        }
        let r = self.stage(v, rd, false, enc::R_S1);
        match tc {
            Class::Bool => self.word(enc::r(enc::SETNZ, rd, r, 0, 0)),
            Class::Ptr | Class::L64 | Class::S32 | Class::U32 => {
                // Low 32 bits carried over unchanged: int→ptr truncates,
                // ptr→int zero-extends, widening sign/zero-extends — in
                // every case the canonical low word is the register, so a
                // result that shares its source's home costs nothing.
                if rd != r {
                    self.word(enc::r(enc::MOV, rd, r, 0, 0));
                }
            }
            Class::S8 | Class::U8 | Class::S16 | Class::U16 => {
                self.word(enc::r(enc::NORM, rd, r, 0, tc.code()));
            }
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_gep(
        &mut self,
        _b: BlockId,
        iid: InstId,
        ptr: Value,
        indices: &[Value],
        inst: &Inst,
    ) -> Result<(), String> {
        let m = self.m;
        let base = self.opnd(ptr)?;
        if base.class() != Class::Ptr {
            return Err("gep base class".into());
        }
        // Fold constant indices into a static offset, keep `(value,
        // scale)` pairs for the rest. Only the low 32 bits of the offset
        // are observable, so 64-bit index values participate via their
        // low-word view.
        let mut const_off: i64 = 0;
        let mut scaled: Vec<(Opnd, i64)> = Vec::new();
        m.types.gep_steps(
            m.value_type(self.f, ptr),
            indices,
            true,
            |v| m.consts.int_of(v),
            |step| {
                match step {
                    GepStep::Field { offset, .. } => {
                        const_off = const_off.wrapping_add(offset as i64)
                    }
                    GepStep::Scaled { index, stride } => match m.consts.int_of(index) {
                        Some(v) => {
                            const_off = const_off.wrapping_add(v.wrapping_mul(stride as i64))
                        }
                        None => scaled.push((self.opnd(index)?, stride as i64)),
                    },
                }
                Ok::<(), String>(())
            },
        )?;
        for (o, _) in &scaled {
            if !matches!(
                o.class(),
                Class::Bool
                    | Class::S8
                    | Class::U8
                    | Class::S16
                    | Class::U16
                    | Class::S32
                    | Class::U32
                    | Class::L64
            ) {
                return Err("gep index class".into());
            }
        }
        self.acct(inst);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void gep".into());
        };
        // dst = base + const_off, then dst += idx · scale per dynamic
        // index. The live ranges keep rd off every operand's home when
        // there are dynamic indices (it is written before they are read);
        // without any, rd may be the base's.
        let off = const_off as u32;
        if let Opnd::Imm(addr, _) = base {
            self.load_imm(rd, addr.wrapping_add(off));
        } else {
            let br = self.use_reg(base, enc::R_S1);
            if off == 0 {
                if rd != br {
                    self.word(enc::r(enc::MOV, rd, br, 0, 0));
                }
            } else if enc::fits14(off) {
                self.word(enc::i(enc::ADDI, rd, br, enc::imm14(off)));
            } else {
                self.load_imm(enc::R_S2, off);
                self.word(enc::r(enc::ADD, rd, br, enc::R_S2, 0));
            }
        }
        for (o, scale) in scaled {
            let ir = self.use_reg(o, enc::R_S1);
            let scale = scale as u32;
            if enc::fits14(scale) {
                self.word(enc::i(enc::MADDI, rd, ir, enc::imm14(scale)));
            } else {
                self.load_imm(enc::R_S2, scale);
                self.word(enc::r(enc::MADD, rd, ir, enc::R_S2, 0));
            }
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_call(
        &mut self,
        _b: BlockId,
        iid: InstId,
        callee: Value,
        args: &[Value],
        eh: Option<(u32, u32)>,
        inst: &Inst,
    ) -> Result<(), String> {
        let callee = if let Value::Const(c) = callee {
            if let Const::FuncAddr(f) = self.m.consts.get(c) {
                FastCallee::Direct(*f)
            } else {
                let o = self.const_opnd(c)?;
                FastCallee::Indirect(o.src())
            }
        } else {
            let o = self.opnd(callee)?;
            if o.class() != Class::Ptr {
                return Err("indirect callee class".into());
            }
            FastCallee::Indirect(o.src())
        };
        let mut argv = Vec::with_capacity(args.len());
        for &a in args {
            let o = self.opnd(a)?;
            if !o.class().is_exact() {
                return Err("64-bit call argument".into());
            }
            argv.push((o.src(), o.class()));
        }
        let dst = self.homes[iid.index()];
        if let Some((_, c)) = dst {
            if !c.is_exact() {
                // The callee's 64-bit result would reach us truncated.
                return Err("64-bit call result".into());
            }
        }
        self.acct(inst);
        let di = self.calls.len() as u32;
        if di >= (1 << 24) {
            return Err("too many call sites".into());
        }
        self.calls.push(FastCall {
            callee,
            args: argv,
            dst,
            eh,
            site: iid.index() as u32,
        });
        self.word(enc::e(enc::CALLD, di));
        Ok(())
    }
}

fn classify_kind(k: IntKind) -> Class {
    match k {
        IntKind::S8 => Class::S8,
        IntKind::U8 => Class::U8,
        IntKind::S16 => Class::S16,
        IntKind::U16 => Class::U16,
        IntKind::S32 => Class::S32,
        IntKind::U32 => Class::U32,
        IntKind::S64 | IntKind::U64 => Class::L64,
    }
}

/// Sequentialise a parallel copy: emit ready moves (destination not read
/// by any pending move) first; break each remaining cycle with the `r1`
/// scratch and drain it fully before touching the next cycle, so the
/// scratch is never live across two cycles.
fn sequentialize(mut pend: Vec<(Home, Src)>) -> Vec<FastCopy> {
    let mut out = Vec::with_capacity(pend.len());
    loop {
        let mut progress = true;
        while progress {
            progress = false;
            let mut i = 0;
            while i < pend.len() {
                let d = pend[i].0;
                let blocked = pend
                    .iter()
                    .enumerate()
                    .any(|(j, (_, s))| j != i && *s == Src::from(d));
                if !blocked {
                    let (dst, src) = pend.remove(i);
                    out.push(FastCopy { dst, src });
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
        if pend.is_empty() {
            return out;
        }
        // Every pending destination is still read by someone: cycles.
        // Park one destination in scratch, retarget its readers, repeat.
        let (d0, s0) = pend.remove(0);
        let tmp = Home::Reg(enc::R_S1);
        out.push(FastCopy {
            dst: tmp,
            src: d0.into(),
        });
        for (_, s) in pend.iter_mut() {
            if *s == Src::from(d0) {
                *s = tmp.into();
            }
        }
        out.push(FastCopy { dst: d0, src: s0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translate(src: &str) -> (Module, FastFunc) {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap_or_else(|e| panic!("{e:?}"));
        let env = FastEnv {
            func_addr: &|f| 0x1000 + (f.index() as u32) * 16,
            global_addr: &|i| Some(0x2000 + (i as u32) * 64),
            guarded: &|_| false,
        };
        let ff = translate_fast(&m, m.func_by_name("f").unwrap(), &env).unwrap();
        (m, ff)
    }

    /// The executable words of each IR instruction, in code order.
    fn per_inst(ff: &FastFunc) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = Vec::new();
        for &w in &ff.words {
            if enc::op(w) == enc::ACCT {
                out.push(Vec::new());
            } else {
                out.last_mut().expect("an ACCT word first").push(w);
            }
        }
        out
    }

    /// A loop body of `n` values where each reads the one before it and
    /// the one `window` back: about `window` values are live at once.
    fn windowed(n: usize, window: usize) -> String {
        let mut src = String::from(
            "define int @f(int %a) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %s = phi int [ 0, %e ], [ %v0, %h ]
  %w0 = add int %s, %i
",
        );
        for k in 1..n {
            let back = if k >= window {
                format!("%w{}", k - window)
            } else {
                "%a".into()
            };
            src += &format!("  %w{k} = add int %w{}, {back}\n", k - 1);
        }
        src += &format!(
            "  %v0 = add int %w{}, %w{}
  %i2 = add int %i, 1
  %c = setlt int %i2, %a
  br bool %c, label %h, label %x
x:
  ret int %v0
}}
",
            n - 1,
            n - window
        );
        src
    }

    fn spill_words(ff: &FastFunc) -> usize {
        (ff.words.iter())
            .filter(|&&w| matches!(enc::op(w), enc::LDS | enc::STS))
            .count()
    }

    /// 300 values, but never more than 28 live at once: no spill code.
    /// Sixty live at once do spill, so the check is not vacuous.
    #[test]
    fn a_function_whose_pressure_fits_the_homes_never_spills() {
        for (window, spills) in [(20, false), (60, true)] {
            let (m, ff) = translate(&windowed(300, window));
            let f = m.func(m.func_by_name("f").unwrap());
            let pressure = regalloc::max_pressure(&regalloc::live_ranges(f, &[]).range);
            assert_eq!(
                pressure <= 28,
                !spills,
                "window {window}: pressure {pressure}"
            );
            assert_eq!(spill_words(&ff) > 0, spills, "window {window}");
            assert_eq!(ff.n_slots > 0, spills, "window {window}");
        }
    }

    /// Every foldable op with a constant that fits takes it as an
    /// immediate — on either side when the op commutes or is a compare —
    /// and costs exactly one word; a GEP's stride does too.
    #[test]
    fn a_constant_that_fits_costs_no_word_of_its_own() {
        let (_, ff) = translate(
            "define int @f(int %a, uint %u, [8 x int]* %p) {
e:
  %1 = add int %a, 8191
  %2 = sub int %1, -8191
  %3 = mul int -3, %2
  %4 = and int %3, -8
  %5 = or int 12, %4
  %6 = xor int %5, 77
  %7 = shl int %6, 35
  %8 = shr int %7, 2
  %9 = shr uint %u, 31
  %10 = setlt int %8, 100
  %11 = setgt int -5, %8
  %12 = setle uint %9, 4294967295
  %13 = getelementptr [8 x int]* %p, int %a, int 3
  %14 = load int* %13
  %15 = add int %14, 1
  ret int %15
}",
        );
        let insts = per_inst(&ff);
        assert_eq!(insts.len(), 16);
        for (k, words) in insts.iter().enumerate() {
            let ops: Vec<u8> = words.iter().map(|&w| enc::op(w)).collect();
            assert!(
                !ops.iter().any(|&o| matches!(o, enc::LDI | enc::LUI)),
                "instruction {k}: {ops:x?}"
            );
            // The GEP moves its base and adds the index times 32.
            let expect = if k == 12 { 2 } else { 1 };
            assert_eq!(words.len(), expect, "instruction {k}: {ops:x?}");
        }
        let op = |k: usize, i: usize| enc::op(insts[k][i]);
        assert_eq!(
            (0..12).map(|k| op(k, 0)).collect::<Vec<_>>(),
            [
                enc::ADDI,
                enc::ADDI,
                enc::MULI,
                enc::ANDI,
                enc::ORI,
                enc::XORI,
                enc::SLLI,
                enc::SRAI,
                enc::SRLI,
                enc::CMPI + 2,     // lt
                enc::CMPI + 2,     // -5 > x is x < -5
                enc::CMPI + 8 + 4, // unsigned le
            ]
        );
        assert_eq!(enc::simm14(insts[1][0]), 8191, "x - -8191 is x + 8191");
        assert_eq!(enc::uimm14(insts[6][0]), 3, "35 masked to the width");
        assert_eq!(enc::simm14(insts[11][0]), -1, "the all-ones word fits");
        assert_eq!((op(12, 1), enc::simm14(insts[12][1])), (enc::MADDI, 32));
    }

    /// A constant too wide for the field is built in the destination, not
    /// in scratch, when no operand is read from it (`%a` is live on).
    #[test]
    fn a_wide_constant_is_built_in_its_destination() {
        let (_, ff) = translate(
            "define int @f(int %a) {
e:
  %1 = add int %a, 100000
  %2 = cast int 100000 to uint
  %3 = cast uint %2 to int
  %4 = add int %1, %3
  %5 = add int %4, %a
  ret int %5
}",
        );
        let insts = per_inst(&ff);
        let ops = |k: usize| insts[k].iter().map(|&w| enc::op(w)).collect::<Vec<_>>();
        assert_eq!(ops(0), [enc::LUI, enc::ORI, enc::ADD]);
        let rd = enc::rd(insts[0][2]);
        assert!(
            insts[0].iter().all(|&w| enc::rd(w) == rd),
            "built in the destination"
        );
        assert_eq!(enc::rb(insts[0][2]), rd);
        assert_eq!(
            ops(1),
            [enc::LUI, enc::ORI],
            "a constant's cast is a constant"
        );
        assert!(
            ops(2).is_empty(),
            "a cast that shares its source's home is free"
        );
    }
}
