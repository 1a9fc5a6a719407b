//! # Single-pass "fast" backend: lpat IR → risc32 machine words
//!
//! A TPDE-style low-latency backend (PAPERS.md: "TPDE: A Fast Adaptable
//! Compiler Back-End Framework"): instruction selection, register
//! allocation and binary encoding are fused into **one forward walk** of
//! the IR per function. There is no MIR, no separate liveness analysis and
//! no iterative allocator — translation cost is a small constant per IR
//! instruction, which is what lets the tiered VM afford a third tier.
//!
//! ## Value model
//!
//! Every SSA value is assigned a [`Class`] from its static type and one
//! permanent **home**: a register of the risc32 file, or a frame slot when
//! the file is full (spill on pressure). Registers hold the low 32 bits of
//! the interpreter's canonical two's-complement value:
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
//! (immediate materialisation, spill staging, φ-cycle breaking); `r4`–`r31`
//! (28 registers) are allocatable homes. Homes are fixed for the lifetime
//! of the function — the allocator is a single priority pass (static use
//! count × 4^loop-depth), so the mapping InstId → home is a pure function
//! of the IR. That is what makes on-stack replacement trivial: converting
//! an interpreter or JIT frame to a native frame is a table-driven copy.
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
/// * **I**: `op(8) | rd(5) | ra(5) | imm14` — immediates, spill-slot
///   traffic, conditional branch (edge index), `ret` flags. `imm14` is
///   signed for `ADDI`/`LDI` and unsigned for indices.
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
    /// `rd = ra + simm14`.
    pub const ADDI: u8 = 0x18;
    /// `rd = simm14`.
    pub const LDI: u8 = 0x19;
    /// `rd = imm19 << 13` (format U).
    pub const LUI: u8 = 0x1A;
    /// `rd = ra | uimm13`.
    pub const ORI: u8 = 0x1B;
    /// `rd = slots[uimm14]` — spill reload.
    pub const LDS: u8 = 0x1C;
    /// `slots[uimm14] = ra` — spill store.
    pub const STS: u8 = 0x1D;
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

/// A value's permanent storage home.
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
    /// Home and class of each value-producing instruction, indexed by
    /// `InstId` — the frame-mapping table for OSR.
    pub homes: Vec<Option<(Home, Class)>>,
    /// Function name (diagnostics, trace spans).
    pub name: String,
}

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
    n_slots: u32,
}

/// Translate one function to native words in a single forward pass.
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

    // -- loop weights + use counts (one counting sweep, no liveness) ---
    // A back-edge span [to, from] approximates a loop; a block's depth is
    // the number of spans containing it, and uses are weighted 4^depth so
    // loop-carried values win the register file.
    let mut spans: Vec<(u32, u32)> = Vec::new();
    for b in f.block_ids() {
        let bi = b.index() as u32;
        if let Some(&last) = f.block_insts(b).last() {
            for t in term_targets(f.inst(last)) {
                let ti = t.index() as u32;
                if ti <= bi {
                    spans.push((ti, bi));
                }
            }
        }
    }
    let weight = |b: BlockId| -> u64 {
        let x = b.index() as u32;
        let d = spans.iter().filter(|&&(t, fr)| t <= x && x <= fr).count();
        4u64.saturating_pow(d.min(8) as u32)
    };
    let mut arg_prio = vec![0u64; arg_classes.len()];
    let mut inst_prio = vec![0u64; n_insts];
    for b in f.block_ids() {
        let w = weight(b);
        for &iid in f.block_insts(b) {
            let inst = f.inst(iid);
            if inst_class[iid.index()].is_some() {
                inst_prio[iid.index()] = inst_prio[iid.index()].saturating_add(w);
            }
            if let Inst::Phi { incoming } = inst {
                for &(v, pred) in incoming {
                    bump(&mut arg_prio, &mut inst_prio, v, weight(pred));
                }
            } else {
                inst.for_each_operand(|v| bump(&mut arg_prio, &mut inst_prio, v, w));
            }
        }
    }

    // -- home assignment (priority order, top 28 in registers) ---------
    // kind 0 = arg, 1 = inst; sort is stable on (priority desc, id) so
    // the mapping is deterministic.
    let mut cand: Vec<(u64, u8, u32)> = Vec::new();
    for (i, _) in arg_classes.iter().enumerate() {
        cand.push((arg_prio[i].max(1), 0, i as u32));
    }
    for i in 0..n_insts {
        if inst_class[i].is_some() {
            cand.push((inst_prio[i].max(1), 1, i as u32));
        }
    }
    cand.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let n_regs_avail = enc::NUM_REGS - enc::R_FIRST as usize;
    let mut homes: Vec<Option<(Home, Class)>> = vec![None; n_insts];
    let mut arg_homes: Vec<(Home, Class)> = Vec::with_capacity(arg_classes.len());
    arg_homes.resize(arg_classes.len(), (Home::Slot(0), Class::S32));
    let mut next_slot: u32 = 0;
    for (rank, &(_, kind, id)) in cand.iter().enumerate() {
        let home = if rank < n_regs_avail {
            Home::Reg(enc::R_FIRST + rank as u8)
        } else {
            let s = next_slot;
            next_slot += 1;
            if s > 16_000 {
                return Err("frame too large for slot encoding".into());
            }
            Home::Slot(s as u16)
        };
        if kind == 0 {
            arg_homes[id as usize] = (home, arg_classes[id as usize]);
        } else {
            homes[id as usize] = Some((home, inst_class[id as usize].unwrap()));
        }
    }

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
        n_slots: next_slot,
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
        homes: tr.homes,
        name: f.name().to_string(),
    })
}

fn bump(args: &mut [u64], insts: &mut [u64], v: Value, w: u64) {
    match v {
        Value::Arg(a) => {
            if let Some(p) = args.get_mut(a as usize) {
                *p = p.saturating_add(w);
            }
        }
        Value::Inst(i) => {
            if let Some(p) = insts.get_mut(i.index()) {
                *p = p.saturating_add(w);
            }
        }
        Value::Const(_) => {}
    }
}

fn term_targets(inst: &Inst) -> Vec<BlockId> {
    match inst {
        Inst::Br(t) => vec![*t],
        Inst::CondBr {
            then_bb, else_bb, ..
        } => vec![*then_bb, *else_bb],
        Inst::Switch { default, cases, .. } => {
            let mut v = vec![*default];
            v.extend(cases.iter().map(|&(_, b)| b));
            v
        }
        Inst::Invoke { normal, unwind, .. } => vec![*normal, *unwind],
        _ => Vec::new(),
    }
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
        let v = k as i32;
        if (-(1 << 13)..(1 << 13)).contains(&v) {
            self.word(enc::i(enc::LDI, rd, 0, (v as u32) & 0x3FFF));
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
        let la = self.use_reg(l, enc::R_S1);
        let rb = self.use_reg(r, enc::R_S2);
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
        let la = self.use_reg(l, enc::R_S1);
        let rb = self.use_reg(r, enc::R_S2);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void cmp".into());
        };
        let pcode = match pred {
            CmpPred::Eq => 0u16,
            CmpPred::Ne => 1,
            CmpPred::Lt => 2,
            CmpPred::Gt => 3,
            CmpPred::Le => 4,
            CmpPred::Ge => 5,
        };
        self.word(enc::r(
            enc::CMP,
            rd,
            la,
            rb,
            pcode | if unsigned { 8 } else { 0 },
        ));
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
        match tc {
            Class::Bool => {
                // != 0 test; sound for every exact class. A 64-bit source
                // needs all 64 bits.
                if !fc.is_exact() {
                    return Err("64-bit to bool".into());
                }
                let r = self.use_reg(v, enc::R_S1);
                self.word(enc::r(enc::SETNZ, rd, r, 0, 0));
            }
            Class::Ptr | Class::L64 | Class::S32 | Class::U32 => {
                // Low 32 bits carried over unchanged: int→ptr truncates,
                // ptr→int zero-extends, widening sign/zero-extends — in
                // every case the canonical low word is the register.
                let r = self.use_reg(v, enc::R_S1);
                self.word(enc::r(enc::MOV, rd, r, 0, 0));
            }
            Class::S8 | Class::U8 | Class::S16 | Class::U16 => {
                let r = self.use_reg(v, enc::R_S1);
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
        let br = self.use_reg(base, enc::R_S1);
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void gep".into());
        };
        // dst = base + const_off, then dst += idx · scale per dynamic
        // index. Homes are unique, so rd never aliases a live operand.
        let off = const_off as u32;
        if off == 0 {
            if rd != br {
                self.word(enc::r(enc::MOV, rd, br, 0, 0));
            }
        } else if (-(1 << 13)..(1 << 13)).contains(&(off as i32)) {
            self.word(enc::i(enc::ADDI, rd, br, off & 0x3FFF));
        } else {
            self.load_imm(enc::R_S2, off);
            self.word(enc::r(enc::ADD, rd, br, enc::R_S2, 0));
        }
        for (o, scale) in scaled {
            let ir = self.use_reg(o, enc::R_S1);
            self.load_imm(enc::R_S2, scale as u32);
            self.word(enc::r(enc::MADD, rd, ir, enc::R_S2, 0));
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
