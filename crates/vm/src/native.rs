//! # Tier-3 native execution: a fuel-metered risc32 machine-code emulator
//!
//! Runs the binary words produced by `lpat_codegen::fast` (see that
//! module for the value model and encoding). The words are **decoded
//! once** at translation time into a dense op array — the standard
//! pre-decoded-dispatch technique — so the hot loop is a flat `u32`
//! register file, a `match` on an op byte, and wrapping 32-bit
//! arithmetic: no tagged values, no `Option`, no per-operand enum walk.
//!
//! ## Exact observational parity
//!
//! The contract with the interpreter (enforced by `tests/tiered.rs`) is
//! that output, return value, trap kind, remaining fuel, the opcode
//! histogram and profile counters are identical:
//!
//! * **fuel / histogram** — the decoder splits a function's
//!   [`lpat_codegen::fast::enc::ACCT`] words into *accounting regions*:
//!   maximal runs of IR instructions inside one block, each ended by a
//!   `call` / `invoke` or by the terminator, so that only a region's last
//!   instruction can leave it. Machine code charges a region once, on its
//!   first op: fuel drops by its length and its entry count goes up by
//!   one. Instruction counts and the histogram are views of those counts,
//!   folded in by `Vm::drain_counters` (count × length, count × the
//!   region's static opcode vector). Fuel shorter than a region sends that
//!   region to a cold copy of the loop that charges each instruction
//!   through `Vm::charge_native`, so `OutOfFuel` traps on exactly the
//!   interpreter's instruction; a trap in the middle of a region refunds
//!   the instructions it did not reach (fuel, counts and histogram);
//! * **memory traps** — loads/stores go through the same [`Memory`]
//!   access checks (NullAccess / BadAccess / OutOfMemory), at the same
//!   width (an `L64` load checks all 8 bytes before keeping the low
//!   word);
//! * **arithmetic traps** — division/remainder by zero trap with the
//!   interpreter's messages; signed 32-bit wrapping matches canonical
//!   `i64` arithmetic bit-for-bit for every exact class;
//! * **calls / unwinding** — a call into a function on machine code
//!   pushes its frame inside the burst, arguments copied register to
//!   register, and its return lands in the caller's register; externals
//!   and tier crossings rebuild real `VmValue` scalars from class-tagged
//!   registers. Profile counters, `max_stack`, invoke edges and
//!   unwinding behave identically either way.
//!
//! A speculation guard is a conditional branch like any other: a failing
//! one takes its else edge to the generic path of the same function.
//! Values whose class the native model cannot carry exactly never cross
//! a boundary: `translate_fast` bails the whole function and the tiered
//! engine runs it on the JIT (see `tier.rs`). A native frame is only
//! built when every actual argument matches its declared class, else the
//! call runs on the JIT; a *returned* value of the wrong
//! class (only in unverified, type-confused modules) traps as `Invalid`
//! (`resume_native`, DESIGN.md §16).

use std::cell::Cell;
use std::rc::Rc;

use lpat_codegen::fast::{
    enc, translate_fast, Class, FastCall, FastCallee, FastCopy, FastEnv, FastFunc, FastSwitch,
    Home, Src,
};
use lpat_core::trace;
use lpat_core::{FuncId, IntKind, Module};

use crate::counters::EdgeLayout;
use crate::error::{ExecError, TrapKind};
use crate::interp::{Entered, Vm};
use crate::jit::Flow;
use crate::mem::Memory;
use crate::tier::TFrame;
use crate::value::VmValue;

// ----------------------------------------------------------------------
// Decoded form
// ----------------------------------------------------------------------

/// One pre-decoded op. `imm` is pre-massaged per op (sign-extended for
/// `ADDI`, shifted for `LUI`, raw index otherwise). The first op of an
/// accounting region carries the region's length in IR instructions
/// (`len`) and its index (`region`); every other op has `len == 0`.
#[derive(Copy, Clone)]
struct NOp {
    op: u8,
    a: u8,
    b: u8,
    c: u8,
    extra: u16,
    len: u16,
    imm: u32,
    region: u32,
}

/// An accounting region: a maximal run of IR instructions inside one
/// block that only its last instruction can leave — it ends at a `call`
/// or `invoke` or at the terminator (and after `u16::MAX` instructions,
/// the width of [`NOp::len`]).
#[derive(Clone)]
struct Region {
    /// Decoded index of its first op.
    first_op: u32,
    /// Index of its first instruction in [`NatBody::insts`].
    first_inst: u32,
    len: u32,
}

/// A decoded edge: φ-copies (already sequentialised by the encoder), the
/// decoded-index branch target, and where a traversal is counted: the
/// edge's slot in the function's counter slab and the block it enters.
#[derive(Clone)]
struct NatEdge {
    copies: Vec<FastCopy>,
    target: u32,
    slot: u32,
    to: u32,
}

/// A function's decoded native code plus its side tables: everything
/// translation produced and nothing a run writes, so engines on any
/// thread can share it (`crate::session::ModuleCache`). An engine runs
/// its own copy, a [`NatCode`].
#[derive(Clone)]
pub(crate) struct NatBody {
    ops: Vec<NOp>,
    regions: Vec<Region>,
    /// Every IR instruction the code charges, in code order: the decoded
    /// op its machine sequence begins at, and its opcode index (the
    /// payload of its `ACCT` word).
    insts: Vec<(u32, u8)>,
    edges: Vec<NatEdge>,
    calls: Vec<FastCall>,
    switches: Vec<FastSwitch>,
    n_slots: u32,
    arg_homes: Vec<(Home, Class)>,
}

/// One engine's copy of a function's machine code: the [`NatBody`] plus
/// the state that engine's runs write.
pub(crate) struct NatCode {
    body: NatBody,
    /// Entries into each region since the last drain.
    entered: Box<[Cell<u64>]>,
    /// Per call descriptor, the callee last found to take the site's
    /// argument classes (`index + 1`, 0 = none): both sides are static,
    /// so a native→native call checks them once.
    native: Box<[Cell<u32>]>,
}

impl NatCode {
    /// A fresh copy of `body` for one engine: no region entered, no
    /// callee checked.
    pub(crate) fn new(body: NatBody) -> NatCode {
        NatCode {
            entered: body.regions.iter().map(|_| Cell::new(0)).collect(),
            native: body.calls.iter().map(|_| Cell::new(0)).collect(),
            body,
        }
    }

    /// What the engine's copy was made from.
    pub(crate) fn body(&self) -> &NatBody {
        &self.body
    }
}

impl std::ops::Deref for NatCode {
    type Target = NatBody;

    fn deref(&self) -> &NatBody {
        &self.body
    }
}

/// What the native translation cache holds for one function.
#[derive(Clone)]
pub(crate) enum NativeSlot {
    /// Never called under the tiered engine.
    Untried,
    /// Translated and decoded.
    Code(Rc<NatCode>),
    /// Refused, with the translator's (or the `native.translate` fault
    /// site's) message: the function runs on the JIT.
    Refused(String),
}

impl NatBody {
    /// Region `r`'s instructions: where each begins and its opcode index.
    fn region_insts(&self, r: &Region) -> &[(u32, u8)] {
        &self.insts[r.first_inst as usize..][..r.len as usize]
    }
}

/// Decode the word buffer into the dense dispatch form. Accounting words
/// become [`NatBody::insts`] entries, grouped into regions that start at
/// each block's first word and after each `CALLD`; branch targets are
/// remapped from word indices to decoded indices, and each edge gets its
/// counter slot (a VM-side table: the emitted words do not change).
fn decode(ff: FastFunc, m: &Module, fid: FuncId) -> NatBody {
    let layout = EdgeLayout::new(m.func(fid));
    let mut ops: Vec<NOp> = Vec::with_capacity(ff.words.len());
    let mut word_to_dec: Vec<u32> = Vec::with_capacity(ff.words.len() + 1);
    let mut regions: Vec<Region> = Vec::new();
    let mut insts: Vec<(u32, u8)> = Vec::new();
    let mut block_starts = ff.block_word.iter().peekable();
    // Whether the next instruction may join the last region.
    let mut open = false;
    for (i, &w) in ff.words.iter().enumerate() {
        word_to_dec.push(ops.len() as u32);
        while block_starts.next_if(|&&b| b as usize == i).is_some() {
            open = false;
        }
        let op = enc::op(w);
        if op == enc::ACCT {
            match regions.last_mut() {
                Some(r) if open && r.len < u16::MAX as u32 => r.len += 1,
                _ => {
                    regions.push(Region {
                        first_op: ops.len() as u32,
                        first_inst: insts.len() as u32,
                        len: 1,
                    });
                    open = true;
                }
            }
            insts.push((ops.len() as u32, enc::idx24(w) as u8));
            continue;
        }
        if op == enc::CALLD {
            open = false;
        }
        let imm = match op {
            enc::ADDI | enc::LDI | enc::ORI | enc::MULI | enc::ANDI | enc::XORI | enc::MADDI => {
                enc::simm14(w) as u32
            }
            enc::CMPI..=enc::CMPI_LAST => enc::simm14(w) as u32,
            enc::LUI => enc::imm19(w) << 13,
            enc::SLLI | enc::SRLI | enc::SRAI => enc::uimm14(w) & 31,
            enc::LDS | enc::STS | enc::CBNZ | enc::SWITCH | enc::RET => enc::uimm14(w),
            enc::BR | enc::CALLD | enc::UNWIND | enc::UNREACHABLE => enc::idx24(w),
            _ => 0,
        };
        // LUI decodes to LDI-with-full-immediate and each CMPI predicate
        // to one CMPI carrying it in `extra`, as CMP does: one hot-loop
        // case each.
        let (op, extra) = match op {
            enc::LUI => (enc::LDI, 0),
            enc::CMPI..=enc::CMPI_LAST => (enc::CMPI, (op - enc::CMPI) as u16),
            _ => (op, enc::extra(w)),
        };
        ops.push(NOp {
            op,
            a: enc::rd(w),
            b: enc::ra(w),
            c: enc::rb(w),
            extra,
            len: 0,
            imm,
            region: 0,
        });
    }
    // A region ends in a call or a terminator, both of which emit an op,
    // so no two regions share a first op.
    for (i, r) in regions.iter().enumerate() {
        let first = &mut ops[r.first_op as usize];
        first.len = r.len as u16;
        first.region = i as u32;
    }
    word_to_dec.push(ops.len() as u32);
    let edges = ff
        .edges
        .into_iter()
        .map(|e| NatEdge {
            copies: e.copies,
            target: word_to_dec[e.target as usize],
            slot: layout.slot(e.from, e.to),
            to: e.to,
        })
        .collect();
    NatBody {
        ops,
        regions,
        insts,
        edges,
        calls: ff.calls,
        switches: ff.switches,
        n_slots: ff.n_slots,
        arg_homes: ff.arg_homes,
    }
}

// ----------------------------------------------------------------------
// Frames and value boundaries
// ----------------------------------------------------------------------

// Register fields are 5 bits wide, and the loop indexes with `& 31`.
const _: () = assert!(enc::NUM_REGS == 32);

/// A native activation record: flat `u32` registers plus spill slots.
pub(crate) struct NatFrame {
    pub(crate) func: FuncId,
    pub(crate) code: Rc<NatCode>,
    pub(crate) regs: [u32; enc::NUM_REGS],
    pub(crate) slots: Vec<u32>,
    pub(crate) pc: usize,
    pub(crate) allocas: Vec<u32>,
    /// Suspended call site: return-value home/class and invoke edges.
    pub(crate) pending: Option<PendingCall>,
}

/// What a suspended native call site needs on resume: where the return
/// value lands (if any) and the invoke edges (ok, unwind) if the call
/// was an `invoke`.
pub(crate) type PendingCall = (Option<(Home, Class)>, Option<(u32, u32)>);

impl NatFrame {
    #[inline]
    pub(crate) fn put(&mut self, h: Home, v: u32) {
        match h {
            Home::Reg(r) => self.regs[(r & 31) as usize] = v,
            Home::Slot(s) => self.slots[s as usize] = v,
        }
    }

    #[inline]
    fn get(&self, s: Src) -> u32 {
        match s {
            Src::Reg(r) => self.regs[(r & 31) as usize],
            Src::Slot(s) => self.slots[s as usize],
            Src::Imm(k) => k,
        }
    }
}

/// Low 32 bits of any scalar — the native register image of a value.
/// Truncation is always sound in this direction (registers are defined
/// as the canonical value's low word).
#[inline]
pub(crate) fn low32(v: &VmValue) -> u32 {
    match *v {
        VmValue::Bool(b) => b as u32,
        VmValue::Int { v, .. } => v as u32,
        VmValue::F32(f) => f.to_bits(),
        VmValue::F64(f) => f.to_bits() as u32,
        VmValue::Ptr(p) => p,
    }
}

/// Rebuild the exact scalar a class-tagged register represents. Only
/// exact classes cross value boundaries; `L64` is rejected at translate
/// time, so reaching it here is a translator bug.
#[inline(always)]
fn value_of(reg: u32, c: Class) -> VmValue {
    match c {
        Class::Bool => VmValue::Bool(reg != 0),
        Class::S8 => VmValue::int(IntKind::S8, reg as i32 as i64),
        Class::U8 => VmValue::int(IntKind::U8, reg as i64),
        Class::S16 => VmValue::int(IntKind::S16, reg as i32 as i64),
        Class::U16 => VmValue::int(IntKind::U16, reg as i64),
        Class::S32 => VmValue::int(IntKind::S32, reg as i32 as i64),
        Class::U32 => VmValue::int(IntKind::U32, reg as i64),
        Class::Ptr => VmValue::Ptr(reg),
        Class::L64 => unreachable!("L64 never crosses a value boundary"),
    }
}

/// The class of a runtime scalar, `None` for a float. Native registers
/// rely on every value having exactly the class the code was compiled
/// for; two classes never share a scalar.
pub(crate) fn class_of(v: &VmValue) -> Option<Class> {
    match v {
        VmValue::Bool(_) => Some(Class::Bool),
        VmValue::Int { kind, .. } => Some(Class::of_kind(*kind)),
        VmValue::Ptr(_) => Some(Class::Ptr),
        VmValue::F32(_) | VmValue::F64(_) => None,
    }
}

impl<'m> Vm<'m> {
    /// Translate `f` to machine code into its native cache slot, once,
    /// at the tier decision; whether it was accepted. The
    /// `native.translate` fault site fires here, mirroring
    /// `jit.translate`: any injected non-delay action is a refusal, which
    /// the tiered engine answers by running the function on the JIT (the
    /// program keeps running).
    pub(crate) fn native_translate(&mut self, f: FuncId) -> bool {
        let mut sp = if trace::enabled() {
            Some(trace::span(
                "native",
                format!("native.translate @{}", self.module().func(f).name()),
            ))
        } else {
            None
        };
        let t0 = std::time::Instant::now();
        let result = match lpat_core::faultpoint!("native.translate") {
            Some(lpat_core::fault::FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.translate_native(f)
            }
            Some(action) => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("injected {action:?} fault at site 'native.translate'"),
            )),
            None => self.translate_native(f),
        };
        self.tier_stats.native_translate_ns += t0.elapsed().as_nanos() as u64;
        match result {
            Ok(nc) => {
                self.tier_stats.native_translated += 1;
                self.native_cache[f.index()] = NativeSlot::Code(Rc::new(NatCode::new(nc)));
                true
            }
            Err(e) => {
                if let Some(sp) = &mut sp {
                    sp.arg("error", e.to_string());
                    trace::instant_args(
                        "native",
                        "bail-to-jit",
                        vec![
                            ("function", self.module().func(f).name().to_string()),
                            ("error", e.to_string()),
                        ],
                    );
                }
                let reason = match &e {
                    ExecError::Trap { message, .. } => message.clone(),
                    other => other.to_string(),
                };
                self.native_cache[f.index()] = NativeSlot::Refused(reason);
                false
            }
        }
    }

    /// Every function the native backend refused, in function-index
    /// order, with the reason — `--stats`' answer to "why is this not
    /// machine code".
    pub fn native_refusals(&self) -> impl Iterator<Item = (&str, &str)> {
        let m = self.module();
        self.native_cache
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| match slot {
                NativeSlot::Refused(reason) => {
                    Some((m.func(FuncId::from_index(i)).name(), reason.as_str()))
                }
                _ => None,
            })
    }

    fn translate_native(&self, f: FuncId) -> Result<NatBody, ExecError> {
        let m = self.module();
        let env = FastEnv {
            func_addr: &|f| Memory::func_addr(f.index()),
            global_addr: &|i| self.global_addrs.get(i).copied(),
            guarded: &|_| false,
        };
        match translate_fast(m, f, &env) {
            Ok(ff) => Ok(decode(ff, m, f)),
            Err(e) => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("native backend: {e}"),
            )),
        }
    }

    /// The one native frame constructor: `f`'s `code` entered at decoded
    /// op `pc`, with a slot slab from the pool only when the code spills.
    #[inline(always)]
    fn native_frame(&mut self, f: FuncId, code: Rc<NatCode>, pc: usize) -> NatFrame {
        let mut slots = Vec::new();
        if code.n_slots > 0 {
            slots = self.native_slot_pool.pop().unwrap_or_default();
            slots.clear();
            slots.resize(code.n_slots as usize, 0);
        }
        NatFrame {
            func: f,
            code,
            regs: [0; enc::NUM_REGS],
            slots,
            pc,
            allocas: Vec::new(),
            pending: None,
        }
    }

    /// A frame entering `f`'s machine code with `args` in their homes.
    /// `None` when `f` has no machine code, or the arity or an argument's
    /// class defies the signature (only mistyped indirect calls can): the
    /// caller falls back to a JIT frame, which represents any value.
    pub(crate) fn native_frame_for(&mut self, f: FuncId, args: &[VmValue]) -> Option<NatFrame> {
        let NativeSlot::Code(code) = &self.native_cache[f.index()] else {
            return None;
        };
        if args.len() != code.arg_homes.len()
            || !args
                .iter()
                .zip(&code.arg_homes)
                .all(|(v, &(_, c))| class_of(v) == Some(c))
        {
            return None;
        }
        let mut fr = self.native_frame(f, code.clone(), 0);
        for (i, v) in args.iter().enumerate() {
            let (h, _) = fr.code.arg_homes[i];
            fr.put(h, low32(v));
        }
        Some(fr)
    }

    /// Release a finished native frame's allocas and recycle its slot
    /// slab; the caller drops what is left.
    #[inline]
    pub(crate) fn recycle_native_frame(&mut self, fr: &mut NatFrame) -> Result<(), ExecError> {
        if fr.slots.capacity() > 0 {
            self.native_slot_pool.push(std::mem::take(&mut fr.slots));
        }
        for a in fr.allocas.drain(..) {
            self.mem.release(a)?;
        }
        Ok(())
    }

    /// Fold every region's entry count into `insts_executed`,
    /// `TierStats::native_insts` and the opcode histogram — count ×
    /// length and count × the region's opcode vector — and zero it.
    pub(crate) fn drain_regions(&mut self) {
        let mut n = 0;
        for slot in &self.native_cache {
            let NativeSlot::Code(code) = slot else {
                continue;
            };
            for (r, entered) in code.regions.iter().zip(&code.entered[..]) {
                let k = entered.replace(0);
                if k == 0 {
                    continue;
                }
                n += k * r.len as u64;
                for &(_, t) in code.region_insts(r) {
                    self.opcode_counts[t as usize] += k;
                }
            }
        }
        self.insts_executed += n;
        self.tier_stats.native_insts += n;
    }
}

// ----------------------------------------------------------------------
// Execution
// ----------------------------------------------------------------------

/// Transfer control along edge `e`: apply the sequentialised φ-copies
/// and record the edge/block profile (matching the interpreter's
/// `transfer`). Returns the pc the edge lands on.
#[inline(always)]
pub(crate) fn take_nat_edge(vm: &mut Vm<'_>, fr: &mut NatFrame, code: &NatCode, e: usize) -> usize {
    let edge = &code.edges[e];
    for c in &edge.copies {
        let v = fr.get(c.src);
        fr.put(c.dst, v);
    }
    if vm.opts.profile {
        vm.counters.edge(fr.func, edge.slot, edge.to);
    }
    edge.target as usize
}

/// A trap raised by machine code. Out of line and cold: building the
/// message in place would weigh on the dispatch loop.
#[cold]
#[inline(never)]
fn trap(kind: TrapKind, message: &'static str) -> ExecError {
    ExecError::trap(kind, message)
}

/// `target`'s machine code when the call `desc` can stay in it: what
/// `native_frame_for` checks on `VmValue`s — machine code, the arity,
/// each argument's class — checked here on the site's static classes,
/// once per site and callee (`seen`; a function's tier never changes). A
/// callee not yet called has no code, so its first call leaves the burst
/// and `push_mixed` decides its tier.
#[inline(always)]
fn native_callee(
    vm: &Vm<'_>,
    desc: &FastCall,
    seen: &Cell<u32>,
    target: FuncId,
) -> Option<Rc<NatCode>> {
    let NativeSlot::Code(code) = &vm.native_cache[target.index()] else {
        return None;
    };
    let key = target.index() as u32 + 1;
    if seen.get() != key {
        let args = &desc.args;
        if args.len() != code.arg_homes.len()
            || args.iter().zip(&code.arg_homes).any(|(a, p)| a.1 != p.1)
        {
            return None;
        }
        seen.set(key);
    }
    Some(code.clone())
}

/// A call that leaves machine code: an external runs right here and the
/// burst goes on (`None`); a definition without machine code, or one whose
/// signature defies the site, becomes a `Flow::Call` for `mixed_loop`.
#[cold]
#[inline(never)]
fn call_out(
    vm: &mut Vm<'_>,
    fr: &mut NatFrame,
    desc: &FastCall,
    target: FuncId,
) -> Result<Option<Flow>, ExecError> {
    let argv = desc.args.iter().map(|&(s, cl)| value_of(fr.get(s), cl));
    match vm.enter_call(target, argv.collect())? {
        Entered::External(ret) => {
            let ret = ret.map(|v| (low32(&v), class_of(&v)));
            resume_native(vm, fr, (desc.dst, desc.eh), ret)?;
            Ok(None)
        }
        // dst/eh ride in the frame's typed pending slot, not the
        // (JIT-shaped) Flow fields.
        Entered::Defined { fixed, extra } => {
            fr.pending = Some((desc.dst, desc.eh));
            Ok(Some(Flow::Call {
                target,
                args: fixed,
                varargs: extra,
                dst: None,
                eh: None,
            }))
        }
    }
}

/// Run native frames from the top of `stack` until control leaves
/// machine code, unwinds, or traps. A call into a function on machine
/// code pushes its frame in place here, arguments copied register to
/// register, with `push_mixed`'s depth limit and profile; a return into a
/// native caller pops it and lands in the caller's register without the
/// round trip through `VmValue`.
pub(crate) fn run_native_burst(
    vm: &mut Vm<'_>,
    stack: &mut Vec<TFrame>,
) -> Result<Flow, ExecError> {
    loop {
        let Some(TFrame::N(fr)) = stack.last_mut() else {
            unreachable!("a native burst on a native frame")
        };
        match run_frame(vm, fr) {
            Ok(Exit::Call(callee, code, call)) => {
                if stack.len() >= vm.opts.max_stack {
                    return Err(trap(TrapKind::StackOverflow, "call depth"));
                }
                if vm.opts.profile {
                    vm.counters.enter(vm.module(), callee);
                }
                let fr = vm.native_frame(callee, code, 0);
                stack.push(TFrame::N(fr));
                let [.., TFrame::N(caller), TFrame::N(fr)] = &mut stack[..] else {
                    unreachable!("a native call from a native frame")
                };
                let desc = &caller.code.calls[call];
                for (i, &(s, _)) in desc.args.iter().enumerate() {
                    let (h, _) = fr.code.arg_homes[i];
                    fr.put(h, caller.get(s));
                }
                caller.pending = Some((desc.dst, desc.eh));
            }
            Ok(Exit::Ret(v)) => {
                let [.., TFrame::N(fr), TFrame::N(done)] = &mut stack[..] else {
                    return Ok(Flow::Ret(v.map(|(w, cl)| value_of(w, cl))));
                };
                vm.recycle_native_frame(done)?;
                let pending = fr.pending.take().expect("pending call");
                resume_native(vm, fr, pending, v.map(|(w, cl)| (w, Some(cl))))?;
                stack.truncate(stack.len() - 1);
                vm.tier_stats.native_calls += 1;
            }
            Ok(Exit::Leave(flow)) => return Ok(flow),
            Ok(Exit::Exact) => return Err(run_exact(vm, fr)),
            Err(e) => {
                refund(vm, fr);
                return Err(e);
            }
        }
    }
}

/// Why [`run_frame`] stopped.
enum Exit {
    /// Call descriptor `.2` enters `.0`'s machine code `.1`.
    Call(FuncId, Rc<NatCode>, usize),
    /// A return: the raw word and its class, if any.
    Ret(Option<(u32, Class)>),
    /// Control leaves machine code.
    Leave(Flow),
    /// The frame stands at the first op of a region its finite fuel
    /// cannot pay for: [`run_exact`] runs it.
    Exact,
}

/// Give back what a region's entry charged for the instructions a trap
/// in its middle kept from running: the frame's pc is one past the op
/// that raised it. The region's entry is taken back and the instructions
/// up to and including the trapping one are charged singly, so fuel,
/// counts and histogram read as the interpreter's.
#[cold]
#[inline(never)]
fn refund(vm: &mut Vm<'_>, fr: &NatFrame) {
    let code = &fr.code;
    let at = fr.pc - 1;
    let r = code.regions.partition_point(|r| r.first_op as usize <= at) - 1;
    let insts = code.region_insts(&code.regions[r]);
    let done = insts.partition_point(|&(op, _)| op as usize <= at);
    if done == insts.len() {
        return;
    }
    code.entered[r].set(code.entered[r].get() - 1);
    if let Some(fuel) = &mut vm.opts.fuel {
        *fuel += (insts.len() - done) as u64;
    }
    vm.insts_executed += done as u64;
    vm.tier_stats.native_insts += done as u64;
    for &(_, t) in &insts[..done] {
        vm.opcode_counts[t as usize] += 1;
    }
}

/// Resume the native frame `fr` after its call `(dst, eh)` returned `v`
/// (low word and class): the word lands in `dst`, and an invoke takes
/// its normal edge. A value of another class than the code was compiled
/// for — possible only in unverified, type-confused modules — traps as
/// `Invalid` rather than silently reinterpreting bits (DESIGN.md §16).
pub(crate) fn resume_native(
    vm: &mut Vm<'_>,
    fr: &mut NatFrame,
    (dst, eh): PendingCall,
    v: Option<(u32, Option<Class>)>,
) -> Result<(), ExecError> {
    if let (Some((h, cl)), Some((word, from))) = (dst, v) {
        if from != Some(cl) {
            return Err(trap(TrapKind::Invalid, "native call result class mismatch"));
        }
        fr.put(h, word);
    }
    if let Some((normal, _)) = eh {
        let code = fr.code.clone();
        fr.pc = take_nat_edge(vm, fr, &code, normal as usize);
    }
    Ok(())
}

/// Run the frame's decoded code until a call, return, unwind or trap;
/// an external's call runs in place. The loop touches only the flat
/// register file, the frame's slot slab and (for memory ops) the checked
/// [`Memory`] — this is the dispatch-density win over the `LowFunc` tier.
/// Out of line, so the frame switches in [`run_native_burst`] do not
/// weigh on its registers.
#[inline(never)]
fn run_frame(vm: &mut Vm<'_>, fr: &mut NatFrame) -> Result<Exit, ExecError> {
    dispatch::<false>(vm, fr)
}

/// The per-instruction copy of [`run_frame`], entered at the first op of
/// a region that finite fuel cannot pay for. Only a region's last
/// instruction can leave it and the fuel does not reach that one, so the
/// copy always ends in a trap: `OutOfFuel` on the interpreter's
/// instruction, or whatever trapped before it.
#[cold]
#[inline(never)]
fn run_exact(vm: &mut Vm<'_>, fr: &mut NatFrame) -> ExecError {
    match dispatch::<true>(vm, fr) {
        Err(e) => e,
        Ok(_) => unreachable!("machine code left a region its fuel could not pay for"),
    }
}

/// The exact copy's accounting: charge, one at a time, the instructions
/// whose machine sequence begins at op `pc`, from `code.insts[*next]` on.
#[inline(always)]
fn charge_exact(
    vm: &mut Vm<'_>,
    code: &NatCode,
    next: &mut usize,
    pc: usize,
) -> Result<(), ExecError> {
    while let Some(&(at, t)) = code.insts.get(*next) {
        if at as usize != pc {
            break;
        }
        vm.charge_native(t as usize)?;
        *next += 1;
    }
    Ok(())
}

/// `x <pred> y` for a `CMP`/`CMPI` `extra`: bits 0–2 the predicate
/// (eq, ne, lt, gt, le, ge), bit 3 unsigned.
#[inline(always)]
fn compare(x: u32, y: u32, extra: u16) -> bool {
    let ord = if extra & 8 != 0 {
        x.cmp(&y)
    } else {
        (x as i32).cmp(&(y as i32))
    };
    match extra & 7 {
        0 => ord.is_eq(),
        1 => ord.is_ne(),
        2 => ord.is_lt(),
        3 => ord.is_gt(),
        4 => ord.is_le(),
        _ => ord.is_ge(),
    }
}

/// The dispatch loop. Without `EXACT` it charges each region once, on
/// its first op, and stops at a region finite fuel cannot pay for with
/// [`Exit::Exact`]; with it, it charges instruction by instruction. The
/// pc lives in a local: the frame's copy is written at `CALLD` and
/// whenever the loop stops. Register fields are 5 bits wide, so `& 31`
/// indexes the register file without a bounds check.
#[inline(always)]
fn dispatch<const EXACT: bool>(vm: &mut Vm<'_>, fr: &mut NatFrame) -> Result<Exit, ExecError> {
    let code = fr.code.clone();
    // Read once: through `code` every op reloaded the array's base.
    let ops = &code.ops[..];
    let mut pc = fr.pc;
    // The exact copy's cursor into `code.insts`.
    let mut next = 0;
    let mut run = || -> Result<Exit, ExecError> {
        loop {
            let op = ops[pc];
            if op.len != 0 {
                if EXACT {
                    next = code.regions[op.region as usize].first_inst as usize;
                } else {
                    if let Some(fuel) = &mut vm.opts.fuel {
                        let len = op.len as u64;
                        if *fuel < len {
                            return Ok(Exit::Exact);
                        }
                        *fuel -= len;
                    }
                    let n = &code.entered[op.region as usize];
                    n.set(n.get() + 1);
                }
            }
            if EXACT {
                charge_exact(vm, &code, &mut next, pc)?;
            }
            pc += 1;
            let (a, b, c) = (
                (op.a & 31) as usize,
                (op.b & 31) as usize,
                (op.c & 31) as usize,
            );
            match op.op {
                enc::ADD => fr.regs[a] = fr.regs[b].wrapping_add(fr.regs[c]),
                enc::SUB => fr.regs[a] = fr.regs[b].wrapping_sub(fr.regs[c]),
                enc::MUL => fr.regs[a] = fr.regs[b].wrapping_mul(fr.regs[c]),
                enc::MADD => {
                    fr.regs[a] = fr.regs[a].wrapping_add(fr.regs[b].wrapping_mul(fr.regs[c]))
                }
                enc::AND => fr.regs[a] = fr.regs[b] & fr.regs[c],
                enc::OR => fr.regs[a] = fr.regs[b] | fr.regs[c],
                enc::XOR => fr.regs[a] = fr.regs[b] ^ fr.regs[c],
                enc::SLL => {
                    let sh = fr.regs[c] & (op.extra as u32 - 1);
                    fr.regs[a] = fr.regs[b] << sh;
                }
                enc::SRL => {
                    let sh = fr.regs[c] & (op.extra as u32 - 1);
                    fr.regs[a] = fr.regs[b] >> sh;
                }
                enc::SRA => {
                    let sh = fr.regs[c] & (op.extra as u32 - 1);
                    fr.regs[a] = ((fr.regs[b] as i32) >> sh) as u32;
                }
                enc::DIVS => {
                    let (x, y) = (fr.regs[b] as i32, fr.regs[c] as i32);
                    if y == 0 {
                        return Err(trap(TrapKind::DivByZero, "integer division"));
                    }
                    fr.regs[a] = x.wrapping_div(y) as u32;
                }
                enc::DIVU => {
                    let (x, y) = (fr.regs[b], fr.regs[c]);
                    if y == 0 {
                        return Err(trap(TrapKind::DivByZero, "integer division"));
                    }
                    fr.regs[a] = x / y;
                }
                enc::REMS => {
                    let (x, y) = (fr.regs[b] as i32, fr.regs[c] as i32);
                    if y == 0 {
                        return Err(trap(TrapKind::DivByZero, "integer remainder"));
                    }
                    fr.regs[a] = x.wrapping_rem(y) as u32;
                }
                enc::REMU => {
                    let (x, y) = (fr.regs[b], fr.regs[c]);
                    if y == 0 {
                        return Err(trap(TrapKind::DivByZero, "integer remainder"));
                    }
                    fr.regs[a] = x % y;
                }
                enc::CMP => fr.regs[a] = compare(fr.regs[b], fr.regs[c], op.extra) as u32,
                enc::CMPI => fr.regs[a] = compare(fr.regs[b], op.imm, op.extra) as u32,
                enc::SETNZ => fr.regs[a] = (fr.regs[b] != 0) as u32,
                enc::NORM => {
                    let v = fr.regs[b];
                    fr.regs[a] = Class::from_code(op.extra).map_or(v, |c| c.norm(v));
                }
                enc::MOV => fr.regs[a] = fr.regs[b],
                enc::ADDI => fr.regs[a] = fr.regs[b].wrapping_add(op.imm),
                enc::MULI => fr.regs[a] = fr.regs[b].wrapping_mul(op.imm),
                enc::ANDI => fr.regs[a] = fr.regs[b] & op.imm,
                enc::ORI => fr.regs[a] = fr.regs[b] | op.imm,
                enc::XORI => fr.regs[a] = fr.regs[b] ^ op.imm,
                enc::SLLI => fr.regs[a] = fr.regs[b] << op.imm,
                enc::SRLI => fr.regs[a] = fr.regs[b] >> op.imm,
                enc::SRAI => fr.regs[a] = ((fr.regs[b] as i32) >> op.imm) as u32,
                enc::MADDI => fr.regs[a] = fr.regs[a].wrapping_add(fr.regs[b].wrapping_mul(op.imm)),
                enc::LDI => fr.regs[a] = op.imm,
                enc::LDS => fr.regs[a] = fr.slots[op.imm as usize],
                enc::STS => fr.slots[op.imm as usize] = fr.regs[b],
                enc::LD => {
                    let addr = fr.regs[b];
                    fr.regs[a] = match Class::from_code(op.extra) {
                        Some(Class::Bool) => low32(&vm.mem.load_bool(addr)?),
                        Some(Class::Ptr) => low32(&vm.mem.load_ptr(addr)?),
                        Some(cl) => {
                            let kind = cl
                                .int_kind()
                                .ok_or_else(|| trap(TrapKind::Invalid, "bad load class"))?;
                            low32(&vm.mem.load_int(addr, kind)?)
                        }
                        None => return Err(trap(TrapKind::Invalid, "bad load class")),
                    };
                }
                enc::ST => {
                    let addr = fr.regs[b];
                    let cl = Class::from_code(op.extra)
                        .filter(|c| c.is_exact())
                        .ok_or_else(|| trap(TrapKind::Invalid, "bad store class"))?;
                    vm.mem.store(addr, value_of(fr.regs[c], cl))?;
                }
                enc::ALLOC => {
                    let n: u64 = if op.extra & 2 != 0 {
                        1
                    } else if op.extra & 4 != 0 {
                        fr.regs[b] as u64
                    } else {
                        (fr.regs[b] as i32 as i64).max(0) as u64
                    };
                    let size = (fr.regs[c] as u64) * n;
                    let size32: u32 = size
                        .try_into()
                        .map_err(|_| trap(TrapKind::OutOfMemory, "allocation too large"))?;
                    let addr = vm.mem.alloc(size32.max(1))?;
                    if op.extra & 1 != 0 {
                        fr.allocas.push(addr);
                    }
                    fr.regs[a] = addr;
                }
                enc::FREE => {
                    let p = fr.regs[b];
                    if p != 0 {
                        vm.mem.release(p)?;
                    }
                }
                enc::BR => pc = take_nat_edge(vm, fr, &code, op.imm as usize),
                enc::CBNZ => {
                    if fr.regs[b] != 0 {
                        pc = take_nat_edge(vm, fr, &code, op.imm as usize);
                    }
                }
                enc::SWITCH => {
                    let v = fr.regs[b];
                    let tbl = &code.switches[op.imm as usize];
                    let mut e = tbl.default;
                    for &(cv, ce) in &tbl.cases {
                        if cv == v {
                            e = ce;
                            break;
                        }
                    }
                    pc = take_nat_edge(vm, fr, &code, e as usize);
                }
                enc::CALLD => {
                    let i = op.imm as usize;
                    let call = &code.calls[i];
                    if vm.opts.profile {
                        vm.counters.site(fr.func, call.site as usize);
                    }
                    let target = match &call.callee {
                        FastCallee::Direct(f) => *f,
                        FastCallee::Indirect(s) => vm.resolve(fr.get(*s))?,
                    };
                    if let Some(callee) = native_callee(vm, call, &code.native[i], target) {
                        return Ok(Exit::Call(target, callee, i));
                    }
                    // An external's return may take an invoke's normal edge.
                    fr.pc = pc;
                    if let Some(flow) = call_out(vm, fr, call, target)? {
                        return Ok(Exit::Leave(flow));
                    }
                    pc = fr.pc;
                }
                enc::RET => {
                    if op.imm & 1 == 0 {
                        return Ok(Exit::Ret(None));
                    }
                    let cl = Class::from_code((op.imm >> 1) as u16)
                        .filter(|c| c.is_exact())
                        .ok_or_else(|| trap(TrapKind::Invalid, "bad ret class"))?;
                    return Ok(Exit::Ret(Some((fr.regs[b], cl))));
                }
                enc::UNWIND => return Ok(Exit::Leave(Flow::Unwinding)),
                enc::UNREACHABLE => {
                    return Err(trap(TrapKind::Unreachable, "unreachable executed"))
                }
                _ => return Err(trap(TrapKind::Invalid, "bad native opcode")),
            }
        }
    };
    let exit = run();
    fr.pc = pc;
    exit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmOptions;
    use lpat_core::Inst;

    /// Straight-line code, a loop, calls in the middle of a block, an
    /// `invoke` and a `switch`.
    const SHAPES: &str = "
declare void @print_int(int)
define internal int @straight(int %a, int %b) {
e:
  %x = add int %a, %b
  %y = mul int %x, %a
  %z = sub int %y, 3
  ret int %z
}
define internal int @loop(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}
define internal void @thrower(int %v) {
e:
  %c = seteq int %v, 3
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  %a = call int @straight(int 2, int 5)
  %b = add int %a, 1
  call void @print_int(int %b)
  %l = call int @loop(int %b)
  %r = rem int %l, 4
  invoke void @thrower(int %r) to label %ok unwind label %bad
ok:
  %k = add int %r, 1
  switch int %k, label %d [ int 1, label %one int 2, label %two ]
one:
  ret int 1
two:
  ret int 2
d:
  %z = mul int %k, %k
  ret int %z
bad:
  ret int -1
}";

    #[test]
    fn regions_start_at_blocks_and_after_calls() {
        let m = lpat_asm::parse_module("t", SHAPES).unwrap();
        m.verify().unwrap();
        let vm = Vm::new(&m, VmOptions::default()).unwrap();
        let env = FastEnv {
            func_addr: &|f| Memory::func_addr(f.index()),
            global_addr: &|i| vm.global_addrs.get(i).copied(),
            guarded: &|_| false,
        };
        let mut calls = 0;
        for (fid, f) in m.funcs().filter(|(_, f)| !f.is_declaration()) {
            let ff = translate_fast(&m, fid, &env).unwrap();
            let tags: Vec<u8> = (ff.words.iter())
                .filter(|&&w| enc::op(w) == enc::ACCT)
                .map(|&w| enc::idx24(w) as u8)
                .collect();
            let code = NatCode::new(decode(ff, &m, fid));
            // The IR's side: every charged instruction in code order, and
            // the ones a region must start at.
            let (mut opcodes, mut starts) = (Vec::new(), Vec::new());
            for b in f.block_ids() {
                let mut start = true;
                for inst in f.block_insts(b).iter().map(|&i| f.inst(i)) {
                    if matches!(inst, Inst::Phi { .. }) {
                        continue;
                    }
                    if start {
                        starts.push(opcodes.len() as u32);
                    }
                    opcodes.push(inst.opcode_index() as u8);
                    start = matches!(inst, Inst::Call { .. } | Inst::Invoke { .. });
                    calls += start as usize;
                }
            }
            let name = f.name();
            let got: Vec<u32> = code.regions.iter().map(|r| r.first_inst).collect();
            assert_eq!(got, starts, "@{name}: region starts");
            let total: u32 = code.regions.iter().map(|r| r.len).sum();
            assert_eq!(total as usize, tags.len(), "@{name}: lengths vs ACCT words");
            assert_eq!(tags, opcodes, "@{name}: ACCT tags vs IR opcodes");
            for (i, r) in code.regions.iter().enumerate() {
                let vector: Vec<u8> = code.region_insts(r).iter().map(|&(_, t)| t).collect();
                let span = r.first_inst as usize..(r.first_inst + r.len) as usize;
                assert_eq!(vector, tags[span], "@{name}: region {i}'s opcodes");
                assert_eq!(code.insts[r.first_inst as usize].0, r.first_op);
                let first = code.ops[r.first_op as usize];
                assert_eq!((first.len as u32, first.region), (r.len, i as u32));
            }
            let stamped = code.ops.iter().filter(|op| op.len != 0).count();
            assert_eq!(stamped, code.regions.len(), "@{name}: stamped ops");
            assert!(code.entered.iter().all(|n| n.get() == 0));
        }
        // Three calls and an invoke in @main, none elsewhere.
        assert_eq!(calls, 4);
    }
}
