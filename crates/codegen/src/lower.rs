//! IR → machine-IR lowering, with registers from the shared linear-scan
//! allocator ([`crate::regalloc`]).

use lpat_core::{
    BinOp, Const, FuncId, Function, GepError, GepStep, Inst, InstId, Module, Type, Value,
};

use crate::mir::{Loc, MFunc, MInst, MKind, PReg, Src};
use crate::regalloc::{self, Assign};

/// Register budget of a target.
#[derive(Copy, Clone, Debug)]
pub struct RegBudget {
    /// Allocatable general-purpose registers.
    pub gprs: u8,
}

/// Lower one function.
pub fn lower_function(m: &Module, fid: FuncId, budget: RegBudget) -> MFunc {
    let f = m.func(fid);
    if f.is_declaration() {
        return MFunc {
            name: f.name().to_string(),
            ..MFunc::default()
        };
    }
    let params = f.num_params();
    let (locs, spill_slots) = allocate(f, budget);
    let mut static_alloca = 0u32;

    // Pre-scan static allocas so they become frame offsets (by arena slot).
    let mut alloca_offsets = vec![0u32; f.num_inst_slots()];
    for iid in f.inst_ids_in_order() {
        if let Inst::Alloca {
            elem_ty,
            count: None,
        } = f.inst(iid)
        {
            alloca_offsets[iid.index()] = static_alloca;
            static_alloca += m.types.size_of(*elem_ty).max(1) as u32;
            static_alloca = (static_alloca + 7) & !7;
        }
    }
    let frame_size = spill_slots * 8 + static_alloca;

    let src_of = |v: Value| -> Src {
        match v {
            Value::Inst(i) => Src::Loc(locs[inst_num(params, i)]),
            Value::Arg(n) => Src::Loc(locs[n as usize]),
            Value::Const(c) => match m.consts.get(c) {
                Const::Bool(b) => Src::Imm(*b as i64),
                Const::Int { value, .. } => Src::Imm(*value),
                Const::Null(_) => Src::Imm(0),
                Const::Undef(_) | Const::Zero(_) => Src::Imm(0),
                // Floats live in a constant pool: modeled as a memory read.
                Const::F32(_) | Const::F64(_) => Src::Loc(Loc::Slot(u32::MAX)),
                // Symbol addresses are link-time immediates.
                Const::GlobalAddr(_) | Const::FuncAddr(_) => Src::Imm(0x0040_0000),
                Const::Array { .. } | Const::Struct { .. } => Src::Imm(0),
            },
        }
    };
    let dst_of = |i: InstId| -> Option<Loc> { Some(locs[inst_num(params, i)]) };

    let mut blocks: Vec<Vec<MInst>> = Vec::with_capacity(f.num_blocks());
    for b in f.block_ids() {
        let mut out: Vec<MInst> = Vec::new();
        if b == f.entry() {
            out.push(MInst::new(
                MKind::Prologue { frame: frame_size },
                None,
                vec![],
            ));
        }
        let insts = f.block_insts(b);
        for (pos, &iid) in insts.iter().enumerate() {
            let is_last = pos + 1 == insts.len();
            let inst = f.inst(iid);
            // φ-copies belong at the *end* of predecessors; before emitting
            // a terminator, emit copies for every successor φ.
            if is_last && inst.is_terminator() {
                for s in inst.successors() {
                    for &pid in f.block_insts(s) {
                        if let Inst::Phi { incoming } = f.inst(pid) {
                            if let Some((v, _)) = incoming.iter().find(|(_, pb)| *pb == b) {
                                out.push(MInst::new(MKind::Mov, dst_of(pid), vec![src_of(*v)]));
                            }
                        }
                    }
                }
            }
            match inst {
                Inst::Phi { .. } => {} // handled at predecessor ends
                Inst::Bin { op, lhs, rhs } => out.push(MInst::new(
                    MKind::Bin(*op),
                    dst_of(iid),
                    vec![src_of(*lhs), src_of(*rhs)],
                )),
                Inst::Cmp { pred, lhs, rhs } => out.push(MInst::new(
                    MKind::Cmp(*pred),
                    dst_of(iid),
                    vec![src_of(*lhs), src_of(*rhs)],
                )),
                Inst::Cast { val, .. } => {
                    out.push(MInst::new(MKind::Cast, dst_of(iid), vec![src_of(*val)]))
                }
                Inst::Load { ptr } => {
                    let size = first_class_size(m, f.inst_ty(iid));
                    out.push(MInst::new(
                        MKind::Load(size),
                        dst_of(iid),
                        vec![src_of(*ptr)],
                    ));
                }
                Inst::Store { val, ptr } => {
                    let size = first_class_size(m, m.value_type(f, *val));
                    out.push(MInst::new(
                        MKind::Store(size),
                        None,
                        vec![src_of(*val), src_of(*ptr)],
                    ));
                }
                Inst::Gep { ptr, indices } => {
                    lower_gep(m, f, *ptr, indices, &src_of, dst_of(iid), &mut out);
                }
                Inst::Alloca { count: None, .. } => {
                    // Static alloca: address = frame base + offset.
                    out.push(MInst::new(
                        MKind::Lea {
                            scale: 0,
                            disp: alloca_offsets[iid.index()] as i64,
                        },
                        dst_of(iid),
                        vec![Src::Imm(0)],
                    ));
                }
                Inst::Alloca { count: Some(c), .. } => {
                    // Dynamic stack adjustment.
                    out.push(MInst::new(
                        MKind::Bin(BinOp::Sub),
                        dst_of(iid),
                        vec![Src::Imm(0), src_of(*c)],
                    ));
                }
                Inst::Malloc { count, .. } => {
                    let nargs = 1 + count.is_some() as usize;
                    out.push(MInst::new(MKind::Call { nargs }, dst_of(iid), vec![]));
                }
                Inst::Free(p) => {
                    out.push(MInst::new(MKind::Call { nargs: 1 }, None, vec![src_of(*p)]));
                }
                Inst::VaArg { .. } => {
                    out.push(MInst::new(MKind::Load(4), dst_of(iid), vec![Src::Imm(0)]));
                }
                Inst::Call { args, .. } => {
                    let srcs: Vec<Src> = args.iter().map(|&a| src_of(a)).collect();
                    out.push(MInst::new(
                        MKind::Call { nargs: args.len() },
                        dst_of(iid),
                        srcs,
                    ));
                }
                Inst::Invoke { args, normal, .. } => {
                    // Call followed by a jump to the normal destination;
                    // the unwind edge costs a landing-pad table entry,
                    // modeled in the data section, not code.
                    let srcs: Vec<Src> = args.iter().map(|&a| src_of(a)).collect();
                    out.push(MInst::new(
                        MKind::Call { nargs: args.len() },
                        dst_of(iid),
                        srcs,
                    ));
                    if normal.index() != b.index() + 1 {
                        out.push(MInst::new(MKind::Jump(normal.index()), None, vec![]));
                    }
                }
                Inst::Br(t) => {
                    if t.index() != b.index() + 1 {
                        out.push(MInst::new(MKind::Jump(t.index()), None, vec![]));
                    }
                }
                Inst::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    out.push(MInst::new(
                        MKind::CondJump(then_bb.index()),
                        None,
                        vec![src_of(*cond)],
                    ));
                    if else_bb.index() != b.index() + 1 {
                        out.push(MInst::new(MKind::Jump(else_bb.index()), None, vec![]));
                    }
                }
                Inst::Switch { val, cases, .. } => {
                    out.push(MInst::new(
                        MKind::JumpTable(cases.len()),
                        None,
                        vec![src_of(*val)],
                    ));
                }
                Inst::Ret(v) => {
                    let srcs = v.map(|v| vec![src_of(v)]).unwrap_or_default();
                    out.push(MInst::new(MKind::Mov, None, srcs));
                    out.push(MInst::new(MKind::Epilogue, None, vec![]));
                    out.push(MInst::new(MKind::Ret, None, vec![]));
                }
                Inst::Unwind | Inst::Unreachable => {
                    out.push(MInst::new(MKind::Call { nargs: 0 }, None, vec![]));
                }
            }
        }
        blocks.push(out);
    }
    MFunc {
        blocks,
        frame_size,
        name: f.name().to_string(),
    }
}

fn first_class_size(m: &Module, ty: lpat_core::TypeId) -> u8 {
    match m.types.ty(ty) {
        Type::Bool => 1,
        Type::Int(k) => k.bytes() as u8,
        Type::F32 => 4,
        Type::F64 => 8,
        Type::Ptr(_) => 4,
        _ => 4,
    }
}

/// Lower a GEP into lea/mul-add chains.
fn lower_gep(
    m: &Module,
    f: &Function,
    ptr: Value,
    indices: &[Value],
    src_of: &dyn Fn(Value) -> Src,
    dst: Option<Loc>,
    out: &mut Vec<MInst>,
) {
    let mut disp: i64 = 0;
    let mut parts: Vec<(Src, u32)> = Vec::new(); // (index, scale)
    m.types
        .gep_steps::<GepError>(
            m.value_type(f, ptr),
            indices,
            true,
            |v| m.consts.int_of(v),
            |step| {
                match step {
                    GepStep::Field { offset, .. } => disp = disp.wrapping_add(offset as i64),
                    GepStep::Scaled {
                        index: Value::Const(c),
                        stride,
                    } => {
                        let v = m.consts.as_int(c).map(|(_, v)| v).unwrap_or(0);
                        disp = disp.wrapping_add(v.wrapping_mul(stride as i64));
                    }
                    GepStep::Scaled { index, stride } => parts.push((src_of(index), stride as u32)),
                }
                Ok(())
            },
        )
        .expect("verified gep");
    let base = src_of(ptr);
    match parts.len() {
        0 => out.push(MInst::new(MKind::Lea { scale: 0, disp }, dst, vec![base])),
        _ => {
            // base + idx0*s0 (lea), further parts as mul+add pairs.
            let (i0, s0) = parts[0];
            out.push(MInst::new(
                MKind::Lea { scale: s0, disp },
                dst,
                vec![base, i0],
            ));
            // Each further variable index: product into the destination
            // (as scratch), then accumulate it onto the address.
            let acc = Src::Loc(dst.unwrap_or(Loc::Slot(0)));
            for &(ix, sx) in &parts[1..] {
                out.push(MInst::new(
                    MKind::Bin(BinOp::Mul),
                    dst,
                    vec![ix, Src::Imm(sx as i64)],
                ));
                out.push(MInst::new(MKind::Bin(BinOp::Add), dst, vec![acc, ix]));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Register allocation
// ----------------------------------------------------------------------

/// The instruction in arena slot `i` has value number `params + i` (see
/// [`regalloc`]); the allocator's tables are indexed by it.
fn inst_num(params: usize, i: InstId) -> usize {
    params + i.index()
}

/// A location for every SSA value, by value number, from the allocator
/// the executable back end uses ([`regalloc`]), and the number of spill
/// slots. A value that is never read lands in the first register.
fn allocate(f: &Function, budget: RegBudget) -> (Vec<Loc>, u32) {
    let live = regalloc::live_ranges(f);
    let (assign, slots) = regalloc::linear_scan(&live.range, budget.gprs);
    let locs = assign
        .into_iter()
        .map(|a| match a {
            Assign::Reg(r) => Loc::Reg(PReg(r)),
            Assign::Slot(s) => Loc::Slot(s * 8),
            Assign::Dead => Loc::Reg(PReg(0)),
        })
        .collect();
    (locs, slots)
}
