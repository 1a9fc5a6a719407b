//! Bytecode writer: serializes a [`Module`] to the compact binary form.

use std::collections::HashMap;

use lpat_core::{Const, ConstId, Function, Inst, InstId, Module, Type, Value};

use crate::format::{pack_head, write_string, write_varint, zigzag, Op, FIELD_MAX, MAGIC, VERSION};

/// Encoding options.
#[derive(Copy, Clone, Debug)]
pub struct WriteOptions {
    /// Use the compact single-word instruction heads when operands fit
    /// (the paper's "most instructions in a single 32-bit word" design).
    /// Disabled, every instruction writes its operands as varints after
    /// the head word — the DESIGN.md ablation for Figure 5.
    pub compact_heads: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            compact_heads: true,
        }
    }
}

/// Serialize `m` to bytes.
///
/// The inverse is [`crate::read_module`]; `read_module(&write_module(m))`
/// reproduces a module whose printed form equals `m`'s.
pub fn write_module(m: &Module) -> Vec<u8> {
    write_module_with(m, WriteOptions::default())
}

/// Serialize with explicit [`WriteOptions`].
pub fn write_module_with(m: &Module, opts: WriteOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());

    // The in-memory constant pool accumulates garbage over a module's
    // lifetime (transforms retire constants; symbol removal leaves
    // dangling address entries). Serialization garbage-collects: only
    // constants reachable from instructions and initializers are written,
    // under a dense renumbering by use.
    let cmap = number_consts(m);

    write_types(m, &mut out);
    write_func_sigs(m, &mut out);
    write_global_heads(m, &mut out);
    write_consts(m, &cmap, &mut out);
    write_global_inits(m, &cmap, &mut out);
    for (_, f) in m.funcs() {
        if !f.is_declaration() {
            write_body(m, f, &cmap, opts, &mut out);
        }
    }
    out
}

/// The constants a module writes, in file order, and the number each is
/// written under.
struct ConstNumbering {
    order: Vec<ConstId>,
    /// By pool index; `usize::MAX` for a constant nothing reaches.
    number: Vec<usize>,
}

impl ConstNumbering {
    fn of(&self, c: ConstId) -> u64 {
        self.number[c.index()] as u64
    }
}

/// Number the constants the module reaches, most used first and ties by
/// first use, so that the most used get the ids that encode in one byte
/// (below 32 in an operand, below 128 as a `switch` case, an aggregate
/// element or a global initializer). A use is an operand, a case, an
/// initializer, or an element of an aggregate (once per aggregate: the
/// pool writes each aggregate once). Each aggregate's elements are placed
/// before it, as the reader requires. The numbering depends on what the
/// module says, not on the order its pool interned the constants in.
fn number_consts(m: &Module) -> ConstNumbering {
    let elements = |c: ConstId| match m.consts.get(c) {
        Const::Array { elems, .. } | Const::Struct { fields: elems, .. } => &elems[..],
        _ => &[],
    };
    // Uses, and the order constants are first met in: initializers, then
    // instructions in layout order; an aggregate's elements are met (and
    // counted) right after it, the first time it is.
    let mut uses = vec![0u32; m.consts.len()];
    let mut met: Vec<ConstId> = Vec::new();
    let mut stack: Vec<ConstId> = Vec::new();
    let mut count = |c: ConstId| {
        stack.push(c);
        while let Some(c) = stack.pop() {
            uses[c.index()] += 1;
            if uses[c.index()] == 1 {
                met.push(c);
                stack.extend(elements(c).iter().rev());
            }
        }
    };
    for (_, g) in m.globals() {
        if let Some(init) = g.init {
            count(init);
        }
    }
    for (_, f) in m.funcs() {
        for iid in f.inst_ids_in_order() {
            let inst = f.inst(iid);
            inst.for_each_operand(|v| {
                if let Value::Const(c) = v {
                    count(c);
                }
            });
            if let Inst::Switch { cases, .. } = inst {
                for &(c, _) in cases {
                    count(c);
                }
            }
        }
    }
    // `met` is in first-use order, so a stable sort breaks ties by it.
    met.sort_by_key(|c| std::cmp::Reverse(uses[c.index()]));
    let mut number = vec![usize::MAX; m.consts.len()];
    let mut order = Vec::with_capacity(met.len());
    // Post-order over the elements, without recursion: `(c, k)` is `c`
    // with its elements before the `k`-th placed.
    let mut stack: Vec<(ConstId, usize)> = Vec::new();
    for c in met {
        stack.push((c, 0));
        while let Some((c, k)) = stack.pop() {
            if number[c.index()] != usize::MAX {
                continue;
            }
            match elements(c).get(k) {
                Some(&e) => stack.extend([(c, k + 1), (e, 0)]),
                None => {
                    number[c.index()] = order.len();
                    order.push(c);
                }
            }
        }
    }
    ConstNumbering { order, number }
}

/// Number of pre-interned primitive types that are never serialized.
const N_PRIMS: usize = 12;

fn write_types(m: &Module, out: &mut Vec<u8>) {
    let total = m.types.len();
    write_varint(out, (total - N_PRIMS) as u64);
    for (id, ty) in m.types.iter().skip(N_PRIMS) {
        let _ = id;
        match ty {
            Type::Ptr(p) => {
                out.push(0);
                write_varint(out, p.index() as u64);
            }
            Type::Array { elem, len } => {
                out.push(1);
                write_varint(out, elem.index() as u64);
                write_varint(out, *len);
            }
            Type::Struct { name: None, fields } => {
                out.push(2);
                write_varint(out, fields.len() as u64);
                for f in fields {
                    write_varint(out, f.index() as u64);
                }
            }
            Type::Struct {
                name: Some(n),
                fields,
            } => {
                out.push(3);
                write_string(out, n);
                write_varint(out, fields.len() as u64);
                for f in fields {
                    write_varint(out, f.index() as u64);
                }
            }
            Type::Func {
                ret,
                params,
                varargs,
            } => {
                out.push(4);
                write_varint(out, ret.index() as u64);
                write_varint(out, params.len() as u64);
                for p in params {
                    write_varint(out, p.index() as u64);
                }
                out.push(*varargs as u8);
            }
            Type::Opaque(n) => {
                out.push(5);
                write_string(out, n);
            }
            prim => unreachable!("primitive type {prim:?} after the preamble"),
        }
    }
}

fn write_func_sigs(m: &Module, out: &mut Vec<u8>) {
    write_varint(out, m.num_funcs() as u64);
    for (_, f) in m.funcs() {
        write_string(out, f.name());
        write_varint(out, f.fn_type().index() as u64);
        let flags = (matches!(f.linkage(), lpat_core::Linkage::Internal) as u8)
            | ((!f.is_declaration() as u8) << 1);
        out.push(flags);
    }
}

fn write_global_heads(m: &Module, out: &mut Vec<u8>) {
    write_varint(out, m.num_globals() as u64);
    for (_, g) in m.globals() {
        write_string(out, &g.name);
        write_varint(out, g.value_ty.index() as u64);
        let flags = (g.is_const as u8)
            | ((matches!(g.linkage, lpat_core::Linkage::Internal) as u8) << 1)
            | ((g.init.is_some() as u8) << 2);
        out.push(flags);
    }
}

fn write_consts(m: &Module, cmap: &ConstNumbering, out: &mut Vec<u8>) {
    write_varint(out, cmap.order.len() as u64);
    for &id in &cmap.order {
        match m.consts.get(id) {
            Const::Bool(b) => {
                out.push(0);
                out.push(*b as u8);
            }
            Const::Int { kind, value } => {
                out.push(1);
                out.push(*kind as u8);
                write_varint(out, zigzag(*value));
            }
            Const::F32(bits) => {
                out.push(2);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Const::F64(bits) => {
                out.push(3);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Const::Null(t) => {
                out.push(4);
                write_varint(out, t.index() as u64);
            }
            Const::Undef(t) => {
                out.push(5);
                write_varint(out, t.index() as u64);
            }
            Const::Zero(t) => {
                out.push(6);
                write_varint(out, t.index() as u64);
            }
            Const::Array { ty, elems } => {
                out.push(7);
                write_varint(out, ty.index() as u64);
                write_varint(out, elems.len() as u64);
                for e in elems {
                    write_varint(out, cmap.of(*e));
                }
            }
            Const::Struct { ty, fields } => {
                out.push(8);
                write_varint(out, ty.index() as u64);
                write_varint(out, fields.len() as u64);
                for e in fields {
                    write_varint(out, cmap.of(*e));
                }
            }
            Const::GlobalAddr(g) => {
                out.push(9);
                write_varint(out, g.index() as u64);
            }
            Const::FuncAddr(f) => {
                out.push(10);
                write_varint(out, f.index() as u64);
            }
        }
    }
}

fn write_global_inits(m: &Module, cmap: &ConstNumbering, out: &mut Vec<u8>) {
    for (_, g) in m.globals() {
        if let Some(init) = g.init {
            write_varint(out, cmap.of(init));
        }
    }
}

/// Encode a [`Value`] as a tagged valnum relative to instruction `cur`.
fn valnum(idmap: &HashMap<InstId, usize>, cmap: &ConstNumbering, cur: usize, v: Value) -> u64 {
    match v {
        Value::Inst(d) => {
            let def = idmap[&d];
            zigzag(cur as i64 - def as i64) << 2
        }
        Value::Arg(n) => ((n as u64) << 2) | 1,
        Value::Const(c) => (cmap.of(c) << 2) | 2,
    }
}

fn write_body(
    m: &Module,
    f: &Function,
    cmap: &ConstNumbering,
    opts: WriteOptions,
    out: &mut Vec<u8>,
) {
    let _ = m;
    // Function-wide instruction numbering in block layout order.
    let mut idmap = HashMap::new();
    for (i, id) in f.inst_ids_in_order().enumerate() {
        idmap.insert(id, i);
    }
    write_varint(out, f.num_blocks() as u64);
    let mut cur = 0usize;
    for b in f.block_ids() {
        write_varint(out, f.block_insts(b).len() as u64);
        for &iid in f.block_insts(b) {
            write_inst(f, &idmap, cmap, opts, cur, iid, out);
            cur += 1;
        }
    }
}

/// `true` if every inline candidate fits a 12-bit field.
fn fits(vals: &[u64]) -> bool {
    vals.iter().all(|&v| v <= FIELD_MAX as u64)
}

fn write_inst(
    f: &Function,
    idmap: &HashMap<InstId, usize>,
    cmap: &ConstNumbering,
    opts: WriteOptions,
    cur: usize,
    iid: InstId,
    out: &mut Vec<u8>,
) {
    let vn = |v: Value| valnum(idmap, cmap, cur, v);
    // Emit head word + optional extended operands + fixed trailing lists.
    let head = |out: &mut Vec<u8>, op: Op, inline: &[u64]| {
        debug_assert!(inline.len() <= 2);
        if opts.compact_heads && fits(inline) {
            let a = inline.first().copied().unwrap_or(0) as u32;
            let b = inline.get(1).copied().unwrap_or(0) as u32;
            out.extend_from_slice(&pack_head(op, 0, a, b).to_le_bytes());
        } else {
            out.extend_from_slice(&pack_head(op, 1, 0, 0).to_le_bytes());
            for &v in inline {
                write_varint(out, v);
            }
        }
    };
    match f.inst(iid) {
        Inst::Ret(None) => head(out, Op::RetVoid, &[]),
        Inst::Ret(Some(v)) => head(out, Op::RetVal, &[vn(*v)]),
        Inst::Br(b) => head(out, Op::Br, &[b.index() as u64]),
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            head(out, Op::CondBr, &[vn(*cond)]);
            write_varint(out, then_bb.index() as u64);
            write_varint(out, else_bb.index() as u64);
        }
        Inst::Switch {
            val,
            default,
            cases,
        } => {
            head(out, Op::Switch, &[]);
            write_varint(out, vn(*val));
            write_varint(out, default.index() as u64);
            write_varint(out, cases.len() as u64);
            for (c, b) in cases {
                write_varint(out, cmap.of(*c));
                write_varint(out, b.index() as u64);
            }
        }
        Inst::Invoke {
            callee,
            args,
            normal,
            unwind,
        } => {
            head(out, Op::Invoke, &[]);
            write_varint(out, vn(*callee));
            write_varint(out, args.len() as u64);
            for a in args {
                write_varint(out, vn(*a));
            }
            write_varint(out, normal.index() as u64);
            write_varint(out, unwind.index() as u64);
        }
        Inst::Unwind => head(out, Op::Unwind, &[]),
        Inst::Unreachable => head(out, Op::Unreachable, &[]),
        Inst::Bin { op, lhs, rhs } => head(out, Op::from_bin(*op), &[vn(*lhs), vn(*rhs)]),
        Inst::Cmp { pred, lhs, rhs } => head(out, Op::from_pred(*pred), &[vn(*lhs), vn(*rhs)]),
        Inst::Malloc { elem_ty, count } => match count {
            None => head(out, Op::Malloc, &[elem_ty.index() as u64]),
            Some(c) => head(out, Op::MallocN, &[elem_ty.index() as u64, vn(*c)]),
        },
        Inst::Alloca { elem_ty, count } => match count {
            None => head(out, Op::Alloca, &[elem_ty.index() as u64]),
            Some(c) => head(out, Op::AllocaN, &[elem_ty.index() as u64, vn(*c)]),
        },
        Inst::Free(p) => head(out, Op::Free, &[vn(*p)]),
        Inst::Load { ptr } => head(out, Op::Load, &[vn(*ptr)]),
        Inst::Store { val, ptr } => head(out, Op::Store, &[vn(*val), vn(*ptr)]),
        Inst::Gep { ptr, indices } => {
            head(out, Op::Gep, &[vn(*ptr)]);
            write_varint(out, indices.len() as u64);
            for i in indices {
                write_varint(out, vn(*i));
            }
        }
        Inst::Phi { incoming } => {
            head(out, Op::Phi, &[f.inst_ty(iid).index() as u64]);
            write_varint(out, incoming.len() as u64);
            for (v, b) in incoming {
                write_varint(out, vn(*v));
                write_varint(out, b.index() as u64);
            }
        }
        Inst::Call { callee, args } => {
            head(out, Op::Call, &[vn(*callee)]);
            write_varint(out, args.len() as u64);
            for a in args {
                write_varint(out, vn(*a));
            }
        }
        Inst::Cast { val, to } => head(out, Op::Cast, &[vn(*val), to.index() as u64]),
        Inst::VaArg { ty } => head(out, Op::VaArg, &[ty.index() as u64]),
    }
}
