//! Bytecode reader: reconstructs a [`Module`] from the binary form.
//!
//! Most instruction result types are not stored — they are re-inferred from
//! operand types, exactly as the in-memory builder infers them. Because a
//! definition may appear later in block-layout order than a use (layout
//! order is not dominance order), inference runs as a memoized depth-first
//! resolution over the instruction operand graph.

use lpat_core::{
    fault::FaultAction, BlockId, Const, ConstId, FuncId, GlobalId, Inst, InstId, IntKind, Linkage,
    Module, Type, TypeError, TypeId, Value,
};

use crate::format::{unpack_head, unzigzag, DecodeError, Op, Reader, MAGIC, VERSION};

/// Deserialize a module from `buf`.
///
/// This is an ingestion boundary: `buf` may be arbitrary hostile bytes
/// (the lifelong-compilation model ships bytecode between machines), so
/// the reader must return `Err` — never panic, never let a declared
/// length field drive allocation past the input's own size — for *any*
/// input.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input. The result is not
/// verified; run [`Module::verify`] for semantic checks.
pub fn read_module(name: &str, buf: &[u8]) -> Result<Module, DecodeError> {
    // Fault site on a no-panic path: panic/corrupt manifest as a decode
    // error, exercising the caller's degraded-ingestion handling.
    match lpat_core::faultpoint!("bytecode.read") {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(_) => return Err(DecodeError("injected fault at site 'bytecode.read'".into())),
        None => {}
    }
    let mut r = Reader::new(buf);
    if r.bytes(4)? != MAGIC {
        return Err(DecodeError("bad magic".into()));
    }
    if r.u32()? != VERSION {
        return Err(DecodeError("unsupported version".into()));
    }
    let mut m = Module::new(name);
    read_types(&mut m, &mut r)?;
    let bodies = read_func_sigs(&mut m, &mut r)?;
    let inits = read_global_heads(&mut m, &mut r)?;
    read_consts(&mut m, &mut r)?;
    for g in inits {
        let c = r.vusize()?;
        if c >= m.consts.len() {
            return Err(DecodeError("initializer constant out of range".into()));
        }
        m.global_mut(g).init = Some(ConstId::from_index(c));
    }
    for f in bodies {
        read_body(&mut m, f, &mut r)?;
    }
    if !r.at_end() {
        return Err(DecodeError("trailing bytes after module".into()));
    }
    Ok(m)
}

const N_PRIMS: usize = 12;

fn tyid(m: &Module, idx: usize) -> Result<TypeId, DecodeError> {
    m.types
        .iter()
        .nth(idx)
        .map(|(id, _)| id)
        .ok_or_else(|| DecodeError(format!("type index {idx} out of range")))
}

/// Resolve a type index that must already exist (cheap path: indices are
/// dense, so bounds-check then construct).
fn ty_at(m: &Module, idx: usize) -> Result<TypeId, DecodeError> {
    if idx >= m.types.len() {
        return Err(DecodeError(format!("type index {idx} out of range")));
    }
    tyid(m, idx)
}

fn read_types(m: &mut Module, r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let n = r.vusize()?;
    // Named struct bodies may reference later ids; defer them.
    let mut deferred: Vec<(TypeId, Vec<usize>)> = Vec::new();
    for i in 0..n {
        let expected_id = N_PRIMS + i;
        let tag = r.byte()?;
        let made = match tag {
            0 => {
                let p = r.vusize()?;
                let p = ty_at(m, p)?;
                m.types.ptr(p)
            }
            1 => {
                let e = r.vusize()?;
                let len = r.varint()?;
                let e = ty_at(m, e)?;
                m.types.array(e, len)
            }
            2 => {
                let k = r.bounded_count("struct field", 1)?;
                let mut fields = Vec::with_capacity(k);
                for _ in 0..k {
                    let f = r.vusize()?;
                    fields.push(ty_at(m, f)?);
                }
                m.types.struct_lit(fields)
            }
            3 => {
                let name = r.string()?;
                let k = r.bounded_count("struct field", 1)?;
                let mut fields = Vec::with_capacity(k);
                for _ in 0..k {
                    fields.push(r.vusize()?);
                }
                let id = m.types.named_struct(&name);
                deferred.push((id, fields));
                id
            }
            4 => {
                let ret = r.vusize()?;
                let k = r.bounded_count("function parameter", 1)?;
                let mut params = Vec::with_capacity(k);
                for _ in 0..k {
                    let p = r.vusize()?;
                    params.push(ty_at(m, p)?);
                }
                let varargs = r.byte()? != 0;
                let ret = ty_at(m, ret)?;
                m.types.func(ret, params, varargs)
            }
            5 => {
                let name = r.string()?;
                m.types.named_struct(&name)
            }
            t => return Err(DecodeError(format!("bad type tag {t}"))),
        };
        if made.index() != expected_id {
            return Err(DecodeError(format!(
                "type table misalignment: entry {i} interned as {} (duplicate or reordered table)",
                made.index()
            )));
        }
    }
    for (id, fields) in deferred {
        let mut fs = Vec::with_capacity(fields.len());
        for f in fields {
            fs.push(ty_at(m, f)?);
        }
        m.types.set_struct_body(id, fs);
    }
    Ok(())
}

fn read_func_sigs(m: &mut Module, r: &mut Reader<'_>) -> Result<Vec<FuncId>, DecodeError> {
    let n = r.vusize()?;
    let mut bodies = Vec::new();
    for _ in 0..n {
        let name = r.string()?;
        let t = r.vusize()?;
        let t = ty_at(m, t)?;
        let flags = r.byte()?;
        let (ret, params, varargs) = match m.types.ty(t).clone() {
            Type::Func {
                ret,
                params,
                varargs,
            } => (ret, params, varargs),
            _ => {
                return Err(DecodeError(format!(
                    "function @{name} has non-function type"
                )))
            }
        };
        let linkage = if flags & 1 != 0 {
            Linkage::Internal
        } else {
            Linkage::External
        };
        if m.func_by_name(&name).is_some() {
            return Err(DecodeError(format!("duplicate function @{name}")));
        }
        let id = m.add_function(&name, &params, ret, varargs, linkage);
        if flags & 2 != 0 {
            bodies.push(id);
        }
    }
    Ok(bodies)
}

fn read_global_heads(m: &mut Module, r: &mut Reader<'_>) -> Result<Vec<GlobalId>, DecodeError> {
    let n = r.vusize()?;
    let mut inits = Vec::new();
    for _ in 0..n {
        let name = r.string()?;
        let t = r.vusize()?;
        let t = ty_at(m, t)?;
        let flags = r.byte()?;
        let linkage = if flags & 2 != 0 {
            Linkage::Internal
        } else {
            Linkage::External
        };
        if m.global_by_name(&name).is_some() {
            return Err(DecodeError(format!("duplicate global @{name}")));
        }
        let id = m.add_global(&name, t, None, flags & 1 != 0, linkage);
        if flags & 4 != 0 {
            inits.push(id);
        }
    }
    Ok(inits)
}

fn read_consts(m: &mut Module, r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let n = r.vusize()?;
    for i in 0..n {
        let tag = r.byte()?;
        let c = match tag {
            0 => Const::Bool(r.byte()? != 0),
            1 => {
                let kind = r.byte()?;
                let kind = *IntKind::ALL
                    .get(kind as usize)
                    .ok_or_else(|| DecodeError("bad int kind".into()))?;
                Const::Int {
                    kind,
                    value: kind.canonicalize(unzigzag(r.varint()?)),
                }
            }
            2 => {
                let b = r.bytes(4)?;
                Const::F32(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            3 => {
                let b = r.bytes(8)?;
                Const::F64(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ]))
            }
            4 => Const::Null(ty_at(m, r.vusize()?)?),
            5 => Const::Undef(ty_at(m, r.vusize()?)?),
            6 => Const::Zero(ty_at(m, r.vusize()?)?),
            7 => {
                let ty = ty_at(m, r.vusize()?)?;
                let k = r.bounded_count("array element", 1)?;
                let mut elems = Vec::with_capacity(k);
                for _ in 0..k {
                    let e = r.vusize()?;
                    if e >= i {
                        return Err(DecodeError("forward constant reference".into()));
                    }
                    elems.push(ConstId::from_index(e));
                }
                Const::Array { ty, elems }
            }
            8 => {
                let ty = ty_at(m, r.vusize()?)?;
                let k = r.bounded_count("struct field", 1)?;
                let mut fields = Vec::with_capacity(k);
                for _ in 0..k {
                    let e = r.vusize()?;
                    if e >= i {
                        return Err(DecodeError("forward constant reference".into()));
                    }
                    fields.push(ConstId::from_index(e));
                }
                Const::Struct { ty, fields }
            }
            9 => {
                let g = r.vusize()?;
                if g >= m.num_globals() {
                    return Err(DecodeError("global index out of range".into()));
                }
                Const::GlobalAddr(GlobalId::from_index(g))
            }
            10 => {
                let f = r.vusize()?;
                if f >= m.num_funcs() {
                    return Err(DecodeError("function index out of range".into()));
                }
                Const::FuncAddr(FuncId::from_index(f))
            }
            t => return Err(DecodeError(format!("bad constant tag {t}"))),
        };
        let id = m.consts.intern(c);
        if id.index() != i {
            return Err(DecodeError(
                "constant table misalignment (duplicate entry)".into(),
            ));
        }
    }
    Ok(())
}

/// Decode a tagged valnum relative to instruction index `cur`.
fn decode_value(
    m: &Module,
    cur: usize,
    n_insts: usize,
    n_params: usize,
    v: u64,
) -> Result<Value, DecodeError> {
    match v & 3 {
        0 => {
            let rel = unzigzag(v >> 2);
            // checked_sub: `rel` may be i64::MIN on hostile input.
            let def = (cur as i64)
                .checked_sub(rel)
                .filter(|&d| d >= 0 && (d as usize) < n_insts)
                .ok_or_else(|| DecodeError(format!("instruction reference {rel} out of range")))?;
            Ok(Value::Inst(InstId::from_index(def as usize)))
        }
        1 => {
            let a = v >> 2;
            if a >= n_params as u64 {
                return Err(DecodeError(format!(
                    "argument reference {a} out of range ({n_params} parameters)"
                )));
            }
            Ok(Value::Arg(a as u32))
        }
        2 => {
            let c = (v >> 2) as usize;
            if c >= m.consts.len() {
                return Err(DecodeError("constant reference out of range".into()));
            }
            Ok(Value::Const(ConstId::from_index(c)))
        }
        t => Err(DecodeError(format!("bad value tag {t}"))),
    }
}

fn read_body(m: &mut Module, fid: FuncId, r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let n_params = m.func(fid).params().len();
    // Every block costs at least its length varint, every instruction at
    // least its 4-byte head word — so both counts are bounded by the
    // remaining input and a hostile header cannot force huge allocation.
    let n_blocks = r.bounded_count("block", 1)?;
    // First read the raw block structure so the total instruction count is
    // known before decoding operands (relative references need it).
    let mut block_lens = Vec::with_capacity(n_blocks);
    // We must interleave: instruction extended data follows each head word,
    // so decode in one pass but defer range checks on forward refs by using
    // a provisional (large) count and re-checking after.
    let mut insts: Vec<Inst> = Vec::new();
    let mut declared: Vec<Option<TypeId>> = Vec::new();
    for _ in 0..n_blocks {
        let len = r.bounded_count("instruction", 4)?;
        block_lens.push(len);
        for _ in 0..len {
            let cur = insts.len();
            let (inst, dec) = read_inst(m, r, cur, n_blocks, n_params)?;
            insts.push(inst);
            declared.push(dec);
        }
    }
    let n_insts = insts.len();
    // Validate instruction references now that the total is known (block
    // targets were already checked against `n_blocks` during decoding).
    for (i, inst) in insts.iter().enumerate() {
        let mut bad = None;
        inst.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                if d.index() >= n_insts {
                    bad = Some(d.index());
                }
            }
        });
        if let Some(b) = bad {
            return Err(DecodeError(format!(
                "instruction {i} references out-of-range %t{b}"
            )));
        }
    }
    resolve_types(m, fid, &insts, &mut declared)?;
    // Materialize.
    let f = m.func_mut(fid);
    let mut it = insts.into_iter().zip(declared);
    for &len in &block_lens {
        let b = f.add_block();
        for _ in 0..len {
            let (inst, ty) = it
                .next()
                .ok_or_else(|| DecodeError("instruction count mismatch".into()))?;
            let ty = ty.ok_or_else(|| DecodeError("unresolved instruction type".into()))?;
            f.append_inst(b, inst, ty);
        }
    }
    Ok(())
}

/// Decode one instruction; returns it plus its declared type when the
/// encoding stores one (`phi`, `cast`, allocations, `vaarg`).
fn read_inst(
    m: &mut Module,
    r: &mut Reader<'_>,
    cur: usize,
    n_blocks: usize,
    n_params: usize,
) -> Result<(Inst, Option<TypeId>), DecodeError> {
    let (opb, fmt, a, b) = unpack_head(r.u32()?);
    let op = Op::from_u8(opb).ok_or_else(|| DecodeError(format!("bad opcode {opb}")))?;
    // Block targets are validated against the block count *before* the
    // index narrows to the id's u32 (a huge varint must not wrap into a
    // valid-looking target).
    let blk = |i: usize| -> Result<BlockId, DecodeError> {
        if i >= n_blocks {
            return Err(DecodeError(format!("branch to missing block {i}")));
        }
        Ok(BlockId::from_index(i))
    };
    // Operand fetch: inline from fields when fmt == 0, else trailing
    // varints in field order.
    let mut inline = [a as u64, b as u64];
    let mut idx = 0usize;
    let mut operand = |r: &mut Reader<'_>| -> Result<u64, DecodeError> {
        if fmt == 0 {
            let v = inline[idx];
            idx += 1;
            debug_assert!(idx <= 2);
            Ok(v)
        } else {
            let _ = &mut inline;
            r.varint()
        }
    };
    // `decode_value` can't range-check forward refs yet, so pass a large
    // provisional instruction count; `read_body` re-validates.
    let val = |m: &Module, v: u64| decode_value(m, cur, usize::MAX / 2, n_params, v);
    let ty_field = |m: &Module, v: u64| ty_at(m, v as usize);
    Ok(match op {
        Op::RetVoid => (Inst::Ret(None), None),
        Op::RetVal => {
            let v = operand(r)?;
            (Inst::Ret(Some(val(m, v)?)), None)
        }
        Op::Br => {
            let t = operand(r)?;
            (Inst::Br(blk(t as usize)?), None)
        }
        Op::CondBr => {
            let cond = operand(r)?;
            let cond = val(m, cond)?;
            let t = r.vusize()?;
            let e = r.vusize()?;
            (
                Inst::CondBr {
                    cond,
                    then_bb: blk(t)?,
                    else_bb: blk(e)?,
                },
                None,
            )
        }
        Op::Switch => {
            let v = r.varint()?;
            let v = val(m, v)?;
            let default = blk(r.vusize()?)?;
            let k = r.bounded_count("switch case", 2)?;
            let mut cases = Vec::with_capacity(k);
            for _ in 0..k {
                let c = r.vusize()?;
                if c >= m.consts.len() {
                    return Err(DecodeError("switch case constant out of range".into()));
                }
                let b = blk(r.vusize()?)?;
                cases.push((ConstId::from_index(c), b));
            }
            (
                Inst::Switch {
                    val: v,
                    default,
                    cases,
                },
                None,
            )
        }
        Op::Invoke => {
            let callee = r.varint()?;
            let callee = val(m, callee)?;
            let k = r.bounded_count("invoke argument", 1)?;
            let mut args = Vec::with_capacity(k);
            for _ in 0..k {
                let a = r.varint()?;
                args.push(val(m, a)?);
            }
            let normal = blk(r.vusize()?)?;
            let unwind = blk(r.vusize()?)?;
            (
                Inst::Invoke {
                    callee,
                    args,
                    normal,
                    unwind,
                },
                None,
            )
        }
        Op::Unwind => (Inst::Unwind, None),
        Op::Unreachable => (Inst::Unreachable, None),
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::Shr => {
            let l = operand(r)?;
            let rr = operand(r)?;
            (
                Inst::Bin {
                    op: op
                        .to_bin()
                        .ok_or_else(|| DecodeError(format!("opcode {opb} is not a binop")))?,
                    lhs: val(m, l)?,
                    rhs: val(m, rr)?,
                },
                None,
            )
        }
        Op::SetEq | Op::SetNe | Op::SetLt | Op::SetGt | Op::SetLe | Op::SetGe => {
            let l = operand(r)?;
            let rr = operand(r)?;
            (
                Inst::Cmp {
                    pred: op
                        .to_pred()
                        .ok_or_else(|| DecodeError(format!("opcode {opb} is not a setcc")))?,
                    lhs: val(m, l)?,
                    rhs: val(m, rr)?,
                },
                Some(m.types.bool_()),
            )
        }
        Op::Malloc | Op::Alloca => {
            let t = operand(r)?;
            let elem_ty = ty_field(m, t)?;
            let pty = m.types.ptr(elem_ty);
            let inst = if op == Op::Malloc {
                Inst::Malloc {
                    elem_ty,
                    count: None,
                }
            } else {
                Inst::Alloca {
                    elem_ty,
                    count: None,
                }
            };
            (inst, Some(pty))
        }
        Op::MallocN | Op::AllocaN => {
            let t = operand(r)?;
            let c = operand(r)?;
            let elem_ty = ty_field(m, t)?;
            let count = Some(val(m, c)?);
            let pty = m.types.ptr(elem_ty);
            let inst = if op == Op::MallocN {
                Inst::Malloc { elem_ty, count }
            } else {
                Inst::Alloca { elem_ty, count }
            };
            (inst, Some(pty))
        }
        Op::Free => {
            let p = operand(r)?;
            (Inst::Free(val(m, p)?), None)
        }
        Op::Load => {
            let p = operand(r)?;
            (Inst::Load { ptr: val(m, p)? }, None)
        }
        Op::Store => {
            let v = operand(r)?;
            let p = operand(r)?;
            (
                Inst::Store {
                    val: val(m, v)?,
                    ptr: val(m, p)?,
                },
                None,
            )
        }
        Op::Gep => {
            let p = operand(r)?;
            let ptr = val(m, p)?;
            let k = r.bounded_count("gep index", 1)?;
            let mut indices = Vec::with_capacity(k);
            for _ in 0..k {
                let i = r.varint()?;
                indices.push(val(m, i)?);
            }
            (Inst::Gep { ptr, indices }, None)
        }
        Op::Phi => {
            let t = operand(r)?;
            let ty = ty_field(m, t)?;
            let k = r.bounded_count("phi incoming", 2)?;
            let mut incoming = Vec::with_capacity(k);
            for _ in 0..k {
                let v = r.varint()?;
                let v = val(m, v)?;
                let b = blk(r.vusize()?)?;
                incoming.push((v, b));
            }
            (Inst::Phi { incoming }, Some(ty))
        }
        Op::Call => {
            let c = operand(r)?;
            let callee = val(m, c)?;
            let k = r.bounded_count("call argument", 1)?;
            let mut args = Vec::with_capacity(k);
            for _ in 0..k {
                let a = r.varint()?;
                args.push(val(m, a)?);
            }
            (Inst::Call { callee, args }, None)
        }
        Op::Cast => {
            let v = operand(r)?;
            let t = operand(r)?;
            let to = ty_field(m, t)?;
            (
                Inst::Cast {
                    val: val(m, v)?,
                    to,
                },
                Some(to),
            )
        }
        Op::VaArg => {
            let t = operand(r)?;
            let ty = ty_field(m, t)?;
            (Inst::VaArg { ty }, Some(ty))
        }
    })
}

/// Infer the result types not stored in the encoding by running the typing
/// rule over a table that fills in as it goes. Layout order is not
/// dominance order, so an instruction whose rule asks for an operand that
/// has no type yet waits on an explicit stack while that operand is typed
/// first.
fn resolve_types(
    m: &mut Module,
    fid: FuncId,
    insts: &[Inst],
    declared: &mut [Option<TypeId>],
) -> Result<(), DecodeError> {
    let params: Vec<TypeId> = m.func(fid).params().to_vec();
    let mut visiting = vec![false; insts.len()];
    let mut stack = Vec::new();
    for start in 0..insts.len() {
        stack.push(start);
        while let Some(&i) = stack.last() {
            if declared[i].is_some() {
                stack.pop();
                continue;
            }
            let rule = m.infer_inst_type(&insts[i], |v| match v {
                Value::Inst(d) => declared[d.index()],
                Value::Arg(n) => params.get(n as usize).copied(),
                Value::Const(c) => Some(m.const_type(c)),
            });
            match rule {
                Ok(ty) => {
                    declared[i] = Some(ty.intern(&mut m.types));
                    visiting[i] = false;
                    stack.pop();
                }
                Err(TypeError::Untyped(Value::Inst(d))) if !visiting[d.index()] => {
                    visiting[i] = true;
                    stack.push(d.index());
                }
                Err(TypeError::Untyped(Value::Inst(d))) => {
                    return Err(DecodeError(format!(
                        "type dependency cycle through instruction {}",
                        d.index()
                    )))
                }
                Err(e) => return Err(DecodeError(format!("{}: {e}", insts[i].opcode_name()))),
            }
        }
    }
    Ok(())
}
