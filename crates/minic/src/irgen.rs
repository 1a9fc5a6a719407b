//! miniC → IR lowering.
//!
//! Follows the front-end contract of paper §3.2: translate source
//! constructs to the representation, synthesizing as much type information
//! as possible (structs, pointers, arrays reach the IR intact).
//!
//! miniC builds SSA itself, with Braun et al.'s *Simple and Efficient
//! Construction of SSA Form* (CC 2013): a scalar local whose address is
//! never taken, parameters included, is a variable with a current
//! definition per block, and a read looks its value up through the
//! predecessors, placing φs at joins as it goes. Aggregates and
//! address-taken scalars stay `alloca`s in the entry block; `sroa` and
//! `mem2reg` promote what of them they can, as they do for `.ll` input and
//! for inlined callees. [`irgen_in_memory`] lowers every local that way.
//!
//! `try`/`catch`/`throw` lower to `invoke`/`unwind` per §2.4: calls inside
//! a `try` become invokes, and a `throw` lexically inside a `try` becomes a
//! direct branch to the handler.

use std::collections::{HashMap, HashSet};

use lpat_core::hash::IdHashBuilder;
use lpat_core::{
    BinOp, BlockId, CmpPred, ConstId, FuncBuilder, FuncId, GlobalId, Inst, InstId, Linkage, Module,
    TypeId, Value,
};

use crate::ast::*;

/// A semantic error with source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemError {
    /// 1-based line (0 when unknown).
    pub line: u32,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for SemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SemError {}

type GResult<T> = Result<T, SemError>;

/// Lower a parsed program to a module named `name`, in SSA form.
///
/// # Errors
///
/// Reports unknown identifiers, type mismatches, arity errors, and other
/// semantic faults with their source lines.
pub fn irgen(name: &str, prog: &Program) -> GResult<Module> {
    lower(name, prog, false)
}

/// Lower a parsed program with every local, parameters included, in an
/// entry-block `alloca`, read by `load` and written by `store`: the form
/// the front end gives address-taken locals, applied to all of them. It is
/// the reference [`irgen`]'s SSA construction is held against, and the
/// input of analyses measured without SSA.
///
/// # Errors
///
/// As [`irgen`].
pub fn irgen_in_memory(name: &str, prog: &Program) -> GResult<Module> {
    lower(name, prog, true)
}

fn lower(name: &str, prog: &Program, in_memory: bool) -> GResult<Module> {
    let mut m = Module::new(name);
    let mut cx = Cx {
        structs: HashMap::new(),
        struct_fields: HashMap::new(),
        funcs: HashMap::new(),
        func_sigs: HashMap::new(),
        globals: HashMap::new(),
        global_tys: HashMap::new(),
        strings: HashMap::new(),
    };
    // Struct types (two-phase for recursion).
    for s in &prog.structs {
        if cx.structs.contains_key(&s.name) {
            return Err(duplicate("struct", &s.name));
        }
        let id = m.types.named_struct(&format!("struct.{}", s.name));
        cx.structs.insert(s.name.clone(), id);
    }
    for s in &prog.structs {
        let id = cx.structs[&s.name];
        let fields: GResult<Vec<TypeId>> = s
            .fields
            .iter()
            .map(|(t, _)| cx.ty_of(&mut m, t, 0))
            .collect();
        m.types.set_struct_body(id, fields?);
        cx.struct_fields.insert(
            s.name.clone(),
            s.fields
                .iter()
                .enumerate()
                .map(|(i, (t, n))| (n.clone(), (i, t.clone())))
                .collect(),
        );
    }
    // Globals.
    for g in &prog.globals {
        if cx.globals.contains_key(&g.name) {
            return Err(duplicate("global", &g.name));
        }
        let ty = cx.ty_of(&mut m, &g.ty, 0)?;
        let init = if g.is_extern {
            None
        } else {
            Some(cx.global_init(&mut m, &g.ty, ty, g.init.as_ref())?)
        };
        let linkage = if g.is_static {
            Linkage::Internal
        } else {
            Linkage::External
        };
        let gid = m.add_global(&g.name, ty, init, false, linkage);
        cx.globals.insert(g.name.clone(), gid);
        cx.global_tys.insert(g.name.clone(), g.ty.clone());
    }
    // Function signatures.
    for f in &prog.funcs {
        if cx.funcs.contains_key(&f.name) {
            return Err(duplicate("function", &f.name));
        }
        let params: GResult<Vec<TypeId>> = f
            .params
            .iter()
            .map(|(t, _)| cx.ty_of(&mut m, &decay(t), 0))
            .collect();
        let ret = cx.ty_of(&mut m, &f.ret, 0)?;
        let linkage = if f.is_static {
            Linkage::Internal
        } else {
            Linkage::External
        };
        let fid = m.add_function(&f.name, &params?, ret, false, linkage);
        cx.funcs.insert(f.name.clone(), fid);
        cx.func_sigs.insert(
            f.name.clone(),
            (
                f.ret.clone(),
                f.params.iter().map(|(t, _)| decay(t)).collect(),
            ),
        );
    }
    // Bodies.
    for f in &prog.funcs {
        if let Some(body) = &f.body {
            gen_func(&mut m, &mut cx, f, body, in_memory)?;
        }
    }
    Ok(m)
}

/// A second struct, global or function of one name; declarations carry no
/// line.
fn duplicate(what: &str, name: &str) -> SemError {
    SemError {
        line: 0,
        message: format!("duplicate {what} '{name}'"),
    }
}

/// Whether `e`, of value `v`, is the `null` literal, bare or through casts
/// to its own type and assignments. The value of a variable is not, so
/// what converts does not depend on where the variable lives.
fn is_null_literal(e: &Expr, v: Value, m: &Module) -> bool {
    let literal = |mut e: &Expr| loop {
        match &e.kind {
            ExprKind::Null => return true,
            ExprKind::Cast(_, inner) | ExprKind::Assign(_, inner) => e = inner,
            _ => return false,
        }
    };
    matches!(v, Value::Const(c) if matches!(m.consts.get(c), lpat_core::Const::Null(_)))
        && literal(e)
}

/// Array-to-pointer decay for parameter types.
fn decay(t: &CType) -> CType {
    match t {
        CType::Array(e, _) => CType::Ptr(e.clone()),
        other => other.clone(),
    }
}

/// Shared name environment.
struct Cx {
    structs: HashMap<String, TypeId>,
    struct_fields: HashMap<String, HashMap<String, (usize, CType)>>,
    funcs: HashMap<String, FuncId>,
    func_sigs: HashMap<String, (CType, Vec<CType>)>,
    globals: HashMap<String, GlobalId>,
    global_tys: HashMap<String, CType>,
    strings: HashMap<Vec<u8>, GlobalId>,
}

impl Cx {
    fn ty_of(&self, m: &mut Module, t: &CType, line: u32) -> GResult<TypeId> {
        Ok(match t {
            CType::Void => m.types.void(),
            CType::Bool => m.types.bool_(),
            CType::Char => m.types.i8(),
            CType::Int => m.types.i32(),
            CType::Uint => m.types.u32(),
            CType::Long => m.types.i64(),
            CType::Ulong => m.types.u64(),
            CType::Float => m.types.f32(),
            CType::Double => m.types.f64(),
            CType::Ptr(p) => {
                let pt = self.ty_of(m, p, line)?;
                m.types.ptr(pt)
            }
            CType::Array(e, n) => {
                let et = self.ty_of(m, e, line)?;
                m.types.array(et, *n)
            }
            CType::Struct(name) => *self.structs.get(name).ok_or_else(|| SemError {
                line,
                message: format!("unknown struct '{name}'"),
            })?,
            CType::FnPtr { ret, params } => {
                let r = self.ty_of(m, ret, line)?;
                let ps: GResult<Vec<TypeId>> =
                    params.iter().map(|p| self.ty_of(m, p, line)).collect();
                let ft = m.types.func(r, ps?, false);
                m.types.ptr(ft)
            }
        })
    }

    fn global_init(
        &mut self,
        m: &mut Module,
        ct: &CType,
        ty: TypeId,
        init: Option<&Expr>,
    ) -> GResult<ConstId> {
        match init {
            None => Ok(m.consts.zero(ty)),
            Some(e) => self.const_expr(m, ct, ty, e),
        }
    }

    fn const_expr(&mut self, m: &mut Module, ct: &CType, ty: TypeId, e: &Expr) -> GResult<ConstId> {
        let bad = |line: u32| SemError {
            line,
            message: "unsupported constant initializer".into(),
        };
        Ok(match (&e.kind, ct) {
            (ExprKind::IntLit(v, _), t) if t.is_integer() => {
                let kind = m.types.int_kind(ty).ok_or_else(|| bad(e.line))?;
                m.consts.int(kind, *v)
            }
            (ExprKind::CharLit(c), CType::Char) => m.consts.int(lpat_core::IntKind::S8, *c as i64),
            (ExprKind::FloatLit(v, _), CType::Float) => m.consts.f32(*v as f32),
            (ExprKind::FloatLit(v, _), CType::Double) => m.consts.f64(*v),
            (ExprKind::IntLit(v, _), CType::Float) => m.consts.f32(*v as f32),
            (ExprKind::IntLit(v, _), CType::Double) => m.consts.f64(*v as f64),
            (ExprKind::BoolLit(b), CType::Bool) => m.consts.bool_(*b),
            (ExprKind::Null, _) => m.consts.null(ty),
            (ExprKind::Neg(inner), t) if t.is_integer() => {
                if let ExprKind::IntLit(v, _) = inner.kind {
                    let kind = m.types.int_kind(ty).ok_or_else(|| bad(e.line))?;
                    m.consts.int(kind, -v)
                } else {
                    return Err(bad(e.line));
                }
            }
            (ExprKind::StrLit(s), CType::Ptr(_)) => {
                let g = self.intern_string(m, s);
                // Address of element 0: we fold this to the global address;
                // loads through it reach the bytes either way.
                m.consts.global_addr(g)
            }
            (ExprKind::Ident(n), CType::FnPtr { .. }) => {
                let f = *self.funcs.get(n).ok_or_else(|| bad(e.line))?;
                m.consts.func_addr(f)
            }
            _ => return Err(bad(e.line)),
        })
    }

    fn intern_string(&mut self, m: &mut Module, s: &[u8]) -> GlobalId {
        if let Some(&g) = self.strings.get(s) {
            return g;
        }
        let n = self.strings.len();
        let mut bytes = s.to_vec();
        bytes.push(0);
        let elems: Vec<ConstId> = bytes
            .iter()
            .map(|&b| m.consts.int(lpat_core::IntKind::S8, b as i64))
            .collect();
        let aty = m.types.array(m.types.i8(), bytes.len() as u64);
        let init = m.consts.array(aty, elems);
        let g = m.add_global(
            &format!(".str{n}"),
            aty,
            Some(init),
            true,
            Linkage::Internal,
        );
        self.strings.insert(s.to_vec(), g);
        g
    }

    fn field_of(&self, sname: &str, f: &str, line: u32) -> GResult<(usize, CType)> {
        self.struct_fields
            .get(sname)
            .and_then(|m| m.get(f))
            .cloned()
            .ok_or_else(|| SemError {
                line,
                message: format!("struct '{sname}' has no field '{f}'"),
            })
    }
}

// ----------------------------------------------------------------------
// Function body generation
// ----------------------------------------------------------------------

/// Where a local lives, or what an lvalue denotes.
#[derive(Clone, Copy)]
enum Place {
    /// Memory at this address: an `alloca`, a global, or any pointer.
    Mem(Value),
    /// An SSA variable, an index into [`Ssa::vars`].
    Var(u32),
}

/// Whether a local of this type can be an SSA variable: any first-class
/// value, but not an aggregate.
fn is_scalar(t: &CType) -> bool {
    !matches!(t, CType::Array(..) | CType::Struct(_) | CType::Void)
}

/// A local, named by its parameter index or by its declaration's
/// statement (whose address is stable while the AST is borrowed).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Local {
    Param(usize),
    Decl(*const Stmt),
}

/// SSA construction state for one function (Braun et al., CC 2013).
///
/// Each block's predecessors are recorded as its edges are emitted. A
/// block is *sealed* once no edge into it can be added; a read in an
/// unsealed block places an operand-less φ that sealing completes. A φ
/// whose operands are only itself and one value is trivial: it is
/// forwarded to that value. The φs are linked into their blocks, and the
/// forwarding applied to every operand, in one sweep at the function's end.
#[derive(Default)]
struct Ssa {
    /// The IR type of each variable, and the local it is.
    vars: Vec<(TypeId, Local)>,
    /// A variable's current value at the end of a block (so far, for the
    /// block being emitted).
    defs: HashMap<(u32, BlockId), Value, IdHashBuilder>,
    /// Predecessors of each block, one entry per edge.
    preds: Vec<Vec<BlockId>>,
    sealed: Vec<bool>,
    /// The φs placed in each unsealed block, with their variables.
    incomplete: HashMap<BlockId, Vec<(u32, InstId)>, IdHashBuilder>,
    /// Every φ placed, with its block, in the order placed.
    phis: Vec<(BlockId, InstId)>,
    /// The φs each φ is an operand of: removing a φ can make them trivial.
    phi_users: HashMap<InstId, Vec<InstId>, IdHashBuilder>,
    /// Per instruction slot, the value a removed trivial φ stands for.
    fwd: Vec<Option<Value>>,
    /// The last lookup walk that passed each block, and the walks so far.
    walked: Vec<u32>,
    walks: u32,
    /// The single-predecessor blocks a lookup passed (kept to reuse).
    passed: Vec<BlockId>,
    /// Every variable written, in order.
    writes: Vec<u32>,
    /// The structured statements and expressions lowered so far.
    regions: Vec<Region>,
    /// Per block, the region it closes (`u32::MAX` for none).
    closes: Vec<u32>,
}

/// The blocks of an `if`, a loop, a `try`, a `?:` or a `&&` / `||` value,
/// from where it starts: a lookup of a variable none of them writes goes
/// from a join the region closes straight to its start, past every block
/// in between.
struct Region {
    start: BlockId,
    /// Where the region's writes lie in [`Ssa::writes`].
    from: usize,
    to: usize,
    /// Those writes sorted, once a lookup asks.
    sorted: std::cell::OnceCell<Vec<u32>>,
}

impl Ssa {
    /// Follow removed φs to the value they stand for.
    fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(i) = v {
            match self.fwd.get(i.index()) {
                Some(&Some(n)) => v = n,
                _ => break,
            }
        }
        v
    }

    fn is_removed(&self, i: InstId) -> bool {
        matches!(self.fwd.get(i.index()), Some(Some(_)))
    }

    /// The start of the region `b` closes, if the region does not write
    /// `var`: `var` holds the same value at the end of both.
    fn skip(&self, var: u32, b: BlockId) -> Option<&BlockId> {
        let r = self.regions.get(*self.closes.get(b.index())? as usize)?;
        let writes = r.sorted.get_or_init(|| {
            let mut w = self.writes[r.from..r.to].to_vec();
            w.sort_unstable();
            w.dedup();
            w
        });
        writes.binary_search(&var).is_err().then_some(&r.start)
    }

    /// Where a lookup of `var` goes on from `b`: the region's start, or
    /// the predecessors.
    fn lookup_preds(&self, var: u32, b: BlockId) -> &[BlockId] {
        match self.skip(var, b) {
            Some(start) => std::slice::from_ref(start),
            None => &self.preds[b.index()],
        }
    }
}

struct FuncGen<'a, 'm> {
    cx: &'a mut Cx,
    b: FuncBuilder<'m>,
    fid: FuncId,
    /// The locals in scope, innermost last; a scope is a stretch of it
    /// (few enough that a scan beats hashing the name at every level).
    locals: Vec<(String, Place, CType)>,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
    /// Innermost enclosing `catch` target.
    try_stack: Vec<BlockId>,
    ret: CType,
    terminated: bool,
    /// Every local lives in memory.
    in_memory: bool,
    /// Locals whose address is taken: they live in memory.
    taken: HashSet<Local, IdHashBuilder>,
    /// `&` met a local lowered as a variable: lower the function again,
    /// with it in memory.
    retry: bool,
    /// The entry block's `alloca`s, linked at its head at the end.
    allocas: Vec<InstId>,
    ssa: Ssa,
}

/// Lower one function body. Which locals have their address taken is
/// learnt by lowering: a `&` on a local lowered as a variable marks it and
/// has the body lowered again, with the marked locals in memory.
fn gen_func(
    m: &mut Module,
    cx: &mut Cx,
    f: &FuncDef,
    body: &[Stmt],
    in_memory: bool,
) -> GResult<()> {
    let fid = cx.funcs[&f.name];
    let mut taken = HashSet::default();
    loop {
        let mut g = FuncGen {
            cx: &mut *cx,
            b: m.builder(fid),
            fid,
            locals: Vec::new(),
            breaks: Vec::new(),
            continues: Vec::new(),
            try_stack: Vec::new(),
            ret: f.ret.clone(),
            terminated: false,
            in_memory,
            taken,
            retry: false,
            allocas: Vec::new(),
            ssa: Ssa::default(),
        };
        g.body(f, body)?;
        if !g.retry {
            g.finish_ssa();
            return Ok(());
        }
        taken = g.taken;
        m.func_mut(fid).clear_body();
    }
}

impl<'a, 'm> FuncGen<'a, 'm> {
    fn body(&mut self, f: &FuncDef, body: &[Stmt]) -> GResult<()> {
        let entry = self.new_block();
        self.b.switch_to(entry);
        self.seal(entry);
        // A parameter is a variable whose entry definition is the
        // argument, or a slot the argument is stored to.
        for (i, (t, n)) in f.params.iter().enumerate() {
            let ct = decay(t);
            let ty = self.ty_of(&ct, 0)?;
            let place = self.new_local(Local::Param(i), &ct, ty);
            self.write(place, Value::Arg(i as u32));
            self.locals.push((n.clone(), place, ct));
        }
        self.stmts(body)?;
        if !self.terminated {
            self.emit_default_return()?;
        }
        Ok(())
    }

    fn err<T>(&self, line: u32, m: impl Into<String>) -> GResult<T> {
        Err(SemError {
            line,
            message: m.into(),
        })
    }

    fn ty_of(&mut self, t: &CType, line: u32) -> GResult<TypeId> {
        self.cx.ty_of(self.b.module(), t, line)
    }

    /// Make sure there is an insertable block (after a terminator,
    /// trailing statements land in a fresh unreachable block).
    fn ensure_block(&mut self) {
        if self.terminated {
            let b = self.new_block();
            self.b.switch_to(b);
            self.seal(b);
            self.terminated = false;
        }
    }

    fn emit_default_return(&mut self) -> GResult<()> {
        match self.ret.clone() {
            CType::Void => self.b.ret(None),
            t => {
                let ty = self.ty_of(&t, 0)?;
                let u = Value::Const(self.b.module().consts.undef(ty));
                self.b.ret(Some(u));
            }
        }
        self.terminated = true;
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<(Place, CType)> {
        let (_, place, t) = self.locals.iter().rev().find(|(n, ..)| n == name)?;
        Some((*place, t.clone()))
    }

    // ---- blocks, edges and locals ------------------------------------------

    /// A new block, not yet sealed.
    fn new_block(&mut self) -> BlockId {
        self.ssa.preds.push(Vec::new());
        self.ssa.sealed.push(false);
        self.ssa.walked.push(0);
        self.ssa.closes.push(u32::MAX);
        self.b.new_block()
    }

    fn br(&mut self, to: BlockId) {
        let from = self.b.current();
        self.ssa.preds[to.index()].push(from);
        self.b.br(to);
    }

    fn cond_br(&mut self, cond: Value, t: BlockId, f: BlockId) {
        let from = self.b.current();
        self.ssa.preds[t.index()].push(from);
        self.ssa.preds[f.index()].push(from);
        self.b.cond_br(cond, t, f);
    }

    /// Where a region begins: the current block, and the writes so far.
    fn mark(&self) -> (BlockId, usize) {
        (self.b.current(), self.ssa.writes.len())
    }

    /// The variables written since `mark` form a region that `joins`
    /// close (see [`Region`]). Called once the joins are sealed.
    fn close(&mut self, (start, from): (BlockId, usize), joins: &[BlockId]) {
        let r = self.ssa.regions.len() as u32;
        self.ssa.regions.push(Region {
            start,
            from,
            to: self.ssa.writes.len(),
            sorted: std::cell::OnceCell::new(),
        });
        for j in joins {
            self.ssa.closes[j.index()] = r;
        }
    }

    /// A new local: an SSA variable for a scalar whose address is not
    /// taken, else an `alloca` in the entry block, so that a declaration
    /// inside a loop does not grow the frame on every iteration.
    fn new_local(&mut self, local: Local, t: &CType, ty: TypeId) -> Place {
        if !self.in_memory && is_scalar(t) && !self.taken.contains(&local) {
            self.ssa.vars.push((ty, local));
            return Place::Var(self.ssa.vars.len() as u32 - 1);
        }
        let pty = self.b.module().types.ptr(ty);
        let alloca = Inst::Alloca {
            elem_ty: ty,
            count: None,
        };
        let slot = self.b.module().func_mut(self.fid).new_inst(alloca, pty);
        self.allocas.push(slot);
        Place::Mem(Value::Inst(slot))
    }

    /// The address an lvalue denotes. A variable has none: it is marked
    /// to live in memory, and an `undef` address stands in until the body
    /// is lowered again.
    fn addr_of(&mut self, place: Place) -> Value {
        match place {
            Place::Mem(addr) => addr,
            Place::Var(var) => {
                let (ty, local) = self.ssa.vars[var as usize];
                self.taken.insert(local);
                self.retry = true;
                let pty = self.b.module().types.ptr(ty);
                Value::Const(self.b.module().consts.undef(pty))
            }
        }
    }

    fn read(&mut self, place: Place) -> Value {
        match place {
            Place::Mem(addr) => self.b.load(addr),
            Place::Var(var) => {
                let b = self.b.current();
                self.read_var(var, b)
            }
        }
    }

    fn write(&mut self, place: Place, v: Value) {
        match place {
            Place::Mem(addr) => self.b.store(v, addr),
            Place::Var(var) => {
                let b = self.b.current();
                self.ssa.defs.insert((var, b), v);
                self.ssa.writes.push(var);
            }
        }
    }

    // ---- SSA construction ----------------------------------------------------

    fn undef(&mut self, var: u32) -> Value {
        let ty = self.ssa.vars[var as usize].0;
        Value::Const(self.b.module().consts.undef(ty))
    }

    fn func(&mut self) -> &mut lpat_core::Function {
        self.b.module().func_mut(self.fid)
    }

    /// An operand-less φ for `var` at the head of `b`, recorded as `var`'s
    /// definition there.
    fn new_phi(&mut self, var: u32, b: BlockId) -> InstId {
        let ty = self.ssa.vars[var as usize].0;
        let phi = self.func().new_inst(Inst::Phi { incoming: vec![] }, ty);
        self.ssa.phis.push((b, phi));
        self.ssa.defs.insert((var, b), Value::Inst(phi));
        phi
    }

    /// The value of `var` at the end of `block` (at the insertion point,
    /// for the block being emitted). Most reads find a definition up a
    /// chain of sealed single-predecessor blocks.
    fn read_var(&mut self, var: u32, block: BlockId) -> Value {
        match self.chain(var, block) {
            Some(v) => v,
            None => self.walk(var, block),
        }
    }

    /// Follow sealed single-predecessor blocks (and regions that do not
    /// write `var`) up from `block` to a definition of `var`, and give it
    /// to the blocks passed.
    fn chain(&mut self, var: u32, block: BlockId) -> Option<Value> {
        let ssa = &mut self.ssa;
        let mut passed = std::mem::take(&mut ssa.passed);
        passed.clear();
        let mut b = block;
        let found = loop {
            if let Some(&v) = ssa.defs.get(&(var, b)) {
                break Some(v);
            }
            match ssa.lookup_preds(var, b) {
                [p] if ssa.sealed[b.index()] && passed.len() < ssa.preds.len() => {
                    passed.push(b);
                    b = *p;
                }
                _ => break None,
            }
        };
        if let Some(v) = found {
            for &p in &passed {
                ssa.defs.insert((var, p), v);
            }
        }
        ssa.passed = passed;
        found.map(|v| ssa.resolve(v))
    }

    /// Braun et al.'s lookup, depth first with an explicit stack instead
    /// of recursion. A block takes its value once every predecessor has
    /// one: an unsealed block an operand-less φ, a block without
    /// predecessors `undef`, and a block whose edges all bring the same
    /// value that value (a join no arm assigns the variable in needs no
    /// φ); otherwise a φ of them. A cycle (a loop) is cut by a φ in the
    /// block the walk meets again, filled when that block is done; a
    /// trivial φ is removed.
    fn walk(&mut self, var: u32, block: BlockId) -> Value {
        self.ssa.walks += 1;
        let walk = self.ssa.walks;
        // Blocks being looked up, each with its next predecessor to visit.
        let mut frames = vec![(block, 0usize)];
        while let Some(&(b, k)) = frames.last() {
            let i = b.index();
            if k == 0 {
                if self.ssa.defs.contains_key(&(var, b)) {
                    frames.pop();
                    continue;
                }
                if !self.ssa.sealed[i] {
                    let phi = self.new_phi(var, b);
                    self.ssa.incomplete.entry(b).or_default().push((var, phi));
                    frames.pop();
                    continue;
                }
                if self.ssa.lookup_preds(var, b).is_empty() {
                    let u = self.undef(var);
                    self.ssa.defs.insert((var, b), u);
                    frames.pop();
                    continue;
                }
                self.ssa.walked[i] = walk;
            }
            // Visit the next predecessor still without a value.
            let mut next = k;
            while let Some(&p) = self.ssa.lookup_preds(var, b).get(next) {
                next += 1;
                if self.ssa.defs.contains_key(&(var, p)) {
                    continue;
                }
                if self.ssa.walked[p.index()] == walk {
                    // Met again before it has a value: a cycle.
                    self.new_phi(var, p);
                    continue;
                }
                frames.last_mut().expect("frame").1 = next;
                frames.push((p, 0));
                break;
            }
            if frames.last().expect("frame").0 != b {
                continue;
            }
            frames.pop();
            match self.ssa.defs.get(&(var, b)) {
                // The φ that cut a cycle here: the value at the start of
                // the region it closes, or one operand per edge.
                Some(&Value::Inst(phi)) => match self.ssa.skip(var, b).copied() {
                    Some(start) => {
                        let v = self.ssa.resolve(self.ssa.defs[&(var, start)]);
                        for user in self.forward(phi, v) {
                            self.remove_if_trivial(user);
                        }
                    }
                    None => {
                        self.fill_phi(b, phi, |g, p| g.ssa.defs[&(var, p)]);
                        self.remove_if_trivial(phi);
                    }
                },
                Some(_) => unreachable!("only a φ is placed in a block being looked up"),
                None => {
                    let preds = self.ssa.lookup_preds(var, b);
                    let first = self.ssa.resolve(self.ssa.defs[&(var, preds[0])]);
                    let same = preds.iter().all(|p| {
                        let v = self.ssa.defs[&(var, *p)];
                        self.ssa.resolve(v) == first
                    });
                    if same {
                        self.ssa.defs.insert((var, b), first);
                    } else {
                        let phi = self.new_phi(var, b);
                        self.fill_phi(b, phi, |g, p| g.ssa.defs[&(var, p)]);
                    }
                }
            }
        }
        let v = self.ssa.defs[&(var, block)];
        self.ssa.resolve(v)
    }

    /// Give `phi`, at the head of `b`, one operand per edge into `b`.
    fn fill_phi(
        &mut self,
        b: BlockId,
        phi: InstId,
        mut value_at: impl FnMut(&mut Self, BlockId) -> Value,
    ) {
        let n = self.ssa.preds[b.index()].len();
        let mut incoming = Vec::with_capacity(n);
        for k in 0..n {
            let p = self.ssa.preds[b.index()][k];
            let v = value_at(self, p);
            let v = self.ssa.resolve(v);
            if let Value::Inst(op) = v {
                if matches!(self.func().inst(op), Inst::Phi { .. }) {
                    self.ssa.phi_users.entry(op).or_default().push(phi);
                }
            }
            incoming.push((v, p));
        }
        if let Inst::Phi { incoming: ops } = self.func().inst_mut(phi) {
            *ops = incoming;
        }
    }

    /// Remove `phi` if its operands are only itself and one other value,
    /// then the φs that used it if that made them trivial too.
    fn remove_if_trivial(&mut self, phi: InstId) {
        let mut work = vec![phi];
        while let Some(p) = work.pop() {
            if self.ssa.is_removed(p) {
                continue;
            }
            let ssa = &self.ssa;
            let f = self.b.module().func(self.fid);
            let Inst::Phi { incoming } = f.inst(p) else {
                unreachable!("only φs are forwarded")
            };
            let ty = f.inst_ty(p);
            let mut same = None;
            let mut trivial = true;
            for &(v, _) in incoming {
                let v = ssa.resolve(v);
                if v == Value::Inst(p) || Some(v) == same {
                    continue;
                }
                if same.is_some() {
                    trivial = false;
                    break;
                }
                same = Some(v);
            }
            if !trivial {
                continue;
            }
            let same = match same {
                Some(v) => v,
                None => Value::Const(self.b.module().consts.undef(ty)),
            };
            work.extend(self.forward(p, same));
        }
    }

    /// Remove `phi` for `v`; returns the φs that used it, which may now be
    /// trivial.
    fn forward(&mut self, phi: InstId, v: Value) -> Vec<InstId> {
        if self.ssa.fwd.len() <= phi.index() {
            self.ssa.fwd.resize(phi.index() + 1, None);
        }
        self.ssa.fwd[phi.index()] = Some(v);
        let mut users = self.ssa.phi_users.remove(&phi).unwrap_or_default();
        if let Value::Inst(s) = v {
            if let Some(u) = self.ssa.phi_users.get_mut(&s) {
                u.extend_from_slice(&users);
            } else if matches!(self.func().inst(s), Inst::Phi { .. }) {
                self.ssa.phi_users.insert(s, users.clone());
            }
        }
        users.retain(|&u| u != phi);
        users
    }

    /// No edge into `b` is still to come: complete the φs reads placed in
    /// it.
    fn seal(&mut self, b: BlockId) {
        self.ssa.sealed[b.index()] = true;
        let Some(pending) = self.ssa.incomplete.remove(&b) else {
            return;
        };
        for &(var, phi) in &pending {
            self.fill_phi(b, phi, |g, p| g.read_var(var, p));
        }
        for &(_, phi) in &pending {
            self.remove_if_trivial(phi);
        }
    }

    /// The one rewrite sweep. Link the `alloca`s at the head of the entry
    /// block and the φs not removed at the heads of theirs, apply the
    /// removed φs' forwarding to every operand, and number the
    /// instructions in layout order, as reading the module back from
    /// bytecode would: profiles key call sites by instruction, so a
    /// compiled module and its bytecode must agree.
    fn finish_ssa(&mut self) {
        debug_assert!(self.ssa.sealed.iter().all(|&s| s), "an unsealed block");
        if self.ssa.phis.is_empty() && self.allocas.is_empty() {
            return;
        }
        let mut phis = std::mem::take(&mut self.ssa.phis);
        phis.retain(|&(_, phi)| !self.ssa.is_removed(phi));
        phis.sort_by_key(|&(b, _)| b);
        let f = self.b.module().func_mut(self.fid);
        let mut head = |b: BlockId, mut insts: Vec<InstId>| {
            insts.extend_from_slice(f.block_insts(b));
            f.set_block_insts(b, insts);
        };
        if !self.allocas.is_empty() {
            head(BlockId::from_index(0), std::mem::take(&mut self.allocas));
        }
        for group in phis.chunk_by(|x, y| x.0 == y.0) {
            head(group[0].0, group.iter().map(|&(_, phi)| phi).collect());
        }
        let ssa = &self.ssa;
        f.compact(|v| ssa.resolve(v));
    }

    // ---- statements ----------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) -> GResult<()> {
        let scope = self.locals.len();
        for s in list {
            self.stmt(s)?;
        }
        self.locals.truncate(scope);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> GResult<()> {
        match s {
            Stmt::Expr(e) => {
                self.ensure_block();
                self.rvalue(e)?;
                Ok(())
            }
            Stmt::Decl(t, name, init) => {
                self.ensure_block();
                let ty = self.ty_of(t, 0)?;
                let place = self.new_local(Local::Decl(std::ptr::from_ref(s)), t, ty);
                match (init, place) {
                    (Some(e), _) => {
                        let (v, vt) = self.rvalue(e)?;
                        let v = self.convert_expr(e, v, &vt, t, e.line)?;
                        self.write(place, v);
                    }
                    // A variable comes into scope undefined, in every
                    // iteration of a loop.
                    (None, Place::Var(var)) => {
                        let u = self.undef(var);
                        self.write(place, u);
                    }
                    (None, Place::Mem(_)) => {}
                }
                self.locals.push((name.clone(), place, t.clone()));
                Ok(())
            }
            Stmt::Block(inner) => self.stmts(inner),
            Stmt::If(c, then, els) => {
                self.ensure_block();
                let start = self.mark();
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.branch_on(c, then_bb, else_bb)?;
                self.seal(then_bb);
                self.seal(else_bb);
                self.b.switch_to(then_bb);
                self.terminated = false;
                self.stmts(then)?;
                if !self.terminated {
                    self.br(join);
                }
                self.b.switch_to(else_bb);
                self.terminated = false;
                self.stmts(els)?;
                if !self.terminated {
                    self.br(join);
                }
                self.b.switch_to(join);
                self.seal(join);
                self.close(start, &[join]);
                self.terminated = false;
                Ok(())
            }
            Stmt::While(c, body) => {
                self.ensure_block();
                self.rotated_loop(Some(c), None, body)
            }
            Stmt::For(init, cond, step, body) => {
                self.ensure_block();
                let scope = self.locals.len();
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                self.rotated_loop(cond.as_ref(), step.as_ref(), body)?;
                self.locals.truncate(scope);
                Ok(())
            }
            Stmt::Return(e) => {
                self.ensure_block();
                match e {
                    None => self.b.ret(None),
                    Some(e) => {
                        let (v, vt) = self.rvalue(e)?;
                        let rt = self.ret.clone();
                        let v = self.convert_expr(e, v, &vt, &rt, e.line)?;
                        self.b.ret(Some(v));
                    }
                }
                self.terminated = true;
                Ok(())
            }
            Stmt::Break => {
                self.ensure_block();
                match self.breaks.last() {
                    Some(&b) => {
                        self.br(b);
                        self.terminated = true;
                        Ok(())
                    }
                    None => self.err(0, "break outside a loop"),
                }
            }
            Stmt::Continue => {
                self.ensure_block();
                match self.continues.last() {
                    Some(&b) => {
                        self.br(b);
                        self.terminated = true;
                        Ok(())
                    }
                    None => self.err(0, "continue outside a loop"),
                }
            }
            Stmt::Throw => {
                self.ensure_block();
                // A throw lexically inside a try in the same function is a
                // direct branch to the handler (paper §2.4); otherwise it
                // unwinds the stack.
                match self.try_stack.last() {
                    Some(&catch_bb) => self.br(catch_bb),
                    None => self.b.unwind(),
                }
                self.terminated = true;
                Ok(())
            }
            Stmt::TryCatch(body, handler) => {
                self.ensure_block();
                let start = self.mark();
                let catch_bb = self.new_block();
                let join = self.new_block();
                self.try_stack.push(catch_bb);
                self.stmts(body)?;
                self.try_stack.pop();
                if !self.terminated {
                    self.br(join);
                }
                // Every invoke and throw that reaches the handler is in
                // the body.
                self.b.switch_to(catch_bb);
                self.seal(catch_bb);
                self.close(start, &[catch_bb]);
                self.terminated = false;
                self.stmts(handler)?;
                if !self.terminated {
                    self.br(join);
                }
                self.b.switch_to(join);
                self.seal(join);
                self.close(start, &[join]);
                self.terminated = false;
                Ok(())
            }
            Stmt::Delete(e) => {
                self.ensure_block();
                let (v, t) = self.rvalue(e)?;
                if !t.is_pointer() {
                    return self.err(e.line, "delete of non-pointer");
                }
                self.b.free(v);
                Ok(())
            }
        }
    }

    /// Lower a loop rotated, as `if (c) do { body; step } while (c)`: the
    /// test is emitted once as the guard and once in the latch, so an
    /// iteration runs one branch, and `continue` goes to the latch. Each
    /// copy of the test reads the variables where it stands, so the guard
    /// sees their values before the loop and the latch theirs after an
    /// iteration; the body is sealed once the latch's edge back to it is
    /// emitted.
    fn rotated_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &[Stmt],
    ) -> GResult<()> {
        let start = self.mark();
        let body_bb = self.new_block();
        let latch = self.new_block();
        let exit = self.new_block();
        self.loop_test(cond, body_bb, exit)?;
        self.b.switch_to(body_bb);
        let body_start = self.mark();
        self.terminated = false;
        self.breaks.push(exit);
        self.continues.push(latch);
        self.stmts(body)?;
        self.breaks.pop();
        self.continues.pop();
        if !self.terminated {
            self.br(latch);
        }
        self.b.switch_to(latch);
        self.seal(latch);
        self.close(body_start, &[latch]);
        self.terminated = false;
        if let Some(e) = step {
            self.rvalue(e)?;
        }
        self.loop_test(cond, body_bb, exit)?;
        self.seal(body_bb);
        self.seal(exit);
        self.close(start, &[body_bb, exit]);
        self.b.switch_to(exit);
        self.terminated = false;
        Ok(())
    }

    /// A loop's test; a `for` without one always enters the body.
    fn loop_test(&mut self, cond: Option<&Expr>, body: BlockId, exit: BlockId) -> GResult<()> {
        match cond {
            Some(c) => self.branch_on(c, body, exit),
            None => {
                self.br(body);
                Ok(())
            }
        }
    }

    /// Branch to `t` when `e` is true and to `f` otherwise, lowering `&&`,
    /// `||` and `!` as control flow (jumping code) rather than as a `bool`
    /// value tested afterwards. Leaves the current block terminated.
    fn branch_on(&mut self, e: &Expr, t: BlockId, f: BlockId) -> GResult<()> {
        match &e.kind {
            ExprKind::Bin(BinOpKind::LAnd, lhs, rhs) => {
                let more = self.new_block();
                self.branch_on(lhs, more, f)?;
                self.seal(more);
                self.b.switch_to(more);
                self.branch_on(rhs, t, f)
            }
            ExprKind::Bin(BinOpKind::LOr, lhs, rhs) => {
                let more = self.new_block();
                self.branch_on(lhs, t, more)?;
                self.seal(more);
                self.b.switch_to(more);
                self.branch_on(rhs, t, f)
            }
            ExprKind::Not(inner) => self.branch_on(inner, f, t),
            _ => {
                let cond = self.truthy(e)?;
                self.cond_br(cond, t, f);
                Ok(())
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Evaluate to a truth value (`bool`).
    fn truthy(&mut self, e: &Expr) -> GResult<Value> {
        let (v, t) = self.rvalue(e)?;
        self.coerce_bool(v, &t, e.line)
    }

    fn coerce_bool(&mut self, v: Value, t: &CType, line: u32) -> GResult<Value> {
        Ok(match t {
            CType::Bool => v,
            t if t.is_integer() => {
                let ty = self.ty_of(t, line)?;
                let kind = self.b.module().types.int_kind(ty).expect("integer");
                let zero = self.b.iconst(kind, 0);
                self.b.cmp(CmpPred::Ne, v, zero)
            }
            t if t.is_float() => {
                let zero = if matches!(t, CType::Float) {
                    self.b.fconst32(0.0)
                } else {
                    self.b.fconst64(0.0)
                };
                self.b.cmp(CmpPred::Ne, v, zero)
            }
            CType::Ptr(p) => {
                let pt = self.ty_of(p, line)?;
                let null = self.b.null_ptr(pt);
                self.b.cmp(CmpPred::Ne, v, null)
            }
            CType::FnPtr { .. } => {
                let fty = self.ty_of(t, line)?;
                let inner = self.b.module().types.pointee(fty).expect("fn ptr");
                let null = self.b.null_ptr(inner);
                self.b.cmp(CmpPred::Ne, v, null)
            }
            other => return self.err(line, format!("no truth value for {other:?}")),
        })
    }

    /// Evaluate an lvalue to `(place, type)`.
    fn lvalue(&mut self, e: &Expr) -> GResult<(Place, CType)> {
        match &e.kind {
            ExprKind::Ident(n) => {
                if let Some(v) = self.lookup(n) {
                    return Ok(v);
                }
                if let Some(&g) = self.cx.globals.get(n) {
                    let t = self.cx.global_tys[n].clone();
                    let addr = self.b.global_addr(g);
                    return Ok((Place::Mem(addr), t));
                }
                self.err(e.line, format!("unknown variable '{n}'"))
            }
            ExprKind::Deref(p) => {
                let (v, t) = self.rvalue(p)?;
                match t {
                    CType::Ptr(inner) => Ok((Place::Mem(v), *inner)),
                    other => self.err(e.line, format!("cannot dereference {other:?}")),
                }
            }
            ExprKind::Index(a, i) => {
                let (iv, it) = self.rvalue(i)?;
                if !it.is_integer() {
                    return self.err(i.line, "array index must be an integer");
                }
                // Arrays index in place; pointers index through the value.
                // Lvalue-shaped bases are evaluated exactly once as an
                // lvalue (evaluating twice would duplicate side effects of
                // nested index expressions); value-shaped bases (calls,
                // casts, arithmetic) evaluate as rvalues.
                if let ExprKind::Ident(_)
                | ExprKind::Member(..)
                | ExprKind::Arrow(..)
                | ExprKind::Index(..)
                | ExprKind::Deref(_) = &a.kind
                {
                    let (place, at) = self.lvalue(a)?;
                    return match at {
                        CType::Array(elem, _) => {
                            let zero = self.b.iconst64(0);
                            let addr = self.addr_of(place);
                            let p = self.b.gep(addr, vec![zero, iv]);
                            Ok((Place::Mem(p), *elem))
                        }
                        CType::Ptr(elem) => {
                            let pv = self.read(place);
                            let p = self.b.gep_index(pv, iv);
                            Ok((Place::Mem(p), *elem))
                        }
                        other => self.err(e.line, format!("cannot index {other:?}")),
                    };
                }
                let (pv, pt) = self.rvalue(a)?;
                match pt {
                    CType::Ptr(elem) => {
                        let p = self.b.gep_index(pv, iv);
                        Ok((Place::Mem(p), *elem))
                    }
                    other => self.err(e.line, format!("cannot index {other:?}")),
                }
            }
            ExprKind::Member(s, f) => {
                let (place, st) = self.lvalue(s)?;
                match st {
                    CType::Struct(name) => {
                        let (idx, fty) = self.cx.field_of(&name, f, e.line)?;
                        let addr = self.addr_of(place);
                        let p = self.b.gep_field(addr, idx as u8);
                        Ok((Place::Mem(p), fty))
                    }
                    other => self.err(e.line, format!(". on non-struct {other:?}")),
                }
            }
            ExprKind::Arrow(p, f) => {
                let (pv, pt) = self.rvalue(p)?;
                match pt {
                    CType::Ptr(inner) => match *inner {
                        CType::Struct(name) => {
                            let (idx, fty) = self.cx.field_of(&name, f, e.line)?;
                            let fp = self.b.gep_field(pv, idx as u8);
                            Ok((Place::Mem(fp), fty))
                        }
                        other => self.err(e.line, format!("-> on non-struct {other:?}")),
                    },
                    other => self.err(e.line, format!("-> on non-pointer {other:?}")),
                }
            }
            _ => self.err(e.line, "expression is not an lvalue"),
        }
    }

    /// Evaluate to a value; arrays decay to element pointers.
    fn rvalue(&mut self, e: &Expr) -> GResult<(Value, CType)> {
        match &e.kind {
            ExprKind::IntLit(v, long) => {
                if *long {
                    Ok((self.b.iconst64(*v), CType::Long))
                } else {
                    Ok((self.b.iconst32(*v as i32), CType::Int))
                }
            }
            ExprKind::FloatLit(v, f32_) => {
                if *f32_ {
                    Ok((self.b.fconst32(*v as f32), CType::Float))
                } else {
                    Ok((self.b.fconst64(*v), CType::Double))
                }
            }
            ExprKind::BoolLit(b) => Ok((self.b.bconst(*b), CType::Bool)),
            ExprKind::CharLit(c) => Ok((
                self.b.iconst(lpat_core::IntKind::S8, *c as i64),
                CType::Char,
            )),
            ExprKind::Null => {
                let t = self.ty_of(&CType::Char, e.line)?;
                Ok((self.b.null_ptr(t), CType::Ptr(Box::new(CType::Char))))
            }
            ExprKind::StrLit(s) => {
                let g = self.cx.intern_string(self.b.module(), s);
                let addr = self.b.global_addr(g);
                let zero = self.b.iconst64(0);
                let p = self.b.gep(addr, vec![zero, zero]);
                Ok((p, CType::Ptr(Box::new(CType::Char))))
            }
            ExprKind::SizeOf(t) => {
                let ty = self.ty_of(t, e.line)?;
                let size = self.b.module().types.size_of(ty);
                Ok((self.b.uconst32(size as u32), CType::Uint))
            }
            ExprKind::Ident(n) => {
                if let Some((place, t)) = self.lookup(n) {
                    return self.load_decayed(place, t, e.line);
                }
                // Function name: a function-pointer value.
                if !self.cx.globals.contains_key(n) {
                    if let Some(&f) = self.cx.funcs.get(n) {
                        let (ret, params) = self.cx.func_sigs[n].clone();
                        let v = self.b.func_addr(f);
                        return Ok((
                            v,
                            CType::FnPtr {
                                ret: Box::new(ret),
                                params,
                            },
                        ));
                    }
                }
                let (place, t) = self.lvalue(e)?;
                self.load_decayed(place, t, e.line)
            }
            ExprKind::Member(..)
            | ExprKind::Arrow(..)
            | ExprKind::Index(..)
            | ExprKind::Deref(_) => {
                let (place, t) = self.lvalue(e)?;
                self.load_decayed(place, t, e.line)
            }
            ExprKind::Addr(inner) => {
                let (place, t) = self.lvalue(inner)?;
                Ok((self.addr_of(place), CType::Ptr(Box::new(t))))
            }
            ExprKind::Assign(lhs, rhs) => {
                let (place, lt) = self.lvalue(lhs)?;
                let (v, rt) = self.rvalue(rhs)?;
                let v = self.convert_expr(rhs, v, &rt, &lt, e.line)?;
                self.write(place, v);
                Ok((v, lt))
            }
            ExprKind::Neg(inner) => {
                let (v, t) = self.rvalue(inner)?;
                let (v, t) = self.promote(v, &t, e.line)?;
                let zero = match &t {
                    CType::Float => self.b.fconst32(0.0),
                    CType::Double => self.b.fconst64(0.0),
                    t if t.is_integer() => {
                        let ty = self.ty_of(t, e.line)?;
                        let k = self.b.module().types.int_kind(ty).expect("int");
                        self.b.iconst(k, 0)
                    }
                    other => return self.err(e.line, format!("cannot negate {other:?}")),
                };
                Ok((self.b.sub(zero, v), t))
            }
            ExprKind::Not(inner) => {
                let v = self.truthy(inner)?;
                let t = self.b.bconst(true);
                Ok((self.b.xor(v, t), CType::Bool))
            }
            ExprKind::Cast(t, inner) => {
                let (v, from) = self.rvalue(inner)?;
                let ty = self.ty_of(t, e.line)?;
                if from == *t {
                    return Ok((v, t.clone()));
                }
                Ok((self.b.cast(v, ty), t.clone()))
            }
            ExprKind::New(t, count) => {
                let ty = self.ty_of(t, e.line)?;
                let v = match count {
                    None => self.b.malloc(ty),
                    Some(c) => {
                        let (cv, ct) = self.rvalue(c)?;
                        let cv = self.convert(cv, &ct, &CType::Uint, e.line)?;
                        self.b.malloc_n(ty, cv)
                    }
                };
                Ok((v, CType::Ptr(Box::new(t.clone()))))
            }
            ExprKind::Ternary(c, a, b) => {
                let start = self.mark();
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.branch_on(c, then_bb, else_bb)?;
                self.seal(then_bb);
                self.seal(else_bb);
                self.b.switch_to(then_bb);
                let (av, at) = self.rvalue(a)?;
                let a_end = self.b.current();
                self.b.switch_to(else_bb);
                let (bv, bt) = self.rvalue(b)?;
                let b_end = self.b.current();
                let common = self.common_type(&at, &bt, e.line)?;
                self.b.switch_to(a_end);
                let av = self.convert_expr(a, av, &at, &common, e.line)?;
                self.br(join);
                self.b.switch_to(b_end);
                let bv = self.convert_expr(b, bv, &bt, &common, e.line)?;
                self.br(join);
                self.b.switch_to(join);
                self.seal(join);
                self.close(start, &[join]);
                let ty = self.ty_of(&common, e.line)?;
                let v = self.b.phi(ty, vec![(av, a_end), (bv, b_end)]);
                Ok((v, common))
            }
            ExprKind::Bin(k, lhs, rhs) => self.gen_binop(*k, lhs, rhs, e.line),
            ExprKind::Call(callee, args) => self.gen_call(callee, args, e.line),
        }
    }

    fn load_decayed(&mut self, place: Place, t: CType, line: u32) -> GResult<(Value, CType)> {
        match t {
            CType::Array(elem, _) => {
                let zero = self.b.iconst64(0);
                let addr = self.addr_of(place);
                let p = self.b.gep(addr, vec![zero, zero]);
                Ok((p, CType::Ptr(elem)))
            }
            CType::Struct(_) => self.err(line, "struct value used where a scalar is expected"),
            t => {
                let v = self.read(place);
                Ok((v, t))
            }
        }
    }

    /// Integer promotion: char/bool → int.
    fn promote(&mut self, v: Value, t: &CType, line: u32) -> GResult<(Value, CType)> {
        match t {
            CType::Char | CType::Bool => {
                let ty = self.ty_of(&CType::Int, line)?;
                Ok((self.b.cast(v, ty), CType::Int))
            }
            other => Ok((v, other.clone())),
        }
    }

    fn rank(t: &CType) -> i32 {
        match t {
            CType::Double => 6,
            CType::Float => 5,
            CType::Ulong => 4,
            CType::Long => 3,
            CType::Uint => 2,
            CType::Int => 1,
            _ => 0,
        }
    }

    fn common_type(&mut self, a: &CType, b: &CType, line: u32) -> GResult<CType> {
        if a == b {
            return Ok(a.clone());
        }
        if a.is_pointer() && matches!(b, CType::Ptr(_)) {
            return Ok(a.clone());
        }
        if b.is_pointer() && matches!(a, CType::Ptr(_)) {
            return Ok(b.clone());
        }
        let (pa, pb) = (
            if matches!(a, CType::Char | CType::Bool) {
                CType::Int
            } else {
                a.clone()
            },
            if matches!(b, CType::Char | CType::Bool) {
                CType::Int
            } else {
                b.clone()
            },
        );
        if !((pa.is_integer() || pa.is_float()) && (pb.is_integer() || pb.is_float())) {
            return self.err(line, format!("no common type for {a:?} and {b:?}"));
        }
        Ok(if Self::rank(&pa) >= Self::rank(&pb) {
            pa
        } else {
            pb
        })
    }

    /// [`FuncGen::convert`] the value `v : from` of expression `e`, where
    /// the `null` literal also converts to any pointer type.
    fn convert_expr(
        &mut self,
        e: &Expr,
        v: Value,
        from: &CType,
        to: &CType,
        line: u32,
    ) -> GResult<Value> {
        if from != to && to.is_pointer() && is_null_literal(e, v, self.b.module()) {
            let ty = self.ty_of(to, line)?;
            let inner = self.b.module().types.pointee(ty).expect("pointer");
            return Ok(self.b.null_ptr(inner));
        }
        self.convert(v, from, to, line)
    }

    /// Convert `v : from` to type `to`, inserting casts for numeric
    /// conversions; pointers convert implicitly only between identical
    /// types (or from the `null` literal: [`FuncGen::convert_expr`]).
    fn convert(&mut self, v: Value, from: &CType, to: &CType, line: u32) -> GResult<Value> {
        if from == to {
            return Ok(v);
        }
        let numeric = |t: &CType| t.is_integer() || t.is_float() || matches!(t, CType::Bool);
        if numeric(from) && numeric(to) {
            let ty = self.ty_of(to, line)?;
            return Ok(self.b.cast(v, ty));
        }
        self.err(
            line,
            format!("cannot implicitly convert {from:?} to {to:?} (use a cast)"),
        )
    }

    fn gen_binop(
        &mut self,
        k: BinOpKind,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> GResult<(Value, CType)> {
        // Short-circuit forms first.
        if matches!(k, BinOpKind::LAnd | BinOpKind::LOr) {
            let start = self.mark();
            let a = self.truthy(lhs)?;
            let a_end = self.b.current();
            let more = self.new_block();
            let join = self.new_block();
            match k {
                BinOpKind::LAnd => self.cond_br(a, more, join),
                _ => self.cond_br(a, join, more),
            }
            self.seal(more);
            self.b.switch_to(more);
            let b = self.truthy(rhs)?;
            let b_end = self.b.current();
            self.br(join);
            self.b.switch_to(join);
            self.seal(join);
            self.close(start, &[join]);
            let short = self.b.bconst(matches!(k, BinOpKind::LOr));
            let ty = self.b.module().types.bool_();
            let v = self.b.phi(ty, vec![(short, a_end), (b, b_end)]);
            return Ok((v, CType::Bool));
        }
        let (av, at) = self.rvalue(lhs)?;
        let (bv, bt) = self.rvalue(rhs)?;
        // Pointer arithmetic: p + i, p - i.
        if let CType::Ptr(elem) = &at {
            if matches!(k, BinOpKind::Add | BinOpKind::Sub) && bt.is_integer() {
                let idx = if matches!(k, BinOpKind::Sub) {
                    let ty = self.ty_of(&bt, line)?;
                    let kind = self.b.module().types.int_kind(ty).expect("int");
                    let zero = self.b.iconst(kind, 0);
                    self.b.sub(zero, bv)
                } else {
                    bv
                };
                let p = self.b.gep_index(av, idx);
                return Ok((p, CType::Ptr(elem.clone())));
            }
        }
        // Comparisons.
        if let Some(pred) = match k {
            BinOpKind::Eq => Some(CmpPred::Eq),
            BinOpKind::Ne => Some(CmpPred::Ne),
            BinOpKind::Lt => Some(CmpPred::Lt),
            BinOpKind::Gt => Some(CmpPred::Gt),
            BinOpKind::Le => Some(CmpPred::Le),
            BinOpKind::Ge => Some(CmpPred::Ge),
            _ => None,
        } {
            let common = self.common_type(&at, &bt, line)?;
            let av = self.convert_expr(lhs, av, &at, &common, line)?;
            let bv = self.convert_expr(rhs, bv, &bt, &common, line)?;
            return Ok((self.b.cmp(pred, av, bv), CType::Bool));
        }
        // Arithmetic/bitwise.
        let common = self.common_type(&at, &bt, line)?;
        if !(common.is_integer() || common.is_float()) {
            return self.err(line, format!("arithmetic on {common:?}"));
        }
        let av = self.convert(av, &at, &common, line)?;
        let bv = self.convert(bv, &bt, &common, line)?;
        let op = match k {
            BinOpKind::Add => BinOp::Add,
            BinOpKind::Sub => BinOp::Sub,
            BinOpKind::Mul => BinOp::Mul,
            BinOpKind::Div => BinOp::Div,
            BinOpKind::Rem => BinOp::Rem,
            BinOpKind::And => BinOp::And,
            BinOpKind::Or => BinOp::Or,
            BinOpKind::Xor => BinOp::Xor,
            BinOpKind::Shl => BinOp::Shl,
            BinOpKind::Shr => BinOp::Shr,
            _ => unreachable!("handled above"),
        };
        if matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        ) && !common.is_integer()
        {
            return self.err(line, "bitwise operation on non-integer");
        }
        Ok((self.b.bin(op, av, bv), common))
    }

    fn gen_call(&mut self, callee: &Expr, args: &[Expr], line: u32) -> GResult<(Value, CType)> {
        // Direct call to a known function?
        let direct = match &callee.kind {
            ExprKind::Ident(n) if self.lookup(n).is_none() && !self.cx.globals.contains_key(n) => {
                self.cx.funcs.get(n).copied().map(|f| (f, n.clone()))
            }
            _ => None,
        };
        let (callee_val, ret_t, param_ts) = match direct {
            Some((f, n)) => {
                let (ret, params) = self.cx.func_sigs[&n].clone();
                (self.b.func_addr(f), ret, params)
            }
            None => {
                let (v, t) = self.rvalue(callee)?;
                match t {
                    CType::FnPtr { ret, params } => (v, *ret, params),
                    other => return self.err(line, format!("call of non-function {other:?}")),
                }
            }
        };
        if args.len() != param_ts.len() {
            return self.err(
                line,
                format!("expected {} arguments, got {}", param_ts.len(), args.len()),
            );
        }
        let mut argv = Vec::with_capacity(args.len());
        for (a, pt) in args.iter().zip(&param_ts) {
            let (v, t) = self.rvalue(a)?;
            argv.push(self.convert_expr(a, v, &t, pt, a.line)?);
        }
        // Inside a try, calls become invokes whose unwind edge is the
        // handler.
        let v = if let Some(&catch_bb) = self.try_stack.last() {
            let normal = self.new_block();
            let from = self.b.current();
            self.ssa.preds[normal.index()].push(from);
            self.ssa.preds[catch_bb.index()].push(from);
            let v = Value::Inst(self.b.emit(Inst::Invoke {
                callee: callee_val,
                args: argv,
                normal,
                unwind: catch_bb,
            }));
            self.b.switch_to(normal);
            self.seal(normal);
            v
        } else {
            self.b.call_ptr(callee_val, argv)
        };
        Ok((v, ret_t))
    }
}
