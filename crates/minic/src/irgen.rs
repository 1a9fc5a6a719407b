//! miniC → IR lowering.
//!
//! Follows the front-end contract of paper §3.2: translate source
//! constructs to the representation, synthesizing as much type information
//! as possible (structs, pointers, arrays reach the IR intact); do *not*
//! build SSA — mutable locals become `alloca`s, and the stack-promotion /
//! scalar-expansion passes construct SSA afterwards. `try`/`catch`/`throw`
//! lower to `invoke`/`unwind` per §2.4: calls inside a `try` become
//! invokes, and a `throw` lexically inside a `try` becomes a direct branch
//! to the handler.

use std::collections::HashMap;

use lpat_core::{
    BinOp, BlockId, CmpPred, ConstId, FuncBuilder, FuncId, GlobalId, Inst, Linkage, Module, TypeId,
    Value,
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

/// Lower a parsed program to a module named `name`.
///
/// # Errors
///
/// Reports unknown identifiers, type mismatches, arity errors, and other
/// semantic faults with their source lines.
pub fn irgen(name: &str, prog: &Program) -> GResult<Module> {
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
            gen_func(&mut m, &mut cx, f, body)?;
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

struct FuncGen<'a, 'm> {
    cx: &'a mut Cx,
    b: FuncBuilder<'m>,
    scopes: Vec<HashMap<String, (Value, CType)>>,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
    /// Innermost enclosing `catch` target.
    try_stack: Vec<BlockId>,
    ret: CType,
    terminated: bool,
}

fn gen_func(m: &mut Module, cx: &mut Cx, f: &FuncDef, body: &[Stmt]) -> GResult<()> {
    let fid = cx.funcs[&f.name];
    let ret = f.ret.clone();
    let mut g = FuncGen {
        cx,
        b: m.builder(fid),
        scopes: vec![HashMap::new()],
        breaks: Vec::new(),
        continues: Vec::new(),
        try_stack: Vec::new(),
        ret,
        terminated: false,
    };
    g.b.block();
    // Parameters: spill to allocas so they are mutable lvalues.
    for (i, (t, n)) in f.params.iter().enumerate() {
        let ct = decay(t);
        let ty = g.cx.ty_of(g.b.module(), &ct, 0)?;
        let slot = g.b.alloca(ty);
        g.b.store(Value::Arg(i as u32), slot);
        g.scopes[0].insert(n.clone(), (slot, ct));
    }
    g.stmts(body)?;
    if !g.terminated {
        g.emit_default_return()?;
    }
    Ok(())
}

impl<'a, 'm> FuncGen<'a, 'm> {
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
            self.b.block();
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

    fn lookup(&self, name: &str) -> Option<(Value, CType)> {
        for s in self.scopes.iter().rev() {
            if let Some(v) = s.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    // ---- statements ----------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) -> GResult<()> {
        self.scopes.push(HashMap::new());
        for s in list {
            self.stmt(s)?;
        }
        self.scopes.pop();
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
                let slot = self.b.alloca(ty);
                if let Some(e) = init {
                    let (v, vt) = self.rvalue(e)?;
                    let v = self.convert(v, &vt, t, e.line)?;
                    self.b.store(v, slot);
                }
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), (slot, t.clone()));
                Ok(())
            }
            Stmt::Block(inner) => self.stmts(inner),
            Stmt::If(c, then, els) => {
                self.ensure_block();
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.branch_on(c, then_bb, else_bb)?;
                self.b.switch_to(then_bb);
                self.terminated = false;
                self.stmts(then)?;
                if !self.terminated {
                    self.b.br(join);
                }
                self.b.switch_to(else_bb);
                self.terminated = false;
                self.stmts(els)?;
                if !self.terminated {
                    self.b.br(join);
                }
                self.b.switch_to(join);
                self.terminated = false;
                Ok(())
            }
            Stmt::While(c, body) => {
                self.ensure_block();
                self.rotated_loop(Some(c), None, body)
            }
            Stmt::For(init, cond, step, body) => {
                self.ensure_block();
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                self.rotated_loop(cond.as_ref(), step.as_ref(), body)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e) => {
                self.ensure_block();
                match e {
                    None => self.b.ret(None),
                    Some(e) => {
                        let (v, vt) = self.rvalue(e)?;
                        let rt = self.ret.clone();
                        let v = self.convert(v, &vt, &rt, e.line)?;
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
                        self.b.br(b);
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
                        self.b.br(b);
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
                    Some(&catch_bb) => self.b.br(catch_bb),
                    None => self.b.unwind(),
                }
                self.terminated = true;
                Ok(())
            }
            Stmt::TryCatch(body, handler) => {
                self.ensure_block();
                let catch_bb = self.b.new_block();
                let join = self.b.new_block();
                self.try_stack.push(catch_bb);
                self.stmts(body)?;
                self.try_stack.pop();
                if !self.terminated {
                    self.b.br(join);
                }
                self.b.switch_to(catch_bb);
                self.terminated = false;
                self.stmts(handler)?;
                if !self.terminated {
                    self.b.br(join);
                }
                self.b.switch_to(join);
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
    /// iteration runs one branch, and `continue` goes to the latch. The
    /// variables are still allocas here, so the copy of the test needs no
    /// SSA repair; the guard of a counted loop folds away once they are
    /// promoted.
    fn rotated_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &[Stmt],
    ) -> GResult<()> {
        let body_bb = self.b.new_block();
        let latch = self.b.new_block();
        let exit = self.b.new_block();
        self.loop_test(cond, body_bb, exit)?;
        self.b.switch_to(body_bb);
        self.terminated = false;
        self.breaks.push(exit);
        self.continues.push(latch);
        self.stmts(body)?;
        self.breaks.pop();
        self.continues.pop();
        if !self.terminated {
            self.b.br(latch);
        }
        self.b.switch_to(latch);
        self.terminated = false;
        if let Some(e) = step {
            self.rvalue(e)?;
        }
        self.loop_test(cond, body_bb, exit)?;
        self.b.switch_to(exit);
        self.terminated = false;
        Ok(())
    }

    /// A loop's test; a `for` without one always enters the body.
    fn loop_test(&mut self, cond: Option<&Expr>, body: BlockId, exit: BlockId) -> GResult<()> {
        match cond {
            Some(c) => self.branch_on(c, body, exit),
            None => {
                self.b.br(body);
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
                let more = self.b.new_block();
                self.branch_on(lhs, more, f)?;
                self.b.switch_to(more);
                self.branch_on(rhs, t, f)
            }
            ExprKind::Bin(BinOpKind::LOr, lhs, rhs) => {
                let more = self.b.new_block();
                self.branch_on(lhs, t, more)?;
                self.b.switch_to(more);
                self.branch_on(rhs, t, f)
            }
            ExprKind::Not(inner) => self.branch_on(inner, f, t),
            _ => {
                let cond = self.truthy(e)?;
                self.b.cond_br(cond, t, f);
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

    /// Evaluate an lvalue to `(address, pointee type)`.
    fn lvalue(&mut self, e: &Expr) -> GResult<(Value, CType)> {
        match &e.kind {
            ExprKind::Ident(n) => {
                if let Some(v) = self.lookup(n) {
                    return Ok(v);
                }
                if let Some(&g) = self.cx.globals.get(n) {
                    let t = self.cx.global_tys[n].clone();
                    let addr = self.b.global_addr(g);
                    return Ok((addr, t));
                }
                self.err(e.line, format!("unknown variable '{n}'"))
            }
            ExprKind::Deref(p) => {
                let (v, t) = self.rvalue(p)?;
                match t {
                    CType::Ptr(inner) => Ok((v, *inner)),
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
                    let (addr, at) = self.lvalue(a)?;
                    return match at {
                        CType::Array(elem, _) => {
                            let zero = self.b.iconst64(0);
                            let p = self.b.gep(addr, vec![zero, iv]);
                            Ok((p, *elem))
                        }
                        CType::Ptr(elem) => {
                            let pv = self.b.load(addr);
                            let p = self.b.gep_index(pv, iv);
                            Ok((p, *elem))
                        }
                        other => self.err(e.line, format!("cannot index {other:?}")),
                    };
                }
                let (pv, pt) = self.rvalue(a)?;
                match pt {
                    CType::Ptr(elem) => {
                        let p = self.b.gep_index(pv, iv);
                        Ok((p, *elem))
                    }
                    other => self.err(e.line, format!("cannot index {other:?}")),
                }
            }
            ExprKind::Member(s, f) => {
                let (addr, st) = self.lvalue(s)?;
                match st {
                    CType::Struct(name) => {
                        let (idx, fty) = self.cx.field_of(&name, f, e.line)?;
                        let p = self.b.gep_field(addr, idx as u8);
                        Ok((p, fty))
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
                            Ok((fp, fty))
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
                // Function name: a function-pointer value.
                if self.lookup(n).is_none() && !self.cx.globals.contains_key(n) {
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
                let (addr, t) = self.lvalue(e)?;
                self.load_decayed(addr, t, e.line)
            }
            ExprKind::Member(..)
            | ExprKind::Arrow(..)
            | ExprKind::Index(..)
            | ExprKind::Deref(_) => {
                let (addr, t) = self.lvalue(e)?;
                self.load_decayed(addr, t, e.line)
            }
            ExprKind::Addr(inner) => {
                let (addr, t) = self.lvalue(inner)?;
                Ok((addr, CType::Ptr(Box::new(t))))
            }
            ExprKind::Assign(lhs, rhs) => {
                let (addr, lt) = self.lvalue(lhs)?;
                let (v, rt) = self.rvalue(rhs)?;
                let v = self.convert(v, &rt, &lt, e.line)?;
                self.b.store(v, addr);
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
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.branch_on(c, then_bb, else_bb)?;
                self.b.switch_to(then_bb);
                let (av, at) = self.rvalue(a)?;
                let a_end = self.b.current();
                self.b.switch_to(else_bb);
                let (bv, bt) = self.rvalue(b)?;
                let b_end = self.b.current();
                let common = self.common_type(&at, &bt, e.line)?;
                self.b.switch_to(a_end);
                let av = self.convert(av, &at, &common, e.line)?;
                self.b.br(join);
                self.b.switch_to(b_end);
                let bv = self.convert(bv, &bt, &common, e.line)?;
                self.b.br(join);
                self.b.switch_to(join);
                let ty = self.ty_of(&common, e.line)?;
                let v = self.b.phi(ty, vec![(av, a_end), (bv, b_end)]);
                Ok((v, common))
            }
            ExprKind::Bin(k, lhs, rhs) => self.gen_binop(*k, lhs, rhs, e.line),
            ExprKind::Call(callee, args) => self.gen_call(callee, args, e.line),
        }
    }

    fn load_decayed(&mut self, addr: Value, t: CType, line: u32) -> GResult<(Value, CType)> {
        match t {
            CType::Array(elem, _) => {
                let zero = self.b.iconst64(0);
                let p = self.b.gep(addr, vec![zero, zero]);
                Ok((p, CType::Ptr(elem)))
            }
            CType::Struct(_) => self.err(line, "struct value used where a scalar is expected"),
            t => {
                let v = self.b.load(addr);
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

    /// Convert `v : from` to type `to`, inserting casts for numeric
    /// conversions; pointers convert implicitly only from null or between
    /// identical types.
    fn convert(&mut self, v: Value, from: &CType, to: &CType, line: u32) -> GResult<Value> {
        if from == to {
            return Ok(v);
        }
        let is_null_const = matches!(
            v,
            Value::Const(c) if matches!(self.b.module().consts.get(c), lpat_core::Const::Null(_))
        );
        if to.is_pointer() && is_null_const {
            let ty = self.ty_of(to, line)?;
            let inner = self.b.module().types.pointee(ty).expect("pointer");
            return Ok(self.b.null_ptr(inner));
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
            let a = self.truthy(lhs)?;
            let a_end = self.b.current();
            let more = self.b.new_block();
            let join = self.b.new_block();
            match k {
                BinOpKind::LAnd => self.b.cond_br(a, more, join),
                _ => self.b.cond_br(a, join, more),
            }
            self.b.switch_to(more);
            let b = self.truthy(rhs)?;
            let b_end = self.b.current();
            self.b.br(join);
            self.b.switch_to(join);
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
            let av = self.convert(av, &at, &common, line)?;
            let bv = self.convert(bv, &bt, &common, line)?;
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
            argv.push(self.convert(v, &t, pt, a.line)?);
        }
        // Inside a try, calls become invokes whose unwind edge is the
        // handler.
        let v = if let Some(&catch_bb) = self.try_stack.last() {
            let normal = self.b.new_block();
            let v = Value::Inst(self.b.emit(Inst::Invoke {
                callee: callee_val,
                args: argv,
                normal,
                unwind: catch_bb,
            }));
            self.b.switch_to(normal);
            v
        } else {
            self.b.call_ptr(callee_val, argv)
        };
        Ok((v, ret_t))
    }
}
