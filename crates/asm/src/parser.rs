//! Recursive-descent parser for the textual form.
//!
//! The grammar is line-structured: one item or instruction per line.
//! Parsing proceeds in two passes so that forward references work:
//!
//! 1. **Declaration pass** — named types, global declarations, and function
//!    signatures are registered (bodies and initializers are skipped).
//! 2. **Body pass** — global initializers and function bodies are parsed;
//!    inside a body, a pre-scan assigns ids to labels and instruction
//!    results so φ-nodes and branches may reference forward.

use std::collections::HashMap;

use lpat_core::{
    BlockId, Const, ConstId, FuncId, GepError, GlobalId, Inst, InstId, IntKind, Linkage, Module,
    Type, TypeId, Value,
};

use crate::lexer::{lex, Spanned, Tok};

/// A parse failure with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// A parsed function signature: (name, param types, param names, return
/// type, varargs).
type Signature = (String, Vec<TypeId>, Vec<String>, TypeId, bool);

/// Parse a whole module from its textual form.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its line number. The
/// result is *not* verified; run [`Module::verify`] to check semantic
/// invariants.
///
/// # Examples
///
/// ```
/// let text = "
/// define int @id(int %x) {
/// bb0:
///   ret int %x
/// }";
/// let m = lpat_asm::parse_module("t", text).unwrap();
/// assert!(m.verify().is_ok());
/// ```
pub fn parse_module(name: &str, src: &str) -> PResult<Module> {
    let toks = lex(src).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })?;
    // Group into lines.
    let mut lines: Vec<(u32, Vec<Tok>)> = Vec::new();
    for Spanned { tok, line } in toks {
        match lines.last_mut() {
            Some((l, v)) if *l == line => v.push(tok),
            _ => lines.push((line, vec![tok])),
        }
    }
    let mut p = Parser {
        module: Module::new(name),
        aliases: HashMap::new(),
        pending_globals: Vec::new(),
        pending_funcs: Vec::new(),
    };
    p.pass_declarations(&lines)?;
    p.pass_bodies(&lines)?;
    Ok(p.module)
}

struct PendingGlobal {
    id: GlobalId,
    line_idx: usize,
}

struct PendingFunc {
    id: FuncId,
    /// Parameter names from the header.
    param_names: Vec<String>,
    /// Line-index range (exclusive of the `define` and `}` lines).
    body: std::ops::Range<usize>,
}

struct Parser {
    module: Module,
    aliases: HashMap<String, TypeId>,
    pending_globals: Vec<PendingGlobal>,
    pending_funcs: Vec<PendingFunc>,
}

/// Cursor over one line's tokens.
struct Cur<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: u32,
}

impl<'a> Cur<'a> {
    fn new(line: u32, toks: &'a [Tok]) -> Cur<'a> {
        Cur { toks, pos: 0, line }
    }
    fn err<T>(&self, m: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line,
            message: m.into(),
        })
    }
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }
    fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }
    fn expect_punct(&mut self, c: char) -> PResult<()> {
        match self.next() {
            Some(Tok::Punct(p)) if *p == c => Ok(()),
            other => self.err(format!("expected '{c}', found {other:?}")),
        }
    }
    fn expect_word(&mut self, w: &str) -> PResult<()> {
        match self.next() {
            Some(Tok::Word(x)) if x == w => Ok(()),
            other => self.err(format!("expected '{w}', found {other:?}")),
        }
    }
    fn eat_punct(&mut self, c: char) -> bool {
        if let Some(Tok::Punct(p)) = self.peek() {
            if *p == c {
                self.pos += 1;
                return true;
            }
        }
        false
    }
    fn eat_word(&mut self, w: &str) -> bool {
        if let Some(Tok::Word(x)) = self.peek() {
            if x == w {
                self.pos += 1;
                return true;
            }
        }
        false
    }
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
    fn expect_end(&self) -> PResult<()> {
        if self.at_end() {
            Ok(())
        } else {
            self.err(format!("trailing tokens starting at {:?}", self.peek()))
        }
    }
}

impl Parser {
    // ------------------------------------------------------------------
    // Pass 1: declarations
    // ------------------------------------------------------------------

    fn pass_declarations(&mut self, lines: &[(u32, Vec<Tok>)]) -> PResult<()> {
        let mut i = 0;
        while i < lines.len() {
            let (lno, toks) = &lines[i];
            let mut c = Cur::new(*lno, toks);
            match c.peek() {
                Some(Tok::Local(_)) => {
                    // %name = type <ty>
                    let name = match c.next() {
                        Some(Tok::Local(n)) => n.clone(),
                        _ => unreachable!(),
                    };
                    c.expect_punct('=')?;
                    c.expect_word("type")?;
                    if c.eat_word("opaque") {
                        self.module.types.named_struct(&name);
                    } else if matches!(c.peek(), Some(Tok::Punct('{'))) {
                        let id = self.module.types.named_struct(&name);
                        if !matches!(self.module.types.ty(id), Type::Opaque(_)) {
                            return c.err(format!("duplicate type %{name}"));
                        }
                        let fields = self.parse_struct_fields(&mut c)?;
                        self.module.types.set_struct_body(id, fields);
                    } else {
                        let ty = self.parse_type(&mut c)?;
                        self.aliases.insert(name, ty);
                    }
                    c.expect_end()?;
                    i += 1;
                }
                Some(Tok::Global(_)) => {
                    let name = match c.next() {
                        Some(Tok::Global(n)) => n.clone(),
                        _ => unreachable!(),
                    };
                    c.expect_punct('=')?;
                    let external = c.eat_word("external");
                    let internal = c.eat_word("internal");
                    let is_const = if c.eat_word("constant") {
                        true
                    } else if c.eat_word("global") {
                        false
                    } else {
                        return c.err("expected 'global' or 'constant'");
                    };
                    let ty = self.parse_type(&mut c)?;
                    let linkage = if internal {
                        Linkage::Internal
                    } else {
                        Linkage::External
                    };
                    if self.module.global_by_name(&name).is_some() {
                        return c.err(format!("duplicate global @{name}"));
                    }
                    let id = self.module.add_global(&name, ty, None, is_const, linkage);
                    if !external {
                        // Initializer parsed in pass 2 (it may reference
                        // functions declared later).
                        self.pending_globals.push(PendingGlobal { id, line_idx: i });
                    } else {
                        c.expect_end()?;
                    }
                    i += 1;
                }
                Some(Tok::Word(w)) if w == "declare" => {
                    c.next();
                    let (name, params, _names, ret, varargs) = self.parse_signature(&mut c)?;
                    if self.module.func_by_name(&name).is_some() {
                        return c.err(format!("duplicate function @{name}"));
                    }
                    self.module
                        .add_function(&name, &params, ret, varargs, Linkage::External);
                    c.expect_end()?;
                    i += 1;
                }
                Some(Tok::Word(w)) if w == "define" => {
                    c.next();
                    let internal = c.eat_word("internal");
                    let (name, params, names, ret, varargs) = self.parse_signature(&mut c)?;
                    if self.module.func_by_name(&name).is_some() {
                        return c.err(format!("duplicate function @{name}"));
                    }
                    c.expect_punct('{')?;
                    c.expect_end()?;
                    let linkage = if internal {
                        Linkage::Internal
                    } else {
                        Linkage::External
                    };
                    let id = self
                        .module
                        .add_function(&name, &params, ret, varargs, linkage);
                    // Find the closing '}' line.
                    let start = i + 1;
                    let mut end = start;
                    while end < lines.len() {
                        if lines[end].1 == vec![Tok::Punct('}')] {
                            break;
                        }
                        end += 1;
                    }
                    if end == lines.len() {
                        return c.err(format!("missing closing '}}' for @{name}"));
                    }
                    self.pending_funcs.push(PendingFunc {
                        id,
                        param_names: names,
                        body: start..end,
                    });
                    i = end + 1;
                }
                _ => {
                    return Err(ParseError {
                        line: *lno,
                        message: format!("unexpected top-level line starting with {:?}", c.peek()),
                    })
                }
            }
        }
        Ok(())
    }

    /// `int @name(int %a, sbyte* %b, ...)` — returns
    /// (name, param types, param names, ret, varargs).
    fn parse_signature(&mut self, c: &mut Cur<'_>) -> PResult<Signature> {
        let ret = self.parse_type(c)?;
        let name = match c.next() {
            Some(Tok::Global(n)) => n.clone(),
            other => return c.err(format!("expected function name, found {other:?}")),
        };
        c.expect_punct('(')?;
        let mut params = Vec::new();
        let mut names = Vec::new();
        let mut varargs = false;
        if !c.eat_punct(')') {
            loop {
                if let Some(Tok::Ellipsis) = c.peek() {
                    c.next();
                    varargs = true;
                    c.expect_punct(')')?;
                    break;
                }
                let ty = self.parse_type(c)?;
                let pname = match c.peek() {
                    Some(Tok::Local(n)) => {
                        let n = n.clone();
                        c.next();
                        n
                    }
                    _ => format!("a{}", params.len()),
                };
                params.push(ty);
                names.push(pname);
                if c.eat_punct(')') {
                    break;
                }
                c.expect_punct(',')?;
            }
        }
        Ok((name, params, names, ret, varargs))
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn parse_struct_fields(&mut self, c: &mut Cur<'_>) -> PResult<Vec<TypeId>> {
        c.expect_punct('{')?;
        let mut fields = Vec::new();
        if c.eat_punct('}') {
            return Ok(fields);
        }
        loop {
            fields.push(self.parse_type(c)?);
            if c.eat_punct('}') {
                break;
            }
            c.expect_punct(',')?;
        }
        Ok(fields)
    }

    fn parse_type(&mut self, c: &mut Cur<'_>) -> PResult<TypeId> {
        let mut ty = match c.next() {
            Some(Tok::Word(w)) => match w.as_str() {
                "void" => self.module.types.void(),
                "bool" => self.module.types.bool_(),
                "float" => self.module.types.f32(),
                "double" => self.module.types.f64(),
                _ => match IntKind::from_name(w) {
                    Some(k) => self.module.types.int(k),
                    None => return c.err(format!("unknown type '{w}'")),
                },
            },
            Some(Tok::Local(n)) => match self.aliases.get(n) {
                Some(&t) => t,
                None => self.module.types.named_struct(n),
            },
            Some(Tok::Punct('[')) => {
                let len = match c.next() {
                    Some(Tok::Num(s)) => s.parse::<u64>().map_err(|_| ParseError {
                        line: c.line,
                        message: "bad array length".into(),
                    })?,
                    other => return c.err(format!("expected array length, found {other:?}")),
                };
                c.expect_word("x")?;
                let elem = self.parse_type(c)?;
                c.expect_punct(']')?;
                self.module.types.array(elem, len)
            }
            Some(Tok::Punct('{')) => {
                c.pos -= 1;
                let fields = self.parse_struct_fields(c)?;
                self.module.types.struct_lit(fields)
            }
            other => return c.err(format!("expected a type, found {other:?}")),
        };
        loop {
            if c.eat_punct('*') {
                ty = self.module.types.ptr(ty);
            } else if matches!(c.peek(), Some(Tok::Punct('('))) {
                c.next();
                let mut params = Vec::new();
                let mut varargs = false;
                if !c.eat_punct(')') {
                    loop {
                        if let Some(Tok::Ellipsis) = c.peek() {
                            c.next();
                            varargs = true;
                            c.expect_punct(')')?;
                            break;
                        }
                        params.push(self.parse_type(c)?);
                        if c.eat_punct(')') {
                            break;
                        }
                        c.expect_punct(',')?;
                    }
                }
                ty = self.module.types.func(ty, params, varargs);
            } else {
                break;
            }
        }
        Ok(ty)
    }

    // ------------------------------------------------------------------
    // Pass 2: bodies and initializers
    // ------------------------------------------------------------------

    fn pass_bodies(&mut self, lines: &[(u32, Vec<Tok>)]) -> PResult<()> {
        let globals = std::mem::take(&mut self.pending_globals);
        for pg in globals {
            let (lno, toks) = &lines[pg.line_idx];
            let mut c = Cur::new(*lno, toks);
            // Re-skip the declaration part: @name = [internal] kw type
            c.next(); // @name
            c.expect_punct('=')?;
            c.eat_word("internal");
            if !c.eat_word("global") {
                c.expect_word("constant")?;
            }
            let ty = self.parse_type(&mut c)?;
            let init = self.parse_const(&mut c, ty)?;
            c.expect_end()?;
            self.module.global_mut(pg.id).init = Some(init);
        }
        let funcs = std::mem::take(&mut self.pending_funcs);
        for pf in funcs {
            self.parse_body(lines, &pf)?;
        }
        Ok(())
    }

    fn parse_body(&mut self, lines: &[(u32, Vec<Tok>)], pf: &PendingFunc) -> PResult<()> {
        let mut blocks: HashMap<String, BlockId> = HashMap::new();
        let mut locals: HashMap<String, Value> = HashMap::new();
        for (i, n) in pf.param_names.iter().enumerate() {
            locals.insert(n.clone(), Value::Arg(i as u32));
        }
        // Pre-scan: create blocks, assign instruction result names.
        let mut inst_counter = 0u32;
        let mut saw_block = false;
        for idx in pf.body.clone() {
            let (lno, toks) = &lines[idx];
            if toks.len() == 2 {
                if let (Tok::Word(n), Tok::Punct(':')) = (&toks[0], &toks[1]) {
                    let b = self.module.func_mut(pf.id).add_block();
                    if blocks.insert(n.clone(), b).is_some() {
                        return Err(ParseError {
                            line: *lno,
                            message: format!("duplicate label {n}"),
                        });
                    }
                    saw_block = true;
                    continue;
                }
            }
            if !saw_block {
                return Err(ParseError {
                    line: *lno,
                    message: "function body must start with a label".into(),
                });
            }
            if let (Some(Tok::Local(n)), Some(Tok::Punct('='))) = (toks.first(), toks.get(1)) {
                if locals
                    .insert(
                        n.clone(),
                        Value::Inst(InstId::from_index(inst_counter as usize)),
                    )
                    .is_some()
                {
                    return Err(ParseError {
                        line: *lno,
                        message: format!("redefinition of %{n}"),
                    });
                }
            }
            inst_counter += 1;
        }
        // Parse pass.
        let mut cur_block = None;
        for idx in pf.body.clone() {
            let (lno, toks) = &lines[idx];
            if toks.len() == 2 {
                if let (Tok::Word(n), Tok::Punct(':')) = (&toks[0], &toks[1]) {
                    cur_block = Some(blocks[n]);
                    continue;
                }
            }
            let mut c = Cur::new(*lno, toks);
            // Skip `%name =`.
            if let (Some(Tok::Local(_)), Some(Tok::Punct('='))) = (toks.first(), toks.get(1)) {
                c.next();
                c.next();
            }
            let (inst, ty) = self.parse_inst(&mut c, pf.id, &locals, &blocks)?;
            c.expect_end()?;
            let b = cur_block.expect("checked in pre-scan");
            self.module.func_mut(pf.id).append_inst(b, inst, ty);
        }
        Ok(())
    }

    /// Parse one instruction; returns it with its result type.
    fn parse_inst(
        &mut self,
        c: &mut Cur<'_>,
        _fid: FuncId,
        locals: &HashMap<String, Value>,
        blocks: &HashMap<String, BlockId>,
    ) -> PResult<(Inst, TypeId)> {
        let void = self.module.types.void();
        let word = match c.next() {
            Some(Tok::Word(w)) => w.clone(),
            other => return c.err(format!("expected an opcode, found {other:?}")),
        };
        if let Some(op) = lpat_core::BinOp::from_name(&word) {
            let ty = self.parse_type(c)?;
            let lhs = self.parse_value(c, ty, locals)?;
            c.expect_punct(',')?;
            let rhs = self.parse_value(c, ty, locals)?;
            return Ok((Inst::Bin { op, lhs, rhs }, ty));
        }
        if let Some(pred) = lpat_core::CmpPred::from_name(&word) {
            let ty = self.parse_type(c)?;
            let lhs = self.parse_value(c, ty, locals)?;
            c.expect_punct(',')?;
            let rhs = self.parse_value(c, ty, locals)?;
            return Ok((Inst::Cmp { pred, lhs, rhs }, self.module.types.bool_()));
        }
        match word.as_str() {
            "ret" => {
                if c.eat_word("void") {
                    Ok((Inst::Ret(None), void))
                } else {
                    let ty = self.parse_type(c)?;
                    let v = self.parse_value(c, ty, locals)?;
                    Ok((Inst::Ret(Some(v)), void))
                }
            }
            "br" => {
                if c.eat_word("label") {
                    let b = self.parse_label_ref(c, blocks)?;
                    Ok((Inst::Br(b), void))
                } else {
                    c.expect_word("bool")?;
                    let cond = self.parse_value(c, self.module.types.bool_(), locals)?;
                    c.expect_punct(',')?;
                    c.expect_word("label")?;
                    let t = self.parse_label_ref(c, blocks)?;
                    c.expect_punct(',')?;
                    c.expect_word("label")?;
                    let e = self.parse_label_ref(c, blocks)?;
                    Ok((
                        Inst::CondBr {
                            cond,
                            then_bb: t,
                            else_bb: e,
                        },
                        void,
                    ))
                }
            }
            "switch" => {
                let ty = self.parse_type(c)?;
                let val = self.parse_value(c, ty, locals)?;
                c.expect_punct(',')?;
                c.expect_word("label")?;
                let default = self.parse_label_ref(c, blocks)?;
                c.expect_punct('[')?;
                let mut cases = Vec::new();
                while !c.eat_punct(']') {
                    let cty = self.parse_type(c)?;
                    let cst = self.parse_const(c, cty)?;
                    c.expect_punct(',')?;
                    c.expect_word("label")?;
                    let b = self.parse_label_ref(c, blocks)?;
                    cases.push((cst, b));
                }
                Ok((
                    Inst::Switch {
                        val,
                        default,
                        cases,
                    },
                    void,
                ))
            }
            "invoke" | "call" => {
                let ret = self.parse_type(c)?;
                // Callee: either @name or a local function pointer.
                let callee = self.parse_callee(c, locals)?;
                c.expect_punct('(')?;
                let mut args = Vec::new();
                if !c.eat_punct(')') {
                    loop {
                        let aty = self.parse_type(c)?;
                        args.push(self.parse_value(c, aty, locals)?);
                        if c.eat_punct(')') {
                            break;
                        }
                        c.expect_punct(',')?;
                    }
                }
                if word == "call" {
                    Ok((Inst::Call { callee, args }, ret))
                } else {
                    c.expect_word("to")?;
                    c.expect_word("label")?;
                    let normal = self.parse_label_ref(c, blocks)?;
                    c.expect_word("unwind")?;
                    c.expect_word("label")?;
                    let unwind = self.parse_label_ref(c, blocks)?;
                    Ok((
                        Inst::Invoke {
                            callee,
                            args,
                            normal,
                            unwind,
                        },
                        ret,
                    ))
                }
            }
            "unwind" => Ok((Inst::Unwind, void)),
            "unreachable" => Ok((Inst::Unreachable, void)),
            "malloc" | "alloca" => {
                let elem_ty = self.parse_type(c)?;
                let count = if c.eat_punct(',') {
                    let cty = self.parse_type(c)?;
                    Some(self.parse_value(c, cty, locals)?)
                } else {
                    None
                };
                let pty = self.module.types.ptr(elem_ty);
                let inst = if word == "malloc" {
                    Inst::Malloc { elem_ty, count }
                } else {
                    Inst::Alloca { elem_ty, count }
                };
                Ok((inst, pty))
            }
            "free" => {
                let ty = self.parse_type(c)?;
                let v = self.parse_value(c, ty, locals)?;
                Ok((Inst::Free(v), void))
            }
            "load" => {
                let ty = self.parse_type(c)?;
                let ptr = self.parse_value(c, ty, locals)?;
                let pointee = self.module.types.pointee(ty).ok_or_else(|| ParseError {
                    line: c.line,
                    message: "load type must be a pointer".into(),
                })?;
                Ok((Inst::Load { ptr }, pointee))
            }
            "store" => {
                let vty = self.parse_type(c)?;
                let val = self.parse_value(c, vty, locals)?;
                c.expect_punct(',')?;
                let pty = self.parse_type(c)?;
                let ptr = self.parse_value(c, pty, locals)?;
                Ok((Inst::Store { val, ptr }, void))
            }
            "getelementptr" => {
                let bty = self.parse_type(c)?;
                let ptr = self.parse_value(c, bty, locals)?;
                let mut indices = Vec::new();
                while c.eat_punct(',') {
                    let ity = self.parse_type(c)?;
                    indices.push(self.parse_value(c, ity, locals)?);
                }
                let m = &self.module;
                let elem = m
                    .types
                    .gep_steps(bty, &indices, false, |v| m.consts.int_of(v), |_| Ok(()))
                    .map_err(|e: GepError| ParseError {
                        line: c.line,
                        message: e.to_string(),
                    })?;
                let rty = self.module.types.ptr(elem);
                Ok((Inst::Gep { ptr, indices }, rty))
            }
            "phi" => {
                let ty = self.parse_type(c)?;
                let mut incoming = Vec::new();
                loop {
                    c.expect_punct('[')?;
                    let v = self.parse_value(c, ty, locals)?;
                    c.expect_punct(',')?;
                    let b = self.parse_label_ref(c, blocks)?;
                    c.expect_punct(']')?;
                    incoming.push((v, b));
                    if !c.eat_punct(',') {
                        break;
                    }
                }
                Ok((Inst::Phi { incoming }, ty))
            }
            "cast" => {
                let fty = self.parse_type(c)?;
                let v = self.parse_value(c, fty, locals)?;
                c.expect_word("to")?;
                let to = self.parse_type(c)?;
                Ok((Inst::Cast { val: v, to }, to))
            }
            "vaarg" => {
                let ty = self.parse_type(c)?;
                Ok((Inst::VaArg { ty }, ty))
            }
            other => c.err(format!("unknown opcode '{other}'")),
        }
    }

    fn parse_label_ref(
        &self,
        c: &mut Cur<'_>,
        blocks: &HashMap<String, BlockId>,
    ) -> PResult<BlockId> {
        match c.next() {
            Some(Tok::Local(n)) => blocks.get(n).copied().ok_or_else(|| ParseError {
                line: c.line,
                message: format!("unknown label %{n}"),
            }),
            other => c.err(format!("expected a label, found {other:?}")),
        }
    }

    fn parse_callee(&mut self, c: &mut Cur<'_>, locals: &HashMap<String, Value>) -> PResult<Value> {
        match c.peek() {
            Some(Tok::Global(n)) => {
                let n = n.clone();
                c.next();
                if let Some(f) = self.module.func_by_name(&n) {
                    Ok(Value::Const(self.module.consts.func_addr(f)))
                } else if let Some(g) = self.module.global_by_name(&n) {
                    Ok(Value::Const(self.module.consts.global_addr(g)))
                } else {
                    c.err(format!("unknown symbol @{n}"))
                }
            }
            Some(Tok::Local(n)) => {
                let n = n.clone();
                c.next();
                locals.get(&n).copied().ok_or_else(|| ParseError {
                    line: c.line,
                    message: format!("unknown value %{n}"),
                })
            }
            other => c.err(format!("expected a callee, found {other:?}")),
        }
    }

    /// Parse a value of expected type `ty`: a local, a symbol address, or a
    /// constant literal.
    fn parse_value(
        &mut self,
        c: &mut Cur<'_>,
        ty: TypeId,
        locals: &HashMap<String, Value>,
    ) -> PResult<Value> {
        match c.peek() {
            Some(Tok::Local(n)) => {
                let n = n.clone();
                c.next();
                locals.get(&n).copied().ok_or_else(|| ParseError {
                    line: c.line,
                    message: format!("unknown value %{n}"),
                })
            }
            _ => Ok(Value::Const(self.parse_const(c, ty)?)),
        }
    }

    /// Parse a constant literal of expected type `ty`.
    fn parse_const(&mut self, c: &mut Cur<'_>, ty: TypeId) -> PResult<ConstId> {
        let tys_ty = self.module.types.ty(ty).clone();
        match c.next() {
            Some(Tok::Num(s)) => {
                let kind = match tys_ty {
                    Type::Int(k) => k,
                    _ => {
                        return c.err(format!(
                            "integer literal for non-integer type {}",
                            self.module.types.display(ty)
                        ))
                    }
                };
                let value = if kind.is_signed() || s.starts_with('-') {
                    s.parse::<i64>().map_err(|_| ParseError {
                        line: c.line,
                        message: "integer literal out of range".into(),
                    })?
                } else {
                    s.parse::<u64>().map_err(|_| ParseError {
                        line: c.line,
                        message: "integer literal out of range".into(),
                    })? as i64
                };
                Ok(self.module.consts.int(kind, value))
            }
            Some(Tok::Hex(v, w)) => match tys_ty {
                Type::F32 if *w <= 8 => Ok(self.module.consts.intern(Const::F32(*v as u32))),
                Type::F64 => Ok(self.module.consts.intern(Const::F64(*v))),
                Type::Int(k) => Ok(self.module.consts.int(k, *v as i64)),
                _ => c.err("hex literal for non-numeric type"),
            },
            Some(Tok::Word(w)) => match w.as_str() {
                "true" => Ok(self.module.consts.bool_(true)),
                "false" => Ok(self.module.consts.bool_(false)),
                "null" => Ok(self.module.consts.null(ty)),
                "undef" => Ok(self.module.consts.undef(ty)),
                "zeroinitializer" => Ok(self.module.consts.zero(ty)),
                other => c.err(format!("unexpected constant '{other}'")),
            },
            Some(Tok::Global(n)) => {
                let n = n.clone();
                if let Some(f) = self.module.func_by_name(&n) {
                    Ok(self.module.consts.func_addr(f))
                } else if let Some(g) = self.module.global_by_name(&n) {
                    Ok(self.module.consts.global_addr(g))
                } else {
                    c.err(format!("unknown symbol @{n}"))
                }
            }
            Some(Tok::Str(bytes)) => {
                // c"..." sugar: [N x sbyte] array.
                let elems: Vec<ConstId> = bytes
                    .iter()
                    .map(|&b| self.module.consts.int(IntKind::S8, b as i64))
                    .collect();
                Ok(self.module.consts.array(ty, elems))
            }
            Some(Tok::Punct('[')) => {
                let elem_ty = match tys_ty {
                    Type::Array { elem, .. } => elem,
                    _ => return c.err("array literal for non-array type"),
                };
                let mut elems = Vec::new();
                if !c.eat_punct(']') {
                    loop {
                        let ety = self.parse_type(c)?;
                        if ety != elem_ty {
                            return c.err("array element type mismatch");
                        }
                        elems.push(self.parse_const(c, ety)?);
                        if c.eat_punct(']') {
                            break;
                        }
                        c.expect_punct(',')?;
                    }
                }
                Ok(self.module.consts.array(ty, elems))
            }
            Some(Tok::Punct('{')) => {
                let ftys = match tys_ty {
                    Type::Struct { fields, .. } => fields,
                    _ => return c.err("struct literal for non-struct type"),
                };
                let mut fields = Vec::new();
                if !c.eat_punct('}') {
                    loop {
                        let fty = self.parse_type(c)?;
                        fields.push(self.parse_const(c, fty)?);
                        if c.eat_punct('}') {
                            break;
                        }
                        c.expect_punct(',')?;
                    }
                }
                if fields.len() != ftys.len() {
                    return c.err("struct literal arity mismatch");
                }
                Ok(self.module.consts.struct_(ty, fields))
            }
            other => c.err(format!("expected a constant, found {other:?}")),
        }
    }
}
