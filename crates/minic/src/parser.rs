//! miniC recursive-descent parser.

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};

/// A parse error with source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Parse a miniC translation unit.
///
/// # Errors
///
/// Returns the first syntax error with its line.
pub fn parse(src: &str) -> PResult<Program> {
    let toks = lex(src).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "bool", "char", "int", "uint", "long", "ulong", "float", "double", "struct", "fn",
];

impl Parser {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }
    fn err<T>(&self, m: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            message: m.into(),
        })
    }
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }
    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }
    /// Consume the next token. Nothing reads a token again once it is
    /// consumed, so it is moved out rather than cloned.
    fn next(&mut self) -> Option<Tok> {
        let s = self.toks.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(&mut s.tok, Tok::P("")))
    }
    fn eat_p(&mut self, p: &str) -> bool {
        if let Some(Tok::P(x)) = self.peek() {
            if *x == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }
    fn expect_p(&mut self, p: &str) -> PResult<()> {
        if self.eat_p(p) {
            Ok(())
        } else {
            self.err(format!("expected '{p}', found {:?}", self.peek()))
        }
    }
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }
    fn expect_ident(&mut self) -> PResult<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }
    fn at_type(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    // ---- types -----------------------------------------------------------

    fn parse_type(&mut self) -> PResult<CType> {
        let base = match self.next() {
            Some(Tok::Ident(s)) => match s.as_str() {
                "void" => CType::Void,
                "bool" => CType::Bool,
                "char" => CType::Char,
                "int" => CType::Int,
                "uint" => CType::Uint,
                "long" => CType::Long,
                "ulong" => CType::Ulong,
                "float" => CType::Float,
                "double" => CType::Double,
                "struct" => CType::Struct(self.expect_ident()?),
                "fn" => {
                    // fn<ret(params)>
                    self.expect_p("<")?;
                    let ret = self.parse_type()?;
                    self.expect_p("(")?;
                    let mut params = Vec::new();
                    if !self.eat_p(")") {
                        loop {
                            params.push(self.parse_type()?);
                            if self.eat_p(")") {
                                break;
                            }
                            self.expect_p(",")?;
                        }
                    }
                    self.expect_p(">")?;
                    CType::FnPtr {
                        ret: Box::new(ret),
                        params,
                    }
                }
                other => return self.err(format!("unknown type '{other}'")),
            },
            other => return self.err(format!("expected a type, found {other:?}")),
        };
        let mut ty = base;
        while self.eat_p("*") {
            ty = CType::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    /// Array suffixes after a declarator name: `[N]*`.
    fn array_suffix(&mut self, mut ty: CType) -> PResult<CType> {
        let mut dims = Vec::new();
        while self.eat_p("[") {
            match self.next() {
                Some(Tok::Int(n, _)) if n >= 0 => dims.push(n as u64),
                other => return self.err(format!("expected array length, found {other:?}")),
            }
            self.expect_p("]")?;
        }
        for &d in dims.iter().rev() {
            ty = CType::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    // ---- top level ---------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut prog = Program::default();
        while self.peek().is_some() {
            if self.eat_kw("extern") {
                // extern function or global.
                let ty = self.parse_type()?;
                let name = self.expect_ident()?;
                if self.eat_p("(") {
                    let params = self.params()?;
                    self.expect_p(";")?;
                    prog.funcs.push(FuncDef {
                        name,
                        ret: ty,
                        params,
                        body: None,
                        is_static: false,
                    });
                } else {
                    let ty = self.array_suffix(ty)?;
                    self.expect_p(";")?;
                    prog.globals.push(GlobalDef {
                        name,
                        ty,
                        init: None,
                        is_extern: true,
                        is_static: false,
                    });
                }
                continue;
            }
            let is_static = self.eat_kw("static");
            if !is_static
                && matches!(self.peek(), Some(Tok::Ident(s)) if s == "struct")
                && matches!(self.peek2(), Some(Tok::Ident(_)))
                && matches!(
                    self.toks.get(self.pos + 2).map(|s| &s.tok),
                    Some(Tok::P("{"))
                )
            {
                prog.structs.push(self.struct_def()?);
                continue;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.eat_p("(") {
                let params = self.params()?;
                self.expect_p("{")?;
                let body = self.block_stmts()?;
                prog.funcs.push(FuncDef {
                    name,
                    ret: ty,
                    params,
                    body: Some(body),
                    is_static,
                });
            } else {
                let ty = self.array_suffix(ty)?;
                let init = if self.eat_p("=") {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_p(";")?;
                prog.globals.push(GlobalDef {
                    name,
                    ty,
                    init,
                    is_extern: false,
                    is_static,
                });
            }
        }
        Ok(prog)
    }

    fn struct_def(&mut self) -> PResult<StructDef> {
        self.next(); // struct
        let name = self.expect_ident()?;
        self.expect_p("{")?;
        let mut fields = Vec::new();
        while !self.eat_p("}") {
            let ty = self.parse_type()?;
            let fname = self.expect_ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect_p(";")?;
            fields.push((ty, fname));
        }
        self.expect_p(";")?;
        Ok(StructDef { name, fields })
    }

    fn params(&mut self) -> PResult<Vec<(CType, String)>> {
        let mut out = Vec::new();
        if self.eat_p(")") {
            return Ok(out);
        }
        loop {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            out.push((ty, name));
            if self.eat_p(")") {
                break;
            }
            self.expect_p(",")?;
        }
        Ok(out)
    }

    // ---- statements ----------------------------------------------------------

    fn block_stmts(&mut self) -> PResult<Vec<Stmt>> {
        let mut out = Vec::new();
        while !self.eat_p("}") {
            if self.peek().is_none() {
                return self.err("unexpected end of file in block");
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        if self.eat_p("{") {
            return Ok(Stmt::Block(self.block_stmts()?));
        }
        if self.eat_kw("if") {
            self.expect_p("(")?;
            let c = self.expr()?;
            self.expect_p(")")?;
            let then = self.stmt_as_block()?;
            let els = if self.eat_kw("else") {
                self.stmt_as_block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(c, then, els));
        }
        if self.eat_kw("while") {
            self.expect_p("(")?;
            let c = self.expr()?;
            self.expect_p(")")?;
            let body = self.stmt_as_block()?;
            return Ok(Stmt::While(c, body));
        }
        if self.eat_kw("for") {
            self.expect_p("(")?;
            let init = if self.eat_p(";") {
                None
            } else {
                let s = self.simple_stmt()?;
                self.expect_p(";")?;
                Some(Box::new(s))
            };
            let cond = if self.eat_p(";") {
                None
            } else {
                let e = self.expr()?;
                self.expect_p(";")?;
                Some(e)
            };
            let step = if self.eat_p(")") {
                None
            } else {
                let e = self.expr()?;
                self.expect_p(")")?;
                Some(e)
            };
            let body = self.stmt_as_block()?;
            return Ok(Stmt::For(init, cond, step, body));
        }
        if self.eat_kw("return") {
            if self.eat_p(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_p(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.eat_kw("break") {
            self.expect_p(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue") {
            self.expect_p(";")?;
            return Ok(Stmt::Continue);
        }
        if self.eat_kw("try") {
            self.expect_p("{")?;
            let body = self.block_stmts()?;
            if !self.eat_kw("catch") {
                return self.err("expected 'catch' after try block");
            }
            self.expect_p("{")?;
            let handler = self.block_stmts()?;
            return Ok(Stmt::TryCatch(body, handler));
        }
        if self.eat_kw("throw") {
            self.expect_p(";")?;
            return Ok(Stmt::Throw);
        }
        if self.eat_kw("delete") {
            let e = self.expr()?;
            self.expect_p(";")?;
            return Ok(Stmt::Delete(e));
        }
        let s = self.simple_stmt()?;
        self.expect_p(";")?;
        Ok(s)
    }

    fn stmt_as_block(&mut self) -> PResult<Vec<Stmt>> {
        if self.eat_p("{") {
            self.block_stmts()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Declaration or expression (no trailing `;`), as used by `for(...)`.
    fn simple_stmt(&mut self) -> PResult<Stmt> {
        if self.at_type() {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            let ty = self.array_suffix(ty)?;
            let init = if self.eat_p("=") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Decl(ty, name, init));
        }
        Ok(Stmt::Expr(self.expr()?))
    }

    // ---- expressions -----------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.assignment()
    }

    fn mk(&self, kind: ExprKind) -> Expr {
        Expr {
            kind,
            line: self.line(),
        }
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        if self.eat_p("=") {
            let rhs = self.assignment()?;
            return Ok(self.mk(ExprKind::Assign(Box::new(lhs), Box::new(rhs))));
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let c = self.binary(0)?;
        if self.eat_p("?") {
            let a = self.expr()?;
            self.expect_p(":")?;
            let b = self.ternary()?;
            return Ok(self.mk(ExprKind::Ternary(Box::new(c), Box::new(a), Box::new(b))));
        }
        Ok(c)
    }

    /// The binary operator at the cursor, with its precedence level:
    /// `||` binds loosest (0), `*` `/` `%` tightest (9).
    fn bin_op(&self) -> Option<(usize, BinOpKind)> {
        let Some(Tok::P(p)) = self.peek() else {
            return None;
        };
        Some(match *p {
            "||" => (0, BinOpKind::LOr),
            "&&" => (1, BinOpKind::LAnd),
            "|" => (2, BinOpKind::Or),
            "^" => (3, BinOpKind::Xor),
            "&" => (4, BinOpKind::And),
            "==" => (5, BinOpKind::Eq),
            "!=" => (5, BinOpKind::Ne),
            "<=" => (6, BinOpKind::Le),
            ">=" => (6, BinOpKind::Ge),
            "<" => (6, BinOpKind::Lt),
            ">" => (6, BinOpKind::Gt),
            "<<" => (7, BinOpKind::Shl),
            ">>" => (7, BinOpKind::Shr),
            "+" => (8, BinOpKind::Add),
            "-" => (8, BinOpKind::Sub),
            "*" => (9, BinOpKind::Mul),
            "/" => (9, BinOpKind::Div),
            "%" => (9, BinOpKind::Rem),
            _ => return None,
        })
    }

    /// Binary operators of level `min` and tighter, left-associative
    /// (precedence climbing: one operator lookup per operator, not one per
    /// level per operand).
    fn binary(&mut self, min: usize) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((level, k)) = self.bin_op().filter(|&(level, _)| level >= min) {
            self.pos += 1;
            let rhs = self.binary(level + 1)?;
            lhs = self.mk(ExprKind::Bin(k, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        if self.eat_p("-") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::Neg(Box::new(e))));
        }
        if self.eat_p("!") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::Not(Box::new(e))));
        }
        if self.eat_p("*") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::Deref(Box::new(e))));
        }
        if self.eat_p("&") {
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::Addr(Box::new(e))));
        }
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == "sizeof" {
                self.next();
                self.expect_p("(")?;
                let t = self.parse_type()?;
                self.expect_p(")")?;
                return Ok(self.mk(ExprKind::SizeOf(t)));
            }
            if s == "new" {
                self.next();
                let t = self.parse_type()?;
                let count = if self.eat_p("[") {
                    let e = self.expr()?;
                    self.expect_p("]")?;
                    Some(Box::new(e))
                } else {
                    None
                };
                return Ok(self.mk(ExprKind::New(t, count)));
            }
        }
        // Cast: '(' type ')' unary — only when '(' is followed by a type
        // keyword.
        if self.peek() == Some(&Tok::P("("))
            && matches!(self.peek2(), Some(Tok::Ident(s)) if TYPE_KEYWORDS.contains(&s.as_str()))
        {
            self.next();
            let t = self.parse_type()?;
            self.expect_p(")")?;
            let e = self.unary()?;
            return Ok(self.mk(ExprKind::Cast(t, Box::new(e))));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.eat_p("(") {
                let mut args = Vec::new();
                if !self.eat_p(")") {
                    loop {
                        args.push(self.expr()?);
                        if self.eat_p(")") {
                            break;
                        }
                        self.expect_p(",")?;
                    }
                }
                e = self.mk(ExprKind::Call(Box::new(e), args));
            } else if self.eat_p("[") {
                let i = self.expr()?;
                self.expect_p("]")?;
                e = self.mk(ExprKind::Index(Box::new(e), Box::new(i)));
            } else if self.eat_p(".") {
                let f = self.expect_ident()?;
                e = self.mk(ExprKind::Member(Box::new(e), f));
            } else if self.eat_p("->") {
                let f = self.expect_ident()?;
                e = self.mk(ExprKind::Arrow(Box::new(e), f));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.next() {
            Some(Tok::Int(v, l)) => Ok(self.mk(ExprKind::IntLit(v, l))),
            Some(Tok::Float(v, f)) => Ok(self.mk(ExprKind::FloatLit(v, f))),
            Some(Tok::Char(c)) => Ok(self.mk(ExprKind::CharLit(c))),
            Some(Tok::Str(s)) => Ok(self.mk(ExprKind::StrLit(s))),
            Some(Tok::Ident(s)) => match s.as_str() {
                "true" => Ok(self.mk(ExprKind::BoolLit(true))),
                "false" => Ok(self.mk(ExprKind::BoolLit(false))),
                "null" => Ok(self.mk(ExprKind::Null)),
                _ => Ok(self.mk(ExprKind::Ident(s))),
            },
            Some(Tok::P("(")) => {
                let e = self.expr()?;
                self.expect_p(")")?;
                Ok(e)
            }
            other => self.err(format!("expected an expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_control_flow() {
        let p = parse(
            "
int sum(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + i;
    }
    return s;
}",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "sum");
        assert_eq!(p.funcs[0].params.len(), 1);
    }

    #[test]
    fn parses_structs_pointers_arrays() {
        let p = parse(
            "
struct node { int value; struct node* next; };
struct node* head = null;
int table[64];
static int hidden = 3;
extern int puts(char* s);
",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.globals.len(), 3);
        assert!(p.globals[2].is_static);
        assert_eq!(p.funcs.len(), 1);
        assert!(p.funcs[0].body.is_none());
        assert_eq!(p.globals[1].ty, CType::Array(Box::new(CType::Int), 64));
    }

    #[test]
    fn parses_fnptr_new_delete_try() {
        let p = parse(
            "
int apply(fn<int(int)> f, int x) {
    return f(x);
}
void g() {
    int* p = new int[10];
    try {
        p[0] = 1;
        throw;
    } catch {
        delete p;
    }
}",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 2);
        match &p.funcs[0].params[0].0 {
            CType::FnPtr { params, .. } => assert_eq!(params.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_and_casts() {
        let p = parse("int f(int a, int b) { return a + b * 2 == (int)(a << 1); }").unwrap();
        let f = &p.funcs[0];
        match &f.body.as_ref().unwrap()[0] {
            Stmt::Return(Some(Expr {
                kind: ExprKind::Bin(BinOpKind::Eq, l, _),
                ..
            })) => match &l.kind {
                ExprKind::Bin(BinOpKind::Add, _, r) => {
                    assert!(matches!(r.kind, ExprKind::Bin(BinOpKind::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let e = parse("int f() {\n  return $;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
