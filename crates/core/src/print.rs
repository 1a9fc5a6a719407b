//! The textual form of the representation (paper §2.5).
//!
//! The representation is a first-class language with equivalent textual,
//! binary, and in-memory forms; this module renders the in-memory form to
//! text. The syntax follows the original assembly closely:
//!
//! ```text
//! %list = type { int, %list* }
//! @G = global int 42
//! declare int @puts(sbyte*)
//! define int @main() {
//! bb0:
//!   %t0 = load int* @G
//!   %t1 = add int %t0, 1
//!   ret int %t1
//! }
//! ```
//!
//! The parser for this syntax lives in the `lpat-asm` crate; round-tripping
//! is lossless modulo value numbering (parsing renumbers densely, so the
//! print of a parsed module is canonical).

use std::fmt::Write;

use crate::constant::{Const, ConstId, FuncId};
use crate::function::{Function, Linkage};
use crate::inst::{BlockId, Inst, InstId, Value};
use crate::module::Module;
use crate::types::Type;

impl Module {
    /// Render the whole module to its textual form.
    pub fn display(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "; module = {}", self.name);
        // Named struct types, in creation order.
        for (id, ty) in self.types.iter() {
            match ty {
                Type::Struct {
                    name: Some(n),
                    fields,
                } => {
                    let mut body = String::new();
                    body.push_str("{ ");
                    for (i, f) in fields.iter().enumerate() {
                        if i > 0 {
                            body.push_str(", ");
                        }
                        body.push_str(&self.types.display(*f));
                    }
                    body.push_str(" }");
                    let _ = writeln!(out, "%{n} = type {body}");
                    let _ = id;
                }
                Type::Opaque(n) => {
                    let _ = writeln!(out, "%{n} = type opaque");
                }
                _ => {}
            }
        }
        for (_, g) in self.globals() {
            let kw = if g.is_const { "constant" } else { "global" };
            let link = match g.linkage {
                Linkage::Internal => "internal ",
                Linkage::External => "",
            };
            match g.init {
                Some(init) => {
                    let _ = writeln!(
                        out,
                        "@{} = {}{} {} {}",
                        g.name,
                        link,
                        kw,
                        self.types.display(g.value_ty),
                        self.const_text(init)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "@{} = external {} {}",
                        g.name,
                        kw,
                        self.types.display(g.value_ty)
                    );
                }
            }
        }
        for (fid, f) in self.funcs() {
            if f.is_declaration() {
                let _ = writeln!(out, "{}", self.func_header(fid, "declare"));
            } else {
                out.push_str(&self.display_func(fid));
            }
        }
        out
    }

    fn func_header(&self, fid: FuncId, kw: &str) -> String {
        let f = self.func(fid);
        let link = match (kw, f.linkage()) {
            ("define", Linkage::Internal) => "internal ",
            _ => "",
        };
        let mut s = format!(
            "{kw} {link}{} @{}(",
            self.types.display(f.ret_type()),
            f.name()
        );
        for (i, p) in f.params().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{} %a{i}", self.types.display(*p));
        }
        if f.is_varargs() {
            if !f.params().is_empty() {
                s.push_str(", ");
            }
            s.push_str("...");
        }
        s.push(')');
        s
    }

    /// Render one function definition.
    pub fn display_func(&self, fid: FuncId) -> String {
        let f = self.func(fid);
        let mut out = String::new();
        let _ = writeln!(out, "{} {{", self.func_header(fid, "define"));
        for b in f.block_ids() {
            let _ = writeln!(out, "bb{}:", b.index());
            for &i in f.block_insts(b) {
                let _ = writeln!(out, "  {}", self.inst_text(f, i));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render a value operand (without its type).
    pub fn value_text(&self, v: Value) -> String {
        match v {
            Value::Inst(i) => format!("%t{}", i.index()),
            Value::Arg(n) => format!("%a{n}"),
            Value::Const(c) => self.const_text(c),
        }
    }

    /// Render a constant literal.
    pub fn const_text(&self, c: ConstId) -> String {
        match self.consts.get(c) {
            Const::Bool(b) => b.to_string(),
            Const::Int { kind, value } => {
                if kind.is_signed() {
                    value.to_string()
                } else {
                    (*value as u64).to_string()
                }
            }
            Const::F32(bits) => format!("0x{bits:08X}"),
            Const::F64(bits) => format!("0x{bits:016X}"),
            Const::Null(_) => "null".to_string(),
            Const::Undef(_) => "undef".to_string(),
            Const::Zero(_) => "zeroinitializer".to_string(),
            Const::Array { elems, ty } => {
                let elem_ty = match self.types.ty(*ty) {
                    Type::Array { elem, .. } => *elem,
                    _ => unreachable!("array constant with non-array type"),
                };
                let mut s = String::from("[ ");
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{} {}", self.types.display(elem_ty), self.const_text(*e));
                }
                s.push_str(" ]");
                s
            }
            Const::Struct { fields, ty } => {
                let ftys = match self.types.ty(*ty) {
                    Type::Struct { fields, .. } => fields.clone(),
                    _ => unreachable!("struct constant with non-struct type"),
                };
                let mut s = String::from("{ ");
                for (i, e) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{} {}", self.types.display(ftys[i]), self.const_text(*e));
                }
                s.push_str(" }");
                s
            }
            Const::GlobalAddr(g) => format!("@{}", self.global(*g).name),
            Const::FuncAddr(f) => format!("@{}", self.func(*f).name()),
        }
    }

    /// Render a typed operand (`int %t0`).
    fn typed_value(&self, f: &Function, v: Value) -> String {
        format!(
            "{} {}",
            self.types.display(self.value_type(f, v)),
            self.value_text(v)
        )
    }

    /// Render one instruction.
    pub fn inst_text(&self, f: &Function, id: InstId) -> String {
        let inst = f.inst(id);
        let lhs = |s: String| -> String {
            let ty = f.inst_ty(id);
            if self.types.ty(ty) == &Type::Void {
                s
            } else {
                format!("%t{} = {s}", id.index())
            }
        };
        let label = |b: BlockId| format!("label %bb{}", b.index());
        match inst {
            Inst::Ret(None) => "ret void".to_string(),
            Inst::Ret(Some(v)) => format!("ret {}", self.typed_value(f, *v)),
            Inst::Br(b) => format!("br {}", label(*b)),
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => format!(
                "br bool {}, {}, {}",
                self.value_text(*cond),
                label(*then_bb),
                label(*else_bb)
            ),
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                let mut s = format!(
                    "switch {}, {} [",
                    self.typed_value(f, *val),
                    label(*default)
                );
                let vt = self.value_type(f, *val);
                for (c, b) in cases {
                    let _ = write!(
                        s,
                        " {} {}, {}",
                        self.types.display(vt),
                        self.const_text(*c),
                        label(*b)
                    );
                }
                s.push_str(" ]");
                s
            }
            Inst::Invoke {
                callee,
                args,
                normal,
                unwind,
            } => {
                let mut s = format!(
                    "invoke {} {}(",
                    self.types.display(f.inst_ty(id)),
                    self.value_text(*callee)
                );
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&self.typed_value(f, *a));
                }
                let _ = write!(s, ") to {} unwind {}", label(*normal), label(*unwind));
                lhs(s)
            }
            Inst::Unwind => "unwind".to_string(),
            Inst::Unreachable => "unreachable".to_string(),
            Inst::Bin { op, lhs: l, rhs } => lhs(format!(
                "{} {} {}, {}",
                op.name(),
                self.types.display(self.value_type(f, *l)),
                self.value_text(*l),
                self.value_text(*rhs)
            )),
            Inst::Cmp { pred, lhs: l, rhs } => lhs(format!(
                "{} {} {}, {}",
                pred.name(),
                self.types.display(self.value_type(f, *l)),
                self.value_text(*l),
                self.value_text(*rhs)
            )),
            Inst::Malloc { elem_ty, count } => lhs(match count {
                Some(c) => format!(
                    "malloc {}, uint {}",
                    self.types.display(*elem_ty),
                    self.value_text(*c)
                ),
                None => format!("malloc {}", self.types.display(*elem_ty)),
            }),
            Inst::Alloca { elem_ty, count } => lhs(match count {
                Some(c) => format!(
                    "alloca {}, uint {}",
                    self.types.display(*elem_ty),
                    self.value_text(*c)
                ),
                None => format!("alloca {}", self.types.display(*elem_ty)),
            }),
            Inst::Free(p) => format!("free {}", self.typed_value(f, *p)),
            Inst::Load { ptr } => lhs(format!("load {}", self.typed_value(f, *ptr))),
            Inst::Store { val, ptr } => format!(
                "store {}, {}",
                self.typed_value(f, *val),
                self.typed_value(f, *ptr)
            ),
            Inst::Gep { ptr, indices } => {
                let mut s = format!("getelementptr {}", self.typed_value(f, *ptr));
                for i in indices {
                    let _ = write!(s, ", {}", self.typed_value(f, *i));
                }
                lhs(s)
            }
            Inst::Phi { incoming } => {
                let mut s = format!("phi {} ", self.types.display(f.inst_ty(id)));
                for (i, (v, b)) in incoming.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "[ {}, %bb{} ]", self.value_text(*v), b.index());
                }
                lhs(s)
            }
            Inst::Call { callee, args } => {
                let mut s = format!(
                    "call {} {}(",
                    self.types.display(f.inst_ty(id)),
                    self.value_text(*callee)
                );
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&self.typed_value(f, *a));
                }
                s.push(')');
                lhs(s)
            }
            Inst::Cast { val, to } => lhs(format!(
                "cast {} to {}",
                self.typed_value(f, *val),
                self.types.display(*to)
            )),
            Inst::VaArg { ty } => lhs(format!("vaarg {}", self.types.display(*ty))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::CmpPred;

    #[test]
    fn prints_a_module() {
        let mut m = Module::new("demo");
        let i32t = m.types.i32();
        let init = m.consts.i32(42);
        let g = m.add_global("G", i32t, Some(init), false, Linkage::External);
        let f = m.add_function("main", &[], i32t, false, Linkage::External);
        let mut b = m.builder(f);
        b.block();
        let ga = b.global_addr(g);
        let x = b.load(ga);
        let one = b.iconst32(1);
        let y = b.add(x, one);
        let c = b.cmp(CmpPred::Gt, y, one);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(y));
        b.switch_to(e);
        b.ret(Some(one));
        let text = m.display();
        assert!(text.contains("@G = global int 42"), "{text}");
        assert!(text.contains("define int @main()"), "{text}");
        assert!(text.contains("%t0 = load int* @G"), "{text}");
        assert!(text.contains("%t1 = add int %t0, 1"), "{text}");
        assert!(
            text.contains("br bool %t2, label %bb1, label %bb2"),
            "{text}"
        );
        assert!(text.contains("ret int %t1"), "{text}");
    }

    #[test]
    fn prints_aggregates_and_floats() {
        let mut m = Module::new("agg");
        let f32t = m.types.f32();
        let at = m.types.array(f32t, 2);
        let one = m.consts.f32(1.0);
        let two = m.consts.f32(2.0);
        let arr = m.consts.array(at, vec![one, two]);
        m.add_global("A", at, Some(arr), true, Linkage::Internal);
        let text = m.display();
        assert!(
            text.contains(
                "@A = internal constant [2 x float] [ float 0x3F800000, float 0x40000000 ]"
            ),
            "{text}"
        );
    }
}
