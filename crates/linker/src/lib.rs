//! # lpat-linker — module linking
//!
//! Combines the per-translation-unit modules emitted by front-ends into a
//! single whole-program module (paper §3.3). Link time is the first phase
//! where most of the program is available, making it the natural place for
//! the aggressive interprocedural optimizations in `lpat-transform`.
//!
//! Linking performs:
//!
//! * **type unification** — named struct types unify by name (an opaque
//!   declaration resolves against a definition); structural types re-intern;
//! * **symbol resolution** — declarations bind to definitions; duplicate
//!   external definitions are an error; internal symbols never clash (they
//!   are renamed on collision);
//! * **body copying** — instruction streams are rebuilt with types,
//!   constants, and symbol references remapped into the destination module.
//!
//! The same machinery provides [`compact`], which round-trips one module
//! through a copy to garbage-collect unreferenced types and constants —
//! the *dead type elimination* the paper lists among the link-time passes.
//!
//! # Examples
//!
//! ```
//! let a = lpat_asm::parse_module("a", "
//! declare int @helper(int)
//! define int @main() {
//! e:
//!   %v = call int @helper(int 1)
//!   ret int %v
//! }").unwrap();
//! let b = lpat_asm::parse_module("b", "
//! define int @helper(int %x) {
//! e:
//!   ret int %x
//! }").unwrap();
//! let linked = lpat_linker::link(vec![a, b], "prog").unwrap();
//! linked.verify().unwrap();
//! assert!(!linked.func(linked.func_by_name("helper").unwrap()).is_declaration());
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;

use lpat_core::{
    Const, ConstId, FuncId, GlobalId, Inst, InstId, Linkage, Module, Type, TypeId, Value,
};

/// A linking failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkError(pub String);

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link error: {}", self.0)
    }
}

impl std::error::Error for LinkError {}

/// Link `modules` into a single module named `name`.
///
/// # Errors
///
/// Duplicate external definitions and signature mismatches between a
/// declaration and its definition are errors.
pub fn link(modules: Vec<Module>, name: &str) -> Result<Module, LinkError> {
    let mut dst = Module::new(name);
    for src in &modules {
        add_module(&mut dst, src)?;
    }
    Ok(dst)
}

/// Garbage-collect a module's type and constant tables by copying it into
/// a fresh module (dead type elimination).
pub fn compact(m: &Module) -> Module {
    let mut dst = Module::new(&m.name);
    add_module(&mut dst, m).expect("self-copy cannot conflict");
    dst
}

/// State for copying one source module into the destination.
struct Copier<'a> {
    src: &'a Module,
    tmap: HashMap<TypeId, TypeId>,
    cmap: HashMap<ConstId, ConstId>,
    gmap: HashMap<GlobalId, GlobalId>,
    fmap: HashMap<FuncId, FuncId>,
}

fn add_module(dst: &mut Module, src: &Module) -> Result<(), LinkError> {
    let mut cp = Copier {
        src,
        tmap: HashMap::new(),
        cmap: HashMap::new(),
        gmap: HashMap::new(),
        fmap: HashMap::new(),
    };

    // 1. Globals: resolve or create headers.
    for (gid, g) in src.globals() {
        let vty = cp.translate_type(dst, g.value_ty)?;
        let dst_id = match (g.linkage, dst.global_by_name(&g.name)) {
            (Linkage::External, Some(existing)) => {
                let ex = dst.global(existing).clone();
                if ex.value_ty != vty {
                    return Err(LinkError(format!(
                        "global @{} declared with conflicting types",
                        g.name
                    )));
                }
                match (ex.is_declaration(), g.is_declaration()) {
                    (_, true) => existing,     // src is a declaration: bind
                    (true, false) => existing, // definition fills declaration
                    (false, false) => {
                        return Err(LinkError(format!(
                            "duplicate definition of global @{}",
                            g.name
                        )))
                    }
                }
            }
            (Linkage::External, None) => {
                dst.add_global(&g.name, vty, None, g.is_const, Linkage::External)
            }
            (Linkage::Internal, prev) => {
                let name = match prev {
                    None => g.name.clone(),
                    Some(_) => fresh_name(dst, &g.name),
                };
                dst.add_global(&name, vty, None, g.is_const, Linkage::Internal)
            }
        };
        cp.gmap.insert(gid, dst_id);
    }

    // 2. Function headers.
    for (fid, f) in src.funcs() {
        let params: Result<Vec<TypeId>, LinkError> = f
            .params()
            .iter()
            .map(|&p| cp.translate_type(dst, p))
            .collect();
        let params = params?;
        let ret = cp.translate_type(dst, f.ret_type())?;
        let dst_id = match (f.linkage(), dst.func_by_name(f.name())) {
            (Linkage::External, Some(existing)) => {
                let ex = dst.func(existing);
                if ex.params() != params.as_slice()
                    || ex.ret_type() != ret
                    || ex.is_varargs() != f.is_varargs()
                {
                    return Err(LinkError(format!(
                        "function @{} declared with conflicting signatures",
                        f.name()
                    )));
                }
                if !ex.is_declaration() && !f.is_declaration() {
                    return Err(LinkError(format!(
                        "duplicate definition of function @{}",
                        f.name()
                    )));
                }
                existing
            }
            (Linkage::External, None) => {
                dst.add_function(f.name(), &params, ret, f.is_varargs(), Linkage::External)
            }
            (Linkage::Internal, prev) => {
                let name = match prev {
                    None => f.name().to_string(),
                    Some(_) => fresh_name_fn(dst, f.name()),
                };
                dst.add_function(&name, &params, ret, f.is_varargs(), Linkage::Internal)
            }
        };
        cp.fmap.insert(fid, dst_id);
    }

    // 3. Global initializers.
    for (gid, g) in src.globals() {
        if let Some(init) = g.init {
            let di = cp.translate_const(dst, init)?;
            let dg = cp.gmap[&gid];
            if dst.global(dg).init.is_none() {
                dst.global_mut(dg).init = Some(di);
            }
        }
    }

    // 4. Function bodies.
    for (fid, f) in src.funcs() {
        if f.is_declaration() {
            continue;
        }
        let dfid = cp.fmap[&fid];
        if !dst.func(dfid).is_declaration() {
            // Filled by an earlier module; duplicate-definition errors were
            // raised above, so this is the same body already.
            continue;
        }
        cp.copy_body(dst, fid, dfid)?;
    }
    Ok(())
}

fn fresh_name(dst: &Module, base: &str) -> String {
    let mut i = 1;
    loop {
        let cand = format!("{base}.{i}");
        if dst.global_by_name(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

fn fresh_name_fn(dst: &Module, base: &str) -> String {
    let mut i = 1;
    loop {
        let cand = format!("{base}.{i}");
        if dst.func_by_name(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

impl<'a> Copier<'a> {
    fn translate_type(&mut self, dst: &mut Module, t: TypeId) -> Result<TypeId, LinkError> {
        if let Some(&d) = self.tmap.get(&t) {
            return Ok(d);
        }
        let made = match self.src.types.ty(t).clone() {
            Type::Void => dst.types.void(),
            Type::Bool => dst.types.bool_(),
            Type::Int(k) => dst.types.int(k),
            Type::F32 => dst.types.f32(),
            Type::F64 => dst.types.f64(),
            Type::Ptr(p) => {
                let dp = self.translate_type(dst, p)?;
                dst.types.ptr(dp)
            }
            Type::Array { elem, len } => {
                let de = self.translate_type(dst, elem)?;
                dst.types.array(de, len)
            }
            Type::Struct { name: None, fields } => {
                let df: Result<Vec<TypeId>, LinkError> = fields
                    .iter()
                    .map(|&f| self.translate_type(dst, f))
                    .collect();
                dst.types.struct_lit(df?)
            }
            Type::Struct {
                name: Some(n),
                fields,
            } => {
                // Named structs unify by name; create (or find) first so
                // recursive bodies terminate.
                let id = dst.types.named_struct(&n);
                self.tmap.insert(t, id);
                let df: Result<Vec<TypeId>, LinkError> = fields
                    .iter()
                    .map(|&f| self.translate_type(dst, f))
                    .collect();
                let df = df?;
                match dst.types.ty(id).clone() {
                    Type::Opaque(_) => dst.types.set_struct_body(id, df),
                    Type::Struct {
                        fields: existing, ..
                    } => {
                        if existing != df {
                            return Err(LinkError(format!(
                                "struct %{n} defined with conflicting bodies"
                            )));
                        }
                    }
                    _ => unreachable!(),
                }
                return Ok(id);
            }
            Type::Opaque(n) => dst.types.named_struct(&n),
            Type::Func {
                ret,
                params,
                varargs,
            } => {
                let dr = self.translate_type(dst, ret)?;
                let dp: Result<Vec<TypeId>, LinkError> = params
                    .iter()
                    .map(|&p| self.translate_type(dst, p))
                    .collect();
                dst.types.func(dr, dp?, varargs)
            }
        };
        self.tmap.insert(t, made);
        Ok(made)
    }

    fn translate_const(&mut self, dst: &mut Module, c: ConstId) -> Result<ConstId, LinkError> {
        if let Some(&d) = self.cmap.get(&c) {
            return Ok(d);
        }
        let made = match self.src.consts.get(c).clone() {
            Const::Bool(b) => dst.consts.bool_(b),
            Const::Int { kind, value } => dst.consts.int(kind, value),
            Const::F32(bits) => dst.consts.intern(Const::F32(bits)),
            Const::F64(bits) => dst.consts.intern(Const::F64(bits)),
            Const::Null(t) => {
                let dt = self.translate_type(dst, t)?;
                dst.consts.null(dt)
            }
            Const::Undef(t) => {
                let dt = self.translate_type(dst, t)?;
                dst.consts.undef(dt)
            }
            Const::Zero(t) => {
                let dt = self.translate_type(dst, t)?;
                dst.consts.zero(dt)
            }
            Const::Array { ty, elems } => {
                let dt = self.translate_type(dst, ty)?;
                let de: Result<Vec<ConstId>, LinkError> = elems
                    .iter()
                    .map(|&e| self.translate_const(dst, e))
                    .collect();
                dst.consts.array(dt, de?)
            }
            Const::Struct { ty, fields } => {
                let dt = self.translate_type(dst, ty)?;
                let de: Result<Vec<ConstId>, LinkError> = fields
                    .iter()
                    .map(|&e| self.translate_const(dst, e))
                    .collect();
                dst.consts.struct_(dt, de?)
            }
            Const::GlobalAddr(g) => {
                let dg = self.gmap[&g];
                dst.consts.global_addr(dg)
            }
            Const::FuncAddr(f) => {
                let df = self.fmap[&f];
                dst.consts.func_addr(df)
            }
        };
        self.cmap.insert(c, made);
        Ok(made)
    }

    fn copy_body(&mut self, dst: &mut Module, sfid: FuncId, dfid: FuncId) -> Result<(), LinkError> {
        let src_f = self.src.func(sfid);
        // Dense remap of (possibly sparse) source instruction ids.
        let mut imap: HashMap<InstId, InstId> = HashMap::new();
        for (k, oi) in src_f.inst_ids_in_order().enumerate() {
            imap.insert(oi, InstId::from_index(k));
        }
        for _ in 0..src_f.num_blocks() {
            dst.func_mut(dfid).add_block();
        }
        for b in src_f.block_ids() {
            for &oi in src_f.block_insts(b) {
                let ty = self.translate_type(dst, src_f.inst_ty(oi))?;
                let inst = self.translate_inst(dst, src_f.inst(oi).clone(), &imap)?;
                let fm = dst.func_mut(dfid);
                let made = fm.new_inst(inst, ty);
                debug_assert_eq!(Some(&made), imap.get(&oi));
                let mut insts = fm.block_insts(b).to_vec();
                insts.push(made);
                fm.set_block_insts(b, insts);
            }
        }
        Ok(())
    }

    fn translate_inst(
        &mut self,
        dst: &mut Module,
        mut inst: Inst,
        imap: &HashMap<InstId, InstId>,
    ) -> Result<Inst, LinkError> {
        // Operand values first (constants may introduce new pool entries).
        let mut err = None;
        let mut mapped = Vec::new();
        inst.for_each_operand(|v| mapped.push(v));
        let mut out = Vec::with_capacity(mapped.len());
        for v in mapped {
            out.push(match v {
                Value::Inst(i) => {
                    Value::Inst(*imap.get(&i).ok_or_else(|| {
                        LinkError("operand references unlinked instruction".into())
                    })?)
                }
                Value::Arg(n) => Value::Arg(n),
                Value::Const(c) => match self.translate_const(dst, c) {
                    Ok(dc) => Value::Const(dc),
                    Err(e) => {
                        err = Some(e);
                        Value::Const(c)
                    }
                },
            });
        }
        if let Some(e) = err {
            return Err(e);
        }
        let mut it = out.into_iter();
        inst.map_operands(|_| it.next().expect("operand count stable"));
        // Embedded types and constants.
        match &mut inst {
            Inst::Malloc { elem_ty, .. } | Inst::Alloca { elem_ty, .. } => {
                *elem_ty = self.translate_type(dst, *elem_ty)?;
            }
            Inst::Cast { to, .. } => {
                *to = self.translate_type(dst, *to)?;
            }
            Inst::VaArg { ty } => {
                *ty = self.translate_type(dst, *ty)?;
            }
            Inst::Switch { cases, .. } => {
                for (c, _) in cases {
                    *c = self.translate_const(dst, *c)?;
                }
            }
            _ => {}
        }
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn p(name: &str, src: &str) -> Module {
        let m = parse_module(name, src).unwrap();
        m.verify().unwrap();
        m
    }

    #[test]
    fn resolves_declaration_to_definition_both_orders() {
        let a = "declare int @f(int)\ndefine int @main() {\ne:\n  %v = call int @f(int 1)\n  ret int %v\n}";
        let b = "define int @f(int %x) {\ne:\n  ret int %x\n}";
        for order in [vec![a, b], vec![b, a]] {
            let ms: Vec<Module> = order
                .iter()
                .enumerate()
                .map(|(i, s)| p(&format!("m{i}"), s))
                .collect();
            let linked = link(ms, "prog").unwrap();
            linked.verify().unwrap();
            let f = linked.func_by_name("f").unwrap();
            assert!(!linked.func(f).is_declaration());
            assert_eq!(linked.num_funcs(), 2);
        }
    }

    #[test]
    fn duplicate_definitions_error() {
        let a = p("a", "define void @f() {\ne:\n  ret void\n}");
        let b = p("b", "define void @f() {\ne:\n  ret void\n}");
        assert!(link(vec![a, b], "prog").is_err());
    }

    #[test]
    fn internal_symbols_renamed_not_merged() {
        let a = p(
            "a",
            "define internal int @helper() {\ne:\n  ret int 1\n}\ndefine int @main() {\ne:\n  %v = call int @helper()\n  ret int %v\n}",
        );
        let b = p(
            "b",
            "define internal int @helper() {\ne:\n  ret int 2\n}\ndefine int @other() {\ne:\n  %v = call int @helper()\n  ret int %v\n}",
        );
        let linked = link(vec![a, b], "prog").unwrap();
        linked.verify().unwrap();
        assert_eq!(linked.num_funcs(), 4);
        assert!(linked.func_by_name("helper").is_some());
        assert!(linked.func_by_name("helper.1").is_some());
        // Each caller still calls its own helper.
        let text = linked.display();
        assert!(text.contains("call int @helper.1()"), "{text}");
    }

    #[test]
    fn named_struct_unifies_across_modules() {
        let a = p(
            "a",
            "%node = type { int, %node* }\ndefine int @head(%node* %n) {\ne:\n  %p = getelementptr %node* %n, long 0, ubyte 0\n  %v = load int* %p\n  ret int %v\n}",
        );
        let b = p(
            "b",
            "%node = type { int, %node* }\n@root = global %node* null\ndefine %node* @get_root() {\ne:\n  %v = load %node** @root\n  ret %node* %v\n}",
        );
        let linked = link(vec![a, b], "prog").unwrap();
        linked.verify().unwrap();
        // One %node type in the output text.
        let text = linked.display();
        assert_eq!(text.matches("%node = type").count(), 1, "{text}");
    }

    #[test]
    fn conflicting_struct_bodies_error() {
        let a = p("a", "%s = type { int }\n@x = global %s zeroinitializer");
        let b = p("b", "%s = type { float }\n@y = global %s zeroinitializer");
        assert!(link(vec![a, b], "prog").is_err());
    }

    #[test]
    fn globals_resolve_and_initializers_survive() {
        let a = p("a", "@g = external global int\ndefine int @rd() {\ne:\n  %v = load int* @g\n  ret int %v\n}");
        let b = p("b", "@g = global int 42");
        let linked = link(vec![a, b], "prog").unwrap();
        linked.verify().unwrap();
        let g = linked.global_by_name("g").unwrap();
        assert!(linked.global(g).init.is_some());
        assert_eq!(linked.num_globals(), 1);
    }

    #[test]
    fn signature_mismatch_is_error() {
        let a = p("a", "declare int @f(int)");
        let b = p(
            "b",
            "define float @f(int %x) {\ne:\n  %v = cast int %x to float\n  ret float %v\n}",
        );
        assert!(link(vec![a, b], "prog").is_err());
    }

    #[test]
    fn compact_drops_dead_types_and_consts() {
        let mut m = p("a", "define int @main() {\ne:\n  ret int 1\n}");
        // Pollute the tables with unreferenced entries.
        let junk = m.types.struct_lit(vec![]);
        let junk2 = m.types.array(junk, 8);
        m.consts.f64(123.25);
        m.consts.zero(junk2);
        let before_types = m.types.len();
        let before_consts = m.consts.len();
        let c = compact(&m);
        c.verify().unwrap();
        assert!(c.types.len() < before_types);
        assert!(c.consts.len() < before_consts);
        assert_eq!(c.display(), m.display());
    }

    #[test]
    fn three_module_program_links_and_runs_through_verifier() {
        let a = p(
            "a",
            "
%pair = type { int, int }
declare %pair* @make(int, int)
declare int @sum(%pair*)
define int @main() {
e:
  %p = call %pair* @make(int 3, int 4)
  %s = call int @sum(%pair* %p)
  ret int %s
}",
        );
        let b = p(
            "b",
            "
%pair = type { int, int }
define %pair* @make(int %a, int %b) {
e:
  %p = malloc %pair
  %pa = getelementptr %pair* %p, long 0, ubyte 0
  store int %a, int* %pa
  %pb = getelementptr %pair* %p, long 0, ubyte 1
  store int %b, int* %pb
  ret %pair* %p
}",
        );
        let c = p(
            "c",
            "
%pair = type { int, int }
define int @sum(%pair* %p) {
e:
  %pa = getelementptr %pair* %p, long 0, ubyte 0
  %a = load int* %pa
  %pb = getelementptr %pair* %p, long 0, ubyte 1
  %b = load int* %pb
  %s = add int %a, %b
  ret int %s
}",
        );
        let linked = link(vec![a, b, c], "prog").unwrap();
        linked.verify().unwrap();
        assert_eq!(linked.num_funcs(), 3);
        assert!(linked.funcs().all(|(_, f)| !f.is_declaration()));
    }
}
