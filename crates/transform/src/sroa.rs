//! Scalar expansion (SROA): split local structures into per-field allocas
//! (paper §3.2).
//!
//! Runs before stack promotion so that structure fields can be mapped to
//! SSA registers as well: `sroa` turns `alloca {int, float}` whose uses are
//! all constant-field GEPs into one alloca per field, and `mem2reg` then
//! promotes those.

use lpat_analysis::PreservedAnalyses;
use lpat_core::{FuncId, Inst, InstId, Module, Type, Value};

use crate::fpm::{FuncUnit, FunctionPass};
use crate::pm::PassEffect;

/// The scalar-expansion pass.
#[derive(Default)]
pub struct Sroa {
    expanded: usize,
}

impl FunctionPass for Sroa {
    fn name(&self) -> &'static str {
        "sroa"
    }
    fn run_on(&mut self, u: &mut FuncUnit<'_>) -> PassEffect {
        // Iterate: splitting a struct of structs exposes new candidates.
        let mut total = 0;
        loop {
            let n = expand_unit(u);
            total += n;
            if n == 0 {
                break;
            }
        }
        self.expanded += total;
        // Rewrites allocas and GEPs only; CFG and calls untouched.
        PassEffect::from_change(total > 0, PreservedAnalyses::all())
    }
    fn stats(&self) -> String {
        format!("expanded {} aggregate allocas", self.expanded)
    }
}

/// Expand eligible struct allocas once; returns how many were split.
pub fn expand_function(m: &mut Module, fid: FuncId) -> usize {
    crate::fpm::with_unit(m, fid, expand_unit)
}

/// One scalar-expansion round against a [`FuncUnit`]; returns how many
/// allocas were split.
pub fn expand_unit(u: &mut FuncUnit<'_>) -> usize {
    if u.func.is_declaration() {
        return 0;
    }
    let f = &*u.func;
    // Candidates: alloca of struct type, every use a GEP
    // `[0, const-field, ...]`.
    let mut candidates: Vec<(InstId, Vec<lpat_core::TypeId>)> = Vec::new();
    'cand: for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            let Inst::Alloca {
                elem_ty,
                count: None,
            } = f.inst(iid)
            else {
                continue;
            };
            let fields = match u.types.ty(*elem_ty) {
                Type::Struct { fields, .. } => fields.clone(),
                _ => continue,
            };
            let av = Value::Inst(iid);
            for uid in f.inst_ids_in_order() {
                let inst = f.inst(uid);
                let mut uses_it = false;
                inst.for_each_operand(|v| uses_it |= v == av);
                if !uses_it {
                    continue;
                }
                match inst {
                    Inst::Gep { ptr, indices } if *ptr == av && indices.len() >= 2 => {
                        let zero_first = matches!(
                            indices[0],
                            Value::Const(c) if u.consts.as_int(c).map(|(_, v)| v) == Some(0)
                        );
                        let const_field = matches!(
                            indices[1],
                            Value::Const(c) if u.consts.as_int(c).is_some()
                        );
                        if !zero_first || !const_field {
                            continue 'cand;
                        }
                    }
                    _ => continue 'cand,
                }
            }
            candidates.push((iid, fields));
        }
    }
    if candidates.is_empty() {
        return 0;
    }
    let count = candidates.len();
    for (alloca, fields) in candidates {
        split_alloca(u, alloca, &fields);
    }
    count
}

fn split_alloca(u: &mut FuncUnit<'_>, alloca: InstId, fields: &[lpat_core::TypeId]) {
    // Create one alloca per field, inserted where the original lived.
    let inst_blocks = u.func.inst_blocks();
    let home = inst_blocks[alloca.index()].expect("linked alloca");
    let pos = u
        .func
        .block_insts(home)
        .iter()
        .position(|&i| i == alloca)
        .expect("alloca in its block");
    let mut field_allocas = Vec::with_capacity(fields.len());
    for (i, &fty) in fields.iter().enumerate() {
        let pty = u.types.ptr(fty);
        let fm = &mut *u.func;
        let id = fm.new_inst(
            Inst::Alloca {
                elem_ty: fty,
                count: None,
            },
            pty,
        );
        fm.insert_inst(home, pos + i, id);
        field_allocas.push(id);
    }
    // Rewrite GEP uses.
    let f = &*u.func;
    let av = Value::Inst(alloca);
    let mut gep_rewrites: Vec<(InstId, usize, Vec<Value>)> = Vec::new();
    for uid in f.inst_ids_in_order() {
        if let Inst::Gep { ptr, indices } = f.inst(uid) {
            if *ptr == av {
                let fidx = match indices[1] {
                    Value::Const(c) => u.consts.as_int(c).unwrap().1 as usize,
                    _ => unreachable!("checked constant field index"),
                };
                gep_rewrites.push((uid, fidx, indices[2..].to_vec()));
            }
        }
    }
    let zero = u.consts.i64(0);
    let fm = &mut *u.func;
    let mut repl = vec![None; fm.num_inst_slots()];
    for (uid, fidx, rest) in gep_rewrites {
        let base = Value::Inst(field_allocas[fidx]);
        if rest.is_empty() {
            // `&s[0].f` is exactly the field alloca.
            repl[uid.index()] = Some(base);
        } else {
            let mut indices = vec![Value::Const(zero)];
            indices.extend(rest);
            *fm.inst_mut(uid) = Inst::Gep { ptr: base, indices };
        }
    }
    fm.replace_insts(&mut repl);
    fm.unlink_insts(|i| i == alloca);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem2reg::promote_function;
    use lpat_asm::parse_module;

    #[test]
    fn splits_struct_then_promotes() {
        let mut m = parse_module(
            "t",
            "
define int @f(int %x) {
e:
  %s = alloca { int, int }
  %p0 = getelementptr { int, int }* %s, long 0, ubyte 0
  %p1 = getelementptr { int, int }* %s, long 0, ubyte 1
  store int %x, int* %p0
  store int 7, int* %p1
  %a = load int* %p0
  %b = load int* %p1
  %r = add int %a, %b
  ret int %r
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let n = expand_function(&mut m, fid);
        assert_eq!(n, 1);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let (p, _) = promote_function(&mut m, fid);
        assert_eq!(p, 2, "both field allocas promote");
        m.verify().unwrap();
        assert!(!m.display().contains("alloca"), "{}", m.display());
    }

    #[test]
    fn nested_struct_needs_two_rounds() {
        let mut m = parse_module(
            "t",
            "
%in = type { int, int }
define int @f() {
e:
  %s = alloca { %in, int }
  %pi = getelementptr { %in, int }* %s, long 0, ubyte 0, ubyte 1
  store int 3, int* %pi
  %v = load int* %pi
  ret int %v
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(expand_function(&mut m, fid), 1);
        m.verify().unwrap();
        // Round 2: the inner struct alloca.
        assert_eq!(expand_function(&mut m, fid), 1);
        m.verify().unwrap();
        assert_eq!(expand_function(&mut m, fid), 0);
        let (p, _) = promote_function(&mut m, fid);
        assert!(p >= 1);
    }

    #[test]
    fn escaping_struct_not_split() {
        let mut m = parse_module(
            "t",
            "
declare void @ext({ int, int }*)
define void @f() {
e:
  %s = alloca { int, int }
  call void @ext({ int, int }* %s)
  ret void
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(expand_function(&mut m, fid), 0);
    }

    #[test]
    fn whole_struct_gep_blocks_split() {
        let mut m = parse_module(
            "t",
            "
define void @f() {
e:
  %s = alloca { int, int }
  %alias = getelementptr { int, int }* %s, long 0
  %p = getelementptr { int, int }* %alias, long 0, ubyte 0
  store int 1, int* %p
  ret void
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert_eq!(expand_function(&mut m, fid), 0);
    }
}
