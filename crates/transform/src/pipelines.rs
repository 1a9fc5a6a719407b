//! Standard pass pipelines.
//!
//! * [`scalar_stage`] — the one scalar cleanup sequence every optimizer
//!   runs over the representation: scalar expansion and stack promotion
//!   (for textual IR, miniC's all-in-memory lowering and the allocas an
//!   inlined callee brings in), folding, reassociation, value numbering,
//!   CFG simplification, loop-invariant code motion and aggressive DCE.
//! * [`function_pipeline`] — the per-module "static optimizer" a front-end
//!   invokes at compile time (paper §3.2): the scalar stage alone.
//! * [`link_time_pipeline`] — the whole-program interprocedural pipeline
//!   run by the linker (paper §3.3): internalize, devirtualize, IPCP, DAE,
//!   DGE, inlining, EH pruning, then the scalar stage over the inlined
//!   code.
//!
//! The idle-time reoptimizer (paper §3.6, `lpat_vm::pgo`) runs the same
//! scalar stage after profile-guided inlining.

use crate::adce::Adce;
use crate::devirtualize::Devirtualize;
use crate::fpm::FunctionPassAdapter;
use crate::gvn::Gvn;
use crate::inline::Inline;
use crate::ipo::{Dae, Dge, Internalize, Ipcp};
use crate::licm::Licm;
use crate::mem2reg::Mem2Reg;
use crate::pm::PassManager;
use crate::prune_eh::PruneEh;
use crate::reassociate::Reassociate;
use crate::scalar::InstSimplify;
use crate::simplifycfg::SimplifyCfg;
use crate::sroa::Sroa;

/// The scalar cleanup stage, named `name` in reports and fault plans.
///
/// All passes are function passes, so the stage runs as one
/// [`FunctionPassAdapter`]: each function flows through every pass
/// (sharing cached analyses) before the next function starts.
pub fn scalar_stage(name: &'static str) -> FunctionPassAdapter {
    FunctionPassAdapter::new(name)
        .add(Sroa::default())
        .add(Mem2Reg::default())
        .add(InstSimplify::default())
        .add(Reassociate::default())
        .add(Gvn::default())
        .add(InstSimplify::default())
        .add(SimplifyCfg::default())
        .add(Licm::default())
        .add(Adce::default())
        .add(SimplifyCfg::default())
}

/// The per-module (compile-time) optimization pipeline.
pub fn function_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    pm.add(scalar_stage("function-opts"));
    pm
}

/// The link-time interprocedural pipeline.
pub fn link_time_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    pm.add(Internalize::default());
    pm.add(Devirtualize::default());
    pm.add(Ipcp::default());
    pm.add(Dae::default());
    pm.add(Dge::default());
    pm.add(Inline::default());
    pm.add(PruneEh::default());
    // Clean up what inlining exposed.
    pm.add(scalar_stage("cleanup"));
    pm.add(Dge::default());
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn full_pipeline_on_realistic_module() {
        // A miniature whole program: helper functions, a global, a loop
        // written through allocas (front-end style, pre-SSA).
        let mut m = parse_module(
            "t",
            "
@limit = global int 10
define int @square(int %x) {
e:
  %r = mul int %x, %x
  ret int %r
}
define int @sum_squares() {
e:
  %i = alloca int
  %s = alloca int
  store int 0, int* %i
  store int 0, int* %s
  br label %h
h:
  %iv = load int* %i
  %lim = load int* @limit
  %c = setlt int %iv, %lim
  br bool %c, label %b, label %x
b:
  %sq = call int @square(int %iv)
  %sv = load int* %s
  %s2 = add int %sv, %sq
  store int %s2, int* %s
  %i2 = add int %iv, 1
  store int %i2, int* %i
  br label %h
x:
  %r = load int* %s
  ret int %r
}
define int @unused_helper(int %a) {
e:
  ret int %a
}
define int @main() {
e:
  %v = call int @sum_squares()
  ret int %v
}",
        )
        .unwrap();
        m.verify().unwrap();
        let mut pm = function_pipeline();
        pm.verify_each = true;
        pm.run(&mut m);
        let mut pm = link_time_pipeline();
        pm.verify_each = true;
        let report = pm.run(&mut m);
        assert!(report.changed());
        let text = m.display();
        // Allocas promoted, unused helper removed, square inlined.
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("unused_helper"), "{text}");
        assert!(!text.contains("call int @square"), "{text}");
        assert!(m.func_by_name("main").is_some());
    }
}
