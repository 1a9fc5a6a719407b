//! # lpat-transform — scalar and interprocedural transformations
//!
//! The optimizer library of the framework. Front-ends invoke the
//! compile-time pipeline (SSA construction + scalar cleanups, paper §3.2);
//! the linker invokes the interprocedural pipeline (internalize, IPCP, DAE,
//! DGE, inlining, EH pruning — paper §3.3). The [`pm::PassManager`] records
//! per-pass timings, which regenerate the paper's Table 2.
//!
//! Passes:
//!
//! | pass | module | paper hook |
//! |------|--------|------------|
//! | stack promotion | [`mem2reg`] | §3.2 SSA construction |
//! | scalar expansion | [`sroa`] | §3.2 |
//! | const fold / identities | [`scalar`] | §2.2 |
//! | reassociation | [`reassociate`] | §2.2 (explicit address arithmetic) |
//! | CFG simplification | [`simplifycfg`] | — |
//! | redundancy elimination, load availability | [`gvn`] | §2.1 (SSA benefits) |
//! | loop-invariant code motion | [`licm`] | §2.1 |
//! | aggressive DCE | [`adce`] | footnote 9 |
//! | inlining | [`inline`] | Table 2, §2.4 unwind→branch |
//! | devirtualization | [`devirtualize`] | §4.1.1 virtual-call resolution |
//! | internalize / DGE / DAE / IPCP | [`ipo`] | §3.3, Table 2 |
//! | EH pruning | [`prune_eh`] | §2.4, §4.1.2 |

#![warn(missing_docs)]

pub mod adce;
pub mod devirtualize;
pub mod fpm;
pub mod gvn;
pub mod inline;
pub mod ipo;
pub mod licm;
pub mod mem2reg;
pub mod pipelines;
pub mod pm;
pub mod prune_eh;
pub mod reassociate;
pub mod scalar;
pub mod simplifycfg;
pub mod speculate;
pub mod sroa;
pub mod util;

pub use fpm::{FuncUnit, FunctionPass, FunctionPassAdapter};
pub use pipelines::{function_pipeline, link_time_pipeline, scalar_stage};
pub use pm::{
    FaultCause, FuncTiming, ModulePass, PassContext, PassDetails, PassEffect, PassExecution,
    PassFault, PassManager, PipelineReport,
};
pub use speculate::{SpecMap, SpecOptions, SpecPlan, SpecProfile};
