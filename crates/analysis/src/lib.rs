//! # lpat-analysis — program analyses over the representation
//!
//! The analyses the compiler framework builds on (paper §3.3, §4.1.1):
//!
//! * [`alias`] — a local memory oracle: may two accesses in one function
//!   touch the same bytes (GVN's load availability);
//! * [`domtree`] — dominator trees and dominance frontiers (SSA
//!   construction, verifier support);
//! * [`loops`] — natural-loop detection (runtime hot-region profiling);
//! * [`callgraph`] — call-graph construction including function pointers;
//! * [`dsa`] — Data Structure Analysis: flow-insensitive, field-sensitive,
//!   unification-based points-to analysis with *speculative type checking*,
//!   the engine behind the paper's Table 1 typed-access statistics;
//! * [`manager`] — the analysis cache the pass framework requests analyses
//!   through, with modification-counter staleness checks and
//!   `PreservedAnalyses`-driven invalidation.

#![warn(missing_docs)]

pub mod alias;
pub mod callgraph;
pub mod domtree;
pub mod dsa;
pub mod loops;
pub mod manager;

pub use alias::Alias;
pub use callgraph::CallGraph;
pub use domtree::DomTree;
pub use dsa::{AccessStats, Dsa, DsaOptions};
pub use loops::LoopInfo;
pub use manager::{AnalysisManager, CacheStats, FuncAnalyses, PreservedAnalyses};
