//! # lpbench — lpat's benchmark
//!
//! Five workloads over the whole system, end-to-end metrics a user would
//! see, and per-layer metrics from bench-side spans around every call into
//! a layer's public function. `BENCHMARK.json` at the repository root names
//! this package; `README.md` beside this crate explains every name.
//!
//! The package is outside the repository's workspace on purpose: it only
//! uses the layers' `pub` items, exactly as an outside caller would.

#![warn(missing_docs)]

pub mod harness;
pub mod inputs;
pub mod workloads;
