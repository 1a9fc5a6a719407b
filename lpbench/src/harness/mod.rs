//! The harness: statistics, bench-side spans, the metric vocabulary, the
//! runner every workload goes through, and the comparison of two result
//! files against the bounds in `BENCHMARK.json`.

pub mod compare;
pub mod metrics;
pub mod run;
pub mod span;
pub mod stats;
