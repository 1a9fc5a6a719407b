//! # lpat — Lifelong Program Analysis & Transformation
//!
//! A Rust reproduction of the compilation framework described in
//! *LLVM: A Compilation Framework for Lifelong Program Analysis &
//! Transformation* (Lattner & Adve, CGO 2004): a typed, SSA-based,
//! low-level code representation with equivalent in-memory / textual /
//! binary forms, and the surrounding compiler architecture — front-end,
//! link-time interprocedural optimizer, code generation, runtime
//! profiling, and offline profile-guided reoptimization.
//!
//! This facade crate re-exports every subsystem:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`core`] | `lpat-core` | the representation (types, SSA IR, verifier, printer) |
//! | [`asm`] | `lpat-asm` | textual form parser |
//! | [`bytecode`] | `lpat-bytecode` | compact binary form |
//! | [`analysis`] | `lpat-analysis` | dominators, loops, call graph, DSA, local alias oracle |
//! | [`transform`] | `lpat-transform` | scalar & interprocedural optimizers |
//! | [`linker`] | `lpat-linker` | module linking |
//! | [`vm`] | `lpat-vm` | execution engine, EH runtime, profiling, PGO |
//! | [`codegen`] | `lpat-codegen` | cisc32/risc32 native-code size models |
//! | [`minic`] | `lpat-minic` | the miniC front-end |
//! | [`serve`] | `lpat-serve` | `lpatd`: the multi-tenant compile-and-run daemon |
//! | [`workloads`] | `lpat-workloads` | the SPEC-shaped benchmark suite |
//!
//! [`cli`] is the declared-flag command-line parser `lpatc` and `lpatd`
//! share.
//!
//! # The whole lifecycle in one example
//!
//! ```
//! // 1. Compile-time: front-end emits IR, per-module optimization.
//! let mut module = lpat::minic::compile("demo", "
//!     static int square(int x) { return x * x; }
//!     int main() {
//!         int s = 0;
//!         for (int i = 0; i < 10; i = i + 1) s = s + square(i);
//!         return s;
//!     }").unwrap();
//! lpat::transform::function_pipeline().run(&mut module);
//!
//! // 2. Link-time: whole-program interprocedural optimization.
//! lpat::transform::link_time_pipeline().run(&mut module);
//!
//! // 3. Offline codegen (size model) + persistent bytecode.
//! let native = lpat::codegen::compile_module(&module, &lpat::codegen::Cisc32);
//! let bytecode = lpat::bytecode::write_module(&module);
//! assert!(native.total > 0 && !bytecode.is_empty());
//!
//! // 4. Runtime: execute with profiling.
//! let mut opts = lpat::vm::VmOptions::default();
//! opts.profile = true;
//! let mut vm = lpat::vm::Vm::new(&module, opts).unwrap();
//! assert_eq!(vm.run_main().unwrap(), 285);
//!
//! // 5. Idle-time: profile-guided reoptimization.
//! let profile = vm.profile.clone();
//! lpat::vm::reoptimize(&mut module, &profile, &lpat::vm::PgoOptions::default());
//! module.verify().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use lpat_analysis as analysis;
pub use lpat_asm as asm;
pub use lpat_bytecode as bytecode;
pub use lpat_codegen as codegen;
pub use lpat_core as core;
pub use lpat_linker as linker;
pub use lpat_minic as minic;
pub use lpat_serve as serve;
pub use lpat_transform as transform;
pub use lpat_vm as vm;
pub use lpat_workloads as workloads;
