//! # lpat-core — the code representation
//!
//! The in-memory form of the `lpat` representation: a low-level, typed,
//! SSA-based instruction set modeled on the one described in
//! *LLVM: A Compilation Framework for Lifelong Program Analysis &
//! Transformation* (Lattner & Adve, CGO 2004).
//!
//! The representation describes a program using an abstract RISC-like
//! instruction set (31 opcodes) augmented with the key higher-level
//! information needed for effective analysis:
//!
//! * a **language-independent type system** (primitives plus pointer,
//!   array, struct, and function types) — [`types`];
//! * **typed address arithmetic** via `getelementptr` and explicit type
//!   conversions via `cast` — [`inst`];
//! * an **explicit CFG** and an explicit SSA dataflow representation with
//!   an infinite, typed virtual register set — [`function`];
//! * a **unified memory model**: all addressable objects are explicitly
//!   allocated (`malloc`/`alloca`), globals and functions are symbols
//!   providing *addresses* — [`module`];
//! * two low-level **exception-handling** primitives, `invoke` and
//!   `unwind`, that expose exceptional control flow in the CFG — [`inst`].
//!
//! Three equivalent forms exist: this in-memory form, the textual form
//! (printed here, parsed by `lpat-asm`), and the compact binary form
//! (`lpat-bytecode`).
//!
//! # Examples
//!
//! ```
//! use lpat_core::{Module, Linkage, inst::{Value, CmpPred}};
//!
//! // int abs(int x) { return x < 0 ? -x : x; }
//! let mut m = Module::new("example");
//! let i32t = m.types.i32();
//! let f = m.add_function("abs", &[i32t], i32t, false, Linkage::External);
//! let mut b = m.builder(f);
//! let entry = b.block();
//! let neg_bb = b.new_block();
//! let pos_bb = b.new_block();
//! let zero = b.iconst32(0);
//! let is_neg = b.cmp(CmpPred::Lt, Value::Arg(0), zero);
//! b.cond_br(is_neg, neg_bb, pos_bb);
//! b.switch_to(neg_bb);
//! let negated = b.sub(zero, Value::Arg(0));
//! b.ret(Some(negated));
//! b.switch_to(pos_bb);
//! b.ret(Some(Value::Arg(0)));
//! m.verify().expect("well-formed IR");
//! println!("{}", m.display());
//! # let _ = entry;
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod constant;
pub mod fault;
pub mod fold;
pub mod function;
pub mod hash;
pub mod inst;
pub mod module;
pub mod print;
pub mod trace;
pub mod types;
pub mod verify;
pub mod wire;

pub use builder::FuncBuilder;
pub use constant::{Const, ConstId, ConstPool, FuncId, GlobalId};
pub use fault::{FaultAction, FaultPlan, FaultSpec};
pub use function::{body_copies, resolve_replaced, BodyCopies, Function, InstData, Linkage};
pub use inst::{BinOp, BlockId, CmpPred, Inst, InstId, Value};
pub use module::{AddrTypeTable, Checkpoint, Global, Module, ResultType, TypeError};
pub use types::{GepError, GepStep, IntKind, Type, TypeCtx, TypeId};
pub use verify::{Dominators, VerifyError};
