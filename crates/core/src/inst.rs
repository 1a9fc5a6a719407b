//! The instruction set (paper §2.1).
//!
//! The representation captures the key operations of ordinary processors in a
//! small, RISC-like, three-address instruction set of 31 opcodes, avoiding
//! machine-specific constraints. Virtual registers are typed and in SSA form;
//! memory is accessed only through `load`/`store` with typed pointers.
//!
//! The opcode inventory maps onto the paper's 31 as follows: terminators
//! `ret`, `br` (covering conditional and unconditional), `switch`, `invoke`,
//! `unwind`; binary arithmetic `add sub mul div rem`; comparisons `seteq
//! setne setlt setgt setle setge` (six set-condition opcodes, here one
//! [`Inst::Cmp`] with a [`CmpPred`]); bitwise `and or xor shl shr`; memory
//! `malloc free alloca load store getelementptr`; and `phi cast call`
//! plus the variadic-access pair (`vaarg`/`vanext`), which we model with the
//! [`Inst::VaArg`] instruction. [`Inst::Unreachable`] is a convenience
//! terminator (added to LLVM itself shortly after the paper) used by
//! optimizers.

use crate::constant::ConstId;
use crate::types::TypeId;
use std::fmt;

/// Handle to a basic block within a [`crate::Function`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Raw per-function index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw index (for deserializers and dense tables).
    #[inline]
    pub fn from_index(i: usize) -> BlockId {
        BlockId(i as u32)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Handle to an instruction within a [`crate::Function`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub(crate) u32);

impl InstId {
    /// Raw per-function index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Rebuild from a raw index (for deserializers and dense tables).
    #[inline]
    pub fn from_index(i: usize) -> InstId {
        InstId(i as u32)
    }
}

impl fmt::Debug for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An SSA operand: the result of an instruction, a function argument, or a
/// constant.
///
/// `Value` is a small `Copy` enum — the idiomatic Rust stand-in for LLVM's
/// `Value*`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The result of instruction `InstId` in the enclosing function.
    Inst(InstId),
    /// The `n`-th formal argument of the enclosing function.
    Arg(u32),
    /// An interned constant (including global/function addresses).
    Const(ConstId),
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Inst(i) => write!(f, "%{i:?}"),
            Value::Arg(n) => write!(f, "%a{n}"),
            Value::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl From<InstId> for Value {
    fn from(i: InstId) -> Value {
        Value::Inst(i)
    }
}

impl From<ConstId> for Value {
    fn from(c: ConstId) -> Value {
        Value::Const(c)
    }
}

/// Binary arithmetic and bitwise opcodes.
///
/// Opcodes are overloaded over operand type: `add` works on any integer or
/// floating-point type (this is part of why 31 opcodes suffice). There are no
/// unary operators: `not` and `neg` are expressed via `xor` and `sub`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition (int or float).
    Add,
    /// Subtraction (int or float).
    Sub,
    /// Multiplication (int or float).
    Mul,
    /// Division; signedness comes from the operand type (int or float).
    Div,
    /// Remainder; signedness comes from the operand type (int or float).
    Rem,
    /// Bitwise and (int or bool).
    And,
    /// Bitwise or (int or bool).
    Or,
    /// Bitwise xor (int or bool).
    Xor,
    /// Shift left (int).
    Shl,
    /// Shift right; arithmetic for signed types, logical for unsigned (int).
    Shr,
}

impl BinOp {
    /// All binary opcodes.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Assembly mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parse a mnemonic.
    pub fn from_name(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }

    /// Whether the operation is valid on floating-point operands.
    pub fn allows_float(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// Whether the operation is valid on `bool` operands.
    pub fn allows_bool(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Whether the operation is commutative (used by reassociation and GVN).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }
}

/// Comparison predicates: the six set-condition opcodes (`seteq`, `setne`,
/// `setlt`, `setgt`, `setle`, `setge`). All produce `bool`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signedness from operand type).
    Lt,
    /// Greater than.
    Gt,
    /// Less than or equal.
    Le,
    /// Greater than or equal.
    Ge,
}

impl CmpPred {
    /// All predicates.
    pub const ALL: [CmpPred; 6] = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Lt,
        CmpPred::Gt,
        CmpPred::Le,
        CmpPred::Ge,
    ];

    /// Assembly mnemonic (`seteq`, ...).
    pub fn name(self) -> &'static str {
        match self {
            CmpPred::Eq => "seteq",
            CmpPred::Ne => "setne",
            CmpPred::Lt => "setlt",
            CmpPred::Gt => "setgt",
            CmpPred::Le => "setle",
            CmpPred::Ge => "setge",
        }
    }

    /// Parse a mnemonic.
    pub fn from_name(s: &str) -> Option<CmpPred> {
        Some(match s {
            "seteq" => CmpPred::Eq,
            "setne" => CmpPred::Ne,
            "setlt" => CmpPred::Lt,
            "setgt" => CmpPred::Gt,
            "setle" => CmpPred::Le,
            "setge" => CmpPred::Ge,
            _ => return None,
        })
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Lt => CmpPred::Gt,
            CmpPred::Gt => CmpPred::Lt,
            CmpPred::Le => CmpPred::Ge,
            CmpPred::Ge => CmpPred::Le,
        }
    }

    /// The logical negation of the predicate.
    pub fn negated(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Lt => CmpPred::Ge,
            CmpPred::Gt => CmpPred::Le,
            CmpPred::Le => CmpPred::Gt,
            CmpPred::Ge => CmpPred::Lt,
        }
    }
}

/// An instruction.
///
/// Most instructions are in three-address form: one or two operands, one
/// result. Terminators end a basic block and explicitly name their successor
/// blocks, making the CFG explicit in the representation.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    // ---- terminators ---------------------------------------------------
    /// Return, optionally with a value.
    Ret(Option<Value>),
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on a `bool`.
    CondBr {
        /// Condition (type `bool`).
        cond: Value,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Multi-way branch on an integer.
    Switch {
        /// Scrutinee (integer type).
        val: Value,
        /// Default successor.
        default: BlockId,
        /// `(case constant, successor)` pairs; case constants have the
        /// scrutinee's type.
        cases: Vec<(ConstId, BlockId)>,
    },
    /// Call that exposes exceptional control flow: control transfers to
    /// `normal` on ordinary return and to `unwind` when the callee (or
    /// anything it calls) executes [`Inst::Unwind`] (paper §2.4).
    Invoke {
        /// Callee: a function address or any value of function-pointer type.
        callee: Value,
        /// Actual arguments.
        args: Vec<Value>,
        /// Successor on normal return.
        normal: BlockId,
        /// Successor when an unwind reaches this activation record.
        unwind: BlockId,
    },
    /// Throw: logically unwinds the stack until an activation record created
    /// by an `invoke` is removed, then transfers control to that invoke's
    /// unwind successor.
    Unwind,
    /// Marks a point that cannot be reached; used after calls that never
    /// return and by optimizers.
    Unreachable,

    // ---- three-address operations --------------------------------------
    /// Binary arithmetic/bitwise operation; operands share one type, which
    /// is also the result type.
    Bin {
        /// Opcode.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Set-condition: compare two operands of one scalar type, produce
    /// `bool`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },

    // ---- memory ---------------------------------------------------------
    /// Allocate `count` (default 1) elements of `elem_ty` on the heap;
    /// result type is `elem_ty*`.
    Malloc {
        /// Element type.
        elem_ty: TypeId,
        /// Optional element count (type `uint`).
        count: Option<Value>,
    },
    /// Release memory allocated by `malloc`.
    Free(Value),
    /// Allocate `count` (default 1) elements of `elem_ty` in the current
    /// stack frame; automatically freed on return. All stack-resident data
    /// (including source-level automatic variables) is allocated explicitly
    /// with `alloca`.
    Alloca {
        /// Element type.
        elem_ty: TypeId,
        /// Optional element count (type `uint`).
        count: Option<Value>,
    },
    /// Load the pointee of a typed pointer.
    Load {
        /// Address (pointer type).
        ptr: Value,
    },
    /// Store `val` through a typed pointer. No indexing: addresses are
    /// computed separately by `getelementptr`.
    Store {
        /// Value to store.
        val: Value,
        /// Address (pointer to `val`'s type).
        ptr: Value,
    },
    /// Typed address arithmetic (paper §2.2): given a typed pointer to an
    /// aggregate, compute the address of a sub-element in a type-preserving,
    /// machine-independent way — effectively a combined `.` and `[]`.
    ///
    /// The first index steps over the pointer as if it pointed to an array;
    /// each later index selects a struct field (constant `ubyte`/`uint`) or
    /// an array element (any integer).
    Gep {
        /// Base pointer.
        ptr: Value,
        /// Index list.
        indices: Vec<Value>,
    },

    // ---- other -----------------------------------------------------------
    /// SSA φ-function: selects a value according to the predecessor through
    /// which control entered the block.
    Phi {
        /// `(value, predecessor)` pairs; one per CFG predecessor.
        incoming: Vec<(Value, BlockId)>,
    },
    /// Ordinary function call through a typed function pointer; abstracts
    /// away calling conventions.
    Call {
        /// Callee: function address or function-pointer value.
        callee: Value,
        /// Actual arguments.
        args: Vec<Value>,
    },
    /// Convert a value to another type; the **only** way to perform type
    /// conversions, making all of them explicit (paper §2.2).
    Cast {
        /// Source value.
        val: Value,
        /// Destination type.
        to: TypeId,
    },
    /// Access the next variadic argument of the enclosing varargs function,
    /// interpreting it at type `ty` (models the paper's `vaarg`/`vanext`
    /// pair).
    VaArg {
        /// Type at which to fetch the next variadic argument.
        ty: TypeId,
    },
}

impl Inst {
    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret(_)
                | Inst::Br(_)
                | Inst::CondBr { .. }
                | Inst::Switch { .. }
                | Inst::Invoke { .. }
                | Inst::Unwind
                | Inst::Unreachable
        )
    }

    /// The successor blocks of a terminator (empty for non-terminators).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Br(b) => vec![*b],
            Inst::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Inst::Switch { default, cases, .. } => {
                let mut v = vec![*default];
                v.extend(cases.iter().map(|(_, b)| *b));
                v
            }
            Inst::Invoke { normal, unwind, .. } => vec![*normal, *unwind],
            _ => Vec::new(),
        }
    }

    /// Visit the successor blocks of a terminator, in
    /// [`Inst::successors`] order, without building a list.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Inst::Br(b) => f(*b),
            Inst::CondBr {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Inst::Switch { default, cases, .. } => {
                f(*default);
                cases.iter().for_each(|&(_, b)| f(b));
            }
            Inst::Invoke { normal, unwind, .. } => {
                f(*normal);
                f(*unwind);
            }
            _ => {}
        }
    }

    /// Visit every operand [`Value`] of this instruction.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Ret(Some(v)) | Inst::Free(v) => f(*v),
            Inst::Ret(None)
            | Inst::Br(_)
            | Inst::Unwind
            | Inst::Unreachable
            | Inst::VaArg { .. } => {}
            Inst::CondBr { cond, .. } => f(*cond),
            Inst::Switch { val, .. } => f(*val),
            Inst::Invoke { callee, args, .. } => {
                f(*callee);
                args.iter().copied().for_each(f);
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => {
                if let Some(c) = count {
                    f(*c)
                }
            }
            Inst::Load { ptr } => f(*ptr),
            Inst::Store { val, ptr } => {
                f(*val);
                f(*ptr);
            }
            Inst::Gep { ptr, indices } => {
                f(*ptr);
                indices.iter().copied().for_each(f);
            }
            Inst::Phi { incoming } => incoming.iter().for_each(|(v, _)| f(*v)),
            Inst::Call { callee, args } => {
                f(*callee);
                args.iter().copied().for_each(f);
            }
            Inst::Cast { val, .. } => f(*val),
        }
    }

    /// Rewrite every operand of this instruction with `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Ret(Some(v)) | Inst::Free(v) => *v = f(*v),
            Inst::Ret(None)
            | Inst::Br(_)
            | Inst::Unwind
            | Inst::Unreachable
            | Inst::VaArg { .. } => {}
            Inst::CondBr { cond, .. } => *cond = f(*cond),
            Inst::Switch { val, .. } => *val = f(*val),
            Inst::Invoke { callee, args, .. } => {
                *callee = f(*callee);
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => {
                if let Some(c) = count {
                    *c = f(*c)
                }
            }
            Inst::Load { ptr } => *ptr = f(*ptr),
            Inst::Store { val, ptr } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            Inst::Gep { ptr, indices } => {
                *ptr = f(*ptr);
                for i in indices {
                    *i = f(*i);
                }
            }
            Inst::Phi { incoming } => {
                for (v, _) in incoming {
                    *v = f(*v);
                }
            }
            Inst::Call { callee, args } => {
                *callee = f(*callee);
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Cast { val, .. } => *val = f(*val),
        }
    }

    /// Rewrite every successor block reference with `f` (used by CFG
    /// transforms such as block merging and jump threading).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Inst::Br(b) => *b = f(*b),
            Inst::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Inst::Switch { default, cases, .. } => {
                *default = f(*default);
                for (_, b) in cases {
                    *b = f(*b);
                }
            }
            Inst::Invoke { normal, unwind, .. } => {
                *normal = f(*normal);
                *unwind = f(*unwind);
            }
            Inst::Phi { incoming } => {
                for (_, b) in incoming {
                    *b = f(*b);
                }
            }
            _ => {}
        }
    }

    /// Number of distinct opcode mnemonics, for dense per-opcode statistics
    /// tables indexed by [`Inst::opcode_index`].
    pub const NUM_OPCODES: usize = 32;

    /// Dense index of this instruction's mnemonic in `0..NUM_OPCODES`.
    ///
    /// `br` and conditional `br` share one slot (they share a mnemonic);
    /// every [`BinOp`] and [`CmpPred`] gets its own slot. The interpreter
    /// and JIT use this to count executed instructions per opcode with a
    /// plain array instead of a hash map.
    pub fn opcode_index(&self) -> usize {
        match self {
            Inst::Ret(_) => 0,
            Inst::Br(_) | Inst::CondBr { .. } => 1,
            Inst::Switch { .. } => 2,
            Inst::Invoke { .. } => 3,
            Inst::Unwind => 4,
            Inst::Unreachable => 5,
            Inst::Malloc { .. } => 6,
            Inst::Free(_) => 7,
            Inst::Alloca { .. } => 8,
            Inst::Load { .. } => 9,
            Inst::Store { .. } => 10,
            Inst::Gep { .. } => 11,
            Inst::Phi { .. } => 12,
            Inst::Call { .. } => 13,
            Inst::Cast { .. } => 14,
            Inst::VaArg { .. } => 15,
            Inst::Bin { op, .. } => 16 + *op as usize,
            Inst::Cmp { pred, .. } => 26 + *pred as usize,
        }
    }

    /// The mnemonic for a dense opcode index produced by
    /// [`Inst::opcode_index`].
    pub fn opcode_mnemonic(index: usize) -> &'static str {
        const FIXED: [&str; 16] = [
            "ret",
            "br",
            "switch",
            "invoke",
            "unwind",
            "unreachable",
            "malloc",
            "free",
            "alloca",
            "load",
            "store",
            "getelementptr",
            "phi",
            "call",
            "cast",
            "vaarg",
        ];
        if index < 16 {
            FIXED[index]
        } else if index < 26 {
            BinOp::ALL[index - 16].name()
        } else {
            CmpPred::ALL[index - 26].name()
        }
    }

    /// The opcode mnemonic, for diagnostics and statistics.
    pub fn opcode_name(&self) -> &'static str {
        match self {
            Inst::Ret(_) => "ret",
            Inst::Br(_) | Inst::CondBr { .. } => "br",
            Inst::Switch { .. } => "switch",
            Inst::Invoke { .. } => "invoke",
            Inst::Unwind => "unwind",
            Inst::Unreachable => "unreachable",
            Inst::Bin { op, .. } => op.name(),
            Inst::Cmp { pred, .. } => pred.name(),
            Inst::Malloc { .. } => "malloc",
            Inst::Free(_) => "free",
            Inst::Alloca { .. } => "alloca",
            Inst::Load { .. } => "load",
            Inst::Store { .. } => "store",
            Inst::Gep { .. } => "getelementptr",
            Inst::Phi { .. } => "phi",
            Inst::Call { .. } => "call",
            Inst::Cast { .. } => "cast",
            Inst::VaArg { .. } => "vaarg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Inst::Ret(None).is_terminator());
        assert!(Inst::Unwind.is_terminator());
        assert!(Inst::Br(BlockId(0)).is_terminator());
        assert!(!Inst::Load { ptr: Value::Arg(0) }.is_terminator());
    }

    #[test]
    fn successors_of_switch() {
        let s = Inst::Switch {
            val: Value::Arg(0),
            default: BlockId(1),
            cases: vec![(ConstId(0), BlockId(2)), (ConstId(1), BlockId(3))],
        };
        assert_eq!(s.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn operand_iteration_and_mapping() {
        let mut i = Inst::Store {
            val: Value::Arg(0),
            ptr: Value::Arg(1),
        };
        let mut seen = Vec::new();
        i.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::Arg(0), Value::Arg(1)]);
        i.map_operands(|v| match v {
            Value::Arg(0) => Value::Arg(7),
            other => other,
        });
        match i {
            Inst::Store { val, ptr } => {
                assert_eq!(val, Value::Arg(7));
                assert_eq!(ptr, Value::Arg(1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pred_algebra() {
        for p in CmpPred::ALL {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.negated().negated(), p);
        }
        assert_eq!(CmpPred::Lt.swapped(), CmpPred::Gt);
        assert_eq!(CmpPred::Le.negated(), CmpPred::Gt);
    }

    #[test]
    fn opcode_index_roundtrips_to_name() {
        let samples: Vec<Inst> = vec![
            Inst::Ret(None),
            Inst::Br(BlockId(0)),
            Inst::CondBr {
                cond: Value::Arg(0),
                then_bb: BlockId(0),
                else_bb: BlockId(1),
            },
            Inst::Unwind,
            Inst::Load { ptr: Value::Arg(0) },
            Inst::Bin {
                op: BinOp::Shr,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            },
            Inst::Cmp {
                pred: CmpPred::Ge,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            },
            Inst::VaArg {
                ty: crate::types::TypeId(0),
            },
        ];
        for i in &samples {
            let idx = i.opcode_index();
            assert!(idx < Inst::NUM_OPCODES);
            assert_eq!(Inst::opcode_mnemonic(idx), i.opcode_name());
        }
        // Every dense slot has a distinct mnemonic.
        let names: std::collections::HashSet<&str> =
            (0..Inst::NUM_OPCODES).map(Inst::opcode_mnemonic).collect();
        assert_eq!(names.len(), Inst::NUM_OPCODES);
    }

    #[test]
    fn map_successors_rewrites_phis_too() {
        let mut phi = Inst::Phi {
            incoming: vec![(Value::Arg(0), BlockId(0)), (Value::Arg(1), BlockId(1))],
        };
        phi.map_successors(|b| if b == BlockId(0) { BlockId(5) } else { b });
        match phi {
            Inst::Phi { incoming } => {
                assert_eq!(incoming[0].1, BlockId(5));
                assert_eq!(incoming[1].1, BlockId(1));
            }
            _ => unreachable!(),
        }
    }
}
