//! # lpat-vm — the execution engine
//!
//! The runtime half of the framework (paper §3.4–§3.6): a portable
//! interpreter over the representation with a simulated 32-bit memory, the
//! `invoke`/`unwind` exception runtime, lightweight execution profiling
//! (block/edge/call counts and hot-loop trace formation), and an offline
//! profile-guided reoptimizer.
//!
//! # Examples
//!
//! ```
//! use lpat_vm::{Vm, VmOptions};
//!
//! let m = lpat_asm::parse_module("t", "
//! define int @main() {
//! e:
//!   %x = add int 40, 2
//!   ret int %x
//! }").unwrap();
//! let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
//! assert_eq!(vm.run_main().unwrap(), 42);
//! ```

#![warn(missing_docs)]

mod counters;
pub mod error;
pub mod interp;
pub mod jit;
pub mod mem;
pub mod native;
pub mod pgo;
pub mod profile;
pub mod session;
pub mod store;
pub mod tier;
pub mod value;

pub use counters::ProfileStats;
pub use error::{ExecError, TrapKind};
pub use interp::{SpecStats, Vm, VmOptions};
pub use pgo::{reoptimize, PgoOptions, PgoReport};
pub use profile::{form_trace, HotLoop, ProfileData};
pub use store::{
    module_hash, DenyRecord, FlushGuard, FlushOutcome, Store, StoreError, StoredProfile,
};
pub use tier::TierStats;
pub use value::VmValue;

/// The VM's error type. `VmError::Trap { kind: TrapKind::StackOverflow }`
/// is what deep recursion produces instead of a host stack overflow.
pub type VmError = ExecError;

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_core::Module;

    fn run(src: &str) -> i64 {
        run_opts(src, VmOptions::default()).0
    }

    fn run_opts(src: &str, opts: VmOptions) -> (i64, String) {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap_or_else(|e| panic!("{e:?}"));
        let mut vm = Vm::new(&m, opts).unwrap();
        let r = vm
            .run_main()
            .unwrap_or_else(|e| panic!("{e}\n{}", m.display()));
        (r, vm.output.clone())
    }

    fn run_err(src: &str) -> ExecError {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap();
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        vm.run_main().unwrap_err()
    }

    #[test]
    fn arithmetic_and_branches() {
        assert_eq!(
            run("
define int @main() {
e:
  %a = mul int 6, 7
  %c = setgt int %a, 40
  br bool %c, label %y, label %n
y:
  ret int %a
n:
  ret int 0
}"),
            42
        );
    }

    #[test]
    fn loop_sums() {
        assert_eq!(
            run("
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 10
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}"),
            45
        );
    }

    #[test]
    fn memory_structs_and_geps() {
        assert_eq!(
            run("
%pt = type { int, [3 x int] }
define int @main() {
e:
  %p = malloc %pt
  %f0 = getelementptr %pt* %p, long 0, ubyte 0
  store int 5, int* %f0
  %a1 = getelementptr %pt* %p, long 0, ubyte 1, long 2
  store int 37, int* %a1
  %x = load int* %f0
  %y = load int* %a1
  %s = add int %x, %y
  free %pt* %p
  ret int %s
}"),
            42
        );
    }

    #[test]
    fn recursion_factorial() {
        assert_eq!(
            run("
define int @fact(int %n) {
e:
  %c = setle int %n, 1
  br bool %c, label %base, label %rec
base:
  ret int 1
rec:
  %n1 = sub int %n, 1
  %r = call int @fact(int %n1)
  %v = mul int %n, %r
  ret int %v
}
define int @main() {
e:
  %v = call int @fact(int 6)
  ret int %v
}"),
            720
        );
    }

    #[test]
    fn function_pointers() {
        assert_eq!(
            run("
define int @dbl(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @main() {
e:
  %p = alloca int (int)*
  store int (int)* @dbl, int (int)** %p
  %fp = load int (int)** %p
  %v = call int %fp(int 21)
  ret int %v
}"),
            42
        );
    }

    #[test]
    fn invoke_unwind_catches() {
        assert_eq!(
            run("
define void @thrower(int %x) {
e:
  %c = setgt int %x, 5
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  invoke void @thrower(int 10) to label %fine unwind label %handler
fine:
  ret int 0
handler:
  ret int 99
}"),
            99
        );
    }

    #[test]
    fn unwind_skips_plain_call_frames() {
        // main -invoke-> mid -call-> thrower: the unwind pops through mid.
        assert_eq!(
            run("
define void @thrower() {
e:
  unwind
}
define void @mid() {
e:
  call void @thrower()
  ret void
}
define int @main() {
e:
  invoke void @mid() to label %fine unwind label %handler
fine:
  ret int 1
handler:
  ret int 2
}"),
            2
        );
    }

    #[test]
    fn uncaught_unwind_traps() {
        match run_err("define int @main() {\ne:\n  unwind\n}") {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::UncaughtUnwind),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn div_by_zero_and_null_trap() {
        match run_err("define int @main() {\ne:\n  %x = div int 1, 0\n  ret int %x\n}") {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::DivByZero),
            other => panic!("{other:?}"),
        }
        match run_err("define int @main() {\ne:\n  %v = load int* null\n  ret int %v\n}") {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::NullAccess),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn globals_and_io() {
        let (r, out) = run_opts(
            "
@counter = global int 0
@msg = constant [3 x sbyte] c\"hi\\00\"
declare int @puts(sbyte*)
declare void @print_int(int)
define int @main() {
e:
  %p = getelementptr [3 x sbyte]* @msg, long 0, long 0
  %r = call int @puts(sbyte* %p)
  store int 41, int* @counter
  %v = load int* @counter
  %v2 = add int %v, 1
  call void @print_int(int %v2)
  ret int %v2
}",
            VmOptions::default(),
        );
        assert_eq!(r, 42);
        assert_eq!(out, "hi\n42\n");
    }

    #[test]
    fn scripted_input_and_exit() {
        let mut opts = VmOptions::default();
        opts.input.push_back(7);
        let (r, _) = run_opts(
            "
declare int @read_int()
declare void @exit(int)
define int @main() {
e:
  %v = call int @read_int()
  %c = seteq int %v, 7
  br bool %c, label %good, label %bad
good:
  call void @exit(int 3)
  unreachable
bad:
  ret int 1
}",
            opts,
        );
        assert_eq!(r, 3);
    }

    #[test]
    fn varargs_and_vaarg() {
        assert_eq!(
            run("
define int @sum2(int %n, ...) {
e:
  %a = vaarg int
  %b = vaarg int
  %s = add int %a, %b
  ret int %s
}
define int @main() {
e:
  %v = call int @sum2(int 2, int 40, int 2)
  ret int %v
}"),
            42
        );
    }

    #[test]
    fn fuel_limits_runaway() {
        let m = lpat_asm::parse_module(
            "t",
            "define int @main() {\ne:\n  br label %l\nl:\n  br label %l\n}",
        )
        .unwrap();
        let opts = VmOptions {
            fuel: Some(1000),
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).unwrap();
        match vm.run_main().unwrap_err() {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::OutOfFuel),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsigned_semantics() {
        assert_eq!(
            run("
define int @main() {
e:
  %x = cast int -1 to uint
  %y = div uint %x, 2
  %big = setgt uint %y, 1000000000
  %r = cast bool %big to int
  ret int %r
}"),
            1
        );
    }

    #[test]
    fn profiling_counts_loop_blocks() {
        let m = lpat_asm::parse_module(
            "t",
            "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, 100
  br bool %c, label %b, label %x
b:
  %i2 = add int %i, 1
  br label %h
x:
  ret int %i
}",
        )
        .unwrap();
        let opts = VmOptions {
            profile: true,
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).unwrap();
        assert_eq!(vm.run_main().unwrap(), 100);
        let main = m.func_by_name("main").unwrap();
        let h = lpat_core::BlockId::from_index(1);
        let b = lpat_core::BlockId::from_index(2);
        assert_eq!(vm.profile.block_count(main, h), 101);
        assert_eq!(vm.profile.block_count(main, b), 100);
        assert_eq!(vm.profile.edge_count(main, b, h), 100);
        let hot = vm.profile.hot_loops(&m, 50);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].header, h);
        let (trace, coverage) = form_trace(&m, &vm.profile, &hot[0]);
        assert_eq!(trace, vec![h, b]);
        assert!(coverage > 0.99);
    }

    #[test]
    fn pgo_inlines_hot_site_and_preserves_behavior() {
        let src = "
define int @helper(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %s = phi int [ 0, %e ], [ %s2, %h ]
  %v = call int @helper(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  %c = setlt int %i2, 200
  br bool %c, label %h, label %x
x:
  ret int %s2
}";
        let mut m: Module = lpat_asm::parse_module("t", src).unwrap();
        let opts = VmOptions {
            profile: true,
            ..VmOptions::default()
        };
        let (before, profile) = {
            let mut vm = Vm::new(&m, opts.clone()).unwrap();
            let r = vm.run_main().unwrap();
            (r, vm.profile.clone())
        };
        let report = reoptimize(&mut m, &profile, &PgoOptions::default());
        assert!(report.inlined >= 1, "{report:?}");
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm.run_main().unwrap(), before);
        assert!(!m.display().contains("call int @helper"));
    }

    #[test]
    fn pgo_layout_puts_hot_successor_next() {
        let src = "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i3, %latch ]
  %c = setlt int %i, 100
  br bool %c, label %cold_check, label %x
cold_check:
  %odd = rem int %i, 2
  %is0 = seteq int %odd, 0
  br bool %is0, label %hot, label %cold
hot:
  %i1 = add int %i, 1
  br label %latch
cold:
  %i2 = add int %i, 1
  br label %latch
latch:
  %i3 = phi int [ %i1, %hot ], [ %i2, %cold ]
  br label %h
x:
  ret int %i
}";
        let mut m: Module = lpat_asm::parse_module("t", src).unwrap();
        let opts = VmOptions {
            profile: true,
            ..VmOptions::default()
        };
        let profile = {
            let mut vm = Vm::new(&m, opts).unwrap();
            vm.run_main().unwrap();
            vm.profile.clone()
        };
        let relaid = pgo::layout_by_profile(&mut m, &profile);
        assert_eq!(relaid, 1);
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        // Behavior preserved.
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm.run_main().unwrap(), 100);
    }
}

#[cfg(test)]
mod trap_tests {
    use super::*;

    #[test]
    fn stack_overflow_traps_cleanly() {
        let m = lpat_asm::parse_module(
            "t",
            "
define int @inf(int %n) {
e:
  %r = call int @inf(int %n)
  ret int %r
}
define int @main() {
e:
  %v = call int @inf(int 0)
  ret int %v
}",
        )
        .unwrap();
        let opts = VmOptions {
            max_stack: 64,
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).unwrap();
        match vm.run_main().unwrap_err() {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::StackOverflow),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_free_traps() {
        let m = lpat_asm::parse_module(
            "t",
            "
define int @main() {
e:
  %p = malloc int
  free int* %p
  free int* %p
  ret int 0
}",
        )
        .unwrap();
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        match vm.run_main().unwrap_err() {
            ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::BadFree),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn global_initializers_materialize_pointers() {
        // A global struct holding a pointer to another global and a
        // function pointer: both must resolve through memory.
        let m = lpat_asm::parse_module(
            "t",
            "
@target = global int 42
define int @getter() {
e:
  ret int 7
}
%holder = type { int*, int ()* }
@h = global %holder { int* @target, int ()* @getter }
define int @main() {
e:
  %pp = getelementptr %holder* @h, long 0, ubyte 0
  %p = load int** %pp
  %v = load int* %p
  %fp0 = getelementptr %holder* @h, long 0, ubyte 1
  %fp = load int ()** %fp0
  %w = call int %fp()
  %s = add int %v, %w
  ret int %s
}",
        )
        .unwrap();
        m.verify().unwrap();
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm.run_main().unwrap(), 49);
        // And identically under the JIT.
        let mut vm2 = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm2.run_main_jit().unwrap(), 49);
    }
}
