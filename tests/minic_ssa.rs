//! miniC builds SSA itself. A scalar local whose address is never taken
//! never becomes an `alloca`, so `mem2reg` finds nothing to promote in the
//! front end's output. The `alloca`s it still emits, for aggregates and
//! address-taken scalars, sit in the entry block: a loop that declares one
//! does not grow the frame on every iteration.

use lpat::core::Module;
use lpat::vm::{Vm, VmOptions};

#[test]
fn mem2reg_finds_nothing_to_promote_in_minic_output() {
    for scale in [0, 60] {
        for (name, mut m) in lpat::workloads::compile_suite(scale) {
            let defined: Vec<_> = m
                .funcs()
                .filter(|(_, f)| !f.is_declaration())
                .map(|(fid, _)| fid)
                .collect();
            for fid in defined {
                let (promoted, _) = lpat::transform::mem2reg::promote_function(&mut m, fid);
                let func = m.func(fid).name().to_string();
                assert_eq!(promoted, 0, "{name} at scale {scale}: @{func}");
            }
        }
    }
}

/// A loop whose body declares an address-taken `int` and a `struct`.
fn loop_with_locals(n: u32) -> Module {
    let src = format!(
        "
extern void print_int(int v);
struct pair {{ int a; int b; }};
int main() {{
    int s = 0;
    for (int i = 0; i < {n}; i = i + 1) {{
        int x = i & 7;
        int *p = &x;
        struct pair q;
        q.a = *p;
        q.b = i & 1;
        s = s + q.a + q.b;
    }}
    print_int(s);
    return 0;
}}"
    );
    let m = lpat::minic::compile("loop", &src).expect("compiles");
    m.verify().expect("verifies");
    m
}

/// Peak heap bytes of one run, on the interpreter or the tiered ladder.
fn peak_heap_bytes(m: &Module, tiered: bool) -> u64 {
    let mut vm = Vm::new(m, VmOptions::default()).expect("vm init");
    let r = if tiered {
        vm.run_main_tiered()
    } else {
        vm.run_main()
    };
    assert_eq!(r.expect("runs"), 0);
    vm.mem.stats().peak_bytes
}

#[test]
fn a_local_declared_in_a_loop_does_not_grow_the_frame() {
    let (short, long) = (loop_with_locals(1_000), loop_with_locals(100_000));
    for tiered in [false, true] {
        assert_eq!(
            peak_heap_bytes(&short, tiered),
            peak_heap_bytes(&long, tiered),
            "tiered: {tiered}"
        );
    }
}

/// `N` sequential `if (x < k) v = k;`, then one read of `v`, which looks
/// its value up back through all `N` joins.
#[test]
fn a_read_through_twenty_thousand_joins_compiles_on_a_test_thread() {
    let n = 20_000;
    let mut src = String::from("int f(int x) {\n    int v = 0;\n");
    for k in 1..=n {
        src += &format!("    if (x < {k}) v = {k};\n");
    }
    src += "    return v;\n}\nint main() { return f(19999) % 256; }\n";
    let m = lpat::minic::compile("joins", &src).expect("compiles");
    m.verify().expect("verifies");
    let mut vm = Vm::new(&m, VmOptions::default()).expect("vm init");
    assert_eq!(vm.run_main().expect("runs"), 20_000 % 256);
}
