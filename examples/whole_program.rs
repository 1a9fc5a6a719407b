//! Uniform whole-program compilation (paper capability #5): separate
//! translation units are compiled to the representation, linked, and then
//! optimized *as one program* — internalization unlocks DGE/DAE/IPCP/
//! inlining across what used to be module boundaries, including the
//! "library" code.
//!
//! ```text
//! cargo run --example whole_program
//! ```

use lpat::transform::pm::PassManager;
use lpat::vm::{Vm, VmOptions};

/// "libmath.c" — a library with more API surface than this app uses.
const LIB_MATH: &str = "
int gcd(int a, int b) {
    while (b != 0) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}
int lcm(int a, int b) { return a / gcd(a, b) * b; }
int ipow(int base, int n) {
    int acc = 1;
    for (int i = 0; i < n; i = i + 1) acc = acc * base;
    return acc;
}
int unused_entry(int x, int flags) { return ipow(x, 3) + flags; }
";

/// "libfmt.c" — output helpers over the runtime's print_int.
const LIB_FMT: &str = "
extern void print_int(int v);
int fmt_calls = 0;
void emit(int label, int v) {
    fmt_calls = fmt_calls + 1;
    print_int(label * 1000000 + v);
}
void emit_pair(int a, int b) { emit(1, a); emit(2, b); }
void never_used(int x) { emit(9, x); }
";

/// "main.c" — the application.
const APP: &str = "
extern int gcd(int a, int b);
extern int lcm(int a, int b);
extern void emit_pair(int a, int b);
int main() {
    int g = gcd(462, 1071);
    int l = lcm(6, 14);
    emit_pair(g, l);
    return g + l;
}
";

fn main() {
    // Compile each translation unit separately (separate compilation is
    // preserved: nothing whole-program happens yet).
    let units: Vec<lpat::core::Module> = [("libmath", LIB_MATH), ("libfmt", LIB_FMT), ("app", APP)]
        .into_iter()
        .map(|(n, s)| {
            let mut m = lpat::minic::compile(n, s).unwrap();
            lpat::transform::function_pipeline().run(&mut m);
            m
        })
        .collect();
    for u in &units {
        println!(
            "unit {:<8} {:3} functions, {:4} instructions",
            u.name,
            u.num_funcs(),
            u.total_insts()
        );
    }

    // Link: declarations bind to definitions, types unify.
    let mut linked = lpat::linker::link(units, "program").unwrap();
    linked.verify().unwrap();
    println!(
        "\nlinked    {:3} functions, {:4} instructions",
        linked.num_funcs(),
        linked.total_insts()
    );
    let baseline = {
        let mut vm = Vm::new(&linked, VmOptions::default()).unwrap();
        (vm.run_main().unwrap(), vm.output.clone())
    };

    // Whole-program interprocedural optimization, pass by pass, with the
    // paper's Table 2 trio reported individually.
    let mut pm = PassManager::new();
    pm.verify_each = true;
    pm.add(lpat::transform::ipo::Internalize::default());
    pm.add(lpat::transform::ipo::Ipcp::default());
    pm.add(lpat::transform::ipo::Dae::default());
    pm.add(lpat::transform::ipo::Dge::default());
    pm.add(lpat::transform::inline::Inline::default());
    pm.add(lpat::transform::prune_eh::PruneEh::default());
    pm.add(lpat::transform::scalar_stage("cleanup"));
    pm.add(lpat::transform::ipo::Dge::default());
    println!();
    print!("{}", pm.run(&mut linked).render());
    println!(
        "\noptimized {:3} functions, {:4} instructions",
        linked.num_funcs(),
        linked.total_insts()
    );
    assert!(
        linked.func_by_name("unused_entry").is_none(),
        "dead library API removed"
    );
    assert!(
        linked.func_by_name("never_used").is_none(),
        "dead helper removed"
    );

    // Same behavior, smaller program.
    let after = {
        let mut vm = Vm::new(&linked, VmOptions::default()).unwrap();
        (vm.run_main().unwrap(), vm.output.clone())
    };
    assert_eq!(baseline, after);
    println!("\noutput (unchanged):\n{}", after.1.trim());
    println!("exit value: {}", after.0);

    // The compacted module also serializes smaller.
    let compacted = lpat::linker::compact(&linked);
    let bytes = lpat::bytecode::write_module(&compacted);
    println!("\nfinal bytecode: {} bytes", bytes.len());

    // And a pass manager run is the "offline reoptimizer" shape: the same
    // machinery can rerun at install time or idle time from the bytecode.
    let re = lpat::bytecode::read_module("program", &bytes).unwrap();
    assert_eq!(re.display(), compacted.display());
}
