//! Lifelong optimization: runtime profiling, hot-region/trace detection,
//! and offline profile-guided reoptimization (paper §3.5–§3.6).
//!
//! The program is compiled and shipped with its bytecode; end-user runs
//! collect block/edge/call profiles; during idle time the reoptimizer
//! inlines the hot call sites and re-lays blocks so hot paths fall
//! through.
//!
//! ```text
//! cargo run --example profile_reopt
//! ```

use lpat::vm::{form_trace, reoptimize, PgoOptions, Vm, VmOptions};

const SRC: &str = "
extern void print_int(int v);

static int classify(int v) {
    if (v % 97 == 0) return 3;      // cold
    if (v % 7 == 0) return 2;       // lukewarm
    return 1;                       // hot
}

static int score(int kind, int v) {
    if (kind == 3) return v * 31;
    if (kind == 2) return v * 5;
    return v + 1;
}

int main() {
    int total = 0;
    for (int i = 0; i < 5000; i = i + 1) {
        int kind = classify(i);
        total = total + score(kind, i);
        total = total % 1000003;
    }
    print_int(total);
    return total % 256;
}";

fn main() {
    // Compile-time: front-end + per-module optimization; the bytecode is
    // what ships alongside the native code.
    let mut built = lpat::minic::compile("app", SRC).unwrap();
    lpat::transform::function_pipeline().run(&mut built);
    let shipped = lpat::bytecode::write_module(&built);
    println!("shipped bytecode: {} bytes\n", shipped.len());

    // The end-user's runtime loads the shipped representation; the profile
    // it collects refers to *this* copy of the program.
    let m = lpat::bytecode::read_module("app", &shipped).unwrap();

    // Runtime: the end-user runs the program; lightweight instrumentation
    // collects the profile (paper §3.5).
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(&m, opts).unwrap();
    let before = vm.run_main().unwrap();
    let before_insts = vm.insts_executed;
    let profile = vm.profile.clone();
    println!("first run: result={before}, {before_insts} instructions interpreted");

    // Hot-region detection + trace formation.
    let hot = profile.hot_loops(&m, 1000);
    println!("\nhot loop regions (threshold 1000):");
    for h in &hot {
        let f = m.func(h.func);
        let (trace, coverage) = form_trace(&m, &profile, h);
        println!(
            "  @{}: header bb{} ran {} times; hot trace {:?} covers {:.0}% of loop execution",
            f.name(),
            h.header.index(),
            h.header_count,
            trace.iter().map(|b| b.index()).collect::<Vec<_>>(),
            coverage * 100.0
        );
    }
    println!("\nhot call sites:");
    for (caller, site, count) in profile.hot_callsites(1000) {
        println!(
            "  in @{} at %t{}: executed {count} times",
            m.func(caller).name(),
            site.index()
        );
    }

    // Idle-time: offline reoptimization with the end-user profile
    // (paper §3.6), applied to the loaded representation the profile
    // refers to.
    let mut re = m;
    let report = reoptimize(&mut re, &profile, &PgoOptions::default());
    lpat::transform::function_pipeline().run(&mut re);
    re.verify().unwrap();
    println!(
        "\nreoptimizer: inlined {} hot call sites, re-laid {} functions",
        report.inlined, report.relaid
    );

    // Next run uses the reoptimized code.
    let mut vm = Vm::new(&re, VmOptions::default()).unwrap();
    let after = vm.run_main().unwrap();
    let after_insts = vm.insts_executed;
    assert_eq!(before, after, "reoptimization must preserve behavior");
    println!(
        "second run: result={after}, {after_insts} instructions interpreted \
         ({:.1}% of the first run)",
        after_insts as f64 * 100.0 / before_insts as f64
    );
    assert!(
        after_insts < before_insts,
        "hot-site inlining should remove call overhead"
    );
}
