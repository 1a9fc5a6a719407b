//! Integration tests spanning every crate: the full lifelong-compilation
//! lifecycle of paper §3 — front-end, per-module optimization, linking,
//! link-time IPO, serialization, execution, profiling, and offline
//! reoptimization — with behavior checked at every stage.

use lpat::transform::pm::{ModulePass, PassContext};
use lpat::vm::{Vm, VmOptions};

fn run(m: &lpat::core::Module) -> (i64, String) {
    let mut vm = Vm::new(m, VmOptions::default()).unwrap();
    let r = vm
        .run_main()
        .unwrap_or_else(|e| panic!("{e}\n{}", m.display()));
    (r, vm.output.clone())
}

#[test]
fn separate_compilation_then_link_then_ipo() {
    let lib = lpat::minic::compile(
        "lib",
        "
int helper(int x) { return x * 3; }
int unused_api(int x) { return x - 1; }
",
    )
    .unwrap();
    let app = lpat::minic::compile(
        "app",
        "
extern int helper(int x);
int main() { return helper(14); }
",
    )
    .unwrap();
    let mut m = lpat::linker::link(vec![lib, app], "prog").unwrap();
    m.verify().unwrap();
    assert_eq!(run(&m).0, 42);

    let mut pm = lpat::transform::link_time_pipeline();
    pm.verify_each = true;
    pm.run(&mut m);
    assert_eq!(run(&m).0, 42);
    assert!(m.func_by_name("unused_api").is_none(), "{}", m.display());
    // helper inlined and removed; main folds to a constant return.
    assert!(m.func_by_name("helper").is_none(), "{}", m.display());
    assert!(m.display().contains("ret int 42"), "{}", m.display());
}

#[test]
fn all_three_forms_agree_across_the_pipeline() {
    for (name, mut m) in lpat::workloads::compile_suite(1) {
        lpat::transform::function_pipeline().run(&mut m);
        // Transforms leave sparse instruction ids; one trip through the
        // parser (or the bytecode) renumbers densely in block order —
        // that display is the canonical form all three must agree on.
        let canon = lpat::asm::parse_module(name, &m.display())
            .unwrap()
            .display();
        let from_text = lpat::asm::parse_module(name, &canon).unwrap();
        assert_eq!(canon, from_text.display(), "{name}: text round trip");
        let bytes = lpat::bytecode::write_module(&m);
        let from_bin = lpat::bytecode::read_module(name, &bytes).unwrap();
        assert_eq!(canon, from_bin.display(), "{name}: binary round trip");
        from_bin.verify().unwrap();
        // The decoded module still runs identically.
        assert_eq!(run(&m), run(&from_bin), "{name}");
    }
}

#[test]
fn full_lifecycle_on_a_real_program() {
    // Stage 1: compile-time.
    let w = &lpat::workloads::suite(3)[5]; // 181.mcf-like
    let mut m = lpat::minic::compile(w.name, &w.source).unwrap();
    let baseline = run(&m);
    lpat::transform::function_pipeline().run(&mut m);
    assert_eq!(run(&m), baseline, "per-module optimization");

    // Stage 2: link-time.
    let mut pm = lpat::transform::link_time_pipeline();
    pm.verify_each = true;
    pm.run(&mut m);
    assert_eq!(run(&m), baseline, "link-time IPO");

    // Stage 3: offline codegen + shipped bytecode.
    let cisc = lpat::codegen::compile_module(&m, &lpat::codegen::Cisc32);
    let risc = lpat::codegen::compile_module(&m, &lpat::codegen::Risc32);
    assert!(cisc.code_size > 0 && risc.code_size >= cisc.code_size);
    let shipped = lpat::bytecode::write_module(&m);

    // Stage 4: runtime profiling on the shipped representation.
    let loaded = lpat::bytecode::read_module(w.name, &shipped).unwrap();
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(&loaded, opts).unwrap();
    let r = vm.run_main().unwrap();
    assert_eq!((r, vm.output.clone()), baseline, "shipped representation");
    let profile = vm.profile.clone();
    assert!(!profile.block_counts.is_empty());

    // Stage 5: idle-time reoptimization.
    let mut re = loaded;
    lpat::vm::reoptimize(&mut re, &profile, &lpat::vm::PgoOptions::default());
    re.verify().unwrap();
    assert_eq!(run(&re), baseline, "profile-guided reoptimization");
}

#[test]
fn dsa_typed_access_on_pool_allocator_program() {
    let w = &lpat::workloads::suite(0)[9]; // 197.parser-like (pool allocator)
    let mut m = lpat::minic::compile(w.name, &w.source).unwrap();
    lpat::transform::function_pipeline().run(&mut m);
    let cg = lpat::analysis::CallGraph::build(&m);
    let dsa = lpat::analysis::Dsa::analyze(&m, &cg, &lpat::analysis::DsaOptions::default());
    // The typed-access profile is the custom-allocator one.
    let pct = dsa.access_stats().percent();
    assert!(pct < 70.0, "pool allocator program at {pct}%");
}

#[test]
fn internalize_is_required_for_aggressive_ipo() {
    // Without internalization, externally visible functions can't be
    // removed; with it, they can. (The capability-#5 story: linking the
    // *whole* program is what unlocks the optimization.)
    let src = "
int helper(int x) { return x + 1; }
int main() { return 41 + helper(0); }
";
    let m0 = lpat::minic::compile("t", src).unwrap();

    let mut without = m0.clone();
    lpat::transform::ipo::run_dge(&mut without);
    assert!(without.func_by_name("helper").is_some());

    let mut with = m0.clone();
    lpat::transform::ipo::Internalize::default().run(&mut with, &mut PassContext::default());
    let mut inliner = lpat::transform::inline::Inline::default();
    inliner.run(&mut with, &mut PassContext::default());
    lpat::transform::ipo::run_dge(&mut with);
    assert!(with.func_by_name("helper").is_none());
    assert_eq!(run(&with).0, 42);
}

#[test]
fn linker_compact_is_dead_type_elimination() {
    let mut m = lpat::minic::compile(
        "t",
        "struct unused_t { int a; double b; };\nint main() { return 7; }",
    )
    .unwrap();
    // Force extra junk into the tables.
    let junk = m.types.struct_lit(vec![]);
    m.consts.zero(junk);
    let before = m.types.len();
    let c = lpat::linker::compact(&m);
    assert!(c.types.len() < before, "{} < {before}", c.types.len());
    assert_eq!(run(&c).0, 7);
}

#[test]
fn jit_and_interpreter_agree_on_the_whole_suite() {
    // The paper's two execution paths (§3.4: offline codegen vs JIT
    // translation) must be observationally identical; here the reference
    // interpreter and the translating engine run every benchmark.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let mut a = Vm::new(&m, VmOptions::default()).unwrap();
        let ra = a
            .run_main()
            .unwrap_or_else(|e| panic!("{name} interp: {e}"));
        let mut b = Vm::new(&m, VmOptions::default()).unwrap();
        let rb = b
            .run_main_jit()
            .unwrap_or_else(|e| panic!("{name} jit: {e}"));
        assert_eq!(ra, rb, "{name}: exit codes differ");
        assert_eq!(a.output, b.output, "{name}: output differs");
    }
}
