//! # lpat-minic — the miniC front-end
//!
//! A C-like source language and front-end standing in for the paper's
//! C/C++ front-ends (§3.2). miniC has structs, pointers, arrays, function
//! pointers (`fn<ret(args)>`), allocation sugar (`new`/`delete` →
//! `malloc`/`free`), and structured exception handling (`try`/`catch`/
//! `throw`) lowered onto the `invoke`/`unwind` primitives (§2.4).
//!
//! miniC builds SSA itself (Braun et al., CC 2013): a scalar local whose
//! address is never taken never becomes an `alloca`. Aggregates and
//! address-taken locals stay `alloca`s, for the optimizer's
//! scalar-expansion and stack-promotion passes, which also serve textual IR
//! input and inlined callees. [`compile_in_memory`] keeps every local in
//! memory, the form §3.2 lets a front end hand over.
//!
//! # Examples
//!
//! ```
//! let m = lpat_minic::compile("demo", "
//! int fib(int n) {
//!     if (n < 2) return n;
//!     return fib(n - 1) + fib(n - 2);
//! }
//! int main() { return fib(10); }
//! ").unwrap();
//! m.verify().unwrap();
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod irgen;
pub mod lexer;
pub mod parser;

use lpat_core::Module;

/// A front-end failure: parse or semantic error with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line.
    pub line: u32,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compile miniC source text into a module.
///
/// # Errors
///
/// Returns the first parse or semantic error.
pub fn compile(name: &str, src: &str) -> Result<Module, CompileError> {
    lower(name, src, irgen::irgen)
}

/// Compile miniC source text with every local, parameters included, in an
/// entry-block `alloca`, read by `load` and written by `store`; only
/// `mem2reg` puts the module in SSA form. This is the reference
/// [`compile`]'s SSA construction is tested against, and the input of the
/// "skip SSA construction" ablation of Table 1.
///
/// # Errors
///
/// Returns the first parse or semantic error.
pub fn compile_in_memory(name: &str, src: &str) -> Result<Module, CompileError> {
    lower(name, src, irgen::irgen_in_memory)
}

fn lower(
    name: &str,
    src: &str,
    irgen: fn(&str, &ast::Program) -> Result<Module, irgen::SemError>,
) -> Result<Module, CompileError> {
    let prog = parser::parse(src).map_err(|e| CompileError {
        line: e.line,
        message: e.message,
    })?;
    irgen(name, &prog).map_err(|e| CompileError {
        line: e.line,
        message: e.message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_vm::{Vm, VmOptions};

    fn run(src: &str) -> i64 {
        run_io(src, &[]).0
    }

    fn run_io(src: &str, input: &[i64]) -> (i64, String) {
        let m = compile("t", src).unwrap_or_else(|e| panic!("compile: {e}"));
        m.verify()
            .unwrap_or_else(|e| panic!("verify: {e:?}\n{}", m.display()));
        let opts = VmOptions {
            input: input.iter().copied().collect(),
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).unwrap();
        let r = vm
            .run_main()
            .unwrap_or_else(|e| panic!("run: {e}\n{}", m.display()));
        (r, vm.output.clone())
    }

    #[test]
    fn arithmetic_and_locals() {
        assert_eq!(
            run("int main() { int x = 6; int y = 7; return x * y; }"),
            42
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            run("
int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) s = s + i;
    }
    while (s > 20) s = s - 1;
    return s;
}"),
            20
        );
    }

    #[test]
    fn recursion_and_calls() {
        assert_eq!(
            run("
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }"),
            144
        );
    }

    #[test]
    fn structs_pointers_new_delete() {
        assert_eq!(
            run("
struct point { int x; int y; };
int main() {
    struct point* p = new struct point;
    p->x = 40;
    p->y = 2;
    int s = p->x + p->y;
    delete p;
    return s;
}"),
            42
        );
    }

    #[test]
    fn linked_list() {
        assert_eq!(
            run("
struct node { int value; struct node* next; };
struct node* push(struct node* head, int v) {
    struct node* n = new struct node;
    n->value = v;
    n->next = head;
    return n;
}
int sum(struct node* head) {
    int s = 0;
    while (head != null) {
        s = s + head->value;
        head = head->next;
    }
    return s;
}
int main() {
    struct node* l = null;
    for (int i = 1; i <= 10; i = i + 1) l = push(l, i);
    return sum(l);
}"),
            55
        );
    }

    #[test]
    fn arrays_and_pointer_arithmetic() {
        assert_eq!(
            run("
int main() {
    int a[8];
    for (int i = 0; i < 8; i = i + 1) a[i] = i * i;
    int* p = &a[0];
    int s = *(p + 3) + a[4];
    return s;
}"),
            25
        );
    }

    #[test]
    fn function_pointers() {
        assert_eq!(
            run("
int dbl(int x) { return x * 2; }
int inc(int x) { return x + 1; }
int apply(fn<int(int)> f, int x) { return f(x); }
int main() {
    fn<int(int)> ops[2];
    ops[0] = dbl;
    ops[1] = inc;
    return apply(ops[0], 20) + apply(ops[1], 1);
}"),
            42
        );
    }

    #[test]
    fn short_circuit_and_ternary() {
        assert_eq!(
            run("
int boom() { return 1 / 0; }
int main() {
    int x = 5;
    bool safe = x == 0 && boom() == 1;
    int v = safe ? 1 : (x > 3 || boom() == 2) ? 42 : 0;
    return v;
}"),
            42
        );
    }

    #[test]
    fn try_catch_local_throw() {
        assert_eq!(
            run("
int main() {
    int v = 0;
    try {
        v = 1;
        throw;
    } catch {
        v = v + 41;
    }
    return v;
}"),
            42
        );
    }

    #[test]
    fn try_catch_across_calls() {
        assert_eq!(
            run("
void may_throw(int x) {
    if (x > 3) throw;
}
int main() {
    int caught = 0;
    try {
        may_throw(1);
        may_throw(10);
        return 0;
    } catch {
        caught = 1;
    }
    return caught * 42;
}"),
            42
        );
    }

    #[test]
    fn casts_and_custom_allocator_idiom() {
        // The SPEC-parser-style pool allocator: carve typed objects out of
        // a byte array.
        assert_eq!(
            run("
char* pool;
int used;
char* pool_alloc(int size) {
    char* p = pool + used;
    used = used + ((size + 7) / 8) * 8;
    return p;
}
struct pair { int a; int b; };
int main() {
    pool = new char[4096];
    used = 0;
    struct pair* p = (struct pair*)pool_alloc(sizeof(struct pair));
    p->a = 2;
    p->b = 40;
    return p->a + p->b;
}"),
            42
        );
    }

    #[test]
    fn globals_strings_io() {
        let (r, out) = run_io(
            "
extern int puts(char* s);
extern void print_int(int v);
extern int read_int();
int counter = 3;
int main() {
    puts(\"hello\");
    int v = read_int();
    print_int(v + counter);
    return 0;
}",
            &[39],
        );
        assert_eq!(r, 0);
        assert_eq!(out, "hello\n42\n");
    }

    #[test]
    fn doubles_and_conversions() {
        assert_eq!(
            run("
int main() {
    double x = 2.5;
    double y = x * 4.0 + 1;
    int i = (int)y;
    return i * 2 - (int)1.9;
}"),
            21
        );
    }

    #[test]
    fn optimizer_pipeline_runs_clean_on_minic_output() {
        let m = compile(
            "t",
            "
static int square(int x) { return x * x; }
int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) s = s + square(i);
    return s;
}",
        )
        .unwrap();
        m.verify().unwrap();
        let mut m = m;
        let mut pm = lpat_transform::function_pipeline();
        pm.verify_each = true;
        pm.run(&mut m);
        let mut pm = lpat_transform::link_time_pipeline();
        pm.verify_each = true;
        pm.run(&mut m);
        // Allocas promoted and square inlined.
        let text = m.display();
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("call"), "{text}");
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm.run_main().unwrap(), 285);
    }

    #[test]
    fn only_aggregates_and_address_taken_locals_get_an_alloca_in_the_entry_block() {
        let src = "
struct pair { int a; int b; };
int sum(int *p) { return *p; }
int f(int n, int k) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        int x = i + k;
        struct pair q;
        q.a = sum(&x);
        q.b = i;
        s = s + q.a + q.b;
    }
    return s;
}
int bump(int n) { int *p = &n; *p = *p + 1; return n; }
int main() { return f(4, 1) + bump(1) - 2; }";
        for (lowering, m) in [
            ("ssa", compile("t", src).unwrap()),
            ("in memory", compile_in_memory("t", src).unwrap()),
        ] {
            m.verify().unwrap();
            let fid = m.func_by_name("f").unwrap();
            let f = m.func(fid);
            let allocas: Vec<_> = f
                .block_ids()
                .flat_map(|b| f.block_insts(b).iter().map(move |&i| (b, i)))
                .filter(|&(_, i)| matches!(f.inst(i), lpat_core::Inst::Alloca { .. }))
                .collect();
            // `x` and `q`; in memory also `n`, `k`, `s` and `i`.
            let want = if lowering == "ssa" { 2 } else { 6 };
            assert_eq!(allocas.len(), want, "{lowering}\n{}", m.display());
            assert!(
                allocas.iter().all(|&(b, _)| b == f.entry()),
                "{lowering}\n{}",
                m.display()
            );
            // An address-taken parameter is stored to a slot on entry.
            let bump = m.func(m.func_by_name("bump").unwrap());
            let entry = bump.block_insts(bump.entry());
            let slot = entry.iter().find_map(|&i| match bump.inst(i) {
                lpat_core::Inst::Store {
                    val: lpat_core::Value::Arg(0),
                    ptr: lpat_core::Value::Inst(p),
                } => Some(*p),
                _ => None,
            });
            assert!(
                slot.is_some_and(|p| matches!(bump.inst(p), lpat_core::Inst::Alloca { .. })),
                "{lowering}\n{}",
                m.display()
            );
            let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
            assert_eq!(vm.run_main().unwrap(), 16, "{lowering}");
        }
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = compile("t", "int main() {\n  return nope;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nope"));
        let e = compile("t", "int main() {\n  int* p = 5;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn break_continue() {
        assert_eq!(
            run("
int main() {
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) {
        if (i % 2 == 1) continue;
        if (i >= 10) break;
        s = s + i;
    }
    return s;
}"),
            20
        );
    }
}

#[cfg(test)]
mod negative_tests {
    use super::compile;

    #[test]
    fn arity_mismatch() {
        let e = compile(
            "t",
            "int f(int a) { return a; }\nint main() { return f(1, 2); }",
        )
        .unwrap_err();
        assert!(e.message.contains("argument"), "{e}");
    }

    #[test]
    fn unknown_struct_field() {
        let e = compile(
            "t",
            "struct p { int x; };\nint main() { struct p v; v.x = 1; return v.y; }",
        )
        .unwrap_err();
        assert!(e.message.contains("no field 'y'"), "{e}");
    }

    #[test]
    fn break_outside_loop() {
        let e = compile("t", "int main() { break; }").unwrap_err();
        assert!(e.message.contains("break"), "{e}");
    }

    #[test]
    fn implicit_pointer_conversion_rejected() {
        let e = compile("t", "int main() { int x = 0; char* p = &x; return 0; }").unwrap_err();
        assert!(e.message.contains("cast"), "{e}");
    }

    #[test]
    fn struct_value_in_scalar_context() {
        let e = compile(
            "t",
            "struct p { int x; };\nint main() { struct p v; return v; }",
        )
        .unwrap_err();
        assert!(e.message.contains("struct value"), "{e}");
    }

    #[test]
    fn call_of_non_function() {
        let e = compile("t", "int main() { int x = 3; return x(1); }").unwrap_err();
        assert!(e.message.contains("non-function"), "{e}");
    }

    #[test]
    fn explicit_pointer_casts_allowed() {
        // The rejection above must not block the C idiom with a cast.
        let m = compile(
            "t",
            "int main() { int x = 65; char* p = (char*)&x; return (int)*p; }",
        )
        .unwrap();
        m.verify().unwrap();
    }

    #[test]
    fn undefined_function_call() {
        let e = compile("t", "int main() { return mystery(); }").unwrap_err();
        assert!(e.message.contains("mystery"), "{e}");
    }
}

#[cfg(test)]
mod regression_tests {
    use super::compile;
    use lpat_vm::{Vm, VmOptions};

    #[test]
    fn index_base_side_effects_evaluate_once() {
        // Regression: the lvalue trial for `m[i = i + 1][0]` used to
        // evaluate the inner assignment twice.
        let m = compile(
            "t",
            "
int main() {
    int row0[2];
    int row1[2];
    int* m[2];
    m[0] = &row0[0];
    m[1] = &row1[0];
    row1[0] = 42;
    int i = 0;
    int v = m[i = i + 1][0];
    return v + i * 100;   // expect 42 + 100, not i == 2
}",
        )
        .unwrap();
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        assert_eq!(vm.run_main().unwrap(), 142);
    }
}
