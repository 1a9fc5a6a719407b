//! Memory optimization must not change what a program does. GVN answers a
//! load with a value loaded or stored before it, across blocks, loops and
//! stores the memory oracle calls disjoint; `licm` moves invariant
//! arithmetic out of loops. Each program here is compiled twice — with no
//! optimization, and with `-O` plus the link-time pipeline — and every
//! build, on every engine, must print the same output and end the same
//! way: the same exit code or the same trap kind.
//!
//! The hand-written cases pin the shapes that broke other compilers'
//! memory optimizers: pointer parameters that alias, a struct read
//! through a punned pointer, and a loop that prints before it traps. The
//! generator writes seeded programs that mix all three with calls; run
//! it with `--features slow-tests` for 5 000 seeds instead of 200.
//!
//! The generator also writes the shapes miniC's SSA construction must get
//! right: a local assigned on one arm of an `if`, `break` and `continue`
//! in nested loops, a local changed before a `throw` (direct, or from a
//! callee) and read in the handler, a shadowing declaration, and `&&`,
//! `||` and `?:` over locals. Each seed is also built with every local in
//! memory (`compile_in_memory`), and the two builds must run alike.

use lpat::core::hash::SplitMix64;
use lpat::core::Module;
use lpat::vm::{ExecError, TrapKind, Vm, VmOptions};

/// How one run ended, and what it printed.
type Outcome = (Result<i64, TrapKind>, String);

/// The program unoptimized, and after `-O` plus link-time optimization.
fn builds(src: &str) -> [Module; 2] {
    let o0 = lpat::minic::compile("t", src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    o0.verify().unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    let mut opt = o0.clone();
    lpat::transform::function_pipeline().run(&mut opt);
    lpat::transform::link_time_pipeline().run(&mut opt);
    opt.verify()
        .unwrap_or_else(|e| panic!("{e:?}\n{src}\n{}", opt.display()));
    [o0, opt]
}

/// Run `main` on the interpreter (`native_up` `None`) or on the tiered
/// engine from the first call, with machine code after `native_up` calls.
fn run(m: &Module, tiered: Option<u64>) -> Outcome {
    let opts = VmOptions {
        fuel: Some(50_000_000),
        tier_up: 0,
        native_up: tiered,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).expect("vm init");
    let r = match tiered {
        None => vm.run_main(),
        Some(_) => vm.run_main_tiered(),
    };
    let end = match r {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(kind),
        Err(other) => panic!("unexpected error class: {other}"),
    };
    (end, vm.output.clone())
}

/// Interpreter, tiered engine (never reaching machine code) and machine
/// code from the first call.
const ENGINES: [Option<u64>; 3] = [None, Some(u64::MAX), Some(0)];

/// Every build on every engine ends as the unoptimized interpreter run
/// does; returns that outcome.
fn same_everywhere(src: &str, engines: &[Option<u64>]) -> Outcome {
    let [o0, opt] = builds(src);
    let reference = run(&o0, None);
    assert!(
        !matches!(reference.0, Err(TrapKind::OutOfFuel)),
        "runs out of fuel:\n{src}"
    );
    for (level, m) in [("-O0", &o0), ("-O", &opt)] {
        for &e in engines {
            let got = run(m, e);
            assert_eq!(got, reference, "{level} on {e:?}:\n{src}");
        }
    }
    reference
}

#[test]
fn pointer_parameters_that_alias() {
    let (end, out) = same_everywhere(
        "
extern void print_int(int v);
int g[8];
int h[8];
int sum_through(int *p, int *q, int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + p[0];
        q[0] = s;
        s = s + p[0];
    }
    return s;
}
int main() {
    for (int i = 0; i < 8; i = i + 1) { g[i] = i + 1; h[i] = 0; }
    print_int(sum_through(g, h, 8));
    print_int(sum_through(g, g, 8));
    print_int(sum_through(&g[2], g, 8));
    return g[7] % 256;
}",
        &ENGINES,
    );
    // `q` writes `p[0]` in the second call, so it sums something else.
    let sums: Vec<&str> = out.lines().collect();
    assert_ne!(sums[0], sums[1], "{out}");
    assert!(end.is_ok());
}

#[test]
fn a_struct_read_through_a_punned_pointer() {
    let (end, _) = same_everywhere(
        "
extern void print_int(int v);
struct pair { int code; int value; };
struct triple { int code; int a; int b; };
struct pair cell;
int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) {
        cell.code = i;
        cell.value = i * 3;
        struct triple *t = (struct triple*)&cell;
        s = s + cell.value;
        t->a = s;
        s = s + cell.value;
        char *c = (char*)&cell;
        c[0] = 7;
        s = s + cell.code;
    }
    print_int(s);
    return s % 256;
}",
        &ENGINES,
    );
    assert!(end.is_ok());
}

#[test]
fn a_loop_prints_before_its_invariant_division_traps() {
    let (end, out) = same_everywhere(
        "
extern void print_int(int v);
int zero;
int main() {
    int s = 0;
    int k = zero;
    for (int i = 0; i < 5; i = i + 1) {
        print_int(i);
        s = s + 100 / k;
    }
    return s;
}",
        &ENGINES,
    );
    assert_eq!(out, "0\n");
    assert_eq!(end, Err(TrapKind::DivByZero));
}

/// Seeds the generator runs.
fn seeds() -> u64 {
    if cfg!(feature = "slow-tests") {
        5_000
    } else {
        200
    }
}

#[test]
fn generated_programs_mean_the_same_built_in_memory() {
    let mut caught = 0;
    for seed in 0..seeds() {
        let src = generate(seed);
        let ssa = lpat::minic::compile("t", &src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let memory =
            lpat::minic::compile_in_memory("t", &src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        memory
            .verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{src}\n{}", memory.display()));
        let reference = run(&memory, None);
        assert_eq!(run(&ssa, None), reference, "SSA vs in memory:\n{src}");
        caught += reference.1.contains("-424242") as u32;
    }
    // Some handler ran.
    assert!(caught > 0);
}

#[test]
fn generated_aliasing_loops_mean_the_same_optimized() {
    let (mut traps, mut calls) = (0, 0);
    for seed in 0..seeds() {
        let src = generate(seed);
        calls += src.contains("touch(") as u32;
        // The interpreter and the whole tiered ladder, machine code
        // included.
        let (end, _) = same_everywhere(&src, &[None, Some(0)]);
        traps += end.is_err() as u32;
    }
    // The generator reaches both ends of its range.
    assert!(traps > 0 && calls > 0, "traps {traps}, calls {calls}");
}

/// A seeded miniC program: two or three global arrays and a struct
/// global; pointers `p` and `q` chosen at run time to point into an array
/// or a field of the struct; loops that load and store through them and
/// through the globals, some calling a function that writes through `p`;
/// a byte view and a struct view that pun the globals.
fn generate(seed: u64) -> String {
    let mut g = Gen(SplitMix64(seed));
    let na = 4 + g.below(9);
    let nb = 6 + g.below(7);
    let nc = if g.below(2) == 0 { 0 } else { 4 + g.below(5) };
    let mut s =
        String::from("extern void print_int(int v);\nstruct rec { int a; int b; int c[4]; };\n");
    s += &format!("int A[{na}];\nint B[{nb}];\n");
    if nc > 0 {
        s += &format!("int C[{nc}];\n");
    }
    s += "struct rec R;\nint sel;\n";
    s += "int touch(int *p, int v) { *p = *p + v; return *p + R.a; }\n";
    s += "int risky(int v) { if (v % 5 == 0) throw; return v % 11; }\n";
    s += "int main() {\n";
    s += &format!(
        "    int s = {};\n    int t = {};\n",
        g.below(50),
        g.below(50)
    );
    s += &format!(
        "    for (int i = 0; i < {na}; i = i + 1) {{ A[i] = i * {} + {}; }}\n",
        1 + g.below(9),
        g.below(20)
    );
    s += &format!(
        "    for (int i = 0; i < {nb}; i = i + 1) {{ B[i] = (i + {}) % {}; }}\n",
        g.below(9),
        2 + g.below(6)
    );
    if nc > 0 {
        s += &format!(
            "    for (int i = 0; i < {nc}; i = i + 1) {{ C[i] = {} - i; }}\n",
            g.below(30)
        );
    }
    s += &format!(
        "    R.a = {}; R.b = {};\n    for (int i = 0; i < 4; i = i + 1) {{ R.c[i] = i + {}; }}\n",
        g.below(40),
        g.below(40),
        g.below(40)
    );
    // Chosen at run time: `A` and `B` hold non-negative values.
    s += &format!("    sel = (A[{}] + B[{}]) % 5;\n", g.below(na), g.below(nb));
    for (name, shift) in [("p", 0), ("q", 1 + g.below(4))] {
        // Each target leaves room for `[1]`: within the array, or the
        // struct field after it.
        let at = |g: &mut Gen, n: u64| g.below(n - 1);
        let third = match nc {
            0 => format!("&R.c[{}]", g.below(3)),
            _ => format!("&C[{}]", at(&mut g, nc)),
        };
        s += &format!("    int *{name} = &A[{}];\n", at(&mut g, na));
        s += &format!(
            "    if ((sel + {shift}) % 5 == 1) {name} = &B[{}];\n",
            at(&mut g, nb)
        );
        s += &format!("    if ((sel + {shift}) % 5 == 2) {name} = &R.b;\n");
        s += &format!("    if ((sel + {shift}) % 5 == 3) {name} = {third};\n");
    }
    s += "    char *bytes = (char*)&R;\n";
    s += "    struct rec *view = (struct rec*)&B[0];\n";
    for _ in 0..2 + g.below(4) {
        let bound = match g.below(3) {
            0 => format!("sel + {}", 1 + g.below(6)),
            _ => format!("{}", 1 + g.below(12)),
        };
        s += &format!("    for (int i = 0; i < {bound}; i = i + 1) {{\n");
        let nested = g.below(4) == 0;
        if nested {
            s += &format!(
                "        for (int j = 0; j < {}; j = j + 1) {{\n",
                1 + g.below(4)
            );
        }
        for _ in 0..2 + g.below(6) {
            s += "        ";
            s += &g.statement(na, nb, nc);
            s += "\n";
        }
        if nested {
            s += "        }\n";
        }
        s += "    }\n";
        if g.below(3) == 0 {
            s += "    print_int(s);\n";
        }
    }
    s += "    print_int(s);\n    print_int(t);\n    print_int(R.a + R.b + R.c[0] + *p + *q);\n";
    s += "    return (s + t) % 256;\n}\n";
    s
}

struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    /// One statement of a loop body, where `i` is in scope.
    fn statement(&mut self, na: u64, nb: u64, nc: u64) -> String {
        let k = self.below(16);
        let arr = match (self.below(3), nc) {
            (0, _) => ("A", na),
            (1, _) | (2, 0) => ("B", nb),
            _ => ("C", nc),
        };
        match self.below(21) {
            0 => format!("s = s + {}[(i + {k}) % {}];", arr.0, arr.1),
            1 => format!("{}[(i + {k}) % {}] = s % 1000;", arr.0, arr.1),
            2 => "s = s + *p;".into(),
            3 => format!("*p = s % 1000 + {k};"),
            4 => "s = s + p[1] + *q;".into(),
            5 => "q[1] = t; t = t + *p;".into(),
            6 => "*q = s % 500; s = s + *p;".into(),
            7 => "s = s + R.a; R.a = s % 777;".into(),
            8 => format!("R.c[{}] = s; s = s + R.c[(i + {k}) % 4];", k % 4),
            9 => format!("bytes[{}] = s; s = s + R.a + R.b;", self.below(24)),
            10 => "view->b = s; s = s + B[1] + view->a;".into(),
            11 => "s = s + touch(p, i);".into(),
            12 => "t = t + touch(q, s % 10) + *p;".into(),
            13 => format!(
                "if (s % 3 == 0) {{ *p = t; }} else {{ {}[{}] = t; }} s = s + *p;",
                arr.0,
                k % arr.1
            ),
            14 => "t = t + s * 3 + sel;".into(),
            15 if self.below(6) == 0 => format!("s = s + {} / B[(i + {k}) % {nb}];", 100 + k),
            // Assigned on one arm only.
            16 => format!("{{ int u = t % 100; if ((s + i) % 4 == 1) {{ u = s % 50 + {k}; }} s = s + u; }}"),
            // `break` and `continue` in nested loops.
            17 => format!(
                "for (int jj = 0; jj < {}; jj = jj + 1) {{ if ((s + jj) % 5 == 0) continue; \
                 for (int kk = 0; kk < 4; kk = kk + 1) {{ if (kk == jj) break; t = t + kk; }} \
                 if (t % 7 == 3) break; s = s + jj; }}",
                1 + k % 5
            ),
            // Changed before a throw, direct or from a callee, and read in
            // the handler and after it; `-424242` marks a handler run.
            18 => format!(
                "{{ int w = s % 50; try {{ w = w + {k}; if ((s + i) % 3 == 0) throw; w = w * 2; \
                 t = t + risky(w + i); w = w + 1; }} catch {{ print_int(-424242); s = s + w; }} t = t + w % 7; }}"
            ),
            // A declaration that shadows another in a nested block.
            19 => format!("{{ int v = s % 9; {{ int v = t % 5 + {k}; s = s + v; }} t = t + v; }}"),
            // Short-circuit and conditional expressions over locals.
            20 => format!(
                "if (s > t && t % 2 == 0 || i == 1) {{ s = s + 1; }} \
                 t = s > t ? (s - t) % 1000 : (t - s) % 1000 + {k}; \
                 {{ bool b = s % 3 == 0 || t < {k} && i > 0; if (!b) {{ s = s + 2; }} }}"
            ),
            _ => "s = s - t % 13;".into(),
        }
    }
}
