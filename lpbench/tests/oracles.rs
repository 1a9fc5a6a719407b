//! The oracles are independent of the compiler under test, so they need
//! their own proof: each must agree with the `-O0` reference interpreter
//! (front-end and interpreter only — no optimizer, no JIT, no machine
//! code).

use lpat_vm::{ExecError, Vm, VmOptions};
use lpbench::inputs::progen::{App, Shape};
use lpbench::inputs::{kernels, spec15, Oracle};

/// Compile each unit at `-O0`, link, and run under the interpreter.
fn interpret(name: &str, units: &[(String, String)]) -> Oracle {
    let modules = units
        .iter()
        .map(|(unit, src)| {
            let m = lpat_minic::compile(unit, src).unwrap_or_else(|e| panic!("{unit}: {e}\n{src}"));
            m.verify().unwrap_or_else(|e| panic!("{unit}: {e:?}"));
            m
        })
        .collect();
    let m = lpat_linker::link(modules, name).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
    let exit = match vm.run_main() {
        Ok(code) => code,
        Err(ExecError::Exited(code)) => i64::from(code),
        Err(e) => panic!("{name}: {e}"),
    };
    Oracle {
        output: vm.output.clone(),
        exit,
    }
}

fn single(name: &str, src: &str) -> Oracle {
    interpret(name, &[(name.to_string(), src.to_string())])
}

#[test]
fn kernel_twins_equal_the_interpreter_at_three_sizes() {
    for k in kernels::all() {
        for (scale, seed) in [(1, 1), (2, 7), (3, 123_456_789)] {
            let twin = (k.expected)(scale, seed);
            let got = single(k.name, &(k.source)(scale, seed));
            assert_eq!(twin, got, "{} scale {scale} seed {seed}", k.name);
            assert!(!twin.output.is_empty());
        }
    }
}

#[test]
fn profile_sensitive_twins_equal_the_interpreter() {
    for (iters, seed) in [(100, 1), (1_000, 2), (5_000, 99)] {
        let (src, twin) = kernels::const_arg(iters, seed);
        assert_eq!(twin, single("const-arg", &src), "const-arg {iters} {seed}");
        let (src, twin) = kernels::hot_cold(iters, seed);
        assert_eq!(twin, single("hot-cold", &src), "hot-cold {iters} {seed}");
    }
}

#[test]
fn progen_evaluator_equals_the_interpreter_on_fifty_seeds() {
    for seed in 0..50u64 {
        let shape = Shape {
            units: 1 + (seed % 3) as usize,
            funcs_per_unit: 10 + (seed % 7) as usize,
        };
        let app = App::generate(seed, seed * 31 + 7, 0, shape);
        assert_eq!(
            app.oracle(),
            interpret(&app.name, &app.sources()),
            "seed {seed}"
        );
    }
}

#[test]
fn progen_is_a_function_of_the_seed() {
    let shape = Shape {
        units: 3,
        funcs_per_unit: 20,
    };
    let (a, b) = (App::generate(8, 5, 1, shape), App::generate(8, 5, 1, shape));
    assert_eq!(a.sources(), b.sources(), "same seed, same bytes");
    assert_eq!(a.oracle(), b.oracle());
    for other in [
        App::generate(8, 6, 1, shape),
        App::generate(9, 5, 1, shape),
        App::generate(8, 5, 2, shape),
    ] {
        assert_ne!(a.sources(), other.sources());
        assert_ne!(a.oracle(), other.oracle());
    }
    assert_eq!(a.num_funcs(), 60);
    // Roughly a fifth of the functions are dead, and `main` reaches the rest.
    assert!((0.05..0.40).contains(&a.dead_share()), "{}", a.dead_share());
    for k in kernels::all() {
        assert_eq!((k.source)(2, 9), (k.source)(2, 9));
    }
}

#[test]
fn spec15_file_matches_the_interpreter() {
    let got: Vec<(String, Oracle)> = spec15::sources(0)
        .into_iter()
        .map(|(name, src)| (name.to_string(), single(name, &src)))
        .collect();
    if std::env::var_os("LPBENCH_BLESS").is_some() {
        std::fs::write("expected/spec15.txt", spec15::render(&got)).unwrap();
    }
    assert_eq!(spec15::expected(), got, "expected/spec15.txt is stale");
    assert_eq!(got.len(), 15);
}

/// The finding that made `progen` necessary: the worker functions
/// `suite(scale)` appends are never called, so link-time IPO deletes them
/// all and a scaled program ends up exactly as big as the unscaled one.
#[test]
fn suite_scale_only_adds_dead_code() {
    let mut off = lpbench::harness::span::Tracer::new(false, std::time::Instant::now());
    let mut final_insts = |scale: u32| -> Vec<(usize, usize)> {
        spec15::sources(scale)
            .into_iter()
            .map(|(name, src)| {
                let front = lpat_minic::compile(name, &src).unwrap().total_insts();
                let units = [(name.to_string(), src)];
                let (m, _) = lpbench::workloads::build(&mut off, name, &units).unwrap();
                (front, m.total_insts())
            })
            .collect()
    };
    let (base, scaled) = (final_insts(0), final_insts(30));
    for ((front0, after0), (front30, after30)) in base.iter().zip(&scaled) {
        assert!(
            front30 > &(front0 + 300),
            "scale must add code to the front end's output"
        );
        assert_eq!(after0, after30, "all of it is deleted at link time");
    }
}
