//! The optimizer is a function of its input: optimizing the same module
//! twice yields byte-identical IR. Function passes run one function at a
//! time against the module's own pools, so nothing about the run but the
//! module decides which ids new pool entries get — and two pipelines
//! running at once in one process (as `lpatd` serves compiles on its
//! connection threads) must not disturb each other either.

use std::sync::Barrier;

fn optimized(m: &lpat::core::Module) -> String {
    let mut c = m.clone();
    lpat::transform::function_pipeline().run(&mut c);
    lpat::transform::link_time_pipeline().run(&mut c);
    c.verify().unwrap_or_else(|e| panic!("{e:?}"));
    c.display()
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let suite = lpat::workloads::compile_suite(4);
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            s.spawn(|| {
                start.wait();
                suite.iter().map(|(_, m)| optimized(m)).collect::<Vec<_>>()
            })
        };
        let (a, b) = (run(), run());
        (a.join().unwrap(), b.join().unwrap())
    });
    for ((name, _), (a, b)) in suite.iter().zip(a.iter().zip(&b)) {
        assert_eq!(a, b, "workload {name} not stable across runs");
    }
}
