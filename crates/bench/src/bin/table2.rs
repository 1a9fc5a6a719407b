//! Regenerates **Table 2**: interprocedural optimization timings (seconds)
//! for DGE, DAE, and inlining at link time, against the time a full
//! front-end compile of the same program takes (the paper's GCC -O3
//! reference column).
//!
//! The link-time pipeline runs once per benchmark through the
//! [`lpat_transform::PassManager`], and every timing column is read from
//! the structured [`PipelineReport`] it returns — the same instrumentation
//! `lpatc --time-passes` prints. The aggregated per-pass table at the bottom also
//! shows the analysis-cache traffic (dominator trees and call graphs
//! reused across passes vs. recomputed after invalidation).
//!
//! ```text
//! cargo run -p lpat-bench --release --bin table2 [-- --scale N]
//! ```

use std::time::Instant;

use lpat_transform::{link_time_pipeline, PassExecution, PipelineReport};

/// Sum the durations of every pass row (recursively) named `name`.
fn pass_secs(report: &PipelineReport, name: &str) -> f64 {
    fn walk(rows: &[PassExecution], name: &str) -> f64 {
        rows.iter()
            .map(|p| {
                let own = if p.name == name {
                    p.duration.as_secs_f64()
                } else {
                    0.0
                };
                own + walk(&p.sub, name)
            })
            .sum()
    }
    walk(&report.passes, name)
}

/// Merge per-pass rows of `b` into `a` (same pipeline, so same shape).
fn merge_rows(a: &mut Vec<PassExecution>, b: &[PassExecution]) {
    if a.is_empty() {
        a.extend(b.iter().cloned());
        // Per-function rows are workload-specific; drop them from the
        // cross-benchmark aggregate.
        for r in a.iter_mut() {
            r.functions.clear();
        }
        return;
    }
    for (x, y) in a.iter_mut().zip(b) {
        x.duration += y.duration;
        x.changed |= y.changed;
        x.cache.add(y.cache);
        x.stats = y.stats.clone();
        merge_rows(&mut x.sub, &y.sub);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(60u32);

    println!("Table 2: Interprocedural optimization timings (seconds), scale={scale}\n");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>11}   cache (hit/miss/inval)",
        "Benchmark", "DGE", "DAE", "inline", "link-opt", "full-compile"
    );
    let suite = lpat_workloads::suite(scale);
    let mut sums = [0.0f64; 5];
    let mut agg = PipelineReport::default();
    for w in &suite {
        // Linked module: compile + per-module pipeline (what the linker
        // would have combined).
        let m = lpat_bench::prepare(w.name, &w.source);

        // The whole link-time pipeline, timed pass by pass.
        let mut c = m.clone();
        let mut pm = link_time_pipeline();
        let report = pm.run(&mut c);
        let dge = pass_secs(&report, "dge");
        let dae = pass_secs(&report, "dae");
        let inline_t = pass_secs(&report, "inline");
        let link_t = report.total.as_secs_f64();

        // Full compile (front-end + per-module -O pipeline + native
        // codegen), the reference column.
        let t0 = Instant::now();
        let mut full = lpat_minic::compile(w.name, &w.source).expect("compiles");
        lpat_transform::function_pipeline().run(&mut full);
        let _bin = lpat_codegen::compile_module(&full, &lpat_codegen::Cisc32);
        let gcc = t0.elapsed().as_secs_f64();

        sums[0] += dge;
        sums[1] += dae;
        sums[2] += inline_t;
        sums[3] += link_t;
        sums[4] += gcc;
        println!(
            "{:<14} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.4}   {}/{}/{}",
            w.name,
            dge,
            dae,
            inline_t,
            link_t,
            gcc,
            report.cache.hits,
            report.cache.misses,
            report.cache.invalidations
        );
        agg.total += report.total;
        agg.cache.add(report.cache);
        merge_rows(&mut agg.passes, &report.passes);
    }
    let n = suite.len() as f64;
    println!(
        "{:<14} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.4}",
        "average",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n,
        sums[4] / n
    );
    let ipo_avg = (sums[0] + sums[1] + sums[2]) / (3.0 * n);
    println!(
        "\nIPO passes average {:.1}x faster than the full compile (paper: 'substantially less').",
        (sums[4] / n) / ipo_avg.max(1e-9)
    );
    println!(
        "\nPer-pass breakdown, summed over all {} benchmarks:\n",
        suite.len()
    );
    print!("{}", agg.render());
}
