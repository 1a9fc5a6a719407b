//! Regenerates **Table 1**: loads and stores that are provably typed,
//! per benchmark, using DSA's speculative type checking.
//!
//! ```text
//! cargo run -p lpat-bench --release --bin table1 [-- --scale N]
//!     [--field-insensitive]   ablation: disable field sensitivity
//!     [--no-mem2reg]          ablation: skip SSA construction (every local
//!                             stays in memory, no function pipeline)
//! ```

use lpat_analysis::{CallGraph, Dsa, DsaOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let field_sensitive = !args.iter().any(|a| a == "--field-insensitive");
    let mem2reg = !args.iter().any(|a| a == "--no-mem2reg");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u32);

    println!("Table 1: Loads and Stores which are provably typed");
    println!("(scale={scale}, field-sensitive={field_sensitive}, mem2reg={mem2reg})\n");
    println!(
        "{:<14} {:>8} {:>9} {:>9}   {:>9}",
        "Benchmark", "Typed", "Untyped", "Typed %", "paper %"
    );
    let mut pct_sum = 0.0;
    let mut paper_sum = 0.0;
    let n = lpat_workloads::suite(scale).len();
    for w in lpat_workloads::suite(scale) {
        let m = if mem2reg {
            let mut m = lpat_minic::compile(w.name, &w.source).expect("suite compiles");
            lpat_transform::function_pipeline().run(&mut m);
            m
        } else {
            lpat_minic::compile_in_memory(w.name, &w.source).expect("suite compiles")
        };
        let cg = CallGraph::build(&m);
        let opts = DsaOptions {
            field_sensitive,
            ..DsaOptions::default()
        };
        let dsa = Dsa::analyze(&m, &cg, &opts);
        let s = dsa.access_stats();
        pct_sum += s.percent();
        paper_sum += w.paper_typed_percent;
        println!(
            "{:<14} {:>8} {:>9} {:>8.1}%   {:>8.1}%",
            w.name,
            s.typed,
            s.untyped,
            s.percent(),
            w.paper_typed_percent
        );
    }
    println!(
        "{:<14} {:>8} {:>9} {:>8.1}%   {:>8.1}%",
        "average",
        "",
        "",
        pct_sum / n as f64,
        paper_sum / n as f64
    );
}
