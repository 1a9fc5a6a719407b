//! `lpbench` — one command per workload, each in a fresh process:
//!
//! ```text
//! lpbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! lpbench compare A.jsonl B.jsonl
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — the result object `BENCHMARK.json`'s contract
//! describes. Exits non-zero if any output differed from its oracle.

use std::io::Write;
use std::process::ExitCode;

use lpbench::harness::compare;
use lpbench::harness::metrics::WORKLOADS;
use lpbench::harness::run::{run, Config, Report};
use lpbench::workloads::{
    compile_cold::CompileCold, exec::Exec, lifelong::Lifelong, serve_mixed::ServeMixed,
};

const USAGE: &str =
    "usage: lpbench --workload <compile-cold|exec-hot|exec-startup|lifelong-cycle|serve-mixed>
               [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       lpbench compare A.jsonl B.jsonl";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_oracle: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => cfg.out = Some(value()?.into()),
            "--smoke" => cfg.smoke = true,
            // For the contract test: the run must then report a failure.
            "--corrupt-oracle" => cfg.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cfg.workload));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cfg)
}

fn dispatch(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "compile-cold" => run::<CompileCold>(cfg),
        "exec-hot" | "exec-startup" => run::<Exec>(cfg),
        "lifelong-cycle" => run::<Lifelong>(cfg),
        "serve-mixed" => run::<ServeMixed>(cfg),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare::compare(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn main() -> ExitCode {
    // One pass-manager job everywhere, the daemon's workers included. On
    // the shared two-vCPU sandbox a second busy thread makes timings drift
    // by 10–20 % between sets of runs, while single-threaded ones repeat
    // within 1 %; and two jobs are no faster there than one.
    std::env::set_var("LPAT_JOBS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, a, b] = args.as_slice() {
        if cmd == "compare" {
            return match compare_files(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("lpbench compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match dispatch(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lpbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cfg.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(report.out_line(&cfg).as_bytes()));
        if let Err(e) = appended {
            eprintln!("lpbench: --out {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    report.print(&cfg);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
