//! Observability integration tests: Chrome-trace export determinism
//! run to run, subsystem coverage, the store's append / fold /
//! compact spans, `--time-passes` agreement with pass spans, `--quiet`,
//! and cache-warning deduplication.

use std::path::{Path, PathBuf};
use std::process::Command;

use lpat::core::trace;

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A program with enough functions that a parallel function-pass stage
/// actually fans out, plus heap traffic and recursion for the VM side.
const PROGRAM: &str = "
int a(int x) { return x * 2 + 1; }
int b(int x) { return a(x) + a(x + 1); }
int c(int x) { return b(x) - a(x); }
int d(int x) { return c(x) + b(x); }
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
    int* p = new int[10];
    int i = 0;
    int acc;
    while (i < 10) { p[i] = d(i); i = i + 1; }
    acc = fib(12);
    i = 0;
    while (i < 10) { acc = acc + p[i]; i = i + 1; }
    delete p;
    return acc;
}
";

fn write_program(dir: &Path) -> PathBuf {
    let p = dir.join("prog.mc");
    std::fs::write(&p, PROGRAM).unwrap();
    p
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// `--trace-out` bytes are identical from one run to the next under the
/// virtual clock, for both a pure pipeline run (`opt`) and a full
/// lifelong run (`run -O --cache-dir`, each on a fresh store).
#[test]
fn trace_bytes_identical_across_runs() {
    let dir = tmpdir("trace-runs");
    let prog = write_program(&dir);
    let mut traces = Vec::new();
    for i in 0..2 {
        let out = dir.join(format!("opt-{i}.json"));
        let st = lpatc()
            .args(["opt", prog.to_str().unwrap()])
            .args(["--trace-out", out.to_str().unwrap(), "-o"])
            .arg(dir.join("out.txt"))
            .env("LPAT_TRACE_CLOCK", "virtual")
            .status()
            .unwrap();
        assert!(st.success());
        traces.push(read(&out));
    }
    assert_eq!(traces[0], traces[1], "opt trace differs across runs");
    trace::validate_chrome_trace(&traces[0]).expect("opt trace schema");

    let mut run_traces = Vec::new();
    for i in 0..2 {
        let cache = dir.join(format!("cache-{i}"));
        let out = dir.join(format!("run-{i}.json"));
        let st = lpatc()
            .args(["run", prog.to_str().unwrap(), "-O"])
            .args(["--cache-dir", cache.to_str().unwrap()])
            .args(["--trace-out", out.to_str().unwrap()])
            .args(["--trace-clock", "virtual", "--quiet"])
            .status()
            .unwrap();
        assert!(st.code().is_some());
        run_traces.push(read(&out));
    }
    assert_eq!(
        run_traces[0], run_traces[1],
        "run trace differs across runs"
    );
    trace::validate_chrome_trace(&run_traces[0]).expect("run trace schema");
}

/// One `run -O --cache-dir` trace contains spans from at least four
/// subsystems and a well-formed metrics export.
#[test]
fn run_trace_covers_subsystems() {
    let dir = tmpdir("trace-coverage");
    let prog = write_program(&dir);
    let cache = dir.join("cache");
    let trace_out = dir.join("trace.json");
    let metrics_out = dir.join("metrics.json");
    let st = lpatc()
        .args(["run", prog.to_str().unwrap(), "-O"])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .args(["--trace-out", trace_out.to_str().unwrap()])
        .args(["--metrics-out", metrics_out.to_str().unwrap()])
        .args(["--trace-clock", "virtual", "--quiet"])
        .status()
        .unwrap();
    assert!(st.code().is_some());
    let json = read(&trace_out);
    let n = trace::validate_chrome_trace(&json).expect("trace schema");
    assert!(n > 10, "suspiciously few events: {n}");
    for cat in [
        "\"cat\":\"pipeline\"",
        "\"cat\":\"pass\"",
        "\"cat\":\"fpass\"",
        "\"cat\":\"vm\"",
        "\"cat\":\"heap\"",
        "\"cat\":\"store\"",
    ] {
        assert!(json.contains(cat), "missing {cat} in trace");
    }
    let metrics = read(&metrics_out);
    for key in [
        "vm.insts",
        "heap.allocs",
        "heap.frees",
        // Speculation counters are exported unconditionally (zeros when
        // `--speculate` is off) so consumers see a stable key set.
        "vm.spec.emitted",
        "vm.spec.passed",
        "vm.spec.failed",
        "\"spans\"",
    ] {
        assert!(metrics.contains(key), "missing {key} in metrics");
    }
}

/// The store says what it did: a run's profile flush is an `append` span
/// (with the bytes appended), a later load — a speculated run's, the one
/// kind of run that reads the profile — reports how many appended
/// records it folded, and `reopt`'s idle-time compaction is a `compact`
/// span (with the records and bytes it folded) — never a `write` of the
/// profile.
#[test]
fn store_spans_tell_append_fold_and_compact_apart() {
    let dir = tmpdir("trace-store");
    let prog = write_program(&dir);
    let cache = dir.join("cache");
    let traced = |cmd: &str, n: u32, extra: &[&str]| {
        let trace_out = dir.join(format!("{cmd}-{n}.json"));
        let metrics_out = dir.join(format!("{cmd}-{n}-metrics.json"));
        let st = lpatc()
            .args([cmd, prog.to_str().unwrap()])
            .args(extra)
            .args(["--cache-dir", cache.to_str().unwrap()])
            .args(["--trace-out", trace_out.to_str().unwrap()])
            .args(["--metrics-out", metrics_out.to_str().unwrap()])
            .args(["--trace-clock", "virtual", "--quiet"])
            .status()
            .unwrap();
        assert!(st.code().is_some());
        (read(&trace_out), read(&metrics_out))
    };
    let (first, metrics) = traced("run", 1, &[]);
    assert!(first.contains("\"name\":\"append profile-"), "{first}");
    assert!(first.contains("\"args\":{\"bytes\":\""), "{first}");
    assert!(!first.contains("\"name\":\"write profile-"), "{first}");
    assert!(!first.contains("\"name\":\"compact "), "{first}");
    assert!(!metrics.contains("store.log_records_folded"), "{metrics}");
    let (_, metrics) = traced("run", 2, &["--speculate"]);
    assert!(
        metrics.contains("\"store.log_records_folded\":1"),
        "{metrics}"
    );
    let (reopt, _) = traced("reopt", 1, &[]);
    assert!(reopt.contains("\"name\":\"compact profile-"), "{reopt}");
    assert!(
        reopt.contains("\"args\":{\"records\":\"2\",\"bytes\":\""),
        "{reopt}"
    );
    assert!(reopt.contains("\"name\":\"write reopt-"), "{reopt}");
    assert!(!reopt.contains("\"name\":\"write profile-"), "{reopt}");
}

/// `--speculate --stats` prints the speculation table, and a speculated
/// run's guard traffic lands in the `vm.spec.*` metrics counters.
#[test]
fn speculation_stats_table_and_counters() {
    let dir = tmpdir("trace-spec");
    let prog = dir.join("disp.ll");
    std::fs::write(
        &prog,
        "
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @disp(int (int)* @alpha, int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %w = call int @disp(int (int)* @beta, int 5)
  %t = add int %s, %w
  %m = rem int %t, 97
  call void @print_int(int %m)
  ret int %m
}",
    )
    .unwrap();
    let cache = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let st = lpatc()
        .args(["run", prog.to_str().unwrap(), "--profile"])
        .args(["--cache-dir", cache.to_str().unwrap(), "--quiet"])
        .status()
        .unwrap();
    assert!(st.code().is_some());
    let metrics_out = dir.join("metrics.json");
    let out = lpatc()
        .args(["run", prog.to_str().unwrap()])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .args(["--speculate", "--stats"])
        .args(["--metrics-out", metrics_out.to_str().unwrap()])
        .args(["--trace-clock", "virtual"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    for row in ["[spec]", "guards emitted", "guard passed", "guard failed"] {
        assert!(stderr.contains(row), "missing {row} in stats:\n{stderr}");
    }
    let metrics = read(&metrics_out);
    assert!(
        metrics.contains("\"vm.spec.emitted\":1"),
        "guard not emitted in metrics: {metrics}"
    );
    assert!(
        metrics.contains("\"vm.spec.passed\":400"),
        "unexpected guard traffic: {metrics}"
    );
    assert!(metrics.contains("\"vm.spec.failed\":1"), "{metrics}");
}

/// `--time-passes` durations are the *same numbers* as the pass spans:
/// each report row's duration equals its span's exported `dur`, row for
/// row, and therefore so do the sums (single-stopwatch principle).
#[test]
fn time_passes_totals_equal_pass_spans() {
    let mut m = lpat::minic::compile("prog", PROGRAM).unwrap();
    trace::enable(trace::ClockMode::Real);
    let report = lpat::transform::function_pipeline().run(&mut m);
    let data = trace::drain();
    trace::disable();
    let spans: Vec<_> = data.events.iter().filter(|e| e.cat == "pass").collect();
    assert_eq!(spans.len(), report.passes.len());
    let mut span_sum = 0u64;
    let mut report_sum = 0u64;
    for (ev, pass) in spans.iter().zip(&report.passes) {
        assert_eq!(ev.name, pass.name);
        let dur_us = match ev.kind {
            trace::EventKind::Span { dur_us } => dur_us,
            trace::EventKind::Instant => panic!("pass span expected"),
        };
        assert_eq!(
            dur_us,
            pass.duration.as_micros() as u64,
            "span/report duration mismatch for pass {}",
            pass.name
        );
        span_sum += dur_us;
        report_sum += pass.duration.as_micros() as u64;
    }
    assert_eq!(span_sum, report_sum);
}

/// `--quiet` silences every stderr notice and warning; program output and
/// the exit code are unaffected.
#[test]
fn quiet_silences_diagnostics() {
    let dir = tmpdir("trace-quiet");
    let prog = write_program(&dir);
    let noisy = lpatc()
        .args(["run", prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!noisy.stderr.is_empty(), "expected [exit …] notice");
    let quiet = lpatc()
        .args(["run", prog.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(
        quiet.stderr.is_empty(),
        "unexpected stderr under --quiet: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert_eq!(noisy.status.code(), quiet.status.code());
    assert_eq!(noisy.stdout, quiet.stdout);
}

/// Repeated cache warnings of one StoreError class print once, with a
/// suppressed-count summary at exit.
#[test]
fn cache_warnings_dedup_per_class() {
    let dir = tmpdir("trace-dedup");
    let prog = write_program(&dir);
    let cache = dir.join("cache");
    // Prime the cache so the faulty run has both a reopt read and a
    // profile read to fail.
    let st = lpatc()
        .args(["run", prog.to_str().unwrap()])
        .args(["--cache-dir", cache.to_str().unwrap(), "--quiet"])
        .status()
        .unwrap();
    assert!(st.code().is_some());
    let out = lpatc()
        .args(["run", prog.to_str().unwrap()])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .args(["--inject-faults", "store.read:io@1,store.read:io@2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let io_warnings = stderr
        .lines()
        .filter(|l| l.contains("store I/O error"))
        .count();
    assert_eq!(
        io_warnings, 1,
        "want exactly one printed io warning:\n{stderr}"
    );
    assert!(
        stderr.contains("1 more 'io' warning(s) suppressed"),
        "missing suppression summary:\n{stderr}"
    );
}

/// `--stats` extends the `[profile]` dump with a per-opcode histogram.
#[test]
fn stats_prints_opcode_histogram() {
    let dir = tmpdir("trace-stats");
    let prog = write_program(&dir);
    let out = lpatc()
        .args(["run", prog.to_str().unwrap(), "--stats"])
        .args(["--trace-clock", "virtual"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[profile] top opcodes:"),
        "missing histogram:\n{stderr}"
    );
    for op in ["br", "call"] {
        assert!(
            stderr.lines().any(|l| l.trim().starts_with(op)),
            "missing opcode row {op}:\n{stderr}"
        );
    }
    assert!(
        stderr.contains("=== trace stats ==="),
        "missing metrics table:\n{stderr}"
    );
}

/// What profiling allocated and recorded is readable from `--stats` and
/// from the metrics export: three keyed counters, kept at zero when the
/// run was not instrumented, and the same from one run to the next.
#[test]
fn stats_and_metrics_carry_the_profile_counters() {
    let dir = tmpdir("trace-profile-counters");
    let prog = write_program(&dir);
    let run = |profile: bool, i: u32| {
        let metrics_out = dir.join(format!("metrics-{profile}-{i}.json"));
        let mut c = lpatc();
        c.args(["run", prog.to_str().unwrap(), "--stats"])
            .args(["--metrics-out", metrics_out.to_str().unwrap()])
            .args(["--trace-clock", "virtual"]);
        if profile {
            c.arg("--profile");
        }
        let out = c.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains("[profile] counters:"), "{stderr}");
        (stderr, read(&metrics_out))
    };
    let (stderr, metrics) = run(false, 0);
    for key in ["vm.profile.funcs", "vm.profile.slots", "vm.profile.nonzero"] {
        assert!(
            metrics.contains(&format!("\"{key}\":0")),
            "{key} must be kept at zero: {metrics}"
        );
        let row = stderr.lines().find(|l| l.trim().starts_with(key));
        assert!(
            row.is_some_and(|l| l.trim().ends_with(" 0")),
            "{key}:\n{stderr}"
        );
    }
    let (_, metrics) = run(true, 0);
    // main, a, b, c, d and fib all ran.
    assert!(metrics.contains("\"vm.profile.funcs\":6"), "{metrics}");
    assert!(!metrics.contains("\"vm.profile.nonzero\":0"), "{metrics}");
    assert_eq!(metrics, run(true, 1).1, "metrics differ across runs");
}
