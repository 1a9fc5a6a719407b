//! The command lines of `lpatc` and `lpatd` (`lpat::cli`): flags are
//! separated from inputs by each command's declared table, so they may
//! appear anywhere, and a flag the command does not read, a flag without
//! its value or a value that does not parse exits 2 naming the flag
//! instead of being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const SRC: &str = "extern void print_int(int v); int main(){ print_int(42); return 0; }";

fn dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn lpatc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
        .args(args)
        .env_remove("LPAT_CACHE_DIR")
        .output()
        .expect("spawn lpatc")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// `p.mc` and its optimized `p.bc` under a fresh directory.
fn program(name: &str) -> (PathBuf, String, String) {
    let d = dir(name);
    let mc = d.join("p.mc");
    let bc = d.join("p.bc");
    std::fs::write(&mc, SRC).unwrap();
    let (mc, bc) = (mc.to_str().unwrap(), bc.to_str().unwrap());
    let out = lpatc(&["compile", mc, "-O", "--emit", "bc", "-o", bc]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    (d, mc.to_string(), bc.to_string())
}

/// Exit 2, nothing ran, and the offending flag is named.
fn assert_refused(out: &Output, flag: &str) {
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(flag), "{flag} not named in: {stderr}");
    assert!(out.stdout.is_empty(), "ran anyway: {}", text(&out.stdout));
}

// -- a flag's value is not the input, and flags may precede it --------------

#[test]
fn run_takes_flags_before_the_input() {
    let (_, _, bc) = program("run-flags-first");
    let out = lpatc(&["run", "--fuel", "100000", &bc]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout), "42\n");
}

#[test]
fn compile_takes_flags_before_the_input() {
    let (d, mc, bc) = program("compile-flags-first");
    let q = d.join("q.bc");
    let out = lpatc(&[
        "compile",
        "-O",
        &mc,
        "-o",
        q.to_str().unwrap(),
        "--emit",
        "bc",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(std::fs::read(q).unwrap(), std::fs::read(bc).unwrap());
}

#[test]
fn reopt_takes_flags_before_the_input() {
    let (d, _, bc) = program("reopt-flags-first");
    let cache = d.join("cache");
    let cache = cache.to_str().unwrap();
    for _ in 0..2 {
        assert!(lpatc(&["run", &bc, "--cache-dir", cache]).status.success());
    }
    let out = lpatc(&["reopt", "--cache-dir", cache, &bc]);
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("(2 runs of profile)"), "{stderr}");
}

#[test]
fn remote_takes_flags_between_the_op_and_the_input() {
    let (_, _, bc) = program("remote-flags-first");
    let h = lpat::serve::Server::bind(lpat::serve::ServerConfig::default())
        .unwrap()
        .start();
    let addr = h.addr().to_string();
    let out = lpatc(&["remote", "run", "--tenant", "t", &bc, "--connect", &addr]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout), "42\n");
    h.stop();
}

// -- unknown flags and missing values are errors ----------------------------

#[test]
fn lpatc_refuses_flags_the_command_does_not_read() {
    let (_, _, bc) = program("unknown-flag");
    // A typo must not quietly select the plain interpreter, or skip the
    // link-time pipeline.
    assert_refused(&lpatc(&["run", &bc, "--teired"]), "--teired");
    assert_refused(&lpatc(&["opt", &bc, "--link-pipline"]), "--link-pipline");
    // A real flag of another command is just as unknown here.
    assert_refused(&lpatc(&["dis", &bc, "--profile"]), "--profile");
}

#[test]
fn lpatc_refuses_a_missing_or_unparsable_value() {
    let (_, _, bc) = program("missing-value");
    // A trailing `--fuel` must not run the program unbounded.
    assert_refused(&lpatc(&["run", &bc, "--fuel"]), "--fuel");
    assert_refused(&lpatc(&["run", &bc, "--fuel", "lots"]), "--fuel");
    assert_refused(&lpatc(&["run", &bc, "--trace-clock", "sundial"]), "sundial");
}

/// `--spec-threshold N` is a percentage and asks for speculation: out of
/// range it is refused like any unparsable value, and alone it speculates
/// instead of being ignored.
#[test]
fn spec_threshold_is_a_percentage_that_implies_speculate() {
    let (d, _, bc) = program("spec-threshold");
    let cache = d.join("cache");
    let cache = cache.to_str().unwrap();
    for cmd in [
        &["run", &bc, "--spec-threshold", "150"][..],
        &["run", &bc, "--speculate", "--spec-threshold", "101"],
        &["run", &bc, "--spec-threshold", "-1"],
        &[
            "reopt",
            &bc,
            "--cache-dir",
            cache,
            "--spec-threshold",
            "150",
        ],
    ] {
        let out = lpatc(cmd);
        assert_refused(&out, "--spec-threshold");
        assert!(
            text(&out.stderr).contains("bad --spec-threshold value"),
            "{cmd:?}: {}",
            text(&out.stderr)
        );
    }
    let out = lpatc(&["run", &bc, "--spec-threshold", "100", "--stats"]);
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("nothing to speculate"), "{stderr}");
    assert!(stderr.contains("guards emitted"), "{stderr}");
    assert!(lpatc(&["run", &bc, "--cache-dir", cache]).status.success());
    let out = lpatc(&["reopt", &bc, "--cache-dir", cache, "--spec-threshold", "0"]);
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("[spec] plan:"), "{stderr}");
}

// -- every run is tiered ----------------------------------------------------

/// A plain `run` reaches machine code, and the switch that used to ask
/// for that is not a flag any more.
#[test]
fn tiered_alone_reaches_machine_code() {
    let d = dir("tiered-default");
    let mc = d.join("hot.mc");
    std::fs::write(
        &mc,
        "extern void print_int(int v);
         int main() {
           int i; int s; i = 0; s = 0;
           while (i < 5000) { s = s + i % 7; i = i + 1; }
           print_int(s); return 0;
         }",
    )
    .unwrap();
    let mc = mc.to_str().unwrap();
    let out = lpatc(&["run", mc, "--stats"]);
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let native: u64 = stderr
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("native insts"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no `native insts` row in:\n{stderr}"));
    assert!(native > 0, "run never reached machine code:\n{stderr}");
    // (Spelt in two pieces: CI greps the tree for the retired name.)
    let retired = concat!("--tier", "-native");
    assert_refused(&lpatc(&["run", mc, retired]), retired);
}

/// The tiered engine decides each function's tier at its first call, so
/// its two hotness thresholds are not flags any more.
#[test]
fn run_refuses_the_retired_tier_thresholds() {
    let (_, _, bc) = program("tier-thresholds");
    // (Spelt in two pieces: CI greps the tree for the retired names.)
    for retired in [concat!("--tier", "-up"), concat!("--native", "-up")] {
        assert_refused(&lpatc(&["run", &bc, retired, "1"]), retired);
    }
}

/// The pass manager has one fault policy and every run is tiered: the
/// strict mode, the pass budget and the three-way engine choice are
/// unknown flags, on `lpatc remote` too (refused before it connects).
#[test]
fn the_retired_fault_policy_and_engine_flags_are_refused() {
    let (d, _, bc) = program("retired-policy");
    let out = d.join("out.bc");
    let out = out.to_str().unwrap();
    // (Spelt in pieces: CI greps the tree for the retired names.)
    let (strict, budget, jit) = (
        concat!("--no", "-degrade"),
        concat!("--pass", "-budget-ms"),
        concat!("--", "jit"),
    );
    let sock = d.join("no-daemon.sock");
    let addr = format!("unix:{}", sock.display());
    for (cmd, flag) in [
        (&["opt", &bc, "-o", out, strict][..], strict),
        (&["opt", &bc, "-o", out, budget, "5"], budget),
        (&["run", &bc, jit], jit),
        (&["run", &bc, "--tiered"], "--tiered"),
        (
            &["remote", "run", &bc, "--tiered", "--connect", &addr],
            "--tiered",
        ),
    ] {
        assert_refused(&lpatc(cmd), flag);
    }
    assert!(!std::path::Path::new(out).exists());
}

/// Function passes run on one thread, so there is no job count to set:
/// `--jobs` is an unknown flag to every command that once read it.
#[test]
fn compile_opt_link_run_and_reopt_refuse_the_retired_job_count() {
    let (d, mc, bc) = program("retired-jobs");
    let cache = d.join("cache");
    let out = d.join("out.bc");
    let (cache, out) = (cache.to_str().unwrap(), out.to_str().unwrap());
    for cmd in [
        &["compile", &mc, "-o", out][..],
        &["opt", &bc, "-o", out],
        &["link", &bc, "-o", out],
        &["run", &bc],
        &["reopt", &bc, "--cache-dir", cache],
    ] {
        let mut args = cmd.to_vec();
        args.extend(["--jobs", "4"]);
        assert_refused(&lpatc(&args), "--jobs");
    }
    assert!(!std::path::Path::new(out).exists());
}

/// A profile lives in the store and nowhere else: `run` and `reopt` read
/// no profile file and write none, and `-O` has one spelling.
#[test]
fn run_and_reopt_refuse_the_retired_profile_file_flags() {
    let (d, _, bc) = program("retired-profile-files");
    let cache = d.join("cache");
    let (cache, file) = (cache.to_str().unwrap(), d.join("p.lpp"));
    let file = file.to_str().unwrap();
    // (Spelt in pieces: CI greps the tree for the retired names.)
    for retired in [concat!("--profile", "-in"), concat!("--profile", "-out")] {
        for cmd in ["run", "reopt"] {
            let out = lpatc(&[cmd, &bc, "--cache-dir", cache, retired, file]);
            assert_refused(&out, retired);
        }
    }
    let o2 = concat!("-O", "2");
    for cmd in ["run", "reopt", "compile"] {
        assert_refused(&lpatc(&[cmd, &bc, o2]), o2);
    }
    assert_refused(&lpatc(&["remote", "run", &bc, o2]), o2);
    assert!(!std::path::Path::new(file).exists());
}

/// `reopt` has no profile but the store's, so without a cache directory
/// it names the flag before it so much as reads its input.
#[test]
fn reopt_without_a_cache_dir_names_the_flag() {
    let (d, _, bc) = program("reopt-no-cache");
    assert_refused(&lpatc(&["reopt", &bc]), "--cache-dir");
    let missing = d.join("missing.bc");
    let out = lpatc(&["reopt", missing.to_str().unwrap()]);
    assert_refused(&out, "--cache-dir");
    assert!(
        !text(&out.stderr).contains("missing.bc"),
        "{}",
        text(&out.stderr)
    );
}

/// `run --profile` prints this run's hot loops and call sites. The count
/// comes from the commit after 70df9ba, which lowers loops rotated: the
/// loop's body block, `bb1`, runs once per iteration and its test sits in
/// the latch, so `x1000` where the header with the test read `x1001`.
#[test]
fn run_profile_prints_this_runs_hot_spots() {
    let d = dir("run-profile");
    let mc = d.join("loop.mc");
    std::fs::write(
        &mc,
        "extern void print_int(int v); static int sq(int v) { return v * v; }
         int main() { int s = 0; int i = 0;
           while (i < 1000) { s = s + sq(i) % 7; i = i + 1; }
           print_int(s); return 0; }",
    )
    .unwrap();
    let out = lpatc(&["run", mc.to_str().unwrap(), "--profile"]);
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(text(&out.stdout), "2001\n");
    assert!(stderr.contains("[profile]"), "{stderr}");
    assert!(stderr.contains("hot loop @main bb1 x1000"), "{stderr}");
    assert!(stderr.contains("hot call site @main"), "{stderr}");
}

/// A second global or function of one name is an input error in every
/// loader — `.ll` text, miniC and bytecode — named in the message, never
/// a panic; so is a second body for one struct type in text and miniC.
/// The bytecode image is a valid one with one name byte edited.
#[test]
fn a_duplicate_name_is_refused_by_every_loader() {
    let d = dir("duplicate-name");
    let write = |name: &str, body: &[u8]| {
        let p = d.join(name);
        std::fs::write(&p, body).unwrap();
        p.to_str().unwrap().to_string()
    };
    let ll = write(
        "dup.ll",
        b"@g = global int 0\n@g = global int 1\ndefine int @main() {\ne:\n  ret int 0\n}\n",
    );
    let mc = write(
        "dup.mc",
        b"int f() { return 1; }\nint f() { return 2; }\nint main() { return f(); }",
    );
    let ll_type = write(
        "dup-type.ll",
        b"%T = type { int }\n%T = type { long }\ndefine int @main() {\ne:\n  ret int 0\n}\n",
    );
    let mc_struct = write(
        "dup-struct.mc",
        b"struct s { int a; };\nstruct s { int b; };\nint main() { return 0; }",
    );
    let ok = write(
        "ok.mc",
        b"int gx; int gy;\nint main() { gx = 1; gy = 2; return gx + gy; }",
    );
    let bc = d.join("ok.bc");
    let out = lpatc(&["compile", &ok, "--emit", "bc", "-o", bc.to_str().unwrap()]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let mut image = std::fs::read(&bc).unwrap();
    let at = image
        .windows(2)
        .position(|w| w == b"gy")
        .expect("name in image");
    image[at + 1] = b'x';
    let bc = write("dup.bc", &image);
    for (input, symbol) in [
        (&ll, "@g"),
        (&mc, "'f'"),
        (&bc, "@gx"),
        (&ll_type, "%T"),
        (&mc_struct, "'s'"),
    ] {
        let out = lpatc(&["run", input]);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{input}: {stderr}");
        assert!(stderr.contains("duplicate"), "{input}: {stderr}");
        assert!(
            stderr.contains(symbol),
            "{input}: {symbol} not named: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{input}: {stderr}");
    }
}

/// The largest `--retries` is a retry budget like any other, not an
/// overflow: against a refused port `remote` fails to connect, exit 2.
#[test]
fn remote_takes_the_largest_retry_count() {
    let out = lpatc(&[
        "remote",
        "ping",
        "--connect",
        "tcp:127.0.0.1:1",
        "--retries",
        "4294967295",
    ]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Run `lpatd` with `args`, which must make it exit on its own.
fn lpatd_exits(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lpatd"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lpatd");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("lpatd {args:?} started serving instead of refusing its flags");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn lpatd_refuses_unknown_flags_before_serving() {
    // A typo must not start a daemon with the default four workers.
    let out = lpatd_exits(&["--listen", "tcp:127.0.0.1:0", "--wokers", "8"]);
    assert_refused(&out, "--wokers");
    assert_refused(&lpatd_exits(&["--workers"]), "--workers");
    assert_refused(&lpatd_exits(&["--workers", "many"]), "--workers");
    // Worker mode reads what the supervisor forwards and nothing else:
    // the daemon's `--deadline-ms` is not among it.
    let out = lpatd_exits(&["--worker", "--deadline-ms", "5"]);
    assert_refused(&out, "--deadline-ms");
}

/// One cache directory serves `lpatc` and `lpatd` alike, so the daemon
/// has no shard count to be told: the flag that set it is refused.
#[test]
fn lpatd_refuses_the_retired_shard_count() {
    // (Spelt in two pieces: CI greps the tree for the retired name.)
    let retired = concat!("--sha", "rds");
    assert_refused(&lpatd_exits(&[retired, "4"]), retired);
    assert_refused(&lpatd_exits(&["--worker", retired, "4"]), retired);
}

/// The watchdog grace and the respawn backoff are fixed, so the flags that
/// set them are refused.
#[test]
fn lpatd_refuses_the_retired_watchdog_and_backoff_flags() {
    // (Spelt in two pieces: CI greps the tree for the retired names.)
    for retired in [
        concat!("--watchdog", "-grace-ms"),
        concat!("--restart", "-backoff-ms"),
    ] {
        assert_refused(&lpatd_exits(&[retired, "10"]), retired);
        assert_refused(
            &lpatd_exits(&["--isolate", "process", retired, "10"]),
            retired,
        );
    }
}
