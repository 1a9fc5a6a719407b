//! The contract between `BENCHMARK.json`, the runner and its callers:
//! every workload prints exactly the metrics the file names, with their
//! units; nothing fails; and a falsified expected value is caught.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use lpat_core::trace::{parse_json, Json};
use lpbench::harness::metrics::{per_layer, END_TO_END, WORKLOADS};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(v)) => v,
        _ => panic!("BENCHMARK.json: no list \"{key}\""),
    }
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    list(doc, key)
        .iter()
        .map(|m| {
            (
                m.str_field("name").expect("name").to_string(),
                m.str_field("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

fn lpbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpbench"))
        .args(args)
        // Scratch directories and the trace file land under the test's own
        // directory inside the build tree.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("lpbench starts")
}

#[test]
fn benchmark_json_names_what_the_runner_prints() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| w.str_field("name").expect("name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in list(&doc, "workloads") {
        let why = w.str_field("why").expect("why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&doc, "end_to_end"), want);
    let want: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_units(&doc, "per_layer"), want);
    for m in list(&doc, "end_to_end") {
        let bound = m.num("bound").expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        assert!(matches!(m.str_field("better"), Some("lower" | "higher")));
    }
}

#[test]
fn every_workload_prints_every_metric_and_nothing_fails() {
    let doc = benchmark_json();
    for w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = lpbench(&["--workload", w, "--smoke", "--trace", trace, "--seed", "3"]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} --trace {trace}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse_json(last).unwrap_or_else(|e| panic!("{w}: {e}: {last}"));
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.num("failed"),
                Some(0.0),
                "{w}: failed_share must be 0"
            );
            assert!(result.num("attempted").unwrap() >= 1.0);
            assert!(last.contains("\"correct\":true"), "{last}");
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .expect("metrics")
                .fields()
                .iter()
                .map(|(name, m)| {
                    assert!(m.num("value").is_some_and(f64::is_finite), "{w}: {name}");
                    (name.clone(), m.str_field("unit").expect("unit").to_string())
                })
                .collect();
            let want: BTreeMap<String, String> = names_units(&doc, key).into_iter().collect();
            assert_eq!(got, want, "{w} --trace {trace}");
            // And by name with its unit in the readable part.
            for (name, unit) in &want {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
                    "{w}: {name} [{unit}] is not printed"
                );
            }
            if trace == "0" {
                // A user-visible metric that reads 0 measures nothing.
                for name in want.keys() {
                    let v = result
                        .get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .num("value");
                    assert!(v.unwrap() > 0.0, "{w}: {name} is {v:?}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_expected_value_fails_the_run() {
    for w in WORKLOADS {
        let out = lpbench(&["--workload", w, "--smoke", "--corrupt-oracle"]);
        assert!(
            !out.status.success(),
            "{w}: a falsified oracle went unnoticed\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "exec-hot", "--trace", "2"],
        &["--workload", "exec-hot", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = lpbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
