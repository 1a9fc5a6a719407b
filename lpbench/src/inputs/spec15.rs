//! `spec15` — `lpat_workloads::suite`, the paper's Table 1 programs,
//! unchanged, checked against the committed `expected/spec15.txt`.
//!
//! The expected file is hand-kept data, not compiler output at run time: a
//! test proves the `-O0` reference interpreter reproduces it, and every
//! optimized, tiered or served run is compared against it.

use super::Oracle;

const EXPECTED: &str = include_str!("../../expected/spec15.txt");

/// The fifteen programs at `scale` as `(name, miniC source)`.
pub fn sources(scale: u32) -> Vec<(&'static str, String)> {
    lpat_workloads::suite(scale)
        .into_iter()
        .map(|w| (w.name, w.source))
        .collect()
}

/// The fifteen programs at `scale` with their committed expected results.
/// The appended worker functions of `suite(scale)` are never called, so
/// one file serves every scale.
pub fn programs(scale: u32) -> Vec<(&'static str, String, Oracle)> {
    let expected = expected();
    assert_eq!(expected.len(), 15, "expected/spec15.txt is incomplete");
    sources(scale)
        .into_iter()
        .zip(expected)
        .map(|((name, src), (listed, oracle))| {
            assert_eq!(name, listed, "expected/spec15.txt is out of order");
            (name, src, oracle)
        })
        .collect()
}

/// The committed expected results, in suite order.
pub fn expected() -> Vec<(String, Oracle)> {
    parse(EXPECTED)
}

/// Parse the file format [`render`] writes: a `## <name> exit=<n>` line
/// per program, followed by its output lines.
fn parse(text: &str) -> Vec<(String, Oracle)> {
    let mut out: Vec<(String, Oracle)> = Vec::new();
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("## ") {
            let (name, exit) = head
                .split_once(" exit=")
                .unwrap_or_else(|| panic!("bad header line: {line}"));
            out.push((
                name.to_string(),
                Oracle {
                    output: String::new(),
                    exit: exit.parse().unwrap_or_else(|_| panic!("bad exit: {line}")),
                },
            ));
        } else if let Some((_, o)) = out.last_mut() {
            o.output.push_str(line);
            o.output.push('\n');
        }
    }
    out
}

/// Render results in the expected file's format.
pub fn render(results: &[(String, Oracle)]) -> String {
    let mut s = String::new();
    for (name, o) in results {
        s.push_str(&format!("## {name} exit={}\n{}", o.exit, o.output));
    }
    s
}
