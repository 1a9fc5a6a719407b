//! `lpbench compare A B` — apply the bounds in `BENCHMARK.json` to two
//! result files (the JSON lines `--out` appends, one per run) and say, per
//! end-to-end metric and workload, `ok`, `worse`, or `unresolved` when the
//! spread between a side's own runs is wider than the bound.

use std::collections::BTreeMap;

use lpat_core::trace::{parse_json, Json};

use super::stats;

/// The verdict for one metric on one workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread is wider than the bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// The wider of the two sides' spreads, as a share of the median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// One side's runs of one (workload, metric): values, and the in-run
/// quartile spread where a run reported one.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    in_run: Vec<f64>,
}

impl Series {
    /// Spread between the side's own runs: the distance between the
    /// quartiles with four runs or more, the range with two or three, and
    /// with a single run the spread that run measured between its passes.
    fn spread(&self) -> f64 {
        let med = stats::median(&self.values).abs();
        if med == 0.0 {
            return 0.0;
        }
        match self.values.len() {
            1 => self.in_run.first().copied().unwrap_or(0.0),
            2 | 3 => {
                let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = self
                    .values
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                (hi - lo) / med
            }
            _ => stats::quartiles(&self.values).spread(),
        }
    }
}

type Runs = BTreeMap<(String, String), Series>;

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .str_field("workload")
            .ok_or_else(|| format!("line {}: no \"workload\"", n + 1))?;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("line {}: no \"metrics\"", n + 1))?;
        for (name, m) in metrics.fields() {
            let Some(value) = m.num("value") else {
                continue;
            };
            let s = runs
                .entry((workload.to_string(), name.clone()))
                .or_default();
            s.values.push(value);
            if let (Some(q1), Some(q3)) = (m.num("q1"), m.num("q3")) {
                if value != 0.0 {
                    s.in_run.push((q3 - q1) / value.abs());
                }
            }
        }
    }
    Ok(runs)
}

/// `(name, lower is better, bound)` of every end-to-end metric.
fn bounds(bench: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    let Some(Json::Arr(list)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json: no \"end_to_end\" list".into());
    };
    list.iter()
        .map(|m| {
            let name = m
                .str_field("name")
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .str_field("better")
                .ok_or("end_to_end entry without \"better\"")?;
            let bound = m.num("bound").ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// Compare result files `a` and `b` under the bounds of `bench`
/// (`BENCHMARK.json`'s text). Rows come in workload, then metric, order.
pub fn compare(bench: &str, a: &str, b: &str) -> Result<Vec<Row>, String> {
    let bench = parse_json(bench).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = bounds(&bench)?;
    let (ra, rb) = (parse_runs(a)?, parse_runs(b)?);
    let mut rows = Vec::new();
    for ((workload, metric), sa) in &ra {
        let Some(sb) = rb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(&(_, lower, bound)) = bounds.iter().find(|m| m.0 == *metric) else {
            continue; // per-layer metrics have no bound
        };
        let (ma, mb) = (stats::median(&sa.values), stats::median(&sb.values));
        let spread = sa.spread().max(sb.spread());
        let worse = if lower {
            mb > ma * (1.0 + bound)
        } else {
            mb < ma * (1.0 - bound)
        };
        let verdict = if spread > bound {
            Verdict::Unresolved
        } else if worse {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: ma,
            b: mb,
            spread,
            bound,
            verdict,
        });
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B vs A", "spread", "bound"
    );
    for r in rows {
        let change = if r.a == 0.0 {
            0.0
        } else {
            (r.b / r.a - 1.0) * 100.0
        };
        out.push_str(&format!(
            "{:<16} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}]}"#;

    fn line(workload: &str, wall: f64, q1: f64, q3: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": false, \"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \
             \"unit\": \"s\", \"q1\": {q1}, \"q3\": {q3}}}, \"vm.new_ms\": {{\"value\": 1, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    fn verdict(a: &str, b: &str) -> Verdict {
        let rows = compare(BENCH, a, b).unwrap();
        assert_eq!(rows.len(), 1, "only the bounded metric is compared");
        rows[0].verdict
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let a = line("w", 1.00, 0.99, 1.01);
        assert_eq!(verdict(&a, &line("w", 1.04, 1.03, 1.05)), Verdict::Ok);
        assert_eq!(verdict(&a, &line("w", 1.06, 1.05, 1.07)), Verdict::Worse);
        assert_eq!(verdict(&a, &line("w", 0.50, 0.49, 0.51)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = line("w", 1.00, 0.90, 1.10);
        assert_eq!(
            verdict(&a, &line("w", 1.00, 0.99, 1.01)),
            Verdict::Unresolved
        );
        // Several runs: the spread between them decides, not the in-run one.
        let steady: String = [1.00, 1.01, 0.99, 1.00, 1.005]
            .iter()
            .map(|v| line("w", *v, 0.5, 1.5))
            .collect();
        let slower: String = [1.10, 1.11, 1.09, 1.10, 1.105]
            .iter()
            .map(|v| line("w", *v, 0.5, 1.5))
            .collect();
        assert_eq!(verdict(&steady, &steady), Verdict::Ok);
        assert_eq!(verdict(&steady, &slower), Verdict::Worse);
    }

    #[test]
    fn workloads_are_kept_apart() {
        let a = line("w1", 1.0, 1.0, 1.0) + &line("w2", 2.0, 2.0, 2.0);
        let b = line("w1", 1.0, 1.0, 1.0) + &line("w2", 3.0, 3.0, 3.0);
        let rows = compare(BENCH, &a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(render(&rows).contains("worse"));
    }
}
