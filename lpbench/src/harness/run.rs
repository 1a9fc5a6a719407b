//! The one runner: sets a workload up, warms it, repeats its fixed pass
//! for the measuring time, and turns the passes into named metrics.
//!
//! End-to-end metrics come from passes with the tracer off. A traced run
//! alternates traced and untraced passes in the same process, so the
//! per-layer numbers and the tracer's own overhead come from one run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use lpat_core::trace::JsonWriter;

use super::metrics::{self, END_TO_END};
use super::span::{PassLayer, Tracer};
use super::stats::{self, Quartiles};

/// How often the set-up is repeated at least, and at most; a cheap set-up
/// is repeated until a second has gone into it, because a time of a few
/// hundredths of a second does not repeat within a tenth otherwise.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=15;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs and two passes: the configuration the tests run.
    pub smoke: bool,
    /// Falsify one expected value; the run must then fail.
    pub corrupt_oracle: bool,
    /// Append the result as one JSON line to this file.
    pub out: Option<PathBuf>,
}

impl Config {
    /// Directory for everything a run writes: the trace file and the
    /// stores' and daemon's scratch directories. Inside the build
    /// directory, so inside the checkout and ignored by git.
    pub fn work_dir(&self) -> PathBuf {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(target).join("lpbench")
    }

    /// A scratch directory unique to this process and `tag`, emptied.
    pub fn scratch(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir().join("tmp").join(format!(
            "{}-{}-{tag}",
            self.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One timed operation: a program compiled, a program run, a request
/// answered.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Index into the workload's [`Workload::classes`]; an index beyond
    /// them puts the sample in the latency pool only.
    pub class: usize,
    /// Caller-observed time.
    pub ms: f64,
}

/// What one pass over the workload's fixed list of operations observed.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    /// One sample per operation attempted, failed ones included.
    pub samples: Vec<Sample>,
    /// Operations whose outcome differed from the oracle.
    pub failed: u64,
    /// IR instructions the pass's programs executed.
    pub insts: u64,
}

/// Exact, deterministic sizes of the workload's program set.
#[derive(Copy, Clone, Debug, Default)]
pub struct Facts {
    /// Total optimized bytecode.
    pub bytecode_bytes: u64,
    /// Total `fast` risc32 code.
    pub native_bytes: u64,
}

/// A workload: inputs made from the seed, and one fixed pass over them.
pub trait Workload: Sized {
    /// Generate the inputs, evaluate their oracles and check the program
    /// under test against them once.
    fn setup(cfg: &Config) -> Result<Self, String>;
    /// Row labels: the distinct programs (request classes for a server).
    fn classes(&self) -> Vec<String>;
    /// Sizes of the program set.
    fn facts(&self) -> Facts;
    /// One pass over every operation, in the same order each time.
    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome;
    /// Traced run only: measurements outside the passes. `untraced` are
    /// the wall times of the untraced passes, for ratios against them.
    fn extras(&mut self, _untraced: &[f64], _layer: &mut BTreeMap<String, f64>) {}
    /// Stop what set-up started and remove what it wrote.
    fn teardown(self) {}
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Quartiles over passes, for timings.
    pub quartiles: Option<Quartiles>,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations with a wrong outcome.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable rows printed before the result line.
    pub rows: Vec<String>,
}

/// A fixed spin loop; its time flags a contended or throttled machine.
fn calib_ms() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..8_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&runs)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Store the overhead `(with / without - 1) * 100` under `name`. When the
/// run cannot tell which side is larger it is reported as 0 and named in a
/// row, never printed as a number.
pub fn put_overhead(layer: &mut BTreeMap<String, f64>, name: &str, with: &[f64], without: &[f64]) {
    match stats::resolved_ratio(with, without) {
        Some((_, ratio, _)) => {
            layer.insert(name.to_string(), (ratio - 1.0) * 100.0);
        }
        None => {
            layer.insert(name.to_string(), 0.0);
            layer.insert(format!("_unresolved.{name}"), 1.0);
        }
    }
}

/// What the timed passes of one run measured.
struct Measured {
    floor_ns: f64,
    calib_ms: f64,
    setups: Vec<f64>,
    /// Wall time of each untraced pass.
    walls: Vec<f64>,
    /// Wall time and recorded layer data of each traced pass.
    traced: Vec<(f64, PassLayer)>,
    /// Operations of each untraced pass.
    samples: Vec<Vec<Sample>>,
    /// Instructions the last pass executed.
    insts: u64,
    /// `VmHWM` once the passes every run makes are done: later passes,
    /// whose number depends on the machine's speed, must not move it.
    peak_rss_mb: f64,
}

impl Measured {
    /// The per-layer view: each span's self time and each count over the
    /// traced passes, the ratios between them, the harness's own numbers,
    /// and what the workload measures on the side.
    fn per_layer<W: Workload>(&self, w: &mut W, rows: &mut Vec<String>) -> Vec<Metric> {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (_, l) in &self.traced {
            for (k, v) in &l.self_ms {
                series.entry(format!("{k}_ms")).or_default().push(*v);
            }
            for (k, v) in &l.counts {
                series.entry(k.clone()).or_default().push(*v);
            }
        }
        let mut layer: BTreeMap<String, f64> = series
            .into_iter()
            .map(|(k, mut v)| {
                // A span or count missing from some pass was 0 there.
                v.resize(self.traced.len(), 0.0);
                (k, stats::quiet(&v))
            })
            .collect();
        metrics::derive(&mut layer);
        let coverage: Vec<f64> = self
            .traced
            .iter()
            .map(|(wall, l)| {
                let own = ["bench.pass", "bench.op"]
                    .iter()
                    .filter_map(|k| l.self_ms.get(k))
                    .sum::<f64>();
                100.0 * (1.0 - own / (wall * 1e3))
            })
            .collect();
        let traced_walls: Vec<f64> = self.traced.iter().map(|t| t.0).collect();
        layer.insert("bench.span_coverage_pct".into(), stats::median(&coverage));
        put_overhead(
            &mut layer,
            "bench.span_overhead_pct",
            &traced_walls,
            &self.walls,
        );
        layer.insert("bench.timer_floor_ns".into(), self.floor_ns);
        layer.insert("bench.calib_ms".into(), self.calib_ms);
        layer.insert("bench.passes".into(), self.traced.len() as f64);
        let per_pass = self.samples.first().map_or(0, Vec::len);
        layer.insert("bench.samples".into(), per_pass as f64);
        layer.insert(
            "bench.tail_pct".into(),
            stats::tail_percentile(per_pass, 99.0),
        );
        w.extras(&self.walls, &mut layer);

        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                if layer.contains_key(&format!("_unresolved.{name}")) {
                    rows.push(format!(
                        "{name}: unresolved — the quartile interval of the ratio straddles 1.0"
                    ));
                }
                Metric {
                    value: layer.get(&name).copied().unwrap_or(0.0),
                    name,
                    unit,
                    quartiles: None,
                }
            })
            .collect()
    }

    /// The end-to-end view, with one row per program beside it. Every
    /// timing is [`stats::quiet`] over its repeats: over the passes for the
    /// pass's wall time and latency percentiles, over a program's samples
    /// for its row.
    fn end_to_end(&self, classes: &[String], facts: Facts, rows: &mut Vec<String>) -> Vec<Metric> {
        let per_pass = self.samples[0].len();
        // The percentile depends on the pass's op count alone, never on how
        // many passes the machine managed.
        let tail = stats::tail_percentile(per_pass, 99.0);
        let of_passes = |p: f64| -> Vec<f64> {
            self.samples
                .iter()
                .map(|pass| {
                    let ms: Vec<f64> = pass.iter().map(|s| s.ms).collect();
                    stats::percentile(&ms, p)
                })
                .collect()
        };
        let mut class_times = Vec::new();
        for (c, name) in classes.iter().enumerate() {
            let ms: Vec<f64> = self
                .samples
                .iter()
                .flatten()
                .filter(|s| s.class == c)
                .map(|s| s.ms)
                .collect();
            if ms.is_empty() {
                continue;
            }
            let q = stats::quartiles(&ms);
            rows.push(format!(
                "  {name:<28} {:>10.4} ms   [median {:.4}, q3 {:.4}; {} samples]",
                q.q1,
                q.median,
                q.q3,
                ms.len()
            ));
            class_times.push(q.q1);
        }
        let min_op = self
            .samples
            .iter()
            .flatten()
            .map(|s| s.ms)
            .fold(f64::INFINITY, f64::min);
        rows.push(format!(
            "passes {}, {per_pass} ops each, tail percentile p{tail}, fastest op {:.1} us = {:.0} x timer floor ({} ns), calib {:.2} ms",
            self.walls.len(),
            min_op * 1e3,
            min_op * 1e6 / self.floor_ns,
            self.floor_ns,
            self.calib_ms
        ));
        let quiet = |v: &[f64]| (stats::quiet(v), Some(stats::quartiles(v)));
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (value, quartiles) = match name {
                    "setup_s" => quiet(&self.setups),
                    "wall_s" => quiet(&self.walls),
                    "op_ms_geomean" => (stats::geomean(&class_times), None),
                    "req_ms_p50" => quiet(&of_passes(50.0)),
                    "req_ms_p99" => quiet(&of_passes(tail)),
                    "peak_rss_mb" => (self.peak_rss_mb, None),
                    "bytecode_bytes" => (facts.bytecode_bytes as f64, None),
                    "native_bytes" => (facts.native_bytes as f64, None),
                    "dyn_minsts" => (self.insts as f64 / 1e6, None),
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                Metric {
                    name: name.to_string(),
                    value,
                    unit,
                    quartiles,
                }
            })
            .collect()
    }
}

/// Run workload `W` as `cfg` asks.
pub fn run<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let mut m = Measured {
        floor_ns: stats::timer_floor_ns(),
        calib_ms: calib_ms(),
        setups: Vec::new(),
        walls: Vec::new(),
        traced: Vec::new(),
        samples: Vec::new(),
        insts: 0,
        peak_rss_mb: 0.0,
    };
    let mut w = loop {
        let t = Instant::now();
        let w = W::setup(cfg)?;
        m.setups.push(t.elapsed().as_secs_f64());
        let n = m.setups.len();
        let spent: f64 = m.setups.iter().sum();
        if n >= *SETUP_REPS.end() || (n >= *SETUP_REPS.start() && spent >= 1.0) {
            break w;
        }
        w.teardown();
    };

    let mut tr = Tracer::new(false, Instant::now());
    let warm = w.pass(&mut tr);
    let (mut attempted, mut failed) = (warm.samples.len() as u64, warm.failed);

    // A traced run alternates traced and untraced passes.
    let least = match (cfg.smoke, cfg.trace) {
        (true, false) => 2,
        (false, false) => 3,
        (_, true) => 4,
    };
    let started = Instant::now();
    for n in 0.. {
        if n == least {
            m.peak_rss_mb = peak_rss_mb();
        }
        if n >= least && (cfg.smoke || started.elapsed().as_secs_f64() >= cfg.seconds) {
            break;
        }
        tr.on = cfg.trace && n % 2 == 0;
        let t = Instant::now();
        let out = tr.span("bench.pass", |tr| w.pass(tr));
        let wall = t.elapsed().as_secs_f64();
        attempted += out.samples.len() as u64;
        failed += out.failed;
        m.insts = out.insts;
        if tr.on {
            m.traced.push((wall, tr.take_pass()));
        } else {
            m.walls.push(wall);
            m.samples.push(out.samples);
        }
    }
    tr.on = false;

    let mut rows = Vec::new();
    let metrics = if cfg.trace {
        let metrics = m.per_layer(&mut w, &mut rows);
        let dir = cfg.work_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", cfg.workload));
        std::fs::write(&path, tr.to_json(&cfg.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rows.push(format!("trace: {} spans in {}", tr.len(), path.display()));
        metrics
    } else {
        m.end_to_end(&w.classes(), w.facts(), &mut rows)
    };
    w.teardown();
    Ok(Report {
        attempted,
        failed,
        metrics,
        rows,
    })
}

impl Report {
    /// `correct`, `attempted`, `failed` and `metrics` into the open object.
    /// Values are written as measured, with all their digits.
    fn write_result(&self, w: &mut JsonWriter, quartiles: bool) {
        w.field_bool("correct", self.failed == 0);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.begin_object_field("metrics");
        for m in &self.metrics {
            w.begin_object_field(&m.name);
            w.field_raw("value", &m.value.to_string());
            w.field_str("unit", m.unit);
            if let (true, Some(q)) = (quartiles, m.quartiles) {
                w.field_raw("q1", &q.q1.to_string());
                w.field_raw("q3", &q.q3.to_string());
            }
            w.end_object();
        }
        w.end_object();
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_result(&mut w, false);
        w.end_object();
        w.finish()
    }

    /// One line for an `--out` file: what produced the result, the result,
    /// and the quartiles `compare` needs.
    pub fn out_line(&self, cfg: &Config) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("workload", &cfg.workload);
        w.field_u64("seed", cfg.seed);
        w.field_bool("trace", cfg.trace);
        self.write_result(&mut w, true);
        w.end_object();
        w.finish() + "\n"
    }

    /// Print every metric by name with its unit, then the result line.
    pub fn print(&self, cfg: &Config) {
        println!(
            "lpbench {} seed {} {}{}",
            cfg.workload,
            cfg.seed,
            if cfg.trace { "traced" } else { "end-to-end" },
            if cfg.smoke { " (smoke)" } else { "" }
        );
        for m in &self.metrics {
            match m.quartiles {
                Some(q) => println!(
                    "{:<40} {:>16.6} {:<8} [q1 {:.6}, median {:.6}, q3 {:.6}]",
                    m.name, m.value, m.unit, q.q1, q.median, q.q3
                ),
                None => println!("{:<40} {:>16.6} {:<8}", m.name, m.value, m.unit),
            }
        }
        for r in &self.rows {
            println!("{r}");
        }
        println!("{}", self.result_json());
    }
}
