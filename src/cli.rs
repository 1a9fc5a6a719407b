//! The one command-line parser behind `lpatc` and `lpatd`.
//!
//! Each (sub)command *declares* the switches and valued flags it reads;
//! [`Args::parse`] separates flags from positionals by that table, so a
//! flag may appear anywhere on the line, a flag's value is never taken for
//! an input file, and an unknown flag, a valued flag without its value or
//! a value that does not parse is an error naming the flag (both binaries
//! exit 2) instead of being silently ignored. It supports exactly the
//! shapes in use — `--flag`, `--flag VALUE`, positionals — and nothing
//! else.
//!
//! The trace flags every command shares (`--trace-out`, `--metrics-out`,
//! `--stats`, `--trace-clock`) are handled here too: [`TraceOutputs`]
//! starts the recording and writes the exports.

use std::str::FromStr;

use lpat_core::trace::{self, ClockMode, TraceData};
use lpat_core::FaultPlan;

/// The flags one (sub)command reads, as two whitespace-separated lists —
/// written the way a usage line is.
pub struct Flags {
    /// Flags that stand alone.
    pub switches: &'static str,
    /// Flags followed by one value.
    pub valued: &'static str,
}

/// The flags every `lpatc` subcommand and `lpatd` read.
pub const GLOBAL: Flags = Flags {
    switches: "--quiet --stats",
    valued: "--inject-faults --trace-out --metrics-out --trace-clock",
};

/// A command line, split by its declared flags.
#[derive(Debug)]
pub struct Args {
    positionals: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Split `argv` by the union of the `declared` tables.
    ///
    /// # Errors
    ///
    /// An argument starting with `-` that no table declares, or a valued
    /// flag at the end of the line; the message names it.
    pub fn parse(argv: &[String], declared: &[&Flags]) -> Result<Args, String> {
        let find = |names: fn(&Flags) -> &'static str, arg: &str| {
            declared
                .iter()
                .flat_map(|table| names(table).split_whitespace())
                .find(|name| *name == arg)
        };
        let mut args = Args {
            positionals: Vec::new(),
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') {
                args.positionals.push(arg.clone());
            } else if let Some(flag) = find(|t| t.switches, arg) {
                args.switches.push(flag);
            } else if let Some(flag) = find(|t| t.valued, arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                args.values.push((flag, value.clone()));
            } else {
                return Err(format!("unknown flag '{arg}'"));
            }
        }
        Ok(args)
    }

    /// The arguments that are not flags, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag` (its first occurrence), if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value of `flag`, parsed.
    ///
    /// # Errors
    ///
    /// `bad <flag> value '<value>'` when it does not parse as a `T`.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag} value '{v}'")))
            .transpose()
    }

    /// The `--inject-faults` plan, if one was given.
    ///
    /// # Errors
    ///
    /// A plan that does not follow the fault grammar.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        self.value("--inject-faults")
            .map(|plan| FaultPlan::parse(plan).map_err(|e| format!("--inject-faults: {e}")))
            .transpose()
    }

    /// The clock `--trace-clock` names, if the flag was given.
    ///
    /// # Errors
    ///
    /// Any value but `virtual` or `real`.
    pub fn trace_clock(&self) -> Result<Option<ClockMode>, String> {
        match self.value("--trace-clock") {
            None => Ok(None),
            Some("virtual") => Ok(Some(ClockMode::Virtual)),
            Some("real") => Ok(Some(ClockMode::Real)),
            Some(other) => Err(format!("bad --trace-clock '{other}' (virtual or real)")),
        }
    }
}

/// The trace exports a command line asked for.
pub struct TraceOutputs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    stats: bool,
    /// The clock the trace runs under: `--trace-clock`, else the
    /// `LPAT_TRACE_CLOCK` environment variable, else real time.
    pub clock: ClockMode,
}

impl TraceOutputs {
    /// Read the trace flags and start recording if any export was asked
    /// for. Call before any module is loaded or pipeline runs, so every
    /// subsystem's spans land in the export.
    ///
    /// # Errors
    ///
    /// A bad `--trace-clock` value.
    pub fn begin(args: &Args) -> Result<TraceOutputs, String> {
        let clock = match args.trace_clock()? {
            Some(clock) => clock,
            None => match std::env::var("LPAT_TRACE_CLOCK").as_deref() {
                Ok("virtual") => ClockMode::Virtual,
                _ => ClockMode::Real,
            },
        };
        let outputs = TraceOutputs {
            trace_out: args.value("--trace-out").map(str::to_string),
            metrics_out: args.value("--metrics-out").map(str::to_string),
            stats: args.has("--stats"),
            clock,
        };
        if outputs.active() {
            trace::enable(clock);
        }
        Ok(outputs)
    }

    /// Whether any export was asked for (and so recording is on).
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.stats
    }

    /// Drain the trace and write the exports: the Chrome trace, the
    /// metrics summary, and the `--stats` table on stderr. Each file
    /// written is noted on stderr unless `quiet`.
    ///
    /// # Errors
    ///
    /// A file that cannot be written.
    pub fn finish(&self, quiet: bool) -> Result<(), String> {
        if !self.active() {
            return Ok(());
        }
        let data = trace::drain();
        let export = |flag: &str, path: &Option<String>, render: fn(&TraceData) -> String| {
            let Some(p) = path else { return Ok(()) };
            std::fs::write(p, render(&data)).map_err(|e| format!("{flag} {p}: {e}"))?;
            if !quiet {
                eprintln!("[trace] wrote {p}");
            }
            Ok::<(), String>(())
        };
        export("--trace-out", &self.trace_out, TraceData::to_chrome_json)?;
        export(
            "--metrics-out",
            &self.metrics_out,
            TraceData::to_metrics_json,
        )?;
        if self.stats {
            eprint!("{}", data.render_stats());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Flags = Flags {
        switches: "--tiered",
        valued: "--fuel",
    };

    fn parse(line: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, &[&GLOBAL, &RUN])
    }

    #[test]
    fn flags_and_positionals_separate_in_any_order() {
        let a = parse(&["--fuel", "100", "p.bc", "--tiered", "--quiet"]).unwrap();
        assert_eq!(a.positionals(), ["p.bc"]);
        assert!(a.has("--tiered") && a.has("--quiet") && !a.has("--stats"));
        assert_eq!(a.parsed::<u64>("--fuel"), Ok(Some(100)));
        assert_eq!(a.parsed::<u64>("--trace-out"), Ok(None));
    }

    #[test]
    fn a_value_may_look_like_a_flag_and_the_first_occurrence_wins() {
        let a = parse(&["--fuel", "-3", "--fuel", "4"]).unwrap();
        assert_eq!(a.value("--fuel"), Some("-3"));
        assert!(a.positionals().is_empty());
    }

    #[test]
    fn errors_name_the_flag() {
        assert_eq!(
            parse(&["p.bc", "--teired"]).unwrap_err(),
            "unknown flag '--teired'"
        );
        assert_eq!(
            parse(&["p.bc", "--fuel"]).unwrap_err(),
            "--fuel requires a value"
        );
        let a = parse(&["--fuel", "lots", "--trace-clock", "sundial"]).unwrap();
        assert_eq!(
            a.parsed::<u64>("--fuel").unwrap_err(),
            "bad --fuel value 'lots'"
        );
        assert!(a.trace_clock().unwrap_err().contains("sundial"));
        assert!(parse(&["--inject-faults", "gvn:explode"])
            .unwrap()
            .fault_plan()
            .unwrap_err()
            .starts_with("--inject-faults: "));
    }
}
