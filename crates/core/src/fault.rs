//! Deterministic fault injection.
//!
//! The framework's lifelong-optimization story (paper §3.6) requires the
//! optimizer to be safe to run against a live program: a crashing or
//! runaway pass must degrade gracefully instead of taking the process
//! down. The pass managers implement that isolation with snapshots and
//! rollback; this module provides the *test driver* for it — a
//! [`FaultPlan`] that makes named fault sites misbehave on demand, fully
//! deterministically, so tests can assert the exact recovery behavior at
//! any parallelism level.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of specs:
//!
//! ```text
//! site:action[@N]
//! ```
//!
//! * `site` — a fault-site name. Every pass name is a site (`gvn`,
//!   `inline`, ...); additional named sites exist in the bytecode reader
//!   (`bytecode.read`), the profile-guided reoptimizer (the names
//!   of its two module passes, `pgo-inline` and `pgo-layout`),
//!   the lifelong store (`store.read`, `store.write`, `store.lock`), the
//!   tier engine (`jit.translate` — fail a function's translation;
//!   `native.translate` — fail the single-pass machine-code backend,
//!   permanently demoting the function to the JIT tier), the
//!   `lpatd` daemon (`serve.accept`, `serve.decode`, `serve.worker`,
//!   `serve.deadline` — one per layer of the request path; each must be
//!   absorbed as a structured per-request error, never a daemon crash),
//!   and the store's profile traffic (`store.journal` — hit once per
//!   durability step, in order: 1 before the append to the profile file,
//!   2 before its fsync, then, in a run that compacts, 3 before the new
//!   file's temp write, 4 before its rename over the old; `@N` therefore
//!   selects the exact crash point, and `delay=...@N` plus an external
//!   SIGKILL is how the chaos tests park a worker *between* two
//!   durability steps).
//! * `action` — `panic` (the site panics), `abort` (the site calls
//!   `std::process::abort()`, modeling a stack smash or allocator abort
//!   that no `catch_unwind` can absorb — only process-level supervision
//!   survives it), `delay=50ms` (the site sleeps, blowing any per-pass
//!   wall-clock budget), `corrupt` (the pass manager breaks the module
//!   *after* the pass runs, simulating a miscompiling pass for
//!   `--verify-each` to catch; store writes flip a payload byte before it
//!   reaches disk), or `io` (store sites fail with a synthetic I/O
//!   error).
//! * `@N` — fire only on the N-th hit of the site (1-based). Without it
//!   the spec fires on every hit.
//!
//! Example: `LPAT_FAULTS=gvn:panic@2,inline:delay=50ms`.
//!
//! # Determinism
//!
//! Hits are counted per site. Serial sites (module passes, the bytecode
//! reader) simply increment the counter. The parallel function-pass
//! executor instead *reserves* a contiguous ordinal range per sub-pass
//! before spawning workers and assigns `base + function_index` to each
//! per-function unit — so which unit faults depends only on function
//! order, never on thread scheduling, and output is byte-identical at any
//! `--jobs` value.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// What an armed fault site does when it fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The site panics (exercises `catch_unwind` isolation).
    Panic,
    /// The site sleeps for the given duration (exercises pass budgets).
    Delay(Duration),
    /// The surrounding manager corrupts the unit after the pass runs
    /// (exercises verifier-driven rollback); at store sites, the payload
    /// is corrupted *before* it reaches disk (exercises checksum-driven
    /// quarantine on the next read).
    Corrupt,
    /// The site fails with a synthetic I/O error (store sites only:
    /// exercises write-failure recovery; a no-op at compute sites).
    Io,
    /// The site calls [`std::process::abort`] — an unrecoverable,
    /// un-unwindable death that only process-level supervision (the
    /// `lpatd --isolate process` worker pool) can absorb. Fired directly
    /// inside [`FaultPlan::next`] so every existing site is abort-capable
    /// without per-site handling; the parallel [`FaultPlan::fires_at`]
    /// path intentionally does *not* abort (callers there treat it as
    /// [`FaultAction::Panic`]).
    Abort,
}

/// One `site:action[@N]` entry of a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fault-site name the spec arms.
    pub site: String,
    /// What happens when it fires.
    pub action: FaultAction,
    /// Fire only on this 1-based hit ordinal (`None` = every hit).
    pub at: Option<u64>,
}

/// A parsed fault plan plus its per-site hit counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    hits: Mutex<HashMap<String, u64>>,
}

impl FaultPlan {
    /// Parse the `site:action[@N],...` grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec '{part}': expected site:action[@N]"))?;
            let (action_str, at) = match rest.rsplit_once('@') {
                Some((a, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("fault spec '{part}': bad ordinal '@{n}'"))?;
                    if n == 0 {
                        return Err(format!("fault spec '{part}': ordinals are 1-based"));
                    }
                    (a, Some(n))
                }
                None => (rest, None),
            };
            let action = match action_str {
                "panic" => FaultAction::Panic,
                "corrupt" => FaultAction::Corrupt,
                "io" => FaultAction::Io,
                "abort" => FaultAction::Abort,
                other => match other.strip_prefix("delay=") {
                    Some(d) => FaultAction::Delay(parse_duration(d).ok_or_else(|| {
                        format!("fault spec '{part}': bad delay '{d}' (try 50ms or 1s)")
                    })?),
                    None => {
                        return Err(format!(
                            "fault spec '{part}': unknown action '{other}' \
                             (panic, abort, delay=<ms>, corrupt, io)"
                        ))
                    }
                },
            };
            if site.is_empty() {
                return Err(format!("fault spec '{part}': empty site name"));
            }
            specs.push(FaultSpec {
                site: site.to_string(),
                action,
                at,
            });
        }
        Ok(FaultPlan {
            specs,
            hits: Mutex::new(HashMap::new()),
        })
    }

    /// Whether the plan arms any spec for `site`.
    pub fn arms(&self, site: &str) -> bool {
        self.specs.iter().any(|s| s.site == site)
    }

    /// Register one hit of a *serial* site and return the action to take,
    /// if any spec fires at this ordinal.
    pub fn next(&self, site: &str) -> Option<FaultAction> {
        if !self.arms(site) {
            return None; // keep un-armed sites lock-free-ish and countless
        }
        let ordinal = {
            let mut hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
            let c = hits.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        let action = self.fires_at(site, ordinal);
        if action == Some(FaultAction::Abort) {
            // Abort is executed here, not returned: that makes every site
            // abort-capable without any caller knowing the variant exists,
            // and guarantees no `catch_unwind` between the site and the
            // death can dampen it.
            std::process::abort();
        }
        action
    }

    /// Reserve `n` consecutive ordinals of `site` for a parallel stage and
    /// return the first (1-based). Workers then evaluate
    /// [`FaultPlan::fires_at`] with `base + unit_index`, which keeps the
    /// fault placement independent of thread scheduling.
    pub fn reserve(&self, site: &str, n: u64) -> u64 {
        let mut hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
        let c = hits.entry(site.to_string()).or_insert(0);
        let base = *c + 1;
        *c += n;
        base
    }

    /// Pure check: does any spec for `site` fire at `ordinal`?
    pub fn fires_at(&self, site: &str, ordinal: u64) -> Option<FaultAction> {
        self.specs
            .iter()
            .find(|s| s.site == site && s.at.map(|n| n == ordinal).unwrap_or(true))
            .map(|s| s.action)
    }

    /// The parsed specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }
}

fn parse_duration(s: &str) -> Option<Duration> {
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(sec) = s.strip_suffix('s') {
        return sec.parse::<u64>().ok().map(Duration::from_secs);
    }
    s.parse::<u64>().ok().map(Duration::from_millis)
}

static GLOBAL: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();

/// Install a process-wide fault plan (the `--inject-faults` flag). Only
/// the first installation wins; returns `false` if a plan (or the absence
/// of one) was already fixed by an earlier [`install`] or [`global`] call.
pub fn install(plan: FaultPlan) -> bool {
    GLOBAL.set(Some(Arc::new(plan))).is_ok()
}

/// The process-wide fault plan: whatever [`install`] fixed, else the
/// `LPAT_FAULTS` environment variable parsed on first access (a malformed
/// value is reported to stderr once and ignored).
pub fn global() -> Option<Arc<FaultPlan>> {
    GLOBAL
        .get_or_init(|| match std::env::var("LPAT_FAULTS") {
            Ok(s) if !s.trim().is_empty() => match FaultPlan::parse(&s) {
                Ok(p) => Some(Arc::new(p)),
                Err(e) => {
                    eprintln!("warning: ignoring malformed LPAT_FAULTS: {e}");
                    None
                }
            },
            _ => None,
        })
        .clone()
}

/// Evaluate a named fault site against the process-wide plan (or an
/// explicit `Option<&FaultPlan>` first argument). Expands to an
/// `Option<FaultAction>` — the caller decides how the action manifests
/// (panic, sleep, or a structured error on no-panic paths such as the
/// bytecode reader).
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault::global().and_then(|p| p.next($site))
    };
    ($plan:expr, $site:expr) => {
        ($plan).and_then(|p: &$crate::fault::FaultPlan| p.next($site))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_grammar() {
        let p = FaultPlan::parse("gvn:panic@2, inline:delay=50ms,dge:corrupt").unwrap();
        assert_eq!(
            p.specs(),
            &[
                FaultSpec {
                    site: "gvn".into(),
                    action: FaultAction::Panic,
                    at: Some(2),
                },
                FaultSpec {
                    site: "inline".into(),
                    action: FaultAction::Delay(Duration::from_millis(50)),
                    at: None,
                },
                FaultSpec {
                    site: "dge".into(),
                    action: FaultAction::Corrupt,
                    at: None,
                },
            ]
        );
        assert_eq!(
            FaultPlan::parse("serve.worker:abort@3").unwrap().specs(),
            &[FaultSpec {
                site: "serve.worker".into(),
                action: FaultAction::Abort,
                at: Some(3),
            }]
        );
        assert!(FaultPlan::parse("gvn").is_err());
        assert!(FaultPlan::parse("gvn:explode").is_err());
        assert!(FaultPlan::parse("gvn:panic@0").is_err());
        assert!(FaultPlan::parse("gvn:delay=fast").is_err());
        assert!(FaultPlan::parse("").unwrap().specs().is_empty());
    }

    #[test]
    fn ordinal_counting_is_per_site() {
        let p = FaultPlan::parse("a:panic@2,b:panic@1").unwrap();
        assert_eq!(p.next("a"), None);
        assert_eq!(p.next("b"), Some(FaultAction::Panic));
        assert_eq!(p.next("a"), Some(FaultAction::Panic));
        assert_eq!(p.next("a"), None);
        assert_eq!(p.next("unarmed"), None);
    }

    #[test]
    fn unconditional_spec_fires_every_hit() {
        let p = FaultPlan::parse("a:panic").unwrap();
        for _ in 0..3 {
            assert_eq!(p.next("a"), Some(FaultAction::Panic));
        }
    }

    #[test]
    fn reserve_assigns_contiguous_ordinals() {
        let p = FaultPlan::parse("a:panic@5").unwrap();
        let base = p.reserve("a", 3); // ordinals 1..=3
        assert_eq!(base, 1);
        assert_eq!(p.fires_at("a", base + 2), None);
        let base = p.reserve("a", 3); // ordinals 4..=6
        assert_eq!(base, 4);
        assert_eq!(p.fires_at("a", base + 1), Some(FaultAction::Panic));
        assert_eq!(p.next("a"), None); // ordinal 7
    }
}
