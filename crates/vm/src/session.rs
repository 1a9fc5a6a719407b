//! One pipeline: the lifelong life-cycle of a program (paper §3, Figure 4),
//! written once.
//!
//! `lpatc` and the `lpatd` request path are thin callers: each turns its
//! own options (argv, wire flags) into an [`OptConfig`], a [`RunConfig`]
//! or a [`PgoOptions`], calls [`optimize`], [`run`] or [`reopt`] with the
//! one [`Store`] of its cache directory, and renders the report — stderr
//! notes and an exit code on one side, a response frame on the other. Both
//! lay a directory out alike, so either reads what the other wrote. What
//! callers must *not* have to know lives here (DESIGN.md §9 gives the
//! reasons):
//!
//! * **I1** a profile is keyed by the hash of the module *actually
//!   executed* — the cached reoptimized module when there is one;
//! * **I2** that hash is taken *before* speculation: guards are an
//!   in-memory overlay, never part of a persisted module or its key;
//! * **I3** speculation and warm-start read the same accumulated profile:
//!   the store's, plus an explicit file only if it was recorded for
//!   `run_hash`;
//! * **I4** the [`FlushGuard`] is armed before execution and flushes
//!   exactly once on every exit; a flush failure never fails the run;
//! * **I5** a store failure at any step degrades to an uncached or
//!   unprofiled run and is *reported* (a [`Note`]), never fatal;
//! * **I6** the module is verified after every mutation, before it is
//!   executed or saved;
//! * **I7** reopt is compact → load → merge the explicit file → no runs is
//!   an error → [`reoptimize`] → verify → save under the *source* hash.
//!
//! `Vm::new` comes after the profile load because speculation (which needs
//! the profile) must mutate the module before an engine borrows it.

use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use lpat_core::Module;
use lpat_transform::{PipelineReport, SpecOptions, SpecPlan};

use crate::store::{read_profile_file, FlushGuard, FlushOutcome, Quarantine};
use crate::{
    module_hash, reoptimize, ExecError, PgoOptions, PgoReport, ProfileData, Store, StoreError,
    StoredProfile, Vm, VmOptions,
};

/// Something the session did or had to work around, in the order it
/// happened. Nothing here failed the run; callers render what they care
/// about (a stderr line, a counter) and drop the rest.
#[derive(Debug)]
pub enum Note {
    /// The store moved a bad file aside and carried on without it.
    Quarantined(Quarantine),
    /// Looking for a cached reoptimized module, or loading the lifetime
    /// profile, failed; the run carried on without it.
    LoadFailed(StoreError),
    /// This run's profile delta could not be persisted and is dropped.
    FlushFailed(StoreError),
    /// The runs appended to the profile could not be folded before a reopt.
    CompactFailed(StoreError),
    /// A reoptimized module cached for `source_hash` is what runs.
    UsingReopt {
        /// Hash of the module as loaded, before the replacement.
        source_hash: u64,
    },
    /// The explicit profile file was recorded for other module bytes.
    StaleProfileIn {
        /// The hash the file carries.
        found: u64,
        /// The hash of the module about to run.
        have: u64,
    },
    /// The explicit profile file could not be read.
    UnreadableProfileIn(StoreError),
    /// Speculation ran against the prior profile.
    Speculated {
        /// Guards emitted into the executing module.
        emitted: usize,
        /// Plan entries retracted by their misspeculation rate.
        retracted: usize,
    },
    /// Speculation was asked for but no prior profile exists.
    NothingToSpeculate,
    /// The tiered engine promoted this many functions from the prior
    /// profile before execution began.
    WarmStarted(usize),
}

fn quarantines(notes: &mut Vec<Note>, moved: Vec<Quarantine>) {
    notes.extend(moved.into_iter().map(Note::Quarantined));
}

// -- compile ---------------------------------------------------------------

/// The pass-manager settings of one compile.
#[derive(Clone, Debug, Default)]
pub struct OptConfig {
    /// Run the per-module function pipeline.
    pub function: bool,
    /// Run the link-time interprocedural pipeline after it.
    pub link_time: bool,
    /// Worker threads (`None` = the pass manager's default).
    pub jobs: Option<usize>,
    /// Verify the module after every pass.
    pub verify_each: bool,
    /// Make a faulting pass fatal instead of rolling it back.
    pub no_degrade: bool,
    /// Per-pass wall-clock budget.
    pub budget: Option<Duration>,
}

/// Run the pipelines `cfg` selects over `m`, then verify it (I6). Returns
/// one titled report per pipeline that ran; isolated pass faults are in
/// each report's `faults`.
///
/// # Errors
///
/// The first verifier error, as text.
pub fn optimize(
    m: &mut Module,
    cfg: &OptConfig,
) -> Result<Vec<(&'static str, PipelineReport)>, String> {
    let mut reports = Vec::new();
    let mut stage = |title, mut pm: lpat_transform::PassManager| {
        pm.jobs = cfg.jobs;
        pm.verify_each = cfg.verify_each;
        pm.degrade = !cfg.no_degrade;
        pm.budget = cfg.budget;
        reports.push((title, pm.run(m)));
    };
    if cfg.function {
        stage("function pipeline", lpat_transform::function_pipeline());
    }
    if cfg.link_time {
        stage("link-time pipeline", lpat_transform::link_time_pipeline());
    }
    m.verify().map_err(|e| e[0].to_string())?;
    Ok(reports)
}

// -- run -------------------------------------------------------------------

/// Which engine executes `main`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The profiling interpreter.
    Interp,
    /// Translate every function on first call.
    Jit,
    /// Start interpreted; promote hot functions to the JIT and, while
    /// they stay hot, to machine code (`VmOptions::tier_up`, then
    /// `native_up`).
    Tiered,
}

/// What one run is asked to do.
pub struct RunConfig<'a> {
    /// The engine.
    pub mode: Mode,
    /// The VM options, as the caller filled them. `opts.profile` decides
    /// whether this run's profile is flushed. A speculated run collects
    /// counters either way — a guard's outcomes are edge counts — and
    /// keeps them to itself without it.
    pub opts: VmOptions,
    /// Speculate on the prior profile with these thresholds.
    pub spec: Option<SpecOptions>,
    /// An explicit prior profile file (`--profile-in`).
    pub profile_in: Option<&'a Path>,
    /// Return the explicit profile merged with this run's counters in
    /// [`RunReport::lifetime`] (costs one copy of the counters).
    pub lifetime: bool,
}

/// What one run did.
pub struct RunReport<T> {
    /// `main`'s return value, or the trap that ended it.
    pub result: Result<i64, ExecError>,
    /// Captured program output.
    pub output: String,
    /// Instructions executed.
    pub insts: u64,
    /// The module that was executed (reoptimized, speculated).
    pub module: Module,
    /// Its hash before speculation: the key of this run's profile.
    pub run_hash: u64,
    /// Whether a cached reoptimized module replaced the one passed in.
    pub cache_hit: bool,
    /// The speculation plan, when speculation ran.
    pub spec_plan: Option<SpecPlan>,
    /// The explicit profile plus this run ([`RunConfig::lifetime`]).
    pub lifetime: Option<StoredProfile>,
    /// In order, what happened on the way.
    pub notes: Vec<Note>,
    /// What the caller's `inspect` returned.
    pub inspected: T,
}

/// Why a run did not execute.
#[derive(Debug)]
pub enum RunError<A> {
    /// Speculation left a module the verifier rejects.
    Verify(String),
    /// `Vm::new` refused the module.
    BadModule(ExecError),
    /// The caller's `pre_exec` hook said stop.
    Aborted(A),
}

/// Execute `module`'s `main` through the whole lifelong pipeline: reopt
/// cache, prior profile, speculation, warm-start, execution, profile
/// flush. `pre_exec` is called once, between set-up and execution (the
/// daemon's deadline check); `inspect` sees the finished [`Vm`] after the
/// flush, for whatever counters the caller renders.
///
/// # Errors
///
/// See [`RunError`]. A trap is not an error here: it is the report's
/// `result`, and its profile is flushed like any other run's.
pub fn run<A, T>(
    mut module: Module,
    store: Option<&Store>,
    config: RunConfig<'_>,
    pre_exec: impl FnOnce() -> Result<(), A>,
    inspect: impl FnOnce(&Vm<'_>) -> T,
) -> Result<RunReport<T>, RunError<A>> {
    let mut notes = Vec::new();
    let mut run_hash = module_hash(&module);
    let mut cache_hit = false;
    if let Some(store) = store {
        match store.load_reopt(run_hash, &module.name) {
            Ok(loaded) => {
                quarantines(&mut notes, loaded.quarantined);
                if let Some(reoptimized) = loaded.value {
                    notes.push(Note::UsingReopt {
                        source_hash: run_hash,
                    });
                    module = reoptimized;
                    cache_hit = true;
                    run_hash = module_hash(&module);
                }
            }
            Err(e) => notes.push(Note::LoadFailed(e)),
        }
    }
    let mut explicit = None;
    if let Some(path) = config.profile_in {
        match read_profile_file(path) {
            Ok((found, stored)) if found == run_hash => explicit = Some(stored),
            Ok((found, _)) => notes.push(Note::StaleProfileIn {
                found,
                have: run_hash,
            }),
            Err(e) => notes.push(Note::UnreadableProfileIn(e)),
        }
    }
    let mut prior: Option<ProfileData> = explicit
        .as_ref()
        .filter(|stored| stored.runs > 0)
        .map(|stored| stored.profile.clone());
    if let Some(store) = store {
        match store.load_profile(run_hash) {
            Ok(loaded) => {
                quarantines(&mut notes, loaded.quarantined);
                match (&mut prior, loaded.value) {
                    (Some(p), Some(stored)) => p.merge_saturating(&stored.profile),
                    (None, Some(stored)) => prior = Some(stored.profile),
                    (_, None) => {}
                }
            }
            Err(e) => notes.push(Note::LoadFailed(e)),
        }
    }
    let mut spec = None;
    if let Some(sopts) = &config.spec {
        match &prior {
            Some(p) => {
                let (map, plan) =
                    lpat_transform::speculate::speculate(&mut module, &p.to_spec_profile(), sopts);
                module
                    .verify()
                    .map_err(|e| RunError::Verify(e[0].to_string()))?;
                notes.push(Note::Speculated {
                    emitted: plan.emitted(),
                    retracted: plan.retracted(),
                });
                spec = Some((Rc::new(map), plan));
            }
            None => notes.push(Note::NothingToSpeculate),
        }
    }
    let profiling = config.opts.profile;
    let mut vm = Vm::new(&module, config.opts).map_err(RunError::BadModule)?;
    if let Some((map, plan)) = &spec {
        vm.install_speculation(map.clone(), plan.emitted() as u64, plan.retracted() as u64);
    }
    if let (Mode::Tiered, Some(p)) = (config.mode, &prior) {
        let warmed = vm.warm_start(p);
        if warmed > 0 {
            notes.push(Note::WarmStarted(warmed));
        }
    }
    pre_exec().map_err(RunError::Aborted)?;
    let mut flush = FlushGuard::new(store, run_hash);
    let result = match config.mode {
        Mode::Interp => vm.run_main(),
        Mode::Jit => vm.run_main_jit(),
        Mode::Tiered => vm.run_main_tiered(),
    };
    // Fold the VM's counters into the trace before it is drained.
    vm.flush_trace();
    // Flushed on clean exit AND on trap: a lifetime profile that loses its
    // crashing runs is blind to the behaviour most worth reoptimizing.
    let mut lifetime = None;
    if profiling {
        if config.lifetime {
            let mut stored = explicit.unwrap_or(StoredProfile {
                profile: ProfileData::default(),
                runs: 0,
            });
            stored.profile.merge_saturating(&vm.profile);
            stored.runs = stored.runs.saturating_add(1);
            lifetime = Some(stored);
        }
        flush.set_delta(std::mem::take(&mut vm.profile));
    }
    match flush.flush() {
        FlushOutcome::Flushed(moved) => quarantines(&mut notes, moved),
        FlushOutcome::Failed(e) => notes.push(Note::FlushFailed(e)),
        FlushOutcome::Skipped => {}
    }
    let inspected = inspect(&vm);
    let output = std::mem::take(&mut vm.output);
    let insts = vm.insts_executed;
    drop(vm);
    Ok(RunReport {
        result,
        output,
        insts,
        module,
        run_hash,
        cache_hit,
        spec_plan: spec.map(|(_, plan)| plan),
        lifetime,
        notes,
        inspected,
    })
}

// -- reopt -----------------------------------------------------------------

/// What one offline reoptimization did.
pub struct ReoptReport {
    /// The reoptimized module.
    pub module: Module,
    /// Hash of the module as passed in: the key the result is cached
    /// under, and the key its profile was read from.
    pub source_hash: u64,
    /// Runs of profile the reoptimizer consumed.
    pub runs: u64,
    /// What the reoptimizer did.
    pub pgo: PgoReport,
    /// In order, what happened on the way.
    pub notes: Vec<Note>,
}

/// Why a reoptimization produced nothing.
#[derive(Debug)]
pub enum ReoptError {
    /// Loading the profile or saving the module failed.
    Store(StoreError),
    /// The explicit profile file could not be read.
    UnreadableProfileIn(StoreError),
    /// The explicit profile file was recorded for other module bytes.
    StaleProfileIn {
        /// The hash the file carries.
        found: u64,
        /// The hash of the module in hand.
        source_hash: u64,
    },
    /// No run of this module has been recorded anywhere.
    NoProfile,
    /// Reoptimization left a module the verifier rejects.
    Verify(String),
}

impl std::fmt::Display for ReoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReoptError::Store(e) | ReoptError::UnreadableProfileIn(e) => write!(f, "{e}"),
            ReoptError::StaleProfileIn { found, source_hash } => write!(
                f,
                "profile was recorded for module {found:016x}, \
                 this module is {source_hash:016x} (stale; not applied)"
            ),
            ReoptError::NoProfile => write!(f, "no profile recorded for this module yet"),
            ReoptError::Verify(e) => write!(f, "verifier: {e}"),
        }
    }
}

/// Reoptimize `module` offline with every profile recorded for its bytes
/// (I7) and, given a store, cache the result for the next [`run`].
///
/// # Errors
///
/// See [`ReoptError`]; the store is left as it was.
pub fn reopt(
    mut module: Module,
    store: Option<&Store>,
    pgo: &PgoOptions,
    profile_in: Option<&Path>,
) -> Result<ReoptReport, ReoptError> {
    let mut notes = Vec::new();
    let source_hash = module_hash(&module);
    let mut profile = ProfileData::default();
    let mut runs = 0u64;
    if let Some(store) = store {
        // Idle time is when the runs appended since the last reopt are
        // folded into the profile's history. Failing to is no reason not
        // to reoptimize: they still read back.
        match store.compact(source_hash) {
            Ok(moved) => quarantines(&mut notes, moved),
            Err(e) => notes.push(Note::CompactFailed(e)),
        }
        let loaded = store.load_profile(source_hash).map_err(ReoptError::Store)?;
        quarantines(&mut notes, loaded.quarantined);
        if let Some(stored) = loaded.value {
            profile = stored.profile;
            runs = stored.runs;
        }
    }
    if let Some(path) = profile_in {
        let (found, stored) = read_profile_file(path).map_err(ReoptError::UnreadableProfileIn)?;
        if found != source_hash {
            return Err(ReoptError::StaleProfileIn { found, source_hash });
        }
        profile.merge_saturating(&stored.profile);
        runs += stored.runs;
    }
    if runs == 0 {
        return Err(ReoptError::NoProfile);
    }
    let report = reoptimize(&mut module, &profile, pgo);
    module
        .verify()
        .map_err(|e| ReoptError::Verify(e[0].to_string()))?;
    if let Some(store) = store {
        store
            .save_reopt(source_hash, &module)
            .map_err(ReoptError::Store)?;
    }
    Ok(ReoptReport {
        module,
        source_hash,
        runs,
        pgo: report,
        notes,
    })
}
