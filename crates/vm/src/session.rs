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
//! * **I3** speculation reads the accumulated profile from the store, the
//!   only place a profile lives, and nothing else reads it before a run;
//! * **I4** the [`FlushGuard`] is armed before execution and flushes
//!   exactly once on every exit; a flush failure never fails the run;
//! * **I5** a store failure at any step degrades to an uncached or
//!   unprofiled run and is *reported* (a [`Note`]), never fatal;
//! * **I6** the module is verified after every mutation, before it is
//!   executed or saved;
//! * **I7** reopt is compact → load → no runs is an error →
//!   [`reoptimize`] → verify → save under the *source* hash.
//!
//! `Vm::new` comes after the profile load because speculation (which needs
//! the profile) must mutate the module before an engine borrows it.

use std::rc::Rc;

use lpat_core::Module;
use lpat_transform::{PipelineReport, SpecOptions, SpecPlan};

use crate::store::{FlushGuard, FlushOutcome, Quarantine};
use crate::{
    module_hash, reoptimize, ExecError, PgoOptions, PgoReport, Store, StoreError, Vm, VmOptions,
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
    /// Speculation ran against the prior profile.
    Speculated {
        /// Guards emitted into the executing module.
        emitted: usize,
        /// Plan entries retracted by their misspeculation rate.
        retracted: usize,
    },
    /// Speculation was asked for but no prior profile exists.
    NothingToSpeculate,
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
    /// Verify the module after every pass.
    pub verify_each: bool,
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
        pm.verify_each = cfg.verify_each;
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

/// What one run is asked to do. Every run is tiered: each function's
/// tier is decided at its first call — machine code when the native
/// backend accepts it, else the JIT ([`Vm::run_main_tiered`]).
pub struct RunConfig {
    /// The VM options, as the caller filled them. `opts.profile` decides
    /// whether this run's profile is flushed. A speculated run collects
    /// counters either way — a guard's outcomes are edge counts — and
    /// keeps them to itself without it.
    pub opts: VmOptions,
    /// Speculate on the prior profile with these thresholds.
    pub spec: Option<SpecOptions>,
}

/// What one run did.
pub struct RunReport<T> {
    /// `main`'s return value, or the trap that ended it.
    pub result: Result<i64, ExecError>,
    /// Captured program output.
    pub output: String,
    /// Instructions executed.
    pub insts: u64,
    /// Whether a cached reoptimized module replaced the one passed in.
    pub cache_hit: bool,
    /// The speculation plan, when speculation ran.
    pub spec_plan: Option<SpecPlan>,
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
/// cache, speculation on the prior profile, execution, profile flush.
/// `pre_exec` is called once, between set-up and execution (the
/// daemon's deadline check); `inspect` sees the finished [`Vm`] — its
/// module, and this run's profile before it moves into the flush — for
/// whatever the caller renders.
///
/// # Errors
///
/// See [`RunError`]. A trap is not an error here: it is the report's
/// `result`, and its profile is flushed like any other run's.
pub fn run<A, T>(
    mut module: Module,
    store: Option<&Store>,
    config: RunConfig,
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
    let mut spec = None;
    if let Some(sopts) = &config.spec {
        // Only speculation reads the prior profile. A bad profile file an
        // unspeculated run does not load is still quarantined, by the
        // append that records this run.
        let mut prior = None;
        if let Some(store) = store {
            match store.load_profile(run_hash) {
                Ok(loaded) => {
                    quarantines(&mut notes, loaded.quarantined);
                    prior = loaded.value.map(|stored| stored.profile);
                }
                Err(e) => notes.push(Note::LoadFailed(e)),
            }
        }
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
    pre_exec().map_err(RunError::Aborted)?;
    let mut flush = FlushGuard::new(store, run_hash);
    let result = vm.run_main_tiered();
    // Fold the VM's counters into the trace before it is drained.
    vm.flush_trace();
    let inspected = inspect(&vm);
    // Flushed on clean exit AND on trap: a lifetime profile that loses its
    // crashing runs is blind to the behaviour most worth reoptimizing.
    if profiling {
        flush.set_delta(std::mem::take(&mut vm.profile));
    }
    match flush.flush() {
        FlushOutcome::Flushed(moved) => quarantines(&mut notes, moved),
        FlushOutcome::Failed(e) => notes.push(Note::FlushFailed(e)),
        FlushOutcome::Skipped => {}
    }
    let output = std::mem::take(&mut vm.output);
    let insts = vm.insts_executed;
    drop(vm);
    Ok(RunReport {
        result,
        output,
        insts,
        cache_hit,
        spec_plan: spec.map(|(_, plan)| plan),
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
    /// No run of this module has been recorded in the store.
    NoProfile,
    /// Reoptimization left a module the verifier rejects.
    Verify(String),
}

impl std::fmt::Display for ReoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReoptError::Store(e) => write!(f, "{e}"),
            ReoptError::NoProfile => write!(f, "no profile recorded for this module yet"),
            ReoptError::Verify(e) => write!(f, "verifier: {e}"),
        }
    }
}

/// Reoptimize `module` offline with every run the store recorded for its
/// bytes (I7) and cache the result there for the next [`run`].
///
/// # Errors
///
/// See [`ReoptError`]; the store is left as it was.
pub fn reopt(
    mut module: Module,
    store: &Store,
    pgo: &PgoOptions,
) -> Result<ReoptReport, ReoptError> {
    let mut notes = Vec::new();
    let source_hash = module_hash(&module);
    // Idle time is when the runs appended since the last reopt are folded
    // into the profile's history. Failing to is no reason not to
    // reoptimize: they still read back.
    match store.compact(source_hash) {
        Ok(moved) => quarantines(&mut notes, moved),
        Err(e) => notes.push(Note::CompactFailed(e)),
    }
    let loaded = store.load_profile(source_hash).map_err(ReoptError::Store)?;
    quarantines(&mut notes, loaded.quarantined);
    let stored = loaded
        .value
        .filter(|stored| stored.runs > 0)
        .ok_or(ReoptError::NoProfile)?;
    let report = reoptimize(&mut module, &stored.profile, pgo);
    module
        .verify()
        .map_err(|e| ReoptError::Verify(e[0].to_string()))?;
    store
        .save_reopt(source_hash, &module)
        .map_err(ReoptError::Store)?;
    Ok(ReoptReport {
        module,
        source_hash,
        runs: stored.runs,
        pgo: report,
        notes,
    })
}
