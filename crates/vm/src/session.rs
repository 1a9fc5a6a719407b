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
//!   [`reoptimize`] → verify → save under the *source* hash;
//! * **I8** a loaded module is keyed by the bytes it was loaded from and
//!   everything else that shaped it, and is never stale: the
//!   [`ModuleCache`] serves the same bytes and shape the same module, and
//!   a reoptimized module is looked up by the bytes of the file the store
//!   holds now.
//!
//! `Vm::new` comes after the profile load because speculation (which needs
//! the profile) must mutate the module before an engine borrows it.

use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use lpat_core::{fault, trace, Module};
use lpat_transform::{PipelineReport, SpecOptions, SpecPlan};

use crate::store::{read_reopt, FlushGuard, FlushOutcome, Quarantine};
use crate::tier::TierCode;
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

// -- load ------------------------------------------------------------------

/// A module loaded once — verified, and optimized if its loader did — with
/// what every run of it can share: its store key, taken at most once, and
/// the tier each engine that ran it gave each function, with that code.
pub struct LoadedModule {
    module: Module,
    hash: OnceLock<u64>,
    tiers: Arc<TierCode>,
}

impl LoadedModule {
    fn new(module: Module) -> LoadedModule {
        LoadedModule {
            tiers: Arc::new(TierCode::new(module.num_funcs())),
            hash: OnceLock::new(),
            module,
        }
    }

    /// [`module_hash`], taken on the first call only: the store's key,
    /// which a run without a store never needs.
    pub fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| module_hash(&self.module))
    }
}

/// What a [`ModuleCache`] counted since it was made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served from the cache.
    pub hits: u64,
    /// Loads that ran their loader.
    pub misses: u64,
    /// Entries dropped to stay within the budget.
    pub evictions: u64,
    /// What the entries held now are charged ([`ModuleCache::load`]).
    pub bytes: u64,
}

/// One cached module and its key.
struct CacheEntry {
    shape: String,
    bytes: Vec<u8>,
    loaded: Arc<LoadedModule>,
    charge: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    clock: u64,
    stats: CacheStats,
}

/// Loaded modules, keyed by the bytes they were loaded from and a
/// `shape` naming everything else that made the module what it is (the
/// front end, whether it was optimized, its name, who asked), bounded in
/// bytes and evicting the least recently used. A hit compares the whole
/// key, never a hash of it, so no payload can pass for another. The
/// daemon keeps one for its life; `lpatc` makes one per command, so both
/// load through the same door. With a fault plan installed the cache is
/// bypassed entirely: every load runs its loader, and every engine
/// translates for itself, so each fault site fires at the ordinal it
/// would without a cache.
pub struct ModuleCache {
    budget: usize,
    state: Mutex<CacheState>,
}

/// Bytes charged per instruction slot: the instruction, its operands
/// and result type, and its share of one translation (a JIT `LowOp`, or
/// a few decoded machine ops and their side tables).
const INST_CHARGE: usize = 256;
/// Bytes charged per constant, type, global and function, with its
/// intern or name-table entry.
const ITEM_CHARGE: usize = 64;

/// What an entry is charged against the budget: its key, plus an
/// estimate of the module in memory and of its code once every function
/// has been translated. A fixed function of the module, so the bound
/// holds over entries whose code is still being filled in.
fn charge(shape: &str, bytes: &[u8], m: &Module) -> usize {
    let insts: usize = m.funcs().map(|(_, f)| f.num_inst_slots()).sum();
    let items = m.consts.len() + m.types.len() + m.num_globals() + m.num_funcs();
    shape.len() + bytes.len() + INST_CHARGE * insts + ITEM_CHARGE * items
}

impl ModuleCache {
    /// An empty cache that holds at most `budget` charged bytes.
    pub fn new(budget: usize) -> ModuleCache {
        ModuleCache {
            budget,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Poison-proof: a loader that panicked never held the lock, and the
    /// state is consistent between statements.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The module `bytes` load to under `shape`: the cached one when this
    /// key loaded before, else what `load` returns, cached. A load that
    /// fails caches nothing, and an entry whose charge exceeds the whole
    /// budget is returned uncached.
    ///
    /// # Errors
    ///
    /// Whatever `load` returns.
    pub fn load<E>(
        &self,
        shape: &str,
        bytes: &[u8],
        load: impl FnOnce() -> Result<Module, E>,
    ) -> Result<Arc<LoadedModule>, E> {
        if fault::global().is_some() {
            return load().map(|m| Arc::new(LoadedModule::new(m)));
        }
        {
            let mut st = self.state();
            st.clock += 1;
            let now = st.clock;
            if let Some(e) = find(&mut st.entries, shape, bytes) {
                e.last_used = now;
                let hit = e.loaded.clone();
                st.stats.hits += 1;
                trace::counter("vm.module_cache.hits", 1);
                return Ok(hit);
            }
            st.stats.misses += 1;
            trace::counter("vm.module_cache.misses", 1);
        }
        // Loaded unlocked: other keys are served meanwhile. Two threads
        // missing on one key both load it; the first to finish is kept.
        let loaded = Arc::new(LoadedModule::new(load()?));
        let charge = charge(shape, bytes, &loaded.module);
        if charge > self.budget {
            return Ok(loaded);
        }
        let mut st = self.state();
        st.clock += 1;
        let now = st.clock;
        if let Some(e) = find(&mut st.entries, shape, bytes) {
            e.last_used = now;
            return Ok(e.loaded.clone());
        }
        while st.stats.bytes as usize + charge > self.budget {
            let lru = (0..st.entries.len())
                .min_by_key(|&i| st.entries[i].last_used)
                .expect("a cache over budget holds an entry");
            let gone = st.entries.swap_remove(lru);
            st.stats.bytes -= gone.charge as u64;
            st.stats.evictions += 1;
            trace::counter("vm.module_cache.evictions", 1);
        }
        st.stats.bytes += charge as u64;
        st.entries.push(CacheEntry {
            shape: shape.to_string(),
            bytes: bytes.to_vec(),
            loaded: loaded.clone(),
            charge,
            last_used: now,
        });
        Ok(loaded)
    }

    /// What the cache counted so far, and what it holds now.
    pub fn stats(&self) -> CacheStats {
        self.state().stats
    }
}

/// The entry keyed by exactly `shape` and `bytes`.
fn find<'e>(
    entries: &'e mut [CacheEntry],
    shape: &str,
    bytes: &[u8],
) -> Option<&'e mut CacheEntry> {
    entries
        .iter_mut()
        .find(|e| e.bytes.len() == bytes.len() && e.shape == shape && e.bytes == bytes)
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

/// Execute the loaded module's `main` through the whole lifelong
/// pipeline: reopt cache, speculation on the prior profile, execution,
/// profile flush. The reoptimized module comes through `cache` too, so a
/// module it already holds is neither decoded nor verified again, and
/// engines running a cached module take each function's tier and code
/// from the runs before them. `pre_exec` is called once, between set-up
/// and execution (the daemon's deadline check); `inspect` sees the
/// finished [`Vm`] — its module, and this run's profile before it moves
/// into the flush — for whatever the caller renders.
///
/// # Errors
///
/// See [`RunError`]. A trap is not an error here: it is the report's
/// `result`, and its profile is flushed like any other run's.
pub fn run<A, T>(
    mut loaded: Arc<LoadedModule>,
    cache: &ModuleCache,
    store: Option<&Store>,
    config: RunConfig,
    pre_exec: impl FnOnce() -> Result<(), A>,
    inspect: impl FnOnce(&Vm<'_>) -> T,
) -> Result<RunReport<T>, RunError<A>> {
    let mut notes = Vec::new();
    let mut cache_hit = false;
    if let Some(store) = store {
        let source_hash = loaded.hash();
        let name = loaded.module.name.clone();
        let reopt = store.load_reopt_with(source_hash, |bytecode| {
            cache.load(&format!("reopt\0{name}"), bytecode, || {
                read_reopt(&name, bytecode)
            })
        });
        match reopt {
            Ok(found) => {
                quarantines(&mut notes, found.quarantined);
                if let Some(reoptimized) = found.value {
                    notes.push(Note::UsingReopt { source_hash });
                    loaded = reoptimized;
                    cache_hit = true;
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
            match store.load_profile(loaded.hash()) {
                Ok(found) => {
                    quarantines(&mut notes, found.quarantined);
                    prior = found.value.map(|stored| stored.profile);
                }
                Err(e) => notes.push(Note::LoadFailed(e)),
            }
        }
        match &prior {
            Some(p) => {
                // Guards go into a copy: the loaded module is shared.
                let mut module = loaded.module.clone();
                let (map, plan) =
                    lpat_transform::speculate::speculate(&mut module, &p.to_spec_profile(), sopts);
                module
                    .verify()
                    .map_err(|e| RunError::Verify(e[0].to_string()))?;
                notes.push(Note::Speculated {
                    emitted: plan.emitted(),
                    retracted: plan.retracted(),
                });
                spec = Some((module, Rc::new(map), plan));
            }
            None => notes.push(Note::NothingToSpeculate),
        }
    }
    let profiling = config.opts.profile;
    let module = spec.as_ref().map_or(&loaded.module, |(m, ..)| m);
    let mut vm = Vm::new(module, config.opts).map_err(RunError::BadModule)?;
    match &spec {
        Some((_, map, plan)) => {
            vm.install_speculation(map.clone(), plan.emitted() as u64, plan.retracted() as u64)
        }
        None => vm.share_tiers(&loaded.tiers),
    }
    pre_exec().map_err(RunError::Aborted)?;
    // The key of the module actually executed (I1), taken before
    // speculation (I2), and only when there is a store to file it in.
    let mut flush = FlushGuard::new(store, store.map_or(0, |_| loaded.hash()));
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
        spec_plan: spec.map(|(_, _, plan)| plan),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `@tri` is machine code; `@half` holds a `double`, so the native
    /// backend refuses it and it runs on the JIT.
    const TWO_TIERS: &str = "
declare void @print_int(int)
define internal int @tri(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}
define internal int @half(int %x) {
e:
  %d = cast int %x to double
  %h = mul double %d, 0x3FE0000000000000
  %r = cast double %h to int
  ret int %r
}
define int @main() {
e:
  %a = call int @tri(int 100)
  call void @print_int(int %a)
  %r = call int @half(int %a)
  ret int %r
}";

    /// The daemon's door for a payload without `FLAG_MINIC`: bytecode by
    /// its magic, else textual IR, verified.
    fn load_payload(bytes: &[u8]) -> Result<Module, String> {
        let m = if bytes.starts_with(b"LPAT") {
            lpat_bytecode::read_module("m", bytes).map_err(|e| e.to_string())?
        } else {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            lpat_asm::parse_module("m", text).map_err(|e| e.to_string())?
        };
        m.verify().map_err(|e| e[0].to_string())?;
        Ok(m)
    }

    fn load(cache: &ModuleCache, src: &str) -> Arc<LoadedModule> {
        cache
            .load("", src.as_bytes(), || load_payload(src.as_bytes()))
            .unwrap()
    }

    /// A program of `n` functions, so that its charge grows with `n`.
    fn program(n: usize) -> String {
        let mut src = String::new();
        for i in 0..n {
            src += &format!(
                "define int @f{i}(int %x) {{\ne:\n  %y = add int %x, {i}\n  ret int %y\n}}\n"
            );
        }
        src + "define int @main() {\ne:\n  ret int 0\n}\n"
    }

    #[test]
    fn lru_eviction_keeps_the_cache_within_its_budget() {
        let sources: Vec<String> = (1..=6).map(|k| program(4 * k)).collect();
        let one = charge(
            "",
            sources[5].as_bytes(),
            &load_payload(sources[5].as_bytes()).unwrap(),
        );
        let budget = 2 * one;
        let cache = ModuleCache::new(budget);
        for round in 0..3 {
            for src in &sources {
                load(&cache, src);
                let st = cache.stats();
                assert!(st.bytes as usize <= budget, "round {round}: {st:?}");
            }
        }
        let st = cache.stats();
        assert!(st.evictions > 0, "{st:?}");
        assert_eq!(st.hits + st.misses, 18);
        // The most recently used entry is still there, and the least
        // recently used one was dropped first.
        let before = cache.stats();
        load(&cache, &sources[5]);
        assert_eq!(cache.stats().hits, before.hits + 1);
        load(&cache, &sources[0]);
        assert_eq!(cache.stats().misses, before.misses + 1);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_never_stored() {
        let src = program(8);
        let cache = ModuleCache::new(src.len());
        let a = load(&cache, &src);
        let b = load(&cache, &src);
        assert!(!Arc::ptr_eq(&a, &b), "the second load must load again");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.bytes), (0, 2, 0));
    }

    #[test]
    fn hostile_payloads_leave_the_cache_empty() {
        let good = lpat_bytecode::write_module(&load_payload(TWO_TIERS.as_bytes()).unwrap());
        let hostile: [Vec<u8>; 3] = [
            b"define int @main( THIS IS NOT A MODULE {{{".to_vec(),
            good[..good.len() / 2].to_vec(),
            vec![0xFF, 0xFE, 0x80, 0x81, 0xC0, 0x00, 0xFF],
        ];
        let cache = ModuleCache::new(1 << 20);
        for _ in 0..2 {
            for bytes in &hostile {
                assert!(cache.load("", bytes, || load_payload(bytes)).is_err());
            }
        }
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.bytes), (0, 6, 0));
    }

    #[test]
    fn the_same_bytes_under_another_shape_are_another_module() {
        let cache = ModuleCache::new(1 << 20);
        let bytes = TWO_TIERS.as_bytes();
        let a = cache.load("plain", bytes, || load_payload(bytes)).unwrap();
        let b = cache.load("opt", bytes, || load_payload(bytes)).unwrap();
        let c = cache.load("plain", bytes, || load_payload(bytes)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
    }

    /// Everything the contract says a run observes, plus the tier table.
    type Observed = (
        [u64; lpat_core::Inst::NUM_OPCODES],
        Option<u64>,
        crate::ProfileData,
    );

    fn observe(cache: &ModuleCache, loaded: &Arc<LoadedModule>) -> (Observed, crate::TierStats) {
        let config = RunConfig {
            opts: VmOptions {
                fuel: Some(1_000_000),
                profile: true,
                ..VmOptions::default()
            },
            spec: None,
        };
        let report = run(
            loaded.clone(),
            cache,
            None,
            config,
            || Ok::<(), ()>(()),
            |vm| {
                let refused: Vec<String> =
                    vm.native_refusals().map(|(f, _)| f.to_string()).collect();
                assert_eq!(refused, ["half"]);
                (
                    (vm.opcode_counts, vm.opts.fuel, vm.profile.clone()),
                    vm.tier_stats.clone(),
                )
            },
        )
        .unwrap();
        assert_eq!(report.result.unwrap(), 2475);
        assert_eq!(report.output, "4950\n");
        report.inspected
    }

    #[test]
    fn an_engine_seeded_from_cached_code_observes_what_a_translating_one_does() {
        let cache = ModuleCache::new(1 << 20);
        let loaded = load(&cache, TWO_TIERS);
        let (first, translated) = observe(&cache, &loaded);
        assert_eq!(
            (translated.native_translated, translated.translated),
            (2, 1)
        );
        let again = load(&cache, TWO_TIERS);
        assert!(Arc::ptr_eq(&loaded, &again));
        let (second, seeded) = observe(&cache, &again);
        assert_eq!((seeded.native_translated, seeded.translated), (0, 0));
        assert_eq!(
            (seeded.native_promoted, seeded.promoted),
            (translated.native_promoted, translated.promoted)
        );
        assert_eq!(first, second);
        assert_eq!(seeded.native_insts, translated.native_insts);
        assert_eq!(seeded.jit_insts, translated.jit_insts);
        assert!(seeded.native_insts > 0 && seeded.jit_insts > 0);
    }
}
