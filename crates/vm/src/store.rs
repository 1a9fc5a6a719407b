//! The crash-safe lifelong store (paper §3.3, §3.5–§3.6).
//!
//! The paper's defining claim is *lifelong* transformation: profile data
//! gathered at runtime is stored alongside the bytecode and consumed by an
//! idle-time reoptimizer across runs. This module is that durable half — a
//! versioned on-disk cache directory holding
//!
//! * serialized [`ProfileData`], keyed by a content hash of the module it
//!   was gathered on (a profile from changed bytecode is *stale* and is
//!   quarantined, never applied), with successive runs merged by
//!   saturating addition so hot-loop detection sharpens over a program's
//!   lifetime; and
//! * reoptimized bytecode produced by the PGO pipeline, keyed the same
//!   way.
//!
//! # Always make progress
//!
//! Every failure mode degrades to "start fresh", never to a poisoned
//! cache or a dead process:
//!
//! | failure                      | classification                 | recovery |
//! |------------------------------|--------------------------------|----------|
//! | file absent                  | [`StoreError::Missing`]        | regenerate |
//! | old/foreign file layout      | [`StoreError::VersionMismatch`]| quarantine + regenerate |
//! | torn write / bit rot / junk  | [`StoreError::ChecksumFail`]   | quarantine + regenerate |
//! | profile from other bytecode  | [`StoreError::StaleHash`]      | quarantine + regenerate |
//! | concurrent writer persists   | [`StoreError::Locked`]         | skip persisting this run |
//! | I/O failure                  | [`StoreError::Io`]             | surface; cache untouched |
//!
//! A writer locks the key it writes: the kernel's advisory lock
//! (`File::try_lock`) on `<dir>/lock-XX`, `XX` the key's top byte in hex,
//! with a bounded, deterministic retry-with-backoff schedule (the clock is
//! injectable for tests). Two writers of one module always serialize —
//! the append/compact protocol needs that order — while writers of
//! different modules share a stripe one time in 256, so a daemon's
//! concurrent flushes do not queue behind each other's fsync and one
//! directory serves `lpatc` and `lpatd` alike. The lock lives with the
//! holder's open descriptor, so the kernel releases it when that closes —
//! on drop, on exit and on SIGKILL alike: a dead writer never holds the
//! store, and nothing guesses whether one is alive. A `lock-XX` file is
//! created on first use and never removed. Readers take no lock.
//!
//! # What is on disk
//!
//! Every file the store keeps is a `lpat_core::wire::file_header`
//! followed by `lpat_core::wire` records (DESIGN.md §14):
//!
//! ```text
//! reopt-<hash>.lbc    "LPRO"  one record: source module_hash: u64, bytecode
//! deny-<hash>.lpd     "LPDY"  one record: a DenyRecord's five fields
//! profile-<hash>.lpp  "LPPL"  the head: module_hash: u64, folded_runs: u64
//!                             iff folded_runs > 0, the history: those runs'
//!                                 merged ProfileData::to_bytes()
//!                             then one ProfileData::to_bytes() per run since
//! ```
//!
//! A file is replaced whole by one `atomic_replace` (temp file, fsync,
//! rename, directory fsync): a kill at any byte leaves the old version or
//! the new, and [`Store::open`] sweeps, under the file's lock, the temp it
//! left.
//!
//! A profile is a log that compacts itself. [`Store::record_run`] takes
//! the module's lock, appends the run's record with a single `write`
//! (header and head in front of a module's first), fsyncs once, and
//! returns: the delta is durable. [`Store::load_profile`] returns the saturating sum of the
//! records — addition commutes, so that is what a read-merge-rewrite per
//! run would have stored. Compaction is an `atomic_replace` of the file by
//! one whose history is that sum: at idle time ([`Store::compact`], from
//! `lpatc reopt` and the daemon's `Reopt` op), and in the appender once
//! the records behind the history pass a couple of KiB, so a reader's fold
//! stays bounded under traffic that never reoptimizes.
//!
//! Only what a kill can cause is forgiven. A killed appender leaves a tail
//! that fails its CRC (or a file that ends inside its header or head):
//! readers ignore it and the next appender cuts it off, so a kill at *any*
//! byte loses at most the in-flight delta and leaves nothing to
//! quarantine. The head and the history arrive by rename or at the front
//! of a file's first write, never torn: if either fails its CRC, or the
//! file is keyed to another module, or a CRC-valid record does not decode,
//! the file is quarantined and the module starts over.
//!
//! All I/O paths carry `lpat_core::fault` sites: `store.read` (per file
//! read), `store.write` (per append or whole-file write), `store.lock`,
//! and `store.journal`, hit once per durability step of profile traffic —
//! 1 before the append, 2 before its fsync, 3 before compaction's temp
//! write, 4 before its rename — so `store.journal:delay=...@N` parks a
//! writer *between* two steps for an external SIGKILL: killed before step
//! 1 the in-flight delta is lost, before 2–4 it is kept.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use lpat_core::fault::{self, FaultAction, FaultPlan};
use lpat_core::hash::fnv1a64;
use lpat_core::trace;
use lpat_core::wire::{
    file_header, file_records, push_record, records, Cursor, HeaderError, FILE_HEADER_LEN,
};
use lpat_core::Module;

use crate::profile::ProfileData;

/// Stable content hash of a module: the hash of its canonical bytecode
/// serialization. This is the key every stored artifact is filed under.
pub fn module_hash(m: &Module) -> u64 {
    fnv1a64(&lpat_bytecode::write_module(m))
}

/// Deterministic file label for trace arguments: the final path component
/// only — cache directories are run-specific temp paths, but artifact file
/// names are keyed by content hash and stable across runs.
fn file_label(path: &Path) -> String {
    path.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Run one file operation under a `store` / `"<verb> <file>"` span; a
/// failure's class becomes the span's `error` argument.
fn traced<T>(
    verb: &str,
    path: &Path,
    op: impl FnOnce(&mut trace::Span) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let name = if trace::enabled() {
        format!("{verb} {}", file_label(path))
    } else {
        String::new()
    };
    let mut sp = trace::span("store", name);
    let r = op(&mut sp);
    if let Err(e) = &r {
        sp.arg("error", e.class());
    }
    r
}

/// Classified store failure. See the module-level recovery matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// No artifact on disk for this key.
    Missing,
    /// The file is of a store version this build does not read.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The file failed validation: bad magic, truncation, CRC mismatch, or
    /// a payload that does not decode.
    ChecksumFail(String),
    /// The artifact is keyed to different module bytes than the ones in
    /// hand — it was gathered on an older build and must not be applied.
    StaleHash {
        /// Hash of the module being loaded for.
        expected: u64,
        /// Hash recorded in the file.
        found: u64,
    },
    /// The store lock could not be acquired within the retry budget.
    Locked,
    /// An underlying I/O failure (including injected ones).
    Io(String),
}

impl StoreError {
    /// Short machine-stable class name for this error variant, used to key
    /// per-class diagnostics deduplication and trace event arguments.
    pub fn class(&self) -> &'static str {
        match self {
            StoreError::Missing => "missing",
            StoreError::VersionMismatch { .. } => "version-mismatch",
            StoreError::ChecksumFail(_) => "checksum-fail",
            StoreError::StaleHash { .. } => "stale-hash",
            StoreError::Locked => "locked",
            StoreError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "no cached artifact"),
            StoreError::VersionMismatch { found } => {
                write!(f, "store file version {found} unsupported")
            }
            StoreError::ChecksumFail(m) => write!(f, "integrity failure: {m}"),
            StoreError::StaleHash { expected, found } => write!(
                f,
                "stale artifact: keyed to module {found:016x}, have {expected:016x}"
            ),
            StoreError::Locked => write!(f, "store locked by another process"),
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{what}: {e}"))
}

/// Record of one bad file moved aside during a load.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// The file that failed validation.
    pub original: PathBuf,
    /// Where it was moved (`<name>.corrupt-N`), if the move succeeded.
    pub moved_to: Option<PathBuf>,
    /// Why it was quarantined.
    pub error: StoreError,
}

impl std::fmt::Display for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quarantined {}: {}", self.original.display(), self.error)?;
        if let Some(to) = &self.moved_to {
            write!(f, " (moved to {})", to.display())?;
        }
        Ok(())
    }
}

/// A load result plus the recovery actions it took.
#[derive(Clone, Debug)]
pub struct Loaded<T> {
    /// The loaded value (`None` = nothing usable; start fresh).
    pub value: T,
    /// Bad files moved aside on the way.
    pub quarantined: Vec<Quarantine>,
}

/// A lifetime profile as stored: merged counters plus how many runs fed
/// them.
#[derive(Clone, Debug)]
pub struct StoredProfile {
    /// Saturating-merged counters over all recorded runs.
    pub profile: ProfileData,
    /// Number of runs merged in.
    pub runs: u64,
}

/// Lock attempts after the first before giving up with
/// [`StoreError::Locked`].
const LOCK_RETRIES: u32 = 20;
/// Base backoff; retry `n` waits `LOCK_BACKOFF << min(n, 6)` — a
/// deterministic schedule, not a randomized one.
const LOCK_BACKOFF: Duration = Duration::from_millis(2);

/// Injectable time source for the lock backoff, so contention tests run
/// deterministic schedules without wall-clock sleeps.
pub trait Clock: Send + Sync {
    /// Sleep for `d`.
    fn sleep(&self, d: Duration);
}

/// The production clock: actually sleeps.
pub struct RealClock;

impl Clock for RealClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A versioned, crash-safe cache directory.
pub struct Store {
    dir: PathBuf,
    /// Fault plan override; `None` uses the process-wide plan
    /// (`--inject-faults` / `LPAT_FAULTS`).
    pub faults: Option<Arc<FaultPlan>>,
    clock: Box<dyn Clock>,
}

impl Store {
    /// Open (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", dir.display())))?;
        let store = Store {
            dir,
            faults: None,
            clock: Box::new(RealClock),
        };
        store.sweep_debris();
        Ok(store)
    }

    /// Replace the backoff clock (tests).
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Store {
        self.clock = clock;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the lifetime profile of a module hash: the one file every
    /// run of the module appends to and every compaction replaces.
    pub fn profile_path(&self, module_hash: u64) -> PathBuf {
        self.dir.join(format!("profile-{module_hash:016x}.lpp"))
    }

    /// Path of the reoptimized-bytecode artifact for a module hash.
    pub fn reopt_path(&self, module_hash: u64) -> PathBuf {
        self.dir.join(format!("reopt-{module_hash:016x}.lbc"))
    }

    /// Path of the crash-loop denylist record for a payload hash.
    pub fn deny_path(&self, payload_hash: u64) -> PathBuf {
        self.dir.join(format!("deny-{payload_hash:016x}.lpd"))
    }

    // -- reading ---------------------------------------------------------

    /// Read one store file whole, under a `read <file>` span and the
    /// `store.read` fault site.
    fn read_file(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        traced("read", path, |_| read_faulted(path, self.faults.as_deref()))
    }

    /// Move a bad file aside as `<name>.corrupt-N` so it is preserved for
    /// inspection but never read again.
    fn quarantine(&self, path: &Path, error: StoreError) -> Quarantine {
        if trace::enabled() {
            trace::instant_args(
                "store",
                "quarantine",
                vec![
                    ("class", error.class().to_string()),
                    ("file", file_label(path)),
                ],
            );
        }
        let mut moved_to = None;
        for n in 1..1000u32 {
            let candidate = PathBuf::from(format!("{}.corrupt-{n}", path.display()));
            if candidate.exists() {
                continue;
            }
            if std::fs::rename(path, &candidate).is_ok() {
                moved_to = Some(candidate);
            }
            break;
        }
        if moved_to.is_none() {
            // Rename failed (or 999 siblings): removing is still safer
            // than re-reading bad data forever.
            let _ = std::fs::remove_file(path);
        }
        Quarantine {
            original: path.to_path_buf(),
            moved_to,
            error,
        }
    }

    /// Read and decode one artifact. Absent is `None`; a file that fails
    /// `decode` is quarantined into `quarantined` and reads as absent too;
    /// only genuine I/O failures are errors.
    fn read_artifact<T>(
        &self,
        path: &Path,
        quarantined: &mut Vec<Quarantine>,
        decode: impl FnOnce(Vec<u8>) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        match self.read_file(path).and_then(decode) {
            Ok(v) => Ok(Some(v)),
            Err(StoreError::Missing) => Ok(None),
            Err(e @ StoreError::Io(_)) => Err(e),
            Err(recoverable) => {
                quarantined.push(self.quarantine(path, recoverable));
                Ok(None)
            }
        }
    }

    /// Load the lifetime profile for `module_hash` — every run recorded
    /// for it, compacted or not — recovering from a bad file by
    /// quarantining it. Takes no lock.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures surface; every *content* failure recovers
    /// to `value: None` plus a [`Quarantine`] record.
    pub fn load_profile(
        &self,
        module_hash: u64,
    ) -> Result<Loaded<Option<StoredProfile>>, StoreError> {
        let mut quarantined = Vec::new();
        let folded = self.fold(module_hash, &mut quarantined)?;
        let value = folded.map(|f| {
            trace::counter("store.log_records_folded", f.appended);
            f.stored
        });
        Ok(Loaded { value, quarantined })
    }

    /// What the profile file of `module_hash` holds; `None` when that is
    /// no run at all.
    fn fold(
        &self,
        module_hash: u64,
        quarantined: &mut Vec<Quarantine>,
    ) -> Result<Option<Folded>, StoreError> {
        let folded = self.read_artifact(&self.profile_path(module_hash), quarantined, |bytes| {
            parse_profile(bytes, module_hash)?
                .map(|file| file.fold())
                .transpose()
        })?;
        Ok(folded.flatten().filter(|f| f.stored.runs > 0))
    }

    /// Load the cached reoptimized module for `module_hash`, recovering
    /// from any bad file by quarantining it.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures surface.
    pub fn load_reopt(
        &self,
        module_hash: u64,
        name: &str,
    ) -> Result<Loaded<Option<Module>>, StoreError> {
        let mut quarantined = Vec::new();
        let value =
            self.read_artifact(&self.reopt_path(module_hash), &mut quarantined, |bytes| {
                let payload = one_record(&bytes, REOPT_MAGIC)?;
                let found = Cursor::new(payload)
                    .u64("source hash")
                    .map_err(|e| StoreError::ChecksumFail(e.0))?;
                let bytecode = &payload[8..];
                if found != module_hash {
                    return Err(StoreError::StaleHash {
                        expected: module_hash,
                        found,
                    });
                }
                // The hardened bytecode reader plus a full verify: CRC
                // protects against storage faults, not against a buggy
                // writer, and a cached module runs with user authority.
                lpat_bytecode::read_module(name, bytecode)
                    .map_err(|e| e.to_string())
                    .and_then(|m| match m.verify() {
                        Ok(()) => Ok(m),
                        Err(errs) => Err(format!("verifier: {}", errs[0])),
                    })
                    .map_err(|e| StoreError::ChecksumFail(format!("module payload: {e}")))
            })?;
        Ok(Loaded { value, quarantined })
    }

    // -- writing ---------------------------------------------------------

    /// Replace one whole artifact under a `write <file>` span. Callers
    /// hold its key's lock.
    fn write_file(&self, path: &Path, bytes: Vec<u8>) -> Result<(), StoreError> {
        traced("write", path, |_| {
            atomic_replace(path, bytes, self.faults.as_deref())
        })
    }

    /// Persist the reoptimized module derived from source `module_hash`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another writer holds `module_hash`'s
    /// lock past the retry budget; [`StoreError::Io`] on write failure.
    pub fn save_reopt(&self, module_hash: u64, m: &Module) -> Result<(), StoreError> {
        let mut payload = module_hash.to_le_bytes().to_vec();
        payload.extend_from_slice(&lpat_bytecode::write_module(m));
        let _guard = self.lock(module_hash)?;
        self.write_file(
            &self.reopt_path(module_hash),
            one_record_file(REOPT_MAGIC, &payload),
        )
    }

    /// Make one run's counters part of the stored lifetime profile: under
    /// the module's lock, append them to its profile file and fsync it.
    /// When this returns `Ok` the delta survives a kill or a power cut.
    /// Returns what had to be moved aside to get there (a file whose head
    /// or history does not validate).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another writer holds the module's lock
    /// past the retry budget, [`StoreError::Io`] on write failure. In both
    /// cases the on-disk state is unchanged (this run's counts are simply
    /// not recorded — the always-make-progress posture).
    pub fn record_run(
        &self,
        module_hash: u64,
        run: &ProfileData,
    ) -> Result<Vec<Quarantine>, StoreError> {
        let _guard = self.lock(module_hash)?;
        let path = self.profile_path(module_hash);
        let mut quarantined = Vec::new();
        let pending = traced("append", &path, |sp| {
            self.append_locked(module_hash, run, &path, &mut quarantined, sp)
        })?;
        if pending > COMPACT_BYTES {
            // The delta is already durable: a compaction that fails leaves
            // the records for the next one and must not fail this flush.
            if let Ok(mut q) = self.compact_locked(module_hash) {
                quarantined.append(&mut q);
            }
        }
        Ok(quarantined)
    }

    /// The append proper; returns how many bytes of records now stand
    /// behind the file's folded history.
    fn append_locked(
        &self,
        module_hash: u64,
        run: &ProfileData,
        path: &Path,
        quarantined: &mut Vec<Quarantine>,
        sp: &mut trace::Span,
    ) -> Result<usize, StoreError> {
        let plan = self.faults.as_deref();
        // Append after the CRC-valid prefix, not after whatever is there:
        // behind a dead writer's torn tail a record would be unreachable.
        let mut old_len = 0;
        let (keep, tail) = self
            .read_artifact(path, quarantined, |bytes| {
                old_len = bytes.len();
                parse_profile(bytes, module_hash)
            })?
            .flatten()
            .map_or((0, PROFILE_HEAD_LEN), |file| (file.len, file.tail));
        let mut rec = if keep == 0 {
            profile_head(module_hash, 0)
        } else {
            Vec::new()
        };
        push_record(&mut rec, &run.to_bytes());
        write_fault(plan, &mut rec)?;
        journal_step(plan, 1)?;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open profile", e))?;
        if old_len > keep {
            f.set_len(keep as u64)
                .map_err(|e| io_err("truncate profile", e))?;
        }
        // One write call per record: a writer killed inside it leaves a
        // torn tail the CRC catches, never half a record that validates.
        let durable = f
            .write_all(&rec)
            .map_err(|e| io_err("append profile", e))
            .and_then(|()| journal_step(plan, 2))
            .and_then(|()| f.sync_all().map_err(|e| io_err("fsync profile", e)));
        if let Err(e) = durable {
            // A clean failure, not a crash: take the append back so the
            // on-disk state is what it was.
            let _ = if keep == 0 {
                std::fs::remove_file(path)
            } else {
                f.set_len(keep as u64)
            };
            return Err(e);
        }
        if keep == 0 {
            sync_dir(&self.dir);
        }
        sp.arg("bytes", rec.len().to_string());
        Ok(keep + rec.len() - tail)
    }

    /// Fold the runs appended to the profile of `module_hash` into its
    /// history — the idle-time half of [`Store::record_run`], called where
    /// the reoptimizer runs. A file with nothing appended is left alone.
    /// Returns the bad files moved aside on the way.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] or [`StoreError::Io`]; the file then simply
    /// stays, and every run in it still reads back.
    pub fn compact(&self, module_hash: u64) -> Result<Vec<Quarantine>, StoreError> {
        let _guard = self.lock(module_hash)?;
        self.compact_locked(module_hash)
    }

    fn compact_locked(&self, module_hash: u64) -> Result<Vec<Quarantine>, StoreError> {
        let path = self.profile_path(module_hash);
        traced("compact", &path, |sp| {
            let mut quarantined = Vec::new();
            let folded = self.fold(module_hash, &mut quarantined)?;
            if let Some(f) = folded.filter(|f| f.appended > 0) {
                sp.arg("records", f.appended.to_string());
                sp.arg("bytes", f.appended_bytes.to_string());
                let bytes = encode_profile(module_hash, &f.stored.profile, f.stored.runs);
                atomic_replace(&path, bytes, self.faults.as_deref())?;
            }
            Ok(quarantined)
        })
    }

    // -- locking ---------------------------------------------------------

    /// Acquire the writer lock of `key` — an artifact's module, source or
    /// payload hash — with bounded, deterministic backoff. Keys with the
    /// same top byte share one lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] after the retry budget; [`StoreError::Io`]
    /// for unexpected filesystem failures.
    pub fn lock(&self, key: u64) -> Result<LockGuard, StoreError> {
        let mut sp = trace::span("store", "lock");
        let r = self.lock_inner(key);
        if trace::enabled() {
            if let Err(e) = &r {
                sp.arg("error", e.class());
            }
        }
        r
    }

    fn lock_inner(&self, key: u64) -> Result<LockGuard, StoreError> {
        for attempt in 0..=LOCK_RETRIES {
            // The fault site models a held/contended lock: any non-delay
            // action fails this acquisition attempt.
            let contended = match fault_at(self.faults.as_deref(), "store.lock") {
                None => false,
                Some(FaultAction::Delay(d)) => {
                    std::thread::sleep(d);
                    false
                }
                Some(_) => true,
            };
            if !contended {
                if let Some(guard) = self.try_lock_once(key)? {
                    return Ok(guard);
                }
            }
            if attempt < LOCK_RETRIES {
                // Deterministic exponential backoff, capped at 64× base.
                let shift = attempt.min(6);
                self.clock.sleep(LOCK_BACKOFF * (1u32 << shift));
            }
        }
        Err(StoreError::Locked)
    }

    /// The file whose kernel lock is `key`'s: one of 256 stripes.
    fn lock_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("lock-{:02x}", key >> 56))
    }

    /// One attempt at `key`'s lock, through a descriptor of its own: the
    /// lock belongs to the open file description, so two opens conflict
    /// even within one process (two daemon threads writing one module),
    /// where two `try_lock`s on one handle would both succeed. `None` =
    /// held.
    fn try_lock_once(&self, key: u64) -> Result<Option<LockGuard>, StoreError> {
        let path = self.lock_path(key);
        let io = |e| StoreError::Io(format!("lock {}: {e}", path.display()));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io)?;
        match file.try_lock() {
            Ok(()) => Ok(Some(LockGuard { _file: file })),
            Err(std::fs::TryLockError::WouldBlock) => Ok(None),
            Err(std::fs::TryLockError::Error(e)) => Err(io(e)),
        }
    }

    // -- crash debris ----------------------------------------------------

    /// Remove the `.tmp-<pid>` files of writers killed between their temp
    /// write and their rename, and any `profile-*.log`, which only a store
    /// from before the one-file profile wrote — each only if one try of
    /// its key's lock succeeds. Every writer of a temp held that lock, so
    /// a free lock means none of them is alive; a held one may be a live
    /// writer's, and whoever opens the store next sweeps what it leaves. A
    /// name that carries no key is not the store's and stays.
    fn sweep_debris(&self) {
        let mut swept = 0u64;
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for entry in rd.filter_map(|e| e.ok()) {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let debris = name.contains(".tmp-")
                    || name.starts_with("profile-") && name.ends_with(".log");
                let Some(key) = artifact_key(&name).filter(|_| debris) else {
                    continue;
                };
                if let Ok(Some(_guard)) = self.try_lock_once(key) {
                    if std::fs::remove_file(entry.path()).is_ok() {
                        swept += 1;
                    }
                }
            }
        }
        if trace::enabled() && swept > 0 {
            trace::instant_args(
                "store",
                "journal.recovery",
                vec![("swept", swept.to_string())],
            );
        }
    }
}

/// The key an artifact's file name carries — the 16 hex digits after its
/// kind, as in `profile-<key>.lpp.tmp-<pid>` — or `None`.
fn artifact_key(name: &str) -> Option<u64> {
    let (_, rest) = name.split_once('-')?;
    u64::from_str_radix(rest.get(..16)?, 16).ok()
}

// -- fault sites and the one whole-file write ------------------------------

fn fault_at(plan: Option<&FaultPlan>, site: &str) -> Option<FaultAction> {
    match plan {
        Some(p) => p.next(site),
        None => fault::global().and_then(|p| p.next(site)),
    }
}

/// `std::fs::read` behind the `store.read` site.
fn read_faulted(path: &Path, plan: Option<&FaultPlan>) -> Result<Vec<u8>, StoreError> {
    match fault_at(plan, "store.read") {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(_) => return Err(StoreError::Io("injected fault at site 'store.read'".into())),
        None => {}
    }
    match std::fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::Missing),
        Err(e) => Err(StoreError::Io(format!("read {}: {e}", path.display()))),
    }
}

/// The `store.write` site, evaluated once per write of `bytes`. `corrupt`
/// simulates a lying disk: one byte is damaged *before* it reaches the
/// file, and the next read must catch it by checksum.
fn write_fault(plan: Option<&FaultPlan>, bytes: &mut [u8]) -> Result<(), StoreError> {
    match fault_at(plan, "store.write") {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Corrupt) => {
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x01;
            }
        }
        Some(_) => {
            return Err(StoreError::Io(
                "injected fault at site 'store.write'".into(),
            ))
        }
        None => {}
    }
    Ok(())
}

/// One `store.journal` evaluation per durability step of profile traffic
/// (1-based; the module docs list the steps). `Delay` parks the
/// writer *before* the step's action — the chaos tests SIGKILL it there —
/// and any other action fails the step with a synthetic I/O error.
fn journal_step(plan: Option<&FaultPlan>, step: u8) -> Result<(), StoreError> {
    match fault_at(plan, "store.journal") {
        None | Some(FaultAction::Corrupt) => Ok(()),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(_) => Err(StoreError::Io(format!(
            "injected fault at site 'store.journal' (step {step})"
        ))),
    }
}

/// Durability of a create, rename or unlink in `dir` (best-effort: not
/// every filesystem lets a directory be fsynced).
fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Replace `path` with `bytes`, atomically: write `<path>.tmp-<pid>`,
/// fsync it, rename it into place, fsync the directory. A kill at any
/// point leaves the old content or the new, never a mix, and at worst an
/// orphan temp for [`Store::open`] to sweep; a clean failure removes its
/// temp and leaves the old content. Every whole-file write is this one, a
/// compaction included — hence `store.journal` steps 3 and 4.
fn atomic_replace(
    path: &Path,
    mut bytes: Vec<u8>,
    plan: Option<&FaultPlan>,
) -> Result<(), StoreError> {
    write_fault(plan, &mut bytes)?;
    let tmp = PathBuf::from(format!("{}.tmp-{}", path.display(), std::process::id()));
    let write = (|| -> Result<(), StoreError> {
        journal_step(plan, 3)?;
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        f.write_all(&bytes).map_err(|e| io_err("write temp", e))?;
        f.sync_all().map_err(|e| io_err("fsync temp", e))?;
        journal_step(plan, 4)?;
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename into place", e))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
        Ok(())
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

// -- the one file shape ------------------------------------------------------

/// Version of every file the store writes; a change to any payload bumps
/// it. Version 1 was the two-file profile (an LPCF base beside an LPPL
/// log), LPCF reoptimized modules and unframed LPDY records.
const STORE_VERSION: u16 = 2;
const PROFILE_MAGIC: [u8; 4] = *b"LPPL";
const REOPT_MAGIC: [u8; 4] = *b"LPRO";
const DENY_MAGIC: [u8; 4] = *b"LPDY";

fn header_err(e: HeaderError) -> StoreError {
    match e {
        HeaderError::Version(found) => StoreError::VersionMismatch {
            found: found.into(),
        },
        HeaderError::BadMagic => StoreError::ChecksumFail("bad magic".into()),
        HeaderError::Truncated => StoreError::ChecksumFail("truncated header".into()),
    }
}

/// A whole file of one record: a reoptimized module, a deny record.
fn one_record_file(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = file_header(magic, STORE_VERSION).to_vec();
    push_record(&mut out, payload);
    out
}

/// The payload of a [`one_record_file`]; anything but the header and
/// exactly one whole, CRC-valid record is damage.
fn one_record(bytes: &[u8], magic: [u8; 4]) -> Result<&[u8], StoreError> {
    let body = file_records(bytes, magic, STORE_VERSION).map_err(header_err)?;
    records(body, u32::MAX)
        .next()
        .filter(|payload| 8 + payload.len() == body.len())
        .ok_or_else(|| StoreError::ChecksumFail("record torn or damaged".into()))
}

// -- the profile file --------------------------------------------------------

/// Header plus head record: what a profile file's first append writes in
/// front of the run's own record.
const PROFILE_HEAD_LEN: usize = FILE_HEADER_LEN + 8 + 16;
/// The append that takes the records behind a file's history past this
/// folds them into it. Sized by measurement, not configuration. A load
/// decodes every pending record and a compaction costs a temp write, two
/// more fsyncs and a rename than an append, so the bound trades one against
/// the other: over the fifteen `lpat_workloads::suite` programs (records of
/// 120–290 bytes, a load after every run, ext4) the mean `record_run` +
/// `load_profile` is 0.30 + 0.03 ms at 1 KiB, 0.25 + 0.04 at 2 KiB, 0.24 +
/// 0.05 at 4 KiB, 0.22 + 0.09 at 8 KiB and 0.25 + 0.15 at 16 KiB, against
/// 0.02 ms for a load with nothing pending (taken on the two-file layout
/// this replaced, whose compaction also unlinked a log).
const COMPACT_BYTES: usize = 2 * 1024;

/// The first [`PROFILE_HEAD_LEN`] bytes of a profile file.
fn profile_head(module_hash: u64, folded_runs: u64) -> Vec<u8> {
    let head = [module_hash.to_le_bytes(), folded_runs.to_le_bytes()].concat();
    one_record_file(PROFILE_MAGIC, &head)
}

/// A compacted profile file: head, then — of a profile that has any runs —
/// the history.
fn encode_profile(module_hash: u64, profile: &ProfileData, runs: u64) -> Vec<u8> {
    let mut out = profile_head(module_hash, runs);
    if runs > 0 {
        push_record(&mut out, &profile.to_bytes());
    }
    out
}

/// A profile file as read, its payloads still encoded.
struct ProfileFile {
    bytes: Vec<u8>,
    folded_runs: u64,
    /// Where the appended records start: after the head and the history.
    tail: usize,
    /// Where the CRC-valid records end; beyond is a torn tail.
    len: usize,
}

/// What a profile file holds, decoded.
struct Folded {
    stored: StoredProfile,
    /// Records behind the history, and their bytes: what a compaction of
    /// this file would fold.
    appended: u64,
    appended_bytes: usize,
}

/// Find a profile file's head and valid prefix; the module hash in the
/// head must be `expected`. `Ok(None)` for a file that ends inside its
/// header or head: its writer died creating it, nothing in it was ever
/// durable, and the next appender starts it over.
fn parse_profile(bytes: Vec<u8>, expected: u64) -> Result<Option<ProfileFile>, StoreError> {
    let body = match file_records(&bytes, PROFILE_MAGIC, STORE_VERSION) {
        Err(HeaderError::Truncated) => return Ok(None),
        body => body.map_err(header_err)?,
    };
    if bytes.len() < PROFILE_HEAD_LEN {
        return Ok(None);
    }
    let bad = |what: &str| StoreError::ChecksumFail(format!("profile: {what}"));
    let mut scan = records(body, u32::MAX);
    let mut head = Cursor::new(scan.next().ok_or_else(|| bad("damaged head"))?);
    let (Ok(hash), Ok(folded_runs), Ok(())) = (
        head.u64("module hash"),
        head.u64("folded runs"),
        head.finish("head"),
    ) else {
        return Err(bad("damaged head"));
    };
    if hash != expected {
        return Err(StoreError::StaleHash {
            expected,
            found: hash,
        });
    }
    let mut tail = PROFILE_HEAD_LEN;
    if folded_runs > 0 {
        // The head says a compaction wrote this file, so the history was
        // there whole when the rename made it visible: no torn tail.
        let history = scan.next().ok_or_else(|| bad("damaged history"))?;
        tail += 8 + history.len();
    }
    let len = tail + scan.map(|payload| 8 + payload.len()).sum::<usize>();
    Ok(Some(ProfileFile {
        bytes,
        folded_runs,
        tail,
        len,
    }))
}

impl ProfileFile {
    /// Sum the history and every record behind it.
    fn fold(&self) -> Result<Folded, StoreError> {
        let mut profile = ProfileData::default();
        let mut n = 0u64;
        for payload in records(&self.bytes[PROFILE_HEAD_LEN..self.len], u32::MAX) {
            profile
                .merge_bytes(payload)
                .map_err(|e| StoreError::ChecksumFail(format!("profile record: {e}")))?;
            n += 1;
        }
        let appended = n - u64::from(self.folded_runs > 0);
        Ok(Folded {
            stored: StoredProfile {
                profile,
                runs: self.folded_runs.saturating_add(appended),
            },
            appended,
            appended_bytes: self.len - self.tail,
        })
    }
}

// -- crash-loop denylist records ------------------------------------------

/// Persisted crash-loop state for one module payload hash: how many times
/// it has crashed a worker, when, and whether it crossed the breaker
/// threshold (denylisted). Written by `lpatd` when a worker dies;
/// surviving a daemon restart is the point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenyRecord {
    /// FNV-1a hash of the raw request payload (not the parsed module —
    /// the daemon must not parse a crashing payload to key its record).
    pub hash: u64,
    /// Worker crashes attributed to this payload.
    pub count: u32,
    /// Whether the hash is denylisted (breaker tripped).
    pub denied: bool,
    /// Unix milliseconds of the first recorded crash.
    pub first_unix_ms: u64,
    /// Unix milliseconds of the most recent recorded crash.
    pub last_unix_ms: u64,
}

impl DenyRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = self.hash.to_le_bytes().to_vec();
        p.extend_from_slice(&self.count.to_le_bytes());
        p.push(self.denied as u8);
        p.extend_from_slice(&self.first_unix_ms.to_le_bytes());
        p.extend_from_slice(&self.last_unix_ms.to_le_bytes());
        one_record_file(DENY_MAGIC, &p)
    }

    fn decode(b: &[u8]) -> Option<DenyRecord> {
        let mut c = Cursor::new(one_record(b, DENY_MAGIC).ok()?);
        let rec = DenyRecord {
            hash: c.u64("hash").ok()?,
            count: c.u32("count").ok()?,
            denied: c.u8("denied").ok()? != 0,
            first_unix_ms: c.u64("first crash").ok()?,
            last_unix_ms: c.u64("last crash").ok()?,
        };
        c.finish("deny record").ok().map(|()| rec)
    }
}

impl Store {
    /// Load the crash-loop record for `payload_hash`. Tolerant by design:
    /// a missing, torn, or stale-format record reads as `None` (and a bad
    /// file is removed) — the breaker merely starts counting again.
    pub fn load_deny(&self, payload_hash: u64) -> Option<DenyRecord> {
        let path = self.deny_path(payload_hash);
        let bytes = std::fs::read(&path).ok()?;
        match DenyRecord::decode(&bytes) {
            Some(rec) if rec.hash == payload_hash => Some(rec),
            _ => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persist a crash-loop record (atomically, under its payload hash's
    /// lock).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] or [`StoreError::Io`] — the caller keeps
    /// its in-memory breaker state either way.
    pub fn save_deny(&self, rec: &DenyRecord) -> Result<(), StoreError> {
        let _guard = self.lock(rec.hash)?;
        self.write_file(&self.deny_path(rec.hash), rec.encode())
    }
}

// -- exactly-once profile flushing ----------------------------------------

/// The outcome of the one flush a [`FlushGuard`] performs.
#[derive(Debug)]
pub enum FlushOutcome {
    /// No store configured or no delta recorded; nothing to persist.
    Skipped,
    /// The delta is durable in the store; these bad files were moved
    /// aside on the way (usually none).
    Flushed(Vec<Quarantine>),
    /// The store refused (lock budget, I/O); this run's counts are
    /// dropped — the always-make-progress posture.
    Failed(StoreError),
}

/// RAII guard that flushes one run's profile delta into the store
/// **exactly once** — on explicit [`FlushGuard::flush`] (the happy path,
/// so the caller can report quarantines) or on drop (early-return, trap,
/// and panic paths). [`crate::session::run`] — and so both `lpatc run`
/// and `lpatd` workers — funnels profile persistence through this one
/// type, so no exit route can flush twice (double-counting a run) or zero
/// times (losing the crashing runs the lifelong profile most needs).
pub struct FlushGuard<'s> {
    store: Option<&'s Store>,
    run_hash: u64,
    delta: Option<ProfileData>,
    done: bool,
}

impl<'s> FlushGuard<'s> {
    /// Arm a guard for `run_hash`. With `store: None` every flush is a
    /// no-op (uncached runs share the same control flow).
    pub fn new(store: Option<&'s Store>, run_hash: u64) -> FlushGuard<'s> {
        FlushGuard {
            store,
            run_hash,
            delta: None,
            done: false,
        }
    }

    /// Record the delta to persist (this run's counters). Until this is
    /// called, flushing is a no-op — a run that never executed has
    /// nothing to persist.
    pub fn set_delta(&mut self, delta: ProfileData) {
        self.delta = Some(delta);
    }

    /// Perform the flush if it has not happened yet; subsequent calls
    /// (including the one from `Drop`) return [`FlushOutcome::Skipped`]
    /// without touching the store.
    pub fn flush(&mut self) -> FlushOutcome {
        if self.done {
            return FlushOutcome::Skipped;
        }
        self.done = true;
        let (store, delta) = match (self.store, self.delta.take()) {
            (Some(s), Some(d)) => (s, d),
            _ => return FlushOutcome::Skipped,
        };
        match store.record_run(self.run_hash, &delta) {
            Ok(quarantined) => FlushOutcome::Flushed(quarantined),
            Err(e) => FlushOutcome::Failed(e),
        }
    }
}

impl Drop for FlushGuard<'_> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Holds one key's lock: the descriptor the kernel's lock lives on.
/// Dropping it closes the descriptor, which releases the lock.
#[derive(Debug)]
pub struct LockGuard {
    _file: std::fs::File,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_core::hash::SplitMix64;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lpat-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn plan(s: &str) -> Option<Arc<FaultPlan>> {
        Some(Arc::new(FaultPlan::parse(s).unwrap()))
    }

    fn sample_profile() -> ProfileData {
        let mut p = ProfileData::default();
        p.block_counts.insert(
            (
                lpat_core::FuncId::from_index(0),
                lpat_core::BlockId::from_index(1),
            ),
            10,
        );
        p.call_counts.insert(lpat_core::FuncId::from_index(2), 3);
        p
    }

    /// Park at `h`'s path the file a compaction of `runs` runs that
    /// merged to `sample_profile` leaves.
    fn put_compacted(store: &Store, h: u64, runs: u64) {
        let bytes = encode_profile(h, &sample_profile(), runs);
        std::fs::write(store.profile_path(h), bytes).unwrap();
    }

    /// The profile file of `h` as it stands, which must parse.
    fn file_of(store: &Store, h: u64) -> ProfileFile {
        let bytes = std::fs::read(store.profile_path(h)).unwrap();
        parse_profile(bytes, h).unwrap().unwrap()
    }

    fn runs_of(store: &Store, h: u64) -> u64 {
        let loaded = store.load_profile(h).unwrap();
        assert!(loaded.quarantined.is_empty(), "{:?}", loaded.quarantined);
        loaded.value.map_or(0, |sp| sp.runs)
    }

    /// Names in the store directory containing `pat`.
    fn files_with(store: &Store, pat: &str) -> Vec<String> {
        std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(pat))
            .collect()
    }

    /// Appends of `sample_profile` that leave a fresh file one record
    /// short of compacting: the next `record_run` is the one that folds it.
    fn fill_to_brink(store: &Store, h: u64) -> u64 {
        let mut n = 0;
        loop {
            store.record_run(h, &sample_profile()).unwrap();
            n += 1;
            let pending = file_of(store, h).len - PROFILE_HEAD_LEN;
            if pending + pending / n as usize > COMPACT_BYTES {
                return n;
            }
        }
    }

    /// A clock that records sleeps instead of performing them.
    struct CountingClock(AtomicU32);
    impl Clock for CountingClock {
        fn sleep(&self, _d: Duration) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn profile_roundtrip_and_merge_across_runs() {
        let store = Store::open(tmpdir("roundtrip")).unwrap();
        let h = 0xABCD;
        assert!(store.load_profile(h).unwrap().value.is_none());
        store.record_run(h, &sample_profile()).unwrap();
        assert_eq!(runs_of(&store, h), 1);
        store.record_run(h, &sample_profile()).unwrap();
        let loaded = store.load_profile(h).unwrap().value.unwrap();
        assert_eq!(loaded.runs, 2);
        assert_eq!(
            loaded.profile.block_count(
                lpat_core::FuncId::from_index(0),
                lpat_core::BlockId::from_index(1)
            ),
            20,
            "two runs merge to exactly doubled counts"
        );
        // Compaction moves the same profile from two records into the
        // history, in the same file.
        assert_eq!(file_of(&store, h).folded_runs, 0);
        assert!(store.compact(h).unwrap().is_empty());
        assert_eq!(files_with(&store, "profile-").len(), 1);
        assert_eq!(
            std::fs::read(store.profile_path(h)).unwrap(),
            encode_profile(h, &loaded.profile, 2)
        );
        let compacted = store.load_profile(h).unwrap().value.unwrap();
        assert_eq!(compacted.runs, 2);
        assert_eq!(compacted.profile, loaded.profile);
        // Nothing appended since: a second compaction leaves the file be.
        let before = std::fs::metadata(store.profile_path(h)).unwrap().modified();
        store.compact(h).unwrap();
        let after = std::fs::metadata(store.profile_path(h)).unwrap().modified();
        assert_eq!(before.unwrap(), after.unwrap());
    }

    #[test]
    fn corrupt_file_quarantined_and_recovered_to_empty() {
        let store = Store::open(tmpdir("corrupt")).unwrap();
        let h = 0x11;
        std::fs::write(store.profile_path(h), b"LPCFgarbage-not-a-container").unwrap();
        let out = store.load_profile(h).unwrap();
        assert!(out.value.is_none());
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert!(
            matches!(
                q.error,
                StoreError::ChecksumFail(_) | StoreError::VersionMismatch { .. }
            ),
            "{:?}",
            q.error
        );
        assert!(q.moved_to.as_ref().unwrap().exists());
        assert!(!store.profile_path(h).exists(), "bad file moved aside");
        // Next load is clean.
        let again = store.load_profile(h).unwrap();
        assert!(again.value.is_none() && again.quarantined.is_empty());
    }

    #[test]
    fn stale_hash_is_quarantined_not_applied() {
        let store = Store::open(tmpdir("stale")).unwrap();
        put_compacted(&store, 0xAA, 1);
        // Same file, asked for under a different module hash: stale.
        std::fs::rename(store.profile_path(0xAA), store.profile_path(0xBB)).unwrap();
        let out = store.load_profile(0xBB).unwrap();
        assert!(out.value.is_none());
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::StaleHash {
                expected: 0xBB,
                found: 0xAA
            }
        ));
        // The same for a file no compaction has touched, and for the
        // appender, which must not add 0xCC's run to 0xAA's.
        store.record_run(0xAA, &sample_profile()).unwrap();
        std::fs::rename(store.profile_path(0xAA), store.profile_path(0xCC)).unwrap();
        let q = store.record_run(0xCC, &sample_profile()).unwrap();
        assert!(matches!(
            q[0].error,
            StoreError::StaleHash {
                expected: 0xCC,
                found: 0xAA
            }
        ));
        assert_eq!(runs_of(&store, 0xCC), 1);
    }

    #[test]
    fn version_mismatch_is_classified_and_quarantined() {
        let store = Store::open(tmpdir("version")).unwrap();
        put_compacted(&store, 0xCC, 1);
        let path = store.profile_path(0xCC);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xFE; // the header's version field
        std::fs::write(&path, bytes).unwrap();
        let out = store.load_profile(0xCC).unwrap();
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::VersionMismatch { found } if found == 0xFE
        ));
    }

    /// Migration: what a store of the two-file layout left behind — an
    /// LPCF base at the profile path, an LPPL version-1 log beside it, an
    /// LPCF reoptimized module — is classified, moved aside once and
    /// regenerated. Nothing in it is read as this layout's data.
    #[test]
    fn files_of_the_two_file_layout_are_quarantined_never_misread() {
        let dir = tmpdir("migrate-v1");
        let h = 0x99u64;
        let scratch = Store::open(&dir).unwrap();
        let (profile, reopt) = (scratch.profile_path(h), scratch.reopt_path(h));
        let log = dir.join(format!("profile-{h:016x}.log"));
        // "LPCF", container version 2, a kind tag, a section count: how
        // both LPCF files opened.
        let lpcf = |kind: &[u8; 4]| {
            let mut b = b"LPCF".to_vec();
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(kind);
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&[0xAB; 64]);
            b
        };
        // "LPPL", version 1 as a u32, an epoch, then records that carried
        // the module hash in front of the counts.
        let mut v1_log = b"LPPL".to_vec();
        v1_log.extend_from_slice(&1u32.to_le_bytes());
        v1_log.extend_from_slice(&1u64.to_le_bytes());
        v1_log.extend_from_slice(&[0; 4]);
        push_record(
            &mut v1_log,
            &[&h.to_le_bytes()[..], &sample_profile().to_bytes()].concat(),
        );
        std::fs::write(&profile, lpcf(b"PROF")).unwrap();
        std::fs::write(&reopt, lpcf(b"ROPT")).unwrap();
        std::fs::write(&log, &v1_log).unwrap();

        // Opening sweeps the log: no reader of this layout looks there.
        let store = Store::open(&dir).unwrap();
        assert!(!log.exists());
        let out = store.load_reopt(h, "t").unwrap();
        assert!(out.value.is_none());
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::ChecksumFail(_)
        ));
        let q = store.record_run(h, &sample_profile()).unwrap();
        assert!(matches!(q[0].error, StoreError::ChecksumFail(_)), "{q:?}");
        assert!(q[0].moved_to.as_ref().unwrap().exists());
        // Regeneration starts fresh, and each file was moved aside once.
        let reloaded = store.load_profile(h).unwrap();
        assert!(reloaded.quarantined.is_empty());
        let reloaded = reloaded.value.unwrap();
        assert_eq!((reloaded.runs, &reloaded.profile), (1, &sample_profile()));
        assert_eq!(files_with(&store, ".corrupt-").len(), 2);

        // The old log's bytes at the profile path (same magic, older
        // version) are a version mismatch, not a profile.
        std::fs::write(&profile, &v1_log).unwrap();
        let out = store.load_profile(h).unwrap();
        assert!(out.value.is_none());
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::VersionMismatch { found: 1 }
        ));
    }

    #[test]
    fn injected_write_corruption_is_caught_on_next_read() {
        let m = lpat_asm::parse_module("t", "define int @main() {\ne:\n  ret int 41\n}").unwrap();
        let mut store = Store::open(tmpdir("inject-corrupt")).unwrap();
        store.faults = plan("store.write:corrupt@1");
        store.save_reopt(0xDD, &m).unwrap();
        let out = store.load_reopt(0xDD, "t").unwrap();
        assert!(out.value.is_none(), "corrupted payload must not load");
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::ChecksumFail(_)
        ));
        // A run's record damaged on its way to disk is a torn tail: the
        // run is lost, nothing is quarantined, and the next append lands.
        store.faults = plan("store.write:corrupt@2");
        store.record_run(0xDE, &sample_profile()).unwrap();
        store.record_run(0xDE, &sample_profile()).unwrap();
        assert_eq!(runs_of(&store, 0xDE), 1);
        store.record_run(0xDE, &sample_profile()).unwrap();
        assert_eq!(runs_of(&store, 0xDE), 2);
        // Damage to a compaction's output hits the head or the history:
        // that is quarantined, and says so.
        store.faults = plan("store.write:corrupt@1");
        store.compact(0xDE).unwrap();
        let out = store.load_profile(0xDE).unwrap();
        assert!(out.value.is_none());
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::ChecksumFail(_)
        ));
    }

    #[test]
    fn injected_io_fault_fails_write_and_leaves_old_version() {
        let mut store = Store::open(tmpdir("inject-io")).unwrap();
        store.record_run(0xEE, &sample_profile()).unwrap();
        let before = std::fs::read(store.profile_path(0xEE)).unwrap();
        store.faults = plan("store.write:io@1");
        let err = store.record_run(0xEE, &sample_profile()).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // The old version is intact and no temp file lingers.
        assert_eq!(std::fs::read(store.profile_path(0xEE)).unwrap(), before);
        assert_eq!(runs_of(&store, 0xEE), 1);
        assert_eq!(files_with(&store, "tmp"), Vec::<String>::new());
    }

    #[test]
    fn lock_contention_bounded_and_deterministic() {
        let mut store = Store::open(tmpdir("lock"))
            .unwrap()
            .with_clock(Box::new(CountingClock(AtomicU32::new(0))));
        let key = 0x55;
        // Unconditional contention: every attempt fails, then Locked.
        store.faults = plan("store.lock:panic");
        let err = store.lock(key).unwrap_err();
        assert_eq!(err, StoreError::Locked);
        // record_run surfaces Locked without touching the cache.
        let err = store.record_run(key, &sample_profile()).unwrap_err();
        assert_eq!(err, StoreError::Locked);
        assert!(!store.profile_path(key).exists());
        // Transient contention: first two attempts fail, then success.
        store.faults = plan("store.lock:panic@1,store.lock:panic@2");
        let guard = store.lock(key).expect("acquires after retries");
        // A second descriptor in the same process is refused while the
        // first holds the lock ...
        store.faults = None;
        assert_eq!(store.lock(key).unwrap_err(), StoreError::Locked);
        // ... and dropping the guard releases it.
        drop(guard);
        drop(store.lock(key).expect("the lock is free after drop"));
    }

    #[test]
    fn reopt_roundtrip_and_corruption_recovery() {
        let m = lpat_asm::parse_module("t", "define int @main() {\ne:\n  ret int 41\n}").unwrap();
        let h = module_hash(&m);
        let store = Store::open(tmpdir("reopt")).unwrap();
        assert!(store.load_reopt(h, "t").unwrap().value.is_none());
        store.save_reopt(h, &m).unwrap();
        let back = store.load_reopt(h, "t").unwrap().value.unwrap();
        assert_eq!(back.display(), m.display());
        // Flip a byte inside the stored module payload: quarantined.
        let path = store.reopt_path(h);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let out = store.load_reopt(h, "t").unwrap();
        assert!(out.value.is_none());
        assert_eq!(out.quarantined.len(), 1);
    }

    /// A clock whose sleep count the test can read.
    struct SharedCountingClock(Arc<AtomicU32>);
    impl Clock for SharedCountingClock {
        fn sleep(&self, _d: Duration) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The file's contents mean nothing: a `lock-XX` naming a live process
    /// (PID 1, standing in for a recycled PID) is taken on the first
    /// attempt, with no backoff.
    #[test]
    fn a_lock_file_naming_a_live_process_does_not_block() {
        let sleeps = Arc::new(AtomicU32::new(0));
        let store = Store::open(tmpdir("livepid"))
            .unwrap()
            .with_clock(Box::new(SharedCountingClock(sleeps.clone())));
        let key = 0x42;
        std::fs::write(store.lock_path(key), "1\n").unwrap();
        drop(store.lock(key).expect("a PID in the file holds nothing"));
        assert_eq!(sleeps.load(Ordering::SeqCst), 0, "no backoff needed");
    }

    /// A held key blocks its own stripe and nothing else: writers of two
    /// modules do not wait on each other, writers of one module do.
    #[test]
    fn keys_in_different_stripes_lock_independently() {
        let sleeps = Arc::new(AtomicU32::new(0));
        let store = Store::open(tmpdir("stripes"))
            .unwrap()
            .with_clock(Box::new(SharedCountingClock(sleeps.clone())));
        let (a, b) = (0xAB00_0000_0000_0001u64, 0xCD00_0000_0000_0001u64);
        let held = store.lock(a).unwrap();
        drop(store.lock(b).expect("another stripe is free"));
        assert_eq!(sleeps.load(Ordering::SeqCst), 0, "no backoff needed");
        assert_eq!(store.lock(a).unwrap_err(), StoreError::Locked);
        assert_eq!(sleeps.load(Ordering::SeqCst), LOCK_RETRIES, "full schedule");
        drop(held);
        drop(store.lock(a).expect("the lock is free after drop"));
    }

    /// `store.journal:io@N` at each of the four steps of the one
    /// `record_run` that appends *and* compacts, with the exact run count
    /// each must leave.
    #[test]
    fn injected_journal_fault_fails_write_cleanly_at_every_step() {
        for step in 1..=4u8 {
            let mut store = Store::open(tmpdir(&format!("jstep{step}"))).unwrap();
            let h = 0x31;
            let n = fill_to_brink(&store, h);
            let before = std::fs::read(store.profile_path(h)).unwrap();
            store.faults = plan(&format!("store.journal:io@{step}"));
            let r = store.record_run(h, &sample_profile());
            store.faults = None;
            if step <= 2 {
                // The append itself failed: this run's counts are dropped
                // and the file is byte-for-byte what it was.
                assert!(matches!(r, Err(StoreError::Io(_))), "step {step}: {r:?}");
                assert_eq!(std::fs::read(store.profile_path(h)).unwrap(), before);
                assert_eq!(runs_of(&store, h), n, "step {step}");
            } else {
                // The delta was durable before compaction began: a failed
                // compaction never fails the flush and leaves the file as
                // the append left it.
                assert!(r.is_ok(), "step {step}: {r:?}");
                assert_eq!(runs_of(&store, h), n + 1, "step {step}");
                assert_eq!(file_of(&store, h).folded_runs, 0, "step {step}");
                // The next append lands behind it, and its compaction
                // finishes the job.
                store.record_run(h, &sample_profile()).unwrap();
                assert_eq!(runs_of(&store, h), n + 2, "step {step}");
                assert_eq!(file_of(&store, h).folded_runs, n + 2, "step {step}");
            }
            assert_eq!(files_with(&store, "profile-").len(), 1, "step {step}");
            assert_eq!(files_with(&store, ".corrupt-"), Vec::<String>::new());
        }
    }

    /// One fsync per run: a `record_run` that does not compact passes
    /// `store.journal` exactly twice — before its one write and before
    /// its one fsync — so the site's second ordinal fires in it and the
    /// third does not.
    #[test]
    fn a_run_that_does_not_compact_takes_two_journal_steps() {
        let mut store = Store::open(tmpdir("two-steps")).unwrap();
        store.faults = plan("store.journal:io@2");
        assert!(store.record_run(0x61, &sample_profile()).is_err());
        store.faults = plan("store.journal:io@3");
        store.record_run(0x61, &sample_profile()).unwrap();
        // ... and the third ordinal is the next run's first step.
        assert!(store.record_run(0x61, &sample_profile()).is_err());
        store.faults = None;
        assert_eq!(runs_of(&store, 0x61), 1);
    }

    /// A writer SIGKILLed between its temp write and its rename leaves an
    /// orphan temp; the next open that gets the temp's lock sweeps it.
    #[test]
    fn orphan_temp_is_swept_by_the_next_open() {
        let dir = tmpdir("sweep");
        let store = Store::open(&dir).unwrap();
        store.record_run(0x42, &sample_profile()).unwrap();
        let orphan = dir.join("profile-0000000000000042.lpp.tmp-424242");
        std::fs::write(&orphan, b"half a compaction").unwrap();
        // ... and a store of the two-file layout, a log nothing reads now.
        let old_log = dir.join("profile-0000000000000042.log");
        std::fs::write(&old_log, b"LPPL").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(!orphan.exists() && !old_log.exists());
        assert_eq!(runs_of(&store, 0x42), 1);

        // A temp under a held lock may be a live writer's and stays; one
        // in a free stripe goes; a name with no key is not the store's.
        let held_key = 0xAB00_0000_0000_0007u64;
        let held = dir.join(format!("reopt-{held_key:016x}.lbc.tmp-1"));
        let free = dir.join("deny-cd00000000000007.lpd.tmp-1");
        let keyless = dir.join("x.tmp-1");
        for temp in [&held, &free, &keyless] {
            std::fs::write(temp, b"a temp").unwrap();
        }
        let guard = store.lock(held_key).unwrap();
        drop(Store::open(&dir).unwrap());
        assert!(held.exists(), "a temp under a held lock was swept");
        assert!(!free.exists(), "a temp in a free stripe survived");
        assert!(keyless.exists(), "a name without a key was swept");
        drop(guard);
        drop(Store::open(&dir).unwrap());
        assert!(!held.exists(), "the next open sweeps what it left");
    }

    #[test]
    fn deny_record_roundtrip_and_tolerant_load() {
        let store = Store::open(tmpdir("deny")).unwrap();
        assert_eq!(store.load_deny(0x99), None);
        let rec = DenyRecord {
            hash: 0x99,
            count: 3,
            denied: true,
            first_unix_ms: 1_000,
            last_unix_ms: 2_000,
        };
        store.save_deny(&rec).unwrap();
        assert_eq!(store.load_deny(0x99), Some(rec));
        // Garbage record: reads as None and is removed, never an error.
        std::fs::write(store.deny_path(0x77), b"not a deny record").unwrap();
        assert_eq!(store.load_deny(0x77), None);
        assert!(!store.deny_path(0x77).exists());
        // A record filed under the wrong hash is rejected too.
        std::fs::copy(store.deny_path(0x99), store.deny_path(0x55)).unwrap();
        assert_eq!(store.load_deny(0x55), None);
    }

    /// A compacted file cut at any offset never loads data: inside the
    /// history it is quarantined; inside the header or head it is what a
    /// writer killed creating the file leaves, and the next append starts
    /// the file over.
    #[test]
    fn torn_write_truncation_at_every_offset_recovers() {
        let store = Store::open(tmpdir("torn")).unwrap();
        let h = 0x77;
        put_compacted(&store, h, 1);
        let full = std::fs::read(store.profile_path(h)).unwrap();
        for cut in 0..full.len() {
            std::fs::write(store.profile_path(h), &full[..cut]).unwrap();
            let out = store.load_profile(h).unwrap();
            assert!(out.value.is_none(), "cut at {cut} loaded data");
            let in_history = cut >= PROFILE_HEAD_LEN;
            assert_eq!(out.quarantined.len(), in_history as usize, "cut at {cut}");
            store.record_run(h, &sample_profile()).unwrap();
            assert_eq!(runs_of(&store, h), 1, "cut at {cut}");
            for debris in files_with(&store, ".corrupt-") {
                std::fs::remove_file(store.dir().join(debris)).unwrap();
            }
        }
    }

    /// `n` distinct deltas over a handful of shared keys.
    fn random_deltas(seed: u64, n: usize) -> Vec<ProfileData> {
        let mut rng = SplitMix64(seed);
        (0..n)
            .map(|_| {
                let mut p = ProfileData::default();
                for _ in 0..=rng.below(5) {
                    let f = lpat_core::FuncId::from_index(rng.below(3) as usize);
                    let b = lpat_core::BlockId::from_index(rng.below(4) as usize);
                    // Now and then a count large enough to saturate.
                    let big = rng.below(4) == 0;
                    let n = if big { u64::MAX / 2 } else { rng.below(1_000) };
                    p.block_counts.insert((f, b), n);
                    p.call_counts.insert(f, rng.below(50));
                }
                p.guard_exec_counts
                    .insert(rng.below(3) as u32, rng.below(9));
                p
            })
            .collect()
    }

    /// Truncating a file of a history and N appended records at every
    /// byte offset behind the history, and flipping the byte at every
    /// offset of the file, each make `load_profile` return the history ⊕
    /// exactly the records wholly before the damage with nothing
    /// quarantined — or, for a flip in the header, the head or the history,
    /// nothing at all and the file moved aside. A run recorded after a torn
    /// tail is visible.
    #[test]
    fn log_damage_at_every_offset_keeps_exactly_the_records_before_it() {
        let store = Store::open(tmpdir("log-damage")).unwrap();
        let h = 0x78u64;
        put_compacted(&store, h, 3);
        let tail = file_of(&store, h).len;
        let deltas = random_deltas(7, 5);
        let mut ends = Vec::new();
        for d in &deltas {
            store.record_run(h, d).unwrap();
            ends.push(file_of(&store, h).len);
        }
        let full = std::fs::read(store.profile_path(h)).unwrap();
        assert_eq!((file_of(&store, h).tail, ends[4]), (tail, full.len()));
        let expect = |whole: usize| {
            let mut p = sample_profile();
            for d in &deltas[..whole] {
                p.merge_saturating(d);
            }
            Some((p.to_bytes(), 3 + whole as u64))
        };
        let check = |want: Option<(Vec<u8>, u64)>, what: &str| {
            let out = store.load_profile(h).unwrap();
            let got = out.value.map(|got| (got.profile.to_bytes(), got.runs));
            assert_eq!(got, want, "{what}");
            // Only damage no kill can cause condemns the file; a damaged
            // appended record is a torn tail.
            assert_eq!(out.quarantined.len(), want.is_none() as usize, "{what}");
            for q in &out.quarantined {
                assert_eq!(q.original, store.profile_path(h), "{what}");
                std::fs::remove_file(q.moved_to.as_ref().unwrap()).unwrap();
            }
        };
        for at in 0..full.len() {
            let whole = ends.iter().filter(|&&e| e <= at).count();
            let mut bad = full.clone();
            bad[at] ^= 0xFF;
            std::fs::write(store.profile_path(h), &bad).unwrap();
            if at < tail {
                check(None, &format!("flip {at}"));
                continue;
            }
            check(expect(whole), &format!("flip {at}"));

            std::fs::write(store.profile_path(h), &full[..at]).unwrap();
            check(expect(whole), &format!("cut {at}"));
            // The next appender cuts the torn tail off before appending.
            store.record_run(h, &deltas[whole]).unwrap();
            check(expect(whole + 1), &format!("append after cut {at}"));
            assert_eq!(
                std::fs::read(store.profile_path(h)).unwrap(),
                full[..ends[whole]],
                "append after cut {at}: the file is not what {} clean runs leave",
                whole + 1
            );
        }
    }

    /// K deltas through `record_run`, with — after each — nothing, a
    /// compaction, or a compaction that dies before its rename, in every
    /// combination: the stored profile and run count always equal the
    /// in-memory `merge_saturating` fold, and the module has one file.
    #[test]
    fn any_compaction_schedule_equals_the_in_memory_fold() {
        const K: usize = 5;
        let deltas = random_deltas(11, K);
        let mut want = ProfileData::default();
        for d in &deltas {
            want.merge_saturating(d);
        }
        let mut store = Store::open(tmpdir("equiv")).unwrap();
        for schedule in 0..3usize.pow(K as u32) {
            let h = 0x1000 + schedule as u64;
            let mut s = schedule;
            for d in &deltas {
                store.record_run(h, d).unwrap();
                match s % 3 {
                    0 => {}
                    1 => drop(store.compact(h).unwrap()),
                    _ => {
                        // Compaction alone passes steps 3 and 4 as the
                        // site's ordinals 1 and 2.
                        store.faults = plan("store.journal:io@2");
                        assert!(store.compact(h).is_err());
                        store.faults = None;
                    }
                }
                s /= 3;
            }
            let got = store.load_profile(h).unwrap();
            assert!(got.quarantined.is_empty(), "schedule {schedule}");
            let got = got.value.unwrap();
            assert_eq!(got.runs, K as u64, "schedule {schedule}");
            assert_eq!(
                got.profile.to_bytes(),
                want.to_bytes(),
                "schedule {schedule}"
            );
            let name = format!("profile-{h:016x}");
            assert_eq!(files_with(&store, &name), [format!("{name}.lpp")]);
        }
    }

    #[test]
    fn a_thousand_runs_leave_a_bounded_log() {
        let store = Store::open(tmpdir("bounded")).unwrap();
        let h = 0x79u64;
        let record = 8 + sample_profile().to_bytes().len();
        let (mut compactions, mut folded) = (0, 0);
        for run in 1..=1_000u64 {
            store.record_run(h, &sample_profile()).unwrap();
            let file = file_of(&store, h);
            let pending = file.len - file.tail;
            assert!(
                pending <= COMPACT_BYTES + record,
                "run {run}: {pending} bytes behind the history"
            );
            assert_eq!(file.folded_runs + (pending / record) as u64, run);
            compactions += u32::from(file.folded_runs != folded);
            folded = file.folded_runs;
        }
        assert!(compactions as usize >= 1_000 * record / (COMPACT_BYTES + record));
        assert_eq!(runs_of(&store, h), 1_000);
        assert_eq!(files_with(&store, "profile-").len(), 1);
    }
}
