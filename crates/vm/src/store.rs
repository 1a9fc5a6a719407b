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
//! | old/foreign container        | [`StoreError::VersionMismatch`]| quarantine + regenerate |
//! | torn write / bit rot / junk  | [`StoreError::ChecksumFail`]   | quarantine + regenerate |
//! | profile from other bytecode  | [`StoreError::StaleHash`]      | quarantine + regenerate |
//! | concurrent writer persists   | [`StoreError::Locked`]         | skip persisting this run |
//! | I/O failure                  | [`StoreError::Io`]             | surface; cache untouched |
//!
//! Writes are atomic (temp file + fsync + rename into place), so a kill at
//! any byte leaves the old version or the new one, never a mix. Concurrent
//! invocations serialize on a lock file with a bounded, deterministic
//! retry-with-backoff schedule (the clock is injectable for tests); locks
//! record their holder's PID and are broken *immediately* once the holder
//! is dead (with [`Store::lock_stale_after`] as the fallback when
//! liveness cannot be determined).
//!
//! # Write-ahead journal
//!
//! Cache-directory writes are additionally journaled: before the
//! temp+rename dance, a checksummed *intent* record (sequence number, op
//! kind, module hash, final + temp file names, payload length + CRC) is
//! appended to the store's `journal` file and fsynced; after the rename a
//! matching *commit* record follows. [`Store::open`] runs a recovery scan
//! over the journal (when it can take the lock without waiting): an
//! uncommitted intent whose temp file survived intact is **replayed**
//! (renamed into place — the delta is durable even though the writer
//! died), anything else is **rolled back** (torn temp removed, old
//! version untouched), the journal is truncated, and orphaned `.wal-*` /
//! `.tmp-*` files are swept. The upshot: a SIGKILL at *any* byte offset
//! of a store write loses at most the in-flight delta, never the
//! accumulated store, and never leaves a file to quarantine.
//!
//! Journal record framing: `lpat_core::wire` records (`[len][crc32]
//! [payload]`) behind an 8-byte `LPWJ` + version header. An intent
//! payload is `tag=1, seq: u64, op: u8, hash: u64, data_len: u32,
//! data_crc: u32, final_name, temp_name` (names length-prefixed); a
//! commit payload is `tag=2, seq: u64`. A torn journal tail (crash during
//! the intent append itself) fails the CRC and is ignored — nothing had
//! happened yet.
//!
//! All I/O paths carry `lpat_core::fault` sites (`store.read`,
//! `store.write`, `store.lock`, and `store.journal` — the latter hit once
//! per journaled-write step: 1 intent append, 2 temp write, 3 temp fsync,
//! 4 rename, 5 commit append) so every row of the recovery matrix is
//! testable under the `--inject-faults` grammar, including kill-at-step
//! crash points (`store.journal:delay=...@N` parks the writer *between*
//! two durability steps for an external SIGKILL).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lpat_bytecode::container::{
    read_container, write_container, Container, ContainerError, KIND_PROFILE, KIND_REOPT,
};
use lpat_core::fault::{self, FaultAction, FaultPlan};
use lpat_core::hash::{crc32, fnv1a64};
use lpat_core::trace;
use lpat_core::wire::{push_record, records, Cursor};
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

/// Classified store failure. See the module-level recovery matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// No artifact on disk for this key.
    Missing,
    /// The container carries an unknown format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The container failed validation: bad magic, truncation, CRC
    /// mismatch, or a payload that does not decode.
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
                write!(f, "container version {found} unsupported")
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

fn container_err(e: ContainerError) -> StoreError {
    match e {
        ContainerError::Version(found) => StoreError::VersionMismatch { found },
        other => StoreError::ChecksumFail(other.to_string()),
    }
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
    /// Lock acquisition attempts before giving up with
    /// [`StoreError::Locked`].
    pub lock_retries: u32,
    /// Base backoff; attempt `n` waits `lock_backoff << min(n, 6)` — a
    /// deterministic schedule, not a randomized one.
    pub lock_backoff: Duration,
    /// A lock file older than this is treated as abandoned by a killed
    /// process and broken.
    pub lock_stale_after: Duration,
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
            lock_retries: 20,
            lock_backoff: Duration::from_millis(2),
            lock_stale_after: Duration::from_secs(30),
            faults: None,
            clock: Box::new(RealClock),
        };
        // Crash recovery: resolve any journaled writes a killed process
        // left incomplete — but only if the lock is free right now. A held
        // lock means a live writer owns the journal tail; its in-flight op
        // is not ours to resolve, and whoever opens the store next (or the
        // next recovery pass) will see a committed journal anyway.
        if let Some(guard) = store.try_lock_once() {
            store.recover_journal_locked();
            drop(guard);
        }
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

    /// Path of the profile artifact for a module hash.
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

    /// Path of the write-ahead journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal")
    }

    fn fault(&self, site: &str) -> Option<FaultAction> {
        self.faults
            .as_deref()
            .map(|p| p.next(site))
            .unwrap_or_else(|| fault::global().and_then(|p| p.next(site)))
    }

    // -- reading ---------------------------------------------------------

    /// Read + validate a container file. Classifies but does not recover.
    fn read_validated(
        &self,
        path: &Path,
        kind: [u8; 4],
        expected_hash: u64,
    ) -> Result<Container, StoreError> {
        let mut sp = if trace::enabled() {
            Some(trace::span("store", format!("read {}", file_label(path))))
        } else {
            None
        };
        let r = self.read_validated_inner(path, kind, expected_hash);
        if let (Some(sp), Err(e)) = (&mut sp, &r) {
            sp.arg("error", e.class());
        }
        r
    }

    fn read_validated_inner(
        &self,
        path: &Path,
        kind: [u8; 4],
        expected_hash: u64,
    ) -> Result<Container, StoreError> {
        match self.fault("store.read") {
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(_) => return Err(StoreError::Io("injected fault at site 'store.read'".into())),
            None => {}
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(StoreError::Io(format!("read {}: {e}", path.display()))),
        };
        let c = read_container(&bytes).map_err(container_err)?;
        if c.kind != kind {
            return Err(StoreError::ChecksumFail(format!(
                "container kind {:?}, expected {:?}",
                String::from_utf8_lossy(&c.kind),
                String::from_utf8_lossy(&kind),
            )));
        }
        let meta = c
            .section("meta")
            .ok_or_else(|| StoreError::ChecksumFail("missing meta section".into()))?;
        if meta.len() < 8 {
            return Err(StoreError::ChecksumFail("short meta section".into()));
        }
        let found = u64::from_le_bytes(meta[..8].try_into().expect("8 bytes"));
        if found != expected_hash {
            return Err(StoreError::StaleHash {
                expected: expected_hash,
                found,
            });
        }
        Ok(c)
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

    /// Load the lifetime profile for `module_hash`, recovering from any
    /// bad file by quarantining it and reporting an empty profile.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures surface; every *content* failure recovers
    /// to `value: None` plus a [`Quarantine`] record.
    pub fn load_profile(
        &self,
        module_hash: u64,
    ) -> Result<Loaded<Option<StoredProfile>>, StoreError> {
        let path = self.profile_path(module_hash);
        match self.read_validated(&path, KIND_PROFILE, module_hash) {
            Ok(c) => {
                let runs = c
                    .section("meta")
                    .filter(|m| m.len() >= 16)
                    .map(|m| u64::from_le_bytes(m[8..16].try_into().expect("8 bytes")))
                    .unwrap_or(1);
                let counts = c.section("counts").unwrap_or(&[]);
                match ProfileData::from_bytes(counts) {
                    Ok(profile) => Ok(Loaded {
                        value: Some(StoredProfile { profile, runs }),
                        quarantined: Vec::new(),
                    }),
                    Err(e) => {
                        let err = StoreError::ChecksumFail(format!("profile payload: {e}"));
                        Ok(Loaded {
                            value: None,
                            quarantined: vec![self.quarantine(&path, err)],
                        })
                    }
                }
            }
            Err(StoreError::Missing) => Ok(Loaded {
                value: None,
                quarantined: Vec::new(),
            }),
            Err(e @ StoreError::Io(_)) => Err(e),
            Err(recoverable) => Ok(Loaded {
                value: None,
                quarantined: vec![self.quarantine(&path, recoverable)],
            }),
        }
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
        let path = self.reopt_path(module_hash);
        match self.read_validated(&path, KIND_REOPT, module_hash) {
            Ok(c) => {
                let bytes = c.section("module").unwrap_or(&[]);
                // The hardened bytecode reader plus a full verify: CRC
                // protects against storage faults, not against a buggy
                // writer, and a cached module runs with user authority.
                let decoded = lpat_bytecode::read_module(name, bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|m| match m.verify() {
                        Ok(()) => Ok(m),
                        Err(errs) => Err(format!("verifier: {}", errs[0])),
                    });
                match decoded {
                    Ok(m) => Ok(Loaded {
                        value: Some(m),
                        quarantined: Vec::new(),
                    }),
                    Err(e) => {
                        let err = StoreError::ChecksumFail(format!("module payload: {e}"));
                        Ok(Loaded {
                            value: None,
                            quarantined: vec![self.quarantine(&path, err)],
                        })
                    }
                }
            }
            Err(StoreError::Missing) => Ok(Loaded {
                value: None,
                quarantined: Vec::new(),
            }),
            Err(e @ StoreError::Io(_)) => Err(e),
            Err(recoverable) => Ok(Loaded {
                value: None,
                quarantined: vec![self.quarantine(&path, recoverable)],
            }),
        }
    }

    // -- writing ---------------------------------------------------------

    /// Write `bytes` to `path` atomically *and journaled*: append a
    /// checksummed intent record, write + fsync a temp file in the cache
    /// directory, rename into place, append a commit record. A kill at any
    /// point leaves the old content or the new, never a mix — and the
    /// journal lets [`Store::open`] finish (replay) or undo (roll back)
    /// whatever step the kill interrupted. Callers must hold the store
    /// lock (the public save methods do).
    fn journaled_write(
        &self,
        path: &Path,
        bytes: &[u8],
        op: u8,
        hash: u64,
    ) -> Result<(), StoreError> {
        let mut sp = if trace::enabled() {
            Some(trace::span("store", format!("write {}", file_label(path))))
        } else {
            None
        };
        let r = self.journaled_write_inner(path, bytes, op, hash);
        if let (Some(sp), Err(e)) = (&mut sp, &r) {
            sp.arg("error", e.class());
        }
        r
    }

    /// One `store.journal` fault evaluation per durability step (1-based;
    /// see the module docs for the step table). `Delay` parks the writer
    /// *before* the step's action — the chaos tests SIGKILL it there —
    /// and any other action fails the write with a synthetic I/O error.
    fn journal_step(&self, step: u8) -> Result<(), StoreError> {
        match self.fault("store.journal") {
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

    fn journaled_write_inner(
        &self,
        path: &Path,
        bytes: &[u8],
        op: u8,
        hash: u64,
    ) -> Result<(), StoreError> {
        let mut bytes = std::borrow::Cow::Borrowed(bytes);
        match self.fault("store.write") {
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Corrupt) => {
                // Simulate storage corruption: damage one byte of the
                // payload *before* it reaches disk. The next read must
                // catch it by checksum and quarantine the file.
                let owned = bytes.to_mut();
                if !owned.is_empty() {
                    let mid = owned.len() / 2;
                    owned[mid] ^= 0x01;
                }
            }
            Some(_) => {
                return Err(StoreError::Io(
                    "injected fault at site 'store.write'".into(),
                ))
            }
            None => {}
        }
        // Bound journal growth: committed history is dead weight, and we
        // hold the lock, so resolving + truncating here is safe.
        if std::fs::metadata(self.journal_path())
            .map(|m| m.len() > JOURNAL_COMPACT_BYTES)
            .unwrap_or(false)
        {
            self.recover_journal_locked();
        }
        let final_name = file_label(path);
        let temp_name = format!("{final_name}.wal-{}", std::process::id());
        let tmp = self.dir.join(&temp_name);
        let intent = IntentRec {
            seq: next_journal_seq(),
            op,
            hash,
            data_len: bytes.len() as u32,
            data_crc: crc32(&bytes),
            final_name,
            temp_name,
        };
        let io = |what: &str, e: std::io::Error| StoreError::Io(format!("{what}: {e}"));
        let write = (|| -> Result<(), StoreError> {
            // Step 1: durable intent. From here on, recovery knows
            // exactly what was in flight.
            self.journal_step(1)?;
            self.append_journal(&intent.encode())?;
            // Step 2: the payload, under a name recovery can find.
            self.journal_step(2)?;
            let mut f = std::fs::File::create(&tmp).map_err(|e| io("create temp", e))?;
            std::io::Write::write_all(&mut f, &bytes).map_err(|e| io("write temp", e))?;
            // Step 3: payload durability.
            self.journal_step(3)?;
            f.sync_all().map_err(|e| io("fsync temp", e))?;
            // Step 4: the atomic switch.
            self.journal_step(4)?;
            std::fs::rename(&tmp, path).map_err(|e| io("rename into place", e))?;
            // Durability of the rename itself (best-effort: not every
            // filesystem lets a directory be fsynced).
            if let Ok(d) = std::fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        })();
        if write.is_err() {
            // Clean failure (not a crash): undo the temp and retire the
            // intent so recovery has nothing to chew on. Best-effort —
            // if either of these is lost, recovery reaches the same end
            // state (rollback of a temp-less or torn intent).
            let _ = std::fs::remove_file(&tmp);
            let _ = self.append_journal(&encode_commit(intent.seq));
            return write;
        }
        // Step 5: the commit marker. The rename above already made the
        // new version durable, so a failure here (or a kill before it)
        // only means recovery re-discovers a completed op and counts a
        // replay — correctness never depends on the commit record.
        if self.journal_step(5).is_ok() {
            let _ = self.append_journal(&encode_commit(intent.seq));
        }
        Ok(())
    }

    /// Append one framed record to the journal and fsync it.
    fn append_journal(&self, payload: &[u8]) -> Result<(), StoreError> {
        let io = |what: &str, e: std::io::Error| StoreError::Io(format!("{what}: {e}"));
        let path = self.journal_path();
        let fresh = !path.exists();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io("open journal", e))?;
        let mut rec = Vec::with_capacity(payload.len() + 16);
        if fresh {
            rec.extend_from_slice(&JOURNAL_MAGIC);
            rec.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        }
        push_record(&mut rec, payload);
        // One write call per record: appends from a crashed writer are
        // either wholly present or caught by the CRC as a torn tail.
        std::io::Write::write_all(&mut f, &rec).map_err(|e| io("append journal", e))?;
        f.sync_all().map_err(|e| io("fsync journal", e))?;
        Ok(())
    }

    /// Persist a lifetime profile for `module_hash`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another writer holds the store past
    /// the retry budget; [`StoreError::Io`] on write failure (the
    /// previous version, if any, is left intact).
    pub fn save_profile(
        &self,
        module_hash: u64,
        profile: &ProfileData,
        runs: u64,
    ) -> Result<(), StoreError> {
        let _guard = self.lock()?;
        self.save_profile_locked(module_hash, profile, runs)
    }

    /// [`Store::save_profile`] for callers already holding the lock.
    fn save_profile_locked(
        &self,
        module_hash: u64,
        profile: &ProfileData,
        runs: u64,
    ) -> Result<(), StoreError> {
        self.journaled_write(
            &self.profile_path(module_hash),
            &encode_profile(module_hash, profile, runs),
            OP_PROFILE,
            module_hash,
        )
    }

    /// Persist the reoptimized module derived from source `module_hash`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another writer holds the store past
    /// the retry budget; [`StoreError::Io`] on write failure.
    pub fn save_reopt(&self, module_hash: u64, m: &Module) -> Result<(), StoreError> {
        let mut c = Container::new(KIND_REOPT);
        c.push("meta", module_hash.to_le_bytes().to_vec());
        c.push("module", lpat_bytecode::write_module(m));
        let _guard = self.lock()?;
        self.journaled_write(
            &self.reopt_path(module_hash),
            &write_container(&c),
            OP_REOPT,
            module_hash,
        )
    }

    /// Merge one run's counters into the stored lifetime profile, under
    /// the store lock: load (recovering from corruption), saturating-add,
    /// write back atomically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another writer holds the store past the
    /// retry budget, [`StoreError::Io`] on write failure. In both cases
    /// the on-disk state is unchanged (this run's counts are simply not
    /// recorded — the always-make-progress posture).
    pub fn record_run(
        &self,
        module_hash: u64,
        run: &ProfileData,
    ) -> Result<Loaded<StoredProfile>, StoreError> {
        let _guard = self.lock()?;
        let loaded = self.load_profile(module_hash)?;
        let mut merged = StoredProfile {
            profile: ProfileData::default(),
            runs: 0,
        };
        if let Some(prev) = loaded.value {
            merged = prev;
        }
        merged.profile.merge_saturating(run);
        merged.runs = merged.runs.saturating_add(1);
        self.save_profile_locked(module_hash, &merged.profile, merged.runs)?;
        Ok(Loaded {
            value: merged,
            quarantined: loaded.quarantined,
        })
    }

    // -- locking ---------------------------------------------------------

    /// Acquire the store-wide writer lock with bounded, deterministic
    /// backoff.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] after the retry budget; [`StoreError::Io`]
    /// for unexpected filesystem failures.
    pub fn lock(&self) -> Result<LockGuard, StoreError> {
        let mut sp = trace::span("store", "lock");
        let r = self.lock_inner();
        if trace::enabled() {
            if let Err(e) = &r {
                sp.arg("error", e.class());
            }
        }
        r
    }

    fn lock_inner(&self) -> Result<LockGuard, StoreError> {
        let path = self.dir.join("lock");
        for attempt in 0..=self.lock_retries {
            // The fault site models a held/contended lock: any non-delay
            // action fails this acquisition attempt.
            let contended = match self.fault("store.lock") {
                None => false,
                Some(FaultAction::Delay(d)) => {
                    std::thread::sleep(d);
                    false
                }
                Some(_) => true,
            };
            if !contended {
                match std::fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)
                {
                    Ok(mut f) => {
                        let _ = std::io::Write::write_all(
                            &mut f,
                            format!("{}\n", std::process::id()).as_bytes(),
                        );
                        return Ok(LockGuard { path });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        // Held. Abandoned by a killed process? Break it.
                        if self.lock_is_dead(&path) {
                            let _ = std::fs::remove_file(&path);
                            continue; // retry immediately
                        }
                    }
                    Err(e) => return Err(StoreError::Io(format!("lock {}: {e}", path.display()))),
                }
            }
            if attempt < self.lock_retries {
                // Deterministic exponential backoff, capped at 64× base.
                let shift = attempt.min(6);
                self.clock.sleep(self.lock_backoff * (1u32 << shift));
            }
        }
        Err(StoreError::Locked)
    }

    /// Is the lock at `path` abandoned? First choice: the holder recorded
    /// its PID and that process is gone (checked via `/proc`, so a
    /// SIGKILLed worker's lock is broken *immediately* instead of
    /// stalling every peer on the shard for the staleness window).
    /// Fallback (no PID readable, foreign PID namespace, non-Linux): the
    /// mtime-based staleness threshold.
    fn lock_is_dead(&self, path: &Path) -> bool {
        if let Ok(content) = std::fs::read_to_string(path) {
            if let Ok(pid) = content.trim().parse::<u32>() {
                if pid == std::process::id() {
                    // Our own (e.g. a leaked guard in-process): not dead.
                } else if Path::new("/proc").is_dir() {
                    return !Path::new(&format!("/proc/{pid}")).exists();
                }
            }
        }
        if let Ok(md) = std::fs::metadata(path) {
            let age = md
                .modified()
                .ok()
                .and_then(|t| t.elapsed().ok())
                .unwrap_or(Duration::ZERO);
            return age > self.lock_stale_after;
        }
        false
    }

    /// One non-blocking lock attempt (plus one dead-holder break) for the
    /// recovery pass in [`Store::open`]. `None` = a live writer holds it.
    fn try_lock_once(&self) -> Option<LockGuard> {
        let path = self.dir.join("lock");
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = std::io::Write::write_all(
                        &mut f,
                        format!("{}\n", std::process::id()).as_bytes(),
                    );
                    return Some(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if self.lock_is_dead(&path) {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return None;
                }
                Err(_) => return None,
            }
        }
        None
    }
}

// -- write-ahead journal --------------------------------------------------

const JOURNAL_MAGIC: [u8; 4] = *b"LPWJ";
const JOURNAL_VERSION: u32 = 1;
/// Committed journal history past this size is compacted at the next
/// locked write.
const JOURNAL_COMPACT_BYTES: u64 = 256 * 1024;
const REC_INTENT: u8 = 1;
const REC_COMMIT: u8 = 2;
/// Largest payload a well-formed record can carry; anything bigger in the
/// length field is treated as a torn/garbage tail.
const JOURNAL_MAX_REC: u32 = 64 * 1024;

/// Op kinds recorded in intent records (diagnostic: recovery treats all
/// ops identically).
const OP_PROFILE: u8 = 1;
const OP_REOPT: u8 = 2;
const OP_DENY: u8 = 3;

static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Journal sequence numbers only need to pair an intent with its commit
/// within one journal file: PID in the high half, a process-local counter
/// in the low half.
fn next_journal_seq() -> u64 {
    ((std::process::id() as u64) << 32)
        | (JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

/// A decoded intent record: everything recovery needs to finish or undo
/// the write. File *names*, not paths — the journal stays valid if the
/// cache directory is moved.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IntentRec {
    seq: u64,
    op: u8,
    hash: u64,
    data_len: u32,
    data_crc: u32,
    final_name: String,
    temp_name: String,
}

impl IntentRec {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(40 + self.final_name.len() + self.temp_name.len());
        p.push(REC_INTENT);
        p.extend_from_slice(&self.seq.to_le_bytes());
        p.push(self.op);
        p.extend_from_slice(&self.hash.to_le_bytes());
        p.extend_from_slice(&self.data_len.to_le_bytes());
        p.extend_from_slice(&self.data_crc.to_le_bytes());
        for name in [&self.final_name, &self.temp_name] {
            p.extend_from_slice(&(name.len() as u16).to_le_bytes());
            p.extend_from_slice(name.as_bytes());
        }
        p
    }

    fn decode(p: &[u8]) -> Option<IntentRec> {
        let mut c = Cursor::new(p.get(1..)?); // tag already checked
        let name = |c: &mut Cursor| {
            let n = usize::from(c.u16("name length").ok()?);
            String::from_utf8(c.take(n, "name").ok()?.to_vec()).ok()
        };
        Some(IntentRec {
            seq: c.u64("seq").ok()?,
            op: c.u8("op").ok()?,
            hash: c.u64("hash").ok()?,
            data_len: c.u32("data length").ok()?,
            data_crc: c.u32("data crc").ok()?,
            final_name: name(&mut c)?,
            temp_name: name(&mut c)?,
        })
    }
}

fn encode_commit(seq: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(9);
    p.push(REC_COMMIT);
    p.extend_from_slice(&seq.to_le_bytes());
    p
}

/// A journal file name is only trusted if it is a bare file name — a
/// malformed or malicious record must not become a path traversal.
fn bare_name(name: &str) -> bool {
    !name.is_empty()
        && Path::new(name)
            .file_name()
            .map(|f| f == name)
            .unwrap_or(false)
}

/// What one journal-recovery pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Uncommitted intents whose payload survived (intact temp file, or a
    /// completed rename that just lost its commit record): the new
    /// version was installed.
    pub replayed: u64,
    /// Uncommitted intents whose payload did not survive: torn temp
    /// removed (or nothing to do); the old version stands.
    pub rolled_back: u64,
    /// Orphaned `.wal-*` / `.tmp-*` files swept.
    pub swept: u64,
}

impl Store {
    /// Run one journal-recovery pass now, taking the lock (blocking, with
    /// the normal retry budget). [`Store::open`] already does this
    /// non-blockingly; tests and tools can force a pass here.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when the lock cannot be acquired.
    pub fn recover(&self) -> Result<RecoveryReport, StoreError> {
        let _guard = self.lock()?;
        Ok(self.recover_journal_locked())
    }

    /// The recovery scan proper. Caller holds the lock.
    fn recover_journal_locked(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let jpath = self.journal_path();
        let data = std::fs::read(&jpath).unwrap_or_default();
        let mut pending: BTreeMap<u64, IntentRec> = BTreeMap::new();
        // The version field is currently informational.
        let body = match data.strip_prefix(&JOURNAL_MAGIC) {
            Some(rest) if rest.len() >= 4 => &rest[4..],
            _ => &data[..],
        };
        // Parse until the first torn or nonsense record: everything after
        // a torn tail was never durable, so it describes nothing.
        for payload in records(body, JOURNAL_MAX_REC) {
            match payload.first() {
                Some(&REC_INTENT) => {
                    if let Some(it) = IntentRec::decode(payload) {
                        pending.insert(it.seq, it);
                    }
                }
                Some(&REC_COMMIT) => {
                    if let Ok(seq) = Cursor::new(&payload[1..]).u64("seq") {
                        pending.remove(&seq);
                    }
                }
                _ => {} // unknown tag: ignore (forward compatibility)
            }
        }
        let mut referenced: Vec<String> = Vec::new();
        for it in pending.values() {
            referenced.push(it.temp_name.clone());
            if !(bare_name(&it.final_name) && bare_name(&it.temp_name)) {
                continue; // never follow a suspicious name
            }
            let tmp = self.dir.join(&it.temp_name);
            let fin = self.dir.join(&it.final_name);
            let matches = |b: &[u8]| b.len() as u32 == it.data_len && crc32(b) == it.data_crc;
            let replayed = match std::fs::read(&tmp) {
                Ok(b) if matches(&b) => {
                    // The payload is fully on disk; finish the write the
                    // dead process started.
                    std::fs::rename(&tmp, &fin).is_ok()
                }
                Ok(_) | Err(_) => {
                    // Torn or missing temp. If the final file already
                    // carries the intended bytes the op actually
                    // completed (killed between rename and commit).
                    let _ = std::fs::remove_file(&tmp);
                    std::fs::read(&fin).map(|b| matches(&b)).unwrap_or(false)
                }
            };
            if replayed {
                report.replayed += 1;
            } else {
                report.rolled_back += 1;
            }
        }
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Every pending op is resolved: retire the journal.
        let _ = std::fs::remove_file(&jpath);
        // Sweep write debris no pending intent references: pid-suffixed
        // temps from crashed writers whose intents committed (or never
        // became durable).
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for entry in rd.filter_map(|e| e.ok()) {
                let name = entry.file_name().to_string_lossy().into_owned();
                let orphan = (name.contains(".wal-") || name.contains(".tmp-"))
                    && !referenced.iter().any(|r| r == &name);
                if orphan && std::fs::remove_file(entry.path()).is_ok() {
                    report.swept += 1;
                }
            }
        }
        if trace::enabled() && (report.replayed > 0 || report.rolled_back > 0 || report.swept > 0) {
            trace::instant_args(
                "store",
                "journal.recovery",
                vec![
                    ("replayed", report.replayed.to_string()),
                    ("rolled_back", report.rolled_back.to_string()),
                    ("swept", report.swept.to_string()),
                ],
            );
        }
        report
    }
}

// -- crash-loop denylist records ------------------------------------------

/// Persisted crash-loop state for one module payload hash: how many times
/// it has crashed a worker, when, and whether it crossed the breaker
/// threshold (denylisted). Written by the `lpatd` supervisor; surviving a
/// daemon restart is the point.
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

const DENY_MAGIC: [u8; 4] = *b"LPDY";
const DENY_VERSION: u32 = 1;
const DENY_LEN: usize = 4 + 4 + 8 + 4 + 1 + 8 + 8 + 4;

impl DenyRecord {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(DENY_LEN);
        b.extend_from_slice(&DENY_MAGIC);
        b.extend_from_slice(&DENY_VERSION.to_le_bytes());
        b.extend_from_slice(&self.hash.to_le_bytes());
        b.extend_from_slice(&self.count.to_le_bytes());
        b.push(self.denied as u8);
        b.extend_from_slice(&self.first_unix_ms.to_le_bytes());
        b.extend_from_slice(&self.last_unix_ms.to_le_bytes());
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Option<DenyRecord> {
        if b.len() != DENY_LEN {
            return None;
        }
        let (body, crc) = b.split_at(DENY_LEN - 4);
        let mut c = Cursor::new(body);
        if Cursor::new(crc).u32("crc").ok()? != crc32(body)
            || c.take(4, "magic").ok()? != DENY_MAGIC
            || c.u32("version").ok()? != DENY_VERSION
        {
            return None;
        }
        Some(DenyRecord {
            hash: c.u64("hash").ok()?,
            count: c.u32("count").ok()?,
            denied: c.u8("denied").ok()? != 0,
            first_unix_ms: c.u64("first crash").ok()?,
            last_unix_ms: c.u64("last crash").ok()?,
        })
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

    /// Persist a crash-loop record (journaled, under the store lock).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] or [`StoreError::Io`] — the caller keeps
    /// its in-memory breaker state either way.
    pub fn save_deny(&self, rec: &DenyRecord) -> Result<(), StoreError> {
        let _guard = self.lock()?;
        self.journaled_write(&self.deny_path(rec.hash), &rec.encode(), OP_DENY, rec.hash)
    }
}

// -- standalone profile files (--profile-in / --profile-out) -------------

/// Serialize a lifetime profile into container bytes.
fn encode_profile(module_hash: u64, profile: &ProfileData, runs: u64) -> Vec<u8> {
    let mut c = Container::new(KIND_PROFILE);
    let mut meta = Vec::with_capacity(16);
    meta.extend_from_slice(&module_hash.to_le_bytes());
    meta.extend_from_slice(&runs.to_le_bytes());
    c.push("meta", meta);
    c.push("counts", profile.to_bytes());
    write_container(&c)
}

/// Write a profile to a standalone file (`--profile-out`) with the same
/// container format and atomic temp+fsync+rename protocol as the cache
/// directory. Honors the global `store.write` fault site.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure; the previous file, if any, is
/// left intact.
pub fn write_profile_file(
    path: &Path,
    module_hash: u64,
    profile: &ProfileData,
    runs: u64,
) -> Result<(), StoreError> {
    let mut bytes = encode_profile(module_hash, profile, runs);
    match fault::global().and_then(|p| p.next("store.write")) {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Corrupt) if !bytes.is_empty() => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
        }
        Some(FaultAction::Corrupt) | None => {}
        Some(_) => {
            return Err(StoreError::Io(
                "injected fault at site 'store.write'".into(),
            ))
        }
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let io = |what: &str, e: std::io::Error| StoreError::Io(format!("{what}: {e}"));
    let write = (|| -> Result<(), StoreError> {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io("create temp", e))?;
        std::io::Write::write_all(&mut f, &bytes).map_err(|e| io("write temp", e))?;
        f.sync_all().map_err(|e| io("fsync temp", e))?;
        std::fs::rename(&tmp, path).map_err(|e| io("rename into place", e))?;
        Ok(())
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Read a standalone profile file (`--profile-in`). Returns the module
/// hash it was recorded against plus the stored profile; the caller
/// decides whether a hash mismatch is fatal. Nothing is quarantined —
/// the caller owns the file.
///
/// # Errors
///
/// The same classification as the store's loads.
pub fn read_profile_file(path: &Path) -> Result<(u64, StoredProfile), StoreError> {
    match fault::global().and_then(|p| p.next("store.read")) {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(_) => return Err(StoreError::Io("injected fault at site 'store.read'".into())),
        None => {}
    }
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::Missing),
        Err(e) => return Err(StoreError::Io(format!("read {}: {e}", path.display()))),
    };
    let c = read_container(&bytes).map_err(container_err)?;
    if c.kind != KIND_PROFILE {
        return Err(StoreError::ChecksumFail("not a profile container".into()));
    }
    let meta = c
        .section("meta")
        .filter(|m| m.len() >= 16)
        .ok_or_else(|| StoreError::ChecksumFail("short meta section".into()))?;
    let hash = u64::from_le_bytes(meta[..8].try_into().expect("8 bytes"));
    let runs = u64::from_le_bytes(meta[8..16].try_into().expect("8 bytes"));
    let profile = ProfileData::from_bytes(c.section("counts").unwrap_or(&[]))
        .map_err(|e| StoreError::ChecksumFail(format!("profile payload: {e}")))?;
    Ok((hash, StoredProfile { profile, runs }))
}

// -- exactly-once profile flushing ----------------------------------------

/// The outcome of the one flush a [`FlushGuard`] performs.
#[derive(Debug)]
pub enum FlushOutcome {
    /// No store configured or no delta recorded; nothing to persist.
    Skipped,
    /// The delta was merged into the stored lifetime profile. Boxed so
    /// the common `Skipped` case doesn't pay for the profile's footprint.
    Flushed(Box<Loaded<StoredProfile>>),
    /// The store refused (lock budget, I/O); this run's counts are
    /// dropped — the always-make-progress posture.
    Failed(StoreError),
}

/// RAII guard that flushes one run's profile delta into the store
/// **exactly once** — on explicit [`FlushGuard::flush`] (the happy path,
/// so the caller can report quarantines) or on drop (early-return, trap,
/// and panic paths). Both the `lpatc run` driver and `lpatd` workers
/// funnel their profile persistence through this one type, so no exit
/// route can flush twice (double-counting a run) or zero times (losing
/// the crashing runs the lifelong profile most needs).
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

    /// Whether the single flush already happened (explicitly or not at
    /// all yet).
    pub fn is_done(&self) -> bool {
        self.done
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
            Ok(loaded) => FlushOutcome::Flushed(Box::new(loaded)),
            Err(e) => FlushOutcome::Failed(e),
        }
    }
}

impl Drop for FlushGuard<'_> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Holds the store lock; releases it on drop.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let r1 = store.record_run(h, &sample_profile()).unwrap();
        assert_eq!(r1.value.runs, 1);
        let r2 = store.record_run(h, &sample_profile()).unwrap();
        assert_eq!(r2.value.runs, 2);
        let loaded = store.load_profile(h).unwrap().value.unwrap();
        assert_eq!(
            loaded.profile.block_count(
                lpat_core::FuncId::from_index(0),
                lpat_core::BlockId::from_index(1)
            ),
            20,
            "two runs merge to exactly doubled counts"
        );
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
        store.save_profile(0xAA, &sample_profile(), 1).unwrap();
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
    }

    #[test]
    fn version_mismatch_is_classified_and_quarantined() {
        let store = Store::open(tmpdir("version")).unwrap();
        store.save_profile(0xCC, &sample_profile(), 1).unwrap();
        let path = store.profile_path(0xCC);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xFE; // container version field
        std::fs::write(&path, bytes).unwrap();
        let out = store.load_profile(0xCC).unwrap();
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::VersionMismatch { found } if found == 0xFE
        ));
    }

    /// Migration: a structurally valid version-1 container (pre-guard
    /// profile schema) is classified by its version, quarantined, and the
    /// slot regenerates under the new schema — the old counters are never
    /// misread as v2 data or merged into the fresh profile.
    #[test]
    fn v1_container_is_quarantined_and_regenerated() {
        use lpat_core::hash::crc32;
        let store = Store::open(tmpdir("migrate-v1")).unwrap();
        let h = 0x99u64;
        // Hand-build the v1 file: four profile tables (no guard sections),
        // version field 1, correct section + trailer CRCs.
        let mut counts = sample_profile().to_bytes();
        let tail = counts.split_off(counts.len() - 2);
        assert_eq!(tail, [0, 0], "v2 encoder ends with two empty guard tables");
        let mut c = Container::new(KIND_PROFILE);
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&h.to_le_bytes());
        meta.extend_from_slice(&5u64.to_le_bytes()); // five prior runs
        c.push("meta", meta);
        c.push("counts", counts);
        let mut bytes = write_container(&c);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len + 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(store.profile_path(h), &bytes).unwrap();
        // Classified as a version mismatch (not a checksum failure) and
        // moved aside.
        let out = store.load_profile(h).unwrap();
        assert!(out.value.is_none(), "v1 data must not load as v2");
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::VersionMismatch { found: 1 }
        ));
        assert!(out.quarantined[0].moved_to.as_ref().unwrap().exists());
        // Regeneration starts fresh: the v1 counters are gone, not merged.
        let r = store.record_run(h, &sample_profile()).unwrap();
        assert_eq!(r.value.runs, 1, "regenerated from empty, not from v1");
        let reloaded = store.load_profile(h).unwrap().value.unwrap();
        assert_eq!(reloaded.runs, 1);
        assert_eq!(reloaded.profile, sample_profile());
    }

    #[test]
    fn injected_write_corruption_is_caught_on_next_read() {
        let mut store = Store::open(tmpdir("inject-corrupt")).unwrap();
        store.faults = plan("store.write:corrupt@1");
        store.save_profile(0xDD, &sample_profile(), 1).unwrap();
        let out = store.load_profile(0xDD).unwrap();
        assert!(out.value.is_none(), "corrupted payload must not load");
        assert!(matches!(
            out.quarantined[0].error,
            StoreError::ChecksumFail(_)
        ));
    }

    #[test]
    fn injected_io_fault_fails_write_and_leaves_old_version() {
        let mut store = Store::open(tmpdir("inject-io")).unwrap();
        store.save_profile(0xEE, &sample_profile(), 1).unwrap();
        store.faults = plan("store.write:io@1");
        let err = store
            .save_profile(0xEE, &ProfileData::default(), 9)
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // The old version is intact and no temp file lingers.
        let loaded = store.load_profile(0xEE).unwrap().value.unwrap();
        assert_eq!(loaded.runs, 1);
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn lock_contention_bounded_and_deterministic() {
        let mut store = Store::open(tmpdir("lock"))
            .unwrap()
            .with_clock(Box::new(CountingClock(AtomicU32::new(0))));
        store.lock_retries = 4;
        // Unconditional contention: every attempt fails, then Locked.
        store.faults = plan("store.lock:panic");
        let err = store.lock().unwrap_err();
        assert_eq!(err, StoreError::Locked);
        // record_run surfaces Locked without touching the cache.
        let err = store.record_run(0x55, &sample_profile()).unwrap_err();
        assert_eq!(err, StoreError::Locked);
        assert!(!store.profile_path(0x55).exists());
        // Transient contention: first two attempts fail, then success.
        store.faults = plan("store.lock:panic@1,store.lock:panic@2");
        let guard = store.lock().expect("acquires after retries");
        drop(guard);
        assert!(!store.dir().join("lock").exists(), "guard releases on drop");
    }

    #[test]
    fn held_lock_blocks_until_released_then_stale_lock_is_broken() {
        let mut store = Store::open(tmpdir("lock2"))
            .unwrap()
            .with_clock(Box::new(CountingClock(AtomicU32::new(0))));
        store.lock_retries = 2;
        let guard = store.lock().unwrap();
        let err = store.lock().unwrap_err();
        assert_eq!(err, StoreError::Locked);
        drop(guard);
        // An abandoned lock (simulated by aging the threshold to zero) is
        // broken rather than wedging every future run.
        let _stale = store.lock().unwrap();
        std::mem::forget(_stale); // "killed process": no Drop
        store.lock_stale_after = Duration::ZERO;
        let g = store.lock().expect("stale lock must be broken");
        drop(g);
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

    #[test]
    fn dead_holder_lock_is_broken_immediately() {
        let sleeps = Arc::new(AtomicU32::new(0));
        let store = Store::open(tmpdir("deadpid"))
            .unwrap()
            .with_clock(Box::new(SharedCountingClock(sleeps.clone())));
        // A lock abandoned by a PID that cannot exist (pid_max is far
        // below this): broken on the first attempt, no backoff sleeps,
        // no staleness wait.
        std::fs::write(store.dir().join("lock"), "999999999\n").unwrap();
        let g = store.lock().expect("dead holder's lock must break");
        assert_eq!(sleeps.load(Ordering::SeqCst), 0, "no backoff needed");
        drop(g);
        // A live holder (our own PID) is NOT broken by the PID check.
        std::fs::write(
            store.dir().join("lock"),
            format!("{}\n", std::process::id()),
        )
        .unwrap();
        let mut store = store;
        store.lock_retries = 2;
        assert_eq!(store.lock().unwrap_err(), StoreError::Locked);
    }

    #[test]
    fn injected_journal_fault_fails_write_cleanly_at_every_step() {
        for step in 1..=4u8 {
            let mut store = Store::open(tmpdir(&format!("jstep{step}"))).unwrap();
            store.save_profile(0x31, &sample_profile(), 1).unwrap();
            store.faults = plan(&format!("store.journal:io@{step}"));
            let err = store.save_profile(0x31, &sample_profile(), 2).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "step {step}: {err:?}");
            // Old version intact, no temp debris, and the journal holds
            // no unresolved intent (reopen performs zero replays or
            // rollbacks).
            store.faults = None;
            assert_eq!(store.load_profile(0x31).unwrap().value.unwrap().runs, 1);
            let report = store.recover().unwrap();
            assert_eq!(report.replayed, 0, "step {step}");
            assert_eq!(report.rolled_back, 0, "step {step}");
            let wal: Vec<_> = std::fs::read_dir(store.dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".wal-"))
                .collect();
            assert!(wal.is_empty(), "step {step}: {wal:?}");
        }
        // Step 5 (commit append) is past the rename: the write succeeds
        // and the missing commit record costs nothing.
        let mut store = Store::open(tmpdir("jstep5")).unwrap();
        store.faults = plan("store.journal:io@5");
        store.save_profile(0x32, &sample_profile(), 7).unwrap();
        assert_eq!(store.load_profile(0x32).unwrap().value.unwrap().runs, 7);
        // Recovery re-discovers the completed op as a replay.
        store.faults = None;
        assert_eq!(store.recover().unwrap().replayed, 1);
    }

    #[test]
    fn journal_replay_installs_a_dead_writers_intact_temp() {
        let dir = tmpdir("jreplay");
        let store = Store::open(&dir).unwrap();
        let h = 0x42u64;
        store.save_profile(h, &sample_profile(), 1).unwrap();
        // Simulate a writer SIGKILLed after fsyncing its temp (step 4):
        // durable intent, intact temp, no commit.
        let bytes = encode_profile(h, &sample_profile(), 9);
        let final_name = format!("profile-{h:016x}.lpp");
        let temp_name = format!("{final_name}.wal-424242");
        std::fs::write(dir.join(&temp_name), &bytes).unwrap();
        store
            .append_journal(
                &IntentRec {
                    seq: 7,
                    op: OP_PROFILE,
                    hash: h,
                    data_len: bytes.len() as u32,
                    data_crc: crc32(&bytes),
                    final_name,
                    temp_name: temp_name.clone(),
                }
                .encode(),
            )
            .unwrap();
        drop(store);
        // Reopen: recovery finishes the write the dead process started.
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.load_profile(h).unwrap().value.unwrap().runs,
            9,
            "replayed version must be visible"
        );
        assert!(!dir.join(&temp_name).exists());
        assert!(!store.journal_path().exists(), "journal retired");
    }

    #[test]
    fn journal_rollback_discards_torn_temp_and_keeps_old_version() {
        let dir = tmpdir("jrollback");
        let store = Store::open(&dir).unwrap();
        let h = 0x43u64;
        store.save_profile(h, &sample_profile(), 1).unwrap();
        let bytes = encode_profile(h, &sample_profile(), 9);
        let final_name = format!("profile-{h:016x}.lpp");
        // Torn temp: half the payload (killed mid-write, step 2→3).
        let torn = dir.join(format!("{final_name}.wal-424242"));
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        store
            .append_journal(
                &IntentRec {
                    seq: 8,
                    op: OP_PROFILE,
                    hash: h,
                    data_len: bytes.len() as u32,
                    data_crc: crc32(&bytes),
                    final_name: final_name.clone(),
                    temp_name: format!("{final_name}.wal-424242"),
                }
                .encode(),
            )
            .unwrap();
        // A second intent whose temp never appeared (killed at step 2).
        store
            .append_journal(
                &IntentRec {
                    seq: 9,
                    op: OP_PROFILE,
                    hash: h,
                    data_len: bytes.len() as u32,
                    data_crc: crc32(&bytes),
                    final_name: final_name.clone(),
                    temp_name: format!("{final_name}.wal-424243"),
                }
                .encode(),
            )
            .unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.rolled_back, 2);
        assert_eq!(report.replayed, 0);
        assert!(!torn.exists(), "torn temp removed");
        assert_eq!(
            store.load_profile(h).unwrap().value.unwrap().runs,
            1,
            "old version stands"
        );
        // Zero quarantine files: rollback is clean, not corruption.
        let corrupt: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
            .collect();
        assert!(corrupt.is_empty(), "{corrupt:?}");
    }

    #[test]
    fn torn_journal_tail_is_ignored_but_durable_prefix_still_replays() {
        let dir = tmpdir("jtorn");
        let store = Store::open(&dir).unwrap();
        let h = 0x44u64;
        let bytes = encode_profile(h, &sample_profile(), 3);
        let final_name = format!("profile-{h:016x}.lpp");
        let temp_name = format!("{final_name}.wal-77");
        std::fs::write(dir.join(&temp_name), &bytes).unwrap();
        store
            .append_journal(
                &IntentRec {
                    seq: 1,
                    op: OP_PROFILE,
                    hash: h,
                    data_len: bytes.len() as u32,
                    data_crc: crc32(&bytes),
                    final_name,
                    temp_name,
                }
                .encode(),
            )
            .unwrap();
        // Crash during a later append: garbage half-record at the tail.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.journal_path())
                .unwrap();
            f.write_all(&[0xFF, 0x13, 0x00, 0x00, 0xAB]).unwrap();
        }
        let report = store.recover().unwrap();
        assert_eq!(report.replayed, 1, "prefix replays despite torn tail");
        assert_eq!(store.load_profile(h).unwrap().value.unwrap().runs, 3);
        assert!(!store.journal_path().exists());
    }

    #[test]
    fn committed_journal_history_is_inert_and_retired() {
        let dir = tmpdir("jcommitted");
        let store = Store::open(&dir).unwrap();
        store.save_profile(0x45, &sample_profile(), 1).unwrap();
        store.save_profile(0x46, &sample_profile(), 4).unwrap();
        assert!(store.journal_path().exists(), "history accumulates");
        let report = store.recover().unwrap();
        assert_eq!((report.replayed, report.rolled_back), (0, 0));
        assert!(!store.journal_path().exists());
        assert_eq!(store.load_profile(0x45).unwrap().value.unwrap().runs, 1);
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

    #[test]
    fn torn_write_truncation_at_every_offset_recovers() {
        let store = Store::open(tmpdir("torn")).unwrap();
        let h = 0x77;
        store.save_profile(h, &sample_profile(), 1).unwrap();
        let full = std::fs::read(store.profile_path(h)).unwrap();
        for cut in 0..full.len() {
            std::fs::write(store.profile_path(h), &full[..cut]).unwrap();
            let out = store.load_profile(h).unwrap();
            assert!(out.value.is_none(), "cut at {cut} loaded data");
            assert_eq!(out.quarantined.len(), 1, "cut at {cut}");
            // Clean up the quarantine file for the next iteration.
            if let Some(q) = &out.quarantined[0].moved_to {
                let _ = std::fs::remove_file(q);
            }
        }
    }
}
