//! End-to-end tests of the lifelong persistence subsystem (paper §3.5–3.6):
//! cross-run profile accumulation, crash-safe store recovery, and
//! offline reoptimization through the `lpatc` driver.
//!
//! The store's own unit tests (`crates/vm/src/store.rs`) cover the file
//! format and every error class in-process; this file drives
//! the same machinery the way a user would — separate `lpatc` processes
//! sharing a `--cache-dir` — and checks the cross-run guarantees:
//!
//! * two runs merge to *exactly* doubled saturating counts, and the
//!   merged profile identifies the same hot loops/traces as one
//!   double-length run;
//! * a compacted profile whose folded history is torn is quarantined and
//!   the store regenerates, never crashes, never silently reuses; a torn
//!   tail of appended records costs the one run that was being appended;
//! * a profile file copied into another cache directory is that
//!   directory's profile;
//! * every [`StoreError`] class degrades a run to "uncached with a
//!   warning", never a failure;
//! * two instrumented runs + offline `lpatc reopt` produce the same
//!   bytes as one in-memory profile→reoptimize session.

use std::path::{Path, PathBuf};
use std::process::Command;

use lpat::bytecode::write_module;
use lpat::core::hash::SplitMix64;
use lpat::core::Module;
use lpat::vm::{
    module_hash, reoptimize, FlushGuard, PgoOptions, ProfileData, Store, StoreError, Vm, VmOptions,
};

/// A program with a clearly hot call pair inside a loop whose trip count
/// we can scale; `main` returns 0 so subprocess success is unambiguous.
fn src(iters: u32) -> String {
    format!(
        "
extern void print_int(int v);

static int classify(int v) {{
    if (v % 97 == 0) return 3;
    if (v % 7 == 0) return 2;
    return 1;
}}

static int score(int kind, int v) {{
    if (kind == 3) return v * 31;
    if (kind == 2) return v * 5;
    return v + 1;
}}

int main() {{
    int total = 0;
    for (int i = 0; i < {iters}; i = i + 1) {{
        int kind = classify(i);
        total = total + score(kind, i);
        total = total % 1000003;
    }}
    print_int(total);
    return 0;
}}"
    )
}

fn build(iters: u32) -> Module {
    lpat::minic::compile("app", &src(iters)).expect("compile")
}

/// One instrumented in-process run; returns the collected profile.
fn profile_of(m: &Module) -> ProfileData {
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).expect("vm");
    vm.run_main().expect("run");
    vm.profile
}

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

/// A fresh per-test scratch directory under the target tmpdir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `m` as bytecode at `dir/app.bc`.
fn write_bc(dir: &Path, m: &Module) -> PathBuf {
    let p = dir.join("app.bc");
    std::fs::write(&p, write_module(m)).unwrap();
    p
}

/// Run `lpatc run <bc> --cache-dir <cache>` plus extra args; the run
/// itself must always succeed regardless of what the cache contains.
fn run_cached(bc: &Path, cache: &Path, extra: &[&str], env: &[(&str, &str)]) -> (String, String) {
    let mut cmd = lpatc();
    cmd.args([
        "run",
        bc.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    cmd.args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "run failed (cache dir {}):\n{}",
        cache.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Plant a compacted one-run profile of `m` at `hash`'s path in `cache`,
/// keyed to `key`: `hash` itself, or another module's, which makes it a
/// stale file.
fn plant_profile(cache: &Path, m: &Module, hash: u64, key: u64) -> PathBuf {
    let store = Store::open(cache).unwrap();
    store.record_run(key, &profile_of(m)).unwrap();
    store.compact(key).unwrap();
    let p = store.profile_path(hash);
    std::fs::rename(store.profile_path(key), &p).unwrap();
    p
}

fn corrupt_files(cache: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains(".corrupt-"))
        .collect()
}

// ---------------------------------------------------------------------
// Cross-run merge.
// ---------------------------------------------------------------------

#[test]
fn two_runs_store_exactly_doubled_counts() {
    let dir = fresh_dir("persist-double");
    let cache = dir.join("cache");
    let m = build(5000);
    let bc = write_bc(&dir, &m);

    let (out1, _) = run_cached(&bc, &cache, &[], &[]);
    let (out2, _) = run_cached(&bc, &cache, &[], &[]);
    assert_eq!(
        out1, out2,
        "deterministic program produced different output"
    );

    let single = profile_of(&m);
    let store = Store::open(&cache).unwrap();
    let loaded = store.load_profile(module_hash(&m)).unwrap();
    assert!(loaded.quarantined.is_empty());
    let stored = loaded.value.expect("profile recorded");
    assert_eq!(stored.runs, 2);

    // Exactly doubled — same keys, every count multiplied by two.
    assert_eq!(stored.profile.block_counts.len(), single.block_counts.len());
    for (k, v) in &single.block_counts {
        assert_eq!(
            stored.profile.block_counts.get(k),
            Some(&(v * 2)),
            "block count {k:?} not exactly doubled"
        );
    }
    assert_eq!(stored.profile.edge_counts.len(), single.edge_counts.len());
    for (k, v) in &single.edge_counts {
        assert_eq!(stored.profile.edge_counts.get(k), Some(&(v * 2)));
    }
    for (k, v) in &single.call_counts {
        assert_eq!(stored.profile.call_counts.get(k), Some(&(v * 2)));
    }
    for (k, v) in &single.callsite_counts {
        assert_eq!(stored.profile.callsite_counts.get(k), Some(&(v * 2)));
    }
}

/// A run that does not end cleanly still reaches the store. The engines'
/// counters are folded into `Vm::profile` when the run returns `Err` too,
/// and the guard persists what it was handed even when nobody calls
/// `flush` (the early-return path): fuel running dry in machine code must
/// store the bytes the reference interpreter collects at the same fuel.
#[test]
fn flush_guard_persists_the_profile_of_a_run_that_ran_dry() {
    let m = build(1_000_000);
    let hash = module_hash(&m);
    let run = |native: bool| {
        let opts = VmOptions {
            profile: true,
            fuel: Some(200_000),
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).expect("vm");
        let r = if native {
            vm.run_main_tiered()
        } else {
            vm.run_main()
        };
        assert!(r.is_err(), "200k instructions cannot finish this loop");
        if native {
            assert!(vm.tier_stats.native_insts > 100_000, "{:?}", vm.tier_stats);
        }
        std::mem::take(&mut vm.profile)
    };
    let reference = run(false);
    assert!(!reference.is_empty());

    let cache = fresh_dir("flush-ran-dry");
    let store = Store::open(&cache).expect("open");
    {
        let mut flush = FlushGuard::new(Some(&store), hash);
        flush.set_delta(run(true));
    }
    let stored = store
        .load_profile(hash)
        .expect("load")
        .value
        .expect("the dropped guard flushed");
    assert_eq!(stored.runs, 1);
    assert_eq!(stored.profile.to_bytes(), reference.to_bytes());
}

#[test]
fn merged_runs_find_the_same_hot_structure_as_one_long_run() {
    // Two 2500-iteration runs merged vs one 5000-iteration run: the
    // modules differ only in the loop bound constant, so hot loops and
    // traces must line up block-for-block.
    let half = build(2500);
    let full = build(5000);
    let mut merged = profile_of(&half);
    let again = profile_of(&half);
    merged.merge_saturating(&again);
    let long = profile_of(&full);

    let shape = |m: &Module, p: &ProfileData| -> Vec<(String, usize, Vec<usize>)> {
        p.hot_loops(m, 100)
            .iter()
            .map(|h| {
                let (trace, _cov) = lpat::vm::form_trace(m, p, h);
                (
                    m.func(h.func).name().to_string(),
                    h.header.index(),
                    trace.iter().map(|b| b.index()).collect(),
                )
            })
            .collect()
    };
    let merged_shape = shape(&half, &merged);
    assert!(!merged_shape.is_empty(), "expected at least one hot loop");
    assert_eq!(
        merged_shape,
        shape(&full, &long),
        "merged profile disagrees with a double-length run on hot structure"
    );
}

// ---------------------------------------------------------------------
// Torn writes.
// ---------------------------------------------------------------------

#[test]
fn torn_profile_writes_recover_with_quarantine() {
    let dir = fresh_dir("persist-torn");
    let cache = dir.join("cache");
    let m = build(600);
    let bc = write_bc(&dir, &m);
    run_cached(&bc, &cache, &[], &[]);

    let store = Store::open(&cache).unwrap();
    let hash = module_hash(&m);
    let ppath = store.profile_path(hash);
    // A run appends its profile; compaction folds it into the history this
    // test tears, which no kill can: the file that holds it arrived whole,
    // by rename.
    store.compact(hash).unwrap();
    let good = std::fs::read(&ppath).unwrap();
    // Header, then the head record, then the history's own frame.
    let history = 6 + (8 + 16) + 8;

    // Subprocess legs at representative truncation points of the history;
    // the store unit tests sweep every offset in-process.
    for cut in [
        history - 8,
        history,
        (history + good.len()) / 2,
        good.len() - 1,
    ] {
        for stale in corrupt_files(&cache) {
            std::fs::remove_file(stale).unwrap();
        }
        std::fs::write(&ppath, &good[..cut]).unwrap();
        let (_, stderr) = run_cached(&bc, &cache, &[], &[]);
        assert!(
            stderr.contains("quarantined"),
            "cut {cut}: no quarantine warning:\n{stderr}"
        );
        assert_eq!(
            corrupt_files(&cache).len(),
            1,
            "cut {cut}: torn file not moved aside"
        );
        // The regenerated profile holds exactly this run, nothing torn.
        let reloaded = store.load_profile(hash).unwrap();
        assert!(reloaded.quarantined.is_empty());
        assert_eq!(reloaded.value.expect("regenerated").runs, 1);
    }
}

/// The one profile file in `cache`.
fn profile_file(cache: &Path) -> PathBuf {
    let profiles: Vec<PathBuf> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("profile-")
        })
        .collect();
    assert_eq!(profiles.len(), 1, "{profiles:?}");
    profiles[0].clone()
}

/// A run killed inside its append leaves a torn tail. That is not
/// corruption: the run is lost, the runs before it are not, nothing is
/// quarantined or warned about, and the next run lands behind the valid
/// prefix where every later reader finds it.
#[test]
fn torn_log_tail_loses_one_run_and_quarantines_nothing() {
    let dir = fresh_dir("persist-torn-log");
    let cache = dir.join("cache");
    let m = build(600);
    let bc = write_bc(&dir, &m);
    run_cached(&bc, &cache, &[], &[]);
    run_cached(&bc, &cache, &[], &[]);
    let log = profile_file(&cache);
    let two = std::fs::read(&log).unwrap();
    std::fs::write(&log, &two[..two.len() - 1]).unwrap();

    let store = Store::open(&cache).unwrap();
    let runs = || {
        let loaded = store.load_profile(module_hash(&m)).unwrap();
        assert!(loaded.quarantined.is_empty());
        loaded.value.expect("profile").runs
    };
    assert_eq!(runs(), 1, "the torn record still counts");
    let (_, stderr) = run_cached(&bc, &cache, &[], &[]);
    assert!(!stderr.contains("quarantined"), "{stderr}");
    assert_eq!(runs(), 2, "the run after the tear is not visible");
    assert_eq!(
        std::fs::read(&log).unwrap(),
        two,
        "the tear was not cut off"
    );
    assert!(corrupt_files(&cache).is_empty());
}

// ---------------------------------------------------------------------
// Corruption matrix: every StoreError class degrades, never fails.
// ---------------------------------------------------------------------

#[test]
fn every_store_error_class_degrades_to_an_uncached_run() {
    let m = build(600);
    let hash = module_hash(&m);
    let clean_output = {
        let dir = fresh_dir("persist-matrix-clean");
        let cache = dir.join("cache");
        let bc = write_bc(&dir, &m);
        run_cached(&bc, &cache, &[], &[]).0
    };

    // Each leg: seed the failure, run, demand success + identical program
    // output + a matching warning.
    struct Leg {
        name: &'static str,
        expect: &'static str,
        env: &'static [(&'static str, &'static str)],
        seed: fn(&Path, &Module, u64),
    }
    let legs: &[Leg] = &[
        Leg {
            name: "checksum",
            expect: "integrity failure",
            env: &[],
            seed: |cache, m, hash| {
                // Flip a byte in the middle of a previously good profile.
                let p = plant_profile(cache, m, hash, hash);
                let mut b = std::fs::read(&p).unwrap();
                let mid = b.len() / 2;
                b[mid] ^= 0xFF;
                std::fs::write(&p, b).unwrap();
            },
        },
        Leg {
            name: "version",
            expect: "version",
            env: &[],
            seed: |cache, m, hash| {
                let p = plant_profile(cache, m, hash, hash);
                let mut b = std::fs::read(&p).unwrap();
                b[4..8].copy_from_slice(&0xFEu32.to_le_bytes());
                std::fs::write(&p, b).unwrap();
            },
        },
        Leg {
            name: "stale-hash",
            expect: "stale artifact",
            env: &[],
            seed: |cache, m, hash| {
                // A profile keyed to different module bytes, parked at
                // this module's path: gathered on an older build.
                plant_profile(cache, m, hash, hash ^ 1);
            },
        },
        Leg {
            name: "locked",
            expect: "locked",
            env: &[],
            seed: |cache, _m, hash| {
                // A real lock on the module's key, held by this test
                // process for the rest of its life: the guard's descriptor
                // is never closed.
                std::mem::forget(Store::open(cache).unwrap().lock(hash).unwrap());
            },
        },
        Leg {
            name: "write-io",
            expect: "I/O error",
            env: &[("LPAT_FAULTS", "store.write:io@1")],
            seed: |_, _, _| {},
        },
        Leg {
            name: "read-io",
            expect: "I/O error",
            env: &[("LPAT_FAULTS", "store.read:io@1")],
            seed: |cache, m, hash| {
                plant_profile(cache, m, hash, hash);
            },
        },
    ];

    // CI runs one class per job via LPAT_STORE_MATRIX=<name>; locally
    // every class runs.
    let only = std::env::var("LPAT_STORE_MATRIX").ok();
    for leg in legs {
        if let Some(sel) = &only {
            if sel != leg.name {
                continue;
            }
        }
        let dir = fresh_dir(&format!("persist-matrix-{}", leg.name));
        let cache = dir.join("cache");
        let bc = write_bc(&dir, &m);
        (leg.seed)(&cache, &m, hash);
        let (stdout, stderr) = run_cached(&bc, &cache, &[], leg.env);
        assert_eq!(
            stdout, clean_output,
            "{}: program output changed under a cache failure",
            leg.name
        );
        assert!(
            stderr.to_lowercase().contains(&leg.expect.to_lowercase()),
            "{}: expected a '{}' warning, got:\n{stderr}",
            leg.name,
            leg.expect
        );
        // Failed persistence must leave no temp droppings behind.
        if cache.exists() {
            let tmps: Vec<_> = std::fs::read_dir(&cache)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains(".tmp-"))
                .collect();
            assert!(
                tmps.is_empty(),
                "{}: leftover temp files {tmps:?}",
                leg.name
            );
        }
    }
}

/// A backoff clock that does not sleep: `lock()` answers at once.
struct NoSleep;
impl lpat::vm::store::Clock for NoSleep {
    fn sleep(&self, _d: std::time::Duration) {}
}

/// The kernel holds the store lock: a writer SIGKILLed while it holds it
/// frees the store the moment it dies — before its parent reaps it, with
/// nothing left behind for anyone to judge dead or alive.
#[test]
fn a_killed_lock_holder_frees_the_store_at_once() {
    let dir = fresh_dir("persist-killed-holder");
    let cache = dir.join("cache");
    let m = build(600);
    let hash = module_hash(&m);
    let bc = write_bc(&dir, &m);
    // Parked before journal step 1 of its flush, the run holds its
    // module's lock.
    let mut child = lpatc()
        .args(["run", bc.to_str().unwrap(), "--cache-dir"])
        .arg(&cache)
        .args(["--inject-faults", "store.journal:delay=5000@1", "--quiet"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let held = (0..1000).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let probe = Store::open(&cache).map(|s| s.with_clock(Box::new(NoSleep)));
        probe.is_ok_and(|s| s.lock(hash).is_err_and(|e| e == StoreError::Locked))
    });
    child.kill().unwrap();
    assert!(held, "the parked run never held the lock");
    // Dead but not yet reaped.
    let store = Store::open(&cache).unwrap();
    drop(store.lock(hash).expect("a killed holder's lock is free"));
    assert!(!child.wait().unwrap().success());
    drop(store.lock(hash).expect("and stays free once it is reaped"));
}

/// A cache directory the two-file layout left behind — an LPCF base at the
/// profile path, an LPPL version-1 log beside it, an LPCF reoptimized
/// module: the run is correct and uncached, each old file at a path this
/// layout reads is moved aside once, the log nothing reads is swept, and
/// none of it is counted.
#[test]
fn a_cache_directory_of_the_two_file_layout_is_quarantined_not_misread() {
    let dir = fresh_dir("persist-old-layout");
    let cache = dir.join("cache");
    let m = build(600);
    let hash = module_hash(&m);
    let bc = write_bc(&dir, &m);
    let clean_output = run_cached(&bc, &dir.join("clean-cache"), &[], &[]).0;

    let store = Store::open(&cache).unwrap();
    let lpcf = |kind: &[u8; 4]| {
        let mut b = b"LPCF".to_vec();
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(kind);
        b.extend_from_slice(&[0x5A; 200]);
        b
    };
    let mut v1_log = b"LPPL".to_vec();
    v1_log.extend_from_slice(&1u32.to_le_bytes());
    v1_log.extend_from_slice(&[0; 12]);
    let log = cache.join(format!("profile-{hash:016x}.log"));
    std::fs::write(store.profile_path(hash), lpcf(b"PROF")).unwrap();
    std::fs::write(store.reopt_path(hash), lpcf(b"ROPT")).unwrap();
    std::fs::write(&log, &v1_log).unwrap();

    let (stdout, stderr) = run_cached(&bc, &cache, &[], &[]);
    assert_eq!(stdout, clean_output);
    assert!(!stderr.contains("using reoptimized module"), "{stderr}");
    // One warning per class: the second file is in the "1 more" line.
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(stderr.contains("1 more 'checksum-fail'"), "{stderr}");
    assert_eq!(corrupt_files(&cache).len(), 2);
    assert!(!log.exists(), "the old log was not swept");
    let (_, stderr) = run_cached(&bc, &cache, &[], &[]);
    assert!(!stderr.contains("quarantined"), "{stderr}");
    assert_eq!(corrupt_files(&cache).len(), 2);
    let stored = store
        .load_profile(hash)
        .unwrap()
        .value
        .expect("regenerated");
    assert_eq!(stored.runs, 2, "exactly the two runs since");
}

// ---------------------------------------------------------------------
// Store file fuzzing.
// ---------------------------------------------------------------------

/// The largest single allocation this thread asked for while `WATCH` was
/// on: a loader that believed a length field a mutant made up would show
/// here as megabytes asked for on behalf of a file of a few hundred bytes.
struct Watching;

thread_local! {
    static WATCH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = WATCH.try_with(|w| {
        if w.get() {
            let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
        }
    });
}

unsafe impl std::alloc::GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        std::alloc::System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        note_alloc(new);
        std::alloc::System.realloc(ptr, layout, new)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Every store file kind — a profile with a history and two runs behind
/// it, a reoptimized module, a deny record — cut at every offset, with
/// every byte flipped, and under 2 000 random mutations: the damage is
/// detected (a history, module or deny record that is not whole is never
/// handed back; appended runs count up to the damage and not past it), no
/// load panics, and none allocates on a mutant's say-so.
#[test]
fn mutated_store_files_never_panic() {
    use lpat::vm::store::DenyRecord;

    let dir = fresh_dir("persist-fuzz");
    let cache = dir.join("cache");
    let m = build(200);
    let hash = module_hash(&m);
    let store = Store::open(&cache).unwrap();
    let one = profile_of(&m);
    store.record_run(hash, &one).unwrap();
    store.compact(hash).unwrap();
    for _ in 0..2 {
        FlushGuard::new(Some(&store), hash).set_delta(one.clone());
    }
    store.save_reopt(hash, &m).unwrap();
    let deny = DenyRecord {
        hash,
        count: 2,
        denied: true,
        first_unix_ms: 1_000,
        last_unix_ms: 2_000,
    };
    store.save_deny(&deny).unwrap();
    let paths = [
        store.profile_path(hash),
        store.reopt_path(hash),
        store.deny_path(hash),
    ];
    let seeds = paths.clone().map(|p| std::fs::read(p).unwrap());
    // One, two or three runs of a deterministic program: the only
    // profiles a damaged file may still yield.
    let folds: Vec<Vec<u8>> = (1..=3)
        .map(|runs| {
            let mut p = ProfileData::default();
            (0..runs).for_each(|_| p.merge_saturating(&one));
            p.to_bytes()
        })
        .collect();

    // Park `bytes` at `paths[kind]`, load it, and hold the result against
    // the clean file's. `damaged`: the mutation is known to have changed
    // the file, so only a profile may still load, short of its last run.
    let load = |kind: usize, bytes: &[u8], damaged: bool, what: &str| {
        std::fs::write(&paths[kind], bytes).unwrap();
        PEAK.set(0);
        WATCH.set(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
            0 => store.load_profile(hash).unwrap().value.map(|sp| {
                assert_eq!(sp.profile.to_bytes(), folds[sp.runs as usize - 1], "{what}");
                sp.runs
            }),
            1 => store.load_reopt(hash, "fuzz").unwrap().value.map(|back| {
                assert_eq!(write_module(&back), write_module(&m), "{what}");
                0
            }),
            _ => store.load_deny(hash).map(|back| {
                assert_eq!(back, deny, "{what}");
                0
            }),
        }));
        WATCH.set(false);
        let loaded = r.unwrap_or_else(|_| panic!("{what}: the load panicked"));
        assert!(
            PEAK.get() <= 1 << 20,
            "{what}: a {}-byte file made the loader ask for {} bytes at once",
            bytes.len(),
            PEAK.get()
        );
        if damaged {
            assert!(
                kind == 0 && loaded < Some(3) || loaded.is_none(),
                "{what}: damage went unnoticed"
            );
        }
        for stale in corrupt_files(&cache) {
            std::fs::remove_file(stale).unwrap();
        }
    };

    for (kind, seed) in seeds.iter().enumerate() {
        load(kind, seed, false, &format!("kind {kind}, clean"));
        for at in 0..seed.len() {
            load(kind, &seed[..at], true, &format!("kind {kind}, cut {at}"));
            let mut flipped = seed.clone();
            flipped[at] ^= 0xFF;
            load(kind, &flipped, true, &format!("kind {kind}, flip {at}"));
        }
    }

    let mut rng = SplitMix64(0xcafe_f00d);
    let mut below = |bound: usize| rng.below(bound as u64) as usize;
    for i in 0..2_000u32 {
        let mut buf = seeds[below(seeds.len())].clone();
        for _ in 0..=below(4) {
            match if buf.is_empty() { 3 } else { below(4) } {
                0 => {
                    let p = below(buf.len());
                    buf[p] ^= 1 << below(8);
                }
                1 => {
                    let p = below(buf.len());
                    buf[p] = below(256) as u8;
                }
                2 => buf.truncate(below(buf.len() + 1)),
                _ => {
                    let p = below(buf.len() + 1);
                    buf.insert(p, below(256) as u8);
                }
            }
        }
        // Park the mutant at all three paths: whatever loads must be what
        // the clean files hold.
        for kind in 0..paths.len() {
            load(kind, &buf, false, &format!("mutant {i} as kind {kind}"));
        }
    }
}

// ---------------------------------------------------------------------
// Offline reoptimization over the store.
// ---------------------------------------------------------------------

#[test]
fn offline_reopt_matches_in_memory_session() {
    let dir = fresh_dir("persist-reopt");
    let cache = dir.join("cache");
    let m = build(5000);
    let bc = write_bc(&dir, &m);

    // End-user side: two instrumented runs in separate processes.
    run_cached(&bc, &cache, &[], &[]);
    run_cached(&bc, &cache, &[], &[]);

    // Idle-time side: offline reopt over the accumulated store.
    let out_path = dir.join("reopt.bc");
    let out = lpatc()
        .args([
            "reopt",
            bc.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
            "--emit",
            "bc",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "reopt failed:\n{stderr}");
    assert!(stderr.contains("inlined"), "no reopt summary:\n{stderr}");

    // The same session replayed entirely in memory: two profiled runs,
    // merge, reoptimize. Byte-identical to the offline path. The driver
    // works on the *shipped* (serialized) module, so replay from the
    // same bytes.
    let mut mm = lpat::bytecode::read_module("app", &write_module(&m)).unwrap();
    let mut merged = profile_of(&mm);
    let second = profile_of(&mm);
    merged.merge_saturating(&second);
    reoptimize(&mut mm, &merged, &PgoOptions::default());
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        write_module(&mm),
        "offline store-driven reopt diverged from the in-memory session"
    );

    // And the next run transparently picks up the cached module.
    let (_, stderr) = run_cached(&bc, &cache, &[], &[]);
    assert!(
        stderr.contains("using reoptimized module"),
        "cached reopt module not used:\n{stderr}"
    );
}

// ---------------------------------------------------------------------
// A profile moves as the file it is.
// ---------------------------------------------------------------------

/// `lpatc reopt <bc> <source...> -o <out>`; returns stderr.
fn reopt_to(bc: &Path, source: &[&str], out: &Path) -> String {
    let o = lpatc()
        .args(["reopt", bc.to_str().unwrap()])
        .args(source)
        .args(["-o", out.to_str().unwrap(), "--emit", "bc"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&o.stderr).into_owned();
    assert!(o.status.success(), "reopt {source:?} failed:\n{stderr}");
    stderr
}

/// A profile moves between machines as the file it already is: cache A's
/// `profile-<hash>.lpp`, a history of one run with two more appended
/// behind it, copied into cache B is B's profile, so `reopt` there reads
/// the same three runs and emits the same bytes as in A. A run appends
/// to the same file copied into cache C (B's own runs execute
/// the module its reopt cached, under that module's hash), which its
/// next `reopt` reads as four runs.
#[test]
fn a_profile_file_copied_into_another_cache_is_its_profile() {
    let dir = fresh_dir("persist-copied");
    let m = build(600);
    let hash = module_hash(&m);
    let bc = write_bc(&dir, &m);
    let a = Store::open(dir.join("a")).unwrap();
    run_cached(&bc, a.dir(), &[], &[]);
    a.compact(hash).unwrap();
    for _ in 0..2 {
        run_cached(&bc, a.dir(), &[], &[]);
    }
    let shipped = std::fs::read(a.profile_path(hash)).unwrap();
    let (b, c) = (
        Store::open(dir.join("b")).unwrap(),
        Store::open(dir.join("c")).unwrap(),
    );
    for to in [&b, &c] {
        std::fs::write(to.profile_path(hash), &shipped).unwrap();
    }

    let mut emitted = Vec::new();
    for from in [&a, &b] {
        let out = dir.join("reopt.bc");
        let stderr = reopt_to(&bc, &["--cache-dir", from.dir().to_str().unwrap()], &out);
        assert!(stderr.contains("(3 runs of profile)"), "{stderr}");
        assert!(!stderr.contains("quarantined"), "{stderr}");
        emitted.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(emitted[0], emitted[1], "B reoptimized unlike A");
    assert_ne!(
        std::fs::read(a.profile_path(hash)).unwrap(),
        shipped,
        "the copied file had no appended runs left to fold"
    );

    let (_, stderr) = run_cached(&bc, c.dir(), &[], &[]);
    assert!(!stderr.contains("quarantined"), "{stderr}");
    let out = dir.join("reopt-c.bc");
    let stderr = reopt_to(&bc, &["--cache-dir", c.dir().to_str().unwrap()], &out);
    assert!(stderr.contains("(4 runs of profile)"), "{stderr}");
    assert!(corrupt_files(c.dir()).is_empty());
}
