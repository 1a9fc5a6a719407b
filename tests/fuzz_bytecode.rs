//! Mutation/truncation fuzzing of the bytecode reader.
//!
//! `read_module` is the trust boundary of the persistent-IR model: the
//! paper's lifelong pipeline re-reads bytecode produced years earlier by
//! other tools, so the reader must return [`DecodeError`] — never panic,
//! never attempt an absurd allocation — for *any* byte string. This file
//! hammers it with ~10k mutated, truncated, and hostile inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lpat::bytecode::format::{write_varint, MAGIC, VERSION};
use lpat::bytecode::{read_module, write_module};
use lpat::core::hash::SplitMix64;
use lpat::vm::{Vm, VmOptions};

/// Bounded draws over the workspace's SplitMix64.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(SplitMix64(seed))
    }
    fn next(&mut self) -> u64 {
        self.0.next()
    }
    fn usize(&mut self, bound: usize) -> usize {
        self.0.below(bound as u64) as usize
    }
}

/// Well-formed bytecode images to mutate: the whole workload suite.
fn corpus() -> Vec<Vec<u8>> {
    lpat::workloads::compile_suite(0)
        .iter()
        .map(|(_, m)| write_module(m))
        .collect()
}

/// Feed one buffer to the reader; the only acceptable outcomes are
/// `Ok` (then the module must survive a verify attempt — and if it *does*
/// verify, actually run under both engines) or `Err`. Decode-only fuzzing
/// would miss the execution paths a hostile-but-verifier-clean module can
/// reach (mistyped indirect calls, absurd GEPs), so survivors are executed
/// under a small fuel budget: any `Ok`/trap is fine, a panic is a bug.
fn must_not_panic(buf: &[u8], what: &str) {
    let r = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(m) = read_module("fuzz", buf) {
            let _ = m.display();
            if m.verify().is_ok() {
                let opts = VmOptions {
                    fuel: Some(4_000),
                    mem_limit: 1 << 20,
                    ..VmOptions::default()
                };
                if let Ok(mut vm) = Vm::new(&m, opts.clone()) {
                    let _ = vm.run_main();
                }
                if let Ok(mut vm) = Vm::new(&m, opts) {
                    let _ = vm.run_main_jit();
                }
            }
        }
    }));
    assert!(
        r.is_ok(),
        "reader/engine panicked on {what} ({} bytes): {:02x?}...",
        buf.len(),
        &buf[..buf.len().min(64)]
    );
}

/// ~8k mutated images across the corpus (the remaining ~2k of the
/// issue's 10k budget are the truncation and hostile-header tests).
fn mutants(corpus: &[Vec<u8>]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = Rng::new(0x17a7_f00d);
    (0..8_000).map(move |_| {
        let mut buf = corpus[rng.usize(corpus.len())].clone();
        for _ in 0..=rng.usize(4) {
            match if buf.is_empty() { 3 } else { rng.usize(4) } {
                // Flip one bit.
                0 => {
                    let p = rng.usize(buf.len());
                    buf[p] ^= 1 << rng.usize(8);
                }
                // Overwrite one byte (0x00/0xFF/random are all common
                // varint/length-field attacks).
                1 => {
                    let p = rng.usize(buf.len());
                    buf[p] = rng.next() as u8;
                }
                // Truncate the tail.
                2 => buf.truncate(rng.usize(buf.len() + 1)),
                // Insert a random byte.
                _ => {
                    let p = rng.usize(buf.len() + 1);
                    buf.insert(p, rng.next() as u8);
                }
            }
        }
        buf
    })
}

#[test]
fn mutated_modules_never_panic_the_reader() {
    for (i, buf) in mutants(&corpus()).enumerate() {
        must_not_panic(&buf, &format!("mutation iteration {i}"));
    }
}

/// Decoding is not verifying: some mutants decode into modules the
/// verifier rejects (mistyped operands, a shift on a non-integer). The
/// reader lets those through by design; `lpatc` must not run them.
#[test]
fn lpatc_refuses_to_run_bytecode_the_verifier_rejects() {
    let unverifiable = mutants(&corpus())
        .find(|buf| read_module("fuzz", buf).is_ok_and(|m| m.verify().is_err()))
        .expect("some mutant decodes and fails the verifier");
    let path = std::env::temp_dir().join(format!("lpat-fuzz-unverified-{}.bc", std::process::id()));
    std::fs::write(&path, &unverifiable).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lpatc"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("spawn lpatc");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("verifier:"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran before refusing: {:?}",
        out.stdout
    );
}

#[test]
fn every_truncation_point_is_handled() {
    let corpus = corpus();
    // Exhaustive prefixes of the smallest image, sampled cuts elsewhere.
    let smallest = corpus.iter().min_by_key(|b| b.len()).unwrap();
    for cut in 0..smallest.len() {
        must_not_panic(&smallest[..cut], &format!("prefix of length {cut}"));
    }
    let mut rng = Rng::new(0xdead_beef);
    for buf in &corpus {
        for _ in 0..64 {
            let cut = rng.usize(buf.len());
            must_not_panic(&buf[..cut], &format!("sampled prefix {cut}"));
        }
    }
}

/// A syntactically valid header followed by `payload`.
fn with_header(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::from(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn hostile_length_fields_error_without_allocating() {
    // Declared counts far beyond the remaining input must be rejected
    // up front (no with_capacity OOM), for every varint width.
    for huge in [
        u64::MAX,
        u64::MAX >> 1,
        u32::MAX as u64,
        1 << 48,
        1 << 32,
        65_536,
    ] {
        let mut payload = Vec::new();
        write_varint(&mut payload, huge);
        let buf = with_header(&payload);
        assert!(
            read_module("fuzz", &buf).is_err(),
            "declared count {huge} with no data must not parse"
        );
        // The same count buried after a plausible prefix of the real
        // stream: splice it into a valid image at every varint-ish spot
        // in the first 64 bytes.
        let real = &corpus()[0];
        for pos in 8..real.len().min(64) {
            let mut spliced = real[..pos].to_vec();
            write_varint(&mut spliced, huge);
            spliced.extend_from_slice(&real[pos..]);
            must_not_panic(&spliced, &format!("spliced count {huge} at {pos}"));
        }
    }
}

#[test]
fn random_lpat_prefixed_garbage_never_panics() {
    let mut rng = Rng::new(0x5eed);
    for i in 0..1_000 {
        let n = rng.usize(256);
        let mut payload = Vec::with_capacity(n);
        for _ in 0..n {
            payload.push(rng.next() as u8);
        }
        must_not_panic(&with_header(&payload), &format!("random payload {i}"));
    }
    // And headerless garbage / wrong magic / wrong version.
    must_not_panic(b"", "empty input");
    must_not_panic(b"LPA", "short magic");
    must_not_panic(b"ELF\x7f\x00\x00\x00\x00", "wrong magic");
    let mut wrong_version = Vec::from(MAGIC);
    wrong_version.extend_from_slice(&999u32.to_le_bytes());
    must_not_panic(&wrong_version, "wrong version");
}

#[test]
fn roundtrip_still_exact_after_hardening() {
    // The defensive bounds must not reject anything the writer emits.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let bytes = write_module(&m);
        let back = read_module(name, &bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(write_module(&back), bytes, "{name}: unstable roundtrip");
    }
}
