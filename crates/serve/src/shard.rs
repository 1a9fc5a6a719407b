//! Content-hash-prefix sharding over the lifelong store.
//!
//! The store (PR 3) serializes writers on one directory-wide lock file —
//! correct for the single-program `lpatc` lifecycle, but a convoy under a
//! multi-tenant daemon where dozens of unrelated modules flush profiles
//! concurrently. A [`ShardedStore`] splits one cache directory into
//! `shard-XX/` subdirectories addressed by the top byte of the module's
//! content hash, so requests for different modules land on different lock
//! files with probability `1 - 1/N` and never convoy on one lock, while
//! requests for the *same* module still serialize on the same shard —
//! which is exactly the ordering the saturating profile merge needs.
//!
//! Every shard is an ordinary [`Store`], so all of PR 3's machinery —
//! checksummed records, atomic writes, quarantine recovery, the
//! injectable-clock exponential backoff — applies per shard unchanged, and
//! an `lpatc run --cache-dir <dir>/shard-07` pointed at a single shard
//! reads the daemon's artifacts with the stock tooling.

use std::path::{Path, PathBuf};

use lpat_vm::session::Stores;
use lpat_vm::{Store, StoreError};

/// A fixed set of [`Store`] shards under one root directory.
pub struct ShardedStore {
    root: PathBuf,
    shards: Vec<Store>,
}

impl ShardedStore {
    /// Open (creating if needed) `n` shards under `root`. `n` is clamped
    /// to `1..=256` — the shard index is the top byte of the content hash,
    /// reduced mod `n`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if any shard directory cannot be created.
    pub fn open(root: impl Into<PathBuf>, n: u32) -> Result<ShardedStore, StoreError> {
        let root = root.into();
        let n = n.clamp(1, 256);
        let mut shards = Vec::with_capacity(n as usize);
        for i in 0..n {
            shards.push(Store::open(root.join(format!("shard-{i:02x}")))?);
        }
        Ok(ShardedStore { root, shards })
    }

    /// The root cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a content hash lives in: the hash's top byte — the
    /// first two hex characters of the key every artifact file is named
    /// by — reduced mod the shard count.
    pub fn shard_index(&self, module_hash: u64) -> usize {
        ((module_hash >> 56) as usize) % self.shards.len()
    }

    /// The [`Store`] holding all artifacts for `module_hash`.
    pub fn shard(&self, module_hash: u64) -> &Store {
        &self.shards[self.shard_index(module_hash)]
    }

    /// Iterate all shards (stats, GC sweeps, tests).
    pub fn shards(&self) -> impl Iterator<Item = &Store> {
        self.shards.iter()
    }
}

impl Stores for ShardedStore {
    fn store_for(&self, module_hash: u64) -> &Store {
        self.shard(module_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lpat-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn hashes_spread_and_route_stably() {
        let s = ShardedStore::open(tmpdir("route"), 16).unwrap();
        assert_eq!(s.shard_count(), 16);
        // Same hash always routes to the same shard.
        let h = 0xAB12_3456_789A_BCDEu64;
        assert_eq!(s.shard_index(h), s.shard_index(h));
        assert_eq!(s.shard_index(h), 0xAB % 16);
        // Different top bytes land on different shards.
        assert_ne!(s.shard_index(0x01u64 << 56), s.shard_index(0x02u64 << 56));
        // Low bits do not affect routing (prefix sharding).
        assert_eq!(s.shard_index(h), s.shard_index(h ^ 0xFFFF));
    }

    #[test]
    fn shards_have_independent_lock_files() {
        let s = ShardedStore::open(tmpdir("locks"), 4).unwrap();
        // Hold shard 0's lock; shard 1 must still be acquirable instantly.
        let g0 = s.shards().next().unwrap().lock().unwrap();
        let h_shard1 = 0x01u64 << 56;
        let g1 = s.shard(h_shard1).lock().expect("no cross-shard convoy");
        drop(g1);
        drop(g0);
    }

    #[test]
    fn clamps_shard_count() {
        assert_eq!(
            ShardedStore::open(tmpdir("c0"), 0).unwrap().shard_count(),
            1
        );
        assert_eq!(
            ShardedStore::open(tmpdir("c9"), 10_000)
                .unwrap()
                .shard_count(),
            256
        );
    }
}
