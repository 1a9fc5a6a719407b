//! Content hashing primitives for the lifelong store.
//!
//! The persistence layer (paper §3.3, §3.5: profile data and reoptimized
//! code stored *alongside* the bytecode across runs) needs two hashes:
//!
//! * [`crc32`] — per-record integrity checksums inside on-disk files
//!   ([`crate::wire`]), so a torn write or bit rot is detected on read
//!   rather than silently consumed;
//! * [`fnv1a64`] — a stable 64-bit *content hash* keying cached artifacts
//!   (profiles, reoptimized modules) to the exact bytecode they were
//!   derived from, so stale data for a changed module is quarantined
//!   instead of applied.
//!
//! Both are implemented in-tree (no external deps) and are stable across
//! platforms and releases: they are part of the on-disk format. Beside
//! them live the seeded mixer [`splitmix64`] and [`IdHasher`], the hasher
//! of the optimizer's in-memory tables.

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum used by
/// zip/gzip/PNG. Table-driven; the table is built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// FNV-1a, 64-bit: a fast, dependency-free content hash with good
/// dispersion for keying cache entries. **Not** cryptographic — the store
/// trusts its own directory; the hash only detects *accidental* mismatch
/// (a recompiled module, a profile from different bytes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A multiply-rotate hasher for tables keyed by ids and small enums of
/// ids (rustc's `FxHasher`): a few cycles a word where the standard
/// library's SipHash costs tens. Not resistant to chosen keys, so only
/// for compiler-internal tables, never for anything read from outside.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` / `HashSet` hasher builder for [`IdHasher`].
pub type IdHashBuilder = std::hash::BuildHasherDefault<IdHasher>;

/// SplitMix64's output function at `z`: the workspace's one seeded mixer
/// (retry jitter, request ids, the randomized tests). No state beyond the
/// input, one multiply-xor-shift chain per draw.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 stream from the wrapped seed: a failing randomized case
/// is reproduced by its seed alone.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        out
    }

    /// The next draw reduced to `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn splitmix64_known_vectors() {
        // The published generator's first two outputs for seed 0.
        let mut s = SplitMix64(0);
        assert_eq!(
            (s.next(), s.next()),
            (0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4)
        );
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn single_bit_flip_changes_both() {
        let a = b"some module bytes".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x40;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
    }
}
