//! # lpat-bench — the experiment harness
//!
//! Shared helpers for the binaries that regenerate the paper's evaluation
//! artifacts:
//!
//! * `table1` — typed load/store percentages per benchmark (Table 1);
//! * `table2` — link-time IPO timings vs. a full compile (Table 2);
//! * `fig5` — executable sizes: bytecode vs. cisc32 vs. risc32 (Figure 5).
//!
//! Run with `cargo run -p lpat-bench --release --bin <name>`.

#![warn(missing_docs)]

use lpat_core::Module;

/// Compile one workload and run the per-module (compile-time) pipeline,
/// producing the module as it would exist at link time.
pub fn prepare(name: &str, source: &str) -> Module {
    let mut m = lpat_minic::compile(name, source).unwrap_or_else(|e| panic!("{name}: {e}"));
    m.verify().unwrap_or_else(|e| panic!("{name}: {e:?}"));
    lpat_transform::function_pipeline().run(&mut m);
    m.verify().unwrap_or_else(|e| panic!("{name}: {e:?}"));
    m
}

/// A simple LZ77 compressor (4 KB window, greedy longest match, byte-wise
/// literals) used for the paper's §4.1.3 aside: general-purpose
/// compression roughly halves bytecode files. Format: a control byte
/// holding 8 flags (1 = match), then per item either a literal byte or a
/// 2-byte `(offset:12, len-3:4)` match reference.
pub fn lz_compress(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 4095;
    const MIN: usize = 3;
    const MAX: usize = 18;
    const HASH_BITS: u32 = 13;
    const NIL: usize = usize::MAX;
    // Hash-chain match finder: every position is indexed by the hash of
    // its next 3 bytes; candidates come from walking the chain for the
    // current hash instead of scanning the whole window. Any match of
    // length >= MIN shares its first 3 bytes with the target, so the
    // chain sees every candidate the former O(n*window) greedy scan saw
    // and the chosen match length — hence the compressed size — is
    // identical.
    #[inline]
    fn hash3(data: &[u8], p: usize) -> usize {
        let v = u32::from(data[p]) | (u32::from(data[p + 1]) << 8) | (u32::from(data[p + 2]) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }
    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; data.len()];
    let insert = |head: &mut [usize], prev: &mut [usize], p: usize| {
        if p + MIN <= data.len() {
            let h = hash3(data, p);
            prev[p] = head[h];
            head[h] = p;
        }
    };
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    let mut flags_at = usize::MAX;
    let mut flag_bit = 8;
    while i < data.len() {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        let start = i.saturating_sub(WINDOW);
        let mut best_len = 0;
        let mut best_off = 0;
        let limit = (data.len() - i).min(MAX);
        if limit >= MIN {
            let mut j = head[hash3(data, i)];
            while j != NIL && j >= start {
                let mut l = 0;
                while l < limit && data[j + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - j;
                    if l == limit {
                        break;
                    }
                }
                j = prev[j];
            }
        }
        if best_len >= MIN {
            out[flags_at] |= 1 << flag_bit;
            let token = ((best_off as u16) << 4) | ((best_len - MIN) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // Positions covered by the match still enter the index so
            // later targets can match into them.
            for p in i..i + best_len {
                insert(&mut head, &mut prev, p);
            }
            i += best_len;
        } else {
            insert(&mut head, &mut prev, i);
            out.push(data[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Decompress [`lz_compress`] output (used by tests to prove losslessness).
pub fn lz_decompress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let off = (token >> 4) as usize;
                let len = (token & 0xF) as usize + 3;
                let from = out.len() - off;
                for k in 0..len {
                    let b = out[from + k];
                    out.push(b);
                }
            } else {
                out.push(data[i]);
                i += 1;
            }
        }
    }
    out
}

/// Format a byte count as fractional KB, Figure-5 style.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"hello".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            (0..255u8).cycle().take(5000).collect(),
            vec![7; 10_000],
        ];
        for c in cases {
            let z = lz_compress(&c);
            assert_eq!(lz_decompress(&z), c);
        }
    }

    #[test]
    fn lz_compresses_bytecode_substantially() {
        let (_, m) = &lpat_workloads::compile_suite(10)[0];
        let bytes = lpat_bytecode::write_module(m);
        let z = lz_compress(&bytes);
        let ratio = z.len() as f64 / bytes.len() as f64;
        assert!(ratio < 0.75, "compression ratio {ratio}");
        assert_eq!(lz_decompress(&z), bytes);
    }

    /// The original O(n*window) greedy scan, kept as the size oracle:
    /// the hash-chain finder must never compress worse than this.
    fn greedy_reference(data: &[u8]) -> Vec<u8> {
        const WINDOW: usize = 4095;
        const MIN: usize = 3;
        const MAX: usize = 18;
        let mut out = Vec::new();
        let mut i = 0;
        let mut flags_at = usize::MAX;
        let mut flag_bit = 8;
        while i < data.len() {
            if flag_bit == 8 {
                flags_at = out.len();
                out.push(0);
                flag_bit = 0;
            }
            let start = i.saturating_sub(WINDOW);
            let mut best_len = 0;
            let mut best_off = 0;
            let limit = (data.len() - i).min(MAX);
            if limit >= MIN {
                let mut j = start;
                while j < i {
                    let mut l = 0;
                    while l < limit && data[j + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - j;
                        if l == limit {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if best_len >= MIN {
                out[flags_at] |= 1 << flag_bit;
                let token = ((best_off as u16) << 4) | ((best_len - MIN) as u16);
                out.extend_from_slice(&token.to_le_bytes());
                i += best_len;
            } else {
                out.push(data[i]);
                i += 1;
            }
            flag_bit += 1;
        }
        out
    }

    #[test]
    fn lz_roundtrips_all_workload_images_no_worse_than_greedy() {
        for (name, m) in &lpat_workloads::compile_suite(10) {
            let bytes = lpat_bytecode::write_module(m);
            let z = lz_compress(&bytes);
            assert_eq!(lz_decompress(&z), bytes, "round-trip failed for {name}");
            let g = greedy_reference(&bytes);
            assert!(
                z.len() <= g.len(),
                "{name}: hash-chain {} bytes > greedy {} bytes",
                z.len(),
                g.len()
            );
        }
    }

    #[test]
    fn prepare_produces_ssa_modules() {
        let w = &lpat_workloads::suite(0)[0];
        let m = prepare(w.name, &w.source);
        assert!(!m.display().contains("alloca"));
    }
}
