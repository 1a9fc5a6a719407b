//! The benchmark's inputs. Everything here is generated from `--seed`
//! inside this package; the program under test only ever sees the
//! generated sources and bytes.

pub mod kernels;
pub mod progen;
pub mod spec15;

/// What a program must print and return: the reference every engine's
/// result is compared against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Oracle {
    /// The `print_int` stream, one value per line.
    pub output: String,
    /// `main`'s return value.
    pub exit: i64,
}

impl Oracle {
    /// Build an oracle from the printed values and the exit code.
    pub fn new(prints: &[i32], exit: i32) -> Oracle {
        let mut output = String::new();
        for p in prints {
            output.push_str(&p.to_string());
            output.push('\n');
        }
        Oracle {
            output,
            exit: i64::from(exit),
        }
    }

    /// Whether a run's observed output and result match.
    pub fn matches(&self, output: &str, exit: i64) -> bool {
        self.output == output && self.exit == exit
    }
}

/// SplitMix64's output function: decorrelates consecutive seeds.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generators' random stream (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other users of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed) ^ mix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as usize) as i32
    }

    /// True with probability `percent` / 100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent as usize
    }
}
