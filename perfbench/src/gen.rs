//! Seeded inputs. Every dataset and every op sequence the benchmark
//! feeds the program is derived from `--seed` through [`Rng`], so one
//! seed always produces the same inputs and [`Fingerprint`]s of them
//! can be compared across runs.

use bda_storage::{DataSet, Value};

/// SplitMix64: tiny, fast, and good enough to drive input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`; each generator takes
    /// its own stream so adding one does not shift the others.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An order-insensitive checksum: row count plus a wrapping sum of
/// per-row hashes. Two bags with equal fingerprints hold the same rows
/// with overwhelming probability, whatever order they come back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: u64,
    pub sum: u64,
}

impl Fingerprint {
    pub fn of(ds: &DataSet) -> Fingerprint {
        let rows = ds.rows().expect("materialize rows for the checksum");
        let mut fp = Fingerprint::default();
        for row in &rows {
            fp.add_hash(hash_values(&row.0));
        }
        fp
    }

    pub fn add_hash(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Fold another fingerprint in (for fingerprints of op sequences).
    pub fn mix(&mut self, other: Fingerprint) {
        self.add_hash(other.sum ^ other.rows.rotate_left(17));
    }
}

/// FNV-1a over the values' bit patterns, finished with a SplitMix step
/// so that summing row hashes does not cancel structure.
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in values {
        match v {
            Value::Null => eat(&[0]),
            Value::Int(i) => {
                eat(&[1]);
                eat(&i.to_le_bytes());
            }
            Value::Float(f) => {
                eat(&[2]);
                eat(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => eat(&[3, *b as u8]),
            Value::Str(s) => {
                eat(&[4]);
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
        }
    }
    Rng(h).next_u64()
}
