//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.
//!
//! Every WAL record and snapshot entry carries one of these checksums so
//! recovery can tell a torn tail from silent corruption. Hand-rolled
//! because the build environment vendors no checksum crate; the table is
//! built once at first use.

use std::sync::OnceLock;

/// The reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    })
}

/// CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32, for checksumming a record without concatenating
/// its header and payload into one buffer.
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher (initial state all-ones, per the standard).
    pub fn new() -> Hasher {
        Hasher { state: !0 }
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The final checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// CRC-32 of `B` from the CRC-32s of `A` and of `A ‖ B` and `len` =
/// `|B|` — zlib's `crc32_combine`, solved for the second part. A caller
/// that ran one CRC pass over a buffer can checksum any sub-range this
/// way without rereading it.
pub fn crc32_of_suffix(whole: u32, prefix: u32, len: u64) -> u32 {
    whole ^ mul_mod(x_pow_8n(len), prefix)
}

/// `a · b` modulo the polynomial, in the reflected bit order the table
/// uses (bit 31 is `x^0`).
fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if (a >> bit) & 1 == 1 {
            product ^= b;
        }
        b = if b & 1 == 1 { POLY ^ (b >> 1) } else { b >> 1 };
    }
    product
}

/// `x^(8n)` modulo the polynomial: multiplying a CRC by it runs the CRC
/// over `n` zero bytes. One multiply per set bit of `n`, from a table of
/// `x^(8·2^k)` built once at first use.
fn x_pow_8n(n: u64) -> u32 {
    static POWERS: OnceLock<[u32; 64]> = OnceLock::new();
    let powers = POWERS.get_or_init(|| {
        let mut t = [0u32; 64];
        let mut power = 1 << (31 - 8); // x^8
        for slot in &mut t {
            *slot = power;
            power = mul_mod(power, power);
        }
        t
    });
    (0..64)
        .filter(|k| (n >> k) & 1 == 1)
        .fold(1 << 31, |out, k| mul_mod(powers[k], out)) // from x^0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"incremental checksumming must match the one-shot path";
        for split in [0, 1, 7, data.len() / 2, data.len()] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn suffix_checksum_matches_a_direct_pass() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 3, 8, 1000, 4999, 5000] {
            let (a, b) = data.split_at(split);
            let got = crc32_of_suffix(crc32(&data), crc32(a), b.len() as u64);
            assert_eq!(got, crc32(b), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"bit flips must never go unnoticed".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
