//! Work fingerprints: a 64-bit FNV-1a hash over what a workload produced.
//!
//! A speed-up only counts when the fingerprint is unchanged, so the hash
//! covers outputs (programs, prior and likelihood bits, inventions, score
//! bits, solved sets, learned weights) and leaves out how the work was
//! done (`typed_out`, `solve_time`, thread count).

use std::fmt;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher with typed, self-delimiting writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(OFFSET)
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Hash a string, length-prefixed so adjacent strings cannot merge.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Hash an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_delimited() {
        let mut a = Fingerprint::default();
        a.str("ab");
        a.str("c");
        let mut b = Fingerprint::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }

    #[test]
    fn floats_hash_by_bits() {
        let mut a = Fingerprint::default();
        a.f64(0.0);
        let mut b = Fingerprint::default();
        b.f64(-0.0);
        assert_ne!(a, b);
    }
}
