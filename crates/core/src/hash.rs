//! A fast non-cryptographic hasher for state tables and content keys.
//!
//! State interning is the hottest hash-table workload in the checker; the
//! default SipHash is needlessly strong for it (no untrusted input). This
//! is the classic Fx/fxhash multiply-rotate mix, implemented locally to
//! stay within the approved dependency set. It lives in `unity-core` so
//! both the model checker's intern tables and the compositional layer's
//! content-hashed certificates key with the same function.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` build-hasher alias using [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (word-at-a-time).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_discriminating() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"abc"), h(b"abc"));
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"12345678"), h(b"12345679"));
    }

    #[test]
    fn usable_in_hashmap() {
        let mut m: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&5usize.to_le_bytes().to_vec()], 5);
    }
}
