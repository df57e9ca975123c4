//! Non-cryptographic hashing: a fast hasher for integer-heavy map keys,
//! and FNV-1a for checksums of bytes that must not change.
//!
//! [`FxHasher`] is equivalent in spirit to `rustc-hash`'s FxHash
//! (multiply-and-rotate mixing); implemented in-tree to keep the
//! dependency set to the sanctioned crates. HashDoS resistance is
//! irrelevant here: all keys are internal ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-mix hasher (word-at-a-time for integer writes).
#[derive(Clone, Copy, Debug, Default)]
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
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// The FNV-1a 64-bit offset basis: [`fnv1a`] of no bytes.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash of `bytes`, continued from `h` (start from
/// [`FNV1A_BASIS`]), so a stream can be hashed piece by piece. Each step
/// is a bijection of the running hash, so changing any one byte always
/// changes the result. Enough to catch torn writes and bit rot; not a
/// cryptographic integrity guarantee.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        m.insert((1, 2), 0.5);
        m.insert((2, 1), 0.7);
        assert_eq!(m[&(1, 2)], 0.5);
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            s.insert(i * 7919);
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn hashes_differ_for_nearby_keys() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        // Not a statistical test, just a sanity check against constant output.
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(2));
        assert_ne!(h(1 << 32), h(1 << 33));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_streams() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV1A_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"), fnv1a(FNV1A_BASIS, b"foobar"));
    }

    #[test]
    fn byte_writes_cover_remainder_path() {
        let mut a = FxHasher::default();
        a.write(b"abcdefgh12345"); // 8 + 5 bytes
        let mut b = FxHasher::default();
        b.write(b"abcdefgh12346");
        assert_ne!(a.finish(), b.finish());
    }
}
