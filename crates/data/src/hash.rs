//! Fast, non-cryptographic hashing for view keys and join indices.
//!
//! The engine hashes millions of short tuple keys (view group-by tuples, join
//! keys). The standard library's SipHash is robust against HashDoS but slow
//! for this workload; the paper's C++ engine uses plain `std::unordered_map`
//! with trivial hashing of integer keys. We implement the well-known FxHash
//! mixing function (as used by rustc) locally instead of pulling an extra
//! dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the Fx hash function.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with the Fx hash function.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hashing state: a single 64-bit accumulator mixed with a rotate,
/// xor and multiply per written word.
#[derive(Debug, Default, Clone, Copy)]
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
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Convenience constructor for an empty [`FxHashSet`].
pub fn fx_hash_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::hash::Hash;

    fn fx_hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        assert_eq!(fx_hash_of(&42u64), fx_hash_of(&42u64));
        assert_eq!(fx_hash_of(&"hello"), fx_hash_of(&"hello"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fx_hash_of(&1u64), fx_hash_of(&2u64));
        assert_ne!(fx_hash_of(&"a"), fx_hash_of(&"b"));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<Vec<Value>, f64> = FxHashMap::default();
        m.insert(vec![Value::Int(1), Value::Cat(2)], 3.5);
        m.insert(vec![Value::Int(1), Value::Cat(3)], 4.5);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&vec![Value::Int(1), Value::Cat(2)]], 3.5);
    }

    #[test]
    fn works_as_set_hasher() {
        let mut s: FxHashSet<u32> = fx_hash_set();
        s.insert(1);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn byte_stream_hashing_covers_remainder() {
        // 11 bytes exercises both the 8-byte chunk and the remainder path.
        let a = fx_hash_of(&b"hello world".as_slice());
        let b = fx_hash_of(&b"hello worle".as_slice());
        assert_ne!(a, b);
    }
}
