//! A deterministic, non-cryptographic hasher for compiler-internal maps.
//!
//! `std`'s default `RandomState` (SipHash-1-3 with a per-process random
//! key) is the right default against untrusted input, but almost every
//! map in this workspace is keyed by compiler-internal ids — dense
//! integers and small structs an adversary never controls. For those, the
//! multiply-rotate scheme used by Firefox (and rustc) is several times
//! faster per lookup. The build environment is offline, so the `rustc-hash`
//! crate is reimplemented here in its entirety — it is ~20 lines.
//!
//! The exception is the text parser's name tables, keyed by names from the
//! input. Keys crafted to collide degrade a lookup there to a linear probe,
//! no worse than the linear name scans those tables replaced.
//!
//! Determinism note: hash-iteration order still must never leak into
//! output (the driver's byte-identical `--jobs` contract). That rule
//! predates this hasher — `RandomState` made any such leak fail loudly in
//! tests, and every emission site sorts explicitly — so swapping the
//! hasher changes per-lookup cost, not observable behavior.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox/rustc multiply-rotate hasher.
#[derive(Default, Clone)]
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
    fn write(&mut self, mut bytes: &[u8]) {
        // word, then half, quarter and byte tails, as rustc-hash does: no
        // variable-length copy for the short strings names are
        while let Some((w, rest)) = bytes.split_first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*w));
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<4>() {
            self.add_to_hash(u32::from_le_bytes(*w) as u64);
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<2>() {
            self.add_to_hash(u16::from_le_bytes(*w) as u64);
            bytes = rest;
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0x1234_5678_9abc_def0);
        b.write_u64(0x1234_5678_9abc_def0);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 7), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i * 7)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }
}
