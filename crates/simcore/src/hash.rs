//! Deterministic hashing for simulator-side collections.
//!
//! `std::collections::HashMap` seeds its hasher from process entropy,
//! so iteration order differs between runs. Nothing in the workspace
//! is allowed to observe that: `clippy.toml` bans the std maps
//! everywhere but here. Code that wants O(1) lookups uses
//! [`DetHashMap`] instead — the same std container behind an
//! FxHash-style hasher with a fixed seed, so iteration order is a pure
//! function of the insertion sequence and is identical on every run and
//! every platform.

#![expect(
    clippy::disallowed_types,
    reason = "the deterministic maps wrap std's, with the seeded hasher fixed"
)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher with no per-process seed.
///
/// Not DoS-resistant — all keys in the simulator are internal ids, not
/// attacker-controlled input.
#[derive(Default, Clone)]
pub struct DetHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(w) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// The fixed-seed `BuildHasher` behind [`DetHashMap`].
pub(crate) type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// `HashMap` with a deterministic, explicitly seeded hasher.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_insertions_same_iteration_order() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 7919, i);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn hasher_distributes() {
        let mut s: DetHashMap<u64, ()> = DetHashMap::default();
        for i in 0..10_000u64 {
            s.insert(i, ());
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn str_keys_work() {
        let mut m: DetHashMap<&str, u32> = DetHashMap::default();
        m.insert("alpha", 1);
        m.insert("beta", 2);
        assert_eq!(m["alpha"], 1);
        assert_eq!(m["beta"], 2);
    }
}
