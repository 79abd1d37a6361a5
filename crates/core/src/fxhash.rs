//! A fast, deterministic hasher for the engine's internal per-peer tables.
//!
//! The std `HashMap` default (SipHash with a random key) is designed to
//! resist hash-flooding from untrusted keys. The engine's tables are keyed
//! by peer identifiers the embedding application already controls, and the
//! per-observation path performs several lookups per probe, so the
//! DoS-hardening tax is pure overhead here. This is the FxHash
//! multiply-rotate scheme used by rustc, reimplemented locally because the
//! build environment is offline (no `rustc-hash` / `fxhash` crates).
//!
//! Determinism is a feature, not just speed: with a fixed hasher, table
//! iteration order — and therefore anything derived from it — is identical
//! across processes and runs, which keeps simulation reports reproducible.

#![allow(
    clippy::disallowed_types,
    reason = "definition site: std HashMap with the fixed hasher below is the deterministic \
              alias every other crate is required to use"
)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash function: fold each word into the state with a rotate,
/// xor and multiply. Not cryptographic; excellent for small integer-like
/// keys.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            let mut word = [0u8; 8];
            word[..remainder.len()].copy_from_slice(remainder);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
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
        let mut map_a: FxHashMap<u64, u32> = FxHashMap::default();
        let mut map_b: FxHashMap<u64, u32> = FxHashMap::default();
        for key in 0..100u64 {
            map_a.insert(key * 7, key as u32);
            map_b.insert(key * 7, key as u32);
        }
        let order_a: Vec<u64> = map_a.keys().copied().collect();
        let order_b: Vec<u64> = map_b.keys().copied().collect();
        assert_eq!(order_a, order_b, "identical inserts iterate identically");
    }

    #[test]
    fn distinct_keys_hash_distinctly() {
        // Smoke check that the function actually disperses nearby keys.
        let hash = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        let hashes: std::collections::BTreeSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let hash_bytes = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash_bytes(b"abcdefgh_x"), hash_bytes(b"abcdefgh_y"));
    }
}
