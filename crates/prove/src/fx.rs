//! A std-only Fx-style hasher for the prover's integer-keyed tables.
//!
//! Every key the prover hashes is a handful of machine words (term ids,
//! literals, small tags) built by the prover itself, so the DoS resistance
//! SipHash buys is worth nothing here while its cost per lookup is not.
//! This is the rotate–xor–multiply word hash of the Rust compiler's
//! `FxHasher`, with its final rotation. Nothing may depend on the
//! iteration order of a map built with it: lookups only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiplicative hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the state's low bits depending only on the
    /// input's low bits, and hash tables index by the low bits: rotate the
    /// well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FxHasher`] (create with `default()`).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
