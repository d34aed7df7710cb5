//! A fast multiply-rotate hasher for the simulator's hot integer-keyed
//! maps (resident pages, the region engine's slot index).
//!
//! The standard library's default SipHash is DoS-resistant but costs
//! tens of nanoseconds per `u64` key — measurable when the replay loop
//! probes a map on every L2 miss. Keys here are simulator-internal
//! addresses, never attacker-controlled, so a non-cryptographic mix is
//! safe. No map keyed with this hasher may let iteration order reach
//! simulation results; every current user either never iterates or
//! sorts immediately after collecting.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-style multiply constant (same mix as the well-known
/// FxHash): odd, high entropy across the top bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-shot mixing hasher. State is a single `u64`; each write folds
/// the input in with rotate-xor-multiply.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed through [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_and_deterministically() {
        let h = |n: u64| {
            let mut s = FastHasher::default();
            s.write_u64(n);
            s.finish()
        };
        assert_eq!(h(42), h(42), "stateless determinism");
        let vals: Vec<u64> = (0..1024).map(|i| h(i * 4096)).collect();
        let uniq: std::collections::HashSet<u64> = vals.iter().copied().collect();
        assert_eq!(uniq.len(), vals.len(), "page-stride keys must not collide");
    }

    #[test]
    fn map_basics_work() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..100u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(42 * 64)), Some(&42));
        assert_eq!(m.remove(&(99 * 64)), Some(99));
        assert!(!m.contains_key(&(99 * 64)));
    }

    #[test]
    fn byte_slices_hash_via_word_chunks() {
        let h = |b: &[u8]| {
            let mut s = FastHasher::default();
            s.write(b);
            s.finish()
        };
        assert_ne!(
            h(b"abcdefgh"),
            h(b"abcdefg"),
            "tail padding still distinguishes"
        );
        assert_eq!(h(b"0123456789"), h(b"0123456789"));
    }
}
