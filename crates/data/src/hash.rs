//! The one hasher of the grounding path.
//!
//! Atoms, predicates and rules hash as a handful of machine words (symbol
//! ids, integers, lengths). [`WordHasher`] mixes each word with one
//! multiply-rotate step (the `FxHash` mix) instead of SipHash's rounds, and
//! [`WordMap`] is a `HashMap` built on it. The database, the ground
//! program, Σ_Π's choice index, the factor analysis and the stable layer's
//! atom table all key their maps with it.
//!
//! Every hasher starts from one seed drawn at random once per process, and
//! [`Hasher::finish`] rotates the state so that its well-mixed high bits
//! become the low bits a `HashMap` picks its bucket from. Without the seed,
//! each multiply-rotate step could be inverted, and a client of `gdlog
//! serve` could solve for constants whose atoms all share one hash; without
//! the rotation, integers that agree in their low bits would share a probe
//! sequence. The seed is no cryptographic key: it stops precomputed
//! collisions, not an attacker who can time lookups. Collisions cost lookup
//! time, never correctness (every bucket compares whole keys), and neither
//! compiling a program nor a saturation round is bounded in time today (see
//! `ARCHITECTURE.md`).
//!
//! As with std's `RandomState`, a map's iteration order may differ from one
//! process to the next; nothing observable may depend on it.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// The multiplier of one mixing step (odd, so the step is a bijection).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The process's hash seed, drawn from std's random source on first use.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// A seeded multiply-rotate word hasher; see the [module documentation](self).
#[derive(Clone, Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(seed())
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write_u8(&mut self, word: u8) {
        self.write_u64(word.into());
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// `value`'s [`WordHasher`] hash.
pub fn word_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = WordHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Const, GroundAtom};
    use std::collections::HashSet;

    #[test]
    fn equal_values_hash_alike_and_words_are_order_sensitive() {
        let a = GroundAtom::make("E", vec![Const::Int(1), Const::Int(2)]);
        assert_eq!(word_hash(&a), word_hash(&a.clone()));
        assert_ne!(
            word_hash(&a.args[..]),
            word_hash(&[Const::Int(2), Const::Int(1)][..])
        );
        // A slice hashes its length first: a prefix is a different key.
        assert_ne!(word_hash(&a.args[..]), word_hash(&a.args[..1]));
    }

    #[test]
    fn integers_sharing_their_low_bits_spread_over_the_low_bits() {
        // Multiples of 2^20 agree in their low 20 bits; so would their
        // hashes' low bits, and with them a map's buckets, if `finish` did
        // not rotate the high bits down.
        let low_bytes: HashSet<u64> = (0..256i64)
            .map(|k| word_hash(&Const::Int(k << 20)) & 0xff)
            .collect();
        // 256 random bytes take about 162 distinct values.
        assert!(
            low_bytes.len() > 100,
            "{} distinct low bytes",
            low_bytes.len()
        );
    }

    #[test]
    fn collisions_solved_for_an_unseeded_hasher_do_not_collide() {
        // The last word of `[Int(a), Int(b)]` is `b`, and one step
        // `s' = (rotl(s, 5) ^ b) * K` is invertible: for each `a`, solve for
        // the `b` whose unseeded, unrotated hash is `target`.
        let unseeded = |args: &[Const]| {
            let mut hasher = WordHasher(0);
            args.hash(&mut hasher);
            hasher.0
        };
        let k_inverse = {
            // Newton's iteration doubles the correct low bits of an inverse.
            let mut inverse = K;
            for _ in 0..6 {
                inverse = inverse.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inverse)));
            }
            inverse
        };
        assert_eq!(K.wrapping_mul(k_inverse), 1);
        let target = 0x0123_4567_89ab_cdef_u64;
        let crafted: Vec<[Const; 2]> = (0..64i64)
            .map(|a| {
                let prefix = unseeded(&[Const::Int(a), Const::Int(0)]).wrapping_mul(k_inverse);
                let b = prefix ^ target.wrapping_mul(k_inverse);
                [Const::Int(a), Const::Int(b as i64)]
            })
            .collect();
        assert!(crafted.iter().all(|args| unseeded(args) == target));
        let hashes: HashSet<u64> = crafted.iter().map(|args| word_hash(&args[..])).collect();
        assert_eq!(hashes.len(), crafted.len());
    }
}
