//! Key hashing.
//!
//! All stores place items by a 64-bit hash of the 8-byte key. A strong
//! finalizer (SplitMix64, the same mixer used by `xxhash`/`splitmix`) keeps
//! shard and slot selection uniform even for sequential key spaces, which is
//! what the paper's "keys are distributed evenly across these shards
//! according to their hash values" relies on.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hashes an 8-byte key to its placement hash.
///
/// Bijective, so distinct keys never collide at the full 64-bit level —
/// collisions only arise from truncation to shard/slot counts, as with a
/// real hash function over 8-byte keys — and [`key_of_hash`] inverts it.
#[inline]
pub fn hash64(key: u64) -> u64 {
    mix64(key)
}

/// The key whose [`hash64`] is `hash`: [`mix64`]'s steps undone in
/// reverse, each multiplier replaced by its inverse mod 2^64.
#[inline]
pub fn key_of_hash(hash: u64) -> u64 {
    let mut x = hash ^ (hash >> 31) ^ (hash >> 62);
    x = x.wrapping_mul(0x319642B2D24D8EC3);
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96DE1B173F119089);
    x ^= (x >> 30) ^ (x >> 60);
    x.wrapping_sub(0x9E3779B97F4A7C15)
}

/// Derives the `i`-th independent hash for Bloom filters
/// (Kirsch–Mitzenmacher double hashing).
#[inline]
pub fn bloom_hash(key_hash: u64, i: u32) -> u64 {
    let h1 = key_hash;
    let h2 = mix64(key_hash.rotate_left(32));
    h1.wrapping_add((i as u64).wrapping_mul(h2 | 1))
}

/// A [`BuildHasher`](std::hash::BuildHasher) for maps and sets keyed by
/// [`hash64`] outputs, which are uniform already: no second hash, just a
/// swap of halves, since a sharded store routes on a hash's top bits and
/// `std`'s tables take their probe tags from the top seven. No defence
/// against crafted keys, like the store's own tables over these hashes.
pub type PreHashed = BuildHasherDefault<PreHashedHasher>;

/// The [`Hasher`] behind [`PreHashed`]; it takes only `u64` keys.
#[derive(Debug, Default)]
pub struct PreHashedHasher(u64);

impl Hasher for PreHashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let hash = u64::from_ne_bytes(bytes.try_into().expect("PreHashed keys are u64 hashes"));
        self.0 = hash.rotate_left(32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), 42);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn key_of_hash_inverts_hash64() {
        let edges = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let mixed = (0..100_000u64).map(|i| mix64(i ^ 0xA5A5));
        for k in edges.into_iter().chain(mixed) {
            assert_eq!(key_of_hash(hash64(k)), k);
        }
    }

    #[test]
    fn sequential_keys_spread_over_shards() {
        // 10k sequential keys into 64 shards: every shard should get a
        // share within 3x of uniform.
        let shards = 64u64;
        let mut counts = vec![0u32; shards as usize];
        for k in 0..10_000u64 {
            counts[(hash64(k) % shards) as usize] += 1;
        }
        let expect = 10_000 / shards as u32;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 3 && c < expect * 3,
                "shard {i} got {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn pre_hashed_sets_keep_distinct_hashes_apart() {
        let mut set = std::collections::HashSet::with_hasher(PreHashed::default());
        for k in 0..10_000u64 {
            assert!(set.insert(hash64(k)));
        }
        assert!(!set.insert(hash64(7)));
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn bloom_hashes_differ_per_index() {
        let h = hash64(123);
        let a = bloom_hash(h, 0);
        let b = bloom_hash(h, 1);
        let c = bloom_hash(h, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }
}
