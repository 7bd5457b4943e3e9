//! Model check: random runs of `insert` / `remove` / `range_from` over two
//! shards against a `BTreeSet<u64>` per shard. The key pool is small and
//! the runs long, so leaves and inner nodes split, leaves empty out and
//! hand their range on, and the same ranges fill again. Shard 0 starts as
//! a tree built by `from_sorted` from a random subset of the pool, so
//! splits, removes and leaf drops also run on built nodes.

use std::collections::BTreeSet;
use std::sync::Arc;

use kvorder::OrderedIndex;
use kvsync::EpochDomain;
use proptest::prelude::*;

const POOL: u64 = 8192;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_a_btreeset(
        seed in proptest::collection::vec(0u64..POOL, 0..3000),
        ops in proptest::collection::vec((0u8..8, 0usize..2, 0u64..POOL, 1u64..512), 1..160),
    ) {
        let domain = Arc::new(EpochDomain::new(2));
        let seed: BTreeSet<u64> = seed.into_iter().collect();
        let built = vec![seed.iter().copied().collect(), Vec::new()];
        let idx = OrderedIndex::from_sorted(Arc::clone(&domain), built);
        let mut model = [seed, BTreeSet::new()];
        for (kind, shard, key, n) in ops {
            let set = &mut model[shard];
            match kind {
                0 => prop_assert_eq!(idx.insert(shard, key), set.insert(key)),
                1 => prop_assert_eq!(idx.remove(shard, key), set.remove(&key)),
                // Ascending, descending and strided runs.
                2 | 3 => for k in key..(key + n).min(POOL) {
                    let k = if kind == 2 { k } else { key + (key + n).min(POOL) - 1 - k };
                    prop_assert_eq!(idx.insert(shard, k), set.insert(k));
                },
                4 => for k in (key..POOL).step_by(7).take(n as usize) {
                    prop_assert_eq!(idx.insert(shard, k), set.insert(k));
                },
                5 | 6 => for k in key..(key + 2 * n).min(POOL) {
                    prop_assert_eq!(idx.remove(shard, k), set.remove(&k));
                },
                _ => {
                    let pin = domain.pin(0);
                    let got: Vec<u64> = idx.range_from(shard, key, &pin).take(n as usize).collect();
                    let want: Vec<u64> = set.range(key..).take(n as usize).copied().collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        let pin = domain.pin(1);
        for (shard, set) in model.iter().enumerate() {
            let got: Vec<u64> = idx.range_from(shard, 0, &pin).collect();
            prop_assert_eq!(got, set.iter().copied().collect::<Vec<u64>>());
        }
        prop_assert_eq!(idx.len(), (model[0].len() + model[1].len()) as u64);
    }
}
