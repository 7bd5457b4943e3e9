//! Sharded, epoch-safe ordered DRAM index over live user keys.
//!
//! ChameleonDB's persistent structures are hash-keyed — nothing on media
//! knows key *order* — so range scans need a volatile ordered index
//! maintained beside the hash index and rebuilt on recovery. This crate
//! provides it: per store shard, a three-level copy-on-write tree of
//! sorted arrays (root directory → inner nodes of up to [`INNER_CAP`]
//! leaves → leaves of up to [`LEAF_CAP`] keys) whose every node is a
//! [`ViewCell`] of the store's own [`EpochDomain`], so publication,
//! retirement and reclamation are `kvsync`'s.
//!
//! A node's **snapshot** is immutable: a leaf's is a sorted `Vec<u64>`, a
//! directory's a `Vec<(low, cell)>` in which child `i` owns the keys
//! `low[i] .. low[i + 1]`. A **cell** holds one node's current snapshot,
//! and its key range is fixed for life: an insert or remove publishes a
//! new snapshot into one leaf's cell, while anything that moves a range
//! boundary — a full node splitting, an emptied leaf handing its range to
//! a neighbour — builds *fresh* cells and publishes a new snapshot of the
//! parent. Replaced cells are never written again.
//!
//! A shard comes to exist in one of two ways. [`OrderedIndex::new`]
//! starts it empty and mutations grow it. [`OrderedIndex::from_sorted`]
//! builds it whole from sorted keys before any reader exists, which is
//! how the store installs it, fresh or recovered: full leaves, as
//! ascending inserts leave them, in inner nodes at the half fill an
//! inner split leaves, every cell fresh and nothing published. `new` is
//! that builder given no keys.
//!
//! * **Writers** ([`OrderedIndex::insert`] / [`OrderedIndex::remove`])
//!   serialize per shard on an internal mutex, uncontended in the store,
//!   which calls them under its own shard mutex. It guards against misuse
//!   and owns the writer's twin of the tree (an `Arc` of every node's
//!   current snapshot), so the write path never pins or loads a cell.
//!   Every mutation ends in exactly one `publish`.
//! * **Readers** ([`OrderedIndex::range_from`]) never lock. A cursor
//!   loads one root snapshot under the caller's pin and walks it left to
//!   right, loading each inner and leaf cell once, when it gets there.
//!
//! Any single traversal yields a **strictly ascending** key sequence even
//! while racing mutations: the children of one directory snapshot cover
//! disjoint, ascending, fixed key ranges, and each child is read as one
//! immutable sorted array. A replaced cell still holds its last snapshot
//! — stale, never torn — so a key present for the whole scan is yielded
//! exactly once; the store's per-key newest-version probe filters out
//! anything that died mid-scan.

#![forbid(unsafe_code)]

use std::mem::size_of;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvsync::{EpochDomain, Pin, ViewCell};
use parking_lot::Mutex;

/// Keys per leaf: a mutation copies one leaf, at most 512 B.
const LEAF_CAP: usize = 64;

/// Leaves per inner node: bounds what a leaf split republishes (a flat
/// per-shard directory would make every split O(leaves)).
const INNER_CAP: usize = 64;

/// The strong and weak counts in front of every `Arc` payload.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// A heap value counted toward its shard's DRAM total from construction
/// to drop — for a retired snapshot, until its `ViewCell` reclaims it.
struct Counted<T> {
    val: T,
    bytes: u64,
    total: Arc<AtomicU64>,
}

impl<T> Deref for Counted<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.val
    }
}

impl<T> Drop for Counted<T> {
    fn drop(&mut self) {
        self.total.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

type Cell<T> = Arc<Counted<ViewCell<T>>>;
/// A directory entry: the child's lowest admissible key and its cell.
type Kid<C> = (u64, Cell<C>);
type Leaf = Counted<Vec<u64>>;
type Inner = Counted<Vec<Kid<Leaf>>>;
type Root = Counted<Vec<Kid<Inner>>>;

/// What a shard builds nodes from: its byte counter and the domain its
/// cells retire into.
struct Alloc {
    total: Arc<AtomicU64>,
    domain: Arc<EpochDomain>,
}

impl Alloc {
    /// `val` on the heap, charged for itself plus `heap` bytes behind it.
    fn counted<T>(&self, heap: usize, val: T) -> Arc<Counted<T>> {
        let bytes = (ARC_HEADER + size_of::<Counted<T>>() + heap) as u64;
        self.total.fetch_add(bytes, Ordering::Relaxed);
        let total = Arc::clone(&self.total);
        Arc::new(Counted { val, bytes, total })
    }

    /// An immutable snapshot of `items`, charged at its allocated capacity.
    fn snap<T>(&self, items: Vec<T>) -> Arc<Counted<Vec<T>>> {
        self.counted(items.capacity() * size_of::<T>(), items)
    }

    /// A fresh cell holding `now`.
    fn cell<T>(&self, now: &Arc<T>) -> Cell<T> {
        self.counted(0, ViewCell::new(Arc::clone(&self.domain), Arc::clone(now)))
    }
}

/// Index of the child whose range holds `key`. `kids[0].0` is the
/// directory's own lower bound, so there is always one.
fn child_of<C>(kids: &[Kid<C>], key: u64) -> usize {
    kids.partition_point(|kid| kid.0 <= key) - 1
}

/// A copy of `old` with the items at `at` replaced by `with`, allocated
/// at exactly its length.
fn spliced<T: Clone>(old: &[T], at: Range<usize>, with: &[T]) -> Vec<T> {
    [&old[..at.start], with, &old[at.end..]].concat()
}

/// The writer's twin of one inner node: the snapshot now in its cell and,
/// index for index with that snapshot's children, the one in each leaf's.
struct Twin {
    inner: Arc<Inner>,
    leaves: Vec<Arc<Leaf>>,
}

/// The writer's twin of a shard's tree: `inners[i]` mirrors child `i` of
/// `root`.
struct Writer {
    root: Arc<Root>,
    inners: Vec<Twin>,
}

/// One shard's tree: the root cell readers descend from, and the mutex
/// that serializes mutations (see module docs) around the writer's twin.
struct Shard {
    root: ViewCell<Root>,
    writer: Mutex<Writer>,
    alloc: Alloc,
}

impl Shard {
    /// A shard holding `keys`, built in one pass (see module docs):
    /// `LEAF_CAP` keys to a leaf and `INNER_CAP / 2` leaves to an inner
    /// node, so the first leaf split after the build republishes one
    /// inner node and leaves the root alone.
    fn build(domain: Arc<EpochDomain>, keys: &[u64]) -> Self {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "shard keys must be strictly ascending"
        );
        let alloc = Alloc {
            total: Arc::default(),
            domain,
        };
        let mut leaves: Vec<Arc<Leaf>> = keys
            .chunks(LEAF_CAP)
            .map(|chunk| alloc.snap(chunk.to_vec()))
            .collect();
        if leaves.is_empty() {
            leaves.push(alloc.snap(Vec::new()));
        }
        // A child's low is its first key, except the first leaf's: the
        // shard's lower bound, 0.
        let inners: Vec<Twin> = leaves
            .chunks(INNER_CAP / 2)
            .enumerate()
            .map(|(i, group)| {
                let kids: Vec<Kid<Leaf>> = group
                    .iter()
                    .enumerate()
                    .map(|(j, leaf)| (if i + j == 0 { 0 } else { leaf[0] }, alloc.cell(leaf)))
                    .collect();
                Twin {
                    inner: alloc.snap(kids),
                    leaves: group.to_vec(),
                }
            })
            .collect();
        let kids: Vec<Kid<Inner>> = inners
            .iter()
            .map(|twin| (twin.inner[0].0, alloc.cell(&twin.inner)))
            .collect();
        let root = alloc.snap(kids);
        Self {
            root: ViewCell::new(Arc::clone(&alloc.domain), Arc::clone(&root)),
            writer: Mutex::new(Writer { root, inners }),
            alloc,
        }
    }
}

/// A sharded ordered index over `u64` user keys (see module docs).
///
/// Sharding mirrors the store's own key→shard mapping so each shard's
/// write path maintains exactly its own slice of the key space; a scan
/// merges the per-shard ascending cursors.
pub struct OrderedIndex {
    shards: Vec<Shard>,
}

impl OrderedIndex {
    /// Creates an empty index with `shards` shards whose readers pin
    /// `domain` — normally the same domain guarding the store's views,
    /// so one pin covers both the scan cursor and the version probes.
    pub fn new(shards: usize, domain: Arc<EpochDomain>) -> Self {
        Self::from_sorted(domain, vec![Vec::new(); shards.max(1)])
    }

    /// Builds an index whose shard `i` holds `shards[i]`, each shard in
    /// one pass and without a `publish`, for a caller that has no readers
    /// yet (a store being opened). Readers pin `domain`, as with
    /// [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if a shard's keys are not strictly ascending.
    pub fn from_sorted(domain: Arc<EpochDomain>, shards: Vec<Vec<u64>>) -> Self {
        let shards = shards
            .iter()
            .map(|keys| Shard::build(Arc::clone(&domain), keys))
            .collect();
        Self { shards }
    }

    /// Inserts `key` into `shard`; returns `false` if already present.
    pub fn insert(&self, shard: usize, key: u64) -> bool {
        let Shard { writer, alloc, .. } = &self.shards[shard];
        let w = &mut *writer.lock();
        let i = child_of(&w.root, key);
        let twin = &mut w.inners[i];
        let j = child_of(&twin.inner, key);
        let Err(pos) = twin.leaves[j].binary_search(&key) else {
            return false;
        };
        let keys = spliced(&twin.leaves[j], pos..pos, &[key]);
        if keys.len() <= LEAF_CAP {
            twin.leaves[j] = alloc.snap(keys);
            twin.inner[j].1.publish(Arc::clone(&twin.leaves[j]));
            return true;
        }

        // Full leaf: two fresh cells take its range. A key past the end
        // starts the upper one alone, so ascending appends leave full
        // leaves behind them, not half-full ones.
        let at = if pos == LEAF_CAP { pos } else { keys.len() / 2 };
        let lo = alloc.snap(keys[..at].to_vec());
        let hi = alloc.snap(keys[at..].to_vec());
        let halves = [(twin.inner[j].0, alloc.cell(&lo)), (hi[0], alloc.cell(&hi))];
        let mut kids = spliced(&twin.inner, j..j + 1, &halves);
        twin.leaves.splice(j..j + 1, [lo, hi]);
        if kids.len() <= INNER_CAP {
            twin.inner = alloc.snap(kids);
            w.root[i].1.publish(Arc::clone(&twin.inner));
            return true;
        }

        // Full inner node: the same one level up, `twin` keeping the
        // lower half.
        let at = kids.len() / 2;
        let hi = Twin {
            inner: alloc.snap(kids.split_off(at)),
            leaves: twin.leaves.split_off(at),
        };
        kids.shrink_to_fit();
        twin.inner = alloc.snap(kids);
        let halves = [
            (w.root[i].0, alloc.cell(&twin.inner)),
            (hi.inner[0].0, alloc.cell(&hi.inner)),
        ];
        w.root = alloc.snap(spliced(&w.root, i..i + 1, &halves));
        w.inners.insert(i + 1, hi);
        self.shards[shard].root.publish(Arc::clone(&w.root));
        true
    }

    /// Removes `key` from `shard`; returns `false` if absent.
    pub fn remove(&self, shard: usize, key: u64) -> bool {
        let Shard { writer, alloc, .. } = &self.shards[shard];
        let w = &mut *writer.lock();
        let i = child_of(&w.root, key);
        let twin = &mut w.inners[i];
        let j = child_of(&twin.inner, key);
        let Ok(pos) = twin.leaves[j].binary_search(&key) else {
            return false;
        };
        // An inner node keeps its last leaf even when empty: dropping the
        // node would widen a *leaf* cell of its neighbour.
        if twin.leaves[j].len() > 1 || twin.leaves.len() == 1 {
            twin.leaves[j] = alloc.snap(spliced(&twin.leaves[j], pos..pos + 1, &[]));
            twin.inner[j].1.publish(Arc::clone(&twin.leaves[j]));
            return true;
        }

        // Emptied leaf: a neighbour inherits its range, in a fresh cell
        // because a cell's range never changes.
        let heir = if j == 0 { 1 } else { j - 1 };
        let at = j.min(heir);
        let merged = (twin.inner[at].0, alloc.cell(&twin.leaves[heir]));
        twin.inner = alloc.snap(spliced(&twin.inner, at..at + 2, &[merged]));
        twin.leaves.remove(j);
        w.root[i].1.publish(Arc::clone(&twin.inner));
        true
    }

    /// Ascending cursor over `shard`'s keys `>= start`, valid while
    /// `pin` is held.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is from a different [`EpochDomain`].
    pub fn range_from<'p>(&'p self, shard: usize, start: u64, pin: &'p Pin<'_>) -> RangeIter<'p> {
        let root = self.shards[shard].root.load(pin);
        let i = child_of(root, start);
        let inner = root[i].1.load(pin);
        let j = child_of(inner, start);
        let keys = inner[j].1.load(pin);
        RangeIter {
            pin,
            inners: &root[i + 1..],
            leaves: &inner[j + 1..],
            keys: keys[keys.partition_point(|&k| k < start)..].iter(),
        }
    }

    /// Live keys across all shards.
    pub fn len(&self) -> u64 {
        let mut keys = 0;
        for shard in &self.shards {
            for twin in &shard.writer.lock().inners {
                keys += twin.leaves.iter().map(|l| l.len() as u64).sum::<u64>();
            }
        }
        keys
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// DRAM allocated by the index, exactly: every snapshot and cell alive
    /// — current, or retired and not yet reclaimed — at its capacity with
    /// its `Arc` header, the writers' twins and the shard table. Not in
    /// it: allocator rounding, and the heap behind a `ViewCell`'s private
    /// retired list, which a cell allocates only when one of its
    /// publishes races a pinned reader.
    pub fn dram_bytes(&self) -> u64 {
        let mut bytes = size_of::<Self>() + self.shards.capacity() * size_of::<Shard>();
        for shard in &self.shards {
            let w = shard.writer.lock();
            bytes += ARC_HEADER + size_of::<AtomicU64>() + w.inners.capacity() * size_of::<Twin>();
            for twin in &w.inners {
                bytes += twin.leaves.capacity() * size_of::<Arc<Leaf>>();
            }
            bytes += shard.alloc.total.load(Ordering::Relaxed) as usize;
        }
        bytes as u64
    }
}

/// Ascending key cursor returned by [`OrderedIndex::range_from`]: the
/// rest of the current leaf, then the leaves after it in the inner
/// snapshot it came from, then the inner nodes after that in the root's.
pub struct RangeIter<'p> {
    pin: &'p Pin<'p>,
    inners: &'p [Kid<Inner>],
    leaves: &'p [Kid<Leaf>],
    keys: std::slice::Iter<'p, u64>,
}

impl Iterator for RangeIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some(&key) = self.keys.next() {
                return Some(key);
            }
            if let Some(((_, leaf), rest)) = self.leaves.split_first() {
                self.leaves = rest;
                self.keys = leaf.load(self.pin).iter();
            } else if let Some(((_, inner), rest)) = self.inners.split_first() {
                self.inners = rest;
                self.leaves = inner.load(self.pin);
            } else {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use std::sync::atomic::AtomicBool;

    fn index(shards: usize) -> OrderedIndex {
        OrderedIndex::new(shards, Arc::new(EpochDomain::new(8)))
    }

    fn domain(idx: &OrderedIndex) -> &Arc<EpochDomain> {
        idx.shards[0].root.domain()
    }

    fn scan_all(idx: &OrderedIndex, shard: usize, start: u64) -> Vec<u64> {
        let pin = domain(idx).pin(0);
        idx.range_from(shard, start, &pin).collect()
    }

    /// Collects every live cell, then counts what they still hold retired.
    fn sweep(idx: &OrderedIndex) -> usize {
        let mut held = 0;
        for sh in &idx.shards {
            let w = sh.writer.lock();
            sh.root.collect();
            held += sh.root.retired_len();
            for (twin, (_, inner)) in w.inners.iter().zip(w.root.iter()) {
                inner.collect();
                held += inner.retired_len();
                for (_, leaf) in twin.inner.iter() {
                    leaf.collect();
                    held += leaf.retired_len();
                }
            }
        }
        held
    }

    /// Key count of every leaf of `shard`, left to right.
    fn leaf_lens(idx: &OrderedIndex, shard: usize) -> Vec<usize> {
        let w = idx.shards[shard].writer.lock();
        w.inners
            .iter()
            .flat_map(|t| t.leaves.iter().map(|l| l.len()))
            .collect()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let idx = index(1);
        for k in [5u64, 1, 9, 3, 7] {
            assert!(idx.insert(0, k));
        }
        assert!(!idx.insert(0, 5), "duplicate insert is a no-op");
        assert_eq!(scan_all(&idx, 0, 0), vec![1, 3, 5, 7, 9]);
        assert_eq!(scan_all(&idx, 0, 4), vec![5, 7, 9]);
        assert_eq!(scan_all(&idx, 0, 10), Vec::<u64>::new());
        assert!(idx.remove(0, 5));
        assert!(!idx.remove(0, 5), "double remove is a no-op");
        assert_eq!(scan_all(&idx, 0, 0), vec![1, 3, 7, 9]);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn range_start_is_inclusive() {
        let idx = index(1);
        idx.insert(0, 10);
        idx.insert(0, 20);
        assert_eq!(scan_all(&idx, 0, 10), vec![10, 20]);
        assert_eq!(scan_all(&idx, 0, 11), vec![20]);
    }

    #[test]
    fn boundary_keys() {
        let idx = index(1);
        idx.insert(0, 0);
        idx.insert(0, u64::MAX);
        assert_eq!(scan_all(&idx, 0, 0), vec![0, u64::MAX]);
        assert_eq!(scan_all(&idx, 0, u64::MAX), vec![u64::MAX]);
        // The same two keys at the far ends of a tree of several leaves.
        let step = u64::MAX / 1000;
        for k in 1..1000 {
            idx.insert(0, k * step);
        }
        assert!(leaf_lens(&idx, 0).len() > 2);
        let all = scan_all(&idx, 0, 0);
        assert_eq!(all.len(), 1001);
        assert_eq!((all[0], all[1000]), (0, u64::MAX));
        assert_eq!(scan_all(&idx, 0, u64::MAX), vec![u64::MAX]);
        assert_eq!(scan_all(&idx, 0, u64::MAX - 1), vec![u64::MAX]);
    }

    #[test]
    fn shards_are_independent() {
        let idx = index(4);
        idx.insert(0, 1);
        idx.insert(3, 2);
        assert_eq!(scan_all(&idx, 0, 0), vec![1]);
        assert_eq!(scan_all(&idx, 3, 0), vec![2]);
        assert_eq!(scan_all(&idx, 1, 0), Vec::<u64>::new());
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn full_leaf_splits_on_the_next_key() {
        let cap = LEAF_CAP as u64;
        let idx = index(1);
        for k in 0..cap {
            idx.insert(0, 10 + 2 * k);
        }
        assert_eq!(leaf_lens(&idx, 0), vec![LEAF_CAP], "exactly at capacity");
        idx.insert(0, 11);
        assert_eq!(leaf_lens(&idx, 0), vec![LEAF_CAP / 2, LEAF_CAP / 2 + 1]);
        let want: Vec<u64> = [10, 11]
            .into_iter()
            .chain((1..cap).map(|k| 10 + 2 * k))
            .collect();
        assert_eq!(scan_all(&idx, 0, 0), want);
        // A start below the first leaf's first key, inside the gap between
        // the two leaves' keys, and past the last key.
        assert_eq!(scan_all(&idx, 0, 9), want);
        let second = want[LEAF_CAP / 2];
        assert_eq!(scan_all(&idx, 0, second - 1), want[LEAF_CAP / 2..]);
        assert_eq!(scan_all(&idx, 0, want[LEAF_CAP] + 1), Vec::<u64>::new());
    }

    #[test]
    fn ascending_appends_leave_full_leaves() {
        let idx = index(1);
        let n = (LEAF_CAP * INNER_CAP * 2) as u64;
        for k in 0..n {
            assert!(idx.insert(0, k));
        }
        let lens = leaf_lens(&idx, 0);
        assert!(lens.iter().all(|&l| l == LEAF_CAP), "tail split: {lens:?}");
        assert!(
            idx.shards[0].writer.lock().inners.len() > 1,
            "inner node must have split"
        );
        assert_eq!(scan_all(&idx, 0, 0), (0..n).collect::<Vec<u64>>());
        assert_eq!(scan_all(&idx, 0, n - 3), vec![n - 3, n - 2, n - 1]);
    }

    /// The builder leaves what ascending inserts of the same keys leave —
    /// the same full leaves, the same scans from every start, no more
    /// DRAM — and its half-full inner nodes take a leaf split without
    /// splitting themselves.
    #[test]
    fn from_sorted_matches_ascending_inserts() {
        for n in [0, 1, 63, 64, 65, 2 * LEAF_CAP * INNER_CAP + 5] {
            let keys: Vec<u64> = (0..n as u64).map(|k| 3 * k + 1).collect();
            let grown = index(1);
            for &k in &keys {
                assert!(grown.insert(0, k));
            }
            let built = OrderedIndex::from_sorted(Arc::clone(domain(&grown)), vec![keys.clone()]);
            assert_eq!(leaf_lens(&built, 0), leaf_lens(&grown, 0), "{n} keys");
            assert_eq!(built.len(), n as u64);
            assert_eq!(scan_all(&built, 0, 0), keys);
            let pin = domain(&built).pin(0);
            for start in (0..3 * n as u64 + 3).step_by(2) {
                let got: Vec<u64> = built.range_from(0, start, &pin).take(3).collect();
                let want: Vec<u64> = grown.range_from(0, start, &pin).take(3).collect();
                assert_eq!(got, want, "{n} keys, start {start}");
            }
            drop(pin);
            assert_eq!(sweep(&grown), 0);
            let (b, g) = (built.dram_bytes(), grown.dram_bytes());
            assert!(b <= g, "{n} keys: built {b} B, grown {g} B");
            let inners = built.shards[0].writer.lock().inners.len();
            assert!(built.insert(0, 0));
            assert_eq!(built.shards[0].writer.lock().inners.len(), inners);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_keys() {
        let _ = OrderedIndex::from_sorted(Arc::new(EpochDomain::new(1)), vec![vec![1, 3, 2]]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_duplicate_keys() {
        let _ =
            OrderedIndex::from_sorted(Arc::new(EpochDomain::new(1)), vec![vec![], vec![1, 2, 2]]);
    }

    #[test]
    fn remove_all_then_reinsert() {
        let idx = index(1);
        let n = (LEAF_CAP * INNER_CAP * 2) as u64;
        let empty = idx.dram_bytes();
        for k in 0..n {
            idx.insert(0, k);
        }
        let inners = idx.shards[0].writer.lock().inners.len();
        // Front to back for one half, back to front for the other: both
        // neighbours get to inherit an emptied leaf's range.
        for k in (0..n / 2).chain((n / 2..n).rev()) {
            assert!(idx.remove(0, k));
        }
        assert!(idx.is_empty());
        assert_eq!(scan_all(&idx, 0, 0), Vec::<u64>::new());
        assert_eq!(leaf_lens(&idx, 0), vec![0; inners], "emptied leaves go");
        assert_eq!(sweep(&idx), 0);
        assert!(idx.dram_bytes() < empty + 1024 * inners as u64);
        for k in (0..n).rev() {
            assert!(idx.insert(0, k));
        }
        assert_eq!(scan_all(&idx, 0, 0), (0..n).collect::<Vec<u64>>());
    }

    /// A cursor parked mid-leaf keeps reading the snapshot it loaded
    /// while the writer replaces and splits that leaf; what that retires
    /// is held while the pin is, and freed once it drops.
    #[test]
    fn pinned_reader_blocks_reclamation() {
        let cap = LEAF_CAP as u64;
        let idx = index(1);
        for k in 0..cap {
            idx.insert(0, k);
        }
        let pin = domain(&idx).pin(0);
        let mut iter = idx.range_from(0, 0, &pin);
        assert_eq!(iter.next(), Some(0));
        for k in 1..10 {
            idx.remove(0, k);
        }
        for k in cap..4 * cap {
            idx.insert(0, k ^ 1);
        }
        assert!(leaf_lens(&idx, 0).len() > 2, "the leaf must have split");
        assert!(sweep(&idx) > 0, "snapshots retired under a pin are held");
        let pinned_bytes = idx.dram_bytes();
        assert_eq!(iter.collect::<Vec<u64>>(), (1..cap).collect::<Vec<u64>>());
        drop(pin);
        assert_eq!(sweep(&idx), 0, "unpinned retirees must free");
        assert!(idx.dram_bytes() < pinned_bytes);
        let live: Vec<u64> = std::iter::once(0).chain(10..4 * cap).collect();
        assert_eq!(scan_all(&idx, 0, 0), live);
    }

    #[test]
    fn dram_bytes_tracks_population() {
        let idx = index(2);
        let mut rng = TestRng::deterministic("dram_bytes_tracks_population");
        let (mut keys, mut last) = (0, idx.dram_bytes());
        for n in [1_000u64, 10_000, 100_000] {
            while keys < n {
                let key = rng.next_u64();
                keys += u64::from(idx.insert((key % 2) as usize, key));
            }
            assert_eq!(idx.len(), n);
            assert_eq!(sweep(&idx), 0);
            let bytes = idx.dram_bytes();
            assert!(bytes > last, "{n} keys: {bytes} B after {last} B");
            last = bytes;
        }
        let per_key = last as f64 / 100_000.0;
        assert!(per_key <= 16.0, "{per_key} B/key");
        // 8 B of it is the key itself.
        assert!(per_key >= 8.0, "{per_key} B/key");
    }

    #[test]
    #[should_panic(expected = "different EpochDomain")]
    fn cross_domain_pin_is_rejected() {
        let idx = index(1);
        let other = EpochDomain::new(2);
        let pin = other.pin(0);
        let _ = idx.range_from(0, 0, &pin);
    }

    /// Stable keys: the multiples of 4 below `STABLE_END`, inserted up
    /// front and never removed. Everything else below `KEY_END` is the
    /// writer's to churn.
    const STABLE_END: u64 = 8_000;
    const KEY_END: u64 = 24_000;

    fn is_stable(k: u64) -> bool {
        k < STABLE_END && k.is_multiple_of(4)
    }

    /// Readers scan the whole shard in a loop while `churn` mutates it.
    /// Every observed sequence must be strictly ascending, contain every
    /// stable key exactly once, and contain nothing never inserted.
    fn scan_stress(churn: impl FnOnce(&OrderedIndex) + Send) {
        let idx = index(1);
        for k in (0..STABLE_END).step_by(4) {
            idx.insert(0, k);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for reader in 0..3usize {
                let (idx, stop) = (&idx, &stop);
                s.spawn(move || {
                    let mut rounds = 0u32;
                    while !stop.load(Ordering::Relaxed) || rounds < 20 {
                        rounds += 1;
                        let pin = domain(idx).pin(reader);
                        let mut prev = None;
                        let mut stable = 0u64;
                        for k in idx.range_from(0, 0, &pin) {
                            assert!(k < KEY_END, "phantom key {k}");
                            assert!(prev < Some(k), "not ascending: {prev:?} then {k}");
                            prev = Some(k);
                            if is_stable(k) {
                                assert_eq!(k, stable * 4, "missed stable key");
                                stable += 1;
                            }
                        }
                        assert_eq!(stable, STABLE_END / 4, "scan ended early");
                    }
                });
            }
            let (idx, stop) = (&idx, &stop);
            s.spawn(move || {
                churn(idx);
                stop.store(true, Ordering::Relaxed);
            });
        });
        // All readers gone: everything retired must free.
        assert_eq!(sweep(&idx), 0);
        let stable: Vec<u64> = (0..STABLE_END).step_by(4).collect();
        let left: Vec<u64> = scan_all(&idx, 0, 0);
        assert!(stable.iter().all(|k| left.binary_search(k).is_ok()));
    }

    /// Random-order churn between and above the stable keys: leaves
    /// split, an inner node splits, and the all-churn leaves above
    /// `STABLE_END` empty out and go, round after round.
    #[test]
    fn concurrent_scan_stress() {
        scan_stress(|idx| {
            let mut most_inners = 0;
            let mut rng = TestRng::deterministic("concurrent_scan_stress");
            for _round in 0..12 {
                for _ in 0..KEY_END {
                    let k = rng.next_u64() % KEY_END;
                    if !is_stable(k) {
                        idx.insert(0, k);
                    }
                }
                most_inners = most_inners.max(idx.shards[0].writer.lock().inners.len());
                for k in 0..KEY_END {
                    if !is_stable(k) {
                        idx.remove(0, k);
                    }
                }
            }
            assert!(most_inners > 1, "churn must split an inner node");
        });
    }

    /// A queue-shaped writer: ascending appends above the stable keys
    /// (the tail-split path) chased by removals from the front.
    #[test]
    fn concurrent_scan_stress_ascending_appends() {
        scan_stress(|idx| {
            for _round in 0..12 {
                for k in STABLE_END..KEY_END {
                    idx.insert(0, k);
                    if k >= STABLE_END + 4_000 {
                        idx.remove(0, k - 4_000);
                    }
                }
                for k in KEY_END - 4_000..KEY_END {
                    idx.remove(0, k);
                }
            }
        });
    }
}
