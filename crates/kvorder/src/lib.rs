//! Epoch-safe ordered DRAM index over live user keys.
//!
//! ChameleonDB's persistent structures are hash-keyed — nothing on media
//! knows key *order* — so range scans need a volatile ordered index
//! maintained beside the hash index and rebuilt on recovery. This crate
//! provides it: a three-level copy-on-write tree of sorted arrays (root
//! directory → inner nodes of up to [`INNER_CAP`] leaves → leaves of up
//! to [`LEAF_CAP`] keys) whose every node is a [`ViewCell`] of the
//! store's own [`EpochDomain`], so publication, retirement and
//! reclamation are `kvsync`'s. An index holds one or more independent
//! trees, each addressed by a `shard` number; the store keeps every key
//! in one tree, so a scan is one cursor.
//!
//! A node's **snapshot** is immutable: a leaf's is a sorted `Vec<u64>`, a
//! directory's a `Vec<(low, child)>` in which child `i` owns the keys
//! `low[i] .. low[i + 1]`. A **cell** holds one node's current snapshot,
//! and its key range is fixed for life: an insert or remove publishes a
//! new snapshot into one leaf's cell, while anything that moves a range
//! boundary — a full node splitting, an emptied leaf handing its range to
//! a neighbour — builds *fresh* cells and publishes a new snapshot of the
//! parent. Replaced cells are never written again.
//!
//! A tree comes to exist in one of two ways. [`OrderedIndex::new`]
//! starts it empty and mutations grow it. [`OrderedIndex::from_sorted`]
//! builds it whole from sorted keys before any reader exists, which is
//! how the store installs it, fresh or recovered: full leaves, as
//! ascending inserts leave them, in inner nodes at the half fill an
//! inner split leaves, every cell fresh and nothing published. `new` is
//! that builder given no keys.
//!
//! * **Writers** ([`OrderedIndex::insert`] / [`OrderedIndex::remove`])
//!   lock one inner node, not the tree. Behind its own mutex each inner
//!   node keeps the writer's twin of itself (an `Arc` of its current
//!   snapshot and of each of its leaves'), so the write path never pins
//!   or loads a cell. A writer routes under the tree's short root lock —
//!   one binary search of the root's twin and one `Arc` clone — drops
//!   it, then locks the node; if an inner split replaced the node in the
//!   meantime, it routes again. Leaf inserts and removes, leaf splits and
//!   emptied-leaf merges all stay inside that node. Only an inner split
//!   takes the root lock while still holding its node: it builds two
//!   fresh nodes, marks the old one gone and republishes the root. Every
//!   mutation ends in exactly one `publish`. Mutations of different keys
//!   run concurrently; those of one key apply in the order they lock its
//!   node (the store orders them under its shard mutex first).
//! * **Lock order** is node → root. The root lock is taken alone to route
//!   or to read the root's twin, and under a node lock only inside an
//!   inner split; nothing locks a node while holding the root lock.
//!   [`OrderedIndex::len`] and [`OrderedIndex::dram_bytes`] read the
//!   root's twin, then lock its nodes one at a time, and restart the walk
//!   when one has been split away since, so a range is never counted
//!   twice or skipped.
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

/// A heap value counted toward its tree's DRAM total from construction
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
/// A directory entry: the child's lowest admissible key and the child.
type Kid<C> = (u64, C);
type Leaf = Counted<Vec<u64>>;
type Inner = Counted<Vec<Kid<Cell<Leaf>>>>;
type NodeRef = Arc<Counted<Node>>;
type Root = Counted<Vec<Kid<NodeRef>>>;

/// What a tree builds nodes from: its byte counter and the domain its
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

    /// A fresh inner node over `kids`, whose leaves now hold `leaves`.
    fn node(&self, kids: Vec<Kid<Cell<Leaf>>>, leaves: Vec<Arc<Leaf>>) -> NodeRef {
        let inner = self.snap(kids);
        let cell = ViewCell::new(Arc::clone(&self.domain), Arc::clone(&inner));
        let twin = Mutex::new(Twin {
            inner,
            leaves,
            gone: false,
        });
        self.counted(0, Node { cell, twin })
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

/// One inner node: the cell readers load and, behind its own lock (see
/// module docs), the writer's twin of it.
struct Node {
    cell: ViewCell<Inner>,
    twin: Mutex<Twin>,
}

/// The writer's twin of one inner node: the snapshot now in its cell and,
/// index for index with that snapshot's children, the one in each leaf's.
struct Twin {
    inner: Arc<Inner>,
    leaves: Vec<Arc<Leaf>>,
    /// Set by the inner split that hands the node's range to two fresh
    /// nodes; a writer that finds it set routes again.
    gone: bool,
}

/// One tree: the root cell readers descend from and, behind the root
/// lock, the writer's twin of its snapshot.
struct Tree {
    root: ViewCell<Root>,
    top: Mutex<Arc<Root>>,
    alloc: Alloc,
}

impl Tree {
    /// A tree holding `keys`, built in one pass (see module docs):
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
        // tree's lower bound, 0.
        let nodes: Vec<Kid<NodeRef>> = leaves
            .chunks(INNER_CAP / 2)
            .enumerate()
            .map(|(i, group)| {
                let kids: Vec<Kid<Cell<Leaf>>> = group
                    .iter()
                    .enumerate()
                    .map(|(j, leaf)| (if i + j == 0 { 0 } else { leaf[0] }, alloc.cell(leaf)))
                    .collect();
                (kids[0].0, alloc.node(kids, group.to_vec()))
            })
            .collect();
        let root = alloc.snap(nodes);
        Self {
            root: ViewCell::new(Arc::clone(&alloc.domain), Arc::clone(&root)),
            top: Mutex::new(root),
            alloc,
        }
    }

    /// Runs `f` under the lock of the inner node whose range holds `key`,
    /// routing again if that node is split away before its lock is won.
    fn with_node<R>(&self, key: u64, f: impl FnOnce(&Node, &mut Twin) -> R) -> R {
        loop {
            let node = {
                let top = self.top.lock();
                Arc::clone(&top[child_of(&top, key)].1)
            };
            let mut twin = node.twin.lock();
            if !twin.gone {
                return f(&node, &mut twin);
            }
        }
    }

    /// `count` summed over every node's twin, the nodes locked one at a
    /// time; the walk restarts when it meets a node split away since it
    /// read the root's twin.
    fn sum_nodes(&self, count: impl Fn(&Twin) -> usize) -> usize {
        'walk: loop {
            let top = Arc::clone(&self.top.lock());
            let mut sum = 0;
            for (_, node) in top.iter() {
                let twin = node.twin.lock();
                if twin.gone {
                    continue 'walk;
                }
                sum += count(&twin);
            }
            return sum;
        }
    }

    fn insert(&self, key: u64) -> bool {
        let alloc = &self.alloc;
        self.with_node(key, |node, twin| {
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

            // Full leaf: two fresh cells take its range. A key past the
            // end starts the upper one alone, so ascending appends leave
            // full leaves behind them, not half-full ones.
            let at = if pos == LEAF_CAP { pos } else { keys.len() / 2 };
            let lo = alloc.snap(keys[..at].to_vec());
            let hi = alloc.snap(keys[at..].to_vec());
            let halves = [(twin.inner[j].0, alloc.cell(&lo)), (hi[0], alloc.cell(&hi))];
            let mut kids = spliced(&twin.inner, j..j + 1, &halves);
            twin.leaves.splice(j..j + 1, [lo, hi]);
            if kids.len() <= INNER_CAP {
                twin.inner = alloc.snap(kids);
                node.cell.publish(Arc::clone(&twin.inner));
                return true;
            }

            // Full inner node: two fresh nodes take its range. The root
            // lock is taken here, still holding this node's — the only
            // place the two nest.
            let at = kids.len() / 2;
            let hi_low = kids[at].0;
            let hi = alloc.node(kids.split_off(at), twin.leaves.split_off(at));
            kids.shrink_to_fit();
            let lo = alloc.node(kids, std::mem::take(&mut twin.leaves));
            twin.gone = true;
            let mut top = self.top.lock();
            let i = child_of(&top, key);
            let halves = [(top[i].0, lo), (hi_low, hi)];
            *top = alloc.snap(spliced(&top, i..i + 1, &halves));
            self.root.publish(Arc::clone(&top));
            true
        })
    }

    fn remove(&self, key: u64) -> bool {
        let alloc = &self.alloc;
        self.with_node(key, |node, twin| {
            let j = child_of(&twin.inner, key);
            let Ok(pos) = twin.leaves[j].binary_search(&key) else {
                return false;
            };
            // An inner node keeps its last leaf even when empty: dropping
            // the node would widen a *leaf* cell of its neighbour.
            if twin.leaves[j].len() > 1 || twin.leaves.len() == 1 {
                twin.leaves[j] = alloc.snap(spliced(&twin.leaves[j], pos..pos + 1, &[]));
                twin.inner[j].1.publish(Arc::clone(&twin.leaves[j]));
                return true;
            }

            // Emptied leaf: a neighbour inherits its range, in a fresh
            // cell because a cell's range never changes.
            let heir = if j == 0 { 1 } else { j - 1 };
            let at = j.min(heir);
            let merged = (twin.inner[at].0, alloc.cell(&twin.leaves[heir]));
            twin.inner = alloc.snap(spliced(&twin.inner, at..at + 2, &[merged]));
            twin.leaves.remove(j);
            node.cell.publish(Arc::clone(&twin.inner));
            true
        })
    }
}

/// An ordered index over `u64` user keys: one or more independent trees,
/// each addressed by its `shard` number (see module docs).
pub struct OrderedIndex {
    shards: Vec<Tree>,
}

impl OrderedIndex {
    /// Creates an index of `shards` empty trees whose readers pin
    /// `domain` — normally the same domain guarding the store's views,
    /// so one pin covers both the scan cursor and the version probes.
    pub fn new(shards: usize, domain: Arc<EpochDomain>) -> Self {
        Self::from_sorted(domain, vec![Vec::new(); shards.max(1)])
    }

    /// Builds an index whose tree `i` holds `shards[i]`, each tree in one
    /// pass and without a `publish`, for a caller that has no readers yet
    /// (a store being opened). Readers pin `domain`, as with
    /// [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if a tree's keys are not strictly ascending.
    pub fn from_sorted(domain: Arc<EpochDomain>, shards: Vec<Vec<u64>>) -> Self {
        let shards = shards
            .iter()
            .map(|keys| Tree::build(Arc::clone(&domain), keys))
            .collect();
        Self { shards }
    }

    /// Inserts `key` into tree `shard`; returns `false` if already present.
    pub fn insert(&self, shard: usize, key: u64) -> bool {
        self.shards[shard].insert(key)
    }

    /// Removes `key` from tree `shard`; returns `false` if absent.
    pub fn remove(&self, shard: usize, key: u64) -> bool {
        self.shards[shard].remove(key)
    }

    /// Ascending cursor over tree `shard`'s keys `>= start`, valid while
    /// `pin` is held.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is from a different [`EpochDomain`].
    pub fn range_from<'p>(&'p self, shard: usize, start: u64, pin: &'p Pin<'_>) -> RangeIter<'p> {
        let root = self.shards[shard].root.load(pin);
        let i = child_of(root, start);
        let inner = root[i].1.cell.load(pin);
        let j = child_of(inner, start);
        let keys = inner[j].1.load(pin);
        RangeIter {
            pin,
            inners: &root[i + 1..],
            leaves: &inner[j + 1..],
            keys: keys[keys.partition_point(|&k| k < start)..].iter(),
        }
    }

    /// Live keys across all trees.
    pub fn len(&self) -> u64 {
        let keys: usize = self
            .shards
            .iter()
            .map(|tree| tree.sum_nodes(|twin| twin.leaves.iter().map(|l| l.len()).sum()))
            .sum();
        keys as u64
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// DRAM allocated by the index, exactly: every snapshot, cell and
    /// inner node alive — current, or retired and not yet reclaimed — at
    /// its capacity with its `Arc` header, the writers' twins and the
    /// tree table. Not in it: allocator rounding, and the heap behind a
    /// `ViewCell`'s private retired list, which a cell allocates only
    /// when one of its publishes races a pinned reader.
    pub fn dram_bytes(&self) -> u64 {
        let mut bytes = size_of::<Self>() + self.shards.capacity() * size_of::<Tree>();
        for tree in &self.shards {
            bytes += ARC_HEADER + size_of::<AtomicU64>();
            bytes += tree.sum_nodes(|twin| twin.leaves.capacity() * size_of::<Arc<Leaf>>());
            bytes += tree.alloc.total.load(Ordering::Relaxed) as usize;
        }
        bytes as u64
    }
}

/// Ascending key cursor returned by [`OrderedIndex::range_from`]: the
/// rest of the current leaf, then the leaves after it in the inner
/// snapshot it came from, then the inner nodes after that in the root's.
pub struct RangeIter<'p> {
    pin: &'p Pin<'p>,
    inners: &'p [Kid<NodeRef>],
    leaves: &'p [Kid<Cell<Leaf>>],
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
            } else if let Some(((_, node), rest)) = self.inners.split_first() {
                self.inners = rest;
                self.leaves = node.cell.load(self.pin);
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
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

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

    /// The inner nodes of tree `shard`, left to right.
    fn nodes(idx: &OrderedIndex, shard: usize) -> Vec<NodeRef> {
        let top = idx.shards[shard].top.lock();
        top.iter().map(|(_, node)| Arc::clone(node)).collect()
    }

    /// Collects every live cell, then counts what they still hold retired.
    fn sweep(idx: &OrderedIndex) -> usize {
        let mut held = 0;
        for (shard, tree) in idx.shards.iter().enumerate() {
            tree.root.collect();
            held += tree.root.retired_len();
            for node in nodes(idx, shard) {
                node.cell.collect();
                held += node.cell.retired_len();
                for (_, leaf) in node.twin.lock().inner.iter() {
                    leaf.collect();
                    held += leaf.retired_len();
                }
            }
        }
        held
    }

    /// Key count of every leaf of `shard`, left to right.
    fn leaf_lens(idx: &OrderedIndex, shard: usize) -> Vec<usize> {
        let mut lens = Vec::new();
        for node in nodes(idx, shard) {
            lens.extend(node.twin.lock().leaves.iter().map(|l| l.len()));
        }
        lens
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
        assert!(nodes(&idx, 0).len() > 1, "inner node must have split");
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
            let inners = nodes(&built, 0).len();
            assert!(built.insert(0, 0));
            assert_eq!(nodes(&built, 0).len(), inners);
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
        let inners = nodes(&idx, 0).len();
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

    /// Counts a writer out of the running ones when dropped.
    struct Done<'a>(&'a AtomicUsize);

    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Readers scan the whole tree in a loop while `writers` threads run
    /// `churn(idx, w)`, and one more reads `len` and `dram_bytes`. Every
    /// observed sequence must be strictly ascending, contain every stable
    /// key exactly once, and contain nothing never inserted. Each writer
    /// returns the churn keys it left in; once all are done, the tree
    /// must hold exactly those and the stable keys.
    fn scan_stress(writers: usize, churn: impl Fn(&OrderedIndex, usize) -> BTreeSet<u64> + Sync) {
        let idx = index(1);
        for k in (0..STABLE_END).step_by(4) {
            idx.insert(0, k);
        }
        let running = AtomicUsize::new(writers);
        let left = std::thread::scope(|s| {
            for reader in 0..3usize {
                let (idx, running) = (&idx, &running);
                s.spawn(move || {
                    let mut rounds = 0u32;
                    while running.load(Ordering::Relaxed) > 0 || rounds < 20 {
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
            let (idx, running) = (&idx, &running);
            s.spawn(move || {
                while running.load(Ordering::Relaxed) > 0 {
                    // Polls race inner splits, so the walk's restart
                    // on a `gone` node runs; a count that neither
                    // repeats nor skips a range stays in these bounds.
                    let len = idx.len();
                    assert!((STABLE_END / 4..KEY_END).contains(&len), "len {len}");
                    assert!(idx.dram_bytes() > 8 * len);
                }
            });
            let churn = &churn;
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    s.spawn(move || {
                        // Counted down even if `churn` panics, so the
                        // readers stop and the panic reaches the test.
                        let _done = Done(running);
                        churn(idx, w)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<u64>>()
        });
        // All readers gone: everything retired must free.
        assert_eq!(sweep(&idx), 0);
        let mut want: Vec<u64> = (0..STABLE_END).step_by(4).chain(left).collect();
        want.sort_unstable();
        assert_eq!(scan_all(&idx, 0, 0), want);
        assert_eq!(idx.len(), want.len() as u64);
    }

    /// Random-order churn between and above the stable keys: leaves
    /// split, an inner node splits, and the all-churn leaves above
    /// `STABLE_END` empty out and go, round after round.
    #[test]
    fn concurrent_scan_stress() {
        scan_stress(1, |idx, _| {
            let mut most_inners = 0;
            let mut rng = TestRng::deterministic("concurrent_scan_stress");
            for _round in 0..12 {
                for _ in 0..KEY_END {
                    let k = rng.next_u64() % KEY_END;
                    if !is_stable(k) {
                        idx.insert(0, k);
                    }
                }
                most_inners = most_inners.max(nodes(idx, 0).len());
                for k in 0..KEY_END {
                    if !is_stable(k) {
                        idx.remove(0, k);
                    }
                }
            }
            assert!(most_inners > 1, "churn must split an inner node");
            BTreeSet::new()
        });
    }

    /// A queue-shaped writer: ascending appends above the stable keys
    /// (the tail-split path) chased by removals from the front.
    #[test]
    fn concurrent_scan_stress_ascending_appends() {
        scan_stress(1, |idx, _| {
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
            BTreeSet::new()
        });
    }

    /// Three writers on one tree, each owning the churn keys `k % 3 == w`,
    /// so every leaf and inner node is written by all of them: their
    /// leaf splits race one another's inside a node, and their inner
    /// splits race routing and each other on the root. Each writer's
    /// insert/remove results must match its own model.
    #[test]
    fn concurrent_writers_share_inner_nodes() {
        const WRITERS: usize = 3;
        let most_inners = AtomicUsize::new(0);
        scan_stress(WRITERS, |idx, w| {
            let mine = |k: u64| k % WRITERS as u64 == w as u64 && !is_stable(k);
            let mut rng = TestRng::deterministic(&format!("concurrent_writers {w}"));
            let mut live = BTreeSet::new();
            for _round in 0..8 {
                for _ in 0..KEY_END {
                    let k = rng.next_u64() % KEY_END;
                    if mine(k) {
                        assert_eq!(idx.insert(0, k), live.insert(k), "insert {k}");
                    }
                }
                most_inners.fetch_max(nodes(idx, 0).len(), Ordering::Relaxed);
                for _ in 0..KEY_END / 2 {
                    let k = rng.next_u64() % KEY_END;
                    if mine(k) {
                        assert_eq!(idx.remove(0, k), live.remove(&k), "remove {k}");
                    }
                }
            }
            live
        });
        // One inner node holds at most `INNER_CAP` leaves: four nodes mean
        // three inner splits, each a root republish.
        let most = most_inners.into_inner();
        assert!(most >= 4, "only {most} inner nodes");
    }
}
