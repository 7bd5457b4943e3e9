//! Epoch-safe ordered DRAM index over live user keys.
//!
//! ChameleonDB's persistent structures are hash-keyed — nothing on media
//! knows key *order* — so range scans need a volatile ordered index
//! maintained beside the hash index and rebuilt on recovery. This crate
//! provides it: a three-level tree (root directory → inner nodes of up to
//! [`INNER_CAP`] leaves → leaves of up to [`LEAF_CAP`] keys). The root
//! and every inner node are a [`ViewCell`] of the store's own
//! [`EpochDomain`], so their publication, retirement and reclamation are
//! `kvsync`'s. A leaf is a fixed array of atomic keys that its writer
//! changes in place under the leaf's own seqlock. An index holds one or
//! more independent trees, each addressed by a `shard` number; the store
//! keeps every key in one tree, so a scan is one cursor.
//!
//! A directory's **snapshot** is immutable: a `Vec<(low, child)>` in
//! which child `i` owns the keys `low[i] .. low[i + 1]`. A **leaf** holds
//! up to `LEAF_CAP` ascending keys and one state word, `version << 8 |
//! len`, and its key range is fixed for life. An insert or remove that
//! stays inside one leaf shifts its keys in place: it allocates, copies
//! and publishes nothing. Anything that moves a range boundary builds
//! *fresh* leaves and publishes a new snapshot of their inner node:
//!
//! * a full leaf **splits** in two. A key past its end starts the upper
//!   leaf alone, so ascending appends leave full leaves behind them, not
//!   half-full ones;
//! * a full leaf whose neighbour in the same inner node has at least
//!   [`SHARE_MIN_FREE`] free slots **rebalances** instead: two fresh
//!   leaves split the two leaves' keys evenly. Random inserts then leave
//!   leaves about 80 % full, not the ~69 % that splits alone leave, which
//!   keeps a fixed-size leaf near 11 B per key;
//! * an **emptied** leaf hands its range to a neighbour, which is copied
//!   into a fresh leaf over both ranges. The emptied leaf keeps its last
//!   key.
//!
//! A full inner node splits into two fresh nodes, which take over its
//! leaves as they are, and the root is republished. Replaced leaves and
//! nodes are never written again.
//!
//! A tree comes to exist in one of two ways. [`OrderedIndex::new`]
//! starts it empty and mutations grow it. [`OrderedIndex::from_sorted`]
//! builds it whole from sorted keys before any reader exists: full
//! leaves, as ascending inserts leave them, spread evenly over as many
//! inner nodes as ascending inserts leave, nothing published. `new` is
//! that builder given no keys. [`OrderedIndex::from_parts`] is the same
//! build with its leaves cut in parts, one part per thread, each from
//! its own range of the sorted keys (see [`Leaves::cut`]); it gives the
//! same tree, leaf for leaf, however the ranges split the keys. That is
//! how the store installs the index, fresh or recovered.
//!
//! * **Writers** ([`OrderedIndex::insert`] / [`OrderedIndex::remove`])
//!   lock one inner node, not the tree. Behind its own mutex each inner
//!   node keeps the writer's twin of itself (an `Arc` of its current
//!   snapshot), so the write path never pins or loads a cell. A writer
//!   routes under the tree's short root lock — one binary search of the
//!   root's twin and one `Arc` clone — drops it, then locks the node; if
//!   an inner split replaced the node in the meantime, it routes again.
//!   In-place shifts, leaf splits, rebalances and emptied-leaf merges all
//!   stay inside that node; each but the shift ends in one `publish` of
//!   the node's cell. Only an inner split takes the root lock while still
//!   holding its node: it builds two fresh nodes, marks the old one gone
//!   and republishes the root. Mutations of different keys run
//!   concurrently; those of one key apply in the order they lock its node
//!   (the store orders them under its shard's `mem` lock first).
//! * **Lock order** is node → root. The root lock is taken alone to route
//!   or to read the root's twin, and under a node lock only inside an
//!   inner split; nothing locks a node while holding the root lock.
//!   [`OrderedIndex::len`] and [`OrderedIndex::dram_bytes`] read the
//!   root's twin, then lock its nodes one at a time, and restart the walk
//!   when one has been split away since, so a range is never counted
//!   twice or skipped.
//! * **Readers** ([`OrderedIndex::range_from`]) never lock. A cursor
//!   loads one root snapshot under the caller's pin and walks it left to
//!   right, loading each inner snapshot once, when it gets there. It
//!   copies each leaf once, when it gets there, under version
//!   validation: an `Acquire` load of the state word, the key loads, an
//!   `Acquire` fence, then a re-check of the state word. A copy that
//!   raced a shift (an odd version, or a version that moved) is retried,
//!   spinning a bounded number of times and then yielding the core, so a
//!   writer preempted mid-shift cannot pin a reader's core.
//!
//! Any single traversal yields a **strictly ascending** key sequence even
//! while racing mutations: the children of one directory snapshot cover
//! disjoint, ascending, fixed key ranges, and each leaf is read as one
//! validated copy of sorted keys. A leaf is written only while it is in
//! its node's current snapshot, and a replaced leaf keeps its last keys —
//! stale, never torn — so a key present for the whole scan is yielded
//! exactly once, and every key yielded was present at some instant during
//! the scan: a replaced leaf froze its keys when it was replaced, which
//! is after the cursor loaded the snapshot that holds it.
//!
//! **Memory ordering** follows Boehm's seqlock argument ("Can seqlocks
//! get along with programming language memory models?", MSPC 2012). The
//! writer stores an odd version (`Relaxed`), issues a `Release` fence,
//! shifts the keys with `Relaxed` stores and stores the next even version
//! with `Release`. If the reader's first `Acquire` load reads the even
//! store that ended shift `n`, every key store up to shift `n` happens
//! before the reader's key loads, so those read shift `n`'s keys or later
//! ones. If a key load reads a store of a later shift, the writer's
//! `Release` fence before that store synchronizes with the reader's
//! `Acquire` fence after the load, so the odd store that opened the shift
//! happens before the re-check, which then sees a different state word
//! and the copy is retried. Without the writer's fence the key store
//! could become visible before the odd version; without the reader's, the
//! re-check could be satisfied by a state read before the key loads.

#![forbid(unsafe_code)]

use std::mem::size_of;
use std::ops::{Deref, Range};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use kvsync::{EpochDomain, Pin, ViewCell};
use parking_lot::Mutex;

/// Keys per leaf: a leaf is one fixed array of this many keys.
const LEAF_CAP: usize = 64;

/// Leaves per inner node: bounds what a leaf split republishes (a flat
/// per-shard directory would make every split O(leaves)).
const INNER_CAP: usize = 64;

/// A full leaf rebalances with a neighbour that has at least this many
/// free slots; otherwise it splits.
const SHARE_MIN_FREE: usize = 16;

/// Validation retries a reader spins through before it starts yielding
/// the core to a writer that may be preempted mid-shift.
const SPINS: u32 = 64;

/// The strong and weak counts in front of every `Arc` payload.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// What one leaf allocates: its `Arc` header and the fixed leaf itself.
const LEAF_BYTES: u64 = (ARC_HEADER + size_of::<Leaf>()) as u64;

/// The version's lowest bit in a leaf's state word: set while a writer
/// is shifting keys.
const SHIFTING: u64 = 1 << 8;

/// One leaf: its first `len` keys, ascending, behind a state word
/// `version << 8 | len` (see module docs). Only a writer holding the lock
/// of the inner node whose current snapshot holds the leaf changes it.
/// The state word comes first, on the cache line of the first keys.
#[repr(C)]
struct Leaf {
    state: AtomicU64,
    keys: [AtomicU64; LEAF_CAP],
}

impl Leaf {
    fn new(keys: &[u64]) -> Self {
        Self {
            state: AtomicU64::new(keys.len() as u64),
            keys: std::array::from_fn(|i| AtomicU64::new(keys.get(i).copied().unwrap_or(0))),
        }
    }

    /// Writer side, under the node lock: the keys, which no one else can
    /// be changing.
    fn held(&self) -> &[AtomicU64] {
        let len = self.state.load(Ordering::Relaxed) & 0xff;
        &self.keys[..len as usize]
    }

    /// Writer side: the keys copied out.
    fn to_vec(&self) -> Vec<u64> {
        self.held()
            .iter()
            .map(|k| k.load(Ordering::Relaxed))
            .collect()
    }

    /// Writer side: runs `shift` on the keys inside one odd version, then
    /// stores the next even version with length `len`.
    fn shift(&self, len: usize, shift: impl FnOnce(&[AtomicU64])) {
        let state = self.state.load(Ordering::Relaxed);
        self.state.store(state + SHIFTING, Ordering::Relaxed);
        fence(Ordering::Release);
        shift(&self.keys);
        let version = (state >> 8) + 2;
        self.state
            .store(version << 8 | len as u64, Ordering::Release);
    }

    /// Writer side: puts `key` at `pos` of a leaf of `len < LEAF_CAP` keys.
    fn insert_at(&self, pos: usize, len: usize, key: u64) {
        self.shift(len + 1, |keys| {
            for i in (pos..len).rev() {
                keys[i + 1].store(keys[i].load(Ordering::Relaxed), Ordering::Relaxed);
            }
            keys[pos].store(key, Ordering::Relaxed);
        });
    }

    /// Writer side: takes out the key at `pos` of a leaf of `len` keys.
    fn remove_at(&self, pos: usize, len: usize) {
        self.shift(len - 1, |keys| {
            for i in pos + 1..len {
                keys[i - 1].store(keys[i].load(Ordering::Relaxed), Ordering::Relaxed);
            }
        });
    }

    /// Reader side: copies the keys to the front of `buf` under version
    /// validation (see module docs) and returns how many.
    fn read(&self, buf: &mut [u64; LEAF_CAP]) -> usize {
        let mut tries = 0;
        loop {
            let state = self.state.load(Ordering::Acquire);
            if state & SHIFTING == 0 {
                let keys = &self.keys[..(state & 0xff) as usize];
                for (to, key) in buf.iter_mut().zip(keys) {
                    *to = key.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                if self.state.load(Ordering::Relaxed) == state {
                    return keys.len();
                }
            }
            tries += 1;
            if tries < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

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

/// A directory entry: the child's lowest admissible key and the child.
type Kid<C> = (u64, C);
type NodeRef = Arc<Counted<Node>>;
type Root = Counted<Vec<Kid<NodeRef>>>;

/// One inner node's snapshot: its leaves in key order. Only snapshots
/// hold leaves, so the snapshot that drops a leaf's last reference gives
/// that leaf's bytes back along with its own.
struct Inner {
    kids: Vec<Kid<Arc<Leaf>>>,
    total: Arc<AtomicU64>,
}

impl Inner {
    /// What a snapshot of `kids` leaves allocates, leaves not included.
    fn bytes(kids: usize) -> u64 {
        (ARC_HEADER + size_of::<Self>() + kids * size_of::<Kid<Arc<Leaf>>>()) as u64
    }
}

impl Deref for Inner {
    type Target = [Kid<Arc<Leaf>>];

    fn deref(&self) -> &Self::Target {
        &self.kids
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        let mut bytes = Self::bytes(self.kids.capacity());
        for (_, leaf) in self.kids.drain(..) {
            if Arc::into_inner(leaf).is_some() {
                bytes += LEAF_BYTES;
            }
        }
        self.total.fetch_sub(bytes, Ordering::Relaxed);
    }
}

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

    /// A fresh leaf holding `keys`.
    fn leaf(&self, keys: &[u64]) -> Arc<Leaf> {
        self.total.fetch_add(LEAF_BYTES, Ordering::Relaxed);
        Arc::new(Leaf::new(keys))
    }

    /// An inner snapshot over `kids`, charged at its allocated capacity.
    fn inner(&self, kids: Vec<Kid<Arc<Leaf>>>) -> Arc<Inner> {
        self.total
            .fetch_add(Inner::bytes(kids.capacity()), Ordering::Relaxed);
        let total = Arc::clone(&self.total);
        Arc::new(Inner { kids, total })
    }

    /// A fresh inner node whose cell and twin hold a snapshot of `kids`.
    fn node(&self, kids: Vec<Kid<Arc<Leaf>>>) -> NodeRef {
        let inner = self.inner(kids);
        let cell = ViewCell::new(Arc::clone(&self.domain), Arc::clone(&inner));
        let twin = Mutex::new(Twin { inner, gone: false });
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

/// The writer's twin of one inner node: the snapshot now in its cell.
struct Twin {
    inner: Arc<Inner>,
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
    /// A tree over the leaves of `parts`, in order (see
    /// [`Leaves::cut`]): as many inner nodes as ascending inserts of
    /// the same keys leave (one, until an inner split), with the leaves
    /// spread evenly over them. Past one node, that is at most 48 leaves
    /// to a node, so the first leaf split after the build republishes one
    /// inner node and leaves the root alone.
    fn build(domain: Arc<EpochDomain>, parts: Vec<Leaves>) -> Self {
        let alloc = Alloc {
            total: Arc::default(),
            domain,
        };
        let mut leaves: Vec<Kid<Arc<Leaf>>> = parts.into_iter().flat_map(|p| p.0).collect();
        assert!(
            leaves.windows(2).all(|w| w[0].0 < w[1].0),
            "parts must come in key order"
        );
        if leaves.is_empty() {
            leaves.push((0, Arc::new(Leaf::new(&[]))));
        }
        alloc
            .total
            .fetch_add(leaves.len() as u64 * LEAF_BYTES, Ordering::Relaxed);
        // A leaf's low is its first key, except the first leaf's: the
        // tree's lower bound, 0.
        leaves[0].0 = 0;
        let n = leaves.len();
        let nodes = 1 + n.saturating_sub(INNER_CAP).div_ceil(INNER_CAP / 2);
        let root: Vec<Kid<NodeRef>> = (0..nodes)
            .map(|i| {
                let group = &leaves[i * n / nodes..(i + 1) * n / nodes];
                (group[0].0, alloc.node(group.to_vec()))
            })
            .collect();
        let root = alloc.snap(root);
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
        self.with_node(key, |node, twin| {
            let j = child_of(&twin.inner, key);
            let leaf = &twin.inner[j].1;
            let held = leaf.held();
            let Err(pos) = held.binary_search_by(|k| k.load(Ordering::Relaxed).cmp(&key)) else {
                return false;
            };
            if held.len() < LEAF_CAP {
                leaf.insert_at(pos, held.len(), key);
                return true;
            }

            // Full leaf: fresh leaves take over its range and, on a
            // rebalance, its roomier neighbour's too. A key past the end
            // starts the upper leaf alone.
            let mut span = j..j + 1;
            if pos < LEAF_CAP {
                let free = |i: usize| LEAF_CAP - twin.inner[i].1.held().len();
                let roomier = [j.wrapping_sub(1), j + 1]
                    .into_iter()
                    .filter(|&i| i < twin.inner.len())
                    .max_by_key(|&i| free(i));
                if let Some(i) = roomier.filter(|&i| free(i) >= SHARE_MIN_FREE) {
                    span = i.min(j)..i.max(j) + 1;
                }
            }
            let mut keys: Vec<u64> = twin.inner[span.clone()]
                .iter()
                .flat_map(|(_, leaf)| leaf.to_vec())
                .collect();
            keys.insert(keys.partition_point(|&k| k < key), key);
            let at = if pos == LEAF_CAP { pos } else { keys.len() / 2 };
            let alloc = &self.alloc;
            let halves = [
                (twin.inner[span.start].0, alloc.leaf(&keys[..at])),
                (keys[at], alloc.leaf(&keys[at..])),
            ];
            self.replace(node, twin, span, &halves, key);
            true
        })
    }

    fn remove(&self, key: u64) -> bool {
        self.with_node(key, |node, twin| {
            let j = child_of(&twin.inner, key);
            let leaf = &twin.inner[j].1;
            let held = leaf.held();
            let Ok(pos) = held.binary_search_by(|k| k.load(Ordering::Relaxed).cmp(&key)) else {
                return false;
            };
            // An inner node keeps its last leaf even when empty: dropping
            // the node would widen a leaf of its neighbour.
            if held.len() > 1 || twin.inner.len() == 1 {
                leaf.remove_at(pos, held.len());
                return true;
            }

            // Emptied leaf: a neighbour inherits its range, in a fresh
            // leaf because a leaf's range never changes.
            let heir = if j == 0 { 1 } else { j - 1 };
            let at = j.min(heir);
            let merged = (
                twin.inner[at].0,
                self.alloc.leaf(&twin.inner[heir].1.to_vec()),
            );
            self.replace(node, twin, at..at + 2, &[merged], key);
            true
        })
    }

    /// Publishes a snapshot of `node` with the leaves at `span` replaced
    /// by `with`. A node that would hold more than `INNER_CAP` leaves is
    /// replaced by two fresh nodes instead: the root lock is taken here,
    /// still holding the node's — the only place the two nest.
    fn replace(
        &self,
        node: &Node,
        twin: &mut Twin,
        span: Range<usize>,
        with: &[Kid<Arc<Leaf>>],
        key: u64,
    ) {
        let alloc = &self.alloc;
        let mut kids = spliced(&twin.inner, span, with);
        if kids.len() <= INNER_CAP {
            twin.inner = alloc.inner(kids);
            node.cell.publish(Arc::clone(&twin.inner));
            return;
        }
        let at = kids.len() / 2;
        let hi_low = kids[at].0;
        let hi = alloc.node(kids.split_off(at));
        kids.shrink_to_fit();
        let lo = alloc.node(kids);
        twin.gone = true;
        let mut top = self.top.lock();
        let i = child_of(&top, key);
        let halves = [(top[i].0, lo), (hi_low, hi)];
        *top = alloc.snap(spliced(&top, i..i + 1, &halves));
        self.root.publish(Arc::clone(&top));
    }
}

/// The leaves of one part of a tree built in parts, one part to a
/// thread: see [`Leaves::cut`] and [`OrderedIndex::from_parts`].
pub struct Leaves(Vec<Kid<Arc<Leaf>>>);

impl Leaves {
    /// The leaves whose first key has its index in `at`, of the tree
    /// over one strictly ascending key sequence; `keys` yields that
    /// sequence from index `at.start` on. Leaves are cut every
    /// `LEAF_CAP` keys from index 0, so the parts cut for ranges that
    /// tile the sequence's indices hold together the leaves one pass over
    /// the whole sequence cuts. The last leaf may take keys from past
    /// `at.end`; the keys before the first leaf are skipped.
    ///
    /// # Panics
    ///
    /// Panics if the keys read are not strictly ascending, the first key
    /// past the last leaf included.
    pub fn cut(at: Range<usize>, keys: impl IntoIterator<Item = u64>) -> Self {
        let mut keys = keys.into_iter();
        let mut last = None;
        let mut next = || {
            let key = keys.next()?;
            assert!(
                last.is_none_or(|last| last < key),
                "shard keys must be strictly ascending"
            );
            last = Some(key);
            Some(key)
        };
        let carried = (LEAF_CAP - at.start % LEAF_CAP) % LEAF_CAP;
        let mut first = at.start + carried;
        for _ in 0..carried.min(at.len()) {
            next();
        }
        let mut leaves = Vec::with_capacity(at.len().div_ceil(LEAF_CAP));
        let mut buf = [0; LEAF_CAP];
        while first < at.end {
            let len = buf
                .iter_mut()
                .map_while(|to| next().map(|k| *to = k))
                .count();
            if len == 0 {
                break;
            }
            leaves.push((buf[0], Arc::new(Leaf::new(&buf[..len]))));
            first += LEAF_CAP;
        }
        next();
        Self(leaves)
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
    /// so the store's one epoch protocol covers the scan cursor too.
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
            .map(|keys| {
                let leaves = Leaves::cut(0..keys.len(), keys.iter().copied());
                Tree::build(Arc::clone(&domain), vec![leaves])
            })
            .collect();
        Self { shards }
    }

    /// Builds a one-tree index from the [`Leaves::cut`] of every part of
    /// one key sequence, in part order: the tree that
    /// [`from_sorted`](Self::from_sorted) builds from the whole sequence,
    /// its leaves cut on as many threads as the caller gave the parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts' leaves are not in ascending key order.
    pub fn from_parts(domain: Arc<EpochDomain>, parts: Vec<Leaves>) -> Self {
        Self {
            shards: vec![Tree::build(domain, parts)],
        }
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
        let mut iter = RangeIter {
            pin,
            inners: &root[i + 1..],
            leaves: &inner[j + 1..],
            buf: Box::new([0; LEAF_CAP]),
            at: 0,
            len: 0,
            entered: 0,
        };
        iter.len = inner[j].1.read(&mut iter.buf);
        iter.at = iter.buf[..iter.len].partition_point(|&k| k < start);
        iter
    }

    /// Live keys across all trees.
    pub fn len(&self) -> u64 {
        let keys: usize = self
            .shards
            .iter()
            .map(|tree| tree.sum_nodes(|twin| twin.inner.iter().map(|(_, l)| l.held().len()).sum()))
            .sum();
        keys as u64
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// DRAM allocated by the index, exactly: every leaf (its fixed key
    /// array and state word), every inner and root snapshot at its
    /// allocated capacity and every inner node (its cell and twin), each
    /// with its `Arc` header and each from construction to drop, so
    /// retired ones not yet reclaimed are in it; plus each tree's byte
    /// counter and the tree table. Not in it: allocator rounding, and the
    /// heap behind a `ViewCell`'s private retired list, which a cell
    /// allocates only when one of its publishes races a pinned reader.
    pub fn dram_bytes(&self) -> u64 {
        let mut bytes = size_of::<Self>() + self.shards.capacity() * size_of::<Tree>();
        for tree in &self.shards {
            bytes += ARC_HEADER + size_of::<AtomicU64>();
            bytes += tree.alloc.total.load(Ordering::Relaxed) as usize;
        }
        bytes as u64
    }
}

/// Ascending key cursor returned by [`OrderedIndex::range_from`]: the
/// rest of its validated copy of the current leaf, then the leaves after
/// it in the inner snapshot it came from, then the inner nodes after that
/// in the root's.
pub struct RangeIter<'p> {
    pin: &'p Pin<'p>,
    inners: &'p [Kid<NodeRef>],
    leaves: &'p [Kid<Arc<Leaf>>],
    /// On the heap so the cursor stays small: callers wrap it in
    /// iterator adapters, and a 512 B copy per move cost more than the
    /// allocation.
    buf: Box<[u64; LEAF_CAP]>,
    at: usize,
    len: usize,
    entered: usize,
}

impl RangeIter<'_> {
    /// Leaves copied after the seek's own leaf, empty ones included: what
    /// a caller that models the walk's cost charges beyond the seek.
    pub fn leaves_entered(&self) -> usize {
        self.entered
    }

    /// Copies the next non-empty leaf and yields its first key. Kept out
    /// of line so that `next`'s fast path inlines into the caller's loop.
    #[inline(never)]
    fn next_leaf(&mut self) -> Option<u64> {
        loop {
            if let Some(((_, leaf), rest)) = self.leaves.split_first() {
                self.leaves = rest;
                self.entered += 1;
                self.len = leaf.read(&mut self.buf);
                if self.len > 0 {
                    self.at = 1;
                    return Some(self.buf[0]);
                }
            } else if let Some(((_, node), rest)) = self.inners.split_first() {
                self.inners = rest;
                self.leaves = node.cell.load(self.pin);
            } else {
                return None;
            }
        }
    }
}

impl Iterator for RangeIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.at < self.len {
            self.at += 1;
            return Some(self.buf[self.at - 1]);
        }
        self.next_leaf()
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
            }
        }
        held
    }

    /// Key count of every leaf of `shard`, left to right.
    fn leaf_lens(idx: &OrderedIndex, shard: usize) -> Vec<usize> {
        let mut lens = Vec::new();
        for node in nodes(idx, shard) {
            lens.extend(node.twin.lock().inner.iter().map(|(_, l)| l.held().len()));
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
    fn cursor_counts_the_leaves_it_enters() {
        let idx =
            OrderedIndex::from_sorted(Arc::new(EpochDomain::new(8)), vec![(0..200).collect()]);
        assert_eq!(leaf_lens(&idx, 0), [64, 64, 64, 8]);
        let pin = domain(&idx).pin(0);
        let walk = |start, take| {
            let mut cursor = idx.range_from(0, start, &pin);
            let keys = cursor.by_ref().take(take).count();
            (keys, cursor.leaves_entered())
        };
        assert_eq!(walk(0, usize::MAX), (200, 3));
        assert_eq!(walk(100, 28), (28, 0), "stops inside the seek's leaf");
        assert_eq!(walk(100, 29), (29, 1));
        assert_eq!(walk(1000, 10), (0, 0));
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

    /// However ranges split the keys, `from_parts` builds the tree
    /// `from_sorted` builds from all of them: the same leaves and inner
    /// nodes, the same scans, the same DRAM. Cuts land on, inside and
    /// just past leaf boundaries, and some ranges are empty.
    #[test]
    fn from_parts_matches_from_sorted_at_every_split() {
        let domain = Arc::new(EpochDomain::new(1));
        for n in [0, 5, 3 * LEAF_CAP * INNER_CAP / 2 + 7] {
            let keys: Vec<u64> = (0..n as u64).map(|k| 5 * k + 2).collect();
            let whole = OrderedIndex::from_sorted(Arc::clone(&domain), vec![keys.clone()]);
            let (third, lc) = (n / 3, LEAF_CAP.min(n));
            let splits = [
                vec![],
                vec![0],
                vec![n],
                vec![1, 1],
                vec![lc.saturating_sub(1), lc, (lc + 1).min(n)],
                vec![third, 2 * third],
                vec![0, 2.min(n), 2.min(n), n.saturating_sub(1)],
            ];
            for cuts in splits {
                let cut = cuts.iter().map(|&c| c.min(n));
                let bounds: Vec<usize> = [0].into_iter().chain(cut).chain([n]).collect();
                let parts = bounds
                    .windows(2)
                    .map(|b| Leaves::cut(b[0]..b[1], keys[b[0]..].iter().copied()))
                    .collect();
                let built = OrderedIndex::from_parts(Arc::clone(&domain), parts);
                let at = format!("{n} keys, cuts {cuts:?}");
                assert_eq!(leaf_lens(&built, 0), leaf_lens(&whole, 0), "{at}");
                assert_eq!(nodes(&built, 0).len(), nodes(&whole, 0).len(), "{at}");
                assert_eq!(scan_all(&built, 0, 0), keys, "{at}");
                assert_eq!(built.dram_bytes(), whole.dram_bytes(), "{at}");
            }
        }
    }

    /// A part checks the first key past its last leaf too, so a part
    /// that ends on a leaf boundary still meets the next part's first key.
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn leaves_cut_checks_the_key_past_its_last_leaf() {
        let keys: Vec<u64> = (0..LEAF_CAP as u64).chain([LEAF_CAP as u64 - 1]).collect();
        let _ = Leaves::cut(0..LEAF_CAP, keys);
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

    /// Full leaves share keys with a roomy neighbour before they split, so
    /// random inserts leave leaves about four-fifths full, not the ~69 %
    /// that splits alone leave.
    #[test]
    fn random_inserts_rebalance_full_leaves() {
        let idx = index(1);
        let mut rng = TestRng::deterministic("random_inserts_rebalance_full_leaves");
        for _ in 0..100_000 {
            idx.insert(0, rng.next_u64());
        }
        let lens = leaf_lens(&idx, 0);
        let fill = idx.len() as f64 / (lens.len() * LEAF_CAP) as f64;
        assert!(fill > 0.75, "fill {fill:.3}");
    }

    /// A tree of three leaves Z, A, B in one inner node, built from
    /// `keys`, with a cursor parked at the end of Z (A not yet read) and
    /// one parked in A. `writer` moves a range boundary between A and B;
    /// neither cursor may then yield a key twice or out of order, and both
    /// must yield every key in `stays`, which the writer leaves alone.
    fn parked_cursors(
        keys: impl Iterator<Item = u64>,
        drop: impl Iterator<Item = u64>,
        writer: impl FnOnce(&OrderedIndex),
        stays: &[u64],
    ) {
        let idx = OrderedIndex::from_sorted(Arc::new(EpochDomain::new(2)), vec![keys.collect()]);
        for k in drop {
            assert!(idx.remove(0, k));
        }
        let pin = domain(&idx).pin(0);
        let mut in_z = idx.range_from(0, 0, &pin);
        let z: Vec<u64> = in_z.by_ref().take(LEAF_CAP).collect();
        let a_low = z[LEAF_CAP - 1] + 1;
        let mut in_a = idx.range_from(0, a_low, &pin);
        let first_a = in_a.next().unwrap();
        let before = leaf_lens(&idx, 0);
        writer(&idx);
        assert_ne!(
            leaf_lens(&idx, 0),
            before,
            "the writer must move a boundary"
        );
        for (name, first, rest) in [("Z", z[LEAF_CAP - 1], in_z), ("A", first_a, in_a)] {
            let mut got = vec![first];
            got.extend(rest);
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "cursor parked in {name}: {got:?}"
            );
            for k in stays.iter().filter(|&&k| k >= first) {
                assert!(got.contains(k), "cursor parked in {name} missed {k}");
            }
        }
    }

    /// Every path that moves a range boundary builds fresh leaves: a
    /// cursor that loaded the inner snapshot before the move reads the
    /// replaced leaves as they were, never a leaf the move rewrote.
    #[test]
    fn range_moves_build_fresh_leaves() {
        // (a) B's last key goes, so A inherits B's range; the key comes
        // back, into A's successor. A cursor that reads A after the move
        // must not find it there as well as in B.
        parked_cursors(
            0..3 * LEAF_CAP as u64,
            (96..128).chain(129..192),
            |idx| {
                assert!(idx.remove(0, 128));
                assert_eq!(leaf_lens(idx, 0), vec![64, 32]);
                assert!(idx.insert(0, 128));
            },
            &(64..96).collect::<Vec<u64>>(),
        );
        // (b) A is full and B has room: an insert into A rebalances the
        // two. A cursor that read A before the move must not find A's
        // upper keys again in B.
        let even = |k: u64| 2 * k;
        parked_cursors(
            (0..3 * LEAF_CAP as u64).map(even),
            (160..192).map(even),
            |idx| {
                assert!(idx.insert(0, 129));
                assert_eq!(leaf_lens(idx, 0), vec![64, 48, 49]);
            },
            &(64..160).map(even).collect::<Vec<u64>>(),
        );
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

    /// Seqlock stress: one writer shifts keys in place, between stable
    /// keys, while three readers seek at random starts and scan. The
    /// writer never fills a leaf, so nothing splits or publishes and every
    /// copy a reader takes can race a shift. A reader must see its stable
    /// keys exactly once, in strictly ascending order, and no phantom.
    #[test]
    fn in_place_shifts_vs_seeking_readers() {
        // Sixteen leaves of 128-key ranges, 32 stable keys (the multiples
        // of 4) in each.
        const END: u64 = 16 * 128;
        let built = (0..END).step_by(2).collect();
        let idx = OrderedIndex::from_sorted(Arc::new(EpochDomain::new(4)), vec![built]);
        for k in (2..END).step_by(4) {
            assert!(idx.remove(0, k));
        }
        let layout = Arc::clone(&nodes(&idx, 0)[0].twin.lock().inner);
        let running = AtomicUsize::new(1);
        std::thread::scope(|s| {
            for reader in 1..4usize {
                let (idx, running) = (&idx, &running);
                s.spawn(move || {
                    let mut rng = TestRng::deterministic(&format!("seeking reader {reader}"));
                    let mut scans = 0u32;
                    while running.load(Ordering::Relaxed) > 0 || scans < 200 {
                        scans += 1;
                        let start = rng.next_u64() % END;
                        let pin = domain(idx).pin(reader);
                        let mut want = start.next_multiple_of(4);
                        let mut prev = None;
                        for k in idx.range_from(0, start, &pin) {
                            assert!((start..END).contains(&k), "phantom key {k}");
                            assert!(prev < Some(k), "not ascending: {prev:?} then {k}");
                            prev = Some(k);
                            if k.is_multiple_of(4) {
                                assert_eq!(k, want, "missed stable key");
                                want += 4;
                            }
                        }
                        assert_eq!(want, END, "scan from {start} ended early");
                    }
                });
            }
            let running = &running;
            s.spawn(|| {
                let _done = Done(running);
                let mut rng = TestRng::deterministic("in-place writer");
                for _round in 0..100 {
                    for class in [1, 2, 3] {
                        // 31 churn keys per leaf: 63 keys at most, in place.
                        let mut churn: Vec<u64> =
                            (class..END).step_by(4).filter(|k| k % 128 >= 4).collect();
                        for i in (1..churn.len()).rev() {
                            churn.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                        }
                        for &k in &churn {
                            assert!(idx.insert(0, k));
                        }
                        for &k in churn.iter().rev() {
                            assert!(idx.remove(0, k));
                        }
                    }
                }
            });
        });
        let now = Arc::clone(&nodes(&idx, 0)[0].twin.lock().inner);
        assert!(Arc::ptr_eq(&layout, &now), "a shift must not publish");
        assert_eq!(
            scan_all(&idx, 0, 0),
            (0..END).step_by(4).collect::<Vec<u64>>()
        );
    }
}
