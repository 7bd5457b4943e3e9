//! Sharded, epoch-safe ordered DRAM index over live user keys.
//!
//! ChameleonDB's persistent structures are hash-keyed — nothing on media
//! knows key *order* — so range scans need a volatile ordered index
//! maintained beside the hash index and rebuilt on recovery. This crate
//! provides that index: one skiplist per store shard, mutated only by the
//! shard's (externally serialized) write path and traversed lock-free by
//! readers holding an [`EpochDomain`] pin, the same reclamation domain
//! the store already uses for its published views.
//!
//! ## Concurrency contract
//!
//! * **Writers** ([`OrderedIndex::insert`] / [`OrderedIndex::remove`])
//!   serialize per shard on an internal mutex. The store calls them while
//!   already holding its shard mutex, so the inner lock is uncontended —
//!   it exists so a misuse cannot corrupt the list.
//! * **Readers** ([`OrderedIndex::range_from`]) never lock. They traverse
//!   `next` pointers with `Acquire` loads under a pin from the index's
//!   domain. A removed node is unlinked from live predecessors but keeps
//!   its own forward pointers, so an in-flight reader standing on it
//!   walks off safely; the node's memory is only freed once every pin
//!   from before its retirement has dropped (`begin_sync`/`try_sync`).
//!
//! Because a node's forward pointers always reference strictly greater
//! keys and are never rewritten after the node is published, any single
//! traversal yields a **strictly ascending** key sequence even while
//! racing mutations — the store's per-key newest-version probe then
//! filters out anything that died mid-scan.
//!
//! Tower heights are derived deterministically from the key
//! (`mix64`, p = 1/4 per extra level), so a rebuilt index after recovery
//! has byte-identical shape to the one that was lost.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use kvapi::mix64;
use kvsync::{EpochDomain, Pin};
use parking_lot::Mutex;

/// Maximum skiplist tower height. With p = 1/4 this comfortably covers
/// billions of keys (expected height log4 n).
const MAX_HEIGHT: usize = 16;

/// Salt decorrelating tower heights from the store's bucket hashing,
/// which also feeds keys through `mix64`.
const HEIGHT_SALT: u64 = 0x9E6C_63D1_B0A5_F19B;

/// Deterministic tower height for `key`: 1 + (geometric, p = 1/4).
fn tower_height(key: u64) -> usize {
    let h = 1 + (mix64(key ^ HEIGHT_SALT).trailing_zeros() / 2) as usize;
    h.min(MAX_HEIGHT)
}

/// A skiplist node. Fixed-size towers keep allocation simple; at 16
/// levels a node is ~144 bytes, and the index only holds live user keys.
struct Node {
    key: u64,
    height: usize,
    next: [AtomicPtr<Node>; MAX_HEIGHT],
}

impl Node {
    fn boxed(key: u64, height: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            key,
            height,
            next: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }))
    }
}

/// One shard's skiplist: a sentinel head plus a writer-side garbage list
/// of removed nodes awaiting epoch quiescence.
struct Shard {
    /// Sentinel; its `key` is never compared.
    head: *mut Node,
    /// Serializes mutations (see module docs). Uncontended in the store,
    /// which already holds its own shard mutex around calls.
    writer: Mutex<()>,
    /// Removed nodes tagged with their retire epoch, freed once the
    /// domain has quiesced past it — the `ViewCell` retired-list pattern.
    garbage: Mutex<Vec<(u64, *mut Node)>>,
    /// Live key count (excludes garbage).
    len: AtomicU64,
}

// SAFETY: nodes are only mutated under `writer`, only freed under the
// epoch protocol, and only ever hold `u64` payloads.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    fn new() -> Self {
        Self {
            head: Node::boxed(0, MAX_HEIGHT),
            writer: Mutex::new(()),
            garbage: Mutex::new(Vec::new()),
            len: AtomicU64::new(0),
        }
    }

    /// Finds, per level, the last node with key `< key` (the head counts
    /// as `-inf`). Returns the predecessor array and the level-0
    /// candidate (first node with key `>= key`, possibly null).
    ///
    /// Called by writers under `self.writer`; all loads are `Acquire` so
    /// the same walk is safe for pinned readers too.
    fn find_preds(&self, key: u64) -> ([*mut Node; MAX_HEIGHT], *mut Node) {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut cur = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                // SAFETY: `cur` is the head or a node reached through
                // published pointers; writers are serialized and readers
                // keep removed nodes alive via the epoch domain.
                let nxt = unsafe { (*cur).next[level].load(Ordering::Acquire) };
                if !nxt.is_null() && unsafe { (*nxt).key } < key {
                    cur = nxt;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        let candidate = unsafe { (*preds[0]).next[0].load(Ordering::Acquire) };
        (preds, candidate)
    }

    /// Inserts `key`; returns `false` if it was already present.
    fn insert(&self, key: u64, domain: &EpochDomain) -> bool {
        let _g = self.writer.lock();
        let (preds, candidate) = self.find_preds(key);
        if !candidate.is_null() && unsafe { (*candidate).key } == key {
            return false;
        }
        let height = tower_height(key);
        let node = Node::boxed(key, height);
        for (level, pred) in preds.iter().enumerate().take(height) {
            // SAFETY: node is private until the publishing store below.
            let succ = unsafe { (**pred).next[level].load(Ordering::Acquire) };
            unsafe { (*node).next[level].store(succ, Ordering::Relaxed) };
        }
        // Publish bottom-up: a reader that sees the node at any level
        // sees its fully-initialized fields via the Release store.
        for (level, pred) in preds.iter().enumerate().take(height) {
            unsafe { (**pred).next[level].store(node, Ordering::Release) };
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        self.collect_garbage(domain);
        true
    }

    /// Removes `key`; returns `false` if it was absent. The node is
    /// retired, not freed: readers pinned before the removal may still
    /// be standing on it.
    fn remove(&self, key: u64, domain: &EpochDomain) -> bool {
        let _g = self.writer.lock();
        let (preds, candidate) = self.find_preds(key);
        if candidate.is_null() || unsafe { (*candidate).key } != key {
            return false;
        }
        let height = unsafe { (*candidate).height };
        // Unlink top-down so a concurrent reader descending the towers
        // cannot step onto the victim at a high level after it vanished
        // from a lower one. The victim's own forward pointers are left
        // intact for readers already standing on it.
        for level in (0..height).rev() {
            // SAFETY: single writer — preds are exactly the nodes linking
            // to the victim at each of its levels.
            let succ = unsafe { (*candidate).next[level].load(Ordering::Acquire) };
            unsafe { (*preds[level]).next[level].store(succ, Ordering::Release) };
        }
        self.len.fetch_sub(1, Ordering::Relaxed);
        let retire_epoch = domain.begin_sync();
        self.garbage.lock().push((retire_epoch, candidate));
        self.collect_garbage(domain);
        true
    }

    /// Frees retired nodes whose grace period has expired.
    fn collect_garbage(&self, domain: &EpochDomain) {
        let mut garbage = self.garbage.lock();
        garbage.retain(|&(epoch, node)| {
            if domain.try_sync(epoch) {
                // SAFETY: no pin from before the retirement remains, so
                // no reader can still reach or stand on this node.
                drop(unsafe { Box::from_raw(node) });
                false
            } else {
                true
            }
        });
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Exclusive access: free the live chain, the garbage, the head.
        unsafe {
            let mut cur = (*self.head).next[0].load(Ordering::Relaxed);
            while !cur.is_null() {
                let nxt = (*cur).next[0].load(Ordering::Relaxed);
                drop(Box::from_raw(cur));
                cur = nxt;
            }
            for (_, node) in self.garbage.get_mut().drain(..) {
                drop(Box::from_raw(node));
            }
            drop(Box::from_raw(self.head));
        }
    }
}

/// A sharded ordered index over `u64` user keys (see module docs).
///
/// Sharding mirrors the store's own key→shard mapping so each shard's
/// write path maintains exactly its own slice of the key space; a scan
/// merges the per-shard ascending cursors.
pub struct OrderedIndex {
    domain: Arc<EpochDomain>,
    shards: Vec<Shard>,
}

impl OrderedIndex {
    /// Creates an empty index with `shards` shards whose readers pin
    /// `domain` — normally the same domain guarding the store's views,
    /// so one pin covers both the scan cursor and the version probes.
    pub fn new(shards: usize, domain: Arc<EpochDomain>) -> Self {
        Self {
            domain,
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
        }
    }

    /// The reclamation domain scans must pin.
    pub fn domain(&self) -> &Arc<EpochDomain> {
        &self.domain
    }

    /// Inserts `key` into `shard`; returns `false` if already present.
    pub fn insert(&self, shard: usize, key: u64) -> bool {
        self.shards[shard].insert(key, &self.domain)
    }

    /// Removes `key` from `shard`; returns `false` if absent.
    pub fn remove(&self, shard: usize, key: u64) -> bool {
        self.shards[shard].remove(key, &self.domain)
    }

    /// Whether `key` is currently present in `shard`.
    pub fn contains(&self, shard: usize, key: u64, pin: &Pin<'_>) -> bool {
        self.range_from(shard, key, pin).next() == Some(key)
    }

    /// Ascending cursor over `shard`'s keys `>= start`, valid while
    /// `pin` is held.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is from a different [`EpochDomain`].
    pub fn range_from<'p>(&'p self, shard: usize, start: u64, pin: &'p Pin<'_>) -> RangeIter<'p> {
        assert!(
            ptr::eq(pin.domain(), &*self.domain),
            "pin is from a different EpochDomain"
        );
        let sh = &self.shards[shard];
        let mut cur = sh.head as *const Node;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                // SAFETY: reachable nodes stay allocated while the pin
                // (taken before this walk) is held — see module docs.
                let nxt = unsafe { (*cur).next[level].load(Ordering::Acquire) };
                if !nxt.is_null() && unsafe { (*nxt).key } < start {
                    cur = nxt;
                } else {
                    break;
                }
            }
        }
        let first = unsafe { (*cur).next[0].load(Ordering::Acquire) };
        RangeIter {
            cur: first,
            _pin: std::marker::PhantomData,
        }
    }

    /// Live keys across all shards.
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate DRAM held by nodes (live + not-yet-reclaimed).
    pub fn dram_bytes(&self) -> u64 {
        let nodes: u64 = self.len() + self.garbage_len() as u64;
        let per = std::mem::size_of::<Node>() as u64;
        nodes * per + self.shards.len() as u64 * per
    }

    /// Retired-but-unreclaimed nodes across shards (diagnostics/tests).
    pub fn garbage_len(&self) -> usize {
        self.shards.iter().map(|s| s.garbage.lock().len()).sum()
    }

    /// Frees whatever retired nodes have quiesced; mutation already does
    /// this, exposed for idle-time reclamation and tests.
    pub fn collect(&self) {
        for sh in &self.shards {
            sh.collect_garbage(&self.domain);
        }
    }
}

impl std::fmt::Debug for OrderedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedIndex")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("garbage", &self.garbage_len())
            .finish()
    }
}

/// Ascending key cursor returned by [`OrderedIndex::range_from`].
pub struct RangeIter<'p> {
    cur: *const Node,
    _pin: std::marker::PhantomData<&'p ()>,
}

impl Iterator for RangeIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: the node is kept alive by the pin this iterator
        // borrows; forward pointers of published nodes never change
        // except to splice in strictly greater keys.
        let key = unsafe { (*self.cur).key };
        self.cur = unsafe { (*self.cur).next[0].load(Ordering::Acquire) };
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(shards: usize) -> OrderedIndex {
        OrderedIndex::new(shards, Arc::new(EpochDomain::new(8)))
    }

    fn scan_all(idx: &OrderedIndex, shard: usize, start: u64) -> Vec<u64> {
        let pin = idx.domain().pin(0);
        idx.range_from(shard, start, &pin).collect()
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
    fn tower_heights_are_deterministic_and_geometric() {
        let mut counts = [0usize; MAX_HEIGHT + 1];
        for k in 0..100_000u64 {
            assert_eq!(tower_height(k), tower_height(k));
            counts[tower_height(k)] += 1;
        }
        // ~3/4 of keys at height 1, ~3/16 at height 2.
        assert!(counts[1] > 70_000, "height-1 fraction: {}", counts[1]);
        assert!(counts[2] > 12_000 && counts[2] < 25_000);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let idx = index(1);
        for k in 0..10 {
            idx.insert(0, k);
        }
        let pin = idx.domain().pin(0);
        let mut iter = idx.range_from(0, 0, &pin);
        assert_eq!(iter.next(), Some(0));
        for k in 0..10 {
            idx.remove(0, k);
        }
        assert!(idx.garbage_len() > 0, "pre-pin removals must be retired");
        // The in-flight iterator still walks the retired chain safely.
        let rest: Vec<u64> = iter.collect();
        assert_eq!(rest, (1..10).collect::<Vec<u64>>());
        drop(pin);
        idx.collect();
        assert_eq!(idx.garbage_len(), 0, "unpinned garbage must free");
    }

    #[test]
    fn dram_bytes_tracks_population() {
        let idx = index(2);
        let empty = idx.dram_bytes();
        for k in 0..1000 {
            idx.insert((k % 2) as usize, k);
        }
        assert!(idx.dram_bytes() >= empty + 1000 * 64);
    }

    #[test]
    #[should_panic(expected = "different EpochDomain")]
    fn cross_domain_pin_is_rejected() {
        let idx = index(1);
        let other = EpochDomain::new(2);
        let pin = other.pin(0);
        let _ = idx.range_from(0, 0, &pin);
    }

    /// Readers continuously range-scan while a writer churns half the
    /// key space; every observed sequence must be strictly ascending,
    /// contain every stable key in its window, and contain nothing that
    /// was never inserted.
    #[test]
    fn concurrent_scan_stress() {
        use std::sync::atomic::AtomicBool;

        let idx = Arc::new(index(1));
        // Stable keys: even numbers, inserted up front, never removed.
        for k in (0..2000u64).step_by(2) {
            idx.insert(0, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for reader in 0..3usize {
                let idx = Arc::clone(&idx);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut rounds = 0u32;
                    while !stop.load(Ordering::Relaxed) || rounds < 50 {
                        rounds += 1;
                        let pin = idx.domain().pin(reader);
                        let keys: Vec<u64> = idx.range_from(0, 0, &pin).take(500).collect();
                        let mut prev = None;
                        let mut evens = 0u64;
                        for &k in &keys {
                            assert!(k < 2001, "phantom key {k}");
                            if let Some(p) = prev {
                                assert!(k > p, "not ascending: {p} then {k}");
                            }
                            prev = Some(k);
                            if k % 2 == 0 {
                                // Stable keys must be contiguous: this
                                // even key is the next expected one.
                                assert_eq!(k, evens * 2, "missed stable key");
                                evens += 1;
                            }
                        }
                        if rounds >= 50 && stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                });
            }
            let idx2 = Arc::clone(&idx);
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                // Churn odd keys in and out.
                for round in 0..200u64 {
                    for k in (1..2000u64).step_by(2) {
                        if round % 2 == 0 {
                            idx2.insert(0, k);
                        } else {
                            idx2.remove(0, k);
                        }
                    }
                }
                stop2.store(true, Ordering::Relaxed);
            });
        });
        idx.collect();
        // All readers gone: everything retired must eventually free.
        idx.domain().synchronize();
        idx.collect();
        assert_eq!(idx.garbage_len(), 0);
    }
}
