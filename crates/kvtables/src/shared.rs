//! The mutable in-DRAM linear-probing table of [`Slot`]s: one writer,
//! lock-free concurrent readers.
//!
//! ChameleonDB uses it twice (§2.2, §2.5): as the per-shard MemTable that
//! aggregates recent puts, and as the per-shard Auxiliary Bypass Index
//! over all upper-level items. The Pmem-LSM baselines use it for their
//! MemTables and PinK's DRAM mirrors, so every store pays the same
//! modelled cost for the same probe. Capacity is fixed at creation: the
//! paper deliberately avoids extendable hashing here, because rehashing
//! is what it keeps off the put path.
//!
//! ChameleonDB's read-path split (write-side mutex + epoch-published read
//! views) needs the MemTable and ABI to be probe-able by readers *while*
//! the writer inserts, so every slot is a pair of atomics and readers
//! never take a lock.
//!
//! ## Protocol
//!
//! Writers are assumed externally serialized (ChameleonDB's per-shard
//! mutex); only the reader side is concurrent. The invariants that make
//! unsynchronized probing sound:
//!
//! * A slot's hash word is written **once**, while its location word is
//!   still zero, and the slot is never re-keyed afterwards.
//! * A slot's location word is zero until the slot is claimed and never
//!   returns to zero (there is deliberately **no `clear()`** — callers
//!   swap in a fresh table and republish instead, so concurrent readers
//!   of the old table keep a fully intact structure).
//! * Insert claim order: store hash (Relaxed), then store loc (Release).
//!   Readers load loc (Acquire) first; zero terminates the probe, and a
//!   nonzero loc makes the earlier hash store visible.
//!
//! A reader racing a concurrent insert may miss the brand-new entry (the
//! get linearizes before the insert) but can never observe a torn slot,
//! a phantom key, or a broken probe chain.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use kvapi::{KvError, Result};
use pmem_sim::ThreadCtx;

use crate::slot::Slot;

#[derive(Debug, Default)]
struct AtomicSlot {
    hash: AtomicU64,
    loc: AtomicU64,
}

/// A fixed-capacity linear-probing table with a single (externally
/// serialized) writer and lock-free readers.
///
/// Updates to an existing hash overwrite in place (latest wins). Deletes
/// are recorded as tombstone slots, not removals, so flushed tables shadow
/// older levels correctly. Inserts take `&self`, and there is no `clear()`
/// (see the module doc's protocol).
#[derive(Debug)]
pub struct SharedTable {
    slots: Box<[AtomicSlot]>,
    mask: u64,
    len: AtomicUsize,
    /// Highest log sequence number inserted (for recovery checkpoints).
    max_seq: AtomicU64,
    /// Whether the table is small enough to live in the CPU cache (KB-scale
    /// MemTables): probes then cost an L1/L2 hit, not a DRAM miss.
    resident: bool,
}

impl SharedTable {
    /// Creates a table with capacity for `num_slots` entries, rounded up
    /// to a power of two (min 8). Probes are charged as DRAM misses.
    pub fn new(num_slots: usize) -> Self {
        let n = num_slots.next_power_of_two().max(8);
        Self {
            slots: (0..n).map(|_| AtomicSlot::default()).collect(),
            mask: (n - 1) as u64,
            len: AtomicUsize::new(0),
            max_seq: AtomicU64::new(0),
            resident: false,
        }
    }

    /// Creates a cache-resident table: probes charge an L1/L2 hit
    /// instead of a DRAM miss.
    pub fn new_resident(num_slots: usize) -> Self {
        Self {
            resident: true,
            ..Self::new(num_slots)
        }
    }

    #[inline]
    fn first_probe_ns(&self, ctx: &ThreadCtx) -> u64 {
        if self.resident {
            ctx.cost.dram_l2_ns
        } else {
            ctx.cost.dram_random_ns
        }
    }

    /// Number of occupied slots (live + tombstone entries).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current load factor in `[0, 1]`.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.slots.len() as f64
    }

    /// Whether the load factor has reached `threshold` (the flush trigger).
    pub fn is_full(&self, threshold: f64) -> bool {
        self.load_factor() >= threshold
    }

    /// DRAM bytes occupied by the slot array.
    pub fn dram_bytes(&self) -> u64 {
        (self.slots.len() * crate::slot::SLOT_BYTES) as u64
    }

    /// Highest log sequence number ever inserted.
    pub fn max_seq(&self) -> u64 {
        self.max_seq.load(Ordering::Relaxed)
    }

    /// Records the log sequence number of an inserted entry.
    pub fn note_seq(&self, seq: u64) {
        self.max_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Inserts or overwrites the slot for `slot.hash` (writer side; must
    /// be externally serialized against other writers).
    ///
    /// Returns the previous location word if the hash was present.
    pub fn insert(&self, ctx: &mut ThreadCtx, slot: Slot) -> Result<Option<u64>> {
        debug_assert!(!slot.is_empty());
        self.insert_charged(ctx, slot, self.first_probe_ns(ctx))
    }

    /// Bulk insert used by flush/merge paths: first probe charges an
    /// L1/L2 hit (the table is streamed through the cache).
    pub fn insert_bulk(&self, ctx: &mut ThreadCtx, slot: Slot) -> Result<Option<u64>> {
        self.insert_charged(ctx, slot, ctx.cost.dram_l2_ns)
    }

    fn insert_charged(
        &self,
        ctx: &mut ThreadCtx,
        slot: Slot,
        first_probe_ns: u64,
    ) -> Result<Option<u64>> {
        debug_assert!(!slot.is_empty());
        let mut idx = (slot.hash & self.mask) as usize;
        ctx.charge(first_probe_ns);
        for probe in 0..self.slots.len() {
            if probe > 0 {
                ctx.charge(ctx.cost.key_cmp_ns + ctx.cost.dram_seq_line_ns);
            }
            let cur = &self.slots[idx];
            let cur_loc = cur.loc.load(Ordering::Relaxed);
            if cur_loc == 0 {
                // Claim: hash first (Relaxed), then loc (Release) — a
                // reader that sees the loc sees the hash.
                cur.hash.store(slot.hash, Ordering::Relaxed);
                cur.loc.store(slot.loc, Ordering::Release);
                self.len.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            if cur.hash.load(Ordering::Relaxed) == slot.hash {
                cur.loc.store(slot.loc, Ordering::Release);
                return Ok(Some(cur_loc));
            }
            idx = (idx + 1) & self.mask as usize;
        }
        Err(KvError::Full("shared dram table"))
    }

    /// Inserts `slot` only if its hash is absent; returns whether it was
    /// inserted. Used when rebuilding an index newest-entry-first (the
    /// ABI rebuild after restart).
    pub fn insert_if_absent(&self, ctx: &mut ThreadCtx, slot: Slot) -> Result<bool> {
        debug_assert!(!slot.is_empty());
        let mut idx = (slot.hash & self.mask) as usize;
        ctx.charge(ctx.cost.dram_l2_ns);
        for probe in 0..self.slots.len() {
            if probe > 0 {
                ctx.charge(ctx.cost.key_cmp_ns + ctx.cost.dram_seq_line_ns);
            }
            let cur = &self.slots[idx];
            if cur.loc.load(Ordering::Relaxed) == 0 {
                cur.hash.store(slot.hash, Ordering::Relaxed);
                cur.loc.store(slot.loc, Ordering::Release);
                self.len.fetch_add(1, Ordering::Relaxed);
                return Ok(true);
            }
            if cur.hash.load(Ordering::Relaxed) == slot.hash {
                return Ok(false);
            }
            idx = (idx + 1) & self.mask as usize;
        }
        Err(KvError::Full("shared dram table"))
    }

    /// Looks up `hash`, returning the slot if present (tombstones
    /// included). Lock-free; safe concurrently with the writer.
    pub fn get(&self, ctx: &mut ThreadCtx, hash: u64) -> Option<Slot> {
        let mut idx = (hash & self.mask) as usize;
        ctx.charge(self.first_probe_ns(ctx));
        for probe in 0..self.slots.len() {
            if probe > 0 {
                ctx.charge(ctx.cost.key_cmp_ns + ctx.cost.dram_seq_line_ns);
            }
            let cur = &self.slots[idx];
            let loc = cur.loc.load(Ordering::Acquire);
            if loc == 0 {
                return None;
            }
            if cur.hash.load(Ordering::Relaxed) == hash {
                // Re-read loc so an overwrite racing us can only make the
                // result fresher, never stale relative to the first load.
                return Some(Slot {
                    hash,
                    loc: cur.loc.load(Ordering::Acquire),
                });
            }
            idx = (idx + 1) & self.mask as usize;
        }
        None
    }

    /// Repoints the slot for `hash` from `old_loc` to `new_loc`,
    /// preserving the tombstone bit carried in the stored word. Writer
    /// side (externally serialized); readers racing this see either the
    /// old or the new word, both of which GC guarantees are readable.
    ///
    /// Returns `false` (and changes nothing) if the hash is absent or its
    /// stored word no longer matches `old_loc` — a newer overwrite has
    /// already superseded the entry GC is relocating.
    pub fn repoint(&self, ctx: &mut ThreadCtx, hash: u64, old_loc: u64, new_loc: u64) -> bool {
        let mut idx = (hash & self.mask) as usize;
        ctx.charge(self.first_probe_ns(ctx));
        for probe in 0..self.slots.len() {
            if probe > 0 {
                ctx.charge(ctx.cost.key_cmp_ns + ctx.cost.dram_seq_line_ns);
            }
            let cur = &self.slots[idx];
            let loc = cur.loc.load(Ordering::Acquire);
            if loc == 0 {
                return false;
            }
            if cur.hash.load(Ordering::Relaxed) == hash {
                let tomb = loc & crate::slot::TOMBSTONE_BIT;
                if loc & !crate::slot::TOMBSTONE_BIT != old_loc & !crate::slot::TOMBSTONE_BIT {
                    return false;
                }
                cur.loc.store(
                    (new_loc & !crate::slot::TOMBSTONE_BIT) | tomb,
                    Ordering::Release,
                );
                return true;
            }
            idx = (idx + 1) & self.mask as usize;
        }
        false
    }

    /// Snapshot of every occupied slot in probe order. Writer-side use
    /// (flush/merge under the shard lock); safe against readers. An
    /// empty table returns at once: `len` counts every claim the caller
    /// can see, since it holds the lock that serializes the inserts.
    pub fn iter(&self) -> Vec<Slot> {
        if self.is_empty() {
            return Vec::new();
        }
        self.slots
            .iter()
            .filter_map(|s| {
                let loc = s.loc.load(Ordering::Acquire);
                (loc != 0).then(|| Slot {
                    hash: s.hash.load(Ordering::Relaxed),
                    loc,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvapi::hash64;
    use std::sync::atomic::AtomicBool;

    fn ctx() -> ThreadCtx {
        ThreadCtx::with_default_cost()
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = SharedTable::new(64);
        let mut c = ctx();
        for k in 1..=40u64 {
            t.insert(&mut c, Slot::new(hash64(k), k * 100)).unwrap();
        }
        assert_eq!(t.len(), 40);
        for k in 1..=40u64 {
            let s = t.get(&mut c, hash64(k)).expect("present");
            assert_eq!(s.loc, k * 100);
        }
        assert!(t.get(&mut c, hash64(999)).is_none());
    }

    #[test]
    fn overwrite_returns_old_location() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        let h = hash64(1);
        assert_eq!(t.insert(&mut c, Slot::new(h, 10)).unwrap(), None);
        assert_eq!(t.insert(&mut c, Slot::new(h, 20)).unwrap(), Some(10));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&mut c, h).unwrap().loc, 20);
    }

    #[test]
    fn tombstone_is_returned_by_get() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        let h = hash64(5);
        t.insert(&mut c, Slot::new(h, 77)).unwrap();
        t.insert(&mut c, Slot::tombstone(h, 88)).unwrap();
        let s = t.get(&mut c, h).unwrap();
        assert!(s.is_tombstone());
        assert_eq!(s.location(), 88);
    }

    #[test]
    fn insert_if_absent_keeps_first_writer() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        let h = hash64(3);
        assert!(t.insert_if_absent(&mut c, Slot::new(h, 10)).unwrap());
        assert!(!t.insert_if_absent(&mut c, Slot::new(h, 20)).unwrap());
        assert_eq!(t.get(&mut c, h).unwrap().loc, 10);
    }

    #[test]
    fn full_table_errors_instead_of_spinning() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        for k in 0..8u64 {
            t.insert(&mut c, Slot::new(hash64(k), k + 1)).unwrap();
        }
        assert!(matches!(
            t.insert(&mut c, Slot::new(hash64(100), 1)),
            Err(KvError::Full(_))
        ));
    }

    #[test]
    fn iter_yields_every_live_slot() {
        let t = SharedTable::new(64);
        let mut c = ctx();
        for k in 0..20u64 {
            t.insert(&mut c, Slot::new(hash64(k), k + 1)).unwrap();
        }
        let mut locs: Vec<u64> = t.iter().iter().map(|s| s.loc).collect();
        locs.sort_unstable();
        assert_eq!(locs, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn load_factor_threshold() {
        let t = SharedTable::new(16);
        let mut c = ctx();
        for k in 0..12u64 {
            t.insert(&mut c, Slot::new(hash64(k), k + 1)).unwrap();
        }
        assert!(t.is_full(0.75));
        assert!(!t.is_full(0.8));
    }

    #[test]
    fn note_seq_is_monotonic_max() {
        let t = SharedTable::new(8);
        t.note_seq(10);
        t.note_seq(4);
        assert_eq!(t.max_seq(), 10);
    }

    #[test]
    fn repoint_preserves_tombstone_and_checks_old_loc() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        let h = hash64(1);
        t.insert(&mut c, Slot::new(h, 10)).unwrap();
        // Stale expectation: the slot moved on, repoint must refuse.
        assert!(!t.repoint(&mut c, h, 99, 500));
        assert_eq!(t.get(&mut c, h).unwrap().loc, 10);
        assert!(t.repoint(&mut c, h, 10, 500));
        assert_eq!(t.get(&mut c, h).unwrap().loc, 500);
        // Tombstones keep their marker bit across relocation.
        let h2 = hash64(2);
        t.insert(&mut c, Slot::tombstone(h2, 30)).unwrap();
        assert!(t.repoint(&mut c, h2, 30, 600));
        let s = t.get(&mut c, h2).unwrap();
        assert!(s.is_tombstone());
        assert_eq!(s.location(), 600);
        // Absent hash: no-op.
        assert!(!t.repoint(&mut c, hash64(42), 1, 2));
    }

    #[test]
    fn probing_charges_time() {
        let t = SharedTable::new(8);
        let mut c = ctx();
        let before = c.clock.now();
        t.insert(&mut c, Slot::new(hash64(1), 1)).unwrap();
        assert!(c.clock.now() > before);
    }

    /// One writer inserting fresh keys while readers probe: a reader must
    /// never see a torn slot (loc from one key, hash from another) and
    /// must always find keys inserted before it started.
    #[test]
    fn concurrent_reader_smoke() {
        let t = SharedTable::new(4096);
        let stop = AtomicBool::new(false);
        let mut c = ctx();
        // Pre-populate half so readers have guaranteed hits.
        for k in 0..1000u64 {
            // loc encodes the key so readers can check consistency.
            t.insert(&mut c, Slot::new(hash64(k), k + 1)).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                let stop = &stop;
                s.spawn(move || {
                    let mut c = ctx();
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..1000u64 {
                            let slot = t.get(&mut c, hash64(k)).expect("pre-inserted key");
                            assert_eq!(slot.loc, k + 1, "torn or mismatched slot");
                        }
                        // New keys may or may not be visible yet, but a hit
                        // must be self-consistent.
                        for k in 1000..2000u64 {
                            if let Some(slot) = t.get(&mut c, hash64(k)) {
                                assert_eq!(slot.loc, k + 1);
                            }
                        }
                        rounds += 1;
                        if rounds > 500 {
                            break;
                        }
                    }
                });
            }
            let t = &t;
            let stop = &stop;
            s.spawn(move || {
                let mut c = ctx();
                for k in 1000..2000u64 {
                    t.insert(&mut c, Slot::new(hash64(k), k + 1)).unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        // After the writer finishes, everything is visible.
        for k in 0..2000u64 {
            assert_eq!(t.get(&mut c, hash64(k)).unwrap().loc, k + 1);
        }
    }
}
