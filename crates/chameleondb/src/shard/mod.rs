//! The write side of a shard: MemTable + ABI + multi-level table
//! structure (§2.1–§2.2), behind two per-shard locks. The level
//! transitions — flush, WIM merge, ABI dump and both compactions — are
//! in `compaction.rs`.
//!
//! A [`Shard`] splits its state in two. [`MemState`] (the `mem` lock)
//! is what a put touches: the live MemTable, the frozen queue and the
//! in-flight table. [`ShardMut`] (the `levels` lock) is what a
//! maintenance pass touches: the ABI and the Pmem tables. A put takes
//! only `mem`; a pass holds `levels` throughout and takes `mem` only to
//! pop its frozen table and to publish. Whoever needs both takes
//! `levels` first.
//!
//! Reads never come here. Every structural transition republishes an
//! immutable [`ShardView`] (see `view.rs`) through the shard's
//! `ViewCell`, always under `mem`; `ChameleonDb::get` probes that
//! snapshot lock-free. Two rules keep concurrent readers sound:
//!
//! * **In-place mutation of a shared table is additive only** (inserts /
//!   overwrites into the live MemTable or ABI). Anything that would
//!   clear or remove — memtable freeze, ABI dump, last-level
//!   compaction — swaps in a *fresh* table and republishes; readers on
//!   the old view keep a fully intact structure.
//! * **Pmem tables are never freed while a view can hold them.** A
//!   compaction dooms its inputs ([`TableHandle::doom`]) and drops its
//!   `Arc`s; the region is deallocated when the last holder (writer
//!   lists or an epoch-retired view) drops.

mod compaction;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use chameleon_obs::{EventKind, Stage};
use kvapi::{mix64, PreHashed, Result};
use kvtables::{SharedTable, Slot};
use parking_lot::{Mutex, MutexGuard};
use pmem_sim::{PmemDevice, ThreadCtx};

use crate::config::ChameleonConfig;
use crate::metrics::StoreMetrics;
use crate::store::StoreInner;
use crate::view::{ShardView, TableHandle};

/// One shard: the put half behind `mem`, the level half behind
/// `levels`. Lock order: `levels` before `mem`; `replayed` is taken
/// under either, and nothing is taken under it.
pub(crate) struct Shard {
    pub mem: Mutex<MemState>,
    pub levels: Mutex<ShardMut>,
    pub replayed: Mutex<ReplayCopies>,
}

/// The entries recovery replay re-inserted, by location word. A table
/// may hold the same word above its claim (DESIGN §6.3), so a replayed
/// entry can have two index slots, and only the drop of its last slot
/// may credit it.
#[derive(Default)]
pub(crate) struct ReplayCopies {
    /// Keyed by `mix64(word)`: a bijection, so exact, and a hash
    /// `PreHashed` can use as is (the restart walk probes every slot).
    words: HashMap<u64, Copies, PreHashed>,
    /// The lowest and highest log offset of a replayed word: most slots
    /// the restart walk counts point outside it and skip the probe.
    span: (u64, u64),
    replaying: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Copies {
    /// Slots not counted yet, or never: a store without an ordered index
    /// has no restart walk.
    Uncounted,
    /// Met once by the restart walk so far.
    One,
    /// Met twice by the restart walk.
    Two,
    /// Uncounted, and one drop credited the entry already.
    Credited,
}

impl ReplayCopies {
    /// Replay is about to re-insert `words`.
    pub fn start(&mut self, words: impl IntoIterator<Item = u64>) {
        self.replaying = true;
        self.span = (u64::MAX, 0);
        for w in words {
            let off = kvlog::unpack_loc(w).0;
            self.span = (self.span.0.min(off), self.span.1.max(off));
            self.words.insert(mix64(w), Copies::Uncounted);
        }
    }

    pub fn end_replay(&mut self) {
        self.replaying = false;
    }

    /// Whether dropping one slot that holds `word` must not credit its
    /// entry, because another slot still holds it or already credited it.
    pub fn skip_credit(&mut self, word: u64) -> bool {
        let Some(copies) = self.words.get_mut(&mix64(word)) else {
            return false;
        };
        match *copies {
            // During replay only a table's copy of a tombstone is dropped
            // (pruned), and the replayed copy outlives it.
            Copies::Uncounted if self.replaying => true,
            // Uncounted: the first drop credits, a second one must not.
            Copies::Uncounted => {
                *copies = Copies::Credited;
                false
            }
            Copies::Two | Copies::Credited => {
                self.words.remove(&mix64(word));
                true
            }
            Copies::One => unreachable!("the restart walk has ended"),
        }
    }

    /// Counts the slots the restart walk hands over, one call per slot;
    /// [`Self::end_count`] then forgets every entry met once.
    pub fn count(&mut self, word: u64) {
        let off = kvlog::unpack_loc(word).0;
        if off < self.span.0 || off > self.span.1 {
            return;
        }
        if let Some(copies) = self.words.get_mut(&mix64(word)) {
            *copies = match *copies {
                Copies::Uncounted => Copies::One,
                _ => Copies::Two,
            };
        }
    }

    pub fn end_count(&mut self) {
        self.words.retain(|_, c| *c == Copies::Two);
    }

    /// GC moved an entry: every slot of it now holds `new`.
    pub fn repoint(&mut self, old: u64, new: u64) {
        if let Some(copies) = self.words.remove(&mix64(old)) {
            self.words.insert(mix64(new), copies);
        }
    }
}

impl Shard {
    pub fn new(levels: ShardMut, cfg: &ChameleonConfig) -> Self {
        Self {
            mem: Mutex::new(MemState::new(levels.id, cfg)),
            levels: Mutex::new(levels),
            replayed: Mutex::default(),
        }
    }

    /// Freezes the MemTable behind `mem` and runs its maintenance pass on
    /// the calling thread, exactly as a pool worker would: `mem` is
    /// released for the pass (lock order: `levels` before `mem`) and
    /// returned retaken, so the caller re-checks the MemTable.
    pub fn freeze_and_process<'a>(
        &'a self,
        mut mem: MutexGuard<'a, MemState>,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        shard: usize,
    ) -> Result<MutexGuard<'a, MemState>> {
        mem.freeze(store, ctx, shard);
        drop(mem);
        self.levels.lock().process_one_frozen(store, ctx)?;
        Ok(self.mem.lock())
    }

    /// DRAM bytes held by this shard's volatile structures.
    pub fn dram_bytes(&self) -> u64 {
        let levels = self.levels.lock();
        let mem = self.mem.lock();
        mem.unflushed().map(|t| t.dram_bytes()).sum::<u64>() + levels.abi.dram_bytes()
    }

    /// Approximate live entries (slots across all structures; duplicates
    /// across levels counted once via the ABI where possible).
    pub fn approx_len(&self) -> u64 {
        let levels = self.levels.lock();
        let mem = self.mem.lock();
        mem.unflushed().map(|t| t.len() as u64).sum::<u64>() + levels.approx_len()
    }

    /// Hands `f` every slot a get can reach, in `get`'s precedence order:
    /// the MemTable, frozen MemTables newest-first, the in-flight table,
    /// the upper levels, dumped tables newest-first, then the last level.
    /// A hash's first slot is its newest version.
    ///
    /// The upper levels give what the ABI holds: its slots when it is
    /// valid, else the first slot per hash over
    /// [`ShardMut::uppers_newest_first`] — the same set, since table seqs
    /// are unique within a shard.
    pub fn slots_in_get_order(
        &self,
        dev: &PmemDevice,
        ctx: &mut ThreadCtx,
        mut f: impl FnMut(Slot),
    ) {
        let levels = self.levels.lock();
        let mem = self.mem.lock();
        for t in mem.unflushed() {
            t.iter().into_iter().for_each(&mut f);
        }
        if levels.abi_valid {
            levels.abi.iter().into_iter().for_each(&mut f);
        } else {
            let mut seen = HashSet::with_hasher(PreHashed::default());
            for t in levels.uppers_newest_first() {
                t.table().for_each_entry(dev, ctx, |sl| {
                    if seen.insert(sl.hash) {
                        f(sl);
                    }
                });
            }
        }
        for t in levels.dumped.iter().rev().chain(&levels.last) {
            t.table().for_each_entry(dev, ctx, &mut f);
        }
    }
}

/// The put half of a shard: the live MemTable and the frozen tables
/// awaiting maintenance.
pub(crate) struct MemState {
    pub memtable: Arc<SharedTable>,
    /// Frozen MemTables awaiting background maintenance, oldest at the
    /// front. Filled by [`MemState::freeze`], drained FIFO by
    /// [`ShardMut::process_one_frozen`] — FIFO keeps per-shard seq order:
    /// every entry in a later frozen table outranks every entry in an
    /// earlier one, which the checkpoint-claim logic relies on.
    pub frozen: VecDeque<Arc<SharedTable>>,
    /// The frozen table a maintenance pass is currently flushing/merging.
    /// Stays in published views until the pass commits and republishes;
    /// counts against the frozen-queue cap for backpressure.
    pub in_flight: Option<Arc<SharedTable>>,
    /// This shard's randomized MemTable load-factor threshold (§2.5).
    pub load_threshold: f64,
}

impl MemState {
    fn new(id: u32, cfg: &ChameleonConfig) -> Self {
        Self {
            memtable: Arc::new(SharedTable::new_resident(cfg.memtable_slots)),
            frozen: VecDeque::new(),
            in_flight: None,
            load_threshold: shard_load_threshold(cfg, id),
        }
    }

    /// Frozen MemTables pending maintenance (queued + in-flight); the
    /// quantity the backpressure cap bounds.
    pub fn pending_frozen(&self) -> usize {
        self.frozen.len() + usize::from(self.in_flight.is_some())
    }

    /// The DRAM tables no level holds yet, newest first: the MemTable,
    /// the frozen queue newest-first, then the in-flight table (older
    /// than everything still queued).
    fn unflushed(&self) -> impl Iterator<Item = &Arc<SharedTable>> {
        std::iter::once(&self.memtable)
            .chain(self.frozen.iter().rev())
            .chain(&self.in_flight)
    }

    /// Frozen and in-flight tables, newest first: the view's frozen list.
    fn frozen_newest_first(&self) -> Vec<Arc<SharedTable>> {
        self.unflushed().skip(1).cloned().collect()
    }

    /// Builds the view of this half over `levels`.
    pub fn view(&self, levels: &ShardMut) -> ShardView {
        ShardView {
            mem: Arc::clone(&self.memtable),
            frozen_newest_first: self.frozen_newest_first(),
            abi: Arc::clone(&levels.abi),
            abi_valid: levels.abi_valid,
            uppers_newest_first: levels.uppers_newest_first(),
            dumped_newest_first: levels.dumped.iter().rev().cloned().collect(),
            last: levels.last.clone(),
        }
    }

    /// Inserts one slot (put or delete) into the MemTable. Never runs
    /// maintenance: callers freeze a MemTable at its load threshold
    /// *before* the write that would overfill it (see
    /// `StoreInner::write_slot_hashed` and `StoreInner::replay`).
    ///
    /// In-place insert into the shared MemTable: the published view holds
    /// the same Arc, so the entry is reader-visible the moment this
    /// returns — acks need no republish. Returns the previous MemTable
    /// location word for dead-byte accounting.
    pub fn insert(&mut self, ctx: &mut ThreadCtx, slot: Slot, seq: u64) -> Result<Option<u64>> {
        let old = self.memtable.insert(ctx, slot)?;
        self.memtable.note_seq(seq);
        Ok(old)
    }

    /// Freezes shard `shard`'s live MemTable: pushes it onto the frozen
    /// queue, swaps in a fresh table, and republishes so readers keep
    /// seeing the frozen entries (now via the view's frozen list). No-op
    /// when empty.
    ///
    /// Takes no `levels` lock — a put must never wait for a maintenance
    /// pass — so the level half of the new view is copied from the
    /// published one. Every publish happens under `mem`, which the caller
    /// holds, so that is the latest committed level state.
    pub fn freeze(&mut self, store: &StoreInner, ctx: &ThreadCtx, shard: usize) {
        if self.memtable.is_empty() {
            return;
        }
        self.frozen.push_back(Arc::clone(&self.memtable));
        self.memtable = Arc::new(SharedTable::new_resident(store.cfg.memtable_slots));
        let view = {
            let pin = store.epochs.pin(ctx.thread_id);
            let cur = store.views[shard].load(&pin);
            ShardView {
                mem: Arc::clone(&self.memtable),
                frozen_newest_first: self.frozen_newest_first(),
                ..cur.clone()
            }
        };
        store.views[shard].publish(Arc::new(view));
        StoreMetrics::bump(&store.metrics.lane(ctx).view_publishes);
    }
}

/// The level half of a shard: the Auxiliary Bypass Index over all upper
/// levels, the upper-level tables on Pmem, any GPM-dumped ABI tables,
/// and the single last-level table.
pub(crate) struct ShardMut {
    pub id: u32,
    pub abi: Arc<SharedTable>,
    /// False right after a restart until this shard's ABI has been rebuilt
    /// from its upper-level tables ("recovered along with serving front-end
    /// requests", §3.3).
    pub abi_valid: bool,
    /// Upper levels `L0..L(levels-2)`; within a level, tables are ordered
    /// oldest-first (newest at the back).
    pub uppers: Vec<Vec<Arc<TableHandle>>>,
    /// GPM-dumped ABI tables, oldest-first.
    pub dumped: Vec<Arc<TableHandle>>,
    /// The last-level table.
    pub last: Option<Arc<TableHandle>>,
    /// Monotonic table numbering within the shard.
    pub table_seq: u64,
    /// Highest log sequence number persisted in this shard's tables; log
    /// entries above it belong to the (volatile) MemTable/ABI.
    pub checkpoint_seq: u64,
    /// Lowest log sequence the ABI may hold that is in *no* durable table
    /// (entries folded in by WIM/GPM MemTable merges). While set, a flushed
    /// L0 table must not claim a `max_log_seq` at or above it: recovery
    /// derives `checkpoint_seq` from table headers, and a claim covering
    /// these DRAM-only entries would skip their log replay — losing them.
    /// Cleared whenever the whole ABI is persisted (dump or last-level
    /// compaction).
    pub abi_unpersisted_floor: Option<u64>,
}

impl ShardMut {
    /// Creates shard `id`'s level half, empty.
    pub fn new(id: u32, cfg: &ChameleonConfig) -> Self {
        Self {
            id,
            abi: Arc::new(SharedTable::new(cfg.upper_capacity_slots())),
            abi_valid: true,
            uppers: vec![Vec::new(); cfg.levels - 1],
            dumped: Vec::new(),
            last: None,
            table_seq: 0,
            checkpoint_seq: 0,
            abi_unpersisted_floor: None,
        }
    }

    /// Approximate entries in the levels (upper levels counted once via
    /// the ABI where possible).
    fn approx_len(&self) -> u64 {
        let upper = if self.abi_valid {
            self.abi.len() as u64
        } else {
            self.uppers
                .iter()
                .flatten()
                .map(|t| t.table().num_entries())
                .sum::<u64>()
        };
        upper
            + self
                .dumped
                .iter()
                .map(|t| t.table().num_entries())
                .sum::<u64>()
            + self.last.as_ref().map_or(0, |t| t.table().num_entries())
    }

    fn next_table_seq(&mut self) -> u64 {
        self.table_seq += 1;
        self.table_seq
    }

    /// This shard's load threshold, which also sizes its merged tables.
    fn load_threshold(&self, store: &StoreInner) -> f64 {
        shard_load_threshold(&store.cfg, self.id)
    }

    /// Every upper-level table, newest first by table seq: the degraded
    /// get's probe order.
    pub fn uppers_newest_first(&self) -> Vec<Arc<TableHandle>> {
        let mut tables: Vec<Arc<TableHandle>> = self.uppers.iter().flatten().cloned().collect();
        tables.sort_by_key(|t| std::cmp::Reverse(t.table().header().table_seq));
        tables
    }

    /// Republishes this shard's read view: locks `mem` (the caller holds
    /// `levels`), retires the in-flight table first when `retire` is
    /// set, and publishes. Holding `mem` orders the publish with
    /// freezes, which copy the level half from the published view.
    fn publish(&self, store: &StoreInner, ctx: &ThreadCtx, retire: bool) {
        let mut mem = store.shards[self.id as usize].mem.lock();
        if retire {
            mem.in_flight = None;
        }
        store.views[self.id as usize].publish(Arc::new(mem.view(self)));
        StoreMetrics::bump(&store.metrics.lane(ctx).view_publishes);
    }

    /// Pops the oldest frozen MemTable and runs one full maintenance pass
    /// for it: ABI rebuild if stale, then WIM merge or {fold dumped,
    /// flush, cascade compactions} depending on the mode *at processing
    /// time*. Returns whether there was anything to process.
    ///
    /// Runs under the `levels` lock (callers hold it), on a pool worker
    /// or on the writer that froze the table, and takes `mem` only to pop
    /// the table into `in_flight` and at each publish — puts keep going
    /// meanwhile. The table stays published as `in_flight` until the
    /// pass commits and republishes. A stale post-restart ABI is rebuilt
    /// here rather than at the first insert, so log replay stays cheap:
    /// shards that never fill a MemTable serve gets through the degraded
    /// upper-level walk until their first flush.
    pub fn process_one_frozen(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<bool> {
        let table = {
            let mut mem = store.shards[self.id as usize].mem.lock();
            let Some(table) = mem.frozen.pop_front() else {
                return Ok(false);
            };
            // The view lists in-flight and queued tables alike, so moving
            // one between them needs no publish.
            mem.in_flight = Some(Arc::clone(&table));
            table
        };
        self.ensure_abi(store, ctx)?;
        if store.mode.suspend_upper_maintenance() {
            self.merge_table_into_abi(store, ctx, &table)?;
        } else {
            // If a GPM episode left dumped ABI tables behind, fold them into
            // the last level now that the burst has subsided (§2.4: "dumped
            // tables will gradually be merged ... after the put burst").
            if !self.dumped.is_empty() {
                self.compact_last_level(store, ctx)?;
            }
            self.flush_table(store, ctx, &table)?;
            self.maybe_compact(store, ctx)?;
        }
        Ok(true)
    }

    /// Rebuilds the ABI from the upper-level tables if it is stale
    /// (post-restart, on first touch).
    ///
    /// The rebuild inserts into the live ABI in place: views published
    /// while it runs carry `abi_valid: false`, so no reader probes the
    /// half-built table — they stay on the degraded upper-level walk
    /// until the completed rebuild is published.
    pub fn ensure_abi(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<()> {
        if self.abi_valid {
            return Ok(());
        }
        let span = store.span_start(Stage::AbiRebuild, ctx);
        for t in self.uppers_newest_first() {
            for slot in t.table().iter_entries(&store.dev, ctx) {
                // Newest-first: keep the first version seen per hash.
                self.abi.insert_if_absent(ctx, slot)?;
                self.abi.note_seq(t.table().header().max_log_seq);
            }
        }
        self.abi_valid = true;
        self.publish(store, ctx, false);
        StoreMetrics::bump(&store.metrics.lane(ctx).abi_rebuilds);
        store.span_end(span, ctx);
        store.obs.record_event(
            ctx.clock.now(),
            EventKind::AbiRebuild {
                shard: self.id,
                slots: self.abi.len() as u64,
            },
        );
        Ok(())
    }

    /// Flushes any frozen and live MemTables and folds everything into the
    /// last level (used by tests and by explicit checkpointing). The
    /// store drains the worker pool before calling this, but concurrent
    /// puts may refreeze — the loop below clears whatever is pending.
    pub fn force_checkpoint(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<()> {
        let id = self.id as usize;
        store.shards[id].mem.lock().freeze(store, ctx, id);
        while self.process_one_frozen(store, ctx)? {}
        if !self.abi.is_empty() || !self.dumped.is_empty() {
            self.compact_last_level(store, ctx)?;
        }
        Ok(())
    }
}

/// Draws the per-shard randomized load-factor threshold (§2.5).
fn shard_load_threshold(cfg: &ChameleonConfig, shard: u32) -> f64 {
    let (lo, hi) = cfg.load_factor;
    if (hi - lo).abs() < f64::EPSILON {
        return lo;
    }
    let u =
        kvapi::mix64(cfg.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9)) as f64 / u64::MAX as f64;
    lo + (hi - lo) * u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_thresholds_are_deterministic_and_in_range() {
        let cfg = ChameleonConfig::tiny();
        let (lo, hi) = cfg.load_factor;
        let mut distinct = std::collections::HashSet::new();
        for s in 0..64u32 {
            let t = shard_load_threshold(&cfg, s);
            assert!(t >= lo && t <= hi, "threshold {t} outside [{lo},{hi}]");
            assert_eq!(t, shard_load_threshold(&cfg, s));
            distinct.insert((t * 1e9) as u64);
        }
        assert!(distinct.len() > 32, "thresholds must be staggered");
    }
}
