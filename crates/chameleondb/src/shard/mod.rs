//! The write side of a shard: MemTable + ABI + multi-level table
//! structure (§2.1–§2.2), behind the per-shard mutex. The level
//! transitions — flush, WIM merge, ABI dump and both compactions — are
//! in `compaction.rs`.
//!
//! Reads never come here. Every structural transition republishes an
//! immutable [`ShardView`] (see `view.rs`) through the shard's
//! `ViewCell`; `ChameleonDb::get` probes that snapshot lock-free. Two
//! rules keep concurrent readers sound:
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

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use chameleon_obs::{EventKind, Stage};
use kvapi::Result;
use kvtables::{SharedTable, Slot};
use pmem_sim::{PmemDevice, ThreadCtx};

use crate::config::ChameleonConfig;
use crate::metrics::StoreMetrics;
use crate::store::StoreInner;
use crate::view::{ShardView, TableHandle};

/// One shard's writer-owned state: the live MemTable, the Auxiliary
/// Bypass Index over all upper levels, the upper-level tables on Pmem,
/// any GPM-dumped ABI tables, and the single last-level table.
pub(crate) struct ShardMut {
    pub id: u32,
    pub memtable: Arc<SharedTable>,
    /// Frozen MemTables awaiting background maintenance, oldest at the
    /// front. Filled by [`ShardMut::freeze_memtable`], drained FIFO by
    /// [`ShardMut::process_one_frozen`] — FIFO keeps per-shard seq order:
    /// every entry in a later frozen table outranks every entry in an
    /// earlier one, which the checkpoint-claim logic relies on.
    pub frozen: VecDeque<Arc<SharedTable>>,
    /// The frozen table a maintenance pass is currently flushing/merging.
    /// Stays in published views until the pass commits and republishes;
    /// counts against the frozen-queue cap for backpressure.
    pub in_flight: Option<Arc<SharedTable>>,
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
    /// This shard's randomized MemTable load-factor threshold (§2.5).
    pub load_threshold: f64,
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
    /// Creates shard `id`, empty, with its randomized load threshold.
    pub fn new(id: u32, cfg: &ChameleonConfig) -> Self {
        Self {
            id,
            memtable: Arc::new(SharedTable::new_resident(cfg.memtable_slots)),
            frozen: VecDeque::new(),
            in_flight: None,
            abi: Arc::new(SharedTable::new(cfg.upper_capacity_slots())),
            abi_valid: true,
            uppers: vec![Vec::new(); cfg.levels - 1],
            dumped: Vec::new(),
            last: None,
            load_threshold: shard_load_threshold(cfg, id),
            table_seq: 0,
            checkpoint_seq: 0,
            abi_unpersisted_floor: None,
        }
    }

    /// DRAM bytes held by this shard's volatile structures.
    pub fn dram_bytes(&self) -> u64 {
        self.memtable.dram_bytes()
            + self.abi.dram_bytes()
            + self.frozen.iter().map(|t| t.dram_bytes()).sum::<u64>()
            + self.in_flight.as_ref().map_or(0, |t| t.dram_bytes())
    }

    /// Frozen MemTables pending maintenance (queued + in-flight); the
    /// quantity the backpressure cap bounds.
    pub fn pending_frozen(&self) -> usize {
        self.frozen.len() + usize::from(self.in_flight.is_some())
    }

    /// Approximate live entries (slots across all structures; duplicates
    /// across levels counted once via the ABI where possible).
    pub fn approx_len(&self) -> u64 {
        let upper = if self.abi_valid {
            self.abi.len() as u64
        } else {
            self.uppers
                .iter()
                .flatten()
                .map(|t| t.table().num_entries())
                .sum::<u64>()
        };
        self.memtable.len() as u64
            + self.frozen.iter().map(|t| t.len() as u64).sum::<u64>()
            + self.in_flight.as_ref().map_or(0, |t| t.len() as u64)
            + upper
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

    /// Every upper-level table, newest first by table seq: the degraded
    /// get's probe order.
    pub fn uppers_newest_first(&self) -> Vec<Arc<TableHandle>> {
        let mut tables: Vec<Arc<TableHandle>> = self.uppers.iter().flatten().cloned().collect();
        tables.sort_by_key(|t| std::cmp::Reverse(t.table().header().table_seq));
        tables
    }

    /// The newest upper-level slot per hash: the ABI's slots when it is
    /// valid, else the first slot seen over [`Self::uppers_newest_first`]
    /// — the same set, since table seqs are unique within a shard.
    pub fn upper_slots(&self, dev: &PmemDevice, ctx: &mut ThreadCtx) -> Vec<Slot> {
        if self.abi_valid {
            return self.abi.iter();
        }
        let mut seen = HashSet::new();
        let mut slots = Vec::new();
        for t in self.uppers_newest_first() {
            for sl in t.table().iter_entries(dev, ctx) {
                if seen.insert(sl.hash) {
                    slots.push(sl);
                }
            }
        }
        slots
    }

    /// Every slot a get can reach, in `get`'s precedence order: the
    /// MemTable, frozen MemTables newest-first, the in-flight table,
    /// [`Self::upper_slots`], dumped tables newest-first, then the last
    /// level. A hash's first slot is its newest version.
    pub fn slots_in_get_order(&self, dev: &PmemDevice, ctx: &mut ThreadCtx) -> Vec<Slot> {
        let mut slots = self.memtable.iter();
        for t in self.frozen.iter().rev().chain(&self.in_flight) {
            slots.extend(t.iter());
        }
        slots.extend(self.upper_slots(dev, ctx));
        for t in self.dumped.iter().rev().chain(&self.last) {
            slots.extend(t.table().iter_entries(dev, ctx));
        }
        slots
    }

    /// Builds an immutable snapshot of the current readable structures.
    pub fn snapshot_view(&self) -> ShardView {
        // Newest first: the frozen deque is oldest-at-front, and the
        // in-flight table (if any) is older than everything still queued.
        let mut frozen_newest_first: Vec<Arc<SharedTable>> =
            self.frozen.iter().rev().cloned().collect();
        frozen_newest_first.extend(self.in_flight.iter().cloned());
        ShardView {
            mem: Arc::clone(&self.memtable),
            frozen_newest_first,
            abi: Arc::clone(&self.abi),
            abi_valid: self.abi_valid,
            uppers_newest_first: self.uppers_newest_first(),
            dumped_newest_first: self.dumped.iter().rev().cloned().collect(),
            last: self.last.clone(),
        }
    }

    /// Republishes this shard's read view. Called at every structural
    /// transition, always while still holding the shard mutex (so a
    /// later insert cannot land in a not-yet-published fresh MemTable).
    fn publish(&self, store: &StoreInner, ctx: &ThreadCtx) {
        store.views[self.id as usize].publish(Arc::new(self.snapshot_view()));
        StoreMetrics::bump(&store.metrics.lane(ctx).view_publishes);
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

    /// Freezes the live MemTable: pushes it onto the frozen queue, swaps
    /// in a fresh table, and republishes so readers keep seeing the
    /// frozen entries (now via the view's frozen list). No-op when empty.
    pub fn freeze_memtable(&mut self, store: &StoreInner, ctx: &ThreadCtx) {
        if self.memtable.is_empty() {
            return;
        }
        self.frozen.push_back(Arc::clone(&self.memtable));
        self.memtable = Arc::new(SharedTable::new_resident(store.cfg.memtable_slots));
        self.publish(store, ctx);
    }

    /// Pops the oldest frozen MemTable and runs one full maintenance pass
    /// for it: ABI rebuild if stale, then WIM merge or {fold dumped,
    /// flush, cascade compactions} depending on the mode *at processing
    /// time*. Returns whether there was anything to process.
    ///
    /// Runs under the shard mutex (callers hold it), on a pool worker or
    /// on the writer that froze the table; the table stays published as
    /// `in_flight` until the pass commits and republishes. A stale
    /// post-restart ABI is rebuilt here rather than at the first insert,
    /// so log replay stays cheap: shards that never fill a MemTable serve
    /// gets through the degraded upper-level walk until their first flush.
    pub fn process_one_frozen(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<bool> {
        let Some(table) = self.frozen.pop_front() else {
            return Ok(false);
        };
        self.in_flight = Some(Arc::clone(&table));
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
        let span = store
            .obs
            .span_start(Stage::AbiRebuild, ctx.clock.now(), store.dev.stats());
        for t in self.uppers_newest_first() {
            for slot in t.table().iter_entries(&store.dev, ctx) {
                // Newest-first: keep the first version seen per hash.
                self.abi.insert_if_absent(ctx, slot)?;
                self.abi.note_seq(t.table().header().max_log_seq);
            }
        }
        self.abi_valid = true;
        self.publish(store, ctx);
        StoreMetrics::bump(&store.metrics.lane(ctx).abi_rebuilds);
        store.obs.span_end(span, ctx.clock.now(), store.dev.stats());
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
        self.freeze_memtable(store, ctx);
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
