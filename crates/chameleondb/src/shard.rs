//! The write side of a shard: MemTable + ABI + multi-level table
//! structure (§2.1–§2.2), behind the per-shard mutex.
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

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use chameleon_obs::{EventKind, Obs, Stage};
use kvapi::Result;
use kvlog::StorageLog;
use kvsync::ViewCell;
use kvtables::{SharedTable, Slot, TableBuilder};
use pmem_sim::{PmemDevice, ThreadCtx};

use crate::config::{ChameleonConfig, CompactionScheme};
use crate::manifest::{ManifestRecord, LEVEL_DUMPED};
use crate::metrics::StoreMetrics;
use crate::mode::ModeController;
use crate::view::{ShardView, TableHandle};

/// Borrowed environment a shard operation runs in.
pub(crate) struct ShardEnv<'a> {
    pub dev: &'a Arc<PmemDevice>,
    pub cfg: &'a ChameleonConfig,
    pub metrics: &'a StoreMetrics,
    pub mode: &'a ModeController,
    /// Observability sink (event journal, maintenance spans).
    pub obs: &'a Obs,
    /// Per-shard read-view cells; a shard publishes into `views[id]`.
    pub views: &'a [ViewCell<ShardView>],
    /// Commits manifest adds/deletes atomically (store-level MetaLog).
    pub commit: &'a dyn Fn(&mut ThreadCtx, &[ManifestRecord]) -> Result<()>,
    /// Makes every acknowledged log append durable (flushes all log
    /// writers). Must run before a table whose slots may reference
    /// MemTable/ABI entries is committed: those entries can still sit in an
    /// unfenced writer batch, and committing the table advances
    /// `checkpoint_seq` past them — after a crash the slots would point at
    /// zeroed log bytes and replay would skip the lost entries.
    pub sync_log: &'a dyn Fn(&mut ThreadCtx) -> Result<()>,
    /// The value log, for dead-byte crediting when maintenance drops the
    /// last read-path reference to an entry.
    pub log: &'a Arc<StorageLog>,
}

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
    /// Creates an empty shard.
    pub fn new(id: u32, cfg: &ChameleonConfig, load_threshold: f64) -> Self {
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
            load_threshold,
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
    fn publish(&self, env: &ShardEnv<'_>, ctx: &ThreadCtx) {
        env.views[self.id as usize].publish(Arc::new(self.snapshot_view()));
        StoreMetrics::bump(&env.metrics.lane(ctx).view_publishes);
    }

    /// Inserts one slot into the MemTable (put or delete), running the
    /// full maintenance chain inline when the randomized load threshold
    /// is hit — the path recovery replay and pipeline-disabled stores use.
    ///
    /// Returns the previous MemTable location word for dead-byte accounting.
    pub fn insert(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        slot: Slot,
        seq: u64,
    ) -> Result<Option<u64>> {
        let old = self.insert_no_maint(ctx, slot, seq)?;
        if self.memtable.is_full(self.load_threshold) {
            self.on_memtable_full(env, ctx)?;
        }
        Ok(old)
    }

    /// Inserts one slot into the MemTable without any maintenance — the
    /// pipelined put path, which handles a full MemTable by freezing
    /// *before* the insert and delegating the work to the worker pool.
    ///
    /// In-place insert into the shared MemTable: the published view holds
    /// the same Arc, so the entry is reader-visible the moment this
    /// returns — acks need no republish.
    pub fn insert_no_maint(
        &mut self,
        ctx: &mut ThreadCtx,
        slot: Slot,
        seq: u64,
    ) -> Result<Option<u64>> {
        let old = self.memtable.insert(ctx, slot)?;
        self.memtable.note_seq(seq);
        Ok(old)
    }

    /// Freezes the live MemTable: pushes it onto the frozen queue, swaps
    /// in a fresh table, and republishes so readers keep seeing the
    /// frozen entries (now via the view's frozen list). No-op when empty.
    pub fn freeze_memtable(&mut self, env: &ShardEnv<'_>, ctx: &ThreadCtx) {
        if self.memtable.is_empty() {
            return;
        }
        self.frozen.push_back(Arc::clone(&self.memtable));
        self.memtable = Arc::new(SharedTable::new_resident(env.cfg.memtable_slots));
        self.publish(env, ctx);
    }

    /// Pops the oldest frozen MemTable and runs one full maintenance pass
    /// for it: ABI rebuild if stale, then WIM merge or {fold dumped,
    /// flush, cascade compactions} depending on the mode *at processing
    /// time*. Returns whether there was anything to process.
    ///
    /// Runs under the shard mutex (callers hold it); the table stays
    /// published as `in_flight` until the pass commits and republishes.
    pub fn process_one_frozen(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<bool> {
        let Some(table) = self.frozen.pop_front() else {
            return Ok(false);
        };
        self.in_flight = Some(Arc::clone(&table));
        self.ensure_abi(env, ctx)?;
        if env.mode.suspend_upper_maintenance() {
            self.merge_table_into_abi(env, ctx, &table)?;
        } else {
            // If a GPM episode left dumped ABI tables behind, fold them into
            // the last level now that the burst has subsided (§2.4: "dumped
            // tables will gradually be merged ... after the put burst").
            if !self.dumped.is_empty() {
                self.compact_last_level(env, ctx)?;
            }
            self.flush_table(env, ctx, &table)?;
            self.maybe_compact(env, ctx)?;
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
    pub fn ensure_abi(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        if self.abi_valid {
            return Ok(());
        }
        let span = env
            .obs
            .span_start(Stage::AbiRebuild, ctx.clock.now(), env.dev.stats());
        for t in self.uppers_newest_first() {
            for slot in t.table().iter_entries(env.dev, ctx) {
                // Newest-first: keep the first version seen per hash.
                self.abi.insert_if_absent(ctx, slot)?;
                self.abi.note_seq(t.table().header().max_log_seq);
            }
        }
        self.abi_valid = true;
        self.publish(env, ctx);
        StoreMetrics::bump(&env.metrics.lane(ctx).abi_rebuilds);
        env.obs.span_end(span, ctx.clock.now(), env.dev.stats());
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::AbiRebuild {
                shard: self.id,
                slots: self.abi.len() as u64,
            },
        );
        Ok(())
    }

    /// Inline maintenance (recovery replay and pipeline-disabled stores):
    /// freeze the just-filled MemTable and process it immediately. The
    /// frozen queue is always empty here, so the processed table is the
    /// one this call froze.
    ///
    /// A stale post-restart ABI is rebuilt inside `process_one_frozen`
    /// before the first structural transition: both maintenance branches
    /// merge or mirror the MemTable into the ABI, which is only
    /// meaningful if the ABI already covers the upper levels. Deferring
    /// the rebuild to this point (rather than the first insert) keeps
    /// log-replay recovery cheap — shards that never fill a MemTable
    /// serve gets through the degraded upper-level walk until their first
    /// real flush.
    fn on_memtable_full(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        self.freeze_memtable(env, ctx);
        self.process_one_frozen(env, ctx)?;
        Ok(())
    }

    /// Write-Intensive / Get-Protect path (§2.3): fold a frozen MemTable
    /// into the ABI without persisting an L0 table. The KV data itself is
    /// already durable in the storage log.
    fn merge_table_into_abi(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        table: &Arc<SharedTable>,
    ) -> Result<()> {
        self.make_abi_room(env, ctx, table.len())?;
        // Span starts *after* make_abi_room so any dump/last-compaction it
        // triggered is attributed to its own stage, not to the merge.
        let span = env
            .obs
            .span_start(Stage::WimMerge, ctx.clock.now(), env.dev.stats());
        let max_seq = table.max_seq();
        let slots = table.iter();
        let merged = slots.len() as u64;
        for slot in slots {
            // Additive in-place merge: readers on the current view find
            // these keys in its (still intact) frozen table first, so the
            // newest version stays visible throughout.
            if let Some(old) = self.abi.insert_bulk(ctx, slot)? {
                // The ABI is the only read-path structure that referenced
                // the overwritten version (upper tables are shadows of ABI
                // content, retired before the ABI's covering entry is):
                // credit it exactly once — validated, because a version
                // already shadowed by a newer MemTable entry may have had
                // its extent garbage-collected while its ABI slot waited
                // for this overwrite.
                crate::store::credit_dead_slot(env.log, ctx, env.metrics, slot.hash, old);
            }
        }
        self.abi.note_seq(max_seq);
        // Every merged entry has seq > checkpoint_seq (older ones were
        // flushed), so this bounds the oldest table-less ABI resident.
        self.abi_unpersisted_floor
            .get_or_insert(self.checkpoint_seq + 1);
        // The merge is committed: retire the in-flight table from the
        // published view (its entries are covered by the ABI now).
        self.in_flight = None;
        self.publish(env, ctx);
        StoreMetrics::bump(&env.metrics.lane(ctx).wim_merges);
        env.obs.span_end(span, ctx.clock.now(), env.dev.stats());
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::WimMerge {
                shard: self.id,
                slots: merged,
            },
        );
        Ok(())
    }

    /// Ensures the ABI can absorb `incoming` more entries, dumping it or
    /// compacting the last level if not (§2.4).
    fn make_abi_room(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        incoming: usize,
    ) -> Result<()> {
        // Leave headroom: a linear-probe table degrades sharply near 1.0.
        let limit = (self.abi.capacity() as f64 * 0.9) as usize;
        if self.abi.len() + incoming <= limit {
            return Ok(());
        }
        if env.mode.prefer_abi_dump() && self.dumped.len() < env.cfg.max_abi_dumps {
            self.dump_abi(env, ctx)
        } else {
            self.compact_last_level(env, ctx)
        }
    }

    /// Get-Protect Mode's cheap eviction: persist the ABI as an unmerged
    /// extra table instead of paying a last-level merge (Fig. 9).
    fn dump_abi(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        if self.abi.is_empty() {
            return Ok(());
        }
        // The ABI holds WIM-merged MemTable entries whose log appends may
        // still be unfenced; the dumped table will cover their seqs.
        (env.sync_log)(ctx)?;
        let span = env
            .obs
            .span_start(Stage::AbiDump, ctx.clock.now(), env.dev.stats());
        let dumped_slots = self.abi.len() as u64;
        let threshold = self.load_threshold;
        let mut b = TableBuilder::sized_for(self.abi.len(), threshold);
        b.note_seq(self.abi.max_seq());
        for slot in self.abi.iter() {
            b.insert(ctx, slot, false)?;
        }
        let seq = self.next_table_seq();
        let table = b.build(env.dev, ctx, self.id, LEVEL_DUMPED as u32, seq)?;
        (env.commit)(
            ctx,
            &[ManifestRecord::Add {
                shard: self.id,
                level: LEVEL_DUMPED,
                table_seq: seq,
                region: table.region(),
            }],
        )?;
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.dumped.push(TableHandle::new(table, env.dev));
        // Evict-by-replacement: views from before this publish keep the
        // old ABI (which covers the dumped table's contents).
        self.abi = Arc::new(SharedTable::new(env.cfg.upper_capacity_slots()));
        self.abi_unpersisted_floor = None;
        self.publish(env, ctx);
        StoreMetrics::bump(&env.metrics.lane(ctx).abi_dumps);
        let delta = env
            .obs
            .span_end(span, ctx.clock.now(), env.dev.stats())
            .unwrap_or_default();
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::AbiDump {
                shard: self.id,
                slots: dumped_slots,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }

    /// Flushes a frozen MemTable to a new L0 table and mirrors its entries
    /// into the ABI (Fig. 7).
    fn flush_table(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        table_in: &Arc<SharedTable>,
    ) -> Result<()> {
        if table_in.is_empty() {
            self.in_flight = None;
            return Ok(());
        }
        // The frozen entries' log appends may still be unfenced; the L0
        // table commit below advances checkpoint_seq over them.
        (env.sync_log)(ctx)?;
        self.make_abi_room(env, ctx, table_in.len())?;
        // Span starts *after* make_abi_room: an ABI dump or last-level
        // compaction it triggered is billed to its own stage.
        let span = env
            .obs
            .span_start(Stage::Flush, ctx.clock.now(), env.dev.stats());
        let mut b = TableBuilder::new(env.cfg.memtable_slots);
        // The table covers exactly this frozen MemTable. If the ABI still
        // holds older WIM/GPM-merged entries that live in no table, claiming
        // this table's max seq would cover them too, and a crash before the
        // next dump/last-compaction would skip their replay. Cap the claim
        // below the oldest such entry; the flushed entries then simply stay
        // above checkpoint_seq and replay from the (synced) log.
        let claim = match self.abi_unpersisted_floor {
            Some(floor) => table_in.max_seq().min(floor.saturating_sub(1)),
            None => table_in.max_seq(),
        };
        b.note_seq(claim);
        let slots = table_in.iter();
        let flushed = slots.len() as u64;
        for &slot in &slots {
            b.insert(ctx, slot, false)?;
        }
        let seq = self.next_table_seq();
        let table = b.build(env.dev, ctx, self.id, 0, seq)?;
        (env.commit)(
            ctx,
            &[ManifestRecord::Add {
                shard: self.id,
                level: 0,
                table_seq: seq,
                region: table.region(),
            }],
        )?;
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.uppers[0].push(TableHandle::new(table, env.dev));
        let max_seq = table_in.max_seq();
        for slot in slots {
            if let Some(old) = self.abi.insert_bulk(ctx, slot)? {
                // See merge_table_into_abi: an ABI overwrite retires the
                // overwritten version's only read-path reference —
                // validated against the log in case GC reclaimed the
                // shadowed version's extent first.
                crate::store::credit_dead_slot(env.log, ctx, env.metrics, slot.hash, old);
            }
        }
        self.abi.note_seq(max_seq);
        // The flush is committed: the single publish below retires the
        // in-flight table and makes the ABI mirror and the new L0 table
        // visible together.
        self.in_flight = None;
        self.publish(env, ctx);
        StoreMetrics::bump(&env.metrics.lane(ctx).flushes);
        let delta = env
            .obs
            .span_end(span, ctx.clock.now(), env.dev.stats())
            .unwrap_or_default();
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::MemtableFlush {
                shard: self.id,
                slots: flushed,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }

    fn maybe_compact(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        let r = env.cfg.ratio;
        match env.cfg.compaction {
            CompactionScheme::Direct => {
                if self.uppers[0].len() < r {
                    return Ok(());
                }
                // Find the first deeper upper level with room (< r-1
                // tables); merge the whole prefix into it (Fig. 5b). If
                // every deeper level is at r-1, it is a last-level
                // compaction.
                let mut target = None;
                for j in 1..self.uppers.len() {
                    if self.uppers[j].len() < r - 1 {
                        target = Some(j);
                        break;
                    }
                }
                match target {
                    Some(j) => self.compact_uppers_into(env, ctx, j),
                    None => self.compact_last_level(env, ctx),
                }
            }
            CompactionScheme::LevelByLevel => {
                // Cascade one level at a time (Fig. 5a).
                loop {
                    let mut acted = false;
                    for j in 0..self.uppers.len() {
                        if self.uppers[j].len() >= r {
                            if j + 1 < self.uppers.len() {
                                self.compact_level_into_next(env, ctx, j)?;
                            } else {
                                self.compact_last_level(env, ctx)?;
                            }
                            acted = true;
                            break;
                        }
                    }
                    if !acted {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Direct Compaction: merge every table in upper levels `0..target`
    /// into a single new table appended to level `target`.
    fn compact_uppers_into(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        target: usize,
    ) -> Result<()> {
        let mut inputs: Vec<Arc<TableHandle>> = Vec::new();
        for level in self.uppers[..target].iter_mut() {
            inputs.append(level);
        }
        self.merge_tables_to_level(env, ctx, inputs, target)?;
        StoreMetrics::bump(&env.metrics.lane(ctx).mid_compactions);
        Ok(())
    }

    /// Level-by-Level: merge level `j`'s tables into one table at `j+1`.
    fn compact_level_into_next(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        j: usize,
    ) -> Result<()> {
        let inputs = std::mem::take(&mut self.uppers[j]);
        self.merge_tables_to_level(env, ctx, inputs, j + 1)?;
        StoreMetrics::bump(&env.metrics.lane(ctx).mid_compactions);
        Ok(())
    }

    /// Shared size-tiered merge: reads `inputs` from Pmem newest-first,
    /// dedups, writes one output table at `target_level`.
    fn merge_tables_to_level(
        &mut self,
        env: &ShardEnv<'_>,
        ctx: &mut ThreadCtx,
        mut inputs: Vec<Arc<TableHandle>>,
        target_level: usize,
    ) -> Result<()> {
        debug_assert!(!inputs.is_empty());
        let span = env
            .obs
            .span_start(Stage::MidCompaction, ctx.clock.now(), env.dev.stats());
        let tables_in = inputs.len() as u64;
        inputs.sort_by_key(|t| std::cmp::Reverse(t.table().header().table_seq));
        let total: u64 = inputs.iter().map(|t| t.table().num_entries()).sum();
        let mut b = TableBuilder::sized_for(total as usize, self.load_threshold);
        for t in &inputs {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(env.dev, ctx) {
                b.insert(ctx, slot, false)?;
            }
        }
        let seq = self.next_table_seq();
        let table = b.build(env.dev, ctx, self.id, target_level as u32, seq)?;
        let mut records = vec![ManifestRecord::Add {
            shard: self.id,
            level: target_level as u8,
            table_seq: seq,
            region: table.region(),
        }];
        records.extend(inputs.iter().map(|t| ManifestRecord::Del {
            off: t.table().region().off,
        }));
        (env.commit)(ctx, &records)?;
        // Inputs are logically dead; their regions are freed when the last
        // view holding them is reclaimed.
        for t in inputs {
            t.doom();
        }
        let slots_out = table.num_entries();
        self.uppers[target_level].push(TableHandle::new(table, env.dev));
        self.publish(env, ctx);
        let delta = env
            .obs
            .span_end(span, ctx.clock.now(), env.dev.stats())
            .unwrap_or_default();
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::MidCompaction {
                shard: self.id,
                tables_in,
                slots_out,
                target_level: target_level as u32,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }

    /// Last-level (leveled) compaction: merge the ABI (the DRAM copy of all
    /// upper-level items, Fig. 8), any dumped ABI tables, and the existing
    /// last-level table into a fresh last-level table; then replace the
    /// upper levels and the ABI (§2.1–§2.2).
    pub fn compact_last_level(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        self.ensure_abi(env, ctx)?;
        let dumped_entries: u64 = self.dumped.iter().map(|t| t.table().num_entries()).sum();
        let last_entries = self.last.as_ref().map_or(0, |t| t.table().num_entries());
        let total = self.abi.len() as u64 + dumped_entries + last_entries;
        if total == 0 {
            return Ok(());
        }
        // In WIM the ABI holds merged MemTable entries that may still be
        // unfenced in a log writer batch (mid-level inputs are already
        // durable tables, so only this last-level path needs the sync).
        (env.sync_log)(ctx)?;
        // Span starts *after* ensure_abi so a post-restart rebuild is billed
        // to the abi_rebuild stage rather than to this compaction.
        let span = env
            .obs
            .span_start(Stage::LastCompaction, ctx.clock.now(), env.dev.stats());
        let mut b = TableBuilder::sized_for(total as usize, self.load_threshold);
        // Newest first: ABI (DRAM reads — the Fig. 8 optimisation), then
        // dumped tables newest-first, then the old last level.
        b.note_seq(self.abi.max_seq());
        for slot in self.abi.iter() {
            ctx.charge(ctx.cost.dram_seq_line_ns);
            b.insert(ctx, slot, true)?;
        }
        for t in self.dumped.iter().rev() {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(env.dev, ctx) {
                b.insert(ctx, slot, true)?;
            }
        }
        if let Some(t) = &self.last {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(env.dev, ctx) {
                b.insert(ctx, slot, true)?;
            }
        }
        let last_level = (env.cfg.levels - 1) as u32;
        let seq = self.next_table_seq();
        let (table, drops) = b.build_and_drops(env.dev, ctx, self.id, last_level, seq)?;
        let mut records = vec![ManifestRecord::Add {
            shard: self.id,
            level: last_level as u8,
            table_seq: seq,
            region: table.region(),
        }];
        let olds: Vec<Arc<TableHandle>> = self
            .uppers
            .iter_mut()
            .flat_map(std::mem::take)
            .chain(self.dumped.drain(..))
            .chain(self.last.take())
            .collect();
        records.extend(olds.iter().map(|t| ManifestRecord::Del {
            off: t.table().region().off,
        }));
        (env.commit)(ctx, &records)?;
        for t in olds {
            t.doom();
        }
        // Entries the merge dropped — older versions shadowed by a newer
        // one (always from a dumped table or the old last level; the ABI
        // streams first) and pruned tombstones (from any input) — lose
        // their only read-path reference here, for the first time:
        // mid-level tables are shadows of ABI content, credited at their
        // ABI overwrite and excluded from this merge's inputs. Credit them
        // now that the new table is committed — validated, because a
        // version can sit shadowed in the old last level across many GC
        // passes, and GC (which resolves by the newest version) may have
        // reclaimed its extent long before this merge dropped its slot.
        for old in drops {
            crate::store::credit_dead_slot(env.log, ctx, env.metrics, old.hash, old.loc);
        }
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.last = Some(TableHandle::new(table, env.dev));
        // Replace (never clear) the shared ABI: views from before this
        // publish keep the old one, which covers the new last level.
        self.abi = Arc::new(SharedTable::new(env.cfg.upper_capacity_slots()));
        self.abi_unpersisted_floor = None;
        self.publish(env, ctx);
        StoreMetrics::bump(&env.metrics.lane(ctx).last_compactions);
        let delta = env
            .obs
            .span_end(span, ctx.clock.now(), env.dev.stats())
            .unwrap_or_default();
        env.obs.record_event(
            ctx.clock.now(),
            EventKind::LastCompaction {
                shard: self.id,
                slots_in: total,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }

    /// Flushes any frozen and live MemTables and folds everything into the
    /// last level (used by tests and by explicit checkpointing). The
    /// store drains the worker pool before calling this, but concurrent
    /// puts may refreeze — the loop below clears whatever is pending.
    pub fn force_checkpoint(&mut self, env: &ShardEnv<'_>, ctx: &mut ThreadCtx) -> Result<()> {
        self.freeze_memtable(env, ctx);
        while self.process_one_frozen(env, ctx)? {}
        if !self.abi.is_empty() || !self.dumped.is_empty() {
            self.compact_last_level(env, ctx)?;
        }
        Ok(())
    }
}

/// Draws the per-shard randomized load-factor threshold (§2.5).
pub(crate) fn shard_load_threshold(cfg: &ChameleonConfig, shard: u32) -> f64 {
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
