//! A shard's level transitions (§2.1–§2.4): flush a frozen MemTable to
//! L0, fold it into the ABI instead (Write-Intensive / Get-Protect
//! Mode), dump the ABI, and the mid-level and last-level compactions.
//! Each one commits its tables through the manifest, republishes the
//! shard's view and credits the entries it drops as dead.

use std::sync::Arc;

use chameleon_obs::{EventKind, Stage};
use kvapi::Result;
use kvtables::{SharedTable, TableBuilder};
use pmem_sim::ThreadCtx;

use super::ShardMut;
use crate::config::CompactionScheme;
use crate::manifest::{ManifestRecord, LEVEL_DUMPED};
use crate::metrics::StoreMetrics;
use crate::store::StoreInner;
use crate::view::TableHandle;

impl ShardMut {
    /// Write-Intensive / Get-Protect path (§2.3): fold a frozen MemTable
    /// into the ABI without persisting an L0 table. The KV data itself is
    /// already durable in the storage log.
    pub(super) fn merge_table_into_abi(
        &mut self,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        table: &Arc<SharedTable>,
    ) -> Result<()> {
        self.make_abi_room(store, ctx, table.len())?;
        // Span starts *after* make_abi_room so any dump/last-compaction it
        // triggered is attributed to its own stage, not to the merge.
        let span = store.span_start(Stage::WimMerge, ctx);
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
                // for this overwrite. An identical word is a copy replay
                // made of a slot the ABI already held, not a new version.
                if old != slot.loc {
                    store.credit_dead_slot(ctx, self.id, old);
                }
            }
        }
        self.abi.note_seq(max_seq);
        // Every merged entry has seq > checkpoint_seq (older ones were
        // flushed), so this bounds the oldest table-less ABI resident.
        self.abi_unpersisted_floor
            .get_or_insert(self.checkpoint_seq + 1);
        // The merge is committed: retire the in-flight table from the
        // published view (its entries are covered by the ABI now).
        self.publish(store, ctx, true);
        StoreMetrics::bump(&store.metrics.lane(ctx).wim_merges);
        store.span_end(span, ctx);
        store.obs.record_event(
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
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        incoming: usize,
    ) -> Result<()> {
        // Leave headroom: a linear-probe table degrades sharply near 1.0.
        let limit = (self.abi.capacity() as f64 * 0.9) as usize;
        if self.abi.len() + incoming <= limit {
            return Ok(());
        }
        if store.mode.prefer_abi_dump() && self.dumped.len() < store.cfg.max_abi_dumps {
            self.dump_abi(store, ctx)
        } else {
            self.compact_last_level(store, ctx)
        }
    }

    /// Get-Protect Mode's cheap eviction: persist the ABI as an unmerged
    /// extra table instead of paying a last-level merge (Fig. 9).
    fn dump_abi(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<()> {
        if self.abi.is_empty() {
            return Ok(());
        }
        // The ABI holds WIM-merged MemTable entries whose log appends may
        // still be unfenced; the dumped table will cover their seqs.
        store.sync_writers(ctx)?;
        let span = store.span_start(Stage::AbiDump, ctx);
        let dumped_slots = self.abi.len() as u64;
        let threshold = self.load_threshold(store);
        let mut b = TableBuilder::sized_for(self.abi.len(), threshold);
        b.note_seq(self.abi.max_seq());
        for slot in self.abi.iter() {
            b.insert(ctx, slot, false)?;
        }
        let seq = self.next_table_seq();
        let table = b.build(&store.dev, ctx, self.id, LEVEL_DUMPED as u32, seq)?;
        store.meta.commit(
            ctx,
            &[ManifestRecord::Add {
                shard: self.id,
                level: LEVEL_DUMPED,
                table_seq: seq,
                region: table.region(),
            }],
        )?;
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.dumped.push(TableHandle::new(table, &store.dev));
        // Evict-by-replacement: views from before this publish keep the
        // old ABI (which covers the dumped table's contents).
        self.abi = Arc::new(SharedTable::new(store.cfg.upper_capacity_slots()));
        self.abi_unpersisted_floor = None;
        self.publish(store, ctx, false);
        StoreMetrics::bump(&store.metrics.lane(ctx).abi_dumps);
        let delta = store.span_end(span, ctx).unwrap_or_default();
        store.obs.record_event(
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
    pub(super) fn flush_table(
        &mut self,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        table_in: &Arc<SharedTable>,
    ) -> Result<()> {
        if table_in.is_empty() {
            store.shards[self.id as usize].mem.lock().in_flight = None;
            return Ok(());
        }
        // The frozen entries' log appends may still be unfenced; the L0
        // table commit below advances checkpoint_seq over them.
        store.sync_writers(ctx)?;
        self.make_abi_room(store, ctx, table_in.len())?;
        // Span starts *after* make_abi_room: an ABI dump or last-level
        // compaction it triggered is billed to its own stage.
        let span = store.span_start(Stage::Flush, ctx);
        let mut b = TableBuilder::new(store.cfg.memtable_slots);
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
        let table = b.build(&store.dev, ctx, self.id, 0, seq)?;
        store.meta.commit(
            ctx,
            &[ManifestRecord::Add {
                shard: self.id,
                level: 0,
                table_seq: seq,
                region: table.region(),
            }],
        )?;
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.uppers[0].push(TableHandle::new(table, &store.dev));
        let max_seq = table_in.max_seq();
        for slot in slots {
            if let Some(old) = self.abi.insert_bulk(ctx, slot)? {
                // See merge_table_into_abi: an ABI overwrite retires the
                // overwritten version's only read-path reference —
                // validated by extent generation in case GC reclaimed the
                // shadowed version's extent first — unless it is the same
                // word, a replayed copy.
                if old != slot.loc {
                    store.credit_dead_slot(ctx, self.id, old);
                }
            }
        }
        self.abi.note_seq(max_seq);
        // The flush is committed: the single publish below retires the
        // in-flight table and makes the ABI mirror and the new L0 table
        // visible together.
        self.publish(store, ctx, true);
        StoreMetrics::bump(&store.metrics.lane(ctx).flushes);
        let delta = store.span_end(span, ctx).unwrap_or_default();
        store.obs.record_event(
            ctx.clock.now(),
            EventKind::MemtableFlush {
                shard: self.id,
                slots: flushed,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }

    pub(super) fn maybe_compact(&mut self, store: &StoreInner, ctx: &mut ThreadCtx) -> Result<()> {
        let r = store.cfg.ratio;
        match store.cfg.compaction {
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
                    Some(j) => self.compact_uppers_into(store, ctx, j),
                    None => self.compact_last_level(store, ctx),
                }
            }
            CompactionScheme::LevelByLevel => {
                // Cascade one level at a time (Fig. 5a).
                loop {
                    let mut acted = false;
                    for j in 0..self.uppers.len() {
                        if self.uppers[j].len() >= r {
                            if j + 1 < self.uppers.len() {
                                self.compact_level_into_next(store, ctx, j)?;
                            } else {
                                self.compact_last_level(store, ctx)?;
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
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        target: usize,
    ) -> Result<()> {
        let mut inputs: Vec<Arc<TableHandle>> = Vec::new();
        for level in self.uppers[..target].iter_mut() {
            inputs.append(level);
        }
        self.merge_tables_to_level(store, ctx, inputs, target)?;
        StoreMetrics::bump(&store.metrics.lane(ctx).mid_compactions);
        Ok(())
    }

    /// Level-by-Level: merge level `j`'s tables into one table at `j+1`.
    fn compact_level_into_next(
        &mut self,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        j: usize,
    ) -> Result<()> {
        let inputs = std::mem::take(&mut self.uppers[j]);
        self.merge_tables_to_level(store, ctx, inputs, j + 1)?;
        StoreMetrics::bump(&store.metrics.lane(ctx).mid_compactions);
        Ok(())
    }

    /// Shared size-tiered merge: reads `inputs` from Pmem newest-first,
    /// dedups, writes one output table at `target_level`.
    fn merge_tables_to_level(
        &mut self,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
        mut inputs: Vec<Arc<TableHandle>>,
        target_level: usize,
    ) -> Result<()> {
        debug_assert!(!inputs.is_empty());
        let span = store.span_start(Stage::MidCompaction, ctx);
        let tables_in = inputs.len() as u64;
        inputs.sort_by_key(|t| std::cmp::Reverse(t.table().header().table_seq));
        let total: u64 = inputs.iter().map(|t| t.table().num_entries()).sum();
        let mut b = TableBuilder::sized_for(total as usize, self.load_threshold(store));
        for t in &inputs {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(&store.dev, ctx) {
                b.insert(ctx, slot, false)?;
            }
        }
        let seq = self.next_table_seq();
        let table = b.build(&store.dev, ctx, self.id, target_level as u32, seq)?;
        let mut records = vec![ManifestRecord::Add {
            shard: self.id,
            level: target_level as u8,
            table_seq: seq,
            region: table.region(),
        }];
        records.extend(inputs.iter().map(|t| ManifestRecord::Del {
            off: t.table().region().off,
        }));
        store.meta.commit(ctx, &records)?;
        // Inputs are logically dead; their regions are freed when the last
        // view holding them is reclaimed.
        for t in inputs {
            t.doom();
        }
        let slots_out = table.num_entries();
        self.uppers[target_level].push(TableHandle::new(table, &store.dev));
        self.publish(store, ctx, false);
        let delta = store.span_end(span, ctx).unwrap_or_default();
        store.obs.record_event(
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
    pub(super) fn compact_last_level(
        &mut self,
        store: &StoreInner,
        ctx: &mut ThreadCtx,
    ) -> Result<()> {
        self.ensure_abi(store, ctx)?;
        let dumped_entries: u64 = self.dumped.iter().map(|t| t.table().num_entries()).sum();
        let last_entries = self.last.as_ref().map_or(0, |t| t.table().num_entries());
        let total = self.abi.len() as u64 + dumped_entries + last_entries;
        if total == 0 {
            return Ok(());
        }
        // In WIM the ABI holds merged MemTable entries that may still be
        // unfenced in a log writer batch (mid-level inputs are already
        // durable tables, so only this last-level path needs the sync).
        store.sync_writers(ctx)?;
        // Span starts *after* ensure_abi so a post-restart rebuild is billed
        // to the abi_rebuild stage rather than to this compaction.
        let span = store.span_start(Stage::LastCompaction, ctx);
        let mut b = TableBuilder::sized_for(total as usize, self.load_threshold(store));
        // Newest first: ABI (DRAM reads — the Fig. 8 optimisation), then
        // dumped tables newest-first, then the old last level.
        b.note_seq(self.abi.max_seq());
        for slot in self.abi.iter() {
            ctx.charge(ctx.cost.dram_seq_line_ns);
            b.insert(ctx, slot, true)?;
        }
        for t in self.dumped.iter().rev() {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(&store.dev, ctx) {
                b.insert(ctx, slot, true)?;
            }
        }
        if let Some(t) = &self.last {
            b.note_seq(t.table().header().max_log_seq);
            for slot in t.table().iter_entries(&store.dev, ctx) {
                b.insert(ctx, slot, true)?;
            }
        }
        let last_level = (store.cfg.levels - 1) as u32;
        let seq = self.next_table_seq();
        let (table, drops) = b.build_and_drops(&store.dev, ctx, self.id, last_level, seq)?;
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
        store.meta.commit(ctx, &records)?;
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
            store.credit_dead_slot(ctx, self.id, old.loc);
        }
        self.checkpoint_seq = self.checkpoint_seq.max(table.header().max_log_seq);
        self.last = Some(TableHandle::new(table, &store.dev));
        // Replace (never clear) the shared ABI: views from before this
        // publish keep the old one, which covers the new last level.
        self.abi = Arc::new(SharedTable::new(store.cfg.upper_capacity_slots()));
        self.abi_unpersisted_floor = None;
        self.publish(store, ctx, false);
        StoreMetrics::bump(&store.metrics.lane(ctx).last_compactions);
        let delta = store.span_end(span, ctx).unwrap_or_default();
        store.obs.record_event(
            ctx.clock.now(),
            EventKind::LastCompaction {
                shard: self.id,
                slots_in: total,
                media_bytes: delta.media_bytes_written,
            },
        );
        Ok(())
    }
}
