//! Value-log garbage collection (DESIGN §6): the trigger, copy-forward
//! relocation of one sealed extent at a time, and the exactly-once
//! dead-byte crediting that tells GC which extents are worth collecting.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use chameleon_obs::Stage;
use kvapi::{hash64, Result};
use kvlog::{EntryMeta, StorageLog, ENTRY_HEADER};
use pmem_sim::ThreadCtx;

use super::StoreInner;
use crate::config::GcConfig;
use crate::maint::Job;
use crate::manifest::ManifestRecord;
use crate::metrics::StoreMetrics;
use crate::view::{GetSource, TableHandle};

impl StoreInner {
    /// Checks the GC trigger — space amplification above the configured
    /// target, with enough in-use extents for collection to matter — and
    /// schedules at most one pass (deduplicated by `gc_pending`). The
    /// check itself is pure reads: the put path never gains a fence from
    /// it. The pass runs on the worker pool, or on the caller's ctx when
    /// there is no pool (`bg.workers == 0`).
    pub(super) fn maybe_trigger_gc(&self, ctx: &mut ThreadCtx) -> Result<()> {
        if !self.cfg.gc.enabled {
            return Ok(());
        }
        if self.log.in_use_extents() < GcConfig::MIN_EXTENTS {
            return Ok(());
        }
        let amp = self.log.space_stats().space_amp_milli();
        if (amp as f64) < GcConfig::SPACE_AMP_TARGET * 1000.0 {
            return Ok(());
        }
        if self.gc_pending.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        if self.cfg.bg.workers > 0 {
            if !self.maint.enqueue(Job::Gc) {
                self.gc_pending.store(false, Ordering::Release);
            }
            Ok(())
        } else {
            let res = self.gc_once(ctx);
            self.gc_pending.store(false, Ordering::Release);
            res
        }
    }

    /// One GC pass: rank sealed extents by dead bytes, take the deadest
    /// few above the dead-ratio floor, and copy-forward each in turn.
    pub(super) fn gc_once(&self, ctx: &mut ThreadCtx) -> Result<()> {
        let cands: Vec<u64> = self
            .log
            .gc_candidates(1)
            .into_iter()
            .filter(|&(_, dead, appended)| {
                dead as f64 >= appended as f64 * GcConfig::MIN_DEAD_RATIO
            })
            .take(GcConfig::MAX_EXTENTS_PER_PASS)
            .map(|(idx, _, _)| idx)
            .collect();
        if cands.is_empty() {
            return Ok(());
        }
        let span = self.span_start(Stage::Gc, ctx);
        let lane = self.metrics.lane(ctx);
        StoreMetrics::bump(&lane.gc_runs);
        for idx in cands {
            let (relocated, bytes) = self.gc_extent(ctx, idx)?;
            lane.gc_relocated_entries
                .fetch_add(relocated, Ordering::Relaxed);
            lane.gc_relocated_bytes.fetch_add(bytes, Ordering::Relaxed);
            StoreMetrics::bump(&lane.gc_reclaimed_extents);
        }
        self.span_end(span, ctx);
        Ok(())
    }

    /// Copy-forward GC of one sealed extent.
    ///
    /// Per shard (under both its locks): fence every log writer so all
    /// index-referenced entries are durable, then for each of the
    /// extent's entries that the read path still resolves, append a
    /// sequence-preserving copy, fence the copies, and repoint the
    /// structures that can hold its location word — then republish the
    /// shard view. A word the read path found in the last level is
    /// repointed there only; any other word in the volatile tables, the
    /// upper tables and the dumped tables, and in the last level only if
    /// it was in the log at the store's latest restart: only replay puts
    /// a slot in the last level and another structure at once (DESIGN
    /// §6.2). Volatile tables take release stores, persistent tables
    /// unfenced 8-byte slot rewrites under one batched fence.
    ///
    /// Entries the read path no longer resolves are superseded by a newer
    /// version that the writer fence just made durable; their remaining
    /// stale slots (older upper/dumped levels) are never dereferenced —
    /// before or after a crash, some newer structure shadows them — so GC
    /// neither copies nor repoints them.
    ///
    /// Commit order for crash safety: relocations are fenced before any
    /// persistent slot points at them, the Gced state (which recovery
    /// answers by re-zeroing the extent) is persisted only after every
    /// repoint is durable, and the manifest's GC record lands after that.
    /// A crash anywhere leaves each reference pointing at one complete
    /// copy — old or new, never neither. The emptied extent is then
    /// quarantined behind the reader epoch (`synchronize`) before its
    /// bytes are zeroed, because a reader pinned before the repoint may
    /// still hold the old offset.
    pub(super) fn gc_extent(&self, ctx: &mut ThreadCtx, idx: u64) -> Result<(u64, u64)> {
        let entries = self.log.extent_entries(ctx, idx)?;
        let mut groups: Vec<Vec<(EntryMeta, Vec<u8>)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for e in entries {
            let shard_idx = self.shard_of(hash64(e.0.key));
            groups[shard_idx].push(e);
        }
        let mut relocated = 0u64;
        let mut moved_bytes = 0u64;
        for (shard_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // `levels` for the level tables the repoints rewrite, then
            // `mem`: with it held no new version of any of the shard's
            // keys can be appended, so after this fence "the read path
            // resolves a different location" implies "a newer durable
            // version exists" — the invariant that makes skipping
            // superseded entries crash-safe.
            let levels = self.shards[shard_idx].levels.lock();
            let mem = self.shards[shard_idx].mem.lock();
            self.sync_writers(ctx)?;
            // An entry is live iff the read path still resolves its hash
            // to exactly this location; probe the same view gets probe.
            // Repoints below rewrite slots inside these same tables, so
            // this is also the view republished once they are durable.
            let view = mem.view(&levels);
            let mut moves: Vec<(u64, u64, u64, GetSource, u64)> = Vec::new();
            {
                let mut w = self.writer(ctx).lock();
                for (meta, value) in &group {
                    let hash = hash64(meta.key);
                    let old_loc = meta.loc();
                    let Some((_, source)) = view
                        .get(&self.dev, ctx, hash, self.cfg.use_abi_for_get)
                        .filter(|(s, _)| s.location() == old_loc)
                    else {
                        continue;
                    };
                    let new = w.append_copy(ctx, meta, value)?;
                    relocated += 1;
                    moved_bytes += new.size();
                    moves.push((hash, old_loc, new.loc(), source, meta.seq));
                }
                // Relocated copies must be durable before any persistent
                // slot points at them.
                w.flush(ctx)?;
            }
            if moves.is_empty() {
                continue;
            }
            let mut persisted = false;
            let mut repoint = |t: &TableHandle, ctx: &mut ThreadCtx, hash, old_loc, new_loc| {
                persisted |= t
                    .table()
                    .repoint_slot(&self.dev, ctx, hash, old_loc, new_loc);
            };
            for &(hash, old_loc, new_loc, source, seq) in &moves {
                if self.restart_seq != 0 {
                    self.shards[shard_idx]
                        .replayed
                        .lock()
                        .repoint(old_loc, new_loc);
                }
                // Repoint every copy of the word, and only where one can
                // be (DESIGN §6.2). A word found in the last level is in
                // no other structure: the probe missed them all. A word
                // found elsewhere has no last-level copy, unless replay
                // gave its entry a second slot — a table held it above
                // its claim, and a last-level compaction absorbed that
                // table while the replayed copy stayed newer — which only
                // an entry already in the log at restart can have.
                if source != GetSource::Last {
                    mem.memtable.repoint(ctx, hash, old_loc, new_loc);
                    for t in &mem.frozen {
                        t.repoint(ctx, hash, old_loc, new_loc);
                    }
                    if let Some(t) = &mem.in_flight {
                        t.repoint(ctx, hash, old_loc, new_loc);
                    }
                    levels.abi.repoint(ctx, hash, old_loc, new_loc);
                    for t in levels.uppers.iter().flatten().chain(&levels.dumped) {
                        repoint(t, ctx, hash, old_loc, new_loc);
                    }
                }
                if let Some(t) = &levels.last {
                    if source == GetSource::Last || seq <= self.restart_seq {
                        repoint(t, ctx, hash, old_loc, new_loc);
                    }
                }
            }
            if persisted {
                self.dev.fence(ctx);
            }
            // Republish so readers arriving from here on resolve the new
            // locations; readers pinned earlier drain in the synchronize
            // below, before the old bytes vanish.
            self.views[shard_idx].publish(Arc::new(view));
            StoreMetrics::bump(&self.metrics.lane(ctx).view_publishes);
        }
        self.log.finish_gc(ctx, idx);
        self.meta.commit(
            ctx,
            &[ManifestRecord::Gc {
                extent: idx,
                relocated,
                bytes: moved_bytes,
            }],
        )?;
        self.epochs.synchronize();
        self.log.reclaim_extent(ctx, idx);
        Ok((relocated, moved_bytes))
    }

    /// Test oracle: walks every shard's read path and sums the on-log
    /// size of each *resident* referenced entry — distinct location words
    /// that still name a matching entry in an in-use extent. A word held
    /// twice (replay re-inserts an entry its L0 table still holds) counts
    /// once. Slots left stale by GC (the shadowed version's extent was
    /// reclaimed before a merge dropped the slot) are excluded, exactly as
    /// dead-byte crediting excludes them. On a store whose accounting
    /// never crossed a crash, `audit_live_bytes + dead == appended` — the
    /// exactly-once dead-byte crediting invariant; across crashes,
    /// `audit_live_bytes + dead <= appended`.
    ///
    /// Crediting decides residency from the extent generation alone; this
    /// oracle also reads each entry's header back, so the two agree only
    /// if the generation check is sound.
    #[doc(hidden)]
    pub fn audit_live_bytes(&self, ctx: &mut ThreadCtx) -> u64 {
        let mut slots = Vec::new();
        for shard in &self.shards {
            shard.slots_in_get_order(&self.dev, ctx, |sl| slots.push(sl));
        }
        slots.sort_unstable_by_key(|sl| sl.loc);
        slots.dedup_by_key(|sl| sl.loc);
        slots
            .into_iter()
            .map(|sl| resident_entry_bytes(&self.log, ctx, sl.hash, sl.loc).unwrap_or(0))
            .sum()
    }

    /// Whether dropping a slot holding `word` leaves its entry to the
    /// other of the two index slots replay can give it (DESIGN §6.3). A
    /// store that never restarted replayed nothing.
    pub(super) fn replay_copy_skips_credit(&self, shard: usize, word: u64) -> bool {
        self.restart_seq != 0 && self.shards[shard].replayed.lock().skip_credit(word)
    }

    /// Credits the entry behind a superseded location word as dead, against
    /// both the global counter and its extent. Call sites are chosen so every
    /// entry is credited exactly once — at the single moment the last
    /// read-path reference to it disappears (see DESIGN.md §6).
    ///
    /// Only for words that are provably fresh: a MemTable overwrite displaces
    /// the version that was the newest until this very put, which GC keeps
    /// repointed (under the same `mem` lock) for as long as it lives. Words
    /// read back from persistent tables may be stale — use
    /// [`Self::credit_dead_slot`] there.
    pub(super) fn credit_dead_word(&self, ctx: &mut ThreadCtx, word: u64) {
        let (off, hint) = kvlog::unpack_loc(word);
        // The hint bits carry the value length for all but oversized
        // values; a saturated hint falls back to reading the entry header.
        let bytes = if kvlog::loc_hint_saturated(word) {
            self.log
                .entry_size_at(ctx, off)
                .unwrap_or((ENTRY_HEADER + hint) as u64)
        } else {
            (ENTRY_HEADER + hint) as u64
        };
        self.log.note_dead_at(off, bytes);
    }

    /// Credits a superseded slot as dead if its location word still names
    /// a resident entry — decided in DRAM, without touching the log.
    ///
    /// A version that stopped being the newest keeps its index slot until a
    /// merge finally drops it (ABI overwrite, last-level compaction). In the
    /// gap, extent GC — which resolves liveness by the *newest* version —
    /// may have declared the entry dead, reclaimed its extent, and reused
    /// the space. The slot then points into an extent whose bytes already
    /// left the accounting wholesale at reclaim: crediting it again would
    /// inflate `dead_bytes` past `appended_bytes`, zero the live estimate,
    /// and drive GC into a thrash loop. Such a word names an extent that is
    /// no longer Active or Sealed, or one claimed again since, in a newer
    /// generation than the word carries (DESIGN §6.3); it is dropped and
    /// counted in `stale_credit_skips`.
    pub(crate) fn credit_dead_slot(&self, ctx: &mut ThreadCtx, shard: u32, word: u64) {
        if self.replay_copy_skips_credit(shard as usize, word) {
            return;
        }
        if in_resident_generation(&self.log, word) {
            self.credit_dead_word(ctx, word);
        } else {
            StoreMetrics::bump(&self.metrics.lane(ctx).stale_credit_skips);
        }
    }
}

/// Whether `word` points into an extent that still holds data (Active or
/// Sealed) in the generation the word was written in. `(generation,
/// offset)` names one entry for 64 reuses of an extent (DESIGN §6.3).
pub(super) fn in_resident_generation(log: &StorageLog, word: u64) -> bool {
    let (off, _) = kvlog::unpack_loc(word);
    log.extent_index(off).is_some_and(|idx| {
        let (state, gen) = log.extent_state_gen(idx);
        matches!(
            state,
            kvlog::ExtentState::Active | kvlog::ExtentState::Sealed
        ) && gen == kvlog::loc_gen(word)
    })
}

/// The on-log size of the entry `word` points at, or `None` when the
/// word is stale: it fails [`in_resident_generation`], or the header at
/// its offset disagrees with the slot (key hash, tombstone flag, or size
/// hint).
fn resident_entry_bytes(
    log: &StorageLog,
    ctx: &mut ThreadCtx,
    hash: u64,
    word: u64,
) -> Option<u64> {
    if !in_resident_generation(log, word) {
        return None;
    }
    let (off, hint) = kvlog::unpack_loc(word);
    let meta = log.entry_meta_at(ctx, off).ok()?;
    if meta.seq == 0
        || meta.seq > log.last_seq()
        || hash64(meta.key) != hash
        || meta.tombstone != (word & kvtables::TOMBSTONE_BIT != 0)
    {
        return None;
    }
    let hint_ok = if kvlog::loc_hint_saturated(word) {
        meta.vlen >= hint
    } else {
        meta.vlen == hint
    };
    hint_ok.then_some((ENTRY_HEADER + meta.vlen) as u64)
}
