//! The write path: put, delete and group commit, each through one
//! locked per-shard critical section that freezes a full MemTable,
//! appends to the log and inserts the slot.

use chameleon_obs::{EventKind, OpKind, TraceSpan};
use kvapi::{hash64, Result};
use kvtables::Slot;
use pmem_sim::ThreadCtx;

use super::StoreInner;
use crate::maint::{raise, Job};
use crate::metrics::StoreMetrics;

/// One write in a group-commit batch (see
/// [`ChameleonDb::apply_batch`](super::ChameleonDb)).
/// Owned values, so a network front-end can carry batches from connection
/// threads to a committer thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert/overwrite `key`.
    Put { key: u64, value: Vec<u8> },
    /// Delete `key` (appends a tombstone).
    Delete { key: u64 },
}

impl StoreInner {
    /// Applies a batch of writes through the calling thread's log writer,
    /// then makes the whole batch durable with one final flush — a single
    /// persist fence for the batch tail (plus the writer's automatic
    /// fences if the batch outgrows `log.batch_bytes`), instead of the
    /// fence-per-op a `put` + [`sync`](kvapi::KvStore::sync) loop pays.
    /// This is the group-commit entry point: callers must not acknowledge
    /// any op of the batch before this returns, because entries are
    /// durable only after the final flush.
    ///
    /// Each op takes the same locked per-shard append path as
    /// `put`/`delete`, so per-shard index order still matches log
    /// sequence order and recovery replay is unchanged. Returns one flag
    /// per op: `true` for puts, and for deletes whether the key existed.
    pub fn apply_batch(&self, ctx: &mut ThreadCtx, ops: &[BatchOp]) -> Result<Vec<bool>> {
        self.apply_batch_traced(ctx, ops, &[])
    }

    /// [`Self::apply_batch`] with per-op trace spans: ops whose slot in
    /// `spans` holds a span are stamped `engine_append` after their index
    /// insert and `engine_fence` once the batch's tail flush returns
    /// (one fence covers the whole batch, so every traced op's
    /// `engine_fence` stage measures its own wait for that shared fence).
    /// `spans` may be shorter than `ops`; missing slots mean untraced.
    pub fn apply_batch_traced(
        &self,
        ctx: &mut ThreadCtx,
        ops: &[BatchOp],
        spans: &[Option<&TraceSpan>],
    ) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            match op {
                BatchOp::Put { key, value } => {
                    self.put(ctx, *key, value)?;
                    out.push(true);
                }
                BatchOp::Delete { key } => {
                    out.push(self.delete(ctx, *key)?);
                }
            }
            if let Some(Some(span)) = spans.get(i) {
                span.stamp("engine_append");
            }
        }
        self.sync_writer(ctx)?;
        for span in spans.iter().flatten() {
            span.stamp("engine_fence");
        }
        Ok(out)
    }

    /// Flushes only the calling thread's log writer (one fence if it has
    /// unfenced bytes, none otherwise). [`sync`](kvapi::KvStore::sync)
    /// fences every writer and is the right call for global durability; a
    /// group committer that owns all appends of its batch only needs its
    /// own writer fenced.
    pub fn sync_writer(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.writer(ctx).lock().flush(ctx)
    }

    /// Routes one put/delete to its shard.
    fn write_slot(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<()> {
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let shard_idx = self.shard_of(hash);
        self.write_slot_hashed(ctx, hash, shard_idx, key, value, tombstone)?;
        // Checked after the shard lock is released: the trigger itself is
        // pure reads (no fence on the put path); an actual pass runs on
        // the worker pool (or on this thread when there is none).
        self.maybe_trigger_gc(ctx)
    }

    /// The shared put/delete critical section (hash and routing already
    /// charged by the caller).
    ///
    /// The log append deliberately stays *inside* the shard's `mem` lock:
    /// recovery replays each shard's pending entries in ascending
    /// sequence order, which is only meaningful if index-insert order
    /// matches log order per shard. Appending before the lock would let
    /// two writers to the same shard insert their slots in the opposite
    /// order of their log seqs, and a post-crash replay could then
    /// resurrect the older value.
    fn write_slot_hashed(
        &self,
        ctx: &mut ThreadCtx,
        hash: u64,
        shard_idx: usize,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<()> {
        let shard = &self.shards[shard_idx];
        let mut mem = shard.mem.lock();
        // Handle a full MemTable *before* the log append: freeze-and-swap
        // (one publish), then either run the maintenance pass on the
        // caller's clock (no worker pool) or enqueue it. The caller runs
        // it with `mem` released and `levels` held, exactly as a worker
        // does, then retakes `mem` and checks again — nothing has been
        // appended yet, so per-shard log order still holds. With a pool
        // whose frozen queue is at its cap, stall on the shard's condvar
        // until a worker retires a frozen table. Stalling must happen
        // before the append because the wait releases `mem`, and another
        // writer slipping in would otherwise break per-shard log/index
        // order. One stall episode may span several condvar waits;
        // journal one enter/exit pair around the whole episode so trace
        // dumps show a single bar with its total duration.
        let mut episode_stalled_ns = 0u64;
        let caller_runs = self.cfg.bg.workers == 0;
        while mem.memtable.is_full(mem.load_threshold) {
            if caller_runs {
                mem = shard.freeze_and_process(mem, self, ctx, shard_idx)?;
                continue;
            }
            if mem.pending_frozen() < self.cfg.bg.frozen_queue_cap {
                mem.freeze(self, ctx, shard_idx);
                self.maint.enqueue(Job::Shard(shard_idx));
                break;
            }
            if let Some(f) = self.maint.take_failure() {
                return Err(raise(f));
            }
            StoreMetrics::bump(&self.metrics.lane(ctx).write_stalls);
            if episode_stalled_ns == 0 {
                self.obs.record_event(
                    ctx.clock.now(),
                    EventKind::WriteStallEnter {
                        shard: shard_idx as u32,
                    },
                );
            }
            let start = std::time::Instant::now();
            self.maint.shard_cvs[shard_idx].wait(&mut mem);
            let stalled_ns = start.elapsed().as_nanos() as u64;
            // Wall-clock blocking: it feeds the dedicated stall histogram
            // and the journal pair, never the simulated clock, which
            // holds modelled costs only.
            self.obs.record_stall(stalled_ns);
            episode_stalled_ns = episode_stalled_ns.saturating_add(stalled_ns.max(1));
        }
        if episode_stalled_ns > 0 {
            self.obs.record_event(
                ctx.clock.now(),
                EventKind::WriteStallExit {
                    shard: shard_idx as u32,
                    stalled_ns: episode_stalled_ns,
                },
            );
        }
        let meta = self.writer(ctx).lock().append(ctx, key, value, tombstone)?;
        let slot = if tombstone {
            Slot::tombstone(hash, meta.loc())
        } else {
            Slot::new(hash, meta.loc())
        };
        if let Some(old) = mem.insert(ctx, slot, meta.seq)? {
            // A MemTable overwrite is the only reference the old entry
            // ever had (a loc lives in exactly one read-path structure);
            // credit its extent exactly once — unless replay gave it a
            // second slot.
            if !self.replay_copy_skips_credit(shard_idx, old) {
                self.credit_dead_word(ctx, old);
            }
        }
        // Maintain the ordered key index at the same publish point as the
        // hash index. The index is one tree shared by every shard, but a
        // key's mutations reach it only under its shard's `mem` lock, so
        // they apply in log order (a racing put+delete on one key cannot
        // leave the index disagreeing with the newest version).
        if let Some(order) = &self.order {
            if tombstone {
                order.remove(0, key);
            } else {
                order.insert(0, key);
            }
        }
        Ok(())
    }

    pub(super) fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
        StoreMetrics::bump(&self.metrics.lane(ctx).puts);
        let start = ctx.clock.now();
        self.write_slot(ctx, key, value, false)?;
        self.obs
            .record_op(ctx, OpKind::Put, ctx.clock.now().saturating_sub(start));
        Ok(())
    }

    pub(super) fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
        StoreMetrics::bump(&self.metrics.lane(ctx).deletes);
        let start = ctx.clock.now();
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let shard_idx = self.shard_of(hash);
        // Existence probe on the lock-free read view (the return value
        // linearizes here), then the same narrow critical section as put —
        // the `mem` lock is not held across a full index walk.
        let existed = {
            let pin = self.epochs.pin(ctx.thread_id);
            let view = self.views[shard_idx].load(&pin);
            matches!(
                view.get(&self.dev, ctx, hash, self.cfg.use_abi_for_get),
                Some((s, _)) if !s.is_tombstone()
            )
        };
        self.write_slot_hashed(ctx, hash, shard_idx, key, &[], true)?;
        self.maybe_trigger_gc(ctx)?;
        self.obs
            .record_op(ctx, OpKind::Delete, ctx.clock.now().saturating_sub(start));
        Ok(existed)
    }
}
