//! The read path: the lock-free get probe over a shard's published view,
//! and range scans that walk the ordered index with one cursor.

use std::sync::atomic::Ordering;

use chameleon_obs::{EventKind, OpKind, TraceSpan};
use kvapi::{hash64, KvError, Result};
use pmem_sim::ThreadCtx;

use super::StoreInner;
use crate::metrics::StoreMetrics;
use crate::mode::Mode;
use crate::view::GetSource;

impl StoreInner {
    /// Range scan: up to `limit` live keys `>= start_key`, ascending
    /// ([`kvapi::KvStore::scan`]). One `kvorder` cursor over the store's
    /// single tree yields them under one epoch pin. The index changes only
    /// in a key's put/delete critical section, after its log append, so
    /// outside that section it holds exactly the keys whose newest version
    /// is a live put (DESIGN §7.3), and a key it yields needs no probe.
    ///
    /// The cursor is charged as the tree walk it is: a dependent DRAM miss
    /// per level on the seek (root, inner node, leaf), one per further
    /// leaf entered, and a key compare per key yielded.
    pub fn scan(&self, ctx: &mut ThreadCtx, start_key: u64, limit: usize) -> Result<Vec<u64>> {
        let Some(order) = &self.order else {
            return Err(KvError::Unsupported("range scan (ordered_index off)"));
        };
        let lane = self.metrics.lane(ctx);
        StoreMetrics::bump(&lane.scans);
        let start = ctx.clock.now();
        ctx.charge(ctx.cost.op_overhead_ns);
        let mut keys = Vec::with_capacity(limit.min(1024));
        if limit > 0 {
            let pin = self.epochs.pin(ctx.thread_id);
            let mut cursor = order.range_from(0, start_key, &pin);
            keys.extend(cursor.by_ref().take(limit));
            let misses = 3 + cursor.leaves_entered() as u64;
            ctx.charge(misses * ctx.cost.dram_random_ns + keys.len() as u64 * ctx.cost.key_cmp_ns);
        }
        lane.scanned_keys
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let elapsed = ctx.clock.now().saturating_sub(start);
        self.obs.record_op(ctx, OpKind::Scan, elapsed);
        self.obs.record_scan_keys(keys.len() as u64);
        Ok(keys)
    }

    /// [`kvapi::KvStore::get`] with an optional trace span: the span is
    /// stamped `engine_probe` after the lock-free view walk (annotated
    /// with the level that answered) and `engine_read` after the media
    /// read of the value, decomposing a GET into index-walk vs media time.
    pub fn get_traced(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        out: &mut Vec<u8>,
        span: Option<&TraceSpan>,
    ) -> Result<bool> {
        let lane = self.metrics.lane(ctx);
        StoreMetrics::bump(&lane.gets);
        let start = ctx.clock.now();
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let shard_idx = self.shard_of(hash);
        // Lock-free hit path: one epoch pin plus one atomic view load — no
        // shard lock, so readers never serialize against each other or
        // against an in-progress flush/compaction on the same shard. The
        // pin must stay held across the log read below, not just the view
        // walk: GC quarantines an emptied extent until every pre-repoint
        // pin drains, so a location word resolved under this pin is
        // readable for as long as the pin lives — and no longer.
        let pin = self.epochs.pin(ctx.thread_id);
        let found = {
            let view = self.views[shard_idx].load(&pin);
            if view.degraded(self.cfg.use_abi_for_get) {
                StoreMetrics::bump(&lane.degraded_gets);
            }
            view.get(&self.dev, ctx, hash, self.cfg.use_abi_for_get)
        };
        if let Some(span) = span {
            span.stamp("engine_probe");
            span.annotate(match found {
                None => "miss",
                Some((_, GetSource::MemTable)) => "memtable",
                Some((_, GetSource::Abi)) => "abi",
                Some((_, GetSource::Upper)) => "upper",
                Some((_, GetSource::Dumped)) => "dumped",
                Some((_, GetSource::Last)) => "last",
            });
        }
        let result = match found {
            None => {
                StoreMetrics::bump(&lane.misses);
                Ok(false)
            }
            Some((slot, source)) => {
                let counter = match source {
                    GetSource::MemTable => &lane.memtable_hits,
                    GetSource::Abi => &lane.abi_hits,
                    GetSource::Upper => &lane.upper_hits,
                    GetSource::Dumped => &lane.dumped_hits,
                    GetSource::Last => &lane.last_hits,
                };
                StoreMetrics::bump(counter);
                if slot.is_tombstone() {
                    StoreMetrics::bump(&lane.misses);
                    Ok(false)
                } else {
                    let meta = self.log.read_entry(ctx, slot.location(), out)?;
                    if meta.key != key {
                        return Err(KvError::Corrupt("log entry key mismatch"));
                    }
                    if let Some(span) = span {
                        span.stamp("engine_read");
                    }
                    Ok(true)
                }
            }
        };
        drop(pin);
        let elapsed = ctx.clock.now() - start;
        self.obs.record_op(ctx, OpKind::Get, elapsed);
        if let Some(change) = self.mode.record_get_latency(elapsed) {
            let trigger = if change.to == Mode::GetProtect {
                StoreMetrics::bump(&lane.gpm_entries);
                "p99_above_enter_threshold"
            } else {
                "p99_below_exit_threshold"
            };
            self.obs.record_event(
                ctx.clock.now(),
                EventKind::ModeTransition {
                    from: change.from.name(),
                    to: change.to.name(),
                    trigger,
                    p99_ns: change.p99_ns,
                },
            );
        }
        result
    }
}
