//! The ChameleonDB store: the [`ChameleonDb`] handle, the shared
//! [`StoreInner`] that every operation and every shard maintenance pass
//! runs against, and the maintenance worker loop.
//!
//! One submodule per path: `write` (put, delete, group commit), `read`
//! (the get probe and range scans), `gc` (value-log GC and dead-byte
//! crediting) and `recover` (create, crash recovery, and the assembly
//! both share).

mod gc;
mod read;
mod recover;
#[cfg(test)]
mod tests;
mod write;

use std::collections::HashMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use chameleon_obs::span::SpanStart;
use chameleon_obs::{CounterSection, EventKind, Obs, ObsSnapshot, Stage};
use kvapi::{CrashRecover, KvStore, LogSpaceStats, Result};
use kvlog::{LogWriter, StorageLog};
use kvorder::OrderedIndex;
use kvsync::{EpochDomain, ViewCell};
use parking_lot::Mutex;
use pmem_sim::{CostModel, PmemDevice, StatsSnapshot, ThreadCtx};

use crate::config::ChameleonConfig;
use crate::maint::{Job, Maint, MaintFailure};
use crate::manifest::{Manifest, ManifestRecord};
use crate::metrics::{StoreMetrics, StoreMetricsSnapshot};
use crate::mode::{Mode, ModeController};
use crate::shard::Shard;
use crate::view::ShardView;

pub use write::BatchOp;

/// Manifest plus an in-DRAM mirror of the live-table set, so overflow
/// rewrites never need to lock other shards.
pub(crate) struct MetaLog {
    manifest: Manifest,
    registry: Mutex<HashMap<u64, ManifestRecord>>,
}

impl MetaLog {
    pub(crate) fn commit(&self, ctx: &mut ThreadCtx, records: &[ManifestRecord]) -> Result<()> {
        let snapshot: Vec<ManifestRecord> = {
            let mut reg = self.registry.lock();
            for rec in records {
                match *rec {
                    ManifestRecord::Add { region, .. } => {
                        reg.insert(region.off, *rec);
                    }
                    ManifestRecord::Del { off } => {
                        reg.remove(&off);
                    }
                    // GC commits are point-in-time audit records; they
                    // never alter the live-table set.
                    ManifestRecord::Gc { .. } => {}
                }
            }
            reg.values().copied().collect()
        };
        self.manifest.append(ctx, records, move || snapshot)
    }
}

/// ChameleonDB (see the crate-level docs for the design overview).
///
/// The handle owns the background-maintenance worker pool; every other
/// piece of store state lives in the shared [`StoreInner`], reached
/// through `Deref`. Dropping the handle shuts the pipeline down
/// gracefully: queued maintenance is processed, then the workers join.
pub struct ChameleonDb {
    inner: Arc<StoreInner>,
    /// Maintenance worker handles; drained (joined) on shutdown.
    workers: Vec<JoinHandle<()>>,
}

/// All store state except the worker-thread handles. Public only because
/// it is `ChameleonDb`'s `Deref` target; not part of the stable API.
#[doc(hidden)]
pub struct StoreInner {
    pub(crate) dev: Arc<PmemDevice>,
    pub(crate) cfg: ChameleonConfig,
    pub(crate) log: Arc<StorageLog>,
    /// `max_threads` log writers, chosen by thread id (see `writer`) and
    /// installed by `open`; empty while recovery replays entries that
    /// are already in the log.
    writers: Vec<Mutex<LogWriter>>,
    /// Per-shard state behind two locks: `mem` for puts, `levels` for
    /// maintenance passes (see `shard/mod.rs`).
    pub(crate) shards: Vec<Shard>,
    /// Per-shard immutable read views; `get` loads one with a single
    /// atomic load under an epoch pin and never takes a shard lock.
    /// Every publish happens under the shard's `mem` lock.
    pub(crate) views: Vec<ViewCell<ShardView>>,
    /// Reader-pin domain for view reclamation (sized to `max_threads`).
    pub(crate) epochs: Arc<EpochDomain>,
    /// Ordered DRAM index over live *user keys* (range-scan support).
    /// `None` when `cfg.ordered_index` is off — scans then return
    /// [`kvapi::KvError::Unsupported`] and the write path pays nothing.
    /// Keyed by user key, so GC relocation (which only moves log entries)
    /// never touches it; `open` builds it from the live keys.
    order: Option<Arc<OrderedIndex>>,
    pub(crate) meta: MetaLog,
    pub(crate) metrics: StoreMetrics,
    pub(crate) mode: ModeController,
    pub(crate) obs: Obs,
    /// Background-maintenance coordination (queue, backpressure, drain).
    maint: Maint,
    /// At most one GC pass queued or running (set at trigger, cleared
    /// when the pass finishes), so a burst of puts over the space-amp
    /// target schedules one pass, not one per put.
    gc_pending: AtomicBool,
    /// The log's last seq when this store was recovered (0 for a fresh
    /// store). Replay can give an entry at or below it a second index
    /// slot, so only such an entry can have a last-level copy beside a
    /// newer structure's (DESIGN §6.2).
    pub(crate) restart_seq: u64,
}

impl Deref for ChameleonDb {
    type Target = StoreInner;

    fn deref(&self) -> &StoreInner {
        &self.inner
    }
}

impl std::fmt::Debug for ChameleonDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChameleonDb")
            .field("shards", &self.shards.len())
            .field("mode", &self.mode.mode())
            .finish_non_exhaustive()
    }
}

/// Routes a key hash to one of `shards` shards (a power of two): the
/// hash's top `log2(shards)` bits, so a single shard takes every hash.
fn route(shards: usize, hash: u64) -> usize {
    hash.checked_shr(64 - shards.trailing_zeros()).unwrap_or(0) as usize
}

/// The maintenance worker loop: pop a job (a shard's frozen-MemTable
/// chain, or a value-log GC pass), run it, signal stalled puts. Errors
/// and panics (including an injected `CrashPoint`) poison the pipeline;
/// the payload is re-raised on the next foreground thread that drains or
/// stalls.
fn worker_loop(inner: &StoreInner, worker: usize) {
    // Worker ids sit above the foreground range, but every per-thread
    // table is indexed modulo `max_threads`, so worker i still shares
    // log writer i, epoch pin slot i and counter lane i with foreground
    // thread i (ROADMAP 16). Giving GC a writer of its own moves where
    // relocations land: on `embed-update` it cut relocated bytes 7 % but
    // cost `restart_ms_sim` 8.5 % (6 of 6 pairs) for no wall-clock gain,
    // so relocations still share writer i.
    let mut ctx = ThreadCtx::for_thread(
        Arc::new(CostModel::default()),
        inner.cfg.max_threads + worker,
    );
    while let Some(job) = inner.maint.next_job() {
        let result = catch_unwind(AssertUnwindSafe(|| match job {
            Job::Shard(shard_idx) => inner.maintain_shard(shard_idx, &mut ctx),
            Job::Gc => inner.gc_once(&mut ctx),
        }));
        if matches!(job, Job::Gc) {
            // Allow the next trigger whether the pass succeeded or not;
            // a poisoned pipeline rejects the enqueue anyway.
            inner.gc_pending.store(false, Ordering::Release);
        }
        let failure = match result {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(MaintFailure::Err(e)),
            Err(payload) => Some(MaintFailure::Panic(payload)),
        };
        let failed = failure.is_some();
        inner.maint.job_done(failure);
        // Notify while holding the shard's `mem` lock: a stalled put
        // checks for failures and queue room under it before waiting, so
        // signalling under it closes the lost-wakeup window. On failure,
        // wake every shard — the pipeline is dead and all stalled puts
        // must surface the error rather than wait forever.
        if failed {
            for (i, cv) in inner.maint.shard_cvs.iter().enumerate() {
                let _guard = inner.shards[i].mem.lock();
                cv.notify_all();
            }
        } else if let Job::Shard(shard_idx) = job {
            let _guard = inner.shards[shard_idx].mem.lock();
            inner.maint.shard_cvs[shard_idx].notify_all();
        }
    }
}

impl ChameleonDb {
    /// Stops the worker pool and joins it. With `discard`, queued work is
    /// abandoned (the crash path); otherwise workers finish the queue
    /// first. Idempotent — later calls see an empty handle list.
    fn stop_workers(&mut self, discard: bool) {
        self.inner.maint.shutdown(discard);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ChameleonDb {
    fn drop(&mut self) {
        // Graceful shutdown drains the pipeline: frozen MemTables queued
        // for maintenance are still flushed/merged before workers exit.
        self.stop_workers(false);
    }
}

impl StoreInner {
    /// The device this store lives on.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// The store's configuration.
    pub fn config(&self) -> &ChameleonConfig {
        &self.cfg
    }

    /// The shared value log.
    pub fn log(&self) -> &Arc<StorageLog> {
        &self.log
    }

    /// Operation counters.
    pub fn metrics(&self) -> StoreMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode.mode()
    }

    /// Switches between Normal and Write-Intensive Mode (§2.3 calls this a
    /// user option).
    pub fn set_mode(&self, mode: Mode) {
        let from = self.mode.mode();
        self.mode.set_base(mode);
        let to = self.mode.mode();
        if from != to {
            // No ThreadCtx here, so no clock: ts=0 inherits the journal's
            // previous stamp (monotonic clamping).
            self.obs.record_event(
                0,
                EventKind::ModeTransition {
                    from: from.name(),
                    to: to.name(),
                    trigger: "set_mode",
                    p99_ns: 0,
                },
            );
        }
    }

    /// The observability hub (journal, spans, op histograms).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Unified observability snapshot at simulated time `now` (callers
    /// pass `ctx.clock.now()`): store counters, mode state, device media
    /// stats, per-stage write-amplification attribution, merged per-lane
    /// op latency histograms, and the journal tail.
    pub fn obs_snapshot(&self, now: u64) -> ObsSnapshot {
        self.obs_snapshot_with(now, Vec::new())
    }

    /// Like [`obs_snapshot`](Self::obs_snapshot), with caller-provided
    /// counter sections appended after the store's own — the hook a
    /// service layer uses to splice its front-end counters into the same
    /// JSON/Prometheus export.
    pub fn obs_snapshot_with(&self, now: u64, extra: Vec<CounterSection>) -> ObsSnapshot {
        let mode_num = match self.mode.mode() {
            Mode::Normal => 0u64,
            Mode::WriteIntensive => 1,
            Mode::GetProtect => 2,
        };
        let mut sections = vec![
            CounterSection {
                name: "store",
                counters: self.metrics.snapshot().counters(),
            },
            CounterSection {
                name: "mode",
                counters: vec![
                    ("current", mode_num),
                    ("observed_p99_ns", self.mode.last_p99()),
                ],
            },
        ];
        let space = self.log.space_stats();
        let (scanned, skipped) = self.log.recovery_scan_stats();
        sections.push(CounterSection {
            name: "log",
            counters: vec![
                ("appended_bytes", space.appended_bytes),
                ("live_bytes", space.live_bytes),
                ("dead_bytes", space.dead_bytes),
                ("footprint_bytes", space.footprint_bytes),
                ("space_amp_milli", space.space_amp_milli()),
                ("live_ratio_milli", space.live_ratio_milli()),
                ("in_use_extents", self.log.in_use_extents()),
                ("recovery_extents_scanned", scanned),
                ("recovery_extents_skipped", skipped),
            ],
        });
        sections.extend(extra);
        self.obs
            .snapshot(now, sections, self.dev.stats().snapshot())
    }

    /// Flushes every MemTable and folds all upper levels into the last
    /// level (test/maintenance aid; equivalent to a full checkpoint).
    /// Drains the background-maintenance pipeline first, so the result is
    /// the same fully-compacted state the inline-maintenance store gave.
    pub fn checkpoint(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.maint.drain()?;
        self.sync_writers(ctx)?;
        for shard in &self.shards {
            shard.levels.lock().force_checkpoint(self, ctx)?;
        }
        Ok(())
    }

    /// Blocks until every queued and in-flight background-maintenance
    /// request has completed, surfacing any worker failure (a panicking
    /// worker's payload — e.g. an injected crash — is re-raised here).
    /// Harnesses call this before asserting on maintenance counters.
    pub fn drain_maintenance(&self) -> Result<()> {
        self.maint.drain()
    }

    /// One background maintenance pass: process the oldest frozen
    /// MemTable of `shard_idx` (flush or WIM merge, plus any cascading
    /// dump/compaction), republishing the read view as it goes. Runs on a
    /// worker thread under the shard's `levels` lock, so puts to the
    /// shard keep going — exactly the chain a store without a pool runs
    /// on the write that froze the table.
    fn maintain_shard(&self, shard_idx: usize, ctx: &mut ThreadCtx) -> Result<()> {
        self.shards[shard_idx]
            .levels
            .lock()
            .process_one_frozen(self, ctx)?;
        Ok(())
    }

    /// Opens a maintenance span on `ctx`'s clock and media-counter lane:
    /// passes run concurrently on different workers, so a span claims
    /// only its own thread's traffic.
    pub(crate) fn span_start(&self, stage: Stage, ctx: &ThreadCtx) -> Option<SpanStart> {
        self.obs
            .span_start(stage, ctx.clock.now(), self.dev.stats().lane(ctx))
    }

    /// Closes a span opened by [`Self::span_start`] on the same thread;
    /// returns its media delta.
    pub(crate) fn span_end(
        &self,
        span: Option<SpanStart>,
        ctx: &ThreadCtx,
    ) -> Option<StatsSnapshot> {
        self.obs
            .span_end(span, ctx.clock.now(), self.dev.stats().lane(ctx))
    }

    /// Value-log space accounting (appended / live / dead / footprint).
    pub fn space_stats(&self) -> LogSpaceStats {
        self.log.space_stats()
    }

    /// Flushes every per-thread log writer. Unlike [`sync`](KvStore::sync)
    /// this does not drain the pipeline, so maintenance code (which runs
    /// *inside* the pipeline) can call it without self-deadlock.
    ///
    /// A shard calls this before it commits a table whose slots may
    /// reference MemTable or ABI entries: their log appends can still sit
    /// in an unfenced writer batch, and the commit advances
    /// `checkpoint_seq` past them — after a crash the slots would point
    /// at zeroed log bytes and replay would skip the lost entries. During
    /// recovery replay no writer is installed yet, so it flushes nothing:
    /// every replayed entry is already durable in the log.
    pub(crate) fn sync_writers(&self, ctx: &mut ThreadCtx) -> Result<()> {
        for w in &self.writers {
            w.lock().flush(ctx)?;
        }
        Ok(())
    }

    /// The calling thread's log writer.
    fn writer(&self, ctx: &ThreadCtx) -> &Mutex<LogWriter> {
        &self.writers[ctx.thread_id % self.writers.len()]
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        route(self.shards.len(), hash)
    }
}

impl KvStore for ChameleonDb {
    fn name(&self) -> &'static str {
        "chameleondb"
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
        self.inner.put(ctx, key, value)
    }

    fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool> {
        self.get_traced(ctx, key, out, None)
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
        self.inner.delete(ctx, key)
    }

    fn scan(&self, ctx: &mut ThreadCtx, start_key: u64, limit: usize) -> Result<Vec<u64>> {
        self.inner.scan(ctx, start_key, limit)
    }

    /// Global durability point: drains background maintenance (whose
    /// flushes may themselves fence the log) and flushes every writer.
    fn sync(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.maint.drain()?;
        self.sync_writers(ctx)
    }

    fn dram_footprint(&self) -> u64 {
        let order = self.order.as_ref().map_or(0, |o| o.dram_bytes());
        self.shards.iter().map(Shard::dram_bytes).sum::<u64>() + order
    }

    fn approx_len(&self) -> u64 {
        self.shards.iter().map(Shard::approx_len).sum()
    }
}

impl CrashRecover for ChameleonDb {
    fn crash_and_recover(&mut self, ctx: &mut ThreadCtx) -> Result<()> {
        self.crash_and_recover_with(ctx, None)
    }
}

impl ChameleonDb {
    /// [`CrashRecover::crash_and_recover`], its restart walk on `threads`
    /// threads if given, else on as many as recovery derives.
    pub(crate) fn crash_and_recover_with(
        &mut self,
        ctx: &mut ThreadCtx,
        threads: Option<usize>,
    ) -> Result<()> {
        // Stop the worker pool *before* the simulated power cut: a crash
        // abandons queued maintenance (it is not a graceful shutdown), and
        // no worker may touch the device once the cut happens.
        self.stop_workers(true);
        self.dev.crash();
        let recovered =
            ChameleonDb::recover_with(Arc::clone(&self.dev), self.cfg.clone(), ctx, threads)?;
        // The old journal dies with the old store; mark the epoch boundary
        // in the recovered store's journal.
        recovered.obs.record_event(
            ctx.clock.now(),
            EventKind::Crash {
                crashes: recovered.dev.stats().snapshot().crashes,
            },
        );
        *self = recovered;
        Ok(())
    }
}
