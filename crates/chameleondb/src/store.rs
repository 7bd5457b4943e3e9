//! The ChameleonDB store: shard routing, modes, persistence, recovery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use chameleon_obs::{CounterSection, EventKind, Obs, ObsSnapshot, OpKind, Stage, TraceSpan};
use kvapi::{hash64, key_of_hash, CrashRecover, KvError, KvStore, LogSpaceStats, Result};
use kvlog::{EntryMeta, LogWriter, StorageLog, ENTRY_HEADER};
use kvorder::OrderedIndex;
use kvsync::{EpochDomain, ViewCell};
use kvtables::{FixedHashTable, Slot};
use parking_lot::Mutex;
use pmem_sim::{CostModel, PRegion, PmemDevice, ThreadCtx};

use crate::config::{ChameleonConfig, GcConfig};
use crate::maint::{raise, Job, Maint, MaintFailure};
use crate::manifest::{Manifest, ManifestRecord, Superblock, LEVEL_DUMPED};
use crate::metrics::{StoreMetrics, StoreMetricsSnapshot};
use crate::mode::{Mode, ModeController};
use crate::shard::{shard_load_threshold, ShardEnv, ShardMut};
use crate::view::{GetSource, ShardView, TableHandle};

/// Fixed offset of the superblock: the store must be the first allocator
/// client on its device (all harnesses construct stores that way).
pub const SUPERBLOCK_OFF: u64 = 256;

/// One write in a group-commit batch (see [`ChameleonDb::apply_batch`]).
/// Owned values, so a network front-end can carry batches from connection
/// threads to a committer thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert/overwrite `key`.
    Put { key: u64, value: Vec<u8> },
    /// Delete `key` (appends a tombstone).
    Delete { key: u64 },
}

/// Manifest plus an in-DRAM mirror of the live-table set, so overflow
/// rewrites never need to lock other shards.
struct MetaLog {
    manifest: Manifest,
    registry: Mutex<HashMap<u64, ManifestRecord>>,
}

impl MetaLog {
    fn commit(&self, ctx: &mut ThreadCtx, records: &[ManifestRecord]) -> Result<()> {
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
/// piece of store state lives in the shared [`StoreInner`] (reached
/// transparently through `Deref`, so `db.get(..)`, `db.metrics()` etc.
/// read as before). Dropping the handle shuts the pipeline down
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
    dev: Arc<PmemDevice>,
    cfg: ChameleonConfig,
    log: Arc<StorageLog>,
    writers: Vec<Mutex<LogWriter>>,
    shards: Vec<Mutex<ShardMut>>,
    /// Per-shard immutable read views; `get` loads one with a single
    /// atomic load under an epoch pin and never touches the shard mutex.
    views: Vec<ViewCell<ShardView>>,
    /// Reader-pin domain for view reclamation (sized to `max_threads`).
    epochs: Arc<EpochDomain>,
    /// Ordered DRAM index over live *user keys* (range-scan support).
    /// `None` when `cfg.ordered_index` is off — scans then return
    /// [`KvError::Unsupported`] and the write path pays nothing. Keyed by
    /// user key, so GC relocation (which only moves log entries) never
    /// touches it; recovery rebuilds it (see `rebuild_ordered_index`).
    order: Option<Arc<OrderedIndex>>,
    meta: MetaLog,
    metrics: StoreMetrics,
    mode: ModeController,
    obs: Obs,
    /// Background-maintenance coordination (queue, backpressure, drain).
    maint: Maint,
    /// At most one GC pass queued or running (set at trigger, cleared
    /// when the pass finishes), so a burst of puts over the space-amp
    /// target schedules one pass, not one per put.
    gc_pending: AtomicBool,
    shard_shift: u32,
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

/// The maintenance worker loop: pop a job (a shard's frozen-MemTable
/// chain, or a value-log GC pass), run it, signal stalled puts. Errors
/// and panics (including an injected `CrashPoint`) poison the pipeline;
/// the payload is re-raised on the next foreground thread that drains or
/// stalls.
fn worker_loop(inner: &StoreInner, worker: usize) {
    // Workers get thread ids above the foreground range so their epoch
    // pins and log-writer choices never collide with client threads.
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
        // Notify while holding the shard mutex: a stalled put checks for
        // failures and queue room under that mutex before waiting, so
        // signalling under it closes the lost-wakeup window. On failure,
        // wake every shard — the pipeline is dead and all stalled puts
        // must surface the error rather than wait forever.
        if failed {
            for (i, cv) in inner.maint.shard_cvs.iter().enumerate() {
                let _guard = inner.shards[i].lock();
                cv.notify_all();
            }
        } else if let Job::Shard(shard_idx) = job {
            let _guard = inner.shards[shard_idx].lock();
            inner.maint.shard_cvs[shard_idx].notify_all();
        }
    }
}

impl ChameleonDb {
    /// Wraps a fully-built inner store and spawns the worker pool (none
    /// with `bg.workers == 0`).
    fn start(inner: StoreInner) -> Self {
        let inner = Arc::new(inner);
        let workers = (0..inner.cfg.bg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("chameleon-maint-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn maintenance worker")
            })
            .collect();
        Self { inner, workers }
    }

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

impl ChameleonDb {
    /// Creates a fresh store on `dev`. The store must be the device's first
    /// allocator client (it anchors its superblock at the first block).
    pub fn create(dev: Arc<PmemDevice>, cfg: ChameleonConfig) -> Result<Self> {
        cfg.validate()
            .map_err(|_| KvError::Corrupt("invalid config"))?;
        let mut ctx = ThreadCtx::with_default_cost();
        let sb_off = dev.alloc(256)?;
        if sb_off != SUPERBLOCK_OFF {
            return Err(KvError::Corrupt(
                "store must be the first allocation on its device",
            ));
        }
        let manifest_regions = [
            dev.alloc_region(cfg.manifest_bytes)?,
            dev.alloc_region(cfg.manifest_bytes)?,
        ];
        let log = StorageLog::create(Arc::clone(&dev), cfg.log.clone())?;
        let sb = Superblock {
            epoch: 0,
            active: 0,
            log_region: log.region(),
            manifest: manifest_regions,
            blob: config_blob(&cfg),
        };
        sb.write(&dev, &mut ctx, sb_off);
        let manifest = Manifest::create(Arc::clone(&dev), sb_off, manifest_regions);
        let shards: Vec<ShardMut> = (0..cfg.shards as u32)
            .map(|i| ShardMut::new(i, &cfg, shard_load_threshold(&cfg, i)))
            .collect();
        let epochs = Arc::new(EpochDomain::new(cfg.max_threads));
        let views = shards
            .iter()
            .map(|s| ViewCell::new(Arc::clone(&epochs), Arc::new(s.snapshot_view())))
            .collect();
        let writers = (0..cfg.max_threads)
            .map(|_| Mutex::new(log.writer()))
            .collect();
        let base_mode = if cfg.write_intensive {
            Mode::WriteIntensive
        } else {
            Mode::Normal
        };
        let mode = ModeController::new(base_mode, cfg.gpm.clone());
        let obs = Obs::new(cfg.obs, cfg.shards);
        let maint = Maint::new(cfg.shards);
        let order = cfg
            .ordered_index
            .then(|| Arc::new(OrderedIndex::new(cfg.shards, Arc::clone(&epochs))));
        Ok(ChameleonDb::start(StoreInner {
            shard_shift: 64 - cfg.shards.trailing_zeros(),
            dev,
            cfg,
            log,
            writers,
            shards: shards.into_iter().map(Mutex::new).collect(),
            views,
            epochs,
            order,
            meta: MetaLog {
                manifest,
                registry: Mutex::new(HashMap::new()),
            },
            metrics: StoreMetrics::default(),
            mode,
            obs,
            maint,
            gc_pending: AtomicBool::new(false),
        }))
    }

    /// Reopens a store after a crash, charging the full restart cost
    /// (superblock + manifest replay, table-header reads, one log scan,
    /// MemTable reconstruction and, with the ordered index on, one walk of
    /// every shard's tables to rebuild it) to `ctx`. ABIs are rebuilt
    /// lazily at a shard's first structural transition (MemTable-full);
    /// until then gets on that shard take the degraded upper-level walk
    /// (counted in `degraded_gets`).
    pub fn recover(
        dev: Arc<PmemDevice>,
        cfg: ChameleonConfig,
        ctx: &mut ThreadCtx,
    ) -> Result<Self> {
        cfg.validate()
            .map_err(|_| KvError::Corrupt("invalid config"))?;
        let sb = Superblock::read(&dev, ctx, SUPERBLOCK_OFF)?;
        if sb.blob != config_blob(&cfg) {
            return Err(KvError::Corrupt("superblock config mismatch"));
        }
        let (manifest, live) = Manifest::open(Arc::clone(&dev), ctx, SUPERBLOCK_OFF, &sb)?;

        // Rebuild shard structures from the live-table set.
        let mut shards: Vec<ShardMut> = (0..cfg.shards as u32)
            .map(|i| ShardMut::new(i, &cfg, shard_load_threshold(&cfg, i)))
            .collect();
        let mut registry = HashMap::new();
        // Everything reachable from the superblock; the allocator's free
        // list is rebuilt as the gaps between these, so regions freed by
        // pre-crash compactions (or abandoned mid-build) are reclaimed.
        let mut live_regions: Vec<PRegion> = vec![
            PRegion {
                off: SUPERBLOCK_OFF,
                len: 256,
            },
            sb.log_region,
            sb.manifest[0],
            sb.manifest[1],
        ];
        let last_level = (cfg.levels - 1) as u8;
        for rec in live {
            let ManifestRecord::Add {
                shard,
                level,
                table_seq,
                region,
            } = rec
            else {
                return Err(KvError::Corrupt("live set contains a delete"));
            };
            if shard as usize >= shards.len() {
                return Err(KvError::Corrupt("manifest shard out of range"));
            }
            let table = FixedHashTable::open(&dev, ctx, region)?;
            live_regions.push(region);
            registry.insert(region.off, rec);
            let s = &mut shards[shard as usize];
            s.table_seq = s.table_seq.max(table_seq);
            s.checkpoint_seq = s.checkpoint_seq.max(table.header().max_log_seq);
            if level == LEVEL_DUMPED {
                s.dumped.push(TableHandle::new(table, &dev));
            } else if level == last_level {
                if s.last.is_some() {
                    return Err(KvError::Corrupt("two last-level tables in one shard"));
                }
                s.last = Some(TableHandle::new(table, &dev));
            } else if (level as usize) < cfg.levels - 1 {
                s.uppers[level as usize].push(TableHandle::new(table, &dev));
            } else {
                return Err(KvError::Corrupt("manifest level out of range"));
            }
        }
        for s in &mut shards {
            for level in &mut s.uppers {
                level.sort_by_key(|t| t.table().header().table_seq);
            }
            s.dumped.sort_by_key(|t| t.table().header().table_seq);
            // The upper levels are the durable source of truth for the ABI;
            // mark it stale until rebuilt.
            s.abi_valid = s.uppers.iter().all(|l| l.is_empty());
        }
        dev.reset_allocator_from_live(&live_regions);

        // Single log scan: recovers the append cursor and collects the
        // newest version of every entry above its shard's checkpoint.
        // Sealed extents whose recorded max sequence is at or below every
        // shard's checkpoint hold nothing worth replaying — their entries
        // are all covered by persisted tables — so the scan skips their
        // contents entirely (the restart-gap optimisation the per-extent
        // seal summaries exist for).
        let skip_seq_floor = shards
            .iter()
            .map(|s| s.checkpoint_seq)
            .min()
            .unwrap_or_default();
        let shard_shift = 64 - cfg.shards.trailing_zeros();
        let nshards = cfg.shards;
        let cfg_obs = cfg.obs;
        let shard_of = move |hash: u64| {
            if nshards == 1 {
                0usize
            } else {
                (hash >> shard_shift) as usize
            }
        };
        let mut pending: HashMap<u64, EntryMeta> = HashMap::new();
        let log = StorageLog::reopen_scan(
            Arc::clone(&dev),
            sb.log_region,
            cfg.log.clone(),
            ctx,
            skip_seq_floor,
            |meta| {
                let hash = hash64(meta.key);
                let shard = shard_of(hash);
                if meta.seq > shards[shard].checkpoint_seq {
                    let e = pending.entry(hash).or_insert(meta);
                    if meta.seq >= e.seq {
                        *e = meta;
                    }
                }
            },
        )?;

        let epochs = Arc::new(EpochDomain::new(cfg.max_threads));
        let views = shards
            .iter()
            .map(|s| ViewCell::new(Arc::clone(&epochs), Arc::new(s.snapshot_view())))
            .collect();
        // No worker pool during replay: recovery maintenance (mid-replay
        // flushes, compactions, ABI rebuilds) runs on this thread so the
        // ascending-seq replay invariant is untouched. The pool is
        // spawned at the end, together with the writers.
        let maint = Maint::new(cfg.shards);
        let order = cfg
            .ordered_index
            .then(|| Arc::new(OrderedIndex::new(cfg.shards, Arc::clone(&epochs))));
        let store = StoreInner {
            shard_shift,
            dev,
            cfg,
            log,
            writers: Vec::new(),
            shards: shards.into_iter().map(Mutex::new).collect(),
            views,
            epochs,
            order,
            meta: MetaLog {
                manifest,
                registry: Mutex::new(registry),
            },
            metrics: StoreMetrics::default(),
            mode: ModeController::new(Mode::Normal, Default::default()),
            obs: Obs::new(cfg_obs, nshards),
            maint,
            gc_pending: AtomicBool::new(false),
        };
        // Re-admit un-checkpointed entries through the normal insert path
        // (without re-logging them). A MemTable found full is frozen and
        // processed before the next insert, as on the write path with no
        // worker pool — so replay may flush and compact, exactly as the
        // paper's Write-Intensive-Mode recovery implies.
        {
            let commit =
                |ctx: &mut ThreadCtx, recs: &[ManifestRecord]| store.meta.commit(ctx, recs);
            // No writers are installed yet, so the log sync is a no-op:
            // every replayed entry is already durable in the log.
            let sync_log = |ctx: &mut ThreadCtx| store.sync_writers(ctx);
            let env = ShardEnv {
                dev: &store.dev,
                cfg: &store.cfg,
                log: &store.log,
                metrics: &store.metrics,
                mode: &store.mode,
                obs: &store.obs,
                views: &store.views,
                commit: &commit,
                sync_log: &sync_log,
            };
            // Re-admit in ascending sequence order. This preserves the
            // invariant that a flushed table's max_log_seq dominates every
            // entry inserted before it — otherwise a mid-replay flush could
            // advance the shard checkpoint past entries still in the
            // volatile MemTable, and a second crash would lose them.
            let mut ordered: Vec<(u64, EntryMeta)> = pending.into_iter().collect();
            ordered.sort_by_key(|(_, m)| m.seq);
            for (hash, meta) in ordered {
                let shard = shard_of(hash);
                let slot = if meta.tombstone {
                    Slot::tombstone(hash, meta.loc())
                } else {
                    Slot::new(hash, meta.loc())
                };
                let mut s = store.shards[shard].lock();
                if s.memtable.is_full(s.load_threshold) {
                    s.freeze_memtable(&env, ctx);
                    s.process_one_frozen(&env, ctx)?;
                }
                s.insert(ctx, slot, meta.seq)?;
            }
        }
        store.rebuild_ordered_index(ctx);
        // Now that recovery is done, install the configured mode and the
        // per-thread writers.
        let base_mode = if store.cfg.write_intensive {
            Mode::WriteIntensive
        } else {
            Mode::Normal
        };
        let mode = ModeController::new(base_mode, store.cfg.gpm.clone());
        let writers = (0..store.cfg.max_threads)
            .map(|_| Mutex::new(store.log.writer()))
            .collect();
        Ok(ChameleonDb::start(StoreInner {
            mode,
            writers,
            ..store
        }))
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
    /// stats, per-stage write-amplification attribution, merged per-shard
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
        let commit = |ctx: &mut ThreadCtx, recs: &[ManifestRecord]| self.meta.commit(ctx, recs);
        let sync_log = |ctx: &mut ThreadCtx| self.sync_writers(ctx);
        let env = self.env(&commit, &sync_log);
        for shard in &self.shards {
            shard.lock().force_checkpoint(&env, ctx)?;
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
    /// worker thread, under the shard mutex — exactly the chain a store
    /// without a pool runs on the write that froze the table.
    fn maintain_shard(&self, shard_idx: usize, ctx: &mut ThreadCtx) -> Result<()> {
        let commit = |ctx: &mut ThreadCtx, recs: &[ManifestRecord]| self.meta.commit(ctx, recs);
        let sync_log = |ctx: &mut ThreadCtx| self.sync_writers(ctx);
        let env = self.env(&commit, &sync_log);
        let mut shard = self.shards[shard_idx].lock();
        shard.process_one_frozen(&env, ctx)?;
        Ok(())
    }

    /// Value-log space accounting (appended / live / dead / footprint).
    pub fn space_stats(&self) -> LogSpaceStats {
        self.log.space_stats()
    }

    /// Checks the GC trigger — space amplification above the configured
    /// target, with enough in-use extents for collection to matter — and
    /// schedules at most one pass (deduplicated by `gc_pending`). The
    /// check itself is pure reads: the put path never gains a fence from
    /// it. The pass runs on the worker pool, or on the caller's ctx when
    /// there is no pool (`bg.workers == 0`).
    fn maybe_trigger_gc(&self, ctx: &mut ThreadCtx) -> Result<()> {
        if !self.cfg.gc.enabled || self.writers.is_empty() {
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
    fn gc_once(&self, ctx: &mut ThreadCtx) -> Result<()> {
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
        let span = self
            .obs
            .span_start(Stage::Gc, ctx.clock.now(), self.dev.stats());
        let lane = self.metrics.lane(ctx);
        StoreMetrics::bump(&lane.gc_runs);
        for idx in cands {
            let (relocated, bytes) = self.gc_extent(ctx, idx)?;
            lane.gc_relocated_entries
                .fetch_add(relocated, Ordering::Relaxed);
            lane.gc_relocated_bytes.fetch_add(bytes, Ordering::Relaxed);
            StoreMetrics::bump(&lane.gc_reclaimed_extents);
        }
        self.obs.span_end(span, ctx.clock.now(), self.dev.stats());
        Ok(())
    }

    /// Copy-forward GC of one sealed extent.
    ///
    /// Per shard (under its mutex): fence every log writer so all
    /// index-referenced entries are durable, then for each of the
    /// extent's entries that the read path still resolves, append a
    /// sequence-preserving copy, fence the copies, and repoint every
    /// index reference — volatile tables with release stores, persistent
    /// tables with unfenced 8-byte slot rewrites under one batched fence
    /// — then republish the shard view.
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
    fn gc_extent(&self, ctx: &mut ThreadCtx, idx: u64) -> Result<(u64, u64)> {
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
            let shard = self.shards[shard_idx].lock();
            // With the shard locked no new version of any of its keys can
            // be appended, so after this fence "the read path resolves a
            // different location" implies "a newer durable version
            // exists" — the invariant that makes skipping superseded
            // entries crash-safe.
            self.sync_writers(ctx)?;
            // An entry is live iff the read path still resolves its hash
            // to exactly this location; probe the same view gets probe.
            // Repoints below rewrite slots inside these same tables, so
            // this is also the view republished once they are durable.
            let view = shard.snapshot_view();
            let mut moves: Vec<(u64, u64, u64)> = Vec::new();
            {
                let writer = &self.writers[ctx.thread_id % self.writers.len()];
                let mut w = writer.lock();
                for (meta, value) in &group {
                    let hash = hash64(meta.key);
                    let old_loc = meta.loc();
                    let live = view
                        .get(&self.dev, ctx, hash, self.cfg.use_abi_for_get)
                        .is_some_and(|(s, _)| s.location() == old_loc);
                    if !live {
                        continue;
                    }
                    let new = w.append_copy(ctx, meta, value)?;
                    relocated += 1;
                    moved_bytes += new.size();
                    moves.push((hash, old_loc, new.loc()));
                }
                // Relocated copies must be durable before any persistent
                // slot points at them.
                w.flush(ctx)?;
            }
            if moves.is_empty() {
                continue;
            }
            let mut persisted = false;
            for &(hash, old_loc, new_loc) in &moves {
                shard.memtable.repoint(ctx, hash, old_loc, new_loc);
                for t in &shard.frozen {
                    t.repoint(ctx, hash, old_loc, new_loc);
                }
                if let Some(t) = &shard.in_flight {
                    t.repoint(ctx, hash, old_loc, new_loc);
                }
                shard.abi.repoint(ctx, hash, old_loc, new_loc);
                for t in shard.uppers.iter().flatten() {
                    persisted |= t
                        .table()
                        .repoint_slot(&self.dev, ctx, hash, old_loc, new_loc);
                }
                for t in &shard.dumped {
                    persisted |= t
                        .table()
                        .repoint_slot(&self.dev, ctx, hash, old_loc, new_loc);
                }
                if let Some(t) = &shard.last {
                    persisted |= t
                        .table()
                        .repoint_slot(&self.dev, ctx, hash, old_loc, new_loc);
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
    /// size of each *resident* referenced entry — slots whose location
    /// word still names a matching entry in an in-use extent. Slots left
    /// stale by GC (the shadowed version's extent was reclaimed before a
    /// merge dropped the slot) are excluded, exactly as dead-byte
    /// crediting excludes them. On a store whose accounting never crossed
    /// a crash, `audit_live_bytes + dead == appended` — the exactly-once
    /// dead-byte crediting invariant.
    #[doc(hidden)]
    pub fn audit_live_bytes(&self, ctx: &mut ThreadCtx) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            let s = shard.lock();
            let mut refs: Vec<(u64, u64)> = Vec::new();
            for t in std::iter::once(&s.memtable)
                .chain(s.frozen.iter())
                .chain(s.in_flight.iter())
            {
                refs.extend(t.iter().into_iter().map(|sl| (sl.hash, sl.loc)));
            }
            refs.extend(
                s.upper_slots(&self.dev, ctx)
                    .into_iter()
                    .map(|sl| (sl.hash, sl.loc)),
            );
            for t in &s.dumped {
                refs.extend(
                    t.table()
                        .iter_entries(&self.dev, ctx)
                        .into_iter()
                        .map(|sl| (sl.hash, sl.loc)),
                );
            }
            if let Some(t) = &s.last {
                refs.extend(
                    t.table()
                        .iter_entries(&self.dev, ctx)
                        .into_iter()
                        .map(|sl| (sl.hash, sl.loc)),
                );
            }
            drop(s);
            for (hash, loc) in refs {
                total += resident_entry_bytes(&self.log, ctx, hash, loc).unwrap_or(0);
            }
        }
        total
    }

    /// Rebuilds the volatile ordered key index at the end of recovery,
    /// before any writer or worker exists. One walk per shard in `get`'s
    /// precedence order — MemTable, ABI or uppers, dumped, last; replay
    /// maintenance is inline, so nothing is frozen — keeps the first slot
    /// per hash and skips tombstone winners. The user key is the hash's
    /// preimage ([`kvapi::key_of_hash`]), so no log entry is read. Each
    /// winner is its key's newest version, which GC repoints before it
    /// reclaims the old extent (DESIGN §6.2), so none is stale.
    fn rebuild_ordered_index(&self, ctx: &mut ThreadCtx) {
        let Some(order) = &self.order else {
            return;
        };
        for (idx, shard) in self.shards.iter().enumerate() {
            let s = shard.lock();
            let mut slots = s.memtable.iter();
            slots.extend(s.upper_slots(&self.dev, ctx));
            for t in s.dumped.iter().rev().chain(&s.last) {
                slots.extend(t.table().iter_entries(&self.dev, ctx));
            }
            drop(s);
            let mut seen = HashSet::with_capacity(slots.len());
            let mut keys: Vec<u64> = slots
                .into_iter()
                .filter(|sl| seen.insert(sl.hash) && !sl.is_tombstone())
                .map(|sl| key_of_hash(sl.hash))
                .collect();
            // Ascending inserts leave full leaves behind them.
            keys.sort_unstable();
            for key in keys {
                order.insert(idx, key);
            }
        }
    }

    /// Range scan: up to `limit` live keys `>= start_key`, ascending
    /// ([`KvStore::scan`]). A k-way merge over the per-shard `kvorder`
    /// cursors yields globally sorted candidates (shards partition the
    /// hash space, so a key lives in exactly one cursor); every candidate
    /// is then resolved through the newest-version probe under the same
    /// epoch pin, so results never include tombstoned or shadowed
    /// versions, and dead candidates do not count toward `limit`.
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
            let mut cursors: Vec<_> = (0..self.shards.len())
                .map(|i| order.range_from(i, start_key, &pin))
                .collect();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
            for (i, c) in cursors.iter_mut().enumerate() {
                if let Some(k) = c.next() {
                    heap.push(Reverse((k, i)));
                }
            }
            while keys.len() < limit {
                let Some(Reverse((key, i))) = heap.pop() else {
                    break;
                };
                if let Some(k) = cursors[i].next() {
                    heap.push(Reverse((k, i)));
                }
                let hash = hash64(key);
                let shard_idx = self.shard_of(hash);
                let view = self.views[shard_idx].load(&pin);
                match view.get(&self.dev, ctx, hash, self.cfg.use_abi_for_get) {
                    Some((slot, _)) if !slot.is_tombstone() => keys.push(key),
                    _ => {}
                }
            }
            drop(pin);
        }
        lane.scanned_keys
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let elapsed = ctx.clock.now().saturating_sub(start);
        // Cross-shard op; attribute the latency to the start key's shard.
        self.obs
            .record_op(self.shard_of(hash64(start_key)), OpKind::Scan, elapsed);
        self.obs.record_scan_keys(keys.len() as u64);
        Ok(keys)
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (hash >> self.shard_shift) as usize
        }
    }

    /// Applies a batch of writes through the calling thread's log writer,
    /// then makes the whole batch durable with one final flush — a single
    /// persist fence for the batch tail (plus the writer's automatic
    /// fences if the batch outgrows `log.batch_bytes`), instead of the
    /// fence-per-op a `put` + [`sync`](KvStore::sync) loop pays. This is
    /// the group-commit entry point: callers must not acknowledge any op
    /// of the batch before this returns, because entries are durable only
    /// after the final flush.
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
    /// unfenced bytes, none otherwise). [`sync`](KvStore::sync) fences
    /// every writer and is the right call for global durability; a group
    /// committer that owns all appends of its batch only needs its own
    /// writer fenced.
    pub fn sync_writer(&self, ctx: &mut ThreadCtx) -> Result<()> {
        if self.writers.is_empty() {
            return Ok(());
        }
        self.writers[ctx.thread_id % self.writers.len()]
            .lock()
            .flush(ctx)
    }

    fn env<'a>(
        &'a self,
        commit: &'a dyn Fn(&mut ThreadCtx, &[ManifestRecord]) -> Result<()>,
        sync_log: &'a dyn Fn(&mut ThreadCtx) -> Result<()>,
    ) -> ShardEnv<'a> {
        ShardEnv {
            dev: &self.dev,
            cfg: &self.cfg,
            log: &self.log,
            metrics: &self.metrics,
            mode: &self.mode,
            obs: &self.obs,
            views: &self.views,
            commit,
            sync_log,
        }
    }

    fn append_log(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<EntryMeta> {
        let writer = &self.writers[ctx.thread_id % self.writers.len()];
        let mut w = writer.lock();
        w.append(ctx, key, value, tombstone)
    }

    /// Routes one put/delete to its shard; returns the shard index so
    /// callers can attribute the op's latency sample.
    fn write_slot(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<usize> {
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let shard_idx = self.shard_of(hash);
        self.write_slot_hashed(ctx, hash, shard_idx, key, value, tombstone)?;
        // Checked after the shard lock is released: the trigger itself is
        // pure reads (no fence on the put path); an actual pass runs on
        // the worker pool (or on this thread when there is none).
        self.maybe_trigger_gc(ctx)?;
        Ok(shard_idx)
    }

    /// The shared put/delete critical section (hash and routing already
    /// charged by the caller).
    ///
    /// The log append deliberately stays *inside* the shard lock: recovery
    /// replays each shard's pending entries in ascending sequence order,
    /// which is only meaningful if index-insert order matches log order
    /// per shard. Appending before the lock would let two writers to the
    /// same shard insert their slots in the opposite order of their log
    /// seqs, and a post-crash replay could then resurrect the older value.
    fn write_slot_hashed(
        &self,
        ctx: &mut ThreadCtx,
        hash: u64,
        shard_idx: usize,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<()> {
        let commit = |ctx: &mut ThreadCtx, recs: &[ManifestRecord]| self.meta.commit(ctx, recs);
        let sync_log = |ctx: &mut ThreadCtx| self.sync_writers(ctx);
        let env = self.env(&commit, &sync_log);
        let mut shard = self.shards[shard_idx].lock();
        // Handle a full MemTable *before* the log append: freeze-and-swap
        // (one publish), then either run the maintenance pass right here
        // on the caller's clock (no worker pool) or enqueue it. With a
        // pool whose frozen queue is at its cap, stall on the shard's
        // condvar until a worker retires a frozen table. Stalling must
        // happen before the append because the wait releases the shard
        // mutex, and another writer slipping in would otherwise break
        // per-shard log/index order. One stall episode may span several
        // condvar waits; journal one enter/exit pair around the whole
        // episode so trace dumps show a single bar with its total duration.
        let mut episode_stalled_ns = 0u64;
        let caller_runs = self.cfg.bg.workers == 0;
        while shard.memtable.is_full(shard.load_threshold) {
            if caller_runs || shard.pending_frozen() < self.cfg.bg.frozen_queue_cap {
                shard.freeze_memtable(&env, ctx);
                if caller_runs {
                    shard.process_one_frozen(&env, ctx)?;
                } else {
                    self.maint.enqueue(Job::Shard(shard_idx));
                }
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
            self.maint.shard_cvs[shard_idx].wait(&mut shard);
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
        let meta = self.append_log(ctx, key, value, tombstone)?;
        let slot = if tombstone {
            Slot::tombstone(hash, meta.loc())
        } else {
            Slot::new(hash, meta.loc())
        };
        if let Some(old) = shard.insert(ctx, slot, meta.seq)? {
            // A MemTable overwrite is the only reference the old entry
            // ever had (a loc lives in exactly one read-path structure);
            // credit its extent exactly once.
            credit_dead_word(&self.log, ctx, old);
        }
        // Maintain the ordered key index at the same publish point as the
        // hash index, still under the shard mutex so per-shard order
        // matches log order (a racing put+delete on one key cannot leave
        // the index disagreeing with the newest version).
        if let Some(order) = &self.order {
            if tombstone {
                order.remove(shard_idx, key);
            } else {
                order.insert(shard_idx, key);
            }
        }
        Ok(())
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
        StoreMetrics::bump(&self.metrics.lane(ctx).puts);
        let start = ctx.clock.now();
        let shard_idx = self.write_slot(ctx, key, value, false)?;
        self.obs.record_op(
            shard_idx,
            OpKind::Put,
            ctx.clock.now().saturating_sub(start),
        );
        Ok(())
    }

    /// [`KvStore::get`] with an optional trace span: the span is stamped
    /// `engine_probe` after the lock-free view walk (annotated with the
    /// level that answered) and `engine_read` after the media read of the
    /// value, decomposing a GET into index-walk vs media time.
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
        // per-shard mutex, so readers never serialize against each other or
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
        self.obs.record_op(shard_idx, OpKind::Get, elapsed);
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

    fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool> {
        self.get_traced(ctx, key, out, None)
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
        StoreMetrics::bump(&self.metrics.lane(ctx).deletes);
        let start = ctx.clock.now();
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let shard_idx = self.shard_of(hash);
        // Existence probe on the lock-free read view (the return value
        // linearizes here), then the same narrow critical section as put —
        // the mutex is no longer held across a full index walk.
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
        self.obs.record_op(
            shard_idx,
            OpKind::Delete,
            ctx.clock.now().saturating_sub(start),
        );
        Ok(existed)
    }

    /// Global durability point: drains background maintenance (whose
    /// flushes may themselves fence the log) and flushes every writer.
    fn sync(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.maint.drain()?;
        self.sync_writers(ctx)
    }

    /// Flushes every per-thread log writer. Unlike [`sync`](Self::sync)
    /// this does not drain the pipeline, so maintenance code (which runs
    /// *inside* the pipeline) can call it without self-deadlock.
    fn sync_writers(&self, ctx: &mut ThreadCtx) -> Result<()> {
        for w in &self.writers {
            w.lock().flush(ctx)?;
        }
        Ok(())
    }

    fn dram_footprint(&self) -> u64 {
        let order = self.order.as_ref().map_or(0, |o| o.dram_bytes());
        self.shards
            .iter()
            .map(|s| s.lock().dram_bytes())
            .sum::<u64>()
            + order
    }

    fn approx_len(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().approx_len()).sum()
    }
}

/// Serializes the geometry-critical configuration into the superblock blob.
fn config_blob(cfg: &ChameleonConfig) -> [u8; 128] {
    let mut blob = [0u8; 128];
    blob[0..4].copy_from_slice(&(cfg.shards as u32).to_le_bytes());
    blob[4..8].copy_from_slice(&(cfg.memtable_slots as u32).to_le_bytes());
    blob[8..9].copy_from_slice(&(cfg.levels as u8).to_le_bytes());
    blob[9..10].copy_from_slice(&(cfg.ratio as u8).to_le_bytes());
    blob[16..24].copy_from_slice(&(cfg.upper_capacity_slots() as u64).to_le_bytes());
    blob[24..32].copy_from_slice(&cfg.log.capacity.to_le_bytes());
    blob[32..40].copy_from_slice(&cfg.manifest_bytes.to_le_bytes());
    blob[40..48].copy_from_slice(&cfg.seed.to_le_bytes());
    blob[48..56].copy_from_slice(&cfg.load_factor.0.to_bits().to_le_bytes());
    blob[56..64].copy_from_slice(&cfg.load_factor.1.to_bits().to_le_bytes());
    blob[64..72].copy_from_slice(&cfg.log.extent_bytes.to_le_bytes());
    blob
}

/// On-log size of the entry a location word points at. The hint bits
/// carry the value length for all but oversized values; saturated hints
/// fall back to reading the entry header.
fn entry_bytes(log: &StorageLog, ctx: &mut ThreadCtx, word: u64) -> u64 {
    let (off, hint) = kvlog::unpack_loc(word);
    if kvlog::loc_hint_saturated(word) {
        log.entry_size_at(ctx, off)
            .unwrap_or((ENTRY_HEADER + hint) as u64)
    } else {
        (ENTRY_HEADER + hint) as u64
    }
}

/// Credits the entry behind a superseded location word as dead, against
/// both the global counter and its extent. Call sites are chosen so every
/// entry is credited exactly once — at the single moment the last
/// read-path reference to it disappears (see DESIGN.md §6).
///
/// Only for words that are provably fresh: a MemTable overwrite displaces
/// the version that was the newest until this very put, which GC keeps
/// repointed (under the same shard lock) for as long as it lives. Words
/// read back from persistent tables may be stale — use
/// [`credit_dead_slot`] there.
pub(crate) fn credit_dead_word(log: &StorageLog, ctx: &mut ThreadCtx, word: u64) {
    let (off, _) = kvlog::unpack_loc(word);
    let bytes = entry_bytes(log, ctx, word);
    log.note_dead_at(off, bytes);
}

/// Credits a superseded slot as dead after verifying its location word
/// still names a resident entry.
///
/// A version that stopped being the newest keeps its index slot until a
/// merge finally drops it (ABI overwrite, last-level compaction). In the
/// gap, extent GC — which resolves liveness by the *newest* version —
/// may have declared the entry dead, reclaimed its extent, and reused
/// the space. The slot then points into an extent whose bytes already
/// left the accounting wholesale at reclaim: crediting it again would
/// inflate `dead_bytes` past `appended_bytes`, zero the live estimate,
/// and drive GC into a thrash loop. So the word is checked against the
/// log first; mismatches are dropped and counted in
/// `stale_credit_skips`.
pub(crate) fn credit_dead_slot(
    log: &StorageLog,
    ctx: &mut ThreadCtx,
    metrics: &StoreMetrics,
    hash: u64,
    word: u64,
) {
    match resident_entry_bytes(log, ctx, hash, word) {
        Some(bytes) => {
            let (off, _) = kvlog::unpack_loc(word);
            log.note_dead_at(off, bytes);
        }
        None => StoreMetrics::bump(&metrics.lane(ctx).stale_credit_skips),
    }
}

/// The on-log size of the entry `word` points at, or `None` when the
/// word is stale: its extent no longer holds data (Free, or Gced and
/// fully accounted), or the header at its offset disagrees with the slot
/// (key hash, tombstone flag, or size hint) because the extent was
/// reclaimed and the space reused.
pub(crate) fn resident_entry_bytes(
    log: &StorageLog,
    ctx: &mut ThreadCtx,
    hash: u64,
    word: u64,
) -> Option<u64> {
    let (off, hint) = kvlog::unpack_loc(word);
    let idx = log.extent_index(off)?;
    if !matches!(
        log.extent_state(idx),
        kvlog::ExtentState::Active | kvlog::ExtentState::Sealed
    ) {
        return None;
    }
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

impl KvStore for ChameleonDb {
    fn name(&self) -> &'static str {
        "chameleondb"
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
        self.inner.put(ctx, key, value)
    }

    fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool> {
        self.inner.get(ctx, key, out)
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
        self.inner.delete(ctx, key)
    }

    fn scan(&self, ctx: &mut ThreadCtx, start_key: u64, limit: usize) -> Result<Vec<u64>> {
        self.inner.scan(ctx, start_key, limit)
    }

    fn sync(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.inner.sync(ctx)
    }

    fn dram_footprint(&self) -> u64 {
        self.inner.dram_footprint()
    }

    fn approx_len(&self) -> u64 {
        self.inner.approx_len()
    }
}

impl CrashRecover for ChameleonDb {
    fn crash_and_recover(&mut self, ctx: &mut ThreadCtx) -> Result<()> {
        // Stop the worker pool *before* the simulated power cut: a crash
        // abandons queued maintenance (it is not a graceful shutdown), and
        // no worker may touch the device once the cut happens.
        self.stop_workers(true);
        self.dev.crash();
        let recovered = ChameleonDb::recover(Arc::clone(&self.dev), self.cfg.clone(), ctx)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompactionScheme;

    fn new_store(cfg: ChameleonConfig) -> ChameleonDb {
        let dev = PmemDevice::optane(512 << 20);
        ChameleonDb::create(dev, cfg).unwrap()
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::with_default_cost()
    }

    fn value_for(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    fn fill(db: &ChameleonDb, ctx: &mut ThreadCtx, n: u64) {
        for k in 0..n {
            db.put(ctx, k, &value_for(k)).unwrap();
        }
    }

    fn check_all(db: &ChameleonDb, ctx: &mut ThreadCtx, n: u64) {
        let mut out = Vec::new();
        for k in 0..n {
            assert!(db.get(ctx, k, &mut out).unwrap(), "key {k} missing");
            assert_eq!(out, value_for(k), "key {k} has wrong value");
        }
    }

    #[test]
    fn put_get_small() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 100);
        check_all(&db, &mut c, 100);
        let mut out = Vec::new();
        assert!(!db.get(&mut c, 10_000, &mut out).unwrap());
    }

    #[test]
    fn put_get_through_many_compactions() {
        // tiny: 8 shards x 64-slot memtables (upper capacity ~4096 entries
        // per shard); 60k keys force flushes, mid-level and last-level
        // compactions in every shard.
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 60_000);
        check_all(&db, &mut c, 60_000);
        db.drain_maintenance().unwrap();
        let m = db.metrics();
        assert!(m.flushes > 50, "expected many flushes, got {}", m.flushes);
        assert!(m.mid_compactions > 0, "expected mid compactions");
        assert!(m.last_compactions > 0, "expected last-level compactions");
    }

    #[test]
    fn overwrites_return_latest_value() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        for round in 0..5u64 {
            for k in 0..2000u64 {
                db.put(&mut c, k, &(k + round * 1000).to_le_bytes())
                    .unwrap();
            }
        }
        let mut out = Vec::new();
        for k in 0..2000u64 {
            assert!(db.get(&mut c, k, &mut out).unwrap());
            assert_eq!(out, (k + 4000).to_le_bytes());
        }
    }

    #[test]
    fn delete_hides_key_through_compactions() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 5000);
        for k in 0..2500u64 {
            assert!(db.delete(&mut c, k).unwrap());
        }
        // Push tombstones down through the levels.
        fill(&db, &mut c, 1); // keep store active
        db.checkpoint(&mut c).unwrap();
        let mut out = Vec::new();
        // Key 0 was re-put by fill(.., 1) above.
        assert!(db.get(&mut c, 0, &mut out).unwrap());
        for k in 1..2500u64 {
            assert!(!db.get(&mut c, k, &mut out).unwrap(), "key {k} not deleted");
        }
        check_all_range(&db, &mut c, 2500, 5000);
        assert!(!db.delete(&mut c, 99_999).unwrap());
    }

    fn check_all_range(db: &ChameleonDb, c: &mut ThreadCtx, lo: u64, hi: u64) {
        let mut out = Vec::new();
        for k in lo..hi {
            assert!(db.get(c, k, &mut out).unwrap(), "key {k} missing");
        }
    }

    #[test]
    fn checkpoint_moves_everything_to_last_level() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 3000);
        db.checkpoint(&mut c).unwrap();
        db.metrics(); // counters exist
        let mut out = Vec::new();
        for k in 0..3000u64 {
            assert!(db.get(&mut c, k, &mut out).unwrap());
        }
        // After a checkpoint, every hit must come from the last level.
        let before = db.metrics();
        assert_eq!(
            before.abi_hits + before.memtable_hits + before.upper_hits,
            {
                // hits before checkpoint happened during fill-phase? none: we
                // only read after checkpoint, so all 3000 hits are last-level.
                before.abi_hits + before.memtable_hits + before.upper_hits
            }
        );
        assert!(before.last_hits >= 3000);
    }

    #[test]
    fn level_by_level_compaction_also_works() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.compaction = CompactionScheme::LevelByLevel;
        let db = new_store(cfg);
        let mut c = ctx();
        fill(&db, &mut c, 20_000);
        check_all(&db, &mut c, 20_000);
        db.drain_maintenance().unwrap();
        assert!(db.metrics().mid_compactions > 0);
    }

    #[test]
    fn write_intensive_mode_skips_flushes() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.write_intensive = true;
        let db = new_store(cfg);
        let mut c = ctx();
        fill(&db, &mut c, 5000);
        check_all(&db, &mut c, 5000);
        db.drain_maintenance().unwrap();
        let m = db.metrics();
        assert_eq!(m.flushes, 0, "WIM must not flush MemTables to L0");
        assert!(m.wim_merges > 0, "WIM merges MemTables into the ABI");
    }

    #[test]
    fn write_intensive_mode_compacts_when_abi_fills() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.write_intensive = true;
        let db = new_store(cfg);
        let mut c = ctx();
        // tiny ABI: 64 * 64-ish slots; 60k distinct keys across 8 shards
        // will fill ABIs and force last-level compactions.
        fill(&db, &mut c, 60_000);
        check_all(&db, &mut c, 60_000);
        db.drain_maintenance().unwrap();
        assert!(db.metrics().last_compactions > 0);
    }

    #[test]
    fn mode_switch_at_runtime() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        assert_eq!(db.mode(), Mode::Normal);
        db.set_mode(Mode::WriteIntensive);
        fill(&db, &mut c, 3000);
        // Drain before asserting AND before the mode flips back — a
        // still-queued frozen table would otherwise be processed under
        // the new mode (mode is evaluated at processing time).
        db.drain_maintenance().unwrap();
        assert_eq!(db.metrics().flushes, 0);
        db.set_mode(Mode::Normal);
        fill(&db, &mut c, 3000);
        check_all(&db, &mut c, 3000);
    }

    #[test]
    fn dram_footprint_counts_memtables_and_abis() {
        // Exact accounting for the hash structures alone; the ordered
        // index adds its own (population-dependent) bytes on top, covered
        // by `ordered_index_counts_toward_dram_footprint`.
        let mut cfg = ChameleonConfig::tiny();
        cfg.ordered_index = false;
        let expected = (cfg.shards
            * (cfg.memtable_slots.next_power_of_two()
                + cfg.upper_capacity_slots().next_power_of_two())
            * 16) as u64;
        let db = new_store(cfg);
        assert_eq!(db.dram_footprint(), expected);
    }

    #[test]
    fn recover_restores_everything_after_clean_crash() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 10_000);
        db.sync(&mut c).unwrap();
        drop(db);
        dev.crash();
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        check_all(&db2, &mut c, 10_000);
    }

    #[test]
    fn recover_loses_only_unsynced_tail() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 5000);
        db.sync(&mut c).unwrap();
        // Unsynced puts: may or may not survive depending on batching, but
        // synced ones must all be there.
        for k in 5000..5100u64 {
            db.put(&mut c, k, &value_for(k)).unwrap();
        }
        drop(db);
        dev.crash();
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        check_all(&db2, &mut c, 5000);
    }

    #[test]
    fn recover_after_write_intensive_crash_replays_the_log() {
        let dev = PmemDevice::optane(512 << 20);
        let mut cfg = ChameleonConfig::tiny();
        cfg.write_intensive = true;
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 8000);
        db.sync(&mut c).unwrap();
        drop(db);
        dev.crash();
        cfg.write_intensive = false;
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        check_all(&db2, &mut c, 8000);
    }

    #[test]
    fn recovered_store_accepts_new_writes_and_deletes() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 4000);
        db.sync(&mut c).unwrap();
        drop(db);
        dev.crash();
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg.clone(), &mut c).unwrap();
        for k in 4000..8000u64 {
            db2.put(&mut c, k, &value_for(k)).unwrap();
        }
        db2.delete(&mut c, 0).unwrap();
        db2.sync(&mut c).unwrap();
        drop(db2);
        dev.crash();
        let db3 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        let mut out = Vec::new();
        assert!(!db3.get(&mut c, 0, &mut out).unwrap());
        for k in 1..8000u64 {
            assert!(db3.get(&mut c, k, &mut out).unwrap(), "key {k} missing");
        }
    }

    #[test]
    fn crash_recover_trait_roundtrip() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let mut db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 6000);
        db.sync(&mut c).unwrap();
        let before = c.clock.now();
        db.crash_and_recover(&mut c).unwrap();
        assert!(c.clock.now() > before, "recovery must cost simulated time");
        check_all(&db, &mut c, 6000);
    }

    #[test]
    fn recover_rejects_mismatched_config() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 100);
        db.sync(&mut c).unwrap();
        drop(db);
        dev.crash();
        let mut other = cfg;
        other.shards = 16;
        assert!(matches!(
            ChameleonDb::recover(dev, other, &mut c),
            Err(KvError::Corrupt(_))
        ));
    }

    #[test]
    fn gets_after_recovery_use_degraded_then_rebuilt_abi() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 10_000);
        db.sync(&mut c).unwrap();
        drop(db);
        dev.crash();
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        check_all(&db2, &mut c, 10_000);
        let m = db2.metrics();
        // ABI rebuilds are deferred to the first structural transition,
        // so pure reads after recovery take the degraded upper walk.
        assert_eq!(m.abi_rebuilds, 0);
        assert!(m.degraded_gets > 0 || m.upper_hits == 0);
    }

    #[test]
    fn values_of_various_sizes() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        let sizes = [0usize, 1, 8, 64, 255, 256, 257, 4096, 65536];
        for (i, &sz) in sizes.iter().enumerate() {
            let v = vec![i as u8; sz];
            db.put(&mut c, 1_000_000 + i as u64, &v).unwrap();
        }
        let mut out = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            assert!(db.get(&mut c, 1_000_000 + i as u64, &mut out).unwrap());
            assert_eq!(out.len(), sz);
            assert!(out.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn apply_batch_is_durable_at_return_with_one_tail_fence() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        // Small values: 16 ops * (24B header + 16B value) = 640B < 4KB
        // batch_bytes, so the only fence is apply_batch's final flush.
        let ops: Vec<BatchOp> = (0..16u64)
            .map(|k| BatchOp::Put {
                key: k,
                value: value_for(k),
            })
            .collect();
        let before = dev.fence_count();
        let outcomes = db.apply_batch(&mut c, &ops).unwrap();
        let after = dev.fence_count();
        assert_eq!(outcomes, vec![true; 16]);
        assert_eq!(
            after - before,
            1,
            "a sub-4KB batch must cost exactly one fence"
        );
        // Durable at return: crash without sync/checkpoint, then recover.
        drop(db);
        dev.crash();
        let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        check_all(&db2, &mut c, 16);
    }

    #[test]
    fn apply_batch_reports_delete_existence_and_applies_tombstones() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 10);
        let ops = vec![
            BatchOp::Delete { key: 3 },
            BatchOp::Put {
                key: 100,
                value: value_for(100),
            },
            BatchOp::Delete { key: 999 },
        ];
        let outcomes = db.apply_batch(&mut c, &ops).unwrap();
        assert_eq!(outcomes, vec![true, true, false]);
        let mut out = Vec::new();
        assert!(!db.get(&mut c, 3, &mut out).unwrap());
        assert!(db.get(&mut c, 100, &mut out).unwrap());
    }

    #[test]
    fn apply_batch_amortizes_fences_versus_per_op_sync() {
        let per_op = {
            let dev = PmemDevice::optane(512 << 20);
            let db = ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::tiny()).unwrap();
            let mut c = ctx();
            let before = dev.fence_count();
            for k in 0..32u64 {
                db.put(&mut c, k, &value_for(k)).unwrap();
                db.sync(&mut c).unwrap();
            }
            dev.fence_count() - before
        };
        let batched = {
            let dev = PmemDevice::optane(512 << 20);
            let db = ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::tiny()).unwrap();
            let mut c = ctx();
            let ops: Vec<BatchOp> = (0..32u64)
                .map(|k| BatchOp::Put {
                    key: k,
                    value: value_for(k),
                })
                .collect();
            let before = dev.fence_count();
            db.apply_batch(&mut c, &ops).unwrap();
            dev.fence_count() - before
        };
        assert!(
            batched * 8 <= per_op,
            "group commit should amortize fences: batched={batched} per_op={per_op}"
        );
    }

    #[test]
    fn obs_snapshot_with_appends_extra_sections() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.obs = chameleon_obs::ObsConfig::on();
        let db = new_store(cfg);
        let mut c = ctx();
        fill(&db, &mut c, 10);
        let snap = db.obs_snapshot_with(
            c.clock.now(),
            vec![CounterSection {
                name: "server",
                counters: vec![("batches", 7)],
            }],
        );
        let sec = snap
            .counters
            .iter()
            .find(|s| s.name == "server")
            .expect("extra section present");
        assert_eq!(sec.counters, vec![("batches", 7)]);
        assert!(snap.counters.iter().any(|s| s.name == "store"));
    }

    #[test]
    fn no_worker_pool_runs_maintenance_on_the_caller() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.bg.workers = 0;
        let db = new_store(cfg);
        assert!(db.workers.is_empty());
        let mut c = ctx();
        fill(&db, &mut c, 20_000);
        check_all(&db, &mut c, 20_000);
        let m = db.metrics();
        assert!(m.flushes > 0);
        // drain_maintenance without a pool is a no-op, not a hang.
        db.drain_maintenance().unwrap();
    }

    /// A `CrashPoint` raised on a pool worker reaches the foreground
    /// intact: the next drain re-raises the payload, and the pool stays
    /// poisoned — the write that needs it next fails.
    #[test]
    fn worker_crash_point_is_reraised_on_the_foreground() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.bg.workers = 1;
        cfg.bg.frozen_queue_cap = 1;
        let db = new_store(cfg);
        let mut c = ctx();
        let i = 0;
        let mut keys = (0..).filter(|&k| db.shard_of(hash64(k)) == i);
        loop {
            let s = db.shards[i].lock();
            if s.memtable.is_full(s.load_threshold) {
                break;
            }
            drop(s);
            let k = keys.next().unwrap();
            db.put(&mut c, k, &value_for(k)).unwrap();
        }
        {
            let commit = |ctx: &mut ThreadCtx, recs: &[ManifestRecord]| db.meta.commit(ctx, recs);
            let sync_log = |ctx: &mut ThreadCtx| db.sync_writers(ctx);
            let env = db.env(&commit, &sync_log);
            let mut shard = db.shards[i].lock();
            shard.freeze_memtable(&env, &c);
            // Armed under the shard lock and released only to the worker:
            // the next fence is the flush's log sync, on the worker.
            db.dev.arm_crash_at_fence(db.dev.fence_count() + 1);
            assert!(db.maint.enqueue(Job::Shard(i)));
        }
        let payload = catch_unwind(AssertUnwindSafe(|| db.drain_maintenance()))
            .expect_err("the worker's crash point was not re-raised");
        assert!(payload.downcast_ref::<pmem_sim::CrashPoint>().is_some());
        // The dead pass still counts against the cap, so the write that
        // finds the fresh MemTable full again surfaces the sticky error.
        let err = keys
            .find_map(|k| db.put(&mut c, k, &value_for(k)).err())
            .unwrap();
        assert_eq!(
            err,
            KvError::Corrupt("background maintenance failed earlier")
        );
    }

    /// The paper profile runs maintenance on the caller: no worker pool,
    /// no stalls, and the flush lands on the clock of the write that
    /// found the MemTable full.
    #[test]
    fn paper_profile_pays_for_the_flush_on_the_callers_clock() {
        let mut cfg = ChameleonConfig::paper_with_shards(8);
        cfg.obs = chameleon_obs::ObsConfig::on();
        let db = new_store(cfg);
        assert!(db.workers.is_empty(), "paper profile spawned workers");
        let mut c = ctx();
        let mut k = 0u64;
        let flushing_put_ns = loop {
            let before = c.clock.now();
            db.put(&mut c, k, &value_for(k)).unwrap();
            k += 1;
            if db.metrics().flushes == 1 {
                break c.clock.now() - before;
            }
            assert!(k < 8 * 512, "no MemTable ever filled");
        };
        let (_, flush) = db
            .obs()
            .stage_aggregates()
            .into_iter()
            .find(|(stage, _)| *stage == Stage::Flush)
            .unwrap();
        assert_eq!(flush.count, 1);
        assert!(flush.sim_ns > 0);
        assert!(
            flushing_put_ns >= flush.sim_ns,
            "put advanced {flushing_put_ns} sim-ns, its flush cost {}",
            flush.sim_ns
        );
        assert_eq!(db.metrics().write_stalls, 0);
    }

    /// Wall time never reaches the simulated clock. The stalled run holds
    /// shard 1's mutex while the lone worker waits on it, so the writer's
    /// second freeze of shard 0 finds the frozen queue full and stalls for
    /// at least `HOLD` of wall time on every run. The control is the same
    /// fill with a queue that never fills. On simulated time the stalled
    /// writer ends up only noise away from the control, far below the
    /// wall-clock stall total the journal reports. (No run-to-run equality
    /// claim: a worker's `sync_log` fences the writer's open batch at a
    /// timing-dependent point.)
    #[test]
    fn write_stalls_are_not_charged_to_the_simulated_clock() {
        const HOLD: std::time::Duration = std::time::Duration::from_millis(50);
        // Returns (writer's sim clock, write stalls, journaled stall ns).
        let run = |frozen_queue_cap: usize, hold: bool| {
            let mut cfg = ChameleonConfig::tiny();
            cfg.memtable_slots = 16;
            cfg.bg.workers = 1;
            cfg.bg.frozen_queue_cap = frozen_queue_cap;
            cfg.obs = chameleon_obs::ObsConfig::with_capacity(1 << 16);
            let db = new_store(cfg);
            let keys: Vec<u64> = (0..)
                .filter(|&k| db.shard_of(hash64(k)) == 0)
                .take(2_000)
                .collect();
            let clock = std::thread::scope(|s| {
                let blocker = hold.then(|| {
                    let guard = db.shards[1].lock();
                    assert!(db.maint.enqueue(Job::Shard(1)));
                    guard
                });
                let writer = s.spawn(|| {
                    let mut c = ctx();
                    for &k in &keys {
                        db.put(&mut c, k, &value_for(k)).unwrap();
                    }
                    c.clock.now()
                });
                if let Some(guard) = blocker {
                    while db.metrics().write_stalls == 0 && !writer.is_finished() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    std::thread::sleep(HOLD);
                    drop(guard);
                }
                writer.join().unwrap()
            });
            db.drain_maintenance().unwrap();
            let stalled_wall_ns: u64 = db
                .obs()
                .journal()
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::WriteStallExit { stalled_ns, .. } => Some(stalled_ns),
                    _ => None,
                })
                .sum();
            (clock, db.metrics().write_stalls, stalled_wall_ns)
        };
        let (control, control_stalls, _) = run(usize::MAX, false);
        assert_eq!(control_stalls, 0, "the control run stalled");
        let (stalled, stalls, stalled_wall_ns) = run(1, true);
        assert!(stalls > 0, "the held worker never stalled the writer");
        assert!(stalled_wall_ns >= HOLD.as_nanos() as u64);
        let extra = stalled.saturating_sub(control);
        assert!(
            2 * extra < stalled_wall_ns,
            "stalled writer's clock {stalled} is {extra} sim-ns past the control's {control}, \
             against {stalled_wall_ns} wall-ns of journaled stalls"
        );
    }

    /// Threads past `LANES` wrap onto shared counter lanes; the summed
    /// metrics still count every op exactly.
    #[test]
    fn metrics_count_every_op_across_wrapped_lanes() {
        let db = new_store(ChameleonConfig::tiny());
        let threads = 2 * pmem_sim::LANES + 1;
        let k = 300u64;
        let cost = Arc::new(CostModel::default());
        std::thread::scope(|s| {
            for t in 0..threads {
                let (db, cost) = (&db, Arc::clone(&cost));
                s.spawn(move || {
                    let mut c = ThreadCtx::for_thread(cost, t);
                    let base = t as u64 * 1_000_000;
                    let mut out = Vec::new();
                    for i in 0..k {
                        db.put(&mut c, base + i, &value_for(base + i)).unwrap();
                        // Odd rounds ask for a key nobody wrote.
                        let hit = i % 2 == 0;
                        let key = if hit { base + i } else { base + k + i };
                        assert_eq!(db.get(&mut c, key, &mut out).unwrap(), hit);
                    }
                });
            }
        });
        let total = threads as u64 * k;
        let m = db.metrics();
        assert_eq!(m.puts, total);
        assert_eq!(m.gets, total);
        assert_eq!(m.hits() + m.misses, total);
        assert_eq!(m.misses, total / 2);
    }

    #[test]
    fn frozen_queue_never_exceeds_cap_under_concurrent_load() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.bg.workers = 1;
        cfg.bg.frozen_queue_cap = 1;
        let db = std::sync::Arc::new(new_store(cfg));
        let threads = 4;
        db.device().set_active_threads(threads);
        crossbeam::thread::scope(|s| {
            for t in 0..threads as usize {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move |_| {
                    let mut c = ThreadCtx::for_thread(
                        std::sync::Arc::new(pmem_sim::CostModel::default()),
                        t,
                    );
                    let base = t as u64 * 1_000_000;
                    for k in 0..4000u64 {
                        db.put(&mut c, base + k, &(base + k).to_le_bytes()).unwrap();
                    }
                });
            }
            // Observer: the backpressure invariant must hold at any
            // instant, not just at the end.
            let db2 = std::sync::Arc::clone(&db);
            s.spawn(move |_| {
                for _ in 0..200 {
                    for shard in &db2.shards {
                        assert!(shard.lock().pending_frozen() <= 1);
                    }
                    std::thread::yield_now();
                }
            });
        })
        .unwrap();
        db.drain_maintenance().unwrap();
        let mut c = ctx();
        let mut out = Vec::new();
        for t in 0..threads as u64 {
            let base = t * 1_000_000;
            for k in 0..4000u64 {
                assert!(db.get(&mut c, base + k, &mut out).unwrap());
            }
        }
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let cfg = ChameleonConfig::tiny();
        let db = std::sync::Arc::new(new_store(cfg));
        let threads = 4;
        db.device().set_active_threads(threads);
        crossbeam::thread::scope(|s| {
            for t in 0..threads as usize {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move |_| {
                    let mut c = ThreadCtx::for_thread(
                        std::sync::Arc::new(pmem_sim::CostModel::default()),
                        t,
                    );
                    let base = t as u64 * 1_000_000;
                    for k in 0..5000u64 {
                        db.put(&mut c, base + k, &(base + k).to_le_bytes()).unwrap();
                    }
                    let mut out = Vec::new();
                    for k in 0..5000u64 {
                        assert!(db.get(&mut c, base + k, &mut out).unwrap());
                        assert_eq!(out, (base + k).to_le_bytes());
                    }
                });
            }
        })
        .unwrap();
        assert!(db.approx_len() >= 4 * 5000);
    }

    /// Small extents + no worker pool so GC passes run (and finish)
    /// deterministically on the putting thread inside the churn loop.
    fn gc_cfg() -> ChameleonConfig {
        let mut cfg = ChameleonConfig::tiny();
        cfg.log = kvlog::LogConfig {
            capacity: 2 << 20,
            batch_bytes: 512,
            max_value: 8 << 10,
            extent_bytes: 16 << 10,
        };
        cfg.bg.workers = 0;
        cfg
    }

    /// `rounds` overwrites of `keys` 64 B values on a fresh `gc_cfg` store.
    fn gc_churn(keys: u64, rounds: u64) -> (ChameleonDb, ThreadCtx) {
        let db = new_store(gc_cfg());
        let mut c = ctx();
        for r in 0..rounds {
            for k in 0..keys {
                db.put(&mut c, k, &[r as u8; 64]).unwrap();
            }
        }
        (db, c)
    }

    #[test]
    fn gc_keeps_footprint_bounded_under_churn() {
        let (keys, rounds) = (200u64, 150u64);
        let (db, mut c) = gc_churn(keys, rounds);
        let m = db.metrics();
        assert!(m.gc_runs > 0, "GC never ran");
        assert!(m.gc_reclaimed_extents > 0, "GC reclaimed no extents");
        assert!(m.gc_relocated_entries > 0, "GC relocated nothing");
        let s = db.space_stats();
        // The overwrite volume exceeded the raw log capacity (127 data
        // extents): only extent recycling made the workload fit at all.
        assert!(
            m.gc_reclaimed_extents > 127,
            "turnover below capacity — recycling unproven: {m:?} {s:?}"
        );
        assert!(
            s.footprint_bytes <= (2 << 20) / 4,
            "footprint not bounded by GC: {s:?}"
        );
        // Every key reads back at its final round's value.
        let mut out = Vec::new();
        for k in 0..keys {
            assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost by GC");
            assert_eq!(out, [(rounds - 1) as u8; 64], "key {k} stale after GC");
        }
    }

    /// With no worker pool, GC is a pure function of the write stream:
    /// the same churn on two fresh devices relocates the same entries.
    #[test]
    fn gc_churn_is_deterministic_without_workers() {
        let outcome = || {
            let (db, _) = gc_churn(200, 150);
            let m = db.metrics();
            (
                m.gc_runs,
                m.gc_relocated_entries,
                m.gc_relocated_bytes,
                db.space_stats(),
            )
        };
        assert_eq!(outcome(), outcome());
    }

    /// The exactly-once dead-byte crediting invariant: on a store whose
    /// accounting never crossed a crash, the bytes referenced by the read
    /// path plus the credited dead bytes account for every appended byte —
    /// across overwrites, deletes, re-puts, flushes, WIM merges, dumps and
    /// both compaction kinds.
    #[test]
    fn dead_byte_accounting_reconciles_exactly() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.gc.enabled = false; // isolate crediting from reclamation
        let db = new_store(cfg);
        let mut c = ctx();
        fill(&db, &mut c, 3000);
        for k in 0..3000u64 {
            db.put(&mut c, k, &(k + 1).to_le_bytes()).unwrap();
        }
        for k in 0..1000u64 {
            db.delete(&mut c, k).unwrap();
        }
        for k in 0..500u64 {
            db.put(&mut c, k, &(k + 2).to_le_bytes()).unwrap();
        }
        db.checkpoint(&mut c).unwrap();
        for k in 1500..3000u64 {
            db.put(&mut c, k, &(k + 3).to_le_bytes()).unwrap();
        }
        db.drain_maintenance().unwrap();
        let s = db.space_stats();
        let live = db.audit_live_bytes(&mut c);
        assert_eq!(
            live + s.dead_bytes,
            s.appended_bytes,
            "dead-byte crediting out of balance: audited live {live}, {s:?}"
        );
        assert!(s.dead_bytes > 0, "workload produced no dead bytes");
    }

    /// Same reconciliation with GC enabled: relocation appends live copies
    /// and `finish_gc` settles each collected extent, so the global
    /// invariant must survive arbitrary interleaving of churn and passes.
    #[test]
    fn dead_byte_accounting_reconciles_across_gc() {
        let db = new_store(gc_cfg());
        let mut c = ctx();
        for r in 0..60u64 {
            for k in 0..300u64 {
                db.put(&mut c, k, &[r as u8; 48]).unwrap();
            }
            if r % 7 == 3 {
                for k in 0..50u64 {
                    db.delete(&mut c, k).unwrap();
                }
            }
        }
        assert!(db.metrics().gc_runs > 0, "GC never ran");
        let s = db.space_stats();
        let live = db.audit_live_bytes(&mut c);
        assert_eq!(
            live + s.dead_bytes,
            s.appended_bytes,
            "accounting drifted across GC: audited live {live}, {s:?}"
        );
    }

    #[test]
    fn churn_with_gc_survives_crash_and_recovery() {
        let dev = PmemDevice::optane(512 << 20);
        let cfg = gc_cfg();
        let mut db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
        let mut c = ctx();
        let (keys, rounds) = (200u64, 100u64);
        for r in 0..rounds {
            for k in 0..keys {
                db.put(&mut c, k, &[r as u8; 64]).unwrap();
            }
        }
        assert!(db.metrics().gc_reclaimed_extents > 0, "GC never reclaimed");
        db.sync(&mut c).unwrap();
        db.crash_and_recover(&mut c).unwrap();
        let mut out = Vec::new();
        for k in 0..keys {
            assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, [(rounds - 1) as u8; 64], "key {k} stale");
        }
        // GC reclaimed the shadowed versions' extents before the crash;
        // the rebuilt index holds exactly the live keys.
        assert_eq!(
            db.scan(&mut c, 0, 1000).unwrap(),
            (0..keys).collect::<Vec<_>>()
        );
        // The recycled log keeps working: more churn, another readback.
        for r in 0..40u64 {
            for k in 0..keys {
                db.put(&mut c, k, &[100 + r as u8; 64]).unwrap();
            }
        }
        for k in 0..keys {
            assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost (2)");
            assert_eq!(out, [139u8; 64], "key {k} stale (2)");
        }
    }

    /// Per-extent max-seq summaries: a checkpointed store's recovery scan
    /// must skip extents wholly below the checkpoint floor instead of
    /// decoding them.
    #[test]
    fn recovery_skips_fully_checkpointed_extents() {
        let dev = PmemDevice::optane(512 << 20);
        let mut cfg = ChameleonConfig::tiny();
        cfg.log = kvlog::LogConfig {
            capacity: 4 << 20,
            batch_bytes: 512,
            max_value: 8 << 10,
            extent_bytes: 16 << 10,
        };
        cfg.gc.enabled = false; // keep the sealed-extent layout simple
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        for k in 0..2000u64 {
            db.put(&mut c, k, &[k as u8; 64]).unwrap();
        }
        db.checkpoint(&mut c).unwrap();
        drop(db);
        dev.crash();
        let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        let (scanned, skipped) = db.log().recovery_scan_stats();
        assert!(
            skipped > scanned,
            "checkpointed extents were rescanned: scanned {scanned}, skipped {skipped}"
        );
        let mut out = Vec::new();
        for k in 0..2000u64 {
            assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, [k as u8; 64]);
        }
    }

    #[test]
    fn scan_returns_sorted_contiguous_live_keys() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 2000);
        // Mid-range: exactly the next `limit` keys, ascending.
        let keys = db.scan(&mut c, 500, 100).unwrap();
        assert_eq!(keys, (500..600).collect::<Vec<u64>>());
        // Inclusive start, and a scan past the max key is empty.
        assert_eq!(db.scan(&mut c, 0, 3).unwrap(), vec![0, 1, 2]);
        assert_eq!(db.scan(&mut c, 1999, 10).unwrap(), vec![1999]);
        assert!(db.scan(&mut c, 2000, 10).unwrap().is_empty());
        assert!(db.scan(&mut c, 42, 0).unwrap().is_empty());
        let m = db.metrics();
        assert_eq!(m.scans, 5);
        assert_eq!(m.scanned_keys, 104);
    }

    #[test]
    fn scan_skips_deletes_and_survives_compactions() {
        // 60k keys through tiny geometry force flushes and mid/last-level
        // compactions in every shard; the ordered index must keep exact
        // membership through all of it.
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 60_000);
        for k in (0..1000u64).map(|i| i * 2) {
            db.delete(&mut c, k).unwrap();
        }
        db.checkpoint(&mut c).unwrap();
        let keys = db.scan(&mut c, 0, 1000).unwrap();
        let expect: Vec<u64> = (0..2000u64).filter(|k| k % 2 == 1).collect();
        assert_eq!(keys, expect, "scan must skip tombstoned keys");
        // Limit counts live results, not candidates: the 1000 dead evens
        // in [0, 2000) did not eat into it.
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn scan_unsupported_without_ordered_index() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.ordered_index = false;
        let db = new_store(cfg);
        let mut c = ctx();
        fill(&db, &mut c, 100);
        assert!(matches!(
            db.scan(&mut c, 0, 10),
            Err(KvError::Unsupported(_))
        ));
        assert_eq!(db.metrics().scans, 0);
    }

    #[test]
    fn ordered_index_counts_toward_dram_footprint() {
        let mut cfg = ChameleonConfig::tiny();
        cfg.ordered_index = false;
        let bare = new_store(cfg);
        let indexed = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&bare, &mut c, 1000);
        fill(&indexed, &mut c, 1000);
        assert!(
            indexed.dram_footprint() > bare.dram_footprint(),
            "ordered index DRAM not accounted: {} vs {}",
            indexed.dram_footprint(),
            bare.dram_footprint()
        );
    }

    #[test]
    fn recovery_rebuilds_ordered_index() {
        let db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 8000);
        for k in 3000..3500u64 {
            db.delete(&mut c, k).unwrap();
        }
        db.sync(&mut c).unwrap();
        let before = db.scan(&mut c, 2900, 700).unwrap();
        let mut db = db;
        db.crash_and_recover(&mut c).unwrap();
        // Recovery itself rebuilt the index: every live key, before any scan.
        assert_eq!(db.order.as_ref().unwrap().len(), 7500);
        // Degraded window: ABI not rebuilt yet, scans resolve through the
        // upper-level walk and must already agree with the pre-crash set.
        let degraded = db.scan(&mut c, 2900, 700).unwrap();
        assert_eq!(degraded, before, "degraded-window scan diverged");
        // After the ABI rebuild (first structural transition via new
        // writes) the same scan still holds.
        fill(&db, &mut c, 2000);
        db.drain_maintenance().unwrap();
        let fresh = db.scan(&mut c, 2900, 700).unwrap();
        assert_eq!(fresh, before, "post-rebuild scan diverged");
        let expect: Vec<u64> = (2900..3000).chain(3500..4100).collect();
        assert_eq!(fresh, expect);
    }

    #[test]
    fn first_scan_after_recovery_costs_what_the_second_does() {
        let mut db = new_store(ChameleonConfig::tiny());
        let mut c = ctx();
        fill(&db, &mut c, 4000);
        db.sync(&mut c).unwrap();
        db.crash_and_recover(&mut c).unwrap();
        let mut scan_ns = || {
            let start = c.clock.now();
            assert_eq!(db.scan(&mut c, 100, 500).unwrap().len(), 500);
            c.clock.now() - start
        };
        let first = scan_ns();
        assert_eq!(first, scan_ns(), "the first scan paid for a rebuild");
    }

    #[test]
    fn recovery_rebuild_reflects_unsynced_tail_loss() {
        // Keys that never became durable must not reappear in the rebuilt
        // ordered index: scan and get agree after a torn crash.
        let dev = PmemDevice::optane(512 << 20);
        let cfg = ChameleonConfig::tiny();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        let mut c = ctx();
        fill(&db, &mut c, 4000);
        db.sync(&mut c).unwrap();
        for k in 4000..4200u64 {
            db.put(&mut c, k, &value_for(k)).unwrap();
        }
        drop(db); // graceful-shutdown-free handle drop keeps the tail torn
        dev.crash();
        let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
        let keys = db.scan(&mut c, 0, 10_000).unwrap();
        let mut out = Vec::new();
        for &k in &keys {
            assert!(
                db.get(&mut c, k, &mut out).unwrap(),
                "scan returned key {k} that get cannot see"
            );
        }
        let live: Vec<u64> = (0..4200u64)
            .filter(|&k| db.get(&mut c, k, &mut out).unwrap())
            .collect();
        assert_eq!(keys, live, "rebuilt index disagrees with the read path");
    }
}
