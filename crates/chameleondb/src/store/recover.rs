//! Store assembly: [`ChameleonDb::create`] and [`ChameleonDb::recover`]
//! build their shards differently — empty, or from the manifest's live
//! tables plus one log scan and replay — then both assemble the same
//! [`StoreInner`] and start serving through the same `open` step.

use std::collections::{HashMap, HashSet};
use std::hint::select_unpredictable;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use chameleon_obs::Obs;
use kvapi::{hash64, key_of_hash, KvError, PreHashed, Result};
use kvlog::{EntryMeta, StorageLog};
use kvorder::{Leaves, OrderedIndex};
use kvsync::{EpochDomain, ViewCell};
use kvtables::{FixedHashTable, Slot};
use parking_lot::Mutex;
use pmem_sim::{PRegion, PmemDevice, ThreadCtx};

use super::{route, worker_loop, ChameleonDb, MetaLog, StoreInner};
use crate::config::ChameleonConfig;
use crate::maint::Maint;
use crate::manifest::{Manifest, ManifestRecord, Superblock, LEVEL_DUMPED};
use crate::metrics::StoreMetrics;
use crate::mode::{Mode, ModeController};
use crate::shard::{Shard, ShardMut};
use crate::view::TableHandle;

/// Fixed offset of the superblock: the store must be the first allocator
/// client on its device (all harnesses construct stores that way).
const SUPERBLOCK_OFF: u64 = 256;

/// The newest un-checkpointed log entry per key hash, for replay.
type Pending = HashMap<u64, EntryMeta, PreHashed>;

/// Index entries per thread of the restart walk: below twice this, the
/// walk stays on the calling thread. A second thread costs two spawns
/// and a two-way merge, about 100–170 µs. Building the index of a
/// 16-shard store of `n` fresh keys (median of 41 restarts, 2-core
/// container) took 320 µs on one thread against 383 µs on two at
/// `n` = 4 k, 632 against 525 µs at 8 k and 1 735 against 1 301 µs at
/// 32 k: two threads start to pay at about 6 k entries, and this keeps
/// a margin over that. The crash matrix's and the unit tests' stores,
/// a few thousand entries, walk on one thread.
const WALK_ENTRIES_PER_THREAD: u64 = 8 << 10;

/// Keys drawn per key range when the restart picks the splitters of its
/// leaf cut. The sample takes every so-many-th key of each sorted
/// array, so a splitter is off its exact quantile by less than one
/// stride per array: with two arrays and two ranges, under 2 % of a
/// range.
const SAMPLE_PER_RANGE: usize = 128;

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
        let shards = (0..cfg.shards as u32)
            .map(|i| ShardMut::new(i, &cfg))
            .collect();
        let store = StoreInner::new(dev, cfg, shards, manifest, HashMap::new(), log);
        Ok(Self::open(store, &mut ctx, None))
    }

    /// Reopens a store after a crash, charging the full restart cost
    /// (superblock + manifest replay, table-header reads, one log scan,
    /// MemTable reconstruction and, with the ordered index on, one
    /// streamed walk of every shard's tables, whose live keys build the
    /// index; replay never touches it) to `ctx`. The walk, its sort and
    /// the index build run on up to one thread per core (see `open`),
    /// and the charge is the same on any number of them. ABIs are rebuilt
    /// lazily at a shard's first structural transition (MemTable-full);
    /// until then gets on that shard take the degraded upper-level walk
    /// (counted in `degraded_gets`).
    pub fn recover(
        dev: Arc<PmemDevice>,
        cfg: ChameleonConfig,
        ctx: &mut ThreadCtx,
    ) -> Result<Self> {
        Self::recover_with(dev, cfg, ctx, None)
    }

    /// [`recover`](Self::recover), its restart walk on `threads` threads
    /// if given, else on as many as it derives.
    pub(crate) fn recover_with(
        dev: Arc<PmemDevice>,
        cfg: ChameleonConfig,
        ctx: &mut ThreadCtx,
        threads: Option<usize>,
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
            .map(|i| ShardMut::new(i, &cfg))
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
        let mut pending = Pending::default();
        let log = StorageLog::reopen_scan(
            Arc::clone(&dev),
            sb.log_region,
            cfg.log.clone(),
            ctx,
            skip_seq_floor,
            |meta| {
                let hash = hash64(meta.key);
                if meta.seq > shards[route(shards.len(), hash)].checkpoint_seq {
                    let e = pending.entry(hash).or_insert(meta);
                    if meta.seq >= e.seq {
                        *e = meta;
                    }
                }
            },
        )?;
        let mut store = StoreInner::new(dev, cfg, shards, manifest, registry, log);
        store.restart_seq = store.log.last_seq();
        store.replay(ctx, pending)?;
        Ok(Self::open(store, ctx, threads))
    }

    /// The one way a store starts serving, fresh or recovered: installs
    /// the ordered index over the live keys (none on a fresh store), the
    /// configured mode and the per-thread log writers, then spawns the
    /// worker pool (none with `bg.workers == 0`). The index is built on
    /// `threads` threads, or as many as [`walk_threads`] derives when
    /// `None`: each walks and sorts the keys of the shards it claims
    /// ([`StoreInner::live_keys`]), then cuts the leaves of one key range
    /// ([`key_ranges`]) from the merge of every thread's keys. One root
    /// is assembled over all the leaves: the tree one pass over all the
    /// keys builds, whatever the thread count.
    fn open(mut store: StoreInner, ctx: &mut ThreadCtx, threads: Option<usize>) -> Self {
        if store.cfg.ordered_index {
            let sorted = store.live_keys(ctx, threads);
            let ranges = key_ranges(&sorted);
            let parts = fan_out(ranges, |(at, heads)| Leaves::cut(at, Merge::new(heads)));
            store.order = Some(Arc::new(OrderedIndex::from_parts(
                Arc::clone(&store.epochs),
                parts,
            )));
        }
        let base_mode = if store.cfg.write_intensive {
            Mode::WriteIntensive
        } else {
            Mode::Normal
        };
        store.mode = ModeController::new(base_mode, store.cfg.gpm.clone());
        store.writers = (0..store.cfg.max_threads)
            .map(|_| Mutex::new(store.log.writer()))
            .collect();
        let inner = Arc::new(store);
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
}

impl StoreInner {
    /// Assembles a store around its shards, manifest, live-table registry
    /// and log. The writers, the ordered index and the configured mode
    /// are left for `open`: until then the store runs in Normal mode with
    /// no writer, which is how recovery replay needs it.
    fn new(
        dev: Arc<PmemDevice>,
        cfg: ChameleonConfig,
        shards: Vec<ShardMut>,
        manifest: Manifest,
        registry: HashMap<u64, ManifestRecord>,
        log: Arc<StorageLog>,
    ) -> Self {
        let epochs = Arc::new(EpochDomain::new(cfg.max_threads));
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|levels| Shard::new(levels, &cfg))
            .collect();
        let views = shards
            .iter()
            .map(|s| {
                let levels = s.levels.lock();
                let view = s.mem.lock().view(&levels);
                ViewCell::new(Arc::clone(&epochs), Arc::new(view))
            })
            .collect();
        Self {
            obs: Obs::new(cfg.obs),
            maint: Maint::new(cfg.shards),
            dev,
            cfg,
            log,
            writers: Vec::new(),
            shards,
            views,
            epochs,
            order: None,
            meta: MetaLog {
                manifest,
                registry: Mutex::new(registry),
            },
            metrics: StoreMetrics::default(),
            mode: ModeController::new(Mode::Normal, Default::default()),
            gc_pending: AtomicBool::new(false),
            restart_seq: 0,
        }
    }

    /// Re-admits un-checkpointed log entries through the normal insert
    /// path, without re-logging them, in ascending sequence order. That
    /// order keeps a flushed table's `max_log_seq` above every entry
    /// inserted before it — otherwise a mid-replay flush could advance
    /// the shard checkpoint past entries still in the volatile MemTable,
    /// and a second crash would lose them. A MemTable found full is
    /// frozen and processed before the next insert, as on the write path
    /// with no worker pool — so replay may flush and compact, exactly as
    /// the paper's Write-Intensive-Mode recovery implies.
    fn replay(&self, ctx: &mut ThreadCtx, pending: Pending) -> Result<()> {
        let mut ordered: Vec<(u64, EntryMeta)> = pending.into_iter().collect();
        ordered.sort_by_key(|(_, m)| m.seq);
        let slot_of = |hash, meta: &EntryMeta| {
            if meta.tombstone {
                Slot::tombstone(hash, meta.loc())
            } else {
                Slot::new(hash, meta.loc())
            }
        };
        // Noted before the first insert: a flush during replay may drop
        // a table's copy of an entry that replay has yet to re-insert.
        let mut words = vec![Vec::new(); self.shards.len()];
        for (hash, meta) in &ordered {
            words[self.shard_of(*hash)].push(slot_of(*hash, meta).loc);
        }
        for (shard, words) in self.shards.iter().zip(words) {
            shard.replayed.lock().start(words);
        }
        for (hash, meta) in ordered {
            let slot = slot_of(hash, &meta);
            let shard_idx = self.shard_of(hash);
            let shard = &self.shards[shard_idx];
            let mut mem = shard.mem.lock();
            if mem.memtable.is_full(mem.load_threshold) {
                mem = shard.freeze_and_process(mem, self, ctx, shard_idx)?;
            }
            mem.insert(ctx, slot, meta.seq)?;
        }
        for shard in &self.shards {
            shard.replayed.lock().end_replay();
        }
        Ok(())
    }

    /// The store's live user keys for the one-tree ordered index `open`
    /// builds before any writer or worker exists, walked on `threads`
    /// threads (derived by [`walk_threads`] when `None`): one sorted and
    /// deduplicated array per thread, the keys of the shards it walked.
    ///
    /// Each thread claims shards one at a time, so a slow shard holds
    /// back no fixed share. A shard's walk meets a hash's versions newest
    /// first, so it pushes the key of every put no earlier tombstone
    /// shadowed into the thread's array; older puts of a live key push it
    /// again, and the sort and dedup remove them. The user key is the
    /// hash's preimage ([`kvapi::key_of_hash`]), so no log entry is read.
    /// A key's versions are all in one shard, so the arrays are disjoint.
    ///
    /// Each thread walks on its own `ThreadCtx`, started at the caller's
    /// clock, and the caller is charged the sum of their charges. With
    /// the queue model off, a read's charge depends only on its offset,
    /// length and the device profile, so that sum is what one thread
    /// walking every shard is charged, whatever the thread count.
    ///
    /// No live key's newest version is stale: GC repoints it before it
    /// reclaims the old extent (DESIGN §6.2).
    fn live_keys(&self, ctx: &mut ThreadCtx, threads: Option<usize>) -> Vec<Vec<u64>> {
        let entries: u64 = self.shards.iter().map(Shard::approx_len).sum();
        let threads = threads.unwrap_or_else(|| walk_threads(entries, self.shards.len()));
        // Twice a thread's share, at most every entry: claiming whole
        // shards can leave a thread above its share, and pages are
        // touched only as keys are pushed.
        let reserve = (2 * entries.div_ceil(threads as u64)).min(entries);
        let (cost, thread_id, start) = (&ctx.cost, ctx.thread_id, ctx.clock.now());
        let next = AtomicUsize::new(0);
        let walked = fan_out((0..threads).collect(), |_| {
            let mut c = ThreadCtx::for_thread(Arc::clone(cost), thread_id);
            c.clock.catch_up_to(start);
            let mut keys = Vec::with_capacity(reserve as usize);
            let mut shadowed = HashSet::with_hasher(PreHashed::default());
            while let Some(shard) = self.shards.get(next.fetch_add(1, Ordering::Relaxed)) {
                shadowed.clear();
                // The walk meets every index slot once, so it also counts
                // the slots of each replayed entry.
                let mut replayed = shard.replayed.lock();
                shard.slots_in_get_order(&self.dev, &mut c, |sl| {
                    replayed.count(sl.loc);
                    if sl.is_tombstone() {
                        shadowed.insert(sl.hash);
                    } else if !shadowed.contains(&sl.hash) {
                        keys.push(key_of_hash(sl.hash));
                    }
                });
                replayed.end_count();
            }
            keys.sort_unstable();
            keys.dedup();
            (keys, c.clock.since(start))
        });
        let (sorted, charges): (Vec<_>, Vec<_>) = walked.into_iter().unzip();
        ctx.charge(charges.iter().sum());
        sorted
    }
}

/// The restart walk's thread count for `entries` index entries over
/// `shards` shards: one per core, no more than the shards (a thread walks
/// whole shards), and no more than one per [`WALK_ENTRIES_PER_THREAD`]
/// entries, so a small store walks on the calling thread alone.
fn walk_threads(entries: u64, shards: usize) -> usize {
    let wanted = usize::try_from(entries / WALK_ENTRIES_PER_THREAD).unwrap_or(usize::MAX);
    if wanted < 2 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    wanted.min(cores).min(shards)
}

/// Runs `f` on every item, the first on the calling thread and each
/// other one on a scoped thread of its own, and returns the results in
/// item order. A helper's panic resumes on the caller with its payload,
/// so an injected crash point unwinds as it would on one thread.
fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let helpers: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = vec![f(first)];
        for helper in helpers {
            out.push(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

/// Cuts the keys of `sorted`'s disjoint arrays into one key range per
/// array, of about equal size, for [`Leaves::cut`]: the splitters are
/// the quantiles of a sample of every array's keys. Returns each range's
/// indices in the merged sequence of all the keys, and every array from
/// the range's first key on.
fn key_ranges(sorted: &[Vec<u64>]) -> Vec<(Range<usize>, Vec<&[u64]>)> {
    let total: usize = sorted.iter().map(Vec::len).sum();
    let ranges = if total == 0 { 1 } else { sorted.len() };
    let stride = (total / (SAMPLE_PER_RANGE * ranges)).max(1);
    let mut sample: Vec<u64> = sorted
        .iter()
        .flat_map(|keys| keys.iter().step_by(stride).copied())
        .collect();
    sample.sort_unstable();
    let mut cuts: Vec<u64> = (1..ranges)
        .map(|r| sample[r * sample.len() / ranges])
        .collect();
    cuts.dedup();
    // Where each range starts in each array: at its first key not below
    // the range's lower splitter.
    let starts: Vec<Vec<usize>> = [None]
        .into_iter()
        .chain(cuts.iter().map(Some))
        .map(|cut| {
            let at = |keys: &[u64]| cut.map_or(0, |&c| keys.partition_point(|&k| k < c));
            sorted.iter().map(|keys| at(keys)).collect()
        })
        .collect();
    let index = |at: &Vec<usize>| at.iter().sum::<usize>();
    starts
        .iter()
        .enumerate()
        .map(|(r, at)| {
            let end = starts.get(r + 1).map_or(total, index);
            let heads = sorted.iter().zip(at).map(|(keys, &i)| &keys[i..]);
            (index(at)..end, heads.collect())
        })
        .collect()
}

/// The ascending merge of sorted, pairwise disjoint key arrays, none
/// of them empty. Which array holds the next key is a coin toss for
/// keys spread evenly over them, so the choice is made without a
/// branch; two arrays, the two-core case, take a path of their own
/// that is about twice as fast as the general one.
struct Merge<'a> {
    heads: Vec<&'a [u64]>,
}

impl<'a> Merge<'a> {
    fn new(mut heads: Vec<&'a [u64]>) -> Self {
        heads.retain(|h| !h.is_empty());
        Self { heads }
    }
}

impl Iterator for Merge<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if let [a, b] = &mut self.heads[..] {
            let (x, y) = (a[0], b[0]);
            let take = x < y;
            *a = &a[usize::from(take)..];
            *b = &b[usize::from(!take)..];
            if a.is_empty() || b.is_empty() {
                self.heads.retain(|h| !h.is_empty());
            }
            return Some(select_unpredictable(take, x, y));
        }
        let first = self.heads.first()?;
        let (mut best, mut key) = (0, first[0]);
        for (i, head) in self.heads.iter().enumerate().skip(1) {
            let take = head[0] < key;
            best = select_unpredictable(take, i, best);
            key = select_unpredictable(take, head[0], key);
        }
        let head = &mut self.heads[best];
        *head = &head[1..];
        if head.is_empty() {
            self.heads.swap_remove(best);
        }
        Some(key)
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
