//! Store assembly: [`ChameleonDb::create`] and [`ChameleonDb::recover`]
//! build their shards differently — empty, or from the manifest's live
//! tables plus one log scan and replay — then both assemble the same
//! [`StoreInner`] and start serving through the same `open` step.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use chameleon_obs::Obs;
use kvapi::{hash64, key_of_hash, KvError, PreHashed, Result};
use kvlog::{EntryMeta, StorageLog};
use kvorder::OrderedIndex;
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
        Ok(Self::open(store, &mut ctx))
    }

    /// Reopens a store after a crash, charging the full restart cost
    /// (superblock + manifest replay, table-header reads, one log scan,
    /// MemTable reconstruction and, with the ordered index on, one
    /// streamed walk of every shard's tables, which pushes each live key
    /// into one array that is sorted once and builds the index in one
    /// pass; replay never touches it) to `ctx`. ABIs are rebuilt
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
        Ok(Self::open(store, ctx))
    }

    /// The one way a store starts serving, fresh or recovered: installs
    /// the ordered index over the live keys (none on a fresh store), the
    /// configured mode and the per-thread log writers, then spawns the
    /// worker pool (none with `bg.workers == 0`).
    fn open(mut store: StoreInner, ctx: &mut ThreadCtx) -> Self {
        if store.cfg.ordered_index {
            let keys = store.live_keys(ctx);
            store.order = Some(Arc::new(OrderedIndex::from_sorted(
                Arc::clone(&store.epochs),
                vec![keys],
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

    /// The store's live user keys, ascending, for the one-tree ordered
    /// index `open` builds before any writer or worker exists. Each
    /// shard's walk meets a hash's versions newest first, so it pushes
    /// the key of every put no earlier tombstone shadowed into one array,
    /// reserved once from the shards' entry counts, then sorted and
    /// deduplicated (older puts of a live key push it again). The user
    /// key is the hash's preimage ([`kvapi::key_of_hash`]), so no log
    /// entry is read. No live key's newest version is stale: GC repoints
    /// it before it reclaims the old extent (DESIGN §6.2).
    fn live_keys(&self, ctx: &mut ThreadCtx) -> Vec<u64> {
        let entries: u64 = self.shards.iter().map(Shard::approx_len).sum();
        let mut keys = Vec::with_capacity(entries as usize);
        let mut shadowed = HashSet::with_hasher(PreHashed::default());
        for shard in &self.shards {
            shadowed.clear();
            // The walk meets every index slot once, so it also counts the
            // slots of each replayed entry.
            let mut replayed = shard.replayed.lock();
            shard.slots_in_get_order(&self.dev, ctx, |sl| {
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
        keys
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
