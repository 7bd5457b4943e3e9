//! Pmem-LSM: a legacy multi-level LSM KV store on Pmem (§3.2).
//!
//! Hash-keyed LSM with per-shard levels of fixed-size hash tables, exactly
//! ChameleonDB's substrate but **without** the ABI: a get must walk the
//! levels one by one. Three variants reproduce the paper's comparison:
//!
//! * [`LsmVariant::NoFilter`] — every level check is a Pmem probe.
//! * [`LsmVariant::Filter`] — an in-DRAM Bloom filter per table avoids
//!   most useless Pmem probes, at the cost of per-key construction work on
//!   every flush/compaction (the paper's put-throughput killer) and a
//!   per-level check cost on every get (Fig. 2's latency overhead).
//! * [`LsmVariant::PinK`] — upper-level tables are mirrored in DRAM
//!   (PinK-style); gets and compactions read the mirrors, but the
//!   *multi-level search structure* remains, which is why it still loses
//!   to ChameleonDB's O(1) ABI (§3.3).
//!
//! Compactions are classic level-by-level (Fig. 5a). Tables persist through
//! the same manifest machinery as ChameleonDB, so restart is fast. The
//! MemTable and PinK's mirrors are [`SharedTable`]s, the table behind
//! ChameleonDB's MemTable and ABI, so a DRAM probe costs every store the
//! same.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chameleondb::{Manifest, ManifestRecord, Superblock};
use kvapi::{hash64, CrashRecover, KvError, KvStore, Result};
use kvlog::{EntryMeta, LogConfig, StorageLog, ENTRY_HEADER};
use kvtables::{BloomFilter, FixedHashTable, SharedTable, Slot, TableBuilder};
use parking_lot::Mutex;
use pmem_sim::{PmemDevice, ThreadCtx};

use crate::common::WriterPool;

/// Which Pmem-LSM flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsmVariant {
    /// No filters: probe Pmem at every level (Pmem-LSM-NF).
    NoFilter,
    /// Per-table Bloom filters in DRAM (Pmem-LSM-F).
    Filter,
    /// Upper levels pinned in DRAM (Pmem-LSM-PinK); no filters, like the
    /// paper's configuration.
    PinK,
}

/// Configuration of [`PmemLsm`].
#[derive(Debug, Clone)]
pub struct PmemLsmConfig {
    /// Variant to run.
    pub variant: LsmVariant,
    /// Shard count (power of two).
    pub shards: usize,
    /// MemTable slots per shard.
    pub memtable_slots: usize,
    /// Levels including the last.
    pub levels: usize,
    /// Between-level ratio.
    pub ratio: usize,
    /// Flush threshold (fixed — the randomized thresholds are a
    /// ChameleonDB refinement).
    pub load_factor: f64,
    /// Bloom bits per key (`Filter` variant).
    pub bits_per_key: usize,
    /// Per-thread log writers.
    pub max_threads: usize,
    /// Storage-log configuration.
    pub log: LogConfig,
    /// Manifest region size.
    pub manifest_bytes: u64,
}

impl PmemLsmConfig {
    /// Paper-comparable geometry with a custom shard count.
    pub fn with_shards(variant: LsmVariant, shards: usize) -> Self {
        Self {
            variant,
            shards,
            memtable_slots: 512,
            levels: 4,
            ratio: 4,
            load_factor: 0.75,
            bits_per_key: 10,
            max_threads: 64,
            log: LogConfig::default(),
            manifest_bytes: 4 << 20,
        }
    }

    /// Small test geometry.
    pub fn tiny(variant: LsmVariant) -> Self {
        Self {
            memtable_slots: 64,
            log: LogConfig {
                capacity: 64 << 20,
                ..LogConfig::default()
            },
            manifest_bytes: 1 << 20,
            ..Self::with_shards(variant, 8)
        }
    }
}

/// A persisted table plus its variant-specific DRAM companions.
struct LsmTable {
    table: FixedHashTable,
    /// Bloom filter (`Filter` variant only).
    filter: Option<BloomFilter>,
    /// DRAM mirror of the slot contents (`PinK` variant, upper levels).
    mirror: Option<SharedTable>,
}

impl LsmTable {
    fn dram_bytes(&self) -> u64 {
        self.filter.as_ref().map_or(0, |f| f.dram_bytes())
            + self.mirror.as_ref().map_or(0, |m| m.dram_bytes())
    }
}

struct LsmShard {
    id: u32,
    memtable: SharedTable,
    /// Upper levels, tables oldest-first within a level.
    uppers: Vec<Vec<LsmTable>>,
    last: Option<LsmTable>,
    table_seq: u64,
    checkpoint_seq: u64,
}

/// Per-get search-cost counters (drive the Fig. 2 breakdown).
#[derive(Debug, Default)]
pub struct LsmMetrics {
    /// Bloom filters consulted.
    pub filters_checked: AtomicU64,
    /// Pmem table probes performed.
    pub pmem_probes: AtomicU64,
    /// DRAM mirror probes performed (PinK).
    pub dram_probes: AtomicU64,
    /// Gets served.
    pub gets: AtomicU64,
    /// MemTable flushes.
    pub flushes: AtomicU64,
    /// Compactions run.
    pub compactions: AtomicU64,
}

/// The Pmem-LSM baseline store.
pub struct PmemLsm {
    dev: Arc<PmemDevice>,
    cfg: PmemLsmConfig,
    log: Arc<StorageLog>,
    writers: WriterPool,
    shards: Vec<Mutex<LsmShard>>,
    manifest: Manifest,
    registry: Mutex<std::collections::HashMap<u64, ManifestRecord>>,
    metrics: LsmMetrics,
    shard_shift: u32,
}

impl PmemLsm {
    /// Creates a fresh store (first allocator client of `dev`).
    pub fn create(dev: Arc<PmemDevice>, cfg: PmemLsmConfig) -> Result<Self> {
        if !cfg.shards.is_power_of_two() || cfg.levels < 2 || cfg.ratio < 2 {
            return Err(KvError::Corrupt("invalid pmem-lsm config"));
        }
        let mut ctx = ThreadCtx::with_default_cost();
        let sb_off = dev.alloc(256)?;
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
            blob: lsm_blob(&cfg),
        };
        sb.write(&dev, &mut ctx, sb_off);
        let manifest = Manifest::create(Arc::clone(&dev), sb_off, manifest_regions);
        let shards = (0..cfg.shards as u32)
            .map(|i| {
                Mutex::new(LsmShard {
                    id: i,
                    memtable: SharedTable::new_resident(cfg.memtable_slots),
                    uppers: (0..cfg.levels - 1).map(|_| Vec::new()).collect(),
                    last: None,
                    table_seq: 0,
                    checkpoint_seq: 0,
                })
            })
            .collect();
        Ok(Self {
            shard_shift: 64 - cfg.shards.trailing_zeros(),
            writers: WriterPool::new(&log, cfg.max_threads),
            shards,
            manifest,
            registry: Mutex::new(std::collections::HashMap::new()),
            metrics: LsmMetrics::default(),
            dev,
            cfg,
            log,
        })
    }

    /// Reopens the store after a crash: manifest replay, filter/mirror
    /// rebuild (variant-dependent), one log scan, MemTable reconstruction.
    pub fn recover(dev: Arc<PmemDevice>, cfg: PmemLsmConfig, ctx: &mut ThreadCtx) -> Result<Self> {
        let sb_off = 256u64;
        let sb = Superblock::read(&dev, ctx, sb_off)?;
        if sb.blob != lsm_blob(&cfg) {
            return Err(KvError::Corrupt("pmem-lsm superblock config mismatch"));
        }
        let (manifest, live) = Manifest::open(Arc::clone(&dev), ctx, sb_off, &sb)?;
        let mut shards: Vec<LsmShard> = (0..cfg.shards as u32)
            .map(|i| LsmShard {
                id: i,
                memtable: SharedTable::new_resident(cfg.memtable_slots),
                uppers: (0..cfg.levels - 1).map(|_| Vec::new()).collect(),
                last: None,
                table_seq: 0,
                checkpoint_seq: 0,
            })
            .collect();
        let mut registry = std::collections::HashMap::new();
        let mut high_water = sb
            .log_region
            .end()
            .max(sb.manifest[0].end())
            .max(sb.manifest[1].end())
            .max(sb_off + 256);
        let mut live_bytes = sb.log_region.len + sb.manifest[0].len + sb.manifest[1].len + 256;
        let last_level = (cfg.levels - 1) as u8;
        for rec in live {
            let ManifestRecord::Add {
                shard,
                level,
                table_seq,
                region,
            } = rec
            else {
                return Err(KvError::Corrupt("live set contains delete"));
            };
            let table = FixedHashTable::open(&dev, ctx, region)?;
            high_water = high_water.max(region.end());
            live_bytes += region.len;
            registry.insert(region.off, rec);
            let s = &mut shards[shard as usize];
            s.table_seq = s.table_seq.max(table_seq);
            s.checkpoint_seq = s.checkpoint_seq.max(table.header().max_log_seq);
            let is_last = level == last_level;
            let wrapped = Self::decorate(&dev, ctx, &cfg, table, is_last);
            if is_last {
                s.last = Some(wrapped);
            } else {
                s.uppers[level as usize].push(wrapped);
            }
        }
        for s in &mut shards {
            for level in &mut s.uppers {
                level.sort_by_key(|t| t.table.header().table_seq);
            }
        }
        dev.reset_allocator(high_water, live_bytes);
        let shard_shift = 64 - cfg.shards.trailing_zeros();
        let nshards = cfg.shards;
        let shard_of = move |hash: u64| {
            if nshards == 1 {
                0usize
            } else {
                (hash >> shard_shift) as usize
            }
        };
        let mut pending: std::collections::HashMap<u64, EntryMeta> =
            std::collections::HashMap::new();
        let log = StorageLog::reopen_with(
            Arc::clone(&dev),
            sb.log_region,
            cfg.log.clone(),
            ctx,
            |meta| {
                let hash = hash64(meta.key);
                if meta.seq > shards[shard_of(hash)].checkpoint_seq {
                    let e = pending.entry(hash).or_insert(meta);
                    if meta.seq >= e.seq {
                        *e = meta;
                    }
                }
            },
        )?;
        let store = Self {
            shard_shift,
            writers: WriterPool::new(&log, cfg.max_threads),
            shards: shards.into_iter().map(Mutex::new).collect(),
            manifest,
            registry: Mutex::new(registry),
            metrics: LsmMetrics::default(),
            dev,
            cfg,
            log,
        };
        // Ascending sequence order: see ChameleonDb::recover — a mid-replay
        // flush must never advance the checkpoint past entries that are
        // still only in the volatile MemTable.
        let mut ordered: Vec<(u64, EntryMeta)> = pending.into_iter().collect();
        ordered.sort_by_key(|(_, m)| m.seq);
        for (hash, meta) in ordered {
            let slot = if meta.tombstone {
                Slot::tombstone(hash, meta.loc())
            } else {
                Slot::new(hash, meta.loc())
            };
            let mut shard = store.shards[shard_of(hash)].lock();
            store.insert_slot(ctx, &mut shard, slot, meta.seq)?;
        }
        Ok(store)
    }

    /// Rebuilds the variant-specific DRAM companions for a recovered table.
    fn decorate(
        dev: &Arc<PmemDevice>,
        ctx: &mut ThreadCtx,
        cfg: &PmemLsmConfig,
        table: FixedHashTable,
        is_last: bool,
    ) -> LsmTable {
        match cfg.variant {
            LsmVariant::NoFilter => LsmTable {
                table,
                filter: None,
                mirror: None,
            },
            LsmVariant::Filter => {
                let slots = table.iter_entries(dev, ctx);
                let mut f = BloomFilter::new(slots.len().max(1), cfg.bits_per_key);
                for s in &slots {
                    f.insert(ctx, s.hash);
                }
                LsmTable {
                    table,
                    filter: Some(f),
                    mirror: None,
                }
            }
            LsmVariant::PinK => {
                if is_last {
                    LsmTable {
                        table,
                        filter: None,
                        mirror: None,
                    }
                } else {
                    let slots = table.iter_entries(dev, ctx);
                    let m = SharedTable::new(table.header().num_slots as usize);
                    for s in &slots {
                        let _ = m.insert_bulk(ctx, *s);
                    }
                    LsmTable {
                        table,
                        filter: None,
                        mirror: Some(m),
                    }
                }
            }
        }
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// Search-cost counters.
    pub fn lsm_metrics(&self) -> &LsmMetrics {
        &self.metrics
    }

    /// Depth (number of tables consulted after the MemTable) at which `key`
    /// is found, or `None`. Used by the Fig. 2 harness to bucket keys by
    /// resident level. Charges no simulated time.
    pub fn find_depth(&self, key: u64) -> Option<usize> {
        let mut scratch = ThreadCtx::with_default_cost();
        let hash = hash64(key);
        let shard = self.shards[self.shard_of(hash)].lock();
        if shard.memtable.get(&mut scratch, hash).is_some() {
            return Some(0);
        }
        let mut depth = 1;
        let mut tables: Vec<&LsmTable> = shard.uppers.iter().flatten().collect();
        tables.sort_by_key(|t| std::cmp::Reverse(t.table.header().table_seq));
        for t in tables {
            if t.table.get(&self.dev, &mut scratch, hash).is_some() {
                return Some(depth);
            }
            depth += 1;
        }
        if let Some(t) = &shard.last {
            if t.table.get(&self.dev, &mut scratch, hash).is_some() {
                return Some(depth);
            }
        }
        None
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (hash >> self.shard_shift) as usize
        }
    }

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
                    // GC audit records belong to ChameleonDB's value-log
                    // collector; this baseline never emits or folds them.
                    ManifestRecord::Gc { .. } => {}
                }
            }
            reg.values().copied().collect()
        };
        self.manifest.append(ctx, records, move || snapshot)
    }

    fn insert_slot(
        &self,
        ctx: &mut ThreadCtx,
        shard: &mut LsmShard,
        slot: Slot,
        seq: u64,
    ) -> Result<Option<u64>> {
        let old = shard.memtable.insert(ctx, slot)?;
        shard.memtable.note_seq(seq);
        if shard.memtable.is_full(self.cfg.load_factor) {
            self.flush_memtable(ctx, shard)?;
            self.cascade_compactions(ctx, shard)?;
        }
        Ok(old)
    }

    /// Builds an [`LsmTable`] (and its filter/mirror) from staged slots.
    #[allow(clippy::too_many_arguments)]
    fn build_table(
        &self,
        ctx: &mut ThreadCtx,
        shard: &mut LsmShard,
        slots_newest_first: &[Slot],
        level: u32,
        capacity: usize,
        max_seq: u64,
        drop_tombstones: bool,
    ) -> Result<LsmTable> {
        let mut b =
            TableBuilder::sized_for(capacity.max(slots_newest_first.len()), self.cfg.load_factor);
        b.note_seq(max_seq);
        let mut kept: Vec<Slot> = Vec::with_capacity(slots_newest_first.len());
        for &slot in slots_newest_first {
            if b.insert(ctx, slot, drop_tombstones)? {
                kept.push(slot);
            }
        }
        let seq = {
            shard.table_seq += 1;
            shard.table_seq
        };
        let table = b.build(&self.dev, ctx, shard.id, level, seq)?;
        let filter = if self.cfg.variant == LsmVariant::Filter {
            let mut f = BloomFilter::new(kept.len().max(1), self.cfg.bits_per_key);
            for s in &kept {
                f.insert(ctx, s.hash);
            }
            Some(f)
        } else {
            None
        };
        let is_last = level as usize == self.cfg.levels - 1;
        let mirror = if self.cfg.variant == LsmVariant::PinK && !is_last {
            let m = SharedTable::new(table.header().num_slots as usize);
            for s in &kept {
                m.insert_bulk(ctx, *s)?;
            }
            Some(m)
        } else {
            None
        };
        Ok(LsmTable {
            table,
            filter,
            mirror,
        })
    }

    fn flush_memtable(&self, ctx: &mut ThreadCtx, shard: &mut LsmShard) -> Result<()> {
        if shard.memtable.is_empty() {
            return Ok(());
        }
        let slots = shard.memtable.iter();
        let max_seq = shard.memtable.max_seq();
        let t = self.build_table(
            ctx,
            shard,
            &slots,
            0,
            self.cfg.memtable_slots,
            max_seq,
            false,
        )?;
        self.commit(
            ctx,
            &[ManifestRecord::Add {
                shard: shard.id,
                level: 0,
                table_seq: t.table.header().table_seq,
                region: t.table.region(),
            }],
        )?;
        shard.checkpoint_seq = shard.checkpoint_seq.max(max_seq);
        shard.uppers[0].push(t);
        shard.memtable = SharedTable::new_resident(self.cfg.memtable_slots);
        self.metrics.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads a table's slots for compaction: from the DRAM mirror when
    /// pinned, otherwise sequentially from Pmem.
    fn table_slots(&self, ctx: &mut ThreadCtx, t: &LsmTable) -> Vec<Slot> {
        match &t.mirror {
            Some(m) => {
                ctx.charge(ctx.cost.dram_stream_ns(m.capacity() * 16));
                m.iter()
            }
            None => t.table.iter_entries(&self.dev, ctx),
        }
    }

    fn cascade_compactions(&self, ctx: &mut ThreadCtx, shard: &mut LsmShard) -> Result<()> {
        loop {
            let mut acted = false;
            for j in 0..shard.uppers.len() {
                if shard.uppers[j].len() >= self.cfg.ratio {
                    if j + 1 < shard.uppers.len() {
                        self.compact_into(ctx, shard, j)?;
                    } else {
                        self.compact_last(ctx, shard)?;
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

    fn compact_into(&self, ctx: &mut ThreadCtx, shard: &mut LsmShard, j: usize) -> Result<()> {
        let inputs = std::mem::take(&mut shard.uppers[j]);
        let mut ordered: Vec<&LsmTable> = inputs.iter().collect();
        ordered.sort_by_key(|t| std::cmp::Reverse(t.table.header().table_seq));
        let mut slots = Vec::new();
        let mut max_seq = 0;
        for t in ordered {
            max_seq = max_seq.max(t.table.header().max_log_seq);
            slots.extend(self.table_slots(ctx, t));
        }
        let capacity = self.cfg.memtable_slots * self.cfg.ratio.pow((j + 1) as u32);
        let out = self.build_table(ctx, shard, &slots, (j + 1) as u32, capacity, max_seq, false)?;
        let mut records = vec![ManifestRecord::Add {
            shard: shard.id,
            level: (j + 1) as u8,
            table_seq: out.table.header().table_seq,
            region: out.table.region(),
        }];
        records.extend(inputs.iter().map(|t| ManifestRecord::Del {
            off: t.table.region().off,
        }));
        self.commit(ctx, &records)?;
        for t in inputs {
            t.table.free(&self.dev);
        }
        shard.uppers[j + 1].push(out);
        self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn compact_last(&self, ctx: &mut ThreadCtx, shard: &mut LsmShard) -> Result<()> {
        let j = shard.uppers.len() - 1;
        let inputs = std::mem::take(&mut shard.uppers[j]);
        let mut ordered: Vec<&LsmTable> = inputs.iter().collect();
        ordered.sort_by_key(|t| std::cmp::Reverse(t.table.header().table_seq));
        let mut slots = Vec::new();
        let mut max_seq = 0;
        for t in ordered {
            max_seq = max_seq.max(t.table.header().max_log_seq);
            slots.extend(self.table_slots(ctx, t));
        }
        if let Some(old) = &shard.last {
            max_seq = max_seq.max(old.table.header().max_log_seq);
            slots.extend(self.table_slots(ctx, old));
        }
        let last_level = (self.cfg.levels - 1) as u32;
        let out = self.build_table(ctx, shard, &slots, last_level, slots.len(), max_seq, true)?;
        let mut records = vec![ManifestRecord::Add {
            shard: shard.id,
            level: last_level as u8,
            table_seq: out.table.header().table_seq,
            region: out.table.region(),
        }];
        records.extend(inputs.iter().map(|t| ManifestRecord::Del {
            off: t.table.region().off,
        }));
        if let Some(old) = &shard.last {
            records.push(ManifestRecord::Del {
                off: old.table.region().off,
            });
        }
        self.commit(ctx, &records)?;
        for t in inputs {
            t.table.free(&self.dev);
        }
        if let Some(old) = shard.last.take() {
            old.table.free(&self.dev);
        }
        shard.checkpoint_seq = shard.checkpoint_seq.max(out.table.header().max_log_seq);
        shard.last = Some(out);
        self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Probes one table according to the variant's rules.
    fn probe_table(&self, ctx: &mut ThreadCtx, t: &LsmTable, hash: u64) -> Option<Slot> {
        if let Some(f) = &t.filter {
            self.metrics.filters_checked.fetch_add(1, Ordering::Relaxed);
            if !f.contains(ctx, hash) {
                return None;
            }
        }
        if let Some(m) = &t.mirror {
            self.metrics.dram_probes.fetch_add(1, Ordering::Relaxed);
            return m.get(ctx, hash);
        }
        self.metrics.pmem_probes.fetch_add(1, Ordering::Relaxed);
        t.table.get(&self.dev, ctx, hash)
    }

    fn search(&self, ctx: &mut ThreadCtx, shard: &LsmShard, hash: u64) -> Option<Slot> {
        if let Some(s) = shard.memtable.get(ctx, hash) {
            return Some(s);
        }
        let mut tables: Vec<&LsmTable> = shard.uppers.iter().flatten().collect();
        tables.sort_by_key(|t| std::cmp::Reverse(t.table.header().table_seq));
        for t in tables {
            if let Some(s) = self.probe_table(ctx, t, hash) {
                return Some(s);
            }
        }
        if let Some(t) = &shard.last {
            if let Some(s) = self.probe_table(ctx, t, hash) {
                return Some(s);
            }
        }
        None
    }
}

fn lsm_blob(cfg: &PmemLsmConfig) -> [u8; 128] {
    let mut blob = [0u8; 128];
    blob[0..4].copy_from_slice(&(cfg.shards as u32).to_le_bytes());
    blob[4..8].copy_from_slice(&(cfg.memtable_slots as u32).to_le_bytes());
    blob[8] = cfg.levels as u8;
    blob[9] = cfg.ratio as u8;
    blob[10] = match cfg.variant {
        LsmVariant::NoFilter => 0,
        LsmVariant::Filter => 1,
        LsmVariant::PinK => 2,
    };
    blob[16..24].copy_from_slice(&cfg.log.capacity.to_le_bytes());
    blob[24..32].copy_from_slice(&cfg.manifest_bytes.to_le_bytes());
    blob
}

impl KvStore for PmemLsm {
    fn name(&self) -> &'static str {
        match self.cfg.variant {
            LsmVariant::NoFilter => "pmem-lsm-nf",
            LsmVariant::Filter => "pmem-lsm-f",
            LsmVariant::PinK => "pmem-lsm-pink",
        }
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        let meta = self.writers.append(ctx, key, value, false)?;
        if let Some(old) =
            self.insert_slot(ctx, &mut shard, Slot::new(hash, meta.loc()), meta.seq)?
        {
            let (_, hint) = kvlog::unpack_loc(old);
            self.log.note_dead((ENTRY_HEADER + hint) as u64);
        }
        Ok(())
    }

    fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool> {
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        self.metrics.gets.fetch_add(1, Ordering::Relaxed);
        let hash = hash64(key);
        let found = {
            let shard = self.shards[self.shard_of(hash)].lock();
            self.search(ctx, &shard, hash)
        };
        match found {
            None => Ok(false),
            Some(s) if s.is_tombstone() => Ok(false),
            Some(s) => {
                let meta = self.log.read_entry(ctx, s.location(), out)?;
                if meta.key != key {
                    return Err(KvError::Corrupt("log entry key mismatch"));
                }
                Ok(true)
            }
        }
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
        ctx.charge(ctx.cost.op_overhead_ns + ctx.cost.hash_ns);
        let hash = hash64(key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        let existed = matches!(self.search(ctx, &shard, hash), Some(s) if !s.is_tombstone());
        let meta = self.writers.append(ctx, key, &[], true)?;
        self.insert_slot(ctx, &mut shard, Slot::tombstone(hash, meta.loc()), meta.seq)?;
        Ok(existed)
    }

    fn sync(&self, ctx: &mut ThreadCtx) -> Result<()> {
        self.writers.flush_all(ctx)
    }

    fn dram_footprint(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.memtable.dram_bytes()
                    + s.uppers
                        .iter()
                        .flatten()
                        .map(LsmTable::dram_bytes)
                        .sum::<u64>()
                    + s.last.as_ref().map_or(0, LsmTable::dram_bytes)
            })
            .sum()
    }

    fn approx_len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.memtable.len() as u64
                    + s.uppers
                        .iter()
                        .flatten()
                        .map(|t| t.table.num_entries())
                        .sum::<u64>()
                    + s.last.as_ref().map_or(0, |t| t.table.num_entries())
            })
            .sum()
    }
}

impl CrashRecover for PmemLsm {
    fn crash_and_recover(&mut self, ctx: &mut ThreadCtx) -> Result<()> {
        self.dev.crash();
        *self = PmemLsm::recover(Arc::clone(&self.dev), self.cfg.clone(), ctx)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(variant: LsmVariant) -> (PmemLsm, ThreadCtx) {
        let dev = PmemDevice::optane(512 << 20);
        (
            PmemLsm::create(dev, PmemLsmConfig::tiny(variant)).unwrap(),
            ThreadCtx::with_default_cost(),
        )
    }

    fn roundtrip(variant: LsmVariant) {
        let (db, mut c) = store(variant);
        let n = 40_000u64;
        for k in 0..n {
            db.put(&mut c, k, &k.to_le_bytes()).unwrap();
        }
        let mut out = Vec::new();
        for k in 0..n {
            assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} missing");
            assert_eq!(out, k.to_le_bytes());
        }
        assert!(!db.get(&mut c, n + 9, &mut out).unwrap());
        assert!(db.lsm_metrics().compactions.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn nf_roundtrip_through_compactions() {
        roundtrip(LsmVariant::NoFilter);
    }

    #[test]
    fn filter_roundtrip_through_compactions() {
        roundtrip(LsmVariant::Filter);
    }

    #[test]
    fn pink_roundtrip_through_compactions() {
        roundtrip(LsmVariant::PinK);
    }

    #[test]
    fn filters_cut_pmem_probes_for_misses() {
        let (nf, mut c1) = store(LsmVariant::NoFilter);
        let (f, mut c2) = store(LsmVariant::Filter);
        for k in 0..20_000u64 {
            nf.put(&mut c1, k, b"v").unwrap();
            f.put(&mut c2, k, b"v").unwrap();
        }
        let mut out = Vec::new();
        for k in 100_000..101_000u64 {
            nf.get(&mut c1, k, &mut out).unwrap();
            f.get(&mut c2, k, &mut out).unwrap();
        }
        let nf_probes = nf.lsm_metrics().pmem_probes.load(Ordering::Relaxed);
        let f_probes = f.lsm_metrics().pmem_probes.load(Ordering::Relaxed);
        assert!(
            f_probes < nf_probes / 2,
            "filters should cut probes: {f_probes} vs {nf_probes}"
        );
    }

    #[test]
    fn pink_serves_upper_levels_from_dram() {
        let (db, mut c) = store(LsmVariant::PinK);
        for k in 0..10_000u64 {
            db.put(&mut c, k, b"v").unwrap();
        }
        let mut out = Vec::new();
        for k in 0..10_000u64 {
            db.get(&mut c, k, &mut out).unwrap();
        }
        assert!(db.lsm_metrics().dram_probes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn delete_then_miss() {
        let (db, mut c) = store(LsmVariant::NoFilter);
        for k in 0..2000u64 {
            db.put(&mut c, k, b"v").unwrap();
        }
        assert!(db.delete(&mut c, 100).unwrap());
        let mut out = Vec::new();
        assert!(!db.get(&mut c, 100, &mut out).unwrap());
    }

    #[test]
    fn recovery_roundtrip_all_variants() {
        for variant in [LsmVariant::NoFilter, LsmVariant::Filter, LsmVariant::PinK] {
            let dev = PmemDevice::optane(512 << 20);
            let cfg = PmemLsmConfig::tiny(variant);
            let db = PmemLsm::create(Arc::clone(&dev), cfg.clone()).unwrap();
            let mut c = ThreadCtx::with_default_cost();
            for k in 0..15_000u64 {
                db.put(&mut c, k, &k.to_le_bytes()).unwrap();
            }
            db.sync(&mut c).unwrap();
            drop(db);
            dev.crash();
            let db2 = PmemLsm::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
            let mut out = Vec::new();
            for k in 0..15_000u64 {
                assert!(
                    db2.get(&mut c, k, &mut out).unwrap(),
                    "{variant:?}: key {k} lost"
                );
            }
        }
    }

    /// Pins each variant's simulated charge, device traffic and DRAM
    /// footprint over puts, overwrites, deletes, gets and a restart, so a
    /// change to the tables they probe cannot move the baselines' figures.
    #[test]
    fn sim_cost_is_pinned() {
        let pinned = [
            (
                LsmVariant::NoFilter,
                (178_539_845, 135_854_336, 6_561_280, 8_192),
            ),
            (
                LsmVariant::Filter,
                (132_745_852, 39_027_712, 6_561_280, 63_248),
            ),
            (
                LsmVariant::PinK,
                (87_363_422, 32_904_448, 6_561_280, 839_680),
            ),
        ];
        for (variant, want) in pinned {
            let (mut db, mut c) = store(variant);
            for k in 0..30_000u64 {
                db.put(&mut c, k, &k.to_le_bytes()).unwrap();
            }
            for k in (0..30_000u64).step_by(3) {
                db.put(&mut c, k, b"rewritten").unwrap();
            }
            for k in (0..30_000u64).step_by(7) {
                db.delete(&mut c, k).unwrap();
            }
            let mut out = Vec::new();
            for k in 0..40_000u64 {
                db.get(&mut c, k, &mut out).unwrap();
            }
            db.sync(&mut c).unwrap();
            db.crash_and_recover(&mut c).unwrap();
            for k in 0..40_000u64 {
                db.get(&mut c, k, &mut out).unwrap();
            }
            let io = db.dev.stats().snapshot();
            let got = (
                c.clock.now(),
                io.media_bytes_read,
                io.media_bytes_written,
                db.dram_footprint(),
            );
            assert_eq!(got, want, "{variant:?}");
        }
    }

    #[test]
    fn find_depth_distinguishes_levels() {
        let (db, mut c) = store(LsmVariant::NoFilter);
        for k in 0..30_000u64 {
            db.put(&mut c, k, b"v").unwrap();
        }
        let depths: std::collections::HashSet<usize> =
            (0..30_000u64).filter_map(|k| db.find_depth(k)).collect();
        assert!(depths.len() >= 3, "expected keys across levels: {depths:?}");
    }
}
