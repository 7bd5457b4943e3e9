//! The immutable fixed-size hash table persisted as an LSM (sub-)level.

use std::sync::Arc;

use kvapi::{KvError, Result};
use pmem_sim::{PRegion, PmemDevice, ThreadCtx};

use crate::slot::{Slot, SLOT_BYTES};

/// Size of the persisted, 256B-aligned table header.
pub const TABLE_HEADER_BYTES: usize = 256;

const MAGIC: u64 = 0x4348_414D_5F54_4231; // "CHAM_TB1"

/// Decoded header of a persisted table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableHeader {
    /// Slot capacity.
    pub num_slots: u64,
    /// Occupied slots (live + tombstones).
    pub num_entries: u64,
    /// Owning shard.
    pub shard: u32,
    /// LSM level the table was written into.
    pub level: u32,
    /// Per-shard monotonic table number — higher means newer, which is how
    /// recovery re-establishes sub-level search order.
    pub table_seq: u64,
    /// Highest log sequence number contained (the MemTable-recovery
    /// checkpoint of §2.1).
    pub max_log_seq: u64,
}

impl TableHeader {
    fn encode(&self) -> [u8; TABLE_HEADER_BYTES] {
        let mut out = [0u8; TABLE_HEADER_BYTES];
        out[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.num_slots.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_entries.to_le_bytes());
        out[24..28].copy_from_slice(&self.shard.to_le_bytes());
        out[28..32].copy_from_slice(&self.level.to_le_bytes());
        out[32..40].copy_from_slice(&self.table_seq.to_le_bytes());
        out[40..48].copy_from_slice(&self.max_log_seq.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        let magic = u64::from_le_bytes(buf[0..8].try_into().expect("header bytes"));
        if magic != MAGIC {
            return Err(KvError::Corrupt("table magic"));
        }
        Ok(Self {
            num_slots: u64::from_le_bytes(buf[8..16].try_into().expect("header bytes")),
            num_entries: u64::from_le_bytes(buf[16..24].try_into().expect("header bytes")),
            shard: u32::from_le_bytes(buf[24..28].try_into().expect("header bytes")),
            level: u32::from_le_bytes(buf[28..32].try_into().expect("header bytes")),
            table_seq: u64::from_le_bytes(buf[32..40].try_into().expect("header bytes")),
            max_log_seq: u64::from_le_bytes(buf[40..48].try_into().expect("header bytes")),
        })
    }
}

/// An immutable linear-probing hash table on persistent memory.
///
/// Layout: one 256B header followed by `num_slots` 16-byte slots. Tables are
/// built in DRAM by a [`TableBuilder`] and written with large sequential
/// stores — the whole point of the paper's design is that index data reaches
/// the Pmem only in this form, fully utilising the 256B write unit (§2.1).
#[derive(Debug, Clone)]
pub struct FixedHashTable {
    region: PRegion,
    header: TableHeader,
}

impl FixedHashTable {
    /// Opens (and validates) a table previously persisted at `region`.
    ///
    /// Charges one random device read for the header — this is the cheap
    /// part of recovery.
    pub fn open(dev: &PmemDevice, ctx: &mut ThreadCtx, region: PRegion) -> Result<Self> {
        let mut buf = [0u8; TABLE_HEADER_BYTES];
        dev.read(ctx, region.off, &mut buf);
        let header = TableHeader::decode(&buf)?;
        let expect = TABLE_HEADER_BYTES as u64 + header.num_slots * SLOT_BYTES as u64;
        if expect > region.len {
            return Err(KvError::Corrupt("table region too small for header"));
        }
        Ok(Self { region, header })
    }

    /// The table's header metadata.
    pub fn header(&self) -> &TableHeader {
        &self.header
    }

    /// The persistent region backing this table.
    pub fn region(&self) -> PRegion {
        self.region
    }

    /// Occupied entries.
    pub fn num_entries(&self) -> u64 {
        self.header.num_entries
    }

    /// Total persistent bytes.
    pub fn bytes(&self) -> u64 {
        TABLE_HEADER_BYTES as u64 + self.header.num_slots * SLOT_BYTES as u64
    }

    /// Looks up `hash` by linear probing (see [`Self::probe`] for what a
    /// probe reads and charges).
    pub fn get(&self, dev: &PmemDevice, ctx: &mut ThreadCtx, hash: u64) -> Option<Slot> {
        self.probe(dev, ctx, hash).map(|(_, slot)| slot)
    }

    /// Finds `hash`'s slot and its index by linear probing.
    ///
    /// Reads one 256B media block (16 slots) per device access: the first
    /// access pays the device's random-read latency, continuation blocks
    /// are charged bandwidth-only (XPBuffer locality), matching how a real
    /// implementation scans adjacent cache lines. Each slot compared costs
    /// one `key_cmp_ns`.
    fn probe(&self, dev: &PmemDevice, ctx: &mut ThreadCtx, hash: u64) -> Option<(u64, Slot)> {
        let n = self.header.num_slots;
        if n == 0 {
            return None;
        }
        let slots_per_block = 256 / SLOT_BYTES; // 16
        let base = self.region.off + TABLE_HEADER_BYTES as u64;
        let mut block_buf = [0u8; 256];
        let mut loaded_block = u64::MAX;
        let mut idx = hash % n;
        for _ in 0..n {
            let block = (idx * SLOT_BYTES as u64) / 256;
            if block != loaded_block {
                let block_off = base + block * 256;
                // The last block of a small table may be short; clamp.
                let avail = ((n * SLOT_BYTES as u64) - block * 256).min(256) as usize;
                if loaded_block == u64::MAX {
                    dev.read(ctx, block_off, &mut block_buf[..avail]);
                } else {
                    dev.read_adjacent(ctx, block_off, &mut block_buf[..avail]);
                }
                loaded_block = block;
            }
            let within = (idx as usize % slots_per_block) * SLOT_BYTES;
            let slot = Slot::decode(&block_buf[within..within + SLOT_BYTES]);
            ctx.charge(ctx.cost.key_cmp_ns);
            if slot.is_empty() {
                return None;
            }
            if slot.hash == hash {
                return Some((idx, slot));
            }
            idx = (idx + 1) % n;
        }
        None
    }

    /// Every occupied slot, collected by [`Self::for_each_entry`].
    ///
    /// Used by compactions that cannot be served from the ABI, by
    /// Pmem-LSM-PinK to build its DRAM copies, and by ChameleonDB's
    /// post-restart ABI rebuild.
    pub fn iter_entries(&self, dev: &PmemDevice, ctx: &mut ThreadCtx) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.header.num_entries as usize);
        self.for_each_entry(dev, ctx, |slot| out.push(slot));
        out
    }

    /// Streams every occupied slot to `f` in slot order: one sequential
    /// read of the whole table, in 64 KiB chunks, and no slot array.
    pub fn for_each_entry(&self, dev: &PmemDevice, ctx: &mut ThreadCtx, mut f: impl FnMut(Slot)) {
        let total = (self.header.num_slots * SLOT_BYTES as u64) as usize;
        let base = self.region.off + TABLE_HEADER_BYTES as u64;
        let mut buf = vec![0u8; 64 << 10];
        let mut pos = 0usize;
        let mut first = true;
        while pos < total {
            let take = buf.len().min(total - pos);
            if first {
                dev.read(ctx, base + pos as u64, &mut buf[..take]);
                first = false;
            } else {
                dev.read_seq(ctx, base + pos as u64, &mut buf[..take]);
            }
            for chunk in buf[..take].chunks_exact(SLOT_BYTES) {
                let slot = Slot::decode(chunk);
                if !slot.is_empty() {
                    f(slot);
                }
            }
            pos += take;
        }
    }

    /// Frees the table's persistent region.
    pub fn free(self, dev: &PmemDevice) {
        dev.dealloc(self.region.off, self.region.len);
    }

    /// Rewrites one slot's location word in place, for GC repointing.
    ///
    /// Probes for `hash` exactly like [`FixedHashTable::get`] — same
    /// blocks read, same simulated charges; if the slot is found and its
    /// location (tombstone bit aside) equals `old_loc`, the 8-byte word is
    /// rewritten to `new_loc` with the tombstone bit preserved. The word
    /// is 8-byte aligned so the store is atomic at crash granularity:
    /// recovery sees either the old or the new location, never a torn mix.
    ///
    /// Issues a non-temporal store but **no fence** — the caller batches
    /// repoints across an extent and fences once before declaring the GC
    /// commit durable.
    pub fn repoint_slot(
        &self,
        dev: &PmemDevice,
        ctx: &mut ThreadCtx,
        hash: u64,
        old_loc: u64,
        new_loc: u64,
    ) -> bool {
        use crate::slot::TOMBSTONE_BIT;
        let Some((idx, slot)) = self.probe(dev, ctx, hash) else {
            return false;
        };
        if slot.loc & !TOMBSTONE_BIT != old_loc & !TOMBSTONE_BIT {
            return false;
        }
        let word = (new_loc & !TOMBSTONE_BIT) | (slot.loc & TOMBSTONE_BIT);
        let off = self.region.off + TABLE_HEADER_BYTES as u64 + idx * SLOT_BYTES as u64;
        dev.write_nt(ctx, off + 8, &word.to_le_bytes());
        true
    }
}

/// Builds an immutable table in DRAM, then persists it in one sequential
/// sweep.
///
/// Insertion order is *newest first*: an insert whose hash is already
/// staged is skipped, which is how compactions deduplicate overwritten
/// keys. CPU work (staging probes) is charged to the builder's caller —
/// this is the compaction CPU cost the paper discusses in §3.3.
#[derive(Debug)]
pub struct TableBuilder {
    slots: Vec<Slot>,
    num_slots: u64,
    entries: u64,
    max_log_seq: u64,
    /// Set when a tombstone was staged with `drop_tombstone`: the final
    /// image is re-hashed without tombstones at [`TableBuilder::build`].
    prune_tombstones: bool,
    /// Slots this build drops from the index: older duplicates shadowed
    /// by a newer staged version, and tombstones pruned from a last-level
    /// image. Once the merge commits (sources freed) nothing references
    /// these log entries, so the committer credits them as dead bytes.
    /// Whole slots (not bare location words) so the committer can verify
    /// each against the log — a long-shadowed version's extent may have
    /// been garbage-collected since, leaving the slot stale.
    dropped: Vec<Slot>,
}

impl TableBuilder {
    /// Creates a builder with exactly `num_slots` slots (callers size this
    /// from entry count and load factor; it need not be a power of two).
    pub fn new(num_slots: usize) -> Self {
        Self {
            slots: vec![Slot::EMPTY; num_slots.max(1)],
            num_slots: num_slots.max(1) as u64,
            entries: 0,
            max_log_seq: 0,
            prune_tombstones: false,
            dropped: Vec::new(),
        }
    }

    /// Sizes a builder for `entries` items at `load_factor`, rounding the
    /// byte size up to a whole 256B block.
    pub fn sized_for(entries: usize, load_factor: f64) -> Self {
        let raw = ((entries as f64 / load_factor).ceil() as usize).max(16);
        let bytes = (raw * SLOT_BYTES).div_ceil(256) * 256;
        Self::new(bytes / SLOT_BYTES)
    }

    /// Number of staged entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> u64 {
        self.num_slots
    }

    /// Records the highest log sequence number this table will cover.
    pub fn note_seq(&mut self, seq: u64) {
        self.max_log_seq = self.max_log_seq.max(seq);
    }

    /// Stages one slot. Returns `false` if the hash was already present
    /// (the staged, newer version wins) or `Err` if the table is full.
    ///
    /// `drop_tombstone` should be true only when building the *last* level:
    /// once the merge is complete nothing below the output can hold the
    /// key, so the tombstone need not be persisted. The tombstone is still
    /// *staged* — callers stream sources newest-first and a merge's older
    /// sources (dumped tables, the previous last level) may carry versions
    /// the tombstone must shadow — and is pruned from the image by
    /// [`TableBuilder::build`]. (Dropping it immediately here instead used
    /// to let the old last level resurrect deleted keys.)
    pub fn insert(
        &mut self,
        ctx: &mut ThreadCtx,
        slot: Slot,
        drop_tombstone: bool,
    ) -> Result<bool> {
        debug_assert!(!slot.is_empty());
        let mut idx = (slot.hash % self.num_slots) as usize;
        // The image under construction streams through the cache.
        ctx.charge(ctx.cost.dram_l2_ns);
        for probe in 0..self.slots.len() {
            if probe > 0 {
                ctx.charge(ctx.cost.key_cmp_ns + ctx.cost.dram_seq_line_ns);
            }
            let cur = self.slots[idx];
            if cur.is_empty() {
                if slot.is_tombstone() && drop_tombstone {
                    // Staged only to shadow older sources; `build` prunes
                    // it from the image, so its log entry dies with this
                    // merge.
                    self.prune_tombstones = true;
                    self.dropped.push(slot);
                }
                self.slots[idx] = slot;
                self.entries += 1;
                return Ok(true);
            }
            if cur.hash == slot.hash {
                // Already staged by a newer source — the older version's
                // log entry leaves the index when this merge commits. The
                // same word staged twice is one entry (replay copies a slot
                // a table still holds): it stays in the image, not dropped.
                if cur.loc != slot.loc {
                    self.dropped.push(slot);
                }
                return Ok(false);
            }
            idx = (idx + 1) % self.slots.len();
        }
        Err(KvError::Full("table builder"))
    }

    /// Persists the staged table: header + slots, written sequentially with
    /// non-temporal stores and a single trailing fence.
    pub fn build(
        self,
        dev: &Arc<PmemDevice>,
        ctx: &mut ThreadCtx,
        shard: u32,
        level: u32,
        table_seq: u64,
    ) -> Result<FixedHashTable> {
        self.build_and_drops(dev, ctx, shard, level, table_seq)
            .map(|(t, _)| t)
    }

    /// Like [`TableBuilder::build`], but also returns the slots the merge
    /// dropped from the index, for the committer to credit as dead log
    /// bytes (after validating residency) once the source tables are
    /// freed.
    pub fn build_and_drops(
        mut self,
        dev: &Arc<PmemDevice>,
        ctx: &mut ThreadCtx,
        shard: u32,
        level: u32,
        table_seq: u64,
    ) -> Result<(FixedHashTable, Vec<Slot>)> {
        if self.prune_tombstones {
            // Tombstones were staged only to shadow older sources during
            // the merge; re-hash the survivors so the persisted image holds
            // no tombstones and no broken probe chains.
            let live: Vec<Slot> = self
                .slots
                .iter()
                .copied()
                .filter(|s| !s.is_empty() && !s.is_tombstone())
                .collect();
            self.slots.fill(Slot::EMPTY);
            self.entries = 0;
            for slot in live {
                let mut idx = (slot.hash % self.num_slots) as usize;
                ctx.charge(ctx.cost.dram_l2_ns);
                while !self.slots[idx].is_empty() {
                    idx = (idx + 1) % self.slots.len();
                }
                self.slots[idx] = slot;
                self.entries += 1;
            }
        }
        let header = TableHeader {
            num_slots: self.num_slots,
            num_entries: self.entries,
            shard,
            level,
            table_seq,
            max_log_seq: self.max_log_seq,
        };
        let bytes = TABLE_HEADER_BYTES as u64 + self.num_slots * SLOT_BYTES as u64;
        let region = dev.alloc_region(bytes)?;
        dev.write_nt(ctx, region.off, &header.encode());
        // Stream the slot array in 16KB chunks to bound the copy buffer.
        let base = region.off + TABLE_HEADER_BYTES as u64;
        let mut chunk = Vec::with_capacity(16 << 10);
        let mut written = 0u64;
        for slot in &self.slots {
            chunk.extend_from_slice(&slot.encode());
            if chunk.len() >= 16 << 10 {
                dev.write_nt(ctx, base + written, &chunk);
                written += chunk.len() as u64;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            dev.write_nt(ctx, base + written, &chunk);
        }
        dev.fence(ctx);
        Ok((FixedHashTable { region, header }, self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvapi::hash64;

    fn setup() -> (Arc<PmemDevice>, ThreadCtx) {
        (PmemDevice::optane(16 << 20), ThreadCtx::with_default_cost())
    }

    fn build_with(
        dev: &Arc<PmemDevice>,
        ctx: &mut ThreadCtx,
        keys: impl Iterator<Item = (u64, u64)>,
        slots: usize,
    ) -> FixedHashTable {
        let mut b = TableBuilder::new(slots);
        for (k, loc) in keys {
            b.insert(ctx, Slot::new(hash64(k), loc), false).unwrap();
        }
        b.build(dev, ctx, 0, 0, 1).unwrap()
    }

    #[test]
    fn build_then_get_all_keys() {
        let (dev, mut ctx) = setup();
        let t = build_with(&dev, &mut ctx, (1..=100u64).map(|k| (k, k * 7)), 160);
        for k in 1..=100u64 {
            let s = t.get(&dev, &mut ctx, hash64(k)).expect("present");
            assert_eq!(s.loc, k * 7);
        }
        assert!(t.get(&dev, &mut ctx, hash64(5000)).is_none());
        assert_eq!(t.num_entries(), 100);
    }

    #[test]
    fn newest_first_dedup() {
        let (dev, mut ctx) = setup();
        let mut b = TableBuilder::new(32);
        let h = hash64(9);
        assert!(b.insert(&mut ctx, Slot::new(h, 111), false).unwrap());
        assert!(!b.insert(&mut ctx, Slot::new(h, 222), false).unwrap());
        let t = b.build(&dev, &mut ctx, 0, 0, 1).unwrap();
        assert_eq!(t.get(&dev, &mut ctx, h).unwrap().loc, 111);
    }

    #[test]
    fn tombstones_dropped_only_when_requested() {
        let (dev, mut ctx) = setup();
        let h = hash64(3);
        let mut keep = TableBuilder::new(16);
        assert!(keep.insert(&mut ctx, Slot::tombstone(h, 5), false).unwrap());
        let t = keep.build(&dev, &mut ctx, 0, 0, 1).unwrap();
        assert_eq!(t.num_entries(), 1);
        assert!(t.get(&dev, &mut ctx, h).unwrap().is_tombstone());
        let mut drop_b = TableBuilder::new(16);
        assert!(drop_b
            .insert(&mut ctx, Slot::tombstone(h, 5), true)
            .unwrap());
        let t = drop_b.build(&dev, &mut ctx, 0, 0, 2).unwrap();
        assert_eq!(t.num_entries(), 0);
        assert!(t.get(&dev, &mut ctx, h).is_none());
    }

    /// Regression: a last-level merge streams sources newest-first, so a
    /// tombstone staged with `drop_tombstone` must still shadow an older
    /// source's version of the same key — dropping it immediately let the
    /// previous last level resurrect deleted keys. The tombstone shadows
    /// during staging and is pruned from the built image.
    #[test]
    fn dropped_tombstone_still_shadows_older_sources() {
        let (dev, mut ctx) = setup();
        let ha = hash64(7);
        let hb = hash64(8);
        let mut b = TableBuilder::new(32);
        // Newest source: key A was deleted, key B is live.
        assert!(b.insert(&mut ctx, Slot::tombstone(ha, 0), true).unwrap());
        assert!(b.insert(&mut ctx, Slot::new(hb, 200), true).unwrap());
        // Older source (the previous last level) still holds key A.
        assert!(!b.insert(&mut ctx, Slot::new(ha, 100), true).unwrap());
        assert!(!b.insert(&mut ctx, Slot::new(hb, 150), true).unwrap());
        let t = b.build(&dev, &mut ctx, 0, 3, 9).unwrap();
        // Key A stays deleted, key B keeps the newest location, and the
        // probe chains survive the prune.
        assert!(t.get(&dev, &mut ctx, ha).is_none());
        assert_eq!(t.get(&dev, &mut ctx, hb).unwrap().loc, 200);
        assert_eq!(t.num_entries(), 1);
    }

    #[test]
    fn open_validates_and_roundtrips_header() {
        let (dev, mut ctx) = setup();
        let t = build_with(&dev, &mut ctx, (1..=10u64).map(|k| (k, k)), 32);
        let reopened = FixedHashTable::open(&dev, &mut ctx, t.region()).unwrap();
        assert_eq!(reopened.header(), t.header());
        // Garbage region fails validation.
        let junk = dev.alloc_region(1024).unwrap();
        assert!(matches!(
            FixedHashTable::open(&dev, &mut ctx, junk),
            Err(KvError::Corrupt(_))
        ));
    }

    #[test]
    fn table_survives_crash() {
        let (dev, mut ctx) = setup();
        let t = build_with(&dev, &mut ctx, (1..=50u64).map(|k| (k, k + 1)), 128);
        dev.crash();
        let reopened = FixedHashTable::open(&dev, &mut ctx, t.region()).unwrap();
        for k in 1..=50u64 {
            assert_eq!(reopened.get(&dev, &mut ctx, hash64(k)).unwrap().loc, k + 1);
        }
    }

    #[test]
    fn iter_entries_returns_every_slot() {
        let (dev, mut ctx) = setup();
        let t = build_with(&dev, &mut ctx, (1..=64u64).map(|k| (k, k * 2)), 128);
        let mut locs: Vec<u64> = t
            .iter_entries(&dev, &mut ctx)
            .iter()
            .map(|s| s.loc)
            .collect();
        locs.sort_unstable();
        assert_eq!(locs, (1..=64).map(|k| k * 2).collect::<Vec<_>>());
    }

    #[test]
    fn build_writes_are_sequential_full_blocks() {
        let (dev, mut ctx) = setup();
        dev.stats().reset();
        let _t = build_with(&dev, &mut ctx, (1..=1000u64).map(|k| (k, k)), 2048);
        let s = dev.stats().snapshot();
        // Table is a contiguous 256B-aligned image: no RMW blocks at all.
        assert_eq!(
            s.rmw_blocks, 0,
            "table flush must not do partial-block writes"
        );
        let expected = TABLE_HEADER_BYTES as u64 + 2048 * 16;
        assert_eq!(s.media_bytes_written, expected);
    }

    #[test]
    fn builder_sized_for_rounds_to_blocks() {
        let b = TableBuilder::sized_for(100, 0.75);
        // ceil(100/0.75)=134 slots = 2144B -> rounds to 2304B = 144 slots.
        assert_eq!(b.capacity() % 16, 0);
        assert!(b.capacity() >= 134);
    }

    #[test]
    fn full_builder_errors() {
        let mut ctx = ThreadCtx::with_default_cost();
        let mut b = TableBuilder::new(4);
        for k in 0..4u64 {
            b.insert(&mut ctx, Slot::new(hash64(k), k + 1), false)
                .unwrap();
        }
        assert!(matches!(
            b.insert(&mut ctx, Slot::new(hash64(99), 1), false),
            Err(KvError::Full(_))
        ));
    }

    #[test]
    fn get_probes_cross_block_boundaries() {
        let (dev, mut ctx) = setup();
        // Tiny table with forced collisions: hashes chosen to collide at
        // slot positions near the block boundary.
        let n = 32u64; // 2 media blocks of slots
        let mut b = TableBuilder::new(n as usize);
        // All slots in block 0 occupied with hashes landing at index 14.
        let hashes: Vec<u64> = (0..6u64).map(|i| 14 + i * n).collect();
        for (i, &h) in hashes.iter().enumerate() {
            b.insert(&mut ctx, Slot::new(h, (i + 1) as u64), false)
                .unwrap();
        }
        let t = b.build(&dev, &mut ctx, 0, 0, 1).unwrap();
        // The last inserted hash probes past index 15 into block 1.
        let s = t.get(&dev, &mut ctx, hashes[5]).unwrap();
        assert_eq!(s.loc, 6);
    }

    #[test]
    fn build_reports_dropped_locations() {
        let (dev, mut ctx) = setup();
        let ha = hash64(1);
        let hb = hash64(2);
        let mut b = TableBuilder::new(32);
        // Newest source: A deleted (tombstone at loc 900), B live at 200.
        assert!(b.insert(&mut ctx, Slot::tombstone(ha, 900), true).unwrap());
        assert!(b.insert(&mut ctx, Slot::new(hb, 200), true).unwrap());
        // Older source still holds A at 100 and B at 150 — both shadowed.
        assert!(!b.insert(&mut ctx, Slot::new(ha, 100), true).unwrap());
        assert!(!b.insert(&mut ctx, Slot::new(hb, 150), true).unwrap());
        let (t, mut drops) = b.build_and_drops(&dev, &mut ctx, 0, 3, 1).unwrap();
        // The pruned tombstone and both shadowed versions die with the
        // merge; the surviving B@200 does not. Each drop keeps its hash so
        // the committer can validate the credit against the log.
        drops.sort_unstable_by_key(|s| s.loc);
        let expect_tomb = 900 | crate::slot::TOMBSTONE_BIT;
        assert_eq!(
            drops,
            vec![
                Slot::new(ha, 100),
                Slot::new(hb, 150),
                Slot {
                    hash: ha,
                    loc: expect_tomb
                },
            ]
        );
        assert_eq!(t.num_entries(), 1);
    }

    #[test]
    fn repoint_slot_rewrites_persistently() {
        let (dev, mut ctx) = setup();
        let h = hash64(42);
        let ht = hash64(43);
        let mut b = TableBuilder::new(32);
        b.insert(&mut ctx, Slot::new(h, 111), false).unwrap();
        b.insert(&mut ctx, Slot::tombstone(ht, 300), false).unwrap();
        let t = b.build(&dev, &mut ctx, 0, 0, 1).unwrap();
        // Wrong old location refuses.
        assert!(!t.repoint_slot(&dev, &mut ctx, h, 999, 555));
        assert_eq!(t.get(&dev, &mut ctx, h).unwrap().loc, 111);
        // Matching old location rewrites; caller fences the batch.
        assert!(t.repoint_slot(&dev, &mut ctx, h, 111, 555));
        assert!(t.repoint_slot(&dev, &mut ctx, ht, 300, 400));
        dev.fence(&mut ctx);
        assert_eq!(t.get(&dev, &mut ctx, h).unwrap().loc, 555);
        let ts = t.get(&dev, &mut ctx, ht).unwrap();
        assert!(ts.is_tombstone());
        assert_eq!(ts.location(), 400);
        // Survives a crash after the fence.
        dev.crash();
        let reopened = FixedHashTable::open(&dev, &mut ctx, t.region()).unwrap();
        assert_eq!(reopened.get(&dev, &mut ctx, h).unwrap().loc, 555);
        // Missing hash is a no-op.
        assert!(!reopened.repoint_slot(&dev, &mut ctx, hash64(777), 1, 2));
    }

    /// A GC repoint reads what a get of the same hash reads — one 256B
    /// block per block the probe chain visits — and adds only its 8B
    /// store. `get_probes_cross_block_boundaries`'s chain starts at slot
    /// 14 of 16, so its tail lies in the second block.
    #[test]
    fn repoint_slot_costs_a_get_plus_one_word() {
        let (dev, mut ctx) = setup();
        let n = 32u64;
        let hashes: Vec<u64> = (0..6u64).map(|i| 14 + i * n).collect();
        let mut b = TableBuilder::new(n as usize);
        for (i, &h) in hashes.iter().enumerate() {
            b.insert(&mut ctx, Slot::new(h, i as u64 + 1), false)
                .unwrap();
        }
        let t = b.build(&dev, &mut ctx, 0, 0, 1).unwrap();
        let measure = |ctx: &mut ThreadCtx, op: &mut dyn FnMut(&mut ThreadCtx)| {
            // Let the build's (or the last repoint's) write backlog drain,
            // so neither side pays a queue wait the other does not.
            ctx.clock.advance(1_000_000_000);
            let (t0, s0) = (ctx.clock.now(), dev.stats().snapshot());
            op(ctx);
            let io = dev.stats().snapshot().delta(&s0);
            (
                ctx.clock.now() - t0,
                io.media_bytes_read,
                io.logical_bytes_written,
            )
        };
        for (i, &h) in hashes.iter().enumerate() {
            let loc = i as u64 + 1;
            let get = measure(&mut ctx, &mut |c| {
                assert_eq!(t.get(&dev, c, h).unwrap().loc, loc);
            });
            let repoint = measure(&mut ctx, &mut |c| {
                assert!(t.repoint_slot(&dev, c, h, loc, loc + 100));
            });
            let blocks = if i < 2 { 1 } else { 2 };
            assert_eq!(get.1, blocks * 256, "get of chain slot {i}");
            assert_eq!(get.2, 0);
            assert_eq!(
                repoint,
                (get.0 + ctx.cost.dram_stream_ns(8), get.1, 8),
                "repoint of chain slot {i} vs its get {get:?}"
            );
            dev.fence(&mut ctx);
            assert_eq!(t.get(&dev, &mut ctx, h).unwrap().loc, loc + 100);
        }
    }

    #[test]
    fn free_returns_space_for_reuse() {
        let (dev, mut ctx) = setup();
        let t = build_with(&dev, &mut ctx, (1..=10u64).map(|k| (k, k)), 32);
        let region = t.region();
        let before = dev.allocated_bytes();
        t.free(&dev);
        assert!(dev.allocated_bytes() < before);
        let again = dev.alloc_region(region.len).unwrap();
        assert_eq!(again.off, region.off);
    }
}
