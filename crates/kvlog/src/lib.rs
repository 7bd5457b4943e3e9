//! Extent-lifecycle storage log on simulated persistent memory.
//!
//! All stores in this workspace keep their *values* in this log and index
//! `{key_hash, location}` pairs elsewhere — the structure shared by every
//! design the paper compares (§2, §3.2). Entries are
//! `{seq, key, value_size, value}`; the paper's format is `{key, value_size,
//! value}`, and the extra 8-byte sequence number makes multi-threaded replay
//! order-correct (documented deviation, see DESIGN.md).
//!
//! Appends are buffered: entries are written through the (volatile) cache
//! and only flushed+fenced to media once a batch (default 4KB, §2.5) has
//! accumulated, so media writes are always large and sequential. A crash
//! loses at most the current batches — exactly the paper's model.
//!
//! Threads append through private [`LogWriter`]s, each claiming extents
//! (default 1MB) so appends never contend. Within an extent, a sequence
//! number of zero marks the end of valid data (extents are zeroed before
//! use), which is what recovery scans rely on.
//!
//! # Extent lifecycle
//!
//! The log is no longer a pure bump cursor: extents move through
//! `Free → Active → Sealed → Gced → Free`. The first extent of the region
//! holds a persistent 32-byte state record per data extent
//! (`{state, max_seq, used_bytes, generation}`); data extent `i` starts at
//! `region.off + (i+1) * extent_bytes`.
//!
//! * A writer claiming an extent records `Active` with an unfenced
//!   non-temporal write. Fences are per-thread in-order, so any durable
//!   data in the extent implies a durable `Active` record — recovery may
//!   skip `Free` extents without probing their content.
//! * Rolling off a full extent seals it: the record gains the extent's
//!   highest sequence number and used bytes. Sealing is opportunistic
//!   (fenced by the writer's next batch); a lost seal record just means
//!   recovery rescans the extent as `Active` and reseals it.
//! * Garbage collection (driven by the store, see `chameleondb`) relocates
//!   the remaining live entries of a sealed extent with
//!   [`LogWriter::append_copy`], persists `Gced`, and — once no reader can
//!   hold the old offsets — zeroes the extent and persists `Free` in a
//!   single fence, so the extent is reusable. A crash between `Gced` and
//!   `Free` re-zeroes the extent during recovery.
//! * Every extent carries a 6-bit *generation*, bumped each time a
//!   reclaimed extent is claimed again and stamped into the location
//!   word of every entry appended under it. `(generation, offset)` then
//!   names one entry even after the space is reused: an index slot left
//!   behind by an older occupant compares unequal in DRAM, without
//!   reading the log (see [`loc_gen`] and [`StorageLog::extent_state_gen`]).
//!   The generation rides in the state record's last 8 bytes, which every
//!   state change writes anyway.
//!
//! Sealed-extent `max_seq` summaries also let a checkpointed store skip
//! fully-persisted extents during the recovery scan (DESIGN.md §6.4):
//! [`StorageLog::reopen_scan`] takes a sequence floor and skips the content
//! scan of any sealed extent whose summary proves every entry is at or
//! below the floor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvapi::{KvError, LogSpaceStats, Result};
use parking_lot::Mutex;
use pmem_sim::{PRegion, PmemDevice, ThreadCtx};

/// Fixed entry header: `{seq: u64, key: u64, flags_and_vlen: u64}`.
pub const ENTRY_HEADER: usize = 24;

/// Default extent size. Entries never cross an extent boundary.
pub const EXTENT: u64 = 1 << 20;

/// Bytes of one persistent extent-state record.
const META_RECORD: u64 = 32;

/// Tombstone flag in the top byte of the `flags_and_vlen` word.
const FLAG_TOMBSTONE: u64 = 1 << 56;
/// Mask of the value-length bits.
const VLEN_MASK: u64 = (1 << 48) - 1;

// Layout of an index location word:
//
//   bits  0..40  absolute entry offset (1 TiB of device)
//   bits 40..46  generation of the entry's extent
//   bits 46..63  saturating value-size hint
//   bit  63      reserved, always zero here (tombstone marker in index slots)

/// Bits of `loc` used for the absolute entry offset.
const LOC_OFF_BITS: u32 = 40;
const LOC_OFF_MASK: u64 = (1 << LOC_OFF_BITS) - 1;
/// Bits of `loc` (40..46) holding the generation of the entry's extent:
/// a slot whose extent was reclaimed and reused since the entry was
/// appended carries an older generation than the extent's current one.
const GEN_BITS: u32 = 6;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;
/// Saturating size hint stored in bits 46..63 of `loc`, letting a get fetch
/// header+value in a single device read (the "one Pmem read per get"
/// property of the Dram-Hash design in §1.3). Bit 63 is reserved (always
/// zero) so index structures can overlay a tombstone marker on a slot's
/// location word.
const LOC_HINT_SHIFT: u32 = LOC_OFF_BITS + GEN_BITS;
const LOC_HINT_BITS: u32 = 17;
const LOC_HINT_MAX: u64 = (1 << LOC_HINT_BITS) - 1;
/// The volatile extent state word keeps the generation above the state.
const STATE_GEN_SHIFT: u32 = 8;

/// Lifecycle state of one data extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum ExtentState {
    /// Zeroed and claimable (or never claimed).
    Free = 0,
    /// Owned by a writer; may still receive appends.
    Active = 1,
    /// Full; immutable; a GC candidate once it accrues dead bytes.
    Sealed = 2,
    /// Live entries relocated; awaiting quarantine expiry and re-zeroing.
    Gced = 3,
}

impl ExtentState {
    fn from_word(w: u64) -> Result<Self> {
        Ok(match w {
            0 => Self::Free,
            1 => Self::Active,
            2 => Self::Sealed,
            3 => Self::Gced,
            _ => return Err(KvError::Corrupt("extent state record")),
        })
    }
}

/// Packs an entry offset, its extent's generation and a value-size hint
/// into an index location word (layout above).
#[inline]
pub fn pack_loc(off: u64, gen: u8, vlen: usize) -> u64 {
    debug_assert!(off <= LOC_OFF_MASK, "log offset exceeds 40 bits");
    debug_assert!(u64::from(gen) <= GEN_MASK, "generation exceeds 6 bits");
    let hint = (vlen as u64).min(LOC_HINT_MAX);
    off | (u64::from(gen) << LOC_OFF_BITS) | (hint << LOC_HINT_SHIFT)
}

/// Unpacks an index location word into `(offset, size_hint)`.
///
/// Ignores bit 63 so callers may pass slot words carrying a tombstone flag.
#[inline]
pub fn unpack_loc(loc: u64) -> (u64, usize) {
    (
        loc & LOC_OFF_MASK,
        ((loc >> LOC_HINT_SHIFT) & LOC_HINT_MAX) as usize,
    )
}

/// The extent generation packed in `loc`.
#[inline]
pub fn loc_gen(loc: u64) -> u8 {
    ((loc >> LOC_OFF_BITS) & GEN_MASK) as u8
}

/// True when the size hint in `loc` saturated (the entry may be larger than
/// the hint says; consult the header for the exact size).
#[inline]
pub fn loc_hint_saturated(loc: u64) -> bool {
    ((loc >> LOC_HINT_SHIFT) & LOC_HINT_MAX) == LOC_HINT_MAX
}

/// Configuration of a [`StorageLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Total log capacity in bytes (one extent is reserved for the
    /// persistent extent-state table).
    pub capacity: u64,
    /// Batch size: a writer fences its extent once this many bytes have
    /// accumulated since the last fence (paper default 4KB).
    pub batch_bytes: usize,
    /// Maximum accepted value size (must fit one extent with its header).
    pub max_value: usize,
    /// Extent size. Smaller extents give finer-grained GC at the price of
    /// more frequent claims/seals.
    pub extent_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            capacity: 256 << 20,
            batch_bytes: 4096,
            max_value: 256 << 10,
            extent_bytes: EXTENT,
        }
    }
}

impl LogConfig {
    fn validate(&self) -> Result<()> {
        let ext = self.extent_bytes;
        if ext < 4096 {
            return Err(KvError::Corrupt("log extent_bytes below 4KB"));
        }
        if self.capacity < 2 * ext {
            return Err(KvError::Corrupt("log capacity below two extents"));
        }
        let n_data = self.capacity / ext - 1;
        if n_data * META_RECORD > ext {
            return Err(KvError::Corrupt("extent-state table exceeds one extent"));
        }
        if (ENTRY_HEADER + self.max_value) as u64 > ext {
            return Err(KvError::Corrupt("max_value does not fit one extent"));
        }
        Ok(())
    }

    fn data_extents(&self) -> u64 {
        self.capacity / self.extent_bytes - 1
    }

    /// Location words carry 40 offset bits: every byte of the region
    /// must be addressable by one.
    fn validate_region(&self, region: PRegion) -> Result<()> {
        self.validate()?;
        if region.off + self.capacity > 1 << LOC_OFF_BITS {
            return Err(KvError::Corrupt("log region exceeds 40-bit offsets"));
        }
        Ok(())
    }
}

/// Metadata of one decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Global sequence number (nonzero).
    pub seq: u64,
    /// The 8-byte user key.
    pub key: u64,
    /// Value length in bytes.
    pub vlen: usize,
    /// Whether this entry is a delete marker.
    pub tombstone: bool,
    /// Absolute offset of the entry header.
    pub off: u64,
    /// Generation of the entry's extent (see [`loc_gen`]).
    pub gen: u8,
}

impl EntryMeta {
    /// The index location word for this entry.
    pub fn loc(&self) -> u64 {
        pack_loc(self.off, self.gen, self.vlen)
    }

    /// Total on-media size of the entry.
    pub fn size(&self) -> u64 {
        (ENTRY_HEADER + self.vlen) as u64
    }
}

/// Volatile mirror of one extent's state and accounting.
struct ExtentSlot {
    /// `ExtentState` in the low byte, generation above it: one `Acquire`
    /// load answers "is this extent resident, and in which generation".
    state: AtomicU64,
    /// Bytes of entries appended into this extent.
    appended: AtomicU64,
    /// Bytes of entries in this extent superseded by newer versions.
    dead: AtomicU64,
    /// Highest sequence number in the extent (valid once sealed).
    max_seq: AtomicU64,
}

impl ExtentSlot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(ExtentState::Free as u64),
            appended: AtomicU64::new(0),
            dead: AtomicU64::new(0),
            max_seq: AtomicU64::new(0),
        }
    }

    fn load(&self) -> (ExtentState, u8) {
        let w = self.state.load(Ordering::Acquire);
        let state = ExtentState::from_word(w & ((1 << STATE_GEN_SHIFT) - 1))
            .expect("volatile extent state");
        (state, (w >> STATE_GEN_SHIFT) as u8)
    }

    fn state(&self) -> ExtentState {
        self.load().0
    }

    fn gen(&self) -> u8 {
        self.load().1
    }

    fn store(&self, state: ExtentState, gen: u8) {
        self.state.store(
            state as u64 | (u64::from(gen) << STATE_GEN_SHIFT),
            Ordering::Release,
        );
    }

    /// Moves to `state` within the current generation. Each extent's
    /// transitions have one owner at a time (its writer, then GC), so the
    /// load/store pair does not race.
    fn set_state(&self, state: ExtentState) {
        self.store(state, self.gen());
    }
}

/// The shared value log with extent lifecycle management.
pub struct StorageLog {
    dev: Arc<PmemDevice>,
    region: PRegion,
    cfg: LogConfig,
    /// Volatile per-data-extent state mirrors.
    slots: Vec<ExtentSlot>,
    /// Index of the next never-claimed data extent (high-water mark).
    hwm: AtomicU64,
    /// Reclaimed extents awaiting reuse.
    free: Mutex<Vec<u64>>,
    /// Next sequence number (starts at 1; 0 marks unwritten space).
    seq: AtomicU64,
    /// Bytes of entries appended (live + dead), over all in-use extents.
    appended_bytes: AtomicU64,
    /// Bytes superseded by newer versions of the same key (dead data).
    dead_bytes: AtomicU64,
    /// Extents currently Active, Sealed, or Gced.
    in_use: AtomicU64,
    /// Recovery-scan accounting from the last reopen (extents content-
    /// scanned vs skipped via their sealed max_seq summary).
    scanned_extents: AtomicU64,
    skipped_extents: AtomicU64,
}

impl std::fmt::Debug for StorageLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageLog")
            .field("capacity", &self.cfg.capacity)
            .field("footprint", &self.footprint_bytes())
            .finish_non_exhaustive()
    }
}

impl StorageLog {
    fn empty(dev: Arc<PmemDevice>, region: PRegion, cfg: LogConfig) -> Self {
        let n = cfg.data_extents() as usize;
        Self {
            dev,
            region,
            cfg,
            slots: (0..n).map(|_| ExtentSlot::new()).collect(),
            hwm: AtomicU64::new(0),
            free: Mutex::new(Vec::new()),
            seq: AtomicU64::new(1),
            appended_bytes: AtomicU64::new(0),
            dead_bytes: AtomicU64::new(0),
            in_use: AtomicU64::new(0),
            scanned_extents: AtomicU64::new(0),
            skipped_extents: AtomicU64::new(0),
        }
    }

    /// Creates a log over a freshly allocated device region.
    pub fn create(dev: Arc<PmemDevice>, cfg: LogConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        let region = dev.alloc_region(cfg.capacity)?;
        if let Err(e) = cfg.validate_region(region) {
            dev.dealloc(region.off, region.len);
            return Err(e);
        }
        // The arena (and therefore the extent-state table) is zeroed:
        // every extent starts Free.
        Ok(Arc::new(Self::empty(dev, region, cfg)))
    }

    /// Re-opens a log after a crash: reads the extent-state table, scans
    /// extent contents to find the highest persisted sequence number, and
    /// rebuilds the free list. The scan cost is charged to `ctx`.
    pub fn reopen(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
    ) -> Result<Arc<Self>> {
        Self::reopen_with(dev, region, cfg, ctx, |_| {})
    }

    /// Like [`reopen`](Self::reopen), but also delivers every persisted
    /// entry to `on_entry` during the single recovery scan, so callers that
    /// must replay the log pay for one pass, not two.
    pub fn reopen_with(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
        on_entry: impl FnMut(EntryMeta),
    ) -> Result<Arc<Self>> {
        Self::reopen_scan(dev, region, cfg, ctx, 0, on_entry)
    }

    /// Full-control reopen: sealed extents whose recorded `max_seq` is at
    /// or below `skip_seq_floor` are trusted from their summary record and
    /// their content scan is skipped (their entries are *not* delivered).
    /// Callers pass the minimum checkpointed sequence across shards, so a
    /// skipped entry is always already reachable through persistent tables.
    pub fn reopen_scan(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
        skip_seq_floor: u64,
        mut on_entry: impl FnMut(EntryMeta),
    ) -> Result<Arc<Self>> {
        cfg.validate_region(region)?;
        let log = Self::empty(dev, region, cfg);
        let n = log.cfg.data_extents();

        // One sequential pass over the state table (first access of the
        // recovery stream).
        let mut table = vec![0u8; (n * META_RECORD) as usize];
        log.dev.read(ctx, log.region.off, &mut table);

        let mut max_seq = 0u64;
        let mut highest_used: Option<u64> = None;
        let mut pending_meta = false;
        let mut first_access = false; // the table read opened the stream
        for i in 0..n {
            let rec = &table[(i * META_RECORD) as usize..((i + 1) * META_RECORD) as usize];
            let state = ExtentState::from_word(u64::from_le_bytes(
                rec[0..8].try_into().expect("meta slice"),
            ))?;
            let rec_max_seq = u64::from_le_bytes(rec[8..16].try_into().expect("meta slice"));
            let rec_used = u64::from_le_bytes(rec[16..24].try_into().expect("meta slice"));
            let rec_gen = u64::from_le_bytes(rec[24..32].try_into().expect("meta slice"));
            if rec_gen > GEN_MASK {
                return Err(KvError::Corrupt("extent generation"));
            }
            // Every path below keeps the recorded generation, so slots
            // persisted before the crash still compare equal to the
            // extent they point into (and stale ones still do not).
            let slot = &log.slots[i as usize];
            slot.store(ExtentState::Free, rec_gen as u8);
            match state {
                ExtentState::Free => {}
                ExtentState::Gced => {
                    // Crash after the GC commit but before the extent was
                    // zeroed and freed: finish the job. The relocated
                    // copies are durable (they were fenced before the Gced
                    // record), so the content is garbage.
                    log.zero_extent(ctx, i);
                    log.write_meta(ctx, i, ExtentState::Free, 0, 0);
                    pending_meta = true;
                    highest_used = Some(i);
                }
                ExtentState::Sealed
                    if rec_max_seq != 0 && rec_max_seq <= skip_seq_floor && rec_used != 0 =>
                {
                    // Every entry is at or below the checkpoint floor:
                    // trust the seal summary, skip the content scan.
                    slot.set_state(ExtentState::Sealed);
                    slot.appended.store(rec_used, Ordering::Relaxed);
                    slot.max_seq.store(rec_max_seq, Ordering::Relaxed);
                    log.appended_bytes.fetch_add(rec_used, Ordering::Relaxed);
                    log.in_use.fetch_add(1, Ordering::Relaxed);
                    log.skipped_extents.fetch_add(1, Ordering::Relaxed);
                    max_seq = max_seq.max(rec_max_seq);
                    highest_used = Some(i);
                }
                ExtentState::Active | ExtentState::Sealed => {
                    let (used, ext_max) =
                        log.scan_extent_content(ctx, i, &mut first_access, &mut on_entry)?;
                    log.scanned_extents.fetch_add(1, Ordering::Relaxed);
                    if used == 0 {
                        // Claimed but no batch ever fenced: the content is
                        // still all-zero, so the extent is reusable as-is.
                        log.write_meta(ctx, i, ExtentState::Free, 0, 0);
                        pending_meta = true;
                        highest_used = Some(i);
                        continue;
                    }
                    slot.set_state(ExtentState::Sealed);
                    slot.appended.store(used, Ordering::Relaxed);
                    slot.max_seq.store(ext_max, Ordering::Relaxed);
                    log.appended_bytes.fetch_add(used, Ordering::Relaxed);
                    log.in_use.fetch_add(1, Ordering::Relaxed);
                    max_seq = max_seq.max(ext_max);
                    highest_used = Some(i);
                    if state == ExtentState::Active || rec_max_seq != ext_max || rec_used != used {
                        // Lost or stale seal record: reseal.
                        log.write_meta(ctx, i, ExtentState::Sealed, ext_max, used);
                        pending_meta = true;
                    }
                }
            }
        }
        if pending_meta {
            log.dev.fence(ctx);
        }
        // Resume claims after the highest extent that was ever used;
        // reclaimed extents below the high-water mark go on the free list.
        let hwm = highest_used.map_or(0, |i| i + 1);
        log.hwm.store(hwm, Ordering::Relaxed);
        {
            let mut free = log.free.lock();
            for i in 0..hwm {
                if log.slots[i as usize].state() == ExtentState::Free {
                    free.push(i);
                }
            }
        }
        log.seq.store(max_seq + 1, Ordering::Relaxed);
        Ok(Arc::new(log))
    }

    /// The device this log lives on.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// The region descriptor (needed to [`reopen`](Self::reopen)).
    pub fn region(&self) -> PRegion {
        self.region
    }

    /// Extent size in bytes.
    pub fn extent_bytes(&self) -> u64 {
        self.cfg.extent_bytes
    }

    /// Number of data extents in the region.
    pub fn data_extent_count(&self) -> u64 {
        self.cfg.data_extents()
    }

    /// Extents currently holding data (Active, Sealed, or Gced).
    pub fn in_use_extents(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Total bytes occupied by in-use data extents (the log's footprint —
    /// what the space-amplification target bounds).
    pub fn footprint_bytes(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed) * self.cfg.extent_bytes
    }

    /// Bytes of entries appended and not yet reclaimed (live + dead).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// Bytes superseded by overwrites/deletes and not yet reclaimed.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes.load(Ordering::Relaxed)
    }

    /// Space accounting snapshot.
    pub fn space_stats(&self) -> LogSpaceStats {
        let appended = self.appended_bytes();
        let dead = self.dead_bytes();
        LogSpaceStats {
            appended_bytes: appended,
            dead_bytes: dead,
            live_bytes: appended.saturating_sub(dead),
            footprint_bytes: self.footprint_bytes(),
        }
    }

    /// `(content-scanned, summary-skipped)` extent counts from the last
    /// [`reopen_scan`](Self::reopen_scan).
    pub fn recovery_scan_stats(&self) -> (u64, u64) {
        (
            self.scanned_extents.load(Ordering::Relaxed),
            self.skipped_extents.load(Ordering::Relaxed),
        )
    }

    /// The lifecycle state of data extent `idx`.
    pub fn extent_state(&self, idx: u64) -> ExtentState {
        self.slots[idx as usize].state()
    }

    /// The lifecycle state and current generation of data extent `idx`,
    /// from one load. A location word names a resident entry iff its
    /// extent is Active or Sealed and [`loc_gen`] equals this generation.
    pub fn extent_state_gen(&self, idx: u64) -> (ExtentState, u8) {
        self.slots[idx as usize].load()
    }

    /// `(appended, dead, max_seq)` accounting of data extent `idx`.
    pub fn extent_accounting(&self, idx: u64) -> (u64, u64, u64) {
        let s = &self.slots[idx as usize];
        (
            s.appended.load(Ordering::Relaxed),
            s.dead.load(Ordering::Relaxed),
            s.max_seq.load(Ordering::Relaxed),
        )
    }

    /// Records that `bytes` of previously live log data were superseded
    /// (global accounting only; stores without extent GC use this).
    pub fn note_dead(&self, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records that the entry at absolute offset `off` spanning `bytes`
    /// was superseded, crediting both the global counter and the owning
    /// extent so GC can rank candidates.
    pub fn note_dead_at(&self, off: u64, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(idx) = self.extent_index(off) {
            self.slots[idx as usize]
                .dead
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// The data-extent index owning absolute offset `off`, if any.
    pub fn extent_index(&self, off: u64) -> Option<u64> {
        let ext = self.cfg.extent_bytes;
        if off < self.region.off + ext {
            return None;
        }
        let idx = (off - self.region.off) / ext - 1;
        (idx < self.cfg.data_extents()).then_some(idx)
    }

    /// Highest sequence number handed out so far.
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) - 1
    }

    /// Creates a writer with its own extent and batch state.
    pub fn writer(self: &Arc<Self>) -> LogWriter {
        LogWriter {
            log: Arc::clone(self),
            pos: 0,
            end: 0,
            batch_start: 0,
            ext_idx: u64::MAX,
            ext_gen: 0,
            ext_max_seq: 0,
            claim_unfenced: false,
        }
    }

    /// Reads the entry at index location `loc` into `out` (value bytes
    /// only), returning its metadata.
    ///
    /// Uses the size hint packed in `loc` to fetch the header and value in
    /// one device read; only over-large values need a second (sequential)
    /// read. Reads straight into `out`, so a get allocates nothing but
    /// `out`'s growth.
    pub fn read_entry(
        &self,
        ctx: &mut ThreadCtx,
        loc: u64,
        out: &mut Vec<u8>,
    ) -> Result<EntryMeta> {
        let (off, hint) = unpack_loc(loc);
        let first = ENTRY_HEADER + hint;
        out.clear();
        out.resize(first, 0);
        self.dev.read(ctx, off, out);
        let (seq, key, vlen, tombstone) = Self::decode_header(&out[..ENTRY_HEADER])?;
        out.drain(..ENTRY_HEADER);
        out.truncate(vlen);
        if vlen > hint {
            // Saturated hint: stream the remainder.
            out.resize(vlen, 0);
            self.dev
                .read_adjacent(ctx, off + first as u64, &mut out[hint..]);
        }
        Ok(EntryMeta {
            seq,
            key,
            vlen,
            tombstone,
            off,
            gen: loc_gen(loc),
        })
    }

    /// Reads only the header at absolute offset `off`, returning the
    /// entry's metadata (with its extent's current generation) without
    /// fetching its value. Dead-byte crediting uses this to resolve
    /// saturated size hints; the store's live-bytes audit uses it to
    /// check a location word against the log independently of the
    /// generation check.
    pub fn entry_meta_at(&self, ctx: &mut ThreadCtx, off: u64) -> Result<EntryMeta> {
        let mut buf = [0u8; ENTRY_HEADER];
        self.dev.read(ctx, off, &mut buf);
        let (seq, key, vlen, tombstone) = Self::decode_header(&buf)?;
        Ok(EntryMeta {
            seq,
            key,
            vlen,
            tombstone,
            off,
            gen: self
                .extent_index(off)
                .map_or(0, |i| self.slots[i as usize].gen()),
        })
    }

    /// Reads only the header at absolute offset `off`, returning the
    /// entry's total on-media size.
    pub fn entry_size_at(&self, ctx: &mut ThreadCtx, off: u64) -> Result<u64> {
        self.entry_meta_at(ctx, off)
            .map(|m| (ENTRY_HEADER + m.vlen) as u64)
    }

    /// Sequentially reads every entry of data extent `idx` (one probe plus
    /// one large sequential read), returning metadata and value bytes.
    /// This is the GC read path: cost is bandwidth, not per-entry blocks.
    pub fn extent_entries(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
    ) -> Result<Vec<(EntryMeta, Vec<u8>)>> {
        let ext = self.cfg.extent_bytes as usize;
        let abs = self.region.off + (idx + 1) * self.cfg.extent_bytes;
        let mut probe = [0u8; ENTRY_HEADER];
        self.dev.read(ctx, abs, &mut probe);
        let (first_seq, _, _, _) = Self::decode_header(&probe)?;
        if first_seq == 0 {
            return Ok(Vec::new());
        }
        let mut ebuf = vec![0u8; ext];
        self.dev.read_seq(ctx, abs, &mut ebuf);
        let gen = self.slots[idx as usize].gen();
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + ENTRY_HEADER <= ext {
            let (seq, key, vlen, tombstone) = Self::decode_header(&ebuf[pos..pos + ENTRY_HEADER])?;
            if seq == 0 {
                break;
            }
            if pos + ENTRY_HEADER + vlen > ext {
                return Err(KvError::Corrupt("log entry crosses extent boundary"));
            }
            let meta = EntryMeta {
                seq,
                key,
                vlen,
                tombstone,
                off: abs + pos as u64,
                gen,
            };
            out.push((
                meta,
                ebuf[pos + ENTRY_HEADER..pos + ENTRY_HEADER + vlen].to_vec(),
            ));
            pos += ENTRY_HEADER + vlen;
        }
        Ok(out)
    }

    /// Collects every committed entry with `seq > after_seq` — metadata
    /// plus value bytes — across Active and Sealed extents, ordered by
    /// sequence. This is the replication tailing primitive: group commit
    /// assigns a dense sequence range per batch and fences it whole, so a
    /// caller holding floor `f` reads back exactly the suffix it has not
    /// yet shipped (or, for an audit, the whole committed stream with
    /// `after_seq = 0`).
    pub fn tail_committed(
        &self,
        ctx: &mut ThreadCtx,
        after_seq: u64,
    ) -> Result<Vec<(EntryMeta, Vec<u8>)>> {
        let mut out = Vec::new();
        for i in 0..self.cfg.data_extents() {
            match self.slots[i as usize].state() {
                ExtentState::Free | ExtentState::Gced => continue,
                ExtentState::Active | ExtentState::Sealed => {
                    for (meta, value) in self.extent_entries(ctx, i)? {
                        if meta.seq > after_seq {
                            out.push((meta, value));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|(m, _)| m.seq);
        Ok(out)
    }

    /// Sealed extents ranked deadest-first: `(idx, dead, appended)` for
    /// every sealed extent with at least `min_dead` dead bytes.
    pub fn gc_candidates(&self, min_dead: u64) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = (0..self.cfg.data_extents())
            .filter(|&i| self.slots[i as usize].state() == ExtentState::Sealed)
            .map(|i| {
                let s = &self.slots[i as usize];
                (
                    i,
                    s.dead.load(Ordering::Relaxed),
                    s.appended.load(Ordering::Relaxed),
                )
            })
            .filter(|&(_, dead, _)| dead >= min_dead.max(1))
            .collect();
        v.sort_by_key(|&(_, dead, _)| std::cmp::Reverse(dead));
        v
    }

    /// Marks extent `idx` as garbage-collected: every live entry has been
    /// relocated (and those relocations fenced), so the whole extent is
    /// dead. Persists the `Gced` record with its own fence, committing the
    /// collection. Self-heals conservative dead accounting by forcing the
    /// extent's dead bytes to its appended bytes.
    pub fn finish_gc(&self, ctx: &mut ThreadCtx, idx: u64) {
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.state(), ExtentState::Sealed);
        let appended = slot.appended.load(Ordering::Relaxed);
        let dead = slot.dead.swap(appended, Ordering::Relaxed);
        self.dead_bytes
            .fetch_add(appended.saturating_sub(dead), Ordering::Relaxed);
        slot.set_state(ExtentState::Gced);
        self.write_meta(
            ctx,
            idx,
            ExtentState::Gced,
            slot.max_seq.load(Ordering::Relaxed),
            appended,
        );
        self.dev.fence(ctx);
    }

    /// Zeroes a collected extent and returns it to the free list. Only
    /// call once no reader can hold an offset into the extent (epoch
    /// quarantine expired). The zeroes and the `Free` record land under
    /// one fence: either both are durable or the extent stays `Gced` and
    /// recovery re-zeroes it.
    pub fn reclaim_extent(&self, ctx: &mut ThreadCtx, idx: u64) {
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.state(), ExtentState::Gced);
        self.zero_extent(ctx, idx);
        self.write_meta(ctx, idx, ExtentState::Free, 0, 0);
        self.dev.fence(ctx);
        let appended = slot.appended.swap(0, Ordering::Relaxed);
        let dead = slot.dead.swap(0, Ordering::Relaxed);
        slot.max_seq.store(0, Ordering::Relaxed);
        slot.set_state(ExtentState::Free);
        self.appended_bytes.fetch_sub(appended, Ordering::Relaxed);
        self.dead_bytes.fetch_sub(dead, Ordering::Relaxed);
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.free.lock().push(idx);
    }

    /// Sequentially scans every persisted entry, invoking `f` for each.
    ///
    /// Reads one whole extent at a time (a single large sequential device
    /// access, so the cost is true bandwidth, not per-entry block reads),
    /// consulting the extent lifecycle state to skip Free and Gced
    /// extents. This is the recovery path whose cost difference between
    /// store designs drives Table 4's restart column. Entries whose batch
    /// was lost in a crash are naturally absent (their sequence word reads
    /// zero).
    pub fn scan(&self, ctx: &mut ThreadCtx, mut f: impl FnMut(EntryMeta)) -> Result<()> {
        let mut first_access = true;
        for i in 0..self.cfg.data_extents() {
            match self.slots[i as usize].state() {
                ExtentState::Free | ExtentState::Gced => continue,
                ExtentState::Active | ExtentState::Sealed => {
                    self.scan_extent_content(ctx, i, &mut first_access, &mut f)?;
                }
            }
        }
        Ok(())
    }

    /// Scans the content of one extent, returning `(used_bytes, max_seq)`.
    fn scan_extent_content(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
        first_access: &mut bool,
        f: &mut impl FnMut(EntryMeta),
    ) -> Result<(u64, u64)> {
        let ext = self.cfg.extent_bytes as usize;
        let abs = self.region.off + (idx + 1) * self.cfg.extent_bytes;
        // One-block probe: a zero sequence word in the first header means
        // the extent never received a persisted entry.
        let mut probe = [0u8; ENTRY_HEADER];
        if *first_access {
            self.dev.read(ctx, abs, &mut probe);
            *first_access = false;
        } else {
            self.dev.read_seq(ctx, abs, &mut probe);
        }
        let (first_seq, _, _, _) = Self::decode_header(&probe)?;
        if first_seq == 0 {
            return Ok((0, 0));
        }
        let mut ebuf = vec![0u8; ext];
        self.dev.read_seq(ctx, abs, &mut ebuf);
        let gen = self.slots[idx as usize].gen();
        let mut pos = 0usize;
        let mut max_seq = 0u64;
        while pos + ENTRY_HEADER <= ext {
            let Ok((seq, key, vlen, tombstone)) =
                Self::decode_header(&ebuf[pos..pos + ENTRY_HEADER])
            else {
                break;
            };
            if seq == 0 {
                break;
            }
            if pos + ENTRY_HEADER + vlen > ext {
                return Err(KvError::Corrupt("log entry crosses extent boundary"));
            }
            f(EntryMeta {
                seq,
                key,
                vlen,
                tombstone,
                off: abs + pos as u64,
                gen,
            });
            max_seq = max_seq.max(seq);
            pos += ENTRY_HEADER + vlen;
        }
        Ok((pos as u64, max_seq))
    }

    fn decode_header(buf: &[u8]) -> Result<(u64, u64, usize, bool)> {
        let seq = u64::from_le_bytes(buf[0..8].try_into().expect("header slice"));
        let key = u64::from_le_bytes(buf[8..16].try_into().expect("header slice"));
        let word = u64::from_le_bytes(buf[16..24].try_into().expect("header slice"));
        let vlen = (word & VLEN_MASK) as usize;
        let tombstone = word & FLAG_TOMBSTONE != 0;
        if word & !(VLEN_MASK | FLAG_TOMBSTONE) != 0 {
            return Err(KvError::Corrupt("log entry flags"));
        }
        Ok((seq, key, vlen, tombstone))
    }

    /// Writes (without fencing) the persistent state record of extent
    /// `idx`, stamped with the extent's current generation. Callers pick
    /// the fence point: claim records ride the writer's next data fence
    /// (per-thread order makes them durable before any durable data), GC
    /// records fence explicitly.
    fn write_meta(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
        state: ExtentState,
        max_seq: u64,
        used: u64,
    ) {
        let mut rec = [0u8; META_RECORD as usize];
        rec[0..8].copy_from_slice(&(state as u64).to_le_bytes());
        rec[8..16].copy_from_slice(&max_seq.to_le_bytes());
        rec[16..24].copy_from_slice(&used.to_le_bytes());
        let gen = u64::from(self.slots[idx as usize].gen());
        rec[24..32].copy_from_slice(&gen.to_le_bytes());
        self.dev
            .write_nt(ctx, self.region.off + idx * META_RECORD, &rec);
    }

    /// Queues (without fencing) non-temporal zeroes over the whole content
    /// of extent `idx`.
    fn zero_extent(&self, ctx: &mut ThreadCtx, idx: u64) {
        let ext = self.cfg.extent_bytes;
        let abs = self.region.off + (idx + 1) * ext;
        let chunk = vec![0u8; (64 << 10).min(ext as usize)];
        let mut done = 0u64;
        while done < ext {
            let len = chunk.len().min((ext - done) as usize);
            self.dev.write_nt(ctx, abs + done, &chunk[..len]);
            done += len as u64;
        }
    }

    /// Claims a fresh extent for a writer: reclaimed extents are reused
    /// before the region grows. Every claim starts the extent's next
    /// generation, so a first claim is generation 1. Bumping on every
    /// claim, not only on free-list reuse, matters after a restart: a
    /// reclaimed extent above the highest one in use is claimed again by
    /// growing the region, and its `Free` record looks like that of an
    /// extent never claimed. Returns `(idx, start, end, gen)` with
    /// relative offsets.
    fn claim_extent(&self, ctx: &mut ThreadCtx) -> Result<(u64, u64, u64, u8)> {
        let idx = if let Some(i) = self.free.lock().pop() {
            i
        } else {
            let i = self.hwm.fetch_add(1, Ordering::Relaxed);
            if i >= self.cfg.data_extents() {
                return Err(KvError::Full("storage log capacity"));
            }
            i
        };
        let slot = &self.slots[idx as usize];
        let (state, old_gen) = slot.load();
        debug_assert_eq!(state, ExtentState::Free);
        let gen = ((u64::from(old_gen) + 1) & GEN_MASK) as u8;
        slot.appended.store(0, Ordering::Relaxed);
        slot.dead.store(0, Ordering::Relaxed);
        slot.max_seq.store(0, Ordering::Relaxed);
        slot.store(ExtentState::Active, gen);
        self.in_use.fetch_add(1, Ordering::Relaxed);
        // Unfenced Active record: the writer's first data fence makes it
        // durable before (or with) any data in the extent.
        self.write_meta(ctx, idx, ExtentState::Active, 0, 0);
        let ext = self.cfg.extent_bytes;
        Ok((idx, (idx + 1) * ext, (idx + 2) * ext, gen))
    }

    /// Seals a full extent: records its max sequence and used bytes.
    /// The record is fenced opportunistically by the writer's next batch;
    /// a lost seal just means recovery rescans the extent.
    fn seal_extent(&self, ctx: &mut ThreadCtx, idx: u64, max_seq: u64, used: u64) {
        let slot = &self.slots[idx as usize];
        slot.max_seq.store(max_seq, Ordering::Relaxed);
        slot.set_state(ExtentState::Sealed);
        self.write_meta(ctx, idx, ExtentState::Sealed, max_seq, used);
    }
}

/// A single thread's handle for appending to the log.
///
/// Not `Sync`: each worker owns one. Dropping a writer without calling
/// [`flush`](Self::flush) models losing its final batch in a crash.
pub struct LogWriter {
    log: Arc<StorageLog>,
    /// Next write position (relative), within the current extent.
    pos: u64,
    /// End of the current extent (relative); 0 means no extent yet.
    end: u64,
    /// Start of the unfenced batch (relative).
    batch_start: u64,
    /// Index of the current extent (`u64::MAX` before the first claim).
    ext_idx: u64,
    /// Generation the current extent was claimed in.
    ext_gen: u8,
    /// Highest sequence number appended into the current extent.
    ext_max_seq: u64,
    /// The current extent's claim record has not been through one of this
    /// writer's fences yet (set on claim, cleared by the first
    /// `fence_batch`, whichever thread issues it).
    claim_unfenced: bool,
}

impl LogWriter {
    /// Appends one entry, returning its metadata (including the location
    /// word for the index).
    ///
    /// The entry is immediately visible to reads but only becomes durable
    /// when the current batch is fenced (every `batch_bytes`, or via
    /// [`flush`](Self::flush)).
    pub fn append(
        &mut self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<EntryMeta> {
        self.append_inner(ctx, key, value, tombstone, None)
    }

    /// Appends a relocated copy of an existing entry, preserving its
    /// original sequence number. This is the GC copy-forward path: replay
    /// order is untouched because the sequence is what orders entries, not
    /// their position.
    pub fn append_copy(
        &mut self,
        ctx: &mut ThreadCtx,
        meta: &EntryMeta,
        value: &[u8],
    ) -> Result<EntryMeta> {
        self.append_inner(ctx, meta.key, value, meta.tombstone, Some(meta.seq))
    }

    fn append_inner(
        &mut self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
        seq_override: Option<u64>,
    ) -> Result<EntryMeta> {
        if value.len() > self.log.cfg.max_value {
            return Err(KvError::ValueTooLarge {
                len: value.len(),
                max: self.log.cfg.max_value,
            });
        }
        let need = (ENTRY_HEADER + value.len()) as u64;
        if self.end == 0 || self.pos + need > self.end {
            // Fence what we have, seal the full extent, then move on.
            self.flush(ctx)?;
            if self.ext_idx != u64::MAX {
                let used = self.pos - (self.end - self.log.cfg.extent_bytes);
                self.log
                    .seal_extent(ctx, self.ext_idx, self.ext_max_seq, used);
            }
            let (idx, start, end, gen) = self.log.claim_extent(ctx)?;
            self.ext_idx = idx;
            self.ext_gen = gen;
            self.ext_max_seq = 0;
            self.claim_unfenced = true;
            self.pos = start;
            self.end = end;
            self.batch_start = start;
        }
        let seq = match seq_override {
            Some(s) => s,
            None => self.log.seq.fetch_add(1, Ordering::Relaxed),
        };
        let mut word = value.len() as u64;
        if tombstone {
            word |= FLAG_TOMBSTONE;
        }
        let abs = self.log.region.off + self.pos;
        let mut header = [0u8; ENTRY_HEADER];
        header[0..8].copy_from_slice(&seq.to_le_bytes());
        header[8..16].copy_from_slice(&key.to_le_bytes());
        header[16..24].copy_from_slice(&word.to_le_bytes());
        self.log.dev.write(ctx, abs, &header);
        if !value.is_empty() {
            self.log.dev.write(ctx, abs + ENTRY_HEADER as u64, value);
        }
        self.pos += need;
        self.ext_max_seq = self.ext_max_seq.max(seq);
        let slot = &self.log.slots[self.ext_idx as usize];
        slot.appended.fetch_add(need, Ordering::Relaxed);
        self.log.appended_bytes.fetch_add(need, Ordering::Relaxed);
        if self.pos - self.batch_start >= self.log.cfg.batch_bytes as u64 {
            self.fence_batch(ctx);
        }
        Ok(EntryMeta {
            seq,
            key,
            vlen: value.len(),
            tombstone,
            off: abs,
            gen: self.ext_gen,
        })
    }

    /// Fences any buffered bytes so everything appended so far is durable.
    pub fn flush(&mut self, ctx: &mut ThreadCtx) -> Result<()> {
        if self.end != 0 && self.pos > self.batch_start {
            self.fence_batch(ctx);
        }
        Ok(())
    }

    fn fence_batch(&mut self, ctx: &mut ThreadCtx) {
        let abs = self.log.region.off + self.batch_start;
        let len = (self.pos - self.batch_start) as usize;
        self.log.dev.flush(ctx, abs, len);
        // The extent's claim record was written unfenced on whichever
        // thread claimed it, so its cache lines ride *that* thread's
        // flush queue. A sync issued from another thread (a background
        // flush's WAL fence) re-queues the data range above but would
        // leave the claim record volatile: after a crash the extent reads
        // as Free and its durable content is unreachable. So the first
        // data fence after a claim carries the record, whoever fences;
        // later fences in the same extent leave it alone — the device
        // charges a whole media block (plus the read-modify-write) for
        // every flushed record, durable already or not.
        if self.claim_unfenced {
            self.log.dev.flush(
                ctx,
                self.log.region.off + self.ext_idx * META_RECORD,
                META_RECORD as usize,
            );
            self.claim_unfenced = false;
        }
        self.log.dev.fence(ctx);
        self.batch_start = self.pos;
    }

    /// Bytes appended but not yet fenced (would be lost in a crash).
    pub fn unfenced_bytes(&self) -> u64 {
        self.pos - self.batch_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PmemDevice>, Arc<StorageLog>, ThreadCtx) {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        (dev, log, ThreadCtx::with_default_cost())
    }

    /// A small-extent log so lifecycle tests roll extents cheaply.
    fn small_cfg() -> LogConfig {
        LogConfig {
            capacity: 1 << 20,
            batch_bytes: 512,
            max_value: 8 << 10,
            extent_bytes: 16 << 10,
        }
    }

    fn setup_small() -> (Arc<PmemDevice>, Arc<StorageLog>, ThreadCtx) {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(Arc::clone(&dev), small_cfg()).unwrap();
        (dev, log, ThreadCtx::with_default_cost())
    }

    #[test]
    fn append_then_read_roundtrip() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 42, b"hello", false).unwrap();
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(back.key, 42);
        assert_eq!(back.seq, meta.seq);
        assert!(!back.tombstone);
    }

    #[test]
    fn loc_packs_offset_and_hint() {
        let loc = pack_loc(12345, 37, 88);
        assert_eq!(unpack_loc(loc), (12345, 88));
        assert_eq!(loc_gen(loc), 37);
        // The widest offset and generation leave the hint and bit 63 alone.
        let loc = pack_loc(LOC_OFF_MASK, GEN_MASK as u8, 88);
        assert_eq!(unpack_loc(loc), (LOC_OFF_MASK, 88));
        assert_eq!(loc_gen(loc), GEN_MASK as u8);
        assert_eq!(loc >> 63, 0);
        // Hint saturates for huge values.
        let (_, hint) = unpack_loc(pack_loc(1, 0, 10 << 20));
        assert_eq!(hint as u64, LOC_HINT_MAX);
        assert!(loc_hint_saturated(pack_loc(1, 63, 10 << 20)));
        assert!(!loc_hint_saturated(pack_loc(1, 63, 88)));
    }

    #[test]
    fn large_value_roundtrips_despite_saturated_hint() {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 32 << 20,
                max_value: 1 << 19,
                ..Default::default()
            },
        )
        .unwrap();
        let mut ctx = ThreadCtx::with_default_cost();
        let mut w = log.writer();
        let value = vec![0xABu8; 300_000];
        let meta = w.append(&mut ctx, 7, &value, false).unwrap();
        let mut out = Vec::new();
        log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert_eq!(out, value);
    }

    /// An entry whose hint covers its value reads back the same bytes,
    /// and charges the same, as one plain device read of header plus
    /// value, whatever the value's size and whatever `out` held before.
    #[test]
    fn read_entry_charges_one_plain_read_of_header_and_value() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        for vlen in [1, 232, 233, 4096] {
            let value: Vec<u8> = (0..vlen).map(|i| (i * 7 + vlen) as u8).collect();
            let meta = w.append(&mut ctx, vlen as u64, &value, false).unwrap();
            w.flush(&mut ctx).unwrap();
            let charge = |read: &mut dyn FnMut(&mut ThreadCtx)| {
                let mut c = ThreadCtx::with_default_cost();
                let before = dev.stats().snapshot().media_bytes_read;
                read(&mut c);
                (
                    c.clock.now(),
                    dev.stats().snapshot().media_bytes_read - before,
                )
            };
            let mut raw = vec![0u8; ENTRY_HEADER + vlen];
            let plain = charge(&mut |c| dev.read(c, meta.off, &mut raw));
            let mut out = vec![0xEE; 3];
            let got = charge(&mut |c| {
                log.read_entry(c, meta.loc(), &mut out).unwrap();
            });
            assert_eq!(out, value, "vlen {vlen}");
            assert_eq!(raw[ENTRY_HEADER..], value[..], "vlen {vlen}");
            assert_eq!(got, plain, "vlen {vlen}: (sim ns, media read B)");
        }
    }

    #[test]
    fn value_too_large_is_rejected() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let r = w.append(&mut ctx, 1, &vec![0u8; 512 << 10], false);
        assert!(matches!(r, Err(KvError::ValueTooLarge { .. })));
    }

    #[test]
    fn appends_batch_before_fencing() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        // Two small appends: less than a 4KB batch, so no fence yet.
        w.append(&mut ctx, 1, b"a", false).unwrap();
        w.append(&mut ctx, 2, b"b", false).unwrap();
        assert_eq!(dev.stats().snapshot().fences, 0);
        assert!(w.unfenced_bytes() > 0);
        w.flush(&mut ctx).unwrap();
        assert_eq!(dev.stats().snapshot().fences, 1);
        assert_eq!(w.unfenced_bytes(), 0);
    }

    #[test]
    fn batch_fences_automatically_at_threshold() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let value = vec![9u8; 1000];
        for k in 0..5 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        // 5 * 1024B > 4096B: at least one automatic fence.
        assert!(dev.stats().snapshot().fences >= 1);
    }

    #[test]
    fn unfenced_appends_are_lost_on_crash() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        w.append(&mut ctx, 1, b"durable", false).unwrap();
        w.flush(&mut ctx).unwrap();
        w.append(&mut ctx, 2, b"volatile", false).unwrap();
        dev.crash();
        let mut seen = Vec::new();
        log.scan(&mut ctx, |m| seen.push(m.key)).unwrap();
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn scan_visits_entries_from_multiple_writers() {
        let (_dev, log, mut ctx) = setup();
        let mut w1 = log.writer();
        let mut w2 = log.writer();
        w1.append(&mut ctx, 10, b"x", false).unwrap();
        w2.append(&mut ctx, 20, b"y", false).unwrap();
        w1.flush(&mut ctx).unwrap();
        w2.flush(&mut ctx).unwrap();
        let mut keys = Vec::new();
        log.scan(&mut ctx, |m| keys.push(m.key)).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, vec![10, 20]);
    }

    #[test]
    fn tombstones_survive_the_roundtrip() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 5, b"", true).unwrap();
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert!(back.tombstone);
        assert!(out.is_empty());
    }

    #[test]
    fn reopen_resumes_after_crash() {
        let (dev, log, mut ctx) = setup();
        let region = log.region();
        let mut w = log.writer();
        for k in 0..100 {
            w.append(&mut ctx, k, b"value", false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let seq_before = log.last_seq();
        dev.crash();
        let log2 = StorageLog::reopen(
            Arc::clone(&dev),
            region,
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
            &mut ctx,
        )
        .unwrap();
        assert!(log2.last_seq() >= seq_before);
        // New appends after reopen do not collide with old data.
        let mut w2 = log2.writer();
        let meta = w2.append(&mut ctx, 999, b"post-crash", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        let mut count = 0;
        let mut saw_new = false;
        log2.scan(&mut ctx, |m| {
            count += 1;
            saw_new |= m.key == 999;
        })
        .unwrap();
        assert_eq!(count, 101);
        assert!(saw_new);
        assert!(meta.seq > seq_before);
    }

    #[test]
    fn scan_cost_is_sequential_not_random() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        for k in 0..1000u64 {
            w.append(&mut ctx, k, &[0u8; 100], false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let start = ctx.clock.now();
        log.scan(&mut ctx, |_| {}).unwrap();
        let elapsed = ctx.clock.now() - start;
        // 1000 random reads would cost >= 305us; the stream must be far
        // cheaper per entry.
        assert!(
            elapsed < 1000 * 305,
            "scan took {elapsed}ns — looks like random reads"
        );
    }

    #[test]
    fn dead_byte_accounting() {
        let (_dev, log, _ctx) = setup();
        log.note_dead(100);
        log.note_dead(20);
        assert_eq!(log.dead_bytes(), 120);
    }

    #[test]
    fn rolling_extents_seals_them_with_max_seq() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        let mut metas = Vec::new();
        // 16KB extents hold ~16 of these entries; 40 appends roll twice.
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_state(0), ExtentState::Sealed);
        assert_eq!(log.extent_state(1), ExtentState::Sealed);
        assert_eq!(log.extent_state(2), ExtentState::Active);
        // The sealed extent's summary covers exactly its own entries.
        let (appended, _, max_seq) = log.extent_accounting(0);
        let in_ext0: Vec<_> = metas
            .iter()
            .filter(|m| log.extent_index(m.off) == Some(0))
            .collect();
        assert_eq!(appended, in_ext0.iter().map(|m| m.size()).sum::<u64>());
        assert_eq!(max_seq, in_ext0.iter().map(|m| m.seq).max().unwrap());
    }

    #[test]
    fn appended_equals_live_plus_dead() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let mut last: std::collections::HashMap<u64, EntryMeta> = Default::default();
        for i in 0..200u64 {
            let k = i % 20;
            let meta = w.append(&mut ctx, k, &[3u8; 100], false).unwrap();
            if let Some(old) = last.insert(k, meta) {
                log.note_dead_at(old.off, old.size());
            }
        }
        w.flush(&mut ctx).unwrap();
        let s = log.space_stats();
        assert_eq!(s.appended_bytes, s.live_bytes + s.dead_bytes);
        let live: u64 = last.values().map(|m| m.size()).sum();
        assert_eq!(s.live_bytes, live);
        // Per-extent dead never exceeds per-extent appended.
        for i in 0..log.data_extent_count() {
            let (a, d, _) = log.extent_accounting(i);
            assert!(d <= a, "extent {i}: dead {d} > appended {a}");
        }
    }

    #[test]
    fn gc_reclaim_reuses_extent_and_scan_stays_sound() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let value = vec![9u8; 1000];
        let mut metas = Vec::new();
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        // Declare everything in extent 0 dead and collect it.
        for m in metas.iter().filter(|m| log.extent_index(m.off) == Some(0)) {
            log.note_dead_at(m.off, m.size());
        }
        let cands = log.gc_candidates(1);
        assert_eq!(cands[0].0, 0);
        let before = log.space_stats();
        log.finish_gc(&mut ctx, 0);
        assert_eq!(log.extent_state(0), ExtentState::Gced);
        log.reclaim_extent(&mut ctx, 0);
        assert_eq!(log.extent_state(0), ExtentState::Free);
        let after = log.space_stats();
        assert!(after.footprint_bytes < before.footprint_bytes);
        assert_eq!(after.live_bytes, before.live_bytes);
        // A new writer reuses the freed extent and the scan sees exactly
        // the surviving entries plus the new one.
        let mut w2 = log.writer();
        let nm = w2.append(&mut ctx, 777, b"reused", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_index(nm.off), Some(0));
        let expect = metas
            .iter()
            .filter(|m| log.extent_index(m.off) != Some(0))
            .count()
            + 1;
        let mut seen = 0;
        log.scan(&mut ctx, |_| seen += 1).unwrap();
        assert_eq!(seen, expect);
    }

    #[test]
    fn append_copy_preserves_seq_and_replays() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 5, b"orig", false).unwrap();
        w.flush(&mut ctx).unwrap();
        let copy = w.append_copy(&mut ctx, &meta, b"orig").unwrap();
        w.flush(&mut ctx).unwrap();
        assert_eq!(copy.seq, meta.seq);
        assert_ne!(copy.off, meta.off);
        // A fresh append still gets a later sequence.
        let later = w.append(&mut ctx, 6, b"x", false).unwrap();
        assert!(later.seq > meta.seq);
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, copy.loc(), &mut out).unwrap();
        assert_eq!(out, b"orig");
        assert_eq!(back.seq, meta.seq);
    }

    #[test]
    fn reopen_rebuilds_extent_lifecycle_after_crash() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        let mut metas = Vec::new();
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        // Collect extent 0 fully, but crash before it is reclaimed:
        // recovery must re-zero it and hand it back as Free.
        for m in metas.iter().filter(|m| log.extent_index(m.off) == Some(0)) {
            log.note_dead_at(m.off, m.size());
        }
        log.finish_gc(&mut ctx, 0);
        dev.crash();
        let log2 = StorageLog::reopen(Arc::clone(&dev), region, small_cfg(), &mut ctx).unwrap();
        assert_eq!(log2.extent_state(0), ExtentState::Free);
        assert_eq!(log2.extent_state(1), ExtentState::Sealed);
        // Active extent 2 was resealed by recovery.
        assert_eq!(log2.extent_state(2), ExtentState::Sealed);
        let survivors = metas
            .iter()
            .filter(|m| log2.extent_index(m.off) != Some(0))
            .count();
        let mut seen = 0;
        log2.scan(&mut ctx, |_| seen += 1).unwrap();
        assert_eq!(seen, survivors);
        // The freed extent is claimable and its content reads as empty.
        let mut w2 = log2.writer();
        let nm = w2.append(&mut ctx, 999, b"fresh", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        assert_eq!(log2.extent_index(nm.off), Some(0));
    }

    #[test]
    fn claim_record_is_flushed_by_the_first_fence_only() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        // 232 B of value + 24 B of header: every entry is exactly one
        // aligned media block, so a fence that carries only data writes
        // 256 B and no partial block.
        let value = vec![3u8; 256 - ENTRY_HEADER];
        w.append(&mut ctx, 0, &value, false).unwrap();
        w.flush(&mut ctx).unwrap();
        let first = dev.stats().snapshot();
        assert_eq!(first.media_bytes_written, 512, "data block + claim record");
        assert_eq!(first.rmw_blocks, 1, "the 32 B record is a partial block");
        for k in 1..=8u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
            w.flush(&mut ctx).unwrap();
        }
        let after = dev.stats().snapshot();
        assert_eq!(after.fences - first.fences, 8);
        assert_eq!(
            after.media_bytes_written - first.media_bytes_written,
            8 * 256
        );
        assert_eq!(after.rmw_blocks, first.rmw_blocks);
    }

    #[test]
    fn claim_record_survives_when_another_thread_fences_first() {
        let (dev, log, _) = setup();
        let region = log.region();
        let cost = Arc::new(pmem_sim::CostModel::default());
        let mut claimer = ThreadCtx::for_thread(Arc::clone(&cost), 1);
        let mut syncer = ThreadCtx::for_thread(cost, 2);
        let mut w = log.writer();
        // The claim record rides the claiming thread's flush queue...
        for k in 0..4u64 {
            w.append(&mut claimer, k, b"value", false).unwrap();
        }
        // ...but the first fence comes from another thread, and the
        // claiming thread never fences before the crash.
        w.flush(&mut syncer).unwrap();
        dev.crash();
        let mut rec = [0u8; 8];
        dev.read_raw(region.off, &mut rec);
        assert_eq!(u64::from_le_bytes(rec), ExtentState::Active as u64);
        let mut seen = Vec::new();
        let log2 = StorageLog::reopen_scan(
            Arc::clone(&dev),
            region,
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
            &mut syncer,
            0,
            |m| seen.push(m.key),
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_ne!(log2.extent_state(0), ExtentState::Free);
    }

    #[test]
    fn torn_seal_record_is_rebuilt_by_rescan() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        // Fill extent 0 and roll into extent 1, but never fence extent 1:
        // the seal record of extent 0 (written at roll time) is pending
        // and lost in the crash.
        for k in 0..16u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        // A small rolling append stays under the batch threshold, so the
        // seal record written at roll time is never fenced.
        w.append(&mut ctx, 99, b"tiny", false).unwrap(); // rolls, seals 0
        dev.crash();
        let log2 = StorageLog::reopen(Arc::clone(&dev), region, small_cfg(), &mut ctx).unwrap();
        // The extent still recovered as sealed (rescan) with its summary.
        assert_eq!(log2.extent_state(0), ExtentState::Sealed);
        let (_, _, max_seq) = log2.extent_accounting(0);
        assert_eq!(max_seq, 16);
        let mut count = 0;
        log2.scan(&mut ctx, |_| count += 1).unwrap();
        assert_eq!(count, 16);
    }

    #[test]
    fn reopen_scan_skips_checkpointed_extents() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let cfg = small_cfg();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        for k in 0..40u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let floor = log.last_seq(); // everything "checkpointed"
        dev.crash();
        let ext_bytes = cfg.extent_bytes;
        let log2 = StorageLog::reopen_scan(Arc::clone(&dev), region, cfg, &mut ctx, floor, |m| {
            // Only the still-active extent is content-scanned.
            assert_eq!((m.off - region.off) / ext_bytes - 1, 2);
        })
        .unwrap();
        let (scanned, skipped) = log2.recovery_scan_stats();
        assert_eq!(skipped, 2);
        assert_eq!(scanned, 1);
        // Sequence numbering still resumes above the skipped extents.
        assert!(log2.last_seq() >= floor);
        // Space accounting still counts the skipped extents' bytes.
        let total: u64 = (0..3).map(|i| log2.extent_accounting(i).0).sum();
        assert_eq!(log2.space_stats().appended_bytes, total);
    }

    /// Collects sealed extent `idx` wholesale and returns it to the free
    /// list.
    fn reclaim(log: &Arc<StorageLog>, ctx: &mut ThreadCtx, idx: u64) {
        let (appended, _, _) = log.extent_accounting(idx);
        log.note_dead_at(log.region().off + (idx + 1) * log.extent_bytes(), appended);
        log.finish_gc(ctx, idx);
        log.reclaim_extent(ctx, idx);
    }

    #[test]
    fn reused_extent_advances_generation_and_reopen_keeps_it() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let value = vec![7u8; 1000];
        let mut w = log.writer();
        let first: Vec<EntryMeta> = (0..16u64)
            .map(|k| w.append(&mut ctx, k, &value, false).unwrap())
            .collect();
        assert!(first.iter().all(|m| m.gen == 1));
        // Roll past extent 0 so it seals, then collect and reuse it.
        w.append(&mut ctx, 99, &value, false).unwrap();
        w.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_state_gen(0), (ExtentState::Sealed, 1));
        reclaim(&log, &mut ctx, 0);
        assert_eq!(log.extent_state_gen(0), (ExtentState::Free, 1));
        let mut w2 = log.writer();
        let again = w2.append(&mut ctx, 0, &value, false).unwrap();
        w2.flush(&mut ctx).unwrap();
        // Same key, same size, same offset: only the generation differs.
        assert_eq!((again.off, again.vlen), (first[0].off, first[0].vlen));
        assert_eq!(again.gen, 2);
        assert_ne!(again.loc(), first[0].loc());
        assert_eq!(loc_gen(again.loc()), 2);
        // Restart restores the generation from the state record, and the
        // replayed entries carry it.
        dev.crash();
        let mut gens = Vec::new();
        let log2 =
            StorageLog::reopen_scan(Arc::clone(&dev), region, small_cfg(), &mut ctx, 0, |m| {
                if log.extent_index(m.off) == Some(0) {
                    gens.push(m.gen);
                }
            })
            .unwrap();
        assert_eq!(gens, vec![2]);
        assert_eq!(log2.extent_state_gen(0), (ExtentState::Sealed, 2));
        assert_eq!(log2.extent_state_gen(1).1, 1);
        assert_eq!(log2.extent_state_gen(2).1, 0, "never claimed");
    }

    /// A reclaimed extent above every extent still in use is not on the
    /// free list after a restart: the region grows back into it. That
    /// claim must start a new generation too, or a slot left behind by the
    /// extent's previous occupant would name the entry now at its offset.
    #[test]
    fn regrown_extent_after_restart_starts_a_new_generation() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let value = vec![7u8; 1000];
        let mut w = log.writer();
        for k in 0..16u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        let old = w.append(&mut ctx, 16, &value, false).unwrap();
        w.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_index(old.off), Some(1));
        log.seal_extent(&mut ctx, 1, old.seq, old.size());
        reclaim(&log, &mut ctx, 1);
        dev.crash();
        let log2 = StorageLog::reopen(Arc::clone(&dev), region, small_cfg(), &mut ctx).unwrap();
        assert_eq!(log2.extent_state(1), ExtentState::Free);
        let mut w2 = log2.writer();
        let again = w2.append(&mut ctx, 16, &value, false).unwrap();
        assert_eq!((again.off, again.vlen), (old.off, old.vlen));
        assert_ne!(again.gen, old.gen);
        assert_ne!(again.loc(), old.loc());
    }

    #[test]
    fn generation_wraps_after_sixty_four_reuses() {
        let (_dev, log, mut ctx) = setup_small();
        for round in 0..=64u64 {
            let mut w = log.writer();
            let m = w.append(&mut ctx, round, b"v", false).unwrap();
            w.flush(&mut ctx).unwrap();
            assert_eq!(log.extent_index(m.off), Some(0));
            assert_eq!(u64::from(m.gen), (round + 1) % 64);
            log.seal_extent(&mut ctx, 0, m.seq, m.size());
            reclaim(&log, &mut ctx, 0);
        }
    }

    #[test]
    fn regions_beyond_forty_bit_offsets_are_rejected() {
        let dev = PmemDevice::optane(8 << 20);
        let mut ctx = ThreadCtx::with_default_cost();
        let cfg = small_cfg();
        let region = PRegion {
            off: (1 << 40) - cfg.capacity / 2,
            len: cfg.capacity,
        };
        let err = StorageLog::reopen(Arc::clone(&dev), region, cfg.clone(), &mut ctx).unwrap_err();
        assert!(matches!(err, KvError::Corrupt(_)), "{err:?}");
        let fits = PRegion {
            off: (1 << 40) - cfg.capacity,
            len: cfg.capacity,
        };
        assert!(cfg.validate_region(fits).is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dev = PmemDevice::optane(8 << 20);
        // Capacity below two extents.
        assert!(StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 1 << 20,
                ..Default::default()
            },
        )
        .is_err());
        // max_value larger than an extent.
        assert!(StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 4 << 20,
                max_value: 64 << 10,
                extent_bytes: 16 << 10,
                ..Default::default()
            },
        )
        .is_err());
    }
}
