//! The simulated persistent-memory device.

use std::collections::HashMap;
use std::ops::Range;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::alloc::PmemAllocator;
use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::profile::DeviceProfile;
use crate::stats::MediaStats;

/// Simulated CPU cache-line size: the granularity of the persistence domain.
pub const CACHE_LINE: usize = 64;

/// Number of lock stripes the device image is split into. Media block `b`
/// lives in stripe `b % STRIPES`, so every line of a block is under one
/// lock.
const STRIPES: usize = 64;

/// A transparent huge page (x86-64 and aarch64 with 4 KiB base pages):
/// the image's mapping is a whole number of them.
const HUGE_PAGE: usize = 2 << 20;

/// Number of per-thread counter lanes. Counters that every operation bumps
/// ([`MediaStats`], the store's metrics) keep one cache-line-aligned copy
/// per lane, picked by [`ThreadCtx::lane`], and sum the lanes when read, so
/// threads on different cores do not write-share a counter line. Thread ids
/// past `LANES` wrap and share a lane.
pub const LANES: usize = 16;

/// A contiguous, allocated region of the device.
///
/// Purely a descriptor — all I/O goes through [`PmemDevice`] with absolute
/// offsets. Offset 0 is never allocated, so it can serve as a null sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PRegion {
    /// Absolute offset of the first byte, 256B-aligned.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
}

impl PRegion {
    /// Returns the absolute end offset (one past the last byte).
    #[inline]
    pub fn end(&self) -> u64 {
        self.off + self.len
    }

    /// Checks that `[off, off+len)` lies within this region.
    #[inline]
    pub fn contains(&self, off: u64, len: usize) -> bool {
        off >= self.off && off + len as u64 <= self.end()
    }
}

/// Per-thread simulation context: virtual clock, cost model, and the
/// thread's queue of cache lines awaiting the next persist fence.
///
/// Exactly one `ThreadCtx` exists per worker thread; stores thread it
/// through every operation.
#[derive(Debug, Clone)]
pub struct ThreadCtx {
    /// This thread's virtual clock.
    pub clock: SimClock,
    /// Shared CPU/DRAM cost constants.
    pub cost: Arc<CostModel>,
    /// Worker index assigned by the driver; stores use it to pick
    /// per-thread resources such as log writers. 0 for single-threaded use.
    pub thread_id: usize,
    /// Line indices queued by `flush`/`write_nt`, drained by `fence`.
    flush_queue: Vec<u64>,
}

impl ThreadCtx {
    /// Creates a context with the given cost model and a zeroed clock.
    pub fn new(cost: Arc<CostModel>) -> Self {
        Self {
            clock: SimClock::new(),
            cost,
            thread_id: 0,
            flush_queue: Vec::new(),
        }
    }

    /// Creates a context for worker `thread_id`.
    pub fn for_thread(cost: Arc<CostModel>, thread_id: usize) -> Self {
        Self {
            thread_id,
            ..Self::new(cost)
        }
    }

    /// Creates a context with the default cost model.
    pub fn with_default_cost() -> Self {
        Self::new(Arc::new(CostModel::default()))
    }

    /// Advances this thread's clock by `ns`.
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// The counter lane this thread bumps: `thread_id % LANES`.
    #[inline]
    pub fn lane(&self) -> usize {
        self.thread_id % LANES
    }
}

/// Unwind payload thrown by an armed crash point (see
/// [`PmemDevice::arm_crash_at_fence`]).
///
/// Fault-injection drivers catch this with `std::panic::catch_unwind` and
/// downcast the payload; the device raises it with
/// `std::panic::resume_unwind`, which skips the panic hook, so an injected
/// crash is silent. Any other payload escaping a harness is a real bug and
/// must be re-raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Ordinal of the fence at which the crash fired (1-based; only
    /// non-empty fences count, see [`PmemDevice::fence_count`]).
    pub fence: u64,
}

/// How the next injected crash is chosen.
#[derive(Debug)]
enum CrashArm {
    /// Fire at the fence with this ordinal (or the first one past it).
    AtFence(u64),
    /// Fire at each fence with probability `1/one_in` (deterministic LCG).
    Random { state: u64, one_in: u64 },
}

/// One lock stripe of the device: the volatile half of the persistence
/// domain for every [`STRIPES`]-th media block, i.e. the lines of those
/// blocks written but not yet fenced, keyed by device line index. The
/// stripe's lock also guards those blocks' durable bytes in the [`Image`].
type Stripe = HashMap<u64, [u8; CACHE_LINE]>;

/// The device's bytes: one anonymous private mapping of the capacity
/// rounded up to [`HUGE_PAGE`], in which device byte `off` is mapping byte
/// `off`. The kernel backs a page, zeroed, when it is first written, so a
/// large device costs nothing until touched and bytes never written read
/// as zero. The mapping asks for transparent huge pages, so the random
/// reads of a get rarely miss the TLB; on a virtual machine each miss on a
/// 4 KiB page is a nested walk through guest and host page tables. If the
/// kernel refuses the advice, the 4 KiB-page mapping works the same, only
/// slower.
///
/// The image has no lock of its own; the stripes are its lock. The bytes
/// of media block `b` are read only under `stripes[b % STRIPES].read()`
/// (`copy_lines`) and written only under `stripes[b % STRIPES].write()`
/// (`fence` moving a line to media; the pre-fill in `store_into_pending`
/// reads under the write lock too). So two accesses to one byte either
/// both read, or are ordered by that lock, and the raw copies in
/// [`read`](Self::read) and [`write`](Self::write) never race. That is
/// why `Image` may be `Send` and `Sync`.
struct Image {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: `base` points at a mapping that this `Image` alone owns and
// unmaps, not tied to any thread; `len` is plain data.
unsafe impl Send for Image {}
// SAFETY: `&Image` allows only `read` and `write`, whose callers follow the
// stripe-lock discipline above, so shared use never races on a byte;
// `base` and `len` never change after `new`.
unsafe impl Sync for Image {}

impl Image {
    fn new(capacity: usize) -> Self {
        let len = capacity.max(1).next_multiple_of(HUGE_PAGE);
        let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE;
        let prot = libc::PROT_READ | libc::PROT_WRITE;
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases no memory anything else owns.
        let p = unsafe { libc::mmap(ptr::null_mut(), len, prot, flags, -1, 0) };
        assert!(
            p != libc::MAP_FAILED,
            "cannot map a {len}-byte device image: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `p` starts a mapping `len` bytes long. The advice only
        // picks the page size; if it is refused, 4 KiB pages remain.
        let _ = unsafe { libc::madvise(p, len, libc::MADV_HUGEPAGE) };
        Self {
            base: NonNull::new(p.cast()).expect("mmap returned null"),
            len,
        }
    }

    /// Copies image bytes `[at, at + dst.len())` into `dst`.
    ///
    /// # Safety
    /// The range lies within one cache line that starts below the
    /// device's capacity (so within the mapping, a whole number of
    /// cache lines), and the caller holds that line's stripe lock.
    #[inline]
    unsafe fn read(&self, at: u64, dst: &mut [u8]) {
        debug_assert!(at as usize + dst.len() <= self.len);
        ptr::copy_nonoverlapping(
            self.base.as_ptr().add(at as usize),
            dst.as_mut_ptr(),
            dst.len(),
        );
    }

    /// Copies `src` to image bytes `[at, at + src.len())`.
    ///
    /// # Safety
    /// As for [`read`](Self::read), with the stripe lock held for
    /// writing.
    #[inline]
    unsafe fn write(&self, at: u64, src: &[u8]) {
        debug_assert!(at as usize + src.len() <= self.len);
        ptr::copy_nonoverlapping(src.as_ptr(), self.base.as_ptr().add(at as usize), src.len());
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        // SAFETY: `base` and `len` are the mapping `new` made, and no
        // reference into it outlives the `Image`.
        unsafe { libc::munmap(self.base.as_ptr().cast(), self.len) };
    }
}

/// A byte-addressable persistent device with an explicit persistence domain
/// and media-block cost accounting.
///
/// See the crate-level documentation for the model. All methods are safe to
/// call from multiple threads. Stores to disjoint bytes of one cache line
/// from different threads both land, however they interleave with fences.
/// Callers are responsible for not writing overlapping bytes concurrently
/// (the stores in this workspace guarantee that with per-shard locks),
/// mirroring real Pmem programming.
pub struct PmemDevice {
    profile: DeviceProfile,
    capacity: u64,
    /// The durable bytes, guarded block by block by `stripes`.
    image: Image,
    /// The pending lines, striped by media block (see [`Stripe`]).
    stripes: Vec<RwLock<Stripe>>,
    stats: MediaStats,
    active_threads: AtomicU32,
    allocator: PmemAllocator,
    /// Optional shared-queue contention model (see
    /// [`set_queue_model`](Self::set_queue_model)).
    queue_model: std::sync::atomic::AtomicBool,
    /// Simulated time until which the media *write* channel is busy.
    write_busy_until: AtomicU64,
    /// Simulated time until which the media *read* channel is busy.
    read_busy_until: AtomicU64,
    /// Ordinal of the last completed non-empty fence (crash-point clock).
    fence_ordinal: AtomicU64,
    /// Fast-path flag: a crash arm is installed (checked on every fence).
    crash_armed: AtomicBool,
    /// The installed crash arm, if any.
    crash_arm: Mutex<Option<CrashArm>>,
}

impl std::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemDevice")
            .field("profile", &self.profile.name)
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

impl PmemDevice {
    /// Creates a device of `capacity` bytes with the given profile.
    ///
    /// The image is one lazily mapped region (see [`Image`]): the kernel
    /// backs it in 2 MiB pages as they are first written, so large
    /// capacities are cheap until touched.
    pub fn new(profile: DeviceProfile, capacity: usize) -> Arc<Self> {
        let block = profile.media_block;
        assert!(
            block > 0 && block.is_multiple_of(CACHE_LINE),
            "media block {block} is not a whole number of cache lines"
        );
        Arc::new(Self {
            profile,
            capacity: capacity as u64,
            image: Image::new(capacity),
            stripes: (0..STRIPES).map(|_| RwLock::default()).collect(),
            stats: MediaStats::default(),
            active_threads: AtomicU32::new(1),
            queue_model: AtomicBool::new(false),
            write_busy_until: AtomicU64::new(0),
            read_busy_until: AtomicU64::new(0),
            fence_ordinal: AtomicU64::new(0),
            crash_armed: AtomicBool::new(false),
            crash_arm: Mutex::new(None),
            allocator: PmemAllocator::new(capacity as u64),
        })
    }

    /// Creates an Optane-profile device (the common case).
    pub fn optane(capacity: usize) -> Arc<Self> {
        Self::new(DeviceProfile::optane(), capacity)
    }

    /// The device's performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Media traffic counters.
    pub fn stats(&self) -> &MediaStats {
        &self.stats
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Declares how many threads are concurrently driving the device;
    /// bandwidth shares are derived from this (iMC contention model).
    pub fn set_active_threads(&self, n: u32) {
        self.active_threads.store(n.max(1), Ordering::Relaxed);
    }

    /// Currently declared driver-thread count.
    pub fn active_threads(&self) -> u32 {
        self.active_threads.load(Ordering::Relaxed)
    }

    /// Enables the shared-queue contention model: media occupancy is
    /// serialized through a single `busy-until` horizon instead of being
    /// divided into static per-thread bandwidth shares, so a burst of
    /// writes inflates the latency of *concurrent* reads (the mechanism
    /// behind the paper's Fig. 16 tail-latency spikes) and drains
    /// gradually afterwards.
    ///
    /// Per-thread clocks advance independently, so cross-thread queueing is
    /// approximate (no global event ordering); use this for QoS-shape
    /// experiments, and the default share model for steady-state
    /// throughput.
    pub fn set_queue_model(&self, enabled: bool) {
        self.queue_model.store(enabled, Ordering::Relaxed);
        self.write_busy_until.store(0, Ordering::Relaxed);
        self.read_busy_until.store(0, Ordering::Relaxed);
    }

    /// Whether the shared-queue model is active.
    pub fn queue_model_enabled(&self) -> bool {
        self.queue_model.load(Ordering::Relaxed)
    }

    /// Reserves `media_ns` on a channel horizon, returning the queueing
    /// delay (uncapped: callers on their own channel wait in full, which
    /// keeps their clocks tracking the horizon — the self-balancing
    /// property of an open queue).
    fn reserve(horizon: &AtomicU64, now: u64, media_ns: u64) -> u64 {
        loop {
            let cur = horizon.load(Ordering::Relaxed);
            let start = now.max(cur);
            if horizon
                .compare_exchange_weak(cur, start + media_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return start - now;
            }
        }
    }

    /// Under the queue model: books write-channel time, charging the full
    /// queueing delay (writers throttle themselves behind the backlog).
    fn serialize_write(&self, ctx: &mut ThreadCtx, media_ns: u64) {
        if media_ns == 0 || !self.queue_model_enabled() {
            return;
        }
        let wait = Self::reserve(&self.write_busy_until, ctx.clock.now(), media_ns);
        ctx.charge(wait);
    }

    /// Under the queue model: books bulk (sequential) read-channel time
    /// with the full queueing delay — bulk readers (compactions, recovery
    /// scans) throttle themselves behind the backlog they create.
    fn serialize_read_bulk(&self, ctx: &mut ThreadCtx, media_ns: u64) {
        if media_ns == 0 || !self.queue_model_enabled() {
            return;
        }
        let wait = Self::reserve(&self.read_busy_until, ctx.clock.now(), media_ns);
        ctx.charge(wait);
    }

    /// Under the queue model: a foreground random read books its (tiny)
    /// occupancy and absorbs *capped* interference from both channel
    /// backlogs: the controller schedules point reads between bulk
    /// transfers, so one read is delayed by at most a scheduling quantum
    /// even when compactions have booked milliseconds. A long backlog
    /// therefore shows up as a latency *plateau* that decays only once the
    /// backlog drains — exactly the paper's Fig. 16 shape.
    fn serialize_read_point(&self, ctx: &mut ThreadCtx, media_ns: u64) {
        if media_ns == 0 || !self.queue_model_enabled() {
            return;
        }
        let now = ctx.clock.now();
        // Book capacity on the read horizon (so bulk readers see the
        // load), but do not charge cross-thread read-queue waits: point
        // reads on the wide read channel are absorbed by its parallelism,
        // and per-thread clock drift would otherwise turn into phantom
        // waits. The interference signal is the *write* backlog.
        let _ = Self::reserve(&self.read_busy_until, now, media_ns);
        let write_gap = self
            .write_busy_until
            .load(Ordering::Relaxed)
            .saturating_sub(now) as f64;
        // Smooth saturation towards the cap: a small backlog adds a small
        // delay, a huge backlog asymptotes at one scheduling quantum.
        let cap = self.profile.queue_wait_cap_ns as f64;
        ctx.charge((cap * write_gap / (write_gap + cap)) as u64);
    }

    /// Effective write bandwidth for one op: full aggregate under the
    /// queue model (contention is handled by serialization), per-thread
    /// share otherwise.
    fn write_bw_for_op(&self) -> f64 {
        if self.queue_model_enabled() {
            self.profile.write_bw
        } else {
            self.profile.write_share(self.active_threads())
        }
    }

    fn read_bw_for_op(&self) -> f64 {
        if self.queue_model_enabled() {
            self.profile.read_bw
        } else {
            self.profile.read_share(self.active_threads())
        }
    }

    /// Allocates `len` bytes, 256B-aligned. Returns the absolute offset.
    ///
    /// Freed regions of the same size are reused (the stores allocate tables
    /// in a handful of fixed sizes, so a size-keyed free list suffices).
    pub fn alloc(&self, len: u64) -> Result<u64, PmemError> {
        self.allocator.alloc(len)
    }

    /// Allocates a region descriptor.
    pub fn alloc_region(&self, len: u64) -> Result<PRegion, PmemError> {
        Ok(PRegion {
            off: self.alloc(len)?,
            len,
        })
    }

    /// Returns a previously allocated range to the free list.
    pub fn dealloc(&self, off: u64, len: u64) {
        self.allocator.dealloc(off, len);
    }

    /// Bytes currently handed out by the allocator (space accounting).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocator.allocated_bytes()
    }

    /// Rebuilds the (volatile) allocator state after a crash: recovery code
    /// passes the end offset of the highest live region and the total bytes
    /// of live regions. Space freed before the crash leaks; prefer
    /// [`reset_allocator_from_live`](Self::reset_allocator_from_live).
    pub fn reset_allocator(&self, high_water: u64, live_bytes: u64) {
        self.allocator.reset_after_recovery(high_water, live_bytes);
    }

    /// Rebuilds the (volatile) allocator state after a crash from the full
    /// set of live regions: the free list becomes the gaps between them, so
    /// regions freed (or abandoned mid-write) before the crash are
    /// reclaimed. Regions must not overlap.
    pub fn reset_allocator_from_live(&self, live: &[PRegion]) {
        let spans: Vec<(u64, u64)> = live.iter().map(|r| (r.off, r.len)).collect();
        self.allocator.reset_from_live(&spans);
    }

    /// Highest offset the allocator's bump cursor has ever reached — a
    /// footprint metric that survives recovery resets, so a store that
    /// leaks space across crash/recover cycles shows unbounded growth here.
    pub fn allocator_high_water(&self) -> u64 {
        self.allocator.high_water()
    }

    /// The stripe holding media block `block`.
    #[inline]
    fn stripe(&self, block: u64) -> &RwLock<Stripe> {
        &self.stripes[(block % STRIPES as u64) as usize]
    }

    /// Splits the bytes `range` of an access starting at device offset
    /// `off` at `unit`-byte boundaries: yields each unit's index and the
    /// part of `range` inside it.
    fn split(
        off: u64,
        range: Range<usize>,
        unit: u64,
    ) -> impl Iterator<Item = (u64, Range<usize>)> {
        let mut pos = range.start;
        std::iter::from_fn(move || {
            (pos < range.end).then(|| {
                let idx = (off + pos as u64) / unit;
                let end = (((idx + 1) * unit - off) as usize).min(range.end);
                let part = pos..end;
                pos = end;
                (idx, part)
            })
        })
    }

    fn store_into_pending(&self, off: u64, data: &[u8]) {
        let block_len = self.profile.media_block as u64;
        for (block, in_block) in Self::split(off, 0..data.len(), block_len) {
            let mut pending = self.stripe(block).write();
            for (line, part) in Self::split(off, in_block, CACHE_LINE as u64) {
                // A line's first unfenced store starts from its durable
                // bytes; `fence` moves it back under this same lock.
                let cached = pending.entry(line).or_insert_with(|| {
                    let mut fill = [0u8; CACHE_LINE];
                    // SAFETY: the line starts in bounds (`write` checked)
                    // and lies in `block`, whose stripe lock is held.
                    unsafe { self.image.read(line * CACHE_LINE as u64, &mut fill) };
                    fill
                });
                let at = ((off + part.start as u64) % CACHE_LINE as u64) as usize;
                cached[at..at + part.len()].copy_from_slice(&data[part]);
            }
        }
    }

    fn line_range(off: u64, len: usize) -> Range<u64> {
        let first = off / CACHE_LINE as u64;
        let last = (off + len as u64).div_ceil(CACHE_LINE as u64);
        first..last
    }

    /// Stores `data` at `off` through the (volatile) cache.
    ///
    /// The data is visible to subsequent reads but is **not durable** until
    /// the range is [`flush`](Self::flush)ed and a [`fence`](Self::fence)
    /// completes. Charged as streaming CPU stores.
    pub fn write(&self, ctx: &mut ThreadCtx, off: u64, data: &[u8]) {
        self.check_bounds(off, data.len());
        self.store_into_pending(off, data);
        self.stats
            .lane(ctx)
            .logical_bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        ctx.charge(ctx.cost.dram_stream_ns(data.len()));
    }

    /// Non-temporal store: like [`write`](Self::write) but the lines are
    /// already queued for persistence; durability still requires a
    /// [`fence`](Self::fence).
    pub fn write_nt(&self, ctx: &mut ThreadCtx, off: u64, data: &[u8]) {
        self.write(ctx, off, data);
        ctx.flush_queue.extend(Self::line_range(off, data.len()));
    }

    /// Queues the cache lines covering `[off, off+len)` for persistence on
    /// the next fence (the `clwb` step).
    pub fn flush(&self, ctx: &mut ThreadCtx, off: u64, len: usize) {
        self.check_bounds(off, len);
        ctx.flush_queue.extend(Self::line_range(off, len));
    }

    /// Drains this thread's queued lines to media (the `sfence` step).
    ///
    /// Charges media occupancy per distinct media block: a fully covered
    /// block costs one sequential block write; a partially covered block
    /// additionally costs the internal read-modify-write. This is where the
    /// 256B write unit becomes visible to callers.
    pub fn fence(&self, ctx: &mut ThreadCtx) {
        if ctx.flush_queue.is_empty() {
            return;
        }
        let mut lines = std::mem::take(&mut ctx.flush_queue);
        lines.sort_unstable();
        lines.dedup();

        let w_bw = self.write_bw_for_op();
        let lines_per_block = (self.profile.media_block / CACHE_LINE) as u64;

        let mut media_time = 0u64;
        let mut media_bytes = 0u64;
        let mut rmw = 0u64;

        let mut i = 0;
        while i < lines.len() {
            let block = lines[i] / lines_per_block;
            let mut covered = 0u64;
            // Move every queued line of this media block from pending to
            // media under the block's stripe lock, so a concurrent store
            // to the same line lands either in the moved copy or after it.
            let mut pending = self.stripe(block).write();
            let first = block * lines_per_block;
            while i < lines.len() && lines[i] < first + lines_per_block {
                if let Some(data) = pending.remove(&lines[i]) {
                    // SAFETY: only lines found in this device's `pending`
                    // are written (a context's queue may hold another
                    // device's lines; those are skipped here), and a line
                    // enters `pending` only through a bounds-checked
                    // `write`, so it starts in bounds. It lies in `block`,
                    // whose stripe lock is held for writing.
                    unsafe { self.image.write(lines[i] * CACHE_LINE as u64, &data) };
                }
                covered += 1;
                i += 1;
            }
            media_bytes += self.profile.media_block as u64;
            media_time += (self.profile.media_block as f64 / w_bw) as u64;
            if covered < lines_per_block {
                // Partial block: the device must read-modify-write the
                // remaining bytes of the 256B media block internally.
                rmw += 1;
                media_time += self.profile.rmw_penalty_ns;
            }
        }

        let lane = self.stats.lane(ctx);
        lane.media_bytes_written
            .fetch_add(media_bytes, Ordering::Relaxed);
        lane.rmw_blocks.fetch_add(rmw, Ordering::Relaxed);
        lane.line_persists
            .fetch_add(lines.len() as u64, Ordering::Relaxed);
        lane.fences.fetch_add(1, Ordering::Relaxed);
        self.serialize_write(ctx, media_time);
        ctx.charge(
            self.profile.write_issue_ns
                + media_time
                + lines.len() as u64 * ctx.cost.dram_seq_line_ns,
        );
        // Crash-point clock: every durable-state transition happens at a
        // non-empty fence, so counting them here (after the lines reached
        // media — the fence *completed*) enumerates exactly the set of
        // distinct post-crash states a workload can leave behind.
        let ordinal = self.fence_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_armed.load(Ordering::Relaxed) {
            self.maybe_fire_crash(ordinal);
        }
    }

    /// Evaluates the installed crash arm at fence `ordinal`; unwinds with a
    /// [`CrashPoint`] payload (and disarms) if it fires.
    #[cold]
    fn maybe_fire_crash(&self, ordinal: u64) {
        let mut arm = self.crash_arm.lock();
        let fire = match &mut *arm {
            Some(CrashArm::AtFence(n)) => ordinal >= *n,
            Some(CrashArm::Random { state, one_in }) => {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (*state >> 33) % *one_in == 0
            }
            None => false,
        };
        if fire {
            *arm = None;
            self.crash_armed.store(false, Ordering::Relaxed);
            drop(arm);
            std::panic::resume_unwind(Box::new(CrashPoint { fence: ordinal }));
        }
    }

    /// Number of non-empty fences completed on this device so far.
    ///
    /// This is the crash-point clock: a crash-matrix driver runs the
    /// workload once to learn the total, then replays it armed at each
    /// ordinal `1..=total`. Empty fences (nothing queued) are not counted,
    /// matching the early return in [`fence`](Self::fence) — they do not
    /// change durable state.
    pub fn fence_count(&self) -> u64 {
        self.fence_ordinal.load(Ordering::Relaxed)
    }

    /// Arms a crash at the completion of fence ordinal `n` (absolute, not
    /// relative — add [`fence_count`](Self::fence_count) for "N fences from
    /// now"). If `n` is already past, the next fence fires. The arm
    /// auto-disarms when it fires.
    pub fn arm_crash_at_fence(&self, n: u64) {
        *self.crash_arm.lock() = Some(CrashArm::AtFence(n.max(1)));
        self.crash_armed.store(true, Ordering::Relaxed);
    }

    /// Arms a seeded-random crash: each fence fires with probability
    /// `1/one_in` (deterministic for a given seed — suitable for long
    /// workloads where exhaustive enumeration is too slow). Auto-disarms
    /// when it fires.
    pub fn arm_crash_random(&self, seed: u64, one_in: u64) {
        *self.crash_arm.lock() = Some(CrashArm::Random {
            state: seed,
            one_in: one_in.max(1),
        });
        self.crash_armed.store(true, Ordering::Relaxed);
    }

    /// Removes any installed crash arm.
    pub fn disarm_crash(&self) {
        self.crash_armed.store(false, Ordering::Relaxed);
        *self.crash_arm.lock() = None;
    }

    /// Convenience: `write_nt` + `fence`.
    pub fn persist(&self, ctx: &mut ThreadCtx, off: u64, data: &[u8]) {
        self.write_nt(ctx, off, data);
        self.fence(ctx);
    }

    /// Random (dependent) read of `buf.len()` bytes at `off`.
    ///
    /// Charges the device's random-read latency plus bandwidth occupancy for
    /// the media blocks touched. Lines still in the persistence-domain
    /// buffer are served from there (cache hits) at DRAM cost.
    pub fn read(&self, ctx: &mut ThreadCtx, off: u64, buf: &mut [u8]) {
        let (media_blocks, cached_lines) = self.copy_out(off, buf);
        let r_bw = self.read_bw_for_op();
        let mut time = 0u64;
        if media_blocks > 0 {
            let media_time =
                ((media_blocks * self.profile.media_block as u64) as f64 / r_bw) as u64;
            self.serialize_read_point(ctx, media_time);
            time += self.profile.read_latency_ns + media_time;
        }
        if cached_lines > 0 {
            time += ctx.cost.dram_random_ns;
        }
        self.account_read(ctx, buf.len(), media_blocks);
        ctx.charge(time);
    }

    /// Bulk continuation read: the caller is streaming adjacent data
    /// (compaction/recovery scans), so only bandwidth occupancy is charged,
    /// not the random-read latency. Under the queue model, bulk readers
    /// wait in full behind the read backlog they create.
    pub fn read_seq(&self, ctx: &mut ThreadCtx, off: u64, buf: &mut [u8]) {
        let (media_blocks, cached_lines) = self.copy_out(off, buf);
        let r_bw = self.read_bw_for_op();
        let media_time = ((media_blocks * self.profile.media_block as u64) as f64 / r_bw) as u64;
        self.serialize_read_bulk(ctx, media_time);
        let mut time = media_time;
        if cached_lines > 0 {
            time += ctx.cost.dram_seq_line_ns * cached_lines;
        }
        self.account_read(ctx, buf.len(), media_blocks);
        ctx.charge(time);
    }

    /// Foreground continuation read: the next block of a probe that has
    /// just paid the random-read latency (linear-probe spill, wrapped
    /// window, saturated size hint). Charged like [`read_seq`](Self::read_seq)
    /// but with *capped* backlog interference, like [`read`](Self::read).
    pub fn read_adjacent(&self, ctx: &mut ThreadCtx, off: u64, buf: &mut [u8]) {
        let (media_blocks, cached_lines) = self.copy_out(off, buf);
        let r_bw = self.read_bw_for_op();
        let media_time = ((media_blocks * self.profile.media_block as u64) as f64 / r_bw) as u64;
        self.serialize_read_point(ctx, media_time);
        let mut time = media_time;
        if cached_lines > 0 {
            time += ctx.cost.dram_seq_line_ns * cached_lines;
        }
        self.account_read(ctx, buf.len(), media_blocks);
        ctx.charge(time);
    }

    /// Copies current (pending-aware) contents into `buf`; returns
    /// `(media_blocks_touched, cached_lines_hit)`.
    fn copy_out(&self, off: u64, buf: &mut [u8]) -> (u64, u64) {
        let (media_lines, cached_lines) = self.copy_lines(off, buf);
        let media_blocks = if media_lines > 0 {
            self.profile.blocks_spanned(off, buf.len())
        } else {
            0
        };
        (media_blocks, cached_lines)
    }

    /// Copies current (pending-aware) contents into `buf`, taking each
    /// media block's stripe read lock once; returns how many of the lines
    /// touched came from media and how many were still pending.
    fn copy_lines(&self, off: u64, buf: &mut [u8]) -> (u64, u64) {
        self.check_bounds(off, buf.len());
        let (mut media_lines, mut cached_lines) = (0u64, 0u64);
        let block_len = self.profile.media_block as u64;
        for (block, in_block) in Self::split(off, 0..buf.len(), block_len) {
            let pending = self.stripe(block).read();
            for (line, part) in Self::split(off, in_block, CACHE_LINE as u64) {
                let abs = off + part.start as u64;
                let dst = &mut buf[part];
                if let Some(cached) = pending.get(&line) {
                    let at = (abs % CACHE_LINE as u64) as usize;
                    dst.copy_from_slice(&cached[at..at + dst.len()]);
                    cached_lines += 1;
                } else {
                    // SAFETY: `[abs, abs + dst.len())` is in bounds
                    // (checked above) and inside `line`, which lies in
                    // `block`, whose stripe lock is held.
                    unsafe { self.image.read(abs, dst) };
                    media_lines += 1;
                }
            }
        }
        (media_lines, cached_lines)
    }

    fn account_read(&self, ctx: &ThreadCtx, len: usize, media_blocks: u64) {
        let lane = self.stats.lane(ctx);
        lane.logical_bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        lane.media_bytes_read.fetch_add(
            media_blocks * self.profile.media_block as u64,
            Ordering::Relaxed,
        );
    }

    /// Reads without charging time or traffic (test oracles only).
    pub fn read_raw(&self, off: u64, buf: &mut [u8]) {
        self.copy_lines(off, buf);
    }

    /// Simulates a power failure: every line that has not reached media is
    /// lost. DRAM-resident structures must be dropped by the caller; after
    /// this, only fenced data can be observed.
    pub fn crash(&self) {
        for stripe in &self.stripes {
            stripe.write().clear();
        }
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of lines currently buffered in the persistence domain
    /// (volatile, would be lost by [`crash`](Self::crash)).
    pub fn pending_lines(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    #[inline]
    fn check_bounds(&self, off: u64, len: usize) {
        let cap = self.capacity;
        assert!(
            off.checked_add(len as u64).is_some_and(|end| end <= cap),
            "pmem access out of bounds: off={off} len={len} cap={cap}"
        );
    }
}

/// Errors produced by the device allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmemError {
    /// The arena has no room for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining in the bump region.
        available: u64,
    },
}

impl std::fmt::Display for PmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmemError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "pmem out of memory: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for PmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Arc<PmemDevice> {
        PmemDevice::optane(1 << 20)
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::with_default_cost()
    }

    #[test]
    fn write_read_roundtrip() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(1024).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        d.persist(&mut c, off, &data);
        let mut back = vec![0u8; 256];
        d.read(&mut c, off, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn unfenced_data_is_lost_on_crash() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(512).unwrap();
        d.persist(&mut c, off, &[0xAA; 256]);
        // Overwrite without fencing.
        d.write(&mut c, off, &[0xBB; 256]);
        let mut before = vec![0u8; 256];
        d.read(&mut c, off, &mut before);
        assert_eq!(before, [0xBB; 256], "pre-crash reads see cached data");
        d.crash();
        let mut after = vec![0u8; 256];
        d.read(&mut c, off, &mut after);
        assert_eq!(after, [0xAA; 256], "crash rolls back to fenced state");
    }

    #[test]
    fn fenced_data_survives_crash() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(512).unwrap();
        d.write(&mut c, off, &[7u8; 300]);
        d.flush(&mut c, off, 300);
        d.fence(&mut c);
        d.crash();
        let mut back = vec![0u8; 300];
        d.read(&mut c, off, &mut back);
        assert_eq!(back, vec![7u8; 300]);
    }

    #[test]
    fn small_write_is_inflated_to_a_media_block() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(256).unwrap();
        d.persist(&mut c, off, &[1u8; 16]);
        let s = d.stats().snapshot();
        assert_eq!(s.logical_bytes_written, 16);
        assert_eq!(s.media_bytes_written, 256);
        assert_eq!(s.rmw_blocks, 1);
        assert!((s.write_amplification() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn full_block_write_has_no_rmw() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(256).unwrap();
        d.persist(&mut c, off, &[1u8; 256]);
        let s = d.stats().snapshot();
        assert_eq!(s.media_bytes_written, 256);
        assert_eq!(s.rmw_blocks, 0);
    }

    #[test]
    fn fence_dedups_lines_within_a_batch() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(256).unwrap();
        d.write_nt(&mut c, off, &[1u8; 64]);
        d.write_nt(&mut c, off, &[2u8; 64]);
        d.fence(&mut c);
        let s = d.stats().snapshot();
        // Two stores to the same line, one media block written.
        assert_eq!(s.media_bytes_written, 256);
        let mut back = [0u8; 64];
        d.read_raw(off, &mut back);
        assert_eq!(back, [2u8; 64]);
    }

    #[test]
    fn small_writes_cost_more_time_per_byte_than_large() {
        let d = dev();
        let n = 64;
        // n small 16B writes to separate blocks vs one n*256B write.
        let off = d.alloc((n * 256) as u64).unwrap();
        let mut c1 = ctx();
        for i in 0..n {
            d.persist(&mut c1, off + (i * 256) as u64, &[0u8; 16]);
        }
        let mut c2 = ctx();
        d.persist(&mut c2, off, &vec![0u8; n * 256]);
        // Same media traffic, but the small-write path pays RMW + per-fence
        // issue costs: at least 4x slower per user byte here.
        assert!(c1.clock.now() > 4 * c2.clock.now() * 16 / 256);
    }

    #[test]
    fn read_charges_latency_and_blocks() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(1024).unwrap();
        d.persist(&mut c, off, &[3u8; 1024]);
        d.stats().reset();
        let before = c.clock.now();
        let mut buf = [0u8; 16];
        d.read(&mut c, off, &mut buf);
        assert!(c.clock.now() - before >= d.profile().read_latency_ns);
        let s = d.stats().snapshot();
        assert_eq!(s.logical_bytes_read, 16);
        assert_eq!(s.media_bytes_read, 256);
    }

    #[test]
    fn cached_read_is_cheap_and_not_media_traffic() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(256).unwrap();
        d.write(&mut c, off, &[5u8; 64]); // still pending
        d.stats().reset();
        let before = c.clock.now();
        let mut buf = [0u8; 64];
        d.read(&mut c, off, &mut buf);
        assert_eq!(buf, [5u8; 64]);
        let s = d.stats().snapshot();
        assert_eq!(s.media_bytes_read, 0);
        assert!(c.clock.now() - before < d.profile().read_latency_ns);
    }

    #[test]
    fn alloc_is_block_aligned_and_never_zero() {
        let d = dev();
        let a = d.alloc(10).unwrap();
        let b = d.alloc(300).unwrap();
        assert_ne!(a, 0);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 256);
    }

    #[test]
    fn dealloc_enables_reuse() {
        let d = dev();
        let a = d.alloc(512).unwrap();
        d.dealloc(a, 512);
        let b = d.alloc(512).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_memory_is_an_error_not_a_panic() {
        let d = PmemDevice::optane(4096);
        let r = d.alloc(1 << 20);
        assert!(matches!(r, Err(PmemError::OutOfMemory { .. })));
    }

    #[test]
    fn contention_raises_per_thread_cost() {
        let d = dev();
        let off = d.alloc(4096).unwrap();
        let mut c1 = ctx();
        d.set_active_threads(1);
        d.persist(&mut c1, off, &[0u8; 4096]);
        let t1 = c1.clock.now();
        let mut c16 = ctx();
        d.set_active_threads(16);
        d.persist(&mut c16, off, &[0u8; 4096]);
        let t16 = c16.clock.now();
        assert!(
            t16 > 4 * t1,
            "16-thread share must be far slower: {t16} vs {t1}"
        );
    }

    #[test]
    fn queue_model_makes_reads_wait_behind_writes() {
        let d = PmemDevice::optane(8 << 20);
        let off = d.alloc(1 << 20).unwrap();
        let mut w = ctx();
        d.persist(&mut w, off, &vec![0u8; 1 << 19]);
        d.set_queue_model(true);
        // A write burst books the media channel far into the future.
        d.persist(&mut w, off, &vec![1u8; 1 << 19]);
        // A reader whose clock is still at ~0 must queue behind it.
        let mut r = ctx();
        let mut buf = [0u8; 64];
        let before = r.clock.now();
        d.read(&mut r, off, &mut buf);
        let latency = r.clock.now() - before;
        assert!(
            latency > d.profile().read_latency_ns + d.profile().queue_wait_cap_ns / 2,
            "read should absorb write-backlog interference, took {latency}ns"
        );
        // With the queue drained (clock past busy horizon), reads are fast
        // again.
        let mut r2 = ctx();
        r2.clock.advance(w.clock.now() + 1_000_000);
        let before = r2.clock.now();
        d.read(&mut r2, off, &mut buf);
        assert!(r2.clock.now() - before < 2 * d.profile().read_latency_ns);
        d.set_queue_model(false);
    }

    #[test]
    fn queue_model_off_keeps_reads_independent() {
        let d = PmemDevice::optane(8 << 20);
        let off = d.alloc(1 << 20).unwrap();
        let mut w = ctx();
        d.persist(&mut w, off, &vec![0u8; 1 << 19]);
        let mut r = ctx();
        let mut buf = [0u8; 64];
        d.read(&mut r, off, &mut buf);
        assert!(r.clock.now() < 3 * d.profile().read_latency_ns);
    }

    #[test]
    fn crash_point_fires_at_exact_fence_and_disarms() {
        let d = dev();
        let off = d.alloc(4096).unwrap();
        d.arm_crash_at_fence(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = ctx();
            for i in 0..10u64 {
                d.persist(&mut c, off + i * 256, &[i as u8; 64]);
            }
        }));
        let payload = caught.expect_err("armed crash must unwind");
        let point = payload
            .downcast_ref::<CrashPoint>()
            .expect("payload is a CrashPoint");
        assert_eq!(point.fence, 3);
        assert_eq!(d.fence_count(), 3, "workload stopped at the crash fence");
        // Auto-disarmed: the workload completes on retry.
        let mut c = ctx();
        for i in 0..10u64 {
            d.persist(&mut c, off + i * 256, &[i as u8; 64]);
        }
        assert_eq!(d.fence_count(), 13);
    }

    #[test]
    fn empty_fences_do_not_advance_the_crash_clock() {
        let d = dev();
        let mut c = ctx();
        d.fence(&mut c);
        d.fence(&mut c);
        assert_eq!(d.fence_count(), 0);
        let off = d.alloc(256).unwrap();
        d.persist(&mut c, off, &[1u8; 64]);
        assert_eq!(d.fence_count(), 1);
    }

    #[test]
    fn random_arm_is_deterministic_and_fires_once() {
        let run = |seed| {
            let d = dev();
            let off = d.alloc(1 << 16).unwrap();
            d.arm_crash_random(seed, 8);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut c = ctx();
                for i in 0..256u64 {
                    d.persist(&mut c, off + i * 256, &[i as u8; 64]);
                }
            }));
            match caught {
                Ok(()) => None,
                Err(p) => Some(p.downcast_ref::<CrashPoint>().unwrap().fence),
            }
        };
        let a = run(42).expect("1-in-8 over 256 fences should fire");
        let b = run(42).unwrap();
        assert_eq!(a, b, "same seed, same crash point");
    }

    #[test]
    fn disarm_prevents_firing() {
        let d = dev();
        let off = d.alloc(1024).unwrap();
        d.arm_crash_at_fence(1);
        d.disarm_crash();
        let mut c = ctx();
        d.persist(&mut c, off, &[1u8; 64]);
        assert_eq!(d.fence_count(), 1);
    }

    #[test]
    fn reset_allocator_from_live_reclaims_dead_regions() {
        let d = dev();
        let a = d.alloc_region(4096).unwrap();
        let b = d.alloc_region(4096).unwrap();
        let _c = d.alloc_region(4096).unwrap();
        // Crash: only `a` and `_c` are reachable from recovered metadata.
        d.reset_allocator_from_live(&[a, _c]);
        // `b`'s space is free again.
        assert_eq!(d.alloc(4096).unwrap(), b.off);
    }

    /// Two threads store to disjoint halves of one cache line while one
    /// of them fences in a loop. Neither may lose a store: a fence moves
    /// the line from pending to media under the lock a concurrent store
    /// updates it under, and a store that finds the line clean pre-fills
    /// it from media under that same lock.
    #[test]
    fn fence_keeps_a_concurrent_write_to_the_same_line() {
        const ROUNDS: u64 = 2_000_000;
        let d = dev();
        let off = d.alloc(256).unwrap();
        let done = AtomicBool::new(false);
        let (lost_a, lost_b) = std::thread::scope(|s| {
            let fencer = s.spawn(|| {
                let mut a = ctx();
                let mut lost = 0u64;
                let mut i = 0u8;
                while !done.load(Ordering::Relaxed) {
                    d.write(&mut a, off, &[i; 32]);
                    d.flush(&mut a, off, 32);
                    d.fence(&mut a);
                    let mut got = [0u8; 32];
                    d.read_raw(off, &mut got);
                    lost += u64::from(got != [i; 32]);
                    i = i.wrapping_add(1);
                }
                lost
            });
            let mut b = ctx();
            let mut lost = 0u64;
            for i in 0..ROUNDS {
                let want = [i.to_le_bytes(); 4].concat();
                d.write(&mut b, off + 32, &want);
                let mut got = [0u8; 32];
                d.read_raw(off + 32, &mut got);
                lost += u64::from(got[..] != want[..]);
            }
            done.store(true, Ordering::Relaxed);
            (fencer.join().unwrap(), lost)
        });
        assert_eq!(
            (lost_a, lost_b),
            (0, 0),
            "stores lost (fencing half, writing half) out of {ROUNDS}"
        );
    }

    /// Threads past `LANES` wrap onto shared lanes; the summed counters
    /// still count every byte every thread asked for.
    #[test]
    fn lanes_count_every_thread_exactly() {
        let d = dev();
        let off = d.alloc(4096).unwrap();
        let cost = Arc::new(CostModel::default());
        let threads = 2 * LANES + 1;
        let requested: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (d, cost) = (&d, Arc::clone(&cost));
                    s.spawn(move || {
                        let mut c = ThreadCtx::for_thread(cost, t);
                        let mut buf = [0u8; 300];
                        let mut bytes = 0u64;
                        for k in 0..200usize {
                            let len = 1 + (t * 7 + k) % buf.len();
                            d.read(&mut c, off + (k * 13 % 3000) as u64, &mut buf[..len]);
                            bytes += len as u64;
                        }
                        bytes
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(d.stats().snapshot().logical_bytes_read, requested);
    }

    /// A capacity that is a whole number of neither media blocks nor huge
    /// pages: the last byte round-trips through a fence and a crash.
    #[test]
    fn last_byte_of_an_odd_capacity_round_trips() {
        let cap = (3 << 20) + 100;
        let d = PmemDevice::optane(cap);
        let mut c = ctx();
        d.persist(&mut c, cap as u64 - 1, &[0x5A]);
        d.crash();
        let mut back = [0u8; 2];
        d.read(&mut c, cap as u64 - 2, &mut back);
        assert_eq!(back, [0, 0x5A]);
    }

    /// Bounds are the capacity, not the mapping rounded up to a huge page.
    #[test]
    #[should_panic(expected = "pmem access out of bounds")]
    fn one_byte_past_an_odd_capacity_panics() {
        let cap = (3 << 20) + 100;
        let d = PmemDevice::optane(cap);
        let mut back = [0u8; 1];
        d.read(&mut ctx(), cap as u64, &mut back);
    }

    /// An offset whose end wraps past `u64::MAX` is out of bounds, not a
    /// small end that passes the capacity check.
    #[test]
    #[should_panic(expected = "pmem access out of bounds")]
    fn read_whose_end_wraps_panics() {
        let d = dev();
        let mut back = [0u8; 16];
        d.read(&mut ctx(), u64::MAX - 8, &mut back);
    }

    #[test]
    fn unwritten_bytes_across_a_huge_page_boundary_read_zero() {
        let d = PmemDevice::optane(8 << 20);
        let mut c = ctx();
        let edge = HUGE_PAGE as u64;
        // Fault in both pages around the edge, away from the bytes read.
        d.persist(&mut c, edge - 4096, &[1u8; 256]);
        d.persist(&mut c, edge + 4096, &[1u8; 256]);
        let mut back = vec![0xFFu8; 1024];
        d.read(&mut c, edge - 512, &mut back);
        assert_eq!(back, vec![0u8; 1024]);
        d.read(&mut c, 2 * edge - 512, &mut back);
        assert_eq!(back, vec![0u8; 1024], "never-touched pages read zero");
    }

    /// One read over the last line of one block (durable) and the first
    /// line of the next (pending): two stripes, two huge pages.
    #[test]
    fn read_across_two_stripes_mixes_pending_and_durable_lines() {
        let d = PmemDevice::optane(8 << 20);
        let mut c = ctx();
        let edge = HUGE_PAGE as u64;
        d.persist(&mut c, edge - 64, &[1u8; 64]);
        d.write(&mut c, edge, &[2u8; 64]);
        let (lo, hi) = (edge / 256 - 1, edge / 256);
        assert_ne!(lo % STRIPES as u64, hi % STRIPES as u64);
        let mut back = [0u8; 128];
        d.read(&mut c, edge - 64, &mut back);
        assert_eq!(back[..64], [1u8; 64]);
        assert_eq!(back[64..], [2u8; 64]);
    }

    #[test]
    fn crash_at_a_huge_page_boundary_keeps_only_the_fenced_line() {
        let d = PmemDevice::optane(8 << 20);
        let mut c = ctx();
        let edge = HUGE_PAGE as u64;
        d.persist(&mut c, edge - 64, &[3u8; 64]);
        d.write(&mut c, edge, &[4u8; 64]);
        d.crash();
        let mut back = [0xFFu8; 128];
        d.read(&mut c, edge - 64, &mut back);
        assert_eq!(back[..64], [3u8; 64]);
        assert_eq!(back[64..], [0u8; 64]);
    }

    /// A 1 TiB device costs address space, not memory, until touched.
    #[test]
    fn terabyte_device_keeps_a_fenced_write_at_its_last_block() {
        let cap = 1usize << 40;
        let d = PmemDevice::optane(cap);
        let mut c = ctx();
        let last = cap as u64 - 256;
        let data: Vec<u8> = (0..=255).collect();
        d.persist(&mut c, last, &data);
        d.crash();
        let mut back = vec![0u8; 256];
        d.read(&mut c, last, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn pending_lines_counts_and_clears() {
        let d = dev();
        let mut c = ctx();
        let off = d.alloc(256).unwrap();
        d.write(&mut c, off, &[0u8; 256]);
        assert_eq!(d.pending_lines(), 4);
        d.flush(&mut c, off, 256);
        d.fence(&mut c);
        assert_eq!(d.pending_lines(), 0);
    }
}
