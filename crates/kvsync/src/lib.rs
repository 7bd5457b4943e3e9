//! Epoch-based snapshot publication: lock-free readers over
//! atomically-republished immutable views (RCU / ArcSwap style).
//!
//! The pattern this crate serves: a writer holds some mutable state behind
//! a mutex and, at every *structural transition*, publishes an immutable
//! snapshot (`Arc<T>`) of the parts readers need. Readers never touch the
//! mutex — they pin an epoch, load the current snapshot pointer with one
//! atomic load, probe it, and unpin. Retired snapshots are reclaimed only
//! once every reader that could still hold them has unpinned.
//!
//! Two pieces:
//!
//! * [`EpochDomain`] — a fixed array of per-reader pin slots plus a global
//!   epoch counter. Pinning records the current epoch in the reader's
//!   slot; publication advances the epoch; a retired snapshot is freed
//!   once every slot is either unpinned or pinned at a *later* epoch.
//! * [`ViewCell`] — an atomic `Arc<T>` holder. `load` is one
//!   `AtomicPtr` load (no reference-count traffic at all); `publish`
//!   swaps the pointer and frees the old snapshot at once if no reader
//!   pinned before the swap, else retires it into a writer-side garbage
//!   list that later publishes collect once it has quiesced.
//!
//! This is deliberately simpler than general-purpose epoch reclamation:
//! publications are rare (memtable freeze, compaction commit, …) and
//! always serialized by the writer's own mutex, so the garbage list can be
//! a plain mutex-guarded vector; only the reader side must be wait-free.
//!
//! ## Why not `Mutex<Arc<T>>` or `RwLock<Arc<T>>`?
//!
//! Cloning an `Arc` under any lock puts every reader on the same
//! contended cache line (the lock word *and* the refcount). On Optane-era
//! hardware the read itself costs ~300ns, so cross-core line ping-pong on
//! the index hot path is a first-order cost. Here a read is: one relaxed
//! slot store, one `SeqCst` pointer load, plain dereferences, one relaxed
//! slot store — no shared line is written by more than one reader.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of low bits of a pin slot used for the nested-pin count; the
/// high bits hold the pinned epoch.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

#[inline]
fn pack(epoch: u64, count: u64) -> u64 {
    debug_assert!(count <= COUNT_MASK);
    (epoch << COUNT_BITS) | count
}

#[inline]
fn slot_epoch(v: u64) -> u64 {
    v >> COUNT_BITS
}

#[inline]
fn slot_count(v: u64) -> u64 {
    v & COUNT_MASK
}

/// Pads each pin slot to its own cache line so readers on different
/// cores never write-share a line.
#[repr(align(64))]
#[derive(Default)]
struct PinSlot(AtomicU64);

/// A reclamation domain: one global epoch plus a fixed set of reader pin
/// slots.
///
/// Readers identify themselves with an arbitrary `usize` id (a worker
/// thread id); ids are mapped onto slots by modulo. Two readers sharing a
/// slot is *safe* — the slot carries a pin count and keeps the oldest
/// pinned epoch — it merely delays reclamation while their pins overlap,
/// so size the domain for the expected worker count.
#[derive(Debug)]
pub struct EpochDomain {
    /// Monotonic publication epoch. Starts at 1 so an unpinned slot can
    /// be the all-zero value.
    global: AtomicU64,
    slots: Box<[PinSlot]>,
}

impl std::fmt::Debug for PinSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.load(Ordering::Relaxed))
    }
}

impl EpochDomain {
    /// Creates a domain with `readers` pin slots (minimum 1).
    pub fn new(readers: usize) -> Self {
        Self {
            global: AtomicU64::new(1),
            slots: (0..readers.max(1)).map(|_| PinSlot::default()).collect(),
        }
    }

    /// Number of pin slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Pins reader `id`, returning a guard that unpins on drop. While the
    /// guard lives, every snapshot loaded from a [`ViewCell`] of this
    /// domain stays valid.
    ///
    /// Wait-free for a private slot; a CAS loop only contends when two
    /// readers share a slot by id collision.
    pub fn pin(&self, id: usize) -> Pin<'_> {
        let idx = id % self.slots.len();
        let slot = &self.slots[idx].0;
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let new = if slot_count(cur) == 0 {
                // SeqCst: this store must be ordered before the guard's
                // subsequent pointer loads *and* be visible to a
                // publisher's slot scan — see `ViewCell::publish`.
                pack(self.global.load(Ordering::SeqCst), 1)
            } else {
                // Slot shared with an in-flight reader: keep its (older)
                // epoch so whatever it may hold stays protected.
                pack(slot_epoch(cur), slot_count(cur) + 1)
            };
            match slot.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return Pin { domain: self, idx },
                Err(v) => cur = v,
            }
        }
    }

    /// Advances the global epoch; returns the epoch that was current
    /// before the advance (the retire epoch of whatever was just
    /// unpublished).
    fn advance(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst)
    }

    /// Whether garbage retired at `epoch` can be freed: every slot is
    /// either unpinned or was pinned strictly after the retire point.
    fn quiesced(&self, epoch: u64) -> bool {
        self.slots.iter().all(|s| {
            let v = s.0.load(Ordering::SeqCst);
            slot_count(v) == 0 || slot_epoch(v) > epoch
        })
    }

    /// Starts a grace period: advances the global epoch and returns a
    /// token for [`try_sync`](Self::try_sync). Any reader that pins after
    /// this call observes the advanced epoch (the pin's `SeqCst` load
    /// synchronizes with the advance), so once the token quiesces, no
    /// reader can still hold state loaded before `begin_sync` returned.
    pub fn begin_sync(&self) -> u64 {
        self.advance()
    }

    /// Whether the grace period started by [`begin_sync`](Self::begin_sync)
    /// has expired: every pin taken before it has dropped.
    pub fn try_sync(&self, token: u64) -> bool {
        self.quiesced(token)
    }

    /// Blocks until every pin taken before this call has dropped — the
    /// quarantine primitive GC uses before reusing relocated-away log
    /// space. Spin-yields; callers are maintenance paths, never readers.
    pub fn synchronize(&self) {
        let token = self.advance();
        while !self.quiesced(token) {
            std::thread::yield_now();
        }
    }
}

/// An active reader pin (see [`EpochDomain::pin`]).
#[must_use = "a pin protects loads only while it is held"]
pub struct Pin<'d> {
    domain: &'d EpochDomain,
    idx: usize,
}

impl Pin<'_> {
    /// The domain this pin protects loads in. Structures that accept a
    /// caller-supplied pin (e.g. an epoch-safe index) use this to assert
    /// the pin actually guards *their* reclamation domain, the same check
    /// [`ViewCell::load`] performs.
    pub fn domain(&self) -> &EpochDomain {
        self.domain
    }
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        let slot = &self.domain.slots[self.idx].0;
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let new = if slot_count(cur) <= 1 {
                0
            } else {
                pack(slot_epoch(cur), slot_count(cur) - 1)
            };
            match slot.compare_exchange_weak(cur, new, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }
}

/// An atomically-publishable `Arc<T>` snapshot cell.
///
/// One writer (or externally serialized writers) republishes with
/// [`publish`](Self::publish); any number of readers load the current
/// snapshot with [`load`](Self::load) under an [`EpochDomain`] pin.
/// Retired snapshots are dropped once no pin from before their
/// replacement remains — including any `Drop` side effects they carry
/// (e.g. freeing persistent-memory regions of compacted-away tables).
pub struct ViewCell<T> {
    /// Always a valid `Arc::into_raw` pointer; never null.
    ptr: AtomicPtr<T>,
    domain: Arc<EpochDomain>,
    /// Retired snapshots, each tagged with its retire epoch. Only
    /// publishers touch this (readers never lock).
    retired: Mutex<Vec<(u64, *const T)>>,
}

// SAFETY: the raw pointers are Arc-managed `T`s handed between threads
// only under the epoch protocol; `T: Send + Sync` makes that sound.
unsafe impl<T: Send + Sync> Send for ViewCell<T> {}
unsafe impl<T: Send + Sync> Sync for ViewCell<T> {}

impl<T> ViewCell<T> {
    /// Creates a cell holding `initial`.
    pub fn new(domain: Arc<EpochDomain>, initial: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
            domain,
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The cell's reclamation domain.
    pub fn domain(&self) -> &Arc<EpochDomain> {
        &self.domain
    }

    /// Loads the current snapshot: one atomic pointer load, no
    /// reference-count traffic. The returned borrow is valid for the
    /// shorter of the pin and the cell.
    ///
    /// The pin must come from this cell's [`EpochDomain`].
    pub fn load<'a>(&'a self, pin: &'a Pin<'_>) -> &'a T {
        assert!(
            std::ptr::eq(pin.domain, &*self.domain),
            "pin is from a different EpochDomain"
        );
        // SAFETY: `ptr` is always a live Arc::into_raw pointer. A
        // publisher that swaps it out cannot free it while our pin slot
        // holds an epoch <= its retire epoch; the SeqCst pin-store /
        // ptr-load pair here and the SeqCst swap / slot-scan pair in
        // `publish` make that mutual visibility total (see module docs).
        unsafe { &*self.ptr.load(Ordering::SeqCst) }
    }

    /// Like [`load`](Self::load) but returns a clone of the underlying
    /// `Arc`, which stays valid after the pin is dropped. Costs refcount
    /// traffic — for occasional consumers (tests, maintenance), not the
    /// hot read path.
    pub fn load_arc(&self, pin: &Pin<'_>) -> Arc<T> {
        let p = self.load(pin) as *const T;
        // SAFETY: `p` is a live Arc pointer protected by `pin`.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    /// Publishes `new` as the current snapshot, retires the previous one,
    /// and frees any retired snapshot no reader can still hold. With no
    /// pin from before the swap, the old snapshot is freed on the spot and
    /// the retired list is never allocated.
    pub fn publish(&self, new: Arc<T>) {
        let old: *const T = self
            .ptr
            .swap(Arc::into_raw(new) as *mut T, Ordering::SeqCst);
        let retire_epoch = self.domain.advance();
        let mut retired = self.retired.lock();
        if self.domain.quiesced(retire_epoch) {
            // Quiescence is monotone in the epoch: everything retired
            // before `old` carries a smaller epoch, so it has quiesced too.
            for ptr in retired.drain(..).map(|(_, ptr)| ptr).chain([old]) {
                // SAFETY: no pin from before this snapshot's retirement
                // remains, so no reader can hold a borrow into it.
                drop(unsafe { Arc::from_raw(ptr) });
            }
        } else {
            retired.push((retire_epoch, old));
            Self::collect_locked(&self.domain, &mut retired);
        }
    }

    /// Frees whatever retired snapshots have quiesced. Publishing already
    /// does this; exposed for idle-time reclamation and tests.
    pub fn collect(&self) {
        Self::collect_locked(&self.domain, &mut self.retired.lock());
    }

    /// Retired snapshots not yet reclaimed (diagnostics/tests).
    pub fn retired_len(&self) -> usize {
        self.retired.lock().len()
    }

    fn collect_locked(domain: &EpochDomain, retired: &mut Vec<(u64, *const T)>) {
        retired.retain(|&(epoch, ptr)| {
            if domain.quiesced(epoch) {
                // SAFETY: no pin from before this snapshot's retirement
                // remains, so no reader can hold a borrow into it.
                drop(unsafe { Arc::from_raw(ptr) });
                false
            } else {
                true
            }
        });
    }
}

impl<T> Drop for ViewCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can outlive a `&self` borrow of the
        // cell, so everything can be released unconditionally.
        drop(unsafe { Arc::from_raw(self.ptr.load(Ordering::SeqCst)) });
        for (_, ptr) in self.retired.get_mut().drain(..) {
            drop(unsafe { Arc::from_raw(ptr) });
        }
    }
}

impl<T> std::fmt::Debug for ViewCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCell")
            .field("retired", &self.retired.lock().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts drops so tests can observe reclamation.
    struct Tracked {
        value: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(value: u64, drops: &Arc<AtomicUsize>) -> Arc<Tracked> {
        Arc::new(Tracked {
            value,
            drops: Arc::clone(drops),
        })
    }

    #[test]
    fn load_sees_latest_publish() {
        let domain = Arc::new(EpochDomain::new(4));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        {
            let pin = domain.pin(0);
            assert_eq!(cell.load(&pin).value, 1);
        }
        cell.publish(tracked(2, &drops));
        let pin = domain.pin(0);
        assert_eq!(cell.load(&pin).value, 2);
    }

    #[test]
    fn unpinned_publish_reclaims_immediately() {
        let domain = Arc::new(EpochDomain::new(4));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        cell.publish(tracked(2, &drops));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "old view freed at publish");
        assert_eq!(cell.retired_len(), 0);
    }

    /// A publish that no pin predates frees in place: a cell never pinned
    /// across one never allocates its retired list, and the first such
    /// publish after a pinned one frees that backlog too.
    #[test]
    fn unpinned_publishes_never_allocate_the_retired_list() {
        let domain = Arc::new(EpochDomain::new(4));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(0, &drops));
        for v in 1..=100 {
            cell.publish(tracked(v, &drops));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 100);
        assert_eq!(cell.retired.lock().capacity(), 0);
        let pin = domain.pin(0);
        cell.publish(tracked(101, &drops));
        assert_eq!(cell.retired_len(), 1, "a pin predates the swap");
        drop(pin);
        cell.publish(tracked(102, &drops));
        assert_eq!(cell.retired_len(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 102);
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_unpin() {
        let domain = Arc::new(EpochDomain::new(4));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        let pin = domain.pin(0);
        let view = cell.load(&pin);
        cell.publish(tracked(2, &drops));
        // Reader still pinned from before the publish: view 1 must live.
        assert_eq!(view.value, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(cell.retired_len(), 1);
        drop(pin);
        cell.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(cell.retired_len(), 0);
    }

    #[test]
    fn pin_after_publish_does_not_block_reclamation() {
        let domain = Arc::new(EpochDomain::new(4));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        cell.publish(tracked(2, &drops));
        // A pin taken *after* the publish sees epoch > retire epoch.
        let _pin = domain.pin(0);
        cell.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sync_tokens_track_pins() {
        let domain = EpochDomain::new(4);
        let early = domain.pin(0);
        let token = domain.begin_sync();
        assert!(!domain.try_sync(token), "pre-advance pin must block");
        // Pins taken after begin_sync never block the grace period.
        let late = domain.pin(1);
        drop(early);
        assert!(domain.try_sync(token));
        drop(late);
        domain.synchronize(); // no pins: returns immediately
    }

    #[test]
    fn synchronize_waits_for_straggling_reader() {
        let domain = Arc::new(EpochDomain::new(4));
        let released = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&domain);
        let r = Arc::clone(&released);
        let pinned = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&pinned);
        let reader = std::thread::spawn(move || {
            let pin = d.pin(2);
            p.store(1, Ordering::SeqCst);
            while r.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            drop(pin);
        });
        while pinned.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let token = domain.begin_sync();
        assert!(!domain.try_sync(token));
        released.store(1, Ordering::SeqCst);
        domain.synchronize();
        assert!(domain.try_sync(token));
        reader.join().unwrap();
    }

    #[test]
    fn shared_slot_keeps_oldest_epoch() {
        let domain = Arc::new(EpochDomain::new(1)); // every id shares slot 0
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        let early = domain.pin(0);
        cell.publish(tracked(2, &drops));
        let late = domain.pin(7); // same slot, newer epoch — must not unblock
        drop(late);
        cell.collect();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "overlapping shared-slot pin must keep the old view alive"
        );
        drop(early);
        cell.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_arc_outlives_the_pin() {
        let domain = Arc::new(EpochDomain::new(2));
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
        let held = {
            let pin = domain.pin(0);
            cell.load_arc(&pin)
        };
        cell.publish(tracked(2, &drops));
        cell.collect();
        // The view was reclaimed from the cell's perspective, but the Arc
        // clone keeps the payload alive.
        assert_eq!(held.value, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(held);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cell_drop_releases_current_and_retired() {
        let domain = Arc::new(EpochDomain::new(2));
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = ViewCell::new(Arc::clone(&domain), tracked(1, &drops));
            let _forever = domain.pin(0); // never unpinned before cell drop
            cell.publish(tracked(2, &drops));
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "different EpochDomain")]
    fn cross_domain_pin_is_rejected() {
        let d1 = Arc::new(EpochDomain::new(2));
        let d2 = Arc::new(EpochDomain::new(2));
        let cell = ViewCell::new(d1, Arc::new(7u64));
        let pin = d2.pin(0);
        let _ = cell.load(&pin);
    }

    /// Readers hammer loads while a writer republishes; every loaded view
    /// must be internally consistent (the two halves always match) and
    /// nothing may crash or leak.
    #[test]
    fn concurrent_publish_and_load_stress() {
        struct Pair {
            a: u64,
            b: u64,
            _guard: Arc<AtomicUsize>,
        }
        impl Drop for Pair {
            fn drop(&mut self) {
                self._guard.fetch_add(1, Ordering::SeqCst);
            }
        }

        let domain = Arc::new(EpochDomain::new(8));
        let drops = Arc::new(AtomicUsize::new(0));
        let make = |v: u64, drops: &Arc<AtomicUsize>| {
            Arc::new(Pair {
                a: v,
                b: v.wrapping_mul(0x9E37_79B9),
                _guard: Arc::clone(drops),
            })
        };
        let cell = ViewCell::new(Arc::clone(&domain), make(0, &drops));
        let publishes = 20_000u64;

        std::thread::scope(|s| {
            for reader in 0..6usize {
                let cell = &cell;
                let domain = &domain;
                s.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..200_000 {
                        let pin = domain.pin(reader);
                        let v = cell.load(&pin);
                        assert_eq!(v.b, v.a.wrapping_mul(0x9E37_79B9), "torn view");
                        assert!(v.a >= last, "snapshot went backwards");
                        last = v.a;
                    }
                });
            }
            let cell = &cell;
            let drops2 = Arc::clone(&drops);
            s.spawn(move || {
                for i in 1..=publishes {
                    cell.publish(make(i, &drops2));
                }
            });
        });
        cell.collect();
        // Everything but the current view must have been dropped.
        assert_eq!(drops.load(Ordering::SeqCst) as u64, publishes);
        assert_eq!(cell.retired_len(), 0);
    }
}
