//! The immutable, epoch-published read side of a shard.
//!
//! `ChameleonDb::get` never takes a shard lock: it loads the
//! shard's current [`ShardView`] with one atomic pointer load (under a
//! `kvsync` epoch pin) and probes the structures directly. Writers
//! republish a fresh view at every structural transition — memtable
//! freeze/flush, ABI dump, compaction commit, ABI rebuild — so a view,
//! once loaded, is internally consistent for the whole probe.
//!
//! Views are DRAM-only: publication changes nothing about what is
//! durable (the manifest and log remain the recovery source of truth).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kvtables::{FixedHashTable, SharedTable, Slot};
use pmem_sim::{PmemDevice, ThreadCtx};

/// Where a get found its answer (drives the hit-source metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GetSource {
    MemTable,
    Abi,
    Upper,
    Dumped,
    Last,
}

/// A shared, droppable handle to one on-Pmem table.
///
/// Compaction used to free an input table's region the moment its delete
/// was committed — but a reader holding an older view may still be
/// probing that table. The handle splits "logically dead" from
/// "physically freeable": the compacting writer calls [`doom`](Self::doom)
/// and drops its `Arc`; the region is deallocated only when the *last*
/// holder (writer lists or retired views) drops.
pub(crate) struct TableHandle {
    table: FixedHashTable,
    dev: Arc<PmemDevice>,
    doomed: AtomicBool,
    /// Crash count at creation. After a simulated crash the allocator is
    /// rebuilt from the live set, so a doomed region may already be back
    /// on the free list (or re-allocated) — freeing it again would
    /// corrupt the allocator. Drop only deallocates if no crash happened
    /// since this handle was created.
    born_crashes: u64,
}

impl TableHandle {
    pub fn new(table: FixedHashTable, dev: &Arc<PmemDevice>) -> Arc<Self> {
        Arc::new(Self {
            table,
            dev: Arc::clone(dev),
            doomed: AtomicBool::new(false),
            born_crashes: dev.stats().crashes.load(Ordering::Relaxed),
        })
    }

    pub fn table(&self) -> &FixedHashTable {
        &self.table
    }

    /// Marks the table's region for deallocation when the last handle
    /// drops. Called after the manifest delete is committed.
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }
}

impl Drop for TableHandle {
    fn drop(&mut self) {
        if self.doomed.load(Ordering::Acquire)
            && self.dev.stats().crashes.load(Ordering::Relaxed) == self.born_crashes
        {
            self.table.clone().free(&self.dev);
        }
    }
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle")
            .field("region", &self.table.region())
            .field("doomed", &self.doomed.load(Ordering::Relaxed))
            .finish()
    }
}

/// An immutable snapshot of one shard's readable structures, probed in
/// the paper's freshness order: MemTable → ABI (or a degraded
/// upper-level walk) → dumped ABI tables → last level (Fig. 6b).
///
/// The MemTable and ABI are *live* [`SharedTable`]s — the writer keeps
/// inserting into them after the snapshot is taken (inserts are the only
/// in-place mutation, so concurrent probes stay sound and an
/// acknowledged put is visible without a republish). The table lists are
/// frozen at snapshot time; structural changes (freeze, dump, compaction
/// commit) swap in fresh tables / new lists and republish.
#[derive(Debug, Clone)]
pub(crate) struct ShardView {
    pub mem: Arc<SharedTable>,
    /// Frozen MemTables awaiting background maintenance, newest first
    /// (the in-flight one, if any, is the oldest and sits at the back).
    /// Probed right after the live MemTable: their entries are not yet in
    /// the ABI or any table, so they must stay reader-visible until the
    /// worker's flush/merge commits and republishes without them.
    pub frozen_newest_first: Vec<Arc<SharedTable>>,
    pub abi: Arc<SharedTable>,
    /// False until the ABI has been rebuilt after a restart; gets then
    /// take the degraded upper-level walk.
    pub abi_valid: bool,
    /// Every upper-level table, pre-sorted newest-first — the degraded
    /// path's probe order, established once here instead of allocating
    /// and sorting per get.
    pub uppers_newest_first: Vec<Arc<TableHandle>>,
    /// GPM-dumped ABI tables, newest-first.
    pub dumped_newest_first: Vec<Arc<TableHandle>>,
    /// The last-level table.
    pub last: Option<Arc<TableHandle>>,
}

impl ShardView {
    /// Probes the view in freshness order. Lock-free; safe concurrently
    /// with the shard's writer.
    pub fn get(
        &self,
        dev: &PmemDevice,
        ctx: &mut ThreadCtx,
        hash: u64,
        use_abi: bool,
    ) -> Option<(Slot, GetSource)> {
        if let Some(s) = self.mem.get(ctx, hash) {
            return Some((s, GetSource::MemTable));
        }
        // Frozen MemTables hold entries newer than everything below; a
        // hit here is still a MemTable hit for metrics purposes.
        for t in &self.frozen_newest_first {
            if let Some(s) = t.get(ctx, hash) {
                return Some((s, GetSource::MemTable));
            }
        }
        if self.abi_valid && use_abi {
            if let Some(s) = self.abi.get(ctx, hash) {
                return Some((s, GetSource::Abi));
            }
        } else {
            // Degraded path: ABI not yet rebuilt after restart — search
            // the upper levels table-by-table, newest first (the
            // Pmem-LSM-NF behaviour the paper says ChameleonDB degrades
            // to, §3.3).
            for t in &self.uppers_newest_first {
                if let Some(s) = t.table().get(dev, ctx, hash) {
                    return Some((s, GetSource::Upper));
                }
            }
        }
        for t in &self.dumped_newest_first {
            if let Some(s) = t.table().get(dev, ctx, hash) {
                return Some((s, GetSource::Dumped));
            }
        }
        if let Some(t) = &self.last {
            if let Some(s) = t.table().get(dev, ctx, hash) {
                return Some((s, GetSource::Last));
            }
        }
        None
    }

    /// Whether a get on this view takes the degraded upper-level walk
    /// because the ABI has not been rebuilt yet (the post-restart window;
    /// `use_abi: false` configs walk the uppers by choice, not degradation).
    pub fn degraded(&self, use_abi: bool) -> bool {
        use_abi && !self.abi_valid
    }
}
