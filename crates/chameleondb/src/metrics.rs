//! Store-level operation counters.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem_sim::{ThreadCtx, LANES};

/// Declares every store counter exactly once and generates the live
/// atomics ([`StoreLane`], one per [`LANES`] lane in [`StoreMetrics`]),
/// their point-in-time copy ([`StoreMetricsSnapshot`]), `snapshot()`,
/// `counters()` and the counter-wise `Sub` from that one list — adding a
/// counter is one line here, and none of them can miss it.
macro_rules! store_counters {
    ($($(#[$doc:meta])* $f:ident,)+) => {
        /// One counter lane of [`StoreMetrics`]: every counter, bumped by
        /// the threads whose [`ThreadCtx::lane`] it is, on cache lines of
        /// its own.
        #[derive(Debug, Default)]
        #[repr(align(64))]
        pub(crate) struct StoreLane {
            $($(#[$doc])* pub $f: AtomicU64,)+
        }

        /// Counters describing where gets were served and how much maintenance the
        /// store performed. The harnesses use these to explain throughput results
        /// (e.g. ABI hit rate, compaction counts behind Fig. 15/16).
        ///
        /// Each thread bumps the lane of its `ThreadCtx` (one of
        /// [`LANES`]), so threads on different cores do not write-share a
        /// counter line; [`snapshot`](StoreMetrics::snapshot) sums the
        /// lanes.
        #[derive(Debug, Default)]
        pub struct StoreMetrics {
            lanes: [StoreLane; LANES],
        }

        impl StoreMetrics {
            /// Relaxed snapshot of all counters, summed over the lanes.
            pub fn snapshot(&self) -> StoreMetricsSnapshot {
                let mut s = StoreMetricsSnapshot::default();
                for l in &self.lanes {
                    $(s.$f += l.$f.load(Ordering::Relaxed);)+
                }
                s
            }
        }

        /// Point-in-time copy of [`StoreMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StoreMetricsSnapshot {
            $(pub $f: u64,)+
        }

        impl StoreMetricsSnapshot {
            /// Flattens the snapshot into `(name, value)` pairs, declaration
            /// order — the shape the observability exporter consumes.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($f), self.$f),)+]
            }
        }

        /// `later - earlier` phase delta, counter-wise. Replaces hand-rolled
        /// per-field subtraction in the experiment harnesses.
        impl std::ops::Sub for StoreMetricsSnapshot {
            type Output = StoreMetricsSnapshot;

            fn sub(self, earlier: StoreMetricsSnapshot) -> StoreMetricsSnapshot {
                StoreMetricsSnapshot {
                    $($f: self.$f - earlier.$f,)+
                }
            }
        }
    };
}

store_counters! {
    puts,
    gets,
    deletes,
    /// Gets answered from the MemTable.
    memtable_hits,
    /// Gets answered from the Auxiliary Bypass Index.
    abi_hits,
    /// Gets answered from a GPM-dumped ABI table.
    dumped_hits,
    /// Gets answered from the last-level table.
    last_hits,
    /// Gets answered from an upper-level Pmem table (degraded path while an
    /// ABI is still being rebuilt after restart).
    upper_hits,
    /// Gets that found no live entry.
    misses,
    /// MemTable flushes to L0.
    flushes,
    /// MemTable merges into the ABI (Write-Intensive Mode).
    wim_merges,
    /// Upper-level (size-tiered) compactions.
    mid_compactions,
    /// Last-level (leveled) compactions.
    last_compactions,
    /// ABI dumps performed by Get-Protect Mode.
    abi_dumps,
    /// Times the store entered Get-Protect Mode.
    gpm_entries,
    /// Shard-ABI rebuilds performed lazily after a restart.
    abi_rebuilds,
    /// Gets served through the degraded upper-level walk (ABI not yet
    /// rebuilt after a restart) — observability for the recovery window.
    degraded_gets,
    /// Read-view publications (one per structural transition per shard).
    view_publishes,
    /// Puts that waited because their shard's frozen-MemTable queue was at
    /// capacity (background-maintenance backpressure).
    write_stalls,
    /// Value-log GC passes completed.
    gc_runs,
    /// Live entries relocated by GC copy-forward.
    gc_relocated_entries,
    /// Bytes appended by GC copy-forward.
    gc_relocated_bytes,
    /// Extents returned to the free list by GC.
    gc_reclaimed_extents,
    /// Dead-byte credits dropped because the index slot was stale — the
    /// extent its location word named was garbage-collected (and possibly
    /// reused) after the version was superseded but before the merge that
    /// finally dropped its slot. The bytes already left the accounting
    /// when the extent was reclaimed, so the credit must not land.
    stale_credit_skips,
    /// Range scans served from the ordered index.
    scans,
    /// Live keys returned across all scans.
    scanned_keys,
}

impl StoreMetrics {
    /// The lane `ctx`'s operations are counted in.
    #[inline]
    pub(crate) fn lane(&self, ctx: &ThreadCtx) -> &StoreLane {
        &self.lanes[ctx.lane()]
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StoreMetricsSnapshot {
    /// Total gets that found a live entry, summed over every serving tier.
    pub fn hits(&self) -> u64 {
        self.memtable_hits + self.abi_hits + self.dumped_hits + self.last_hits + self.upper_hits
    }

    /// Fraction of gets that found a live entry (hits over hits+misses).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of gets served by the ABI among all hits.
    pub fn abi_hit_rate(&self) -> f64 {
        let hits = self.hits();
        if hits == 0 {
            0.0
        } else {
            self.abi_hits as f64 / hits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = StoreMetrics::default();
        let c = ThreadCtx::with_default_cost();
        m.lane(&c).puts.store(3, Ordering::Relaxed);
        m.lane(&c).abi_hits.store(2, Ordering::Relaxed);
        m.lanes[LANES - 1].last_hits.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.puts, 3);
        assert_eq!(s.abi_hits, 2);
        assert!((s.abi_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(StoreMetricsSnapshot::default().abi_hit_rate(), 0.0);
        assert_eq!(StoreMetricsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_counts_hits_over_hits_plus_misses() {
        let s = StoreMetricsSnapshot {
            memtable_hits: 2,
            abi_hits: 3,
            last_hits: 1,
            misses: 4,
            ..Default::default()
        };
        assert_eq!(s.hits(), 6);
        assert!((s.hit_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn sub_gives_phase_deltas() {
        let before = StoreMetricsSnapshot {
            puts: 10,
            flushes: 2,
            misses: 1,
            ..Default::default()
        };
        let mut after = before;
        after.puts = 25;
        after.flushes = 5;
        after.misses = 1;
        after.abi_dumps = 3;
        let d = after - before;
        assert_eq!(d.puts, 15);
        assert_eq!(d.flushes, 3);
        assert_eq!(d.misses, 0);
        assert_eq!(d.abi_dumps, 3);
    }

    #[test]
    fn counters_flatten_every_field() {
        let s = StoreMetricsSnapshot {
            puts: 7,
            scanned_keys: 9,
            ..Default::default()
        };
        let c = s.counters();
        assert_eq!(c.len(), 26);
        assert_eq!(c[0], ("puts", 7));
        assert_eq!(*c.last().unwrap(), ("scanned_keys", 9));
    }
}
