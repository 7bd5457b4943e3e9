//! Media traffic accounting (the simulator's `ipmwatch`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::{ThreadCtx, LANES};

/// One counter lane of [`MediaStats`]: the per-op counters of the threads
/// whose [`ThreadCtx::lane`] it is, alone on a cache line so threads on
/// different cores never write-share one.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct MediaLane {
    /// Bytes the callers asked to write.
    pub logical_bytes_written: AtomicU64,
    /// Bytes actually written to media (256B-block inflated).
    pub media_bytes_written: AtomicU64,
    /// Extra media blocks that required an internal read-modify-write.
    pub rmw_blocks: AtomicU64,
    /// Bytes the callers asked to read.
    pub logical_bytes_read: AtomicU64,
    /// Bytes fetched from media (block inflated).
    pub media_bytes_read: AtomicU64,
    /// Number of persist fences.
    pub fences: AtomicU64,
    /// Number of individual line flushes / ntstores issued.
    pub line_persists: AtomicU64,
}

impl MediaLane {
    /// This lane's counters. `crashes` is device-wide, so it reads 0.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            logical_bytes_written: self.logical_bytes_written.load(Ordering::Relaxed),
            media_bytes_written: self.media_bytes_written.load(Ordering::Relaxed),
            rmw_blocks: self.rmw_blocks.load(Ordering::Relaxed),
            logical_bytes_read: self.logical_bytes_read.load(Ordering::Relaxed),
            media_bytes_read: self.media_bytes_read.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            line_persists: self.line_persists.load(Ordering::Relaxed),
            crashes: 0,
        }
    }
}

/// Atomic counters of logical and media-level traffic on one device.
///
/// `media_*` counters measure traffic at the device's media-block
/// granularity (256B for Optane), including read-modify-write inflation of
/// partial-block writes — exactly what Intel's `ipmwatch` reports and what
/// the paper uses in Fig. 17(b)/(e). `logical_*` counters measure the bytes
/// the caller asked for, so `media / logical` is the device-level
/// write/read amplification.
///
/// The per-op counters live in [`LANES`] lanes; an operation bumps the
/// lane of the thread that issued it ([`MediaStats::lane`]) and
/// [`snapshot`](MediaStats::snapshot) sums them.
#[derive(Debug, Default)]
pub struct MediaStats {
    lanes: [MediaLane; LANES],
    /// Number of simulated crashes injected.
    pub crashes: AtomicU64,
}

impl MediaStats {
    /// The lane `ctx`'s operations are counted in.
    #[inline]
    pub fn lane(&self, ctx: &ThreadCtx) -> &MediaLane {
        &self.lanes[ctx.lane()]
    }

    /// Takes a consistent-enough snapshot of all counters, summed over
    /// the lanes.
    ///
    /// Counters are read individually with relaxed ordering; in the
    /// harnesses all traffic-generating threads are joined before
    /// snapshotting.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            crashes: self.crashes.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        };
        for l in self.lanes.iter().map(MediaLane::snapshot) {
            s.logical_bytes_written += l.logical_bytes_written;
            s.media_bytes_written += l.media_bytes_written;
            s.rmw_blocks += l.rmw_blocks;
            s.logical_bytes_read += l.logical_bytes_read;
            s.media_bytes_read += l.media_bytes_read;
            s.fences += l.fences;
            s.line_persists += l.line_persists;
        }
        s
    }

    /// Resets every counter to zero.
    ///
    /// # Warning: racing traffic tears snapshots
    ///
    /// The counters are independent atomics, so `reset()` is **not**
    /// atomic as a whole. If any thread is generating traffic while this
    /// runs, a concurrent or subsequent [`MediaStats::snapshot`] can
    /// observe a *torn* state — e.g. a write's `logical_bytes_written`
    /// increment zeroed but its `media_bytes_written` increment kept,
    /// yielding impossible amplification ratios — and any increments that
    /// land between the per-counter stores are silently attributed to the
    /// wrong phase (see `reset_racing_traffic_tears_snapshots`).
    ///
    /// Only call this while all traffic-generating threads are quiesced.
    /// Phase measurements should instead subtract monotonic snapshots
    /// ([`StatsSnapshot::delta`] or the `Sub` impl), which are safe under
    /// concurrency; the maintenance spans in `chameleon-obs` do exactly
    /// that.
    pub fn reset(&self) {
        for l in &self.lanes {
            l.logical_bytes_written.store(0, Ordering::Relaxed);
            l.media_bytes_written.store(0, Ordering::Relaxed);
            l.rmw_blocks.store(0, Ordering::Relaxed);
            l.logical_bytes_read.store(0, Ordering::Relaxed);
            l.media_bytes_read.store(0, Ordering::Relaxed);
            l.fences.store(0, Ordering::Relaxed);
            l.line_persists.store(0, Ordering::Relaxed);
        }
        self.crashes.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`MediaStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub logical_bytes_written: u64,
    pub media_bytes_written: u64,
    pub rmw_blocks: u64,
    pub logical_bytes_read: u64,
    pub media_bytes_read: u64,
    pub fences: u64,
    pub line_persists: u64,
    pub crashes: u64,
}

impl StatsSnapshot {
    /// Device-level write amplification (media bytes per logical byte).
    pub fn write_amplification(&self) -> f64 {
        if self.logical_bytes_written == 0 {
            0.0
        } else {
            self.media_bytes_written as f64 / self.logical_bytes_written as f64
        }
    }

    /// Device-level read amplification (media bytes per logical byte).
    pub fn read_amplification(&self) -> f64 {
        if self.logical_bytes_read == 0 {
            0.0
        } else {
            self.media_bytes_read as f64 / self.logical_bytes_read as f64
        }
    }

    /// Counter-wise difference `self - earlier` (for per-phase deltas).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            logical_bytes_written: self.logical_bytes_written - earlier.logical_bytes_written,
            media_bytes_written: self.media_bytes_written - earlier.media_bytes_written,
            rmw_blocks: self.rmw_blocks - earlier.rmw_blocks,
            logical_bytes_read: self.logical_bytes_read - earlier.logical_bytes_read,
            media_bytes_read: self.media_bytes_read - earlier.media_bytes_read,
            fences: self.fences - earlier.fences,
            line_persists: self.line_persists - earlier.line_persists,
            crashes: self.crashes - earlier.crashes,
        }
    }
}

/// `later - earlier` phase delta; operator form of [`StatsSnapshot::delta`].
impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, earlier: StatsSnapshot) -> StatsSnapshot {
        self.delta(&earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_ratios() {
        let s = StatsSnapshot {
            logical_bytes_written: 16,
            media_bytes_written: 256,
            logical_bytes_read: 64,
            media_bytes_read: 256,
            ..Default::default()
        };
        assert!((s.write_amplification() - 16.0).abs() < 1e-9);
        assert!((s.read_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_logical_traffic_is_not_a_division_by_zero() {
        let s = StatsSnapshot::default();
        assert_eq!(s.write_amplification(), 0.0);
        assert_eq!(s.read_amplification(), 0.0);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let a = StatsSnapshot {
            logical_bytes_written: 10,
            media_bytes_written: 100,
            fences: 3,
            ..Default::default()
        };
        let b = StatsSnapshot {
            logical_bytes_written: 25,
            media_bytes_written: 180,
            fences: 7,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.logical_bytes_written, 15);
        assert_eq!(d.media_bytes_written, 80);
        assert_eq!(d.fences, 4);
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::with_default_cost()
    }

    #[test]
    fn reset_clears_counters() {
        let m = MediaStats::default();
        m.lane(&ctx()).fences.store(5, Ordering::Relaxed);
        m.lane(&ctx())
            .media_bytes_written
            .store(1024, Ordering::Relaxed);
        m.crashes.store(1, Ordering::Relaxed);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s, StatsSnapshot::default());
    }

    #[test]
    fn sub_operator_matches_delta() {
        let a = StatsSnapshot {
            logical_bytes_written: 10,
            media_bytes_written: 100,
            ..Default::default()
        };
        let b = StatsSnapshot {
            logical_bytes_written: 25,
            media_bytes_written: 180,
            ..Default::default()
        };
        assert_eq!(b - a, b.delta(&a));
        assert_eq!((b - a).media_bytes_written, 80);
    }

    /// Deterministic replay of the race documented on [`MediaStats::reset`]:
    /// a device write bumps `logical_bytes_written` and `media_bytes_written`
    /// as two separate atomic ops, and a `reset()` interleaved between them
    /// leaves a torn state — media traffic with no logical traffic, an
    /// accounting identity no real phase can produce. Snapshot deltas over
    /// the same interleaving stay self-consistent for everything recorded
    /// after the phase boundary. `reset()` itself zeroes every lane.
    #[test]
    fn reset_racing_traffic_tears_snapshots() {
        let counters = |l: &MediaLane| {
            [
                l.logical_bytes_written.load(Ordering::Relaxed),
                l.media_bytes_written.load(Ordering::Relaxed),
                l.rmw_blocks.load(Ordering::Relaxed),
                l.logical_bytes_read.load(Ordering::Relaxed),
                l.media_bytes_read.load(Ordering::Relaxed),
                l.fences.load(Ordering::Relaxed),
                l.line_persists.load(Ordering::Relaxed),
            ]
        };
        let m = MediaStats::default();
        for l in &m.lanes {
            l.logical_bytes_written.fetch_add(1, Ordering::Relaxed);
            l.media_bytes_written.fetch_add(1, Ordering::Relaxed);
            l.rmw_blocks.fetch_add(1, Ordering::Relaxed);
            l.logical_bytes_read.fetch_add(1, Ordering::Relaxed);
            l.media_bytes_read.fetch_add(1, Ordering::Relaxed);
            l.fences.fetch_add(1, Ordering::Relaxed);
            l.line_persists.fetch_add(1, Ordering::Relaxed);
            assert_eq!(counters(l), [1; 7]);
        }
        let c = ctx();
        // First half of a concurrent 16B write (256B media block):
        m.lane(&c)
            .logical_bytes_written
            .fetch_add(16, Ordering::Relaxed);
        // ... `reset()` runs here, racing the writer ...
        m.reset();
        for l in &m.lanes {
            assert_eq!(counters(l), [0; 7], "a lane survived reset()");
        }
        // ... second half of the same write lands after the reset.
        m.lane(&c)
            .media_bytes_written
            .fetch_add(256, Ordering::Relaxed);

        let torn = m.snapshot();
        assert_eq!(torn.logical_bytes_written, 0);
        assert_eq!(torn.media_bytes_written, 256);
        // The torn state breaks the invariant that media writes imply
        // logical writes, so per-phase amplification is garbage (the
        // division guard hides it as 0.0 here).
        assert!(torn.media_bytes_written > 0 && torn.logical_bytes_written == 0);
        assert_eq!(torn.write_amplification(), 0.0);

        // The monotonic-delta discipline over the same boundary: take a
        // snapshot instead of resetting, subtract later. Traffic recorded
        // entirely after the boundary is attributed consistently.
        let m2 = MediaStats::default();
        let l2 = m2.lane(&c);
        l2.logical_bytes_written.fetch_add(16, Ordering::Relaxed);
        let boundary = m2.snapshot();
        l2.logical_bytes_written.fetch_add(32, Ordering::Relaxed);
        l2.media_bytes_written.fetch_add(512, Ordering::Relaxed);
        let phase = m2.snapshot() - boundary;
        assert_eq!(phase.logical_bytes_written, 32);
        assert_eq!(phase.media_bytes_written, 512);
    }
}
