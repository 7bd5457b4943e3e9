//! Service-layer observability: front-end counters plus per-batch
//! group-commit instrumentation.
//!
//! The maintenance spans of [`crate::span`] deliberately never nest, and a
//! group-commit batch *encloses* whatever flush/compaction spans its
//! inserts trigger — so the service layer gets its own span type instead
//! of a new [`crate::Stage`]: a [`BatchSpan`] captures the simulated clock
//! and a monotonic device snapshot at batch start, and closing it folds
//! the batch's size, commit latency, queue depth, and media/fence deltas
//! into histograms and counters. Everything exports as one extra
//! [`CounterSection`] through the existing JSON/Prometheus snapshot path,
//! so a server needs no exporter changes of its own.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pmem_sim::{Histogram, MediaStats, StatsSnapshot};

use crate::snapshot::CounterSection;

/// Open measurement over one group-commit batch (see
/// [`ServerObs::batch_start`]).
#[derive(Debug)]
pub struct BatchSpan {
    start_ns: u64,
    media: StatsSnapshot,
}

/// Per-batch histograms behind one short mutex (committers record once per
/// batch, not per op, so contention is negligible).
#[derive(Debug, Default)]
struct BatchHists {
    /// Ops per committed batch.
    batch_size: Histogram,
    /// Lane submission-queue depth sampled when the batch was drained.
    queue_depth: Histogram,
    /// Simulated ns from batch start to post-fence ack.
    commit_ns: Histogram,
}

/// Counters and per-batch histograms for a network front-end.
///
/// All entry points are `&self` and internally synchronized; connection
/// threads and committers record concurrently. The struct lives in the
/// observability crate (not the server) so the export schema stays in one
/// place, next to the sections it joins.
#[derive(Debug, Default)]
pub struct ServerObs {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections closed (client EOF, protocol error, or shutdown).
    pub disconnects: AtomicU64,
    /// Requests decoded off the wire.
    pub requests: AtomicU64,
    /// GET requests served (inline, lock-free read path).
    pub gets: AtomicU64,
    /// SCAN requests served (inline, under one epoch pin).
    pub scans: AtomicU64,
    /// PUT requests submitted to the commit queue.
    pub puts: AtomicU64,
    /// DELETE requests submitted to the commit queue.
    pub deletes: AtomicU64,
    /// SYNC barrier requests.
    pub syncs: AtomicU64,
    /// STATS requests served.
    pub stats_reqs: AtomicU64,
    /// MODE requests served.
    pub mode_reqs: AtomicU64,
    /// TRACE (span-dump) requests served.
    pub trace_reqs: AtomicU64,
    /// Writes refused with RETRY because the commit queue was full.
    pub retries: AtomicU64,
    /// Connections dropped for an undecodable frame.
    pub protocol_errors: AtomicU64,
    /// Connections shed because the client stopped reading its replies
    /// (bounded response queue overflowed).
    pub slow_consumer_disconnects: AtomicU64,
    /// Connections shed for exceeding the idle/half-open timeout.
    pub idle_disconnects: AtomicU64,
    /// Non-durable writes acked at enqueue (before their batch's fence).
    pub early_acks: AtomicU64,
    /// Batches committed.
    pub batches: AtomicU64,
    /// Write ops carried by committed batches.
    pub batched_ops: AtomicU64,
    /// Durable acks released after a batch fence.
    pub acks: AtomicU64,
    /// Device fences issued while committing batches.
    pub commit_fences: AtomicU64,
    /// Media bytes written while committing batches.
    pub commit_media_bytes: AtomicU64,
    /// Partial-block read-modify-writes charged while committing batches.
    pub commit_rmw_blocks: AtomicU64,
    hists: Mutex<BatchHists>,
}

impl ServerObs {
    /// A fresh, all-zero instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to `counter` (relaxed; these are statistics, not fences).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a span over one group-commit batch: captures the committer's
    /// simulated clock and a monotonic media snapshot. Snapshot-and-delta,
    /// never `MediaStats::reset` — concurrent traffic would tear a reset.
    pub fn batch_start(&self, now_ns: u64, media: &MediaStats) -> BatchSpan {
        BatchSpan {
            start_ns: now_ns,
            media: media.snapshot(),
        }
    }

    /// Closes a batch span after the batch's fence: `ops` write ops were
    /// committed, `durable_acks` of them released durable acks, and the
    /// commit queue held `queue_depth` further submissions when the batch
    /// was drained. Returns the media delta attributed to the batch (the
    /// committer's appends plus any maintenance they triggered).
    pub fn batch_end(
        &self,
        span: BatchSpan,
        now_ns: u64,
        media: &MediaStats,
        ops: u64,
        durable_acks: u64,
        queue_depth: u64,
    ) -> StatsSnapshot {
        let delta = media.snapshot().delta(&span.media);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_ops.fetch_add(ops, Ordering::Relaxed);
        self.acks.fetch_add(durable_acks, Ordering::Relaxed);
        self.commit_fences
            .fetch_add(delta.fences, Ordering::Relaxed);
        self.commit_media_bytes
            .fetch_add(delta.media_bytes_written, Ordering::Relaxed);
        self.commit_rmw_blocks
            .fetch_add(delta.rmw_blocks, Ordering::Relaxed);
        let mut h = self.hists.lock();
        h.batch_size.record(ops);
        h.queue_depth.record(queue_depth);
        h.commit_ns.record(now_ns.saturating_sub(span.start_ns));
        delta
    }

    /// Acks released per commit fence, scaled by 1000 (integer export:
    /// 1000 = one ack per fence; group commit pushes this well above
    /// 1000 while batch-of-1 pins it at ~1000).
    pub fn acks_per_fence_milli(&self) -> u64 {
        (self.acks.load(Ordering::Relaxed) * 1000)
            .checked_div(self.commit_fences.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Flattens everything into the `"server"` counter section consumed by
    /// [`crate::Obs::snapshot`] — one call site, and the section shows up
    /// in both the JSON and Prometheus renderings automatically.
    pub fn section(&self) -> CounterSection {
        let h = self.hists.lock();
        CounterSection {
            name: "server",
            counters: vec![
                ("connections", self.connections.load(Ordering::Relaxed)),
                ("disconnects", self.disconnects.load(Ordering::Relaxed)),
                ("requests", self.requests.load(Ordering::Relaxed)),
                ("gets", self.gets.load(Ordering::Relaxed)),
                ("scans", self.scans.load(Ordering::Relaxed)),
                ("puts", self.puts.load(Ordering::Relaxed)),
                ("deletes", self.deletes.load(Ordering::Relaxed)),
                ("syncs", self.syncs.load(Ordering::Relaxed)),
                ("stats_reqs", self.stats_reqs.load(Ordering::Relaxed)),
                ("mode_reqs", self.mode_reqs.load(Ordering::Relaxed)),
                ("trace_reqs", self.trace_reqs.load(Ordering::Relaxed)),
                ("retries", self.retries.load(Ordering::Relaxed)),
                (
                    "protocol_errors",
                    self.protocol_errors.load(Ordering::Relaxed),
                ),
                (
                    "slow_consumer_disconnects",
                    self.slow_consumer_disconnects.load(Ordering::Relaxed),
                ),
                (
                    "idle_disconnects",
                    self.idle_disconnects.load(Ordering::Relaxed),
                ),
                ("early_acks", self.early_acks.load(Ordering::Relaxed)),
                ("batches", self.batches.load(Ordering::Relaxed)),
                ("batched_ops", self.batched_ops.load(Ordering::Relaxed)),
                ("acks", self.acks.load(Ordering::Relaxed)),
                ("commit_fences", self.commit_fences.load(Ordering::Relaxed)),
                (
                    "commit_media_bytes",
                    self.commit_media_bytes.load(Ordering::Relaxed),
                ),
                (
                    "commit_rmw_blocks",
                    self.commit_rmw_blocks.load(Ordering::Relaxed),
                ),
                ("acks_per_fence_milli", self.acks_per_fence_milli()),
                ("batch_size_p50", h.batch_size.median()),
                ("batch_size_p99", h.batch_size.quantile(0.99)),
                ("batch_size_max", h.batch_size.max()),
                ("queue_depth_p50", h.queue_depth.median()),
                ("queue_depth_p99", h.queue_depth.quantile(0.99)),
                ("queue_depth_max", h.queue_depth.max()),
                ("commit_ns_p50", h.commit_ns.median()),
                ("commit_ns_p99", h.commit_ns.quantile(0.99)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use pmem_sim::ThreadCtx;

    use super::*;

    #[test]
    fn batch_span_attributes_media_and_fences() {
        let obs = ServerObs::new();
        let media = MediaStats::default();
        let lane = media.lane(&ThreadCtx::with_default_cost());
        let span = obs.batch_start(1_000, &media);
        lane.media_bytes_written.fetch_add(512, Ordering::Relaxed);
        lane.fences.fetch_add(1, Ordering::Relaxed);
        lane.rmw_blocks.fetch_add(2, Ordering::Relaxed);
        let delta = obs.batch_end(span, 1_750, &media, 8, 8, 3);
        assert_eq!(delta.media_bytes_written, 512);
        assert_eq!(delta.fences, 1);
        assert_eq!(obs.batches.load(Ordering::Relaxed), 1);
        assert_eq!(obs.batched_ops.load(Ordering::Relaxed), 8);
        assert_eq!(obs.commit_fences.load(Ordering::Relaxed), 1);
        assert_eq!(obs.commit_rmw_blocks.load(Ordering::Relaxed), 2);
        assert_eq!(obs.acks_per_fence_milli(), 8_000);
        let h = obs.hists.lock();
        assert_eq!(h.batch_size.max(), 8);
        assert_eq!(h.queue_depth.max(), 3);
        assert_eq!(h.commit_ns.max(), 750);
    }

    #[test]
    fn section_exports_every_counter_with_stable_names() {
        let obs = ServerObs::new();
        ServerObs::bump(&obs.connections);
        ServerObs::bump(&obs.retries);
        let sec = obs.section();
        assert_eq!(sec.name, "server");
        let get = |n: &str| {
            sec.counters
                .iter()
                .find(|(name, _)| *name == n)
                .unwrap_or_else(|| panic!("missing counter {n}"))
                .1
        };
        assert_eq!(get("connections"), 1);
        assert_eq!(get("retries"), 1);
        assert_eq!(get("batches"), 0);
        assert_eq!(get("acks_per_fence_milli"), 0);
        // Histogram-derived entries exist even before any batch.
        assert_eq!(get("batch_size_p99"), 0);
        assert_eq!(get("queue_depth_max"), 0);
    }

    #[test]
    fn acks_per_fence_reflects_amortization() {
        let obs = ServerObs::new();
        let media = MediaStats::default();
        let lane = media.lane(&ThreadCtx::with_default_cost());
        // Four batches of 16 durable ops, one fence each.
        for _ in 0..4 {
            let span = obs.batch_start(0, &media);
            lane.fences.fetch_add(1, Ordering::Relaxed);
            obs.batch_end(span, 10, &media, 16, 16, 0);
        }
        assert_eq!(obs.acks_per_fence_milli(), 16_000);
    }
}
