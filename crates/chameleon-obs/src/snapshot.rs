//! The unified snapshot joining counters, media stats, stage aggregates,
//! op-latency summaries, and the journal tail.

use pmem_sim::{Histogram, StatsSnapshot};

use crate::event::Event;
use crate::span::Stage;
use crate::trace::TraceStageSummary;
use crate::window::Window;
use crate::{Obs, OpKind};

/// A named group of `(counter, value)` pairs supplied by the store (e.g.
/// its `StoreMetricsSnapshot` flattened, or the mode controller's state).
/// Keeps the obs crate independent of store-level types.
#[derive(Debug, Clone)]
pub struct CounterSection {
    /// Section name; becomes the JSON key and the Prometheus name infix.
    pub name: &'static str,
    pub counters: Vec<(&'static str, u64)>,
}

/// One stage's share of the run, derived from its span aggregates.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage name, or `"foreground"` for the non-maintenance remainder.
    pub stage: &'static str,
    pub count: u64,
    pub sim_ns: u64,
    pub logical_bytes_written: u64,
    pub media_bytes_written: u64,
    pub media_bytes_read: u64,
    /// Media-over-logical write amplification within the stage.
    pub write_amplification: f64,
    /// This stage's fraction of all media bytes written device-wide.
    pub media_write_share: f64,
}

/// Store-level latency summary for one operation, from the merged
/// per-shard histograms.
#[derive(Debug, Clone)]
pub struct OpSummary {
    pub op: &'static str,
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

/// Everything the observability layer knows, at one instant.
///
/// Serialize with [`ObsSnapshot::to_pretty_json`] or
/// [`ObsSnapshot::to_prometheus`].
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Simulated-clock capture time, ns.
    pub captured_ts: u64,
    /// Whether recording was on (a disabled store still snapshots its
    /// counter sections and media stats).
    pub enabled: bool,
    /// Store-supplied counter sections.
    pub counters: Vec<CounterSection>,
    /// Device-wide media counters since creation.
    pub media: StatsSnapshot,
    pub media_write_amplification: f64,
    pub media_read_amplification: f64,
    /// Six maintenance stages plus the `"foreground"` remainder; the
    /// `media_write_share` fields sum to ~1 once traffic exists.
    pub stages: Vec<StageSummary>,
    /// put/get/delete summaries (ops with zero samples are included).
    pub ops: Vec<OpSummary>,
    /// Retained journal tail, oldest first.
    pub events: Vec<Event>,
    /// Total events ever recorded.
    pub events_total: u64,
    /// Events lost to ring overwrite.
    pub events_dropped: u64,
    /// Windowed telemetry ring, oldest first. Empty unless the embedding
    /// process runs a sampler (the server does; bare stores don't).
    pub windows: Vec<Window>,
    /// Per-trace-stage duration aggregates. Empty unless the embedding
    /// process runs a [`crate::Tracer`].
    pub trace_stages: Vec<TraceStageSummary>,
}

fn op_summary(op: &'static str, h: &Histogram) -> OpSummary {
    OpSummary {
        op,
        count: h.count(),
        mean_ns: h.mean(),
        p50_ns: h.quantile(0.50),
        p99_ns: h.quantile(0.99),
        p999_ns: h.quantile(0.999),
        max_ns: h.max(),
    }
}

pub(crate) fn build(
    obs: &Obs,
    captured_ts: u64,
    counters: Vec<CounterSection>,
    media: StatsSnapshot,
) -> ObsSnapshot {
    let total_media_written = media.media_bytes_written;
    let share = |bytes: u64| {
        if total_media_written == 0 {
            0.0
        } else {
            bytes as f64 / total_media_written as f64
        }
    };

    let mut stages = Vec::with_capacity(Stage::ALL.len() + 1);
    let mut staged_logical = 0u64;
    let mut staged_media_w = 0u64;
    let mut staged_media_r = 0u64;
    for (stage, agg) in obs.stage_aggregates() {
        staged_logical = staged_logical.saturating_add(agg.logical_bytes_written);
        staged_media_w = staged_media_w.saturating_add(agg.media_bytes_written);
        staged_media_r = staged_media_r.saturating_add(agg.media_bytes_read);
        stages.push(StageSummary {
            stage: stage.name(),
            count: agg.count,
            sim_ns: agg.sim_ns,
            logical_bytes_written: agg.logical_bytes_written,
            media_bytes_written: agg.media_bytes_written,
            media_bytes_read: agg.media_bytes_read,
            write_amplification: agg.write_amplification(),
            media_write_share: share(agg.media_bytes_written),
        });
    }
    // Whatever the spans did not claim is foreground traffic (log
    // appends, manifest commits, MemTable persists).
    let fg_logical = media.logical_bytes_written.saturating_sub(staged_logical);
    let fg_media_w = total_media_written.saturating_sub(staged_media_w);
    let fg_media_r = media.media_bytes_read.saturating_sub(staged_media_r);
    stages.push(StageSummary {
        stage: "foreground",
        count: 0,
        sim_ns: 0,
        logical_bytes_written: fg_logical,
        media_bytes_written: fg_media_w,
        media_bytes_read: fg_media_r,
        write_amplification: if fg_logical == 0 {
            0.0
        } else {
            fg_media_w as f64 / fg_logical as f64
        },
        media_write_share: share(fg_media_w),
    });

    let roll = obs.op_rollup();
    let ops = vec![
        op_summary(OpKind::Put.name(), &roll.put),
        op_summary(OpKind::Get.name(), &roll.get),
        op_summary(OpKind::Delete.name(), &roll.delete),
        op_summary(OpKind::Scan.name(), &roll.scan),
        // Not a front-door op, but the same summary shape: how long puts
        // stalled on frozen-queue backpressure (count == stalls recorded).
        op_summary("write_stall", &obs.stall_rollup()),
        // Also not a latency: the keys-returned-per-scan distribution
        // (count == scans recorded, "ns" fields are key counts).
        op_summary("scan_keys", &obs.scan_keys_rollup()),
    ];

    ObsSnapshot {
        captured_ts,
        enabled: obs.enabled(),
        counters,
        media,
        media_write_amplification: media.write_amplification(),
        media_read_amplification: media.read_amplification(),
        stages,
        ops,
        events: obs.journal().events(),
        events_total: obs.journal().total(),
        events_dropped: obs.journal().dropped(),
        windows: Vec::new(),
        trace_stages: Vec::new(),
    }
}

impl ObsSnapshot {
    /// Looks up a stage row by name (`"flush"`, …, `"foreground"`).
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Looks up an op row by name (`"put"`/`"get"`/`"delete"`/`"scan"`).
    pub fn op(&self, name: &str) -> Option<&OpSummary> {
        self.ops.iter().find(|o| o.op == name)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use pmem_sim::{MediaStats, ThreadCtx};

    use super::*;
    use crate::{EventKind, ObsConfig};

    fn sample_obs() -> (Obs, MediaStats) {
        let obs = Obs::new(ObsConfig::on());
        let dev = MediaStats::default();
        let ctx = ThreadCtx::with_default_cost();
        let lane = dev.lane(&ctx);
        // Foreground traffic: 1000 logical / 2000 media.
        lane.logical_bytes_written
            .fetch_add(1000, Ordering::Relaxed);
        lane.media_bytes_written.fetch_add(2000, Ordering::Relaxed);
        // A flush span claiming 500 logical / 1000 media on top.
        let span = obs.span_start(Stage::Flush, 100, lane);
        lane.logical_bytes_written.fetch_add(500, Ordering::Relaxed);
        lane.media_bytes_written.fetch_add(1000, Ordering::Relaxed);
        obs.span_end(span, 250, lane);
        obs.record_event(
            260,
            EventKind::MemtableFlush {
                shard: 0,
                slots: 32,
                media_bytes: 1000,
            },
        );
        let other = ThreadCtx::for_thread(std::sync::Arc::clone(&ctx.cost), ctx.thread_id + 1);
        obs.record_op(&ctx, OpKind::Put, 120);
        obs.record_op(&other, OpKind::Put, 480);
        obs.record_op(&ctx, OpKind::Get, 90);
        (obs, dev)
    }

    #[test]
    fn stage_shares_partition_media_writes() {
        let (obs, dev) = sample_obs();
        let snap = obs.snapshot(300, Vec::new(), dev.snapshot());
        let flush = snap.stage("flush").expect("flush row");
        assert_eq!(flush.count, 1);
        assert_eq!(flush.sim_ns, 150);
        assert_eq!(flush.media_bytes_written, 1000);
        let fg = snap.stage("foreground").expect("foreground row");
        assert_eq!(fg.media_bytes_written, 2000);
        let total_share: f64 = snap.stages.iter().map(|s| s.media_write_share).sum();
        assert!(
            (total_share - 1.0).abs() < 1e-9,
            "shares sum to {total_share}"
        );
        assert_eq!(snap.events_total, 1);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn op_summaries_roll_up_across_shards() {
        let (obs, dev) = sample_obs();
        let snap = obs.snapshot(300, Vec::new(), dev.snapshot());
        let put = snap.op("put").expect("put row");
        assert_eq!(put.count, 2);
        assert!(put.p99_ns >= 480, "p99 {} below slowest sample", put.p99_ns);
        assert!(put.max_ns >= 480);
        let del = snap.op("delete").expect("delete row");
        assert_eq!(del.count, 0);
    }
}
