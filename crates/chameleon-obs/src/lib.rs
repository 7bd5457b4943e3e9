//! Unified observability layer for the ChameleonDB reproduction.
//!
//! Three ingestion surfaces, one export surface:
//!
//! * an **event journal** ([`Journal`]): a bounded, lock-cheap ring buffer
//!   of structured [`Event`]s (mode transitions, MemTable flushes, WIM
//!   merges, compactions, ABI dumps/rebuilds, simulated crashes), each
//!   stamped with the simulated clock and carrying payload fields;
//! * **maintenance spans** ([`Stage`] / [`SpanStart`]): scoped measurements
//!   around the flush/compaction/dump paths capturing simulated duration
//!   and a [`StatsSnapshot`] delta, so device write amplification is
//!   attributed per maintenance stage (Fig. 17(b)/(e) style) from one run;
//! * **per-op latency histograms** ([`OpHists`]): put/get/delete/scan
//!   [`Histogram`]s per thread lane (`pmem_sim::LANES` of them, picked by
//!   the recording context's `lane()`), merged on demand into
//!   store-level p50/p99/p999;
//! * **service-layer batch spans** ([`ServerObs`]): front-end counters and
//!   per-group-commit-batch histograms (batch size, queue depth, commit
//!   latency, fences and media bytes per batch) recorded by a network
//!   server and exported as one extra counter section.
//!
//! [`Obs::snapshot`] unifies all three with caller-provided counter
//! sections into an [`ObsSnapshot`], serializable as pretty JSON or
//! Prometheus text exposition (see [`snapshot`] and [`export`]).
//!
//! The layer is strictly below the store: it depends only on `pmem-sim`
//! types, and the store assembles its own counters into sections. With
//! [`ObsConfig::off`] every recording entry point returns after one branch
//! and the constructor allocates no lanes.

pub mod event;
pub mod export;
pub mod server;
pub mod snapshot;
pub mod span;
pub mod trace;
pub mod window;

use parking_lot::Mutex;
use pmem_sim::{Histogram, MediaLane, StatsSnapshot, ThreadCtx, LANES};

pub use event::{Event, EventKind, Journal};
pub use server::{BatchSpan, ServerObs};
pub use snapshot::{CounterSection, ObsSnapshot, OpSummary, StageSummary};
pub use span::{SpanStart, Stage, StageAgg};
pub use trace::{SpanRecord, TraceConfig, TracePayload, TraceSpan, TraceStageSummary, Tracer};
pub use window::{DeltaTracker, ServerTickCounters, Window, WindowOpStat, WindowedSeries};

/// Observability configuration, carried inside the store config.
///
/// Deliberately *not* part of any persisted configuration blob: turning
/// observability on or off never changes on-media geometry, so a store
/// created with one setting can be recovered with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false, every recording call is a single branch
    /// and no per-lane state is allocated.
    pub enabled: bool,
    /// Ring-buffer capacity of the event journal, in events. Older events
    /// are overwritten (and counted as dropped) once full.
    pub journal_capacity: usize,
}

impl ObsConfig {
    /// Everything off; the zero-overhead default.
    pub fn off() -> Self {
        Self {
            enabled: false,
            journal_capacity: 0,
        }
    }

    /// Everything on with the default journal capacity (256 events).
    pub fn on() -> Self {
        Self {
            enabled: true,
            journal_capacity: 256,
        }
    }

    /// On, with an explicit journal capacity.
    pub fn with_capacity(journal_capacity: usize) -> Self {
        Self {
            enabled: true,
            journal_capacity,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Which front-door operation a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Put,
    Get,
    Delete,
    Scan,
}

impl OpKind {
    /// Stable lowercase name used in exports ("put"/"get"/"delete"/"scan").
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Delete => "delete",
            OpKind::Scan => "scan",
        }
    }
}

/// Put/get/delete/scan latency histograms for one thread lane (or a
/// rollup).
#[derive(Debug, Clone, Default)]
pub struct OpHists {
    pub put: Histogram,
    pub get: Histogram,
    pub delete: Histogram,
    pub scan: Histogram,
}

impl OpHists {
    /// Folds `other` into `self` (used for the store-level rollup).
    pub fn merge(&mut self, other: &OpHists) {
        self.put.merge(&other.put);
        self.get.merge(&other.get);
        self.delete.merge(&other.delete);
        self.scan.merge(&other.scan);
    }

    fn hist_mut(&mut self, op: OpKind) -> &mut Histogram {
        match op {
            OpKind::Put => &mut self.put,
            OpKind::Get => &mut self.get,
            OpKind::Delete => &mut self.delete,
            OpKind::Scan => &mut self.scan,
        }
    }
}

/// The observability hub owned by a store instance.
///
/// All entry points are `&self` and internally synchronized; shards and
/// front-door operations record concurrently.
pub struct Obs {
    cfg: ObsConfig,
    journal: Journal,
    stages: span::StageTable,
    /// One set per thread lane: threads in different lanes never share a
    /// lock on the op path.
    op_hists: Vec<Mutex<OpHists>>,
    /// Durations puts spent stalled on background-maintenance
    /// backpressure (frozen-MemTable queue at capacity). Store-level, not
    /// per-shard: stalls are rare by design, so one lock suffices.
    stall_hist: Mutex<Histogram>,
    /// Keys returned per range scan. Store-level like the stall
    /// histogram.
    scan_keys_hist: Mutex<Histogram>,
    /// Stage currently inside an open span (0 = none, else index + 1).
    /// Spans never nest (flush/compaction entry points start theirs after
    /// any nested maintenance), so one slot suffices; fault-injection
    /// harnesses read it after an unwind to attribute the crash point.
    active_stage: std::sync::atomic::AtomicU8,
}

impl Obs {
    /// Builds the hub; op histograms get one lane per `pmem_sim::LANES`.
    pub fn new(cfg: ObsConfig) -> Self {
        let (cap, lanes) = if cfg.enabled {
            (cfg.journal_capacity, LANES)
        } else {
            (0, 0)
        };
        Self {
            cfg,
            journal: Journal::new(cap),
            stages: span::StageTable::new(),
            op_hists: (0..lanes).map(|_| Mutex::new(OpHists::default())).collect(),
            stall_hist: Mutex::new(Histogram::default()),
            scan_keys_hist: Mutex::new(Histogram::default()),
            active_stage: std::sync::atomic::AtomicU8::new(0),
        }
    }

    /// A hub that records nothing (equivalent to `new(ObsConfig::off())`).
    pub fn disabled() -> Self {
        Self::new(ObsConfig::off())
    }

    /// Whether recording is on. All recording calls are no-ops when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// The event journal (always present; zero-capacity when disabled).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Appends an event stamped `ts` (simulated ns). Timestamps are
    /// clamped monotonically non-decreasing by the journal; callers
    /// without a clock may pass 0 and inherit the previous stamp.
    #[inline]
    pub fn record_event(&self, ts: u64, kind: EventKind) {
        if !self.cfg.enabled {
            return;
        }
        self.journal.record(ts, kind);
    }

    /// Opens a maintenance span: captures the start timestamp and a
    /// monotonic [`StatsSnapshot`] of `media`, the counter lane of the
    /// thread running the span. Returns `None` (and reads nothing) when
    /// disabled — pass the result straight to [`Obs::span_end`] with the
    /// same lane.
    ///
    /// One lane, not the whole device: maintenance passes run
    /// concurrently on different workers, and device-wide deltas would
    /// have each span claim the others' bytes, so the stage shares would
    /// sum past 1. Threads that share the lane (ids equal modulo
    /// `pmem_sim::LANES`) still leak their traffic into the span.
    ///
    /// Spans deliberately snapshot-and-subtract rather than calling
    /// `MediaStats::reset`: reset racing concurrent traffic tears the
    /// counters (see the warning there), while deltas of monotonic
    /// snapshots are safe under concurrency.
    #[inline]
    pub fn span_start(&self, stage: Stage, ts: u64, media: &MediaLane) -> Option<SpanStart> {
        if !self.cfg.enabled {
            return None;
        }
        self.active_stage.store(
            stage.index() as u8 + 1,
            std::sync::atomic::Ordering::Relaxed,
        );
        Some(SpanStart {
            stage,
            ts,
            media: media.snapshot(),
        })
    }

    /// Closes a span opened by [`Obs::span_start`], folding its duration
    /// and media-counter delta into the per-stage aggregates. Returns the
    /// media delta so callers can embed byte counts in journal events.
    /// No-op (returns `None`) if the span was never opened.
    pub fn span_end(
        &self,
        span: Option<SpanStart>,
        end_ts: u64,
        media: &MediaLane,
    ) -> Option<StatsSnapshot> {
        let span = span?;
        self.active_stage
            .store(0, std::sync::atomic::Ordering::Relaxed);
        let delta = media.snapshot().delta(&span.media);
        self.stages
            .add(span.stage, end_ts.saturating_sub(span.ts), &delta);
        Some(delta)
    }

    /// The stage whose span is currently open, if any. A span abandoned by
    /// an unwind (fault injection) stays visible here until the next span
    /// opens, which is what lets a crash-matrix driver attribute the crash
    /// point to a maintenance stage.
    pub fn current_stage(&self) -> Option<Stage> {
        match self.active_stage.load(std::sync::atomic::Ordering::Relaxed) {
            0 => None,
            v => Stage::ALL.get(v as usize - 1).copied(),
        }
    }

    /// Records one operation latency sample in the histograms of `ctx`'s
    /// thread lane.
    #[inline]
    pub fn record_op(&self, ctx: &ThreadCtx, op: OpKind, latency_ns: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.op_hists[ctx.lane()]
            .lock()
            .hist_mut(op)
            .record(latency_ns);
    }

    /// Records one write-stall duration in wall-clock ns (a put that
    /// waited for the background-maintenance pipeline to retire a frozen
    /// MemTable).
    #[inline]
    pub fn record_stall(&self, stalled_ns: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.stall_hist.lock().record(stalled_ns);
    }

    /// Copy of the write-stall duration histogram.
    pub fn stall_rollup(&self) -> Histogram {
        self.stall_hist.lock().clone()
    }

    /// Records the result-set size of one range scan.
    #[inline]
    pub fn record_scan_keys(&self, keys: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.scan_keys_hist.lock().record(keys);
    }

    /// Copy of the keys-returned-per-scan histogram.
    pub fn scan_keys_rollup(&self) -> Histogram {
        self.scan_keys_hist.lock().clone()
    }

    /// Merges every lane's histograms into one store-level [`OpHists`].
    pub fn op_rollup(&self) -> OpHists {
        let mut out = OpHists::default();
        for lane in &self.op_hists {
            out.merge(&lane.lock());
        }
        out
    }

    /// Per-stage aggregates accumulated so far, in [`Stage::ALL`] order.
    pub fn stage_aggregates(&self) -> Vec<(Stage, StageAgg)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.stages.get(s)))
            .collect()
    }

    /// Builds the unified snapshot: caller-provided counter sections plus
    /// the device-level media snapshot, joined with the stage aggregates,
    /// merged op histograms, and the retained journal tail.
    pub fn snapshot(
        &self,
        captured_ts: u64,
        counters: Vec<CounterSection>,
        media: StatsSnapshot,
    ) -> ObsSnapshot {
        snapshot::build(self, captured_ts, counters, media)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_in_lane(thread_id: usize) -> ThreadCtx {
        ThreadCtx::for_thread(
            std::sync::Arc::new(pmem_sim::CostModel::default()),
            thread_id,
        )
    }

    #[test]
    fn off_config_allocates_no_lanes_and_records_nothing() {
        let obs = Obs::new(ObsConfig::off());
        assert!(!obs.enabled());
        assert_eq!(obs.op_hists.len(), 0);
        obs.record_op(&ctx_in_lane(3), OpKind::Put, 100);
        obs.record_event(5, EventKind::Crash { crashes: 1 });
        let dev = pmem_sim::MediaStats::default();
        let lane = dev.lane(&pmem_sim::ThreadCtx::with_default_cost());
        let span = obs.span_start(Stage::Flush, 0, lane);
        assert!(span.is_none());
        assert!(obs.span_end(span, 10, lane).is_none());
        assert_eq!(obs.journal().total(), 0);
        assert_eq!(obs.op_rollup().put.count(), 0);
        assert!(obs.stage_aggregates().iter().all(|(_, a)| a.count == 0));
    }

    #[test]
    fn op_rollup_merges_across_lanes() {
        let obs = Obs::new(ObsConfig::on());
        assert_eq!(obs.op_hists.len(), LANES);
        obs.record_op(&ctx_in_lane(0), OpKind::Put, 100);
        obs.record_op(&ctx_in_lane(1), OpKind::Put, 300);
        obs.record_op(&ctx_in_lane(2), OpKind::Get, 50);
        // Thread ids past the lane count wrap onto a lane, not a panic.
        obs.record_op(&ctx_in_lane(LANES + 3), OpKind::Delete, 7);
        let roll = obs.op_rollup();
        assert_eq!(roll.put.count(), 2);
        assert_eq!(roll.get.count(), 1);
        assert_eq!(roll.delete.count(), 1);
        assert!(roll.put.max() >= 300);
    }

    #[test]
    fn threads_in_different_lanes_record_concurrently() {
        let obs = Obs::new(ObsConfig::on());
        let per_thread = 10_000u64;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for thread_id in [1, 2] {
                let (obs, start) = (&obs, &start);
                s.spawn(move || {
                    let ctx = ctx_in_lane(thread_id);
                    start.wait();
                    for i in 0..per_thread {
                        obs.record_op(&ctx, OpKind::Put, 100 + i);
                    }
                });
            }
        });
        assert_eq!(obs.op_hists[1].lock().put.count(), per_thread);
        assert_eq!(obs.op_hists[2].lock().put.count(), per_thread);
        assert_eq!(obs.op_rollup().put.count(), 2 * per_thread);
    }

    #[test]
    fn spans_attribute_media_deltas_per_stage() {
        let obs = Obs::new(ObsConfig::on());
        let dev = pmem_sim::MediaStats::default();
        let lane = dev.lane(&pmem_sim::ThreadCtx::with_default_cost());
        let span = obs.span_start(Stage::Flush, 1000, lane);
        lane.logical_bytes_written
            .fetch_add(256, std::sync::atomic::Ordering::Relaxed);
        lane.media_bytes_written
            .fetch_add(512, std::sync::atomic::Ordering::Relaxed);
        // Another thread's traffic meanwhile is not the span's.
        let other = dev.lane(&pmem_sim::ThreadCtx::for_thread(
            std::sync::Arc::new(pmem_sim::CostModel::default()),
            1,
        ));
        other
            .media_bytes_written
            .fetch_add(4096, std::sync::atomic::Ordering::Relaxed);
        let delta = obs.span_end(span, 1500, lane).expect("span closed");
        assert_eq!(delta.logical_bytes_written, 256);
        assert_eq!(delta.media_bytes_written, 512);
        let aggs = obs.stage_aggregates();
        let flush = &aggs
            .iter()
            .find(|(s, _)| *s == Stage::Flush)
            .expect("flush stage")
            .1;
        assert_eq!(flush.count, 1);
        assert_eq!(flush.sim_ns, 500);
        assert_eq!(flush.media_bytes_written, 512);
        // Other stages untouched.
        let dump = &aggs
            .iter()
            .find(|(s, _)| *s == Stage::AbiDump)
            .expect("dump stage")
            .1;
        assert_eq!(dump.count, 0);
    }
}
