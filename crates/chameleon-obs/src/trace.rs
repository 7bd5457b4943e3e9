//! Sampled end-to-end request tracing.
//!
//! A [`Tracer`] hands out [`TraceSpan`]s for a configurable fraction of
//! requests (1 in [`TraceConfig::sample_every`]); clients can also force a
//! span for one specific request via the wire-protocol trace flag. Each
//! thread that touches the request **stamps** the span with a named stage
//! timestamp (decode, lane-enqueue, batch-seal, engine stages, fence,
//! ack-write). When the final stage completes, the span folds into:
//!
//! * per-stage **duration histograms** (the gap between consecutive
//!   stamps), summarized by [`Tracer::stage_summaries`]; and
//! * a bounded **ring of [`SpanRecord`]s** — complete per-request
//!   decompositions, exportable as Chrome `trace_event` JSON via
//!   [`chrome_trace_json`] or shipped over the wire as a [`TracePayload`]
//!   in the binary TRACE response (`kvserver::proto`).
//!
//! Timestamps are **wall-clock nanoseconds** from a process-wide epoch
//! ([`now_ns`]), not the simulated per-thread clocks: a span crosses
//! I/O worker and committer threads, whose simulated clocks are not
//! mutually comparable, while one wall epoch is. Stage durations are gaps
//! between *consecutive* stamps, so they always sum exactly to the span
//! total — a traced request's latency is fully accounted for by
//! construction. Journal events keep their simulated stamps and are
//! rendered on a separate process track in the Chrome export.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use pmem_sim::Histogram;

use crate::event::Event;
use crate::export::json_str;
use crate::snapshot::CounterSection;

/// Wall-clock nanoseconds since the first call in this process.
///
/// Monotonic (backed by [`Instant`]) and comparable across threads, which
/// per-thread simulated clocks are not.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tracing configuration, carried inside the server config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one request in `sample_every` (0 disables rate sampling;
    /// client-forced spans still work at 0).
    pub sample_every: u64,
    /// Completed spans retained in the export ring.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Rate sampling off (forced spans still record).
    pub fn off() -> Self {
        Self {
            sample_every: 0,
            ring_capacity: 256,
        }
    }

    /// Sample one request in `n` with the default ring (256 spans).
    pub fn sampled(n: u64) -> Self {
        Self {
            sample_every: n,
            ring_capacity: 256,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One in-flight traced request. Shared as `Arc` between the threads that
/// stamp it; cheap interior mutability, no allocation per stamp beyond the
/// stage vector's growth.
#[derive(Debug)]
pub struct TraceSpan {
    /// Unique span id (monotonic per tracer).
    pub id: u64,
    /// Operation name ("put"/"get"/"delete"/...).
    pub op: &'static str,
    /// The request's key (0 where not applicable).
    pub key: u64,
    /// Wall-clock birth stamp ([`now_ns`]).
    pub start_ns: u64,
    /// Whether the client forced this span via the wire trace flag.
    pub forced: bool,
    completed: AtomicBool,
    note: Mutex<Option<&'static str>>,
    stages: Mutex<Vec<(&'static str, u64)>>,
}

impl TraceSpan {
    fn new(id: u64, op: &'static str, key: u64, start_ns: u64, forced: bool) -> Self {
        Self {
            id,
            op,
            key,
            start_ns,
            forced,
            completed: AtomicBool::new(false),
            note: Mutex::new(None),
            stages: Mutex::new(Vec::with_capacity(8)),
        }
    }

    /// Stamps stage `name` at the current wall clock.
    #[inline]
    pub fn stamp(&self, name: &'static str) {
        self.stamp_at(name, now_ns());
    }

    /// Stamps stage `name` at an explicit [`now_ns`]-domain timestamp.
    /// Ignored once the span has completed (e.g. engine stages arriving
    /// after an early non-durable ack already sealed the record).
    pub fn stamp_at(&self, name: &'static str, ts: u64) {
        if self.completed.load(Ordering::Acquire) {
            return;
        }
        self.stages.lock().push((name, ts));
    }

    /// Attaches a short annotation (e.g. which level served a GET).
    /// Last write wins; ignored after completion.
    pub fn annotate(&self, what: &'static str) {
        if self.completed.load(Ordering::Acquire) {
            return;
        }
        *self.note.lock() = Some(what);
    }
}

/// A completed span: stage *durations* (consecutive-stamp gaps, so they
/// sum exactly to `total_ns`) plus identity. `String` fields so records
/// decoded off the wire and records built locally share one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub op: String,
    pub key: u64,
    /// Birth stamp in the serving process's [`now_ns`] domain.
    pub start_ns: u64,
    /// First stamp → last stamp, == the sum of all stage durations.
    pub total_ns: u64,
    /// Whether the client forced the span.
    pub forced: bool,
    /// Annotation ("" if none), e.g. the GET hit level.
    pub note: String,
    /// `(stage, duration_ns)` in causal order.
    pub stages: Vec<(String, u64)>,
}

impl SpanRecord {
    /// Duration of one named stage, if present.
    pub fn stage_ns(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|(n, _)| n == name).map(|&(_, d)| d)
    }

    /// Sum of all stage durations (== `total_ns` for locally built
    /// records; consumers of received spans use this to validate them).
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, d)| d).sum()
    }
}

/// Aggregate of one stage across all completed spans.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStageSummary {
    pub stage: &'static str,
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// The tracing hub owned by a server: sampling decision, per-stage
/// duration histograms, and the bounded ring of completed spans.
pub struct Tracer {
    cfg: TraceConfig,
    sample_seq: AtomicU64,
    next_id: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
    stage_hists: Mutex<Vec<(&'static str, Histogram)>>,
}

impl Tracer {
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            cfg,
            sample_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            stage_hists: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that rate-samples nothing (forced spans still record).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::off())
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Rate-sampling decision: every `sample_every`-th call starts a span.
    #[inline]
    pub fn sample(&self, op: &'static str, key: u64) -> Option<Arc<TraceSpan>> {
        if self.cfg.sample_every == 0 {
            return None;
        }
        let n = self.sample_seq.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.cfg.sample_every) {
            return None;
        }
        Some(self.start(op, key, false))
    }

    /// Unconditionally starts a span (the wire trace flag lands here).
    pub fn force(&self, op: &'static str, key: u64) -> Arc<TraceSpan> {
        self.start(op, key, true)
    }

    fn start(&self, op: &'static str, key: u64, forced: bool) -> Arc<TraceSpan> {
        self.started.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        Arc::new(TraceSpan::new(id, op, key, now_ns(), forced))
    }

    /// Seals a span: converts its stamps into stage durations, folds them
    /// into the per-stage histograms, and retains the record in the ring.
    /// Idempotent — later calls (and later stamps) are ignored.
    pub fn complete(&self, span: &TraceSpan) {
        if span.completed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        let stamps = span.stages.lock().clone();
        let note = span.note.lock().unwrap_or("");
        let mut stages = Vec::with_capacity(stamps.len());
        let mut prev = span.start_ns;
        {
            let mut hists = self.stage_hists.lock();
            for (name, ts) in stamps {
                // Clamp: cross-thread stamps are causally ordered (each
                // handoff is a channel send) but defend against torn
                // clocks anyway.
                let ts = ts.max(prev);
                let dur = ts - prev;
                prev = ts;
                stages.push((name.to_string(), dur));
                match hists.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, h)) => h.record(dur),
                    None => {
                        let mut h = Histogram::new();
                        h.record(dur);
                        hists.push((name, h));
                    }
                }
            }
        }
        let rec = SpanRecord {
            id: span.id,
            op: span.op.to_string(),
            key: span.key,
            start_ns: span.start_ns,
            total_ns: prev - span.start_ns,
            forced: span.forced,
            note: note.to_string(),
            stages,
        };
        let mut ring = self.ring.lock();
        if self.cfg.ring_capacity > 0 {
            if ring.len() == self.cfg.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(rec);
        }
    }

    /// The newest `max` completed spans, oldest first.
    pub fn spans(&self, max: usize) -> Vec<SpanRecord> {
        let ring = self.ring.lock();
        let skip = ring.len().saturating_sub(max);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Per-stage duration aggregates, in first-seen stage order.
    pub fn stage_summaries(&self) -> Vec<TraceStageSummary> {
        self.stage_hists
            .lock()
            .iter()
            .map(|(name, h)| TraceStageSummary {
                stage: name,
                count: h.count(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect()
    }

    /// Lifetime counters as a `"trace"` section for the unified snapshot.
    pub fn section(&self) -> CounterSection {
        CounterSection {
            name: "trace",
            counters: vec![
                ("sample_every", self.cfg.sample_every),
                ("spans_started", self.started.load(Ordering::Relaxed)),
                ("spans_completed", self.completed.load(Ordering::Relaxed)),
                ("spans_retained", self.ring.lock().len() as u64),
            ],
        }
    }
}

/// An event as carried in a trace payload: like [`Event`] but with owned
/// strings, so the receiving process can decode it without the static
/// schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventRecord {
    pub seq: u64,
    /// Simulated-clock stamp (NOT the [`now_ns`] domain).
    pub ts: u64,
    pub name: String,
    pub fields: Vec<(String, u64)>,
    pub labels: Vec<(String, String)>,
}

impl From<&Event> for TraceEventRecord {
    fn from(e: &Event) -> Self {
        Self {
            seq: e.seq,
            ts: e.ts,
            name: e.kind.name().to_string(),
            fields: e
                .kind
                .fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            labels: e
                .kind
                .labels()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// A TRACE response's content: span records plus a journal tail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TracePayload {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<TraceEventRecord>,
}

/// Renders a payload as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto).
///
/// Spans live on pid 1 ("server wall clock"), one thread row per span,
/// with an enclosing complete event for the whole request plus one
/// complete event per stage. Journal events live on pid 2 ("engine
/// simulated clock") — a *different time domain*, kept on a separate
/// process track rather than pretending the clocks align. Every journal
/// event is an instant: a write stall's `stalled_ns` is wall time, so it
/// rides in the event's args instead of drawing a bar on the simulated
/// track.
pub fn chrome_trace_json(payload: &TracePayload) -> String {
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut events = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"server wall clock\"}}"
            .to_string(),
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"engine simulated clock\"}}"
            .to_string(),
    ];
    for s in &payload.spans {
        events.push(format!(
            "{{\"name\":{},\"cat\":\"request\",\"ph\":\"X\",\"pid\":1,\
             \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"key\":{},\"span_id\":{},\"note\":{}}}}}",
            json_str(&s.op),
            s.id,
            us(s.start_ns),
            us(s.total_ns),
            s.key,
            s.id,
            json_str(&s.note),
        ));
        let mut at = s.start_ns;
        for (stage, dur) in &s.stages {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{}}}}",
                json_str(stage),
                s.id,
                us(at),
                us(*dur),
            ));
            at = at.saturating_add(*dur);
        }
    }
    for e in &payload.events {
        let fields = e.fields.iter().map(|(k, v)| format!("{}:{v}", json_str(k)));
        let labels = e
            .labels
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)));
        let args: Vec<String> = fields.chain(labels).collect();
        events.push(format!(
            "{{\"name\":{},\"cat\":\"journal\",\"ph\":\"i\",\"pid\":2,\
             \"tid\":1,\"ts\":{:.3},\"s\":\"p\",\"args\":{{{}}}}}",
            json_str(&e.name),
            us(e.ts),
            args.join(","),
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn now_ns_is_monotonic_across_threads() {
        let a = now_ns();
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(now_ns)).collect();
        for h in handles {
            assert!(h.join().unwrap() >= a);
        }
    }

    #[test]
    fn sampling_rate_is_one_in_n() {
        let t = Tracer::new(TraceConfig::sampled(4));
        let hits = (0..64).filter(|_| t.sample("put", 0).is_some()).count();
        assert_eq!(hits, 16);
        let off = Tracer::disabled();
        assert!((0..64).all(|_| off.sample("put", 0).is_none()));
        // Forcing works even when rate sampling is off.
        assert!(off.force("get", 9).forced);
    }

    #[test]
    fn complete_builds_durations_that_sum_to_total() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let s = t.sample("put", 42).unwrap();
        s.stamp_at("decode", s.start_ns + 100);
        s.stamp_at("lane_enqueue", s.start_ns + 250);
        s.stamp_at("fence_complete", s.start_ns + 1250);
        s.annotate("lane0");
        t.complete(&s);
        let recs = t.spans(16);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.op, "put");
        assert_eq!(r.key, 42);
        assert!(!r.forced);
        assert_eq!(r.note, "lane0");
        assert_eq!(r.total_ns, 1250);
        assert_eq!(r.stage_sum_ns(), r.total_ns);
        assert_eq!(r.stage_ns("decode"), Some(100));
        assert_eq!(r.stage_ns("lane_enqueue"), Some(150));
        assert_eq!(r.stage_ns("fence_complete"), Some(1000));
        let sums = t.stage_summaries();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].stage, "decode");
        assert_eq!(sums[0].count, 1);
        assert_eq!(sums[0].max_ns, 100);
    }

    #[test]
    fn out_of_order_stamps_clamp_rather_than_underflow() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let s = t.sample("get", 1).unwrap();
        s.stamp_at("a", s.start_ns + 500);
        s.stamp_at("b", s.start_ns + 400); // torn clock
        t.complete(&s);
        let r = &t.spans(1)[0];
        assert_eq!(r.stage_ns("b"), Some(0));
        assert_eq!(r.total_ns, 500);
        assert_eq!(r.stage_sum_ns(), r.total_ns);
    }

    #[test]
    fn complete_is_idempotent_and_seals_the_span() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let s = t.sample("put", 7).unwrap();
        s.stamp_at("decode", s.start_ns + 10);
        t.complete(&s);
        // Late stamps and a second complete are ignored.
        s.stamp_at("late", s.start_ns + 999);
        s.annotate("late");
        t.complete(&s);
        let recs = t.spans(16);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].stages.len(), 1);
        assert_eq!(recs[0].note, "");
        assert_eq!(t.section().counters[2], ("spans_completed", 1));
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 4,
        });
        for i in 0..10 {
            let s = t.sample("put", i).unwrap();
            s.stamp_at("decode", s.start_ns + 1);
            t.complete(&s);
        }
        let recs = t.spans(100);
        assert_eq!(recs.len(), 4);
        let keys: Vec<u64> = recs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![6, 7, 8, 9]);
        assert_eq!(t.spans(2).len(), 2);
        assert_eq!(t.spans(2)[1].key, 9);
    }

    #[test]
    fn event_records_carry_name_fields_and_labels() {
        let rec = |kind| {
            TraceEventRecord::from(&Event {
                seq: 1,
                ts: 456,
                kind,
            })
        };
        let mode = rec(EventKind::ModeTransition {
            from: "normal",
            to: "write_intensive",
            trigger: "set_mode",
            p99_ns: 42,
        });
        assert_eq!((mode.seq, mode.ts), (1, 456));
        assert_eq!(mode.name, "mode_transition");
        assert_eq!(
            mode.labels,
            vec![
                ("from".to_string(), "normal".to_string()),
                ("to".to_string(), "write_intensive".to_string()),
                ("trigger".to_string(), "set_mode".to_string()),
            ]
        );
        let flush = rec(EventKind::MemtableFlush {
            shard: 3,
            slots: 64,
            media_bytes: 4096,
        });
        assert_eq!(
            flush.fields,
            vec![
                ("shard".to_string(), 3),
                ("slots".to_string(), 64),
                ("media_bytes".to_string(), 4096),
            ]
        );
    }

    #[test]
    fn chrome_export_emits_span_and_stall_events() {
        let payload = TracePayload {
            spans: vec![SpanRecord {
                id: 9,
                op: "put".into(),
                key: 5,
                start_ns: 1000,
                total_ns: 300,
                forced: true,
                note: "weird \"note\"\n\\tab".into(),
                stages: vec![("decode".into(), 100), ("ack_write".into(), 200)],
            }],
            events: vec![
                TraceEventRecord {
                    seq: 0,
                    ts: 9_000,
                    name: "write_stall_exit".into(),
                    fields: vec![("shard".into(), 1), ("stalled_ns".into(), 4_000)],
                    labels: vec![],
                },
                TraceEventRecord {
                    seq: 1,
                    ts: 9_500,
                    name: "mode_transition".into(),
                    fields: vec![("p99_ns".into(), 7)],
                    labels: vec![("to".into(), "get_protect".into())],
                },
            ],
        };
        let json = chrome_trace_json(&payload);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"name\":\"decode\""));
        assert!(json.contains("\"note\":\"weird \\\"note\\\"\\n\\\\tab\""));
        // Two process-name metadata records keep the clock domains apart.
        assert_eq!(json.matches("process_name").count(), 2);
        // Every event on the simulated-clock track (pid 2) is an instant:
        // a stall's wall-clock duration rides in its args, never as a bar.
        let sim_track: Vec<&str> = json
            .split("},{")
            .filter(|ev| ev.contains("\"pid\":2") && !ev.contains("process_name"))
            .collect();
        assert_eq!(sim_track.len(), 2, "{json}");
        for ev in &sim_track {
            assert!(ev.contains("\"ph\":\"i\""), "not an instant: {ev}");
            assert!(
                !ev.contains("\"dur\""),
                "duration on the simulated track: {ev}"
            );
        }
        assert!(sim_track[0].contains("\"ts\":9.000,"));
        assert!(sim_track[0].contains("\"args\":{\"shard\":1,\"stalled_ns\":4000}"));
        assert!(sim_track[1].contains("\"args\":{\"p99_ns\":7,\"to\":\"get_protect\"}"));
    }
}
