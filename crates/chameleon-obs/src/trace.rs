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
//!   [`chrome_trace_json`] or shipped over the wire with
//!   [`encode_trace_payload`] / [`decode_trace_payload`].
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
    /// records; decoders use this to validate foreign ones).
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

/// A decoded trace payload: span records plus a journal tail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TracePayload {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<TraceEventRecord>,
}

fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes spans plus a journal tail as the TRACE response payload.
/// The schema is fixed and self-contained so `repro trace-dump` can
/// decode it with [`decode_trace_payload`] on the other side of the wire.
pub fn encode_trace_payload(spans: &[SpanRecord], events: &[Event]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 192 + events.len() * 96);
    out.push_str("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":{},\"op\":\"", s.id));
        esc(&mut out, &s.op);
        out.push_str(&format!(
            "\",\"key\":{},\"start_ns\":{},\"total_ns\":{},\"forced\":{},\"note\":\"",
            s.key, s.start_ns, s.total_ns, s.forced
        ));
        esc(&mut out, &s.note);
        out.push_str("\",\"stages\":[");
        for (j, (name, dur)) in s.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            esc(&mut out, name);
            out.push_str(&format!("\",{dur}]"));
        }
        out.push_str("]}");
    }
    out.push_str("],\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"seq\":{},\"ts\":{},\"name\":\"", e.seq, e.ts));
        esc(&mut out, e.kind.name());
        out.push_str("\",\"fields\":[");
        for (j, (name, v)) in e.kind.fields().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            esc(&mut out, name);
            out.push_str(&format!("\",{v}]"));
        }
        out.push_str("],\"labels\":[");
        for (j, (name, v)) in e.kind.labels().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            esc(&mut out, name);
            out.push_str("\",\"");
            esc(&mut out, v);
            out.push_str("\"]");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Minimal recursive-descent JSON reader covering exactly the grammar
/// [`encode_trace_payload`] emits (objects, arrays, strings, unsigned
/// integers, booleans). Errors are strings, not panics.
struct JsonReader<'a> {
    b: &'a [u8],
    pos: usize,
}

type JErr = String;

impl<'a> JsonReader<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            b: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JErr> {
        self.skip_ws();
        self.b
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), JErr> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                c as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// Consumes `c` if it is next; returns whether it did.
    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Ok(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, JErr> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.pos)
                .ok_or_else(|| JErr::from("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.pos)
                        .ok_or_else(|| JErr::from("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JErr::from("short \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control byte in string".into()),
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err("bad UTF-8 lead byte".into()),
                        };
                        let bytes = self
                            .b
                            .get(start..start + len)
                            .ok_or_else(|| JErr::from("truncated UTF-8"))?;
                        let s = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn u64(&mut self) -> Result<u64, JErr> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }

    fn bool(&mut self) -> Result<bool, JErr> {
        self.skip_ws();
        if self.b[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.b[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            Err(format!("expected bool at byte {}", self.pos))
        }
    }

    /// Parses `[` items `]` with `f` per item.
    fn array<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, JErr>,
    ) -> Result<Vec<T>, JErr> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(f(self)?);
            if self.eat(b']') {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }
}

/// Decodes a payload produced by [`encode_trace_payload`]. Strict about
/// the schema (unknown keys are errors — both ends ship together).
pub fn decode_trace_payload(text: &str) -> Result<TracePayload, String> {
    let mut r = JsonReader::new(text);
    let mut payload = TracePayload::default();
    r.expect(b'{')?;
    loop {
        let key = r.string()?;
        r.expect(b':')?;
        match key.as_str() {
            "spans" => {
                payload.spans = r.array(|r| {
                    let mut s = SpanRecord {
                        id: 0,
                        op: String::new(),
                        key: 0,
                        start_ns: 0,
                        total_ns: 0,
                        forced: false,
                        note: String::new(),
                        stages: Vec::new(),
                    };
                    r.expect(b'{')?;
                    loop {
                        let k = r.string()?;
                        r.expect(b':')?;
                        match k.as_str() {
                            "id" => s.id = r.u64()?,
                            "op" => s.op = r.string()?,
                            "key" => s.key = r.u64()?,
                            "start_ns" => s.start_ns = r.u64()?,
                            "total_ns" => s.total_ns = r.u64()?,
                            "forced" => s.forced = r.bool()?,
                            "note" => s.note = r.string()?,
                            "stages" => {
                                s.stages = r.array(|r| {
                                    r.expect(b'[')?;
                                    let name = r.string()?;
                                    r.expect(b',')?;
                                    let dur = r.u64()?;
                                    r.expect(b']')?;
                                    Ok((name, dur))
                                })?;
                            }
                            other => return Err(format!("unknown span key {other:?}")),
                        }
                        if r.eat(b'}') {
                            return Ok(s);
                        }
                        r.expect(b',')?;
                    }
                })?;
            }
            "events" => {
                payload.events = r.array(|r| {
                    let mut e = TraceEventRecord {
                        seq: 0,
                        ts: 0,
                        name: String::new(),
                        fields: Vec::new(),
                        labels: Vec::new(),
                    };
                    r.expect(b'{')?;
                    loop {
                        let k = r.string()?;
                        r.expect(b':')?;
                        match k.as_str() {
                            "seq" => e.seq = r.u64()?,
                            "ts" => e.ts = r.u64()?,
                            "name" => e.name = r.string()?,
                            "fields" => {
                                e.fields = r.array(|r| {
                                    r.expect(b'[')?;
                                    let name = r.string()?;
                                    r.expect(b',')?;
                                    let v = r.u64()?;
                                    r.expect(b']')?;
                                    Ok((name, v))
                                })?;
                            }
                            "labels" => {
                                e.labels = r.array(|r| {
                                    r.expect(b'[')?;
                                    let name = r.string()?;
                                    r.expect(b',')?;
                                    let v = r.string()?;
                                    r.expect(b']')?;
                                    Ok((name, v))
                                })?;
                            }
                            other => return Err(format!("unknown event key {other:?}")),
                        }
                        if r.eat(b'}') {
                            return Ok(e);
                        }
                        r.expect(b',')?;
                    }
                })?;
            }
            other => return Err(format!("unknown payload key {other:?}")),
        }
        if r.eat(b'}') {
            break;
        }
        r.expect(b',')?;
    }
    r.skip_ws();
    if r.pos != r.b.len() {
        return Err(format!("trailing bytes at {}", r.pos));
    }
    Ok(payload)
}

/// Renders a payload as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto).
///
/// Spans live on pid 1 ("server wall clock"), one thread row per span,
/// with an enclosing complete event for the whole request plus one
/// complete event per stage. Journal events live on pid 2 ("engine
/// simulated clock") — a *different time domain*, kept on a separate
/// process track rather than pretending the clocks align. Write-stall
/// exits carry their duration and render as complete events; everything
/// else is an instant.
pub fn chrome_trace_json(payload: &TracePayload) -> String {
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"server wall clock\"}}"
            .into(),
    );
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"engine simulated clock\"}}"
            .into(),
    );
    for s in &payload.spans {
        let mut name = String::new();
        esc(&mut name, &s.op);
        let mut note = String::new();
        esc(&mut note, &s.note);
        push(
            &mut out,
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"request\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"key\":{},\"span_id\":{},\"note\":\"{note}\"}}}}",
                s.id,
                us(s.start_ns),
                us(s.total_ns),
                s.key,
                s.id,
            ),
        );
        let mut at = s.start_ns;
        for (stage, dur) in &s.stages {
            let mut sn = String::new();
            esc(&mut sn, stage);
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{sn}\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\
                     \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{}}}}",
                    s.id,
                    us(at),
                    us(*dur),
                ),
            );
            at += dur;
        }
    }
    for e in &payload.events {
        let mut name = String::new();
        esc(&mut name, &e.name);
        let mut args = String::new();
        for (k, v) in &e.fields {
            if !args.is_empty() {
                args.push(',');
            }
            args.push('"');
            esc(&mut args, k);
            args.push_str(&format!("\":{v}"));
        }
        for (k, v) in &e.labels {
            if !args.is_empty() {
                args.push(',');
            }
            args.push('"');
            esc(&mut args, k);
            args.push_str("\":\"");
            esc(&mut args, v);
            args.push('"');
        }
        let stall = e
            .name
            .as_str()
            .eq("write_stall_exit")
            .then(|| {
                e.fields
                    .iter()
                    .find(|(k, _)| k == "stalled_ns")
                    .map(|&(_, v)| v)
            })
            .flatten();
        match stall {
            Some(dur) => push(
                &mut out,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"journal\",\"ph\":\"X\",\"pid\":2,\
                     \"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                    us(e.ts.saturating_sub(dur)),
                    us(dur),
                ),
            ),
            None => push(
                &mut out,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"journal\",\"ph\":\"i\",\"pid\":2,\
                     \"tid\":1,\"ts\":{:.3},\"s\":\"p\",\"args\":{{{args}}}}}",
                    us(e.ts),
                ),
            ),
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
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
    fn payload_round_trips_through_wire_json() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let s = t.force("put", u64::MAX);
        s.stamp_at("decode", s.start_ns + 3);
        s.stamp_at("ack_write", s.start_ns + 9);
        s.annotate("weird \"note\"\n\\tab");
        t.complete(&s);
        let events = vec![
            Event {
                seq: 0,
                ts: 123,
                kind: EventKind::ModeTransition {
                    from: "normal",
                    to: "write_intensive",
                    trigger: "set_mode",
                    p99_ns: 42,
                },
            },
            Event {
                seq: 1,
                ts: 456,
                kind: EventKind::MemtableFlush {
                    shard: 3,
                    slots: 64,
                    media_bytes: 4096,
                },
            },
        ];
        let spans = t.spans(16);
        let text = encode_trace_payload(&spans, &events);
        let back = decode_trace_payload(&text).expect("decode");
        assert_eq!(back.spans, spans);
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].name, "mode_transition");
        assert_eq!(
            back.events[0].labels,
            vec![
                ("from".to_string(), "normal".to_string()),
                ("to".to_string(), "write_intensive".to_string()),
                ("trigger".to_string(), "set_mode".to_string()),
            ]
        );
        assert_eq!(
            back.events[1].fields,
            vec![
                ("shard".to_string(), 3),
                ("slots".to_string(), 64),
                ("media_bytes".to_string(), 4096),
            ]
        );
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode_trace_payload("").is_err());
        assert!(decode_trace_payload("not json").is_err());
        assert!(decode_trace_payload("{\"spans\":[],\"events\":[]} x").is_err());
        assert!(decode_trace_payload("{\"spans\":[{\"bogus\":1}],\"events\":[]}").is_err());
        let ok = decode_trace_payload("{\"spans\":[],\"events\":[]}").unwrap();
        assert!(ok.spans.is_empty() && ok.events.is_empty());
        // Truncations of a valid payload never decode.
        let t = Tracer::new(TraceConfig::sampled(1));
        let s = t.force("get", 5);
        s.stamp_at("decode", s.start_ns + 1);
        t.complete(&s);
        let text = encode_trace_payload(&t.spans(1), &[]);
        for cut in 0..text.len() {
            assert!(decode_trace_payload(&text[..cut]).is_err(), "cut {cut}");
        }
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
                note: "".into(),
                stages: vec![("decode".into(), 100), ("ack_write".into(), 200)],
            }],
            events: vec![TraceEventRecord {
                seq: 0,
                ts: 9_000,
                name: "write_stall_exit".into(),
                fields: vec![("shard".into(), 1), ("stalled_ns".into(), 4_000)],
                labels: vec![],
            }],
        };
        let json = chrome_trace_json(&payload);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("}"));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"name\":\"decode\""));
        assert!(json.contains("\"ph\":\"X\""));
        // The stall renders as a complete event starting stalled_ns early.
        assert!(json.contains("\"name\":\"write_stall_exit\""));
        assert!(json.contains("\"ts\":5.000,\"dur\":4.000"));
        // Two process-name metadata records keep the clock domains apart.
        assert_eq!(json.matches("process_name").count(), 2);
    }
}
