//! Serializers: pretty JSON and Prometheus text exposition, plus the one
//! strict Prometheus reader ([`parse_prometheus`]) every scraper uses.
//!
//! Hand-rolled on purpose: the snapshot's shape is fixed, event payloads
//! are heterogeneous (an enum), and keeping the writers here means the
//! obs crate needs no serialization dependency.

use std::fmt::Write as _;

use crate::snapshot::ObsSnapshot;

/// Formats a float so it parses back (`3.25`, `0.0`); non-finite values
/// (possible only from degenerate inputs) become `0.0`.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Prometheus sample value: plain shortest float, `0` for non-finite.
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One sample of a Prometheus text exposition: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// The value of the first sample named `name`, whatever its labels.
pub fn sample_value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

fn legal_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses Prometheus text exposition strictly, the reader matching
/// [`ObsSnapshot::to_prometheus`]. Blank lines and `# TYPE` / `# HELP`
/// comments are skipped. Every other line must be a legal metric name,
/// optional `{key="value",...}` labels, one space, and a value that
/// parses as `f64`. The first line that is not is the error.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        let bad = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("TYPE ") || comment.starts_with("HELP ") {
                continue;
            }
            return Err(bad("bad comment"));
        }
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| bad("no value"))?;
        let value = value.parse::<f64>().map_err(|_| bad("bad value"))?;
        let (name, labels) = match series.split_once('{') {
            None => (series, Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| bad("unterminated labels"))?;
                let labels = body
                    .split(',')
                    .filter(|pair| !pair.is_empty())
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').ok_or_else(|| bad("bad label"))?;
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .filter(|v| legal_name(k) && !v.contains('"'))
                            .ok_or_else(|| bad("bad label"))?;
                        Ok((k.to_string(), v.to_string()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                (name, labels)
            }
        };
        if !legal_name(name) {
            return Err(bad("bad metric name"));
        }
        out.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

impl ObsSnapshot {
    /// Serializes the snapshot as pretty-printed JSON (2-space indent).
    pub fn to_pretty_json(&self) -> String {
        let mut w = String::with_capacity(4096);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"captured_ts\": {},", self.captured_ts);
        let _ = writeln!(w, "  \"enabled\": {},", self.enabled);

        w.push_str("  \"counters\": {\n");
        for (si, sec) in self.counters.iter().enumerate() {
            let _ = writeln!(w, "    {}: {{", json_str(sec.name));
            for (ci, (name, val)) in sec.counters.iter().enumerate() {
                let comma = if ci + 1 < sec.counters.len() { "," } else { "" };
                let _ = writeln!(w, "      {}: {val}{comma}", json_str(name));
            }
            let comma = if si + 1 < self.counters.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(w, "    }}{comma}");
        }
        w.push_str("  },\n");

        w.push_str("  \"media\": {\n");
        let m = &self.media;
        let media_fields: [(&str, u64); 8] = [
            ("logical_bytes_written", m.logical_bytes_written),
            ("media_bytes_written", m.media_bytes_written),
            ("rmw_blocks", m.rmw_blocks),
            ("logical_bytes_read", m.logical_bytes_read),
            ("media_bytes_read", m.media_bytes_read),
            ("fences", m.fences),
            ("line_persists", m.line_persists),
            ("crashes", m.crashes),
        ];
        for (name, val) in media_fields {
            let _ = writeln!(w, "    {}: {val},", json_str(name));
        }
        let _ = writeln!(
            w,
            "    \"write_amplification\": {},",
            json_f64(self.media_write_amplification)
        );
        let _ = writeln!(
            w,
            "    \"read_amplification\": {}",
            json_f64(self.media_read_amplification)
        );
        w.push_str("  },\n");

        w.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            w.push_str("    {\n");
            let _ = writeln!(w, "      \"stage\": {},", json_str(s.stage));
            let _ = writeln!(w, "      \"count\": {},", s.count);
            let _ = writeln!(w, "      \"sim_ns\": {},", s.sim_ns);
            let _ = writeln!(
                w,
                "      \"logical_bytes_written\": {},",
                s.logical_bytes_written
            );
            let _ = writeln!(
                w,
                "      \"media_bytes_written\": {},",
                s.media_bytes_written
            );
            let _ = writeln!(w, "      \"media_bytes_read\": {},", s.media_bytes_read);
            let _ = writeln!(
                w,
                "      \"write_amplification\": {},",
                json_f64(s.write_amplification)
            );
            let _ = writeln!(
                w,
                "      \"media_write_share\": {}",
                json_f64(s.media_write_share)
            );
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            let _ = writeln!(w, "    }}{comma}");
        }
        w.push_str("  ],\n");

        w.push_str("  \"ops\": [\n");
        for (i, o) in self.ops.iter().enumerate() {
            w.push_str("    {\n");
            let _ = writeln!(w, "      \"op\": {},", json_str(o.op));
            let _ = writeln!(w, "      \"count\": {},", o.count);
            let _ = writeln!(w, "      \"mean_ns\": {},", json_f64(o.mean_ns));
            let _ = writeln!(w, "      \"p50_ns\": {},", o.p50_ns);
            let _ = writeln!(w, "      \"p99_ns\": {},", o.p99_ns);
            let _ = writeln!(w, "      \"p999_ns\": {},", o.p999_ns);
            let _ = writeln!(w, "      \"max_ns\": {}", o.max_ns);
            let comma = if i + 1 < self.ops.len() { "," } else { "" };
            let _ = writeln!(w, "    }}{comma}");
        }
        w.push_str("  ],\n");

        w.push_str("  \"windows\": [\n");
        for (i, win) in self.windows.iter().enumerate() {
            let mut ops = String::new();
            for (j, o) in win.ops.iter().enumerate() {
                if j > 0 {
                    ops.push_str(", ");
                }
                let _ = write!(
                    ops,
                    "{{ \"op\": {}, \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
                     \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {} }}",
                    json_str(o.op),
                    o.count,
                    o.mean_ns,
                    o.p50_ns,
                    o.p99_ns,
                    o.p999_ns,
                    o.max_ns
                );
            }
            let comma = if i + 1 < self.windows.len() { "," } else { "" };
            let _ = writeln!(
                w,
                "    {{ \"seq\": {}, \"wall_ms\": {}, \"ops_per_sec\": {}, \
                 \"batches\": {}, \"batched_ops\": {}, \"acks\": {}, \"retries\": {}, \
                 \"media_bytes_written\": {}, \"media_bytes_read\": {}, \"fences\": {}, \
                 \"repl_shipped\": {}, \"repl_lag\": {}, \
                 \"ops\": [ {ops} ] }}{comma}",
                win.seq,
                win.wall_ms,
                json_f64(win.ops_per_sec()),
                win.batches,
                win.batched_ops,
                win.acks,
                win.retries,
                win.media_bytes_written,
                win.media_bytes_read,
                win.fences,
                win.repl_shipped,
                win.repl_lag
            );
        }
        w.push_str("  ],\n");

        w.push_str("  \"trace_stages\": [\n");
        for (i, t) in self.trace_stages.iter().enumerate() {
            let comma = if i + 1 < self.trace_stages.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                w,
                "    {{ \"stage\": {}, \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {} }}{comma}",
                json_str(t.stage),
                t.count,
                json_f64(t.mean_ns),
                t.p50_ns,
                t.p99_ns,
                t.max_ns
            );
        }
        w.push_str("  ],\n");

        w.push_str("  \"events\": {\n");
        let _ = writeln!(w, "    \"total\": {},", self.events_total);
        let _ = writeln!(w, "    \"dropped\": {},", self.events_dropped);
        w.push_str("    \"tail\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let mut parts = vec![
                format!("\"seq\": {}", e.seq),
                format!("\"ts\": {}", e.ts),
                format!("\"kind\": {}", json_str(e.kind.name())),
            ];
            for (name, val) in e.kind.labels() {
                parts.push(format!("{}: {}", json_str(name), json_str(val)));
            }
            for (name, val) in e.kind.fields() {
                parts.push(format!("{}: {val}", json_str(name)));
            }
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let _ = writeln!(w, "      {{ {} }}{comma}", parts.join(", "));
        }
        w.push_str("    ]\n");
        w.push_str("  }\n");
        w.push('}');
        w
    }

    /// Serializes the snapshot in Prometheus text exposition format:
    /// `name{label="value",...} value` lines, with `# TYPE` headers.
    pub fn to_prometheus(&self) -> String {
        let mut w = String::with_capacity(4096);
        let gauge = |w: &mut String, name: &str| {
            let _ = writeln!(w, "# TYPE {name} gauge");
        };

        for sec in &self.counters {
            for (name, val) in &sec.counters {
                let metric = format!("chameleon_{}_{}", sec.name, name);
                gauge(&mut w, &metric);
                let _ = writeln!(w, "{metric} {val}");
            }
        }

        let m = &self.media;
        let media_fields: [(&str, u64); 8] = [
            ("logical_bytes_written", m.logical_bytes_written),
            ("media_bytes_written", m.media_bytes_written),
            ("rmw_blocks", m.rmw_blocks),
            ("logical_bytes_read", m.logical_bytes_read),
            ("media_bytes_read", m.media_bytes_read),
            ("fences", m.fences),
            ("line_persists", m.line_persists),
            ("crashes", m.crashes),
        ];
        for (name, val) in media_fields {
            let metric = format!("chameleon_media_{name}");
            gauge(&mut w, &metric);
            let _ = writeln!(w, "{metric} {val}");
        }
        gauge(&mut w, "chameleon_media_write_amplification");
        let _ = writeln!(
            w,
            "chameleon_media_write_amplification {}",
            prom_f64(self.media_write_amplification)
        );
        gauge(&mut w, "chameleon_media_read_amplification");
        let _ = writeln!(
            w,
            "chameleon_media_read_amplification {}",
            prom_f64(self.media_read_amplification)
        );

        let stage_metrics = [
            "chameleon_stage_count",
            "chameleon_stage_sim_ns",
            "chameleon_stage_logical_bytes_written",
            "chameleon_stage_media_bytes_written",
            "chameleon_stage_media_bytes_read",
            "chameleon_stage_write_amplification",
            "chameleon_stage_media_write_share",
        ];
        for metric in stage_metrics {
            gauge(&mut w, metric);
            for s in &self.stages {
                let v = match metric {
                    "chameleon_stage_count" => s.count.to_string(),
                    "chameleon_stage_sim_ns" => s.sim_ns.to_string(),
                    "chameleon_stage_logical_bytes_written" => s.logical_bytes_written.to_string(),
                    "chameleon_stage_media_bytes_written" => s.media_bytes_written.to_string(),
                    "chameleon_stage_media_bytes_read" => s.media_bytes_read.to_string(),
                    "chameleon_stage_write_amplification" => prom_f64(s.write_amplification),
                    _ => prom_f64(s.media_write_share),
                };
                let _ = writeln!(w, "{metric}{{stage=\"{}\"}} {v}", s.stage);
            }
        }

        gauge(&mut w, "chameleon_op_count");
        for o in &self.ops {
            let _ = writeln!(w, "chameleon_op_count{{op=\"{}\"}} {}", o.op, o.count);
        }
        gauge(&mut w, "chameleon_op_latency_ns");
        for o in &self.ops {
            for (q, v) in [("0.5", o.p50_ns), ("0.99", o.p99_ns), ("0.999", o.p999_ns)] {
                let _ = writeln!(
                    w,
                    "chameleon_op_latency_ns{{op=\"{}\",quantile=\"{q}\"}} {v}",
                    o.op
                );
            }
        }
        gauge(&mut w, "chameleon_op_latency_ns_max");
        for o in &self.ops {
            let _ = writeln!(
                w,
                "chameleon_op_latency_ns_max{{op=\"{}\"}} {}",
                o.op, o.max_ns
            );
        }

        // Windowed telemetry: Prometheus scrapes are themselves periodic,
        // so only the *latest* window exports (the full ring is in the
        // JSON rendering). Absent entirely when no sampler runs.
        if let Some(win) = self.windows.last() {
            let win_scalars: [(&str, u64); 11] = [
                ("seq", win.seq),
                ("wall_ms", win.wall_ms),
                ("batches", win.batches),
                ("batched_ops", win.batched_ops),
                ("acks", win.acks),
                ("retries", win.retries),
                ("media_bytes_written", win.media_bytes_written),
                ("media_bytes_read", win.media_bytes_read),
                ("fences", win.fences),
                ("repl_shipped", win.repl_shipped),
                ("repl_lag", win.repl_lag),
            ];
            for (name, val) in win_scalars {
                let metric = format!("chameleon_win_{name}");
                gauge(&mut w, &metric);
                let _ = writeln!(w, "{metric} {val}");
            }
            gauge(&mut w, "chameleon_win_ops_per_sec");
            let _ = writeln!(
                w,
                "chameleon_win_ops_per_sec {}",
                prom_f64(win.ops_per_sec())
            );
            gauge(&mut w, "chameleon_win_op_count");
            for o in &win.ops {
                let _ = writeln!(w, "chameleon_win_op_count{{op=\"{}\"}} {}", o.op, o.count);
            }
            gauge(&mut w, "chameleon_win_op_latency_ns");
            for o in &win.ops {
                for (q, v) in [("0.5", o.p50_ns), ("0.99", o.p99_ns), ("0.999", o.p999_ns)] {
                    let _ = writeln!(
                        w,
                        "chameleon_win_op_latency_ns{{op=\"{}\",quantile=\"{q}\"}} {v}",
                        o.op
                    );
                }
            }
            gauge(&mut w, "chameleon_win_op_latency_ns_max");
            for o in &win.ops {
                let _ = writeln!(
                    w,
                    "chameleon_win_op_latency_ns_max{{op=\"{}\"}} {}",
                    o.op, o.max_ns
                );
            }
        }

        if !self.trace_stages.is_empty() {
            gauge(&mut w, "chameleon_trace_stage_count");
            for t in &self.trace_stages {
                let _ = writeln!(
                    w,
                    "chameleon_trace_stage_count{{stage=\"{}\"}} {}",
                    t.stage, t.count
                );
            }
            gauge(&mut w, "chameleon_trace_stage_ns");
            for t in &self.trace_stages {
                for (q, v) in [("0.5", t.p50_ns), ("0.99", t.p99_ns)] {
                    let _ = writeln!(
                        w,
                        "chameleon_trace_stage_ns{{stage=\"{}\",quantile=\"{q}\"}} {v}",
                        t.stage
                    );
                }
            }
            gauge(&mut w, "chameleon_trace_stage_ns_mean");
            for t in &self.trace_stages {
                let _ = writeln!(
                    w,
                    "chameleon_trace_stage_ns_mean{{stage=\"{}\"}} {}",
                    t.stage,
                    prom_f64(t.mean_ns)
                );
            }
        }

        gauge(&mut w, "chameleon_events_total");
        let _ = writeln!(w, "chameleon_events_total {}", self.events_total);
        gauge(&mut w, "chameleon_events_dropped");
        let _ = writeln!(w, "chameleon_events_dropped {}", self.events_dropped);
        w
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use pmem_sim::{MediaStats, ThreadCtx};

    use super::*;
    use crate::span::Stage;
    use crate::{
        CounterSection, DeltaTracker, EventKind, Obs, ObsConfig, OpKind, ServerTickCounters,
        Tracer, WindowedSeries,
    };

    fn sample_snapshot() -> ObsSnapshot {
        let obs = Obs::new(ObsConfig::on());
        let dev = MediaStats::default();
        let ctx = ThreadCtx::with_default_cost();
        let lane = dev.lane(&ctx);
        lane.logical_bytes_written.fetch_add(100, Ordering::Relaxed);
        lane.media_bytes_written.fetch_add(300, Ordering::Relaxed);
        let span = obs.span_start(Stage::AbiDump, 10, lane);
        lane.media_bytes_written.fetch_add(700, Ordering::Relaxed);
        obs.span_end(span, 60, lane);
        obs.record_event(
            70,
            EventKind::ModeTransition {
                from: "normal",
                to: "get_protect",
                trigger: "p99_above_enter_threshold",
                p99_ns: 2500,
            },
        );
        obs.record_event(
            80,
            EventKind::AbiDump {
                shard: 1,
                slots: 64,
                media_bytes: 700,
            },
        );
        obs.record_op(&ctx, OpKind::Get, 150);
        let mut snap = obs.snapshot(
            100,
            vec![CounterSection {
                name: "store",
                counters: vec![("puts", 5), ("gets", 9)],
            }],
            dev.snapshot(),
        );
        // Attach windowed telemetry and trace-stage aggregates the way a
        // server does before serializing.
        let series = WindowedSeries::new(4);
        let mut tracker = DeltaTracker::new();
        let mut ops = crate::OpHists::default();
        for _ in 0..50 {
            ops.put.record(2_000);
        }
        ops.get.record(900);
        series.push(tracker.tick(
            1_000,
            &ops,
            &pmem_sim::Histogram::new(),
            &pmem_sim::Histogram::new(),
            dev.snapshot(),
            ServerTickCounters {
                batches: 2,
                batched_ops: 50,
                acks: 50,
                retries: 1,
                repl_shipped: 4,
                repl_lag: 2,
            },
        ));
        snap.windows = series.windows();
        let tracer = Tracer::new(crate::TraceConfig::sampled(1));
        let s = tracer.force("put", 7);
        s.stamp_at("decode", s.start_ns + 100);
        s.stamp_at("ack_write", s.start_ns + 400);
        tracer.complete(&s);
        snap.trace_stages = tracer.stage_summaries();
        snap
    }

    /// The exposition of a fixed snapshot, frozen byte for byte: scrapers
    /// and the benchmark read these names, labels and number formats.
    #[test]
    fn prometheus_exposition_matches_golden() {
        assert_eq!(
            sample_snapshot().to_prometheus(),
            include_str!("../golden/sample_snapshot.prom")
        );
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = sample_snapshot().to_pretty_json();
        // Structural sanity: balanced braces/brackets outside strings
        // (no string values here contain braces).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"captured_ts\": 100",
            "\"store\": {",
            "\"puts\": 5",
            "\"media_bytes_written\": 1000",
            "\"stage\": \"abi_dump\"",
            "\"stage\": \"foreground\"",
            "\"op\": \"get\"",
            "\"kind\": \"mode_transition\"",
            "\"trigger\": \"p99_above_enter_threshold\"",
            "\"kind\": \"abi_dump\"",
            "\"total\": 2",
            "\"windows\": [",
            "\"wall_ms\": 1000",
            "\"ops_per_sec\": 51.0",
            "\"trace_stages\": [",
            "\"stage\": \"ack_write\"",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        // No trailing commas before closers (the classic hand-rolled bug).
        assert!(!json.contains(",\n  }") && !json.contains(",\n  ]"));
        assert!(!json.contains(",\n    }") && !json.contains(",\n    ]"));
        assert!(!json.contains(",\n      }") && !json.contains(",\n      ]"));
    }

    #[test]
    fn json_floats_round_trip() {
        assert_eq!(json_f64(3.25), "3.25");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(0.0), "0.0");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn prometheus_lines_parse() {
        let samples = parse_prometheus(&sample_snapshot().to_prometheus()).expect("strict parse");
        assert!(samples.len() > 30, "only {} samples", samples.len());
        assert!(samples.iter().all(|s| s.name.starts_with("chameleon_")));
        let labeled = |name: &str, labels: &[(&str, &str)]| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels.len() == labels.len()
                        && labels
                            .iter()
                            .zip(&s.labels)
                            .all(|(&(k, v), (lk, lv))| k == lk && v == lv)
                })
                .map(|s| s.value)
        };
        assert_eq!(
            labeled(
                "chameleon_stage_media_bytes_written",
                &[("stage", "abi_dump")]
            ),
            Some(700.0)
        );
        assert!(labeled(
            "chameleon_op_latency_ns",
            &[("op", "get"), ("quantile", "0.99")]
        )
        .is_some());
        assert_eq!(sample_value(&samples, "chameleon_store_puts"), Some(5.0));
        // Windowed-series and trace-stage metrics ride the same validated
        // path.
        assert_eq!(
            labeled("chameleon_win_op_count", &[("op", "put")]),
            Some(50.0)
        );
        assert!(labeled(
            "chameleon_win_op_latency_ns",
            &[("op", "put"), ("quantile", "0.999")]
        )
        .is_some());
        assert_eq!(sample_value(&samples, "chameleon_win_batches"), Some(2.0));
        assert_eq!(
            sample_value(&samples, "chameleon_win_ops_per_sec"),
            Some(51.0)
        );
        assert_eq!(
            labeled("chameleon_trace_stage_count", &[("stage", "decode")]),
            Some(1.0)
        );
        assert!(labeled(
            "chameleon_trace_stage_ns",
            &[("stage", "ack_write"), ("quantile", "0.99")]
        )
        .is_some());
        assert_eq!(sample_value(&samples, "chameleon_absent"), None);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        let good = "# TYPE chameleon_op_count gauge\n\
                    # HELP chameleon_op_count ops\n\
                    \n\
                    chameleon_op_count{op=\"put\"} 42\n\
                    chameleon_win_ops_per_sec 1234.5\n\
                    chameleon_trace_stage_ns{stage=\"batch_seal\",quantile=\"0.99\"} 9\n";
        let samples = parse_prometheus(good).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples[2],
            Sample {
                name: "chameleon_trace_stage_ns".into(),
                labels: vec![
                    ("stage".into(), "batch_seal".into()),
                    ("quantile".into(), "0.99".into()),
                ],
                value: 9.0,
            }
        );
        assert_eq!(sample_value(&samples, "chameleon_op_count"), Some(42.0));
        assert_eq!(parse_prometheus("\n\n").unwrap(), Vec::new());
        for bad in [
            "bad name! 1\n",
            "9starts_with_digit 1\n",
            "# BOGUS comment\n",
            "metric{op=put} 1\n",
            "metric{op=\"x\"\"} 1\n",
            "metric{op=\"x\"} notanumber\n",
            "metric{op=\"x\" 1\n",
            "metric_no_value\n",
            "metric  1\n",
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse_prometheus("ok 1\nbad name! 1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn prometheus_omits_window_and_trace_blocks_when_absent() {
        // A bare store (no sampler, no tracer) must not emit empty-labeled
        // series or dangling TYPE headers for them.
        let obs = Obs::new(ObsConfig::on());
        let dev = MediaStats::default();
        let text = obs.snapshot(0, Vec::new(), dev.snapshot()).to_prometheus();
        assert!(!text.contains("chameleon_win_"));
        assert!(!text.contains("chameleon_trace_stage_"));
    }

    #[test]
    fn prometheus_every_type_header_has_a_sample() {
        let text = sample_snapshot().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(name) = line
                .strip_prefix("# TYPE ")
                .and_then(|r| r.split(' ').next())
            {
                let next = lines.get(i + 1).unwrap_or(&"");
                assert!(
                    next.starts_with(name),
                    "TYPE header for {name} not followed by its sample: {next:?}"
                );
            }
        }
    }

    #[test]
    fn prometheus_values_survive_degenerate_floats() {
        // Non-finite means and rates must render as parseable values.
        let mut snap = sample_snapshot();
        snap.trace_stages[0].mean_ns = f64::NAN;
        snap.media_write_amplification = f64::INFINITY;
        let samples = parse_prometheus(&snap.to_prometheus()).expect("strict parse");
        assert!(samples.iter().all(|s| s.value.is_finite()));
        assert_eq!(
            sample_value(&samples, "chameleon_media_write_amplification"),
            Some(0.0)
        );
    }
}
