//! `repro top` — a live terminal dashboard over the metrics sidecar.
//!
//! Polls `http://127.0.0.1:<http-port>/metrics` once per second, parses
//! the Prometheus exposition, and renders the most recent telemetry
//! window (ops/sec, per-op latency quantiles, batching, media traffic)
//! plus cumulative server counters. Runs until SIGINT/SIGTERM; `--quick`
//! renders three frames and exits (CI smoke).

use std::sync::atomic::Ordering;
use std::time::Duration;

use chameleon_obs::export::{parse_prometheus, sample_value, Sample};

use crate::util::{fmt_bytes, fmt_ns, http_get, Opts};

struct Metrics(Vec<Sample>);

impl Metrics {
    fn scalar(&self, name: &str) -> Option<f64> {
        sample_value(&self.0, name)
    }

    fn labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.0
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
    }

    /// Distinct values of one label under one metric, in exposition order.
    fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.0.iter().filter(|s| s.name == name) {
            if let Some((_, v)) = s.labels.iter().find(|(k, _)| k == key) {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

/// One dashboard frame for a scrape body: the rendered metrics, or one
/// error line when the scrape is malformed (the next poll tries again).
fn frame(body: &str, addr: &str, clear: bool) -> String {
    match parse_prometheus(body) {
        Ok(samples) => render(&Metrics(samples), addr, clear),
        Err(e) => format!("repro top: malformed scrape from {addr}: {e}\n"),
    }
}

fn render(m: &Metrics, addr: &str, clear: bool) -> String {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let seq = m.scalar("chameleon_win_seq").unwrap_or(0.0) as u64;
    let wall = m.scalar("chameleon_win_wall_ms").unwrap_or(0.0) as u64;
    out.push_str(&format!(
        "chameleon top — {addr}   window #{seq} ({wall} ms)\n"
    ));
    out.push_str(&format!(
        "  ops/sec {:.0}\n",
        m.scalar("chameleon_win_ops_per_sec").unwrap_or(0.0)
    ));

    let ops = m.label_values("chameleon_win_op_count", "op");
    if ops.is_empty() {
        out.push_str("  (no windowed op telemetry yet — is the sampler running?)\n");
    } else {
        out.push_str(&format!(
            "  {:<12} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
            "op", "count", "p50", "p99", "p99.9", "max"
        ));
        for op in &ops {
            let l = |q: &str| {
                m.labeled(
                    "chameleon_win_op_latency_ns",
                    &[("op", op), ("quantile", q)],
                )
                .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64))
            };
            out.push_str(&format!(
                "  {:<12} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
                op,
                m.labeled("chameleon_win_op_count", &[("op", op)])
                    .unwrap_or(0.0) as u64,
                l("0.5"),
                l("0.99"),
                l("0.999"),
                m.labeled("chameleon_win_op_latency_ns_max", &[("op", op)])
                    .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64)),
            ));
        }
    }

    let batches = m.scalar("chameleon_win_batches").unwrap_or(0.0);
    let batched = m.scalar("chameleon_win_batched_ops").unwrap_or(0.0);
    out.push_str(&format!(
        "  batches {}  mean-batch {:.1}  acks {}  retries {}\n",
        batches as u64,
        if batches > 0.0 {
            batched / batches
        } else {
            0.0
        },
        m.scalar("chameleon_win_acks").unwrap_or(0.0) as u64,
        m.scalar("chameleon_win_retries").unwrap_or(0.0) as u64,
    ));
    out.push_str(&format!(
        "  media written {}  read {}  fences {}\n",
        fmt_bytes(m.scalar("chameleon_win_media_bytes_written").unwrap_or(0.0) as u64),
        fmt_bytes(m.scalar("chameleon_win_media_bytes_read").unwrap_or(0.0) as u64),
        m.scalar("chameleon_win_fences").unwrap_or(0.0) as u64,
    ));

    // Replication floors, when the node is a primary with subscribers
    // (shipped/acked from the hub) or a replica (received/applied). The
    // windowed pair shows shipping rate and the live lag gauge.
    if let Some(lag) = m.scalar("chameleon_repl_lag") {
        let floor = |n: &str| m.scalar(&format!("chameleon_repl_{n}")).unwrap_or(0.0) as u64;
        let role_floors = if m.scalar("chameleon_repl_subscribers").is_some() {
            format!(
                "shipped {}  min-acked {}  subscribers {}",
                floor("shipped"),
                floor("min_acked"),
                floor("subscribers"),
            )
        } else {
            format!(
                "received {}  applied {}  acked {}",
                floor("received"),
                floor("applied"),
                floor("acked"),
            )
        };
        out.push_str(&format!(
            "  repl: {role_floors}  lag {}  (win: shipped {}  lag {})\n",
            lag as u64,
            m.scalar("chameleon_win_repl_shipped").unwrap_or(0.0) as u64,
            m.scalar("chameleon_win_repl_lag").unwrap_or(0.0) as u64,
        ));
    }

    let stages = m.label_values("chameleon_trace_stage_count", "stage");
    if !stages.is_empty() {
        out.push_str(&format!(
            "  {:<16} {:>9} {:>10} {:>10}\n",
            "trace stage", "count", "p50", "p99"
        ));
        for st in &stages {
            let l = |q: &str| {
                m.labeled(
                    "chameleon_trace_stage_ns",
                    &[("stage", st), ("quantile", q)],
                )
                .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64))
            };
            out.push_str(&format!(
                "  {:<16} {:>9} {:>10} {:>10}\n",
                st,
                m.labeled("chameleon_trace_stage_count", &[("stage", st)])
                    .unwrap_or(0.0) as u64,
                l("0.5"),
                l("0.99"),
            ));
        }
    }

    let counter = |n: &str| m.scalar(&format!("chameleon_server_{n}")).unwrap_or(0.0) as u64;
    out.push_str(&format!(
        "  totals: requests {}  puts {}  gets {}  deletes {}  conns {}  early-acks {}  trace-reqs {}\n",
        counter("requests"),
        counter("puts"),
        counter("gets"),
        counter("deletes"),
        counter("connections"),
        counter("early_acks"),
        counter("trace_reqs"),
    ));
    out
}

pub fn run(opts: &Opts) {
    let port = opts.http_port.unwrap_or(7879);
    let addr = format!("127.0.0.1:{port}");
    super::serve::install_stop_handlers();
    println!("repro top: polling http://{addr}/metrics (ctrl-c to quit)");

    let mut frames = 0u32;
    let mut waiting_reported = false;
    while !super::serve::STOP.load(Ordering::SeqCst) {
        match http_get(&addr, "/metrics") {
            Ok((200, body)) => {
                waiting_reported = false;
                print!("{}", frame(&body, &addr, !opts.quick));
                std::io::Write::flush(&mut std::io::stdout()).ok();
                frames += 1;
                if opts.quick && frames >= 3 {
                    break;
                }
            }
            Ok((status, _)) => {
                eprintln!("repro top: /metrics returned HTTP {status}");
                std::process::exit(1);
            }
            Err(e) => {
                if !waiting_reported {
                    eprintln!("repro top: waiting for server at {addr} ({e})");
                    waiting_reported = true;
                }
                if opts.quick {
                    frames += 1;
                    if frames >= 30 {
                        eprintln!("repro top: no server after 30 attempts, giving up");
                        std::process::exit(1);
                    }
                }
            }
        }
        // 1s refresh, sliced so ctrl-c lands promptly.
        for _ in 0..20 {
            if super::serve::STOP.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPO: &str = "# TYPE chameleon_win_seq gauge\n\
        chameleon_win_seq 7\n\
        chameleon_win_ops_per_sec 123.5\n\
        chameleon_win_op_count{op=\"put\"} 42\n\
        chameleon_win_op_latency_ns{op=\"put\",quantile=\"0.99\"} 9000\n";

    #[test]
    fn parses_samples_and_labels() {
        let m = Metrics(parse_prometheus(EXPO).unwrap());
        assert_eq!(m.scalar("chameleon_win_seq"), Some(7.0));
        assert_eq!(m.scalar("chameleon_win_ops_per_sec"), Some(123.5));
        assert_eq!(
            m.labeled("chameleon_win_op_count", &[("op", "put")]),
            Some(42.0)
        );
        assert_eq!(
            m.labeled(
                "chameleon_win_op_latency_ns",
                &[("op", "put"), ("quantile", "0.99")]
            ),
            Some(9000.0)
        );
        assert_eq!(m.labeled("chameleon_win_op_count", &[("op", "get")]), None);
        assert_eq!(m.label_values("chameleon_win_op_count", "op"), vec!["put"]);
        assert_eq!(m.0.len(), 4);
        let shown = frame(EXPO, "host:1", false);
        assert!(shown.contains("window #7"), "{shown}");
    }

    #[test]
    fn malformed_scrape_renders_one_error_line() {
        let body = format!("{EXPO}garbage line without value-number x\n");
        let shown = frame(&body, "host:1", false);
        assert!(shown.starts_with("repro top: malformed scrape from host:1: line 6:"));
        assert_eq!(shown.lines().count(), 1, "{shown}");
    }
}
