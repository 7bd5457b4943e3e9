//! `repro trace-dump` — drives a short force-traced workload against a
//! running `repro serve` instance, reads the span ring back over the wire
//! TRACE request, validates it, and exports Chrome `trace_event` JSON.
//!
//! Doubles as the CI trace smoke: it asserts at least one well-formed
//! span whose stage durations sum to no more than the span total, at
//! least one journal event (a mode round trip guarantees one, so the
//! Chrome export's engine track is never empty), and (when `--http-port`
//! is given) that the metrics sidecar serves valid Prometheus exposition
//! including the trace-stage series.

use chameleon_obs::export::parse_prometheus;
use chameleon_obs::trace::chrome_trace_json;
use kvclient::{Client, ModeArg};

use crate::util::{header, http_get, Opts};

const WRITE_STAGES: [&str; 5] = [
    "decode",
    "lane_enqueue",
    "batch_seal",
    "fence_complete",
    "ack_write",
];

pub fn run(opts: &Opts) {
    header("trace-dump: forced request tracing over the wire");
    let addr = format!("127.0.0.1:{}", opts.port);
    let mut c = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trace-dump: cannot connect to {addr}: {e}");
            eprintln!("start the server first: repro serve --port {}", opts.port);
            std::process::exit(1);
        }
    };

    // A small forced workload: every put carries the wire trace flag, so
    // this works even when the server's sampler is off.
    let puts = 16u64;
    for i in 0..puts {
        let key = 0xdead_0000 + i;
        let val = format!("trace-dump-{i}");
        c.put_traced(key, val.as_bytes(), true).expect("traced put");
        if i % 4 == 0 {
            c.get(key).expect("get");
        }
    }
    c.sync().expect("sync");
    // A Write-Intensive round trip journals its mode transitions, so the
    // payload carries engine events even when the puts flushed nothing.
    c.mode(ModeArg::WriteIntensive)
        .expect("MODE write-intensive");
    c.mode(ModeArg::Normal).expect("MODE normal");

    let payload = c.trace(512).expect("TRACE request");
    println!(
        "  {} spans, {} journal events in payload",
        payload.spans.len(),
        payload.events.len()
    );
    assert!(
        !payload.spans.is_empty(),
        "trace-dump: server returned no spans"
    );
    assert!(
        !payload.events.is_empty(),
        "trace-dump: server returned no journal events after a mode round trip"
    );

    let mut full_write_spans = 0usize;
    for s in &payload.spans {
        assert!(!s.stages.is_empty(), "span {} has no stages", s.id);
        assert!(
            s.stage_sum_ns() <= s.total_ns,
            "span {} stage sum {} exceeds total {}",
            s.id,
            s.stage_sum_ns(),
            s.total_ns
        );
        if WRITE_STAGES.iter().all(|st| s.stage_ns(st).is_some()) {
            full_write_spans += 1;
        }
    }
    assert!(
        full_write_spans > 0,
        "no span carries all write stages {WRITE_STAGES:?}"
    );
    println!(
        "  {} spans carry the full write pipeline ({})",
        full_write_spans,
        WRITE_STAGES.join(" -> ")
    );

    if let Some(s) = payload
        .spans
        .iter()
        .filter(|s| s.op == "put")
        .max_by_key(|s| s.total_ns)
    {
        println!("  slowest put span #{} ({} ns total):", s.id, s.total_ns);
        for (stage, ns) in &s.stages {
            println!("    {stage:<16} {ns:>10} ns");
        }
    }

    if let Some(dir) = &opts.out_dir {
        let dir = dir.join("pr6_tracing");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let chrome = dir.join("trace_chrome.json");
        let json = chrome_trace_json(&payload);
        assert!(
            json.contains("\"cat\":\"journal\",\"ph\":\"i\",\"pid\":2"),
            "Chrome trace has no journal instant on the engine track (pid 2)"
        );
        std::fs::write(&chrome, json).expect("write chrome trace");
        println!(
            "  [artifact] {} (load in chrome://tracing)",
            chrome.display()
        );
    }

    if let Some(port) = opts.http_port {
        let http = format!("127.0.0.1:{port}");
        let (status, body) = http_get(&http, "/metrics").expect("GET /metrics");
        assert_eq!(status, 200, "/metrics returned {status}");
        let samples = parse_prometheus(&body).expect("valid Prometheus exposition");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "chameleon_trace_stage_count"),
            "/metrics is missing trace-stage series"
        );
        println!(
            "  /metrics: {} valid samples incl. trace-stage series",
            samples.len()
        );
    }

    println!("trace-dump: OK");
}
