//! End-to-end tests of PR-6 observability: forced and sampled request
//! tracing over the wire, windowed telemetry, the plain-HTTP metrics
//! sidecar, and write-stall journal events.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use chameleon_obs::{EventKind, ObsConfig, ServerObs, TraceConfig};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvclient::Client;
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

fn test_store_config() -> ChameleonConfig {
    ChameleonConfig {
        memtable_slots: 4096,
        obs: ObsConfig::on(),
        ..ChameleonConfig::tiny()
    }
}

fn start_server(
    dev: &Arc<PmemDevice>,
    store: &Arc<ChameleonDb>,
    cfg: ServerConfig,
) -> (KvServer, std::net::SocketAddr) {
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(dev),
        Arc::clone(store),
        Arc::new(ServerObs::new()),
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// Minimal HTTP GET for the sidecar tests (`Connection: close`, body
/// read to EOF). Returns `(status, headers, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header break");
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

/// Acceptance: a client-forced durable PUT yields a span whose named
/// pipeline stages account for >= 90% of the server-side span total —
/// with rate sampling entirely off (the wire flag alone forces it).
#[test]
fn forced_put_span_stages_account_for_span_total() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            trace: TraceConfig::off(),
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    for key in 0..8u64 {
        c.put_traced(key, b"traced-put", true).unwrap();
    }
    c.sync().unwrap();

    let payload = c.trace(64).unwrap();
    let puts: Vec<_> = payload.spans.iter().filter(|s| s.op == "put").collect();
    assert!(!puts.is_empty(), "forced puts must record spans");

    let pipeline = [
        "decode",
        "lane_enqueue",
        "batch_seal",
        "engine_append",
        "engine_fence",
        "fence_complete",
        "ack_write",
    ];
    let mut full = 0usize;
    for s in &puts {
        assert!(s.forced, "span {} must be marked forced", s.id);
        assert_eq!(
            s.stage_sum_ns(),
            s.total_ns,
            "stage durations must sum exactly to the span total"
        );
        let named: u64 = pipeline.iter().filter_map(|st| s.stage_ns(st)).sum();
        assert!(
            named as f64 >= 0.9 * s.total_ns as f64,
            "span {}: named stages cover {} of {} ns (< 90%): {:?}",
            s.id,
            named,
            s.total_ns,
            s.stages
        );
        if pipeline.iter().all(|st| s.stage_ns(st).is_some()) {
            full += 1;
        }
    }
    assert!(
        full > 0,
        "at least one put must carry the full pipeline {pipeline:?}"
    );
    server.shutdown().unwrap();
}

/// Rate sampling (1/1) traces unforced requests, feeds the per-stage
/// histograms, and shows up in the STATS Prometheus rendering.
#[test]
fn sampled_traces_populate_stage_histograms_and_stats() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            trace: TraceConfig::sampled(1),
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    for key in 0..32u64 {
        c.put(key, b"sampled", true).unwrap();
        assert!(c.get(key).unwrap().is_some());
    }

    let summaries = server.tracer().stage_summaries();
    for stage in ["decode", "ack_write", "engine_probe"] {
        let s = summaries
            .iter()
            .find(|t| t.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from {summaries:?}"));
        assert!(s.count > 0);
    }

    let prom = c.stats(kvclient::StatsFormat::Prometheus).unwrap();
    for metric in [
        "chameleon_trace_stage_count{stage=\"batch_seal\"}",
        "chameleon_trace_stage_ns{stage=\"fence_complete\",quantile=\"0.99\"}",
        "chameleon_trace_spans_completed",
    ] {
        assert!(prom.contains(metric), "prometheus text missing {metric}");
    }
    server.shutdown().unwrap();
}

/// The telemetry sampler fills the windowed series under load: windows
/// accumulate, sequence numbers advance, the ring cap holds, and the
/// windows record the ops that happened inside them.
#[test]
fn windowed_series_populates_under_load() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            telemetry_interval: Duration::from_millis(25),
            window_cap: 4,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_millis(400);
    let mut key = 0u64;
    while std::time::Instant::now() < deadline {
        c.put(key, b"windowed", true).unwrap();
        key += 1;
    }

    let windows = server.windows().windows();
    assert!(
        windows.len() >= 2,
        "400ms at a 25ms interval must tick multiple windows"
    );
    assert!(windows.len() <= 4, "ring must respect window_cap");
    for pair in windows.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "window seqs must be dense");
    }
    let puts: u64 = windows
        .iter()
        .flat_map(|w| w.ops.iter())
        .filter(|o| o.op == "put")
        .map(|o| o.count)
        .sum();
    assert!(puts > 0, "windows must record the puts issued inside them");
    server.shutdown().unwrap();
}

/// The plain-HTTP sidecar serves `/metrics` (Prometheus exposition with
/// the windowed and trace series) and `/snapshot.json`, and answers 404
/// on unknown paths.
#[test]
fn http_sidecar_serves_metrics_and_snapshot() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            trace: TraceConfig::sampled(1),
            telemetry_interval: Duration::from_millis(25),
            window_cap: 8,
            http_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    );
    let http = server.http_addr().expect("sidecar must be up");

    let mut c = Client::connect(addr).unwrap();
    for key in 0..64u64 {
        c.put(key, b"scraped", true).unwrap();
        assert!(c.get(key).unwrap().is_some());
    }
    // Let at least one telemetry window close over the traffic.
    thread::sleep(Duration::from_millis(80));

    let (status, head, body) = http_get(http, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain"), "wrong content type: {head}");
    for metric in [
        "chameleon_server_requests",
        "chameleon_win_ops_per_sec",
        "chameleon_trace_stage_count",
    ] {
        assert!(body.contains(metric), "/metrics missing {metric}");
    }

    let (status, head, body) = http_get(http, "/snapshot.json");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"));
    for key in ["\"server\"", "\"windows\"", "\"trace_stages\""] {
        assert!(body.contains(key), "/snapshot.json missing {key}");
    }

    let (status, _, _) = http_get(http, "/bogus");
    assert_eq!(status, 404);

    server.shutdown().unwrap();
}

/// Satellite: a write-stall episode records paired journal events — one
/// `write_stall_enter` when the writer first blocks on the frozen queue,
/// one `write_stall_exit` carrying the episode's total blocked time.
#[test]
fn write_stall_episode_emits_journal_events() {
    // Torture config per reader_stress: tiny MemTables with one worker
    // and a frozen-queue cap of 1, so writers outrun maintenance and
    // must stall.
    let mut cfg = ChameleonConfig {
        obs: ObsConfig::on(),
        ..ChameleonConfig::tiny()
    };
    cfg.log = kvlog::LogConfig {
        capacity: 256 << 20,
        ..kvlog::LogConfig::default()
    };
    cfg.bg.workers = 1;
    cfg.bg.frozen_queue_cap = 1;

    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    dev.set_active_threads(2);
    let cost = Arc::new(CostModel::default());

    thread::scope(|s| {
        for w in 0..2usize {
            let db = &db;
            let cost = Arc::clone(&cost);
            s.spawn(move || {
                let mut ctx = ThreadCtx::for_thread(cost, w);
                for i in 0..20_000u64 {
                    let k = ((w as u64) << 32) | i;
                    db.put(&mut ctx, k, format!("stall-{k:x}").as_bytes())
                        .expect("put");
                }
            });
        }
    });

    assert!(
        db.metrics().write_stalls > 0,
        "torture config must stall writers"
    );
    let events = db.obs().journal().tail(4096);
    let enters = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WriteStallEnter { .. }))
        .count();
    let exits: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::WriteStallExit { stalled_ns, .. } => Some(stalled_ns),
            _ => None,
        })
        .collect();
    assert!(enters > 0, "no write_stall_enter event journaled");
    assert!(!exits.is_empty(), "no write_stall_exit event journaled");
    assert!(
        exits.iter().all(|&ns| ns > 0),
        "stall exits must carry the episode's blocked time"
    );
}
