//! `serve` / `serve-bench` — the kvserver service layer.
//!
//! `serve` runs a kvserver over a fresh simulated device on
//! `127.0.0.1:<--port>` until SIGINT/SIGTERM, then shuts down gracefully
//! (drains the commit queue, takes a final checkpoint) and prints the
//! observability snapshot.
//!
//! `serve-bench` holds the two service-layer measurements `kvbench` does
//! not carry yet: `--conns N` runs the same offered load over 16 and over
//! N connections and asserts a constant service-thread count and no
//! catastrophic tail; `--open-loop` sweeps offered load with a
//! coordinated-omission-free generator. What group commit and request
//! tracing cost is measured by kvbench's `serve-put` / `serve-mixed`
//! workloads (`kvserver.mean_batch_ops`, `fences_per_put`,
//! `media_write_bytes_per_put`, `rmw_blocks_per_put`,
//! `chameleon-obs.traced_ops_share`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use chameleon_obs::{ServerObs, TraceConfig};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvclient::openloop::{self, OpenLoopConfig, OpenLoopReport};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::PmemDevice;
use serde::Serialize;

use crate::util::{header, Opts};

/// Store geometry for the service-layer runs (service defaults, not the
/// paper profile). Observability is on so the windowed telemetry has
/// per-op histograms to delta.
fn serve_store_config() -> ChameleonConfig {
    let mut cfg = ChameleonConfig::with_shards(64);
    cfg.obs = chameleon_obs::ObsConfig::on();
    cfg
}

fn new_store(dev: &Arc<PmemDevice>) -> Arc<ChameleonDb> {
    Arc::new(
        ChameleonDb::create(Arc::clone(dev), serve_store_config())
            .expect("serve: store create failed"),
    )
}

// Minimal signal hookup without a libc dependency: POSIX `signal` with a
// handler that sets a flag the serve loop polls.
pub(crate) static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

pub(crate) fn install_stop_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `repro serve`: run a server until SIGINT/SIGTERM.
pub fn serve(opts: &Opts) {
    header("kvserver: TCP service layer with group-commit durability");
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    let obs = Arc::new(ServerObs::new());
    let cfg = ServerConfig {
        trace: if opts.trace > 0 {
            TraceConfig::sampled(opts.trace)
        } else {
            TraceConfig::off()
        },
        http_addr: opts.http_port.map(|p| format!("127.0.0.1:{p}")),
        ..ServerConfig::default()
    };
    let server = KvServer::start(
        &format!("127.0.0.1:{}", opts.port),
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        cfg.clone(),
    )
    .expect("serve: bind failed");
    install_stop_handlers();
    println!(
        "  listening on {} (one commit queue, max batch {}) — ctrl-c to stop",
        server.local_addr(),
        cfg.max_batch,
    );
    if opts.trace > 0 {
        println!(
            "  tracing 1/{} requests (ring of {} spans; fetch with `repro trace-dump`)",
            opts.trace, cfg.trace.ring_capacity
        );
    }
    if let Some(http) = server.http_addr() {
        println!("  metrics sidecar on http://{http}/metrics (and /snapshot.json; watch with `repro top`)");
    }

    while !STOP.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(50));
        if opts.progress {
            let reqs = obs.requests.load(Ordering::Relaxed);
            if reqs > 0 && reqs.is_multiple_of(1 << 16) {
                eprintln!("[serve] {reqs} requests served");
            }
        }
    }

    println!("\n  signal received: draining the commit queue and checkpointing...");
    let windows = server.windows();
    let tracer = server.tracer();
    match server.shutdown() {
        Ok(()) => println!("  clean shutdown"),
        Err(e) => eprintln!("  shutdown error: {e}"),
    }
    let ctx = pmem_sim::ThreadCtx::with_default_cost();
    let mut snap = store.obs_snapshot_with(ctx.clock.now(), vec![obs.section(), tracer.section()]);
    snap.windows = windows.windows();
    snap.trace_stages = tracer.stage_summaries();
    println!(
        "  served {} requests over {} connections ({} batches, {} acks/fence x1000)",
        obs.requests.load(Ordering::Relaxed),
        obs.connections.load(Ordering::Relaxed),
        obs.batches.load(Ordering::Relaxed),
        obs.acks_per_fence_milli(),
    );
    if let Some(path) = &opts.obs_json {
        std::fs::write(path, snap.to_pretty_json()).expect("write obs json");
        std::fs::write(path.with_extension("prom"), snap.to_prometheus()).expect("write obs prom");
        println!("  [artifact] {}", path.display());
    }
}

/// `repro serve-bench --conns N [--open-loop]`: connection scaling and
/// the open-loop load sweep.
pub fn bench(opts: &Opts) {
    if opts.conns == 0 && !opts.open_loop {
        eprintln!(
            "serve-bench: pass --conns N and/or --open-loop (commit-policy and tracing \
             costs are kvbench rows now: serve-put / serve-mixed)"
        );
        std::process::exit(2);
    }
    if opts.conns > 0 {
        connection_scaling(opts);
    }
    if opts.open_loop {
        open_loop_sweep(opts);
    }
}

/// One measured configuration of the connection-scaling comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ConnScaleRow {
    pub conns: usize,
    /// Total service threads the server ran (acceptor + I/O workers +
    /// sampler) — constant in the connection count.
    pub server_threads: usize,
    pub offered_per_sec: u64,
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub retries: u64,
    pub errors: u64,
    pub unanswered: u64,
    /// Coordinated-omission-free latency (from each request's scheduled
    /// send time), microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// Drives `conns` connections at `rate` req/s from a few generator
/// threads and merges what they saw.
fn drive_open_loop(
    addr: std::net::SocketAddr,
    conns: usize,
    rate: u64,
    duration: Duration,
    gen_threads: usize,
) -> OpenLoopReport {
    let gen_threads = gen_threads.clamp(1, conns);
    let reports: Vec<OpenLoopReport> = thread::scope(|s| {
        let handles: Vec<_> = (0..gen_threads)
            .map(|t| {
                // Distribute remainders so every connection is driven.
                let conns_here = conns / gen_threads + usize::from(t < conns % gen_threads);
                let rate_here = (rate / gen_threads as u64).max(1);
                let cfg = OpenLoopConfig {
                    conns: conns_here,
                    rate_per_sec: rate_here,
                    duration,
                    get_fraction: 0.5,
                    max_outstanding: 64,
                    seed: 0x9E3779B97F4A7C15 ^ ((t as u64 + 1) << 32),
                    ..OpenLoopConfig::default()
                };
                s.spawn(move || openloop::run(addr, &cfg).expect("open-loop run"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = reports.into_iter();
    let mut total = merged.next().expect("at least one generator");
    for r in merged {
        total.merge(&r);
    }
    total
}

/// A default-config server over a fresh store, for the open-loop runs.
fn start_default_server() -> KvServer {
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    KvServer::start(
        "127.0.0.1:0",
        dev,
        store,
        Arc::new(ServerObs::new()),
        ServerConfig::default(),
    )
    .expect("serve-bench: bind failed")
}

fn scale_row(
    conns: usize,
    server_threads: usize,
    rate: u64,
    report: &OpenLoopReport,
) -> ConnScaleRow {
    ConnScaleRow {
        conns,
        server_threads,
        offered_per_sec: rate,
        offered: report.offered,
        completed: report.completed,
        shed: report.shed,
        retries: report.retries,
        errors: report.errors,
        unanswered: report.unanswered,
        p50_us: report.latency.median() as f64 / 1e3,
        p99_us: report.latency.quantile(0.99) as f64 / 1e3,
        max_us: report.latency.max() as f64 / 1e3,
    }
}

/// One connection-scaling run: a fresh server driven open-loop over
/// `conns` connections.
fn run_scale(conns: usize, rate: u64, duration: Duration, gen_threads: usize) -> ConnScaleRow {
    let server = start_default_server();
    let server_threads = server.thread_count();
    let report = drive_open_loop(server.local_addr(), conns, rate, duration, gen_threads);
    server.shutdown().expect("serve-bench: dirty shutdown");
    scale_row(conns, server_threads, rate, &report)
}

fn print_scale_rows(rows: &[&ConnScaleRow]) {
    println!("   conns  srv-thr  offered/s  completed      shed   p50        p99");
    for r in rows {
        println!(
            "  {:>6}  {:>7}  {:>9}  {:>9}  {:>8}  {:>8.1}us {:>8.1}us",
            r.conns, r.server_threads, r.offered_per_sec, r.completed, r.shed, r.p50_us, r.p99_us,
        );
    }
}

/// Connection scaling: the server at `--conns` connections versus the
/// same server at 16, same offered load, latency measured open-loop (no
/// coordinated omission).
fn connection_scaling(opts: &Opts) {
    header("serve-bench: connection scaling (16 vs --conns connections)");
    let conns = opts.conns;
    let (rate, duration) = if opts.quick {
        (2_000u64, Duration::from_secs(1))
    } else {
        (5_000u64, Duration::from_secs(2))
    };
    println!(
        "  offered load {rate} req/s (50% durable put / 50% get) for {duration:?}, open-loop\n"
    );

    let base = run_scale(16, rate, duration, 2);
    let wide = run_scale(conns, rate, duration, 4);
    print_scale_rows(&[&base, &wide]);
    println!(
        "\n  served {}x the connections on the same {} service threads",
        conns / 16,
        wide.server_threads,
    );

    // Acceptance: a fixed thread pool, and a tail no worse than the
    // 16-connection run at the same offered load. The latency bound is
    // deliberately loose — wall-clock on a shared machine — and exists
    // to catch catastrophic regressions, not to benchmark noise.
    assert!(
        wide.server_threads <= 16,
        "{} conns used {} service threads (want <= 16)",
        conns,
        wide.server_threads
    );
    assert_eq!(
        wide.server_threads, base.server_threads,
        "service thread count moved with the connection count"
    );
    assert!(
        wide.completed > 0,
        "no requests completed at {conns} connections"
    );
    assert!(
        wide.p99_us <= base.p99_us * 10.0 + 10_000.0,
        "p99 {}us at {} conns catastrophically worse than {}us at 16",
        wide.p99_us,
        conns,
        base.p99_us
    );

    if let Some(dir) = &opts.out_dir {
        let d = dir.join("pr7_reactor");
        std::fs::create_dir_all(&d).expect("create pr7_reactor dir");
        let path = d.join("connection_scaling.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&vec![&base, &wide]).expect("serialize scaling"),
        )
        .expect("write scaling artifact");
        println!("  [artifact] {}", path.display());
    }
}

/// Offered-load sweep: latency and shed rate as the schedule outruns the
/// store, the honest way (shed requests counted, never delayed).
fn open_loop_sweep(opts: &Opts) {
    header("serve-bench: open-loop latency vs offered load");
    let conns = if opts.conns > 0 { opts.conns } else { 64 };
    let (rates, duration): (&[u64], Duration) = if opts.quick {
        (&[1_000, 4_000], Duration::from_secs(1))
    } else {
        (&[2_000, 5_000, 10_000, 20_000], Duration::from_secs(2))
    };
    println!("  {conns} connections, 50% durable put / 50% get, latency from scheduled send\n");

    let server = start_default_server();
    let server_threads = server.thread_count();

    let mut rows = Vec::new();
    for &rate in rates {
        let report = drive_open_loop(server.local_addr(), conns, rate, duration, 4);
        rows.push(scale_row(conns, server_threads, rate, &report));
    }
    server.shutdown().expect("serve-bench: dirty shutdown");
    print_scale_rows(&rows.iter().collect::<Vec<_>>());
    for r in &rows {
        assert!(
            r.completed > 0,
            "no completions at offered load {}",
            r.offered_per_sec
        );
    }

    if let Some(dir) = &opts.out_dir {
        let d = dir.join("pr7_reactor");
        std::fs::create_dir_all(&d).expect("create pr7_reactor dir");
        let path = d.join("open_loop_sweep.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&rows).expect("serialize sweep"),
        )
        .expect("write sweep artifact");
        println!("  [artifact] {}", path.display());
    }
}
