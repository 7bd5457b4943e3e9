//! `ycsb-e` — range scans end-to-end over the ordered key index.
//!
//! Two phases. The embedded phase measures what the ordered index costs
//! the point-op path: the same YCSB-A run (simulated time, identical
//! seeds) with the index off and on must keep get/put p99.9 within 10%,
//! then YCSB-E (95% scan / 5% insert) runs against the indexed store.
//! The TCP phase is the adversarial one: a kvserver with four scanner
//! clients running the YCSB-E mix over the wire while four writer
//! clients append durable puts, and *every* scan result is audited with
//! [`integration::history`]: strictly sorted, no key that no cut of its
//! writer between the floors before and after the scan holds (a
//! phantom), and no key every such cut holds missing below the last key
//! returned (a hole). Preloaded keys are one writer's acked puts.
//! Periodic frontier scans cover the whole writer region, so they also
//! prove no acked write is ever missing from a scan that covers it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use chameleon_obs::ServerObs;
use chameleondb::{ChameleonConfig, ChameleonDb};
use integration::history::{History, Op};
use kvapi::mix64;
use kvclient::Client;
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{Histogram, PmemDevice};
use serde::Serialize;
use ycsb::{Distribution, KeyChooser, RunResult, Workload};

use super::{load_store, run_workload};
use crate::util::{header, Opts};

/// Churn keys live far above the preloaded range so scans that start in
/// the stable region only cross into them after exhausting it. Scanner
/// inserts sit below the writer region so frontier scans (start =
/// `WRITER_BASE`) see writer stripes only.
const SCANNER_BASE: u64 = 1 << 40;
const WRITER_BASE: u64 = 1 << 41;
const STRIPE_SHIFT: u32 = 32;
const WRITERS: usize = 4;
const SCANNERS: usize = 4;
/// Frontier audits scan `[WRITER_BASE, ..)` with this limit; the writer
/// op budget keeps the total writer-key count under it so the audit
/// always sees every stripe uncut.
const FRONTIER_LIMIT: u32 = 4096;

/// One embedded YCSB-A measurement (simulated time).
#[derive(Debug, Clone, Serialize)]
pub struct PointOpRow {
    pub config: String,
    pub get_p50_ns: u64,
    pub get_p99_ns: u64,
    pub get_p999_ns: u64,
    pub put_p50_ns: u64,
    pub put_p99_ns: u64,
    pub put_p999_ns: u64,
    pub mops_per_sec: f64,
}

/// The embedded YCSB-E measurement (simulated time).
#[derive(Debug, Clone, Serialize)]
pub struct LocalERow {
    pub records: u64,
    pub ops: u64,
    pub scans: u64,
    pub inserts: u64,
    pub scanned_keys: u64,
    pub keys_per_scan: f64,
    pub scan_p50_ns: u64,
    pub scan_p99_ns: u64,
    pub insert_p99_ns: u64,
    pub mops_per_sec: f64,
}

/// The TCP phase: audited scans racing concurrent durable writers.
#[derive(Debug, Clone, Serialize)]
pub struct TcpRow {
    pub records: u64,
    pub writers: usize,
    pub scanners: usize,
    pub writer_puts: u64,
    pub scanner_inserts: u64,
    pub scans: u64,
    pub frontier_audits: u64,
    pub keys_returned: u64,
    /// Client-observed wall-clock scan latency (kvclient histograms).
    pub scan_p50_us: f64,
    pub scan_p99_us: f64,
    pub scan_p999_us: f64,
    pub put_p50_us: f64,
    pub put_p99_us: f64,
    pub retries: u64,
    pub wall_secs: f64,
    pub server_scans: u64,
}

fn new_store(dev: &Arc<PmemDevice>, ordered: bool) -> ChameleonDb {
    let mut cfg = ChameleonConfig::with_shards(64);
    cfg.obs = chameleon_obs::ObsConfig::on();
    cfg.ordered_index = ordered;
    ChameleonDb::create(Arc::clone(dev), cfg).expect("ycsb-e: store create failed")
}

fn point_row(config: &str, r: &RunResult) -> PointOpRow {
    PointOpRow {
        config: config.into(),
        get_p50_ns: r.read_hist.median(),
        get_p99_ns: r.read_hist.quantile(0.99),
        get_p999_ns: r.read_hist.quantile(0.999),
        put_p50_ns: r.write_hist.median(),
        put_p99_ns: r.write_hist.quantile(0.99),
        put_p999_ns: r.write_hist.quantile(0.999),
        mops_per_sec: r.sum_rate_ops_per_ns * 1e3,
    }
}

/// Embedded phase: the point-op tax of maintaining the ordered index,
/// then YCSB-E itself. Identical seeds and simulated time make the
/// comparison deterministic, so the 10% budget is a real regression
/// gate, not a wall-clock coin flip.
fn local_phase(opts: &Opts) -> (PointOpRow, PointOpRow, LocalERow) {
    let threads = opts.threads.clamp(1, 8);
    // Keys divisible by the thread count so the load phase populates
    // exactly [0, records) (the driver stripes inserts across threads).
    let records = (opts.keys / 10).clamp(10_000, 200_000) / threads as u64 * threads as u64;
    let ops = (opts.ops / 5).clamp(20_000, 200_000);
    println!("  embedded: {records} records, {ops} ops, {threads} threads (simulated time)\n");

    let mut rows = Vec::new();
    for ordered in [false, true] {
        let dev = PmemDevice::optane(1 << 30);
        let store = new_store(&dev, ordered);
        load_store(&store, &dev, records, threads);
        let a = run_workload(&store, &dev, Workload::A, records, ops, threads);
        rows.push(point_row(
            if ordered { "ordered-index" } else { "baseline" },
            &a,
        ));
    }
    let indexed = rows.pop().expect("indexed row");
    let baseline = rows.pop().expect("baseline row");

    println!("  YCSB-A        get p50     p99     p99.9   put p50     p99     p99.9   Mops/s");
    for r in [&baseline, &indexed] {
        println!(
            "  {:<13} {:>7} {:>7} {:>9} {:>9} {:>7} {:>9} {:>8.2}",
            r.config,
            r.get_p50_ns,
            r.get_p99_ns,
            r.get_p999_ns,
            r.put_p50_ns,
            r.put_p99_ns,
            r.put_p999_ns,
            r.mops_per_sec,
        );
    }

    // The acceptance gate: get/put p99.9 within 10% of the index-off
    // baseline (plus a small absolute floor for quantile granularity).
    let budget = |base: u64| base + base / 10 + 500;
    assert!(
        indexed.get_p999_ns <= budget(baseline.get_p999_ns),
        "ordered index regressed get p99.9 beyond 10%: {} -> {} sim-ns",
        baseline.get_p999_ns,
        indexed.get_p999_ns
    );
    assert!(
        indexed.put_p999_ns <= budget(baseline.put_p999_ns),
        "ordered index regressed put p99.9 beyond 10%: {} -> {} sim-ns",
        baseline.put_p999_ns,
        indexed.put_p999_ns
    );

    // YCSB-E against a freshly loaded indexed store.
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev, true);
    load_store(&store, &dev, records, threads);
    let e = run_workload(&store, &dev, Workload::E, records, ops, threads);
    let scans = e.scan_hist.count();
    assert!(scans > 0 && e.scanned_keys > 0, "YCSB-E ran no scans");
    let e_row = LocalERow {
        records,
        ops: e.ops,
        scans,
        inserts: e.write_hist.count(),
        scanned_keys: e.scanned_keys,
        keys_per_scan: e.scanned_keys as f64 / scans as f64,
        scan_p50_ns: e.scan_hist.median(),
        scan_p99_ns: e.scan_hist.quantile(0.99),
        insert_p99_ns: e.write_hist.quantile(0.99),
        mops_per_sec: e.sum_rate_ops_per_ns * 1e3,
    };
    println!(
        "\n  YCSB-E: {} scans ({:.1} keys/scan, p50 {}ns p99 {}ns), {} inserts, {:.2} Mops/s",
        e_row.scans,
        e_row.keys_per_scan,
        e_row.scan_p50_ns,
        e_row.scan_p99_ns,
        e_row.inserts,
        e_row.mops_per_sec,
    );
    (baseline, indexed, e_row)
}

fn next_rand(state: &mut u64) -> u64 {
    *state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
    *state
}

/// One `scan(start, len)` over the wire, audited against `h` between
/// two floor snapshots; returns how many keys it returned.
fn audited_scan(c: &mut Client, h: &History, start: u64, len: u32) -> u64 {
    let before = h.floors();
    let keys = c.scan(start, len).expect("ycsb-e: scan");
    if let Err(e) = h.scan(start, len as usize, &keys, &before, &h.floors()) {
        panic!("ycsb-e: {e}");
    }
    keys.len() as u64
}

/// One scripted durable put over the wire; returns its retries.
fn put(c: &mut Client, op: &Op) -> std::io::Result<u64> {
    let Op::Put(k, v) = op else {
        unreachable!("ycsb-e scripts only put")
    };
    c.put_retrying(*k, v, true)
}

#[derive(Default)]
struct ScanTally {
    scans: u64,
    frontier_audits: u64,
    inserts: u64,
    keys_returned: u64,
    scan_lat: Histogram,
}

/// TCP phase: YCSB-E scanner clients audit every result while writer
/// clients append durable puts through the same server.
fn tcp_phase(opts: &Opts) -> TcpRow {
    let records: u64 = if opts.quick { 4_000 } else { 20_000 };
    let writer_ops: u64 = if opts.quick { 300 } else { 800 };
    let scanner_ops: u64 = if opts.quick { 400 } else { 1_500 };
    assert!(
        WRITERS as u64 * writer_ops <= FRONTIER_LIMIT as u64,
        "writer region must fit in one frontier scan"
    );
    println!(
        "\n  TCP: {records} preloaded records, {WRITERS} writers x {writer_ops} durable puts, \
         {SCANNERS} scanners x {scanner_ops} YCSB-E ops, every scan audited\n"
    );

    let dev = PmemDevice::optane(1 << 30);
    let store = Arc::new(new_store(&dev, true));
    load_store(store.as_ref(), &dev, records, 4);
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        ServerConfig::default(),
    )
    .expect("ycsb-e: bind failed");
    let addr = server.local_addr();

    // Writer 0 is the preload (its values are the driver's and never
    // read here), then the writers' stripes, then each scanner's inserts.
    let stripe = |base: u64, w: usize, n: u64, byte: u8| -> Vec<Op> {
        (0..n)
            .map(|i| Op::Put(base | ((w as u64) << STRIPE_SHIFT) | i, vec![byte; 64]))
            .collect()
    };
    let scripts = std::iter::once((0..records).map(|k| Op::Put(k, Vec::new())).collect())
        .chain((0..WRITERS).map(|w| stripe(WRITER_BASE, w, writer_ops, 0xE5)))
        .chain((0..SCANNERS).map(|s| stripe(SCANNER_BASE, s, scanner_ops, 0x5C)));
    let h = &History::new(scripts.collect());
    h.issue(0, records);
    h.ack(0, records);

    let started = Instant::now();
    let (writer_out, scanner_out): (Vec<(Histogram, u64)>, Vec<ScanTally>) = thread::scope(|sc| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                sc.spawn(move || {
                    let mut c = Client::connect(addr).expect("ycsb-e: writer connect");
                    let mut retries = 0u64;
                    h.drive(1 + w, 0, writer_ops, |op| {
                        put(&mut c, op).map(|r| retries += r)
                    })
                    .expect("ycsb-e: writer put");
                    (c.latencies().put.clone(), retries)
                })
            })
            .collect();
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|s| {
                sc.spawn(move || {
                    let mut c = Client::connect(addr).expect("ycsb-e: scanner connect");
                    let mut chooser =
                        KeyChooser::new(Distribution::Zipfian, records, 0xE5EED ^ s as u64);
                    let mut rng = (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut t = ScanTally::default();
                    for op in 0..scanner_ops {
                        if next_rand(&mut rng) % 100 < 95 {
                            let start = chooser.next_key();
                            let len = 1 + (next_rand(&mut rng) % 100) as u32;
                            t.keys_returned += audited_scan(&mut c, h, start, len);
                            t.scans += 1;
                        } else {
                            let n = t.inserts;
                            h.drive(1 + WRITERS + s, n, n + 1, |op| put(&mut c, op).map(drop))
                                .expect("ycsb-e: insert");
                            t.inserts += 1;
                        }
                        if op % 64 == 63 {
                            t.keys_returned += audited_scan(&mut c, h, WRITER_BASE, FRONTIER_LIMIT);
                            t.frontier_audits += 1;
                        }
                    }
                    t.scan_lat = c.latencies().scan.clone();
                    t
                })
            })
            .collect();
        (
            writers.into_iter().map(|h| h.join().unwrap()).collect(),
            scanners.into_iter().map(|h| h.join().unwrap()).collect(),
        )
    });
    let wall = started.elapsed();

    let mut put_lat = Histogram::new();
    let mut retries = 0u64;
    for (h, r) in &writer_out {
        put_lat.merge(h);
        retries += r;
    }
    let mut scan_lat = Histogram::new();
    let (mut scans, mut audits, mut inserts, mut keys_returned) = (0u64, 0u64, 0u64, 0u64);
    for t in &scanner_out {
        scan_lat.merge(&t.scan_lat);
        scans += t.scans;
        audits += t.frontier_audits;
        inserts += t.inserts;
        keys_returned += t.keys_returned;
    }
    assert!(
        scans > 0 && audits > 0 && inserts > 0,
        "mix never exercised a branch"
    );

    server.shutdown().expect("ycsb-e: shutdown");
    assert_eq!(
        obs.protocol_errors.load(Ordering::Relaxed),
        0,
        "ycsb-e: protocol errors on loopback"
    );
    let server_scans = obs.scans.load(Ordering::Relaxed);
    assert_eq!(
        server_scans,
        scans + audits,
        "server scan counter disagrees with the clients"
    );

    let row = TcpRow {
        records,
        writers: WRITERS,
        scanners: SCANNERS,
        writer_puts: WRITERS as u64 * writer_ops,
        scanner_inserts: inserts,
        scans,
        frontier_audits: audits,
        keys_returned,
        scan_p50_us: scan_lat.median() as f64 / 1e3,
        scan_p99_us: scan_lat.quantile(0.99) as f64 / 1e3,
        scan_p999_us: scan_lat.quantile(0.999) as f64 / 1e3,
        put_p50_us: put_lat.median() as f64 / 1e3,
        put_p99_us: put_lat.quantile(0.99) as f64 / 1e3,
        retries,
        wall_secs: wall.as_secs_f64(),
        server_scans,
    };
    println!(
        "  {} scans + {} frontier audits all clean ({} keys returned, {} violations)",
        row.scans, row.frontier_audits, row.keys_returned, 0
    );
    println!(
        "  scan p50 {:.1}us / p99 {:.1}us / p99.9 {:.1}us   put p50 {:.1}us / p99 {:.1}us   {:.1}s wall",
        row.scan_p50_us, row.scan_p99_us, row.scan_p999_us, row.put_p50_us, row.put_p99_us,
        row.wall_secs,
    );
    row
}

/// `repro ycsb-e`: the ordered-index point-op gate, embedded YCSB-E,
/// and the audited scan/write race over TCP.
pub fn run(opts: &Opts) {
    header("ycsb-e: range scans over the ordered key index");
    let (baseline, indexed, local_e) = local_phase(opts);
    let tcp = tcp_phase(opts);

    if let Some(dir) = &opts.out_dir {
        let d = dir.join("pr9_scan");
        std::fs::create_dir_all(&d).expect("create pr9_scan dir");
        let pct = |base: u64, now: u64| {
            if base == 0 {
                0.0
            } else {
                100.0 * (now as f64 - base as f64) / base as f64
            }
        };
        #[derive(Serialize)]
        struct Artifact {
            local_baseline: PointOpRow,
            local_indexed: PointOpRow,
            get_p999_delta_pct: f64,
            put_p999_delta_pct: f64,
            local_ycsb_e: LocalERow,
            tcp: TcpRow,
        }
        let payload = Artifact {
            get_p999_delta_pct: pct(baseline.get_p999_ns, indexed.get_p999_ns),
            put_p999_delta_pct: pct(baseline.put_p999_ns, indexed.put_p999_ns),
            local_baseline: baseline,
            local_indexed: indexed,
            local_ycsb_e: local_e,
            tcp,
        };
        let path = d.join("ycsb_e.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&payload).expect("serialize ycsb-e artifact"),
        )
        .expect("write ycsb-e artifact");
        println!("  [artifact] {}", path.display());
    }
}
