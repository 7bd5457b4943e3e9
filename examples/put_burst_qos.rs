//! QoS under a put burst: the dynamic Get-Protect Mode (§2.4).
//!
//! Two threads share a store under the device's shared-queue contention
//! model: one issues gets and tracks windowed p99 latency, the other
//! injects a put burst midway. With GPM enabled, the store detects the
//! latency spike, suspends compactions, dumps the ABI instead of merging
//! it, and the tail latency is capped.
//!
//! Run with: `cargo run --release -p chameleondb --example put_burst_qos`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use chameleondb::{ChameleonConfig, ChameleonDb, GpmConfig};
use kvapi::KvStore;
use pmem_sim::{CostModel, Histogram, PmemDevice, ThreadCtx};

const KEYS: u64 = 200_000;
const GETS: u64 = 400_000;
const BURST_PUTS: u64 = 300_000;

fn run_one(gpm_enabled: bool) -> (u64, u64, u64) {
    let dev = PmemDevice::optane(2 << 30);
    // The paper's engine: §2.4 is about the putter's own compactions
    // competing with gets, so they must run on the putter's clock.
    let mut cfg = ChameleonConfig::paper_with_shards(64);
    cfg.gpm = GpmConfig {
        enabled: gpm_enabled,
        // Scaled for this small demo: the paper's production threshold is
        // 2000ns; our two-thread burst peaks lower than 16-thread bursts.
        enter_threshold_ns: 800,
        exit_threshold_ns: 700,
        window_ops: 512,
    };
    let db = Arc::new(ChameleonDb::create(dev.clone(), cfg).expect("create"));

    // Warm up.
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..KEYS {
        db.put(&mut ctx, k, &k.to_le_bytes()).expect("put");
    }
    db.sync(&mut ctx).expect("sync");

    // Burst phase under the shared-queue contention model.
    dev.set_queue_model(true);
    dev.set_active_threads(2);
    let cost = Arc::new(CostModel::default());
    let stop = AtomicBool::new(false);
    // The putter waits here until the getter has finished its quiet phase,
    // then fast-forwards its clock to the getter's instant so both sides
    // share one timeline.
    let burst_start = Barrier::new(2);
    let burst_instant = AtomicU64::new(0);

    let (quiet_p99, burst_p99) = std::thread::scope(|s| {
        let getter = {
            let db = Arc::clone(&db);
            let cost = Arc::clone(&cost);
            let stop = &stop;
            let burst_start = &burst_start;
            let burst_instant = &burst_instant;
            s.spawn(move || {
                let mut ctx = ThreadCtx::for_thread(cost, 0);
                let mut out = Vec::new();
                let mut rng = 7u64;
                let mut quiet = Histogram::new();
                let mut burst = Histogram::new();
                for i in 0..GETS {
                    if i == GETS / 4 {
                        // Quiet phase done: release the put burst.
                        burst_instant.store(ctx.clock.now(), Ordering::Relaxed);
                        burst_start.wait();
                    }
                    rng = kvapi::mix64(rng);
                    let t0 = ctx.clock.now();
                    db.get(&mut ctx, rng % KEYS, &mut out).expect("get");
                    let lat = ctx.clock.now() - t0;
                    if i < GETS / 4 {
                        quiet.record(lat);
                    } else if !stop.load(Ordering::Relaxed) {
                        burst.record(lat);
                    } else {
                        break;
                    }
                }
                (quiet.quantile(0.99), burst.quantile(0.99))
            })
        };
        let putter = {
            let db = Arc::clone(&db);
            let cost = Arc::clone(&cost);
            let stop = &stop;
            let burst_start = &burst_start;
            let burst_instant = &burst_instant;
            s.spawn(move || {
                burst_start.wait();
                // Start the burst at the getter's current instant.
                let mut ctx = ThreadCtx::for_thread(cost, 1);
                ctx.clock.catch_up_to(burst_instant.load(Ordering::Relaxed));
                let mut rng = 99u64;
                for i in 0..BURST_PUTS {
                    rng = kvapi::mix64(rng);
                    db.put(&mut ctx, rng % KEYS, &i.to_le_bytes()).expect("put");
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        putter.join().expect("putter");
        getter.join().expect("getter")
    });

    (quiet_p99, burst_p99, db.metrics().abi_dumps)
}

fn main() {
    println!("Get tail latency with a concurrent put burst (simulated ns):\n");
    for gpm in [false, true] {
        let (quiet, burst, dumps) = run_one(gpm);
        println!(
            "GPM {}: quiet p99 = {quiet}ns, burst p99 = {burst}ns ({:.2}x), ABI dumps: {dumps}",
            if gpm { "on " } else { "off" },
            burst as f64 / quiet.max(1) as f64,
        );
    }
    println!("\nWith GPM on, compactions are suspended during the spike (and a full");
    println!("ABI would be dumped to Pmem unmerged instead of paying a last-level");
    println!("merge). The effect grows with burst size — run the full experiment");
    println!("with: cargo run --release -p chameleon-bench --bin repro -- fig16");
}
