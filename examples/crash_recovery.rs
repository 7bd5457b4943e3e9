//! Crash recovery: demonstrate the persistence domain and the §2.3
//! restart-time trade-off of Write-Intensive Mode.
//!
//! The example loads a store, injects a power failure (dropping every
//! un-fenced cache line and all DRAM state), recovers from media alone, and
//! reports the simulated restart time — once for normal operation and once
//! for a crash during Write-Intensive Mode, which must replay the log.
//!
//! Run with: `cargo run --release -p chameleondb --example crash_recovery`

use chameleondb::{ChameleonConfig, ChameleonDb, Mode};
use kvapi::KvStore;
use pmem_sim::{PmemDevice, ThreadCtx};

const KEYS: u64 = 300_000;

fn main() {
    for wim in [false, true] {
        let mode = if wim {
            "Write-Intensive Mode"
        } else {
            "Normal mode"
        };
        println!("=== crash during {mode} ===");

        let dev = PmemDevice::optane(2 << 30);
        // The paper's engine: the restart times below are §2.3's
        // simulated-time trade-off, not a service-layer measurement.
        let mut cfg = ChameleonConfig::paper_with_shards(64);
        cfg.write_intensive = wim;
        let db = ChameleonDb::create(dev.clone(), cfg.clone()).expect("create");
        let mut ctx = ThreadCtx::with_default_cost();
        for k in 0..KEYS {
            db.put(&mut ctx, k, &k.to_le_bytes()).expect("put");
        }
        db.sync(&mut ctx).expect("sync");
        println!(
            "loaded {KEYS} keys in mode {:?}; {} MemTable flushes, {} WIM merges",
            db.mode(),
            db.metrics().flushes,
            db.metrics().wim_merges
        );
        drop(db);

        // Power failure: all volatile state is gone. Un-fenced lines in the
        // simulated persistence domain are rolled back.
        dev.crash();

        let mut rctx = ThreadCtx::with_default_cost();
        cfg.write_intensive = false;
        let db = ChameleonDb::recover(dev.clone(), cfg, &mut rctx).expect("recover");
        println!(
            "restart took {:.2}ms simulated ({} keys recovered)",
            rctx.clock.now() as f64 / 1e6,
            db.approx_len()
        );

        // Everything synced before the crash is intact.
        let mut out = Vec::new();
        for k in 0..KEYS {
            assert!(
                db.get(&mut rctx, k, &mut out).expect("get"),
                "key {k} lost in crash!"
            );
        }
        println!("all {KEYS} keys verified after restart\n");

        // The recovered store is fully operational, including mode changes.
        db.set_mode(Mode::WriteIntensive);
        db.put(&mut rctx, KEYS + 1, b"post-crash write")
            .expect("put");
        assert!(db.get(&mut rctx, KEYS + 1, &mut out).expect("get"));
    }
    println!("Note: the WIM restart is slower because the ABI contents were");
    println!("never persisted as L0 tables and must be replayed from the log");
    println!("(§2.3's trade of restart time for put performance).");
}
