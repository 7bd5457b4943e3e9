//! Multi-threaded integration tests: concurrent correctness and
//! simulated-time sanity across the stores.

use std::sync::Arc;

use baselines::{
    CcehConfig, DramHash, DramHashConfig, LsmVariant, PmemHash, PmemLsm, PmemLsmConfig,
};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvlog::LogConfig;
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

fn small_log() -> LogConfig {
    LogConfig {
        capacity: 256 << 20,
        ..LogConfig::default()
    }
}

/// Each thread writes and reads its own key range concurrently; afterwards
/// a single thread audits everything.
fn hammer(store: &dyn KvStore, dev: &PmemDevice) {
    dev.set_active_threads(THREADS as u32);
    let cost = Arc::new(CostModel::default());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cost = Arc::clone(&cost);
            s.spawn(move || {
                let mut ctx = ThreadCtx::for_thread(cost, t);
                let base = (t as u64) << 32;
                let mut out = Vec::new();
                for i in 0..PER_THREAD {
                    let k = base + i;
                    store.put(&mut ctx, k, &k.to_le_bytes()).expect("put");
                    if i % 7 == 0 {
                        assert!(store.get(&mut ctx, k, &mut out).expect("get"));
                        assert_eq!(out, k.to_le_bytes());
                    }
                    if i % 13 == 0 && i > 0 {
                        store.delete(&mut ctx, base + i - 1).expect("delete");
                    }
                }
            });
        }
    });

    let mut ctx = ThreadCtx::with_default_cost();
    let mut out = Vec::new();
    for t in 0..THREADS as u64 {
        let base = t << 32;
        for i in 0..PER_THREAD {
            let k = base + i;
            let deleted = i + 1 < PER_THREAD && (i + 1) % 13 == 0;
            let got = store.get(&mut ctx, k, &mut out).expect("get");
            assert_eq!(got, !deleted, "key {k} presence (deleted={deleted})");
            if got {
                assert_eq!(out, k.to_le_bytes());
            }
        }
    }
}

#[test]
fn chameleondb_concurrent_hammer() {
    let dev = PmemDevice::optane(1 << 30);
    let mut cfg = ChameleonConfig::with_shards(32);
    cfg.memtable_slots = 128;
    cfg.log = small_log();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    hammer(&db, &dev);
}

#[test]
fn pmem_lsm_concurrent_hammer() {
    let dev = PmemDevice::optane(1 << 30);
    let mut cfg = PmemLsmConfig::with_shards(LsmVariant::Filter, 32);
    cfg.memtable_slots = 128;
    cfg.log = small_log();
    let db = PmemLsm::create(Arc::clone(&dev), cfg).unwrap();
    hammer(&db, &dev);
}

#[test]
fn cceh_concurrent_hammer() {
    let dev = PmemDevice::optane(1 << 30);
    let db = PmemHash::create(
        Arc::clone(&dev),
        CcehConfig {
            log: small_log(),
            ..CcehConfig::default()
        },
    )
    .unwrap();
    hammer(&db, &dev);
}

#[test]
fn dram_hash_concurrent_hammer() {
    let dev = PmemDevice::optane(1 << 30);
    let db = DramHash::create(
        Arc::clone(&dev),
        DramHashConfig {
            log: small_log(),
            ..DramHashConfig::default()
        },
    )
    .unwrap();
    hammer(&db, &dev);
}

/// Concurrent writers to the *same* keys: last writer (by log sequence)
/// must win after recovery, and no torn values may appear.
#[test]
fn concurrent_same_key_writes_are_atomic() {
    let dev = PmemDevice::optane(1 << 30);
    let mut cfg = ChameleonConfig::tiny();
    cfg.log = small_log();
    let db = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let cost = Arc::new(CostModel::default());
    std::thread::scope(|s| {
        for t in 0..4usize {
            let db = Arc::clone(&db);
            let cost = Arc::clone(&cost);
            s.spawn(move || {
                let mut ctx = ThreadCtx::for_thread(cost, t);
                for i in 0..5_000u64 {
                    // All threads fight over 64 keys; value encodes writer.
                    let k = i % 64;
                    let v = [t as u8; 24];
                    db.put(&mut ctx, k, &v).expect("put");
                }
            });
        }
    });
    let mut ctx = ThreadCtx::with_default_cost();
    let mut out = Vec::new();
    for k in 0..64u64 {
        assert!(db.get(&mut ctx, k, &mut out).unwrap());
        assert_eq!(out.len(), 24);
        // No torn value: all bytes identical.
        assert!(
            out.iter().all(|&b| b == out[0]),
            "torn value for {k}: {out:?}"
        );
    }
    // Same invariant after crash+recovery.
    let mut ctx2 = ThreadCtx::with_default_cost();
    db.sync(&mut ctx2).unwrap();
    drop(db);
    dev.crash();
    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx2).unwrap();
    for k in 0..64u64 {
        assert!(db.get(&mut ctx2, k, &mut out).unwrap());
        assert!(
            out.iter().all(|&b| b == out[0]),
            "torn after recovery for {k}"
        );
    }
}

/// Simulated throughput must improve with threads for a shard-parallel
/// store (sanity of the clock/contention model end to end).
#[test]
fn simulated_time_scales_with_threads() {
    let run = |threads: usize| -> u64 {
        let dev = PmemDevice::optane(1 << 30);
        let mut cfg = ChameleonConfig::with_shards(64);
        cfg.log = small_log();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
        dev.set_active_threads(threads as u32);
        let cost = Arc::new(CostModel::default());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let db = &db;
                    let cost = Arc::clone(&cost);
                    s.spawn(move || {
                        let mut ctx = ThreadCtx::for_thread(cost, t);
                        let base = (t as u64) << 40;
                        for i in 0..(80_000 / threads as u64) {
                            db.put(&mut ctx, base + i, b"12345678").expect("put");
                        }
                        ctx.clock.now()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap()
        })
    };
    let t1 = run(1);
    let t8 = run(8);
    assert!(
        t8 * 3 < t1,
        "8 threads should be at least 3x faster in simulated time: {t8} vs {t1}"
    );
}
