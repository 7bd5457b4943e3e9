//! Reader-vs-maintenance stress: lock-free gets racing flushes, dumps,
//! WIM merges, and both compaction schemes.
//!
//! The contract under test (the epoch-published read path): an
//! acknowledged put is visible to any *subsequent* get on any thread,
//! and no get ever observes a torn slot or a value for the wrong key —
//! even while the shard's writer freezes MemTables, dumps ABIs, and
//! dooms compacted tables underneath the readers.
//!
//! Protocol: each writer owns a key range. A *stable* key is only ever
//! overwritten; after every put the writer publishes the new version in
//! a shared ack word (Release). A reader first loads the ack (Acquire),
//! then gets: if the ack claimed version `v`, the get MUST find the key
//! with version `>= v`. *Churn* keys are deleted and re-put, so readers
//! only check self-consistency on them (a hit must carry the right key);
//! a final single-threaded audit checks their end state.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use chameleondb::{ChameleonConfig, ChameleonDb, CompactionScheme, GpmConfig, Mode};
use kvapi::KvStore;
use kvlog::LogConfig;
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

const STABLE_PER_WRITER: u64 = 2048;
const CHURN_PER_WRITER: u64 = 256;

fn value_for(key: u64, version: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode(out: &[u8]) -> (u64, u64) {
    assert_eq!(out.len(), 16, "torn value: wrong length");
    (
        u64::from_le_bytes(out[..8].try_into().unwrap()),
        u64::from_le_bytes(out[8..].try_into().unwrap()),
    )
}

fn stable_key(writer: usize, i: u64) -> u64 {
    ((writer as u64) << 32) | i
}

fn churn_key(writer: usize, i: u64) -> u64 {
    ((writer as u64) << 32) | (1 << 24) | i
}

struct Stress {
    db: ChameleonDb,
    /// acks[writer][i]: latest acknowledged version of stable key i.
    acks: Vec<Vec<AtomicU64>>,
    writers_left: AtomicUsize,
    stop: AtomicBool,
}

/// Runs `writers` put threads (versioned overwrites + churn
/// delete/re-put) against `readers` get threads enforcing the ack-floor
/// protocol, then audits the end state single-threaded.
fn run_stress(cfg: ChameleonConfig, writers: usize, readers: usize, rounds: u64) -> Stress {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    dev.set_active_threads((writers + readers) as u32);
    let cost = Arc::new(CostModel::default());

    let st = Stress {
        db,
        acks: (0..writers)
            .map(|_| (0..STABLE_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        writers_left: AtomicUsize::new(writers),
        stop: AtomicBool::new(false),
    };

    crossbeam::thread::scope(|s| {
        for w in 0..writers {
            let st = &st;
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, w);
                for round in 1..=rounds {
                    for i in 0..STABLE_PER_WRITER {
                        let k = stable_key(w, i);
                        st.db.put(&mut ctx, k, &value_for(k, round)).expect("put");
                        // Ack: the put is now claimed visible to any
                        // subsequent get on any thread.
                        st.acks[w][i as usize].store(round, Ordering::Release);
                    }
                    for i in 0..CHURN_PER_WRITER {
                        let k = churn_key(w, i);
                        if round.is_multiple_of(2) {
                            st.db.delete(&mut ctx, k).expect("delete");
                        }
                        st.db.put(&mut ctx, k, &value_for(k, round)).expect("put");
                    }
                }
                if st.writers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    st.stop.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..readers {
            let st = &st;
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, writers + r);
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (r as u64) << 17;
                let mut out = Vec::new();
                while !st.stop.load(Ordering::Acquire) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let w = (rng >> 32) as usize % writers;
                    if rng.is_multiple_of(8) {
                        // Churn key: only self-consistency on a hit.
                        let k = churn_key(w, rng % CHURN_PER_WRITER);
                        if st.db.get(&mut ctx, k, &mut out).expect("get") {
                            let (vk, _) = decode(&out);
                            assert_eq!(vk, k, "hit returned a value for the wrong key");
                        }
                    } else {
                        let i = rng % STABLE_PER_WRITER;
                        let k = stable_key(w, i);
                        // Load the floor BEFORE the get: everything acked
                        // at this point must be visible to the probe.
                        let floor = st.acks[w][i as usize].load(Ordering::Acquire);
                        let found = st.db.get(&mut ctx, k, &mut out).expect("get");
                        if floor > 0 {
                            assert!(found, "stable key {k} acked at v{floor} but not found");
                            let (vk, vv) = decode(&out);
                            assert_eq!(vk, k, "hit returned a value for the wrong key");
                            assert!(
                                vv >= floor,
                                "stale read past ack: key {k} acked v{floor}, got v{vv}"
                            );
                        }
                    }
                }
            });
        }
    })
    .expect("scope");

    // Single-threaded end-state audit: every key holds its final version.
    let mut ctx = ThreadCtx::with_default_cost();
    let mut out = Vec::new();
    for w in 0..writers {
        for i in 0..STABLE_PER_WRITER {
            let k = stable_key(w, i);
            assert!(st.db.get(&mut ctx, k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(decode(&out), (k, rounds), "key {k} final version");
        }
        for i in 0..CHURN_PER_WRITER {
            let k = churn_key(w, i);
            assert!(st.db.get(&mut ctx, k, &mut out).unwrap(), "churn {k} lost");
            assert_eq!(decode(&out), (k, rounds), "churn {k} final version");
        }
    }
    st
}

fn stress_cfg() -> ChameleonConfig {
    let mut cfg = ChameleonConfig::tiny();
    cfg.log = LogConfig {
        capacity: 256 << 20,
        ..LogConfig::default()
    };
    cfg
}

/// Direct compaction under reader fire (the CI slice).
#[test]
fn readers_vs_maintenance_direct() {
    let st = run_stress(stress_cfg(), 2, 4, 3);
    let m = st.db.metrics();
    assert!(m.flushes > 0, "workload must drive flushes");
    assert!(m.mid_compactions > 0, "workload must drive mid compactions");
    assert!(m.view_publishes > 0, "transitions must republish views");
}

/// Level-by-level compaction under reader fire (the CI slice).
#[test]
fn readers_vs_maintenance_level_by_level() {
    let mut cfg = stress_cfg();
    cfg.compaction = CompactionScheme::LevelByLevel;
    let st = run_stress(cfg, 2, 4, 3);
    let m = st.db.metrics();
    assert!(m.flushes > 0 && m.mid_compactions > 0);
}

/// WIM merges and GPM ABI dumps under reader fire: a hair-trigger GPM
/// monitor flips the store into Get-Protect as soon as readers start, so
/// MemTables merge into the ABI and full ABIs dump unmerged — all while
/// readers keep probing the views those transitions replace.
#[test]
fn readers_vs_wim_merges_and_abi_dumps() {
    let mut cfg = stress_cfg();
    cfg.gpm = GpmConfig {
        enabled: true,
        enter_threshold_ns: 1, // first window enters GPM
        exit_threshold_ns: 0,  // never exits
        window_ops: 16,
    };
    cfg.max_abi_dumps = 2;
    // One shard so the test's ~4.6k distinct keys overflow its ~4096-slot
    // ABI and force unmerged dumps (and, past `max_abi_dumps`, the
    // dumped-table fold-back) — all of it under reader fire.
    cfg.shards = 1;
    let st = run_stress(cfg, 2, 4, 4);
    let m = st.db.metrics();
    assert_eq!(st.db.mode(), Mode::GetProtect);
    assert!(m.wim_merges > 0, "GPM must merge MemTables into the ABI");
    assert!(m.abi_dumps > 0, "full ABIs must dump unmerged under GPM");
}

/// Background-pipeline torture config: one worker and a frozen-queue
/// cap of 1, so the writers outrun maintenance and hit the backpressure
/// stall path while frozen tables sit reader-visible in the queue.
fn bg_torture_cfg() -> ChameleonConfig {
    let mut cfg = stress_cfg();
    cfg.bg.workers = 1;
    cfg.bg.frozen_queue_cap = 1;
    cfg
}

/// Background maintenance torture, direct scheme: readers enforce the
/// ack-floor protocol while the worker pool flushes and compacts behind
/// the puts, and the tiny frozen queue forces writers into stalls.
#[test]
fn readers_vs_background_pipeline_stalls_direct() {
    let st = run_stress(bg_torture_cfg(), 2, 4, 3);
    let m = st.db.metrics();
    assert!(m.flushes > 0, "workload must drive flushes");
    assert!(m.mid_compactions > 0, "workload must drive mid compactions");
    assert!(
        m.write_stalls > 0,
        "cap-1 frozen queue with one worker must backpressure the writers"
    );
}

/// Background maintenance torture under the level-by-level scheme.
#[test]
fn readers_vs_background_pipeline_stalls_level_by_level() {
    let mut cfg = bg_torture_cfg();
    cfg.compaction = CompactionScheme::LevelByLevel;
    let st = run_stress(cfg, 2, 4, 3);
    let m = st.db.metrics();
    assert!(m.flushes > 0 && m.mid_compactions > 0);
    assert!(m.write_stalls > 0, "torture config must stall writers");
}

/// Runtime mode switches while the background pipeline is saturated:
/// frozen tables enqueued under one mode may be processed under another
/// (mode is evaluated when the worker picks the job up), and readers
/// must never notice.
#[test]
fn readers_vs_background_pipeline_mode_switches() {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), bg_torture_cfg()).unwrap();
    dev.set_active_threads(3);
    let cost = Arc::new(CostModel::default());
    let stop = AtomicBool::new(false);
    let ack = AtomicU64::new(0);
    crossbeam::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let ack = &ack;
        let wcost = Arc::clone(&cost);
        s.spawn(move |_| {
            let mut ctx = ThreadCtx::for_thread(wcost, 0);
            for round in 1..=6u64 {
                db.set_mode(if round.is_multiple_of(2) {
                    Mode::WriteIntensive
                } else {
                    Mode::Normal
                });
                for i in 0..4096u64 {
                    db.put(&mut ctx, i, &value_for(i, round)).expect("put");
                    ack.store(round * 4096 + i, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Release);
        });
        for r in 0..2usize {
            let rcost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(rcost, 1 + r);
                let mut out = Vec::new();
                let mut x = 1u64 + r as u64;
                while !stop.load(Ordering::Acquire) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let floor = ack.load(Ordering::Acquire);
                    if floor == 0 {
                        continue;
                    }
                    let k = x % 4096;
                    if floor >= 4096 + k {
                        assert!(
                            db.get(&mut ctx, k, &mut out).expect("get"),
                            "acked key {k} missing (ack cursor {floor})"
                        );
                        let (vk, vv) = decode(&out);
                        assert_eq!(vk, k);
                        assert!(vv >= 1);
                    }
                }
            });
        }
    })
    .expect("scope");
    // Settle the pipeline, then audit the end state single-threaded.
    db.drain_maintenance().unwrap();
    let mut ctx = ThreadCtx::with_default_cost();
    let mut out = Vec::new();
    for k in 0..4096u64 {
        assert!(db.get(&mut ctx, k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(decode(&out), (k, 6));
    }
    let m = db.metrics();
    assert!(m.wim_merges > 0, "WIM phases must merge");
    assert!(m.flushes > 0, "Normal phases must flush");
}

/// The full-size variant (not part of the default CI slice).
#[test]
#[ignore = "long-running full stress; CI runs the quick slices above"]
fn readers_vs_maintenance_full() {
    let st = run_stress(stress_cfg(), 4, 8, 10);
    let m = st.db.metrics();
    assert!(m.last_compactions > 0, "full run must reach the last level");
}

/// Explicit runtime mode switches (Normal ↔ Write-Intensive) while
/// readers and a writer are live: switching must not disturb visibility.
#[test]
fn readers_vs_runtime_mode_switches() {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    dev.set_active_threads(3);
    let cost = Arc::new(CostModel::default());
    let stop = AtomicBool::new(false);
    let ack = AtomicU64::new(0);
    crossbeam::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let ack = &ack;
        let wcost = Arc::clone(&cost);
        s.spawn(move |_| {
            let mut ctx = ThreadCtx::for_thread(wcost, 0);
            for round in 1..=6u64 {
                db.set_mode(if round.is_multiple_of(2) {
                    Mode::WriteIntensive
                } else {
                    Mode::Normal
                });
                for i in 0..4096u64 {
                    db.put(&mut ctx, i, &value_for(i, round)).expect("put");
                    ack.store(round * 4096 + i, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Release);
        });
        for r in 0..2usize {
            let rcost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(rcost, 1 + r);
                let mut out = Vec::new();
                let mut x = 1u64 + r as u64;
                while !stop.load(Ordering::Acquire) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let floor = ack.load(Ordering::Acquire);
                    if floor == 0 {
                        continue;
                    }
                    // The ack cursor is round*4096+i; key k is guaranteed
                    // present once the round-1 put of k is acked.
                    let k = x % 4096;
                    if floor >= 4096 + k {
                        assert!(
                            db.get(&mut ctx, k, &mut out).expect("get"),
                            "acked key {k} missing (ack cursor {floor})"
                        );
                        let (vk, vv) = decode(&out);
                        assert_eq!(vk, k);
                        assert!(vv >= 1);
                    }
                }
            });
        }
    })
    .expect("scope");
    let m = db.metrics();
    assert!(m.wim_merges > 0, "WIM phases must merge");
    assert!(m.flushes > 0, "Normal phases must flush");
}

/// Post-restart degraded reads: before a shard's ABI is rebuilt, gets
/// walk the upper tables newest-first (pre-sorted once per view, not per
/// get) and the window is observable via the `degraded_gets` counter.
#[test]
fn degraded_reads_after_restart_are_counted_and_correct() {
    let dev = PmemDevice::optane(1 << 30);
    let cfg = stress_cfg();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..20_000u64 {
        db.put(&mut ctx, k, &value_for(k, 1)).unwrap();
    }
    db.sync(&mut ctx).unwrap();
    drop(db);
    dev.crash();

    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    assert_eq!(db.metrics().degraded_gets, 0);
    // Pure reads: ABIs rebuild lazily on writes, so these all take the
    // degraded upper-level walk — and must still be correct.
    let mut out = Vec::new();
    for k in (0..20_000u64).step_by(37) {
        assert!(db.get(&mut ctx, k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(decode(&out), (k, 1));
    }
    let degraded = db.metrics().degraded_gets;
    assert!(
        degraded > 0,
        "post-restart gets must be counted as degraded"
    );

    // A put per shard triggers the rebuild; once every ABI is back the
    // degraded counter stops moving.
    for k in 0..20_000u64 {
        db.put(&mut ctx, k, &value_for(k, 2)).unwrap();
    }
    assert!(db.metrics().abi_rebuilds > 0);
    let settled = db.metrics().degraded_gets;
    for k in (0..20_000u64).step_by(37) {
        assert!(db.get(&mut ctx, k, &mut out).unwrap());
        assert_eq!(decode(&out), (k, 2));
    }
    assert_eq!(
        db.metrics().degraded_gets,
        settled,
        "gets after the ABI rebuild must not take the degraded path"
    );
}

/// Audits one range scan taken while writers race: `floor` stable keys
/// of writer `w` were acked (in ascending key order) before the scan
/// started, so a window starting at index `i0 < floor` must open with
/// the contiguous acked run (up to `floor` or the limit). Keys past that
/// run raced with the writers — each must still decode to a key some
/// writer could legitimately have put (no phantoms), and the whole
/// result must be strictly ascending.
fn audit_racing_scan(keys: &[u64], w: usize, i0: u64, limit: u64, floor: u64, writers: usize) {
    assert!(
        keys.len() as u64 <= limit,
        "scan returned more than its limit"
    );
    for pair in keys.windows(2) {
        assert!(pair[0] < pair[1], "scan not strictly ascending: {pair:?}");
    }
    let guaranteed = (floor - i0).min(limit);
    assert!(
        keys.len() as u64 >= guaranteed,
        "scan from writer {w} index {i0} returned {} keys but {guaranteed} were acked in-window",
        keys.len()
    );
    for (j, &k) in keys.iter().take(guaranteed as usize).enumerate() {
        assert_eq!(
            k,
            stable_key(w, i0 + j as u64),
            "scan missed an acked stable key (writer {w}, start {i0}, floor {floor})"
        );
    }
    for &k in &keys[guaranteed as usize..] {
        let kw = (k >> 32) as usize;
        let rest = k & 0xFFFF_FFFF;
        assert!(kw < writers, "phantom key {k:#x}: no such writer");
        if rest & (1 << 24) != 0 {
            assert!(
                (rest ^ (1 << 24)) < CHURN_PER_WRITER,
                "phantom churn key {k:#x}"
            );
        } else {
            assert!(rest < STABLE_PER_WRITER, "phantom stable key {k:#x}");
        }
    }
}

/// Range scans racing concurrent puts and deletes. Writers run the usual
/// stress mix (versioned overwrites of stable keys, delete/re-put churn)
/// while scanner threads sweep windows of the stable ranges and hold
/// every result to the shadow model: no acked key missing, no phantom
/// keys, strict order. Afterwards one full scan must agree exactly with
/// the live key set — deletions must not resurrect and re-puts must not
/// duplicate.
#[test]
fn scans_vs_concurrent_puts_and_deletes() {
    let writers = 2usize;
    let rounds = 3u64;
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    dev.set_active_threads((writers + 2) as u32);
    let cost = Arc::new(CostModel::default());
    let stop = AtomicBool::new(false);
    let writers_left = AtomicUsize::new(writers);
    // present[w]: stable keys of writer w put at least once. Stable keys
    // are first inserted in ascending order, so presence is a prefix and
    // one cursor per writer is a complete shadow of round 1.
    let present: Vec<AtomicU64> = (0..writers).map(|_| AtomicU64::new(0)).collect();

    crossbeam::thread::scope(|s| {
        for w in 0..writers {
            let (db, present, stop, writers_left) = (&db, &present, &stop, &writers_left);
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, w);
                for round in 1..=rounds {
                    for i in 0..STABLE_PER_WRITER {
                        let k = stable_key(w, i);
                        db.put(&mut ctx, k, &value_for(k, round)).expect("put");
                        if round == 1 {
                            present[w].store(i + 1, Ordering::Release);
                        }
                    }
                    for i in 0..CHURN_PER_WRITER {
                        let k = churn_key(w, i);
                        if round.is_multiple_of(2) {
                            db.delete(&mut ctx, k).expect("delete");
                        }
                        db.put(&mut ctx, k, &value_for(k, round)).expect("put");
                    }
                }
                if writers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    stop.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..2usize {
            let (db, present, stop) = (&db, &present, &stop);
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, writers + r);
                let mut rng = 0xA5A5_5A5A_0F0F_F0F0u64 ^ ((r as u64) << 21);
                while !stop.load(Ordering::Acquire) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let w = (rng >> 32) as usize % writers;
                    // Floor BEFORE the scan: everything below it is acked
                    // and must appear in the scan's window.
                    let floor = present[w].load(Ordering::Acquire);
                    if floor == 0 {
                        continue;
                    }
                    let i0 = rng % floor;
                    let limit = 1 + (rng >> 17) % 128;
                    let keys = db
                        .scan(&mut ctx, stable_key(w, i0), limit as usize)
                        .expect("scan");
                    audit_racing_scan(&keys, w, i0, limit, floor, writers);
                }
            });
        }
    })
    .expect("scope");

    // End state, single-threaded: every stable and churn key is live
    // (each round ends with a re-put), so one full scan must reproduce
    // the exact sorted key set.
    let mut ctx = ThreadCtx::with_default_cost();
    let mut expected: Vec<u64> = Vec::new();
    for w in 0..writers {
        expected.extend((0..STABLE_PER_WRITER).map(|i| stable_key(w, i)));
        expected.extend((0..CHURN_PER_WRITER).map(|i| churn_key(w, i)));
    }
    expected.sort_unstable();
    let scanned = db.scan(&mut ctx, 0, expected.len() + 10).expect("scan");
    assert_eq!(
        scanned, expected,
        "post-race scan disagrees with the live set"
    );
}

/// Keys per block of the weak-scan test: the first `DOOMED` of each are
/// deleted for good, the rest stay live throughout.
const BLOCK: u64 = 256;
const DOOMED: u64 = 192;

/// Weak-scan guarantees while whole leaves empty and merge under the
/// cursor. The store is preloaded in ascending order (full 64-key leaves);
/// then each writer deletes, in ascending order, the first 192 keys of
/// every block it owns (three whole leaves a block) and after each acked
/// delete publishes a floor: every doomed key of its blocks below the
/// floor is gone. Scanners load the floors *before* a full scan from a
/// random start and hold it to what a cursor over an exact index
/// guarantees: strictly ascending, no doomed key below its writer's floor
/// (it was dead for the whole scan), no key that never existed, and every
/// stable key at or above the start exactly once (live for the whole
/// scan).
#[test]
fn weak_scans_vs_permanent_range_deletes() {
    let writers = 2usize;
    let blocks = 96u64;
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    dev.set_active_threads((writers + 2) as u32);
    let cost = Arc::new(CostModel::default());
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..blocks * BLOCK {
        db.put(&mut ctx, k, &value_for(k, 1)).unwrap();
    }
    let owner = |k: u64| (k / BLOCK) as usize % writers;
    let floors: Vec<AtomicU64> = (0..writers).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let writers_left = AtomicUsize::new(writers);

    crossbeam::thread::scope(|s| {
        for w in 0..writers {
            let (db, floors, stop, writers_left) = (&db, &floors, &stop, &writers_left);
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, w);
                for b in (w as u64..blocks).step_by(writers) {
                    for k in b * BLOCK..b * BLOCK + DOOMED {
                        assert!(db.delete(&mut ctx, k).expect("delete"), "key {k} absent");
                        floors[w].store(k + 1, Ordering::Release);
                    }
                }
                if writers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    stop.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..2usize {
            let (db, floors, stop) = (&db, &floors, &stop);
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, writers + r);
                let mut rng = 0x3C3C_C3C3_5A5A_A5A5u64 ^ ((r as u64) << 23);
                // At least one scan, however the threads are scheduled.
                let mut done = false;
                while !done {
                    done = stop.load(Ordering::Acquire);
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // Floors BEFORE the scan.
                    let floor: Vec<u64> =
                        floors.iter().map(|f| f.load(Ordering::Acquire)).collect();
                    let start = rng % (blocks * BLOCK);
                    let keys = db.scan(&mut ctx, start, usize::MAX).expect("scan");
                    for pair in keys.windows(2) {
                        assert!(pair[0] < pair[1], "scan not strictly ascending: {pair:?}");
                    }
                    let mut stable = (start..blocks * BLOCK).filter(|k| k % BLOCK >= DOOMED);
                    for &k in &keys {
                        assert!(k >= start && k < blocks * BLOCK, "phantom key {k}");
                        if k % BLOCK < DOOMED {
                            assert!(
                                k >= floor[owner(k)],
                                "deleted key {k} came back (floor {})",
                                floor[owner(k)]
                            );
                        } else {
                            assert_eq!(stable.next(), Some(k), "stable key missed before {k}");
                        }
                    }
                    assert_eq!(stable.next(), None, "scan from {start} missed stable keys");
                }
            });
        }
    })
    .expect("scope");

    let live: Vec<u64> = (0..blocks * BLOCK)
        .filter(|k| k % BLOCK >= DOOMED)
        .collect();
    assert_eq!(db.scan(&mut ctx, 0, usize::MAX).unwrap(), live);
}

/// The get path is read-only on media: a burst of gets (hits and misses)
/// moves no persistent-memory write traffic at all.
#[test]
fn get_path_writes_no_media_bytes() {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..30_000u64 {
        db.put(&mut ctx, k, &value_for(k, 1)).unwrap();
    }
    db.sync(&mut ctx).unwrap();
    let before = dev.stats().snapshot().media_bytes_written;
    let mut out = Vec::new();
    for k in 0..10_000u64 {
        db.get(&mut ctx, k, &mut out).unwrap();
        db.get(&mut ctx, k + 10_000_000, &mut out).unwrap(); // miss
    }
    let after = dev.stats().snapshot().media_bytes_written;
    assert_eq!(after, before, "gets must not write to media");
}

/// Regression for the publish/commit window: a crash right after a
/// structural transition published a new view — but before any further
/// manifest commit — must recover every synced key. Views are DRAM-only;
/// publication introduces no durability behavior of its own.
#[test]
fn crash_between_view_publish_and_next_commit_recovers() {
    let dev = PmemDevice::optane(1 << 30);
    let mut cfg = stress_cfg();
    // No worker pool: the test steers by watching the flush counter
    // between individual puts, which needs each flush to have completed
    // by the time the put that ran it returns.
    cfg.bg.workers = 0;
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut ctx = ThreadCtx::with_default_cost();

    // Put one key at a time until a flush commits (and republishes).
    let mut k = 0u64;
    while db.metrics().flushes == 0 {
        db.put(&mut ctx, k, &value_for(k, 1)).unwrap();
        k += 1;
        assert!(k < 100_000, "flush never triggered");
    }
    let publishes_at_flush = db.metrics().view_publishes;
    assert!(publishes_at_flush > 0);

    // We are now inside the window: the flush published a fresh view, and
    // these puts land in the new MemTable with no table commit behind
    // them. Sync the log and crash before any further transition.
    let commits_before = db.metrics().flushes
        + db.metrics().mid_compactions
        + db.metrics().last_compactions
        + db.metrics().abi_dumps;
    for extra in 0..8u64 {
        db.put(
            &mut ctx,
            1_000_000 + extra,
            &value_for(1_000_000 + extra, 1),
        )
        .unwrap();
    }
    let commits_after = db.metrics().flushes
        + db.metrics().mid_compactions
        + db.metrics().last_compactions
        + db.metrics().abi_dumps;
    assert_eq!(commits_before, commits_after, "window test needs no commit");
    db.sync(&mut ctx).unwrap();
    drop(db);
    dev.crash();

    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for key in 0..k {
        assert!(db.get(&mut ctx, key, &mut out).unwrap(), "key {key} lost");
        assert_eq!(decode(&out), (key, 1));
    }
    for extra in 0..8u64 {
        let key = 1_000_000 + extra;
        assert!(
            db.get(&mut ctx, key, &mut out).unwrap(),
            "window key {key} lost"
        );
        assert_eq!(decode(&out), (key, 1));
    }
}
