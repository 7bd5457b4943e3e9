//! Reader-vs-maintenance stress: lock-free gets racing flushes, dumps,
//! WIM merges, and both compaction schemes.
//!
//! The contract under test (the epoch-published read path): an
//! acknowledged put is visible to any *subsequent* get on any thread,
//! and no get ever observes a torn slot or a value for the wrong key —
//! even while the shard's writer freezes MemTables, dumps ABIs, and
//! dooms compacted tables underneath the readers.
//!
//! Protocol: each writer owns a key range and runs a fixed script of
//! puts and deletes from an [`integration::history::History`], which
//! publishes its acked and issued floors. Every get and scan is taken
//! between two snapshots of those floors and must be explained by some
//! cut of each writer between them: an acked put is visible to any
//! later get on any thread, a hit carries a value its key's writer put,
//! and a scan holds every key live across the window and no key dead
//! across it. *Stable* keys are only overwritten; *churn* keys are
//! deleted and re-put.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use chameleondb::{ChameleonConfig, ChameleonDb, CompactionScheme, GpmConfig, Mode};
use integration::history::{Floors, History, Op};
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

fn put(key: u64, version: u64) -> Op {
    Op::Put(key, value_for(key, version).into())
}

/// Per writer and round: put every stable key, then re-put every churn
/// key (deleting it first in even rounds).
fn stress_history(writers: usize, rounds: u64) -> History {
    History::new(
        (0..writers)
            .map(|w| {
                let mut ops = Vec::new();
                for round in 1..=rounds {
                    ops.extend((0..STABLE_PER_WRITER).map(|i| put(stable_key(w, i), round)));
                    for k in (0..CHURN_PER_WRITER).map(|i| churn_key(w, i)) {
                        if round.is_multiple_of(2) {
                            ops.push(Op::Del(k));
                        }
                        ops.push(put(k, round));
                    }
                }
                ops
            })
            .collect(),
    )
}

/// Runs writer `w`'s script against `db` from op `from` to its end.
fn drive(db: &ChameleonDb, h: &History, ctx: &mut ThreadCtx, w: usize, from: u64) {
    let n = h.script(w).len() as u64;
    h.drive(w, from, n, |op| apply(db, ctx, op)).unwrap();
}

fn apply(db: &ChameleonDb, ctx: &mut ThreadCtx, op: &Op) -> kvapi::Result<()> {
    match op {
        Op::Put(k, v) => db.put(ctx, *k, v),
        // Every script deletes only keys it put before.
        Op::Del(k) => db
            .delete(ctx, *k)
            .map(|existed| assert!(existed, "delete of absent key {k:#x}")),
    }
}

/// One get of `key` checked against `h` between two floor snapshots.
fn audited_get(db: &ChameleonDb, ctx: &mut ThreadCtx, h: &History, key: u64) {
    let before = h.floors();
    let mut out = Vec::new();
    let found = db.get(ctx, key, &mut out).expect("get");
    if let Err(e) = h.read(key, found.then_some(&out[..]).into(), &before, &h.floors()) {
        panic!("{e}");
    }
}

/// One scan from `start` checked against `h` between two floor
/// snapshots.
fn audited_scan(db: &ChameleonDb, ctx: &mut ThreadCtx, h: &History, start: u64, limit: usize) {
    let before = h.floors();
    let keys = db.scan(ctx, start, limit).expect("scan");
    if let Err(e) = h.scan(start, limit, &keys, &before, &h.floors()) {
        panic!("{e}");
    }
}

/// Runs `write(w, ctx)` on `writers` threads while `readers` threads call
/// `read(ctx, draw)` with xorshift draws seeded from `seed`, each at
/// least once and until every writer has returned.
fn race(
    dev: &PmemDevice,
    (writers, readers): (usize, usize),
    seed: u64,
    write: impl Fn(usize, &mut ThreadCtx) + Sync,
    read: impl Fn(&mut ThreadCtx, u64) + Sync,
) {
    dev.set_active_threads((writers + readers) as u32);
    let cost = Arc::new(CostModel::default());
    let writers_left = AtomicUsize::new(writers);
    let (write, read, writers_left) = (&write, &read, &writers_left);
    crossbeam::thread::scope(|s| {
        for w in 0..writers {
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                write(w, &mut ThreadCtx::for_thread(cost, w));
                writers_left.fetch_sub(1, Ordering::AcqRel);
            });
        }
        for r in 0..readers {
            let cost = Arc::clone(&cost);
            s.spawn(move |_| {
                let mut ctx = ThreadCtx::for_thread(cost, writers + r);
                let mut rng = seed ^ ((r as u64) << 17);
                loop {
                    let done = writers_left.load(Ordering::Acquire) == 0;
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    read(&mut ctx, rng);
                    if done {
                        break;
                    }
                }
            });
        }
    })
    .expect("scope");
}

/// Single-threaded end-state audit once every script ran to its end.
fn audit_image(db: &ChameleonDb, h: &History, writers: usize) {
    let mut ctx = ThreadCtx::with_default_cost();
    let all = Floors::exact((0..writers).map(|w| h.script(w).len() as u64).collect());
    let scanned = db.scan(&mut ctx, 0, usize::MAX).map_err(|e| e.to_string());
    let mut out = Vec::new();
    let get = |k| Ok(db.get(&mut ctx, k, &mut out).unwrap().then(|| out.clone()));
    let violations = h.image(get, scanned, &all);
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Runs `writers` put threads (versioned overwrites + churn
/// delete/re-put) against `readers` get threads, every get audited, then
/// audits the end state single-threaded.
fn run_stress(cfg: ChameleonConfig, writers: usize, readers: usize, rounds: u64) -> ChameleonDb {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    let h = stress_history(writers, rounds);
    let write = |w, ctx: &mut ThreadCtx| drive(&db, &h, ctx, w, 0);
    race(
        &dev,
        (writers, readers),
        0x9E37_79B9_7F4A_7C15,
        write,
        |ctx, rng| {
            let w = (rng >> 32) as usize % writers;
            let k = if rng.is_multiple_of(8) {
                churn_key(w, rng % CHURN_PER_WRITER)
            } else {
                stable_key(w, rng % STABLE_PER_WRITER)
            };
            audited_get(&db, ctx, &h, k);
        },
    );
    audit_image(&db, &h, writers);
    db
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
    let db = run_stress(stress_cfg(), 2, 4, 3);
    let m = db.metrics();
    assert!(m.flushes > 0, "workload must drive flushes");
    assert!(m.mid_compactions > 0, "workload must drive mid compactions");
    assert!(m.view_publishes > 0, "transitions must republish views");
}

/// Level-by-level compaction under reader fire (the CI slice).
#[test]
fn readers_vs_maintenance_level_by_level() {
    let mut cfg = stress_cfg();
    cfg.compaction = CompactionScheme::LevelByLevel;
    let db = run_stress(cfg, 2, 4, 3);
    let m = db.metrics();
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
    let db = run_stress(cfg, 2, 4, 4);
    let m = db.metrics();
    assert_eq!(db.mode(), Mode::GetProtect);
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
    let db = run_stress(bg_torture_cfg(), 2, 4, 3);
    let m = db.metrics();
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
    let db = run_stress(cfg, 2, 4, 3);
    let m = db.metrics();
    assert!(m.flushes > 0 && m.mid_compactions > 0);
    assert!(m.write_stalls > 0, "torture config must stall writers");
}

/// One writer puts keys 0..4096 for six rounds, switching between
/// Normal (odd rounds) and Write-Intensive (even rounds) before each,
/// while two readers audit gets; then the pipeline settles and the end
/// state is audited.
fn mode_switch_race(cfg: ChameleonConfig) -> ChameleonDb {
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    let rounds = (1..=6u64).flat_map(|round| (0..4096).map(move |k| put(k, round)));
    let h = History::new(vec![rounds.collect()]);
    let write = |_, ctx: &mut ThreadCtx| {
        for round in 0..6u64 {
            db.set_mode(if round % 2 == 1 {
                Mode::WriteIntensive
            } else {
                Mode::Normal
            });
            let ops = round * 4096..(round + 1) * 4096;
            h.drive(0, ops.start, ops.end, |op| apply(&db, ctx, op))
                .expect("put");
        }
    };
    race(&dev, (1, 2), 1, write, |ctx, rng| {
        audited_get(&db, ctx, &h, rng % 4096)
    });
    db.drain_maintenance().unwrap();
    audit_image(&db, &h, 1);
    db
}

/// Runtime mode switches while the background pipeline is saturated:
/// frozen tables enqueued under one mode may be processed under another
/// (mode is evaluated when the worker picks the job up), and readers
/// must never notice.
#[test]
fn readers_vs_background_pipeline_mode_switches() {
    let m = mode_switch_race(bg_torture_cfg()).metrics();
    assert!(m.wim_merges > 0, "WIM phases must merge");
    assert!(m.flushes > 0, "Normal phases must flush");
}

/// The full-size variant (not part of the default CI slice).
#[test]
#[ignore = "long-running full stress; CI runs the quick slices above"]
fn readers_vs_maintenance_full() {
    let db = run_stress(stress_cfg(), 4, 8, 10);
    let m = db.metrics();
    assert!(m.last_compactions > 0, "full run must reach the last level");
}

/// Explicit runtime mode switches (Normal ↔ Write-Intensive) while
/// readers and a writer are live: switching must not disturb visibility.
#[test]
fn readers_vs_runtime_mode_switches() {
    let m = mode_switch_race(stress_cfg()).metrics();
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

/// Range scans racing concurrent puts and deletes. Writers run the usual
/// stress scripts (versioned overwrites of stable keys, delete/re-put
/// churn) while scanner threads sweep windows of the stable ranges, each
/// audited: no key live across the scan missing, no phantom, strict
/// order. Afterwards the end state is audited, one full scan included —
/// deletions must not resurrect and re-puts must not duplicate.
#[test]
fn scans_vs_concurrent_puts_and_deletes() {
    let writers = 2usize;
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    let h = stress_history(writers, 3);
    let write = |w, ctx: &mut ThreadCtx| drive(&db, &h, ctx, w, 0);
    race(
        &dev,
        (writers, 2),
        0xA5A5_5A5A_0F0F_F0F0,
        write,
        |ctx, rng| {
            let w = (rng >> 32) as usize % writers;
            let start = stable_key(w, rng % STABLE_PER_WRITER);
            audited_scan(&db, ctx, &h, start, 1 + (rng >> 17) as usize % 128);
        },
    );
    audit_image(&db, &h, writers);
}

/// Keys per block of the weak-scan test: the first `DOOMED` of each are
/// deleted for good, the rest stay live throughout.
const BLOCK: u64 = 256;
const DOOMED: u64 = 192;

/// Weak-scan guarantees while whole leaves empty and merge under the
/// cursor. The store is preloaded in ascending order (full 64-key leaves);
/// then each writer deletes, in ascending order, the first 192 keys of
/// every block it owns (three whole leaves a block). Scanners run full
/// scans from random starts, each audited: strictly ascending, no key
/// deleted before the scan began (a phantom), and every stable key at or
/// above the start (live for the whole scan).
#[test]
fn weak_scans_vs_permanent_range_deletes() {
    let writers = 2usize;
    let blocks = 96u64;
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), stress_cfg()).unwrap();
    // Writer w owns every writers-th block: it preloads its keys, then
    // deletes their doomed prefixes.
    let owned = |w: usize| (w as u64..blocks).step_by(writers).map(|b| b * BLOCK);
    let h = History::new(
        (0..writers)
            .map(|w| {
                let keys = owned(w).flat_map(|b| b..b + BLOCK);
                let doomed = owned(w).flat_map(|b| b..b + DOOMED);
                keys.map(|k| put(k, 1)).chain(doomed.map(Op::Del)).collect()
            })
            .collect(),
    );
    let preload = |w: usize| owned(w).count() as u64 * BLOCK;
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..blocks * BLOCK {
        db.put(&mut ctx, k, &value_for(k, 1)).unwrap();
    }
    for w in 0..writers {
        h.issue(w, preload(w));
        h.ack(w, preload(w));
    }
    let write = |w, ctx: &mut ThreadCtx| drive(&db, &h, ctx, w, preload(w));
    race(
        &dev,
        (writers, 2),
        0x3C3C_C3C3_5A5A_A5A5,
        write,
        |ctx, rng| audited_scan(&db, ctx, &h, rng % (blocks * BLOCK), usize::MAX),
    );
    audit_image(&db, &h, writers);
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
