use std::collections::{BTreeMap, BTreeSet, HashSet};

use chameleon_obs::Stage;
use kvapi::{hash64, KvError};

use super::gc::in_resident_generation;
use super::*;
use crate::config::CompactionScheme;
use crate::metrics::StoreMetricsSnapshot;
use crate::mode::GpmConfig;
use crate::view::GetSource;

fn new_store(cfg: ChameleonConfig) -> ChameleonDb {
    let dev = PmemDevice::optane(512 << 20);
    ChameleonDb::create(dev, cfg).unwrap()
}

fn ctx() -> ThreadCtx {
    ThreadCtx::with_default_cost()
}

fn value_for(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

fn fill(db: &ChameleonDb, ctx: &mut ThreadCtx, n: u64) {
    for k in 0..n {
        db.put(ctx, k, &value_for(k)).unwrap();
    }
}

fn check_all(db: &ChameleonDb, ctx: &mut ThreadCtx, n: u64) {
    let mut out = Vec::new();
    for k in 0..n {
        assert!(db.get(ctx, k, &mut out).unwrap(), "key {k} missing");
        assert_eq!(out, value_for(k), "key {k} has wrong value");
    }
}

#[test]
fn put_get_small() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 100);
    check_all(&db, &mut c, 100);
    let mut out = Vec::new();
    assert!(!db.get(&mut c, 10_000, &mut out).unwrap());
}

#[test]
fn put_get_through_many_compactions() {
    // tiny: 8 shards x 64-slot memtables (upper capacity ~4096 entries
    // per shard); 60k keys force flushes, mid-level and last-level
    // compactions in every shard.
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 60_000);
    check_all(&db, &mut c, 60_000);
    db.drain_maintenance().unwrap();
    let m = db.metrics();
    assert!(m.flushes > 50, "expected many flushes, got {}", m.flushes);
    assert!(m.mid_compactions > 0, "expected mid compactions");
    assert!(m.last_compactions > 0, "expected last-level compactions");
}

#[test]
fn overwrites_return_latest_value() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    for round in 0..5u64 {
        for k in 0..2000u64 {
            db.put(&mut c, k, &(k + round * 1000).to_le_bytes())
                .unwrap();
        }
    }
    let mut out = Vec::new();
    for k in 0..2000u64 {
        assert!(db.get(&mut c, k, &mut out).unwrap());
        assert_eq!(out, (k + 4000).to_le_bytes());
    }
}

#[test]
fn delete_hides_key_through_compactions() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 5000);
    for k in 0..2500u64 {
        assert!(db.delete(&mut c, k).unwrap());
    }
    // Push tombstones down through the levels.
    fill(&db, &mut c, 1); // keep store active
    db.checkpoint(&mut c).unwrap();
    let mut out = Vec::new();
    // Key 0 was re-put by fill(.., 1) above.
    assert!(db.get(&mut c, 0, &mut out).unwrap());
    for k in 1..2500u64 {
        assert!(!db.get(&mut c, k, &mut out).unwrap(), "key {k} not deleted");
    }
    check_all_range(&db, &mut c, 2500, 5000);
    assert!(!db.delete(&mut c, 99_999).unwrap());
}

fn check_all_range(db: &ChameleonDb, c: &mut ThreadCtx, lo: u64, hi: u64) {
    let mut out = Vec::new();
    for k in lo..hi {
        assert!(db.get(c, k, &mut out).unwrap(), "key {k} missing");
    }
}

#[test]
fn checkpoint_moves_everything_to_last_level() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 3000);
    db.checkpoint(&mut c).unwrap();
    db.metrics(); // counters exist
    let mut out = Vec::new();
    for k in 0..3000u64 {
        assert!(db.get(&mut c, k, &mut out).unwrap());
    }
    // After a checkpoint, every hit must come from the last level.
    let before = db.metrics();
    assert_eq!(
        before.abi_hits + before.memtable_hits + before.upper_hits,
        {
            // hits before checkpoint happened during fill-phase? none: we
            // only read after checkpoint, so all 3000 hits are last-level.
            before.abi_hits + before.memtable_hits + before.upper_hits
        }
    );
    assert!(before.last_hits >= 3000);
}

#[test]
fn level_by_level_compaction_also_works() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.compaction = CompactionScheme::LevelByLevel;
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 20_000);
    check_all(&db, &mut c, 20_000);
    db.drain_maintenance().unwrap();
    assert!(db.metrics().mid_compactions > 0);
}

#[test]
fn write_intensive_mode_skips_flushes() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.write_intensive = true;
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 5000);
    check_all(&db, &mut c, 5000);
    db.drain_maintenance().unwrap();
    let m = db.metrics();
    assert_eq!(m.flushes, 0, "WIM must not flush MemTables to L0");
    assert!(m.wim_merges > 0, "WIM merges MemTables into the ABI");
}

#[test]
fn write_intensive_mode_compacts_when_abi_fills() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.write_intensive = true;
    let db = new_store(cfg);
    let mut c = ctx();
    // tiny ABI: 64 * 64-ish slots; 60k distinct keys across 8 shards
    // will fill ABIs and force last-level compactions.
    fill(&db, &mut c, 60_000);
    check_all(&db, &mut c, 60_000);
    db.drain_maintenance().unwrap();
    assert!(db.metrics().last_compactions > 0);
}

#[test]
fn mode_switch_at_runtime() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    assert_eq!(db.mode(), Mode::Normal);
    db.set_mode(Mode::WriteIntensive);
    fill(&db, &mut c, 3000);
    // Drain before asserting AND before the mode flips back — a
    // still-queued frozen table would otherwise be processed under
    // the new mode (mode is evaluated at processing time).
    db.drain_maintenance().unwrap();
    assert_eq!(db.metrics().flushes, 0);
    db.set_mode(Mode::Normal);
    fill(&db, &mut c, 3000);
    check_all(&db, &mut c, 3000);
}

#[test]
fn dram_footprint_counts_memtables_and_abis() {
    // Exact accounting for the hash structures alone; the ordered
    // index adds its own (population-dependent) bytes on top, covered
    // by `ordered_index_counts_toward_dram_footprint`.
    let mut cfg = ChameleonConfig::tiny();
    cfg.ordered_index = false;
    let expected = (cfg.shards
        * (cfg.memtable_slots.next_power_of_two() + cfg.upper_capacity_slots().next_power_of_two())
        * 16) as u64;
    let db = new_store(cfg);
    assert_eq!(db.dram_footprint(), expected);
}

#[test]
fn recover_restores_everything_after_clean_crash() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 10_000);
    db.sync(&mut c).unwrap();
    drop(db);
    dev.crash();
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    check_all(&db2, &mut c, 10_000);
}

#[test]
fn recover_loses_only_unsynced_tail() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 5000);
    db.sync(&mut c).unwrap();
    // Unsynced puts: may or may not survive depending on batching, but
    // synced ones must all be there.
    for k in 5000..5100u64 {
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    drop(db);
    dev.crash();
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    check_all(&db2, &mut c, 5000);
}

#[test]
fn recover_after_write_intensive_crash_replays_the_log() {
    let dev = PmemDevice::optane(512 << 20);
    let mut cfg = ChameleonConfig::tiny();
    cfg.write_intensive = true;
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 8000);
    db.sync(&mut c).unwrap();
    drop(db);
    dev.crash();
    cfg.write_intensive = false;
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    check_all(&db2, &mut c, 8000);
}

#[test]
fn recovered_store_accepts_new_writes_and_deletes() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 4000);
    db.sync(&mut c).unwrap();
    drop(db);
    dev.crash();
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg.clone(), &mut c).unwrap();
    for k in 4000..8000u64 {
        db2.put(&mut c, k, &value_for(k)).unwrap();
    }
    db2.delete(&mut c, 0).unwrap();
    db2.sync(&mut c).unwrap();
    drop(db2);
    dev.crash();
    let db3 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    let mut out = Vec::new();
    assert!(!db3.get(&mut c, 0, &mut out).unwrap());
    for k in 1..8000u64 {
        assert!(db3.get(&mut c, k, &mut out).unwrap(), "key {k} missing");
    }
}

#[test]
fn crash_recover_trait_roundtrip() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let mut db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 6000);
    db.sync(&mut c).unwrap();
    let before = c.clock.now();
    db.crash_and_recover(&mut c).unwrap();
    assert!(c.clock.now() > before, "recovery must cost simulated time");
    check_all(&db, &mut c, 6000);
}

/// A store recovered while still empty starts as a created one does:
/// same mode, DRAM footprint and observability sections, and an ordered
/// index that serves scans at once.
#[test]
fn created_and_recovered_stores_start_alike() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.write_intensive = true;
    cfg.ordered_index = true;
    assert!(cfg.bg.workers > 0);
    let fresh = new_store(cfg.clone());
    let mut db = new_store(cfg);
    let mut c = ctx();
    db.crash_and_recover(&mut c).unwrap();
    assert_eq!(db.mode(), Mode::WriteIntensive);
    assert_eq!(db.mode(), fresh.mode());
    assert_eq!(db.dram_footprint(), fresh.dram_footprint());
    let sections = |db: &ChameleonDb| -> Vec<_> {
        let snap = db.obs_snapshot(0);
        snap.counters.iter().map(|s| s.name).collect()
    };
    assert_eq!(sections(&db), sections(&fresh));
    assert_eq!(db.scan(&mut c, 0, 10), Ok(Vec::new()));
    db.put(&mut c, 7, &value_for(7)).unwrap();
    check_all_range(&db, &mut c, 7, 8);
    assert_eq!(db.scan(&mut c, 0, 10), Ok(vec![7]));
}

#[test]
fn recover_rejects_mismatched_config() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 100);
    db.sync(&mut c).unwrap();
    drop(db);
    dev.crash();
    let mut other = cfg;
    other.shards = 16;
    assert!(matches!(
        ChameleonDb::recover(dev, other, &mut c),
        Err(KvError::Corrupt(_))
    ));
}

#[test]
fn gets_after_recovery_use_degraded_then_rebuilt_abi() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 10_000);
    db.sync(&mut c).unwrap();
    drop(db);
    dev.crash();
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    check_all(&db2, &mut c, 10_000);
    let m = db2.metrics();
    // ABI rebuilds are deferred to the first structural transition,
    // so pure reads after recovery take the degraded upper walk.
    assert_eq!(m.abi_rebuilds, 0);
    assert!(m.degraded_gets > 0 || m.upper_hits == 0);
}

#[test]
fn values_of_various_sizes() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    let sizes = [0usize, 1, 8, 64, 255, 256, 257, 4096, 65536];
    for (i, &sz) in sizes.iter().enumerate() {
        let v = vec![i as u8; sz];
        db.put(&mut c, 1_000_000 + i as u64, &v).unwrap();
    }
    let mut out = Vec::new();
    for (i, &sz) in sizes.iter().enumerate() {
        assert!(db.get(&mut c, 1_000_000 + i as u64, &mut out).unwrap());
        assert_eq!(out.len(), sz);
        assert!(out.iter().all(|&b| b == i as u8));
    }
}

#[test]
fn apply_batch_is_durable_at_return_with_one_tail_fence() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    // Small values: 16 ops * (24B header + 16B value) = 640B < 4KB
    // batch_bytes, so the only fence is apply_batch's final flush.
    let ops: Vec<BatchOp> = (0..16u64)
        .map(|k| BatchOp::Put {
            key: k,
            value: value_for(k),
        })
        .collect();
    let before = dev.fence_count();
    let outcomes = db.apply_batch(&mut c, &ops).unwrap();
    let after = dev.fence_count();
    assert_eq!(outcomes, vec![true; 16]);
    assert_eq!(
        after - before,
        1,
        "a sub-4KB batch must cost exactly one fence"
    );
    // Durable at return: crash without sync/checkpoint, then recover.
    drop(db);
    dev.crash();
    let db2 = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    check_all(&db2, &mut c, 16);
}

#[test]
fn apply_batch_reports_delete_existence_and_applies_tombstones() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 10);
    let ops = vec![
        BatchOp::Delete { key: 3 },
        BatchOp::Put {
            key: 100,
            value: value_for(100),
        },
        BatchOp::Delete { key: 999 },
    ];
    let outcomes = db.apply_batch(&mut c, &ops).unwrap();
    assert_eq!(outcomes, vec![true, true, false]);
    let mut out = Vec::new();
    assert!(!db.get(&mut c, 3, &mut out).unwrap());
    assert!(db.get(&mut c, 100, &mut out).unwrap());
}

#[test]
fn apply_batch_amortizes_fences_versus_per_op_sync() {
    let per_op = {
        let dev = PmemDevice::optane(512 << 20);
        let db = ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::tiny()).unwrap();
        let mut c = ctx();
        let before = dev.fence_count();
        for k in 0..32u64 {
            db.put(&mut c, k, &value_for(k)).unwrap();
            db.sync(&mut c).unwrap();
        }
        dev.fence_count() - before
    };
    let batched = {
        let dev = PmemDevice::optane(512 << 20);
        let db = ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::tiny()).unwrap();
        let mut c = ctx();
        let ops: Vec<BatchOp> = (0..32u64)
            .map(|k| BatchOp::Put {
                key: k,
                value: value_for(k),
            })
            .collect();
        let before = dev.fence_count();
        db.apply_batch(&mut c, &ops).unwrap();
        dev.fence_count() - before
    };
    assert!(
        batched * 8 <= per_op,
        "group commit should amortize fences: batched={batched} per_op={per_op}"
    );
}

#[test]
fn obs_snapshot_with_appends_extra_sections() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.obs = chameleon_obs::ObsConfig::on();
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 10);
    let snap = db.obs_snapshot_with(
        c.clock.now(),
        vec![CounterSection {
            name: "server",
            counters: vec![("batches", 7)],
        }],
    );
    let sec = snap
        .counters
        .iter()
        .find(|s| s.name == "server")
        .expect("extra section present");
    assert_eq!(sec.counters, vec![("batches", 7)]);
    assert!(snap.counters.iter().any(|s| s.name == "store"));
}

#[test]
fn no_worker_pool_runs_maintenance_on_the_caller() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 0;
    let db = new_store(cfg);
    assert!(db.workers.is_empty());
    let mut c = ctx();
    fill(&db, &mut c, 20_000);
    check_all(&db, &mut c, 20_000);
    let m = db.metrics();
    assert!(m.flushes > 0);
    // drain_maintenance without a pool is a no-op, not a hang.
    db.drain_maintenance().unwrap();
}

/// A `CrashPoint` raised on a pool worker reaches the foreground
/// intact: the next drain re-raises the payload, and the pool stays
/// poisoned — the write that needs it next fails.
#[test]
fn worker_crash_point_is_reraised_on_the_foreground() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 1;
    cfg.bg.frozen_queue_cap = 1;
    let db = new_store(cfg);
    let mut c = ctx();
    let i = 0;
    let mut keys = (0..).filter(|&k| db.shard_of(hash64(k)) == i);
    loop {
        let s = db.shards[i].mem.lock();
        if s.memtable.is_full(s.load_threshold) {
            break;
        }
        drop(s);
        let k = keys.next().unwrap();
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    {
        let _levels = db.shards[i].levels.lock();
        db.shards[i].mem.lock().freeze(&db, &c, i);
        // Armed under the `levels` lock and released only to the worker:
        // the next fence is the flush's log sync, on the worker.
        db.dev.arm_crash_at_fence(db.dev.fence_count() + 1);
        assert!(db.maint.enqueue(Job::Shard(i)));
    }
    let payload = catch_unwind(AssertUnwindSafe(|| db.drain_maintenance()))
        .expect_err("the worker's crash point was not re-raised");
    assert!(payload.downcast_ref::<pmem_sim::CrashPoint>().is_some());
    // The dead pass still counts against the cap, so the write that
    // finds the fresh MemTable full again surfaces the sticky error.
    let err = keys
        .find_map(|k| db.put(&mut c, k, &value_for(k)).err())
        .unwrap();
    assert_eq!(
        err,
        KvError::Corrupt("background maintenance failed earlier")
    );
}

/// The paper profile runs maintenance on the caller: no worker pool,
/// no stalls, and the flush lands on the clock of the write that
/// found the MemTable full.
#[test]
fn paper_profile_pays_for_the_flush_on_the_callers_clock() {
    let mut cfg = ChameleonConfig::paper_with_shards(8);
    cfg.obs = chameleon_obs::ObsConfig::on();
    let db = new_store(cfg);
    assert!(db.workers.is_empty(), "paper profile spawned workers");
    let mut c = ctx();
    let mut k = 0u64;
    let flushing_put_ns = loop {
        let before = c.clock.now();
        db.put(&mut c, k, &value_for(k)).unwrap();
        k += 1;
        if db.metrics().flushes == 1 {
            break c.clock.now() - before;
        }
        assert!(k < 8 * 512, "no MemTable ever filled");
    };
    let (_, flush) = db
        .obs()
        .stage_aggregates()
        .into_iter()
        .find(|(stage, _)| *stage == Stage::Flush)
        .unwrap();
    assert_eq!(flush.count, 1);
    assert!(flush.sim_ns > 0);
    assert!(
        flushing_put_ns >= flush.sim_ns,
        "put advanced {flushing_put_ns} sim-ns, its flush cost {}",
        flush.sim_ns
    );
    assert_eq!(db.metrics().write_stalls, 0);
}

/// Wall time never reaches the simulated clock. The stalled run holds
/// shard 1's `levels` lock while the lone worker waits on it, so the writer's
/// second freeze of shard 0 finds the frozen queue full and stalls for
/// at least `HOLD` of wall time on every run. The control is the same
/// fill with a queue that never fills. On simulated time the stalled
/// writer ends up only noise away from the control, far below the
/// wall-clock stall total the journal reports. (No run-to-run equality
/// claim: a worker's `sync_writers` fences the writer's open batch at a
/// timing-dependent point.)
#[test]
fn write_stalls_are_not_charged_to_the_simulated_clock() {
    const HOLD: std::time::Duration = std::time::Duration::from_millis(50);
    // Returns (writer's sim clock, write stalls, journaled stall ns).
    let run = |frozen_queue_cap: usize, hold: bool| {
        let mut cfg = ChameleonConfig::tiny();
        cfg.memtable_slots = 16;
        cfg.bg.workers = 1;
        cfg.bg.frozen_queue_cap = frozen_queue_cap;
        cfg.obs = chameleon_obs::ObsConfig::with_capacity(1 << 16);
        let db = new_store(cfg);
        let keys: Vec<u64> = (0..)
            .filter(|&k| db.shard_of(hash64(k)) == 0)
            .take(2_000)
            .collect();
        let clock = std::thread::scope(|s| {
            let blocker = hold.then(|| {
                let guard = db.shards[1].levels.lock();
                assert!(db.maint.enqueue(Job::Shard(1)));
                guard
            });
            let writer = s.spawn(|| {
                let mut c = ctx();
                for &k in &keys {
                    db.put(&mut c, k, &value_for(k)).unwrap();
                }
                c.clock.now()
            });
            if let Some(guard) = blocker {
                while db.metrics().write_stalls == 0 && !writer.is_finished() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                std::thread::sleep(HOLD);
                drop(guard);
            }
            writer.join().unwrap()
        });
        db.drain_maintenance().unwrap();
        let stalled_wall_ns: u64 = db
            .obs()
            .journal()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::WriteStallExit { stalled_ns, .. } => Some(stalled_ns),
                _ => None,
            })
            .sum();
        (clock, db.metrics().write_stalls, stalled_wall_ns)
    };
    let (control, control_stalls, _) = run(usize::MAX, false);
    assert_eq!(control_stalls, 0, "the control run stalled");
    let (stalled, stalls, stalled_wall_ns) = run(1, true);
    assert!(stalls > 0, "the held worker never stalled the writer");
    assert!(stalled_wall_ns >= HOLD.as_nanos() as u64);
    let extra = stalled.saturating_sub(control);
    assert!(
        2 * extra < stalled_wall_ns,
        "stalled writer's clock {stalled} is {extra} sim-ns past the control's {control}, \
         against {stalled_wall_ns} wall-ns of journaled stalls"
    );
}

/// A put takes only its shard's `mem` lock: with the worker parked
/// on shard 0's `levels` lock mid-pass, a writer still fills and
/// freezes shard 0's MemTables up to the queue cap without stalling.
#[test]
fn puts_do_not_wait_for_their_shards_maintenance_pass() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 1;
    cfg.bg.frozen_queue_cap = 2;
    let db = new_store(cfg);
    let keys: Vec<u64> = (0..)
        .filter(|&k| db.shard_of(hash64(k)) == 0)
        .take(100)
        .collect();
    std::thread::scope(|s| {
        let levels = db.shards[0].levels.lock();
        assert!(db.maint.enqueue(Job::Shard(0)));
        let writer = s.spawn(|| {
            let mut c = ctx();
            for &k in &keys {
                db.put(&mut c, k, &value_for(k)).unwrap();
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !writer.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "puts waited on the shard's maintenance pass"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(levels);
        writer.join().unwrap();
    });
    assert_eq!(db.metrics().write_stalls, 0);
    db.drain_maintenance().unwrap();
    let mut c = ctx();
    let mut out = Vec::new();
    for &k in &keys {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} missing");
        assert_eq!(out, value_for(k));
    }
}

/// Threads past `LANES` wrap onto shared counter lanes; the summed
/// metrics still count every op exactly.
#[test]
fn metrics_count_every_op_across_wrapped_lanes() {
    let db = new_store(ChameleonConfig::tiny());
    let threads = 2 * pmem_sim::LANES + 1;
    let k = 300u64;
    let cost = Arc::new(CostModel::default());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (db, cost) = (&db, Arc::clone(&cost));
            s.spawn(move || {
                let mut c = ThreadCtx::for_thread(cost, t);
                let base = t as u64 * 1_000_000;
                let mut out = Vec::new();
                for i in 0..k {
                    db.put(&mut c, base + i, &value_for(base + i)).unwrap();
                    // Odd rounds ask for a key nobody wrote.
                    let hit = i % 2 == 0;
                    let key = if hit { base + i } else { base + k + i };
                    assert_eq!(db.get(&mut c, key, &mut out).unwrap(), hit);
                }
            });
        }
    });
    let total = threads as u64 * k;
    let m = db.metrics();
    assert_eq!(m.puts, total);
    assert_eq!(m.gets, total);
    assert_eq!(m.hits() + m.misses, total);
    assert_eq!(m.misses, total / 2);
}

#[test]
fn frozen_queue_never_exceeds_cap_under_concurrent_load() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 1;
    cfg.bg.frozen_queue_cap = 1;
    let db = std::sync::Arc::new(new_store(cfg));
    let threads = 4;
    db.device().set_active_threads(threads);
    crossbeam::thread::scope(|s| {
        for t in 0..threads as usize {
            let db = std::sync::Arc::clone(&db);
            s.spawn(move |_| {
                let mut c =
                    ThreadCtx::for_thread(std::sync::Arc::new(pmem_sim::CostModel::default()), t);
                let base = t as u64 * 1_000_000;
                for k in 0..4000u64 {
                    db.put(&mut c, base + k, &(base + k).to_le_bytes()).unwrap();
                }
            });
        }
        // Observer: the backpressure invariant must hold at any
        // instant, not just at the end.
        let db2 = std::sync::Arc::clone(&db);
        s.spawn(move |_| {
            for _ in 0..200 {
                for shard in &db2.shards {
                    assert!(shard.mem.lock().pending_frozen() <= 1);
                }
                std::thread::yield_now();
            }
        });
    })
    .unwrap();
    db.drain_maintenance().unwrap();
    let mut c = ctx();
    let mut out = Vec::new();
    for t in 0..threads as u64 {
        let base = t * 1_000_000;
        for k in 0..4000u64 {
            assert!(db.get(&mut c, base + k, &mut out).unwrap());
        }
    }
}

#[test]
fn concurrent_puts_and_gets() {
    let cfg = ChameleonConfig::tiny();
    let db = std::sync::Arc::new(new_store(cfg));
    let threads = 4;
    db.device().set_active_threads(threads);
    crossbeam::thread::scope(|s| {
        for t in 0..threads as usize {
            let db = std::sync::Arc::clone(&db);
            s.spawn(move |_| {
                let mut c =
                    ThreadCtx::for_thread(std::sync::Arc::new(pmem_sim::CostModel::default()), t);
                let base = t as u64 * 1_000_000;
                for k in 0..5000u64 {
                    db.put(&mut c, base + k, &(base + k).to_le_bytes()).unwrap();
                }
                let mut out = Vec::new();
                for k in 0..5000u64 {
                    assert!(db.get(&mut c, base + k, &mut out).unwrap());
                    assert_eq!(out, (base + k).to_le_bytes());
                }
            });
        }
    })
    .unwrap();
    assert!(db.approx_len() >= 4 * 5000);
}

/// Small extents + no worker pool so GC passes run (and finish)
/// deterministically on the putting thread inside the churn loop.
fn gc_cfg() -> ChameleonConfig {
    let mut cfg = ChameleonConfig::tiny();
    cfg.log = kvlog::LogConfig {
        capacity: 2 << 20,
        batch_bytes: 512,
        max_value: 8 << 10,
        extent_bytes: 16 << 10,
    };
    cfg.bg.workers = 0;
    cfg
}

/// `rounds` overwrites of `keys` 64 B values on a fresh `gc_cfg` store.
fn gc_churn(keys: u64, rounds: u64) -> (ChameleonDb, ThreadCtx) {
    let db = new_store(gc_cfg());
    let mut c = ctx();
    for r in 0..rounds {
        for k in 0..keys {
            db.put(&mut c, k, &[r as u8; 64]).unwrap();
        }
    }
    (db, c)
}

#[test]
fn gc_keeps_footprint_bounded_under_churn() {
    let (keys, rounds) = (200u64, 150u64);
    let (db, mut c) = gc_churn(keys, rounds);
    let m = db.metrics();
    assert!(m.gc_runs > 0, "GC never ran");
    assert!(m.gc_reclaimed_extents > 0, "GC reclaimed no extents");
    assert!(m.gc_relocated_entries > 0, "GC relocated nothing");
    let s = db.space_stats();
    // The overwrite volume exceeded the raw log capacity (127 data
    // extents): only extent recycling made the workload fit at all.
    assert!(
        m.gc_reclaimed_extents > 127,
        "turnover below capacity — recycling unproven: {m:?} {s:?}"
    );
    assert!(
        s.footprint_bytes <= (2 << 20) / 4,
        "footprint not bounded by GC: {s:?}"
    );
    // Every key reads back at its final round's value.
    let mut out = Vec::new();
    for k in 0..keys {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost by GC");
        assert_eq!(out, [(rounds - 1) as u8; 64], "key {k} stale after GC");
    }
}

/// With no worker pool, GC is a pure function of the write stream:
/// the same churn on two fresh devices relocates the same entries.
#[test]
fn gc_churn_is_deterministic_without_workers() {
    let outcome = || {
        let (db, _) = gc_churn(200, 150);
        let m = db.metrics();
        (
            m.gc_runs,
            m.gc_relocated_entries,
            m.gc_relocated_bytes,
            db.space_stats(),
        )
    };
    assert_eq!(outcome(), outcome());
}

/// The exactly-once dead-byte crediting invariant: on a store whose
/// accounting never crossed a crash, the bytes referenced by the read
/// path plus the credited dead bytes account for every appended byte —
/// across overwrites, deletes, re-puts, flushes, WIM merges, dumps and
/// both compaction kinds.
#[test]
fn dead_byte_accounting_reconciles_exactly() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.gc.enabled = false; // isolate crediting from reclamation
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 3000);
    for k in 0..3000u64 {
        db.put(&mut c, k, &(k + 1).to_le_bytes()).unwrap();
    }
    for k in 0..1000u64 {
        db.delete(&mut c, k).unwrap();
    }
    for k in 0..500u64 {
        db.put(&mut c, k, &(k + 2).to_le_bytes()).unwrap();
    }
    db.checkpoint(&mut c).unwrap();
    for k in 1500..3000u64 {
        db.put(&mut c, k, &(k + 3).to_le_bytes()).unwrap();
    }
    db.drain_maintenance().unwrap();
    let s = db.space_stats();
    let live = db.audit_live_bytes(&mut c);
    assert_eq!(
        live + s.dead_bytes,
        s.appended_bytes,
        "dead-byte crediting out of balance: audited live {live}, {s:?}"
    );
    assert!(s.dead_bytes > 0, "workload produced no dead bytes");
}

/// Same reconciliation with GC enabled: relocation appends live copies
/// and `finish_gc` settles each collected extent, so the global
/// invariant must survive arbitrary interleaving of churn and passes.
#[test]
fn dead_byte_accounting_reconciles_across_gc() {
    let db = new_store(gc_cfg());
    let mut c = ctx();
    for r in 0..60u64 {
        for k in 0..300u64 {
            db.put(&mut c, k, &[r as u8; 48]).unwrap();
        }
        if r % 7 == 3 {
            for k in 0..50u64 {
                db.delete(&mut c, k).unwrap();
            }
        }
    }
    assert!(db.metrics().gc_runs > 0, "GC never ran");
    let s = db.space_stats();
    let live = db.audit_live_bytes(&mut c);
    assert_eq!(
        live + s.dead_bytes,
        s.appended_bytes,
        "accounting drifted across GC: audited live {live}, {s:?}"
    );
}

/// The same reconciliation with GC passes on the worker pool, racing
/// the flushes of the shards they repoint: GC takes `levels` then
/// `mem`, as a maintenance pass does.
#[test]
fn dead_byte_accounting_reconciles_across_gc_on_the_worker_pool() {
    let mut cfg = gc_cfg();
    cfg.bg.workers = 2;
    let db = new_store(cfg);
    let rounds = 60u64;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let db = &db;
            s.spawn(move || {
                let mut c = ThreadCtx::for_thread(Arc::new(CostModel::default()), t as usize);
                for r in 0..rounds {
                    for k in 0..150u64 {
                        let key = t * 1_000 + k;
                        db.put(&mut c, key, &[r as u8; 48]).unwrap();
                    }
                }
            });
        }
    });
    db.drain_maintenance().unwrap();
    assert!(db.metrics().gc_runs > 0, "GC never ran");
    let mut c = ctx();
    let s = db.space_stats();
    let live = db.audit_live_bytes(&mut c);
    assert_eq!(
        live + s.dead_bytes,
        s.appended_bytes,
        "accounting drifted across pool GC: audited live {live}, {s:?}"
    );
    let mut out = Vec::new();
    for t in 0..2u64 {
        for k in 0..150u64 {
            let key = t * 1_000 + k;
            assert!(db.get(&mut c, key, &mut out).unwrap(), "key {key} lost");
            assert_eq!(out, [(rounds - 1) as u8; 48], "key {key} stale");
        }
    }
}

/// A last-level slot that GC left behind, naming the very offset, key
/// and size of the reused extent's next occupant. 16 entries of 1 KiB
/// fill a 16 KiB extent exactly, so once extent 0 is collected the next
/// put — of key 0 again — lands where key 0's first version was. Returns
/// the store, its context and the first version's location word.
fn same_offset_reuse() -> (ChameleonDb, ThreadCtx, u64) {
    let mut cfg = gc_cfg();
    cfg.gc.enabled = false; // only the explicit collection below
    let db = new_store(cfg);
    let mut c = ctx();
    let value = |round: u8| vec![round; 1024 - kvlog::ENTRY_HEADER];
    for k in 0..16u64 {
        db.put(&mut c, k, &value(0)).unwrap();
    }
    db.checkpoint(&mut c).unwrap(); // the first versions reach the last level
    let first = db.log.extent_entries(&mut c, 0).unwrap()[0].0;
    assert_eq!((first.key, first.gen), (0, 1));
    // Second versions fill extent 1 and seal extent 0, whose entries are
    // now all shadowed: GC relocates none of them and frees the extent.
    for k in 0..16u64 {
        db.put(&mut c, k, &value(1)).unwrap();
    }
    assert_eq!(db.gc_extent(&mut c, 0).unwrap(), (0, 0));
    db.put(&mut c, 0, &value(2)).unwrap();
    let reused = db.log.extent_entries(&mut c, 0).unwrap()[0].0;
    assert_eq!(
        (reused.key, reused.off, reused.vlen, reused.gen),
        (0, first.off, first.vlen, 2),
        "the third version must reuse the first one's offset"
    );
    assert_ne!(reused.loc(), first.loc());
    (db, c, first.loc())
}

/// Same offset, same key, same size: the entry header cannot tell the
/// stale last-level slot from the live entry that reused its offset, so
/// a header check alone credits that entry's bytes once when the merge
/// drops the slot and again when the entry itself is superseded, and
/// `dead` overtakes the audit. The generation tells them apart.
#[test]
fn same_offset_reuse_is_credited_once() {
    let (db, mut c, stale) = same_offset_reuse();
    let value = vec![3u8; 1024 - kvlog::ENTRY_HEADER];
    db.checkpoint(&mut c).unwrap(); // drops the stale slot
    assert!(
        db.metrics().stale_credit_skips > 0,
        "stale slot never dropped"
    );
    db.put(&mut c, 0, &value).unwrap(); // supersedes the reused entry
    db.checkpoint(&mut c).unwrap();
    let (appended, dead, _) = db.log.extent_accounting(0);
    assert_eq!(
        dead, 1024,
        "extent 0: the reused entry is the only dead one"
    );
    assert_eq!(appended, 2048);
    let s = db.space_stats();
    let live = db.audit_live_bytes(&mut c);
    assert_eq!(
        live + s.dead_bytes,
        s.appended_bytes,
        "accounting drift: audited live {live}, {s:?}"
    );
    let mut out = Vec::new();
    assert!(db.get(&mut c, 0, &mut out).unwrap());
    assert_eq!(out, value);
    // The stale word still reads as a pointer into the live extent; only
    // its generation keeps it out.
    assert!(!in_resident_generation(&db.log, stale));
}

/// Extent generations survive restart: after `crash_and_recover` the
/// reused extent is back in generation 2, so the stale last-level slot
/// (generation 1) is still skipped when a merge drops it, and the entry
/// that reused its offset is credited exactly once.
#[test]
fn stale_slot_into_reused_extent_is_skipped_after_restart() {
    let (mut db, mut c, stale) = same_offset_reuse();
    db.sync(&mut c).unwrap();
    db.crash_and_recover(&mut c).unwrap();
    assert_eq!(db.log.extent_state_gen(0), (kvlog::ExtentState::Sealed, 2));
    assert!(!in_resident_generation(&db.log, stale));
    let value = vec![3u8; 1024 - kvlog::ENTRY_HEADER];
    db.checkpoint(&mut c).unwrap(); // drops the stale slot
    assert!(
        db.metrics().stale_credit_skips > 0,
        "stale slot never dropped"
    );
    db.put(&mut c, 0, &value).unwrap();
    db.checkpoint(&mut c).unwrap();
    let (_, dead, _) = db.log.extent_accounting(0);
    assert_eq!(
        dead, 1024,
        "extent 0: the reused entry is the only dead one"
    );
    let mut out = Vec::new();
    for k in 0..16u64 {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
    }
    assert_eq!(out, [1u8; 1024 - kvlog::ENTRY_HEADER]);
    assert!(db.get(&mut c, 0, &mut out).unwrap());
    assert_eq!(out, value);
}

/// Disabled GC costs nothing: with `gc.enabled = false` the merges that
/// retire superseded versions (ABI overwrites, last-level drops) must
/// cost exactly what they cost when dead-byte crediting is compiled out.
/// The constants were measured on a build whose `credit_dead_slot`
/// returned at once (debug and release agree). A header read per
/// superseded version would add 4 224 000 sim ns and 3 072 000 media
/// read bytes for this script's 12 000 of them. The script makes no
/// MemTable overwrite, so `dead_bytes > 0` means the merges did credit.
#[test]
fn gc_off_merges_pay_nothing_for_crediting() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.gc.enabled = false;
    cfg.bg.workers = 0;
    let db = new_store(cfg);
    let mut c = ctx();
    let (t0, s0) = (c.clock.now(), db.dev.stats().snapshot());
    for round in 0..4u64 {
        for k in 0..4000u64 {
            db.put(&mut c, k, &(k + round).to_le_bytes()).unwrap();
        }
    }
    db.checkpoint(&mut c).unwrap();
    let io = db.dev.stats().snapshot() - s0;
    let m = db.metrics();
    assert!(m.last_compactions > 0, "no last-level compaction: {m:?}");
    assert!(db.space_stats().dead_bytes > 0, "nothing was superseded");
    assert_eq!(
        (
            c.clock.now() - t0,
            io.media_bytes_read,
            io.media_bytes_written
        ),
        (3_234_791, 553_728, 1_817_344)
    );
}

#[test]
fn churn_with_gc_survives_crash_and_recovery() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = gc_cfg();
    let mut db = ChameleonDb::create(Arc::clone(&dev), cfg).unwrap();
    let mut c = ctx();
    let (keys, rounds) = (200u64, 100u64);
    for r in 0..rounds {
        for k in 0..keys {
            db.put(&mut c, k, &[r as u8; 64]).unwrap();
        }
    }
    assert!(db.metrics().gc_reclaimed_extents > 0, "GC never reclaimed");
    db.sync(&mut c).unwrap();
    db.crash_and_recover(&mut c).unwrap();
    let mut out = Vec::new();
    for k in 0..keys {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, [(rounds - 1) as u8; 64], "key {k} stale");
    }
    // GC reclaimed the shadowed versions' extents before the crash;
    // the rebuilt index holds exactly the live keys.
    assert_eq!(
        db.scan(&mut c, 0, 1000).unwrap(),
        (0..keys).collect::<Vec<_>>()
    );
    // The recycled log keeps working: more churn, another readback.
    for r in 0..40u64 {
        for k in 0..keys {
            db.put(&mut c, k, &[100 + r as u8; 64]).unwrap();
        }
    }
    for k in 0..keys {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost (2)");
        assert_eq!(out, [139u8; 64], "key {k} stale (2)");
    }
}

/// Get-Protect Mode on cue: one-sample windows against a 1 s threshold
/// no real get reaches, so [`enter_gpm`] enters the mode and the next
/// get leaves it.
fn scripted_gpm() -> GpmConfig {
    GpmConfig {
        enabled: true,
        enter_threshold_ns: 1_000_000_000,
        exit_threshold_ns: 1_000_000_000,
        window_ops: 1,
    }
}

fn enter_gpm(db: &ChameleonDb) {
    db.mode.record_get_latency(10_000_000_000);
    assert_eq!(db.mode(), Mode::GetProtect);
}

/// Where the read path resolves `key` now, probed as GC probes it.
fn resolved_source(db: &ChameleonDb, c: &mut ThreadCtx, key: u64) -> Option<GetSource> {
    let hash = hash64(key);
    let shard = &db.shards[db.shard_of(hash)];
    let levels = shard.levels.lock();
    let view = shard.mem.lock().view(&levels);
    view.get(&db.dev, c, hash, db.cfg.use_abi_for_get)
        .map(|(_, source)| source)
}

/// Every key of `model` reads back at its value, no other key below
/// `span` does, and a scan of the whole key space returns exactly the
/// keys the gets found.
fn check_model(db: &ChameleonDb, c: &mut ThreadCtx, model: &BTreeMap<u64, Vec<u8>>, span: u64) {
    let mut out = Vec::new();
    for k in 0..span {
        let found = db.get(c, k, &mut out).unwrap();
        match model.get(&k) {
            Some(v) => {
                assert!(found, "key {k} lost");
                assert_eq!(&out, v, "key {k} stale");
            }
            None => assert!(!found, "key {k} resurrected"),
        }
    }
    assert_eq!(
        db.scan(c, 0, usize::MAX).unwrap(),
        model.keys().copied().collect::<Vec<_>>()
    );
}

/// GC of words that resolve from a GPM-dumped table. A dump leaves the
/// ABI's image behind as an unmerged table, so a key flushed before the
/// episode sits with the same word in an upper table *and* the dumped
/// table, and a key merged during it sits in the dumped table alone.
/// Collecting their extents must repoint both: skipping the dumped
/// tables leaves gets reading reclaimed extents, and skipping the upper
/// tables shows after the crash, when the degraded walk reads them
/// first.
#[test]
fn gc_repoints_dumped_tables_and_the_uppers_behind_them() {
    let mut cfg = gc_cfg();
    cfg.gc.enabled = false; // only the explicit collections below
    cfg.shards = 1;
    cfg.memtable_slots = 16; // a 1 024-slot ABI: ~920 keys force a dump
    cfg.max_abi_dumps = 4;
    cfg.gpm = scripted_gpm();
    let mut db = new_store(cfg);
    let mut c = ctx();
    let mut model = BTreeMap::new();
    let put =
        |db: &ChameleonDb, c: &mut ThreadCtx, model: &mut BTreeMap<_, _>, k: u64, round: u64| {
            let v = (k * 10 + round).to_le_bytes().repeat(4);
            db.put(c, k, &v).unwrap();
            model.insert(k, v);
        };
    for k in 0..600u64 {
        put(&db, &mut c, &mut model, k, 0); // Normal: flushed to the upper levels
    }
    enter_gpm(&db);
    for k in 600..1000u64 {
        put(&db, &mut c, &mut model, k, 0); // merged into the ABI, dumped when full
    }
    assert_eq!(db.metrics().abi_dumps, 1, "{:?}", db.metrics());
    assert_eq!(db.metrics().last_compactions, 0);
    let sealed: Vec<u64> = (0..db.log.data_extent_count())
        .filter(|&i| db.log.extent_state(i) == kvlog::ExtentState::Sealed)
        .collect();
    let (mut dumped, mut behind) = (0, 0);
    for &idx in &sealed {
        for (meta, _) in db.log.extent_entries(&mut c, idx).unwrap() {
            if resolved_source(&db, &mut c, meta.key) == Some(GetSource::Dumped) {
                dumped += 1;
                behind += u64::from(meta.key < 600);
            }
        }
    }
    assert!(
        dumped >= 500 && behind >= 300,
        "{dumped} dumped-resolved words, {behind} with an upper copy"
    );
    for &idx in &sealed {
        db.gc_extent(&mut c, idx).unwrap();
    }
    let span = 1000;
    check_model(&db, &mut c, &model, span);
    db.sync(&mut c).unwrap();
    db.crash_and_recover(&mut c).unwrap();
    check_model(&db, &mut c, &model, span); // degraded walk: uppers first
    for k in 0..40u64 {
        put(&db, &mut c, &mut model, k, 1); // refills a MemTable: ABI rebuild
    }
    assert!(db.metrics().abi_rebuilds > 0);
    check_model(&db, &mut c, &model, span);
    db.checkpoint(&mut c).unwrap(); // folds the dumped table into the last
    check_model(&db, &mut c, &model, span);
}

/// The (hash, word) slots a shard's last level shares with any of its
/// other structures — the MemTables (live, frozen, in flight), the ABI,
/// the upper tables and the dumped tables — with each shared entry's
/// log seq.
fn shared_with_last(
    db: &ChameleonDb,
    c: &mut ThreadCtx,
    shard: &Shard,
) -> BTreeMap<(u64, u64), Option<u64>> {
    let levels = shard.levels.lock();
    let mem = shard.mem.lock();
    let Some(last) = &levels.last else {
        return BTreeMap::new();
    };
    let mut in_last = HashSet::new();
    last.table().for_each_entry(&db.dev, c, |s| {
        in_last.insert((s.hash, s.loc));
    });
    let mut shared = HashSet::new();
    let volatile = std::iter::once(&mem.memtable)
        .chain(&mem.frozen)
        .chain(&mem.in_flight)
        .chain(std::iter::once(&levels.abi));
    for t in volatile {
        for s in t.iter() {
            if in_last.contains(&(s.hash, s.loc)) {
                shared.insert((s.hash, s.loc));
            }
        }
    }
    for t in levels.uppers.iter().flatten().chain(&levels.dumped) {
        t.table().for_each_entry(&db.dev, c, |s| {
            if in_last.contains(&(s.hash, s.loc)) {
                shared.insert((s.hash, s.loc));
            }
        });
    }
    // A word into a reclaimed extent has no seq left to read (`None`):
    // GC skipped it because a newer version shadowed it, and no get
    // dereferences it.
    shared
        .into_iter()
        .map(|(hash, loc)| {
            let seq = in_resident_generation(&db.log, loc).then(|| {
                let meta = db.log.entry_meta_at(c, kvlog::unpack_loc(loc).0).unwrap();
                assert_eq!(
                    hash64(meta.key),
                    hash,
                    "shared slot {loc:x} names another key"
                );
                meta.seq
            });
            ((hash, loc), seq)
        })
        .collect()
}

/// The invariant GC's repoint rule rests on (DESIGN §6.2): a (hash,
/// word) slot of a shard's last level is in none of the shard's other
/// structures, unless replay made the copy, so its entry was in the log
/// at the latest restart. A seeded script runs Normal, Write-Intensive
/// and Get-Protect phases (with ABI dumps), checkpoints, GC passes,
/// deletes, and crash + recover + ABI rebuild, and checks every shard
/// after every step; the model after every crash. Around each explicit
/// GC pass, every hash shared before is still shared after: GC moves all
/// copies of a word together.
#[test]
fn last_level_shares_no_slot_with_newer_structures() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut cfg = gc_cfg();
    cfg.shards = 2;
    cfg.memtable_slots = 16;
    cfg.max_abi_dumps = 2;
    cfg.gpm = scripted_gpm();
    let mut db = new_store(cfg);
    let mut c = ctx();
    let mut oracle_ctx = ctx();
    let mut rng = StdRng::seed_from_u64(0x6c61_7374);
    let mut model = BTreeMap::new();
    let span = 3000u64;
    // What the script reached, over every store the crashes start.
    let mut reached = [0u64; 6];
    let mut note = |m: StoreMetricsSnapshot| {
        let counts = [
            m.abi_dumps,
            m.wim_merges,
            m.last_compactions,
            m.abi_rebuilds,
            m.gc_relocated_entries,
            m.last_hits,
        ];
        for (r, n) in reached.iter_mut().zip(counts) {
            *r += n;
        }
    };
    let shared_hashes = |db: &ChameleonDb, c: &mut ThreadCtx, at: &str| {
        let mut hashes = BTreeSet::new();
        for (s, shard) in db.shards.iter().enumerate() {
            for ((hash, loc), seq) in shared_with_last(db, c, shard) {
                assert!(
                    seq.is_none_or(|seq| seq <= db.restart_seq),
                    "{at}, shard {s}: slot ({hash:x}, {loc:x}) at seq {seq:?} is in the \
                     last level and a newer structure, above the restart seq {}",
                    db.restart_seq
                );
                hashes.insert(hash);
            }
        }
        hashes
    };
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Puts,
        Normal,
        WriteIntensive,
        GetProtect,
        Checkpoint,
        Gc,
        Crash,
    }
    use Step::*;
    let script = [
        Puts,
        Checkpoint,
        Puts,
        WriteIntensive,
        Puts,
        Normal,
        Puts,
        Crash,
        Puts,
        GetProtect,
        Puts,
        Puts,
        Normal,
        Puts,
        Gc,
        Checkpoint,
        Puts,
        Gc,
        WriteIntensive,
        Puts,
        Crash,
        Puts,
        Normal,
        Puts,
        GetProtect,
        Puts,
        Crash,
        Puts,
        Normal,
        Gc,
        Puts,
        Checkpoint,
        Puts,
        Gc,
    ];
    let mut replayed_copies = 0;
    for round in 0..3 {
        for (i, &step) in script.iter().enumerate() {
            let at = format!("round {round} step {i} ({step:?})");
            match step {
                Puts => {
                    for _ in 0..rng.gen_range(200..1200) {
                        let k = rng.gen_range(0..span);
                        if rng.gen_bool(0.1) {
                            db.delete(&mut c, k).unwrap();
                            model.remove(&k);
                        } else {
                            let v = vec![rng.gen::<u8>(); rng.gen_range(8..64)];
                            db.put(&mut c, k, &v).unwrap();
                            model.insert(k, v);
                        }
                    }
                }
                Normal => db.set_mode(Mode::Normal),
                WriteIntensive => db.set_mode(Mode::WriteIntensive),
                GetProtect => enter_gpm(&db),
                Checkpoint => db.checkpoint(&mut c).unwrap(),
                Gc => {
                    let before = shared_hashes(&db, &mut oracle_ctx, &at);
                    db.gc_once(&mut c).unwrap();
                    let after = shared_hashes(&db, &mut oracle_ctx, &at);
                    let split: Vec<_> = before.difference(&after).collect();
                    assert!(split.is_empty(), "{at}: GC split the copies of {split:x?}");
                }
                Crash => {
                    db.sync(&mut c).unwrap();
                    note(db.metrics());
                    db.crash_and_recover(&mut c).unwrap();
                    check_model(&db, &mut c, &model, span);
                }
            }
            replayed_copies += shared_hashes(&db, &mut oracle_ctx, &at).len();
        }
    }
    check_model(&db, &mut c, &model, span);
    note(db.metrics());
    assert!(
        reached.iter().all(|&n| n > 0),
        "script missed a transition (dumps, WIM merges, last compactions, \
         ABI rebuilds, GC relocations, last-level hits): {reached:?}"
    );
    assert!(
        replayed_copies > 0,
        "the script never reached a replayed copy"
    );
}

/// Dead-byte crediting across crashes. A Normal flush after a
/// Write-Intensive merge claims less than its L0 table holds, so after a
/// crash replay re-inserts entries that the table (and the ABI rebuilt
/// from it) still hold with the same (hash, word). When that MemTable
/// copy is flushed or WIM-merged, the ABI hands back the identical word,
/// and a last-level merge meets both copies. Neither is a superseded
/// version: crediting it would count a live entry as dead.
///
/// GC is off. Recovery restarts `dead` from zero, so a crash leaves a
/// slack `appended - (live + dead)` of superseded bytes it cannot know
/// about: the slack never goes negative, and between crashes it stays
/// exactly constant. Right after each crash the script puts again the
/// keys it wrote last, so puts overwrite replayed MemTable copies whose
/// words a table and the rebuilt ABI may still hold: only the drop of
/// the last slot that holds such a word may credit it.
#[test]
fn replayed_copies_are_not_credited_as_dead() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut cfg = gc_cfg();
    cfg.gc.enabled = false;
    cfg.shards = 2;
    cfg.memtable_slots = 16;
    let mut db = new_store(cfg);
    let mut c = ctx();
    let mut rng = StdRng::seed_from_u64(0x6c61_7374);
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Puts(u32),
        Reput,
        WriteIntensive,
        Normal,
        Crash,
        Checkpoint,
    }
    use Step::*;
    // Each crash follows a Normal flush after a WIM phase. After the
    // first two, replayed copies still sit in the MemTables and the
    // checkpoint flushes them (Normal) or WIM-merges them; after the
    // third, the checkpoint's last-level merge meets both copies.
    let script = [
        Puts(1200),
        WriteIntensive,
        Puts(1200),
        Normal,
        Puts(24),
        Crash,
        Reput,
        Checkpoint,
        Puts(1200),
        WriteIntensive,
        Puts(1200),
        Normal,
        Puts(24),
        Crash,
        Reput,
        WriteIntensive,
        Checkpoint,
        Normal,
        Puts(1200),
        WriteIntensive,
        Puts(1200),
        Normal,
        Puts(1200),
        Crash,
        Reput,
        WriteIntensive,
        Checkpoint,
        Normal,
    ];
    // The keys written last, newest at the back: those of the tables
    // and MemTables replay copies from.
    let mut recent: Vec<u64> = Vec::new();
    let mut slack = 0;
    for round in 0..3 {
        for (i, &step) in script.iter().enumerate() {
            match step {
                Puts(most) => {
                    for _ in 0..rng.gen_range(most / 6..most) {
                        let k = rng.gen_range(0..3000u64);
                        if rng.gen_bool(0.1) {
                            db.delete(&mut c, k).unwrap();
                        } else {
                            let v = vec![rng.gen::<u8>(); rng.gen_range(8..64)];
                            db.put(&mut c, k, &v).unwrap();
                        }
                        recent.push(k);
                    }
                }
                Reput => {
                    for &k in recent.iter().rev().take(96) {
                        db.put(&mut c, k, &[round as u8; 24]).unwrap();
                    }
                }
                WriteIntensive => db.set_mode(Mode::WriteIntensive),
                Normal => db.set_mode(Mode::Normal),
                Crash => {
                    db.sync(&mut c).unwrap();
                    db.crash_and_recover(&mut c).unwrap();
                }
                Checkpoint => db.checkpoint(&mut c).unwrap(),
            }
            let s = db.space_stats();
            let live = db.audit_live_bytes(&mut c);
            let at = format!("round {round} step {i} ({step:?})");
            assert!(
                live + s.dead_bytes <= s.appended_bytes,
                "{at}: audited live {live} + dead {} exceeds appended {}",
                s.dead_bytes,
                s.appended_bytes
            );
            let now = s.appended_bytes - live - s.dead_bytes;
            if step == Crash {
                slack = now;
            }
            assert_eq!(now, slack, "{at}: the books moved between crashes");
        }
    }
}

/// The simulated cost of one scripted GC pass on one thread, pinned: a
/// collection of every sealed extent, whose live words resolve from the
/// last level (never overwritten since the checkpoint), the ABI and the
/// MemTable (overwritten since). It pins both halves of the repoint rule
/// and `repoint_slot`'s probe cost.
#[test]
fn gc_pass_sim_cost_is_pinned() {
    let mut cfg = gc_cfg();
    cfg.gc.enabled = false; // only the measured pass
    let db = new_store(cfg);
    let mut c = ctx();
    let keys = 2000u64;
    // Round r overwrites keys below `fresh[r]`.
    let fresh = [keys, 1000, 300];
    for (round, &n) in fresh.iter().enumerate() {
        for k in 0..n {
            db.put(&mut c, k, &[round as u8; 64]).unwrap();
        }
        if round == 0 {
            db.checkpoint(&mut c).unwrap();
        }
    }
    let mut sources = Vec::new();
    for k in 0..keys {
        let source = resolved_source(&db, &mut c, k).unwrap();
        if !sources.contains(&source) {
            sources.push(source);
        }
    }
    assert!(
        sources.contains(&GetSource::Last) && sources.len() >= 3,
        "{sources:?}"
    );
    let sealed: Vec<u64> = (0..db.log.data_extent_count())
        .filter(|&i| db.log.extent_state(i) == kvlog::ExtentState::Sealed)
        .collect();
    let (t0, s0) = (c.clock.now(), db.dev.stats().snapshot());
    let mut relocated = 0;
    for idx in sealed {
        relocated += db.gc_extent(&mut c, idx).unwrap().0;
    }
    let io = db.dev.stats().snapshot() - s0;
    assert!(relocated > 1000, "{relocated} relocated");
    assert_eq!(
        (
            c.clock.now() - t0,
            io.media_bytes_read,
            io.media_bytes_written
        ),
        (2_573_713, 1_519_104, 752_896)
    );
    let mut out = Vec::new();
    for k in 0..keys {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
        let round = fresh.iter().rposition(|&n| k < n).unwrap();
        assert_eq!(out, [round as u8; 64], "key {k} stale");
    }
}

/// Per-extent max-seq summaries: a checkpointed store's recovery scan
/// must skip extents wholly below the checkpoint floor instead of
/// decoding them.
#[test]
fn recovery_skips_fully_checkpointed_extents() {
    let dev = PmemDevice::optane(512 << 20);
    let mut cfg = ChameleonConfig::tiny();
    cfg.log = kvlog::LogConfig {
        capacity: 4 << 20,
        batch_bytes: 512,
        max_value: 8 << 10,
        extent_bytes: 16 << 10,
    };
    cfg.gc.enabled = false; // keep the sealed-extent layout simple
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    for k in 0..2000u64 {
        db.put(&mut c, k, &[k as u8; 64]).unwrap();
    }
    db.checkpoint(&mut c).unwrap();
    drop(db);
    dev.crash();
    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    let (scanned, skipped) = db.log().recovery_scan_stats();
    assert!(
        skipped > scanned,
        "checkpointed extents were rescanned: scanned {scanned}, skipped {skipped}"
    );
    let mut out = Vec::new();
    for k in 0..2000u64 {
        assert!(db.get(&mut c, k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, [k as u8; 64]);
    }
}

#[test]
fn scan_returns_sorted_contiguous_live_keys() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 2000);
    // Mid-range: exactly the next `limit` keys, ascending.
    let keys = db.scan(&mut c, 500, 100).unwrap();
    assert_eq!(keys, (500..600).collect::<Vec<u64>>());
    // Inclusive start, and a scan past the max key is empty.
    assert_eq!(db.scan(&mut c, 0, 3).unwrap(), vec![0, 1, 2]);
    assert_eq!(db.scan(&mut c, 1999, 10).unwrap(), vec![1999]);
    assert!(db.scan(&mut c, 2000, 10).unwrap().is_empty());
    assert!(db.scan(&mut c, 42, 0).unwrap().is_empty());
    let m = db.metrics();
    assert_eq!(m.scans, 5);
    assert_eq!(m.scanned_keys, 104);
}

#[test]
fn scan_skips_deletes_and_survives_compactions() {
    // 60k keys through tiny geometry force flushes and mid/last-level
    // compactions in every shard; the ordered index must keep exact
    // membership through all of it.
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 60_000);
    for k in (0..1000u64).map(|i| i * 2) {
        db.delete(&mut c, k).unwrap();
    }
    db.checkpoint(&mut c).unwrap();
    let keys = db.scan(&mut c, 0, 1000).unwrap();
    let expect: Vec<u64> = (0..2000u64).filter(|k| k % 2 == 1).collect();
    assert_eq!(keys, expect, "scan must skip tombstoned keys");
    // The 1000 deleted evens in [0, 2000) left the index, so they did not
    // eat into the limit.
    assert_eq!(keys.len(), 1000);
}

#[test]
fn scan_unsupported_without_ordered_index() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.ordered_index = false;
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 100);
    assert!(matches!(
        db.scan(&mut c, 0, 10),
        Err(KvError::Unsupported(_))
    ));
    assert_eq!(db.metrics().scans, 0);
}

#[test]
fn ordered_index_counts_toward_dram_footprint() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.ordered_index = false;
    let bare = new_store(cfg);
    let indexed = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&bare, &mut c, 1000);
    fill(&indexed, &mut c, 1000);
    assert!(
        indexed.dram_footprint() > bare.dram_footprint(),
        "ordered index DRAM not accounted: {} vs {}",
        indexed.dram_footprint(),
        bare.dram_footprint()
    );
}

/// The ordered index is one tree at any shard count: the same puts and
/// deletes scan alike at 4 and 64 shards, and an empty index costs the
/// same DRAM at 1 and 64.
#[test]
fn ordered_index_is_one_tree_at_any_shard_count() {
    let with_shards = |shards| ChameleonConfig {
        shards,
        ..ChameleonConfig::tiny()
    };
    let starts = [(0, 10), (1, 100), (2_600, 1_000), (64_000, 40), (65_000, 5)];
    let scans = |shards| {
        let db = new_store(with_shards(shards));
        let mut c = ctx();
        for k in 0..5_000u64 {
            db.put(&mut c, k * 13, &value_for(k)).unwrap();
        }
        for k in (0..5_000u64).step_by(3) {
            db.delete(&mut c, k * 13).unwrap();
        }
        starts.map(|(start, limit)| db.scan(&mut c, start, limit).unwrap())
    };
    let (four, sixty_four) = (scans(4), scans(64));
    assert_eq!(four, sixty_four);
    for ((start, limit), got) in starts.into_iter().zip(four) {
        let want: Vec<u64> = (0..5_000u64)
            .filter(|k| k % 3 != 0)
            .map(|k| k * 13)
            .filter(|&k| k >= start)
            .take(limit)
            .collect();
        assert_eq!(got, want, "scan from {start}, limit {limit}");
    }
    let empty = |shards| {
        let db = new_store(with_shards(shards));
        db.order.as_ref().unwrap().dram_bytes()
    };
    assert_eq!(empty(1), empty(64));
}

#[test]
fn recovery_rebuilds_ordered_index() {
    let db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 8000);
    for k in 3000..3500u64 {
        db.delete(&mut c, k).unwrap();
    }
    db.sync(&mut c).unwrap();
    let before = db.scan(&mut c, 2900, 700).unwrap();
    let mut db = db;
    db.crash_and_recover(&mut c).unwrap();
    // Recovery itself rebuilt the index: every live key, before any scan.
    assert_eq!(db.order.as_ref().unwrap().len(), 7500);
    // Degraded window: ABI not rebuilt yet, and the scan must already
    // agree with the pre-crash set.
    let degraded = db.scan(&mut c, 2900, 700).unwrap();
    assert_eq!(degraded, before, "degraded-window scan diverged");
    // After the ABI rebuild (first structural transition via new
    // writes) the same scan still holds.
    fill(&db, &mut c, 2000);
    db.drain_maintenance().unwrap();
    let fresh = db.scan(&mut c, 2900, 700).unwrap();
    assert_eq!(fresh, before, "post-rebuild scan diverged");
    let expect: Vec<u64> = (2900..3000).chain(3500..4100).collect();
    assert_eq!(fresh, expect);
}

#[test]
fn first_scan_after_recovery_costs_what_the_second_does() {
    let mut db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    fill(&db, &mut c, 4000);
    db.sync(&mut c).unwrap();
    db.crash_and_recover(&mut c).unwrap();
    let mut scan_ns = || {
        let start = c.clock.now();
        assert_eq!(db.scan(&mut c, 100, 500).unwrap().len(), 500);
        c.clock.now() - start
    };
    let first = scan_ns();
    assert_eq!(first, scan_ns(), "the first scan paid for a rebuild");
}

#[test]
fn recovery_rebuild_reflects_unsynced_tail_loss() {
    // Keys that never became durable must not reappear in the rebuilt
    // ordered index: scan and get agree after a torn crash.
    let dev = PmemDevice::optane(512 << 20);
    let cfg = ChameleonConfig::tiny();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut c = ctx();
    fill(&db, &mut c, 4000);
    db.sync(&mut c).unwrap();
    for k in 4000..4200u64 {
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    drop(db); // graceful-shutdown-free handle drop keeps the tail torn
    dev.crash();
    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut c).unwrap();
    let keys = db.scan(&mut c, 0, 10_000).unwrap();
    let mut out = Vec::new();
    for &k in &keys {
        assert!(
            db.get(&mut c, k, &mut out).unwrap(),
            "scan returned key {k} that get cannot see"
        );
    }
    let live: Vec<u64> = (0..4200u64)
        .filter(|&k| db.get(&mut c, k, &mut out).unwrap())
        .collect();
    assert_eq!(keys, live, "rebuilt index disagrees with the read path");
}

/// Tombstone flag of each version of `key` in `get`'s precedence order,
/// so newest first.
fn versions(db: &ChameleonDb, c: &mut ThreadCtx, key: u64) -> Vec<bool> {
    let hash = hash64(key);
    let mut tombs = Vec::new();
    db.shards[db.shard_of(hash)].slots_in_get_order(&db.dev, c, |sl| {
        if sl.hash == hash {
            tombs.push(sl.is_tombstone());
        }
    });
    tombs
}

/// The rebuild keeps each key's newest version wherever it sits: a
/// tombstone above a put hides the key, a put above a tombstone
/// brings it back. Keeping the oldest version instead would bring
/// `gone` and `dead` back and lose `reput`.
#[test]
fn recovery_rebuild_keeps_each_keys_newest_version() {
    let mut db = new_store(ChameleonConfig::tiny());
    let mut c = ctx();
    let [gone, back, reput, dead]: [u64; 4] = std::array::from_fn(|i| (1 << 40) + i as u64);
    for k in [gone, back, dead] {
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    db.checkpoint(&mut c).unwrap(); // all three into the last level
    db.delete(&mut c, gone).unwrap();
    db.delete(&mut c, back).unwrap();
    db.put(&mut c, dead, &value_for(dead)).unwrap();
    db.put(&mut c, reput, &value_for(reput)).unwrap();
    db.delete(&mut c, reput).unwrap();
    // ~100 keys a shard: every shard flushes the writes above to L0.
    fill(&db, &mut c, 800);
    db.drain_maintenance().unwrap();
    db.put(&mut c, back, &value_for(back)).unwrap();
    db.put(&mut c, reput, &value_for(reput)).unwrap();
    db.delete(&mut c, dead).unwrap();
    db.sync(&mut c).unwrap();
    db.crash_and_recover(&mut c).unwrap();
    assert_eq!(versions(&db, &mut c, gone), [true, false]);
    assert_eq!(versions(&db, &mut c, reput), [false, true]);
    assert_eq!(versions(&db, &mut c, back), [false, true, false]);
    assert_eq!(versions(&db, &mut c, dead), [true, false, false]);
    let want: Vec<u64> = (0..800).chain([back, reput]).collect();
    assert_eq!(db.scan(&mut c, 0, 10_000).unwrap(), want);
    let mut out = Vec::new();
    let found: Vec<u64> = (0..800)
        .chain([gone, back, reput, dead])
        .filter(|&k| db.get(&mut c, k, &mut out).unwrap())
        .collect();
    assert_eq!(found, want);
}

/// Recovery's simulated charges, pinned. A fixed single-thread script
/// leaves keys and tombstones in the last level, the upper levels and
/// the MemTables; `crash_and_recover` must then charge exactly the sim
/// ns, media read bytes and logical read bytes measured on the store
/// just before recovery's table walk became a visitor streaming into
/// one key array. Host-side work is free on the simulated clock, so a
/// restart optimisation that keeps the device reads moves none of
/// them; a change to the walk's charges must update them on purpose.
#[test]
fn recovery_sim_cost_is_pinned() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 0;
    let mut db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 3000);
    for k in (0..3000).step_by(7) {
        db.delete(&mut c, k).unwrap();
    }
    db.checkpoint(&mut c).unwrap(); // everything so far into the last level
    for k in 3000..4500 {
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    for k in (0..4500).step_by(5) {
        db.delete(&mut c, k).unwrap();
    }
    for k in 4500..4530 {
        db.put(&mut c, k, &value_for(k)).unwrap();
    }
    db.sync(&mut c).unwrap();
    let (t0, s0) = (c.clock.now(), db.dev.stats().snapshot());
    db.crash_and_recover(&mut c).unwrap();
    let io = db.dev.stats().snapshot() - s0;
    assert_eq!(
        (
            c.clock.now() - t0,
            io.media_bytes_read,
            io.logical_bytes_read
        ),
        (252_834, 1_244_928, 1_182_840)
    );
}

/// The live keys `get` finds among `0..span`, checked against `model`
/// and against both the ordered index's keys and a full scan.
fn assert_index_matches(db: &ChameleonDb, c: &mut ThreadCtx, model: &BTreeSet<u64>, span: u64) {
    let mut out = Vec::new();
    let found: Vec<u64> = (0..span)
        .filter(|&k| db.get(c, k, &mut out).unwrap())
        .collect();
    let want: Vec<u64> = model.iter().copied().collect();
    assert_eq!(found, want, "get disagrees with the model");
    let indexed: Vec<u64> = {
        let pin = db.epochs.pin(c.thread_id);
        db.order.as_ref().unwrap().range_from(0, 0, &pin).collect()
    };
    assert_eq!(indexed, want, "the ordered index holds other keys");
    assert_eq!(db.scan(c, 0, usize::MAX).unwrap(), want);
}

/// Seeded oracle for recovery's ordered-index rebuild: random puts,
/// deletes, re-puts and checkpoints over 2 k keys, then a crash. The
/// rebuilt index must hold exactly the keys `get` finds, with and
/// without a worker pool, and still after new writes have rebuilt the
/// ABIs. A rebuild that kept a key whose newest version is a tombstone
/// fails here, and `scan`, which trusts the index, would return it.
#[test]
fn recovery_rebuild_matches_a_seeded_oracle() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const SPAN: u64 = 2000;
    for workers in [0, 2] {
        for seed in 1..=8u64 {
            let mut cfg = ChameleonConfig::tiny();
            cfg.bg.workers = workers;
            let mut db = new_store(cfg);
            let mut c = ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = BTreeSet::new();
            for _ in 0..6000 {
                let k = rng.gen_range(0..SPAN);
                match rng.gen_range(0..500u32) {
                    0 => db.checkpoint(&mut c).unwrap(),
                    1..=150 => {
                        db.delete(&mut c, k).unwrap();
                        model.remove(&k);
                    }
                    _ => {
                        db.put(&mut c, k, &value_for(k)).unwrap();
                        model.insert(k);
                    }
                }
            }
            db.sync(&mut c).unwrap();
            db.crash_and_recover(&mut c).unwrap();
            assert_index_matches(&db, &mut c, &model, 2 * SPAN);
            // ~100 puts a shard: every shard flushes and rebuilds its ABI.
            for k in SPAN..SPAN + 800 {
                db.put(&mut c, k, &value_for(k)).unwrap();
                model.insert(k);
            }
            db.drain_maintenance().unwrap();
            assert_index_matches(&db, &mut c, &model, 2 * SPAN);
        }
    }
}

/// Runtime oracle for the invariant `scan` rests on: outside a key's own
/// put/delete critical section the ordered index holds exactly the keys
/// `get` finds. A seeded put/delete/checkpoint script, with no crash, is
/// checked at several points, caller-runs and with a worker pool, in
/// Normal and Write-Intensive mode, on a log small enough that GC
/// relocates live entries under the index.
#[test]
fn ordered_index_matches_get_at_runtime() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const SPAN: u64 = 500;
    for workers in [0, 2] {
        for mode in [Mode::Normal, Mode::WriteIntensive] {
            let mut cfg = gc_cfg();
            cfg.bg.workers = workers;
            let db = new_store(cfg);
            db.set_mode(mode);
            let mut c = ctx();
            let mut rng = StdRng::seed_from_u64(workers as u64 + 10 * mode as u64);
            let mut model = BTreeSet::new();
            for step in 1..=8000u32 {
                let k = rng.gen_range(0..SPAN);
                match rng.gen_range(0..500u32) {
                    0 => db.checkpoint(&mut c).unwrap(),
                    1..=150 => {
                        db.delete(&mut c, k).unwrap();
                        model.remove(&k);
                    }
                    _ => {
                        db.put(&mut c, k, &[step as u8; 64]).unwrap();
                        model.insert(k);
                    }
                }
                if step % 2000 == 0 {
                    assert_index_matches(&db, &mut c, &model, 2 * SPAN);
                }
            }
            db.drain_maintenance().unwrap();
            assert!(
                db.metrics().gc_relocated_entries > 0,
                "GC relocated nothing ({workers} workers, {mode:?})"
            );
            assert_index_matches(&db, &mut c, &model, 2 * SPAN);
        }
    }
}

/// A scan's simulated charge is the cursor's tree walk and nothing else.
/// 2 000 ascending puts leave full 64-key leaves under one inner node, so
/// a 500-key scan from 100 seeks to leaf `64..128` (root, inner node and
/// leaf: three dependent misses), enters the eight leaves up to
/// `576..640` and compares 500 keys. The keys sit in the last level after
/// the checkpoint, yet the scan reads no media: it probes nothing.
#[test]
fn scan_charges_the_cursor_walk_and_moves_no_media() {
    let mut cfg = ChameleonConfig::tiny();
    cfg.bg.workers = 0;
    let db = new_store(cfg);
    let mut c = ctx();
    fill(&db, &mut c, 2000);
    db.checkpoint(&mut c).unwrap();
    let (t0, s0) = (c.clock.now(), db.dev.stats().snapshot());
    let keys = db.scan(&mut c, 100, 500).unwrap();
    let io = db.dev.stats().snapshot() - s0;
    assert_eq!(keys, (100..600).collect::<Vec<u64>>());
    let cost = &c.cost;
    assert_eq!(
        c.clock.now() - t0,
        cost.op_overhead_ns + (3 + 8) * cost.dram_random_ns + 500 * cost.key_cmp_ns
    );
    assert_eq!((io.media_bytes_read, io.media_bytes_written), (0, 0));
}

/// The ordered index is off the simulated clock for point ops: a fixed
/// one-thread script of puts, overwrites, deletes, gets and a checkpoint
/// whose merges drop superseded versions costs the same sim ns and media
/// bytes with the index on and off.
#[test]
fn ordered_index_costs_nothing_on_point_ops() {
    let run = |ordered_index| {
        let mut cfg = ChameleonConfig {
            ordered_index,
            ..ChameleonConfig::tiny()
        };
        cfg.bg.workers = 0;
        let db = new_store(cfg);
        let mut c = ctx();
        let mut out = Vec::new();
        let (t0, s0) = (c.clock.now(), db.dev.stats().snapshot());
        for round in 0..3u64 {
            for k in 0..3000u64 {
                db.put(&mut c, k, &(k + round).to_le_bytes()).unwrap();
            }
        }
        for k in (0..3000).step_by(3) {
            db.delete(&mut c, k).unwrap();
        }
        for k in (0..3000).step_by(2) {
            db.get(&mut c, k, &mut out).unwrap();
        }
        db.checkpoint(&mut c).unwrap();
        for k in (0..3000).step_by(5) {
            db.get(&mut c, k, &mut out).unwrap();
        }
        let io = db.dev.stats().snapshot() - s0;
        assert!(db.metrics().last_compactions > 0, "no last-level merge");
        assert!(db.space_stats().dead_bytes > 0, "nothing was superseded");
        (
            c.clock.now() - t0,
            io.media_bytes_read,
            io.media_bytes_written,
        )
    };
    assert_eq!(run(true), run(false));
}
