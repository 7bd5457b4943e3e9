//! Crash-matrix fault injection: enumerated fence-point crashes with a
//! shadow-model audit, plus targeted regression tests for the recovery
//! bugs the matrix originally caught (allocator hole leak, double crash
//! during replay).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use chameleondb::{ChameleonDb, CompactionScheme};
use integration::crashmat::{self, MatrixConfig};
use kvapi::KvStore;
use pmem_sim::{CrashPoint, PmemDevice, ThreadCtx};

/// A bounded slice of the crash matrix (every 11th fence) must audit
/// clean under the acknowledged-write invariant, and must hit the
/// maintenance stages the workload is designed to cross.
#[test]
fn bounded_matrix_direct_scheme_has_no_violations() {
    let cfg = MatrixConfig::quick(CompactionScheme::Direct);
    let report = crashmat::run_matrix(&cfg, |_, _| {});
    assert!(
        report.violations.is_empty(),
        "crash matrix violations: {:#?}",
        report.violations
    );
    assert!(report.points_tested >= 20, "matrix too small: {report:#?}");
    assert!(report.nested_crashes >= 1, "no nested recovery crash fired");
    let staged: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(
        staged.contains(&"foreground"),
        "no foreground crash point: {staged:?}"
    );
}

/// Same bounded slice for the level-by-level compaction cascade.
#[test]
fn bounded_matrix_level_by_level_scheme_has_no_violations() {
    let cfg = MatrixConfig::quick(CompactionScheme::LevelByLevel);
    let report = crashmat::run_matrix(&cfg, |_, _| {});
    assert!(
        report.violations.is_empty(),
        "crash matrix violations: {:#?}",
        report.violations
    );
}

/// GC slice of the matrix: small extents + churn make value-log GC
/// passes (copy-forward relocation, index repoints, Gc manifest commits,
/// extent reclaims) run inside the enumerated fence window, so torn GC
/// commits become crash points. The dry run must prove GC actually fired
/// — otherwise the slice silently tests nothing new.
#[test]
fn bounded_matrix_gc_slice_has_no_violations() {
    let cfg = MatrixConfig::quick_gc(CompactionScheme::Direct);
    let script = crashmat::build_script_churn(cfg.keys, cfg.churn);
    let (_, metrics) = crashmat::dry_run_with_metrics(&cfg, &script);
    assert!(
        metrics.gc_runs > 0 && metrics.gc_reclaimed_extents > 0,
        "GC matrix workload never ran GC: {metrics:?}"
    );
    let report = crashmat::run_matrix(&cfg, |_, _| {});
    assert!(
        report.violations.is_empty(),
        "GC crash matrix violations: {:#?}",
        report.violations
    );
}

/// Torn-GC-commit regression: a dense (stride-1) enumeration of a
/// churn-heavy workload whose fence stream is dominated by GC passes.
/// Crashing at every fence inside copy-forward relocation, index
/// repointing, the Gced-state persist, the manifest Gc commit and the
/// extent reclaim must always recover each reference to one complete
/// entry — old location or new, never neither.
#[test]
fn torn_gc_commits_recover_to_old_or_new_location() {
    let cfg = MatrixConfig {
        keys: 64,
        stride: 1,
        nested_every: 0,
        scheme: CompactionScheme::Direct,
        device_bytes: 64 << 20,
        gc: true,
        churn: 200,
    };
    let report = crashmat::run_matrix(&cfg, |_, _| {});
    assert!(
        report.violations.is_empty(),
        "torn GC commit violations: {:#?}",
        report.violations
    );
    let gc_points: u64 = report
        .stages
        .iter()
        .filter(|s| s.stage == "gc")
        .map(|s| s.points)
        .sum();
    assert!(
        gc_points > 0,
        "no crash point landed inside a GC pass: {:?}",
        report.stages
    );
}

/// Regression: the allocator must rebuild its free list from the gaps
/// between live regions on recovery. The legacy bump-past-high-water reset
/// leaked every hole left by pre-crash compactions, so repeated
/// crash-recover cycles of a steady-state workload grew the arena without
/// bound. With the gap rebuild the high-water mark stabilizes.
#[test]
fn repeated_crash_recover_cycles_keep_footprint_bounded() {
    let dev = PmemDevice::optane(64 << 20);
    let cfg = crashmat::store_config(CompactionScheme::Direct);
    let mut ctx = ThreadCtx::with_default_cost();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut db = Some(db);

    let mut high_water = Vec::new();
    for cycle in 0..10u64 {
        let store = db.as_ref().unwrap();
        // Steady-state churn: overwrite one fixed key set, forcing
        // flushes and compactions that free superseded tables.
        for k in 0..400u64 {
            let v = [cycle as u8, k as u8, 0, 0, 0, 0, 0, 0];
            store.put(&mut ctx, k, &v).unwrap();
        }
        store.checkpoint(&mut ctx).unwrap();
        drop(db.take());
        dev.crash();
        db = Some(ChameleonDb::recover(Arc::clone(&dev), cfg.clone(), &mut ctx).unwrap());
        high_water.push(dev.allocator_high_water());
    }
    // The workload is identical every cycle; once warm, the footprint
    // must stop growing (modulo one table of slack for flush timing).
    let warm = high_water[4];
    let last = *high_water.last().unwrap();
    assert!(
        last <= warm + (64 << 10),
        "allocator footprint grew without bound across crash cycles: {high_water:?}"
    );
    // And the data survived.
    let store = db.as_ref().unwrap();
    let mut out = Vec::new();
    for k in 0..400u64 {
        assert!(store.get(&mut ctx, k, &mut out).unwrap(), "key {k} lost");
    }
}

/// Regression: Write-Intensive/Get-Protect MemTable merges leave entries
/// that live only in the DRAM ABI and the log. A later Normal-mode flush
/// used to stamp its L0 table with the MemTable's max log seq — a claim
/// covering those older ABI-only entries — so recovery derived a
/// `checkpoint_seq` past them and skipped their replay, losing synced
/// writes. The flush must cap its claim below the oldest unpersisted ABI
/// entry (found by the crash matrix at the flush→last-compaction window
/// of a checkpoint).
#[test]
fn wim_merged_entries_survive_flush_then_crash() {
    let cfg = chameleondb::ChameleonConfig {
        memtable_slots: 16,
        log: kvlog::LogConfig {
            capacity: 8 << 20,
            batch_bytes: 512,
            max_value: 4096,
            ..kvlog::LogConfig::default()
        },
        ..chameleondb::ChameleonConfig::with_shards(1)
    };
    let dev = PmemDevice::optane(64 << 20);
    let mut ctx = ThreadCtx::with_default_cost();
    let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();

    // Several MemTable→ABI merges: these keys end up in the log and the
    // DRAM ABI, but in no table.
    db.set_mode(chameleondb::Mode::WriteIntensive);
    for k in 0..64u64 {
        db.put(&mut ctx, k, &k.to_le_bytes()).unwrap();
    }
    db.sync(&mut ctx).unwrap();

    // Back in Normal mode, enough fresh puts to fire at least one
    // MemTable flush; its L0 commit advances the shard checkpoint.
    db.set_mode(chameleondb::Mode::Normal);
    for k in 1000..1024u64 {
        db.put(&mut ctx, k, &k.to_le_bytes()).unwrap();
    }
    db.sync(&mut ctx).unwrap();
    assert!(db.metrics().flushes > 0, "workload never flushed");

    drop(db);
    dev.crash();
    let db = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for k in (0..64u64).chain(1000..1024) {
        assert!(
            db.get(&mut ctx, k, &mut out).unwrap(),
            "synced key {k} lost: flush claimed a checkpoint past ABI-only entries"
        );
        assert_eq!(out, k.to_le_bytes(), "key {k} stale");
    }
}

/// Regression: a second power failure during recovery's own log replay
/// must not lose anything the first recovery was rebuilding. Replay
/// flushes MemTables (and commits manifests) mid-recovery; crashing at
/// each of those fences and recovering again must still satisfy the
/// acknowledged-write invariant.
#[test]
fn double_crash_during_replay_loses_nothing_acknowledged() {
    // About 100 keys per shard: inside the ≈115-slot ABI headroom.
    const KEYS: u64 = 200;
    let cfg = crashmat::store_config(CompactionScheme::Direct);
    let fib = [1u64, 2, 3, 5, 8, 13, 21, 34, 55];
    let mut nested_fired = 0;
    for &offset in &fib {
        let dev = PmemDevice::optane(64 << 20);
        let mut ctx = ThreadCtx::with_default_cost();
        let db = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
        // Write-Intensive Mode keeps everything out of persistent tables
        // (MemTables merge into the DRAM ABI) while each shard's keys fit
        // its ABI, so the whole key set stays above checkpoint_seq: replay
        // must re-admit all of it, overflowing MemTables and flushing —
        // i.e. fencing — during recovery.
        db.set_mode(chameleondb::Mode::WriteIntensive);
        for k in 0..KEYS {
            db.put(&mut ctx, k, &k.to_le_bytes()).unwrap();
        }
        db.sync(&mut ctx).unwrap();
        drop(db);
        dev.crash();

        // Crash `offset` fences into the replay, then recover again. An
        // offset past the end of the replay simply recovers clean.
        dev.arm_crash_at_fence(dev.fence_count() + offset);
        let first = catch_unwind(AssertUnwindSafe(|| {
            ChameleonDb::recover(Arc::clone(&dev), cfg.clone(), &mut ctx)
        }));
        let db = match first {
            Ok(Ok(db)) => {
                dev.disarm_crash();
                db
            }
            Ok(Err(e)) => panic!("offset {offset}: first recovery errored: {e}"),
            Err(payload) => match payload.downcast::<CrashPoint>() {
                Ok(_) => {
                    nested_fired += 1;
                    dev.crash();
                    ChameleonDb::recover(Arc::clone(&dev), cfg.clone(), &mut ctx)
                        .unwrap_or_else(|e| panic!("offset {offset}: second recovery failed: {e}"))
                }
                Err(other) => resume_unwind(other),
            },
        };
        let mut out = Vec::new();
        for k in 0..KEYS {
            assert!(
                db.get(&mut ctx, k, &mut out).unwrap(),
                "offset {offset}: acknowledged key {k} lost after double crash"
            );
            assert_eq!(out, k.to_le_bytes(), "offset {offset}: key {k} stale");
        }
    }
    assert!(
        nested_fired >= 5,
        "replay fenced too little: only {nested_fired} nested crashes fired"
    );
}
