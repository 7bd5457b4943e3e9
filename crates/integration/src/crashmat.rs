//! Crash-matrix fault-injection harness.
//!
//! Exhaustively enumerates power-failure points of a ChameleonDB instance:
//! every durable-state transition happens at a persist fence, so crashing
//! at fence ordinal `k` for every `k` in `1..=total_fences` covers every
//! distinct durable state a real power cut could leave behind. For each
//! point the harness
//!
//! 1. runs a deterministic mixed workload (puts, overwrites, deletes,
//!    syncs, a checkpoint, a Write-Intensive phase, a Get-Protect
//!    phase that forces ABI dumps, and group-commit batches through
//!    [`ChameleonDb::apply_batch`] — the service layer's write path)
//!    against a fresh simulated device, armed to panic-unwind out of
//!    fence `k`;
//! 2. simulates the power cut ([`pmem_sim::PmemDevice::crash`] drops all
//!    unfenced lines), optionally arms a *second* crash a few fences into
//!    recovery itself (the double-crash case), and recovers;
//! 3. audits the recovered store with [`History::image`] under the
//!    acknowledged-write invariant below.
//!
//! # The invariant: a single log-prefix cut
//!
//! The store has one log writer per thread and this harness drives one
//! thread, so the script's mutations form one writer's script in the
//! [`History`]. A crash may lose an *un-acknowledged* suffix of it —
//! never more. Concretely, for the recovered store there must exist a
//! single cut `C` (number of leading mutations whose effects survived)
//! such that
//!
//! * `C >= acked`: every mutation acknowledged by the last successful
//!   `sync`/`checkpoint`/batch commit survived (acknowledged writes
//!   present with their latest value, acknowledged deletes still
//!   deleted);
//! * `C <= issued`: nothing from the future, where the last issued op is
//!   the one in flight when the crash fired (its log append may or may
//!   not have landed);
//! * every key reads as its newest version among the first `C` — stale
//!   resurrection (manifest replay of a dead epoch, index ahead of log)
//!   shows up as a key whose observed state admits no cut consistent with
//!   the other keys, and is reported as a violation.
//!
//! Stage attribution comes from the observability layer: the maintenance
//! span open at the moment of the crash ([`chameleon_obs::Obs::
//! current_stage`]) labels the point (flush, mid/last compaction, ABI
//! dump, ...), `"foreground"` labels fences outside any span (log batch
//! fences, manifest appends from the front door), `"create"` labels
//! crashes before the store finished initializing, and nested crashes are
//! labelled `"recovery"`. Each recovered store gets a
//! [`EventKind::CrashInjected`] event in its journal so the crash point is
//! visible through the normal observability exports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use chameleon_obs::{EventKind, ObsConfig};
use chameleondb::{
    BatchOp, BgConfig, ChameleonConfig, ChameleonDb, CompactionScheme, GpmConfig, Mode,
};
use kvapi::KvStore;
use kvlog::LogConfig;
use pmem_sim::{CrashPoint, PmemDevice, ThreadCtx};
use serde::Serialize;

use crate::history::{Floors, History, Op};

/// Gets per Get-Protect evaluation window in the matrix store config; the
/// workload's get burst issues twice this many to guarantee entry.
const GPM_WINDOW: u64 = 64;

/// One workload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WlOp {
    /// Insert/overwrite `key` with a value encoding `(key, op_index)`.
    Put(u64),
    /// Delete `key` (appends a tombstone).
    Del(u64),
    /// Read `key`; checked against the history while pre-crash.
    Get(u64),
    /// `KvStore::sync` — acknowledges everything before it.
    Sync,
    /// Full checkpoint: flush + manifest rewrite; also acknowledges.
    Checkpoint,
    /// Switch the store's base mode (Normal / WriteIntensive).
    SetMode(Mode),
    /// Stage a put into the open group-commit batch (applied at the next
    /// [`WlOp::BatchCommit`]). Scripts must not interleave `Get`s with an
    /// open batch: staged ops are invisible until they commit.
    BatchPut(u64),
    /// Stage a delete into the open group-commit batch.
    BatchDel(u64),
    /// Commit the staged batch through [`ChameleonDb::apply_batch`]: one
    /// tail fence acknowledges the whole batch (plus any mid-batch
    /// auto-fences once the log's `batch_bytes` overflows — crashing at
    /// those leaves a partially persisted batch, which the prefix-cut
    /// audit must accept because no ack was released).
    BatchCommit,
}

/// Matrix parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Unique keys in the initial load phase; scales the whole workload
    /// (and with it the number of fences to enumerate).
    pub keys: u64,
    /// Test every `stride`-th fence ordinal (1 = exhaustive).
    pub stride: u64,
    /// Inject a second crash during recovery on every `nested_every`-th
    /// tested point (0 = never). The nested point is varied
    /// deterministically a few fences into the replay.
    pub nested_every: u64,
    /// Upper-level compaction scheme of the store under test.
    pub scheme: CompactionScheme,
    /// Simulated device capacity.
    pub device_bytes: usize,
    /// Value-log GC slice: shrink the log to 16KB extents and add the
    /// churn phase below, so copy-forward GC passes run inside the
    /// enumerated fence window (torn relocations, repoints, commits and
    /// reclaims all become crash points).
    pub gc: bool,
    /// Overwrite rounds of the churn phase (0 = skip the phase). Each
    /// round re-puts the first quarter of the key space, building up the
    /// dead bytes GC needs.
    pub churn: u64,
}

impl MatrixConfig {
    /// Exhaustive matrix (stride 1) — the `repro crash` default.
    pub fn full(scheme: CompactionScheme) -> Self {
        Self {
            keys: 512,
            stride: 1,
            nested_every: 4,
            scheme,
            device_bytes: 64 << 20,
            gc: false,
            churn: 0,
        }
    }

    /// Bounded matrix for CI: same workload, sparse stride.
    pub fn quick(scheme: CompactionScheme) -> Self {
        Self {
            stride: 9,
            nested_every: 3,
            ..Self::full(scheme)
        }
    }

    /// Exhaustive GC slice: small extents + churn so value-log GC runs
    /// under the crash enumeration.
    pub fn full_gc(scheme: CompactionScheme) -> Self {
        Self {
            gc: true,
            churn: 16,
            ..Self::full(scheme)
        }
    }

    /// Bounded GC slice for CI.
    pub fn quick_gc(scheme: CompactionScheme) -> Self {
        Self {
            gc: true,
            churn: 16,
            ..Self::quick(scheme)
        }
    }
}

/// The store geometry under test: tiny shards so the workload crosses
/// every maintenance path (flush, mid- and last-level compaction, manifest
/// overflow rewrites, WIM merges, GPM ABI dumps) within a few hundred ops.
pub fn store_config(scheme: CompactionScheme) -> ChameleonConfig {
    ChameleonConfig {
        shards: 2,
        memtable_slots: 32,
        levels: 3,
        ratio: 2,
        max_threads: 1,
        max_abi_dumps: 2,
        compaction: scheme,
        // Tiny manifest regions force overflow rewrites (epoch flips).
        manifest_bytes: 2048,
        // Small batches so log fences interleave finely with maintenance.
        log: LogConfig {
            capacity: 16 << 20,
            batch_bytes: 512,
            ..LogConfig::default()
        },
        // Pin Get-Protect on once entered: enter on any get burst, never
        // exit (p99 < 0 is unsatisfiable), so the dump paths stay hot.
        gpm: GpmConfig {
            enabled: true,
            enter_threshold_ns: 1,
            exit_threshold_ns: 0,
            window_ops: GPM_WINDOW,
        },
        obs: ObsConfig::on(),
        // No worker pool: the write that finds a MemTable full freezes it
        // and runs the flush/compaction chain itself before its own log
        // append — the paper engine's executor — so one thread issues
        // every fence and ordinals are deterministic across the dry and
        // armed runs.
        bg: BgConfig {
            workers: 0,
            ..BgConfig::default()
        },
        ..ChameleonConfig::with_shards(2)
    }
}

/// Store geometry for one matrix run: the GC slice shrinks the log to
/// 16KB extents (2MB capacity) so the workload's dead bytes span enough
/// sealed extents for copy-forward GC to trigger mid-script.
pub fn store_config_for(cfg: &MatrixConfig) -> ChameleonConfig {
    let mut sc = store_config(cfg.scheme);
    if cfg.gc {
        sc.log = LogConfig {
            capacity: 2 << 20,
            batch_bytes: 512,
            max_value: 8 << 10,
            extent_bytes: 16 << 10,
        };
    }
    sc
}

/// Builds the deterministic mixed workload for `keys` unique keys.
pub fn build_script(keys: u64) -> Vec<WlOp> {
    build_script_churn(keys, 0)
}

/// Like [`build_script`], with `churn` overwrite rounds spliced in after
/// the overwrite/delete phase (the GC matrix uses this to accumulate
/// mostly-dead sealed extents).
pub fn build_script_churn(keys: u64, churn: u64) -> Vec<WlOp> {
    let n = keys.max(64);
    let mut s = Vec::new();
    // Phase 1: unique load — crosses flushes and upper/last compactions.
    for k in 0..n {
        s.push(WlOp::Put(k));
    }
    s.push(WlOp::Sync);
    // Phase 2: overwrites and deletes — tombstones and version shadowing.
    for k in 0..n / 2 {
        s.push(WlOp::Put(k));
    }
    for k in n / 4..n / 2 {
        s.push(WlOp::Del(k));
    }
    s.push(WlOp::Sync);
    // Phase 2b (GC matrix): repeated overwrites of a fixed key set build
    // dead bytes until value-log GC passes fire under the enumeration.
    for _ in 0..churn {
        for k in 0..n / 4 {
            s.push(WlOp::Put(k));
        }
    }
    if churn > 0 {
        s.push(WlOp::Sync);
    }
    // Phase 3: Write-Intensive Mode — MemTables merge into the ABI.
    s.push(WlOp::SetMode(Mode::WriteIntensive));
    for k in n..n + n / 2 {
        s.push(WlOp::Put(k));
    }
    s.push(WlOp::Sync);
    s.push(WlOp::SetMode(Mode::Normal));
    // A Normal flush over the WIM-merged, ABI-only entries, before Phase
    // 4's dumps persist the ABI: its L0 table must claim no more than
    // the ABI's unpersisted floor (DESIGN §4c, bug 5).
    s.push(WlOp::Checkpoint);
    // Phase 4: get burst trips Get-Protect, then puts force ABI dumps
    // (and, past max_abi_dumps, last-level compactions of dumped tables).
    for i in 0..2 * GPM_WINDOW {
        s.push(WlOp::Get(i % (n / 4).max(1)));
    }
    for k in n + n / 2..2 * n {
        s.push(WlOp::Put(k));
    }
    // Phase 5: checkpoint (manifest rewrite + flip) and traffic past it.
    s.push(WlOp::Checkpoint);
    for k in 0..n / 8 {
        s.push(WlOp::Put(k));
    }
    for k in 0..n / 16 {
        s.push(WlOp::Del(k));
    }
    s.push(WlOp::Sync);
    // Phase 6: group-commit batches (the service layer's write path).
    // Fresh keys first; each batch is large enough to overflow the log's
    // 512B `batch_bytes` several times, so mid-batch auto-fences create
    // crash points with a partially persisted, never-acknowledged batch.
    for k in 2 * n..2 * n + n / 4 {
        s.push(WlOp::BatchPut(k));
    }
    s.push(WlOp::BatchCommit);
    // Overwrites and deletes of batch-written keys in a second batch.
    for k in 2 * n..2 * n + n / 8 {
        s.push(WlOp::BatchPut(k));
    }
    for k in 2 * n + n / 8..2 * n + n / 4 {
        s.push(WlOp::BatchDel(k));
    }
    s.push(WlOp::BatchCommit);
    // Un-acknowledged tail: may be lost, bounded by the log batch.
    for k in 0..8 {
        s.push(WlOp::Put(k));
    }
    s
}

/// The value a [`WlOp::Put`] at op index `op` writes for `key`.
fn value_of(key: u64, op: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&op.to_le_bytes());
    v
}

/// The script's mutations as writer 0's script of a [`History`].
pub fn history_of(script: &[WlOp]) -> History {
    let ops = script.iter().enumerate().filter_map(|(i, op)| match *op {
        WlOp::Put(k) | WlOp::BatchPut(k) => Some(Op::Put(k, value_of(k, i as u64).into())),
        WlOp::Del(k) | WlOp::BatchDel(k) => Some(Op::Del(k)),
        _ => None,
    });
    History::new(vec![ops.collect()])
}

/// Runs the script against `db`, publishing its progress in `history`'s
/// floors so the caller can read how far it got after an unwind. A
/// mutation is issued as it starts; a staged batch op is issued before
/// its log append happens (at the commit), a loose upper bound on the
/// cut that is sound because staging acknowledges nothing. A live get
/// must read exactly what the mutations before it wrote (no batch is
/// open at a get); a mismatch panics (a non-`CrashPoint` payload,
/// re-raised by the harness).
fn exec(
    db: &ChameleonDb,
    ctx: &mut ThreadCtx,
    script: &[WlOp],
    history: &History,
) -> kvapi::Result<()> {
    // Ops staged since the last BatchCommit, invisible until it commits.
    let mut staged: Vec<BatchOp> = Vec::new();
    let mut out = Vec::new();
    let mut issued = 0;
    history.issue(0, 0);
    history.ack(0, 0);
    for (i, op) in script.iter().enumerate() {
        let idx = i as u64;
        if matches!(
            op,
            WlOp::Put(_) | WlOp::Del(_) | WlOp::BatchPut(_) | WlOp::BatchDel(_)
        ) {
            issued += 1;
            history.issue(0, issued);
        }
        match *op {
            WlOp::Put(k) => db.put(ctx, k, &value_of(k, idx))?,
            WlOp::Del(k) => {
                db.delete(ctx, k)?;
            }
            WlOp::BatchPut(k) => staged.push(BatchOp::Put {
                key: k,
                value: value_of(k, idx).to_vec(),
            }),
            WlOp::BatchDel(k) => staged.push(BatchOp::Delete { key: k }),
            WlOp::BatchCommit => {
                db.apply_batch(ctx, &staged)?;
                staged.clear();
            }
            WlOp::Get(k) => {
                let found = db.get(ctx, k, &mut out)?;
                let exact = Floors::exact(vec![issued]);
                if let Err(e) = history.read(k, found.then_some(&out[..]).into(), &exact, &exact) {
                    panic!("live get at op {idx} diverged: {e}");
                }
            }
            WlOp::Sync => db.sync(ctx)?,
            WlOp::Checkpoint => db.checkpoint(ctx)?,
            WlOp::SetMode(m) => db.set_mode(m),
        }
        // `apply_batch` flushes the (single) log writer, so like Sync it
        // acknowledges every op before it.
        if matches!(op, WlOp::Sync | WlOp::Checkpoint | WlOp::BatchCommit) {
            history.ack(0, issued);
        }
    }
    Ok(())
}

/// Result of one crash point.
#[derive(Debug, Serialize)]
pub struct PointOutcome {
    /// Fence ordinal the primary crash fired at.
    pub fence: u64,
    /// Maintenance stage attributed to the crash point.
    pub stage: String,
    /// Fence ordinal of the nested recovery crash, if one fired.
    pub nested_fence: Option<u64>,
    /// Invariant violations found after recovery (empty = pass).
    pub violations: Vec<String>,
}

/// Aggregated crash-matrix report (serialized by `repro crash`).
#[derive(Debug, Serialize)]
pub struct CrashMatrixReport {
    /// Compaction scheme of the store under test.
    pub scheme: String,
    /// Ops in the workload script.
    pub workload_ops: u64,
    /// Fences in a crash-free run = size of the full matrix.
    pub total_fences: u64,
    /// Points actually crashed and audited.
    pub points_tested: u64,
    /// Points where a nested crash fired during recovery.
    pub nested_crashes: u64,
    /// Tested points per attributed stage, descending.
    pub stages: Vec<StagePoints>,
    /// All failing points (empty = the matrix passed).
    pub violations: Vec<PointOutcome>,
}

/// Points attributed to one maintenance stage.
#[derive(Debug, Serialize)]
pub struct StagePoints {
    pub stage: String,
    pub points: u64,
}

impl CrashMatrixReport {
    /// Distinct crash points exercised, counting nested recovery crashes.
    pub fn distinct_points(&self) -> u64 {
        self.points_tested + self.nested_crashes
    }
}

/// Crash-free run of the full script, which validates the workload end
/// to end. Returns the total fence count (the matrix size) and the
/// store's final metrics snapshot, so callers can assert the workload
/// actually crossed the stages they care about (the GC matrix checks
/// `gc_runs > 0` — an enumeration that never GCs would silently test
/// nothing new).
pub fn dry_run_with_metrics(
    cfg: &MatrixConfig,
    script: &[WlOp],
) -> (u64, chameleondb::StoreMetricsSnapshot) {
    let dev = PmemDevice::optane(cfg.device_bytes);
    let db = ChameleonDb::create(Arc::clone(&dev), store_config_for(cfg))
        .expect("crash matrix: create failed in dry run");
    let mut ctx = ThreadCtx::with_default_cost();
    exec(&db, &mut ctx, script, &history_of(script))
        .expect("crash matrix: workload failed in dry run");
    (dev.fence_count(), db.metrics())
}

/// Runs one crash point: arm at fence `k`, crash, (maybe) crash again
/// inside recovery at `k2 = fence_count + nested_offset`, recover, audit.
pub fn run_point(
    cfg: &MatrixConfig,
    script: &[WlOp],
    history: &History,
    k: u64,
    nested_offset: Option<u64>,
) -> PointOutcome {
    let dev = PmemDevice::optane(cfg.device_bytes);
    let store_cfg = store_config_for(cfg);
    dev.arm_crash_at_fence(k);

    let mut ctx = ThreadCtx::with_default_cost();
    // The store outlives the unwind so the open maintenance span is still
    // readable for stage attribution.
    let db_slot: RefCell<Option<ChameleonDb>> = RefCell::new(None);
    let res = catch_unwind(AssertUnwindSafe(|| -> kvapi::Result<()> {
        let db = ChameleonDb::create(Arc::clone(&dev), store_cfg.clone())?;
        *db_slot.borrow_mut() = Some(db);
        let slot = db_slot.borrow();
        exec(slot.as_ref().unwrap(), &mut ctx, script, history)
    }));

    let outcome = |stage: &str, nested_fence, violations| PointOutcome {
        fence: k,
        stage: stage.into(),
        nested_fence,
        violations,
    };
    match res {
        // k was beyond the last fence; nothing to audit.
        Ok(Ok(())) => {
            let never = format!("fence {k} never fired (workload ran to completion)");
            return outcome("none", None, vec![never]);
        }
        Ok(Err(e)) => {
            let failed = format!("workload errored before fence {k}: {e}");
            return outcome("none", None, vec![failed]);
        }
        Err(payload) => match payload.downcast::<CrashPoint>() {
            Ok(cp) => debug_assert_eq!(cp.fence, k),
            // Model divergence or a store bug pre-crash: surface loudly.
            Err(other) => resume_unwind(other),
        },
    }

    let stage: &'static str = match db_slot.borrow().as_ref() {
        None => "create",
        Some(db) => db
            .obs()
            .current_stage()
            .map(|s| s.name())
            .unwrap_or("foreground"),
    };
    *db_slot.borrow_mut() = None;

    // Power cut: every unfenced line is gone.
    dev.crash();

    if let Some(off) = nested_offset {
        dev.arm_crash_at_fence(dev.fence_count() + off);
    }
    let mut nested_fence = None;
    let db2 = loop {
        let r = catch_unwind(AssertUnwindSafe(|| {
            ChameleonDb::recover(Arc::clone(&dev), store_cfg.clone(), &mut ctx)
        }));
        match r {
            Ok(Ok(db)) => break db,
            Ok(Err(e)) => {
                return outcome(stage, nested_fence, vec![format!("recovery failed: {e}")])
            }
            Err(payload) => match payload.downcast::<CrashPoint>() {
                Ok(cp) => {
                    // Double crash: power fails during replay. The arm
                    // auto-disarmed, so the retry recovers cleanly.
                    nested_fence = Some(cp.fence);
                    dev.crash();
                }
                Err(other) => resume_unwind(other),
            },
        }
    };
    // The nested arm may not have fired if recovery used fewer fences.
    dev.disarm_crash();

    db2.obs().record_event(
        ctx.clock.now(),
        EventKind::CrashInjected { fence: k, stage },
    );
    if let Some(nf) = nested_fence {
        db2.obs().record_event(
            ctx.clock.now(),
            EventKind::CrashInjected {
                fence: nf,
                stage: "recovery",
            },
        );
    }

    // The op in flight at the crash (the last issued) may or may not
    // have landed.
    let floors = history.floors();
    let scanned = db2.scan(&mut ctx, 0, usize::MAX).map_err(|e| e.to_string());
    let mut out = Vec::new();
    let get = |key| match db2.get(&mut ctx, key, &mut out) {
        Ok(found) => Ok(found.then(|| out.clone())),
        Err(e) => Err(e.to_string()),
    };
    outcome(stage, nested_fence, history.image(get, scanned, &floors))
}

/// Runs the whole matrix. `progress(done, total)` is called after each
/// tested point (pass `|_, _| {}` to ignore).
pub fn run_matrix(cfg: &MatrixConfig, mut progress: impl FnMut(u64, u64)) -> CrashMatrixReport {
    let script = build_script_churn(cfg.keys, cfg.churn);
    let history = history_of(&script);
    let total_fences = dry_run_with_metrics(cfg, &script).0;
    let stride = cfg.stride.max(1);
    let planned = total_fences.div_ceil(stride);

    let mut stage_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut points_tested = 0;
    let mut nested_crashes = 0;
    let mut idx = 0u64;
    let mut k = 1;
    while k <= total_fences {
        // Vary the nested offset so the replay is cut at different depths.
        let nested_offset = if cfg.nested_every > 0 && idx.is_multiple_of(cfg.nested_every) {
            Some(1 + (idx / cfg.nested_every) % 17)
        } else {
            None
        };
        let outcome = run_point(cfg, &script, &history, k, nested_offset);
        points_tested += 1;
        if outcome.nested_fence.is_some() {
            nested_crashes += 1;
        }
        *stage_counts.entry(outcome.stage.clone()).or_insert(0) += 1;
        if !outcome.violations.is_empty() {
            violations.push(outcome);
        }
        progress(points_tested, planned);
        idx += 1;
        k += stride;
    }

    let mut stages: Vec<StagePoints> = stage_counts
        .into_iter()
        .map(|(stage, points)| StagePoints { stage, points })
        .collect();
    stages.sort_by_key(|s| std::cmp::Reverse(s.points));
    let mut scheme = match cfg.scheme {
        CompactionScheme::Direct => "direct".to_string(),
        CompactionScheme::LevelByLevel => "level_by_level".to_string(),
    };
    if cfg.gc {
        scheme.push_str("_gc");
    }
    CrashMatrixReport {
        scheme,
        workload_ops: script.len() as u64,
        total_fences,
        points_tested,
        nested_crashes,
        stages,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_covers_all_op_kinds() {
        let s = build_script(128);
        assert!(s.iter().any(|o| matches!(o, WlOp::Put(_))));
        assert!(s.iter().any(|o| matches!(o, WlOp::Del(_))));
        assert!(s.iter().any(|o| matches!(o, WlOp::Get(_))));
        assert!(s.iter().any(|o| matches!(o, WlOp::Checkpoint)));
        assert!(s
            .iter()
            .any(|o| matches!(o, WlOp::SetMode(Mode::WriteIntensive))));
        assert!(s.iter().filter(|o| matches!(o, WlOp::Sync)).count() >= 3);
        assert!(s.iter().any(|o| matches!(o, WlOp::BatchPut(_))));
        assert!(s.iter().any(|o| matches!(o, WlOp::BatchDel(_))));
        assert_eq!(
            s.iter().filter(|o| matches!(o, WlOp::BatchCommit)).count(),
            2
        );
    }

    /// Each batch must overflow the matrix log config's 512B
    /// `batch_bytes`, so the matrix really enumerates mid-batch
    /// auto-fence crash points (a partially persisted batch).
    #[test]
    fn batches_are_large_enough_to_split_across_fences() {
        let s = build_script(128);
        let mut staged_bytes = 0usize;
        let mut min_batch = usize::MAX;
        for op in &s {
            match op {
                // 16B value + per-entry log header.
                WlOp::BatchPut(_) => staged_bytes += 16 + kvlog::ENTRY_HEADER,
                WlOp::BatchDel(_) => staged_bytes += kvlog::ENTRY_HEADER,
                WlOp::BatchCommit => {
                    min_batch = min_batch.min(staged_bytes);
                    staged_bytes = 0;
                }
                _ => {}
            }
        }
        assert!(
            min_batch >= 2 * 512,
            "smallest batch ({min_batch}B) must span several 512B log fences"
        );
    }

    #[test]
    fn dry_run_reports_a_nontrivial_matrix() {
        let cfg = MatrixConfig::quick(CompactionScheme::Direct);
        let script = build_script(cfg.keys);
        let fences = dry_run_with_metrics(&cfg, &script).0;
        assert!(fences >= 100, "matrix unexpectedly small: {fences} fences");
    }
}
