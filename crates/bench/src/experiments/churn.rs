//! `churn` — sustained-overwrite survival under value-log GC.
//!
//! A constant live set is overwritten ≥20× its own volume while the
//! extent-lifecycle GC (a post-paper feature, switched on here) relocates
//! live entries out of the deadest sealed extents and reclaims them. The
//! log is deliberately sized far below the total appended volume: if GC
//! falls behind, the run dies with `Full("storage log capacity")` instead
//! of quietly growing. The experiment samples space accounting throughout
//! and enforces the survival invariants:
//!
//! - footprint stays bounded by the space-amplification target
//!   (2× live bytes, plus extent-granularity slack for extents mid-pass
//!   and in reader quarantine);
//! - put p99.9 stays flat from the first half of the churn to the
//!   second (flushes and GC passes run on the putting thread in both
//!   halves, so a pass that grows with the log shows up here);
//! - every key survives at its newest value.
//!
//! Each churn round overwrites three quarters of the key space and skips
//! a rotating quarter, so every extent keeps a live remnant: reclaiming
//! it requires actual copy-forward relocation, not just dropping
//! wholly-dead extents.
//!
//! Afterwards it measures the restart gap the per-extent max-sequence
//! seal summaries buy: a checkpointed ChameleonDB skips fully-persisted
//! extents during the recovery scan, while Dram-Hash (whose only
//! persistent state *is* the log) must replay every surviving byte of
//! the same workload.
//!
//! The key-space geometry is fixed by the experiment (`--quick` shrinks
//! it); `--keys`/`--ops` are ignored because the log capacity, extent
//! count and overwrite volume must stay in tuned proportion.

use chameleondb::GcConfig;
use kvapi::{CrashRecover, KvStore};
use kvlog::LogConfig;
use pmem_sim::{Histogram, ThreadCtx};
use serde::Serialize;

use crate::stores::{self, Scale};
use crate::util::{fmt_bytes, fmt_ns, header, write_json, Opts};

/// One space-accounting sample during the churn.
#[derive(Serialize)]
pub struct ChurnSample {
    /// Total puts issued when the sample was taken.
    pub ops: u64,
    pub footprint_bytes: u64,
    pub live_bytes: u64,
    pub dead_bytes: u64,
    /// `footprint / live` in parts-per-thousand.
    pub space_amp_milli: u64,
}

/// Restart comparison after the churn (satellite of the seal-summary
/// recovery skip).
#[derive(Serialize)]
pub struct RestartGap {
    pub chameleon_restart_ns: u64,
    pub chameleon_scanned_extents: u64,
    pub chameleon_skipped_extents: u64,
    pub dram_hash_restart_ns: u64,
    /// `dram_hash_restart / chameleon_restart`.
    pub gap_ratio: f64,
}

/// Machine-readable result of the churn campaign.
#[derive(Serialize)]
pub struct ChurnReport {
    pub keys: u64,
    pub value_bytes: usize,
    /// Overwrite volume as a multiple of the live set.
    pub overwrite_multiplier: u64,
    pub log_capacity_bytes: u64,
    /// Cumulative bytes appended over the run (exceeds the log capacity
    /// by design — GC has to reclaim the difference).
    pub appended_total_bytes: u64,
    pub live_bytes_final: u64,
    pub footprint_bytes_final: u64,
    pub max_space_amp_milli: u64,
    pub put_p999_first_half_ns: u64,
    pub put_p999_second_half_ns: u64,
    pub gc_runs: u64,
    pub gc_relocated_entries: u64,
    pub gc_relocated_bytes: u64,
    pub gc_reclaimed_extents: u64,
    pub samples: Vec<ChurnSample>,
    pub restart: RestartGap,
    pub violations: Vec<String>,
}

const VALUE_BYTES: usize = 256;
const ENTRY_BYTES: u64 = 24 + VALUE_BYTES as u64;
const OVERWRITE_MULTIPLIER: u64 = 20;

/// Runs the churn survival campaign; exits nonzero on any violation.
pub fn run(opts: &Opts) -> ChurnReport {
    header("Churn: sustained overwrites under value-log GC");
    let keys: u64 = if opts.quick { 2_000 } else { 20_000 };
    let overwrites = keys * OVERWRITE_MULTIPLIER;
    let live_bytes = keys * ENTRY_BYTES;
    // Extents sized so the live set spans ~8 of them: GC candidate
    // selection needs extent granularity finer than the data set.
    let extent: u64 = if opts.quick { 64 << 10 } else { 512 << 10 };
    // Far below cumulative appends, comfortably above the 2x live bound.
    let capacity = (live_bytes * 6).next_multiple_of(extent);
    let scale = Scale {
        keys,
        value_size: VALUE_BYTES,
        extra_ops: overwrites,
    };
    let mut cfg = stores::chameleon_config(scale);
    cfg.log = LogConfig {
        capacity,
        extent_bytes: extent,
        max_value: 4 << 10,
        ..LogConfig::default()
    };
    // The paper's engine plus GC, on the paper's executor: no worker pool,
    // so flushes, compactions and GC passes run on the putting thread and
    // land on its simulated clock (and in the p99.9 split below). GC is
    // never starved by scheduling, and the space samples, fence stream and
    // latency split repeat exactly run to run, as the CI smoke step needs.
    cfg.gc.enabled = true;
    let (dev, mut db) = stores::build_chameleon_with(scale, cfg);
    dev.set_active_threads(1);
    println!(
        "  {keys} keys x {VALUE_BYTES}B values = {} live; log capacity {}; churn {}x = {} appended",
        fmt_bytes(live_bytes),
        fmt_bytes(capacity),
        OVERWRITE_MULTIPLIER,
        fmt_bytes((keys + overwrites) * ENTRY_BYTES),
    );

    let mut ctx = ThreadCtx::with_default_cost();
    let mut violations = Vec::new();

    // Load the live set once.
    let mut value = [0u8; VALUE_BYTES];
    for k in 0..keys {
        value[..8].copy_from_slice(&k.to_le_bytes());
        db.put(&mut ctx, k, &value).expect("load put");
    }
    db.sync(&mut ctx).expect("sync after load");

    // Churn: every round overwrites three quarters of the key space and
    // skips a rotating quarter (`k % 4 == round % 4`). The survivors mean
    // no extent ever dies wholesale — each retains a live remnant the GC
    // must copy-forward before the extent can be reclaimed, which is the
    // relocation path a uniform overwrite sweep would never exercise.
    let per_round = keys - keys / 4;
    let rounds = overwrites.div_ceil(per_round);
    let total_puts = rounds * per_round;
    let mut hist = [Histogram::new(), Histogram::new()];
    let mut samples = Vec::new();
    let mut max_amp_milli = 0u64;
    let mut last_round = vec![0u64; keys as usize];
    let sample_every = (keys / 2).max(1);
    let mut i = 0u64;
    for round in 1..=rounds {
        for k in 0..keys {
            if k % 4 == round % 4 {
                continue;
            }
            value[..8].copy_from_slice(&k.to_le_bytes());
            value[8..16].copy_from_slice(&round.to_le_bytes());
            let t0 = ctx.clock.now();
            db.put(&mut ctx, k, &value).expect("churn put");
            hist[(i >= total_puts / 2) as usize].record(ctx.clock.now() - t0);
            last_round[k as usize] = round;
            i += 1;
            if !(i).is_multiple_of(sample_every) {
                continue;
            }
            let s = db.space_stats();
            let amp = s.space_amp_milli();
            // The amplification target only binds once the log is big
            // enough for the GC trigger (MIN_EXTENTS) to arm.
            if s.footprint_bytes >= GcConfig::MIN_EXTENTS * extent {
                max_amp_milli = max_amp_milli.max(amp);
            }
            samples.push(ChurnSample {
                ops: keys + i,
                footprint_bytes: s.footprint_bytes,
                live_bytes: s.live_bytes,
                dead_bytes: s.dead_bytes,
                space_amp_milli: amp,
            });
            if opts.progress {
                eprintln!(
                    "[churn] {i}/{total_puts} overwrites, footprint {} / live {} (amp {:.2}x)",
                    fmt_bytes(s.footprint_bytes),
                    fmt_bytes(s.live_bytes),
                    amp as f64 / 1000.0
                );
            }
        }
        db.sync(&mut ctx).expect("sync after round");
    }
    db.drain_maintenance().expect("drain maintenance");
    db.sync(&mut ctx).expect("final sync");

    // Survival: every key readable at its newest version, through every
    // relocation — the round it was last written, or the load value for
    // keys the final rounds happened to skip.
    let mut out = Vec::new();
    for k in 0..keys {
        if !db.get(&mut ctx, k, &mut out).expect("final get") {
            violations.push(format!("key {k} lost during churn"));
            continue;
        }
        let round = u64::from_le_bytes(out[8..16].try_into().unwrap());
        let expect = last_round[k as usize];
        if round != expect {
            violations.push(format!(
                "key {k} stale after churn: round {round} != {expect}"
            ));
        }
    }

    // Footprint bound: the GC trigger fires at `SPACE_AMP_TARGET x live`;
    // while it keeps pace the overshoot is bounded by extent granularity
    // (extents mid-relocation plus emptied extents still in reader
    // quarantine).
    let stats = db.space_stats();
    let slack = 6 * extent;
    let bound_milli = (GcConfig::SPACE_AMP_TARGET * 1000.0) as u64 + slack * 1000 / live_bytes;
    if max_amp_milli > bound_milli {
        violations.push(format!(
            "footprint escaped the amplification bound: peak {:.2}x live > {:.2}x",
            max_amp_milli as f64 / 1000.0,
            bound_milli as f64 / 1000.0
        ));
    }
    // Exactly-once dead-byte crediting: on a crash-free run, the bytes
    // the index still references plus the credited dead bytes must equal
    // every byte resident in the log.
    let audit = db.audit_live_bytes(&mut ctx);
    if audit + stats.dead_bytes != stats.appended_bytes {
        violations.push(format!(
            "accounting drift: audited live {} + dead {} != appended {}",
            audit, stats.dead_bytes, stats.appended_bytes
        ));
    }
    let m = db.metrics();
    if m.gc_runs == 0 || m.gc_reclaimed_extents == 0 {
        violations.push(format!(
            "GC never reclaimed anything (runs {}, reclaimed {})",
            m.gc_runs, m.gc_reclaimed_extents
        ));
    }
    if m.gc_relocated_entries == 0 {
        violations.push(
            "GC never copy-forwarded a live entry — the hot/cold mix \
             should force relocation"
                .to_string(),
        );
    }

    // Latency flatness: maintenance lands on the putting thread from the
    // start, so the put tail must not degrade as the log reaches
    // steady-state churn.
    let p999 = [hist[0].quantile(0.999), hist[1].quantile(0.999)];
    if p999[1] > p999[0].saturating_mul(3) {
        violations.push(format!(
            "put p99.9 degraded under churn: {} -> {}",
            fmt_ns(p999[0]),
            fmt_ns(p999[1])
        ));
    }

    println!(
        "  final: footprint {} / live {} (amp {:.2}x, peak {:.2}x); GC {} passes, {} extents reclaimed, {} relocated",
        fmt_bytes(stats.footprint_bytes),
        fmt_bytes(stats.live_bytes),
        stats.space_amp_milli() as f64 / 1000.0,
        max_amp_milli as f64 / 1000.0,
        m.gc_runs,
        m.gc_reclaimed_extents,
        fmt_bytes(m.gc_relocated_bytes),
    );
    println!(
        "  put p99.9: first half {} / second half {}",
        fmt_ns(p999[0]),
        fmt_ns(p999[1])
    );

    // Restart gap: checkpoint, crash, recover — seal summaries let the
    // recovery scan skip fully-persisted extents.
    db.checkpoint(&mut ctx).expect("checkpoint");
    let mut rctx = ThreadCtx::with_default_cost();
    db.crash_and_recover(&mut rctx).expect("recover chameleon");
    let chameleon_restart_ns = rctx.clock.now();
    let (scanned, skipped) = db.log().recovery_scan_stats();
    if skipped == 0 {
        violations.push(format!(
            "checkpointed recovery skipped no extents (scanned {scanned})"
        ));
    }
    for k in 0..keys {
        if !db.get(&mut ctx, k, &mut out).expect("post-recovery get") {
            violations.push(format!("key {k} lost across restart"));
        }
    }

    // Dram-Hash on the same workload: no checkpointable index, so its
    // restart replays the whole surviving log.
    let dram_restart_ns = dram_hash_restart(scale, keys, overwrites);
    let gap = dram_restart_ns as f64 / chameleon_restart_ns.max(1) as f64;
    println!(
        "  restart: ChameleonDB {} ({} extents scanned, {} skipped) vs Dram-Hash {} — {:.1}x gap",
        fmt_ns(chameleon_restart_ns),
        scanned,
        skipped,
        fmt_ns(dram_restart_ns),
        gap
    );

    let report = ChurnReport {
        keys,
        value_bytes: VALUE_BYTES,
        overwrite_multiplier: OVERWRITE_MULTIPLIER,
        log_capacity_bytes: capacity,
        appended_total_bytes: (keys + total_puts) * ENTRY_BYTES,
        live_bytes_final: stats.live_bytes,
        footprint_bytes_final: stats.footprint_bytes,
        max_space_amp_milli: max_amp_milli,
        put_p999_first_half_ns: p999[0],
        put_p999_second_half_ns: p999[1],
        gc_runs: m.gc_runs,
        gc_relocated_entries: m.gc_relocated_entries,
        gc_relocated_bytes: m.gc_relocated_bytes,
        gc_reclaimed_extents: m.gc_reclaimed_extents,
        samples,
        restart: RestartGap {
            chameleon_restart_ns,
            chameleon_scanned_extents: scanned,
            chameleon_skipped_extents: skipped,
            dram_hash_restart_ns: dram_restart_ns,
            gap_ratio: gap,
        },
        violations,
    };
    let gc_opts = Opts {
        out_dir: opts.out_dir.as_ref().map(|d| d.join("pr8_gc")),
        ..opts.clone()
    };
    write_json(&gc_opts, "churn", &report);

    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("churn violation: {v}");
        }
        eprintln!("churn FAILED: {} violations", report.violations.len());
        std::process::exit(1);
    }
    println!("  survival: clean — footprint bounded, tail flat, all keys current");
    report
}

/// Loads and churns the same key set on Dram-Hash, then times its
/// crash-recovery (a full log replay). The log is sized for the whole
/// appended volume — Dram-Hash has no GC.
fn dram_hash_restart(scale: Scale, keys: u64, overwrites: u64) -> u64 {
    let (dev, mut store) = stores::build_dram_hash(scale);
    dev.set_active_threads(1);
    let mut ctx = ThreadCtx::with_default_cost();
    let mut value = [0u8; VALUE_BYTES];
    for i in 0..keys + overwrites {
        let k = i % keys;
        value[..8].copy_from_slice(&k.to_le_bytes());
        store.put(&mut ctx, k, &value).expect("dram-hash put");
    }
    store.sync(&mut ctx).expect("dram-hash sync");
    let mut rctx = ThreadCtx::with_default_cost();
    store
        .crash_and_recover(&mut rctx)
        .expect("recover dram-hash");
    rctx.clock.now()
}
