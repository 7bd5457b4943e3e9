//! Figure 16: tail get latency and overall throughput under put bursts,
//! with and without the dynamic Get-Protect Mode, vs Pmem-Hash.
//!
//! Runs under the device's shared-queue contention model so a put burst's
//! media occupancy inflates concurrent gets. Two burst cycles, as in the
//! paper; each cycle is a get-only phase followed by a mixed burst phase.
//! Thread clocks persist across phases (putters fast-forward to the burst
//! instant), so the per-window p99 series is a continuous timeline.
//!
//! Expected shape: both stores' get p99 spikes during the bursts;
//! ChameleonDB+GPM caps the spike by suspending compactions and dumping
//! the ABI, then drains the postponed merges after the burst.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kvapi::KvStore;
use pmem_sim::{CostModel, Histogram, PmemDevice, ThreadCtx};
use serde::Serialize;

use crate::experiments::load_store;
use crate::stores;
use crate::util::{fmt_ns, header, write_json, Opts};

#[derive(Serialize)]
pub struct Fig16Series {
    pub store: &'static str,
    /// `(sim_time_ns, get_p99_ns)` per window.
    pub p99_timeline: Vec<(u64, u64)>,
    /// `(sim_time_ns, total_ops)` per window.
    pub throughput_timeline: Vec<(u64, u64)>,
    pub peak_p99_ns: u64,
    pub baseline_p99_ns: u64,
    /// Number of windows whose p99 exceeded the 2000ns QoS threshold.
    pub spike_windows: usize,
    pub abi_dumps: u64,
}

/// Runs the QoS experiment for the three configurations.
pub fn run(opts: &Opts) -> Vec<Fig16Series> {
    header("Fig 16: tail get latency under put bursts (queue-model contention)");
    let mut out = Vec::new();
    for (name, gpm) in [("ChameleonDB", false), ("ChameleonDB+GPM", true)] {
        let scale = opts.scale();
        let mut cfg = stores::chameleon_config(scale);
        cfg.gpm = chameleondb::GpmConfig {
            enabled: gpm,
            enter_threshold_ns: 2000,
            exit_threshold_ns: 1800,
            window_ops: 512,
        };
        let (dev, store) = stores::build_chameleon_with(scale, cfg);
        let mut series = drive(name, &dev, &store, opts);
        let m = store.metrics();
        series.abi_dumps = m.abi_dumps;
        println!(
            "  [{name}: gpm entries {}, wim merges {}, flushes {}, last compactions {}]",
            m.gpm_entries, m.wim_merges, m.flushes, m.last_compactions
        );
        out.push(series);
    }
    {
        let (dev, store) = stores::build_cceh(opts.scale());
        out.push(drive("Pmem-Hash", &dev, &store, opts));
    }
    for s in &out {
        println!(
            "{:>16}: baseline p99 {}, peak p99 {} ({:.2}x), {} windows over 2us, ABI dumps {}",
            s.store,
            fmt_ns(s.baseline_p99_ns),
            fmt_ns(s.peak_p99_ns),
            s.peak_p99_ns as f64 / s.baseline_p99_ns.max(1) as f64,
            s.spike_windows,
            s.abi_dumps,
        );
    }
    write_json(opts, "fig16_get_protect", &out);
    out
}

/// Result of one thread's phase: its continued context plus
/// `(window, latency)` samples and `(window, ops)` counts.
type PhaseOut = (ThreadCtx, Vec<(u64, u64)>, Vec<(u64, u64)>);

fn drive<S: KvStore>(
    name: &'static str,
    dev: &Arc<PmemDevice>,
    store: &S,
    opts: &Opts,
) -> Fig16Series {
    load_store(store, dev, opts.keys, opts.threads);
    dev.set_queue_model(true);
    dev.set_active_threads(opts.threads as u32);

    let get_threads = (opts.threads / 2).max(1);
    let put_threads = (opts.threads / 2).max(1);
    let gets_per_phase = (opts.ops / get_threads as u64).max(10_000);
    let burst_puts = (opts.ops / put_threads as u64).max(10_000);
    let window_ns = 2_000_000u64; // 2ms windows
    let cost = Arc::new(CostModel::default());
    let keys = opts.keys;

    // Continuous per-thread contexts across all phases.
    let mut get_ctxs: Vec<ThreadCtx> = (0..get_threads)
        .map(|t| ThreadCtx::for_thread(Arc::clone(&cost), t))
        .collect();
    let mut put_ctxs: Vec<ThreadCtx> = (0..put_threads)
        .map(|t| ThreadCtx::for_thread(Arc::clone(&cost), get_threads + t))
        .collect();

    let mut p99_windows: std::collections::BTreeMap<u64, Histogram> = Default::default();
    let mut ops_windows: std::collections::BTreeMap<u64, u64> = Default::default();

    for _cycle in 0..2 {
        // Quiet phase: gets only.
        let phase: Vec<PhaseOut> = std::thread::scope(|s| {
            let handles: Vec<_> = get_ctxs
                .drain(..)
                .map(|ctx| {
                    s.spawn(move || get_loop(store, ctx, keys, gets_per_phase / 4, window_ns, None))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("get thread"))
                .collect()
        });
        for (ctx, samples, ops) in phase {
            merge(&mut p99_windows, &mut ops_windows, samples, ops);
            get_ctxs.push(ctx);
        }

        // The burst begins "now": put threads were idle, so fast-forward
        // their clocks to the getters' current instant.
        let now = get_ctxs.iter().map(|c| c.clock.now()).max().unwrap_or(0);
        for c in &mut put_ctxs {
            c.clock.catch_up_to(now);
        }

        // Burst phase: put threads flood while get threads keep reading.
        let stop = AtomicBool::new(false);
        type PutOut = Vec<(ThreadCtx, Vec<(u64, u64)>)>;
        let (get_out, put_out): (Vec<PhaseOut>, PutOut) = std::thread::scope(|s| {
            let get_handles: Vec<_> = get_ctxs
                .drain(..)
                .map(|ctx| {
                    let stop = &stop;
                    s.spawn(move || {
                        get_loop(store, ctx, keys, gets_per_phase, window_ns, Some(stop))
                    })
                })
                .collect();
            let put_handles: Vec<_> = put_ctxs
                .drain(..)
                .map(|mut ctx| {
                    s.spawn(move || {
                        let mut rng = kvapi::mix64(ctx.thread_id as u64 ^ 0xB00);
                        let mut ops: Vec<(u64, u64)> = Vec::new();
                        for i in 0..burst_puts {
                            rng = kvapi::mix64(rng);
                            store
                                .put(&mut ctx, rng % keys, &i.to_le_bytes())
                                .expect("put");
                            let bucket = ctx.clock.now() / window_ns * window_ns;
                            match ops.last_mut() {
                                Some((b, n)) if *b == bucket => *n += 1,
                                _ => ops.push((bucket, 1)),
                            }
                        }
                        (ctx, ops)
                    })
                })
                .collect();
            let put_out: Vec<_> = put_handles
                .into_iter()
                .map(|h| h.join().expect("put thread"))
                .collect();
            stop.store(true, Ordering::Relaxed);
            let get_out: Vec<_> = get_handles
                .into_iter()
                .map(|h| h.join().expect("get thread"))
                .collect();
            (get_out, put_out)
        });
        for (ctx, samples, ops) in get_out {
            merge(&mut p99_windows, &mut ops_windows, samples, ops);
            get_ctxs.push(ctx);
        }
        for (ctx, ops) in put_out {
            merge(&mut p99_windows, &mut ops_windows, Vec::new(), ops);
            put_ctxs.push(ctx);
        }
        // Phase barrier: everyone observes the end of the burst.
        let now = get_ctxs
            .iter()
            .chain(put_ctxs.iter())
            .map(|c| c.clock.now())
            .max()
            .unwrap_or(0);
        for c in get_ctxs.iter_mut().chain(put_ctxs.iter_mut()) {
            c.clock.catch_up_to(now);
        }
    }
    dev.set_queue_model(false);

    let p99_timeline: Vec<(u64, u64)> = p99_windows
        .iter()
        .filter(|(_, h)| h.count() >= 50)
        .map(|(&t, h)| (t, h.quantile(0.99)))
        .collect();
    let throughput_timeline: Vec<(u64, u64)> = ops_windows.into_iter().collect();
    let baseline = p99_timeline.first().map(|&(_, p)| p).unwrap_or(0);
    let peak = p99_timeline.iter().map(|&(_, p)| p).max().unwrap_or(0);
    let spike_windows = p99_timeline.iter().filter(|&&(_, p)| p > 2000).count();
    Fig16Series {
        store: name,
        p99_timeline,
        throughput_timeline,
        peak_p99_ns: peak,
        baseline_p99_ns: baseline,
        spike_windows,
        abi_dumps: 0,
    }
}

fn merge(
    p99: &mut std::collections::BTreeMap<u64, Histogram>,
    ops_windows: &mut std::collections::BTreeMap<u64, u64>,
    samples: Vec<(u64, u64)>,
    ops: Vec<(u64, u64)>,
) {
    for (bucket, lat) in samples {
        p99.entry(bucket).or_default().record(lat);
    }
    for (bucket, n) in ops {
        *ops_windows.entry(bucket).or_default() += n;
    }
}

fn get_loop<S: KvStore>(
    store: &S,
    mut ctx: ThreadCtx,
    keys: u64,
    max_ops: u64,
    window_ns: u64,
    stop: Option<&AtomicBool>,
) -> PhaseOut {
    let mut rng = kvapi::mix64(ctx.thread_id as u64 ^ ctx.clock.now() ^ 0x6E7);
    let mut out = Vec::new();
    let mut samples = Vec::new();
    let mut ops: Vec<(u64, u64)> = Vec::new();
    for _ in 0..max_ops {
        if let Some(stop) = stop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        rng = kvapi::mix64(rng);
        let start = ctx.clock.now();
        store.get(&mut ctx, rng % keys, &mut out).expect("get");
        let lat = ctx.clock.now() - start;
        let bucket = ctx.clock.now() / window_ns * window_ns;
        samples.push((bucket, lat));
        match ops.last_mut() {
            Some((b, n)) if *b == bucket => *n += 1,
            _ => ops.push((bucket, 1)),
        }
    }
    (ctx, samples, ops)
}
