//! Figure 15: put throughput over time with Level-by-Level Compaction,
//! Direct Compaction, and Direct Compaction + Write-Intensive Mode.
//!
//! Expected shape (§3.5): Direct Compaction beats Level-by-Level by a few
//! percent on average; enabling Write-Intensive Mode adds a much larger
//! gain (the paper reports ~7% and ~38%).

use chameleondb::CompactionScheme;
use serde::Serialize;

use crate::experiments::load_store;
use crate::stores;
use crate::util::{header, write_json, Opts};

#[derive(Serialize)]
pub struct Fig15Series {
    pub config: &'static str,
    pub avg_mops: f64,
    /// `(sim_time_ns, mops_in_window)` series.
    pub timeline: Vec<(u64, f64)>,
}

/// Runs the three configurations over the same unique-key put stream.
pub fn run(opts: &Opts) -> Vec<Fig15Series> {
    header("Fig 15: compaction scheme / Write-Intensive Mode put throughput");
    let mut out = Vec::new();
    for (name, scheme, wim) in [
        ("Level-by-Level", CompactionScheme::LevelByLevel, false),
        ("Direct", CompactionScheme::Direct, false),
        ("Direct+WIM", CompactionScheme::Direct, true),
    ] {
        let scale = opts.scale();
        let mut cfg = stores::chameleon_config(scale);
        cfg.compaction = scheme;
        cfg.write_intensive = wim;
        let (dev, store) = stores::build_chameleon_with(scale, cfg);
        dev.set_active_threads(opts.threads as u32);
        let bucket = 20_000_000u64; // 20ms of simulated time per window
        let run_cfg = ycsb::RunConfig {
            timeline_bucket_ns: bucket,
            ..ycsb::RunConfig::new(ycsb::Workload::Load, opts.threads, opts.keys, 1)
        };
        let r = ycsb::run(&store, &run_cfg);
        let timeline: Vec<(u64, f64)> = r
            .timeline
            .iter()
            .map(|&(t, n)| (t, n as f64 * 1e3 / bucket as f64))
            .collect();
        println!(
            "{:>16}: {:.2} Mops/s average over {} windows",
            name,
            r.mops(),
            timeline.len()
        );
        out.push(Fig15Series {
            config: name,
            avg_mops: r.mops(),
            timeline,
        });
    }
    let [lbl, direct, wim] = [out[0].avg_mops, out[1].avg_mops, out[2].avg_mops];
    println!(
        "  Direct vs Level-by-Level: {:+.1}%   Direct+WIM vs Direct: {:+.1}%",
        (direct / lbl - 1.0) * 100.0,
        (wim / direct - 1.0) * 100.0
    );
    write_json(opts, "fig15_compaction_modes", &out);
    if opts.quick && wim <= direct {
        // The CI paper smoke: §3.5's Write-Intensive Mode must pay off.
        eprintln!("fig15 ordering flipped: Direct+WIM {wim:.2} !> Direct {direct:.2} Mops/s");
        std::process::exit(1);
    }
    out
}

/// §3.5 restart-time comparison: a crash during Write-Intensive Mode needs
/// a log replay into the ABI.
#[derive(Serialize)]
pub struct WimRestart {
    pub normal_restart_ns: u64,
    pub wim_restart_ns: u64,
}

/// Measures restart time after a WIM crash vs a normal-mode crash.
pub fn wim_restart(opts: &Opts) -> WimRestart {
    header("§3.5: restart time, normal vs Write-Intensive crash");
    let mut times = [0u64; 2];
    for (i, wim) in [false, true].into_iter().enumerate() {
        let scale = opts.scale();
        let mut cfg = stores::chameleon_config(scale);
        cfg.write_intensive = wim;
        let (dev, mut store) = stores::build_chameleon_with(scale, cfg);
        load_store(&store, &dev, opts.keys, opts.threads);
        dev.set_active_threads(1);
        let mut ctx = pmem_sim::ThreadCtx::with_default_cost();
        kvapi::CrashRecover::crash_and_recover(&mut store, &mut ctx).expect("recover");
        times[i] = ctx.clock.now();
        println!(
            "  {}: restart {}",
            if wim { "WIM crash" } else { "normal crash" },
            crate::util::fmt_ns(times[i])
        );
    }
    let result = WimRestart {
        normal_restart_ns: times[0],
        wim_restart_ns: times[1],
    };
    write_json(opts, "fig15_wim_restart", &result);
    result
}
