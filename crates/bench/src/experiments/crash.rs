//! `crash` — the crash-matrix fault-injection campaign.
//!
//! Enumerates every persistence-fence crash point of a mixed workload
//! (unique puts, overwrites, deletes, a Write-Intensive burst, a
//! Get-Protect window, checkpoints, and an un-synced tail), crashes the
//! store at each one, recovers, and audits the recovered image against a
//! shadow model under the acknowledged-write invariant: the surviving
//! state must correspond to *some* log-prefix cut between the last sync
//! and the in-flight op. Every Nth point also injects a second crash
//! during recovery's own replay.
//!
//! The full campaign runs both compaction schemes plus a GC slice
//! (16KB extents + churn so copy-forward relocation, index repoints and
//! extent reclaims land inside the fence window); `--quick` runs strided
//! slices of the Direct-scheme and GC matrices (the bounded CI mode).
//! Any invariant violation fails the process with exit code 1.

use integration::crashmat::{self, CrashMatrixReport, MatrixConfig};

use crate::util::{header, write_json, Opts};

pub fn run(opts: &Opts) -> Vec<CrashMatrixReport> {
    header("Crash matrix: enumerated fence-point fault injection");
    let configs: Vec<MatrixConfig> = if opts.quick {
        vec![
            MatrixConfig::quick(chameleondb::CompactionScheme::Direct),
            MatrixConfig::quick_gc(chameleondb::CompactionScheme::Direct),
        ]
    } else {
        vec![
            MatrixConfig::full(chameleondb::CompactionScheme::Direct),
            MatrixConfig::full(chameleondb::CompactionScheme::LevelByLevel),
            MatrixConfig::full_gc(chameleondb::CompactionScheme::Direct),
        ]
    };

    let mut reports = Vec::new();
    for cfg in &configs {
        let mut scheme = format!("{:?}", cfg.scheme);
        if cfg.gc {
            scheme.push_str("_gc");
        }
        println!(
            "\n  scheme {scheme}: {} keys, every {} of the fence stream, nested crash every {} points",
            cfg.keys, cfg.stride, cfg.nested_every
        );
        let progress = |done: u64, total: u64| {
            if opts.progress && done.is_multiple_of(32) {
                eprintln!("[crash] {scheme}: {done}/{total} points");
            }
        };
        let report = crashmat::run_matrix(cfg, progress);
        print_report(&report);
        reports.push(report);
    }

    let points: u64 = reports.iter().map(|r| r.distinct_points()).sum();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    println!("\n  campaign total: {points} distinct crash points, {violations} violations");
    write_json(opts, "crash", &reports);

    if violations > 0 {
        eprintln!("crash matrix FAILED: {violations} acknowledged-write violations");
        std::process::exit(1);
    }
    reports
}

fn print_report(report: &CrashMatrixReport) {
    println!(
        "    workload {} ops over {} fences; tested {} primary + {} nested crash points",
        report.workload_ops, report.total_fences, report.points_tested, report.nested_crashes
    );
    println!("    {:>18} {:>8}", "crashed in stage", "points");
    for st in &report.stages {
        println!("    {:>18} {:>8}", st.stage, st.points);
    }
    if report.violations.is_empty() {
        println!("    audit: clean — every point admits a valid log-prefix cut");
    } else {
        println!("    audit: {} VIOLATIONS", report.violations.len());
        // A violation's text has several lines; each is its own block.
        for v in &report.violations {
            println!(
                "      fence {} ({}{}):",
                v.fence,
                v.stage,
                v.nested_fence
                    .map(|n| format!(", nested at {n}"))
                    .unwrap_or_default(),
            );
            for line in v.violations.iter().flat_map(|text| text.lines()) {
                println!("        {line}");
            }
        }
    }
}
