//! `repro` — regenerates every table and figure of the ChameleonDB paper.
//!
//! Usage: `repro <experiment> [--keys N] [--ops N] [--threads N]
//! [--out DIR | --no-out] [--quick] [--obs-json PATH] [--progress]`
//!
//! Experiments: `fig1 fig2 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//! table4 ablate-abi ablate-loadfactor ablate-ratio obs crash churn
//! serve serve-bench ycsb-e trace-dump top replicate all`.
//! `table2`/`table3` are printed by `fig11`/`fig13`; `fig3` by `table4`.
//! The figures, tables and ablations all run the paper's engine
//! (`ChameleonConfig::paper_with_shards`, via `stores::chameleon_config`)
//! on per-thread simulated clocks; `all` regenerates exactly the
//! `results/*.json` files. Under `--quick`, `table4` and `fig15` exit
//! nonzero if the paper's put/DRAM orderings flip (the CI paper smoke).
//! `obs` exercises the observability layer and honors `--obs-json` /
//! `--progress`. `crash` runs the crash-matrix fault-injection campaign
//! (`--quick` for the bounded CI slice) and exits nonzero on any
//! acknowledged-write violation. `churn` runs the sustained-overwrite GC
//! survival campaign (footprint bound, flat put tail, restart gap vs
//! Dram-Hash) and exits nonzero on any violation. `serve` runs the kvserver TCP front-end
//! on `--port` until SIGINT/SIGTERM; `serve-bench --conns N [--open-loop]`
//! runs the connection-scaling and open-loop phases (commit-policy and
//! tracing costs are `kvbench` rows). `ycsb-e` gates the ordered
//! index (point-op p99.9 within 10% of index-off) and audits range
//! scans racing concurrent writers over TCP. `trace-dump` drives a
//! force-traced workload against a running server and exports Chrome
//! trace JSON; `top` is a live dashboard over the `--http-port` metrics
//! sidecar. `replicate` runs the primary→replica log-shipping campaign
//! (quorum-acked writers, staleness-bound-0 audited replica reads, and a
//! kill-the-primary promotion drill) and exits nonzero on any violation.

use chameleon_bench::experiments as exp;
use chameleon_bench::util::Opts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        std::process::exit(2);
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    match cmd.as_str() {
        "fig1" => {
            exp::fig01::run(&opts);
        }
        "fig2" => {
            exp::fig02::run(&opts);
        }
        "fig10" => {
            exp::overall::fig10(&opts);
        }
        "fig11" | "table2" => {
            exp::overall::fig11(&opts);
        }
        "fig12" => {
            exp::overall::fig12(&opts);
        }
        "fig13" | "table3" => {
            exp::overall::fig13(&opts);
        }
        "fig14" => {
            exp::fig14::run(&opts);
        }
        "fig15" => {
            exp::fig15::run(&opts);
            exp::fig15::wim_restart(&opts);
        }
        "fig16" => {
            exp::fig16::run(&opts);
        }
        "fig17" => {
            exp::fig17::run(&opts);
        }
        "table4" | "fig3" => {
            exp::overall::table4(&opts);
        }
        "ablate-abi" => {
            exp::ablate::abi(&opts);
        }
        "ablate-loadfactor" => {
            exp::ablate::load_factor(&opts);
        }
        "ablate-ratio" => {
            exp::ablate::ratio(&opts);
        }
        "obs" => {
            exp::obs::run(&opts);
        }
        "crash" => {
            exp::crash::run(&opts);
        }
        "churn" => {
            exp::churn::run(&opts);
        }
        "serve" => {
            exp::serve::serve(&opts);
        }
        "serve-bench" => {
            exp::serve::bench(&opts);
        }
        "ycsb-e" => {
            exp::ycsb_e::run(&opts);
        }
        "trace-dump" => {
            exp::trace_dump::run(&opts);
        }
        "top" => {
            exp::top::run(&opts);
        }
        "replicate" => {
            exp::replicate::run(&opts);
        }
        "all" => {
            exp::fig01::run(&opts);
            exp::fig02::run(&opts);
            exp::overall::fig10(&opts);
            exp::overall::fig11(&opts);
            exp::overall::fig12(&opts);
            exp::overall::fig13(&opts);
            exp::overall::table4(&opts);
            exp::fig14::run(&opts);
            exp::fig15::run(&opts);
            exp::fig15::wim_restart(&opts);
            exp::fig16::run(&opts);
            exp::fig17::run(&opts);
            exp::ablate::abi(&opts);
            exp::ablate::load_factor(&opts);
            exp::ablate::ratio(&opts);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[done in {:.1}s wall time]",
        started.elapsed().as_secs_f64()
    );
}

fn usage() {
    eprintln!(
        "usage: repro <experiment> [--keys N] [--ops N] [--threads N] [--out DIR | --no-out] [--quick]\n\
         \x20                       [--obs-json PATH] [--progress] [--port N] [--trace N] [--http-port N]\n\
         \x20                       [--conns N] [--open-loop]   (serve-bench: connection scaling / load sweep)\n\
         experiments: fig1 fig2 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17\n\
                      table2 table3 table4 fig3 ablate-abi ablate-loadfactor ablate-ratio obs crash churn\n\
                      serve serve-bench ycsb-e trace-dump top replicate all"
    );
}
