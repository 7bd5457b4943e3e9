//! One module per reproduced table/figure.

pub mod ablate;
pub mod churn;
pub mod crash;
pub mod fig01;
pub mod fig02;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod obs;
pub mod overall;
pub mod replicate;
pub mod serve;
pub mod top;
pub mod trace_dump;
pub mod ycsb_e;

use kvapi::KvStore;
use pmem_sim::{PmemDevice, ThreadCtx};
use ycsb::{RunConfig, RunResult, Workload};

/// Loads `keys` unique records with `threads` workers and syncs, returning
/// the load-phase results (which double as the 100%-put measurement).
pub fn load_store<S: KvStore + ?Sized>(
    store: &S,
    dev: &PmemDevice,
    keys: u64,
    threads: usize,
) -> RunResult {
    dev.set_active_threads(threads as u32);
    let cfg = RunConfig::new(Workload::Load, threads, keys, 1);
    let result = ycsb::run(store, &cfg);
    let mut ctx = ThreadCtx::with_default_cost();
    store.sync(&mut ctx).expect("sync after load");
    result
}

/// Runs a read-only or mixed workload over an already-loaded store.
pub fn run_workload<S: KvStore + ?Sized>(
    store: &S,
    dev: &PmemDevice,
    workload: Workload,
    record_count: u64,
    ops: u64,
    threads: usize,
) -> RunResult {
    dev.set_active_threads(threads as u32);
    let cfg = RunConfig::new(workload, threads, ops, record_count);
    ycsb::run(store, &cfg)
}
