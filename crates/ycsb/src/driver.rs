//! Multi-threaded workload driver over any [`kvapi::KvStore`].

use kvapi::KvStore;
use pmem_sim::{CostModel, Histogram, ThreadCtx};

use crate::{KeyChooser, Workload};

/// The kind of one executed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    ReadModifyWrite,
    /// Range scan (YCSB-E): Zipfian start key, uniform length.
    Scan,
}

/// Driver configuration for one measured run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads (each gets its own [`ThreadCtx`] and clock).
    pub threads: usize,
    /// Total operations across all threads.
    pub ops: u64,
    /// Records already loaded (the request key space).
    pub record_count: u64,
    /// Value size for puts.
    pub value_size: usize,
    /// Workload mix (Table 5).
    pub workload: Workload,
    /// Base RNG seed (thread `t` uses `seed + t`).
    pub seed: u64,
    /// First key for unique-key inserts (`Load`, and YCSB-E's insert
    /// half — set it to `record_count` there so fresh keys extend the
    /// loaded space instead of overwriting it).
    pub insert_start: u64,
    /// Simulated-time bucket for the throughput timeline; 0 disables.
    pub timeline_bucket_ns: u64,
    /// Largest scan length (YCSB-E draws uniformly from `[1, this]`).
    pub scan_max_len: usize,
}

impl RunConfig {
    /// A convenience constructor for the common case.
    pub fn new(workload: Workload, threads: usize, ops: u64, record_count: u64) -> Self {
        Self {
            threads: threads.max(1),
            ops,
            record_count: record_count.max(1),
            value_size: 8,
            workload,
            seed: 0x59_43_53_42,
            insert_start: if workload == Workload::E {
                record_count.max(1)
            } else {
                0
            },
            timeline_bucket_ns: 0,
            scan_max_len: 100,
        }
    }
}

/// Results of one measured run, in simulated time.
#[derive(Debug)]
pub struct RunResult {
    /// Operations executed.
    pub ops: u64,
    /// Max over threads of per-thread simulated time (the makespan).
    pub elapsed_ns: u64,
    /// Sum over threads of per-thread throughput (ops/ns) — the aggregate
    /// a closed-loop multi-threaded benchmark reports. Less sensitive than
    /// the makespan to one thread absorbing a lumpy compaction.
    pub sum_rate_ops_per_ns: f64,
    /// Latency histogram of read operations.
    pub read_hist: Histogram,
    /// Latency histogram of write operations (puts; RMW counts the whole
    /// read+write pair).
    pub write_hist: Histogram,
    /// Latency histogram of range scans (YCSB-E).
    pub scan_hist: Histogram,
    /// Total keys returned across all scans.
    pub scanned_keys: u64,
    /// Gets that found no value.
    pub not_found: u64,
    /// `(bucket_start_ns, ops_completed)` series when a timeline bucket
    /// was configured.
    pub timeline: Vec<(u64, u64)>,
}

impl RunResult {
    /// Aggregate throughput in million operations per simulated second
    /// (sum of per-thread rates).
    pub fn mops(&self) -> f64 {
        self.sum_rate_ops_per_ns * 1e3
    }

    /// Makespan-based throughput (total ops / slowest thread).
    pub fn mops_makespan(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e3 / self.elapsed_ns as f64
        }
    }
}

struct ThreadOutcome {
    read_hist: Histogram,
    write_hist: Histogram,
    scan_hist: Histogram,
    scanned_keys: u64,
    not_found: u64,
    elapsed_ns: u64,
    timeline: Vec<(u64, u64)>,
}

/// Runs `cfg` against `store` and collects simulated-time results.
///
/// The caller is responsible for loading `record_count` records first (for
/// non-`Load` workloads) and for declaring the device's active thread
/// count. Worker `t` receives `ThreadCtx::for_thread(cost, t)`, so stores
/// pick uncontended per-thread log writers.
///
/// # Panics
///
/// Panics if any store operation fails — harnesses treat store errors as
/// fatal configuration bugs.
pub fn run<S: KvStore + ?Sized>(store: &S, cfg: &RunConfig) -> RunResult {
    let cost = std::sync::Arc::new(CostModel::default());
    let per_thread = cfg.ops / cfg.threads as u64;
    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let cost = std::sync::Arc::clone(&cost);
                s.spawn(move || run_thread(store, cfg, t, per_thread, cost))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut read_hist = Histogram::new();
    let mut write_hist = Histogram::new();
    let mut scan_hist = Histogram::new();
    let mut scanned_keys = 0;
    let mut not_found = 0;
    let mut elapsed = 0;
    let mut sum_rate = 0.0;
    let mut timeline_map: std::collections::BTreeMap<u64, u64> = Default::default();
    for o in outcomes {
        read_hist.merge(&o.read_hist);
        write_hist.merge(&o.write_hist);
        scan_hist.merge(&o.scan_hist);
        scanned_keys += o.scanned_keys;
        not_found += o.not_found;
        elapsed = elapsed.max(o.elapsed_ns);
        if o.elapsed_ns > 0 {
            sum_rate += per_thread as f64 / o.elapsed_ns as f64;
        }
        for (bucket, n) in o.timeline {
            *timeline_map.entry(bucket).or_default() += n;
        }
    }
    RunResult {
        ops: per_thread * cfg.threads as u64,
        elapsed_ns: elapsed,
        sum_rate_ops_per_ns: sum_rate,
        read_hist,
        write_hist,
        scan_hist,
        scanned_keys,
        not_found,
        timeline: timeline_map.into_iter().collect(),
    }
}

fn run_thread<S: KvStore + ?Sized>(
    store: &S,
    cfg: &RunConfig,
    t: usize,
    ops: u64,
    cost: std::sync::Arc<CostModel>,
) -> ThreadOutcome {
    let mut ctx = ThreadCtx::for_thread(cost, t);
    let mut chooser = KeyChooser::new(
        cfg.workload.distribution(),
        cfg.record_count,
        cfg.seed + t as u64,
    );
    let mut mix_state = kvapi::mix64(cfg.seed ^ (t as u64) << 32) | 1;
    let mut next_mix = move || {
        mix_state = kvapi::mix64(mix_state.wrapping_add(0x9E37_79B9));
        mix_state
    };
    let value = vec![0xC5u8; cfg.value_size];
    let mut out = Vec::with_capacity(cfg.value_size.max(8));
    let mut read_hist = Histogram::new();
    let mut write_hist = Histogram::new();
    let mut scan_hist = Histogram::new();
    let mut scanned_keys = 0u64;
    let mut not_found = 0u64;
    let mut timeline: std::collections::BTreeMap<u64, u64> = Default::default();

    for i in 0..ops {
        let start = ctx.clock.now();
        match pick_op(cfg.workload, next_mix()) {
            OpKind::Put => {
                let key = if cfg.workload.inserts_new_keys() {
                    // Unique keys, partitioned across threads.
                    cfg.insert_start + i * cfg.threads as u64 + t as u64
                } else {
                    chooser.next_key()
                };
                store.put(&mut ctx, key, &value).expect("put failed");
                write_hist.record(ctx.clock.since(start));
            }
            OpKind::Get => {
                let key = chooser.next_key();
                if !store.get(&mut ctx, key, &mut out).expect("get failed") {
                    not_found += 1;
                }
                read_hist.record(ctx.clock.since(start));
            }
            OpKind::ReadModifyWrite => {
                let key = chooser.next_key();
                if !store.get(&mut ctx, key, &mut out).expect("get failed") {
                    not_found += 1;
                }
                store.put(&mut ctx, key, &value).expect("put failed");
                write_hist.record(ctx.clock.since(start));
            }
            OpKind::Scan => {
                let start_key = chooser.next_key();
                let len = 1 + (next_mix() as usize) % cfg.scan_max_len.max(1);
                let keys = store.scan(&mut ctx, start_key, len).expect("scan failed");
                scanned_keys += keys.len() as u64;
                scan_hist.record(ctx.clock.since(start));
            }
        }
        if let Some(bucket) = ctx
            .clock
            .now()
            .checked_div(cfg.timeline_bucket_ns)
            .filter(|_| cfg.timeline_bucket_ns > 0)
        {
            *timeline.entry(bucket * cfg.timeline_bucket_ns).or_default() += 1;
        }
    }
    ThreadOutcome {
        read_hist,
        write_hist,
        scan_hist,
        scanned_keys,
        not_found,
        elapsed_ns: ctx.clock.now(),
        timeline: timeline.into_iter().collect(),
    }
}

fn pick_op(workload: Workload, mix: u64) -> OpKind {
    let read_frac = workload.read_fraction();
    let u = (mix >> 11) as f64 / (1u64 << 53) as f64;
    if u < read_frac {
        if workload.is_scan() {
            OpKind::Scan
        } else {
            OpKind::Get
        }
    } else if workload.is_rmw() {
        OpKind::ReadModifyWrite
    } else {
        OpKind::Put
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvapi::Result;
    use parking_lot::Mutex;
    use pmem_sim::ThreadCtx;

    /// An in-memory stub store with a fixed per-op simulated cost.
    struct StubStore {
        map: Mutex<std::collections::HashMap<u64, Vec<u8>>>,
        op_ns: u64,
    }

    impl KvStore for StubStore {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()> {
            ctx.charge(self.op_ns);
            self.map.lock().insert(key, value.to_vec());
            Ok(())
        }
        fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool> {
            ctx.charge(self.op_ns);
            out.clear();
            match self.map.lock().get(&key) {
                Some(v) => {
                    out.extend_from_slice(v);
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool> {
            ctx.charge(self.op_ns);
            Ok(self.map.lock().remove(&key).is_some())
        }
        fn scan(&self, ctx: &mut ThreadCtx, start_key: u64, limit: usize) -> Result<Vec<u64>> {
            ctx.charge(self.op_ns);
            let mut keys: Vec<u64> = self
                .map
                .lock()
                .keys()
                .copied()
                .filter(|&k| k >= start_key)
                .collect();
            keys.sort_unstable();
            keys.truncate(limit);
            Ok(keys)
        }
        fn sync(&self, _ctx: &mut ThreadCtx) -> Result<()> {
            Ok(())
        }
        fn dram_footprint(&self) -> u64 {
            0
        }
        fn approx_len(&self) -> u64 {
            self.map.lock().len() as u64
        }
    }

    fn stub(op_ns: u64) -> StubStore {
        StubStore {
            map: Mutex::new(Default::default()),
            op_ns,
        }
    }

    #[test]
    fn load_inserts_unique_keys() {
        let s = stub(100);
        let cfg = RunConfig::new(Workload::Load, 4, 1000, 1);
        let r = run(&s, &cfg);
        assert_eq!(r.ops, 1000);
        assert_eq!(s.approx_len(), 1000, "all keys must be distinct");
        assert_eq!(r.read_hist.count(), 0);
        assert_eq!(r.write_hist.count(), 1000);
    }

    #[test]
    fn throughput_scales_with_threads_for_independent_ops() {
        let s = stub(1000);
        let r1 = run(&s, &RunConfig::new(Workload::Load, 1, 4000, 1));
        let r4 = run(&s, &RunConfig::new(Workload::Load, 4, 4000, 1));
        // Same total ops, four clocks in parallel: ~4x the throughput.
        assert!(r4.mops() > 3.0 * r1.mops());
    }

    #[test]
    fn ycsb_c_is_all_reads_on_loaded_store() {
        let s = stub(50);
        run(&s, &RunConfig::new(Workload::Load, 1, 1000, 1));
        let mut cfg = RunConfig::new(Workload::C, 2, 2000, 1000);
        cfg.seed = 9;
        let r = run(&s, &cfg);
        assert_eq!(r.write_hist.count(), 0);
        assert_eq!(r.read_hist.count(), 2000);
        assert_eq!(r.not_found, 0, "all requested keys were loaded");
    }

    #[test]
    fn ycsb_a_mixes_roughly_half_and_half() {
        let s = stub(50);
        run(&s, &RunConfig::new(Workload::Load, 1, 1000, 1));
        let r = run(&s, &RunConfig::new(Workload::A, 1, 10_000, 1000));
        let reads = r.read_hist.count() as f64;
        let writes = r.write_hist.count() as f64;
        assert!((reads / (reads + writes) - 0.5).abs() < 0.05);
    }

    #[test]
    fn rmw_counts_as_write_with_double_cost() {
        let s = stub(100);
        run(&s, &RunConfig::new(Workload::Load, 1, 100, 1));
        let r = run(&s, &RunConfig::new(Workload::F, 1, 1000, 100));
        // RMW latency includes both halves: minimum 200ns in the stub.
        assert!(r.write_hist.min() >= 200);
    }

    #[test]
    fn ycsb_e_scans_dominate_and_inserts_extend_the_key_space() {
        let s = stub(50);
        run(&s, &RunConfig::new(Workload::Load, 1, 1000, 1));
        assert_eq!(s.approx_len(), 1000);
        let r = run(&s, &RunConfig::new(Workload::E, 2, 4000, 1000));
        let scans = r.scan_hist.count() as f64;
        let inserts = r.write_hist.count() as f64;
        assert_eq!(r.read_hist.count(), 0, "YCSB-E reads are scans, not gets");
        assert!((scans / (scans + inserts) - 0.95).abs() < 0.02);
        assert!(r.scanned_keys > 0, "scans over a loaded store return keys");
        // Inserts land above the loaded space (insert_start defaults to
        // record_count for E) and never overwrite it.
        assert!(s.approx_len() > 1000);
        assert!(s.map.lock().keys().any(|&k| k >= 1000));
    }

    #[test]
    fn timeline_buckets_cover_the_run() {
        let s = stub(1000);
        let mut cfg = RunConfig::new(Workload::Load, 2, 2000, 1);
        cfg.timeline_bucket_ns = 100_000;
        let r = run(&s, &cfg);
        let total: u64 = r.timeline.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 2000);
        assert!(r.timeline.len() > 1);
    }
}
