//! Figure 1: random write throughput on the Optane device vs access size
//! and thread count.
//!
//! Writes of a given size are issued at random 256B-aligned offsets with
//! ntstore+fence, exactly the paper's microbenchmark. The expected shape:
//! sub-256B writes waste bandwidth proportionally (the 64B→128B→256B
//! doubling steps), throughput plateaus at and beyond the 256B unit, and
//! high thread counts degrade due to iMC contention.

use serde::Serialize;

use crate::util::{header, write_json, Opts};
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

#[derive(Serialize)]
pub struct Fig1Point {
    pub threads: u32,
    pub access_size: usize,
    pub user_gb_per_s: f64,
    pub media_gb_per_s: f64,
    pub write_amplification: f64,
}

/// Runs the Fig. 1 sweep and prints the series.
pub fn run(opts: &Opts) -> Vec<Fig1Point> {
    header("Fig 1: random write throughput vs access size (simulated Optane)");
    let sizes: Vec<usize> = vec![8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 131072];
    let thread_counts: Vec<u32> = vec![1, 2, 4, 8, 16];
    let mut out = Vec::new();
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>8}",
        "threads", "size", "user GB/s", "media GB/s", "WA"
    );
    for &threads in &thread_counts {
        for &size in &sizes {
            let point = one_point(threads, size, opts);
            println!(
                "{:>8} {:>10} {:>12.3} {:>12.3} {:>8.2}",
                point.threads,
                point.access_size,
                point.user_gb_per_s,
                point.media_gb_per_s,
                point.write_amplification
            );
            out.push(point);
        }
        println!();
    }
    write_json(opts, "fig01_write_throughput", &out);
    out
}

fn one_point(threads: u32, size: usize, opts: &Opts) -> Fig1Point {
    // Enough outstanding data to amortize, bounded for big sizes.
    let per_thread_bytes: u64 = if opts.quick { 2 << 20 } else { 16 << 20 };
    let writes_per_thread = (per_thread_bytes / size as u64).clamp(64, 1 << 16);
    let arena: u64 = 256 << 20;
    let dev = PmemDevice::optane(arena as usize + (1 << 20));
    let base = dev.alloc(arena).expect("alloc arena");
    dev.set_active_threads(threads);
    let cost = std::sync::Arc::new(CostModel::default());
    let blocks = arena / 256;

    let elapsed_max = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dev = &dev;
                let cost = std::sync::Arc::clone(&cost);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::for_thread(cost, t as usize);
                    let data = vec![0xEEu8; size];
                    let mut rng = kvapi::mix64(t as u64 + 1);
                    for _ in 0..writes_per_thread {
                        rng = kvapi::mix64(rng);
                        // Random 256B-aligned offset with room for `size`.
                        let max_block = blocks - (size as u64).div_ceil(256);
                        let off = base + (rng % max_block) * 256;
                        dev.write_nt(&mut ctx, off, &data);
                        dev.fence(&mut ctx);
                    }
                    ctx.clock.now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .max()
            .unwrap_or(0)
    });

    let stats = dev.stats().snapshot();
    let user_bytes = writes_per_thread * size as u64 * threads as u64;
    Fig1Point {
        threads,
        access_size: size,
        user_gb_per_s: user_bytes as f64 / elapsed_max.max(1) as f64,
        media_gb_per_s: stats.media_bytes_written as f64 / elapsed_max.max(1) as f64,
        write_amplification: stats.write_amplification(),
    }
}
