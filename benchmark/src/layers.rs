//! The layer pass: each layer crate's public functions called directly on
//! a private instance, one row per function and clock. Reported as the
//! median of batch means, so a stray scheduler hiccup moves nothing.
//!
//! `_ns_wall` rows are what the layer costs this host; `_ns_sim` rows are
//! what the cost model charges for the same calls, and repeat exactly
//! unless a change recalibrates the model.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use chameleondb::{BatchOp, ChameleonConfig, ChameleonDb};
use kvlog::{LogConfig, StorageLog};
use kvorder::OrderedIndex;
use kvserver::conn::FrameBuf;
use kvserver::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use kvsync::{EpochDomain, ViewCell};
use kvtables::{RobinHoodMap, SharedTable, Slot, TableBuilder};
use pmem_sim::{PmemDevice, ThreadCtx};

use crate::gen::mix64;
use crate::run::Values;
use crate::stats::median;

/// Calls per batch; one batch yields one sample per clock.
const BATCH: u64 = 4096;

struct Pass {
    budget: Duration,
    out: Values,
}

impl Pass {
    /// Runs `batch` (which makes `BATCH` calls and returns how long they
    /// took on the wall and, if it has one, the simulated clock) until the
    /// row's time budget is spent, and records the medians per call.
    fn row(
        &mut self,
        wall_name: &str,
        sim_name: Option<&str>,
        mut batch: impl FnMut(u64) -> (Duration, Option<u64>),
    ) {
        let started = Instant::now();
        let (mut wall, mut sim) = (Vec::new(), Vec::new());
        let mut round = 0;
        while wall.len() < 5 || started.elapsed() < self.budget {
            let (w, s) = batch(round);
            wall.push(w.as_nanos() as f64 / BATCH as f64);
            sim.extend(s.map(|ns| ns as f64 / BATCH as f64));
            round += 1;
        }
        self.value(wall_name, median(&wall));
        if let Some(name) = sim_name {
            self.value(name, median(&sim));
        }
    }

    fn value(&mut self, name: &str, v: f64) {
        self.out.push((name.to_owned(), v));
    }
}

/// Times `BATCH` calls of `f(i)` on both clocks.
fn both(
    ctx: &mut ThreadCtx,
    round: u64,
    mut f: impl FnMut(&mut ThreadCtx, u64),
) -> (Duration, Option<u64>) {
    let c0 = ctx.clock.now();
    let t0 = Instant::now();
    for i in round * BATCH..(round + 1) * BATCH {
        f(ctx, i);
    }
    (t0.elapsed(), Some(ctx.clock.now() - c0))
}

fn wall_only(round: u64, mut f: impl FnMut(u64)) -> (Duration, Option<u64>) {
    let t0 = Instant::now();
    for i in round * BATCH..(round + 1) * BATCH {
        f(i);
    }
    (t0.elapsed(), None)
}

/// Runs every row, spending about `budget` on each.
pub fn layer_pass(budget: Duration) -> Values {
    let mut p = Pass {
        budget,
        out: Vec::new(),
    };
    let mut ctx = ThreadCtx::with_default_cost();

    // ---- harness: the cost of looking -----------------------------------
    p.row("harness.timer_ns_wall", None, |r| {
        wall_only(r, |_| {
            black_box(Instant::now().elapsed());
        })
    });

    // ---- pmem-sim ---------------------------------------------------------
    const REGION: u64 = 64 << 20;
    let dev = PmemDevice::optane(REGION as usize + (1 << 20));
    let base = dev.alloc(REGION).expect("layer pass: device region");
    let line = [0xA5u8; 256];
    p.row(
        "pmem-sim.persist_64B_ns_wall",
        Some("pmem-sim.persist_64B_ns_sim"),
        |r| {
            both(&mut ctx, r, |ctx, i| {
                dev.persist(ctx, base + (i * 64) % REGION, &line[..64])
            })
        },
    );
    p.row(
        "pmem-sim.persist_256B_ns_wall",
        Some("pmem-sim.persist_256B_ns_sim"),
        |r| {
            both(&mut ctx, r, |ctx, i| {
                dev.persist(ctx, base + (i * 256) % REGION, &line)
            })
        },
    );
    let mut buf = [0u8; 256];
    p.row(
        "pmem-sim.read_256B_ns_wall",
        Some("pmem-sim.read_256B_ns_sim"),
        |r| {
            both(&mut ctx, r, |ctx, i| {
                dev.read(ctx, base + mix64(i) % (REGION / 256) * 256, &mut buf)
            })
        },
    );
    drop(dev);

    // ---- kvlog --------------------------------------------------------------
    let dev = PmemDevice::optane(1 << 30);
    let log = StorageLog::create(
        Arc::clone(&dev),
        LogConfig {
            capacity: 768 << 20,
            ..LogConfig::default()
        },
    )
    .expect("layer pass: log");
    let mut writer = log.writer();
    let mut locs = Vec::new();
    for (name, len) in [("kvlog.append_8B", 8), ("kvlog.append_64B", 64)] {
        let value = vec![0x5Au8; len];
        let (bytes0, n0) = (log.appended_bytes(), locs.len());
        p.row(
            &format!("{name}_ns_wall"),
            Some(&format!("{name}_ns_sim")),
            |r| {
                both(&mut ctx, r, |ctx, i| {
                    let meta = writer
                        .append(ctx, mix64(i), &value, false)
                        .expect("layer pass: log full");
                    locs.push(meta.loc());
                })
            },
        );
        if len == 64 {
            p.value(
                "kvlog.appended_bytes_per_put",
                (log.appended_bytes() - bytes0) as f64 / (locs.len() - n0) as f64,
            );
        }
    }
    writer.flush(&mut ctx).expect("layer pass: log flush");
    let mut out = Vec::new();
    p.row(
        "kvlog.read_entry_ns_wall",
        Some("kvlog.read_entry_ns_sim"),
        |r| {
            both(&mut ctx, r, |ctx, i| {
                let loc = locs[(mix64(i) % locs.len() as u64) as usize];
                black_box(
                    log.read_entry(ctx, loc, &mut out)
                        .expect("layer pass: read_entry"),
                );
            })
        },
    );
    drop((writer, log, dev));

    // ---- kvtables -----------------------------------------------------------
    const ENTRIES: u64 = 32_768; // one shard's upper levels
    let hash_of = |i: u64| mix64(i % ENTRIES) | 1;
    p.row("kvtables.shared_insert_ns_wall", None, |r| {
        let table = SharedTable::new(2 * BATCH as usize);
        both(&mut ctx, r, |ctx, i| {
            black_box(table.insert(ctx, Slot::new(mix64(i) | 1, i + 1)).ok());
        })
    });
    let shared = SharedTable::new(2 * ENTRIES as usize);
    let mut robin = RobinHoodMap::new(2 * ENTRIES as usize);
    let floor = RwLock::new(HashMap::new());
    for i in 0..ENTRIES {
        shared
            .insert(&mut ctx, Slot::new(hash_of(i), i + 1))
            .expect("layer pass: shared table");
        robin.insert(&mut ctx, hash_of(i), i + 1);
        floor.write().expect("floor lock").insert(hash_of(i), i + 1);
    }
    p.row("kvtables.shared_get_ns_wall", None, |r| {
        both(&mut ctx, r, |ctx, i| {
            black_box(shared.get(ctx, hash_of(mix64(i))));
        })
    });
    p.row("kvtables.robinhood_get_ns_wall", None, |r| {
        both(&mut ctx, r, |ctx, i| {
            black_box(robin.get(ctx, hash_of(mix64(i))));
        })
    });
    p.row("kvtables.floor_hashmap_get_ns_wall", None, |r| {
        wall_only(r, |i| {
            black_box(
                floor
                    .read()
                    .expect("floor lock")
                    .get(&hash_of(mix64(i)))
                    .copied(),
            );
        })
    });
    let dev = PmemDevice::optane(256 << 20);
    let (mut build_wall, mut build_media) = (Vec::new(), Vec::new());
    let mut fixed = None;
    let started = Instant::now();
    while build_wall.len() < 5 || started.elapsed() < p.budget {
        if let Some(old) = fixed.take() {
            kvtables::FixedHashTable::free(old, &dev);
        }
        let media0 = dev.stats().snapshot().media_bytes_written;
        let t0 = Instant::now();
        let mut b = TableBuilder::sized_for(ENTRIES as usize, 0.75);
        for i in 0..ENTRIES {
            b.insert(&mut ctx, Slot::new(hash_of(i), i + 1), false)
                .expect("layer pass: table builder");
        }
        let slots = b.capacity() as f64;
        fixed = Some(
            b.build(&dev, &mut ctx, 0, 0, 1)
                .expect("layer pass: table build"),
        );
        build_wall.push(t0.elapsed().as_nanos() as f64 / slots);
        build_media.push((dev.stats().snapshot().media_bytes_written - media0) as f64 / slots);
    }
    p.value("kvtables.build_ns_per_slot_wall", median(&build_wall));
    p.value("kvtables.build_media_bytes_per_slot", median(&build_media));
    let table = fixed.expect("built at least once");
    p.row(
        "kvtables.fixed_get_ns_wall",
        Some("kvtables.fixed_get_ns_sim"),
        |r| {
            both(&mut ctx, r, |ctx, i| {
                black_box(table.get(&dev, ctx, hash_of(mix64(i))));
            })
        },
    );
    drop(dev);

    // ---- kvsync, kvorder ----------------------------------------------------
    let domain = Arc::new(EpochDomain::new(4));
    let cell = ViewCell::new(Arc::clone(&domain), Arc::new(7u64));
    p.row("kvsync.pin_load_ns_wall", None, |r| {
        wall_only(r, |_| {
            let pin = domain.pin(0);
            black_box(*cell.load(&pin));
        })
    });
    const ORDER_SHARDS: u64 = 16;
    let order = OrderedIndex::new(ORDER_SHARDS as usize, Arc::clone(&domain));
    p.row("kvorder.insert_ns_wall", None, |r| {
        wall_only(r, |i| {
            let key = mix64(i);
            black_box(order.insert((key % ORDER_SHARDS) as usize, key));
        })
    });
    p.value(
        "kvorder.dram_bytes_per_key",
        order.dram_bytes() as f64 / order.len() as f64,
    );
    p.row("kvorder.seek_ns_wall", None, |r| {
        wall_only(r, |i| {
            let pin = domain.pin(0);
            let start = mix64(i ^ 0xABCD);
            black_box(
                order
                    .range_from((start % ORDER_SHARDS) as usize, start, &pin)
                    .next(),
            );
        })
    });
    p.row("kvorder.next_ns_wall", None, |r| {
        let pin = domain.pin(0);
        let mut it = order.range_from(0, mix64(r), &pin);
        wall_only(r, |i| {
            if black_box(it.next()).is_none() {
                it = order.range_from(0, mix64(i), &pin);
            }
        })
    });
    drop(order);

    // ---- chameleondb: the group-commit entry point --------------------------
    let dev = PmemDevice::optane(1 << 30);
    let db = ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::with_shards(16))
        .expect("layer pass: store");
    let mut ops: Vec<BatchOp> = (0..8)
        .map(|_| BatchOp::Put {
            key: 0,
            value: vec![0x77; 64],
        })
        .collect();
    let started = Instant::now();
    let mut per_op = Vec::new();
    let mut next_key = 0u64;
    while per_op.len() < 5 || started.elapsed() < p.budget {
        let t0 = Instant::now();
        for _ in 0..BATCH / 8 {
            for op in &mut ops {
                if let BatchOp::Put { key, .. } = op {
                    next_key += 1;
                    *key = mix64(next_key % 65_536);
                }
            }
            db.apply_batch(&mut ctx, &ops)
                .expect("layer pass: apply_batch");
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    p.value("chameleondb.apply_batch8_ns_per_op_wall", median(&per_op));
    drop((db, dev));

    // ---- kvserver.proto -------------------------------------------------------
    let put = Request::Put {
        req_id: 12_345,
        key: 0xFEED,
        value: vec![0x42; 64],
        durable: true,
        traced: false,
    };
    let put_bytes = encode_request(&put);
    let value = Response::Value {
        req_id: 12_345,
        value: vec![0x42; 64],
    };
    let value_bytes = encode_response(&value);
    p.row("kvserver.proto.encode_put64_ns_wall", None, |r| {
        wall_only(r, |_| {
            black_box(encode_request(black_box(&put)));
        })
    });
    p.row("kvserver.proto.decode_put64_ns_wall", None, |r| {
        wall_only(r, |_| {
            black_box(decode_request(black_box(&put_bytes)).ok());
        })
    });
    p.row("kvserver.proto.encode_value64_ns_wall", None, |r| {
        wall_only(r, |_| {
            black_box(encode_response(black_box(&value)));
        })
    });
    p.row("kvserver.proto.decode_value64_ns_wall", None, |r| {
        wall_only(r, |_| {
            black_box(decode_response(black_box(&value_bytes)).ok());
        })
    });
    // Eight frames per read, as a pipelining client delivers them.
    let mut wire = Vec::new();
    for _ in 0..8 {
        wire.extend_from_slice(&(put_bytes.len() as u32).to_le_bytes());
        wire.extend_from_slice(&put_bytes);
    }
    let mut frames = FrameBuf::new();
    p.row("kvserver.proto.framebuf_ns_per_frame_wall", None, |r| {
        wall_only(r, |i| {
            if i % 8 == 0 {
                frames.extend(&wire);
            }
            black_box(frames.next_frame().ok());
        })
    });

    p.out
}
