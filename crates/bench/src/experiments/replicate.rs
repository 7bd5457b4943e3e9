//! `repro replicate` — primary→replica log shipping, audited end to end
//! (ISSUE 10 tentpole).
//!
//! Phase A (replicated serving): a loopback primary under the
//! `replica-quorum` ack policy with N subscribed replicas, concurrent
//! writer clients appending round-stamped stripes, and reader clients
//! reading each writer's newest acked key through staleness-bound-0
//! [`ReplicaReader`] reads, each audited with [`History::read`] — a
//! durable ack must imply the write is visible on a replica within the
//! bound. The phase also asserts the
//! lag floors are visible where the tentpole promised: the primary's
//! and replicas' obs snapshots (`chameleon_repl_*`), the windowed
//! telemetry (`chameleon_win_repl_*`, rendered by `repro top`).
//!
//! Phase B (promotion drill): fresh primary + replicas per round, kill
//! the primary with [`KvServer::abort`] at a different fence point each
//! round, promote the replica with the highest applied floor, and audit
//! the promoted image with [`History::image`] — the log-prefix-cut
//! invariant, distributed: every acked write present (quorum ⇒ some
//! replica applied it ⇒ the max-applied replica has it), at most the one
//! in-flight write per writer optional, nothing past it, and a full scan
//! equal to the live set.
//!
//! Exits nonzero on any staleness or promotion violation; artifact under
//! `results/pr10_repl/`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chameleon_obs::export::{parse_prometheus, sample_value, Sample};
use chameleon_obs::ServerObs;
use chameleondb::{ChameleonConfig, ChameleonDb};
use integration::history::{History, Op};
use kvclient::{Client, ReplicaReader, StatsFormat};
use kvrepl::Replica;
use kvserver::{AckPolicy, KvServer, ServerConfig};
use pmem_sim::PmemDevice;
use serde::Serialize;

use crate::util::{header, write_json, Opts};

/// Writer stripes live far above any other experiment's keyspace.
const WRITER_BASE: u64 = 1 << 41;
const STRIPE_SHIFT: u64 = 32;

fn stripe_key(w: usize, i: u64) -> u64 {
    WRITER_BASE | ((w as u64) << STRIPE_SHIFT) | i
}

fn stripe_value(w: usize, i: u64) -> Vec<u8> {
    format!("repl-{w:02}-{i:08}").into_bytes()
}

/// `writers` stripes of `puts` round-stamped puts each.
fn stripes(writers: usize, puts: u64) -> History {
    History::new(
        (0..writers)
            .map(|w| {
                (0..puts)
                    .map(|i| Op::Put(stripe_key(w, i), stripe_value(w, i)))
                    .collect()
            })
            .collect(),
    )
}

/// Writer `w` runs its stripe as durable puts, stopping at the first
/// failed put.
fn write_stripe(c: &mut Client, h: &History, w: usize) -> std::io::Result<()> {
    let n = h.script(w).len() as u64;
    h.drive(w, 0, n, |op| {
        let Op::Put(k, v) = op else {
            unreachable!("stripes only put")
        };
        c.put_retrying(*k, v, true).map(drop)
    })
}

fn node() -> (Arc<PmemDevice>, Arc<ChameleonDb>) {
    let dev = PmemDevice::optane(1 << 30);
    let mut cfg = ChameleonConfig::with_shards(64);
    cfg.obs = chameleon_obs::ObsConfig::on();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg).expect("replicate: store"));
    (dev, store)
}

fn start_primary(quorum: usize) -> (KvServer, SocketAddr) {
    let (dev, store) = node();
    let server = KvServer::start(
        "127.0.0.1:0",
        dev,
        store,
        Arc::new(ServerObs::new()),
        ServerConfig {
            ack_policy: AckPolicy::ReplicaQuorum { quorum },
            ..ServerConfig::default()
        },
    )
    .expect("replicate: bind primary");
    let addr = server.local_addr();
    (server, addr)
}

fn start_replica(primary: SocketAddr) -> Replica {
    let (dev, store) = node();
    Replica::start(primary, "127.0.0.1:0", dev, store, ServerConfig::default())
        .expect("replicate: start replica")
}

#[derive(Serialize)]
struct PromotionRound {
    round: usize,
    kill_after_acked: u64,
    acked_total: u64,
    promoted_applied_floor: u64,
    violations: u64,
}

#[derive(Serialize)]
struct ReplicateReport {
    quick: bool,
    replicas: usize,
    quorum: usize,
    writers: usize,
    puts_per_writer: u64,
    acked_writes: u64,
    audited_reads: u64,
    staleness_violations: u64,
    primary_shipped: u64,
    replica_applied_min: u64,
    promotion_rounds: Vec<PromotionRound>,
    promotion_violations: u64,
    wall_secs: f64,
}

/// Phase A: concurrent writers + staleness-bound-0 audited readers over
/// a quorum-acked primary. Returns (acked, audited, violations,
/// shipped, min applied).
#[allow(clippy::type_complexity)]
fn serving_phase(
    replicas: usize,
    writers: usize,
    puts_per_writer: u64,
) -> (u64, u64, u64, u64, u64) {
    let quorum = replicas;
    let (primary, addr) = start_primary(quorum);
    let reps: Vec<Replica> = (0..replicas).map(|_| start_replica(addr)).collect();
    println!(
        "  serving: {writers} writers x {puts_per_writer} durable puts, quorum {quorum}/{replicas} \
         replicas, every published ack floor audited at staleness bound 0"
    );

    let h = &stripes(writers, puts_per_writer);
    let audited = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let (audited, violations, done) = (&audited, &violations, &done);
    let replica_addrs: Vec<SocketAddr> = reps.iter().map(|r| r.addr()).collect();
    let replica_addrs = &replica_addrs;

    thread::scope(|sc| {
        for w in 0..writers {
            sc.spawn(move || {
                let mut c = Client::connect(addr).expect("writer connect");
                write_stripe(&mut c, h, w).expect("writer put");
                done.fetch_add(1, Ordering::Release);
            });
        }
        for r in 0..replicas.max(1) {
            sc.spawn(move || {
                let mut reader =
                    ReplicaReader::connect(addr, replica_addrs[r % replica_addrs.len()])
                        .expect("reader connect");
                loop {
                    let finished = done.load(Ordering::Acquire) as usize == writers;
                    let before = h.floors();
                    for (w, &f) in before.acked.iter().enumerate().filter(|(_, &f)| f > 0) {
                        // The newest acked write of this stripe: a
                        // bound-0 read must observe it.
                        let key = stripe_key(w, f - 1);
                        let checked = match reader.get_within(key, 0, Duration::from_secs(10)) {
                            Ok(v) => h.read(key, v.as_deref().into(), &before, &h.floors()),
                            Err(e) => Err(e.to_string()),
                        };
                        if let Err(e) = checked {
                            eprintln!("  STALENESS VIOLATION: writer {w} floor {f}: {e}");
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        audited.fetch_add(1, Ordering::Relaxed);
                    }
                    if finished {
                        break;
                    }
                }
            });
        }
    });

    let acked: u64 = h.floors().acked.iter().sum();

    // Lag floors visible everywhere the tentpole promised.
    let mut c = Client::connect(addr).expect("stats connect");
    let scrape = |c: &mut Client| -> Vec<Sample> {
        let text = c.stats(StatsFormat::Prometheus).expect("stats");
        parse_prometheus(&text).expect("valid Prometheus exposition")
    };
    let prom = scrape(&mut c);
    let shipped = sample_value(&prom, "chameleon_repl_shipped")
        .expect("primary must export repl floors") as u64;
    assert!(shipped >= 1, "nothing shipped");
    assert_eq!(
        sample_value(&prom, "chameleon_repl_subscribers"),
        Some(replicas as f64)
    );
    let json = c.stats(StatsFormat::Json).expect("primary snapshot");
    assert!(
        json.contains("\"repl\""),
        "repl section missing from obs snapshot JSON"
    );
    // Windowed telemetry: wait for the sampler to cut a window carrying
    // the repl pair; `repro top` renders these two.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if sample_value(&scrape(&mut c), "chameleon_win_repl_shipped").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "chameleon_win_repl_shipped never appeared in windowed telemetry"
        );
        thread::sleep(Duration::from_millis(200));
    }

    let mut applied_min = u64::MAX;
    for rep in &reps {
        let mut rc = Client::connect(rep.addr()).expect("replica stats connect");
        let rprom = scrape(&mut rc);
        let applied = sample_value(&rprom, "chameleon_repl_applied")
            .expect("replica must export repl floors");
        applied_min = applied_min.min(applied as u64);
        assert!(
            sample_value(&rprom, "chameleon_repl_lag").is_some(),
            "replica lag gauge missing"
        );
    }

    for rep in reps {
        rep.stop().expect("replica stop");
    }
    primary.shutdown().expect("primary shutdown");
    (
        acked,
        audited.load(Ordering::Relaxed),
        violations.load(Ordering::Relaxed),
        shipped,
        applied_min,
    )
}

/// Phase B, one round: kill the primary once `kill_after` writes are
/// acked, promote the max-applied replica, audit the acked prefix.
fn promotion_round(
    round: usize,
    replicas: usize,
    (writers, puts_per_writer): (usize, u64),
    kill_after: u64,
) -> PromotionRound {
    let (primary, addr) = start_primary(1);
    let reps: Vec<Replica> = (0..replicas).map(|_| start_replica(addr)).collect();

    let h = Arc::new(stripes(writers, puts_per_writer));
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                // Fails once the primary is killed mid-write.
                if let Ok(mut c) = Client::connect(addr) {
                    let _ = write_stripe(&mut c, &h, w);
                }
            })
        })
        .collect();

    // Kill at this round's fence point: whatever batch boundary the
    // primary happens to be at when the acked total crosses the mark.
    while h.floors().acked.iter().sum::<u64>() < kill_after {
        thread::sleep(Duration::from_millis(1));
    }
    primary.abort();
    for h in handles {
        h.join().expect("writer join");
    }
    let floors = h.floors();
    let acked_total: u64 = floors.acked.iter().sum();

    // Promote the replica with the highest applied floor: with quorum 1
    // the top acker applied every acked write, so the max-floor replica
    // contains the full acked prefix.
    let best = reps
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.applied())
        .map(|(i, _)| i)
        .expect("at least one replica");
    let mut others = Vec::new();
    let mut promoted = None;
    for (i, r) in reps.into_iter().enumerate() {
        if i == best {
            promoted = Some(r.promote("127.0.0.1:0").expect("promotion"));
        } else {
            others.push(r);
        }
    }
    let promoted = promoted.expect("promoted replica");
    let promoted_applied = promoted.floors.applied.load(Ordering::Acquire);

    let mut c = Client::connect(promoted.server.local_addr()).expect("promoted connect");
    let scanned = c
        .scan(0, kvserver::proto::MAX_SCAN_KEYS as u32)
        .map_err(|e| e.to_string());
    let get = |key| c.get(key).map_err(|e| e.to_string());
    let found = h.image(get, scanned, &floors);
    for v in &found {
        eprintln!("  PROMOTION VIOLATION (round {round}): {v}");
    }
    let violations = found.len() as u64;
    // The promoted image is writable.
    c.put_retrying(stripe_key(0, 1 << 30), b"post-promotion", true)
        .expect("promoted write");

    for r in others {
        // Their subscription died with the primary; stop serving.
        let _ = r.stop();
    }
    promoted.server.shutdown().expect("promoted shutdown");
    println!(
        "  round {round}: killed primary after {acked_total} acked writes \
         (target {kill_after}), promoted replica at applied floor {promoted_applied}, \
         {violations} violations"
    );
    PromotionRound {
        round,
        kill_after_acked: kill_after,
        acked_total,
        promoted_applied_floor: promoted_applied,
        violations,
    }
}

pub fn run(opts: &Opts) {
    header("replication: primary→replica log shipping with audited failover");
    let started = Instant::now();
    let (replicas, writers, puts_per_writer, rounds) = if opts.quick {
        (1usize, 2usize, 120u64, 1usize)
    } else {
        (2, 4, 400, 3)
    };

    let (acked, audited, staleness_violations, shipped, applied_min) =
        serving_phase(replicas, writers, puts_per_writer);
    println!(
        "  serving: {acked} quorum-acked writes, {audited} audited bound-0 reads, \
         {staleness_violations} violations (primary shipped {shipped}, \
         slowest replica applied {applied_min})"
    );

    println!(
        "\n  promotion drill: {rounds} round(s), primary killed at a different \
         fence point each round, max-applied replica promoted and audited"
    );
    let mut promo_rounds = Vec::new();
    for r in 0..rounds {
        // A different fence point every round.
        let kill_after = 40 + 75 * r as u64;
        assert!(
            kill_after <= writers as u64 * puts_per_writer,
            "stripes too short"
        );
        let stripes = (writers, puts_per_writer);
        promo_rounds.push(promotion_round(r, replicas, stripes, kill_after));
    }
    let promotion_violations: u64 = promo_rounds.iter().map(|r| r.violations).sum();

    let report = ReplicateReport {
        quick: opts.quick,
        replicas,
        quorum: replicas,
        writers,
        puts_per_writer,
        acked_writes: acked,
        audited_reads: audited,
        staleness_violations,
        primary_shipped: shipped,
        replica_applied_min: applied_min,
        promotion_rounds: promo_rounds,
        promotion_violations,
        wall_secs: started.elapsed().as_secs_f64(),
    };
    let artifact_opts = Opts {
        out_dir: opts.out_dir.as_ref().map(|d| d.join("pr10_repl")),
        ..opts.clone()
    };
    write_json(&artifact_opts, "replicate", &report);

    if staleness_violations + promotion_violations > 0 {
        eprintln!(
            "\nreplicate: FAILED — {staleness_violations} staleness + \
             {promotion_violations} promotion violations"
        );
        std::process::exit(1);
    }
    println!(
        "\n  replicate: PASS — every quorum-acked write survived promotion, \
         every bound-0 read was fresh"
    );
}
