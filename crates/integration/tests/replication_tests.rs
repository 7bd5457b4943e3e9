//! End-to-end tests of primary→replica log shipping over real TCP
//! loopback (ISSUE 10): ship/apply/read on a replica, quorum-withheld
//! durable acks, replica-apply determinism, promotion after a primary
//! crash, staleness-bounded reads — plus the satellite bugfix pins:
//! paged scans across the `MAX_SCAN_KEYS` boundary, fail-fast
//! `put_retrying` against a server in staged shutdown, and the idle
//! sweep sparing connections with a withheld (un-acked) submission.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chameleon_obs::export::{parse_prometheus, sample_value};
use chameleon_obs::{ObsConfig, ServerObs};
use chameleondb::{BatchOp, ChameleonConfig, ChameleonDb};
use kvclient::{Client, ReplicaReader, RetryPolicy, StatsFormat, WriteOutcome, MAX_SCAN_KEYS};
use kvrepl::Replica;
use kvserver::{AckPolicy, KvServer, ServerConfig};
use pmem_sim::{PmemDevice, ThreadCtx};

fn test_store_config() -> ChameleonConfig {
    ChameleonConfig {
        memtable_slots: 16384,
        obs: ObsConfig::on(),
        ..ChameleonConfig::tiny()
    }
}

fn new_node() -> (Arc<PmemDevice>, Arc<ChameleonDb>) {
    let dev = PmemDevice::optane(256 << 20);
    let store =
        Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).expect("create store"));
    (dev, store)
}

fn start_primary(cfg: ServerConfig) -> (KvServer, std::net::SocketAddr, Arc<ChameleonDb>) {
    let (dev, store) = new_node();
    let server = KvServer::start(
        "127.0.0.1:0",
        dev,
        Arc::clone(&store),
        Arc::new(ServerObs::new()),
        cfg,
    )
    .expect("bind primary");
    let addr = server.local_addr();
    (server, addr, store)
}

fn start_replica(primary: std::net::SocketAddr) -> Replica {
    let (dev, store) = new_node();
    Replica::start(primary, "127.0.0.1:0", dev, store, ServerConfig::default())
        .expect("start replica")
}

fn value_for(key: u64) -> Vec<u8> {
    format!("repl-value-{key:016x}").into_bytes()
}

/// Tentpole: writes shipped from a primary are applied by a replica and
/// served read-only — GET and SCAN agree with the primary, writes are
/// refused with a terminal error, and the lag floors are visible on
/// both ends of the wire and in the replica's Prometheus export.
#[test]
fn replica_ships_applies_and_serves_reads() {
    let (primary, addr, _store) = start_primary(ServerConfig::default());
    let replica = start_replica(addr);

    let mut w = Client::connect(addr).unwrap();
    for key in 0..200u64 {
        w.put_retrying(key, &value_for(key), true).unwrap();
    }
    w.delete(42).unwrap();

    // A local-policy ack is sent before its batch reaches the hub; the
    // SYNC barrier is acked after, so `shipped` covers every write above.
    w.sync().unwrap();
    let shipped = w.repl_floor().unwrap().shipped;
    assert!(shipped >= 1, "primary shipped nothing");
    assert!(
        replica.wait_applied(shipped, Duration::from_secs(10)),
        "replica never caught up to ship {shipped}"
    );

    let mut r = Client::connect(replica.addr()).unwrap();
    for key in 0..200u64 {
        let got = r.get(key).unwrap();
        if key == 42 {
            assert_eq!(got, None, "tombstone not applied on replica");
        } else {
            assert_eq!(got.as_deref(), Some(value_for(key).as_slice()));
        }
    }
    let keys = r.scan(0, 512).unwrap();
    assert_eq!(keys.len(), 199);
    assert!(!keys.contains(&42));

    // Writes are refused with a terminal (non-retryable) error.
    match r.put(7, b"nope", true) {
        Err(e) => assert_eq!(e.kind(), ErrorKind::Unsupported, "wrong kind: {e:?}"),
        Ok(out) => panic!("replica accepted a write: {out:?}"),
    }

    // Replica-side floors match what it applied; exported via STATS.
    let floors = r.repl_floor().unwrap();
    assert_eq!(floors.applied, replica.applied());
    assert!(floors.shipped >= floors.applied);
    let prom = parse_prometheus(&r.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert_eq!(
        sample_value(&prom, "chameleon_repl_applied"),
        Some(floors.applied as f64)
    );
    assert_eq!(sample_value(&prom, "chameleon_repl_lag"), Some(0.0));

    // Primary-side: shipped floor exported through its hub section.
    let prom = parse_prometheus(&w.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert!(sample_value(&prom, "chameleon_repl_shipped").unwrap() >= shipped as f64);

    replica.stop().unwrap();
    primary.shutdown().unwrap();
}

/// Tentpole: under `replica-quorum` the durable ack is *withheld* until
/// a replica confirms the fence — a client sees no ack while no replica
/// is subscribed, then the ack arrives as soon as one catches up. The
/// withheld submission also keeps the connection exempt from the idle
/// sweep (ISSUE 10 satellite 2: an un-acked queued write is an
/// obligation, not idleness).
#[test]
fn quorum_ack_withheld_until_replica_confirms_and_conn_not_reaped() {
    let (primary, addr, _store) = start_primary(ServerConfig {
        ack_policy: AckPolicy::ReplicaQuorum { quorum: 1 },
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });

    let mut c = Client::connect(addr).unwrap();
    let id = c.send_put(9000, b"quorum-gated", true).unwrap();
    c.flush().unwrap();

    // No replica subscribed: the ack must be withheld.
    c.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match c.recv_for(id) {
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "expected read timeout while ack withheld, got {e:?}"
        ),
        Ok(resp) => panic!("ack released without a replica: {resp:?}"),
    }

    // Stay read-silent well past the idle timeout: the sweep must spare
    // this connection (inflight submission), and the sweep runs at
    // idle/4, so several sweep periods elapse here.
    thread::sleep(Duration::from_millis(500));

    // A replica subscribing (and backfilling from retention) releases it.
    let replica = start_replica(addr);
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match c.recv_for(id) {
        Ok(kvclient::Response::Ok { .. }) => {}
        other => panic!("expected withheld ack to release, got {other:?}"),
    }

    // The write it acked is on the replica by construction of the ack.
    let mut r = Client::connect(replica.addr()).unwrap();
    assert_eq!(r.get(9000).unwrap().as_deref(), Some(&b"quorum-gated"[..]));

    let mut probe = Client::connect(addr).unwrap();
    let prom = parse_prometheus(&probe.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert_eq!(
        sample_value(&prom, "chameleon_server_idle_disconnects"),
        Some(0.0),
        "idle sweep reaped a connection with a withheld ack"
    );

    replica.stop().unwrap();
    primary.shutdown().unwrap();
}

/// Satellite 4: the same shipped batch stream produces the same image on
/// two independent replicas — identical logical value-log streams
/// (sequence, key, tombstone, bytes) and identical scans.
#[test]
fn same_stream_yields_identical_replica_images() {
    let (primary, addr, _store) = start_primary(ServerConfig::default());
    let ra = start_replica(addr);
    let rb = start_replica(addr);

    let mut w = Client::connect(addr).unwrap();
    for key in 0..300u64 {
        w.put_retrying(key, &value_for(key), true).unwrap();
        if key % 5 == 0 {
            w.put_retrying(key, &value_for(key ^ 0xFF), true).unwrap();
        }
        if key % 7 == 0 {
            w.delete(key).unwrap();
        }
    }

    // As above: without the barrier `shipped` can miss the last batch, and
    // one replica compares a write short of the other.
    w.sync().unwrap();
    let shipped = w.repl_floor().unwrap().shipped;
    for (name, r) in [("a", &ra), ("b", &rb)] {
        assert!(
            r.wait_applied(shipped, Duration::from_secs(10)),
            "replica {name} never caught up"
        );
    }

    let logical_tail = |store: &ChameleonDb| -> Vec<(u64, u64, bool, Vec<u8>)> {
        let mut ctx = ThreadCtx::with_default_cost();
        store
            .log()
            .tail_committed(&mut ctx, 0)
            .expect("tail replica log")
            .into_iter()
            .map(|(m, v)| (m.seq, m.key, m.tombstone, v))
            .collect()
    };
    let ta = logical_tail(ra.store());
    let tb = logical_tail(rb.store());
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "replica value-log streams diverged");

    let mut ctx = ThreadCtx::with_default_cost();
    let sa = ra.store().scan(&mut ctx, 0, 1024).unwrap();
    let sb = rb.store().scan(&mut ctx, 0, 1024).unwrap();
    assert_eq!(sa, sb, "replica scans diverged");

    ra.stop().unwrap();
    rb.stop().unwrap();
    primary.shutdown().unwrap();
}

/// Tentpole: kill the primary mid-stream (hard abort, no drain), promote
/// the replica, and audit the promoted image against the writer's acked
/// prefix — the log-prefix-cut invariant, distributed. Every acked write
/// is present, at most the one in-flight write is optional, nothing past
/// it exists, and the promoted server takes new writes.
#[test]
fn promotion_preserves_acked_prefix_after_primary_crash() {
    let (primary, addr, _store) = start_primary(ServerConfig {
        ack_policy: AckPolicy::ReplicaQuorum { quorum: 1 },
        ..ServerConfig::default()
    });
    let replica = start_replica(addr);

    const BASE: u64 = 1 << 40;
    let acked = Arc::new(AtomicU64::new(0));
    let writer = {
        let acked = Arc::clone(&acked);
        thread::spawn(move || {
            let mut c = match Client::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            for i in 0..100_000u64 {
                match c.put_retrying(BASE | i, &value_for(i), true) {
                    // Only count after the quorum ack: the acked floor is
                    // exactly the prefix the promoted image must contain.
                    Ok(_) => acked.store(i + 1, Ordering::Release),
                    Err(_) => break, // primary died
                }
            }
        })
    };

    // Let some writes through, then crash the primary at whatever fence
    // point it happens to be at — no drain, no final checkpoint.
    while acked.load(Ordering::Acquire) < 20 {
        thread::sleep(Duration::from_millis(1));
    }
    primary.abort();
    writer.join().unwrap();
    let f = acked.load(Ordering::Acquire);

    let promoted = replica.promote("127.0.0.1:0").expect("promote replica");
    let mut c = Client::connect(promoted.server.local_addr()).unwrap();
    for i in 0..f + 16 {
        let got = c.get(BASE | i).unwrap();
        if i < f {
            assert_eq!(
                got.as_deref(),
                Some(value_for(i).as_slice()),
                "acked write {i} (floor {f}) missing after promotion"
            );
        } else if i > f {
            assert_eq!(got, None, "unacked write {i} (floor {f}) materialized");
        }
        // i == f: the one in-flight write may have landed or not.
    }

    // The promoted image takes new writes.
    assert_eq!(
        c.put(BASE | (f + 100), b"post-promotion", true).unwrap(),
        WriteOutcome::Done { existed: true }
    );
    assert_eq!(
        c.get(BASE | (f + 100)).unwrap().as_deref(),
        Some(&b"post-promotion"[..])
    );

    promoted.server.shutdown().unwrap();
}

/// Tentpole: staleness-bounded reads through [`ReplicaReader`]. With
/// bound 0, a read issued after a quorum ack always observes that write;
/// with a dead primary connection the bound check fails fast instead of
/// serving unbounded staleness.
#[test]
fn staleness_bounded_reads_observe_acked_writes() {
    let (primary, addr, _store) = start_primary(ServerConfig {
        ack_policy: AckPolicy::ReplicaQuorum { quorum: 1 },
        ..ServerConfig::default()
    });
    let replica = start_replica(addr);

    let mut w = Client::connect(addr).unwrap();
    let mut reader = ReplicaReader::connect(addr, replica.addr()).unwrap();
    for key in 500..600u64 {
        w.put_retrying(key, &value_for(key), true).unwrap();
        // The ack implies shipped + quorum-applied, so a bound-0 read
        // after it must see the write.
        let got = reader
            .get_within(key, 0, Duration::from_secs(5))
            .expect("bound-0 read");
        assert_eq!(got.as_deref(), Some(value_for(key).as_slice()));
    }
    assert_eq!(reader.lag().unwrap(), 0);

    replica.stop().unwrap();
    primary.shutdown().unwrap();
}

/// Satellite 1: paged scans across the `MAX_SCAN_KEYS` boundary match an
/// embedded full scan — no duplicate at a page cut that lands exactly on
/// the limit, no skip, including when the boundary key is deleted
/// between pages.
#[test]
fn scan_paged_matches_embedded_full_scan() {
    let (dev, store) = new_node();
    // > MAX_SCAN_KEYS live keys with gaps, loaded directly.
    let mut ctx = ThreadCtx::with_default_cost();
    let total = MAX_SCAN_KEYS as u64 + 1900;
    for chunk in (0..total).collect::<Vec<_>>().chunks(512) {
        let ops: Vec<BatchOp> = chunk
            .iter()
            .map(|i| BatchOp::Put {
                key: 10 + i * 3,
                value: value_for(*i),
            })
            .collect();
        store.apply_batch(&mut ctx, &ops).unwrap();
    }
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::new(ServerObs::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();

    let embedded = store.scan(&mut ctx, 0, total as usize + 64).unwrap();
    assert_eq!(embedded.len() as u64, total, "embedded scan sanity");

    // Paged wire scan over the whole range: two full pages + a partial.
    let paged = c.scan_paged(0, total as usize + 64).unwrap();
    assert_eq!(paged, embedded, "paged scan diverged from embedded scan");

    // A limit that lands exactly on a page boundary must return exactly
    // that many keys — the resume key (`last + 1`) neither duplicates
    // the boundary key nor skips its successor.
    let exact = c.scan_paged(0, MAX_SCAN_KEYS).unwrap();
    assert_eq!(exact, embedded[..MAX_SCAN_KEYS]);
    let two_pages = c.scan_paged(0, MAX_SCAN_KEYS + 1).unwrap();
    assert_eq!(two_pages, embedded[..MAX_SCAN_KEYS + 1]);

    // Boundary key deleted between pages: page one ends at `last`; after
    // deleting `last`, resuming from `last + 1` still returns exactly
    // the keys after it — the deleted key is not re-found (it was
    // already returned) and no survivor is skipped.
    let page1 = c.scan(0, MAX_SCAN_KEYS as u32).unwrap();
    let last = *page1.last().unwrap();
    assert_eq!(page1, embedded[..MAX_SCAN_KEYS]);
    c.delete(last).unwrap();
    let page2 = c.scan_paged(last + 1, total as usize).unwrap();
    assert_eq!(page2, embedded[MAX_SCAN_KEYS..]);

    server.shutdown().unwrap();
}

/// Satellite 3: `put_retrying` against a server in staged shutdown fails
/// fast with a terminal error instead of burning the backoff schedule.
/// The policy below would sleep ~2.7s if every attempt were retried;
/// the failing call must return far sooner and never as `TimedOut` (the
/// schedule-exhausted kind).
#[test]
fn put_retrying_fails_fast_on_staged_shutdown() {
    let (primary, addr, _store) = start_primary(ServerConfig::default());
    let mut c = Client::connect(addr).unwrap();
    c.put(1, b"warm", true).unwrap();

    let stopper = thread::spawn(move || {
        thread::sleep(Duration::from_millis(10));
        primary.shutdown().unwrap();
    });

    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(300),
        max_delay: Duration::from_millis(300),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut key = 100u64;
    loop {
        assert!(Instant::now() < deadline, "server never refused a write");
        let t0 = Instant::now();
        match c.put_retrying_with(key, b"racing-shutdown", true, &policy) {
            Ok(_) => key += 1, // still accepting; keep writing into the stop
            Err(e) => {
                let took = t0.elapsed();
                assert_ne!(
                    e.kind(),
                    ErrorKind::TimedOut,
                    "burned the whole backoff schedule against a dead server: {e:?}"
                );
                assert!(
                    took < Duration::from_secs(2),
                    "terminal error took {took:?} — backoff burned before failing"
                );
                break;
            }
        }
    }
    stopper.join().unwrap();
}
