//! End-to-end tests of the kvserver service layer over real TCP
//! loopback: protocol round-trips, group-commit durability under an
//! injected device crash (also one inside a commit leader), the
//! natural-batching commit policy (bursts share a fence, a lone put waits
//! for nobody, SYNC is a barrier over every connection), STATS export,
//! backpressure, and graceful shutdown.

use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use chameleon_obs::export::{parse_prometheus, sample_value};
use chameleon_obs::{ObsConfig, ServerObs};
use chameleondb::{BatchOp, ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvclient::{Client, ModeArg, RetryPolicy, StatsFormat, WriteOutcome};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{CrashPoint, PmemDevice, ThreadCtx};

fn test_store_config() -> ChameleonConfig {
    // Large MemTables so short tests trigger no flush/compaction: the
    // crash tests depend on the log being the only post-crash writer.
    ChameleonConfig {
        memtable_slots: 4096,
        obs: ObsConfig::on(),
        ..ChameleonConfig::tiny()
    }
}

fn start_server(
    dev: &Arc<PmemDevice>,
    store: &Arc<ChameleonDb>,
    cfg: ServerConfig,
) -> (KvServer, std::net::SocketAddr) {
    let (server, addr, _obs) = start_server_obs(dev, store, cfg);
    (server, addr)
}

/// Like [`start_server`], also handing back the server's batch counters.
fn start_server_obs(
    dev: &Arc<PmemDevice>,
    store: &Arc<ChameleonDb>,
    cfg: ServerConfig,
) -> (KvServer, std::net::SocketAddr, Arc<ServerObs>) {
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(dev),
        Arc::clone(store),
        Arc::clone(&obs),
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr, obs)
}

fn value_for(key: u64) -> Vec<u8> {
    format!("value-{key:016x}").into_bytes()
}

#[test]
fn wire_round_trip_put_get_delete_sync_mode() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..64u64 {
        assert_eq!(
            c.put(key, &value_for(key), key % 2 == 0).unwrap(),
            WriteOutcome::Done { existed: true }
        );
    }
    c.sync().unwrap();
    for key in 0..64u64 {
        assert_eq!(c.get(key).unwrap().as_deref(), Some(&value_for(key)[..]));
    }
    assert_eq!(c.get(1 << 40).unwrap(), None);
    assert_eq!(c.delete(7).unwrap(), WriteOutcome::Done { existed: true });
    assert_eq!(c.delete(7).unwrap(), WriteOutcome::Done { existed: false });
    assert_eq!(c.get(7).unwrap(), None);

    assert!(!c.mode(ModeArg::Query).unwrap());
    assert!(c.mode(ModeArg::WriteIntensive).unwrap());
    assert!(!c.mode(ModeArg::Normal).unwrap());

    server.shutdown().unwrap();
}

#[test]
fn pipelined_requests_on_one_connection_all_complete() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    let ids: Vec<u64> = (0..256u64)
        .map(|key| c.send_put(key, &value_for(key), true).unwrap())
        .collect();
    for id in ids {
        match c.recv_for(id).unwrap() {
            kvclient::Response::Ok { .. } | kvclient::Response::Retry { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown().unwrap();
}

/// The client flushes its write buffer only before a read that could
/// block. With eight requests in flight over 10 k mixed puts and gets,
/// a request left unflushed would stall the window; the read timeout
/// turns that stall into a failure instead of a hang. Every answer is
/// checked against what the sliding window has already seen acked.
#[test]
fn client_pipelining_eight_in_flight_flushes_before_blocking() {
    const OPS: u64 = 10_000;
    const WINDOW: usize = 8;
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Op 2j puts key j; op 2j+1 gets key j-4, whose put (op 2j-8) left
    // the window before this get was sent, so it must be visible.
    // The first four gets read keys nobody writes.
    let mut window = std::collections::VecDeque::with_capacity(WINDOW);
    for op in 0..OPS {
        if window.len() == WINDOW {
            let (id, want): (u64, Option<Option<Vec<u8>>>) = window.pop_front().unwrap();
            check_answer(c.recv_for(id).unwrap(), want);
        }
        let j = op / 2;
        if op % 2 == 0 {
            window.push_back((c.send_put(j, &value_for(j), true).unwrap(), None));
        } else {
            let (key, want) = match j.checked_sub(4) {
                Some(k) => (k, Some(value_for(k))),
                None => (u64::MAX - j, None),
            };
            window.push_back((
                c.send(kvclient::Request::Get { req_id: 0, key }).unwrap(),
                Some(want),
            ));
        }
    }
    for (id, want) in window {
        check_answer(c.recv_for(id).unwrap(), want);
    }
    server.shutdown().unwrap();
}

/// `want` is `None` for a put (expects OK) or `Some(value)` for a get.
fn check_answer(resp: kvclient::Response, want: Option<Option<Vec<u8>>>) {
    match (resp, want) {
        (kvclient::Response::Ok { .. }, None) => {}
        (kvclient::Response::Value { value, .. }, Some(Some(v))) => assert_eq!(value, v),
        (kvclient::Response::NotFound { .. }, Some(None)) => {}
        (other, want) => panic!("answer {other:?} does not match {want:?}"),
    }
}

/// `recv_for` stashes replies that are already sitting in the read
/// buffer, and a request sent while they are buffered still reaches the
/// server before the client blocks on its answer. A blocking `put` after
/// abandoned request ids skips their replies and still gets its own. The
/// "server" is a bare socket that answers the first eight gets in one
/// write, so the client's first read buffers all eight replies.
#[test]
fn recv_for_stashes_buffered_replies_and_still_flushes() {
    use kvserver::proto::{
        decode_request, encode_response, read_frame, write_frame, Request, Response,
    };

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let scripted = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let answer = |payload: Vec<u8>| match decode_request(&payload).unwrap() {
            Request::Get { req_id, key } => Response::Value {
                req_id,
                value: value_for(key),
            },
            Request::Put { req_id, .. } => Response::Ok { req_id },
            other => panic!("unexpected request {other:?}"),
        };
        let mut burst = Vec::new();
        for _ in 0..8 {
            let payload = read_frame(&mut reader).unwrap().unwrap();
            write_frame(&mut burst, &encode_response(&answer(payload))).unwrap();
        }
        std::io::Write::write_all(&mut writer, &burst).unwrap();
        let mut answered = 8;
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            write_frame(&mut writer, &encode_response(&answer(payload))).unwrap();
            answered += 1;
        }
        answered
    });

    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let get = |c: &mut Client, key| c.send(kvclient::Request::Get { req_id: 0, key }).unwrap();
    let ids: Vec<u64> = (0..8u64).map(|key| get(&mut c, key)).collect();
    check_answer(c.recv_for(ids[0]).unwrap(), Some(Some(value_for(0))));
    // The put sits in the write buffer while seven replies are buffered:
    // recv_for stashes them without a flush, then must flush before the
    // read that waits for the put's ack.
    let put_id = c.send_put(100, &value_for(100), true).unwrap();
    check_answer(c.recv_for(put_id).unwrap(), None);
    for (key, id) in ids.iter().enumerate().skip(1) {
        check_answer(c.recv_for(*id).unwrap(), Some(Some(value_for(key as u64))));
    }

    // Abandoned ids: their replies are stashed and never claimed.
    for key in 0..5u64 {
        get(&mut c, key);
    }
    assert_eq!(
        c.put(101, &value_for(101), true).unwrap(),
        WriteOutcome::Done { existed: true }
    );
    assert_eq!(c.get(101).unwrap(), Some(value_for(101)));
    drop(c);
    assert_eq!(scripted.join().unwrap(), 16, "every request answered once");
}

/// Satellite: N concurrent clients issue durable puts; after an
/// arbitrary ack the device crashes. Every write acked before the crash
/// snapshot must survive recovery.
#[test]
fn every_acked_durable_write_survives_crash() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            max_batch: 16,
            ..ServerConfig::default()
        },
    );

    // Keyed by client id so writers never collide.
    let acked: Arc<Mutex<HashMap<u64, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8u64)
        .map(|cid| {
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut n = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let key = (cid << 32) | n;
                    let val = value_for(key);
                    match c.put(key, &val, true) {
                        Ok(WriteOutcome::Done { .. }) => {
                            // The ack is in hand; the crash snapshot
                            // below must include this key.
                            acked.lock().unwrap().insert(key, val);
                            n += 1;
                        }
                        Ok(WriteOutcome::Retry) => thread::yield_now(),
                        // Socket torn down by the crash/abort below.
                        Err(_) => break,
                    }
                }
            })
        })
        .collect();

    // Let traffic build, then crash while holding the ack map: anything
    // recorded is acked, hence fenced, hence must survive.
    thread::sleep(Duration::from_millis(300));
    let survivors: HashMap<u64, Vec<u8>> = {
        let guard = acked.lock().unwrap();
        dev.crash();
        guard.clone()
    };
    stop.store(true, Ordering::SeqCst);
    server.abort();
    for h in clients {
        h.join().unwrap();
    }
    assert!(
        survivors.len() >= 32,
        "want meaningful traffic before the crash, got {} acks",
        survivors.len()
    );

    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for (key, val) in &survivors {
        assert!(
            recovered.get(&mut ctx, *key, &mut out).unwrap(),
            "acked key {key:#x} lost by crash"
        );
        assert_eq!(&out, val, "acked key {key:#x} has wrong value");
    }
}

/// Commit policy, burst half: writes that arrive together commit
/// together. One connection pipelines 64 durable puts in a single
/// socket write; they all land in the one commit queue, so the worker
/// that leads the commit finds them together and the burst shares
/// fences — with no timer telling it to wait.
#[test]
fn pipelined_burst_shares_commit_fences() {
    const PUTS: u64 = 64;
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr, obs) = start_server_obs(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    let ids: Vec<u64> = (0..PUTS)
        .map(|k| c.send_put(k, &value_for(k), true).unwrap())
        .collect();
    c.flush().unwrap();
    for id in ids {
        assert!(matches!(
            c.recv_for(id).unwrap(),
            kvclient::Response::Ok { .. }
        ));
    }
    let batches = obs.batches.load(Ordering::Relaxed);
    let batched = obs.batched_ops.load(Ordering::Relaxed);
    let fences = obs.commit_fences.load(Ordering::Relaxed);
    assert_eq!(batched, PUTS, "every put of the burst was committed");
    assert!(batches >= 1);
    assert!(
        batches < PUTS,
        "a pipelined burst must batch (mean batch > 1), got {batches} batches"
    );
    assert!(
        fences < PUTS,
        "a pipelined burst must share fences, got {fences} for {PUTS} puts"
    );
    server.shutdown().unwrap();
}

/// Commit policy, lone half: a put with nothing behind it commits at
/// once. A window-1 client never has two writes in flight, so every
/// batch is a batch of one — nothing is held back to wait for company
/// that is not coming.
#[test]
fn lone_put_commits_without_waiting_for_company() {
    const PUTS: u64 = 100;
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr, obs) = start_server_obs(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for k in 0..PUTS {
        assert_eq!(
            c.put(k, &value_for(k), true).unwrap(),
            WriteOutcome::Done { existed: true }
        );
    }
    assert_eq!(obs.batches.load(Ordering::Relaxed), PUTS);
    assert_eq!(obs.batched_ops.load(Ordering::Relaxed), PUTS);
    server.shutdown().unwrap();
}

/// SYNC is one barrier entry in the one queue: its ack follows the
/// commit of everything submitted before it, from any connection. On its
/// own connection that is visible on the wire (every earlier durable
/// put's ack precedes the SYNC's). For another connection's writes it is
/// visible as durability: those are sent non-durable, so their ack at
/// enqueue proves only that they were *submitted* — and once the SYNC is
/// acked, a device crash must lose none of them.
#[test]
fn sync_is_a_barrier_across_connections() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    // Connection A: submitted (early-acked), not known to be committed.
    let mut a = Client::connect(addr).unwrap();
    let a_ids: Vec<(u64, u64)> = (0..512u64)
        .map(|k| (k, a.send_put(k, &value_for(k), false).unwrap()))
        .collect();
    a.flush().unwrap();
    let mut submitted = Vec::new();
    for (key, id) in a_ids {
        match a.recv_for(id).unwrap() {
            kvclient::Response::Ok { .. } => submitted.push(key),
            kvclient::Response::Retry { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(submitted.len() >= 64, "queue accepted too little to test");

    // Connection B: durable puts, then SYNC, pipelined in one write.
    let mut b = Client::connect(addr).unwrap();
    let b_keys: Vec<u64> = (1000..1032u64).collect();
    let b_ids: Vec<u64> = b_keys
        .iter()
        .map(|&k| b.send_put(k, &value_for(k), true).unwrap())
        .collect();
    let sync_id = b.send(kvclient::Request::Sync { req_id: 0 }).unwrap();
    b.flush().unwrap();
    // Responses in wire order: the SYNC's must be the last of the 33.
    let mut unacked: HashSet<u64> = b_ids.into_iter().collect();
    loop {
        match b.recv_any().unwrap() {
            kvclient::Response::Ok { req_id } if req_id == sync_id => break,
            kvclient::Response::Ok { req_id } => assert!(unacked.remove(&req_id)),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        unacked.is_empty(),
        "SYNC acked ahead of {} durable puts submitted before it",
        unacked.len()
    );
    // The SYNC is acked: everything submitted before it is fenced.
    dev.crash();
    server.abort();
    drop(store);

    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for key in submitted.into_iter().chain(b_keys) {
        assert!(
            recovered.get(&mut ctx, key, &mut out).unwrap(),
            "key {key} was submitted before an acked SYNC and is gone"
        );
        assert_eq!(out, value_for(key));
    }
}

/// In-process half of the regression: a crash injected at the commit
/// fence unwinds `apply_batch` before it returns, so the server's
/// post-return ack path is structurally unreachable, and recovery sees a
/// consistent prefix.
#[test]
fn crash_at_commit_fence_withholds_acks_and_recovers_prefix() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut ctx = ThreadCtx::with_default_cost();

    // A durably committed prefix the crash must not touch.
    let prefix: Vec<BatchOp> = (0..8u64)
        .map(|k| BatchOp::Put {
            key: k,
            value: value_for(k),
        })
        .collect();
    store.apply_batch(&mut ctx, &prefix).unwrap();

    // Crash at the very next fence: the doomed batch's tail fence.
    dev.arm_crash_at_fence(dev.fence_count() + 1);
    let doomed: Vec<BatchOp> = (100..108u64)
        .map(|k| BatchOp::Put {
            key: k,
            value: value_for(k),
        })
        .collect();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        store.apply_batch(&mut ctx, &doomed).unwrap();
    }));
    let crash = unwound.expect_err("apply_batch must unwind at the armed fence");
    assert!(
        crash.downcast_ref::<CrashPoint>().is_some(),
        "unwind payload must be the injected CrashPoint"
    );
    dev.disarm_crash();

    drop(store);
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for k in 0..8u64 {
        assert!(
            recovered.get(&mut ctx, k, &mut out).unwrap(),
            "fenced prefix key {k} lost"
        );
        assert_eq!(out, value_for(k));
    }
    // The armed crash fires after its fence completes, so the doomed
    // batch is durable-but-unacked — the legal recovery window (a store
    // may keep more than it acked, never less, and never garbage).
    for k in 100..108u64 {
        if recovered.get(&mut ctx, k, &mut out).unwrap() {
            assert_eq!(out, value_for(k), "doomed key {k} recovered torn");
        }
    }
}

/// What one connection of the server-level crash test saw, per key.
#[derive(Default)]
struct PutLog {
    acked: Vec<u64>,
    /// Sent, then no answer within the read timeout.
    unanswered: Vec<u64>,
    /// Answered `Err`.
    refused: Vec<u64>,
    /// The server closed the connection (its worker died).
    closed: bool,
}

/// Server half of the regression: a crash injected at the next fence,
/// while two connections stream durable puts, unwinds inside whichever
/// I/O worker is leading the commit. No put of the doomed batch is acked,
/// the commit stage stays dead (every later write is answered `Err` and
/// none reaches the device), new connections skip the dead worker and
/// are served reads, shutdown names the panicked worker, and recovery
/// returns every acked key.
#[test]
fn crash_in_a_commit_leader_fails_later_writes_and_keeps_acked_ones() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let acks = Arc::new(AtomicUsize::new(0));
    // Connection ids 0 and 1: one connection on each of two workers.
    let clients: Vec<_> = (0..2u64)
        .map(|cid| {
            let acks = Arc::clone(&acks);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // A put whose batch died is never answered; the timeout
                // records it instead of hanging the test.
                c.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let mut log = PutLog::default();
                // Bounded, so a commit stage that outlived the crash fails
                // the refusal assertions below instead of looping forever.
                for n in 0..20_000 {
                    let key = (cid << 32) | n;
                    match c.put(key, &value_for(key), true) {
                        Ok(WriteOutcome::Done { .. }) => {
                            log.acked.push(key);
                            acks.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(WriteOutcome::Retry) => thread::yield_now(),
                        Err(e) if e.kind() == ErrorKind::Other => {
                            log.refused.push(key);
                            if log.refused.len() == 8 {
                                break;
                            }
                        }
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            log.unanswered.push(key)
                        }
                        Err(_) => {
                            log.closed = true;
                            break;
                        }
                    }
                }
                log
            })
        })
        .collect();

    while acks.load(Ordering::SeqCst) < 64 {
        thread::sleep(Duration::from_millis(1));
    }
    dev.arm_crash_at_fence(dev.fence_count() + 1);
    let logs: Vec<PutLog> = clients.into_iter().map(|h| h.join().unwrap()).collect();

    // One new connection per worker slot: the acceptor skips the dead
    // worker, so every one of them still answers a read.
    let acked = logs.iter().find_map(|l| l.acked.first()).copied().unwrap();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let got = c
            .get(acked)
            .expect("a connection after the crash went unserved");
        assert_eq!(got, Some(value_for(acked)));
    }

    let err = server.shutdown().expect_err("a commit leader panicked");
    assert!(
        err.contains("io worker"),
        "shutdown must name the worker: {err}"
    );
    assert!(
        logs.iter().filter(|l| l.closed).count() <= 1,
        "only the leader's worker dies"
    );
    for log in logs.iter().filter(|l| !l.closed) {
        // A live connection's worker delivers every ack that exists, so
        // its puts read: acked, then at most its one put of the doomed
        // batch (unanswered), then refusals — never an ack after that.
        assert_eq!(log.refused.len(), 8, "later writes must be refused");
        assert!(log.unanswered.len() <= 1, "{:?}", log.unanswered);
        let after_acks = |k: &u64| log.acked.last().is_none_or(|a| k > a);
        assert!(log.unanswered.iter().all(after_acks));
        assert!(log.refused.iter().all(after_acks));
    }

    // Power fails too: whatever was not fenced is gone.
    dev.crash();
    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for log in &logs {
        for &key in &log.acked {
            assert!(
                recovered.get(&mut ctx, key, &mut out).unwrap(),
                "acked key {key:#x} lost by crash"
            );
            assert_eq!(out, value_for(key), "acked key {key:#x} has wrong value");
        }
        for &key in &log.refused {
            assert!(
                !recovered.get(&mut ctx, key, &mut out).unwrap(),
                "refused key {key:#x} was committed"
            );
        }
    }
}

/// Satellite: PR-3's degraded-read counters and the new server batch
/// stats are visible through the STATS command in both formats.
#[test]
fn stats_command_exports_store_and_server_sections() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..32u64 {
        c.put(key, &value_for(key), true).unwrap();
        assert!(c.get(key).unwrap().is_some());
    }

    let prom = c.stats(StatsFormat::Prometheus).unwrap();
    for metric in [
        "chameleon_store_degraded_gets",
        "chameleon_store_view_publishes",
        "chameleon_server_batches",
        "chameleon_server_acks",
        "chameleon_server_commit_fences",
        "chameleon_server_batch_size_p99",
        "chameleon_server_queue_depth_p99",
        "chameleon_server_acks_per_fence_milli",
    ] {
        assert!(prom.contains(metric), "prometheus text missing {metric}");
    }

    let json = c.stats(StatsFormat::Json).unwrap();
    for key in ["\"server\"", "\"batches\"", "\"degraded_gets\""] {
        assert!(json.contains(key), "json snapshot missing {key}");
    }
    // The 32 durable puts above were all acked, hence all batched.
    let samples = parse_prometheus(&prom).expect("valid Prometheus exposition");
    let batched = sample_value(&samples, "chameleon_server_batched_ops").expect("batched_ops");
    assert!(batched >= 32.0, "expected >= 32 batched ops, got {batched}");

    server.shutdown().unwrap();
}

/// A full commit queue answers RETRY instead of blocking or dropping, and every
/// accepted write is still acked exactly once.
#[test]
fn full_lane_backpressure_yields_retry_not_loss() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            queue_cap: 1,
            max_batch: 1,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let big = vec![0xA5u8; 16 << 10];
    let total = 300u64;
    let ids: Vec<u64> = (0..total)
        .map(|k| c.send_put(k, &big, true).unwrap())
        .collect();
    let (mut ok, mut retry) = (0u64, 0u64);
    let mut accepted = Vec::new();
    for (k, id) in ids.into_iter().enumerate() {
        match c.recv_for(id).unwrap() {
            kvclient::Response::Ok { .. } => {
                ok += 1;
                accepted.push(k as u64);
            }
            kvclient::Response::Retry { .. } => retry += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + retry, total);
    assert!(ok > 0, "some writes must get through");
    // Every accepted (acked) write is durable and readable.
    for k in accepted {
        assert!(c.get(k).unwrap().is_some(), "acked key {k} unreadable");
    }
    server.shutdown().unwrap();
}

/// Graceful shutdown drains accepted work and checkpoints: even
/// non-durable (early-acked) writes survive a clean restart.
#[test]
fn graceful_shutdown_drains_queues_and_checkpoints() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..128u64 {
        // Non-durable: acked at enqueue, still in the commit queue or
        // an open batch when shutdown starts.
        assert!(matches!(
            c.put(key, &value_for(key), false).unwrap(),
            WriteOutcome::Done { .. }
        ));
    }
    drop(c);
    server.shutdown().unwrap();
    drop(store);

    // A clean shutdown implies no work lost: recover and read it all.
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for key in 0..128u64 {
        assert!(
            recovered.get(&mut ctx, key, &mut out).unwrap(),
            "drained write {key} lost by graceful shutdown"
        );
        assert_eq!(out, value_for(key));
    }
}

/// A commit queue that never drains must not hang the client forever:
/// `put_retrying` is bounded and surfaces `TimedOut` once its attempt
/// budget is spent. The "server" here is a bare socket that answers
/// RETRY to the first seven puts and only then accepts, so the test
/// also pins the retry count the client reports on eventual success.
#[test]
fn put_retrying_times_out_against_a_wedged_lane() {
    use kvserver::proto::{
        decode_request, encode_response, read_frame, write_frame, Request, Response,
    };

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let wedged = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        let mut puts_seen = 0u64;
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let req_id = match decode_request(&payload).unwrap() {
                Request::Put { req_id, .. } => req_id,
                other => panic!("wedged lane got non-put request {other:?}"),
            };
            puts_seen += 1;
            let resp = if puts_seen <= 7 {
                Response::Retry { req_id }
            } else {
                Response::Ok { req_id }
            };
            write_frame(&mut writer, &encode_response(&resp)).unwrap();
            std::io::Write::flush(&mut writer).unwrap();
        }
        puts_seen
    });

    let mut c = Client::connect(addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
    };

    // Puts 1..=5: all RETRY — the bounded policy must give up.
    let err = c
        .put_retrying_with(9, b"wedged", true, &policy)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);

    // Puts 6..=8: RETRY, RETRY, OK — succeeds and reports two retries.
    let retries = c.put_retrying_with(9, b"wedged", true, &policy).unwrap();
    assert_eq!(retries, 2);

    drop(c);
    assert_eq!(wedged.join().unwrap(), 8, "client sent an unexpected put");
}
