//! End-to-end tests of the reactor I/O model over real TCP loopback:
//! torn frames reassembled on the wire, connection scaling far past the
//! thread count, acked-durability under an injected crash at 1k
//! connections, slow-consumer shedding with bounded memory, lossless
//! RETRY backpressure, near-zero idle wakeups, coalesced wakeups that
//! lose none, idle-peer reaping, and graceful shutdown draining in-flight
//! work (also while commits led by another worker are under way).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use chameleon_obs::export::{parse_prometheus, sample_value};
use chameleon_obs::{ObsConfig, ServerObs};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvclient::{Client, RetryPolicy, StatsFormat, WriteOutcome};
use kvserver::proto::{decode_response, encode_request, Request, Response};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{PmemDevice, ThreadCtx};

fn test_store_config() -> ChameleonConfig {
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
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(dev),
        Arc::clone(store),
        Arc::new(ServerObs::new()),
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

fn value_for(key: u64) -> Vec<u8> {
    format!("value-{key:016x}").into_bytes()
}

fn frame_of_request(req: &Request) -> Vec<u8> {
    let payload = encode_request(req);
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Reads exactly one length-prefixed response off a raw stream.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("response payload");
    decode_response(&payload).expect("valid response")
}

/// Tentpole: requests torn into single bytes (and bundled many-per-write)
/// on the real wire are reassembled by the reactor exactly as the framing
/// property tests promise.
#[test]
fn torn_and_bundled_frames_over_real_tcp() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Byte-by-byte: the cruelest tearing TCP can produce.
    let put = frame_of_request(&Request::Put {
        req_id: 1,
        key: 7,
        value: b"torn".to_vec(),
        durable: true,
        traced: false,
    });
    for b in &put {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
    match read_response(&mut stream) {
        Response::Ok { req_id: 1 } => {}
        other => panic!("torn put got {other:?}"),
    }

    // A torn boundary inside the length prefix of frame two, with frame
    // one bundled in front of it.
    let get_a = frame_of_request(&Request::Get { req_id: 2, key: 7 });
    let get_b = frame_of_request(&Request::Get { req_id: 3, key: 7 });
    let mut wire = get_a;
    wire.extend_from_slice(&get_b);
    let cut = wire.len() - get_b.len() + 2; // mid-prefix of frame two
    stream.write_all(&wire[..cut]).unwrap();
    stream.flush().unwrap();
    thread::sleep(Duration::from_millis(20));
    stream.write_all(&wire[cut..]).unwrap();
    stream.flush().unwrap();
    for want_id in [2u64, 3] {
        match read_response(&mut stream) {
            Response::Value { req_id, value } => {
                assert_eq!(req_id, want_id);
                assert_eq!(value, b"torn");
            }
            other => panic!("get {want_id} got {other:?}"),
        }
    }
    server.shutdown().unwrap();
}

/// A garbage frame (undecodable opcode) is fatal for the connection,
/// but the ERR reply must reach the wire before the close — the client
/// sees ERR then EOF, never a bare EOF. Regression: the reactor once
/// doomed the connection and discarded the queued ERR unflushed.
#[test]
fn garbage_frame_gets_err_then_eof() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&3u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xff, 0xff, 0xff]).unwrap();
    stream.flush().unwrap();

    match read_response(&mut stream) {
        Response::Err { req_id: 0, .. } => {}
        other => panic!("garbage frame got {other:?}, want Err"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean EOF after ERR");
    assert!(rest.is_empty(), "unexpected bytes after ERR: {rest:?}");
    server.shutdown().unwrap();
}

/// Tentpole acceptance: 1k concurrent connections served by a fixed
/// thread pool (≤ 16 service threads), every connection completing
/// durable work, and every ack surviving an injected crash.
#[test]
fn thousand_connections_acked_writes_survive_crash() {
    let dev = PmemDevice::optane(512 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            max_batch: 64,
            ..ServerConfig::default()
        },
    );
    assert!(
        server.thread_count() <= 16,
        "reactor must serve 1k conns from a fixed pool, got {} threads",
        server.thread_count()
    );

    const THREADS: u64 = 8;
    const CONNS_PER_THREAD: u64 = 125; // 1000 total
    let acked: Arc<Mutex<HashMap<u64, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    let crashed = Arc::new(AtomicBool::new(false));
    let drivers: Vec<_> = (0..THREADS)
        .map(|t| {
            let acked = Arc::clone(&acked);
            let crashed = Arc::clone(&crashed);
            thread::spawn(move || {
                // Open all this thread's connections first so the full
                // 1k are concurrently established, then do durable work
                // on every one of them.
                let mut clients = Vec::new();
                for _ in 0..CONNS_PER_THREAD {
                    // A 1000-way connect burst can still outrun even the
                    // widened backlog on one core; a refused SYN is the
                    // client's problem to retry.
                    let c = (0..50)
                        .find_map(|_| match Client::connect(addr) {
                            Ok(c) => Some(c),
                            Err(_) => {
                                thread::sleep(Duration::from_millis(20));
                                None
                            }
                        })
                        .expect("connect kept failing after retries");
                    clients.push(c);
                }
                let mut round = 0u64;
                'outer: loop {
                    for (i, c) in clients.iter_mut().enumerate() {
                        if crashed.load(Ordering::SeqCst) {
                            break 'outer;
                        }
                        let key = (t << 40) | ((i as u64) << 20) | round;
                        let val = value_for(key);
                        match c.put(key, &val, true) {
                            Ok(WriteOutcome::Done { .. }) => {
                                acked.lock().unwrap().insert(key, val);
                            }
                            Ok(WriteOutcome::Retry) => thread::yield_now(),
                            Err(_) => break 'outer, // crash tore the socket
                        }
                    }
                    round += 1;
                }
            })
        })
        .collect();

    // Wait until every connection has at least one ack in flight-history,
    // then crash while holding the ack map.
    let t0 = Instant::now();
    loop {
        let n = acked.lock().unwrap().len();
        if n >= 1000 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "only {n} acks after 120s"
        );
        thread::sleep(Duration::from_millis(50));
    }
    let survivors: HashMap<u64, Vec<u8>> = {
        let guard = acked.lock().unwrap();
        dev.crash();
        guard.clone()
    };
    crashed.store(true, Ordering::SeqCst);
    server.abort();
    for h in drivers {
        h.join().unwrap();
    }
    assert!(survivors.len() >= 1000);

    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for (key, val) in &survivors {
        assert!(
            recovered.get(&mut ctx, *key, &mut out).unwrap(),
            "acked key {key:#x} lost by crash under 1k connections"
        );
        assert_eq!(&out, val, "acked key {key:#x} recovered torn");
    }
}

/// Satellite regression (unbounded response queue): a client that sends
/// pipelined requests but never reads must be disconnected once its
/// unsent responses hit the configured byte cap — instead of queueing
/// server memory without bound — and the shed must be observable.
#[test]
fn wedged_client_is_shed_with_bounded_memory() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let cap: usize = 32 << 10;
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            resp_queue_cap: cap,
            ..ServerConfig::default()
        },
    );

    // A fat value so a handful of unread GET responses overflow the cap.
    let fat = vec![0xABu8; 8 << 10];
    let mut setup = Client::connect(addr).unwrap();
    setup.put(1, &fat, true).unwrap();

    // The wedge: pipeline GETs for the fat value and never read. The
    // kernel's receive window fills, the server's per-connection queue
    // hits the cap, and the connection must be shed.
    let mut wedged = TcpStream::connect(addr).unwrap();
    wedged.set_nodelay(true).unwrap();
    let mut req_id = 1u64;
    let mut shed = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let frame = frame_of_request(&Request::Get { req_id, key: 1 });
        req_id += 1;
        if wedged.write_all(&frame).is_err() {
            shed = true; // server reset the socket mid-write
            break;
        }
        if req_id.is_multiple_of(64) {
            thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(shed, "wedged connection was never disconnected");

    // The shed is counted, and no connection holds more than the cap in
    // queued response bytes.
    let prom = parse_prometheus(&setup.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert!(
        sample_value(&prom, "chameleon_server_slow_consumer_disconnects").unwrap() >= 1.0,
        "slow-consumer shed not counted"
    );
    let queued = sample_value(&prom, "chameleon_reactor_queued_bytes").unwrap();
    assert!(
        queued <= cap as f64,
        "queued_bytes {queued} exceeds per-conn cap {cap} with one live conn"
    );

    // A healthy client is unaffected.
    assert_eq!(setup.get(1).unwrap().as_deref(), Some(&fat[..]));
    server.shutdown().unwrap();
}

/// Satellite: commit-queue backpressure under the reactor is lossless — every
/// RETRY-ed durable put eventually lands, and nothing is dropped.
#[test]
fn backpressure_retry_is_lossless_under_reactor() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            queue_cap: 8,
            max_batch: 4,
            ..ServerConfig::default()
        },
    );

    let retries = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let retries = Arc::clone(&retries);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let policy = RetryPolicy::default();
                for n in 0..128u64 {
                    let key = (t << 32) | n;
                    let got_retry = c
                        .put_retrying_with(key, &value_for(key), true, &policy)
                        .expect("retried put must land");
                    retries.fetch_add(got_retry, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }

    // Every write landed regardless of how many RETRYs the tiny
    // queue produced.
    let mut c = Client::connect(addr).unwrap();
    for t in 0..4u64 {
        for n in 0..128u64 {
            let key = (t << 32) | n;
            assert_eq!(
                c.get(key).unwrap().as_deref(),
                Some(&value_for(key)[..]),
                "key {key:#x} lost under backpressure"
            );
        }
    }
    server.shutdown().unwrap();
}

/// Coalesced wakeups lose none. Four connections, one per worker, keep
/// eight durable puts and gets each in flight through `max_batch: 1`
/// commits, so a worker keeps going to sleep while other workers' commits
/// post its acks. A lost wakeup strands a reply, and the client's read
/// timeout turns that into a failure instead of a hang. The wake pipe is
/// written far less often than once per request.
#[test]
fn coalesced_wakeups_lose_none_under_cross_worker_acks() {
    const CONNS: u64 = 4;
    const REQS: u64 = 20_000;
    const WINDOW: u64 = 8;
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            max_batch: 1,
            window_cap: 0,
            // No idle sweep, so `poll` never times out: a lost wakeup
            // stays lost rather than healing at the next tick.
            idle_timeout: None,
            ..ServerConfig::default()
        },
    );

    // Connection ids 0..4: one connection per worker.
    let clients: Vec<_> = (0..CONNS)
        .map(|cid| {
            let mut c = Client::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            thread::spawn(move || {
                // req id → (key, the value a GET must return).
                let mut inflight: HashMap<u64, (u64, Option<Vec<u8>>)> = HashMap::new();
                let mut last_acked: Option<u64> = None;
                let mut sent = 0u64;
                while sent < REQS || !inflight.is_empty() {
                    // Bursts of WINDOW, each answered in full before the
                    // next: nothing later arrives to wake a worker that
                    // slept through the post of a burst's last reply.
                    while sent < REQS && (inflight.is_empty() || !sent.is_multiple_of(WINDOW)) {
                        if sent.is_multiple_of(2) {
                            let key = (cid << 32) | (sent / 2);
                            let id = c.send_put(key, &value_for(key), true).unwrap();
                            inflight.insert(id, (key, None));
                        } else {
                            // The newest acked key, or one never written.
                            let key = last_acked.unwrap_or(u64::MAX - cid);
                            let id = c.send(Request::Get { req_id: 0, key }).unwrap();
                            inflight.insert(id, (key, last_acked.map(value_for)));
                        }
                        sent += 1;
                    }
                    let resp = c
                        .recv_any()
                        .unwrap_or_else(|e| panic!("conn {cid}: reply lost ({e})"));
                    let (key, want) = inflight
                        .remove(&resp.req_id())
                        .expect("answer to a request in flight");
                    match resp {
                        Response::Ok { .. } => {
                            last_acked = Some(last_acked.map_or(key, |k| k.max(key)));
                        }
                        Response::Value { value, .. } => {
                            assert_eq!(Some(value), want, "conn {cid}: stale get {key:#x}")
                        }
                        Response::NotFound { .. } => {
                            assert_eq!(want, None, "conn {cid}: acked {key:#x} not found")
                        }
                        other => panic!("conn {cid}: unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }

    let mut control = Client::connect(addr).unwrap();
    let prom = parse_prometheus(&control.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    let wakeups = sample_value(&prom, "chameleon_reactor_wakeups").unwrap() as u64;
    let requests = CONNS * REQS;
    assert!(
        wakeups < requests / 2,
        "{wakeups} wake-pipe writes for {requests} requests: wakeups not coalesced"
    );
    server.shutdown().unwrap();
}

/// Satellite regression (busy-poll removal): an idle reactor barely
/// wakes. With one silent connection parked for half a second, each
/// worker's poll loop should tick a handful of times (timeout-driven),
/// not hundreds (sleep-loop driven).
#[test]
fn idle_reactor_polls_near_zero() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            // Sampler off so only I/O activity moves the counters.
            window_cap: 0,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let mut polls = || {
        let prom = parse_prometheus(&c.stats(StatsFormat::Prometheus).unwrap()).unwrap();
        sample_value(&prom, "chameleon_reactor_polls").unwrap() as u64
    };
    let before = polls();
    thread::sleep(Duration::from_millis(500));
    let after = polls();
    // 4 workers × 500ms at the clamped 1s idle-poll timeout is ~4
    // timeout ticks plus the two STATS round-trips; a busy-poll loop
    // would show thousands.
    assert!(
        after - before <= 40,
        "idle reactor polled {} times in 500ms — busy-polling",
        after - before
    );
    server.shutdown().unwrap();
}

/// Satellite (half-open peers): a connection that goes silent past the
/// idle timeout is reaped and counted, so dead peers cannot pin
/// Satellite regression (ISSUE 10): a slow-but-live reader must not be
/// reaped as idle. The client pipelines far more response bytes than
/// the kernel will buffer, then goes read-silent past the idle timeout
/// while the server still holds queued response bytes (`queued_bytes >
/// 0` — an obligation, not idleness). Draining afterwards must yield
/// every response, with `idle_disconnects` still zero.
#[test]
fn slow_reader_with_queued_bytes_is_not_reaped() {
    let dev = PmemDevice::optane(512 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            // Generous: this test wants queued bytes, not shedding.
            resp_queue_cap: 64 << 20,
            ..ServerConfig::default()
        },
    );

    let big = vec![0xB7u8; 1 << 17];
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(
        c.put(1, &big, true).unwrap(),
        WriteOutcome::Done { existed: true }
    );

    // 16 MiB of responses, no reads: loopback buffers a few MiB at
    // most, so the rest sits in the connection's out-queue across many
    // sweep periods (the sweep runs at idle/4).
    let n = 128u64;
    let ids: Vec<u64> = (0..n)
        .map(|_| {
            c.send(kvclient::Request::Get { req_id: 0, key: 1 })
                .unwrap()
        })
        .collect();
    c.flush().unwrap();
    thread::sleep(Duration::from_millis(600));

    // Drain slowly; every response must still arrive, in order.
    for id in ids {
        match c.recv_for(id) {
            Ok(Response::Value { value, .. }) => assert_eq!(value.len(), big.len()),
            other => panic!("slow reader lost its connection: {other:?}"),
        }
    }

    let prom = parse_prometheus(&c.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert_eq!(
        sample_value(&prom, "chameleon_server_idle_disconnects"),
        Some(0.0),
        "idle sweep reaped a connection with queued response bytes"
    );
    server.shutdown().unwrap();
}

/// per-connection state forever.
#[test]
fn idle_connection_times_out_and_is_reaped() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );

    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server must close us without ever receiving a byte.
    let mut buf = [0u8; 16];
    match silent.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from server"),
        Err(e) => panic!("expected EOF from idle reap, got {e:?}"),
    }

    let mut c = Client::connect(addr).unwrap();
    let prom = parse_prometheus(&c.stats(StatsFormat::Prometheus).unwrap()).unwrap();
    assert!(
        sample_value(&prom, "chameleon_server_idle_disconnects").unwrap() >= 1.0,
        "idle reap not counted"
    );
    server.shutdown().unwrap();
}

/// Graceful shutdown while two connections, on two workers, stream
/// pipelined durable puts: whichever worker is leading a commit when the
/// stop lands, every put written before the stop is answered — `Ok`,
/// RETRY or "shutting down" — and none sees a bare EOF. One way to break
/// this is to release the workers while a leader is still posting acks
/// to the *other* worker; that window is too narrow to hit reliably from
/// here, so the engine unit test
/// `shutdown_waits_for_a_leader_while_the_queue_is_empty` pins it.
#[test]
fn shutdown_answers_every_put_streamed_from_two_workers() {
    for round in 0..8u64 {
        let dev = PmemDevice::optane(256 << 20);
        let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
        let (server, addr) = start_server(&dev, &store, ServerConfig::default());
        let stop = Arc::new(AtomicBool::new(false));
        let bursts: Arc<[AtomicU64; 2]> = Arc::default();
        // Connection ids 0 and 1: one connection on each of two workers.
        let clients: Vec<_> = (0..2u64)
            .map(|cid| {
                let c = Client::connect(addr).unwrap();
                let (stop, bursts) = (Arc::clone(&stop), Arc::clone(&bursts));
                thread::spawn(move || stream_until_stop(c, cid, &stop, &bursts[cid as usize]))
            })
            .collect();
        // Each client, not the two together: a client that has sent its
        // third burst has read its first burst's answers, all before the
        // stop, so its `oks` cannot be 0. A starved client thread would
        // otherwise be stopped with every put in flight, and those are
        // rightly answered "shutting down".
        while bursts.iter().any(|b| b.load(Ordering::SeqCst) < 10) {
            thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        server.shutdown().expect("graceful shutdown");
        for h in clients {
            let (oks, lost) = h.join().unwrap();
            assert!(oks > 0, "round {round}: no put was acked");
            assert!(
                lost.is_empty(),
                "round {round}: EOF instead of an answer for {lost:?}"
            );
        }
    }
}

/// Sends bursts of 16 durable puts, reading each burst's answers only
/// after the next burst is on the wire, until `stop` is set. Returns the
/// `Ok` count and the puts written before the stop that got EOF.
fn stream_until_stop(
    mut c: Client,
    cid: u64,
    stop: &AtomicBool,
    bursts: &AtomicU64,
) -> (u64, Vec<u64>) {
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut inflight: Vec<(Vec<u64>, bool)> = Vec::new();
    let (mut oks, mut lost, mut n) = (0u64, Vec::new(), 0u64);
    loop {
        let stopped = stop.load(Ordering::SeqCst);
        if !stopped {
            let mut ids = Vec::with_capacity(16);
            let sent = (0..16).all(|_| {
                n += 1;
                let key = (cid << 32) | n;
                c.send_put(key, &value_for(key), true)
                    .map(|id| ids.push(id))
                    .is_ok()
            }) && c.flush().is_ok();
            // Fully written while `stop` was still clear, so before the
            // shutdown began: these must be answered.
            let must = sent && !stop.load(Ordering::SeqCst);
            inflight.push((ids, must));
            bursts.fetch_add(1, Ordering::SeqCst);
        }
        if !stopped && inflight.len() < 2 {
            continue;
        }
        if inflight.is_empty() {
            return (oks, lost);
        }
        let (ids, must) = inflight.remove(0);
        for id in ids {
            match c.recv_for(id) {
                Ok(Response::Ok { .. }) => oks += 1,
                Ok(Response::Retry { .. }) => {}
                Ok(Response::Err { message, .. }) => {
                    assert!(message.contains("shutting down"), "{message}")
                }
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    panic!("no answer and no EOF within the read timeout")
                }
                Err(_) if must => lost.push(id),
                Err(_) => {}
            }
        }
    }
}

/// Satellite: graceful shutdown drains — durable work accepted before
/// the stop is committed and its acks are flushed to the wire, not
/// dropped on the floor.
#[test]
fn graceful_shutdown_drains_inflight_acks() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            max_batch: 32,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let ids: Vec<u64> = (0..256u64)
        .map(|k| c.send_put(k, &value_for(k), true).unwrap())
        .collect();
    c.flush().unwrap();

    // Shut down with all 256 acks potentially still in flight. The
    // commit queue must be drained and the workers must flush the
    // resulting acks before the sockets close.
    // Wait for the first ack so the stop provably lands with work both
    // accepted (in the commit queue) and still unread (in socket buffers).
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut ok = 0u32;
    let mut answered = 0u32;
    let first = ids[0];
    match c.recv_for(first).unwrap() {
        Response::Ok { .. } => {
            ok += 1;
            answered += 1;
        }
        Response::Retry { .. } => answered += 1,
        other => panic!("unexpected first response {other:?}"),
    }
    let shutdown = thread::spawn(move || server.shutdown());
    for id in ids.into_iter().skip(1) {
        match c.recv_for(id) {
            // Accepted before the stop: committed and acked.
            Ok(Response::Ok { .. }) => {
                ok += 1;
                answered += 1;
            }
            // Read but not accepted (queue full, or queue already
            // closed): explicitly answered, never silently dropped.
            Ok(Response::Retry { .. }) => answered += 1,
            Ok(Response::Err { message, .. }) => {
                assert!(
                    message.contains("shutting down"),
                    "unexpected error during drain: {message}"
                );
                answered += 1;
            }
            Ok(other) => panic!("unexpected response {other:?}"),
            // EOF is legal only after every read request was answered.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) =>
            {
                break;
            }
            Err(e) => panic!("read failed during drain: {e:?}"),
        }
    }
    shutdown.join().unwrap().expect("graceful shutdown");
    assert_eq!(
        answered, 256,
        "drain dropped responses: only {answered} of 256 answered"
    );
    assert!(ok >= 1, "no put was accepted before the stop");

    // Everything acked Ok is durable in the recovered store.
    drop(c);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    let mut present = 0u32;
    for k in 0..256u64 {
        if recovered.get(&mut ctx, k, &mut out).unwrap() {
            assert_eq!(out, value_for(k));
            present += 1;
        }
    }
    assert!(
        present >= ok,
        "shutdown acked {ok} keys but only {present} recovered"
    );
}
