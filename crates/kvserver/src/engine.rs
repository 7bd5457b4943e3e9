//! The server engine: poll(2)-driven acceptor, reactor I/O workers, and
//! one bounded commit queue that the workers themselves commit.
//!
//! # Threading model
//!
//! ```text
//! acceptor ──poll──▶ hands socket to worker (round-robin)
//!
//! I/O worker (×N) ──poll over owned conns + wake pipe──┐
//!   │ reads → frame reassembly → decode                │
//!   │ GET/STATS/MODE/TRACE served inline               │
//!   │ PUT/DELETE/SYNC ──push──▶ commit queue           │
//!   │ after each dispatch pass: queue non-empty?       │
//!   │   ──▶ take the commit lock, commit until empty ──┤
//!   │                                                  │
//!   └── flush bounded per-conn outq ◀── encoded acks ──┘
//!                        (the leader posts each ack to its owning
//!                         worker's inbox, after the fence)
//!
//! sampler ── condvar, one tick per telemetry_interval ──▶ ring
//! http sidecar ── poll([listener, wake]) ──▶ /metrics, /snapshot.json
//! ```
//!
//! * The **acceptor** blocks in `poll` on the listener plus a wake pipe —
//!   no sleep loop. Each accepted socket is made nonblocking and handed
//!   to one of [`IO_WORKERS`] reactor threads by round-robin.
//! * Each **I/O worker** owns its connections outright: per-connection
//!   read buffers with partial-frame state machines (see
//!   [`crate::conn::FrameBuf`]), inline dispatch of read-path requests
//!   through the lock-free epoch-pinned view, and a **bounded**
//!   per-connection response queue (`resp_queue_cap` bytes) drained on
//!   writability. A client that stops reading its replies overflows the
//!   bound and is disconnected (`slow_consumer_disconnects`); a client
//!   that goes silent past `idle_timeout` is swept (`idle_disconnects`).
//! * **Group commit has no thread of its own.** After each dispatch pass
//!   a worker that finds the commit queue non-empty takes the *commit
//!   lock* (blocking) and, as leader, commits batches of at most
//!   `max_batch` submissions until the queue is empty. Each batch goes
//!   through [`ChameleonDb::apply_batch`] — one persist fence at the
//!   tail — and only then are its durable acks encoded and posted to
//!   the workers owning their connections. Batches form *naturally* from whatever
//!   queued while the previous one committed; nothing waits on a timer.
//!   Batches exist to fill 256 B XPLines, which is why every in-flight
//!   write meets in one queue. The lock guards the commit [`ThreadCtx`]
//!   (simulated thread 0): one commit clock, whichever worker leads.
//! * The **sampler** waits on a condvar with `telemetry_interval`
//!   timeout (no sleep-polling) and ticks a [`DeltaTracker`] window into
//!   the [`WindowedSeries`] ring.
//!
//! # Request tracing
//!
//! `decode` → `lane_enqueue` → `batch_seal` →
//! `engine_append`/`engine_fence` → `fence_complete` → `ack_write`.
//! (`lane_enqueue` is the push onto the commit queue; the stage keeps
//! the name the trace consumers already key on.) The final `ack_write`
//! stamp lands when the owning worker has fully written the response
//! frame to the socket — the span seals exactly when the bytes hit the
//! wire.
//!
//! # Durability contract
//!
//! A durable write's ack is sent strictly after `apply_batch` returns,
//! which is strictly after the fence covering its log entry. If the
//! device crashes at that fence, `apply_batch` never returns and the acks
//! are structurally unreachable — there is no code path that acks first.
//! The unwind kills the leading worker (the acceptor skips it from then
//! on) and poisons the commit lock; from then on every queued and new
//! write is answered `Err`. SYNC is a
//! barrier entry in the same queue: it is acked after the commit of
//! everything submitted before it, from any connection.

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use chameleon_obs::trace::TraceEventRecord;
use chameleon_obs::{
    DeltaTracker, ObsSnapshot, ServerObs, ServerTickCounters, TraceConfig, TraceSpan, Tracer,
    WindowedSeries,
};
use chameleondb::{BatchOp, ChameleonDb, Mode};
use parking_lot::{Condvar, Mutex};
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

use crate::proto::{encode_response, ModeArg, Request, Response, StatsFormat};
use crate::reactor::{self, Completion, WakePipe, WorkerShared};
use crate::repl::{self, AckPolicy, ReplHub, ReplicaFloors};

/// Reactor I/O worker threads (see [`crate::reactor`]). Total service
/// threads are `IO_WORKERS + acceptor (+ sampler + sidecar)` regardless
/// of connection count.
pub(crate) const IO_WORKERS: usize = 4;

/// Tuning knobs for the service layer.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded capacity of the commit queue; a full queue answers RETRY.
    pub queue_cap: usize,
    /// Most write ops committed under one fence.
    pub max_batch: usize,
    /// Cost model for the per-thread simulation contexts.
    pub cost: Arc<CostModel>,
    /// Request-trace sampling (off by default; the wire trace flag still
    /// forces individual requests).
    pub trace: TraceConfig,
    /// Length of one telemetry window.
    pub telemetry_interval: Duration,
    /// Windows retained in the live ring; `0` disables the sampler.
    pub window_cap: usize,
    /// Bind address for the plain-HTTP metrics sidecar (`/metrics`,
    /// `/snapshot.json`); `None` runs no sidecar.
    pub http_addr: Option<String>,
    /// Most unsent response bytes a single connection may queue before
    /// it is shed as a slow consumer.
    pub resp_queue_cap: usize,
    /// A connection silent (no bytes read) this long is disconnected —
    /// a dead or half-open peer must not pin a slot forever. `None`
    /// disables the sweep. A connection with queued response bytes still
    /// draining is live regardless of read silence (see
    /// [`crate::conn::Conn`]).
    pub idle_timeout: Option<Duration>,
    /// When durable write acks are released: at the local fence, or only
    /// once a quorum of subscribed replicas confirm it (see
    /// [`crate::repl`]).
    pub ack_policy: AckPolicy,
    /// Replica-side shipped/applied/acked floors, filled by the replica's
    /// apply loop and served via REPL_FLOOR and the obs snapshot. Setting
    /// this makes the server a replica front-end: it serves reads only
    /// (PUT/DELETE/SYNC answer ERR), because a replica applies shipped
    /// batches out-of-band and must not take divergent writes.
    pub replica_floors: Option<Arc<ReplicaFloors>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            max_batch: 64,
            cost: Arc::new(CostModel::default()),
            trace: TraceConfig::off(),
            telemetry_interval: Duration::from_secs(1),
            window_cap: 120,
            http_addr: None,
            resp_queue_cap: 4 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            ack_policy: AckPolicy::LocalFence,
            replica_floors: None,
        }
    }
}

/// Encodes a response as a complete wire frame (length prefix included),
/// ready for a reactor connection queue.
pub(crate) fn frame_of(resp: &Response) -> Vec<u8> {
    let payload = encode_response(resp);
    debug_assert!(payload.len() <= crate::proto::MAX_FRAME);
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Where a response goes: the reactor worker owning the connection.
/// Responses are encoded at the send site; the owning worker applies the
/// connection's byte bound when it drains its inbox.
#[derive(Clone)]
pub(crate) struct ReplyTx {
    pub(crate) worker: Arc<WorkerShared>,
    pub(crate) conn_id: u64,
}

impl ReplyTx {
    /// Sends one response toward the wire. Never blocks: the frame is
    /// posted to the owning worker's inbox, which sheds the connection
    /// as a slow consumer if its bounded response queue would overflow.
    pub(crate) fn send(&self, resp: &Response, span: Option<Arc<TraceSpan>>) {
        self.worker.post(Completion {
            conn_id: self.conn_id,
            frame: frame_of(resp),
            span,
        });
    }
}

enum Submission {
    Write {
        op: BatchOp,
        req_id: u64,
        /// Ack after the fence (`true`) or already acked at enqueue.
        durable: bool,
        resp: ReplyTx,
        /// Sampled requests carry their span to the commit stage for the
        /// batch-seal / engine / fence-complete stamps.
        trace: Option<Arc<TraceSpan>>,
    },
    /// SYNC: acked after the commit of everything queued before it.
    Barrier { req_id: u64, resp: ReplyTx },
}

/// The one queue every write and SYNC goes through.
struct CommitQueue {
    subs: VecDeque<Submission>,
    /// Set at shutdown, or when the commit stage dies, to the `Err` text
    /// every later push is answered with.
    closed: Option<&'static str>,
}

const SHUTTING_DOWN: &str = "server shutting down";
const STAGE_CRASHED: &str = "commit stage crashed";

pub(crate) struct Shared {
    pub(crate) store: Arc<ChameleonDb>,
    dev: Arc<PmemDevice>,
    pub(crate) obs: Arc<ServerObs>,
    pub(crate) tracer: Arc<Tracer>,
    windows: Arc<WindowedSeries>,
    queue: Mutex<CommitQueue>,
    /// The commit lock over the commit stage's context (thread id 0). A
    /// `std` mutex for its poisoning: a leader that unwinds mid-commit
    /// leaves it poisoned, and the stage stays dead.
    commit: std::sync::Mutex<ThreadCtx>,
    pub(crate) cfg: ServerConfig,
    stop: AtomicBool,
    /// Set by [`KvServer::abort`]: leaders drop queued work unapplied.
    pub(crate) discard: AtomicBool,
    /// Final shutdown phase: the queue is closed and committed, reactor
    /// workers flush what they hold and exit.
    pub(crate) drained: AtomicBool,
    /// Reactor I/O workers.
    pub(crate) workers: Vec<Arc<WorkerShared>>,
    /// Replication hub: the commit stage publishes fenced batches,
    /// subscribers and their acks register through [`handle_request`].
    pub(crate) repl: ReplHub,
    accept_wake: WakePipe,
    pub(crate) http_wake: WakePipe,
    /// Pairs with `stop_cv`: sleepers (the sampler) wait here instead of
    /// sleep-polling the stop flag.
    stop_mu: Mutex<()>,
    stop_cv: Condvar,
    conn_seq: AtomicUsize,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// A simulation context with a thread id neither the commit stage
    /// (0) nor a reactor worker (`1 + idx`) will reuse (allocated from
    /// the same sequence as connection ids).
    pub(crate) fn sidecar_ctx(&self) -> ThreadCtx {
        let id = 1 + IO_WORKERS + self.conn_seq.fetch_add(1, Ordering::Relaxed);
        ThreadCtx::for_thread(Arc::clone(&self.cfg.cost), id)
    }

    /// Queues one submission for the commit stage, or returns the answer
    /// refusing it: RETRY for a write once `queue_cap` submissions are
    /// queued (a barrier is never refused for room), `Err` once closed.
    fn push(&self, req_id: u64, sub: Submission) -> Result<(), Response> {
        let mut q = self.queue.lock();
        if let Some(message) = q.closed {
            let message = message.to_owned();
            return Err(Response::Err { req_id, message });
        }
        if matches!(sub, Submission::Write { .. }) && q.subs.len() >= self.cfg.queue_cap {
            return Err(Response::Retry { req_id });
        }
        q.subs.push_back(sub);
        Ok(())
    }

    /// The full observability snapshot served by STATS and the HTTP
    /// sidecar: store + server + reactor + trace counter sections, the
    /// windowed telemetry ring, and per-trace-stage aggregates.
    pub(crate) fn obs_snapshot(&self, ctx: &mut ThreadCtx) -> ObsSnapshot {
        let mut sections = vec![
            self.obs.section(),
            self.tracer.section(),
            reactor::section(&self.workers),
        ];
        if let Some(floors) = &self.cfg.replica_floors {
            sections.push(repl::replica_section(floors));
        } else if let Some(sec) = self.repl.section() {
            sections.push(sec);
        }
        let mut snap = self.store.obs_snapshot_with(ctx.clock.now(), sections);
        snap.windows = self.windows.windows();
        snap.trace_stages = self.tracer.stage_summaries();
        snap
    }
}

/// A running TCP front-end over one [`ChameleonDb`].
pub struct KvServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
    local_addr: SocketAddr,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor, the reactor I/O workers (which also commit), the
    /// telemetry sampler, and (if configured) the HTTP metrics sidecar.
    pub fn start(
        addr: &str,
        dev: Arc<PmemDevice>,
        store: Arc<ChameleonDb>,
        obs: Arc<ServerObs>,
        cfg: ServerConfig,
    ) -> io::Result<Self> {
        assert!(cfg.max_batch >= 1, "need at least batch-of-1");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // std listens with backlog 128; a reactor built for thousands of
        // concurrent clients must also survive thousands of concurrent
        // *connects*, so widen the accept backlog (re-listen is legal on
        // Linux and only updates the queue length).
        unsafe {
            use std::os::fd::AsRawFd;
            libc::listen(listener.as_raw_fd(), 4096);
        }

        let workers = (0..IO_WORKERS)
            .map(|i| WorkerShared::new(i).map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let tracer = Arc::new(Tracer::new(cfg.trace));
        let windows = Arc::new(WindowedSeries::new(cfg.window_cap));
        let repl_hub = ReplHub::new(cfg.ack_policy);
        let shared = Arc::new(Shared {
            store,
            dev,
            obs,
            tracer,
            windows,
            queue: Mutex::new(CommitQueue {
                subs: VecDeque::with_capacity(cfg.queue_cap),
                closed: None,
            }),
            commit: std::sync::Mutex::new(ThreadCtx::for_thread(Arc::clone(&cfg.cost), 0)),
            cfg,
            stop: AtomicBool::new(false),
            discard: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            workers,
            repl: repl_hub,
            accept_wake: WakePipe::new()?,
            http_wake: WakePipe::new()?,
            stop_mu: Mutex::new(()),
            stop_cv: Condvar::new(),
            conn_seq: AtomicUsize::new(0),
        });

        let worker_handles = shared
            .workers
            .iter()
            .map(|w| {
                let sh = Arc::clone(&shared);
                let w2 = Arc::clone(w);
                thread::Builder::new()
                    .name(format!("kvs-io-{}", w2.idx))
                    .spawn(move || reactor::worker_loop(&sh, &w2))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("kvs-accept".to_owned())
                .spawn(move || acceptor_loop(&sh, listener))?
        };

        let sampler = if shared.cfg.window_cap > 0 && shared.cfg.telemetry_interval > Duration::ZERO
        {
            let sh = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("kvs-sampler".to_owned())
                    .spawn(move || sampler_loop(&sh))?,
            )
        } else {
            None
        };

        let (http_addr, http) = match shared.cfg.http_addr.clone() {
            Some(bind) => {
                let (a, h) = crate::http::start(Arc::clone(&shared), &bind)?;
                (Some(a), Some(h))
            }
            None => (None, None),
        };

        Ok(Self {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
            sampler,
            http,
            http_addr,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP sidecar's bound address, if one is running.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The request tracer (for in-process span inspection in tests and
    /// the bench harness).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// The live windowed-telemetry ring.
    pub fn windows(&self) -> Arc<WindowedSeries> {
        Arc::clone(&self.shared.windows)
    }

    /// Total service threads this server runs (acceptor + I/O workers,
    /// which also commit + sampler + sidecar) — constant in the
    /// connection count.
    pub fn thread_count(&self) -> usize {
        1 + self.workers.len()
            + usize::from(self.sampler.is_some())
            + usize::from(self.http.is_some())
    }

    /// Graceful shutdown: stop accepting, drain the commit queue
    /// (committing what was accepted), flush the final acks to their
    /// connections, then take a final checkpoint. Returns an error
    /// listing any panicked threads; a server with a panicked thread
    /// takes no checkpoint, because its in-DRAM state may be torn.
    pub fn shutdown(mut self) -> Result<(), String> {
        let panics = self.stop_threads();
        if !panics.is_empty() {
            return Err(format!("server threads panicked: {panics:?}"));
        }
        let mut ctx = ThreadCtx::for_thread(Arc::clone(&self.shared.cfg.cost), 0);
        self.shared
            .store
            .checkpoint(&mut ctx)
            .map_err(|e| format!("final checkpoint failed: {e:?}"))
    }

    /// Hard stop for crash tests: queued-but-uncommitted work is dropped
    /// without touching the device, and no final checkpoint is taken.
    pub fn abort(mut self) {
        self.shared.discard.store(true, Ordering::SeqCst);
        self.stop_threads();
    }

    fn stop_threads(&mut self) -> Vec<String> {
        let sh = &self.shared;
        sh.stop.store(true, Ordering::SeqCst);
        // Wake every sleeper through its own mechanism — no thread in
        // the server sleep-polls the stop flag.
        {
            let _g = sh.stop_mu.lock();
        }
        sh.stop_cv.notify_all();
        sh.accept_wake.wake();
        sh.http_wake.wake();
        let mut panics = Vec::new();
        let join = |h: JoinHandle<()>, what: &str, panics: &mut Vec<String>| {
            if h.join().is_err() {
                panics.push(what.to_owned());
            }
        };
        if let Some(h) = self.acceptor.take() {
            join(h, "acceptor", &mut panics);
        }
        if let Some(h) = self.sampler.take() {
            join(h, "sampler", &mut panics);
        }
        if let Some(h) = self.http.take() {
            join(h, "http sidecar", &mut panics);
        }
        // Close the queue and commit what it holds here. `commit_queued`
        // takes the commit lock before it looks at the queue, so it also
        // waits out a leader still posting the acks of a batch it already
        // took off the queue (final acks land in the still-running
        // workers' inboxes).
        sh.queue.lock().closed.get_or_insert(SHUTTING_DOWN);
        commit_queued(sh);
        // Only now may the workers go: every ack that will ever exist is
        // in an inbox. Workers flush best-effort and close their conns.
        sh.drained.store(true, Ordering::SeqCst);
        for w in &sh.workers {
            w.wake.wake();
        }
        for (i, h) in self.workers.drain(..).enumerate() {
            join(h, &format!("io worker {i}"), &mut panics);
        }
        panics
    }
}

/// Accepts connections with `poll` (listener + wake pipe — zero wakeups
/// while idle) and hands each socket to the reactor worker that will own
/// it (round-robin, skipping dead workers).
fn acceptor_loop(sh: &Arc<Shared>, listener: TcpListener) {
    let lfd = listener.as_raw_fd();
    while !sh.stopping() {
        let mut pfds = [
            libc::pollfd {
                fd: lfd,
                events: libc::POLLIN,
                revents: 0,
            },
            libc::pollfd {
                fd: sh.accept_wake.read_fd(),
                events: libc::POLLIN,
                revents: 0,
            },
        ];
        let n = unsafe { libc::poll(pfds.as_mut_ptr(), 2, -1) };
        if n < 0 {
            continue; // EINTR
        }
        sh.accept_wake.drain();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => accept_one(sh, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

fn accept_one(sh: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    ServerObs::bump(&sh.obs.connections);
    let conn_id = sh.conn_seq.fetch_add(1, Ordering::Relaxed);
    if stream.set_nonblocking(true).is_err() {
        ServerObs::bump(&sh.obs.disconnects);
        return;
    }
    // Round-robin over the live workers: one whose commit crashed is gone.
    let n = sh.workers.len();
    let live = (0..n)
        .map(|i| &sh.workers[(conn_id + i) % n])
        .find(|w| !w.dead.load(Ordering::SeqCst));
    match live {
        Some(w) => w.post_conn(conn_id as u64, stream),
        None => ServerObs::bump(&sh.obs.disconnects),
    }
}

/// Once per telemetry interval: subtract the previous tick's cumulative
/// op/stall histograms, device snapshot, and service counters to produce
/// one [`chameleon_obs::Window`] for the ring. Sleeps on a condvar, so
/// shutdown wakes it immediately and an idle server costs one wakeup per
/// interval, not one per 10 ms.
fn sampler_loop(sh: &Arc<Shared>) {
    let mut tracker = DeltaTracker::new();
    let mut last = Instant::now();
    loop {
        {
            let mut g = sh.stop_mu.lock();
            if sh.stopping() {
                return;
            }
            let _ = sh.stop_cv.wait_for(&mut g, sh.cfg.telemetry_interval);
        }
        if sh.stopping() {
            return;
        }
        let elapsed = last.elapsed();
        if elapsed < sh.cfg.telemetry_interval {
            continue; // spurious wakeup
        }
        last = Instant::now();
        let obs = sh.store.obs();
        let mut server = ServerTickCounters::capture(&sh.obs);
        // Replication floors: shipped is cumulative (delta'd into the
        // window), lag is a gauge sampled at the tick.
        let (repl_shipped, repl_lag) = match &sh.cfg.replica_floors {
            Some(floors) => floors.tick(),
            None => sh.repl.tick(),
        };
        server.repl_shipped = repl_shipped;
        server.repl_lag = repl_lag;
        let w = tracker.tick(
            elapsed.as_millis() as u64,
            &obs.op_rollup(),
            &obs.stall_rollup(),
            &obs.scan_keys_rollup(),
            sh.dev.stats().snapshot(),
            server,
        );
        sh.windows.push(w);
    }
}

/// Stamps `ack_write` and completes the span once its response frame has
/// been written (the final pipeline stage a span can observe).
pub(crate) fn seal_span(tracer: &Tracer, span: &TraceSpan) {
    span.stamp("ack_write");
    tracer.complete(span);
}

/// Starts a span for one write: the wire trace flag forces a sample,
/// otherwise the tracer's rate decides. The `decode` stamp closes the
/// first stage (span creation to here — the sampling decision itself).
fn span_for_write(sh: &Shared, op: &'static str, key: u64, forced: bool) -> Option<Arc<TraceSpan>> {
    let span = if forced {
        Some(sh.tracer.force(op, key))
    } else {
        sh.tracer.sample(op, key)
    };
    if let Some(s) = &span {
        s.stamp("decode");
    }
    span
}

/// Dispatches one decoded request on the reactor worker that read it:
/// GET/STATS/MODE/TRACE answer inline through `reply`, PUT/DELETE/SYNC
/// go to the commit queue (their acks come back through the same
/// `reply` after the fence).
pub(crate) fn handle_request(
    sh: &Arc<Shared>,
    ctx: &mut ThreadCtx,
    req: Request,
    reply: &ReplyTx,
    valbuf: &mut Vec<u8>,
) {
    let obs = &sh.obs;
    if sh.cfg.replica_floors.is_some() {
        if let Request::Put { req_id, .. }
        | Request::Delete { req_id, .. }
        | Request::Sync { req_id } = req
        {
            reply.send(
                &Response::Err {
                    req_id,
                    message: "read-only replica".to_owned(),
                },
                None,
            );
            return;
        }
    }
    match req {
        Request::Get { req_id, key } => {
            ServerObs::bump(&obs.gets);
            let span = sh.tracer.sample("get", key);
            if let Some(s) = &span {
                s.stamp("decode");
            }
            valbuf.clear();
            let resp = match sh.store.get_traced(ctx, key, valbuf, span.as_deref()) {
                Ok(true) => Response::Value {
                    req_id,
                    value: valbuf.clone(),
                },
                Ok(false) => Response::NotFound { req_id },
                Err(e) => Response::Err {
                    req_id,
                    message: format!("{e:?}"),
                },
            };
            reply.send(&resp, span);
        }
        Request::Put {
            req_id,
            key,
            value,
            durable,
            traced,
        } => {
            ServerObs::bump(&obs.puts);
            let span = span_for_write(sh, "put", key, traced);
            submit_write(
                sh,
                BatchOp::Put { key, value },
                req_id,
                durable,
                span,
                reply,
            );
        }
        Request::Delete {
            req_id,
            key,
            traced,
            ..
        } => {
            ServerObs::bump(&obs.deletes);
            let span = span_for_write(sh, "delete", key, traced);
            // Deletes are always acked post-commit: the outcome
            // (existed or not) is only known once the batch applies.
            submit_write(sh, BatchOp::Delete { key }, req_id, true, span, reply);
        }
        Request::Sync { req_id } => {
            ServerObs::bump(&obs.syncs);
            submit_barrier(sh, req_id, reply);
        }
        Request::Stats { req_id, format } => {
            ServerObs::bump(&obs.stats_reqs);
            let snap = sh.obs_snapshot(ctx);
            let text = match format {
                StatsFormat::Json => snap.to_pretty_json(),
                StatsFormat::Prometheus => snap.to_prometheus(),
            };
            reply.send(&Response::Stats { req_id, text }, None);
        }
        Request::Trace { req_id, max } => {
            ServerObs::bump(&obs.trace_reqs);
            let spans = sh.tracer.spans(max as usize);
            let events = sh.store.obs().journal().tail(64);
            let events = events.iter().map(TraceEventRecord::from).collect();
            reply.send(
                &Response::Trace {
                    req_id,
                    spans,
                    events,
                },
                None,
            );
        }
        Request::Scan {
            req_id,
            start_key,
            limit,
        } => {
            ServerObs::bump(&obs.scans);
            let span = sh.tracer.sample("scan", start_key);
            if let Some(s) = &span {
                s.stamp("decode");
            }
            // Served inline like GET: the store scans under its own epoch
            // pin (one ordered-index cursor), no commit-queue round-trip.
            let resp = match sh.store.scan(ctx, start_key, limit as usize) {
                Ok(keys) => Response::Keys { req_id, keys },
                Err(e) => Response::Err {
                    req_id,
                    message: format!("{e:?}"),
                },
            };
            reply.send(&resp, span);
        }
        Request::Mode { req_id, arg } => {
            ServerObs::bump(&obs.mode_reqs);
            match arg {
                ModeArg::Normal => sh.store.set_mode(Mode::Normal),
                ModeArg::WriteIntensive => sh.store.set_mode(Mode::WriteIntensive),
                ModeArg::Query => {}
            }
            reply.send(
                &Response::Mode {
                    req_id,
                    write_intensive: sh.store.mode() == Mode::WriteIntensive,
                },
                None,
            );
        }
        Request::ReplSubscribe { req_id, start_ship } => {
            if sh.cfg.replica_floors.is_some() {
                // Cascading replication is not supported: a replica's
                // stream comes from its primary, not from other replicas.
                reply.send(
                    &Response::Err {
                        req_id,
                        message: "replica does not serve subscriptions".to_owned(),
                    },
                    None,
                );
            } else if let Err(message) = sh.repl.subscribe(start_ship, req_id, reply.clone()) {
                reply.send(&Response::Err { req_id, message }, None);
            }
        }
        Request::ReplAck {
            req_id,
            sub_id,
            ship,
        } => {
            if sh.repl.ack(sub_id, ship) {
                reply.send(&Response::Ok { req_id }, None);
            } else {
                reply.send(
                    &Response::Err {
                        req_id,
                        message: "unknown replication subscriber".to_owned(),
                    },
                    None,
                );
            }
        }
        Request::ReplFloor { req_id } => {
            let resp = match &sh.cfg.replica_floors {
                Some(f) => Response::ReplFloor {
                    req_id,
                    sub_id: 0,
                    shipped: f.received.load(Ordering::Acquire),
                    acked: f.acked.load(Ordering::Acquire),
                    applied: f.applied.load(Ordering::Acquire),
                },
                None => Response::ReplFloor {
                    req_id,
                    sub_id: 0,
                    shipped: sh.repl.shipped(),
                    acked: sh.repl.acked_floor(),
                    applied: 0,
                },
            };
            reply.send(&resp, None);
        }
    }
}

/// Queues one write for the commit stage. Non-durable writes are acked
/// here, at enqueue; durable ones are acked by the leader that commits
/// them, after the fence.
fn submit_write(
    sh: &Arc<Shared>,
    op: BatchOp,
    req_id: u64,
    durable: bool,
    span: Option<Arc<TraceSpan>>,
    reply: &ReplyTx,
) {
    // Stamp before the push: once a leader can see the submission it may
    // seal the batch at any moment, and stamps must stay in pipeline
    // order.
    if let Some(s) = &span {
        s.stamp("lane_enqueue");
    }
    let sub = Submission::Write {
        op,
        req_id,
        durable,
        resp: reply.clone(),
        trace: span.clone(),
    };
    match sh.push(req_id, sub) {
        Ok(()) if durable => {}
        Ok(()) => {
            ServerObs::bump(&sh.obs.early_acks);
            // The span rides with the early ack; the leader's later
            // stamps land after completion and are dropped.
            reply.send(&Response::Ok { req_id }, span);
        }
        Err(refusal) => {
            let retry = matches!(refusal, Response::Retry { .. });
            if retry {
                ServerObs::bump(&sh.obs.retries);
            }
            if let Some(s) = &span {
                s.annotate(if retry { "retry" } else { "shutdown" });
            }
            reply.send(&refusal, span);
        }
    }
}

/// Queues a SYNC barrier behind everything already submitted; the
/// leader acks it after committing the batch it lands in.
fn submit_barrier(sh: &Arc<Shared>, req_id: u64, reply: &ReplyTx) {
    let barrier = Submission::Barrier {
        req_id,
        resp: reply.clone(),
    };
    if let Err(refusal) = sh.push(req_id, barrier) {
        reply.send(&refusal, None);
    }
}

/// Commits everything queued, as the commit stage: called by every I/O
/// worker after its dispatch pass. Whoever pushed a submission gets here
/// afterwards, so each is committed — by the pusher or by the leader it
/// waits behind.
pub(crate) fn lead_commits(sh: &Arc<Shared>) {
    if !sh.queue.lock().subs.is_empty() {
        commit_queued(sh);
    }
}

/// Takes the commit lock, then commits batches until the queue is empty.
/// Once it holds the lock, no earlier leader is still posting acks.
fn commit_queued(sh: &Arc<Shared>) {
    // Blocking, not `try_lock`: a worker that went back to its sockets
    // while another committed its write would leave that write's ack,
    // and its other connections' acks, unflushed until its next wakeup.
    let Ok(mut ctx) = sh.commit.lock() else {
        fail_queued(sh);
        return;
    };
    loop {
        let (batch, queue_depth) = {
            let mut q = sh.queue.lock();
            if q.subs.is_empty() {
                return;
            }
            let n = q.subs.len().min(sh.cfg.max_batch);
            let batch: Vec<Submission> = q.subs.drain(..n).collect();
            (batch, q.subs.len() as u64)
        };
        if sh.discard.load(Ordering::SeqCst) {
            // Aborting: drop the batch unapplied and unacked (the reply
            // handles just go away).
            continue;
        }
        commit_batch(sh, &mut ctx, batch, queue_depth);
    }
}

/// The commit lock is poisoned — a leader unwound mid-commit (an injected
/// device crash) — so the stage is dead: close the queue and answer what
/// it holds with `Err`. Nothing commits again.
fn fail_queued(sh: &Arc<Shared>) {
    let subs = {
        let mut q = sh.queue.lock();
        q.closed = Some(STAGE_CRASHED);
        std::mem::take(&mut q.subs)
    };
    for sub in subs {
        let (req_id, resp, trace) = match sub {
            Submission::Write {
                req_id,
                durable: true,
                resp,
                trace,
                ..
            } => (req_id, resp, trace),
            Submission::Barrier { req_id, resp } => (req_id, resp, None),
            Submission::Write { .. } => continue, // acked at enqueue
        };
        let message = STAGE_CRASHED.to_owned();
        resp.send(&Response::Err { req_id, message }, trace);
    }
}

/// Answers a batch's SYNC barriers: `Ok`, or the batch's error.
fn answer_barriers(barriers: &[(u64, ReplyTx)], err: Option<&str>) {
    for (req_id, resp) in barriers {
        let r = match err {
            None => Response::Ok { req_id: *req_id },
            Some(m) => Response::Err {
                req_id: *req_id,
                message: m.to_owned(),
            },
        };
        resp.send(&r, None);
    }
}

fn commit_batch(sh: &Arc<Shared>, ctx: &mut ThreadCtx, batch: Vec<Submission>, queue_depth: u64) {
    let mut ops = Vec::with_capacity(batch.len());
    let mut writes = Vec::with_capacity(batch.len());
    let mut barriers = Vec::new();
    for sub in batch {
        match sub {
            Submission::Write {
                op,
                req_id,
                durable,
                resp,
                trace,
            } => {
                // The batch is sealed: `batch_seal` closes the
                // queue-wait stage for every traced op.
                if let Some(s) = &trace {
                    s.stamp("batch_seal");
                }
                ops.push(op);
                writes.push((req_id, durable, resp, trace));
            }
            Submission::Barrier { req_id, resp } => barriers.push((req_id, resp)),
        }
    }
    // SYNC acks go out after the batch's commit, whatever its outcome.
    // They stay local-fence under either ack policy: they assert device
    // durability, not replica propagation.

    if ops.is_empty() {
        // Barrier-only batch: everything committed before it is already
        // fenced, but flush the writer anyway so a barrier is a fence
        // even across future refactors.
        let err = sh.store.sync_writer(ctx).err().map(|e| format!("{e:?}"));
        answer_barriers(&barriers, err.as_deref());
        return;
    }
    let durable_acks = writes.iter().filter(|(_, durable, _, _)| *durable).count() as u64;
    let span = sh.obs.batch_start(ctx.clock.now(), sh.dev.stats());
    let applied = {
        let spans: Vec<Option<&TraceSpan>> =
            writes.iter().map(|(_, _, _, t)| t.as_deref()).collect();
        sh.store.apply_batch_traced(ctx, &ops, &spans)
    };
    match applied {
        Ok(outcomes) => {
            for (_, _, _, trace) in &writes {
                if let Some(s) = trace {
                    s.stamp("fence_complete");
                }
            }
            sh.obs.batch_end(
                span,
                ctx.clock.now(),
                sh.dev.stats(),
                ops.len() as u64,
                durable_acks,
                queue_depth,
            );
            // Acks strictly after the batch's fence (`apply_batch` has
            // returned): an injected crash at that fence unwinds above
            // and never reaches this loop. Under the replica-quorum
            // policy durable acks are handed to the hub instead, which
            // only ever delays them further — never earlier than the
            // fence.
            let withhold = sh.repl.withholds_acks();
            let mut withheld = Vec::new();
            for ((req_id, durable, resp, trace), (op, existed)) in
                writes.iter().zip(ops.iter().zip(outcomes))
            {
                if !*durable {
                    continue;
                }
                let r = match op {
                    BatchOp::Put { .. } => Response::Ok { req_id: *req_id },
                    BatchOp::Delete { .. } => {
                        if existed {
                            Response::Deleted { req_id: *req_id }
                        } else {
                            Response::NotFound { req_id: *req_id }
                        }
                    }
                };
                if withhold {
                    withheld.push((resp.clone(), r, trace.clone()));
                } else {
                    resp.send(&r, trace.clone());
                }
            }
            sh.repl.publish(&ops, withheld);
            answer_barriers(&barriers, None);
        }
        Err(e) => {
            let msg = format!("{e:?}");
            for (req_id, durable, resp, trace) in writes {
                if durable {
                    let message = msg.clone();
                    resp.send(&Response::Err { req_id, message }, trace);
                }
            }
            answer_barriers(&barriers, Some(&msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleondb::ChameleonConfig;

    /// A leader that took the last batch off the queue still holds the
    /// commit lock while it posts that batch's acks. Shutdown must not
    /// release the workers until it lets go: a worker that exited first
    /// would never send the acks posted to it.
    #[test]
    fn shutdown_waits_for_a_leader_while_the_queue_is_empty() {
        let dev = PmemDevice::optane(256 << 20);
        let cfg = ChameleonConfig::tiny();
        let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg).unwrap());
        let obs = Arc::new(ServerObs::new());
        let server = KvServer::start("127.0.0.1:0", dev, store, obs, ServerConfig::default())
            .expect("bind loopback");
        let sh = Arc::clone(&server.shared);
        let leader = sh.commit.lock().unwrap();
        let stopper = thread::spawn(move || server.shutdown());
        thread::sleep(Duration::from_millis(100));
        assert!(
            !sh.drained.load(Ordering::SeqCst),
            "workers released while a leader held the commit lock"
        );
        drop(leader);
        stopper.join().unwrap().expect("graceful shutdown");
        assert!(sh.drained.load(Ordering::SeqCst));
    }
}
