//! Open-loop load generation: offered load on a fixed schedule,
//! latencies free of coordinated omission.
//!
//! A closed-loop client (one outstanding request, send-after-receive)
//! silently *stops offering load* whenever the server stalls, so its
//! latency histogram never sees the requests that would have been sent
//! during the stall — the classic coordinated-omission blind spot. This
//! generator instead fixes the send schedule up front: request `i` is
//! *due* at `t0 + i/rate`, its latency is measured from that due time
//! (not from when the socket actually accepted it), and a request that
//! cannot be sent because its connection already has `max_outstanding`
//! unanswered requests is counted as **shed**, not quietly delayed.
//! A stalling server therefore shows up in the numbers twice, honestly:
//! inflated tail latencies (queueing time counts) and a nonzero shed
//! count.
//!
//! One generator thread drives many connections with nonblocking
//! sockets multiplexed over `poll(2)` — the same hermetic `libc` shim
//! the server's reactor uses — so offered load scales in connections
//! without scaling in threads. Frame reassembly reuses
//! [`kvserver::conn::FrameBuf`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use kvserver::conn::FrameBuf;
use kvserver::proto::{decode_response, encode_request, Request, Response};
use pmem_sim::Histogram;

/// One open-loop run's shape.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Connections this generator thread drives.
    pub conns: usize,
    /// Total offered load across all connections, requests/second.
    pub rate_per_sec: u64,
    /// How long to keep offering load (a drain phase follows).
    pub duration: Duration,
    /// Fraction of requests that are GETs; the rest are durable PUTs.
    pub get_fraction: f64,
    /// Value size for PUTs.
    pub value_len: usize,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// Most unanswered requests one connection may carry; a request due
    /// on a saturated connection is shed (counted, never delayed).
    pub max_outstanding: usize,
    /// RNG seed (deterministic schedules for reproducible runs).
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            conns: 16,
            rate_per_sec: 10_000,
            duration: Duration::from_secs(2),
            get_fraction: 0.5,
            value_len: 64,
            key_space: 1 << 16,
            max_outstanding: 128,
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

/// What one open-loop run observed.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Requests the schedule offered (sent + shed).
    pub offered: u64,
    /// Requests actually written to a socket.
    pub sent: u64,
    /// Responses matched (RETRY and ERR included).
    pub completed: u64,
    /// Requests dropped because their connection was saturated at their
    /// due time — the honest alternative to delaying them.
    pub shed: u64,
    /// RETRY responses (commit-queue backpressure reached the client).
    pub retries: u64,
    /// ERR responses.
    pub errors: u64,
    /// Requests still unanswered when the drain phase gave up.
    pub unanswered: u64,
    /// Wall-clock ns from a request's *scheduled* due time to its
    /// response (completed requests only).
    pub latency: Histogram,
    /// Offering phase wall-clock (excludes the drain phase).
    pub elapsed: Duration,
}

impl OpenLoopReport {
    /// Merges another thread's run into this one (schedules were
    /// disjoint; histograms and counts just add).
    pub fn merge(&mut self, other: &OpenLoopReport) {
        self.offered += other.offered;
        self.sent += other.sent;
        self.completed += other.completed;
        self.shed += other.shed;
        self.retries += other.retries;
        self.errors += other.errors;
        self.unanswered += other.unanswered;
        self.latency.merge(&other.latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

struct OpenConn {
    stream: TcpStream,
    framebuf: FrameBuf,
    /// Encoded request bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Due time (the *schedule's* time, not the send time) per req id.
    due: HashMap<u64, Instant>,
    dead: bool,
}

impl OpenConn {
    fn outstanding(&self) -> usize {
        self.due.len()
    }

    /// Pushes socket-ready bytes out; nonblocking.
    fn pump_write(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 4096 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Runs one open-loop generator over its own set of connections and
/// returns what it observed. Call from several threads (with disjoint
/// seeds) and [`OpenLoopReport::merge`] the results to scale offered
/// load beyond one thread.
pub fn run<A: ToSocketAddrs>(addr: A, cfg: &OpenLoopConfig) -> io::Result<OpenLoopReport> {
    assert!(cfg.conns >= 1, "need at least one connection");
    assert!(cfg.rate_per_sec >= 1, "need a nonzero rate");
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "no address"))?;
    let mut conns = Vec::with_capacity(cfg.conns);
    for _ in 0..cfg.conns {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(OpenConn {
            stream,
            framebuf: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            due: HashMap::new(),
            dead: false,
        });
    }

    let interval = Duration::from_nanos(1_000_000_000 / cfg.rate_per_sec);
    let mut report = OpenLoopReport {
        offered: 0,
        sent: 0,
        completed: 0,
        shed: 0,
        retries: 0,
        errors: 0,
        unanswered: 0,
        latency: Histogram::default(),
        elapsed: Duration::ZERO,
    };
    let mut seed = cfg.seed | 1;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next_id: u64 = 1;
    let mut cursor: u64 = 0; // next scheduled request index
    let t0 = Instant::now();
    let deadline = t0 + cfg.duration;
    let value = vec![0xC5u8; cfg.value_len];

    loop {
        let now = Instant::now();
        let offering = now < deadline;

        // Send every request whose due time has passed. The schedule is
        // authoritative: a saturated or dead connection sheds its
        // request rather than pushing the schedule back.
        if offering {
            while t0 + interval * (cursor as u32) <= now {
                let due_at = t0 + interval * (cursor as u32);
                let ci = (cursor as usize) % conns.len();
                cursor += 1;
                report.offered += 1;
                let c = &mut conns[ci];
                if c.dead || c.outstanding() >= cfg.max_outstanding {
                    report.shed += 1;
                    continue;
                }
                let key = xorshift(&mut seed) % cfg.key_space;
                let is_get = (xorshift(&mut seed) as f64 / u64::MAX as f64) < cfg.get_fraction;
                let req_id = next_id;
                next_id += 1;
                let req = if is_get {
                    Request::Get { req_id, key }
                } else {
                    Request::Put {
                        req_id,
                        key,
                        value: value.clone(),
                        durable: true,
                        traced: false,
                    }
                };
                let payload = encode_request(&req);
                c.wbuf
                    .extend_from_slice(&(payload.len() as u32).to_le_bytes());
                c.wbuf.extend_from_slice(&payload);
                c.due.insert(req_id, due_at);
                report.sent += 1;
            }
        }

        // Pump writes, then poll for readability (and writability where
        // a partial write is pending) until the next due time.
        for c in conns.iter_mut() {
            if !c.dead {
                c.pump_write();
            }
        }
        let mut pfds: Vec<libc::pollfd> = Vec::with_capacity(conns.len());
        let mut order: Vec<usize> = Vec::with_capacity(conns.len());
        for (i, c) in conns.iter().enumerate() {
            if c.dead {
                continue;
            }
            let mut events = libc::POLLIN;
            if c.wpos < c.wbuf.len() {
                events |= libc::POLLOUT;
            }
            pfds.push(libc::pollfd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            order.push(i);
        }
        if pfds.is_empty() {
            // Every connection died (server gone / shed us).
            break;
        }
        let timeout_ms = if offering {
            let next_due = t0 + interval * (cursor as u32);
            let until = next_due.saturating_duration_since(Instant::now());
            (until.as_millis() as libc::c_int).min(10)
        } else {
            50
        };
        let n = unsafe { libc::poll(pfds.as_mut_ptr(), pfds.len() as libc::nfds_t, timeout_ms) };
        if n > 0 {
            for (pi, &ci) in order.iter().enumerate() {
                let revents = pfds[pi].revents;
                if revents == 0 {
                    continue;
                }
                let c = &mut conns[ci];
                if revents & (libc::POLLERR | libc::POLLNVAL) != 0 {
                    c.dead = true;
                    continue;
                }
                if revents & libc::POLLOUT != 0 {
                    c.pump_write();
                }
                if revents & (libc::POLLIN | libc::POLLHUP) != 0 {
                    loop {
                        match c.stream.read(&mut scratch) {
                            Ok(0) => {
                                c.dead = true;
                                break;
                            }
                            Ok(r) => c.framebuf.extend(&scratch[..r]),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                c.dead = true;
                                break;
                            }
                        }
                    }
                    let recv_now = Instant::now();
                    loop {
                        match c.framebuf.next_frame() {
                            Ok(Some(payload)) => {
                                let resp = match decode_response(&payload) {
                                    Ok(r) => r,
                                    Err(_) => {
                                        c.dead = true;
                                        break;
                                    }
                                };
                                if let Some(due_at) = c.due.remove(&resp.req_id()) {
                                    report.completed += 1;
                                    match resp {
                                        Response::Retry { .. } => report.retries += 1,
                                        Response::Err { .. } => report.errors += 1,
                                        _ => {
                                            report
                                                .latency
                                                .record(recv_now.duration_since(due_at).as_nanos()
                                                    as u64)
                                        }
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                c.dead = true;
                                break;
                            }
                        }
                    }
                }
            }
        }

        if !offering {
            let outstanding: usize = conns.iter().map(|c| c.outstanding()).sum();
            // Drain phase: keep reading until everything answers or the
            // grace period runs out.
            if outstanding == 0 || now.duration_since(deadline) > Duration::from_secs(5) {
                report.unanswered = outstanding as u64;
                break;
            }
        } else if report.elapsed == Duration::ZERO && Instant::now() >= deadline {
            report.elapsed = deadline.duration_since(t0);
        }
    }
    if report.elapsed == Duration::ZERO {
        report.elapsed = t0.elapsed().min(cfg.duration);
    }
    // Anything still owed by dead connections is unanswered too.
    report.unanswered += conns
        .iter()
        .filter(|c| c.dead)
        .map(|c| c.outstanding() as u64)
        .sum::<u64>();
    Ok(report)
}
