//! Blocking client for the [`kvserver`] wire protocol.
//!
//! One [`Client`] wraps one TCP connection. Requests carry a
//! client-assigned `req_id`; because the server interleaves inline GET
//! replies with durable write acks that wait for a later group-commit
//! fence, responses can arrive out of order. The client buffers
//! stragglers and hands each response to whoever asked for its id, so
//! the blocking convenience calls ([`Client::get`], [`Client::put`], …)
//! and the pipelined calls ([`Client::send_put`] + [`Client::recv_for`])
//! compose on one connection.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use kvserver::proto::{decode_response, encode_request, frame_len, read_frame, write_frame};
pub use kvserver::proto::{ModeArg, Request, Response, StatsFormat, TracePayload, MAX_SCAN_KEYS};
use pmem_sim::Histogram;

pub mod openloop;

/// Most out-of-order responses [`Client::recv_for`] will stash before
/// concluding the connection's pipelining discipline is broken. Bounds
/// client memory: responses for abandoned req-ids would otherwise
/// accumulate forever.
pub const DEFAULT_STASH_CAP: usize = 4096;

/// Client-observed wall-clock latency per blocking operation, recorded
/// from just before the request frame is written until its response is
/// matched. The server's own histograms measure simulated device time on
/// the engine side; comparing the two separates protocol/queueing cost
/// from media cost (serve-bench reports both).
#[derive(Debug, Default)]
pub struct ClientLatencies {
    /// Blocking [`Client::put`] / [`Client::put_traced`] round-trips
    /// (each RETRY attempt records separately).
    pub put: Histogram,
    /// Blocking [`Client::get`] round-trips.
    pub get: Histogram,
    /// Blocking [`Client::delete`] round-trips.
    pub delete: Histogram,
    /// Blocking [`Client::scan`] round-trips.
    pub scan: Histogram,
}

/// Outcome of a single write attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Acked. For a durable write the ack implies the commit fence has
    /// run; for a delete, `existed` says whether the key was present.
    Done { existed: bool },
    /// The server's commit queue was full; resubmit after backoff.
    Retry,
}

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// Maps a server ERR message to an [`io::Error`] whose kind tells the
/// caller whether resubmitting could ever help. A clean shutdown or a
/// read-only replica refuses *every* future write on this connection, so
/// those surface as [`io::ErrorKind::ConnectionAborted`] /
/// [`io::ErrorKind::Unsupported`] — terminal kinds retry loops must not
/// burn a backoff schedule against (ISSUE 10 satellite 3). Anything else
/// stays [`io::ErrorKind::Other`].
fn server_err(message: String) -> io::Error {
    if message.contains("shutting down") {
        io::Error::new(io::ErrorKind::ConnectionAborted, message)
    } else if message.contains("read-only replica") {
        io::Error::new(io::ErrorKind::Unsupported, message)
    } else {
        io::Error::other(message)
    }
}

/// Bounded, jittered exponential backoff for [`Client::put_retrying_with`].
///
/// A RETRY response means the server's commit queue was full at enqueue
/// time; the queue normally drains within a few batch commits, so
/// retries back off exponentially from [`RetryPolicy::base_delay`] up to
/// [`RetryPolicy::max_delay`], each sleep jittered down by up to half to
/// keep a fleet of clients from resubmitting in lockstep. After
/// [`RetryPolicy::max_attempts`] total attempts the write surfaces
/// [`io::ErrorKind::TimedOut`] instead of hanging the caller forever on
/// a wedged committer.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total submission attempts, the initial one included (min 1).
    pub max_attempts: u32,
    /// Backoff before the first resubmit; doubles every retry after.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 16,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), jittered into
    /// `[d/2, d]` where `d = min(base_delay << retry, max_delay)`.
    fn backoff(&self, retry: u32, seed: &mut u64) -> Duration {
        let d = self
            .base_delay
            .checked_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .map_or(self.max_delay, |d| d.min(self.max_delay));
        // xorshift64*: no external RNG dependency, good enough to
        // decorrelate concurrent clients.
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let half = d.as_nanos() as u64 / 2;
        let jitter = if half == 0 { 0 } else { *seed % (half + 1) };
        d.saturating_sub(Duration::from_nanos(jitter))
    }
}

/// A blocking, pipelining-capable connection to a kvserver.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Responses read while waiting for a different `req_id`; bounded by
    /// `stash_cap`.
    stashed: HashMap<u64, Response>,
    stash_cap: usize,
    lat: ClientLatencies,
}

impl Client {
    /// Connects and disables Nagle (the protocol is already batched).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            stashed: HashMap::new(),
            stash_cap: DEFAULT_STASH_CAP,
            lat: ClientLatencies::default(),
        })
    }

    /// Overrides the out-of-order response stash bound (default
    /// [`DEFAULT_STASH_CAP`]). A `recv_for` that would stash more than
    /// this many responses fails with [`io::ErrorKind::InvalidData`]
    /// instead of growing without limit.
    pub fn set_stash_cap(&mut self, cap: usize) {
        self.stash_cap = cap;
    }

    /// Client-observed latency histograms accumulated so far on this
    /// connection.
    pub fn latencies(&self) -> &ClientLatencies {
        &self.lat
    }

    /// Read timeout for responses (`None` blocks forever). Lets tests
    /// assert that an ack is *withheld*.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends a request without waiting for its response (pipelining).
    /// Returns the assigned `req_id`; pair with [`Client::recv_for`].
    pub fn send(&mut self, mut req: Request) -> io::Result<u64> {
        let id = self.fresh_id();
        req.set_req_id(id);
        write_frame(&mut self.writer, &encode_request(&req))?;
        Ok(id)
    }

    /// Flushes buffered outgoing frames to the socket. Requests sent with
    /// [`Client::send`] sit in the write buffer until this, until the
    /// buffer fills, or until a receive would have to wait on the socket
    /// (see [`Client::recv_any`]).
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads the next response off the wire, whatever its id.
    ///
    /// The write buffer is flushed only when the read buffer does not
    /// already hold a whole response frame, that is, always before the
    /// read could block. Requests sent while already-buffered replies are
    /// drained therefore leave together in one write, not one each.
    pub fn recv_any(&mut self) -> io::Result<Response> {
        if !holds_whole_frame(self.reader.buffer()) {
            self.flush()?;
        }
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_response(&payload).map_err(|e| bad_data(e.0))
    }

    /// Blocks until the response for `req_id` arrives, stashing any
    /// other responses read along the way.
    pub fn recv_for(&mut self, req_id: u64) -> io::Result<Response> {
        if let Some(resp) = self.stashed.remove(&req_id) {
            return Ok(resp);
        }
        loop {
            let resp = self.recv_any()?;
            if resp.req_id() == req_id {
                return Ok(resp);
            }
            if self.stashed.len() >= self.stash_cap {
                // Either the caller abandoned a huge number of req-ids or
                // the server is answering ids we never asked about;
                // growing forever would turn a protocol bug into an OOM.
                return Err(bad_data(
                    "response stash overflow: too many out-of-order responses held \
                     while waiting (see Client::set_stash_cap)",
                ));
            }
            self.stashed.insert(resp.req_id(), resp);
        }
    }

    /// Pipelined PUT: sends without waiting. Non-durable puts are acked
    /// at enqueue; durable puts only after their batch's fence.
    pub fn send_put(&mut self, key: u64, value: &[u8], durable: bool) -> io::Result<u64> {
        self.send(Request::Put {
            req_id: 0,
            key,
            value: value.to_vec(),
            durable,
            traced: false,
        })
    }

    /// Blocking PUT.
    pub fn put(&mut self, key: u64, value: &[u8], durable: bool) -> io::Result<WriteOutcome> {
        let t0 = Instant::now();
        let id = self.send_put(key, value, durable)?;
        let out = self.write_outcome(id)?;
        self.lat.put.record(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Blocking PUT with the wire trace flag set: the server samples the
    /// request regardless of its configured rate, so its span shows up in
    /// a following [`Client::trace`] dump.
    pub fn put_traced(
        &mut self,
        key: u64,
        value: &[u8],
        durable: bool,
    ) -> io::Result<WriteOutcome> {
        let t0 = Instant::now();
        let id = self.send(Request::Put {
            req_id: 0,
            key,
            value: value.to_vec(),
            durable,
            traced: true,
        })?;
        let out = self.write_outcome(id)?;
        self.lat.put.record(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Blocking PUT that resubmits on RETRY under the default
    /// [`RetryPolicy`]. Returns the number of retries it took; fails
    /// with [`io::ErrorKind::TimedOut`] once the policy's attempt
    /// budget is exhausted.
    pub fn put_retrying(&mut self, key: u64, value: &[u8], durable: bool) -> io::Result<u64> {
        self.put_retrying_with(key, value, durable, &RetryPolicy::default())
    }

    /// Blocking PUT that resubmits on RETRY with explicit backoff
    /// bounds. See [`RetryPolicy`].
    ///
    /// Only RETRY — "the commit queue was momentarily full" — is
    /// retryable. Terminal responses fail fast on the first attempt:
    /// a clean server shutdown surfaces as
    /// [`io::ErrorKind::ConnectionAborted`], a write refused by a
    /// read-only replica as [`io::ErrorKind::Unsupported`], and a dead
    /// connection as whatever the transport reports. None of them burn
    /// the backoff schedule: resubmitting to a server that told us it is
    /// going away cannot succeed, it can only delay the caller by the
    /// sum of every backoff sleep.
    pub fn put_retrying_with(
        &mut self,
        key: u64,
        value: &[u8],
        durable: bool,
        policy: &RetryPolicy,
    ) -> io::Result<u64> {
        let attempts = policy.max_attempts.max(1);
        let mut seed = key | 1;
        for retry in 0..attempts {
            match self.put(key, value, durable)? {
                WriteOutcome::Done { .. } => return Ok(u64::from(retry)),
                WriteOutcome::Retry => {
                    if retry + 1 < attempts {
                        std::thread::sleep(policy.backoff(retry, &mut seed));
                    }
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("put of key {key} still RETRY after {attempts} attempts"),
        ))
    }

    /// Blocking DELETE; `Done { existed }` reports whether the key was
    /// present.
    pub fn delete(&mut self, key: u64) -> io::Result<WriteOutcome> {
        let t0 = Instant::now();
        let id = self.send(Request::Delete {
            req_id: 0,
            key,
            durable: true,
            traced: false,
        })?;
        let out = self.write_outcome(id)?;
        self.lat.delete.record(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    fn write_outcome(&mut self, id: u64) -> io::Result<WriteOutcome> {
        match self.recv_for(id)? {
            Response::Ok { .. } | Response::Deleted { .. } => {
                Ok(WriteOutcome::Done { existed: true })
            }
            Response::NotFound { .. } => Ok(WriteOutcome::Done { existed: false }),
            Response::Retry { .. } => Ok(WriteOutcome::Retry),
            other => Err(refused(other)),
        }
    }

    /// Blocking GET.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let id = self.send(Request::Get { req_id: 0, key })?;
        let out = match self.recv_for(id)? {
            Response::Value { value, .. } => Ok(Some(value)),
            Response::NotFound { .. } => Ok(None),
            other => Err(refused(other)),
        }?;
        self.lat.get.record(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Blocking range scan: up to `limit` live keys `>= start_key`,
    /// ascending (`limit` is capped server-side at
    /// [`MAX_SCAN_KEYS`](kvserver::proto::MAX_SCAN_KEYS); page longer
    /// ranges by re-issuing from `last_key + 1`).
    pub fn scan(&mut self, start_key: u64, limit: u32) -> io::Result<Vec<u64>> {
        let t0 = Instant::now();
        let id = self.send(Request::Scan {
            req_id: 0,
            start_key,
            limit,
        })?;
        let keys = match self.recv_for(id)? {
            Response::Keys { keys, .. } => Ok(keys),
            other => Err(refused(other)),
        }?;
        self.lat.scan.record(t0.elapsed().as_nanos() as u64);
        Ok(keys)
    }

    /// Range scan that transparently pages past the server's per-request
    /// [`MAX_SCAN_KEYS`] cap: up to `limit` live keys `>= start_key`,
    /// ascending, fetched as a sequence of capped pages.
    ///
    /// The resume key after a full page is `last_returned + 1` — exactly
    /// one past the boundary key. Resuming *at* the boundary key would
    /// return it twice; resuming two past it would skip a key if
    /// `last + 1` happens to be live. The `+ 1` stays correct even when
    /// the boundary key is deleted between pages: the next page asks for
    /// keys `>= last + 1`, a range the deleted key was never in, so the
    /// scan neither re-finds it nor skips its neighbors (ISSUE 10
    /// satellite 1; pinned against an embedded full scan in
    /// `integration/tests/replication_tests.rs`).
    ///
    /// Keys are collected page-at-a-time, so concurrent writers see the
    /// usual per-page consistency, not a range-wide snapshot.
    pub fn scan_paged(&mut self, start_key: u64, limit: usize) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut resume = start_key;
        while out.len() < limit {
            let page_limit = (limit - out.len()).min(MAX_SCAN_KEYS) as u32;
            let page = self.scan(resume, page_limit)?;
            let short = page.len() < page_limit as usize;
            let last = page.last().copied();
            out.extend(page);
            if short {
                break; // range exhausted before the limit
            }
            match last.and_then(|k| k.checked_add(1)) {
                Some(next) => resume = next,
                // Page ended at u64::MAX: no key can follow.
                None => break,
            }
        }
        Ok(out)
    }

    /// SYNC barrier: returns once the server has committed (fenced) every
    /// write submitted before this call, on this or any other connection.
    pub fn sync(&mut self) -> io::Result<()> {
        let id = self.send(Request::Sync { req_id: 0 })?;
        match self.recv_for(id)? {
            Response::Ok { .. } => Ok(()),
            other => Err(refused(other)),
        }
    }

    /// Fetches the observability snapshot as JSON or Prometheus text.
    pub fn stats(&mut self, format: StatsFormat) -> io::Result<String> {
        let id = self.send(Request::Stats { req_id: 0, format })?;
        match self.recv_for(id)? {
            Response::Stats { text, .. } => Ok(text),
            other => Err(refused(other)),
        }
    }

    /// Fetches up to `max` retained trace spans, oldest first, plus the
    /// recent journal tail, decoded from the binary TRACE response.
    pub fn trace(&mut self, max: u32) -> io::Result<TracePayload> {
        let id = self.send(Request::Trace { req_id: 0, max })?;
        match self.recv_for(id)? {
            Response::Trace { spans, events, .. } => Ok(TracePayload { spans, events }),
            other => Err(refused(other)),
        }
    }

    /// Switches (or with [`ModeArg::Query`], reads) the store mode.
    /// Returns whether the store is now in Write-Intensive Mode.
    pub fn mode(&mut self, arg: ModeArg) -> io::Result<bool> {
        let id = self.send(Request::Mode { req_id: 0, arg })?;
        match self.recv_for(id)? {
            Response::Mode {
                write_intensive, ..
            } => Ok(write_intensive),
            other => Err(refused(other)),
        }
    }

    /// Polls the server's replication floors. Against a primary this
    /// returns `(shipped, quorum_acked, 0)`; against a replica,
    /// `(received, acked, applied)`. All three are ship indices — the
    /// dense sequence numbers of the replication stream — so
    /// `primary.shipped - replica.applied` is the replica's lag in
    /// chunks (see [`ReplicaReader::get_within`]).
    pub fn repl_floor(&mut self) -> io::Result<ReplFloors> {
        let id = self.send(Request::ReplFloor { req_id: 0 })?;
        match self.recv_for(id)? {
            Response::ReplFloor {
                shipped,
                acked,
                applied,
                ..
            } => Ok(ReplFloors {
                shipped,
                acked,
                applied,
            }),
            other => Err(refused(other)),
        }
    }
}

/// One REPL_FLOOR poll: the server's view of the replication stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplFloors {
    /// Primary: highest ship index published. Replica: highest received.
    pub shipped: u64,
    /// Primary: quorum-acked floor. Replica: highest ship acked back.
    pub acked: u64,
    /// Primary: always 0. Replica: highest ship applied to its image.
    pub applied: u64,
}

/// Read-from-replica with a staleness bound, generalizing the ack-floor
/// protocol across the wire: reads are served by a replica, but only
/// once its applied floor is provably within `bound` ship indices of the
/// primary's shipped floor at poll time.
///
/// The guarantee is prefix-based: a successful [`ReplicaReader::get_within`]
/// with bound `b` reflects every write the primary had shipped at least
/// `b` chunks before the poll — with `b = 0`, *every* write shipped
/// before the poll. Combined with the `replica-quorum` ack policy (a
/// durable ack implies the write was shipped *and* quorum-applied), a
/// bound-0 read issued after an ack is observed always sees that write.
pub struct ReplicaReader {
    primary: Client,
    replica: Client,
}

impl ReplicaReader {
    /// Connects one control connection to the primary (floor polls only)
    /// and one to the replica (floor polls + reads).
    pub fn connect<A: ToSocketAddrs, B: ToSocketAddrs>(primary: A, replica: B) -> io::Result<Self> {
        Ok(Self {
            primary: Client::connect(primary)?,
            replica: Client::connect(replica)?,
        })
    }

    /// The replica's current lag behind the primary, in ship indices.
    pub fn lag(&mut self) -> io::Result<u64> {
        let shipped = self.primary.repl_floor()?.shipped;
        let applied = self.replica.repl_floor()?.applied;
        Ok(shipped.saturating_sub(applied))
    }

    /// Staleness-bounded GET: waits (polling) until the replica's
    /// applied floor is within `bound` ship indices of the primary's
    /// shipped floor, then reads `key` from the replica. Fails with
    /// [`io::ErrorKind::TimedOut`] if the replica cannot close to within
    /// the bound before `timeout` — e.g. it is partitioned or dead —
    /// rather than silently serving a stale read.
    pub fn get_within(
        &mut self,
        key: u64,
        bound: u64,
        timeout: Duration,
    ) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            // Poll order matters: read the primary's shipped floor
            // *before* the replica's applied floor. Applied can only
            // grow in between, so `shipped - applied` never understates
            // the lag relative to the shipped floor we compare against.
            let shipped = self.primary.repl_floor()?.shipped;
            let applied = self.replica.repl_floor()?.applied;
            if shipped.saturating_sub(applied) <= bound {
                break;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "replica lag {} above staleness bound {bound}",
                        shipped.saturating_sub(applied)
                    ),
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        self.replica.get(key)
    }

    /// Direct access to the replica connection (scans, stats, …).
    pub fn replica(&mut self) -> &mut Client {
        &mut self.replica
    }

    /// Direct access to the primary connection.
    pub fn primary(&mut self) -> &mut Client {
        &mut self.primary
    }
}

/// Whether `buf` starts with a complete frame: a 4-byte length prefix
/// and at least that many payload bytes.
fn holds_whole_frame(buf: &[u8]) -> bool {
    buf.split_first_chunk::<4>()
        .is_some_and(|(prefix, rest)| frame_len(*prefix).is_ok_and(|len| rest.len() >= len))
}

/// The tail every blocking call shares: a server ERR becomes
/// [`server_err`], any other response the call did not expect is
/// [`io::ErrorKind::InvalidData`].
fn refused(resp: Response) -> io::Error {
    match resp {
        Response::Err { message, .. } => server_err(message),
        other => bad_data(&format!("unexpected {}", other.name())),
    }
}
