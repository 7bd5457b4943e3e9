//! Per-connection state for the reactor: incremental frame reassembly
//! and a bounded outgoing-frame queue.
//!
//! A reactor worker never blocks on a socket, so frames arrive in
//! arbitrary fragments — a single `read(2)` may return half a length
//! prefix, three complete frames plus a tail, or one byte. [`FrameBuf`]
//! turns that byte stream back into whole frame payloads without ever
//! blocking or copying more than once. [`Conn`] pairs a `FrameBuf` with
//! the write side: a queue of encoded response frames drained on
//! `POLLOUT`, bounded in bytes so a slow or wedged reader sheds the
//! connection instead of growing server memory.
//!
//! A flush hands up to `MAX_IOVECS` (64) queued frames to one
//! `write_vectored` (`writev(2)`) call and advances through the queue by
//! the byte count it returns, so a burst of replies costs one syscall
//! (and, under `TCP_NODELAY`, as few segments as fit) rather than one per
//! frame. A frame cut mid-way resumes from its first unsent byte on the
//! next flush; its trace span is sealed exactly once, when its last byte
//! has been written.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use chameleon_obs::trace::TraceSpan;

use crate::proto::{frame_len, ProtoError};

/// Most queued frames one flush hands to a single `writev(2)`. Linux's
/// `IOV_MAX` is 1024; a longer queue takes further calls.
const MAX_IOVECS: usize = 64;

/// Incremental length-prefixed frame reassembly.
///
/// Feed arbitrary byte fragments with [`FrameBuf::extend`]; pull zero or
/// more complete frame payloads with [`FrameBuf::next_frame`]. The split
/// points of the incoming reads never affect the reassembled frames
/// (property-tested in `tests/conn_props.rs`).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`. Consumed prefixes
    /// are compacted away lazily, once they dominate the buffer, so
    /// steady-state parsing does no per-frame memmove.
    start: usize,
}

impl FrameBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(bytes);
    }

    /// Returns the next complete frame payload, `Ok(None)` if more bytes
    /// are needed, or a [`ProtoError`] if [`frame_len`] refuses the
    /// declared length.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let Some((prefix, body)) = self.buf[self.start..].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = frame_len(*prefix)?;
        let Some(payload) = body.get(..len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact_if_worthwhile(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One encoded response frame queued for writing, with the trace span to
/// seal once its last byte reaches the socket.
struct OutFrame {
    /// Length prefix + payload, ready for `writev(2)`.
    bytes: Vec<u8>,
    written: usize,
    span: Option<Arc<TraceSpan>>,
}

/// What [`Conn::read_ready`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Socket drained to `WouldBlock`; connection still open.
    Open,
    /// Peer closed its write side (clean EOF).
    Eof,
    /// Read error — connection is unusable.
    Err,
}

/// A reactor-owned connection: nonblocking stream plus read/write state.
/// Generic over the stream only so tests can drive the write path with a
/// scripted writer; the reactor always uses a `TcpStream`.
pub(crate) struct Conn<S = TcpStream> {
    pub stream: S,
    pub id: u64,
    pub framebuf: FrameBuf,
    outq: VecDeque<OutFrame>,
    /// Total unsent bytes across `outq`; compared against
    /// `resp_queue_cap` to detect slow consumers.
    pub queued_bytes: usize,
    pub last_activity: Instant,
    /// Requests dispatched whose response has not yet come back through
    /// the worker's inbox (e.g. a durable write waiting on its fence).
    /// A connection with work in flight is live no matter how long the
    /// socket has been read-silent — the idle sweep must not reap it.
    pub inflight: usize,
    /// A replication subscription was dispatched on this connection.
    /// The stream is push-based — after the subscribe the peer may
    /// legitimately send nothing for arbitrarily long (acks only follow
    /// shipped batches) — so a pinned connection is exempt from the
    /// idle sweep for its lifetime.
    pub pinned: bool,
    /// Peer closed its write side: no more requests will arrive, but
    /// already-queued replies still flush before the close.
    pub eof: bool,
    /// Set when the connection must be torn down (protocol error, slow
    /// consumer, idle timeout); the worker closes it at the end of the
    /// dispatch pass.
    pub doomed: bool,
}

impl<S> Conn<S> {
    pub fn new(stream: S, id: u64) -> Self {
        Self {
            stream,
            id,
            framebuf: FrameBuf::new(),
            outq: VecDeque::new(),
            queued_bytes: 0,
            last_activity: Instant::now(),
            inflight: 0,
            pinned: false,
            eof: false,
            doomed: false,
        }
    }

    /// Queues an encoded response frame (length prefix already included).
    /// Returns `false` — dooming the connection — if the queue would
    /// exceed `cap` unsent bytes: the client isn't reading its replies.
    pub fn enqueue(&mut self, frame: Vec<u8>, span: Option<Arc<TraceSpan>>, cap: usize) -> bool {
        if self.queued_bytes + frame.len() > cap {
            self.doomed = true;
            return false;
        }
        self.queued_bytes += frame.len();
        self.outq.push_back(OutFrame {
            bytes: frame,
            written: 0,
            span,
        });
        true
    }

    /// True if there are queued bytes still to write.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// Accounts `n` written bytes against the front of the queue, popping
    /// (and sealing the span of) every frame whose last byte they cover.
    fn advance(&mut self, mut n: usize, seal: &mut impl FnMut(Arc<TraceSpan>)) {
        self.queued_bytes -= n;
        while let Some(front) = self.outq.front_mut() {
            let left = front.bytes.len() - front.written;
            if left > n {
                front.written += n;
                return;
            }
            n -= left;
            let done = self.outq.pop_front().expect("front exists");
            if let Some(span) = done.span {
                seal(span);
            }
        }
        debug_assert_eq!(n, 0, "writer reported more bytes than were queued");
    }
}

impl<S: Read> Conn<S> {
    /// Drains the socket into `framebuf` until `WouldBlock`/EOF/error.
    pub fn read_ready(&mut self, scratch: &mut [u8]) -> ReadOutcome {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.framebuf.extend(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Err,
            }
        }
    }
}

impl<S: Write> Conn<S> {
    /// Writes queued frames until `WouldBlock` or the queue empties, up
    /// to `MAX_IOVECS` frames per `write_vectored` call. Fully-written
    /// frames have their trace spans sealed via `seal`, in queue order.
    /// Returns `false` on a write error (connection unusable).
    pub fn flush(&mut self, mut seal: impl FnMut(Arc<TraceSpan>)) -> bool {
        while !self.outq.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            for (slot, f) in iov.iter_mut().zip(&self.outq) {
                *slot = IoSlice::new(&f.bytes[f.written..]);
            }
            let n_iov = self.outq.len().min(MAX_IOVECS);
            match self.stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => return false,
                Ok(n) => {
                    // Write progress is activity: a peer slowly draining
                    // a large response is alive, even if it has sent no
                    // request bytes for longer than the idle timeout.
                    self.last_activity = Instant::now();
                    self.advance(n, &mut seal);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_FRAME;
    use std::cell::RefCell;
    use std::rc::Rc;

    use chameleon_obs::trace::Tracer;
    use proptest::prelude::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn whole_frame_in_one_extend() {
        let mut fb = FrameBuf::new();
        fb.extend(&frame(b"hello"));
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn frame_split_byte_by_byte() {
        let mut fb = FrameBuf::new();
        let wire = frame(b"split me");
        for b in &wire[..wire.len() - 1] {
            fb.extend(std::slice::from_ref(b));
            assert_eq!(fb.next_frame().unwrap(), None);
        }
        fb.extend(&wire[wire.len() - 1..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"split me");
    }

    #[test]
    fn several_frames_in_one_read() {
        let mut fb = FrameBuf::new();
        let mut wire = frame(b"a");
        wire.extend_from_slice(&frame(b""));
        wire.extend_from_slice(&frame(b"ccc"));
        fb.extend(&wire);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"ccc");
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn compaction_preserves_partial_tail() {
        let mut fb = FrameBuf::new();
        // Consume a large frame, leaving a partial prefix of the next one
        // buffered, then extend (triggering compaction) and finish it.
        let big = frame(&vec![0x42u8; 4096]);
        let next = frame(b"tail");
        fb.extend(&big);
        fb.extend(&next[..3]);
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), 4096);
        fb.extend(&next[3..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"tail");
    }

    /// A writer driven by a script of draws, one per call: a small draw
    /// fails the call with `WouldBlock` or `Interrupted`, a larger one
    /// accepts that many bytes. An empty script accepts everything.
    /// Output goes to a shared buffer so a seal callback can see how many
    /// bytes had been written when it ran.
    struct ScriptedWriter {
        out: Rc<RefCell<Vec<u8>>>,
        script: Vec<u8>,
        at: usize,
        vectored_calls: usize,
    }

    impl ScriptedWriter {
        fn new(script: Vec<u8>) -> Self {
            Self {
                out: Rc::default(),
                script,
                at: 0,
                vectored_calls: 0,
            }
        }
    }

    impl Write for ScriptedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            let mut room = if self.script.is_empty() {
                usize::MAX
            } else {
                let draw = self.script[self.at % self.script.len()];
                self.at += 1;
                match draw {
                    0..=31 => return Err(io::ErrorKind::WouldBlock.into()),
                    32..=47 => return Err(io::ErrorKind::Interrupted.into()),
                    d => usize::from(d - 47),
                }
            };
            let mut out = self.out.borrow_mut();
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(room);
                out.extend_from_slice(&b[..take]);
                n += take;
                room -= take;
                if room == 0 {
                    break;
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// However the writer splits, refuses or interrupts the calls, the
        /// bytes on the wire are the frames concatenated, `queued_bytes`
        /// tracks exactly what is unsent, and every span is sealed once,
        /// in queue order, only after its frame's last byte is written.
        #[test]
        fn flush_writes_frames_in_order_and_seals_each_span_once(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..255, 0..300), 1..90),
            script in proptest::collection::vec(0u8..255, 0..32),
        ) {
            let tracer = Tracer::disabled();
            // A final accepting draw guarantees progress on every pass
            // through the script.
            let mut script = script;
            script.push(255);
            let w = ScriptedWriter::new(script);
            let out = Rc::clone(&w.out);
            let mut conn = Conn::new(w, 7);
            let mut wire = Vec::new();
            let mut ends = Vec::new();
            let mut expect_sealed = Vec::new();
            for (i, p) in payloads.iter().enumerate() {
                let f = frame(p);
                wire.extend_from_slice(&f);
                ends.push(wire.len());
                // Every third frame carries no span, like untraced replies.
                let span = (i % 3 != 2).then(|| tracer.force("put", i as u64));
                if span.is_some() {
                    expect_sealed.push(i);
                }
                prop_assert!(conn.enqueue(f, span, usize::MAX));
            }
            let mut sealed = Vec::new();
            for _ in 0..100_000 {
                if !conn.wants_write() {
                    break;
                }
                let ok = conn.flush(|span| {
                    let i = span.key as usize;
                    assert!(
                        out.borrow().len() >= ends[i],
                        "span {i} sealed before its frame's last byte"
                    );
                    sealed.push(i);
                });
                prop_assert!(ok);
                prop_assert_eq!(conn.queued_bytes, wire.len() - out.borrow().len());
            }
            prop_assert!(!conn.wants_write());
            prop_assert_eq!(conn.queued_bytes, 0);
            prop_assert_eq!(&*out.borrow(), &wire);
            prop_assert_eq!(sealed, expect_sealed);
        }
    }

    /// A burst of queued replies leaves in one `writev`, not one write per
    /// frame; a queue longer than `MAX_IOVECS` takes one call per slice.
    #[test]
    fn queued_frames_leave_in_one_vectored_write() {
        let mut conn = Conn::new(ScriptedWriter::new(Vec::new()), 1);
        let mut wire = Vec::new();
        for i in 0..8u8 {
            let f = frame(&[i; 13]);
            wire.extend_from_slice(&f);
            assert!(conn.enqueue(f, None, usize::MAX));
        }
        assert!(conn.flush(|_| {}));
        assert_eq!(conn.stream.vectored_calls, 1);
        assert_eq!(*conn.stream.out.borrow(), wire);
        assert!(!conn.wants_write());
        assert_eq!(conn.queued_bytes, 0);

        for i in 0..(MAX_IOVECS + 1) {
            assert!(conn.enqueue(frame(&[i as u8]), None, usize::MAX));
        }
        assert!(conn.flush(|_| {}));
        assert_eq!(conn.stream.vectored_calls, 3);
        assert!(!conn.wants_write());
    }
}
