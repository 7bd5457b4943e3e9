//! Wire protocol: length-prefixed binary frames.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Requests and responses carry a client-chosen `req_id` so a
//! pipelining client can match out-of-order completions: inline GET
//! replies may interleave with durable write acks that wait for a later
//! group-commit fence.
//!
//! ```text
//! frame    := len:u32 payload[len]
//! request  := opcode:u8 req_id:u64 [flags:u8] field*
//! response := status:u8 req_id:u64 field*
//! ```
//!
//! The grammar of every message is its row in one of the two
//! `wire_enum!` tables below ([`Request`], [`Response`]): the tag
//! byte, the variant, the flags byte if it has one, and its fields in
//! wire order. The tables generate the enums, [`encode_request`] /
//! [`decode_request`], [`encode_response`] / [`decode_response`],
//! `req_id()`, `set_req_id()` and `name()`, so a field's place on the
//! wire is written once. Each field type encodes itself through
//! `Field`:
//!
//! ```text
//! u32 / u64        little-endian            bool    u8 (0 or 1)
//! str              len:u32 utf8[len]        (A, B)  A then B
//! Vec<u8>          len:u32 bytes[len]       (len <= MAX_VALUE)
//! Vec<T>           count:u32 T * count      (count <= T's cap and the bytes left)
//! StatsFormat      u8 (0 = JSON, 1 = Prometheus)
//! ModeArg          u8 (0 = Normal, 1 = WriteIntensive, 0xFF = query current mode)
//! RepOp            key:u64 opflags:u8 [value:Vec<u8>]   (opflags bit 0 = tombstone,
//!                                                        no value when set)
//! SpanRecord       id:u64 op:str key:u64 start_ns:u64 total_ns:u64 forced:bool
//!                  note:str stages:Vec<(str, u64)>
//! TraceEventRecord seq:u64 ts:u64 name:str fields:Vec<(str, u64)> labels:Vec<(str, str)>
//! ```
//!
//! Replication frames ride the same connection machinery: a replica
//! sends REPL_SUBSCRIBE and receives one REPL_FLOOR (its assigned
//! `sub_id` plus the primary's floors), then a stream of REPL_BATCH
//! frames that all reuse the subscribe's `req_id`. Each batch carries
//! one *ship index* — a dense 1-based sequence over published chunks —
//! which the replica acknowledges with REPL_ACK after applying.
//! REPL_FLOOR (request) polls the shipped/acked/applied floors of
//! either side without subscribing.
//!
//! `flags` bit 0 on PUT/DELETE marks the write *durable*: its ack is
//! withheld until the group-commit fence that persists it. Bit 1 marks
//! the request *traced*: the server force-samples it into a trace span
//! regardless of its sampling rate, readable back via TRACE. All other
//! flag bits must be zero.
//!
//! Decoding is strict: unknown opcodes, oversized lengths, short or
//! trailing bytes all yield [`ProtoError`] — the server closes the
//! connection rather than guess at framing. Decoders never panic on
//! arbitrary bytes (see `tests/proto_props.rs`).

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

pub use chameleon_obs::trace::{SpanRecord, TraceEventRecord, TracePayload};

/// Largest accepted value, in bytes.
pub const MAX_VALUE: usize = 1 << 20;
/// Largest accepted frame payload (a PUT of a maximal value, with slack
/// for the header; also bounds STATS/ERR text and a maximal KEYS body).
pub const MAX_FRAME: usize = MAX_VALUE + 64;
/// Largest per-SCAN result count, bounding both the request's `limit`
/// and a decoded KEYS body (8 * 4096 = 32 KiB, well inside `MAX_FRAME`).
/// Clients page longer ranges by re-issuing from `last_key + 1`.
pub const MAX_SCAN_KEYS: usize = 4096;

/// PUT/DELETE flag bit: withhold the ack until the write is fenced.
pub const FLAG_DURABLE: u8 = 0x01;
/// PUT/DELETE flag bit: force-sample this request into a trace span.
pub const FLAG_TRACE: u8 = 0x02;
/// REPL_BATCH per-op flag bit: the op is a delete (no value field).
pub const REP_FLAG_TOMBSTONE: u8 = 0x01;

/// A malformed or oversized frame. Fatal to the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub &'static str);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// STATS output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    Json = 0,
    Prometheus = 1,
}

/// MODE argument: switch the store's mode or query it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArg {
    Normal,
    WriteIntensive,
    Query,
}

/// One replicated write: a put carries its value, a delete is a
/// tombstone (`value == None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepOp {
    pub key: u64,
    pub value: Option<Vec<u8>>,
}

/// Declares one message enum as a table of rows
/// `TAG = byte => Variant [flags] { field: Type [where at_most(cap, refusal)], .. }`
/// and generates the enum (every variant also carries `req_id`, and a
/// flags row `durable`/`traced`), its tag consts in module `$tags`, the
/// encoder and decoder, `req_id()`, `set_req_id()` and `name()` (the
/// tag's name). Both directions walk the same field list: the decoder
/// takes each field in the order the encoder puts it.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident in $tags:ident, $encode:ident, $decode:ident, $unknown:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:ident = $byte:literal => $variant:ident $([$durable:ident, $traced:ident])? {
                    $($field:ident: $ty:ty $(where at_most($cap:expr, $refusal:literal))?),*
                },
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant { req_id: u64, $($field: $ty,)* $($durable: bool, $traced: bool,)? },
            )+
        }

        /// Tag bytes, one per variant.
        mod $tags {
            $(pub const $tag: u8 = $byte;)+
        }

        impl $name {
            pub fn req_id(&self) -> u64 {
                match *self {
                    $($name::$variant { req_id, .. } => req_id,)+
                }
            }

            pub fn set_req_id(&mut self, id: u64) {
                match self {
                    $($name::$variant { req_id, .. } => *req_id = id,)+
                }
            }

            /// The variant's wire name, e.g. `NOT_FOUND`.
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => stringify!($tag),)+
                }
            }
        }

        /// Encodes one payload (no length prefix).
        pub fn $encode(msg: &$name) -> Vec<u8> {
            let mut out = Vec::with_capacity(32);
            match msg {
                $(
                    $name::$variant { req_id, $($field,)* $($durable, $traced,)? } => {
                        out.push($tags::$tag);
                        req_id.put(&mut out);
                        $(out.push(encode_flags(*$durable, *$traced));)?
                        $(
                            $(debug_assert!(*$field as usize <= $cap, $refusal);)?
                            $field.put(&mut out);
                        )*
                    }
                )+
            }
            out
        }

        /// Decodes one payload (the bytes after the length prefix).
        pub fn $decode(payload: &[u8]) -> Result<$name, ProtoError> {
            let mut c = Cursor::new(payload);
            let tag = c.u8()?;
            let req_id = u64::take(&mut c)?;
            let msg = match tag {
                $(
                    $tags::$tag => {
                        $(let ($durable, $traced) = decode_flags(c.u8()?)?;)?
                        $(
                            let $field = <$ty>::take(&mut c)?;
                            $(if $field as usize > $cap {
                                return Err(ProtoError($refusal));
                            })?
                        )*
                        $name::$variant { req_id, $($field,)* $($durable, $traced,)? }
                    }
                )+
                _ => return Err(ProtoError($unknown)),
            };
            c.finish()?;
            Ok(msg)
        }
    };
}

wire_enum! {
    /// A decoded client request.
    pub enum Request in opcode, encode_request, decode_request, "unknown opcode" {
        GET = 0x01 => Get { key: u64 },
        PUT = 0x02 => Put [durable, traced] { key: u64, value: Vec<u8> },
        DELETE = 0x03 => Delete [durable, traced] { key: u64 },
        SYNC = 0x04 => Sync {},
        STATS = 0x05 => Stats { format: StatsFormat },
        MODE = 0x06 => Mode { arg: ModeArg },
        /// Fetch the newest `max` completed trace spans plus a journal tail
        /// (see `chameleon_obs::trace`).
        TRACE = 0x07 => Trace { max: u32 },
        /// Range scan: up to `limit` live keys `>= start_key`, ascending.
        SCAN = 0x08 => Scan {
            start_key: u64,
            limit: u32 where at_most(MAX_SCAN_KEYS, "scan limit too large")
        },
        /// Subscribe to the replication stream from ship index `start_ship`.
        REPL_SUBSCRIBE = 0x09 => ReplSubscribe { start_ship: u64 },
        /// Acknowledge application of every batch up to ship index `ship`.
        REPL_ACK = 0x0A => ReplAck { sub_id: u64, ship: u64 },
        /// Poll the replication floors without subscribing.
        REPL_FLOOR = 0x0B => ReplFloor {},
    }
}

wire_enum! {
    /// A decoded server response.
    pub enum Response in status, encode_response, decode_response, "unknown status" {
        OK = 0x00 => Ok {},
        VALUE = 0x01 => Value { value: Vec<u8> },
        NOT_FOUND = 0x02 => NotFound {},
        DELETED = 0x03 => Deleted {},
        STATS = 0x04 => Stats { text: String },
        MODE = 0x05 => Mode { write_intensive: bool },
        /// The commit queue was full; resubmit.
        RETRY = 0x06 => Retry {},
        ERR = 0x07 => Err { message: String },
        /// Completed trace spans plus the journal tail.
        TRACE = 0x08 => Trace { spans: Vec<SpanRecord>, events: Vec<TraceEventRecord> },
        /// SCAN result: live keys, ascending.
        KEYS = 0x09 => Keys { keys: Vec<u64> },
        /// One shipped chunk of committed, fenced write ops.
        REPL_BATCH = 0x0A => ReplBatch { ship: u64, ops: Vec<RepOp> },
        /// Replication floors: reply to REPL_SUBSCRIBE (carrying the
        /// assigned `sub_id`) and to REPL_FLOOR polls (`sub_id` = 0).
        REPL_FLOOR = 0x0B => ReplFloor { sub_id: u64, shipped: u64, acked: u64, applied: u64 },
    }
}

/// Strict little-endian cursor over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError("truncated frame"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.bytes(N)?);
        Ok(raw)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.array::<1>()?[0])
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.left() == 0 {
            Ok(())
        } else {
            Err(ProtoError("trailing bytes in frame"))
        }
    }
}

fn decode_flags(flags: u8) -> Result<(bool, bool), ProtoError> {
    if flags & !(FLAG_DURABLE | FLAG_TRACE) != 0 {
        return Err(ProtoError("reserved flag bits set"));
    }
    Ok((flags & FLAG_DURABLE != 0, flags & FLAG_TRACE != 0))
}

fn encode_flags(durable: bool, traced: bool) -> u8 {
    (if durable { FLAG_DURABLE } else { 0 }) | (if traced { FLAG_TRACE } else { 0 })
}

/// A type with one wire encoding: `take` reads back exactly what `put`
/// wrote, and refuses anything `put` could not have written.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError>;
}

/// An element of a `count:u32` list: at most `CAP` of them, else the
/// decoder refuses the list with `TOO_LONG`.
trait Item: Field {
    const CAP: usize = usize::MAX;
    const TOO_LONG: &'static str = "";
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        c.array().map(u32::from_le_bytes)
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        c.array().map(u64::from_le_bytes)
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match c.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError("bool byte not 0 or 1")),
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let len = u32::take(c)? as usize;
        std::str::from_utf8(c.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| ProtoError("text not utf-8"))
    }
}

/// A value: `len:u32` then at most [`MAX_VALUE`] bytes.
impl Field for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let len = u32::take(c)? as usize;
        if len > MAX_VALUE {
            return Err(ProtoError("value too large"));
        }
        c.bytes(len).map(<[u8]>::to_vec)
    }
}

/// A `count:u32` list. Every item takes at least one byte, so a count
/// above the bytes left is refused before anything is reserved for it.
impl<T: Item> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= T::CAP, "{}", T::TOO_LONG);
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let count = u32::take(c)? as usize;
        if count > T::CAP {
            return Err(ProtoError(T::TOO_LONG));
        }
        if count > c.left() {
            return Err(ProtoError("list longer than frame"));
        }
        (0..count).map(|_| T::take(c)).collect()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok((A::take(c)?, B::take(c)?))
    }
}

impl<A: Field, B: Field> Item for (A, B) {}

impl Item for u64 {
    const CAP: usize = MAX_SCAN_KEYS;
    const TOO_LONG: &'static str = "key list too large";
}

impl Field for StatsFormat {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match c.u8()? {
            0 => Ok(StatsFormat::Json),
            1 => Ok(StatsFormat::Prometheus),
            _ => Err(ProtoError("unknown stats format")),
        }
    }
}

impl Field for ModeArg {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ModeArg::Normal => 0,
            ModeArg::WriteIntensive => 1,
            ModeArg::Query => 0xFF,
        });
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match c.u8()? {
            0 => Ok(ModeArg::Normal),
            1 => Ok(ModeArg::WriteIntensive),
            0xFF => Ok(ModeArg::Query),
            _ => Err(ProtoError("unknown mode")),
        }
    }
}

impl Field for RepOp {
    fn put(&self, out: &mut Vec<u8>) {
        self.key.put(out);
        match &self.value {
            Some(v) => {
                out.push(0);
                v.put(out);
            }
            None => out.push(REP_FLAG_TOMBSTONE),
        }
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let key = u64::take(c)?;
        let value = match c.u8()? {
            0 => Some(Vec::take(c)?),
            REP_FLAG_TOMBSTONE => None,
            _ => return Err(ProtoError("reserved repl op flag bits set")),
        };
        Ok(RepOp { key, value })
    }
}

impl Item for RepOp {
    const CAP: usize = MAX_SCAN_KEYS;
    const TOO_LONG: &'static str = "repl batch too large";
}

/// `Field` and `Item` for a record whose fields all go on the wire, in
/// the order listed.
macro_rules! wire_record {
    ($ty:ident { $($field:ident),+ }) => {
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
                Ok($ty { $($field: Field::take(c)?),+ })
            }
        }

        impl Item for $ty {}
    };
}

wire_record!(SpanRecord {
    id,
    op,
    key,
    start_ns,
    total_ns,
    forced,
    note,
    stages
});
wire_record!(TraceEventRecord {
    seq,
    ts,
    name,
    fields,
    labels
});

/// Decodes a frame's length prefix, refusing lengths above [`MAX_FRAME`]
/// (fatal: framing can't be resynchronized).
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError("frame too large"));
    }
    Ok(len)
}

/// Writes `payload` as one frame: length prefix, then the bytes, handed
/// to the writer as one vectored write. On a bare `TcpStream` under
/// `TCP_NODELAY` that is one syscall and one segment per frame, not one
/// for the prefix and another for the payload; a partial write finishes
/// with `write_all`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let prefix = (payload.len() as u32).to_le_bytes();
    let n = loop {
        match w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(payload)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if n < prefix.len() {
        w.write_all(&prefix[n..])?;
        w.write_all(payload)
    } else {
        w.write_all(&payload[n - prefix.len()..])
    }
}

/// Reads one frame payload. Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF mid-frame, or a length above [`MAX_FRAME`], is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_raw = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_raw[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = frame_len(len_raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_all_variants() {
        let reqs = vec![
            Request::Get { req_id: 1, key: 42 },
            Request::Put {
                req_id: 2,
                key: 7,
                value: b"v".to_vec(),
                durable: true,
                traced: false,
            },
            Request::Put {
                req_id: 3,
                key: 8,
                value: Vec::new(),
                durable: false,
                traced: true,
            },
            Request::Delete {
                req_id: 4,
                key: 9,
                durable: true,
                traced: true,
            },
            Request::Sync { req_id: 5 },
            Request::Stats {
                req_id: 6,
                format: StatsFormat::Prometheus,
            },
            Request::Mode {
                req_id: 7,
                arg: ModeArg::Query,
            },
            Request::Trace { req_id: 8, max: 64 },
            Request::Scan {
                req_id: 9,
                start_key: u64::MAX,
                limit: MAX_SCAN_KEYS as u32,
            },
            Request::ReplSubscribe {
                req_id: 10,
                start_ship: 1,
            },
            Request::ReplAck {
                req_id: 11,
                sub_id: 3,
                ship: u64::MAX,
            },
            Request::ReplFloor { req_id: 12 },
        ];
        for req in reqs {
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip_all_variants() {
        let resps = vec![
            Response::Ok { req_id: 1 },
            Response::Value {
                req_id: 2,
                value: vec![0; 300],
            },
            Response::NotFound { req_id: 3 },
            Response::Deleted { req_id: 4 },
            Response::Stats {
                req_id: 5,
                text: "chameleon_x 1\n".to_owned(),
            },
            Response::Mode {
                req_id: 6,
                write_intensive: true,
            },
            Response::Retry { req_id: 7 },
            Response::Err {
                req_id: 8,
                message: "boom".to_owned(),
            },
            Response::Trace {
                req_id: 9,
                spans: Vec::new(),
                events: Vec::new(),
            },
            Response::Keys {
                req_id: 10,
                keys: Vec::new(),
            },
            Response::Keys {
                req_id: 11,
                keys: vec![0, 1, u64::MAX],
            },
            Response::ReplBatch {
                req_id: 12,
                ship: 7,
                ops: vec![
                    RepOp {
                        key: 1,
                        value: Some(b"v1".to_vec()),
                    },
                    RepOp {
                        key: 2,
                        value: None,
                    },
                    RepOp {
                        key: u64::MAX,
                        value: Some(Vec::new()),
                    },
                ],
            },
            Response::ReplBatch {
                req_id: 13,
                ship: u64::MAX,
                ops: Vec::new(),
            },
            Response::ReplFloor {
                req_id: 14,
                sub_id: 2,
                shipped: 100,
                acked: 90,
                applied: 95,
            },
        ];
        for resp in resps {
            let wire = encode_response(&resp);
            assert_eq!(decode_response(&wire).unwrap(), resp);
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let wire = encode_request(&Request::Put {
            req_id: 1,
            key: 2,
            value: b"abc".to_vec(),
            durable: false,
            traced: false,
        });
        for cut in 0..wire.len() {
            assert!(decode_request(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = wire.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }

    #[test]
    fn oversized_value_is_rejected_without_allocation() {
        let mut wire = vec![opcode::PUT];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.push(0);
        wire.extend_from_slice(&2u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_request(&wire), Err(ProtoError("value too large")));
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let mut wire = vec![opcode::DELETE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.push(0x04);
        wire.extend_from_slice(&2u64.to_le_bytes());
        assert!(decode_request(&wire).is_err());
    }

    #[test]
    fn trace_flag_round_trips_on_writes() {
        for (durable, traced) in [(false, false), (true, false), (false, true), (true, true)] {
            let req = Request::Delete {
                req_id: 1,
                key: 2,
                durable,
                traced,
            };
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn scan_limit_and_key_count_are_bounded() {
        // SCAN limit above the cap: rejected without serving.
        let mut wire = vec![opcode::SCAN];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&((MAX_SCAN_KEYS + 1) as u32).to_le_bytes());
        assert_eq!(
            decode_request(&wire),
            Err(ProtoError("scan limit too large"))
        );

        // KEYS count above the cap: rejected before allocating the list.
        let mut wire = vec![status::KEYS];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            decode_response(&wire),
            Err(ProtoError("key list too large"))
        );

        // Truncated and padded KEYS bodies are errors at every cut.
        let wire = encode_response(&Response::Keys {
            req_id: 2,
            keys: vec![3, 4, 5],
        });
        for cut in 0..wire.len() {
            assert!(decode_response(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = wire.clone();
        padded.push(0);
        assert!(decode_response(&padded).is_err());
    }

    #[test]
    fn repl_batch_bounds_and_flags_are_enforced() {
        // Op count above the cap: rejected before allocating the list.
        let mut wire = vec![status::REPL_BATCH];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            decode_response(&wire),
            Err(ProtoError("repl batch too large"))
        );

        // Oversized per-op value: rejected before allocation.
        let mut wire = vec![status::REPL_BATCH];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.push(0);
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_response(&wire), Err(ProtoError("value too large")));

        // Reserved per-op flag bits: rejected (keeps encoding canonical).
        let mut wire = vec![status::REPL_BATCH];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.push(0x02);
        assert_eq!(
            decode_response(&wire),
            Err(ProtoError("reserved repl op flag bits set"))
        );

        // Truncation at every cut of a mixed put/tombstone batch.
        let wire = encode_response(&Response::ReplBatch {
            req_id: 2,
            ship: 3,
            ops: vec![
                RepOp {
                    key: 4,
                    value: Some(b"abc".to_vec()),
                },
                RepOp {
                    key: 5,
                    value: None,
                },
            ],
        });
        for cut in 0..wire.len() {
            assert!(decode_response(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = wire.clone();
        padded.push(0);
        assert!(decode_response(&padded).is_err());
    }

    #[test]
    fn trace_counts_beyond_the_frame_are_refused_before_reserving() {
        // A span count of u32::MAX with nothing behind it.
        let mut wire = vec![status::TRACE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let refused = Err(ProtoError("list longer than frame"));
        assert_eq!(decode_response(&wire), refused);

        // One span whose stage count claims far more than the bytes left.
        let mut wire = vec![status::TRACE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        "put".to_owned().put(&mut wire);
        wire.extend_from_slice(&[0; 24]);
        wire.push(1);
        String::new().put(&mut wire);
        wire.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
        "decode".to_owned().put(&mut wire);
        wire.extend_from_slice(&5u64.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_response(&wire), refused);
    }

    #[test]
    fn frame_io_round_trips_and_detects_torn_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Torn mid-header and mid-payload.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err());
        let mut torn = &buf[..6];
        assert!(read_frame(&mut torn).is_err());

        // Oversized declared length.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// Counts write calls of either kind and accepts at most `room` bytes
    /// per call (`usize::MAX`: everything).
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
        room: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.room;
            for b in bufs {
                let take = b.len().min(room);
                self.out.extend_from_slice(&b[..take]);
                room -= take;
            }
            Ok(self.room - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_call() {
        let mut w = CountingWriter {
            out: Vec::new(),
            calls: 0,
            room: usize::MAX,
        };
        write_frame(&mut w, b"one segment").unwrap();
        assert_eq!(w.calls, 1);
        let mut expect = 11u32.to_le_bytes().to_vec();
        expect.extend_from_slice(b"one segment");
        assert_eq!(w.out, expect);

        // Short writes, tearing the prefix and then the payload, still
        // put the same bytes on the wire.
        for room in [1, 3, 4, 5, 9] {
            let mut w = CountingWriter {
                out: Vec::new(),
                calls: 0,
                room,
            };
            write_frame(&mut w, b"one segment").unwrap();
            assert_eq!(w.out, expect, "room {room}");
        }
    }
}
