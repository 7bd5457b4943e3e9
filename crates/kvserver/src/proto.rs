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
//! request  := opcode:u8 req_id:u64 body
//!   GET    (0x01) := key:u64
//!   PUT    (0x02) := flags:u8 key:u64 vlen:u32 value[vlen]
//!   DELETE (0x03) := flags:u8 key:u64
//!   SYNC   (0x04) :=
//!   STATS  (0x05) := fmt:u8            (0 = JSON, 1 = Prometheus)
//!   MODE   (0x06) := mode:u8           (0 = Normal, 1 = WriteIntensive,
//!                                       0xFF = query current mode)
//!   TRACE  (0x07) := max:u32           (newest completed spans to return)
//!   SCAN   (0x08) := start_key:u64 limit:u32   (limit <= MAX_SCAN_KEYS)
//!   REPL_SUBSCRIBE (0x09) := start_ship:u64   (first ship index wanted)
//!   REPL_ACK       (0x0A) := sub_id:u64 ship:u64
//!   REPL_FLOOR     (0x0B) :=
//! response := status:u8 req_id:u64 body
//!   OK        (0x00) :=
//!   VALUE     (0x01) := vlen:u32 value[vlen]
//!   NOT_FOUND (0x02) :=
//!   DELETED   (0x03) :=
//!   STATS     (0x04) := text:str
//!   MODE      (0x05) := mode:u8
//!   RETRY     (0x06) :=                 (commit queue full; resubmit)
//!   ERR       (0x07) := message:str
//!   TRACE     (0x08) := count:u32 span * count  count:u32 event * count
//!     span  := id:u64 op:str key:u64 start_ns:u64 total_ns:u64 forced:u8
//!              note:str count:u32 (stage:str dur_ns:u64) * count
//!     event := seq:u64 ts:u64 name:str count:u32 (field:str value:u64) * count
//!              count:u32 (label:str value:str) * count
//!   KEYS      (0x09) := count:u32 key:u64 * count   (ascending live keys)
//!   REPL_BATCH (0x0A) := ship:u64 count:u32 op * count
//!     op := key:u64 opflags:u8 [vlen:u32 value[vlen]]
//!                                        (opflags bit 0 = tombstone; no
//!                                         value field when set)
//!   REPL_FLOOR (0x0B) := sub_id:u64 shipped:u64 acked:u64 applied:u64
//! str := len:u32 utf8[len]
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
    Json,
    Prometheus,
}

/// MODE argument: switch the store's mode or query it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArg {
    Normal,
    WriteIntensive,
    Query,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Get {
        req_id: u64,
        key: u64,
    },
    Put {
        req_id: u64,
        key: u64,
        value: Vec<u8>,
        durable: bool,
        traced: bool,
    },
    Delete {
        req_id: u64,
        key: u64,
        durable: bool,
        traced: bool,
    },
    Sync {
        req_id: u64,
    },
    Stats {
        req_id: u64,
        format: StatsFormat,
    },
    Mode {
        req_id: u64,
        arg: ModeArg,
    },
    /// Fetch the newest `max` completed trace spans plus a journal tail
    /// (see `chameleon_obs::trace`).
    Trace {
        req_id: u64,
        max: u32,
    },
    /// Range scan: up to `limit` live keys `>= start_key`, ascending.
    Scan {
        req_id: u64,
        start_key: u64,
        limit: u32,
    },
    /// Subscribe to the replication stream from ship index `start_ship`.
    ReplSubscribe {
        req_id: u64,
        start_ship: u64,
    },
    /// Acknowledge application of every batch up to ship index `ship`.
    ReplAck {
        req_id: u64,
        sub_id: u64,
        ship: u64,
    },
    /// Poll the replication floors without subscribing.
    ReplFloor {
        req_id: u64,
    },
}

impl Request {
    pub fn req_id(&self) -> u64 {
        match *self {
            Request::Get { req_id, .. }
            | Request::Put { req_id, .. }
            | Request::Delete { req_id, .. }
            | Request::Sync { req_id }
            | Request::Stats { req_id, .. }
            | Request::Mode { req_id, .. }
            | Request::Trace { req_id, .. }
            | Request::Scan { req_id, .. }
            | Request::ReplSubscribe { req_id, .. }
            | Request::ReplAck { req_id, .. }
            | Request::ReplFloor { req_id } => req_id,
        }
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok {
        req_id: u64,
    },
    Value {
        req_id: u64,
        value: Vec<u8>,
    },
    NotFound {
        req_id: u64,
    },
    Deleted {
        req_id: u64,
    },
    Stats {
        req_id: u64,
        text: String,
    },
    Mode {
        req_id: u64,
        write_intensive: bool,
    },
    Retry {
        req_id: u64,
    },
    Err {
        req_id: u64,
        message: String,
    },
    /// Completed trace spans plus the journal tail.
    Trace {
        req_id: u64,
        spans: Vec<SpanRecord>,
        events: Vec<TraceEventRecord>,
    },
    /// SCAN result: live keys, ascending.
    Keys {
        req_id: u64,
        keys: Vec<u64>,
    },
    /// One shipped chunk of committed, fenced write ops.
    ReplBatch {
        req_id: u64,
        ship: u64,
        ops: Vec<RepOp>,
    },
    /// Replication floors: reply to REPL_SUBSCRIBE (carrying the
    /// assigned `sub_id`) and to REPL_FLOOR polls (`sub_id` = 0).
    ReplFloor {
        req_id: u64,
        sub_id: u64,
        shipped: u64,
        acked: u64,
        applied: u64,
    },
}

/// One replicated write: a put carries its value, a delete is a
/// tombstone (`value == None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepOp {
    pub key: u64,
    pub value: Option<Vec<u8>>,
}

impl Response {
    pub fn req_id(&self) -> u64 {
        match *self {
            Response::Ok { req_id }
            | Response::Value { req_id, .. }
            | Response::NotFound { req_id }
            | Response::Deleted { req_id }
            | Response::Stats { req_id, .. }
            | Response::Mode { req_id, .. }
            | Response::Retry { req_id }
            | Response::Err { req_id, .. }
            | Response::Trace { req_id, .. }
            | Response::Keys { req_id, .. }
            | Response::ReplBatch { req_id, .. }
            | Response::ReplFloor { req_id, .. } => req_id,
        }
    }
}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_SYNC: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_MODE: u8 = 0x06;
const OP_TRACE: u8 = 0x07;
const OP_SCAN: u8 = 0x08;
const OP_REPL_SUBSCRIBE: u8 = 0x09;
const OP_REPL_ACK: u8 = 0x0A;
const OP_REPL_FLOOR: u8 = 0x0B;

const ST_OK: u8 = 0x00;
const ST_VALUE: u8 = 0x01;
const ST_NOT_FOUND: u8 = 0x02;
const ST_DELETED: u8 = 0x03;
const ST_STATS: u8 = 0x04;
const ST_MODE: u8 = 0x05;
const ST_RETRY: u8 = 0x06;
const ST_ERR: u8 = 0x07;
const ST_TRACE: u8 = 0x08;
const ST_KEYS: u8 = 0x09;
const ST_REPL_BATCH: u8 = 0x0A;
const ST_REPL_FLOOR: u8 = 0x0B;

/// Strict little-endian cursor over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ProtoError("truncated frame"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError("truncated frame"))?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError("truncated frame"))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
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

    /// A `str` field: `len:u32` then that many bytes of UTF-8.
    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| ProtoError("text not utf-8"))
    }

    /// A `count:u32` list of `item`s. Every item takes at least one byte,
    /// so a count above the bytes left is refused before anything is
    /// reserved for it.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ProtoError>,
    ) -> Result<Vec<T>, ProtoError> {
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(ProtoError("list longer than frame"));
        }
        (0..count).map(|_| item(self)).collect()
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
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

/// Writes a `str` field, the inverse of `Cursor::str`.
fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Writes a `count:u32` list, the inverse of `Cursor::list`.
fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for it in items {
        item(out, it);
    }
}

/// Decodes one request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let opcode = c.u8()?;
    let req_id = c.u64()?;
    let req = match opcode {
        OP_GET => Request::Get {
            req_id,
            key: c.u64()?,
        },
        OP_PUT => {
            let (durable, traced) = decode_flags(c.u8()?)?;
            let key = c.u64()?;
            let vlen = c.u32()? as usize;
            if vlen > MAX_VALUE {
                return Err(ProtoError("value too large"));
            }
            let value = c.bytes(vlen)?.to_vec();
            Request::Put {
                req_id,
                key,
                value,
                durable,
                traced,
            }
        }
        OP_DELETE => {
            let (durable, traced) = decode_flags(c.u8()?)?;
            Request::Delete {
                req_id,
                key: c.u64()?,
                durable,
                traced,
            }
        }
        OP_SYNC => Request::Sync { req_id },
        OP_STATS => {
            let format = match c.u8()? {
                0 => StatsFormat::Json,
                1 => StatsFormat::Prometheus,
                _ => return Err(ProtoError("unknown stats format")),
            };
            Request::Stats { req_id, format }
        }
        OP_MODE => {
            let arg = match c.u8()? {
                0 => ModeArg::Normal,
                1 => ModeArg::WriteIntensive,
                0xFF => ModeArg::Query,
                _ => return Err(ProtoError("unknown mode")),
            };
            Request::Mode { req_id, arg }
        }
        OP_TRACE => Request::Trace {
            req_id,
            max: c.u32()?,
        },
        OP_SCAN => {
            let start_key = c.u64()?;
            let limit = c.u32()?;
            if limit as usize > MAX_SCAN_KEYS {
                return Err(ProtoError("scan limit too large"));
            }
            Request::Scan {
                req_id,
                start_key,
                limit,
            }
        }
        OP_REPL_SUBSCRIBE => Request::ReplSubscribe {
            req_id,
            start_ship: c.u64()?,
        },
        OP_REPL_ACK => Request::ReplAck {
            req_id,
            sub_id: c.u64()?,
            ship: c.u64()?,
        },
        OP_REPL_FLOOR => Request::ReplFloor { req_id },
        _ => return Err(ProtoError("unknown opcode")),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes one request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match req {
        Request::Get { req_id, key } => {
            out.push(OP_GET);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put {
            req_id,
            key,
            value,
            durable,
            traced,
        } => {
            out.push(OP_PUT);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(encode_flags(*durable, *traced));
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        Request::Delete {
            req_id,
            key,
            durable,
            traced,
        } => {
            out.push(OP_DELETE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(encode_flags(*durable, *traced));
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Sync { req_id } => {
            out.push(OP_SYNC);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Request::Stats { req_id, format } => {
            out.push(OP_STATS);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(match format {
                StatsFormat::Json => 0,
                StatsFormat::Prometheus => 1,
            });
        }
        Request::Mode { req_id, arg } => {
            out.push(OP_MODE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(match arg {
                ModeArg::Normal => 0,
                ModeArg::WriteIntensive => 1,
                ModeArg::Query => 0xFF,
            });
        }
        Request::Trace { req_id, max } => {
            out.push(OP_TRACE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
        }
        Request::Scan {
            req_id,
            start_key,
            limit,
        } => {
            debug_assert!(*limit as usize <= MAX_SCAN_KEYS);
            out.push(OP_SCAN);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&start_key.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::ReplSubscribe { req_id, start_ship } => {
            out.push(OP_REPL_SUBSCRIBE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&start_ship.to_le_bytes());
        }
        Request::ReplAck {
            req_id,
            sub_id,
            ship,
        } => {
            out.push(OP_REPL_ACK);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&sub_id.to_le_bytes());
            out.extend_from_slice(&ship.to_le_bytes());
        }
        Request::ReplFloor { req_id } => {
            out.push(OP_REPL_FLOOR);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
    }
    out
}

/// Decodes one response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let status = c.u8()?;
    let req_id = c.u64()?;
    let resp = match status {
        ST_OK => Response::Ok { req_id },
        ST_VALUE => {
            let vlen = c.u32()? as usize;
            if vlen > MAX_VALUE {
                return Err(ProtoError("value too large"));
            }
            Response::Value {
                req_id,
                value: c.bytes(vlen)?.to_vec(),
            }
        }
        ST_NOT_FOUND => Response::NotFound { req_id },
        ST_DELETED => Response::Deleted { req_id },
        ST_STATS => Response::Stats {
            req_id,
            text: c.str()?,
        },
        ST_MODE => {
            let write_intensive = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError("unknown mode")),
            };
            Response::Mode {
                req_id,
                write_intensive,
            }
        }
        ST_RETRY => Response::Retry { req_id },
        ST_ERR => Response::Err {
            req_id,
            message: c.str()?,
        },
        ST_TRACE => Response::Trace {
            req_id,
            spans: c.list(|c| {
                Ok(SpanRecord {
                    id: c.u64()?,
                    op: c.str()?,
                    key: c.u64()?,
                    start_ns: c.u64()?,
                    total_ns: c.u64()?,
                    forced: match c.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(ProtoError("bad span forced flag")),
                    },
                    note: c.str()?,
                    stages: c.list(|c| Ok((c.str()?, c.u64()?)))?,
                })
            })?,
            events: c.list(|c| {
                Ok(TraceEventRecord {
                    seq: c.u64()?,
                    ts: c.u64()?,
                    name: c.str()?,
                    fields: c.list(|c| Ok((c.str()?, c.u64()?)))?,
                    labels: c.list(|c| Ok((c.str()?, c.str()?)))?,
                })
            })?,
        },
        ST_KEYS => {
            let count = c.u32()? as usize;
            if count > MAX_SCAN_KEYS {
                return Err(ProtoError("key list too large"));
            }
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(c.u64()?);
            }
            Response::Keys { req_id, keys }
        }
        ST_REPL_BATCH => {
            let ship = c.u64()?;
            let count = c.u32()? as usize;
            if count > MAX_SCAN_KEYS {
                return Err(ProtoError("repl batch too large"));
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let key = c.u64()?;
                let opflags = c.u8()?;
                if opflags & !REP_FLAG_TOMBSTONE != 0 {
                    return Err(ProtoError("reserved repl op flag bits set"));
                }
                let value = if opflags & REP_FLAG_TOMBSTONE != 0 {
                    None
                } else {
                    let vlen = c.u32()? as usize;
                    if vlen > MAX_VALUE {
                        return Err(ProtoError("value too large"));
                    }
                    Some(c.bytes(vlen)?.to_vec())
                };
                ops.push(RepOp { key, value });
            }
            Response::ReplBatch { req_id, ship, ops }
        }
        ST_REPL_FLOOR => Response::ReplFloor {
            req_id,
            sub_id: c.u64()?,
            shipped: c.u64()?,
            acked: c.u64()?,
            applied: c.u64()?,
        },
        _ => return Err(ProtoError("unknown status")),
    };
    c.finish()?;
    Ok(resp)
}

/// Encodes one response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match resp {
        Response::Ok { req_id } => {
            out.push(ST_OK);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Value { req_id, value } => {
            out.push(ST_VALUE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        Response::NotFound { req_id } => {
            out.push(ST_NOT_FOUND);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Deleted { req_id } => {
            out.push(ST_DELETED);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Stats { req_id, text } => {
            out.push(ST_STATS);
            out.extend_from_slice(&req_id.to_le_bytes());
            put_str(&mut out, text);
        }
        Response::Mode {
            req_id,
            write_intensive,
        } => {
            out.push(ST_MODE);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(u8::from(*write_intensive));
        }
        Response::Retry { req_id } => {
            out.push(ST_RETRY);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Err { req_id, message } => {
            out.push(ST_ERR);
            out.extend_from_slice(&req_id.to_le_bytes());
            put_str(&mut out, message);
        }
        Response::Trace {
            req_id,
            spans,
            events,
        } => {
            out.push(ST_TRACE);
            out.extend_from_slice(&req_id.to_le_bytes());
            put_list(&mut out, spans, |out, s| {
                out.extend_from_slice(&s.id.to_le_bytes());
                put_str(out, &s.op);
                out.extend_from_slice(&s.key.to_le_bytes());
                out.extend_from_slice(&s.start_ns.to_le_bytes());
                out.extend_from_slice(&s.total_ns.to_le_bytes());
                out.push(u8::from(s.forced));
                put_str(out, &s.note);
                put_list(out, &s.stages, |out, (name, dur)| {
                    put_str(out, name);
                    out.extend_from_slice(&dur.to_le_bytes());
                });
            });
            put_list(&mut out, events, |out, e| {
                out.extend_from_slice(&e.seq.to_le_bytes());
                out.extend_from_slice(&e.ts.to_le_bytes());
                put_str(out, &e.name);
                put_list(out, &e.fields, |out, (name, v)| {
                    put_str(out, name);
                    out.extend_from_slice(&v.to_le_bytes());
                });
                put_list(out, &e.labels, |out, (name, v)| {
                    put_str(out, name);
                    put_str(out, v);
                });
            });
        }
        Response::Keys { req_id, keys } => {
            debug_assert!(keys.len() <= MAX_SCAN_KEYS);
            out.push(ST_KEYS);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for k in keys {
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
        Response::ReplBatch { req_id, ship, ops } => {
            debug_assert!(ops.len() <= MAX_SCAN_KEYS);
            out.push(ST_REPL_BATCH);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&ship.to_le_bytes());
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                out.extend_from_slice(&op.key.to_le_bytes());
                match &op.value {
                    Some(v) => {
                        out.push(0);
                        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                        out.extend_from_slice(v);
                    }
                    None => out.push(REP_FLAG_TOMBSTONE),
                }
            }
        }
        Response::ReplFloor {
            req_id,
            sub_id,
            shipped,
            acked,
            applied,
        } => {
            out.push(ST_REPL_FLOOR);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&sub_id.to_le_bytes());
            out.extend_from_slice(&shipped.to_le_bytes());
            out.extend_from_slice(&acked.to_le_bytes());
            out.extend_from_slice(&applied.to_le_bytes());
        }
    }
    out
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
    let len = u32::from_le_bytes(len_raw) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError("frame too large"),
        ));
    }
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
        let mut wire = vec![OP_PUT];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.push(0);
        wire.extend_from_slice(&2u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_request(&wire), Err(ProtoError("value too large")));
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let mut wire = vec![OP_DELETE];
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
        let mut wire = vec![OP_SCAN];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&((MAX_SCAN_KEYS + 1) as u32).to_le_bytes());
        assert_eq!(
            decode_request(&wire),
            Err(ProtoError("scan limit too large"))
        );

        // KEYS count above the cap: rejected before allocating the list.
        let mut wire = vec![ST_KEYS];
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
        let mut wire = vec![ST_REPL_BATCH];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            decode_response(&wire),
            Err(ProtoError("repl batch too large"))
        );

        // Oversized per-op value: rejected before allocation.
        let mut wire = vec![ST_REPL_BATCH];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.push(0);
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_response(&wire), Err(ProtoError("value too large")));

        // Reserved per-op flag bits: rejected (keeps encoding canonical).
        let mut wire = vec![ST_REPL_BATCH];
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
        let mut wire = vec![ST_TRACE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let refused = Err(ProtoError("list longer than frame"));
        assert_eq!(decode_response(&wire), refused);

        // One span whose stage count claims far more than the bytes left.
        let mut wire = vec![ST_TRACE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        put_str(&mut wire, "put");
        wire.extend_from_slice(&[0; 24]);
        wire.push(1);
        put_str(&mut wire, "");
        wire.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
        put_str(&mut wire, "decode");
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
