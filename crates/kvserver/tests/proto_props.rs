//! Protocol framing properties: every request/response round-trips, and
//! truncated, torn, or garbage frames error cleanly — decoders never
//! panic and never mis-frame (a decode that succeeds must re-encode to
//! the exact input bytes).

use kvserver::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ModeArg, RepOp, Request, Response, SpanRecord, StatsFormat, TraceEventRecord, MAX_FRAME,
    MAX_SCAN_KEYS,
};
use proptest::prelude::*;

/// Builds one request from unconstrained draws (the discriminant picks
/// the variant; surplus fields are ignored).
fn make_request(disc: u8, req_id: u64, key: u64, value: Vec<u8>, flag: bool) -> Request {
    // A second independent draw, distilled from bits the variant doesn't
    // otherwise consume, exercises the durable × traced flag grid.
    let flag2 = disc & 0x80 != 0;
    match disc % 11 {
        0 => Request::Get { req_id, key },
        1 => Request::Put {
            req_id,
            key,
            value,
            durable: flag,
            traced: flag2,
        },
        2 => Request::Delete {
            req_id,
            key,
            durable: flag,
            traced: flag2,
        },
        3 => Request::Sync { req_id },
        4 => Request::Stats {
            req_id,
            format: if flag {
                StatsFormat::Prometheus
            } else {
                StatsFormat::Json
            },
        },
        5 => Request::Mode {
            req_id,
            arg: match key % 3 {
                0 => ModeArg::Normal,
                1 => ModeArg::WriteIntensive,
                _ => ModeArg::Query,
            },
        },
        6 => Request::Trace {
            req_id,
            max: key as u32,
        },
        7 => Request::Scan {
            req_id,
            start_key: key,
            limit: (key as u32) % (MAX_SCAN_KEYS as u32 + 1),
        },
        8 => Request::ReplSubscribe {
            req_id,
            start_ship: key,
        },
        9 => Request::ReplAck {
            req_id,
            sub_id: key.rotate_left(17),
            ship: key,
        },
        _ => Request::ReplFloor { req_id },
    }
}

/// Replication ops distilled from the raw value draw: each 9-byte chunk
/// yields a key plus a flag byte choosing tombstone vs a put whose value
/// is a slice of the remaining draw. Bounded far below the wire caps by
/// the draw size, like the `Keys` distillation below.
fn make_rep_ops(value: &[u8]) -> Vec<RepOp> {
    value
        .chunks_exact(9)
        .map(|c| {
            let key = u64::from_le_bytes(c[..8].try_into().unwrap());
            if c[8] & 1 == 1 {
                RepOp { key, value: None }
            } else {
                let take = usize::from(c[8] >> 1);
                RepOp {
                    key,
                    value: Some(value[..take.min(value.len())].to_vec()),
                }
            }
        })
        .collect()
}

/// A TRACE string: one of the awkward cases (empty, quote, backslash,
/// control bytes, multi-byte UTF-8), a pair of them, or a lossy slice of
/// the raw draw, chosen by one byte.
fn make_str(b: u8, draw: &[u8]) -> String {
    const AWKWARD: [&str; 6] = ["", "\"", "\\", "\u{0}\u{1f}\n\t\r", "é漢🦀", "put"];
    let pick = |i: usize| AWKWARD[i % AWKWARD.len()];
    match b % 8 {
        i @ 0..=5 => pick(usize::from(i)).to_owned(),
        6 => String::from_utf8_lossy(&draw[..usize::from(b / 8).min(draw.len())]).into_owned(),
        _ => format!("{}{}", pick(usize::from(b / 8)), pick(usize::from(b / 48))),
    }
}

/// A TRACE response distilled from the raw draw: 0-4 spans of 0-6
/// stages each, and 0-4 events with 0-3 fields and 0-3 labels, every
/// count, flag and string read off successive draw bytes.
fn make_trace(req_id: u64, draw: &[u8]) -> Response {
    let mut at = 0usize;
    let mut byte = || {
        at += 1;
        draw.get(at % draw.len().max(1)).copied().unwrap_or(0)
    };
    let word = |b: u8| u64::from(b).wrapping_mul(0x0101_0101_0101_0101) ^ req_id;
    let spans = (0..byte() % 5)
        .map(|_| SpanRecord {
            id: word(byte()),
            op: make_str(byte(), draw),
            key: word(byte()).rotate_left(7),
            start_ns: word(byte()),
            total_ns: word(byte()) >> 3,
            forced: byte() & 1 == 1,
            note: make_str(byte(), draw),
            stages: (0..byte() % 7)
                .map(|_| (make_str(byte(), draw), word(byte())))
                .collect(),
        })
        .collect();
    let events = (0..byte() % 5)
        .map(|_| TraceEventRecord {
            seq: word(byte()),
            ts: word(byte()).rotate_left(29),
            name: make_str(byte(), draw),
            fields: (0..byte() % 4)
                .map(|_| (make_str(byte(), draw), word(byte())))
                .collect(),
            labels: (0..byte() % 4)
                .map(|_| (make_str(byte(), draw), make_str(byte(), draw)))
                .collect(),
        })
        .collect();
    Response::Trace {
        req_id,
        spans,
        events,
    }
}

fn make_response(disc: u8, req_id: u64, value: Vec<u8>, flag: bool) -> Response {
    let text = || String::from_utf8_lossy(&value).into_owned();
    match disc % 12 {
        0 => Response::Ok { req_id },
        1 => Response::Value { req_id, value },
        2 => Response::NotFound { req_id },
        3 => Response::Deleted { req_id },
        4 => Response::Stats {
            req_id,
            text: text(),
        },
        5 => Response::Mode {
            req_id,
            write_intensive: flag,
        },
        6 => Response::Retry { req_id },
        7 => Response::Err {
            req_id,
            message: text(),
        },
        8 => make_trace(req_id, &value),
        // Key list distilled from the value draw: 8-byte LE chunks,
        // naturally bounded far below MAX_SCAN_KEYS by the draw size.
        9 => Response::Keys {
            req_id,
            keys: value
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        },
        10 => Response::ReplBatch {
            req_id,
            ship: value.len() as u64,
            ops: make_rep_ops(&value),
        },
        _ => Response::ReplFloor {
            req_id,
            sub_id: req_id.rotate_left(11),
            shipped: req_id.rotate_left(23),
            acked: req_id.rotate_left(37),
            applied: req_id.rotate_left(53),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every request variant.
    #[test]
    fn request_round_trips(
        disc: u8,
        req_id: u64,
        key: u64,
        value in proptest::collection::vec(0u8..255, 0..2048),
        flag in proptest::bool::ANY,
    ) {
        let req = make_request(disc, req_id, key, value, flag);
        let wire = encode_request(&req);
        prop_assert_eq!(decode_request(&wire), Ok(req));
    }

    /// encode → decode is the identity for every response variant.
    #[test]
    fn response_round_trips(
        disc: u8,
        req_id: u64,
        value in proptest::collection::vec(0u8..255, 0..2048),
        flag in proptest::bool::ANY,
    ) {
        let resp = make_response(disc, req_id, value, flag);
        let wire = encode_response(&resp);
        prop_assert_eq!(decode_response(&wire), Ok(resp));
    }

    /// Every strict prefix of a valid frame is rejected, and appending
    /// bytes to a valid frame is rejected — framing is exact.
    #[test]
    fn truncated_and_padded_requests_error(
        disc: u8,
        req_id: u64,
        key: u64,
        value in proptest::collection::vec(0u8..255, 0..256),
        flag in proptest::bool::ANY,
        pad: u8,
    ) {
        let req = make_request(disc, req_id, key, value, flag);
        let wire = encode_request(&req);
        for cut in 0..wire.len() {
            prop_assert!(decode_request(&wire[..cut]).is_err());
        }
        let mut padded = wire;
        padded.push(pad);
        prop_assert!(decode_request(&padded).is_err());
    }

    /// Replication and TRACE frames torn at any byte are rejected, and
    /// padding a valid REPL_BATCH / REPL_FLOOR / TRACE is rejected — the
    /// list decoders' per-item walks must notice a cut inside a key, a
    /// flag byte, a length, a string or a value body, never return a
    /// shorter list.
    #[test]
    fn truncated_and_padded_repl_responses_error(
        disc: u8,
        req_id: u64,
        value in proptest::collection::vec(0u8..255, 0..256),
        pad: u8,
    ) {
        let resp = make_response([8, 10, 11][usize::from(disc % 3)], req_id, value, false);
        let wire = encode_response(&resp);
        for cut in 0..wire.len() {
            prop_assert!(decode_response(&wire[..cut]).is_err());
        }
        let mut padded = wire;
        padded.push(pad);
        prop_assert!(decode_response(&padded).is_err());
    }

    /// Arbitrary bytes never panic a decoder; a lucky decode must
    /// re-encode to exactly the input (no mis-framing).
    #[test]
    fn garbage_never_panics_or_misframes(
        bytes in proptest::collection::vec(0u8..255, 0..512),
    ) {
        if let Ok(req) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&req), bytes.clone());
        }
        if let Ok(resp) = decode_response(&bytes) {
            prop_assert_eq!(encode_response(&resp), bytes);
        }
    }

    /// Frame I/O: a stream of frames reads back exactly, a torn tail is
    /// an error (never a short frame), and EOF at a boundary is clean.
    #[test]
    fn frame_stream_round_trips_and_torn_tails_error(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..255, 0..128), 0..8),
        cut_seed: u64,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut r = &stream[..];
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut r).unwrap(), Some(p.clone()));
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None);

        if !stream.is_empty() {
            // Cut anywhere that is not a frame boundary: the reader must
            // error, not hand back a short frame.
            let cut = (cut_seed as usize) % stream.len();
            let mut torn = &stream[..cut];
            let mut boundary = 0usize;
            let mut boundaries = vec![0usize];
            for p in &payloads {
                boundary += 4 + p.len();
                boundaries.push(boundary);
            }
            if !boundaries.contains(&cut) {
                let mut n = 0;
                loop {
                    match read_frame(&mut torn) {
                        Ok(Some(_)) => n += 1,
                        Ok(None) => {
                            prop_assert!(false, "clean EOF at torn cut {cut}");
                            break;
                        }
                        Err(_) => break,
                    }
                    prop_assert!(n <= payloads.len());
                }
            }
        }
    }

    /// Declared lengths above MAX_FRAME are refused before allocation.
    #[test]
    fn oversized_frame_lengths_are_refused(extra in 1u64..(1 << 20)) {
        let len = (MAX_FRAME as u64 + extra) as u32;
        let header = len.to_le_bytes();
        let mut r = &header[..];
        prop_assert!(read_frame(&mut r).is_err());
    }
}
