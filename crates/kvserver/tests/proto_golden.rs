//! Golden wire bytes: one encoded request and one encoded response per
//! variant, compared byte for byte against frozen hex. A codec refactor
//! that changes any of these bytes breaks every deployed peer, so the
//! frozen strings may only change together with a protocol version bump.
//! TRACE, the most nested layout, has a frame of its own below: one span
//! with two stages and one event with a field and a label.

use kvserver::proto::{
    decode_request, decode_response, encode_request, encode_response, ModeArg, RepOp, Request,
    Response, SpanRecord, StatsFormat, TraceEventRecord,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Get {
                req_id: 1,
                key: 0x0102_0304_0506_0708,
            },
            "0101000000000000000807060504030201",
        ),
        (
            Request::Put {
                req_id: 2,
                key: 7,
                value: b"val".to_vec(),
                durable: true,
                traced: true,
            },
            "0202000000000000000307000000000000000300000076616c",
        ),
        (
            Request::Delete {
                req_id: 3,
                key: u64::MAX,
                durable: true,
                traced: false,
            },
            "03030000000000000001ffffffffffffffff",
        ),
        (Request::Sync { req_id: 4 }, "040400000000000000"),
        (
            Request::Stats {
                req_id: 5,
                format: StatsFormat::Prometheus,
            },
            "05050000000000000001",
        ),
        (
            Request::Mode {
                req_id: 6,
                arg: ModeArg::Query,
            },
            "060600000000000000ff",
        ),
        (
            Request::Trace {
                req_id: 7,
                max: 512,
            },
            "07070000000000000000020000",
        ),
        (
            Request::Scan {
                req_id: 8,
                start_key: 0xabcd,
                limit: 4096,
            },
            "080800000000000000cdab00000000000000100000",
        ),
        (
            Request::ReplSubscribe {
                req_id: 9,
                start_ship: 3,
            },
            "0909000000000000000300000000000000",
        ),
        (
            Request::ReplAck {
                req_id: 10,
                sub_id: 2,
                ship: 99,
            },
            "0a0a0000000000000002000000000000006300000000000000",
        ),
        (Request::ReplFloor { req_id: 11 }, "0b0b00000000000000"),
    ]
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok { req_id: 1 }, "000100000000000000"),
        (
            Response::Value {
                req_id: 2,
                value: vec![0xde, 0xad],
            },
            "01020000000000000002000000dead",
        ),
        (Response::NotFound { req_id: 3 }, "020300000000000000"),
        (Response::Deleted { req_id: 4 }, "030400000000000000"),
        (
            Response::Stats {
                req_id: 5,
                text: "chameleon_x 1\n".to_owned(),
            },
            "0405000000000000000e0000006368616d656c656f6e5f7820310a",
        ),
        (
            Response::Mode {
                req_id: 6,
                write_intensive: true,
            },
            "05060000000000000001",
        ),
        (Response::Retry { req_id: 7 }, "060700000000000000"),
        (
            Response::Err {
                req_id: 8,
                message: "bad \"frame\" é".to_owned(),
            },
            "0708000000000000000e00000062616420226672616d652220c3a9",
        ),
        (
            Response::Keys {
                req_id: 9,
                keys: vec![1, u64::MAX],
            },
            "090900000000000000020000000100000000000000ffffffffffffffff",
        ),
        (
            Response::ReplBatch {
                req_id: 10,
                ship: 5,
                ops: vec![
                    RepOp {
                        key: 1,
                        value: Some(b"v".to_vec()),
                    },
                    RepOp {
                        key: 2,
                        value: None,
                    },
                ],
            },
            "0a0a000000000000000500000000000000020000000100000000000000000100000076020000000000000001",
        ),
        (
            Response::ReplFloor {
                req_id: 11,
                sub_id: 1,
                shipped: 40,
                acked: 30,
                applied: 35,
            },
            "0b0b00000000000000010000000000000028000000000000001e000000000000002300000000000000",
        ),
    ]
}

#[test]
fn every_non_trace_frame_matches_its_golden_bytes() {
    for (req, golden) in golden_requests() {
        let wire = encode_request(&req);
        assert_eq!(hex(&wire), golden, "{req:?}");
        assert_eq!(decode_request(&wire), Ok(req));
    }
    for (resp, golden) in golden_responses() {
        let wire = encode_response(&resp);
        assert_eq!(hex(&wire), golden, "{resp:?}");
        assert_eq!(decode_response(&wire), Ok(resp));
    }
}

#[test]
fn trace_frame_matches_its_golden_bytes() {
    let resp = Response::Trace {
        req_id: 12,
        spans: vec![SpanRecord {
            id: 1,
            op: "put".to_owned(),
            key: 7,
            start_ns: 0x10,
            total_ns: 0x20,
            forced: true,
            note: "L0 hit".to_owned(),
            stages: vec![("decode".to_owned(), 5), ("apply".to_owned(), 9)],
        }],
        events: vec![TraceEventRecord {
            seq: 2,
            ts: 3,
            name: "flush".to_owned(),
            fields: vec![("bytes".to_owned(), 64)],
            labels: vec![("mode".to_owned(), "wim".to_owned())],
        }],
    };
    let golden = concat!(
        "080c00000000000000",
        // spans: count, id, op, key, start_ns, total_ns, forced, note
        "01000000",
        "0100000000000000",
        "03000000707574",
        "0700000000000000",
        "1000000000000000",
        "2000000000000000",
        "01",
        "060000004c3020686974",
        // stages: count, then (name, dur_ns) twice
        "02000000",
        "060000006465636f6465",
        "0500000000000000",
        "050000006170706c79",
        "0900000000000000",
        // events: count, seq, ts, name, fields, labels
        "01000000",
        "0200000000000000",
        "0300000000000000",
        "05000000666c757368",
        "01000000",
        "050000006279746573",
        "4000000000000000",
        "01000000",
        "040000006d6f6465",
        "0300000077696d",
    );
    let wire = encode_response(&resp);
    assert_eq!(hex(&wire), golden);
    assert_eq!(decode_response(&wire), Ok(resp));
}
