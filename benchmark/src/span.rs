//! The harness's own spans, recorded around its calls into the program
//! (never inside it), kept in memory and written out as a Chrome trace
//! when the traced run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across the threads of a process; a run that
/// spreads its repeats over processes gives each its own range with
/// [`set_id_base`].
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub fn set_id_base(base: u64) {
    NEXT_ID.store(base + 1, Ordering::Relaxed);
}

/// Every span name the harness records.
pub const NAMES: [&str; 10] = [
    "setup",
    "measure",
    "drain",
    "audit",
    "recover",
    "first_get",
    "first_scan",
    "put",
    "get",
    "scan",
];

/// One completed span. `parent` is the id of the enclosing span (0 =
/// none); spans caused by one request share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated-clock interval, where the caller owns a `ThreadCtx`.
    pub sim: Option<(u64, u64)>,
}

/// Per-thread span buffer; buffers are merged when their threads join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

/// An open span (see [`Recorder::open`]).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    sim_start: Option<u64>,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run, so their timestamps
    /// line up; `tid` is the row the spans are drawn on.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u64, req: u64, sim: Option<u64>) -> Open {
        Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            sim_start: sim,
        }
    }

    pub fn close(&mut self, open: Open, sim: Option<u64>) {
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            tid: self.tid,
            start_ns: open.start_ns,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
            sim: open.sim_start.zip(sim),
        });
    }
}

/// Chrome `trace_event` JSON (complete events, microsecond timestamps).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        );
        if let Some((a, b)) = s.sim {
            let _ = write!(out, ", \"sim_start_ns\": {a}, \"sim_end_ns\": {b}");
        }
        out.push_str(if i + 1 == spans.len() {
            "}}\n"
        } else {
            "}},\n"
        });
    }
    out.push_str("], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn trace_file_is_json_with_parent_and_request_ids() {
        let mut r = Recorder::new(Instant::now(), 3);
        let phase = r.open("measure", 0, 0, None);
        let call = r.open("put", phase.id(), 77, Some(100));
        r.close(call, Some(151));
        r.close(phase, None);
        let v = Json::parse(&chrome_trace(&r.spans)).unwrap();
        let ev = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        let args = ev[0].get("args").unwrap();
        assert_eq!(args.get("req").unwrap().as_f64(), Some(77.0));
        assert_eq!(
            args.get("parent").unwrap().as_f64(),
            ev[1].get("args").unwrap().get("id").unwrap().as_f64()
        );
        assert_eq!(args.get("sim_end_ns").unwrap().as_f64(), Some(151.0));
    }
}
