//! Structured events and the bounded journal that retains them.

use parking_lot::Mutex;

/// One structured event, stamped with the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonically increasing sequence number (never reused, counts
    /// dropped events too).
    pub seq: u64,
    /// Simulated-clock timestamp in ns, clamped non-decreasing across the
    /// journal (see [`Journal::record`]).
    pub ts: u64,
    /// What happened, with payload.
    pub kind: EventKind,
}

/// Event payloads. `media_bytes` fields are the media-level bytes written
/// during the operation (from the enclosing maintenance span's delta).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The store's effective mode changed. `trigger` says why:
    /// `"set_mode"` for explicit requests, `"p99_above_enter_threshold"`
    /// / `"p99_below_exit_threshold"` for Get-Protect entry/exit (with
    /// the windowed p99 that tripped it in `p99_ns`).
    ModeTransition {
        from: &'static str,
        to: &'static str,
        trigger: &'static str,
        p99_ns: u64,
    },
    /// A MemTable was flushed to level 0.
    MemtableFlush {
        shard: u32,
        slots: u64,
        media_bytes: u64,
    },
    /// Write-Intensive Mode merged a MemTable into the ABI (DRAM only).
    WimMerge { shard: u32, slots: u64 },
    /// Upper levels merged into `target_level` (size-tiered or Direct).
    MidCompaction {
        shard: u32,
        tables_in: u64,
        slots_out: u64,
        target_level: u32,
        media_bytes: u64,
    },
    /// Upper levels + dumped tables merged into the last (leveled) level.
    LastCompaction {
        shard: u32,
        slots_in: u64,
        media_bytes: u64,
    },
    /// The ABI was dumped to Pmem as an unmerged extra table (Get-Protect).
    AbiDump {
        shard: u32,
        slots: u64,
        media_bytes: u64,
    },
    /// The ABI was rebuilt from the upper levels.
    AbiRebuild { shard: u32, slots: u64 },
    /// A put began waiting on background-maintenance backpressure (the
    /// shard's frozen-MemTable queue was at capacity).
    WriteStallEnter { shard: u32 },
    /// The stalled put resumed after `stalled_ns` of *wall-clock* waiting
    /// (the event timestamp, like every journal timestamp, is simulated;
    /// the wait is never charged to it). Chrome-trace exports draw it as
    /// an instant on the simulated-clock track, `stalled_ns` in its args.
    WriteStallExit { shard: u32, stalled_ns: u64 },
    /// The simulated device crashed; `crashes` is the device's lifetime
    /// crash count. Recorded into the *recovered* store's journal.
    Crash { crashes: u64 },
    /// A fault-injection harness crashed the store at fence ordinal
    /// `fence`; `stage` is the maintenance stage whose span was open at
    /// the crash ("foreground" if none). Recorded into the *recovered*
    /// store's journal.
    CrashInjected { fence: u64, stage: &'static str },
}

impl EventKind {
    /// Stable snake_case event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ModeTransition { .. } => "mode_transition",
            EventKind::MemtableFlush { .. } => "memtable_flush",
            EventKind::WimMerge { .. } => "wim_merge",
            EventKind::MidCompaction { .. } => "mid_compaction",
            EventKind::LastCompaction { .. } => "last_compaction",
            EventKind::AbiDump { .. } => "abi_dump",
            EventKind::AbiRebuild { .. } => "abi_rebuild",
            EventKind::WriteStallEnter { .. } => "write_stall_enter",
            EventKind::WriteStallExit { .. } => "write_stall_exit",
            EventKind::Crash { .. } => "crash",
            EventKind::CrashInjected { .. } => "crash_injected",
        }
    }

    /// Numeric payload fields as `(name, value)` pairs, export order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::ModeTransition { p99_ns, .. } => vec![("p99_ns", p99_ns)],
            EventKind::MemtableFlush {
                shard,
                slots,
                media_bytes,
            } => vec![
                ("shard", shard as u64),
                ("slots", slots),
                ("media_bytes", media_bytes),
            ],
            EventKind::WimMerge { shard, slots } => {
                vec![("shard", shard as u64), ("slots", slots)]
            }
            EventKind::MidCompaction {
                shard,
                tables_in,
                slots_out,
                target_level,
                media_bytes,
            } => vec![
                ("shard", shard as u64),
                ("tables_in", tables_in),
                ("slots_out", slots_out),
                ("target_level", target_level as u64),
                ("media_bytes", media_bytes),
            ],
            EventKind::LastCompaction {
                shard,
                slots_in,
                media_bytes,
            } => vec![
                ("shard", shard as u64),
                ("slots_in", slots_in),
                ("media_bytes", media_bytes),
            ],
            EventKind::AbiDump {
                shard,
                slots,
                media_bytes,
            } => vec![
                ("shard", shard as u64),
                ("slots", slots),
                ("media_bytes", media_bytes),
            ],
            EventKind::AbiRebuild { shard, slots } => {
                vec![("shard", shard as u64), ("slots", slots)]
            }
            EventKind::WriteStallEnter { shard } => vec![("shard", shard as u64)],
            EventKind::WriteStallExit { shard, stalled_ns } => {
                vec![("shard", shard as u64), ("stalled_ns", stalled_ns)]
            }
            EventKind::Crash { crashes } => vec![("crashes", crashes)],
            EventKind::CrashInjected { fence, .. } => vec![("fence", fence)],
        }
    }

    /// String payload fields as `(name, value)` pairs, export order.
    pub fn labels(&self) -> Vec<(&'static str, &'static str)> {
        match *self {
            EventKind::ModeTransition {
                from, to, trigger, ..
            } => vec![("from", from), ("to", to), ("trigger", trigger)],
            EventKind::CrashInjected { stage, .. } => vec![("stage", stage)],
            _ => Vec::new(),
        }
    }
}

/// Bounded ring buffer of [`Event`]s behind one short-critical-section
/// mutex: record is push + index arithmetic, no allocation after the ring
/// fills.
pub struct Journal {
    cap: usize,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Ring storage; grows to `cap` then wraps.
    buf: Vec<Event>,
    /// Slot the next event lands in once `buf.len() == cap`.
    next: usize,
    /// Total events ever recorded (== next seq).
    seq: u64,
    /// Overwritten (lost) events.
    dropped: u64,
    /// High-water timestamp for monotonic clamping.
    last_ts: u64,
}

impl Journal {
    /// A journal retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            cap: capacity,
            inner: Mutex::new(Inner {
                buf: Vec::new(),
                next: 0,
                seq: 0,
                dropped: 0,
                last_ts: 0,
            }),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends an event. The stored timestamp is `max(ts, previous ts)`,
    /// so the journal reads monotonically even when a caller has no clock
    /// (it passes 0 and inherits the last stamp).
    pub fn record(&self, ts: u64, kind: EventKind) {
        let mut inner = self.inner.lock();
        let ts = ts.max(inner.last_ts);
        inner.last_ts = ts;
        let seq = inner.seq;
        inner.seq += 1;
        let ev = Event { seq, ts, kind };
        if self.cap == 0 {
            inner.dropped += 1;
        } else if inner.buf.len() < self.cap {
            inner.buf.push(ev);
        } else {
            let slot = inner.next;
            inner.buf[slot] = ev;
            inner.dropped += 1;
            inner.next = (slot + 1) % self.cap;
        }
    }

    /// Total events ever recorded (including dropped ones).
    pub fn total(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Events lost to ring overwrite (or to a zero-capacity journal).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.buf.len());
        if inner.buf.len() < self.cap || self.cap == 0 {
            out.extend_from_slice(&inner.buf);
        } else {
            out.extend_from_slice(&inner.buf[inner.next..]);
            out.extend_from_slice(&inner.buf[..inner.next]);
        }
        out
    }

    /// The most recent `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let mut all = self.events();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flush(shard: u32, slots: u64) -> EventKind {
        EventKind::MemtableFlush {
            shard,
            slots,
            media_bytes: slots * 16,
        }
    }

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.record(i * 100, flush(0, i));
        }
        assert_eq!(j.total(), 10);
        assert_eq!(j.dropped(), 6);
        let evs = j.events();
        assert_eq!(evs.len(), 4);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(j.tail(2).iter().map(|e| e.seq).collect::<Vec<_>>(), [8, 9]);
        assert_eq!(j.tail(100).len(), 4);
    }

    #[test]
    fn timestamps_clamp_monotonically() {
        let j = Journal::new(8);
        j.record(500, flush(0, 1));
        // A clockless caller (e.g. set_mode) passes 0 and inherits 500.
        j.record(0, EventKind::Crash { crashes: 1 });
        j.record(300, flush(1, 2)); // stale clock also clamps
        j.record(700, flush(2, 3));
        let ts: Vec<u64> = j.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![500, 500, 500, 700]);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_capacity_drops_everything_without_panicking() {
        let j = Journal::new(0);
        for i in 0..5 {
            j.record(i, flush(0, i));
        }
        assert_eq!(j.total(), 5);
        assert_eq!(j.dropped(), 5);
        assert!(j.events().is_empty());
    }

    #[test]
    fn event_schema_exposes_names_fields_labels() {
        let k = EventKind::ModeTransition {
            from: "normal",
            to: "get_protect",
            trigger: "p99_above_enter_threshold",
            p99_ns: 2500,
        };
        assert_eq!(k.name(), "mode_transition");
        assert_eq!(k.fields(), vec![("p99_ns", 2500)]);
        assert_eq!(
            k.labels(),
            vec![
                ("from", "normal"),
                ("to", "get_protect"),
                ("trigger", "p99_above_enter_threshold"),
            ]
        );
        let f = flush(3, 64);
        assert_eq!(f.name(), "memtable_flush");
        assert_eq!(
            f.fields(),
            vec![("shard", 3), ("slots", 64), ("media_bytes", 1024)]
        );
        assert!(f.labels().is_empty());
    }
}
