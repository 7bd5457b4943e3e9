//! Shared state of the maintenance worker pool: the request queue, the
//! drain/idle signal, and the per-shard backpressure condvars.
//!
//! A write that finds its shard's MemTable full freezes it before its
//! log append. With `bg.workers > 0` it then enqueues the shard here, and
//! a worker pops the request, reacquires the shard mutex and runs the
//! flush / WIM merge / GPM dump / compaction chain off the put path.
//! With no pool the writer runs the same chain itself and nothing is
//! ever queued, so `pending` stays 0 and [`Maint::drain`] returns at
//! once. The worker threads themselves live in `store/mod.rs` (they
//! need the whole store); this module owns only the coordination state.

use std::any::Any;
use std::collections::VecDeque;

use kvapi::{KvError, Result};
use parking_lot::{Condvar, Mutex};

/// A queued maintenance request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Job {
    /// Run the flush / merge / compaction chain for one shard's frozen
    /// MemTable.
    Shard(usize),
    /// Run a value-log GC pass (copy-forward relocation + reclaim). At
    /// most one is queued or running at a time — the store dedupes with
    /// its `gc_pending` flag.
    Gc,
}

/// Why the pipeline stopped doing useful work. The first failure poisons
/// the pipeline: queued requests are discarded and every later stalled
/// put or drain surfaces an error (or re-raises the panic, once).
pub(crate) enum MaintFailure {
    /// A worker's maintenance pass returned an error.
    Err(KvError),
    /// A worker's maintenance pass panicked. An injected
    /// `pmem_sim::CrashPoint` payload must reach the fault-injection
    /// driver intact, so the payload is re-raised (once) on the next
    /// foreground thread that synchronizes with the pipeline.
    Panic(Box<dyn Any + Send>),
}

#[derive(Default)]
struct MaintState {
    /// Maintenance requests awaiting processing.
    queue: VecDeque<Job>,
    /// Queued plus currently-processing requests.
    pending: usize,
    /// Accept no new work; workers exit once the queue is empty.
    stop: bool,
    /// Abandon queued work (crash-abort shutdown, or pipeline poisoned).
    discard: bool,
    failure: Option<MaintFailure>,
}

/// Coordination state shared by foreground threads and the worker pool.
pub(crate) struct Maint {
    state: Mutex<MaintState>,
    /// Workers wait here for requests.
    work_cv: Condvar,
    /// Drainers wait here for `pending == 0` (or a failure).
    idle_cv: Condvar,
    /// `shard_cvs[i]` is signalled — always under shard `i`'s mutex, so
    /// a stalled put's check-then-wait cannot miss it — when a
    /// maintenance pass for shard `i` completes (or the pipeline dies).
    pub(crate) shard_cvs: Vec<Condvar>,
}

impl Maint {
    pub fn new(shards: usize) -> Self {
        Self {
            state: Mutex::new(MaintState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            shard_cvs: (0..shards).map(|_| Condvar::new()).collect(),
        }
    }

    /// Queues a maintenance request and wakes a worker. Dropped silently
    /// once shutdown/poisoning began — a frozen table stays readable in
    /// the view, and the next stalled put on the shard surfaces the
    /// recorded failure. Returns whether the job was accepted.
    pub fn enqueue(&self, job: Job) -> bool {
        let mut st = self.state.lock();
        if st.stop || st.discard {
            return false;
        }
        st.queue.push_back(job);
        st.pending += 1;
        self.work_cv.notify_one();
        true
    }

    /// Blocks until a request is available or the pipeline is shut down
    /// (returning `None`). Under `discard`, queued requests are dropped
    /// instead of returned.
    pub fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            if st.discard && !st.queue.is_empty() {
                let dropped = st.queue.len();
                st.queue.clear();
                st.pending -= dropped;
                if st.pending == 0 {
                    self.idle_cv.notify_all();
                }
            }
            if let Some(job) = st.queue.pop_front() {
                return Some(job);
            }
            if st.stop {
                return None;
            }
            self.work_cv.wait(&mut st);
        }
    }

    /// Marks one request finished. A failure poisons the pipeline:
    /// queued requests are discarded and drainers are woken immediately
    /// (even while other workers are still mid-pass).
    pub fn job_done(&self, failure: Option<MaintFailure>) {
        let mut st = self.state.lock();
        st.pending -= 1;
        if let Some(f) = failure {
            if st.failure.is_none() {
                st.failure = Some(f);
            }
            st.discard = true;
            let dropped = st.queue.len();
            st.queue.clear();
            st.pending -= dropped;
            self.idle_cv.notify_all();
        }
        if st.pending == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Takes the recorded failure, leaving a sticky error behind so every
    /// later caller still fails. Callers turn the result into an error or
    /// re-raised panic via [`raise`], outside the state lock.
    pub fn take_failure(&self) -> Option<MaintFailure> {
        let mut st = self.state.lock();
        Self::take_failure_locked(&mut st)
    }

    fn take_failure_locked(st: &mut MaintState) -> Option<MaintFailure> {
        let f = st.failure.take()?;
        st.failure = Some(MaintFailure::Err(KvError::Corrupt(
            "background maintenance failed earlier",
        )));
        Some(f)
    }

    /// Waits until every queued and in-flight request has completed,
    /// surfacing any pipeline failure.
    pub fn drain(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(f) = Self::take_failure_locked(&mut st) {
                drop(st);
                return Err(raise(f));
            }
            if st.pending == 0 {
                return Ok(());
            }
            self.idle_cv.wait(&mut st);
        }
    }

    /// Begins shutdown: no new work is accepted and workers exit once the
    /// queue empties. With `discard`, queued requests are dropped (the
    /// crash-abort path); otherwise workers process them first (graceful
    /// shutdown drains the pipeline).
    pub fn shutdown(&self, discard: bool) {
        let mut st = self.state.lock();
        st.stop = true;
        if discard {
            st.discard = true;
        }
        self.work_cv.notify_all();
    }
}

/// Converts a taken failure into the error to return, re-raising panic
/// payloads (e.g. an injected `CrashPoint`) on the calling thread. The
/// re-raise uses `resume_unwind`, so it stays silent like the original.
pub(crate) fn raise(f: MaintFailure) -> KvError {
    match f {
        MaintFailure::Err(e) => e,
        MaintFailure::Panic(p) => std::panic::resume_unwind(p),
    }
}
