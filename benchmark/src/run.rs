//! One repeat of one workload: set-up, measured phase, read-back audit,
//! restart. Every workload walks the same four phases on a fresh store,
//! so every end-to-end metric is defined for every workload; they differ
//! in what the measured phase issues and through which door (direct calls
//! into `ChameleonDb`, or `kvclient` connections to an in-process
//! `KvServer`).
//!
//! The program is driven from outside only: product defaults except shard
//! count and log capacity, counters read through the accessors the
//! program already exports.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use chameleon_obs::{ObsConfig, ServerObs, TraceConfig};
use chameleondb::{ChameleonConfig, ChameleonDb, StoreMetricsSnapshot};
use kvapi::{CrashRecover, KvStore, LogSpaceStats};
use kvclient::Client;
use kvserver::proto::{Request, Response, StatsFormat};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{CostModel, PmemDevice, StatsSnapshot, ThreadCtx};

use crate::gen::{self, Kind, Op, Plan};
use crate::json::Json;
use crate::span::{Open, Recorder, Span};
use crate::stats::{mean, quantile};

/// Requests each connection keeps in flight (closed loop).
const WINDOW: usize = 8;
/// One op in this many is timed on the wall clock in embedded workloads
/// (two clock reads cost about as much as a MemTable hit, so timing every
/// call would measure the timer).
const WALL_SAMPLE: usize = 16;
/// One call in this many gets a harness span in a traced run.
const SPAN_SAMPLE: usize = 256;
/// Bytes a log entry adds to its value.
const ENTRY_HEADER: u64 = kvlog::ENTRY_HEADER as u64;

pub type Values = Vec<(String, f64)>;

/// What one repeat measured. `values` holds every end-to-end metric and
/// every per-layer metric that a workload's counters can fill.
#[derive(Debug)]
pub struct Repeat {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub measured_s: f64,
    pub spans: Vec<Span>,
}

impl Repeat {
    /// One line of JSON: how a repeat's process hands its result back.
    pub fn to_json(&self) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let spans = self.spans.iter().map(|s| {
            let (sim0, sim1) = s
                .sim
                .map_or((Json::Null, Json::Null), |(a, b)| (num(a), num(b)));
            Json::Arr(vec![
                num(s.id),
                num(s.parent),
                num(s.req),
                Json::Str(s.name.to_owned()),
                num(s.tid as u64),
                num(s.start_ns),
                num(s.end_ns),
                sim0,
                sim1,
            ])
        });
        Json::Obj(vec![
            ("attempted".to_owned(), num(self.attempted)),
            ("failed".to_owned(), num(self.failed)),
            ("measured_s".to_owned(), Json::Num(self.measured_s)),
            (
                "values".to_owned(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans".to_owned(), Json::Arr(spans.collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let int = |j: &Json| j.as_f64().map(|x| x as u64);
        let spans = j.get("spans")?.as_arr()?.iter().map(|s| {
            let f = s.as_arr()?;
            let name = f.get(3)?.as_str()?;
            Some(Span {
                id: int(f.first()?)?,
                parent: int(f.get(1)?)?,
                req: int(f.get(2)?)?,
                name: crate::span::NAMES.iter().copied().find(|n| *n == name)?,
                tid: int(f.get(4)?)? as u32,
                start_ns: int(f.get(5)?)?,
                end_ns: int(f.get(6)?)?,
                sim: int(f.get(7)?).zip(int(f.get(8)?)),
            })
        });
        let Json::Obj(values) = j.get("values")? else {
            return None;
        };
        Some(Repeat {
            attempted: int(j.get("attempted")?)?,
            failed: int(j.get("failed")?)?,
            measured_s: j.get("measured_s")?.as_f64()?,
            values: values
                .iter()
                .map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            spans: spans.collect::<Option<_>>()?,
        })
    }
}

/// The op type whose latency a workload reports as `op_*`: the one its
/// row in the README says does the work.
fn primary(workload: &str) -> Kind {
    match workload {
        "embed-load" | "serve-put" => Kind::Put,
        "embed-scan" => Kind::Scan,
        _ => Kind::Get,
    }
}

/// Observations of one load thread or one client connection.
#[derive(Debug, Default)]
struct Lane {
    /// Simulated ns per call, by `Kind as usize` (embedded only).
    sim: [Vec<u32>; 3],
    /// Wall ns per call: sampled (embedded) or every request (served).
    wall: [Vec<u32>; 3],
    /// Keys returned by the wall-timed scans.
    timed_scan_keys: u64,
    sim_elapsed_ns: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Counters the program exports, read at a phase boundary.
struct Counters {
    media: StatsSnapshot,
    store: StoreMetricsSnapshot,
    space: LogSpaceStats,
}

impl Counters {
    fn take(dev: &PmemDevice, db: &ChameleonDb) -> Self {
        Self {
            media: dev.stats().snapshot(),
            store: db.metrics(),
            space: db.space_stats(),
        }
    }
}

fn store_config(plan: &Plan, workload: &str, traced: bool) -> ChameleonConfig {
    let sz = plan.sizes;
    let entry = ENTRY_HEADER + sz.value_len as u64;
    let puts = plan.measured_puts();
    let mut cfg = ChameleonConfig::with_shards(sz.shards);
    let extent = cfg.log.extent_bytes;
    cfg.log.capacity = if workload == "embed-update" {
        // Four times the live bytes: small enough that the overwrite
        // volume forces value-log GC to cycle, large enough to never fill.
        (4 * sz.keys * entry).div_ceil(extent).max(8) * extent
    } else {
        // Room for everything ever appended, twice over. (Whether GC
        // wakes depends on footprint / live bytes, not on capacity; the
        // served workloads' put counts keep that under its 2.0 trigger.)
        (2 * (plan.preload.len() as u64 + puts) * entry).max(32 << 20)
    };
    if traced {
        cfg.obs = ObsConfig::on();
    }
    cfg
}

fn put_lane(db: &ChameleonDb, ctx: &mut ThreadCtx, keys: &[u64], t: usize, vlen: usize) -> u64 {
    let mut val = Vec::new();
    let mut failed = 0;
    for &key in keys.iter().skip(t).step_by(gen::STREAMS) {
        gen::value_into(&mut val, key, 0, vlen);
        failed += u64::from(db.put(ctx, key, &val).is_err());
    }
    failed
}

/// Nanoseconds of `d`, saturating: latency samples are kept as `u32`.
fn ns32(d: std::time::Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// A lane's span recorder in a traced run: one call in `SPAN_SAMPLE` gets
/// a span under the measured phase's.
struct CallSpans {
    rec: Recorder,
    parent: u64,
    lane: u64,
}

impl CallSpans {
    /// `trace` is the run's epoch and the measured phase's span id.
    fn new(trace: Option<(Instant, u64)>, t: usize) -> Option<Self> {
        trace.map(|(epoch, parent)| CallSpans {
            rec: Recorder::new(epoch, t as u32 + 1),
            parent,
            lane: t as u64,
        })
    }

    fn open(&mut self, i: usize, kind: Kind, sim: Option<u64>) -> Option<Open> {
        let name = ["put", "get", "scan"][kind as usize];
        let req = self.lane << 32 | i as u64;
        i.is_multiple_of(SPAN_SAMPLE)
            .then(|| self.rec.open(name, self.parent, req, sim))
    }
}

/// Drives one stream of ops straight into the store.
fn embed_lane(
    db: &ChameleonDb,
    ops: &[Op],
    t: usize,
    vlen: usize,
    cost: &Arc<CostModel>,
    start: &Barrier,
    trace: Option<(Instant, u64)>,
) -> Lane {
    let mut lane = Lane::default();
    let mut ctx = ThreadCtx::for_thread(Arc::clone(cost), t);
    let mut spans = CallSpans::new(trace, t);
    let (mut val, mut out) = (Vec::new(), Vec::new());
    start.wait();
    for (i, op) in ops.iter().enumerate() {
        let k = op.kind as usize;
        if op.kind != Kind::Scan {
            gen::value_into(&mut val, op.key, op.ver, vlen);
        }
        let sim_now = Some(ctx.clock.now());
        let span = spans.as_mut().and_then(|s| s.open(i, op.kind, sim_now));
        let wall = i.is_multiple_of(WALL_SAMPLE).then(Instant::now);
        let c0 = ctx.clock.now();
        let ok = match op.kind {
            Kind::Put => db.put(&mut ctx, op.key, &val).is_ok(),
            Kind::Get => matches!(db.get(&mut ctx, op.key, &mut out), Ok(true)) && out == val,
            Kind::Scan => match db.scan(&mut ctx, op.key, op.ver as usize) {
                Ok(keys) => {
                    if wall.is_some() {
                        lane.timed_scan_keys += keys.len() as u64;
                    }
                    keys.len() == op.ver as usize
                        && keys.iter().zip(op.key..).all(|(&got, want)| got == want)
                }
                Err(_) => false,
            },
        };
        lane.sim[k].push((ctx.clock.now() - c0).min(u32::MAX as u64) as u32);
        if let Some(w) = wall {
            lane.wall[k].push(ns32(w.elapsed()));
        }
        if let (Some(s), Some(open)) = (&mut spans, span) {
            s.rec.close(open, Some(ctx.clock.now()));
        }
        lane.failed += u64::from(!ok);
    }
    lane.sim_elapsed_ns = ctx.clock.now();
    lane.spans = spans.map(|s| s.rec.spans).unwrap_or_default();
    lane
}

/// A request sent and not yet answered.
struct Pending {
    id: u64,
    op: Op,
    /// Newest version of the key acked when the request was sent: the
    /// oldest version a get may be served.
    acked: u32,
    sent: Instant,
    span: Option<Open>,
}

/// Drives one stream of ops through one connection, `WINDOW` in flight.
fn serve_lane(
    addr: std::net::SocketAddr,
    ops: &[Op],
    t: usize,
    vlen: usize,
    start: &Barrier,
    trace: Option<(Instant, u64)>,
) -> std::io::Result<Lane> {
    let mut lane = Lane::default();
    let client = Client::connect(addr);
    let mut spans = CallSpans::new(trace, t);
    let mut acked: HashMap<u64, u32> = HashMap::new();
    let mut pending: Vec<Pending> = Vec::with_capacity(WINDOW);
    let (mut val, mut scratch) = (Vec::new(), Vec::new());
    let mut next = 0;
    // Everyone reaches the barrier, connected or not, or the others hang.
    start.wait();
    let mut client = client?;
    while next < ops.len() || !pending.is_empty() {
        while next < ops.len() && pending.len() < WINDOW {
            let op = ops[next];
            let span = spans.as_mut().and_then(|s| s.open(next, op.kind, None));
            let sent = Instant::now();
            let id = match op.kind {
                Kind::Put => {
                    gen::value_into(&mut val, op.key, op.ver, vlen);
                    client.send_put(op.key, &val, true)?
                }
                _ => client.send(Request::Get {
                    req_id: 0,
                    key: op.key,
                })?,
            };
            pending.push(Pending {
                id,
                op,
                acked: acked.get(&op.key).copied().unwrap_or(0),
                sent,
                span,
            });
            next += 1;
        }
        let resp = client.recv_any()?;
        let Some(at) = pending.iter().position(|p| p.id == resp.req_id()) else {
            lane.failed += 1; // an answer to a question never asked
            continue;
        };
        let p = pending.swap_remove(at);
        lane.wall[p.op.kind as usize].push(ns32(p.sent.elapsed()));
        if let (Some(s), Some(open)) = (&mut spans, p.span) {
            s.rec.close(open, None);
        }
        let ok = match (p.op.kind, &resp) {
            (Kind::Put, Response::Ok { .. }) => {
                let a = acked.entry(p.op.key).or_insert(0);
                *a = (*a).max(p.op.ver);
                true
            }
            // Never older than what was acked when the get left, never
            // newer than what had been sent by then.
            (Kind::Get, Response::Value { value, .. }) => {
                gen::version_of(value, p.op.key, vlen, &mut scratch)
                    .is_some_and(|v| (p.acked..=p.op.ver).contains(&v))
            }
            // RETRY, ERR, NOT_FOUND: refused or wrong, counted as failed.
            _ => false,
        };
        lane.failed += u64::from(!ok);
    }
    lane.spans = spans.map(|s| s.rec.spans).unwrap_or_default();
    Ok(lane)
}

/// Reads one counter out of the server's Prometheus exposition.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn pooled(lanes: &mut [Lane], pick: impl Fn(&mut Lane) -> &mut Vec<u32>) -> Vec<u32> {
    let mut all = Vec::new();
    for l in lanes {
        all.append(pick(l));
    }
    all
}

fn share(x: f64, of: f64) -> f64 {
    if of > 0.0 {
        x / of
    } else {
        0.0
    }
}

/// What a repeat has found out so far.
struct Out {
    values: Values,
    failed: u64,
    rec: Recorder,
}

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_owned(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The `ServerObs` counters the served rows are deltas of.
fn server_counters(obs: &ServerObs) -> [f64; 7] {
    [
        &obs.batches,
        &obs.batched_ops,
        &obs.commit_fences,
        &obs.commit_media_bytes,
        &obs.commit_rmw_blocks,
        &obs.retries,
        &obs.requests,
    ]
    .map(|c| c.load(Ordering::Relaxed) as f64)
}

/// The program under test, as one repeat set it up.
struct Rig<'a> {
    workload: &'a str,
    plan: &'a Plan,
    cost: Arc<CostModel>,
    dev: Arc<PmemDevice>,
    db: Arc<ChameleonDb>,
    server: Option<(KvServer, Arc<ServerObs>, Client)>,
}

impl<'a> Rig<'a> {
    fn err(&self, what: &str, e: &dyn std::fmt::Debug) -> String {
        format!("{}: {what}: {e:?}", self.workload)
    }

    /// Creates the store, preloads it on both streams, and for a served
    /// workload starts the server and a control connection.
    fn build(
        workload: &'a str,
        plan: &'a Plan,
        traced: bool,
        out: &mut Out,
    ) -> Result<Self, String> {
        let cfg = store_config(plan, workload, traced);
        // Lazily mapped, so head-room costs nothing until touched.
        let capacity =
            cfg.log.capacity + 2 * cfg.manifest_bytes + 96 * plan.sizes.keys + (128 << 20);
        let dev = PmemDevice::optane(capacity as usize);
        let db = ChameleonDb::create(Arc::clone(&dev), cfg)
            .map_err(|e| format!("{workload}: create: {e:?}"))?;
        let mut rig = Rig {
            workload,
            plan,
            cost: Arc::new(CostModel::default()),
            dev,
            db: Arc::new(db),
            server: None,
        };
        let vlen = plan.sizes.value_len;
        out.failed += std::thread::scope(|s| {
            let handles: Vec<_> = (0..gen::STREAMS)
                .map(|t| {
                    let (db, cost, keys) = (&rig.db, Arc::clone(&rig.cost), &plan.preload);
                    s.spawn(move || {
                        put_lane(db, &mut ThreadCtx::for_thread(cost, t), keys, t, vlen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("preload thread"))
                .sum::<u64>()
        });
        rig.settle()?;
        if workload.starts_with("serve-") {
            let cfg = ServerConfig {
                trace: if traced {
                    TraceConfig::sampled(64)
                } else {
                    TraceConfig::off()
                },
                ..ServerConfig::default()
            };
            let obs = Arc::new(ServerObs::new());
            let server = KvServer::start(
                "127.0.0.1:0",
                Arc::clone(&rig.dev),
                Arc::clone(&rig.db),
                Arc::clone(&obs),
                cfg,
            )
            .map_err(|e| rig.err("server start", &e))?;
            let control =
                Client::connect(server.local_addr()).map_err(|e| rig.err("connect", &e))?;
            rig.server = Some((server, obs, control));
        }
        Ok(rig)
    }

    /// Waits for background maintenance and makes everything durable.
    fn settle(&self) -> Result<(), String> {
        let mut ctx = ThreadCtx::for_thread(Arc::clone(&self.cost), 0);
        self.db
            .drain_maintenance()
            .and_then(|()| self.db.sync(&mut ctx))
            .map_err(|e| self.err("drain", &e))
    }

    fn reactor_stats(&mut self) -> Result<String, String> {
        match &mut self.server {
            Some((_, _, control)) => control
                .stats(StatsFormat::Prometheus)
                .map_err(|e| format!("{}: stats: {e:?}", self.workload)),
            None => Ok(String::new()),
        }
    }

    /// The measured phase, and every row that is a delta over it.
    fn measure(&mut self, traced: bool, epoch: Instant, out: &mut Out) -> Result<f64, String> {
        let (plan, vlen) = (self.plan, self.plan.sizes.value_len);
        let reactor_before = self.reactor_stats()?;
        let server_before = self.server.as_ref().map(|(_, obs, _)| server_counters(obs));
        let before = Counters::take(&self.dev, &self.db);
        let stages_before = self.db.obs().stage_aggregates();

        let sp = out.rec.open("measure", 0, 0, None);
        let trace = traced.then_some((epoch, sp.id()));
        let start = Barrier::new(gen::STREAMS + 1);
        let addr = self.server.as_ref().map(|(s, _, _)| s.local_addr());
        let (lanes, ops_s) = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .streams
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let (db, cost, start) = (&self.db, &self.cost, &start);
                    s.spawn(move || match addr {
                        Some(addr) => serve_lane(addr, ops, t, vlen, start, trace),
                        None => Ok(embed_lane(db, ops, t, vlen, cost, start, trace)),
                    })
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            let lanes: std::io::Result<Vec<Lane>> = handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect();
            (lanes, t0.elapsed().as_secs_f64())
        });
        let mut lanes = lanes.map_err(|e| self.err("connection", &e))?;
        // Deferred work is part of the bill: the clock stops only when
        // background maintenance has drained and everything is durable.
        // (A served put is durable when acked; the lanes are idle here.)
        let t_drain = Instant::now();
        if addr.is_none() {
            let sp = out.rec.open("drain", sp.id(), 0, None);
            self.settle()?;
            out.rec.close(sp, None);
        }
        let drain_s = t_drain.elapsed().as_secs_f64();
        let measure_s = ops_s + drain_s;
        out.rec.close(sp, None);

        let after = Counters::take(&self.dev, &self.db);
        let ops = plan.measured_ops() as f64;
        let puts = plan.measured_puts() as f64;
        let media = after.media - before.media;
        let m = |f: fn(&StoreMetricsSnapshot) -> u64| (f(&after.store) - f(&before.store)) as f64;
        let gets = m(|s| s.hits() + s.misses);
        out.failed += lanes.iter().map(|l| l.failed).sum::<u64>();
        out.put("ops_per_s_wall", ops / measure_s);
        out.put(
            "media_bytes_per_op",
            (media.media_bytes_written + media.media_bytes_read) as f64 / ops,
        );
        out.put(
            "dram_bytes_per_key",
            self.db.dram_footprint() as f64 / plan.final_keys() as f64,
        );
        out.put(
            "pmem-sim.media_write_bytes_per_op",
            media.media_bytes_written as f64 / ops,
        );
        out.put(
            "pmem-sim.media_read_bytes_per_op",
            media.media_bytes_read as f64 / ops,
        );
        out.put("pmem-sim.fences_per_op", media.fences as f64 / ops);
        out.put("pmem-sim.rmw_blocks_per_op", media.rmw_blocks as f64 / ops);
        out.put("pmem-sim.device_write_amp", media.write_amplification());
        out.put(
            "chameleondb.memtable_hit_share",
            share(m(|s| s.memtable_hits), gets),
        );
        out.put("chameleondb.abi_hit_share", share(m(|s| s.abi_hits), gets));
        out.put(
            "chameleondb.last_hit_share",
            share(m(|s| s.last_hits), gets),
        );
        out.put("chameleondb.flushes_per_mop", m(|s| s.flushes) * 1e6 / ops);
        out.put(
            "chameleondb.mid_compactions_per_mop",
            m(|s| s.mid_compactions) * 1e6 / ops,
        );
        out.put(
            "chameleondb.last_compactions_per_mop",
            m(|s| s.last_compactions) * 1e6 / ops,
        );
        out.put("chameleondb.write_stalls", m(|s| s.write_stalls));
        out.put("chameleondb.drain_s_wall", drain_s);
        out.put("chameleondb.gc_runs", m(|s| s.gc_runs));
        out.put(
            "chameleondb.gc_relocated_bytes_per_user_byte",
            share(
                m(|s| s.gc_relocated_bytes),
                puts * (ENTRY_HEADER as f64 + vlen as f64),
            ),
        );
        if traced {
            // The program's own maintenance spans, charged to worker clocks.
            let mut total = 0.0;
            for ((stage, agg), (_, agg0)) in
                self.db.obs().stage_aggregates().iter().zip(&stages_before)
            {
                let sim_ns = (agg.sim_ns - agg0.sim_ns) as f64;
                total += sim_ns;
                out.put(
                    &format!("chameleondb.stage.{}_sim_ns_per_op", stage.name()),
                    sim_ns / ops,
                );
            }
            out.put("chameleondb.maint_sim_ns_per_op", total / ops);
        }
        if addr.is_none() {
            let slowest = lanes.iter().map(|l| l.sim_elapsed_ns).max().unwrap_or(1);
            out.put("ops_per_s_sim", ops * 1e9 / slowest as f64);
            // A served store settles at shutdown; see `stop_server`.
            out.put("space_amp", after.space.space_amp_milli() as f64 / 1000.0);
        }
        self.latency_rows(&mut lanes, out);
        if let Some(server_before) = server_before {
            let reactor_after = self.reactor_stats()?;
            let (_, obs, _) = self.server.as_ref().expect("served");
            let now = server_counters(obs);
            let d = |i: usize| now[i] - server_before[i];
            let reactor = |n: &str| prom(&reactor_after, n) - prom(&reactor_before, n);
            // The closing STATS request is not part of the workload.
            let requests = d(6) - 1.0;
            out.put("kvserver.mean_batch_ops", share(d(1), d(0)));
            out.put("kvserver.fences_per_put", share(d(2), puts));
            out.put("kvserver.media_write_bytes_per_put", share(d(3), puts));
            out.put("kvserver.rmw_blocks_per_put", share(d(4), puts));
            out.put("kvserver.retries_per_kop", d(5) * 1e3 / ops);
            out.put(
                "kvserver.polls_per_req",
                share(reactor("chameleon_reactor_polls"), requests),
            );
            out.put(
                "kvserver.wakeups_per_req",
                share(reactor("chameleon_reactor_wakeups"), requests),
            );
        }
        for l in &mut lanes {
            out.rec.spans.append(&mut l.spans);
        }
        Ok(measure_s)
    }

    /// Latency rows by op type; the workload's primary type is also the
    /// end-to-end `op_*` pair.
    fn latency_rows(&self, lanes: &mut [Lane], out: &mut Out) {
        let served = self.server.is_some();
        let prim = primary(self.workload) as usize;
        for (k, kind) in ["put", "get", "scan"].into_iter().enumerate() {
            let mut wall = pooled(lanes, |l| &mut l.wall[k]);
            let mut sim = pooled(lanes, |l| &mut l.sim[k]);
            if !sim.is_empty() {
                let p99 = quantile(&mut sim, 0.99);
                if k == prim {
                    out.put("op_p99_ns_sim", p99);
                }
                out.put(&format!("chameleondb.{kind}_p99_ns_sim"), p99);
                if kind != "scan" {
                    out.put(&format!("chameleondb.{kind}_ns_sim"), mean(&sim));
                    out.put(
                        &format!("chameleondb.{kind}_p999_ns_sim"),
                        quantile(&mut sim, 0.999),
                    );
                }
            }
            if wall.is_empty() {
                continue;
            }
            let p50_us = quantile(&mut wall, 0.5) / 1e3;
            if k == prim {
                out.put("op_p50_us_wall", p50_us);
            }
            if served {
                out.put(&format!("kvclient.{kind}_p50_us_wall"), p50_us);
                out.put(
                    &format!("kvclient.{kind}_p99_us_wall"),
                    quantile(&mut wall, 0.99) / 1e3,
                );
                out.put(
                    &format!("kvclient.{kind}_p999_us_wall"),
                    quantile(&mut wall, 0.999) / 1e3,
                );
            } else if kind == "scan" {
                let keys: u64 = lanes.iter().map(|l| l.timed_scan_keys).sum();
                out.put(
                    "chameleondb.scan_ns_per_key_wall",
                    wall.iter().map(|&x| x as f64).sum::<f64>() / keys.max(1) as f64,
                );
            } else {
                out.put(&format!("chameleondb.{kind}_ns_wall"), mean(&wall));
            }
        }
    }

    /// Shuts a served workload's server down, which must be clean, and
    /// reads what only a stopped server can tell.
    fn stop_server(&mut self, out: &mut Out) -> Result<(), String> {
        let Some((server, obs, control)) = self.server.take() else {
            return Ok(());
        };
        let tracer = server.tracer();
        drop(control);
        server
            .shutdown()
            .map_err(|e| format!("{}: shutdown was not clean: {e}", self.workload))?;
        let proto_errs = obs.protocol_errors.load(Ordering::Relaxed);
        if proto_errs > 0 {
            return Err(format!("{}: {proto_errs} protocol errors", self.workload));
        }
        for s in tracer.stage_summaries() {
            out.put(
                &format!("kvserver.stage.{}_p50_us", s.stage),
                s.p50_ns as f64 / 1e3,
            );
        }
        // Shutdown checkpoints the store, which credits every shadowed
        // version as dead: only now is the live-byte count exact. (While
        // the server runs, crediting trails the overwrites by however
        // far maintenance happens to be behind.)
        out.put(
            "space_amp",
            self.db.space_stats().space_amp_milli() as f64 / 1000.0,
        );
        Ok(())
    }

    /// Reads the final data set back, directly.
    fn audit(&self, out: &mut Out) {
        let vlen = self.plan.sizes.value_len;
        let sp = out.rec.open("audit", 0, 0, None);
        let mut ctx = ThreadCtx::for_thread(Arc::clone(&self.cost), 0);
        let (mut val, mut got) = (Vec::new(), Vec::new());
        let mut sim = Vec::with_capacity(self.plan.audit.len());
        for &(key, ver) in &self.plan.audit {
            gen::value_into(&mut val, key, ver, vlen);
            let c0 = ctx.clock.now();
            let ok = matches!(self.db.get(&mut ctx, key, &mut got), Ok(true)) && got == val;
            sim.push((ctx.clock.now() - c0) as u32);
            out.failed += u64::from(!ok);
        }
        out.rec.close(sp, None);
        if self.workload.starts_with("serve-") {
            // A server keeps its simulated clocks to itself when tracing
            // is off, so for served workloads the simulated-clock pair
            // describes the audit: direct gets on the store the clients
            // left behind.
            out.put(
                "ops_per_s_sim",
                sim.len() as f64 * 1e9 / ctx.clock.now() as f64,
            );
            out.put("op_p99_ns_sim", quantile(&mut sim, 0.99));
        }
    }

    /// Crash, recover, first get, first scan: one interval on both clocks.
    fn restart(&mut self, out: &mut Out) -> Result<(), String> {
        let (plan, vlen) = (self.plan, self.plan.sizes.value_len);
        let workload = self.workload;
        let db = Arc::get_mut(&mut self.db).ok_or("store handle still shared after shutdown")?;
        let mut ctx = ThreadCtx::for_thread(Arc::clone(&self.cost), 0);
        let (mut val, mut got) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let sp = out.rec.open("recover", 0, 0, Some(0));
        db.crash_and_recover(&mut ctx)
            .map_err(|e| format!("{workload}: recover: {e:?}"))?;
        out.rec.close(sp, Some(ctx.clock.now()));
        let recover_s = t0.elapsed().as_secs_f64();
        out.put("chameleondb.recover_ms_sim", ctx.clock.now() as f64 / 1e6);

        let (key, ver) = plan.probe;
        gen::value_into(&mut val, key, ver, vlen);
        let sp = out.rec.open("first_get", 0, 0, Some(ctx.clock.now()));
        let ok = matches!(db.get(&mut ctx, key, &mut got), Ok(true)) && got == val;
        out.rec.close(sp, Some(ctx.clock.now()));
        out.failed += u64::from(!ok);
        let first_get_s = t0.elapsed().as_secs_f64() - recover_s;

        // The first scan pays for the lazy ordered-index rebuild.
        let sp = out.rec.open("first_scan", 0, 0, Some(ctx.clock.now()));
        let first = db
            .scan(&mut ctx, 0, 10)
            .map_err(|e| format!("{workload}: first scan: {e:?}"))?;
        out.rec.close(sp, Some(ctx.clock.now()));
        let restart_s = t0.elapsed().as_secs_f64();
        let sorted = first.len() == 10 && first.windows(2).all(|w| w[0] < w[1]);
        out.failed += u64::from(!(sorted && (!plan.dense || first[0] == 0 && first[9] == 9)));
        out.put("restart_s_wall", restart_s);
        out.put("restart_ms_sim", ctx.clock.now() as f64 / 1e6);
        out.put("chameleondb.recover_s_wall", recover_s);
        out.put("chameleondb.first_get_us_wall", first_get_s * 1e6);
        out.put(
            "kvorder.rebuild_s_wall",
            restart_s - recover_s - first_get_s,
        );

        // Durability: what was acknowledged before the crash is still there.
        let step = plan.audit.len().div_ceil(1024);
        for &(key, ver) in plan.audit.iter().step_by(step) {
            gen::value_into(&mut val, key, ver, vlen);
            let ok = matches!(db.get(&mut ctx, key, &mut got), Ok(true)) && got == val;
            out.failed += u64::from(!ok);
        }
        Ok(())
    }
}

/// Refuses to report numbers from a workload that did not do what its
/// row in the README says it does.
fn guard(workload: &str, quick: bool, out: &Out) -> Result<(), String> {
    // (An eighth of the overwrite volume cannot make GC cycle three times,
    // and in a log of a few extents one extent is a third of the live bytes.)
    let (gc_cycles, amp_limit) = if quick { (1.0, 3.0) } else { (3.0, 2.2) };
    let (gc_runs, space_amp) = (out.get("chameleondb.gc_runs"), out.get("space_amp"));
    let last_hits = out.get("chameleondb.last_hit_share");
    match workload {
        "embed-update" if gc_runs < gc_cycles || space_amp > amp_limit => Err(format!(
            "embed-update is degenerate: gc_runs {gc_runs} (need >= {gc_cycles}), \
             space_amp {space_amp} (need <= {amp_limit})"
        )),
        "embed-read" if last_hits < 0.5 => Err(format!(
            "embed-read is degenerate: last_hit_share {last_hits} (need >= 0.5): \
             the data set fits the DRAM index"
        )),
        _ => Ok(()),
    }
}

/// Runs one repeat. `Err` means the run must not be reported: the program
/// returned an error outside an op, a server did not shut down cleanly, or
/// a validity guard found the workload degenerate.
pub fn run_repeat(
    workload: &str,
    seed: u64,
    quick: bool,
    traced: bool,
    epoch: Instant,
) -> Result<Repeat, String> {
    let mut out = Out {
        values: Vec::new(),
        failed: 0,
        rec: Recorder::new(epoch, 0),
    };
    // Set-up is everything before the first measured op: making the
    // inputs, creating the store (and server), loading the data set.
    let t_setup = Instant::now();
    let sp = out.rec.open("setup", 0, 0, None);
    let plan = gen::plan(workload, seed, quick);
    let generated = plan.preload.len() as u64 + plan.measured_ops() + plan.audit.len() as u64;
    out.put(
        "harness.gen_ns_per_op_wall",
        t_setup.elapsed().as_nanos() as f64 / generated as f64,
    );
    let mut rig = Rig::build(workload, &plan, traced, &mut out)?;
    out.rec.close(sp, None);
    out.put("setup_s", t_setup.elapsed().as_secs_f64());

    let measured_s = rig.measure(traced, epoch, &mut out)?;
    rig.stop_server(&mut out)?;
    rig.audit(&mut out);
    rig.restart(&mut out)?;
    guard(workload, quick, &out)?;
    Ok(Repeat {
        attempted: plan.measured_ops() + plan.audit.len() as u64,
        failed: out.failed,
        measured_s,
        values: out.values,
        spans: out.rec.spans,
    })
}
