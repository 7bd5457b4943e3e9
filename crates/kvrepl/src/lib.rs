//! Replica side of primary→replica log shipping (ISSUE 10 tentpole).
//!
//! A [`Replica`] owns a fresh [`ChameleonDb`] image and keeps it converged
//! with a primary `kvserver` by subscribing to the primary's replication
//! stream: it sends `REPL_SUBSCRIBE` over the ordinary length-prefixed
//! wire protocol, then applies every `REPL_BATCH` frame in ship-index
//! order through [`ChameleonDb::apply_batch`] and confirms it with
//! `REPL_ACK`. Alongside the apply loop the replica runs its own
//! read-only [`KvServer`] (one started with `replica_floors` set), so
//! clients can point GET / SCAN / STATS at the replica while PUT /
//! DELETE / SYNC are refused.
//!
//! Three monotone floors ([`ReplicaFloors`]) describe the replica's
//! position in the stream and feed the primary-visible `REPL_FLOOR`
//! responses, the replica's obs snapshot (`repl` section), and the
//! windowed telemetry:
//!
//! - `received` — highest ship index read off the wire,
//! - `applied`  — highest ship index durably applied to the local store,
//! - `acked`    — highest ship index confirmed back to the primary.
//!
//! Because the apply loop is a single thread that applies a chunk before
//! acking it, `received ≥ applied ≥ acked` never inverts by more than the
//! one chunk in flight, and an ack is always backed by a completed local
//! apply — the property the primary's `replica-quorum` ack policy leans
//! on for durability.
//!
//! **Promotion.** [`Replica::promote`] turns the replica into a primary:
//! it severs the subscription, drains the read-only front-end, and
//! restarts a writable [`KvServer`] over the *same* store image. The
//! promoted image is exactly the shipped prefix the replica had applied —
//! the log-prefix-cut invariant audited by `repro replicate`.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use chameleon_obs::ServerObs;
use chameleondb::ChameleonDb;
use kvserver::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use kvserver::repl::batch_of_rep_ops;
use kvserver::{KvServer, ReplicaFloors, ServerConfig};
use pmem_sim::{PmemDevice, ThreadCtx};

/// `ThreadCtx` worker index for the apply thread. Stores use the index
/// modulo their per-thread resource counts, so any fixed value is safe;
/// a large one keeps the replica's apply traffic off the contexts the
/// read-only front-end's own threads hash to.
const APPLY_THREAD_ID: usize = 4093;

/// Why and how far the apply loop ran, returned when a replica is
/// stopped or promoted.
#[derive(Debug, Clone)]
pub struct ApplyStats {
    /// `REPL_BATCH` chunks applied.
    pub batches: u64,
    /// Individual operations applied across those chunks.
    pub ops: u64,
    /// Why the loop exited: `None` for a clean local stop (socket shut
    /// down by [`Replica::stop`]/[`Replica::promote`]), otherwise the
    /// remote error or disconnect reason.
    pub disconnect: Option<String>,
}

/// A promoted replica: the writable server now running over the formerly
/// read-only image, plus everything needed to keep using it.
pub struct Promoted {
    pub server: KvServer,
    pub store: Arc<ChameleonDb>,
    pub dev: Arc<PmemDevice>,
    pub obs: Arc<ServerObs>,
    /// Final floors at promotion time; `applied` is the ship prefix the
    /// promoted image contains.
    pub floors: Arc<ReplicaFloors>,
    pub apply_stats: ApplyStats,
}

struct ApplyHandle {
    join: JoinHandle<ApplyStats>,
    /// Clone of the subscription stream; shutting it down makes the
    /// blocking `read_frame` in the apply loop return EOF.
    stop: TcpStream,
}

/// A running replica process: apply loop plus read-only front-end.
pub struct Replica {
    dev: Arc<PmemDevice>,
    store: Arc<ChameleonDb>,
    obs: Arc<ServerObs>,
    floors: Arc<ReplicaFloors>,
    cfg: ServerConfig,
    server: Option<KvServer>,
    addr: SocketAddr,
    apply: Option<ApplyHandle>,
}

impl Replica {
    /// Connects to `primary`, subscribes from the first unapplied ship
    /// index, and starts the read-only front-end on `listen` (use port 0
    /// for an ephemeral port). The subscribe handshake completes before
    /// this returns, so a refusal ("history trimmed", "replica does not
    /// serve subscriptions") surfaces here rather than asynchronously.
    ///
    /// `base_cfg` seeds the front-end's [`ServerConfig`]; `replica_floors`
    /// (which makes it read-only) is forced regardless of what it says.
    pub fn start(
        primary: SocketAddr,
        listen: &str,
        dev: Arc<PmemDevice>,
        store: Arc<ChameleonDb>,
        base_cfg: ServerConfig,
    ) -> io::Result<Self> {
        let floors = Arc::new(ReplicaFloors::new());
        let mut cfg = base_cfg;
        cfg.replica_floors = Some(Arc::clone(&floors));

        // Subscribe synchronously: the primary answers REPL_SUBSCRIBE
        // with a REPL_FLOOR carrying our subscriber id before any batch.
        let mut stream = TcpStream::connect(primary)?;
        stream.set_nodelay(true)?;
        let start_ship = floors.applied.load(Ordering::Acquire) + 1;
        write_frame(
            &mut stream,
            &encode_request(&Request::ReplSubscribe {
                req_id: 1,
                start_ship,
            }),
        )?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let sub_id = match read_reply(&mut reader)? {
            Response::ReplFloor { sub_id, .. } => sub_id,
            Response::Err { message, .. } => {
                return Err(io::Error::other(format!("subscribe refused: {message}")))
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected subscribe reply: {other:?}"
                )))
            }
        };

        let obs = Arc::new(ServerObs::new());
        let server = KvServer::start(
            listen,
            Arc::clone(&dev),
            Arc::clone(&store),
            Arc::clone(&obs),
            cfg.clone(),
        )?;
        let addr = server.local_addr();

        let stop = stream.try_clone()?;
        let join = {
            let store = Arc::clone(&store);
            let floors = Arc::clone(&floors);
            let cost = Arc::clone(&cfg.cost);
            thread::Builder::new()
                .name("repl-apply".to_owned())
                .spawn(move || apply_loop(stream, reader, store, floors, cost, sub_id))?
        };

        Ok(Self {
            dev,
            store,
            obs,
            floors,
            cfg,
            server: Some(server),
            addr,
            apply: Some(ApplyHandle { join, stop }),
        })
    }

    /// Address of the read-only front-end.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica's stream floors.
    pub fn floors(&self) -> &Arc<ReplicaFloors> {
        &self.floors
    }

    /// The replica's store image.
    pub fn store(&self) -> &Arc<ChameleonDb> {
        &self.store
    }

    /// Highest ship index applied to the local image.
    pub fn applied(&self) -> u64 {
        self.floors.applied.load(Ordering::Acquire)
    }

    /// Blocks until the applied floor reaches `ship`. Returns `false` on
    /// timeout (e.g. the primary died before shipping that far).
    pub fn wait_applied(&self, ship: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied() < ship {
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Stops the apply loop and the read-only front-end, returning the
    /// apply stats. The store image is left at the applied prefix.
    pub fn stop(mut self) -> Result<ApplyStats, String> {
        let stats = self.halt_apply();
        if let Some(server) = self.server.take() {
            server.shutdown()?;
        }
        Ok(stats)
    }

    /// Fails the replica over to primary duty: severs the subscription,
    /// drains the read-only server, and restarts a writable [`KvServer`]
    /// on `listen` over the same store image. The image served by the
    /// returned server is exactly the shipped prefix this replica had
    /// applied (`floors.applied`) — nothing more, nothing less.
    pub fn promote(mut self, listen: &str) -> Result<Promoted, String> {
        let apply_stats = self.halt_apply();
        if let Some(server) = self.server.take() {
            server.shutdown()?;
        }
        let mut cfg = self.cfg.clone();
        cfg.replica_floors = None;
        let server = KvServer::start(
            listen,
            Arc::clone(&self.dev),
            Arc::clone(&self.store),
            Arc::clone(&self.obs),
            cfg,
        )
        .map_err(|e| format!("promote: rebind failed: {e}"))?;
        Ok(Promoted {
            server,
            store: Arc::clone(&self.store),
            dev: Arc::clone(&self.dev),
            obs: Arc::clone(&self.obs),
            floors: Arc::clone(&self.floors),
            apply_stats,
        })
    }

    fn halt_apply(&mut self) -> ApplyStats {
        match self.apply.take() {
            Some(h) => {
                let _ = h.stop.shutdown(Shutdown::Both);
                h.join.join().unwrap_or(ApplyStats {
                    batches: 0,
                    ops: 0,
                    disconnect: Some("apply thread panicked".to_owned()),
                })
            }
            None => ApplyStats {
                batches: 0,
                ops: 0,
                disconnect: None,
            },
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.halt_apply();
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

/// Reads and decodes one response frame, mapping EOF and decode errors
/// into `io::Error`.
fn read_reply(reader: &mut impl Read) -> io::Result<Response> {
    match read_frame(reader)? {
        Some(payload) => {
            decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
        }
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "primary closed the subscription",
        )),
    }
}

/// The subscription loop: apply each shipped chunk, then ack it. Acks
/// ride the same socket (the primary answers each with a plain OK, which
/// the loop drains and ignores).
fn apply_loop(
    mut stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    store: Arc<ChameleonDb>,
    floors: Arc<ReplicaFloors>,
    cost: Arc<pmem_sim::CostModel>,
    sub_id: u64,
) -> ApplyStats {
    let mut ctx = ThreadCtx::for_thread(cost, APPLY_THREAD_ID);
    let mut stats = ApplyStats {
        batches: 0,
        ops: 0,
        disconnect: None,
    };
    let mut ack_req = 2u64; // req_id 1 was the subscribe
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean EOF: either a local stop() shut the socket down or
            // the primary went away at a frame boundary. Both end the
            // stream without error; promote() decides what comes next.
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                stats.disconnect = Some("primary died mid-frame".to_owned());
                break;
            }
            Err(e) => {
                stats.disconnect = Some(format!("subscription read failed: {e}"));
                break;
            }
        };
        let resp = match decode_response(&payload) {
            Ok(r) => r,
            Err(e) => {
                stats.disconnect = Some(format!("undecodable frame: {}", e.0));
                break;
            }
        };
        match resp {
            Response::ReplBatch { ship, ops, .. } => {
                floors.received.store(ship, Ordering::Release);
                let batch = batch_of_rep_ops(ops);
                match store.apply_batch(&mut ctx, &batch) {
                    Ok(_) => {}
                    Err(e) => {
                        stats.disconnect = Some(format!("apply failed at ship {ship}: {e:?}"));
                        break;
                    }
                }
                floors.applied.store(ship, Ordering::Release);
                stats.batches += 1;
                stats.ops += batch.len() as u64;
                let ack = encode_request(&Request::ReplAck {
                    req_id: ack_req,
                    sub_id,
                    ship,
                });
                ack_req += 1;
                if let Err(e) = write_frame(&mut stream, &ack).and_then(|()| stream.flush()) {
                    stats.disconnect = Some(format!("ack write failed: {e}"));
                    break;
                }
                floors.acked.store(ship, Ordering::Release);
            }
            // The primary's answer to a REPL_ACK.
            Response::Ok { .. } => {}
            // Floor reports are harmless if the primary volunteers one.
            Response::ReplFloor { .. } => {}
            Response::Err { message, .. } => {
                stats.disconnect = Some(format!("primary error: {message}"));
                break;
            }
            other => {
                stats.disconnect = Some(format!("unexpected frame on subscription: {other:?}"));
                break;
            }
        }
    }
    stats
}
