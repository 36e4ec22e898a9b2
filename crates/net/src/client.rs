//! The remote [`Service`] client: a pooled, pipelined connection set
//! that makes a [`NetServer`](crate::NetServer) indistinguishable from a
//! local `Arc<dyn Service>`.
//!
//! * **Pooling** — `pool_size` connections; each call goes to the one
//!   with the fewest calls in flight (least-loaded), so a fast call does
//!   not queue behind a slow one while another connection is idle.
//!   Concurrent callers naturally pipeline: many requests can be in
//!   flight on one connection, correlated by request id.
//! * **Demultiplexing** — each connection owns a reader thread that
//!   routes `ResponseOk`/`ResponseErr` frames to the waiting caller and
//!   `StreamPush` frames into a process-local [`PubSub`], from which
//!   [`Response::Stream`] subscriptions are materialized.
//! * **Failure** — connect/read/write errors, timeouts, and servers that
//!   die mid-request all surface as [`Error::Net`]; a dead connection is
//!   re-established lazily with exponential backoff on the next call
//!   that lands on its pool slot. A caller whose request may have
//!   reached the wire is *never* silently retried — writes are not
//!   idempotent, so the ambiguity is the caller's to resolve (the
//!   `Error::Net` docs say exactly that).
//! * **Latency** — every completed call is recorded in a per-connection
//!   microsecond histogram; [`RemoteService::latency_histogram`] merges
//!   them (live and retired connections) for p50/p95/p99 queries.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, FxHashMap, Histogram, Result};
use quaestor_core::{Request, Response, Service};
use quaestor_kv::PubSub;

use crate::codec::{self, WireResponse};
use crate::wire::{self, FrameDecode, FrameKind};

/// Tunables for a [`RemoteService`].
#[derive(Debug, Clone)]
pub struct RemoteServiceConfig {
    /// Number of pooled connections. Each call goes to the connection
    /// with the fewest calls in flight (least-loaded); any number of
    /// calls can be in flight per connection (pipelining), so this bounds
    /// sockets, not concurrency.
    pub pool_size: usize,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// End-to-end deadline for one call, including any reconnect
    /// attempts. Expiry surfaces as [`Error::Net`].
    pub request_timeout: Duration,
    /// Initial delay between reconnect attempts; doubles per failure.
    pub reconnect_backoff: Duration,
    /// Ceiling for the reconnect backoff.
    pub max_backoff: Duration,
    /// Disable Nagle's algorithm (keep `true` for pipelined latency).
    pub nodelay: bool,
    /// Per-connection read chunk size.
    pub read_chunk: usize,
    /// Seed for the reconnect backoff jitter. Every sleep is scaled by a
    /// factor uniform in `[0.5, 1.5)` so N clients failing over together
    /// don't hammer a recovering server in lockstep. `None` (the
    /// default) draws a random per-pool seed; tests pin it for
    /// reproducible schedules.
    pub reconnect_jitter_seed: Option<u64>,
}

impl Default for RemoteServiceConfig {
    fn default() -> Self {
        RemoteServiceConfig {
            pool_size: 2,
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            nodelay: true,
            read_chunk: 64 * 1024,
            reconnect_jitter_seed: None,
        }
    }
}

fn net_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Net(format!("{context}: {e}"))
}

/// A `Service` whose implementation lives across a TCP connection pool.
pub struct RemoteService {
    addr: SocketAddr,
    config: RemoteServiceConfig,
    slots: Vec<Mutex<Option<Arc<Conn>>>>,
    next_slot: AtomicUsize,
    next_id: AtomicU64,
    /// Local bus that remote change streams are materialized from:
    /// `StreamPush` frames publish into `stream-<request id>` channels.
    bus: Arc<PubSub>,
    /// Latency of calls on connections that have since been torn down.
    retired_latency: Arc<Mutex<Histogram>>,
    /// Resolved jitter seed (config's, or a random per-pool draw).
    jitter_seed: u64,
    /// Monotone draw counter: each backoff sleep mixes it with the seed,
    /// so the jitter sequence is deterministic per pool yet never repeats.
    jitter_seq: AtomicU64,
}

impl std::fmt::Debug for RemoteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteService")
            .field("addr", &self.addr)
            .field("pool_size", &self.config.pool_size)
            .finish()
    }
}

/// One pooled connection.
struct Conn {
    writer: Mutex<TcpStream>,
    /// For teardown: `shutdown` here unblocks the reader thread.
    stream: TcpStream,
    pending: Mutex<FxHashMap<u64, Sender<Result<WireResponse>>>>,
    alive: AtomicBool,
    /// Calls currently using this connection (see [`InFlight`]); the
    /// pool's load measure.
    in_flight: AtomicUsize,
    latency_us: Mutex<Histogram>,
}

/// One call's claim on a connection: counts toward its `in_flight` load
/// from pick to drop.
struct InFlight(Arc<Conn>);

impl InFlight {
    fn new(conn: Arc<Conn>) -> InFlight {
        conn.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlight(conn)
    }
}

impl std::ops::Deref for InFlight {
    type Target = Conn;
    fn deref(&self) -> &Conn {
        &self.0
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Conn {
    fn teardown(&self) {
        if self.alive.swap(false, Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        // Whoever gets here first drains the pending map; senders to
        // callers that already timed out fail harmlessly.
        let pending = std::mem::take(&mut *self.pending.lock());
        for (_, tx) in pending {
            let _ = tx.send(Err(Error::Net(
                "connection closed with the request in flight; \
                 it may or may not have executed"
                    .into(),
            )));
        }
    }
}

impl RemoteService {
    /// Connect a pool to `addr`. The first connection is established
    /// eagerly so misconfiguration fails here rather than on first use;
    /// the rest are opened lazily.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: RemoteServiceConfig,
    ) -> Result<Arc<RemoteService>> {
        let svc = RemoteService::connect_lazy(addr, config)?;
        let conn = svc.open_conn()?;
        *svc.slots[0].lock() = Some(conn);
        Ok(svc)
    }

    /// Like [`connect`](Self::connect), but without touching the network:
    /// every connection is established on first use (with backoff). For
    /// targets that are expected to come up later.
    pub fn connect_lazy(
        addr: impl ToSocketAddrs,
        config: RemoteServiceConfig,
    ) -> Result<Arc<RemoteService>> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| net_err("resolve", e))?
            .next()
            .ok_or_else(|| Error::Net("address resolved to nothing".into()))?;
        assert!(config.pool_size > 0, "pool_size must be at least 1");
        Ok(Arc::new(RemoteService {
            addr,
            slots: (0..config.pool_size)
                .map(|_| {
                    Mutex::with_rank(
                        None,
                        lock_rank::NET_CLIENT_SLOT.0,
                        lock_rank::NET_CLIENT_SLOT.1,
                    )
                })
                .collect(),
            next_slot: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            bus: PubSub::new(),
            retired_latency: Arc::new(Mutex::with_rank(
                Histogram::new(),
                lock_rank::NET_CLIENT_RETIRED_LATENCY.0,
                lock_rank::NET_CLIENT_RETIRED_LATENCY.1,
            )),
            jitter_seed: config.reconnect_jitter_seed.unwrap_or_else(|| {
                use std::hash::{BuildHasher, Hasher};
                std::collections::hash_map::RandomState::new()
                    .build_hasher()
                    .finish()
            }),
            jitter_seq: AtomicU64::new(0),
            config,
        }))
    }

    /// The server address this pool targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Close every pooled connection now. Pending calls fail with
    /// [`Error::Net`]; subsequent calls reconnect with backoff. (Useful
    /// for failover drills and tests; normal use never needs it.)
    pub fn disconnect_all(&self) {
        for slot in &self.slots {
            if let Some(conn) = slot.lock().take() {
                conn.teardown();
                self.retire_latency(&conn);
            }
        }
    }

    /// Merged call-latency histogram (microseconds) across all pooled
    /// connections, past and present.
    pub fn latency_histogram(&self) -> Histogram {
        let mut merged = self.retired_latency.lock().clone();
        for slot in &self.slots {
            // analyze: allow(lock-order) retired_latency guard above is a statement temporary, dropped before any slot is taken
            if let Some(conn) = &*slot.lock() {
                merged.merge(&conn.latency_us.lock());
            }
        }
        merged
    }

    fn retire_latency(&self, conn: &Conn) {
        self.retired_latency.lock().merge(&conn.latency_us.lock());
    }

    /// Open one connection and start its reader thread.
    fn open_conn(&self) -> Result<Arc<Conn>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| net_err("connect", e))?;
        if self.config.nodelay {
            let _ = stream.set_nodelay(true);
        }
        let writer = stream.try_clone().map_err(|e| net_err("clone socket", e))?;
        let reader = stream.try_clone().map_err(|e| net_err("clone socket", e))?;
        let conn = Arc::new(Conn {
            writer: Mutex::with_rank(
                writer,
                lock_rank::NET_CLIENT_WRITER.0,
                lock_rank::NET_CLIENT_WRITER.1,
            ),
            stream,
            pending: Mutex::with_rank(
                FxHashMap::default(),
                lock_rank::NET_CLIENT_PENDING.0,
                lock_rank::NET_CLIENT_PENDING.1,
            ),
            alive: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            latency_us: Mutex::with_rank(
                Histogram::new(),
                lock_rank::NET_CLIENT_LATENCY.0,
                lock_rank::NET_CLIENT_LATENCY.1,
            ),
        });
        let conn2 = conn.clone();
        let bus = self.bus.clone();
        let chunk_size = self.config.read_chunk;
        std::thread::Builder::new()
            .name("qnet-client-reader".to_owned())
            .spawn(move || run_reader(conn2, reader, bus, chunk_size))
            .map_err(|e| net_err("spawn reader thread", e))?;
        Ok(conn)
    }

    /// Claim the least-loaded connection, reconnecting its slot with
    /// exponential backoff while the deadline allows.
    ///
    /// Load is the number of calls in flight; an empty or dead slot
    /// counts as idle (it is reconnected on the spot). The scan starts at
    /// a rotating cursor so ties still spread round-robin, and takes the
    /// slot locks one at a time. The loads are a snapshot, so two racing
    /// callers may pick the same slot: the pick is a heuristic, and any
    /// connection serves any call.
    ///
    /// The slot mutex is held only for the check-and-install moments,
    /// never across a connect attempt or a backoff sleep — callers that
    /// share a dead slot reconnect concurrently (and `disconnect_all` /
    /// `latency_histogram` never stall behind a retry loop). If two
    /// callers race to repopulate a slot, the loser's connection is torn
    /// down and the winner's is shared.
    fn get_conn(&self, deadline: Instant) -> Result<InFlight> {
        let n = self.slots.len();
        let start = self.next_slot.fetch_add(1, Ordering::Relaxed) % n;
        let mut idx = start;
        let mut least = usize::MAX;
        for i in (start..start + n).map(|i| i % n) {
            let load = match &*self.slots[i].lock() {
                Some(conn) if conn.alive.load(Ordering::Acquire) => {
                    conn.in_flight.load(Ordering::Relaxed)
                }
                _ => 0,
            };
            if load < least {
                (idx, least) = (i, load);
                if load == 0 {
                    break;
                }
            }
        }
        let slot = &self.slots[idx];
        let mut backoff = self.config.reconnect_backoff;
        loop {
            {
                let mut guard = slot.lock();
                if let Some(conn) = &*guard {
                    if conn.alive.load(Ordering::Acquire) {
                        return Ok(InFlight::new(conn.clone()));
                    }
                    conn.teardown();
                    self.retire_latency(conn);
                    *guard = None;
                }
            }
            match self.open_conn() {
                Ok(conn) => {
                    let mut guard = slot.lock();
                    if let Some(existing) = &*guard {
                        if existing.alive.load(Ordering::Acquire) {
                            // Someone repopulated the slot while we were
                            // connecting; share theirs, discard ours.
                            conn.teardown();
                            return Ok(InFlight::new(existing.clone()));
                        }
                        existing.teardown();
                        self.retire_latency(existing);
                    }
                    *guard = Some(conn.clone());
                    return Ok(InFlight::new(conn));
                }
                Err(e) => {
                    let delay = self.jittered(backoff);
                    if Instant::now() + delay >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    backoff = (backoff * 2).min(self.config.max_backoff);
                }
            }
        }
    }

    /// Scale one backoff by a seeded factor uniform in `[0.5, 1.5)`.
    /// Exponential backoff alone synchronizes: every client that lost the
    /// same primary at the same moment retries on the same schedule,
    /// stampeding the node that is trying to come back. Jitter spreads
    /// the herd while keeping the expected delay unchanged.
    fn jittered(&self, backoff: Duration) -> Duration {
        let n = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        // splitmix64 over (seed, draw index): cheap, seedable, and good
        // enough to decorrelate sleep schedules — not used for secrets.
        let mut z = self
            .jitter_seed
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        backoff.mul_f64(0.5 + frac)
    }

    fn stream_channel(request_id: u64) -> String {
        format!("stream-{request_id}")
    }
}

impl Drop for RemoteService {
    fn drop(&mut self) {
        self.disconnect_all();
    }
}

impl Service for RemoteService {
    fn call(&self, req: Request) -> Result<Response> {
        let started = Instant::now();
        let deadline = started + self.config.request_timeout;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);

        // Child span when a trace is active (or a sampled root when
        // client-side sampling is on); its context rides the frame as a
        // body-prefix tag so the server stitches into the same trace.
        let span = quaestor_obs::client_span("client.call");

        // For subscriptions: open the local endpoint *before* the request
        // leaves, so no push can slip past between response and subscribe.
        let mut local_sub = if matches!(req, Request::Subscribe { .. }) {
            Some(self.bus.subscribe(&Self::stream_channel(request_id)))
        } else {
            None
        };

        let body = codec::encode_request_traced(&req, span.context());
        if !wire::frame_fits(body.len()) {
            return Err(Error::Net(format!(
                "request too large for one frame ({} bytes > {} cap); split the batch",
                body.len(),
                wire::MAX_FRAME_PAYLOAD
            )));
        }
        let mut frame = Vec::new();
        wire::encode_frame(FrameKind::Request, request_id, &body, &mut frame);

        let (tx, rx) = bounded::<Result<WireResponse>>(1);
        // Send loop: a *write* that fails before the frame reaches the
        // wire is safe to retry on a fresh connection — the server never
        // saw it. Once write_all succeeds, retries stop being safe.
        let conn = loop {
            let conn = self.get_conn(deadline)?;
            conn.pending.lock().insert(request_id, tx.clone());
            let write_result = {
                // analyze: allow(lock-order) pending guard above is a statement temporary, released before the writer lock
                let mut w = conn.writer.lock();
                w.write_all(&frame)
            };
            match write_result {
                Ok(()) => break conn,
                Err(e) => {
                    conn.pending.lock().remove(&request_id);
                    // Tear down but leave the slot to retire the
                    // connection (and its latency record) exactly once.
                    conn.teardown();
                    if Instant::now() >= deadline {
                        return Err(net_err("send", e));
                    }
                }
            }
        };

        let remaining = deadline.saturating_duration_since(Instant::now());
        let outcome = match rx.recv_timeout(remaining) {
            Ok(result) => result,
            Err(_) => {
                conn.pending.lock().remove(&request_id);
                return Err(Error::Net(format!(
                    "request timed out after {:?}; it may or may not have executed",
                    self.config.request_timeout
                )));
            }
        };
        conn.latency_us
            .lock()
            .record(started.elapsed().as_micros() as u64);
        match outcome? {
            WireResponse::Plain(resp) => Ok(resp),
            WireResponse::Stream => match local_sub.take() {
                Some(sub) => Ok(Response::Stream(sub)),
                None => Err(Error::Net(
                    "protocol violation: stream response to a non-subscribe request".into(),
                )),
            },
        }
    }
}

/// The per-connection demultiplexer: routes response frames to waiting
/// callers and push frames onto the local bus.
fn run_reader(conn: Arc<Conn>, mut stream: TcpStream, bus: Arc<PubSub>, chunk_size: usize) {
    let mut buf = BytesMut::with_capacity(chunk_size);
    let mut chunk = vec![0u8; chunk_size];
    'conn: loop {
        loop {
            let advance = match wire::decode_frame(&buf) {
                FrameDecode::Incomplete => break,
                FrameDecode::Corrupt(_) => break 'conn,
                FrameDecode::Frame(frame) => {
                    match frame.kind {
                        FrameKind::ResponseOk => {
                            let result = codec::decode_response(frame.body)
                                .map_err(|e| Error::Net(format!("undecodable response: {e}")));
                            deliver(&conn, frame.request_id, result);
                        }
                        FrameKind::ResponseErr => {
                            let result = match codec::decode_error(frame.body) {
                                Ok(e) => Err(e),
                                Err(e) => {
                                    Err(Error::Net(format!("undecodable error response: {e}")))
                                }
                            };
                            deliver(&conn, frame.request_id, result);
                        }
                        FrameKind::StreamPush => {
                            let delivered = bus.publish(
                                &RemoteService::stream_channel(frame.request_id),
                                Bytes::from(frame.body.to_vec()),
                            );
                            if delivered == 0 {
                                // The local subscription is gone (the
                                // caller dropped it, or the subscribe
                                // call failed): tell the server to
                                // release its forwarder, bounding the
                                // per-subscribe cost to one orphan push.
                                let mut cancel = Vec::new();
                                wire::encode_frame(
                                    FrameKind::StreamCancel,
                                    frame.request_id,
                                    &[],
                                    &mut cancel,
                                );
                                let _ = conn.writer.lock().write_all(&cancel);
                            }
                        }
                        // Servers don't ask, and replication frames only
                        // travel on dedicated replication connections.
                        FrameKind::Request
                        | FrameKind::StreamCancel
                        | FrameKind::ReplHello
                        | FrameKind::ReplHelloAck
                        | FrameKind::ReplFrames
                        | FrameKind::ReplAck => break 'conn,
                    }
                    frame.size
                }
            };
            buf.advance(advance);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    conn.teardown();
}

fn deliver(conn: &Conn, request_id: u64, result: Result<WireResponse>) {
    if let Some(tx) = conn.pending.lock().remove(&request_id) {
        let _ = tx.send(result);
    }
    // No waiter: the caller timed out and cleaned up — drop the result.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: Option<u64>) -> Arc<RemoteService> {
        RemoteService::connect_lazy(
            "127.0.0.1:1", // never dialed by these tests
            RemoteServiceConfig {
                reconnect_jitter_seed: seed,
                ..RemoteServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn jitter_stays_within_half_to_one_and_a_half() {
        let svc = pool(Some(7));
        let base = Duration::from_millis(100);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..256 {
            let d = svc.jittered(base);
            assert!(d >= base / 2, "{d:?} below 0.5x");
            assert!(d < base + base / 2, "{d:?} at or above 1.5x");
            distinct.insert(d.as_nanos());
        }
        assert!(
            distinct.len() > 200,
            "draws must vary, got {}",
            distinct.len()
        );
    }

    #[test]
    fn pinned_seeds_replay_and_differ_across_pools() {
        let base = Duration::from_millis(20);
        let a1: Vec<_> = {
            let svc = pool(Some(42));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        let a2: Vec<_> = {
            let svc = pool(Some(42));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        let b: Vec<_> = {
            let svc = pool(Some(43));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        assert_ne!(a1, b, "different seeds must not reconnect in lockstep");
    }
}
