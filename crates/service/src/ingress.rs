//! Network ingress: the TCP front door of a [`Fleet`].
//!
//! One accept-loop thread, one reader thread per connection, and one
//! event-router thread shared by all connections. A client speaks the
//! [`crate::wire`] protocol: the server greets with HELLO (carrying the
//! connection's credit window), the client streams RECORD frames, and
//! the server answers each record twice — an ACK at admission (the
//! fleet's [`Admission`] verdict verbatim) and, for admitted records, a
//! DECISION once the shard has classified the scan. Alert transitions
//! ride along as ALERT frames.
//!
//! # Flow control
//!
//! The HELLO credit window `W` is `min(configured window, per-premises
//! admission quota)`: a client that keeps at most `W` records
//! unresolved (no DECISION yet, no shed ACK) can never overrun its
//! premises' quota, so a well-behaved device sees zero sheds by
//! construction. Shed ACKs echo the reason (queue full, shutdown,
//! unknown premises, or busy) and restore the credit immediately —
//! a shed record never produces a DECISION.
//!
//! # Failure handling
//!
//! A torn frame, checksum mismatch, oversized declared length, unknown
//! frame kind, or read timeout rejects *that connection only*: the
//! socket is closed, the premises routes it held are released, a
//! `gem_ingress_rejects_total{reason}` counter ticks, and the listener
//! and every other connection keep running. Decisions for records a
//! dead connection left behind are counted as orphans and dropped.
//!
//! # Premises ownership
//!
//! Decisions are matched to records by per-premises FIFO order, so a
//! premises may stream through at most one connection at a time: the
//! first RECORD for a premises claims it, and other connections get
//! `Shed(Busy)` until the owner disconnects.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gem_obs::{SpanContext, TraceEvent};

use crate::fleet::{Admission, Fleet, FleetSubmitter};
use crate::monitor::Event;
use crate::obs::IngressObs;
use crate::shard::FleetEvent;
use crate::wire::{self, Frame, WireError, WireShedReason, WireVerdict, WIRE_VERSION};

/// Tuning knobs of the network ingress.
#[derive(Clone, Debug)]
pub struct IngressConfig {
    /// Per-connection credit window cap. The advertised window is the
    /// minimum of this and the fleet's per-premises admission quota.
    pub credit_window: u16,
    /// Per-connection read timeout: a client silent for this long is
    /// disconnected (reason `timeout`).
    pub read_timeout: Duration,
    /// Ceiling on declared frame payload lengths.
    pub max_frame_len: u32,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            credit_window: 64,
            read_timeout: Duration::from_secs(30),
            max_frame_len: wire::MAX_FRAME_LEN,
        }
    }
}

/// The write half of one connection, shared between its reader thread
/// (ACKs) and the router thread (DECISIONs/ALERTs). Each frame is
/// encoded into a scratch buffer and written under the lock in one
/// `write_all`, so concurrent writers never interleave frame bytes.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, frame: &Frame, obs: &IngressObs) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(64);
        wire::encode(frame, &mut buf);
        let mut stream = lock(&self.stream);
        stream.write_all(&buf)?;
        obs.bytes_tx.add(buf.len() as u64);
        Ok(())
    }
}

/// Locks `m`, absorbing poison: a thread that panicked while holding
/// one of the ingress' locks must not wedge every other connection.
/// Each critical section is whole map or vector operations or one
/// `write_all`, so a panicking holder leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the accept loop, the router, and every connection.
struct Shared {
    stop: AtomicBool,
    submitter: FleetSubmitter,
    credits: u16,
    read_timeout: Duration,
    max_frame_len: u32,
    /// premises → the connection currently streaming it.
    routes: Mutex<HashMap<u64, Arc<ConnWriter>>>,
    /// Live connections (socket clones), for shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    obs: IngressObs,
}

/// A running TCP ingress in front of a fleet. Dropping it closes the
/// listener and every connection, then joins all threads; the fleet
/// itself keeps running.
pub struct IngressServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl IngressServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving the fleet. Takes the fleet's event stream — after
    /// this, [`Fleet::events`] observes a disconnected channel; the
    /// ingress forwards every decision and alert to the connection that
    /// submitted the corresponding records.
    pub fn bind(
        addr: &str,
        fleet: &mut Fleet,
        cfg: IngressConfig,
    ) -> std::io::Result<IngressServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let credits = (cfg.credit_window as usize).min(fleet.admission_quota()).max(1) as u16;
        let obs = IngressObs::register(&fleet.registry(), fleet.obs_options().enabled);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            submitter: fleet.submitter(),
            credits,
            read_timeout: cfg.read_timeout,
            max_frame_len: cfg.max_frame_len,
            routes: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            obs,
        });
        let events = fleet.take_events();
        let router = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gem-ingress-router".into())
                .spawn(move || route_events(&shared, &events))?
        };
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new().name("gem-ingress-accept".into()).spawn(move || {
                let next_conn = AtomicU64::new(1);
                while !shared.stop.load(Ordering::Acquire) {
                    let Ok((stream, _)) = listener.accept() else { continue };
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        lock(&shared.conns).insert(conn_id, clone);
                    }
                    let shared2 = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name(format!("gem-ingress-conn-{conn_id}"))
                        .spawn(move || handle_conn(&shared2, stream, conn_id));
                    let mut threads = lock(&conn_threads);
                    // Reap finished readers so a long-lived listener
                    // doesn't accumulate dead handles.
                    let mut live = Vec::with_capacity(threads.len() + 1);
                    for h in threads.drain(..) {
                        if h.is_finished() {
                            let _ = h.join();
                        } else {
                            live.push(h);
                        }
                    }
                    *threads = live;
                    if let Ok(handle) = spawned {
                        threads.push(handle);
                    }
                }
            })?
        };
        Ok(IngressServer { addr, shared, accept: Some(accept), router: Some(router), conn_threads })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocked accept() so the thread observes `stop`.
        let _ = TcpStream::connect(self.addr);
        // Knock every live connection loose; their readers exit on the
        // resulting error/EOF.
        for (_, stream) in lock(&self.shared.conns).iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in lock(&self.conn_threads).drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
    }
}

/// Forwards fleet events to the connections that own their premises.
fn route_events(shared: &Shared, events: &Receiver<FleetEvent>) {
    loop {
        let event = match events.recv_timeout(Duration::from_millis(100)) {
            Ok(e) => e,
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let FleetEvent { premises_id, event, latency_s, trace } = event;
        let frame = match event {
            Event::Decision { timestamp_s, label, score } => Frame::Decision {
                premises_id,
                inside: label.is_in(),
                timestamp_s,
                score,
                latency_s,
            },
            Event::AlertRaised { timestamp_s, consecutive_out } => Frame::Alert {
                premises_id,
                raised: true,
                timestamp_s,
                consecutive_out: consecutive_out.min(u32::MAX as usize) as u32,
            },
            Event::AlertCleared { timestamp_s } => {
                Frame::Alert { premises_id, raised: false, timestamp_s, consecutive_out: 0 }
            }
        };
        let writer = lock(&shared.routes).get(&premises_id).cloned();
        match writer {
            Some(writer) => {
                let t = Instant::now();
                if writer.send(&frame, &shared.obs).is_ok() {
                    let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    if shared.obs.enabled {
                        shared.obs.reply_seconds.record(ns);
                    }
                    // The record's span ended at the shard; the reply
                    // write is the trace's final stage, joined to the
                    // span by trace id (`gem trace` does the join).
                    if trace != 0 {
                        shared.submitter.trace(
                            premises_id,
                            TraceEvent::new("span_ack")
                                .with("trace", SpanContext::format_id(trace))
                                .with("premises", premises_id)
                                .with("ack_ns", ns),
                        );
                    }
                } else {
                    // The connection is dying; its reader unregisters
                    // the route. The decision itself is safe — the
                    // model updated and the epoch was journaled.
                    shared.obs.orphan_events.inc();
                }
            }
            None => shared.obs.orphan_events.inc(),
        }
    }
}

/// Reads frames from one connection until EOF, a protocol violation,
/// or shutdown.
fn handle_conn(shared: &Shared, stream: TcpStream, conn_id: u64) {
    shared.obs.connections.inc();
    shared.obs.connections_open.add(1);
    let close_reason = serve_conn(shared, stream);
    // Shutdown knocks sockets loose on purpose; don't count those
    // errors as client misbehavior.
    if let Some(reason) = close_reason {
        if !shared.stop.load(Ordering::Acquire) {
            shared.obs.reject(reason).inc();
        }
    }
    // Release every premises this connection owned and forget the
    // socket clone.
    let writer_gone = lock(&shared.conns).remove(&conn_id);
    drop(writer_gone);
    shared.obs.connections_open.add(-1);
}

/// The per-connection protocol loop. Returns the reject reason, or
/// `None` for a clean close.
fn serve_conn(shared: &Shared, stream: TcpStream) -> Option<&'static str> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter { stream: Mutex::new(clone) }),
        Err(_) => return Some("io"),
    };
    if writer
        .send(&Frame::Hello { version: WIRE_VERSION, credits: shared.credits }, &shared.obs)
        .is_err()
    {
        return Some("io");
    }
    let mut owned: Vec<u64> = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let reason = loop {
        match wire::read_frame(&mut reader, shared.max_frame_len, &mut buf) {
            Ok(None) => break None,
            Ok(Some(Frame::Record { premises_id, record, trace })) => {
                shared.obs.bytes_rx.add((wire::HEADER_LEN + buf.len()) as u64);
                shared.obs.frames.inc();
                let t = Instant::now();
                // Claim the premises on first use; FIFO decision
                // matching only works with a single submitting
                // connection per premises.
                if !owned.contains(&premises_id) {
                    let mut routes = lock(&shared.routes);
                    if routes.contains_key(&premises_id) {
                        drop(routes);
                        shared.obs.busy_sheds.inc();
                        let ack = Frame::Ack {
                            premises_id,
                            verdict: WireVerdict::Shed(WireShedReason::Busy),
                        };
                        if writer.send(&ack, &shared.obs).is_err() {
                            break Some("io");
                        }
                        continue;
                    }
                    routes.insert(premises_id, Arc::clone(&writer));
                    drop(routes);
                    owned.push(premises_id);
                }
                let admission = shared.submitter.submit_traced(premises_id, record, t, trace);
                match admission {
                    Admission::Accept => shared.obs.accepts.inc(),
                    Admission::Queued { .. } => shared.obs.queued.inc(),
                    Admission::Shed(_) => shared.obs.sheds.inc(),
                }
                let ack = Frame::Ack { premises_id, verdict: admission.into() };
                if writer.send(&ack, &shared.obs).is_err() {
                    break Some("io");
                }
                if shared.obs.enabled {
                    shared
                        .obs
                        .ack_seconds
                        .record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
            }
            // Only clients send records; everything else is a
            // protocol violation.
            Ok(Some(_)) => break Some("bad_frame"),
            Err(WireError::Torn) => break Some("torn_frame"),
            Err(WireError::BadLength { .. }) => break Some("oversize"),
            Err(WireError::BadChecksum { .. }) => break Some("bad_checksum"),
            Err(WireError::BadKind(_)) | Err(WireError::BadPayload(_)) => break Some("bad_frame"),
            Err(e @ WireError::Io(_)) => break Some(if e.is_timeout() { "timeout" } else { "io" }),
        }
    };
    if !owned.is_empty() {
        let mut routes = lock(&shared.routes);
        for premises in owned {
            routes.remove(&premises);
        }
    }
    reason
}
