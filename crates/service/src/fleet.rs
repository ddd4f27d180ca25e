//! Sharded multi-tenant runtime: N worker shards, each owning the
//! [`Monitor`]s of the premises routed to it.
//!
//! * **Routing** — rendezvous (highest-random-weight) hashing of
//!   `premises_id` onto shards: stable under shard-count changes for
//!   most tenants and needs no coordination state.
//! * **Backpressure** — admission is bounded per shard *and* per
//!   premises; a full queue sheds ([`Admission::Shed`]) instead of
//!   blocking the ingest thread, and the per-premises quota keeps one
//!   chatty tenant from squeezing out the rest.
//! * **Events** — shards publish decisions on a bounded channel sized
//!   for one full ingress backlog and never block on it: a consumer that
//!   falls further behind loses notifications (counted in
//!   [`FleetStats::dropped_events`]) instead of wedging the shards.
//! * **Durability** — a durable fleet writes a base snapshot + manifest
//!   at spawn, so the write-ahead journal is replayable from the very
//!   first epoch. [`Fleet::snapshot`] is *incremental and pause-free*:
//!   each shard, between its own drain passes, writes fresh files only
//!   for premises dirty since their last stored image (and
//!   group-commit-syncs any spill files), then the fleet commits a
//!   checksummed [`FleetManifest`] via atomic rename, prunes the
//!   journals up to the committed watermarks and sweeps superseded
//!   snapshot files. Decisions keep flowing while a snapshot round runs.
//!   A crashed fleet is rebuilt with [`Fleet::recover`], which replays
//!   the journaled epochs past each premises' manifest watermark and
//!   reproduces the uninterrupted decision stream bit for bit.
//! * **Tiered residency** — with
//!   [`FleetConfig::hot_premises_per_shard`] (durable fleets only), each
//!   shard keeps only an LRU hot tier of models resident; idle premises
//!   spill to their snapshot files and hydrate bitwise on their next
//!   record. RSS then tracks the hot tier, not the tenant count.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gem_core::{FleetManifest, GemSnapshot, PersistError, PremisesEntry};
use gem_obs::{Counter, Registry, SpanContext, SpanIdGen, TraceEvent, TraceRing};
use gem_signal::SignalRecord;

use crate::journal::read_all_journals;
use crate::monitor::{Monitor, MonitorState, MonitorStats};
use crate::obs::{
    AdmissionObs, FleetStats, MonitorObs, ObsOptions, ShardAdmissionObs, ShardObs, ShardStats,
};
use crate::shard::{
    parse_image_file, FleetEvent, PremisesSeed, RecordMeta, ShardMsg, ShardWorker, Stored,
};
use crate::wire::WireTrace;

/// Why a scan was refused at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum ShedReason {
    /// The shard queue or the premises' quota was full; the caller
    /// should retry or drop.
    QueueFull,
    /// The fleet has shut down; no further scans will be accepted.
    Shutdown,
    /// The premises is not registered with the fleet.
    UnknownPremises,
}

/// Outcome of submitting a scan — explicit backpressure, so callers can
/// distinguish "processing" from "behind" from "dropped".
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum Admission {
    /// Enqueued; the shard was idle or nearly so.
    Accept,
    /// Enqueued behind `depth - 1` earlier scans (including this one the
    /// queue holds `depth`). A rising depth means ingest outpaces the
    /// model — the precursor to shedding.
    Queued {
        /// Queue occupancy right after this scan was enqueued.
        depth: usize,
    },
    /// Refused. The scan was *not* enqueued.
    Shed(ShedReason),
}

impl Admission {
    /// Whether the scan was enqueued (accepted or queued).
    pub fn accepted(&self) -> bool {
        !matches!(self, Admission::Shed(_))
    }

    /// Classifies an observed queue depth (occupancy *after* enqueue).
    pub(crate) fn from_depth(depth: usize) -> Admission {
        if depth <= 1 {
            Admission::Accept
        } else {
            Admission::Queued { depth }
        }
    }
}

/// Fleet sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker shards (dedicated threads). At least 1.
    pub shards: usize,
    /// Ingress bound per shard: records admitted but not yet decided.
    pub queue_per_shard: usize,
    /// Coalescing cap: at most this many records per premises fold into
    /// one decision epoch per drain pass (fairness across tenants).
    pub max_batch: usize,
    /// Durability directory. `None` runs ephemeral (no journal, no
    /// snapshots).
    pub dir: Option<PathBuf>,
    /// Auto-snapshot period. `None` snapshots only on `shutdown`.
    pub snapshot_interval: Option<Duration>,
    /// Hot-tier cap per shard: at most this many premises keep their
    /// model resident; the least-recently-decided idle ones spill to
    /// their snapshot files and hydrate back on their next record.
    /// `None` keeps everything resident. Requires a durability `dir`
    /// (there is nowhere to spill otherwise): spawning with a cap and no
    /// `dir` panics.
    pub hot_premises_per_shard: Option<usize>,
    /// Observability knobs (see [`ObsOptions`]). Counters are always
    /// on; `enabled: false` skips histograms and trace rings.
    pub obs: ObsOptions,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            queue_per_shard: 256,
            max_batch: 32,
            dir: None,
            snapshot_interval: None,
            hot_premises_per_shard: None,
            obs: ObsOptions::default(),
        }
    }
}

/// Errors from fleet durability and recovery.
#[derive(Debug)]
pub enum FleetError {
    /// Snapshot/manifest/journal persistence failed.
    Persist(PersistError),
    /// A shard worker failed or disappeared.
    Shard(String),
    /// The durability directory is inconsistent (bad sidecar, epoch gap).
    Corrupt(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Persist(e) => write!(f, "fleet persistence error: {e}"),
            FleetError::Shard(e) => write!(f, "fleet shard error: {e}"),
            FleetError::Corrupt(e) => write!(f, "fleet durability state corrupt: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<PersistError> for FleetError {
    fn from(e: PersistError) -> Self {
        FleetError::Persist(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Persist(PersistError::Io(e))
    }
}

/// Admission-side state for one premises.
struct Gate {
    shard: usize,
    /// Records admitted but not yet decided, for the per-premises quota.
    inflight: Arc<AtomicUsize>,
    /// Scans shed at admission.
    sheds: AtomicU64,
}

/// Admission-side view of one shard. Everything on the submit path is
/// a plain atomic or a lock-free channel send — no lock anywhere, so
/// concurrent submitters to different shards share nothing but
/// read-only routing state.
struct IngressShard {
    /// The shard's ingress channel. Kept alive for the fleet's whole
    /// life; shutdown is signalled by `closed`, not by dropping it.
    tx: SyncSender<ShardMsg>,
    /// Raised at shutdown *before* the `Close` message is sent. The
    /// submit path reserves `depth` first and checks this second, so
    /// `depth` doubles as an in-flight-submitter refcount the closing
    /// worker can wait out: any submitter that saw `closed == false`
    /// already has its reservation visible (both accesses are SeqCst).
    closed: AtomicBool,
    /// Ingress occupancy, shared with the shard worker.
    depth: Arc<AtomicUsize>,
}

/// Everything the admission path needs, shared between the [`Fleet`]
/// and its [`FleetSubmitter`] handles. `Sync`: submit from any thread.
struct Ingress {
    gates: HashMap<u64, Gate>,
    shards: Vec<IngressShard>,
    queue_per_shard: usize,
    /// Per-premises quota derived from the shard queue bound.
    quota: usize,
    /// Fleet-wide counters for submissions with no shard (unknown
    /// premises). Routable traffic is counted per shard.
    admission: AdmissionObs,
    /// Per-shard admission counters: the hot path touches only the
    /// destination shard's set, so submitters to different shards never
    /// contend on one cache line. [`Fleet::fleet_stats`] sums lazily.
    shard_admission: Vec<ShardAdmissionObs>,
    /// Per-shard trace rings (shed verdicts are traced; accepts are
    /// only counted — tracing every accept would melt the ring mutex).
    shard_obs: Vec<ShardObs>,
    /// Trace/span id source for server-minted request contexts.
    span_ids: SpanIdGen,
}

impl Ingress {
    /// The admission decision (see [`Fleet::submit`] for the contract).
    fn submit(&self, premises_id: u64, record: SignalRecord) -> Admission {
        self.submit_traced(premises_id, record, Instant::now(), None)
    }

    /// Like [`Ingress::submit`], but with an explicit request origin
    /// (when the caller started handling the record — e.g. frame parse
    /// time on the TCP ingress) and an optional client-minted trace
    /// context to adopt instead of minting one.
    fn submit_traced(
        &self,
        premises_id: u64,
        record: SignalRecord,
        origin: Instant,
        wire: Option<WireTrace>,
    ) -> Admission {
        let Some(gate) = self.gates.get(&premises_id) else {
            self.admission.unknown_submitted.inc();
            self.admission.unknown_sheds.inc();
            return Admission::Shed(ShedReason::UnknownPremises);
        };
        let shard = &self.shards[gate.shard];
        self.shard_admission[gate.shard].submitted.inc();
        // Optimistically reserve, back out on overflow: cheap, and the
        // occasional transient over-count only sheds one scan early.
        // SeqCst pairs with the shutdown protocol: reserve *before*
        // checking `closed`, so a closing worker that still reads
        // `depth > 0` knows a submitter may be mid-flight and waits.
        let depth = shard.depth.fetch_add(1, Ordering::SeqCst) + 1;
        if shard.closed.load(Ordering::SeqCst) {
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            self.shed(gate.shard, premises_id, "shutdown");
            return Admission::Shed(ShedReason::Shutdown);
        }
        if depth > self.queue_per_shard {
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            gate.sheds.fetch_add(1, Ordering::Relaxed);
            self.shed(gate.shard, premises_id, "queue_full");
            return Admission::Shed(ShedReason::QueueFull);
        }
        let inflight = gate.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if inflight > self.quota {
            gate.inflight.fetch_sub(1, Ordering::AcqRel);
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            gate.sheds.fetch_add(1, Ordering::Relaxed);
            self.shed(gate.shard, premises_id, "quota");
            return Admission::Shed(ShedReason::QueueFull);
        }
        // Trace identity: adopt a client-minted context when one rode
        // in on the wire, mint otherwise. Skipped entirely (id 0) when
        // the sampler can never retain a span, so tracing-off submits
        // pay nothing.
        let sampler = &self.shard_obs[gate.shard].sampler;
        let ctx = if sampler.is_off() {
            SpanContext { trace_id: 0, parent_span: 0, sampled: false }
        } else {
            match wire {
                Some(w) if w.trace_id != 0 => sampler.adopt(w.trace_id, w.parent_span),
                _ => sampler.mint(&self.span_ids),
            }
        };
        let meta = RecordMeta {
            ctx,
            ingress_ns: if ctx.trace_id == 0 {
                0
            } else {
                origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
            },
            enqueued: Instant::now(),
        };
        let sent = shard.tx.send(ShardMsg::Record { premises_id, record, meta });
        match sent {
            Ok(()) => {
                let admission = Admission::from_depth(depth);
                match admission {
                    Admission::Accept => self.shard_admission[gate.shard].accepts.inc(),
                    _ => self.shard_admission[gate.shard].queued.inc(),
                }
                admission
            }
            // The worker is gone (aborted); the channel outlives it only
            // on the fleet side.
            Err(_) => {
                gate.inflight.fetch_sub(1, Ordering::AcqRel);
                shard.depth.fetch_sub(1, Ordering::SeqCst);
                self.shed(gate.shard, premises_id, "shutdown");
                Admission::Shed(ShedReason::Shutdown)
            }
        }
    }

    fn shed(&self, shard: usize, premises_id: u64, reason: &'static str) {
        self.shard_admission[shard].sheds.inc();
        self.shard_obs[shard].trace(
            TraceEvent::new("admission")
                .with("premises", premises_id)
                .with("verdict", "shed")
                .with("reason", reason),
        );
    }

    /// Pushes a trace event onto the ring of the shard owning
    /// `premises_id` (events for unknown premises are dropped).
    fn trace_event(&self, premises_id: u64, event: TraceEvent) {
        if let Some(gate) = self.gates.get(&premises_id) {
            self.shard_obs[gate.shard].trace(event);
        }
    }
}

/// A cloneable, thread-safe admission handle to a running [`Fleet`]
/// (the fleet itself is not `Sync` — it owns the event receiver).
/// Submitting through a handle is exactly [`Fleet::submit`]; once the
/// fleet shuts down, handles observe `Shed(Shutdown)`.
#[derive(Clone)]
pub struct FleetSubmitter {
    ingress: Arc<Ingress>,
}

impl FleetSubmitter {
    /// Submits a scan for a premises. Never blocks.
    pub fn submit(&self, premises_id: u64, record: SignalRecord) -> Admission {
        self.ingress.submit(premises_id, record)
    }

    /// Submits a scan with an explicit request origin (when the caller
    /// started handling it) and an optional client-minted trace context
    /// to adopt. The TCP ingress uses this so a span's `ingress_ns`
    /// covers frame parse → shard enqueue, not just the submit call.
    pub fn submit_traced(
        &self,
        premises_id: u64,
        record: SignalRecord,
        origin: Instant,
        trace: Option<WireTrace>,
    ) -> Admission {
        self.ingress.submit_traced(premises_id, record, origin, trace)
    }

    /// Pushes a structured trace event onto the ring of the shard that
    /// owns `premises_id` (dropped for unknown premises). External
    /// stages of a record's journey — e.g. the ingress router writing
    /// the DECISION reply — attach their span events to the same ring
    /// the shard's own span landed on.
    pub fn trace(&self, premises_id: u64, event: TraceEvent) {
        self.ingress.trace_event(premises_id, event);
    }
}

/// The result of [`Fleet::recover`].
pub struct Recovery {
    /// The rebuilt, running fleet.
    pub fleet: Fleet,
    /// Events regenerated by replaying journaled epochs — bitwise equal
    /// to what the crashed fleet emitted for those epochs.
    pub replayed: Vec<FleetEvent>,
    /// Number of journal epochs replayed.
    pub replayed_epochs: u64,
}

/// What a shard worker thread returns on join: the monitors it owned.
type ShardYield = Vec<(u64, Monitor)>;

/// A running multi-tenant fleet. See the module docs for the design.
pub struct Fleet {
    /// Admission state, shared with every [`FleetSubmitter`].
    ingress: Arc<Ingress>,
    workers: Vec<Option<JoinHandle<ShardYield>>>,
    registry: Arc<Registry>,
    event_rx: Receiver<FleetEvent>,
    /// Periodic-snapshot failures (also surfaced in [`FleetStats`]).
    snapshot_errors: Arc<Counter>,
    cfg: FleetConfig,
    /// Serializes snapshot rounds: [`Fleet::snapshot`] and the periodic
    /// timer must never interleave their snapshot → commit → truncate
    /// windows.
    snapshot_lock: Arc<Mutex<()>>,
    snapshot_timer: Option<(SyncSender<()>, JoinHandle<()>)>,
}

/// Rendezvous (highest-random-weight) shard choice: hash every
/// `(premises, shard)` pair and pick the shard with the highest score.
/// Adding or removing a shard only moves the premises whose maximum
/// changed — no remap table to persist.
pub fn shard_for(premises_id: u64, shards: usize) -> usize {
    assert!(shards >= 1);
    (0..shards)
        .max_by_key(|&s| {
            // splitmix64 finalizer over the pair; plenty of avalanche
            // for a routing decision.
            let mut x = premises_id ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        })
        .expect("at least one shard")
}

impl Fleet {
    /// Spawns the shard workers around the given premises monitors.
    /// Premises ids must be unique.
    pub fn spawn(premises: Vec<(u64, Monitor)>, cfg: FleetConfig) -> Result<Fleet, FleetError> {
        Self::spawn_at(
            premises
                .into_iter()
                .map(|(p, m)| {
                    (p, PremisesSeed::Hot { monitor: Box::new(m), epoch: 0, stored: None })
                })
                .collect(),
            cfg,
        )
    }

    /// Like [`Fleet::spawn`] but seeding each premises either hot
    /// (resident monitor) or cold (spilled to its snapshot file) — the
    /// recovery path spawns clean premises cold so startup cost tracks
    /// the journal backlog, not the tenant count.
    fn spawn_at(premises: Vec<(u64, PremisesSeed)>, cfg: FleetConfig) -> Result<Fleet, FleetError> {
        assert!(cfg.shards >= 1, "a fleet needs at least one shard");
        assert!(cfg.max_batch >= 1, "decision epochs need at least one record");
        assert!(
            cfg.hot_premises_per_shard.is_none() || cfg.dir.is_some(),
            "a hot cap needs a durability dir to spill into"
        );
        if let Some(dir) = &cfg.dir {
            std::fs::create_dir_all(dir)?;
        }
        // Sized for a full backlog: each admitted record yields at most
        // one decision plus one alert transition, so a consumer that
        // drains at least once per `queue_per_shard` admissions never
        // loses an event. Shards never block on this channel; overflow
        // is dropped and counted (`FleetStats::dropped_events`).
        let (event_tx, event_rx) = sync_channel(2 * cfg.shards * cfg.queue_per_shard + 64);
        let registry = Arc::new(Registry::new());
        let admission = AdmissionObs::register(&registry);
        let shard_admission: Vec<ShardAdmissionObs> =
            (0..cfg.shards).map(|id| ShardAdmissionObs::register(&registry, id)).collect();
        let shard_obs: Vec<ShardObs> =
            (0..cfg.shards).map(|id| ShardObs::register(&registry, id, &cfg.obs)).collect();
        let snapshot_errors = registry.counter("gem_fleet_snapshot_errors_total", &[]);
        let mut by_shard: Vec<Vec<(u64, PremisesSeed)>> =
            (0..cfg.shards).map(|_| Vec::new()).collect();
        let mut gates = HashMap::with_capacity(premises.len());
        for (premises_id, seed) in premises {
            let shard = shard_for(premises_id, cfg.shards);
            by_shard[shard].push((premises_id, seed));
            let gate =
                Gate { shard, inflight: Arc::new(AtomicUsize::new(0)), sheds: AtomicU64::new(0) };
            if gates.insert(premises_id, gate).is_some() {
                panic!("duplicate premises id {premises_id}");
            }
        }
        // Per-premises quota: an even split of the shard queue across
        // the premises of the busiest shard, but never below 1.
        let max_on_shard = by_shard.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let quota = (cfg.queue_per_shard / max_on_shard).max(1);
        let mut ingress_shards = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for (id, mut seeds) in by_shard.into_iter().enumerate() {
            let (tx, rx) = sync_channel(cfg.queue_per_shard * 2 + 64);
            let depth = Arc::new(AtomicUsize::new(0));
            let inflight: HashMap<u64, Arc<AtomicUsize>> =
                seeds.iter().map(|(p, _)| (*p, Arc::clone(&gates[p].inflight))).collect();
            let mut shard_monitor_obs = HashMap::new();
            if cfg.obs.per_premises {
                for (p, seed) in &mut seeds {
                    let obs = MonitorObs::register(
                        &registry,
                        *p,
                        Arc::clone(&shard_obs[id].ring),
                        cfg.obs.enabled,
                    );
                    // Hot monitors seed the registry series from their
                    // session stats; cold premises seed from the stored
                    // sidecar (hydration later re-attaches without
                    // seeding — the series keep running while cold).
                    match seed {
                        PremisesSeed::Hot { monitor, .. } => monitor.set_obs(obs.clone()),
                        PremisesSeed::Cold { stored } => obs.seed(&stored.state.stats),
                    }
                    shard_monitor_obs.insert(*p, obs);
                }
            }
            let worker = ShardWorker::new(
                id,
                rx,
                event_tx.clone(),
                seeds,
                cfg.max_batch,
                cfg.dir.as_ref(),
                cfg.hot_premises_per_shard,
                Arc::clone(&depth),
                inflight,
                shard_obs[id].clone(),
                shard_monitor_obs,
            )?;
            let handle = thread::Builder::new()
                .name(format!("gem-shard-{id}"))
                .spawn(move || worker.run())
                .map_err(|e| FleetError::Shard(e.to_string()))?;
            ingress_shards.push(IngressShard { tx, closed: AtomicBool::new(false), depth });
            workers.push(Some(handle));
        }
        let ingress = Arc::new(Ingress {
            gates,
            shards: ingress_shards,
            queue_per_shard: cfg.queue_per_shard,
            quota,
            admission,
            shard_admission,
            shard_obs,
            span_ids: SpanIdGen::new(),
        });
        let mut fleet = Fleet {
            ingress,
            workers,
            registry,
            event_rx,
            snapshot_errors,
            cfg,
            snapshot_lock: Arc::new(Mutex::new(())),
            snapshot_timer: None,
        };
        // A durable fleet must be recoverable from its very first epoch:
        // without a base manifest the journal has nothing to replay
        // against, so a crash before the first periodic (or shutdown)
        // snapshot would lose everything. Write the initial snapshot +
        // manifest before any record is accepted. Recovery re-enters
        // here with the manifest already present and skips this.
        let needs_initial_manifest =
            fleet.cfg.dir.as_ref().is_some_and(|d| !d.join(gem_core::MANIFEST_FILE).exists());
        if needs_initial_manifest {
            fleet.snapshot()?;
        }
        fleet.start_snapshot_timer();
        Ok(fleet)
    }

    /// Periodic snapshots, when configured with a directory + interval.
    fn start_snapshot_timer(&mut self) {
        let (Some(dir), Some(interval)) = (self.cfg.dir.clone(), self.cfg.snapshot_interval) else {
            return;
        };
        let txs: Vec<SyncSender<ShardMsg>> =
            self.ingress.shards.iter().map(|s| s.tx.clone()).collect();
        let lock = Arc::clone(&self.snapshot_lock);
        let errors = Arc::clone(&self.snapshot_errors);
        let trace_obs = self.ingress.shard_obs[0].clone();
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let handle = thread::Builder::new()
            .name("gem-fleet-snapshots".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    // Timer stopped (or fleet gone): exit.
                    Ok(()) => return,
                    Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {
                        // A failed periodic snapshot leaves the previous
                        // manifest + journal intact — recoverable, so
                        // not fatal — but never silent: counted
                        // (`gem_fleet_snapshot_errors_total`, surfaced
                        // in `FleetStats`) and traced on shard 0's ring.
                        // The lock keeps this window from interleaving
                        // with a user-initiated `Fleet::snapshot`.
                        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Err(e) = snapshot_all(&txs, &dir) {
                            errors.inc();
                            trace_obs.trace(
                                TraceEvent::new("snapshot_error").with("error", e.to_string()),
                            );
                        }
                        drop(guard);
                    }
                }
            })
            .expect("spawn snapshot timer");
        self.snapshot_timer = Some((stop_tx, handle));
    }

    /// Submits a scan for a premises. Never blocks: a full shard queue or
    /// an exhausted per-premises quota sheds the scan.
    pub fn submit(&self, premises_id: u64, record: SignalRecord) -> Admission {
        self.ingress.submit(premises_id, record)
    }

    /// A cloneable, thread-safe admission handle: submit from any
    /// thread without borrowing the fleet. After shutdown, handles
    /// observe `Shed(Shutdown)`.
    pub fn submitter(&self) -> FleetSubmitter {
        FleetSubmitter { ingress: Arc::clone(&self.ingress) }
    }

    /// The metrics registry backing this fleet. Serve it over HTTP with
    /// [`gem_obs::MetricsServer`], or render it directly
    /// (`render_prometheus` / `render_json`).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The merged event stream of all shards. Events of one premises
    /// arrive in decision order; interleaving across premises is
    /// unspecified.
    ///
    /// Shards never block on this channel. It is sized for one full
    /// ingress backlog (`2 * shards * queue_per_shard + 64`), so a
    /// consumer that drains at least once per `queue_per_shard`
    /// admissions sees every event; fall further behind and the excess
    /// is dropped — model updates and the journal are unaffected — and
    /// counted in [`FleetStats::dropped_events`].
    pub fn events(&self) -> &Receiver<FleetEvent> {
        &self.event_rx
    }

    /// Detaches the event receiver for an external consumer (the
    /// network ingress routes decisions back to device connections
    /// from its own thread). Afterwards [`Fleet::events`] observes a
    /// disconnected channel; there is only ever one event stream.
    pub fn take_events(&mut self) -> Receiver<FleetEvent> {
        let (_, dead_rx) = sync_channel::<FleetEvent>(1);
        std::mem::replace(&mut self.event_rx, dead_rx)
    }

    /// The per-premises admission quota: records admitted but not yet
    /// decided, above which a single premises is shed. Wire-level flow
    /// control derives its credit window from this — a client holding
    /// at most this many unresolved records can never be shed.
    pub fn admission_quota(&self) -> usize {
        self.ingress.quota
    }

    /// The observability options this fleet was spawned with.
    pub fn obs_options(&self) -> &ObsOptions {
        &self.cfg.obs
    }

    /// Fleet-wide admission statistics with a per-shard breakdown.
    /// Every field is an atomic load — no locks, no shard round-trip,
    /// safe to poll from a hot path. The hot submit path maintains only
    /// per-shard counters; the fleet totals are summed here, lazily, so
    /// reads pay for aggregation instead of every submit paying for
    /// shared cache lines.
    pub fn fleet_stats(&self) -> FleetStats {
        let a = &self.ingress.admission;
        let shards: Vec<ShardStats> = self
            .ingress
            .shards
            .iter()
            .zip(self.ingress.shard_obs.iter().zip(&self.ingress.shard_admission))
            .enumerate()
            .map(|(i, (s, (obs, adm)))| ShardStats {
                shard: i,
                dropped_events: obs.dropped_events.get(),
                queue_depth: s.depth.load(Ordering::Relaxed),
                submitted: adm.submitted.get(),
                busy_ns: obs.busy_ns.get(),
                idle_ns: obs.idle_ns.get(),
                hot_premises: obs.hot_premises.get(),
                cold_premises: obs.cold_premises.get(),
                evictions: obs.evictions.get(),
                hydrations: obs.hydrations.get(),
            })
            .collect();
        let adm = &self.ingress.shard_admission;
        FleetStats {
            submitted: a.unknown_submitted.get()
                + adm.iter().map(|s| s.submitted.get()).sum::<u64>(),
            accepts: adm.iter().map(|s| s.accepts.get()).sum(),
            queued: adm.iter().map(|s| s.queued.get()).sum(),
            sheds: adm.iter().map(|s| s.sheds.get()).sum(),
            unknown_sheds: a.unknown_sheds.get(),
            dropped_events: shards.iter().map(|s| s.dropped_events).sum(),
            snapshot_errors: self.snapshot_errors.get(),
            shards,
        }
    }

    /// Stops epoch processing on every shard (records keep queueing, up
    /// to the admission bounds). With [`Fleet::flush`] this gives tests
    /// and benchmarks deterministic epoch boundaries.
    pub fn pause(&self) {
        self.broadcast(|| ShardMsg::Pause);
    }

    /// Resumes epoch processing.
    pub fn resume(&self) {
        self.broadcast(|| ShardMsg::Resume);
    }

    /// Drains every pending record into decision epochs (even while
    /// paused) and waits until all shards are done.
    pub fn flush(&self) -> Result<(), FleetError> {
        let mut acks = Vec::with_capacity(self.ingress.shards.len());
        for shard in &self.ingress.shards {
            let (ack_tx, ack_rx) = sync_channel(1);
            shard
                .tx
                .send(ShardMsg::Flush { ack: ack_tx })
                .map_err(|_| FleetError::Shard("shard gone during flush".into()))?;
            acks.push(ack_rx);
        }
        for ack in acks {
            ack.recv().map_err(|_| FleetError::Shard("shard died during flush".into()))?;
        }
        Ok(())
    }

    /// Takes an incremental durable snapshot without pausing anything:
    /// each shard writes fresh files only for premises dirty since
    /// their last stored image (between its own drain passes), the
    /// manifest commits atomically, and the journals are pruned up to
    /// the committed watermarks. Records admitted while the round runs
    /// keep deciding; their epochs journal past the captured watermarks
    /// and survive the pruning. Requires a durability directory.
    pub fn snapshot(&self) -> Result<(), FleetError> {
        let dir =
            self.cfg.dir.as_ref().ok_or_else(|| {
                FleetError::Shard("snapshot requires a durability directory".into())
            })?;
        let txs: Vec<SyncSender<ShardMsg>> =
            self.ingress.shards.iter().map(|s| s.tx.clone()).collect();
        let _guard = self.snapshot_lock.lock().unwrap_or_else(PoisonError::into_inner);
        snapshot_all(&txs, dir)
    }

    /// Per-premises statistics (sorted by premises id), with
    /// admission-side shed counts folded in. This round-trips through
    /// every shard; cold premises answer from their stored sidecar.
    pub fn stats(&self) -> Result<Vec<(u64, MonitorStats)>, FleetError> {
        let mut acks = Vec::with_capacity(self.ingress.shards.len());
        for shard in &self.ingress.shards {
            let (ack_tx, ack_rx) = sync_channel(1);
            shard
                .tx
                .send(ShardMsg::Stats { ack: ack_tx })
                .map_err(|_| FleetError::Shard("shard gone during stats".into()))?;
            acks.push(ack_rx);
        }
        let mut all = Vec::new();
        for ack in acks {
            let stats =
                ack.recv().map_err(|_| FleetError::Shard("shard died during stats".into()))?;
            all.extend(stats);
        }
        for (premises_id, stats) in &mut all {
            if let Some(gate) = self.ingress.gates.get(premises_id) {
                stats.sheds += gate.sheds.load(Ordering::Relaxed);
            }
        }
        all.sort_by_key(|(p, _)| *p);
        Ok(all)
    }

    /// The shard a premises routes to (diagnostics).
    pub fn route(&self, premises_id: u64) -> Option<usize> {
        self.ingress.gates.get(&premises_id).map(|g| g.shard)
    }

    /// Writes each shard's structured trace ring to
    /// `<dir>/trace-shard-<i>.jsonl` (one JSON object per line, oldest
    /// first). Returns the paths written.
    pub fn dump_traces(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.ingress.shard_obs.len());
        for (i, obs) in self.ingress.shard_obs.iter().enumerate() {
            let path = dir.join(format!("trace-shard-{i}.jsonl"));
            std::fs::write(&path, obs.ring.to_jsonl())?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The durability directory, when the fleet runs durable.
    pub fn snapshot_dir(&self) -> Option<&std::path::Path> {
        self.cfg.dir.as_deref()
    }

    /// The per-shard trace rings, for serving `GET /trace.jsonl` via
    /// [`gem_obs::MetricsServer::bind_with_traces`]: a collector drains
    /// every retained span exactly once.
    pub fn trace_rings(&self) -> Vec<Arc<TraceRing>> {
        self.ingress.shard_obs.iter().map(|o| Arc::clone(&o.ring)).collect()
    }

    /// Graceful shutdown: drain everything pending, take a final
    /// snapshot (when durable), then join every shard. Returns the
    /// monitors still resident with their learned state, sorted by
    /// premises id — premises spilled by the hot cap stay in their
    /// snapshot files and are not rehydrated just to be returned.
    pub fn shutdown(mut self) -> Result<Vec<(u64, Monitor)>, FleetError> {
        self.stop_timer();
        // Incremental snapshots don't drain, so flush first: the final
        // manifest should fold every record admitted before shutdown.
        self.flush()?;
        if self.cfg.dir.is_some() {
            self.snapshot()?;
        }
        Ok(self.join(false))
    }

    /// Simulated crash: abandon queued records and kill the shards
    /// without snapshotting. The journal and the last committed manifest
    /// stay as they are — exactly what [`Fleet::recover`] expects.
    pub fn abort(mut self) {
        self.stop_timer();
        self.join(true);
    }

    fn stop_timer(&mut self) {
        if let Some((stop, handle)) = self.snapshot_timer.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
    }

    fn broadcast(&self, msg: impl Fn() -> ShardMsg) {
        for shard in &self.ingress.shards {
            let _ = shard.tx.send(msg());
        }
    }

    /// Joins all shard workers, collecting their monitors. `abort` makes
    /// them exit immediately; otherwise `Close` lets every shard finish
    /// its backlog — all shards wind down concurrently because every
    /// close is signalled before any join.
    fn join(&mut self, abort: bool) -> Vec<(u64, Monitor)> {
        // Disconnect the event channel so late notifications from the
        // closing shards are discarded (not mis-counted as consumer
        // overflow); shards use try_send, so they can't wedge on it.
        let (_, dead_rx) = sync_channel::<FleetEvent>(1);
        self.event_rx = dead_rx;
        for shard in &self.ingress.shards {
            // Raise `closed` first: a submitter that reserved depth
            // before this store will either deliver its record (the
            // worker waits out `depth`) or back out; one that reads the
            // flag sheds with `Shutdown`. No lock, no sender swap.
            shard.closed.store(true, Ordering::SeqCst);
            let _ = shard.tx.send(if abort { ShardMsg::Abort } else { ShardMsg::Close });
        }
        let mut monitors = Vec::new();
        for worker in &mut self.workers {
            if let Some(worker) = worker.take() {
                if let Ok(mut m) = worker.join() {
                    monitors.append(&mut m);
                }
            }
        }
        monitors.sort_by_key(|(p, _)| *p);
        monitors
    }

    /// Rebuilds a fleet from a durability directory: verify the
    /// manifest, replay the journaled epochs past each premises'
    /// watermark, and spawn. Premises *with* journal backlog are
    /// restored and replayed eagerly (the replayed events are bitwise
    /// identical to what the crashed fleet decided for those epochs);
    /// premises without backlog spawn cold — nothing is read or
    /// deserialized until their next record — so recovery cost and RSS
    /// track the backlog, not the tenant count.
    pub fn recover(cfg: FleetConfig) -> Result<Recovery, FleetError> {
        let dir = cfg
            .dir
            .clone()
            .ok_or_else(|| FleetError::Shard("recovery requires a durability directory".into()))?;
        let manifest = FleetManifest::load(&dir)?;
        manifest.verify_snapshots(&dir)?;
        // Journal entries grouped per premises, filtered to
        // epoch > watermark, ordered by epoch.
        let mut pending: HashMap<u64, Vec<crate::journal::JournalEntry>> = HashMap::new();
        let journal = read_all_journals(&dir).map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => FleetError::Corrupt(e.to_string()),
            _ => e.into(),
        })?;
        for entry in journal {
            pending.entry(entry.premises_id).or_default().push(entry);
        }
        let mut seeds = Vec::with_capacity(manifest.premises.len());
        let mut recovered = Vec::new();
        let mut replayed = Vec::new();
        let mut replayed_epochs = 0u64;
        for entry in &manifest.premises {
            let state: MonitorState =
                serde::Deserialize::deserialize(&entry.sidecar).map_err(|e| {
                    FleetError::Corrupt(format!(
                        "premises {} sidecar is not a MonitorState: {e}",
                        entry.premises_id
                    ))
                })?;
            let stored = Stored {
                file: entry.snapshot_file.clone(),
                checksum: entry.snapshot_checksum.clone(),
                epochs: entry.epochs,
                state,
                synced: true,
            };
            let mut epochs: Vec<_> = pending
                .remove(&entry.premises_id)
                .unwrap_or_default()
                .into_iter()
                .filter(|j| j.epoch > entry.epochs)
                .collect();
            if epochs.is_empty() {
                seeds.push((entry.premises_id, PremisesSeed::Cold { stored }));
                continue;
            }
            let gem = GemSnapshot::load(dir.join(&entry.snapshot_file))?.restore()?;
            let mut monitor = Monitor::from_state(gem, state);
            epochs.sort_by_key(|j| j.epoch);
            let mut watermark = entry.epochs;
            for journal_entry in epochs {
                if journal_entry.epoch != watermark + 1 {
                    return Err(FleetError::Corrupt(format!(
                        "premises {}: journal epoch {} does not follow watermark {watermark}",
                        entry.premises_id, journal_entry.epoch
                    )));
                }
                for event in monitor.process_batch(&journal_entry.records) {
                    replayed.push(FleetEvent {
                        premises_id: entry.premises_id,
                        event,
                        latency_s: 0.0,
                        trace: 0,
                    });
                }
                watermark = journal_entry.epoch;
                replayed_epochs += 1;
            }
            recovered.push((entry.premises_id, watermark - entry.epochs, watermark));
            seeds.push((
                entry.premises_id,
                PremisesSeed::Hot {
                    monitor: Box::new(monitor),
                    epoch: watermark,
                    stored: Some(stored),
                },
            ));
        }
        // Journal entries for premises absent from the manifest would
        // mean a snapshot-less tenant — nothing to attach them to.
        if let Some(premises_id) = pending.keys().next() {
            return Err(FleetError::Corrupt(format!(
                "journal mentions premises {premises_id} missing from the manifest"
            )));
        }
        let fleet = Fleet::spawn_at(seeds, cfg)?;
        // Recovery provenance lands in the trace rings: which premises
        // replayed how far, visible to the first `dump_traces` call.
        for (premises_id, epochs, watermark) in recovered {
            let shard = shard_for(premises_id, fleet.cfg.shards);
            fleet.ingress.shard_obs[shard].trace(
                TraceEvent::new("recovery")
                    .with("premises", premises_id)
                    .with("replayed_epochs", epochs)
                    .with("watermark", watermark),
            );
        }
        Ok(Recovery { fleet, replayed, replayed_epochs })
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_timer();
        if self.workers.iter().any(Option::is_some) {
            self.join(true);
        }
    }
}

/// One incremental snapshot round — snapshot → commit → truncate →
/// sweep — shared by [`Fleet::snapshot`] and the periodic timer
/// (serialized by the fleet's snapshot lock, so two rounds never
/// interleave). Nothing pauses: each shard handles its `Snapshot`
/// message between its own drain passes, writing fresh files only for
/// premises dirty since their stored image and group-commit-syncing any
/// unsynced spill files. Safe against a crash at any point: the
/// manifest rename is the commit, and truncation prunes only epochs at
/// or below the watermarks the round captured — an epoch decided while
/// the round runs journals past them and replays on recovery.
fn snapshot_all(txs: &[SyncSender<ShardMsg>], dir: &PathBuf) -> Result<(), FleetError> {
    let gone = |_| FleetError::Shard("shard gone during snapshot".into());
    let mut acks = Vec::with_capacity(txs.len());
    for tx in txs {
        let (ack_tx, ack_rx) = sync_channel(1);
        tx.send(ShardMsg::Snapshot { dir: dir.clone(), ack: ack_tx }).map_err(gone)?;
        acks.push(ack_rx);
    }
    let mut entries: Vec<PremisesEntry> = Vec::new();
    for ack in acks {
        let shard_entries = ack
            .recv()
            .map_err(|_| FleetError::Shard("shard died during snapshot".into()))?
            .map_err(FleetError::Shard)?;
        entries.extend(shard_entries);
    }
    let manifest = FleetManifest::new(entries);
    manifest.save(dir)?;
    // Commit done; journal entries folded into the manifest go.
    for tx in txs {
        tx.send(ShardMsg::TruncateJournal).map_err(gone)?;
    }
    gc_snapshots(dir, &manifest);
    Ok(())
}

/// Deletes images the committed manifest has superseded — each
/// spill/snapshot writes a fresh image (`premises-{id}-{epoch}.bin`, or
/// `.json` for a spawn-time base image, see
/// [`image_file`](crate::shard::image_file)), and without this sweep
/// a long-running fleet grows its durability directory without bound.
/// A file is removed only when the manifest holds a *newer* image of the
/// same premises (parsed epoch below the committed watermark) and no
/// entry references it: spill files written concurrently by the shards
/// carry epochs at or past the watermarks just committed and are left
/// alone, as is a seed image entries share and anything that does not
/// parse as an image name (e.g. `seed.json`).
/// Best-effort: a leftover file is only wasted space, never a
/// correctness problem, and the rename commit guarantees nothing still
/// referenced is ever deleted.
fn gc_snapshots(dir: &PathBuf, manifest: &FleetManifest) {
    let watermarks: HashMap<u64, u64> =
        manifest.premises.iter().map(|e| (e.premises_id, e.epochs)).collect();
    let referenced: HashSet<&str> =
        manifest.premises.iter().map(|e| e.snapshot_file.as_str()).collect();
    let Ok(read) = std::fs::read_dir(dir) else { return };
    for entry in read.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((premises_id, epoch)) = parse_image_file(name) else { continue };
        let superseded = watermarks.get(&premises_id).is_some_and(|&w| epoch < w);
        if superseded && !referenced.contains(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{Event, MonitorConfig};
    use crate::shard::image_file;
    use gem_core::{Gem, GemConfig};
    use gem_rfsim::{Scenario, ScenarioConfig};

    fn fleet_monitors(n: usize) -> (Vec<(u64, Monitor)>, Vec<Vec<SignalRecord>>) {
        let mut monitors = Vec::new();
        let mut streams = Vec::new();
        for user in 0..n {
            let mut cfg = ScenarioConfig::user(user as u32 + 1);
            cfg.train_duration_s = 120.0;
            cfg.n_test_in = 16;
            cfg.n_test_out = 16;
            let ds = Scenario::build(cfg).generate();
            let gem = Gem::fit(GemConfig::default(), &ds.train);
            monitors.push((user as u64 * 31 + 5, Monitor::new(gem, MonitorConfig::default())));
            streams.push(ds.test.iter().map(|t| t.record.clone()).collect());
        }
        (monitors, streams)
    }

    fn decisions_of(events: &[FleetEvent], premises: u64) -> Vec<(f64, gem_signal::Label, f64)> {
        events
            .iter()
            .filter(|e| e.premises_id == premises)
            .filter_map(|e| match e.event {
                Event::Decision { timestamp_s, label, score } => Some((timestamp_s, label, score)),
                _ => None,
            })
            .collect()
    }

    fn drain_events(fleet: &Fleet) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        while let Ok(e) = fleet.events().try_recv() {
            events.push(e);
        }
        events
    }

    #[test]
    fn rendezvous_routing_is_stable_and_covers_shards() {
        for premises in 0..64u64 {
            let s4 = shard_for(premises, 4);
            assert!(s4 < 4);
            assert_eq!(s4, shard_for(premises, 4), "routing must be deterministic");
        }
        // With enough premises every shard gets some.
        let mut hit = [false; 4];
        for premises in 0..64u64 {
            hit[shard_for(premises, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 premises should cover 4 shards");
        // Dropping from 4 to 3 shards only moves premises that hashed to
        // the removed shard's maxima — most stay put.
        let moved = (0..256u64)
            .filter(|&p| shard_for(p, 4) != 3 && shard_for(p, 4) != shard_for(p, 3))
            .count();
        assert_eq!(moved, 0, "rendezvous hashing never remaps survivors of a shrink");
    }

    #[test]
    fn fleet_processes_multiple_premises_and_reports_stats() {
        let (monitors, streams) = fleet_monitors(3);
        let ids: Vec<u64> = monitors.iter().map(|(p, _)| *p).collect();
        let fleet =
            Fleet::spawn(monitors, FleetConfig { shards: 2, ..FleetConfig::default() }).unwrap();
        for (id, stream) in ids.iter().zip(&streams) {
            for record in stream.iter().take(8) {
                assert!(fleet.submit(*id, record.clone()).accepted());
            }
        }
        fleet.flush().unwrap();
        let stats = fleet.stats().unwrap();
        assert_eq!(stats.len(), 3);
        for (_, s) in &stats {
            assert_eq!(s.scans, 8);
            assert!(s.epochs >= 1);
        }
        // Unknown premises shed with the dedicated reason.
        assert_eq!(
            fleet.submit(999_999, streams[0][0].clone()),
            Admission::Shed(ShedReason::UnknownPremises)
        );
        assert_eq!(fleet.fleet_stats().unknown_sheds, 1);
        let monitors = fleet.shutdown().unwrap();
        assert_eq!(monitors.len(), 3);
    }

    #[test]
    #[should_panic(expected = "a hot cap needs a durability dir")]
    fn hot_cap_without_a_dir_is_refused() {
        // Without a dir there is nowhere to spill: the cap would silently
        // leave the hot tier unbounded.
        let cfg = FleetConfig { hot_premises_per_shard: Some(1), ..FleetConfig::default() };
        let _ = Fleet::spawn(Vec::new(), cfg);
    }

    #[test]
    fn paused_fleet_queues_and_flush_drains() {
        let (monitors, streams) = fleet_monitors(1);
        let id = monitors[0].0;
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig { shards: 1, max_batch: 64, ..FleetConfig::default() },
        )
        .unwrap();
        fleet.pause();
        for record in streams[0].iter().take(6) {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        // Paused: nothing processed yet.
        std::thread::sleep(Duration::from_millis(100));
        assert!(fleet.events().try_recv().is_err());
        fleet.flush().unwrap();
        let events = drain_events(&fleet);
        assert_eq!(decisions_of(&events, id).len(), 6);
        // One epoch: all 6 fit under max_batch.
        assert_eq!(fleet.stats().unwrap()[0].1.epochs, 1);
        fleet.resume();
    }

    #[test]
    fn admission_sheds_on_quota_and_counts_it() {
        let (monitors, streams) = fleet_monitors(2);
        let ids: Vec<u64> = monitors.iter().map(|(p, _)| *p).collect();
        // Tiny queue on one shard; both premises on it.
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig { shards: 1, queue_per_shard: 8, ..FleetConfig::default() },
        )
        .unwrap();
        fleet.pause();
        // Quota = 8 / 2 premises = 4 each.
        let mut outcomes = Vec::new();
        for record in streams[0].iter().take(6) {
            outcomes.push(fleet.submit(ids[0], record.clone()));
        }
        let accepted = outcomes.iter().filter(|a| a.accepted()).count();
        assert_eq!(accepted, 4, "per-premises quota must cap a single tenant: {outcomes:?}");
        // The other premises still gets its share — fairness.
        assert!(fleet.submit(ids[1], streams[1][0].clone()).accepted());
        let stats = fleet.stats().unwrap();
        assert_eq!(stats[0].1.sheds, 2);
        fleet.resume();
        fleet.flush().unwrap();
    }

    #[test]
    fn undrained_consumer_drops_events_but_never_wedges() {
        let (monitors, streams) = fleet_monitors(1);
        let id = monitors[0].0;
        // Tiny queue → tiny event channel (2 * 1 * 4 + 64 = 72 events),
        // so an undrained consumer overflows it quickly.
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig { shards: 1, queue_per_shard: 4, max_batch: 4, ..FleetConfig::default() },
        )
        .unwrap();
        let n = 120usize;
        for k in 0..n {
            let record = streams[0][k % streams[0].len()].clone();
            while !fleet.submit(id, record.clone()).accepted() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        // Nothing was drained, yet flush must complete: the shard drops
        // overflow events instead of blocking on the full channel.
        fleet.flush().unwrap();
        let stats = fleet.stats().unwrap();
        assert_eq!(stats[0].1.scans, n, "every admitted record must be processed");
        let received = drain_events(&fleet);
        let dropped = fleet.fleet_stats().dropped_events;
        assert!(
            dropped > 0,
            "an undrained consumer past channel capacity must drop (got {} events)",
            received.len()
        );
        // Every decision was either delivered or counted as dropped.
        let decisions =
            received.iter().filter(|e| matches!(e.event, Event::Decision { .. })).count();
        assert!(decisions as u64 + dropped >= n as u64);
        fleet.shutdown().unwrap();
    }

    #[test]
    fn durable_fleet_recovers_from_crash_before_first_snapshot() {
        let dir = std::env::temp_dir().join("gem_fleet_recover_initial");
        let _ = std::fs::remove_dir_all(&dir);
        let (monitors, streams) = fleet_monitors(1);
        let id = monitors[0].0;
        let cfg = FleetConfig {
            shards: 1,
            max_batch: 4,
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        };

        // Standalone reference with the same epoch grouping.
        let (ref_monitors, _) = fleet_monitors(1);
        let mut reference = ref_monitors.into_iter().next().unwrap().1;
        let records: Vec<SignalRecord> = streams[0].iter().take(4).cloned().collect();
        let expected = reference.process_batch(&records);

        // Crash after one journaled epoch, before any explicit or
        // shutdown snapshot. The base manifest written at spawn is what
        // makes this recoverable.
        let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
        fleet.pause();
        for record in &records {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        fleet.flush().unwrap();
        let live: Vec<Event> = drain_events(&fleet).into_iter().map(|e| e.event).collect();
        fleet.abort();

        let recovery = Fleet::recover(cfg).unwrap();
        assert_eq!(recovery.replayed_epochs, 1);
        let replayed: Vec<Event> = recovery.replayed.iter().map(|e| e.event.clone()).collect();
        assert_eq!(replayed, live, "replay must reproduce the crashed fleet's decisions");
        assert_eq!(replayed, expected, "replay must match the standalone reference");
        recovery.fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_drops_a_torn_journal_tail_but_refuses_earlier_corruption() {
        let dir = std::env::temp_dir().join("gem_fleet_recover_corrupt_journal");
        let _ = std::fs::remove_dir_all(&dir);
        let (monitors, streams) = fleet_monitors(1);
        let id = monitors[0].0;
        let cfg = FleetConfig {
            shards: 1,
            max_batch: 2,
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        };
        // Two journaled epochs past the spawn manifest, then a crash.
        let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
        for chunk in streams[0].chunks(2).take(2) {
            fleet.pause();
            for record in chunk {
                assert!(fleet.submit(id, record.clone()).accepted());
            }
            fleet.flush().unwrap();
            fleet.resume();
        }
        fleet.abort();
        let path = dir.join(crate::journal::journal_file(0));
        let journal = std::fs::read(&path).unwrap();
        let (_, _, after) = crate::wire::open_frame(&journal).unwrap();
        let first_frame = journal.len() - after.len();
        assert!(!after.is_empty(), "two frames expected");

        // One flipped payload byte in the first frame: the second frame's
        // acknowledged epoch follows it, so recovery must refuse rather
        // than silently drop it.
        let mut corrupt = journal.clone();
        corrupt[first_frame - 1] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        match Fleet::recover(cfg.clone()) {
            Err(FleetError::Corrupt(msg)) => assert!(msg.contains("corrupt frame"), "{msg}"),
            Err(e) => panic!("expected FleetError::Corrupt, got {e}"),
            Ok(_) => panic!("expected FleetError::Corrupt, recovery succeeded"),
        }

        // A torn final frame is the crash case: dropped, the rest replays.
        std::fs::write(&path, &journal[..journal.len() - 3]).unwrap();
        let recovery = Fleet::recover(cfg).unwrap();
        assert_eq!(recovery.replayed_epochs, 1);
        recovery.fleet.abort();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_after_a_torn_tail_appends_recoverably() {
        let dir = std::env::temp_dir().join("gem_fleet_recover_torn_append");
        let cfg = FleetConfig {
            shards: 1,
            max_batch: 2,
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        };
        let (_, streams) = fleet_monitors(1);
        let decide = |fleet: &Fleet, id: u64, chunks: std::ops::Range<usize>| -> Vec<Event> {
            let mut events = Vec::new();
            for chunk in streams[0].chunks(2).skip(chunks.start).take(chunks.len()) {
                fleet.pause();
                for record in chunk {
                    assert!(fleet.submit(id, record.clone()).accepted());
                }
                fleet.flush().unwrap();
                events.extend(drain_events(fleet).into_iter().map(|e| e.event));
                fleet.resume();
            }
            events
        };
        // A short final frame, and zeros where unsynced appends were.
        for zero_tail in [false, true] {
            let _ = std::fs::remove_dir_all(&dir);
            let (monitors, _) = fleet_monitors(1);
            let id = monitors[0].0;
            let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
            let live = decide(&fleet, id, 0..2);
            fleet.abort();
            let path = dir.join(crate::journal::journal_file(0));
            let mut journal = std::fs::read(&path).unwrap();
            if zero_tail {
                journal.extend_from_slice(&[0; 64]);
            } else {
                journal.truncate(journal.len() - 3);
            }
            std::fs::write(&path, &journal).unwrap();

            let recovery = Fleet::recover(cfg.clone()).unwrap();
            let kept = if zero_tail { 2 } else { 1 };
            assert_eq!(recovery.replayed_epochs, kept as u64);
            let mut expected: Vec<Event> =
                recovery.replayed.iter().map(|e| e.event.clone()).collect();
            assert!(live.starts_with(&expected), "replay must match the crashed fleet");
            // The recovered fleet journals two more epochs behind the
            // intact ones, then crashes again.
            expected.extend(decide(&recovery.fleet, id, kept..kept + 2));
            recovery.fleet.abort();

            let again = Fleet::recover(cfg.clone()).unwrap();
            assert_eq!(again.replayed_epochs, kept as u64 + 2, "zero tail: {zero_tail}");
            let replayed: Vec<Event> = again.replayed.iter().map(|e| e.event.clone()).collect();
            assert_eq!(replayed, expected, "zero tail: {zero_tail}");
            again.fleet.abort();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_collects_superseded_images_and_never_a_shared_seed() {
        let dir = std::env::temp_dir().join("gem_fleet_gc_images");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let entry = |premises_id: u64, file: &str, epochs: u64| PremisesEntry {
            premises_id,
            snapshot_file: file.into(),
            snapshot_checksum: "0".repeat(16),
            epochs,
            sidecar: serde::Value::Null,
        };
        let manifest = FleetManifest::new(vec![
            entry(1, &image_file(1, 5, false), 5),
            entry(2, "seed.json", 0),
            entry(3, "seed.json", 0),
            entry(4, &image_file(5, 0, true), 0),
            entry(5, &image_file(5, 4, false), 4),
        ]);
        // Collected: premises 1's spawn-time base image and an older
        // spill, both superseded by its epoch-5 image.
        let collected = [image_file(1, 0, true), image_file(1, 2, false)];
        // Kept: the referenced image, a spill written past the commit,
        // the shared JSON seed, a JSON file that is no image name, an
        // image premises 5 has moved past but premises 4 still
        // references, and an image of a premises the manifest lacks.
        let kept = [
            image_file(1, 5, false),
            image_file(1, 7, false),
            "seed.json".to_string(),
            "premises-2-seed.json".to_string(),
            image_file(5, 0, true),
            image_file(9, 0, false),
        ];
        for f in collected.iter().chain(&kept) {
            std::fs::write(dir.join(f), b"x").unwrap();
        }
        gc_snapshots(&dir, &manifest);
        for f in &collected {
            assert!(!dir.join(f).exists(), "{f} should be collected");
        }
        for f in &kept {
            assert!(dir.join(f).exists(), "{f} should be kept");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_and_recover_resume_bitwise() {
        let dir = std::env::temp_dir().join("gem_fleet_recover_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (monitors, streams) = fleet_monitors(2);
        let ids: Vec<u64> = monitors.iter().map(|(p, _)| *p).collect();
        let cfg = FleetConfig {
            shards: 2,
            max_batch: 4,
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        };

        // Reference run: no interruption. Chunked submits with
        // pause/flush give deterministic epoch boundaries.
        let (ref_monitors, _) = fleet_monitors(2);
        let ref_fleet =
            Fleet::spawn(ref_monitors, FleetConfig { dir: None, ..cfg.clone() }).unwrap();
        let mut ref_events = Vec::new();
        for chunk in 0..4 {
            ref_fleet.pause();
            for (id, stream) in ids.iter().zip(&streams) {
                for record in stream.iter().skip(chunk * 4).take(4) {
                    assert!(ref_fleet.submit(*id, record.clone()).accepted());
                }
            }
            ref_fleet.flush().unwrap();
            ref_events.extend(drain_events(&ref_fleet));
            ref_fleet.resume();
        }
        ref_fleet.shutdown().unwrap();

        // Durable run: chunks 0-1, snapshot, chunk 2 (journaled only),
        // crash. Recovery must replay chunk 2 bit-for-bit, then chunk 3
        // continues as if nothing happened.
        let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
        let mut live_events = Vec::new();
        for chunk in 0..3 {
            fleet.pause();
            for (id, stream) in ids.iter().zip(&streams) {
                for record in stream.iter().skip(chunk * 4).take(4) {
                    assert!(fleet.submit(*id, record.clone()).accepted());
                }
            }
            fleet.flush().unwrap();
            live_events.extend(drain_events(&fleet));
            fleet.resume();
            if chunk == 1 {
                fleet.snapshot().unwrap();
                // The commit sweeps snapshots the manifest no longer
                // references (here: the initial epoch-0 files from
                // spawn), leaving exactly one file per premises.
                let snapshots: Vec<String> = std::fs::read_dir(&dir)
                    .unwrap()
                    .flatten()
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| parse_image_file(n).is_some())
                    .collect();
                assert_eq!(snapshots.len(), 2, "stale snapshots must be GC'd: {snapshots:?}");
            }
        }
        fleet.abort();

        let recovery = Fleet::recover(cfg).unwrap();
        assert_eq!(recovery.replayed_epochs, 2, "chunk 2 = one epoch per premises");
        for id in &ids {
            let expected: Vec<_> = decisions_of(&ref_events, *id);
            let mut got = decisions_of(&live_events[..], *id);
            got.truncate(8);
            // Pre-crash decisions match the reference...
            assert_eq!(got, expected[..8].to_vec());
            // ...the replayed chunk is bitwise identical...
            assert_eq!(decisions_of(&recovery.replayed, *id), expected[8..12].to_vec());
        }
        // ...and the recovered fleet continues the stream exactly.
        let fleet = recovery.fleet;
        fleet.pause();
        for (id, stream) in ids.iter().zip(&streams) {
            for record in stream.iter().skip(12).take(4) {
                assert!(fleet.submit(*id, record.clone()).accepted());
            }
        }
        fleet.flush().unwrap();
        let tail = drain_events(&fleet);
        for id in &ids {
            let expected: Vec<_> = decisions_of(&ref_events, *id);
            assert_eq!(decisions_of(&tail, *id), expected[12..16].to_vec());
        }
        fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epochs_decided_after_snapshot_capture_survive_truncation_and_recovery() {
        let dir = std::env::temp_dir().join("gem_fleet_truncate_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (monitors, streams) = fleet_monitors(1);
        let id = monitors[0].0;
        let cfg = FleetConfig {
            shards: 1,
            max_batch: 1,
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        };

        // Standalone reference: max_batch 1 makes every record its own
        // epoch, so grouping is deterministic regardless of timing.
        let (ref_monitors, _) = fleet_monitors(1);
        let mut reference = ref_monitors.into_iter().next().unwrap().1;
        let decisions = |events: &[Event]| -> Vec<Event> {
            events.iter().filter(|e| matches!(e, Event::Decision { .. })).cloned().collect()
        };
        // Records 0..8 run pre-crash, 8..10 post-recovery.
        let mut expected_precrash = Vec::new();
        for record in streams[0].iter().take(8) {
            expected_precrash.extend(reference.process_batch(std::slice::from_ref(record)));
        }
        let mut expected_tail = Vec::new();
        for record in streams[0].iter().skip(8).take(2) {
            expected_tail.extend(reference.process_batch(std::slice::from_ref(record)));
        }

        let journaled_epochs = |dir: &PathBuf| -> Vec<u64> {
            let mut epochs: Vec<u64> = read_all_journals(dir)
                .unwrap()
                .into_iter()
                .filter(|e| e.premises_id == id)
                .map(|e| e.epoch)
                .collect();
            epochs.sort_unstable();
            epochs
        };

        let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
        // Epochs 1-4, then a snapshot: watermark 4, journal pruned.
        fleet.pause();
        for record in streams[0].iter().take(4) {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        fleet.flush().unwrap();
        fleet.resume();
        fleet.snapshot().unwrap();
        // The truncation message is fire-and-forget; an acked flush on
        // the same FIFO channel is the barrier that proves it landed.
        fleet.flush().unwrap();
        assert!(
            journaled_epochs(&dir).is_empty(),
            "truncation must prune everything at or below the watermark"
        );

        // Records 5-6 are pending in the shard when the next snapshot
        // round runs: the capture sees epoch 4, and the truncation it
        // triggers must not touch epochs the shard decides afterwards.
        fleet.pause();
        for record in streams[0].iter().skip(4).take(2) {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        fleet.snapshot().unwrap();
        fleet.flush().unwrap();
        fleet.resume();
        assert_eq!(
            journaled_epochs(&dir),
            vec![5, 6],
            "epochs decided after the capture must survive its truncation"
        );

        // Two more journal-only epochs, then crash.
        fleet.pause();
        for record in streams[0].iter().skip(6).take(2) {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        fleet.flush().unwrap();
        let live: Vec<Event> = drain_events(&fleet).into_iter().map(|e| e.event).collect();
        fleet.abort();

        let live_decisions = decisions(&live);
        assert_eq!(
            live_decisions,
            decisions(&expected_precrash),
            "pre-crash decisions must match the standalone reference"
        );

        let recovery = Fleet::recover(cfg).unwrap();
        assert_eq!(recovery.replayed_epochs, 4, "epochs 5-8 live only in the journal");
        let replayed: Vec<Event> = recovery.replayed.iter().map(|e| e.event.clone()).collect();
        let replayed_decisions = decisions(&replayed);
        assert_eq!(
            replayed_decisions,
            live_decisions[live_decisions.len() - replayed_decisions.len()..].to_vec(),
            "replay must reproduce the crashed fleet's post-watermark decisions"
        );

        // The recovered fleet continues the stream bitwise.
        let fleet = recovery.fleet;
        fleet.pause();
        for record in streams[0].iter().skip(8).take(2) {
            assert!(fleet.submit(id, record.clone()).accepted());
        }
        fleet.flush().unwrap();
        let tail: Vec<Event> = drain_events(&fleet).into_iter().map(|e| e.event).collect();
        assert_eq!(decisions(&tail), decisions(&expected_tail));
        fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_cap_churn_stays_bitwise_identical_to_unbounded_fleet() {
        let dir = std::env::temp_dir().join("gem_fleet_hot_cap_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (monitors, streams) = fleet_monitors(2);
        let ids: Vec<u64> = monitors.iter().map(|(p, _)| *p).collect();
        let cfg = FleetConfig {
            shards: 1,
            max_batch: 4,
            dir: Some(dir.clone()),
            hot_premises_per_shard: Some(1),
            ..FleetConfig::default()
        };

        // Unbounded, ephemeral reference fleet: same epoch grouping,
        // everything stays resident.
        let (ref_monitors, _) = fleet_monitors(2);
        let ref_fleet = Fleet::spawn(
            ref_monitors,
            FleetConfig { shards: 1, max_batch: 4, ..FleetConfig::default() },
        )
        .unwrap();

        // Both premises share the one shard, so a hot cap of 1 forces
        // an evict/hydrate cycle on every chunk.
        let fleet = Fleet::spawn(monitors, cfg).unwrap();
        for chunk in 0..4 {
            for f in [&fleet, &ref_fleet] {
                f.pause();
                for (id, stream) in ids.iter().zip(&streams) {
                    for record in stream.iter().skip(chunk * 4).take(4) {
                        assert!(f.submit(*id, record.clone()).accepted());
                    }
                }
                f.flush().unwrap();
                f.resume();
            }
        }
        let events = drain_events(&fleet);
        let ref_events = drain_events(&ref_fleet);
        for id in &ids {
            assert_eq!(
                decisions_of(&events, *id),
                decisions_of(&ref_events, *id),
                "spill/hydrate churn must not change any decision"
            );
        }
        let stats = fleet.fleet_stats();
        let shard = &stats.shards[0];
        assert!(shard.evictions > 0, "cap 1 with 2 tenants must evict: {shard:?}");
        assert!(shard.hydrations > 0, "evicted tenants must hydrate on their next record");
        assert!(shard.hot_premises <= 1, "hot tier must respect the cap: {shard:?}");
        assert_eq!(shard.hot_premises + shard.cold_premises, 2);
        ref_fleet.shutdown().unwrap();
        fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
