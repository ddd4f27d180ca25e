//! One fleet worker: a dedicated thread owning the [`Monitor`]s of the
//! premises routed to it.
//!
//! The shard drains its ingress channel into per-premises pending
//! queues, then coalesces each premises' backlog into `infer_batch`
//! decision epochs — at most `max_batch` records per premises per drain
//! pass, rotating fairly across the premises that actually have work, so
//! one chatty tenant cannot starve the others. Every epoch is journaled
//! (write-ahead) before it is processed.
//!
//! # Tiered residency
//!
//! A shard may own far more premises than it keeps resident. Each
//! session is either *hot* (its [`Monitor`] is in memory) or *cold*
//! (its model lives in a snapshot file; only the ~100-byte
//! [`MonitorState`] sidecar and bookkeeping stay resident). A cold
//! premises is hydrated bitwise on its next record — image load and
//! checksum verify — inside the drain loop, so routing and admission
//! never notice the tier. A cold image is always at the premises'
//! current epoch: a spill writes one at the session's epoch, and
//! recovery spawns a premises cold only when the journal holds nothing
//! past its manifest image, so hydration never replays the journal.
//! When a hot cap is set, the least-recently-decided idle premises are
//! spilled back to disk after each drain pass, as binary images
//! ([`image_file`]).
//! Spill writes are *not* synced
//! individually: the next incremental snapshot round group-commits them
//! (syncs the files, then commits the manifest that references them),
//! and until then the journal remains the only durable copy of those
//! epochs — which is exactly what recovery replays.
//!
//! Long-lived loops get dedicated OS threads rather than `gem-par` pool
//! workers: the scoped fork-join pool in `gem-par` is built for bounded
//! compute bursts and would deadlock if its workers parked in `recv()`.
//! The batched model math inside `process_batch` still uses `gem-par`
//! internally.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use gem_core::{fnv1a64_hex, GemSnapshot, PremisesEntry};
use gem_obs::{SpanContext, TraceEvent};
use gem_signal::SignalRecord;

use crate::journal::{journal_file, JournalEntry, JournalWriter};
use crate::monitor::{Event, Monitor, MonitorState, MonitorStats};
use crate::obs::{MonitorObs, ShardObs};

/// An event annotated with its tenant and queueing latency.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetEvent {
    /// The premises the event belongs to.
    pub premises_id: u64,
    /// The monitor event.
    pub event: Event,
    /// Seconds from admission to decision (0 for events regenerated by
    /// journal replay).
    pub latency_s: f64,
    /// Trace id of the record that produced this decision, when its
    /// span was retained by the sampler — the consumer can stamp its
    /// own stage (e.g. the ACK write) onto the same trace. 0 otherwise.
    pub trace: u64,
}

/// Request-tracing metadata riding alongside one record from the
/// submit path into the shard.
#[derive(Clone, Copy)]
pub(crate) struct RecordMeta {
    /// The record's trace identity (id 0 when tracing is off).
    pub(crate) ctx: SpanContext,
    /// Nanoseconds from request origin (frame parse / submit call) to
    /// shard enqueue — the span's `ingress` stage, measured where only
    /// the submit path can see it.
    pub(crate) ingress_ns: u64,
    /// When the record entered the shard queue.
    pub(crate) enqueued: Instant,
}

/// `premises-{id}-{epoch}.{bin,json}`: the image holding one premises'
/// model through `epoch` — `.json` for a base image (see [`ImageWrite`]),
/// `.bin` for every other. Built here and parsed only by
/// [`parse_image_file`], so the writers and the sweep of superseded
/// images agree on the name.
pub(crate) fn image_file(premises_id: u64, epoch: u64, json: bool) -> String {
    let ext = if json { "json" } else { "bin" };
    format!("premises-{premises_id}-{epoch}.{ext}")
}

/// Parses an [`image_file`] name into `(premises_id, epoch)`; `None` for
/// any other file (the manifest, journals, a shared JSON seed).
pub(crate) fn parse_image_file(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_prefix("premises-")?;
    let stem = stem.strip_suffix(".bin").or_else(|| stem.strip_suffix(".json"))?;
    let (id, epoch) = stem.split_once('-')?;
    Some((id.parse().ok()?, epoch.parse().ok()?))
}

/// Why a premises image is written, which fixes its form and whether
/// the write is synced.
#[derive(Clone, Copy, PartialEq)]
enum ImageWrite {
    /// Eviction: the binary image, buffered; the next snapshot round's
    /// group commit syncs it before a manifest references it.
    Spill,
    /// A snapshot round: the binary image, synced before the manifest
    /// commit references it.
    Snapshot,
    /// The first image of a premises [`Fleet::spawn`](crate::Fleet::spawn)
    /// seeded hot, written by the snapshot it takes before admitting any
    /// record: the JSON export, synced. Spawn-time images thus stay
    /// readable as JSON text — perfbench's traced replay loads them with
    /// `GemSnapshot::from_json` — and hydration reads either form.
    Base,
}

/// Writes one premises' image through `epoch` into `dir` and returns its
/// durable record.
fn write_image(
    dir: &Path,
    premises_id: u64,
    epoch: u64,
    monitor: &Monitor,
    write: ImageWrite,
) -> std::io::Result<Stored> {
    let json = write == ImageWrite::Base;
    let file = image_file(premises_id, epoch, json);
    let snapshot = GemSnapshot::capture(monitor.gem());
    let image = if json {
        snapshot.to_json().map_err(std::io::Error::other)?.into_bytes()
    } else {
        snapshot.to_image()
    };
    let mut f = std::fs::File::create(dir.join(&file))?;
    f.write_all(&image)?;
    let synced = write != ImageWrite::Spill;
    if synced {
        f.sync_data()?;
    }
    Ok(Stored {
        checksum: fnv1a64_hex(&image),
        file,
        epochs: epoch,
        state: monitor.state(),
        synced,
    })
}

/// The durable image of one premises: which snapshot file holds its
/// model, through which epoch, plus the alert-policy sidecar that the
/// manifest stores next to it. `synced` distinguishes files already on
/// stable storage from spill writes still awaiting their group commit.
#[derive(Clone)]
pub(crate) struct Stored {
    pub(crate) file: String,
    pub(crate) checksum: String,
    /// Epochs folded into the file (the replay watermark).
    pub(crate) epochs: u64,
    pub(crate) state: MonitorState,
    /// Whether the file has been fsynced. Spills write buffered; the
    /// next snapshot round syncs them before the manifest commit.
    pub(crate) synced: bool,
}

/// How a premises enters a shard at spawn.
pub(crate) enum PremisesSeed {
    /// Resident from the start (fresh spawn, or recovery with journal
    /// backlog already replayed). `stored` carries the manifest image it
    /// was restored from, if any.
    Hot { monitor: Box<Monitor>, epoch: u64, stored: Option<Stored> },
    /// Spilled from the start (recovery without backlog): nothing is
    /// read or deserialized until the premises' first record, and the
    /// image is at the premises' epoch.
    Cold { stored: Stored },
}

/// Messages a shard worker understands. Control messages are handled
/// inline, in order, relative to records.
pub(crate) enum ShardMsg {
    Record {
        premises_id: u64,
        record: SignalRecord,
        meta: RecordMeta,
    },
    /// Stop draining epochs; records keep queueing (admission still
    /// bounds them). Used to set deterministic epoch boundaries.
    Pause,
    Resume,
    /// Drain every pending record (even while paused), then ack.
    Flush {
        ack: SyncSender<()>,
    },
    /// Incrementally snapshot into `dir` — premises dirty since their
    /// last stored image get fresh files, unsynced spill files get their
    /// group-commit sync — and reply with manifest entries for *every*
    /// premises. No drain, no pause: the sweep runs in bounded slices
    /// interleaved with drain passes, and records admitted during the
    /// snapshot simply journal at epochs past the captured watermarks.
    Snapshot {
        dir: PathBuf,
        ack: SyncSender<Result<Vec<PremisesEntry>, String>>,
    },
    /// Prune the journal entries folded into the last committed
    /// manifest. Only sent after a manifest commit; epochs decided after
    /// the snapshot was captured (e.g. by a concurrent `flush`) are past
    /// the recorded watermarks and survive the pruning, so no
    /// un-committed epoch can be lost even if other control messages
    /// interleave.
    TruncateJournal,
    Stats {
        ack: SyncSender<Vec<(u64, MonitorStats)>>,
    },
    /// Graceful shutdown: decide every admitted record, then exit. The
    /// ingress gate's `closed` flag is raised *before* this message is
    /// sent, so the shared `depth` count can only fall afterwards; the
    /// worker leaves once it reaches zero (no submitter mid-flight) and
    /// its own queues are empty.
    Close,
    /// Exit immediately, abandoning pending records (the crash-test and
    /// drop path). Pending records were never journaled, so recovery
    /// semantics are those of a real crash: queued-but-unprocessed scans
    /// are lost, decided epochs are not.
    Abort,
}

/// Residency of one premises' model.
enum Residency {
    /// Boxed so a mostly-cold shard pays pointer-size per tenant, not
    /// `size_of::<Monitor>()`.
    Hot(Box<Monitor>),
    Cold,
}

/// One premises' state inside a shard.
struct Session {
    residency: Residency,
    pending: VecDeque<(SignalRecord, RecordMeta)>,
    /// Whether the premises currently sits in the active drain queue.
    queued: bool,
    /// Decision epochs applied so far (the journal/manifest watermark).
    epoch: u64,
    /// Last durable image, if the premises has ever been snapshotted or
    /// spilled.
    stored: Option<Stored>,
    /// Last image known to be on stable storage. When a snapshot round
    /// exhausts its fsync budget, premises whose spill file is still
    /// buffered re-commit this entry instead — an older watermark whose
    /// delta the journal still holds — so the round stays O(budget) in
    /// sync cost without giving up durability.
    last_durable: Option<Stored>,
    /// LRU stamp: the shard's logical clock at the premises' last
    /// decision epoch (or hydration).
    last_touch: u64,
}

/// The shard worker. Runs until its channel closes or an `Abort`
/// arrives; returns the monitors still resident with their learned
/// state (spilled premises live in their snapshot files).
pub(crate) struct ShardWorker {
    id: usize,
    rx: Receiver<ShardMsg>,
    event_tx: SyncSender<FleetEvent>,
    sessions: HashMap<u64, Session>,
    /// All premises ids, sorted — the deterministic snapshot/stats
    /// iteration order.
    order: Vec<u64>,
    /// Premises with pending records, in drain rotation order.
    active: VecDeque<u64>,
    /// Ids of the currently hot premises (unordered; victims are found
    /// by scanning `last_touch`, which is O(hot cap), not O(tenants)).
    hot_ids: Vec<u64>,
    /// Monotonic stamp source for `Session::last_touch`.
    lru_clock: u64,
    max_batch: usize,
    /// Hot-tier cap. `None` keeps every premises resident; the fleet
    /// only sets one together with a durability dir to spill into.
    hot_cap: Option<usize>,
    /// Durability dir — spill target and hydration source.
    dir: Option<PathBuf>,
    paused: bool,
    /// Set by `Close` (or a disconnected channel): finish the backlog,
    /// wait out in-flight submitters, exit.
    closing: bool,
    /// Records sitting in per-premises pending queues (so the run loop
    /// can ask "any decision work?" without walking every session).
    pending_total: usize,
    journal: Option<JournalWriter>,
    /// Per-premises epoch watermarks captured by the last `Snapshot`
    /// message; the `TruncateJournal` that follows the manifest commit
    /// prunes only entries at or below them.
    committed: HashMap<u64, u64>,
    /// Ingress occupancy, shared with the fleet's admission gate;
    /// decremented as records are folded into epochs.
    depth: Arc<AtomicUsize>,
    /// Per-premises in-flight counts, shared likewise.
    inflight: HashMap<u64, Arc<AtomicUsize>>,
    /// Registry-backed instruments (the fleet keeps a clone for its
    /// thin-read accessors, e.g. the per-shard drop counters).
    obs: ShardObs,
    /// Per-premises instruments, re-attached (without re-seeding) on
    /// every hydration. Empty when per-premises metrics are off.
    monitor_obs: HashMap<u64, MonitorObs>,
    /// In-flight incremental snapshot sweep, advanced one bounded slice
    /// per run-loop iteration so drains interleave with it and a
    /// million-tenant shard never stalls its decision path on one
    /// control message.
    snapshot_job: Option<SnapshotJob>,
}

/// Premises visited per snapshot slice. Bounds how long the decision
/// path can wait behind snapshot bookkeeping in any one loop iteration.
const SNAPSHOT_SLICE: usize = 1024;

/// Buffered spill files fsynced per snapshot round. Premises past the
/// budget re-commit their last durable entry and catch up in later
/// rounds, keeping each round's sync cost bounded regardless of how
/// many evictions happened since the last one.
const SNAPSHOT_SYNC_BUDGET: usize = 512;

/// One snapshot sweep in progress: a cursor over the shard's premises
/// (deterministic `order`), the entries gathered so far, and the fsync
/// budget left for this round.
struct SnapshotJob {
    dir: PathBuf,
    cursor: usize,
    entries: Vec<PremisesEntry>,
    sync_budget: usize,
    ack: SyncSender<Result<Vec<PremisesEntry>, String>>,
    started: Instant,
}

impl ShardWorker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        rx: Receiver<ShardMsg>,
        event_tx: SyncSender<FleetEvent>,
        seeds: Vec<(u64, PremisesSeed)>,
        max_batch: usize,
        dir: Option<&PathBuf>,
        hot_cap: Option<usize>,
        depth: Arc<AtomicUsize>,
        inflight: HashMap<u64, Arc<AtomicUsize>>,
        obs: ShardObs,
        monitor_obs: HashMap<u64, MonitorObs>,
    ) -> std::io::Result<ShardWorker> {
        let journal = match dir {
            Some(dir) => {
                let mut journal = JournalWriter::open(dir.join(journal_file(id)))?;
                journal.set_obs(obs.journal.clone());
                Some(journal)
            }
            None => None,
        };
        let mut order: Vec<u64> = seeds.iter().map(|(p, _)| *p).collect();
        order.sort_unstable();
        let mut hot_ids = Vec::new();
        let mut committed = HashMap::new();
        let sessions: HashMap<u64, Session> = seeds
            .into_iter()
            .map(|(p, seed)| {
                let (residency, epoch, stored) = match seed {
                    PremisesSeed::Hot { monitor, epoch, stored } => {
                        hot_ids.push(p);
                        (Residency::Hot(monitor), epoch, stored)
                    }
                    PremisesSeed::Cold { stored } => (Residency::Cold, stored.epochs, Some(stored)),
                };
                if let Some(stored) = &stored {
                    committed.insert(p, stored.epochs);
                }
                let last_durable = stored.as_ref().filter(|s| s.synced).cloned();
                (
                    p,
                    Session {
                        residency,
                        pending: VecDeque::new(),
                        queued: false,
                        epoch,
                        stored,
                        last_durable,
                        last_touch: 0,
                    },
                )
            })
            .collect();
        let hot_count = hot_ids.len();
        let worker = ShardWorker {
            id,
            rx,
            event_tx,
            sessions,
            order,
            active: VecDeque::new(),
            hot_ids,
            lru_clock: 1,
            max_batch,
            hot_cap,
            dir: dir.cloned(),
            paused: false,
            closing: false,
            pending_total: 0,
            journal,
            committed,
            depth,
            inflight,
            obs,
            monitor_obs,
            snapshot_job: None,
        };
        worker.obs.hot_premises.set(hot_count as i64);
        worker.obs.cold_premises.set((worker.sessions.len() - hot_count) as i64);
        Ok(worker)
    }

    /// The autonomous shard loop. Each iteration folds every message
    /// already queued, then decides one bounded drain pass if there is
    /// backlog — the worker paces itself off its own queues and never
    /// waits for the *next* ingress message to keep chewing an existing
    /// backlog. It parks in `recv()` only when genuinely idle, so an
    /// idle shard costs nothing and a busy one runs free of any
    /// fleet-level cadence.
    pub(crate) fn run(mut self) -> Vec<(u64, Monitor)> {
        // A recovered shard may wake with more residents than its cap
        // (every replayed premises hydrates eagerly); trim before the
        // first pass.
        self.enforce_hot_cap();
        'outer: loop {
            // Fold everything already queued so coalescing sees the
            // whole backlog at once; control messages stay ordered
            // relative to records.
            loop {
                match self.rx.try_recv() {
                    Ok(msg) => {
                        if !self.handle(msg) {
                            break 'outer;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.closing = true;
                        break;
                    }
                }
            }
            // One bounded snapshot slice per iteration: the sweep and
            // the decision path take turns instead of the sweep holding
            // the loop for O(premises).
            if self.snapshot_job.is_some() {
                self.snapshot_slice();
            }
            if !self.paused && self.pending_total > 0 {
                // One fair pass, then back to the channel: ingress and
                // decisions interleave without either starving.
                self.drain(false);
                continue;
            }
            if self.snapshot_job.is_some() {
                // Idle but mid-sweep: keep slicing instead of parking.
                continue;
            }
            if self.closing {
                // Shutdown: fold the remaining backlog (Close outranks
                // Pause), then leave once no submitter is mid-flight —
                // `depth` doubles as the in-flight refcount because the
                // ingress gate reserves it *before* checking `closed`.
                self.drain(true);
                if self.depth.load(Ordering::SeqCst) == 0 {
                    break 'outer;
                }
                match self.rx.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(msg) => {
                        if !self.handle(msg) {
                            break 'outer;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // No sender left: the reserved depth can never turn
                    // into a record.
                    Err(RecvTimeoutError::Disconnected) => break 'outer,
                }
                continue;
            }
            // Idle: park until the next message.
            let idle_start = self.obs.enabled.then(Instant::now);
            match self.rx.recv() {
                Ok(msg) => {
                    self.note_idle(idle_start);
                    if !self.handle(msg) {
                        break 'outer;
                    }
                }
                Err(_) => self.closing = true,
            }
        }
        let mut out: Vec<(u64, Monitor)> = self
            .sessions
            .into_iter()
            .filter_map(|(p, s)| match s.residency {
                Residency::Hot(monitor) => Some((p, *monitor)),
                Residency::Cold => None,
            })
            .collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }

    /// Accounts (and, for waits long enough to matter, traces) time
    /// spent parked in `recv`.
    fn note_idle(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            let ns = elapsed_ns(t0);
            self.obs.idle_ns.add(ns);
            if ns >= 100_000 {
                self.obs
                    .trace(TraceEvent::new("idle").with("shard", self.id).with("duration_ns", ns));
            }
        }
    }

    /// Processes one message; returns `false` to exit the loop.
    fn handle(&mut self, msg: ShardMsg) -> bool {
        match msg {
            ShardMsg::Record { premises_id, record, meta } => {
                // The fleet only admits known premises; a missing session
                // here would be a routing bug.
                let session = self.sessions.get_mut(&premises_id).expect("routed premises");
                session.pending.push_back((record, meta));
                self.pending_total += 1;
                if !session.queued {
                    session.queued = true;
                    self.active.push_back(premises_id);
                }
            }
            ShardMsg::Pause => self.paused = true,
            ShardMsg::Resume => self.paused = false,
            ShardMsg::Flush { ack } => {
                self.drain(true);
                let _ = ack.send(());
            }
            ShardMsg::Snapshot { dir, ack } => {
                // The fleet's snapshot lock serializes rounds, so a
                // second sweep while one is in flight is a caller bug.
                if self.snapshot_job.is_some() {
                    let _ = ack.send(Err("snapshot already in progress".into()));
                } else {
                    self.snapshot_job = Some(SnapshotJob {
                        dir,
                        cursor: 0,
                        entries: Vec::with_capacity(self.order.len()),
                        sync_budget: SNAPSHOT_SYNC_BUDGET,
                        ack,
                        started: Instant::now(),
                    });
                }
            }
            ShardMsg::TruncateJournal => {
                if let Some(journal) = &mut self.journal {
                    // Prune only entries folded into the committed
                    // manifest; epochs journaled after the snapshot
                    // (concurrent flush, early resume) stay replayable.
                    // Failing to truncate only grows the file (replay
                    // filters the already-committed epochs by watermark),
                    // but is traced, not swallowed.
                    let shard = self.id;
                    self.obs.trace(match journal.retain_committed(&self.committed) {
                        Ok(pruned) => TraceEvent::new("journal_retain")
                            .with("shard", shard)
                            .with("pruned", pruned),
                        Err(e) => TraceEvent::new("journal_retain_error")
                            .with("shard", shard)
                            .with("error", e.to_string()),
                    });
                }
            }
            ShardMsg::Stats { ack } => {
                // Cold premises answer from their resident sidecar.
                let mut stats: Vec<(u64, MonitorStats)> = self
                    .sessions
                    .iter()
                    .map(|(p, s)| {
                        let st = match &s.residency {
                            Residency::Hot(m) => m.stats(),
                            Residency::Cold => {
                                s.stored
                                    .as_ref()
                                    .expect("cold premises has stored image")
                                    .state
                                    .stats
                            }
                        };
                        (*p, st)
                    })
                    .collect();
                stats.sort_by_key(|(p, _)| *p);
                let _ = ack.send(stats);
            }
            ShardMsg::Close => self.closing = true,
            ShardMsg::Abort => return false,
        }
        true
    }

    /// Drains pending records into decision epochs. One pass caps each
    /// premises at `max_batch` (fairness); `full` loops until every
    /// queue is empty (flush/snapshot/close).
    fn drain(&mut self, full: bool) {
        let busy_start = self.obs.enabled.then(Instant::now);
        loop {
            let processed_any = self.drain_pass();
            if !full || !processed_any {
                break;
            }
        }
        if let Some(t0) = busy_start {
            self.obs.busy_ns.add(elapsed_ns(t0));
        }
    }

    /// One fair drain pass in two phases over the premises that have
    /// work (`active`, not the whole tenant map). Phase A hydrates cold
    /// premises, selects up to `max_batch` records each, and journals
    /// every selected epoch with a *single* sync — the fsync is
    /// amortized across the pass instead of paid per epoch. Phase B
    /// processes the epochs. Write-ahead holds pass-wide: the sync
    /// completes before any epoch of the pass touches a model. The hot
    /// cap is enforced after Phase B, so a model never spills while its
    /// epoch is mid-flight.
    fn drain_pass(&mut self) -> bool {
        struct EpochPlan {
            premises_id: u64,
            epoch: u64,
            batch: Vec<(SignalRecord, RecordMeta)>,
            records: Vec<SignalRecord>,
            /// When phase A reached this premises (span `queue` stage
            /// boundary). Only captured while the sampler is live.
            reached: Option<Instant>,
            /// After the hydrate call returned (`hydrate` stage end).
            hydrated: Option<Instant>,
        }
        // Span stage instants cost two `Instant::now()` per *premises*
        // per pass (never per record); skipped entirely when no span
        // could ever be retained.
        let tracing = !self.obs.sampler.is_off();
        // Phase A: rotate through the active queue once, hydrate,
        // select batches, bump epochs.
        let rotation = self.active.len();
        let mut selected: Vec<EpochPlan> = Vec::with_capacity(rotation);
        for _ in 0..rotation {
            let Some(premises_id) = self.active.pop_front() else { break };
            let reached = tracing.then(Instant::now);
            self.hydrate(premises_id);
            let hydrated = tracing.then(Instant::now);
            let stamp = self.lru_clock;
            self.lru_clock += 1;
            let session = self.sessions.get_mut(&premises_id).expect("known premises");
            let take = session.pending.len().min(self.max_batch);
            if take == 0 {
                session.queued = false;
                continue;
            }
            let batch: Vec<(SignalRecord, RecordMeta)> = session.pending.drain(..take).collect();
            self.pending_total -= take;
            let records: Vec<SignalRecord> = batch.iter().map(|(r, _)| r.clone()).collect();
            session.epoch += 1;
            session.last_touch = stamp;
            if session.pending.is_empty() {
                session.queued = false;
            } else {
                self.active.push_back(premises_id);
            }
            selected.push(EpochPlan {
                premises_id,
                epoch: session.epoch,
                batch,
                records,
                reached,
                hydrated,
            });
        }
        if selected.is_empty() {
            if self.obs.enabled {
                self.obs.queue_depth.set(self.depth.load(Ordering::Relaxed) as i64);
            }
            return false;
        }
        if let Some(journal) = &mut self.journal {
            for plan in &selected {
                let bytes = journal
                    .append_nosync(&JournalEntry {
                        premises_id: plan.premises_id,
                        epoch: plan.epoch,
                        records: plan.records.clone(),
                    })
                    .unwrap_or_else(|e| panic!("shard {}: journal append failed: {e}", self.id));
                self.obs.trace(
                    TraceEvent::new("journal_append")
                        .with("premises", plan.premises_id)
                        .with("epoch", plan.epoch)
                        .with("bytes", bytes),
                );
            }
            journal
                .commit()
                .unwrap_or_else(|e| panic!("shard {}: journal commit failed: {e}", self.id));
        }
        // Span boundary: the pass-wide journal sync is done. Everything
        // between a premises' `hydrated` instant and this one — its own
        // append, the other premises' phase-A work, the shared fsync —
        // is what a record actually waited on for durability, so the
        // span bills it as the `journal` stage.
        let commit_done = tracing.then(Instant::now);
        // Phase B: decide.
        for plan in &selected {
            let EpochPlan { premises_id, epoch, batch, records, reached, hydrated } = plan;
            let take = batch.len();
            let session = self.sessions.get_mut(premises_id).expect("known premises");
            let Residency::Hot(monitor) = &mut session.residency else {
                unreachable!("premises hydrated in phase A")
            };
            let epoch_start = self.obs.enabled.then(Instant::now);
            let events = monitor.process_batch(records);
            // Span boundary: this plan's model math is done. `infer`
            // bills commit → here, which also absorbs the wait behind
            // earlier plans' phase-B work — time the record spent in
            // the pipeline either way.
            let infer_done = tracing.then(Instant::now);
            self.depth.fetch_sub(take, Ordering::AcqRel);
            if let Some(inflight) = self.inflight.get(premises_id) {
                inflight.fetch_sub(take, Ordering::AcqRel);
            }
            self.obs.epochs.inc();
            // Decision events map 1:1, in order, onto the batch
            // records; alert transitions inherit the latency of the
            // decision that triggered them.
            let mut rec_idx = 0usize;
            let mut latency = 0.0f64;
            let n_events = events.len();
            for event in events {
                let mut trace = 0u64;
                if matches!(event, Event::Decision { .. }) {
                    let meta = &batch[rec_idx].1;
                    // One instant anchors both the latency measurement
                    // and the span's final stage boundary, so the stage
                    // durations telescope to exactly the end-to-end
                    // time — attribution never has an unexplained gap.
                    let now = Instant::now();
                    let elapsed = now.saturating_duration_since(meta.enqueued);
                    latency = elapsed.as_secs_f64();
                    let ns = dur_ns(elapsed);
                    // Retention is decided here, where the end-to-end
                    // latency is known: head-sampled spans always keep,
                    // and anything over the tail threshold keeps even
                    // when the head coin said no — the p99 is always
                    // explained.
                    let e2e_ns = meta.ingress_ns.saturating_add(ns);
                    let retained = tracing
                        && meta.ctx.trace_id != 0
                        && self.obs.sampler.retain(meta.ctx.sampled, e2e_ns);
                    if self.obs.enabled {
                        if retained {
                            self.obs
                                .decision_latency_seconds
                                .record_with_exemplar(ns, meta.ctx.trace_id);
                        } else {
                            self.obs.decision_latency_seconds.record(ns);
                        }
                    }
                    if retained {
                        trace = meta.ctx.trace_id;
                        self.emit_span(
                            plan.premises_id,
                            *epoch,
                            meta,
                            e2e_ns,
                            SpanStamps {
                                reached: reached.expect("tracing instants captured"),
                                hydrated: hydrated.expect("tracing instants captured"),
                                commit_done: commit_done.expect("tracing instants captured"),
                                infer_done: infer_done.expect("tracing instants captured"),
                                decided: now,
                            },
                        );
                    }
                    rec_idx += 1;
                }
                // Never block on the consumer: a full event channel
                // would wedge this shard (and every flush/snapshot
                // behind it) until someone drains. Model state is
                // already folded and journaled; a consumer that
                // falls more than a full backlog behind loses the
                // notification and the per-shard drop counter
                // (surfaced by `Fleet::dropped_events`) counts it.
                // A disconnected receiver just means shutdown.
                match self.event_tx.try_send(FleetEvent {
                    premises_id: *premises_id,
                    event,
                    latency_s: latency,
                    trace,
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.obs.dropped_events.inc();
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
            if let Some(start) = epoch_start {
                let ns = elapsed_ns(start);
                self.obs.epoch_seconds.record(ns);
                self.obs.trace(
                    TraceEvent::new("epoch")
                        .with("premises", *premises_id)
                        .with("epoch", *epoch)
                        .with("records", take)
                        .with("events", n_events)
                        .with("duration_ns", ns),
                );
            }
        }
        if self.obs.enabled {
            self.obs.queue_depth.set(self.depth.load(Ordering::Relaxed) as i64);
        }
        self.enforce_hot_cap();
        true
    }

    /// Emits one retained record's "span" trace event: every pipeline
    /// stage from submit to decision, as durations that sum to within
    /// measurement noise of `e2e_ns` (the reply write rides separately
    /// as `span_ack`). The stage boundaries telescope — each stage ends
    /// where the next begins — so nothing falls between them; waits
    /// behind other premises' work are billed to the stage that imposed
    /// them (`journal` for phase A + sync, `infer` for earlier plans'
    /// phase B, `emit` for earlier events of the same batch).
    fn emit_span(
        &self,
        premises_id: u64,
        epoch: u64,
        meta: &RecordMeta,
        e2e_ns: u64,
        s: SpanStamps,
    ) {
        let queue_ns = dur_ns(s.reached.saturating_duration_since(meta.enqueued));
        let hydrate_ns = dur_ns(s.hydrated.saturating_duration_since(s.reached));
        let journal_ns = dur_ns(s.commit_done.saturating_duration_since(s.hydrated));
        let infer_ns = dur_ns(s.infer_done.saturating_duration_since(s.commit_done));
        let emit_ns = dur_ns(s.decided.saturating_duration_since(s.infer_done));
        let mut event = TraceEvent::new("span")
            .with("trace", SpanContext::format_id(meta.ctx.trace_id))
            .with("premises", premises_id)
            .with("shard", self.id)
            .with("epoch", epoch)
            .with("sampled", if meta.ctx.sampled { "head" } else { "tail" })
            .with("ingress_ns", meta.ingress_ns)
            .with("queue_ns", queue_ns)
            .with("hydrate_ns", hydrate_ns)
            .with("journal_ns", journal_ns)
            .with("infer_ns", infer_ns)
            .with("emit_ns", emit_ns)
            .with("e2e_ns", e2e_ns);
        if meta.ctx.parent_span != 0 {
            event = event.with("parent", SpanContext::format_id(meta.ctx.parent_span));
        }
        self.obs.trace(event);
    }

    /// Makes a cold premises resident: image load, checksum verify, then
    /// [`Monitor::from_state`] with the stored sidecar. The image is at
    /// the session's epoch (see the module docs), so nothing replays.
    /// Instruments are re-attached without re-seeding — the registry
    /// series kept counting while the premises was cold. Corruption
    /// panics the shard: a tenant whose durable state cannot be
    /// reproduced must not keep deciding.
    fn hydrate(&mut self, premises_id: u64) {
        let session = self.sessions.get(&premises_id).expect("routed premises");
        if matches!(session.residency, Residency::Hot(_)) {
            return;
        }
        let start = self.obs.enabled.then(Instant::now);
        let stored = session.stored.clone().expect("cold premises has stored image");
        assert_eq!(
            stored.epochs, session.epoch,
            "shard {}: premises {premises_id} went cold past its stored image",
            self.id
        );
        let dir = self.dir.clone().expect("cold premises requires a durability dir");
        let bytes = std::fs::read(dir.join(&stored.file)).unwrap_or_else(|e| {
            panic!("shard {}: hydrate read {} failed: {e}", self.id, stored.file)
        });
        assert_eq!(
            fnv1a64_hex(&bytes),
            stored.checksum,
            "shard {}: snapshot {} corrupt on hydrate of premises {premises_id}",
            self.id,
            stored.file
        );
        let gem = GemSnapshot::from_image(&bytes)
            .and_then(|s| s.restore())
            .unwrap_or_else(|e| panic!("shard {}: restoring {} failed: {e}", self.id, stored.file));
        let mut monitor = Monitor::from_state(gem, stored.state);
        if let Some(obs) = self.monitor_obs.get(&premises_id) {
            monitor.attach_obs(obs.clone());
        }
        let stamp = self.lru_clock;
        self.lru_clock += 1;
        let session = self.sessions.get_mut(&premises_id).expect("routed premises");
        session.residency = Residency::Hot(Box::new(monitor));
        session.last_touch = stamp;
        self.hot_ids.push(premises_id);
        self.obs.hydrations.inc();
        self.obs.hot_premises.set(self.hot_ids.len() as i64);
        self.obs.cold_premises.set((self.sessions.len() - self.hot_ids.len()) as i64);
        if let Some(t0) = start {
            let ns = elapsed_ns(t0);
            self.obs.hydrate_seconds.record(ns);
            self.obs.trace(
                TraceEvent::new("hydrate")
                    .with("premises", premises_id)
                    .with("epoch", stored.epochs)
                    .with("duration_ns", ns),
            );
        }
    }

    /// Spills one idle hot premises to its snapshot file. The write is
    /// buffered, not synced — the journal already holds every epoch past
    /// the last committed manifest, so durability is unchanged; the next
    /// snapshot round syncs the file before any manifest references it.
    /// Returns `false` (premises stays hot) if it has pending records or
    /// the write fails.
    fn spill(&mut self, premises_id: u64) -> bool {
        let dir = self.dir.clone().expect("a hot cap requires a durability dir");
        let (epoch, clean) = {
            let session = self.sessions.get(&premises_id).expect("known premises");
            if !session.pending.is_empty() || !matches!(session.residency, Residency::Hot(_)) {
                return false;
            }
            (session.epoch, session.stored.as_ref().is_some_and(|s| s.epochs == session.epoch))
        };
        let mut new_stored: Option<Stored> = None;
        if !clean {
            let session = &self.sessions[&premises_id];
            let Residency::Hot(monitor) = &session.residency else { unreachable!() };
            match write_image(&dir, premises_id, epoch, monitor, ImageWrite::Spill) {
                Ok(stored) => new_stored = Some(stored),
                Err(e) => {
                    self.obs.trace(
                        TraceEvent::new("spill_error")
                            .with("premises", premises_id)
                            .with("error", e.to_string()),
                    );
                    return false;
                }
            }
        }
        let session = self.sessions.get_mut(&premises_id).expect("known premises");
        if let Some(stored) = new_stored {
            // The image being replaced may be the only synced one; keep
            // it as the budget-exhausted fallback for snapshot rounds.
            if let Some(old) = session.stored.take() {
                if old.synced {
                    session.last_durable = Some(old);
                }
            }
            session.stored = Some(stored);
        }
        session.residency = Residency::Cold;
        if let Some(i) = self.hot_ids.iter().position(|&p| p == premises_id) {
            self.hot_ids.swap_remove(i);
        }
        self.obs.evictions.inc();
        self.obs.hot_premises.set(self.hot_ids.len() as i64);
        self.obs.cold_premises.set((self.sessions.len() - self.hot_ids.len()) as i64);
        self.obs.trace(
            TraceEvent::new("evict")
                .with("premises", premises_id)
                .with("epoch", epoch)
                .with("wrote", !clean),
        );
        true
    }

    /// Evicts least-recently-decided idle premises until the hot tier
    /// fits its cap. The cap is a soft target: premises with pending
    /// records never spill (their backlog is not journaled yet), so a
    /// pass where everything is busy may briefly exceed it.
    fn enforce_hot_cap(&mut self) {
        let Some(cap) = self.hot_cap else { return };
        while self.hot_ids.len() > cap {
            let mut victim: Option<(u64, u64)> = None;
            for &p in &self.hot_ids {
                let s = &self.sessions[&p];
                if s.pending.is_empty() && victim.is_none_or(|(_, t)| s.last_touch < t) {
                    victim = Some((p, s.last_touch));
                }
            }
            let Some((p, _)) = victim else { break };
            if !self.spill(p) {
                break;
            }
        }
    }

    /// Advances the in-flight snapshot sweep by one bounded slice. On
    /// the last slice, records the captured watermarks (for the
    /// truncation that follows the manifest commit) and acks the fleet.
    fn snapshot_slice(&mut self) {
        let Some(mut job) = self.snapshot_job.take() else { return };
        let end = (job.cursor + SNAPSHOT_SLICE).min(self.order.len());
        while job.cursor < end {
            let premises_id = self.order[job.cursor];
            job.cursor += 1;
            match self.snapshot_premises(&job.dir, premises_id, &mut job.sync_budget) {
                Ok(entry) => job.entries.push(entry),
                Err(e) => {
                    // A failed sweep commits nothing: the previous
                    // manifest stays authoritative and the journal keeps
                    // every epoch past it.
                    let _ = job.ack.send(Err(e));
                    return;
                }
            }
        }
        if job.cursor < self.order.len() {
            self.snapshot_job = Some(job);
            return;
        }
        if self.obs.enabled {
            let ns = elapsed_ns(job.started);
            self.obs.snapshot_seconds.record(ns);
            self.obs.trace(
                TraceEvent::new("snapshot")
                    .with("shard", self.id)
                    .with("premises_count", self.sessions.len())
                    .with("ok", true)
                    .with("duration_ns", ns),
            );
        }
        // Remember exactly what the manifest will commit, so the
        // truncation that follows can spare any epoch decided in
        // between (or past a budget-deferred watermark).
        self.committed = job.entries.iter().map(|e| (e.premises_id, e.epochs)).collect();
        let _ = job.ack.send(Ok(job.entries));
    }

    /// Captures one premises' manifest entry: dirty hot premises get a
    /// fresh synced file, buffered spill files get their group-commit
    /// sync (within this round's fsync budget), and everything else
    /// re-commits the image it already has. A premises past the budget
    /// falls back to its last durable entry — an older watermark whose
    /// delta stays in the journal until a later round catches up.
    fn snapshot_premises(
        &mut self,
        dir: &Path,
        premises_id: u64,
        sync_budget: &mut usize,
    ) -> Result<PremisesEntry, String> {
        let session = self.sessions.get_mut(&premises_id).expect("known premises");
        if let Residency::Hot(monitor) = &session.residency {
            let dirty = session.stored.as_ref().is_none_or(|s| s.epochs < session.epoch);
            if dirty {
                // Synced before the manifest commit references it: a
                // power loss after the rename must find these bytes.
                let write =
                    if session.stored.is_none() { ImageWrite::Base } else { ImageWrite::Snapshot };
                let stored = write_image(dir, premises_id, session.epoch, monitor, write)
                    .map_err(|e| e.to_string())?;
                session.last_durable = Some(stored.clone());
                session.stored = Some(stored);
            }
        }
        let stored = session.stored.as_mut().expect("snapshot stored every premises");
        if !stored.synced {
            if *sync_budget == 0 {
                if let Some(fallback) = session.last_durable.as_ref() {
                    // Budget spent: re-commit the older durable image.
                    return Ok(entry_for(premises_id, fallback));
                }
            }
            // Group commit for spill writes: sync the buffered file
            // now, before the manifest references it.
            sync_existing(dir, &stored.file).map_err(|e| e.to_string())?;
            stored.synced = true;
            *sync_budget = sync_budget.saturating_sub(1);
            session.last_durable = Some(stored.clone());
        }
        Ok(entry_for(premises_id, stored))
    }
}

/// Builds the manifest entry for one premises from a durable image.
fn entry_for(premises_id: u64, stored: &Stored) -> PremisesEntry {
    PremisesEntry {
        premises_id,
        snapshot_file: stored.file.clone(),
        snapshot_checksum: stored.checksum.clone(),
        epochs: stored.epochs,
        sidecar: serde::Serialize::serialize(&stored.state),
    }
}

/// The phase-boundary instants a span's stage durations derive from.
struct SpanStamps {
    /// Phase A reached the record's premises (ends `queue`).
    reached: Instant,
    /// The hydrate call returned (ends `hydrate`; equals `reached` to
    /// within nanoseconds for an already-hot premises).
    hydrated: Instant,
    /// The pass-wide journal sync completed (ends `journal`).
    commit_done: Instant,
    /// This plan's `process_batch` returned (ends `infer`).
    infer_done: Instant,
    /// The decision's latency measurement instant (ends `emit`: the
    /// wait behind earlier events of the batch being handed off). The
    /// same instant the end-to-end time derives from, so the six stages
    /// sum to `e2e_ns` minus only Instant arithmetic rounding.
    decided: Instant,
}

/// Flushes an already-written file to stable storage.
fn sync_existing(dir: &Path, file: &str) -> std::io::Result<()> {
    std::fs::File::open(dir.join(file))?.sync_data()
}

/// Saturating nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Saturating duration → nanoseconds.
fn dur_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}
