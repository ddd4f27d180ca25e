//! Observability wiring for the fleet runtime.
//!
//! This module owns the *names*: every metric and trace-event kind the
//! service layer emits is registered here, so the whole exposition
//! surface is reviewable in one file. The naming scheme is
//! `gem_<subsystem>_<noun>_<unit|total>`; labels are drawn from bounded
//! sets only — `shard` (fixed at spawn), `premises` (registered
//! tenants), `verdict`/`outcome` (fixed enums). See DESIGN.md
//! ("Observability architecture") for the cardinality rules.
//!
//! Counters are always maintained (they replace the ad-hoc
//! `AtomicU64`s the fleet already paid for); [`ObsOptions::enabled`]
//! gates only the *extra* cost — latency histograms, span timing and
//! trace-ring pushes — so the overhead of a metrics-off fleet matches
//! the pre-observability runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gem_obs::{Counter, Gauge, Histogram, Registry, TraceEvent, TraceRing, TraceSampler};

use crate::monitor::MonitorStats;

/// Observability knobs of a fleet.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// When false, skip histograms, span timing and trace-ring pushes.
    /// Counters (admission, drops, per-premises stats) stay on — they
    /// back the existing accessors.
    pub enabled: bool,
    /// Per-shard trace-ring capacity (events retained; oldest are
    /// overwritten). 0 disables the rings entirely.
    pub ring_capacity: usize,
    /// Register per-premises monitor series (`gem_monitor_*`). On by
    /// default; turn off for very large fleets (100k+ tenants) where
    /// per-tenant label cardinality would dominate RSS — shard- and
    /// fleet-level series stay on, and
    /// [`crate::Fleet::stats`] still answers per-premises via the
    /// shards.
    pub per_premises: bool,
    /// Head-based request-trace sampling rate in `0..=1`: the fraction
    /// of records whose per-stage span is retained regardless of how
    /// fast they were. 0 (the default) keeps only tail spans.
    pub trace_sample: f64,
    /// Tail-latency retention threshold, milliseconds: any record whose
    /// end-to-end latency reaches this is retained even when the head
    /// coin said no, so the p99 is always explained. ≤ 0 disables tail
    /// capture.
    pub trace_tail_ms: f64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            ring_capacity: 512,
            per_premises: true,
            trace_sample: 0.0,
            trace_tail_ms: 250.0,
        }
    }
}

impl ObsOptions {
    /// The sampling policy these options describe ([`TraceSampler::off`]
    /// when observability is disabled — no spans without the rings to
    /// hold them).
    pub fn trace_sampler(&self) -> TraceSampler {
        if !self.enabled || self.ring_capacity == 0 {
            return TraceSampler::off();
        }
        let tail_ns = if self.trace_tail_ms > 0.0 {
            (self.trace_tail_ms * 1e6).min(u64::MAX as f64) as u64
        } else {
            0
        };
        TraceSampler::new(self.trace_sample, tail_ns)
    }
}

/// Admission counters with no shard to attribute to: submissions for
/// premises the fleet does not know. Everything routable is counted on
/// the destination shard's [`ShardAdmissionObs`] instead, so concurrent
/// submitters to different shards never contend on one cache line.
pub(crate) struct AdmissionObs {
    pub(crate) unknown_submitted: Arc<Counter>,
    pub(crate) unknown_sheds: Arc<Counter>,
}

impl AdmissionObs {
    pub(crate) fn register(registry: &Registry) -> AdmissionObs {
        AdmissionObs {
            unknown_submitted: registry
                .counter("gem_fleet_submitted_total", &[("shard", "unknown")]),
            unknown_sheds: registry.counter("gem_fleet_admission_total", &[("verdict", "unknown")]),
        }
    }
}

/// Admission-path counters of one shard. The total over shards (plus
/// the fleet-wide unknown series) reproduces the old fleet-global
/// counters; [`crate::FleetStats`] does that summation lazily.
pub(crate) struct ShardAdmissionObs {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) accepts: Arc<Counter>,
    pub(crate) queued: Arc<Counter>,
    pub(crate) sheds: Arc<Counter>,
}

impl ShardAdmissionObs {
    pub(crate) fn register(registry: &Registry, shard: usize) -> ShardAdmissionObs {
        let s = shard.to_string();
        let verdict = |v| {
            registry.counter("gem_fleet_admission_total", &[("shard", s.as_str()), ("verdict", v)])
        };
        ShardAdmissionObs {
            submitted: registry.counter("gem_fleet_submitted_total", &[("shard", &s)]),
            accepts: verdict("accept"),
            queued: verdict("queued"),
            sheds: verdict("shed"),
        }
    }
}

/// Instruments of the network ingress ([`crate::IngressServer`]).
/// Counters follow the admission naming (`verdict` label) so a scrape
/// can reconcile wire-level accepts against the fleet's own admission
/// series; rejects carry the connection-close reason.
#[derive(Clone)]
pub(crate) struct IngressObs {
    pub(crate) enabled: bool,
    pub(crate) connections: Arc<Counter>,
    pub(crate) connections_open: Arc<Gauge>,
    /// Record frames parsed off the wire (before admission).
    pub(crate) frames: Arc<Counter>,
    pub(crate) accepts: Arc<Counter>,
    pub(crate) queued: Arc<Counter>,
    pub(crate) sheds: Arc<Counter>,
    /// Records refused because another connection owns the premises.
    pub(crate) busy_sheds: Arc<Counter>,
    pub(crate) bytes_rx: Arc<Counter>,
    pub(crate) bytes_tx: Arc<Counter>,
    /// Connection rejects by reason (protocol violations + timeouts).
    pub(crate) rejects_torn: Arc<Counter>,
    pub(crate) rejects_bad_checksum: Arc<Counter>,
    pub(crate) rejects_oversize: Arc<Counter>,
    pub(crate) rejects_bad_frame: Arc<Counter>,
    pub(crate) rejects_timeout: Arc<Counter>,
    pub(crate) rejects_io: Arc<Counter>,
    /// Decisions/alerts whose submitting connection was gone.
    pub(crate) orphan_events: Arc<Counter>,
    /// Frame parse → ACK written, nanoseconds.
    pub(crate) ack_seconds: Arc<Histogram>,
    /// Router dequeue → DECISION/ALERT written, nanoseconds.
    pub(crate) reply_seconds: Arc<Histogram>,
}

impl IngressObs {
    pub(crate) fn register(registry: &Registry, enabled: bool) -> IngressObs {
        let verdict = |v| registry.counter("gem_ingress_records_total", &[("verdict", v)]);
        let reject = |r| registry.counter("gem_ingress_rejects_total", &[("reason", r)]);
        IngressObs {
            enabled,
            connections: registry.counter("gem_ingress_connections_total", &[]),
            connections_open: registry.gauge("gem_ingress_connections_open", &[]),
            frames: registry.counter("gem_ingress_frames_total", &[("kind", "record")]),
            accepts: verdict("accept"),
            queued: verdict("queued"),
            sheds: verdict("shed"),
            busy_sheds: verdict("busy"),
            bytes_rx: registry.counter("gem_ingress_bytes_total", &[("dir", "rx")]),
            bytes_tx: registry.counter("gem_ingress_bytes_total", &[("dir", "tx")]),
            rejects_torn: reject("torn_frame"),
            rejects_bad_checksum: reject("bad_checksum"),
            rejects_oversize: reject("oversize"),
            rejects_bad_frame: reject("bad_frame"),
            rejects_timeout: reject("timeout"),
            rejects_io: reject("io"),
            orphan_events: registry.counter("gem_ingress_orphan_events_total", &[]),
            ack_seconds: registry.histogram("gem_ingress_ack_seconds", &[]),
            reply_seconds: registry.histogram("gem_ingress_reply_seconds", &[]),
        }
    }

    /// The reject counter for a connection-close reason.
    pub(crate) fn reject(&self, reason: &'static str) -> &Counter {
        match reason {
            "torn_frame" => &self.rejects_torn,
            "bad_checksum" => &self.rejects_bad_checksum,
            "oversize" => &self.rejects_oversize,
            "timeout" => &self.rejects_timeout,
            "io" => &self.rejects_io,
            _ => &self.rejects_bad_frame,
        }
    }
}

/// Journal timing/volume instruments of one shard. Attach to a
/// [`crate::journal::JournalWriter`] with `set_obs`.
#[derive(Clone)]
pub struct JournalObs {
    pub(crate) enabled: bool,
    pub(crate) append_seconds: Arc<Histogram>,
    pub(crate) fsync_seconds: Arc<Histogram>,
    pub(crate) retain_seconds: Arc<Histogram>,
    pub(crate) appends: Arc<Counter>,
    pub(crate) bytes: Arc<Counter>,
}

impl JournalObs {
    /// Registers the journal metrics for one shard.
    pub fn register(registry: &Registry, shard: usize, enabled: bool) -> JournalObs {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &s)];
        JournalObs {
            enabled,
            append_seconds: registry.histogram("gem_journal_append_seconds", labels),
            fsync_seconds: registry.histogram("gem_journal_fsync_seconds", labels),
            retain_seconds: registry.histogram("gem_journal_retain_seconds", labels),
            appends: registry.counter("gem_journal_appends_total", labels),
            bytes: registry.counter("gem_journal_bytes_total", labels),
        }
    }
}

/// Instruments of one shard worker (all shared handles; cloning is
/// cheap and the fleet keeps a clone for its own thin-read accessors).
#[derive(Clone)]
pub(crate) struct ShardObs {
    pub(crate) enabled: bool,
    pub(crate) epochs: Arc<Counter>,
    pub(crate) epoch_seconds: Arc<Histogram>,
    pub(crate) decision_latency_seconds: Arc<Histogram>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) dropped_events: Arc<Counter>,
    pub(crate) snapshot_seconds: Arc<Histogram>,
    /// Resident (hydrated) premises on this shard right now.
    pub(crate) hot_premises: Arc<Gauge>,
    /// Premises spilled to their snapshot files right now.
    pub(crate) cold_premises: Arc<Gauge>,
    /// Hot-tier evictions (monitor spilled to its snapshot file).
    pub(crate) evictions: Arc<Counter>,
    /// Cold-tier hydrations (snapshot load + journal replay).
    pub(crate) hydrations: Arc<Counter>,
    /// Wall time of one hydration, snapshot read through replay.
    pub(crate) hydrate_seconds: Arc<Histogram>,
    /// Nanoseconds the worker spent deciding/journaling (drain passes).
    pub(crate) busy_ns: Arc<Counter>,
    /// Nanoseconds the worker spent parked waiting for ingress.
    pub(crate) idle_ns: Arc<Counter>,
    pub(crate) journal: JournalObs,
    pub(crate) ring: Arc<TraceRing>,
    /// Scrape-visible mirror of the ring's overwrite-drop count.
    pub(crate) trace_dropped: Arc<Counter>,
    /// Last ring drop count already mirrored into `trace_dropped`.
    trace_dropped_synced: Arc<AtomicU64>,
    /// Span sampling policy (head rate + tail threshold).
    pub(crate) sampler: TraceSampler,
}

impl ShardObs {
    pub(crate) fn register(registry: &Registry, shard: usize, opts: &ObsOptions) -> ShardObs {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &s)];
        ShardObs {
            enabled: opts.enabled,
            epochs: registry.counter("gem_shard_epochs_total", labels),
            epoch_seconds: registry.histogram("gem_shard_epoch_seconds", labels),
            decision_latency_seconds: registry
                .histogram("gem_shard_decision_latency_seconds", labels),
            queue_depth: registry.gauge("gem_shard_queue_depth", labels),
            dropped_events: registry.counter("gem_shard_dropped_events_total", labels),
            snapshot_seconds: registry.histogram("gem_shard_snapshot_seconds", labels),
            hot_premises: registry.gauge("gem_shard_hot_premises", labels),
            cold_premises: registry.gauge("gem_shard_cold_premises", labels),
            evictions: registry.counter("gem_shard_evictions_total", labels),
            hydrations: registry.counter("gem_shard_hydrations_total", labels),
            hydrate_seconds: registry.histogram("gem_premises_hydrate_seconds", labels),
            busy_ns: registry.counter("gem_shard_busy_ns_total", labels),
            idle_ns: registry.counter("gem_shard_idle_ns_total", labels),
            journal: JournalObs::register(registry, shard, opts.enabled),
            ring: Arc::new(TraceRing::new(if opts.enabled { opts.ring_capacity } else { 0 })),
            trace_dropped: registry.counter("gem_trace_dropped_total", labels),
            trace_dropped_synced: Arc::new(AtomicU64::new(0)),
            sampler: opts.trace_sampler(),
        }
    }

    /// Pushes a trace event when tracing is on, mirroring any
    /// overwrite-drops the ring just performed into the scrape-visible
    /// counter.
    pub(crate) fn trace(&self, event: TraceEvent) {
        if self.enabled {
            self.ring.push(event);
            self.sync_trace_dropped();
        }
    }

    /// Mirrors `ring.dropped()` into `gem_trace_dropped_total`. Uses a
    /// `fetch_max` high-water mark so concurrent pushers (the shard
    /// worker and the ingress router share the ring) never double-count
    /// a drop.
    pub(crate) fn sync_trace_dropped(&self) {
        let dropped = self.ring.dropped();
        let seen = self.trace_dropped_synced.fetch_max(dropped, Ordering::Relaxed);
        if dropped > seen {
            self.trace_dropped.add(dropped - seen);
        }
    }
}

/// Per-premises monitor instruments. The fleet attaches one of these to
/// every [`crate::Monitor`] it owns; counters are seeded from the
/// monitor's restored statistics so recovery does not zero the series.
#[derive(Clone)]
pub struct MonitorObs {
    pub(crate) enabled: bool,
    pub(crate) premises_id: u64,
    pub(crate) decisions_in: Arc<Counter>,
    pub(crate) decisions_out: Arc<Counter>,
    pub(crate) alerts: Arc<Counter>,
    pub(crate) self_updates: Arc<Counter>,
    pub(crate) epochs: Arc<Counter>,
    pub(crate) ring: Arc<TraceRing>,
}

impl MonitorObs {
    /// Registers the per-premises series. `ring` is the trace ring of
    /// the shard the premises routes to.
    pub fn register(
        registry: &Registry,
        premises_id: u64,
        ring: Arc<TraceRing>,
        enabled: bool,
    ) -> MonitorObs {
        let p = premises_id.to_string();
        let labels: &[(&str, &str)] = &[("premises", &p)];
        let outcome = |name: &str, o: &str| {
            registry.counter(name, &[("premises", p.as_str()), ("outcome", o)])
        };
        MonitorObs {
            enabled,
            premises_id,
            decisions_in: outcome("gem_monitor_decisions_total", "in"),
            decisions_out: outcome("gem_monitor_decisions_total", "out"),
            alerts: registry.counter("gem_monitor_alerts_total", labels),
            self_updates: registry.counter("gem_monitor_self_updates_total", labels),
            epochs: registry.counter("gem_monitor_epochs_total", labels),
            ring,
        }
    }

    /// Seeds the counters with pre-existing session statistics (the
    /// recovery path: the registry is fresh but the monitor is not).
    pub(crate) fn seed(&self, stats: &MonitorStats) {
        self.decisions_in.add(stats.in_decisions as u64);
        self.decisions_out.add(stats.out_decisions as u64);
        self.alerts.add(stats.alerts as u64);
        self.self_updates.add(stats.model_updates as u64);
        self.epochs.add(stats.epochs);
    }

    /// Pushes a trace event when tracing is on.
    pub(crate) fn trace(&self, event: TraceEvent) {
        if self.enabled {
            self.ring.push(event);
        }
    }
}

/// Point-in-time admission/ingress statistics of one shard.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events this shard dropped because the fleet event channel was
    /// full (satellite: attributable per shard, not just fleet-global).
    pub dropped_events: u64,
    /// Current ingress occupancy (admitted, not yet decided).
    pub queue_depth: usize,
    /// Scans submitted to this shard (accepted or not).
    pub submitted: u64,
    /// Nanoseconds the shard worker spent deciding/journaling. Zero
    /// unless observability timing is enabled.
    pub busy_ns: u64,
    /// Nanoseconds the shard worker spent parked waiting for ingress.
    /// Zero unless observability timing is enabled.
    pub idle_ns: u64,
    /// Resident (hydrated) premises on this shard.
    pub hot_premises: i64,
    /// Premises spilled to their snapshot files.
    pub cold_premises: i64,
    /// Hot-tier evictions since spawn.
    pub evictions: u64,
    /// Cold-tier hydrations since spawn.
    pub hydrations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_obs(ring_capacity: usize) -> (Registry, ShardObs) {
        let registry = Registry::new();
        let opts = ObsOptions { ring_capacity, ..ObsOptions::default() };
        let obs = ShardObs::register(&registry, 0, &opts);
        (registry, obs)
    }

    /// Overfilling a trace ring must surface every overwrite-drop in
    /// `gem_trace_dropped_total{shard}`, exactly once.
    #[test]
    fn trace_drop_counter_mirrors_ring_overflow() {
        let (_registry, obs) = shard_obs(4);
        for i in 0..10u64 {
            obs.trace(TraceEvent::new("span").with("i", i));
        }
        assert_eq!(obs.ring.dropped(), 6, "10 pushes into capacity 4 drop 6");
        assert_eq!(obs.trace_dropped.get(), 6, "counter mirrors the ring's drops");
        // Re-syncing without new drops must not double-count.
        obs.sync_trace_dropped();
        obs.sync_trace_dropped();
        assert_eq!(obs.trace_dropped.get(), 6);
        // Draining resets nothing: drops are cumulative.
        let drained = obs.ring.drain();
        assert_eq!(drained.len(), 4);
        obs.trace(TraceEvent::new("span"));
        assert_eq!(obs.trace_dropped.get(), 6, "push into a drained ring drops nothing");
    }

    /// The counter is visible through the registry's exposition under
    /// the canonical name, labelled with the shard.
    #[test]
    fn trace_drop_counter_is_registered_per_shard() {
        let (registry, obs) = shard_obs(2);
        for _ in 0..5 {
            obs.trace(TraceEvent::new("span"));
        }
        let text = registry.render_prometheus();
        assert!(
            text.contains("gem_trace_dropped_total{shard=\"0\"} 3"),
            "exposition must carry the mirrored drop count:\n{text}"
        );
    }

    /// With observability disabled the ring never sees events, so the
    /// drop counter stays flat no matter how much is pushed.
    #[test]
    fn disabled_obs_never_counts_trace_drops() {
        let registry = Registry::new();
        let opts = ObsOptions { enabled: false, ring_capacity: 2, ..ObsOptions::default() };
        let obs = ShardObs::register(&registry, 1, &opts);
        for _ in 0..8 {
            obs.trace(TraceEvent::new("span"));
        }
        assert_eq!(obs.ring.len(), 0);
        assert_eq!(obs.trace_dropped.get(), 0);
    }
}

/// Fleet-wide admission statistics, readable without any shard
/// round-trip. The hot submit path only touches per-shard counters;
/// the fleet totals here are summed lazily at read time.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetStats {
    /// Scans submitted (accepted or not).
    pub submitted: u64,
    /// Scans admitted with an idle queue.
    pub accepts: u64,
    /// Scans admitted behind a backlog.
    pub queued: u64,
    /// Scans shed at admission (queue/quota/shutdown).
    pub sheds: u64,
    /// Scans shed because the premises is not registered.
    pub unknown_sheds: u64,
    /// Events dropped across all shards (sum of the per-shard counts).
    pub dropped_events: u64,
    /// Periodic-snapshot failures (satellite of the timer: failures are
    /// counted and traced, never silently discarded).
    pub snapshot_errors: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}
