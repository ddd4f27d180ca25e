//! Property tests for fleet determinism: the sharded multi-tenant
//! runtime must make exactly the decisions a standalone [`Monitor`]
//! makes — bitwise, scores included — when both see the same records in
//! the same epoch grouping, across 1, 2 and 4 shards.
//!
//! Epoch boundaries are the contract: the fleet coalesces each premises'
//! backlog into `infer_batch` epochs of at most `max_batch` records.
//! Submitting while paused and flushing reproduces that grouping
//! deterministically, and the standalone reference applies the identical
//! chunking via `process_batch`.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use gem_core::{Gem, GemConfig, GemSnapshot};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Event, Fleet, FleetConfig, Monitor, MonitorConfig};
use gem_signal::SignalRecord;

/// One trained tenant: a snapshot (cheap to restore per case, expensive
/// to fit) plus its held-out record stream.
struct Tenant {
    snapshot_json: String,
    stream: Vec<SignalRecord>,
}

/// Three fitted tenants, trained once for the whole test binary.
fn tenants() -> &'static Vec<Tenant> {
    static TENANTS: OnceLock<Vec<Tenant>> = OnceLock::new();
    TENANTS.get_or_init(|| {
        (1..=3u32)
            .map(|user| {
                let mut cfg = ScenarioConfig::user(user);
                cfg.train_duration_s = 120.0;
                cfg.n_test_in = 12;
                cfg.n_test_out = 12;
                let ds = Scenario::build(cfg).generate();
                let gem = Gem::fit(GemConfig::default(), &ds.train);
                Tenant {
                    snapshot_json: GemSnapshot::capture(&gem).to_json().unwrap(),
                    stream: ds.test.iter().map(|t| t.record.clone()).collect(),
                }
            })
            .collect()
    })
}

fn restore(tenant: &Tenant) -> Gem {
    GemSnapshot::from_json(&tenant.snapshot_json).unwrap().restore().unwrap()
}

/// A randomized fleet run: shard count, tenant subset, coalescing cap
/// and chunked submission schedule.
#[derive(Debug, Clone)]
struct Plan {
    shards: usize,
    n_premises: usize,
    max_batch: usize,
    /// Records submitted per premises in each pause/flush cycle.
    chunk_sizes: Vec<usize>,
}

struct PlanStrategy;

impl Strategy for PlanStrategy {
    type Value = Plan;

    fn sample(&self, rng: &mut StdRng) -> Plan {
        let n_chunks = rng.random_range(1..4usize);
        Plan {
            shards: [1usize, 2, 4][rng.random_range(0..3usize)],
            n_premises: rng.random_range(1..4usize),
            max_batch: [1usize, 3, 32][rng.random_range(0..3usize)],
            chunk_sizes: (0..n_chunks).map(|_| rng.random_range(1..7usize)).collect(),
        }
    }
}

/// Decision-bearing events for one premises, in order.
fn fleet_events_of(events: &[gem_service::FleetEvent], premises: u64) -> Vec<Event> {
    events.iter().filter(|e| e.premises_id == premises).map(|e| e.event.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded fleet decisions are bitwise-equal to a standalone monitor
    /// fed the same records with the same epoch grouping.
    #[test]
    fn fleet_matches_standalone_bitwise(plan in PlanStrategy) {
        let tenants = tenants();
        let premises_ids: Vec<u64> = (0..plan.n_premises as u64).map(|i| i * 17 + 3).collect();

        // The fleet side.
        let monitors: Vec<(u64, Monitor)> = premises_ids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, Monitor::new(restore(&tenants[i]), MonitorConfig::default())))
            .collect();
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig {
                shards: plan.shards,
                max_batch: plan.max_batch,
                queue_per_shard: 256,
                dir: None,
                snapshot_interval: None,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let mut fleet_events = Vec::new();
        let mut cursors = vec![0usize; premises_ids.len()];
        for &chunk in &plan.chunk_sizes {
            fleet.pause();
            for (i, &p) in premises_ids.iter().enumerate() {
                let stream = &tenants[i].stream;
                for k in 0..chunk {
                    let record = stream[(cursors[i] + k) % stream.len()].clone();
                    prop_assert!(fleet.submit(p, record).accepted());
                }
                cursors[i] += chunk;
            }
            fleet.flush().unwrap();
            while let Ok(e) = fleet.events().try_recv() {
                fleet_events.push(e);
            }
            fleet.resume();
        }
        let returned = fleet.shutdown().unwrap();
        prop_assert_eq!(returned.len(), premises_ids.len());

        // The standalone reference: same records, same epoch chunking.
        for (i, &p) in premises_ids.iter().enumerate() {
            let mut reference = Monitor::new(restore(&tenants[i]), MonitorConfig::default());
            let stream = &tenants[i].stream;
            let mut expected = Vec::new();
            let mut cursor = 0usize;
            for &chunk in &plan.chunk_sizes {
                let records: Vec<SignalRecord> =
                    (0..chunk).map(|k| stream[(cursor + k) % stream.len()].clone()).collect();
                cursor += chunk;
                // A flushed backlog of `chunk` records drains as
                // sequential epochs of at most `max_batch`.
                for epoch in records.chunks(plan.max_batch) {
                    expected.extend(reference.process_batch(epoch));
                }
            }
            let got = fleet_events_of(&fleet_events, p);
            prop_assert_eq!(
                &got, &expected,
                "premises {} diverged (shards={}, max_batch={})",
                p, plan.shards, plan.max_batch
            );
            // `shutdown` hands back the learned state: the returned
            // monitor's model and statistics equal the reference's.
            let (id, monitor) = &returned[i];
            prop_assert_eq!(*id, p);
            prop_assert!(
                GemSnapshot::capture(monitor.gem()).to_image()
                    == GemSnapshot::capture(reference.gem()).to_image(),
                "premises {} returned a model that differs from the reference",
                p
            );
            prop_assert_eq!(monitor.stats(), reference.stats());
        }
    }

    /// Autonomous drain determinism: with `max_batch = 1` every record is
    /// its own epoch, so per-premises decisions must be bitwise-equal to
    /// the standalone monitor even when shards drain live (no pause) and
    /// submissions race in from one thread per premises. Epoch *timing*
    /// is up to each shard's own loop; decision *content and order* are
    /// not.
    #[test]
    fn live_concurrent_drain_matches_standalone(plan in PlanStrategy) {
        let tenants = tenants();
        let premises_ids: Vec<u64> = (0..plan.n_premises as u64).map(|i| i * 17 + 3).collect();
        let per_premises: usize = plan.chunk_sizes.iter().sum();

        let monitors: Vec<(u64, Monitor)> = premises_ids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, Monitor::new(restore(&tenants[i]), MonitorConfig::default())))
            .collect();
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig {
                shards: plan.shards,
                max_batch: 1,
                queue_per_shard: 256,
                dir: None,
                snapshot_interval: None,
                ..FleetConfig::default()
            },
        )
        .unwrap();

        // One racing submitter thread per premises, against live shards.
        std::thread::scope(|scope| {
            let handles: Vec<_> = premises_ids
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let submitter = fleet.submitter();
                    let stream = &tenants[i].stream;
                    scope.spawn(move || {
                        for k in 0..per_premises {
                            let record = stream[k % stream.len()].clone();
                            assert!(submitter.submit(p, record).accepted());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        fleet.flush().unwrap();
        let mut fleet_events = Vec::new();
        while let Ok(e) = fleet.events().try_recv() {
            fleet_events.push(e);
        }
        fleet.shutdown().unwrap();

        for (i, &p) in premises_ids.iter().enumerate() {
            let mut reference = Monitor::new(restore(&tenants[i]), MonitorConfig::default());
            let stream = &tenants[i].stream;
            let mut expected = Vec::new();
            for k in 0..per_premises {
                expected.extend(reference.process_batch(&[stream[k % stream.len()].clone()]));
            }
            let got = fleet_events_of(&fleet_events, p);
            prop_assert_eq!(
                &got, &expected,
                "premises {} diverged under live drain (shards={})",
                p, plan.shards
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cold-tier churn is invisible: a durable fleet capped at ONE
    /// resident premises per shard — so every multi-tenant chunk forces
    /// spill/hydrate cycles — snapshotted mid-stream, killed, and
    /// recovered, makes bitwise the same decisions as an unbounded
    /// resident fleet and a standalone monitor fed the same epochs. The
    /// per-premises registry series, which keep counting while a
    /// premises is cold, end equal to the shards' own statistics.
    #[test]
    fn hot_cap_churn_and_recovery_match_resident_and_standalone(plan in PlanStrategy) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        // One premises never churns: give the cap of 1 something to evict.
        let plan = Plan { n_premises: plan.n_premises.max(2), ..plan };
        let tenants = tenants();
        let premises_ids: Vec<u64> = (0..plan.n_premises as u64).map(|i| i * 17 + 3).collect();
        let dir = std::env::temp_dir().join(format!(
            "gem_churn_props_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FleetConfig {
            shards: 1,
            max_batch: plan.max_batch,
            queue_per_shard: 256,
            dir: Some(dir.clone()),
            snapshot_interval: None,
            hot_premises_per_shard: Some(1),
            ..FleetConfig::default()
        };
        // Records per premises submitted only to the recovered fleet.
        const TAIL: usize = 3;

        // Churn run: chunks, a snapshot after the first chunk, then a
        // kill. Epochs decided after the snapshot live only in the
        // journal.
        let monitors: Vec<(u64, Monitor)> = premises_ids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, Monitor::new(restore(&tenants[i]), MonitorConfig::default())))
            .collect();
        let fleet = Fleet::spawn(monitors, cfg.clone()).unwrap();
        let mut pre_events = Vec::new();
        let mut snap_idx = 0usize;
        let mut cursors = vec![0usize; premises_ids.len()];
        for (c, &chunk) in plan.chunk_sizes.iter().enumerate() {
            fleet.pause();
            for (i, &p) in premises_ids.iter().enumerate() {
                let stream = &tenants[i].stream;
                for k in 0..chunk {
                    let record = stream[(cursors[i] + k) % stream.len()].clone();
                    prop_assert!(fleet.submit(p, record).accepted());
                }
                cursors[i] += chunk;
            }
            fleet.flush().unwrap();
            while let Ok(e) = fleet.events().try_recv() {
                pre_events.push(e);
            }
            fleet.resume();
            if c == 0 {
                fleet.snapshot().unwrap();
                snap_idx = pre_events.len();
            }
        }
        let churned = |fleet: &Fleet| {
            let stats = fleet.fleet_stats();
            (stats.shards[0].evictions, stats.shards[0].hydrations)
        };
        let (evictions, hydrations) = churned(&fleet);
        prop_assert!(evictions > 0 && hydrations > 0, "no churn before the kill: {:?}", plan);
        fleet.abort();

        // Recovery replays exactly the post-snapshot decisions.
        let recovery = Fleet::recover(cfg.clone()).unwrap();
        for &p in &premises_ids {
            prop_assert_eq!(
                fleet_events_of(&recovery.replayed, p),
                fleet_events_of(&pre_events[snap_idx..], p),
                "replay diverged for premises {} (max_batch={})",
                p, plan.max_batch
            );
        }
        let fleet = recovery.fleet;
        fleet.pause();
        for (i, &p) in premises_ids.iter().enumerate() {
            let stream = &tenants[i].stream;
            for k in 0..TAIL {
                let record = stream[(cursors[i] + k) % stream.len()].clone();
                prop_assert!(fleet.submit(p, record).accepted());
            }
        }
        fleet.flush().unwrap();
        let mut tail_events = Vec::new();
        while let Ok(e) = fleet.events().try_recv() {
            tail_events.push(e);
        }
        let (evictions, hydrations) = churned(&fleet);
        prop_assert!(evictions > 0 && hydrations > 0, "no churn after recovery: {:?}", plan);
        let registry = fleet.registry();
        for (p, stats) in fleet.stats().unwrap() {
            let p = p.to_string();
            let series = |name: &str, outcome: Option<&str>| {
                let mut labels = vec![("premises", p.as_str())];
                labels.extend(outcome.map(|o| ("outcome", o)));
                registry.counter(name, &labels).get()
            };
            prop_assert_eq!(
                series("gem_monitor_decisions_total", Some("in")),
                stats.in_decisions as u64
            );
            prop_assert_eq!(
                series("gem_monitor_decisions_total", Some("out")),
                stats.out_decisions as u64
            );
            prop_assert_eq!(series("gem_monitor_epochs_total", None), stats.epochs);
            prop_assert_eq!(
                series("gem_monitor_self_updates_total", None),
                stats.model_updates as u64
            );
            prop_assert_eq!(series("gem_monitor_alerts_total", None), stats.alerts as u64);
        }
        fleet.shutdown().unwrap();

        // Fully-resident run: same chunks plus the tail, no cap, no
        // durability, no interruption.
        let chunks_plus_tail: Vec<usize> =
            plan.chunk_sizes.iter().copied().chain([TAIL]).collect();
        let monitors: Vec<(u64, Monitor)> = premises_ids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, Monitor::new(restore(&tenants[i]), MonitorConfig::default())))
            .collect();
        let resident = Fleet::spawn(
            monitors,
            FleetConfig {
                shards: 1,
                max_batch: plan.max_batch,
                queue_per_shard: 256,
                dir: None,
                snapshot_interval: None,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let mut resident_events = Vec::new();
        let mut res_cursors = vec![0usize; premises_ids.len()];
        for &chunk in &chunks_plus_tail {
            resident.pause();
            for (i, &p) in premises_ids.iter().enumerate() {
                let stream = &tenants[i].stream;
                for k in 0..chunk {
                    let record = stream[(res_cursors[i] + k) % stream.len()].clone();
                    prop_assert!(resident.submit(p, record).accepted());
                }
                res_cursors[i] += chunk;
            }
            resident.flush().unwrap();
            while let Ok(e) = resident.events().try_recv() {
                resident_events.push(e);
            }
            resident.resume();
        }
        resident.shutdown().unwrap();

        // All three agree, per premises, event for event.
        for (i, &p) in premises_ids.iter().enumerate() {
            let mut reference = Monitor::new(restore(&tenants[i]), MonitorConfig::default());
            let stream = &tenants[i].stream;
            let mut expected = Vec::new();
            let mut cursor = 0usize;
            for &chunk in &chunks_plus_tail {
                let records: Vec<SignalRecord> =
                    (0..chunk).map(|k| stream[(cursor + k) % stream.len()].clone()).collect();
                cursor += chunk;
                for epoch in records.chunks(plan.max_batch) {
                    expected.extend(reference.process_batch(epoch));
                }
            }
            let mut churn = fleet_events_of(&pre_events, p);
            churn.extend(fleet_events_of(&tail_events, p));
            prop_assert_eq!(
                &churn, &expected,
                "churned fleet diverged from standalone for premises {} (max_batch={})",
                p, plan.max_batch
            );
            let resident_got = fleet_events_of(&resident_events, p);
            prop_assert_eq!(
                &resident_got, &expected,
                "resident fleet diverged from standalone for premises {}",
                p
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
