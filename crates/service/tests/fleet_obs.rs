//! Admission accounting under concurrency: however many threads hammer
//! the fleet through [`FleetSubmitter`] handles, every submission must
//! be classified exactly once — `accepts + queued + sheds +
//! unknown_sheds == submitted` — and the per-shard drop counters must
//! sum to the fleet total. Runs across 1, 2 and 4 shards with a
//! randomized premises mix.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use gem_core::{Gem, GemConfig, GemSnapshot};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Fleet, FleetConfig, Monitor, MonitorConfig};
use gem_signal::SignalRecord;

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
                cfg.n_test_in = 10;
                cfg.n_test_out = 10;
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

fn restore_monitor(tenant: &Tenant) -> Monitor {
    let gem = GemSnapshot::from_json(&tenant.snapshot_json).unwrap().restore().unwrap();
    Monitor::new(gem, MonitorConfig::default())
}

/// A randomized concurrent-submission storm.
#[derive(Debug, Clone)]
struct Storm {
    shards: usize,
    n_premises: usize,
    /// Submitting threads.
    threads: usize,
    /// Submissions per thread; a fraction go to an unregistered id.
    per_thread: usize,
    /// Tiny queue to force queue/quota sheds alongside accepts.
    queue_per_shard: usize,
}

struct StormStrategy;

impl Strategy for StormStrategy {
    type Value = Storm;

    fn sample(&self, rng: &mut StdRng) -> Storm {
        Storm {
            shards: [1usize, 2, 4][rng.random_range(0..3usize)],
            n_premises: rng.random_range(1..4usize),
            threads: rng.random_range(2..5usize),
            per_thread: rng.random_range(20..60usize),
            queue_per_shard: [4usize, 16, 256][rng.random_range(0..3usize)],
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Concurrent submitters never lose or double-count an admission
    /// verdict, and `FleetStats` is internally consistent.
    #[test]
    fn concurrent_submissions_are_fully_accounted(storm in StormStrategy) {
        let tenants = tenants();
        let premises_ids: Vec<u64> =
            (0..storm.n_premises as u64).map(|i| i * 13 + 7).collect();
        let monitors: Vec<(u64, Monitor)> = premises_ids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, restore_monitor(&tenants[i])))
            .collect();
        let fleet = Fleet::spawn(
            monitors,
            FleetConfig {
                shards: storm.shards,
                queue_per_shard: storm.queue_per_shard,
                ..FleetConfig::default()
            },
        )
        .unwrap();

        let handles: Vec<_> = (0..storm.threads)
            .map(|t| {
                let submitter = fleet.submitter();
                let ids = premises_ids.clone();
                let stream: Vec<SignalRecord> =
                    tenants[t % tenants.len()].stream.clone();
                let per_thread = storm.per_thread;
                std::thread::spawn(move || {
                    for k in 0..per_thread {
                        // Every 7th submission targets an unregistered
                        // premises; the rest round-robin the real ones.
                        let premises = if k % 7 == 3 {
                            999_983
                        } else {
                            ids[k % ids.len()]
                        };
                        submitter.submit(premises, stream[k % stream.len()].clone());
                    }
                })
            })
            .collect();
        // Drain events while the storm runs so the shards never stall.
        while handles.iter().any(|h| !h.is_finished()) {
            while fleet.events().try_recv().is_ok() {}
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        for h in handles {
            h.join().unwrap();
        }
        fleet.flush().unwrap();
        while fleet.events().try_recv().is_ok() {}

        let stats = fleet.fleet_stats();
        let total = (storm.threads * storm.per_thread) as u64;
        prop_assert_eq!(stats.submitted, total, "every submission must be counted");
        prop_assert_eq!(
            stats.accepts + stats.queued + stats.sheds + stats.unknown_sheds,
            stats.submitted,
            "verdicts must partition the submissions: {:?}",
            stats
        );
        prop_assert!(stats.unknown_sheds > 0, "the unregistered premises must shed");
        prop_assert_eq!(stats.shards.len(), storm.shards);
        let per_shard_drops: u64 = stats.shards.iter().map(|s| s.dropped_events).sum();
        prop_assert_eq!(per_shard_drops, stats.dropped_events, "per-shard drops must sum");
        // After a flush with no submitters running, nothing is queued.
        for s in &stats.shards {
            prop_assert_eq!(s.queue_depth, 0, "flushed shard must be empty: {:?}", s);
        }

        // The per-premises statistics agree with the admission-side
        // verdict partition: accepted work was decided.
        let decided: usize = fleet
            .stats()
            .unwrap()
            .iter()
            .map(|(_, m)| m.scans)
            .sum();
        prop_assert_eq!(
            decided as u64,
            stats.accepts + stats.queued,
            "every admitted record must be decided after flush"
        );
        fleet.shutdown().unwrap();
    }
}
