//! The server-side deployment story: one premises served by a `Fleet`
//! (alert debouncing on a worker shard) with model persistence across
//! "restarts".
//!
//! ```text
//! cargo run --release --example monitoring_service
//! ```

use std::time::Duration;

use gem::core::{Gem, GemConfig};
use gem::rfsim::{Scenario, ScenarioConfig};
use gem::service::{
    Admission, Event, Fleet, FleetConfig, FleetEvent, Monitor, MonitorConfig, ShedReason,
};

/// The one premises this service monitors.
const PREMISES: u64 = 1;

fn main() {
    let mut cfg = ScenarioConfig::user(5);
    cfg.train_duration_s = 240.0;
    cfg.n_test_in = 80;
    cfg.n_test_out = 80;
    let dataset = Scenario::build(cfg).generate();

    // Day 0: initial setup and training.
    let gem = Gem::fit(GemConfig::default(), &dataset.train);
    let model_path = std::env::temp_dir().join("gem_monitoring_example.json");
    gem.save(&model_path).expect("save model");
    println!("model trained and persisted to {}", model_path.display());

    // The service starts (possibly days later, after a restart): restore
    // the model and serve it from a fleet of one premises on one shard.
    let gem = Gem::load(&model_path).expect("load model");
    let monitor = Monitor::new(gem, MonitorConfig { alert_after: 3, clear_after: 2 });
    let fleet = Fleet::spawn(
        vec![(PREMISES, monitor)],
        FleetConfig { shards: 1, queue_per_shard: 32, ..FleetConfig::default() },
    )
    .expect("spawn fleet");

    // Alert handler: consume events as they stream out.
    let mut decisions = 0;
    let mut handle = |FleetEvent { event, .. }: FleetEvent| match event {
        Event::Decision { .. } => decisions += 1,
        Event::AlertRaised { timestamp_s, consecutive_out } => {
            println!("t={timestamp_s:8.1}s  ALERT ({consecutive_out} consecutive outside scans)");
        }
        Event::AlertCleared { timestamp_s } => {
            println!("t={timestamp_s:8.1}s  alert cleared");
        }
    };

    // Device uplink: scans arrive one by one, and the handler catches up
    // before each. A full queue sheds the scan instead of blocking; the
    // uplink backs off briefly and retries.
    let mut retries = 0;
    for t in &dataset.test {
        loop {
            while let Ok(e) = fleet.events().try_recv() {
                handle(e);
            }
            match fleet.submit(PREMISES, t.record.clone()) {
                a if a.accepted() => break,
                Admission::Shed(ShedReason::QueueFull) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Admission::Shed(reason) => panic!("scan refused permanently: {reason:?}"),
                _ => unreachable!("non-shed admissions are accepted"),
            }
        }
    }
    fleet.flush().expect("flush");
    while let Ok(e) = fleet.events().try_recv() {
        handle(e);
    }
    println!("\n{decisions} decisions; the uplink retried {retries} shed submissions");

    // Graceful shutdown: reclaim the monitor and persist the (self-
    // enhanced) model for the next session.
    let (_, monitor) = fleet.shutdown().expect("shutdown").pop().expect("one premises");
    let stats = monitor.stats();
    println!(
        "session: {} scans, {} in / {} out, {} alerts, {} online model updates",
        stats.scans, stats.in_decisions, stats.out_decisions, stats.alerts, stats.model_updates
    );
    monitor.gem().save(&model_path).expect("save updated model");
    println!("updated model persisted; next restart resumes from here");
    let _ = std::fs::remove_file(&model_path);
}
