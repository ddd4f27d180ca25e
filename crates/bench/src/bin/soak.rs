//! Cold-tier soak: can the fleet hold vastly more premises than fit in
//! memory?
//!
//! Builds ONE tiny seed model, manufactures a manifest in which 100k
//! premises (5k with `GEM_SOAK_QUICK=1`) all reference that seed
//! snapshot, then `Fleet::recover`s it — every premises spawns cold, so
//! startup reads one file no matter the tenant count. Round-robin
//! streaming over all premises with a small hot cap then forces
//! continuous spill/hydrate churn: every record lands on a cold
//! premises.
//!
//! Gates (panic = fail):
//! * **Cold spawn** — recovery replays nothing and RSS at spawn does not
//!   scale with the tenant count.
//! * **Bounded RSS** — growth over the whole run stays under a budget
//!   set by the hot tier, not the fleet size
//!   (`GEM_SOAK_RSS_MB` overrides).
//! * **Shed rate ≈ 0 / no drops** — a paced submitter (bounded
//!   outstanding records) never sees a shed, and no event is dropped.
//! * **No global pause** — p99 decision latency while snapshot rounds
//!   run concurrently stays within 2× of the snapshot-free p99 (plus a
//!   2 ms floor against sub-millisecond noise).
//!
//! Appends one tagged line to `BENCH_soak.json` at the repo root,
//! validated by `bench_schema` against `crates/bench/schemas/soak.json`.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use gem_core::{fnv1a64_hex, FleetManifest, Gem, GemConfig, GemSnapshot, PremisesEntry};
use gem_graph::WalkConfig;
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Event, Fleet, FleetConfig, Monitor, MonitorConfig, ObsOptions};
use gem_signal::SignalRecord;

/// Outstanding (admitted, undecided) records the submitter allows
/// before it blocks on the event channel. Well under the ingress bound,
/// so admission never sheds; well under the event channel capacity, so
/// nothing drops.
const MAX_OUTSTANDING: usize = 512;

fn quick() -> bool {
    std::env::var("GEM_SOAK_QUICK").as_deref() == Ok("1")
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Resident set size in MB, from `/proc/self/status` (Linux).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 =
                rest.trim().trim_end_matches("kB").trim().parse().expect("VmRSS value parses");
            return kb / 1024.0;
        }
    }
    panic!("no VmRSS line in /proc/self/status");
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Drains every event currently available; decisions retire outstanding
/// records and contribute their latency. Blocks only when `outstanding`
/// exceeds the pacing bound.
fn pump(fleet: &Fleet, outstanding: &mut usize, latencies: &mut Vec<f64>) {
    while let Ok(e) = fleet.events().try_recv() {
        if matches!(e.event, Event::Decision { .. }) {
            *outstanding -= 1;
            latencies.push(e.latency_s);
        }
    }
    while *outstanding > MAX_OUTSTANDING {
        let e = fleet
            .events()
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("fleet stopped deciding while records were outstanding");
        if matches!(e.event, Event::Decision { .. }) {
            *outstanding -= 1;
            latencies.push(e.latency_s);
        }
    }
}

#[derive(serde::Serialize)]
struct SoakLine {
    bench: &'static str,
    quick: bool,
    premises: usize,
    hot_cap: usize,
    shards: usize,
    max_batch: usize,
    records_per_premises: usize,
    cold_spawn_seconds: f64,
    records_per_sec: f64,
    rss_baseline_mb: f64,
    rss_spawn_mb: f64,
    rss_final_mb: f64,
    rss_growth_mb: f64,
    rss_budget_mb: f64,
    sheds: u64,
    dropped_events: u64,
    evictions: u64,
    hydrations: u64,
    snapshot_errors: u64,
    snapshot_rounds: usize,
    p50_off_ms: f64,
    p99_off_ms: f64,
    p50_on_ms: f64,
    p99_on_ms: f64,
}

fn main() {
    let n = env_usize("GEM_SOAK_PREMISES", if quick() { 5_000 } else { 100_000 });
    let hot_cap = env_usize("GEM_SOAK_HOT_CAP", 64);
    let shards = 4usize;
    let max_batch = 8usize;
    // The hot tier bounds model memory; the rest of the growth budget
    // covers per-tenant bookkeeping (sessions, gates, stored images, a
    // few hundred bytes each) plus allocator slack.
    let rss_budget_mb = env_usize("GEM_SOAK_RSS_MB", (200.0 + n as f64 * 0.004) as usize) as f64;

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/soak"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One tiny seed tenant shared by every premises: the soak measures
    // the tiering machinery, not model quality, so the model just has
    // to be real and cheap to (de)serialize.
    println!("soak: training seed model...");
    let mut scen = ScenarioConfig::user(1);
    scen.train_duration_s = 45.0;
    scen.n_test_in = 8;
    scen.n_test_out = 8;
    let ds = Scenario::build(scen).generate();
    let gcfg = GemConfig {
        embedding_dim: 8,
        rounds: 1,
        sample_sizes: vec![4],
        epochs: 2,
        walks: WalkConfig { walks_per_node: 2, walk_length: 4 },
        ..GemConfig::default()
    };
    let gem = Gem::fit(gcfg, &ds.train);
    let records: Vec<SignalRecord> = ds.test.iter().map(|t| t.record.clone()).collect();

    let seed_json = GemSnapshot::capture(&gem).to_json().unwrap();
    std::fs::write(dir.join("seed.json"), seed_json.as_bytes()).unwrap();
    let checksum = fnv1a64_hex(seed_json.as_bytes());
    println!("soak: seed snapshot {} bytes, checksum {checksum}", seed_json.len());
    let state = Monitor::new(gem, MonitorConfig::default()).state();
    let sidecar = serde::Serialize::serialize(&state);
    let entries: Vec<PremisesEntry> = (0..n as u64)
        .map(|i| PremisesEntry {
            premises_id: i + 1,
            snapshot_file: "seed.json".into(),
            snapshot_checksum: checksum.clone(),
            epochs: 0,
            sidecar: sidecar.clone(),
        })
        .collect();
    FleetManifest::new(entries).save(&dir).unwrap();

    let cfg = FleetConfig {
        shards,
        max_batch,
        queue_per_shard: 2048,
        dir: Some(dir.clone()),
        snapshot_interval: None,
        hot_premises_per_shard: Some(hot_cap),
        // Per-premises registry series would make the registry itself
        // scale with the fleet; at soak scale that is exactly the RSS
        // growth this bench exists to rule out.
        obs: ObsOptions { per_premises: false, ..ObsOptions::default() },
    };
    let rss_baseline = rss_mb();
    let t0 = Instant::now();
    let recovery = Fleet::recover(cfg).unwrap();
    let cold_spawn_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(recovery.replayed_epochs, 0, "a clean manifest must replay nothing");
    let fleet = recovery.fleet;
    let rss_spawn = rss_mb();
    println!(
        "soak: cold-spawned {n} premises in {cold_spawn_seconds:.2}s \
         (rss {rss_baseline:.1} -> {rss_spawn:.1} MB)"
    );

    // Phase A: one record to every premises, round-robin — every touch
    // hydrates a cold tenant and evicts another. No snapshots.
    let mut outstanding = 0usize;
    let mut lat_off: Vec<f64> = Vec::with_capacity(n);
    let stream_start = Instant::now();
    for i in 0..n as u64 {
        let record = records[i as usize % records.len()].clone();
        assert!(
            fleet.submit(i + 1, record).accepted(),
            "paced submission must never shed (premises {})",
            i + 1
        );
        outstanding += 1;
        pump(&fleet, &mut outstanding, &mut lat_off);
    }
    fleet.flush().unwrap();
    pump(&fleet, &mut outstanding, &mut lat_off);
    let phase_a = stream_start.elapsed().as_secs_f64();
    println!("soak: phase A (snapshots off) {n} records in {phase_a:.1}s, rss {:.1} MB", rss_mb());

    // Phase B: same workload with incremental snapshot rounds running
    // against the live stream. The rounds interleave with drains shard-
    // side; the gate is that tail latency does not double.
    let mut lat_on: Vec<f64> = Vec::with_capacity(n);
    let mut snapshot_rounds = 0usize;
    let snap_at: Vec<u64> = vec![n as u64 / 4, (3 * n as u64) / 4];
    let phase_b_start = Instant::now();
    for i in 0..n as u64 {
        if snap_at.contains(&i) {
            fleet.snapshot().unwrap();
            snapshot_rounds += 1;
        }
        let record = records[(i as usize + 1) % records.len()].clone();
        assert!(
            fleet.submit(i + 1, record).accepted(),
            "paced submission must never shed (premises {})",
            i + 1
        );
        outstanding += 1;
        pump(&fleet, &mut outstanding, &mut lat_on);
    }
    fleet.flush().unwrap();
    pump(&fleet, &mut outstanding, &mut lat_on);
    let phase_b = phase_b_start.elapsed().as_secs_f64();
    assert_eq!(outstanding, 0, "every record must resolve to a decision");
    let rss_final = rss_mb();
    println!(
        "soak: phase B ({snapshot_rounds} snapshot rounds) {n} records in {phase_b:.1}s, \
         rss {rss_final:.1} MB"
    );

    // --- gates ---
    let stats = fleet.fleet_stats();
    assert_eq!(stats.sheds, 0, "shed rate must be ~0 under paced load");
    assert_eq!(stats.unknown_sheds, 0);
    assert_eq!(stats.dropped_events, 0, "a drained consumer must lose nothing");
    assert_eq!(stats.snapshot_errors, 0);
    let (mut evictions, mut hydrations) = (0u64, 0u64);
    for s in &stats.shards {
        assert!(
            s.hot_premises as usize <= hot_cap,
            "hot tier must respect the cap after drains settle: {s:?}"
        );
        evictions += s.evictions;
        hydrations += s.hydrations;
    }
    assert!(
        hydrations as usize >= n,
        "round-robin over {n} premises with a cap of {hot_cap} must churn \
         (hydrations {hydrations})"
    );
    let rss_growth = rss_final - rss_baseline;
    assert!(
        rss_growth <= rss_budget_mb,
        "RSS must be bounded by the hot tier, not the fleet: \
         grew {rss_growth:.1} MB (budget {rss_budget_mb:.1} MB) over {n} premises"
    );

    lat_off.sort_by(|a, b| a.total_cmp(b));
    lat_on.sort_by(|a, b| a.total_cmp(b));
    let (p50_off, p99_off) = (percentile(&lat_off, 0.50), percentile(&lat_off, 0.99));
    let (p50_on, p99_on) = (percentile(&lat_on, 0.50), percentile(&lat_on, 0.99));
    println!(
        "soak: p50/p99 off {:.2}/{:.2} ms, on {:.2}/{:.2} ms",
        p50_off * 1e3,
        p99_off * 1e3,
        p50_on * 1e3,
        p99_on * 1e3
    );
    // 2 ms floor: when the snapshot-off p99 is itself sub-millisecond,
    // scheduler jitter dwarfs the 2x ratio.
    let p99_bound = (2.0 * p99_off).max(p99_off + 0.002);
    assert!(
        p99_on <= p99_bound,
        "incremental snapshots must not pause the world: \
         p99 {:.2} ms with snapshots vs {:.2} ms without (bound {:.2} ms)",
        p99_on * 1e3,
        p99_off * 1e3,
        p99_bound * 1e3
    );

    let records_per_sec = (2 * n) as f64 / (phase_a + phase_b);
    fleet.shutdown().unwrap();

    let line = SoakLine {
        bench: "soak",
        quick: quick(),
        premises: n,
        hot_cap,
        shards,
        max_batch,
        records_per_premises: 2,
        cold_spawn_seconds,
        records_per_sec,
        rss_baseline_mb: rss_baseline,
        rss_spawn_mb: rss_spawn,
        rss_final_mb: rss_final,
        rss_growth_mb: rss_growth,
        rss_budget_mb,
        sheds: stats.sheds,
        dropped_events: stats.dropped_events,
        evictions,
        hydrations,
        snapshot_errors: stats.snapshot_errors,
        snapshot_rounds,
        p50_off_ms: p50_off * 1e3,
        p99_off_ms: p99_off * 1e3,
        p50_on_ms: p50_on * 1e3,
        p99_on_ms: p99_on * 1e3,
    };
    let json = serde_json::to_string(&line).expect("serialize soak line");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soak.json");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .expect("open BENCH_soak.json");
    writeln!(f, "{json}").expect("append BENCH_soak.json");
    println!("appended results to {out}");

    let _ = std::fs::remove_dir_all(&dir);
    println!("soak: PASS ({n} premises, hot cap {hot_cap}, rss growth {rss_growth:.1} MB)");
}
