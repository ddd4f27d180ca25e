//! Fleet scaling benchmark: aggregate decision throughput of the
//! sharded multi-tenant runtime versus a standalone single-premises
//! [`Monitor`], across shard counts, with queueing-latency percentiles
//! and the admission shed rate. Submission is concurrent — one
//! [`gem_service::FleetSubmitter`] thread per premises — so the
//! lock-free ingress path and the autonomous per-shard drain loops are
//! what is actually measured, not a single ingest thread serializing
//! everything in front of them.
//!
//! Run with `cargo bench -p gem-bench --bench fleet`. Each run appends
//! one JSON line to `BENCH_fleet.json` at the repository root.
//!
//! The scaling gate is hardware-aware: shards are threads, so at `S`
//! shards on `C` cores the fleet must deliver
//! `speedup(S) >= 0.7 * min(S, C)` (70% parallel efficiency of the
//! core-limited ideal) whenever the machine has at least 2 cores. On a
//! single core the gate degrades to half of parity — there is nothing
//! to scale with, but coalescing into fused `infer_batch` epochs must
//! still keep the fleet in the same league as the record-at-a-time
//! baseline. Per-shard busy/idle fractions (from the worker loops' own
//! accounting) land in the JSON so a failed gate shows *where* the
//! time went.
//!
//! `GEM_FLEET_SHARDS=1,2` restricts the swept shard counts (CI smoke);
//! the gates then apply to the largest count actually run.
//!
//! Three observability gates ride along: the decision-latency
//! histograms exported on the fleet registry must agree with the
//! bench's own externally sorted percentiles (within one log2 bucket —
//! the histogram's stated resolution), running with metrics fully on
//! must cost < 3% throughput versus metrics off, and request tracing
//! at a production-like 1% head-sampling rate must cost < 3% versus
//! tracing fully off (same interleaved best-of-N protocol, with the
//! within-mode spread reported as the noise floor).
//!
//! `GEM_BENCH_QUICK=1` shrinks the workload for CI smoke runs.

use std::io::Write;
use std::time::{Duration, Instant};

use gem_core::{Gem, GemConfig, GemSnapshot};
use gem_obs::{interpolate_quantile_seeded, Histogram, MetricValue, Registry, HISTOGRAM_BUCKETS};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Event, Fleet, FleetConfig, FleetEvent, Monitor, MonitorConfig, ObsOptions};
use gem_signal::SignalRecord;

const N_PREMISES: usize = 4;
const MAX_BATCH: usize = 32;
const QUEUE_PER_SHARD: usize = 256;

fn quick() -> bool {
    std::env::var("GEM_BENCH_QUICK").as_deref() == Ok("1")
}

struct Tenant {
    snapshot_json: String,
    stream: Vec<SignalRecord>,
}

/// Trains one model per premises and snapshots it, so every shard-count
/// run restores identical model state.
fn tenants() -> Vec<Tenant> {
    (1..=N_PREMISES as u32)
        .map(|user| {
            let mut cfg = ScenarioConfig::user(user);
            cfg.train_duration_s = 120.0;
            cfg.n_test_in = 40;
            cfg.n_test_out = 10;
            let ds = Scenario::build(cfg).generate();
            let gem = Gem::fit(GemConfig::default(), &ds.train);
            Tenant {
                snapshot_json: GemSnapshot::capture(&gem).to_json().unwrap(),
                stream: ds.test.iter().map(|t| t.record.clone()).collect(),
            }
        })
        .collect()
}

fn restore_monitor(tenant: &Tenant) -> Monitor {
    let gem = GemSnapshot::from_json(&tenant.snapshot_json).unwrap().restore().unwrap();
    Monitor::new(gem, MonitorConfig::default())
}

/// One fleet run: submit `records_per_premises` scans round-robin across
/// premises (retrying sheds with a tiny backoff so every record lands),
/// then flush and measure.
struct RunResult {
    records_per_sec: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    shed_rate: f64,
    /// Registry-side interpolated quantile estimates from the merged
    /// per-shard decision-latency histograms. 0 with metrics off.
    hist_p50_ms: f64,
    hist_p99_ms: f64,
    /// Per-shard `busy / (busy + idle)` from the worker loops' own
    /// nanosecond accounting. All zero with metrics off.
    busy_fractions: Vec<f64>,
    idle_fractions: Vec<f64>,
}

/// Merges the per-shard `gem_shard_decision_latency_seconds` histograms
/// and estimates the `q`-quantile in nanoseconds with the registry's
/// log-linear interpolated estimator, seeded with the min/max observed
/// across shards so the estimate never leaves the measured range. The
/// estimate stays inside the rank's bucket, so the one-bucket agreement
/// gate below is unaffected — but p50 and p99 no longer collapse onto
/// the same bucket upper bound.
fn merged_latency_quantile(registry: &Registry, q: f64) -> Option<f64> {
    let mut merged = [0u64; HISTOGRAM_BUCKETS];
    let (mut min, mut max): (Option<u64>, Option<u64>) = (None, None);
    for (name, _, value) in registry.snapshot() {
        if name == "gem_shard_decision_latency_seconds" {
            if let MetricValue::Histogram(h) = value {
                for (m, b) in merged.iter_mut().zip(h.buckets.iter()) {
                    *m += *b;
                }
                min = match (min, h.min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                max = match (max, h.max) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
        }
    }
    interpolate_quantile_seeded(&merged, q, min, max)
}

/// The observability configurations the bench sweeps: `metrics_off`
/// turns everything off, `metrics_on` is the default production config
/// (histograms + rings, tail-only trace capture), and the trace modes
/// pin the head-sampling rate for the tracing-overhead gate.
fn obs_mode(enabled: bool, trace_sample: f64, trace_tail_ms: f64) -> ObsOptions {
    ObsOptions { enabled, trace_sample, trace_tail_ms, ..ObsOptions::default() }
}

fn run_fleet(
    tenants: &[Tenant],
    shards: usize,
    records_per_premises: usize,
    obs: ObsOptions,
) -> RunResult {
    // Histogram agreement checks only make sense with metrics on.
    let metrics_on = obs.enabled;
    let monitors: Vec<(u64, Monitor)> =
        tenants.iter().enumerate().map(|(i, t)| (i as u64 + 1, restore_monitor(t))).collect();
    let fleet = Fleet::spawn(
        monitors,
        FleetConfig {
            shards,
            queue_per_shard: QUEUE_PER_SHARD,
            max_batch: MAX_BATCH,
            dir: None,
            snapshot_interval: None,
            hot_premises_per_shard: None,
            obs,
        },
    )
    .unwrap();
    let total = records_per_premises * tenants.len();
    // One submitter thread per premises: concurrent ingress is the
    // contract the lock-free admission path is built for, and with a
    // single submitting thread the fleet could never beat one core.
    // Sheds retry with a tiny backoff so every record lands.
    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<(u64, u64)>> = tenants
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let submitter = fleet.submitter();
            let stream = tenant.stream.clone();
            std::thread::spawn(move || {
                let (mut attempts, mut sheds) = (0u64, 0u64);
                for k in 0..records_per_premises {
                    let record = stream[k % stream.len()].clone();
                    loop {
                        attempts += 1;
                        if submitter.submit(i as u64 + 1, record.clone()).accepted() {
                            break;
                        }
                        sheds += 1;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                (attempts, sheds)
            })
        })
        .collect();
    // Drain decisions while the submitters run: the event channel is
    // bounded and shards drop (and count) overflow rather than block,
    // so a consumer that never drains would lose latency samples.
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(total);
    let drain = |latencies_ms: &mut Vec<f64>| {
        while let Ok(FleetEvent { event, latency_s, .. }) = fleet.events().try_recv() {
            if matches!(event, Event::Decision { .. }) {
                latencies_ms.push(latency_s * 1e3);
            }
        }
    };
    while handles.iter().any(|h| !h.is_finished()) {
        drain(&mut latencies_ms);
        std::thread::sleep(Duration::from_micros(100));
    }
    let (mut attempts, mut sheds) = (0u64, 0u64);
    for h in handles {
        let (a, s) = h.join().expect("submitter thread");
        attempts += a;
        sheds += s;
    }
    fleet.flush().unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    drain(&mut latencies_ms);
    let stats = fleet.fleet_stats();
    assert_eq!(stats.dropped_events, 0, "benchmark consumer must keep up with the fleet");
    assert_eq!(latencies_ms.len(), total, "every admitted record must be decided");
    let fraction = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let busy_fractions: Vec<f64> =
        stats.shards.iter().map(|s| fraction(s.busy_ns, s.busy_ns + s.idle_ns)).collect();
    let idle_fractions: Vec<f64> =
        stats.shards.iter().map(|s| fraction(s.idle_ns, s.busy_ns + s.idle_ns)).collect();
    let registry = fleet.registry();
    fleet.shutdown().unwrap();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    let (mut hist_p50_ms, mut hist_p99_ms) = (0.0, 0.0);
    if metrics_on {
        // The histograms saw the same per-decision latencies the events
        // carried (recorded in ns by the shard), so the registry-side
        // quantile must land in the same log2 bucket as the externally
        // sorted percentile — one bucket of slack for boundary values.
        for (q, external_ms, out) in
            [(0.50, pct(0.50), &mut hist_p50_ms), (0.99, pct(0.99), &mut hist_p99_ms)]
        {
            let estimate_ns =
                merged_latency_quantile(&registry, q).expect("histograms must have samples");
            *out = estimate_ns / 1e6;
            let external_bucket = Histogram::bucket_index((external_ms * 1e6) as u64);
            let estimate_bucket = Histogram::bucket_index(estimate_ns.round() as u64);
            assert!(
                external_bucket.abs_diff(estimate_bucket) <= 1,
                "histogram p{} ({estimate_ns:.0} ns, bucket {estimate_bucket}) must agree with \
                 the external measurement ({external_ms} ms, bucket {external_bucket}) \
                 within one bucket",
                (q * 100.0) as u32,
            );
        }
    }
    RunResult {
        records_per_sec: total as f64 / elapsed,
        p50_latency_ms: pct(0.50),
        p99_latency_ms: pct(0.99),
        shed_rate: sheds as f64 / attempts as f64,
        hist_p50_ms,
        hist_p99_ms,
        busy_fractions,
        idle_fractions,
    }
}

/// Record-at-a-time single-Monitor baseline on one premises' stream.
fn run_baseline(tenant: &Tenant, records: usize) -> f64 {
    let mut monitor = restore_monitor(tenant);
    let start = Instant::now();
    for k in 0..records {
        monitor.process(&tenant.stream[k % tenant.stream.len()]);
    }
    records as f64 / start.elapsed().as_secs_f64()
}

#[derive(serde::Serialize)]
struct ShardLine {
    shards: usize,
    records_per_sec: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    hist_p50_latency_ms: f64,
    hist_p99_latency_ms: f64,
    shed_rate: f64,
    speedup_vs_baseline: f64,
    /// Per-shard busy fraction `busy / (busy + idle)` from the worker
    /// loops' own accounting — where a failed scaling gate lost its
    /// time.
    busy_fractions: Vec<f64>,
    idle_fractions: Vec<f64>,
}

#[derive(serde::Serialize)]
struct FleetBenchLine {
    bench: &'static str,
    cores: usize,
    premises: usize,
    records_per_premises: usize,
    max_batch: usize,
    queue_per_shard: usize,
    baseline_records_per_sec: f64,
    shard_results: Vec<ShardLine>,
    required_speedup: f64,
    measured_speedup: f64,
    /// `measured_speedup / min(max_shards, cores)` — 1.0 is perfect
    /// scaling against the core-limited ideal.
    scaling_efficiency: f64,
    metrics_on_records_per_sec: f64,
    metrics_off_records_per_sec: f64,
    /// Best-of-N overhead, clamped at zero (negative raw overhead is
    /// scheduler noise, not a real negative cost).
    metrics_overhead_pct: f64,
    /// Unclamped best-of-N overhead, for honesty about the measurement.
    metrics_overhead_raw_pct: f64,
    /// Worst within-mode relative spread across the interleaved
    /// best-of-N samples — the run's noise floor.
    metrics_noise_floor_pct: f64,
    /// Tracing-overhead gate: throughput with request tracing at a
    /// production-like 1% head-sampling rate versus tracing fully off
    /// (head 0, tail capture disabled), both with metrics on. Same
    /// interleaved best-of-N protocol as the metrics gate.
    tracing_on_records_per_sec: f64,
    tracing_off_records_per_sec: f64,
    tracing_overhead_pct: f64,
    tracing_overhead_raw_pct: f64,
    tracing_noise_floor_pct: f64,
}

/// Swept shard counts: `GEM_FLEET_SHARDS=1,2` overrides the default
/// `1,2,4` (CI smoke boxes run the small counts only).
fn shard_counts() -> Vec<usize> {
    match std::env::var("GEM_FLEET_SHARDS") {
        Ok(v) => {
            let counts: Vec<usize> = v
                .split(',')
                .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad GEM_FLEET_SHARDS: {v}")))
                .collect();
            assert!(!counts.is_empty(), "GEM_FLEET_SHARDS must name at least one count");
            counts
        }
        Err(_) => vec![1, 2, 4],
    }
}

fn main() {
    let records_per_premises = if quick() { 48 } else { 240 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("training {N_PREMISES} tenants...");
    let tenants = tenants();
    let baseline = run_baseline(&tenants[0], records_per_premises);
    println!("baseline single-monitor: {baseline:.1} records/s");
    let counts = shard_counts();
    let mut shard_results = Vec::new();
    for &shards in &counts {
        let r = run_fleet(&tenants, shards, records_per_premises, ObsOptions::default());
        println!(
            "shards={shards}: {:.1} records/s, p50 {:.2} ms (hist {:.2}), p99 {:.2} ms \
             (hist {:.2}), shed rate {:.4}, busy {:?}",
            r.records_per_sec,
            r.p50_latency_ms,
            r.hist_p50_ms,
            r.p99_latency_ms,
            r.hist_p99_ms,
            r.shed_rate,
            r.busy_fractions.iter().map(|b| (b * 100.0).round() / 100.0).collect::<Vec<f64>>(),
        );
        shard_results.push(ShardLine {
            shards,
            speedup_vs_baseline: r.records_per_sec / baseline,
            records_per_sec: r.records_per_sec,
            p50_latency_ms: r.p50_latency_ms,
            p99_latency_ms: r.p99_latency_ms,
            hist_p50_latency_ms: r.hist_p50_ms,
            hist_p99_latency_ms: r.hist_p99_ms,
            shed_rate: r.shed_rate,
            busy_fractions: r.busy_fractions,
            idle_fractions: r.idle_fractions,
        });
    }
    let max_shards = *counts.iter().max().unwrap();
    let measured = shard_results.last().unwrap().speedup_vs_baseline;
    // Hardware-aware gate: with at least 2 cores, S shards must deliver
    // 70% parallel efficiency of the core-limited ideal min(S, cores).
    // On a single core there is nothing to scale with; the fleet only
    // has to stay in the same league as the record-at-a-time baseline.
    let ideal = max_shards.min(cores) as f64;
    let required = if cores >= 2 { 0.7 * ideal } else { 0.5 };
    let efficiency = measured / ideal;
    println!(
        "speedup at {max_shards} shards: {measured:.2}x \
         (required {required:.2}x on {cores} cores, efficiency {efficiency:.2})"
    );
    assert!(
        measured >= required,
        "fleet at {max_shards} shards must be >={required:.2}x the single-monitor baseline \
         on {cores} cores, measured {measured:.2}x"
    );
    // Metrics overhead gate: full observability (histograms + span
    // timing + trace rings) versus metrics off. The true per-record
    // cost is a handful of relaxed atomics against ~100 µs of
    // inference, so the gate's enemy is scheduler noise, not metrics:
    // measure on a floor-sized workload (a quick run is otherwise tens
    // of milliseconds), run one shared discarded warmup so neither mode
    // pays first-run cache/allocator warmup, interleave off/on pairs,
    // and take best-of-N on both sides. The within-mode spread is
    // reported as the noise floor, and the raw difference is clamped at
    // zero — "metrics made it faster" is noise, not a negative cost.
    let overhead_records = records_per_premises.max(240);
    let pairs = if quick() { 3 } else { 4 };
    // Shared warmup, discarded.
    run_fleet(&tenants, max_shards, overhead_records, ObsOptions::default());
    let (mut off_samples, mut on_samples) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        off_samples.push(
            run_fleet(&tenants, max_shards, overhead_records, obs_mode(false, 0.0, 0.0))
                .records_per_sec,
        );
        on_samples.push(
            run_fleet(&tenants, max_shards, overhead_records, ObsOptions::default())
                .records_per_sec,
        );
    }
    let best = |s: &[f64]| s.iter().copied().fold(0f64, f64::max);
    let worst = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let (best_off, best_on) = (best(&off_samples), best(&on_samples));
    let noise_floor_pct = ((best_off - worst(&off_samples)) / best_off)
        .max((best_on - worst(&on_samples)) / best_on)
        * 100.0;
    let overhead_raw_pct = (best_off - best_on) / best_off * 100.0;
    let overhead_pct = overhead_raw_pct.max(0.0);
    println!(
        "metrics overhead at {max_shards} shards: off {best_off:.1} rec/s, on {best_on:.1} rec/s \
         (raw {overhead_raw_pct:+.2}%, clamped {overhead_pct:.2}%, \
         noise floor {noise_floor_pct:.2}%)"
    );
    assert!(
        overhead_pct < 3.0,
        "metrics-on throughput must be within 3% of metrics-off \
         (off {best_off:.1} rec/s, on {best_on:.1} rec/s, overhead {overhead_pct:.2}%)"
    );
    // Tracing overhead gate: per-record span stamping + retention at a
    // production-like 1% head-sampling rate, versus tracing fully off
    // (head rate 0 and tail capture disabled, so the sampler is inert
    // and the per-record fast path takes no stamps at all). Metrics
    // stay on in both modes — this isolates the tracing cost from the
    // histogram cost the previous gate already bounded. Same protocol:
    // interleaved pairs, best-of-N, spread as the noise floor, raw
    // difference clamped at zero.
    let (mut trace_off_samples, mut trace_on_samples) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        trace_off_samples.push(
            run_fleet(&tenants, max_shards, overhead_records, obs_mode(true, 0.0, 0.0))
                .records_per_sec,
        );
        trace_on_samples.push(
            run_fleet(&tenants, max_shards, overhead_records, obs_mode(true, 0.01, 250.0))
                .records_per_sec,
        );
    }
    let (best_trace_off, best_trace_on) = (best(&trace_off_samples), best(&trace_on_samples));
    let tracing_noise_floor_pct = ((best_trace_off - worst(&trace_off_samples)) / best_trace_off)
        .max((best_trace_on - worst(&trace_on_samples)) / best_trace_on)
        * 100.0;
    let tracing_overhead_raw_pct = (best_trace_off - best_trace_on) / best_trace_off * 100.0;
    let tracing_overhead_pct = tracing_overhead_raw_pct.max(0.0);
    println!(
        "tracing overhead at {max_shards} shards: off {best_trace_off:.1} rec/s, \
         1% sampled {best_trace_on:.1} rec/s (raw {tracing_overhead_raw_pct:+.2}%, \
         clamped {tracing_overhead_pct:.2}%, noise floor {tracing_noise_floor_pct:.2}%)"
    );
    assert!(
        tracing_overhead_pct < 3.0,
        "tracing at 1% sampling must be within 3% of tracing-off \
         (off {best_trace_off:.1} rec/s, on {best_trace_on:.1} rec/s, \
         overhead {tracing_overhead_pct:.2}%)"
    );
    let line = FleetBenchLine {
        bench: "fleet",
        cores,
        premises: N_PREMISES,
        records_per_premises,
        max_batch: MAX_BATCH,
        queue_per_shard: QUEUE_PER_SHARD,
        baseline_records_per_sec: baseline,
        shard_results,
        required_speedup: required,
        measured_speedup: measured,
        scaling_efficiency: efficiency,
        metrics_on_records_per_sec: best_on,
        metrics_off_records_per_sec: best_off,
        metrics_overhead_pct: overhead_pct,
        metrics_overhead_raw_pct: overhead_raw_pct,
        metrics_noise_floor_pct: noise_floor_pct,
        tracing_on_records_per_sec: best_trace_on,
        tracing_off_records_per_sec: best_trace_off,
        tracing_overhead_pct,
        tracing_overhead_raw_pct,
        tracing_noise_floor_pct,
    };
    let json = serde_json::to_string(&line).expect("serialize bench line");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_fleet.json");
    writeln!(f, "{json}").expect("append BENCH_fleet.json");
    println!("appended results to {path}");
}
