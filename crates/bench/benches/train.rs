//! Training-path benchmarks: the blocked matmul kernels and data-parallel
//! BiSAGE `fit()` throughput (positive pairs consumed per second),
//! sequential vs. worker pool.
//!
//! Run with `cargo bench -p gem-bench --bench train`. Each run appends one
//! JSON line to `BENCH_train.json` at the repository root; set
//! `GEM_NUM_THREADS` to size the pool (the
//! container may expose fewer cores than the pool has workers, in which
//! case the recorded speedup is bounded by the hardware, not the
//! implementation).
//!
//! Besides the seq-vs-pool pair, the run sweeps the pooled fit at 1, 2
//! and 4 threads (capped through `gem_par::thread_cap`) and records the
//! per-thread-count speedup table; on a machine with at least 4 cores
//! the 4-thread fit must clear 1.8x over single-threaded — the gate the
//! tree-reduced gradient merge is accountable to.
//!
//! With `--features count-allocs` the run also audits the allocation
//! budget of the training loop: a counting global allocator is windowed
//! around each optimizer step group (`BiSage::fit_instrumented`), and
//! the JSON line gains `allocs_per_step_seq` / `allocs_per_step_pool`
//! (median heap calls per post-warm-up step) plus `peak_bytes` for the
//! sequential fit. The sequential fit runs under `gem_par::thread_cap(1)`,
//! where every parallel region runs inline on the arena tape; the run
//! fails unless it allocates exactly 0 times per step.
//!
//! `GEM_BENCH_QUICK=1` shrinks criterion sampling for CI smoke runs.

use std::hint::black_box;
use std::io::Write;

use criterion::Criterion;

use gem_bench::allocs;
use gem_core::{BiSage, BiSageConfig, StepEvent};
use gem_graph::{BipartiteGraph, WeightFn};
use gem_nn::kernels;
use gem_nn::{init, Backend};
use gem_signal::rng::child_rng;
use gem_signal::{MacAddr, SignalRecord};

/// Records in clusters of 20 sharing a 10-MAC block, enough of them
/// that `fit` has real work per epoch.
fn cluster_graph(n: u64) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(WeightFn::default());
    for i in 0..n {
        g.add_record(&SignalRecord::from_pairs(
            i as f64,
            (0..10).map(|k| (MacAddr::from_raw((i / 20) * 10 + k), -50.0 - k as f32 * 3.0)),
        ));
    }
    g
}

fn fit_cfg() -> BiSageConfig {
    BiSageConfig {
        dim: 32,
        epochs: 1,
        batch_size: 128,
        sample_sizes: vec![8, 4],
        grad_accum: 4,
        ..BiSageConfig::default()
    }
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = child_rng(21, 22);
    // Non-square, non-multiple-of-tile shapes exercise the remainder
    // paths of the blocked kernels as well as the main tiles.
    let (m, k, n) = (250, 130, 70);
    let a = init::xavier_uniform(&mut rng, m, k);
    let b = init::xavier_uniform(&mut rng, k, n);
    let a_t = init::xavier_uniform(&mut rng, k, m);
    let b_t = init::xavier_uniform(&mut rng, n, k);

    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(40);
    group.bench_function("matmul_250x130x70", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
    });
    group.bench_function("matmul_tn_250x130x70", |bch| {
        bch.iter(|| black_box(black_box(&a_t).matmul_tn(black_box(&b))))
    });
    group.bench_function("matmul_nt_250x130x70", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul_nt(black_box(&b_t))))
    });
    group.finish();

    // Forced-scalar reference for the scalar-vs-SIMD speedup table,
    // measured at the kernel layer with an explicit backend (the
    // dispatcher is resolved once per process, so it cannot be flipped
    // mid-run). `nt` replicates the dispatched path's rhsᵀ pack.
    let mut group = c.benchmark_group("matmul_kernels_scalar");
    group.sample_size(40);
    let (mut out, mut packed) = (vec![0.0f32; m * n], vec![0.0f32; k * n]);
    group.bench_function("scalar_matmul_250x130x70", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            kernels::matmul_with(
                Backend::Scalar,
                black_box(a.data()),
                black_box(b.data()),
                &mut out,
                m,
                k,
                n,
            );
            black_box(out[0])
        })
    });
    group.bench_function("scalar_matmul_tn_250x130x70", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            kernels::matmul_tn_with(
                Backend::Scalar,
                black_box(a_t.data()),
                black_box(b.data()),
                &mut out,
                k,
                m,
                n,
            );
            black_box(out[0])
        })
    });
    group.bench_function("scalar_matmul_nt_250x130x70", |bch| {
        bch.iter(|| {
            let bt = black_box(b_t.data());
            for kk in 0..k {
                for j in 0..n {
                    packed[kk * n + j] = bt[j * k + kk];
                }
            }
            out.fill(0.0);
            kernels::matmul_with(Backend::Scalar, black_box(a.data()), &packed, &mut out, m, k, n);
            black_box(out[0])
        })
    });
    group.finish();
}

/// Positive pairs one `fit()` call consumes under `fit_cfg` (deterministic
/// for a fixed graph and seed).
fn pairs_per_fit(graph: &BipartiteGraph) -> usize {
    let mut model = BiSage::new(fit_cfg());
    model.fit(graph).pairs_seen
}

fn bench_fit(c: &mut Criterion) {
    let graph = cluster_graph(200);
    let mut group = c.benchmark_group("bisage_fit");
    group.sample_size(10);
    group.bench_function("fit_200_records_seq", |bch| {
        let _cap = gem_par::thread_cap(1);
        bch.iter(|| {
            let mut model = BiSage::new(fit_cfg());
            black_box(model.fit(black_box(&graph)))
        })
    });
    group.bench_function("fit_200_records_pool", |bch| {
        bch.iter(|| {
            let mut model = BiSage::new(fit_cfg());
            black_box(model.fit(black_box(&graph)))
        })
    });
    group.finish();
}

#[derive(serde::Serialize)]
struct ThreadSweepLine {
    threads: usize,
    median_ns: f64,
    /// Speedup over the 1-thread fit of the same sweep.
    speedup: f64,
}

/// Pooled fit wall time at fixed thread caps, each set with
/// `gem_par::thread_cap` — the one width control callers have, so the
/// sweep measures the real code path. On a machine whose pool has
/// fewer workers than the cap, the extra threads simply don't exist
/// and the curve flattens (the recorded `speedup` says so honestly).
fn sweep_threads(graph: &BipartiteGraph) -> Vec<ThreadSweepLine> {
    let iters = if std::env::var("GEM_BENCH_QUICK").as_deref() == Ok("1") { 2 } else { 5 };
    let mut lines: Vec<ThreadSweepLine> = Vec::new();
    let mut base_ns = f64::NAN;
    for &threads in &[1usize, 2, 4] {
        let _cap = gem_par::thread_cap(threads);
        let mut samples: Vec<f64> = (0..iters)
            .map(|_| {
                let mut model = BiSage::new(fit_cfg());
                let start = std::time::Instant::now();
                black_box(model.fit(black_box(graph)));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median_ns = samples[samples.len() / 2];
        if threads == 1 {
            base_ns = median_ns;
        }
        lines.push(ThreadSweepLine { threads, median_ns, speedup: base_ns / median_ns });
    }
    lines
}

/// Allocation audit of one instrumented fit on at most `threads` threads
/// (`None`: the whole pool): heap calls are windowed between
/// `GroupStart` and `GroupEnd` (one optimizer step each); the first
/// [`ALLOC_WARMUP_GROUPS`] windows warm the arenas, free-lists and
/// scratch buffers and are discarded, the rest are summarized by their
/// median. Returns `None` unless built with `--features count-allocs`.
fn measure_allocs(graph: &BipartiteGraph, threads: Option<usize>) -> Option<(u64, u64)> {
    const ALLOC_WARMUP_GROUPS: usize = 3;
    if !allocs::ENABLED {
        return None;
    }
    let _cap = threads.map(gem_par::thread_cap);
    let mut model = BiSage::new(fit_cfg());
    let mut mark = 0u64;
    let mut per_group: Vec<u64> = Vec::new();
    allocs::reset();
    model.fit_instrumented(graph, &mut |ev| match ev {
        StepEvent::GroupStart => mark = allocs::stats().allocs,
        StepEvent::GroupEnd => per_group.push(allocs::stats().allocs - mark),
    });
    let peak = allocs::stats().peak_bytes;
    let mut steady = per_group.split_off(ALLOC_WARMUP_GROUPS.min(per_group.len()));
    steady.sort_unstable();
    let median = steady.get(steady.len() / 2).copied().unwrap_or(0);
    let label = if threads == Some(1) { "seq" } else { "pool" };
    println!(
        "allocs/step ({label}): median {median} over {} steady groups, peak {peak} bytes",
        steady.len(),
    );
    Some((median, peak))
}

#[derive(serde::Serialize)]
struct KernelLine {
    name: String,
    median_ns: f64,
    min_ns: f64,
}

#[derive(serde::Serialize)]
struct KernelSpeedup {
    name: String,
    dispatched_median_ns: f64,
    scalar_median_ns: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct TrainBenchLine {
    bench: &'static str,
    pool_threads: usize,
    cores: usize,
    pairs_per_fit: usize,
    seq_median_ns: f64,
    seq_min_ns: f64,
    pool_median_ns: f64,
    pool_min_ns: f64,
    seq_pairs_per_sec: f64,
    pool_pairs_per_sec: f64,
    speedup: f64,
    /// Pooled-fit wall time at fixed thread caps (1, 2, 4) with the
    /// speedup of each over the 1-thread run.
    thread_sweep: Vec<ThreadSweepLine>,
    /// Median heap calls per post-warm-up optimizer step, sequential
    /// fit; `null` unless built with `--features count-allocs`, and
    /// gated at 0 when it is.
    allocs_per_step_seq: Option<u64>,
    /// Same audit with the worker pool (job dispatch boxes closures, so
    /// this one is small-but-nonzero by design).
    allocs_per_step_pool: Option<u64>,
    /// High-water mark of live heap bytes across the sequential fit.
    peak_bytes: Option<u64>,
    kernels: Vec<KernelLine>,
    /// Which kernel backend the dispatcher resolved for this run.
    kernel_backend: &'static str,
    /// Per-kernel dispatched-vs-forced-scalar A/B (speedup ≈ 1 when the
    /// dispatcher itself resolved to scalar).
    kernel_speedups: Vec<KernelSpeedup>,
}

fn append_results(
    c: &Criterion,
    pairs: usize,
    sweep: Vec<ThreadSweepLine>,
    seq_audit: Option<(u64, u64)>,
    pool_audit: Option<(u64, u64)>,
) {
    let find = |name: &str| {
        c.reports()
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing bench report {name}"))
    };
    let seq = find("fit_200_records_seq");
    let pool = find("fit_200_records_pool");
    let line = TrainBenchLine {
        bench: "train",
        pool_threads: gem_par::num_threads(),
        cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        pairs_per_fit: pairs,
        seq_median_ns: seq.median_ns,
        seq_min_ns: seq.min_ns,
        pool_median_ns: pool.median_ns,
        pool_min_ns: pool.min_ns,
        seq_pairs_per_sec: pairs as f64 / (seq.median_ns * 1e-9),
        pool_pairs_per_sec: pairs as f64 / (pool.median_ns * 1e-9),
        speedup: seq.median_ns / pool.median_ns,
        thread_sweep: sweep,
        allocs_per_step_seq: seq_audit.map(|(a, _)| a),
        allocs_per_step_pool: pool_audit.map(|(a, _)| a),
        peak_bytes: seq_audit.map(|(_, p)| p),
        kernels: c
            .reports()
            .iter()
            .filter(|r| r.group == "matmul_kernels")
            .map(|r| KernelLine { name: r.name.clone(), median_ns: r.median_ns, min_ns: r.min_ns })
            .collect(),
        kernel_backend: kernels::backend_name(),
        kernel_speedups: c
            .reports()
            .iter()
            .filter(|r| r.group == "matmul_kernels")
            .map(|r| {
                let scalar = find(&format!("scalar_{}", r.name));
                KernelSpeedup {
                    name: r.name.clone(),
                    dispatched_median_ns: r.median_ns,
                    scalar_median_ns: scalar.median_ns,
                    speedup: scalar.median_ns / r.median_ns,
                }
            })
            .collect(),
    };
    println!("kernel backend: {}", line.kernel_backend);
    for s in &line.kernel_speedups {
        println!(
            "  {:<24} dispatched {:>9.0} ns  scalar {:>9.0} ns  speedup {:.2}x",
            s.name, s.dispatched_median_ns, s.scalar_median_ns, s.speedup
        );
    }
    let json = serde_json::to_string(&line).expect("serialize bench line");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_train.json");
    writeln!(f, "{json}").expect("append BENCH_train.json");
    println!("appended results to {path}");
}

fn main() {
    // CI smoke mode: enough sampling to exercise every code path and the
    // JSON plumbing, without paying for statistically stable numbers.
    if std::env::var("GEM_BENCH_QUICK").as_deref() == Ok("1") {
        if std::env::var("CRITERION_SAMPLES").is_err() {
            std::env::set_var("CRITERION_SAMPLES", "2");
        }
        if std::env::var("CRITERION_MAX_SECS").is_err() {
            std::env::set_var("CRITERION_MAX_SECS", "2");
        }
    }
    let mut c = Criterion::default();
    bench_kernels(&mut c);
    let graph = cluster_graph(200);
    let pairs = pairs_per_fit(&graph);
    bench_fit(&mut c);
    let sweep = sweep_threads(&graph);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("thread sweep ({cores} cores):");
    for line in &sweep {
        println!(
            "  threads {:>2}  median {:>12.0} ns  speedup {:.2}x",
            line.threads, line.median_ns, line.speedup
        );
    }
    // Scaling gate: only meaningful when the hardware can actually run
    // 4 workers; on smaller machines the sweep is recorded but not gated.
    if cores >= 4 {
        let s4 = sweep
            .iter()
            .find(|l| l.threads == 4)
            .map(|l| l.speedup)
            .expect("sweep covers 4 threads");
        assert!(s4 >= 1.8, "4-thread fit speedup {s4:.2}x below the 1.8x scaling gate");
    }
    let seq_audit = measure_allocs(&graph, Some(1));
    if let Some((per_step, _)) = seq_audit {
        assert_eq!(per_step, 0, "the sequential fit allocated {per_step} times per warm step");
    }
    let pool_audit = measure_allocs(&graph, None);
    c.final_summary();
    append_results(&c, pairs, sweep, seq_audit, pool_audit);
}
