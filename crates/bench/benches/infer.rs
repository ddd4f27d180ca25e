//! Streaming-inference benchmarks: the tape-free engine against the
//! tape-based reference on single records (a batch of one), plus the
//! batch path over the whole streamed set, and a steady-state
//! allocation audit.
//!
//! Run with `cargo bench -p gem-bench --bench infer`. Each run appends
//! one JSON line to `BENCH_infer.json` at the repository root.
//!
//! With `--features count-allocs` the run additionally audits a warm
//! engine on single records — the batch path's sequential branch — and
//! **fails** if it performs any heap allocation: this is the zero-alloc
//! regression gate wired into CI's bench-smoke job. The engine must also
//! be at least 3x faster than the tape path on the single-record
//! benchmark; the run fails otherwise.
//!
//! `GEM_BENCH_QUICK=1` shrinks criterion sampling for CI smoke runs.

use std::hint::black_box;
use std::io::Write;

use criterion::Criterion;

use gem_bench::allocs;
use gem_core::{BiSage, BiSageConfig, EnhancedDetector, InferenceEngine};
use gem_graph::{BipartiteGraph, NodeId, RecordId, WeightFn};
use gem_signal::rng::child_rng;
use gem_signal::{MacAddr, SignalRecord};

const N_TRAIN: u64 = 300;
const N_STREAMED: usize = 150;

/// Training records in clusters of 20 sharing a 10-MAC block (same shape
/// as the train bench). Cluster sizes keep every MAC neighborhood under
/// the inference cap, so the capped-sort path never runs during the
/// steady-state audit.
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

/// A streamed scan from one of the training clusters: 8 of its 10 MACs
/// at perturbed signal strengths.
fn streamed_record(i: usize) -> SignalRecord {
    let cluster = (i as u64) % (N_TRAIN / 20);
    SignalRecord::from_pairs(
        (N_TRAIN as usize + i) as f64,
        (0..8).map(|k| {
            (MacAddr::from_raw(cluster * 10 + k), -52.0 - k as f32 * 3.0 - (i % 5) as f32)
        }),
    )
}

fn model_cfg() -> BiSageConfig {
    BiSageConfig {
        dim: 32,
        epochs: 1,
        batch_size: 128,
        sample_sizes: vec![8, 4],
        ..BiSageConfig::default()
    }
}

struct Fixture {
    model: BiSage,
    graph: BipartiteGraph,
    targets: Vec<RecordId>,
    trusted: Vec<bool>,
}

/// Fits the model, streams `N_STREAMED` in-premises records into the
/// graph and initializes their rows — the steady state a long-running
/// monitor sits in.
fn fixture() -> Fixture {
    let mut graph = cluster_graph(N_TRAIN);
    let mut model = BiSage::new(model_cfg());
    model.fit(&graph);
    let mut rng = child_rng(7, 0x1FE2);
    let mut trusted = vec![true; graph.n_records()];
    let mut targets = Vec::with_capacity(N_STREAMED);
    for i in 0..N_STREAMED {
        let rid = graph.add_record(&streamed_record(i));
        trusted.push(true);
        let bits: &[bool] = &trusted;
        let filter = move |r: RecordId| bits[r.0 as usize];
        model.ensure_rows_for_record(&graph, rid, &mut rng, Some(&filter));
        targets.push(rid);
    }
    Fixture { model, graph, targets, trusted }
}

fn bench_paths(c: &mut Criterion, fx: &Fixture) {
    let mut group = c.benchmark_group("streaming_inference");
    group.sample_size(30);

    // Tape-based reference: per-record graph build + forward.
    {
        let mut idx = 0usize;
        group.bench_function("tape_single", |b| {
            b.iter(|| {
                let rid = fx.targets[idx % fx.targets.len()];
                idx += 1;
                let bits: &[bool] = &fx.trusted;
                let wrapped = move |r: RecordId| r == rid || bits[r.0 as usize];
                black_box(fx.model.embed_nodes_filtered(
                    black_box(&fx.graph),
                    &[NodeId::Record(rid)],
                    Some(&wrapped),
                ))
            })
        });
    }

    // Tape-free engine on warm scratch: each record is a batch of one.
    {
        let mut engine = InferenceEngine::new();
        let mut out = Vec::new();
        let mut idx = 0usize;
        group.bench_function("engine_single", |b| {
            b.iter(|| {
                let rid = fx.targets[idx % fx.targets.len()];
                idx += 1;
                engine.embed_record_into(
                    black_box(&fx.model),
                    black_box(&fx.graph),
                    rid,
                    Some(&fx.trusted),
                    &mut out,
                );
                black_box(&out);
            })
        });
    }

    // Batch path over the whole streamed set.
    {
        let mut engine = InferenceEngine::new();
        group.bench_function("engine_batch", |b| {
            b.iter(|| {
                black_box(engine.embed_records_batch(
                    black_box(&fx.model),
                    black_box(&fx.graph),
                    &fx.targets,
                    Some(&fx.trusted),
                ))
            })
        });
    }
    group.finish();
}

/// Detector scoring: the histogram scorer over the training records'
/// embeddings.
fn bench_scoring(c: &mut Criterion, fx: &Fixture) {
    let train = fx.model.embed_all_records(&fx.graph);
    // Same detector construction as `Gem::fit` with GemConfig defaults.
    let det = EnhancedDetector::fit_calibrated(&train, 10, 0.06, 0.005, 0.001, 0.98, 0.90);
    let samples: Vec<Vec<f32>> = (0..train.rows()).map(|i| train.row(i).to_vec()).collect();

    let mut group = c.benchmark_group("detector_scoring");
    group.sample_size(30);
    {
        let mut idx = 0usize;
        group.bench_function("score_f64", |b| {
            b.iter(|| {
                let s = &samples[idx % samples.len()];
                idx += 1;
                black_box(det.score(black_box(s)))
            })
        });
    }
    group.finish();
}

/// Steady-state allocation audit of a warm engine on single records;
/// `None` unless built with `--features count-allocs`, when the count
/// must be exactly zero.
fn audit_steady_state(fx: &Fixture) -> Option<u64> {
    let mut engine = InferenceEngine::new();
    let mut out = Vec::new();
    // Warm pass: grows every scratch buffer.
    for &rid in &fx.targets {
        engine.embed_record_into(&fx.model, &fx.graph, rid, Some(&fx.trusted), &mut out);
    }
    allocs::reset();
    let n = 4 * fx.targets.len();
    for i in 0..n {
        let rid = fx.targets[i % fx.targets.len()];
        engine.embed_record_into(&fx.model, &fx.graph, rid, Some(&fx.trusted), &mut out);
    }
    let audit = allocs::ENABLED.then(|| {
        let total = allocs::stats().allocs;
        assert_eq!(
            total, 0,
            "steady-state single-record inference allocated {total} times over {n} records"
        );
        total
    });
    println!("steady-state allocs over {n} single records: {audit:?}");
    audit
}

#[derive(serde::Serialize)]
struct InferBenchLine {
    bench: &'static str,
    pool_threads: usize,
    n_streamed: usize,
    dim: usize,
    tape_single_median_ns: f64,
    engine_single_median_ns: f64,
    single_speedup: f64,
    engine_single_records_per_sec: f64,
    batch_median_ns: f64,
    batch_records_per_sec: f64,
    /// Heap allocations per warm single-record inference; `null` unless
    /// built with `--features count-allocs`. Gated to exactly 0.
    allocs_per_inference: Option<u64>,
    /// Which kernel backend the dispatcher resolved for this run.
    kernel_backend: &'static str,
    score_f64_median_ns: f64,
}

fn append_results(c: &Criterion, alloc_total: Option<u64>) {
    let find = |name: &str| {
        c.reports()
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing bench report {name}"))
    };
    let tape = find("tape_single");
    let engine = find("engine_single");
    let batch = find("engine_batch");
    let score_f64 = find("score_f64");
    let speedup = tape.median_ns / engine.median_ns;
    assert!(
        speedup >= 3.0,
        "engine single-record path must be >=3x the tape path, measured {speedup:.2}x"
    );
    let line = InferBenchLine {
        bench: "infer",
        pool_threads: gem_par::num_threads(),
        n_streamed: N_STREAMED,
        dim: model_cfg().dim,
        tape_single_median_ns: tape.median_ns,
        engine_single_median_ns: engine.median_ns,
        single_speedup: speedup,
        engine_single_records_per_sec: 1e9 / engine.median_ns,
        batch_median_ns: batch.median_ns,
        batch_records_per_sec: N_STREAMED as f64 / (batch.median_ns * 1e-9),
        allocs_per_inference: alloc_total,
        kernel_backend: gem_nn::kernels::backend_name(),
        score_f64_median_ns: score_f64.median_ns,
    };
    let json = serde_json::to_string(&line).expect("serialize bench line");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_infer.json");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_infer.json");
    writeln!(f, "{json}").expect("append BENCH_infer.json");
    println!("appended results to {path}");
}

fn main() {
    // CI smoke mode: enough sampling to exercise every code path, the
    // zero-alloc gate and the JSON plumbing, without paying for
    // statistically stable numbers.
    if std::env::var("GEM_BENCH_QUICK").as_deref() == Ok("1") {
        if std::env::var("CRITERION_SAMPLES").is_err() {
            std::env::set_var("CRITERION_SAMPLES", "2");
        }
        if std::env::var("CRITERION_MAX_SECS").is_err() {
            std::env::set_var("CRITERION_MAX_SECS", "2");
        }
    }
    let mut c = Criterion::default();
    let fx = fixture();
    bench_paths(&mut c, &fx);
    bench_scoring(&mut c, &fx);
    let alloc_total = audit_steady_state(&fx);
    c.final_summary();
    append_results(&c, alloc_total);
}
