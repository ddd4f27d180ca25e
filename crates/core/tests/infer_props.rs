//! Property-based parity tests for the tape-free streaming engine.
//!
//! The engine promises *bitwise* equality with the tape-based reference
//! path across randomized graphs, streamed records, trust assignments
//! and hyperparameters:
//!
//! 1. **Single-record streaming ≡ tape.** `embed_record` must reproduce
//!    `embed_nodes_filtered(&[record], wrapped)` exactly, where `wrapped`
//!    admits the record itself plus every trusted record — including the
//!    trust-filtered neighborhood fallback and the isolated-node
//!    random-init path.
//! 2. **Batched ≡ tape.** `embed_records_batch` must reproduce the tape
//!    forward over the same targets under the batch's set-wrapped filter,
//!    on the sequential branch and on the worker-pool branch that batches
//!    of at least 32 targets (and 32 distinct MACs) take.
//! 3. **Warm ≡ cold.** An engine carried across graph growth and trust
//!    flips must match a fresh engine at every step: nothing one call
//!    computes may leak into the next.
//! 4. **Targeted row init ≡ full scan.** The per-record
//!    `ensure_rows_for_record` that serving runs must leave the model in
//!    the same state (RNG stream included) as the full node scan.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gem_core::{Aggregator, BiSage, BiSageConfig, InferenceEngine};
use gem_graph::{BipartiteGraph, NodeId, RecordId, WeightFn};
use gem_signal::{MacAddr, SignalRecord};

/// Random scenario: a fitted two-cluster graph plus streamed records,
/// some with brand-new MACs (random-init fallback) and per-record trust
/// bits.
#[derive(Debug, Clone)]
struct Scenario {
    records: Vec<Vec<(u64, f32)>>,
    streamed: Vec<Vec<(u64, f32)>>,
    trusted_streamed: Vec<bool>,
    seed: u64,
    dim: usize,
    rounds: usize,
    uniform_sampling: bool,
    inference_cap: usize,
}

/// Hand-rolled strategy (the vendored proptest has no `prop_flat_map`).
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut StdRng) -> Scenario {
        let per_cluster = rng.random_range(3..7usize);
        let mut records = Vec::new();
        for cluster in 0..2u64 {
            let base_mac = 1 + cluster * 8;
            for _ in 0..per_cluster {
                let n_macs = rng.random_range(2..5usize);
                let rec = (0..n_macs as u64)
                    .map(|m| (base_mac + m, rng.random_range(-80.0..-40.0f32)))
                    .collect();
                records.push(rec);
            }
        }
        let n_streamed = rng.random_range(3..8usize);
        let mut streamed = Vec::new();
        for i in 0..n_streamed {
            let n_macs = rng.random_range(1..4usize);
            let rec = (0..n_macs)
                .map(|k| {
                    // Mostly known MACs; occasionally a brand-new one.
                    let mac = if rng.random_range(0..4usize) == 0 {
                        100 + (i * 4 + k) as u64
                    } else {
                        1 + rng.random_range(0..12u64)
                    };
                    (mac, rng.random_range(-85.0..-40.0f32))
                })
                .collect();
            streamed.push(rec);
        }
        let trusted_streamed = (0..n_streamed).map(|_| rng.random_range(0..2usize) == 0).collect();
        Scenario {
            records,
            streamed,
            trusted_streamed,
            seed: rng.random_range(0..1u64 << 32),
            dim: [8usize, 16][rng.random_range(0..2usize)],
            rounds: rng.random_range(1..4usize),
            uniform_sampling: rng.random_range(0..3usize) == 0,
            inference_cap: [3usize, 48][rng.random_range(0..2usize)],
        }
    }
}

/// Clusters of ten MACs in a [`WideStrategy`] scenario.
const WIDE_CLUSTERS: u64 = 8;

/// Number of streamed targets in a [`WideStrategy`] scenario; they sight
/// all 80 fit-time MACs between them.
const WIDE_TARGETS: usize = 80;

/// Wide two-round scenario for the engine's worker-pool branches:
/// `WIDE_CLUSTERS` 10-MAC clusters, then `WIDE_TARGETS` streamed targets
/// that between them sight every fit-time MAC. Both the targets and
/// their distinct MACs pass the engine's fan-out threshold (32) and
/// gem-par's 64-item chunk floor, so on a pool of two or more threads
/// both expansions really run on workers. Eight more streamed records
/// with random trust bits are not targets, so the trust filter decides
/// whether MAC expansions admit them.
struct WideStrategy;

impl Strategy for WideStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut StdRng) -> Scenario {
        let mut records = Vec::new();
        for cluster in 0..WIDE_CLUSTERS {
            for r in 0..5 {
                // Each cluster's first record sights all ten MACs, so
                // every MAC exists at fit time.
                let mut rec = Vec::new();
                for k in 0..10u64 {
                    if r == 0 || rng.random_range(0..3usize) != 0 {
                        rec.push((1 + cluster * 10 + k, rng.random_range(-80.0..-40.0f32)));
                    }
                }
                records.push(rec);
            }
        }
        let mut streamed = Vec::new();
        for i in 0..WIDE_TARGETS as u64 + 8 {
            let cluster = i % WIDE_CLUSTERS;
            // Target `i` always sights MAC `i / WIDE_CLUSTERS` of its
            // cluster.
            let mac = 1 + cluster * 10 + (i / WIDE_CLUSTERS) % 10;
            let mut rec = vec![(mac, rng.random_range(-85.0..-40.0f32))];
            for _ in 0..rng.random_range(0..3usize) {
                let mac = 1 + cluster * 10 + rng.random_range(0..10u64);
                if rec.iter().all(|&(m, _)| m != mac) {
                    rec.push((mac, rng.random_range(-85.0..-40.0f32)));
                }
            }
            streamed.push(rec);
        }
        let trusted_streamed = streamed.iter().map(|_| rng.random_range(0..2usize) == 0).collect();
        Scenario {
            records,
            streamed,
            trusted_streamed,
            seed: rng.random_range(0..1u64 << 32),
            dim: [8usize, 16][rng.random_range(0..2usize)],
            rounds: 2,
            uniform_sampling: rng.random_range(0..3usize) == 0,
            inference_cap: [3usize, 48][rng.random_range(0..2usize)],
        }
    }
}

fn to_record(i: usize, readings: &[(u64, f32)]) -> SignalRecord {
    SignalRecord::from_pairs(
        i as f64,
        readings.iter().map(|&(m, rssi)| (MacAddr::from_raw(m), rssi)),
    )
}

fn config(s: &Scenario) -> BiSageConfig {
    BiSageConfig {
        dim: s.dim,
        epochs: 1,
        batch_size: 32,
        sample_sizes: vec![4, 2, 2][..s.rounds].to_vec(),
        rounds: s.rounds,
        seed: s.seed,
        uniform_sampling: s.uniform_sampling,
        aggregator: if s.uniform_sampling { Aggregator::Mean } else { Aggregator::WeightedMean },
        inference_cap: s.inference_cap,
        ..BiSageConfig::default()
    }
}

/// Fits the model on the scenario's training records.
fn fit_model(s: &Scenario) -> (BiSage, BipartiteGraph, StdRng) {
    let mut graph = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
    for (i, rec) in s.records.iter().enumerate() {
        graph.add_record(&to_record(i, rec));
    }
    let mut model = BiSage::new(config(s));
    model.fit(&graph);
    let rng = StdRng::seed_from_u64(s.seed ^ 0xF00D);
    (model, graph, rng)
}

fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming single-record inference must be bitwise identical to the
    /// tape path, record by record, as the graph grows.
    #[test]
    fn engine_single_matches_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut engine = InferenceEngine::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            trusted.push(s.trusted_streamed[i]);
            {
                let bits: &[bool] = &trusted;
                let filter = move |r: RecordId| bits[r.0 as usize];
                model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
            }
            let got = engine.embed_record(&model, &graph, rid, Some(&trusted));
            let bits: &[bool] = &trusted;
            let wrapped = move |r: RecordId| r == rid || bits[r.0 as usize];
            let (want, _) =
                model.embed_nodes_filtered(&graph, &[NodeId::Record(rid)], Some(&wrapped));
            prop_assert_eq!(
                bits_of(&got),
                bits_of(want.row(0)),
                "engine diverged from tape at streamed record {}",
                i
            );
        }
    }

    /// The fused batch path must be bitwise identical to the tape forward
    /// over the same targets under the batch's set-wrapped trust filter.
    #[test]
    fn engine_batch_matches_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut targets = Vec::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            targets.push(graph.add_record(&to_record(i, rec)));
            trusted.push(s.trusted_streamed[i]);
        }
        {
            let bits: &[bool] = &trusted;
            let filter = move |r: RecordId| bits[r.0 as usize];
            model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
        }
        let mut engine = InferenceEngine::new();
        let got = engine.embed_records_batch(&model, &graph, &targets, Some(&trusted));
        let mut in_targets = vec![false; graph.n_records()];
        for rid in &targets {
            in_targets[rid.0 as usize] = true;
        }
        let bits: &[bool] = &trusted;
        let wrapped = move |r: RecordId| in_targets[r.0 as usize] || bits[r.0 as usize];
        let nodes: Vec<NodeId> = targets.iter().map(|&r| NodeId::Record(r)).collect();
        let (want, _) = model.embed_nodes_filtered(&graph, &nodes, Some(&wrapped));
        prop_assert_eq!(bits_of(got.data()), bits_of(want.data()), "batch diverged from tape");
    }

    /// Batches wide enough for the worker pool: more than 64 targets
    /// over more than 64 distinct fit-time MACs must still match the
    /// tape, under the set-wrapped trust filter and unfiltered (the
    /// `Gem::fit` augmentation call). Only a pool of more than one
    /// thread takes the pooled branches (CI's forced-pool step runs
    /// this with `GEM_NUM_THREADS=4`).
    #[test]
    fn pooled_batch_matches_tape_bitwise(s in WideStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut targets = Vec::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            trusted.push(s.trusted_streamed[i]);
            if i < WIDE_TARGETS {
                targets.push(rid);
            }
        }
        {
            let bits: &[bool] = &trusted;
            let filter = move |r: RecordId| bits[r.0 as usize];
            model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
        }
        let sighted: std::collections::BTreeSet<u64> =
            s.streamed[..WIDE_TARGETS].iter().flatten().map(|&(m, _)| m).collect();
        prop_assert!(sighted.len() > 64, "only {} distinct MACs", sighted.len());

        let mut engine = InferenceEngine::new();
        let got = engine.embed_records_batch(&model, &graph, &targets, Some(&trusted));
        let mut in_targets = vec![false; graph.n_records()];
        for rid in &targets {
            in_targets[rid.0 as usize] = true;
        }
        let bits: &[bool] = &trusted;
        let wrapped = move |r: RecordId| in_targets[r.0 as usize] || bits[r.0 as usize];
        let nodes: Vec<NodeId> = targets.iter().map(|&r| NodeId::Record(r)).collect();
        let (want, _) = model.embed_nodes_filtered(&graph, &nodes, Some(&wrapped));
        prop_assert_eq!(bits_of(got.data()), bits_of(want.data()), "filtered batch diverged");

        let got = engine.embed_records_batch(&model, &graph, &targets, None);
        let (want, _) = model.embed_nodes(&graph, &nodes);
        prop_assert_eq!(bits_of(got.data()), bits_of(want.data()), "unfiltered batch diverged");
    }

    /// A warm engine carried across graph growth and trust flips must
    /// match a cold engine rebuilt at every step — no call may read
    /// anything an earlier call computed.
    #[test]
    fn warm_engine_matches_cold_engine(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut warm = InferenceEngine::new();
        let mut rids = Vec::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            rids.push(rid);
            trusted.push(false);
            {
                let bits: &[bool] = &trusted;
                let filter = move |r: RecordId| bits[r.0 as usize];
                model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
            }
            // Embed the fresh record, plus an earlier one (a MAC the warm
            // engine already aggregated in an earlier call), and compare
            // each against a cold engine.
            let mut probes = vec![rid];
            if i > 0 {
                probes.push(rids[i / 2]);
            }
            for &probe in &probes {
                let got = warm.embed_record(&model, &graph, probe, Some(&trusted));
                let want = InferenceEngine::new()
                    .embed_record(&model, &graph, probe, Some(&trusted));
                prop_assert_eq!(
                    bits_of(&got),
                    bits_of(&want),
                    "warm engine diverged at step {} probing record {}",
                    i,
                    probe.0
                );
            }
            // Classification outcome: maybe trust the new record, and on
            // odd steps flip an arbitrary older bit (feedback churn).
            if s.trusted_streamed[i] {
                trusted[rid.0 as usize] = true;
            }
            if i % 2 == 1 {
                let j = (i * 5) % trusted.len();
                trusted[j] = !trusted[j];
            }
        }
        // The two-round evaluator must actually have run.
        let stats = warm.cache_stats();
        prop_assert!(
            s.rounds != 2 || stats.hits + stats.misses > 0,
            "two-round evaluator never ran"
        );
    }

    /// Detector-fit path: the engine-backed full-graph embeddings of
    /// `embed_all_records` must match their tape reference.
    #[test]
    fn full_graph_paths_match_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        for (i, rec) in s.streamed.iter().enumerate() {
            graph.add_record(&to_record(i, rec));
        }
        model.ensure_rows(&graph, &mut rng);
        let engine_all = model.embed_all_records(&graph);
        let tape_all = model.embed_all_records_tape(&graph);
        prop_assert_eq!(
            bits_of(engine_all.data()),
            bits_of(tape_all.data()),
            "embed_all_records diverged"
        );
    }

    /// The targeted per-record row init serving runs must leave the
    /// model bitwise identical to the full node scan — RNG stream
    /// included (both models then embed identically everywhere).
    #[test]
    fn targeted_ensure_matches_full_scan(s in ScenarioStrategy) {
        let (model, mut graph, _) = fit_model(&s);
        let mut targeted = model.clone();
        let mut full = model;
        let mut rng_a = StdRng::seed_from_u64(s.seed ^ 0xBEEF);
        let mut rng_b = StdRng::seed_from_u64(s.seed ^ 0xBEEF);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            trusted.push(s.trusted_streamed[i]);
            let bits: &[bool] = &trusted;
            let filter = move |r: RecordId| bits[r.0 as usize];
            targeted.ensure_rows_for_record(&graph, rid, &mut rng_a, Some(&filter));
            full.ensure_rows_filtered(&graph, &mut rng_b, Some(&filter));
        }
        let a = targeted.embed_all_records(&graph);
        let b = full.embed_all_records(&graph);
        prop_assert_eq!(bits_of(a.data()), bits_of(b.data()), "targeted ensure diverged");
    }
}
