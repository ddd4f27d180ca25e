//! Property-based determinism tests for the full BiSAGE training loop.
//!
//! Two exact (bitwise) invariants of the trainer are enforced across
//! randomized graphs, seeds and hyperparameters:
//!
//! 1. **Sparse Adam ≡ dense Adam.** `sparse_adam` only changes *when*
//!    embedding-table rows are updated (lazily, on touch), never *what*
//!    the update computes — final embeddings must match bit-for-bit.
//! 2. **Pool ≡ sequential.** The data-parallel epoch loop derives every
//!    chunk's RNG from `(seed, epoch, chunk_idx)` and reduces chunk
//!    gradients in fixed chunk order, so thread count never touches the
//!    arithmetic — including on the arena-tape fast path, where each
//!    worker reuses its own thread-local tape buffers. The width is set
//!    the one way callers set it, with `gem_par::thread_cap`; a cap of
//!    one runs every region inline on the calling thread.
//!
//! Both properties ride through the same machinery the benchmarks and
//! the public `fit` use; nothing here is a test-only code path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use gem_core::{Aggregator, BiSage, BiSageConfig};
use gem_graph::{BipartiteGraph, WeightFn};
use gem_signal::{MacAddr, SignalRecord};

/// Random training scenario: a two-cluster graph plus hyperparameters.
#[derive(Debug, Clone)]
struct Scenario {
    records: Vec<Vec<(u64, f32)>>,
    seed: u64,
    epochs: usize,
    batch_size: usize,
    grad_accum: usize,
    dim: usize,
    uniform_sampling: bool,
}

/// Hand-rolled strategy (the vendored proptest has no `prop_flat_map`):
/// draws everything straight from the case RNG so record contents can
/// depend on the sampled cluster layout.
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut StdRng) -> Scenario {
        let per_cluster = rng.random_range(4..10usize);
        let mut records = Vec::new();
        for cluster in 0..2u64 {
            let base_mac = 1 + cluster * 10;
            for _ in 0..per_cluster {
                let n_macs = rng.random_range(2..4usize);
                let rec = (0..n_macs as u64)
                    .map(|m| (base_mac + m, rng.random_range(-80.0..-40.0f32)))
                    .collect();
                records.push(rec);
            }
        }
        Scenario {
            records,
            seed: rng.random_range(0..1u64 << 32),
            epochs: rng.random_range(1..3usize),
            batch_size: rng.random_range(16..64usize),
            grad_accum: rng.random_range(1..4usize),
            dim: [8usize, 16][rng.random_range(0..2usize)],
            uniform_sampling: rng.random_range(0..4usize) == 0,
        }
    }
}

fn build_graph(s: &Scenario) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
    for (i, rec) in s.records.iter().enumerate() {
        g.add_record(&SignalRecord::from_pairs(
            i as f64,
            rec.iter().map(|&(m, rssi)| (MacAddr::from_raw(m), rssi)),
        ));
    }
    g
}

fn config(s: &Scenario) -> BiSageConfig {
    BiSageConfig {
        dim: s.dim,
        epochs: s.epochs,
        batch_size: s.batch_size,
        grad_accum: s.grad_accum,
        sample_sizes: vec![4, 2],
        rounds: 2,
        seed: s.seed,
        uniform_sampling: s.uniform_sampling,
        aggregator: if s.uniform_sampling { Aggregator::Mean } else { Aggregator::WeightedMean },
        ..BiSageConfig::default()
    }
}

/// Train on at most `threads` threads (`None`: the whole pool) and
/// return the final record embeddings as raw bit patterns.
fn fit_bits(s: &Scenario, sparse_adam: bool, threads: Option<usize>) -> Vec<u32> {
    let _cap = threads.map(gem_par::thread_cap);
    let g = build_graph(s);
    let mut cfg = config(s);
    cfg.sparse_adam = sparse_adam;
    let mut model = BiSage::new(cfg);
    model.fit(&g);
    model.embed_all_records(&g).data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sparse (lazy) Adam must reproduce the dense trajectory exactly.
    #[test]
    fn sparse_adam_fit_is_bitwise_dense(s in ScenarioStrategy) {
        let dense = fit_bits(&s, false, Some(1));
        let sparse = fit_bits(&s, true, Some(1));
        prop_assert_eq!(dense, sparse, "sparse Adam diverged from dense");
    }

    /// The pooled fit must reproduce the sequential fit exactly, with
    /// sparse Adam and arena tapes active (the default fast path).
    #[test]
    fn pooled_fit_is_bitwise_sequential(s in ScenarioStrategy) {
        let seq = fit_bits(&s, true, Some(1));
        let pooled = fit_bits(&s, true, None);
        prop_assert_eq!(seq, pooled, "pooled fit diverged from sequential");
    }

    /// Arbitrary intermediate thread counts (capped through
    /// `gem_par::thread_cap`) must also match the sequential trajectory:
    /// the gradient merge tree's topology is a function of the group
    /// length alone, so 2, 3, or any other cap cannot change where in
    /// the tree a chunk's sink lands.
    #[test]
    fn capped_thread_counts_are_bitwise_sequential(s in ScenarioStrategy) {
        let seq = fit_bits(&s, true, Some(1));
        for threads in [2usize, 3] {
            let capped = fit_bits(&s, true, Some(threads));
            prop_assert_eq!(&seq, &capped, "fit capped at {} threads diverged", threads);
        }
    }
}
