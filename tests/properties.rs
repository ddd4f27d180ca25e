//! Cross-crate property-based tests (proptest) on the core invariants.

use proptest::prelude::*;

use gem::core::{BiSage, BiSageConfig, EnhancedDetector, HistogramModel};
use gem::graph::{BipartiteGraph, NegativeTable, WalkConfig, WalkPairs, WeightFn};
use gem::nn::Tensor;
use gem::rfsim::{Scenario, ScenarioConfig};
use gem::signal::{MacAddr, RecordSet, SignalRecord};

/// Strategy: a record with 1–8 readings over a small MAC space.
fn record_strategy() -> impl Strategy<Value = SignalRecord> {
    prop::collection::vec((0u64..20, -100.0f32..-20.0), 1..8).prop_map(|pairs| {
        SignalRecord::from_pairs(0.0, pairs.into_iter().map(|(m, r)| (MacAddr::from_raw(m), r)))
    })
}

fn record_set_strategy() -> impl Strategy<Value = RecordSet> {
    prop::collection::vec(record_strategy(), 1..30).prop_map(RecordSet::from_records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Graph construction invariants: bipartite counts, positive weights,
    /// degree symmetry (Σ record degrees = Σ MAC degrees = |E|).
    #[test]
    fn graph_invariants(records in record_set_strategy()) {
        let g = BipartiteGraph::from_records(WeightFn::default(), records.iter());
        prop_assert_eq!(g.n_records(), records.len());
        prop_assert_eq!(g.n_macs(), records.mac_universe().len());
        let rec_deg: usize = (0..g.n_records() as u32)
            .map(|r| g.record_neighbors(gem::graph::RecordId(r)).len())
            .sum();
        let mac_deg: usize = (0..g.n_macs() as u32)
            .map(|m| g.mac_neighbors(gem::graph::MacId(m)).len())
            .sum();
        prop_assert_eq!(rec_deg, g.n_edges());
        prop_assert_eq!(mac_deg, g.n_edges());
        for r in 0..g.n_records() as u32 {
            for (_, w) in g.record_neighbors(gem::graph::RecordId(r)) {
                prop_assert!(w > 0.0, "edge weights must be positive");
            }
        }
    }

    /// Walk pairs always connect nodes of opposite types.
    #[test]
    fn walks_alternate_types(records in record_set_strategy(), seed in 0u64..1000) {
        let g = BipartiteGraph::from_records(WeightFn::default(), records.iter());
        let mut rng = gem::signal::rng::child_rng(seed, 0);
        let pairs = WalkPairs::generate(&g, WalkConfig { walks_per_node: 2, walk_length: 4 }, &mut rng);
        for (x, y) in &pairs.pairs {
            prop_assert_ne!(x.is_record(), y.is_record());
        }
    }

    /// The negative table never yields isolated nodes.
    #[test]
    fn negative_table_support(records in record_set_strategy(), seed in 0u64..1000) {
        let g = BipartiteGraph::from_records(WeightFn::default(), records.iter());
        if let Some(table) = NegativeTable::build(&g, 0.75) {
            let mut rng = gem::signal::rng::child_rng(seed, 1);
            for _ in 0..50 {
                let z = table.sample(&mut rng);
                prop_assert!(g.degree(z) > 0);
            }
        }
    }

    /// HBOS raw scores are finite, and absorbing an *in-range* sample
    /// never increases its own score. (Out-of-range samples clamp into
    /// edge bins on update but score as empty bins, so the property is
    /// scoped to the fitted range.)
    #[test]
    fn hbos_update_monotonicity(
        values in prop::collection::vec(-1.0f32..1.0, 24..60),
        probe_idx in 0usize..5,
    ) {
        let rows = values.len() / 4;
        if rows < 2 { return Ok(()); }
        let train = Tensor::from_vec(rows, 4, values[..rows * 4].to_vec());
        let mut model = HistogramModel::fit(&train, 6);
        let probe = train.row(probe_idx % rows).to_vec();
        let before = model.raw_score(&probe);
        prop_assert!(before.is_finite());
        model.update(&probe);
        let after = model.raw_score(&probe);
        prop_assert!(after <= before + 1e-9, "absorbing a sample must not raise its score");
    }

    /// The enhanced detector's S_T is within (0,1) and monotone in H̄.
    #[test]
    fn detector_score_bounds(
        values in prop::collection::vec(-1.0f32..1.0, 40..80),
        probe in prop::collection::vec(-2.0f32..2.0, 4),
    ) {
        let rows = values.len() / 4;
        let train = Tensor::from_vec(rows, 4, values[..rows * 4].to_vec());
        let det = EnhancedDetector::fit(&train, 6, 0.06, 0.005, 0.001);
        let s = det.score(&probe);
        prop_assert!(s > 0.0 && s < 1.0, "S_T must be strictly inside (0,1), got {}", s);
        let h = det.normalized_raw(&probe);
        prop_assert!((0.0..=1.0).contains(&h));
    }

    /// Matrix view roundtrip: every reading lands in its column; pads
    /// fill the rest.
    #[test]
    fn padded_matrix_roundtrip(records in record_set_strategy()) {
        let m = records.to_matrix(-120.0);
        for (i, rec) in records.iter().enumerate() {
            for reading in &rec.readings {
                let j = m.macs.binary_search(&reading.mac).unwrap();
                prop_assert_eq!(m.row(i)[j], reading.rssi);
            }
            let n_padded = m.row(i).iter().filter(|&&v| v == -120.0).count();
            prop_assert!(n_padded >= m.cols() - rec.len());
        }
    }
}

// Training a model per proptest case is costly, so the data-parallel
// determinism contract gets its own small-case block.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For a fixed seed, `fit()` on the worker pool and `fit()` capped to
    /// the calling thread (`gem_par::thread_cap(1)`, every region inline)
    /// must produce bit-identical aggregation matrices and epoch losses:
    /// every chunk derives its RNG from `(seed, epoch, chunk_idx)` and
    /// chunk gradients are reduced in fixed chunk order, so thread count
    /// never touches the arithmetic.
    /// Both fits run on arena-backed tapes (each worker reuses its
    /// thread-local buffer pool), and the property is checked with the
    /// sparse (lazy) and dense Adam table updates alike.
    #[test]
    fn parallel_and_sequential_training_bit_identical(
        user in 1u32..=3,
        seed in 0u64..1000,
        grad_accum in 1usize..=4,
        sparse_sel in 0usize..2,
    ) {
        let mut scen = ScenarioConfig::user(user);
        scen.train_duration_s = 45.0;
        scen.n_test_in = 0;
        scen.n_test_out = 0;
        let ds = Scenario::build(scen).generate();
        let g = BipartiteGraph::from_records(WeightFn::default(), ds.train.iter());

        let fit_with = |threads: Option<usize>| {
            let _cap = threads.map(gem_par::thread_cap);
            let cfg = BiSageConfig {
                dim: 8,
                sample_sizes: vec![4, 2],
                epochs: 2,
                batch_size: 32,
                grad_accum,
                sparse_adam: sparse_sel == 1,
                seed,
                ..BiSageConfig::default()
            };
            let mut model = BiSage::new(cfg);
            let report = model.fit(&g);
            (model, report)
        };
        let (seq_model, seq_report) = fit_with(Some(1));
        let (par_model, par_report) = fit_with(None);

        prop_assert_eq!(&seq_report.epoch_losses, &par_report.epoch_losses);
        let (seq_wh, seq_wl) = seq_model.aggregation_weights();
        let (par_wh, par_wl) = par_model.aggregation_weights();
        prop_assert_eq!(seq_wh, par_wh, "W_h must be bit-identical across thread counts");
        prop_assert_eq!(seq_wl, par_wl, "W_l must be bit-identical across thread counts");
        prop_assert_eq!(
            seq_model.embed_all_records(&g),
            par_model.embed_all_records(&g)
        );
    }
}
