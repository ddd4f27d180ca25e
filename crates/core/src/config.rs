//! System-level configuration with the paper's published defaults.

use gem_graph::{WalkConfig, WeightFn};
use gem_nn::Activation;

use crate::bisage::{Aggregator, BiSageConfig};

/// All GEM hyperparameters. The defaults are the paper's baseline
/// parameters (Section VI, "Experiment setup"): learning rate 0.003,
/// embedding dimension 32, offset `c` = 120 dBm, scaling factor
/// `T` = 0.06, in-out threshold `τ_u` = 0.005, updating threshold
/// `τ_l` = 0.001.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GemConfig {
    /// Edge-weight function for the bipartite graph (paper Eq. 2).
    pub weight_fn: WeightFn,
    /// Embedding dimension `d`.
    pub embedding_dim: usize,
    /// Aggregation rounds `K`.
    pub rounds: usize,
    /// Neighbors sampled per node per tree depth (`|N_s|`).
    pub sample_sizes: Vec<usize>,
    /// SGD/Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs over the random-walk pair stream.
    pub epochs: usize,
    /// Pairs per training step.
    pub batch_size: usize,
    /// Random-walk schedule.
    pub walks: WalkConfig,
    /// Negative samples per positive pair (`K_N`).
    pub negative_samples: usize,
    /// Exponent of the negative-sampling degree distribution.
    pub negative_power: f64,
    /// Nonlinearity `σ` in Eqs. 4/6.
    pub activation: Activation,
    /// Whether base embeddings `h⁰, l⁰` are trained (see DESIGN.md).
    pub trainable_base: bool,
    /// Neighborhood aggregator.
    pub aggregator: Aggregator,
    /// Uniform (ablation) instead of weighted neighbor sampling.
    pub uniform_sampling: bool,
    /// Draw negatives from the side opposite to each pair's `x` node
    /// (see `BiSageConfig::typed_negatives`).
    pub typed_negatives: bool,
    /// Top-K heaviest-edge cap for deterministic full-neighborhood
    /// inference.
    pub inference_cap: usize,
    /// Extra pruned-copy embedding passes per training record when
    /// fitting the detector; simulates records with missing MACs so the
    /// histograms tolerate AP churn.
    pub augment_passes: usize,
    /// Probability that each non-anchor reading is dropped in an
    /// augmentation copy.
    pub augment_drop: f64,
    /// The strongest readings of a record that augmentation never drops.
    pub augment_anchors: usize,
    /// Histogram bins per dimension `m`.
    pub bins: usize,
    /// Softmax scaling factor `T` (paper Eq. 10).
    pub temperature: f32,
    /// In-out decision threshold `τ_u` (paper Eq. 11).
    pub tau_u: f32,
    /// Online-update confidence threshold `τ_l < τ_u`.
    pub tau_l: f32,
    /// Optimize `τ_u`/`τ_l` on the training scores (the paper treats them
    /// as hyperparameters "to be optimized in the learning process"); the
    /// configured values then act as floors.
    pub calibrate_thresholds: bool,
    /// Training-score quantile that must classify in-premises when
    /// calibrating `τ_u`.
    pub calibrate_keep_in: f64,
    /// Training-score quantile for the confident-update band `τ_l`.
    pub calibrate_confident: f64,
    /// Contamination factor `γ` of the original histogram algorithm
    /// (used by the non-enhanced baseline and ROC comparisons).
    pub contamination: f32,
    /// Worker threads for training and batch scoring: `0` = all cores
    /// (or `GEM_NUM_THREADS`), `1` = sequential. Results are identical
    /// for any value (see `BiSageConfig::num_threads`).
    pub num_threads: usize,
    /// Minibatch chunks averaged into each optimizer step
    /// (see `BiSageConfig::grad_accum`).
    pub grad_accum: usize,
    /// Sparse (touched-rows-only, lazily caught-up) Adam updates for the
    /// base-embedding tables (see `BiSageConfig::sparse_adam`).
    /// Bit-identical to the dense update, just faster.
    pub sparse_adam: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for GemConfig {
    fn default() -> Self {
        GemConfig {
            weight_fn: WeightFn::OffsetLinear { c: 120.0 },
            embedding_dim: 32,
            rounds: 2,
            sample_sizes: vec![10, 5],
            learning_rate: 0.003,
            epochs: 3,
            batch_size: 64,
            walks: WalkConfig { walks_per_node: 6, walk_length: 6 },
            negative_samples: 4,
            negative_power: 0.75,
            activation: Activation::LeakyRelu,
            trainable_base: true,
            aggregator: Aggregator::WeightedMean,
            uniform_sampling: false,
            typed_negatives: false,
            inference_cap: 48,
            augment_passes: 2,
            augment_drop: 0.15,
            augment_anchors: 5,
            bins: 10,
            temperature: 0.06,
            tau_u: 0.005,
            tau_l: 0.001,
            calibrate_thresholds: true,
            calibrate_keep_in: 0.95,
            calibrate_confident: 0.70,
            contamination: 0.05,
            num_threads: 0,
            grad_accum: 2,
            sparse_adam: true,
            seed: 42,
        }
    }
}

impl GemConfig {
    /// The embedding-algorithm slice of the configuration.
    pub fn bisage(&self) -> BiSageConfig {
        BiSageConfig {
            dim: self.embedding_dim,
            rounds: self.rounds,
            sample_sizes: self.sample_sizes.clone(),
            activation: self.activation,
            learning_rate: self.learning_rate,
            epochs: self.epochs,
            batch_size: self.batch_size,
            walks: self.walks,
            negative_samples: self.negative_samples,
            negative_power: self.negative_power,
            trainable_base: self.trainable_base,
            aggregator: self.aggregator,
            uniform_sampling: self.uniform_sampling,
            typed_negatives: self.typed_negatives,
            inference_cap: self.inference_cap,
            num_threads: self.num_threads,
            grad_accum: self.grad_accum,
            sparse_adam: self.sparse_adam,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GemConfig::default();
        assert_eq!(c.embedding_dim, 32);
        assert!((c.learning_rate - 0.003).abs() < 1e-9);
        assert!((c.temperature - 0.06).abs() < 1e-9);
        assert!((c.tau_u - 0.005).abs() < 1e-9);
        assert!((c.tau_l - 0.001).abs() < 1e-9);
        assert_eq!(c.negative_samples, 4);
        assert!(matches!(c.weight_fn, WeightFn::OffsetLinear { c } if (c - 120.0).abs() < 1e-9));
        assert!(c.tau_l < c.tau_u, "update threshold must be stricter");
    }

    #[test]
    fn bisage_slice_is_consistent() {
        let c = GemConfig::default();
        let b = c.bisage();
        assert_eq!(b.dim, c.embedding_dim);
        assert_eq!(b.sample_sizes.len(), c.rounds);
    }
}
