//! The Table-I algorithm registry: every system under comparison behind
//! one uniform `run_algorithm` entry point.

use gem_baselines::{
    Autoencoder, AutoencoderConfig, FeatureBagging, GraphSage, GraphSageConfig, Inoa, InoaConfig,
    IsolationForest, Lof, Mds, SignatureHome, SignatureHomeConfig,
};
use gem_core::pipeline::{Embedder, OutlierModel, Pipeline};
use gem_core::{EnhancedDetector, Gem, GemConfig};
use gem_eval::Confusion;
use gem_nn::Tensor;
use gem_signal::{Dataset, RecordSet};

use crate::harness::eval_stream;

/// Contamination factor `γ` of the classic detectors: the share of
/// training samples they place beyond their decision threshold. It is
/// the `f32` 0.05 widened, the exact value the checked-in tables used.
pub const CONTAMINATION: f64 = 0.05f32 as f64;

/// Every algorithm of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// GEM = BiSAGE + our enhanced histogram detector.
    Gem,
    /// SignatureHome (network signature matching).
    SignatureHome,
    /// INOA (per-MAC-pair SVDD).
    Inoa,
    /// GraphSAGE embeddings + our detector.
    GraphSageOd,
    /// Autoencoder embeddings + our detector.
    AutoencoderOd,
    /// Classical MDS embeddings + our detector.
    MdsOd,
    /// BiSAGE embeddings + feature bagging.
    BisageFeatureBagging,
    /// BiSAGE embeddings + isolation forest.
    BisageIforest,
    /// BiSAGE embeddings + local outlier factor.
    BisageLof,
}

impl Algorithm {
    /// All Table-I rows in presentation order.
    pub fn all() -> [Algorithm; 9] {
        [
            Algorithm::Gem,
            Algorithm::SignatureHome,
            Algorithm::Inoa,
            Algorithm::GraphSageOd,
            Algorithm::AutoencoderOd,
            Algorithm::MdsOd,
            Algorithm::BisageFeatureBagging,
            Algorithm::BisageIforest,
            Algorithm::BisageLof,
        ]
    }

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Gem => "GEM (BiSAGE + OD)",
            Algorithm::SignatureHome => "SignatureHome",
            Algorithm::Inoa => "INOA",
            Algorithm::GraphSageOd => "GraphSAGE + OD",
            Algorithm::AutoencoderOd => "Autoencoder + OD",
            Algorithm::MdsOd => "MDS + OD",
            Algorithm::BisageFeatureBagging => "BiSAGE + Feature bagging",
            Algorithm::BisageIforest => "BiSAGE + iForest",
            Algorithm::BisageLof => "BiSAGE + LOF",
        }
    }
}

/// Fits our enhanced detector on embeddings with GEM's calibration rules.
fn fit_od(cfg: &GemConfig, train_embeddings: &Tensor) -> EnhancedDetector {
    EnhancedDetector::fit_calibrated(
        train_embeddings,
        cfg.bins,
        cfg.temperature as f64,
        cfg.tau_u as f64,
        cfg.tau_l as f64,
        cfg.calibrate_keep_in,
        cfg.calibrate_confident,
    )
}

fn run_pipeline<E: Embedder, D: OutlierModel>(embedder: E, detector: D, ds: &Dataset) -> Confusion {
    let mut pipeline = Pipeline::new(embedder, detector);
    eval_stream(&ds.test, |rec| pipeline.infer(rec).label)
}

/// Caps a record set at `n` records (deterministic prefix) — used to keep
/// the O(n³) MDS eigen-decomposition tractable.
fn cap(train: &RecordSet, n: usize) -> RecordSet {
    if train.len() <= n {
        train.clone()
    } else {
        RecordSet::from_records(train.records()[..n].to_vec())
    }
}

/// Runs one Table-I algorithm on a dataset and returns its confusion
/// matrix over the test stream. `cfg` supplies GEM's hyperparameters;
/// baselines derive matching settings from it (same dim/seed) so the
/// comparison isolates the algorithms.
pub fn run_algorithm(algo: Algorithm, cfg: &GemConfig, ds: &Dataset) -> Confusion {
    match algo {
        Algorithm::Gem => {
            let mut gem = Gem::fit(cfg.clone(), &ds.train);
            eval_stream(&ds.test, |rec| gem.infer(rec).label)
        }
        Algorithm::SignatureHome => {
            let sh = SignatureHome::fit(SignatureHomeConfig::default(), &ds.train);
            eval_stream(&ds.test, |rec| sh.infer(rec).0)
        }
        Algorithm::Inoa => {
            let inoa = Inoa::fit(InoaConfig::default(), &ds.train);
            eval_stream(&ds.test, |rec| inoa.infer(rec).0)
        }
        Algorithm::GraphSageOd => {
            let gs_cfg = GraphSageConfig {
                dim: cfg.embedding_dim,
                rounds: cfg.rounds,
                sample_sizes: cfg.sample_sizes.clone(),
                learning_rate: cfg.learning_rate,
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                walks: cfg.walks,
                negative_samples: cfg.negative_samples,
                weight_fn: cfg.weight_fn,
                inference_cap: cfg.inference_cap,
                seed: cfg.seed,
                ..GraphSageConfig::default()
            };
            let (embedder, train_embs) = GraphSage::fit(gs_cfg, &ds.train);
            run_pipeline(embedder, fit_od(cfg, &train_embs), ds)
        }
        Algorithm::AutoencoderOd => {
            let ae_cfg = AutoencoderConfig {
                dim: cfg.embedding_dim,
                seed: cfg.seed,
                ..AutoencoderConfig::default()
            };
            let (embedder, train_embs) = Autoencoder::fit(ae_cfg, &ds.train);
            run_pipeline(embedder, fit_od(cfg, &train_embs), ds)
        }
        Algorithm::MdsOd => {
            let capped = cap(&ds.train, 160);
            let (embedder, train_embs) = Mds::fit(cfg.embedding_dim, &capped);
            run_pipeline(embedder, fit_od(cfg, &train_embs), ds)
        }
        Algorithm::BisageFeatureBagging | Algorithm::BisageIforest | Algorithm::BisageLof => {
            let (embedder, train_embs) = gem_core::gem::GemEmbedder::fit(cfg, &ds.train);
            match algo {
                Algorithm::BisageFeatureBagging => {
                    let det = FeatureBagging::fit(&train_embs, 10, 15, CONTAMINATION, cfg.seed);
                    run_pipeline(embedder, det, ds)
                }
                Algorithm::BisageIforest => {
                    let det = IsolationForest::fit(&train_embs, 100, 128, CONTAMINATION, cfg.seed);
                    run_pipeline(embedder, det, ds)
                }
                Algorithm::BisageLof => {
                    let det = Lof::fit(&train_embs, 15, CONTAMINATION);
                    run_pipeline(embedder, det, ds)
                }
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_rfsim::{Scenario, ScenarioConfig};

    fn small_dataset() -> Dataset {
        let mut cfg = ScenarioConfig::user(4);
        cfg.train_duration_s = 150.0;
        cfg.n_test_in = 40;
        cfg.n_test_out = 40;
        Scenario::build(cfg).generate()
    }

    #[test]
    fn registry_has_all_nine_rows() {
        let names: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"GEM (BiSAGE + OD)"));
        assert!(names.contains(&"BiSAGE + LOF"));
    }

    #[test]
    fn cheap_algorithms_beat_chance_on_easy_data() {
        let ds = small_dataset();
        for algo in [Algorithm::SignatureHome, Algorithm::Inoa] {
            let c = run_algorithm(algo, &GemConfig::default(), &ds);
            assert_eq!(c.total(), 80);
            assert!(c.accuracy() > 0.55, "{} accuracy {}", algo.name(), c.accuracy());
        }
    }
}
