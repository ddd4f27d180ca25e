//! In-out detection: the enhanced histogram-based one-class classifier
//! (paper Sections IV-C and V-B) and the original, non-enhanced variant
//! used in the Fig. 8 comparison.

use serde::{Deserialize, Serialize};

use gem_nn::Tensor;

use crate::hbos::HistogramModel;

/// Outcome of scoring one sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Detection {
    /// The rescaled outlier score `S_T(h)` (enhanced) or normalized raw
    /// score (baseline) — higher means more likely outside.
    pub score: f64,
    /// `true` when the sample is classified as an outlier (outside).
    pub is_outlier: bool,
    /// `true` when the sample is a *highly confident* in-premises sample
    /// (enhanced detector only; `score < τ_l`).
    pub confident_inlier: bool,
}

/// The paper's enhanced detector: HBOS raw scores → min-max normalization
/// *frozen at training time* → temperature softmax (Eq. 10) → fixed
/// thresholds `τ_u` (decision) and `τ_l` (update confidence). Histograms
/// absorb confident in-premises samples online; the score normalization
/// and thresholds never drift with the growing data size — that is the
/// enhancement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnhancedDetector {
    hist: HistogramModel,
    /// The initial training embeddings, kept as the *frozen reference
    /// set*: after every histogram update the normalization bounds are
    /// re-anchored on this set's raw scores, so absorbing new samples
    /// never drifts the operating point of the fixed thresholds (and the
    /// update stage is the most expensive one, as in the paper's
    /// Table III).
    reference: Vec<Vec<f32>>,
    /// Normalization bounds, re-anchored on the reference set.
    score_min: f64,
    /// See [`EnhancedDetector::score_min`].
    score_max: f64,
    /// Softmax scaling factor `T`.
    pub temperature: f64,
    /// Decision threshold `τ_u` (Eq. 11).
    pub tau_u: f64,
    /// Update-confidence threshold `τ_l < τ_u`.
    pub tau_l: f64,
    /// Confident samples absorbed online.
    pub n_updates: usize,
}

impl EnhancedDetector {
    /// Fits histograms on the training embeddings and freezes the score
    /// normalization.
    pub fn fit(train: &Tensor, bins: usize, temperature: f64, tau_u: f64, tau_l: f64) -> Self {
        assert!(tau_l < tau_u, "τ_l must be stricter than τ_u");
        assert!(temperature > 0.0);
        let hist = HistogramModel::fit(train, bins);
        let raw = hist.raw_scores(train);
        let score_min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let score_max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let reference = (0..train.rows()).map(|i| train.row(i).to_vec()).collect();
        EnhancedDetector {
            hist,
            reference,
            score_min,
            score_max,
            temperature,
            tau_u,
            tau_l,
            n_updates: 0,
        }
    }

    /// Recomputes the normalization bounds from the reference set's raw
    /// scores under the *current* histograms.
    fn reanchor(&mut self) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for r in &self.reference {
            let s = self.hist.raw_score(r);
            min = min.min(s);
            max = max.max(s);
        }
        self.score_min = min;
        self.score_max = max;
    }

    /// Fits the detector and then *optimizes the thresholds on the
    /// training scores*, per the paper's "the scaling parameter T and the
    /// new threshold value τ_u are considered as hyperparameters to be
    /// optimized in the learning process": `τ_u` is set so that the
    /// `keep_in` fraction of training samples classify as in-premises,
    /// and `τ_l` so the `confident` fraction qualifies for online
    /// updates. The provided `tau_u`/`tau_l` act as floors.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_calibrated(
        train: &Tensor,
        bins: usize,
        temperature: f64,
        tau_u_floor: f64,
        tau_l_floor: f64,
        keep_in: f64,
        confident: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&keep_in) && (0.0..=1.0).contains(&confident));
        assert!(confident < keep_in, "confidence band must be inside the in-band");
        let mut det = Self::fit(train, bins, temperature, tau_u_floor.max(1e-9), tau_l_floor);
        let mut scores: Vec<f64> = (0..train.rows()).map(|i| det.score(train.row(i))).collect();
        scores.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| scores[((scores.len() - 1) as f64 * p) as usize];
        // Cap τ_u below S_T's saturation plateau: embeddings whose
        // training scores span the whole [0,1] range (a degenerate
        // detector input) would otherwise calibrate τ_u ≈ 1 and never
        // flag anything.
        det.tau_u = q(keep_in).max(tau_u_floor).min(0.9);
        det.tau_l = q(confident).max(tau_l_floor).min(det.tau_u * 0.999);
        det
    }

    /// Min-max-normalized raw score `H̄(h) ∈ [0, 1]` (clamped for samples
    /// outside the training score range).
    pub fn normalized_raw(&self, sample: &[f32]) -> f64 {
        let raw = self.hist.raw_score(sample);
        if self.score_max <= self.score_min {
            return 0.5;
        }
        ((raw - self.score_min) / (self.score_max - self.score_min)).clamp(0.0, 1.0)
    }

    /// The rescaled score `S_T(h)` of paper Eq. 10:
    /// `exp(H̄/T) / (exp(H̄/T) + exp((1−H̄)/T))`, computed in the
    /// numerically stable logistic form `σ((2H̄−1)/T)`.
    pub fn score(&self, sample: &[f32]) -> f64 {
        let h = self.normalized_raw(sample);
        1.0 / (1.0 + (-(2.0 * h - 1.0) / self.temperature).exp())
    }

    /// Classifies one sample (no model mutation).
    pub fn detect(&self, sample: &[f32]) -> Detection {
        let score = self.score(sample);
        Detection { score, is_outlier: score > self.tau_u, confident_inlier: score < self.tau_l }
    }

    /// Scores a batch of samples across the worker pool. Scoring is
    /// read-only, so samples are independent; results keep input order.
    pub fn score_batch<S: AsRef<[f32]> + Sync>(&self, samples: &[S]) -> Vec<f64> {
        gem_par::par_map(samples, |s| self.score(s.as_ref()))
    }

    /// Classifies a batch of samples across the worker pool (no model
    /// mutation); results keep input order.
    pub fn detect_batch<S: AsRef<[f32]> + Sync>(&self, samples: &[S]) -> Vec<Detection> {
        gem_par::par_map(samples, |s| self.detect(s.as_ref()))
    }

    /// Classifies and, when the sample is a highly confident in-premises
    /// one, absorbs it into the histograms (paper Section V-B). Returns
    /// the detection; `confident_inlier` tells whether an update happened.
    pub fn detect_and_update(&mut self, sample: &[f32]) -> Detection {
        let det = self.detect(sample);
        self.update_if_confident(sample, &det);
        det
    }

    /// The update half of [`EnhancedDetector::detect_and_update`]:
    /// absorbs the sample when `det` — a previously computed
    /// [`EnhancedDetector::detect`] result for this same sample — marks
    /// it highly confident, without re-scoring. Returns whether an
    /// update happened.
    pub fn update_if_confident(&mut self, sample: &[f32], det: &Detection) -> bool {
        if det.confident_inlier {
            self.hist.update(sample);
            self.n_updates += 1;
            self.reanchor();
            true
        } else {
            false
        }
    }

    /// Total samples inside the histograms (initial + absorbed).
    pub fn n_samples(&self) -> usize {
        self.hist.n_samples()
    }

    /// Checks decoded state against the embedding dimension `dim`: the
    /// histograms' shapes and every reference row's length, which
    /// scoring would otherwise assert on.
    pub(crate) fn check_shapes(&self, dim: usize) -> Result<(), String> {
        if self.hist.has_shape(dim) && self.reference.iter().all(|r| r.len() == dim) {
            Ok(())
        } else {
            Err(format!("detector histograms or reference rows are not {dim}-dimensional"))
        }
    }
}

/// The original histogram-based algorithm (paper's description of \[17\]):
/// the threshold `τ` is the `γ`-quantile of the min-max-normalized
/// training scores, and **normalization bounds and threshold are
/// recomputed whenever data is absorbed**, making the operating point
/// drift with data size — the failure mode the enhancement removes. It
/// also absorbs *any* sample it predicts as normal (no confidence band).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineHbos {
    hist: HistogramModel,
    bins: usize,
    /// Contamination factor `γ`.
    pub contamination: f64,
    /// Scores of all absorbed data (needed to recompute `τ`).
    absorbed: Vec<Vec<f32>>,
    score_min: f64,
    score_max: f64,
    /// Current threshold on the normalized score.
    pub tau: f64,
}

impl BaselineHbos {
    /// Fits the original algorithm.
    pub fn fit(train: &Tensor, bins: usize, contamination: f64) -> Self {
        let absorbed: Vec<Vec<f32>> = (0..train.rows()).map(|i| train.row(i).to_vec()).collect();
        let mut model = BaselineHbos {
            hist: HistogramModel::fit(train, bins),
            bins,
            contamination,
            absorbed,
            score_min: 0.0,
            score_max: 1.0,
            tau: 1.0,
        };
        model.recompute_threshold();
        model
    }

    fn recompute_threshold(&mut self) {
        let raw: Vec<f64> = self.absorbed.iter().map(|s| self.hist.raw_score(s)).collect();
        self.score_min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        self.score_max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (self.score_max - self.score_min).max(1e-12);
        let mut normalized: Vec<f64> = raw.iter().map(|r| (r - self.score_min) / span).collect();
        // Sort descending; τ is the score of the ⌈n·γ⌉-th highest sample.
        normalized.sort_by(|a, b| b.total_cmp(a));
        let i_star = ((normalized.len() as f64 * self.contamination) as usize)
            .min(normalized.len().saturating_sub(1));
        self.tau = normalized[i_star];
    }

    /// Normalized score with the *current* (drifting) bounds.
    pub fn score(&self, sample: &[f32]) -> f64 {
        let raw = self.hist.raw_score(sample);
        let span = (self.score_max - self.score_min).max(1e-12);
        ((raw - self.score_min) / span).clamp(0.0, 1.0)
    }

    /// Classifies one sample.
    pub fn detect(&self, sample: &[f32]) -> Detection {
        let score = self.score(sample);
        let is_outlier = score > self.tau;
        Detection { score, is_outlier, confident_inlier: !is_outlier }
    }

    /// Classifies and absorbs every predicted-normal sample, recomputing
    /// bounds and threshold (the data-size-dependent behaviour).
    pub fn detect_and_update(&mut self, sample: &[f32]) -> Detection {
        let det = self.detect(sample);
        if !det.is_outlier {
            self.hist.update(sample);
            self.absorbed.push(sample.to_vec());
            self.recompute_threshold();
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Training cluster: mass around 0.5 per dim with a thin tail at 0.8
    /// (the clustered shape real embeddings have).
    fn train_cluster() -> Tensor {
        Tensor::from_fn(60, 4, |i, j| {
            if i % 20 == 19 {
                0.8
            } else {
                0.48 + ((i * 3 + j * 5) % 5) as f32 / 100.0
            }
        })
    }

    fn inlier() -> [f32; 4] {
        [0.5, 0.5, 0.5, 0.5]
    }

    fn outlier() -> [f32; 4] {
        [1.4, -0.3, 2.0, -1.0]
    }

    #[test]
    fn scores_order_inliers_below_outliers() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        assert!(det.score(&inlier()) < det.score(&outlier()));
    }

    #[test]
    fn batch_scoring_matches_per_sample() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let samples: Vec<Vec<f32>> = (0..100).map(|i| vec![0.3 + i as f32 / 50.0; 4]).collect();
        let batch = det.score_batch(&samples);
        for (s, &b) in samples.iter().zip(&batch) {
            assert_eq!(det.score(s), b, "batch score must be bit-identical");
        }
        let dets = det.detect_batch(&samples);
        for (s, d) in samples.iter().zip(&dets) {
            assert_eq!(det.detect(s).score, d.score);
        }
    }

    #[test]
    fn softmax_saturates_outliers_toward_one() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        // Out-of-range sample clamps to H̄ = 1 → S_T ≈ σ(1/T) ≈ 1.
        assert!(det.score(&outlier()) > 0.999);
    }

    #[test]
    fn paper_thresholds_classify_correctly() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let d_in = det.detect(&inlier());
        let d_out = det.detect(&outlier());
        assert!(!d_in.is_outlier);
        assert!(d_out.is_outlier);
        assert!(!d_out.confident_inlier);
    }

    #[test]
    fn confident_updates_absorb_only_inliers() {
        let mut det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let n0 = det.n_samples();
        let d = det.detect_and_update(&inlier());
        assert!(d.confident_inlier);
        assert_eq!(det.n_samples(), n0 + 1);
        let d = det.detect_and_update(&outlier());
        assert!(!d.confident_inlier);
        assert_eq!(det.n_samples(), n0 + 1, "outliers must not be absorbed");
        assert_eq!(det.n_updates, 1);
    }

    #[test]
    fn normalization_is_frozen_under_updates() {
        let mut det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let before = det.score(&outlier());
        for _ in 0..50 {
            det.detect_and_update(&inlier());
        }
        let after = det.score(&outlier());
        // Histogram of the inlier bin grew, but the outlier still clamps
        // to H̄ = 1: its score must not drift downward.
        assert!((after - before).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn score_is_monotone_in_normalized_raw() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let samples: Vec<[f32; 4]> = vec![inlier(), [0.8, 0.8, 0.5, 0.5], outlier()];
        let mut last_raw = -1.0;
        let mut last_st = -1.0;
        for s in &samples {
            let raw = det.normalized_raw(s);
            let st = det.score(s);
            if raw > last_raw {
                assert!(st >= last_st, "S_T must be monotone in H̄");
            }
            last_raw = raw;
            last_st = st;
        }
    }

    #[test]
    fn baseline_threshold_drifts_with_updates() {
        let mut base = BaselineHbos::fit(&train_cluster(), 10, 0.05);
        let tau0 = base.tau;
        // Feed inliers the baseline happily absorbs: the dominant bin
        // grows, every other sample's relative score rises, and the
        // recomputed normalization bounds and quantile threshold move.
        for _ in 0..40 {
            base.detect_and_update(&inlier());
        }
        assert_ne!(base.tau, tau0, "baseline threshold must drift");
    }

    #[test]
    fn baseline_classifies_gross_outliers() {
        let base = BaselineHbos::fit(&train_cluster(), 10, 0.05);
        assert!(base.detect(&outlier()).is_outlier);
    }

    #[test]
    #[should_panic(expected = "τ_l must be stricter")]
    fn rejects_inverted_thresholds() {
        EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.001, 0.005);
    }
}
