//! Histogram-based outlier scoring (HBOS, paper Eq. 9).
//!
//! One histogram per embedding dimension, built from the training
//! (in-premises) embeddings. A sample's raw outlier score is
//! `Σ_j log(1 / hist_j(h_j))` where `hist_j` is the relative height of
//! the bin its j-th component falls into. Histograms support incremental
//! updates, which GEM's online self-enhancement uses.

use serde::{Deserialize, Serialize};

use gem_nn::Tensor;

/// Per-dimension histograms over a fixed value range with incremental
/// updates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistogramModel {
    /// Dimensionality `d`.
    dim: usize,
    /// Bins per dimension `m`.
    bins: usize,
    /// Per-dimension lower range bound (from the initial fit).
    mins: Vec<f32>,
    /// Per-dimension upper range bound.
    maxs: Vec<f32>,
    /// Row-major `(dim × bins)` frequency counts.
    counts: Vec<f64>,
    /// Number of samples absorbed.
    n: usize,
}

impl HistogramModel {
    /// Builds `d` histograms with `bins` bins from the training
    /// embeddings. Ranges are fixed to the per-dimension min/max of the
    /// training data (out-of-range future values clamp into edge bins).
    pub fn fit(embeddings: &Tensor, bins: usize) -> Self {
        assert!(bins >= 1, "need at least one bin");
        assert!(embeddings.rows() > 0, "need at least one training sample");
        let dim = embeddings.cols();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for i in 0..embeddings.rows() {
            for (j, &v) in embeddings.row(i).iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        let mut model =
            HistogramModel { dim, bins, mins, maxs, counts: vec![0.0; dim * bins], n: 0 };
        for i in 0..embeddings.rows() {
            model.update(embeddings.row(i));
        }
        model
    }

    /// Number of samples absorbed so far.
    pub fn n_samples(&self) -> usize {
        self.n
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bins per dimension.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Whether these histograms score `dim`-dimensional samples: a check
    /// for decoded models, whose shapes nothing else guarantees.
    pub(crate) fn has_shape(&self, dim: usize) -> bool {
        self.dim == dim
            && self.bins >= 1
            && self.mins.len() == dim
            && self.maxs.len() == dim
            && dim.checked_mul(self.bins) == Some(self.counts.len())
    }

    /// Bin index for in-range values, clamping into the edge bins.
    fn bin_clamped(&self, j: usize, v: f32) -> usize {
        let lo = self.mins[j];
        let hi = self.maxs[j];
        if hi <= lo {
            return 0; // degenerate dimension: single bin
        }
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * self.bins as f32) as usize).min(self.bins - 1)
    }

    /// Bin index for scoring: values outside the fitted range by more
    /// than half a bin width are out of distribution (`None`), which the
    /// score treats as an empty bin — the standard HBOS convention.
    fn bin_scored(&self, j: usize, v: f32) -> Option<usize> {
        let lo = self.mins[j];
        let hi = self.maxs[j];
        if hi <= lo {
            let tol = lo.abs().max(1.0) * 1e-5;
            return if (v - lo).abs() <= tol { Some(0) } else { None };
        }
        let half_width = (hi - lo) / (2.0 * self.bins as f32);
        if v < lo - half_width || v > hi + half_width {
            return None;
        }
        Some(self.bin_clamped(j, v))
    }

    /// Absorbs one sample into the histograms (online model update).
    pub fn update(&mut self, sample: &[f32]) {
        assert_eq!(sample.len(), self.dim, "sample dimensionality mismatch");
        for (j, &v) in sample.iter().enumerate() {
            let b = self.bin_clamped(j, v);
            self.counts[j * self.bins + b] += 1.0;
        }
        self.n += 1;
    }

    /// Raw HBOS score (paper Eq. 9): `Σ_j log(1 / hist_j(h_j))` with bin
    /// heights normalized per dimension to max 1 and floored at half an
    /// observation so empty and out-of-range bins stay finite while still
    /// scoring as maximally abnormal.
    pub fn raw_score(&self, sample: &[f32]) -> f64 {
        assert_eq!(sample.len(), self.dim, "sample dimensionality mismatch");
        let mut score = 0.0f64;
        for (j, &v) in sample.iter().enumerate() {
            let row = &self.counts[j * self.bins..(j + 1) * self.bins];
            let max_count = row.iter().cloned().fold(0.0f64, f64::max).max(1.0);
            let floor = 0.5 / max_count;
            let height = match self.bin_scored(j, v) {
                Some(b) => (row[b] / max_count).max(floor),
                None => floor,
            };
            score += (1.0 / height).ln();
        }
        score
    }

    /// Raw scores of a whole embedding matrix.
    pub fn raw_scores(&self, embeddings: &Tensor) -> Vec<f64> {
        (0..embeddings.rows()).map(|i| self.raw_score(embeddings.row(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 60 samples: 4-D mass packed around 0.5 with a thin tail at 0.8 —
    /// the clustered shape real embeddings have.
    fn tight_cluster() -> Tensor {
        Tensor::from_fn(60, 4, |i, j| {
            if i % 20 == 19 {
                0.8
            } else {
                0.48 + ((i * 3 + j * 5) % 5) as f32 / 100.0
            }
        })
    }

    #[test]
    fn inliers_score_below_outliers() {
        let train = tight_cluster();
        let model = HistogramModel::fit(&train, 8);
        let inlier = [0.5f32, 0.5, 0.5, 0.5];
        let tail = [0.8f32, 0.8, 0.8, 0.8]; // rare but seen
        let far = [5.0f32, -5.0, 5.0, -5.0]; // out of distribution
        assert!(model.raw_score(&inlier) < model.raw_score(&tail));
        assert!(model.raw_score(&tail) < model.raw_score(&far));
        assert!(model.raw_score(&far).is_finite());
    }

    #[test]
    fn empty_bins_stay_finite() {
        let train = Tensor::from_fn(10, 2, |i, _| i as f32);
        let model = HistogramModel::fit(&train, 100);
        // Most of the 100 bins are empty.
        let s = model.raw_score(&[0.5, 3.5]);
        assert!(s.is_finite());
    }

    #[test]
    fn update_shifts_scores() {
        let train = tight_cluster();
        let mut model = HistogramModel::fit(&train, 8);
        let novel = [0.6f32, 0.6, 0.6, 0.6]; // in range, sparse region
        let before = model.raw_score(&novel);
        for _ in 0..30 {
            model.update(&novel);
        }
        let after = model.raw_score(&novel);
        assert!(after < before, "absorbing a region must lower its score");
        assert_eq!(model.n_samples(), 90);
    }

    #[test]
    fn degenerate_dimension_is_safe() {
        // Dimension 1 is constant across training.
        let train = Tensor::from_fn(20, 2, |i, j| if j == 0 { i as f32 } else { 3.0 });
        let model = HistogramModel::fit(&train, 5);
        assert!(model.raw_score(&[10.0, 3.0]).is_finite());
        assert!(model.raw_score(&[10.0, 99.0]).is_finite());
        // The constant dimension accepts its constant and rejects others.
        assert!(model.raw_score(&[10.0, 99.0]) > model.raw_score(&[10.0, 3.0]));
    }

    #[test]
    fn out_of_range_scores_as_empty_bin() {
        let train = Tensor::from_fn(30, 1, |i, _| (i % 10) as f32);
        let model = HistogramModel::fit(&train, 10);
        // Out-of-distribution values score strictly above every seen bin.
        assert!(model.raw_score(&[-100.0]) > model.raw_score(&[0.0]));
        assert!(model.raw_score(&[100.0]) > model.raw_score(&[9.0]));
        // But updates clamp into the edge bins without panicking.
        let mut m = model.clone();
        m.update(&[-100.0]);
        assert_eq!(m.n_samples(), 31);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let model = HistogramModel::fit(&tight_cluster(), 4);
        model.raw_score(&[0.0, 0.0]);
    }
}
