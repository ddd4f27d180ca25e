//! PCA rotation for the histogram detector — an extension beyond the
//! paper.
//!
//! HBOS histograms are axis-aligned; when the informative directions of
//! the embedding cloud are oblique, per-dimension histograms blur them.
//! Rotating embeddings into the training cloud's principal axes
//! concentrates variance into the leading coordinates and often sharpens
//! the in/out score separation. Enabled with
//! [`crate::GemConfig::pca_rotation`] and evaluated in the `ablation`
//! experiment.

use serde::{Deserialize, Serialize};

use gem_nn::linalg::{jacobi_eigen, SymMatrix};
use gem_nn::Tensor;

/// An orthonormal rotation into the principal axes of a training set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PcaRotation {
    /// Per-dimension mean of the training data.
    mean: Vec<f32>,
    /// Row-major `(d × d)` rotation; row `k` is the k-th principal axis.
    basis: Tensor,
    /// Eigenvalues (variances) per principal axis, descending.
    pub variances: Vec<f64>,
}

impl PcaRotation {
    /// Fits the rotation from a `(n × d)` training matrix.
    pub fn fit(train: &Tensor) -> PcaRotation {
        let (n, d) = train.shape();
        assert!(n >= 2, "PCA needs at least two samples");
        let mut mean = vec![0.0f32; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(train.row(i)) {
                *m += v / n as f32;
            }
        }
        // Covariance (d × d).
        let mut cov = SymMatrix::zeros(d);
        for i in 0..n {
            let row = train.row(i);
            for a in 0..d {
                let xa = (row[a] - mean[a]) as f64;
                for b in a..d {
                    let xb = (row[b] - mean[b]) as f64;
                    let v = cov.get(a, b) + xa * xb / (n as f64 - 1.0);
                    cov.set(a, b, v);
                    cov.set(b, a, v);
                }
            }
        }
        let eigen = jacobi_eigen(cov, 1e-10, 80);
        let mut basis = Tensor::zeros(d, d);
        for k in 0..d {
            for i in 0..d {
                basis[(k, i)] = eigen.vector_component(k, i) as f32;
            }
        }
        PcaRotation { mean, basis, variances: eigen.values }
    }

    /// Rotates one vector into principal-axis coordinates.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        let d = x.len();
        let mut out = vec![0.0f32; d];
        for (k, slot) in out.iter_mut().enumerate() {
            let axis = self.basis.row(k);
            *slot = x.iter().zip(&self.mean).zip(axis).map(|((&v, &m), &a)| (v - m) * a).sum();
        }
        out
    }

    /// Whether this rotates `d`-dimensional vectors: a check for decoded
    /// rotations, whose shapes nothing else guarantees.
    pub(crate) fn has_dim(&self, d: usize) -> bool {
        self.mean.len() == d && self.basis.shape() == (d, d) && self.basis.len() == d * d
    }

    /// Rotates every row of a matrix.
    pub fn apply_matrix(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            out.set_row(i, &self.apply(x.row(i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points along an oblique line + noise: PCA must align axis 0 with
    /// the line.
    fn oblique_cloud() -> Tensor {
        Tensor::from_fn(60, 3, |i, j| {
            let t = i as f32 / 10.0;
            let noise = ((i * 7 + j * 13) % 11) as f32 / 200.0;
            match j {
                0 => t + noise,
                1 => 2.0 * t + noise,
                _ => noise,
            }
        })
    }

    #[test]
    fn first_axis_captures_most_variance() {
        let pca = PcaRotation::fit(&oblique_cloud());
        assert!(pca.variances[0] > 10.0 * pca.variances[1]);
        assert!(pca.variances.windows(2).all(|w| w[0] >= w[1] - 1e-9));
    }

    #[test]
    fn rotation_preserves_pairwise_distances() {
        let cloud = oblique_cloud();
        let pca = PcaRotation::fit(&cloud);
        let rotated = pca.apply_matrix(&cloud);
        for (i, j) in [(0usize, 10usize), (5, 40), (12, 59)] {
            let before = Tensor::row_distance(&cloud, i, &cloud, j);
            let after = Tensor::row_distance(&rotated, i, &rotated, j);
            assert!((before - after).abs() < 1e-4, "{before} vs {after}");
        }
    }

    #[test]
    fn rotated_cloud_is_centered() {
        let cloud = oblique_cloud();
        let pca = PcaRotation::fit(&cloud);
        let rotated = pca.apply_matrix(&cloud);
        for k in 0..3 {
            let mean: f32 =
                (0..rotated.rows()).map(|i| rotated.row(i)[k]).sum::<f32>() / rotated.rows() as f32;
            assert!(mean.abs() < 1e-4, "axis {k} mean {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let pca = PcaRotation::fit(&oblique_cloud());
        pca.apply(&[1.0, 2.0]);
    }
}
