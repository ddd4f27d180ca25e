//! Property-based tests for the runtime-dispatched SIMD kernels.
//!
//! The kernels' determinism contract says the AVX2 variants are
//! **bit-identical** to the scalar reference across every ragged shape
//! the register tiling has to tail-handle: single rows (1×K), single
//! columns (K×1), odd K, and widths that are not a multiple of the
//! 8-lane block. These proptests pin that contract.
//!
//! On hardware without AVX2 (or with `GEM_FORCE_SCALAR=1`) the
//! backend list collapses to `[Scalar]` and the parity assertions are
//! trivially scalar-vs-scalar; CI runs the suite in both modes.

use proptest::prelude::*;

use gem_nn::kernels::{
    axpy_with, backend, leaky_relu_with, matmul_tn_with, matmul_with, rotate_rows_f64_with,
};
use gem_nn::Backend;

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if backend() == Backend::Avx2 {
        v.push(Backend::Avx2);
    }
    v
}

/// Ragged matmul shapes: a family selector biases toward the tail cases
/// (m below the MR=4 row tile, n below/around the 8-lane block, odd K,
/// K straddling the 256-wide k-panel) while still covering general
/// multi-tile shapes.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..5, 1usize..10, 1usize..300, 1usize..20).prop_map(|(family, m, k, n)| match family {
        0 => (m, 1 + k % 40, n),                 // general small shapes
        1 => (1, k, n),                          // single row (1×K)
        2 => (m, k, 1),                          // single column (K×1)
        3 => (1 + m % 5, 255 + k % 5, n),        // K straddles the k-panel
        _ => (1 + m % 5, 1 + k % 20, 7 + n % 3), // n at/just off the 8-lane block
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_simd_matches_scalar_bitwise_on_ragged_shapes(
        (m, k, n) in shape_strategy(),
        seed in 0u64..1_000,
    ) {
        let a = seeded(seed, m * k);
        let b = seeded(seed ^ 0xABCD, k * n);
        let mut reference = vec![0.0f32; m * n];
        matmul_with(Backend::Scalar, &a, &b, &mut reference, m, k, n);
        for be in backends() {
            let mut out = vec![0.0f32; m * n];
            matmul_with(be, &a, &b, &mut out, m, k, n);
            prop_assert_eq!(&out, &reference, "{:?} {}x{}x{}", be, m, k, n);
        }
    }

    #[test]
    fn matmul_tn_simd_matches_scalar_bitwise_on_ragged_shapes(
        (m, k, n) in shape_strategy(),
        seed in 0u64..1_000,
    ) {
        // a is k×m as stored (transposed product), same tail coverage.
        let a = seeded(seed, k * m);
        let b = seeded(seed ^ 0x1234, k * n);
        let mut reference = vec![0.0f32; m * n];
        matmul_tn_with(Backend::Scalar, &a, &b, &mut reference, k, m, n);
        for be in backends() {
            let mut out = vec![0.0f32; m * n];
            matmul_tn_with(be, &a, &b, &mut out, k, m, n);
            prop_assert_eq!(&out, &reference, "{:?} {}x{}x{}", be, k, m, n);
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar_bitwise_on_ragged_lengths(
        len in 0usize..70,
        alpha in -4.0f32..4.0,
        xs in prop::collection::vec(-8.0f32..8.0, 0..70),
    ) {
        let len = len.min(xs.len());
        let x = &xs[..len];
        let mut axpys = Vec::new();
        let mut acts = Vec::new();
        let mut rots = Vec::new();
        for be in backends() {
            let mut y: Vec<f32> = x.iter().map(|v| v * 0.5 - 1.0).collect();
            axpy_with(be, &mut y, alpha, x);
            axpys.push(y);
            let mut act = x.to_vec();
            leaky_relu_with(be, &mut act, 0.01);
            acts.push(act);
            let mut p: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            let mut q: Vec<f64> = x.iter().map(|&v| v as f64 * 1.5 + 0.1).collect();
            rotate_rows_f64_with(be, &mut p, &mut q, 0.8, 0.6);
            rots.push((p, q));
        }
        for w in axpys.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "axpy len {}", len);
        }
        for w in acts.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "leaky_relu len {}", len);
        }
        for w in rots.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "rotate_rows_f64 len {}", len);
        }
    }
}

/// Deterministic xorshift fill so shape cases stay reproducible across
/// proptest reruns (the shape is the interesting input, not the data).
fn seeded(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Degenerate shapes the proptest ranges cannot hit: empty dims are a
/// no-op on every backend, and special values flow through unchanged.
#[test]
fn zero_sized_dims_are_noops() {
    for be in backends() {
        let mut out = [1.0f32; 4];
        matmul_with(be, &[], &[], &mut out, 0, 3, 0);
        matmul_with(be, &[1.0; 4], &[], &mut out, 2, 2, 0);
        matmul_with(be, &[], &[1.0; 4], &mut out, 0, 2, 2);
        matmul_with(be, &[1.0; 2], &[1.0; 2], &mut out, 2, 0, 2);
        matmul_tn_with(be, &[], &[], &mut out, 0, 2, 2);
        assert_eq!(out, [1.0; 4], "{be:?} zero-dim matmul must not touch out");
        axpy_with(be, &mut [], 2.0, &[]);
        leaky_relu_with(be, &mut [], 0.01);
        rotate_rows_f64_with(be, &mut [], &mut [], 0.8, 0.6);
    }
}

#[test]
fn leaky_relu_special_values_agree_across_backends() {
    // 9 elements: one full 8-lane block plus a scalar tail, covering
    // ±0.0 (sign-sensitive in the `x >= 0` compare) and NaN.
    let template = [0.0f32, -0.0, 1.5, -1.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2.0, -2.0];
    let mut outs: Vec<Vec<f32>> = Vec::new();
    for be in backends() {
        let mut xs = template.to_vec();
        leaky_relu_with(be, &mut xs, 0.01);
        outs.push(xs);
    }
    for w in outs.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "leaky_relu special-value divergence");
        }
    }
    // And pin the semantics both paths share: -0.0 is kept as-is
    // (`-0.0 < 0.0` and `-0.0 >= 0.0` agree it is non-negative), and a
    // quiet NaN stays the same quiet NaN (untouched on the scalar
    // branch, propagated unchanged through `slope·NaN` on the SIMD
    // blend).
    let s = &outs[0];
    assert_eq!(s[0].to_bits(), 0.0f32.to_bits());
    assert_eq!(s[1].to_bits(), (-0.0f32).to_bits());
    assert!(s[4].is_nan());
}
