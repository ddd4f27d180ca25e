//! Runtime-dispatched SIMD kernels under the tensor API.
//!
//! Every hot loop of the numeric stack funnels through this module: the
//! blocked matmul cores, the `y += α·x` accumulate (axpy) that dominates
//! neighborhood aggregation, the LeakyReLU activation sweep and the
//! Jacobi row rotation of the f64 eigensolver. Each kernel has an
//! arch-agnostic scalar reference and, on `x86_64`, an AVX2 variant
//! selected **once** at startup via `is_x86_feature_detected!` — std
//! only, no new dependencies. Setting `GEM_FORCE_SCALAR=1` pins the
//! process to the scalar reference (the CI escape hatch and A/B lever).
//!
//! # Determinism contract
//!
//! The SIMD variants are **bit-identical** to the scalar reference, not
//! merely close. This is possible because every vectorized loop is
//! element-independent: each output element is produced by the same
//! sequence of individually rounded operations in both variants — SIMD
//! only computes eight elements of that sequence at a time. In
//! particular the matmul cores keep each output element a single chain
//! of adds in ascending-`k` order (the invariant the training
//! determinism proptests pin), and no reduction is ever reassociated.
//! Order-sensitive reductions (row sums, norms, dot products) are *not*
//! vectorized for exactly that reason. Every `acc + a·b` rounds the
//! multiply and the add separately; no kernel contracts them into a
//! fused multiply-add.

use std::sync::OnceLock;

/// Which kernel implementation backs the dispatched entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Arch-agnostic scalar reference (also the forced-CI mode).
    Scalar,
    /// AVX2 `std::arch` kernels.
    Avx2,
}

impl Backend {
    /// Stable lowercase name, logged into bench result lines.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// The process-wide dispatch decision, resolved once on first use:
/// AVX2 when the CPU has it and `GEM_FORCE_SCALAR` is not `1`.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if std::env::var("GEM_FORCE_SCALAR").as_deref() == Ok("1") {
            return Backend::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
        }
        Backend::Scalar
    })
}

/// Name of the dispatched backend (`"scalar"` / `"avx2"`).
pub fn backend_name() -> &'static str {
    backend().name()
}

/// Rows handled per register tile of the matmul cores.
const MR: usize = 4;
/// `k`-panel height: the slab of `b` rows kept hot in cache while a
/// block of output rows is updated.
const K_PANEL: usize = 256;

// ---------------------------------------------------------------------------
// matmul: out += a · b  (a: m×k, b: k×n, out: m×n; caller zeroes out)
// ---------------------------------------------------------------------------

/// Dispatched `out += a · b` with `a: m×k`, `b: k×n`, `out: m×n`
/// (caller zeroes `out`). Each output element is one chain of adds in
/// ascending-`k` order on every backend.
#[inline]
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_with(backend(), a, b, out, m, k, n);
}

/// [`matmul`] with an explicit backend (bench/test hook; the dispatched
/// entry points always pass [`backend()`]).
pub fn matmul_with(
    be: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n, "matmul slice bounds");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match be {
        Backend::Scalar => matmul_scalar(a, b, out, m, k, n),
        // SAFETY: the slice bounds are asserted above, and `Avx2` is only
        // passed where `backend()` detected AVX2.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::matmul(a, b, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("Avx2 backend is never selected off x86_64"),
    }
}

/// The cache-blocked, register-tiled ikj scalar core (the reference the
/// SIMD variants are bit-equal to).
fn matmul_scalar(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for k0 in (0..k).step_by(K_PANEL) {
        let k1 = (k0 + K_PANEL).min(k);
        let mut i = 0;
        while i + MR <= m {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            let block = &mut out[i * n..(i + MR) * n];
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for kk in k0..k1 {
                let b_row = &b[kk * n..kk * n + n];
                let (c0, c1, c2, c3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                for ((((&bv, v0), v1), v2), v3) in
                    b_row.iter().zip(&mut *o0).zip(&mut *o1).zip(&mut *o2).zip(&mut *o3)
                {
                    *v0 += c0 * bv;
                    *v1 += c1 * bv;
                    *v2 += c2 * bv;
                    *v3 += c3 * bv;
                }
            }
            i += MR;
        }
        while i < m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &c) in a_row.iter().enumerate().take(k1).skip(k0) {
                let b_row = &b[kk * n..kk * n + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += c * bv;
                }
            }
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 kernel bodies. Every function here carries
    //! `#[target_feature(enable = "avx2")]` so the whole loop body
    //! compiles with 256-bit vectors; callers go through the checked
    //! dispatch in the parent module.
    use super::{K_PANEL, MR};
    use std::arch::x86_64::*;

    /// `acc + c·x`, the multiply and the add rounded separately.
    #[inline(always)]
    unsafe fn madd(acc: __m256, c: __m256, x: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(c, x))
    }

    /// Lane mask enabling the low `t` (1..=7) of 8 f32 lanes, for
    /// maskload/maskstore column tails. Disabled lanes are never read
    /// or written, so tails at the end of a buffer stay in bounds.
    #[inline(always)]
    unsafe fn tail_mask(t: usize) -> __m256i {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(t as i32), idx)
    }

    /// Register-accumulated blocked matmul: output tiles of `MR`
    /// rows × 16 columns stay in ymm registers across each k-panel
    /// (loaded once, stored once), instead of a load+store per `kk`.
    /// The 16-wide strip runs 8 multiply-adds per 6 loads, past the
    /// load-port bound of an 8-wide tile; leftover columns take one
    /// 8-wide strip and then a masked strip, so no column runs scalar.
    /// Per output element this is still the same ascending-`k` chain of
    /// individually rounded ops as the scalar core.
    ///
    /// # Safety
    /// Caller must verify AVX2 support and slice bounds
    /// (`a ≥ m·k`, `b ≥ k·n`, `out ≥ m·n`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let n8 = n - n % 8;
        for k0 in (0..k).step_by(K_PANEL) {
            let k1 = (k0 + K_PANEL).min(k);
            let mut i = 0;
            while i + MR <= m {
                // Full 16-wide column strips: 4 rows × 2 vectors of
                // accumulators (8 multiply-adds per 4 broadcasts + 2 `b`
                // loads).
                let mut j = 0;
                while j + 16 <= n {
                    let mut acc00 = _mm256_loadu_ps(op.add(i * n + j));
                    let mut acc01 = _mm256_loadu_ps(op.add(i * n + j + 8));
                    let mut acc10 = _mm256_loadu_ps(op.add((i + 1) * n + j));
                    let mut acc11 = _mm256_loadu_ps(op.add((i + 1) * n + j + 8));
                    let mut acc20 = _mm256_loadu_ps(op.add((i + 2) * n + j));
                    let mut acc21 = _mm256_loadu_ps(op.add((i + 2) * n + j + 8));
                    let mut acc30 = _mm256_loadu_ps(op.add((i + 3) * n + j));
                    let mut acc31 = _mm256_loadu_ps(op.add((i + 3) * n + j + 8));
                    for kk in k0..k1 {
                        let bv0 = _mm256_loadu_ps(bp.add(kk * n + j));
                        let bv1 = _mm256_loadu_ps(bp.add(kk * n + j + 8));
                        let c0 = _mm256_set1_ps(*ap.add(i * k + kk));
                        acc00 = madd(acc00, c0, bv0);
                        acc01 = madd(acc01, c0, bv1);
                        let c1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
                        acc10 = madd(acc10, c1, bv0);
                        acc11 = madd(acc11, c1, bv1);
                        let c2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
                        acc20 = madd(acc20, c2, bv0);
                        acc21 = madd(acc21, c2, bv1);
                        let c3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
                        acc30 = madd(acc30, c3, bv0);
                        acc31 = madd(acc31, c3, bv1);
                    }
                    _mm256_storeu_ps(op.add(i * n + j), acc00);
                    _mm256_storeu_ps(op.add(i * n + j + 8), acc01);
                    _mm256_storeu_ps(op.add((i + 1) * n + j), acc10);
                    _mm256_storeu_ps(op.add((i + 1) * n + j + 8), acc11);
                    _mm256_storeu_ps(op.add((i + 2) * n + j), acc20);
                    _mm256_storeu_ps(op.add((i + 2) * n + j + 8), acc21);
                    _mm256_storeu_ps(op.add((i + 3) * n + j), acc30);
                    _mm256_storeu_ps(op.add((i + 3) * n + j + 8), acc31);
                    j += 16;
                }
                // At most one leftover full 8-wide strip.
                if j < n8 {
                    let mut acc0 = _mm256_loadu_ps(op.add(i * n + j));
                    let mut acc1 = _mm256_loadu_ps(op.add((i + 1) * n + j));
                    let mut acc2 = _mm256_loadu_ps(op.add((i + 2) * n + j));
                    let mut acc3 = _mm256_loadu_ps(op.add((i + 3) * n + j));
                    for kk in k0..k1 {
                        let bv = _mm256_loadu_ps(bp.add(kk * n + j));
                        let c0 = _mm256_set1_ps(*ap.add(i * k + kk));
                        let c1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
                        let c2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
                        let c3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
                        acc0 = madd(acc0, c0, bv);
                        acc1 = madd(acc1, c1, bv);
                        acc2 = madd(acc2, c2, bv);
                        acc3 = madd(acc3, c3, bv);
                    }
                    _mm256_storeu_ps(op.add(i * n + j), acc0);
                    _mm256_storeu_ps(op.add((i + 1) * n + j), acc1);
                    _mm256_storeu_ps(op.add((i + 2) * n + j), acc2);
                    _mm256_storeu_ps(op.add((i + 3) * n + j), acc3);
                    j += 8;
                }
                // Masked column tail: disabled lanes load as 0.0 and are
                // never stored, so the enabled lanes run the exact
                // scalar chain order.
                if j < n {
                    let mask = tail_mask(n - j);
                    let mut acc0 = _mm256_maskload_ps(op.add(i * n + j), mask);
                    let mut acc1 = _mm256_maskload_ps(op.add((i + 1) * n + j), mask);
                    let mut acc2 = _mm256_maskload_ps(op.add((i + 2) * n + j), mask);
                    let mut acc3 = _mm256_maskload_ps(op.add((i + 3) * n + j), mask);
                    for kk in k0..k1 {
                        let bv = _mm256_maskload_ps(bp.add(kk * n + j), mask);
                        let c0 = _mm256_set1_ps(*ap.add(i * k + kk));
                        let c1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
                        let c2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
                        let c3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
                        acc0 = madd(acc0, c0, bv);
                        acc1 = madd(acc1, c1, bv);
                        acc2 = madd(acc2, c2, bv);
                        acc3 = madd(acc3, c3, bv);
                    }
                    _mm256_maskstore_ps(op.add(i * n + j), mask, acc0);
                    _mm256_maskstore_ps(op.add((i + 1) * n + j), mask, acc1);
                    _mm256_maskstore_ps(op.add((i + 2) * n + j), mask, acc2);
                    _mm256_maskstore_ps(op.add((i + 3) * n + j), mask, acc3);
                }
                i += MR;
            }
            // Row tail: one accumulator row at a time.
            while i < m {
                let mut j = 0;
                while j < n8 {
                    let mut acc = _mm256_loadu_ps(op.add(i * n + j));
                    for kk in k0..k1 {
                        let bv = _mm256_loadu_ps(bp.add(kk * n + j));
                        let c = _mm256_set1_ps(*ap.add(i * k + kk));
                        acc = madd(acc, c, bv);
                    }
                    _mm256_storeu_ps(op.add(i * n + j), acc);
                    j += 8;
                }
                while j < n {
                    let mut s = *op.add(i * n + j);
                    for kk in k0..k1 {
                        s += *ap.add(i * k + kk) * *bp.add(kk * n + j);
                    }
                    *op.add(i * n + j) = s;
                    j += 1;
                }
                i += 1;
            }
        }
    }

    /// Register-accumulated `out += aᵀ · b` with `a: k×m` stored
    /// untransposed, `b: k×n`, `out: m×n`. The ascending-`kk` chain per
    /// output element matches the scalar streaming core bit for bit.
    ///
    /// # Safety
    /// Caller must verify AVX2 support and slice bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_tn(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        n: usize,
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let n8 = n - n % 8;
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j < n8 {
                let mut acc0 = _mm256_loadu_ps(op.add(i * n + j));
                let mut acc1 = _mm256_loadu_ps(op.add((i + 1) * n + j));
                let mut acc2 = _mm256_loadu_ps(op.add((i + 2) * n + j));
                let mut acc3 = _mm256_loadu_ps(op.add((i + 3) * n + j));
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(bp.add(kk * n + j));
                    let c0 = _mm256_set1_ps(*ap.add(kk * m + i));
                    let c1 = _mm256_set1_ps(*ap.add(kk * m + i + 1));
                    let c2 = _mm256_set1_ps(*ap.add(kk * m + i + 2));
                    let c3 = _mm256_set1_ps(*ap.add(kk * m + i + 3));
                    acc0 = madd(acc0, c0, bv);
                    acc1 = madd(acc1, c1, bv);
                    acc2 = madd(acc2, c2, bv);
                    acc3 = madd(acc3, c3, bv);
                }
                _mm256_storeu_ps(op.add(i * n + j), acc0);
                _mm256_storeu_ps(op.add((i + 1) * n + j), acc1);
                _mm256_storeu_ps(op.add((i + 2) * n + j), acc2);
                _mm256_storeu_ps(op.add((i + 3) * n + j), acc3);
                j += 8;
            }
            while j < n {
                let mut s0 = *op.add(i * n + j);
                let mut s1 = *op.add((i + 1) * n + j);
                let mut s2 = *op.add((i + 2) * n + j);
                let mut s3 = *op.add((i + 3) * n + j);
                for kk in 0..k {
                    let bv = *bp.add(kk * n + j);
                    s0 += *ap.add(kk * m + i) * bv;
                    s1 += *ap.add(kk * m + i + 1) * bv;
                    s2 += *ap.add(kk * m + i + 2) * bv;
                    s3 += *ap.add(kk * m + i + 3) * bv;
                }
                *op.add(i * n + j) = s0;
                *op.add((i + 1) * n + j) = s1;
                *op.add((i + 2) * n + j) = s2;
                *op.add((i + 3) * n + j) = s3;
                j += 1;
            }
            i += MR;
        }
        while i < m {
            let mut j = 0;
            while j < n8 {
                let mut acc = _mm256_loadu_ps(op.add(i * n + j));
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(bp.add(kk * n + j));
                    let c = _mm256_set1_ps(*ap.add(kk * m + i));
                    acc = madd(acc, c, bv);
                }
                _mm256_storeu_ps(op.add(i * n + j), acc);
                j += 8;
            }
            while j < n {
                let mut s = *op.add(i * n + j);
                for kk in 0..k {
                    s += *ap.add(kk * m + i) * *bp.add(kk * n + j);
                }
                *op.add(i * n + j) = s;
                j += 1;
            }
            i += 1;
        }
    }

    /// `y[i] += α·x[i]`, separately rounded (bit-equal to scalar).
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `y.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let len = y.len();
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= len {
            let yv = _mm256_loadu_ps(yp.add(i));
            let xv = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(yv, _mm256_mul_ps(a, xv)));
            i += 8;
        }
        while i < len {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// LeakyReLU sweep `x = if x ≥ 0 { x } else { slope·x }` (the
    /// compare admits `-0.0`, matching the scalar branch).
    ///
    /// # Safety
    /// Caller must verify AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn leaky_relu(xs: &mut [f32], slope: f32) {
        let len = xs.len();
        let p = xs.as_mut_ptr();
        let s = _mm256_set1_ps(slope);
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= len {
            let x = _mm256_loadu_ps(p.add(i));
            let neg = _mm256_mul_ps(s, x);
            let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
            _mm256_storeu_ps(p.add(i), _mm256_blendv_ps(neg, x, keep));
            i += 8;
        }
        while i < len {
            let x = *p.add(i);
            *p.add(i) = if x >= 0.0 { x } else { slope * x };
            i += 1;
        }
    }

    /// Jacobi row rotation: `(p, q) ← (c·p − s·q, s·p + c·q)`
    /// element-wise over two equal-length f64 rows, each output from
    /// the scalar op sequence (two muls, one sub/add).
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `p.len() == q.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rotate_rows_f64(p: &mut [f64], q: &mut [f64], c: f64, s: f64) {
        let len = p.len();
        let pp = p.as_mut_ptr();
        let qp = q.as_mut_ptr();
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 4 <= len {
            let x = _mm256_loadu_pd(pp.add(i));
            let y = _mm256_loadu_pd(qp.add(i));
            let np = _mm256_sub_pd(_mm256_mul_pd(cv, x), _mm256_mul_pd(sv, y));
            let nq = _mm256_add_pd(_mm256_mul_pd(sv, x), _mm256_mul_pd(cv, y));
            _mm256_storeu_pd(pp.add(i), np);
            _mm256_storeu_pd(qp.add(i), nq);
            i += 4;
        }
        while i < len {
            let (x, y) = (*pp.add(i), *qp.add(i));
            *pp.add(i) = c * x - s * y;
            *qp.add(i) = s * x + c * y;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// matmul_tn: out += aᵀ · b  (a: k×m stored untransposed, b: k×n, out: m×n)
// ---------------------------------------------------------------------------

/// Dispatched `out += aᵀ · b` without materializing the transpose
/// (`a: k×m` as stored, `b: k×n`, `out: m×n`; caller zeroes `out`).
#[inline]
pub fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    matmul_tn_with(backend(), a, b, out, k, m, n);
}

/// [`matmul_tn`] with an explicit backend.
pub fn matmul_tn_with(
    be: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    assert!(a.len() >= k * m && b.len() >= k * n && out.len() >= m * n, "matmul_tn slice bounds");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match be {
        Backend::Scalar => matmul_tn_scalar(a, b, out, k, m, n),
        // SAFETY: the slice bounds are asserted above, and `Avx2` is only
        // passed where `backend()` detected AVX2.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::matmul_tn(a, b, out, k, m, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("Avx2 backend is never selected off x86_64"),
    }
}

/// Streaming scalar `out += aᵀ·b` core: both inputs row-contiguous, four
/// output rows updated per `b` row read (the reference the AVX2 variant
/// is bit-equal to).
fn matmul_tn_scalar(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        let mut i = 0;
        while i + MR <= m {
            let block = &mut out[i * n..(i + MR) * n];
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let (c0, c1, c2, c3) = (a_row[i], a_row[i + 1], a_row[i + 2], a_row[i + 3]);
            for ((((&bv, v0), v1), v2), v3) in
                b_row.iter().zip(&mut *o0).zip(&mut *o1).zip(&mut *o2).zip(&mut *o3)
            {
                *v0 += c0 * bv;
                *v1 += c1 * bv;
                *v2 += c2 * bv;
                *v3 += c3 * bv;
            }
            i += MR;
        }
        while i < m {
            let c = a_row[i];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += c * bv;
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Element-independent helpers
// ---------------------------------------------------------------------------

/// Dispatched `y[i] += α·x[i]` (separately rounded on every backend;
/// this is the accumulate inside neighborhood aggregation, gradient
/// scatter, and the segment-weighted sums).
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    axpy_with(backend(), y, alpha, x);
}

/// [`axpy`] with an explicit backend.
pub fn axpy_with(be: Backend, y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    match be {
        Backend::Scalar => {
            for (o, &v) in y.iter_mut().zip(x) {
                *o += alpha * v;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::axpy(y, alpha, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("Avx2 backend is never selected off x86_64"),
    }
}

/// Dispatched in-place LeakyReLU sweep `x ← if x ≥ 0 { x } else
/// { slope·x }`.
#[inline]
pub fn leaky_relu(xs: &mut [f32], slope: f32) {
    leaky_relu_with(backend(), xs, slope);
}

/// [`leaky_relu`] with an explicit backend.
pub fn leaky_relu_with(be: Backend, xs: &mut [f32], slope: f32) {
    match be {
        Backend::Scalar => {
            for x in xs {
                if *x < 0.0 {
                    *x *= slope;
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::leaky_relu(xs, slope) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("Avx2 backend is never selected off x86_64"),
    }
}

/// Dispatched Jacobi row rotation `(p, q) ← (c·p − s·q, s·p + c·q)`
/// over two equal-length f64 rows (the eigensolver's hot pass).
#[inline]
pub fn rotate_rows_f64(p: &mut [f64], q: &mut [f64], c: f64, s: f64) {
    rotate_rows_f64_with(backend(), p, q, c, s);
}

/// [`rotate_rows_f64`] with an explicit backend.
pub fn rotate_rows_f64_with(be: Backend, p: &mut [f64], q: &mut [f64], c: f64, s: f64) {
    assert_eq!(p.len(), q.len(), "rotate_rows_f64 length mismatch");
    match be {
        Backend::Scalar => {
            for (apk, aqk) in p.iter_mut().zip(q.iter_mut()) {
                let (x, y) = (*apk, *aqk);
                *apk = c * x - s * y;
                *aqk = s * x + c * y;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::rotate_rows_f64(p, q, c, s) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("Avx2 backend is never selected off x86_64"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill exercising varied magnitudes.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
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

    fn both_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if backend() == Backend::Avx2 {
            v.push(Backend::Avx2);
        }
        v
    }

    #[test]
    fn backend_name_is_stable() {
        assert!(matches!(backend_name(), "scalar" | "avx2"));
    }

    #[test]
    fn matmul_backends_bitwise_equal() {
        for &(m, k, n) in &[(1usize, 7usize, 1usize), (4, 8, 16), (5, 13, 9), (7, 300, 70)] {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 3, k * n);
            let mut reference = vec![0.0f32; m * n];
            matmul_with(Backend::Scalar, &a, &b, &mut reference, m, k, n);
            for be in both_backends() {
                let mut out = vec![0.0f32; m * n];
                matmul_with(be, &a, &b, &mut out, m, k, n);
                assert_eq!(out, reference, "{be:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_tn_backends_bitwise_equal() {
        for &(k, m, n) in &[(7usize, 1usize, 9usize), (8, 4, 8), (13, 6, 11)] {
            let a = fill(k as u64 + 5, k * m);
            let b = fill(n as u64 + 7, k * n);
            let mut reference = vec![0.0f32; m * n];
            matmul_tn_with(Backend::Scalar, &a, &b, &mut reference, k, m, n);
            for be in both_backends() {
                let mut out = vec![0.0f32; m * n];
                matmul_tn_with(be, &a, &b, &mut out, k, m, n);
                assert_eq!(out, reference, "{be:?} {k}x{m}x{n}");
            }
        }
    }

    #[test]
    fn helper_backends_bitwise_equal() {
        for len in [0usize, 1, 7, 8, 9, 31, 64] {
            let x = fill(len as u64 + 11, len);
            let mut ys: Vec<Vec<f32>> = Vec::new();
            let mut acts: Vec<Vec<f32>> = Vec::new();
            let mut rots: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
            for be in both_backends() {
                let mut y = fill(len as u64 + 23, len);
                axpy_with(be, &mut y, 0.37, &x);
                ys.push(y);
                let mut act = fill(len as u64 + 29, len);
                leaky_relu_with(be, &mut act, 0.01);
                acts.push(act);
                let mut p: Vec<f64> =
                    fill(len as u64 + 41, len).iter().map(|&v| v as f64).collect();
                let mut q: Vec<f64> =
                    fill(len as u64 + 43, len).iter().map(|&v| v as f64).collect();
                rotate_rows_f64_with(be, &mut p, &mut q, 0.8, 0.6);
                rots.push((p, q));
            }
            for w in ys.windows(2) {
                assert_eq!(w[0], w[1]);
            }
            for w in acts.windows(2) {
                assert_eq!(w[0], w[1]);
            }
            for w in rots.windows(2) {
                assert_eq!(w[0], w[1]);
            }
        }
    }
}
