//! Reverse-mode automatic differentiation on a per-step tape.
//!
//! Usage pattern (define-by-run): create a [`Graph`] for each training
//! step, build the computation with the op methods (values are computed
//! eagerly), call [`Graph::backward`] on the scalar loss, then let an
//! optimizer consume the gradients accumulated in the [`ParamStore`].
//!
//! The op set is deliberately small — exactly what BiSAGE, GraphSAGE and
//! the autoencoder baseline need — and every op's gradient is validated
//! against central finite differences in this module's tests.
//!
//! # Memory architecture
//!
//! Two features make a steady-state training step allocation-free:
//!
//! * **Arena-backed buffers** — a graph built with [`Graph::with_arena`]
//!   draws every node value and gradient buffer from a
//!   [`TensorArena`]; [`Graph::reset`] (or drop) returns them, so the
//!   next step of the same shape reuses the warm buffers. Index and
//!   target buffers (`Gather`, `SelectRows`, `BceWithLogitsMean`) are
//!   `Arc`-shared with the caller instead of copied per op.
//! * **Sparse gradients** — a parameter registered as an embedding table
//!   via [`ParamStore::mark_sparse`] tracks exactly which rows received
//!   gradient (the rows `Gather` scattered into); [`GradStore`] keeps a
//!   touched-rows representation for such params so detached sinks never
//!   zero or reduce full tables. All sparse paths are bit-identical to
//!   the dense ones they shortcut: untouched rows hold exact `+0.0`
//!   gradients, and skipping `x + 0.0` / `0.0 * s` is an IEEE-754
//!   identity for the values that can occur here.

use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::arena::TensorArena;
use crate::kernels;
use crate::tensor::Tensor;

/// Handle to a learnable parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Rows of a sparse-tracked parameter that received gradient this step.
///
/// `dirty` is a per-row flag (scanned in ascending row order wherever
/// summation order matters, so results match the dense full scan bit for
/// bit); `rows` is the unordered insertion list used for cheap clearing.
#[derive(Clone, Debug, Default)]
struct TouchedRows {
    dirty: Vec<bool>,
    rows: Vec<u32>,
    all: bool,
}

impl TouchedRows {
    fn new(rows: usize) -> Self {
        TouchedRows { dirty: vec![false; rows], rows: Vec::new(), all: false }
    }

    #[inline]
    fn mark(&mut self, r: u32) {
        if !self.dirty[r as usize] {
            self.dirty[r as usize] = true;
            self.rows.push(r);
        }
    }

    fn clear(&mut self) {
        for &r in &self.rows {
            self.dirty[r as usize] = false;
        }
        self.rows.clear();
        self.all = false;
    }
}

/// Which rows of a parameter carry gradient this step (see
/// [`ParamStore::collect_touched_rows`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touched {
    /// Not sparse-tracked: treat as fully dense.
    Untracked,
    /// Sparse-tracked, but a dense write touched every row.
    All,
    /// Sparse-tracked; only the collected rows carry gradient.
    Rows,
}

/// A named, learnable tensor plus its gradient accumulator.
#[derive(Clone, Debug)]
struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// `Some` for embedding-table params with row-sparse gradients.
    touched: Option<TouchedRows>,
}

/// Container of all learnable parameters of a model.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.params.push(Param { name: name.into(), value, grad, touched: None });
        ParamId(self.params.len() - 1)
    }

    /// Declares a parameter an embedding table with row-sparse gradients:
    /// the store starts tracking which rows receive gradient, so
    /// [`ParamStore::zero_grads`], norm/clip, and sparse-aware optimizers
    /// do work proportional to the touched rows instead of the table.
    pub fn mark_sparse(&mut self, id: ParamId) {
        let rows = self.params[id.0].value.rows();
        self.params[id.0].touched = Some(TouchedRows::new(rows));
    }

    /// True when the parameter is tracked as row-sparse.
    pub fn is_sparse(&self, id: ParamId) -> bool {
        self.params[id.0].touched.is_some()
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Borrow a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutably borrow a parameter value (optimizers, manual edits).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Borrow a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutably borrow a parameter's gradient.
    ///
    /// For sparse-tracked params the caller takes responsibility for the
    /// touched-row invariant; direct writes conservatively mark all rows.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        if let Some(t) = &mut self.params[id.0].touched {
            t.all = true;
        }
        &mut self.params[id.0].grad
    }

    /// Simultaneous `(&mut value, &grad)` borrow for allocation-free
    /// optimizer update loops.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let p = &mut self.params[id.0];
        (&mut p.value, &p.grad)
    }

    /// Appends the touched rows of `id` in ascending order to `out`
    /// (cleared first) and reports the tracking state. `Untracked` and
    /// `All` leave `out` empty: the gradient must be treated as dense.
    pub fn collect_touched_rows(&self, id: ParamId, out: &mut Vec<u32>) -> Touched {
        out.clear();
        match &self.params[id.0].touched {
            None => Touched::Untracked,
            Some(t) if t.all => Touched::All,
            Some(t) => {
                // Ascending scan of the dirty bitmap, not the unordered
                // insertion list, so callers see a deterministic order.
                for (r, &d) in t.dirty.iter().enumerate() {
                    if d {
                        out.push(r as u32);
                    }
                }
                Touched::Rows
            }
        }
    }

    /// Zeroes every gradient accumulator (start of a step). Sparse-tracked
    /// params only zero their touched rows — untouched rows are already
    /// exactly zero by the tracking invariant.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            match &mut p.touched {
                Some(t) if !t.all => {
                    for &r in &t.rows {
                        p.grad.row_mut(r as usize).fill(0.0);
                    }
                    t.clear();
                }
                Some(t) => {
                    p.grad.fill_zero();
                    t.clear();
                }
                None => p.grad.fill_zero(),
            }
        }
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    ///
    /// Sparse-tracked params sum only their touched rows, scanned in
    /// ascending row order: skipping the exact-zero untouched rows is a
    /// bitwise no-op relative to the dense full scan (`acc + 0.0·0.0`
    /// never changes `acc`, and the accumulator of non-negative squares
    /// can never be `-0.0`).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| match &p.touched {
                Some(t) if !t.all => {
                    let mut acc = 0.0f32;
                    for (r, &d) in t.dirty.iter().enumerate() {
                        if d {
                            for &x in p.grad.row(r) {
                                acc += x * x;
                            }
                        }
                    }
                    acc
                }
                _ => p.grad.norm_sq(),
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Sparse-tracked params scale only touched rows (`0.0 × s` is a
    /// bitwise no-op on the untouched exact zeros).
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                match &p.touched {
                    Some(t) if !t.all => {
                        for &r in &t.rows {
                            for x in p.grad.row_mut(r as usize) {
                                *x *= s;
                            }
                        }
                    }
                    _ => p.grad.scale_in_place(s),
                }
            }
        }
    }

    /// Accumulates `alpha ×` the sink's gradients into this store's
    /// accumulators — the fixed-order reduction step of data-parallel
    /// training (reduce every worker sink in chunk order, then step).
    pub fn apply_grads(&mut self, sink: &GradStore, alpha: f32) {
        assert_eq!(sink.entries.len(), self.params.len(), "sink shaped for a different store");
        for (p, entry) in self.params.iter_mut().zip(&sink.entries) {
            match entry {
                SinkEntry::Empty => {}
                SinkEntry::Dense(g) => {
                    p.grad.axpy(alpha, g);
                    if let Some(t) = &mut p.touched {
                        t.all = true;
                    }
                }
                SinkEntry::Sparse(s) => {
                    for (slot, &r) in s.rows.iter().enumerate() {
                        let src = &s.data[slot * s.cols..(slot + 1) * s.cols];
                        for (d, &x) in p.grad.row_mut(r as usize).iter_mut().zip(src) {
                            *d += alpha * x;
                        }
                        if let Some(t) = &mut p.touched {
                            t.mark(r);
                        }
                    }
                }
            }
        }
    }
}

/// Row-sparse gradient for an embedding table: `rows[slot]` is the table
/// row stored at `data[slot·cols ..]`, in first-touch order; `slot_of`
/// maps table rows back to slots (`u32::MAX` = untouched). Clearing
/// retains all allocations, so a reused sink allocates nothing.
#[derive(Clone, Debug)]
pub struct SparseGrad {
    cols: usize,
    slot_of: Vec<u32>,
    rows: Vec<u32>,
    data: Vec<f32>,
}

const NO_SLOT: u32 = u32::MAX;

impl SparseGrad {
    fn new(table_rows: usize, cols: usize) -> Self {
        SparseGrad { cols, slot_of: vec![NO_SLOT; table_rows], rows: Vec::new(), data: Vec::new() }
    }

    fn matches(&self, table_rows: usize, cols: usize) -> bool {
        self.slot_of.len() == table_rows && self.cols == cols
    }

    fn clear(&mut self) {
        for &r in &self.rows {
            self.slot_of[r as usize] = NO_SLOT;
        }
        self.rows.clear();
        self.data.clear();
    }

    #[inline]
    fn slot_for(&mut self, r: u32) -> usize {
        let s = self.slot_of[r as usize];
        if s != NO_SLOT {
            return s as usize;
        }
        let s = self.rows.len();
        self.slot_of[r as usize] = s as u32;
        self.rows.push(r);
        self.data.resize(self.data.len() + self.cols, 0.0);
        s
    }

    /// Accumulates `grad` row `i` into table row `indices[i]`, in the same
    /// per-element order a dense scatter uses (ascending `i`), so the
    /// accumulated values are bit-identical to the dense path.
    fn scatter(&mut self, indices: &[u32], grad: &Tensor) {
        debug_assert_eq!(grad.cols(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            let slot = self.slot_for(r);
            let dst = &mut self.data[slot * self.cols..(slot + 1) * self.cols];
            for (d, &x) in dst.iter_mut().zip(grad.row(i)) {
                *d += x;
            }
        }
    }

    /// Touched table rows in first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.rows
    }

    /// Gradient row for slot `i` of [`SparseGrad::touched`].
    pub fn slot_row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// One parameter's gradient inside a [`GradStore`]: nothing yet, a dense
/// tensor, or a row-sparse table gradient. The representation is chosen
/// by the first backward write (`Param` ⇒ dense, `Gather` ⇒ sparse) and
/// then sticks across [`GradStore::ensure_like`] re-arms so buffers warm
/// up once.
#[derive(Clone, Debug)]
enum SinkEntry {
    Empty,
    Dense(Tensor),
    Sparse(SparseGrad),
}

/// Parameter gradients decoupled from the [`ParamStore`] that owns the
/// values. Data-parallel workers each run [`Graph::backward_into`] against
/// a private sink while sharing one read-only store; the reducer then
/// folds the sinks back with [`ParamStore::apply_grads`] in a fixed order,
/// which keeps training results independent of the thread count.
#[derive(Clone, Debug, Default)]
pub struct GradStore {
    entries: Vec<SinkEntry>,
    shapes: Vec<(usize, usize)>,
}

impl GradStore {
    /// An empty sink (re-arm with [`GradStore::ensure_like`] before use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero gradients shaped like every parameter of `store`.
    pub fn zeros_like(store: &ParamStore) -> Self {
        let mut sink = Self::default();
        sink.ensure_like(store);
        sink
    }

    /// Re-shapes the sink to match `store` and clears everything, reusing
    /// allocations whose shapes already agree — the cheap per-chunk re-arm
    /// for a thread-local sink.
    pub fn ensure_like(&mut self, store: &ParamStore) {
        self.entries.resize_with(store.params.len(), || SinkEntry::Empty);
        self.shapes.resize(store.params.len(), (0, 0));
        for ((entry, shape), p) in
            self.entries.iter_mut().zip(self.shapes.iter_mut()).zip(&store.params)
        {
            *shape = p.value.shape();
            match entry {
                SinkEntry::Dense(g) if g.shape() == *shape => g.fill_zero(),
                SinkEntry::Sparse(s) if s.matches(shape.0, shape.1) => s.clear(),
                SinkEntry::Empty => {}
                other => *other = SinkEntry::Empty,
            }
        }
    }

    /// The dense gradient tensor, when this parameter's gradient is held
    /// densely (`None` for untouched or sparse entries).
    pub fn dense(&self, id: ParamId) -> Option<&Tensor> {
        match &self.entries[id.0] {
            SinkEntry::Dense(g) => Some(g),
            _ => None,
        }
    }

    /// The row-sparse gradient, when this parameter's gradient is held
    /// sparsely (`None` for untouched or dense entries).
    pub fn sparse(&self, id: ParamId) -> Option<&SparseGrad> {
        match &self.entries[id.0] {
            SinkEntry::Sparse(s) => Some(s),
            _ => None,
        }
    }

    /// Materializes the gradient for a parameter as a dense tensor
    /// (tests, diagnostics).
    pub fn to_dense(&self, id: ParamId) -> Tensor {
        let (rows, cols) = self.shapes[id.0];
        match &self.entries[id.0] {
            SinkEntry::Empty => Tensor::zeros(rows, cols),
            SinkEntry::Dense(g) => g.clone(),
            SinkEntry::Sparse(s) => {
                let mut out = Tensor::zeros(rows, cols);
                for (slot, &r) in s.rows.iter().enumerate() {
                    out.row_mut(r as usize).copy_from_slice(s.slot_row(slot));
                }
                out
            }
        }
    }

    /// Folds `other`'s gradients into this sink — the associative
    /// combine step of a gradient tree reduction. Sparse rows merge in
    /// `other`'s first-touch order and dense entries add element-wise,
    /// so the result depends only on the merge *topology* (which is
    /// fixed by chunk index), never on which thread produced a sink:
    /// a fixed tree gives bit-identical results for any thread count.
    pub fn merge_from(&mut self, other: &GradStore) {
        assert_eq!(other.entries.len(), self.entries.len(), "sinks shaped for different stores");
        for i in 0..self.entries.len() {
            match &other.entries[i] {
                SinkEntry::Empty => {}
                SinkEntry::Dense(g) => {
                    self.dense_entry(ParamId(i)).axpy(1.0, g);
                }
                SinkEntry::Sparse(s) => match &mut self.entries[i] {
                    SinkEntry::Empty => {
                        self.entries[i] = SinkEntry::Sparse(s.clone());
                    }
                    SinkEntry::Sparse(dst) => {
                        debug_assert!(dst.matches(s.slot_of.len(), s.cols));
                        for (slot, &r) in s.rows.iter().enumerate() {
                            let d = dst.slot_for(r);
                            let dst_row = &mut dst.data[d * s.cols..(d + 1) * s.cols];
                            let src_row = &s.data[slot * s.cols..(slot + 1) * s.cols];
                            for (a, &b) in dst_row.iter_mut().zip(src_row) {
                                *a += b;
                            }
                        }
                    }
                    SinkEntry::Dense(dst) => {
                        for (slot, &r) in s.rows.iter().enumerate() {
                            let src = &s.data[slot * s.cols..(slot + 1) * s.cols];
                            for (a, &b) in dst.row_mut(r as usize).iter_mut().zip(src) {
                                *a += b;
                            }
                        }
                    }
                },
            }
        }
    }

    fn dense_entry(&mut self, id: ParamId) -> &mut Tensor {
        let (rows, cols) = self.shapes[id.0];
        match &self.entries[id.0] {
            SinkEntry::Empty => {
                self.entries[id.0] = SinkEntry::Dense(Tensor::zeros(rows, cols));
            }
            SinkEntry::Sparse(_) => {
                // A dense write folding into a sparse entry: promote to
                // dense (rare — a model using both `param` and `gather`
                // on one table).
                let dense = self.to_dense(id);
                self.entries[id.0] = SinkEntry::Dense(dense);
            }
            SinkEntry::Dense(_) => {}
        }
        match &mut self.entries[id.0] {
            SinkEntry::Dense(g) => g,
            _ => unreachable!(),
        }
    }
}

/// Destination of parameter gradients during the reverse pass: either the
/// store itself (single-threaded path) or a detached [`GradStore`].
trait GradSink {
    fn add_dense(&mut self, id: ParamId, grad: &Tensor);
    fn scatter_rows(&mut self, id: ParamId, indices: &[u32], grad: &Tensor);
}

impl GradSink for ParamStore {
    fn add_dense(&mut self, id: ParamId, grad: &Tensor) {
        let p = &mut self.params[id.0];
        p.grad.axpy(1.0, grad);
        if let Some(t) = &mut p.touched {
            t.all = true;
        }
    }

    fn scatter_rows(&mut self, id: ParamId, indices: &[u32], grad: &Tensor) {
        let p = &mut self.params[id.0];
        for (i, &r) in indices.iter().enumerate() {
            let dst = p.grad.row_mut(r as usize);
            for (d, &s) in dst.iter_mut().zip(grad.row(i)) {
                *d += s;
            }
            if let Some(t) = &mut p.touched {
                t.mark(r);
            }
        }
    }
}

impl GradSink for GradStore {
    fn add_dense(&mut self, id: ParamId, grad: &Tensor) {
        self.dense_entry(id).axpy(1.0, grad);
    }

    fn scatter_rows(&mut self, id: ParamId, indices: &[u32], grad: &Tensor) {
        let (rows, cols) = self.shapes[id.0];
        let entry = &mut self.entries[id.0];
        if let SinkEntry::Empty = entry {
            *entry = SinkEntry::Sparse(SparseGrad::new(rows, cols));
        }
        match entry {
            SinkEntry::Sparse(s) => s.scatter(indices, grad),
            SinkEntry::Dense(g) => {
                for (i, &r) in indices.iter().enumerate() {
                    let dst = g.row_mut(r as usize);
                    for (d, &s) in dst.iter_mut().zip(grad.row(i)) {
                        *d += s;
                    }
                }
            }
            SinkEntry::Empty => unreachable!(),
        }
    }
}

/// Cheap conversion into the `Arc`-shared index buffers tape ops store.
/// Callers that pre-build indices once per tree pass an `Arc` (zero-copy);
/// slices and vecs still work and copy once at op construction.
pub trait IntoIndexArc {
    /// Converts into a shared index buffer.
    fn into_index_arc(self) -> Arc<Vec<u32>>;
}

impl IntoIndexArc for Arc<Vec<u32>> {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        self
    }
}

impl IntoIndexArc for &Arc<Vec<u32>> {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        Arc::clone(self)
    }
}

impl IntoIndexArc for Vec<u32> {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        Arc::new(self)
    }
}

impl IntoIndexArc for &Vec<u32> {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        Arc::new(self.clone())
    }
}

impl IntoIndexArc for &[u32] {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        Arc::new(self.to_vec())
    }
}

impl<const N: usize> IntoIndexArc for &[u32; N] {
    fn into_index_arc(self) -> Arc<Vec<u32>> {
        Arc::new(self.to_vec())
    }
}

/// Cheap conversion into the `Arc`-shared target buffers tape ops store.
pub trait IntoTargetArc {
    /// Converts into a shared target buffer.
    fn into_target_arc(self) -> Arc<Vec<f32>>;
}

impl IntoTargetArc for Arc<Vec<f32>> {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        self
    }
}

impl IntoTargetArc for &Arc<Vec<f32>> {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        Arc::clone(self)
    }
}

impl IntoTargetArc for Vec<f32> {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        Arc::new(self)
    }
}

impl IntoTargetArc for &Vec<f32> {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        Arc::new(self.clone())
    }
}

impl IntoTargetArc for &[f32] {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        Arc::new(self.to_vec())
    }
}

impl<const N: usize> IntoTargetArc for &[f32; N] {
    fn into_target_arc(self) -> Arc<Vec<f32>> {
        Arc::new(self.to_vec())
    }
}

/// Nonlinearities supported by [`Graph::activation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x for x ≥ 0, 0.01·x otherwise.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Pass-through.
    Identity,
}

impl Activation {
    /// The element-wise nonlinearity itself. Public so forward-only
    /// consumers (the tape-free inference engine) apply *exactly* the
    /// arithmetic [`Graph::activation`] applies — bitwise-parity tests
    /// between the two paths rely on this being the same code.
    #[inline]
    pub fn forward(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Applies the nonlinearity across a slice in place. Semantically
    /// `for x in xs { *x = self.forward(*x) }`, but element-independent
    /// cases route through the dispatched SIMD kernels — with results
    /// bit-identical to the scalar loop, so the tape/engine parity
    /// contract extends unchanged.
    #[inline]
    pub fn forward_slice(self, xs: &mut [f32]) {
        match self {
            Activation::LeakyRelu => kernels::leaky_relu(xs, 0.01),
            Activation::Identity => {}
            _ => {
                for x in xs {
                    *x = self.forward(*x);
                }
            }
        }
    }

    /// Derivative given the input `x` and output `y`.
    #[inline]
    fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Constant leaf (inputs to the network; receives no gradient).
    Constant,
    /// Full parameter matrix.
    Param(ParamId),
    /// Selected rows of a parameter table (embedding lookup).
    Gather { param: ParamId, indices: Arc<Vec<u32>> },
    /// `a · b`.
    MatMul(Var, Var),
    /// `a + b`, same shape.
    Add(Var, Var),
    /// `a - b`, same shape.
    Sub(Var, Var),
    /// Element-wise product, same shape.
    MulElem(Var, Var),
    /// `c · a`.
    Scale(Var, f32),
    /// Horizontal concatenation `[a | b]`.
    ConcatCols(Var, Var),
    /// Element-wise nonlinearity.
    Act(Var, Activation),
    /// Row-wise L2 normalization (paper Eq. 7).
    RowL2Norm(Var),
    /// Per-segment weighted sum of input rows: output row `s` is
    /// `Σ_{j ∈ seg s} weights[j] · input_row[j]`. This is the paper's
    /// weighted aggregator over sampled neighborhoods.
    SegmentWeightedSum { input: Var, offsets: Arc<Vec<u32>>, weights: Arc<Vec<f32>> },
    /// Copies selected rows of another node's value (slicing, repeating).
    SelectRows { input: Var, indices: Arc<Vec<u32>> },
    /// Row-wise dot product of two same-shape matrices → `(m × 1)`.
    RowsDot(Var, Var),
    /// Broadcast row-vector bias add: `(m × n) + (1 × n)`.
    AddBias(Var, Var),
    /// Mean binary-cross-entropy with logits against fixed targets → `1 × 1`.
    BceWithLogitsMean { scores: Var, targets: Arc<Vec<f32>> },
    /// Mean squared error against a fixed target → `1 × 1`.
    MseMean { pred: Var, target: Tensor },
    /// 1-D convolution with bias over channel-major rows.
    Conv1d {
        input: Var,
        kernel: Var,
        bias: Var,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        in_len: usize,
    },
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
}

/// A define-by-run computation tape.
///
/// Built with [`Graph::with_arena`], all node value/gradient buffers are
/// drawn from (and recycled to) the arena; the node list itself keeps its
/// capacity across [`Graph::reset`], so a warm graph rebuilds a
/// same-shaped step without heap allocations.
pub struct Graph {
    nodes: Vec<Node>,
    arena: Option<Rc<TensorArena>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        self.reset();
    }
}

impl Graph {
    /// Creates an empty tape (plain heap allocation, no arena).
    pub fn new() -> Self {
        Graph { nodes: Vec::new(), arena: None }
    }

    /// Creates an empty tape whose node buffers come from `arena`.
    pub fn with_arena(arena: Rc<TensorArena>) -> Self {
        Graph { nodes: Vec::new(), arena: Some(arena) }
    }

    /// The arena backing this tape, if any.
    pub fn arena(&self) -> Option<&Rc<TensorArena>> {
        self.arena.as_ref()
    }

    /// Clears the tape for reuse, recycling every node value and gradient
    /// buffer into the arena (when present). Also runs on drop.
    pub fn reset(&mut self) {
        match &self.arena {
            Some(arena) => {
                for node in self.nodes.drain(..) {
                    arena.recycle(node.value);
                    if let Some(g) = node.grad {
                        arena.recycle(g);
                    }
                }
            }
            None => self.nodes.clear(),
        }
    }

    /// A zeroed tensor from the arena (or the heap without one).
    fn alloc(&self, rows: usize, cols: usize) -> Tensor {
        match &self.arena {
            Some(arena) => arena.alloc(rows, cols),
            None => Tensor::zeros(rows, cols),
        }
    }

    /// An arena-backed copy of `src`.
    fn alloc_copy(&self, src: &Tensor) -> Tensor {
        let mut t = self.alloc(src.rows(), src.cols());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Returns a scratch tensor to the arena (no-op without one).
    fn recycle(&self, t: Tensor) {
        if let Some(arena) = &self.arena {
            arena.recycle(t);
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value, grad: None });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of a node after [`Graph::backward`] (if it received one).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a constant (non-learnable) leaf.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(Op::Constant, value)
    }

    /// References a full parameter matrix.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = self.alloc_copy(store.value(id));
        self.push(Op::Param(id), value)
    }

    /// Looks up rows of a parameter table (embedding gather).
    pub fn gather(&mut self, store: &ParamStore, id: ParamId, indices: impl IntoIndexArc) -> Var {
        let indices = indices.into_index_arc();
        let table = store.value(id);
        let mut value = self.alloc(indices.len(), table.cols());
        for (i, &idx) in indices.iter().enumerate() {
            value.set_row(i, table.row(idx as usize));
        }
        self.push(Op::Gather { param: id, indices }, value)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc(self.value(a).rows(), self.value(b).cols());
        self.value(a).matmul_into(self.value(b), &mut value);
        self.push(Op::MatMul(a, b), value)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        value.axpy(1.0, self.value(b));
        self.push(Op::Add(a, b), value)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        value.axpy(-1.0, self.value(b));
        self.push(Op::Sub(a, b), value)
    }

    /// Element-wise product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape());
        let mut value = self.alloc(self.value(a).rows(), self.value(a).cols());
        for ((o, &x), &y) in
            value.data_mut().iter_mut().zip(self.value(a).data()).zip(self.value(b).data())
        {
            *o = x * y;
        }
        self.push(Op::MulElem(a, b), value)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let mut value = self.alloc(self.value(a).rows(), self.value(a).cols());
        for (o, &x) in value.data_mut().iter_mut().zip(self.value(a).data()) {
            *o = c * x;
        }
        self.push(Op::Scale(a, c), value)
    }

    /// Horizontal concatenation `[a | b]` (paper's CONCAT in Eq. 4/6).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (m, n1, n2) = {
            let (av, bv) = (self.value(a), self.value(b));
            assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
            (av.rows(), av.cols(), bv.cols())
        };
        let mut value = self.alloc(m, n1 + n2);
        {
            let av = self.value(a);
            let bv = self.value(b);
            for i in 0..m {
                value.row_mut(i)[..n1].copy_from_slice(av.row(i));
                value.row_mut(i)[n1..].copy_from_slice(bv.row(i));
            }
        }
        self.push(Op::ConcatCols(a, b), value)
    }

    /// Element-wise nonlinearity.
    pub fn activation(&mut self, a: Var, act: Activation) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        act.forward_slice(value.data_mut());
        self.push(Op::Act(a, act), value)
    }

    /// Row-wise L2 normalization (paper Eq. 7). Zero rows stay zero.
    pub fn row_l2_normalize(&mut self, a: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        for i in 0..value.rows() {
            let norm = value.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for x in value.row_mut(i) {
                    *x /= norm;
                }
            }
        }
        self.push(Op::RowL2Norm(a), value)
    }

    /// Weighted aggregation over sampled neighborhoods: `offsets` has one
    /// entry per output row giving the start of its segment in `input`
    /// (plus a final end sentinel); `weights` has one entry per input row.
    /// Callers normalize weights per segment to implement the paper's
    /// weighted-mean aggregator.
    ///
    /// The buffers are taken as (convertible-to) `Arc`s so a caller that
    /// reuses one neighborhood tree across several ops shares the
    /// allocations instead of cloning them per forward pass.
    pub fn segment_weighted_sum(
        &mut self,
        input: Var,
        offsets: impl Into<Arc<Vec<u32>>>,
        weights: impl Into<Arc<Vec<f32>>>,
    ) -> Var {
        let offsets = offsets.into();
        let weights = weights.into();
        let (n_seg, d) = {
            let inp = self.value(input);
            assert_eq!(weights.len(), inp.rows(), "one weight per input row");
            assert!(!offsets.is_empty(), "offsets needs an end sentinel");
            assert_eq!(*offsets.last().unwrap() as usize, inp.rows(), "sentinel mismatch");
            (offsets.len() - 1, inp.cols())
        };
        let mut value = self.alloc(n_seg, d);
        {
            let inp = self.value(input);
            for s in 0..n_seg {
                let (lo, hi) = (offsets[s] as usize, offsets[s + 1] as usize);
                let dst = value.row_mut(s);
                for (j, &w) in weights.iter().enumerate().take(hi).skip(lo) {
                    kernels::axpy(dst, w, inp.row(j));
                }
            }
        }
        self.push(Op::SegmentWeightedSum { input, offsets, weights }, value)
    }

    /// Selects rows of a node's value by index (repetition allowed) —
    /// used to slice batches apart and to align positives with their
    /// repeated negative samples.
    pub fn select_rows(&mut self, input: Var, indices: impl IntoIndexArc) -> Var {
        let indices = indices.into_index_arc();
        let mut value = self.alloc(indices.len(), self.value(input).cols());
        {
            let inp = self.value(input);
            for (i, &idx) in indices.iter().enumerate() {
                value.set_row(i, inp.row(idx as usize));
            }
        }
        self.push(Op::SelectRows { input, indices }, value)
    }

    /// Row-wise dot products → column vector.
    pub fn rows_dot(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "rows_dot shape mismatch");
        let m = self.value(a).rows();
        let mut value = self.alloc(m, 1);
        {
            let (av, bv) = (self.value(a), self.value(b));
            for i in 0..m {
                value[(i, 0)] = av.row(i).iter().zip(bv.row(i)).map(|(&x, &y)| x * y).sum();
            }
        }
        self.push(Op::RowsDot(a, b), value)
    }

    /// Broadcast row-bias add.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        {
            let (av, bv) = (self.value(a), self.value(bias));
            assert_eq!(bv.rows(), 1, "bias must be a row vector");
            assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        }
        let mut value = self.alloc_copy(self.value(a));
        {
            let bv = self.value(bias);
            for i in 0..value.rows() {
                for (x, &b) in value.row_mut(i).iter_mut().zip(bv.row(0)) {
                    *x += b;
                }
            }
        }
        self.push(Op::AddBias(a, bias), value)
    }

    /// Mean binary cross-entropy with logits: implements the negative-
    /// sampling loss (paper Eq. 8) with targets 1 for positive pairs and 0
    /// for negatives. Numerically stable softplus formulation.
    pub fn bce_with_logits_mean(&mut self, scores: Var, targets: impl IntoTargetArc) -> Var {
        let targets = targets.into_target_arc();
        let sv = self.value(scores);
        assert_eq!(sv.cols(), 1, "scores must be a column vector");
        assert_eq!(sv.rows(), targets.len(), "one target per score");
        let m = targets.len().max(1);
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let s = sv[(i, 0)];
            // softplus(s) - t*s, stable for |s| large.
            let softplus = s.max(0.0) + (-s.abs()).exp().ln_1p();
            loss += (softplus - t * s) as f64;
        }
        let mut value = self.alloc(1, 1);
        value[(0, 0)] = (loss / m as f64) as f32;
        self.push(Op::BceWithLogitsMean { scores, targets }, value)
    }

    /// Mean squared error against a fixed target.
    pub fn mse_mean(&mut self, pred: Var, target: Tensor) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse shape mismatch");
        let n = pv.len().max(1);
        let mut loss = 0.0f64;
        for (&p, &t) in pv.data().iter().zip(target.data()) {
            let d = (p - t) as f64;
            loss += d * d;
        }
        let mut value = self.alloc(1, 1);
        value[(0, 0)] = (loss / n as f64) as f32;
        self.push(Op::MseMean { pred, target }, value)
    }

    /// Valid (no-padding) 1-D convolution with per-output-channel bias.
    ///
    /// `input` rows are channel-major: `in_ch` blocks of `in_len` samples.
    /// `kernel` is `(out_ch × in_ch·ksize)`; `bias` is `(1 × out_ch)`.
    /// Output rows are `out_ch` blocks of `out_len` samples where
    /// `out_len = (in_len - ksize) / stride + 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d(
        &mut self,
        input: Var,
        kernel: Var,
        bias: Var,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
    ) -> Var {
        let (in_len, out_len, batch) = {
            let (iv, kv, bv) = (self.value(input), self.value(kernel), self.value(bias));
            assert_eq!(iv.cols() % in_ch, 0, "input width must be in_ch * in_len");
            let in_len = iv.cols() / in_ch;
            assert!(in_len >= ksize, "input shorter than kernel");
            assert_eq!(kv.shape(), (out_ch, in_ch * ksize), "kernel shape");
            assert_eq!(bv.shape(), (1, out_ch), "bias shape");
            ((iv.cols() / in_ch), (in_len - ksize) / stride + 1, iv.rows())
        };
        let mut value = self.alloc(batch, out_ch * out_len);
        {
            let (iv, kv, bv) = (self.value(input), self.value(kernel), self.value(bias));
            for b in 0..batch {
                let in_row = iv.row(b);
                for oc in 0..out_ch {
                    let k_row = kv.row(oc);
                    let bias_v = bv[(0, oc)];
                    for p in 0..out_len {
                        let mut acc = bias_v;
                        for ic in 0..in_ch {
                            let in_base = ic * in_len + p * stride;
                            let k_base = ic * ksize;
                            for kk in 0..ksize {
                                acc += in_row[in_base + kk] * k_row[k_base + kk];
                            }
                        }
                        value[(b, oc * out_len + p)] = acc;
                    }
                }
            }
        }
        self.push(Op::Conv1d { input, kernel, bias, in_ch, out_ch, ksize, stride, in_len }, value)
    }

    /// Adds an owned `delta` into the gradient of `v`, recycling the
    /// buffer when the node already has one.
    fn accumulate(&mut self, v: Var, delta: Tensor) {
        let spare = {
            let node = &mut self.nodes[v.0];
            match &mut node.grad {
                Some(g) => {
                    g.axpy(1.0, &delta);
                    Some(delta)
                }
                None => {
                    node.grad = Some(delta);
                    None
                }
            }
        };
        if let Some(t) = spare {
            self.recycle(t);
        }
    }

    /// Adds a borrowed `delta` into the gradient of `v` (copying only
    /// when the node has no gradient yet).
    fn accumulate_ref(&mut self, v: Var, delta: &Tensor) {
        if self.nodes[v.0].grad.is_some() {
            self.nodes[v.0].grad.as_mut().unwrap().axpy(1.0, delta);
        } else {
            let copy = self.alloc_copy(delta);
            self.nodes[v.0].grad = Some(copy);
        }
    }

    /// Runs the reverse pass from scalar node `loss` (seeded with 1.0),
    /// accumulating parameter gradients into `store`.
    ///
    /// The tape is consumed structurally: ops are taken out as they are
    /// processed, so `backward` can only run once per graph. Node values
    /// and gradients remain readable afterwards.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_impl(loss, store);
    }

    /// [`Graph::backward`] writing into a detached [`GradStore`] instead
    /// of the parameter store. The store is never touched, so workers on
    /// other threads can backprop concurrently against one shared
    /// `&ParamStore` snapshot, each into its own sink.
    pub fn backward_into(&mut self, loss: Var, sink: &mut GradStore) {
        self.backward_impl(loss, sink);
    }

    fn backward_impl<S: GradSink>(&mut self, loss: Var, store: &mut S) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut seed = self.alloc(1, 1);
        seed[(0, 0)] = 1.0;
        self.nodes[loss.0].grad = Some(seed);

        for idx in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[idx].grad.take() else {
                continue;
            };
            // Take the op out to release the borrow on `self.nodes`.
            let op = std::mem::replace(&mut self.nodes[idx].op, Op::Constant);
            match op {
                Op::Constant => {}
                Op::Param(id) => {
                    store.add_dense(id, &grad);
                }
                Op::Gather { param, indices } => {
                    store.scatter_rows(param, &indices, &grad);
                }
                Op::MatMul(a, b) => {
                    let mut da = self.alloc(grad.rows(), self.value(b).rows());
                    grad.matmul_nt_into(self.value(b), &mut da);
                    let mut db = self.alloc(self.value(a).cols(), grad.cols());
                    self.value(a).matmul_tn_into(&grad, &mut db);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Add(a, b) => {
                    self.accumulate_ref(a, &grad);
                    self.accumulate_ref(b, &grad);
                }
                Op::Sub(a, b) => {
                    self.accumulate_ref(a, &grad);
                    let mut neg = self.alloc_copy(&grad);
                    neg.scale_in_place(-1.0);
                    self.accumulate(b, neg);
                }
                Op::MulElem(a, b) => {
                    let mut da = self.alloc(grad.rows(), grad.cols());
                    let mut db = self.alloc(grad.rows(), grad.cols());
                    for ((d, &g), &y) in
                        da.data_mut().iter_mut().zip(grad.data()).zip(self.value(b).data())
                    {
                        *d = g * y;
                    }
                    for ((e, &g), &x) in
                        db.data_mut().iter_mut().zip(grad.data()).zip(self.value(a).data())
                    {
                        *e = g * x;
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Scale(a, c) => {
                    let mut da = self.alloc(grad.rows(), grad.cols());
                    for (d, &g) in da.data_mut().iter_mut().zip(grad.data()) {
                        *d = c * g;
                    }
                    self.accumulate(a, da);
                }
                Op::ConcatCols(a, b) => {
                    let n1 = self.value(a).cols();
                    let n2 = self.value(b).cols();
                    let m = grad.rows();
                    let mut da = self.alloc(m, n1);
                    let mut db = self.alloc(m, n2);
                    for i in 0..m {
                        da.row_mut(i).copy_from_slice(&grad.row(i)[..n1]);
                        db.row_mut(i).copy_from_slice(&grad.row(i)[n1..]);
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Act(a, act) => {
                    let mut da = self.alloc(grad.rows(), grad.cols());
                    {
                        let x = self.value(a);
                        let y = &self.nodes[idx].value;
                        for ((d, &g), (&xv, &yv)) in da
                            .data_mut()
                            .iter_mut()
                            .zip(grad.data())
                            .zip(x.data().iter().zip(y.data()))
                        {
                            *d = g * act.derivative(xv, yv);
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::RowL2Norm(a) => {
                    let mut da = self.alloc(grad.rows(), grad.cols());
                    {
                        let x = self.value(a);
                        let y = &self.nodes[idx].value;
                        for i in 0..grad.rows() {
                            let norm = x.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
                            if norm <= 1e-12 {
                                continue; // forward left the row at zero
                            }
                            let y_row = y.row(i);
                            let g_row = grad.row(i);
                            let ydotg: f32 = y_row.iter().zip(g_row).map(|(&a, &b)| a * b).sum();
                            for ((d, &g), &yv) in da.row_mut(i).iter_mut().zip(g_row).zip(y_row) {
                                *d = (g - yv * ydotg) / norm;
                            }
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::SegmentWeightedSum { input, offsets, weights } => {
                    let inp_shape = self.value(input).shape();
                    let mut da = self.alloc(inp_shape.0, inp_shape.1);
                    for s in 0..offsets.len() - 1 {
                        let (lo, hi) = (offsets[s] as usize, offsets[s + 1] as usize);
                        let g_row = grad.row(s);
                        for (j, &w) in weights.iter().enumerate().take(hi).skip(lo) {
                            kernels::axpy(da.row_mut(j), w, g_row);
                        }
                    }
                    self.accumulate(input, da);
                }
                Op::SelectRows { input, indices } => {
                    let shape = self.value(input).shape();
                    let mut da = self.alloc(shape.0, shape.1);
                    for (i, &idx2) in indices.iter().enumerate() {
                        let dst = da.row_mut(idx2 as usize);
                        for (d, &g) in dst.iter_mut().zip(grad.row(i)) {
                            *d += g;
                        }
                    }
                    self.accumulate(input, da);
                }
                Op::RowsDot(a, b) => {
                    let (m, n) = self.value(a).shape();
                    let mut da = self.alloc(m, n);
                    let mut db = self.alloc(m, n);
                    {
                        let (av, bv) = (self.value(a), self.value(b));
                        for i in 0..m {
                            let g = grad[(i, 0)];
                            for ((d, &y), (e, &x)) in da
                                .row_mut(i)
                                .iter_mut()
                                .zip(bv.row(i))
                                .zip(db.row_mut(i).iter_mut().zip(av.row(i)))
                            {
                                *d = g * y;
                                *e = g * x;
                            }
                        }
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::AddBias(a, bias) => {
                    self.accumulate_ref(a, &grad);
                    let mut db = self.alloc(1, grad.cols());
                    for i in 0..grad.rows() {
                        for (d, &g) in db.row_mut(0).iter_mut().zip(grad.row(i)) {
                            *d += g;
                        }
                    }
                    self.accumulate(bias, db);
                }
                Op::BceWithLogitsMean { scores, targets } => {
                    let g = grad[(0, 0)];
                    let m = targets.len().max(1) as f32;
                    let mut ds = self.alloc(self.value(scores).rows(), 1);
                    {
                        let sv = self.value(scores);
                        for (i, &t) in targets.iter().enumerate() {
                            let s = sv[(i, 0)];
                            let sigma = 1.0 / (1.0 + (-s).exp());
                            ds[(i, 0)] = g * (sigma - t) / m;
                        }
                    }
                    self.accumulate(scores, ds);
                }
                Op::MseMean { pred, target } => {
                    let g = grad[(0, 0)];
                    let n = target.len().max(1) as f32;
                    let mut dp = self.alloc(self.value(pred).rows(), self.value(pred).cols());
                    {
                        let pv = self.value(pred);
                        for ((d, &p), &t) in
                            dp.data_mut().iter_mut().zip(pv.data()).zip(target.data())
                        {
                            *d = g * 2.0 * (p - t) / n;
                        }
                    }
                    self.accumulate(pred, dp);
                }
                Op::Conv1d { input, kernel, bias, in_ch, out_ch, ksize, stride, in_len } => {
                    let out_len = (in_len - ksize) / stride + 1;
                    let batch = self.value(input).rows();
                    let mut di = self.alloc(batch, in_ch * in_len);
                    let mut dk = self.alloc(out_ch, in_ch * ksize);
                    let mut db = self.alloc(1, out_ch);
                    {
                        let (iv, kv) = (self.value(input), self.value(kernel));
                        for b in 0..batch {
                            for oc in 0..out_ch {
                                for p in 0..out_len {
                                    let g = grad[(b, oc * out_len + p)];
                                    if g == 0.0 {
                                        continue;
                                    }
                                    db[(0, oc)] += g;
                                    for ic in 0..in_ch {
                                        let in_base = ic * in_len + p * stride;
                                        let k_base = ic * ksize;
                                        for kk in 0..ksize {
                                            di[(b, in_base + kk)] += g * kv[(oc, k_base + kk)];
                                            dk[(oc, k_base + kk)] += g * iv[(b, in_base + kk)];
                                        }
                                    }
                                }
                            }
                        }
                    }
                    self.accumulate(input, di);
                    self.accumulate(kernel, dk);
                    self.accumulate(bias, db);
                }
            }
            // Re-install so callers can inspect intermediate grads.
            self.nodes[idx].grad = Some(grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Central finite-difference check of `d loss / d param` for every
    /// element of every parameter used by `build`.
    fn grad_check(
        store: &mut ParamStore,
        build: &mut dyn FnMut(&mut Graph, &ParamStore) -> Var,
        tol: f32,
    ) {
        // Analytic gradients.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss, store);
        let analytic: Vec<Tensor> = store.ids().map(|id| store.grad(id).clone()).collect();

        let eps = 3e-3f32;
        for id in store.ids() {
            let (rows, cols) = store.value(id).shape();
            for i in 0..rows {
                for j in 0..cols {
                    let orig = store.value(id)[(i, j)];
                    store.value_mut(id)[(i, j)] = orig + eps;
                    let mut gp = Graph::new();
                    let lp = build(&mut gp, store);
                    let fp = gp.value(lp)[(0, 0)];
                    store.value_mut(id)[(i, j)] = orig - eps;
                    let mut gm = Graph::new();
                    let lm = build(&mut gm, store);
                    let fm = gm.value(lm)[(0, 0)];
                    store.value_mut(id)[(i, j)] = orig;
                    let numeric = (fp - fm) / (2.0 * eps);
                    let a = analytic[id.0][(i, j)];
                    assert!(
                        (a - numeric).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                        "param {} [{i},{j}]: analytic {a} vs numeric {numeric}",
                        store.name(id),
                    );
                }
            }
        }
    }

    fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0f32))
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", rand_tensor(&mut rng, 3, 4));
        let w2 = store.add("w2", rand_tensor(&mut rng, 4, 2));
        let x = rand_tensor(&mut rng, 2, 3);
        let target = rand_tensor(&mut rng, 2, 2);
        grad_check(
            &mut store,
            &mut |g, s| {
                let xv = g.constant(x.clone());
                let a = g.param(s, w1);
                let b = g.param(s, w2);
                let h = g.matmul(xv, a);
                let y = g.matmul(h, b);
                g.mse_mean(y, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut store = ParamStore::new();
            // Keep values away from the ReLU kink for stable finite diffs.
            let w = store.add(
                "w",
                Tensor::from_fn(2, 3, |_, _| {
                    let v: f32 = rng.random_range(0.1..1.0);
                    if rng.random_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                }),
            );
            let target = rand_tensor(&mut rng, 2, 3);
            grad_check(
                &mut store,
                &mut |g, s| {
                    let a = g.param(s, w);
                    let y = g.activation(a, act);
                    g.mse_mean(y, target.clone())
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_row_l2_normalize() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 3, 4));
        let target = rand_tensor(&mut rng, 3, 4);
        grad_check(
            &mut store,
            &mut |g, s| {
                let a = g.param(s, w);
                let y = g.row_l2_normalize(a);
                g.mse_mean(y, target.clone())
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_and_bias() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_tensor(&mut rng, 2, 3));
        let b = store.add("b", rand_tensor(&mut rng, 2, 2));
        let bias = store.add("bias", rand_tensor(&mut rng, 1, 5));
        let target = rand_tensor(&mut rng, 2, 5);
        grad_check(
            &mut store,
            &mut |g, s| {
                let av = g.param(s, a);
                let bv = g.param(s, b);
                let cat = g.concat_cols(av, bv);
                let biasv = g.param(s, bias);
                let y = g.add_bias(cat, biasv);
                g.mse_mean(y, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_segment_weighted_sum() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 5, 3));
        let target = rand_tensor(&mut rng, 2, 3);
        let offsets = vec![0u32, 2, 5];
        let weights = vec![0.6, 0.4, 0.2, 0.5, 0.3];
        grad_check(
            &mut store,
            &mut |g, s| {
                let a = g.param(s, w);
                let y = g.segment_weighted_sum(a, offsets.clone(), weights.clone());
                g.mse_mean(y, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_rows_dot_and_bce() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_tensor(&mut rng, 4, 3));
        let b = store.add("b", rand_tensor(&mut rng, 4, 3));
        let targets = vec![1.0, 0.0, 1.0, 0.0];
        grad_check(
            &mut store,
            &mut |g, s| {
                let av = g.param(s, a);
                let bv = g.param(s, b);
                let scores = g.rows_dot(av, bv);
                g.bce_with_logits_mean(scores, &targets)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let table = store.add("table", rand_tensor(&mut rng, 6, 3));
        let target = rand_tensor(&mut rng, 4, 3);
        // Repeated index 2 exercises scatter-add accumulation.
        let idx = vec![2u32, 0, 2, 5];
        grad_check(
            &mut store,
            &mut |g, s| {
                let a = g.gather(s, table, &idx);
                g.mse_mean(a, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_select_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 4, 3));
        let target = rand_tensor(&mut rng, 5, 3);
        // Repeats exercise gradient accumulation.
        let idx = vec![0u32, 2, 2, 3, 0];
        grad_check(
            &mut store,
            &mut |g, s| {
                let a = g.param(s, w);
                let sel = g.select_rows(a, &idx);
                g.mse_mean(sel, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mul_scale_sub() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_tensor(&mut rng, 2, 3));
        let b = store.add("b", rand_tensor(&mut rng, 2, 3));
        let target = rand_tensor(&mut rng, 2, 3);
        grad_check(
            &mut store,
            &mut |g, s| {
                let av = g.param(s, a);
                let bv = g.param(s, b);
                let prod = g.mul_elem(av, bv);
                let scaled = g.scale(prod, 1.7);
                let diff = g.sub(scaled, bv);
                g.mse_mean(diff, target.clone())
            },
            1e-2,
        );
    }

    #[test]
    fn grad_conv1d() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let (in_ch, out_ch, ksize, stride, in_len, batch) = (2, 3, 3, 2, 8, 2);
        let out_len = (in_len - ksize) / stride + 1;
        let input = store.add("input", rand_tensor(&mut rng, batch, in_ch * in_len));
        let kernel = store.add("kernel", rand_tensor(&mut rng, out_ch, in_ch * ksize));
        let bias = store.add("bias", rand_tensor(&mut rng, 1, out_ch));
        let target = rand_tensor(&mut rng, batch, out_ch * out_len);
        grad_check(
            &mut store,
            &mut |g, s| {
                let iv = g.param(s, input);
                let kv = g.param(s, kernel);
                let bv = g.param(s, bias);
                let y = g.conv1d(iv, kv, bv, in_ch, out_ch, ksize, stride);
                g.mse_mean(y, target.clone())
            },
            1.5e-2,
        );
    }

    #[test]
    fn shared_param_accumulates_grads() {
        // loss = mse(w + w) pulls gradient through two paths.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 1, vec![3.0]));
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let b = g.param(&store, w);
        let sum = g.add(a, b);
        let loss = g.mse_mean(sum, Tensor::from_vec(1, 1, vec![0.0]));
        g.backward(loss, &mut store);
        // d/dw (2w)^2 = 8w = 24.
        assert!((store.grad(w)[(0, 0)] - 24.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_bounds_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![10.0, 0.0]));
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let loss = g.mse_mean(a, Tensor::zeros(1, 2));
        g.backward(loss, &mut store);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_into_matches_backward_bitwise() {
        // The detached-sink path must be indistinguishable from the
        // in-store path: same ops, same accumulation order, same bits.
        // The table gradient lands in the sink's sparse representation;
        // materialized, it must equal the store's dense scatter exactly.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 6, 4));
        let table = store.add("table", rand_tensor(&mut rng, 5, 6));
        let target = rand_tensor(&mut rng, 3, 4);
        let build = |g: &mut Graph, s: &ParamStore| {
            let rows = g.gather(s, table, &[0u32, 2, 4]);
            let wv = g.param(s, w);
            let y = g.matmul(rows, wv);
            g.mse_mean(y, target.clone())
        };

        store.zero_grads();
        let mut g1 = Graph::new();
        let loss1 = build(&mut g1, &store);
        g1.backward(loss1, &mut store);

        let mut sink = GradStore::zeros_like(&store);
        let mut g2 = Graph::new();
        let loss2 = build(&mut g2, &store);
        g2.backward_into(loss2, &mut sink);

        assert!(sink.dense(w).is_some(), "dense param uses the dense entry");
        assert!(sink.sparse(table).is_some(), "gathered table uses the sparse entry");
        assert_eq!(store.grad(w), &sink.to_dense(w));
        assert_eq!(store.grad(table), &sink.to_dense(table));

        // Reducing the sink into a zeroed store reproduces the direct
        // gradients exactly (x + 0 = x in f32 for the values involved).
        store.zero_grads();
        store.apply_grads(&sink, 1.0);
        assert_eq!(store.grad(w), &sink.to_dense(w));
        assert_eq!(store.grad(table), &sink.to_dense(table));
    }

    #[test]
    fn zero_row_l2_norm_is_stable() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(2, 3));
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let y = g.row_l2_normalize(a);
        let loss = g.mse_mean(y, Tensor::full(2, 3, 1.0));
        g.backward(loss, &mut store);
        assert!(store.grad(w).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn arena_graph_matches_plain_graph_bitwise() {
        // Same step built on a plain tape and an arena tape must produce
        // the same loss and the same gradients, bit for bit.
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 4, 3));
        let table = store.add("table", rand_tensor(&mut rng, 6, 4));
        let target = rand_tensor(&mut rng, 3, 3);
        let idx = vec![1u32, 3, 1];
        let build = |g: &mut Graph, s: &ParamStore| {
            let rows = g.gather(s, table, &idx);
            let wv = g.param(s, w);
            let h = g.matmul(rows, wv);
            let n = g.row_l2_normalize(h);
            g.mse_mean(n, target.clone())
        };

        store.zero_grads();
        let mut plain = Graph::new();
        let l1 = build(&mut plain, &store);
        plain.backward(l1, &mut store);
        let plain_loss = plain.value(l1).clone();
        let plain_gw = store.grad(w).clone();
        let plain_gt = store.grad(table).clone();

        store.zero_grads();
        let arena = Rc::new(TensorArena::new());
        let mut g = Graph::with_arena(Rc::clone(&arena));
        let l2 = build(&mut g, &store);
        g.backward(l2, &mut store);
        assert_eq!(g.value(l2), &plain_loss);
        assert_eq!(store.grad(w), &plain_gw);
        assert_eq!(store.grad(table), &plain_gt);
    }

    #[test]
    fn arena_graph_reuses_buffers_across_steps() {
        // After one warm-up step, rebuilding the same-shaped step on a
        // reset tape must allocate no fresh buffers from the arena.
        let mut rng = StdRng::seed_from_u64(22);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_tensor(&mut rng, 4, 3));
        let target = rand_tensor(&mut rng, 4, 3);
        let arena = Rc::new(TensorArena::new());
        let mut g = Graph::with_arena(Rc::clone(&arena));

        for step in 0..3 {
            store.zero_grads();
            g.reset();
            let wv = g.param(&store, w);
            let y = g.row_l2_normalize(wv);
            let loss = g.mse_mean(y, target.clone());
            g.backward(loss, &mut store);
            if step == 0 {
                // Warm-up primes the free lists.
                assert!(arena.stats().fresh > 0);
            }
        }
        let stats = arena.stats();
        // Steps 1 and 2 were served entirely from recycled buffers.
        assert!(stats.reused >= 2 * stats.fresh, "expected warm steps to reuse buffers: {stats:?}");
        drop(g);
        assert!(arena.pooled_buffers() > 0);
    }

    #[test]
    fn sparse_tracking_matches_dense_norm_and_clip() {
        // A sparse-tracked table and an identical untracked one must see
        // bitwise-identical gradients through scatter, norm, clip, zero.
        let mut rng = StdRng::seed_from_u64(23);
        let init = rand_tensor(&mut rng, 8, 3);
        let target = rand_tensor(&mut rng, 4, 3);
        let idx = vec![5u32, 1, 5, 2];

        let run = |sparse: bool| -> (f32, Tensor) {
            let mut store = ParamStore::new();
            let table = store.add("table", init.clone());
            if sparse {
                store.mark_sparse(table);
            }
            store.zero_grads();
            let mut g = Graph::new();
            let rows = g.gather(&store, table, &idx);
            let loss = g.mse_mean(rows, target.clone());
            g.backward(loss, &mut store);
            store.clip_grad_norm(0.01); // force a rescale
            (store.grad_norm(), store.grad(table).clone())
        };

        let (dense_norm, dense_grad) = run(false);
        let (sparse_norm, sparse_grad) = run(true);
        assert_eq!(dense_norm.to_bits(), sparse_norm.to_bits());
        assert_eq!(dense_grad, sparse_grad);
    }

    #[test]
    fn sparse_zero_grads_clears_only_touched_rows() {
        let mut store = ParamStore::new();
        let table = store.add("table", Tensor::zeros(6, 2));
        store.mark_sparse(table);
        let mut g = Graph::new();
        let rows = g.gather(&store, table, &[1u32, 4]);
        let loss = g.mse_mean(rows, Tensor::full(2, 2, 1.0));
        g.backward(loss, &mut store);

        let mut touched = Vec::new();
        assert_eq!(store.collect_touched_rows(table, &mut touched), Touched::Rows);
        assert_eq!(touched, vec![1, 4]);
        assert!(store.grad(table).row(1).iter().any(|&x| x != 0.0));

        store.zero_grads();
        assert!(store.grad(table).data().iter().all(|&x| x == 0.0));
        assert_eq!(store.collect_touched_rows(table, &mut touched), Touched::Rows);
        assert!(touched.is_empty());
    }

    #[test]
    fn gather_and_select_share_arc_buffers() {
        // Passing an Arc must not copy the index buffer.
        let mut store = ParamStore::new();
        let table = store.add("table", Tensor::full(4, 2, 1.0));
        let idx = Arc::new(vec![0u32, 3]);
        let mut g = Graph::new();
        let rows = g.gather(&store, table, &idx);
        let sel = g.select_rows(rows, idx2_from(&idx));
        assert_eq!(g.value(sel).rows(), 2);
        // Two op references + ours ⇒ the buffer was shared, not copied.
        assert_eq!(Arc::strong_count(&idx), 2);
    }

    fn idx2_from(idx: &Arc<Vec<u32>>) -> Arc<Vec<u32>> {
        Arc::new(idx.iter().map(|&i| i.min(1)).collect())
    }
}
