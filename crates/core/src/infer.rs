//! Tape-free streaming inference engine (paper Section V-A serving loop).
//!
//! [`crate::BiSage::embed_nodes_filtered`] evaluates the aggregation
//! through the autodiff tape: a fresh [`gem_nn::tape::Graph`], a fresh
//! forward scratch, and clones of the aggregation matrices for every
//! embedded record. That machinery exists to produce gradients — which
//! inference never needs. [`InferenceEngine`] evaluates the exact same
//! arithmetic directly on raw tensors:
//!
//! - **Persistent scratch, no state between calls.** Every buffer the
//!   forward pass touches — neighborhood lists, concat/linear tensors,
//!   the target bitmap and the per-MAC row map — lives on the engine and
//!   is reshaped in place ([`gem_nn::Tensor::reset_to`]), so a warm
//!   engine embeds a small batch with zero heap allocations (gated in the
//!   `infer` bench via the `count-allocs` allocator). Nothing one call
//!   computes is read by the next: a streamed scan joins the
//!   neighborhood of every MAC it sighted, so no MAC aggregate outlives
//!   the call that computed it.
//! - **One two-round evaluator.** A single record is a batch of one. For
//!   the default `K = 2` a batch runs as three matmuls: the targets'
//!   round 1, the round-1 carrier `l¹` of each distinct MAC the targets
//!   sighted (computed once however many targets share the MAC), and the
//!   targets' round 2. Neighborhood collection fans out over `gem_par`
//!   workers for batches of at least 32 when the next region can use
//!   more than one thread ([`gem_par::effective_threads`]); otherwise it
//!   runs through one reused buffer.
//! - **K ≠ 2 runs on the tape.** Any other round count embeds through
//!   [`crate::BiSage::embed_nodes_filtered`], the reference the
//!   two-round evaluator is proptested against. No shipped
//!   configuration selects it, so it keeps no scratch of its own.
//!
//! Every op of the two-round evaluator is row- and element-independent,
//! so the result is bitwise identical to the tape's. A batch admits the
//! *whole target set* into neighborhood expansions (one filter for one
//! tree), so it is bitwise identical to the tape run over the same
//! target set, not to a sequence of single-record calls.
//!
//! Callers must keep base rows initialized (`ensure_rows*`) before
//! embedding; the engine never mutates the model or the graph.

use gem_graph::{BipartiteGraph, MacId, NodeId, RecordId};
use gem_nn::kernels;
use gem_nn::tape::Activation;
use gem_nn::Tensor;

use crate::bisage::{node_row, normalize_into, Aggregator, BiSage};

/// Fan out neighborhood collection above this many items.
const PAR_THRESHOLD: usize = 32;

/// `mac_slot` value of a MAC no target of the current call sighted.
const NO_SLOT: u32 = u32::MAX;

/// Trust filter on record nodes, as the tree builder takes it.
type Filter<'a> = Option<&'a (dyn Fn(RecordId) -> bool + Sync)>;

/// Lifetime reuse counters of an [`InferenceEngine`]. The one reuse is
/// within a call: targets that share a MAC read the single `l¹` row the
/// call computed for it.
#[derive(Clone, Copy, Debug)]
pub struct CacheStats {
    /// Segment reads of an `l¹` row another target of the same call
    /// computed.
    pub hits: u64,
    /// `l¹` rows computed.
    pub misses: u64,
}

/// Forward-only embedding evaluator with persistent scratch. See the
/// module docs; the arithmetic is bitwise identical to the tape path.
pub struct InferenceEngine {
    hits: u64,
    misses: u64,
    /// Target-set bitmap by record id; only the current call's targets
    /// are set.
    in_targets: Vec<bool>,
    /// Row of each MAC's `l¹` in `l1`, by MAC id; `NO_SLOT` outside a
    /// call.
    mac_slot: Vec<u32>,
    /// Distinct MACs the targets sighted, in first-sighting order (the
    /// rows of `l1`).
    macs: Vec<u32>,
    /// One node's expansion on the sequential path.
    nbrs: Vec<(NodeId, f32)>,
    /// Target `i`'s level-0 segment is `seg[seg_offs[i]..seg_offs[i + 1]]`.
    seg_offs: Vec<u32>,
    /// Every target's level-0 expansion: `(l¹ row, normalized weight)`.
    seg: Vec<(u32, f32)>,
    cat: Tensor,
    h1: Tensor,
    l1: Tensor,
    out: Tensor,
}

impl Default for InferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl InferenceEngine {
    /// An empty engine; buffers warm up over the first few calls.
    pub fn new() -> Self {
        InferenceEngine {
            hits: 0,
            misses: 0,
            in_targets: Vec::new(),
            mac_slot: Vec::new(),
            macs: Vec::new(),
            nbrs: Vec::new(),
            seg_offs: Vec::new(),
            seg: Vec::new(),
            cat: Tensor::zeros(0, 0),
            h1: Tensor::zeros(0, 0),
            l1: Tensor::zeros(0, 0),
            out: Tensor::zeros(0, 0),
        }
    }

    /// Lifetime reuse counters (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses }
    }

    /// Primary embedding of one record into a caller-owned buffer: a
    /// batch of one, allocation-free on a warm engine. Bitwise identical
    /// to `embed_nodes_filtered(graph, &[record], wrapped)` where
    /// `wrapped` admits the record itself plus every trusted record (or
    /// no filter when `trusted` is `None`). Base rows must already be
    /// initialized (see [`crate::BiSage::ensure_rows_filtered`]).
    pub fn embed_record_into(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        record: RecordId,
        trusted: Option<&[bool]>,
        out: &mut Vec<f32>,
    ) {
        let h = self.forward(model, graph, &[record], trusted);
        out.clear();
        out.extend_from_slice(h.row(0));
    }

    /// Allocating convenience wrapper around
    /// [`InferenceEngine::embed_record_into`].
    pub fn embed_record(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        record: RecordId,
        trusted: Option<&[bool]>,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.embed_record_into(model, graph, record, trusted, &mut out);
        out
    }

    /// Primary embeddings of a batch of records (rows in `records`
    /// order). The trust filter admits the whole target set plus every
    /// trusted record — bitwise identical to the tape run
    /// `embed_nodes_filtered(graph, targets, set_wrapped)`.
    pub fn embed_records_batch(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        records: &[RecordId],
        trusted: Option<&[bool]>,
    ) -> Tensor {
        if records.is_empty() {
            return Tensor::zeros(0, model.cfg.dim);
        }
        self.forward(model, graph, records, trusted).clone()
    }

    /// Embeds `records` (at least one) into engine scratch and returns
    /// the output rows.
    fn forward(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        records: &[RecordId],
        trusted: Option<&[bool]>,
    ) -> &Tensor {
        // Moved out of `self` so the filter closure leaves the engine
        // free for scratch mutation.
        let mut in_targets = std::mem::take(&mut self.in_targets);
        if in_targets.len() < graph.n_records() {
            in_targets.resize(graph.n_records(), false);
        }
        mark(&mut in_targets, records, true);
        {
            let tset = &in_targets;
            let wrapped =
                trusted.map(|bits| move |r: RecordId| trusted_bit(tset, r) || trusted_bit(bits, r));
            let wref: Filter<'_> = wrapped.as_ref().map(|f| f as _);
            if model.cfg.rounds == 2 {
                self.forward_two_rounds(model, graph, records, wref);
            } else {
                let nodes: Vec<NodeId> = records.iter().map(|&r| NodeId::Record(r)).collect();
                self.out = model.embed_nodes_filtered(graph, &nodes, wref).0;
            }
        }
        mark(&mut in_targets, records, false);
        self.in_targets = in_targets;
        &self.out
    }

    /// The default two-round model into `self.out`:
    /// `h² = norm(σ(W_h² · [h¹ | Σ w̃ l¹]))` per target, from
    /// `h¹ = norm(σ(W_h¹ · [h⁰ | Σ w̃ l⁰]))` per target and
    /// `l¹ = norm(σ(W_l¹ · [l⁰ | Σ w̃ h⁰]))` per distinct sighted MAC.
    fn forward_two_rounds(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        records: &[RecordId],
        wref: Filter<'_>,
    ) {
        let d = model.cfg.dim;
        let aggr = model.cfg.aggregator;
        let act = model.cfg.activation;
        let b = records.len();
        let pooled = b >= PAR_THRESHOLD && gem_par::effective_threads() > 1;
        if self.mac_slot.len() < graph.n_macs() {
            self.mac_slot.resize(graph.n_macs(), NO_SLOT);
        }

        // Round 1, target chain. Each target's segment keeps the `l¹`
        // row of every MAC it sighted for round 2.
        self.seg_offs.clear();
        self.seg_offs.push(0);
        self.seg.clear();
        self.macs.clear();
        self.cat.reset_to(b, 2 * d);
        for_each_expansion(
            records,
            pooled,
            |&r, v| model.neighborhood_into(graph, NodeId::Record(r), wref, v),
            &mut self.nbrs,
            |i, nbh| {
                let w_total = seg_total(aggr, nbh);
                let row = self.cat.row_mut(i);
                row[..d].copy_from_slice(model.base_h.row(node_row(NodeId::Record(records[i]))));
                for &(n, w) in nbh {
                    let NodeId::Mac(m) = n else { unreachable!("record neighbors are MACs") };
                    let nw = seg_norm(aggr, w, w_total);
                    kernels::axpy(&mut row[d..], nw, model.base_l.row(mac_row(m.0)));
                    let slot = &mut self.mac_slot[m.0 as usize];
                    if *slot == NO_SLOT {
                        *slot = self.macs.len() as u32;
                        self.macs.push(m.0);
                    }
                    self.seg.push((*slot, nw));
                }
                self.seg_offs.push(self.seg.len() as u32);
            },
        );
        linear(&self.cat, &model.w_h[0], act, &mut self.h1);

        // Round 1, MAC chain: one `l¹` row per distinct sighted MAC.
        let m_cnt = self.macs.len();
        self.misses += m_cnt as u64;
        self.hits += (self.seg.len() - m_cnt) as u64;
        self.cat.reset_to(m_cnt, 2 * d);
        for_each_expansion(
            &self.macs,
            pooled && m_cnt >= PAR_THRESHOLD,
            |&mid, v| model.neighborhood_into(graph, NodeId::Mac(MacId(mid)), wref, v),
            &mut self.nbrs,
            |j, nbh| {
                let w_total = seg_total(aggr, nbh);
                let row = self.cat.row_mut(j);
                row[..d].copy_from_slice(model.base_l.row(mac_row(self.macs[j])));
                for &(n, w) in nbh {
                    let NodeId::Record(_) = n else { unreachable!("MAC neighbors are records") };
                    let nw = seg_norm(aggr, w, w_total);
                    kernels::axpy(&mut row[d..], nw, model.base_h.row(node_row(n)));
                }
            },
        );
        linear(&self.cat, &model.w_l[0], act, &mut self.l1);

        // Round 2, target chain.
        self.cat.reset_to(b, 2 * d);
        for i in 0..b {
            let row = self.cat.row_mut(i);
            row[..d].copy_from_slice(self.h1.row(i));
            let (lo, hi) = (self.seg_offs[i] as usize, self.seg_offs[i + 1] as usize);
            for &(slot, w) in &self.seg[lo..hi] {
                kernels::axpy(&mut row[d..], w, self.l1.row(slot as usize));
            }
        }
        linear(&self.cat, &model.w_h[1], act, &mut self.out);
        for &mid in &self.macs {
            self.mac_slot[mid as usize] = NO_SLOT;
        }
    }
}

/// Collects each item's capped expansion with `expand` and hands it to
/// `visit` in item order: on the worker pool when `pooled` (one buffer
/// per item), otherwise one at a time through `scratch`, which allocates
/// nothing once warm.
fn for_each_expansion<T: Sync>(
    items: &[T],
    pooled: bool,
    expand: impl Fn(&T, &mut Vec<(NodeId, f32)>) + Sync,
    scratch: &mut Vec<(NodeId, f32)>,
    mut visit: impl FnMut(usize, &[(NodeId, f32)]),
) {
    if pooled {
        let nbhs = gem_par::par_map(items, |item| {
            let mut v = Vec::new();
            expand(item, &mut v);
            v
        });
        for (i, nbh) in nbhs.iter().enumerate() {
            visit(i, nbh);
        }
    } else {
        for (i, item) in items.iter().enumerate() {
            expand(item, scratch);
            visit(i, scratch);
        }
    }
}

/// One aggregation layer, `out = norm(σ(x · w))` row by row. The
/// nonlinearity is the tape's `activation` kernel, so parity holds
/// bitwise.
fn linear(x: &Tensor, w: &Tensor, act: Activation, out: &mut Tensor) {
    out.reset_to(x.rows(), w.cols());
    x.matmul_into(w, out);
    act.forward_slice(out.data_mut());
    for i in 0..out.rows() {
        normalize_into(out.row_mut(i));
    }
}

/// Sets (or clears) the target bits of `records`.
fn mark(bits: &mut [bool], records: &[RecordId], on: bool) {
    for &r in records {
        bits[r.0 as usize] = on;
    }
}

/// Segment weight total, mirroring the tree builder's `append_segment`.
#[inline]
fn seg_total(aggr: Aggregator, nbrs: &[(NodeId, f32)]) -> f32 {
    match aggr {
        Aggregator::WeightedMean => nbrs.iter().map(|&(_, w)| w).sum(),
        Aggregator::Mean => nbrs.len() as f32,
    }
}

/// Per-member normalized aggregation weight (same expression as
/// `append_segment`, so the bits match the tape's tree).
#[inline]
fn seg_norm(aggr: Aggregator, w: f32, w_total: f32) -> f32 {
    match aggr {
        Aggregator::WeightedMean => w / w_total.max(1e-12),
        Aggregator::Mean => 1.0 / w_total.max(1e-12),
    }
}

#[inline]
fn trusted_bit(bits: &[bool], r: RecordId) -> bool {
    bits.get(r.0 as usize).copied().unwrap_or(false)
}

#[inline]
fn mac_row(m: u32) -> usize {
    node_row(NodeId::Mac(MacId(m)))
}
