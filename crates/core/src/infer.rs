//! Tape-free streaming inference engine (paper Section V-A serving loop).
//!
//! [`crate::BiSage::embed_nodes_filtered`] evaluates the aggregation
//! through the autodiff tape: a fresh [`gem_nn::tape::Graph`], a fresh
//! forward scratch, and clones of the aggregation matrices for every
//! embedded record. That machinery exists to produce gradients — which
//! inference never needs. [`InferenceEngine`] evaluates the exact same
//! arithmetic directly on raw tensors:
//!
//! - **Persistent scratch.** Every buffer the forward pass touches —
//!   neighborhood lists, concat/linear tensors, aggregate accumulators —
//!   lives on the engine and is reshaped in place
//!   ([`gem_nn::Tensor::reset_to`]), so the steady-state single-record
//!   path performs zero heap allocations (gated in the `infer` bench via
//!   the `count-allocs` allocator).
//! - **Half-cone evaluation.** The layer-0 primary output depends only on
//!   the `h` chain at even tree depths and the `l` chain at odd depths,
//!   so the engine evaluates half of the tape's `(chain, depth)` grid.
//!   Every op is row- and element-independent, so the result is bitwise
//!   identical to the tape's.
//! - **Per-MAC aggregate cache.** For the default two-round model the
//!   only shareable intermediate is each MAC's round-1 carrier `l¹` (the
//!   level-`K−1` aggregate). Entries are tagged with the trust epoch and
//!   the MAC's degree at computation time: growing the graph bumps the
//!   degree of exactly the MACs that gained edges, and
//!   [`InferenceEngine::notify_trust_change`] bumps the epoch when the
//!   trusted-record set changes (e.g. via `Embedder::feedback`), so
//!   stale entries can never be read. Entries whose neighborhood
//!   included an *untrusted* record — the streamed target itself (always
//!   admitted into its own expansion) or a raw-neighborhood fallback —
//!   are additionally pinned to the producing call, because their
//!   segment depends on which records are being embedded right now.
//!
//! The batched path ([`InferenceEngine::embed_records_batch`]) amortizes
//! further: targets sharing a MAC compute its `l¹` once, neighborhood
//! collection fans out over `gem_par` workers, and the three matmuls run
//! over the whole batch. Note the batch admits the *whole target set*
//! into neighborhood expansions (one filter for one tree), so a batch is
//! bitwise identical to the tape run over the same target set, not to a
//! sequence of single-record calls.
//!
//! Callers must keep base rows initialized (`ensure_rows*`) before
//! embedding; the engine never mutates the model or the graph.

use rand::rngs::StdRng;
use serde::Serialize;

use gem_graph::{BipartiteGraph, MacId, NodeId, RecordId};
use gem_nn::kernels;
use gem_nn::tape::Activation;
use gem_nn::Tensor;

use crate::bisage::{node_row, normalize_into, Aggregator, BiSage, Tree};

/// Fan out batched neighborhood collection above this many items.
const PAR_THRESHOLD: usize = 32;

/// Cached round-1 carrier aggregate `l¹` of one MAC node.
struct MacEntry {
    l1: Vec<f32>,
    /// Trust epoch the entry was computed under.
    trust_epoch: u64,
    /// MAC degree at computation time; any new edge invalidates.
    degree: u32,
    /// Whether a trust filter was in effect (`Some` vs `None` caller).
    filtered: bool,
    /// `Some(call)` when the segment depended on untrusted records (the
    /// streamed targets themselves, or a raw-neighborhood fallback) —
    /// reusable only within the producing call.
    volatile_call: Option<u64>,
}

/// Cache hit/miss counters of an [`InferenceEngine`].
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct CacheStats {
    /// MAC-aggregate lookups served from cache.
    pub hits: u64,
    /// MAC-aggregate lookups that recomputed the entry.
    pub misses: u64,
    /// Whole-cache invalidations (trust-epoch bumps from `invalidate`
    /// or `notify_trust_change`).
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Forward-only embedding evaluator with persistent scratch and a
/// per-MAC aggregate cache. See the module docs for the invalidation
/// rules; the arithmetic is bitwise identical to the tape path.
pub struct InferenceEngine {
    /// Per-MAC cache, indexed by MAC id.
    entries: Vec<Option<MacEntry>>,
    trust_epoch: u64,
    call_id: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    // Single-record scratch.
    nbrs: Vec<(NodeId, f32)>,
    /// Target's capped level-0 expansion: `(mac id, normalized weight)`.
    macs0: Vec<(u32, f32)>,
    h1: Vec<f32>,
    agg: Vec<f32>,
    cat: Tensor,
    lin: Tensor,
    // Batch scratch.
    in_targets: Vec<bool>,
    seen: Vec<bool>,
    seg_offs: Vec<u32>,
    seg_macs: Vec<(u32, f32)>,
    missing: Vec<u32>,
    cat_b: Tensor,
    lin_b: Tensor,
    h1_b: Tensor,
    // Generic-tree path (rounds ≠ 2, and sampled trees).
    tree: Tree,
    tree_scratch: Vec<(NodeId, f32)>,
    cur: Vec<Tensor>,
    next: Vec<Tensor>,
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
            entries: Vec::new(),
            trust_epoch: 0,
            call_id: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            nbrs: Vec::new(),
            macs0: Vec::new(),
            h1: Vec::new(),
            agg: Vec::new(),
            cat: Tensor::zeros(0, 0),
            lin: Tensor::zeros(0, 0),
            in_targets: Vec::new(),
            seen: Vec::new(),
            seg_offs: Vec::new(),
            seg_macs: Vec::new(),
            missing: Vec::new(),
            cat_b: Tensor::zeros(0, 0),
            lin_b: Tensor::zeros(0, 0),
            h1_b: Tensor::zeros(0, 0),
            tree: Tree::default(),
            tree_scratch: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Invalidates every cache entry (model refit, provisional-base
    /// re-derivation — anything that may rewrite base rows without
    /// changing a MAC's degree).
    pub fn invalidate(&mut self) {
        self.trust_epoch += 1;
        self.invalidations += 1;
    }

    /// The trusted-record set changed (a `feedback` flip, or a streamed
    /// record classified and admitted); entries computed under the old
    /// trust assignment are no longer readable.
    pub fn notify_trust_change(&mut self) {
        self.trust_epoch += 1;
        self.invalidations += 1;
    }

    /// Lifetime cache hit/miss/invalidation counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses, invalidations: self.invalidations }
    }

    /// Primary embedding of one record into a caller-owned buffer —
    /// the allocation-free streaming path. Bitwise identical to
    /// `embed_nodes_filtered(graph, &[record], wrapped)` where `wrapped`
    /// admits the record itself plus every trusted record (or no filter
    /// when `trusted` is `None`). Base rows must already be initialized
    /// (see [`crate::BiSage::ensure_rows_filtered`]).
    pub fn embed_record_into(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        record: RecordId,
        trusted: Option<&[bool]>,
        out: &mut Vec<f32>,
    ) {
        self.call_id += 1;
        let d = model.cfg.dim;
        let aggr = model.cfg.aggregator;
        let wrapped = trusted.map(|bits| move |r: RecordId| r == record || trusted_bit(bits, r));
        let wref = wrapped.as_ref().map(|f| f as &(dyn Fn(RecordId) -> bool + Sync));
        if model.cfg.rounds != 2 {
            // No cacheable mid-level for other depths; evaluate the whole
            // (half-cone) tree tape-free instead.
            model.build_tree_into(
                graph,
                &[NodeId::Record(record)],
                None,
                wref,
                &mut self.tree,
                &mut self.tree_scratch,
            );
            let h = self.forward_tree(model);
            out.clear();
            out.extend_from_slice(h.row(0));
            return;
        }

        // Level-0 expansion of the target, capped and segment-normalized
        // exactly like the tree builder's `append_segment`.
        model.neighborhood_into(graph, NodeId::Record(record), wref, &mut self.nbrs);
        self.macs0.clear();
        let w_total = seg_total(aggr, &self.nbrs);
        for &(n, w) in &self.nbrs {
            let NodeId::Mac(m) = n else { unreachable!("record neighbors are MACs") };
            self.macs0.push((m.0, seg_norm(aggr, w, w_total)));
        }

        // Round 1, target chain: h¹ = norm(σ(W_h¹ · [h⁰ | Σ w̃ l⁰])).
        self.cat.reset_to(1, 2 * d);
        self.cat.row_mut(0)[..d]
            .copy_from_slice(model.base_h.row(node_row(NodeId::Record(record))));
        for &(m, w) in &self.macs0 {
            kernels::axpy(&mut self.cat.row_mut(0)[d..], w, model.base_l.row(mac_row(m)));
        }
        self.lin.reset_to(1, d);
        self.cat.matmul_into(&model.w_h[0], &mut self.lin);
        act_tensor(&mut self.lin, model.cfg.activation);
        normalize_into(self.lin.row_mut(0));
        self.h1.clear();
        self.h1.extend_from_slice(self.lin.row(0));

        // Round 1, MAC chain: every l¹ through the cache.
        if self.entries.len() < graph.n_macs() {
            self.entries.resize_with(graph.n_macs(), || None);
        }
        let filtered_now = trusted.is_some();
        let all_targets_trusted = trusted.is_some_and(|b| trusted_bit(b, record));
        for i in 0..self.macs0.len() {
            let (mid, _) = self.macs0[i];
            let degree_now = graph.degree(NodeId::Mac(MacId(mid))) as u32;
            let valid = self.entries[mid as usize].as_ref().is_some_and(|e| {
                entry_valid(
                    e,
                    self.trust_epoch,
                    self.call_id,
                    degree_now,
                    filtered_now,
                    all_targets_trusted,
                )
            });
            if valid {
                self.hits += 1;
                continue;
            }
            self.misses += 1;
            model.neighborhood_into(graph, NodeId::Mac(MacId(mid)), wref, &mut self.nbrs);
            let w_total = seg_total(aggr, &self.nbrs);
            let mut volatile = false;
            self.cat.reset_to(1, 2 * d);
            self.cat.row_mut(0)[..d].copy_from_slice(model.base_l.row(mac_row(mid)));
            for &(n, w) in &self.nbrs {
                let NodeId::Record(r) = n else { unreachable!("MAC neighbors are records") };
                if filtered_now && !trusted_bit(trusted.unwrap(), r) {
                    volatile = true;
                }
                let nw = seg_norm(aggr, w, w_total);
                let src = model.base_h.row(node_row(NodeId::Record(r)));
                kernels::axpy(&mut self.cat.row_mut(0)[d..], nw, src);
            }
            self.lin.reset_to(1, d);
            self.cat.matmul_into(&model.w_l[0], &mut self.lin);
            act_tensor(&mut self.lin, model.cfg.activation);
            normalize_into(self.lin.row_mut(0));
            store_entry(
                &mut self.entries[mid as usize],
                self.lin.row(0),
                self.trust_epoch,
                degree_now,
                filtered_now,
                volatile.then_some(self.call_id),
            );
        }

        // Round 2: h² = norm(σ(W_h² · [h¹ | Σ w̃ l¹])).
        self.agg.clear();
        self.agg.resize(d, 0.0);
        for &(mid, w) in &self.macs0 {
            let e = self.entries[mid as usize].as_ref().expect("entry ensured above");
            kernels::axpy(&mut self.agg, w, &e.l1);
        }
        self.cat.reset_to(1, 2 * d);
        self.cat.row_mut(0)[..d].copy_from_slice(&self.h1);
        self.cat.row_mut(0)[d..].copy_from_slice(&self.agg);
        self.lin.reset_to(1, d);
        self.cat.matmul_into(&model.w_h[1], &mut self.lin);
        act_tensor(&mut self.lin, model.cfg.activation);
        normalize_into(self.lin.row_mut(0));
        out.clear();
        out.extend_from_slice(self.lin.row(0));
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
    /// `embed_nodes_filtered(graph, targets, set_wrapped)` — and MACs
    /// shared between targets compute their cached aggregate once.
    /// Neighborhood collection fans out over `gem_par` for large batches.
    pub fn embed_records_batch(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        records: &[RecordId],
        trusted: Option<&[bool]>,
    ) -> Tensor {
        self.call_id += 1;
        let d = model.cfg.dim;
        let aggr = model.cfg.aggregator;
        let b = records.len();
        if b == 0 {
            return Tensor::zeros(0, d);
        }
        // Target-set bitmap, moved out of `self` so the filter closure
        // leaves the engine free for scratch mutation.
        let mut in_targets = std::mem::take(&mut self.in_targets);
        in_targets.clear();
        in_targets.resize(graph.n_records(), false);
        for &r in records {
            if let Some(slot) = in_targets.get_mut(r.0 as usize) {
                *slot = true;
            }
        }
        let tset = &in_targets;
        let wrapped = trusted.map(|bits| {
            move |r: RecordId| {
                tset.get(r.0 as usize).copied().unwrap_or(false) || trusted_bit(bits, r)
            }
        });
        let wref = wrapped.as_ref().map(|f| f as &(dyn Fn(RecordId) -> bool + Sync));

        if model.cfg.rounds != 2 {
            let nodes: Vec<NodeId> = records.iter().map(|&r| NodeId::Record(r)).collect();
            model.build_tree_into(
                graph,
                &nodes,
                None,
                wref,
                &mut self.tree,
                &mut self.tree_scratch,
            );
            let out = self.forward_tree(model).clone();
            self.in_targets = in_targets;
            return out;
        }

        let parallel =
            model.cfg.num_threads != 1 && b >= PAR_THRESHOLD && gem_par::num_threads() > 1;

        // Stage A — per-target level-0 expansions (flattened for stage C)
        // and the batched target-chain round 1.
        let nbhs: Vec<Vec<(NodeId, f32)>> = if parallel {
            gem_par::par_map(records, |&r| {
                let mut v = Vec::new();
                model.neighborhood_into(graph, NodeId::Record(r), wref, &mut v);
                v
            })
        } else {
            records
                .iter()
                .map(|&r| {
                    let mut v = Vec::new();
                    model.neighborhood_into(graph, NodeId::Record(r), wref, &mut v);
                    v
                })
                .collect()
        };
        self.seg_offs.clear();
        self.seg_offs.push(0);
        self.seg_macs.clear();
        self.cat_b.reset_to(b, 2 * d);
        for (i, nbh) in nbhs.iter().enumerate() {
            let w_total = seg_total(aggr, nbh);
            let row = self.cat_b.row_mut(i);
            row[..d].copy_from_slice(model.base_h.row(node_row(NodeId::Record(records[i]))));
            for &(n, w) in nbh {
                let NodeId::Mac(m) = n else { unreachable!("record neighbors are MACs") };
                let nw = seg_norm(aggr, w, w_total);
                self.seg_macs.push((m.0, nw));
                kernels::axpy(&mut row[d..], nw, model.base_l.row(mac_row(m.0)));
            }
            self.seg_offs.push(self.seg_macs.len() as u32);
        }
        self.h1_b.reset_to(b, d);
        self.cat_b.matmul_into(&model.w_h[0], &mut self.h1_b);
        act_tensor(&mut self.h1_b, model.cfg.activation);
        for i in 0..b {
            normalize_into(self.h1_b.row_mut(i));
        }

        // Stage B — distinct MACs through the cache; misses batched.
        if self.entries.len() < graph.n_macs() {
            self.entries.resize_with(graph.n_macs(), || None);
        }
        self.seen.clear();
        self.seen.resize(graph.n_macs(), false);
        self.missing.clear();
        let filtered_now = trusted.is_some();
        let all_targets_trusted =
            trusted.is_some_and(|bits| records.iter().all(|&r| trusted_bit(bits, r)));
        for &(mid, _) in &self.seg_macs {
            if self.seen[mid as usize] {
                continue;
            }
            self.seen[mid as usize] = true;
            let degree_now = graph.degree(NodeId::Mac(MacId(mid))) as u32;
            let valid = self.entries[mid as usize].as_ref().is_some_and(|e| {
                entry_valid(
                    e,
                    self.trust_epoch,
                    self.call_id,
                    degree_now,
                    filtered_now,
                    all_targets_trusted,
                )
            });
            if valid {
                self.hits += 1;
            } else {
                self.misses += 1;
                self.missing.push(mid);
            }
        }
        let m_cnt = self.missing.len();
        if m_cnt > 0 {
            let mac_nbhs: Vec<Vec<(NodeId, f32)>> = if parallel && m_cnt >= PAR_THRESHOLD {
                gem_par::par_map(&self.missing, |&mid| {
                    let mut v = Vec::new();
                    model.neighborhood_into(graph, NodeId::Mac(MacId(mid)), wref, &mut v);
                    v
                })
            } else {
                self.missing
                    .iter()
                    .map(|&mid| {
                        let mut v = Vec::new();
                        model.neighborhood_into(graph, NodeId::Mac(MacId(mid)), wref, &mut v);
                        v
                    })
                    .collect()
            };
            self.cat_b.reset_to(m_cnt, 2 * d);
            let mut volatile = vec![false; m_cnt];
            for (i, nbh) in mac_nbhs.iter().enumerate() {
                let mid = self.missing[i];
                let w_total = seg_total(aggr, nbh);
                let row = self.cat_b.row_mut(i);
                row[..d].copy_from_slice(model.base_l.row(mac_row(mid)));
                for &(n, w) in nbh {
                    let NodeId::Record(r) = n else { unreachable!("MAC neighbors are records") };
                    if filtered_now && !trusted_bit(trusted.unwrap(), r) {
                        volatile[i] = true;
                    }
                    let nw = seg_norm(aggr, w, w_total);
                    let src = model.base_h.row(node_row(NodeId::Record(r)));
                    kernels::axpy(&mut row[d..], nw, src);
                }
            }
            self.lin_b.reset_to(m_cnt, d);
            self.cat_b.matmul_into(&model.w_l[0], &mut self.lin_b);
            act_tensor(&mut self.lin_b, model.cfg.activation);
            for i in 0..m_cnt {
                normalize_into(self.lin_b.row_mut(i));
            }
            for (i, (&mid, &vol)) in self.missing.iter().zip(&volatile).enumerate() {
                let degree_now = graph.degree(NodeId::Mac(MacId(mid))) as u32;
                store_entry(
                    &mut self.entries[mid as usize],
                    self.lin_b.row(i),
                    self.trust_epoch,
                    degree_now,
                    filtered_now,
                    vol.then_some(self.call_id),
                );
            }
        }

        // Stage C — batched target-chain round 2 from cached aggregates.
        let mut out = Tensor::zeros(b, d);
        self.cat_b.reset_to(b, 2 * d);
        for i in 0..b {
            let row = self.cat_b.row_mut(i);
            row[..d].copy_from_slice(self.h1_b.row(i));
            let (lo, hi) = (self.seg_offs[i] as usize, self.seg_offs[i + 1] as usize);
            for &(mid, w) in &self.seg_macs[lo..hi] {
                let e = self.entries[mid as usize].as_ref().expect("entry ensured in stage B");
                kernels::axpy(&mut row[d..], w, &e.l1);
            }
        }
        self.cat_b.matmul_into(&model.w_h[1], &mut out);
        act_tensor(&mut out, model.cfg.activation);
        for i in 0..b {
            normalize_into(out.row_mut(i));
        }
        self.in_targets = in_targets;
        out
    }

    /// Tape-free evaluation of a training-style *sampled* tree (the
    /// detector-fit augmentation path). Consumes the RNG exactly like the
    /// tape reference.
    pub(crate) fn embed_tree_sampled(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        nodes: &[NodeId],
        rng: &mut StdRng,
    ) -> Tensor {
        model.build_tree_into(
            graph,
            nodes,
            Some(rng),
            None,
            &mut self.tree,
            &mut self.tree_scratch,
        );
        self.forward_tree(model).clone()
    }

    /// Half-cone forward pass over `self.tree`: evaluates only the
    /// `(chain, depth)` pairs the layer-0 primary output depends on —
    /// `h` at even depths, `l` at odd — roughly halving the tape's work
    /// while staying bitwise identical (every op is row-independent and
    /// applied in the tape's order).
    fn forward_tree(&mut self, model: &BiSage) -> &Tensor {
        let k_rounds = model.cfg.rounds;
        let d = model.cfg.dim;
        if self.cur.len() < k_rounds + 1 {
            self.cur.resize_with(k_rounds + 1, || Tensor::zeros(0, 0));
            self.next.resize_with(k_rounds + 1, || Tensor::zeros(0, 0));
        }
        for dep in 0..=k_rounds {
            let idx = &self.tree.row_idx[dep];
            let table = if dep % 2 == 0 { &model.base_h } else { &model.base_l };
            let t = &mut self.cur[dep];
            t.reset_to(idx.len(), d);
            for (i, &r) in idx.iter().enumerate() {
                t.set_row(i, table.row(r as usize));
            }
        }
        for round in 1..=k_rounds {
            let depths = k_rounds - round;
            for dep in 0..=depths {
                let offs = &self.tree.offsets[dep];
                let wts = &self.tree.weights[dep];
                let n_seg = offs.len() - 1;
                self.cat.reset_to(n_seg, 2 * d);
                {
                    let state = &self.cur[dep];
                    let inp = &self.cur[dep + 1];
                    for s in 0..n_seg {
                        let row = self.cat.row_mut(s);
                        row[..d].copy_from_slice(state.row(s));
                        let (lo, hi) = (offs[s] as usize, offs[s + 1] as usize);
                        for j in lo..hi {
                            kernels::axpy(&mut row[d..], wts[j], inp.row(j));
                        }
                    }
                }
                let weight =
                    if dep % 2 == 0 { &model.w_h[round - 1] } else { &model.w_l[round - 1] };
                let outt = &mut self.next[dep];
                outt.reset_to(n_seg, d);
                self.cat.matmul_into(weight, outt);
                act_tensor(outt, model.cfg.activation);
                for s in 0..n_seg {
                    normalize_into(outt.row_mut(s));
                }
            }
            for dep in 0..=depths {
                std::mem::swap(&mut self.cur[dep], &mut self.next[dep]);
            }
        }
        &self.cur[0]
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

/// Element-wise nonlinearity, identical to the tape's `activation` op
/// (same dispatched kernel, so tape/engine parity is preserved bitwise).
#[inline]
fn act_tensor(t: &mut Tensor, act: Activation) {
    act.forward_slice(t.data_mut());
}

fn entry_valid(
    e: &MacEntry,
    trust_epoch: u64,
    call_id: u64,
    degree_now: u32,
    filtered_now: bool,
    all_targets_trusted: bool,
) -> bool {
    e.trust_epoch == trust_epoch
        && e.degree == degree_now
        && e.filtered == filtered_now
        && match e.volatile_call {
            // Volatile entries saw untrusted (target/fallback) rows:
            // only the producing call's filter admits the same segment.
            Some(call) => call == call_id,
            // Clean entries depend on the trusted set alone — reusable
            // across calls unless the current call's wrapped filter
            // could admit an untrusted target into the segment.
            None => !filtered_now || all_targets_trusted,
        }
}

/// Overwrites a cache slot in place (no allocation once the slot has
/// seen the row length).
fn store_entry(
    slot: &mut Option<MacEntry>,
    l1: &[f32],
    trust_epoch: u64,
    degree: u32,
    filtered: bool,
    volatile_call: Option<u64>,
) {
    let e = slot.get_or_insert_with(|| MacEntry {
        l1: Vec::new(),
        trust_epoch,
        degree,
        filtered,
        volatile_call,
    });
    e.trust_epoch = trust_epoch;
    e.degree = degree;
    e.filtered = filtered;
    e.volatile_call = volatile_call;
    e.l1.clear();
    e.l1.extend_from_slice(l1);
}
