//! BiSAGE: inductive network embedding for weighted bipartite graphs
//! (paper Section IV-B).
//!
//! Every node carries two embeddings: the *primary* embedding `h` (used
//! downstream for classification) and the *auxiliary* embedding `l`, the
//! "carrier" that propagates information between nodes of the same type
//! without disturbing the other type's primary embeddings. One
//! aggregation round updates, for every node `i`:
//!
//! ```text
//! h_i^k = normalize(σ(W_h^k · [h_i^{k-1} | Σ_j w̃_ij · l_j^{k-1}]))
//! l_i^k = normalize(σ(W_l^k · [l_i^{k-1} | Σ_j w̃_ij · h_j^{k-1}]))
//! ```
//!
//! with `j` ranging over a *weighted sample* of `i`'s neighbors and `w̃`
//! the paper's weighted-mean aggregator (Eqs. 3–7). Training minimizes
//! the bi-level negative-sampling loss of Eq. 8 over consecutive pairs of
//! weighted random walks.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt;
use serde::Serialize;

use gem_graph::{BipartiteGraph, NegativeTable, NodeId, RecordId, WalkConfig, WalkPairs};
use gem_nn::tape::{Activation, GradStore, Graph, ParamId, ParamStore, Var};
use gem_nn::{init, Adam, Optimizer, Tensor, TensorArena};
use gem_signal::rng::child_rng;

/// Neighborhood aggregator choice (paper: "e.g. MEAN(·) or MAX(·)"; GEM
/// uses the edge-weighted mean).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, serde::Deserialize)]
pub enum Aggregator {
    /// `Σ w_ij · l_j / Σ w_ij` over the sampled neighborhood (the paper's
    /// choice — attention "for free" from the physical edge weights).
    WeightedMean,
    /// Plain mean over the sampled neighborhood (GraphSAGE-style ablation).
    Mean,
}

/// Hyperparameters of the embedding algorithm.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct BiSageConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Aggregation rounds `K`.
    pub rounds: usize,
    /// Neighbors sampled per node at each tree depth (len = `rounds`).
    pub sample_sizes: Vec<usize>,
    /// Nonlinearity `σ`.
    pub activation: Activation,
    /// Optimizer learning rate.
    pub learning_rate: f32,
    /// Passes over the random-walk pair stream.
    pub epochs: usize,
    /// Positive pairs per step.
    pub batch_size: usize,
    /// Walk schedule for positive-pair generation.
    pub walks: WalkConfig,
    /// Negative samples per positive pair (`K_N`).
    pub negative_samples: usize,
    /// Negative distribution exponent (`deg^{3/4}`).
    pub negative_power: f64,
    /// Train the base embeddings `h⁰, l⁰` (vs frozen random).
    pub trainable_base: bool,
    /// Aggregator.
    pub aggregator: Aggregator,
    /// Sample neighbors uniformly instead of by edge weight (ablation).
    pub uniform_sampling: bool,
    /// Ablation: draw each pair's negatives only from the side opposite
    /// to `x` instead of the paper's `z ∈ U ∪ V`. Empirically *worse* —
    /// same-type repulsion gives records discriminative relative
    /// positions — so the default follows the paper.
    pub typed_negatives: bool,
    /// At inference the full neighborhood is aggregated deterministically
    /// (exact Eq. 3); nodes with more neighbors than this cap keep only
    /// their top-cap heaviest edges.
    pub inference_cap: usize,
    /// Worker threads for data-parallel training and batch inference:
    /// `0` uses the process-global pool (all cores, or
    /// `GEM_NUM_THREADS`), `1` forces the sequential path on the
    /// caller thread, and any other value caps the pool to that many
    /// threads via [`gem_par::thread_cap`]. The result is bit-identical
    /// for every setting — each minibatch chunk derives its own RNG from
    /// `(seed, epoch, chunk_idx)` and chunk gradients are reduced with a
    /// fixed merge tree over chunk indices, so thread count never
    /// touches the arithmetic.
    pub num_threads: usize,
    /// Minibatch chunks whose gradients are averaged into one optimizer
    /// step. Every chunk of a group is computed against the same
    /// parameter snapshot — that independence is what makes the chunks
    /// parallelizable. `1` recovers strict per-chunk stepping (and
    /// serializes training).
    pub grad_accum: usize,
    /// Update the base-embedding tables with the sparse Adam path: only
    /// rows gathered by the current step group are touched, with the
    /// deferred zero-gradient decay replayed lazily before rows are read.
    /// Bit-identical to the dense update (a proptest enforces it) — this
    /// flag only trades per-step cost `O(table)` for `O(touched rows)`.
    pub sparse_adam: bool,
    /// Seed for all training/inference randomness.
    pub seed: u64,
}

impl Default for BiSageConfig {
    fn default() -> Self {
        BiSageConfig {
            dim: 32,
            rounds: 2,
            sample_sizes: vec![8, 4],
            activation: Activation::LeakyRelu,
            learning_rate: 0.003,
            epochs: 3,
            batch_size: 128,
            walks: WalkConfig { walks_per_node: 4, walk_length: 5 },
            negative_samples: 4,
            negative_power: 0.75,
            trainable_base: true,
            aggregator: Aggregator::WeightedMean,
            uniform_sampling: false,
            typed_negatives: false,
            inference_cap: 48,
            num_threads: 0,
            grad_accum: 2,
            sparse_adam: true,
            seed: 42,
        }
    }
}

/// Sampled neighborhood tree for a batch of target nodes.
///
/// `layers[0]` is the batch; `layers[d+1]` holds, for every node of
/// `layers[d]`, its sampled neighbors (with replacement) in segment order.
///
/// All buffers are `Arc`-shared with the tape (handed over without
/// copying, reused across aggregation rounds) and reusable across steps:
/// [`BiSage::build_tree_into`] rebuilds a tree in place, reclaiming each
/// `Arc` once the previous step's tape has released it.
#[derive(Default)]
pub(crate) struct Tree {
    pub(crate) layers: Vec<Vec<NodeId>>,
    /// Per depth `d`: segment offsets into `layers[d+1]` (+ end sentinel).
    pub(crate) offsets: Vec<Arc<Vec<u32>>>,
    /// Per depth `d`: aggregation weight of each `layers[d+1]` node,
    /// normalized within its segment.
    pub(crate) weights: Vec<Arc<Vec<f32>>>,
    /// Per layer: base-table row of each node (the gather indices).
    pub(crate) row_idx: Vec<Arc<Vec<u32>>>,
}

/// Unique access to an `Arc`-shared buffer for in-place reuse: reclaims
/// the existing allocation when the previous consumer has dropped its
/// clone, otherwise starts a fresh one. Never clears — callers do.
fn arc_vec_mut<T>(arc: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::get_mut(arc).is_none() {
        *arc = Arc::new(Vec::new());
    }
    Arc::get_mut(arc).expect("freshly created Arc is unique")
}

/// Handles of the learnable parameters during a training run.
struct TrainParams {
    w_h: Vec<ParamId>,
    w_l: Vec<ParamId>,
    /// `(h⁰ table, l⁰ table)` when the base embeddings are trainable.
    base: Option<(ParamId, ParamId)>,
}

/// Per-epoch training diagnostics.
#[derive(Clone, Debug, Default, Serialize, serde::Deserialize)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Positive pairs consumed.
    pub pairs_seen: usize,
}

/// The BiSAGE model: trained aggregation matrices plus the (growable)
/// base-embedding tables for every node seen so far.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct BiSage {
    /// Hyperparameters.
    pub cfg: BiSageConfig,
    /// `W_h^k`, each `(2d × d)`.
    pub(crate) w_h: Vec<Tensor>,
    /// `W_l^k`, each `(2d × d)`.
    pub(crate) w_l: Vec<Tensor>,
    /// Unified base primary table: row `2·r` for record `r`, `2·m+1` for
    /// MAC `m`.
    pub(crate) base_h: Tensor,
    /// Unified base auxiliary table (same indexing).
    pub(crate) base_l: Tensor,
    /// Which unified rows have been initialized.
    initialized: Vec<bool>,
    /// MAC nodes below this id existed at fit time. Later MACs are
    /// quarantined for the session: they stay in the graph but carry no
    /// in/out evidence, so record expansions and record base rows skip
    /// them until the next fit (see DESIGN.md).
    macs_at_fit: usize,
    /// Whether `fit` has completed at least once.
    trained: bool,
}

/// Unified row index of a node in the base tables.
pub(crate) fn node_row(node: NodeId) -> usize {
    match node {
        NodeId::Record(r) => 2 * r.0 as usize,
        NodeId::Mac(m) => 2 * m.0 as usize + 1,
    }
}

impl BiSage {
    /// Creates an untrained model.
    pub fn new(cfg: BiSageConfig) -> Self {
        assert_eq!(cfg.sample_sizes.len(), cfg.rounds, "one sample size per round");
        assert!(cfg.dim > 0 && cfg.rounds > 0);
        let d = cfg.dim;
        let mut seed_rng = child_rng(cfg.seed, 0x5EED_B15A);
        let w_h = (0..cfg.rounds).map(|_| init::xavier_uniform(&mut seed_rng, 2 * d, d)).collect();
        let w_l = (0..cfg.rounds).map(|_| init::xavier_uniform(&mut seed_rng, 2 * d, d)).collect();
        BiSage {
            cfg,
            w_h,
            w_l,
            base_h: Tensor::zeros(0, d),
            base_l: Tensor::zeros(0, d),
            initialized: Vec::new(),
            macs_at_fit: 0,
            trained: false,
        }
    }

    /// Whether `fit` has completed.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// The trained aggregation matrices `(W_h^k, W_l^k)`. Exposed so the
    /// determinism contract — identical parameters for a fixed seed at
    /// any thread count — can be checked from outside the crate.
    pub fn aggregation_weights(&self) -> (&[Tensor], &[Tensor]) {
        (&self.w_h, &self.w_l)
    }

    /// Sizes the base tables to exactly the rows `graph` needs; new rows
    /// start zeroed and uninitialized.
    fn grow_tables(&mut self, graph: &BipartiteGraph) {
        let rows = 2 * graph.n_records().max(graph.n_macs());
        self.base_h.resize_rows(rows);
        self.base_l.resize_rows(rows);
        self.initialized.resize(rows, false);
    }

    /// Checks a decoded model against the embedding dimension and round
    /// count it must serve and the graph it must cover: every tensor's
    /// shape agrees with its data and with `dim`/`rounds`, and the base
    /// tables hold a row for every node of `graph`.
    pub(crate) fn check_shapes(
        &self,
        dim: usize,
        rounds: usize,
        graph: &BipartiteGraph,
    ) -> Result<(), String> {
        let fits = |t: &Tensor, rows: usize| {
            t.shape() == (rows, dim) && rows.checked_mul(dim) == Some(t.len())
        };
        let rows = 2 * graph.n_records().max(graph.n_macs());
        let table_rows = self.initialized.len();
        let ok = (self.cfg.dim, self.cfg.rounds) == (dim, rounds)
            && [&self.w_h, &self.w_l]
                .iter()
                .all(|ws| ws.len() == rounds && ws.iter().all(|w| fits(w, dim.saturating_mul(2))))
            && table_rows >= rows
            && fits(&self.base_h, table_rows)
            && fits(&self.base_l, table_rows);
        if ok {
            Ok(())
        } else {
            Err(format!(
                "BiSAGE tensors do not hold {rounds} rounds of dimension {dim} over {rows} rows"
            ))
        }
    }

    /// Whether MAC `m` may shape inference: only MACs present at fit
    /// time do (the session quarantine of `macs_at_fit`).
    fn mac_at_fit(&self, m: gem_graph::MacId) -> bool {
        (m.0 as usize) < self.macs_at_fit
    }

    /// Makes sure every node of the graph has initialized base rows.
    ///
    /// Before training, new rows are random unit vectors (the paper's
    /// "h⁰ and l⁰ are chosen randomly"). After training, a new node is
    /// initialized with the edge-weighted mean of its neighbors' carriers
    /// (`h⁰` from neighbor `l⁰`s and vice versa), the documented inductive
    /// rule for streamed nodes; isolated nodes fall back to random.
    pub fn ensure_rows(&mut self, graph: &BipartiteGraph, rng: &mut impl RngExt) {
        self.ensure_rows_filtered(graph, rng, None)
    }

    /// [`BiSage::ensure_rows`] with a trusted-record filter: new record
    /// bases are derived only from fit-time MACs and new MAC bases only
    /// from trusted records, falling back to the unfiltered neighborhood
    /// when nothing qualifies.
    pub fn ensure_rows_filtered(
        &mut self,
        graph: &BipartiteGraph,
        rng: &mut impl RngExt,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) {
        self.grow_tables(graph);
        // MAC nodes first so that brand-new records can average them.
        let macs = (0..graph.n_macs() as u32).map(|m| NodeId::Mac(gem_graph::MacId(m)));
        let recs = (0..graph.n_records() as u32).map(|r| NodeId::Record(RecordId(r)));
        for node in macs.chain(recs) {
            if !self.initialized[node_row(node)] {
                self.init_node_row(graph, node, rng, trusted);
            }
        }
    }

    /// Targeted [`BiSage::ensure_rows_filtered`] for one freshly streamed
    /// record: initializes exactly the rows the full node scan would —
    /// the record's newly interned MACs (interned in reading order, hence
    /// ascending id, matching the scan's MAC-first order and RNG stream)
    /// followed by the record itself — without walking the whole node
    /// set. Public (hidden) so the engine-parity proptests can check it
    /// against the full scan bitwise, RNG stream included.
    #[doc(hidden)]
    pub fn ensure_rows_for_record(
        &mut self,
        graph: &BipartiteGraph,
        record: RecordId,
        rng: &mut impl RngExt,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) {
        self.grow_tables(graph);
        for m in graph.record_neighbors(record).map(|(m, _)| m) {
            if !self.initialized[node_row(NodeId::Mac(m))] {
                self.init_node_row(graph, NodeId::Mac(m), rng, trusted);
            }
        }
        if !self.initialized[node_row(NodeId::Record(record))] {
            self.init_node_row(graph, NodeId::Record(record), rng, trusted);
        }
    }

    /// Derives and writes the base rows of one uninitialized node — the
    /// shared body of the full [`BiSage::ensure_rows_filtered`] scan and
    /// the targeted streaming path. Consumes the RNG only for the
    /// isolated-node random fallback.
    fn init_node_row(
        &mut self,
        graph: &BipartiteGraph,
        node: NodeId,
        rng: &mut impl RngExt,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) {
        let d = self.cfg.dim;
        let row = node_row(node);
        let mut h_acc = vec![0.0f32; d];
        let mut l_acc = vec![0.0f32; d];
        let mut w_sum = 0.0f32;
        if self.trained {
            let mut neighbors: Vec<(NodeId, f32)> = match node {
                NodeId::Record(r) => graph
                    .record_neighbors(r)
                    .filter(|&(m, _)| self.mac_at_fit(m))
                    .map(|(m, w)| (NodeId::Mac(m), w))
                    .collect(),
                NodeId::Mac(m) => graph
                    .mac_neighbors(m)
                    .filter(|&(r, _)| trusted.is_none_or(|f| f(r)))
                    .map(|(r, w)| (NodeId::Record(r), w))
                    .collect(),
            };
            if neighbors.is_empty() {
                neighbors = match node {
                    NodeId::Record(r) => {
                        graph.record_neighbors(r).map(|(m, w)| (NodeId::Mac(m), w)).collect()
                    }
                    NodeId::Mac(m) => {
                        graph.mac_neighbors(m).map(|(r, w)| (NodeId::Record(r), w)).collect()
                    }
                };
            }
            for (nbr, w) in neighbors {
                let nrow = node_row(nbr);
                if nrow < self.initialized.len() && self.initialized[nrow] {
                    // Carrier semantics: my h aligns with neighbors' l.
                    for (a, &v) in h_acc.iter_mut().zip(self.base_l.row(nrow)) {
                        *a += w * v;
                    }
                    for (a, &v) in l_acc.iter_mut().zip(self.base_h.row(nrow)) {
                        *a += w * v;
                    }
                    w_sum += w;
                }
            }
        }
        if w_sum > 0.0 {
            normalize_into(&mut h_acc);
            normalize_into(&mut l_acc);
            self.base_h.set_row(row, &h_acc);
            self.base_l.set_row(row, &l_acc);
        } else {
            let h = init::unit_rows(rng, 1, d);
            let l = init::unit_rows(rng, 1, d);
            self.base_h.set_row(row, h.row(0));
            self.base_l.set_row(row, l.row(0));
        }
        self.initialized[row] = true;
    }

    /// Pure half of [`BiSage::derive_record_base`]: the inductive
    /// neighbor-mean base rows of a record (`h⁰` from its MACs' `l⁰`s and
    /// vice versa, weighted by edge weight), or `None` for isolated
    /// records. Reads only MAC rows, so it is safe to evaluate for many
    /// records in parallel before any record row is written.
    fn compute_record_base(
        &self,
        graph: &BipartiteGraph,
        r: RecordId,
    ) -> Option<(Vec<f32>, Vec<f32>)> {
        let d = self.cfg.dim;
        let mut h_acc = vec![0.0f32; d];
        let mut l_acc = vec![0.0f32; d];
        let mut w_sum = 0.0f32;
        for (m, w) in graph.record_neighbors(r) {
            let nrow = node_row(NodeId::Mac(m));
            if nrow < self.initialized.len() && self.initialized[nrow] {
                for (a, &v) in h_acc.iter_mut().zip(self.base_l.row(nrow)) {
                    *a += w * v;
                }
                for (a, &v) in l_acc.iter_mut().zip(self.base_h.row(nrow)) {
                    *a += w * v;
                }
                w_sum += w;
            }
        }
        if w_sum <= 0.0 {
            return None;
        }
        normalize_into(&mut h_acc);
        normalize_into(&mut l_acc);
        Some((h_acc, l_acc))
    }

    /// Writes freshly derived base rows for a record.
    fn apply_record_base(&mut self, r: RecordId, h: &[f32], l: &[f32]) {
        let row = node_row(NodeId::Record(r));
        self.base_h.set_row(row, h);
        self.base_l.set_row(row, l);
        self.initialized[row] = true;
    }

    /// Collects a node's neighborhood for one tree level: a weighted
    /// random sample during training, or (deterministically) the full
    /// neighborhood — truncated to the top-`cap` heaviest edges — at
    /// inference time.
    fn neighborhood(
        &self,
        graph: &BipartiteGraph,
        node: NodeId,
        sample_size: usize,
        rng: Option<&mut StdRng>,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) -> Vec<(NodeId, f32)> {
        match rng {
            Some(rng) => {
                if self.cfg.uniform_sampling {
                    graph.sample_neighbors_uniform(node, sample_size, rng)
                } else {
                    graph.sample_neighbors(node, sample_size, rng)
                }
            }
            None => {
                let mut all = Vec::new();
                self.neighborhood_into(graph, node, trusted, &mut all);
                all
            }
        }
    }

    /// The deterministic (inference-time) branch of
    /// [`BiSage::neighborhood`], writing into a caller-owned buffer so
    /// the streaming engine can collect neighborhoods without
    /// allocating. Semantics are identical to the allocating path:
    /// fit-time-MAC / trusted-record filtering, raw-neighborhood
    /// fallback, top-`inference_cap` truncation.
    pub(crate) fn neighborhood_into(
        &self,
        graph: &BipartiteGraph,
        node: NodeId,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
        out: &mut Vec<(NodeId, f32)>,
    ) {
        out.clear();
        match node {
            NodeId::Record(r) => out.extend(
                graph
                    .record_neighbors(r)
                    .filter(|&(m, _)| self.mac_at_fit(m))
                    .map(|(m, w)| (NodeId::Mac(m), w)),
            ),
            NodeId::Mac(m) => out.extend(
                graph
                    .mac_neighbors(m)
                    .filter(|&(r, _)| trusted.is_none_or(|f| f(r)))
                    .map(|(r, w)| (NodeId::Record(r), w)),
            ),
        }
        // Freshly streamed nodes may have no fit-time or trusted
        // neighbors at all; fall back to the raw neighborhood
        // rather than embedding from nothing.
        if out.is_empty() {
            match node {
                NodeId::Record(r) => {
                    out.extend(graph.record_neighbors(r).map(|(m, w)| (NodeId::Mac(m), w)))
                }
                NodeId::Mac(m) => {
                    out.extend(graph.mac_neighbors(m).map(|(r, w)| (NodeId::Record(r), w)))
                }
            }
        }
        if out.len() > self.cfg.inference_cap {
            out.sort_by(|a, b| b.1.total_cmp(&a.1));
            out.truncate(self.cfg.inference_cap);
        }
    }

    fn build_tree(
        &self,
        graph: &BipartiteGraph,
        targets: &[NodeId],
        rng: Option<&mut StdRng>,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) -> Tree {
        let mut tree = Tree::default();
        let mut scratch = Vec::new();
        self.build_tree_into(graph, targets, rng, trusted, &mut tree, &mut scratch);
        tree
    }

    /// [`BiSage::build_tree`] into a reusable tree: every layer, offset,
    /// weight, and row-index buffer is rebuilt in place (allocation-free
    /// once warm), and `scratch` holds one node's sampled neighborhood at
    /// a time on the training path. The RNG stream consumed is identical
    /// to the allocating variant's.
    pub(crate) fn build_tree_into(
        &self,
        graph: &BipartiteGraph,
        targets: &[NodeId],
        mut rng: Option<&mut StdRng>,
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
        tree: &mut Tree,
        scratch: &mut Vec<(NodeId, f32)>,
    ) {
        /// Below this many frontier nodes, fan-out overhead beats the win.
        const PAR_THRESHOLD: usize = 32;
        let rounds = self.cfg.rounds;
        tree.layers.resize_with(rounds + 1, Vec::new);
        tree.offsets.resize_with(rounds, || Arc::new(Vec::new()));
        tree.weights.resize_with(rounds, || Arc::new(Vec::new()));
        tree.row_idx.resize_with(rounds + 1, || Arc::new(Vec::new()));
        tree.layers[0].clear();
        tree.layers[0].extend_from_slice(targets);
        for depth in 0..rounds {
            let s = self.cfg.sample_sizes[depth];
            let (done, rest) = tree.layers.split_at_mut(depth + 1);
            let cur = &done[depth];
            let next = &mut rest[0];
            let offs = arc_vec_mut(&mut tree.offsets[depth]);
            let wts = arc_vec_mut(&mut tree.weights[depth]);
            next.clear();
            offs.clear();
            wts.clear();
            offs.push(0u32);
            let append_segment = |sampled: &[(NodeId, f32)],
                                  next: &mut Vec<NodeId>,
                                  offs: &mut Vec<u32>,
                                  wts: &mut Vec<f32>| {
                let w_total: f32 = match self.cfg.aggregator {
                    Aggregator::WeightedMean => sampled.iter().map(|&(_, w)| w).sum(),
                    Aggregator::Mean => sampled.len() as f32,
                };
                for &(nbr, w) in sampled {
                    next.push(nbr);
                    let norm_w = match self.cfg.aggregator {
                        Aggregator::WeightedMean => w / w_total.max(1e-12),
                        Aggregator::Mean => 1.0 / w_total.max(1e-12),
                    };
                    wts.push(norm_w);
                }
                offs.push(next.len() as u32);
            };
            match &mut rng {
                // Training: sample each node's neighborhood into the
                // shared scratch and assemble its segment immediately
                // (assembly consumes no randomness, so the RNG stream
                // matches the collect-then-assemble order exactly).
                Some(rng) => {
                    for &node in cur.iter() {
                        scratch.clear();
                        if self.cfg.uniform_sampling {
                            graph.sample_neighbors_uniform_into(node, s, rng, scratch);
                        } else {
                            graph.sample_neighbors_into(node, s, rng, scratch);
                        }
                        append_segment(scratch, next, offs, wts);
                    }
                }
                // Inference: no RNG stream to preserve, so the per-node
                // neighborhood collection — the expensive part:
                // filtering, weighting, top-cap sorting — can fan out;
                // segment assembly stays sequential either way.
                None => {
                    let sampled: Vec<Vec<(NodeId, f32)>> =
                        if self.cfg.num_threads != 1 && cur.len() >= PAR_THRESHOLD {
                            let _cap = (self.cfg.num_threads > 1)
                                .then(|| gem_par::thread_cap(self.cfg.num_threads));
                            gem_par::par_map(cur, |&node| {
                                self.neighborhood(graph, node, s, None, trusted)
                            })
                        } else {
                            cur.iter()
                                .map(|&node| self.neighborhood(graph, node, s, None, trusted))
                                .collect()
                        };
                    for sampled in &sampled {
                        append_segment(sampled, next, offs, wts);
                    }
                }
            }
        }
        for (layer, idx) in tree.layers.iter().zip(tree.row_idx.iter_mut()) {
            let idx = arc_vec_mut(idx);
            idx.clear();
            idx.extend(layer.iter().map(|&n| node_row(n) as u32));
        }
    }

    /// Shared forward pass over a neighborhood tree. When `params` is
    /// `Some`, learnable tensors come from the store (training); otherwise
    /// the model's frozen tensors enter as constants (inference).
    fn forward(
        &self,
        g: &mut Graph,
        tree: &Tree,
        store: Option<&ParamStore>,
        params: Option<&TrainParams>,
        fs: &mut ForwardScratch,
    ) -> (Var, Var) {
        let k_rounds = self.cfg.rounds;
        fs.cur_h.clear();
        fs.cur_l.clear();
        for (layer, idx) in tree.layers.iter().zip(&tree.row_idx) {
            match (store, params.and_then(|p| p.base.as_ref())) {
                (Some(s), Some(&(bh, bl))) => {
                    // The tape shares the tree's row-index buffer (no copy).
                    fs.cur_h.push(g.gather(s, bh, idx));
                    fs.cur_l.push(g.gather(s, bl, idx));
                }
                _ => {
                    let mut h = Tensor::zeros(layer.len(), self.cfg.dim);
                    let mut l = Tensor::zeros(layer.len(), self.cfg.dim);
                    for (i, &r) in idx.iter().enumerate() {
                        h.set_row(i, self.base_h.row(r as usize));
                        l.set_row(i, self.base_l.row(r as usize));
                    }
                    fs.cur_h.push(g.constant(h));
                    fs.cur_l.push(g.constant(l));
                }
            }
        }
        for k in 1..=k_rounds {
            let (w_h_var, w_l_var) = match (store, params) {
                (Some(s), Some(p)) => (g.param(s, p.w_h[k - 1]), g.param(s, p.w_l[k - 1])),
                _ => (g.constant(self.w_h[k - 1].clone()), g.constant(self.w_l[k - 1].clone())),
            };
            let depths = k_rounds - k;
            fs.next_h.clear();
            fs.next_l.clear();
            for d in 0..=depths {
                let agg_h = g.segment_weighted_sum(
                    fs.cur_l[d + 1],
                    Arc::clone(&tree.offsets[d]),
                    Arc::clone(&tree.weights[d]),
                );
                let cat_h = g.concat_cols(fs.cur_h[d], agg_h);
                let lin_h = g.matmul(cat_h, w_h_var);
                let act_h = g.activation(lin_h, self.cfg.activation);
                fs.next_h.push(g.row_l2_normalize(act_h));

                let agg_l = g.segment_weighted_sum(
                    fs.cur_h[d + 1],
                    Arc::clone(&tree.offsets[d]),
                    Arc::clone(&tree.weights[d]),
                );
                let cat_l = g.concat_cols(fs.cur_l[d], agg_l);
                let lin_l = g.matmul(cat_l, w_l_var);
                let act_l = g.activation(lin_l, self.cfg.activation);
                fs.next_l.push(g.row_l2_normalize(act_l));
            }
            std::mem::swap(&mut fs.cur_h, &mut fs.next_h);
            std::mem::swap(&mut fs.cur_l, &mut fs.next_l);
        }
        (fs.cur_h[0], fs.cur_l[0])
    }

    /// Trains the model on the current graph (paper's initial training).
    /// Re-fitting resets the aggregation matrices.
    pub fn fit(&mut self, graph: &BipartiteGraph) -> TrainReport {
        self.fit_instrumented(graph, &mut |_| {})
    }

    /// [`BiSage::fit`] with an event callback fired around every optimizer
    /// step group (see [`StepEvent`]). Benchmarks hook this to window
    /// per-step measurements — allocation counts, timings — without
    /// perturbing the hot loop; the events are invoked on the caller's
    /// thread, outside all parallel regions.
    pub fn fit_instrumented(
        &mut self,
        graph: &BipartiteGraph,
        on_event: &mut dyn FnMut(StepEvent),
    ) -> TrainReport {
        let mut rng = child_rng(self.cfg.seed, 0x7_1A14);
        self.ensure_rows(graph, &mut rng);
        let mut report = TrainReport::default();
        let Some(negatives) = NegativeTable::build(graph, self.cfg.negative_power) else {
            // Graph without edges: nothing to learn from.
            self.trained = true;
            self.macs_at_fit = graph.n_macs();
            return report;
        };
        let typed_tables = if self.cfg.typed_negatives {
            let recs =
                NegativeTable::build_filtered(graph, self.cfg.negative_power, |n| n.is_record());
            let macs =
                NegativeTable::build_filtered(graph, self.cfg.negative_power, |n| !n.is_record());
            recs.zip(macs)
        } else {
            None
        };

        let d = self.cfg.dim;
        let mut store = ParamStore::new();
        let w_h: Vec<ParamId> = (0..self.cfg.rounds)
            .map(|k| store.add(format!("w_h{k}"), self.w_h[k].clone()))
            .collect();
        let w_l: Vec<ParamId> = (0..self.cfg.rounds)
            .map(|k| store.add(format!("w_l{k}"), self.w_l[k].clone()))
            .collect();
        let base = if self.cfg.trainable_base {
            let rows = 2 * graph.n_records().max(graph.n_macs());
            let mut bh = Tensor::zeros(rows, d);
            let mut bl = Tensor::zeros(rows, d);
            for i in 0..rows {
                bh.set_row(i, self.base_h.row(i));
                bl.set_row(i, self.base_l.row(i));
            }
            Some((store.add("base_h", bh), store.add("base_l", bl)))
        } else {
            None
        };
        let params = TrainParams { w_h, w_l, base };
        if self.cfg.sparse_adam {
            if let Some((bh, bl)) = params.base {
                store.mark_sparse(bh);
                store.mark_sparse(bl);
            }
        }
        let mut opt = Adam::new(self.cfg.learning_rate);

        // Data-parallel epoch loop. The chunk decomposition is a pure
        // function of the shuffled pair stream and `batch_size`; every
        // chunk derives its RNG from `(seed, epoch, chunk_idx)` and its
        // gradients are computed against the parameter snapshot at the
        // start of its group. The reducer then folds the group's gradient
        // sinks back in fixed chunk order, so the parameter trajectory is
        // bit-identical for any thread count.
        //
        // Each group runs in three phases: (1) *plan* — per-chunk RNG
        // target assembly and tree sampling; (2) *catch-up* — sparse Adam
        // brings every base row the group will gather up to the current
        // step, since the forward pass is about to read it; (3) *compute*
        // — forward/backward on thread-local arena tapes into per-chunk
        // persistent sinks. Phases 1 and 3 fan out over chunks.
        let group_len = self.cfg.grad_accum.max(1);
        // `num_threads > 1` caps the pool for the duration of this fit;
        // the guard composes with any cap the caller already holds.
        let _cap = (self.cfg.num_threads > 1).then(|| gem_par::thread_cap(self.cfg.num_threads));
        let parallel = self.cfg.num_threads != 1 && gem_par::effective_threads() > 1;
        // Per-chunk state persists across groups so warm steps reuse every
        // buffer; `plans` only grows (a shorter final group borrows a
        // prefix), so warmed buffers are never dropped early.
        let mut plans: Vec<ChunkPlan> = Vec::new();
        let mut row_seen: Vec<bool> = Vec::new();
        let mut rows_union: Vec<u32> = Vec::new();
        for epoch in 0..self.cfg.epochs {
            let mut pairs = WalkPairs::generate(graph, self.cfg.walks, &mut rng);
            if pairs.is_empty() {
                break;
            }
            pairs.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut steps = 0usize;
            let chunks: Vec<&[(NodeId, NodeId)]> =
                pairs.pairs.chunks(self.cfg.batch_size).collect();
            for (group_idx, group) in chunks.chunks(group_len).enumerate() {
                on_event(StepEvent::GroupStart);
                if plans.len() < group.len() {
                    plans.resize_with(group.len(), ChunkPlan::default);
                }
                let active = &mut plans[..group.len()];

                // Phase 1 — plan. Writes only into the chunk's own plan.
                let plan_one = |i: usize, plan: &mut ChunkPlan| {
                    let mut rng =
                        child_rng(self.cfg.seed, chunk_stream(epoch, group_idx * group_len + i));
                    let ChunkPlan { targets, tree, scratch, .. } = plan;
                    self.plan_targets(
                        group[i],
                        &negatives,
                        typed_tables.as_ref(),
                        &mut rng,
                        targets,
                    );
                    self.build_tree_into(graph, targets, Some(&mut rng), None, tree, scratch);
                };
                if parallel {
                    gem_par::par_for_each_mut(active, plan_one);
                } else {
                    for (i, plan) in active.iter_mut().enumerate() {
                        plan_one(i, plan);
                    }
                }

                // Phase 2 — catch-up of the union of gathered base rows
                // (deduplicated via a reusable bitmap; catch-up order is
                // irrelevant because rows are independent).
                if self.cfg.sparse_adam {
                    if let Some((bh, bl)) = params.base {
                        row_seen.resize(store.value(bh).rows(), false);
                        rows_union.clear();
                        for plan in active.iter() {
                            for idx in &plan.tree.row_idx {
                                for &r in idx.iter() {
                                    if !row_seen[r as usize] {
                                        row_seen[r as usize] = true;
                                        rows_union.push(r);
                                    }
                                }
                            }
                        }
                        opt.catch_up_rows(&mut store, bh, &rows_union);
                        opt.catch_up_rows(&mut store, bl, &rows_union);
                        for &r in &rows_union {
                            row_seen[r as usize] = false;
                        }
                    }
                }

                // Phase 3 — compute, against the shared snapshot.
                let compute_one = |i: usize, plan: &mut ChunkPlan| {
                    let ChunkPlan { tree, sink, loss, .. } = plan;
                    *loss = self.chunk_grads_planned(&store, &params, tree, group[i].len(), sink);
                };
                if parallel {
                    gem_par::par_for_each_mut(active, compute_one);
                } else {
                    for (i, plan) in active.iter_mut().enumerate() {
                        compute_one(i, plan);
                    }
                }

                // Reduce with a fixed pairwise tree over chunk indices
                // (stride doubling): the merge topology depends only on
                // the group length, never on the thread count, so the
                // summed gradient — and the whole trajectory — stays
                // bit-identical for any parallelism (determinism
                // contract). Pairs at one level are disjoint, so the
                // merges themselves fan out; the store is written once
                // at the root instead of once per chunk.
                let alpha = 1.0 / active.len() as f32;
                for plan in active.iter() {
                    epoch_loss += plan.loss as f64;
                    steps += 1;
                }
                let mut stride = 1;
                while stride < active.len() {
                    let merge_pair = |_i: usize, pair: &mut [ChunkPlan]| {
                        if pair.len() > stride {
                            let (dst, src) = pair.split_at_mut(stride);
                            dst[0].sink.merge_from(&src[0].sink);
                        }
                    };
                    if parallel && active.len() > 2 * stride {
                        gem_par::par_chunks_mut(active, 2 * stride, merge_pair);
                    } else {
                        for pair in active.chunks_mut(2 * stride) {
                            merge_pair(0, pair);
                        }
                    }
                    stride *= 2;
                }
                store.apply_grads(&active[0].sink, alpha);
                store.clip_grad_norm(5.0);
                opt.step(&mut store);
                store.zero_grads();
                on_event(StepEvent::GroupEnd);
            }
            report.pairs_seen += pairs.len();
            report.epoch_losses.push((epoch_loss / steps.max(1) as f64) as f32);
        }
        // Sparse Adam leaves never-again-gathered rows behind; flush the
        // deferred updates so the stored tables bitwise match the dense
        // trajectory before anything reads them.
        opt.finalize(&mut store);

        for k in 0..self.cfg.rounds {
            self.w_h[k] = store.value(params.w_h[k]).clone();
            self.w_l[k] = store.value(params.w_l[k]).clone();
        }
        if let Some((bh, bl)) = params.base {
            let trained_h = store.value(bh);
            let trained_l = store.value(bl);
            for i in 0..trained_h.rows() {
                self.base_h.set_row(i, trained_h.row(i));
                self.base_l.set_row(i, trained_l.row(i));
            }
        }
        self.trained = true;
        self.macs_at_fit = graph.n_macs();
        // Inductive consistency: record nodes keep *no* node-specific
        // parameters at inference. Their trained bases served as free
        // variables that shaped the MAC bases and aggregation matrices
        // during training; now every record base is re-derived from its
        // MAC neighbors by the same rule streamed records will use, so
        // training and streamed records are exchangeable. The derivation
        // reads only MAC rows, so all records compute in parallel before
        // any row is written.
        let recs: Vec<RecordId> = (0..graph.n_records() as u32).map(RecordId).collect();
        let bases = if self.cfg.num_threads != 1 && recs.len() >= 32 {
            gem_par::par_map(&recs, |&r| self.compute_record_base(graph, r))
        } else {
            recs.iter().map(|&r| self.compute_record_base(graph, r)).collect()
        };
        for (&r, base) in recs.iter().zip(&bases) {
            if let Some((h, l)) = base {
                self.apply_record_base(r, h, l);
            }
        }
        report
    }

    /// Phase-1 target assembly for one chunk: the positive pairs'
    /// endpoints followed by `negative_samples` negatives per pair, into
    /// the chunk's reusable buffer. Consumes the chunk RNG exactly like
    /// the pre-split training loop did (negatives first, tree second).
    fn plan_targets(
        &self,
        pairs: &[(NodeId, NodeId)],
        negatives: &NegativeTable,
        typed_tables: Option<&(NegativeTable, NegativeTable)>,
        rng: &mut StdRng,
        out: &mut Vec<NodeId>,
    ) {
        let b = pairs.len();
        let kn = self.cfg.negative_samples;
        out.clear();
        out.reserve(2 * b + b * kn);
        out.extend(pairs.iter().map(|&(x, _)| x));
        out.extend(pairs.iter().map(|&(_, y)| y));
        for &(x, y) in pairs {
            let table = match typed_tables {
                // Negatives share y's type (the side opposite to x).
                Some((recs, macs)) => {
                    if y.is_record() {
                        recs
                    } else {
                        macs
                    }
                }
                None => negatives,
            };
            for _ in 0..kn {
                out.push(table.sample_excluding(x, y, rng));
            }
        }
    }

    /// Phase-3 forward + backward for one planned chunk against a
    /// read-only parameter snapshot, gradients into the chunk's
    /// persistent sink. The sampling RNG was already consumed in phase 1,
    /// so the result does not depend on which thread — or in what order —
    /// the chunk is evaluated. Runs on a thread-local arena-backed tape:
    /// after the first step of a given shape, the whole computation
    /// performs no heap allocation.
    fn chunk_grads_planned(
        &self,
        store: &ParamStore,
        params: &TrainParams,
        tree: &Tree,
        b: usize,
        sink: &mut GradStore,
    ) -> f32 {
        let kn = self.cfg.negative_samples;
        STEP_BUFFERS.with(|buffers| {
            let buf = &mut *buffers.borrow_mut();
            let StepBuffers {
                graph: g,
                forward: fs,
                x_idx,
                y_idx,
                z_idx,
                x_rep,
                ones,
                zeros,
                index_shape,
            } = buf;
            let (h_all, l_all) = self.forward(g, tree, Some(store), Some(params), fs);

            // Selection/target vectors depend only on `(b, kn)`; rebuild
            // them only when the shape changes — the final short chunk of
            // an epoch, typically. The previous tape has been reset, so
            // the old Arcs are unreferenced and simply replaced.
            if *index_shape != (b, kn) {
                *x_idx = Arc::new((0..b as u32).collect());
                *y_idx = Arc::new((b as u32..2 * b as u32).collect());
                *z_idx = Arc::new((2 * b as u32..(2 * b + b * kn) as u32).collect());
                *x_rep = Arc::new((0..b as u32).flat_map(|i| std::iter::repeat_n(i, kn)).collect());
                *ones = Arc::new(vec![1.0f32; b]);
                *zeros = Arc::new(vec![0.0f32; b * kn]);
                *index_shape = (b, kn);
            }

            let h_x = g.select_rows(h_all, &*x_idx);
            let l_x = g.select_rows(l_all, &*x_idx);
            let h_y = g.select_rows(h_all, &*y_idx);
            let l_y = g.select_rows(l_all, &*y_idx);
            let h_z = g.select_rows(h_all, &*z_idx);
            let l_z = g.select_rows(l_all, &*z_idx);
            let h_x_rep = g.select_rows(h_all, &*x_rep);
            let l_x_rep = g.select_rows(l_all, &*x_rep);

            let pos1 = g.rows_dot(h_x, l_y);
            let pos2 = g.rows_dot(l_x, h_y);
            let neg1 = g.rows_dot(h_x_rep, l_z);
            let neg2 = g.rows_dot(l_x_rep, h_z);

            let lp1 = g.bce_with_logits_mean(pos1, &*ones);
            let lp2 = g.bce_with_logits_mean(pos2, &*ones);
            let ln1 = g.bce_with_logits_mean(neg1, &*zeros);
            let ln2 = g.bce_with_logits_mean(neg2, &*zeros);
            let pos_sum = g.add(lp1, lp2);
            let neg_sum = g.add(ln1, ln2);
            let loss = g.add(pos_sum, neg_sum);
            let loss_value = g.value(loss)[(0, 0)];

            sink.ensure_like(store);
            g.backward_into(loss, sink);
            // Recycle every tape buffer into the arena and release the
            // tape's clones of the tree/index Arcs, so the next phase 1
            // can rebuild the tree buffers in place.
            g.reset();
            loss_value
        })
    }

    /// Computes final `(h^K, l^K)` embeddings for a set of nodes through
    /// the learned aggregation, deterministically over the (capped) full
    /// neighborhoods. Rows for every tree node must exist (call
    /// [`BiSage::ensure_rows`] after adding nodes to the graph).
    pub fn embed_nodes(&self, graph: &BipartiteGraph, nodes: &[NodeId]) -> (Tensor, Tensor) {
        self.embed_nodes_filtered(graph, nodes, None)
    }

    /// Like [`BiSage::embed_nodes`], but the deterministic neighborhood
    /// expansion only passes through record nodes accepted by `trusted`.
    /// GEM uses this to keep streamed records that were classified as
    /// outliers from redefining the in-premises graph structure (the
    /// pseudo-label principle of Section V-B).
    pub fn embed_nodes_filtered(
        &self,
        graph: &BipartiteGraph,
        nodes: &[NodeId],
        trusted: Option<&(dyn Fn(RecordId) -> bool + Sync)>,
    ) -> (Tensor, Tensor) {
        let tree = self.build_tree(graph, nodes, None, trusted);
        let mut g = Graph::new();
        let mut fs = ForwardScratch::default();
        let (h, l) = self.forward(&mut g, &tree, None, None, &mut fs);
        (g.value(h).clone(), g.value(l).clone())
    }

    /// Primary embeddings of every record node in the graph (training-set
    /// feature matrix for the detector). Runs on the tape-free
    /// [`crate::InferenceEngine`] batch path; bitwise identical to the
    /// tape reference ([`BiSage::embed_all_records_tape`]).
    pub fn embed_all_records(&self, graph: &BipartiteGraph) -> Tensor {
        let records: Vec<RecordId> = (0..graph.n_records() as u32).map(RecordId).collect();
        crate::InferenceEngine::new().embed_records_batch(self, graph, &records, None)
    }

    /// Tape-based reference for [`BiSage::embed_all_records`]; kept for
    /// the engine-parity proptests.
    #[doc(hidden)]
    pub fn embed_all_records_tape(&self, graph: &BipartiteGraph) -> Tensor {
        let nodes: Vec<NodeId> =
            (0..graph.n_records() as u32).map(|r| NodeId::Record(RecordId(r))).collect();
        if nodes.is_empty() {
            return Tensor::zeros(0, self.cfg.dim);
        }
        self.embed_nodes(graph, &nodes).0
    }
}

/// RNG stream id of one training chunk: a fixed tag XOR-folded with the
/// epoch and the chunk's position in the (deterministic) epoch
/// decomposition. Fed to [`child_rng`] together with the model seed.
fn chunk_stream(epoch: usize, chunk_idx: usize) -> u64 {
    0x7C41_0000_0000_0000 ^ ((epoch as u64) << 32) ^ chunk_idx as u64
}

/// Callback events from [`BiSage::fit_instrumented`], fired on the
/// caller's thread around each optimizer step group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// About to process one gradient-accumulation group.
    GroupStart,
    /// Finished the group: optimizer step applied, gradients cleared.
    GroupEnd,
}

/// Persistent per-chunk training state: phase 1 (plan) fills `targets`
/// and `tree`, phase 2 reads the tree's row indices for optimizer
/// catch-up, phase 3 (compute) writes `loss` and `sink`. Plans live for
/// the whole fit so every buffer warms up once and is reused each group.
#[derive(Default)]
struct ChunkPlan {
    targets: Vec<NodeId>,
    tree: Tree,
    /// One node's sampled neighborhood during tree building.
    scratch: Vec<(NodeId, f32)>,
    sink: GradStore,
    loss: f32,
}

/// Var stacks reused by [`BiSage::forward`] across rounds and calls.
#[derive(Default)]
struct ForwardScratch {
    cur_h: Vec<Var>,
    cur_l: Vec<Var>,
    next_h: Vec<Var>,
    next_l: Vec<Var>,
}

/// Per-thread training scratch: the arena-backed tape, the forward-pass
/// var stacks, and the `(b, kn)`-shaped selection/target buffers shared
/// with the tape via `Arc`. Each pool worker (and the sequential path)
/// keeps its own copy, so no synchronization is involved and reuse cannot
/// change results.
struct StepBuffers {
    graph: Graph,
    forward: ForwardScratch,
    x_idx: Arc<Vec<u32>>,
    y_idx: Arc<Vec<u32>>,
    z_idx: Arc<Vec<u32>>,
    x_rep: Arc<Vec<u32>>,
    ones: Arc<Vec<f32>>,
    zeros: Arc<Vec<f32>>,
    /// `(batch, negatives)` shape the buffers were built for.
    index_shape: (usize, usize),
}

impl Default for StepBuffers {
    fn default() -> Self {
        StepBuffers {
            graph: Graph::with_arena(Rc::new(TensorArena::new())),
            forward: ForwardScratch::default(),
            x_idx: Arc::new(Vec::new()),
            y_idx: Arc::new(Vec::new()),
            z_idx: Arc::new(Vec::new()),
            x_rep: Arc::new(Vec::new()),
            ones: Arc::new(Vec::new()),
            zeros: Arc::new(Vec::new()),
            index_shape: (usize::MAX, usize::MAX),
        }
    }
}

thread_local! {
    static STEP_BUFFERS: RefCell<StepBuffers> = RefCell::new(StepBuffers::default());
}

pub(crate) fn normalize_into(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_graph::WeightFn;
    use gem_signal::{MacAddr, SignalRecord};
    use rand::SeedableRng;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_raw(i)
    }

    /// Two well-separated clusters of records: cluster A shares MACs 1–3,
    /// cluster B shares MACs 11–13.
    fn cluster_graph(n_per: usize) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
        for i in 0..n_per {
            let jitter = (i % 3) as f32;
            g.add_record(&SignalRecord::from_pairs(
                i as f64,
                [(mac(1), -45.0 - jitter), (mac(2), -55.0 + jitter), (mac(3), -65.0)],
            ));
        }
        for i in 0..n_per {
            let jitter = (i % 3) as f32;
            g.add_record(&SignalRecord::from_pairs(
                (n_per + i) as f64,
                [(mac(11), -45.0 + jitter), (mac(12), -55.0 - jitter), (mac(13), -65.0)],
            ));
        }
        g
    }

    fn small_cfg() -> BiSageConfig {
        BiSageConfig {
            dim: 16,
            epochs: 4,
            batch_size: 64,
            sample_sizes: vec![6, 3],
            learning_rate: 0.01,
            ..BiSageConfig::default()
        }
    }

    fn mean_dist(emb: &Tensor, ids: &[usize], jds: &[usize]) -> f32 {
        let mut s = 0.0;
        let mut n = 0;
        for &i in ids {
            for &j in jds {
                if i != j {
                    s += Tensor::row_distance(emb, i, emb, j);
                    n += 1;
                }
            }
        }
        s / n as f32
    }

    #[test]
    fn training_reduces_loss() {
        let g = cluster_graph(12);
        let mut model = BiSage::new(small_cfg());
        let report = model.fit(&g);
        assert!(model.is_trained());
        assert!(report.epoch_losses.len() >= 2);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn embeddings_separate_clusters() {
        let n = 12;
        let g = cluster_graph(n);
        let mut model = BiSage::new(small_cfg());
        model.fit(&g);
        let _rng = StdRng::seed_from_u64(5);
        let emb = model.embed_all_records(&g);
        let a: Vec<usize> = (0..n).collect();
        let b: Vec<usize> = (n..2 * n).collect();
        let within = (mean_dist(&emb, &a, &a) + mean_dist(&emb, &b, &b)) / 2.0;
        let between = mean_dist(&emb, &a, &b);
        assert!(
            between > 1.5 * within,
            "clusters must separate: within {within:.3}, between {between:.3}"
        );
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let g = cluster_graph(6);
        let mut model = BiSage::new(small_cfg());
        model.fit(&g);
        let _rng = StdRng::seed_from_u64(6);
        let emb = model.embed_all_records(&g);
        for i in 0..emb.rows() {
            let n = emb.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "row {i} norm {n}");
        }
    }

    #[test]
    fn new_record_lands_near_its_cluster() {
        let n = 12;
        let mut g = cluster_graph(n);
        let mut model = BiSage::new(small_cfg());
        model.fit(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let emb = model.embed_all_records(&g);
        // Stream a new record that looks like cluster A.
        let rid = g.add_record(&SignalRecord::from_pairs(
            99.0,
            [(mac(1), -46.0), (mac(2), -56.0), (mac(3), -64.0)],
        ));
        model.ensure_rows(&g, &mut rng);
        let h = crate::InferenceEngine::new().embed_record(&model, &g, rid, None);
        let hrow = Tensor::from_vec(1, h.len(), h);
        let da: f32 =
            (0..n).map(|i| Tensor::row_distance(&hrow, 0, &emb, i)).sum::<f32>() / n as f32;
        let db: f32 =
            (n..2 * n).map(|i| Tensor::row_distance(&hrow, 0, &emb, i)).sum::<f32>() / n as f32;
        assert!(da < db, "new A-record must embed nearer cluster A ({da:.3} vs {db:.3})");
    }

    #[test]
    fn frozen_base_also_trains() {
        let g = cluster_graph(8);
        let mut cfg = small_cfg();
        cfg.trainable_base = false;
        let mut model = BiSage::new(cfg);
        let report = model.fit(&g);
        assert!(model.is_trained());
        assert!(!report.epoch_losses.is_empty());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = BipartiteGraph::new(WeightFn::default());
        let mut model = BiSage::new(small_cfg());
        let report = model.fit(&g);
        assert!(model.is_trained());
        assert!(report.epoch_losses.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cluster_graph(6);
        let run = || {
            let mut m = BiSage::new(small_cfg());
            m.fit(&g);
            let _rng = StdRng::seed_from_u64(3);
            m.embed_all_records(&g)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uniform_sampling_ablation_runs() {
        let g = cluster_graph(6);
        let mut cfg = small_cfg();
        cfg.uniform_sampling = true;
        cfg.aggregator = Aggregator::Mean;
        let mut model = BiSage::new(cfg);
        model.fit(&g);
        let _rng = StdRng::seed_from_u64(4);
        let emb = model.embed_all_records(&g);
        assert_eq!(emb.rows(), 12);
    }
}
