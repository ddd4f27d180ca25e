//! The weighted bipartite graph structure (paper Section IV-A).

use std::collections::HashMap;

use rand::RngExt;
use serde::{Deserialize, Serialize};

use gem_signal::{MacAddr, SignalRecord};

/// Identifier of a signal-record node (`u ∈ U`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RecordId(pub u32);

/// Identifier of a MAC node (`v ∈ V`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MacId(pub u32);

/// A node of either type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// A signal-record node.
    Record(RecordId),
    /// A MAC-address node.
    Mac(MacId),
}

impl NodeId {
    /// True if this is a record node.
    pub fn is_record(self) -> bool {
        matches!(self, NodeId::Record(_))
    }
}

/// Edge-weight function `w = f(RSS)` (paper Eq. 1).
///
/// The paper's default (Eq. 2) is the linear offset `RSS + c` with
/// `c > max |RSS|`; Fig. 14(d) sweeps alternatives, which we model as this
/// enum. All variants return strictly positive weights for RSS values in
/// the physical range.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WeightFn {
    /// `w = RSS + c` (the paper's Eq. 2; default `c = 120`).
    OffsetLinear {
        /// Offset in dB, must exceed the magnitude of any RSS.
        c: f32,
    },
    /// `w = 10^(RSS / scale)` — proportional to received power when
    /// `scale = 10`; compresses to milder ratios for larger scales.
    Exponential {
        /// Denominator in the exponent, in dB.
        scale: f32,
    },
    /// `w = 1` for every edge — ignores RSS magnitudes entirely
    /// (presence-only ablation).
    Unit,
}

impl Default for WeightFn {
    fn default() -> Self {
        WeightFn::OffsetLinear { c: 120.0 }
    }
}

impl WeightFn {
    /// Minimum weight produced, guarding `f(RSS) > 0` even for readings
    /// below the nominal floor.
    pub const MIN_WEIGHT: f32 = 1e-3;

    /// Evaluates the weight function on an RSS value in dBm.
    pub fn weight(self, rssi: f32) -> f32 {
        let w = match self {
            WeightFn::OffsetLinear { c } => rssi + c,
            WeightFn::Exponential { scale } => 10.0f32.powf(rssi / scale),
            WeightFn::Unit => 1.0,
        };
        w.max(Self::MIN_WEIGHT)
    }
}

/// Adjacency list of one node with an appended prefix-sum for O(log deg)
/// weighted sampling. Edges are append-only, so the prefix sum extends in
/// O(1) per new edge.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Adjacency {
    /// `(neighbor index, edge weight)` pairs in insertion order.
    nbrs: Vec<(u32, f32)>,
    /// `cumw[i]` = sum of weights of `nbrs[..=i]`.
    cumw: Vec<f64>,
}

impl Adjacency {
    fn push(&mut self, target: u32, weight: f32) {
        let prev = self.cumw.last().copied().unwrap_or(0.0);
        self.nbrs.push((target, weight));
        self.cumw.push(prev + weight as f64);
    }

    fn total_weight(&self) -> f64 {
        self.cumw.last().copied().unwrap_or(0.0)
    }

    /// Samples one neighbor index proportionally to edge weight.
    fn sample(&self, rng: &mut impl RngExt) -> Option<(u32, f32)> {
        let total = self.total_weight();
        if total <= 0.0 || self.nbrs.is_empty() {
            return None;
        }
        let target = rng.random::<f64>() * total;
        let idx = self.cumw.partition_point(|&c| c <= target).min(self.nbrs.len() - 1);
        Some(self.nbrs[idx])
    }
}

/// The dynamic weighted bipartite graph of paper Section IV-A.
///
/// Records and MACs are interned into dense `u32` id spaces. New records
/// (and previously unseen MACs) can be appended at any time, which is how
/// GEM supports streaming inference (Section V-A).
///
/// ```
/// use gem_graph::{BipartiteGraph, WeightFn};
/// use gem_signal::{MacAddr, SignalRecord};
///
/// let mut g = BipartiteGraph::new(WeightFn::default());
/// let rec = SignalRecord::from_pairs(0.0, [
///     (MacAddr::from_raw(1), -50.0),
///     (MacAddr::from_raw(2), -70.0),
/// ]);
/// let r = g.add_record(&rec);
/// assert_eq!(g.record_neighbors(r).len(), 2);
/// assert_eq!(g.n_macs(), 2);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BipartiteGraph {
    weight_fn: WeightFn,
    mac_index: HashMap<MacAddr, MacId>,
    macs: Vec<MacAddr>,
    record_adj: Vec<Adjacency>,
    mac_adj: Vec<Adjacency>,
    n_edges: usize,
}

impl BipartiteGraph {
    /// Creates an empty graph with the given edge-weight function.
    pub fn new(weight_fn: WeightFn) -> Self {
        BipartiteGraph {
            weight_fn,
            mac_index: HashMap::new(),
            macs: Vec::new(),
            record_adj: Vec::new(),
            mac_adj: Vec::new(),
            n_edges: 0,
        }
    }

    /// Builds a graph from an initial training batch.
    pub fn from_records<'a>(
        weight_fn: WeightFn,
        records: impl IntoIterator<Item = &'a SignalRecord>,
    ) -> Self {
        let mut g = BipartiteGraph::new(weight_fn);
        for rec in records {
            g.add_record(rec);
        }
        g
    }

    /// The configured weight function.
    pub fn weight_fn(&self) -> WeightFn {
        self.weight_fn
    }

    /// Number of record nodes (`|U|`).
    pub fn n_records(&self) -> usize {
        self.record_adj.len()
    }

    /// Number of MAC nodes (`|V|`).
    pub fn n_macs(&self) -> usize {
        self.mac_adj.len()
    }

    /// Total number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Looks up the node id of a MAC address, if it has been seen.
    pub fn mac_id(&self, mac: MacAddr) -> Option<MacId> {
        self.mac_index.get(&mac).copied()
    }

    /// The MAC address behind a MAC node id.
    pub fn mac_addr(&self, id: MacId) -> MacAddr {
        self.macs[id.0 as usize]
    }

    /// Interns a MAC address, creating its node on first sight.
    pub fn intern_mac(&mut self, mac: MacAddr) -> MacId {
        if let Some(&id) = self.mac_index.get(&mac) {
            return id;
        }
        let id = MacId(self.mac_adj.len() as u32);
        self.mac_index.insert(mac, id);
        self.macs.push(mac);
        self.mac_adj.push(Adjacency::default());
        id
    }

    /// Adds a signal record as a new `U` node, creating MAC nodes and
    /// weighted edges per Eq. 1–2. Returns the new record id.
    pub fn add_record(&mut self, record: &SignalRecord) -> RecordId {
        let rid = RecordId(self.record_adj.len() as u32);
        let mut adj = Adjacency::default();
        for reading in &record.readings {
            let mid = self.intern_mac(reading.mac);
            let w = self.weight_fn.weight(reading.rssi);
            adj.push(mid.0, w);
            self.mac_adj[mid.0 as usize].push(rid.0, w);
            self.n_edges += 1;
        }
        self.record_adj.push(adj);
        rid
    }

    /// True when at least one MAC in the record has been seen before.
    /// Records failing this test are treated as outliers outright (paper
    /// Section V-A, footnote 3).
    pub fn has_known_mac(&self, record: &SignalRecord) -> bool {
        record.macs().any(|m| self.mac_index.contains_key(&m))
    }

    /// Neighbors (MAC side) of a record node with edge weights.
    pub fn record_neighbors(
        &self,
        r: RecordId,
    ) -> impl ExactSizeIterator<Item = (MacId, f32)> + '_ {
        self.record_adj[r.0 as usize].nbrs.iter().map(|&(t, w)| (MacId(t), w))
    }

    /// Neighbors (record side) of a MAC node with edge weights.
    pub fn mac_neighbors(&self, m: MacId) -> impl ExactSizeIterator<Item = (RecordId, f32)> + '_ {
        self.mac_adj[m.0 as usize].nbrs.iter().map(|&(t, w)| (RecordId(t), w))
    }

    /// Degree of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        match node {
            NodeId::Record(r) => self.record_adj[r.0 as usize].nbrs.len(),
            NodeId::Mac(m) => self.mac_adj[m.0 as usize].nbrs.len(),
        }
    }

    /// Sum of edge weights incident to a node.
    pub fn weight_sum(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Record(r) => self.record_adj[r.0 as usize].total_weight(),
            NodeId::Mac(m) => self.mac_adj[m.0 as usize].total_weight(),
        }
    }

    /// Samples `k` neighbors of `node` *with replacement*, each drawn with
    /// probability proportional to its edge weight (the paper's non-uniform
    /// neighborhood sampling, `Pr(v) = w_uv / Σ w_uv'`). Returns
    /// `(neighbor, edge weight)` pairs; empty if the node is isolated.
    pub fn sample_neighbors(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut impl RngExt,
    ) -> Vec<(NodeId, f32)> {
        let mut out = Vec::with_capacity(k);
        self.sample_neighbors_into(node, k, rng, &mut out);
        out
    }

    /// [`BipartiteGraph::sample_neighbors`], appending into a caller-owned
    /// buffer (the training hot loop reuses one buffer across nodes).
    /// Consumes exactly the same RNG stream as the allocating variant.
    pub fn sample_neighbors_into(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut impl RngExt,
        out: &mut Vec<(NodeId, f32)>,
    ) {
        let adj = match node {
            NodeId::Record(r) => &self.record_adj[r.0 as usize],
            NodeId::Mac(m) => &self.mac_adj[m.0 as usize],
        };
        for _ in 0..k {
            match adj.sample(rng) {
                Some((t, w)) => out.push((
                    match node {
                        NodeId::Record(_) => NodeId::Mac(MacId(t)),
                        NodeId::Mac(_) => NodeId::Record(RecordId(t)),
                    },
                    w,
                )),
                None => break,
            }
        }
    }

    /// Samples `k` neighbors *uniformly* with replacement (the GraphSAGE
    /// baseline's sampling rule).
    pub fn sample_neighbors_uniform(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut impl RngExt,
    ) -> Vec<(NodeId, f32)> {
        let mut out = Vec::with_capacity(k);
        self.sample_neighbors_uniform_into(node, k, rng, &mut out);
        out
    }

    /// [`BipartiteGraph::sample_neighbors_uniform`], appending into a
    /// caller-owned buffer. Consumes exactly the same RNG stream as the
    /// allocating variant.
    pub fn sample_neighbors_uniform_into(
        &self,
        node: NodeId,
        k: usize,
        rng: &mut impl RngExt,
        out: &mut Vec<(NodeId, f32)>,
    ) {
        let adj = match node {
            NodeId::Record(r) => &self.record_adj[r.0 as usize],
            NodeId::Mac(m) => &self.mac_adj[m.0 as usize],
        };
        if adj.nbrs.is_empty() {
            return;
        }
        out.extend((0..k).map(|_| {
            let (t, w) = adj.nbrs[rng.random_range(0..adj.nbrs.len())];
            (
                match node {
                    NodeId::Record(_) => NodeId::Mac(MacId(t)),
                    NodeId::Mac(_) => NodeId::Record(RecordId(t)),
                },
                w,
            )
        }));
    }

    /// One weighted random-walk transition from `node` (paper Section IV-B:
    /// transition probability proportional to edge weight). `None` if the
    /// node is isolated.
    pub fn walk_step(&self, node: NodeId, rng: &mut impl RngExt) -> Option<NodeId> {
        self.sample_neighbors(node, 1, rng).pop().map(|(n, _)| n)
    }

    /// Iterates every node id, records first then MACs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let recs = (0..self.n_records() as u32).map(|i| NodeId::Record(RecordId(i)));
        let macs = (0..self.n_macs() as u32).map(|i| NodeId::Mac(MacId(i)));
        recs.chain(macs)
    }

    /// Total node count (`|U| + |V|`).
    pub fn n_nodes(&self) -> usize {
        self.n_records() + self.n_macs()
    }

    /// Checks a decoded graph against itself: `mac_index` and `macs` name
    /// the same MACs under the same ids, there is one adjacency list per
    /// MAC, and every adjacency entry names an existing node of the other
    /// side and has its prefix sum. Graphs built with
    /// [`BipartiteGraph::add_record`] always pass; a corrupt export may
    /// not, and its first lookup of the bad id would panic.
    pub fn check_consistency(&self) -> Result<(), String> {
        let n_macs = self.macs.len();
        if self.mac_adj.len() != n_macs || self.mac_index.len() != n_macs {
            return Err(format!(
                "{n_macs} MAC addresses, but {} indexed and {} adjacency lists",
                self.mac_index.len(),
                self.mac_adj.len()
            ));
        }
        if let Some((mac, id)) =
            self.mac_index.iter().find(|&(mac, id)| self.macs.get(id.0 as usize) != Some(mac))
        {
            return Err(format!("MAC {mac} is indexed as id {}, which holds another MAC", id.0));
        }
        let dangling = |adjs: &[Adjacency], bound: usize| {
            adjs.iter().position(|a| {
                a.cumw.len() != a.nbrs.len() || a.nbrs.iter().any(|&(t, _)| t as usize >= bound)
            })
        };
        if let Some(r) = dangling(&self.record_adj, n_macs) {
            return Err(format!("record {r}'s adjacency does not fit the {n_macs} MACs"));
        }
        if let Some(m) = dangling(&self.mac_adj, self.record_adj.len()) {
            return Err(format!(
                "MAC {m}'s adjacency does not fit the {} records",
                self.record_adj.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_raw(i)
    }

    fn rec(pairs: &[(u64, f32)]) -> SignalRecord {
        SignalRecord::from_pairs(0.0, pairs.iter().map(|&(m, r)| (mac(m), r)))
    }

    #[test]
    fn weight_fn_is_positive() {
        for f in [
            WeightFn::OffsetLinear { c: 120.0 },
            WeightFn::Exponential { scale: 30.0 },
            WeightFn::Unit,
        ] {
            for rssi in [-130.0f32, -95.0, -50.0, -20.0] {
                assert!(f.weight(rssi) > 0.0, "{f:?} at {rssi}");
            }
        }
    }

    #[test]
    fn offset_linear_matches_paper_eq2() {
        let f = WeightFn::OffsetLinear { c: 120.0 };
        assert!((f.weight(-70.0) - 50.0).abs() < 1e-6);
        assert!((f.weight(-20.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn add_record_builds_bipartite_structure() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        let r1 = g.add_record(&rec(&[(1, -50.0), (2, -60.0), (3, -70.0)]));
        let r2 = g.add_record(&rec(&[(3, -65.0), (4, -75.0), (5, -85.0)]));
        assert_eq!(g.n_records(), 2);
        assert_eq!(g.n_macs(), 5);
        assert_eq!(g.n_edges(), 6);
        assert_eq!(g.record_neighbors(r1).len(), 3);
        assert_eq!(g.record_neighbors(r2).len(), 3);
        // MAC 3 is shared between both records — the "carrier" of relevance.
        let m3 = g.mac_id(mac(3)).unwrap();
        let nbrs: Vec<_> = g.mac_neighbors(m3).map(|(r, _)| r).collect();
        assert_eq!(nbrs, vec![r1, r2]);
    }

    #[test]
    fn degrees_and_weight_sums() {
        let mut g = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
        let r = g.add_record(&rec(&[(1, -70.0), (2, -20.0)]));
        assert_eq!(g.degree(NodeId::Record(r)), 2);
        assert!((g.weight_sum(NodeId::Record(r)) - 150.0).abs() < 1e-4);
        let m1 = g.mac_id(mac(1)).unwrap();
        assert_eq!(g.degree(NodeId::Mac(m1)), 1);
        assert!((g.weight_sum(NodeId::Mac(m1)) - 50.0).abs() < 1e-4);
    }

    #[test]
    fn has_known_mac_rule() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        g.add_record(&rec(&[(1, -50.0)]));
        assert!(g.has_known_mac(&rec(&[(1, -80.0), (9, -40.0)])));
        assert!(!g.has_known_mac(&rec(&[(8, -80.0), (9, -40.0)])));
        assert!(!g.has_known_mac(&rec(&[])));
    }

    #[test]
    fn weighted_sampling_tracks_edge_weights() {
        // One record hears MAC 1 strongly and MAC 2 barely:
        // weights 100 vs 25 → sampling ratio ≈ 4.
        let mut g = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
        let r = g.add_record(&rec(&[(1, -20.0), (2, -95.0)]));
        let mut rng = StdRng::seed_from_u64(11);
        let samples = g.sample_neighbors(NodeId::Record(r), 40_000, &mut rng);
        let m1 = g.mac_id(mac(1)).unwrap();
        let c1 = samples.iter().filter(|(n, _)| *n == NodeId::Mac(m1)).count();
        let ratio = c1 as f64 / (samples.len() - c1) as f64;
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn uniform_sampling_ignores_weights() {
        let mut g = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
        let r = g.add_record(&rec(&[(1, -20.0), (2, -95.0)]));
        let mut rng = StdRng::seed_from_u64(13);
        let samples = g.sample_neighbors_uniform(NodeId::Record(r), 40_000, &mut rng);
        let m1 = g.mac_id(mac(1)).unwrap();
        let c1 = samples.iter().filter(|(n, _)| *n == NodeId::Mac(m1)).count();
        let frac = c1 as f64 / samples.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn sampling_isolated_node_is_empty() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        let r = g.add_record(&rec(&[]));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(g.sample_neighbors(NodeId::Record(r), 5, &mut rng).is_empty());
        assert!(g.sample_neighbors_uniform(NodeId::Record(r), 5, &mut rng).is_empty());
        assert!(g.walk_step(NodeId::Record(r), &mut rng).is_none());
    }

    #[test]
    fn nodes_enumerates_both_sides() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        g.add_record(&rec(&[(1, -50.0), (2, -60.0)]));
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes.iter().filter(|n| n.is_record()).count(), 1);
        assert_eq!(g.n_nodes(), 3);
    }

    #[test]
    fn interning_is_stable_across_records() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        g.add_record(&rec(&[(42, -50.0)]));
        let id1 = g.mac_id(mac(42)).unwrap();
        g.add_record(&rec(&[(42, -60.0), (43, -70.0)]));
        assert_eq!(g.mac_id(mac(42)).unwrap(), id1);
        assert_eq!(g.mac_addr(id1), mac(42));
    }

    #[test]
    fn walk_step_moves_to_other_side() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        let r = g.add_record(&rec(&[(1, -50.0)]));
        let mut rng = StdRng::seed_from_u64(5);
        let next = g.walk_step(NodeId::Record(r), &mut rng).unwrap();
        assert!(matches!(next, NodeId::Mac(_)));
        let back = g.walk_step(next, &mut rng).unwrap();
        assert_eq!(back, NodeId::Record(r));
    }

    #[test]
    fn consistency_check_refuses_dangling_ids() {
        let mut g = BipartiteGraph::new(WeightFn::default());
        g.add_record(&rec(&[(1, -50.0), (2, -60.0)]));
        g.add_record(&rec(&[(2, -55.0), (3, -70.0)]));
        assert_eq!(g.check_consistency(), Ok(()));
        let tampered = |edit: &dyn Fn(&mut BipartiteGraph)| {
            let mut bad = g.clone();
            edit(&mut bad);
            bad.check_consistency()
        };
        assert!(tampered(&|b| b.mac_adj[0].nbrs[0].0 = 2).is_err());
        assert!(tampered(&|b| b.record_adj[1].nbrs[1].0 = 3).is_err());
        assert!(tampered(&|b| b.record_adj[0].cumw.clear()).is_err());
        assert!(tampered(&|b| {
            b.mac_index.insert(mac(2), MacId(3));
        })
        .is_err());
        // Two MACs swapped in the index disagree with `macs`.
        assert!(tampered(&|b| {
            b.mac_index.insert(mac(1), MacId(1));
            b.mac_index.insert(mac(2), MacId(0));
        })
        .is_err());
        assert!(tampered(&|b| {
            b.mac_index.remove(&mac(3));
        })
        .is_err());
    }
}
