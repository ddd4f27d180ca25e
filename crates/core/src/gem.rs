//! The end-to-end GEM system (paper Fig. 2): graph modeling → BiSAGE →
//! enhanced in-out detection, with online inference and self-enhancement.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use gem_graph::{BipartiteGraph, RecordId};
use gem_nn::Tensor;
use gem_signal::rng::child_rng;
use gem_signal::{Label, RecordSet, SignalRecord};

use crate::bisage::{BiSage, TrainReport};
use crate::config::GemConfig;
use crate::detector::{Detection, EnhancedDetector};
use crate::infer::{CacheStats, InferenceEngine};
use crate::pipeline::Embedder;

/// Adds a streamed record to the graph and initializes exactly the base
/// rows the addition introduced, through the targeted per-record path
/// (bitwise equal to the full node scan, RNG stream of random-init
/// fallbacks included). `None` when the record is empty or shares no MAC
/// with the graph (outlier by rule; not added).
fn add_record_and_ensure(
    graph: &mut BipartiteGraph,
    bisage: &mut BiSage,
    trusted: &mut Vec<bool>,
    rng: &mut StdRng,
    record: &SignalRecord,
) -> Option<RecordId> {
    if record.is_empty() || !graph.has_known_mac(record) {
        return None;
    }
    let rid = graph.add_record(record);
    trusted.push(false);
    let bits: &[bool] = trusted;
    let filter = move |r: RecordId| bits[r.0 as usize];
    bisage.ensure_rows_for_record(graph, rid, rng, Some(&filter));
    Some(rid)
}

/// One online in-out decision.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Predicted location class (`Out` triggers the geofencing alert).
    pub label: Label,
    /// The rescaled outlier score `S_T(h)`.
    pub score: f64,
    /// Whether the record was used to update the detection model
    /// (highly confident in-premises sample, Section V-B).
    pub updated: bool,
    /// `false` when the record contained no previously seen MAC and was
    /// declared an outlier outright (Section V-A, footnote 3).
    pub known_macs: bool,
}

/// The trained GEM system.
pub struct Gem {
    /// Configuration it was trained with.
    pub cfg: GemConfig,
    graph: BipartiteGraph,
    bisage: BiSage,
    detector: EnhancedDetector,
    rng: StdRng,
    train_report: TrainReport,
    /// Per-record pseudo-label: training records and streamed records
    /// classified in-premises are trusted; records classified as
    /// outliers stay in the graph but are excluded from neighborhood
    /// expansion, so they cannot redefine the premises structure.
    trusted: Vec<bool>,
    last_added: Option<RecordId>,
    /// Tape-free streaming engine: scratch buffers only, nothing that
    /// outlives a call.
    engine: InferenceEngine,
}

impl Gem {
    /// Builds the system from an initial in-premises record set: models
    /// the records as a weighted bipartite graph, trains BiSAGE, embeds
    /// the training records and fits the enhanced detector.
    pub fn fit(cfg: GemConfig, train: &RecordSet) -> Gem {
        assert!(!train.is_empty(), "GEM needs at least one training record");
        let graph = BipartiteGraph::from_records(cfg.weight_fn, train.iter());
        let mut bisage = BiSage::new(cfg.bisage());
        let train_report = bisage.fit(&graph);
        let mut rng = child_rng(cfg.seed, 0x6E11);
        let train_embeddings = bisage.embed_all_records(&graph);
        // Detector-fit augmentation: embed pruned copies of the training
        // records (a fraction of readings dropped) exactly like streamed
        // records, so the histograms cover scans with missing/changed
        // MACs — the AP-churn reality of live deployments (cf. the
        // paper's Figs. 10–11). A cloned model+graph is used so the
        // augmentation rows never collide with real streamed node ids.
        let mut fit_rows: Vec<Vec<f32>> =
            (0..train_embeddings.rows()).map(|i| train_embeddings.row(i).to_vec()).collect();
        if cfg.augment_passes > 0 {
            let mut aug_graph = graph.clone();
            let mut aug_bisage = bisage.clone();
            let mut aug_records = Vec::new();
            for _ in 0..cfg.augment_passes {
                for rec in train.iter() {
                    // Drop ~30% of the weaker readings; the strongest few
                    // anchor the scan's location and survive churn far
                    // more often in practice (the user's own APs).
                    let mut by_strength: Vec<f32> = rec.readings.iter().map(|r| r.rssi).collect();
                    by_strength.sort_by(|a, b| b.total_cmp(a));
                    let anchor = by_strength
                        .get(cfg.augment_anchors.saturating_sub(1))
                        .copied()
                        .unwrap_or(f32::NEG_INFINITY);
                    let mut pruned = rec.clone();
                    pruned.retain_macs(|m| {
                        let rssi = rec.rssi_of(m).expect("reading exists");
                        rssi >= anchor || rand::RngExt::random::<f64>(&mut rng) > cfg.augment_drop
                    });
                    if pruned.is_empty() {
                        continue;
                    }
                    aug_records.push(aug_graph.add_record(&pruned));
                }
            }
            if !aug_records.is_empty() {
                aug_bisage.ensure_rows(&aug_graph, &mut rng);
                let aug_h = InferenceEngine::new().embed_records_batch(
                    &aug_bisage,
                    &aug_graph,
                    &aug_records,
                    None,
                );
                fit_rows.extend((0..aug_h.rows()).map(|i| aug_h.row(i).to_vec()));
            }
        }
        let mut fit_matrix = Tensor::zeros(fit_rows.len(), cfg.embedding_dim);
        for (i, row) in fit_rows.iter().enumerate() {
            fit_matrix.set_row(i, row);
        }
        let detector = if cfg.calibrate_thresholds {
            EnhancedDetector::fit_calibrated(
                &fit_matrix,
                cfg.bins,
                cfg.temperature as f64,
                cfg.tau_u as f64,
                cfg.tau_l as f64,
                cfg.calibrate_keep_in,
                cfg.calibrate_confident,
            )
        } else {
            EnhancedDetector::fit(
                &fit_matrix,
                cfg.bins,
                cfg.temperature as f64,
                cfg.tau_u as f64,
                cfg.tau_l as f64,
            )
        };
        let trusted = vec![true; graph.n_records()];
        Gem {
            cfg,
            graph,
            bisage,
            detector,
            rng,
            train_report,
            trusted,
            last_added: None,
            engine: InferenceEngine::new(),
        }
    }

    /// Full online inference for one streamed record: add to the graph,
    /// embed through the streaming engine, detect, and self-update on
    /// highly confident in-premises samples. A batch of one.
    pub fn infer(&mut self, record: &SignalRecord) -> Decision {
        self.infer_batch(std::slice::from_ref(record))[0]
    }

    /// Batched online inference: adds every embeddable record, embeds
    /// them through the engine's fused batch path, and scores them with
    /// the batch detector. Results keep input order.
    ///
    /// A batch is one decision epoch, not a bitwise replay of
    /// record-by-record streaming: every embedding is scored against the
    /// batch-start detector state, the trust filter admits the whole
    /// batch's targets during neighborhood expansion, and confident
    /// updates plus trust bits are applied after scoring, in input order.
    pub fn infer_batch(&mut self, records: &[SignalRecord]) -> Vec<Decision> {
        self.last_added = None;
        let mut rids: Vec<Option<RecordId>> = Vec::with_capacity(records.len());
        for record in records {
            rids.push(add_record_and_ensure(
                &mut self.graph,
                &mut self.bisage,
                &mut self.trusted,
                &mut self.rng,
                record,
            ));
        }
        let targets: Vec<RecordId> = rids.iter().filter_map(|&r| r).collect();
        let mut decisions = Vec::with_capacity(records.len());
        if targets.is_empty() {
            decisions.resize(
                records.len(),
                Decision { label: Label::Out, score: 1.0, updated: false, known_macs: false },
            );
            return decisions;
        }
        let hs = self.engine.embed_records_batch(
            &self.bisage,
            &self.graph,
            &targets,
            Some(&self.trusted),
        );
        let rows: Vec<&[f32]> = (0..hs.rows()).map(|i| hs.row(i)).collect();
        let dets = self.detector.detect_batch(&rows);
        let mut k = 0usize;
        for rid in &rids {
            match rid {
                None => decisions.push(Decision {
                    label: Label::Out,
                    score: 1.0,
                    updated: false,
                    known_macs: false,
                }),
                Some(rid) => {
                    let det = dets[k];
                    let updated = self.detector.update_if_confident(rows[k], &det);
                    self.trusted[rid.0 as usize] = !det.is_outlier;
                    decisions.push(Decision {
                        label: if det.is_outlier { Label::Out } else { Label::In },
                        score: det.score,
                        updated,
                        known_macs: true,
                    });
                    k += 1;
                }
            }
        }
        decisions
    }

    /// Stage 1 of inference (timed separately in Table III): adds the
    /// record to the bipartite graph and computes its primary embedding.
    /// `None` when the record shares no MAC with the graph — such records
    /// are outliers by rule and are *not* added.
    pub fn add_and_embed(&mut self, record: &SignalRecord) -> Option<Vec<f32>> {
        let rid = add_record_and_ensure(
            &mut self.graph,
            &mut self.bisage,
            &mut self.trusted,
            &mut self.rng,
            record,
        )?;
        self.last_added = Some(rid);
        Some(self.engine.embed_record(&self.bisage, &self.graph, rid, Some(&self.trusted)))
    }

    /// Stage 2: score + classify an embedding without mutating the model.
    pub fn detect_only(&self, h: &[f32]) -> Detection {
        self.detector.detect(h)
    }

    /// Stage 3: absorb a highly confident in-premises embedding into the
    /// detector. Returns whether an update happened. The embedding is
    /// scored exactly once; the update half reuses that Detection.
    pub fn update_with(&mut self, h: &[f32]) -> bool {
        let det = self.detector.detect(h);
        if let Some(rid) = self.last_added.take() {
            self.trusted[rid.0 as usize] = !det.is_outlier;
        }
        self.detector.update_if_confident(h, &det)
    }

    /// Lifetime reuse counters of the streaming engine (see
    /// [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The fitted detector.
    pub fn detector(&self) -> &EnhancedDetector {
        &self.detector
    }

    /// The bipartite graph (grows during online inference).
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The trained embedding model.
    pub fn bisage(&self) -> &BiSage {
        &self.bisage
    }

    /// BiSAGE training diagnostics.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Per-record pseudo-label trust bits (aligned with the graph's
    /// record ids).
    pub fn trusted_records(&self) -> &[bool] {
        &self.trusted
    }

    /// The online RNG's raw state. Snapshots persist it so a restored
    /// system resumes the *exact* random stream (row-init fallbacks
    /// during streaming draw from this generator; bitwise-identical
    /// crash recovery needs the draws to line up).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Reassembles a system from persisted parts (see
    /// [`crate::persist::GemSnapshot`]). `rng_state` resumes the online
    /// random stream mid-sequence; `None` (pre-v2 snapshots) restarts it
    /// from the config seed, which is only equivalent for systems that
    /// never consumed a draw since fit.
    pub(crate) fn from_parts(
        cfg: GemConfig,
        graph: BipartiteGraph,
        bisage: BiSage,
        detector: EnhancedDetector,
        train_report: TrainReport,
        trusted: Vec<bool>,
        rng_state: Option<[u64; 4]>,
    ) -> Gem {
        let rng = match rng_state {
            Some(s) => StdRng::from_state(s),
            None => child_rng(cfg.seed, 0x6E11),
        };
        Gem {
            cfg,
            graph,
            bisage,
            detector,
            rng,
            train_report,
            trusted,
            last_added: None,
            engine: InferenceEngine::new(),
        }
    }
}

/// [`Embedder`] adapter so GEM's embedding stage can feed other detectors
/// (the "BiSAGE + X" rows of Table I).
pub struct GemEmbedder {
    graph: BipartiteGraph,
    bisage: BiSage,
    rng: StdRng,
    trusted: Vec<bool>,
    last_added: Option<RecordId>,
    engine: InferenceEngine,
}

impl GemEmbedder {
    /// Fits BiSAGE on the training records and returns the embedder plus
    /// the training embedding matrix.
    pub fn fit(cfg: &GemConfig, train: &RecordSet) -> (GemEmbedder, Tensor) {
        let graph = BipartiteGraph::from_records(cfg.weight_fn, train.iter());
        let mut bisage = BiSage::new(cfg.bisage());
        bisage.fit(&graph);
        let rng = child_rng(cfg.seed, 0x6E12);
        let train_embeddings = bisage.embed_all_records(&graph);
        let trusted = vec![true; graph.n_records()];
        (
            GemEmbedder {
                graph,
                bisage,
                rng,
                trusted,
                last_added: None,
                engine: InferenceEngine::new(),
            },
            train_embeddings,
        )
    }
}

impl Embedder for GemEmbedder {
    fn embed(&mut self, record: &SignalRecord) -> Option<Vec<f32>> {
        let rid = add_record_and_ensure(
            &mut self.graph,
            &mut self.bisage,
            &mut self.trusted,
            &mut self.rng,
            record,
        )?;
        self.last_added = Some(rid);
        Some(self.engine.embed_record(&self.bisage, &self.graph, rid, Some(&self.trusted)))
    }

    fn dim(&self) -> usize {
        self.bisage.dim()
    }

    fn feedback(&mut self, outlier: bool) {
        if let Some(rid) = self.last_added.take() {
            self.trusted[rid.0 as usize] = !outlier;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_rfsim::{Scenario, ScenarioConfig};

    fn quick_cfg() -> GemConfig {
        GemConfig::default()
    }

    fn small_scenario() -> gem_signal::Dataset {
        let mut cfg = ScenarioConfig::user(1);
        cfg.train_duration_s = 180.0;
        cfg.n_test_in = 60;
        cfg.n_test_out = 60;
        Scenario::build(cfg).generate()
    }

    #[test]
    fn end_to_end_detection_beats_chance_comfortably() {
        let ds = small_scenario();
        let mut gem = Gem::fit(quick_cfg(), &ds.train);
        let mut correct = 0usize;
        for t in &ds.test {
            let d = gem.infer(&t.record);
            if d.label == t.label {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.test.len() as f64;
        // Tiny scenario (3-minute walk, 120 scans) — comfortable margin
        // over chance; the full-size presets score higher (see tests/).
        assert!(acc >= 0.75, "end-to-end accuracy {acc}");
    }

    #[test]
    fn self_enhancement_absorbs_confident_samples() {
        let ds = small_scenario();
        let mut gem = Gem::fit(quick_cfg(), &ds.train);
        let n0 = gem.detector().n_samples();
        for t in &ds.test {
            gem.infer(&t.record);
        }
        assert!(gem.detector().n_samples() > n0, "online updates must happen");
    }

    #[test]
    fn unknown_mac_record_is_outlier_by_rule() {
        let ds = small_scenario();
        let mut gem = Gem::fit(quick_cfg(), &ds.train);
        let alien =
            SignalRecord::from_pairs(0.0, [(gem_signal::MacAddr::from_raw(0xDEAD_0001), -40.0)]);
        let n_nodes = gem.graph().n_records();
        let d = gem.infer(&alien);
        assert_eq!(d.label, Label::Out);
        assert!(!d.known_macs);
        assert_eq!(gem.graph().n_records(), n_nodes, "alien record not added");
    }

    #[test]
    fn empty_record_is_outlier() {
        let ds = small_scenario();
        let mut gem = Gem::fit(quick_cfg(), &ds.train);
        let d = gem.infer(&SignalRecord::new(0.0));
        assert_eq!(d.label, Label::Out);
    }

    #[test]
    fn staged_inference_matches_infer() {
        let ds = small_scenario();
        let mut gem = Gem::fit(quick_cfg(), &ds.train);
        let record = &ds.test[0].record;
        let h = gem.add_and_embed(record).expect("embeddable");
        let det = gem.detect_only(&h);
        assert!(det.score.is_finite());
    }

    #[test]
    fn gem_embedder_adapter_works() {
        let ds = small_scenario();
        let (mut emb, train_embs) = GemEmbedder::fit(&quick_cfg(), &ds.train);
        assert_eq!(train_embs.rows(), ds.train.len());
        assert_eq!(emb.dim(), 32);
        let h = emb.embed(&ds.test[0].record);
        assert!(h.is_some());
        assert_eq!(h.unwrap().len(), 32);
    }
}
