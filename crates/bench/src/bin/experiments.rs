//! Reproduction harness: regenerates every table and figure of the GEM
//! paper's evaluation section.
//!
//! ```text
//! cargo run --release -p gem-bench --bin experiments -- <id> [...]
//! ids: table1 table2 table3 table4 fig6 fig7 fig8 fig9 fig10 fig11
//!      fig13 fig14 fig15 ablation all
//! ```
//!
//! Results land in `results/<id>.{md,csv}` (override with `GEM_OUT`).
//! Replication counts: `GEM_RUNS` (default 5; paper uses 30) and
//! `GEM_GRID` (default 3; paper uses 9 points per axis in Fig. 13).

use std::time::Instant;

use gem_baselines::{Autoencoder, AutoencoderConfig, DeepSvdd, DeepSvddConfig};
use gem_bench::harness::eval_stream;
use gem_bench::{
    eval_dataset, eval_gem, evaluation_users, lab_scenario, run_algorithm, Algorithm, Harness,
};
use gem_core::gem::GemEmbedder;
use gem_core::pipeline::Embedder;
use gem_core::{BaselineHbos, EnhancedDetector, Gem, GemConfig};
use gem_eval::{auc, roc_curve, tsne, Confusion, Summary, Table, TsneConfig};
use gem_graph::{NodeId, RecordId, WeightFn};
use gem_nn::Tensor;
use gem_rfsim::dynamics::prune_macs_from_test;
use gem_rfsim::propagation::BandKind;
use gem_rfsim::{prune_macs, MarkovOnOff, Scenario, TimeProfile};
use gem_signal::rng::child_rng;
use gem_signal::{Dataset, Label, RecordSet};

fn main() {
    let harness = Harness::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <table1|table2|table3|table4|fig6|fig7|fig8|fig9|fig10|fig11|fig13|fig14|fig15|ablation|attack|extensions|all> ...");
        std::process::exit(2);
    }
    for arg in &args {
        let t0 = Instant::now();
        match arg.as_str() {
            "table1" => table1(&harness),
            "table2" => table2(&harness),
            "table3" => table3(&harness),
            "table4" => table4(&harness),
            "fig6" => fig6(&harness),
            "fig7" => fig7(&harness),
            "fig8" => fig8(&harness),
            "fig9" => fig9(&harness),
            "fig10" => fig10_11(&harness, true),
            "fig11" => fig10_11(&harness, false),
            "fig13" => fig13(&harness),
            "fig14" => fig14(&harness),
            "fig15" => fig15(&harness),
            "ablation" => ablation(&harness),
            "attack" => attack(&harness),
            "extensions" => extensions(&harness),
            "all" => {
                for id in [
                    "table1",
                    "table2",
                    "table3",
                    "table4",
                    "fig6",
                    "fig7",
                    "fig8",
                    "fig9",
                    "fig10",
                    "fig11",
                    "fig13",
                    "fig14",
                    "fig15",
                    "ablation",
                    "attack",
                    "extensions",
                ] {
                    let t = Instant::now();
                    run_one(id, &harness);
                    eprintln!("[{id}] done in {:.1}s", t.elapsed().as_secs_f64());
                }
            }
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
        eprintln!("[{arg}] total {:.1}s", t0.elapsed().as_secs_f64());
    }
}

fn run_one(id: &str, harness: &Harness) {
    match id {
        "table1" => table1(harness),
        "table2" => table2(harness),
        "table3" => table3(harness),
        "table4" => table4(harness),
        "fig6" => fig6(harness),
        "fig7" => fig7(harness),
        "fig8" => fig8(harness),
        "fig9" => fig9(harness),
        "fig10" => fig10_11(harness, true),
        "fig11" => fig10_11(harness, false),
        "fig13" => fig13(harness),
        "fig14" => fig14(harness),
        "fig15" => fig15(harness),
        "ablation" => ablation(harness),
        "attack" => attack(harness),
        "extensions" => extensions(harness),
        _ => unreachable!(),
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Per-class metric vectors across users → paper-style summary cells.
struct MetricAccumulator {
    p_in: Vec<f64>,
    r_in: Vec<f64>,
    f_in: Vec<f64>,
    p_out: Vec<f64>,
    r_out: Vec<f64>,
    f_out: Vec<f64>,
}

impl MetricAccumulator {
    fn new() -> Self {
        MetricAccumulator {
            p_in: vec![],
            r_in: vec![],
            f_in: vec![],
            p_out: vec![],
            r_out: vec![],
            f_out: vec![],
        }
    }

    fn push(&mut self, c: &Confusion) {
        let i = c.in_metrics();
        let o = c.out_metrics();
        self.p_in.push(i.precision);
        self.r_in.push(i.recall);
        self.f_in.push(i.f_score);
        self.p_out.push(o.precision);
        self.r_out.push(o.recall);
        self.f_out.push(o.f_score);
    }

    fn row_cells(&self) -> Vec<String> {
        [&self.p_in, &self.r_in, &self.f_in, &self.p_out, &self.r_out, &self.f_out]
            .iter()
            .map(|v| Summary::of(v).paper_format())
            .collect()
    }

    fn mean_f(&self) -> (f64, f64) {
        (Summary::of(&self.f_in).mean, Summary::of(&self.f_out).mean)
    }
}

// ---------------------------------------------------------------- table 1

fn table1(h: &Harness) {
    let cfg = GemConfig::default();
    let datasets: Vec<Dataset> = evaluation_users().iter().map(eval_dataset).collect();
    let mut table = Table::new(
        "Table I — performance comparison, mean (min, max) over 10 users",
        &["Algorithm", "P_in", "R_in", "F_in", "P_out", "R_out", "F_out"],
    );
    for algo in Algorithm::all() {
        let mut acc = MetricAccumulator::new();
        for ds in &datasets {
            acc.push(&run_algorithm(algo, &cfg, ds));
        }
        let mut cells = vec![algo.name().to_string()];
        cells.extend(acc.row_cells());
        table.row(cells);
        eprintln!("  [table1] {} done", algo.name());
    }
    table.emit(&h.out_dir, "table1").expect("write table1");
}

// ---------------------------------------------------------------- table 2

fn table2(h: &Harness) {
    let cfg = GemConfig::default();
    let mut table = Table::new(
        "Table II — user-level performance of GEM",
        &["User", "P_in", "R_in", "F_in", "P_out", "R_out", "F_out", "#MACs", "Area (m2)"],
    );
    let mut acc = MetricAccumulator::new();
    for (uid, scenario_cfg) in evaluation_users().into_iter().enumerate() {
        let scenario = Scenario::build(scenario_cfg);
        let ds = scenario.generate();
        let mut macs = ds.train.mac_universe();
        for t in &ds.test {
            macs.extend(t.record.macs());
        }
        macs.sort_unstable();
        macs.dedup();
        let c = eval_gem(cfg.clone(), &ds);
        acc.push(&c);
        let i = c.in_metrics();
        let o = c.out_metrics();
        table.row(vec![
            (uid + 1).to_string(),
            fmt(i.precision),
            fmt(i.recall),
            fmt(i.f_score),
            fmt(o.precision),
            fmt(o.recall),
            fmt(o.f_score),
            macs.len().to_string(),
            format!("{:.0}", scenario.world.plan.area_m2()),
        ]);
    }
    let mut cells = vec!["Avg.".to_string()];
    cells.extend(acc.row_cells());
    cells.push(String::new());
    cells.push(String::new());
    table.row(cells);
    table.emit(&h.out_dir, "table2").expect("write table2");
}

// ---------------------------------------------------------------- table 3

fn table3(h: &Harness) {
    let cfg = GemConfig::default();
    let mut user_cfg = evaluation_users().remove(5); // ~100 m², many MACs
    user_cfg.n_test_in = 1000;
    user_cfg.n_test_out = 1000;
    let ds = eval_dataset(&user_cfg);
    let mut gem = Gem::fit(cfg, &ds.train);
    let (mut t_embed, mut t_detect, mut t_update) = (0.0f64, 0.0f64, 0.0f64);
    let mut n = 0usize;
    for t in &ds.test {
        let t0 = Instant::now();
        let Some(hv) = gem.add_and_embed(&t.record) else { continue };
        let t1 = Instant::now();
        let _ = gem.detect_only(&hv);
        let t2 = Instant::now();
        let _ = gem.update_with(&hv);
        let t3 = Instant::now();
        t_embed += (t1 - t0).as_secs_f64() * 1e3;
        t_detect += (t2 - t1).as_secs_f64() * 1e3;
        t_update += (t3 - t2).as_secs_f64() * 1e3;
        n += 1;
    }
    let n = n.max(1) as f64;
    let mut table = Table::new(
        format!("Table III — inference time breakdown (ms, mean over {} records)", n as usize),
        &["Embedding generation", "In-out detection", "Model update", "Total"],
    );
    table.row(vec![
        format!("{:.3}", t_embed / n),
        format!("{:.3}", t_detect / n),
        format!("{:.3}", t_update / n),
        format!("{:.3}", (t_embed + t_detect + t_update) / n),
    ]);
    table.emit(&h.out_dir, "table3").expect("write table3");
}

// ---------------------------------------------------------------- table 4

fn table4(h: &Harness) {
    let scenario = Scenario::build(lab_scenario());
    let mut table = Table::new(
        "Table IV — RSS variation during a day (lab)",
        &["Time", "Mean (dBm)", "SD (dBm)", "#MACs"],
    );
    for profile in [TimeProfile::MORNING, TimeProfile::AFTERNOON, TimeProfile::EVENING] {
        // 50 sensing walks around the lab under each profile.
        let positions = scenario.training_positions();
        let mut rng = scenario.rng(0x7AB4 ^ profile.name.len() as u64);
        let records = scenario.sense_positions(&positions, &profile, 0.0, &mut rng);
        let stats = records.rss_stats();
        table.row(vec![
            profile.name.to_string(),
            format!("{:.2}", stats.mean_dbm),
            format!("{:.2}", stats.sd_dbm),
            stats.n_macs.to_string(),
        ]);
    }
    table.emit(&h.out_dir, "table4").expect("write table4");
}

// ------------------------------------------------------------------ fig 6

fn fig6(h: &Harness) {
    let cfg = GemConfig::default();
    let ds = eval_dataset(&evaluation_users()[2]);
    let gem = Gem::fit(cfg, &ds.train);
    let graph = gem.graph();
    let record_nodes: Vec<NodeId> =
        (0..graph.n_records() as u32).map(|r| NodeId::Record(RecordId(r))).collect();
    let mac_nodes: Vec<NodeId> =
        (0..graph.n_macs() as u32).map(|m| NodeId::Mac(gem_graph::MacId(m))).collect();
    let (rec_h, _) = gem.bisage().embed_nodes(graph, &record_nodes);
    let (mac_h, _) = gem.bisage().embed_nodes(graph, &mac_nodes);
    let mut data: Vec<Vec<f32>> = (0..rec_h.rows()).map(|i| rec_h.row(i).to_vec()).collect();
    data.extend((0..mac_h.rows()).map(|i| mac_h.row(i).to_vec()));
    let mut rng = child_rng(7, 0xF16);
    let points = tsne(&data, TsneConfig { iterations: 300, ..TsneConfig::default() }, &mut rng);
    let mut table =
        Table::new("Fig 6 — t-SNE of learned primary embeddings", &["node_type", "x", "y"]);
    for (i, p) in points.iter().enumerate() {
        let kind = if i < rec_h.rows() { "record" } else { "mac" };
        table.row(vec![kind.to_string(), format!("{:.4}", p[0]), format!("{:.4}", p[1])]);
    }
    table.emit(&h.out_dir, "fig6").expect("write fig6");
    // Separation diagnostic: mean centroid distance between types.
    let centroid = |range: std::ops::Range<usize>| -> [f64; 2] {
        let mut c = [0.0f64; 2];
        for i in range.clone() {
            c[0] += points[i][0];
            c[1] += points[i][1];
        }
        [c[0] / range.len() as f64, c[1] / range.len() as f64]
    };
    let cr = centroid(0..rec_h.rows());
    let cm = centroid(rec_h.rows()..points.len());
    eprintln!(
        "  [fig6] record/mac centroid distance: {:.3}",
        ((cr[0] - cm[0]).powi(2) + (cr[1] - cm[1]).powi(2)).sqrt()
    );
}

// ------------------------------------------------------------------ fig 7

/// "GEM without BiSAGE": our enhanced detector applied directly to the
/// padded matrix representation (missing entries at −120 dBm).
fn matrix_od_confusion(cfg: &GemConfig, ds: &Dataset) -> Confusion {
    let universe = ds.train.to_matrix(gem_signal::RSS_PAD_DBM);
    let n = universe.rows;
    let mut train = Tensor::zeros(n, universe.cols());
    for i in 0..n {
        let row: Vec<f32> = universe.row(i).iter().map(|&v| (v + 120.0) / 100.0).collect();
        train.set_row(i, &row);
    }
    let mut det = EnhancedDetector::fit_calibrated(
        &train,
        cfg.bins,
        cfg.temperature as f64,
        cfg.tau_u as f64,
        cfg.tau_l as f64,
        cfg.calibrate_keep_in,
        cfg.calibrate_confident,
    );
    eval_stream(&ds.test, |rec| {
        if rec.is_empty() {
            return Label::Out;
        }
        let (row, dropped) = universe.project(rec);
        if dropped == rec.len() {
            return Label::Out;
        }
        let sample: Vec<f32> = row.iter().map(|&v| (v + 120.0) / 100.0).collect();
        let d = det.detect_and_update(&sample);
        if d.is_outlier {
            Label::Out
        } else {
            Label::In
        }
    })
}

fn fig7(h: &Harness) {
    let cfg = GemConfig::default();
    let mut with = MetricAccumulator::new();
    let mut without = MetricAccumulator::new();
    for user in evaluation_users() {
        let ds = eval_dataset(&user);
        with.push(&eval_gem(cfg.clone(), &ds));
        without.push(&matrix_od_confusion(&cfg, &ds));
    }
    let mut table = Table::new(
        "Fig 7 — GEM with vs without BiSAGE embeddings (matrix + padding)",
        &["Variant", "P_in", "R_in", "F_in", "P_out", "R_out", "F_out"],
    );
    let mut row = vec!["GEM (with BiSAGE)".to_string()];
    row.extend(with.row_cells());
    table.row(row);
    let mut row = vec!["GEM w/o BiSAGE (matrix)".to_string()];
    row.extend(without.row_cells());
    table.row(row);
    table.emit(&h.out_dir, "fig7").expect("write fig7");
}

// ------------------------------------------------------------------ fig 8

fn fig8(h: &Harness) {
    let cfg = GemConfig::default();
    let ds = eval_dataset(&evaluation_users()[5]);
    let (mut embedder, train_embs) = GemEmbedder::fit(&cfg, &ds.train);
    // Cache test embeddings once; both detector variants stream the same
    // inputs.
    let test: Vec<(Option<Vec<f32>>, Label)> =
        ds.test.iter().map(|t| (embedder.embed(&t.record), t.label)).collect();

    let mut enhanced = EnhancedDetector::fit_calibrated(
        &train_embs,
        cfg.bins,
        cfg.temperature as f64,
        cfg.tau_u as f64,
        cfg.tau_l as f64,
        cfg.calibrate_keep_in,
        cfg.calibrate_confident,
    );
    let mut baseline = BaselineHbos::fit(&train_embs, cfg.bins, cfg.contamination as f64);

    let mut enh_scores: Vec<(f64, bool)> = Vec::new();
    let mut base_scores: Vec<(f64, bool)> = Vec::new();
    let mut enh_confusion = Confusion::default();
    let mut base_confusion = Confusion::default();
    for (emb, label) in &test {
        let positive = *label == Label::Out;
        match emb {
            None => {
                enh_scores.push((2.0, positive));
                base_scores.push((2.0, positive));
                enh_confusion.record(*label, Label::Out);
                base_confusion.record(*label, Label::Out);
            }
            Some(e) => {
                // Stream with each variant's own threshold and updates;
                // sweep the pre-softmax normalized score for the curve
                // (S_T saturates to 1.0 for every clear outlier and the
                // resulting ties would flatten the ROC).
                let enh_det = enhanced.detect_and_update(e);
                let base_det = baseline.detect_and_update(e);
                enh_confusion
                    .record(*label, if enh_det.is_outlier { Label::Out } else { Label::In });
                base_confusion
                    .record(*label, if base_det.is_outlier { Label::Out } else { Label::In });
                enh_scores.push((enhanced.normalized_raw(e), positive));
                base_scores.push((baseline.score(e), positive));
            }
        }
    }
    let enh_curve = roc_curve(&enh_scores);
    let base_curve = roc_curve(&base_scores);
    let mut table = Table::new(
        format!(
            "Fig 8 — enhanced vs original histogram detector: streamed F_out {:.3} vs {:.3}              (F_in {:.3} vs {:.3}); ranking AUC {:.3} vs {:.3}",
            enh_confusion.out_metrics().f_score,
            base_confusion.out_metrics().f_score,
            enh_confusion.in_metrics().f_score,
            base_confusion.in_metrics().f_score,
            auc(&enh_curve),
            auc(&base_curve)
        ),
        &["variant", "fpr", "tpr"],
    );
    for p in &enh_curve {
        table.row(vec!["enhanced".into(), format!("{:.4}", p.fpr), format!("{:.4}", p.tpr)]);
    }
    for p in &base_curve {
        table.row(vec!["original".into(), format!("{:.4}", p.fpr), format!("{:.4}", p.tpr)]);
    }
    table.emit(&h.out_dir, "fig8").expect("write fig8");
}

// ------------------------------------------------------------------ fig 9

fn fig9(h: &Harness) {
    let cfg = GemConfig::default();
    let ds = eval_dataset(&evaluation_users()[5]);

    // (a) F vs training ratio, averaged over three users to de-noise.
    let users: Vec<Dataset> =
        [0usize, 4, 5].iter().map(|&i| eval_dataset(&evaluation_users()[i])).collect();
    let mut table = Table::new(
        "Fig 9a — performance vs training ratio (3 users)",
        &["train_ratio", "F_in", "F_out"],
    );
    for k in 1..=10 {
        let mut acc = MetricAccumulator::new();
        for user_ds in &users {
            let chunks = user_ds.train.chunks(10);
            let mut train = RecordSet::new();
            for chunk in &chunks[..k] {
                for rec in chunk {
                    train.push(rec.clone());
                }
            }
            let sub = Dataset::new(train, user_ds.test.clone());
            acc.push(&eval_gem(cfg.clone(), &sub));
        }
        let (fi, fo) = acc.mean_f();
        table.row(vec![format!("{}%", k * 10), fmt(fi), fmt(fo)]);
        eprintln!("  [fig9a] {}% done", k * 10);
    }
    table.emit(&h.out_dir, "fig9a").expect("write fig9a");

    // (b) F vs update ratio: one model, staged streaming.
    let mut gem = Gem::fit(cfg, &ds.train);
    let mut table = Table::new(
        "Fig 9b — performance vs update ratio (staged online updates)",
        &["stage", "F_in", "F_out"],
    );
    for (si, stage) in ds.test_stages(10).into_iter().enumerate() {
        let c = eval_stream(stage, |rec| gem.infer(rec).label);
        table.row(vec![
            format!("{}%", (si + 1) * 10),
            fmt(c.in_metrics().f_score),
            fmt(c.out_metrics().f_score),
        ]);
    }
    table.emit(&h.out_dir, "fig9b").expect("write fig9b");
}

// ------------------------------------------------------------- fig 10/11

fn fig10_11(h: &Harness, prune_train: bool) {
    let cfg = GemConfig::default();
    let base = eval_dataset(&evaluation_users()[5]);
    let (name, stem) = if prune_train {
        ("Fig 10 — F-score vs % MACs pruned from the training set", "fig10")
    } else {
        ("Fig 11 — F-score vs % MACs pruned from the testing set", "fig11")
    };
    let mut table = Table::new(name, &["pruned_%", "F_in", "F_out"]);
    for pct in [0usize, 5, 10, 15, 20, 25] {
        let frac = pct as f64 / 100.0;
        let mut f_in = Vec::new();
        let mut f_out = Vec::new();
        for run in 0..h.runs {
            let mut ds = base.clone();
            let mut rng = child_rng(0xF1011 + run as u64, pct as u64);
            if prune_train {
                prune_macs(&mut ds.train, frac, &mut rng);
            } else {
                // Select victims from the whole universe, remove from the
                // test stream only.
                let mut universe = ds.train.clone();
                for t in &ds.test {
                    universe.push(t.record.clone());
                }
                let victims = prune_macs(&mut universe, frac, &mut rng);
                prune_macs_from_test(&mut ds.test, &victims);
            }
            let c = eval_gem(cfg.clone(), &ds);
            f_in.push(c.in_metrics().f_score);
            f_out.push(c.out_metrics().f_score);
        }
        table.row(vec![
            pct.to_string(),
            fmt(Summary::of(&f_in).mean),
            fmt(Summary::of(&f_out).mean),
        ]);
        eprintln!("  [{stem}] {pct}% done ({} runs)", h.runs);
    }
    table.emit(&h.out_dir, stem).expect("write fig10/11");
}

// ----------------------------------------------------------------- fig 13

fn fig13(h: &Harness) {
    let cfg = GemConfig::default();
    let base = eval_dataset(&evaluation_users()[3]);
    let mut table = Table::new(
        "Fig 13 — F-score under the AP ON-OFF two-state Markov model",
        &["p", "q", "F_in", "F_out"],
    );
    let axis: Vec<f64> = (0..h.grid).map(|i| 0.1 + 0.8 * i as f64 / (h.grid - 1) as f64).collect();
    for &p in &axis {
        for &q in &axis {
            let mut f_in = Vec::new();
            let mut f_out = Vec::new();
            for run in 0..h.runs {
                let mut ds = base.clone();
                let chain = MarkovOnOff::new(p, q);
                let mut rng = child_rng(0xF13 + run as u64, (p * 100.0 + q) as u64);
                chain.apply(&mut ds, &mut rng);
                let c = eval_gem(cfg.clone(), &ds);
                f_in.push(c.in_metrics().f_score);
                f_out.push(c.out_metrics().f_score);
            }
            table.row(vec![
                format!("{p:.1}"),
                format!("{q:.1}"),
                fmt(Summary::of(&f_in).mean),
                fmt(Summary::of(&f_out).mean),
            ]);
            eprintln!("  [fig13] p={p:.1} q={q:.1} done");
        }
    }
    table.emit(&h.out_dir, "fig13").expect("write fig13");
}

// ----------------------------------------------------------------- fig 14

fn fig14(h: &Harness) {
    let users: Vec<Dataset> =
        [0usize, 4, 7].iter().map(|&i| eval_dataset(&evaluation_users()[i])).collect();

    // (a) embedding dimension.
    let mut table =
        Table::new("Fig 14a — F-score vs embedding dimension d", &["d", "F_in", "F_out"]);
    for d in [8usize, 16, 32, 48, 64] {
        let cfg = GemConfig { embedding_dim: d, ..GemConfig::default() };
        let mut acc = MetricAccumulator::new();
        for ds in &users {
            acc.push(&eval_gem(cfg.clone(), ds));
        }
        let (fi, fo) = acc.mean_f();
        table.row(vec![d.to_string(), fmt(fi), fmt(fo)]);
        eprintln!("  [fig14a] d={d} done");
    }
    table.emit(&h.out_dir, "fig14a").expect("write fig14a");

    // (b)/(c): reuse cached embeddings per user, refit the detector only.
    type CachedUser = (Tensor, Vec<(Option<Vec<f32>>, Label)>);
    let base_cfg = GemConfig::default();
    let cached: Vec<CachedUser> = users
        .iter()
        .map(|ds| {
            let (mut embedder, train_embs) = GemEmbedder::fit(&base_cfg, &ds.train);
            let test: Vec<(Option<Vec<f32>>, Label)> =
                ds.test.iter().map(|t| (embedder.embed(&t.record), t.label)).collect();
            (train_embs, test)
        })
        .collect();

    let eval_detector = |bins: usize, temperature: f64| -> (f64, f64) {
        let mut acc = MetricAccumulator::new();
        for (train_embs, test) in &cached {
            let mut det = EnhancedDetector::fit_calibrated(
                train_embs,
                bins,
                temperature,
                base_cfg.tau_u as f64,
                base_cfg.tau_l as f64,
                base_cfg.calibrate_keep_in,
                base_cfg.calibrate_confident,
            );
            let mut c = Confusion::default();
            for (emb, label) in test {
                let predicted = match emb {
                    None => Label::Out,
                    Some(e) => {
                        if det.detect_and_update(e).is_outlier {
                            Label::Out
                        } else {
                            Label::In
                        }
                    }
                };
                c.record(*label, predicted);
            }
            acc.push(&c);
        }
        acc.mean_f()
    };

    let mut table = Table::new("Fig 14b — F-score vs scaling factor T", &["T", "F_in", "F_out"]);
    for t in [0.01f64, 0.03, 0.06, 0.10, 0.20] {
        let (fi, fo) = eval_detector(base_cfg.bins, t);
        table.row(vec![format!("{t:.2}"), fmt(fi), fmt(fo)]);
    }
    table.emit(&h.out_dir, "fig14b").expect("write fig14b");

    let mut table = Table::new("Fig 14c — F-score vs histogram bins m", &["m", "F_in", "F_out"]);
    for m in [4usize, 6, 10, 16, 24] {
        let (fi, fo) = eval_detector(m, base_cfg.temperature as f64);
        table.row(vec![m.to_string(), fmt(fi), fmt(fo)]);
    }
    table.emit(&h.out_dir, "fig14c").expect("write fig14c");

    // (d) edge-weight function.
    let mut table =
        Table::new("Fig 14d — F-score vs edge-weight function", &["weight_fn", "F_in", "F_out"]);
    for (name, wf) in [
        ("RSS + 120 (paper)", WeightFn::OffsetLinear { c: 120.0 }),
        ("10^(RSS/30)", WeightFn::Exponential { scale: 30.0 }),
        ("10^(RSS/15)", WeightFn::Exponential { scale: 15.0 }),
        ("unit (presence only)", WeightFn::Unit),
    ] {
        let cfg = GemConfig { weight_fn: wf, ..GemConfig::default() };
        let mut acc = MetricAccumulator::new();
        for ds in &users {
            acc.push(&eval_gem(cfg.clone(), ds));
        }
        let (fi, fo) = acc.mean_f();
        table.row(vec![name.to_string(), fmt(fi), fmt(fo)]);
        eprintln!("  [fig14d] {name} done");
    }
    table.emit(&h.out_dir, "fig14d").expect("write fig14d");
}

// ----------------------------------------------------------------- fig 15

fn fig15(h: &Harness) {
    let cfg = GemConfig::default();

    // (b) time-of-day: train at 11AM, test at each instant.
    let scenario = Scenario::build(lab_scenario());
    let mut table = Table::new(
        "Fig 15b — lab performance vs time of day (trained at 11AM)",
        &["time", "F_in", "F_out"],
    );
    for profile in [TimeProfile::MORNING, TimeProfile::AFTERNOON, TimeProfile::EVENING] {
        let ds = scenario.generate_with(TimeProfile::MORNING, profile);
        let c = eval_gem(cfg.clone(), &ds);
        table.row(vec![
            profile.name.to_string(),
            fmt(c.in_metrics().f_score),
            fmt(c.out_metrics().f_score),
        ]);
    }
    table.emit(&h.out_dir, "fig15b").expect("write fig15b");

    // (c) walking speed during initial training.
    let mut table = Table::new(
        "Fig 15c — performance vs training walking speed",
        &["speed_mps", "n_train", "F_in", "F_out"],
    );
    for speed in [0.4f64, 0.8, 1.2] {
        let mut sc = lab_scenario();
        sc.speed_mps = speed;
        let ds = eval_dataset(&sc);
        let c = eval_gem(cfg.clone(), &ds);
        table.row(vec![
            format!("{speed:.1}"),
            ds.train.len().to_string(),
            fmt(c.in_metrics().f_score),
            fmt(c.out_metrics().f_score),
        ]);
    }
    table.emit(&h.out_dir, "fig15c").expect("write fig15c");

    // (d) frequency-band availability.
    let mut table = Table::new(
        "Fig 15d — performance vs available frequency bands",
        &["bands", "F_in", "F_out"],
    );
    for (name, bands) in [
        ("2.4GHz only", vec![BandKind::Ghz24]),
        ("5GHz only", vec![BandKind::Ghz5]),
        ("2.4GHz + 5GHz", vec![BandKind::Ghz24, BandKind::Ghz5]),
    ] {
        let mut sc = lab_scenario();
        sc.enabled_bands = bands;
        let ds = eval_dataset(&sc);
        let c = eval_gem(cfg.clone(), &ds);
        table.row(vec![
            name.to_string(),
            fmt(c.in_metrics().f_score),
            fmt(c.out_metrics().f_score),
        ]);
    }
    table.emit(&h.out_dir, "fig15d").expect("write fig15d");
}

// --------------------------------------------------------------- ablation

fn ablation(h: &Harness) {
    let users: Vec<Dataset> =
        [1usize, 4, 8].iter().map(|&i| eval_dataset(&evaluation_users()[i])).collect();
    let base = GemConfig::default();
    let variants: Vec<(&str, GemConfig)> = vec![
        ("GEM (default)", base.clone()),
        ("uniform neighbor sampling", GemConfig { uniform_sampling: true, ..base.clone() }),
        (
            "unweighted mean aggregator",
            GemConfig { aggregator: gem_core::Aggregator::Mean, ..base.clone() },
        ),
        ("frozen base embeddings", GemConfig { trainable_base: false, ..base.clone() }),
        ("typed negatives", GemConfig { typed_negatives: true, ..base.clone() }),
        ("fixed paper thresholds", GemConfig { calibrate_thresholds: false, ..base.clone() }),
        ("presence-only edge weights", GemConfig { weight_fn: WeightFn::Unit, ..base.clone() }),
    ];
    let mut table =
        Table::new("Ablation — BiSAGE design choices (3 users)", &["Variant", "F_in", "F_out"]);
    for (name, cfg) in variants {
        let mut acc = MetricAccumulator::new();
        for ds in &users {
            acc.push(&eval_gem(cfg.clone(), ds));
        }
        let (fi, fo) = acc.mean_f();
        table.row(vec![name.to_string(), fmt(fi), fmt(fo)]);
        eprintln!("  [ablation] {name} done");
    }
    table.emit(&h.out_dir, "ablation").expect("write ablation");
}

// ------------------------------------------------- autoencoder smoke use
// (keeps the import used when only some experiments are compiled in)
#[allow(dead_code)]
fn _autoencoder_probe(ds: &Dataset) {
    let _ = Autoencoder::fit(AutoencoderConfig::default(), &ds.train);
}

// -------------------------------------------------------- boundary attack

/// Section VII: a "bad actor" lingers just outside the boundary and moves
/// outward slowly, trying to abuse the online model update. We measure
/// how many attacker scans are (a) accepted as in-premises and (b)
/// absorbed as confident updates, and whether the clean operating point
/// degrades afterwards.
fn attack(h: &Harness) {
    let cfg = GemConfig::default();
    let mut sc_cfg = evaluation_users().remove(5);
    sc_cfg.churn_fraction = 0.0; // isolate the attack from churn
    let scenario = Scenario::build(sc_cfg.clone());
    let ds = scenario.generate();
    let mut gem = Gem::fit(cfg, &ds.train);

    // Clean performance before the attack, on a deep copy of the model
    // (snapshots double as a clone mechanism).
    let before = {
        let mut clean = gem_core::GemSnapshot::capture(&gem).restore().expect("snapshot roundtrip");
        eval_stream(&ds.test, |rec| clean.infer(rec).label)
    };

    // The attacker: starts 0.3 m outside the east wall and drifts outward
    // to 12 m over 240 scans, sampling the radio like the real device.
    let bb = scenario.world.plan.bounding_rect().expect("premises");
    let mut attacker_positions = Vec::new();
    let n_attack = 240usize;
    for i in 0..n_attack {
        let t = i as f64 / (n_attack - 1) as f64;
        let x = bb.max.x + 0.3 + 11.7 * t;
        let y = (bb.min.y + bb.max.y) / 2.0 + (i % 7) as f64 * 0.15;
        attacker_positions.push(gem_rfsim::Position::new(x, y, 0));
    }
    let mut rng = scenario.rng(0xA77A);
    let attack_scans =
        scenario.sense_positions(&attacker_positions, &TimeProfile::QUIET, 1e6, &mut rng);

    let mut accepted = 0usize;
    let updates_before = gem.detector().n_updates;
    for rec in attack_scans.iter() {
        let d = gem.infer(rec);
        if d.label == Label::In {
            accepted += 1;
        }
    }
    let absorbed = gem.detector().n_updates - updates_before;

    // Clean performance after the attack (fresh copy of the test stream).
    let after = eval_stream(&ds.test, |rec| gem.infer(rec).label);

    let mut table = Table::new("Section VII — boundary-attack resistance", &["metric", "value"]);
    table.row(vec!["attacker scans".into(), attack_scans.len().to_string()]);
    table.row(vec![
        "accepted as in-premises".into(),
        format!("{accepted} ({:.1}%)", 100.0 * accepted as f64 / attack_scans.len() as f64),
    ]);
    table.row(vec![
        "absorbed into the model".into(),
        format!("{absorbed} ({:.1}%)", 100.0 * absorbed as f64 / attack_scans.len() as f64),
    ]);
    table.row(vec!["F_in before attack".into(), fmt(before.in_metrics().f_score)]);
    table.row(vec!["F_in after attack".into(), fmt(after.in_metrics().f_score)]);
    table.row(vec!["F_out before attack".into(), fmt(before.out_metrics().f_score)]);
    table.row(vec!["F_out after attack".into(), fmt(after.out_metrics().f_score)]);
    table.emit(&h.out_dir, "attack").expect("write attack");
}

// ------------------------------------------------------------- extensions

/// Extensions beyond the paper: Deep SVDD, the related-work family the
/// paper dismisses at this data scale.
fn extensions(h: &Harness) {
    let users: Vec<Dataset> =
        [0usize, 4, 7].iter().map(|&i| eval_dataset(&evaluation_users()[i])).collect();
    let mut table =
        Table::new("Extensions — Deep SVDD baseline (3 users)", &["System", "F_in", "F_out"]);
    // GEM reference.
    let mut acc = MetricAccumulator::new();
    for ds in &users {
        acc.push(&eval_gem(GemConfig::default(), ds));
    }
    let (fi, fo) = acc.mean_f();
    table.row(vec!["GEM (default)".into(), fmt(fi), fmt(fo)]);
    // Deep SVDD on the padded matrix.
    let mut acc = MetricAccumulator::new();
    for ds in &users {
        let model = DeepSvdd::fit(DeepSvddConfig::default(), &ds.train);
        acc.push(&eval_stream(&ds.test, |rec| model.infer(rec).0));
    }
    let (fi, fo) = acc.mean_f();
    table.row(vec!["Deep SVDD (matrix)".into(), fmt(fi), fmt(fo)]);
    table.emit(&h.out_dir, "extensions").expect("write extensions");
}
