//! `gem` — command-line interface for the GEM geofencing system.
//!
//! ```text
//! gem simulate --user 3 --out dataset.json        # synthesize a dataset
//! gem train    --dataset dataset.json --model model.json
//! gem eval     --dataset dataset.json --model model.json
//! gem stream   --dataset dataset.json --model model.json --alert-after 3
//! gem fleet    --models a.json,b.json --datasets a-ds.json,b-ds.json --shards 4
//! gem serve    --listen 127.0.0.1:7979 --model model.json --premises 12
//! gem loadgen  --connect 127.0.0.1:7979 --devices 12
//! gem info     --model model.json
//! ```
//!
//! Datasets are JSON (`gem_signal::Dataset`); models are GEM snapshots
//! (`gem_core::persist::GemSnapshot`).

use std::process::ExitCode;

/// `println!` that ignores broken pipes (e.g. `gem info | head`), so the
/// CLI exits quietly instead of panicking when the reader goes away.
macro_rules! say {
    ($($t:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

mod args;
mod loadgen;
mod trace;

use args::Args;
use gem_core::{Gem, GemConfig};
use gem_eval::Confusion;
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Event, Monitor, MonitorConfig};
use gem_signal::Dataset;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(usage());
    };
    let args = Args::parse(rest)?;
    match command.as_str() {
        "simulate" => simulate(&args),
        "train" => train(&args),
        "eval" => eval(&args),
        "stream" => stream(&args),
        "fleet" => fleet(&args),
        "serve" => serve(&args),
        "loadgen" => loadgen::run(&args),
        "trace" => trace::run(&args),
        "info" => info(&args),
        "help" | "--help" | "-h" => {
            say!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gem <command> [options]\n\
     commands:\n\
     \x20 simulate --out FILE [--user 1..10 | --lab] [--train-secs S] [--test N] [--seed X]\n\
     \x20 train    --dataset FILE --model FILE [--dim D] [--epochs E] [--seed X]\n\
     \x20 eval     --dataset FILE --model FILE\n\
     \x20 stream   --dataset FILE --model FILE [--alert-after K] [--save-back]\n\
     \x20 fleet    --models F1,F2,.. --datasets F1,F2,.. [--shards N] [--max-batch B]\n\
     \x20          [--alert-after K] [--dir DIR] [--snapshot-secs S] [--recover]\n\
     \x20          [--hot-cap N] [--metrics-addr HOST:PORT] [--trace-dir DIR] [--no-metrics]\n\
     \x20          [--trace-sample F] [--trace-tail-ms MS]\n\
     \x20 serve    --listen HOST:PORT (--model FILE [--premises N] | --models F1,F2,..)\n\
     \x20          [--shards N] [--max-batch B] [--queue Q] [--alert-after K] [--dir DIR]\n\
     \x20          [--snapshot-secs S] [--hot-cap N] [--credit W] [--read-timeout-secs S]\n\
     \x20          [--duration-secs S] [--metrics-addr HOST:PORT] [--no-metrics]\n\
     \x20          [--trace-sample F] [--trace-tail-ms MS]\n\
     \x20 loadgen  --connect HOST:PORT [--devices N] [--scans-per-device N] [--user 1..10]\n\
     \x20          [--seed X] [--churn F] [--pace-ms MS] [--metrics HOST:PORT]\n\
     \x20          [--bench-out FILE] [--p99-ms MS] [--connect-timeout-secs S] [--trace]\n\
     \x20 trace    --input F1,F2,.. [--slowest N] [--min-coverage F]\n\
     \x20 info     --model FILE"
        .to_string()
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let path = args.require("dataset")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn simulate(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let mut cfg = if args.flag("lab") {
        ScenarioConfig::lab()
    } else {
        let user: u32 = args.get_parsed("user")?.unwrap_or(1);
        if !(1..=10).contains(&user) {
            return Err("--user must be 1..10".into());
        }
        ScenarioConfig::user(user)
    };
    if let Some(secs) = args.get_parsed::<f64>("train-secs")? {
        cfg.train_duration_s = secs;
    }
    if let Some(n) = args.get_parsed::<usize>("test")? {
        cfg.n_test_in = n;
        cfg.n_test_out = n;
    }
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    let scenario = Scenario::build(cfg);
    let dataset = scenario.generate();
    let json = serde_json::to_string(&dataset).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    say!(
        "wrote {}: {} training scans, {} test scans, {:.0} m² premises",
        out,
        dataset.train.len(),
        dataset.test.len(),
        scenario.world.plan.area_m2()
    );
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let model_path = args.require("model")?;
    let mut cfg = GemConfig::default();
    if let Some(d) = args.get_parsed::<usize>("dim")? {
        cfg.embedding_dim = d;
    }
    if let Some(e) = args.get_parsed::<usize>("epochs")? {
        cfg.epochs = e;
    }
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    let start = std::time::Instant::now();
    let gem = Gem::fit(cfg, &dataset.train);
    gem.save(&model_path).map_err(|e| e.to_string())?;
    say!(
        "trained on {} scans in {:.1}s ({} graph nodes, {} edges); model → {}",
        dataset.train.len(),
        start.elapsed().as_secs_f64(),
        gem.graph().n_nodes(),
        gem.graph().n_edges(),
        model_path
    );
    Ok(())
}

fn eval(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let mut gem = Gem::load(args.require("model")?).map_err(|e| e.to_string())?;
    let mut confusion = Confusion::default();
    for t in &dataset.test {
        confusion.record(t.label, gem.infer(&t.record).label);
    }
    let i = confusion.in_metrics();
    let o = confusion.out_metrics();
    say!("scans: {}", confusion.total());
    say!("accuracy: {:.3}", confusion.accuracy());
    say!("in-premises  P {:.3}  R {:.3}  F {:.3}", i.precision, i.recall, i.f_score);
    say!("outside      P {:.3}  R {:.3}  F {:.3}", o.precision, o.recall, o.f_score);
    say!("online updates: {}", gem.detector().n_updates);
    Ok(())
}

fn stream(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let model_path = args.require("model")?;
    let gem = Gem::load(&model_path).map_err(|e| e.to_string())?;
    let alert_after = args.get_parsed::<usize>("alert-after")?.unwrap_or(3);
    let mut monitor = Monitor::new(gem, MonitorConfig { alert_after, ..MonitorConfig::default() });
    for t in &dataset.test {
        for event in monitor.process(&t.record) {
            match event {
                Event::AlertRaised { timestamp_s, consecutive_out } => {
                    say!("t={timestamp_s:8.1}s  ALERT raised ({consecutive_out} consecutive outside scans)");
                }
                Event::AlertCleared { timestamp_s } => {
                    say!("t={timestamp_s:8.1}s  alert cleared");
                }
                Event::Decision { .. } => {}
            }
        }
    }
    let stats = monitor.stats();
    say!(
        "processed {} scans: {} in / {} out, {} alerts, {} model updates",
        stats.scans,
        stats.in_decisions,
        stats.out_decisions,
        stats.alerts,
        stats.model_updates
    );
    if args.flag("save-back") {
        monitor.gem().save(&model_path).map_err(|e| e.to_string())?;
        say!("updated model saved back to {model_path}");
    }
    Ok(())
}

/// Fleet tuning shared by `gem fleet` and `gem serve`:
/// `--shards`/`--max-batch`/`--queue` size the worker pool, `--dir`
/// enables the write-ahead journal plus snapshots (`--snapshot-secs`
/// and at shutdown), `--hot-cap` bounds resident premises per shard
/// (idle tenants spill to their snapshot files and hydrate back on
/// their next record; requires `--dir`, and must be at least 1 — omit
/// the flag for an unbounded hot tier), `--no-metrics` turns
/// histograms and tracing off (counters stay on).
fn fleet_config_from_args(args: &Args) -> Result<gem_service::FleetConfig, String> {
    use std::time::Duration;

    let mut cfg = gem_service::FleetConfig::default();
    cfg.obs.enabled = !args.flag("no-metrics");
    if let Some(shards) = args.get_parsed::<usize>("shards")? {
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        cfg.shards = shards;
    }
    if let Some(b) = args.get_parsed::<usize>("max-batch")? {
        if b == 0 {
            return Err("--max-batch must be at least 1".into());
        }
        cfg.max_batch = b;
    }
    if let Some(q) = args.get_parsed::<usize>("queue")? {
        if q == 0 {
            return Err("--queue must be at least 1".into());
        }
        cfg.queue_per_shard = q;
    }
    cfg.dir = args.get_parsed::<std::path::PathBuf>("dir")?;
    if let Some(secs) = args.get_parsed::<f64>("snapshot-secs")? {
        if cfg.dir.is_none() {
            return Err("--snapshot-secs requires --dir".into());
        }
        cfg.snapshot_interval = Some(Duration::from_secs_f64(secs));
    }
    if let Some(cap) = args.get_parsed::<usize>("hot-cap")? {
        if cap == 0 {
            return Err(
                "--hot-cap must be at least 1 (omit the flag for an unbounded hot tier)".into()
            );
        }
        if cfg.dir.is_none() {
            return Err("--hot-cap requires --dir (cold premises spill to snapshots)".into());
        }
        cfg.hot_premises_per_shard = Some(cap);
    }
    if let Some(rate) = args.get_parsed::<f64>("trace-sample")? {
        if !(0.0..=1.0).contains(&rate) {
            return Err("--trace-sample must be within 0..1".into());
        }
        cfg.obs.trace_sample = rate;
    }
    if let Some(ms) = args.get_parsed::<f64>("trace-tail-ms")? {
        if !ms.is_finite() || ms < 0.0 {
            return Err("--trace-tail-ms must be non-negative (0 disables tail capture)".into());
        }
        cfg.obs.trace_tail_ms = ms;
    }
    Ok(cfg)
}

/// Multi-tenant streaming: one premises per `--models`/`--datasets`
/// pair, sharded across worker threads, with optional durability and
/// crash recovery (`--recover` replays the journal before streaming) —
/// see [`fleet_config_from_args`] for the shared tuning flags.
/// `--metrics-addr` serves the
/// fleet's registry as Prometheus text (`/metrics`) and JSON
/// (`/metrics.json`) for the run's duration; `--trace-dir` dumps the
/// per-shard decision-trace rings as JSONL at the end.
fn fleet(args: &Args) -> Result<(), String> {
    use gem_service::{Fleet, FleetEvent};
    use std::time::Duration;

    let cfg = fleet_config_from_args(args)?;
    let alert_after = args.get_parsed::<usize>("alert-after")?.unwrap_or(3);

    let datasets: Vec<Dataset> = match args.values_list("datasets") {
        Some(paths) => paths
            .iter()
            .map(|p| {
                let json = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
                serde_json::from_str(&json).map_err(|e| format!("parsing {p}: {e}"))
            })
            .collect::<Result<_, String>>()?,
        None => Vec::new(),
    };

    let fleet = if args.flag("recover") {
        if cfg.dir.is_none() {
            return Err("--recover requires --dir".into());
        }
        let recovery = Fleet::recover(cfg).map_err(|e| e.to_string())?;
        say!(
            "recovered: {} journal epochs replayed, {} events regenerated",
            recovery.replayed_epochs,
            recovery.replayed.len()
        );
        recovery.fleet
    } else {
        let model_paths = args.values_list("models").ok_or("missing required option --models")?;
        if model_paths.len() != datasets.len() {
            return Err(format!(
                "--models lists {} files but --datasets lists {}",
                model_paths.len(),
                datasets.len()
            ));
        }
        let monitors = model_paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let gem = Gem::load(p).map_err(|e| format!("loading {p}: {e}"))?;
                let monitor =
                    Monitor::new(gem, MonitorConfig { alert_after, ..MonitorConfig::default() });
                Ok((i as u64 + 1, monitor))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Fleet::spawn(monitors, cfg).map_err(|e| e.to_string())?
    };

    // The server lives until the end of this function: the final scrape
    // a supervisor makes still sees the complete run. Shard trace rings
    // ride along so `/trace.jsonl` serves retained spans.
    let _metrics_server = match args.get_parsed::<String>("metrics-addr")? {
        Some(addr) => {
            let server = gem_obs::MetricsServer::bind_with_traces(
                &addr,
                fleet.registry(),
                fleet.trace_rings(),
            )
            .map_err(|e| format!("binding metrics server on {addr}: {e}"))?;
            say!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };

    // Interleave the streams round-robin, as concurrent devices would,
    // backing off briefly when admission sheds. Events are drained
    // *inside* the submit loop: the fleet's event channel is bounded,
    // and a submitter that never drains would eventually stall the
    // pipeline it is trying to fill.
    use gem_service::{Admission, ShedReason};
    let mut sheds = 0u64;
    let mut events: Vec<FleetEvent> = Vec::new();
    let drain = |events: &mut Vec<FleetEvent>| {
        while let Ok(e) = fleet.events().try_recv() {
            events.push(e);
        }
    };
    let longest = datasets.iter().map(|d| d.test.len()).max().unwrap_or(0);
    for k in 0..longest {
        for (i, dataset) in datasets.iter().enumerate() {
            let Some(t) = dataset.test.get(k) else { continue };
            let premises_id = i as u64 + 1;
            loop {
                match fleet.submit(premises_id, t.record.clone()) {
                    a if a.accepted() => break,
                    Admission::Shed(ShedReason::QueueFull) => {
                        // Transient: the shard is behind. Free the event
                        // channel, give it a moment, retry.
                        sheds += 1;
                        drain(&mut events);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Admission::Shed(reason) => {
                        // UnknownPremises / Shutdown never clear up;
                        // retrying would spin forever.
                        return Err(format!(
                            "premises {premises_id}: submission refused permanently ({reason:?})"
                        ));
                    }
                    _ => unreachable!("non-shed admissions are accepted"),
                }
            }
            drain(&mut events);
        }
    }
    fleet.flush().map_err(|e| e.to_string())?;
    drain(&mut events);
    for FleetEvent { premises_id, event, .. } in events {
        match event {
            Event::AlertRaised { timestamp_s, consecutive_out } => {
                say!(
                    "premises {premises_id}  t={timestamp_s:8.1}s  ALERT raised \
                     ({consecutive_out} consecutive outside scans)"
                );
            }
            Event::AlertCleared { timestamp_s } => {
                say!("premises {premises_id}  t={timestamp_s:8.1}s  alert cleared");
            }
            Event::Decision { .. } => {}
        }
    }
    for (premises_id, stats) in fleet.stats().map_err(|e| e.to_string())? {
        say!(
            "premises {premises_id} (shard {}): {} scans in {} epochs, {} in / {} out, \
             {} alerts, {} model updates",
            fleet.route(premises_id).unwrap_or(0),
            stats.scans,
            stats.epochs,
            stats.in_decisions,
            stats.out_decisions,
            stats.alerts,
            stats.model_updates
        );
    }
    if sheds > 0 {
        say!("admission shed {sheds} submissions (retried until accepted)");
    }
    let dropped = fleet.fleet_stats().dropped_events;
    if dropped > 0 {
        say!("{dropped} event notifications dropped (consumer fell behind)");
    }
    if let Some(trace_dir) = args.get_parsed::<std::path::PathBuf>("trace-dir")? {
        let paths = fleet
            .dump_traces(&trace_dir)
            .map_err(|e| format!("writing traces to {}: {e}", trace_dir.display()))?;
        say!("wrote {} trace files to {}", paths.len(), trace_dir.display());
    }
    let durable = fleet.snapshot_dir().map(|d| d.display().to_string());
    fleet.shutdown().map_err(|e| e.to_string())?;
    if let Some(dir) = durable {
        say!("fleet state snapshotted to {dir}");
    }
    Ok(())
}

/// Network ingress: bind `--listen` and serve the wire protocol in
/// front of a fleet (see DESIGN.md, "Ingress architecture"). Premises
/// come from either `--models F1,F2,..` (premises 1..=N, one model
/// file each) or `--model FILE --premises N` (N monitors hydrated from
/// one snapshot — the loadgen's shape, where every simulated device
/// watches the same world). `--credit` caps the per-connection credit
/// window, `--read-timeout-secs` disconnects silent clients, and
/// `--duration-secs` exits after a fixed time (default: serve until
/// killed). Fleet tuning flags are shared with `gem fleet`
/// ([`fleet_config_from_args`]); `--metrics-addr` exposes the registry
/// — ingress counters included — over HTTP for the run's duration.
fn serve(args: &Args) -> Result<(), String> {
    use gem_service::{Fleet, IngressConfig, IngressServer};
    use std::time::Duration;

    let listen = args.require("listen")?;
    let cfg = fleet_config_from_args(args)?;
    let alert_after = args.get_parsed::<usize>("alert-after")?.unwrap_or(3);
    let mcfg = MonitorConfig { alert_after, ..MonitorConfig::default() };

    // Validate every tuning flag before the (slow) model loads, so a
    // typo'd invocation fails fast.
    let mut icfg = IngressConfig::default();
    if let Some(w) = args.get_parsed::<u16>("credit")? {
        if w == 0 {
            return Err("--credit must be at least 1".into());
        }
        icfg.credit_window = w;
    }
    if let Some(secs) = args.get_parsed::<f64>("read-timeout-secs")? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err("--read-timeout-secs must be positive".into());
        }
        icfg.read_timeout = Duration::from_secs_f64(secs);
    }
    let duration = match args.get_parsed::<f64>("duration-secs")? {
        Some(secs) => {
            if !secs.is_finite() || secs <= 0.0 {
                return Err("--duration-secs must be positive".into());
            }
            Some(Duration::from_secs_f64(secs))
        }
        None => None,
    };

    let monitors: Vec<(u64, Monitor)> = if let Some(model) = args.get_parsed::<String>("model")? {
        let premises: usize = args.get_parsed("premises")?.unwrap_or(1);
        if premises == 0 {
            return Err("--premises must be at least 1".into());
        }
        // One read, N hydrations: every premises starts from the same
        // snapshot but owns its model (online updates diverge).
        let json = std::fs::read_to_string(&model).map_err(|e| format!("reading {model}: {e}"))?;
        (1..=premises as u64)
            .map(|id| {
                let gem = gem_core::GemSnapshot::from_json(&json)
                    .and_then(|s| s.restore())
                    .map_err(|e| format!("restoring {model}: {e}"))?;
                Ok((id, Monitor::new(gem, mcfg)))
            })
            .collect::<Result<_, String>>()?
    } else {
        let model_paths = args
            .values_list("models")
            .ok_or("serve needs --model FILE [--premises N] or --models F1,F2,..")?;
        model_paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let gem = Gem::load(p).map_err(|e| format!("loading {p}: {e}"))?;
                Ok((i as u64 + 1, Monitor::new(gem, mcfg)))
            })
            .collect::<Result<_, String>>()?
    };
    let n_premises = monitors.len();
    let mut fleet = Fleet::spawn(monitors, cfg).map_err(|e| e.to_string())?;

    let _metrics_server = match args.get_parsed::<String>("metrics-addr")? {
        Some(addr) => {
            let server = gem_obs::MetricsServer::bind_with_traces(
                &addr,
                fleet.registry(),
                fleet.trace_rings(),
            )
            .map_err(|e| format!("binding metrics server on {addr}: {e}"))?;
            say!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };

    // The window the server will actually advertise in HELLO.
    let advertised = (icfg.credit_window as usize).min(fleet.admission_quota()).max(1);
    let ingress = IngressServer::bind(&listen, &mut fleet, icfg)
        .map_err(|e| format!("binding ingress on {listen}: {e}"))?;
    say!(
        "ingress listening on {} ({} premises, credit window {})",
        ingress.local_addr(),
        n_premises,
        advertised
    );

    match duration {
        Some(d) => std::thread::sleep(d),
        // No duration: serve until the process is killed.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    drop(ingress);
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let path = args.require("model")?;
    let snapshot = gem_core::GemSnapshot::load(&path).map_err(|e| e.to_string())?;
    say!("model: {path}");
    say!("embedding dim: {}", snapshot.cfg.embedding_dim);
    say!(
        "graph: {} records, {} MACs, {} edges",
        snapshot.graph.n_records(),
        snapshot.graph.n_macs(),
        snapshot.graph.n_edges()
    );
    say!(
        "detector samples: {} (+{} online updates)",
        snapshot.detector.n_samples(),
        snapshot.detector.n_updates
    );
    say!(
        "training loss: {:?}",
        snapshot
            .train_report
            .epoch_losses
            .iter()
            .map(|l| (l * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    fn run_with(argv: &[&str]) -> Result<(), String> {
        run(argv.iter().map(|s| s.to_string()).collect())
    }

    /// A degenerate knob value is a usage error up front, not a
    /// silently different behavior (`--hot-cap 0` used to mean
    /// "unlimited") or a pointless run (`--devices 0`).
    #[test]
    fn degenerate_flag_values_are_usage_errors() {
        let err =
            run_with(&["serve", "--listen", "127.0.0.1:0", "--dir", "/tmp", "--hot-cap", "0"])
                .unwrap_err();
        assert!(err.contains("--hot-cap"), "{err}");
        let err = run_with(&["fleet", "--dir", "/tmp", "--hot-cap", "0"]).unwrap_err();
        assert!(err.contains("--hot-cap"), "{err}");
        let err = run_with(&["loadgen", "--connect", "127.0.0.1:1", "--devices", "0"]).unwrap_err();
        assert!(err.contains("--devices"), "{err}");
        let err = run_with(&["loadgen", "--connect", "127.0.0.1:1", "--scans-per-device", "0"])
            .unwrap_err();
        assert!(err.contains("--scans-per-device"), "{err}");
        let err = run_with(&["serve", "--listen", "127.0.0.1:0", "--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run_with(&["serve", "--listen", "127.0.0.1:0", "--credit", "0"]).unwrap_err();
        assert!(err.contains("--credit"), "{err}");
    }

    #[test]
    fn serve_requires_a_model_source() {
        let err = run_with(&["serve", "--listen", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("--model"), "{err}");
    }
}
