//! `gem loadgen` — closed-loop device-fleet load generator.
//!
//! Drives N simulated devices against a running `gem serve` instance
//! over real TCP sockets. Each device is one thread speaking the
//! [`gem_service::wire`] protocol: it reads the server's HELLO credit
//! window, streams its diurnal scan day (from
//! [`gem_rfsim::workload::device_stream`]), and keeps at most one
//! window of records unresolved — exactly the flow-control contract a
//! well-behaved device honors, which is why a healthy run sees zero
//! sheds. Every ACK and DECISION is matched back to the record that
//! caused it, so the client measures true end-to-end decision latency
//! and scores the server's answers against ground-truth labels.
//!
//! After the run, `--metrics HOST:PORT` scrapes the server's
//! Prometheus endpoint and cross-checks the client's books against the
//! server's (accepted counts must agree, nothing dropped or rejected).
//! The aggregate — latency percentiles, throughput, shed counts, both
//! sides' ledgers — is appended as one JSON line to `--bench-out`
//! (default `BENCH_ingress.json`), and the SLO gate fails the process
//! if any shed occurred, any ledger disagrees, or p99 end-to-end
//! latency exceeds the budget (`--p99-ms` / `GEM_LOADGEN_P99_MS`).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gem_obs::SpanIdGen;
use gem_rfsim::{workload, Scenario, ScenarioConfig};
use gem_service::wire::{self, Frame, WireShedReason, WireTrace, WireVerdict};
use gem_signal::LabeledRecord;

use crate::args::Args;

/// Everything one device learned from its day of traffic.
struct DeviceReport {
    /// Credit window the server advertised in HELLO.
    credits: u16,
    /// End-to-end record→DECISION latencies, nanoseconds.
    latencies_ns: Vec<u64>,
    accept_acks: u64,
    queued_acks: u64,
    sheds: u64,
    decisions: u64,
    /// Decisions matching the record's ground-truth label.
    correct: u64,
    alerts: u64,
}

/// Server-side ledger scraped from the Prometheus endpoint.
struct ServerLedger {
    admitted: f64,
    shed: f64,
    ingress_records: f64,
    dropped_events: f64,
    rejects: f64,
    orphan_events: f64,
}

/// One appended line of `BENCH_ingress.json`.
#[derive(serde::Serialize)]
struct IngressBenchLine {
    bench: &'static str,
    quick: bool,
    devices: usize,
    scans_per_device: usize,
    total_records: usize,
    credit_window: u16,
    elapsed_seconds: f64,
    records_per_sec: f64,
    accept_acks: u64,
    queued_acks: u64,
    client_sheds: u64,
    client_decisions: u64,
    client_alerts: u64,
    decision_accuracy: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    p99_budget_ms: f64,
    scraped: bool,
    server_admitted: f64,
    server_sheds: f64,
    server_ingress_records: f64,
    server_dropped_events: f64,
    server_rejects: f64,
    server_orphan_events: f64,
}

pub fn run(args: &Args) -> Result<(), String> {
    let quick = std::env::var("GEM_LOADGEN_QUICK").map(|v| v == "1").unwrap_or(false);
    let connect = args.require("connect")?;
    let devices = args.get_parsed::<usize>("devices")?.unwrap_or(if quick { 12 } else { 64 });
    if devices == 0 {
        return Err(
            "--devices must be at least 1 (a zero-device load generator measures nothing)".into()
        );
    }
    let scans =
        args.get_parsed::<usize>("scans-per-device")?.unwrap_or(if quick { 40 } else { 400 });
    if scans == 0 {
        return Err("--scans-per-device must be at least 1".into());
    }
    let user: u32 = args.get_parsed("user")?.unwrap_or(1);
    if !(1..=10).contains(&user) {
        return Err("--user must be 1..10".into());
    }
    let churn = args.get_parsed::<f64>("churn")?.unwrap_or(0.15);
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be within 0..1".into());
    }
    let pace_ms = args.get_parsed::<f64>("pace-ms")?.unwrap_or(0.0);
    if !pace_ms.is_finite() || pace_ms < 0.0 {
        return Err("--pace-ms must be non-negative".into());
    }
    let pace = Duration::from_secs_f64(pace_ms / 1000.0);
    let connect_timeout =
        Duration::from_secs_f64(args.get_parsed::<f64>("connect-timeout-secs")?.unwrap_or(10.0));
    let p99_budget_ms = match args.get_parsed::<f64>("p99-ms")? {
        Some(ms) => ms,
        None => match std::env::var("GEM_LOADGEN_P99_MS") {
            Ok(raw) => raw
                .parse::<f64>()
                .map_err(|e| format!("invalid GEM_LOADGEN_P99_MS {raw:?}: {e}"))?,
            Err(_) => 500.0,
        },
    };
    let metrics_addr = args.get_parsed::<String>("metrics")?;
    let bench_out =
        args.get_parsed::<String>("bench-out")?.unwrap_or_else(|| "BENCH_ingress.json".into());
    // --trace stamps every RECORD with client-minted trace context, so
    // server-side spans join back to the device that sent the record.
    let trace = args.flag("trace");

    // Build the same world the server trained on: the scenario is
    // deterministic in (user, seed), so the devices' scans look like
    // the radio environment the model knows.
    let mut cfg = ScenarioConfig::user(user);
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    let scenario = Scenario::build(cfg);
    say!(
        "loadgen: {} devices x {} scans → {} (scenario {:?}, seed {}{})",
        devices,
        scans,
        connect,
        scenario.cfg.name,
        scenario.cfg.seed,
        if quick { ", quick" } else { "" }
    );

    let started = Instant::now();
    let handles = (1..=devices as u64)
        .map(|premises_id| {
            let connect = connect.clone();
            let stream = workload::device_stream(&scenario, premises_id, scans, churn);
            std::thread::Builder::new()
                .name(format!("gem-loadgen-{premises_id}"))
                .spawn(move || {
                    run_device(&connect, premises_id, &stream, connect_timeout, pace, trace)
                })
                .map_err(|e| format!("spawning device thread: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut reports = Vec::with_capacity(devices);
    let mut failures = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("device thread panicked".into()),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if !failures.is_empty() {
        return Err(format!("{} device(s) failed; first: {}", failures.len(), failures[0]));
    }

    // Aggregate the fleet's books.
    let total_records = devices * scans;
    let mut latencies: Vec<u64> =
        reports.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let credit_window = reports.iter().map(|r| r.credits).min().unwrap_or(0);
    let accept_acks: u64 = reports.iter().map(|r| r.accept_acks).sum();
    let queued_acks: u64 = reports.iter().map(|r| r.queued_acks).sum();
    let client_sheds: u64 = reports.iter().map(|r| r.sheds).sum();
    let client_decisions: u64 = reports.iter().map(|r| r.decisions).sum();
    let client_alerts: u64 = reports.iter().map(|r| r.alerts).sum();
    let correct: u64 = reports.iter().map(|r| r.correct).sum();
    let decision_accuracy =
        if client_decisions > 0 { correct as f64 / client_decisions as f64 } else { 0.0 };
    let p50_ms = percentile_ms(&latencies, 0.50);
    let p99_ms = percentile_ms(&latencies, 0.99);
    let max_ms = latencies.last().map(|&ns| ns as f64 / 1e6).unwrap_or(0.0);

    say!(
        "{} records in {:.2}s ({:.0} rec/s): {} accepted + {} queued, {} shed, \
         {} decisions ({:.1}% correct), {} alerts",
        total_records,
        elapsed,
        total_records as f64 / elapsed.max(1e-9),
        accept_acks,
        queued_acks,
        client_sheds,
        client_decisions,
        decision_accuracy * 100.0,
        client_alerts
    );
    say!(
        "e2e decision latency: p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms (budget {:.0} ms)",
        p50_ms,
        p99_ms,
        max_ms,
        p99_budget_ms
    );

    // Cross-check against the server's own ledger.
    let server = match &metrics_addr {
        Some(addr) => Some(scrape_ledger(addr)?),
        None => None,
    };
    if let Some(s) = &server {
        say!(
            "server ledger: {} admitted, {} shed, {} ingress records, {} dropped events, \
             {} rejects, {} orphan events",
            s.admitted,
            s.shed,
            s.ingress_records,
            s.dropped_events,
            s.rejects,
            s.orphan_events
        );
    }

    // Persist the line before gating: a failed gate still leaves the
    // evidence on disk.
    let line = IngressBenchLine {
        bench: "ingress",
        quick,
        devices,
        scans_per_device: scans,
        total_records,
        credit_window,
        elapsed_seconds: elapsed,
        records_per_sec: total_records as f64 / elapsed.max(1e-9),
        accept_acks,
        queued_acks,
        client_sheds,
        client_decisions,
        client_alerts,
        decision_accuracy,
        p50_ms,
        p99_ms,
        max_ms,
        p99_budget_ms,
        scraped: server.is_some(),
        server_admitted: server.as_ref().map(|s| s.admitted).unwrap_or(0.0),
        server_sheds: server.as_ref().map(|s| s.shed).unwrap_or(0.0),
        server_ingress_records: server.as_ref().map(|s| s.ingress_records).unwrap_or(0.0),
        server_dropped_events: server.as_ref().map(|s| s.dropped_events).unwrap_or(0.0),
        server_rejects: server.as_ref().map(|s| s.rejects).unwrap_or(0.0),
        server_orphan_events: server.as_ref().map(|s| s.orphan_events).unwrap_or(0.0),
    };
    let json = serde_json::to_string(&line).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&bench_out)
        .map_err(|e| format!("opening {bench_out}: {e}"))?;
    writeln!(file, "{json}").map_err(|e| format!("writing {bench_out}: {e}"))?;
    say!("appended bench line to {bench_out}");

    // The SLO gate. A credit-honoring client must see zero sheds, one
    // decision per record, and books that agree with the server's.
    let mut violations: Vec<String> = Vec::new();
    if client_sheds > 0 {
        violations.push(format!("{client_sheds} records shed (flow control must prevent sheds)"));
    }
    if client_decisions != (total_records as u64).saturating_sub(client_sheds) {
        violations.push(format!(
            "{client_decisions} decisions for {total_records} records ({client_sheds} shed)"
        ));
    }
    if p99_ms > p99_budget_ms {
        violations.push(format!("p99 {p99_ms:.2} ms exceeds budget {p99_budget_ms:.0} ms"));
    }
    if let Some(s) = &server {
        if s.admitted != client_decisions as f64 {
            violations.push(format!(
                "server admitted {} but client saw {} decisions",
                s.admitted, client_decisions
            ));
        }
        if s.ingress_records != total_records as f64 {
            violations.push(format!(
                "server ingress saw {} records but client sent {}",
                s.ingress_records, total_records
            ));
        }
        if s.dropped_events != 0.0 {
            violations.push(format!("server dropped {} events", s.dropped_events));
        }
        if s.rejects != 0.0 {
            violations.push(format!("server rejected {} connections", s.rejects));
        }
    }
    if !violations.is_empty() {
        return Err(format!("SLO gate failed: {}", violations.join("; ")));
    }
    say!("SLO gate PASS");
    Ok(())
}

/// One device's closed loop: stream the day's scans, never more than
/// one credit window unresolved, matching ACKs and DECISIONs back to
/// records by the protocol's per-premises FIFO order.
fn run_device(
    connect: &str,
    premises_id: u64,
    day: &[LabeledRecord],
    connect_timeout: Duration,
    pace: Duration,
    trace: bool,
) -> Result<DeviceReport, String> {
    // Deterministic per-device trace ids: re-running the same workload
    // mints the same ids, so captures from two runs line up.
    let span_ids = trace.then(|| SpanIdGen::with_seed(premises_id));
    let ctx = |what: &str, e: &dyn std::fmt::Display| format!("device {premises_id}: {what}: {e}");
    let sock = connect_retry(connect, connect_timeout)
        .map_err(|e| ctx(&format!("connecting to {connect}"), &e))?;
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(10)));
    let mut writer = sock.try_clone().map_err(|e| ctx("cloning socket", &e))?;
    let mut reader = BufReader::new(sock);
    let mut rbuf = Vec::new();
    let mut wbuf = Vec::new();

    let credits = match wire::read_frame(&mut reader, wire::MAX_FRAME_LEN, &mut rbuf) {
        Ok(Some(Frame::Hello { version, credits })) => {
            if version != wire::WIRE_VERSION {
                return Err(format!(
                    "device {premises_id}: server speaks wire v{version}, client v{}",
                    wire::WIRE_VERSION
                ));
            }
            credits
        }
        Ok(other) => return Err(format!("device {premises_id}: expected HELLO, got {other:?}")),
        Err(e) => return Err(ctx("reading HELLO", &e)),
    };
    let window = credits.max(1) as usize;

    let total = day.len();
    let mut report = DeviceReport {
        credits,
        latencies_ns: Vec::with_capacity(total),
        accept_acks: 0,
        queued_acks: 0,
        sheds: 0,
        decisions: 0,
        correct: 0,
        alerts: 0,
    };
    let mut sent_at: Vec<Instant> = Vec::with_capacity(total);
    let mut was_shed = vec![false; total];
    let mut sent = 0usize; // records written to the socket
    let mut acked = 0usize; // admission verdicts received (FIFO)
    let mut decided = 0usize; // decisions received
    let mut shed = 0usize; // records resolved by a shed ACK
    let mut next_decision = 0usize; // next record still owed a DECISION

    while decided + shed < total {
        // Refill the window: keep at most `window` records unresolved
        // (sent but neither decided nor shed).
        while sent < total && sent - decided - shed < window {
            let trace = span_ids
                .as_ref()
                .map(|gen| WireTrace { trace_id: gen.next_id(), parent_span: gen.next_id() });
            let frame = Frame::Record { premises_id, record: day[sent].record.clone(), trace };
            wire::write_frame(&mut writer, &frame, &mut wbuf)
                .map_err(|e| ctx(&format!("sending record {sent}"), &e))?;
            sent_at.push(Instant::now());
            sent += 1;
            if !pace.is_zero() {
                std::thread::sleep(pace);
            }
        }
        match wire::read_frame(&mut reader, wire::MAX_FRAME_LEN, &mut rbuf) {
            Ok(Some(Frame::Ack { verdict, .. })) => {
                if acked >= sent {
                    return Err(format!("device {premises_id}: ACK for a record never sent"));
                }
                match verdict {
                    WireVerdict::Accept => report.accept_acks += 1,
                    WireVerdict::Queued { .. } => report.queued_acks += 1,
                    WireVerdict::Shed(reason) => {
                        // Permanent refusals would just repeat forever.
                        if matches!(reason, WireShedReason::UnknownPremises | WireShedReason::Busy)
                        {
                            return Err(format!(
                                "device {premises_id}: permanently refused ({reason:?}) — \
                                 does the server host premises {premises_id}?"
                            ));
                        }
                        report.sheds += 1;
                        was_shed[acked] = true;
                        shed += 1;
                    }
                }
                acked += 1;
            }
            Ok(Some(Frame::Decision { inside, .. })) => {
                // Decisions arrive in per-premises FIFO order, skipping
                // shed records (they never reach a shard).
                while next_decision < total && was_shed[next_decision] {
                    next_decision += 1;
                }
                if next_decision >= sent {
                    return Err(format!("device {premises_id}: DECISION for a record never sent"));
                }
                let elapsed = sent_at[next_decision].elapsed();
                report.latencies_ns.push(elapsed.as_nanos().min(u64::MAX as u128) as u64);
                if inside == day[next_decision].label.is_in() {
                    report.correct += 1;
                }
                next_decision += 1;
                decided += 1;
                report.decisions += 1;
            }
            Ok(Some(Frame::Alert { .. })) => report.alerts += 1,
            Ok(Some(other)) => {
                return Err(format!("device {premises_id}: unexpected frame {other:?}"))
            }
            Ok(None) => {
                return Err(format!(
                    "device {premises_id}: server closed with {} records unresolved",
                    total - decided - shed
                ))
            }
            Err(e) => return Err(ctx("reading reply", &e)),
        }
    }
    Ok(report)
}

/// Connects with retry until `timeout`: in CI the server races the
/// client to the socket, and losing that race shouldn't fail the run.
fn connect_retry(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// Scrapes `http://addr/metrics` and sums the counters the gate needs.
fn scrape_ledger(addr: &str) -> Result<ServerLedger, String> {
    let text = http_get(addr, "/metrics").map_err(|e| format!("scraping {addr}: {e}"))?;
    let admitted = prom_sum(&text, "gem_fleet_admission_total", &[("verdict", "accept")])
        + prom_sum(&text, "gem_fleet_admission_total", &[("verdict", "queued")]);
    let shed = prom_sum(&text, "gem_fleet_admission_total", &[("verdict", "shed")])
        + prom_sum(&text, "gem_fleet_admission_total", &[("verdict", "unknown")]);
    Ok(ServerLedger {
        admitted,
        shed,
        ingress_records: prom_sum(&text, "gem_ingress_frames_total", &[("kind", "record")]),
        dropped_events: prom_sum(&text, "gem_shard_dropped_events_total", &[]),
        rejects: prom_sum(&text, "gem_ingress_rejects_total", &[]),
        orphan_events: prom_sum(&text, "gem_ingress_orphan_events_total", &[]),
    })
}

/// One-shot HTTP GET against the metrics server (no HTTP client in the
/// allowed crate set; the server speaks one-request-per-connection).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::other("malformed HTTP response"));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!("unexpected status {status:?}")));
    }
    Ok(body.to_string())
}

/// Sums every sample of `name` whose label set contains all `filters`
/// pairs, over Prometheus text-format `text`.
fn prom_sum(text: &str, name: &str, filters: &[(&str, &str)]) -> f64 {
    let mut sum = 0.0;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else { continue };
        let (labels, value) = match rest.strip_prefix('{') {
            Some(tail) => {
                let Some((labels, value)) = tail.split_once('}') else { continue };
                (labels, value)
            }
            None => {
                // Bare `name value` — only a match with no label part.
                if !rest.starts_with(' ') {
                    continue;
                }
                ("", rest)
            }
        };
        if !filters.iter().all(|(k, v)| labels.contains(&format!("{k}=\"{v}\""))) {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            sum += v;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP gem_fleet_admission_total admissions\n\
# TYPE gem_fleet_admission_total counter\n\
gem_fleet_admission_total{shard=\"0\",verdict=\"accept\"} 10\n\
gem_fleet_admission_total{shard=\"1\",verdict=\"accept\"} 5\n\
gem_fleet_admission_total{shard=\"0\",verdict=\"shed\"} 2\n\
gem_fleet_admission_totals{shard=\"0\",verdict=\"accept\"} 99\n\
gem_ingress_orphan_events_total 3\n";

    #[test]
    fn prom_sum_filters_and_sums() {
        assert_eq!(prom_sum(TEXT, "gem_fleet_admission_total", &[("verdict", "accept")]), 15.0);
        assert_eq!(prom_sum(TEXT, "gem_fleet_admission_total", &[("verdict", "shed")]), 2.0);
        assert_eq!(prom_sum(TEXT, "gem_fleet_admission_total", &[("verdict", "queued")]), 0.0);
    }

    #[test]
    fn prom_sum_handles_bare_and_prefix_names() {
        assert_eq!(prom_sum(TEXT, "gem_ingress_orphan_events_total", &[]), 3.0);
        // A name that is a prefix of another must not absorb its lines.
        assert_eq!(prom_sum(TEXT, "gem_fleet_admission_total", &[]), 17.0);
    }

    #[test]
    fn percentile_is_rank_based() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ms(&ns, 0.50), 50.0);
        assert_eq!(percentile_ms(&ns, 0.99), 99.0);
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
        assert_eq!(percentile_ms(&[5_000_000], 0.99), 5.0);
    }
}
