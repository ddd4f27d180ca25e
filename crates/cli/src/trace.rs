//! `gem trace` — per-stage tail-latency attribution from span dumps.
//!
//! Ingests the JSONL emitted by a live fleet's `/trace.jsonl` endpoint
//! (or `gem fleet --trace-dir`): every retained record produces one
//! `span` event carrying its stage durations (ingress → queue →
//! hydrate → journal → infer), and — when the record arrived over the
//! network — a `span_ack` event for the reply write, joined here by
//! trace id. The report answers the question metrics alone cannot:
//! *which stage* made the slow requests slow.
//!
//! Output: per-stage p50/p99 plus each stage's share of total time
//! across all spans, then the critical path of the N slowest records
//! (`--slowest`, default 5) with their individual stage breakdowns.
//! `--min-coverage F` turns the report into a gate: if the named
//! stages explain less than fraction `F` of the mean end-to-end time,
//! the process exits nonzero — CI uses this to prove the attribution
//! stays honest as stages are added or reshaped.

use std::cmp::Reverse;
use std::collections::HashMap;

use serde_json::Value;

use crate::args::Args;

/// The pipeline stages a span attributes, in pipeline order. `ack` is
/// joined from the separate `span_ack` event and sits outside the
/// span's own end-to-end window (the reply write happens after the
/// decision is measured), so coverage is computed over the first six.
const STAGES: [&str; 6] = ["ingress", "queue", "hydrate", "journal", "infer", "emit"];

/// One record's reconstructed trace.
#[derive(Debug)]
struct Span {
    trace: String,
    premises: u64,
    shard: u64,
    sampled: String,
    /// Stage durations, `STAGES` order, nanoseconds.
    stages: [u64; 6],
    e2e_ns: u64,
    /// Reply-write duration from the joined `span_ack`, if any.
    ack_ns: Option<u64>,
}

impl Span {
    /// Fraction of the end-to-end time the named stages explain.
    fn coverage(&self) -> f64 {
        if self.e2e_ns == 0 {
            return 1.0;
        }
        let sum: u64 = self.stages.iter().sum();
        (sum as f64 / self.e2e_ns as f64).min(1.0)
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let inputs = args.values_list("input").ok_or("missing required option --input")?;
    if inputs.is_empty() {
        return Err("--input lists no files".into());
    }
    let slowest = args.get_parsed::<usize>("slowest")?.unwrap_or(5);
    let min_coverage = args.get_parsed::<f64>("min-coverage")?;
    if let Some(f) = min_coverage {
        if !(0.0..=1.0).contains(&f) {
            return Err("--min-coverage must be within 0..1".into());
        }
    }

    let mut lines = 0usize;
    let mut spans: Vec<Span> = Vec::new();
    let mut acks: HashMap<String, u64> = HashMap::new();
    for path in &inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            lines += 1;
            let value: Value = serde_json::from_str(line)
                .map_err(|e| format!("{path}:{}: not JSON: {e}", lineno + 1))?;
            match field(&value, "kind").and_then(Value::as_str) {
                Some("span") => spans
                    .push(parse_span(&value).map_err(|e| {
                        format!("{path}:{}: malformed span event: {e}", lineno + 1)
                    })?),
                Some("span_ack") => {
                    let (trace, ns) = parse_ack(&value).map_err(|e| {
                        format!("{path}:{}: malformed span_ack event: {e}", lineno + 1)
                    })?;
                    acks.insert(trace, ns);
                }
                // Rings carry operational events too (epoch, hydrate,
                // journal_append, ...); attribution only needs spans.
                _ => {}
            }
        }
    }
    if spans.is_empty() {
        return Err(format!(
            "no span events in {} lines across {} file(s) — was the fleet run with \
             --trace-sample > 0 (or slow enough to trip the tail threshold)?",
            lines,
            inputs.len()
        ));
    }
    let mut joined = 0usize;
    for span in &mut spans {
        if let Some(ns) = acks.get(&span.trace) {
            span.ack_ns = Some(*ns);
            joined += 1;
        }
    }
    say!(
        "{} span(s) from {} file(s) ({} lines), {} joined with a reply write",
        spans.len(),
        inputs.len(),
        lines,
        joined
    );

    // Per-stage distribution and share of the fleet's total time.
    let total_e2e: u64 = spans.iter().map(|s| s.e2e_ns).sum();
    say!("");
    say!("stage        p50          p99          total share");
    for (i, stage) in STAGES.iter().enumerate() {
        let mut ns: Vec<u64> = spans.iter().map(|s| s.stages[i]).collect();
        ns.sort_unstable();
        let total: u64 = ns.iter().sum();
        let share = if total_e2e > 0 { total as f64 / total_e2e as f64 * 100.0 } else { 0.0 };
        say!(
            "{:<10} {:>12} {:>12} {:>11.1}%",
            stage,
            fmt_ns(percentile(&ns, 0.50)),
            fmt_ns(percentile(&ns, 0.99)),
            share
        );
    }
    {
        let mut ack: Vec<u64> = spans.iter().filter_map(|s| s.ack_ns).collect();
        ack.sort_unstable();
        if !ack.is_empty() {
            say!(
                "{:<10} {:>12} {:>12}   (outside e2e)",
                "ack",
                fmt_ns(percentile(&ack, 0.50)),
                fmt_ns(percentile(&ack, 0.99))
            );
        }
    }

    let mean_coverage = spans.iter().map(Span::coverage).sum::<f64>() / spans.len() as f64;
    let min_seen = spans.iter().map(Span::coverage).fold(f64::INFINITY, f64::min);
    say!("");
    say!(
        "stage coverage of end-to-end time: mean {:.1}%, min {:.1}%",
        mean_coverage * 100.0,
        min_seen * 100.0
    );

    // The critical path: the slowest records, each decomposed.
    spans.sort_by_key(|s| Reverse(s.e2e_ns));
    let n = slowest.min(spans.len());
    if n > 0 {
        say!("");
        say!("critical path — {n} slowest record(s):");
        for span in &spans[..n] {
            let breakdown: Vec<String> = {
                // Dominant stage first: the reader's eye lands on the
                // answer, not on pipeline order.
                let mut idx: Vec<usize> = (0..STAGES.len()).collect();
                idx.sort_by(|&a, &b| span.stages[b].cmp(&span.stages[a]));
                idx.iter()
                    .filter(|&&i| span.stages[i] > 0)
                    .map(|&i| {
                        let pct = span.stages[i] as f64 / span.e2e_ns.max(1) as f64 * 100.0;
                        format!("{} {} ({:.0}%)", STAGES[i], fmt_ns(span.stages[i]), pct)
                    })
                    .collect()
            };
            let ack = match span.ack_ns {
                Some(ns) => format!(", +ack {}", fmt_ns(ns)),
                None => String::new(),
            };
            say!(
                "  trace {}  premises {} shard {} [{}]  e2e {}: {}{}",
                span.trace,
                span.premises,
                span.shard,
                span.sampled,
                fmt_ns(span.e2e_ns),
                if breakdown.is_empty() {
                    "all stages < 1ns".to_string()
                } else {
                    breakdown.join(", ")
                },
                ack
            );
        }
    }

    if let Some(min) = min_coverage {
        if mean_coverage < min {
            return Err(format!(
                "stage attribution covers {:.1}% of mean end-to-end time, below the \
                 --min-coverage gate of {:.1}%",
                mean_coverage * 100.0,
                min * 100.0
            ));
        }
        say!("coverage gate PASS ({:.1}% >= {:.1}%)", mean_coverage * 100.0, min * 100.0);
    }
    Ok(())
}

/// Object-field lookup on a parsed JSON value.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key).and_then(Value::as_u64).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field(value: &Value, key: &str) -> Result<String, String> {
    Ok(field(value, key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .to_string())
}

fn parse_span(value: &Value) -> Result<Span, String> {
    let mut stages = [0u64; 6];
    for (i, stage) in STAGES.iter().enumerate() {
        // Field names are `<stage>_ns`.
        stages[i] = match *stage {
            "ingress" => u64_field(value, "ingress_ns")?,
            "queue" => u64_field(value, "queue_ns")?,
            "hydrate" => u64_field(value, "hydrate_ns")?,
            "journal" => u64_field(value, "journal_ns")?,
            "infer" => u64_field(value, "infer_ns")?,
            _ => u64_field(value, "emit_ns")?,
        };
    }
    Ok(Span {
        trace: str_field(value, "trace")?,
        premises: u64_field(value, "premises")?,
        shard: u64_field(value, "shard")?,
        sampled: str_field(value, "sampled")?,
        stages,
        e2e_ns: u64_field(value, "e2e_ns")?,
        ack_ns: None,
    })
}

fn parse_ack(value: &Value) -> Result<(String, u64), String> {
    Ok((str_field(value, "trace")?, u64_field(value, "ack_ns")?))
}

/// Rank-based percentile over an ascending-sorted slice.
fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1]
}

/// Human-scaled nanoseconds: `842 ns`, `13.4 µs`, `2.31 ms`, `1.07 s`.
fn fmt_ns(ns: u64) -> String {
    let f = ns as f64;
    if f < 1e3 {
        format!("{ns} ns")
    } else if f < 1e6 {
        format!("{:.1} µs", f / 1e3)
    } else if f < 1e9 {
        format!("{:.2} ms", f / 1e6)
    } else {
        format!("{:.2} s", f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(trace: &str, e2e: u64, stages: [u64; 6]) -> String {
        format!(
            "{{\"seq\":1,\"ts_ms\":0,\"kind\":\"span\",\"trace\":\"{trace}\",\"premises\":3,\
             \"shard\":1,\"epoch\":2,\"sampled\":\"head\",\"ingress_ns\":{},\"queue_ns\":{},\
             \"hydrate_ns\":{},\"journal_ns\":{},\"infer_ns\":{},\"emit_ns\":{},\"e2e_ns\":{e2e}}}",
            stages[0], stages[1], stages[2], stages[3], stages[4], stages[5]
        )
    }

    #[test]
    fn spans_parse_with_full_attribution() {
        let value: Value =
            serde_json::from_str(&span_line("00000000000000ab", 1000, [100, 200, 0, 400, 200, 50]))
                .unwrap();
        let span = parse_span(&value).unwrap();
        assert_eq!(span.trace, "00000000000000ab");
        assert_eq!(span.stages, [100, 200, 0, 400, 200, 50]);
        assert_eq!(span.e2e_ns, 1000);
        assert!((span.coverage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn acks_join_by_trace_id() {
        let value: Value = serde_json::from_str(
            "{\"seq\":2,\"ts_ms\":0,\"kind\":\"span_ack\",\"trace\":\"00000000000000ab\",\
             \"premises\":3,\"ack_ns\":77}",
        )
        .unwrap();
        assert_eq!(parse_ack(&value).unwrap(), ("00000000000000ab".to_string(), 77));
    }

    #[test]
    fn malformed_spans_are_rejected_with_the_missing_field() {
        let value: Value =
            serde_json::from_str("{\"kind\":\"span\",\"trace\":\"ab\",\"premises\":1}").unwrap();
        let err = parse_span(&value).unwrap_err();
        assert!(err.contains("ingress_ns"), "{err}");
    }

    #[test]
    fn coverage_saturates_and_tolerates_zero_e2e() {
        let full = Span {
            trace: String::new(),
            premises: 0,
            shard: 0,
            sampled: "head".into(),
            stages: [10, 10, 10, 10, 10, 10],
            e2e_ns: 40, // stage sum exceeds e2e (clock skew): clamp to 1
            ack_ns: None,
        };
        assert_eq!(full.coverage(), 1.0);
        let empty = Span { e2e_ns: 0, stages: [0; 6], ..full };
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn percentiles_and_formatting() {
        let ns: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&ns, 0.50), 50);
        assert_eq!(percentile(&ns, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(fmt_ns(842), "842 ns");
        assert_eq!(fmt_ns(13_400), "13.4 µs");
        assert_eq!(fmt_ns(2_310_000), "2.31 ms");
        assert_eq!(fmt_ns(1_070_000_000), "1.07 s");
    }
}
