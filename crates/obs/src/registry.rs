//! The labelled metric registry and its two exposition formats.
//!
//! Registration (`counter`/`gauge`/`histogram`) is get-or-create keyed
//! on `(name, sorted labels)` and hands back an `Arc` to the shared
//! metric: callers register once at spawn time and then touch only the
//! atomic on the hot path — the registry lock is never taken again
//! until a scrape.
//!
//! Conventions (enforced where cheap, documented otherwise):
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*` and are
//!   `gem_<subsystem>_<noun>_<unit|total>`;
//! * histograms record **nanoseconds** and their names end in
//!   `_seconds`; the Prometheus exposition divides by 1e9 so `le`
//!   bounds and `_sum` are seconds, while the JSON dump stays in raw
//!   nanoseconds (`*_ns` fields);
//! * label values must come from bounded sets (shard indices,
//!   registered premises ids, fixed verdict names) — never timestamps,
//!   record ids or other unbounded streams.

use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};

/// A point-in-time value of one registered metric (introspection API).
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram snapshot. Boxed so the enum stays small for the
    /// counter/gauge majority.
    Histogram(Box<HistogramSnapshot>),
}

/// Point-in-time state of one histogram: counts plus the observed
/// extremes that seed the interpolated quantile estimator.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`None` while empty).
    pub min: Option<u64>,
    /// Largest recorded value (`None` while empty).
    pub max: Option<u64>,
    /// Per-bucket counts, index-aligned with `Histogram::bucket_upper`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Per-bucket exemplar trace ids (0 = none), index-aligned with
    /// `buckets`: the last sampled request to land in each bucket.
    pub exemplars: [u64; HISTOGRAM_BUCKETS],
}

/// One [`Registry::snapshot`] row: `(name, sorted labels, value)`.
pub type MetricSample = (String, Vec<(String, String)>, MetricValue);

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A registry of named, labelled metrics. Cheap to share (`Arc`);
/// scrapes and registrations serialize on one mutex, hot-path updates
/// never touch it.
#[derive(Default)]
pub struct Registry {
    /// Static labels stamped onto every registered metric (e.g. a fleet
    /// or deployment id), in addition to the per-registration labels.
    base: Vec<(String, String)>,
    entries: Mutex<Vec<Entry>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry whose every metric carries `base` static labels in
    /// addition to its per-registration labels.
    pub fn with_base_labels(base: &[(&str, &str)]) -> Registry {
        for (k, _) in base {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        Registry { base: sorted_labels(base), entries: Mutex::new(Vec::new()) }
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Metric),
    ) -> Arc<T> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let mut labels = sorted_labels(labels);
        labels.extend(self.base.iter().cloned());
        labels.sort();
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name && e.labels == labels) {
            return wrap(&e.metric).unwrap_or_else(|| {
                panic!("metric {name:?} already registered as a {}", e.metric.kind())
            });
        }
        let (arc, metric) = make();
        let at = entries
            .binary_search_by(|e| (e.name.as_str(), &e.labels).cmp(&(name, &labels)))
            .unwrap_err();
        entries.insert(at, Entry { name: name.to_string(), labels, metric });
        arc
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// Gets or registers a histogram (nanosecond-valued; see the module
    /// docs for the exposition convention).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (Arc::clone(&h), Metric::Histogram(h))
            },
        )
    }

    /// Point-in-time values of every registered metric, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries
            .iter()
            .map(|e| {
                let value = match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        buckets: h.bucket_counts(),
                        exemplars: h.bucket_exemplars(),
                    })),
                };
                (e.name.clone(), e.labels.clone(), value)
            })
            .collect()
    }

    /// Renders the Prometheus text exposition (format version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::with_capacity(4096);
        let mut last_name = "";
        for (name, labels, value) in &snapshot {
            if name != last_name {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(..) => "histogram",
                };
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_name = name;
            }
            match value {
                MetricValue::Counter(v) => {
                    write_series(&mut out, name, labels, &[]);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    write_series(&mut out, name, labels, &[]);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            format!("{:e}", Histogram::bucket_upper(i) as f64 / 1e9)
                        };
                        write_series(&mut out, &format!("{name}_bucket"), labels, &[("le", &le)]);
                        out.push_str(&format!(" {cumulative}\n"));
                    }
                    write_series(&mut out, &format!("{name}_bucket"), labels, &[("le", "+Inf")]);
                    out.push_str(&format!(" {}\n", h.count));
                    write_series(&mut out, &format!("{name}_sum"), labels, &[]);
                    out.push_str(&format!(" {:e}\n", h.sum as f64 / 1e9));
                    write_series(&mut out, &format!("{name}_count"), labels, &[]);
                    out.push_str(&format!(" {}\n", h.count));
                }
            }
        }
        out
    }

    /// Renders the JSON dump: `{"counters": [...], "gauges": [...],
    /// "histograms": [...]}` with raw nanosecond histogram fields and
    /// derived `p50_ns`/`p99_ns`/`p999_ns` convenience quantiles.
    pub fn render_json(&self) -> String {
        let snapshot = self.snapshot();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, labels, value) in &snapshot {
            match value {
                MetricValue::Counter(v) => {
                    push_sep(&mut counters);
                    counters.push_str(&format!(
                        "{{\"name\":{},\"labels\":{},\"value\":{v}}}",
                        json_string(name),
                        json_labels(labels)
                    ));
                }
                MetricValue::Gauge(v) => {
                    push_sep(&mut gauges);
                    gauges.push_str(&format!(
                        "{{\"name\":{},\"labels\":{},\"value\":{v}}}",
                        json_string(name),
                        json_labels(labels)
                    ));
                }
                MetricValue::Histogram(h) => {
                    push_sep(&mut histograms);
                    let mut parts = String::new();
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        push_sep(&mut parts);
                        parts.push_str(&format!(
                            "{{\"lo_ns\":{},\"hi_ns\":{},\"count\":{c}",
                            Histogram::bucket_lower(i),
                            Histogram::bucket_upper(i)
                        ));
                        // The bucket's exemplar, when a sampled request
                        // landed here: the trace id to look up in the
                        // span dump.
                        if h.exemplars[i] != 0 {
                            parts.push_str(&format!(",\"exemplar\":\"{:016x}\"", h.exemplars[i]));
                        }
                        parts.push('}');
                    }
                    // Quantiles and extremes only exist once something
                    // was recorded: an empty series must not publish
                    // fake zeros for dashboards to ingest.
                    let derived = if h.count == 0 {
                        String::new()
                    } else {
                        let q = |p: f64| quantile_of(h, p);
                        format!(
                            "\"min_ns\":{},\"max_ns\":{},\
                             \"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},",
                            h.min.unwrap_or(0),
                            h.max.unwrap_or(0),
                            q(0.50),
                            q(0.99),
                            q(0.999),
                        )
                    };
                    histograms.push_str(&format!(
                        "{{\"name\":{},\"labels\":{},\"count\":{},\"sum_ns\":{},\
                         {derived}\"buckets\":[{parts}]}}",
                        json_string(name),
                        json_labels(labels),
                        h.count,
                        h.sum,
                    ));
                }
            }
        }
        format!("{{\"counters\":[{counters}],\"gauges\":[{gauges}],\"histograms\":[{histograms}]}}")
    }
}

/// Bucket-derived quantile of a histogram snapshot, seeded with the
/// observed min/max (same estimator as
/// [`Histogram::quantile_interpolated`], rounded to whole nanoseconds).
fn quantile_of(h: &HistogramSnapshot, q: f64) -> u64 {
    crate::metrics::interpolate_quantile_seeded(&h.buckets, q, h.min, h.max)
        .map(|v| v.round() as u64)
        .unwrap_or(0)
}

fn push_sep(s: &mut String) {
    if !s.is_empty() {
        s.push(',');
    }
}

/// `name{k="v",...}` with Prometheus label-value escaping; `extra`
/// pairs (e.g. `le`) are appended after the registered labels.
fn write_series(out: &mut String, name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) {
    out.push_str(name);
    if labels.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// Minimal JSON string quoting (control characters escaped numerically).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&json_string(v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_dedupes_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("gem_test_total", &[("shard", "0")]);
        let b = r.counter("gem_test_total", &[("shard", "0")]);
        let c = r.counter("gem_test_total", &[("shard", "1")]);
        a.inc();
        assert_eq!(b.get(), 1, "same name+labels must alias");
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("gem_test_total", &[]);
        r.gauge("gem_test_total", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("0bad name", &[]);
    }

    #[test]
    fn base_labels_are_stamped_on_every_metric() {
        let r = Registry::with_base_labels(&[("fleet", "f1")]);
        r.counter("gem_x_total", &[("shard", "0")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("gem_x_total{fleet=\"f1\",shard=\"0\"} 1"), "{text}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("gem_x_total", &[("shard", "1")]).add(3);
        r.gauge("gem_depth", &[]).set(-2);
        let h = r.histogram("gem_lat_seconds", &[]);
        h.record(100);
        h.record(1_000_000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE gem_x_total counter"), "{text}");
        assert!(text.contains("gem_x_total{shard=\"1\"} 3"), "{text}");
        assert!(text.contains("gem_depth -2"), "{text}");
        assert!(text.contains("# TYPE gem_lat_seconds histogram"), "{text}");
        assert!(text.contains("gem_lat_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("gem_lat_seconds_count 2"), "{text}");
    }

    #[test]
    fn json_dump_has_quantiles() {
        let r = Registry::new();
        let h = r.histogram("gem_lat_seconds", &[("shard", "0")]);
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let json = r.render_json();
        // Interpolated quantiles must land inside their buckets, clamped
        // to the observed extremes (min 1_000, max 1_000_000).
        let counts = h.bucket_counts();
        let p50 = crate::metrics::interpolate_quantile_seeded(&counts, 0.50, h.min(), h.max())
            .unwrap()
            .round() as u64;
        let p99 = crate::metrics::interpolate_quantile_seeded(&counts, 0.99, h.min(), h.max())
            .unwrap()
            .round() as u64;
        assert!((1_000..=1_023).contains(&p50), "p50 {p50} outside [observed min, bucket hi]");
        assert!(
            (524_288..=1_000_000).contains(&p99),
            "p99 {p99} outside [bucket lo, observed max]"
        );
        assert!(json.contains(&format!("\"p50_ns\":{p50}")), "{json}");
        assert!(json.contains(&format!("\"p99_ns\":{p99}")), "{json}");
        assert!(json.contains("\"min_ns\":1000"), "{json}");
        assert!(json.contains("\"max_ns\":1000000"), "{json}");
    }

    #[test]
    fn zero_count_histograms_omit_quantile_fields() {
        let r = Registry::new();
        r.histogram("gem_idle_seconds", &[("shard", "1")]);
        let json = r.render_json();
        assert!(json.contains("\"name\":\"gem_idle_seconds\""), "{json}");
        assert!(json.contains("\"count\":0"), "{json}");
        for field in ["min_ns", "max_ns", "p50_ns", "p99_ns", "p999_ns"] {
            assert!(!json.contains(field), "empty series must omit {field}: {json}");
        }
        // A non-empty series still carries all of them.
        r.histogram("gem_idle_seconds", &[("shard", "1")]).record(5);
        let json = r.render_json();
        for field in ["min_ns", "max_ns", "p50_ns", "p99_ns", "p999_ns"] {
            assert!(json.contains(field), "non-empty series must emit {field}: {json}");
        }
    }

    #[test]
    fn bucket_exemplars_appear_in_json() {
        let r = Registry::new();
        let h = r.histogram("gem_lat_seconds", &[]);
        h.record_with_exemplar(1_000, 0xDEAD_BEEF);
        h.record(1_000_000); // unsampled: bucket present, no exemplar
        let json = r.render_json();
        assert!(json.contains("\"exemplar\":\"00000000deadbeef\""), "{json}");
        let buckets = json.split("\"buckets\":[").nth(1).unwrap();
        assert_eq!(buckets.matches("exemplar").count(), 1, "{json}");
    }
}
