//! A minimal, dependency-free `/metrics` HTTP endpoint.
//!
//! One accept-loop thread on a [`std::net::TcpListener`], one request
//! per connection (`Connection: close`). This is a scrape target, not a
//! web server: it understands exactly `GET /metrics` (Prometheus text),
//! `GET /metrics.json` (the registry's JSON dump) and — when the server
//! was bound with trace rings — `GET /trace.jsonl` (drains the retained
//! span events as JSONL), and answers 404 to everything else.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::Registry;
use crate::trace::TraceRing;

/// A background `/metrics` server. Dropping it shuts the accept loop
/// down (a self-connect wakes the blocked `accept`).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9next"` or `"127.0.0.1:0"` for an
    /// ephemeral port) and starts serving `registry` on a background
    /// thread. `/trace.jsonl` answers 404; use
    /// [`MetricsServer::bind_with_traces`] to serve span dumps too.
    pub fn bind(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
        Self::bind_with_traces(addr, registry, Vec::new())
    }

    /// Like [`MetricsServer::bind`], but additionally serves
    /// `GET /trace.jsonl`: every ring in `traces` is drained (a
    /// destructive read — each span is delivered to exactly one
    /// collector) and the events are returned as JSONL.
    pub fn bind_with_traces(
        addr: &str,
        registry: Arc<Registry>,
        traces: Vec<Arc<TraceRing>>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle =
            std::thread::Builder::new().name("gem-obs-metrics".to_string()).spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    let Ok((stream, _)) = listener.accept() else { continue };
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    // A stuck scraper must not wedge the loop.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = serve_one(stream, &registry, &traces);
                }
            })?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocked accept() so the thread observes `stop`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(
    stream: TcpStream,
    registry: &Registry,
    traces: &[Arc<TraceRing>],
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render_prometheus())
            }
            "/metrics.json" => ("200 OK", "application/json", registry.render_json()),
            "/trace.jsonl" if !traces.is_empty() => {
                let mut body = String::new();
                for ring in traces {
                    for event in ring.drain() {
                        body.push_str(&event.to_json());
                        body.push('\n');
                    }
                }
                ("200 OK", "application/x-ndjson", body)
            }
            _ => ("404 Not Found", "text/plain", "try /metrics or /metrics.json\n".to_string()),
        }
    };
    let mut stream = reader.into_inner();
    stream.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_both_expositions_and_404s() {
        let registry = Arc::new(Registry::new());
        registry.counter("gem_test_total", &[]).add(7);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        let text = get(addr, "/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("gem_test_total 7"), "{text}");

        let json = get(addr, "/metrics.json");
        assert!(json.contains("application/json"), "{json}");
        assert!(json.contains("\"gem_test_total\""), "{json}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // Without trace rings, the span endpoint does not exist.
        let no_traces = get(addr, "/trace.jsonl");
        assert!(no_traces.starts_with("HTTP/1.1 404"), "{no_traces}");

        drop(server); // must join cleanly, not hang
    }

    #[test]
    fn trace_endpoint_drains_all_rings() {
        use crate::trace::{TraceEvent, TraceRing};
        let registry = Arc::new(Registry::new());
        let rings = vec![Arc::new(TraceRing::new(8)), Arc::new(TraceRing::new(8))];
        rings[0].push(TraceEvent::new("span").with("stage", "a"));
        rings[1].push(TraceEvent::new("span").with("stage", "b"));
        let server =
            MetricsServer::bind_with_traces("127.0.0.1:0", Arc::clone(&registry), rings.clone())
                .unwrap();
        let body = get(server.local_addr(), "/trace.jsonl");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("application/x-ndjson"), "{body}");
        assert!(body.contains("\"stage\":\"a\""), "{body}");
        assert!(body.contains("\"stage\":\"b\""), "{body}");
        // The drain is destructive: a second pull is empty, and the
        // rings no longer hold the events.
        let again = get(server.local_addr(), "/trace.jsonl");
        assert!(!again.contains("\"stage\""), "{again}");
        assert!(rings.iter().all(|r| r.is_empty()));
    }

    /// Simultaneous `/metrics` + `/trace.jsonl` scrapes while a
    /// recording thread hammers the registry and the ring: every
    /// response must arrive complete and parseable — no torn bodies, no
    /// deadlock between scrapers and recorders.
    #[test]
    fn concurrent_scrapes_return_complete_bodies() {
        use crate::trace::{TraceEvent, TraceRing};
        use std::sync::atomic::AtomicBool;

        let registry = Arc::new(Registry::new());
        let ring = Arc::new(TraceRing::new(64));
        let server = MetricsServer::bind_with_traces(
            "127.0.0.1:0",
            Arc::clone(&registry),
            vec![Arc::clone(&ring)],
        )
        .unwrap();
        let addr = server.local_addr();

        let stop = Arc::new(AtomicBool::new(false));
        let recorder = {
            let (registry, ring, stop) =
                (Arc::clone(&registry), Arc::clone(&ring), Arc::clone(&stop));
            std::thread::spawn(move || {
                let h = registry.histogram("gem_scrape_race_seconds", &[]);
                let c = registry.counter("gem_scrape_race_total", &[]);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record_with_exemplar(i % 1_000_000, i | 1);
                    c.inc();
                    ring.push(TraceEvent::new("span").with("i", i));
                    i += 1;
                }
            })
        };

        let scrapers: Vec<_> = ["/metrics", "/trace.jsonl", "/metrics", "/metrics.json"]
            .into_iter()
            .map(|path| {
                std::thread::spawn(move || {
                    let mut bodies = Vec::new();
                    for _ in 0..10 {
                        bodies.push(get(addr, path));
                    }
                    (path, bodies)
                })
            })
            .collect();
        for s in scrapers {
            let (path, bodies) = s.join().expect("scraper must not panic or deadlock");
            for body in bodies {
                assert!(body.starts_with("HTTP/1.1 200 OK"), "{path}: {body}");
                let (head, payload) = body.split_once("\r\n\r\n").expect("complete response");
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .expect("length header")
                    .trim()
                    .parse()
                    .unwrap();
                assert_eq!(payload.len(), len, "{path}: torn body");
                if path == "/metrics.json" {
                    assert!(payload.starts_with('{') && payload.ends_with('}'), "{path}");
                }
                if path == "/trace.jsonl" {
                    for line in payload.lines() {
                        assert!(line.starts_with('{') && line.ends_with('}'), "torn span: {line}");
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        recorder.join().unwrap();
    }
}
