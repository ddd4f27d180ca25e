//! Causal request tracing: trace-id minting and the head+tail sampling
//! policy.
//!
//! A [`SpanContext`] identifies one record's journey through the
//! pipeline: a 64-bit trace id (unique per record) plus the span id of
//! the hop that handed the record over (0 at the root). Ids come from a
//! [`SpanIdGen`] — a splitmix64 sequence, so minting is one relaxed
//! `fetch_add` plus a few multiplies, collision-free over any realistic
//! run length, and needs no RNG dependency.
//!
//! Sampling is decided twice:
//!
//! * **head-based** at mint time, deterministically from the trace id
//!   (`trace_id < rate · 2^64`), so every hop that sees the context —
//!   including a remote client that minted it — agrees on the verdict
//!   without coordination;
//! * **tail-based** at completion time: [`TraceSampler::retain`] keeps
//!   any record whose end-to-end latency crossed the configured
//!   threshold even when the head coin said no, so the tail of the
//!   latency distribution is always explained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// splitmix64 finalizer: a cheap, high-quality 64-bit mix (the same
/// avalanche the fleet's rendezvous hash uses).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The splitmix64 additive constant (golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lock-free trace/span id generator: a splitmix64 stream off one
/// atomic counter. Ids are never 0 (0 means "no id" on the wire and in
/// exemplar slots).
pub struct SpanIdGen {
    state: AtomicU64,
}

impl SpanIdGen {
    /// A generator whose stream starts at `seed` (two generators with
    /// the same seed produce the same ids — useful in tests).
    pub fn with_seed(seed: u64) -> SpanIdGen {
        SpanIdGen { state: AtomicU64::new(seed) }
    }

    /// A generator seeded from the wall clock and its own address, so
    /// independent processes mint disjoint streams.
    pub fn new() -> SpanIdGen {
        let nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        let gen = SpanIdGen { state: AtomicU64::new(0) };
        let addr = &gen.state as *const _ as u64;
        gen.state.store(splitmix64(nanos ^ addr.rotate_left(32)), Ordering::Relaxed);
        gen
    }

    /// Mints the next id — one relaxed `fetch_add` plus the finalizer.
    /// Never returns 0.
    #[inline]
    pub fn next_id(&self) -> u64 {
        loop {
            let id = splitmix64(self.state.fetch_add(GAMMA, Ordering::Relaxed).wrapping_add(GAMMA));
            if id != 0 {
                return id;
            }
        }
    }
}

impl Default for SpanIdGen {
    fn default() -> Self {
        SpanIdGen::new()
    }
}

/// The per-record trace identity threaded through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifies the record end to end. Never 0 for a real context.
    pub trace_id: u64,
    /// Span id of the hop that handed the record over (0 at the root —
    /// a server-minted context with no upstream client).
    pub parent_span: u64,
    /// Head-based sampling verdict, decided at mint time from the
    /// trace id. Tail-based retention may keep the record anyway.
    pub sampled: bool,
}

impl SpanContext {
    /// Formats a trace id the way every exposition surface renders it:
    /// 16 lowercase hex digits.
    pub fn format_id(id: u64) -> String {
        format!("{id:016x}")
    }

    /// Parses a [`SpanContext::format_id`]-formatted trace id.
    pub fn parse_id(s: &str) -> Option<u64> {
        u64::from_str_radix(s, 16).ok()
    }
}

/// The sampling policy: a head rate plus a tail-latency threshold.
#[derive(Clone, Copy, Debug)]
pub struct TraceSampler {
    /// Head verdict threshold: a trace id below this is sampled.
    /// `rate · 2^64`, saturating, so 1.0 samples everything.
    head_threshold: u64,
    /// Tail retention threshold in nanoseconds; 0 disables tail capture.
    tail_threshold_ns: u64,
}

impl TraceSampler {
    /// A sampler keeping `rate` (clamped to 0..=1) of records head-based
    /// and every record slower end-to-end than `tail_threshold_ns`
    /// (0 disables tail capture).
    pub fn new(rate: f64, tail_threshold_ns: u64) -> TraceSampler {
        let rate = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 0.0 };
        let head_threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            // rate * 2^64, computed without overflowing f64→u64.
            (rate * (u64::MAX as f64)) as u64
        };
        TraceSampler { head_threshold, tail_threshold_ns }
    }

    /// A sampler that traces nothing (head rate 0, tail capture off).
    pub fn off() -> TraceSampler {
        TraceSampler { head_threshold: 0, tail_threshold_ns: 0 }
    }

    /// True when neither head nor tail sampling can ever retain a span.
    pub fn is_off(&self) -> bool {
        self.head_threshold == 0 && self.tail_threshold_ns == 0
    }

    /// The head-based verdict for a trace id: deterministic, so every
    /// hop (and the minting client) agrees without coordination.
    #[inline]
    pub fn head_sampled(&self, trace_id: u64) -> bool {
        self.head_threshold == u64::MAX || trace_id < self.head_threshold
    }

    /// The tail threshold in nanoseconds (0 when tail capture is off).
    pub fn tail_threshold_ns(&self) -> u64 {
        self.tail_threshold_ns
    }

    /// The completion-time verdict: keep the span when the head coin
    /// said yes, or when the measured end-to-end latency crossed the
    /// tail threshold.
    #[inline]
    pub fn retain(&self, head_sampled: bool, e2e_ns: u64) -> bool {
        head_sampled || (self.tail_threshold_ns > 0 && e2e_ns >= self.tail_threshold_ns)
    }

    /// Mints a fresh root context from `gen`, with the head verdict
    /// already decided.
    pub fn mint(&self, gen: &SpanIdGen) -> SpanContext {
        let trace_id = gen.next_id();
        SpanContext { trace_id, parent_span: 0, sampled: self.head_sampled(trace_id) }
    }

    /// Adopts a context handed over by an upstream hop (e.g. a client
    /// that minted the trace id on its side of the wire), re-deciding
    /// the head verdict under this sampler's rate.
    pub fn adopt(&self, trace_id: u64, parent_span: u64) -> SpanContext {
        SpanContext { trace_id, parent_span, sampled: self.head_sampled(trace_id) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let gen = SpanIdGen::with_seed(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = gen.next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn seeded_generators_repeat() {
        let a = SpanIdGen::with_seed(42);
        let b = SpanIdGen::with_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn head_rate_extremes() {
        let gen = SpanIdGen::with_seed(7);
        let all = TraceSampler::new(1.0, 0);
        let none = TraceSampler::new(0.0, 0);
        for _ in 0..1000 {
            let id = gen.next_id();
            assert!(all.head_sampled(id));
            assert!(!none.head_sampled(id));
        }
        assert!(none.is_off());
        assert!(!all.is_off());
    }

    #[test]
    fn head_rate_is_approximately_honored() {
        let gen = SpanIdGen::with_seed(11);
        let s = TraceSampler::new(0.1, 0);
        let hits = (0..20_000).filter(|_| s.head_sampled(gen.next_id())).count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.07..0.13).contains(&rate), "10% head rate measured as {rate}");
    }

    #[test]
    fn tail_retention_overrides_head_verdict() {
        let s = TraceSampler::new(0.0, 1_000_000);
        assert!(!s.retain(false, 999_999));
        assert!(s.retain(false, 1_000_000), "slow records are always retained");
        assert!(s.retain(true, 0));
        let no_tail = TraceSampler::new(0.0, 0);
        assert!(!no_tail.retain(false, u64::MAX));
    }

    #[test]
    fn id_formatting_round_trips() {
        let id = 0x00ab_cdef_0123_4567u64;
        let s = SpanContext::format_id(id);
        assert_eq!(s, "00abcdef01234567");
        assert_eq!(SpanContext::parse_id(&s), Some(id));
        assert_eq!(SpanContext::parse_id("zz"), None);
    }

    #[test]
    fn mint_and_adopt_agree_on_the_head_verdict() {
        let gen = SpanIdGen::with_seed(3);
        let s = TraceSampler::new(0.5, 0);
        for _ in 0..100 {
            let ctx = s.mint(&gen);
            assert_eq!(ctx.parent_span, 0);
            let adopted = s.adopt(ctx.trace_id, 99);
            assert_eq!(adopted.sampled, ctx.sampled, "verdict must be id-deterministic");
            assert_eq!(adopted.parent_span, 99);
        }
    }
}
