//! Binary wire protocol for the network ingress.
//!
//! Every frame is length-prefixed and checksummed with the workspace's
//! durability hash (FNV-1a 64, the same primitive that guards snapshot
//! images; the journal stores its entries in this same frame):
//!
//! ```text
//! offset 0   u32 LE   payload length N (1 ..= negotiated max)
//! offset 4   u64 LE   fnv1a64(payload)
//! offset 12  payload  N bytes, first byte = frame kind
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns.
//! The payload layouts per kind:
//!
//! ```text
//! HELLO    = 1  [ver u8][credits u16]                    server → client
//! RECORD   = 2  [premises u64][timestamp f64][n u16]     client → server
//!               n × ([mac u64][rssi f32])
//!               optionally [trace u64][parent u64]
//! ACK      = 3  [premises u64][verdict u8][reason u8]    server → client
//!               [depth u32]
//! DECISION = 4  [premises u64][inside u8][timestamp f64] server → client
//!               [score f64][latency f64]
//! ALERT    = 5  [premises u64][raised u8][timestamp f64] server → client
//!               [consecutive u32]
//! ```
//!
//! The decoder is strict: a declared length outside bounds, a checksum
//! mismatch, an unknown kind byte, or trailing payload bytes all reject
//! the frame (and, at the ingress, the connection). Record payloads are
//! parsed directly out of the connection's read buffer with the binary
//! codec's strict reader (`serde::bin::Reader`) — one `Vec` for the
//! readings, no intermediate serde tree — so a frame becomes a shard
//! submit call with a single copy.
//!
//! The RECORD frame's trace-context tail ([`WireTrace`]: 16 extra
//! bytes after the readings) is the protocol's one optional field: a
//! client that wants its requests traced end to end sends the trace id
//! it minted, an old client sends nothing, and both decode — the
//! reading count `n` pins the readings' extent, so the remainder is
//! unambiguously either empty (no context) or exactly one context.
//! Any other remainder is rejected, and the checksum covers the tail
//! like every other payload byte.

use std::io::{Read, Write};

use serde::bin::Reader;

use gem_core::fnv1a64;
use gem_signal::{MacAddr, Reading, SignalRecord};

use crate::fleet::{Admission, ShedReason};

/// Protocol version advertised in the HELLO frame.
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame header size: `u32` length + `u64` checksum.
pub const HEADER_LEN: usize = 12;

/// Default ceiling on declared payload lengths. A full-size record
/// frame (u16 readings at 12 bytes each) stays well under this.
pub const MAX_FRAME_LEN: u32 = 64 * 1024;

/// Why a frame (and with it, the connection) was refused.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame — a torn header or payload.
    Torn,
    /// Declared payload length is zero or exceeds the negotiated max.
    BadLength {
        /// The length the header declared.
        declared: u32,
        /// The maximum the decoder accepts.
        max: u32,
    },
    /// Payload bytes do not hash to the header checksum.
    BadChecksum {
        /// Checksum the header carried.
        expected: u64,
        /// Checksum of the bytes actually received.
        actual: u64,
    },
    /// First payload byte names no known frame kind.
    BadKind(u8),
    /// Structurally invalid payload for its declared kind.
    BadPayload(&'static str),
    /// The underlying transport failed (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Torn => write!(f, "stream ended mid-frame"),
            WireError::BadLength { declared, max } => {
                write!(f, "declared payload length {declared} outside 1..={max}")
            }
            WireError::BadChecksum { expected, actual } => {
                write!(f, "payload checksum {actual:016x} != header {expected:016x}")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// True when the error is a read timeout rather than a protocol
    /// violation or a closed peer.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// Shed reason on the wire: the fleet's [`ShedReason`] plus `Busy`,
/// which only exists at the ingress (the premises already streams
/// through another connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireShedReason {
    /// The shard queue (or the per-premises quota) was full.
    QueueFull,
    /// The fleet has shut down.
    Shutdown,
    /// The premises is not registered with the fleet.
    UnknownPremises,
    /// Another live connection already streams this premises.
    Busy,
}

impl WireShedReason {
    /// Stable wire byte for the reason.
    pub fn as_u8(self) -> u8 {
        match self {
            WireShedReason::QueueFull => 0,
            WireShedReason::Shutdown => 1,
            WireShedReason::UnknownPremises => 2,
            WireShedReason::Busy => 3,
        }
    }

    fn from_u8(b: u8) -> Result<WireShedReason, WireError> {
        Ok(match b {
            0 => WireShedReason::QueueFull,
            1 => WireShedReason::Shutdown,
            2 => WireShedReason::UnknownPremises,
            3 => WireShedReason::Busy,
            _ => return Err(WireError::BadPayload("shed reason byte")),
        })
    }
}

impl From<ShedReason> for WireShedReason {
    fn from(r: ShedReason) -> Self {
        match r {
            ShedReason::QueueFull => WireShedReason::QueueFull,
            ShedReason::Shutdown => WireShedReason::Shutdown,
            ShedReason::UnknownPremises => WireShedReason::UnknownPremises,
        }
    }
}

/// The [`Admission`] vocabulary as it travels in an ACK frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVerdict {
    /// Enqueued with an idle queue.
    Accept,
    /// Enqueued behind a backlog of `depth` records.
    Queued {
        /// Queue occupancy right after the enqueue.
        depth: u32,
    },
    /// Refused; the record was not enqueued and no DECISION will
    /// follow, so the client's credit is restored by this ACK.
    Shed(WireShedReason),
}

impl From<Admission> for WireVerdict {
    fn from(a: Admission) -> Self {
        match a {
            Admission::Accept => WireVerdict::Accept,
            Admission::Queued { depth } => {
                WireVerdict::Queued { depth: depth.min(u32::MAX as usize) as u32 }
            }
            Admission::Shed(reason) => WireVerdict::Shed(reason.into()),
        }
    }
}

/// The optional trace-context tail of a RECORD frame: the trace id the
/// client minted for this record plus its own span id, so the server's
/// spans causally chain onto the client's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireTrace {
    /// Client-minted trace id (never 0 on a well-formed frame; a 0 is
    /// carried verbatim and treated as "no id" downstream).
    pub trace_id: u64,
    /// The client-side span the record departed from (0 = root).
    pub parent_span: u64,
}

/// A decoded protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Server greeting: protocol version and the connection's credit
    /// window (maximum unresolved records in flight).
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u8,
        /// Credit window granted to this connection.
        credits: u16,
    },
    /// One scan for one premises.
    Record {
        /// Target premises.
        premises_id: u64,
        /// The scan itself.
        record: SignalRecord,
        /// Optional client-minted trace context. `None` on the wire is
        /// byte-identical to the pre-tracing frame layout, so old
        /// clients and servers interoperate unchanged.
        trace: Option<WireTrace>,
    },
    /// Admission verdict for a record, sent as soon as the fleet
    /// admits or sheds it.
    Ack {
        /// Premises the acknowledged record targeted.
        premises_id: u64,
        /// The admission outcome.
        verdict: WireVerdict,
    },
    /// The monitor's decision for an admitted record. Resolves one
    /// credit.
    Decision {
        /// Premises the decision belongs to.
        premises_id: u64,
        /// True when the scan was classified in-premises.
        inside: bool,
        /// Scan timestamp (sender clock).
        timestamp_s: f64,
        /// Outlier score.
        score: f64,
        /// Server-side seconds from admission to decision.
        latency_s: f64,
    },
    /// An alert transition (raised or cleared) for a premises.
    Alert {
        /// Premises the alert belongs to.
        premises_id: u64,
        /// True for raised, false for cleared.
        raised: bool,
        /// Timestamp of the scan that transitioned the alert.
        timestamp_s: f64,
        /// Consecutive outside decisions at raise time (0 on clear).
        consecutive_out: u32,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_RECORD: u8 = 2;
const KIND_ACK: u8 = 3;
const KIND_DECISION: u8 = 4;
const KIND_ALERT: u8 = 5;

/// Appends the full wire encoding of `frame` (header + payload) to
/// `buf` and returns the number of bytes appended.
pub fn encode(frame: &Frame, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    // Reserve the header; the payload is built in place behind it.
    buf.extend_from_slice(&[0u8; HEADER_LEN]);
    match frame {
        Frame::Hello { version, credits } => {
            buf.push(KIND_HELLO);
            buf.push(*version);
            buf.extend_from_slice(&credits.to_le_bytes());
        }
        Frame::Record { premises_id, record, trace } => {
            buf.push(KIND_RECORD);
            buf.extend_from_slice(&premises_id.to_le_bytes());
            buf.extend_from_slice(&record.timestamp_s.to_le_bytes());
            let n = u16::try_from(record.readings.len()).expect("record with > u16::MAX readings");
            buf.extend_from_slice(&n.to_le_bytes());
            for r in &record.readings {
                buf.extend_from_slice(&r.mac.raw().to_le_bytes());
                buf.extend_from_slice(&r.rssi.to_le_bytes());
            }
            if let Some(t) = trace {
                buf.extend_from_slice(&t.trace_id.to_le_bytes());
                buf.extend_from_slice(&t.parent_span.to_le_bytes());
            }
        }
        Frame::Ack { premises_id, verdict } => {
            buf.push(KIND_ACK);
            buf.extend_from_slice(&premises_id.to_le_bytes());
            let (v, reason, depth) = match verdict {
                WireVerdict::Accept => (0u8, 0u8, 0u32),
                WireVerdict::Queued { depth } => (1, 0, *depth),
                WireVerdict::Shed(r) => (2, r.as_u8(), 0),
            };
            buf.push(v);
            buf.push(reason);
            buf.extend_from_slice(&depth.to_le_bytes());
        }
        Frame::Decision { premises_id, inside, timestamp_s, score, latency_s } => {
            buf.push(KIND_DECISION);
            buf.extend_from_slice(&premises_id.to_le_bytes());
            buf.push(u8::from(*inside));
            buf.extend_from_slice(&timestamp_s.to_le_bytes());
            buf.extend_from_slice(&score.to_le_bytes());
            buf.extend_from_slice(&latency_s.to_le_bytes());
        }
        Frame::Alert { premises_id, raised, timestamp_s, consecutive_out } => {
            buf.push(KIND_ALERT);
            buf.extend_from_slice(&premises_id.to_le_bytes());
            buf.push(u8::from(*raised));
            buf.extend_from_slice(&timestamp_s.to_le_bytes());
            buf.extend_from_slice(&consecutive_out.to_le_bytes());
        }
    }
    seal_frame(buf, start)
}

/// Fills in the header reserved at `buf[start..start + HEADER_LEN]` for
/// the payload that runs from behind it to the end of `buf`. Returns the
/// whole frame's length.
pub(crate) fn seal_frame(buf: &mut [u8], start: usize) -> usize {
    let payload = &buf[start + HEADER_LEN..];
    let len = u32::try_from(payload.len()).expect("frame payload over u32::MAX bytes");
    let checksum = fnv1a64(payload);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    buf.len() - start
}

/// The payload length and checksum a frame header declares.
fn header_fields(header: &[u8; HEADER_LEN]) -> (u32, u64) {
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let checksum = u64::from_le_bytes(header[4..HEADER_LEN].try_into().expect("8 bytes"));
    (len, checksum)
}

/// Splits the frame at the front of `bytes` (frames laid end to end, as
/// in a journal file) into whether its payload matches the header
/// checksum, the payload, and the bytes after the frame. `None` when
/// `bytes` ends inside the header or the declared payload.
pub(crate) fn open_frame(bytes: &[u8]) -> Option<(bool, &[u8], &[u8])> {
    let (len, checksum) = header_fields(bytes.get(..HEADER_LEN)?.try_into().expect("header"));
    let end = HEADER_LEN.checked_add(len as usize)?;
    let payload = bytes.get(HEADER_LEN..end)?;
    Some((fnv1a64(payload) == checksum, payload, &bytes[end..]))
}

/// Writes one frame to `w`, reusing `buf` as scratch. Returns the
/// number of bytes written (for transmit accounting).
pub fn write_frame(w: &mut impl Write, frame: &Frame, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    buf.clear();
    let n = encode(frame, buf);
    w.write_all(buf)?;
    Ok(n)
}

/// Names the payload field a codec read failed on.
trait Field<T> {
    fn field(self, what: &'static str) -> Result<T, WireError>;
}

impl<T> Field<T> for Result<T, serde::Error> {
    fn field(self, what: &'static str) -> Result<T, WireError> {
        self.map_err(|_| WireError::BadPayload(what))
    }
}

/// Decodes one payload (checksum already verified) into a [`Frame`].
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Reader::new(payload);
    let kind = c.u8().field("kind byte")?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            version: c.u8().field("hello version")?,
            credits: c.u16().field("hello credits")?,
        },
        KIND_RECORD => {
            let premises_id = c.u64().field("record premises")?;
            let timestamp_s = c.f64().field("record timestamp")?;
            let n = c.u16().field("record reading count")? as usize;
            // Cheap structural bound before allocating: each reading is
            // 12 bytes, and after them the payload either ends (an
            // untraced frame — the pre-tracing layout) or carries
            // exactly one 16-byte trace context. Anything else rejects.
            let has_trace = match c.remaining().checked_sub(n * 12) {
                Some(0) => false,
                Some(16) => true,
                _ => return Err(WireError::BadPayload("record reading bytes")),
            };
            let mut record = SignalRecord { timestamp_s, readings: Vec::with_capacity(n) };
            for _ in 0..n {
                let mac = c.u64().field("reading mac")?;
                if mac & !MacAddr::MASK != 0 {
                    return Err(WireError::BadPayload("mac above 48 bits"));
                }
                let rssi = c.f32().field("reading rssi")?;
                record.readings.push(Reading { mac: MacAddr::from_raw(mac), rssi });
            }
            let trace = if has_trace {
                Some(WireTrace {
                    trace_id: c.u64().field("trace id")?,
                    parent_span: c.u64().field("trace parent span")?,
                })
            } else {
                None
            };
            Frame::Record { premises_id, record, trace }
        }
        KIND_ACK => {
            let premises_id = c.u64().field("ack premises")?;
            let v = c.u8().field("ack verdict")?;
            let reason = c.u8().field("ack reason")?;
            let depth = c.u32().field("ack depth")?;
            let verdict = match v {
                0 => WireVerdict::Accept,
                1 => WireVerdict::Queued { depth },
                2 => WireVerdict::Shed(WireShedReason::from_u8(reason)?),
                _ => return Err(WireError::BadPayload("ack verdict byte")),
            };
            Frame::Ack { premises_id, verdict }
        }
        KIND_DECISION => Frame::Decision {
            premises_id: c.u64().field("decision premises")?,
            inside: c.u8().field("decision label")? != 0,
            timestamp_s: c.f64().field("decision timestamp")?,
            score: c.f64().field("decision score")?,
            latency_s: c.f64().field("decision latency")?,
        },
        KIND_ALERT => Frame::Alert {
            premises_id: c.u64().field("alert premises")?,
            raised: c.u8().field("alert state")? != 0,
            timestamp_s: c.f64().field("alert timestamp")?,
            consecutive_out: c.u32().field("alert consecutive")?,
        },
        other => return Err(WireError::BadKind(other)),
    };
    c.finish().field("trailing bytes")?;
    Ok(frame)
}

/// Reads one frame from `r`, filling `buf` with the payload bytes.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); a stream that ends inside a header or payload is a torn
/// frame ([`WireError::Torn`]). The declared length is validated
/// against `max_len` *before* any payload byte is read or buffered, so
/// an adversarial length can neither allocate nor stall.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    buf: &mut Vec<u8>,
) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (len, expected) = header_fields(&header);
    if len == 0 || len > max_len {
        return Err(WireError::BadLength { declared: len, max: max_len });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    if let Err(e) = r.read_exact(buf) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Torn
        } else {
            WireError::Io(e)
        });
    }
    let actual = fnv1a64(buf);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    decode_payload(buf).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        encode(&frame, &mut wire);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let back = read_frame(&mut cursor, MAX_FRAME_LEN, &mut buf).unwrap().unwrap();
        assert_eq!(back, frame);
        // And a clean EOF right after.
        assert!(read_frame(&mut cursor, MAX_FRAME_LEN, &mut buf).unwrap().is_none());
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Frame::Hello { version: WIRE_VERSION, credits: 32 });
        roundtrip(Frame::Record {
            premises_id: 42,
            record: SignalRecord::from_pairs(
                12.5,
                [(MacAddr::from_raw(0xA1B2C3), -47.0), (MacAddr::from_raw(0x0F), -80.5)],
            ),
            trace: None,
        });
        roundtrip(Frame::Record {
            premises_id: 42,
            record: SignalRecord::from_pairs(12.5, [(MacAddr::from_raw(0xA1B2C3), -47.0)]),
            trace: Some(WireTrace { trace_id: 0xDEAD_BEEF_CAFE_F00D, parent_span: 7 }),
        });
        roundtrip(Frame::Ack { premises_id: 7, verdict: WireVerdict::Accept });
        roundtrip(Frame::Ack { premises_id: 7, verdict: WireVerdict::Queued { depth: 9 } });
        roundtrip(Frame::Ack {
            premises_id: 7,
            verdict: WireVerdict::Shed(WireShedReason::UnknownPremises),
        });
        roundtrip(Frame::Decision {
            premises_id: 3,
            inside: true,
            timestamp_s: 99.0,
            score: 0.25,
            latency_s: 0.001,
        });
        roundtrip(Frame::Alert {
            premises_id: 3,
            raised: true,
            timestamp_s: 7.0,
            consecutive_out: 3,
        });
    }

    #[test]
    fn empty_record_roundtrips() {
        roundtrip(Frame::Record { premises_id: 1, record: SignalRecord::new(0.0), trace: None });
        roundtrip(Frame::Record {
            premises_id: 1,
            record: SignalRecord::new(0.0),
            trace: Some(WireTrace { trace_id: 1, parent_span: 0 }),
        });
    }

    /// A RECORD payload hand-built in the pre-tracing layout (readings
    /// end the payload, no trace tail) must decode to `trace: None` —
    /// old clients keep working against a tracing-aware server.
    #[test]
    fn old_record_layout_without_trace_field_decodes() {
        let mut payload = vec![KIND_RECORD];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&1.5f64.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        for (mac, rssi) in [(0xAAu64, -50.0f32), (0xBB, -71.5)] {
            payload.extend_from_slice(&mac.to_le_bytes());
            payload.extend_from_slice(&rssi.to_le_bytes());
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        wire.extend_from_slice(&payload);
        let mut buf = Vec::new();
        let frame =
            read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap().unwrap();
        match frame {
            Frame::Record { premises_id, record, trace } => {
                assert_eq!(premises_id, 9);
                assert_eq!(record.readings.len(), 2);
                assert_eq!(trace, None);
            }
            other => panic!("expected a record, got {other:?}"),
        }
    }

    /// A trace tail of the wrong size (neither absent nor 16 bytes)
    /// must reject even with a valid checksum.
    #[test]
    fn wrong_size_trace_tail_is_rejected() {
        for extra in [1usize, 8, 15, 17, 24] {
            let mut payload = vec![KIND_RECORD];
            payload.extend_from_slice(&9u64.to_le_bytes());
            payload.extend_from_slice(&1.5f64.to_le_bytes());
            payload.extend_from_slice(&0u16.to_le_bytes());
            payload.extend(std::iter::repeat_n(0xEE, extra));
            let mut wire = Vec::new();
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            wire.extend_from_slice(&payload);
            let mut buf = Vec::new();
            let err =
                read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap_err();
            assert!(
                matches!(err, WireError::BadPayload("record reading bytes")),
                "{extra} extra bytes: {err}"
            );
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut wire = Vec::new();
        encode(&Frame::Ack { premises_id: 1, verdict: WireVerdict::Accept }, &mut wire);
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut buf = Vec::new();
        let err = read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap_err();
        assert!(matches!(err, WireError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_reading() {
        let mut wire = vec![0u8; HEADER_LEN];
        wire[0..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut buf = Vec::new();
        let err = read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap_err();
        assert!(
            matches!(err, WireError::BadLength { declared, .. } if declared == MAX_FRAME_LEN + 1)
        );
    }

    #[test]
    fn zero_length_is_rejected() {
        let wire = vec![0u8; HEADER_LEN];
        let mut buf = Vec::new();
        let err = read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap_err();
        assert!(matches!(err, WireError::BadLength { declared: 0, .. }));
    }

    #[test]
    fn truncation_anywhere_is_torn() {
        let mut wire = Vec::new();
        encode(
            &Frame::Record {
                premises_id: 9,
                record: SignalRecord::from_pairs(1.0, [(MacAddr::from_raw(5), -60.0)]),
                trace: None,
            },
            &mut wire,
        );
        for cut in 1..wire.len() {
            let mut buf = Vec::new();
            let err = read_frame(&mut std::io::Cursor::new(&wire[..cut]), MAX_FRAME_LEN, &mut buf)
                .unwrap_err();
            assert!(matches!(err, WireError::Torn), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build an ACK payload with one extra byte and a valid
        // checksum: the checksum passes, the structure must not.
        let mut payload = vec![KIND_ACK];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&[0, 0]);
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.push(0xEE);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        wire.extend_from_slice(&payload);
        let mut buf = Vec::new();
        let err = read_frame(&mut std::io::Cursor::new(wire), MAX_FRAME_LEN, &mut buf).unwrap_err();
        assert!(matches!(err, WireError::BadPayload("trailing bytes")), "{err}");
    }
}
