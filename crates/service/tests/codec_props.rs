//! Property tests for the binary codec behind every durable byte the
//! service writes — journal frames, premises images and the fleet
//! manifest: values survive an encode→decode round trip bit for bit
//! (NaN payloads, signed zeros, infinities, subnormals, empty
//! collections and integer extremes included), no single-byte flip goes
//! unnoticed, a truncated journal reads back as a prefix of its
//! entries, and a forged length is refused before anything is
//! allocated for it.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use gem_core::{fnv1a64_hex, FleetManifest, Gem, GemConfig, GemSnapshot, PremisesEntry};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::journal::read_journal;
use gem_service::{JournalEntry, JournalWriter};
use gem_signal::{MacAddr, Reading, SignalRecord};
use serde::bin::{from_bytes, to_bytes};
use serde::Value;

/// Bit patterns the codec must carry verbatim.
const F64_EDGES: [u64; 10] = [
    0x0000_0000_0000_0000, // +0.0
    0x8000_0000_0000_0000, // -0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x7ff8_dead_beef_0001, // quiet NaN with a payload
    0x7ff0_0000_0000_0001, // signalling NaN
    0xfff8_0000_0000_0000, // negative NaN
    0x0000_0000_0000_0001, // smallest subnormal
    0x800f_ffff_ffff_ffff, // largest negative subnormal
    0x7fef_ffff_ffff_ffff, // f64::MAX
];

const F32_EDGES: [u32; 9] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_1234,
    0x7f80_0001,
    0x0000_0001,
    0x807f_ffff,
    0x7f7f_ffff,
];

fn f64_bits(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..3u32) {
        0 => f64::from_bits(F64_EDGES[rng.random_range(0..F64_EDGES.len())]),
        1 => f64::from_bits(rng.random_range(0..=u64::MAX)),
        _ => rng.random_range(-1e6..1e6f64),
    }
}

fn f32_bits(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..3u32) {
        0 => f32::from_bits(F32_EDGES[rng.random_range(0..F32_EDGES.len())]),
        1 => f32::from_bits(rng.random_range(0..=u32::MAX)),
        _ => rng.random_range(-120.0..0.0f64) as f32,
    }
}

fn edge_u64(rng: &mut StdRng) -> u64 {
    [0, 1, u64::MAX, rng.random_range(0..=u64::MAX)][rng.random_range(0..4usize)]
}

fn record(rng: &mut StdRng) -> SignalRecord {
    let n = [0, 1, rng.random_range(0..24usize)][rng.random_range(0..3usize)];
    SignalRecord {
        timestamp_s: f64_bits(rng),
        readings: (0..n)
            .map(|_| Reading {
                mac: MacAddr::from_raw(rng.random_range(0..=u64::MAX)),
                rssi: f32_bits(rng),
            })
            .collect(),
    }
}

fn journal_entry(rng: &mut StdRng) -> JournalEntry {
    let n = rng.random_range(0..4usize);
    JournalEntry {
        premises_id: edge_u64(rng),
        epoch: edge_u64(rng),
        records: (0..n).map(|_| record(rng)).collect(),
    }
}

fn value(rng: &mut StdRng, depth: u32) -> Value {
    let top = if depth >= 3 { 6 } else { 8 };
    match rng.random_range(0..top) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_range(0..2u32) == 1),
        2 => Value::U64(edge_u64(rng)),
        3 => Value::I64([i64::MIN, -1, 0, i64::MAX][rng.random_range(0..4usize)]),
        4 => Value::F64(f64_bits(rng)),
        5 => Value::Str(["", "alerts", "é中\"\\\n"][rng.random_range(0..3usize)].to_string()),
        6 => {
            Value::Array((0..rng.random_range(0..4usize)).map(|_| value(rng, depth + 1)).collect())
        }
        _ => Value::Object(
            (0..rng.random_range(0..4usize))
                .map(|i| (format!("k{i}"), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn premises_entry(rng: &mut StdRng) -> PremisesEntry {
    PremisesEntry {
        premises_id: edge_u64(rng),
        snapshot_file: format!("premises-{}-{}.bin", rng.random_range(0..9u32), edge_u64(rng)),
        snapshot_checksum: fnv1a64_hex(&rng.random_range(0..=u64::MAX).to_le_bytes()),
        epochs: edge_u64(rng),
        sidecar: value(rng, 0),
    }
}

/// `x` → bytes → `T` → bytes reproduces the bytes exactly. Every float
/// is stored as its bit pattern, so equal bytes mean bit-equal values.
fn reencodes<T: serde::Serialize + serde::Deserialize>(x: &T) -> bool {
    let bytes = to_bytes(x);
    from_bytes::<T>(&bytes).is_ok_and(|back| to_bytes(&back) == bytes)
}

struct Seeded<F>(F);

impl<T, F: Fn(&mut StdRng) -> T> Strategy for Seeded<F> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        (self.0)(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn signal_records_round_trip_bitwise(r in Seeded(record)) {
        let back: SignalRecord = from_bytes(&to_bytes(&r)).unwrap();
        prop_assert_eq!(back.timestamp_s.to_bits(), r.timestamp_s.to_bits());
        prop_assert_eq!(back.readings.len(), r.readings.len());
        for (a, b) in back.readings.iter().zip(&r.readings) {
            prop_assert_eq!(a.mac, b.mac);
            prop_assert_eq!(a.rssi.to_bits(), b.rssi.to_bits());
        }
    }

    #[test]
    fn journal_entries_round_trip_bitwise(e in Seeded(journal_entry)) {
        prop_assert!(reencodes(&e));
        let back: JournalEntry = from_bytes(&to_bytes(&e)).unwrap();
        prop_assert_eq!(back.premises_id, e.premises_id);
        prop_assert_eq!(back.epoch, e.epoch);
        prop_assert_eq!(back.records.len(), e.records.len());
    }

    #[test]
    fn premises_entries_round_trip_bitwise(e in Seeded(premises_entry)) {
        prop_assert!(reencodes(&e));
    }
}

/// A small trained model, streamed a little so the graph, detector and
/// RNG have moved past their fitted state, plus the rest of its stream.
fn fit_streamed() -> (Gem, Vec<SignalRecord>) {
    let mut scenario = ScenarioConfig::user(1);
    scenario.train_duration_s = 40.0;
    scenario.n_test_in = 12;
    scenario.n_test_out = 12;
    let ds = Scenario::build(scenario).generate();
    let cfg = GemConfig { embedding_dim: 4, epochs: 1, augment_passes: 0, ..GemConfig::default() };
    let mut gem = Gem::fit(cfg, &ds.train);
    let stream: Vec<SignalRecord> = ds.test.iter().map(|t| t.record.clone()).collect();
    for r in &stream[..8] {
        gem.infer(r);
    }
    (gem, stream[8..].to_vec())
}

/// [`fit_streamed`]'s model, fitted once per test binary.
fn streamed_gem() -> &'static Gem {
    static GEM: OnceLock<Gem> = OnceLock::new();
    GEM.get_or_init(|| fit_streamed().0)
}

#[test]
fn snapshot_images_round_trip_bitwise_with_edge_floats() {
    let mut snap = GemSnapshot::capture(streamed_gem());
    snap.train_report.epoch_losses = F32_EDGES.iter().map(|&b| f32::from_bits(b)).collect();
    snap.detector.temperature = f64::from_bits(0x7ff8_dead_beef_0001);
    snap.detector.tau_l = -0.0;
    snap.rng = Some([u64::MAX, 0, 1, u64::MAX - 1]);
    let image = snap.to_image();
    let back = GemSnapshot::from_image(&image).unwrap();
    assert_eq!(back.to_image(), image);
    let losses: Vec<u32> = back.train_report.epoch_losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(losses, F32_EDGES);
    assert_eq!(back.detector.temperature.to_bits(), 0x7ff8_dead_beef_0001);
    // Empty collections survive too.
    snap.train_report.epoch_losses.clear();
    snap.rng = None;
    let image = snap.to_image();
    assert_eq!(GemSnapshot::from_image(&image).unwrap().to_image(), image);
}

/// The oracle: a streamed model spilled to a binary image and hydrated
/// back is the same model — its JSON export is byte-identical, before
/// and after both copies keep streaming.
#[test]
fn hydrated_image_matches_the_original_json_export() {
    let (mut original, stream) = fit_streamed();
    let image = GemSnapshot::capture(&original).to_image();
    let mut hydrated = GemSnapshot::from_image(&image).unwrap().restore().unwrap();
    let json = |g: &Gem| GemSnapshot::capture(g).to_json().unwrap();
    assert_eq!(json(&hydrated), json(&original));
    for r in &stream {
        let (a, b) = (original.infer(r), hydrated.infer(r));
        assert_eq!((a.label, a.score.to_bits()), (b.label, b.score.to_bits()));
    }
    assert_eq!(json(&hydrated), json(&original));
}

/// Every single-byte flip of an image changes the checksum the manifest
/// records for it, so verification and hydration refuse the file.
#[test]
fn every_image_byte_flip_is_detected() {
    let image = GemSnapshot::capture(streamed_gem()).to_image();
    let checksum = fnv1a64_hex(&image);
    let mut flipped = image.clone();
    for i in 0..image.len() {
        flipped[i] ^= 0x20;
        assert_ne!(fnv1a64_hex(&flipped), checksum, "flip at byte {i} of {}", image.len());
        flipped[i] = image[i];
    }
    // End to end through the manifest check, for a few positions.
    let dir = fresh_dir("gem_codec_image_flip");
    let manifest = FleetManifest::new(vec![PremisesEntry {
        premises_id: 1,
        snapshot_file: "premises-1-0.bin".into(),
        snapshot_checksum: checksum,
        epochs: 0,
        sidecar: Value::Null,
    }]);
    std::fs::write(dir.join("premises-1-0.bin"), &image).unwrap();
    manifest.verify_snapshots(&dir).unwrap();
    for i in [0, 5, image.len() / 2, image.len() - 1] {
        flipped[i] ^= 0x01;
        std::fs::write(dir.join("premises-1-0.bin"), &flipped).unwrap();
        assert!(manifest.verify_snapshots(&dir).is_err(), "flip at byte {i}");
        flipped[i] = image[i];
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_manifest_byte_flip_is_detected() {
    let dir = fresh_dir("gem_codec_manifest_flip");
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
    let entries: Vec<PremisesEntry> = (0..3).map(|_| premises_entry(&mut rng)).collect();
    FleetManifest::new(entries.clone()).save(&dir).unwrap();
    let path = dir.join(gem_core::MANIFEST_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let loaded = FleetManifest::load(&dir).unwrap();
    assert_eq!(to_bytes(&loaded.premises), to_bytes(&FleetManifest::new(entries).premises));
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut flipped = bytes.clone();
            flipped[i] ^= mask;
            std::fs::write(&path, &flipped).unwrap();
            assert!(FleetManifest::load(&dir).is_err(), "flip {mask:#x} at byte {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `entries` as a journal and returns its bytes plus the byte
/// offset where each frame ends.
fn journal_bytes(dir: &std::path::Path, entries: &[JournalEntry]) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("journal.log");
    let _ = std::fs::remove_file(&path);
    let mut w = JournalWriter::open(&path).unwrap();
    let mut ends = Vec::new();
    let mut at = 0;
    for e in entries {
        at += w.append(e).unwrap();
        ends.push(at);
    }
    (std::fs::read(&path).unwrap(), ends)
}

/// Bitwise equality (derived `==` would call two NaN readings unequal).
fn same(a: &[JournalEntry], b: &[JournalEntry]) -> bool {
    to_bytes(a) == to_bytes(b)
}

fn sample_entries() -> Vec<JournalEntry> {
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(11);
    (0..4).map(|_| journal_entry(&mut rng)).collect()
}

/// A flipped byte is never read back as an entry. Anywhere before the
/// final frame — its length, checksum or payload — it fails the read,
/// since acknowledged epochs follow it (a length pushed past the end of
/// the file looks torn, but an intact frame still starts after it). In
/// the final frame it reads as a torn tail or fails the read.
#[test]
fn every_journal_byte_flip_is_detected() {
    let dir = fresh_dir("gem_codec_journal_flip");
    let entries = sample_entries();
    let (bytes, ends) = journal_bytes(&dir, &entries);
    let path = dir.join("journal.log");
    let last_start = ends[ends.len() - 2];
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut flipped = bytes.clone();
            flipped[i] ^= mask;
            std::fs::write(&path, &flipped).unwrap();
            match read_journal(&path) {
                Ok(got) => {
                    assert!(i >= last_start, "flip {mask:#x} at byte {i} was not refused");
                    assert!(
                        same(&got, &entries[..entries.len() - 1]),
                        "flip {mask:#x} at byte {i}"
                    );
                }
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_journal_truncation_reads_a_prefix() {
    let dir = fresh_dir("gem_codec_journal_cut");
    let entries = sample_entries();
    let (bytes, ends) = journal_bytes(&dir, &entries);
    let path = dir.join("journal.log");
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        assert!(same(&read_journal(&path).unwrap(), &entries[..whole]), "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lengths far past the input would abort the process if they reached
/// an allocator; every one must come back as an error instead.
#[test]
fn forged_lengths_are_refused_before_allocation() {
    let entry = JournalEntry {
        premises_id: 3,
        epoch: 4,
        records: vec![SignalRecord::from_pairs(1.0, [(MacAddr::from_raw(9), -50.0)])],
    };
    let bytes = to_bytes(&entry);
    // Offsets of the two sequence lengths: records (after two u64s) and
    // the first record's readings (after its timestamp).
    for at in [16, 32] {
        for forged in [u64::MAX, 1 << 40, (bytes.len() - at - 8) as u64 + 1] {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let err = from_bytes::<JournalEntry>(&b).unwrap_err();
            assert!(err.to_string().contains("exceeds"), "length {forged} at {at}: {err}");
        }
    }
    // The same for a premises entry's file name and a snapshot image's
    // first field (its format tag, right after the 8-byte header).
    let mut b = to_bytes(&premises_entry(&mut <StdRng as rand::SeedableRng>::seed_from_u64(3)));
    b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(from_bytes::<PremisesEntry>(&b).unwrap_err().to_string().contains("exceeds"));
    let mut image = GemSnapshot::capture(streamed_gem()).to_image();
    image[8..16].copy_from_slice(&(1u64 << 50).to_le_bytes());
    assert!(GemSnapshot::from_image(&image).is_err());
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
