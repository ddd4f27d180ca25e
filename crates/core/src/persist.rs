//! Model persistence: snapshot a trained GEM system to disk and restore
//! it later — the deployment story of the paper's server-side component
//! (the Android app uploads scans; the server keeps the model warm
//! across restarts).
//!
//! A [`GemSnapshot`] captures everything the online system needs: the
//! configuration, the bipartite graph (including streamed nodes), the
//! trained BiSAGE model with its base tables, the detector state
//! (histograms, frozen reference set, thresholds) and the per-record
//! trust bits.
//!
//! A snapshot has two on-disk forms:
//!
//! - the **JSON export** ([`GemSnapshot::to_json`], [`Gem::save`]):
//!   portable and diff-able, the user-facing `--model` file;
//! - the **binary image** ([`GemSnapshot::to_image`]): `IMAGE_MAGIC`,
//!   a `u32` codec version, then the snapshot's fields in the
//!   `serde::bin` layout. It is what the fleet writes when it spills or
//!   snapshots a premises (only the base image of a premises the fleet
//!   spawned hot is the JSON export) — about a third the size of the
//!   JSON and decoded with no intermediate tree.
//!
//! [`GemSnapshot::from_image`] reads either, told apart by the leading
//! byte. The [`FleetManifest`] is binary too; checksums live in the
//! manifest, which records the [`fnv1a64`] of every image it references.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use gem_graph::BipartiteGraph;
use gem_nn::Tensor;

use crate::bisage::{BiSage, TrainReport};
use crate::config::GemConfig;
use crate::detector::EnhancedDetector;
use crate::gem::Gem;
use crate::pca::PcaRotation;

/// Magic marker + version guard for snapshot files.
const FORMAT: &str = "gem-snapshot";
const VERSION: u32 = 1;

/// Leading bytes of a binary image. The first byte is not ASCII, so an
/// image is never mistaken for the JSON export (which opens with `{`).
const IMAGE_MAGIC: [u8; 4] = *b"\x89GEM";
/// Binary image layout version, checked before any field is decoded.
const IMAGE_VERSION: u32 = 1;

/// A complete serialized GEM system.
#[derive(Serialize, Deserialize)]
pub struct GemSnapshot {
    format: String,
    version: u32,
    /// Configuration the system was trained with.
    pub cfg: GemConfig,
    /// The bipartite graph (training + streamed records).
    pub graph: BipartiteGraph,
    /// The trained embedding model.
    pub bisage: BiSage,
    /// The detector with its online-update state.
    pub detector: EnhancedDetector,
    /// BiSAGE training diagnostics.
    pub train_report: TrainReport,
    /// Primary embeddings of the initial training records.
    pub train_embeddings: Tensor,
    /// Per-record pseudo-label trust bits.
    pub trusted: Vec<bool>,
    /// The fitted PCA rotation, when enabled.
    pub pca: Option<PcaRotation>,
    /// Raw state of the online RNG at capture time. Restoring it resumes
    /// the exact random stream, which bitwise crash recovery depends on.
    /// Absent in snapshots written before this field existed; those
    /// restore with a fresh seed-derived generator.
    #[serde(default)]
    pub rng: Option<[u64; 4]>,
}

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(io::Error),
    /// Undecodable bytes: malformed JSON, a truncated or trailing-byte
    /// binary image or manifest, or an unknown leading byte.
    Format(String),
    /// The file decodes but is not compatible: wrong tag or version, a
    /// checksum mismatch, or state inconsistent with itself.
    Incompatible(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::Format(e) => write!(f, "snapshot format error: {e}"),
            PersistError::Incompatible(e) => write!(f, "incompatible snapshot: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl GemSnapshot {
    /// Captures the full state of a running system.
    pub fn capture(gem: &Gem) -> GemSnapshot {
        GemSnapshot {
            format: FORMAT.to_string(),
            version: VERSION,
            cfg: gem.cfg.clone(),
            graph: gem.graph().clone(),
            bisage: gem.bisage().clone(),
            detector: gem.detector().clone(),
            train_report: gem.train_report().clone(),
            train_embeddings: gem.training_embeddings().clone(),
            trusted: gem.trusted_records().to_vec(),
            pca: gem.pca().cloned(),
            rng: Some(gem.rng_state()),
        }
    }

    /// Restores a runnable system. Fails when the snapshot is internally
    /// inconsistent (e.g. trust bits not matching the graph).
    pub fn restore(self) -> Result<Gem, PersistError> {
        if self.format != FORMAT {
            return Err(PersistError::Incompatible(format!("format tag {:?}", self.format)));
        }
        if self.version != VERSION {
            return Err(PersistError::Incompatible(format!(
                "snapshot version {} (supported: {VERSION})",
                self.version
            )));
        }
        if self.trusted.len() != self.graph.n_records() {
            return Err(PersistError::Incompatible(format!(
                "trust bits ({}) do not match graph records ({})",
                self.trusted.len(),
                self.graph.n_records()
            )));
        }
        if self.cfg.pca_rotation && self.pca.is_none() {
            return Err(PersistError::Incompatible(
                "config enables pca_rotation but the snapshot has no rotation".into(),
            ));
        }
        Ok(Gem::from_parts(
            self.cfg,
            self.graph,
            self.bisage,
            self.detector,
            self.train_report,
            self.train_embeddings,
            self.trusted,
            self.pca,
            self.rng,
        ))
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> Result<String, PersistError> {
        serde_json::to_string(self).map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Parses from a JSON string.
    pub fn from_json(json: &str) -> Result<GemSnapshot, PersistError> {
        serde_json::from_str(json).map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Encodes the binary image: magic, codec version, fields.
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = IMAGE_MAGIC.to_vec();
        out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
        serde::Serialize::encode(self, &mut out);
        out
    }

    /// Decodes a snapshot file's bytes: a binary image, or the JSON
    /// export, told apart by the leading byte. Integrity is the caller's
    /// to check (the manifest holds each image's checksum).
    pub fn from_image(bytes: &[u8]) -> Result<GemSnapshot, PersistError> {
        if let Some(body) = bytes.strip_prefix(&IMAGE_MAGIC) {
            let (version, fields) = body
                .split_at_checked(4)
                .ok_or_else(|| PersistError::Format("image ends inside its header".into()))?;
            let version = u32::from_le_bytes(version.try_into().expect("4 bytes"));
            if version != IMAGE_VERSION {
                return Err(PersistError::Incompatible(format!(
                    "image version {version} (supported: {IMAGE_VERSION})"
                )));
            }
            return serde::bin::from_bytes(fields).map_err(|e| PersistError::Format(e.to_string()));
        }
        match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'{') => Self::from_json(
                std::str::from_utf8(bytes).map_err(|e| PersistError::Format(e.to_string()))?,
            ),
            Some(b) => Err(PersistError::Format(format!(
                "neither a binary image nor a JSON snapshot (leading byte {b:#04x})"
            ))),
            None => Err(PersistError::Format("empty snapshot file".into())),
        }
    }

    /// Writes the JSON export to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads a snapshot file in either form (see [`GemSnapshot::from_image`]).
    pub fn load(path: impl AsRef<Path>) -> Result<GemSnapshot, PersistError> {
        Self::from_image(&fs::read(path)?)
    }
}

impl Gem {
    /// Saves the full system state to a JSON snapshot file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        GemSnapshot::capture(self).save(path)
    }

    /// Restores a system from a snapshot file (JSON or binary image).
    pub fn load(path: impl AsRef<Path>) -> Result<Gem, PersistError> {
        GemSnapshot::load(path)?.restore()
    }
}

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the workspace's checksum primitive for durability
/// artifacts (manifest bodies, snapshot images, journal and wire frames). Not
/// cryptographic; it guards against truncation, bit rot and partial
/// writes, which is what crash recovery needs to detect.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a64`] rendered as the canonical 16-digit lowercase hex string
/// stored in manifest entries.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Filename of the fleet manifest inside a durability directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// Leading bytes of a manifest file (see [`FleetManifest::save`]).
const MANIFEST_MAGIC: [u8; 4] = *b"\x89GFM";
const MANIFEST_VERSION: u32 = 2;
/// Magic, version and body checksum.
const MANIFEST_HEADER_LEN: usize = 16;

/// One premises' durable state, as recorded in a [`FleetManifest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PremisesEntry {
    /// Tenant identifier (the fleet's routing key).
    pub premises_id: u64,
    /// Snapshot filename, relative to the manifest's directory.
    pub snapshot_file: String,
    /// [`fnv1a64_hex`] checksum of the snapshot file's bytes.
    pub snapshot_checksum: String,
    /// Decision epochs this premises had applied when the snapshot was
    /// taken. Journal entries with a later epoch number must be replayed
    /// on recovery; earlier ones are already folded into the snapshot.
    pub epochs: u64,
    /// Runtime-defined sidecar state stored verbatim (e.g. the service
    /// layer's alert-policy counters), so layers above the model can
    /// recover without `gem-core` knowing their types.
    #[serde(default)]
    pub sidecar: serde_json::Value,
}

/// Checksummed index of a fleet durability directory: which premises
/// exist, where each one's snapshot lives, and the journal watermark
/// (`epochs`) recovery must replay from.
#[derive(Debug)]
pub struct FleetManifest {
    /// Per-premises entries, sorted by premises id.
    pub premises: Vec<PremisesEntry>,
}

impl FleetManifest {
    /// Builds a manifest over the given entries (sorted by premises id).
    pub fn new(mut premises: Vec<PremisesEntry>) -> FleetManifest {
        premises.sort_by_key(|e| e.premises_id);
        FleetManifest { premises }
    }

    /// The entry for one premises, when present.
    pub fn entry(&self, premises_id: u64) -> Option<&PremisesEntry> {
        self.premises.iter().find(|e| e.premises_id == premises_id)
    }

    /// Writes the manifest into `dir` atomically and durably: the temp
    /// file is synced before the rename (so the commit can never expose
    /// a torn manifest) and the directory is synced after it (so the
    /// rename itself — and the directory entries of any files written
    /// alongside — survive power loss, not just process crashes).
    ///
    /// The file is `MANIFEST_MAGIC`, a `u32` version, the [`fnv1a64`] of
    /// the body, then the body: the entries in the `serde::bin` layout.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        let mut bytes = vec![0u8; MANIFEST_HEADER_LEN];
        serde::Serialize::encode(&self.premises, &mut bytes);
        let checksum = fnv1a64(&bytes[MANIFEST_HEADER_LEN..]);
        bytes[..4].copy_from_slice(&MANIFEST_MAGIC);
        bytes[4..8].copy_from_slice(&MANIFEST_VERSION.to_le_bytes());
        bytes[8..MANIFEST_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        // Opening a directory read-only for fsync is POSIX-only; on
        // platforms where it fails, durability degrades to
        // process-crash-only rather than erroring the commit.
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all()?;
        }
        Ok(())
    }

    /// Loads and verifies the manifest from `dir`: magic, version, and
    /// the checksum over the stored body bytes must all match before the
    /// body is decoded.
    pub fn load(dir: impl AsRef<Path>) -> Result<FleetManifest, PersistError> {
        let bytes = fs::read(dir.as_ref().join(MANIFEST_FILE))?;
        if bytes.len() < MANIFEST_HEADER_LEN || bytes[..4] != MANIFEST_MAGIC {
            return Err(PersistError::Format("not a fleet manifest (bad magic)".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != MANIFEST_VERSION {
            return Err(PersistError::Incompatible(format!(
                "manifest version {version} (supported: {MANIFEST_VERSION})"
            )));
        }
        let stored = u64::from_le_bytes(bytes[8..MANIFEST_HEADER_LEN].try_into().expect("8 bytes"));
        let body = &bytes[MANIFEST_HEADER_LEN..];
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(PersistError::Incompatible(format!(
                "manifest checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            )));
        }
        let premises =
            serde::bin::from_bytes(body).map_err(|e| PersistError::Format(e.to_string()))?;
        Ok(FleetManifest { premises })
    }

    /// Verifies that every referenced snapshot file exists in `dir` and
    /// matches its recorded checksum.
    pub fn verify_snapshots(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        // Many entries may share one snapshot file (e.g. a common seed
        // model fanned out to thousands of premises) — hash each
        // distinct file once, not once per entry.
        let mut cache: std::collections::HashMap<&str, String> = std::collections::HashMap::new();
        for e in &self.premises {
            let got = match cache.get(e.snapshot_file.as_str()) {
                Some(h) => h.clone(),
                None => {
                    let bytes = fs::read(dir.join(&e.snapshot_file))?;
                    let h = fnv1a64_hex(&bytes);
                    cache.insert(e.snapshot_file.as_str(), h.clone());
                    h
                }
            };
            if got != e.snapshot_checksum {
                return Err(PersistError::Incompatible(format!(
                    "snapshot {} for premises {} is corrupt (stored {}, computed {got})",
                    e.snapshot_file, e.premises_id, e.snapshot_checksum
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_rfsim::{Scenario, ScenarioConfig};
    use gem_signal::Label;

    fn trained_gem() -> (Gem, gem_signal::Dataset) {
        let mut cfg = ScenarioConfig::user(1);
        cfg.train_duration_s = 150.0;
        cfg.n_test_in = 30;
        cfg.n_test_out = 30;
        let ds = Scenario::build(cfg).generate();
        (Gem::fit(GemConfig::default(), &ds.train), ds)
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (gem, ds) = trained_gem();
        let json = GemSnapshot::capture(&gem).to_json().unwrap();
        let restored = GemSnapshot::from_json(&json).unwrap().restore().unwrap();
        // The restored system must make identical decisions.
        let mut a = gem;
        let mut b = restored;
        for t in &ds.test {
            let da = a.infer(&t.record);
            let db = b.infer(&t.record);
            assert_eq!(da.label, db.label);
            assert!((da.score - db.score).abs() < 1e-12);
        }
    }

    #[test]
    fn snapshot_preserves_online_state() {
        let (mut gem, ds) = trained_gem();
        for t in ds.test.iter().take(20) {
            gem.infer(&t.record);
        }
        let n_records = gem.graph().n_records();
        let n_updates = gem.detector().n_updates;
        let restored = GemSnapshot::capture(&gem).to_json().unwrap();
        let restored = GemSnapshot::from_json(&restored).unwrap().restore().unwrap();
        assert_eq!(restored.graph().n_records(), n_records);
        assert_eq!(restored.detector().n_updates, n_updates);
    }

    #[test]
    fn save_load_via_files() {
        let (gem, _) = trained_gem();
        let path = std::env::temp_dir().join("gem_persist_test.json");
        gem.save(&path).unwrap();
        let restored = Gem::load(&path).unwrap();
        assert_eq!(restored.graph().n_edges(), gem.graph().n_edges());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_corrupted_snapshots() {
        assert!(matches!(GemSnapshot::from_json("not json"), Err(PersistError::Format(_))));
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        snap.version = 99;
        let json = snap.to_json().unwrap();
        assert!(matches!(
            GemSnapshot::from_json(&json).unwrap().restore(),
            Err(PersistError::Incompatible(_))
        ));
    }

    #[test]
    fn rejects_inconsistent_trust_bits() {
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        snap.trusted.pop();
        assert!(matches!(snap.restore(), Err(PersistError::Incompatible(_))));
    }

    #[test]
    fn restored_system_keeps_learning() {
        let (gem, ds) = trained_gem();
        let mut restored = GemSnapshot::capture(&gem)
            .to_json()
            .and_then(|j| GemSnapshot::from_json(&j))
            .unwrap()
            .restore()
            .unwrap();
        let before = restored.graph().n_records();
        let mut saw_in = false;
        for t in &ds.test {
            let d = restored.infer(&t.record);
            saw_in |= d.label == Label::In;
        }
        assert!(restored.graph().n_records() > before);
        assert!(saw_in, "restored model should accept some in-premises scans");
    }

    #[test]
    fn snapshot_resumes_rng_stream() {
        let (mut gem, ds) = trained_gem();
        // Advance the online stream so the RNG is mid-sequence.
        for t in ds.test.iter().take(10) {
            gem.infer(&t.record);
        }
        let state = gem.rng_state();
        let restored = GemSnapshot::capture(&gem)
            .to_json()
            .and_then(|j| GemSnapshot::from_json(&j))
            .unwrap()
            .restore()
            .unwrap();
        assert_eq!(restored.rng_state(), state, "restore must resume the exact RNG state");
        // A pre-rng snapshot (field absent) still restores, with a fresh
        // seed-derived stream.
        let mut snap = GemSnapshot::capture(&gem);
        snap.rng = None;
        assert!(snap.restore().is_ok());
    }

    #[test]
    fn manifest_roundtrips_and_verifies() {
        let dir = std::env::temp_dir().join("gem_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("premises-7.json");
        std::fs::write(&snap_path, b"{\"stub\":true}").unwrap();
        let checksum = fnv1a64_hex(&std::fs::read(&snap_path).unwrap());
        let manifest = FleetManifest::new(vec![
            PremisesEntry {
                premises_id: 9,
                snapshot_file: "premises-9.json".into(),
                snapshot_checksum: "0".repeat(16),
                epochs: 3,
                sidecar: serde_json::Value::Null,
            },
            PremisesEntry {
                premises_id: 7,
                snapshot_file: "premises-7.json".into(),
                snapshot_checksum: checksum,
                epochs: 12,
                sidecar: serde_json::Value::Object(vec![(
                    "alerts".to_string(),
                    serde_json::Value::U64(2),
                )]),
            },
        ]);
        manifest.save(&dir).unwrap();
        let loaded = FleetManifest::load(&dir).unwrap();
        // Entries are sorted by premises id and survive the roundtrip.
        assert_eq!(loaded.premises.len(), 2);
        assert_eq!(loaded.premises[0].premises_id, 7);
        assert_eq!(loaded.entry(7).unwrap().epochs, 12);
        let sidecar = loaded.entry(7).unwrap().sidecar.as_object().unwrap();
        assert_eq!(serde::get_field_opt(sidecar, "alerts").unwrap().as_u64(), Some(2));
        // The referenced snapshot verifies; the missing one fails I/O.
        assert!(matches!(loaded.verify_snapshots(&dir), Err(PersistError::Io(_))));
        let only_seven = FleetManifest::new(vec![loaded.entry(7).unwrap().clone()]);
        only_seven.save(&dir).unwrap();
        FleetManifest::load(&dir).unwrap().verify_snapshots(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_tampering() {
        let dir = std::env::temp_dir().join("gem_manifest_tamper_test");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = FleetManifest::new(vec![PremisesEntry {
            premises_id: 1,
            snapshot_file: "premises-1.json".into(),
            snapshot_checksum: "0".repeat(16),
            epochs: 5,
            sidecar: serde_json::Value::Null,
        }]);
        manifest.save(&dir).unwrap();
        // Flip the recorded epoch count in the file: the body checksum no
        // longer matches and the load must fail.
        let path = dir.join(MANIFEST_FILE);
        let mut tampered = std::fs::read(&path).unwrap();
        let at = tampered.windows(8).position(|w| w == 5u64.to_le_bytes()).unwrap();
        tampered[at] = 6;
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(FleetManifest::load(&dir), Err(PersistError::Incompatible(_))));
        // A file that is not a manifest at all is a format error.
        std::fs::write(&path, b"{\"premises\":[]}").unwrap();
        assert!(matches!(FleetManifest::load(&dir), Err(PersistError::Format(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_roundtrips_and_reads_the_json_export_too() {
        let (mut gem, ds) = trained_gem();
        for t in ds.test.iter().take(10) {
            gem.infer(&t.record);
        }
        let snap = GemSnapshot::capture(&gem);
        let json = snap.to_json().unwrap();
        let image = snap.to_image();
        assert!(image.len() < json.len() / 2, "image {} vs json {}", image.len(), json.len());
        // Both forms decode through the one entry point to the same state.
        for bytes in [image.as_slice(), json.as_bytes()] {
            let back = GemSnapshot::from_image(bytes).unwrap();
            assert_eq!(back.to_json().unwrap(), json);
            assert_eq!(back.to_image(), image);
        }
        // Wrong version, truncation, trailing bytes and unknown leading
        // bytes all refuse.
        let mut wrong = image.clone();
        wrong[4] ^= 1;
        assert!(matches!(GemSnapshot::from_image(&wrong), Err(PersistError::Incompatible(_))));
        for cut in [0, 3, 7, 8, image.len() / 2, image.len() - 1] {
            assert!(matches!(GemSnapshot::from_image(&image[..cut]), Err(PersistError::Format(_))));
        }
        let mut trailing = image.clone();
        trailing.push(0);
        assert!(matches!(GemSnapshot::from_image(&trailing), Err(PersistError::Format(_))));
        assert!(matches!(GemSnapshot::from_image(b"GEM"), Err(PersistError::Format(_))));
        // `load` reads an image file as readily as the JSON export.
        let path = std::env::temp_dir().join("gem_persist_image_test.bin");
        std::fs::write(&path, &image).unwrap();
        assert_eq!(GemSnapshot::load(&path).unwrap().to_image(), image);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_checksum_is_stable() {
        // Reference vectors for FNV-1a 64 (from the published parameters)
        // — the on-disk format depends on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64_hex(b"foobar"), "85944171f73967e8");
    }
}
