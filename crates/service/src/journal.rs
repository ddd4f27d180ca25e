//! Write-ahead journal for fleet decision epochs.
//!
//! Each shard appends one frame per decision epoch *before* processing
//! it. Frames use the wire protocol's header — `u32` LE payload length,
//! `u64` LE [`fnv1a64`](gem_core::fnv1a64) of the payload — around a
//! [`JournalEntry`] (the premises, the epoch number and the exact
//! records in the batch) in the `serde::bin` layout. Replay after a
//! crash re-runs `Monitor::process_batch` on the recorded batches, which
//! reproduces the uninterrupted decision stream bit for bit (model
//! updates and the RNG stream are resumed from the snapshot).
//!
//! The reader follows the wire's torn-versus-clean-EOF rule. A file that
//! ends exactly at a frame boundary is clean. A bad or incomplete *final*
//! frame is a torn tail — the crash case an append-only log actually
//! produces — and is dropped, as is a bad frame followed only by zero
//! bytes (a file system may extend a file before the data of an
//! unsynced append reaches the disk). Any other bad frame is corruption
//! of already-acknowledged epochs and fails the read
//! ([`io::ErrorKind::InvalidData`]) instead of silently truncating: a
//! bad frame with other bytes after it, and a bad frame that merely
//! *looks* torn while an intact frame starts somewhere after it (a
//! damaged length field can point past the end of the file).
//! [`JournalWriter::open`] cuts a torn tail off before appending, so new
//! frames always follow the last intact one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use gem_signal::SignalRecord;

use crate::obs::JournalObs;
use crate::wire::{open_frame, seal_frame, HEADER_LEN};

/// One journaled decision epoch: the replay unit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Tenant the batch belongs to.
    pub premises_id: u64,
    /// Epoch number, per premises, contiguous from 1. An entry is
    /// replayed when its epoch exceeds the manifest watermark.
    pub epoch: u64,
    /// The records of the batch, in submission order.
    pub records: Vec<SignalRecord>,
}

/// Journal filename for one shard.
pub fn journal_file(shard: usize) -> String {
    format!("journal-shard-{shard}.log")
}

/// Appends one journal frame for `entry` to `buf`; returns its length.
fn encode_frame(entry: &JournalEntry, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; HEADER_LEN]);
    entry.encode(buf);
    seal_frame(buf, start)
}

/// Append-side handle, owned by a shard.
pub struct JournalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    obs: Option<JournalObs>,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal in append mode. A torn
    /// tail a crash left behind is cut off and the cut synced first:
    /// appending behind it would bury it mid-file, where it reads as
    /// corruption. A journal corrupted before its tail fails with
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(path: impl Into<PathBuf>) -> io::Result<JournalWriter> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let (_, intact) = read_frames(&path)?;
        if file.metadata()?.len() > intact {
            file.set_len(intact)?;
            file.sync_data()?;
        }
        Ok(JournalWriter { path, file: BufWriter::new(file), obs: None })
    }

    /// Attaches timing/volume instruments (see [`JournalObs`]).
    pub fn set_obs(&mut self, obs: JournalObs) {
        self.obs = Some(obs);
    }

    /// The journal file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one epoch and syncs it to stable storage. Must be called
    /// before the epoch is processed (write-ahead), so a crash mid-epoch
    /// replays it instead of losing it. The `sync_data` makes the
    /// guarantee hold for power loss and kernel panics, not just process
    /// crashes. Returns the bytes appended.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<usize> {
        let bytes = self.append_nosync(entry)?;
        self.commit()?;
        Ok(bytes)
    }

    /// Appends one epoch *without* syncing. A shard draining several
    /// premises in one pass journals every selected epoch with this and
    /// then calls [`commit`](Self::commit) once, amortizing the fsync
    /// across the pass. Write-ahead still holds for every entry: the
    /// commit must complete before any of the pass's epochs is
    /// processed. Returns the bytes appended.
    pub fn append_nosync(&mut self, entry: &JournalEntry) -> io::Result<usize> {
        let timed = self.obs.as_ref().filter(|o| o.enabled).map(|_| Instant::now());
        let mut frame = Vec::new();
        let bytes = encode_frame(entry, &mut frame);
        self.file.write_all(&frame)?;
        if let (Some(obs), Some(start)) = (&self.obs, timed) {
            obs.append_seconds.record(elapsed_ns(start));
        }
        if let Some(obs) = &self.obs {
            obs.appends.inc();
            obs.bytes.add(bytes as u64);
        }
        Ok(bytes)
    }

    /// Flushes and syncs everything appended so far to stable storage.
    /// The durability barrier for [`append_nosync`](Self::append_nosync).
    pub fn commit(&mut self) -> io::Result<()> {
        let timed = self.obs.as_ref().filter(|o| o.enabled).map(|_| Instant::now());
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        if let (Some(obs), Some(start)) = (&self.obs, timed) {
            obs.fsync_seconds.record(elapsed_ns(start));
        }
        Ok(())
    }

    /// Rewrites the journal keeping only the entries `keep` accepts —
    /// the truncation primitive for snapshot commits: entries folded
    /// into the committed manifest go, entries past its watermark stay.
    ///
    /// The rewrite is crash-safe: the retained entries are written to a
    /// temp file, synced, and renamed over the journal, so a crash at
    /// any point leaves either the old journal or the pruned one —
    /// never a partial rewrite.
    /// Returns the number of entries pruned.
    pub fn retain(&mut self, keep: impl Fn(&JournalEntry) -> bool) -> io::Result<usize> {
        let timed = self.obs.as_ref().filter(|o| o.enabled).map(|_| Instant::now());
        let pruned = self.retain_inner(keep)?;
        if let (Some(obs), Some(start)) = (&self.obs, timed) {
            obs.retain_seconds.record(elapsed_ns(start));
        }
        Ok(pruned)
    }

    /// Incremental-snapshot-aware truncation: prunes entries at or below
    /// each premises' committed watermark, keeping entries for premises
    /// the map doesn't mention (they were never snapshotted, so every
    /// journaled epoch is still the only durable copy). Runs on the
    /// owning shard between drain passes — no fleet-wide lock is needed
    /// because each shard only rewrites its own journal file, and the
    /// watermarks passed in come from an already-committed manifest.
    /// Returns the number of entries pruned.
    pub fn retain_committed(
        &mut self,
        watermarks: &std::collections::HashMap<u64, u64>,
    ) -> io::Result<usize> {
        self.retain(|e| watermarks.get(&e.premises_id).is_none_or(|&w| e.epoch > w))
    }

    fn retain_inner(&mut self, keep: impl Fn(&JournalEntry) -> bool) -> io::Result<usize> {
        self.file.flush()?;
        let entries = read_journal(&self.path)?;
        let tmp = self.path.with_extension("log.tmp");
        let mut kept = 0usize;
        {
            let mut bytes = Vec::new();
            for entry in entries.iter().filter(|e| keep(e)) {
                encode_frame(entry, &mut bytes);
                kept += 1;
            }
            let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = BufWriter::new(OpenOptions::new().create(true).append(true).open(&self.path)?);
        Ok(entries.len() - kept)
    }
}

/// Saturating nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Reads one journal file (a missing file is an empty journal). A torn
/// tail is dropped; any other bad frame fails the read with
/// [`io::ErrorKind::InvalidData`] (see the module docs).
pub fn read_journal(path: impl AsRef<Path>) -> io::Result<Vec<JournalEntry>> {
    read_frames(path.as_ref()).map(|(entries, _)| entries)
}

/// The entries of one journal file, and the length of the file's intact
/// part: everything before a torn tail.
fn read_frames(path: &Path) -> io::Result<(Vec<JournalEntry>, u64)> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    let mut rest = &bytes[..];
    while let Some((entry, after)) = intact_frame(rest) {
        entries.push(entry);
        rest = after;
    }
    let at = bytes.len() - rest.len();
    // Torn: the file ends inside this frame or only zeros follow it, and
    // no intact frame starts anywhere after its first byte.
    let torn = open_frame(rest).is_none_or(|(_, _, after)| after.iter().all(|&b| b == 0))
        && (1..rest.len()).all(|i| intact_frame(&rest[i..]).is_none());
    if !torn {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal {}: corrupt frame at byte {at} of {}", path.display(), bytes.len()),
        ));
    }
    Ok((entries, at as u64))
}

/// The entry in the frame at the front of `bytes` and the bytes after
/// it, if the frame is whole, matches its checksum and decodes.
fn intact_frame(bytes: &[u8]) -> Option<(JournalEntry, &[u8])> {
    match open_frame(bytes)? {
        (true, payload, after) => Some((serde::bin::from_bytes(payload).ok()?, after)),
        (false, ..) => None,
    }
}

/// Reads every `journal-shard-*.log` in a durability directory, in
/// filename order. Shard counts may change between runs; per-premises
/// epoch numbers, not file layout, define what replays.
pub fn read_all_journals(dir: impl AsRef<Path>) -> io::Result<Vec<JournalEntry>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-shard-") && n.ends_with(".log"))
        })
        .collect();
    files.sort();
    let mut entries = Vec::new();
    for f in files {
        entries.extend(read_journal(f)?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_signal::MacAddr;

    fn entry(premises: u64, epoch: u64) -> JournalEntry {
        JournalEntry {
            premises_id: premises,
            epoch,
            records: vec![SignalRecord::from_pairs(
                epoch as f64,
                [(MacAddr::from_raw(0xA0), -50.0), (MacAddr::from_raw(0xA1), -60.0)],
            )],
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = std::env::temp_dir().join("gem_journal_rt");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(9, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(back, vec![entry(7, 1), entry(9, 1), entry(7, 2)]);
        // Reopening appends after existing entries.
        drop(w);
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(9, 2)).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = std::env::temp_dir().join("gem_journal_torn");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        // Simulate a crash mid-write: chop bytes off the last line.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(back, vec![entry(7, 1)], "torn tail line must be dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_final_frame_is_a_torn_tail() {
        let dir = std::env::temp_dir().join("gem_journal_bad_tail");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        let clean = fs::read(&path).unwrap();
        let (_, _, last_frame) = open_frame(&clean).unwrap();
        let last_start = clean.len() - last_frame.len();
        // A complete final frame whose payload no longer matches its
        // checksum, and one whose length now points past the end of the
        // file, are dropped like a short one.
        for (at, mask) in [(clean.len() - 1, 0x01), (last_start + 2, 0x80)] {
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_journal(&path).unwrap(), vec![entry(7, 1)], "flip at {at}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_filled_tail_is_torn() {
        let dir = std::env::temp_dir().join("gem_journal_zero_tail");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        let clean = fs::read(&path).unwrap();
        let (_, _, after) = open_frame(&clean).unwrap();
        let first = clean.len() - after.len();
        // A tail of zeros where unsynced appends were, starting at a frame
        // boundary or inside the second frame.
        for zero_from in [first, first + 5, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[zero_from..].fill(0);
            bytes.extend_from_slice(&[0; 40]);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_journal(&path).unwrap(), vec![entry(7, 1)], "zeros from {zero_from}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let dir = std::env::temp_dir().join("gem_journal_corrupt_mid");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        for epoch in 1..=3 {
            w.append(&entry(7, epoch)).unwrap();
        }
        let clean = fs::read(&path).unwrap();
        // A flipped byte in the middle frame, a byte that is not UTF-8
        // (the text journal failed the whole read on one), and a first
        // frame whose length now points past the end of the file — it
        // looks torn, but intact frames follow. All sit before
        // acknowledged epochs, so the read must fail loudly.
        let cases =
            [(clean.len() / 2, None), (HEADER_LEN + 3, Some(0xFF)), (2, Some(clean[2] ^ 0x80))];
        for (at, value) in cases {
            let mut bytes = clean.clone();
            bytes[at] = value.unwrap_or(bytes[at] ^ 0x10);
            fs::write(&path, &bytes).unwrap();
            let err = read_journal(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_cuts_a_torn_tail_before_appending() {
        let dir = std::env::temp_dir().join("gem_journal_reopen_torn");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        drop(w);
        let clean = fs::read(&path).unwrap();
        let mut zero_tail = clean.clone();
        zero_tail.extend_from_slice(&[0; 40]);
        // A short final frame, and zeros where unsynced appends were.
        for torn in [clean[..clean.len() - 5].to_vec(), zero_tail] {
            fs::write(&path, &torn).unwrap();
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(&entry(7, 3)).unwrap();
            w.append(&entry(7, 4)).unwrap();
            let kept = read_journal(&path).unwrap();
            let epochs: Vec<u64> = kept.iter().map(|e| e.epoch).collect();
            let expected: &[u64] =
                if torn.len() < clean.len() { &[1, 3, 4] } else { &[1, 2, 3, 4] };
            assert_eq!(epochs, expected);
            // The pruning rewrite reads the same file and must not trip.
            assert_eq!(w.retain(|e| e.epoch > 1).unwrap(), 1);
        }
        // Mid-file corruption is not cut away: opening refuses it.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 1] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = JournalWriter::open(&path).err().expect("corrupt journal opened");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "a refused open leaves the file alone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_prunes_committed_entries_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join("gem_journal_retain");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(9, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        // Commit watermark: premises 7 snapshotted at epoch 1, premises 9
        // at epoch 1 — only 7's epoch 2 is past the manifest.
        w.retain(|e| e.epoch > 1).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![entry(7, 2)]);
        // The writer keeps appending after the retained entries.
        w.append(&entry(9, 2)).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![entry(7, 2), entry(9, 2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_committed_prunes_per_premises_watermarks() {
        let dir = std::env::temp_dir().join("gem_journal_retain_committed");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(journal_file(0));
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&entry(7, 1)).unwrap();
        w.append(&entry(7, 2)).unwrap();
        w.append(&entry(9, 1)).unwrap();
        w.append(&entry(11, 1)).unwrap();
        // 7 committed through epoch 1, 9 through epoch 1; 11 was never
        // snapshotted so its entries must survive untouched.
        let watermarks = std::collections::HashMap::from([(7u64, 1u64), (9, 1), (13, 5)]);
        let pruned = w.retain_committed(&watermarks).unwrap();
        assert_eq!(pruned, 2);
        assert_eq!(read_journal(&path).unwrap(), vec![entry(7, 2), entry(11, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_all_shard_journals_and_ignores_missing() {
        let dir = std::env::temp_dir().join("gem_journal_all");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(read_journal(dir.join(journal_file(0))).unwrap().is_empty());
        let mut w0 = JournalWriter::open(dir.join(journal_file(0))).unwrap();
        let mut w1 = JournalWriter::open(dir.join(journal_file(1))).unwrap();
        w0.append(&entry(2, 1)).unwrap();
        w1.append(&entry(3, 1)).unwrap();
        fs::write(dir.join("manifest.json"), "{}").unwrap();
        let all = read_all_journals(&dir).unwrap();
        assert_eq!(all.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
