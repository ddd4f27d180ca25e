//! RF signal records and record sets.
//!
//! A [`SignalRecord`] is one WiFi scan: the list of MAC addresses heard at a
//! given instant together with their received signal strength (RSS) values
//! in dBm. Records are *variable length* — the set of audible MACs changes
//! from spot to spot and over time — which is the core data-representation
//! problem the paper addresses.

use serde::{Deserialize, Serialize};

use crate::mac::MacAddr;

/// One `(MAC, RSS)` observation inside a scan.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// Transceiver that was heard.
    pub mac: MacAddr,
    /// Received signal strength in dBm (negative; stronger is closer to 0).
    pub rssi: f32,
}

impl Reading {
    /// Convenience constructor.
    pub fn new(mac: MacAddr, rssi: f32) -> Self {
        Reading { mac, rssi }
    }
}

/// One RF scan event: a timestamp plus a variable-length list of readings.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalRecord {
    /// Seconds since the start of the collection session.
    pub timestamp_s: f64,
    /// Observed `(MAC, RSS)` pairs. At most one reading per MAC; use
    /// [`SignalRecord::push`] to keep the strongest when duplicates occur.
    pub readings: Vec<Reading>,
}

impl SignalRecord {
    /// Creates an empty record at the given timestamp.
    pub fn new(timestamp_s: f64) -> Self {
        SignalRecord { timestamp_s, readings: Vec::new() }
    }

    /// Creates a record from `(mac, rssi)` pairs.
    pub fn from_pairs(timestamp_s: f64, pairs: impl IntoIterator<Item = (MacAddr, f32)>) -> Self {
        let mut rec = SignalRecord::new(timestamp_s);
        for (mac, rssi) in pairs {
            rec.push(mac, rssi);
        }
        rec
    }

    /// Adds a reading; if the MAC is already present the stronger RSS wins.
    pub fn push(&mut self, mac: MacAddr, rssi: f32) {
        if let Some(existing) = self.readings.iter_mut().find(|r| r.mac == mac) {
            if rssi > existing.rssi {
                existing.rssi = rssi;
            }
        } else {
            self.readings.push(Reading::new(mac, rssi));
        }
    }

    /// Number of MACs heard in this scan.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the scan heard nothing at all.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Returns the RSS for `mac` if it was heard.
    pub fn rssi_of(&self, mac: MacAddr) -> Option<f32> {
        self.readings.iter().find(|r| r.mac == mac).map(|r| r.rssi)
    }

    /// Iterates over the MACs heard in this scan.
    pub fn macs(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.readings.iter().map(|r| r.mac)
    }

    /// The strongest reading, if any — used e.g. by the SignatureHome
    /// baseline as the "associated AP" proxy.
    pub fn strongest(&self) -> Option<Reading> {
        self.readings.iter().copied().max_by(|a, b| a.rssi.total_cmp(&b.rssi))
    }

    /// Removes readings for MACs not accepted by the predicate. Returns the
    /// number of readings removed.
    pub fn retain_macs(&mut self, mut keep: impl FnMut(MacAddr) -> bool) -> usize {
        let before = self.readings.len();
        self.readings.retain(|r| keep(r.mac));
        before - self.readings.len()
    }
}

/// A dense, padded matrix view of a record set (records × MACs).
///
/// This is the representation used by the matrix-based baselines
/// (SignatureHome, INOA, autoencoder, MDS): one column per MAC in a fixed
/// universe, missing entries padded with a small constant (the paper uses
/// -120 dBm). GEM itself never needs this — that is the point of the
/// bipartite graph model — but the comparisons do.
#[derive(Clone, Debug, PartialEq)]
pub struct PaddedMatrix {
    /// MAC universe in column order (sorted, deduplicated).
    pub macs: Vec<MacAddr>,
    /// Row-major data: `rows × macs.len()` RSS values in dBm.
    pub data: Vec<f32>,
    /// Number of rows (records).
    pub rows: usize,
    /// Pad value used for missing entries.
    pub pad: f32,
}

impl PaddedMatrix {
    /// Number of columns (MACs).
    pub fn cols(&self) -> usize {
        self.macs.len()
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Projects a single record onto this matrix's MAC universe,
    /// padding missing MACs and dropping unknown ones. Returns the dense
    /// vector together with the number of readings that were dropped
    /// because their MAC is outside the universe.
    pub fn project(&self, record: &SignalRecord) -> (Vec<f32>, usize) {
        let mut row = vec![self.pad; self.cols()];
        let mut dropped = 0usize;
        for r in &record.readings {
            match self.macs.binary_search(&r.mac) {
                Ok(j) => row[j] = r.rssi,
                Err(_) => dropped += 1,
            }
        }
        (row, dropped)
    }
}

/// An ordered collection of signal records with set-level helpers.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RecordSet {
    records: Vec<SignalRecord>,
}

impl RecordSet {
    /// Creates an empty record set.
    pub fn new() -> Self {
        RecordSet { records: Vec::new() }
    }

    /// Wraps an existing vector of records.
    pub fn from_records(records: Vec<SignalRecord>) -> Self {
        RecordSet { records }
    }

    /// Appends a record.
    pub fn push(&mut self, record: SignalRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrow the records.
    pub fn records(&self) -> &[SignalRecord] {
        &self.records
    }

    /// Mutably borrow the records.
    pub fn records_mut(&mut self) -> &mut [SignalRecord] {
        &mut self.records
    }

    /// Consumes the set and returns the records.
    pub fn into_records(self) -> Vec<SignalRecord> {
        self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, SignalRecord> {
        self.records.iter()
    }

    /// The sorted, deduplicated MAC universe observed across all records.
    pub fn mac_universe(&self) -> Vec<MacAddr> {
        let mut macs: Vec<MacAddr> = self.records.iter().flat_map(|r| r.macs()).collect();
        macs.sort_unstable();
        macs.dedup();
        macs
    }

    /// Mean and standard deviation of every RSS reading in the set, plus
    /// the number of distinct MACs — the statistics reported in the
    /// paper's Table IV.
    pub fn rss_stats(&self) -> RssStats {
        let mut n = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for rec in &self.records {
            for r in &rec.readings {
                n += 1;
                sum += r.rssi as f64;
                sum_sq += (r.rssi as f64) * (r.rssi as f64);
            }
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        let var =
            if n < 2 { 0.0 } else { ((sum_sq - sum * sum / n as f64) / (n as f64 - 1.0)).max(0.0) };
        RssStats {
            mean_dbm: mean,
            sd_dbm: var.sqrt(),
            n_readings: n,
            n_macs: self.mac_universe().len(),
        }
    }

    /// Builds the padded matrix view over this set's own MAC universe.
    pub fn to_matrix(&self, pad: f32) -> PaddedMatrix {
        self.to_matrix_with_universe(self.mac_universe(), pad)
    }

    /// Builds the padded matrix view over a caller-provided MAC universe
    /// (must be sorted). Readings outside the universe are dropped, exactly
    /// like the fixed-length conversions of the matrix baselines.
    pub fn to_matrix_with_universe(&self, macs: Vec<MacAddr>, pad: f32) -> PaddedMatrix {
        debug_assert!(macs.windows(2).all(|w| w[0] < w[1]), "universe must be sorted+unique");
        let cols = macs.len();
        let mut data = vec![pad; self.records.len() * cols];
        for (i, rec) in self.records.iter().enumerate() {
            for r in &rec.readings {
                if let Ok(j) = macs.binary_search(&r.mac) {
                    data[i * cols + j] = r.rssi;
                }
            }
        }
        PaddedMatrix { macs, data, rows: self.records.len(), pad }
    }

    /// Splits the set into `k` nearly-equal contiguous chunks (used by the
    /// training-ratio and update-ratio experiments, Fig. 9).
    pub fn chunks(&self, k: usize) -> Vec<RecordSet> {
        assert!(k > 0, "chunk count must be positive");
        let n = self.records.len();
        let base = n / k;
        let extra = n % k;
        let mut out = Vec::with_capacity(k);
        let mut idx = 0usize;
        for c in 0..k {
            let take = base + usize::from(c < extra);
            out.push(RecordSet::from_records(self.records[idx..idx + take].to_vec()));
            idx += take;
        }
        out
    }
}

impl FromIterator<SignalRecord> for RecordSet {
    fn from_iter<T: IntoIterator<Item = SignalRecord>>(iter: T) -> Self {
        RecordSet { records: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a RecordSet {
    type Item = &'a SignalRecord;
    type IntoIter = std::slice::Iter<'a, SignalRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Aggregate RSS statistics over a record set (cf. paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RssStats {
    /// Mean RSS over all readings, dBm.
    pub mean_dbm: f64,
    /// Sample standard deviation of RSS, dBm.
    pub sd_dbm: f64,
    /// Total number of readings.
    pub n_readings: usize,
    /// Number of distinct MACs.
    pub n_macs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_raw(i)
    }

    fn rec(t: f64, pairs: &[(u64, f32)]) -> SignalRecord {
        SignalRecord::from_pairs(t, pairs.iter().map(|&(m, r)| (mac(m), r)))
    }

    #[test]
    fn push_keeps_strongest_duplicate() {
        let mut r = SignalRecord::new(0.0);
        r.push(mac(1), -70.0);
        r.push(mac(1), -60.0);
        r.push(mac(1), -80.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rssi_of(mac(1)), Some(-60.0));
    }

    #[test]
    fn strongest_reading() {
        let r = rec(0.0, &[(1, -70.0), (2, -55.0), (3, -90.0)]);
        assert_eq!(r.strongest().unwrap().mac, mac(2));
        assert!(SignalRecord::new(0.0).strongest().is_none());
    }

    #[test]
    fn mac_universe_sorted_unique() {
        let rs = RecordSet::from_records(vec![
            rec(0.0, &[(5, -50.0), (1, -60.0)]),
            rec(1.0, &[(1, -62.0), (9, -70.0)]),
        ]);
        assert_eq!(rs.mac_universe(), vec![mac(1), mac(5), mac(9)]);
    }

    #[test]
    fn matrix_pads_missing_entries() {
        let rs = RecordSet::from_records(vec![rec(0.0, &[(1, -50.0)]), rec(1.0, &[(2, -60.0)])]);
        let m = rs.to_matrix(-120.0);
        assert_eq!(m.rows, 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[-50.0, -120.0]);
        assert_eq!(m.row(1), &[-120.0, -60.0]);
    }

    #[test]
    fn matrix_with_foreign_universe_drops_unknowns() {
        let rs = RecordSet::from_records(vec![rec(0.0, &[(1, -50.0), (7, -55.0)])]);
        let m = rs.to_matrix_with_universe(vec![mac(1), mac(2)], -120.0);
        assert_eq!(m.row(0), &[-50.0, -120.0]);
        let (row, dropped) = m.project(&rec(0.0, &[(2, -40.0), (9, -45.0)]));
        assert_eq!(row, vec![-120.0, -40.0]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn rss_stats_match_hand_computation() {
        let rs = RecordSet::from_records(vec![
            rec(0.0, &[(1, -60.0), (2, -70.0)]),
            rec(1.0, &[(1, -80.0)]),
        ]);
        let s = rs.rss_stats();
        assert_eq!(s.n_readings, 3);
        assert_eq!(s.n_macs, 2);
        assert!((s.mean_dbm - (-70.0)).abs() < 1e-9);
        assert!((s.sd_dbm - 10.0).abs() < 1e-9);
    }

    #[test]
    fn chunks_partition_everything() {
        let rs: RecordSet = (0..10).map(|i| rec(i as f64, &[(1, -50.0)])).collect();
        let parts = rs.chunks(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        assert_eq!(parts[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(parts[1].len(), 3);
    }

    #[test]
    fn retain_macs_filters() {
        let mut r = rec(0.0, &[(1, -50.0), (2, -60.0), (3, -70.0)]);
        let removed = r.retain_macs(|m| m.raw() != 2);
        assert_eq!(removed, 1);
        assert_eq!(r.len(), 2);
        assert!(r.rssi_of(mac(2)).is_none());
    }
}
