//! Write-ahead log for engine mutations.
//!
//! The disk-backed engine commits every mutation to this log *before*
//! touching the R-tree, so a crash at any instant loses at most the
//! record being appended. Recovery replays the intact prefix of the log
//! on top of the last checkpointed tree image; records already covered
//! by the checkpoint (sequence number at or below the checkpoint's
//! high-water mark, which the tree stores in its header metadata) are
//! skipped.
//!
//! # On-disk format
//!
//! The log is a sequence of self-delimiting frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [seq: u64] [kind: u8] [oid: u64] [dim: u32] [coords: f64 × n]
//! ```
//!
//! `kind` is 1 (insert, `dim` coordinates), 2 (remove, `dim`
//! coordinates) or 3 (update, `2·dim` coordinates: old point then new).
//! All integers and floats are little-endian. The CRC is the same
//! IEEE-802.3 polynomial the page store uses for its header
//! ([`mpq_rtree::disk::crc32`]).
//!
//! Replay stops at the first frame that is truncated, oversized, or
//! fails its CRC — everything after a torn write is garbage by
//! definition — and the file is trimmed back to the intact prefix so
//! subsequent appends extend a clean log.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use mpq_rtree::disk::crc32;
use mpq_rtree::fault::{flip_one_bit, FaultInjector, FaultOp, WriteFault};

/// Frame header: length + CRC, 4 bytes each.
const FRAME_HEADER: usize = 8;
/// Payload prefix: seq (8) + kind (1) + oid (8) + dim (4).
const PAYLOAD_PREFIX: usize = 21;
/// Upper bound on a sane payload (a record holds at most two points).
const MAX_PAYLOAD: usize = 1 << 20;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A new object `oid` at `point` entered the inventory.
    Insert {
        /// Object id assigned to the new object.
        oid: u64,
        /// Its attribute vector.
        point: Box<[f64]>,
    },
    /// Object `oid`, previously at `point`, left the inventory.
    Remove {
        /// Object id of the removed object.
        oid: u64,
        /// The attribute vector it had (needed to delete from the tree).
        point: Box<[f64]>,
    },
    /// Object `oid` moved from `old` to `new`.
    Update {
        /// Object id of the updated object.
        oid: u64,
        /// Attribute vector before the update.
        old: Box<[f64]>,
        /// Attribute vector after the update.
        new: Box<[f64]>,
    },
}

impl WalRecord {
    /// The object this record mutates.
    pub fn oid(&self) -> u64 {
        match self {
            WalRecord::Insert { oid, .. }
            | WalRecord::Remove { oid, .. }
            | WalRecord::Update { oid, .. } => *oid,
        }
    }

    /// Dimensionality of the record's point(s).
    pub fn dim(&self) -> usize {
        match self {
            WalRecord::Insert { point, .. } | WalRecord::Remove { point, .. } => point.len(),
            WalRecord::Update { old, .. } => old.len(),
        }
    }
}

/// Serialize a record (with its sequence number) into one framed entry.
pub fn encode_frame(seq: u64, rec: &WalRecord) -> Vec<u8> {
    let (kind, oid, coords): (u8, u64, Vec<f64>) = match rec {
        WalRecord::Insert { oid, point } => (1, *oid, point.to_vec()),
        WalRecord::Remove { oid, point } => (2, *oid, point.to_vec()),
        WalRecord::Update { oid, old, new } => {
            debug_assert_eq!(old.len(), new.len());
            let mut c = old.to_vec();
            c.extend_from_slice(new);
            (3, *oid, c)
        }
    };
    let dim = rec.dim() as u32;
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + coords.len() * 8);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.push(kind);
    payload.extend_from_slice(&oid.to_le_bytes());
    payload.extend_from_slice(&dim.to_le_bytes());
    for c in coords {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Some((seq, record, frame_len))` for an intact frame, `None`
/// for anything else — a partial header, a truncated payload, a CRC
/// mismatch, or a malformed payload. Replay treats `None` as the end of
/// the intact prefix.
pub fn decode_frame(buf: &[u8]) -> Option<(u64, WalRecord, usize)> {
    if buf.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) || buf.len() < FRAME_HEADER + len {
        return None;
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let kind = payload[8];
    let oid = u64::from_le_bytes(payload[9..17].try_into().unwrap());
    let dim = u32::from_le_bytes(payload[17..21].try_into().unwrap()) as usize;
    let coords = &payload[PAYLOAD_PREFIX..];
    let n_coords = coords.len() / 8;
    if !coords.len().is_multiple_of(8) {
        return None;
    }
    let mut fs = Vec::with_capacity(n_coords);
    for i in 0..n_coords {
        fs.push(f64::from_le_bytes(
            coords[i * 8..i * 8 + 8].try_into().unwrap(),
        ));
    }
    let rec = match kind {
        1 if n_coords == dim => WalRecord::Insert {
            oid,
            point: fs.into(),
        },
        2 if n_coords == dim => WalRecord::Remove {
            oid,
            point: fs.into(),
        },
        3 if n_coords == 2 * dim => {
            let new = fs.split_off(dim);
            WalRecord::Update {
                oid,
                old: fs.into(),
                new: new.into(),
            }
        }
        _ => return None,
    };
    Some((seq, rec, FRAME_HEADER + len))
}

/// An append-only write-ahead log file.
///
/// Appends are buffered in the OS page cache until [`Wal::sync`]; the
/// engine syncs once per committed mutation. [`Wal::truncate`] empties
/// the log after a checkpoint makes its records redundant.
///
/// # Failure atomicity
///
/// [`Wal::append`] and [`Wal::sync`] are the low-level halves; after a
/// failed append or sync the file may hold a partial or unsynced frame
/// past [`Wal::len_bytes`], so further raw appends would land behind
/// garbage and be discarded at replay. Committing callers use
/// [`Wal::append_sync`], which rolls the file back to its pre-append
/// length, durably, on any failure — so a record is either durable and
/// acknowledged, or absent. If even the rollback fails the log is
/// **wedged** (`Wal::is_wedged`): it may hold a frame nobody was told
/// about, so appends are refused until [`Wal::truncate`] (run by the
/// next successful checkpoint) wipes the file and clears the flag.
#[derive(Debug)]
pub struct Wal {
    file: File,
    next_seq: u64,
    len: u64,
    appends: u64,
    syncs: u64,
    injector: Option<Arc<FaultInjector>>,
    wedged: bool,
}

impl Wal {
    /// Open (or create) the log at `path`, replaying its intact prefix.
    ///
    /// Returns the log handle plus every decodable record in order. The
    /// file is trimmed back to the intact prefix, so a torn tail from a
    /// crashed append is discarded exactly once.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<(u64, WalRecord)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut next_seq = 1u64;
        while let Some((seq, rec, consumed)) = decode_frame(&buf[off..]) {
            next_seq = seq + 1;
            records.push((seq, rec));
            off += consumed;
        }
        if off < buf.len() {
            // torn tail from a crashed append: trim to the intact prefix
            file.set_len(off as u64)?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        Ok((
            Wal {
                file,
                next_seq,
                len: off as u64,
                appends: 0,
                syncs: 0,
                injector: None,
                wedged: false,
            },
            records,
        ))
    }

    /// Route this log's writes and syncs through `injector`, so tests
    /// can fail them on demand (op classes [`FaultOp::WalWrite`],
    /// [`FaultOp::WalSync`] and [`FaultOp::WalRollback`]). Zero cost
    /// when never called.
    pub(crate) fn set_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// True once a failed append could not be rolled back: the file may
    /// hold a frame that was never acknowledged, so appends are refused
    /// until [`Wal::truncate`] wipes it.
    pub(crate) fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Append a record, returning its sequence number. The record is not
    /// durable until the next [`Wal::sync`]. On `Err` the file may hold
    /// a partial frame — use [`Wal::append_sync`] when the log must stay
    /// appendable after failures.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, rec);
        match self.consult_write()? {
            WriteFault::Clean => self.file.write_all(&frame)?,
            WriteFault::Torn(e) => {
                // Simulate a crash mid-write: a prefix of the frame
                // lands, then the device fails.
                let _ = self.file.write_all(&frame[..frame.len() / 2]);
                return Err(e);
            }
            WriteFault::BitFlip => {
                // Silent corruption: the write "succeeds" but the frame
                // is damaged; the CRC rejects it at replay.
                let mut bad = frame.clone();
                flip_one_bit(&mut bad);
                self.file.write_all(&bad)?;
            }
        }
        self.next_seq += 1;
        self.len += frame.len() as u64;
        self.appends += 1;
        Ok(seq)
    }

    /// Force all appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(inj) = &self.injector {
            inj.on_sync(FaultOp::WalSync)?;
        }
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Append `rec` and make it durable, as one failure-atomic step.
    ///
    /// On success the record is on stable storage and its sequence
    /// number is returned. On failure the file is rolled back to its
    /// pre-append length, so the log holds exactly the records whose
    /// `append_sync` succeeded and stays appendable. If the rollback
    /// itself fails, the log wedges (see `Wal::is_wedged`) and the
    /// error says so.
    pub fn append_sync(&mut self, rec: &WalRecord) -> io::Result<u64> {
        if self.wedged {
            return Err(io::Error::other(
                "wal is wedged by an earlier failed rollback; checkpoint to repair",
            ));
        }
        let len_before = self.len;
        let seq_before = self.next_seq;
        let result = self.append(rec).and_then(|seq| self.sync().map(|()| seq));
        match result {
            Ok(seq) => Ok(seq),
            Err(e) => {
                if let Err(rb) = self.rollback_to(len_before) {
                    self.wedged = true;
                    return Err(io::Error::other(format!(
                        "wal append failed ({e}) and rollback failed ({rb}); log is wedged"
                    )));
                }
                self.next_seq = seq_before;
                self.len = len_before;
                Err(e)
            }
        }
    }

    /// Trim the file back to `len`, discarding a partial or unsynced
    /// frame from a failed append, and make the trim durable: a crash
    /// right after an unsynced trim could bring back an intact frame
    /// whose caller was told it failed.
    fn rollback_to(&mut self, len: u64) -> io::Result<()> {
        if let Some(inj) = &self.injector {
            inj.on_sync(FaultOp::WalRollback)?;
        }
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Discard the whole log (every record is covered by a checkpoint).
    /// A successful truncate also un-wedges the log: whatever phantom
    /// frame a failed rollback left behind is gone.
    pub fn truncate(&mut self) -> io::Result<()> {
        if let Some(inj) = &self.injector {
            inj.on_sync(FaultOp::WalSync)?;
        }
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.len = 0;
        self.syncs += 1;
        self.wedged = false;
        Ok(())
    }

    fn consult_write(&self) -> io::Result<WriteFault> {
        match &self.injector {
            Some(inj) => inj.on_write(FaultOp::WalWrite),
            None => Ok(WriteFault::Clean),
        }
    }

    /// Raise the next sequence number to at least `seq`. The engine
    /// calls this after recovery with the checkpoint's high-water mark
    /// plus one, so records appended to a truncated log can never reuse
    /// a sequence number the checkpoint already covers.
    pub(crate) fn ensure_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Highest sequence number appended so far (0 if none).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Number of records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Number of `fsync`s issued through this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mpq_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                oid: 7,
                point: vec![0.25, 0.5].into(),
            },
            WalRecord::Remove {
                oid: 3,
                point: vec![0.125, 0.875].into(),
            },
            WalRecord::Update {
                oid: 7,
                old: vec![0.25, 0.5].into(),
                new: vec![0.75, 0.1].into(),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let frame = encode_frame(i as u64 + 1, &rec);
            let (seq, back, consumed) = decode_frame(&frame).expect("intact frame");
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(back, rec);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn decode_rejects_any_bit_flip_in_the_payload() {
        let frame = encode_frame(9, &sample_records()[0]);
        for byte in FRAME_HEADER..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            assert!(
                decode_frame(&bad).is_none(),
                "flip at byte {byte} must fail the CRC"
            );
        }
    }

    /// Seeded truncations, bit flips and random frames — some with a
    /// valid length and CRC around a random payload, so the payload
    /// parser sees them — through `decode_frame` and through `Wal::open`
    /// on a file of them: each decodes or answers `None`, and the log
    /// opens on its intact prefix, never panicking.
    #[test]
    fn hostile_frames_never_panic() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let valid: Vec<Vec<u8>> = (sample_records().iter().enumerate())
            .map(|(i, rec)| encode_frame(i as u64 + 1, rec))
            .collect();
        // A frame whose length and CRC hold around `payload`.
        let framed = |payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            frame
        };
        let hostile = |next: &mut dyn FnMut() -> u64| -> Vec<u8> {
            let base = &valid[next() as usize % valid.len()];
            match next() % 4 {
                0 => base[..next() as usize % base.len()].to_vec(),
                1 => {
                    let mut frame = base.clone();
                    let bit = next() as usize % (frame.len() * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                    frame
                }
                2 => {
                    // A random payload: any kind, oid and dim, any
                    // number of coordinate bytes.
                    let len = PAYLOAD_PREFIX + next() as usize % 40;
                    let mut payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                    payload[8] = (next() % 5) as u8;
                    if next().is_multiple_of(2) {
                        let dim = (next() % 4) as u32;
                        payload[17..21].copy_from_slice(&dim.to_le_bytes());
                    }
                    framed(&payload)
                }
                _ => (0..next() % 64).map(|_| next() as u8).collect(),
            }
        };
        for frame in &valid {
            for cut in 0..frame.len() {
                assert!(decode_frame(&frame[..cut]).is_none(), "a cut frame");
            }
        }
        for _ in 0..20_000 {
            let frame = hostile(&mut next);
            if let Some((_, rec, consumed)) = decode_frame(&frame) {
                assert!(consumed <= frame.len());
                assert_eq!(decode_frame(&encode_frame(1, &rec)).unwrap().1, rec);
            }
        }
        let path = tmp("hostile.wal");
        for _ in 0..64 {
            let mut file = Vec::new();
            let mut intact = 0;
            for _ in 0..next() % 4 {
                file.extend_from_slice(&valid[next() as usize % valid.len()]);
                intact += 1;
            }
            for _ in 0..1 + next() % 3 {
                file.extend_from_slice(&hostile(&mut next));
            }
            std::fs::write(&path, &file).unwrap();
            let (wal, records) = Wal::open(&path).expect("a log of hostile bytes opens");
            assert!(records.len() >= intact, "the intact prefix replays");
            assert_eq!(wal.len_bytes(), std::fs::metadata(&path).unwrap().len());
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round_trip.wal");
        let recs = sample_records();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(wal.last_seq(), recs.len() as u64);
        let got: Vec<WalRecord> = replayed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn torn_tail_is_discarded_and_appends_continue() {
        let path = tmp("torn.wal");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in &sample_records() {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        // Chop 5 bytes off the last frame (simulated mid-write crash).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2, "torn third record must be dropped");
        assert_eq!(wal.last_seq(), 2);
        // The log was repaired: a new append lands on a clean boundary.
        wal.append(&WalRecord::Insert {
            oid: 99,
            point: vec![0.1, 0.2].into(),
        })
        .unwrap();
        wal.sync().unwrap();
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2].1.oid(), 99);
    }

    #[test]
    fn append_sync_rolls_back_a_torn_append() {
        use mpq_rtree::fault::{FaultInjector, FaultKind, FaultOp};
        let path = tmp("torn_rollback.wal");
        let recs = sample_records();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let inj = FaultInjector::shared();
        wal.set_injector(std::sync::Arc::clone(&inj));
        wal.append_sync(&recs[0]).unwrap();

        inj.fail_nth(FaultOp::WalWrite, 0, FaultKind::Torn);
        let err = wal.append_sync(&recs[1]).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!wal.is_wedged());

        // The partial frame was trimmed: the retry lands cleanly and
        // replay sees exactly the acknowledged records.
        let seq = wal.append_sync(&recs[1]).unwrap();
        assert_eq!(seq, 2, "failed append must not burn a sequence number");
        let (_, replayed) = Wal::open(&path).unwrap();
        let got: Vec<WalRecord> = replayed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs[..2].to_vec());
    }

    #[test]
    fn append_sync_rolls_back_a_failed_fsync() {
        use mpq_rtree::fault::{FaultInjector, FaultKind, FaultOp};
        let path = tmp("fsync_rollback.wal");
        let recs = sample_records();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let inj = FaultInjector::shared();
        wal.set_injector(std::sync::Arc::clone(&inj));

        inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
        wal.append_sync(&recs[0]).unwrap_err();
        assert_eq!(wal.len_bytes(), 0, "unsynced frame must be trimmed");
        assert_eq!(wal.syncs(), 1, "the trim itself must be fsynced");

        // Without the rollback the intact-but-unacknowledged frame would
        // replay as a phantom record.
        let (_, replayed) = Wal::open(&path).unwrap();
        assert!(replayed.is_empty());
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_sync(&recs[0]).unwrap();
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn failed_rollback_wedges_until_truncate() {
        use mpq_rtree::fault::{FaultInjector, FaultKind, FaultOp};
        let path = tmp("wedged.wal");
        let recs = sample_records();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let inj = FaultInjector::shared();
        wal.set_injector(std::sync::Arc::clone(&inj));

        inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
        inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
        let err = wal.append_sync(&recs[0]).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        assert!(wal.is_wedged());

        let err = wal.append_sync(&recs[1]).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");

        wal.truncate().unwrap();
        assert!(!wal.is_wedged());
        let seq = wal.append_sync(&recs[1]).unwrap();
        assert!(seq >= 2, "sequence numbers never collide after a wedge");
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "truncate wiped the phantom frame");
    }

    #[test]
    fn bit_flipped_append_is_rejected_at_replay() {
        use mpq_rtree::fault::{FaultInjector, FaultKind, FaultOp};
        let path = tmp("bitflip.wal");
        let recs = sample_records();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let inj = FaultInjector::shared();
        wal.set_injector(std::sync::Arc::clone(&inj));
        wal.append_sync(&recs[0]).unwrap();
        inj.fail_nth(FaultOp::WalWrite, 0, FaultKind::BitFlip);
        wal.append_sync(&recs[1]).unwrap(); // silent corruption "succeeds"
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "CRC must reject the damaged frame");
    }

    #[test]
    fn truncate_empties_the_log_but_keeps_the_sequence() {
        let path = tmp("truncate.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for r in &sample_records() {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert_eq!(wal.last_seq(), 3, "sequence survives truncation");
        wal.append(&WalRecord::Remove {
            oid: 1,
            point: vec![0.3, 0.4].into(),
        })
        .unwrap();
        wal.sync().unwrap();
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0, 4);
    }
}
