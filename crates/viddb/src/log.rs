//! Append-only checksummed record log.
//!
//! Layout:
//!
//! ```text
//! [8-byte magic "TSVRDB01"]
//! repeated records:
//!   [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! The log talks to its medium through the [`Storage`] trait, so the
//! same recovery logic runs over files, memory buffers, and the
//! fault-injecting test backend.
//!
//! Recovery on open distinguishes three damage classes:
//!
//! * a **torn header** (file shorter than the 8-byte magic) is the
//!   remains of a crashed first write — the file is re-initialised and
//!   the event reported via [`RecoveryReport::recovered_header`];
//! * a **torn tail** (the last record cut mid-write) is truncated away,
//!   the standard WAL rule;
//! * **mid-log corruption** (a bit-flipped record with intact
//!   neighbours) is *quarantined*, not truncated: the scanner resyncs
//!   to the next plausible record header so every record after the
//!   damage stays readable, and the corrupt byte range is reported as a
//!   [`CorruptRegion`].
//!
//! Transient I/O errors (`ErrorKind::Interrupted`) are retried up to
//! [`MAX_IO_RETRIES`] times. A failed append is rolled back by
//! truncating the partial frame; if even the rollback fails the log is
//! *poisoned* — reads still work but further appends return
//! [`DbError::LogPoisoned`].
//!
//! [`Log::sync`] is the durability point: data is only guaranteed to
//! survive a crash once `sync` has returned `Ok`.

use crate::codec::{crc32, MAX_LEN};
use crate::error::{DbError, Result};
use crate::storage::{FileStorage, MemStorage, Storage};
use std::io;
use std::path::Path;

/// File magic: identifies a tsvr video database, version 01.
pub const MAGIC: &[u8; 8] = b"TSVRDB01";

/// How many times a transient (`Interrupted`) storage error is retried
/// before surfacing as [`DbError::Io`].
pub const MAX_IO_RETRIES: u32 = 4;

/// How far past a corrupt record the scanner searches byte-by-byte for
/// the next plausible record header before giving up and treating the
/// rest of the log as a torn tail.
pub const RESYNC_WINDOW: u64 = 4096;

/// A byte range of the log that failed integrity checks during the
/// open-time scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRegion {
    /// Start offset of the damaged range.
    pub offset: u64,
    /// Length of the damaged range in bytes.
    pub len: u64,
}

/// What open-time recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Mid-log ranges that failed checksum/framing checks and were
    /// skipped (quarantined) by the scanner.
    pub regions: Vec<CorruptRegion>,
    /// Bytes of torn tail truncated away.
    pub truncated_tail: u64,
    /// Whether the file was shorter than the magic (a crashed first
    /// write) and was re-initialised.
    pub recovered_header: bool,
}

impl RecoveryReport {
    /// Whether recovery found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.regions.is_empty() && self.truncated_tail == 0 && !self.recovered_header
    }
}

/// The append-only log.
#[derive(Debug)]
pub struct Log {
    storage: Box<dyn Storage>,
    /// Logical end of the valid data.
    len: u64,
    /// Set when a failed append could not be rolled back.
    poisoned: bool,
    recovery: RecoveryReport,
}

/// Retries `op` on `Interrupted` up to [`MAX_IO_RETRIES`] times.
fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> Result<T> {
    let mut attempts = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                attempts += 1;
                tsvr_obs::counter!("viddb.retry.attempts").incr();
                if attempts > MAX_IO_RETRIES {
                    tsvr_obs::counter!("viddb.retry.exhausted").incr();
                    tsvr_obs::trace::incident(
                        "viddb.retry.exhausted",
                        &format!("{attempts} interrupted attempts: {e}"),
                    );
                    return Err(DbError::Io(e));
                }
            }
            Err(e) => return Err(DbError::Io(e)),
        }
    }
}

impl Log {
    /// Creates an empty in-memory log.
    pub fn in_memory() -> Log {
        Log::with_storage(Box::new(MemStorage::new())).expect("in-memory log creation cannot fail")
    }

    /// Opens (or creates) a file-backed log, running recovery on
    /// existing content.
    pub fn open(path: &Path) -> Result<Log> {
        Log::with_storage(Box::new(FileStorage::open(path)?))
    }

    /// Opens a log over any [`Storage`] backend, running recovery on
    /// existing content.
    pub fn with_storage(mut storage: Box<dyn Storage>) -> Result<Log> {
        let mut recovery = RecoveryReport::default();
        let len = with_retry(|| storage.len())?;
        if len < MAGIC.len() as u64 {
            // Shorter than the magic: either a brand-new file or the
            // torn remains of a crashed first write. Both are
            // recoverable — re-initialise. (Satellite fix: this is NOT
            // BadMagic, and a real I/O error must surface as Io.)
            if len > 0 {
                recovery.recovered_header = true;
                with_retry(|| storage.truncate(0))?;
            }
            with_retry(|| storage.append(MAGIC))?;
            with_retry(|| storage.flush())?;
            return Ok(Log {
                storage,
                len: MAGIC.len() as u64,
                poisoned: false,
                recovery,
            });
        }
        let mut log = Log {
            storage,
            len,
            poisoned: false,
            recovery,
        };
        let mut magic = [0u8; 8];
        log.read_exact_at(0, &mut magic)?;
        if &magic != MAGIC {
            return Err(DbError::BadMagic);
        }
        let _span = tsvr_obs::span!("viddb.recover");
        let (regions, valid_end) = log.scan_damage()?;
        if valid_end < log.len {
            log.recovery.truncated_tail = log.len - valid_end;
            with_retry(|| log.storage.truncate(valid_end))?;
            log.len = valid_end;
        }
        log.recovery.regions = regions;
        Ok(log)
    }

    /// What open-time recovery found and did.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Total valid bytes (including the magic).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= MAGIC.len() as u64
    }

    /// Whether a failed append could not be rolled back; a poisoned log
    /// rejects further appends until reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Reads exactly `buf.len()` bytes at `offset`, looping over short
    /// reads and retrying transient errors.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let n = with_retry(|| self.storage.read_at(offset + done as u64, &mut buf[done..]))?;
            if n == 0 {
                return Err(DbError::UnexpectedEof { context: "log" });
            }
            done += n;
        }
        Ok(())
    }

    /// Appends all of `data`, looping over short writes and retrying
    /// transient errors.
    fn write_raw(&mut self, data: &[u8]) -> Result<()> {
        let mut done = 0;
        while done < data.len() {
            let n = with_retry(|| self.storage.append(&data[done..]))?;
            if n == 0 {
                return Err(DbError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "storage accepted zero bytes",
                )));
            }
            done += n;
        }
        Ok(())
    }

    /// Appends one record; returns its offset.
    ///
    /// On failure the partial frame is rolled back (truncated), so a
    /// failed append leaves the log exactly as it was. If the rollback
    /// itself fails the log is poisoned.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.poisoned {
            return Err(DbError::LogPoisoned);
        }
        // The frame length prefix is u32 and readers reject anything
        // over MAX_LEN — refuse such payloads up front instead of
        // letting `as u32` truncate the prefix and corrupt the frame.
        if payload.len() as u64 > MAX_LEN {
            return Err(DbError::TooLarge {
                context: "record payload",
                len: payload.len(),
            });
        }
        // Zero-length frames are reserved as a corruption signature: an
        // all-zero 8-byte window IS a checksum-valid empty frame (len 0,
        // crc32("") == 0), so recovery treats such frames as damage. A
        // zero run at a torn tail would otherwise resync onto phantom
        // empty records instead of being truncated.
        if payload.is_empty() {
            return Err(DbError::EmptyRecord);
        }
        let _span = tsvr_obs::tspan!("viddb.append");
        let offset = self.len;
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        let result = self
            .write_raw(&framed)
            .and_then(|_| with_retry(|| self.storage.flush()));
        if let Err(e) = result {
            tsvr_obs::counter!("viddb.fault.detected").incr();
            // Roll the torn frame back so the on-storage state is
            // unchanged by the failed append.
            let rolled_back = with_retry(|| self.storage.truncate(offset)).is_ok();
            if !rolled_back {
                self.poisoned = true;
            }
            tsvr_obs::trace::incident(
                "viddb.append.rollback",
                &format!(
                    "append at {offset} failed ({e}); rollback {}",
                    if rolled_back {
                        "ok"
                    } else {
                        "FAILED, log poisoned"
                    }
                ),
            );
            return Err(e);
        }
        self.len += framed.len() as u64;
        tsvr_obs::counter!("viddb.log.records").incr();
        tsvr_obs::counter!("viddb.log.bytes").add(framed.len() as u64);
        Ok(offset)
    }

    /// Durability point: flushes appended records down to the medium.
    /// Data is only guaranteed to survive a crash after `sync` returns
    /// `Ok`.
    pub fn sync(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(DbError::LogPoisoned);
        }
        let _span = tsvr_obs::tspan!("viddb.sync");
        tsvr_obs::counter!("viddb.sync.calls").incr();
        with_retry(|| self.storage.sync())
    }

    /// Reads the record at `offset`, verifying its checksum.
    pub fn read(&mut self, offset: u64) -> Result<Vec<u8>> {
        let mut header = [0u8; 8];
        self.read_exact_at(offset, &mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        // len == 0 is reserved: `append` never writes empty frames, so a
        // zero-length header (which an all-zero window satisfies, since
        // crc32 of empty input is zero) can only be damage.
        if len == 0 || len > MAX_LEN || offset + 8 + len > self.len {
            return Err(DbError::ChecksumMismatch { offset });
        }
        let mut payload = vec![0u8; len as usize];
        self.read_exact_at(offset + 8, &mut payload)?;
        if crc32(&payload) != stored_crc {
            return Err(DbError::ChecksumMismatch { offset });
        }
        Ok(payload)
    }

    /// Iterates over all intact records, returning `(offset, payload)`
    /// pairs. Corrupt regions found at open time are skipped.
    pub fn scan(&mut self) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut offset = MAGIC.len() as u64;
        while offset + 8 <= self.len {
            match self.read(offset) {
                Ok(payload) => {
                    let advance = 8 + payload.len() as u64;
                    out.push((offset, payload));
                    offset += advance;
                }
                Err(e) if e.is_corruption() => match self.resync_from(offset)? {
                    Some(next) => offset = next,
                    None => break,
                },
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Discards every record (used by compaction before rewriting the
    /// live set).
    pub fn reset(&mut self) -> Result<()> {
        with_retry(|| self.storage.truncate(MAGIC.len() as u64))?;
        with_retry(|| self.storage.flush())?;
        self.len = MAGIC.len() as u64;
        self.poisoned = false;
        self.recovery = RecoveryReport::default();
        Ok(())
    }

    /// Whether a record header at `offset` is plausible: its length is
    /// in bounds and the frame fits in the log.
    fn header_plausible(&mut self, offset: u64) -> Result<Option<u64>> {
        if offset + 8 > self.len {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.read_exact_at(offset, &mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
        if (1..=MAX_LEN).contains(&len) && offset + 8 + len <= self.len {
            Ok(Some(offset + 8 + len))
        } else {
            Ok(None)
        }
    }

    /// After a corrupt record at `offset`, finds the next offset that
    /// starts a chain of records parsing cleanly to the end of the log.
    /// `None` means no resync point exists (torn tail).
    ///
    /// Strategy: first trust the corrupt record's own length field (a
    /// payload bit flip leaves the framing intact); if that doesn't
    /// land on a valid chain, scan byte-by-byte over a bounded window.
    /// The CRC on every subsequent record makes a false resync
    /// astronomically unlikely.
    fn resync_from(&mut self, offset: u64) -> Result<Option<u64>> {
        let mut candidates = Vec::new();
        if let Some(next) = self.header_plausible(offset)? {
            candidates.push(next);
        }
        let window_end = (offset + RESYNC_WINDOW).min(self.len.saturating_sub(8));
        let mut probe = offset + 1;
        while probe <= window_end {
            candidates.push(probe);
            probe += 1;
        }
        for cand in candidates {
            if cand == self.len || self.chain_parses(cand)? {
                return Ok(Some(cand));
            }
        }
        Ok(None)
    }

    /// Whether an unbroken chain of checksum-valid records runs from
    /// `offset` to the exact end of the log.
    fn chain_parses(&mut self, mut offset: u64) -> Result<bool> {
        while offset + 8 <= self.len {
            match self.read(offset) {
                Ok(payload) => offset += 8 + payload.len() as u64,
                Err(e) if e.is_corruption() => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(offset == self.len)
    }

    /// Open-time damage scan: walks the log, collecting mid-log corrupt
    /// regions (where resync succeeded) and the end of the valid data
    /// (before any torn tail).
    fn scan_damage(&mut self) -> Result<(Vec<CorruptRegion>, u64)> {
        let mut regions = Vec::new();
        let mut offset = MAGIC.len() as u64;
        while offset + 8 <= self.len {
            match self.read(offset) {
                Ok(payload) => offset += 8 + payload.len() as u64,
                Err(e) if e.is_corruption() => match self.resync_from(offset)? {
                    Some(next) => {
                        regions.push(CorruptRegion {
                            offset,
                            len: next - offset,
                        });
                        tsvr_obs::counter!("viddb.fault.regions").incr();
                        offset = next;
                    }
                    None => return Ok((regions, offset)),
                },
                Err(e) => return Err(e),
            }
        }
        // A dangling sub-header tail (< 8 bytes) is torn.
        Ok((regions, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultKind, FaultyStorage};
    use std::fs::OpenOptions;
    use std::io::{Seek, SeekFrom, Write};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tsvr-log-test-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn memory_append_read_round_trip() {
        let mut log = Log::in_memory();
        assert!(log.is_empty());
        let a = log.append(b"hello").unwrap();
        let b = log.append(b"world!").unwrap();
        assert!(!log.is_empty());
        assert_eq!(log.read(a).unwrap(), b"hello");
        assert_eq!(log.read(b).unwrap(), b"world!");
    }

    #[test]
    fn scan_returns_records_in_order() {
        let mut log = Log::in_memory();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        log.append(b"three").unwrap();
        let all = log.scan().unwrap();
        let payloads: Vec<&[u8]> = all.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"one".as_slice(), b"two", b"three"]);
    }

    #[test]
    fn file_log_persists_across_reopen() {
        let path = temp_path("persist");
        {
            let mut log = Log::open(&path).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta").unwrap();
            log.sync().unwrap();
        }
        {
            let mut log = Log::open(&path).unwrap();
            let all = log.scan().unwrap();
            assert_eq!(all.len(), 2);
            assert_eq!(all[1].1, b"beta");
            assert!(log.recovery_report().is_clean());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let full_len;
        {
            let mut log = Log::open(&path).unwrap();
            log.append(b"good record").unwrap();
            full_len = log.len();
            log.append(b"this one will be torn").unwrap();
        }
        // Corrupt the second record's tail.
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(full_len + 10).unwrap(); // mid-record cut
        }
        {
            let mut log = Log::open(&path).unwrap();
            let all = log.scan().unwrap();
            assert_eq!(all.len(), 1, "torn record not dropped");
            assert_eq!(all[0].1, b"good record");
            assert_eq!(log.len(), full_len);
            assert_eq!(log.recovery_report().truncated_tail, 10);
            // The log accepts fresh appends after recovery.
            log.append(b"after recovery").unwrap();
            assert_eq!(log.scan().unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_detected() {
        let path = temp_path("corrupt");
        let offset;
        {
            let mut log = Log::open(&path).unwrap();
            offset = log.append(b"pristine payload").unwrap();
        }
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(offset + 8 + 2)).unwrap();
            f.write_all(b"X").unwrap();
        }
        {
            let mut log = Log::open(&path).unwrap();
            // The sole record is corrupt, so no records are served.
            assert!(log.is_empty() || log.scan().unwrap().is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_quarantined_not_truncated() {
        let path = temp_path("midlog");
        let (first, second);
        {
            let mut log = Log::open(&path).unwrap();
            first = log.append(b"first record payload").unwrap();
            second = log.append(b"second record payload").unwrap();
            log.append(b"third record payload").unwrap();
        }
        // Flip a payload byte in the FIRST record.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(first + 8 + 3)).unwrap();
            f.write_all(b"\xff").unwrap();
        }
        {
            let mut log = Log::open(&path).unwrap();
            let report = log.recovery_report().clone();
            assert_eq!(report.regions.len(), 1, "one corrupt region expected");
            assert_eq!(report.regions[0].offset, first);
            assert_eq!(report.truncated_tail, 0);
            // The two later records survive.
            let all = log.scan().unwrap();
            assert_eq!(all.len(), 2, "records after damage must survive");
            assert_eq!(all[0].1, b"second record payload");
            assert_eq!(all[1].1, b"third record payload");
            assert_eq!(all[0].0, second);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTADB!!whatever").unwrap();
        assert!(matches!(Log::open(&path).unwrap_err(), DbError::BadMagic));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sub_magic_file_is_recovered_not_bad_magic() {
        // Satellite fix: a <8-byte file is a torn first write, not a
        // foreign format.
        let path = temp_path("tornmagic");
        std::fs::write(&path, b"TSVR").unwrap();
        let mut log = Log::open(&path).unwrap();
        assert!(log.is_empty());
        assert!(log.recovery_report().recovered_header);
        log.append(b"fresh").unwrap();
        assert_eq!(log.scan().unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn real_io_error_is_io_not_bad_magic() {
        // Satellite fix: an I/O failure while reading the magic must
        // surface as Io, not BadMagic.
        let mut image = Vec::new();
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&[0u8; 16]);
        let (storage, handle) = FaultyStorage::with_image(image, 7);
        // Exhaust retries on the very first reads.
        for op in 0..=(MAX_IO_RETRIES as u64 + 1) {
            handle.schedule(op, FaultKind::TransientIo);
        }
        match Log::with_storage(Box::new(storage)) {
            Err(DbError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn transient_errors_are_retried() {
        let (storage, handle) = FaultyStorage::new(11);
        let mut log = Log::with_storage(Box::new(storage)).unwrap();
        handle.schedule(handle.op_count(), FaultKind::TransientIo);
        let off = log.append(b"retried").unwrap();
        assert_eq!(log.read(off).unwrap(), b"retried");
        assert_eq!(handle.injected().len(), 1);
    }

    #[test]
    fn torn_append_is_rolled_back() {
        let (storage, handle) = FaultyStorage::new(12);
        let mut log = Log::with_storage(Box::new(storage)).unwrap();
        let off = log.append(b"keep me").unwrap();
        let before = log.len();
        handle.schedule(handle.op_count(), FaultKind::TornAppend);
        assert!(log.append(b"torn away entirely").is_err());
        assert_eq!(log.len(), before, "failed append must not grow the log");
        assert!(!log.is_poisoned());
        // Storage image matches: no torn bytes left behind.
        assert_eq!(handle.snapshot().len() as u64, before);
        // The log still works.
        assert_eq!(log.read(off).unwrap(), b"keep me");
        log.append(b"after rollback").unwrap();
        assert_eq!(log.scan().unwrap().len(), 2);
    }

    #[test]
    fn empty_payload_is_rejected() {
        // Zero-length frames are reserved as a corruption signature
        // (see `append`): an all-zero 8-byte window decodes as a
        // checksum-valid empty frame, so recovery must never have to
        // distinguish a real empty record from a zero run left by a
        // torn write.
        let mut log = Log::in_memory();
        let before = log.len();
        assert!(matches!(log.append(b""), Err(DbError::EmptyRecord)));
        assert_eq!(log.len(), before, "rejected append must not grow the log");
        // The log still works afterwards.
        let off = log.append(b"real").unwrap();
        assert_eq!(log.read(off).unwrap(), b"real");
        assert_eq!(log.scan().unwrap().len(), 1);
    }

    #[test]
    fn tail_tear_over_zero_run_truncates_instead_of_phantom_resync() {
        // A record whose payload ends in a zero run (ubiquitous in real
        // records: empty-vec length prefixes, zero u64 fields) is torn
        // mid-frame. The surviving suffix contains 8-byte windows that
        // are all zero — each one a checksum-valid *empty* frame (len 0,
        // crc32("") == 0). Resync must not chain through those phantom
        // records and report a mid-log corrupt region; the damage is a
        // torn tail and must be truncated.
        let path = temp_path("zero-run-tear");
        {
            let mut log = Log::open(&path).unwrap();
            let mut payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
            payload.extend_from_slice(&[0u8; 24]);
            log.append(&payload).unwrap();
            log.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);

        let mut log = Log::open(&path).unwrap();
        let report = log.recovery_report().clone();
        assert!(
            report.regions.is_empty(),
            "tail tear misclassified as mid-log corruption: {report:?}"
        );
        assert!(report.truncated_tail > 0, "torn tail bytes must be counted");
        assert_eq!(
            log.scan().unwrap().len(),
            0,
            "no phantom records may survive"
        );
        // The truncated log accepts new records cleanly.
        let off = log.append(b"after recovery").unwrap();
        assert_eq!(log.read(off).unwrap(), b"after recovery");
        let _ = std::fs::remove_file(&path);
    }

    // ---- resync tail-bound regression tests (satellite 3) ----------------
    //
    // The resync window is bounded by `self.len.saturating_sub(8)`. That
    // bound is correct — a valid record header needs 8 bytes, so no
    // resync *candidate* can start past len-8 — but corruption *within*
    // the last 8 bytes of the file exercises the edge the bound guards.
    // Two cases pin the behavior:

    #[test]
    fn trailing_record_corrupt_payload_near_eof_is_quarantined() {
        // Flip a payload byte of the FINAL record, inside the last 8
        // bytes of the file. The record's length field is intact, so
        // header_plausible yields `next == len` and the `cand ==
        // self.len` arm quarantines exactly the damaged record — the
        // earlier record must survive and nothing may be truncated.
        let path = temp_path("tail-payload");
        let (first_off, tail_off, file_len);
        {
            let mut log = Log::open(&path).unwrap();
            first_off = log.append(b"earlier record that must survive").unwrap();
            tail_off = log.append(b"tail").unwrap();
            file_len = log.len();
            log.sync().unwrap();
        }
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            // Last payload byte of the final record — within 8 bytes of EOF.
            f.seek(SeekFrom::Start(file_len - 1)).unwrap();
            f.write_all(b"\xff").unwrap();
        }
        {
            let mut log = Log::open(&path).unwrap();
            let report = log.recovery_report().clone();
            assert_eq!(
                report.truncated_tail, 0,
                "tail must be quarantined, not truncated"
            );
            assert_eq!(report.regions.len(), 1);
            assert_eq!(report.regions[0].offset, tail_off);
            assert_eq!(report.regions[0].len, file_len - tail_off);
            let all = log.scan().unwrap();
            assert_eq!(all.len(), 1, "record before the damage must survive");
            assert_eq!(all[0].0, first_off);
            assert_eq!(all[0].1, b"earlier record that must survive");
            // The log keeps accepting appends after the damaged tail.
            log.append(b"new record").unwrap();
            assert_eq!(log.scan().unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_record_corrupt_header_near_eof_is_torn_tail() {
        // Corrupt the FINAL record's length field so the frame no
        // longer fits the file. No plausible resync candidate exists at
        // or before len-8, which is indistinguishable from a torn
        // write — the record is truncated away (standard WAL rule) and
        // everything before it survives.
        let path = temp_path("tail-header");
        let (first_off, tail_off);
        {
            let mut log = Log::open(&path).unwrap();
            first_off = log.append(b"earlier record that must survive").unwrap();
            tail_off = log.append(b"x").unwrap(); // 9-byte frame: header ends within 8 bytes of EOF
            log.sync().unwrap();
        }
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(tail_off)).unwrap();
            f.write_all(&u32::MAX.to_le_bytes()).unwrap(); // hostile length
        }
        {
            let mut log = Log::open(&path).unwrap();
            let report = log.recovery_report().clone();
            assert_eq!(report.regions.len(), 0);
            assert_eq!(report.truncated_tail, 9, "damaged final frame truncated");
            assert_eq!(log.len(), tail_off);
            let all = log.scan().unwrap();
            assert_eq!(all.len(), 1);
            assert_eq!(all[0].0, first_off);
            log.append(b"new record").unwrap();
            assert_eq!(log.scan().unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_payload_rejected_before_framing() {
        // MAX_LEN + 1 bytes would truncate the u32 length prefix (or be
        // rejected by every reader); append must refuse up front and
        // leave the log untouched.
        let mut log = Log::in_memory();
        log.append(b"keep").unwrap();
        let before = log.len();
        let huge = vec![0u8; (MAX_LEN + 1) as usize];
        assert!(matches!(
            log.append(&huge).unwrap_err(),
            DbError::TooLarge {
                context: "record payload",
                ..
            }
        ));
        assert_eq!(log.len(), before);
        assert!(!log.is_poisoned());
        assert_eq!(log.scan().unwrap().len(), 1);
    }
}
