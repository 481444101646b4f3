//! Pluggable storage backends for the record log.
//!
//! [`Log`](crate::log::Log) talks to its backing medium exclusively
//! through the [`Storage`] trait — a minimal append-only surface
//! (`read_at` / `append` / `flush` / `sync` / `len` / `truncate`).
//! Three implementations ship with the crate:
//!
//! * [`MemStorage`] — a plain `Vec<u8>`, for ephemeral databases and
//!   tests;
//! * [`FileStorage`] — a real file, for durable databases;
//! * [`FaultyStorage`] — a deterministic fault injector around an
//!   in-memory image, driven by a seeded schedule of [`FaultKind`]s.
//!   This is the crash-consistency test surface: it can return
//!   transient errors, serve short reads, tear appends, fail syncs,
//!   flip stored bits, and simulate a power-loss crash whose surviving
//!   disk image ([`FaultHandle::crash_image`]) keeps every synced byte
//!   but only a seeded prefix of unsynced writes.
//!
//! Short reads and short writes are part of the trait contract (exactly
//! like POSIX `read(2)`/`write(2)`): callers must loop. `sync` is the
//! durability point — after it returns `Ok`, everything appended so far
//! must survive a crash.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use tsvr_sim::Pcg32;

/// Byte-level storage for an append-only log.
///
/// `Send` is a supertrait so a [`VideoDb`](crate::VideoDb) can sit
/// behind a mutex shared across a server's worker threads; all shipped
/// backends are plain owned data (or `Arc`-shared in the fault
/// injector's case) and satisfy it for free.
#[allow(clippy::len_without_is_empty)]
pub trait Storage: std::fmt::Debug + Send {
    /// Reads up to `buf.len()` bytes at `offset`, returning how many
    /// were read (`0` means end of storage). Short reads are allowed.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Appends up to `data.len()` bytes at the end of the storage,
    /// returning how many were written. Short writes are allowed.
    fn append(&mut self, data: &[u8]) -> io::Result<usize>;
    /// Pushes buffered writes down to the backing medium.
    fn flush(&mut self) -> io::Result<()>;
    /// Durability point: after `Ok`, every appended byte survives a
    /// crash.
    fn sync(&mut self) -> io::Result<()>;
    /// Current size in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Shrinks the storage to `len` bytes (no-op if already smaller).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// In-memory storage: a growable byte buffer. Infallible.
#[derive(Debug, Default)]
pub struct MemStorage {
    data: Vec<u8>,
}

impl MemStorage {
    /// Creates empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Wraps an existing byte image (e.g. a post-crash disk image).
    pub fn from_bytes(data: Vec<u8>) -> MemStorage {
        MemStorage { data }
    }

    /// Consumes the storage, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }
}

impl Storage for MemStorage {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let len = self.data.len() as u64;
        if offset >= len {
            return Ok(0);
        }
        let start = offset as usize;
        let n = buf.len().min(self.data.len() - start);
        buf[..n].copy_from_slice(&self.data[start..start + n]);
        Ok(n)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<usize> {
        self.data.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.data.len() as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if (len as usize) < self.data.len() {
            self.data.truncate(len as usize);
        }
        Ok(())
    }
}

/// File-backed storage. `sync` maps to `File::sync_all`.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
}

impl FileStorage {
    /// Opens (or creates) the file at `path`.
    pub fn open(path: &Path) -> io::Result<FileStorage> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileStorage { file })
    }
}

impl Storage for FileStorage {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read(buf)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// A fault to inject at a scheduled operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One-shot `ErrorKind::Interrupted` error; a retry succeeds.
    TransientIo,
    /// A read serves at most half the requested bytes.
    ShortRead,
    /// An append accepts only a prefix of the data (caller must loop).
    ShortWrite,
    /// An append writes a seeded prefix of the data, then errors —
    /// leaving a torn record unless the caller rolls it back.
    TornAppend,
    /// `sync` fails without making anything durable.
    SyncFail,
    /// A seeded bit of the stored image flips (bit rot); the operation
    /// itself then proceeds normally.
    BitFlip,
    /// Simulated power loss: if the operation is an append, a seeded
    /// prefix may land first; every operation from here on fails.
    Crash,
}

/// The kind of storage operation, as recorded in the fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read_at`
    Read,
    /// `append`
    Append,
    /// `flush`
    Flush,
    /// `sync`
    Sync,
    /// `truncate`
    Truncate,
}

#[derive(Debug)]
struct FaultInner {
    data: Vec<u8>,
    synced_len: usize,
    op: u64,
    schedule: BTreeMap<u64, FaultKind>,
    rng: Pcg32,
    crashed: bool,
    trace: Vec<OpKind>,
    injected: Vec<(u64, FaultKind)>,
}

impl FaultInner {
    fn crash_err() -> io::Error {
        io::Error::other("simulated crash: storage offline")
    }

    fn transient_err() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "injected transient i/o error")
    }

    /// Counts the operation, records it in the trace, and returns the
    /// fault scheduled for it (if any).
    fn begin_op(&mut self, kind: OpKind) -> io::Result<Option<FaultKind>> {
        if self.crashed {
            return Err(Self::crash_err());
        }
        let idx = self.op;
        self.op += 1;
        self.trace.push(kind);
        let fault = self.schedule.remove(&idx);
        if let Some(f) = fault {
            self.injected.push((idx, f));
        }
        Ok(fault)
    }

    fn flip_random_bit(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let byte = self.rng.uniform_usize(self.data.len());
        let bit = self.rng.uniform_u32(8);
        self.data[byte] ^= 1 << bit;
    }
}

/// Deterministic fault-injecting storage over an in-memory image.
///
/// Construct with [`FaultyStorage::new`], which also returns a
/// [`FaultHandle`] for scheduling faults and inspecting the image after
/// the database that owns the storage has been dropped.
#[derive(Debug)]
pub struct FaultyStorage(Arc<Mutex<FaultInner>>);

/// Shared view into a [`FaultyStorage`]: schedules faults, reads the
/// operation trace, and extracts post-crash disk images.
#[derive(Debug, Clone)]
pub struct FaultHandle(Arc<Mutex<FaultInner>>);

impl FaultyStorage {
    /// Creates empty faulty storage with a seeded RNG (the seed decides
    /// torn-prefix lengths, bit-flip positions, and crash-image cuts).
    pub fn new(seed: u64) -> (FaultyStorage, FaultHandle) {
        Self::with_image(Vec::new(), seed)
    }

    /// Wraps an existing byte image. The image counts as durable
    /// (already synced).
    pub fn with_image(data: Vec<u8>, seed: u64) -> (FaultyStorage, FaultHandle) {
        let synced_len = data.len();
        let inner = Arc::new(Mutex::new(FaultInner {
            data,
            synced_len,
            op: 0,
            schedule: BTreeMap::new(),
            rng: Pcg32::new(seed, 0xfa17),
            crashed: false,
            trace: Vec::new(),
            injected: Vec::new(),
        }));
        (FaultyStorage(Arc::clone(&inner)), FaultHandle(inner))
    }
}

impl FaultHandle {
    /// Schedules `fault` for the `op`-th storage operation (0-based;
    /// `len` calls are not counted).
    pub fn schedule(&self, op: u64, fault: FaultKind) {
        self.0.lock().unwrap().schedule.insert(op, fault);
    }

    /// Operations issued so far.
    pub fn op_count(&self) -> u64 {
        self.0.lock().unwrap().op
    }

    /// The operation kinds issued so far, in order.
    pub fn trace(&self) -> Vec<OpKind> {
        self.0.lock().unwrap().trace.clone()
    }

    /// Faults that actually fired, as `(op_index, kind)` pairs.
    pub fn injected(&self) -> Vec<(u64, FaultKind)> {
        self.0.lock().unwrap().injected.clone()
    }

    /// Whether a [`FaultKind::Crash`] has fired.
    pub fn crashed(&self) -> bool {
        self.0.lock().unwrap().crashed
    }

    /// The current full byte image (what an uncrashed disk holds).
    pub fn snapshot(&self) -> Vec<u8> {
        self.0.lock().unwrap().data.clone()
    }

    /// The post-crash disk image: every synced byte survives; the
    /// unsynced suffix is cut at a seeded point (sometimes kept whole,
    /// sometimes lost entirely — both legal outcomes of power loss).
    pub fn crash_image(&self) -> Vec<u8> {
        let mut inner = self.0.lock().unwrap();
        let len = inner.data.len();
        let synced = inner.synced_len.min(len);
        let keep = if inner.rng.chance(1.0 / 3.0) {
            len
        } else {
            synced + inner.rng.uniform_usize(len - synced + 1)
        };
        inner.data[..keep].to_vec()
    }
}

impl Storage for FaultyStorage {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.0.lock().unwrap();
        let mut limit = buf.len();
        match inner.begin_op(OpKind::Read)? {
            None => {}
            Some(FaultKind::BitFlip) => inner.flip_random_bit(),
            Some(FaultKind::ShortRead) => limit = (buf.len() / 2).max(1),
            Some(FaultKind::Crash) => {
                inner.crashed = true;
                return Err(FaultInner::crash_err());
            }
            Some(_) => return Err(FaultInner::transient_err()),
        }
        let len = inner.data.len();
        if offset as usize >= len {
            return Ok(0);
        }
        let start = offset as usize;
        let n = limit.min(len - start);
        buf[..n].copy_from_slice(&inner.data[start..start + n]);
        Ok(n)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut inner = self.0.lock().unwrap();
        match inner.begin_op(OpKind::Append)? {
            None => {
                inner.data.extend_from_slice(data);
                Ok(data.len())
            }
            Some(FaultKind::BitFlip) => {
                inner.flip_random_bit();
                inner.data.extend_from_slice(data);
                Ok(data.len())
            }
            Some(FaultKind::ShortWrite) => {
                let n = data.len().div_ceil(2);
                inner.data.extend_from_slice(&data[..n]);
                Ok(n)
            }
            Some(FaultKind::TornAppend) => {
                let n = if data.is_empty() {
                    0
                } else {
                    inner.rng.uniform_usize(data.len())
                };
                inner.data.extend_from_slice(&data[..n]);
                Err(io::Error::other("injected torn append"))
            }
            Some(FaultKind::Crash) => {
                let n = if data.is_empty() {
                    0
                } else {
                    inner.rng.uniform_usize(data.len() + 1)
                };
                inner.data.extend_from_slice(&data[..n]);
                inner.crashed = true;
                Err(FaultInner::crash_err())
            }
            Some(_) => Err(FaultInner::transient_err()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut inner = self.0.lock().unwrap();
        match inner.begin_op(OpKind::Flush)? {
            None => Ok(()),
            Some(FaultKind::BitFlip) => {
                inner.flip_random_bit();
                Ok(())
            }
            Some(FaultKind::Crash) => {
                inner.crashed = true;
                Err(FaultInner::crash_err())
            }
            Some(_) => Err(FaultInner::transient_err()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.0.lock().unwrap();
        match inner.begin_op(OpKind::Sync)? {
            None => {
                inner.synced_len = inner.data.len();
                Ok(())
            }
            Some(FaultKind::BitFlip) => {
                inner.flip_random_bit();
                inner.synced_len = inner.data.len();
                Ok(())
            }
            Some(FaultKind::SyncFail) => Err(io::Error::other("injected sync failure")),
            Some(FaultKind::Crash) => {
                inner.crashed = true;
                Err(FaultInner::crash_err())
            }
            Some(_) => Err(FaultInner::transient_err()),
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        // `len` is a metadata query, not a counted fault point.
        let inner = self.0.lock().unwrap();
        if inner.crashed {
            return Err(FaultInner::crash_err());
        }
        Ok(inner.data.len() as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.0.lock().unwrap();
        match inner.begin_op(OpKind::Truncate)? {
            None | Some(FaultKind::BitFlip) => {
                if (len as usize) < inner.data.len() {
                    inner.data.truncate(len as usize);
                    inner.synced_len = inner.synced_len.min(len as usize);
                }
                Ok(())
            }
            Some(FaultKind::Crash) => {
                inner.crashed = true;
                Err(FaultInner::crash_err())
            }
            Some(_) => Err(FaultInner::transient_err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trip() {
        let mut s = MemStorage::new();
        assert_eq!(s.append(b"hello").unwrap(), 5);
        assert_eq!(s.len().unwrap(), 5);
        let mut buf = [0u8; 5];
        assert_eq!(s.read_at(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // Reads past the end are short, then empty.
        assert_eq!(s.read_at(3, &mut buf).unwrap(), 2);
        assert_eq!(s.read_at(9, &mut buf).unwrap(), 0);
        s.truncate(2).unwrap();
        assert_eq!(s.len().unwrap(), 2);
        // Truncate never grows.
        s.truncate(100).unwrap();
        assert_eq!(s.len().unwrap(), 2);
        assert_eq!(
            MemStorage::from_bytes(vec![1, 2, 3]).into_bytes(),
            [1, 2, 3]
        );
    }

    #[test]
    fn faulty_storage_counts_ops_and_traces() {
        let (mut s, h) = FaultyStorage::new(1);
        s.append(b"abc").unwrap();
        s.flush().unwrap();
        s.sync().unwrap();
        let mut buf = [0u8; 3];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(h.op_count(), 4);
        assert_eq!(
            h.trace(),
            vec![OpKind::Append, OpKind::Flush, OpKind::Sync, OpKind::Read]
        );
        assert!(h.injected().is_empty());
    }

    #[test]
    fn transient_fault_fails_once_then_recovers() {
        let (mut s, h) = FaultyStorage::new(2);
        h.schedule(0, FaultKind::TransientIo);
        let err = s.append(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(s.append(b"x").unwrap(), 1);
        assert_eq!(h.injected(), vec![(0, FaultKind::TransientIo)]);
    }

    #[test]
    fn crash_freezes_storage_and_yields_seeded_image() {
        let (mut s, h) = FaultyStorage::new(3);
        s.append(b"durable").unwrap();
        s.sync().unwrap();
        h.schedule(2, FaultKind::Crash);
        assert!(s
            .append(b"lost-maybe")
            .unwrap_err()
            .to_string()
            .contains("crash"));
        assert!(h.crashed());
        // Everything errors after the crash.
        assert!(s.sync().is_err());
        assert!(s.len().is_err());
        let img = h.crash_image();
        assert!(img.len() >= 7, "synced bytes lost: {}", img.len());
        assert_eq!(&img[..7], b"durable");
    }

    #[test]
    fn short_write_makes_partial_progress() {
        let (mut s, h) = FaultyStorage::new(4);
        h.schedule(0, FaultKind::ShortWrite);
        assert_eq!(s.append(b"abcd").unwrap(), 2);
        assert_eq!(s.append(b"cd").unwrap(), 2);
        assert_eq!(h.snapshot(), b"abcd");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (mut s, h) = FaultyStorage::new(5);
        s.append(&[0u8; 64]).unwrap();
        h.schedule(1, FaultKind::BitFlip);
        let mut buf = [0u8; 64];
        s.read_at(0, &mut buf).unwrap();
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "expected exactly one flipped bit");
    }
}
