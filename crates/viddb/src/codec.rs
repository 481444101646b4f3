//! Little-endian binary codec with CRC-32 integrity.
//!
//! The allowed dependency set has no serialization format crate, so the
//! database defines its own: fixed-width little-endian scalars,
//! length-prefixed strings and vectors, and CRC-32 (IEEE 802.3,
//! table-driven) over record payloads.

use crate::error::{DbError, Result};

/// Upper bound for any length field — catches corrupt/hostile lengths
/// before they turn into giant allocations.
pub const MAX_LEN: u64 = 1 << 30;

/// Growable byte sink for encoding.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Finishes and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a collection length as a checked `u32` prefix.
    ///
    /// A length over `u32::MAX` (or the codec's `MAX_LEN` sanity bound,
    /// which decode enforces) surfaces as [`DbError::TooLarge`] instead
    /// of the silent `as u32` truncation that would corrupt the record.
    pub fn put_len(&mut self, n: usize, context: &'static str) -> Result<()> {
        match u32::try_from(n) {
            Ok(v) if (v as u64) <= MAX_LEN => {
                self.put_u32(v);
                Ok(())
            }
            _ => Err(DbError::TooLarge { context, len: n }),
        }
    }

    /// Writes raw bytes with a checked `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) -> Result<()> {
        self.put_len(v.len(), "byte slice")?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    /// Writes a UTF-8 string with a checked `u32` length prefix.
    pub fn put_str(&mut self, v: &str) -> Result<()> {
        self.put_bytes(v.as_bytes())
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
}

/// Cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a slice.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DbError::UnexpectedEof { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as u64;
        if n > MAX_LEN {
            return Err(DbError::LengthOutOfBounds(n));
        }
        self.take(n as usize, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DbError::InvalidUtf8)
    }

    /// Reads a boolean byte.
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length prefix for a collection, sanity-bounded.
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_u32()? as u64;
        if n > MAX_LEN {
            return Err(DbError::LengthOutOfBounds(n));
        }
        Ok(n as usize)
    }

    /// Reads a collection length prefix and additionally bounds it by
    /// the bytes actually remaining: a count of `n` elements of at
    /// least `min_elem_bytes` each cannot exceed
    /// `remaining / min_elem_bytes`. This stops a bit-flipped length
    /// field from driving a huge `Vec::with_capacity` allocation (an
    /// abort, not a catchable error) before element decoding would
    /// naturally hit EOF.
    pub fn get_len_bounded(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.get_len()?;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(DbError::LengthOutOfBounds(n as u64));
        }
        Ok(n)
    }
}

/// CRC-32 (IEEE) lookup table, evaluated at compile time — no lazy
/// initialization (or its synchronization) on the checksum path.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-2.5);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -2.5);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.put_str("tunnel 北上").unwrap();
        w.put_bytes(&[1, 2, 3]).unwrap();
        w.put_str("").unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "tunnel 北上");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn eof_detected() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32().unwrap_err(),
            DbError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn truncated_string_detected() {
        let mut w = Writer::new();
        w.put_str("hello").unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut r = Reader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE, 0xFD]).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_str().unwrap_err(), DbError::InvalidUtf8));
    }

    #[test]
    fn hostile_length_rejected() {
        // Length prefix of u32::MAX with no data behind it.
        let bytes = u32::MAX.to_le_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes().unwrap_err(),
            DbError::LengthOutOfBounds(_)
        ));
    }

    #[test]
    fn bounded_length_rejects_counts_that_cannot_fit() {
        // Count of 1000 elements ≥ 8 bytes each, but only 12 bytes follow.
        let mut w = Writer::new();
        w.put_u32(1000);
        w.put_u64(0);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_len_bounded(8).unwrap_err(),
            DbError::LengthOutOfBounds(1000)
        ));
        // A count that fits passes.
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len_bounded(8).unwrap(), 1);
        assert_eq!(r.get_u64().unwrap(), 42);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors — these pin the const table: any change
        // to its construction that alters the polynomial or bit order
        // fails here.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc_table_first_entries_pinned() {
        // Spot-check the compile-time table itself against the IEEE
        // 802.3 reflected polynomial's known first entries.
        assert_eq!(CRC_TABLE[0], 0);
        assert_eq!(CRC_TABLE[1], 0x7707_3096);
        assert_eq!(CRC_TABLE[255], 0x2D02_EF8D);
    }

    #[test]
    fn oversized_length_rejected_on_encode() {
        let mut w = Writer::new();
        // One past the decode-side sanity bound must fail on encode —
        // otherwise we could write records our own reader rejects.
        let err = w.put_len((MAX_LEN + 1) as usize, "rows").unwrap_err();
        assert!(
            matches!(err, DbError::TooLarge { context: "rows", len } if len as u64 == MAX_LEN + 1)
        );
        // Nothing was written by the failed call.
        assert!(w.is_empty());
        // A length at the bound encodes fine.
        w.put_len(3, "rows").unwrap();
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn nan_f64_round_trips_bitwise() {
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        w.put_f64(f64::INFINITY);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
    }
}
