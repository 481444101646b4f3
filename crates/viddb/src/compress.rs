//! XOR-delta + bit-packed compression for flat f64 feature rows.
//!
//! The raw-α feature matrices stored in `TSIX` index segments are
//! highly regular: consecutive values share sign, exponent, and most
//! mantissa bits, so the XOR of adjacent IEEE-754 bit patterns is a
//! narrow field of significant bits surrounded by zeros (the classic
//! Gorilla observation). The codec exploits that per fixed-size chunk:
//!
//! ```text
//! [u32 value count]
//! repeated chunks of up to CHUNK values:
//!   [u8 mode]
//!     mode 0 (raw):    [8 bytes LE per value]
//!     mode 1 (packed): [8 bytes first value]
//!                      [u8 shift][u8 width]
//!                      [ceil((n-1)·width / 8) bytes of packed deltas]
//! ```
//!
//! Packed deltas are `(xor >> shift)` fields of `width` bits, LSB-first
//! in a little-endian bit stream; `shift` strips trailing zero bits
//! common to every delta in the chunk and `width` covers the widest
//! remaining field. A chunk where packing would not save bytes is
//! stored raw (mode 0) — the "store raw if compression loses" fallback
//! — so the codec never does worse than `8 × n + O(n / CHUNK)` bytes.
//!
//! Decompression is bit-exact: every value round-trips to its original
//! bit pattern, NaN payloads and signed zeros included. Corrupt input
//! fails with a typed error wherever the structure permits detection
//! (impossible lengths, over-wide fields, truncated streams); bit flips
//! inside a packed field decode to *different values* and are caught by
//! the record CRC that frames every log payload.

use crate::codec::{Reader, Writer};
use crate::error::{DbError, Result};

/// Values per compression chunk. Small enough that one pathological
/// value (a width-64 outlier) only forces one chunk raw, large enough
/// to amortize the per-chunk header.
pub const CHUNK: usize = 256;

/// Compresses a slice of f64s. Infallible short of a slice longer than
/// the u32 count prefix, which surfaces as [`DbError::TooLarge`].
pub fn compress_f64s(values: &[f64]) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.put_len(values.len(), "compressed f64 values")?;
    for chunk in values.chunks(CHUNK) {
        compress_chunk(chunk, &mut w);
    }
    Ok(w.into_bytes())
}

fn compress_chunk(chunk: &[f64], w: &mut Writer) {
    debug_assert!(!chunk.is_empty());
    let bits: Vec<u64> = chunk.iter().map(|v| v.to_bits()).collect();
    // XOR deltas against the previous value in the chunk.
    let xors: Vec<u64> = bits.windows(2).map(|p| p[0] ^ p[1]).collect();
    let or_all = xors.iter().fold(0u64, |a, &x| a | x);
    let (shift, width) = if or_all == 0 {
        (0u32, 0u32)
    } else {
        let shift = or_all.trailing_zeros();
        (shift, 64 - or_all.leading_zeros() - shift)
    };
    let packed_bytes = (xors.len() * width as usize).div_ceil(8);
    let packed_total = 8 + 2 + packed_bytes;
    let raw_total = 8 * chunk.len();
    if packed_total >= raw_total {
        // Compression loses (irregular data or a tiny chunk): store raw.
        w.put_u8(0);
        for &b in &bits {
            w.put_u64(b);
        }
        return;
    }
    w.put_u8(1);
    w.put_u64(bits[0]);
    w.put_u8(shift as u8);
    w.put_u8(width as u8);
    // LSB-first little-endian bit stream. The accumulator is u128 so a
    // width-64 field appended onto up to 7 pending bits never
    // overflows.
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for &x in &xors {
        acc |= ((x >> shift) as u128) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            w.put_u8((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        w.put_u8((acc & 0xFF) as u8);
    }
}

/// Decompresses a buffer produced by [`compress_f64s`]. Bit-exact.
pub fn decompress_f64s(data: &[u8]) -> Result<Vec<f64>> {
    let mut r = Reader::new(data);
    let count = r.get_len()?;
    // A count that could not possibly fit the remaining bytes is
    // corrupt: every chunk costs at least 9 bytes (mode + first value).
    if count.div_ceil(CHUNK).saturating_mul(9) > r.remaining() {
        return Err(DbError::LengthOutOfBounds(count as u64));
    }
    // Capacity is bounded so a hostile count cannot drive a giant
    // up-front allocation; pushes grow the vec as real data decodes.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    while out.len() < count {
        let n = (count - out.len()).min(CHUNK);
        decompress_chunk(&mut r, n, &mut out)?;
    }
    if !r.is_exhausted() {
        return Err(DbError::LengthOutOfBounds(r.remaining() as u64));
    }
    Ok(out)
}

fn decompress_chunk(r: &mut Reader, n: usize, out: &mut Vec<f64>) -> Result<()> {
    match r.get_u8()? {
        0 => {
            for _ in 0..n {
                out.push(f64::from_bits(r.get_u64()?));
            }
            Ok(())
        }
        1 => {
            let first = r.get_u64()?;
            let shift = r.get_u8()? as u32;
            let width = r.get_u8()? as u32;
            // shift alone must stay under 64: `field << shift` with a
            // corrupt shift of 64+ would overflow even for zero fields.
            if shift >= 64 || shift + width > 64 {
                return Err(DbError::LengthOutOfBounds((shift + width) as u64));
            }
            out.push(f64::from_bits(first));
            let mut prev = first;
            let mut acc: u128 = 0;
            let mut acc_bits: u32 = 0;
            let mask: u128 = if width == 64 {
                u64::MAX as u128
            } else {
                (1u128 << width) - 1
            };
            for _ in 1..n {
                while acc_bits < width {
                    acc |= (r.get_u8()? as u128) << acc_bits;
                    acc_bits += 8;
                }
                let field = (acc & mask) as u64;
                acc >>= width;
                acc_bits -= width;
                let cur = prev ^ (field << shift);
                out.push(f64::from_bits(cur));
                prev = cur;
            }
            // Padding bits in the final partial byte must be zero —
            // anything else is a corrupt stream.
            if acc != 0 {
                return Err(DbError::ChecksumMismatch { offset: 0 });
            }
            Ok(())
        }
        m => Err(DbError::UnknownRecordType(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for seeded property tests (no rand crate).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn f64(&mut self) -> f64 {
            (self.next() % 10_000) as f64 / 100.0 - 50.0
        }
    }

    fn round_trip(values: &[f64]) -> Vec<u8> {
        let buf = compress_f64s(values).unwrap();
        let back = decompress_f64s(&buf).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness violated");
        }
        buf
    }

    #[test]
    fn empty_and_singleton() {
        round_trip(&[]);
        round_trip(&[42.0]);
        round_trip(&[f64::NAN]);
        round_trip(&[-0.0]);
    }

    #[test]
    fn regular_rows_compress_well() {
        // Quarter-step values like real α rows: huge shared prefixes.
        let values: Vec<f64> = (0..4096).map(|i| i as f64 * 0.25).collect();
        let buf = round_trip(&values);
        assert!(
            buf.len() * 2 < values.len() * 8,
            "regular data must compress at least 2x, got {} of {}",
            buf.len(),
            values.len() * 8
        );
    }

    #[test]
    fn constant_rows_compress_extremely() {
        let values = vec![std::f64::consts::PI; 2048];
        let buf = round_trip(&values);
        // All XOR deltas are zero: ~9 bytes per 256-value chunk + count.
        assert!(buf.len() < values.len(), "{} bytes", buf.len());
    }

    #[test]
    fn adversarial_random_bits_fall_back_to_raw() {
        // Full-entropy bit patterns cannot compress; the per-chunk raw
        // fallback caps the overhead at 1 byte per chunk + the count.
        let mut rng = Rng(0x5eed);
        let values: Vec<f64> = (0..1000).map(|_| f64::from_bits(rng.next())).collect();
        let buf = round_trip(&values);
        let raw = values.len() * 8;
        let max_overhead = 4 + values.len().div_ceil(CHUNK);
        assert!(
            buf.len() <= raw + max_overhead,
            "fallback overhead too large: {} vs raw {raw}",
            buf.len()
        );
    }

    #[test]
    fn special_values_round_trip_bitwise() {
        let values = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // subnormal
        ];
        round_trip(&values);
    }

    #[test]
    fn seeded_property_round_trips() {
        for seed in 1..=20u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let n = (rng.next() % 2000) as usize;
            let mode = rng.next() % 3;
            let values: Vec<f64> = (0..n)
                .map(|i| match mode {
                    0 => rng.f64(),                  // regular measurements
                    1 => (i / 7) as f64,             // stepped plateaus
                    _ => f64::from_bits(rng.next()), // adversarial
                })
                .collect();
            round_trip(&values);
        }
    }

    #[test]
    fn chunk_boundaries_round_trip() {
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 3] {
            let values: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            round_trip(&values);
        }
    }

    #[test]
    fn seeded_corruption_never_round_trips_silently() {
        // Flip one byte at every position; the decoder must either
        // error or produce different values — never return the original
        // data from corrupt bytes. (In the database the record CRC
        // catches the "different values" cases before decode; this
        // checks the codec's own detection surface.)
        let values: Vec<f64> = (0..600).map(|i| i as f64 * 0.5).collect();
        let buf = compress_f64s(&values).unwrap();
        let mut silent = 0usize;
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            match decompress_f64s(&bad) {
                Err(_) => {}
                Ok(back) => {
                    let same = back.len() == values.len()
                        && back
                            .iter()
                            .zip(&values)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if same {
                        silent += 1;
                    }
                }
            }
        }
        assert_eq!(silent, 0, "{silent} corruptions round-tripped silently");
    }

    #[test]
    fn truncation_detected() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let buf = compress_f64s(&values).unwrap();
        for cut in [0, 2, 4, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                decompress_f64s(&buf[..cut]).is_err(),
                "cut at {cut} succeeded"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = buf.clone();
        padded.push(0xAB);
        assert!(decompress_f64s(&padded).is_err());
    }

    #[test]
    fn hostile_count_rejected_without_huge_allocation() {
        let mut w = Writer::new();
        w.put_u32(100_000_000); // claims 10^8 values, no data behind it
        assert!(matches!(
            decompress_f64s(&w.into_bytes()).unwrap_err(),
            DbError::LengthOutOfBounds(_)
        ));
    }

    #[test]
    fn width_64_fields_round_trip() {
        // Alternating bit patterns force shift 0 / width 64 — the
        // accumulator straddle path.
        let values: Vec<f64> = (0..CHUNK + 5)
            .map(|i| {
                if i % 2 == 0 {
                    f64::from_bits(0xAAAA_AAAA_AAAA_AAAA)
                } else {
                    f64::from_bits(0x5555_5555_5555_5555)
                }
            })
            .collect();
        round_trip(&values);
    }
}
