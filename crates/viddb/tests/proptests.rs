//! Property-based tests for the database layer: codec round trips with
//! arbitrary content, log recovery under arbitrary truncation, and
//! frame-codec bounds. Driven by the in-tree seeded harness
//! (`tsvr_sim::check`).

use tsvr_sim::check;
use tsvr_sim::Pcg32;
use tsvr_viddb::codec::{crc32, Reader, Writer};
use tsvr_viddb::frames::{rle_compress, rle_decompress, FrameCodec, StoredFrame};
use tsvr_viddb::log::Log;
use tsvr_viddb::record::{ClipMeta, IncidentRow, SessionRow, TrackRow, WindowRow};
use tsvr_viddb::storage::MemStorage;

fn bytes(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.uniform_u32(256) as u8).collect()
}

/// An arbitrary string mixing ASCII and multibyte characters.
fn string(rng: &mut Pcg32, max_len: usize) -> String {
    let n = rng.uniform_usize(max_len + 1);
    (0..n)
        .map(|_| match rng.uniform_u32(8) {
            0 => char::from_u32(0x00C0 + rng.uniform_u32(0x100)).unwrap_or('é'),
            1 => '雨',
            _ => (0x20 + rng.uniform_u32(0x5f) as u8) as char,
        })
        .collect()
}

fn lowercase(rng: &mut Pcg32, lo: usize, hi: usize) -> String {
    let n = check::len_in(rng, lo, hi);
    (0..n)
        .map(|_| {
            if rng.chance(0.1) {
                '_'
            } else {
                (b'a' + rng.uniform_u32(26) as u8) as char
            }
        })
        .collect()
}

#[test]
fn scalar_codec_round_trip() {
    check::cases(96, |case, rng| {
        let a = rng.uniform_u32(256) as u8;
        let b = rng.next_u32();
        let c = rng.next_u64();
        let d = f64::from_bits(rng.next_u64());
        let s = string(rng, 40);
        let blob_len = rng.uniform_usize(100);
        let blob = bytes(rng, blob_len);
        let mut w = Writer::new();
        w.put_u8(a);
        w.put_u32(b);
        w.put_u64(c);
        w.put_f64(d);
        w.put_str(&s).unwrap();
        w.put_bytes(&blob).unwrap();
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), a, "case {case}");
        assert_eq!(r.get_u32().unwrap(), b, "case {case}");
        assert_eq!(r.get_u64().unwrap(), c, "case {case}");
        let got = r.get_f64().unwrap();
        assert!(got == d || (got.is_nan() && d.is_nan()), "case {case}");
        assert_eq!(r.get_str().unwrap(), s, "case {case}");
        assert_eq!(r.get_bytes().unwrap(), &blob[..], "case {case}");
        assert!(r.is_exhausted(), "case {case}");
    });
}

#[test]
fn crc_detects_single_bit_flips() {
    check::cases(96, |case, rng| {
        let len = check::len_in(rng, 1, 200);
        let data = bytes(rng, len);
        let c1 = crc32(&data);
        let mut corrupted = data.clone();
        let i = rng.uniform_usize(corrupted.len());
        corrupted[i] ^= 0x01;
        assert_ne!(c1, crc32(&corrupted), "case {case}: flip undetected");
    });
}

#[test]
fn rle_round_trips_arbitrary_bytes() {
    check::cases(96, |case, rng| {
        // Mix of pure noise and run-heavy data to exercise both paths.
        let data = if rng.chance(0.5) {
            let len = rng.uniform_usize(500);
            bytes(rng, len)
        } else {
            let mut out = Vec::new();
            while out.len() < 400 {
                let b = rng.uniform_u32(4) as u8;
                let run = 1 + rng.uniform_usize(40);
                out.extend(std::iter::repeat_n(b, run));
            }
            out
        };
        assert_eq!(rle_decompress(&rle_compress(&data)), data, "case {case}");
    });
}

#[test]
fn track_row_round_trips() {
    check::cases(96, |case, rng| {
        let row = TrackRow {
            track_id: rng.next_u64(),
            start_frame: rng.next_u32(),
            centroids: (0..rng.uniform_usize(60))
                .map(|_| (rng.uniform(-1e4, 1e4) as f32, rng.uniform(-1e4, 1e4) as f32))
                .collect(),
        };
        let mut w = Writer::new();
        row.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(TrackRow::decode(&mut r).unwrap(), row, "case {case}");
    });
}

#[test]
fn clip_meta_round_trips() {
    check::cases(96, |case, rng| {
        let meta = ClipMeta {
            clip_id: rng.next_u64(),
            name: string(rng, 30),
            location: string(rng, 30),
            camera: string(rng, 20),
            start_time: rng.next_u64(),
            frame_count: rng.next_u32(),
            width: 320,
            height: 240,
        };
        let mut w = Writer::new();
        meta.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        assert_eq!(
            ClipMeta::decode(&mut Reader::new(&buf)).unwrap(),
            meta,
            "case {case}"
        );
    });
}

#[test]
fn incident_and_session_rows_round_trip() {
    check::cases(96, |case, rng| {
        let kind = lowercase(rng, 1, 16);
        let s = rng.next_u32();
        let dur = rng.uniform_u32(500);
        let ids: Vec<u64> = (0..rng.uniform_usize(5)).map(|_| rng.next_u64()).collect();
        let n_accs = rng.uniform_usize(6);
        let accs = check::vec_f64(rng, n_accs, 0.0, 1.0);
        let inc = IncidentRow {
            kind: kind.clone(),
            start_frame: s,
            end_frame: s.saturating_add(dur),
            vehicle_ids: ids,
        };
        let mut w = Writer::new();
        inc.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        assert_eq!(
            IncidentRow::decode(&mut Reader::new(&buf)).unwrap(),
            inc,
            "case {case}"
        );

        let ses = SessionRow {
            session_id: 1,
            clip_id: 2,
            query: kind,
            learner: "x".into(),
            feedback: vec![vec![(3, true), (4, false)]],
            accuracies: accs,
        };
        let mut w = Writer::new();
        ses.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        assert_eq!(
            SessionRow::decode(&mut Reader::new(&buf)).unwrap(),
            ses,
            "case {case}"
        );
    });
}

#[test]
fn log_round_trips_arbitrary_records() {
    check::cases(96, |case, rng| {
        let records: Vec<Vec<u8>> = (0..rng.uniform_usize(20))
            .map(|_| {
                // Frames are non-empty by contract (zero-length frames
                // are reserved as a corruption signature).
                let len = check::len_in(rng, 1, 80);
                bytes(rng, len)
            })
            .collect();
        let mut log = Log::in_memory();
        let mut offsets = Vec::new();
        for rec in &records {
            offsets.push(log.append(rec).unwrap());
        }
        for (off, rec) in offsets.iter().zip(&records) {
            assert_eq!(&log.read(*off).unwrap(), rec, "case {case}");
        }
        let scanned = log.scan().unwrap();
        assert_eq!(scanned.len(), records.len(), "case {case}");
        for ((_, got), want) in scanned.iter().zip(&records) {
            assert_eq!(got, want, "case {case}");
        }
    });
}

/// Builds a log image holding `records`, returning its raw bytes.
fn log_image(records: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Vec::new();
    w.extend_from_slice(b"TSVRDB01");
    for rec in records {
        w.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        w.extend_from_slice(&crc32(rec).to_le_bytes());
        w.extend_from_slice(rec);
    }
    w
}

#[test]
fn log_survives_any_single_bit_flip() {
    check::cases(96, |case, rng| {
        let records: Vec<Vec<u8>> = (0..check::len_in(rng, 1, 10))
            .map(|_| {
                let len = check::len_in(rng, 1, 60);
                bytes(rng, len)
            })
            .collect();
        let mut image = log_image(&records);
        // Flip one bit anywhere past the magic.
        let byte = 8 + rng.uniform_usize(image.len() - 8);
        let bit = rng.uniform_u32(8);
        image[byte] ^= 1 << bit;
        // Opening must never fail or panic.
        let mut log = Log::with_storage(Box::new(MemStorage::from_bytes(image)))
            .unwrap_or_else(|e| panic!("case {case}: open failed: {e}"));
        let got = log.scan().unwrap();
        // Every served record must be one of the originals (CRC means a
        // flipped record is dropped, never silently mis-served), and at
        // most one record may be lost.
        let mut remaining: Vec<&Vec<u8>> = records.iter().collect();
        for (_, payload) in &got {
            let pos = remaining
                .iter()
                .position(|r| *r == payload)
                .unwrap_or_else(|| panic!("case {case}: served a payload never stored"));
            remaining.remove(pos);
        }
        assert!(
            got.len() + 1 >= records.len(),
            "case {case}: single flip lost {} records",
            records.len() - got.len()
        );
    });
}

#[test]
fn log_recovers_exact_record_prefix_under_truncation() {
    check::cases(96, |case, rng| {
        let records: Vec<Vec<u8>> = (0..check::len_in(rng, 1, 8))
            .map(|_| {
                let len = check::len_in(rng, 1, 50);
                bytes(rng, len)
            })
            .collect();
        let image = log_image(&records);
        let cut = rng.uniform_usize(image.len() + 1);
        let mut log = Log::with_storage(Box::new(MemStorage::from_bytes(image[..cut].to_vec())))
            .unwrap_or_else(|e| panic!("case {case}: open failed: {e}"));
        let got = log.scan().unwrap();
        if cut < 8 {
            // Sub-magic cut: re-initialised empty log.
            assert!(got.is_empty(), "case {case}");
            assert!(
                log.recovery_report().recovered_header || cut == 0,
                "case {case}"
            );
            return;
        }
        // The recovered records must be exactly the longest full-record
        // prefix that fits in `cut` bytes.
        let mut expect = Vec::new();
        let mut off = 8usize;
        for rec in &records {
            if off + 8 + rec.len() <= cut {
                expect.push(rec.clone());
                off += 8 + rec.len();
            } else {
                break;
            }
        }
        let got_payloads: Vec<Vec<u8>> = got.into_iter().map(|(_, p)| p).collect();
        assert_eq!(got_payloads, expect, "case {case}: wrong prefix recovered");
    });
}

#[test]
fn corrupted_record_bytes_never_panic_decoders() {
    // Any single bit flip or truncation of an encoded record must
    // yield either a clean DbError or a decode (possibly different
    // values for a flip in a value field — that is what the log-level
    // CRC protects against) — never a panic or abort.
    check::cases(96, |_case, rng| {
        let row = WindowRow {
            window_index: rng.next_u32(),
            start_frame: rng.next_u32(),
            end_frame: rng.next_u32(),
            sequences: (0..check::len_in(rng, 0, 3))
                .map(|_| tsvr_viddb::SequenceRow {
                    track_id: rng.next_u64(),
                    alphas: (0..check::len_in(rng, 0, 4))
                        .map(|_| {
                            [
                                rng.uniform(0.0, 1.0),
                                rng.uniform(0.0, 1.0),
                                rng.uniform(0.0, 1.0),
                            ]
                        })
                        .collect(),
                })
                .collect(),
        };
        let mut w = Writer::new();
        row.encode(&mut w).unwrap();
        let clean = w.into_bytes();

        // Bit flip.
        let mut flipped = clean.clone();
        let byte = rng.uniform_usize(flipped.len());
        flipped[byte] ^= 1 << rng.uniform_u32(8);
        let _ = WindowRow::decode(&mut Reader::new(&flipped)); // must not panic

        // Truncation.
        let cut = rng.uniform_usize(clean.len());
        assert!(
            WindowRow::decode(&mut Reader::new(&clean[..cut])).is_err(),
            "truncated record decoded successfully"
        );

        // Session records too (nested collections).
        let ses = SessionRow {
            session_id: rng.next_u64(),
            clip_id: rng.next_u64(),
            query: lowercase(rng, 1, 8),
            learner: lowercase(rng, 1, 8),
            feedback: vec![vec![(rng.next_u32(), rng.chance(0.5))]],
            accuracies: check::vec_f64(rng, 3, 0.0, 1.0),
        };
        let mut w = Writer::new();
        ses.encode(&mut w).unwrap();
        let mut enc = w.into_bytes();
        let byte = rng.uniform_usize(enc.len());
        enc[byte] ^= 1 << rng.uniform_u32(8);
        let _ = SessionRow::decode(&mut Reader::new(&enc)); // must not panic
    });
}

#[test]
fn frame_codec_error_bounded_by_quant_step() {
    check::cases(96, |case, rng| {
        let pixels = bytes(rng, 64);
        let quant = 1 + rng.uniform_u32(31) as u8;
        let frame = StoredFrame::new(8, 8, pixels.clone()).unwrap();
        let codec = FrameCodec { quant_step: quant };
        let payload = codec.encode_segment(&[frame]).unwrap();
        let decoded = FrameCodec::decode_segment(&payload).unwrap();
        for (&got, &want) in decoded[0].pixels.iter().zip(&pixels) {
            assert!(
                (got as i16 - want as i16).unsigned_abs() <= quant as u16,
                "case {case}: error beyond quant step: {got} vs {want} (q={quant})"
            );
        }
    });
}

#[test]
fn frame_codec_multi_frame_round_trip() {
    check::cases(96, |case, rng| {
        let seed = rng.next_u32();
        let count = check::len_in(rng, 1, 6);
        // Slowly varying frames (like real video).
        let frames: Vec<StoredFrame> = (0..count)
            .map(|k| {
                let pixels = (0..48u32)
                    .map(|i| {
                        let h = (seed as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add(i as u64);
                        (((h >> 32) as u8) / 4).wrapping_add(k as u8 * 3)
                    })
                    .collect();
                StoredFrame::new(8, 6, pixels).unwrap()
            })
            .collect();
        let codec = FrameCodec { quant_step: 1 };
        let payload = codec.encode_segment(&frames).unwrap();
        let decoded = FrameCodec::decode_segment(&payload).unwrap();
        assert_eq!(decoded, frames, "case {case}");
    });
}
