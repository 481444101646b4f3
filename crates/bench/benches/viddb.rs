//! Video-database benchmarks: clip ingestion, cold and cached loads,
//! catalog rebuild on reopen, and metadata queries.

use std::hint::black_box;
use tsvr_bench::harness::Bencher;
use tsvr_viddb::{ClipBundle, ClipMeta, IncidentRow, SequenceRow, TrackRow, VideoDb, WindowRow};

/// A realistically sized bundle (~25 tracks x 80 centroids, ~70 windows).
fn bundle(clip_id: u64) -> ClipBundle {
    let tracks: Vec<TrackRow> = (0..25)
        .map(|t| TrackRow {
            track_id: t,
            start_frame: (t * 16) as u32,
            centroids: (0..80)
                .map(|i| (i as f32 * 3.0, 100.0 + (t as f32 * 7.0) % 40.0))
                .collect(),
        })
        .collect();
    let windows: Vec<WindowRow> = (0..70)
        .map(|w| WindowRow {
            window_index: w,
            start_frame: w * 15,
            end_frame: w * 15 + 14,
            sequences: (0..2)
                .map(|s| SequenceRow {
                    track_id: s,
                    alphas: vec![[0.01, 0.2, 0.0]; 3],
                })
                .collect(),
        })
        .collect();
    ClipBundle {
        meta: ClipMeta {
            clip_id,
            name: format!("bench clip {clip_id}"),
            location: "tunnel-17".into(),
            camera: "cam-03".into(),
            start_time: 1_167_609_600 + clip_id,
            frame_count: 2504,
            width: 320,
            height: 240,
        },
        tracks,
        windows,
        incidents: vec![IncidentRow {
            kind: "wall_crash".into(),
            start_frame: 230,
            end_frame: 252,
            vehicle_ids: vec![3],
        }],
    }
}

fn main() {
    let mut b = Bencher::new("viddb");

    let b0 = bundle(1);
    b.bench("db_put_clip", || {
        let mut db = VideoDb::in_memory();
        db.put_clip(black_box(&b0)).unwrap()
    });

    let mut db = VideoDb::in_memory();
    for id in 1..=20 {
        db.put_clip(&bundle(id)).unwrap();
    }
    // Every load reads, CRC-checks and decodes the record.
    let mut id = 0u64;
    b.bench("db_load_clip", || {
        id = id % 20 + 1;
        db.load_clip(black_box(id)).unwrap()
    });

    let mut db = VideoDb::in_memory();
    for id in 1..=100 {
        let mut bun = bundle(id);
        bun.meta.location = format!("loc-{}", id % 7);
        db.put_clip(&bun).unwrap();
    }
    b.bench("db_find_by_location_100_clips", || {
        db.find_by_location(black_box("loc-3")).len()
    });
    b.bench("db_find_by_time_range_100_clips", || {
        db.find_by_time_range(1_167_609_620, 1_167_609_660).len()
    });

    let mut path = std::env::temp_dir();
    path.push(format!("tsvr-bench-reopen-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut db = VideoDb::open(&path).unwrap();
        for id in 1..=10 {
            db.put_clip(&bundle(id)).unwrap();
        }
    }
    b.bench("db_reopen_10_clips", || {
        VideoDb::open(black_box(&path)).unwrap().clip_count()
    });
    let _ = std::fs::remove_file(&path);
}
