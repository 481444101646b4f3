//! Simultaneous Partition and Class Parameter Estimation (two-class
//! variant).
//!
//! The paper's substrate \[20\] segments frames with SPCPE: starting from
//! an initial partition, it alternates between estimating per-class
//! parameters (here: the mean intensity of each class) and reassigning
//! pixels to the class whose model explains them best, until the
//! partition stabilizes. We run it on the background-subtraction
//! difference image, seeded by the threshold mask, which sharpens vehicle
//! boundaries that the fixed threshold blurs.
//!
//! # A fixed amount of work per pixel
//!
//! A pixel's class depends only on its `u8` value, so the refinement is
//! a 256-bin problem once the pixels are counted. [`refine`] makes one
//! pass over the frame that builds two histograms (all pixels, and the
//! initial foreground), runs every sweep on the bins, and writes the
//! final partition in one lookup-table pass. From the first
//! reassignment on, the partition is a function of the value: bin `v`
//! is wholly foreground or wholly background.
//!
//! The result is bit-identical to sweeping the pixels:
//! - a class sum is an integer below 2^53 (at most 255 per pixel, and a
//!   frame has fewer than 2^32 pixels), so the per-pixel running `f64`
//!   sum never rounds and equals `Σ v·count` summed in `u64` and
//!   converted once; the means divide the same two numbers;
//! - reassignment compares the same `f64` values against the same
//!   means, once per bin instead of once per pixel;
//! - the pixels that change class are counted per bin, so convergence,
//!   the degenerate early return and the `MAX_ITERS` cap fire on the
//!   same sweep.

use crate::frame::{GrayFrame, Mask};

/// Result of a two-class SPCPE run.
#[derive(Debug, Clone)]
pub struct SpcpeResult {
    /// Final foreground partition.
    pub mask: Mask,
    /// Mean difference-intensity of the background class.
    pub bg_mean: f64,
    /// Mean difference-intensity of the foreground class.
    pub fg_mean: f64,
    /// Iterations executed until convergence (or the cap).
    pub iterations: usize,
}

/// Maximum refinement sweeps.
const MAX_ITERS: usize = 12;

/// Runs two-class SPCPE on a difference image, seeded with an initial
/// partition.
///
/// Each sweep: (1) estimate the two class means from the current
/// partition, (2) reassign every pixel to the nearer mean. Stops when a
/// sweep changes no pixels. Degenerates gracefully: if either class is
/// empty the current partition is returned unchanged (the input mask,
/// when that happens on the first sweep).
pub fn refine(diff: &GrayFrame, initial: &Mask) -> SpcpeResult {
    assert_eq!(diff.width(), initial.width());
    assert_eq!(diff.height(), initial.height());
    let pixels = diff.pixels();

    // The one pass that reads the initial partition: `all[v]` pixels
    // have value v, `fg[v]` of them are foreground. Every sweep keeps
    // `fg` as the partition's per-bin foreground count.
    let (all, mut fg) = histograms(pixels, initial.as_slice());
    let weighted = |h: &[u64; 256]| -> (u64, u64) {
        h.iter()
            .enumerate()
            .fold((0, 0), |(n, s), (v, &c)| (n + c, s + v as u64 * c))
    };
    let (total_n, total_sum) = weighted(&all);

    // The value → class table of the last reassignment, if any ran.
    let mut lut: Option<[bool; 256]> = None;
    let mut bg_mean = 0.0;
    let mut fg_mean = 0.0;
    let mut iterations = 0;

    for it in 0..MAX_ITERS {
        iterations = it + 1;
        // Class parameter estimation.
        let (fg_n, fg_sum) = weighted(&fg);
        let (bg_n, bg_sum) = (total_n - fg_n, total_sum - fg_sum);
        if fg_n == 0 || bg_n == 0 {
            // Degenerate partition; nothing to refine.
            let mean = |sum: u64, n: u64| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
            return SpcpeResult {
                mask: write_partition(pixels, initial, lut.as_ref()),
                bg_mean: mean(bg_sum, bg_n),
                fg_mean: mean(fg_sum, fg_n),
                iterations,
            };
        }
        bg_mean = bg_sum as f64 / bg_n as f64;
        fg_mean = fg_sum as f64 / fg_n as f64;

        // Partition update, one decision per value.
        let mut to_fg = [false; 256];
        let mut changed = 0u64;
        for (v, class) in to_fg.iter_mut().enumerate() {
            let x = v as f64;
            *class = (x - fg_mean).abs() < (x - bg_mean).abs();
            let now_fg = if *class { all[v] } else { 0 };
            changed += now_fg.abs_diff(fg[v]);
            fg[v] = now_fg;
        }
        lut = Some(to_fg);
        if changed == 0 {
            break;
        }
    }

    SpcpeResult {
        mask: write_partition(pixels, initial, lut.as_ref()),
        bg_mean,
        fg_mean,
        iterations,
    }
}

/// Per-value counts of all pixels and of the foreground pixels.
///
/// Each pixel bumps one counter, indexed by value and class, in one of
/// four tables by position: runs of equal pixels (most of a difference
/// image) then feed four independent counters instead of one serial
/// read-modify-write chain.
fn histograms(pixels: &[u8], fg: &[bool]) -> ([u64; 256], [u64; 256]) {
    const LANES: usize = 4;
    let bin = |p: u8, f: bool| (usize::from(p) << 1) | usize::from(f);
    let mut tables = [[0u32; 512]; LANES];
    let mut px = pixels.chunks_exact(LANES);
    let mut fx = fg.chunks_exact(LANES);
    for (p, f) in (&mut px).zip(&mut fx) {
        for (lane, table) in tables.iter_mut().enumerate() {
            table[bin(p[lane], f[lane])] += 1;
        }
    }
    for (&p, &f) in px.remainder().iter().zip(fx.remainder()) {
        tables[0][bin(p, f)] += 1;
    }
    let (mut all, mut fore) = ([0u64; 256], [0u64; 256]);
    for table in &tables {
        for v in 0..256 {
            let (b, f) = (u64::from(table[2 * v]), u64::from(table[2 * v + 1]));
            all[v] += b + f;
            fore[v] += f;
        }
    }
    (all, fore)
}

/// The partition as a mask: `initial` if no reassignment ran, else the
/// value → class table applied to every pixel.
fn write_partition(pixels: &[u8], initial: &Mask, lut: Option<&[bool; 256]>) -> Mask {
    let Some(lut) = lut else {
        return initial.clone();
    };
    let mut mask = Mask::empty(initial.width(), initial.height());
    for (m, &p) in mask.as_mut_slice().iter_mut().zip(pixels) {
        *m = lut[p as usize];
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::check;

    /// The per-pixel loop the histogram form replaced (two `f64` passes
    /// over every pixel per sweep): the reference [`refine`] must match
    /// bit for bit.
    fn refine_per_pixel(diff: &GrayFrame, initial: &Mask) -> SpcpeResult {
        let pixels = diff.pixels();
        let mut mask = initial.clone();
        let (mut bg_mean, mut fg_mean, mut iterations) = (0.0, 0.0, 0);
        for it in 0..MAX_ITERS {
            iterations = it + 1;
            let (mut bg_sum, mut bg_n, mut fg_sum, mut fg_n) = (0.0f64, 0usize, 0.0f64, 0usize);
            for (i, &p) in pixels.iter().enumerate() {
                if mask.as_slice()[i] {
                    fg_sum += p as f64;
                    fg_n += 1;
                } else {
                    bg_sum += p as f64;
                    bg_n += 1;
                }
            }
            if fg_n == 0 || bg_n == 0 {
                return SpcpeResult {
                    mask,
                    bg_mean: if bg_n > 0 { bg_sum / bg_n as f64 } else { 0.0 },
                    fg_mean: if fg_n > 0 { fg_sum / fg_n as f64 } else { 0.0 },
                    iterations,
                };
            }
            bg_mean = bg_sum / bg_n as f64;
            fg_mean = fg_sum / fg_n as f64;
            let mut changed = 0usize;
            for (i, &p) in pixels.iter().enumerate() {
                let v = p as f64;
                let to_fg = (v - fg_mean).abs() < (v - bg_mean).abs();
                if mask.as_slice()[i] != to_fg {
                    mask.as_mut_slice()[i] = to_fg;
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
        }
        SpcpeResult {
            mask,
            bg_mean,
            fg_mean,
            iterations,
        }
    }

    fn frame_of(width: u32, height: u32, pixels: &[u8]) -> GrayFrame {
        let mut f = GrayFrame::black(width, height);
        f.pixels_mut().copy_from_slice(pixels);
        f
    }

    fn mask_of(width: u32, height: u32, bits: &[bool]) -> Mask {
        let mut m = Mask::empty(width, height);
        m.as_mut_slice().copy_from_slice(bits);
        m
    }

    /// Asserts the histogram and per-pixel forms agree bit for bit and
    /// returns the shared result.
    fn assert_matches_reference(diff: &GrayFrame, initial: &Mask, what: &str) -> SpcpeResult {
        let fast = refine(diff, initial);
        let slow = refine_per_pixel(diff, initial);
        assert_eq!(
            fast.bg_mean.to_bits(),
            slow.bg_mean.to_bits(),
            "{what}: bg_mean"
        );
        assert_eq!(
            fast.fg_mean.to_bits(),
            slow.fg_mean.to_bits(),
            "{what}: fg_mean"
        );
        assert_eq!(fast.iterations, slow.iterations, "{what}: iterations");
        assert_eq!(fast.mask, slow.mask, "{what}: mask");
        fast
    }

    #[test]
    fn histogram_refine_matches_per_pixel_reference() {
        check::cases(300, |case, rng| {
            let w = check::len_in(rng, 1, 48) as u32;
            let h = check::len_in(rng, 1, 48) as u32;
            let n = (w * h) as usize;
            // Uniform noise, a difference image (low residue with bright
            // vehicles), or a few distinct levels.
            let levels: Vec<u8> = (0..4).map(|_| rng.uniform_u32(256) as u8).collect();
            let pixels: Vec<u8> = (0..n)
                .map(|_| match case % 3 {
                    0 => rng.uniform_u32(256) as u8,
                    1 if rng.chance(0.15) => 30 + rng.uniform_u32(226) as u8,
                    1 => rng.uniform_u32(12) as u8,
                    _ => levels[rng.uniform_usize(levels.len())],
                })
                .collect();
            // Initial masks: random, or the threshold mask the pipeline
            // seeds with.
            let bits: Vec<bool> = if rng.chance(0.5) {
                let p = rng.next_f64();
                check::vec_bool(rng, n, p)
            } else {
                let t = rng.uniform_u32(256) as u8;
                pixels.iter().map(|&v| v > t).collect()
            };
            assert_matches_reference(
                &frame_of(w, h, &pixels),
                &mask_of(w, h, &bits),
                &format!("case {case}"),
            );
        });
    }

    #[test]
    fn histogram_refine_matches_reference_on_degenerate_frames() {
        let noisy: Vec<u8> = (0..64u32).map(|i| (i * 37 % 256) as u8).collect();
        let noisy = frame_of(8, 8, &noisy);
        // Empty and all-foreground initial masks: degenerate on sweep 1.
        let r = assert_matches_reference(&noisy, &Mask::empty(8, 8), "empty mask");
        assert_eq!(r.iterations, 1);
        let r = assert_matches_reference(&noisy, &mask_of(8, 8, &[true; 64]), "all foreground");
        assert_eq!((r.iterations, r.mask.count()), (1, 64));
        // A constant frame under a mixed mask: equal means send every
        // pixel to the background, so sweep 2 is degenerate.
        let flat = GrayFrame::filled(8, 8, 77);
        let half: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let r = assert_matches_reference(&flat, &mask_of(8, 8, &half), "constant frame");
        assert_eq!((r.iterations, r.mask.count()), (2, 0));
        // No pixels at all.
        assert_matches_reference(&GrayFrame::black(0, 0), &Mask::empty(0, 0), "0x0");
    }

    #[test]
    fn histogram_refine_matches_reference_at_the_iteration_cap() {
        // A Laplace-shaped histogram around 128: at its centre the
        // two-means threshold map has slope 1, so seeded from the single
        // brightest pixel the partition creeps down one step per sweep
        // and is still changing when the cap stops it.
        let mut pixels = Vec::new();
        for v in 0..256i32 {
            let count = (40.0 * (-f64::from((v - 128).abs()) / 30.0).exp()).round() as usize;
            pixels.extend(std::iter::repeat_n(v as u8, count));
        }
        let n = pixels.len() as u32;
        let initial: Vec<bool> = pixels.iter().map(|&v| v == 255).collect();
        assert!(initial.contains(&true));
        let r = assert_matches_reference(&frame_of(n, 1, &pixels), &mask_of(n, 1, &initial), "cap");
        assert_eq!(r.iterations, MAX_ITERS);
        // The cap fired mid-descent: restarted from the capped
        // partition, the next sweep still moves pixels.
        assert!(refine(&frame_of(n, 1, &pixels), &r.mask).iterations > 1);
    }

    /// Difference image: near-zero background with an 80-level block,
    /// plus a smeared boundary the threshold mask gets wrong.
    fn scene() -> (GrayFrame, Mask) {
        let mut diff = GrayFrame::black(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                // Deterministic small background residue 0..6.
                diff.set(x, y, ((x * 7 + y * 13) % 7) as u8);
            }
        }
        for y in 8..16 {
            for x in 6..18 {
                diff.set(x, y, 80);
            }
        }
        // Halo of intermediate values around the block.
        for x in 5..19 {
            diff.set(x, 7, 45);
            diff.set(x, 16, 45);
        }
        // Initial mask from a crude threshold at 50: misses the halo.
        let mut mask = Mask::empty(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                mask.set(x, y, diff.get(x, y) > 50);
            }
        }
        (diff, mask)
    }

    #[test]
    fn refine_recovers_halo_pixels() {
        let (diff, initial) = scene();
        let before = initial.count();
        let r = refine(&diff, &initial);
        // Halo (45) is closer to fg mean (~80) than bg mean (~3), so it
        // should join the foreground.
        assert!(r.mask.count() > before, "{} <= {before}", r.mask.count());
        assert!(r.mask.get(10, 7));
        assert!(r.mask.get(10, 16));
    }

    #[test]
    fn class_means_are_separated() {
        let (diff, initial) = scene();
        let r = refine(&diff, &initial);
        assert!(r.fg_mean > 40.0, "fg {}", r.fg_mean);
        assert!(r.bg_mean < 10.0, "bg {}", r.bg_mean);
    }

    #[test]
    fn converges_and_is_idempotent() {
        let (diff, initial) = scene();
        let r1 = refine(&diff, &initial);
        assert!(r1.iterations <= MAX_ITERS);
        let r2 = refine(&diff, &r1.mask);
        assert_eq!(r1.mask, r2.mask, "second refinement changed the mask");
    }

    #[test]
    fn empty_initial_mask_is_returned_unchanged() {
        let diff = GrayFrame::filled(8, 8, 5);
        let m = Mask::empty(8, 8);
        let r = refine(&diff, &m);
        assert_eq!(r.mask.count(), 0);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn full_initial_mask_is_returned_unchanged() {
        let diff = GrayFrame::filled(8, 8, 200);
        let mut m = Mask::empty(8, 8);
        for i in 0..64 {
            m.as_mut_slice()[i] = true;
        }
        let r = refine(&diff, &m);
        assert_eq!(r.mask.count(), 64);
    }

    #[test]
    fn background_noise_does_not_join_foreground() {
        let (diff, initial) = scene();
        let r = refine(&diff, &initial);
        // Distant background pixels stay background.
        assert!(!r.mask.get(1, 1));
        assert!(!r.mask.get(22, 22));
    }
}
