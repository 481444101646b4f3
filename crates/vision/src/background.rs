//! Background learning and subtraction (paper §3.1).
//!
//! The authors enhance SPCPE with "a background learning and subtraction
//! method" to isolate vehicle pixels. We reproduce the standard recipe:
//! a per-pixel running-average background model learned over time (only
//! from pixels currently believed to be background, so stopped vehicles
//! do not burn in immediately) and a thresholded absolute difference.
//! The caller despeckles the threshold mask with
//! [`Mask::majority_filter`]; the model itself learns from the raw mask.

use crate::frame::{GrayFrame, Mask};

/// Per-pixel running-average background model.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    mean: Vec<f64>,
    width: u32,
    height: u32,
    /// Learning rate for background pixels.
    pub alpha: f64,
    /// Foreground threshold in gray levels.
    pub threshold: f64,
}

/// One frame classified against the model, from
/// [`BackgroundModel::subtract_and_update`].
#[derive(Debug, Clone)]
pub struct Subtraction {
    /// Raw threshold mask, not yet despeckled: pixels farther than
    /// `threshold` from the background estimate.
    pub mask: Mask,
    /// The background estimate the frame was classified against (the
    /// model before this frame's update, clamped to gray levels).
    pub background: GrayFrame,
}

impl BackgroundModel {
    /// Initializes the model from a first frame (assumed mostly
    /// background).
    pub fn from_frame(frame: &GrayFrame) -> Self {
        BackgroundModel {
            mean: frame.pixels().iter().map(|&p| p as f64).collect(),
            width: frame.width(),
            height: frame.height(),
            alpha: 0.05,
            threshold: 26.0,
        }
    }

    /// Learns from a batch of frames (e.g. an empty-scene warm-up
    /// sequence), updating every pixel.
    pub fn learn(&mut self, frames: &[GrayFrame]) {
        for f in frames {
            assert_eq!(f.width(), self.width);
            assert_eq!(f.height(), self.height);
            for (m, &p) in self.mean.iter_mut().zip(f.pixels()) {
                *m += self.alpha * (p as f64 - *m);
            }
        }
    }

    /// Classifies foreground pixels and selectively updates the model:
    /// background pixels adapt at `alpha`, foreground pixels at
    /// `alpha/20` (so long-stopped vehicles eventually merge into the
    /// background, as real systems do, but not within an event's
    /// duration).
    ///
    /// One pass over the frame yields the raw mask and the pre-update
    /// background estimate, so nothing else has to read the model.
    pub fn subtract_and_update(&mut self, frame: &GrayFrame) -> Subtraction {
        assert_eq!(frame.width(), self.width);
        assert_eq!(frame.height(), self.height);
        let mut mask = Mask::empty(self.width, self.height);
        let mut background = GrayFrame::black(self.width, self.height);
        let slow = self.alpha / 20.0;
        let pixels = frame.pixels().iter().zip(self.mean.iter_mut());
        let outputs = mask.as_mut_slice().iter_mut().zip(background.pixels_mut());
        for ((&p, m), (fg, est)) in pixels.zip(outputs) {
            *est = m.clamp(0.0, 255.0) as u8;
            let d = p as f64 - *m;
            *fg = d.abs() > self.threshold;
            let rate = if *fg { slow } else { self.alpha };
            *m += rate * d;
        }
        Subtraction { mask, background }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: u8) -> GrayFrame {
        GrayFrame::filled(32, 32, v)
    }

    /// The despeckled mask the pipeline segments.
    fn step(bg: &mut BackgroundModel, f: &GrayFrame) -> Mask {
        bg.subtract_and_update(f).mask.majority_filter(4)
    }

    fn with_block(base: u8, block: u8) -> GrayFrame {
        let mut f = flat(base);
        for y in 10..20 {
            for x in 8..24 {
                f.set(x, y, block);
            }
        }
        f
    }

    #[test]
    fn clean_background_yields_empty_mask() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let m = step(&mut bg, &flat(91));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn bright_block_detected() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let m = step(&mut bg, &with_block(90, 180));
        // 16x10 block = 160 px, majority filter trims the border.
        assert!(m.count() > 100, "count = {}", m.count());
        assert!(m.get(16, 15));
        assert!(!m.get(2, 2));
    }

    #[test]
    fn dark_block_also_detected() {
        let mut bg = BackgroundModel::from_frame(&flat(120));
        let m = step(&mut bg, &with_block(120, 20));
        assert!(m.count() > 100);
    }

    #[test]
    fn model_adapts_to_slow_illumination_change() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        // Drift the scene brightness upward slowly.
        for v in 90..130u8 {
            let m = step(&mut bg, &flat(v));
            assert_eq!(m.count(), 0, "false positives at {v}");
        }
    }

    #[test]
    fn stopped_object_persists_for_event_duration() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let f = with_block(90, 180);
        // A stopped vehicle should stay detected for at least ~100
        // frames (longer than any incident window).
        for i in 0..100 {
            let m = step(&mut bg, &f);
            assert!(m.count() > 50, "lost object at frame {i}");
        }
    }

    #[test]
    fn stopped_object_eventually_burns_in() {
        // The slow foreground adaptation (alpha/20) means a permanently
        // parked object merges into the background on the multi-hundred
        // frame scale — long after any incident window, but eventually.
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let f = with_block(90, 180);
        let mut frames_to_fade = None;
        for i in 0..5000 {
            let m = step(&mut bg, &f);
            if m.count() == 0 {
                frames_to_fade = Some(i);
                break;
            }
        }
        let fade = frames_to_fade.expect("parked object never burned in");
        assert!(fade > 300, "burned in too fast: {fade} frames");
    }

    #[test]
    fn learn_converges_to_scene() {
        let mut bg = BackgroundModel::from_frame(&flat(0));
        let frames: Vec<GrayFrame> = (0..100).map(|_| flat(90)).collect();
        bg.learn(&frames);
        let est = bg.subtract_and_update(&flat(90)).background;
        assert!((est.mean() - 90.0).abs() < 2.0, "mean = {}", est.mean());
    }

    #[test]
    fn estimate_is_the_model_before_the_update() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let first = bg.subtract_and_update(&flat(190));
        assert_eq!(first.background, flat(90));
        assert_eq!(first.mask.count(), 32 * 32, "raw mask, every pixel");
        // Foreground pixels adapt at alpha/20, a quarter of a gray
        // level per frame here: the next estimate still reads 90, and
        // only hundreds of frames later does the update show.
        let second = bg.subtract_and_update(&flat(190));
        assert_eq!(second.background, flat(90));
        for _ in 0..400 {
            bg.subtract_and_update(&flat(190));
        }
        assert!(bg.subtract_and_update(&flat(190)).background.get(0, 0) > 90);
    }
}
