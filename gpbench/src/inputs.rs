//! Seeded input generation: capture pools, session stream layouts, the
//! segments the engine will close (found ahead of time with the public
//! online segmenters) and the books every run is scored against.
//!
//! Everything here runs before timing and depends only on the seed.

use crate::cohort;
use crate::util::mix;
use gp_pipeline::{OnlineSegmenter, SegmenterConfig};
use gp_radar::{Backend, Frame, RadarConfig, RadarSimulator, Scene};
use gp_rd::{RdConfig, RdFrame, RdSynthesizer};
use std::collections::HashMap;

/// A verdict arriving later than this after its closing frame was due
/// is late: one radar frame period at 10 fps. Late verdicts are counted
/// in the books and reported, but are not failed operations (see
/// [`Books::failed`]).
pub const LATE_MS: f64 = 100.0;

/// One simulated performance: its frames (10 fps, local indices) and
/// ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture<F> {
    /// The recorded frames.
    pub frames: Vec<F>,
    /// Performed gesture.
    pub gesture: usize,
    /// Performer (cohort index).
    pub user: usize,
    /// First motion frame.
    pub motion_start: usize,
    /// One past the last motion frame.
    pub motion_end: usize,
}

/// The (gesture, user) cell of pool item `i`: every gesture equally
/// often, users rotating, so any seed draws a balanced mix.
pub fn cell(i: usize) -> (usize, usize) {
    let gesture = i % cohort::GESTURES;
    let user = (i / cohort::GESTURES + i) % cohort::USERS;
    (gesture, user)
}

fn motion_frames(perf: &gp_kinematics::Performance) -> (usize, usize) {
    let (start, end) = perf.gesture_interval();
    (
        (start * 10.0).floor() as usize,
        (end * 10.0).ceil() as usize,
    )
}

/// A point-cloud capture through the geometric radar backend (the fast,
/// statistically matched model the training set was simulated with).
pub fn point_capture(user: usize, gesture: usize, seed: u64) -> Capture<Frame> {
    let perf = cohort::performance(user, gesture, seed);
    let (motion_start, motion_end) = motion_frames(&perf);
    let scene = Scene::for_performance(perf, cohort::ENVIRONMENT, seed ^ 0xE57);
    let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, seed ^ 0x51B);
    Capture {
        frames: sim.capture_scene(&scene),
        gesture,
        user,
        motion_start,
        motion_end,
    }
}

/// A range-Doppler capture through the `gp-rd` synthesizer.
pub fn rd_capture(user: usize, gesture: usize, seed: u64) -> Capture<RdFrame> {
    let perf = cohort::performance(user, gesture, seed);
    let (motion_start, motion_end) = motion_frames(&perf);
    let frames = RdSynthesizer::new(RdConfig::default(), seed ^ 0xF00D).synthesize(&perf);
    Capture {
        frames,
        gesture,
        user,
        motion_start,
        motion_end,
    }
}

/// Builds `size` captures with `make(user, gesture, seed)` on `threads`
/// scoped threads; item `i` is the same for any thread count.
pub fn pool<F: Send>(
    seed: u64,
    size: usize,
    threads: usize,
    make: impl Fn(usize, usize, u64) -> Capture<F> + Sync,
) -> Vec<Capture<F>> {
    let threads = threads.max(1);
    let mut slots: Vec<Option<Capture<F>>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, chunk) in slots.chunks_mut(size.div_ceil(threads).max(1)).enumerate() {
            let make = &make;
            let base = t * size.div_ceil(threads).max(1);
            scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    let i = base + offset;
                    let (gesture, user) = cell(i);
                    *slot = Some(make(user, gesture, mix(seed, 1, i as u64)));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|c| c.expect("every slot filled"))
        .collect()
}

/// Frames a gesture's motion must end before its stream does to count
/// as an operation: the point segmenter closes a segment once its
/// 10-frame motion window is static; 2 s leaves room for trailing arm
/// motion.
pub const SETTLE: usize = 20;

/// A performed gesture inside a session stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// Gesture class.
    pub gesture: usize,
    /// Performer.
    pub user: usize,
    /// First motion frame (stream index).
    pub start: usize,
    /// One past the last motion frame (stream index).
    pub end: usize,
    /// Whether this gesture is an operation: its whole motion lies
    /// inside the stream and ends at least [`SETTLE`] frames before the
    /// stream does. (Streams end without a close: closing every session
    /// at once would be a burst no radar makes.)
    pub complete: bool,
}

/// Session streams composed from a capture pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Per stream, per frame: `(pool index, local frame)`.
    pub frames: Vec<Vec<(u32, u32)>>,
    /// Per stream: the gestures performed in it.
    pub truth: Vec<Vec<Truth>>,
}

impl Layout {
    /// Composes `streams` streams of exactly `len` frames each from
    /// back-to-back pool captures chosen by `seed`. Each stream enters
    /// its first capture at a seeded offset, so streams started together
    /// do not close their gestures together; the last capture is cut at
    /// `len`. Each stream is one engine session.
    pub fn compose<F>(pool: &[Capture<F>], streams: usize, len: usize, seed: u64) -> Layout {
        let mut layout = Layout {
            frames: Vec::with_capacity(streams),
            truth: Vec::with_capacity(streams),
        };
        for k in 0..streams {
            let mut stream: Vec<(u32, u32)> = Vec::with_capacity(len);
            let mut gestures = Vec::new();
            let mut c = 0u64;
            while stream.len() < len {
                let p = (mix(seed, 2, (k as u64) << 20 | c) % pool.len() as u64) as usize;
                c += 1;
                let capture = &pool[p];
                let skip = if c == 1 {
                    (mix(seed, 3, k as u64) % capture.frames.len() as u64) as usize
                } else {
                    0
                };
                let base = stream.len();
                let take = (capture.frames.len() - skip).min(len - base);
                stream.extend((skip..skip + take).map(|l| (p as u32, l as u32)));
                let closes = base + capture.motion_end + SETTLE <= len + skip;
                gestures.push(Truth {
                    gesture: capture.gesture,
                    user: capture.user,
                    start: (base + capture.motion_start).saturating_sub(skip),
                    end: (base + capture.motion_end).saturating_sub(skip).min(len),
                    complete: skip <= capture.motion_start && closes,
                });
            }
            gestures.retain(|t| t.start < t.end);
            layout.frames.push(stream);
            layout.truth.push(gestures);
        }
        layout
    }

    /// Frame `j` of stream `k` resolved in `pool`.
    pub fn frame<'a, F>(&self, pool: &'a [Capture<F>], k: usize, j: usize) -> &'a F {
        let (p, l) = self.frames[k][j];
        &pool[p as usize].frames[l as usize]
    }
}

/// A segment the engine will close, found ahead of time (stream frame
/// indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// First frame.
    pub start: usize,
    /// One past the last frame.
    pub end: usize,
    /// Index of the frame whose push closes it.
    pub closes_at: usize,
    /// The overlapping truth with the largest overlap, if any.
    pub truth: Option<usize>,
}

fn overlap(a: (usize, usize), b: (usize, usize)) -> usize {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// The point-cloud segments each stream of `layout` will close under
/// `config` (the engine's segmenter): a fresh `OnlineSegmenter` per
/// stream, fed exactly the frames the engine will see, records every
/// segment with its closing frame and truth.
pub fn plan_point(
    layout: &Layout,
    pool: &[Capture<Frame>],
    config: &SegmenterConfig,
) -> Vec<Vec<Planned>> {
    (0..layout.frames.len())
        .map(|k| {
            let truth = &layout.truth[k];
            let mut seg = OnlineSegmenter::new(config.clone());
            (0..layout.frames[k].len())
                .filter_map(|j| {
                    let s = seg.push_frame(layout.frame(pool, k, j))?;
                    let best = truth
                        .iter()
                        .enumerate()
                        .map(|(i, t)| (overlap((s.start, s.end), (t.start, t.end)), i))
                        .filter(|(o, _)| *o > 0)
                        .max_by_key(|(o, i)| (*o, std::cmp::Reverse(*i)))
                        .map(|(_, i)| i);
                    Some(Planned {
                        start: s.start,
                        end: s.end,
                        closes_at: j,
                        truth: best,
                    })
                })
                .collect()
        })
        .collect()
}

/// One verdict as the load generator received it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Recognised gesture.
    pub gesture: usize,
    /// Closed-set user.
    pub user: usize,
    /// Closing frame due → verdict received, ms.
    pub latency_ms: f64,
    /// When the closing frame was due, ms after the phase started.
    pub due_ms: f64,
}

/// Verdicts keyed by `(session index, segment start, segment end)`.
pub type Verdicts = HashMap<(usize, usize, usize), Verdict>;

/// How every performed gesture of a paced phase ended, plus the
/// verdict-level quality shares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Books {
    /// Performed gestures (operations).
    pub attempted: u64,
    /// Gestures with a verdict within [`LATE_MS`].
    pub on_time: u64,
    /// Gestures whose verdict came later than [`LATE_MS`].
    pub late: u64,
    /// Gestures no segment overlapped.
    pub segmentation_miss: u64,
    /// Gestures whose segments all closed without a result.
    pub noise_reject: u64,
    /// Closed segments that published no result.
    pub segments_without_result: u64,
    /// Verdicts received for segments the plan does not know.
    pub unplanned_verdicts: u64,
    /// Verdicts scored.
    pub verdicts: u64,
    /// Verdicts whose gesture matches the overlapped truth.
    pub gesture_hits: u64,
    /// Verdicts whose closed-set user is the performer.
    pub user_hits: u64,
}

impl Books {
    /// Failed operations: performed gestures that got no verdict.
    ///
    /// Both causes are deterministic for a seed, so runs of one seed fail
    /// the same operations. A late verdict is still a verdict: whether it
    /// is late depends on how the host scheduled the run as much as on the
    /// program, so it is counted in [`Books::late`] (reported as
    /// `bench.late_verdicts`) and left out of the failures.
    pub fn failed(&self) -> u64 {
        self.segmentation_miss + self.noise_reject
    }

    /// Gesture recognition accuracy over verdicts.
    pub fn gra(&self) -> f64 {
        self.gesture_hits as f64 / self.verdicts.max(1) as f64
    }

    /// User identification accuracy over verdicts.
    pub fn uia(&self) -> f64 {
        self.user_hits as f64 / self.verdicts.max(1) as f64
    }
}

/// Scores received verdicts against the plan and the truth.
pub fn score(layout: &Layout, plans: &[Vec<Planned>], verdicts: &Verdicts) -> Books {
    let mut books = Books::default();
    let mut planned_keys = 0u64;
    for (k, planned) in plans.iter().enumerate() {
        let truth = &layout.truth[k];
        // Per truth: (has segment, best latency of its verdicts).
        let mut outcome: Vec<(bool, Option<f64>)> = vec![(false, None); truth.len()];
        for p in planned {
            let verdict = verdicts.get(&(k, p.start, p.end));
            if verdict.is_some() {
                planned_keys += 1;
            } else {
                books.segments_without_result += 1;
            }
            if let Some(v) = verdict {
                books.verdicts += 1;
                if let Some(t) = p.truth.map(|t| truth[t]) {
                    books.gesture_hits += u64::from(v.gesture == t.gesture);
                    books.user_hits += u64::from(v.user == t.user);
                }
            }
            if let Some(t) = p.truth {
                outcome[t].0 = true;
                if let Some(v) = verdict {
                    let best = outcome[t]
                        .1
                        .map_or(v.latency_ms, |b: f64| b.min(v.latency_ms));
                    outcome[t].1 = Some(best);
                }
            }
        }
        for (t, (segmented, latency)) in truth.iter().zip(outcome) {
            if !t.complete {
                continue;
            }
            books.attempted += 1;
            match (segmented, latency) {
                (false, _) => books.segmentation_miss += 1,
                (true, None) => books.noise_reject += 1,
                (true, Some(l)) if l > LATE_MS => books.late += 1,
                (true, Some(_)) => books.on_time += 1,
            }
        }
    }
    books.unplanned_verdicts = verdicts.len() as u64 - planned_keys;
    books
}
