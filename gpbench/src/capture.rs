//! `capture`: a closed batch of seeded performances by the trained
//! cohort, each through both radar front ends — the signal-chain radar
//! at the paper's default `RadarConfig` (IF synthesis → range/Doppler
//! FFTs → CFAR → angles) into `Preprocessor::process` and
//! `GesturePrint::infer_batch`, and `RdSynthesizer` → `dominant_segment`
//! → `infer_rd_batch` — on at most `nproc` threads.
//!
//! Its latency is performance-to-verdict: from the start of a
//! performance's capture until both chains have their verdicts; its
//! throughput is performances captured and classified per second.

use crate::cohort;
use crate::inputs::{cell, Books};
use crate::report::{Args, Report};
use crate::setup::{self, Systems};
use crate::trace;
use crate::util::{mix, ms, peak_rss_mb, percentile, timed};
use gestureprint_core::{GesturePrint, Inference};
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig, Segmenter};
use gp_radar::{Backend, Frame, RadarConfig, RadarSimulator, Scene};
use gp_rd::{dominant_segment, RdConfig, RdLabeledSample, RdSegmentConfig, RdSynthesizer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Distinct performances in the batch: every gesture six times, users
/// rotating. The composition is the same for every seed (the seed draws
/// each performance's variation and noise), so seeds compare like with
/// like.
pub const BATCH: usize = 90;
/// Capture threads (the box's `nproc`).
pub const THREADS: usize = 2;

/// One seeded performance to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Performer.
    pub user: usize,
    /// Gesture.
    pub gesture: usize,
    /// Seed of the performance, scene and both radars.
    pub seed: u64,
}

/// The batch a seed selects.
pub fn jobs(seed: u64) -> Vec<Job> {
    (0..BATCH)
        .map(|i| {
            let (gesture, user) = cell(i);
            Job {
                user,
                gesture,
                seed: mix(seed, 6, i as u64),
            }
        })
        .collect()
}

/// How one chain ended for one performance.
#[derive(Debug, Clone, PartialEq)]
pub enum Chain {
    /// A verdict.
    Verdict(Inference),
    /// No segment found.
    SegmentationMiss,
    /// Segments found, all dropped by noise canceling.
    NoiseReject,
}

/// Both chains' outcomes for one performance.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Signal-chain point-cloud path.
    pub point: Chain,
    /// Range-Doppler path.
    pub rd: Chain,
}

/// Captures and classifies one performance through both chains.
pub fn perform(job: &Job, point: &GesturePrint, rd: &GesturePrint) -> Outcome {
    let perf = cohort::performance(job.user, job.gesture, job.seed);
    let scene = Scene::for_performance(perf.clone(), cohort::ENVIRONMENT, job.seed ^ 0xE57);
    let mut radar = RadarSimulator::new(
        RadarConfig::default(),
        Backend::SignalChain,
        job.seed ^ 0x51B,
    );
    let frames: Vec<Frame> = radar.capture_scene(&scene);
    let pre = Preprocessor::new(PreprocessorConfig::default());
    let samples: Vec<LabeledSample> = pre
        .process(&frames)
        .into_iter()
        .map(|s| LabeledSample::from_sample(s, 0, 0))
        .collect();
    let point = if samples.is_empty() {
        if Segmenter::new(pre.config().segmenter.clone())
            .segment(&frames)
            .is_empty()
        {
            Chain::SegmentationMiss
        } else {
            Chain::NoiseReject
        }
    } else {
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let longest = (0..samples.len())
            .max_by_key(|&i| (samples[i].duration_frames, std::cmp::Reverse(i)))
            .expect("non-empty");
        Chain::Verdict(point.infer_batch(&refs).swap_remove(longest))
    };
    let rd_frames = RdSynthesizer::new(RdConfig::default(), job.seed ^ 0xF00D).synthesize(&perf);
    let rd = match dominant_segment(&rd_frames, &RdSegmentConfig::default()) {
        Some(seg) => {
            let sample = RdLabeledSample::from_segment(&rd_frames, seg.start, seg.end, 0, 0);
            Chain::Verdict(rd.infer_rd_batch(&[&sample]).swap_remove(0))
        }
        None => Chain::SegmentationMiss,
    };
    Outcome { point, rd }
}

/// Scores the batch's outcomes (one per job, first pass).
pub fn score(jobs: &[Job], outcomes: &[Outcome]) -> Books {
    let mut books = Books::default();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        books.attempted += 1;
        let chains = [&outcome.point, &outcome.rd];
        for chain in chains {
            if let Chain::Verdict(v) = chain {
                books.verdicts += 1;
                books.gesture_hits += u64::from(v.gesture == job.gesture);
                books.user_hits += u64::from(v.user == job.user);
            }
        }
        if chains.contains(&&Chain::SegmentationMiss) {
            books.segmentation_miss += 1;
        } else if chains.contains(&&Chain::NoiseReject) {
            books.noise_reject += 1;
        } else {
            books.on_time += 1;
        }
    }
    books
}

/// One capture thread's work: `(batch index, outcome, latency ms)` per
/// performance, and the span from its start to its last completion.
type ThreadRun = (Vec<(usize, Outcome, f64)>, Duration);

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (jobs, inputs) = timed(|| jobs(args.seed));
    let (loaded, setup) = setup::repeat(Systems::PointAndRd, |loaded| loaded);
    let rd = loaded.rd.as_ref().expect("rd system requested");
    let point = &loaded.point;

    // Threads take performances in batch order and keep cycling through
    // the batch until the batch is done and the time is up.
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let per_thread: Vec<ThreadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let began = Instant::now();
                    let mut done = Vec::new();
                    let mut last = began;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() && Instant::now() >= deadline {
                            break;
                        }
                        let (outcome, took) = timed(|| perform(&jobs[i % jobs.len()], point, rd));
                        last = Instant::now();
                        done.push((i, outcome, ms(took)));
                    }
                    (done, last.duration_since(began))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capture thread"))
            .collect()
    });

    let mut first: Vec<Option<Outcome>> = vec![None; jobs.len()];
    let mut latencies = Vec::new();
    let mut repeats = 0u64;
    let mut mismatches = 0u64;
    let mut throughput = 0.0;
    let mut all: Vec<(usize, Outcome)> = Vec::new();
    for (done, span) in &per_thread {
        throughput += done.len() as f64 / span.as_secs_f64().max(1e-9);
        for (i, outcome, latency_ms) in done {
            latencies.push(*latency_ms);
            all.push((*i, outcome.clone()));
        }
    }
    all.sort_by_key(|(i, _)| *i);
    for (i, outcome) in all {
        let slot = &mut first[i % jobs.len()];
        match slot {
            None => *slot = Some(outcome),
            Some(earlier) => {
                repeats += 1;
                mismatches += u64::from(*earlier != outcome);
            }
        }
    }
    let outcomes: Vec<Outcome> = first
        .into_iter()
        .map(|o| o.expect("every job of the batch ran"))
        .collect();
    let books = score(&jobs, &outcomes);

    report.attempted = books.attempted;
    report.failed = books.failed();
    let e = &mut report.e2e;
    e.set("latency_p50_ms", percentile(&latencies, 50.0), "ms");
    e.set("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    e.set("throughput_gps", throughput, "gestures/s");
    e.set("gra", books.gra(), "share");
    e.set("uia", books.uia(), "share");
    e.set("setup_s", setup.setup_s(), "s");
    e.set("peak_rss_mb", peak_rss_mb(), "MB");
    let l = &mut report.layers;
    l.set("bench.driver_lag_p99_ms", 0.0, "ms");
    l.set("bench.verdicts", books.verdicts as f64, "count");
    l.set("bench.late_verdicts", books.late as f64, "count");
    l.set("bench.inputs_s", inputs.as_secs_f64(), "s");
    report.note(format!(
        "{} performances captured ({repeats} repeats of the {}-performance batch), \
         {THREADS} threads; latency p90 {:.1} max {:.1} ms",
        jobs.len() as u64 + repeats,
        jobs.len(),
        percentile(&latencies, 90.0),
        percentile(&latencies, 100.0),
    ));
    report.note(format!("books: {books:?}"));
    report.check(mismatches == 0, || {
        format!("{mismatches} repeated performances gave a different outcome")
    });
    if args.trace {
        trace::capture_workload(&mut report, &jobs, &loaded, &setup, args.seed);
    }
    report
}
