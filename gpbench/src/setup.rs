//! Server cold start, timed several times per run: reading and loading
//! the committed systems and spawning the engine.

use crate::cohort;
use crate::util::{median, ms, timed};
use gestureprint_core::GesturePrint;
use std::time::Duration;

/// How many cold starts each run times; `setup_s` is their median.
pub const REPEATS: usize = 25;

/// The systems a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Systems {
    /// The point-cloud system only.
    Point,
    /// The point-cloud system plus the range-Doppler system.
    PointAndRd,
}

/// Verifies the committed artifacts' digests once, before any timing.
///
/// # Errors
///
/// The first artifact whose bytes do not match `SHA256SUMS`.
pub fn verify_artifacts() -> Result<(), String> {
    for name in [cohort::POINT_SYSTEM, cohort::RD_SYSTEM] {
        cohort::read_verified(name)?;
    }
    Ok(())
}

/// Loaded systems plus the per-system load times of this cold start.
pub struct Loaded {
    /// The point-cloud system.
    pub point: GesturePrint,
    /// The range-Doppler system, when requested.
    pub rd: Option<GesturePrint>,
    /// `GesturePrint::load_artifact` time per system loaded (ms).
    pub load_ms: Vec<f64>,
}

fn load_one(name: &str) -> (GesturePrint, f64) {
    let bytes = std::fs::read(cohort::models_dir().join(name)).expect("artifact verified at start");
    let (system, elapsed) = timed(|| GesturePrint::load_artifact(&bytes));
    (system.expect("verified artifact loads"), ms(elapsed))
}

/// Reads and loads the systems (the first half of a cold start).
pub fn load(systems: Systems) -> Loaded {
    let (point, point_ms) = load_one(cohort::POINT_SYSTEM);
    let mut load_ms = vec![point_ms];
    let rd = (systems == Systems::PointAndRd).then(|| {
        let (rd, rd_ms) = load_one(cohort::RD_SYSTEM);
        load_ms.push(rd_ms);
        rd
    });
    Loaded { point, rd, load_ms }
}

/// Statistics over a run's repeated cold starts.
#[derive(Debug, Clone, Default)]
pub struct SetupStats {
    /// Whole cold start per repeat (s).
    pub total_s: Vec<f64>,
    /// Mean per-system `load_artifact` time per repeat (ms).
    pub load_ms: Vec<f64>,
}

impl SetupStats {
    /// Records one cold start.
    pub fn record(&mut self, total: Duration, loaded_ms: &[f64]) {
        self.total_s.push(total.as_secs_f64());
        self.load_ms
            .push(loaded_ms.iter().sum::<f64>() / loaded_ms.len().max(1) as f64);
    }

    /// `setup_s`: the median cold start.
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }
}

/// Runs `start` [`REPEATS`] times, each a complete cold start returning
/// the started server; keeps the last server (earlier ones are dropped,
/// which stops them).
pub fn repeat<S>(systems: Systems, mut start: impl FnMut(Loaded) -> S) -> (S, SetupStats) {
    let mut stats = SetupStats::default();
    let mut last = None;
    for _ in 0..REPEATS {
        drop(last.take());
        let began = std::time::Instant::now();
        let loaded = load(systems);
        let load_ms = loaded.load_ms.clone();
        let server = start(loaded);
        stats.record(began.elapsed(), &load_ms);
        last = Some(server);
    }
    (last.expect("at least one cold start"), stats)
}
