//! What one run reports, and the checks that decide `correct`.

use crate::inputs::{Books, Verdicts};
use crate::setup::SetupStats;
use crate::util::{calm_percentile, peak_rss_mb, percentile, window_percentiles, Metrics};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// A load generator that falls behind its schedule by more than this has not
/// offered the load it claims; its latencies are not reported as valid.
pub const MAX_GENERATOR_LAG_MS: f64 = 100.0;

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Human-readable context lines.
    pub notes: Vec<String>,
    /// Correctness or books discrepancies; any makes the run fail.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a discrepancy when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Fills the end-to-end metrics and context every serving workload
/// shares, and runs the shared books and validity checks.
#[allow(clippy::too_many_arguments)]
pub fn serving(
    report: &mut Report,
    books: &Books,
    verdicts: &Verdicts,
    lags_ms: &[f64],
    throughput: f64,
    setup: &SetupStats,
    inputs_s: f64,
) {
    let timed: Vec<(f64, f64)> = verdicts
        .values()
        .filter(|v| v.latency_ms.is_finite())
        .map(|v| (v.due_ms, v.latency_ms))
        .collect();
    let latencies: Vec<f64> = timed.iter().map(|t| t.1).collect();
    let lag_p99 = percentile(lags_ms, 99.0);
    report.attempted = books.attempted;
    report.failed = books.failed();
    let e = &mut report.e2e;
    e.set("latency_p50_ms", calm_percentile(&timed, 50.0), "ms");
    e.set("latency_p99_ms", calm_percentile(&timed, 99.0), "ms");
    e.set("throughput_gps", throughput, "gestures/s");
    e.set("gra", books.gra(), "share");
    e.set("uia", books.uia(), "share");
    e.set("setup_s", setup.setup_s(), "s");
    e.set("peak_rss_mb", peak_rss_mb(), "MB");
    let l = &mut report.layers;
    l.set("bench.driver_lag_p99_ms", lag_p99, "ms");
    l.set("bench.verdicts", latencies.len() as f64, "count");
    l.set("bench.late_verdicts", books.late as f64, "count");
    l.set("bench.inputs_s", inputs_s, "s");
    report.note(format!(
        "paced: {} verdicts (latency sample); latency window p99s {:.2?}, pooled p50 {:.2} \
         p90 {:.2} p95 {:.2} p99 {:.2} p99.5 {:.2} max {:.2} ms; generator lag p99 {lag_p99:.3} ms",
        latencies.len(),
        window_percentiles(&timed, 99.0),
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 99.5),
        percentile(&latencies, 100.0),
    ));
    report.note(format!("books: {books:?}"));
    report.check(books.unplanned_verdicts == 0, || {
        format!(
            "{} verdicts arrived for segments the plan does not know",
            books.unplanned_verdicts
        )
    });
    report.check(latencies.len() >= 1000, || {
        format!(
            "paced phase produced {} verdicts; the p99 needs at least 1000",
            latencies.len()
        )
    });
    report.check(lag_p99 <= MAX_GENERATOR_LAG_MS, || {
        format!(
            "paced phase invalid: the generator fell {lag_p99:.1} ms behind its schedule \
             (p99), over the {MAX_GENERATOR_LAG_MS} ms limit; its latencies are not valid"
        )
    });
}
