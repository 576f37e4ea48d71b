//! Small shared helpers: seeded mixing, order statistics, the metric
//! table and the process's peak memory.

use std::time::{Duration, Instant};

/// SplitMix64 over `(seed, stream, index)`: a stateless, deterministic
/// 64-bit hash used to derive every input seed from the run's `--seed`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; `NaN`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Windows the latency percentiles are taken over (see [`calm_percentile`]).
pub const LATENCY_WINDOWS: usize = 30;

/// The `p`-th percentile of `(time, latency)` samples in the calmer part
/// of a run: the samples are split in time order into [`LATENCY_WINDOWS`]
/// equal-count windows, each window's `p`-th percentile is taken, and the
/// lower quartile of those is returned. Stalls of the machine (the VM
/// losing its CPU for tens of milliseconds, often for many seconds in a
/// row) move only the windows they fall in, and the result moves once
/// they reach three quarters of the windows. A slower program moves every
/// window. Pauses the program makes in only some windows, say one every
/// few seconds, can go unseen.
pub fn calm_percentile(samples: &[(f64, f64)], p: f64) -> f64 {
    percentile(&window_percentiles(samples, p), 25.0)
}

/// The per-window `p`-th percentiles [`calm_percentile`] takes the lower
/// quartile of.
pub fn window_percentiles(samples: &[(f64, f64)], p: f64) -> Vec<f64> {
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let size = ordered.len().div_ceil(LATENCY_WINDOWS).max(1);
    ordered
        .chunks(size)
        .map(|w| percentile(&w.iter().map(|s| s.1).collect::<Vec<_>>(), p))
        .collect()
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// An ordered name → (value, unit) table: what one run reports.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_owned(), value, unit)),
        }
    }

    /// Copies every entry of `other` in, replacing same-named entries.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.entries {
            self.set(name, *value, unit);
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Formats a finite number for JSON with every digit Rust's shortest
/// round-trip form gives it; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each `{"value": .., "unit": ..}`).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        // Stalls in 18 of 30 windows (late samples of 500) leave the
        // tail alone.
        let samples: Vec<(f64, f64)> = (0..3000)
            .map(|i| {
                (
                    f64::from(i),
                    if i >= 1200 { 500.0 } else { f64::from(i % 100) },
                )
            })
            .collect();
        let mut expected = vec![98.0; 12];
        expected.extend([500.0; 18]);
        assert_eq!(window_percentiles(&samples, 99.0), expected);
        assert_eq!(calm_percentile(&samples, 99.0), 98.0);
        assert_eq!(calm_percentile(&samples, 50.0), 49.0);
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25, "ms");
        m.set("b", f64::NAN, "count");
        let line = result_json(true, 3, 1, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}
