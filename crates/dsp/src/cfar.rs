//! Cell-averaging constant false-alarm rate (CA-CFAR) detection.
//!
//! CFAR is the detection step the TI radar firmware runs on the
//! range–Doppler map: a cell is declared a target when its power exceeds the
//! local noise estimate (the mean of surrounding *training* cells, skipping
//! nearby *guard* cells) by a threshold factor. GesturePrint relies on this
//! step to turn dense maps into sparse point clouds, and the
//! range-dependent miss behaviour of CFAR is what makes distant gestures
//! sparser (paper Fig. 11).

/// Configuration for a CA-CFAR detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfarConfig {
    /// Number of guard cells on each side of the cell under test.
    pub guard_cells: usize,
    /// Number of training cells on each side (beyond the guard cells).
    pub training_cells: usize,
    /// Multiplicative threshold over the noise estimate (linear power).
    pub threshold_factor: f64,
}

impl Default for CfarConfig {
    fn default() -> Self {
        CfarConfig {
            guard_cells: 2,
            training_cells: 8,
            threshold_factor: 6.0,
        }
    }
}

/// A detection produced by a CFAR pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfarDetection {
    /// Index of the detected cell (row-major `(row, col)` for 2-D).
    pub index: (usize, usize),
    /// Power of the detected cell.
    pub power: f64,
    /// Estimated local noise floor.
    pub noise: f64,
}

impl CfarDetection {
    /// Detection signal-to-noise ratio (linear).
    pub fn snr(&self) -> f64 {
        if self.noise > 0.0 {
            self.power / self.noise
        } else {
            f64::INFINITY
        }
    }
}

/// Runs 1-D CA-CFAR over a power profile.
///
/// Cells too close to the edges (where the full training band does not fit)
/// use the available one-sided estimate; this matches practical
/// implementations that clamp rather than skip the borders.
pub fn cfar_1d(power: &[f64], config: &CfarConfig) -> Vec<CfarDetection> {
    let n = power.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let g = config.guard_cells;
    let t = config.training_cells;
    for i in 0..n {
        let mut sum = 0.0;
        let mut count = 0usize;
        // Left training band.
        let lo_end = i.saturating_sub(g);
        let lo_start = i.saturating_sub(g + t);
        for j in lo_start..lo_end {
            sum += power[j];
            count += 1;
        }
        // Right training band.
        let hi_start = (i + g + 1).min(n);
        let hi_end = (i + g + t + 1).min(n);
        for j in hi_start..hi_end {
            sum += power[j];
            count += 1;
        }
        if count == 0 {
            continue;
        }
        let noise = sum / count as f64;
        if power[i] > noise * config.threshold_factor {
            out.push(CfarDetection {
                index: (0, i),
                power: power[i],
                noise,
            });
        }
    }
    out
}

/// Cells of one row whose training sums the lockstep pass runs together.
const LANES: usize = 8;

/// Runs 2-D CA-CFAR over a power map laid out row-major as
/// `rows × cols` (e.g. Doppler × range), using a square training annulus.
///
/// Windows that cross the map's edge are clamped to it, and the noise
/// estimate is the mean of the training cells that remain.
///
/// Every cell's training sum is one `f64` accumulator that starts at `0.0`
/// and adds the window's cells rows ascending, then columns ascending,
/// skipping the guard square and anything off the map: the order of
/// [`naive_cfar_2d`], the retained cell-at-a-time loop, so detections,
/// powers and noise estimates are bit-identical to it. Runs of eight
/// neighbouring cells whose windows do not cross the left or right edge
/// are summed in lockstep, as eight independent accumulators over
/// contiguous row slices; the cells near those edges take a scalar path.
///
/// # Panics
///
/// Panics if `power.len() != rows * cols`.
pub fn cfar_2d(power: &[f64], rows: usize, cols: usize, config: &CfarConfig) -> Vec<CfarDetection> {
    assert_eq!(power.len(), rows * cols, "power map shape mismatch");
    let mut out = Vec::new();
    if rows == 0 || cols == 0 {
        return out;
    }
    let g = config.guard_cells;
    let win = g.saturating_add(config.training_cells);
    let mut emit = |r: usize, c: usize, sum: f64, count: usize| {
        if count == 0 {
            return;
        }
        let noise = sum / count as f64;
        let p = power[r * cols + c];
        if p > noise * config.threshold_factor {
            out.push(CfarDetection {
                index: (r, c),
                power: p,
                noise,
            });
        }
    };
    for r in 0..rows {
        let window_rows = span(r, win, rows);
        let guard_rows = span(r, g, rows);
        // Cells whose window spans whole rows: every window row but the
        // guard rows contributes 2·win + 1 columns, the guard rows 2·win − 2·g.
        let lane_count = (window_rows.1 - window_rows.0 + 1) * (2 * win + 1)
            - (guard_rows.1 - guard_rows.0 + 1) * (2 * g + 1);
        let mut c = 0;
        while c < cols {
            if c >= win && c.saturating_add(LANES + win) <= cols {
                let sums = lane_sums(power, cols, (window_rows, guard_rows), c, g, win);
                for (lane, &sum) in sums.iter().enumerate() {
                    emit(r, c + lane, sum, lane_count);
                }
                c += LANES;
            } else {
                let (sum, count) = clamped_sum(power, cols, (window_rows, guard_rows), c, g, win);
                emit(r, c, sum, count);
                c += 1;
            }
        }
    }
    out
}

/// The inclusive range `i ± reach` clamped to `0..n`.
fn span(i: usize, reach: usize, n: usize) -> (usize, usize) {
    (i.saturating_sub(reach), i.saturating_add(reach).min(n - 1))
}

/// Training sums of the `LANES` cells of one row from column `c`
/// rightwards, whose windows cover columns `c - win ..= c + LANES - 1 + win`
/// of the window rows.
fn lane_sums(
    power: &[f64],
    cols: usize,
    (window_rows, guard_rows): ((usize, usize), (usize, usize)),
    c: usize,
    g: usize,
    win: usize,
) -> [f64; LANES] {
    let mut sums = [0.0f64; LANES];
    for rr in window_rows.0..=window_rows.1 {
        // Column `c + lane + k - win` of this row is `row[k + lane]`.
        let row = &power[rr * cols + c - win..rr * cols + c + win + LANES];
        let spans = if (guard_rows.0..=guard_rows.1).contains(&rr) {
            [0..win - g, win + g + 1..2 * win + 1]
        } else {
            [0..2 * win + 1, 0..0]
        };
        for k in spans.into_iter().flatten() {
            for (sum, &p) in sums.iter_mut().zip(&row[k..k + LANES]) {
                *sum += p;
            }
        }
    }
    sums
}

/// Training sum and cell count of the cell in column `c` of the window
/// rows' centre row, with the window clamped to the map.
fn clamped_sum(
    power: &[f64],
    cols: usize,
    (window_rows, guard_rows): ((usize, usize), (usize, usize)),
    c: usize,
    g: usize,
    win: usize,
) -> (f64, usize) {
    let (c0, c1) = span(c, win, cols);
    let (gc0, gc1) = span(c, g, cols);
    let mut sum = 0.0;
    for rr in window_rows.0..=window_rows.1 {
        let row = &power[rr * cols..(rr + 1) * cols];
        let cells = if (guard_rows.0..=guard_rows.1).contains(&rr) {
            [&row[c0..gc0], &row[gc1 + 1..=c1]]
        } else {
            [&row[c0..=c1], &[][..]]
        };
        for &p in cells.into_iter().flatten() {
            sum += p;
        }
    }
    let count = (window_rows.1 - window_rows.0 + 1) * (c1 - c0 + 1)
        - (guard_rows.1 - guard_rows.0 + 1) * (gc1 - gc0 + 1);
    (sum, count)
}

// ---------------------------------------------------------------------
// Naive oracle — the original cell-at-a-time loop, retained as the
// bit-exactness oracle for `cfar_2d` (`tests/kernel_parity.rs`). It is
// not called on any production path.
// ---------------------------------------------------------------------

/// The original 2-D CA-CFAR loop, kept verbatim.
#[doc(hidden)]
pub fn naive_cfar_2d(
    power: &[f64],
    rows: usize,
    cols: usize,
    config: &CfarConfig,
) -> Vec<CfarDetection> {
    assert_eq!(power.len(), rows * cols, "power map shape mismatch");
    let mut out = Vec::new();
    if rows == 0 || cols == 0 {
        return out;
    }
    let g = config.guard_cells as isize;
    let t = config.training_cells as isize;
    let win = g + t;
    for r in 0..rows as isize {
        for c in 0..cols as isize {
            let mut sum = 0.0;
            let mut count = 0usize;
            for dr in -win..=win {
                for dc in -win..=win {
                    if dr.abs() <= g && dc.abs() <= g {
                        continue; // guard region (includes CUT)
                    }
                    let rr = r + dr;
                    let cc = c + dc;
                    if rr < 0 || cc < 0 || rr >= rows as isize || cc >= cols as isize {
                        continue;
                    }
                    sum += power[rr as usize * cols + cc as usize];
                    count += 1;
                }
            }
            if count == 0 {
                continue;
            }
            let noise = sum / count as f64;
            let p = power[r as usize * cols + c as usize];
            if p > noise * config.threshold_factor {
                out.push(CfarDetection {
                    index: (r as usize, c as usize),
                    power: p,
                    noise,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_single_peak_1d() {
        let mut power = vec![1.0; 64];
        power[30] = 100.0;
        let det = cfar_1d(&power, &CfarConfig::default());
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].index, (0, 30));
        assert!(det[0].snr() > 50.0);
    }

    #[test]
    fn flat_noise_yields_nothing() {
        let power = vec![3.3; 128];
        assert!(cfar_1d(&power, &CfarConfig::default()).is_empty());
    }

    #[test]
    fn weak_peak_below_threshold_is_missed() {
        let mut power = vec![1.0; 64];
        power[30] = 3.0; // below 6x noise
        assert!(cfar_1d(&power, &CfarConfig::default()).is_empty());
    }

    #[test]
    fn guard_cells_protect_wide_peaks() {
        // A 3-cell-wide target should still be caught because guard cells
        // keep its shoulders out of the noise estimate.
        let mut power = vec![1.0; 64];
        power[29] = 60.0;
        power[30] = 100.0;
        power[31] = 60.0;
        let config = CfarConfig {
            guard_cells: 2,
            training_cells: 8,
            threshold_factor: 6.0,
        };
        let det = cfar_1d(&power, &config);
        let indices: Vec<usize> = det.iter().map(|d| d.index.1).collect();
        assert!(indices.contains(&30), "centre cell missed: {indices:?}");
    }

    #[test]
    fn edge_cells_use_one_sided_estimate() {
        let mut power = vec![1.0; 32];
        power[0] = 100.0;
        let det = cfar_1d(&power, &CfarConfig::default());
        assert!(det.iter().any(|d| d.index.1 == 0));
    }

    #[test]
    fn detects_peak_2d() {
        let rows = 16;
        let cols = 32;
        let mut power = vec![1.0; rows * cols];
        power[5 * cols + 20] = 200.0;
        let det = cfar_2d(&power, rows, cols, &CfarConfig::default());
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].index, (5, 20));
    }

    #[test]
    fn two_separated_peaks_2d() {
        let rows = 32;
        let cols = 32;
        let mut power = vec![1.0; rows * cols];
        power[4 * cols + 4] = 150.0;
        power[28 * cols + 28] = 150.0;
        let det = cfar_2d(&power, rows, cols, &CfarConfig::default());
        let idx: Vec<(usize, usize)> = det.iter().map(|d| d.index).collect();
        assert!(idx.contains(&(4, 4)) && idx.contains(&(28, 28)), "{idx:?}");
    }

    #[test]
    fn empty_input_ok() {
        assert!(cfar_1d(&[], &CfarConfig::default()).is_empty());
        assert!(cfar_2d(&[], 0, 0, &CfarConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        cfar_2d(&[1.0; 10], 3, 4, &CfarConfig::default());
    }

    #[test]
    fn higher_threshold_detects_fewer() {
        let mut power = vec![1.0; 64];
        power[10] = 8.0;
        power[40] = 30.0;
        let loose = CfarConfig {
            threshold_factor: 4.0,
            ..CfarConfig::default()
        };
        let strict = CfarConfig {
            threshold_factor: 20.0,
            ..CfarConfig::default()
        };
        assert!(cfar_1d(&power, &loose).len() >= cfar_1d(&power, &strict).len());
    }
}
