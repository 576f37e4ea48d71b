//! The radar signal-processing chain: data cube → point cloud.
//!
//! Mirrors the on-chip pipeline the paper relies on (§III): Range FFT →
//! static clutter removal → Doppler FFT → CA-CFAR detection with peak
//! grouping → angle estimation over the virtual array, producing one
//! `(x, y, z, doppler, snr)` point per detected reflector.

use crate::config::RadarConfig;
use crate::signal::DataCube;
use gp_dsp::cfar::{cfar_2d, CfarConfig};
use gp_dsp::fft::{fft_shift, naive_fft_in_place, shifted_bin_to_signed, FftPlan};
use gp_dsp::window::{apply_window, WindowKind};
use gp_dsp::Complex;
use gp_pointcloud::{Point, PointCloud, Vec3};

/// A range–Doppler map for one antenna: `chirps × samples` after both
/// FFTs, Doppler axis fft-shifted (zero velocity centred).
#[derive(Debug, Clone)]
pub struct RangeDopplerMap {
    /// Row-major `doppler_bins × range_bins` complex spectrum.
    pub cells: Vec<Complex>,
    /// Number of Doppler rows.
    pub doppler_bins: usize,
    /// Number of range columns.
    pub range_bins: usize,
}

impl RangeDopplerMap {
    /// Cell accessor.
    pub fn at(&self, doppler: usize, range: usize) -> Complex {
        self.cells[doppler * self.range_bins + range]
    }
}

/// Computes per-antenna range–Doppler maps with Hann windows and static
/// clutter removal (per-range-bin mean subtraction across chirps, the
/// moving-target-indication step that discards zero-Doppler returns —
/// paper §IV-B "static clutter removal").
///
/// Each antenna's `chirps × samples` block is processed in one flat
/// buffer: range FFTs of the rows in place, the clutter mean summed row by
/// row in chirp order, then the Doppler FFT of every column at once. The
/// maps are bit-identical to [`naive_range_doppler_maps`], the retained
/// column-at-a-time loop.
///
/// # Panics
///
/// Panics if the cube's chirp count is odd (the Doppler axis cannot be
/// centred) or either FFT length is not a power of two.
pub fn range_doppler_maps(cube: &DataCube, _config: &RadarConfig) -> Vec<RangeDopplerMap> {
    let (na, nc, ns) = cube.shape();
    assert!(nc % 2 == 0, "fft_shift requires an even length, got {nc}");
    let range_window = WindowKind::Hann.coefficients(ns);
    let doppler_window = WindowKind::Hann.coefficients(nc);
    let range_plan = FftPlan::new(ns);
    let doppler_plan = FftPlan::new(nc);
    let mut mean = vec![Complex::ZERO; ns];

    (0..na)
        .map(|ant| {
            let mut cells = cube.antenna(ant).to_vec();
            // Range FFT per chirp, summing each bin over the chirps.
            mean.fill(Complex::ZERO);
            for row in cells.chunks_exact_mut(ns) {
                apply_window(row, &range_window);
                range_plan.forward(row);
                for (m, &z) in mean.iter_mut().zip(row.iter()) {
                    *m += z;
                }
            }
            for m in mean.iter_mut() {
                *m = *m / nc as f64;
            }
            // Static clutter removal, then the Doppler window.
            for (row, &w) in cells.chunks_exact_mut(ns).zip(&doppler_window) {
                for (z, &m) in row.iter_mut().zip(&mean) {
                    *z -= m;
                    *z = z.scale(w);
                }
            }
            // Doppler FFT per range bin, then shift zero velocity to centre.
            doppler_plan.forward_columns(&mut cells, ns);
            let (negative, positive) = cells.split_at_mut(nc / 2 * ns);
            negative.swap_with_slice(positive);
            RangeDopplerMap {
                cells,
                doppler_bins: nc,
                range_bins: ns,
            }
        })
        .collect()
}

/// Sums power across antennas (non-coherent integration).
pub fn power_map(maps: &[RangeDopplerMap]) -> Vec<f64> {
    let first = maps.first().expect("at least one antenna");
    let mut power = vec![0.0f64; first.cells.len()];
    for m in maps {
        for (p, z) in power.iter_mut().zip(m.cells.iter()) {
            *p += z.norm_sqr();
        }
    }
    power
}

/// One grouped detection in the range–Doppler map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Doppler row (shifted; `doppler_bins/2` is zero velocity).
    pub doppler_bin: usize,
    /// Range column.
    pub range_bin: usize,
    /// Cell power.
    pub power: f64,
    /// Estimated noise floor at the cell.
    pub noise: f64,
}

/// Runs CA-CFAR over the power map within the usable range span.
///
/// Peak grouping is intentionally *disabled*: gesture-sensing chirp
/// configurations (including the dense point clouds of the datasets the
/// paper evaluates on) export every CFAR crossing so that an extended
/// target like a human body contributes many points per frame.
pub fn detect(power: &[f64], config: &RadarConfig) -> Vec<Detection> {
    let rows = config.chirps_per_frame;
    let cols = config.samples_per_chirp;
    let cfar = CfarConfig {
        guard_cells: 1,
        training_cells: 4,
        threshold_factor: config.cfar_threshold,
    };
    let usable = config.usable_range_bins();
    cfar_2d(power, rows, cols, &cfar)
        .into_iter()
        .filter(|d| d.index.1 < usable && d.index.1 > 0)
        .map(|d| Detection {
            doppler_bin: d.index.0,
            range_bin: d.index.1,
            power: d.power,
            noise: d.noise,
        })
        .collect()
}

/// Estimates direction cosines `(u, w)` for a detection by fitting the
/// phase gradient across the virtual array (monopulse-style): `u` from
/// the mean phase step between azimuth-adjacent elements, `w` between
/// elevation-adjacent elements.
pub fn estimate_angles(
    maps: &[RangeDopplerMap],
    det: &Detection,
    config: &RadarConfig,
) -> (f64, f64) {
    let naz = config.azimuth_antennas;
    let nel = config.elevation_antennas;
    let z = |el: usize, az: usize| maps[el * naz + az].at(det.doppler_bin, det.range_bin);

    let mut acc_az = Complex::ZERO;
    for el in 0..nel {
        for az in 0..naz.saturating_sub(1) {
            acc_az += z(el, az + 1) * z(el, az).conj();
        }
    }
    let mut acc_el = Complex::ZERO;
    for el in 0..nel.saturating_sub(1) {
        for az in 0..naz {
            acc_el += z(el + 1, az) * z(el, az).conj();
        }
    }
    let u = if acc_az.norm_sqr() > 0.0 {
        acc_az.arg() / std::f64::consts::PI
    } else {
        0.0
    };
    let w = if acc_el.norm_sqr() > 0.0 {
        acc_el.arg() / std::f64::consts::PI
    } else {
        0.0
    };
    (u.clamp(-0.95, 0.95), w.clamp(-0.95, 0.95))
}

/// Full chain: data cube → detected world-frame point cloud.
pub fn process_cube(cube: &DataCube, config: &RadarConfig) -> PointCloud {
    let maps = range_doppler_maps(cube, config);
    let power = power_map(&maps);
    let detections = detect(&power, config);
    cloud_from_detections(&maps, &detections, config)
}

/// The last stage of [`process_cube`]: one world-frame point per
/// detection, placed by its range bin and estimated angles.
pub fn cloud_from_detections(
    maps: &[RangeDopplerMap],
    detections: &[Detection],
    config: &RadarConfig,
) -> PointCloud {
    let mut cloud = PointCloud::with_capacity(detections.len());
    let vres = config.velocity_resolution();
    for det in detections {
        let (u, w) = estimate_angles(maps, det, config);
        let range = det.range_bin as f64 * config.range_resolution();
        let signed_doppler = shifted_bin_to_signed(det.doppler_bin, config.chirps_per_frame) as f64;
        let doppler = signed_doppler * vres;
        let forward = (1.0 - u * u - w * w).max(0.0).sqrt();
        let position = Vec3::new(
            range * u,
            range * forward,
            range * w + config.mount_height_m,
        );
        let snr = if det.noise > 0.0 {
            det.power / det.noise
        } else {
            f64::INFINITY
        };
        cloud.push(Point::new(position, doppler, snr));
    }
    cloud
}

// ---------------------------------------------------------------------
// Naive oracle — the original range–Doppler loop, retained as the
// bit-exactness oracle for `range_doppler_maps`
// (`tests/processing_parity.rs`). It is not called on any production path.
// ---------------------------------------------------------------------

/// The original per-antenna loop, kept verbatim: one `Vec` per chirp, a
/// per-bin clutter mean, and a gathered Doppler FFT per range bin.
#[doc(hidden)]
pub fn naive_range_doppler_maps(cube: &DataCube, _config: &RadarConfig) -> Vec<RangeDopplerMap> {
    let (na, nc, ns) = cube.shape();
    let range_window = WindowKind::Hann.coefficients(ns);
    let doppler_window = WindowKind::Hann.coefficients(nc);
    let mut maps = Vec::with_capacity(na);

    for ant in 0..na {
        // Range FFT per chirp.
        let mut range_spectra: Vec<Vec<Complex>> = (0..nc)
            .map(|chirp| {
                let mut row = cube.chirp(ant, chirp).to_vec();
                apply_window(&mut row, &range_window);
                naive_fft_in_place(&mut row);
                row
            })
            .collect();

        // Static clutter removal: subtract the slow-time mean per bin.
        for bin in 0..ns {
            let mean = range_spectra
                .iter()
                .map(|row| row[bin])
                .fold(Complex::ZERO, |a, b| a + b)
                / nc as f64;
            for row in range_spectra.iter_mut() {
                row[bin] -= mean;
            }
        }

        // Doppler FFT per range bin, then shift zero velocity to centre.
        let mut cells = vec![Complex::ZERO; nc * ns];
        let mut slow = vec![Complex::ZERO; nc];
        for bin in 0..ns {
            for (chirp, z) in slow.iter_mut().enumerate() {
                *z = range_spectra[chirp][bin].scale(doppler_window[chirp]);
            }
            naive_fft_in_place(&mut slow);
            fft_shift(&mut slow);
            for (d, z) in slow.iter().enumerate() {
                cells[d * ns + bin] = *z;
            }
        }
        maps.push(RangeDopplerMap {
            cells,
            doppler_bins: nc,
            range_bins: ns,
        });
    }
    maps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::synthesize_frame;
    use gp_kinematics::Scatterer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn capture(scatterers: &[Scatterer], config: &RadarConfig, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        let cube = synthesize_frame(scatterers, config, &mut rng);
        process_cube(&cube, config)
    }

    fn moving_scatterer(pos: Vec3, vel: Vec3, rcs: f64) -> Scatterer {
        Scatterer {
            position: pos,
            velocity: vel,
            rcs,
        }
    }

    #[test]
    fn static_target_is_removed_by_clutter_filter() {
        let cfg = RadarConfig::test_small();
        let s = Scatterer::fixed(Vec3::new(0.0, 1.5, cfg.mount_height_m), 1.0);
        let cloud = capture(&[s], &cfg, 1);
        assert!(
            cloud.is_empty(),
            "static clutter must vanish, got {} points",
            cloud.len()
        );
    }

    #[test]
    fn moving_target_is_detected_at_correct_range() {
        let cfg = RadarConfig::test_small();
        let s = moving_scatterer(
            Vec3::new(0.0, 1.6, cfg.mount_height_m),
            Vec3::new(0.0, 1.0, 0.0),
            0.5,
        );
        let cloud = capture(&[s], &cfg, 2);
        assert!(!cloud.is_empty(), "moving target must be detected");
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        let range = (p.position - Vec3::new(0.0, 0.0, cfg.mount_height_m)).norm();
        assert!(
            (range - 1.6).abs() < 3.0 * cfg.range_resolution(),
            "range {range}"
        );
    }

    #[test]
    fn doppler_sign_matches_receding_motion() {
        let cfg = RadarConfig::test_small();
        let receding = moving_scatterer(
            Vec3::new(0.0, 1.6, cfg.mount_height_m),
            Vec3::new(0.0, 1.0, 0.0),
            0.5,
        );
        let cloud = capture(&[receding], &cfg, 3);
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        assert!(
            p.doppler > 0.0,
            "receding target must have positive Doppler, got {}",
            p.doppler
        );

        let approaching = moving_scatterer(
            Vec3::new(0.0, 1.6, cfg.mount_height_m),
            Vec3::new(0.0, -1.0, 0.0),
            0.5,
        );
        let cloud = capture(&[approaching], &cfg, 4);
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        assert!(
            p.doppler < 0.0,
            "approaching target must have negative Doppler, got {}",
            p.doppler
        );
    }

    #[test]
    fn doppler_magnitude_close_to_truth() {
        let cfg = RadarConfig::test_small();
        let v = 1.2;
        let s = moving_scatterer(
            Vec3::new(0.0, 1.6, cfg.mount_height_m),
            Vec3::new(0.0, v, 0.0),
            0.5,
        );
        let cloud = capture(&[s], &cfg, 5);
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        assert!(
            (p.doppler - v).abs() <= 1.5 * cfg.velocity_resolution(),
            "doppler {} vs truth {v}",
            p.doppler
        );
    }

    #[test]
    fn lateral_target_gets_lateral_position() {
        let cfg = RadarConfig::test_small();
        // 30° off boresight to the right.
        let x = 0.9;
        let y = 1.56;
        let s = moving_scatterer(
            Vec3::new(x, y, cfg.mount_height_m),
            Vec3::new(0.3, 0.9, 0.0),
            0.8,
        );
        let cloud = capture(&[s], &cfg, 6);
        assert!(!cloud.is_empty());
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        assert!(
            p.position.x > 0.3,
            "expected rightward estimate, got {:?}",
            p.position
        );
        assert!(
            (p.position.x - x).abs() < 0.5,
            "lateral error too large: {:?}",
            p.position
        );
    }

    #[test]
    fn elevation_maps_to_height() {
        let cfg = RadarConfig::test_small();
        // Above radar height.
        let s = moving_scatterer(
            Vec3::new(0.0, 1.4, cfg.mount_height_m + 0.5),
            Vec3::new(0.0, 0.8, 0.2),
            0.8,
        );
        let cloud = capture(&[s], &cfg, 7);
        assert!(!cloud.is_empty());
        let p = cloud.iter().max_by(|a, b| a.snr.total_cmp(&b.snr)).unwrap();
        assert!(
            p.position.z > cfg.mount_height_m,
            "expected point above mount height, got {:?}",
            p.position
        );
    }

    #[test]
    fn weak_far_target_is_missed() {
        let cfg = RadarConfig::default();
        // A hand-sized reflector near max range is below the CFAR budget.
        let s = moving_scatterer(
            Vec3::new(0.0, 7.8, cfg.mount_height_m),
            Vec3::new(0.0, 1.0, 0.0),
            0.12,
        );
        let cloud = capture(&[s], &cfg, 8);
        assert!(
            cloud.is_empty(),
            "expected miss at 7.8 m, got {} points",
            cloud.len()
        );
    }

    #[test]
    fn two_targets_separated_in_range() {
        let cfg = RadarConfig::test_small();
        let a = moving_scatterer(
            Vec3::new(0.0, 1.0, cfg.mount_height_m),
            Vec3::new(0.0, 1.0, 0.0),
            0.6,
        );
        let b = moving_scatterer(
            Vec3::new(0.0, 2.0, cfg.mount_height_m),
            Vec3::new(0.0, -1.0, 0.0),
            0.6,
        );
        let cloud = capture(&[a, b], &cfg, 9);
        assert!(
            cloud.len() >= 2,
            "expected two detections, got {}",
            cloud.len()
        );
        let ranges: Vec<f64> = cloud
            .iter()
            .map(|p| (p.position - Vec3::new(0.0, 0.0, cfg.mount_height_m)).norm())
            .collect();
        assert!(ranges.iter().any(|r| (r - 1.0).abs() < 0.2), "{ranges:?}");
        assert!(ranges.iter().any(|r| (r - 2.0).abs() < 0.2), "{ranges:?}");
    }

    #[test]
    fn noise_only_yields_few_false_alarms() {
        let cfg = RadarConfig::test_small();
        let mut total = 0;
        for seed in 0..5 {
            total += capture(&[], &cfg, seed).len();
        }
        assert!(total <= 10, "too many false alarms: {total} over 5 frames");
    }
}
