//! IF-signal synthesis: from scatterers to raw radar data cubes.
//!
//! For each scatterer at range `r`, radial velocity `v`, and direction
//! cosines `(u, w)` (lateral / vertical), the dechirped IF signal on
//! virtual antenna `(m, n)`, chirp `k`, fast-time sample `s` is
//!
//! ```text
//! A · exp j( 2π·f_b·s·T_s  +  4π(r + v·k·T_c)/λ  +  π(m·u + n·w) )
//! ```
//!
//! with beat frequency `f_b = 2·B·r / (c·T_chirp)` — i.e. range maps to a
//! fast-time tone, velocity to a slow-time phase ramp, and angle to a
//! phase gradient across the λ/2-spaced virtual array. Complex thermal
//! noise is added per sample.

use crate::config::RadarConfig;
use gp_dsp::Complex;
use gp_kinematics::Scatterer;
use gp_pointcloud::Vec3;
use rand::Rng;
use rand_distr_like::gaussian_pair;

/// A raw data cube: `antennas × chirps × samples` complex IF samples.
#[derive(Debug, Clone)]
pub struct DataCube {
    /// Antenna-major storage: `data[ant][chirp][sample]` flattened.
    data: Vec<Complex>,
    antennas: usize,
    chirps: usize,
    samples: usize,
}

impl DataCube {
    /// Allocates a zeroed cube.
    pub fn zeroed(antennas: usize, chirps: usize, samples: usize) -> Self {
        DataCube {
            data: vec![Complex::ZERO; antennas * chirps * samples],
            antennas,
            chirps,
            samples,
        }
    }

    /// Shape as `(antennas, chirps, samples)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.antennas, self.chirps, self.samples)
    }

    /// Borrow one chirp row.
    pub fn chirp(&self, ant: usize, chirp: usize) -> &[Complex] {
        let base = (ant * self.chirps + chirp) * self.samples;
        &self.data[base..base + self.samples]
    }

    /// Borrow one antenna's `chirps × samples` block, chirp-major.
    pub fn antenna(&self, ant: usize) -> &[Complex] {
        let len = self.chirps * self.samples;
        &self.data[ant * len..(ant + 1) * len]
    }

    fn chirp_mut(&mut self, ant: usize, chirp: usize) -> &mut [Complex] {
        let base = (ant * self.chirps + chirp) * self.samples;
        &mut self.data[base..base + self.samples]
    }
}

/// Minimal Gaussian sampling (Box–Muller) so we do not need an extra
/// dependency for one distribution.
mod rand_distr_like {
    use rand::Rng;

    /// Returns two independent standard normal samples.
    pub fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

/// The geometry of one scatterer as the radar sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarReturn {
    /// Slant range (m).
    pub range: f64,
    /// Radial velocity (m/s), positive receding.
    pub radial_velocity: f64,
    /// Lateral direction cosine `u = x/r`.
    pub u: f64,
    /// Vertical direction cosine `w = z/r` (radar-relative height).
    pub w: f64,
    /// Received amplitude.
    pub amplitude: f64,
}

/// Converts a world-frame scatterer into radar-relative geometry.
///
/// The radar sits at the origin at `mount_height` above the floor; world
/// positions use floor `z = 0`.
pub fn radar_return(s: &Scatterer, config: &RadarConfig) -> Option<RadarReturn> {
    let rel = Vec3::new(
        s.position.x,
        s.position.y,
        s.position.z - config.mount_height_m,
    );
    let r = rel.norm();
    if r < 0.05 || r > config.max_range_m {
        return None;
    }
    let dir = rel * (1.0 / r);
    let radial_velocity = s.velocity.dot(dir);
    Some(RadarReturn {
        range: r,
        radial_velocity,
        u: rel.x / r,
        w: rel.z / r,
        amplitude: config.amplitude_k * s.rcs.sqrt() / (r * r),
    })
}

/// Synthesises the IF data cube for one frame from a scatterer snapshot.
///
/// The cube is filled in blocks of eight consecutive rows (a row is one
/// antenna × chirp pair of `samples_per_chirp` samples), in storage order.
/// A block, 8 × 256 samples at the default configuration, stays in cache
/// while every in-range scatterer adds its tone to it; then the block's
/// thermal noise is added. Phase accumulators avoid per-sample
/// trigonometry: each row's start phasor follows the slow-time Doppler ramp
/// along the antenna's chirps, and the fast-time tone is a complex rotation
/// applied per sample. Within a block, one scatterer's eight row rotations
/// advance in lockstep, so each hides the others' multiply latency.
///
/// The cube is bit-identical to [`naive_synthesize_frame`]'s, and `rng`
/// ends in the same state, because
///
/// * each row runs the same sequence of floating-point operations;
/// * each sample receives its scatterer contributions in scatterer order,
///   followed by its noise sample;
/// * blocks and their rows are visited in storage order, so the noise is
///   drawn from `rng` in the same order.
///
/// `tests/signal_parity.rs` holds it to that contract.
pub fn synthesize_frame<R: Rng>(
    scatterers: &[Scatterer],
    config: &RadarConfig,
    rng: &mut R,
) -> DataCube {
    let na = config.virtual_antennas();
    let nc = config.chirps_per_frame;
    let ns = config.samples_per_chirp;
    let mut cube = DataCube::zeroed(na, nc, ns);
    if cube.data.is_empty() {
        return cube;
    }
    let mut tones: Vec<Tone> = scatterers
        .iter()
        .filter_map(|s| radar_return(s, config))
        .map(|ret| Tone::new(ret, config))
        .collect();

    for (block_index, block) in cube.data.chunks_mut(LANES * ns).enumerate() {
        let first_row = block_index * LANES;
        let lanes = block.len() / ns;
        for tone in &mut tones {
            let mut starts = [Complex::ZERO; LANES];
            for (l, start) in starts[..lanes].iter_mut().enumerate() {
                *start = tone.row_start(first_row + l, config);
            }
            if lanes == LANES {
                add_tones_lockstep(block, &starts, tone.rot_fast);
            } else {
                for (row, &start) in block.chunks_exact_mut(ns).zip(&starts) {
                    add_tone(row, start, tone.rot_fast);
                }
            }
        }
        if config.noise_sigma > 0.0 {
            add_noise(block, config.noise_sigma, rng);
        }
    }
    cube
}

/// Rows whose fast-time recurrences [`synthesize_frame`] runs in lockstep.
/// Eight complex phasors and the rotation fit the sixteen SSE2 registers;
/// 12 or 16 lanes spill and run slower.
const LANES: usize = 8;

/// One in-range scatterer's tone while the cube is filled row by row.
struct Tone {
    ret: RadarReturn,
    /// Range phase 4π·r/λ.
    base_phase: f64,
    /// Fast-time rotation per sample.
    rot_fast: Complex,
    /// Slow-time (Doppler) rotation per chirp.
    rot_slow: Complex,
    /// Start phasor of the next chirp on the current antenna.
    chirp_start: Complex,
}

impl Tone {
    fn new(ret: RadarReturn, config: &RadarConfig) -> Self {
        let lambda = config.wavelength();
        // Fast-time sample period: the chirp sweeps the full bandwidth over
        // `ns` samples, so the beat tone for range r advances by
        // 2π · (2·B·r/c) / ns per sample.
        let dphi_fast = std::f64::consts::TAU * 2.0 * config.bandwidth_hz * ret.range
            / (crate::config::SPEED_OF_LIGHT * config.samples_per_chirp as f64);
        // Doppler phase advance per chirp: 4π·v·T_c/λ.
        let dphi_slow =
            2.0 * std::f64::consts::TAU * ret.radial_velocity * config.chirp_interval_s / lambda;
        Tone {
            ret,
            base_phase: 2.0 * std::f64::consts::TAU * ret.range / lambda,
            rot_fast: Complex::cis(dphi_fast),
            rot_slow: Complex::cis(dphi_slow),
            chirp_start: Complex::ZERO,
        }
    }

    /// The start phasor of `row`; rows must be asked for in storage order.
    /// Each antenna's first chirp starts from its array phase, and each
    /// later chirp one Doppler rotation on.
    fn row_start(&mut self, row: usize, config: &RadarConfig) -> Complex {
        let nc = config.chirps_per_frame;
        if row % nc == 0 {
            let ant = row / nc;
            let (el, az) = (ant / config.azimuth_antennas, ant % config.azimuth_antennas);
            let ant_phase =
                std::f64::consts::PI * (az as f64 * self.ret.u + el as f64 * self.ret.w);
            self.chirp_start = Complex::from_polar(self.ret.amplitude, self.base_phase + ant_phase);
        }
        let start = self.chirp_start;
        self.chirp_start *= self.rot_slow;
        start
    }
}

/// Adds one tone to each of the [`LANES`] rows of `block`, row `l`
/// starting at `starts[l]`, advancing all rows one sample at a time.
#[inline]
fn add_tones_lockstep(block: &mut [Complex], starts: &[Complex; LANES], rot: Complex) {
    let ns = block.len() / LANES;
    let mut ph = *starts;
    for s in 0..ns {
        for l in 0..LANES {
            block[l * ns + s] += ph[l];
            ph[l] *= rot;
        }
    }
}

/// Adds one tone starting at `start` to a single row.
fn add_tone(row: &mut [Complex], start: Complex, rot: Complex) {
    let mut ph = start;
    for sample in row.iter_mut() {
        *sample += ph;
        ph *= rot;
    }
}

/// Adds complex Gaussian noise of deviation `sigma` per component to
/// every sample, drawing from `rng` in order.
fn add_noise<R: Rng>(samples: &mut [Complex], sigma: f64, rng: &mut R) {
    for z in samples.iter_mut() {
        let (g1, g2) = gaussian_pair(rng);
        *z += Complex::new(g1 * sigma, g2 * sigma);
    }
}

// ---------------------------------------------------------------------
// Naive oracle — the original scatterer-at-a-time loop, retained as the
// bit-exactness oracle for `synthesize_frame` (`tests/signal_parity.rs`)
// and as its baseline. It is not called on any production path.
// ---------------------------------------------------------------------

/// The original synthesis loop, kept verbatim: for each scatterer, one
/// serial fast-time recurrence per row over the whole cube, then the
/// thermal noise over the whole cube.
#[doc(hidden)]
pub fn naive_synthesize_frame<R: Rng>(
    scatterers: &[Scatterer],
    config: &RadarConfig,
    rng: &mut R,
) -> DataCube {
    let na = config.virtual_antennas();
    let nc = config.chirps_per_frame;
    let ns = config.samples_per_chirp;
    let mut cube = DataCube::zeroed(na, nc, ns);
    let lambda = config.wavelength();
    // Fast-time sample period: the chirp sweeps the full bandwidth over
    // `ns` samples, so the beat tone for range r advances by
    // 2π · (2·B·r/c) / ns per sample.
    let phase_per_sample = |range: f64| {
        std::f64::consts::TAU * 2.0 * config.bandwidth_hz * range
            / (crate::config::SPEED_OF_LIGHT * ns as f64)
    };

    for s in scatterers {
        let Some(ret) = radar_return(s, config) else {
            continue;
        };
        let dphi_fast = phase_per_sample(ret.range);
        let rot_fast = Complex::cis(dphi_fast);
        // Doppler phase advance per chirp: 4π·v·T_c/λ.
        let dphi_slow =
            2.0 * std::f64::consts::TAU * ret.radial_velocity * config.chirp_interval_s / lambda;
        let rot_slow = Complex::cis(dphi_slow);
        let base_phase = 2.0 * std::f64::consts::TAU * ret.range / lambda;

        let mut ant = 0;
        for el in 0..config.elevation_antennas {
            for az in 0..config.azimuth_antennas {
                let ant_phase = std::f64::consts::PI * (az as f64 * ret.u + el as f64 * ret.w);
                let mut chirp_start = Complex::from_polar(ret.amplitude, base_phase + ant_phase);
                for chirp in 0..nc {
                    let row = cube.chirp_mut(ant, chirp);
                    let mut ph = chirp_start;
                    for sample in row.iter_mut() {
                        *sample += ph;
                        ph *= rot_fast;
                    }
                    chirp_start *= rot_slow;
                }
                ant += 1;
            }
        }
    }

    // Thermal noise.
    if config.noise_sigma > 0.0 {
        for z in cube.data.iter_mut() {
            let (g1, g2) = gaussian_pair(rng);
            *z += Complex::new(g1 * config.noise_sigma, g2 * config.noise_sigma);
        }
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn still_scatterer(x: f64, y: f64, z: f64, rcs: f64) -> Scatterer {
        Scatterer::fixed(Vec3::new(x, y, z), rcs)
    }

    #[test]
    fn radar_return_geometry() {
        let cfg = RadarConfig::default();
        let s = still_scatterer(0.0, 2.0, 1.25, 1.0); // boresight, radar height
        let r = radar_return(&s, &cfg).unwrap();
        assert!((r.range - 2.0).abs() < 1e-9);
        assert!(r.u.abs() < 1e-9);
        assert!(r.w.abs() < 1e-9);
        assert_eq!(r.radial_velocity, 0.0);
    }

    #[test]
    fn out_of_range_scatterers_rejected() {
        let cfg = RadarConfig::default();
        assert!(radar_return(&still_scatterer(0.0, 9.5, 1.25, 1.0), &cfg).is_none());
        assert!(radar_return(&still_scatterer(0.0, 0.01, 1.25, 1.0), &cfg).is_none());
    }

    #[test]
    fn radial_velocity_is_projection() {
        let cfg = RadarConfig::default();
        let mut s = still_scatterer(0.0, 2.0, 1.25, 1.0);
        s.velocity = Vec3::new(0.0, 1.5, 0.0); // receding straight away
        let r = radar_return(&s, &cfg).unwrap();
        assert!((r.radial_velocity - 1.5).abs() < 1e-9);
        s.velocity = Vec3::new(1.5, 0.0, 0.0); // purely tangential
        let r = radar_return(&s, &cfg).unwrap();
        assert!(r.radial_velocity.abs() < 1e-9);
    }

    #[test]
    fn amplitude_follows_r_squared_law() {
        let cfg = RadarConfig::default();
        let near = radar_return(&still_scatterer(0.0, 1.0, 1.25, 1.0), &cfg).unwrap();
        let far = radar_return(&still_scatterer(0.0, 2.0, 1.25, 1.0), &cfg).unwrap();
        assert!((near.amplitude / far.amplitude - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cube_shape_and_determinism() {
        let cfg = RadarConfig::test_small();
        let scatterers = vec![still_scatterer(0.2, 1.5, 1.3, 0.5)];
        let mut rng = StdRng::seed_from_u64(3);
        let cube = synthesize_frame(&scatterers, &cfg, &mut rng);
        assert_eq!(
            cube.shape(),
            (
                cfg.virtual_antennas(),
                cfg.chirps_per_frame,
                cfg.samples_per_chirp
            )
        );
        let mut rng2 = StdRng::seed_from_u64(3);
        let cube2 = synthesize_frame(&scatterers, &cfg, &mut rng2);
        assert_eq!(cube.chirp(0, 0)[0], cube2.chirp(0, 0)[0]);
    }

    #[test]
    fn tone_appears_in_expected_range_bin() {
        // Noise-free synthesis: the range FFT of a single chirp must peak
        // at bin r / Δr.
        let cfg = RadarConfig {
            noise_sigma: 0.0,
            ..RadarConfig::test_small()
        };
        let target_range = 1.6;
        let s = still_scatterer(0.0, target_range, cfg.mount_height_m, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let cube = synthesize_frame(&[s], &cfg, &mut rng);
        let spec = gp_dsp::fft::fft(cube.chirp(0, 0));
        // The IF signal is complex (I/Q), so the full FFT range is usable.
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        let expected = (target_range / cfg.range_resolution()).round() as usize;
        assert!(
            (peak as isize - expected as isize).abs() <= 1,
            "peak bin {peak}, expected ≈{expected}"
        );
    }

    #[test]
    fn gaussian_pair_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng);
            sum += a + b;
            sum2 += a * a + b * b;
        }
        let mean = sum / (2 * n) as f64;
        let var = sum2 / (2 * n) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
