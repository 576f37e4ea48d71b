//! Range-Doppler frame synthesis from kinematic ground truth.
//!
//! The synthesizer renders the same `gp-kinematics` scatterers the
//! point-cloud simulator animates into complex beat signals — each
//! scatterer contributes a fast-time tone at its range and a slow-time
//! phase ramp at its radial velocity — then runs the classic FMCW
//! processing chain: optional slow-time mean subtraction (MTI), a
//! windowed range FFT per chirp, and a windowed, shifted Doppler FFT per
//! range bin. The output is the linear-power map [`RdFrame`] the feature
//! path and CFAR detector consume.

use crate::config::RdConfig;
use crate::frame::RdFrame;
use gp_dsp::fft::FftPlan;
use gp_dsp::window::apply_window;
use gp_dsp::Complex;
use gp_kinematics::scatter::Scatterer;
use gp_kinematics::Performance;
use gp_pointcloud::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// Two independent standard normal samples (Box–Muller).
fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    (r * (TAU * u2).cos(), r * (TAU * u2).sin())
}

/// Deterministic range-Doppler frame synthesizer.
#[derive(Debug, Clone)]
pub struct RdSynthesizer {
    config: RdConfig,
    seed: u64,
}

impl RdSynthesizer {
    /// Creates a synthesizer; `seed` drives scatterer phases and thermal
    /// noise, so equal `(config, seed, scene)` yield identical frames.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`RdConfig::validate`]).
    pub fn new(config: RdConfig, seed: u64) -> Self {
        config.validate().expect("invalid RdConfig");
        RdSynthesizer { config, seed }
    }

    /// The configuration frames are rendered with.
    pub fn config(&self) -> &RdConfig {
        &self.config
    }

    /// Renders a whole performance at the configured frame rate.
    pub fn synthesize(&self, perf: &Performance) -> Vec<RdFrame> {
        let n = (perf.total_duration() * self.config.frame_rate).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n)
            .map(|i| {
                let t = i as f64 * self.config.frame_interval();
                self.frame_from_scatterers(&perf.scatterers_at(t), t, &mut rng)
            })
            .collect()
    }

    /// Renders one frame from explicit scatterers (the lowest-level
    /// entry, shared by tests and the streaming path).
    pub fn frame_from_scatterers<R: Rng>(
        &self,
        scatterers: &[Scatterer],
        timestamp: f64,
        rng: &mut R,
    ) -> RdFrame {
        self.spectrum(self.beat_cube(scatterers, rng), timestamp)
    }

    /// The synthesis half of [`Self::frame_from_scatterers`]: the
    /// chirp-major beat signal with thermal noise, after MTI when enabled.
    fn beat_cube<R: Rng>(&self, scatterers: &[Scatterer], rng: &mut R) -> Vec<Complex> {
        let nr = self.config.range_bins;
        let nd = self.config.doppler_bins;
        let radar = Vec3::new(0.0, 0.0, self.config.mount_height);

        // Beat signal cube, chirp-major: cube[c * nr + n].
        let mut cube = vec![Complex::ZERO; nd * nr];
        for s in scatterers {
            let rel = s.position - radar;
            let r = rel.norm();
            if r < 1e-6 || r >= self.config.max_range() {
                continue;
            }
            let radial_velocity = s.velocity.dot(rel) / r;
            let a = self.config.amplitude_k * s.rcs.sqrt() / (r * r);
            // Fast-time phase step: a target at bin b = r / Δr completes
            // b cycles over the nr samples of a chirp.
            let dphi_fast = TAU * (r / self.config.range_resolution) / nr as f64;
            // Slow-time phase step: ±max_velocity maps to ±π per chirp.
            let dphi_slow = TAU * radial_velocity / (2.0 * self.config.max_velocity);
            let phi0 = rng.gen_range(0.0..TAU);
            for c in 0..nd {
                let base = phi0 + dphi_slow * c as f64;
                for n in 0..nr {
                    cube[c * nr + n] += Complex::from_polar(a, base + dphi_fast * n as f64);
                }
            }
        }

        // Thermal noise.
        if self.config.noise_sigma > 0.0 {
            for z in cube.iter_mut() {
                let (g1, g2) = gaussian_pair(rng);
                *z += Complex::new(g1 * self.config.noise_sigma, g2 * self.config.noise_sigma);
            }
        }

        // MTI: subtract the slow-time mean per fast-time sample, which
        // nulls returns whose phase does not rotate chirp to chirp —
        // exactly the static clutter.
        if self.config.mti {
            for n in 0..nr {
                let mut mean = Complex::ZERO;
                for c in 0..nd {
                    mean += cube[c * nr + n];
                }
                mean = mean / nd as f64;
                for c in 0..nd {
                    cube[c * nr + n] -= mean;
                }
            }
        }

        cube
    }

    /// The processing half of [`Self::frame_from_scatterers`]: windowed
    /// range FFT per chirp, then the windowed Doppler FFT of every range
    /// bin (all columns at once), shifted so zero velocity sits on the
    /// centre row, power out. `cube` is the chirp-major beat signal.
    fn spectrum(&self, mut cube: Vec<Complex>, timestamp: f64) -> RdFrame {
        let nr = self.config.range_bins;
        let nd = self.config.doppler_bins;
        let range_window = self.config.window.coefficients(nr);
        let range_plan = FftPlan::new(nr);
        for row in cube.chunks_exact_mut(nr) {
            apply_window(row, &range_window);
            range_plan.forward(row);
        }

        let doppler_window = self.config.window.coefficients(nd);
        for (row, &w) in cube.chunks_exact_mut(nr).zip(&doppler_window) {
            for z in row.iter_mut() {
                *z = z.scale(w);
            }
        }
        FftPlan::new(nd).forward_columns(&mut cube, nr);
        // The fft-shift: map row `d` is spectrum row `d + nd/2` (mod nd).
        let mut frame = RdFrame::zeros(&self.config, timestamp);
        for (d, out) in frame.power.chunks_exact_mut(nr).enumerate() {
            let row = &cube[(d + nd / 2) % nd * nr..][..nr];
            for (p, z) in out.iter_mut().zip(row) {
                *p = z.norm_sqr();
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_dsp::fft::{fft_shift, naive_fft_in_place};
    use gp_dsp::window::WindowKind;
    use gp_kinematics::gestures::{GestureId, GestureSet};
    use gp_kinematics::UserProfile;

    fn quiet_config() -> RdConfig {
        RdConfig {
            noise_sigma: 0.0,
            ..RdConfig::default()
        }
    }

    fn single_mover(r: f64, v: f64) -> Vec<Scatterer> {
        vec![Scatterer {
            position: Vec3::new(0.0, r, 1.25),
            velocity: Vec3::new(0.0, v, 0.0),
            rcs: 1.0,
        }]
    }

    #[test]
    fn moving_target_lands_in_predicted_cell() {
        let cfg = quiet_config();
        let synth = RdSynthesizer::new(cfg.clone(), 1);
        let mut rng = StdRng::seed_from_u64(9);
        let (r, v) = (1.2, 1.0);
        let frame = synth.frame_from_scatterers(&single_mover(r, v), 0.0, &mut rng);
        let (pd, pr) = frame.peak();
        let want_r = (r / cfg.range_resolution).round() as usize;
        let want_d = (cfg.doppler_bins / 2) as f64 + v / cfg.velocity_resolution();
        assert!(
            (pr as f64 - want_r as f64).abs() <= 1.0,
            "range bin {pr} vs predicted {want_r}"
        );
        assert!(
            (pd as f64 - want_d).abs() <= 1.0,
            "doppler row {pd} vs predicted {want_d:.1}"
        );
    }

    #[test]
    fn mti_suppresses_static_target() {
        let cfg = quiet_config();
        let synth = RdSynthesizer::new(cfg, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let still = synth.frame_from_scatterers(&single_mover(1.2, 0.0), 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let moving = synth.frame_from_scatterers(&single_mover(1.2, 1.0), 0.0, &mut rng);
        assert!(
            still.total_power() < 1e-3 * moving.total_power(),
            "static residue {} vs moving {}",
            still.total_power(),
            moving.total_power()
        );
    }

    #[test]
    fn negative_velocity_lands_below_centre() {
        let cfg = quiet_config();
        let synth = RdSynthesizer::new(cfg.clone(), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let frame = synth.frame_from_scatterers(&single_mover(1.0, -1.3), 0.0, &mut rng);
        let (pd, _) = frame.peak();
        assert!(pd < cfg.doppler_bins / 2, "row {pd} not negative-velocity");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let profile = UserProfile::generate(0, 42);
        let mut rng = StdRng::seed_from_u64(4);
        let perf = Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
        let synth = RdSynthesizer::new(RdConfig::default(), 7);
        let a = synth.synthesize(&perf);
        let b = synth.synthesize(&perf);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.power, y.power);
        }
    }

    #[test]
    fn gesture_raises_motion_energy() {
        let profile = UserProfile::generate(0, 42);
        let mut rng = StdRng::seed_from_u64(4);
        let perf = Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
        let synth = RdSynthesizer::new(RdConfig::default(), 7);
        let frames = synth.synthesize(&perf);
        let (gs, ge) = perf.gesture_interval();
        let (fs, fe) = ((gs * 10.0) as usize, (ge * 10.0) as usize);
        // Off-DC log power is the activity statistic segmentation uses;
        // raw linear power is dominated by near-zero-Doppler residue.
        let me = |f: &RdFrame| crate::features::motion_energy(f, 1);
        let idle = frames[1..6].iter().map(me).fold(0.0f64, f64::max);
        let active = frames[fs..fe].iter().map(me).fold(0.0f64, f64::max);
        assert!(
            active > 2.0 * idle,
            "gesture peak {active} vs idle peak {idle}"
        );
    }

    /// The processing loop `spectrum` replaced, kept as its oracle: a
    /// gathered, windowed and shifted Doppler FFT per range bin.
    fn naive_spectrum(config: &RdConfig, mut cube: Vec<Complex>, timestamp: f64) -> RdFrame {
        let nr = config.range_bins;
        let nd = config.doppler_bins;
        let range_window = config.window.coefficients(nr);
        for c in 0..nd {
            let row = &mut cube[c * nr..(c + 1) * nr];
            apply_window(row, &range_window);
            naive_fft_in_place(row);
        }
        let doppler_window = config.window.coefficients(nd);
        let mut frame = RdFrame::zeros(config, timestamp);
        let mut column = vec![Complex::ZERO; nd];
        for n in 0..nr {
            for c in 0..nd {
                column[c] = cube[c * nr + n];
            }
            apply_window(&mut column, &doppler_window);
            naive_fft_in_place(&mut column);
            fft_shift(&mut column);
            for (d, z) in column.iter().enumerate() {
                frame.power[d * nr + n] = z.norm_sqr();
            }
        }
        frame
    }

    #[test]
    fn spectrum_is_bit_identical_to_the_gathered_column_loop() {
        let profile = UserProfile::generate(0, 42);
        let mut rng = StdRng::seed_from_u64(4);
        let perf = Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
        let configs = [
            RdConfig::default(),
            quiet_config(),
            RdConfig {
                window: WindowKind::Blackman,
                mti: false,
                doppler_bins: 2,
                range_bins: 32,
                ..RdConfig::default()
            },
        ];
        for config in configs {
            let synth = RdSynthesizer::new(config.clone(), 7);
            let step = perf.total_duration() / 12.0;
            for i in 0..12 {
                let t = i as f64 * step;
                let cube = synth.beat_cube(&perf.scatterers_at(t), &mut rng);
                let fast = synth.spectrum(cube.clone(), t);
                let naive = naive_spectrum(&config, cube, t);
                let bits = |f: &RdFrame| f.power.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&naive), "{config:?} at t = {t}");
            }
        }
    }
}
