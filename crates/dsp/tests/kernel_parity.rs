//! Bit-exactness of the planned FFT and the lockstep CFAR.
//!
//! `FftPlan` reads its twiddles from a table built with the recurrence
//! `naive_fft_in_place` runs inline, `FftPlan::forward_columns` butterflies
//! whole rows, and `cfar_2d` sums eight cells in lockstep with clamped
//! border windows. Each must produce the same bits as its retained oracle.

use gp_dsp::cfar::{cfar_2d, naive_cfar_2d, CfarConfig, CfarDetection};
use gp_dsp::fft::{fft_in_place, ifft_in_place, naive_fft_in_place, naive_ifft_in_place, FftPlan};
use gp_dsp::Complex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn signal(len: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
        .collect()
}

fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn planned_transforms_match_the_inline_recurrence_for_every_length() {
    for log2 in 0..=10 {
        let len = 1usize << log2;
        let plan = FftPlan::new(len);
        for seed in 0..3 {
            let input = signal(len, seed * 1_000 + len as u64);

            let (mut planned, mut wrapped, mut naive) =
                (input.clone(), input.clone(), input.clone());
            plan.forward(&mut planned);
            fft_in_place(&mut wrapped);
            naive_fft_in_place(&mut naive);
            assert_eq!(bits(&planned), bits(&naive), "forward, length {len}");
            assert_eq!(bits(&wrapped), bits(&naive), "fft_in_place, length {len}");

            let (mut planned, mut wrapped, mut naive) = (input.clone(), input.clone(), input);
            plan.inverse(&mut planned);
            ifft_in_place(&mut wrapped);
            naive_ifft_in_place(&mut naive);
            assert_eq!(bits(&planned), bits(&naive), "inverse, length {len}");
            assert_eq!(bits(&wrapped), bits(&naive), "ifft_in_place, length {len}");
        }
    }
}

#[test]
fn signed_zeros_keep_their_bits() {
    // The butterfly multiplies by the first twiddle (exactly one) rather
    // than skipping it, which is what keeps -0.0 inputs bit-exact.
    let input = vec![
        Complex::new(-0.0, -0.0),
        Complex::new(-0.0, 1.0),
        Complex::new(2.0, -0.0),
        Complex::new(-0.0, -3.0),
    ];
    let (mut planned, mut naive) = (input.clone(), input);
    FftPlan::new(4).forward(&mut planned);
    naive_fft_in_place(&mut naive);
    assert_eq!(bits(&planned), bits(&naive));
}

#[test]
fn column_transforms_match_gathered_columns() {
    for len in [1usize, 2, 4, 16, 64] {
        let plan = FftPlan::new(len);
        for cols in [1usize, 3, 7, 8, 13, 256] {
            let input = signal(len * cols, (len * 1_000 + cols) as u64);
            let mut rows = input.clone();
            plan.forward_columns(&mut rows, cols);

            let mut gathered = input;
            let mut column = vec![Complex::ZERO; len];
            for col in 0..cols {
                for (r, z) in column.iter_mut().enumerate() {
                    *z = gathered[r * cols + col];
                }
                fft_in_place(&mut column);
                for (r, z) in column.iter().enumerate() {
                    gathered[r * cols + col] = *z;
                }
            }
            assert_eq!(bits(&rows), bits(&gathered), "{len} rows × {cols} columns");
        }
    }
}

#[test]
#[should_panic(expected = "cannot transform")]
fn plan_rejects_a_different_length() {
    FftPlan::new(8).forward(&mut [Complex::ZERO; 4]);
}

#[test]
#[should_panic(expected = "cannot transform")]
fn column_transform_rejects_a_ragged_matrix() {
    FftPlan::new(4).forward_columns(&mut [Complex::ZERO; 10], 3);
}

fn assert_cfar_parity(power: &[f64], rows: usize, cols: usize, config: &CfarConfig) {
    let key = |d: &CfarDetection| (d.index, d.power.to_bits(), d.noise.to_bits());
    let fast: Vec<_> = cfar_2d(power, rows, cols, config).iter().map(key).collect();
    let naive: Vec<_> = naive_cfar_2d(power, rows, cols, config)
        .iter()
        .map(key)
        .collect();
    assert_eq!(fast, naive, "{rows}×{cols} map, {config:?}");
}

/// A positive noise-like map with a few strong cells, seeded.
fn spiky_map(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut power: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(0.1..2.0)).collect();
    for _ in 0..(rows * cols / 40).max(1) {
        let cell = rng.gen_range(0..power.len());
        power[cell] *= rng.gen_range(5.0..500.0);
    }
    power
}

#[test]
fn cfar_matches_the_naive_loop_at_the_shipped_configs() {
    let radar_chain = CfarConfig {
        guard_cells: 1,
        training_cells: 4,
        threshold_factor: 8.0,
    };
    for config in [radar_chain, CfarConfig::default()] {
        let mut detections = 0;
        for (rows, cols) in [(16, 256), (16, 64), (8, 64), (2, 256), (64, 16)] {
            for seed in 0..3 {
                let power = spiky_map(rows, cols, seed);
                detections += naive_cfar_2d(&power, rows, cols, &config).len();
                assert_cfar_parity(&power, rows, cols, &config);
            }
        }
        assert!(
            detections > 0,
            "{config:?}: the maps must cross the threshold"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cfar_matches_the_naive_loop_on_random_maps(
        rows in 1usize..24,
        cols in 1usize..40,
        guard_cells in 0usize..3,
        training_cells in 0usize..5,
        threshold_factor in 0.5f64..4.0,
        cells in prop::collection::vec(1e-3f64..1e3, 24 * 40),
    ) {
        let config = CfarConfig { guard_cells, training_cells, threshold_factor };
        let power = &cells[..rows * cols];
        assert_cfar_parity(power, rows, cols, &config);
    }
}
