//! Bit-exactness of the blocked IF synthesis.
//!
//! `synthesize_frame` fills the cube a block of rows at a time and adds
//! the noise per block; `naive_synthesize_frame` is the original
//! scatterer-at-a-time loop. For the same inputs both must produce the
//! same bits in every sample and leave the noise RNG in the same state.

use gp_kinematics::Scatterer;
use gp_pointcloud::Vec3;
use gp_radar::signal::{naive_synthesize_frame, synthesize_frame, DataCube};
use gp_radar::{Environment, RadarConfig, Scene};
use gp_testkit::{CANONICAL_DISTANCE, CANONICAL_GESTURE};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn bits(cube: &DataCube) -> Vec<(u64, u64)> {
    let (na, nc, _) = cube.shape();
    (0..na)
        .flat_map(|ant| (0..nc).map(move |chirp| (ant, chirp)))
        .flat_map(|(ant, chirp)| cube.chirp(ant, chirp).iter())
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Runs both syntheses from the same seed and asserts identical cubes
/// and identical next RNG draws.
fn assert_parity(scatterers: &[Scatterer], config: &RadarConfig, seed: u64, what: &str) {
    let mut rng_fast = StdRng::seed_from_u64(seed);
    let mut rng_naive = StdRng::seed_from_u64(seed);
    let fast = synthesize_frame(scatterers, config, &mut rng_fast);
    let naive = naive_synthesize_frame(scatterers, config, &mut rng_naive);
    assert_eq!(fast.shape(), naive.shape(), "{what}: shape");
    let (fast, naive) = (bits(&fast), bits(&naive));
    if let Some(i) = (0..fast.len()).find(|&i| fast[i] != naive[i]) {
        panic!(
            "{what}: sample {i} differs: {:?} vs {:?}",
            fast[i], naive[i]
        );
    }
    assert_eq!(
        rng_fast.next_u64(),
        rng_naive.next_u64(),
        "{what}: RNG state after synthesis"
    );
}

/// Office scene snapshots across one performance: the performer plus
/// the swaying reflectors, as the capture path sees them.
fn office_snapshots(seed: u64, count: usize) -> Vec<Vec<Scatterer>> {
    let perf = gp_testkit::performance(1, CANONICAL_GESTURE, CANONICAL_DISTANCE, seed);
    let scene = Scene::for_performance(perf, Environment::Office, seed);
    let step = scene.duration() / count as f64;
    (0..count)
        .map(|i| scene.scatterers_at(i as f64 * step))
        .collect()
}

fn boresight(range: f64, rcs: f64) -> Scatterer {
    let mut s = Scatterer::fixed(Vec3::new(0.1, range, 1.3), rcs);
    s.velocity = Vec3::new(0.2, -0.8, 0.05);
    s
}

#[test]
fn default_config_office_scenes_are_bit_exact() {
    let config = RadarConfig::default();
    for (i, scatterers) in office_snapshots(7, 12).iter().enumerate() {
        assert!(!scatterers.is_empty());
        assert_parity(scatterers, &config, 100 + i as u64, "office snapshot");
    }
}

#[test]
fn small_config_is_bit_exact() {
    let config = RadarConfig::test_small();
    for (i, scatterers) in office_snapshots(3, 6).iter().enumerate() {
        assert_parity(scatterers, &config, i as u64, "test_small snapshot");
    }
}

#[test]
fn row_counts_off_the_block_width_are_bit_exact() {
    let scatterers = office_snapshots(5, 3).swap_remove(1);
    // 3×1 antennas × 2 chirps: 6 rows, one partial block only.
    let six_rows = RadarConfig {
        azimuth_antennas: 3,
        elevation_antennas: 1,
        chirps_per_frame: 2,
        ..RadarConfig::test_small()
    };
    assert_parity(&scatterers, &six_rows, 9, "3×1 antennas × 2 chirps");
    // 3×3 antennas × 3 chirps: 27 rows, three full blocks and a tail.
    let odd_rows = RadarConfig {
        azimuth_antennas: 3,
        elevation_antennas: 3,
        chirps_per_frame: 3,
        ..RadarConfig::test_small()
    };
    assert_parity(&scatterers, &odd_rows, 10, "3×3 antennas × 3 chirps");
}

#[test]
fn empty_and_out_of_range_snapshots_are_bit_exact() {
    let config = RadarConfig::default();
    assert_parity(&[], &config, 1, "no scatterers");
    let out_of_range = [
        boresight(config.max_range_m + 1.0, 1.0),
        Scatterer::fixed(Vec3::new(0.0, 0.01, config.mount_height_m), 1.0),
    ];
    assert_parity(&out_of_range, &config, 2, "all scatterers out of range");
}

#[test]
fn noise_free_synthesis_is_bit_exact() {
    let config = RadarConfig {
        noise_sigma: 0.0,
        ..RadarConfig::default()
    };
    let mut scatterers = office_snapshots(11, 2).swap_remove(1);
    scatterers.push(boresight(1.7, 0.6));
    assert_parity(&scatterers, &config, 4, "noise_sigma = 0");
}
