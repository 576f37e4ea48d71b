//! Bit-exactness of the signal chain's detection front end.
//!
//! `range_doppler_maps` runs each antenna in one flat buffer with a planned
//! FFT and a column transform, and `detect` runs the lockstep `cfar_2d`;
//! the oracle chain is `naive_range_doppler_maps` (one `Vec` per chirp, a
//! gathered Doppler FFT per range bin) and `naive_cfar_2d`. For the same
//! cube both must give the same map bits, the same detections and the
//! same point cloud.

use gp_dsp::cfar::{naive_cfar_2d, CfarConfig};
use gp_kinematics::Scatterer;
use gp_pointcloud::{PointCloud, Vec3};
use gp_radar::processing::{
    cloud_from_detections, detect, naive_range_doppler_maps, power_map, process_cube,
    range_doppler_maps, Detection, RangeDopplerMap,
};
use gp_radar::signal::synthesize_frame;
use gp_radar::{Environment, RadarConfig, Scene};
use gp_testkit::{CANONICAL_DISTANCE, CANONICAL_GESTURE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn map_bits(maps: &[RangeDopplerMap]) -> Vec<(u64, u64)> {
    maps.iter()
        .flat_map(|m| m.cells.iter())
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn cloud_bits(cloud: &PointCloud) -> Vec<[u64; 5]> {
    cloud
        .iter()
        .map(|p| {
            [
                p.position.x.to_bits(),
                p.position.y.to_bits(),
                p.position.z.to_bits(),
                p.doppler.to_bits(),
                p.snr.to_bits(),
            ]
        })
        .collect()
}

/// `detect` as it ran before the lockstep CFAR: the radar chain's window
/// over the naive loop, cropped to the usable range span.
fn oracle_detect(power: &[f64], config: &RadarConfig) -> Vec<Detection> {
    let cfar = CfarConfig {
        guard_cells: 1,
        training_cells: 4,
        threshold_factor: config.cfar_threshold,
    };
    let usable = config.usable_range_bins();
    naive_cfar_2d(
        power,
        config.chirps_per_frame,
        config.samples_per_chirp,
        &cfar,
    )
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

/// Synthesizes one cube and asserts that maps, detections and the point
/// cloud are bit-identical to the oracle chain's. Returns the number of
/// detections so callers can check the case is not vacuous.
fn assert_parity(scatterers: &[Scatterer], config: &RadarConfig, seed: u64, what: &str) -> usize {
    let cube = synthesize_frame(scatterers, config, &mut StdRng::seed_from_u64(seed));

    let maps = range_doppler_maps(&cube, config);
    let naive_maps = naive_range_doppler_maps(&cube, config);
    assert_eq!(maps.len(), naive_maps.len(), "{what}: antenna count");
    for (m, n) in maps.iter().zip(&naive_maps) {
        assert_eq!(
            (m.doppler_bins, m.range_bins),
            (n.doppler_bins, n.range_bins),
            "{what}: map shape"
        );
    }
    let (fast, naive) = (map_bits(&maps), map_bits(&naive_maps));
    if let Some(i) = (0..fast.len()).find(|&i| fast[i] != naive[i]) {
        panic!(
            "{what}: map cell {i} differs: {:?} vs {:?}",
            fast[i], naive[i]
        );
    }

    let power = power_map(&naive_maps);
    let detections = detect(&power, config);
    let oracle = oracle_detect(&power, config);
    let key = |d: &Detection| {
        (
            d.doppler_bin,
            d.range_bin,
            d.power.to_bits(),
            d.noise.to_bits(),
        )
    };
    assert_eq!(
        detections.iter().map(key).collect::<Vec<_>>(),
        oracle.iter().map(key).collect::<Vec<_>>(),
        "{what}: detections"
    );

    let cloud = process_cube(&cube, config);
    let oracle_cloud = cloud_from_detections(&naive_maps, &oracle, config);
    assert_eq!(
        cloud_bits(&cloud),
        cloud_bits(&oracle_cloud),
        "{what}: point cloud"
    );
    oracle.len()
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
    let mut detections = 0;
    for (i, scatterers) in office_snapshots(7, 12).iter().enumerate() {
        detections += assert_parity(scatterers, &config, 100 + i as u64, "office snapshot");
    }
    assert!(detections > 0, "the office scenes must produce detections");
}

#[test]
fn small_config_is_bit_exact() {
    let config = RadarConfig::test_small();
    for (i, scatterers) in office_snapshots(3, 6).iter().enumerate() {
        assert_parity(scatterers, &config, i as u64, "test_small snapshot");
    }
}

#[test]
fn two_chirp_frames_are_bit_exact() {
    // 3×1 antennas × 2 chirps: the smallest Doppler axis the chain accepts.
    let config = RadarConfig {
        azimuth_antennas: 3,
        elevation_antennas: 1,
        chirps_per_frame: 2,
        ..RadarConfig::test_small()
    };
    let scatterers = office_snapshots(5, 3).swap_remove(1);
    assert_parity(&scatterers, &config, 9, "3×1 antennas × 2 chirps");
}

#[test]
fn empty_snapshot_is_bit_exact() {
    assert_parity(&[], &RadarConfig::default(), 1, "no scatterers");
}

#[test]
fn noise_free_frames_are_bit_exact() {
    let config = RadarConfig {
        noise_sigma: 0.0,
        ..RadarConfig::default()
    };
    let mut scatterers = office_snapshots(11, 2).swap_remove(1);
    scatterers.push(boresight(1.7, 0.6));
    assert_parity(&scatterers, &config, 4, "noise_sigma = 0");
}
