//! Criterion micro-benchmarks for every stage of the GesturePrint
//! pipeline, including the paper's §VI-B5 timing quantities
//! (preprocessing per sample, inference per sample).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gestureprint_core::{train_classifier, ModelKind, TrainConfig};
use gp_bench::{capture_fixture, sample_fixture};
use gp_dsp::cfar::{cfar_2d, CfarConfig};
use gp_dsp::fft::fft_in_place;
use gp_dsp::Complex;
use gp_kinematics::{Performance, Scatterer};
use gp_models::features::{encode_sample, FeatureConfig};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_nn::{Adam, Parameterized};
use gp_pipeline::{NoiseCanceler, Preprocessor, PreprocessorConfig, Segmenter};
use gp_pointcloud::dbscan::{dbscan, DbscanConfig};
use gp_pointcloud::metrics::{chamfer, hausdorff};
use gp_radar::processing::{power_map, process_cube, range_doppler_maps};
use gp_radar::signal::synthesize_frame;
use gp_radar::{Backend, Environment, RadarConfig, RadarSimulator, Scene};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonical performance the capture/sample fixtures use, and an
/// office-scene snapshot of it mid-gesture: the performer plus the swaying
/// reflectors, as a signal-chain capture sees one frame.
fn office_snapshot() -> (Performance, Vec<Scatterer>) {
    let perf = gp_testkit::performance(
        0,
        gp_testkit::CANONICAL_GESTURE,
        gp_testkit::CANONICAL_DISTANCE,
        5,
    );
    let (gs, ge) = perf.gesture_interval();
    let office = Scene::for_performance(perf.clone(), Environment::Office, 5);
    let scatterers = office.scatterers_at((gs + ge) / 2.0);
    (perf, scatterers)
}

fn bench_dsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp");
    group.bench_function("fft_256", |b| {
        let signal: Vec<Complex> = (0..256).map(|i| Complex::cis(i as f64 * 0.37)).collect();
        b.iter_batched(
            || signal.clone(),
            |mut s| fft_in_place(&mut s),
            BatchSize::SmallInput,
        )
    });
    // The radar chain's CFAR window (guard 1, training 4) on the power
    // map of one default-config office frame.
    group.bench_function("cfar_2d_office_16x256", |b| {
        let config = RadarConfig::default();
        let cube = synthesize_frame(&office_snapshot().1, &config, &mut StdRng::seed_from_u64(1));
        let power = power_map(&range_doppler_maps(&cube, &config));
        let cfg = CfarConfig {
            guard_cells: 1,
            training_cells: 4,
            threshold_factor: config.cfar_threshold,
        };
        let (rows, cols) = (config.chirps_per_frame, config.samples_per_chirp);
        b.iter(|| cfar_2d(&power, rows, cols, &cfg))
    });
    group.finish();
}

fn bench_radar(c: &mut Criterion) {
    let mut group = c.benchmark_group("radar");
    group.sample_size(20);
    let (perf, office_scatterers) = office_snapshot();
    let (gs, ge) = perf.gesture_interval();
    let scatterers = perf.scatterers_at((gs + ge) / 2.0);

    group.bench_function("geometric_frame", |b| {
        let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, 1);
        b.iter(|| sim.simulate_frame(&scatterers, 0.0))
    });
    group.bench_function("signal_chain_frame_small", |b| {
        let mut sim = RadarSimulator::new(RadarConfig::test_small(), Backend::SignalChain, 1);
        b.iter(|| sim.simulate_frame(&scatterers, 0.0))
    });
    // The default configuration on the office snapshot: what a
    // signal-chain capture runs per frame, whole and in its two halves.
    group.bench_function("synthesize_frame_default", |b| {
        let config = RadarConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| synthesize_frame(&office_scatterers, &config, &mut rng))
    });
    group.bench_function("process_cube_default", |b| {
        let config = RadarConfig::default();
        let cube = synthesize_frame(&office_scatterers, &config, &mut StdRng::seed_from_u64(1));
        b.iter(|| process_cube(&cube, &config))
    });
    group.bench_function("signal_chain_frame_default", |b| {
        let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::SignalChain, 1);
        b.iter(|| sim.simulate_frame(&office_scatterers, 0.0))
    });
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    let frames = capture_fixture();
    group.bench_function("segmentation", |b| {
        let segmenter = Segmenter::default();
        b.iter(|| segmenter.segment(&frames))
    });
    let sample = sample_fixture();
    group.bench_function("dbscan_gesture_cloud", |b| {
        let cfg = DbscanConfig::default();
        b.iter(|| dbscan(&sample.cloud, &cfg))
    });
    group.bench_function("noise_canceling", |b| {
        let canceler = NoiseCanceler::default();
        b.iter(|| canceler.clean(&sample.cloud))
    });
    // The paper's §VI-B5 "preprocessing time" per gesture sample.
    group.bench_function("full_preprocess_per_sample", |b| {
        let pre = Preprocessor::new(PreprocessorConfig::default());
        b.iter(|| pre.process(&frames))
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("pointcloud_metrics");
    let a = sample_fixture().cloud;
    let mut b_cloud = a.clone();
    b_cloud.translate(gp_pointcloud::Vec3::new(0.05, 0.02, -0.03));
    group.bench_function("hausdorff", |bch| bch.iter(|| hausdorff(&a, &b_cloud)));
    group.bench_function("chamfer", |bch| bch.iter(|| chamfer(&a, &b_cloud)));
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    group.sample_size(20);
    let sample = sample_fixture();
    let pairs = vec![(&sample, 0usize)];
    let quick = TrainConfig {
        epochs: 1,
        augment: None,
        ..TrainConfig::default()
    };

    for kind in [
        ModelKind::GesIdNet,
        ModelKind::PointNet,
        ModelKind::ProfileCnn,
        ModelKind::Lstm,
    ] {
        let model = train_classifier(
            &pairs,
            2,
            &TrainConfig {
                model: kind,
                ..quick.clone()
            },
        );
        group.bench_function(
            format!("inference_{}", kind.name().replace(' ', "_")),
            |b| b.iter(|| model.predict(&sample)),
        );
    }
    // One training step on a fresh GesIDNet: forward, backward and the
    // Adam update, as `train_classifier` runs per mini-batch of one.
    let input = encode_sample(
        &sample,
        &FeatureConfig::default(),
        &mut StdRng::seed_from_u64(1),
    );
    let fresh = GesIDNet::new(
        GesIDNetConfig::for_classes(2),
        &mut StdRng::seed_from_u64(0),
    );
    group.bench_function("gesidnet_train_step", |b| {
        b.iter_batched(
            || (fresh.clone(), Adam::new(quick.learning_rate)),
            |(mut model, mut adam)| {
                let loss = model.train_step(&input, 0);
                adam.begin_step();
                model.for_each_param(&mut |p, g| adam.update(p, g));
                (model, loss)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("feature_encoding", |b| {
        let cfg = FeatureConfig::default();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            encode_sample(&sample, &cfg, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dsp,
    bench_radar,
    bench_preprocessing,
    bench_metrics,
    bench_models
);
criterion_main!(benches);
