//! Regenerates the committed systems the benchmark serves.
//!
//! ```sh
//! cargo run --release --manifest-path gpbench/Cargo.toml --bin gpbench-train
//! ```
//!
//! Trains the point-cloud system (GesIDNet, 15 ASL gestures, serialized
//! mode) and the range-Doppler system (RdNet) on the fixed cohort in
//! `gpbench::cohort`, writes both as binary artifacts into
//! `gpbench/models/` and rewrites `SHA256SUMS`. Everything is seeded, so
//! a rerun on the same code reproduces the same bytes; a change to the
//! training numerics changes the digests, which is why the benchmark
//! serves the committed files rather than retraining.

use gestureprint_core::{
    ArtifactFormat, GesturePrint, GesturePrintConfig, IdentificationMode, ModelKind, TrainConfig,
};
use gp_datasets::{build, BuildOptions};
use gp_pipeline::LabeledSample;
use gp_rd::{dominant_segment, RdConfig, RdLabeledSample, RdSegmentConfig, RdSynthesizer};
use gpbench::cohort;
use std::time::Instant;

fn main() {
    let threads = 2;
    let dir = cohort::models_dir();
    std::fs::create_dir_all(&dir).expect("create models directory");

    let started = Instant::now();
    let spec = cohort::spec();
    let dataset = build(
        &spec,
        &BuildOptions {
            threads,
            ..BuildOptions::default()
        },
    );
    eprintln!("{}", dataset.summary());
    let samples: Vec<&LabeledSample> = dataset.samples.iter().map(|s| &s.labeled).collect();
    let point = GesturePrint::train(
        &samples,
        cohort::GESTURES,
        cohort::USERS,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                model: ModelKind::GesIdNet,
                epochs: 12,
                ..TrainConfig::default()
            },
            threads,
        },
    );
    eprintln!("point system trained in {:.1?}", started.elapsed());

    let started = Instant::now();
    let mut rd_samples: Vec<RdLabeledSample> = Vec::new();
    for user in 0..cohort::USERS {
        for gesture in 0..cohort::GESTURES {
            for rep in 0..cohort::RD_REPS {
                let seed = 0x5EED_0000 + (user * 1000 + gesture * 10) as u64 + rep;
                let perf = cohort::performance(user, gesture, seed);
                let frames =
                    RdSynthesizer::new(RdConfig::default(), seed ^ 0xF00D).synthesize(&perf);
                if let Some(seg) = dominant_segment(&frames, &RdSegmentConfig::default()) {
                    rd_samples.push(RdLabeledSample::from_segment(
                        &frames, seg.start, seg.end, gesture, user,
                    ));
                }
            }
        }
    }
    let rd_refs: Vec<&RdLabeledSample> = rd_samples.iter().collect();
    let rd = GesturePrint::train_rd(
        &rd_refs,
        cohort::GESTURES,
        cohort::USERS,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                model: ModelKind::RdNet,
                epochs: 12,
                learning_rate: 5e-3,
                augment: None,
                ..TrainConfig::default()
            },
            threads,
        },
    );
    eprintln!(
        "rd system trained on {} segments in {:.1?}",
        rd_samples.len(),
        started.elapsed()
    );

    let mut sums = String::new();
    for (name, system) in [(cohort::POINT_SYSTEM, &point), (cohort::RD_SYSTEM, &rd)] {
        let bytes = system.save_artifact_with(ArtifactFormat::Binary);
        std::fs::write(dir.join(name), &bytes).expect("write artifact");
        sums.push_str(&format!("{}  {name}\n", cohort::sha256_hex(&bytes)));
        eprintln!("wrote {name}: {} bytes", bytes.len());
    }
    std::fs::write(dir.join(cohort::DIGESTS), sums).expect("write digests");
}
