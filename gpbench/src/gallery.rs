//! The persisted identity gallery the traced runs probe the store and
//! wire layers with: 2,000 identities, the cohort's users enrolled from
//! real embeddings and the rest synthetic, in a scratch directory inside
//! the benchmark's own tree.

use crate::cohort;
use crate::inputs::{cell, point_capture, Capture};
use crate::util::mix;
use gestureprint_core::GesturePrint;
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig};
use gp_radar::Frame;
use gp_serve::{IdentityStore, RegistryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Identities in the persisted gallery.
pub const GALLERY_USERS: usize = 2000;

/// A scratch directory inside the benchmark's own tree, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// `gpbench/.run/<tag>-<pid>-<n>`, created empty.
    pub fn new(tag: &str) -> RunDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create run directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The labeled sample of a capture's longest segment, as the offline
/// pipeline cuts it.
fn sample_of(capture: &Capture<Frame>) -> Option<LabeledSample> {
    Preprocessor::new(PreprocessorConfig::default())
        .process(&capture.frames)
        .into_iter()
        .max_by_key(|s| s.duration_frames)
        .map(|s| LabeledSample::from_sample(s, capture.gesture, capture.user))
}

/// Builds and persists a gallery of [`GALLERY_USERS`] identities at
/// `root`: the cohort's users enrolled from real embeddings of seeded
/// captures, the rest synthetic identities drawn to match the real
/// embeddings' per-dimension spread; the acceptance threshold is
/// calibrated on held-out cohort probes.
pub fn build_gallery(system: &GesturePrint, root: &Path, seed: u64) {
    let store = IdentityStore::open(root, RegistryConfig::default()).expect("open gallery root");
    let mut real: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut i = 0u64;
    while real.len() < cohort::USERS * 4 && i < 400 {
        let (gesture, user) = cell(i as usize);
        let capture = point_capture(user, gesture, mix(seed, 7, i));
        i += 1;
        if let Some(embedding) = sample_of(&capture).and_then(|s| system.embedding(&s)) {
            real.push((user, embedding));
        }
    }
    let dim = real.first().map_or(0, |(_, e)| e.len());
    let mean: Vec<f64> = (0..dim)
        .map(|d| real.iter().map(|(_, e)| f64::from(e[d])).sum::<f64>() / real.len() as f64)
        .collect();
    let spread: Vec<f64> = (0..dim)
        .map(|d| {
            let var = real
                .iter()
                .map(|(_, e)| (f64::from(e[d]) - mean[d]).powi(2))
                .sum::<f64>()
                / real.len() as f64;
            var.sqrt().max(1e-3)
        })
        .collect();
    let (enrolled, probes) = real.split_at(real.len() / 2);
    for (user, embedding) in enrolled {
        store
            .enroll(&format!("user-{user}"), embedding)
            .expect("cohort enrollment");
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 8, 0));
    let synthetic = |rng: &mut StdRng| -> Vec<f32> {
        (0..dim)
            .map(|d| (mean[d] + spread[d] * rng.gen_range(-1.7..1.7)) as f32)
            .collect()
    };
    for n in cohort::USERS..GALLERY_USERS {
        store
            .enroll(&format!("id-{n:05}"), &synthetic(&mut rng))
            .expect("synthetic enrollment");
    }
    let mut labeled: Vec<(String, Vec<f32>)> = probes
        .iter()
        .map(|(user, e)| (format!("user-{user}"), e.clone()))
        .collect();
    labeled.extend((0..probes.len()).map(|n| (format!("stranger-{n}"), synthetic(&mut rng))));
    store.calibrate("bench", &labeled, 0.05);
    store.persist().expect("persist gallery");
}
