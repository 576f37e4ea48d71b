//! The fixed cohort the committed systems were trained on, and the
//! committed-artifact loader that refuses mismatched bytes.
//!
//! Both systems are trained once by `gpbench-train` and committed under
//! `gpbench/models/` with their SHA-256 digests in
//! `gpbench/models/SHA256SUMS` (the `sha256sum -c` format). The benchmark
//! serves exactly those bytes, so both sides of a later comparison serve
//! the same weights and `setup_s` stays a true cold start.

use gp_datasets::{presets, DatasetSpec, Scale};
use gp_kinematics::gestures::{GestureId, GestureSet};
use gp_kinematics::performance::PerformanceConfig;
use gp_kinematics::{Performance, UserProfile};
use gp_radar::Environment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Users in the trained cohort.
pub const USERS: usize = 4;
/// Point-cloud training repetitions per (user, gesture).
pub const POINT_REPS: usize = 6;
/// Range-Doppler training repetitions per (user, gesture).
pub const RD_REPS: u64 = 4;
/// Gestures in the trained set (ASL-15, the paper's self-collected set).
pub const GESTURES: usize = 15;
/// The environment every capture is simulated in.
pub const ENVIRONMENT: Environment = Environment::Office;
/// Radar-to-user distance of every capture (m).
pub const DISTANCE: f64 = 1.2;

/// File names of the committed artifacts, relative to [`models_dir`].
pub const POINT_SYSTEM: &str = "point_system.gpa";
/// The range-Doppler system artifact.
pub const RD_SYSTEM: &str = "rd_system.gpa";
/// Digest file in `sha256sum` format.
pub const DIGESTS: &str = "SHA256SUMS";

/// The dataset spec the point-cloud system was trained on.
pub fn spec() -> DatasetSpec {
    presets::gestureprint(
        ENVIRONMENT,
        Scale::Custom {
            users: USERS,
            reps: POINT_REPS,
        },
    )
}

/// Cohort member `user`'s biometric profile.
pub fn profile(user: usize) -> UserProfile {
    UserProfile::generate(user, spec().user_seed)
}

/// One seeded performance by cohort member `user`.
pub fn performance(user: usize, gesture: usize, seed: u64) -> Performance {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PerformanceConfig {
        distance: DISTANCE,
        ..PerformanceConfig::default()
    };
    Performance::with_config(
        &profile(user),
        GestureSet::Asl15,
        GestureId(gesture),
        config,
        &mut rng,
    )
}

/// The directory holding the committed artifacts.
pub fn models_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("models")
}

/// Reads a committed artifact and checks it against its digest line.
///
/// # Errors
///
/// A missing file, a missing digest line or a digest mismatch.
pub fn read_verified(name: &str) -> Result<Vec<u8>, String> {
    let dir = models_dir();
    let sums = std::fs::read_to_string(dir.join(DIGESTS))
        .map_err(|e| format!("cannot read {DIGESTS}: {e}"))?;
    let expected = sums
        .lines()
        .filter_map(|line| line.split_once("  "))
        .find(|(_, file)| *file == name)
        .map(|(digest, _)| digest.to_owned())
        .ok_or_else(|| format!("{DIGESTS} has no digest for {name}"))?;
    let bytes = std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))?;
    let actual = sha256_hex(&bytes);
    if actual != expected {
        return Err(format!(
            "{name}: digest {actual} does not match committed {expected}; \
             regenerate with gpbench-train or restore the file"
        ));
    }
    Ok(bytes)
}

/// SHA-256 of `data` as lowercase hex (FIPS 180-4).
pub fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut message = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
