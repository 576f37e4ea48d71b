//! The benchmark's own checks: seeded inputs repeat exactly, the metric
//! names it prints are the ones `BENCHMARK.json` declares, and the
//! correctness metrics repeat exactly across runs of one seed.

use gp_pipeline::SegmenterConfig;
use gpbench::catalog::{END_TO_END, PER_LAYER};
use gpbench::inputs::{plan_point, point_capture, pool, rd_capture, Layout};
use gpbench::report::Args;
use gpbench::{capture, point_serve};

/// `(name, unit, better)` of every metric in one top-level array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, key: &str| -> String {
        let rest = &entry[entry.find(&format!("\"{key}\":")).expect("field present")..];
        let rest = &rest[rest.find(':').expect("colon") + 1..];
        let rest = &rest[rest.find('"').expect("quoted value") + 1..];
        rest[..rest.find('"').expect("closing quote")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            )
        })
        .collect()
}

#[test]
fn one_seed_generates_identical_inputs() {
    for seed in [3, 41] {
        let a = pool(seed, 20, 2, point_capture);
        let b = pool(seed, 20, 1, point_capture);
        assert_eq!(a, b, "point pool, seed {seed}");
        let la = Layout::compose(&a, 12, 90, seed);
        assert_eq!(la, Layout::compose(&b, 12, 90, seed));
        let config = SegmenterConfig::default();
        assert_eq!(plan_point(&la, &a, &config), plan_point(&la, &b, &config));

        let ra = pool(seed, 4, 2, rd_capture);
        assert_eq!(ra, pool(seed, 4, 1, rd_capture), "rd pool, seed {seed}");

        assert_eq!(capture::jobs(seed), capture::jobs(seed));
    }
    assert_ne!(
        pool(3, 4, 1, point_capture),
        pool(4, 4, 1, point_capture),
        "another seed, other inputs"
    );
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let owned = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
            .collect()
    };
    assert_eq!(owned(END_TO_END), declared("end_to_end"));
    assert_eq!(owned(PER_LAYER), declared("per_layer"));

    // A short traced run produces every catalogued metric (10 s: five
    // paced blocks of 10 frames, long enough for segments to close, and
    // saturated blocks of 1 s, long enough to count results).
    let report = point_serve::run(&Args {
        workload: "point_serve".into(),
        seed: 5,
        seconds: 10.0,
        trace: true,
    });
    for (name, _, _) in END_TO_END {
        let v = report.e2e.get(name);
        assert!(v.is_some_and(f64::is_finite), "end-to-end {name}: {v:?}");
    }
    for (name, _, _) in PER_LAYER {
        let v = report.layers.get(name);
        assert!(v.is_some_and(f64::is_finite), "per-layer {name}: {v:?}");
    }
}

#[test]
fn gra_and_uia_repeat_across_short_runs() {
    // 12 s leaves a 60-frame paced stream: long enough that some gestures
    // end SETTLE frames before it does and count as operations.
    let args = Args {
        workload: "point_serve".into(),
        seed: 9,
        seconds: 12.0,
        trace: false,
    };
    let a = point_serve::run(&args);
    let b = point_serve::run(&args);
    assert!(a.attempted > 0, "no complete gesture in the run");
    for metric in ["gra", "uia"] {
        assert_eq!(a.e2e.get(metric), b.e2e.get(metric), "{metric}");
    }
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
}
