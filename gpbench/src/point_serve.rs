//! `point_serve`: about 1,000 in-process point-cloud sessions at the
//! radar's real 10 fps, phases staggered; classify mode, no store.

use crate::inputs::{plan_point, point_capture, pool, score, Layout};
use crate::report::{self, Args, Report};
use crate::serving::{phases, reconcile, serve_layers, Feed, BLOCKS};
use crate::setup::{self, Systems};
use crate::trace;
use crate::util::timed;
use gp_serve::{ServeConfig, ServeEngine};
use std::time::{Duration, Instant};

/// Concurrent sessions.
pub const SESSIONS: usize = 1000;
/// Executor workers (fixed; the load-generator thread takes the other core).
pub const WORKERS: usize = 1;
/// Distinct captures the session streams are composed from.
pub const POOL: usize = 600;
/// Share of the run spent in the paced phase; the rest is saturated.
/// Both are cut into [`BLOCKS`] blocks that alternate.
pub const PACED_SHARE: f64 = 0.5;

/// The engine configuration: shipped defaults, fixed worker count.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = config();
    let paced_frames = (args.seconds * PACED_SHARE * 10.0).round() as usize;
    let ((pool, layout, plans), inputs) = timed(|| {
        let pool = pool(args.seed, POOL, 2, point_capture);
        let layout = Layout::compose(&pool, SESSIONS, paced_frames, args.seed);
        let plans = plan_point(&layout, &pool, &config.preprocessor.segmenter);
        (pool, layout, plans)
    });

    let (engine, setup) = setup::repeat(Systems::Point, |loaded| {
        ServeEngine::new(loaded.point, config.clone())
    });
    let feed = Feed {
        engine: &engine,
        pool: &pool,
        layout: &layout,
        plans: &plans,
    };
    let served = Instant::now();
    let window = Duration::from_secs_f64(args.seconds * (1.0 - PACED_SHARE));
    let (paced, sat) = phases(&feed, window);
    let problems = reconcile(&engine, &paced, &plans);
    let wall = served.elapsed();

    let books = score(&layout, &plans, &paced.verdicts);
    report::serving(
        &mut report,
        &books,
        &paced.verdicts,
        &paced.lags_ms,
        sat.throughput,
        &setup,
        inputs.as_secs_f64(),
    );
    report.problems.extend(problems);
    report.note(format!(
        "paced: {} idle-keeper spinners ran in every one of {BLOCKS} blocks",
        paced.idle_keepers
    ));
    report.note(format!(
        "saturated: {} verdicts counted, {} compared with paced, {} mismatched",
        sat.counted, sat.compared, sat.mismatches
    ));
    report.check(sat.mismatches == 0, || {
        format!(
            "{} saturated verdicts differ from paced ones",
            sat.mismatches
        )
    });
    report.check(sat.counted > 0, || {
        "saturated phase produced no verdict".into()
    });
    if args.trace {
        report.layers.merge(&serve_layers(&engine, wall));
        trace::point_workload(&mut report, &engine, &pool, &layout, &setup, args.seed);
    }
    report
}
