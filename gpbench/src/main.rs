//! `gpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. Exits non-zero on a correctness or books mismatch.

use gpbench::catalog;
use gpbench::report::{Args, Report};
use gpbench::util::{result_json, Metrics};
use gpbench::{capture, point_serve, setup};

const USAGE: &str = "usage: gpbench --workload <point_serve|capture> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(55.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gpbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = setup::verify_artifacts() {
        eprintln!("gpbench: refusing to run: {e}");
        std::process::exit(3);
    }
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "point_serve" => point_serve::run,
        "capture" => capture::run,
        other => {
            eprintln!("gpbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = run(&args);
    let (catalog, measured) = if args.trace {
        (catalog::PER_LAYER, &report.layers)
    } else {
        (catalog::END_TO_END, &report.e2e)
    };
    let mut metrics = Metrics::default();
    let mut missing = Vec::new();
    for &(name, unit, _) in catalog {
        match measured.get(name) {
            Some(v) if v.is_finite() => metrics.set(name, v, unit),
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        report.problems.push(format!(
            "metrics without a finite value: {}",
            missing.join(", ")
        ));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    if args.trace {
        for (name, value, unit) in report.e2e.entries() {
            println!("# {name} = {value} {unit}");
        }
    }
    for (name, value, unit) in metrics.entries() {
        println!("# {name} = {value} {unit}");
    }
    for problem in &report.problems {
        eprintln!("gpbench: FAIL: {problem}");
    }
    println!(
        "{}",
        result_json(report.correct(), report.attempted, report.failed, &metrics)
    );
    if !report.correct() {
        std::process::exit(1);
    }
}
