//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the SocialTrust end-to-end benchmark from the
//! root of a checkout and prints one JSON result as the last line of
//! standard output. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` the per-layer metrics, plus `overhead.<metric>`: the
//! traced run's relative change of each end-to-end metric against the
//! median of the untraced runs recorded in `.bench_work/results`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use socialtrust_e2ebench::stats::median;
use socialtrust_e2ebench::{run, Report, E2E, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Untraced end-to-end results of earlier runs of `workload`, one line
/// of `name=value` pairs per run.
fn history_path(workload: &str) -> std::path::PathBuf {
    Path::new(".bench_work")
        .join("results")
        .join(format!("{workload}.txt"))
}

fn record_history(workload: &str, report: &Report) {
    let path = history_path(workload);
    let line: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, _)| format!("{n}={v}"))
        .collect();
    let written = std::fs::create_dir_all(path.parent().expect("results directory"))
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
        })
        .and_then(|mut f| writeln!(f, "{}", line.join(" ")));
    if let Err(e) = written {
        eprintln!("e2ebench: cannot record results in {}: {e}", path.display());
    }
}

fn history_medians(workload: &str) -> Option<Vec<f64>> {
    let text = std::fs::read_to_string(history_path(workload)).ok()?;
    let mut columns = vec![Vec::new(); E2E.len()];
    for line in text.lines() {
        for pair in line.split_whitespace() {
            let Some((name, value)) = pair.split_once('=') else {
                continue;
            };
            if let (Some(k), Ok(v)) = (E2E.iter().position(|m| m.0 == name), value.parse::<f64>()) {
                columns[k].push(v);
            }
        }
    }
    columns.iter().map(|c| median(c)).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut report = if args.trace {
        // The overhead needs an untraced baseline; measure one first
        // when no untraced run has been recorded in this checkout.
        if history_medians(&args.workload).is_none() {
            let baseline = run(&args.workload, args.seed, args.seconds, false);
            if baseline.problems.is_empty() {
                record_history(&args.workload, &baseline);
            }
        }
        let mut report = run(&args.workload, args.seed, args.seconds, true);
        let baseline = history_medians(&args.workload).unwrap_or_default();
        let mut overhead = Vec::new();
        for (k, (name, _)) in E2E.iter().enumerate() {
            let traced = report.value(name).unwrap_or(f64::NAN);
            let untraced = baseline.get(k).copied().unwrap_or(f64::NAN);
            overhead.push((format!("overhead.{name}"), traced / untraced - 1.0));
        }
        report.metrics.retain(|m| !E2E.iter().any(|e| e.0 == m.0));
        for (name, value) in overhead {
            report.metric(&name, value, "ratio");
        }
        report
    } else {
        let report = run(&args.workload, args.seed, args.seconds, false);
        if report.problems.is_empty() {
            record_history(&args.workload, &report);
        }
        report
    };
    if !report.problems.is_empty() {
        eprintln!(
            "e2ebench: {} correctness check(s) failed",
            report.problems.len()
        );
    }
    report.ops.attempted = report.ops.attempted.max(1);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
