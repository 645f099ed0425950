//! # uwb-bench — round-level end-to-end benchmark
//!
//! The paper's unit of value is one concurrent ranging round: one poll,
//! N replies, every distance from one CIR. This benchmark measures
//! rounds the way a user sees them — rounds and correct distances per
//! second, per-op latency, set-up time, the share of outcomes that miss
//! — on four workloads that stress different layers, and a separate
//! traced run breaks each round down into its layers. See `README.md`
//! beside this package for the workloads, metrics and bounds.
//!
//! ```text
//! uwb-bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! uwb-bench --smoke [--workload NAME] [--seed N] [--trace 0|1]
//! uwb-bench compare A.jsonl B.jsonl
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use uwb_dsp::DspBackend;
use uwb_perfwatch::EnvFingerprint;
use workloads::{Capacity1500, CombinedRound, OverlapCampaign, OverlapStream, Report, Workload};

/// Environment knobs that would silently change what is measured: the
/// DSP backend, worker-thread counts, and in-crate tracing.
pub const REFUSED_ENV: [&str; 5] = [
    "UWB_DSP_BACKEND",
    "UWB_CAMPAIGN_THREADS",
    "UWB_WORLDSIM_THREADS",
    "UWB_TRACE",
    "UWB_PROFILE",
];

const USAGE: &str = "usage: uwb-bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
       uwb-bench --smoke [--workload NAME] [--seed N] [--trace 0|1]
       uwb-bench compare A.jsonl B.jsonl
workloads: overlap_stream, combined_round, capacity_1500, overlap_campaign";

/// One run's settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload name, one of [`workloads::NAMES`].
    pub workload: String,
    /// Seed every op input derives from.
    pub seed: u64,
    /// Time budget of the measured phase.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Tiny sizes and no time budget.
    pub smoke: bool,
}

/// Runs one workload, holding the process-wide measurement gate.
///
/// # Errors
///
/// An unknown workload, a failed correctness check, or a metric that
/// came out non-finite.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    fn go<W: Workload>(w: &W, spec: &RunSpec) -> Result<Report, String> {
        if spec.trace {
            workloads::trace(w, spec.seed, spec.seconds)
        } else {
            workloads::measure(w, spec.seed, Duration::from_secs(spec.seconds))
        }
    }
    let _gate = trace::exclusive();
    let smoke = spec.smoke;
    let report = match spec.workload.as_str() {
        "overlap_stream" => go(&OverlapStream { smoke }, spec),
        "combined_round" => go(&CombinedRound::new(smoke), spec),
        "capacity_1500" => go(&Capacity1500 { smoke }, spec),
        "overlap_campaign" => go(&OverlapCampaign { smoke }, spec),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    match report.metrics.0.iter().find(|(_, v)| !v.is_finite()) {
        Some((m, v)) => Err(format!("{} came out {v}", m.name)),
        None => Ok(report),
    }
}

/// Parsed command line of a run.
struct Cli {
    specs: Vec<RunSpec>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut out) = (None, None, None, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".to_string()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let trace = trace.unwrap_or(false);
    let specs = if smoke {
        let names = workload.map_or_else(
            || workloads::NAMES.iter().map(|s| s.to_string()).collect(),
            |w| vec![w],
        );
        names
            .into_iter()
            .map(|workload| RunSpec {
                workload,
                seed: seed.unwrap_or(1),
                seconds: 0,
                trace,
                smoke,
            })
            .collect()
    } else {
        vec![RunSpec {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        }]
    };
    Ok(Cli { specs, out })
}

/// The `#`-prefixed line stating what ran where.
fn fingerprint_line(spec: &RunSpec, env: &EnvFingerprint) -> String {
    format!(
        "# uwb-bench workload={} seed={} seconds={} trace={} smoke={} rustc=\"{}\" nproc={} backend={} threads={} count_alloc={}",
        spec.workload,
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        spec.smoke,
        env.rustc,
        env.nproc,
        DspBackend::default().label(),
        env.threads,
        env.count_alloc
    )
}

/// The record `--out` appends and `compare` reads: the result line's
/// fields plus what ran where.
fn record_line(spec: &RunSpec, env: &EnvFingerprint, report: &Report) -> String {
    let mut rustc = Vec::new();
    let _ = uwb_obs::write_json_string(&mut rustc, &env.rustc);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"rustc\": {}, \"nproc\": {}, \"backend\": \"{}\", \"threads\": {}, \"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        spec.workload,
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        spec.smoke,
        String::from_utf8_lossy(&rustc),
        env.nproc,
        DspBackend::default().label(),
        env.threads,
        report.attempted,
        report.metrics.to_json()
    )
}

fn append(path: &PathBuf, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(format!("{line}\n").as_bytes())?;
    file.flush()
}

/// The command line entry point; returns the exit code.
#[must_use]
pub fn main_with(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run: {var} is set and would change what is measured; unset it");
        return 2;
    }
    if cli.specs.iter().any(|s| s.trace) && !uwb_perfwatch::alloc_count::enabled() {
        eprintln!("--trace 1 needs the count-alloc build: run uwb-bench-traced");
        return 2;
    }
    for spec in &cli.specs {
        let report = match run(spec) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}: {e}", spec.workload);
                return 1;
            }
        };
        let env = EnvFingerprint::capture(report.threads);
        println!("{}", fingerprint_line(spec, &env));
        print!("{}", report.metrics.table());
        if let Some(path) = &cli.out {
            if let Err(e) = append(path, &record_line(spec, &env, &report)) {
                eprintln!("cannot append to {}: {e}", path.display());
                return 1;
            }
        }
        println!(
            "{}",
            metrics::result_line(report.attempted, &report.metrics)
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
        let spec = RunSpec {
            workload: workload.to_string(),
            seed,
            seconds: 0,
            trace,
            smoke: true,
        };
        run(&spec).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn smoke_runs_print_every_metric_with_its_unit() {
        for workload in workloads::NAMES {
            for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let report = smoke(workload, 1, trace);
                assert!(report.attempted >= 1);
                let line = metrics::result_line(report.attempted, &report.metrics);
                let json = uwb_testkit::parse_json(&line).expect("result line is JSON");
                let printed = json.get("metrics").and_then(|m| m.as_object()).unwrap();
                assert_eq!(printed.len(), catalogue.len(), "{workload}: {line}");
                for spec in catalogue {
                    let m = json.get("metrics").and_then(|m| m.get(spec.name));
                    let m = m.unwrap_or_else(|| panic!("{workload}: no {}", spec.name));
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(spec.unit));
                    let value = m.get("value").and_then(|v| v.as_f64()).unwrap();
                    assert!(value.is_finite(), "{workload}: {} = {value}", spec.name);
                }
            }
        }
    }

    #[test]
    fn smoke_runs_repeat_their_exact_metrics() {
        for workload in workloads::NAMES {
            for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let (a, b) = (smoke(workload, 7, trace), smoke(workload, 7, trace));
                for spec in catalogue.iter().filter(|m| m.exact) {
                    assert_eq!(
                        a.metrics.get(spec.name),
                        b.metrics.get(spec.name),
                        "{workload}: {}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn command_line_is_checked() {
        let run = args(&[
            "--workload",
            "capacity_1500",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        let cli = parse(&run).unwrap();
        assert_eq!(cli.specs.len(), 1);
        assert!(cli.specs[0].trace && cli.specs[0].seed == 3 && cli.specs[0].seconds == 10);
        assert_eq!(parse(&args(&["--smoke"])).unwrap().specs.len(), 4);
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &[
                "--workload",
                "capacity_1500",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &[
                "--workload",
                "capacity_1500",
                "--seed",
                "-1",
                "--seconds",
                "1",
            ],
            &[
                "--workload",
                "capacity_1500",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "capacity_1500", "--seconds", "1"],
            &["--trace=1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
