//! The offline trace analyzer behind the `uwb-trace` binary.
//!
//! Consumes the JSONL traces the experiment harness writes under
//! `results/traces/` (honouring `UWB_RESULTS_DIR` through
//! [`uwb_obs::traces_dir`]) and answers the questions that come up when
//! a Fig. 7 trial goes wrong: which stages ran and how long they took
//! ([`summary`]), which trials look anomalous ([`outliers`]), what the
//! flight-recorded CIR actually looked like ([`render_cir`]), and how
//! two runs differ ([`diff`]).

use std::path::{Path, PathBuf};

use uwb_obs::{median, median_abs_deviation, MetricsRegistry, FLIGHT_STAGE};
use uwb_testkit::{parse_json, Json};

/// Modified z-score beyond which a trial is reported as an outlier
/// (the conventional 3.5 threshold of Iglewicz & Hoaglin).
const OUTLIER_Z: f64 = 3.5;

/// One parsed trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was installed.
    pub t_ns: u64,
    /// Stage name, e.g. `detect.iter`.
    pub stage: String,
    /// Campaign trial index, when the event fired inside a trial scope.
    pub trial: Option<u64>,
    /// The full event object (stage payload fields included).
    pub fields: Json,
}

/// A loaded trace file.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Where the trace was read from.
    pub path: PathBuf,
    /// Schema version from the `trace.meta` header; `None` for traces
    /// written before the header existed.
    pub schema: Option<u64>,
    /// All events in file order, header excluded.
    pub events: Vec<TraceEvent>,
}

/// Resolves which trace file to analyze: an explicit path wins;
/// otherwise the most recently modified `*.jsonl` under the traces
/// directory (which honours `UWB_RESULTS_DIR`).
///
/// # Errors
///
/// Returns a message when no explicit path is given and the traces
/// directory holds no `*.jsonl` files.
pub fn resolve_trace_path(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(path) = explicit {
        return Ok(PathBuf::from(path));
    }
    let dir = uwb_obs::traces_dir();
    let entries = std::fs::read_dir(&dir)
        .map_err(|err| format!("cannot list trace directory {}: {err}", dir.display()))?;
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, path));
        }
    }
    newest.map(|(_, path)| path).ok_or_else(|| {
        format!(
            "no .jsonl traces under {} — run an experiment with --trace-out first",
            dir.display()
        )
    })
}

/// Loads and parses a JSONL trace.
///
/// The `trace.meta` header (first line of every trace written since the
/// header existed) is validated and stripped: a schema *newer* than
/// this binary understands is an error with upgrade advice; an absent
/// header is tolerated for old traces.
///
/// # Errors
///
/// Returns a message naming the offending line on unreadable files,
/// malformed JSON, or a future schema version.
pub fn load_trace(path: &Path) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let mut schema = None;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let node = parse_json(line)
            .map_err(|err| format!("{}:{}: invalid JSON: {err}", path.display(), lineno + 1))?;
        let stage = node
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                format!(
                    "{}:{}: event without a \"stage\" field",
                    path.display(),
                    lineno + 1
                )
            })?
            .to_string();
        if stage == uwb_obs::META_STAGE {
            let version = node.get("schema").and_then(Json::as_u64).unwrap_or(0);
            if version > uwb_obs::TRACE_SCHEMA_VERSION {
                return Err(format!(
                    "{}: trace schema {version} is newer than this analyzer understands \
                     (max {}); rebuild the tools from the commit that wrote the trace",
                    path.display(),
                    uwb_obs::TRACE_SCHEMA_VERSION
                ));
            }
            schema = Some(version);
            continue;
        }
        events.push(TraceEvent {
            t_ns: node.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
            stage,
            trial: node.get("trial").and_then(Json::as_u64),
            fields: node,
        });
    }
    Ok(Trace {
        path: path.to_path_buf(),
        schema,
        events,
    })
}

/// Reconstructs a per-stage latency registry from event timestamps.
///
/// The trace has one timestamp per event, taken at emission; the gap
/// since the previous event on the same (single-writer) stream is
/// attributed to the stage that emitted the later event. For
/// `campaign.chunk` events the exact `elapsed_ns` payload is used
/// instead of the gap.
fn rebuild_latencies(trace: &Trace) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let mut prev_t_ns: Option<u64> = None;
    for ev in &trace.events {
        if ev.stage == "campaign.chunk" {
            if let Some(ns) = ev.fields.get("elapsed_ns").and_then(Json::as_u64) {
                registry.record_ns(&ev.stage, ns);
            }
        } else if let Some(prev) = prev_t_ns {
            registry.record_ns(&ev.stage, ev.t_ns.saturating_sub(prev));
        }
        prev_t_ns = Some(ev.t_ns);
    }
    registry
}

/// Per-stage event counts plus the reconstructed latency table.
#[must_use]
pub fn summary(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} ({} events, schema {})\n",
        trace.path.display(),
        trace.events.len(),
        trace
            .schema
            .map_or_else(|| "unversioned".to_string(), |v| v.to_string()),
    ));
    let trials: std::collections::BTreeSet<u64> =
        trace.events.iter().filter_map(|e| e.trial).collect();
    if !trials.is_empty() {
        out.push_str(&format!("trials observed: {}\n", trials.len()));
    }

    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for ev in &trace.events {
        *counts.entry(ev.stage.as_str()).or_insert(0) += 1;
    }
    out.push_str("\nevents per stage:\n");
    let width = counts.keys().map(|s| s.len()).max().unwrap_or(0);
    for (stage, count) in &counts {
        out.push_str(&format!("  {stage:<width$}  {count}\n"));
    }

    let registry = rebuild_latencies(trace);
    let table = registry.latency_table();
    if !table.is_empty() {
        out.push_str("\nreconstructed per-stage latency (gaps between events):\n");
        out.push_str(&table);
    }
    out
}

/// Per-trial detection record assembled from `detect.iter` events.
struct TrialDetect {
    trial: u64,
    final_residual_energy: f64,
    max_amplitude: f64,
    iterations: Vec<String>,
}

fn collect_detections(trace: &Trace) -> Vec<TrialDetect> {
    let mut by_trial: std::collections::BTreeMap<u64, TrialDetect> =
        std::collections::BTreeMap::new();
    for ev in &trace.events {
        if ev.stage != "detect.iter" {
            continue;
        }
        let trial = ev.trial.unwrap_or(0);
        let energy = ev
            .fields
            .get("residual_energy")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let amplitude = ev
            .fields
            .get("amplitude")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let line = format!(
            "iter {} peak_index {} tau {:.3} ns amp {:.4} shape {} residual_energy {:.4}",
            ev.fields
                .get("iteration")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            ev.fields
                .get("peak_index")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            ev.fields.get("tau_s").and_then(Json::as_f64).unwrap_or(0.0) * 1e9,
            amplitude,
            ev.fields.get("shape").and_then(Json::as_u64).unwrap_or(0),
            energy,
        );
        let entry = by_trial.entry(trial).or_insert(TrialDetect {
            trial,
            final_residual_energy: f64::NAN,
            max_amplitude: 0.0,
            iterations: Vec::new(),
        });
        entry.final_residual_energy = energy;
        entry.max_amplitude = entry.max_amplitude.max(amplitude);
        entry.iterations.push(line);
    }
    by_trial.into_values().collect()
}

/// Modified z-scores (0.6745·(x−median)/MAD) for `values`; all zeros
/// when the MAD vanishes (constant data has no outliers).
fn modified_z(values: &[f64]) -> Vec<f64> {
    let med = median(values).unwrap_or(0.0);
    let mad = median_abs_deviation(values).unwrap_or(0.0);
    values
        .iter()
        .map(|v| {
            if mad > 0.0 {
                0.6745 * (v - med) / mad
            } else {
                0.0
            }
        })
        .collect()
}

/// Hunts for anomalous trials: residual energy or peak amplitude with a
/// modified z-score beyond 3.5, printed with their full detector
/// iteration history.
#[must_use]
pub fn outliers(trace: &Trace) -> String {
    let detections = collect_detections(trace);
    if detections.is_empty() {
        return "no detect.iter events in this trace\n".to_string();
    }
    let energies: Vec<f64> = detections.iter().map(|d| d.final_residual_energy).collect();
    let amplitudes: Vec<f64> = detections.iter().map(|d| d.max_amplitude).collect();
    let energy_z = modified_z(&energies);
    let amplitude_z = modified_z(&amplitudes);

    let mut out = String::new();
    out.push_str(&format!(
        "{} trials with detections; residual-energy median {:.4}, amplitude median {:.4}\n",
        detections.len(),
        median(&energies).unwrap_or(0.0),
        median(&amplitudes).unwrap_or(0.0),
    ));
    let mut flagged = 0usize;
    for (i, d) in detections.iter().enumerate() {
        let ez = energy_z[i];
        let az = amplitude_z[i];
        if ez.abs() <= OUTLIER_Z && az.abs() <= OUTLIER_Z {
            continue;
        }
        flagged += 1;
        out.push_str(&format!(
            "\ntrial {} — residual-energy z {:+.2}, amplitude z {:+.2}\n",
            d.trial, ez, az
        ));
        for line in &d.iterations {
            out.push_str(&format!("  {line}\n"));
        }
    }
    if flagged == 0 {
        out.push_str(&format!(
            "no outliers beyond |z| > {OUTLIER_Z} — every trial within the robust band\n"
        ));
    }
    out
}

/// Width of the ASCII CIR rendering, characters.
const CIR_WIDTH: usize = 96;

/// Renders the `index`-th flight-recorder CIR snapshot as ASCII: tap
/// magnitudes as a sparkline with a marker row underneath (`T` = truth
/// delay, `D` = detected peak, `X` = both in the same column).
///
/// # Errors
///
/// Returns a message when the trace holds no `flight.cir` snapshot at
/// `index` or the snapshot is missing its tap arrays.
pub fn render_cir(trace: &Trace, index: usize) -> Result<String, String> {
    let snapshots: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.stage == FLIGHT_STAGE)
        .collect();
    if snapshots.is_empty() {
        return Err("no flight.cir snapshots in this trace (set UWB_FLIGHT_QUOTA)".to_string());
    }
    let ev = snapshots.get(index).ok_or_else(|| {
        format!(
            "snapshot index {index} out of range: trace has {} snapshot(s)",
            snapshots.len()
        )
    })?;
    let re = ev
        .fields
        .get("taps_re")
        .and_then(Json::as_f64_list)
        .ok_or("snapshot missing taps_re")?;
    let im = ev
        .fields
        .get("taps_im")
        .and_then(Json::as_f64_list)
        .ok_or("snapshot missing taps_im")?;
    let period_s = ev
        .fields
        .get("sample_period_s")
        .and_then(Json::as_f64)
        .ok_or("snapshot missing sample_period_s")?;
    let magnitudes: Vec<f64> = re
        .iter()
        .zip(&im)
        .map(|(r, i)| {
            let m = r.hypot(*i);
            if m.is_finite() {
                m
            } else {
                0.0
            }
        })
        .collect();
    if magnitudes.is_empty() {
        return Err("snapshot has zero taps".to_string());
    }

    let mut markers = vec![' '; CIR_WIDTH];
    let mut place = |tau_s: f64, mark: char| {
        if !tau_s.is_finite() || tau_s < 0.0 {
            return;
        }
        let tap = tau_s / period_s;
        let col = ((tap / magnitudes.len() as f64) * CIR_WIDTH as f64) as usize;
        if col < CIR_WIDTH {
            markers[col] = if markers[col] == ' ' { mark } else { 'X' };
        }
    };
    let truth: Vec<f64> = ev
        .fields
        .get("truth_tau_s")
        .and_then(Json::as_f64_list)
        .unwrap_or_default();
    let detected: Vec<f64> = ev
        .fields
        .get("peaks_tau_s")
        .and_then(Json::as_f64_list)
        .unwrap_or_default();
    for &tau in &truth {
        place(tau, 'T');
    }
    for &tau in &detected {
        place(tau, 'D');
    }

    let mut out = String::new();
    out.push_str(&format!(
        "snapshot {}/{} — reason: {}{}  ({} taps, {:.4} ns/tap)\n",
        index + 1,
        snapshots.len(),
        ev.fields
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or("unknown"),
        ev.trial.map(|t| format!(", trial {t}")).unwrap_or_default(),
        magnitudes.len(),
        period_s * 1e9,
    ));
    out.push_str(&format!(
        "|{}|\n",
        repro_bench::sparkline(&magnitudes, CIR_WIDTH)
    ));
    out.push_str(&format!("|{}|\n", markers.iter().collect::<String>()));
    out.push_str("markers: T = truth delay, D = detected peak, X = both\n");
    let amplitudes: Vec<f64> = ev
        .fields
        .get("peaks_amplitude")
        .and_then(Json::as_f64_list)
        .unwrap_or_default();
    for (k, &tau) in detected.iter().enumerate() {
        out.push_str(&format!(
            "detected {k}: tau {:.3} ns amp {:.4}\n",
            tau * 1e9,
            amplitudes.get(k).copied().unwrap_or(f64::NAN),
        ));
    }
    for (k, &tau) in truth.iter().enumerate() {
        out.push_str(&format!("truth    {k}: tau {:.3} ns\n", tau * 1e9));
    }
    Ok(out)
}

/// Stage-by-stage comparison of two traces: event counts and mean
/// reconstructed latency, with deltas.
#[must_use]
pub fn diff(a: &Trace, b: &Trace) -> String {
    let count = |t: &Trace| {
        let mut m: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for ev in &t.events {
            *m.entry(ev.stage.clone()).or_insert(0) += 1;
        }
        m
    };
    let counts_a = count(a);
    let counts_b = count(b);
    let lat_a = rebuild_latencies(a);
    let lat_b = rebuild_latencies(b);

    let mut stages: Vec<String> = counts_a.keys().chain(counts_b.keys()).cloned().collect();
    stages.sort_unstable();
    stages.dedup();

    let mut out = String::new();
    out.push_str(&format!(
        "A: {} ({} events)\n",
        a.path.display(),
        a.events.len()
    ));
    out.push_str(&format!(
        "B: {} ({} events)\n\n",
        b.path.display(),
        b.events.len()
    ));
    let width = stages.iter().map(String::len).max().unwrap_or(5).max(5);
    out.push_str(&format!(
        "{:<width$}  {:>9}  {:>9}  {:>7}  {:>12}  {:>12}\n",
        "stage", "events A", "events B", "Δevents", "mean A", "mean B"
    ));
    for stage in &stages {
        let ca = counts_a.get(stage).copied().unwrap_or(0);
        let cb = counts_b.get(stage).copied().unwrap_or(0);
        let mean = |reg: &MetricsRegistry| {
            reg.latency(stage)
                .filter(|h| h.count() > 0)
                .map_or_else(|| "-".to_string(), |h| format!("{:.0} ns", h.mean_ns()))
        };
        out.push_str(&format!(
            "{stage:<width$}  {ca:>9}  {cb:>9}  {:>+7}  {:>12}  {:>12}\n",
            cb as i64 - ca as i64,
            mean(&lat_a),
            mean(&lat_b),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("perfwatch-analyze-{name}-{}", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(contents.as_bytes()).expect("write temp");
        path
    }

    const SMALL_TRACE: &str = concat!(
        "{\"stage\":\"trace.meta\",\"schema\":1,\"writer\":\"uwb-obs\"}\n",
        "{\"t_ns\":100,\"stage\":\"channel.render\",\"trial\":0}\n",
        "{\"t_ns\":350,\"stage\":\"detect.iter\",\"trial\":0,\"iteration\":0,\"peak_index\":40,\
         \"tau_s\":4e-8,\"amplitude\":1.0,\"template\":0,\"shape\":0,\"residual_energy\":0.5,\
         \"shape_scores\":[0.9]}\n",
        "{\"t_ns\":500,\"stage\":\"campaign.chunk\",\"chunk\":0,\"first_trial\":0,\"trials\":1,\
         \"elapsed_ns\":400}\n",
    );

    #[test]
    fn load_trace_reads_header_and_events() {
        let path = write_temp("load", SMALL_TRACE);
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(trace.schema, Some(1));
        assert_eq!(trace.events.len(), 3, "meta header must be stripped");
        assert_eq!(trace.events[0].stage, "channel.render");
        assert_eq!(trace.events[1].trial, Some(0));
    }

    #[test]
    fn future_schema_fails_with_upgrade_advice() {
        let path = write_temp(
            "future",
            "{\"stage\":\"trace.meta\",\"schema\":999}\n{\"t_ns\":1,\"stage\":\"x\"}\n",
        );
        let err = load_trace(&path).expect_err("future schema");
        std::fs::remove_file(&path).ok();
        assert!(err.contains("schema 999"), "unhelpful error: {err}");
        assert!(err.contains("newer"), "unhelpful error: {err}");
    }

    #[test]
    fn headerless_trace_is_tolerated() {
        let path = write_temp("headerless", "{\"t_ns\":1,\"stage\":\"netsim.tx\"}\n");
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(trace.schema, None);
        assert_eq!(trace.events.len(), 1);
    }

    #[test]
    fn malformed_line_is_reported_with_its_number() {
        let path = write_temp("bad", "{\"t_ns\":1,\"stage\":\"a\"}\nnot json\n");
        let err = load_trace(&path).expect_err("bad line");
        std::fs::remove_file(&path).ok();
        assert!(err.contains(":2:"), "error does not name line 2: {err}");
    }

    #[test]
    fn summary_counts_stages_and_uses_chunk_timing() {
        let path = write_temp("summary", SMALL_TRACE);
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let text = summary(&trace);
        assert!(text.contains("detect.iter"), "{text}");
        assert!(text.contains("campaign.chunk"), "{text}");
        assert!(text.contains("trials observed: 1"), "{text}");
    }

    #[test]
    fn modified_z_flags_a_gross_outlier() {
        let mut values: Vec<f64> = (1..=20).map(f64::from).collect();
        values.push(1000.0);
        let z = modified_z(&values);
        assert!(z[20] > OUTLIER_Z, "z = {}", z[20]);
        assert!(z[0].abs() < OUTLIER_Z, "z = {}", z[0]);

        // Constant data has no spread, hence no outliers.
        assert!(modified_z(&[2.0; 8]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn resolve_prefers_explicit_path() {
        let path = resolve_trace_path(Some("/tmp/some.jsonl")).expect("explicit");
        assert_eq!(path, PathBuf::from("/tmp/some.jsonl"));
    }
}
