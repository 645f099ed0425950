//! `uwb-bench compare A B`: the median of every (workload, metric) pair
//! in run set B against run set A, each delta checked against the
//! metric's bound.
//!
//! A run set is a file of result records, one JSON object per line, as
//! `--out` appends them. Exact metrics must also read the same in both
//! sets for every (seed, seconds) run the two sets share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use uwb_testkit::{parse_json, Json};

use crate::metrics::{spec, Better, END_TO_END, PER_LAYER};

/// One run, as read back from a record line.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a run set.
///
/// # Errors
///
/// The first malformed line, with its number.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_record(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

fn parse_record(line: &str) -> Result<Record, String> {
    let json = parse_json(line).map_err(|e| e.to_string())?;
    let field = |key: &str| json.get(key).ok_or(format!("missing {key}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, String>>()?;
    Ok(Record {
        workload: field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        seed: field("seed")?.as_u64().ok_or("seed is not an integer")?,
        seconds: field("seconds")?
            .as_u64()
            .ok_or("seconds is not an integer")?,
        metrics,
    })
}

/// The comparison table, and whether any bound was exceeded or any
/// exact metric changed.
#[must_use]
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "{:<17} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        let side = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect()
        };
        let (ra, rb) = (side(a), side(b));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            let (Some(ma), Some(mb)) = (uwb_obs::median(&va), uwb_obs::median(&vb)) else {
                continue;
            };
            let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
            let worse = match m.better {
                Better::Lower => delta,
                Better::Higher => -delta,
            };
            let exceeded = m.bound.is_some_and(|bound| worse > bound);
            let changed = if m.exact {
                exact_change(m.name, m.better, &ra, &rb)
            } else {
                None
            };
            let verdict = match (exceeded, changed, m.bound) {
                (true, _, _) => "EXCEEDED",
                (_, Some(_), _) => "CHANGED",
                (_, None, Some(_)) => "ok",
                (_, None, None) => "-",
            };
            // A gated metric that is a pure function of the seed may not
            // get worse at all on a seed both sets ran.
            failed |= exceeded || (m.bound.is_some() && changed == Some(true));
            let bound = m
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{workload:<17} {:<28} {ma:>14.6} {mb:>14.6} {:>+8.2}% {bound:>7}  {verdict}  (n = {}/{})",
                m.name,
                delta * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    (out, failed)
}

/// Whether a run present in both sets (same seed and seconds) reads
/// differently: `None` when none does, else `Some(any of them worse)`.
fn exact_change(name: &str, better: Better, a: &[Record], b: &[Record]) -> Option<bool> {
    let mut change = None;
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.seed == ra.seed && rb.seconds == ra.seconds)
        {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(name), rb.metrics.get(name)) else {
                continue;
            };
            if va != vb {
                let worse = match better {
                    Better::Lower => vb > va,
                    Better::Higher => vb < va,
                };
                change = Some(change == Some(true) || worse);
            }
        }
    }
    change
}

/// The subcommand: exit code 0 when every bound holds, 1 when one is
/// exceeded or an exact metric changed, 2 on bad input.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: uwb-bench compare A.jsonl B.jsonl");
        return 2;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_records(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some(unknown) = a
        .iter()
        .chain(&b)
        .flat_map(|r| r.metrics.keys())
        .find(|name| spec(name).is_none())
    {
        eprintln!("unknown metric {unknown}");
        return 2;
    }
    let (table, failed) = compare(&a, &b);
    print!("{table}");
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            seconds: 10,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn parses_what_out_writes() {
        let line = r#"{"workload": "capacity_1500", "seed": 3, "seconds": 10, "trace": 0, "correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let records = parse_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], record("capacity_1500", 3, &[("setup_s", 0.5)]));
        assert!(parse_records("{\"workload\": 1}")
            .unwrap_err()
            .starts_with("line 1"));
    }

    #[test]
    fn flags_only_worsening_beyond_the_bound() {
        let a = [record(
            "w",
            1,
            &[("rounds_per_s", 100.0), ("latency_p50_ms", 2.0)],
        )];
        // Throughput down 5 % and latency down: within bounds.
        let b = [record(
            "w",
            1,
            &[("rounds_per_s", 95.0), ("latency_p50_ms", 1.0)],
        )];
        assert!(!compare(&a, &b).1);
        // Throughput down 30 %: beyond its 25 % bound.
        let c = [record("w", 1, &[("rounds_per_s", 70.0)])];
        let (table, failed) = compare(&a, &c);
        assert!(failed, "{table}");
        assert!(table.contains("EXCEEDED"));
    }

    #[test]
    fn exact_metrics_may_not_worsen_on_a_shared_seed() {
        let a = [record("w", 1, &[("success_rate", 0.8), ("work.ops", 10.0)])];
        // Within the 8 % bound, but a pure function of the seed got worse.
        let b = [record(
            "w",
            1,
            &[("success_rate", 0.79), ("work.ops", 10.0)],
        )];
        let (table, failed) = compare(&a, &b);
        assert!(failed && table.contains("CHANGED"), "{table}");
        // Better, or an ungated count moving: reported, not failed.
        let c = [record("w", 1, &[("success_rate", 0.9), ("work.ops", 12.0)])];
        let (table, failed) = compare(&a, &c);
        assert!(!failed && table.matches("CHANGED").count() == 2, "{table}");
        // Different seeds: only the bound applies.
        let d = [record("w", 2, &[("success_rate", 0.79)])];
        assert!(!compare(&a, &d).1);
    }
}
