//! The metric catalogue and the result line every run prints.
//!
//! `BENCHMARK.json` at the repository root restates these names, units,
//! directions and bounds for tools that run the benchmark; the
//! tables here are what the binary enforces.

use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, failure shares, work).
    Lower,
    /// Larger values are better (throughput, efficiency).
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the baseline median.
    /// `None` for per-layer metrics, which are explanatory, not gated.
    pub bound: Option<f64>,
    /// A pure function of the seed and run size: two runs with the same
    /// seed must report exactly the same value.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, exact: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact,
    }
}

/// The end-to-end metrics of an untraced run, in print order.
///
/// Each bound is 2.5 to 8 times the run-to-run spread (quartile distance
/// over median, ten seeds) measured on a shared 2-vCPU host, where
/// co-tenant load moves host speed by up to ±10 % for minutes at a time.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("rounds_per_s", "rounds/s", Better::Higher, 0.25),
    e2e("ranges_per_s", "ranges/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.25),
    MetricSpec {
        exact: true,
        ..e2e("success_rate", "ratio", Better::Higher, 0.08)
    },
];

/// The per-layer metrics of a traced run, in print order. Everything is
/// per ranging round unless the unit says otherwise; a layer the
/// workload never enters reads 0.
pub const PER_LAYER: [MetricSpec; 29] = [
    layer("dsp.fft_butterflies", "ops/round", true),
    layer("dsp.bluestein_cmuls", "ops/round", true),
    layer("dsp.conv_macs", "ops/round", true),
    layer("dsp.score_macs", "ops/round", true),
    layer("detect.ss_ms", "ms/round", false),
    layer("detect.iterations", "ops/round", true),
    layer("detect.template_evals", "ops/round", true),
    layer("detect.grid_macs", "ops/round", true),
    layer("detect.subtract_taps", "ops/round", true),
    layer("detect.iterations_per_range", "ratio", true),
    layer("detect.threshold_ms", "ms/round", false),
    layer("channel.render_ms", "ms/round", false),
    layer("channel.renders", "count/round", true),
    layer("pipeline.rpm_decodes", "ops/round", true),
    MetricSpec {
        better: Better::Higher,
        ..layer("campaign.scaling_efficiency", "ratio", false)
    },
    MetricSpec {
        better: Better::Higher,
        ..layer("campaign.scored_share", "ratio", true)
    },
    layer("worldsim.epoch_ms", "ms/round", false),
    layer("worldsim.build_ms", "ms/round", false),
    layer("worldsim.events", "count/round", true),
    layer("worldsim.deliveries", "count/round", true),
    layer("worldsim.txes", "count/round", true),
    layer("worldsim.epochs", "count/round", true),
    layer("worldsim.queue_hwm", "count", true),
    layer("worldsim.deliveries_per_tx", "ratio", true),
    layer("alloc.allocs", "allocs/round", false),
    layer("alloc.bytes", "bytes/round", false),
    layer("work.ops", "ops/round", true),
    layer("unattributed_ms", "ms/round", false),
    layer("trace.round_ms", "ms/round", false),
];

/// Looks a metric up by name in either table.
#[must_use]
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// A run's metric values, in catalogue order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(&'static MetricSpec, f64)>);

impl Metrics {
    /// The value of the named metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(m, _)| m.name == name).map(|(_, v)| *v)
    }

    /// Renders the `metrics` object of the result line. Values print
    /// with Rust's shortest round-trip formatting, so no digit is lost.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (m, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push('}');
        out
    }

    /// One aligned `name value unit` line per metric, for humans.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.0 {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
            let _ = writeln!(out, "  {:<30} {:>16.6} {}{bound}", m.name, v, m.unit);
        }
        out
    }
}

/// The result line: the last line a run prints to standard output. Only
/// a run whose outputs passed every check prints one, and no op of any
/// workload can fail without failing the run.
#[must_use]
pub fn result_line(attempted: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(
                m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{m:?}"
            );
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let metrics = Metrics(vec![(&END_TO_END[0], 0.812_734_5), (&END_TO_END[1], 1e-7)]);
        let line = result_line(12, &metrics);
        let json = uwb_testkit::parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|j| j.as_u64()), Some(12));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(|v| v.as_f64()),
            Some(0.812_734_5)
        );
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        let rate = json
            .get("metrics")
            .and_then(|m| m.get("rounds_per_s"))
            .unwrap();
        assert_eq!(rate.get("value").and_then(|v| v.as_f64()), Some(1e-7));
    }
}
