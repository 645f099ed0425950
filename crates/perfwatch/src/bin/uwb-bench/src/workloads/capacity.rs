//! `capacity_1500`: the Sect. VIII capacity round at N = 1500 through the
//! sharded world — event queue, frame fan-out, slot and shape decode —
//! with no DSP work at all. A DSP or detection change must leave it
//! unchanged.

use uwb_campaign::derive_seed;
use uwb_worldsim::{run_capacity, CapacityConfig, CapacityOutcome, CapacityStats};

use super::{plain_pass, same_tallies, work_pass, Sizes, Tally, Workload};
use crate::trace::LayerTotals;

/// `capacity_1500`: `run_capacity(CapacityConfig::paper(1500)
/// .with_threads(1).with_seed(derive_seed(seed, i)))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Capacity1500 {
    /// Tiny sizes (N = 64), for the smoke run.
    pub smoke: bool,
}

/// What one capacity run delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityOp {
    stats: CapacityStats,
    deferrals: u64,
}

impl Workload for Capacity1500 {
    type State = ();
    type Input = CapacityConfig;
    type Raw = CapacityOutcome;
    type Output = CapacityOp;

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 0.0,
                trace_min_ops: 8,
            }
        } else {
            Sizes {
                min_ops: 1000,
                scored_ops: 1000,
                trace_ops_per_s: 30.0,
                trace_min_ops: 100,
            }
        }
    }

    fn build(&self) {}

    fn input(&self, seed: u64, op: u64) -> CapacityConfig {
        let responders = if self.smoke { 64 } else { 1500 };
        CapacityConfig::paper(responders)
            .with_threads(1)
            .with_seed(derive_seed(seed, op))
    }

    fn run(&self, _: &mut (), config: CapacityConfig) -> CapacityOutcome {
        run_capacity(&config)
    }

    fn digest(&self, outcome: CapacityOutcome) -> CapacityOp {
        CapacityOp {
            stats: outcome.stats,
            deferrals: outcome.deferrals,
        }
    }

    fn tally(&self, op: &CapacityOp) -> Tally {
        let s = &op.stats;
        Tally {
            rounds: s.rounds,
            scored_rounds: s.rounds_ok,
            outcomes: s.frames_observed,
            misses: s.frames_observed - s.identified,
            ranges: s.identified,
        }
    }

    /// No cross-epoch causality deferral, and every round decodes its
    /// primary response window.
    fn check(&self, _seed: u64, outputs: &[CapacityOp]) -> Result<(), String> {
        for (i, op) in outputs.iter().enumerate() {
            if op.deferrals != 0 || op.stats.rounds_ok != op.stats.rounds {
                return Err(format!(
                    "op {i}: {} deferrals, {} of {} rounds decoded",
                    op.deferrals, op.stats.rounds_ok, op.stats.rounds
                ));
            }
        }
        Ok(())
    }

    /// The world's layers report through its epoch telemetry; the
    /// breakdown is op wall time against the epoch phases' wall time.
    fn trace(&self, seed: u64, ops: u64) -> Result<LayerTotals, String> {
        let mut totals = LayerTotals::default();
        let (outputs, wall_ns) = plain_pass(self, seed, ops, &mut totals, |outcome, t| {
            let telemetry = &outcome.telemetry;
            t.epoch_ns += telemetry.wall_ns_total() as f64;
            t.epochs += outcome.epochs;
            for record in telemetry.records() {
                t.events += record.events();
                t.deliveries += record.deliveries();
                t.txes += record.txes();
                t.queue_hwm = t.queue_hwm.max(record.queue_hwm());
            }
        });
        self.check(seed, &outputs)?;
        totals.round_ns = wall_ns;
        let tallies: Vec<Tally> = outputs.iter().map(|op| self.tally(op)).collect();
        same_tallies("work", &tallies, &work_pass(self, seed, ops, &mut totals))?;
        totals.tally = Tally::sum(&tallies);
        Ok(totals)
    }
}
