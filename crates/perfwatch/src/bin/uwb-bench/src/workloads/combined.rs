//! `combined_round`: the Fig. 8 combined RPM × pulse-shape round through
//! the whole protocol plane — netsim dispatch, CIR render, a 3-template
//! search-and-subtract with the MPC guard, slot decode — with a fresh
//! detector context per round, as the Table I / Fig. 8 experiments pay.

use concurrent_ranging::{CombinedScheme, ConcurrentConfig, RoundOutcome, SlotPlan};
use repro_bench::Deployment;
use uwb_campaign::derive_seed;
use uwb_channel::{ChannelModel, Point2};

use super::{plain_pass, same_tallies, stage_timer_pass, work_pass, Sizes, Tally, Workload};
use crate::trace::LayerTotals;

/// Fig. 8's recovery criterion: the estimate lies within one TX-grid
/// step (8 ns ≈ 1.3 m of round trip) of the true distance.
const RECOVERED_WITHIN_M: f64 = 1.3;

/// `combined_round`: `Deployment::run(config, 1, derive_seed(seed, i))`
/// on the Fig. 8 deployment — responders on a spiral around the
/// initiator, 4 RPM slots × 3 pulse shapes, `with_mpc_guard()`, free
/// space.
#[derive(Debug, Clone)]
pub struct CombinedRound {
    smoke: bool,
    responders: Vec<(Point2, u32)>,
}

/// What one round delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedOp {
    completed: bool,
    recovered: u64,
}

impl CombinedRound {
    /// Fig. 8's nine responders; the smoke run keeps the first one and
    /// drops the MPC guard's extra detections, a 10th of the cost.
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        let count = if smoke { 1 } else { 9 };
        let responders = (0..count)
            .map(|id: u32| {
                let angle = 0.7 * f64::from(id);
                let radius = 3.0 + 0.9 * f64::from(id);
                (Point2::new(radius * angle.cos(), radius * angle.sin()), id)
            })
            .collect();
        Self { smoke, responders }
    }
}

impl Workload for CombinedRound {
    type State = (Deployment, ConcurrentConfig);
    type Input = u64;
    type Raw = Vec<RoundOutcome>;
    type Output = CombinedOp;

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 0.0,
                trace_min_ops: 4,
            }
        } else {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 2.0,
                trace_min_ops: 10,
            }
        }
    }

    fn build(&self) -> Self::State {
        let scheme = CombinedScheme::new(SlotPlan::new(4).expect("4 RPM slots"), 3)
            .expect("4 slots × 3 shapes");
        let deployment = Deployment {
            initiator: Point2::new(0.0, 0.0),
            responders: self.responders.clone(),
            scheme: scheme.clone(),
            channel: ChannelModel::free_space(),
        };
        let config = ConcurrentConfig::new(scheme);
        let config = if self.smoke {
            config
        } else {
            config.with_mpc_guard()
        };
        (deployment, config)
    }

    fn input(&self, seed: u64, op: u64) -> u64 {
        derive_seed(seed, op)
    }

    fn run(&self, (deployment, config): &mut Self::State, seed: u64) -> Vec<RoundOutcome> {
        deployment.run(config.clone(), 1, seed)
    }

    fn digest(&self, outcomes: Vec<RoundOutcome>) -> CombinedOp {
        let recovered = outcomes.first().map_or(0, |outcome| {
            self.responders
                .iter()
                .filter(|&&(position, id)| {
                    let truth = position.distance_to(Point2::new(0.0, 0.0));
                    outcome
                        .estimate_for(id)
                        .is_some_and(|e| (e.distance_m - truth).abs() < RECOVERED_WITHIN_M)
                })
                .count() as u64
        });
        CombinedOp {
            completed: outcomes.len() == 1,
            recovered,
        }
    }

    fn tally(&self, op: &CombinedOp) -> Tally {
        let responders = self.responders.len() as u64;
        Tally {
            rounds: 1,
            scored_rounds: u64::from(op.completed),
            outcomes: responders,
            misses: responders - op.recovered,
            ranges: op.recovered,
        }
    }

    /// Every op must complete its round.
    fn check(&self, _seed: u64, outputs: &[CombinedOp]) -> Result<(), String> {
        match outputs.iter().position(|op| !op.completed) {
            Some(op) => Err(format!("op {op}: the round did not complete")),
            None => Ok(()),
        }
    }

    /// Detection and rendering happen inside the protocol engine, so the
    /// breakdown comes from the stage-timer pass.
    fn trace(&self, seed: u64, ops: u64) -> Result<LayerTotals, String> {
        let mut totals = LayerTotals::default();
        let (outputs, _) = plain_pass(self, seed, ops, &mut totals, |_, _| {});
        self.check(seed, &outputs)?;
        let tallies: Vec<Tally> = outputs.iter().map(|op| self.tally(op)).collect();
        same_tallies("work", &tallies, &work_pass(self, seed, ops, &mut totals))?;
        same_tallies(
            "stage-timer",
            &tallies,
            &stage_timer_pass(self, seed, ops, &mut totals),
        )?;
        totals.tally = Tally::sum(&tallies);
        Ok(totals)
    }
}
