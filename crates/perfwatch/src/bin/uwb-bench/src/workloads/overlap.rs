//! The Fig. 7 overlap workloads: one long-lived streaming pipeline
//! (`overlap_stream`) and 64-round batches on the campaign pool
//! (`overlap_campaign`). Both run `OverlapProgram::paper()` per round.

use concurrent_ranging::detection::{
    SearchSubtractConfig, SearchSubtractDetector, ThresholdConfig, ThresholdDetector,
};
use concurrent_ranging::{DetectStage, RangingPipeline, RenderStage, RoundContext};
use rand::Rng;
use repro_bench::experiments::fig7::{
    self, Fig7Report, OverlapProgram, OverlapTally, OverlapTrial,
};
use repro_bench::tx_grid_offset_ns;
use uwb_campaign::{derive_seed, trial_rng, CampaignReport, Collect, TrialRng};
use uwb_channel::{random::uniform_phase, Arrival};
use uwb_dsp::{Complex64, DspBackend};
use uwb_obs::ProfileNode;
use uwb_radio::{Channel, Prf, PulseShape, RadioConfig, TcPgDelay};

use super::{plain_pass, same_tallies, stage_timer_pass, work_pass, Sizes, Tally, Workload};
use crate::trace::{self, LayerTotals};

/// Fig. 7 success tolerance, ns.
const TOL_NS: f64 = 0.75;
/// CIR SNR of the Fig. 7 trials, dB below the stronger response.
const SNR_DB: f64 = 30.0;
/// Leading stream rounds checked against a batch campaign of the same
/// seed.
const CHECKED_ROUNDS: u64 = 256;
/// The paper's headline: search-and-subtract resolves overlapped
/// responses far more often than the threshold baseline.
const MIN_GAP: f64 = 0.2;
/// Overlapped rounds needed before [`MIN_GAP`] is checked. At 400 the
/// gap's sampling noise (σ ≈ 0.03) is far below its margin (≈ 0.14).
const MIN_GAP_ROUNDS: usize = 400;
/// Worker threads of one `overlap_campaign` batch.
const CAMPAIGN_THREADS: usize = 2;

fn window_ns() -> f64 {
    PulseShape::from_config(&RadioConfig::default()).main_lobe_s() * 1e9
}

fn pipeline() -> RangingPipeline<OverlapProgram> {
    RangingPipeline::with_context(
        OverlapProgram::paper(),
        RoundContext::with_backend(DspBackend::default()),
    )
}

fn tally_of(trial: &OverlapTrial) -> Tally {
    let scored = u64::from(trial.overlapped);
    let ok = u64::from(trial.overlapped && trial.search_subtract_ok);
    Tally {
        rounds: 1,
        scored_rounds: scored,
        outcomes: scored,
        misses: scored - ok,
        ranges: 2 * ok,
    }
}

/// `overlap_stream`: `RangingPipeline::feed_round(r, trial_rng(seed, r))`
/// on one long-lived `OverlapProgram::paper()` pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapStream {
    /// Tiny sizes, for the smoke run.
    pub smoke: bool,
}

impl Workload for OverlapStream {
    type State = RangingPipeline<OverlapProgram>;
    type Input = (u64, TrialRng);
    type Raw = OverlapTrial;
    type Output = OverlapTrial;

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 0.0,
                trace_min_ops: 24,
            }
        } else {
            Sizes {
                min_ops: 3000,
                scored_ops: 3000,
                trace_ops_per_s: 100.0,
                trace_min_ops: 256,
            }
        }
    }

    fn build(&self) -> Self::State {
        pipeline()
    }

    fn input(&self, seed: u64, op: u64) -> Self::Input {
        (op, trial_rng(seed, op))
    }

    fn run(&self, state: &mut Self::State, (round, mut rng): Self::Input) -> OverlapTrial {
        state.feed_round(round, &mut rng)
    }

    fn digest(&self, raw: OverlapTrial) -> OverlapTrial {
        raw
    }

    fn tally(&self, output: &OverlapTrial) -> Tally {
        tally_of(output)
    }

    /// The leading rounds must tally exactly as a 2-thread batch
    /// campaign of the same seed, and search-and-subtract must beat the
    /// threshold baseline by more than 0.2.
    fn check(&self, seed: u64, outputs: &[OverlapTrial]) -> Result<(), String> {
        let n = outputs.len().min(CHECKED_ROUNDS as usize);
        let mut streamed = OverlapTally::default();
        for (round, &trial) in outputs[..n].iter().enumerate() {
            streamed.record(round as u64, trial);
        }
        let batch = fig7::campaign(n, seed, window_ns(), TOL_NS, CAMPAIGN_THREADS).collector;
        if streamed != batch {
            return Err(format!(
                "the first {n} streamed rounds tally {streamed:?}; the batch campaign gives {batch:?}"
            ));
        }
        let overlapped: Vec<&OverlapTrial> = outputs.iter().filter(|t| t.overlapped).collect();
        if overlapped.len() < MIN_GAP_ROUNDS {
            return Ok(());
        }
        let rate = |ok: fn(&OverlapTrial) -> bool| {
            overlapped.iter().filter(|t| ok(t)).count() as f64 / overlapped.len() as f64
        };
        let (ss, th) = (rate(|t| t.search_subtract_ok), rate(|t| t.threshold_ok));
        if ss - th > MIN_GAP {
            Ok(())
        } else {
            Err(format!(
                "search-and-subtract {ss:.3} does not beat the threshold baseline {th:.3} by {MIN_GAP}"
            ))
        }
    }

    /// Each round runs twice: through `feed_round`, and rebuilt from
    /// public stage calls (`Decomposed`) so every layer call can be
    /// timed and its work captured. The two must agree on every verdict
    /// and every work counter.
    fn trace(&self, seed: u64, ops: u64) -> Result<LayerTotals, String> {
        let mut totals = LayerTotals::default();
        let mut pipeline = self.build();
        let mut decomposed = Decomposed::new();

        let mut parts = Parts::default();
        let mut outputs = Vec::new();
        for round in 0..ops {
            let (mut rng, mut same_rng) = (trial_rng(seed, round), trial_rng(seed, round));
            let trial =
                trace::count_allocs(&mut totals.allocs, || pipeline.feed_round(round, &mut rng));
            let rebuilt = trace::timed(&mut totals.round_ns, || {
                decomposed.round(&mut same_rng, &mut parts)
            })?;
            if rebuilt != trial {
                return Err(format!(
                    "round {round}: decomposition {rebuilt:?}, feed_round {trial:?}"
                ));
            }
            outputs.push(trial);
        }
        totals.ss_ns = parts.ss_ns;
        totals.threshold_ns = parts.threshold_ns;
        totals.render_ns = parts.render_ns;
        totals.renders = parts.renders;

        trace::with_profiler(|| {
            for round in 0..ops {
                let (trial, tree) = uwb_obs::profile::scoped(|| {
                    pipeline.feed_round(round, &mut trial_rng(seed, round))
                });
                let mut parts = Parts::default();
                let rebuilt = decomposed.round(&mut trial_rng(seed, round), &mut parts)?;
                if rebuilt != trial || parts.work != tree {
                    return Err(format!(
                        "round {round}: the decomposition counted {} work ops, feed_round {}",
                        parts.work.total_work(),
                        tree.total_work()
                    ));
                }
                trace::add_work(&tree, &mut totals.work);
            }
            Ok(())
        })?;

        self.check(seed, &outputs)?;
        totals.tally = Tally::sum(&outputs.iter().map(tally_of).collect::<Vec<_>>());
        Ok(totals)
    }
}

/// Time and work of one [`Decomposed`] round's layer calls.
#[derive(Debug, Default)]
struct Parts {
    render_ns: f64,
    ss_ns: f64,
    threshold_ns: f64,
    renders: u64,
    /// The calls' work trees, merged.
    work: ProfileNode,
}

/// Runs one layer call, timing it and capturing its work.
fn layer_call<T>(ns: &mut f64, work: &mut ProfileNode, f: impl FnOnce() -> T) -> T {
    let (out, tree) = trace::timed(ns, || uwb_obs::profile::scoped(f));
    work.merge_from(&tree);
    out
}

/// One Fig. 7 round rebuilt from public calls, mirroring
/// `OverlapProgram::run_round` draw for draw: `tx_grid_offset_ns`, two
/// `uniform_phase` arrivals rendered by `RenderStage::render_into`, and
/// `DetectStage::detect_scratch` for both detectors.
struct Decomposed {
    ctx: RoundContext,
    pulse: PulseShape,
    render: RenderStage,
    ss: DetectStage<SearchSubtractDetector>,
    th: DetectStage<ThresholdDetector>,
    window_ns: f64,
}

impl Decomposed {
    /// The stages `OverlapProgram::paper()` builds.
    fn new() -> Self {
        let window_ns = window_ns();
        let ss = SearchSubtractDetector::from_registers(
            &[TcPgDelay::DEFAULT],
            Channel::Ch7,
            SearchSubtractConfig {
                capture_diagnostics: false,
                ..SearchSubtractConfig::default()
            },
        )
        .expect("default search-and-subtract detector");
        let th = ThresholdDetector::new(ThresholdConfig {
            pulse_duration_s: window_ns * 1e-9,
            ..ThresholdConfig::default()
        })
        .expect("default threshold detector");
        Self {
            ctx: RoundContext::with_backend(DspBackend::default()),
            pulse: PulseShape::from_config(&RadioConfig::default()),
            render: RenderStage::new(Prf::Mhz64),
            ss: DetectStage::new(ss),
            th: DetectStage::new(th),
            window_ns,
        }
    }

    fn round(&mut self, rng: &mut TrialRng, parts: &mut Parts) -> Result<OverlapTrial, String> {
        let offset_ns = tx_grid_offset_ns(rng);
        if offset_ns.abs() >= self.window_ns {
            return Ok(OverlapTrial {
                overlapped: false,
                search_subtract_ok: false,
                threshold_ok: false,
            });
        }
        let base_ns = 100.0 + rng.random::<f64>();
        let amp2 = 0.7 + 0.6 * rng.random::<f64>();
        let truth = [base_ns, base_ns + offset_ns];
        let noise = 1.0f64.max(amp2) * 10f64.powf(-SNR_DB / 20.0);
        let pulse = self.pulse;
        let arrivals = [(truth[0], 1.0), (truth[1], amp2)].map(|(delay_ns, amp)| Arrival {
            delay_s: delay_ns * 1e-9,
            amplitude: Complex64::from_polar(amp, uniform_phase(rng)),
            pulse,
        });

        parts.renders += 1;
        let (render, cir) = (self.render, self.ctx.cir_mut());
        layer_call(&mut parts.render_ns, &mut parts.work, || {
            render.render_into(cir, &arrivals, noise, rng);
        });
        let ss = layer_call(&mut parts.ss_ns, &mut parts.work, || {
            self.ss.detect_scratch(&mut self.ctx, 2)
        })
        .map_err(|e| format!("search-and-subtract failed: {e}"))?;
        let th = layer_call(&mut parts.threshold_ns, &mut parts.work, || {
            self.th.detect_scratch(&mut self.ctx, 2)
        })
        .map_err(|e| format!("threshold baseline failed: {e}"))?;
        let ss_ns: Vec<f64> = ss.responses.iter().map(|p| p.tau_s * 1e9).collect();
        let th_ns: Vec<f64> = th.iter().map(|p| p.tau_s * 1e9).collect();
        Ok(OverlapTrial {
            overlapped: true,
            search_subtract_ok: matches_all(&ss_ns, &truth),
            threshold_ok: matches_all(&th_ns, &truth),
        })
    }
}

/// Fig. 7's success rule: every truth is matched by a distinct detected
/// peak within [`TOL_NS`].
fn matches_all(detected: &[f64], truth: &[f64]) -> bool {
    let mut used = vec![false; detected.len()];
    truth.iter().all(|&t| {
        match (0..detected.len()).find(|&i| !used[i] && (detected[i] - t).abs() <= TOL_NS) {
            Some(i) => {
                used[i] = true;
                true
            }
            None => false,
        }
    })
}

/// `overlap_campaign`: one `fig7::campaign(64, derive_seed(seed, i), …,
/// 2)` batch per op, each with cold per-worker contexts.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapCampaign {
    /// Tiny sizes, for the smoke run.
    pub smoke: bool,
}

/// One batch: its seed and exact tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    seed: u64,
    tally: OverlapTally,
}

impl OverlapCampaign {
    fn batch_rounds(&self) -> u64 {
        if self.smoke {
            2
        } else {
            64
        }
    }

    /// Replays every batch's rounds through streaming pipelines, one per
    /// thread, threads taking alternate batches, and checks each batch's
    /// tally. Returns the replay's wall time, ns.
    fn replay(&self, batches: &[Batch], threads: usize) -> Result<f64, String> {
        let mut ns = 0.0;
        trace::timed(&mut ns, || {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|first| scope.spawn(move || self.replay_share(batches, first, threads)))
                    .collect();
                workers
                    .into_iter()
                    .try_for_each(|w| w.join().expect("replay worker panicked"))
            })
        })?;
        Ok(ns)
    }

    /// Streams batches `first`, `first + step`, … through one pipeline.
    fn replay_share(&self, batches: &[Batch], first: usize, step: usize) -> Result<(), String> {
        let mut pipeline = pipeline();
        for (i, batch) in batches.iter().enumerate().skip(first).step_by(step) {
            let mut tally = OverlapTally::default();
            for round in 0..self.batch_rounds() {
                let trial = pipeline.feed_round(round, &mut trial_rng(batch.seed, round));
                tally.record(round, trial);
            }
            if tally != batch.tally {
                return Err(format!(
                    "batch {i}: the campaign tallied {:?}, a streamed replay {tally:?}",
                    batch.tally
                ));
            }
        }
        Ok(())
    }
}

impl Workload for OverlapCampaign {
    type State = ();
    type Input = u64;
    type Raw = (u64, CampaignReport<OverlapTally>);
    type Output = Batch;

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 0.0,
                trace_min_ops: 6,
            }
        } else {
            Sizes {
                min_ops: 100,
                scored_ops: 100,
                trace_ops_per_s: 1.5,
                trace_min_ops: 8,
            }
        }
    }

    fn threads(&self) -> usize {
        CAMPAIGN_THREADS
    }

    fn build(&self) {}

    fn input(&self, seed: u64, op: u64) -> u64 {
        derive_seed(seed, op)
    }

    fn run(&self, _: &mut (), batch_seed: u64) -> Self::Raw {
        let report = fig7::campaign(
            self.batch_rounds() as usize,
            batch_seed,
            window_ns(),
            TOL_NS,
            CAMPAIGN_THREADS,
        );
        (batch_seed, report)
    }

    fn digest(&self, (seed, report): Self::Raw) -> Batch {
        Batch {
            seed,
            tally: report.collector,
        }
    }

    fn tally(&self, batch: &Batch) -> Tally {
        let report = Fig7Report::from(batch.tally);
        let overlapped = report.overlapping_trials as u64;
        let ok = (report.search_subtract_rate * overlapped as f64).round() as u64;
        Tally {
            rounds: report.total_trials as u64,
            scored_rounds: overlapped,
            outcomes: overlapped,
            misses: overlapped - ok,
            ranges: 2 * ok,
        }
    }

    /// Every batch must tally exactly as a streamed replay of its seeds.
    fn check(&self, _seed: u64, outputs: &[Batch]) -> Result<(), String> {
        self.replay(outputs, CAMPAIGN_THREADS).map(|_| ())
    }

    /// The replay check runs on one thread here, so it doubles as the
    /// single-stream reference for `campaign.scaling_efficiency`.
    fn trace(&self, seed: u64, ops: u64) -> Result<LayerTotals, String> {
        let mut totals = LayerTotals::default();
        let (batches, batch_ns) = plain_pass(self, seed, ops, &mut totals, |_, _| {});
        let replay_ns = self.replay(&batches, 1)?;
        totals.scaling_efficiency = replay_ns / (CAMPAIGN_THREADS as f64 * batch_ns);
        let tallies: Vec<Tally> = batches.iter().map(|b| self.tally(b)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matcher_needs_a_distinct_peak_per_truth() {
        assert!(matches_all(&[10.0, 11.0], &[10.1, 10.9]));
        assert!(!matches_all(&[10.0], &[10.0, 10.2]));
        assert!(!matches_all(&[10.0, 50.0], &[10.0, 12.0]));
    }

    #[test]
    fn decomposition_matches_feed_round() {
        let mut pipeline = pipeline();
        let mut decomposed = Decomposed::new();
        for round in 0..12 {
            let trial = pipeline.feed_round(round, &mut trial_rng(5, round));
            let rebuilt = decomposed
                .round(&mut trial_rng(5, round), &mut Parts::default())
                .unwrap();
            assert_eq!(rebuilt, trial, "round {round}");
        }
    }
}
