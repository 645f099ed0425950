//! Fig. 7 / Sect. VI — detection of overlapping responses.
//!
//! Two responders at the same distance (d₁ = d₂ = 4 m) reply concurrently;
//! the DW1000's delayed-TX truncation leaves a residual offset within
//! ±8 ns, and — as in the paper — only trials whose responses actually
//! overlap (offset within a pulse width) are scored. The paper reports the
//! search-and-subtract algorithm succeeding in 92.6 % of overlapping
//! trials vs 48 % for the threshold baseline.
//!
//! The trial body is an [`OverlapProgram`] — a
//! [`concurrent_ranging::RoundProgram`] over the shared pipeline layers —
//! so the same implementation runs under the [`uwb_campaign`] batch
//! engine ([`campaign`]: trials in parallel, per-trial seed derivation,
//! bit-identical for any worker count) and the streaming
//! [`RangingPipeline`] driver ([`run_streaming`]: one round at a time
//! through a long-lived warmed context, byte-identical to the batch).

use crate::scenarios::{synthesize_responses_into, tx_grid_offset_ns};
use crate::table::{fmt_f, Table};
use concurrent_ranging::detection::{
    SearchSubtractConfig, SearchSubtractDetector, ThresholdConfig, ThresholdDetector,
};
use concurrent_ranging::{DetectStage, RangingPipeline, RoundContext, RoundProgram};
use rand::Rng;
use std::fmt;
use uwb_campaign::{Campaign, Collect, TrialRng};
use uwb_radio::{Channel, PulseShape, RadioConfig, TcPgDelay};

/// Result of the overlap experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Report {
    /// Trials generated.
    pub total_trials: usize,
    /// Trials whose responses actually overlapped (scored).
    pub overlapping_trials: usize,
    /// Search-and-subtract success rate over overlapping trials.
    pub search_subtract_rate: f64,
    /// Threshold-baseline success rate over overlapping trials.
    pub threshold_rate: f64,
}

/// One trial's outcome: did the responses overlap, and which detectors
/// resolved both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapTrial {
    /// The responses' offset was within the overlap window.
    pub overlapped: bool,
    /// Search-and-subtract matched both truths with distinct peaks.
    pub search_subtract_ok: bool,
    /// The threshold baseline matched both truths with distinct peaks.
    pub threshold_ok: bool,
}

/// Exact (integer) tally of overlap trials — the campaign collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlapTally {
    total: u64,
    overlapping: u64,
    search_subtract_ok: u64,
    threshold_ok: u64,
}

impl Collect<OverlapTrial> for OverlapTally {
    fn record(&mut self, _trial: u64, outcome: OverlapTrial) {
        self.total += 1;
        self.overlapping += u64::from(outcome.overlapped);
        self.search_subtract_ok += u64::from(outcome.search_subtract_ok);
        self.threshold_ok += u64::from(outcome.threshold_ok);
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        self.overlapping += other.overlapping;
        self.search_subtract_ok += other.search_subtract_ok;
        self.threshold_ok += other.threshold_ok;
    }
}

impl From<OverlapTally> for Fig7Report {
    fn from(t: OverlapTally) -> Self {
        Fig7Report {
            total_trials: t.total as usize,
            overlapping_trials: t.overlapping as usize,
            search_subtract_rate: t.search_subtract_ok as f64 / t.overlapping.max(1) as f64,
            threshold_rate: t.threshold_ok as f64 / t.overlapping.max(1) as f64,
        }
    }
}

/// Success: every true response is matched by a distinct detected peak
/// within `tol_ns`.
fn matches_both(detected: &[f64], truth: &[f64], tol_ns: f64) -> bool {
    if detected.len() < truth.len() {
        return false;
    }
    let mut used = vec![false; detected.len()];
    'outer: for &t in truth {
        for (i, &d) in detected.iter().enumerate() {
            if !used[i] && (d - t).abs() <= tol_ns {
                used[i] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Runs `trials` concurrent-reply trials and scores the overlapping subset,
/// with the paper-matched default overlap window and success tolerance.
pub fn run(trials: usize, seed: u64) -> Fig7Report {
    let pulse = PulseShape::from_config(&RadioConfig::default());
    run_with(trials, seed, pulse.main_lobe_s() * 1e9, 0.75)
}

/// [`run`]'s campaign with an explicit worker count (0 = automatic),
/// returning the engine report (tally + wall-clock accounting).
pub fn run_campaign(
    trials: usize,
    seed: u64,
    threads: usize,
) -> uwb_campaign::CampaignReport<OverlapTally> {
    campaign_program(trials, seed, threads, &OverlapProgram::paper())
}

/// Like [`run`], with an explicit overlap-window (ns) — the pulse duration
/// `T_p` used both as the "actually overlapping" criterion and as the
/// threshold detector's scan window — and success tolerance (ns).
pub fn run_with(trials: usize, seed: u64, overlap_window_ns: f64, tol_ns: f64) -> Fig7Report {
    campaign(trials, seed, overlap_window_ns, tol_ns, 0)
        .collector
        .into()
}

/// The Fig. 7 trial body as a round program: detector stages plus the
/// experiment's scoring knobs. One instance serves every driver — the
/// batch campaign borrows it from the dispatcher thread, a streaming
/// [`RangingPipeline`] owns it.
#[derive(Debug)]
pub struct OverlapProgram {
    pulse: PulseShape,
    ss: DetectStage<SearchSubtractDetector>,
    th: DetectStage<ThresholdDetector>,
    overlap_window_ns: f64,
    tol_ns: f64,
}

impl OverlapProgram {
    /// A program with an explicit overlap window and success tolerance
    /// (both ns).
    ///
    /// # Panics
    ///
    /// Panics if the detectors cannot be constructed from the default
    /// radio configuration — a bug in the experiment definition.
    #[must_use]
    pub fn new(overlap_window_ns: f64, tol_ns: f64) -> Self {
        // The campaign scores responses only, so per-iteration diagnostics
        // capture is switched off: same verdicts, no magnitude-trace copies.
        let ss = SearchSubtractDetector::from_registers(
            &[TcPgDelay::DEFAULT],
            Channel::Ch7,
            SearchSubtractConfig {
                capture_diagnostics: false,
                ..SearchSubtractConfig::default()
            },
        )
        .expect("detector construction");
        let th = ThresholdDetector::new(ThresholdConfig {
            pulse_duration_s: overlap_window_ns * 1e-9,
            ..ThresholdConfig::default()
        })
        .expect("baseline construction");
        Self {
            pulse: PulseShape::from_config(&RadioConfig::default()),
            ss: DetectStage::new(ss),
            th: DetectStage::new(th),
            overlap_window_ns,
            tol_ns,
        }
    }

    /// The paper-matched program: overlap window = pulse main lobe,
    /// tolerance 0.75 ns.
    #[must_use]
    pub fn paper() -> Self {
        let pulse = PulseShape::from_config(&RadioConfig::default());
        Self::new(pulse.main_lobe_s() * 1e9, 0.75)
    }
}

impl RoundProgram for OverlapProgram {
    type Output = OverlapTrial;

    /// One Fig. 7 trial: draws the TX-grid offset, renders the
    /// two-response CIR into the context's scratch, and scores both
    /// detector stages. Outcomes are a pure function of `rng`'s seed —
    /// context reuse is bit-identical to fresh contexts.
    ///
    /// On a warm context with tracing off, an overlapped round makes 7
    /// allocations, 740 B (perfwatch `pipeline.round_stream`): the
    /// two-arrival list handed to the render stage (80 B), the
    /// search-and-subtract and threshold response vectors (208 B and
    /// 416 B), the two detected-delay lists (16 B each) and
    /// `matches_both`'s two match masks (2 B each). A round that
    /// returns before detection allocates nothing.
    fn run_round(&self, ctx: &mut RoundContext, _round: u64, rng: &mut TrialRng) -> OverlapTrial {
        let offset_ns = tx_grid_offset_ns(rng);
        if offset_ns.abs() >= self.overlap_window_ns {
            // Paper: only actually-overlapping trials are scored.
            return OverlapTrial {
                overlapped: false,
                search_subtract_ok: false,
                threshold_ok: false,
            };
        }
        let base_ns = 100.0 + rng.random::<f64>(); // sub-tap phase varies
        let amp2 = 0.7 + 0.6 * rng.random::<f64>();
        let truth = [base_ns, base_ns + offset_ns];
        synthesize_responses_into(
            &[(truth[0], 1.0, self.pulse), (truth[1], amp2, self.pulse)],
            30.0,
            ctx.cir_mut(),
            rng,
        );

        let ss_out = self.ss.detect_scratch(ctx, 2).expect("detection runs");
        let ss_taus: Vec<f64> = ss_out.responses.iter().map(|p| p.tau_s * 1e9).collect();
        let th_out = self.th.detect_scratch(ctx, 2).expect("baseline runs");
        let th_taus: Vec<f64> = th_out.iter().map(|p| p.tau_s * 1e9).collect();
        let search_subtract_ok = matches_both(&ss_taus, &truth, self.tol_ns);
        if !search_subtract_ok {
            // Post-mortem material for the paper's headline experiment: the
            // CIR, the detector's peaks, and the truth positions of a
            // misdetected overlap trial (subject to the flight quota).
            let cir = ctx.cir_mut();
            uwb_obs::flight_record(|| uwb_obs::CirSnapshot {
                reason: "misdetection",
                taps_re: cir.taps().iter().map(|z| z.re).collect(),
                taps_im: cir.taps().iter().map(|z| z.im).collect(),
                sample_period_s: cir.sample_period_s(),
                peaks: ss_out
                    .responses
                    .iter()
                    .map(|r| uwb_obs::SnapshotPeak {
                        tau_s: r.tau_s,
                        amplitude: r.amplitude.abs(),
                        shape: r.shape_index,
                    })
                    .collect(),
                truth_tau_s: truth.iter().map(|t| t * 1e-9).collect(),
            });
        }
        OverlapTrial {
            overlapped: true,
            search_subtract_ok,
            threshold_ok: matches_both(&th_taus, &truth, self.tol_ns),
        }
    }
}

/// The full campaign: like [`run_with`] plus an explicit worker count
/// (0 = automatic), returning the engine's report with the exact tally
/// and timing. The tally is bit-identical for any `threads` value.
pub fn campaign(
    trials: usize,
    seed: u64,
    overlap_window_ns: f64,
    tol_ns: f64,
    threads: usize,
) -> uwb_campaign::CampaignReport<OverlapTally> {
    campaign_program(
        trials,
        seed,
        threads,
        &OverlapProgram::new(overlap_window_ns, tol_ns),
    )
}

/// The batch driver: runs `program` under the campaign engine, one warmed
/// [`RoundContext`] per worker.
fn campaign_program(
    trials: usize,
    seed: u64,
    threads: usize,
    program: &OverlapProgram,
) -> uwb_campaign::CampaignReport<OverlapTally> {
    Campaign::new(trials as u64, seed)
        .threads(threads)
        .run_with_context(
            RoundContext::new,
            |ctx, trial, rng| program.run_round(ctx, trial, rng),
            OverlapTally::default(),
        )
}

/// The streaming driver: feeds the same rounds one at a time through a
/// single long-lived [`RangingPipeline`], deriving each round's RNG
/// exactly as the campaign engine does. The tally is byte-identical to
/// [`campaign`]'s at any worker count — the equivalence the
/// `pipeline_equivalence` suite pins.
pub fn run_streaming(
    trials: usize,
    seed: u64,
    overlap_window_ns: f64,
    tol_ns: f64,
) -> OverlapTally {
    let mut pipeline = RangingPipeline::new(OverlapProgram::new(overlap_window_ns, tol_ns));
    let mut tally = OverlapTally::default();
    for trial in 0..trials as u64 {
        let outcome = pipeline.feed_round(trial, &mut uwb_campaign::trial_rng(seed, trial));
        tally.record(trial, outcome);
    }
    tally
}

/// [`run_streaming`] with the paper-matched window and tolerance —
/// the streaming counterpart of [`run`] / [`run_campaign`].
pub fn run_streaming_paper(trials: usize, seed: u64) -> Fig7Report {
    let pulse = PulseShape::from_config(&RadioConfig::default());
    run_streaming(trials, seed, pulse.main_lobe_s() * 1e9, 0.75).into()
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7 / Sect. VI — overlapping responses (d1 = d2 = 4 m), {} of {} trials overlapped",
            self.overlapping_trials, self.total_trials
        )?;
        let mut t = Table::new(vec![
            "algorithm".into(),
            "success [%]".into(),
            "paper [%]".into(),
        ]);
        t.push(vec![
            "search & subtract".into(),
            fmt_f(self.search_subtract_rate * 100.0, 1),
            "92.6".into(),
        ]);
        t.push(vec![
            "threshold (Falsi et al.)".into(),
            fmt_f(self.threshold_rate * 100.0, 1),
            "48.0".into(),
        ]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_subtract_beats_threshold_on_overlap() {
        let report = run(400, 17);
        assert!(report.overlapping_trials > 50, "{report:?}");
        // The paper's qualitative result: S&S far ahead of the baseline.
        assert!(
            report.search_subtract_rate > 0.75,
            "S&S rate {}",
            report.search_subtract_rate
        );
        assert!(
            report.threshold_rate < 0.70,
            "threshold rate {}",
            report.threshold_rate
        );
        assert!(
            report.search_subtract_rate > report.threshold_rate + 0.2,
            "gap too small: {} vs {}",
            report.search_subtract_rate,
            report.threshold_rate
        );
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let window = PulseShape::from_config(&RadioConfig::default()).main_lobe_s() * 1e9;
        let one = campaign(300, 17, window, 0.75, 1);
        let four = campaign(300, 17, window, 0.75, 4);
        assert_eq!(one.collector, four.collector);
        let a: Fig7Report = one.collector.into();
        let b: Fig7Report = four.collector.into();
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn context_reuse_is_bit_identical_to_fresh_contexts() {
        let program = OverlapProgram::paper();
        let mut reused = RoundContext::new();
        for trial in 0..8u64 {
            let fresh = program.run_round(
                &mut RoundContext::new(),
                trial,
                &mut uwb_campaign::trial_rng(17, trial),
            );
            let warm =
                program.run_round(&mut reused, trial, &mut uwb_campaign::trial_rng(17, trial));
            assert_eq!(fresh, warm, "trial {trial}");
        }
    }

    #[test]
    fn streaming_matches_batch_campaign() {
        let window = PulseShape::from_config(&RadioConfig::default()).main_lobe_s() * 1e9;
        let streamed = run_streaming(64, 17, window, 0.75);
        let batch = campaign(64, 17, window, 0.75, 2).collector;
        assert_eq!(streamed, batch);
    }

    #[test]
    fn matcher_requires_distinct_peaks() {
        assert!(matches_both(&[10.0, 11.0], &[10.1, 10.9], 0.5));
        // One detected peak cannot satisfy two truths.
        assert!(!matches_both(&[10.0], &[10.0, 10.2], 0.5));
        assert!(!matches_both(&[10.0, 50.0], &[10.0, 12.0], 0.5));
    }
}
