//! The streaming driver: feed rounds one at a time through a long-lived
//! warmed [`RoundContext`].
//!
//! The batch planes (campaign chunks, worldsim epochs) amortize context
//! construction across a worker's whole slice. A deployed ranging
//! service sees rounds arrive *one at a time* — this driver gives that
//! shape the same warmed-context hot path: the first round pays plan
//! construction and buffer growth, later rounds reuse them. Neither the
//! driver nor a warm context allocates; a warm round allocates only
//! what the program builds and returns (perfwatch's
//! `pipeline.round_stream` row counts it for the Fig. 7 program).
//! Because context reuse is bit-identical to fresh contexts (the
//! plan-cache contract), a stream fed the per-round RNGs of a batch
//! campaign reproduces the batch output byte for byte.

use crate::pipeline::RoundContext;
use rand::rngs::StdRng;

/// One round of work expressed over the pipeline layers: what a driver
/// schedules.
///
/// Implementations run the stage chain against the provided context and
/// the round's dedicated RNG. The RNG is concrete (`StdRng`, the
/// workspace-wide trial RNG type) so programs stay dyn-compatible and a
/// driver can box heterogeneous programs.
///
/// The same program runs unchanged under every driver: the campaign
/// plane calls `run_round` from its worker closure (one context per
/// worker, rounds in chunk order), a [`RangingPipeline`] calls it on a
/// single long-lived context. Determinism is the program's obligation:
/// derive all randomness from `rng` and key any fault stream by
/// `round`, and the output is a pure function of `(round, rng seed)` —
/// independent of driver, thread count and arrival order.
pub trait RoundProgram {
    /// The per-round result.
    type Output;

    /// Runs one round against the context.
    fn run_round(&self, ctx: &mut RoundContext, round: u64, rng: &mut StdRng) -> Self::Output;
}

/// The streaming driver: a [`RoundProgram`] bound to one long-lived
/// [`RoundContext`].
///
/// ```
/// use rand::rngs::StdRng;
/// use concurrent_ranging::pipeline::{RangingPipeline, RoundContext, RoundProgram};
///
/// struct Echo;
/// impl RoundProgram for Echo {
///     type Output = u64;
///     fn run_round(&self, _ctx: &mut RoundContext, round: u64, _rng: &mut StdRng) -> u64 {
///         round * 2
///     }
/// }
///
/// let mut pipeline = RangingPipeline::new(Echo);
/// let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
/// assert_eq!(pipeline.feed_round(3, &mut rng), 6);
/// assert_eq!(pipeline.rounds_fed(), 1);
/// ```
#[derive(Debug)]
pub struct RangingPipeline<P> {
    program: P,
    ctx: RoundContext,
    rounds_fed: u64,
}

impl<P: RoundProgram> RangingPipeline<P> {
    /// A pipeline with a fresh default context (backend from the
    /// `UWB_DSP_BACKEND` environment knob).
    pub fn new(program: P) -> Self {
        Self::with_context(program, RoundContext::new())
    }

    /// A pipeline over an explicitly prepared context (pinned backend,
    /// pre-installed fault stream).
    pub fn with_context(program: P, ctx: RoundContext) -> Self {
        Self {
            program,
            ctx,
            rounds_fed: 0,
        }
    }

    /// Feeds one round through the warmed context and returns its
    /// result.
    ///
    /// Callers own round numbering and RNG derivation — to mirror a
    /// batch campaign, pass the campaign's round index and its
    /// per-trial RNG (`uwb_campaign::trial_rng(seed, round)`) and the
    /// stream is byte-identical to the batch output at any thread
    /// count.
    pub fn feed_round(&mut self, round: u64, rng: &mut StdRng) -> P::Output {
        self.rounds_fed += 1;
        self.program.run_round(&mut self.ctx, round, rng)
    }

    /// The program driven by this pipeline.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The long-lived context, read-only.
    pub fn context(&self) -> &RoundContext {
        &self.ctx
    }

    /// How many rounds this pipeline has processed.
    #[must_use]
    pub fn rounds_fed(&self) -> u64 {
        self.rounds_fed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A program that consumes RNG state, to check the driver threads
    /// the caller's RNG through untouched.
    struct Draw;
    impl RoundProgram for Draw {
        type Output = f64;
        fn run_round(&self, _ctx: &mut RoundContext, round: u64, rng: &mut StdRng) -> f64 {
            round as f64 + rng.random::<f64>()
        }
    }

    #[test]
    fn feed_round_counts_and_passes_rng_through() {
        let mut pipeline = RangingPipeline::new(Draw);
        let mut rng = StdRng::seed_from_u64(11);
        let mut reference = StdRng::seed_from_u64(11);
        let out = pipeline.feed_round(4, &mut rng);
        assert_eq!(out, 4.0 + reference.random::<f64>());
        assert_eq!(pipeline.rounds_fed(), 1);
        let _ = pipeline.feed_round(5, &mut rng);
        assert_eq!(pipeline.rounds_fed(), 2);
    }

    #[test]
    fn per_round_rngs_make_streams_order_independent_per_round() {
        // With one RNG per round (the campaign discipline), feeding the
        // same round twice into two pipelines yields identical results
        // regardless of what else each pipeline processed.
        let mut a = RangingPipeline::new(Draw);
        let mut b = RangingPipeline::new(Draw);
        let _ = a.feed_round(0, &mut StdRng::seed_from_u64(0));
        let ra = a.feed_round(9, &mut StdRng::seed_from_u64(9));
        let rb = b.feed_round(9, &mut StdRng::seed_from_u64(9));
        assert_eq!(ra, rb);
    }
}
