//! The context layer: one [`RoundContext`] owning every per-round
//! resource, replacing the ad-hoc threading of the same three concerns
//! (DSP plans, CIR scratch, fault stream) that each execution plane used
//! to do differently.

use crate::detection::DetectorContext;
use uwb_dsp::DspBackend;
use uwb_netsim::FaultInjector;
use uwb_radio::{Cir, Prf};

/// Everything one pipeline pass needs besides the round's inputs.
///
/// A context is built once per worker (campaign plane) or once per
/// stream ([`crate::pipeline::RangingPipeline`]) and reused across
/// rounds: the embedded [`DetectorContext`] carries the FFT plan cache,
/// kernel spectra and scratch buffers of the selected DSP backend, and
/// the CIR scratch is re-rendered in place — so every round after the
/// first runs the hot path without plan or buffer allocations (each
/// detection still returns its own response vector). Reuse is
/// bit-identical to a fresh context by the plan-cache contract.
///
/// The deterministic work-counter profiler needs no handle here: its
/// scope tree is thread-local and travels with whichever thread drives
/// the context (the campaign engine brackets chunks with
/// `uwb_obs::profile::scoped`; a streaming driver accumulates into the
/// ambient scope like any inline run).
#[derive(Debug)]
pub struct RoundContext {
    detector: DetectorContext,
    cir: Cir,
    injector: Option<FaultInjector>,
}

impl RoundContext {
    /// A fresh context for PRF-64 CIRs, with the DSP backend selected
    /// from the `UWB_DSP_BACKEND` environment knob.
    #[must_use]
    pub fn new() -> Self {
        Self::with_detector(DetectorContext::new())
    }

    /// A fresh context pinned to an explicit DSP backend (tests and
    /// backend-comparison harnesses; production paths use the
    /// environment knob).
    #[must_use]
    pub fn with_backend(backend: DspBackend) -> Self {
        Self::with_detector(DetectorContext::with_backend(backend))
    }

    fn with_detector(detector: DetectorContext) -> Self {
        Self {
            detector,
            cir: Cir::zeroed(Prf::Mhz64),
            injector: None,
        }
    }

    /// The DSP backend this context dispatches to.
    #[must_use]
    pub fn backend(&self) -> DspBackend {
        self.detector.backend()
    }

    /// The detection plans/buffers — what [`crate::detection::Detector`]
    /// implementations run against.
    pub fn detector_ctx(&mut self) -> &mut DetectorContext {
        &mut self.detector
    }

    /// The reusable CIR scratch buffer (render target).
    pub fn cir_mut(&mut self) -> &mut Cir {
        &mut self.cir
    }

    /// Splits the context into its detection and CIR halves, for stages
    /// that need the rendered CIR and the detector context at once.
    pub fn detect_parts(&mut self) -> (&mut DetectorContext, &mut Cir) {
        (&mut self.detector, &mut self.cir)
    }

    /// Installs the per-round receiver-side fault stream (SNR dips, CIR
    /// tap corruption). Decision streams are keyed by round inside the
    /// injector, so one injector serves the context's whole lifetime.
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The receiver-side fault stream, when one is installed.
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// True when a receiver-side fault stream is installed.
    #[must_use]
    pub fn has_injector(&self) -> bool {
        self.injector.is_some()
    }
}

impl Default for RoundContext {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_has_no_injector() {
        let mut ctx = RoundContext::new();
        assert!(!ctx.has_injector());
        assert!(ctx.injector_mut().is_none());
    }

    #[test]
    fn backend_pin_is_respected() {
        let ctx = RoundContext::with_backend(DspBackend::ScalarF64);
        assert_eq!(ctx.backend(), DspBackend::ScalarF64);
    }

    #[test]
    fn split_borrows_both_halves() {
        let mut ctx = RoundContext::new();
        let (det, cir) = ctx.detect_parts();
        let _ = det;
        assert!(cir.taps().iter().all(|t| t.re == 0.0 && t.im == 0.0));
    }
}
