//! The layered round pipeline: one implementation of the paper's
//! CIR-synthesis → detection → slot-decode → shape-classify → TWR-solve
//! chain, shared by every execution plane.
//!
//! Before this module the chain existed three times with drifting
//! copies: inside [`crate::ConcurrentEngine`] (the protocol plane), in
//! the Fig. 7 campaign worker (`repro-bench`), and in the worldsim
//! capacity scenario — which re-derived slot decoding with its own
//! predicted-anchor-arrival correction. The pipeline splits the chain
//! into three layers so new drivers (a ranging service, a localization
//! frontend) plug in without a fourth copy:
//!
//! | Layer | Types | Role |
//! |---|---|---|
//! | stage | [`RenderStage`], [`DetectStage`], [`SlotDecodeStage`], [`ShapeClassifyStage`], [`SolveStage`] | each paper technique exactly once |
//! | context | [`RoundContext`] | every per-round resource: detection plans/buffers, CIR scratch, fault stream |
//! | driver | [`RangingPipeline`] (streaming), `uwb_campaign::Campaign::run_with_context` (batch), worldsim epochs | scheduling only — no algorithm code |
//!
//! Determinism contract: the stages delegate to the exact primitives
//! the planes called before ([`uwb_channel::CirSynthesizer`],
//! [`crate::detection::Detector`], [`crate::SlotPlan::decode_slot`],
//! [`crate::TwrTimestamps`]) with the same floating-point operation
//! order and RNG draw discipline, so routing a plane through the
//! pipeline changes no output bit.

mod context;
mod stages;
mod streaming;

pub use context::RoundContext;
pub use stages::{
    DetectStage, RenderStage, ShapeClassifyStage, SlotDecodeStage, SlotReference, SolveStage,
};
pub use streaming::{RangingPipeline, RoundProgram};
