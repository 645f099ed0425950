//! # concurrent-ranging — practical concurrent ranging with UWB radios
//!
//! A faithful implementation of *Großwindhager, Boano, Rath, Römer:
//! "Concurrent Ranging with Ultra-Wideband Radios: From Experimental
//! Evidence to a Practical Solution" (ICDCS 2018)*, running on a
//! physics-level DW1000 + indoor-channel + network simulator instead of
//! radio hardware.
//!
//! Classical two-way ranging needs `N·(N−1)` messages to measure all
//! distances in an `N`-node network. Concurrent ranging collapses this: an
//! initiator broadcasts one *INIT*, every responder replies *simultaneously*
//! after a fixed delay, and all responses appear as separable pulses in the
//! initiator's channel impulse response. This crate provides the four
//! techniques that turn the idea into a usable system:
//!
//! | Paper section | Module | Technique |
//! |---|---|---|
//! | Sect. IV | [`detection::SearchSubtractDetector`] | amplitude-independent response detection (search-and-subtract matched filtering) |
//! | Sect. V | [`detection::DetectionTemplate`] bank | responder identification via pulse shaping (`TC_PGDELAY`) |
//! | Sect. VI | [`detection::ThresholdDetector`] | overlap study vs. the threshold baseline |
//! | Sect. VII | [`SlotPlan`] | response position modulation |
//! | Sect. VIII | [`CombinedScheme`] | RPM × pulse shaping, `N_max = N_RPM·N_PS` |
//!
//! Protocol engines ([`SsTwrEngine`], [`ConcurrentEngine`]) run on
//! [`uwb_netsim::Simulator`] and face realistic artefacts: 8 ns delayed-TX
//! quantization, drifting clocks, RX timestamp noise, multipath and
//! preamble capture.
//!
//! # Examples
//!
//! One concurrent round with three responders:
//!
//! ```
//! use concurrent_ranging::{
//!     CombinedScheme, ConcurrentConfig, ConcurrentEngine, SlotPlan,
//! };
//! use uwb_channel::ChannelModel;
//! use uwb_netsim::{NodeConfig, SimConfig, Simulator};
//!
//! # fn main() -> Result<(), concurrent_ranging::RangingError> {
//! let scheme = CombinedScheme::new(SlotPlan::new(4)?, 1)?;
//! let mut sim = Simulator::new(ChannelModel::free_space(), SimConfig::default(), 1);
//! let initiator = sim.add_node(NodeConfig::at(0.0, 0.0));
//! let responders: Vec<_> = [3.0, 6.0, 10.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &x)| (sim.add_node(NodeConfig::at(x, 0.0)), i as u32))
//!     .collect();
//! let mut engine =
//!     ConcurrentEngine::new(initiator, responders, ConcurrentConfig::new(scheme), 1)?;
//! sim.run(&mut engine, 1.0);
//! let outcome = &engine.outcomes[0];
//! assert_eq!(outcome.estimates.len(), 3);
//! // The anchor distance is TWR-exact; the others carry the DW1000's
//! // ±8 ns delayed-TX truncation (≤ 1.2 m), which the paper declares a
//! // hardware limit (Sect. III).
//! assert!((outcome.estimates[0].distance_m - 3.0).abs() < 0.1);
//! assert!((outcome.estimates[2].distance_m - 10.0).abs() < 1.3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod concurrent;
pub mod detection;
mod error;
mod estimate;
pub(crate) mod localization;
pub mod pipeline;
mod protocol;
mod rpm;
mod session;
mod tracking;
mod twr;

pub use assignment::{CombinedScheme, ResponderAssignment};
pub use concurrent::{
    ConcurrentConfig, ConcurrentEngine, ResponderEstimate, ResponderHealth, ResponderStatus,
    RoundOutcome,
};
pub use error::RangingError;
pub use estimate::{concurrent_distance_m, concurrent_distance_with_rpm_m, TwrTimestamps};
pub use localization::{multilaterate, PositionFix, RangeToAnchor};
pub use pipeline::{
    DetectStage, RangingPipeline, RenderStage, RoundContext, RoundProgram, ShapeClassifyStage,
    SlotDecodeStage, SlotReference, SolveStage,
};
pub use protocol::{RangingMessage, INIT_PAYLOAD_BYTES, RESP_PAYLOAD_BYTES};
pub use rpm::{SlotPlan, DELTA_MAX_S};
pub use session::{RangingSession, ResponderStats, RoundSample};
pub use tracking::{PositionTracker, TrackState};
pub use twr::{SsTwrEngine, TwrMeasurement};
