//! # uwb-radio — a behavioural model of the Decawave DW1000
//!
//! The ICDCS 2018 concurrent-ranging paper runs on DW1000 hardware; this
//! crate reproduces the *transceiver behaviours its algorithms depend on*,
//! so the rest of the workspace can run the same code paths without radios:
//!
//! - [`DeviceTime`]: the 40-bit, 15.65 ps-resolution timestamp counter,
//!   including the delayed-transmission truncation that quantizes scheduled
//!   sends to an ≈8 ns grid — the artefact that makes concurrent responses
//!   jitter against each other (paper, Sect. III/VI).
//! - [`TcPgDelay`]: the pulse-generator delay register behind the paper's
//!   pulse-shaping identification technique (Sect. V), with its 108 usable
//!   shapes.
//! - [`PulseShape`]: analytic band-limited transmit pulses whose width
//!   scales with the register value and inversely with channel bandwidth.
//! - [`RadioConfig`], [`FrameTiming`]: IEEE 802.15.4a PHY parameters and
//!   frame-part durations, reproducing the paper's 178.5 µs minimum and
//!   290 µs chosen response delay.
//! - [`Cir`]: the 1016-tap channel impulse response accumulator
//!   (`T_s ≈ 1.0016 ns`) that concurrent ranging reads responses from.
//! - [`EnergyModel`]: the 155 mA / 90 mA current-draw figures motivating
//!   the whole exercise.
//!
//! # Examples
//!
//! ```
//! use uwb_radio::{DeviceTime, FrameTiming, RadioConfig, TX_GRANULARITY_SECONDS};
//!
//! let timing = FrameTiming::new(&RadioConfig::default());
//! let delta_resp = uwb_radio::PAPER_RESPONSE_DELAY_S;
//! assert!(delta_resp > timing.min_response_delay_s(14));
//!
//! // A scheduled transmission lands on the 8 ns hardware grid.
//! let wanted = DeviceTime::from_seconds(0.001234567).unwrap();
//! let actual = wanted.quantize_tx();
//! assert!(wanted.wrapping_sub(actual) as f64 * uwb_radio::DTU_SECONDS
//!     < TX_GRANULARITY_SECONDS);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cir;
mod config;
mod energy;
mod error;
mod pulse;
mod registers;
mod time;
mod timing;

pub use cir::{Cir, CIR_SAMPLE_PERIOD_S};
pub use config::{Channel, DataRate, PreambleLength, Prf, RadioConfig};
pub use energy::{EnergyLedger, EnergyModel, RadioState};
pub use error::RadioError;
pub use pulse::{PulseShape, SampledPulse};
pub use registers::TcPgDelay;
pub use time::{
    meters_to_seconds, seconds_to_meters, DeviceTime, DTU_PER_SECOND, DTU_PICOSECONDS, DTU_SECONDS,
    TIMESTAMP_BITS, TIMESTAMP_MODULUS, TX_GRANULARITY_DTU, TX_GRANULARITY_SECONDS, TX_IGNORED_BITS,
};
pub use timing::{FrameTiming, PAPER_RESPONSE_DELAY_S, RX_TX_TURNAROUND_S};

/// Speed of light in vacuum, m/s — the propagation speed used for all
/// time-of-flight ↔ distance conversions (Eq. 2 and 4 of the paper).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;
