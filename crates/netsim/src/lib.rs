//! # uwb-netsim — discrete-event simulation of UWB networks
//!
//! The distributed-systems substrate of the concurrent-ranging
//! reproduction: nodes with drifting local clocks exchange UWB frames over
//! a shared [`uwb_channel::ChannelModel`], with DW1000 hardware artefacts
//! (delayed-TX quantization, RX timestamp noise, preamble capture) applied
//! at the boundary — so protocol code written against [`Protocol`] +
//! [`NodeApi`] faces the same world the paper's firmware does.
//!
//! Key pieces:
//!
//! - [`EventQueue`]: deterministic discrete-event core (time order, FIFO
//!   tie-break).
//! - [`ClockModel`]: per-node offset + ppm drift; all protocol-visible
//!   times are local device times.
//! - [`Simulator`]: the medium — propagation through the channel model,
//!   merging of concurrent frames into single [`Reception`]s, energy
//!   accounting per node.
//!
//! # Examples
//!
//! ```
//! use uwb_netsim::{NodeApi, NodeConfig, Protocol, Reception, SimConfig, Simulator};
//! use uwb_channel::ChannelModel;
//!
//! struct Ping;
//! impl Protocol<&'static str> for Ping {
//!     fn on_start(&mut self, node: uwb_netsim::NodeId, api: &mut NodeApi<&'static str>) {
//!         if node.0 == 0 {
//!             let at = api.device_now().wrapping_add_dtu(1 << 20);
//!             api.transmit_at(at, "ping", 14);
//!         }
//!     }
//!     fn on_reception(&mut self, _n: uwb_netsim::NodeId,
//!                     r: &Reception<&'static str>, _api: &mut NodeApi<&'static str>) {
//!         assert_eq!(r.decoded().unwrap().payload, "ping");
//!     }
//!     fn on_timer(&mut self, _n: uwb_netsim::NodeId, _t: u64,
//!                 _api: &mut NodeApi<&'static str>) {}
//! }
//!
//! let mut sim = Simulator::new(ChannelModel::free_space(), SimConfig::default(), 7);
//! sim.add_node(NodeConfig::at(0.0, 0.0));
//! sim.add_node(NodeConfig::at(3.0, 0.0));
//! sim.run(&mut Ping, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
mod frame;
mod node;
mod sim;
pub mod trace;

pub use clock::ClockModel;
pub use event::EventQueue;
pub use frame::{capture_index, NodeId, ReceivedFrame, Reception};
pub use node::NodeConfig;
pub use sim::{
    NodeApi, Protocol, SimConfig, Simulator, CFO_NOISE_PPM, DEFAULT_RX_TIMESTAMP_NOISE_S,
    MERGE_WINDOW_S,
};
pub use trace::TraceEvent;
// The fault plane consumed by `SimConfig::with_faults`, re-exported so
// protocol crates need not depend on `uwb-faults` directly.
pub use uwb_faults::{FaultInjector, FaultPlan, FaultStats};
