//! The simulation trace: a plain record of dispatch events.
//!
//! Every transmission and reception the simulator dispatches is recorded
//! as a [`TraceEvent`] in [`Simulator::trace`](crate::Simulator::trace),
//! oldest first. Tests and the Fig. 3 message-cost experiment assert
//! against it. Each event is also mirrored into the observability sink
//! ([`TraceEvent::forward_to_obs`]), which is where `--trace-out` files
//! come from; `uwb-worldsim` mirrors its window closes the same way.

use crate::frame::NodeId;

/// A line in the simulation trace, for debugging and assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A frame's RMARKER left a node's antenna.
    TxFired {
        /// Transmitting node.
        node: NodeId,
        /// Global time of the RMARKER, seconds.
        global_s: f64,
    },
    /// A reception window closed and was delivered to the protocol.
    ReceptionEmitted {
        /// Receiving node.
        node: NodeId,
        /// Global close time, seconds.
        global_s: f64,
        /// Number of frames merged into the window.
        frames: usize,
    },
}

impl TraceEvent {
    /// Mirrors this event into the shared observability sink (`netsim.tx`
    /// / `netsim.rx` stages) — the simulator's own trace stays the
    /// source of truth for in-test assertions, but post-mortem tooling
    /// sees dispatch alongside the pipeline stages. No-op when tracing is
    /// disabled.
    pub fn forward_to_obs(&self) {
        match *self {
            Self::TxFired { node, global_s } => {
                uwb_obs::event("netsim.tx", || {
                    vec![("node", node.0.into()), ("global_s", global_s.into())]
                });
            }
            Self::ReceptionEmitted {
                node,
                global_s,
                frames,
            } => {
                uwb_obs::event("netsim.rx", || {
                    vec![
                        ("node", node.0.into()),
                        ("global_s", global_s.into()),
                        ("frames", frames.into()),
                    ]
                });
            }
        }
    }
}
