//! # uwb-worldsim — city-scale sharded simulation of concurrent ranging
//!
//! The sequential [`uwb_netsim::Simulator`] models one room; this crate
//! models a city block: the 2-D world is partitioned into spatial cells
//! ([`CellGrid`]), each cell's nodes and events live in their own shard,
//! and shards advance in parallel on `std::thread` workers between
//! deterministic *epoch barriers*. Cross-shard traffic (transmissions)
//! is merged at each barrier in shard index order — the same
//! chunk-ordered-merge discipline `uwb-campaign` uses — so results are
//! **bit-identical at any thread count and any cell layout**.
//!
//! The physics (clocks, frames, channel, capture, faults) is shared with
//! `uwb-netsim` by construction: node and frame models are re-exported,
//! not forked, and every random decision derives from the world seed per
//! use-site ([`site_rng`]) rather than from a draw-order-dependent
//! stream.
//!
//! The flagship scenario is [`run_capacity`]: thousands of responders
//! answering one poll in RPM slot `f(ID)` with pulse shape `g(ID)`,
//! probing the paper's Sect. VIII capacity claim
//! `N_max = N_RPM · N_PS ≈ 1500`.
//!
//! # Examples
//!
//! ```
//! use uwb_worldsim::{run_capacity, CapacityConfig};
//!
//! let outcome = run_capacity(&CapacityConfig::paper(8).with_seed(3));
//! assert_eq!(outcome.stats.responses_sent, 8);
//! assert_eq!(outcome.stats.rounds_ok, 1);
//! assert_eq!(outcome.deferrals, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod capacity;
mod config;
mod engine;
mod grid;
mod rng;
mod shard;

pub use api::{NodeCtx, WorldProtocol, WorldReception};
pub use capacity::{run_capacity, CapacityConfig, CapacityMsg, CapacityOutcome, CapacityStats};
pub use config::{WorldConfig, DEFAULT_EPOCH_S, WORLDSIM_THREADS_ENV};
pub use engine::WorldSim;
pub use grid::CellGrid;
pub use rng::{
    site_key, site_rng, DOMAIN_FRAME_TIME, DOMAIN_PROPAGATION, DOMAIN_RX_NOISE, DOMAIN_SCENARIO,
    DOMAIN_SHAPE_OBS,
};
// Shared substrate, re-exported rather than forked: worldsim worlds are
// described with the exact node/clock/frame models the sequential
// simulator uses.
pub use uwb_netsim::{
    ClockModel, NodeConfig, NodeId, ReceivedFrame, Reception, SimConfig, TraceEvent,
};
// Telemetry vocabulary, re-exported so scenario consumers (bench, CLI
// tools) can speak the epoch-telemetry types without a direct obs dep.
pub use uwb_obs::telemetry::{EpochRecord, EpochTelemetry, ShardEpochStats};

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_channel::ChannelModel;
    use uwb_radio::DeviceTime;

    /// Node 0 pings once; every listener logs what it heard.
    struct Ping;
    #[derive(Default)]
    struct PingState {
        heard: Vec<(NodeId, u64)>,
    }
    impl WorldProtocol for Ping {
        type Payload = u32;
        type NodeState = PingState;
        fn on_start(&self, node: NodeId, _st: &mut PingState, ctx: &mut NodeCtx<u32>) {
            if node == NodeId(0) {
                let at = ctx.device_now().wrapping_add_dtu(1 << 24);
                ctx.transmit_at(at, 42, 14);
            }
        }
        fn on_reception(
            &self,
            _node: NodeId,
            st: &mut PingState,
            rec: &WorldReception<u32>,
            _ctx: &mut NodeCtx<u32>,
        ) {
            let f = rec.reception.decoded().expect("decodable");
            st.heard.push((f.src, u64::from(f.payload)));
        }
        fn on_timer(&self, _: NodeId, _: &mut PingState, _: u64, _: &mut NodeCtx<u32>) {}
    }

    fn world(width: f64, cell: f64) -> WorldSim<Ping> {
        WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(width, cell, cell).with_seed(9),
        )
    }

    #[test]
    fn cross_shard_ping_arrives() {
        // Two nodes in different 10 m cells: the frame must cross the
        // shard boundary through the calendar.
        let mut w = world(40.0, 10.0);
        assert_eq!(w.shard_count(), 4);
        w.add_node(NodeConfig::at(5.0, 5.0), PingState::default());
        let b = w.add_node(NodeConfig::at(15.0, 5.0), PingState::default());
        w.run(&Ping, 1.0);
        assert_eq!(w.with_state(b, |s| s.heard.clone()), vec![(NodeId(0), 42)]);
        assert!(w.epochs() >= 1);
        assert_eq!(w.deferrals(), 0, "margins exceed the epoch length");
    }

    #[test]
    fn same_world_any_layout_same_receptions() {
        // One cell vs sixteen cells: identical node placement must give
        // identical reception logs — the layout-invariance contract.
        let run = |cell_m: f64| {
            let mut w = world(40.0, cell_m);
            w.add_node(NodeConfig::at(5.0, 5.0), PingState::default());
            let b = w.add_node(NodeConfig::at(35.0, 5.0), PingState::default());
            let c = w.add_node(NodeConfig::at(22.0, 8.0), PingState::default());
            w.run(&Ping, 1.0);
            (
                w.with_state(b, |s| s.heard.clone()),
                w.with_state(c, |s| s.heard.clone()),
                w.node_ledger(b),
            )
        };
        assert_eq!(run(40.0), run(10.0));
    }

    #[test]
    fn rx_gating_silences_a_node() {
        struct DeafPing;
        impl WorldProtocol for DeafPing {
            type Payload = u32;
            type NodeState = PingState;
            fn on_start(&self, node: NodeId, _st: &mut PingState, ctx: &mut NodeCtx<u32>) {
                if node == NodeId(0) {
                    // Fire well after the listener's gate closes (epoch
                    // boundary).
                    let at = ctx.device_now().wrapping_add_seconds(1e-3).unwrap();
                    ctx.transmit_at(at, 7, 14);
                } else {
                    ctx.rx_enable(false);
                }
            }
            fn on_reception(
                &self,
                _n: NodeId,
                st: &mut PingState,
                rec: &WorldReception<u32>,
                _c: &mut NodeCtx<u32>,
            ) {
                st.heard
                    .push((rec.reception.node, rec.reception.frames.len() as u64));
            }
            fn on_timer(&self, _: NodeId, _: &mut PingState, _: u64, _: &mut NodeCtx<u32>) {}
        }
        let mut w: WorldSim<DeafPing> = WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(20.0, 20.0, 20.0).with_seed(3),
        );
        w.add_node(NodeConfig::at(1.0, 1.0), PingState::default());
        let b = w.add_node(NodeConfig::at(6.0, 1.0), PingState::default());
        w.run(&DeafPing, 1.0);
        assert!(w.with_state(b, |s| s.heard.is_empty()));
        // The gated receiver was never charged RX energy for the frame.
        assert_eq!(w.node_ledger(b).rx_s, 0.0);
    }

    #[test]
    fn comm_range_limits_fan_out() {
        let mut w: WorldSim<Ping> = WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(100.0, 10.0, 10.0)
                .with_seed(4)
                .with_comm_range(20.0),
        );
        w.add_node(NodeConfig::at(5.0, 5.0), PingState::default());
        let near = w.add_node(NodeConfig::at(15.0, 5.0), PingState::default());
        let far = w.add_node(NodeConfig::at(95.0, 5.0), PingState::default());
        w.run(&Ping, 1.0);
        assert_eq!(w.with_state(near, |s| s.heard.len()), 1);
        assert_eq!(w.with_state(far, |s| s.heard.len()), 0);
    }

    #[test]
    fn epochs_are_activity_proportional() {
        // Two events ~0.5 s apart must not cost 5000 hundred-µs epochs.
        struct TwoShots;
        impl WorldProtocol for TwoShots {
            type Payload = u32;
            type NodeState = PingState;
            fn on_start(&self, node: NodeId, _st: &mut PingState, ctx: &mut NodeCtx<u32>) {
                if node == NodeId(0) {
                    ctx.transmit_at(ctx.device_now().wrapping_add_dtu(1 << 24), 1, 14);
                    ctx.set_timer(0.5, 99);
                }
            }
            fn on_reception(
                &self,
                _: NodeId,
                _: &mut PingState,
                _: &WorldReception<u32>,
                _: &mut NodeCtx<u32>,
            ) {
            }
            fn on_timer(&self, _: NodeId, _: &mut PingState, _: u64, ctx: &mut NodeCtx<u32>) {
                ctx.transmit_at(ctx.device_now().wrapping_add_dtu(1 << 24), 2, 14);
            }
        }
        let mut w: WorldSim<TwoShots> = WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(20.0, 10.0, 10.0).with_seed(5),
        );
        w.add_node(NodeConfig::at(5.0, 5.0), PingState::default());
        w.add_node(NodeConfig::at(15.0, 5.0), PingState::default());
        w.run(&TwoShots, 1.0);
        assert!(w.epochs() < 20, "epochs = {}", w.epochs());
    }

    #[test]
    fn fault_counters_accumulate_across_shards() {
        use uwb_netsim::FaultPlan;
        let mut w: WorldSim<Ping> = WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(20.0, 10.0, 10.0).with_seed(7).with_sim(
                SimConfig::default().with_faults(FaultPlan::none().with_frame_loss(1.0).unwrap()),
            ),
        );
        w.add_node(NodeConfig::at(5.0, 5.0), PingState::default());
        let b = w.add_node(NodeConfig::at(15.0, 5.0), PingState::default());
        w.run(&Ping, 1.0);
        assert_eq!(w.with_state(b, |s| s.heard.len()), 0);
        assert_eq!(w.fault_stats().frames_lost, 1);
    }

    #[test]
    fn device_times_match_sequential_simulator_semantics() {
        // The cross-check anchoring "re-export, don't fork": one TX over
        // 30 m, ideal clocks — the receive timestamp must equal
        // TX + d/c within timestamp noise, as in netsim's own test.
        struct Capture;
        impl WorldProtocol for Capture {
            type Payload = u32;
            type NodeState = Vec<DeviceTime>;
            fn on_start(&self, node: NodeId, _st: &mut Vec<DeviceTime>, ctx: &mut NodeCtx<u32>) {
                if node == NodeId(0) {
                    ctx.transmit_at(ctx.device_now().wrapping_add_dtu(1 << 24), 0, 14);
                }
            }
            fn on_reception(
                &self,
                _n: NodeId,
                st: &mut Vec<DeviceTime>,
                rec: &WorldReception<u32>,
                _c: &mut NodeCtx<u32>,
            ) {
                st.push(rec.reception.rx_device_time);
            }
            fn on_timer(&self, _: NodeId, _: &mut Vec<DeviceTime>, _: u64, _: &mut NodeCtx<u32>) {}
        }
        let mut w2: WorldSim<Capture> = WorldSim::new(
            ChannelModel::free_space(),
            WorldConfig::new(40.0, 40.0, 40.0).with_seed(9),
        );
        w2.add_node(NodeConfig::at(0.0, 5.0), Vec::new());
        let b2 = w2.add_node(NodeConfig::at(30.0, 5.0), Vec::new());
        w2.run(&Capture, 1.0);
        let rx = w2.with_state(b2, |s| s[0]);
        let tx_s = ((1u64 << 24) as f64) * uwb_radio::DTU_SECONDS;
        let expected = tx_s + 30.0 / uwb_radio::SPEED_OF_LIGHT;
        assert!(
            (rx.as_seconds() - expected).abs() < 5.0 * uwb_netsim::DEFAULT_RX_TIMESTAMP_NOISE_S,
            "rx {} vs expected {}",
            rx.as_seconds(),
            expected
        );
    }
}
