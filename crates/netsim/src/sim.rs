//! The discrete-event simulator.
//!
//! Orchestrates nodes, the shared radio medium and per-node clocks.
//! Protocol logic (SS-TWR, concurrent ranging) lives *outside* this crate,
//! implemented against the [`Protocol`] trait; the simulator faithfully
//! reproduces the physical-layer behaviours the paper's techniques have to
//! cope with:
//!
//! - scheduled transmissions land on the DW1000's ≈8 ns delayed-TX grid,
//! - frames from several responders arriving within one accumulation
//!   window merge into a single [`Reception`] with exactly one decodable
//!   payload (preamble capture) but *all* channel arrivals visible,
//! - RX timestamps carry Gaussian estimation noise and tick on the local
//!   (offset + drifting) clock,
//! - every transmit/receive second is charged to an energy ledger.

use crate::event::EventQueue;
use crate::frame::{capture_index, NodeId, ReceivedFrame, Reception};
use crate::node::{NodeConfig, SimNode};
use crate::trace::TraceEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uwb_channel::{random, ChannelModel};
use uwb_faults::{FaultInjector, FaultPlan, FaultStats};
use uwb_radio::{DeviceTime, EnergyLedger, FrameTiming, PulseShape, RadioState};

/// Default RX timestamp noise (σ, seconds). Calibrated so SS-TWR distance
/// estimates spread with σ_d ≈ 2.3 cm, the value the paper measures for the
/// default pulse shape (Sect. V: σ₁ = 0.0228 m).
pub const DEFAULT_RX_TIMESTAMP_NOISE_S: f64 = 0.107e-9;

/// Carrier-frequency-offset measurement noise σ in ppm (DW1000 carrier
/// integrator readings resolve relative clock offset to a fraction of a
/// ppm over one preamble).
pub const CFO_NOISE_PPM: f64 = 0.05;

/// Window within which frames arriving at one node merge into a single
/// reception: the CIR accumulator span, ≈1.017 µs.
pub const MERGE_WINDOW_S: f64 = 1016.0 * uwb_radio::CIR_SAMPLE_PERIOD_S;

/// Simulator-wide physical-layer options.
///
/// Construct with the chainable builder surface rather than struct
/// literals — every knob has a `with_*` setter:
///
/// ```
/// use uwb_faults::FaultPlan;
/// use uwb_netsim::SimConfig;
///
/// let config = SimConfig::default()
///     .with_min_decode_amplitude(1e-3)
///     .with_tx_quantization(false)
///     .with_faults(FaultPlan::none().with_frame_loss(0.1)?);
/// assert!(config.faults.is_active());
/// # Ok::<(), uwb_faults::FaultError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// RX timestamp estimation noise σ in seconds.
    pub rx_timestamp_noise_s: f64,
    /// Whether scheduled transmissions are truncated to the 8 ns hardware
    /// grid (disable to quantify the artefact's impact).
    pub tx_quantization: bool,
    /// Link budget: a frame whose strongest arrival falls below this
    /// amplitude cannot be decoded (and, if nothing in the window is
    /// decodable, the whole reception is lost — receiver sensitivity).
    /// 0.0 disables the limit.
    pub min_decode_amplitude: f64,
    /// The fault-injection plan executed by the simulator (frame loss,
    /// payload corruption, receiver dropout, TX jitter / late replies).
    /// [`FaultPlan::none`] — the default — is a bit-identical no-op.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            rx_timestamp_noise_s: DEFAULT_RX_TIMESTAMP_NOISE_S,
            tx_quantization: true,
            min_decode_amplitude: 0.0,
            faults: FaultPlan::none(),
        }
    }
}

impl SimConfig {
    /// Sets the RX timestamp estimation noise σ in seconds.
    #[must_use]
    pub fn with_rx_timestamp_noise(mut self, sigma_s: f64) -> Self {
        self.rx_timestamp_noise_s = sigma_s;
        self
    }

    /// Enables or disables the 8 ns delayed-TX hardware grid.
    #[must_use]
    pub fn with_tx_quantization(mut self, enabled: bool) -> Self {
        self.tx_quantization = enabled;
        self
    }

    /// Sets the receiver-sensitivity amplitude limit (0.0 disables it).
    #[must_use]
    pub fn with_min_decode_amplitude(mut self, amplitude: f64) -> Self {
        self.min_decode_amplitude = amplitude;
        self
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Commands a protocol can issue from a callback.
#[derive(Debug, Clone)]
enum Command<P> {
    TransmitAtDevice {
        desired: DeviceTime,
        payload: P,
        payload_bytes: usize,
    },
    SetTimer {
        delay_local_s: f64,
        token: u64,
    },
    RecordListen {
        duration_s: f64,
    },
}

/// The per-callback API handed to protocol code.
///
/// All times exposed here are *local device times* — protocol code sees
/// exactly what DW1000 firmware would see.
#[derive(Debug)]
pub struct NodeApi<P> {
    node: NodeId,
    device_now: DeviceTime,
    faults: FaultPlan,
    commands: Vec<Command<P>>,
}

impl<P> NodeApi<P> {
    /// The node this API belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's current device time.
    pub fn device_now(&self) -> DeviceTime {
        self.device_now
    }

    /// The simulator's fault plan. Protocol engines consult it for the
    /// receiver-side fault classes they model themselves (SNR dips, CIR
    /// tap corruption); the network-side classes are injected by the
    /// simulator directly.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Schedules a delayed transmission at a target device time (the
    /// DW1000 "delayed TX" feature). The hardware truncation to the 8 ns
    /// grid is applied by the simulator (unless disabled in [`SimConfig`]).
    /// The RMARKER leaves the antenna at the (truncated) target time.
    pub fn transmit_at(&mut self, desired: DeviceTime, payload: P, payload_bytes: usize) {
        self.commands.push(Command::TransmitAtDevice {
            desired,
            payload,
            payload_bytes,
        });
    }

    /// Starts a timer that fires after a local-clock delay.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite delays.
    pub fn set_timer(&mut self, delay_local_s: f64, token: u64) {
        assert!(
            delay_local_s.is_finite() && delay_local_s >= 0.0,
            "invalid timer delay {delay_local_s}"
        );
        self.commands.push(Command::SetTimer {
            delay_local_s,
            token,
        });
    }

    /// Charges explicit receiver-on listening time to the node's energy
    /// ledger (e.g. idle listening while waiting for responses).
    pub fn record_listen(&mut self, duration_s: f64) {
        self.commands.push(Command::RecordListen {
            duration_s: duration_s.max(0.0),
        });
    }
}

/// Protocol logic driven by the simulator.
///
/// Implementations hold all protocol state; the simulator calls back on
/// node start, frame reception and timer expiry.
pub trait Protocol<P: Clone> {
    /// Called once per node when the simulation starts.
    fn on_start(&mut self, node: NodeId, api: &mut NodeApi<P>);
    /// Called when a node's receiver closes an accumulation window.
    fn on_reception(&mut self, node: NodeId, reception: &Reception<P>, api: &mut NodeApi<P>);
    /// Called when a timer set via [`NodeApi::set_timer`] fires.
    fn on_timer(&mut self, node: NodeId, token: u64, api: &mut NodeApi<P>);
}

enum SimEvent<P> {
    Start(NodeId),
    TxFire {
        node: NodeId,
        tx_device: DeviceTime,
        payload: P,
        payload_bytes: usize,
    },
    Delivery {
        rx: NodeId,
        frame: ReceivedFrame<P>,
    },
    ReceptionClose {
        rx: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// The discrete-event network simulator.
///
/// Generic over the protocol payload type `P`.
pub struct Simulator<P> {
    channel: ChannelModel,
    config: SimConfig,
    nodes: Vec<SimNode>,
    queue: EventQueue<SimEvent<P>>,
    rng: StdRng,
    now_s: f64,
    rx_buffers: Vec<Vec<ReceivedFrame<P>>>,
    rx_window_open: Vec<bool>,
    rx_window_seq: Vec<u64>,
    injector: FaultInjector,
    tx_seq: u64,
    sched_seq: u64,
    trace: Vec<TraceEvent>,
}

impl<P: Clone> Simulator<P> {
    /// Creates a simulator over a channel model with a deterministic seed.
    pub fn new(channel: ChannelModel, config: SimConfig, seed: u64) -> Self {
        Self {
            channel,
            injector: FaultInjector::new(config.faults),
            trace: Vec::new(),
            config,
            nodes: Vec::new(),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            now_s: 0.0,
            rx_buffers: Vec::new(),
            rx_window_open: Vec::new(),
            rx_window_seq: Vec::new(),
            tx_seq: 0,
            sched_seq: 0,
        }
    }

    /// Adds a node, returning its identifier.
    pub fn add_node(&mut self, config: NodeConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(SimNode::new(config));
        self.rx_buffers.push(Vec::new());
        self.rx_window_open.push(false);
        self.rx_window_seq.push(0);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's configuration.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node id.
    pub fn node_config(&self, id: NodeId) -> &NodeConfig {
        &self.nodes[id.0 as usize].config
    }

    /// A node's energy ledger.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node id.
    pub fn node_ledger(&self, id: NodeId) -> &EnergyLedger {
        &self.nodes[id.0 as usize].ledger
    }

    /// Current global simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// The recorded trace, oldest event first.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The simulator's physical-layer configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Counters of the faults injected by the network layer so far
    /// (frame loss, payload corruption, dropouts, TX jitter / late
    /// replies). All-zero when the fault plan is disabled.
    pub fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// Runs the simulation: fires `on_start` for every node at t = 0, then
    /// processes events until the queue drains or `until_s` is reached.
    pub fn run<Pr: Protocol<P>>(&mut self, protocol: &mut Pr, until_s: f64) {
        for i in 0..self.nodes.len() {
            self.queue.push(0.0, SimEvent::Start(NodeId(i as u32)));
        }
        self.run_more(protocol, until_s);
    }

    /// Continues processing events without re-issuing `on_start` — allows
    /// staged scenarios (e.g. back-to-back ranging rounds).
    pub fn run_more<Pr: Protocol<P>>(&mut self, protocol: &mut Pr, until_s: f64) {
        while let Some((time, event)) = self.queue.pop_until(until_s) {
            debug_assert!(time >= self.now_s - 1e-12, "time went backwards");
            self.now_s = time;
            self.dispatch(event, protocol);
        }
    }

    fn dispatch<Pr: Protocol<P>>(&mut self, event: SimEvent<P>, protocol: &mut Pr) {
        match event {
            SimEvent::Start(node) => {
                let mut api = self.api_for(node);
                protocol.on_start(node, &mut api);
                self.apply_commands(node, api.commands);
            }
            SimEvent::TxFire {
                node,
                tx_device,
                payload,
                payload_bytes,
            } => self.fire_transmission(node, tx_device, payload, payload_bytes),
            SimEvent::Delivery { rx, frame } => {
                let idx = rx.0 as usize;
                self.rx_buffers[idx].push(frame);
                if !self.rx_window_open[idx] {
                    self.rx_window_open[idx] = true;
                    self.queue
                        .push(self.now_s + MERGE_WINDOW_S, SimEvent::ReceptionClose { rx });
                }
            }
            SimEvent::ReceptionClose { rx } => {
                if let Some(reception) = self.close_reception(rx) {
                    let event = TraceEvent::ReceptionEmitted {
                        node: rx,
                        global_s: self.now_s,
                        frames: reception.frames.len(),
                    };
                    event.forward_to_obs();
                    self.trace.push(event);
                    let mut api = self.api_for(rx);
                    protocol.on_reception(rx, &reception, &mut api);
                    self.apply_commands(rx, api.commands);
                }
            }
            SimEvent::Timer { node, token } => {
                let mut api = self.api_for(node);
                protocol.on_timer(node, token, &mut api);
                self.apply_commands(node, api.commands);
            }
        }
    }

    fn api_for(&self, node: NodeId) -> NodeApi<P> {
        let clock = self.nodes[node.0 as usize].config.clock;
        // A clock with a large negative offset reads "before power-on" at
        // early global times; the counter reports zero until it starts,
        // as hardware would.
        let device_now = clock.device_time_at(self.now_s).unwrap_or(DeviceTime::ZERO);
        NodeApi {
            node,
            device_now,
            faults: self.config.faults,
            commands: Vec::new(),
        }
    }

    fn apply_commands(&mut self, node: NodeId, commands: Vec<Command<P>>) {
        for cmd in commands {
            match cmd {
                Command::TransmitAtDevice {
                    desired,
                    payload,
                    payload_bytes,
                } => {
                    let actual = if self.config.tx_quantization {
                        desired.quantize_tx()
                    } else {
                        desired
                    };
                    let mut global = self.device_to_global(node, actual);
                    if self.injector.is_active() {
                        // TX jitter / late fire: the RMARKER leaves the
                        // antenna off-schedule while the embedded device
                        // timestamp keeps claiming the intended time —
                        // the fault the paper's RPM guard bands absorb
                        // (or fail to, when the reply is late enough).
                        let seq = self.sched_seq;
                        self.sched_seq += 1;
                        let delay = self.injector.tx_delay_s(node.0, seq);
                        if delay != 0.0 {
                            global = (global + delay).max(self.now_s);
                        }
                    }
                    self.queue.push(
                        global,
                        SimEvent::TxFire {
                            node,
                            tx_device: actual,
                            payload,
                            payload_bytes,
                        },
                    );
                }
                Command::SetTimer {
                    delay_local_s,
                    token,
                } => {
                    let clock = self.nodes[node.0 as usize].config.clock;
                    let global_delay = clock.true_duration(delay_local_s);
                    self.queue
                        .push(self.now_s + global_delay, SimEvent::Timer { node, token });
                }
                Command::RecordListen { duration_s } => {
                    self.nodes[node.0 as usize]
                        .ledger
                        .record(RadioState::Receive, duration_s);
                }
            }
        }
    }

    /// Maps a (wrapping) local device time to the next matching global
    /// time at or after "now" ([`ClockModel::next_device_occurrence`]).
    fn device_to_global(&self, node: NodeId, device: DeviceTime) -> f64 {
        self.nodes[node.0 as usize]
            .config
            .clock
            .next_device_occurrence(self.now_s, device)
    }

    fn fire_transmission(
        &mut self,
        node: NodeId,
        tx_device: DeviceTime,
        payload: P,
        payload_bytes: usize,
    ) {
        let tx_cfg = self.nodes[node.0 as usize].config;
        let airtime = FrameTiming::new(&tx_cfg.radio).frame_s(payload_bytes);
        self.nodes[node.0 as usize]
            .ledger
            .record(RadioState::Transmit, airtime);
        let event = TraceEvent::TxFired {
            node,
            global_s: self.now_s,
        };
        event.forward_to_obs();
        self.trace.push(event);

        let pulse = PulseShape::from_config(&tx_cfg.radio);
        let wavelength = tx_cfg.radio.channel.wavelength_m();
        self.tx_seq += 1;
        let tx_seq = self.tx_seq;
        for i in 0..self.nodes.len() {
            if i == node.0 as usize {
                continue;
            }
            // Per-link frame erasure: the receiver never sees the frame —
            // neither payload nor channel energy.
            if self.injector.lose_frame(tx_seq, node.0, i as u32) {
                continue;
            }
            let corrupted = self.injector.corrupt_payload(tx_seq, node.0, i as u32);
            let rx_pos = self.nodes[i].config.position;
            let arrivals =
                self.channel
                    .propagate(tx_cfg.position, rx_pos, pulse, wavelength, &mut self.rng);
            let Some(first) = arrivals.first() else {
                continue;
            };
            let delivery_time = self.now_s + first.delay_s;
            let frame = ReceivedFrame {
                src: node,
                src_seq: tx_seq,
                payload: payload.clone(),
                payload_bytes,
                decodable: false,
                corrupted,
                tx_device_time: tx_device,
                tx_rmarker_global_s: self.now_s,
                arrivals,
            };
            self.queue.push(
                delivery_time,
                SimEvent::Delivery {
                    rx: NodeId(i as u32),
                    frame,
                },
            );
        }
    }

    fn close_reception(&mut self, rx: NodeId) -> Option<Reception<P>> {
        let idx = rx.0 as usize;
        self.rx_window_open[idx] = false;
        self.rx_window_seq[idx] += 1;
        let window_seq = self.rx_window_seq[idx];
        let mut frames = std::mem::take(&mut self.rx_buffers[idx]);
        if frames.is_empty() {
            return None;
        }
        // Receiver dropout: the whole accumulation window is missed
        // (failed preamble acquisition) — the protocol never hears it.
        if self.injector.dropout(rx.0, window_seq) {
            return None;
        }
        // Capture arbitration (shared with `uwb-worldsim`): earliest
        // arriving preamble wins, ties break by amplitude, corrupted
        // frames cannot win.
        let best = capture_index(&frames, self.config.min_decode_amplitude)?;
        frames[best].decodable = true;

        let rx_true_global_s = frames[best].first_path_global_s();
        let clock = self.nodes[idx].config.clock;
        let noisy_local = clock.local_from_global(rx_true_global_s)
            + random::normal(&mut self.rng, 0.0, self.config.rx_timestamp_noise_s);
        let rx_device_time =
            DeviceTime::from_seconds(noisy_local.max(0.0)).unwrap_or(DeviceTime::ZERO);

        // Charge receive energy for the decoded frame's airtime.
        let airtime =
            FrameTiming::new(&self.nodes[idx].config.radio).frame_s(frames[best].payload_bytes);
        self.nodes[idx].ledger.record(RadioState::Receive, airtime);

        // Carrier frequency offset of the decoded sender relative to the
        // receiver: the ratio of clock rates, in ppm, plus readout noise.
        let tx_rate = self.nodes[frames[best].src.0 as usize].config.clock.rate();
        let rx_rate = clock.rate();
        let cfo_ppm =
            (tx_rate / rx_rate - 1.0) * 1e6 + random::normal(&mut self.rng, 0.0, CFO_NOISE_PPM);

        Some(Reception {
            node: rx,
            rx_device_time,
            rx_true_global_s,
            cfo_ppm,
            frames,
        })
    }
}

impl<P> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("now_s", &self.now_s)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockModel;
    use uwb_channel::ChannelModel;
    use uwb_radio::PAPER_RESPONSE_DELAY_S;

    /// A protocol where node 0 broadcasts once and everyone records what
    /// they saw.
    struct Broadcast {
        receptions: Vec<(NodeId, usize, DeviceTime)>,
    }

    impl Protocol<u32> for Broadcast {
        fn on_start(&mut self, node: NodeId, api: &mut NodeApi<u32>) {
            if node == NodeId(0) {
                let at = api.device_now().wrapping_add_dtu(1 << 20);
                api.transmit_at(at, 42, 14);
            }
        }
        fn on_reception(&mut self, node: NodeId, r: &Reception<u32>, _api: &mut NodeApi<u32>) {
            assert_eq!(r.decoded().unwrap().payload, 42);
            self.receptions
                .push((node, r.frames.len(), r.rx_device_time));
        }
        fn on_timer(&mut self, _node: NodeId, _token: u64, _api: &mut NodeApi<u32>) {}
    }

    fn free_space_sim(seed: u64) -> Simulator<u32> {
        Simulator::new(ChannelModel::free_space(), SimConfig::default(), seed)
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut sim = free_space_sim(1);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(5.0, 0.0));
        sim.add_node(NodeConfig::at(0.0, 7.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert_eq!(proto.receptions.len(), 2);
        // Sender does not hear itself.
        assert!(proto.receptions.iter().all(|(n, _, _)| *n != NodeId(0)));
    }

    #[test]
    fn propagation_delay_matches_distance() {
        let mut sim = free_space_sim(2);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(30.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        let (_, _, rx_t) = proto.receptions[0];
        // TX fired at device time 2^20 DTU (quantized: already on grid);
        // RX stamp ≈ TX + 30 m / c (both clocks ideal), ± timestamp noise.
        let tx_s = ((1u64 << 20) as f64) * uwb_radio::DTU_SECONDS;
        let expected = tx_s + 30.0 / uwb_radio::SPEED_OF_LIGHT;
        assert!((rx_t.as_seconds() - expected).abs() < 5.0 * DEFAULT_RX_TIMESTAMP_NOISE_S);
    }

    #[test]
    fn tx_quantization_snaps_to_grid() {
        struct OffGrid;
        impl Protocol<u32> for OffGrid {
            fn on_start(&mut self, node: NodeId, api: &mut NodeApi<u32>) {
                if node == NodeId(0) {
                    // 2^20 + 137 DTU: not on the 512-DTU grid.
                    api.transmit_at(DeviceTime::from_dtu((1 << 20) + 137), 1, 14);
                }
            }
            fn on_reception(&mut self, _: NodeId, r: &Reception<u32>, _: &mut NodeApi<u32>) {
                let f = r.decoded().unwrap();
                assert_eq!(f.tx_device_time.as_dtu() % 512, 0, "not on grid");
                assert_eq!(f.tx_device_time.as_dtu(), 1 << 20);
            }
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut NodeApi<u32>) {}
        }
        let mut sim = free_space_sim(3);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(5.0, 0.0));
        sim.run(&mut OffGrid, 1.0);
        assert!(matches!(sim.trace()[0], TraceEvent::TxFired { .. }));
    }

    #[test]
    fn concurrent_frames_merge_into_one_reception() {
        /// Node 0 broadcasts; nodes 1 and 2 reply after the paper's Δ_RESP;
        /// node 0 must see ONE reception containing BOTH responses.
        struct ConcurrentReply {
            initiator_receptions: Vec<usize>,
        }
        impl Protocol<u32> for ConcurrentReply {
            fn on_start(&mut self, node: NodeId, api: &mut NodeApi<u32>) {
                if node == NodeId(0) {
                    api.transmit_at(api.device_now().wrapping_add_dtu(1 << 20), 0, 14);
                }
            }
            fn on_reception(&mut self, node: NodeId, r: &Reception<u32>, api: &mut NodeApi<u32>) {
                if node == NodeId(0) {
                    self.initiator_receptions.push(r.transmitter_count());
                } else if r.decoded().map(|f| f.src) == Some(NodeId(0)) {
                    // Reply only to the initiator's INIT, not to the other
                    // responders' RESP frames.
                    let at = r
                        .rx_device_time
                        .wrapping_add_seconds(PAPER_RESPONSE_DELAY_S)
                        .unwrap();
                    api.transmit_at(at, node.0, 14);
                }
            }
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut NodeApi<u32>) {}
        }

        let mut sim = free_space_sim(4);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(4.0, 0.0));
        sim.add_node(NodeConfig::at(9.0, 0.0));
        let mut proto = ConcurrentReply {
            initiator_receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert_eq!(proto.initiator_receptions, vec![2]);
    }

    #[test]
    fn timers_fire_on_local_clock() {
        struct TimerProto {
            fired: Vec<(NodeId, u64)>,
        }
        impl Protocol<u32> for TimerProto {
            fn on_start(&mut self, _node: NodeId, api: &mut NodeApi<u32>) {
                api.set_timer(1e-3, 7);
            }
            fn on_reception(&mut self, _: NodeId, _: &Reception<u32>, _: &mut NodeApi<u32>) {}
            fn on_timer(&mut self, node: NodeId, token: u64, _: &mut NodeApi<u32>) {
                self.fired.push((node, token));
            }
        }
        let mut sim = free_space_sim(5);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(1.0, 0.0).with_clock(ClockModel::new(0.0, 50.0)));
        let mut proto = TimerProto { fired: Vec::new() };
        sim.run(&mut proto, 1.0);
        assert_eq!(proto.fired.len(), 2);
        assert!(proto.fired.contains(&(NodeId(0), 7)));
    }

    #[test]
    fn energy_ledger_charges_tx_and_rx() {
        let mut sim = free_space_sim(6);
        let a = sim.add_node(NodeConfig::at(0.0, 0.0));
        let b = sim.add_node(NodeConfig::at(5.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert!(sim.node_ledger(a).tx_s > 0.0);
        assert_eq!(sim.node_ledger(a).rx_s, 0.0);
        assert!(sim.node_ledger(b).rx_s > 0.0);
        assert_eq!(sim.node_ledger(b).tx_s, 0.0);
    }

    #[test]
    fn weak_frames_are_not_decodable() {
        // A link-budget limit drops receptions whose strongest arrival is
        // below the receiver sensitivity.
        // Far above any Friis amplitude.
        let config = SimConfig::default().with_min_decode_amplitude(1.0);
        let mut sim = Simulator::new(ChannelModel::free_space(), config, 44);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(60.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert!(proto.receptions.is_empty(), "nothing should decode");
    }

    #[test]
    fn cfo_measurement_reflects_relative_drift() {
        struct CfoProbe {
            cfo: Vec<f64>,
        }
        impl Protocol<u32> for CfoProbe {
            fn on_start(&mut self, node: NodeId, api: &mut NodeApi<u32>) {
                if node == NodeId(0) {
                    api.transmit_at(api.device_now().wrapping_add_dtu(1 << 20), 0, 14);
                }
            }
            fn on_reception(&mut self, _n: NodeId, r: &Reception<u32>, _api: &mut NodeApi<u32>) {
                self.cfo.push(r.cfo_ppm);
            }
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut NodeApi<u32>) {}
        }
        let mut sim = free_space_sim(45);
        sim.add_node(NodeConfig::at(0.0, 0.0).with_clock(ClockModel::new(0.0, 12.0)));
        sim.add_node(NodeConfig::at(5.0, 0.0).with_clock(ClockModel::new(0.0, -8.0)));
        let mut proto = CfoProbe { cfo: Vec::new() };
        sim.run(&mut proto, 1.0);
        // The receiver (node 1, −8 ppm) sees the sender (+12 ppm) as
        // ≈ +20 ppm fast, within readout noise.
        assert_eq!(proto.cfo.len(), 1);
        assert!((proto.cfo[0] - 20.0).abs() < 0.5, "cfo {}", proto.cfo[0]);
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical_to_default() {
        // FaultPlan::none() must be a true no-op: same trace, same noisy
        // timestamps, bit for bit — the acceptance criterion that lets
        // every existing experiment keep its outputs.
        let run = |config: SimConfig| {
            let mut sim = Simulator::new(ChannelModel::free_space(), config, 42);
            sim.add_node(NodeConfig::at(0.0, 0.0));
            sim.add_node(NodeConfig::at(5.0, 0.0));
            sim.add_node(NodeConfig::at(0.0, 7.0));
            let mut proto = Broadcast {
                receptions: Vec::new(),
            };
            sim.run(&mut proto, 1.0);
            (proto.receptions, sim.trace().to_vec())
        };
        let baseline = run(SimConfig::default());
        let with_noop_plan = run(SimConfig::default().with_faults(FaultPlan::none()));
        assert_eq!(baseline, with_noop_plan);
    }

    #[test]
    fn certain_frame_loss_erases_everything() {
        let config =
            SimConfig::default().with_faults(FaultPlan::none().with_frame_loss(1.0).unwrap());
        let mut sim = Simulator::new(ChannelModel::free_space(), config, 42);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(5.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert!(proto.receptions.is_empty());
        assert_eq!(sim.fault_stats().frames_lost, 1);
    }

    #[test]
    fn corrupted_payloads_cannot_decode_but_stats_count() {
        let config = SimConfig::default()
            .with_faults(FaultPlan::none().with_payload_corruption(1.0).unwrap());
        let mut sim = Simulator::new(ChannelModel::free_space(), config, 42);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(5.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        // All frames corrupted → nothing wins capture → no reception.
        assert!(proto.receptions.is_empty());
        assert_eq!(sim.fault_stats().payloads_corrupted, 1);
    }

    #[test]
    fn certain_dropout_loses_the_window() {
        let config = SimConfig::default()
            .with_faults(FaultPlan::none().with_responder_dropout(1.0).unwrap());
        let mut sim = Simulator::new(ChannelModel::free_space(), config, 42);
        sim.add_node(NodeConfig::at(0.0, 0.0));
        sim.add_node(NodeConfig::at(5.0, 0.0));
        let mut proto = Broadcast {
            receptions: Vec::new(),
        };
        sim.run(&mut proto, 1.0);
        assert!(proto.receptions.is_empty());
        assert_eq!(sim.fault_stats().dropouts, 1);
    }

    #[test]
    fn late_reply_shifts_the_rmarker_but_not_the_claimed_time() {
        // A certain late fire delays the TxFired global time by the
        // configured amount, while the receiver still sees the sender's
        // *intended* device timestamp in the payload metadata.
        let late = 400e-9;
        let run = |plan: FaultPlan| {
            let mut sim = Simulator::new(
                ChannelModel::free_space(),
                SimConfig::default().with_faults(plan),
                4,
            );
            sim.add_node(NodeConfig::at(0.0, 0.0));
            sim.add_node(NodeConfig::at(5.0, 0.0));
            let mut proto = Broadcast {
                receptions: Vec::new(),
            };
            sim.run(&mut proto, 1.0);
            let TraceEvent::TxFired { global_s, .. } = sim.trace()[0] else {
                panic!("expected TxFired first");
            };
            global_s
        };
        let on_time = run(FaultPlan::none());
        let delayed = run(FaultPlan::none().with_late_reply(1.0, late).unwrap());
        assert!(
            (delayed - on_time - late).abs() < 1e-12,
            "late fire moved TX by {} s, expected {late}",
            delayed - on_time
        );
    }

    #[test]
    fn fractional_loss_is_deterministic_per_seed() {
        let run = || {
            let config = SimConfig::default()
                .with_faults(FaultPlan::none().with_seed(9).with_frame_loss(0.5).unwrap());
            let mut sim = Simulator::new(ChannelModel::free_space(), config, 42);
            sim.add_node(NodeConfig::at(0.0, 0.0));
            for k in 0..6 {
                sim.add_node(NodeConfig::at(3.0 + k as f64, 0.0));
            }
            let mut proto = Broadcast {
                receptions: Vec::new(),
            };
            sim.run(&mut proto, 1.0);
            (proto.receptions.len(), sim.fault_stats().frames_lost)
        };
        let (a_rx, a_lost) = run();
        let (b_rx, b_lost) = run();
        assert_eq!((a_rx, a_lost), (b_rx, b_lost));
        assert!(a_lost > 0 && a_lost < 6, "lost {a_lost}/6");
        assert_eq!(a_rx as u64 + a_lost, 6);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = free_space_sim(seed);
            sim.add_node(NodeConfig::at(0.0, 0.0));
            sim.add_node(NodeConfig::at(5.0, 0.0));
            let mut proto = Broadcast {
                receptions: Vec::new(),
            };
            sim.run(&mut proto, 1.0);
            proto.receptions
        };
        assert_eq!(run(42), run(42));
        // Different seeds give different RX noise.
        let a = run(1)[0].2;
        let b = run(2)[0].2;
        assert_ne!(a, b);
    }
}
