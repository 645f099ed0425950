//! Per-cell simulation state and the fused epoch phase.
//!
//! A shard owns every node inside one spatial cell: their protocol
//! state, energy ledgers, receive buffers and a private [`EventQueue`]
//! of *local* events (deliveries, window closes, timers). The only
//! cross-shard traffic is transmissions: a TX scheduled by a callback
//! goes into the shard's outbox and is merged into the engine's global
//! calendar at the epoch barrier, then fanned out to every shard in a
//! later epoch.
//!
//! All randomness is drawn from per-use-site derived RNGs
//! ([`crate::rng`]), never from a shard-local stream — that is what
//! makes results independent of shard layout and thread count.

use crate::api::{NodeCtx, WorldCommand, WorldProtocol, WorldReception};
use crate::rng::{site_key, site_rng, DOMAIN_FRAME_TIME, DOMAIN_PROPAGATION, DOMAIN_RX_NOISE};
use uwb_channel::{random, ChannelModel, Point2};
use uwb_faults::FaultInjector;
use uwb_netsim::{
    capture_index, EventQueue, NodeConfig, NodeId, ReceivedFrame, Reception, TraceEvent,
    CFO_NOISE_PPM, MERGE_WINDOW_S,
};
use uwb_obs::telemetry::ShardEpochStats;
use uwb_obs::{fmt_trace_id, frame_trace_id, span_id, MetricsRegistry};
use uwb_radio::{DeviceTime, EnergyLedger, FrameTiming, PulseShape, RadioState};

/// A transmission committed by some shard, awaiting global fan-out.
///
/// Carries everything a *foreign* shard needs to deliver the frame —
/// including the sender's clock rate (for receiver-side CFO readings)
/// and pulse shape — so no cross-shard node access ever happens.
#[derive(Debug, Clone)]
pub(crate) struct PendingTx<P> {
    /// Global RMARKER time in seconds.
    pub fire_s: f64,
    /// Transmitting node.
    pub src: NodeId,
    /// The sender's per-node TX sequence number (fault keys, ordering).
    pub src_seq: u64,
    /// Claimed (quantized) device time embedded in the frame.
    pub tx_device: DeviceTime,
    /// Protocol payload.
    pub payload: P,
    /// Over-the-air payload length in bytes.
    pub payload_bytes: usize,
    /// Sender position.
    pub position: Point2,
    /// Sender pulse shape.
    pub pulse: PulseShape,
    /// Sender carrier wavelength in meters.
    pub wavelength_m: f64,
    /// Sender clock rate (1 + drift), for CFO synthesis at receivers.
    pub src_clock_rate: f64,
}

/// Events local to one shard.
enum LocalEvent<P> {
    Start {
        node: usize,
    },
    Delivery {
        rx: usize,
        frame: ReceivedFrame<P>,
        src_rate: f64,
    },
    ReceptionClose {
        rx: usize,
    },
    Timer {
        node: usize,
        token: u64,
    },
}

/// One node owned by a shard.
pub(crate) struct WorldNode<Pr: WorldProtocol> {
    pub config: NodeConfig,
    pub state: Pr::NodeState,
    pub ledger: EnergyLedger,
    rx_enabled: bool,
    pending_rx: Option<bool>,
    rx_buffer: Vec<(ReceivedFrame<Pr::Payload>, f64)>,
    window_open: bool,
    window_seq: u64,
    tx_seq: u64,
    sched_seq: u64,
}

/// Physics parameters a shard needs per epoch, borrowed from the engine.
pub(crate) struct ShardEnv<'a> {
    pub channel: &'a ChannelModel,
    pub sim: &'a uwb_netsim::SimConfig,
    pub world_seed: u64,
    pub comm_range_m: f64,
}

/// All simulation state owned by one spatial cell.
pub(crate) struct ShardState<Pr: WorldProtocol> {
    /// Global ids of the owned nodes, in insertion (= NodeId) order.
    pub ids: Vec<NodeId>,
    pub nodes: Vec<WorldNode<Pr>>,
    queue: EventQueue<LocalEvent<Pr::Payload>>,
    /// Per-shard clone of the fault plane: decisions are stateless
    /// hashes, so clones agree; only the *counters* are shard-local and
    /// merged in shard order by the engine.
    pub injector: FaultInjector,
    /// Obs metrics captured during this shard's epoch phases, merged
    /// into the caller's registry (in shard order) at the end of a run.
    pub metrics: MetricsRegistry,
    outbox: Vec<PendingTx<Pr::Payload>>,
    /// Windowed telemetry counters for the epoch currently running;
    /// reset by [`ShardState::run_epoch`] and returned at the barrier.
    stats: ShardEpochStats,
}

impl<Pr: WorldProtocol> ShardState<Pr> {
    pub fn new(injector: FaultInjector) -> Self {
        Self {
            ids: Vec::new(),
            nodes: Vec::new(),
            queue: EventQueue::new(),
            injector,
            metrics: MetricsRegistry::new(),
            outbox: Vec::new(),
            stats: ShardEpochStats::default(),
        }
    }

    pub fn add_node(&mut self, id: NodeId, config: NodeConfig, state: Pr::NodeState) {
        self.ids.push(id);
        self.nodes.push(WorldNode {
            config,
            state,
            ledger: EnergyLedger::new(),
            rx_enabled: true,
            pending_rx: None,
            rx_buffer: Vec::new(),
            window_open: false,
            window_seq: 0,
            tx_seq: 0,
            sched_seq: 0,
        });
    }

    /// Seeds the t = 0 `on_start` events for every owned node.
    pub fn seed_starts(&mut self) {
        for i in 0..self.nodes.len() {
            self.queue.push(0.0, LocalEvent::Start { node: i });
        }
    }

    /// Earliest pending local event time, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Runs one epoch: applies pending receiver toggles, fans this
    /// epoch's committed transmissions out to the owned nodes, then
    /// drains local events up to `epoch_end`. Returns the transmissions
    /// scheduled by callbacks during the epoch (the outbox) together
    /// with the shard's windowed telemetry counters — every count is a
    /// function of the shard's deterministic event stream, never of the
    /// worker thread that ran it.
    pub fn run_epoch(
        &mut self,
        protocol: &Pr,
        env: &ShardEnv<'_>,
        epoch_txes: &[PendingTx<Pr::Payload>],
        epoch_end: f64,
    ) -> (Vec<PendingTx<Pr::Payload>>, ShardEpochStats) {
        self.stats = ShardEpochStats::default();
        let faults_before = self.injector.stats().total();
        for node in &mut self.nodes {
            if let Some(enabled) = node.pending_rx.take() {
                node.rx_enabled = enabled;
            }
        }
        for tx in epoch_txes {
            self.fan_out(tx, env);
        }
        self.stats.queue_hwm = self.stats.queue_hwm.max(self.queue.len() as u64);
        while let Some((time, event)) = self.queue.pop_until(epoch_end) {
            self.stats.events += 1;
            self.dispatch(time, event, protocol, env);
            self.stats.queue_hwm = self.stats.queue_hwm.max(self.queue.len() as u64);
        }
        self.stats.txes = self.outbox.len() as u64;
        self.stats.faults = self.injector.stats().total() - faults_before;
        (std::mem::take(&mut self.outbox), self.stats)
    }

    /// Delivers one committed transmission to the owned nodes. The
    /// sender's shard — and only it — also charges TX energy and records
    /// the `world.tx` causal root span, the TX's one trace record.
    fn fan_out(&mut self, tx: &PendingTx<Pr::Payload>, env: &ShardEnv<'_>) {
        let frame_id = frame_trace_id(env.world_seed, tx.src.0, tx.src_seq);
        if let Some(local_src) = self.local_index(tx.src) {
            let airtime =
                FrameTiming::new(&self.nodes[local_src].config.radio).frame_s(tx.payload_bytes);
            self.nodes[local_src]
                .ledger
                .record(RadioState::Transmit, airtime);
            uwb_obs::event("world.tx", || {
                vec![
                    ("frame", fmt_trace_id(frame_id).into()),
                    ("span", fmt_trace_id(frame_id).into()),
                    ("node", tx.src.0.into()),
                    ("seq", tx.src_seq.into()),
                    ("global_s", tx.fire_s.into()),
                ]
            });
        }
        for i in 0..self.nodes.len() {
            if self.ids[i] == tx.src || !self.nodes[i].rx_enabled {
                continue;
            }
            let rx_pos = self.nodes[i].config.position;
            if env.comm_range_m > 0.0 && tx.position.distance_to(rx_pos) > env.comm_range_m {
                continue;
            }
            let dst = self.ids[i].0;
            if self.injector.lose_frame(tx.src_seq, tx.src.0, dst) {
                uwb_obs::event("world.drop", || {
                    vec![
                        ("frame", fmt_trace_id(frame_id).into()),
                        ("span", fmt_trace_id(span_id(frame_id, "drop", dst)).into()),
                        ("parent", fmt_trace_id(frame_id).into()),
                        ("node", dst.into()),
                        ("cause", "frame_loss".into()),
                        ("global_s", tx.fire_s.into()),
                    ]
                });
                continue;
            }
            let corrupted = self.injector.corrupt_payload(tx.src_seq, tx.src.0, dst);
            let mut prop_rng = site_rng(
                env.world_seed,
                DOMAIN_PROPAGATION,
                site_key(tx.src.0, tx.src_seq),
                u64::from(dst),
            );
            let arrivals = env.channel.propagate(
                tx.position,
                rx_pos,
                tx.pulse,
                tx.wavelength_m,
                &mut prop_rng,
            );
            let Some(first) = arrivals.first() else {
                continue;
            };
            let delivery_time = tx.fire_s + first.delay_s;
            let frame = ReceivedFrame {
                src: tx.src,
                src_seq: tx.src_seq,
                payload: tx.payload.clone(),
                payload_bytes: tx.payload_bytes,
                decodable: false,
                corrupted,
                tx_device_time: tx.tx_device,
                tx_rmarker_global_s: tx.fire_s,
                arrivals,
            };
            self.queue.push(
                delivery_time,
                LocalEvent::Delivery {
                    rx: i,
                    frame,
                    src_rate: tx.src_clock_rate,
                },
            );
        }
    }

    fn dispatch(
        &mut self,
        now_s: f64,
        event: LocalEvent<Pr::Payload>,
        protocol: &Pr,
        env: &ShardEnv<'_>,
    ) {
        match event {
            LocalEvent::Start { node } => {
                let mut ctx = self.ctx_for(node, now_s);
                protocol.on_start(self.ids[node], &mut self.nodes[node].state, &mut ctx);
                self.apply_commands(node, now_s, ctx.commands, env);
            }
            LocalEvent::Delivery {
                rx,
                frame,
                src_rate,
            } => {
                let rx_id = self.ids[rx].0;
                let fid = frame_trace_id(env.world_seed, frame.src.0, frame.src_seq);
                // A receiver gated off after the frame was launched still
                // misses it: the gate is checked both at fan-out and at
                // delivery, so an RX disable that took effect while the
                // frame was in flight drops it, as real turnaround would.
                if !self.nodes[rx].rx_enabled {
                    uwb_obs::event("world.drop", || {
                        vec![
                            ("frame", fmt_trace_id(fid).into()),
                            ("span", fmt_trace_id(span_id(fid, "drop", rx_id)).into()),
                            ("parent", fmt_trace_id(fid).into()),
                            ("node", rx_id.into()),
                            ("cause", "rx_gated_in_flight".into()),
                            ("global_s", now_s.into()),
                        ]
                    });
                    return;
                }
                let cross = self.local_index(frame.src).is_none();
                self.stats.deliveries += 1;
                if cross {
                    self.stats.cross_in += 1;
                }
                uwb_obs::event("world.deliver", || {
                    vec![
                        ("frame", fmt_trace_id(fid).into()),
                        ("span", fmt_trace_id(span_id(fid, "deliver", rx_id)).into()),
                        ("parent", fmt_trace_id(fid).into()),
                        ("node", rx_id.into()),
                        ("cross", cross.into()),
                        ("global_s", now_s.into()),
                    ]
                });
                self.nodes[rx].rx_buffer.push((frame, src_rate));
                if !self.nodes[rx].window_open {
                    self.nodes[rx].window_open = true;
                    self.queue
                        .push(now_s + MERGE_WINDOW_S, LocalEvent::ReceptionClose { rx });
                }
            }
            LocalEvent::ReceptionClose { rx } => {
                if let Some(reception) = self.close_reception(rx, now_s, env) {
                    let mut ctx = self.ctx_for(rx, now_s);
                    protocol.on_reception(
                        self.ids[rx],
                        &mut self.nodes[rx].state,
                        &reception,
                        &mut ctx,
                    );
                    self.apply_commands(rx, now_s, ctx.commands, env);
                }
            }
            LocalEvent::Timer { node, token } => {
                let mut ctx = self.ctx_for(node, now_s);
                protocol.on_timer(self.ids[node], &mut self.nodes[node].state, token, &mut ctx);
                self.apply_commands(node, now_s, ctx.commands, env);
            }
        }
    }

    fn ctx_for(&self, node: usize, now_s: f64) -> NodeCtx<Pr::Payload> {
        let clock = self.nodes[node].config.clock;
        let device_now = clock.device_time_at(now_s).unwrap_or(DeviceTime::ZERO);
        NodeCtx::new(self.ids[node], device_now)
    }

    fn apply_commands(
        &mut self,
        node: usize,
        now_s: f64,
        commands: Vec<WorldCommand<Pr::Payload>>,
        env: &ShardEnv<'_>,
    ) {
        for cmd in commands {
            match cmd {
                WorldCommand::TransmitAt {
                    desired,
                    payload,
                    payload_bytes,
                } => {
                    let actual = if env.sim.tx_quantization {
                        desired.quantize_tx()
                    } else {
                        desired
                    };
                    let clock = self.nodes[node].config.clock;
                    let mut global = clock.next_device_occurrence(now_s, actual);
                    if self.injector.is_active() {
                        let seq = self.nodes[node].sched_seq;
                        self.nodes[node].sched_seq += 1;
                        let delay = self.injector.tx_delay_s(self.ids[node].0, seq);
                        if delay != 0.0 {
                            global = (global + delay).max(now_s);
                        }
                    }
                    self.nodes[node].tx_seq += 1;
                    self.outbox.push(PendingTx {
                        fire_s: global,
                        src: self.ids[node],
                        src_seq: self.nodes[node].tx_seq,
                        tx_device: actual,
                        payload,
                        payload_bytes,
                        position: self.nodes[node].config.position,
                        pulse: PulseShape::from_config(&self.nodes[node].config.radio),
                        wavelength_m: self.nodes[node].config.radio.channel.wavelength_m(),
                        src_clock_rate: clock.rate(),
                    });
                }
                WorldCommand::SetTimer {
                    delay_local_s,
                    token,
                } => {
                    let clock = self.nodes[node].config.clock;
                    self.queue.push(
                        now_s + clock.true_duration(delay_local_s),
                        LocalEvent::Timer { node, token },
                    );
                }
                WorldCommand::RxEnable(enabled) => {
                    self.nodes[node].pending_rx = Some(enabled);
                }
                WorldCommand::RecordListen { duration_s } => {
                    self.nodes[node]
                        .ledger
                        .record(RadioState::Receive, duration_s);
                }
            }
        }
    }

    fn close_reception(
        &mut self,
        rx: usize,
        now_s: f64,
        env: &ShardEnv<'_>,
    ) -> Option<WorldReception<Pr::Payload>> {
        self.nodes[rx].window_open = false;
        self.nodes[rx].window_seq += 1;
        let window_seq = self.nodes[rx].window_seq;
        let buffered = std::mem::take(&mut self.nodes[rx].rx_buffer);
        if buffered.is_empty() {
            return None;
        }
        let rx_id = self.ids[rx].0;
        if self.injector.dropout(rx_id, window_seq) {
            // The whole window is lost: attribute the drop to every
            // frame that was buffered in it, so causal traces show why
            // each one never reached the decoder.
            if uwb_obs::enabled() {
                for (frame, _) in &buffered {
                    let fid = frame_trace_id(env.world_seed, frame.src.0, frame.src_seq);
                    uwb_obs::event("world.drop", || {
                        vec![
                            ("frame", fmt_trace_id(fid).into()),
                            ("span", fmt_trace_id(span_id(fid, "drop", rx_id)).into()),
                            (
                                "parent",
                                fmt_trace_id(span_id(fid, "deliver", rx_id)).into(),
                            ),
                            ("node", rx_id.into()),
                            ("cause", "rx_dropout".into()),
                            ("global_s", now_s.into()),
                        ]
                    });
                }
            }
            return None;
        }
        let (mut frames, rates): (Vec<_>, Vec<f64>) = buffered.into_iter().unzip();
        let best = capture_index(&frames, env.sim.min_decode_amplitude)?;
        frames[best].decodable = true;

        let clock = self.nodes[rx].config.clock;
        // Independent first-path estimation noise per frame in the
        // window: the RPM slot decoder measures per-frame offsets, so
        // each CIR path cluster carries its own timestamp error. Draw
        // order is frame order = delivery order, which the calendar
        // fixes globally — layout-invariant.
        let mut ft_rng = site_rng(
            env.world_seed,
            DOMAIN_FRAME_TIME,
            u64::from(rx_id),
            window_seq,
        );
        let frame_local_s: Vec<f64> = frames
            .iter()
            .map(|f| {
                clock.local_from_global(f.first_path_global_s())
                    + random::normal(&mut ft_rng, 0.0, env.sim.rx_timestamp_noise_s)
            })
            .collect();
        let rx_device_time =
            DeviceTime::from_seconds(frame_local_s[best].max(0.0)).unwrap_or(DeviceTime::ZERO);

        let airtime =
            FrameTiming::new(&self.nodes[rx].config.radio).frame_s(frames[best].payload_bytes);
        self.nodes[rx].ledger.record(RadioState::Receive, airtime);

        let mut noise_rng = site_rng(
            env.world_seed,
            DOMAIN_RX_NOISE,
            u64::from(rx_id),
            window_seq,
        );
        let cfo_ppm = (rates[best] / clock.rate() - 1.0) * 1e6
            + random::normal(&mut noise_rng, 0.0, CFO_NOISE_PPM);

        let rx_true_global_s = frames[best].first_path_global_s();
        TraceEvent::ReceptionEmitted {
            node: self.ids[rx],
            global_s: now_s,
            frames: frames.len(),
        }
        .forward_to_obs();

        Some(WorldReception {
            reception: Reception {
                node: self.ids[rx],
                rx_device_time,
                rx_true_global_s,
                cfo_ppm,
                frames,
            },
            frame_local_s,
        })
    }

    /// Local index of a node id, if this shard owns it. Shards hold at
    /// most a few hundred nodes and fan-out touches them all anyway, so
    /// a linear scan beats maintaining a map.
    fn local_index(&self, id: NodeId) -> Option<usize> {
        self.ids.iter().position(|n| *n == id)
    }
}
