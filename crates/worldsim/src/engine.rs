//! The sharded epoch-barrier engine.
//!
//! Time is cut into fixed epochs. Within an epoch every shard advances
//! independently on a worker thread (deliveries, window closes, timers —
//! all local); at the epoch barrier the shards' transmission outboxes
//! are merged *in shard index order* into a global calendar — the same
//! chunk-ordered-merge discipline [`uwb_campaign`] uses for trial
//! results — and calendar entries falling inside the next active epoch
//! are fanned out to every shard. Two properties follow:
//!
//! - **Thread count never changes results.** Workers only decide *when*
//!   a shard's epoch phase runs, never what it computes; the barrier
//!   merge is ordered by shard index, not completion order.
//! - **Epochs are activity-proportional.** Each iteration jumps straight
//!   to the epoch containing the earliest pending event anywhere, so an
//!   idle world costs nothing.
//!
//! Cross-shard causality is safe because every transmission committed at
//! a barrier fires in a *later* epoch than the callback that scheduled
//! it: outbox entries whose fire time would land inside the epoch that
//! produced them are deferred to the next epoch boundary (counted in
//! [`WorldSim::deferrals`]). Protocol scheduling margins (Δ_RESP =
//! 290 µs, TX arming ≥ 200 µs) sit far above the 100 µs default epoch,
//! so in practice the clamp never binds — the counter proves it.

use crate::api::WorldProtocol;
use crate::config::WorldConfig;
use crate::grid::CellGrid;
use crate::shard::{PendingTx, ShardEnv, ShardState};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use uwb_campaign::run_ordered;
use uwb_channel::ChannelModel;
use uwb_faults::{FaultInjector, FaultStats};
use uwb_netsim::{NodeConfig, NodeId};
use uwb_obs::telemetry::{EpochRecord, EpochTelemetry};
use uwb_obs::MetricsRegistry;
use uwb_radio::EnergyLedger;

/// Calendar entry: a committed transmission ordered by
/// `(fire time, sender, sender sequence)` — a total, layout-independent
/// order, so concurrent transmissions fan out to every shard in exactly
/// the same sequence no matter how the world is cut.
struct CalendarEntry<P>(PendingTx<P>);

impl<P> CalendarEntry<P> {
    fn key(&self) -> (f64, u32, u64) {
        (self.0.fire_s, self.0.src.0, self.0.src_seq)
    }
}

impl<P> PartialEq for CalendarEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<P> Eq for CalendarEntry<P> {}
impl<P> PartialOrd for CalendarEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for CalendarEntry<P> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest entry on
    // top.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ta, sa, qa) = self.key();
        let (tb, sb, qb) = other.key();
        tb.total_cmp(&ta)
            .then_with(|| sb.cmp(&sa))
            .then_with(|| qb.cmp(&qa))
    }
}

/// The sharded world simulator.
///
/// Generic over the protocol; see [`WorldProtocol`] for the callback
/// surface and the crate docs for the determinism contract.
pub struct WorldSim<Pr: WorldProtocol> {
    config: WorldConfig,
    grid: CellGrid,
    channel: ChannelModel,
    shards: Vec<Mutex<ShardState<Pr>>>,
    /// Shard owning each node, indexed by `NodeId.0`.
    node_shard: Vec<usize>,
    calendar: BinaryHeap<CalendarEntry<Pr::Payload>>,
    deferrals: u64,
    epochs_run: u64,
    started: bool,
    /// Per-epoch, per-shard windowed telemetry, recorded at every epoch
    /// barrier in shard index order — always on (the counters ride the
    /// work the shards do anyway) and bit-identical at any thread count.
    telemetry: EpochTelemetry,
}

impl<Pr: WorldProtocol> WorldSim<Pr> {
    /// Creates a world over a channel model. The cell grid — and with it
    /// the shard count — comes from the configured geometry.
    #[must_use]
    pub fn new(channel: ChannelModel, config: WorldConfig) -> Self {
        let grid = CellGrid::new(config.width_m, config.height_m, config.cell_m);
        let shards = (0..grid.shard_count())
            .map(|_| Mutex::new(ShardState::new(FaultInjector::new(config.sim.faults))))
            .collect();
        Self {
            config,
            grid,
            channel,
            shards,
            node_shard: Vec::new(),
            calendar: BinaryHeap::new(),
            deferrals: 0,
            epochs_run: 0,
            started: false,
            telemetry: EpochTelemetry::from_env(),
        }
    }

    /// Adds a node with its protocol state, placed in the cell owning
    /// its position. Returns the node's globally unique id.
    pub fn add_node(&mut self, config: NodeConfig, state: Pr::NodeState) -> NodeId {
        assert!(!self.started, "cannot add nodes after run() started");
        let id = NodeId(self.node_shard.len() as u32);
        let shard = self.grid.shard_of(config.position);
        self.node_shard.push(shard);
        self.shards[shard]
            .get_mut()
            .expect("shard lock poisoned")
            .add_node(id, config, state);
        id
    }

    /// Number of nodes in the world.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_shard.len()
    }

    /// Number of spatial cells (= shards).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The world configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Epoch phases executed so far (activity-proportional, not
    /// `until_s / epoch_s`).
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs_run
    }

    /// Transmissions whose fire time was pushed to the next epoch
    /// boundary to preserve cross-shard causality. Stays zero while
    /// protocol scheduling margins exceed the epoch length.
    #[must_use]
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Runs the world until event exhaustion or `until_s`, whichever
    /// comes first. `on_start` fires for every node the first time this
    /// is called; later calls continue where the previous one stopped.
    pub fn run(&mut self, protocol: &Pr, until_s: f64) {
        if !self.started {
            self.started = true;
            for shard in &self.shards {
                shard.lock().expect("shard lock poisoned").seed_starts();
            }
        }
        let threads = self.config.effective_threads();
        let epoch_s = self.config.epoch_s;
        let obs_on = uwb_obs::enabled();

        loop {
            let mut t_min = f64::INFINITY;
            for shard in &self.shards {
                if let Some(t) = shard.lock().expect("shard lock poisoned").peek_time() {
                    t_min = t_min.min(t);
                }
            }
            if let Some(entry) = self.calendar.peek() {
                t_min = t_min.min(entry.0.fire_s);
            }
            if !t_min.is_finite() || t_min > until_s {
                break;
            }

            let epoch = (t_min / epoch_s).floor();
            let epoch_end = (epoch + 1.0) * epoch_s;

            // Commit this epoch's transmissions, in calendar (= global
            // time) order.
            let mut epoch_txes = Vec::new();
            while let Some(entry) = self.calendar.peek() {
                if entry.0.fire_s < epoch_end {
                    let entry = self.calendar.pop().expect("peeked entry vanished");
                    epoch_txes.push(entry.0);
                } else {
                    break;
                }
            }

            // Parallel phase: every shard runs its fused epoch
            // (toggles → fan-out → drain) on a worker; `run_ordered`
            // returns the outboxes in shard index order regardless of
            // completion order.
            let shards = &self.shards;
            let channel = &self.channel;
            let sim = &self.config.sim;
            let env = ShardEnv {
                channel,
                sim,
                world_seed: self.config.seed,
                comm_range_m: self.config.comm_range_m,
            };
            let env = &env;
            let epoch_txes = &epoch_txes;
            let wall_start = std::time::Instant::now();
            let phases = run_ordered(shards.len(), threads, |i| {
                let mut shard = shards[i].lock().expect("shard lock poisoned");
                // Work counters are captured per shard phase (the
                // `scoped_metrics` discipline) and absorbed at the
                // barrier in shard index order, so profile totals stay
                // bit-identical at any thread count. Events and
                // deliveries are already deterministic windowed
                // counters; translating them into work ops costs two
                // map inserts per phase when profiling is on.
                let ((outbox, mut stats), profile) = uwb_obs::profile::scoped(|| {
                    let _work_scope = uwb_obs::profile::scope("worldsim.epoch");
                    let (outbox, stats) = if obs_on {
                        let (result, metrics) = uwb_obs::scoped_metrics(|| {
                            shard.run_epoch(protocol, env, epoch_txes, epoch_end)
                        });
                        shard.metrics.merge(&metrics);
                        result
                    } else {
                        shard.run_epoch(protocol, env, epoch_txes, epoch_end)
                    };
                    uwb_obs::profile::work("worldsim.event", stats.events);
                    uwb_obs::profile::work("worldsim.delivery", stats.deliveries);
                    (outbox, stats)
                });
                stats.shard = i as u32;
                (outbox, stats, profile)
            });
            // Wall clock is the one thread-count-dependent measurement;
            // EpochTelemetry keeps it out of equality and serialized
            // output unless explicitly requested.
            let wall_ns = u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

            // Barrier: merge outboxes into the calendar in shard index
            // order, deferring any fire time that would violate the
            // epoch-causality invariant; record the shards' windowed
            // telemetry in the same order.
            let mut shard_stats = Vec::with_capacity(phases.len());
            for (outbox, stats, profile) in phases {
                uwb_obs::profile::absorb(&profile);
                shard_stats.push(stats);
                for mut tx in outbox {
                    if tx.fire_s < epoch_end {
                        tx.fire_s = epoch_end;
                        self.deferrals += 1;
                    }
                    self.calendar.push(CalendarEntry(tx));
                }
            }
            self.telemetry.record(
                EpochRecord {
                    run: 0,
                    epoch: self.epochs_run,
                    t_end_s: epoch_end,
                    shards: shard_stats,
                },
                wall_ns,
            );
            self.epochs_run += 1;
        }

        if obs_on {
            for shard in &self.shards {
                let mut shard = shard.lock().expect("shard lock poisoned");
                let metrics = std::mem::replace(&mut shard.metrics, MetricsRegistry::new());
                uwb_obs::absorb_metrics(&metrics);
            }
        }
    }

    /// The epoch telemetry stream recorded so far: one record per epoch
    /// phase, each holding every shard's windowed counters in shard
    /// index order. Bit-identical at any thread count (wall-clock
    /// samples are stored out-of-band and excluded from equality).
    #[must_use]
    pub fn telemetry(&self) -> &EpochTelemetry {
        &self.telemetry
    }

    /// Fault counters summed over all shards, in shard index order.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for shard in &self.shards {
            total.merge(shard.lock().expect("shard lock poisoned").injector.stats());
        }
        total
    }

    /// A node's energy ledger.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node id.
    #[must_use]
    pub fn node_ledger(&self, id: NodeId) -> EnergyLedger {
        let shard = self.shards[self.node_shard[id.0 as usize]]
            .lock()
            .expect("shard lock poisoned");
        let local = shard
            .ids
            .iter()
            .position(|n| *n == id)
            .expect("node not in its shard");
        shard.nodes[local].ledger
    }

    /// Borrows a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node id.
    pub fn with_state<R>(&self, id: NodeId, f: impl FnOnce(&Pr::NodeState) -> R) -> R {
        let shard = self.shards[self.node_shard[id.0 as usize]]
            .lock()
            .expect("shard lock poisoned");
        let local = shard
            .ids
            .iter()
            .position(|n| *n == id)
            .expect("node not in its shard");
        f(&shard.nodes[local].state)
    }

    /// Maps every node's protocol state, in [`NodeId`] order — the
    /// canonical aggregation order for world-level statistics.
    pub fn collect_states<R>(&self, mut f: impl FnMut(NodeId, &Pr::NodeState) -> R) -> Vec<R> {
        (0..self.node_shard.len() as u32)
            .map(|i| self.with_state(NodeId(i), |s| f(NodeId(i), s)))
            .collect()
    }
}

impl<Pr: WorldProtocol> std::fmt::Debug for WorldSim<Pr> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSim")
            .field("nodes", &self.node_shard.len())
            .field("shards", &self.shards.len())
            .field("epochs_run", &self.epochs_run)
            .field("deferrals", &self.deferrals)
            .finish()
    }
}
