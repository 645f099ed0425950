//! The traced run's passes and the per-layer totals they fill.
//!
//! A traced run replays the same ops several times, each pass reading
//! one kind of instrumentation the crates already expose, so no pass
//! perturbs what another measures:
//!
//! 1. **plain** — allocation counts (`uwb_perfwatch::alloc_count`), op
//!    wall time, and timers the benchmark wraps around layer calls it
//!    makes itself;
//! 2. **work** — the `uwb_obs::profile` work counters, one scoped
//!    capture per op;
//! 3. **stage timers** — a metrics-only `uwb_obs` recorder, whose
//!    `detect` and `channel.render` timers see layer calls made inside
//!    the library. Only workloads whose layers the benchmark cannot call
//!    itself run this pass.
//!
//! Every pass must score every op exactly as the plain pass did.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use uwb_obs::{MetricsRegistry, ProfileNode};
use uwb_perfwatch::alloc_count::{self, AllocSnapshot};

use crate::metrics::{Metrics, PER_LAYER};
use crate::workloads::Tally;

/// Serialises runs within one process: the profiler, the recorder and
/// the allocation counters are process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Holds the process-wide measurement gate.
pub fn exclusive() -> MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f`, adding the allocations it made to `total` (none are seen
/// unless the counting allocator is compiled in).
pub fn count_allocs<T>(total: &mut AllocSnapshot, f: impl FnOnce() -> T) -> T {
    let before = alloc_count::snapshot();
    let out = f();
    if let (Some(after), Some(before)) = (alloc_count::snapshot(), before) {
        let delta = after.since(before);
        total.allocs += delta.allocs;
        total.bytes += delta.bytes;
    }
    out
}

/// Runs `f`, adding the nanoseconds it took to `ns`.
pub fn timed<T>(ns: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *ns += t0.elapsed().as_nanos() as f64;
    out
}

/// Runs `f` with the work profiler on.
pub fn with_profiler<T>(f: impl FnOnce() -> T) -> T {
    uwb_obs::profile::enable();
    let out = f();
    let _ = uwb_obs::profile::disable();
    out
}

/// Runs `f` under a metrics-only recorder and returns its registry.
pub fn with_stage_timers<T>(f: impl FnOnce() -> T) -> (T, MetricsRegistry) {
    uwb_obs::install_metrics_only();
    let out = f();
    (out, uwb_obs::uninstall().unwrap_or_default())
}

/// Adds every work counter in `tree`, at any depth, to `by_kind`.
pub fn add_work(tree: &ProfileNode, by_kind: &mut BTreeMap<&'static str, u64>) {
    for (&kind, &ops) in &tree.work {
        *by_kind.entry(kind).or_insert(0) += ops;
    }
    for child in tree.children.values() {
        add_work(child, by_kind);
    }
}

/// Sum of the named stage's timer in `registry`: (nanoseconds, calls).
#[must_use]
pub fn stage(registry: &MetricsRegistry, name: &str) -> (f64, u64) {
    registry
        .latency(name)
        .map_or((0.0, 0), |h| (h.sum_ns() as f64, h.count()))
}

/// Totals over a traced run's ops, turned into per-round metrics by
/// [`LayerTotals::metrics`].
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// The plain pass's summed tally.
    pub tally: Tally,
    /// Work counters by kind, from the work pass.
    pub work: BTreeMap<&'static str, u64>,
    /// Allocations of the ops, from the plain pass.
    pub allocs: AllocSnapshot,
    /// Wall time of the pass the time breakdown comes from.
    pub round_ns: f64,
    /// Worker threads an op uses: unattributed time is worker time
    /// (`round_ns · threads`) minus the timed layer calls.
    pub threads: f64,
    /// Search-and-subtract detection time.
    pub ss_ns: f64,
    /// Threshold-baseline detection time.
    pub threshold_ns: f64,
    /// CIR rendering time.
    pub render_ns: f64,
    /// CIR renders.
    pub renders: u64,
    /// Worldsim epoch-phase wall time (`EpochTelemetry::wall_ns_total`).
    pub epoch_ns: f64,
    /// Worldsim events dispatched.
    pub events: u64,
    /// Worldsim frames delivered.
    pub deliveries: u64,
    /// Worldsim transmissions.
    pub txes: u64,
    /// Worldsim epoch phases.
    pub epochs: u64,
    /// Largest worldsim event-queue depth.
    pub queue_hwm: u64,
    /// Campaign rounds/s ÷ (2 × streamed rounds/s) over the same rounds.
    pub scaling_efficiency: f64,
}

impl LayerTotals {
    /// The per-layer metrics, in catalogue order.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let rounds = self.tally.rounds.max(1) as f64;
        let per_round = |x: f64| x / rounds;
        let ms = |ns: f64| ns / 1e6 / rounds;
        let work = |kind: &str| self.work.get(kind).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let layer_ns = self.ss_ns + self.threshold_ns + self.render_ns + self.epoch_ns;
        let build_ns = if self.epochs > 0 {
            self.round_ns - self.epoch_ns
        } else {
            0.0
        };
        let values = [
            per_round(work("fft.butterfly")),
            per_round(work("bluestein.cmul")),
            per_round(work("conv.mac")),
            per_round(work("score.mac")),
            ms(self.ss_ns),
            per_round(work("detect.iteration")),
            per_round(work("template.eval")),
            per_round(work("template.grid_mac")),
            per_round(work("template.subtract")),
            ratio(work("detect.iteration"), self.tally.ranges as f64),
            ms(self.threshold_ns),
            ms(self.render_ns),
            per_round(self.renders as f64),
            per_round(work("rpm.decode")),
            self.scaling_efficiency,
            ratio(self.tally.scored_rounds as f64, self.tally.rounds as f64),
            ms(self.epoch_ns),
            ms(build_ns),
            per_round(self.events as f64),
            per_round(self.deliveries as f64),
            per_round(self.txes as f64),
            per_round(self.epochs as f64),
            self.queue_hwm as f64,
            ratio(self.deliveries as f64, self.txes as f64),
            per_round(self.allocs.allocs as f64),
            per_round(self.allocs.bytes as f64),
            per_round(self.work.values().sum::<u64>() as f64),
            ms(self.round_ns * self.threads - layer_ns),
            ms(self.round_ns),
        ];
        Metrics(PER_LAYER.iter().zip(values).collect())
    }
}
