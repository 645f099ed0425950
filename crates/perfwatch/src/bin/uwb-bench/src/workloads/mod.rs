//! The four workloads, the closed-loop runner that measures them, and
//! the correctness gate each run passes before it reports anything.
//!
//! Every workload is one client in a closed loop: the next op starts
//! when the previous one returns. Inputs are derived from `--seed` and
//! built outside the timed region; the program only receives them.

mod capacity;
mod combined;
mod overlap;

use std::time::{Duration, Instant};

use crate::metrics::{Metrics, END_TO_END};
use crate::stats::{slice_median_rate, tail_percentile};
use crate::trace::{self, LayerTotals};

pub use capacity::Capacity1500;
pub use combined::CombinedRound;
pub use overlap::{OverlapCampaign, OverlapStream};

/// The workload names, in the order `--smoke` runs them.
pub const NAMES: [&str; 4] = [
    "overlap_stream",
    "combined_round",
    "capacity_1500",
    "overlap_campaign",
];

/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Per-op accounting, summed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ranging rounds the op ran.
    pub rounds: u64,
    /// Rounds that reached scoring (an overlap to resolve, a completed
    /// protocol round, a decodable response window).
    pub scored_rounds: u64,
    /// Scored outcomes: the `success_rate` denominator.
    pub outcomes: u64,
    /// Scored outcomes that missed the truth.
    pub misses: u64,
    /// Correct distances delivered.
    pub ranges: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.rounds += other.rounds;
        self.scored_rounds += other.scored_rounds;
        self.outcomes += other.outcomes;
        self.misses += other.misses;
        self.ranges += other.ranges;
    }
}

impl Tally {
    /// The sum of a run's per-op tallies.
    #[must_use]
    pub fn sum(tallies: &[Tally]) -> Tally {
        let mut total = Tally::default();
        for &t in tallies {
            total += t;
        }
        total
    }
}

/// How much a run does beyond its time budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Fewest ops a measured run makes, whatever `--seconds` says: at
    /// least 100, so ten latency samples lie beyond the p90.
    pub min_ops: u64,
    /// The prefix of ops `success_rate` is scored over. Fixed, so the share
    /// is a pure function of the seed however fast the host is.
    pub scored_ops: u64,
    /// Traced ops per second of `--seconds`. Fixed, so two traced runs
    /// with the same seed count exactly the same work.
    pub trace_ops_per_s: f64,
    /// Fewest traced ops.
    pub trace_min_ops: u64,
}

impl Sizes {
    /// Ops a traced run makes for a `--seconds` budget.
    #[must_use]
    pub fn trace_ops(&self, seconds: u64) -> u64 {
        ((seconds as f64 * self.trace_ops_per_s).ceil() as u64).max(self.trace_min_ops)
    }
}

/// One workload: how to build its program, derive an op's inputs from
/// the seed, run and score an op, check a run's outputs, and trace it.
pub trait Workload {
    /// What ops run against (pipeline, deployment, …).
    type State;
    /// One op's inputs, derived from the seed.
    type Input;
    /// What the library returns for one op.
    type Raw;
    /// The part of `Raw` the checks and the tally need.
    type Output: PartialEq;

    /// Run sizes.
    fn sizes(&self) -> Sizes;
    /// Worker threads one op uses.
    fn threads(&self) -> usize {
        1
    }
    /// Builds the program state.
    fn build(&self) -> Self::State;
    /// The inputs of op `op` under `seed`.
    fn input(&self, seed: u64, op: u64) -> Self::Input;
    /// One op: the timed call into the library.
    fn run(&self, state: &mut Self::State, input: Self::Input) -> Self::Raw;
    /// Reduces an op's result to what is kept (untimed).
    fn digest(&self, raw: Self::Raw) -> Self::Output;
    /// Scores one op.
    fn tally(&self, output: &Self::Output) -> Tally;
    /// Checks a run's outputs against an independent reference.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    fn check(&self, seed: u64, outputs: &[Self::Output]) -> Result<(), String>;
    /// The traced run: `ops` ops through every instrumented pass.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch between passes or against
    /// the reference.
    fn trace(&self, seed: u64, ops: u64) -> Result<LayerTotals, String>;
}

/// What a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Ops made.
    pub attempted: u64,
    /// Worker threads one op used.
    pub threads: usize,
    /// The metrics, untraced or per-layer.
    pub metrics: Metrics,
}

/// Builds the state and runs ops until the first scored one: what a
/// user pays before the first useful result. Seconds.
fn setup_once<W: Workload>(w: &W, seed: u64) -> Result<f64, String> {
    let started = Instant::now();
    let mut state = w.build();
    for op in 0..64 {
        let input = w.input(seed, op);
        let out = w.digest(w.run(&mut state, input));
        if w.tally(&out).scored_rounds > 0 {
            return Ok(started.elapsed().as_secs_f64());
        }
    }
    Err("set-up found no scored op in 64 tries".to_string())
}

/// Runs ops `0..` back to back on fresh state until `budget` has passed
/// and at least `min_ops` are done, returning each op's latency in
/// seconds and its output. A zero budget runs exactly `min_ops` ops.
fn timed_pass<W: Workload>(
    w: &W,
    seed: u64,
    min_ops: u64,
    budget: Duration,
) -> (Vec<f64>, Vec<W::Output>) {
    let mut state = w.build();
    let (mut latency_s, mut outputs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for op in 0u64.. {
        if op >= min_ops && start.elapsed() >= budget {
            break;
        }
        let input = w.input(seed, op);
        let t0 = Instant::now();
        let raw = w.run(&mut state, input);
        latency_s.push(t0.elapsed().as_secs_f64());
        outputs.push(w.digest(raw));
    }
    (latency_s, outputs)
}

/// The untraced run: set-up timing, then two timed passes over the same
/// ops, then the check.
///
/// The first pass runs ops until half the budget has passed and
/// `min_ops` are done; the second reruns exactly those ops on fresh
/// state and must reproduce every output. An op's latency is the faster
/// of its two runs: a co-tenant's burst on a shared host that slows one
/// run of an op but not the other is filtered out, while a slower
/// program slows both. Throughput is measured on the same per-op times.
///
/// # Errors
///
/// A failed correctness check, or a run too short to report on.
pub fn measure<W: Workload>(w: &W, seed: u64, budget: Duration) -> Result<Report, String> {
    let sizes = w.sizes();
    let setups = (0..SETUP_REPEATS)
        .map(|_| setup_once(w, seed))
        .collect::<Result<Vec<f64>, String>>()?;

    let (first, outputs) = timed_pass(w, seed, sizes.min_ops, budget / 2);
    let (second, again) = timed_pass(w, seed, outputs.len() as u64, Duration::ZERO);
    if let Some(op) = outputs.iter().zip(&again).position(|(a, b)| a != b) {
        return Err(format!("op {op} gave a different output when run again"));
    }
    w.check(seed, &outputs)?;

    let op_s: Vec<f64> = first.iter().zip(&second).map(|(a, b)| a.min(*b)).collect();
    let latency_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    let tallies: Vec<Tally> = outputs.iter().map(|out| w.tally(out)).collect();
    let column = |f: fn(&Tally) -> u64| tallies.iter().map(|t| f(t) as f64).collect::<Vec<_>>();
    let scored = Tally::sum(&tallies[..sizes.scored_ops as usize]);
    if scored.outcomes == 0 {
        return Err("no scored outcome in the scored prefix".to_string());
    }
    let values = [
        uwb_obs::median(&setups),
        slice_median_rate(&op_s, &column(|t| t.rounds)),
        slice_median_rate(&op_s, &column(|t| t.ranges)),
        uwb_obs::median(&latency_ms),
        tail_percentile(&latency_ms, 0.9),
        Some((scored.outcomes - scored.misses) as f64 / scored.outcomes as f64),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, v)| {
            v.map(|v| (spec, v))
                .ok_or(format!("{} undefined", spec.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        attempted: outputs.len() as u64,
        threads: w.threads(),
        metrics: Metrics(metrics),
    })
}

/// The traced run.
///
/// # Errors
///
/// A mismatch found by the workload's traced passes.
pub fn trace<W: Workload>(w: &W, seed: u64, seconds: u64) -> Result<Report, String> {
    let ops = w.sizes().trace_ops(seconds);
    let mut totals = w.trace(seed, ops)?;
    totals.threads = w.threads() as f64;
    Ok(Report {
        attempted: ops,
        threads: w.threads(),
        metrics: totals.metrics(),
    })
}

/// The plain traced pass: each op's allocations and wall time, with
/// `inspect` reading what else it needs from the raw result. Returns
/// the outputs and the summed op wall time, ns.
fn plain_pass<W: Workload>(
    w: &W,
    seed: u64,
    ops: u64,
    totals: &mut LayerTotals,
    mut inspect: impl FnMut(&W::Raw, &mut LayerTotals),
) -> (Vec<W::Output>, f64) {
    let mut state = w.build();
    let mut wall_ns = 0.0;
    let outputs = (0..ops)
        .map(|op| {
            let input = w.input(seed, op);
            let raw = trace::count_allocs(&mut totals.allocs, || {
                trace::timed(&mut wall_ns, || w.run(&mut state, input))
            });
            inspect(&raw, totals);
            w.digest(raw)
        })
        .collect();
    (outputs, wall_ns)
}

/// The work pass: every op's work counters, added to `totals.work`.
fn work_pass<W: Workload>(w: &W, seed: u64, ops: u64, totals: &mut LayerTotals) -> Vec<Tally> {
    let mut state = w.build();
    trace::with_profiler(|| {
        (0..ops)
            .map(|op| {
                let input = w.input(seed, op);
                let (raw, tree) = uwb_obs::profile::scoped(|| w.run(&mut state, input));
                trace::add_work(&tree, &mut totals.work);
                w.tally(&w.digest(raw))
            })
            .collect()
    })
}

/// The stage-timer pass, for workloads whose detection and rendering
/// happen inside the library: the `detect` and `channel.render` timers,
/// and the op wall time the breakdown is taken against.
fn stage_timer_pass<W: Workload>(
    w: &W,
    seed: u64,
    ops: u64,
    totals: &mut LayerTotals,
) -> Vec<Tally> {
    let mut state = w.build();
    let mut wall_ns = 0.0;
    let (tallies, registry) = trace::with_stage_timers(|| {
        (0..ops)
            .map(|op| {
                let input = w.input(seed, op);
                let raw = trace::timed(&mut wall_ns, || w.run(&mut state, input));
                w.tally(&w.digest(raw))
            })
            .collect()
    });
    totals.round_ns = wall_ns;
    (totals.ss_ns, _) = trace::stage(&registry, "detect");
    (totals.render_ns, totals.renders) = trace::stage(&registry, "channel.render");
    tallies
}

/// Asserts that an instrumented pass scored every op as the plain pass
/// did: instrumentation must not change a result.
fn same_tallies(pass: &str, plain: &[Tally], instrumented: &[Tally]) -> Result<(), String> {
    match plain.iter().zip(instrumented).position(|(a, b)| a != b) {
        Some(op) => Err(format!(
            "{pass} pass changed op {op}: {:?} vs {:?}",
            instrumented[op], plain[op]
        )),
        None if plain.len() == instrumented.len() => Ok(()),
        None => Err(format!("{pass} pass ran a different number of ops")),
    }
}
