//! # uwb-perfwatch — the performance observatory
//!
//! The ROADMAP's north star is a stack that runs "as fast as the
//! hardware allows" — this crate is the subsystem that keeps that claim
//! honest across PRs. Two deliverables:
//!
//! 1. **The `perfwatch` binary**: runs a fixed, named workload suite
//!    spanning every pipeline layer (FFT/Bluestein, matched-filter
//!    convolution, search-and-subtract detection on single and Fig. 7
//!    overlapping CIRs, pulse-shape classification, RPM decode, a
//!    Fig. 7 campaign at 1/N threads, netsim dispatch) with warmup and
//!    repeated timed runs, robust statistics (median/MAD/min) and
//!    per-stage throughput. Results land in a schema-versioned
//!    `BENCH_pipeline.json`; given a prior baseline it prints a delta
//!    table and — under `--check` — exits non-zero when any workload
//!    regresses beyond the noise band (default ±15 %).
//! 2. **The `uwb-trace` binary**: an offline analyzer for the JSONL
//!    traces and flight-recorder snapshots `uwb-obs` writes under
//!    `results/traces/` — per-stage summaries, residual/amplitude
//!    outlier hunting, ASCII CIR rendering with truth vs. detected
//!    markers, trace-to-trace diffs, causal span-chain reconstruction
//!    for a single frame
//!    ([`causal()`]), epoch telemetry tables with a shard-load heatmap
//!    ([`mod@epochs`]), and an ASCII flame view over the profiler's
//!    collapsed-stack work exports ([`mod@flame`]).
//!
//! ## Knobs
//!
//! | Knob | Effect |
//! |------|--------|
//! | `--iters N` / `--warmup N` | override per-workload repetition counts |
//! | `--check` | exit non-zero on a regression vs. the baseline |
//! | `--noise-pct X` | regression band, percent (default 15) |
//! | `UWB_PERFWATCH_SPIN_NS` | test hook: busy-spin added inside every timed iteration |
//! | `UWB_PERFWATCH_INFLATE_WORK` | test hook: phantom work ops added inside every profiled iteration |
//! | `UWB_RESULTS_DIR` | relocates trace inputs for `uwb-trace` (via [`uwb_obs::results_dir`]) |
//!
//! Allocation accounting is compile-time gated behind the `count-alloc`
//! feature (see [`alloc_count`]); the disabled build contains no
//! counting allocator at all.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod analyze;
pub mod baseline;
pub mod causal;
pub mod compare;
pub mod epochs;
pub mod flame;
pub mod suite;

pub use analyze::{
    diff, load_trace, outliers, render_cir, resolve_trace_path, summary, Trace, TraceEvent,
};
pub use baseline::{BenchDoc, EnvFingerprint, WorkloadResult, BENCH_SCHEMA_VERSION};
pub use causal::causal;
pub use compare::{compare, Comparison, Delta};
pub use epochs::{epochs_report, load_telemetry, resolve_telemetry_path, EpochLine, TelemetryDoc};
pub use flame::{flame_report, flame_summary, parse_collapsed, FlameNode};
pub use suite::{run_suite, workload_names, SuiteConfig};
