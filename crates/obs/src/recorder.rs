//! The process-global recorder: one atomic fast path, one shared sink,
//! one metrics registry.
//!
//! Instrumentation sites call the free functions in this module
//! ([`event`], [`counter`], [`timed`], [`flight_record`], …). When no
//! recorder is installed — the default — every call is a single relaxed
//! atomic load followed by an immediate return: field vectors are built
//! lazily through closures, timestamps are never taken, and the hot
//! path stays within noise of the uninstrumented build.
//!
//! Campaign workers wrap each chunk in [`scoped_metrics`], which parks
//! metric updates in a thread-local registry so the campaign can merge
//! them *in chunk order* — preserving the bit-identical-at-any-thread-
//! count guarantee — before absorbing them into the global registry.

use crate::flight::{CirSnapshot, FLIGHT_STAGE};
use crate::metrics::MetricsRegistry;
use crate::trace::{Event, JsonlSink, TraceSink};
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Default number of flight-recorder snapshots per run (override with
/// the `UWB_FLIGHT_QUOTA` environment variable).
pub const DEFAULT_FLIGHT_QUOTA: i64 = 32;

/// Fast-path switch: true iff a recorder is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

thread_local! {
    /// Trial index attached to events emitted on this thread.
    static TRIAL: Cell<Option<u64>> = const { Cell::new(None) };
    /// Chunk-scoped metrics capture (campaign workers only).
    static LOCAL_METRICS: RefCell<Option<MetricsRegistry>> = const { RefCell::new(None) };
}

struct Recorder {
    sink: Box<dyn TraceSink>,
    metrics: Mutex<MetricsRegistry>,
    flight_remaining: AtomicI64,
    epoch: Instant,
}

fn recorder() -> Option<Arc<Recorder>> {
    RECORDER.read().unwrap().clone()
}

fn flight_quota_from_env() -> i64 {
    // Unified knob policy (envknob): malformed values warn on stderr and
    // fall back to the default instead of silently diverging from the
    // epoch quota. Values beyond i64 saturate (effectively unlimited
    // snapshots, which is what a huge quota means anyway).
    let quota = crate::envknob::quota_from_env("UWB_FLIGHT_QUOTA", DEFAULT_FLIGHT_QUOTA as u64);
    i64::try_from(quota).unwrap_or(i64::MAX)
}

/// Installs a recorder writing events to `sink`, replacing any previous
/// one. The flight-recorder quota is read from `UWB_FLIGHT_QUOTA`
/// (default [`DEFAULT_FLIGHT_QUOTA`]).
pub fn install(sink: Box<dyn TraceSink>) {
    install_with_quota(sink, flight_quota_from_env());
}

/// Installs a recorder with an explicit flight-recorder quota.
pub fn install_with_quota(sink: Box<dyn TraceSink>, flight_quota: i64) {
    let rec = Arc::new(Recorder {
        sink,
        metrics: Mutex::new(MetricsRegistry::new()),
        flight_remaining: AtomicI64::new(flight_quota),
        epoch: Instant::now(),
    });
    *RECORDER.write().unwrap() = Some(rec);
    ENABLED.store(true, Ordering::Release);
}

/// Enables metrics and counters without writing a trace: installs a
/// recorder backed by [`crate::NullSink`].
///
/// Experiments that want fault/recovery counters in their run summary —
/// but no trace file — call this instead of `install_jsonl`:
/// [`crate::enabled`] turns true, [`crate::counter`] and
/// [`crate::metrics_snapshot`] work, and every event is discarded on the
/// recorder's fast path.
pub fn install_metrics_only() {
    install(Box::new(crate::NullSink));
}

/// Installs a recorder writing JSONL to `path` (parent directories are
/// created).
///
/// The first line of the trace is a `trace.meta` schema-header event
/// (see [`crate::trace::TRACE_SCHEMA_VERSION`]) so downstream tooling
/// can detect format drift.
///
/// # Errors
///
/// Returns any error from creating the trace file.
pub fn install_jsonl(path: &Path) -> io::Result<()> {
    install(Box::new(JsonlSink::create(path)?));
    event(crate::trace::META_STAGE, || {
        vec![
            ("schema", Value::U64(crate::trace::TRACE_SCHEMA_VERSION)),
            ("writer", Value::Str("uwb-obs".to_string())),
            (
                "writer_version",
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
        ]
    });
    Ok(())
}

/// Resolves the tracing knobs and installs a JSONL recorder when asked.
///
/// `cli_trace_out` is the value of a `--trace-out[=PATH]` flag (empty
/// string means "flag given, use the default path"); when absent the
/// `UWB_TRACE` environment variable is consulted. A value of `1`/`true`
/// (or the bare flag) selects the default path
/// `results_dir()/traces/<default_stem>.jsonl`; `0`/`false`/unset
/// disables tracing; anything else is taken as the output path.
///
/// Returns the trace path when tracing was enabled.
///
/// # Errors
///
/// Returns any error from creating the trace file.
pub fn init_from_env(
    cli_trace_out: Option<&str>,
    default_stem: &str,
) -> io::Result<Option<PathBuf>> {
    let spec = match cli_trace_out {
        Some(s) => Some(s.to_string()),
        None => std::env::var("UWB_TRACE").ok(),
    };
    let Some(spec) = spec else { return Ok(None) };
    let spec = spec.trim();
    if spec.is_empty() || spec == "1" || spec.eq_ignore_ascii_case("true") {
        let path = crate::paths::traces_dir().join(format!("{default_stem}.jsonl"));
        install_jsonl(&path)?;
        return Ok(Some(path));
    }
    if spec == "0" || spec.eq_ignore_ascii_case("false") {
        return Ok(None);
    }
    let path = PathBuf::from(spec);
    install_jsonl(&path)?;
    Ok(Some(path))
}

/// Removes the recorder (flushing its sink) and returns its merged
/// metrics registry, if one was installed.
pub fn uninstall() -> Option<MetricsRegistry> {
    ENABLED.store(false, Ordering::Release);
    let rec = RECORDER.write().unwrap().take()?;
    let _ = rec.sink.flush();
    let metrics = rec.metrics.lock().unwrap().clone();
    Some(metrics)
}

/// True iff a recorder is installed. Inlined single relaxed load — the
/// guard every instrumentation site starts with.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits a structured event. `fields` is only invoked when a recorder
/// is installed, so call sites pay nothing for payload construction
/// when tracing is off.
#[inline]
pub fn event(stage: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    let Some(rec) = recorder() else { return };
    rec.sink.emit(Event {
        time_ns: rec.epoch.elapsed().as_nanos() as u64,
        stage,
        trial: TRIAL.with(Cell::get),
        fields: fields(),
    });
}

fn with_metrics(f: impl FnOnce(&mut MetricsRegistry)) {
    let mut f = Some(f);
    let handled = LOCAL_METRICS.with(|local| {
        if let Some(reg) = local.borrow_mut().as_mut() {
            (f.take().expect("closure consumed once"))(reg);
            true
        } else {
            false
        }
    });
    if handled {
        return;
    }
    if let Some(rec) = recorder() {
        (f.take().expect("closure consumed once"))(&mut rec.metrics.lock().unwrap());
    }
}

/// Increments a named counter by `by`.
#[inline]
pub fn counter(name: &str, by: u64) {
    if !enabled() {
        return;
    }
    with_metrics(|m| m.inc(name, by));
}

/// Records one observation of a named gauge.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_metrics(|m| m.gauge(name, value));
}

/// Records a duration under a stage name.
#[inline]
pub fn record_ns(stage: &str, ns: u64) {
    if !enabled() {
        return;
    }
    with_metrics(|m| m.record_ns(stage, ns));
}

/// Times `f` under `stage` when a recorder is installed; otherwise just
/// runs it (no clock read).
#[inline]
pub fn timed<T>(stage: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record_ns(stage, start.elapsed().as_nanos() as u64);
    out
}

/// Runs `f` with events on this thread tagged with `trial`. Scopes
/// nest; the previous tag is restored on exit.
pub fn trial_scope<T>(trial: u64, f: impl FnOnce() -> T) -> T {
    let prev = TRIAL.with(|t| t.replace(Some(trial)));
    let out = f();
    TRIAL.with(|t| t.set(prev));
    out
}

/// Runs `f` with this thread's metric updates captured in a fresh
/// registry instead of the global one, returning both. Campaign workers
/// use this per chunk so chunk registries can be merged in chunk order.
///
/// Returns an empty registry when no recorder is installed (the capture
/// costs nothing because every metric call bails on the atomic guard).
pub fn scoped_metrics<T>(f: impl FnOnce() -> T) -> (T, MetricsRegistry) {
    let prev = LOCAL_METRICS.with(|local| local.replace(Some(MetricsRegistry::new())));
    let out = f();
    let captured = LOCAL_METRICS
        .with(|local| local.replace(prev))
        .unwrap_or_default();
    (out, captured)
}

/// Merges an externally accumulated registry (e.g. campaign chunk
/// metrics merged in chunk order) into the global recorder's registry.
pub fn absorb_metrics(registry: &MetricsRegistry) {
    if registry.is_empty() {
        return;
    }
    if let Some(rec) = recorder() {
        rec.metrics.lock().unwrap().merge(registry);
    }
}

/// A clone of the global recorder's metrics registry (empty when no
/// recorder is installed).
#[must_use]
pub fn metrics_snapshot() -> MetricsRegistry {
    recorder().map_or_else(MetricsRegistry::new, |rec| {
        rec.metrics.lock().unwrap().clone()
    })
}

/// The global registry's per-stage latency table (empty string when
/// nothing was timed or no recorder is installed).
#[must_use]
pub fn latency_table() -> String {
    metrics_snapshot().latency_table()
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(rec) = recorder() {
        let _ = rec.sink.flush();
    }
}

/// Records a CIR flight-recorder snapshot, subject to the per-run
/// quota. Returns true when the snapshot was emitted.
///
/// Every call increments the `flight.triggered` counter; emitted
/// snapshots also increment `flight.recorded`, so the post-mortem can
/// tell how many anomalies the quota suppressed.
pub fn flight_record(snapshot: impl FnOnce() -> CirSnapshot) -> bool {
    if !enabled() {
        return false;
    }
    let Some(rec) = recorder() else { return false };
    counter("flight.triggered", 1);
    if rec.flight_remaining.fetch_sub(1, Ordering::AcqRel) <= 0 {
        return false;
    }
    counter("flight.recorded", 1);
    rec.sink.emit(Event {
        time_ns: rec.epoch.elapsed().as_nanos() as u64,
        stage: FLIGHT_STAGE,
        trial: TRIAL.with(Cell::get),
        fields: snapshot().into_fields(),
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RingSink;
    use std::sync::{Mutex as TestMutex, MutexGuard, OnceLock};

    /// The recorder is process-global; tests that install one must not
    /// run concurrently within this binary.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<TestMutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| TestMutex::new(()));
        lock.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let _guard = serial();
        uninstall();
        assert!(!enabled());
        let mut built = false;
        event("stage", || {
            built = true;
            vec![]
        });
        assert!(!built, "field closure must not run when disabled");
        counter("c", 1);
        assert_eq!(timed("t", || 41 + 1), 42);
        assert!(!flight_record(CirSnapshot::default));
        assert!(metrics_snapshot().is_empty());
    }

    #[test]
    fn events_flow_to_sink_with_trial_tags() {
        let _guard = serial();
        let ring = RingSink::new(16);
        install_with_quota(Box::new(ring.clone()), 8);
        event("outside", Vec::new);
        trial_scope(7, || {
            event("inside", || vec![("x", Value::U64(1))]);
            counter("hits", 2);
        });
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].trial, None);
        assert_eq!(events[1].trial, Some(7));
        assert_eq!(events[1].fields, vec![("x", Value::U64(1))]);
        let metrics = uninstall().unwrap();
        assert_eq!(metrics.counter_value("hits"), 2);
        assert!(!enabled());
    }

    #[test]
    fn scoped_metrics_capture_and_absorb() {
        let _guard = serial();
        install_with_quota(Box::new(RingSink::new(4)), 8);
        let ((), captured) = scoped_metrics(|| {
            counter("trials.failed", 3);
            record_ns("detect", 1000);
        });
        // Captured locally, not yet global.
        assert_eq!(captured.counter_value("trials.failed"), 3);
        assert_eq!(metrics_snapshot().counter_value("trials.failed"), 0);
        absorb_metrics(&captured);
        let global = metrics_snapshot();
        assert_eq!(global.counter_value("trials.failed"), 3);
        assert_eq!(global.latency("detect").unwrap().count(), 1);
        assert!(!global.latency_table().is_empty());
        uninstall();
    }

    #[test]
    fn timed_records_latency_when_enabled() {
        let _guard = serial();
        install_with_quota(Box::new(RingSink::new(4)), 8);
        let out = timed("stage.work", || std::hint::black_box(3u64.pow(7)));
        assert_eq!(out, 2187);
        let metrics = uninstall().unwrap();
        assert_eq!(metrics.latency("stage.work").unwrap().count(), 1);
    }

    #[test]
    fn flight_recorder_respects_quota() {
        let _guard = serial();
        let ring = RingSink::new(16);
        install_with_quota(Box::new(ring.clone()), 2);
        for _ in 0..5 {
            flight_record(|| CirSnapshot {
                reason: "misdetection",
                ..CirSnapshot::default()
            });
        }
        assert_eq!(ring.stage_counts(), vec![(FLIGHT_STAGE, 2)]);
        let metrics = uninstall().unwrap();
        assert_eq!(metrics.counter_value("flight.triggered"), 5);
        assert_eq!(metrics.counter_value("flight.recorded"), 2);
    }

    #[test]
    fn init_from_env_resolves_cli_and_default_paths() {
        let _guard = serial();
        uninstall();
        // Explicit "0" disables regardless of default.
        assert!(init_from_env(Some("0"), "exp").unwrap().is_none());
        assert!(!enabled());
        // Explicit path wins.
        let dir = std::env::temp_dir().join("uwb-obs-test-traces");
        let path = dir.join("explicit.jsonl");
        let got = init_from_env(Some(path.to_str().unwrap()), "exp").unwrap();
        assert_eq!(got.as_deref(), Some(path.as_path()));
        assert!(enabled());
        event("check", Vec::new);
        uninstall();
        let text = std::fs::read_to_string(&path).unwrap();
        // First line is the schema header, then the payload events.
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"stage\":\"trace.meta\""), "{first}");
        assert!(first.contains(&format!(
            "\"schema\":{}",
            crate::trace::TRACE_SCHEMA_VERSION
        )));
        assert!(text.contains("\"stage\":\"check\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
