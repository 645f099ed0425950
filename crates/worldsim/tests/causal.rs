//! Causal frame tracing: the deterministic trace-ID layer end to end.
//!
//! 1. A proptest pins that [`uwb_obs::frame_trace_id`] is collision-free
//!    over realistic `(src, seq)` ranges — thousands of nodes, many
//!    rounds — for arbitrary world seeds.
//! 2. A contested capacity world run under two different shard layouts
//!    emits the *identical set* of frame ids, and every frame's journey
//!    is reconstructable as a TX → deliver → decode → identify span
//!    chain from the emitted events.
//! 3. The same run records each committed transmission exactly once, as
//!    its `world.tx` root span, and emits no other per-TX record.
//!
//! These tests install the process-global obs recorder, so the ones that
//! do serialize on a mutex.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};
use uwb_faults::FaultPlan;
use uwb_obs::{frame_trace_id, RingSink, Value};
use uwb_worldsim::{run_capacity, CapacityConfig, CapacityOutcome};

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn contested_config() -> CapacityConfig {
    let faults = FaultPlan::none()
        .with_seed(99)
        .with_frame_loss(0.05)
        .expect("valid probability")
        .with_payload_corruption(0.03)
        .expect("valid probability")
        .with_tx_jitter(2e-9)
        .expect("valid sigma");
    CapacityConfig::paper(40)
        .with_cells(2)
        .with_rounds(3)
        .with_seed(12)
        .with_shape_misclass(0.02)
        .with_faults(faults)
}

/// Runs a world under a recorder and returns its outcome with every
/// captured event, oldest first.
fn capture(config: &CapacityConfig) -> (CapacityOutcome, Vec<uwb_obs::Event>) {
    let ring = RingSink::new(1 << 18);
    uwb_obs::install(Box::new(ring.clone()));
    let outcome = run_capacity(config);
    uwb_obs::uninstall();
    assert_eq!(ring.dropped(), 0, "capture ring must not evict");
    (outcome, ring.events())
}

/// The contested world's captured events under one shard layout.
fn captured_events(shard_m: f64) -> Vec<uwb_obs::Event> {
    capture(&contested_config().with_shard_m(shard_m)).1
}

fn str_field(event: &uwb_obs::Event, name: &str) -> Option<String> {
    event.fields.iter().find_map(|(k, v)| match v {
        Value::Str(s) if *k == name => Some(s.clone()),
        _ => None,
    })
}

#[test]
fn frame_ids_are_layout_stable_and_chains_complete() {
    let _guard = serial();
    let coarse = captured_events(0.0);
    let fine = captured_events(5.0);

    let tx_ids = |events: &[uwb_obs::Event]| -> BTreeSet<String> {
        events
            .iter()
            .filter(|e| e.stage == "world.tx")
            .filter_map(|e| str_field(e, "frame"))
            .collect()
    };
    let coarse_ids = tx_ids(&coarse);
    assert!(
        coarse_ids.len() > 80,
        "two cells × three rounds must transmit, got {}",
        coarse_ids.len()
    );
    // The id is a pure function of (seed, src, seq): cutting the world
    // into 5 m shards instead of one-per-cell changes nothing.
    assert_eq!(coarse_ids, tx_ids(&fine));

    // Span chains: every identify event's parentage walks back to the
    // frame's TX root through deliver and decode spans.
    let span_owner: BTreeMap<String, &uwb_obs::Event> = coarse
        .iter()
        .filter_map(|e| str_field(e, "span").map(|s| (s, e)))
        .collect();
    let identifies: Vec<&uwb_obs::Event> = coarse
        .iter()
        .filter(|e| e.stage == "world.identify")
        .collect();
    assert!(!identifies.is_empty(), "initiators must identify frames");
    for identify in identifies {
        let frame = str_field(identify, "frame").expect("identify carries its frame id");
        let decode = span_owner
            .get(&str_field(identify, "parent").expect("identify has a parent"))
            .expect("identify's parent span was emitted");
        assert_eq!(decode.stage, "world.decode");
        let deliver = span_owner
            .get(&str_field(decode, "parent").expect("decode has a parent"))
            .expect("decode's parent span was emitted");
        assert_eq!(deliver.stage, "world.deliver");
        let root = span_owner
            .get(&str_field(deliver, "parent").expect("deliver has a parent"))
            .expect("deliver's parent span was emitted");
        assert_eq!(root.stage, "world.tx");
        // Every link of the chain names the same frame.
        for event in [decode, deliver, root] {
            assert_eq!(str_field(event, "frame").as_ref(), Some(&frame));
        }
    }
}

#[test]
fn each_committed_tx_is_recorded_once() {
    let _guard = serial();
    let (outcome, events) = capture(&contested_config());
    let committed: u64 = outcome.telemetry.records().map(|r| r.txes()).sum();
    assert!(
        committed > 80,
        "two cells × three rounds must transmit, got {committed}"
    );
    let world_txes = events.iter().filter(|e| e.stage == "world.tx").count() as u64;
    assert_eq!(world_txes, committed);
    // `world.tx` is the only per-TX record: beside the span chain the run
    // emits only window closes and slot decodes (no `netsim.tx` mirror).
    let stages: BTreeSet<&str> = events.iter().map(|e| e.stage).collect();
    let allowed = BTreeSet::from([
        "netsim.rx",
        "rpm.decode",
        "world.decode",
        "world.deliver",
        "world.drop",
        "world.identify",
        "world.tx",
    ]);
    assert!(
        stages.is_subset(&allowed),
        "unexpected stages {:?}",
        stages.difference(&allowed).collect::<Vec<_>>()
    );
}

proptest! {
    /// Collision-free over realistic ranges: any 2k-node, 32-round
    /// world (64k frames) gets 64k distinct ids, for any seed — and the
    /// ids never depend on anything but `(seed, src, seq)`.
    #[test]
    fn frame_ids_are_collision_free(seed in 0u64..u64::MAX, src_base in 0u32..1_000_000) {
        let mut seen = std::collections::HashSet::with_capacity(2048 * 32);
        for src in src_base..src_base + 2048 {
            for seq in 1u64..=32 {
                prop_assert!(
                    seen.insert(frame_trace_id(seed, src, seq)),
                    "collision at src {src}, seq {seq}"
                );
            }
        }
    }
}
