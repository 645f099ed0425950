//! `uwb-trace causal` — one frame's journey, reconstructed from spans.
//!
//! The worldsim engine tags every frame with a deterministic trace id
//! ([`uwb_obs::frame_trace_id`]) and emits `world.tx` → `world.deliver`
//! → `world.decode` → `world.identify` (or `world.drop`) events whose
//! `span`/`parent` fields form a tree rooted at the TX. This module
//! filters a loaded [`Trace`] down to one frame and renders that tree,
//! so "what happened to frame X" is a single command instead of a grep
//! session across shards.

use std::collections::BTreeMap;

use crate::analyze::{Trace, TraceEvent};
use uwb_testkit::Json;

/// Fields that encode the tree structure itself; everything else is
/// payload worth printing.
const STRUCTURAL: [&str; 5] = ["stage", "frame", "span", "parent", "t_ns"];

/// Renders `event`'s payload fields as `key=value` pairs in document
/// order, skipping the structural ones.
fn detail(event: &TraceEvent) -> String {
    let Some(fields) = event.fields.as_object() else {
        return String::new();
    };
    let mut out = String::new();
    for (key, value) in fields {
        if STRUCTURAL.contains(&key.as_str()) {
            continue;
        }
        let rendered = match value {
            Json::Str(s) => s.clone(),
            Json::Bool(b) => b.to_string(),
            Json::Num(tok) => tok.clone(),
            other => format!("{other:?}"),
        };
        if !out.is_empty() {
            out.push_str("  ");
        }
        out.push_str(key);
        out.push('=');
        out.push_str(&rendered);
    }
    out
}

fn span_of(event: &TraceEvent) -> Option<&str> {
    event.fields.get("span").and_then(Json::as_str)
}

fn parent_of(event: &TraceEvent) -> Option<&str> {
    event.fields.get("parent").and_then(Json::as_str)
}

/// Reconstructs the causal span chain of one frame and renders it as an
/// indented tree, TX root first, children in emission order.
///
/// `frame` accepts any form [`uwb_obs::parse_trace_id`] does (up to 16
/// hex digits, optional `0x` prefix).
///
/// # Errors
///
/// Returns a message when `frame` is not a valid trace id, or when the
/// trace holds no events for it (with advice on how to record them).
pub fn causal(trace: &Trace, frame: &str) -> Result<String, String> {
    let id = uwb_obs::parse_trace_id(frame).ok_or_else(|| {
        format!("\"{frame}\" is not a frame trace id (up to 16 hex digits, 0x prefix allowed)")
    })?;
    let canonical = uwb_obs::fmt_trace_id(id);
    let events: Vec<(usize, &TraceEvent)> = trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.fields.get("frame").and_then(Json::as_str) == Some(canonical.as_str()))
        .collect();
    if events.is_empty() {
        return Err(format!(
            "no causal events for frame {canonical} in {} — record them by running the \
             experiment with --trace-out, then pick a frame id from any world.tx / \
             world.identify event",
            trace.path.display()
        ));
    }

    // span → event, and parent span → children (in emission order).
    let mut owner: BTreeMap<&str, usize> = BTreeMap::new();
    let mut children: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &(idx, event) in &events {
        if let Some(span) = span_of(event) {
            owner.entry(span).or_insert(idx);
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for &(idx, event) in &events {
        match parent_of(event) {
            Some(parent) if owner.contains_key(parent) => {
                children.entry(parent).or_default().push(idx);
            }
            // Orphaned parents (absent from the trace) and true roots
            // (the TX, whose span IS the frame id) both anchor at the
            // top level so nothing silently disappears.
            _ => roots.push(idx),
        }
    }

    let mut out = format!("frame {canonical} — {} event(s)\n", events.len());
    let stage_width = events.iter().map(|(_, e)| e.stage.len()).max().unwrap_or(0);
    let mut visited = 0usize;
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((idx, depth)) = stack.pop() {
        visited += 1;
        let event = &trace.events[idx];
        let indent = "  ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "\u{2514} " };
        out.push_str(&format!(
            "{indent}{arrow}{:<stage_width$}  {}\n",
            event.stage,
            detail(event)
        ));
        if let Some(span) = span_of(event) {
            if let Some(kids) = children.get(span) {
                for &kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
    }
    debug_assert_eq!(visited, events.len(), "span walk must cover every event");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::load_trace;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("perfwatch-causal-{name}-{}", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(contents.as_bytes()).expect("write temp");
        path
    }

    /// A two-frame trace: frame aaaa… is delivered, decoded and
    /// identified at node 4 and lost to node 9; frame bbbb… is noise
    /// that must not leak into the chain.
    const TRACE: &str = concat!(
        "{\"stage\":\"trace.meta\",\"schema\":1,\"writer\":\"uwb-obs\"}\n",
        "{\"t_ns\":1,\"stage\":\"world.tx\",\"frame\":\"000000000000aaaa\",\
         \"span\":\"000000000000aaaa\",\"node\":17,\"seq\":3,\"global_s\":1.5}\n",
        "{\"t_ns\":2,\"stage\":\"world.tx\",\"frame\":\"000000000000bbbb\",\
         \"span\":\"000000000000bbbb\",\"node\":18,\"seq\":3,\"global_s\":1.5}\n",
        "{\"t_ns\":3,\"stage\":\"world.drop\",\"frame\":\"000000000000aaaa\",\
         \"span\":\"00000000000000d1\",\"parent\":\"000000000000aaaa\",\"node\":9,\
         \"cause\":\"frame_loss\",\"global_s\":1.5}\n",
        "{\"t_ns\":4,\"stage\":\"world.deliver\",\"frame\":\"000000000000aaaa\",\
         \"span\":\"00000000000000e1\",\"parent\":\"000000000000aaaa\",\"node\":4,\
         \"cross\":true,\"global_s\":1.6}\n",
        "{\"t_ns\":5,\"stage\":\"world.decode\",\"frame\":\"000000000000aaaa\",\
         \"span\":\"00000000000000f1\",\"parent\":\"00000000000000e1\",\"node\":4,\
         \"slot\":5,\"shape\":2,\"id\":35}\n",
        "{\"t_ns\":6,\"stage\":\"world.identify\",\"frame\":\"000000000000aaaa\",\
         \"span\":\"0000000000000101\",\"parent\":\"00000000000000f1\",\"node\":4,\
         \"outcome\":\"identified\"}\n",
    );

    #[test]
    fn chain_renders_in_causal_order_for_one_frame_only() {
        let path = write_temp("chain", TRACE);
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let text = causal(&trace, "0xaaaa").expect("chain");
        assert!(
            text.starts_with("frame 000000000000aaaa — 5 event(s)\n"),
            "{text}"
        );
        let order: Vec<usize> = ["world.tx", "world.drop", "world.deliver", "world.decode"]
            .iter()
            .map(|s| {
                text.find(s)
                    .unwrap_or_else(|| panic!("{s} missing:\n{text}"))
            })
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "order wrong:\n{text}"
        );
        // decode is nested under deliver under tx: three indent levels.
        assert!(text.contains("    \u{2514} world.decode"), "{text}");
        // The identify leaf carries its attribution verdict.
        assert!(text.contains("outcome=identified"), "{text}");
        // Frame bbbb's TX (node 18) must not appear.
        assert!(!text.contains("node=18"), "{text}");
    }

    #[test]
    fn unknown_frame_errs_with_recording_advice() {
        let path = write_temp("unknown", TRACE);
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let err = causal(&trace, "dead").expect_err("absent frame");
        assert!(err.contains("no causal events"), "{err}");
        assert!(err.contains("--trace-out"), "{err}");
    }

    #[test]
    fn malformed_id_is_rejected_before_any_search() {
        let path = write_temp("badid", TRACE);
        let trace = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let err = causal(&trace, "not-hex").expect_err("bad id");
        assert!(err.contains("not a frame trace id"), "{err}");
    }
}
