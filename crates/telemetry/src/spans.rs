//! Hierarchical span tracing with lock-free aggregation.
//!
//! A *span* is a named, timed region of the run: entering pushes onto a
//! per-thread span stack, dropping the guard records elapsed time into an
//! aggregation node keyed by `(parent node, name)`. The set of nodes
//! therefore forms a tree mirroring the dynamic call structure (`cycle.total
//! → cycle.wake → wake.search → enumeration.run_time`), and each node
//! accumulates call count, total time, child time (so self-time is
//! `total - child`), and max — all in relaxed atomics, so recording never
//! takes a lock once a node exists.
//!
//! ## Cost model
//!
//! * telemetry disabled: one relaxed load and a predictable branch;
//! * telemetry enabled, node already interned: a read-locked hash lookup on
//!   entry plus a handful of relaxed atomic adds on drop — cheap enough to
//!   leave on at per-task granularity (CI asserts that the traced
//!   `search_list` benchmark run stays within 5% of the untraced wall);
//! * first entry of a new `(parent, name)` pair: one write-locked insert.
//!
//! Spans additionally feed the [`crate::histogram`] of the same name, so
//! quantiles (p50/p99 of per-task search time, say) come for free and the
//! flat histogram section of `telemetry.json` stays populated.
//!
//! ## Crossing thread boundaries
//!
//! The span stack is thread-local, and the vendored rayon fans work out to
//! plain `std::thread::scope` workers whose stacks start empty. Capture
//! [`current_span`] *before* the fan-out and open worker spans with
//! [`span_under`]:
//!
//! ```
//! let parent = dc_telemetry::current_span();
//! // inside a rayon worker closure:
//! let _s = dc_telemetry::span_under(parent, "wake.search");
//! ```
//!
//! Node identity is `(parent node, name)`, never the thread, so the
//! aggregated tree *shape* (paths and call counts) is identical at any
//! `DC_THREADS` — asserted by `crates/wakesleep/tests/span_determinism.rs`.
//! With parallel children the per-node child time can exceed the parent's
//! wall-clock total (children overlap); self-time saturates at zero.
//!
//! ## Chrome trace export
//!
//! When collection is switched on ([`enable_trace_collection`], the CLI's
//! `--trace-out`), every span drop also appends one complete ("ph":"X")
//! trace event to a bounded in-memory buffer; [`export_chrome_trace`]
//! writes the standard `{"traceEvents": [...]}` JSON that
//! `chrome://tracing` and Perfetto load directly.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use serde::Serialize;

use crate::events::FieldValue;
use crate::is_enabled;

/// One aggregation node: a distinct `(parent, name)` pair in the span tree.
struct SpanNode {
    /// Node id (1-based; 0 is the implicit root).
    id: u64,
    /// Span name as passed to [`span`].
    name: &'static str,
    /// Parent node id (0 for top-level spans).
    parent: u64,
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanNode {
    fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Interned span nodes: map for lookup, list for export (index = id - 1).
struct SpanRegistry {
    by_key: HashMap<(u64, &'static str), &'static SpanNode>,
    nodes: Vec<&'static SpanNode>,
}

fn registry() -> &'static RwLock<SpanRegistry> {
    static REGISTRY: OnceLock<RwLock<SpanRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(SpanRegistry {
            by_key: HashMap::new(),
            nodes: Vec::new(),
        })
    })
}

/// Find or create the node for `(parent, name)`.
fn intern(parent: u64, name: &'static str) -> &'static SpanNode {
    if let Some(node) = registry()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .by_key
        .get(&(parent, name))
    {
        return node;
    }
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(node) = reg.by_key.get(&(parent, name)) {
        return node;
    }
    let id = reg.nodes.len() as u64 + 1;
    let node: &'static SpanNode = Box::leak(Box::new(SpanNode {
        id,
        name,
        parent,
        calls: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        child_ns: AtomicU64::new(0),
        max_ns: AtomicU64::new(0),
    }));
    reg.by_key.insert((parent, name), node);
    reg.nodes.push(node);
    node
}

fn node_by_id(id: u64) -> Option<&'static SpanNode> {
    if id == 0 {
        return None;
    }
    registry()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .nodes
        .get(id as usize - 1)
        .copied()
}

thread_local! {
    /// This thread's stack of open spans: `(token, node)`. Tokens let a
    /// guard remove *its own* entry even under out-of-order drops.
    static STACK: RefCell<Vec<(u64, &'static SpanNode)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread token source (tokens only need uniqueness per thread).
    static NEXT_TOKEN: Cell<u64> = const { Cell::new(1) };
    /// Small stable id for trace-event `tid` fields.
    static TRACE_TID: u64 = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
}

/// A position in the span tree that can be carried into worker closures
/// (the propagated parent-span id of DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(u64);

impl SpanHandle {
    /// The root handle: spans opened under it are top-level.
    pub const ROOT: SpanHandle = SpanHandle(0);
}

/// Capture the calling thread's innermost open span (or the root when no
/// span is open) for use with [`span_under`] inside worker closures.
pub fn current_span() -> SpanHandle {
    if !is_enabled() {
        return SpanHandle::ROOT;
    }
    SpanHandle(STACK.with(|s| s.borrow().last().map_or(0, |(_, n)| n.id)))
}

/// RAII guard for one open span; records on drop. Inert (and free) while
/// telemetry is disabled.
#[must_use = "the span records when dropped; binding to _ drops immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    node: &'static SpanNode,
    start: Instant,
    token: u64,
    /// Fields attached to the Chrome trace event (empty ⇒ no `args`).
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// Elapsed time so far (zero for an inert guard).
    pub fn elapsed(&self) -> std::time::Duration {
        self.active
            .as_ref()
            .map_or(std::time::Duration::ZERO, |a| a.start.elapsed())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        active.node.record(ns);
        if let Some(parent) = node_by_id(active.node.parent) {
            parent.child_ns.fetch_add(ns, Ordering::Relaxed);
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(t, _)| *t == active.token) {
                stack.remove(pos);
            }
        });
        // Spans double as timers: same-named histogram gets the sample.
        crate::histogram(active.node.name).record_ns(ns);
        record_trace_event(active.node.name, &active, ns);
    }
}

fn open(parent: u64, name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
    let node = intern(parent, name);
    let token = NEXT_TOKEN.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v
    });
    STACK.with(|s| s.borrow_mut().push((token, node)));
    SpanGuard {
        active: Some(ActiveSpan {
            node,
            start: Instant::now(),
            token,
            fields,
        }),
    }
}

/// Open a span named `name` under the calling thread's innermost open span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    let parent = STACK.with(|s| s.borrow().last().map_or(0, |(_, n)| n.id));
    open(parent, name, Vec::new())
}

/// Open a span under an explicitly captured parent — the bridge that
/// carries the span tree across rayon fan-outs (see module docs).
#[inline]
pub fn span_under(parent: SpanHandle, name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    open(parent.0, name, Vec::new())
}

/// [`span_under`] with trace-event fields. Fields only ever reach the
/// Chrome trace `args`, never the aggregation key, and are not even
/// materialized unless trace collection is on.
#[inline]
pub fn span_under_with_fields(
    parent: SpanHandle,
    name: &'static str,
    fields: &[(&'static str, FieldValue)],
) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    let fields = if trace_collection_enabled() {
        fields.to_vec()
    } else {
        Vec::new()
    };
    open(parent.0, name, fields)
}

// ---------------------------------------------------------------------------
// Aggregated export
// ---------------------------------------------------------------------------

/// One node of the aggregated span tree, as exported in `telemetry.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Total wall-clock across calls, ms.
    pub total_ms: f64,
    /// Self time: total minus time attributed to child spans, ms
    /// (saturating at zero — parallel children can overlap the parent).
    pub self_ms: f64,
    /// Longest single call, ms.
    pub max_ms: f64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanSnapshot>,
}

const NS_PER_MS: f64 = 1e6;

fn snapshot_subtree(
    children_of: &BTreeMap<u64, Vec<&'static SpanNode>>,
    id: u64,
) -> Vec<SpanSnapshot> {
    let Some(kids) = children_of.get(&id) else {
        return Vec::new();
    };
    kids.iter()
        .map(|node| {
            let total = node.total_ns.load(Ordering::Relaxed);
            let child = node.child_ns.load(Ordering::Relaxed);
            SpanSnapshot {
                name: node.name.to_owned(),
                calls: node.calls.load(Ordering::Relaxed),
                total_ms: total as f64 / NS_PER_MS,
                self_ms: total.saturating_sub(child) as f64 / NS_PER_MS,
                max_ms: node.max_ns.load(Ordering::Relaxed) as f64 / NS_PER_MS,
                children: snapshot_subtree(children_of, node.id),
            }
        })
        .collect()
}

/// The aggregated span tree, children sorted by name at every level (so the
/// export is deterministic regardless of interning order).
pub fn span_tree() -> Vec<SpanSnapshot> {
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    let mut children_of: BTreeMap<u64, Vec<&'static SpanNode>> = BTreeMap::new();
    for node in &reg.nodes {
        children_of.entry(node.parent).or_default().push(node);
    }
    drop(reg);
    for kids in children_of.values_mut() {
        kids.sort_by_key(|n| n.name);
    }
    snapshot_subtree(&children_of, 0)
}

/// Flat shape view for determinism tests: `(slash-joined path, calls)`
/// pairs, sorted — everything about the tree except the timings.
pub fn span_shape() -> Vec<(String, u64)> {
    fn walk(prefix: &str, spans: &[SpanSnapshot], out: &mut Vec<(String, u64)>) {
        for s in spans {
            let path = if prefix.is_empty() {
                s.name.clone()
            } else {
                format!("{prefix}/{}", s.name)
            };
            out.push((path.clone(), s.calls));
            walk(&path, &s.children, out);
        }
    }
    let mut out = Vec::new();
    walk("", &span_tree(), &mut out);
    out.sort();
    out
}

/// Drop every interned span node and buffered trace event. Test-only: the
/// registry is process-global, so comparative runs (thread-count
/// determinism, overhead checks) need a clean slate between legs. Callers
/// must ensure no span guards are live.
#[doc(hidden)]
pub fn reset_spans() {
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    reg.by_key.clear();
    reg.nodes.clear();
    drop(reg);
    trace_buffer()
        .events
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

// ---------------------------------------------------------------------------
// Chrome trace-event collection
// ---------------------------------------------------------------------------

/// Keep at most this many trace events in memory; extras are counted in
/// the `trace.events_dropped` counter instead of growing without bound.
const TRACE_CAPACITY: usize = 1 << 20;

struct TraceEvent {
    name: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

struct TraceBuffer {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    events: Mutex<Vec<TraceEvent>>,
}

fn trace_buffer() -> &'static TraceBuffer {
    static BUF: OnceLock<TraceBuffer> = OnceLock::new();
    BUF.get_or_init(|| TraceBuffer {
        enabled: AtomicBool::new(false),
        epoch: OnceLock::new(),
        events: Mutex::new(Vec::new()),
    })
}

/// Start collecting Chrome trace events for every completed span (the
/// CLI's `--trace-out`). Collection costs one short lock per span drop.
pub fn enable_trace_collection() {
    let buf = trace_buffer();
    buf.epoch.get_or_init(Instant::now);
    buf.enabled.store(true, Ordering::Release);
}

/// Stop collecting trace events (the buffer is kept for export).
pub fn disable_trace_collection() {
    trace_buffer().enabled.store(false, Ordering::Release);
}

/// Is trace-event collection currently on?
#[inline]
pub fn trace_collection_enabled() -> bool {
    trace_buffer().enabled.load(Ordering::Relaxed)
}

fn record_trace_event(name: &'static str, active: &ActiveSpan, ns: u64) {
    let buf = trace_buffer();
    if !buf.enabled.load(Ordering::Relaxed) {
        return;
    }
    let epoch = buf.epoch.get_or_init(Instant::now);
    // End timestamp is "now"; subtract the duration for the start.
    let end_us = epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let dur_us = ns / 1_000;
    let ts_us = end_us.saturating_sub(dur_us);
    let tid = TRACE_TID.with(|t| *t);
    let mut events = buf.events.lock().unwrap_or_else(PoisonError::into_inner);
    if events.len() >= TRACE_CAPACITY {
        drop(events);
        crate::incr("trace.events_dropped");
        return;
    }
    events.push(TraceEvent {
        name,
        ts_us,
        dur_us,
        tid,
        fields: active.fields.clone(),
    });
}

/// Render every collected trace event as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` / Perfetto.
pub fn chrome_trace_json() -> String {
    use serde_json::{Number, Value};
    let events = trace_buffer()
        .events
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let rendered: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut obj = BTreeMap::new();
            obj.insert("name".to_owned(), Value::String(e.name.to_owned()));
            obj.insert("ph".to_owned(), Value::String("X".to_owned()));
            obj.insert("ts".to_owned(), Value::Number(Number::U64(e.ts_us)));
            obj.insert("dur".to_owned(), Value::Number(Number::U64(e.dur_us)));
            obj.insert("pid".to_owned(), Value::Number(Number::U64(1)));
            obj.insert("tid".to_owned(), Value::Number(Number::U64(e.tid)));
            if !e.fields.is_empty() {
                let args: BTreeMap<String, Value> = e
                    .fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.to_json()))
                    .collect();
                obj.insert("args".to_owned(), Value::Object(args));
            }
            Value::Object(obj)
        })
        .collect();
    drop(events);
    let mut root = BTreeMap::new();
    root.insert("traceEvents".to_owned(), Value::Array(rendered));
    root.insert("displayTimeUnit".to_owned(), Value::String("ms".to_owned()));
    serde_json::to_string(&Value::Object(root)).unwrap_or_else(|_| "{}".to_owned())
}

/// Write the collected Chrome trace to `path`.
///
/// # Errors
/// When the file cannot be written.
pub fn export_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span state and the enable flag are process-global; tests that
    /// toggle the flag or reset the registry must not interleave with
    /// each other or with the crate's other flag-toggling tests.
    use crate::tests::flag_lock as serial;

    fn find<'a>(spans: &'a [SpanSnapshot], name: &str) -> Option<&'a SpanSnapshot> {
        spans.iter().find(|s| s.name == name)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        crate::disable();
        reset_spans();
        {
            let _s = span("test.disabled_root");
        }
        assert!(span_tree().is_empty());
    }

    #[test]
    fn nesting_aggregates_self_and_child_time() {
        let _guard = serial();
        crate::enable();
        reset_spans();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span("test.inner");
            }
        }
        let tree = span_tree();
        let outer = find(&tree, "test.outer").expect("outer node");
        assert_eq!(outer.calls, 1);
        let inner = find(&outer.children, "test.inner").expect("inner nested");
        assert_eq!(inner.calls, 2);
        assert!(outer.total_ms >= inner.total_ms);
        // Self time excludes the inner span's share.
        assert!(outer.self_ms <= outer.total_ms);
        // Spans also feed the same-named histogram.
        assert!(crate::histogram("test.outer").count() >= 1);
        crate::disable();
    }

    #[test]
    fn handles_carry_parentage_across_threads() {
        let _guard = serial();
        crate::enable();
        reset_spans();
        {
            let _outer = span("test.fanout");
            let parent = current_span();
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(move || {
                        let _s = span_under(parent, "test.worker");
                    });
                }
            });
        }
        let tree = span_tree();
        let outer = find(&tree, "test.fanout").expect("fanout node");
        let worker = find(&outer.children, "test.worker").expect("workers nested under fanout");
        assert_eq!(worker.calls, 3);
        crate::disable();
    }

    #[test]
    fn shape_is_paths_and_calls_only() {
        let _guard = serial();
        crate::enable();
        reset_spans();
        {
            let _a = span("test.shape_a");
            let _b = span("test.shape_b");
        }
        let shape = span_shape();
        assert!(shape.contains(&("test.shape_a".to_owned(), 1)));
        assert!(shape.contains(&("test.shape_a/test.shape_b".to_owned(), 1)));
        crate::disable();
    }

    #[test]
    fn trace_events_round_trip_as_json() {
        let _guard = serial();
        crate::enable();
        reset_spans();
        enable_trace_collection();
        {
            let _s =
                span_under_with_fields(current_span(), "test.traced", &[("task", 7u64.into())]);
        }
        disable_trace_collection();
        let json = chrome_trace_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
        let events = value["traceEvents"].as_array().expect("traceEvents array");
        let ev = events
            .iter()
            .find(|e| e["name"].as_str() == Some("test.traced"))
            .expect("traced span present");
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert!(ev["ts"].as_u64().is_some());
        assert!(ev["dur"].as_u64().is_some());
        assert_eq!(ev["args"]["task"].as_u64(), Some(7));
        crate::disable();
    }

    #[test]
    fn out_of_order_drops_leave_a_clean_stack() {
        let _guard = serial();
        crate::enable();
        reset_spans();
        let a = span("test.ooo_a");
        let b = span("test.ooo_b");
        drop(a); // dropped before b, out of LIFO order
        {
            // New span must still parent under the (still-open) b.
            let _c = span("test.ooo_c");
        }
        drop(b);
        let tree = span_tree();
        let a_node = find(&tree, "test.ooo_a").expect("a at top level");
        assert_eq!(a_node.calls, 1);
        let b_node = find(&a_node.children, "test.ooo_b").expect("b under a");
        assert!(find(&b_node.children, "test.ooo_c").is_some(), "c under b");
        crate::disable();
    }
}
