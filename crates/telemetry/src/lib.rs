//! # dc-telemetry
//!
//! Lightweight, thread-safe metrics and structured events for the
//! wake-sleep loop. Three primitives:
//!
//! * [`Counter`] — monotonic event counts (programs enumerated,
//!   evaluations run, …), sharded across cache lines so rayon wake
//!   workers increment without contending;
//! * [`Gauge`] — last-write-wins values (library size, current loss);
//! * [`Histogram`] — log-bucketed timing distributions (per-candidate
//!   refactor time, per-phase wall-clock), fed by the [`span()`] of the same
//!   name: spans are the one way to time a region.
//!
//! Plus a leveled JSONL [`event`] sink replacing ad-hoc `eprintln!`.
//!
//! ## Near-zero overhead when disabled
//!
//! Telemetry is off until [`enable`] is called. Every recording call
//! first checks one relaxed atomic load and branches out, so
//! instrumented hot paths (the enumeration inner loop, the evaluator)
//! pay roughly a nanosecond when the subsystem is off. Handles returned
//! by [`counter`]/[`gauge`]/[`histogram`] are `&'static`, so call sites
//! can look up once and record many times.
//!
//! ## Snapshots
//!
//! [`snapshot`] captures every metric into a serializable
//! [`TelemetrySnapshot`]; [`export_json`] renders it as the
//! `telemetry.json` the run loop writes next to its report output.
//!
//! ## Live introspection
//!
//! Beyond the flat metrics, the crate carries the run's observability
//! layer (DESIGN.md §10): hierarchical [`span`](fn@span) tracing with
//! flame-style aggregation and Chrome trace-event export
//! ([`export_chrome_trace`]), a hand-rolled HTTP status server
//! ([`start_status_server`]) exposing `/metrics`, `/status`, and
//! `/healthz`, and shutdown plumbing ([`install_sigint_handler`],
//! [`install_abort_flush`]) so interrupted runs still flush what they
//! measured.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

use serde::Serialize;

mod counters;
mod events;
mod histogram;
mod server;
mod shutdown;
mod spans;

pub use counters::{Counter, Gauge};
pub use events::{resolve_level, FieldValue, Level};
pub use histogram::Histogram;
pub use server::{
    clear_status, prometheus_text, set_status, start_status_server, status_json, unix_time_ms,
    StatusServer,
};
pub use shutdown::{
    clear_interrupt, install_abort_flush, install_sigint_handler, interrupt_requested,
    request_interrupt,
};
pub use spans::{
    chrome_trace_json, current_span, disable_trace_collection, enable_trace_collection,
    export_chrome_trace, reset_spans, span, span_shape, span_tree, span_under,
    span_under_with_fields, span_with_fields, trace_collection_enabled, SpanGuard, SpanHandle,
    SpanSnapshot,
};

/// Process-wide on/off switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn telemetry on.
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turn telemetry off (recording becomes a load + branch again).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is telemetry currently on?
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Registry of named metrics. Lookup takes a read lock; the returned
/// handles are `&'static` (leaked once per distinct name) so hot paths
/// look up once and then touch only atomics.
///
/// Every lock in this crate recovers from poisoning
/// (`PoisonError::into_inner`): the panic hook flushes telemetry, so a
/// panic while a lock is held must not turn that flush, or any later
/// recording, into a second panic. The data stays usable: tables grow
/// only by whole entries, and at worst the event sink holds a torn line.
struct Registry {
    counters: RwLock<Vec<(&'static str, &'static Counter)>>,
    gauges: RwLock<Vec<(&'static str, &'static Gauge)>>,
    histograms: RwLock<Vec<(&'static str, &'static Histogram)>>,
    events: events::EventSink,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(Vec::new()),
        gauges: RwLock::new(Vec::new()),
        histograms: RwLock::new(Vec::new()),
        events: events::EventSink::new(),
    })
}

/// The metric tables, for in-crate exporters (the Prometheus endpoint
/// walks raw histograms rather than pre-summarized snapshots).
pub(crate) fn registry_for_export() -> &'static Registry {
    registry()
}

fn lookup<T>(
    table: &RwLock<Vec<(&'static str, &'static T)>>,
    name: &'static str,
    make: impl FnOnce() -> T,
) -> &'static T {
    if let Some((_, existing)) = table
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .find(|(n, _)| *n == name)
    {
        return existing;
    }
    let mut write = table.write().unwrap_or_else(PoisonError::into_inner);
    // Double-check: another thread may have registered between locks.
    if let Some((_, existing)) = write.iter().find(|(n, _)| *n == name) {
        return existing;
    }
    let leaked: &'static T = Box::leak(Box::new(make()));
    write.push((name, leaked));
    leaked
}

/// Get (or register) the counter called `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    lookup(&registry().counters, name, Counter::new)
}

/// Get (or register) the gauge called `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lookup(&registry().gauges, name, Gauge::new)
}

/// Get (or register) the histogram called `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    lookup(&registry().histograms, name, Histogram::new)
}

/// Add `n` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &'static str, n: u64) {
    if is_enabled() {
        counter(name).add(n);
    }
}

/// Add one to the named counter (no-op while disabled).
#[inline]
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// A call-site cache for a counter handle, for hot paths that record on
/// every invocation: [`add`] takes the registry read lock and scans the
/// name table each time, which shows up once a loop runs millions of
/// times per second. A `static CachedCounter` resolves the handle on
/// first use and thereafter costs one acquire load before the sharded
/// atomic add. Recording while disabled is still just a relaxed load
/// and a branch — the handle is not even resolved.
pub struct CachedCounter {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl CachedCounter {
    /// A cache for the counter called `name`. `const`, so it can sit in
    /// a `static` right next to the loop that records into it.
    pub const fn new(name: &'static str) -> CachedCounter {
        CachedCounter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.slot.get_or_init(|| counter(self.name)).add(n);
        }
    }

    /// Add one (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Set the named gauge (no-op while disabled).
#[inline]
pub fn set_gauge(name: &'static str, value: f64) {
    if is_enabled() {
        gauge(name).set(value);
    }
}

/// Install a JSONL event sink writing to `writer`, keeping events at
/// `min_level` and above.
pub fn set_event_sink(writer: Box<dyn std::io::Write + Send>, min_level: Level) {
    registry().events.install(writer, min_level);
}

/// Install a JSONL event sink writing to the file at `path` (truncating
/// it), keeping events at `min_level` and above.
///
/// # Errors
/// When the file cannot be created.
pub fn set_event_file(path: &std::path::Path, min_level: Level) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    set_event_sink(Box::new(std::io::BufWriter::new(file)), min_level);
    Ok(())
}

/// Remove the event sink, flushing buffered lines.
pub fn clear_event_sink() {
    registry().events.uninstall();
}

/// Flush the event sink without removing it.
pub fn flush_events() {
    registry().events.flush();
}

/// Emit a structured event (no-op while disabled or below the sink's
/// level; the filter check is a pair of atomic loads).
#[inline]
pub fn event(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    if is_enabled() {
        registry().events.emit(level, name, fields);
    }
}

/// Would an event at `level` currently be written? Lets call sites skip
/// building expensive field values.
#[inline]
pub fn event_enabled(level: Level) -> bool {
    is_enabled() && registry().events.enabled(level)
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of samples in milliseconds.
    pub total_ms: f64,
    /// Mean sample in milliseconds.
    pub mean_ms: f64,
    /// Median (upper bucket bound) in milliseconds.
    pub p50_ms: f64,
    /// 90th percentile (upper bucket bound) in milliseconds.
    pub p90_ms: f64,
    /// 99th percentile (upper bucket bound) in milliseconds.
    pub p99_ms: f64,
    /// Largest sample in milliseconds.
    pub max_ms: f64,
}

/// Point-in-time capture of every registered metric.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Counter totals by name.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: std::collections::BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: std::collections::BTreeMap<String, HistogramSnapshot>,
    /// Aggregated span tree (flame-style profile), children by name.
    pub spans: Vec<SpanSnapshot>,
}

const NS_PER_MS: f64 = 1e6;

/// Capture all registered metrics right now.
pub fn snapshot() -> TelemetrySnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, c)| ((*name).to_owned(), c.value()))
        .collect();
    let gauges = reg
        .gauges
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, g)| ((*name).to_owned(), g.value()))
        .collect();
    let histograms = reg
        .histograms
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, h)| {
            (
                (*name).to_owned(),
                HistogramSnapshot {
                    count: h.count(),
                    total_ms: h.sum_ns() as f64 / NS_PER_MS,
                    mean_ms: h.mean_ns() / NS_PER_MS,
                    p50_ms: h.quantile_ns(0.5) as f64 / NS_PER_MS,
                    p90_ms: h.quantile_ns(0.9) as f64 / NS_PER_MS,
                    p99_ms: h.quantile_ns(0.99) as f64 / NS_PER_MS,
                    max_ms: h.max_ns() as f64 / NS_PER_MS,
                },
            )
        })
        .collect();
    TelemetrySnapshot {
        counters,
        gauges,
        histograms,
        spans: span_tree(),
    }
}

/// Render the current snapshot as pretty JSON (the `telemetry.json`
/// payload).
pub fn export_json() -> String {
    serde_json::to_string_pretty(&snapshot()).unwrap_or_else(|_| "{}".to_owned())
}

/// Write the current snapshot to `path` as `telemetry.json`.
///
/// # Errors
/// When the file cannot be written.
pub fn export_to_file(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, export_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag is process-global, so tests that toggle it must
    /// not interleave.
    use std::sync::{Mutex, MutexGuard};

    fn flag_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _serial = flag_lock();
        disable();
        add("test.disabled", 10);
        incr("test.disabled");
        // The counter was never even registered.
        assert!(!snapshot().counters.contains_key("test.disabled"));
    }

    #[test]
    fn handles_are_stable() {
        let a = counter("test.stable");
        let b = counter("test.stable");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn cached_counter_shares_the_named_counter() {
        let _serial = flag_lock();
        static CACHED: CachedCounter = CachedCounter::new("test.cached");
        disable();
        CACHED.add(99);
        // Disabled adds neither record nor resolve the handle.
        assert!(!snapshot().counters.contains_key("test.cached"));
        enable();
        CACHED.add(3);
        CACHED.incr();
        assert_eq!(counter("test.cached").value(), 4);
        disable();
    }

    #[test]
    fn snapshot_reflects_metrics() {
        let _serial = flag_lock();
        enable();
        add("test.snapshot.count", 7);
        set_gauge("test.snapshot.gauge", 1.5);
        histogram("test.snapshot.hist").record(std::time::Duration::from_millis(2));
        let snap = snapshot();
        assert_eq!(snap.counters["test.snapshot.count"], 7);
        assert_eq!(snap.gauges["test.snapshot.gauge"], 1.5);
        assert_eq!(snap.histograms["test.snapshot.hist"].count, 1);
        let json = export_json();
        assert!(json.contains("test.snapshot.count"));
        disable();
    }
}
