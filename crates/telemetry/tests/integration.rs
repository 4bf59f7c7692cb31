//! Cross-thread and serialization guarantees of the telemetry subsystem.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dc_telemetry::{FieldValue, Histogram, Level};

/// The enable flag and the event sink are process-global; tests that
/// touch them must not interleave.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let _guard = serial();
    dc_telemetry::enable();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;
    let counter = dc_telemetry::counter("test.concurrent.sum");
    let before = counter.value();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter.incr();
                }
            });
        }
    });
    assert_eq!(counter.value() - before, THREADS as u64 * PER_THREAD);
    dc_telemetry::disable();
}

#[test]
fn concurrent_histogram_records_lose_nothing() {
    let h = Histogram::new();
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record_ns(1 + t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS * PER_THREAD);
    // Sum of 1..=40_000.
    let n = THREADS * PER_THREAD;
    assert_eq!(h.sum_ns(), n * (n + 1) / 2);
    assert_eq!(h.max_ns(), n);
}

/// A `Write` that appends into a shared buffer, so the test can read back
/// what the sink wrote.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_sink_round_trips_through_serde_json() {
    let _guard = serial();
    dc_telemetry::enable();
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    dc_telemetry::set_event_sink(Box::new(buf.clone()), Level::Debug);
    dc_telemetry::event(
        Level::Info,
        "test.round_trip",
        &[
            ("count", FieldValue::U64(42)),
            ("loss", FieldValue::F64(0.125)),
            ("ok", FieldValue::Bool(true)),
            ("name", FieldValue::Str("quote \"me\"".to_owned())),
        ],
    );
    dc_telemetry::event(Level::Debug, "test.second", &[("n", FieldValue::I64(-3))]);
    dc_telemetry::clear_event_sink();
    let bytes = buf.0.lock().unwrap_or_else(PoisonError::into_inner).clone();
    dc_telemetry::disable();

    let text = String::from_utf8(bytes).expect("sink output is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSON object per emitted event");
    let first: serde_json::Value = serde_json::from_str(lines[0]).expect("line 0 parses");
    assert_eq!(first["event"].as_str(), Some("test.round_trip"));
    assert_eq!(first["level"].as_str(), Some("info"));
    assert_eq!(first["count"].as_u64(), Some(42));
    assert_eq!(first["loss"].as_f64(), Some(0.125));
    assert_eq!(first["ok"].as_bool(), Some(true));
    assert_eq!(first["name"].as_str(), Some("quote \"me\""));
    assert!(first["ts_ms"].as_u64().is_some(), "timestamp present");
    let second: serde_json::Value = serde_json::from_str(lines[1]).expect("line 1 parses");
    assert_eq!(second["event"].as_str(), Some("test.second"));
    assert_eq!(second["n"].as_i64(), Some(-3));
}

#[test]
fn events_below_sink_level_are_filtered() {
    let _guard = serial();
    dc_telemetry::enable();
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    dc_telemetry::set_event_sink(Box::new(buf.clone()), Level::Warn);
    assert!(!dc_telemetry::event_enabled(Level::Debug));
    assert!(dc_telemetry::event_enabled(Level::Warn));
    dc_telemetry::event(Level::Debug, "test.filtered", &[]);
    dc_telemetry::event(Level::Warn, "test.kept", &[]);
    dc_telemetry::clear_event_sink();
    let text =
        String::from_utf8(buf.0.lock().unwrap_or_else(PoisonError::into_inner).clone()).unwrap();
    dc_telemetry::disable();
    assert_eq!(text.lines().count(), 1);
    assert!(text.contains("test.kept"));
}

/// A sink whose first write panics, as a failing writer inside the panic
/// hook's flush would; later writes land in the shared buffer.
struct PanicOnce {
    armed: bool,
    buf: SharedBuf,
}

impl Write for PanicOnce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if std::mem::take(&mut self.armed) {
            panic!("sink writer failed");
        }
        self.buf.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn telemetry_survives_a_panicking_event_sink() {
    let _guard = serial();
    dc_telemetry::enable();
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    dc_telemetry::set_event_sink(
        Box::new(PanicOnce {
            armed: true,
            buf: buf.clone(),
        }),
        Level::Info,
    );
    let panicked = std::panic::catch_unwind(|| {
        dc_telemetry::event(Level::Info, "test.poison", &[]);
    });
    assert!(panicked.is_err(), "the writer's panic reaches the caller");
    // The sink's lock was poisoned mid-write; every later use recovers it.
    dc_telemetry::event(Level::Info, "test.after_poison", &[]);
    dc_telemetry::flush_events();
    dc_telemetry::add("test.after_poison.counter", 1);
    let snap = dc_telemetry::snapshot();
    dc_telemetry::clear_event_sink();
    dc_telemetry::disable();
    assert_eq!(snap.counters["test.after_poison.counter"], 1);
    let text =
        String::from_utf8(buf.0.lock().unwrap_or_else(PoisonError::into_inner).clone()).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("test.after_poison"));
}

#[test]
fn snapshot_json_parses_back() {
    let _guard = serial();
    dc_telemetry::enable();
    dc_telemetry::add("test.export.counter", 5);
    dc_telemetry::set_gauge("test.export.gauge", 2.5);
    dc_telemetry::histogram("test.export.hist").record(std::time::Duration::from_millis(3));
    let json = dc_telemetry::export_json();
    dc_telemetry::disable();
    let value: serde_json::Value = serde_json::from_str(&json).expect("export parses");
    assert_eq!(value["counters"]["test.export.counter"].as_u64(), Some(5));
    assert_eq!(value["gauges"]["test.export.gauge"].as_f64(), Some(2.5));
    assert!(value["histograms"]["test.export.hist"]["count"].as_u64() >= Some(1));
}
