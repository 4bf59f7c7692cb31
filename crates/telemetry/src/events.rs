//! Leveled, structured JSONL event sink.
//!
//! Replaces the ad-hoc `eprintln!` debugging the library crates used to
//! do: events are named, carry typed fields, and land as one JSON object
//! per line in whatever writer the host installed (usually a file next to
//! the run's report output). When no sink is installed, emitting an event
//! is a relaxed load and a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use serde_json::Value;

/// Event severity. Ordered so a sink can filter with `level >= min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-candidate, per-window detail).
    Debug = 0,
    /// Normal progress (per-phase, per-cycle milestones).
    Info = 1,
    /// Something degraded but the run continues.
    Warn = 2,
}

impl Level {
    /// Lowercase name, as written in JSONL output and accepted by
    /// [`Level::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }

    /// Parse a level name, case-insensitively (`debug` / `info` /
    /// `warn`; `warning` is accepted as an alias).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            _ => None,
        }
    }
}

/// Resolve the event-sink level from the standard sources, in documented
/// precedence order: an explicit `--log-level` flag beats the `DC_LOG`
/// environment variable beats the default ([`Level::Info`]).
/// Unparseable values are ignored (falling through to the next source)
/// rather than erroring, so a typo degrades loudness, not the run.
pub fn resolve_level(flag: Option<&str>, env: Option<&str>) -> Level {
    flag.and_then(Level::parse)
        .or_else(|| env.and_then(Level::parse))
        .unwrap_or(Level::Info)
}

/// A typed field value attached to an event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

impl_field_from! {
    i32 => I64 as i64,
    i64 => I64 as i64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    pub(crate) fn to_json(&self) -> Value {
        match self {
            FieldValue::I64(v) => Value::Number(serde_json::Number::I64(*v)),
            FieldValue::U64(v) => Value::Number(serde_json::Number::U64(*v)),
            FieldValue::F64(v) => Value::Number(serde_json::Number::F64(*v)),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::String(v.clone()),
        }
    }
}

/// The process-wide event sink.
pub(crate) struct EventSink {
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    /// `Level` of the installed sink, stored as its discriminant; 255
    /// means "no sink" so the hot path is one load + compare.
    min_level: AtomicU8,
}

const NO_SINK: u8 = u8::MAX;

impl EventSink {
    pub(crate) const fn new() -> EventSink {
        EventSink {
            writer: Mutex::new(None),
            min_level: AtomicU8::new(NO_SINK),
        }
    }

    pub(crate) fn install(&self, writer: Box<dyn Write + Send>, min_level: Level) {
        *self.writer.lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
        self.min_level.store(min_level as u8, Ordering::Release);
    }

    /// Remove the sink, flushing and returning nothing.
    pub(crate) fn uninstall(&self) {
        self.min_level.store(NO_SINK, Ordering::Release);
        if let Some(mut w) = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = w.flush();
        }
    }

    pub(crate) fn enabled(&self, level: Level) -> bool {
        level as u8 >= self.min_level.load(Ordering::Acquire)
    }

    pub(crate) fn emit(&self, level: Level, name: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled(level) {
            return;
        }
        let mut map = BTreeMap::new();
        map.insert(
            "ts_ms".to_owned(),
            Value::Number(serde_json::Number::U64(now_ms())),
        );
        map.insert("level".to_owned(), Value::String(level.as_str().to_owned()));
        map.insert("event".to_owned(), Value::String(name.to_owned()));
        for (key, value) in fields {
            map.insert((*key).to_owned(), value.to_json());
        }
        let line = match serde_json::to_string(&Value::Object(map)) {
            Ok(line) => line,
            Err(_) => return,
        };
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(writer) = guard.as_mut() {
            let _ = writeln!(writer, "{line}");
        }
    }

    pub(crate) fn flush(&self) {
        if let Some(writer) = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            let _ = writer.flush();
        }
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips_and_tolerates_case() {
        for level in [Level::Debug, Level::Info, Level::Warn] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("  WARN "), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn resolve_level_prefers_flag_then_env_then_default() {
        assert_eq!(resolve_level(Some("debug"), Some("warn")), Level::Debug);
        assert_eq!(resolve_level(None, Some("warn")), Level::Warn);
        assert_eq!(resolve_level(None, None), Level::Info);
        // Garbage at one layer falls through to the next.
        assert_eq!(resolve_level(Some("nope"), Some("debug")), Level::Debug);
        assert_eq!(resolve_level(Some("nope"), Some("nope")), Level::Info);
    }
}
