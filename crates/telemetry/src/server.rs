//! Live status server: a dependency-free HTTP endpoint over
//! [`std::net::TcpListener`] (in the spirit of the vendored crates —
//! no framework, no async runtime) that lets an operator inspect a
//! long wake-sleep run while it is running.
//!
//! Three routes:
//!
//! * `/metrics` — Prometheus text exposition (format 0.0.4) of every
//!   registered counter, gauge, and histogram;
//! * `/status`  — a JSON summary: uptime, run-loop fields published via
//!   [`set_status`] (current cycle, phase, solve counts, library size,
//!   checkpoint age), and all gauges;
//! * `/healthz` — `ok`, for liveness probes.
//!
//! Every route reads only atomic metric snapshots and a briefly
//! read-locked status map, so serving a request never blocks the hot
//! loop. One thread, one connection at a time: this is an introspection
//! hatch, not a web server.
//!
//! ## Prometheus naming
//!
//! Internal dotted names (`enumeration.programs`) are exported with the
//! `dc_` prefix and every non-`[a-zA-Z0-9_]` byte mapped to `_`
//! (`dc_enumeration_programs`). Histograms record nanoseconds
//! internally but export seconds, per Prometheus convention, with one
//! cumulative `_bucket` line per occupied power-of-two bucket plus
//! `+Inf`, `_sum`, and `_count`.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::events::FieldValue;

/// Run-loop fields published to `/status` (cycle, phase, solve counts…).
fn status_fields() -> &'static RwLock<BTreeMap<String, FieldValue>> {
    static FIELDS: OnceLock<RwLock<BTreeMap<String, FieldValue>>> = OnceLock::new();
    FIELDS.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn server_epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Publish (or overwrite) one field of the `/status` document. Cheap
/// enough to call at every phase boundary; takes a short write lock.
pub fn set_status(key: &str, value: impl Into<FieldValue>) {
    status_fields()
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key.to_owned(), value.into());
}

/// Remove every published status field (test isolation).
#[doc(hidden)]
pub fn clear_status() {
    status_fields()
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Milliseconds since the unix epoch (0 if the clock is before 1970).
pub fn unix_time_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// `enumeration.programs` → `dc_enumeration_programs`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("dc_");
    for b in name.chars() {
        if b.is_ascii_alphanumeric() || b == '_' {
            out.push(b);
        } else {
            out.push('_');
        }
    }
    out
}

const NS_PER_S: f64 = 1e9;

/// Render every registered metric in Prometheus text exposition format
/// 0.0.4 (what `/metrics` serves; public for tests and one-shot dumps).
pub fn prometheus_text() -> String {
    let mut out = String::new();
    let reg = crate::registry_for_export();
    for (name, c) in reg
        .counters
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        let pn = prom_name(name);
        out.push_str(&format!("# TYPE {pn} counter\n{pn} {}\n", c.value()));
    }
    for (name, g) in reg
        .gauges
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        let pn = prom_name(name);
        out.push_str(&format!("# TYPE {pn} gauge\n{pn} {}\n", g.value()));
    }
    for (name, h) in reg
        .histograms
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        let pn = prom_name(name);
        out.push_str(&format!("# TYPE {pn}_seconds histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in h.bucket_counts().iter().enumerate() {
            if *count == 0 {
                continue;
            }
            cumulative += count;
            // Bucket i holds samples in [2^i, 2^(i+1)) ns; the inclusive
            // Prometheus `le` bound is the bucket's upper edge in seconds.
            let le = (1u128 << (i + 1)) as f64 / NS_PER_S;
            out.push_str(&format!(
                "{pn}_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{pn}_seconds_bucket{{le=\"+Inf\"}} {}\n",
            h.count()
        ));
        out.push_str(&format!(
            "{pn}_seconds_sum {}\n",
            h.sum_ns() as f64 / NS_PER_S
        ));
        out.push_str(&format!("{pn}_seconds_count {}\n", h.count()));
    }
    out
}

/// Render the `/status` JSON document: uptime, published status fields,
/// and all gauges (public for tests and one-shot dumps).
pub fn status_json() -> String {
    use serde_json::{Number, Value};
    let mut root = BTreeMap::new();
    root.insert(
        "uptime_seconds".to_owned(),
        Value::Number(Number::U64(server_epoch().elapsed().as_secs())),
    );
    let fields = status_fields()
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    for (key, value) in fields.iter() {
        root.insert(key.clone(), value.to_json());
    }
    // Derived convenience: how stale is the newest checkpoint?
    if let Some(FieldValue::U64(ms)) = fields.get("last_checkpoint_unix_ms") {
        let age = unix_time_ms().saturating_sub(*ms) / 1000;
        root.insert(
            "checkpoint_age_seconds".to_owned(),
            Value::Number(Number::U64(age)),
        );
    }
    drop(fields);
    let gauges: BTreeMap<String, Value> = crate::snapshot()
        .gauges
        .into_iter()
        .map(|(k, v)| (k, Value::Number(Number::F64(v))))
        .collect();
    root.insert("gauges".to_owned(), Value::Object(gauges));
    serde_json::to_string_pretty(&Value::Object(root)).unwrap_or_else(|_| "{}".to_owned())
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Handle to a running status server; stop with [`StatusServer::shutdown`]
/// (dropping without shutdown leaves the serving thread running until
/// process exit, which is fine for the CLI).
pub struct StatusServer {
    /// The actually bound address (useful when binding port 0).
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the serving thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks; poke it awake with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Start the status server on `addr` (e.g. `127.0.0.1:9090`; port 0 picks
/// a free port — read it back from [`StatusServer::addr`]). Serves
/// `/metrics`, `/status`, and `/healthz` from a dedicated thread.
///
/// # Errors
/// When the address cannot be parsed or bound.
pub fn start_status_server(addr: &str) -> std::io::Result<StatusServer> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty address"))?;
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    server_epoch(); // pin uptime to server start
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("dc-status".to_owned())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = serve_connection(stream);
                }
            }
        })?;
    Ok(StatusServer {
        addr: bound,
        stop,
        thread: Some(thread),
    })
}

/// Most bytes of request line and headers read from one connection.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Longest one connection may take to send its request line and headers.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Read the request head: up to the blank line that ends the headers, or
/// to end of stream. One slow client must not wedge the server, nor an
/// endless one grow its memory: a head longer than [`MAX_HEAD_BYTES`] or
/// slower than [`HEAD_DEADLINE`], however it trickles in, is an error.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&chunk[..n]);
        let tail = &head[from..];
        if n == 0
            || tail.windows(2).any(|w| w == b"\n\n")
            || tail.windows(4).any(|w| w == b"\r\n\r\n")
        {
            return Ok(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ErrorKind::InvalidData.into());
        }
    }
}

fn serve_connection(mut stream: TcpStream) -> std::io::Result<()> {
    let head = read_head(&mut stream)?;
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(),
        ),
        "/status" => ("200 OK", "application/json", status_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_owned(),
        ),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    fn body(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn serves_health_metrics_status_and_404() {
        let _serial = crate::tests::flag_lock();
        crate::enable();
        crate::add("test.server.counter", 3);
        crate::set_gauge("test.server.gauge", 2.5);
        crate::histogram("test.server.hist").record(Duration::from_millis(5));
        set_status("phase", "wake");
        set_status("cycle", 2u64);

        let server = start_status_server("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert_eq!(body(&health), "ok\n");

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        let mb = body(&metrics);
        assert!(mb.contains("# TYPE dc_test_server_counter counter"), "{mb}");
        assert!(mb.contains("dc_test_server_gauge 2.5"), "{mb}");
        assert!(
            mb.contains("dc_test_server_hist_seconds_bucket{le=\"+Inf\"}"),
            "{mb}"
        );
        assert!(mb.contains("dc_test_server_hist_seconds_count"), "{mb}");

        let status = get(addr, "/status");
        let sb = body(&status);
        let parsed: serde_json::Value = serde_json::from_str(sb).expect("status JSON parses");
        assert_eq!(parsed["phase"].as_str(), Some("wake"));
        assert_eq!(parsed["cycle"].as_u64(), Some(2));
        assert!(parsed["uptime_seconds"].as_u64().is_some());

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
    }

    #[test]
    fn oversized_and_trickled_request_heads_are_dropped() {
        let server = start_status_server("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // A request line past the cap, with no newline: dropped at the
        // cap, unanswered, without waiting out the deadline.
        let start = Instant::now();
        let mut endless = TcpStream::connect(addr).expect("connect");
        let _ = endless.write_all(&vec![b'A'; MAX_HEAD_BYTES + 1024]);
        let mut response = Vec::new();
        let _ = endless.read_to_end(&mut response);
        assert!(response.is_empty(), "over-cap head was answered");
        assert!(
            start.elapsed() < HEAD_DEADLINE / 2,
            "over-cap head was read on"
        );
        assert_eq!(body(&get(addr, "/healthz")), "ok\n");

        // One byte at a time, each within the old per-read timeout: the
        // head deadline drops it, so the client queued behind it (accepted
        // in connection order) is served promptly.
        let mut slow = TcpStream::connect(addr).expect("connect");
        let trickler = std::thread::spawn(move || {
            for _ in 0..16 {
                if slow.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        });
        let start = Instant::now();
        assert_eq!(body(&get(addr, "/healthz")), "ok\n");
        assert!(
            start.elapsed() < HEAD_DEADLINE + Duration::from_secs(1),
            "a trickling client held the server for {:?}",
            start.elapsed()
        );
        trickler.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn checkpoint_age_is_derived_from_timestamp() {
        set_status("last_checkpoint_unix_ms", unix_time_ms());
        let parsed: serde_json::Value =
            serde_json::from_str(&status_json()).expect("status JSON parses");
        let age = parsed["checkpoint_age_seconds"].as_u64().expect("age");
        assert!(age < 60, "freshly stamped checkpoint reads as recent");
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("enumeration.programs"), "dc_enumeration_programs");
        assert_eq!(prom_name("wake.task-panics"), "dc_wake_task_panics");
        assert_eq!(prom_name("ok_name9"), "dc_ok_name9");
    }
}
