//! Tests of the benchmark itself, on the workloads it runs: fingerprints
//! repeat and match the recorded values on 1 and 2 worker threads, and
//! every metric is emitted under a well-formed name that `BENCHMARK.json`
//! declares.

use std::sync::Mutex;

use dcbench::{run, Kind, RunConfig, END_TO_END, PER_LAYER};
use serde_json::Value;

/// The worker-thread cap and the telemetry switch are process-wide, so
/// the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Stack for workload threads: version-space refactoring recurses deeply.
const STACK_BYTES: usize = 256 * 1024 * 1024;

fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("spawn workload thread")
            .join()
            .expect("workload panicked")
    })
}

#[test]
fn fresh_set_ups_on_one_and_two_threads_give_the_recorded_fingerprint() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    for kind in Kind::ALL {
        let (expected, _) = kind.expected();
        for threads in [1, 2] {
            let pass = rayon::with_max_threads(Some(threads), || {
                on_big_stack(|| kind.setup().pass(false).1)
            });
            assert_eq!(pass.failed, 0, "{} on {threads}: {pass:?}", kind.name());
            assert_eq!(
                pass.fingerprint,
                expected,
                "{} on {threads} thread(s) gives {:016x}",
                kind.name(),
                pass.fingerprint
            );
        }
    }
}

fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{section} entry has a {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_is_emitted_with_a_well_formed_declared_name() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), as_owned(&PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json has a workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));

    for kind in Kind::ALL {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let config = RunConfig {
                kind,
                seconds: 0.0,
                trace,
            };
            let report = rayon::with_max_threads(Some(2), || on_big_stack(|| run(&config)));
            // Correct: every pass agreed, matched the recorded fingerprints
            // and passed its checks.
            assert!(report.correct, "{} trace={trace}: {report:?}", kind.name());
            let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
            let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want);
            assert!(names.iter().all(|n| well_formed(n)));
            assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));
            let line: Value = serde_json::from_str(&report.to_json()).expect("report is JSON");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(line.get(key).is_some(), "report lacks {key}");
            }
            if !trace {
                // End-to-end metrics are never 0 on any workload.
                assert!(
                    report.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{}: {:?}",
                    kind.name(),
                    report.metrics
                );
            }
            assert_eq!(
                report.program_stream.is_some(),
                trace && kind == Kind::SearchList
            );
        }
    }
}
