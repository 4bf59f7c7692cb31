//! End-to-end smoke test: one tiny wake-sleep run on the list domain must
//! produce a well-formed `telemetry.json` containing the headline metrics
//! (programs enumerated, evaluations run, compression candidates, and the
//! per-cycle phase breakdown). CI runs this as its smoke gate.

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::wakesleep::{Condition, DreamCoder, DreamCoderConfig};

#[test]
fn tiny_run_produces_well_formed_telemetry_json() {
    dreamcoder::telemetry::enable();
    let config = DreamCoderConfig {
        condition: Condition::NoRecognition,
        cycles: 2,
        minibatch: 6,
        enumeration: EnumerationConfig {
            max_budget: 10.5,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 10.5,
            ..EnumerationConfig::default()
        },
        compression: dreamcoder::vspace::CompressionConfig {
            refactor_steps: 1,
            top_candidates: 20,
            max_inventions: 2,
            ..dreamcoder::vspace::CompressionConfig::default()
        },
        seed: 1,
        ..DreamCoderConfig::default()
    };
    let domain = ListDomain::new(0);
    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();
    assert_eq!(summary.cycles.len(), 2);

    let path = std::env::temp_dir().join(format!("telemetry_smoke_{}.json", std::process::id()));
    dreamcoder::telemetry::export_to_file(&path).expect("telemetry export succeeds");
    let raw = std::fs::read_to_string(&path).expect("telemetry.json readable");
    let _ = std::fs::remove_file(&path);
    dreamcoder::telemetry::disable();

    let json: serde_json::Value = serde_json::from_str(&raw).expect("telemetry.json parses");
    let counters = &json["counters"];
    assert!(
        counters["enumeration.programs"].as_u64().unwrap_or(0) > 0,
        "wake search must enumerate programs: {raw}"
    );
    assert!(
        counters["enumeration.budget_windows"].as_u64().unwrap_or(0) > 0,
        "enumeration must open budget windows"
    );
    assert!(
        counters["eval.runs"].as_u64().unwrap_or(0) > 0,
        "checking candidate programs must run the evaluator"
    );
    assert!(
        counters["compression.candidates_proposed"]
            .as_u64()
            .is_some(),
        "abstraction sleep must report its candidate count: {raw}"
    );
    // Per-cycle phase breakdown: every phase histogram saw both cycles.
    let histograms = &json["histograms"];
    for phase in [
        "cycle.total",
        "cycle.wake",
        "cycle.compression",
        "cycle.eval",
    ] {
        assert_eq!(
            histograms[phase]["count"].as_u64(),
            Some(2),
            "phase {phase} must record one sample per cycle: {raw}"
        );
        assert!(
            histograms[phase]["total_ms"].as_f64().unwrap_or(-1.0) >= 0.0,
            "phase {phase} must report milliseconds"
        );
    }
}
