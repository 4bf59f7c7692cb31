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
        // Enough tasks that a sleep has candidates to score.
        minibatch: 12,
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

    // Export before the fixed-corpus check below, which runs its own
    // `compress` call: the assertions on `raw` are about this run alone.
    let path = std::env::temp_dir().join(format!("telemetry_smoke_{}.json", std::process::id()));
    dreamcoder::telemetry::export_to_file(&path).expect("telemetry export succeeds");
    let raw = std::fs::read_to_string(&path).expect("telemetry.json readable");
    let _ = std::fs::remove_file(&path);
    every_compression_iteration_accounts_for_every_frontier();
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
    // Every frontier of the run's first compression iteration is built.
    assert!(
        counters["compression.frontiers_rebuilt"]
            .as_u64()
            .unwrap_or(0)
            > 0,
        "abstraction sleep must report the frontiers it rebuilt: {raw}"
    );
    assert!(
        counters["compression.frontiers_reused"].as_u64().is_some(),
        "abstraction sleep must report the frontiers it reused: {raw}"
    );
    // Scoring a candidate re-costs at least the nodes containing its body.
    assert!(
        counters["compression.nodes_recosted"].as_u64().unwrap_or(0) > 0,
        "candidate scoring must report the nodes it re-costed: {raw}"
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

/// Each iteration of one `compress` call either rebuilds or reuses each
/// frontier's version spaces, so the two counters grow by the frontier
/// count times the number of `compression.propose_time` spans. A run's
/// frontier count changes from cycle to cycle, so this checks one call
/// on a fixed corpus that accepts an invention, so that it runs more
/// than one iteration.
fn every_compression_iteration_accounts_for_every_frontier() {
    use dreamcoder::grammar::frontier::{Frontier, FrontierEntry};
    use dreamcoder::grammar::library::Library;
    use dreamcoder::grammar::Grammar;
    use dreamcoder::lambda::{base_primitives, Expr};
    use dreamcoder::telemetry::{counter, histogram};
    use std::sync::Arc;

    let prims = base_primitives();
    let library = Arc::new(Library::from_primitives(prims.iter().cloned()));
    let grammar = Grammar::uniform(Arc::clone(&library));
    let request = dreamcoder::lambda::types::tint();
    let frontiers: Vec<Frontier> = ["(+ 1 1)", "(+ 0 0)", "(* (+ 1 1) (+ 1 1))", "(* 1 0)"]
        .iter()
        .map(|src| {
            let expr = Expr::parse(src, &prims).unwrap();
            let mut f = Frontier::new(request.clone());
            f.entries.push(FrontierEntry {
                log_prior: grammar.log_prior(&request, &expr),
                log_likelihood: 0.0,
                expr,
            });
            f
        })
        .collect();
    let visits = || {
        counter("compression.frontiers_rebuilt").value()
            + counter("compression.frontiers_reused").value()
    };
    let iterations = || histogram("compression.propose_time").count();
    let (visits_before, iterations_before) = (visits(), iterations());
    let config = dreamcoder::vspace::CompressionConfig {
        refactor_steps: 1,
        structure_penalty: 0.3,
        max_inventions: 3,
        ..dreamcoder::vspace::CompressionConfig::default()
    };
    let result = dreamcoder::vspace::compress(&library, &frontiers, &config);
    let iterations = iterations() - iterations_before;
    assert!(!result.steps.is_empty());
    assert_eq!(iterations, (result.steps.len() + 1).min(3) as u64);
    assert_eq!(
        visits() - visits_before,
        frontiers.len() as u64 * iterations
    );
}
