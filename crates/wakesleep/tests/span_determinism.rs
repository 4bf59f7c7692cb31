//! Thread-count invariance of the span tree (DESIGN.md §10): a seeded
//! deterministic run must produce an identical span *shape* — the set of
//! slash-joined span paths and their call counts — whether it runs on one
//! worker thread or four. Span nodes are keyed on (parent, name), never
//! on thread identity, so the aggregated tree is part of the §8
//! determinism contract even though per-span durations are wall clock.

use dc_grammar::enumeration::EnumerationConfig;
use dc_tasks::domains::list::ListDomain;
use dc_tasks::Domain;
use dc_wakesleep::{Condition, DreamCoder, DreamCoderConfig};

/// Wall clock removed from the loop, MAP fantasies bounded by nats, so
/// the amount of work — and therefore every span count — is seeded.
fn span_config(seed: u64) -> DreamCoderConfig {
    DreamCoderConfig {
        condition: Condition::Full,
        cycles: 2,
        minibatch: 5,
        enumeration: EnumerationConfig {
            max_budget: 8.0,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 6.5,
            ..EnumerationConfig::default()
        },
        compression: dc_vspace::CompressionConfig {
            refactor_steps: 1,
            top_candidates: 10,
            max_inventions: 1,
            ..dc_vspace::CompressionConfig::default()
        },
        recognition: dc_wakesleep::RecognitionConfig {
            fantasies: 4,
            epochs: 2,
            hidden_dim: 8,
            map_fantasies: true,
            map_fantasy_budget: Some(6.0),
        },
        seed,
        ..DreamCoderConfig::default()
    }
}

#[test]
fn span_tree_shape_is_identical_across_thread_counts() {
    dc_telemetry::enable();
    let shape_with = |cap: usize| {
        dc_telemetry::reset_spans();
        rayon::with_max_threads(Some(cap), || {
            let domain = ListDomain::new(0);
            let mut dc = DreamCoder::new(&domain, span_config(23));
            dc.run();
        });
        dc_telemetry::span_shape()
    };
    let single = shape_with(1);
    let many = shape_with(4);
    assert!(
        single
            .iter()
            .any(|(path, _)| path == "cycle.total/cycle.wake/wake.search"),
        "expected wake.search spans nested under cycle.wake, got {single:?}"
    );
    // Held-out evaluation searches through `wake` too: one wake.search
    // span per held-out task and cycle, under cycle.eval.
    let calls = span_config(23).cycles as u64 * ListDomain::new(0).test_tasks().len() as u64;
    assert!(
        single.contains(&("cycle.total/cycle.eval/wake.search".to_owned(), calls)),
        "expected {calls} wake.search spans under cycle.eval, got {single:?}"
    );
    let eval_children: Vec<&str> = single
        .iter()
        .filter_map(|(path, _)| path.strip_prefix("cycle.total/cycle.eval/"))
        .filter(|name| !name.contains('/'))
        .collect();
    assert_eq!(
        eval_children,
        ["wake.predict", "wake.search"],
        "held-out searches must have no span of their own"
    );
    assert!(
        single
            .iter()
            .any(|(path, _)| path == "cycle.total/cycle.dream/dream.fantasies/dream.fantasy"),
        "expected dream.fantasy spans nested under cycle.dream, got {single:?}"
    );
    assert_eq!(
        single, many,
        "span tree shape diverged between 1 and 4 worker threads"
    );
}
