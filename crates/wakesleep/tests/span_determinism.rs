//! Thread-count invariance of the span tree (DESIGN.md §10): a seeded
//! deterministic run must produce an identical span *shape* — the set of
//! slash-joined span paths and their call counts — whether it runs on one
//! worker thread or four. Span nodes are keyed on (parent, name), never
//! on thread identity, so the aggregated tree is part of the §8
//! determinism contract even though per-span durations are wall clock.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use dc_grammar::enumeration::EnumerationConfig;
use dc_tasks::domains::list::ListDomain;
use dc_tasks::Domain;
use dc_wakesleep::{Condition, DreamCoder, DreamCoderConfig, RunSummary};

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

/// Run `config` on the list domain with at most `cap` worker threads;
/// return the run's span shape and its summary. Spans are process-wide,
/// so the runs of this file's tests take turns.
fn shape_with(config: &DreamCoderConfig, cap: usize) -> (Vec<(String, u64)>, RunSummary) {
    static SPANS: Mutex<()> = Mutex::new(());
    let _turn = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    dc_telemetry::enable();
    dc_telemetry::reset_spans();
    let summary = rayon::with_max_threads(Some(cap), || {
        let domain = ListDomain::new(0);
        DreamCoder::new(&domain, config.clone()).run()
    });
    (dc_telemetry::span_shape(), summary)
}

/// Calls recorded for the span at `path`, or 0.
fn calls(shape: &[(String, u64)], path: &str) -> u64 {
    shape
        .iter()
        .find(|(p, _)| p == path)
        .map_or(0, |&(_, calls)| calls)
}

#[test]
fn span_tree_shape_is_identical_across_thread_counts() {
    let (single, _) = shape_with(&span_config(23), 1);
    let (many, _) = shape_with(&span_config(23), 4);
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

#[test]
fn generative_wake_searches_once_per_request() {
    // Without a recognition model every task is guided by the generative
    // grammar, so `wake` groups each minibatch by request: one
    // `wake.search` span per distinct request, at any thread count.
    let config = DreamCoderConfig {
        condition: Condition::NoRecognition,
        ..span_config(23)
    };
    let (single, summary) = shape_with(&config, 1);
    let (many, _) = shape_with(&config, 4);
    assert_eq!(
        single, many,
        "span tree shape diverged between 1 and 4 worker threads"
    );

    let domain = ListDomain::new(0);
    let requests: BTreeMap<&str, String> = domain
        .train_tasks()
        .iter()
        .map(|t| (t.name.as_str(), t.request.to_string()))
        .collect();
    let wake_groups: usize = summary
        .cycles
        .iter()
        .map(|cycle| {
            let minibatch: BTreeSet<&String> = cycle
                .search_traces
                .iter()
                .map(|trace| &requests[trace.task.as_str()])
                .collect();
            minibatch.len()
        })
        .sum();
    assert!(
        wake_groups < config.cycles * config.minibatch,
        "some minibatch tasks must share a request"
    );
    assert_eq!(
        calls(&single, "cycle.total/cycle.wake/wake.search"),
        wake_groups as u64,
        "one wake.search span per distinct request in each minibatch"
    );
    let held_out: BTreeSet<String> = domain
        .test_tasks()
        .iter()
        .map(|t| t.request.to_string())
        .collect();
    assert_eq!(
        calls(&single, "cycle.total/cycle.eval/wake.search"),
        (config.cycles * held_out.len()) as u64,
        "one held-out wake.search span per distinct request and cycle"
    );
}
