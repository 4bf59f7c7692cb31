//! End-to-end integration: a miniature DreamCoder run on the list domain,
//! exercising wake search, abstraction sleep, dream sleep, and held-out
//! evaluation together.

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{Condition, DreamCoder, DreamCoderConfig};

fn tiny_config(condition: Condition, seed: u64) -> DreamCoderConfig {
    DreamCoderConfig {
        condition,
        cycles: 2,
        minibatch: 8,
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
            top_candidates: 15,
            max_inventions: 2,
            ..dreamcoder::vspace::CompressionConfig::default()
        },
        recognition: dreamcoder::wakesleep::RecognitionConfig {
            fantasies: 5,
            epochs: 2,
            ..dreamcoder::wakesleep::RecognitionConfig::default()
        },
        seed,
        ..DreamCoderConfig::default()
    }
}

#[test]
fn full_condition_solves_and_stays_semantically_sound() {
    let domain = ListDomain::new(0);
    let mut dc = DreamCoder::new(&domain, tiny_config(Condition::Full, 1));
    let summary = dc.run();
    let last = summary.cycles.last().unwrap();
    assert!(last.train_solved >= 2, "solved only {}", last.train_solved);

    // Every stored frontier member must still solve its task — through
    // compression rewrites and re-scoring.
    for (idx, frontier) in &dc.frontiers {
        let task = &domain.train_tasks()[*idx];
        for entry in &frontier.entries {
            assert!(
                task.check(&entry.expr),
                "frontier entry {} no longer solves {:?}",
                entry.expr,
                task.name
            );
        }
    }
}

#[test]
fn conditions_report_consistent_metrics() {
    let domain = ListDomain::new(0);
    for condition in [Condition::EnumerationOnly, Condition::NoCompression] {
        let mut dc = DreamCoder::new(&domain, tiny_config(condition, 2));
        let summary = dc.run();
        assert_eq!(summary.condition, condition.label());
        assert_eq!(summary.domain, "list");
        for c in &summary.cycles {
            assert!(c.test_solved >= 0.0 && c.test_solved <= 1.0);
            assert!(c.library_size >= domain.initial_library().len());
        }
    }
}

#[test]
fn summary_serializes_to_json() {
    let domain = ListDomain::new(0);
    let mut dc = DreamCoder::new(&domain, tiny_config(Condition::EnumerationOnly, 3));
    let summary = dc.run();
    let json = serde_json::to_string(&summary).expect("serializable");
    assert!(json.contains("\"condition\""));
    assert!(json.contains("\"cycles\""));
}
