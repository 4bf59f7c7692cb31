//! Grouped wake search against solo search: `wake` enumerates once per
//! (generative grammar, request) group and tests every program against
//! each task of the group. Each task's result must be exactly what a
//! search of that task alone gives: the same beam, bit for bit, and the
//! same search trace.

use std::collections::BTreeSet;

use dc_grammar::enumeration::EnumerationConfig;
use dc_grammar::grammar::{ContextualGrammar, Grammar};
use dc_grammar::library::BigramParent;
use dc_tasks::domains::list::ListDomain;
use dc_tasks::domains::text::TextDomain;
use dc_tasks::task::Task;
use dc_tasks::Domain;
use dc_wakesleep::{wake, Guide, TaskSearchResult};

/// `grammar` with weights that differ from it by production index.
fn reweighted(grammar: &Grammar) -> Grammar {
    let mut other = grammar.clone();
    for (i, w) in other.weights.log_productions.iter_mut().enumerate() {
        *w -= 0.5 * (i % 3) as f64;
    }
    other
}

/// A bigram tensor of its own for the task at `idx`.
fn recognition(grammar: &Grammar, idx: usize) -> ContextualGrammar {
    let mut tensor = ContextualGrammar::uniform(grammar.library.clone());
    let start = tensor.weights_mut(BigramParent::Start, 0);
    let n = start.log_productions.len();
    start.log_productions[idx % n] += 1.0;
    tensor
}

/// Cycle the tasks through three kinds of guide: the uniform grammar, a
/// reweighted grammar (which must not merge with the uniform one), and a
/// recognition tensor per task. Returns the guides and how many search
/// groups they should make.
fn mixed_guides(tasks: &[&Task], grammar: &Grammar) -> (Vec<Guide>, usize) {
    let other = reweighted(grammar);
    let mut generative = BTreeSet::new();
    let mut groups = 0;
    let guides = tasks
        .iter()
        .enumerate()
        .map(|(idx, task)| match idx % 3 {
            2 => {
                groups += 1;
                Guide::Recognition(recognition(grammar, idx))
            }
            kind => {
                groups += usize::from(generative.insert((kind, task.request.to_string())));
                Guide::Generative(if kind == 0 { grammar } else { &other }.clone())
            }
        })
        .collect();
    (guides, groups)
}

fn assert_same(grouped: &TaskSearchResult, solo: &TaskSearchResult) {
    let name = &solo.trace.task;
    assert_eq!(grouped.trace, solo.trace, "trace of {name}");
    // `==` lets 0.0 pass for -0.0; the floats must match to the bit.
    let float_bits = |r: &TaskSearchResult| {
        (
            r.trace.nats_frontier.to_bits(),
            r.trace.best_log_posterior.map(f64::to_bits),
            r.trace.first_hit_nats.map(f64::to_bits),
        )
    };
    assert_eq!(float_bits(grouped), float_bits(solo), "trace of {name}");
    let entries = |r: &TaskSearchResult| -> Vec<(String, u64, u64)> {
        r.frontier
            .entries
            .iter()
            .map(|e| {
                (
                    e.expr.to_string(),
                    e.log_prior.to_bits(),
                    e.log_likelihood.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(entries(grouped), entries(solo), "frontier of {name}");
    assert_eq!(grouped.frontier.request, solo.frontier.request);
}

#[test]
fn grouped_wake_matches_one_search_per_task() {
    let config = EnumerationConfig {
        max_budget: 9.0,
        ..EnumerationConfig::default()
    };
    let list = ListDomain::new(0);
    let text = TextDomain::new(0);
    let domains: [&dyn Domain; 2] = [&list, &text];
    dc_telemetry::enable();
    for domain in domains {
        let grammar = Grammar::uniform(domain.initial_library());
        let tasks: Vec<&Task> = domain
            .train_tasks()
            .iter()
            .chain(domain.test_tasks())
            .collect();
        let (guides, groups) = mixed_guides(&tasks, &grammar);
        assert!(groups < tasks.len(), "some tasks must share a group");

        dc_telemetry::reset_spans();
        let grouped = wake(&tasks, &guides, &grammar, 5, &config);
        let groups = groups as u64;
        assert_eq!(
            dc_telemetry::span_shape(),
            [
                ("wake.search".to_owned(), groups),
                ("wake.search/enumeration.run_time".to_owned(), groups),
            ],
            "one search and one enumeration per group on {}",
            domain.name()
        );

        assert_eq!(grouped.len(), tasks.len());
        let mut solved = 0;
        for (idx, task) in tasks.iter().enumerate() {
            let solo = wake(&[task], &guides[idx..=idx], &grammar, 5, &config);
            assert_same(&grouped[idx], &solo[0]);
            solved += usize::from(!solo[0].frontier.is_empty());
        }
        if domain.name() == "list" {
            assert!(solved > 0, "some list tasks are solved at 9 nats");
        }
    }
}
