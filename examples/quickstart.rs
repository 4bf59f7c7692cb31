//! Quickstart: run a few wake/sleep cycles on the list-processing domain
//! and print what DreamCoder learned.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{Condition, DreamCoder, DreamCoderConfig};

fn main() {
    let domain = ListDomain::new(0);
    println!(
        "list domain: {} train tasks, {} held-out test tasks",
        domain.train_tasks().len(),
        domain.test_tasks().len()
    );

    // Budgets here are laptop-scale (this reproduction runs on a single
    // CPU; the paper used 20-100). Raise the nats budgets for better
    // results; each 1.5 nats costs several times the search.
    let config = DreamCoderConfig {
        condition: Condition::Full,
        cycles: 3,
        minibatch: 10,
        enumeration: EnumerationConfig {
            max_budget: 13.5,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 13.5,
            ..EnumerationConfig::default()
        },
        compression: dreamcoder::vspace::CompressionConfig {
            top_candidates: 25,
            structure_penalty: 1.0,
            ..dreamcoder::vspace::CompressionConfig::default()
        },
        seed: 0,
        ..DreamCoderConfig::default()
    };

    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();

    println!("\ncycle | train solved | test solved | library size | depth");
    for c in &summary.cycles {
        println!(
            "{:>5} | {:>12} | {:>10.0}% | {:>12} | {:>5}",
            c.cycle,
            c.train_solved,
            100.0 * c.test_solved,
            c.library_size,
            c.library_depth
        );
    }

    println!("\nlearned library routines:");
    if summary.library.is_empty() {
        println!("  (none this run — try more cycles or larger budgets)");
    }
    for inv in &summary.library {
        println!("  {inv}");
    }

    // Show a solution to one solved task in terms of the learned library.
    if let Some((idx, frontier)) = dc.frontiers.iter().next() {
        let task = &domain.train_tasks()[*idx];
        if let Some(best) = frontier.best() {
            println!(
                "\nexample solution for task {:?}:\n  {}",
                task.name, best.expr
            );
        }
    }
}
