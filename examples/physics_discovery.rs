//! Learning a language for physical laws (§5.2, Fig 11A): starting from
//! recursive sequence primitives and arithmetic, solve laws by search and
//! let abstraction sleep invent vector-algebra building blocks.
//!
//! ```sh
//! cargo run --release --example physics_discovery
//! ```

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::tasks::domains::physics::PhysicsDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{Condition, DreamCoder, DreamCoderConfig};

fn main() {
    let domain = PhysicsDomain::new(0);
    println!(
        "physics domain: {} laws to explain",
        domain.train_tasks().len()
    );

    let config = DreamCoderConfig {
        condition: Condition::NoRecognition, // abstraction is the star here
        cycles: 3,
        minibatch: 20,
        enumeration: EnumerationConfig {
            max_budget: 15.0,
            ..EnumerationConfig::default()
        },
        compression: dreamcoder::vspace::CompressionConfig {
            top_candidates: 25,
            structure_penalty: 0.5,
            ..dreamcoder::vspace::CompressionConfig::default()
        },
        seed: 7,
        ..DreamCoderConfig::default()
    };

    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();

    let last = summary.cycles.last().unwrap();
    println!(
        "\nsolved {}/{} laws after {} cycles",
        last.train_solved,
        domain.train_tasks().len(),
        summary.cycles.len()
    );
    println!("learned mathematical vocabulary:");
    for inv in &summary.library {
        println!("  {inv}");
    }

    println!("\nexample solved laws:");
    let mut shown = 0;
    for (idx, frontier) in &dc.frontiers {
        if shown >= 5 {
            break;
        }
        if let Some(best) = frontier.best() {
            println!("  {:<35} {}", domain.train_tasks()[*idx].name, best.expr);
            shown += 1;
        }
    }
}
