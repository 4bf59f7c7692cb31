//! Origami programming (§5.2, Fig 11B): bootstrap functional programming
//! from a 1959-Lisp basis (plus the fixed-point combinator), letting
//! abstraction sleep rediscover recursion schemes like fold.
//!
//! ```sh
//! cargo run --release --example origami
//! ```

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::tasks::domains::origami::OrigamiDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{Condition, DreamCoder, DreamCoderConfig};

fn main() {
    let domain = OrigamiDomain::new(0);
    println!(
        "origami: {} tasks from the 1959-Lisp basis (no recognition model, as in the paper)",
        domain.train_tasks().len()
    );

    let config = DreamCoderConfig {
        condition: Condition::NoRecognition,
        cycles: 4,
        minibatch: 20,
        enumeration: EnumerationConfig {
            max_budget: 13.5,
            ..EnumerationConfig::default()
        },
        compression: dreamcoder::vspace::CompressionConfig {
            refactor_steps: 2,
            structure_penalty: 0.5,
            top_candidates: 30,
            ..dreamcoder::vspace::CompressionConfig::default()
        },
        seed: 3,
        ..DreamCoderConfig::default()
    };

    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();

    for c in &summary.cycles {
        println!(
            "cycle {}: solved {}/20, library {} routines (depth {})",
            c.cycle, c.train_solved, c.library_size, c.library_depth
        );
        for inv in &c.new_inventions {
            println!("  invented {inv}");
        }
    }

    if dc.frontiers.is_empty() {
        println!(
            "\nno tasks solved: the first fix-programs here are ~14 nodes deep,\n\
             which the paper reached with ~5 days x 64 CPUs of search. Run\n\
             `cargo test --release --test claims e12 -- --nocapture`\n\
             for the seeded reproduction of the fold-discovery result."
        );
        return;
    }
    println!("\nsolutions in terms of the learned library:");
    for (idx, frontier) in dc.frontiers.iter().take(8) {
        if let Some(best) = frontier.best() {
            println!("  {:<28} {}", domain.train_tasks()[*idx].name, best.expr);
        }
    }
}
