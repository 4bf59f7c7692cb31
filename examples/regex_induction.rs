//! Generative regex induction (the Fig 10 workflow): observe a handful of
//! strings, search for the MAP probabilistic regex, then *sample* from it
//! to imagine new examples of the same text concept.
//!
//! ```sh
//! cargo run --release --example regex_induction
//! ```

use std::time::Duration;

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::grammar::Grammar;
use dreamcoder::tasks::domains::regex::{run_regex_program, RegexDomain};
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{search_task, Guide};
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let domain = RegexDomain::new(0);
    let library = domain.initial_library();
    let grammar = Grammar::uniform(Arc::clone(&library));
    let guide = Guide::Generative(grammar.clone());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);

    let config = EnumerationConfig {
        timeout: Some(Duration::from_secs(10)),
        ..EnumerationConfig::default()
    };

    // Demo on the lighter concepts; the long ones (phone numbers) need
    // minutes of search — see the fig10_regex bench.
    let wanted = ["integer list entry", "lowercase word", "price"];
    let tasks: Vec<_> = wanted
        .iter()
        .filter_map(|name| {
            domain
                .train_tasks()
                .iter()
                .chain(domain.test_tasks())
                .find(|t| t.name == *name)
        })
        .collect();
    for task in tasks {
        println!("concept {:?}", task.name);
        println!("  observed:");
        for ex in &task.examples {
            println!("    {:?}", ex.output);
        }
        // Search for the maximum-a-posteriori generative regex: a wake
        // search with a beam of one.
        let result = search_task(task, &guide, &grammar, 1, &config);
        match result.frontier.best() {
            Some(best) => {
                let regex = run_regex_program(&best.expr, 10_000).expect("found regex runs");
                println!("  MAP program: {}", regex.display());
                println!("  imagined samples:");
                for _ in 0..4 {
                    let mut s = String::new();
                    let mut budget = 30;
                    regex.sample(&mut rng, &mut s, &mut budget);
                    println!("    {s:?}");
                }
            }
            None => println!("  (no regex found within the budget)"),
        }
        println!();
    }
}
