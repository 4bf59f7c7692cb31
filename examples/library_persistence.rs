//! Persisting a learned library: run a short wake/sleep loop, save the
//! resulting grammar (library + weights) to JSON, reload it, and use the
//! reloaded grammar to solve a task — the workflow a downstream user
//! needs to ship what DreamCoder learned.
//!
//! ```sh
//! cargo run --release --example library_persistence
//! ```

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::grammar::{load_grammar, save_grammar};
use dreamcoder::lambda::pretty;
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{search_task, Condition, DreamCoder, DreamCoderConfig, Guide};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let domain = ListDomain::new(0);
    let config = DreamCoderConfig {
        condition: Condition::NoRecognition,
        cycles: 2,
        minibatch: 12,
        enumeration: EnumerationConfig {
            max_budget: 13.5,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 12.0,
            ..EnumerationConfig::default()
        },
        seed: 0,
        ..DreamCoderConfig::default()
    };
    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();
    println!(
        "trained {} cycles; {} inventions",
        summary.cycles.len(),
        summary.library.len()
    );

    // Save the learned grammar.
    let saved = save_grammar(&dc.grammar);
    let json = serde_json::to_string_pretty(&saved)?;
    std::fs::create_dir_all("results")?;
    std::fs::write("results/learned_list_grammar.json", &json)?;
    println!(
        "saved grammar to results/learned_list_grammar.json ({} bytes)",
        json.len()
    );

    // Reload it against the same primitive set and solve a task with it.
    let reloaded: dreamcoder::grammar::SavedGrammar = serde_json::from_str(&json)?;
    let grammar = load_grammar(&reloaded, domain.primitives())?;
    println!("reloaded library of {} productions", grammar.library.len());

    let task = domain
        .train_tasks()
        .iter()
        .chain(domain.test_tasks())
        .find(|t| t.name == "sum")
        .expect("sum task exists");
    let result = search_task(
        task,
        &Guide::Generative(grammar.clone()),
        &grammar,
        5,
        &EnumerationConfig {
            max_budget: 15.0,
            ..EnumerationConfig::default()
        },
    );
    match result.frontier.best() {
        Some(best) => println!(
            "reloaded grammar solves {:?}:\n  {}\n  pretty: {}",
            task.name,
            best.expr,
            pretty(&best.expr)
        ),
        None => println!("not solved within the demo budget"),
    }
    Ok(())
}
