//! Inverse graphics with LOGO turtle programs: render the task gallery as
//! ASCII art, then solve one task by enumeration and show that the
//! recovered program redraws the target exactly.
//!
//! ```sh
//! cargo run --release --example logo_graphics
//! ```

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::Grammar;
use dreamcoder::tasks::domains::logo::{rasterize, run_logo_program, LogoDomain, CANVAS};
use dreamcoder::tasks::Domain;
use std::collections::BTreeSet;
use std::sync::Arc;

fn ascii(pixels: &BTreeSet<(u8, u8)>) -> String {
    let mut out = String::new();
    for y in (0..CANVAS as u8).rev().step_by(2) {
        for x in 0..CANVAS as u8 {
            let lit = pixels.contains(&(x, y)) || pixels.contains(&(x, y.saturating_sub(1)));
            out.push(if lit { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

fn main() {
    let domain = LogoDomain::new(0);
    println!(
        "LOGO domain: {} train + {} test image tasks",
        domain.train_tasks().len(),
        domain.test_tasks().len()
    );

    // Render a couple of targets.
    for (name, src) in dreamcoder::tasks::domains::logo::ground_truth_programs()
        .iter()
        .filter(|(n, _)| *n == "square" || *n == "four spokes")
    {
        let program = dreamcoder::lambda::Expr::parse(src, domain.primitives()).unwrap();
        let state = run_logo_program(&program, 100_000).unwrap();
        println!("\n{name}:\n{}", ascii(&rasterize(&state.segments)));
    }

    // Solve image tasks by searching program space, easiest first.
    let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
    let config = EnumerationConfig {
        max_budget: 15.0,
        ..EnumerationConfig::default()
    };
    for name in ["line", "right angle", "triangle"] {
        let task = domain
            .train_tasks()
            .iter()
            .chain(domain.test_tasks())
            .find(|t| t.name == name)
            .expect("task exists");
        let mut found = None;
        enumerate_programs_stats(&grammar, &task.request, &config, &mut |expr, _| {
            if task.oracle.log_likelihood(&expr).is_finite() {
                found = Some(expr);
                false
            } else {
                true
            }
        });
        match found {
            Some(program) => {
                println!("solved {name:?} with:\n  {program}");
                let state = run_logo_program(&program, 100_000).unwrap();
                println!("{}", ascii(&rasterize(&state.segments)));
            }
            None => println!(
                "{name:?} not found within {} nats (polygons need deeper search)",
                config.max_budget
            ),
        }
    }
}
