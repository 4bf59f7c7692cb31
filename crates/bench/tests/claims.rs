//! The paper's claims that reproduce at this scale, as assertions:
//! EXPERIMENTS.md E2/E3 (refactoring exposes `map`), E4 (only bigram +
//! `L_MAP` breaks symmetry), E12 (origami: refactoring invents `fold`,
//! subtree compression nothing) and E16 (`map` needs two inverse-β steps).
//!
//! Every budget is in nats or a fixed count, never wall clock, and E4 is
//! seeded, so each printed table is the same on every machine, on every
//! run and at any thread count. Regenerate every row with
//!
//! ```text
//! cargo test --release -p dc-bench --test claims -- --include-ignored --nocapture
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use dc_grammar::enumeration::{enumerate_programs, EnumerationConfig};
use dc_grammar::frontier::{Frontier, FrontierEntry};
use dc_grammar::grammar::Grammar;
use dc_grammar::library::Library;
use dc_grammar::sample::sample_program_with_retries;
use dc_lambda::eval::run_program;
use dc_lambda::expr::{Expr, PrimitiveLookup};
use dc_lambda::primitives::base_primitives;
use dc_lambda::types::{tint, tlist, Type};
use dc_lambda::Value;
use dc_recognition::{Objective, Parameterization, RecognitionModel, TrainingExample};
use dc_tasks::domains::origami::OrigamiDomain;
use dc_tasks::Domain;
use dc_vspace::{compress, CompressionConfig, CompressionStep, SpaceArena};
use dc_wakesleep::report::table;
use dc_wakesleep::{abstraction_sleep, search_task, Condition, Guide};
use rand::{Rng, SeedableRng};

const DOUBLE_ALL: &str = "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
const DECREMENT_ALL: &str =
    "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (- (car $0) 1) ($1 (cdr $0)))))) $0))";
const SQUARE_ALL: &str = "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (* (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
const INCREMENT_ALL: &str =
    "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) 1) ($1 (cdr $0)))))) $0))";

/// The `map` skeleton: `λf. fix (λr.λl. if (is-nil l) nil (cons (f (car l)) (r (cdr l))))`.
const MAP: &str =
    "#(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons ($2 (car $0)) ($1 (cdr $0))))))))";
/// The `fold` skeleton: `λf.λz. fix (λr.λl. if (is-nil l) z (f (car l) (r (cdr l))))`.
const FOLD: &str =
    "#(lambda (lambda (fix (lambda (lambda (if (is-nil $0) $2 ($3 (car $0) ($1 (cdr $0)))))))))";

/// A one-entry frontier holding `src`, scored by `grammar`.
fn frontier(src: &str, request: &Type, grammar: &Grammar, prims: &dyn PrimitiveLookup) -> Frontier {
    let expr = Expr::parse(src, prims).unwrap();
    let mut f = Frontier::new(request.clone());
    f.insert(
        FrontierEntry {
            log_prior: grammar.log_prior(request, &expr),
            log_likelihood: 0.0,
            expr,
        },
        5,
    );
    f
}

/// Compress `[int] -> [int]` programs over the base primitives with the
/// given inverse-β step bound.
fn compress_list_programs(
    sources: &[&str],
    refactor_steps: usize,
    top_candidates: usize,
) -> (Vec<Frontier>, dc_vspace::CompressionResult) {
    let prims = base_primitives();
    let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
    let g = Grammar::uniform(Arc::clone(&lib));
    let t = Type::arrow(tlist(tint()), tlist(tint()));
    let frontiers: Vec<Frontier> = sources
        .iter()
        .map(|s| frontier(s, &t, &g, &prims))
        .collect();
    let cfg = CompressionConfig {
        refactor_steps,
        top_candidates,
        max_inventions: 2,
        ..CompressionConfig::default()
    };
    let result = compress(&lib, &frontiers, &cfg);
    (frontiers, result)
}

fn best_size(f: &Frontier) -> usize {
    f.entries[0].expr.size()
}

fn invention_names(steps: &[CompressionStep]) -> Vec<String> {
    steps.iter().map(|s| s.invention.name.clone()).collect()
}

/// Print a measured table under `--nocapture`.
fn print_table(title: &str, header: &[&str], rows: Vec<Vec<String>>) {
    let header = header.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = std::iter::once(header).chain(rows).collect();
    println!("== {title} ==\n{}", table(&rows));
}

/// E2: two recursive programs that share no surface subtree beyond the
/// recursion scaffold compress to the `map` skeleton after two
/// inverse-β steps, and both rewrite to a third of their size.
#[test]
fn e2_compression_extracts_map_from_two_recursive_programs() {
    let (before, result) = compress_list_programs(&[DOUBLE_ALL, DECREMENT_ALL], 2, 150);
    let sizes: Vec<_> = before
        .iter()
        .zip(&result.frontiers)
        .map(|(b, a)| (best_size(b), best_size(a)))
        .collect();
    print_table(
        "E2: compression with n = 2 invents map",
        &["nodes", "rewritten nodes", "rewritten as"],
        sizes
            .iter()
            .zip(&result.frontiers)
            .map(|((b, a), f)| vec![b.to_string(), a.to_string(), f.entries[0].expr.to_string()])
            .collect(),
    );
    assert_eq!(invention_names(&result.steps), [MAP]);
    assert_eq!(sizes, [(32, 11), (30, 11)]);
}

/// E3: the version space of the 32-node `double each` program's n-step
/// refactoring, and how many refactorings it represents (saturating at
/// 10^30).
fn assert_space_nodes(expected: &[(usize, usize)]) {
    let prims = base_primitives();
    let e = Expr::parse(DOUBLE_ALL, &prims).unwrap();
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for &(n, _) in expected {
        let mut arena = SpaceArena::new();
        let space = arena.refactor(&e, n);
        let count = arena.extension_count(space, 1e30);
        rows.push(vec![
            n.to_string(),
            arena.len().to_string(),
            format!("{count:.3e}"),
        ]);
        measured.push((n, arena.len()));
    }
    print_table(
        "E3: version-space economics",
        &["steps n", "space nodes", "refactorings"],
        rows,
    );
    assert_eq!(measured, expected);
}

#[test]
fn e3_refactoring_space_sizes() {
    assert_space_nodes(&[(1, 654), (2, 17_207)]);
}

#[test]
#[ignore = "7.5 s in a debug build; CI runs it in release"]
fn e3_refactoring_space_size_at_three_steps() {
    assert_space_nodes(&[(3, 545_121)]);
}

/// The operands of `e` if it is an addition `(+ a b)`.
fn plus_operands(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e {
        Expr::Application(f, b) => match &**f {
            Expr::Application(g, a) if g.to_string() == "+" => Some((a, b)),
            _ => None,
        },
        _ => None,
    }
}

/// Does `e` add a literal `0` anywhere?
fn has_plus_zero(e: &Expr) -> bool {
    e.subexpressions()
        .into_iter()
        .filter_map(plus_operands)
        .any(|(a, b)| a.to_string() == "0" || b.to_string() == "0")
}

/// Nested additions in `e`: (right-nested, left-nested) counts.
fn associativity(e: &Expr) -> (usize, usize) {
    let additions = e.subexpressions().into_iter().filter_map(plus_operands);
    additions.fold((0, 0), |(right, left), (a, b)| {
        (
            right + usize::from(plus_operands(b).is_some()),
            left + usize::from(plus_operands(a).is_some()),
        )
    })
}

/// E4's four regimes: (name, share of nested additions in the dominant
/// direction, share of samples adding zero).
fn symmetry_table() -> Vec<(String, f64, f64)> {
    let prims = base_primitives();
    let library = Arc::new(Library::from_primitives(
        prims
            .iter()
            .filter(|p| ["+", "0", "1"].contains(&p.name.as_str()))
            .cloned(),
    ));
    let grammar = Grammar::uniform(Arc::clone(&library));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);

    // Dreamed training tasks: the values 0..=6, each with its five
    // cheapest programs. L_MAP trains on the cheapest, L_post on all five
    // weighted by posterior. Keyed in value order, so SGD order and every
    // later draw from `rng` are fixed.
    let mut targets: BTreeMap<i64, Vec<(Expr, f64)>> = BTreeMap::new();
    enumerate_programs(
        &grammar,
        &tint(),
        &EnumerationConfig::default(),
        &mut |e, lp| {
            if let Ok(Value::Int(v)) = run_program(&e, &[], 10_000) {
                if (0..=6).contains(&v) {
                    let entry = targets.entry(v).or_default();
                    if entry.len() < 5 {
                        entry.push((e, lp));
                    }
                }
            }
            targets.len() < 7 || targets.values().any(|v| v.len() < 5)
        },
    );
    fn features(v: i64) -> Vec<f64> {
        let mut f = vec![0.0; 8];
        f[(v as usize).min(7)] = 1.0;
        f
    }

    let mut regimes = Vec::new();
    for (param, pname) in [
        (Parameterization::Unigram, "Unigram"),
        (Parameterization::Bigram, "Bigram"),
    ] {
        for (obj, oname) in [(Objective::Posterior, "L_post"), (Objective::Map, "L_MAP")] {
            let mut model =
                RecognitionModel::new(Arc::clone(&library), 8, 16, param, obj, 0.02, &mut rng);
            let examples: Vec<TrainingExample> = targets
                .iter()
                .map(|(&v, progs)| TrainingExample {
                    features: features(v),
                    request: tint(),
                    programs: match obj {
                        Objective::Map => vec![(progs[0].0.clone(), 1.0)],
                        Objective::Posterior => {
                            let z: f64 = progs.iter().map(|(_, lp)| lp.exp()).sum();
                            progs
                                .iter()
                                .map(|(e, lp)| (e.clone(), lp.exp() / z))
                                .collect()
                        }
                    },
                })
                .collect();
            model.train(&examples, 400, &mut rng);

            let (mut right, mut left, mut plus_zero, mut total) = (0, 0, 0, 0);
            while total < 500 {
                let q = model.predict(&features(rng.gen_range(0..=6)));
                if let Some(e) = sample_program_with_retries(&q, &tint(), &mut rng, 10, 20) {
                    total += 1;
                    let (r, l) = associativity(&e);
                    right += r;
                    left += l;
                    plus_zero += usize::from(has_plus_zero(&e));
                }
            }
            // Symmetry breaking commits to one direction; the random
            // initialization picks which.
            let dominant = right.max(left) as f64 / (right + left).max(1) as f64;
            regimes.push((
                format!("{pname}/{oname}"),
                dominant,
                plus_zero as f64 / total as f64,
            ));
        }
    }
    regimes
}

/// E4: only the bigram head trained on `L_MAP` commits to one
/// associativity for `+`. The `+0` column is printed but not asserted:
/// it does not reproduce at this scale.
#[test]
fn e4_only_bigram_map_breaks_symmetry() {
    let regimes = symmetry_table();
    print_table(
        "E4: symmetry breaking needs bigrams + L_MAP",
        &["regime", "% one-sided", "% +0"],
        regimes
            .iter()
            .map(|(name, dominant, plus_zero)| {
                vec![
                    name.clone(),
                    format!("{:.1}", 100.0 * dominant),
                    format!("{:.1}", 100.0 * plus_zero),
                ]
            })
            .collect(),
    );

    let bits = |t: &[(String, f64, f64)]| -> Vec<(String, u64, u64)> {
        t.iter()
            .map(|(n, d, z)| (n.clone(), d.to_bits(), z.to_bits()))
            .collect()
    };
    assert_eq!(bits(&regimes), bits(&symmetry_table()), "E4 is not seeded");
    for (name, dominant, _) in &regimes {
        if name == "Bigram/L_MAP" {
            assert!(*dominant >= 0.95, "{name}: {dominant}");
        } else {
            assert!(*dominant <= 0.80, "{name}: {dominant}");
        }
    }
}

/// Origami seed solutions, standing in for the paper's multi-day wake
/// phase: six fold-family consumers and one unfold-family generator.
const ORIGAMI_SEEDS: &[(&str, &str)] = &[
    (
        "length",
        "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ 1 ($1 (cdr $0)))))) $0))",
    ),
    (
        "sum",
        "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ (car $0) ($1 (cdr $0)))))) $0))",
    ),
    ("increment each", INCREMENT_ALL),
    ("double each", DOUBLE_ALL),
    (
        "append zero",
        "(lambda (fix (lambda (lambda (if (is-nil $0) (cons 0 nil) (cons (car $0) ($1 (cdr $0)))))) $0))",
    ),
    (
        "count positives",
        "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (if (> (car $0) 0) (+ 1 ($1 (cdr $0))) ($1 (cdr $0)))))) $0))",
    ),
    (
        "count down from head",
        "(lambda (fix (lambda (lambda (if (= $0 0) nil (cons $0 ($1 (- $0 1)))))) (car $0)))",
    ),
];

/// E12: compressing the origami seeds with refactoring invents `map` and
/// `fold`; subtree-only (EC) compression invents nothing. Searching the
/// 13 unseeded tasks to 12 nats, only the refactored library reaches
/// `decrement each`, and EC's library solves nothing DreamCoder's misses.
#[test]
fn e12_refactoring_invents_fold_where_ec_invents_nothing() {
    let domain = OrigamiDomain::new(0);
    let library = domain.initial_library();
    let g0 = Grammar::uniform(Arc::clone(&library));
    let frontiers: Vec<Frontier> = ORIGAMI_SEEDS
        .iter()
        .map(|(name, src)| {
            let task = domain
                .train_tasks()
                .iter()
                .find(|t| t.name == *name)
                .unwrap();
            let f = frontier(src, &task.request, &g0, domain.primitives());
            assert!(task.check(&f.entries[0].expr), "seed for {name} is wrong");
            f
        })
        .collect();
    let cfg = CompressionConfig {
        refactor_steps: 2,
        top_candidates: 150,
        structure_penalty: 0.5,
        max_inventions: 4,
        ..CompressionConfig::default()
    };
    let search = EnumerationConfig {
        max_budget: 12.0,
        timeout: None,
    };
    let unseeded: Vec<_> = domain
        .train_tasks()
        .iter()
        .filter(|t| ORIGAMI_SEEDS.iter().all(|(n, _)| *n != t.name))
        .collect();
    assert_eq!(unseeded.len(), 13);

    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for condition in [Condition::NoRecognition, Condition::Ec] {
        let result = abstraction_sleep(&library, &frontiers, &cfg, condition);
        let guide = Guide::Generative(result.grammar.clone());
        let solved: Vec<String> = unseeded
            .iter()
            .filter(|t| {
                let r = search_task(t, &guide, &result.grammar, 1, &search);
                r.frontier.best().is_some()
            })
            .map(|t| t.name.clone())
            .collect();
        let inventions = invention_names(&result.steps);
        rows.push(vec![
            condition.label().to_owned(),
            inventions.len().to_string(),
            solved.join(", "),
        ]);
        for inv in &inventions {
            rows.push(vec![String::new(), inv.clone(), String::new()]);
        }
        outcomes.push((inventions, solved));
    }
    print_table(
        "E12: origami, refactoring vs subtree compression",
        &[
            "condition",
            "inventions",
            "unseeded tasks solved at 12 nats",
        ],
        rows,
    );

    let (dc_inventions, dc_solved) = &outcomes[0];
    let (ec_inventions, ec_solved) = &outcomes[1];
    for skeleton in [MAP, FOLD] {
        assert!(dc_inventions.iter().any(|i| i == skeleton), "{skeleton}");
    }
    assert!(ec_inventions.is_empty(), "{ec_inventions:?}");
    assert!(dc_solved.iter().any(|t| t == "decrement each"));
    assert!(!ec_solved.iter().any(|t| t == "decrement each"));
    assert!(
        ec_solved.iter().all(|t| dc_solved.contains(t)),
        "{ec_solved:?} is not a subset of {dc_solved:?}"
    );
}

/// E16: compress the four-program corpus with each inverse-β step bound,
/// print the inventions and corpus shrinkage, and check both.
fn assert_ablation(expected: &[(usize, &[&str], usize)]) {
    let corpus = [DOUBLE_ALL, DECREMENT_ALL, SQUARE_ALL, INCREMENT_ALL];
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for &(n, _, _) in expected {
        let top_candidates = if n >= 3 { 60 } else { 150 };
        let (before, result) = compress_list_programs(&corpus, n, top_candidates);
        let before: usize = before.iter().map(best_size).sum();
        let after: usize = result.frontiers.iter().map(best_size).sum();
        let inventions = invention_names(&result.steps);
        rows.push(vec![
            n.to_string(),
            format!("{before} -> {after}"),
            inventions.join("  "),
        ]);
        assert_eq!(before, 124);
        measured.push((n, inventions, after));
    }
    print_table(
        "E16: inverse-beta step bound n",
        &["n", "corpus nodes", "inventions"],
        rows,
    );
    for ((n, inventions, after), (_, want_inventions, want_after)) in measured.iter().zip(expected)
    {
        assert_eq!(inventions, want_inventions, "n = {n}");
        assert_eq!(after, want_after, "n = {n}");
    }
}

#[test]
fn e16_map_needs_two_inverse_beta_steps() {
    assert_ablation(&[
        (0, &[], 124),
        (1, &["#(lambda (if (is-nil $0) nil))"], 108),
        (2, &[MAP], 44),
    ]);
}

/// n = 3, the paper's default, finds a λ-lifted `map` and shrinks the
/// corpus no further.
#[test]
#[ignore = "8.5 s in a release build; CI runs it there"]
fn e16_three_steps_shrink_the_corpus_no_further() {
    assert_ablation(&[(
        3,
        &["#(lambda (lambda (fix (lambda (lambda (if (is-nil $0) nil (cons ($2 (car $0)) ($1 (cdr $0)))))) $1)))"],
        44,
    )]);
}
