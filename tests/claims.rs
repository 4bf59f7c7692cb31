//! Every row of EXPERIMENTS.md that this reproduction can measure, as a
//! test. Where the paper's shape reproduces at this scale the test asserts
//! it: E1 (a learned hierarchy sorts in a third of its base-form size),
//! E2/E3 (refactoring exposes `map`), E4 (only bigram + `L_MAP` breaks
//! symmetry), E12 (origami: refactoring invents `fold`, subtree
//! compression nothing), E13 (most searches that succeed do so within a
//! tenth of their programs), E14 (minibatching solves more per program
//! enumerated) and E16 (`map` needs two inverse-β steps). Where it does
//! not (E5–E11), the test pins the seeded outcome: counts out of N and
//! invention names.
//!
//! Every budget is in nats or a fixed count, never wall clock, and every
//! run is seeded, so each printed table is the same on every machine, on
//! every run and at any thread count. Rows that run a full wake/sleep loop
//! are `#[ignore]`d in debug builds. Regenerate every row with
//!
//! ```text
//! cargo test --release --test claims -- --include-ignored --nocapture --test-threads=1
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::frontier::{Frontier, FrontierEntry};
use dreamcoder::grammar::grammar::Grammar;
use dreamcoder::grammar::library::Library;
use dreamcoder::grammar::sample::sample_program_with_retries;
use dreamcoder::lambda::eval::run_program;
use dreamcoder::lambda::expr::{Expr, Invented, PrimitiveLookup};
use dreamcoder::lambda::primitives::base_primitives;
use dreamcoder::lambda::types::{tint, tlist, Type};
use dreamcoder::lambda::Value;
use dreamcoder::recognition::{Objective, Parameterization, RecognitionModel, TrainingExample};
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::domains::logo::{rasterize, run_logo_program, LogoDomain, CANVAS};
use dreamcoder::tasks::domains::origami::OrigamiDomain;
use dreamcoder::tasks::domains::physics::PhysicsDomain;
use dreamcoder::tasks::domains::regex::{concepts, run_regex_program, RegexDomain};
use dreamcoder::tasks::domains::text::TextDomain;
use dreamcoder::tasks::domains::tower::{run_tower_program, Block, TowerDomain};
use dreamcoder::tasks::Domain;
use dreamcoder::vspace::{compress, CompressionConfig, CompressionStep, SpaceArena};
use dreamcoder::wakesleep::report::table;
use dreamcoder::wakesleep::{
    abstraction_sleep, search_task, wake, Condition, DreamCoder, DreamCoderConfig, Guide,
    RecognitionConfig, RunSummary,
};
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
) -> (Vec<Frontier>, dreamcoder::vspace::CompressionResult) {
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

/// Wake budget of the full wake/sleep rows, in nats.
const WAKE_NATS: f64 = 13.5;
/// Held-out search budget of the full wake/sleep rows, in nats.
const TEST_NATS: f64 = 12.0;
/// Wake budget of the logo, tower and physics rows, whose tasks need
/// deeper programs than the list domain's.
const DOMAIN_WAKE_NATS: f64 = 15.0;

/// A search bounded by description length alone.
fn nats(max_budget: f64) -> EnumerationConfig {
    EnumerationConfig {
        max_budget,
        ..EnumerationConfig::default()
    }
}

/// The hyperparameters every full wake/sleep row starts from.
fn figure_config(condition: Condition, seed: u64) -> DreamCoderConfig {
    DreamCoderConfig {
        condition,
        cycles: 3,
        minibatch: 12,
        compression_beam: 2,
        enumeration: nats(WAKE_NATS),
        test_enumeration: nats(TEST_NATS),
        compression: CompressionConfig {
            refactor_steps: 2,
            top_candidates: 25,
            structure_penalty: 0.75,
            max_inventions: 3,
            ..CompressionConfig::default()
        },
        recognition: RecognitionConfig {
            fantasies: 60,
            epochs: 40,
            hidden_dim: 48,
            ..RecognitionConfig::default()
        },
        seed,
        ..DreamCoderConfig::default()
    }
}

/// A solved fraction of `total` tasks, as a count.
fn count(fraction: f64, total: usize) -> usize {
    (fraction * total as f64).round() as usize
}

/// E1: the Fig 1B hierarchy `filter -> maximum -> nth-largest -> sort`
/// sorts, in 43 nodes; re-expressed in base primitives it takes 142. That
/// base form applies `fix` to three arguments, which the base grammar
/// cannot generate, so it has no prior and the brute-force figure is a
/// size × ln|D| heuristic.
#[test]
fn e1_sort_through_the_learned_hierarchy() {
    let layers = [
        (
            "#filter",
            "(lambda (lambda (fold $0 nil (lambda (lambda (if ($3 $1) (cons $1 $0) $0))))))",
        ),
        (
            "#maximum",
            "(lambda (fold $0 0 (lambda (lambda (if (> $1 $0) $1 $0)))))",
        ),
        // The maximum once the n larger items are filtered out.
        (
            "#nth-largest",
            "(lambda (fix (lambda (lambda (lambda (if (= $1 0) (#maximum $0) ($2 (- $1 1) (#filter (lambda (> (#maximum $1) $0)) $0)))))) $0))",
        ),
        // `nth-largest i xs` for i from n-1 down to 0.
        (
            "#sort",
            "(lambda (map (lambda (#nth-largest $0 $1)) (fix (lambda (lambda (if (= $0 0) nil (cons (- $0 1) ($1 (- $0 1)))))) (length $0))))",
        ),
    ];
    let mut prims = base_primitives();
    let mut sort = None;
    for (name, body) in layers {
        let invented = Invented::new(name, Expr::parse(body, &prims).unwrap()).unwrap();
        prims.add_invented(Arc::clone(&invented));
        sort = Some(invented);
    }
    let sort = sort.unwrap();
    let ints = |xs: &[i64]| Value::list(xs.iter().map(|&x| Value::Int(x)).collect());
    let sorted = run_program(
        &Expr::Invented(Arc::clone(&sort)),
        &[ints(&[3, 9, 1, 7])],
        2_000_000,
    );
    assert_eq!(sorted.unwrap(), ints(&[1, 3, 7, 9]));

    let base = sort.body.strip_inventions();
    let calls = base
        .subexpressions()
        .iter()
        .filter(|e| matches!(e, Expr::Application(..)))
        .count();
    let library = Arc::new(Library::from_primitives(base_primitives().iter().cloned()));
    let request = Type::arrow(tlist(tint()), tlist(tint()));
    let base_prior = Grammar::uniform(Arc::clone(&library)).log_prior(&request, &base);
    let heuristic_nats = 0.5 * base.size() as f64 * (library.len() as f64).ln();
    print_table(
        "E1: sort [3,9,1,7] = [1,3,7,9] through the learned hierarchy",
        &["quantity", "value"],
        vec![
            vec![
                "nodes in the learned library".into(),
                sort.body.size().to_string(),
            ],
            vec!["nodes in base primitives".into(), base.size().to_string()],
            vec!["calls in base primitives".into(), calls.to_string()],
            vec!["base-form log prior".into(), base_prior.to_string()],
            vec![
                "brute-force programs, e^(size ln|D| / 2) heuristic".into(),
                format!("{:.1e}", heuristic_nats.exp()),
            ],
        ],
    );
    assert_eq!((sort.body.size(), base.size(), calls), (43, 142, 61));
    assert_eq!(base_prior, f64::NEG_INFINITY);
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
    enumerate_programs_stats(
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
                RecognitionModel::new(Arc::clone(&library), 8, 16, param, 0.02, &mut rng);
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

/// The E5/E6 runs: one seeded full wake/sleep loop on `list` per Fig 7A
/// condition and for minibatched EC2 (Fig 7B). E13 reads their wake
/// traces, so the loops run once per test binary.
fn condition_runs() -> &'static [(Condition, RunSummary)] {
    static RUNS: OnceLock<Vec<(Condition, RunSummary)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let domain = ListDomain::new(0);
        [
            Condition::Full,
            Condition::NoRecognition,
            Condition::NoCompression,
            Condition::Memorize {
                with_recognition: true,
            },
            Condition::Memorize {
                with_recognition: false,
            },
            Condition::NeuralOnly,
            Condition::EnumerationOnly,
            Condition::Ec2,
        ]
        .into_iter()
        .map(|condition| {
            let summary = DreamCoder::new(&domain, figure_config(condition, 0)).run();
            (condition, summary)
        })
        .collect()
    })
}

/// E5/E6: held-out `list` accuracy of the seven Fig 7A conditions and of
/// minibatched EC2 (Fig 7B), one seed each. The paper's ordering does not
/// reproduce at these budgets, so the counts are pinned.
#[test]
#[ignore = "90 s in a release build; CI runs it in release"]
fn e5_e6_held_out_accuracy_by_condition() {
    let total = ListDomain::new(0).test_tasks().len();
    let solved: Vec<(&str, usize)> = condition_runs()
        .iter()
        .map(|(condition, summary)| (condition.label(), count(summary.final_test_solved, total)))
        .collect();
    print_table(
        "E5/E6: held-out list tasks solved",
        &["condition", "solved", "%"],
        solved
            .iter()
            .map(|&(label, n)| {
                vec![
                    label.to_owned(),
                    format!("{n}/{total}"),
                    format!("{:.1}", 100.0 * n as f64 / total as f64),
                ]
            })
            .collect(),
    );
    assert_eq!(
        solved,
        [
            ("DreamCoder", 6),
            ("No Recognition", 10),
            ("No Library", 6),
            ("Memorize + Rec", 8),
            ("Memorize", 10),
            ("Neural synthesis", 4),
            ("Enumeration", 7),
            ("EC2 (batched)", 6),
        ]
    );
}

/// Pearson's r, or `None` when either variable is constant.
fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    (vx > 0.0 && vy > 0.0).then(|| cov / (vx * vy).sqrt())
}

/// E7: library depth and size against held-out accuracy over four cycles,
/// with and without recognition, correlated within each domain. Pooling
/// the domains would measure which domain a point came from.
#[test]
#[ignore = "55 s in a release build; CI runs it in release"]
fn e7_library_structure_within_each_domain() {
    let (list, text) = (ListDomain::new(0), TextDomain::new(0));
    let mut rows = Vec::new();
    let mut correlations = Vec::new();
    let mut points = Vec::new();
    for domain in [&list as &dyn Domain, &text] {
        let total = domain.test_tasks().len();
        let (mut depths, mut sizes, mut solved) = (Vec::new(), Vec::new(), Vec::new());
        for condition in [Condition::Full, Condition::NoRecognition] {
            let mut config = figure_config(condition, 0);
            config.cycles = 4;
            for c in DreamCoder::new(domain, config).run().cycles {
                let n = count(c.test_solved, total);
                rows.push(vec![
                    domain.name().to_owned(),
                    condition.label().to_owned(),
                    c.cycle.to_string(),
                    c.library_depth.to_string(),
                    c.library_size.to_string(),
                    format!("{n}/{total}"),
                ]);
                points.push((c.library_depth, c.library_size, n));
                depths.push(c.library_depth as f64);
                sizes.push(c.library_size as f64);
                solved.push(c.test_solved);
            }
        }
        let show = |r: Option<f64>| r.map_or("undefined".to_owned(), |r| format!("{r:.2}"));
        correlations.push(vec![
            domain.name().to_owned(),
            show(pearson(&depths, &solved)),
            show(pearson(&sizes, &solved)),
        ]);
    }
    print_table(
        "E7: library structure by cycle",
        &["domain", "condition", "cycle", "depth", "size", "solved"],
        rows,
    );
    print_table(
        "E7: correlation with held-out solved, within each domain",
        &["domain", "r(depth)", "r(size)"],
        correlations,
    );
    // (depth, size, solved) per cycle: `list`'s library never grows, and
    // on `text` recognition-guided search solves fewer held-out tasks.
    #[rustfmt::skip]
    let expected = [
        (0, 23, 5), (0, 23, 6), (0, 23, 6), (0, 23, 7),
        (0, 23, 9), (0, 23, 10), (0, 23, 10), (0, 23, 11),
        (0, 38, 4), (1, 39, 2), (1, 39, 2), (1, 39, 2),
        (0, 38, 10), (1, 39, 10), (1, 39, 10), (1, 39, 10),
    ];
    assert_eq!(points, expected);
}

/// Seeded dreams drawn per grammar in E8 and E9.
const DREAMS: usize = 100;

/// `DREAMS` seeded programs sampled from `grammar`: how many call
/// `loop_primitive`, and the first two that `render` draws.
fn dreams(
    grammar: &Grammar,
    request: &Type,
    seed: u64,
    loop_primitive: &str,
    render: fn(&Expr) -> Option<String>,
) -> (usize, Vec<String>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let samples: Vec<Expr> = (0..DREAMS)
        .filter_map(|_| sample_program_with_retries(grammar, request, &mut rng, 10, 10))
        .collect();
    let loops = samples
        .iter()
        .filter(|p| p.to_string().contains(loop_primitive))
        .count();
    let gallery = samples
        .iter()
        .filter_map(|p| Some(format!("{p}\n{}", render(p)?)))
        .take(2)
        .collect();
    (loops, gallery)
}

/// What E8 and E9 pin.
#[derive(Debug, PartialEq)]
struct DomainRow {
    train_solved: usize,
    test_solved: usize,
    inventions: Vec<String>,
    /// Dreams out of `DREAMS` that loop, before and after learning.
    loop_dreams: [usize; 2],
}

/// Three No Recognition cycles over every training task of `domain`,
/// with the dream galleries before and after learning.
fn domain_figure(
    domain: &dyn Domain,
    title: &str,
    loop_primitive: &str,
    render: fn(&Expr) -> Option<String>,
) -> DomainRow {
    let request = &domain.dream_requests()[0];
    let before = Grammar::uniform(domain.initial_library());
    let (loops_before, gallery) = dreams(&before, request, 1, loop_primitive, render);
    println!(
        "== {title}: dreams before learning ==\n{}",
        gallery.join("\n")
    );

    let mut config = figure_config(Condition::NoRecognition, 0);
    config.minibatch = domain.train_tasks().len();
    config.enumeration = nats(DOMAIN_WAKE_NATS);
    let mut dc = DreamCoder::new(domain, config);
    let summary = dc.run();
    let (loops_after, gallery) = dreams(&dc.grammar, request, 2, loop_primitive, render);
    println!(
        "== {title}: dreams after learning ==\n{}",
        gallery.join("\n")
    );

    let (train, test) = (domain.train_tasks().len(), domain.test_tasks().len());
    let row = DomainRow {
        train_solved: summary.cycles.last().unwrap().train_solved,
        test_solved: count(summary.final_test_solved, test),
        inventions: summary.library,
        loop_dreams: [loops_before, loops_after],
    };
    let mut rows = vec![
        vec![
            "train solved".into(),
            format!("{}/{train}", row.train_solved),
        ],
        vec!["test solved".into(), format!("{}/{test}", row.test_solved)],
        vec![
            format!("dreams calling {loop_primitive}, before -> after"),
            format!("{loops_before}/{DREAMS} -> {loops_after}/{DREAMS}"),
        ],
    ];
    rows.extend(
        row.inventions
            .iter()
            .map(|i| vec!["invention".into(), i.clone()]),
    );
    print_table(title, &["quantity", "value"], rows);
    row
}

/// A turtle program's drawing, two pixel rows per line, if it draws at
/// least four pixels.
fn draw_logo(program: &Expr) -> Option<String> {
    let pixels = rasterize(&run_logo_program(program, 30_000).ok()?.segments);
    (pixels.len() >= 4).then(|| {
        let row = |y: u8| -> String {
            (0..CANVAS as u8)
                .map(|x| {
                    let lit =
                        pixels.contains(&(x, y)) || pixels.contains(&(x, y.saturating_sub(1)));
                    if lit {
                        '#'
                    } else {
                        '.'
                    }
                })
                .collect()
        };
        (0..CANVAS as u8)
            .rev()
            .step_by(2)
            .map(|y| row(y) + "\n")
            .collect()
    })
}

/// E8: LOGO graphics. Pinned: the learned library and the dreams.
#[test]
#[ignore = "16 s in a release build; CI runs it in release"]
fn e8_logo_routines_and_dreams() {
    let row = domain_figure(
        &LogoDomain::new(0),
        "E8: LOGO graphics",
        "logo-for",
        draw_logo,
    );
    assert_eq!(
        row,
        DomainRow {
            train_solved: 4,
            test_solved: 2,
            inventions: vec![],
            loop_dreams: [24, 32]
        }
    );
}

/// A tower program's blocks, if it places at least two.
fn draw_tower(program: &Expr) -> Option<String> {
    let blocks: BTreeSet<Block> = run_tower_program(program, 30_000).ok()?.block_set();
    if blocks.len() < 2 {
        return None;
    }
    let min_x = blocks.iter().map(|b| b.x).min()? - 1;
    let max_x = blocks.iter().map(|b| b.x + b.width()).max()? + 1;
    let max_y = blocks.iter().map(|b| b.y + b.height()).max()?;
    let hit = |x: i64, y: i64| {
        blocks
            .iter()
            .any(|b| x >= b.x && x < b.x + b.width() && y >= b.y && y < b.y + b.height())
    };
    Some(
        (0..max_y)
            .rev()
            .map(|y| {
                let row: String = (min_x..max_x)
                    .map(|x| if hit(x, y) { '#' } else { '.' })
                    .collect();
                row + "\n"
            })
            .collect(),
    )
}

/// E9: block towers. Pinned: the learned library and the dreams.
#[test]
#[ignore = "11 s in a release build; CI runs it in release"]
fn e9_tower_options_and_dreams() {
    let row = domain_figure(&TowerDomain::new(0), "E9: towers", "t-for", draw_tower);
    assert_eq!(
        row,
        DomainRow {
            train_solved: 4,
            test_solved: 3,
            inventions: vec![],
            loop_dreams: [29, 28]
        }
    );
}

/// E10's MAP search budget, in nats: at 16.5, two of the three held-out
/// concepts get no regex under any condition.
const MAP_REGEX_NATS: f64 = 18.0;

/// E10: the MAP regex of three held-out concepts after two cycles of each
/// condition, and its log-likelihood per character of five strings drawn
/// from the true concept.
#[test]
#[ignore = "16 s in a release build; CI runs it in release"]
fn e10_map_regexes_for_held_out_concepts() {
    let domain = RegexDomain::new(0);
    let grammars = [
        Condition::Full,
        Condition::NoCompression,
        Condition::NoRecognition,
    ]
    .map(|condition| {
        let mut config = figure_config(condition, 0);
        config.cycles = 2;
        config.minibatch = domain.train_tasks().len();
        let mut dc = DreamCoder::new(&domain, config);
        dc.run();
        (condition.label(), dc.grammar)
    });
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut rows = Vec::new();
    let mut found = Vec::new();
    for task in domain.test_tasks().iter().take(3) {
        let (_, truth) = concepts()
            .into_iter()
            .find(|(name, _)| *name == task.name)
            .unwrap();
        let held_out: Vec<String> = (0..5)
            .map(|_| {
                let mut s = String::new();
                truth.sample(&mut rng, &mut s, &mut 30);
                s
            })
            .filter(|s| !s.is_empty())
            .collect();
        let chars = held_out.iter().map(|s| s.chars().count()).sum::<usize>();
        for (label, grammar) in &grammars {
            let guide = Guide::Generative(grammar.clone());
            let best = search_task(task, &guide, grammar, 1, &nats(MAP_REGEX_NATS)).frontier;
            let regex = best
                .best()
                .map(|e| run_regex_program(&e.expr, 20_000).unwrap());
            let ll = regex.as_ref().map_or(String::new(), |r| {
                let ll: f64 = held_out.iter().map(|s| r.log_prob(s)).sum();
                format!("{:.2}", ll / chars.max(1) as f64)
            });
            let shown = regex.map_or("(none)".to_owned(), |r| r.display());
            rows.push(vec![
                task.name.clone(),
                label.to_string(),
                shown.clone(),
                ll,
            ]);
            found.push(shown);
        }
    }
    print_table(
        "E10: MAP regexes for held-out concepts",
        &["concept", "condition", "MAP regex", "held-out ll/char"],
        rows,
    );
    // Every condition finds the same regex for each concept.
    for regex in ["$((d|.))*", "-((d|.))*", "d(d)*"] {
        assert_eq!(found.iter().filter(|f| *f == regex).count(), 3, "{found:?}");
    }
}

/// E11: three cycles over all 60 physics laws with and without
/// refactoring. Pinned: solved counts, inventions and the unsolved laws.
#[test]
#[ignore = "110 s in a release build; CI runs it in release"]
fn e11_physics_laws_and_vocabulary() {
    let domain = PhysicsDomain::new(0);
    let laws = domain.train_tasks();
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for condition in [Condition::NoRecognition, Condition::Ec] {
        let mut config = figure_config(condition, 0);
        config.minibatch = laws.len();
        config.enumeration = nats(DOMAIN_WAKE_NATS);
        config.compression.structure_penalty = 0.5;
        let mut dc = DreamCoder::new(&domain, config);
        let summary = dc.run();
        let unsolved: Vec<String> = (0..laws.len())
            .filter(|i| !dc.frontiers.contains_key(i))
            .map(|i| laws[i].name.clone())
            .collect();
        let solved = laws.len() - unsolved.len();
        rows.push(vec![
            condition.label().to_owned(),
            format!("{solved}/{} solved", laws.len()),
        ]);
        let invented = summary.library.iter().map(|i| ("invented", i));
        for (what, item) in invented.chain(unsolved.iter().map(|u| ("unsolved", u))) {
            rows.push(vec![String::new(), format!("{what}: {item}")]);
        }
        outcomes.push((solved, summary.library, unsolved));
    }
    print_table("E11: physics laws", &["condition", "outcome"], rows);
    let unsolved = [
        "x = v0 t + 1/2 a t^2",
        "dot product",
        "norm",
        "norm squared",
        "sum of components",
        "distance between points",
        "midpoint",
        "work = F . d",
    ]
    .map(String::from)
    .to_vec();
    let ec_inventions = [
        "#(lambda (lambda (*. $0 (*. $0 (*. $1 half)))))",
        "#(lambda (lambda (*. $0 (/. $1 (+. $0 $1)))))",
    ]
    .map(String::from)
    .to_vec();
    assert_eq!(
        outcomes,
        [
            (52, vec![], unsolved.clone()),
            (52, ec_inventions, unsolved)
        ]
    );
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
    let search = nats(12.0);
    let unseeded: Vec<_> = domain
        .train_tasks()
        .iter()
        .filter(|t| ORIGAMI_SEEDS.iter().all(|(n, _)| *n != t.name))
        .collect();
    assert_eq!(unseeded.len(), 13);

    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for condition in [Condition::NoRecognition, Condition::Ec] {
        let result = abstraction_sleep(&library, &frontiers, &cfg, condition)
            .expect("both conditions grow the library");
        let guides = vec![Guide::Generative(result.grammar.clone()); unseeded.len()];
        let solved: Vec<String> = wake(&unseeded, &guides, &result.grammar, 1, &search)
            .into_iter()
            .filter(|r| r.frontier.best().is_some())
            .map(|r| r.trace.task)
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

/// E13 (Appendix Fig 20): the cost of a search's first hit, in programs
/// enumerated and in nats under the guide instead of seconds, over every
/// wake search of the E5/E6 runs. Every search enumerates its whole
/// budget, so a solved search's first hit can be set against the programs
/// that search enumerated in all.
#[test]
#[ignore = "90 s in a release build, shared with E5/E6; CI runs it in release"]
fn e13_searches_succeed_early_or_not_at_all() {
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (condition, summary) in condition_runs() {
        let traces: Vec<_> = summary
            .cycles
            .iter()
            .flat_map(|c| &c.search_traces)
            .collect();
        // (programs to the first hit, programs in the whole search, nats)
        let hits: Vec<(usize, usize, f64)> = traces
            .iter()
            .filter_map(|t| {
                let nats = t.first_hit_nats?;
                Some((t.programs_to_first_hit?, t.programs_enumerated, nats))
            })
            .collect();
        let early = hits.iter().filter(|(hit, all, _)| 10 * hit <= *all).count();
        let mut shares: Vec<f64> = hits.iter().map(|&(h, a, _)| h as f64 / a as f64).collect();
        shares.sort_by(f64::total_cmp);
        let mut nats: Vec<f64> = hits.iter().map(|h| h.2).collect();
        nats.sort_by(f64::total_cmp);
        rows.push(vec![
            condition.label().to_owned(),
            format!("{}/{}", hits.len(), traces.len()),
            format!("{early}/{}", hits.len()),
            format!("{:.4}", shares[shares.len() / 2]),
            format!("{:.4}", shares[shares.len() - 1]),
            format!("{:.1}", nats[nats.len() / 2]),
            format!("{:.1}", nats[nats.len() - 1]),
        ]);
        measured.push((condition.label(), hits.len(), early));
    }
    print_table(
        "E13: first hit of each wake search, in programs and nats",
        &[
            "condition",
            "solved",
            "hit in first 10%",
            "median share",
            "max share",
            "median hit nats",
            "max hit nats",
        ],
        rows,
    );
    // The paper's shape: most searches that succeed do so within a tenth
    // of the programs they enumerate.
    for &(label, solved, early) in &measured {
        assert!(
            2 * early > solved,
            "{label}: {early} of {solved} hits early"
        );
    }
    assert_eq!(
        measured,
        [
            ("DreamCoder", 15, 9),
            ("No Recognition", 19, 16),
            ("No Library", 12, 8),
            ("Memorize + Rec", 16, 12),
            ("Memorize", 19, 15),
            ("Neural synthesis", 13, 10),
            ("Enumeration", 19, 13),
            ("EC2 (batched)", 13, 12),
        ]
    );
}

/// E14: minibatched waking (12 tasks a cycle, four cycles) against
/// full-batch waking (every task, two cycles) on `list` at 12 nats.
/// Compute is the programs enumerated during wake, so the comparison is
/// the same on every machine.
#[test]
#[ignore = "6 s in a release build; CI runs it in release"]
fn e14_minibatching_solves_more_per_program() {
    let domain = ListDomain::new(0);
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (regime, minibatch, cycles) in [
        ("minibatch (12)", 12, 4),
        ("full batch", domain.train_tasks().len(), 2),
    ] {
        let mut config = figure_config(Condition::NoRecognition, 0);
        config.minibatch = minibatch;
        config.cycles = cycles;
        config.enumeration = nats(12.0);
        // Held-out accuracy is not part of this row.
        config.test_enumeration = nats(0.0);
        let summary = DreamCoder::new(&domain, config).run();
        let solved = summary.cycles.last().unwrap().train_solved;
        let programs: usize = summary
            .cycles
            .iter()
            .flat_map(|c| &c.search_traces)
            .map(|t| t.programs_enumerated)
            .sum();
        rows.push(vec![
            regime.to_owned(),
            cycles.to_string(),
            solved.to_string(),
            programs.to_string(),
            format!("{:.1}", 1e6 * solved as f64 / programs as f64),
        ]);
        measured.push((solved, programs));
    }
    print_table(
        "E14: minibatched vs full-batch waking",
        &[
            "regime",
            "cycles",
            "train solved",
            "programs enumerated",
            "solved per 10^6 programs",
        ],
        rows,
    );
    let rate = |(solved, programs): (usize, usize)| solved as f64 / programs as f64;
    assert!(rate(measured[0]) > rate(measured[1]), "{measured:?}");
    assert_eq!(measured, [(15, 58_250), (17, 95_070)]);
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
