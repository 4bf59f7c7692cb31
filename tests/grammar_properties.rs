//! Property tests for the probabilistic-grammar machinery: samples score
//! finitely, traces match priors, fitted grammars dominate uniform ones
//! on their training corpus, and bigram contexts normalize.

use std::sync::Arc;

use dreamcoder::grammar::grammar::candidate_heads;
use dreamcoder::grammar::library::BigramParent;
use dreamcoder::grammar::{
    fit_grammar, generation_trace, ContextualGrammar, Frontier, FrontierEntry, Grammar, Library,
};
use dreamcoder::lambda::primitives::base_primitives;
use dreamcoder::lambda::types::{tint, tlist, Context, Type};
use dreamcoder::lambda::Expr;
use proptest::prelude::*;
use rand::SeedableRng;

fn setup() -> (Grammar, dreamcoder::lambda::PrimitiveSet) {
    let prims = base_primitives();
    let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
    (Grammar::uniform(lib), prims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Sampling then scoring always gives a finite prior, across requests
    /// and seeds, for both unigram and bigram grammars.
    #[test]
    fn samples_always_score_finite(seed in 0u64..1000, which in 0usize..3) {
        let (g, _) = setup();
        let cg = ContextualGrammar::uniform(Arc::clone(&g.library));
        let request = match which {
            0 => tint(),
            1 => Type::arrow(tint(), tint()),
            _ => Type::arrow(tlist(tint()), tlist(tint())),
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        if let Some(e) =
            dreamcoder::grammar::sample_program(&g, &request, &mut rng, 8)
        {
            prop_assert!(g.log_prior(&request, &e).is_finite(), "unigram -inf for {e}");
            prop_assert!(cg.log_prior(&request, &e).is_finite(), "bigram -inf for {e}");
        }
    }

    /// The generation trace's event count equals the number of
    /// non-abstraction nodes chosen, and its total equals log_prior.
    #[test]
    fn traces_are_consistent_with_priors(seed in 0u64..500) {
        let (g, _) = setup();
        let request = Type::arrow(tlist(tint()), tint());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        if let Some(e) = dreamcoder::grammar::sample_program(&g, &request, &mut rng, 8) {
            let (ll, events) = generation_trace(&g, &request, &e).expect("generable");
            prop_assert!((ll - g.log_prior(&request, &e)).abs() < 1e-9);
            prop_assert!(!events.is_empty());
            // Every event's chosen production must be in its feasible set.
            for ev in &events {
                match ev.chosen {
                    Some(j) => prop_assert!(ev.feasible_prods.contains(&j)),
                    None => prop_assert!(ev.feasible_vars > 0),
                }
            }
        }
    }
}

#[test]
fn candidate_probabilities_normalize_in_every_context() {
    let (g, _) = setup();
    let cg = ContextualGrammar::uniform(Arc::clone(&g.library));
    let ctx = Context::new();
    let env = [tint(), tlist(tint())];
    for parent in [
        BigramParent::Start,
        BigramParent::Var,
        BigramParent::Prod(0),
    ] {
        for arg in 0..2 {
            for request in [tint(), tlist(tint())] {
                let mut scratch = ctx.clone();
                let cands = candidate_heads(&cg, parent, arg, &mut scratch, &env, &request);
                assert_eq!(scratch, ctx, "trial unifications must be rolled back");
                assert!(!cands.is_empty());
                let z: f64 = cands.iter().map(|c| c.log_prob.exp()).sum();
                assert!(
                    (z - 1.0).abs() < 1e-9,
                    "candidates at {parent:?}/{arg}/{request} sum to {z}"
                );
            }
        }
    }
}

#[test]
fn fitting_improves_corpus_likelihood() {
    let (g0, prims) = setup();
    let t = Type::arrow(tlist(tint()), tlist(tint()));
    let corpus = [
        "(lambda (map (lambda (+ $0 1)) $0))",
        "(lambda (map (lambda (+ $0 $0)) $0))",
        "(lambda (map (lambda (* $0 $0)) $0))",
    ];
    let frontiers: Vec<Frontier> = corpus
        .iter()
        .map(|src| {
            let e = Expr::parse(src, &prims).unwrap();
            let mut f = Frontier::new(t.clone());
            f.insert(
                FrontierEntry {
                    log_prior: g0.log_prior(&t, &e),
                    log_likelihood: 0.0,
                    expr: e,
                },
                5,
            );
            f
        })
        .collect();
    let g1 = fit_grammar(&g0.library, &frontiers, 1.0);
    let mut before = 0.0;
    let mut after = 0.0;
    for src in &corpus {
        let e = Expr::parse(src, &prims).unwrap();
        before += g0.log_prior(&t, &e);
        after += g1.log_prior(&t, &e);
    }
    assert!(
        after > before,
        "fitting should raise corpus log-prior: {before} -> {after}"
    );
}

#[test]
fn deeper_requests_have_strictly_smaller_candidate_sets_when_constrained() {
    // Sanity: at a `bool` request the int-only arithmetic heads drop out.
    let (g, _) = setup();
    let ctx = Context::new();
    let mut scratch = ctx.clone();
    let ints = candidate_heads(&g, BigramParent::Start, 0, &mut scratch, &[], &tint());
    let bools = candidate_heads(
        &g,
        BigramParent::Start,
        0,
        &mut scratch,
        &[],
        &dreamcoder::lambda::types::tbool(),
    );
    assert_eq!(scratch, ctx, "trial unifications must be rolled back");
    let int_names: Vec<String> = ints.iter().map(|c| c.expr.to_string()).collect();
    let bool_names: Vec<String> = bools.iter().map(|c| c.expr.to_string()).collect();
    assert!(int_names.contains(&"+".to_owned()));
    assert!(!bool_names.contains(&"+".to_owned()));
    assert!(bool_names.contains(&"is-prime".to_owned()));
}
