//! Integration: the recognition model actually guides search — after
//! training on replays, the predicted bigram tensor ranks the true
//! program higher than an untrained/uniform model does.

use std::sync::Arc;

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::grammar::{Grammar, Library};
use dreamcoder::lambda::primitives::base_primitives;
use dreamcoder::lambda::Expr;
use dreamcoder::recognition::{Parameterization, RecognitionModel, TrainingExample};
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{search_task, Guide};
use rand::SeedableRng;

#[test]
fn trained_recognition_prefers_the_right_programs_per_task() {
    let domain = ListDomain::new(0);
    let lib = domain.initial_library();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    let mut model = RecognitionModel::new(
        Arc::clone(&lib),
        domain.feature_dim(),
        32,
        Parameterization::Bigram,
        0.01,
        &mut rng,
    );
    let prims = base_primitives();
    // Two distinguishable task families with known solutions.
    let add1 = Expr::parse("(lambda (map (lambda (+ $0 1)) $0))", &prims).unwrap();
    let tail = Expr::parse("(lambda (cdr $0))", &prims).unwrap();
    let t_add = domain
        .train_tasks()
        .iter()
        .find(|t| t.name == "add1 to each")
        .unwrap();
    let t_tail = domain
        .train_tasks()
        .iter()
        .chain(domain.test_tasks())
        .find(|t| t.name == "tail")
        .unwrap();
    let examples = vec![
        TrainingExample {
            features: t_add.features.clone(),
            request: t_add.request.clone(),
            programs: vec![(add1.clone(), 1.0)],
        },
        TrainingExample {
            features: t_tail.features.clone(),
            request: t_tail.request.clone(),
            programs: vec![(tail.clone(), 1.0)],
        },
    ];
    model.train(&examples, 200, &mut rng);
    let q_add = model.predict(&t_add.features);
    let q_tail = model.predict(&t_tail.features);
    // Conditioned on the add-task features, the add program must beat the
    // prior it gets under the tail-task features, and vice versa.
    assert!(
        q_add.log_prior(&t_add.request, &add1) > q_tail.log_prior(&t_add.request, &add1),
        "recognition failed to condition on task features"
    );
    assert!(q_tail.log_prior(&t_tail.request, &tail) > q_add.log_prior(&t_tail.request, &tail));
}

#[test]
fn guided_search_still_solves_tasks() {
    // A sanity end-to-end path: predict → enumerate under the tensor →
    // verify the solution against the oracle.
    let domain = ListDomain::new(0);
    let lib = domain.initial_library();
    let scorer = Grammar::uniform(Arc::clone(&lib));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let model = RecognitionModel::new(
        Arc::clone(&lib),
        domain.feature_dim(),
        16,
        Parameterization::Bigram,
        0.01,
        &mut rng,
    );
    let task = domain
        .train_tasks()
        .iter()
        .chain(domain.test_tasks())
        .find(|t| t.name == "head")
        .unwrap();
    let config = EnumerationConfig {
        max_budget: 13.5,
        ..EnumerationConfig::default()
    };
    let result = search_task(
        task,
        &Guide::Recognition(model.predict(&task.features)),
        &scorer,
        5,
        &config,
    );
    if let Some(best) = result.frontier.best() {
        assert!(task.check(&best.expr));
        // Frontier priors are scored under the *generative* model, not Q.
        assert!((best.log_prior - scorer.log_prior(&task.request, &best.expr)).abs() < 1e-9);
    }
}

#[test]
fn unigram_and_bigram_heads_share_the_library() {
    let prims = base_primitives();
    let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
    for param in [Parameterization::Unigram, Parameterization::Bigram] {
        let model = RecognitionModel::new(Arc::clone(&lib), 8, 8, param, 0.01, &mut rng);
        let cg = model.predict(&[0.0; 8]);
        assert_eq!(cg.library.len(), lib.len());
    }
}

#[test]
fn untrained_residual_model_matches_generative_prior() {
    // With the prior bias installed, an untrained network's predicted
    // tensor stays close to the fitted generative grammar — the property
    // that makes brief recognition training safe at small budgets.
    let domain = ListDomain::new(0);
    let lib = domain.initial_library();
    let mut grammar = Grammar::uniform(Arc::clone(&lib));
    // Non-uniform weights so the test is not vacuous.
    grammar.weights.log_variable = 0.8;
    for (i, w) in grammar.weights.log_productions.iter_mut().enumerate() {
        *w = (i as f64 * 0.37).sin();
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let mut model = RecognitionModel::new(
        Arc::clone(&lib),
        domain.feature_dim(),
        32,
        Parameterization::Bigram,
        0.01,
        &mut rng,
    );
    model.set_prior_bias(Some(grammar.weights.clone()));
    let prims = base_primitives();
    let q = model.predict(&domain.train_tasks()[0].features);
    for src in [
        "(lambda (map (lambda (+ $0 1)) $0))",
        "(lambda (cons 0 $0))",
        "(lambda (cdr $0))",
    ] {
        let e = Expr::parse(src, &prims).unwrap();
        let t = dreamcoder::lambda::types::Type::arrow(
            dreamcoder::lambda::types::tlist(dreamcoder::lambda::types::tint()),
            dreamcoder::lambda::types::tlist(dreamcoder::lambda::types::tint()),
        );
        let gp = grammar.log_prior(&t, &e);
        let qp = q.log_prior(&t, &e);
        if gp.is_finite() && qp.is_finite() {
            assert!(
                (gp - qp).abs() < 1.5,
                "untrained residual drifted: {gp} vs {qp} for {src}"
            );
        }
    }
}
