//! Cross-domain integration checks: every domain exposes a coherent
//! (primitives, tasks, featurizer, dream) bundle that the wake/sleep
//! machinery can drive — enumeration produces well-typed candidates for
//! each domain's request types, oracles accept ground truth, and dreams
//! round-trip.

use std::sync::Arc;

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::Grammar;
use dreamcoder::tasks::domains::{
    list::ListDomain, logo::LogoDomain, origami::OrigamiDomain, physics::PhysicsDomain,
    regex::RegexDomain, symreg::SymRegDomain, text::TextDomain, tower::TowerDomain,
};
use dreamcoder::tasks::Domain;
use rand::SeedableRng;

fn all_domains() -> Vec<Box<dyn Domain>> {
    vec![
        Box::new(ListDomain::new(0)),
        Box::new(TextDomain::new(0)),
        Box::new(LogoDomain::new(0)),
        Box::new(TowerDomain::new(0)),
        Box::new(RegexDomain::new(0)),
        Box::new(SymRegDomain::new(0)),
        Box::new(PhysicsDomain::new(0)),
        Box::new(OrigamiDomain::new(0)),
    ]
}

#[test]
fn every_domain_has_coherent_tasks_and_features() {
    for domain in all_domains() {
        let total = domain.train_tasks().len() + domain.test_tasks().len();
        assert!(total >= 10, "{} has only {total} tasks", domain.name());
        for task in domain.train_tasks().iter().chain(domain.test_tasks()) {
            assert_eq!(
                task.features.len(),
                domain.feature_dim(),
                "{}/{} feature dim mismatch",
                domain.name(),
                task.name
            );
            assert!(
                task.features.iter().all(|f| f.is_finite()),
                "{}/{} has non-finite features",
                domain.name(),
                task.name
            );
        }
        assert!(!domain.dream_requests().is_empty());
    }
}

#[test]
fn enumeration_typechecks_on_every_domain_request() {
    for domain in all_domains() {
        let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
        for request in domain.dream_requests() {
            let cfg = EnumerationConfig {
                max_budget: 10.5,
                ..EnumerationConfig::default()
            };
            let mut n = 0;
            enumerate_programs_stats(&grammar, &request, &cfg, &mut |e, _| {
                n += 1;
                assert!(
                    e.infer().is_ok(),
                    "{}: enumerated ill-typed {} at {}",
                    domain.name(),
                    e,
                    request
                );
                n < 50
            });
            assert!(
                n > 0,
                "{}: nothing enumerable at request {}",
                domain.name(),
                request
            );
        }
    }
}

#[test]
fn dreams_round_trip_on_every_domain() {
    // For each domain, sample programs from the base grammar until one
    // dreams successfully, then check that the dreamed task accepts its
    // own generating program.
    for domain in all_domains() {
        let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut ok = false;
        'outer: for request in domain.dream_requests() {
            for _ in 0..200 {
                let Some(p) = dreamcoder::grammar::sample_program_with_retries(
                    &grammar, &request, &mut rng, 8, 5,
                ) else {
                    continue;
                };
                if let Some(task) = domain.dream(&p, &request, &mut rng) {
                    assert!(
                        task.check(&p),
                        "{}: dreamed task rejects its own program {}",
                        domain.name(),
                        p
                    );
                    ok = true;
                    break 'outer;
                }
            }
        }
        assert!(ok, "{}: no dream could be generated", domain.name());
    }
}

#[test]
fn oracles_reject_trivially_wrong_programs() {
    // A program of the right type that does nothing interesting must not
    // be accepted by nontrivial tasks.
    let list = ListDomain::new(0);
    let prims = list.primitives();
    let identity = dreamcoder::lambda::Expr::parse("(lambda $0)", prims).unwrap();
    let mut rejections = 0;
    for task in list.train_tasks() {
        if task.request.to_string() == "list(int) -> list(int)"
            && task.name != "identity"
            && !task.check(&identity)
        {
            rejections += 1;
        }
    }
    assert!(rejections > 10, "identity fooled too many list tasks");
}
