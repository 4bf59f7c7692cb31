//! Integration: a learned grammar survives a save/load round trip, and
//! the reporting helpers render run summaries.

use std::sync::Arc;

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::grammar::{load_grammar, save_grammar, Grammar};
use dreamcoder::lambda::{pretty, Expr, Invented};
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{forensics_report, Condition, DreamCoder, DreamCoderConfig};

#[test]
fn learned_grammar_round_trips_with_inventions() {
    let domain = ListDomain::new(0);
    let prims = domain.primitives();
    // Build a grammar with a hand-made invention (as compression would).
    let mut lib = (*domain.initial_library()).clone();
    let body = Expr::parse("(lambda (map (lambda (+ $0 1)) $0))", prims).unwrap();
    let inv = Invented::new(&format!("#{body}"), body).unwrap();
    lib.push_invented(inv);
    let mut grammar = Grammar::uniform(Arc::new(lib));
    grammar.weights.log_productions[0] = 0.7;

    let saved = save_grammar(&grammar);
    let json = serde_json::to_string_pretty(&saved).unwrap();
    let reparsed: dreamcoder::grammar::SavedGrammar = serde_json::from_str(&json).unwrap();
    let loaded = load_grammar(&reparsed, prims).unwrap();

    // Identical priors over a spread of programs/requests.
    use dreamcoder::lambda::types::{tint, tlist, Type};
    let t = Type::arrow(tlist(tint()), tlist(tint()));
    for src in [
        "(lambda (map (lambda (+ $0 1)) $0))",
        "(lambda (cons 0 $0))",
        "(lambda $0)",
    ] {
        let e = Expr::parse(src, prims).unwrap();
        let a = grammar.log_prior(&t, &e);
        let b = loaded.log_prior(&t, &e);
        assert!(
            (a - b).abs() < 1e-12 || (a.is_infinite() && b.is_infinite()),
            "prior mismatch for {src}: {a} vs {b}"
        );
    }
}

#[test]
fn pretty_printer_names_learned_solutions() {
    let prims = ListDomain::new(0).primitives().clone();
    let e = Expr::parse("(lambda (fold $0 0 (lambda (lambda (+ $0 $1)))))", &prims).unwrap();
    let s = pretty(&e);
    assert_eq!(s, "(λ (a) (fold a 0 (λ (b c) (+ c b))))");
}

#[test]
fn reporting_helpers_render_real_runs() {
    let domain = ListDomain::new(0);
    let config = DreamCoderConfig {
        condition: Condition::EnumerationOnly,
        cycles: 2,
        minibatch: 4,
        enumeration: EnumerationConfig {
            max_budget: 10.5,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 10.5,
            ..EnumerationConfig::default()
        },
        seed: 5,
        ..DreamCoderConfig::default()
    };
    let mut dc = DreamCoder::new(&domain, config);
    let summary = dc.run();
    let report = forensics_report(&summary);
    assert!(report.contains("cycle 1"));
    assert!(report.contains("typed-out"));
}
