//! Property-based tests of the core invariants, spanning `dc-lambda`,
//! `dc-grammar`, and `dc-vspace`:
//!
//! * **Consistency** (Theorem G.5): every member of `Iβ(ρ)`'s extension
//!   β-reduces back to `ρ`;
//! * extraction of a singleton space is the identity;
//! * η-long form is idempotent and semantics-preserving;
//! * enumeration emits exactly the prior that `log_prior` recomputes.

use std::sync::Arc;

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::{eta_long, Grammar, Library};
use dreamcoder::lambda::eval::run_program;
use dreamcoder::lambda::primitives::base_primitives;
use dreamcoder::lambda::types::{tint, tlist, Type};
use dreamcoder::lambda::{Expr, Value};
use dreamcoder::vspace::{ExtractionMemo, SpaceArena};
use proptest::prelude::*;

/// A strategy over small closed integer expressions built from the base
/// primitives `+ - * 0 1`.
fn int_expr() -> impl Strategy<Value = Expr> {
    let prims = base_primitives();
    let leaf = prop_oneof![
        Just(Expr::parse("0", &prims).unwrap()),
        Just(Expr::parse("1", &prims).unwrap()),
    ];
    let plus = Expr::parse("+", &prims).unwrap();
    let minus = Expr::parse("-", &prims).unwrap();
    let times = Expr::parse("*", &prims).unwrap();
    leaf.prop_recursive(3, 12, 2, move |inner| {
        (
            prop_oneof![Just(plus.clone()), Just(minus.clone()), Just(times.clone())],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::apply_all(op, [a, b]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refactorings_are_consistent(e in int_expr()) {
        let mut arena = SpaceArena::new();
        let space = arena.refactor(&e, 1);
        // Original always in the space.
        prop_assert!(arena.contains(space, &e));
        // A sample of members must all reduce to the original.
        for member in arena.extension_sample(space, 60) {
            let nf = member.beta_normal_form(10_000);
            prop_assert_eq!(nf.as_ref(), Some(&e), "member {} broke", member);
        }
    }

    #[test]
    fn extraction_recovers_singletons(e in int_expr()) {
        let mut arena = SpaceArena::new();
        let v = arena.incorporate(&e);
        let got = arena
            .minimal_inhabitant(v, None, &mut ExtractionMemo::new())
            .expect("singleton extractable");
        prop_assert_eq!(got.expr, e.clone());
        prop_assert_eq!(got.cost, e.size());
    }

    #[test]
    fn refactored_members_evaluate_identically(e in int_expr()) {
        let want = run_program(&e, &[], 100_000).ok();
        let mut arena = SpaceArena::new();
        let space = arena.refactor(&e, 1);
        for member in arena.extension_sample(space, 20) {
            let got = run_program(&member, &[], 200_000).ok();
            prop_assert_eq!(&got, &want, "{} evaluates differently", member);
        }
    }

    #[test]
    fn eta_long_is_idempotent_and_semantics_preserving(e in int_expr()) {
        let long = eta_long(&e, &tint()).expect("closed int expr normalizes");
        let again = eta_long(&long, &tint()).expect("idempotent");
        prop_assert_eq!(&long, &again);
        let a = run_program(&e, &[], 100_000).ok();
        let b = run_program(&long, &[], 100_000).ok();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn priors_are_monotone_in_size_for_chains(n in 1usize..6) {
        // (+ 1 (+ 1 (... 1))) chains: longer chains have lower prior.
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(lib);
        let mut chain = Expr::parse("1", &prims).unwrap();
        let plus = Expr::parse("+", &prims).unwrap();
        let one = Expr::parse("1", &prims).unwrap();
        let mut last = g.log_prior(&tint(), &chain);
        for _ in 0..n {
            chain = Expr::apply_all(plus.clone(), [one.clone(), chain]);
            let lp = g.log_prior(&tint(), &chain);
            prop_assert!(lp < last);
            last = lp;
        }
    }
}

#[test]
fn enumerated_programs_round_trip_through_eta_long() {
    let prims = base_primitives();
    let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
    let g = Grammar::uniform(lib);
    let t = Type::arrow(tlist(tint()), tlist(tint()));
    let mut n = 0;
    enumerate_programs_stats(&g, &t, &EnumerationConfig::default(), &mut |e, lp| {
        // Enumerated programs are already η-long: eta_long is identity.
        let long = eta_long(&e, &t).expect("well-typed");
        assert_eq!(long, e, "enumeration emitted non-η-long {e}");
        assert!(lp.is_finite());
        n += 1;
        n < 60
    });
}

#[test]
fn rewriting_with_invention_preserves_io_behaviour() {
    // A miniature version of the abstraction-sleep pipeline: refactor,
    // extract with a candidate, check behaviour on concrete inputs.
    let prims = base_primitives();
    let e = Expr::parse("(lambda (map (lambda (+ $0 $0)) $0))", &prims).unwrap();
    let mut arena = SpaceArena::new();
    let space = arena.refactor(&e, 2);
    let body = Expr::parse("(lambda (+ $0 $0))", &prims).unwrap();
    let inv = dreamcoder::lambda::Invented::new("#double", body).unwrap();
    let mut matcher = dreamcoder::vspace::Matcher::new(inv);
    let rewritten = arena
        .minimal_inhabitant(space, Some(&mut matcher), &mut ExtractionMemo::new())
        .expect("extractable");
    let input = Value::list(vec![Value::Int(3), Value::Int(4)]);
    let want = run_program(&e, std::slice::from_ref(&input), 100_000).unwrap();
    let got = run_program(&rewritten.expr, &[input], 100_000).unwrap();
    assert_eq!(got, want);
    assert!(rewritten.expr.to_string().contains("#double"));
}
