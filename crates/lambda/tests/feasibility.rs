//! The fast feasibility checks of the enumerator's hot path, each tested
//! against the slow check it replaces: instantiate (or apply), unify the
//! return type, roll back.

use dc_lambda::types::{tbool, tint, tlist, tvar, Context, Scheme, TyCon, Type};
use proptest::prelude::*;
use std::ops::Range;

/// Variables below this belong to the context: requests and pre-bindings
/// use them, and fresh variables start here.
const CONTEXT_VARS: usize = 6;

/// A binary constructor that is not an arrow.
fn pair(a: Type, b: Type) -> Type {
    Type::Con(TyCon::intern("pair"), vec![a, b])
}

/// Types over ground atoms, the variables in `vars`, lists, pairs and
/// arrows; with few variables, repeated ones are common.
fn any_type(vars: Range<usize>) -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![Just(tint()), Just(tbool()), vars.prop_map(tvar)];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(tlist),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| pair(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Type::arrow(a, b)),
        ]
    })
}

/// Unifications run before the check: variable-to-variable ones build
/// bound-variable chains, the others bind variables to constructors
/// (arrows included) or fail part-way, leaving partial bindings.
fn pre_bindings() -> impl Strategy<Value = Vec<(Type, Type)>> {
    let var = || (0..CONTEXT_VARS).prop_map(tvar);
    proptest::collection::vec(
        prop_oneof![
            (var(), var()),
            (var(), any_type(0..CONTEXT_VARS)),
            (any_type(0..CONTEXT_VARS), any_type(0..CONTEXT_VARS)),
        ],
        0..5,
    )
}

/// A context whose fresh variables start at [`CONTEXT_VARS`], after the
/// `pre` unifications.
fn context(pre: &[(Type, Type)]) -> Context {
    let mut ctx = Context::starting_after(&tvar(CONTEXT_VARS - 1));
    for (a, b) in pre {
        let _ = ctx.unify(a, b);
    }
    ctx
}

/// What [`Scheme::return_fits`] replaces.
fn slow_return_fits(template: &Type, ctx: &mut Context, request: &Type) -> bool {
    let cp = ctx.checkpoint();
    let t = template.instantiate(ctx);
    let ok = ctx.unify(t.returns(), request).is_ok();
    ctx.rollback(cp);
    ok
}

/// What [`Context::returns_unify`] replaces.
fn slow_returns_unify(ty: &Type, ctx: &mut Context, request: &Type) -> bool {
    let cp = ctx.checkpoint();
    let t = ty.apply(ctx);
    let ok = ctx.unify(t.returns(), request).is_ok();
    ctx.rollback(cp);
    ok
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Templates over four variables are linear or not. Requests range
    /// over the context's variables, bound and unbound, or over two of
    /// them, which then repeat, or are a pair of one type twice.
    #[test]
    fn return_fits_matches_instantiate_unify_rollback(
        pre in pre_bindings(),
        template in prop_oneof![
            any_type(0..4),
            (any_type(0..4), any_type(0..4)).prop_map(|(a, b)| pair(a, b)),
        ],
        request in prop_oneof![
            any_type(0..CONTEXT_VARS),
            any_type(4..CONTEXT_VARS),
            any_type(4..CONTEXT_VARS).prop_map(|t| pair(t.clone(), t)),
        ],
    ) {
        let mut ctx = context(&pre);
        let before = ctx.clone();
        let scheme = Scheme::new(&template);
        let fast = scheme.return_fits(&mut ctx, &request);
        prop_assert_eq!(&ctx, &before);
        prop_assert_eq!(fast, slow_return_fits(&template, &mut ctx, &request));
        prop_assert_eq!(scheme.instantiate(&mut ctx.clone()), template.instantiate(&mut ctx));
    }

    /// A bound variable's type is checked without applying the
    /// substitution first.
    #[test]
    fn returns_unify_matches_apply_unify_rollback(
        pre in pre_bindings(),
        ty in any_type(0..CONTEXT_VARS),
        request in any_type(0..CONTEXT_VARS),
    ) {
        let mut ctx = context(&pre);
        let before = ctx.clone();
        let fast = ctx.returns_unify(&ty, &request);
        prop_assert_eq!(&ctx, &before);
        prop_assert_eq!(fast, slow_returns_unify(&ty, &mut ctx, &request));
    }

    /// The boolean unification makes the same bindings as the one that
    /// reports its error.
    #[test]
    fn unify_ok_agrees_with_unify(
        pre in pre_bindings(),
        a in any_type(0..CONTEXT_VARS),
        b in any_type(0..CONTEXT_VARS),
    ) {
        let mut fast = context(&pre);
        let mut slow = fast.clone();
        prop_assert_eq!(fast.unify_ok(&a, &b), slow.unify(&a, &b).is_ok());
        prop_assert_eq!(
            (a.apply(&fast), b.apply(&fast), fast.fresh_variable()),
            (a.apply(&slow), b.apply(&slow), slow.fresh_variable())
        );
    }
}

/// Fixed inputs the random ones may miss. Each row is a template, a
/// request, and the unifications made before the check.
#[test]
fn return_fits_on_fixed_cases() {
    let cases = [
        // Each position fits on its own, but `t5` cannot be both.
        (pair(tint(), tbool()), pair(tvar(5), tvar(5)), vec![]),
        (pair(tint(), tint()), pair(tvar(5), tvar(5)), vec![]),
        // A non-linear template against distinct request variables.
        (pair(tvar(0), tvar(0)), pair(tint(), tvar(5)), vec![]),
        (pair(tvar(0), tvar(0)), pair(tint(), tbool()), vec![]),
        // A chain t1 -> t2 -> list(t3), t3 -> bool.
        (
            tlist(tint()),
            tvar(1),
            vec![
                (tvar(1), tvar(2)),
                (tvar(2), tlist(tvar(3))),
                (tvar(3), tbool()),
            ],
        ),
        (
            Type::arrow(tint(), tlist(tvar(0))),
            tvar(1),
            vec![(tvar(1), tvar(2)), (tvar(2), tlist(tvar(3)))],
        ),
        // An unbound request variable against a constructor, at the top
        // and inside the request.
        (tlist(tint()), tvar(4), vec![]),
        (tlist(tlist(tint())), tlist(tvar(4)), vec![]),
    ];
    for (template, request, pre) in cases {
        let mut ctx = context(&pre);
        let fast = Scheme::new(&template).return_fits(&mut ctx, &request);
        assert_eq!(
            fast,
            slow_return_fits(&template, &mut ctx, &request),
            "{template} against {request}"
        );
    }
    let mut ctx = context(&[]);
    assert!(!Scheme::new(&pair(tint(), tbool())).return_fits(&mut ctx, &pair(tvar(5), tvar(5))));
}
