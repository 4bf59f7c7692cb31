//! Property tests for the [`Context`] checkpoint/rollback (undo-trail)
//! API: a trial unification — successful or failed — followed by a
//! rollback must leave no observable trace, i.e. substitution application
//! and fresh-variable allocation behave exactly as in a context that never
//! attempted the unification. This is the contract the enumerator's
//! allocation-lean hot loop relies on instead of cloning contexts.

use dc_lambda::types::{tbool, tint, tlist, tvar, Context, Type};
use proptest::prelude::*;

/// Arbitrary (possibly polymorphic, possibly clashing) types over the
/// constructors unification actually sees: ground atoms, type variables,
/// lists, and arrows.
fn any_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![Just(tint()), Just(tbool()), (0usize..6).prop_map(tvar),];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(tlist),
            (inner.clone(), inner).prop_map(|(a, b)| Type::arrow(a, b)),
        ]
    })
}

/// Observable fingerprint of a context: how it rewrites a set of probe
/// types, plus which index the next fresh variable would get.
fn fingerprint(ctx: &Context, probes: &[Type]) -> (Vec<Type>, usize) {
    let applied = probes.iter().map(|t| t.apply(ctx)).collect();
    let next = ctx.clone().fresh_variable_index();
    (applied, next)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// unify-then-rollback is a no-op on the observable state, for
    /// arbitrary type pairs and arbitrary pre-existing bindings.
    #[test]
    fn unify_then_rollback_restores_observables(
        pre in proptest::collection::vec((any_type(), any_type()), 0..4),
        a in any_type(),
        b in any_type(),
    ) {
        let mut ctx = Context::new();
        // Build up an arbitrary pre-state; failed unifications may leave
        // partial bindings, which is fine — they are part of the state
        // the rollback must preserve.
        for (x, y) in &pre {
            let _ = ctx.unify(x, y);
        }
        let probes: Vec<Type> = pre
            .iter()
            .flat_map(|(x, y)| [x.clone(), y.clone()])
            .chain([a.clone(), b.clone()])
            .chain((0..8).map(tvar))
            .collect();
        let before = fingerprint(&ctx, &probes);
        let cp = ctx.checkpoint();
        let _ = ctx.unify(&a, &b);
        ctx.rollback(cp);
        prop_assert_eq!(fingerprint(&ctx, &probes), before);
    }

    /// Nested checkpoints unwind like a stack: rolling back the outer
    /// checkpoint discards everything the inner trial left behind, even
    /// when the inner trial was itself committed (never rolled back).
    #[test]
    fn nested_rollback_unwinds_inner_commits(
        a in any_type(),
        b in any_type(),
        c in any_type(),
        d in any_type(),
    ) {
        let mut ctx = Context::new();
        let probes = [a.clone(), b.clone(), c.clone(), d.clone()];
        let before = fingerprint(&ctx, &probes);
        let outer = ctx.checkpoint();
        let _ = ctx.unify(&a, &b);
        // Inner trial committed: its bindings stay until the outer rollback.
        let _ = ctx.unify(&c, &d);
        ctx.rollback(outer);
        prop_assert_eq!(fingerprint(&ctx, &probes), before);
    }

    /// After a rollback, redoing the same unification reproduces the same
    /// result and the same observable bindings — rollback restores the
    /// fresh-variable counter, not just the substitution.
    #[test]
    fn rollback_then_redo_is_reproducible(a in any_type(), b in any_type()) {
        let mut ctx = Context::new();
        let cp = ctx.checkpoint();
        let first = ctx.unify(&a, &b).is_ok();
        let first_applied = (a.apply(&ctx), b.apply(&ctx));
        ctx.rollback(cp);
        let second = ctx.unify(&a, &b).is_ok();
        prop_assert_eq!(first, second);
        prop_assert_eq!((a.apply(&ctx), b.apply(&ctx)), first_applied);
    }
}

/// Equality compares bindings and the counter, not storage: a rollback
/// that empties slots far above any variable seen before leaves a context
/// equal to the one it started from.
#[test]
fn rollback_of_a_distant_binding_restores_equality() {
    let mut ctx = Context::new();
    let a = ctx.fresh_variable();
    ctx.unify(&a, &tint()).unwrap();
    let before = ctx.clone();
    let cp = ctx.checkpoint();
    ctx.unify(&tvar(10_000), &tlist(a)).unwrap();
    assert_ne!(ctx, before);
    ctx.rollback(cp);
    assert_eq!(ctx, before);
    ctx.fresh_variable();
    assert_ne!(ctx, before, "the counter is observable");
}
