//! Algebraic laws of the version-space operations (Definition 3.1/3.2):
//! union and intersection behave as set union/intersection on extensions,
//! downshift agrees with expression-level shifting, substitution
//! inversion respects the β-reduction semantics, and the memoized
//! extension sampler returns what the direct recursive one returns.

use dc_lambda::expr::Expr;
use dc_lambda::primitives::base_primitives;
use dc_vspace::{SpaceArena, SpaceId, SpaceNode};
use proptest::prelude::*;

fn int_expr() -> impl Strategy<Value = Expr> {
    int_expr_up_to(3, 10)
}

/// Arithmetic over 0 and 1, nested at most `depth` deep, with about
/// `size` nodes at most.
fn int_expr_up_to(depth: u32, size: u32) -> impl Strategy<Value = Expr> {
    let prims = base_primitives();
    let leaf = prop_oneof![
        Just(Expr::parse("0", &prims).unwrap()),
        Just(Expr::parse("1", &prims).unwrap()),
    ];
    let plus = Expr::parse("+", &prims).unwrap();
    let times = Expr::parse("*", &prims).unwrap();
    leaf.prop_recursive(depth, size, 2, move |inner| {
        (
            prop_oneof![Just(plus.clone()), Just(times.clone())],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::apply_all(op, [a, b]))
    })
}

/// The direct sampler `extension_sample` replaced: up to `limit`
/// members of `⟦v⟧` in DFS order, re-sampling every subtree it visits.
fn reference_sample(arena: &SpaceArena, v: SpaceId, limit: usize, out: &mut Vec<Expr>) {
    if out.len() >= limit {
        return;
    }
    match arena.node(v) {
        SpaceNode::Void | SpaceNode::Universe => {}
        SpaceNode::Index(i) => out.push(Expr::Index(*i)),
        SpaceNode::Terminal(e) => out.push(e.clone()),
        SpaceNode::Abstraction(b) => {
            let mut bodies = Vec::new();
            reference_sample(arena, *b, limit - out.len(), &mut bodies);
            out.extend(bodies.into_iter().map(Expr::abstraction));
        }
        SpaceNode::Application(f, x) => {
            let mut fs = Vec::new();
            reference_sample(arena, *f, limit, &mut fs);
            let mut xs = Vec::new();
            reference_sample(arena, *x, limit, &mut xs);
            'outer: for fe in &fs {
                for xe in &xs {
                    if out.len() >= limit {
                        break 'outer;
                    }
                    out.push(Expr::application(fe.clone(), xe.clone()));
                }
            }
        }
        SpaceNode::Union(ms) => {
            for &m in ms {
                if out.len() >= limit {
                    break;
                }
                reference_sample(arena, m, limit, out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ⟦a ⊎ b⟧ = ⟦a⟧ ∪ ⟦b⟧ on concrete expressions.
    #[test]
    fn union_extension_is_set_union(a in int_expr(), b in int_expr()) {
        let mut arena = SpaceArena::new();
        let va = arena.incorporate(&a);
        let vb = arena.incorporate(&b);
        let u = arena.union([va, vb]);
        prop_assert!(arena.contains(u, &a));
        prop_assert!(arena.contains(u, &b));
        let count = arena.extension_count(u, 1e9);
        let expected = if a == b { 1.0 } else { 2.0 };
        prop_assert_eq!(count, expected);
    }

    /// Intersection with self is identity; with a disjoint singleton it
    /// is empty.
    #[test]
    fn intersection_laws(a in int_expr(), b in int_expr()) {
        let mut arena = SpaceArena::new();
        let va = arena.incorporate(&a);
        let vb = arena.incorporate(&b);
        prop_assert_eq!(arena.intersect(va, va), va);
        let meet = arena.intersect(va, vb);
        if a == b {
            prop_assert_eq!(meet, va);
        } else {
            prop_assert_eq!(meet, arena.void());
        }
    }

    /// Union is commutative and associative at the id level (hash-consing
    /// canonicalizes member order).
    #[test]
    fn union_is_acommutative(a in int_expr(), b in int_expr(), c in int_expr()) {
        let mut arena = SpaceArena::new();
        let va = arena.incorporate(&a);
        let vb = arena.incorporate(&b);
        let vc = arena.incorporate(&c);
        let ab_c = {
            let ab = arena.union([va, vb]);
            arena.union([ab, vc])
        };
        let a_bc = {
            let bc = arena.union([vb, vc]);
            arena.union([va, bc])
        };
        prop_assert_eq!(ab_c, a_bc);
        let ba = arena.union([vb, va]);
        let ab = arena.union([va, vb]);
        prop_assert_eq!(ab, ba);
    }

    /// Distributivity through application: (f ⊎ g) x ⊇ {f x, g x}.
    #[test]
    fn application_distributes_over_union(f in int_expr(), g in int_expr(), x in int_expr()) {
        let mut arena = SpaceArena::new();
        let vf = arena.incorporate(&f);
        let vg = arena.incorporate(&g);
        let vx = arena.incorporate(&x);
        let u = arena.union([vf, vg]);
        let app = arena.application(u, vx);
        prop_assert!(arena.contains(app, &Expr::application(f.clone(), x.clone())));
        prop_assert!(arena.contains(app, &Expr::application(g.clone(), x.clone())));
    }

    /// The substitutions operator really inverts β: every (body, value)
    /// pair with a concrete body+value reduces back to the original.
    #[test]
    fn substitutions_invert_beta(e in int_expr()) {
        let mut arena = SpaceArena::new();
        let v = arena.incorporate(&e);
        for (value, body) in arena.substitutions(v, 0) {
            let bodies = arena.extension_sample(body, 8);
            let values = arena.extension_sample(value, 4);
            for be in &bodies {
                for ve in &values {
                    let redex = Expr::application(Expr::abstraction(be.clone()), ve.clone());
                    let nf = redex.beta_normal_form(10_000);
                    prop_assert_eq!(
                        nf.as_ref(),
                        Some(&e),
                        "({}) applied to ({}) did not reduce to {}",
                        be,
                        ve,
                        e
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampling each node once from its children's samples gives every
    /// node of a refactoring space the sample the direct recursion gives,
    /// at every limit. The expressions are kept small because every node
    /// of the space is sampled on its own.
    #[test]
    fn memoized_sampling_matches_the_direct_recursion(
        e in int_expr_up_to(2, 6),
        steps in 1usize..=2,
    ) {
        let mut arena = SpaceArena::new();
        let space = arena.refactor(&e, steps);
        for v in arena.reachable(space) {
            for limit in 1..=8 {
                let mut want = Vec::new();
                reference_sample(&arena, v, limit, &mut want);
                prop_assert_eq!(arena.extension_sample(v, limit), want, "node {} limit {}", v, limit);
            }
        }
    }
}
