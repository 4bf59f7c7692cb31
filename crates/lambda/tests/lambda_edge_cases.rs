//! Edge-case tests for the λ-calculus substrate: parser torture cases,
//! de Bruijn arithmetic at boundaries, evaluator guards, and type-system
//! corners.

use dc_lambda::eval::{run_program, EvalCtx, Value};
use dc_lambda::expr::Expr;
use dc_lambda::primitives::base_primitives;
use dc_lambda::types::{tbool, tint, tlist, tvar, Context, Type};
use dc_lambda::{Env, EvalError, MAX_DEPTH};

fn parse(s: &str) -> Expr {
    Expr::parse(s, &base_primitives()).unwrap()
}

#[test]
fn parser_handles_deep_nesting() {
    let mut src = String::from("1");
    for _ in 0..50 {
        src = format!("(+ 1 {src})");
    }
    let e = Expr::parse(&src, &base_primitives()).unwrap();
    // each layer adds app(app(+, 1), ·) = 4 nodes
    assert_eq!(e.size(), 50 * 4 + 1);
    assert_eq!(run_program(&e, &[], 100_000).unwrap(), Value::Int(51));
}

#[test]
fn parser_rejects_mismatched_parens_everywhere() {
    let prims = base_primitives();
    for bad in [
        "((+ 1 1)", "(+ 1 1))", "(lambda)", "#", "($x)", "$-1", "$1x",
    ] {
        assert!(
            Expr::parse(bad, &prims).is_err(),
            "{bad:?} should not parse"
        );
    }
}

#[test]
fn whitespace_is_flexible() {
    let prims = base_primitives();
    let a = Expr::parse("(+ 1    1)", &prims).unwrap();
    let b = Expr::parse("( +\n1\t1 )", &prims).unwrap();
    assert_eq!(a, b);
}

#[test]
fn shift_boundary_conditions() {
    // Shifting the variable bound *at* the cutoff.
    let e = parse("(lambda ($0 $1 $2))");
    let shifted = e.shift(3).unwrap();
    assert_eq!(shifted.to_string(), "(lambda ($0 $4 $5))");
    // Negative shift of the outermost free variable (index 0 outside the
    // binder) is invalid, however it is written.
    assert!(parse("(lambda $1)").shift(-1).is_none());
    assert!(parse("(lambda $2)").shift(-1).is_some());
}

#[test]
fn substitution_at_depth_respects_binders() {
    // [(λλ $2)][$0 := 1] — the index under two binders refers outward.
    let e = Expr::abstraction(Expr::abstraction(Expr::Index(2)));
    let one = parse("1");
    let result = e.substitute(0, &one);
    assert_eq!(result.to_string(), "(lambda (lambda 1))");
}

#[test]
fn beta_reduction_is_capture_avoiding() {
    // (λ (λ $1)) ($0 free) — substituting a free variable under a binder
    // must shift it: result (λ $1), not (λ $0).
    let f = Expr::abstraction(Expr::abstraction(Expr::Index(1)));
    let app = Expr::application(f, Expr::Index(0));
    let reduced = app.beta_normal_form(10).unwrap();
    assert_eq!(reduced.to_string(), "(lambda $1)");
}

#[test]
fn evaluator_bounds_list_growth() {
    // Repeated doubling of a list would explode; the guard trips first.
    let prims = base_primitives();
    let e = Expr::parse(
        "(lambda (fix (lambda (lambda (cons 1 ($1 $0)))) $0))",
        &prims,
    )
    .unwrap();
    let r = run_program(&e, &[Value::list(vec![])], 10_000_000);
    assert!(r.is_err(), "unbounded cons must fail cleanly");
}

#[test]
fn evaluator_depth_guard_reports_fuel_exhaustion() {
    let prims = base_primitives();
    // Deep non-recursive nesting is fine…
    let mut src = String::from("$0");
    for _ in 0..50 {
        src = format!("((lambda $0) {src})");
    }
    let e = Expr::parse(&format!("(lambda {src})"), &prims).unwrap();
    assert_eq!(
        run_program(&e, &[Value::Int(7)], 100_000).unwrap(),
        Value::Int(7)
    );
    // …but nesting past MAX_DEPTH trips the guard, however much fuel is left.
    let mut deep = Expr::Index(0);
    for _ in 0..MAX_DEPTH {
        deep = Expr::application(Expr::abstraction(Expr::Index(0)), deep);
    }
    let deep = Expr::abstraction(deep);
    assert_eq!(
        run_program(&deep, &[Value::Int(7)], u64::MAX),
        Err(EvalError::FuelExhausted)
    );
}

#[test]
fn parser_rejects_programs_nested_past_max_depth() {
    // Runs on the default test-thread stack: each shape is 100,000 deep,
    // far past what the recursive parser could survive unguarded.
    let prims = base_primitives();
    let n = 100_000;
    let shapes = [
        format!("{}1{}", "(lambda ".repeat(n), ")".repeat(n)),
        format!("{}1{}", "(+ 1 ".repeat(n), ")".repeat(n)),
        format!("{}1{}", "(".repeat(n), ")".repeat(n)),
        format!("{}1{}", "#(lambda ".repeat(n), ")".repeat(n)),
        // A flat application spine nests its tree just as deeply.
        format!("(+{})", " 1".repeat(n)),
    ];
    for src in &shapes {
        let err = Expr::parse(src, &prims).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
    // The bound itself is accepted.
    let at_bound = format!("{}1{}", "(lambda ".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
    assert!(Expr::parse(&at_bound, &prims).is_ok());
    let past_bound = format!("(lambda {at_bound})");
    assert!(Expr::parse(&past_bound, &prims).is_err());
}

#[test]
fn env_is_persistent_not_destructive() {
    let base = Env::new().push(Value::Int(1));
    let a = base.push(Value::Int(2));
    let b = base.push(Value::Int(3));
    assert_eq!(a.lookup(0), Some(&Value::Int(2)));
    assert_eq!(b.lookup(0), Some(&Value::Int(3)));
    assert_eq!(a.lookup(1), Some(&Value::Int(1)));
    assert_eq!(b.lookup(1), Some(&Value::Int(1)));
}

#[test]
fn polymorphic_self_application_is_rejected() {
    // (λ ($0 $0)) cannot typecheck in HM.
    let e = Expr::abstraction(Expr::application(Expr::Index(0), Expr::Index(0)));
    assert!(e.infer().is_err());
}

#[test]
fn if_branches_unify() {
    let e = parse("(lambda (if $0 1 0))");
    assert_eq!(
        e.infer().unwrap().canonicalize(),
        Type::arrow(tbool(), tint())
    );
    let bad = Expr::parse("(lambda (if $0 1 nil))", &base_primitives()).unwrap();
    assert!(bad.infer().is_err());
}

#[test]
fn instantiation_respects_sharing_within_a_type() {
    // fold : list(t0) -> t1 -> (t0 -> t1 -> t1) -> t1. Instantiate twice:
    // separate variables per instantiation, shared within one.
    let prims = base_primitives();
    let fold = prims.iter().find(|p| p.name == "fold").unwrap().ty.clone();
    let mut ctx = Context::new();
    let i1 = fold.instantiate(&mut ctx);
    let i2 = fold.instantiate(&mut ctx);
    assert_ne!(i1, i2);
    let v1 = i1.free_variables();
    let v2 = i2.free_variables();
    assert_eq!(v1.len(), 2);
    assert!(v1.iter().all(|v| !v2.contains(v)));
}

#[test]
fn unification_is_order_insensitive_for_these_cases() {
    for (a, b) in [
        (tlist(tvar(0)), tlist(tint())),
        (Type::arrow(tvar(0), tvar(1)), Type::arrow(tint(), tbool())),
    ] {
        let mut c1 = Context::starting_after(&a);
        let mut c2 = Context::starting_after(&a);
        assert!(c1.unify(&a, &b).is_ok());
        assert!(c2.unify(&b, &a).is_ok());
        assert_eq!(a.apply(&c1), a.apply(&c2));
    }
}

#[test]
fn fuel_is_consumed_monotonically() {
    let prims = base_primitives();
    let e = Expr::parse("(+ 1 (+ 1 (+ 1 1)))", &prims).unwrap();
    let mut ctx = EvalCtx::with_fuel(1000);
    let before = ctx.fuel();
    ctx.eval(&e, &Env::new()).unwrap();
    assert!(ctx.fuel() < before);
}

#[test]
fn higher_order_if_as_value() {
    // `if` passed where a function is expected still behaves (strictly).
    let prims = base_primitives();
    let e = Expr::parse(
        "(map (if true (lambda (+ $0 1)) (lambda $0)) (cons 1 nil))",
        &prims,
    )
    .unwrap();
    assert_eq!(
        run_program(&e, &[], 100_000).unwrap(),
        Value::list(vec![Value::Int(2)])
    );
}

#[test]
fn display_of_invented_routines_is_stable() {
    let prims = base_primitives();
    let e = Expr::parse("(#(lambda (+ $0 $0)) 1)", &prims).unwrap();
    assert_eq!(e.to_string(), "(#(lambda (+ $0 $0)) 1)");
    // And re-parsable.
    let e2 = Expr::parse(&e.to_string(), &prims).unwrap();
    assert_eq!(e, e2);
}

#[test]
fn unification_errors_render_the_clashing_pair() {
    let mut ctx = Context::new();
    let err = ctx.unify(&tlist(tint()), &tlist(tbool())).unwrap_err();
    assert_eq!(err.to_string(), "cannot unify int with bool");
    // The clash is rendered under the bindings made before it.
    let mut ctx = Context::new();
    let err = ctx
        .unify(
            &Type::arrow(tvar(0), tvar(0)),
            &Type::arrow(tlist(tvar(1)), tint()),
        )
        .unwrap_err();
    assert_eq!(err.to_string(), "cannot unify list(t1) with int");
    let err = ctx.unify(&tvar(2), &tlist(tvar(2))).unwrap_err();
    assert_eq!(err.to_string(), "cannot unify t2 with list(t2)");
    let err = ctx.unify(&tlist(tvar(3)), &tvar(3)).unwrap_err();
    assert_eq!(err.to_string(), "cannot unify list(t3) with t3");
    let err = parse("(lambda $1)").infer().unwrap_err();
    assert_eq!(err.to_string(), "cannot unify $1 with unbound index");
}
