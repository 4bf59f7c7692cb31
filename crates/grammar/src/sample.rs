//! Sampling random programs from a grammar — the generative direction used
//! to produce "dreams"/fantasies during dream sleep (§4).

use dc_lambda::expr::Expr;
use dc_lambda::types::{Context, Type};
use rand::Rng;

use crate::grammar::{candidate_heads, commit_head, ProgramPrior};
use crate::library::BigramParent;

/// Sample a program of type `request`. Returns `None` if generation blows
/// past `max_depth` (callers typically retry).
pub fn sample_program<R: Rng + ?Sized>(
    prior: &dyn ProgramPrior,
    request: &Type,
    rng: &mut R,
    max_depth: usize,
) -> Option<Expr> {
    let mut ctx = Context::starting_after(request);
    sample_inner(
        prior,
        &mut ctx,
        &mut Vec::new(),
        BigramParent::Start,
        0,
        request.clone(),
        rng,
        max_depth,
    )
}

#[allow(clippy::too_many_arguments)]
fn sample_inner<R: Rng + ?Sized>(
    prior: &dyn ProgramPrior,
    ctx: &mut Context,
    env: &mut Vec<Type>,
    parent: BigramParent,
    arg: usize,
    request: Type,
    rng: &mut R,
    depth: usize,
) -> Option<Expr> {
    if depth == 0 {
        return None;
    }
    let request = request.apply(ctx);
    if let Some((a, b)) = request.as_arrow() {
        let (a, b) = (a.clone(), b.clone());
        env.insert(0, a);
        let body = sample_inner(prior, ctx, env, parent, arg, b, rng, depth);
        env.remove(0);
        return body.map(Expr::abstraction);
    }
    let heads = candidate_heads(prior, parent, arg, ctx, env, &request);
    if heads.is_empty() {
        return None;
    }
    // Sample proportional to exp(log_prob). Candidate probabilities are
    // normalized in log space, but their exp-sum can fall short of 1 under
    // float underflow/rounding; drawing `u` on [0,1) and falling back to
    // the last candidate would silently hand that missing mass to whoever
    // sorts last. Scaling the draw by the actual total mass keeps every
    // candidate at exactly its normalized probability.
    let total: f64 = heads.iter().map(|c| c.log_prob.exp()).sum();
    let u: f64 = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    let mut chosen = heads.len() - 1;
    for (i, c) in heads.iter().enumerate() {
        acc += c.log_prob.exp();
        if u <= acc {
            chosen = i;
            break;
        }
    }
    let head = &heads[chosen];
    let arg_types = commit_head(prior, ctx, env, &request, head)
        .expect("head feasibility established under the same context");
    let mut expr = head.expr.clone();
    for (k, at) in arg_types.into_iter().enumerate() {
        let a = sample_inner(prior, ctx, env, head.child_parent, k, at, rng, depth - 1)?;
        expr = Expr::application(expr, a);
    }
    Some(expr)
}

/// Sample up to `attempts` times until a sample succeeds.
pub fn sample_program_with_retries<R: Rng + ?Sized>(
    prior: &dyn ProgramPrior,
    request: &Type,
    rng: &mut R,
    max_depth: usize,
    attempts: usize,
) -> Option<Expr> {
    (0..attempts).find_map(|_| sample_program(prior, request, rng, max_depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Grammar;
    use crate::library::Library;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist};
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn samples_are_well_typed() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(lib);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let mut got = 0;
        for _ in 0..200 {
            if let Some(e) = sample_program(&g, &t, &mut rng, 8) {
                got += 1;
                let it = e.infer().unwrap_or_else(|_| panic!("ill-typed sample {e}"));
                let mut ctx = Context::starting_after(&it);
                let inst = t.instantiate(&mut ctx);
                assert!(ctx.unify(&it, &inst).is_ok(), "sample {e} : {it} not {t}");
            }
        }
        assert!(got > 50, "sampling almost always failed ({got}/200)");
    }

    #[test]
    fn sample_prior_is_finite() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(lib);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let t = tint();
        for _ in 0..100 {
            if let Some(e) = sample_program(&g, &t, &mut rng, 8) {
                assert!(g.log_prior(&t, &e).is_finite(), "sample {e} has -inf prior");
            }
        }
    }

    #[test]
    fn sampling_is_unbiased_over_many_feasible_heads() {
        use dc_lambda::eval::Value;
        use dc_lambda::expr::Primitive;
        use std::collections::HashMap;

        // A context with many feasible heads: 12 nullary int constants, so
        // every draw succeeds and the head frequency IS the candidate
        // probability. Regression test for the last-candidate fallback
        // bias: no head (in particular not the final one) may absorb
        // missing probability mass.
        let k = 12usize;
        let lib = Arc::new(Library::from_primitives((0..k).map(|i| {
            Primitive::constant(&format!("c{i}"), tint(), Value::Int(i as i64))
        })));
        let g = Grammar::uniform(lib);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 12_000usize;
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..n {
            let e = sample_program(&g, &tint(), &mut rng, 4).expect("constants always sample");
            *counts.entry(e.to_string()).or_default() += 1;
        }
        let expected = n as f64 / k as f64;
        // 4σ of a binomial with p = 1/12 over 12k draws is ~120; allow 200.
        for i in 0..k {
            let got = *counts.get(&format!("c{i}")).unwrap_or(&0) as f64;
            assert!(
                (got - expected).abs() < 200.0,
                "head c{i} drawn {got} times, expected ~{expected:.0}"
            );
        }
    }

    #[test]
    fn retries_help() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(lib);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let t = tint();
        assert!(sample_program_with_retries(&g, &t, &mut rng, 6, 50).is_some());
    }
    #[test]
    fn sample_stream_is_pinned() {
        // The exact draws for a fixed seed: any change to how heads are
        // offered, normalized or committed (or to the RNG calls made per
        // choice point) shifts this stream and the dreams built from it.
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(lib);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let mut calls = 0;
        let mut got = Vec::new();
        while got.len() < 50 {
            calls += 1;
            if let Some(e) = sample_program(&g, &t, &mut rng, 8) {
                got.push(e.to_string());
            }
        }
        let expected = [
            "(lambda $0)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda (cons 1 $0))",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda (map (lambda 0) $0))",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda (fix (lambda (lambda (map (lambda $1) (car nil)))) (+ 1 1)))",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda (car nil))",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda (cdr $0))",
            "(lambda (index 0 nil))",
            "(lambda (car (cdr nil)))",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda (cdr $0))",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda nil)",
            "(lambda nil)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda $0)",
            "(lambda (if (is-nil (cdr $0)) $0 (fix (lambda (lambda $0)) nil)))",
        ];
        assert_eq!(got, expected);
        assert_eq!(calls, 172, "failed draws consume the stream too");
    }
}
