//! The symbolic-regression domain (§5): synthesize programs with
//! real-valued parameters from input/output examples of polynomials and
//! rational functions, fitting the continuous parameters in an inner
//! optimization loop (the paper uses gradient descent; we use a coarse
//! grid plus coordinate-descent refinement, which is robust for the 2-D
//! parameter spaces here).
//!
//! Programs have type `real -> real -> real -> real`: the first two
//! arguments are the free parameters `a, b`; the third is `x`.

use std::sync::Arc;

use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::Expr;
use dc_lambda::types::{treal, Type};
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{held_out_split, Corpus, Domain, FEATURE_DIM};
use crate::domains::reals::real_primitives;
use crate::task::{Example, Task, TaskOracle};

/// Request type of every symbolic-regression program.
pub fn symreg_request() -> Type {
    Type::arrows(vec![treal(), treal(), treal()], treal())
}

/// Evaluate `program(a, b, x)`.
fn eval_at(program: &Expr, a: f64, b: f64, x: f64) -> Option<f64> {
    let mut ctx = EvalCtx::with_fuel(3_000);
    let v = ctx
        .run(program, &[Value::Real(a), Value::Real(b), Value::Real(x)])
        .ok()?;
    v.as_real().ok().filter(|r| r.is_finite())
}

fn mse(program: &Expr, a: f64, b: f64, points: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    for &(x, y) in points {
        match eval_at(program, a, b, x) {
            Some(p) => total += (p - y) * (p - y),
            None => return f64::INFINITY,
        }
    }
    total / points.len() as f64
}

/// Fit `(a, b)` minimizing mean squared error: coarse grid over
/// `[-4, 4]²` followed by shrinking coordinate descent.
pub fn fit_parameters(program: &Expr, points: &[(f64, f64)]) -> (f64, f64, f64) {
    let mut best = (0.0, 0.0, f64::INFINITY);
    let grid: Vec<f64> = (-4..=4).map(|i| i as f64).collect();
    for &a in &grid {
        for &b in &grid {
            let e = mse(program, a, b, points);
            if e < best.2 {
                best = (a, b, e);
            }
        }
    }
    let (mut a, mut b, mut e) = best;
    let mut step = 0.5;
    for _ in 0..40 {
        let mut improved = false;
        for (da, db) in [(step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)] {
            let e2 = mse(program, a + da, b + db, points);
            if e2 < e {
                a += da;
                b += db;
                e = e2;
                improved = true;
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-6 {
                break;
            }
        }
    }
    (a, b, e)
}

/// Oracle: solved when the best-fit MSE falls below `tolerance`.
#[derive(Debug, Clone)]
pub struct SymRegOracle {
    /// The `(x, y)` data points.
    pub points: Vec<(f64, f64)>,
    /// MSE threshold for success.
    pub tolerance: f64,
}

impl TaskOracle for SymRegOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        let (_, _, e) = fit_parameters(program, &self.points);
        if e < self.tolerance {
            // Gaussian-likelihood-style score: better fits score higher.
            -e
        } else {
            f64::NEG_INFINITY
        }
    }
}

struct Template {
    name: &'static str,
    f: Box<dyn Fn(f64, f64, f64) -> f64 + Send + Sync>,
}

fn templates() -> Vec<Template> {
    fn t(name: &'static str, f: impl Fn(f64, f64, f64) -> f64 + Send + Sync + 'static) -> Template {
        Template {
            name,
            f: Box::new(f),
        }
    }
    vec![
        t("constant", |a, _, _| a),
        t("linear ax", |a, _, x| a * x),
        t("affine ax+b", |a, b, x| a * x + b),
        t("quadratic ax^2", |a, _, x| a * x * x),
        t("quadratic ax^2+b", |a, b, x| a * x * x + b),
        t("quadratic ax^2+bx", |a, b, x| a * x * x + b * x),
        t("cubic ax^3", |a, _, x| a * x * x * x),
        t("cubic ax^3+b", |a, b, x| a * x * x * x + b),
        t("rational a/x", |a, _, x| a / x),
        t("rational a/x+b", |a, b, x| a / x + b),
        t("rational a/(x+b)", |a, b, x| a / (x + b)),
        t("scaled square plus x", |a, _, x| a * x * x + x),
    ]
}

/// The symbolic-regression domain.
pub struct SymRegDomain {
    corpus: Corpus,
}

/// x-coordinates used for all tasks (zero avoided for rational functions).
const XS: [f64; 6] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0];

fn symreg_features(points: &[(f64, f64)]) -> Vec<f64> {
    // The paper featurizes a rendered graph via CNN; we expose the sampled
    // y-values (clipped & squashed) directly, which carries the same
    // information for the recognition model at this scale.
    let mut f: Vec<f64> = points.iter().map(|(_, y)| (y / 10.0).tanh()).collect();
    f.resize(FEATURE_DIM, 0.0);
    f
}

/// A task over `(x, y)` data points.
fn points_task(name: &str, request: Type, points: Vec<(f64, f64)>) -> Task {
    let examples = points
        .iter()
        .map(|&(x, y)| Example {
            inputs: vec![Value::Real(x)],
            output: Value::Real(y),
        })
        .collect();
    Task {
        name: name.to_owned(),
        request,
        features: symreg_features(&points),
        oracle: Arc::new(SymRegOracle {
            points,
            tolerance: 1e-3,
        }),
        examples,
    }
}

fn build_task<R: Rng + ?Sized>(tpl: &Template, rng: &mut R) -> Task {
    let a = rng.gen_range(-3.0..3.0f64).round().max(1.0);
    let b = rng.gen_range(-3.0..3.0f64).round();
    let points = XS.iter().map(|&x| (x, (tpl.f)(a, b, x))).collect();
    points_task(tpl.name, symreg_request(), points)
}

impl SymRegDomain {
    /// Build the domain; even templates train (two instances each), odd
    /// test.
    pub fn new(seed: u64) -> SymRegDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (train, test) = held_out_split(templates(), 2, |tpl| build_task(tpl, &mut rng));
        SymRegDomain {
            corpus: Corpus {
                name: "symreg",
                primitives: real_primitives(),
                train,
                test,
                dream_requests: vec![symreg_request()],
            },
        }
    }
}

impl Domain for SymRegDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-3.0..3.0);
        let points: Vec<(f64, f64)> = XS
            .iter()
            .map(|&x| eval_at(program, a, b, x).map(|y| (x, y)))
            .collect::<Option<Vec<_>>>()?;
        if points.iter().all(|(_, y)| (y - points[0].1).abs() < 1e-9) {
            return None; // constant dream: uninformative
        }
        Some(points_task("dream", request.clone(), points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_recovers_linear_parameters() {
        let prims = real_primitives();
        // f(a,b,x) = a*x + b
        let p = Expr::parse("(lambda (lambda (lambda (+. (*. $2 $0) $1))))", &prims).unwrap();
        let points: Vec<(f64, f64)> = XS.iter().map(|&x| (x, 2.0 * x - 1.0)).collect();
        let (a, b, e) = fit_parameters(&p, &points);
        assert!(e < 1e-6, "mse = {e}");
        assert!(
            (a - 2.0).abs() < 1e-3 && (b + 1.0).abs() < 1e-3,
            "a={a} b={b}"
        );
    }

    #[test]
    fn oracle_accepts_correct_family_rejects_wrong() {
        let d = SymRegDomain::new(0);
        let prims = d.primitives();
        let linear = Expr::parse("(lambda (lambda (lambda (+. (*. $2 $0) $1))))", prims).unwrap();
        let quad = Expr::parse(
            "(lambda (lambda (lambda (+. (*. $2 (*. $0 $0)) $1))))",
            prims,
        )
        .unwrap();
        let affine = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "affine ax+b")
            .expect("affine task");
        assert!(affine.check(&linear));
        assert!(
            !affine.check(&quad),
            "quadratic family shouldn't fit ax+b data exactly"
        );
    }

    #[test]
    fn rational_tasks_need_division() {
        let d = SymRegDomain::new(1);
        let prims = d.primitives();
        let rational = Expr::parse("(lambda (lambda (lambda (/. $2 $0))))", prims).unwrap();
        if let Some(task) = d
            .train_tasks()
            .iter()
            .chain(d.test_tasks())
            .find(|t| t.name == "rational a/x")
        {
            assert!(task.check(&rational));
        }
    }

    #[test]
    fn dreams_are_fittable_by_their_own_program() {
        let d = SymRegDomain::new(2);
        let prims = d.primitives();
        let p = Expr::parse("(lambda (lambda (lambda (*. $2 $0))))", prims).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let task = d.dream(&p, &symreg_request(), &mut rng).expect("dream");
        assert!(task.check(&p));
    }
}
