//! The physics-law discovery domain (§5.2, Fig 11A): 60 physical laws and
//! mathematical identities from AP/MCAT-level physics, specified by
//! numerical examples, to be explained starting from a generic basis of
//! recursive sequence operations plus arithmetic (vectors are lists of
//! numbers; constants are in natural units, as the paper's Planck-unit
//! convention).

use std::sync::Arc;

use dc_lambda::eval::Value;
use dc_lambda::expr::Expr;
use dc_lambda::primitives::{
    prim_car, prim_cdr, prim_cons, prim_fold, prim_map, prim_nil, prim_zip, PrimitiveSet,
};
use dc_lambda::types::{tlist, treal, Type};
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{dream_io, Corpus, Domain};
use crate::domains::reals::{real_primitives, RealOracle};
use crate::task::{io_features, Example, Task, TaskOracle};

/// Argument kinds for a law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A positive scalar.
    Scalar,
    /// A 3-vector (list of reals).
    Vector,
}

/// Output kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Out {
    /// A real number.
    Scalar,
    /// A list of reals.
    Vector,
}

/// The ground-truth implementation of a law.
pub type LawFn = dyn Fn(&[LawInput]) -> Vec<f64> + Send + Sync;

/// One law: name, signature, and ground-truth function.
pub struct Law {
    /// Conventional name, e.g. `"F = m a"`.
    pub name: &'static str,
    /// Argument kinds.
    pub args: Vec<Arg>,
    /// Output kind.
    pub out: Out,
    /// Ground truth.
    pub f: Box<LawFn>,
}

/// A sampled law input.
#[derive(Debug, Clone)]
pub enum LawInput {
    /// Scalar value.
    S(f64),
    /// Vector value.
    V(Vec<f64>),
}

impl LawInput {
    fn s(&self) -> f64 {
        match self {
            LawInput::S(v) => *v,
            LawInput::V(_) => panic!("expected scalar"),
        }
    }
    fn v(&self) -> &[f64] {
        match self {
            LawInput::V(v) => v,
            LawInput::S(_) => panic!("expected vector"),
        }
    }
}

fn dot(u: &[f64], v: &[f64]) -> f64 {
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

/// The 60-law dataset (mechanics, electromagnetism, vector algebra).
pub fn laws() -> Vec<Law> {
    fn s1(name: &'static str, f: impl Fn(f64) -> f64 + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Scalar],
            out: Out::Scalar,
            f: Box::new(move |a| vec![f(a[0].s())]),
        }
    }
    fn s2(name: &'static str, f: impl Fn(f64, f64) -> f64 + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Scalar, Arg::Scalar],
            out: Out::Scalar,
            f: Box::new(move |a| vec![f(a[0].s(), a[1].s())]),
        }
    }
    fn s3(name: &'static str, f: impl Fn(f64, f64, f64) -> f64 + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Scalar; 3],
            out: Out::Scalar,
            f: Box::new(move |a| vec![f(a[0].s(), a[1].s(), a[2].s())]),
        }
    }
    fn v1s(name: &'static str, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Vector],
            out: Out::Scalar,
            f: Box::new(move |a| vec![f(a[0].v())]),
        }
    }
    fn v2s(name: &'static str, f: impl Fn(&[f64], &[f64]) -> f64 + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Vector, Arg::Vector],
            out: Out::Scalar,
            f: Box::new(move |a| vec![f(a[0].v(), a[1].v())]),
        }
    }
    fn v2v(
        name: &'static str,
        f: impl Fn(&[f64], &[f64]) -> Vec<f64> + Send + Sync + 'static,
    ) -> Law {
        Law {
            name,
            args: vec![Arg::Vector, Arg::Vector],
            out: Out::Vector,
            f: Box::new(move |a| f(a[0].v(), a[1].v())),
        }
    }
    fn sv(name: &'static str, f: impl Fn(f64, &[f64]) -> Vec<f64> + Send + Sync + 'static) -> Law {
        Law {
            name,
            args: vec![Arg::Scalar, Arg::Vector],
            out: Out::Vector,
            f: Box::new(move |a| f(a[0].s(), a[1].v())),
        }
    }

    vec![
        // --- mechanics, scalar ---
        s2("F = m a", |m, a| m * a),
        s2("p = m v", |m, v| m * v),
        s2("KE = 1/2 m v^2", |m, v| 0.5 * m * v * v),
        s3("U = m g h", |m, g, h| m * g * h),
        s2("W = F d", |f, d| f * d),
        s2("P = W / t", |w, t| w / t),
        s2("v = d / t", |d, t| d / t),
        s3("a = (v2 - v1) / t", |v2, v1, t| (v2 - v1) / t),
        s3("v = v0 + a t", |v0, a, t| v0 + a * t),
        s3("x = v0 t + 1/2 a t^2", |v0, a, t| v0 * t + 0.5 * a * t * t),
        s2("F = k x (spring)", |k, x| k * x),
        s2("U = 1/2 k x^2 (spring)", |k, x| 0.5 * k * x * x),
        s2("tau = r F", |r, f| r * f),
        s2("omega = v / r", |v, r| v / r),
        s2("a_c = v^2 / r", |v, r| v * v / r),
        s3("F_c = m v^2 / r", |m, v, r| m * v * v / r),
        s2("rho = m / V", |m, v| m / v),
        s2("P = F / A", |f, a| f / a),
        s3("P = rho g h", |rho, g, h| rho * g * h),
        s2("Q = A v (flow)", |a, v| a * v),
        s2("w = m g", |m, g| m * g),
        s2("F = mu N", |mu, n| mu * n),
        s2("g = F / m", |f, m| f / m),
        s2("J = F t (impulse)", |f, t| f * t),
        s1("f = 1 / T", |t| 1.0 / t),
        s2("v2 = 2 a x (squared speed)", |a, x| 2.0 * a * x),
        s2("KE ratio = (v2/v1)^2", |v2, v1| (v2 / v1) * (v2 / v1)),
        s2("reduced mass = m1 m2/(m1+m2)", |a, b| a * b / (a + b)),
        s2("average = (a + b) / 2", |a, b| 0.5 * (a + b)),
        // --- gravity & electrostatics (natural units) ---
        s3("F = m1 m2 / r^2 (gravity)", |m1, m2, r| m1 * m2 / (r * r)),
        s3("F = q1 q2 / r^2 (Coulomb)", |q1, q2, r| q1 * q2 / (r * r)),
        s2("U = m1 m2 / r (grav potential)", |m, r| m / r),
        s1("inverse square of distance", |r| 1.0 / (r * r)),
        s2("field = F / q", |f, q| f / q),
        // --- circuits ---
        s2("V = I R", |i, r| i * r),
        s2("P = I V", |i, v| i * v),
        s2("P = I^2 R", |i, r| i * i * r),
        s2("P = V^2 / R", |v, r| v * v / r),
        s2("R series = R1 + R2", |a, b| a + b),
        s2("R parallel = R1 R2/(R1+R2)", |a, b| a * b / (a + b)),
        s2("C = Q / V", |q, v| q / v),
        s2("U = 1/2 C V^2", |c, v| 0.5 * c * v * v),
        s2("E = Q V", |q, v| q * v),
        s2("Q = I t", |i, t| i * t),
        // --- waves & optics ---
        s2("lambda = v / f", |v, f| v / f),
        s2("n = c / v (refraction)", |c, v| c / v),
        s2("E = h f (photon)", |h, f| h * f),
        s2("thin lens f = ab/(a+b)", |a, b| a * b / (a + b)),
        s1("period ratio = sqrt(L)", |l| l.sqrt()),
        s2("v = sqrt(T/mu) (string)", |t, mu| (t / mu).sqrt()),
        // --- vector algebra ---
        v2s("dot product", dot),
        v2v("vector sum", |u, v| {
            u.iter().zip(v).map(|(a, b)| a + b).collect()
        }),
        v2v("vector difference", |u, v| {
            u.iter().zip(v).map(|(a, b)| a - b).collect()
        }),
        sv("scalar multiply", |a, v| v.iter().map(|x| a * x).collect()),
        v1s("norm", |v| dot(v, v).sqrt()),
        v1s("norm squared", |v| dot(v, v)),
        v1s("sum of components", |v| v.iter().sum()),
        v2s("distance between points", |u, v| {
            u.iter()
                .zip(v)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        }),
        v2v("midpoint", |u, v| {
            u.iter().zip(v).map(|(a, b)| 0.5 * (a + b)).collect()
        }),
        v2s("work = F . d", dot),
    ]
}

/// The basis the learner starts from: recursive sequence operations plus
/// real arithmetic — *not* vector algebra, which must be invented.
pub fn physics_primitives() -> PrimitiveSet {
    let mut s = real_primitives();
    s.add(prim_map())
        .add(prim_fold())
        .add(prim_zip())
        .add(prim_car())
        .add(prim_cdr())
        .add(prim_cons())
        .add(prim_nil());
    s
}

fn law_request(law: &Law) -> Type {
    let args = law
        .args
        .iter()
        .map(|a| match a {
            Arg::Scalar => treal(),
            Arg::Vector => tlist(treal()),
        })
        .collect();
    let out = match law.out {
        Out::Scalar => treal(),
        Out::Vector => tlist(treal()),
    };
    Type::arrows(args, out)
}

fn sample_input<R: Rng + ?Sized>(kind: Arg, rng: &mut R) -> LawInput {
    match kind {
        Arg::Scalar => LawInput::S(rng.gen_range(0.5..3.0)),
        Arg::Vector => LawInput::V((0..3).map(|_| rng.gen_range(0.5..3.0)).collect()),
    }
}

fn input_value(i: &LawInput) -> Value {
    match i {
        LawInput::S(v) => Value::Real(*v),
        LawInput::V(v) => Value::list(v.iter().map(|&x| Value::Real(x)).collect()),
    }
}

fn output_value(out: Out, vals: Vec<f64>) -> Value {
    match out {
        Out::Scalar => Value::Real(vals[0]),
        Out::Vector => Value::list(vals.into_iter().map(Value::Real).collect()),
    }
}

/// A law's oracle: every example reproduced to a relative 10⁻³.
fn law_oracle(examples: Vec<Example>) -> Arc<dyn TaskOracle> {
    Arc::new(RealOracle {
        examples,
        rel_tol: 1e-3,
        fuel: 20_000,
    })
}

/// Build the task for one law with `n` random numerical examples.
pub fn law_task<R: Rng + ?Sized>(law: &Law, rng: &mut R, n: usize) -> Task {
    let mut examples = Vec::with_capacity(n);
    for _ in 0..n {
        let inputs: Vec<LawInput> = law.args.iter().map(|&k| sample_input(k, rng)).collect();
        let outputs = (law.f)(&inputs);
        examples.push(Example {
            inputs: inputs.iter().map(input_value).collect(),
            output: output_value(law.out, outputs),
        });
    }
    Task {
        name: law.name.to_owned(),
        request: law_request(law),
        oracle: law_oracle(examples.clone()),
        features: io_features(&examples),
        examples,
    }
}

/// The physics domain. Unlike the I/O domains there is no held-out split:
/// the paper reports the fraction of all 60 laws solved (Fig 11A), so
/// `test_tasks` is empty and evaluation reads `train_tasks`.
pub struct PhysicsDomain {
    corpus: Corpus,
}

impl PhysicsDomain {
    /// Build all 60 law tasks.
    pub fn new(seed: u64) -> PhysicsDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let train = laws()
            .iter()
            .map(|law| law_task(law, &mut rng, 5))
            .collect();
        PhysicsDomain {
            corpus: Corpus {
                name: "physics",
                primitives: physics_primitives(),
                train,
                test: Vec::new(),
                dream_requests: vec![
                    Type::arrows(vec![treal(), treal()], treal()),
                    Type::arrows(vec![tlist(treal()), tlist(treal())], treal()),
                ],
            },
        }
    }
}

impl Domain for PhysicsDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        let arg_kinds: Vec<Arg> = request
            .arguments()
            .iter()
            .map(|t| {
                if t.is_arrow() || **t == tlist(treal()) {
                    Arg::Vector
                } else {
                    Arg::Scalar
                }
            })
            .collect();
        let input = |rng: &mut dyn RngCore| {
            arg_kinds
                .iter()
                .map(|&k| input_value(&sample_input(k, rng)))
                .collect()
        };
        dream_io(program, request, rng, input, law_oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_sixty_laws() {
        assert_eq!(laws().len(), 60);
        let d = PhysicsDomain::new(0);
        assert_eq!(d.train_tasks().len(), 60);
    }

    #[test]
    fn newton_second_law_solved_by_multiplication() {
        let d = PhysicsDomain::new(1);
        let prims = d.primitives();
        let p = Expr::parse("(lambda (lambda (*. $1 $0)))", prims).unwrap();
        let t = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "F = m a")
            .unwrap();
        assert!(t.check(&p));
        // and division does not solve it
        let q = Expr::parse("(lambda (lambda (/. $1 $0)))", prims).unwrap();
        assert!(!t.check(&q));
    }

    #[test]
    fn dot_product_solved_by_zip_fold() {
        let d = PhysicsDomain::new(2);
        let prims = d.primitives();
        let dot = Expr::parse(
            "(lambda (lambda (fold (zip $1 $0 (lambda (lambda (*. $1 $0)))) (-. 1r 1r) (lambda (lambda (+. $1 $0))))))",
            prims,
        )
        .unwrap();
        let t = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "dot product")
            .unwrap();
        assert!(t.check(&dot), "zip/fold dot product rejected");
    }

    #[test]
    fn inverse_square_law_solved() {
        let d = PhysicsDomain::new(3);
        let prims = d.primitives();
        let p = Expr::parse(
            "(lambda (lambda (lambda (/. (*. $2 $1) (*. $0 $0)))))",
            prims,
        )
        .unwrap();
        let t = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "F = m1 m2 / r^2 (gravity)")
            .unwrap();
        assert!(t.check(&p));
    }

    #[test]
    fn vector_sum_solved_by_zip() {
        let d = PhysicsDomain::new(4);
        let prims = d.primitives();
        let p = Expr::parse(
            "(lambda (lambda (zip $1 $0 (lambda (lambda (+. $1 $0))))))",
            prims,
        )
        .unwrap();
        let t = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "vector sum")
            .unwrap();
        assert!(t.check(&p));
    }

    #[test]
    fn norm_solved_with_sqrt_of_dot() {
        let d = PhysicsDomain::new(5);
        let prims = d.primitives();
        let p = Expr::parse(
            "(lambda (sqrt. (fold (map (lambda (*. $0 $0)) $0) (-. 1r 1r) (lambda (lambda (+. $1 $0))))))",
            prims,
        )
        .unwrap();
        let t = d.train_tasks().iter().find(|t| t.name == "norm").unwrap();
        assert!(t.check(&p));
    }
}
