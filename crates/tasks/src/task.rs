//! Synthesis tasks: a request type plus a likelihood oracle `P[x|ρ]`.
//!
//! For I/O domains the likelihood is 1 iff the program reproduces every
//! output (footnote 1 of the paper); probabilistic domains (generative
//! regexes) return real log-likelihoods; symbolic regression fits
//! continuous parameters in an inner loop before scoring.

use std::fmt;
use std::sync::Arc;

use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::Expr;
use dc_lambda::types::Type;

use crate::domain::FEATURE_DIM;

/// One input/output example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Arguments fed to the program, in order.
    pub inputs: Vec<Value>,
    /// The required output.
    pub output: Value,
}

/// Scores how well a program explains a task: `log P[x | ρ]`.
pub trait TaskOracle: Send + Sync {
    /// Log-likelihood of the task given the program; `-inf` when the
    /// program fails the task.
    fn log_likelihood(&self, program: &Expr) -> f64;
}

/// The standard oracle: exact match on every I/O example.
#[derive(Debug, Clone)]
pub struct IoOracle {
    /// The examples to reproduce.
    pub examples: Vec<Example>,
    /// Evaluation fuel per example.
    pub fuel: u64,
}

impl TaskOracle for IoOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        for ex in &self.examples {
            let mut ctx = EvalCtx::with_fuel(self.fuel);
            match ctx.run(program, &ex.inputs) {
                Ok(v) if v == ex.output => {}
                _ => return f64::NEG_INFINITY,
            }
        }
        0.0
    }
}

/// A synthesis task.
#[derive(Clone)]
pub struct Task {
    /// Human-readable name, e.g. `"double every element"`.
    pub name: String,
    /// The type of the program being sought.
    pub request: Type,
    /// Scores candidate programs.
    pub oracle: Arc<dyn TaskOracle>,
    /// Cached feature vector for the recognition model.
    pub features: Vec<f64>,
    /// The observable examples (may be empty for non-I/O domains).
    pub examples: Vec<Example>,
}

/// The exact-match oracle over `examples`, at 50,000 fuel per example.
pub(crate) fn exact_match(examples: Vec<Example>) -> Arc<dyn TaskOracle> {
    Arc::new(IoOracle {
        examples,
        fuel: 50_000,
    })
}

impl Task {
    /// Build an exact-match I/O task, featurized by `features`.
    pub fn io(name: &str, request: Type, examples: Vec<Example>, features: Vec<f64>) -> Task {
        Task {
            name: name.to_owned(),
            request,
            oracle: exact_match(examples.clone()),
            features,
            examples,
        }
    }

    /// Does `program` solve this task (log-likelihood above `-inf`)?
    pub fn check(&self, program: &Expr) -> bool {
        self.oracle.log_likelihood(program).is_finite()
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name)
            .field("request", &self.request.to_string())
            .field("examples", &self.examples.len())
            .finish()
    }
}

/// Feature hashing over example values: a [`FEATURE_DIM`]-wide
/// featurization usable by every I/O domain. Each scalar observation
/// contributes ±1 to a hashed bucket; vectors are ℓ2-normalized at the end.
pub fn io_features(examples: &[Example]) -> Vec<f64> {
    let mut out = vec![0.0; FEATURE_DIM];
    let mut hasher = |tag: u64, payload: u64, weight: f64, out: &mut Vec<f64>| {
        // splitmix-style mixing
        let mut z = tag
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(payload);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let bucket = (z % FEATURE_DIM as u64) as usize;
        let sign = if (z >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        out[bucket] += sign * weight;
    };
    for (i, ex) in examples.iter().enumerate() {
        for (j, v) in ex.inputs.iter().enumerate() {
            hash_value(v, (i as u64) << 8 | (j as u64) << 4, &mut hasher, &mut out);
        }
        hash_value(&ex.output, (i as u64) << 8 | 0xf, &mut hasher, &mut out);
        // Relational features: does output equal an input? lengths?
        for v in &ex.inputs {
            if v == &ex.output {
                hasher(0xeeee, 1, 1.0, &mut out);
            }
        }
    }
    let norm = out.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in &mut out {
            *v /= norm;
        }
    }
    out
}

fn hash_value(
    v: &Value,
    tag: u64,
    hasher: &mut impl FnMut(u64, u64, f64, &mut Vec<f64>),
    out: &mut Vec<f64>,
) {
    match v {
        Value::Int(i) => hasher(tag ^ 0x1, *i as u64, 1.0, out),
        Value::Real(r) => hasher(tag ^ 0x2, r.to_bits() >> 40, 1.0, out),
        Value::Bool(b) => hasher(tag ^ 0x3, *b as u64, 1.0, out),
        Value::Char(c) => hasher(tag ^ 0x4, *c as u64, 1.0, out),
        Value::Str(s) => {
            hasher(tag ^ 0x5, s.len() as u64, 1.0, out);
            for (k, c) in s.chars().enumerate().take(16) {
                hasher(tag ^ 0x50, (k as u64) << 32 | c as u64, 0.5, out);
            }
            // character-class counts
            let digits = s.chars().filter(|c| c.is_ascii_digit()).count();
            let alpha = s.chars().filter(|c| c.is_alphabetic()).count();
            hasher(tag ^ 0x51, digits as u64, 1.0, out);
            hasher(tag ^ 0x52, alpha as u64, 1.0, out);
        }
        Value::List(l) => {
            hasher(tag ^ 0x6, l.len() as u64, 1.0, out);
            for (k, item) in l.iter().enumerate().take(16) {
                hash_value(item, tag ^ 0x60 ^ ((k as u64) << 16), hasher, out);
            }
        }
        _ => hasher(tag ^ 0x7, 0, 0.25, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist};

    fn list(vals: &[i64]) -> Value {
        Value::list(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn io_oracle_accepts_correct_program() {
        let prims = base_primitives();
        let double = Expr::parse("(lambda (map (lambda (+ $0 $0)) $0))", &prims).unwrap();
        let task = Task::io(
            "double",
            Type::arrow(tlist(tint()), tlist(tint())),
            vec![
                Example {
                    inputs: vec![list(&[1, 2])],
                    output: list(&[2, 4]),
                },
                Example {
                    inputs: vec![list(&[0])],
                    output: list(&[0]),
                },
            ],
            vec![],
        );
        assert!(task.check(&double));
        let wrong = Expr::parse("(lambda $0)", &prims).unwrap();
        assert!(!task.check(&wrong));
    }

    #[test]
    fn io_oracle_rejects_crashing_program() {
        let prims = base_primitives();
        let crashy = Expr::parse("(lambda (car nil))", &prims).unwrap();
        let task = Task::io(
            "anything",
            Type::arrow(tlist(tint()), tint()),
            vec![Example {
                inputs: vec![list(&[1])],
                output: Value::Int(1),
            }],
            vec![],
        );
        assert!(!task.check(&crashy));
    }

    #[test]
    fn features_have_fixed_dim_and_unit_norm() {
        let ex = vec![Example {
            inputs: vec![list(&[1, 2, 3])],
            output: list(&[2, 4, 6]),
        }];
        let f = io_features(&ex);
        assert_eq!(f.len(), FEATURE_DIM);
        let norm: f64 = f.iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn different_tasks_have_different_features() {
        let a = vec![Example {
            inputs: vec![list(&[1, 2])],
            output: list(&[2, 4]),
        }];
        let b = vec![Example {
            inputs: vec![list(&[5])],
            output: Value::Int(5).clone(),
        }];
        assert_ne!(io_features(&a), io_features(&b));
    }

    #[test]
    fn empty_examples_featurize_to_zeros() {
        let f = io_features(&[]);
        assert!(f.iter().all(|v| *v == 0.0));
    }
}
