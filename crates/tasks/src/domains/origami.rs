//! The "origami programming" domain (§5.2, Fig 11B): 20 basic
//! list-programming tasks solved from a minimal 1959-Lisp basis —
//! `if, =, >, +, -, 0, 1, cons, car, cdr, nil, is-nil` plus primitive
//! recursion via the fixed-point combinator. DreamCoder must *invent*
//! fold, unfold, map, length, etc. The paper runs this without a
//! recognition model, as do we.

use dc_lambda::eval::Value;
use dc_lambda::expr::Expr;
use dc_lambda::primitives::lisp_1959_primitives;
use dc_lambda::types::Type;
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{dream_io, Corpus, Domain};
use crate::domains::list::{ints, lb, li, ll, t, Template};
use crate::task::{exact_match, Task};

/// The origami domain.
pub struct OrigamiDomain {
    corpus: Corpus,
}

/// A random list of `min_len` to 6 (at least `min_len`) elements in
/// `0..=6`.
fn random_input<R: Rng + ?Sized>(rng: &mut R, min_len: usize) -> Vec<i64> {
    let len = rng.gen_range(min_len..=6.max(min_len));
    (0..len).map(|_| rng.gen_range(0..=6)).collect()
}

/// The 20 introductory tasks ("like those used in introductory computer
/// science classes").
fn templates() -> Vec<Template> {
    vec![
        t("length", li(), 0, |l| Some(Value::Int(l.len() as i64))),
        t("sum", li(), 0, |l| Some(Value::Int(l.iter().sum()))),
        t("increment each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x + 1).collect::<Vec<_>>()))
        }),
        t("double each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x + x).collect::<Vec<_>>()))
        }),
        t("decrement each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x - 1).collect::<Vec<_>>()))
        }),
        t("last element", li(), 1, |l| {
            l.last().map(|&x| Value::Int(x))
        }),
        t("maximum", li(), 1, |l| {
            l.iter().max().map(|&x| Value::Int(x))
        }),
        t("count down from head", ll(), 1, |l| {
            let n = l[0].min(8);
            Some(ints(&(1..=n).rev().collect::<Vec<_>>()))
        }),
        t("range of head", ll(), 1, |l| {
            let n = l[0].min(8);
            Some(ints(&(0..n).collect::<Vec<_>>()))
        }),
        t("append zero", ll(), 0, |l| {
            let mut v = l.to_vec();
            v.push(0);
            Some(ints(&v))
        }),
        t("stutter", ll(), 0, |l| {
            Some(ints(&l.iter().flat_map(|&x| [x, x]).collect::<Vec<_>>()))
        }),
        t("reverse", ll(), 0, |l| {
            Some(ints(&l.iter().rev().copied().collect::<Vec<_>>()))
        }),
        t("keep positives", ll(), 0, |l| {
            Some(ints(
                &l.iter().filter(|&&x| x > 0).copied().collect::<Vec<_>>(),
            ))
        }),
        t("count positives", li(), 0, |l| {
            Some(Value::Int(l.iter().filter(|&&x| x > 0).count() as i64))
        }),
        t("member zero", lb(), 0, |l| {
            Some(Value::Bool(l.contains(&0)))
        }),
        t("take while positive", ll(), 0, |l| {
            Some(ints(
                &l.iter()
                    .take_while(|&&x| x > 0)
                    .copied()
                    .collect::<Vec<_>>(),
            ))
        }),
        t("drop last", ll(), 1, |l| Some(ints(&l[..l.len() - 1]))),
        t("pairwise sum with reverse", ll(), 0, |l| {
            Some(ints(
                &l.iter()
                    .zip(l.iter().rev())
                    .map(|(a, b)| a + b)
                    .collect::<Vec<_>>(),
            ))
        }),
        t("zip add consecutive pairs", ll(), 1, |l| {
            Some(ints(&l.windows(2).map(|w| w[0] + w[1]).collect::<Vec<_>>()))
        }),
        t("nth element (head-indexed)", li(), 2, |l| {
            let n = (l[0].unsigned_abs() as usize) % (l.len() - 1);
            l.get(n + 1).map(|&x| Value::Int(x))
        }),
    ]
}

impl OrigamiDomain {
    /// Build the 20-task corpus (no held-out split: the paper reports
    /// solving all 20 training problems).
    pub fn new(seed: u64) -> OrigamiDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let train = templates()
            .iter()
            .map(|tpl| tpl.task(&mut rng, random_input))
            .collect();
        OrigamiDomain {
            corpus: Corpus {
                name: "origami",
                primitives: lisp_1959_primitives(),
                train,
                test: Vec::new(),
                dream_requests: vec![ll(), li()],
            },
        }
    }
}

impl Domain for OrigamiDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        dream_io(
            program,
            request,
            rng,
            |rng| vec![ints(&random_input(rng, 0))],
            exact_match,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_lambda::expr::PrimitiveLookup;

    #[test]
    fn twenty_tasks() {
        let d = OrigamiDomain::new(0);
        assert_eq!(d.train_tasks().len(), 20);
        assert!(d.test_tasks().is_empty());
    }

    #[test]
    fn fix_based_solutions_solve_tasks() {
        let d = OrigamiDomain::new(1);
        let prims = d.primitives();
        let cases = [
            (
                "length",
                "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ 1 ($1 (cdr $0)))))) $0))",
            ),
            (
                "sum",
                "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ (car $0) ($1 (cdr $0)))))) $0))",
            ),
            (
                "increment each",
                "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) 1) ($1 (cdr $0)))))) $0))",
            ),
            (
                "double each",
                "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))",
            ),
            (
                "keep positives",
                "(lambda (fix (lambda (lambda (if (is-nil $0) nil (if (> (car $0) 0) (cons (car $0) ($1 (cdr $0))) ($1 (cdr $0)))))) $0))",
            ),
            (
                "append zero",
                "(lambda (fix (lambda (lambda (if (is-nil $0) (cons 0 nil) (cons (car $0) ($1 (cdr $0)))))) $0))",
            ),
        ];
        for (name, src) in cases {
            let p = Expr::parse(src, prims).unwrap_or_else(|e| panic!("{name}: {e}"));
            let task = d.train_tasks().iter().find(|t| t.name == name).unwrap();
            assert!(task.check(&p), "{name} rejected its fix solution");
        }
    }

    #[test]
    fn basis_is_truly_minimal() {
        let d = OrigamiDomain::new(2);
        assert!(d.primitives().primitive("map").is_none());
        assert!(d.primitives().primitive("fold").is_none());
        assert!(d.primitives().primitive("fix").is_some());
    }
}
