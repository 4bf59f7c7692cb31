//! The list-processing domain (§5): functional-programming problems over
//! lists of small integers, in the style of the EC2 corpus the paper
//! trains on. Tasks are generated programmatically from ~40 templates
//! spanning the difficulty spectrum, split into train and test.

use dc_lambda::eval::Value;
use dc_lambda::expr::Expr;
use dc_lambda::primitives::base_primitives;
use dc_lambda::types::{tbool, tint, tlist, Type};
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{dream_io, held_out_split, Corpus, Domain};
use crate::task::{exact_match, io_features, Example, Task};

/// The list-processing domain.
pub struct ListDomain {
    corpus: Corpus,
}

pub(crate) fn ints(vals: &[i64]) -> Value {
    Value::list(vals.iter().map(|&v| Value::Int(v)).collect())
}

/// A random list of up to 7 digits, padded with digits to `min_len`.
fn random_input<R: Rng + ?Sized>(rng: &mut R, min_len: usize) -> Vec<i64> {
    let len = rng.gen_range(0..=7usize);
    let mut input: Vec<i64> = (0..len).map(|_| rng.gen_range(0..=9)).collect();
    while input.len() < min_len {
        input.push(rng.gen_range(0..=9));
    }
    input
}

/// Request type `list(int) -> list(int)`.
pub(crate) fn ll() -> Type {
    Type::arrow(tlist(tint()), tlist(tint()))
}
/// Request type `list(int) -> int`.
pub(crate) fn li() -> Type {
    Type::arrow(tlist(tint()), tint())
}
/// Request type `list(int) -> bool`.
pub(crate) fn lb() -> Type {
    Type::arrow(tlist(tint()), tbool())
}

type ListFn = dyn Fn(&[i64]) -> Option<Value> + Send + Sync;

/// An integer-list task family: a name, a request and the function it
/// computes.
pub(crate) struct Template {
    name: &'static str,
    request: Type,
    /// Compute the output for a random input list; `None` = skip input.
    f: Box<ListFn>,
    /// Minimum input length the template needs.
    min_len: usize,
}

/// Shorthand for a [`Template`].
pub(crate) fn t(
    name: &'static str,
    request: Type,
    min_len: usize,
    f: impl Fn(&[i64]) -> Option<Value> + Send + Sync + 'static,
) -> Template {
    Template {
        name,
        request,
        f: Box::new(f),
        min_len,
    }
}

impl Template {
    /// An instance with five examples on inputs drawn by `draw` (given
    /// `min_len`); an input the template rejects is redrawn, for at most
    /// 200 draws.
    pub(crate) fn task<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        draw: impl Fn(&mut R, usize) -> Vec<i64>,
    ) -> Task {
        let mut examples = Vec::new();
        let mut guard = 0;
        while examples.len() < 5 && guard < 200 {
            guard += 1;
            let input = draw(rng, self.min_len);
            if let Some(output) = (self.f)(&input) {
                examples.push(Example {
                    inputs: vec![ints(&input)],
                    output,
                });
            }
        }
        let features = io_features(&examples);
        Task::io(self.name, self.request.clone(), examples, features)
    }
}

fn templates() -> Vec<Template> {
    let is_prime = |n: i64| n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
    let is_square = |n: i64| (0..=n).any(|r| r * r == n);
    vec![
        t("add1 to each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x + 1).collect::<Vec<_>>()))
        }),
        t("add2 to each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x + 2).collect::<Vec<_>>()))
        }),
        t("double each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x * 2).collect::<Vec<_>>()))
        }),
        t("triple each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x * 3).collect::<Vec<_>>()))
        }),
        t("subtract1 each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x - 1).collect::<Vec<_>>()))
        }),
        t("square each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x * x).collect::<Vec<_>>()))
        }),
        t("length", li(), 0, |l| Some(Value::Int(l.len() as i64))),
        t("sum", li(), 0, |l| Some(Value::Int(l.iter().sum()))),
        t("product", li(), 0, |l| {
            Some(Value::Int(l.iter().take(5).product()))
        }),
        t("maximum", li(), 1, |l| {
            l.iter().max().map(|&m| Value::Int(m))
        }),
        t("minimum", li(), 1, |l| {
            l.iter().min().map(|&m| Value::Int(m))
        }),
        t("head", li(), 1, |l| l.first().map(|&h| Value::Int(h))),
        t("last", li(), 1, |l| l.last().map(|&h| Value::Int(h))),
        t("second element", li(), 2, |l| {
            l.get(1).map(|&h| Value::Int(h))
        }),
        t("third element", li(), 3, |l| {
            l.get(2).map(|&h| Value::Int(h))
        }),
        t("tail", ll(), 1, |l| Some(ints(&l[1..]))),
        t("drop first two", ll(), 2, |l| Some(ints(&l[2..]))),
        t("take first two", ll(), 2, |l| Some(ints(&l[..2]))),
        t("reverse", ll(), 0, |l| {
            Some(ints(&l.iter().rev().copied().collect::<Vec<_>>()))
        }),
        t("sort", ll(), 0, |l| {
            let mut v = l.to_vec();
            v.sort_unstable();
            Some(ints(&v))
        }),
        t("keep evens", ll(), 0, |l| {
            Some(ints(
                &l.iter()
                    .filter(|x| *x % 2 == 0)
                    .copied()
                    .collect::<Vec<_>>(),
            ))
        }),
        t("keep odds", ll(), 0, |l| {
            Some(ints(
                &l.iter()
                    .filter(|x| *x % 2 == 1)
                    .copied()
                    .collect::<Vec<_>>(),
            ))
        }),
        t("keep greater than 3", ll(), 0, |l| {
            Some(ints(
                &l.iter().filter(|x| **x > 3).copied().collect::<Vec<_>>(),
            ))
        }),
        t("remove zeros", ll(), 0, |l| {
            Some(ints(
                &l.iter().filter(|x| **x != 0).copied().collect::<Vec<_>>(),
            ))
        }),
        t("count zeros", li(), 0, |l| {
            Some(Value::Int(l.iter().filter(|x| **x == 0).count() as i64))
        }),
        t("count evens", li(), 0, |l| {
            Some(Value::Int(l.iter().filter(|x| *x % 2 == 0).count() as i64))
        }),
        t("prepend zero", ll(), 0, |l| {
            let mut v = vec![0];
            v.extend_from_slice(l);
            Some(ints(&v))
        }),
        t("append zero", ll(), 0, |l| {
            let mut v = l.to_vec();
            v.push(0);
            Some(ints(&v))
        }),
        t("duplicate each element", ll(), 0, |l| {
            Some(ints(&l.iter().flat_map(|&x| [x, x]).collect::<Vec<_>>()))
        }),
        t("repeat list twice", ll(), 0, |l| {
            let mut v = l.to_vec();
            v.extend_from_slice(l);
            Some(ints(&v))
        }),
        t("is empty", lb(), 0, |l| Some(Value::Bool(l.is_empty()))),
        t("is singleton", lb(), 0, |l| Some(Value::Bool(l.len() == 1))),
        t("contains zero", lb(), 0, |l| {
            Some(Value::Bool(l.contains(&0)))
        }),
        t("is sorted", lb(), 0, |l| {
            Some(Value::Bool(l.windows(2).all(|w| w[0] <= w[1])))
        }),
        t("all even", lb(), 0, |l| {
            Some(Value::Bool(l.iter().all(|x| x % 2 == 0)))
        }),
        t("replace each with zero", ll(), 0, |l| {
            Some(ints(&vec![0; l.len()]))
        }),
        t("range of head", ll(), 1, |l| {
            let n = l[0].min(8);
            Some(ints(&(0..n).collect::<Vec<_>>()))
        }),
        t("halve each (integer)", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x / 2).collect::<Vec<_>>()))
        }),
        t("mod2 each", ll(), 0, |l| {
            Some(ints(&l.iter().map(|x| x % 2).collect::<Vec<_>>()))
        }),
        t("keep squares", ll(), 0, move |l| {
            Some(ints(
                &l.iter()
                    .filter(|&&x| is_square(x))
                    .copied()
                    .collect::<Vec<_>>(),
            ))
        }),
        t("keep primes", ll(), 0, move |l| {
            Some(ints(
                &l.iter()
                    .filter(|&&x| is_prime(x))
                    .copied()
                    .collect::<Vec<_>>(),
            ))
        }),
        t("sum of doubles", li(), 0, |l| {
            Some(Value::Int(l.iter().map(|x| 2 * x).sum()))
        }),
        t("max minus min", li(), 1, |l| {
            Some(Value::Int(
                l.iter().max().unwrap() - l.iter().min().unwrap(),
            ))
        }),
        t("second largest", li(), 2, |l| {
            let mut v = l.to_vec();
            v.sort_unstable();
            v.get(v.len() - 2).map(|&x| Value::Int(x))
        }),
        t("add index to each", ll(), 0, |l| {
            Some(ints(
                &l.iter()
                    .enumerate()
                    .map(|(i, x)| x + i as i64)
                    .collect::<Vec<_>>(),
            ))
        }),
        t("pairwise sums with next", ll(), 1, |l| {
            Some(ints(&l.windows(2).map(|w| w[0] + w[1]).collect::<Vec<_>>()))
        }),
    ]
}

impl ListDomain {
    /// Build the domain with a deterministic corpus (seeded by `seed`).
    /// Two instances (fresh random examples) of each train template keep
    /// the corpus at the paper's 100-200 task scale.
    pub fn new(seed: u64) -> ListDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (train, test) = held_out_split(templates(), 2, |tpl| tpl.task(&mut rng, random_input));
        ListDomain {
            corpus: Corpus {
                name: "list",
                primitives: base_primitives(),
                train,
                test,
                dream_requests: vec![ll(), li(), lb()],
            },
        }
    }
}

impl Domain for ListDomain {
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

/// Reference solutions to some of the list tasks, by task name.
pub fn ground_truth_programs() -> Vec<(&'static str, String)> {
    [
        ("add1 to each", "(lambda (map (lambda (+ $0 1)) $0))"),
        ("double each", "(lambda (map (lambda (+ $0 $0)) $0))"),
        ("length", "(lambda (length $0))"),
        ("sum", "(lambda (fold $0 0 (lambda (lambda (+ $0 $1)))))"),
        ("head", "(lambda (car $0))"),
        ("tail", "(lambda (cdr $0))"),
        ("is empty", "(lambda (is-nil $0))"),
        ("prepend zero", "(lambda (cons 0 $0))"),
    ]
    .into_iter()
    .map(|(name, src)| (name, src.to_owned()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_paper_scale() {
        let d = ListDomain::new(0);
        assert!(
            d.train_tasks().len() >= 40,
            "train = {}",
            d.train_tasks().len()
        );
        assert!(d.test_tasks().len() >= 20);
        for task in d.train_tasks().iter().chain(d.test_tasks()) {
            assert_eq!(task.examples.len(), 5, "{} lacks examples", task.name);
            assert_eq!(task.features.len(), crate::FEATURE_DIM);
        }
    }

    #[test]
    fn ground_truth_programs_solve_their_tasks() {
        let d = ListDomain::new(1);
        let prims = d.primitives();
        for (name, src) in ground_truth_programs() {
            let program = Expr::parse(&src, prims).unwrap();
            for task in d.train_tasks().iter().chain(d.test_tasks()) {
                if task.name == name {
                    assert!(task.check(&program), "{src} fails task {name}");
                }
            }
        }
    }

    #[test]
    fn tasks_reject_wrong_programs() {
        let d = ListDomain::new(2);
        let prims = d.primitives();
        let identity = Expr::parse("(lambda $0)", prims).unwrap();
        let t = d
            .train_tasks()
            .iter()
            .find(|t| t.name == "double each")
            .expect("double task");
        assert!(!t.check(&identity));
    }

    #[test]
    fn dreams_execute_sampled_programs() {
        let d = ListDomain::new(3);
        let prims = d.primitives();
        let program = Expr::parse("(lambda (map (lambda (* $0 $0)) $0))", prims).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let task = d.dream(&program, &ll(), &mut rng).expect("dream task");
        assert_eq!(task.examples.len(), 5);
        assert!(
            task.check(&program),
            "the dreamed program must solve its own dream"
        );
    }

    #[test]
    fn degenerate_dreams_are_rejected() {
        let d = ListDomain::new(4);
        let prims = d.primitives();
        let constant = Expr::parse("(lambda nil)", prims).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        assert!(d.dream(&constant, &ll(), &mut rng).is_none());
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = ListDomain::new(7);
        let b = ListDomain::new(7);
        for (x, y) in a.train_tasks().iter().zip(b.train_tasks()) {
            assert_eq!(x.examples, y.examples);
        }
    }
}
