//! The generative-regex domain (§5): probabilistic programming, where
//! each program *is* a generative model over strings, and tasks supply
//! only positive example strings (crawled CSV columns in the paper; a
//! synthetic mirror of those concepts here — phone numbers, prices,
//! dates, decimals).
//!
//! Substrate built here: the probabilistic regex language with exact
//! string log-likelihood via dynamic programming, and ancestral sampling.

use std::collections::HashMap;
use std::sync::Arc;

use dc_lambda::error::EvalError;
use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::{Expr, Primitive};
use dc_lambda::primitives::PrimitiveSet;
use dc_lambda::types::Type;
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{Corpus, Domain};
use crate::task::{Example, Task, TaskOracle};

/// A probabilistic regular expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// A literal character.
    Const(char),
    /// `d`: a uniformly random ASCII digit.
    Digit,
    /// `u`: a uniformly random uppercase letter.
    Upper,
    /// `l`: a uniformly random lowercase letter.
    Lower,
    /// Any letter.
    Alpha,
    /// Concatenation.
    Concat(Arc<Regex>, Arc<Regex>),
    /// Kleene star with geometric(1/2) repetition count.
    Star(Arc<Regex>),
    /// Optional (probability 1/2 present).
    Maybe(Arc<Regex>),
    /// Uniform choice between two branches.
    Or(Arc<Regex>, Arc<Regex>),
}

impl Regex {
    fn class_chars(&self) -> Option<Vec<char>> {
        match self {
            Regex::Digit => Some(('0'..='9').collect()),
            Regex::Upper => Some(('A'..='Z').collect()),
            Regex::Lower => Some(('a'..='z').collect()),
            Regex::Alpha => Some(('a'..='z').chain('A'..='Z').collect()),
            _ => None,
        }
    }

    /// Sample a string from the generative model.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut String, budget: &mut usize) {
        if *budget == 0 {
            return;
        }
        match self {
            Regex::Const(c) => {
                out.push(*c);
                *budget -= 1;
            }
            Regex::Digit | Regex::Upper | Regex::Lower | Regex::Alpha => {
                let chars = self.class_chars().expect("class");
                out.push(chars[rng.gen_range(0..chars.len())]);
                *budget -= 1;
            }
            Regex::Concat(a, b) => {
                a.sample(rng, out, budget);
                b.sample(rng, out, budget);
            }
            Regex::Star(inner) => {
                while rng.gen_bool(0.5) && *budget > 0 {
                    inner.sample(rng, out, budget);
                }
            }
            Regex::Maybe(inner) => {
                if rng.gen_bool(0.5) {
                    inner.sample(rng, out, budget);
                }
            }
            Regex::Or(a, b) => {
                if rng.gen_bool(0.5) {
                    a.sample(rng, out, budget)
                } else {
                    b.sample(rng, out, budget)
                }
            }
        }
    }

    /// Exact log-probability that the generative model emits `s`.
    ///
    /// Dynamic program over substrings: `inner(r, i, j)` is the log-prob
    /// that `r` generates exactly `s[i..j]`.
    pub fn log_prob(&self, s: &str) -> f64 {
        let chars: Vec<char> = s.chars().collect();
        let mut memo: HashMap<(*const Regex, usize, usize), f64> = HashMap::new();
        self.lp(&chars, 0, chars.len(), &mut memo)
    }

    fn lp(
        &self,
        s: &[char],
        i: usize,
        j: usize,
        memo: &mut HashMap<(*const Regex, usize, usize), f64>,
    ) -> f64 {
        let key = (self as *const Regex, i, j);
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        // Pre-insert -inf to make accidental cycles finite (Star recursion
        // on empty spans is handled explicitly below).
        memo.insert(key, f64::NEG_INFINITY);
        let v = match self {
            Regex::Const(c) => {
                if j == i + 1 && s[i] == *c {
                    0.0
                } else {
                    f64::NEG_INFINITY
                }
            }
            Regex::Digit | Regex::Upper | Regex::Lower | Regex::Alpha => {
                let chars = self.class_chars().expect("class");
                if j == i + 1 && chars.contains(&s[i]) {
                    -(chars.len() as f64).ln()
                } else {
                    f64::NEG_INFINITY
                }
            }
            Regex::Concat(a, b) => {
                let mut terms = Vec::new();
                for k in i..=j {
                    let la = a.lp(s, i, k, memo);
                    if la.is_finite() {
                        let lb = b.lp(s, k, j, memo);
                        if lb.is_finite() {
                            terms.push(la + lb);
                        }
                    }
                }
                dc_grammar::library::logsumexp(&terms)
            }
            Regex::Star(inner) => {
                // P(stop) = 1/2 at each round: s[i..j] split into 1+ chunks,
                // each nonempty (empty-generating inner would loop; treat
                // zero-length inner matches as contributing only via the
                // immediate stop).
                let mut terms = Vec::new();
                if i == j {
                    terms.push(0.5f64.ln()); // stop immediately
                } else {
                    for k in (i + 1)..=j {
                        let li = inner.lp(s, i, k, memo);
                        if li.is_finite() {
                            let rest = self.lp(s, k, j, memo);
                            if rest.is_finite() {
                                terms.push(0.5f64.ln() + li + rest);
                            }
                        }
                    }
                }
                dc_grammar::library::logsumexp(&terms)
            }
            Regex::Maybe(inner) => {
                let mut terms = Vec::new();
                if i == j {
                    terms.push(0.5f64.ln());
                }
                let li = inner.lp(s, i, j, memo);
                if li.is_finite() {
                    terms.push(0.5f64.ln() + li);
                }
                dc_grammar::library::logsumexp(&terms)
            }
            Regex::Or(a, b) => {
                let la = 0.5f64.ln() + a.lp(s, i, j, memo);
                let lb = 0.5f64.ln() + b.lp(s, i, j, memo);
                dc_grammar::library::logsumexp(&[la, lb])
            }
        };
        memo.insert(key, v);
        v
    }

    /// Render in the paper's display style (`(dd(d)*)`, `$d.d0`, ...).
    pub fn display(&self) -> String {
        match self {
            Regex::Const(c) => c.to_string(),
            Regex::Digit => "d".into(),
            Regex::Upper => "u".into(),
            Regex::Lower => "l".into(),
            Regex::Alpha => "a".into(),
            Regex::Concat(a, b) => format!("{}{}", a.display(), b.display()),
            Regex::Star(r) => format!("({})*", r.display()),
            Regex::Maybe(r) => format!("({})?", r.display()),
            Regex::Or(a, b) => format!("({}|{})", a.display(), b.display()),
        }
    }
}

/// The `regex` type.
pub fn tregex() -> Type {
    Type::con0("regex")
}

fn rv(r: Regex) -> Value {
    Value::opaque("regex", r)
}

fn get_regex(v: &Value) -> Result<Regex, EvalError> {
    Ok(v.as_opaque::<Regex>("regex")?.clone())
}

/// The regex base language: character classes, punctuation constants,
/// concat / star / maybe / or.
pub fn regex_primitives() -> PrimitiveSet {
    let mut s = PrimitiveSet::new();
    s.add(Primitive::constant("r-d", tregex(), rv(Regex::Digit)))
        .add(Primitive::constant("r-u", tregex(), rv(Regex::Upper)))
        .add(Primitive::constant("r-l", tregex(), rv(Regex::Lower)))
        .add(Primitive::constant("r-a", tregex(), rv(Regex::Alpha)));
    for (name, c) in [
        ("r-dot", '.'),
        ("r-dash", '-'),
        ("r-colon", ':'),
        ("r-comma", ','),
        ("r-dollar", '$'),
        ("r-lparen", '('),
        ("r-rparen", ')'),
        ("r-space", ' '),
        ("r-zero", '0'),
        ("r-slash", '/'),
    ] {
        s.add(Primitive::constant(name, tregex(), rv(Regex::Const(c))));
    }
    s.add(Primitive::function(
        "r-concat",
        Type::arrows(vec![tregex(), tregex()], tregex()),
        |args, _| {
            Ok(rv(Regex::Concat(
                Arc::new(get_regex(&args[0])?),
                Arc::new(get_regex(&args[1])?),
            )))
        },
    ))
    .add(Primitive::function(
        "r-star",
        Type::arrow(tregex(), tregex()),
        |args, _| Ok(rv(Regex::Star(Arc::new(get_regex(&args[0])?)))),
    ))
    .add(Primitive::function(
        "r-maybe",
        Type::arrow(tregex(), tregex()),
        |args, _| Ok(rv(Regex::Maybe(Arc::new(get_regex(&args[0])?)))),
    ))
    .add(Primitive::function(
        "r-or",
        Type::arrows(vec![tregex(), tregex()], tregex()),
        |args, _| {
            Ok(rv(Regex::Or(
                Arc::new(get_regex(&args[0])?),
                Arc::new(get_regex(&args[1])?),
            )))
        },
    ));
    s
}

/// Evaluate a program of type `regex` to its regex value.
///
/// # Errors
/// Propagates evaluation failures.
pub fn run_regex_program(program: &Expr, fuel: u64) -> Result<Regex, EvalError> {
    let mut ctx = EvalCtx::with_fuel(fuel);
    let v = ctx.eval(program, &dc_lambda::eval::Env::new())?;
    get_regex(&v)
}

/// Oracle: total log-likelihood of the observed strings under the
/// program-as-generative-model, thresholded per character so that
/// degenerate catch-all programs don't count as solutions.
#[derive(Debug, Clone)]
pub struct RegexOracle {
    /// The observed positive examples.
    pub strings: Vec<String>,
    /// Minimum average per-character log-likelihood to count as solved.
    pub per_char_threshold: f64,
}

impl TaskOracle for RegexOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        let Ok(regex) = run_regex_program(program, 50_000) else {
            return f64::NEG_INFINITY;
        };
        let mut total = 0.0;
        let mut chars = 0usize;
        for s in &self.strings {
            let ll = regex.log_prob(s);
            if !ll.is_finite() {
                return f64::NEG_INFINITY;
            }
            total += ll;
            chars += s.chars().count().max(1);
        }
        if total / (chars as f64) < self.per_char_threshold {
            return f64::NEG_INFINITY;
        }
        total
    }
}

/// Concepts mirroring the paper's crawled text columns (Fig 10).
pub fn concepts() -> Vec<(&'static str, Regex)> {
    use Regex::*;
    fn c(ch: char) -> Arc<Regex> {
        Arc::new(Const(ch))
    }
    fn conc(parts: Vec<Arc<Regex>>) -> Regex {
        let mut it = parts.into_iter().rev();
        let last = it.next().expect("nonempty");
        it.fold((*last).clone(), |acc, r| Concat(r, Arc::new(acc)))
    }
    let d = || Arc::new(Digit);
    vec![
        (
            "parenthesized count",
            conc(vec![
                c('('),
                d(),
                d(),
                Arc::new(Star(Arc::new(Digit))),
                c(')'),
            ]),
        ),
        ("price", conc(vec![c('$'), d(), c('.'), d(), c('0')])),
        (
            "phone number",
            conc(vec![
                c('('),
                d(),
                d(),
                d(),
                c(')'),
                c(' '),
                d(),
                d(),
                d(),
                c('-'),
                d(),
                d(),
                d(),
                d(),
            ]),
        ),
        (
            "negative decimal",
            conc(vec![
                c('-'),
                d(),
                Arc::new(Maybe(Arc::new(conc(vec![
                    c('.'),
                    d(),
                    Arc::new(Star(Arc::new(Digit))),
                ])))),
            ]),
        ),
        (
            "timestamp",
            conc(vec![
                c('-'),
                c('0'),
                c('0'),
                c(':'),
                d(),
                d(),
                c(':'),
                d(),
                d(),
                c('.'),
                d(),
            ]),
        ),
        (
            "integer list entry",
            conc(vec![d(), Arc::new(Star(Arc::new(Digit)))]),
        ),
        (
            "ratio",
            conc(vec![d(), c('/'), d(), Arc::new(Star(Arc::new(Digit)))]),
        ),
        (
            "uppercase code",
            conc(vec![Arc::new(Upper), Arc::new(Upper), d(), d()]),
        ),
        (
            "lowercase word",
            conc(vec![
                Arc::new(Lower),
                Arc::new(Lower),
                Arc::new(Star(Arc::new(Lower))),
            ]),
        ),
        (
            "money range",
            conc(vec![c('$'), d(), c('-'), c('$'), d(), d()]),
        ),
    ]
}

/// The generative-regex domain.
pub struct RegexDomain {
    corpus: Corpus,
}

fn concept_task<R: Rng + ?Sized>(
    name: &str,
    regex: &Regex,
    rng: &mut R,
    n_examples: usize,
) -> Task {
    let mut strings = Vec::new();
    let mut guard = 0;
    while strings.len() < n_examples && guard < 500 {
        guard += 1;
        let mut s = String::new();
        let mut budget = 30usize;
        regex.sample(rng, &mut s, &mut budget);
        if !s.is_empty() && s.len() <= 25 {
            strings.push(s);
        }
    }
    let examples: Vec<Example> = strings
        .iter()
        .map(|s| Example {
            inputs: vec![],
            output: Value::str(s),
        })
        .collect();
    let features = crate::task::io_features(&examples);
    Task {
        name: name.to_owned(),
        request: tregex(),
        oracle: Arc::new(RegexOracle {
            strings,
            per_char_threshold: -3.0,
        }),
        features,
        examples,
    }
}

impl RegexDomain {
    /// Build the domain: each concept yields train instances (even
    /// concept indices) or held-out test instances (odd). Odd concepts
    /// draw a second instance too and drop it: `held_out_split` would
    /// skip that draw and reshuffle every later concept's samples.
    pub fn new(seed: u64) -> RegexDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, (name, regex)) in concepts().iter().enumerate() {
            let t1 = concept_task(name, regex, &mut rng, 5);
            let t2 = concept_task(name, regex, &mut rng, 5);
            if i % 2 == 0 {
                train.push(t1);
                train.push(t2);
            } else {
                test.push(t1);
            }
        }
        RegexDomain {
            corpus: Corpus {
                name: "regex",
                primitives: regex_primitives(),
                train,
                test,
                dream_requests: vec![tregex()],
            },
        }
    }
}

impl Domain for RegexDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, _request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        let regex = run_regex_program(program, 20_000).ok()?;
        let task = concept_task("dream", &regex, rng, 5);
        (task.examples.len() == 5).then_some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_prob_of_single_digit() {
        let r = Regex::Digit;
        assert!((r.log_prob("7") - (-(10.0f64).ln())).abs() < 1e-9);
        assert_eq!(r.log_prob("a"), f64::NEG_INFINITY);
        assert_eq!(r.log_prob("77"), f64::NEG_INFINITY);
    }

    #[test]
    fn star_probabilities_sum_geometrically() {
        let r = Regex::Star(Arc::new(Regex::Const('x')));
        // P("") = 1/2, P("x") = 1/4, P("xx") = 1/8.
        assert!((r.log_prob("").exp() - 0.5).abs() < 1e-9);
        assert!((r.log_prob("x").exp() - 0.25).abs() < 1e-9);
        assert!((r.log_prob("xx").exp() - 0.125).abs() < 1e-9);
        assert_eq!(r.log_prob("y"), f64::NEG_INFINITY);
    }

    #[test]
    fn concat_splits_correctly() {
        let r = Regex::Concat(
            Arc::new(Regex::Star(Arc::new(Regex::Const('a')))),
            Arc::new(Regex::Const('b')),
        );
        assert!(r.log_prob("aab").is_finite());
        assert!(r.log_prob("b").is_finite());
        assert_eq!(r.log_prob("a"), f64::NEG_INFINITY);
    }

    #[test]
    fn samples_score_finitely_under_their_own_model() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for (_, regex) in concepts() {
            for _ in 0..10 {
                let mut s = String::new();
                let mut budget = 30;
                regex.sample(&mut rng, &mut s, &mut budget);
                if budget > 0 {
                    assert!(
                        regex.log_prob(&s).is_finite(),
                        "sample {s:?} of {} scored -inf",
                        regex.display()
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_accepts_true_concept_and_rejects_wrong_one() {
        let d = RegexDomain::new(0);
        let prims = d.primitives();
        // price concept: $d.d0
        let price = Expr::parse(
            "(r-concat r-dollar (r-concat r-d (r-concat r-dot (r-concat r-d r-zero))))",
            prims,
        )
        .unwrap();
        let price_task = d
            .train_tasks()
            .iter()
            .chain(d.test_tasks())
            .find(|t| t.name == "price")
            .expect("price task");
        assert!(price_task.check(&price), "true price regex rejected");
        let digits = Expr::parse("(r-star r-d)", prims).unwrap();
        assert!(
            !price_task.check(&digits),
            "digit-star shouldn't explain prices"
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let (_, phone) = &concepts()[2];
        assert_eq!(phone.display(), "(ddd) ddd-dddd");
        let (_, count) = &concepts()[0];
        assert_eq!(count.display(), "(dd(d)*)");
    }

    #[test]
    fn dream_from_regex_program() {
        let d = RegexDomain::new(1);
        let prims = d.primitives();
        let p = Expr::parse("(r-concat r-d (r-star r-d))", prims).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let task = d.dream(&p, &tregex(), &mut rng).expect("dream");
        assert!(task.check(&p), "program should explain its own samples");
    }
}
