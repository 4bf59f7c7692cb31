//! The text-editing domain (§5): FlashFill-style string transformations,
//! in the shape of the SyGuS 2017 PBE-strings benchmarks the paper tests
//! on. The original benchmark files are not redistributable; a synthetic
//! generator mirrors their structure (names, dates, phone numbers).

use dc_lambda::eval::Value;
use dc_lambda::expr::Expr;
use dc_lambda::primitives::text_primitives;
use dc_lambda::types::{tstr, Type};
use rand::{Rng, RngCore, SeedableRng};

use crate::domain::{dream_io, held_out_split, Corpus, Domain};
use crate::task::{exact_match, io_features, Example, Task};

/// The text-editing domain.
pub struct TextDomain {
    corpus: Corpus,
}

const FIRST_NAMES: &[&str] = &[
    "john", "mary", "alice", "bob", "carol", "dave", "erin", "frank", "grace", "henry",
];
const LAST_NAMES: &[&str] = &[
    "smith", "jones", "miller", "davis", "brown", "wilson", "moore", "taylor", "clark", "lewis",
];

fn random_name<R: Rng + ?Sized>(rng: &mut R) -> String {
    format!(
        "{} {}",
        FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
        LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
    )
}

fn random_date<R: Rng + ?Sized>(rng: &mut R) -> String {
    format!(
        "{:04}-{:02}-{:02}",
        rng.gen_range(1990..2026),
        rng.gen_range(1..13),
        rng.gen_range(1..29)
    )
}

fn random_phone<R: Rng + ?Sized>(rng: &mut R) -> String {
    format!(
        "{}{}{}-{}{}{}{}",
        rng.gen_range(2..10),
        rng.gen_range(0..10),
        rng.gen_range(0..10),
        rng.gen_range(0..10),
        rng.gen_range(0..10),
        rng.gen_range(0..10),
        rng.gen_range(0..10)
    )
}

enum Source {
    Name,
    Date,
    Phone,
}

type TextFn = dyn Fn(&str) -> Option<String> + Send + Sync;

struct Template {
    name: &'static str,
    source: Source,
    f: Box<TextFn>,
}

fn templates() -> Vec<Template> {
    fn t(
        name: &'static str,
        source: Source,
        f: impl Fn(&str) -> Option<String> + Send + Sync + 'static,
    ) -> Template {
        Template {
            name,
            source,
            f: Box::new(f),
        }
    }
    vec![
        t("uppercase", Source::Name, |s| Some(s.to_uppercase())),
        t("identity", Source::Name, |s| Some(s.to_owned())),
        t("first word", Source::Name, |s| {
            s.split(' ').next().map(str::to_owned)
        }),
        t("last word", Source::Name, |s| {
            s.split(' ').next_back().map(str::to_owned)
        }),
        t("first word uppercased", Source::Name, |s| {
            s.split(' ').next().map(str::to_uppercase)
        }),
        t("drop first character", Source::Name, |s| {
            Some(s.chars().skip(1).collect())
        }),
        t("first character", Source::Name, |s| {
            s.chars().next().map(|c| c.to_string())
        }),
        t("first two characters", Source::Name, |s| {
            Some(s.chars().take(2).collect())
        }),
        t("swap words", Source::Name, |s| {
            let mut it = s.split(' ');
            let a = it.next()?;
            let b = it.next()?;
            Some(format!("{b} {a}"))
        }),
        t("join words with dash", Source::Name, |s| {
            Some(s.split(' ').collect::<Vec<_>>().join("-"))
        }),
        t("year of date", Source::Date, |s| {
            s.split('-').next().map(str::to_owned)
        }),
        t("month of date", Source::Date, |s| {
            s.split('-').nth(1).map(str::to_owned)
        }),
        t("day of date", Source::Date, |s| {
            s.split('-').nth(2).map(str::to_owned)
        }),
        t("date with dots", Source::Date, |s| {
            Some(s.split('-').collect::<Vec<_>>().join("."))
        }),
        t("prefix of phone", Source::Phone, |s| {
            s.split('-').next().map(str::to_owned)
        }),
        t("line of phone", Source::Phone, |s| {
            s.split('-').nth(1).map(str::to_owned)
        }),
        t("phone without dash", Source::Phone, |s| {
            Some(s.split('-').collect::<Vec<_>>().concat())
        }),
        t("double the string", Source::Name, |s| {
            Some(format!("{s}{s}"))
        }),
        t("last word uppercased", Source::Name, |s| {
            s.split(' ').next_back().map(str::to_uppercase)
        }),
        t("drop first two characters", Source::Name, |s| {
            Some(s.chars().skip(2).collect())
        }),
    ]
}

fn build_task<R: Rng + ?Sized>(tpl: &Template, rng: &mut R) -> Task {
    let mut examples = Vec::new();
    let mut guard = 0;
    while examples.len() < 5 && guard < 100 {
        guard += 1;
        let input = match tpl.source {
            Source::Name => random_name(rng),
            Source::Date => random_date(rng),
            Source::Phone => random_phone(rng),
        };
        if let Some(output) = (tpl.f)(&input) {
            examples.push(Example {
                inputs: vec![Value::str(&input)],
                output: Value::str(&output),
            });
        }
    }
    let features = io_features(&examples);
    Task::io(tpl.name, Type::arrow(tstr(), tstr()), examples, features)
}

impl TextDomain {
    /// Build the domain; even templates train (two instances each), odd
    /// templates test.
    pub fn new(seed: u64) -> TextDomain {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (train, test) = held_out_split(templates(), 2, |tpl| build_task(tpl, &mut rng));
        TextDomain {
            corpus: Corpus {
                name: "text",
                primitives: text_primitives(),
                train,
                test,
                dream_requests: vec![Type::arrow(tstr(), tstr())],
            },
        }
    }
}

impl Domain for TextDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        let input = |rng: &mut dyn RngCore| {
            let s = match rng.gen_range(0..3u8) {
                0 => random_name(rng),
                1 => random_date(rng),
                _ => random_phone(rng),
            };
            vec![Value::str(&s)]
        };
        dream_io(program, request, rng, input, exact_match)
    }
}

/// Reference solutions to some of the text tasks, by task name.
pub fn ground_truth_programs() -> Vec<(&'static str, String)> {
    [
        ("uppercase", "(lambda (str-upper $0))"),
        ("first word", "(lambda (car (str-split space $0)))"),
        ("drop first character", "(lambda (str-drop 1 $0))"),
        ("first character", "(lambda (str-take 1 $0))"),
        ("year of date", "(lambda (car (str-split dash $0)))"),
        ("double the string", "(lambda (str-append $0 $0))"),
        (
            "date with dots",
            "(lambda (str-join dot (str-split dash $0)))",
        ),
        (
            "first word uppercased",
            "(lambda (str-upper (car (str-split space $0))))",
        ),
    ]
    .into_iter()
    .map(|(name, src)| (name, src.to_owned()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_builds() {
        let d = TextDomain::new(0);
        assert!(d.train_tasks().len() >= 15);
        assert!(d.test_tasks().len() >= 8);
    }

    #[test]
    fn ground_truth_programs_solve_tasks() {
        let d = TextDomain::new(1);
        let prims = d.primitives();
        for (name, src) in ground_truth_programs() {
            let program = Expr::parse(&src, prims)
                .unwrap_or_else(|e| panic!("parse failure for {name}: {e}"));
            let task = d
                .train_tasks()
                .iter()
                .chain(d.test_tasks())
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("missing task {name}"));
            assert!(task.check(&program), "{src} fails task {name}");
        }
    }

    #[test]
    fn dream_executes_text_program() {
        let d = TextDomain::new(2);
        let prims = d.primitives();
        let program = Expr::parse("(lambda (str-upper $0))", prims).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let task = d
            .dream(&program, &Type::arrow(tstr(), tstr()), &mut rng)
            .expect("dream");
        assert!(task.check(&program));
    }
}
