//! Cross-domain integration checks: every domain exposes a coherent
//! (primitives, tasks, featurizer, dream) bundle that the wake/sleep
//! machinery can drive — enumeration produces well-typed candidates for
//! each domain's request types, oracles accept ground truth, and dreams
//! round-trip.

use std::sync::Arc;

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::Grammar;
use dreamcoder::tasks::domains::{self, list::ListDomain};
use dreamcoder::tasks::{Domain, FEATURE_DIM};
use rand::SeedableRng;

fn all_domains() -> Vec<Box<dyn Domain>> {
    domains_at(0)
}

fn domains_at(seed: u64) -> Vec<Box<dyn Domain>> {
    domains::ALL.iter().map(|(_, make)| make(seed)).collect()
}

#[test]
fn the_domain_table_names_each_domain_once() {
    for &(name, make) in domains::ALL {
        assert_eq!(make(0).name(), name);
        assert_eq!(
            domains::by_name(name, 1).map(|d| d.name().to_owned()),
            Some(name.to_owned())
        );
    }
    assert_eq!(domains::ALL.len(), 8);
    assert!(domains::by_name("nope", 0).is_none());
}

#[test]
fn every_domain_has_coherent_tasks_and_features() {
    for domain in all_domains() {
        let total = domain.train_tasks().len() + domain.test_tasks().len();
        assert!(total >= 10, "{} has only {total} tasks", domain.name());
        for task in domain.train_tasks().iter().chain(domain.test_tasks()) {
            assert_eq!(
                task.features.len(),
                FEATURE_DIM,
                "{}/{} feature dim mismatch",
                domain.name(),
                task.name
            );
            assert!(
                task.features.iter().all(|f| f.is_finite()),
                "{}/{} has non-finite features",
                domain.name(),
                task.name
            );
        }
        assert!(!domain.dream_requests().is_empty());
    }
}

#[test]
fn enumeration_typechecks_on_every_domain_request() {
    for domain in all_domains() {
        let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
        for request in domain.dream_requests() {
            let cfg = EnumerationConfig {
                max_budget: 10.5,
                ..EnumerationConfig::default()
            };
            let mut n = 0;
            enumerate_programs_stats(&grammar, &request, &cfg, &mut |e, _| {
                n += 1;
                assert!(
                    e.infer().is_ok(),
                    "{}: enumerated ill-typed {} at {}",
                    domain.name(),
                    e,
                    request
                );
                n < 50
            });
            assert!(
                n > 0,
                "{}: nothing enumerable at request {}",
                domain.name(),
                request
            );
        }
    }
}

#[test]
fn dreams_round_trip_on_every_domain() {
    // For each domain, sample programs from the base grammar until one
    // dreams successfully, then check that the dreamed task accepts its
    // own generating program.
    for domain in all_domains() {
        let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut ok = false;
        'outer: for request in domain.dream_requests() {
            for _ in 0..200 {
                let Some(p) = dreamcoder::grammar::sample_program_with_retries(
                    &grammar, &request, &mut rng, 8, 5,
                ) else {
                    continue;
                };
                if let Some(task) = domain.dream(&p, &request, &mut rng) {
                    assert!(
                        task.check(&p),
                        "{}: dreamed task rejects its own program {}",
                        domain.name(),
                        p
                    );
                    ok = true;
                    break 'outer;
                }
            }
        }
        assert!(ok, "{}: no dream could be generated", domain.name());
    }
}

#[test]
fn oracles_reject_trivially_wrong_programs() {
    // A program of the right type that does nothing interesting must not
    // be accepted by nontrivial tasks.
    let list = ListDomain::new(0);
    let prims = list.primitives();
    let identity = dreamcoder::lambda::Expr::parse("(lambda $0)", prims).unwrap();
    let mut rejections = 0;
    for task in list.train_tasks() {
        if task.request.to_string() == "list(int) -> list(int)"
            && task.name != "identity"
            && !task.check(&identity)
        {
            rejections += 1;
        }
    }
    assert!(rejections > 10, "identity fooled too many list tasks");
}

/// FNV-1a over a task corpus, fed field by field (reals and features by
/// their bits).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn value(&mut self, v: &dreamcoder::lambda::Value) {
        use dreamcoder::lambda::Value;
        match v {
            Value::Int(i) => {
                self.u64(0);
                self.u64(*i as u64);
            }
            Value::Real(r) => {
                self.u64(1);
                self.u64(r.to_bits());
            }
            Value::Bool(b) => {
                self.u64(2);
                self.u64(u64::from(*b));
            }
            Value::Char(c) => {
                self.u64(3);
                self.u64(u64::from(*c));
            }
            Value::Str(s) => {
                self.u64(4);
                self.str(s);
            }
            Value::List(items) => {
                self.u64(5);
                self.u64(items.len() as u64);
                for item in items.iter() {
                    self.value(item);
                }
            }
            other => {
                self.u64(6);
                self.str(&format!("{other:?}"));
            }
        }
    }
    fn task(&mut self, task: &dreamcoder::tasks::Task) {
        self.str(&task.name);
        self.str(&task.request.to_string());
        self.u64(task.examples.len() as u64);
        for example in &task.examples {
            self.u64(example.inputs.len() as u64);
            for input in &example.inputs {
                self.value(input);
            }
            self.value(&example.output);
        }
        self.u64(task.features.len() as u64);
        for f in &task.features {
            self.u64(f.to_bits());
        }
    }
}

/// Every domain's corpus and dreams at seeds 0 and 1, as `(domain, seed,
/// corpus digest, dream digest)`. A changed primitive, task name, request,
/// example or feature, or one random draw more or fewer while building a
/// corpus or a dream, changes a digest.
const DIGESTS: &[(&str, u64, u64, u64)] = &[
    ("list", 0, 0x864bb690518983c3, 0x35c9d2658699095f),
    ("text", 0, 0xf8011b4d2c81ff95, 0x01dea88074be4a69),
    ("logo", 0, 0xf49e630be68229b7, 0xd18ad06b08f55ca2),
    ("tower", 0, 0x4cf3af5a042b65bb, 0x30569fa2bd7f8dfa),
    ("regex", 0, 0x2912f74745b32e48, 0x83564e56169ead8f),
    ("symreg", 0, 0x4d916de23353c7c7, 0x080bb9260d4c4dfb),
    ("physics", 0, 0x54bc6b96da8fed1d, 0x8621c3c5a7b6de0b),
    ("origami", 0, 0xb555de3e72b3035d, 0xe0c9cfff747c66b2),
    ("list", 1, 0x8c0abe8994a9ff75, 0x718340bc111dd97f),
    ("text", 1, 0x03dbd7430751d7bd, 0x24ae432ee33b260d),
    ("logo", 1, 0xf49e630be68229b7, 0x3d372b23c9a0f108),
    ("tower", 1, 0x4cf3af5a042b65bb, 0x3c74cb6c706dc3b2),
    ("regex", 1, 0x2b8f287c2d34ffad, 0xba1dbde9183e7790),
    ("symreg", 1, 0xafd12e548d6b4141, 0x8bfbf8fd1e62f975),
    ("physics", 1, 0x2b9b8e8bb1d6683d, 0xe255e095d6420f73),
    ("origami", 1, 0xee9b5cdfa354b430, 0x9bf7f49efdf80870),
];

#[test]
fn corpora_and_dreams_match_their_digests() {
    const DREAMS_PER_REQUEST: usize = 25;
    let mut digests = Vec::new();
    for seed in [0, 1] {
        for domain in domains_at(seed) {
            let mut corpus = Fnv::new();
            for p in domain.primitives().iter() {
                corpus.str(&p.name);
                corpus.str(&p.ty.to_string());
            }
            for tasks in [domain.train_tasks(), domain.test_tasks()] {
                corpus.u64(tasks.len() as u64);
                for task in tasks {
                    corpus.task(task);
                }
            }
            let mut dreams = Fnv::new();
            let grammar = Grammar::uniform(domain.initial_library());
            let mut dream_rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for request in domain.dream_requests() {
                dreams.str(&request.to_string());
                let mut program_rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                for _ in 0..DREAMS_PER_REQUEST {
                    let Some(program) = dreamcoder::grammar::sample_program_with_retries(
                        &grammar,
                        &request,
                        &mut program_rng,
                        8,
                        5,
                    ) else {
                        dreams.u64(0);
                        continue;
                    };
                    dreams.str(&program.to_string());
                    match domain.dream(&program, &request, &mut dream_rng) {
                        Some(task) => {
                            dreams.u64(1);
                            dreams.task(&task);
                        }
                        None => dreams.u64(2),
                    }
                }
            }
            digests.push((domain.name().to_owned(), seed, corpus.0, dreams.0));
        }
    }
    let table: String = digests
        .iter()
        .map(|(name, seed, c, d)| format!("    ({name:?}, {seed}, 0x{c:016x}, 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64, u64, u64)> = DIGESTS
        .iter()
        .map(|&(name, seed, c, d)| (name.to_owned(), seed, c, d))
        .collect();
    assert_eq!(digests, pinned, "digests now:\n{table}");
}
