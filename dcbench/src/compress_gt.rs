//! `compress_gt`: one [`dc_vspace::compress`] call on each of the tower
//! (14 programs) and logo (16 programs) ground-truth corpora, one
//! frontier per program, two inverse-β steps.
//!
//! Refactoring, candidate rewrite and scoring do all of the work;
//! enumeration does none. Types are exercised only through `log_prior`
//! and `fit_grammar` inside `joint_score`. It is the one workload that
//! accepts inventions. The corpora are fixed, so the seed does not apply.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_grammar::frontier::{Frontier, FrontierEntry};
use dc_grammar::grammar::Grammar;
use dc_grammar::inside_outside::fit_grammar;
use dc_grammar::library::Library;
use dc_lambda::expr::Expr;
use dc_tasks::domains::{logo, tower};
use dc_tasks::Domain;
use dc_vspace::{compress, joint_score, CompressionConfig, SpaceArena};

use crate::probes::Telemetry;
use crate::{Fingerprint, Layers, Pass, Workload};

/// Fuel for the β-normal forms compared by the output check.
const BETA_FUEL: usize = 10_000;

/// One ground-truth corpus, ready to compress.
struct Corpus {
    name: &'static str,
    library: Arc<Library>,
    frontiers: Vec<Frontier>,
}

impl Corpus {
    fn new(name: &'static str, domain: &dyn Domain, programs: Vec<(&str, String)>) -> Corpus {
        let library = domain.initial_library();
        let grammar = Grammar::uniform(Arc::clone(&library));
        let request = domain.dream_requests().remove(0);
        let frontiers = programs
            .iter()
            .map(|(task, src)| {
                let expr = Expr::parse(src, domain.primitives())
                    .unwrap_or_else(|e| panic!("ground truth for {task:?} parses: {e}"));
                let mut frontier = Frontier::new(request.clone());
                frontier.entries.push(FrontierEntry {
                    log_prior: grammar.log_prior(&request, &expr),
                    log_likelihood: 0.0,
                    expr,
                });
                frontier
            })
            .collect();
        Corpus {
            name,
            library,
            frontiers,
        }
    }

    fn programs(&self) -> impl Iterator<Item = &Expr> {
        self.frontiers
            .iter()
            .flat_map(|f| f.entries.iter().map(|e| &e.expr))
    }
}

/// Rounds of the grammar probe over both corpora.
const PROBE_ROUNDS: usize = 20;

/// The prepared `compress_gt` workload.
pub struct CompressGt {
    corpora: Vec<Corpus>,
    config: CompressionConfig,
}

impl CompressGt {
    /// Parse both corpora and score them under uniform grammars.
    pub(crate) fn new() -> CompressGt {
        let towers = tower::TowerDomain::new(0);
        let logos = logo::LogoDomain::new(0);
        CompressGt {
            corpora: vec![
                Corpus::new("tower", &towers, tower::ground_truth_programs()),
                Corpus::new("logo", &logos, logo::ground_truth_programs()),
            ],
            config: CompressionConfig {
                refactor_steps: 2,
                ..CompressionConfig::default()
            },
        }
    }

    /// Mean microseconds per `Grammar::log_prior` and milliseconds per
    /// `fit_grammar`, over the corpus frontiers.
    fn grammar_probe(&self) -> (f64, f64) {
        let (mut priors, mut prior_ns, mut fits, mut fit_ns) = (0u32, 0u128, 0u32, 0u128);
        for _ in 0..PROBE_ROUNDS {
            for corpus in &self.corpora {
                let grammar = Grammar::uniform(Arc::clone(&corpus.library));
                let started = Instant::now();
                for f in &corpus.frontiers {
                    for e in &f.entries {
                        std::hint::black_box(grammar.log_prior(&f.request, &e.expr));
                        priors += 1;
                    }
                }
                prior_ns += started.elapsed().as_nanos();
                let started = Instant::now();
                std::hint::black_box(fit_grammar(
                    &corpus.library,
                    &corpus.frontiers,
                    self.config.pseudocounts,
                ));
                fit_ns += started.elapsed().as_nanos();
                fits += 1;
            }
        }
        (
            prior_ns as f64 / f64::from(priors) / 1e3,
            fit_ns as f64 / f64::from(fits) / 1e6,
        )
    }

    /// Version-space nodes and milliseconds to refactor every corpus
    /// program once with `SpaceArena::refactor`.
    fn vspace_probe(&self) -> (f64, f64) {
        let mut nodes = 0usize;
        let started = Instant::now();
        for corpus in &self.corpora {
            for expr in corpus.programs() {
                let mut arena = SpaceArena::new();
                std::hint::black_box(arena.refactor(expr, self.config.refactor_steps));
                nodes += arena.len();
            }
        }
        (nodes as f64, started.elapsed().as_secs_f64() * 1e3)
    }
}

/// Does `rewritten` β-normalize, inventions inlined, to `original`?
fn same_program(rewritten: &Expr, original: &Expr) -> bool {
    let normal = |e: &Expr| e.strip_inventions().beta_normal_form(BETA_FUEL);
    matches!((normal(rewritten), normal(original)), (Some(a), Some(b)) if a == b)
}

impl Workload for CompressGt {
    fn pass(&self, _traced: bool) -> (Duration, Pass) {
        let mut wall = Duration::ZERO;
        let mut results = Vec::with_capacity(self.corpora.len());
        for corpus in &self.corpora {
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                compress(&corpus.library, &corpus.frontiers, &self.config)
            }));
            wall += started.elapsed();
            results.push(result);
        }

        let mut pass = Pass::default();
        let mut fp = Fingerprint::default();
        for (corpus, result) in self.corpora.iter().zip(results) {
            pass.attempted += 1;
            pass.programs += corpus.programs().count() as u64;
            fp.str(corpus.name);
            let Ok(result) = result else {
                pass.failed += 1;
                eprintln!(
                    "dcbench: compress_gt panicked on the {} corpus",
                    corpus.name
                );
                continue;
            };
            let (_, score) =
                joint_score(&result.library, &mut result.frontiers.clone(), &self.config);
            let mut ok = result
                .steps
                .last()
                .is_none_or(|s| s.score_after.to_bits() == score.to_bits());
            for step in &result.steps {
                fp.str(&step.invention.body.to_string());
                fp.f64(step.score_after);
            }
            fp.f64(score);
            for (before, after) in corpus.frontiers.iter().zip(&result.frontiers) {
                ok &= before.entries.len() == after.entries.len();
                for (b, a) in before.entries.iter().zip(&after.entries) {
                    fp.str(&a.expr.to_string());
                    fp.f64(a.log_prior);
                    ok &= same_program(&a.expr, &b.expr);
                }
                let uses_invention = after.best().is_some_and(|e| {
                    e.expr
                        .subexpressions()
                        .iter()
                        .any(|s| matches!(s, Expr::Invented(_)))
                });
                pass.tasks_solved += u64::from(uses_invention);
            }
            pass.inventions += result.steps.len() as u64;
            pass.library_size += result.library.len() as u64;
            pass.description_nats -= score;
            if !ok {
                pass.failed += 1;
                eprintln!(
                    "dcbench: compress_gt check failed on the {} corpus",
                    corpus.name
                );
            }
        }
        pass.fingerprint = fp.value();
        (wall, pass)
    }

    fn layers(&self, _traced: &Telemetry, _passes: f64) -> Layers {
        let (log_prior_us, fit_ms) = self.grammar_probe();
        let (nodes, refactor_ms) = self.vspace_probe();
        Layers {
            values: BTreeMap::from([
                ("grammar.log_prior_us", log_prior_us),
                ("grammar.fit_ms", fit_ms),
                ("vspace.nodes", nodes),
                ("vspace.refactor_ms", refactor_ms),
            ]),
            program_stream: None,
        }
    }
}
