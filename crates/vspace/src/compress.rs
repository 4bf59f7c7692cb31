//! Abstraction sleep (§3): grow the library by proposing new routines from
//! refactorings of the programs found during waking, scored by the
//! compression objective of Eq. 4 (corpus description length under a
//! re-fit grammar, plus a structure penalty `λ·Σ size` and an AIC penalty
//! on the number of continuous parameters `|θ|₀`). The loop is the paper's
//! "repeat until no increase in score".

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dc_grammar::etalong::eta_long;
use dc_grammar::frontier::Frontier;
use dc_grammar::grammar::Grammar;
use dc_grammar::inside_outside::fit_grammar;
use dc_grammar::library::Library;
use dc_lambda::expr::{Expr, Invented};
use rayon::prelude::*;

use crate::extract::{ExtractionMemo, Matcher};
use crate::space::{SpaceArena, SpaceId, SpaceNode};

/// AIC weight per continuous degree of freedom (one per production).
const AIC_WEIGHT: f64 = 1.0;

/// Minimum syntax-tree size of a proposed routine.
const MIN_CANDIDATE_SIZE: usize = 3;

/// Hyperparameters of abstraction sleep.
#[derive(Debug, Clone)]
pub struct CompressionConfig {
    /// `n`, the number of inverse-β steps (the paper uses 3).
    pub refactor_steps: usize,
    /// How many candidate routines to score exactly per iteration.
    pub top_candidates: usize,
    /// `λ` in `P[D] ∝ exp(-λ Σ size(ρ))`.
    pub structure_penalty: f64,
    /// Dirichlet pseudo-count used when re-fitting `θ`.
    pub pseudocounts: f64,
    /// Cap on inventions accepted in one sleep.
    pub max_inventions: usize,
}

impl Default for CompressionConfig {
    fn default() -> CompressionConfig {
        CompressionConfig {
            refactor_steps: 3,
            top_candidates: 100,
            structure_penalty: 1.5,
            pseudocounts: 1.0,
            max_inventions: 10,
        }
    }
}

/// One accepted invention with the scores before/after.
#[derive(Debug, Clone)]
pub struct CompressionStep {
    /// The routine added to the library.
    pub invention: Arc<Invented>,
    /// Objective before adding it.
    pub score_before: f64,
    /// Objective after adding it.
    pub score_after: f64,
}

/// The output of abstraction sleep.
#[derive(Debug, Clone)]
pub struct CompressionResult {
    /// The grown library.
    pub library: Arc<Library>,
    /// Weights re-fit to the rewritten corpus.
    pub grammar: Grammar,
    /// Frontiers rewritten in terms of the new library.
    pub frontiers: Vec<Frontier>,
    /// The inventions accepted, in order.
    pub steps: Vec<CompressionStep>,
}

/// The compression objective: `Σ_x log Σ_{ρ∈B_x} P[x|ρ]P[ρ|D,θ*]`
/// with `θ*` the MAP re-fit, minus the structure and AIC penalties.
/// Returns the fitted grammar and the score, with frontier priors
/// re-scored in place.
pub fn joint_score(
    library: &Arc<Library>,
    frontiers: &mut [Frontier],
    config: &CompressionConfig,
) -> (Grammar, f64) {
    let grammar = fit_grammar(library, frontiers, config.pseudocounts);
    let mut total = 0.0;
    for f in frontiers.iter_mut() {
        let request = f.request.clone();
        f.rescore(|e| grammar.log_prior(&request, e));
        if !f.is_empty() {
            total += f.log_evidence();
        }
    }
    let structure: usize = library
        .inventions()
        .map(|it| match &it.expr {
            Expr::Invented(inv) => inv.body.size(),
            _ => 0,
        })
        .sum();
    total -= config.structure_penalty * structure as f64;
    total -= AIC_WEIGHT * library.len() as f64;
    (grammar, total)
}

/// A proposed candidate routine.
#[derive(Debug, Clone)]
struct CandidateProposal {
    body: Expr,
    occurrences: usize,
}

/// One frontier's refactoring spaces. Each frontier owns its arena so
/// space construction and candidate scoring parallelize without sharing
/// mutable hash-cons state ([`SpaceId`]s are only meaningful within their
/// own arena, as are the pointer-keyed extraction memos).
struct FrontierSpaces {
    arena: SpaceArena,
    spaces: Vec<SpaceId>,
}

/// Build one frontier's refactoring spaces and collect its candidate
/// routine bodies (keyed by printed form, deduplicated within the
/// frontier).
fn build_frontier_spaces(
    f: &Frontier,
    existing: &HashSet<String>,
    config: &CompressionConfig,
) -> (FrontierSpaces, HashMap<String, Expr>) {
    let mut arena = SpaceArena::new();
    let mut spaces = Vec::with_capacity(f.entries.len());
    let mut bodies: HashMap<String, Expr> = HashMap::new();
    for entry in &f.entries {
        let space = arena.refactor(&entry.expr, config.refactor_steps);
        for id in arena.reachable(space) {
            if !matches!(arena.node(id), SpaceNode::Abstraction(_)) {
                continue;
            }
            for sampled in arena.extension_sample(id, 4) {
                // Propose the β-normal form: candidates with residual
                // redexes are equivalent but print (and weigh) worse.
                let Some(body) = sampled.beta_normal_form(1_000) else {
                    continue;
                };
                if body.size() < MIN_CANDIDATE_SIZE
                    || !matches!(body, Expr::Abstraction(_))
                    || !body.is_closed()
                    || existing.contains(&body.to_string())
                {
                    continue;
                }
                // Pure variable-shuffling combinators (no primitive or
                // invented leaf) occur in every program's refactorings
                // but never compress anything: drop them early.
                if !body
                    .subexpressions()
                    .iter()
                    .any(|e| matches!(e, Expr::Primitive(_) | Expr::Invented(_)))
                {
                    continue;
                }
                bodies.entry(body.to_string()).or_insert(body);
            }
        }
        spaces.push(space);
    }
    (FrontierSpaces { arena, spaces }, bodies)
}

/// Build refactoring spaces for every frontier program and propose the
/// most promising candidate routines: closed, well-typed λ-abstractions
/// sampled from the refactoring spaces of at least two distinct tasks,
/// ranked by `occurrences × (size − 1)`.
///
/// Frontiers build in parallel; the merge runs sequentially in frontier
/// order and the final ranking sorts on a total key (score, then printed
/// body), so the proposal list is deterministic.
fn propose_candidates(
    frontiers: &[Frontier],
    library: &Library,
    config: &CompressionConfig,
) -> (Vec<FrontierSpaces>, Vec<CandidateProposal>) {
    let existing: HashSet<String> = library
        .items
        .iter()
        .map(|it| match &it.expr {
            Expr::Invented(inv) => inv.body.to_string(),
            other => other.to_string(),
        })
        .collect();
    let built: Vec<(FrontierSpaces, HashMap<String, Expr>)> = frontiers
        .par_iter()
        .map(|f| build_frontier_spaces(f, &existing, config))
        .collect();
    let mut program_spaces: Vec<FrontierSpaces> = Vec::with_capacity(frontiers.len());
    // candidate body (printed) -> (body, tasks that can use it)
    let mut occurrences: HashMap<String, (Expr, HashSet<usize>)> = HashMap::new();
    for (ti, (fs, bodies)) in built.into_iter().enumerate() {
        for (key, body) in bodies {
            occurrences
                .entry(key)
                .or_insert_with(|| (body, HashSet::new()))
                .1
                .insert(ti);
        }
        program_spaces.push(fs);
    }
    let mut proposals: Vec<CandidateProposal> = occurrences
        .into_values()
        .filter(|(body, tasks)| tasks.len() >= 2 && body.infer().is_ok())
        .map(|(body, tasks)| CandidateProposal {
            body,
            occurrences: tasks.len(),
        })
        .collect();
    proposals.sort_by_key(|p| {
        (
            std::cmp::Reverse(p.occurrences * (p.body.size() - 1)),
            p.body.to_string(),
        )
    });
    proposals.truncate(config.top_candidates);
    (program_spaces, proposals)
}

/// Rewrite every frontier in terms of `invention`, extracting the cheapest
/// refactoring of each program and η-long-normalizing it so the grammar
/// can score it. Programs that fail to rewrite keep their original form.
/// The matcher and extraction memo are per-frontier because their caches
/// key on [`SpaceId`]s (and expression pointers) of one arena.
fn rewrite_frontiers(
    frontiers: &[Frontier],
    program_spaces: &[FrontierSpaces],
    invention: &Arc<Invented>,
) -> Vec<Frontier> {
    frontiers
        .iter()
        .zip(program_spaces)
        .map(|(f, fs)| {
            let mut matcher = Matcher::new(Arc::clone(invention));
            let mut memo = ExtractionMemo::new();
            let mut nf = Frontier::new(f.request.clone());
            for (entry, &space) in f.entries.iter().zip(&fs.spaces) {
                let rewritten = fs
                    .arena
                    .minimal_inhabitant(space, Some(&mut matcher), &mut memo)
                    .and_then(|ex| eta_long(&ex.expr, &f.request))
                    .unwrap_or_else(|| entry.expr.clone());
                nf.entries.push(dc_grammar::frontier::FrontierEntry {
                    expr: rewritten,
                    log_likelihood: entry.log_likelihood,
                    log_prior: entry.log_prior,
                });
            }
            nf
        })
        .collect()
}

/// Run abstraction sleep: grow `library` with routines that compress
/// `frontiers`, greedily accepting the best-scoring candidate until the
/// objective stops improving.
pub fn compress(
    library: &Arc<Library>,
    frontiers: &[Frontier],
    config: &CompressionConfig,
) -> CompressionResult {
    let mut library = Arc::clone(library);
    let mut frontiers: Vec<Frontier> = frontiers.to_vec();
    let mut steps = Vec::new();
    let (mut grammar, mut best_score) = joint_score(&library, &mut frontiers, config);

    for _ in 0..config.max_inventions {
        let (program_spaces, proposals) = propose_candidates(&frontiers, &library, config);
        let vspace_nodes: usize = program_spaces.iter().map(|fs| fs.arena.len()).sum();
        dc_telemetry::add("compression.candidates_proposed", proposals.len() as u64);
        dc_telemetry::set_gauge("compression.vspace_nodes", vspace_nodes as f64);
        if proposals.is_empty() {
            break;
        }
        if dc_telemetry::event_enabled(dc_telemetry::Level::Debug) {
            dc_telemetry::event(
                dc_telemetry::Level::Debug,
                "compress.proposals",
                &[
                    ("count", proposals.len().into()),
                    ("vspace_nodes", vspace_nodes.into()),
                    (
                        "top",
                        format!(
                            "{:?}",
                            proposals
                                .iter()
                                .take(5)
                                .map(|p| (p.body.to_string(), p.occurrences))
                                .collect::<Vec<_>>()
                        )
                        .into(),
                    ),
                ],
            );
        }
        // Score every proposal independently (telemetry counters are
        // atomic, so they are parallel-safe), then reduce with a stable
        // first-max: ties keep the lowest proposal index, replicating the
        // sequential `score > best` loop regardless of thread arrival.
        // Workers start with empty span stacks: carry the caller's span in
        // so the candidate spans nest identically at any thread count.
        let parent = dc_telemetry::current_span();
        let score_proposal = |proposal: &CandidateProposal| {
            let name = format!("#{}", proposal.body);
            let invention = Invented::new(&name, proposal.body.clone()).ok()?;
            let candidate_span = dc_telemetry::span_under(parent, "compression.candidate_time");
            let mut lib2 = (*library).clone();
            lib2.push_invented(Arc::clone(&invention));
            let lib2 = Arc::new(lib2);
            let rewrite_span = dc_telemetry::span("compression.rewrite_time");
            let mut rewritten = rewrite_frontiers(&frontiers, &program_spaces, &invention);
            drop(rewrite_span);
            let score_span = dc_telemetry::span("compression.score_time");
            let (g2, score) = joint_score(&lib2, &mut rewritten, config);
            drop(score_span);
            dc_telemetry::incr("compression.candidates_scored");
            if score == f64::NEG_INFINITY && dc_telemetry::event_enabled(dc_telemetry::Level::Warn)
            {
                for f in &rewritten {
                    for e in &f.entries {
                        if e.log_prior == f64::NEG_INFINITY {
                            dc_telemetry::event(
                                dc_telemetry::Level::Warn,
                                "compress.unscorable",
                                &[
                                    ("expr", e.expr.to_string().into()),
                                    ("request", f.request.to_string().into()),
                                ],
                            );
                        }
                    }
                }
            }
            if dc_telemetry::event_enabled(dc_telemetry::Level::Debug) {
                let rewrites = rewritten
                    .iter()
                    .flat_map(|f| f.entries.iter())
                    .filter(|e| {
                        e.expr
                            .subexpressions()
                            .iter()
                            .any(|s| matches!(s, Expr::Invented(_)))
                    })
                    .count();
                dc_telemetry::event(
                    dc_telemetry::Level::Debug,
                    "compress.candidate",
                    &[
                        ("name", invention.name.as_str().into()),
                        ("score", score.into()),
                        ("baseline", best_score.into()),
                        ("rewrites", rewrites.into()),
                    ],
                );
            }
            drop(candidate_span);
            Some((score, invention, rewritten, g2))
        };
        type Scored = Option<(f64, Arc<Invented>, Vec<Frontier>, Grammar)>;
        let cmp_scored = |a: &Scored, b: &Scored| match (a, b) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            // NaN scores compare Equal, so the earlier index wins and the
            // reduction stays deterministic even then.
            (Some(x), Some(y)) => x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal),
        };
        let best = proposals
            .par_iter()
            .map(score_proposal)
            .max_by_stable(cmp_scored)
            .flatten();
        let Some((score, invention, rewritten, g2)) = best else {
            break;
        };
        if score <= best_score {
            break;
        }
        dc_telemetry::incr("compression.inventions_accepted");
        dc_telemetry::event(
            dc_telemetry::Level::Info,
            "compress.accept",
            &[
                ("name", invention.name.as_str().into()),
                ("score_before", best_score.into()),
                ("score_after", score.into()),
            ],
        );
        let mut lib2 = (*library).clone();
        lib2.push_invented(Arc::clone(&invention));
        library = Arc::new(lib2);
        steps.push(CompressionStep {
            invention,
            score_before: best_score,
            score_after: score,
        });
        best_score = score;
        frontiers = rewritten;
        grammar = g2;
    }

    CompressionResult {
        library,
        grammar,
        frontiers,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::frontier::FrontierEntry;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist, Type};

    fn frontier_of(src: &str, request: Type, g: &Grammar) -> Frontier {
        let prims = base_primitives();
        let e = Expr::parse(src, &prims).unwrap();
        let mut f = Frontier::new(request.clone());
        f.insert(
            FrontierEntry {
                log_prior: g.log_prior(&request, &e),
                log_likelihood: 0.0,
                expr: e,
            },
            5,
        );
        f
    }

    fn quick_config() -> CompressionConfig {
        CompressionConfig {
            refactor_steps: 2,
            top_candidates: 30,
            max_inventions: 3,
            // The unit-test corpora are tiny (3-5 programs); soften the
            // structure prior accordingly. Domain runs use the default.
            structure_penalty: 0.3,
            ..CompressionConfig::default()
        }
    }

    #[test]
    fn compression_discovers_shared_double() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = tint();
        // Several tasks all solved by doubling something.
        let frontiers = vec![
            frontier_of("(+ 1 1)", t.clone(), &g),
            frontier_of("(+ 0 0)", t.clone(), &g),
            frontier_of("(+ (+ 1 1) (+ 1 1))", t.clone(), &g),
        ];
        let result = compress(&lib, &frontiers, &quick_config());
        assert!(
            !result.steps.is_empty(),
            "expected compression to find the doubling abstraction"
        );
        let names: Vec<String> = result
            .steps
            .iter()
            .map(|s| s.invention.body.to_string())
            .collect();
        assert!(
            names.iter().any(|n| n == "(lambda (+ $0 $0))"),
            "expected double, got {names:?}"
        );
        // Scores must strictly improve at each step.
        for s in &result.steps {
            assert!(s.score_after > s.score_before);
        }
    }

    #[test]
    fn rewritten_programs_are_semantically_equal() {
        use dc_lambda::eval::run_program;
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = tint();
        let sources = ["(+ 1 1)", "(+ 0 0)", "(* (+ 1 1) (+ 1 1))"];
        let frontiers: Vec<Frontier> = sources
            .iter()
            .map(|s| frontier_of(s, t.clone(), &g))
            .collect();
        let result = compress(&lib, &frontiers, &quick_config());
        for (f, src) in result.frontiers.iter().zip(&sources) {
            let original = Expr::parse(src, &prims).unwrap();
            let want = run_program(&original, &[], 10_000).unwrap();
            for entry in &f.entries {
                let got = run_program(&entry.expr, &[], 10_000).unwrap();
                assert_eq!(got, want, "{} != {}", entry.expr, original);
            }
        }
    }

    #[test]
    fn no_compression_from_unrelated_programs() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let frontiers = vec![
            frontier_of("0", tint(), &g),
            frontier_of("nil", tlist(tint()), &g),
        ];
        let result = compress(&lib, &frontiers, &quick_config());
        assert!(result.steps.is_empty());
        assert_eq!(result.library.len(), lib.len());
    }

    #[test]
    fn map_is_extracted_from_two_recursive_programs() {
        // The Fig-2 experiment: two different recursive list programs
        // written with fix, whose refactorings share the map skeleton.
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let double_all =
            "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
        let decrement_all =
            "(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (- (car $0) 1) ($1 (cdr $0)))))) $0))";
        let frontiers = vec![
            frontier_of(double_all, t.clone(), &g),
            frontier_of(decrement_all, t.clone(), &g),
        ];
        // Two inversion steps suffice for the map skeleton: one to create
        // the inner redex ((λ (+ $0 $0)) (car $0)), one to abstract the
        // function out of the fix. (The paper's default n=3 also works but
        // is slow in debug builds; see the release-mode benches.)
        let cfg = CompressionConfig {
            refactor_steps: 2,
            top_candidates: 300,
            max_inventions: 2,
            ..CompressionConfig::default()
        };
        let result = compress(&lib, &frontiers, &cfg);
        assert!(
            !result.steps.is_empty(),
            "expected a shared recursion skeleton to be invented"
        );
        // The invention must be a higher-order routine (contains fix and a
        // function parameter) — the map skeleton.
        let body = result.steps[0].invention.body.to_string();
        assert!(body.contains("fix"), "invention {body} should wrap fix");
        // Rewritten programs must shrink.
        for (f, orig) in result.frontiers.iter().zip([double_all, decrement_all]) {
            let original = Expr::parse(orig, &prims).unwrap();
            assert!(
                f.entries[0].expr.size() < original.size(),
                "{} is not smaller than {}",
                f.entries[0].expr,
                original
            );
        }
    }
}
