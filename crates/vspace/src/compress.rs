//! Abstraction sleep (§3): grow the library by proposing new routines from
//! refactorings of the programs found during waking, scored by the
//! compression objective of Eq. 4 (corpus description length under a
//! re-fit grammar, plus a structure penalty `λ·Σ size` and an AIC penalty
//! on the number of continuous parameters `|θ|₀`). The loop is the paper's
//! "repeat until no increase in score".
//!
//! Within one [`compress`] call nothing is built twice. Each frontier's
//! refactoring spaces, the candidate bodies sampled from them and the
//! candidate-free extraction are built once and kept until an accepted
//! invention changes one of the frontier's programs; the frontiers it
//! leaves alone keep theirs into the next iteration. A build samples each
//! space node once, however many abstractions lie above it. Scoring a
//! candidate then re-costs only the space nodes that contain its body and
//! the ancestors whose cost that changes (see [`CandidateExtractor`]).
//! Every frontier is still rewritten for every candidate, and the result
//! is bit-identical to rebuilding everything each iteration.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dc_grammar::etalong::eta_long;
use dc_grammar::frontier::Frontier;
use dc_grammar::grammar::Grammar;
use dc_grammar::inside_outside::fit_grammar;
use dc_grammar::library::Library;
use dc_lambda::expr::{Expr, Invented};
use dc_lambda::types::Type;

use crate::extract::CandidateExtractor;
use crate::space::{SpaceArena, SpaceId, SpaceNode};

/// AIC weight per continuous degree of freedom (one per production).
const AIC_WEIGHT: f64 = 1.0;

/// Dirichlet pseudo-count used when re-fitting `θ`.
const PSEUDOCOUNT: f64 = 1.0;

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
    /// Has no effect: `θ` is re-fit with the fixed pseudo-count 1. The
    /// field stays only because `dcbench/` reads it.
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
            pseudocounts: PSEUDOCOUNT,
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
    let grammar = fit_grammar(library, frontiers, PSEUDOCOUNT);
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
    /// `body`'s printed form, which also names its invention.
    printed: String,
    occurrences: usize,
}

/// One frontier's refactoring spaces, the candidate bodies sampled from
/// them and their candidate-free extraction, with the request and
/// programs they were built from. Each frontier owns its arena so space
/// construction and candidate scoring parallelize without sharing mutable
/// hash-cons state (space ids, and the extraction tables indexed by them,
/// are only meaningful within their own arena).
///
/// Nothing here depends on the library: a build is a function of the
/// programs alone, so it stays valid for as long as they do.
struct FrontierSpaces {
    request: Type,
    exprs: Vec<Expr>,
    arena: SpaceArena,
    /// Extraction from each program's space, one per entry.
    extractor: CandidateExtractor,
    /// Candidate routine bodies, deduplicated within the frontier.
    bodies: HashSet<Expr>,
}

impl FrontierSpaces {
    /// Build one frontier's refactoring spaces and sample its candidate
    /// routine bodies.
    fn build(f: &Frontier, config: &CompressionConfig) -> FrontierSpaces {
        let mut arena = SpaceArena::new();
        let spaces: Vec<SpaceId> = f
            .entries
            .iter()
            .map(|entry| arena.refactor(&entry.expr, config.refactor_steps))
            .collect();
        // Free the inversion memos before sampling, so the two are never
        // held at once.
        arena.clear_memos();
        let extractor = CandidateExtractor::new(&arena, &spaces);
        let mut bodies: HashSet<Expr> = HashSet::new();
        // Every node reachable from any entry, each sampled once.
        arena.sample_each(&extractor.nodes(), 4, |id, sample| {
            if !matches!(arena.node(id), SpaceNode::Abstraction(_)) {
                return;
            }
            for sampled in sample {
                // Propose the β-normal form: candidates with residual
                // redexes are equivalent but print (and weigh) worse.
                let Some(body) = sampled.beta_normal_form(1_000) else {
                    continue;
                };
                // Pure variable-shuffling combinators (no primitive or
                // invented leaf) occur in every program's refactorings
                // but never compress anything: drop them early.
                if body.size() < MIN_CANDIDATE_SIZE
                    || !matches!(body, Expr::Abstraction(_))
                    || !body.is_closed()
                    || !has_library_leaf(&body)
                {
                    continue;
                }
                bodies.insert(body);
            }
        });
        FrontierSpaces {
            request: f.request.clone(),
            exprs: f.entries.iter().map(|e| e.expr.clone()).collect(),
            extractor,
            arena,
            bodies,
        }
    }

    /// Was this built from `f`'s request and programs, in order?
    fn is_built_from(&self, f: &Frontier) -> bool {
        self.request == f.request
            && self.exprs.len() == f.entries.len()
            && self
                .exprs
                .iter()
                .zip(&f.entries)
                .all(|(e, entry)| *e == entry.expr)
    }
}

/// Does `e` contain a primitive or invented leaf?
fn has_library_leaf(e: &Expr) -> bool {
    match e {
        Expr::Primitive(_) | Expr::Invented(_) => true,
        Expr::Index(_) => false,
        Expr::Abstraction(b) => has_library_leaf(b),
        Expr::Application(f, x) => has_library_leaf(f) || has_library_leaf(x),
    }
}

/// Bring `spaces` up to date with `frontiers`, then propose the most
/// promising candidate routines: closed, well-typed λ-abstractions
/// sampled from the refactoring spaces of at least two distinct tasks and
/// not already in the library, ranked by `occurrences × (size − 1)`.
///
/// A frontier is rebuilt only when its request or one of its programs
/// differs from the ones its spaces were built from; the frontiers an
/// accepted invention did not rewrite keep their arenas and sampled
/// bodies from one iteration of [`compress`] to the next. The library
/// filter runs here, at the merge, so kept bodies stay valid after the
/// library grows.
///
/// Stale frontiers build in parallel, largest programs first, and each
/// build lands at its frontier's index; the merge counts each body once per
/// frontier, and the final ranking sorts on a total key (score, then
/// printed body), so the proposal list is deterministic. Types are
/// checked in rank order, only until `top_candidates` bodies pass.
fn propose_candidates(
    frontiers: &[Frontier],
    library: &Library,
    spaces: &mut Vec<FrontierSpaces>,
    config: &CompressionConfig,
) -> Vec<CandidateProposal> {
    let mut stale: Vec<usize> = (0..frontiers.len())
        .filter(|&i| {
            !spaces
                .get(i)
                .is_some_and(|fs| fs.is_built_from(&frontiers[i]))
        })
        .collect();
    // Largest programs first: a build's cost grows with its programs'
    // size, so the fan-out ends on small builds and no worker is left
    // waiting on a large one that was claimed last.
    stale.sort_by_key(|&i| {
        Reverse(
            frontiers[i]
                .entries
                .iter()
                .map(|e| e.expr.size())
                .sum::<usize>(),
        )
    });
    let built: Vec<FrontierSpaces> =
        rayon::map(&stale, |&i| FrontierSpaces::build(&frontiers[i], config));
    let mut built: Vec<(usize, FrontierSpaces)> = stale.iter().copied().zip(built).collect();
    built.sort_unstable_by_key(|&(i, _)| i);
    for (i, fs) in built {
        if i < spaces.len() {
            spaces[i] = fs;
        } else {
            spaces.push(fs);
        }
    }
    debug_assert_eq!(spaces.len(), frontiers.len());
    dc_telemetry::add("compression.frontiers_rebuilt", stale.len() as u64);
    dc_telemetry::add(
        "compression.frontiers_reused",
        (frontiers.len() - stale.len()) as u64,
    );

    let existing: HashSet<&Expr> = library
        .items
        .iter()
        .map(|it| match &it.expr {
            Expr::Invented(inv) => &inv.body,
            other => other,
        })
        .collect();
    // candidate body -> number of frontiers that can use it
    let mut occurrences: HashMap<&Expr, usize> = HashMap::new();
    for fs in spaces.iter() {
        for body in fs.bodies.iter().filter(|b| !existing.contains(b)) {
            *occurrences.entry(body).or_default() += 1;
        }
    }
    let mut ranked: Vec<(usize, String, &Expr, usize)> = occurrences
        .into_iter()
        .filter(|&(_, n)| n >= 2)
        .map(|(body, n)| (n * (body.size() - 1), body.to_string(), body, n))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    ranked
        .into_iter()
        .filter(|(_, _, body, _)| body.infer().is_ok())
        .take(config.top_candidates)
        .map(|(_, printed, body, occurrences)| CandidateProposal {
            body: body.clone(),
            printed,
            occurrences,
        })
        .collect()
}

/// The candidate bodies the first iteration of [`compress`] scores, in
/// rank order: [`propose_candidates`] on freshly built spaces. Tests use
/// it to check scoring on exactly the candidates abstraction sleep
/// scores.
#[doc(hidden)]
pub fn first_proposals(
    library: &Library,
    frontiers: &[Frontier],
    config: &CompressionConfig,
) -> Vec<Expr> {
    propose_candidates(frontiers, library, &mut Vec::new(), config)
        .into_iter()
        .map(|p| p.body)
        .collect()
}

/// Rewrite every frontier in terms of `invention`, extracting the cheapest
/// refactoring of each program and η-long-normalizing it so the grammar
/// can score it. Programs that fail to rewrite keep their original form.
fn rewrite_frontiers(
    frontiers: &[Frontier],
    program_spaces: &[FrontierSpaces],
    invention: &Arc<Invented>,
) -> Vec<Frontier> {
    frontiers
        .iter()
        .zip(program_spaces)
        .map(|(f, fs)| {
            let extracted = fs.extractor.extract(&fs.arena, invention);
            let mut nf = Frontier::new(f.request.clone());
            for (entry, extraction) in f.entries.iter().zip(extracted) {
                let rewritten = extraction
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
    let mut program_spaces: Vec<FrontierSpaces> = Vec::with_capacity(frontiers.len());

    for _ in 0..config.max_inventions {
        let propose_span = dc_telemetry::span("compression.propose_time");
        let proposals = propose_candidates(&frontiers, &library, &mut program_spaces, config);
        drop(propose_span);
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
                                .map(|p| (p.printed.as_str(), p.occurrences))
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
            let name = format!("#{}", proposal.printed);
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
        let best = rayon::max_by_stable(&proposals, score_proposal, cmp_scored).flatten();
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
}
