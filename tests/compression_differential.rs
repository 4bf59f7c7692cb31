//! Abstraction sleep keeps each frontier's version spaces from one
//! iteration to the next and rebuilds only the frontiers whose programs
//! changed. This checks that reuse against fresh builds: one `compress`
//! call that may accept `k` inventions must equal `k` chained calls that
//! accept at most one each, since every chained call starts from the
//! previous result's library and frontiers and so builds every arena
//! anew. Inventions, scores, library and rewritten programs must agree
//! bit for bit.
//!
//! Candidate scoring extracts each program's cheapest refactoring through
//! a `CandidateExtractor`, which re-costs only the nodes a candidate can
//! change; the second half checks it against the full `Matcher` pass for
//! each candidate abstraction sleep scores first on each corpus.
//!
//! The corpora are the ground-truth programs of four domains, set up as
//! the benchmark's `compress_gt` workload sets up tower and logo: one
//! frontier per program, priors under a uniform grammar, two inverse-β
//! steps. With one program per frontier the grammar re-fit is idempotent,
//! so a chained call's starting score is the previous call's final one.

use std::sync::Arc;

use dreamcoder::grammar::frontier::{Frontier, FrontierEntry};
use dreamcoder::grammar::library::Library;
use dreamcoder::grammar::Grammar;
use dreamcoder::lambda::{Expr, Invented};
use dreamcoder::tasks::domains::{list, logo, text, tower};
use dreamcoder::tasks::Domain;
use dreamcoder::vspace::compress::first_proposals;
use dreamcoder::vspace::{
    compress, CandidateExtractor, CompressionConfig, CompressionResult, ExtractionMemo, Matcher,
    SpaceArena, SpaceId,
};

/// Upper bound on inventions per corpus; no corpus reaches it.
const MAX_INVENTIONS: usize = 10;

/// One frontier per ground-truth program. The request is the named
/// task's, or the domain's first dream request when no task has the name
/// (so tower and logo get exactly `compress_gt`'s frontiers).
fn corpus(domain: &dyn Domain, programs: Vec<(&str, String)>) -> (Arc<Library>, Vec<Frontier>) {
    let library = domain.initial_library();
    let grammar = Grammar::uniform(Arc::clone(&library));
    let fallback = domain.dream_requests().remove(0);
    let frontiers = programs
        .iter()
        .map(|(name, src)| {
            let request = domain
                .train_tasks()
                .iter()
                .chain(domain.test_tasks())
                .find(|t| t.name == *name)
                .map_or_else(|| fallback.clone(), |t| t.request.clone());
            let expr = Expr::parse(src, domain.primitives())
                .unwrap_or_else(|e| panic!("ground truth for {name:?} parses: {e}"));
            let log_prior = grammar.log_prior(&request, &expr);
            assert!(
                log_prior.is_finite(),
                "{name:?} has no prior under {request}"
            );
            let mut frontier = Frontier::new(request);
            frontier.entries.push(FrontierEntry {
                log_prior,
                log_likelihood: 0.0,
                expr,
            });
            frontier
        })
        .collect();
    (library, frontiers)
}

fn config(structure_penalty: f64, max_inventions: usize) -> CompressionConfig {
    CompressionConfig {
        refactor_steps: 2,
        structure_penalty,
        max_inventions,
        ..CompressionConfig::default()
    }
}

/// Everything a compression result says, with floats as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// (body, score_before, score_after) per accepted invention.
    steps: Vec<(String, u64, u64)>,
    library: Vec<String>,
    /// (program, log_prior) per frontier entry.
    programs: Vec<(String, u64)>,
}

fn programs(frontiers: &[Frontier]) -> Vec<(String, u64)> {
    frontiers
        .iter()
        .flat_map(|f| &f.entries)
        .map(|e| (e.expr.to_string(), e.log_prior.to_bits()))
        .collect()
}

fn library(result: &CompressionResult) -> Vec<String> {
    result
        .library
        .items
        .iter()
        .map(|it| format!("{} {}", it.expr, it.ty()))
        .collect()
}

/// `compress_gt`'s structure penalty. Under it tower and logo accept one
/// invention each, so their second iteration reuses every arena the
/// invention did not change.
const BENCHMARK_PENALTY: f64 = 1.5;

/// A softer penalty, under which tower, logo and text accept several
/// inventions, so arenas are reused over several iterations.
const SOFT_PENALTY: f64 = 0.2;

fn check_corpus(domain: &dyn Domain, ground_truth: Vec<(&str, String)>, penalty: f64) {
    let (initial, frontiers) = corpus(domain, ground_truth);
    check(&initial, &frontiers, penalty);
}

fn check(initial: &Arc<Library>, frontiers: &[Frontier], penalty: f64) {
    let whole = compress(initial, frontiers, &config(penalty, MAX_INVENTIONS));
    let whole = Outcome {
        steps: whole
            .steps
            .iter()
            .map(|s| {
                (
                    s.invention.body.to_string(),
                    s.score_before.to_bits(),
                    s.score_after.to_bits(),
                )
            })
            .collect(),
        library: library(&whole),
        programs: programs(&whole.frontiers),
    };

    let mut steps = Vec::new();
    let mut chained = compress(initial, frontiers, &config(penalty, 1));
    while steps.len() <= MAX_INVENTIONS {
        let Some(step) = chained.steps.first() else {
            break;
        };
        steps.push((
            step.invention.body.to_string(),
            step.score_before.to_bits(),
            step.score_after.to_bits(),
        ));
        chained = compress(&chained.library, &chained.frontiers, &config(penalty, 1));
    }
    let chained = Outcome {
        steps,
        library: library(&chained),
        programs: programs(&chained.frontiers),
    };

    assert_eq!(whole, chained, "structure penalty {penalty}");
    assert!(whole.steps.len() < MAX_INVENTIONS);
}

#[test]
fn tower_one_call_matches_chained_calls() {
    check_corpus(
        &tower::TowerDomain::new(0),
        tower::ground_truth_programs(),
        BENCHMARK_PENALTY,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "60 s in a debug build; CI runs it in release"
)]
fn tower_one_call_matches_chained_calls_over_several_inventions() {
    check_corpus(
        &tower::TowerDomain::new(0),
        tower::ground_truth_programs(),
        SOFT_PENALTY,
    );
}

#[test]
fn logo_one_call_matches_chained_calls() {
    check_corpus(
        &logo::LogoDomain::new(0),
        logo::ground_truth_programs(),
        BENCHMARK_PENALTY,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "60 s in a debug build; CI runs it in release"
)]
fn logo_one_call_matches_chained_calls_over_several_inventions() {
    check_corpus(
        &logo::LogoDomain::new(0),
        logo::ground_truth_programs(),
        SOFT_PENALTY,
    );
}

#[test]
fn list_one_call_matches_chained_calls() {
    check_corpus(
        &list::ListDomain::new(0),
        list::ground_truth_programs(),
        BENCHMARK_PENALTY,
    );
}

#[test]
fn text_one_call_matches_chained_calls() {
    check_corpus(
        &text::TextDomain::new(0),
        text::ground_truth_programs(),
        BENCHMARK_PENALTY,
    );
}

#[test]
fn text_one_call_matches_chained_calls_over_several_inventions() {
    check_corpus(
        &text::TextDomain::new(0),
        text::ground_truth_programs(),
        SOFT_PENALTY,
    );
}

/// One frontier's refactoring spaces, built as abstraction sleep builds
/// them: every program into one arena, `steps` inverse-β steps.
struct Spaces {
    arena: SpaceArena,
    roots: Vec<SpaceId>,
}

fn spaces(frontier: &Frontier, steps: usize) -> Spaces {
    let mut arena = SpaceArena::new();
    let roots = frontier
        .entries
        .iter()
        .map(|e| arena.refactor(&e.expr, steps))
        .collect();
    Spaces { arena, roots }
}

/// For each first-iteration candidate and each frontier, the extractor's
/// result equals the full pass with a `Matcher`, root by root, with
/// spaces and candidates built at `steps` inverse-β steps.
fn check_extraction(domain: &dyn Domain, ground_truth: Vec<(&str, String)>, steps: usize) {
    let (initial, frontiers) = corpus(domain, ground_truth);
    let all: Vec<Spaces> = frontiers.iter().map(|f| spaces(f, steps)).collect();
    let extractors: Vec<CandidateExtractor> = all
        .iter()
        .map(|s| CandidateExtractor::new(&s.arena, &s.roots))
        .collect();
    let config = CompressionConfig {
        refactor_steps: steps,
        ..config(BENCHMARK_PENALTY, 1)
    };
    let candidates = first_proposals(&initial, &frontiers, &config);
    assert!(!candidates.is_empty());
    let mut rewrites = 0;
    for body in candidates {
        let invention = Invented::new(&format!("#{body}"), body).unwrap();
        for (s, extractor) in all.iter().zip(&extractors) {
            let mut matcher = Matcher::new(Arc::clone(&invention));
            let mut memo = ExtractionMemo::new();
            let full: Vec<_> = s
                .roots
                .iter()
                .map(|&root| {
                    s.arena
                        .minimal_inhabitant(root, Some(&mut matcher), &mut memo)
                })
                .collect();
            let fast = extractor.extract(&s.arena, &invention);
            assert_eq!(fast, full, "candidate {}", invention.name);
            rewrites += full
                .iter()
                .flatten()
                .filter(|ex| ex.expr.to_string().contains(&invention.name))
                .count();
        }
    }
    assert!(rewrites > 0, "no candidate rewrote any program");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "40 s in a debug build; CI runs it in release"
)]
fn tower_candidate_extraction_matches_the_matcher() {
    check_extraction(
        &tower::TowerDomain::new(0),
        tower::ground_truth_programs(),
        2,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "40 s in a debug build; CI runs it in release"
)]
fn logo_candidate_extraction_matches_the_matcher() {
    check_extraction(&logo::LogoDomain::new(0), logo::ground_truth_programs(), 2);
}

#[test]
fn list_candidate_extraction_matches_the_matcher() {
    check_extraction(&list::ListDomain::new(0), list::ground_truth_programs(), 2);
}

#[test]
fn text_candidate_extraction_matches_the_matcher() {
    check_extraction(&text::TextDomain::new(0), text::ground_truth_programs(), 2);
}

// Three inverse-β steps, abstraction sleep's default and `cycle_list`'s
// setting: the deepest spaces the extractor scores candidates on.

#[test]
fn list_candidate_extraction_matches_the_matcher_at_three_steps() {
    check_extraction(&list::ListDomain::new(0), list::ground_truth_programs(), 3);
}

#[test]
fn text_candidate_extraction_matches_the_matcher_at_three_steps() {
    check_extraction(&text::TextDomain::new(0), text::ground_truth_programs(), 3);
}
