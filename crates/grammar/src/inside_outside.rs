//! Re-estimating grammar weights `θ` from frontiers (the `argmax_θ ℒ` step
//! of abstraction sleep, §2.4), with a symmetric-Dirichlet / pseudo-count
//! MAP estimate.

use std::sync::Arc;

use crate::frontier::Frontier;
use crate::grammar::{generation_trace, Grammar, ProgramPrior};
use crate::library::Library;

/// Fit unigram weights to the posterior-weighted programs in `frontiers`.
///
/// Each frontier member contributes its normalized within-beam posterior
/// weight to the usage counts of the productions it uses; weights are then
/// set to smoothed log-counts (normalization happens per choice point at
/// generation time, so unnormalized log-counts suffice).
pub fn fit_grammar(library: &Arc<Library>, frontiers: &[Frontier], pseudocount: f64) -> Grammar {
    let scorer = Grammar::uniform(Arc::clone(library));
    let mut variable = 0.0;
    let mut productions = vec![0.0; library.len()];
    accumulate(&scorer, frontiers, |chosen, w| match chosen {
        None => variable += w,
        Some(j) => productions[j] += w,
    });
    let mut g = Grammar::uniform(Arc::clone(library));
    g.weights.log_variable = (pseudocount + variable).ln();
    for (w, c) in g.weights.log_productions.iter_mut().zip(&productions) {
        *w = (pseudocount + c).ln();
    }
    g
}

/// Walk every frontier program, reporting each generation event together
/// with the program's normalized within-beam posterior weight.
fn accumulate(
    scorer: &dyn ProgramPrior,
    frontiers: &[Frontier],
    mut record: impl FnMut(Option<usize>, f64),
) {
    for frontier in frontiers {
        if frontier.is_empty() {
            continue;
        }
        let weights = frontier.posterior_weights();
        for (entry, w) in frontier.entries.iter().zip(weights) {
            if let Some((_, events)) = generation_trace(scorer, &frontier.request, &entry.expr) {
                for ev in events {
                    record(ev.chosen, w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FrontierEntry;
    use dc_lambda::expr::Expr;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, Type};

    #[test]
    fn fitting_shifts_mass_toward_used_productions() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g0 = Grammar::uniform(Arc::clone(&lib));
        let t = Type::arrow(tint(), tint());
        let prog = Expr::parse("(lambda (+ $0 1))", &prims).unwrap();
        let mut f = Frontier::new(t.clone());
        f.insert(
            FrontierEntry {
                log_prior: g0.log_prior(&t, &prog),
                log_likelihood: 0.0,
                expr: prog.clone(),
            },
            5,
        );
        let g1 = fit_grammar(&lib, &[f], 1.0);
        // `+` was used; `cons` was not: the fitted grammar should prefer
        // the program more than the uniform grammar did.
        assert!(g1.log_prior(&t, &prog) > g0.log_prior(&t, &prog));
        let plus = lib.position(&Expr::parse("+", &prims).unwrap()).unwrap();
        let cons = lib.position(&Expr::parse("cons", &prims).unwrap()).unwrap();
        assert!(g1.weights.log_productions[plus] > g1.weights.log_productions[cons]);
    }

    #[test]
    fn empty_frontiers_give_uniformish_grammar() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = fit_grammar(&lib, &[], 1.0);
        // All weights equal (log(1)) = 0.
        assert!(g.weights.log_productions.iter().all(|w| w.abs() < 1e-12));
    }
}
