//! Building recognition-model training data from replays (§4), one of
//! dream sleep's two self-supervised data sources; dream sleep builds
//! the other, fantasies, itself.

use dc_grammar::frontier::Frontier;

use crate::model::{Objective, TrainingExample};

/// Turn a solved task's frontier into a *replay* training example.
///
/// Under [`Objective::Map`] only the maximum-a-posteriori member is
/// trained on (weight 1); under [`Objective::Posterior`] every beam member
/// contributes with its normalized posterior weight. Returns `None` for
/// empty frontiers.
pub fn replay_example(
    features: Vec<f64>,
    frontier: &Frontier,
    objective: Objective,
) -> Option<TrainingExample> {
    if frontier.is_empty() {
        return None;
    }
    let programs = match objective {
        Objective::Map => {
            let best = frontier.best()?;
            vec![(best.expr.clone(), 1.0)]
        }
        Objective::Posterior => frontier
            .entries
            .iter()
            .zip(frontier.posterior_weights())
            .map(|(e, w)| (e.expr.clone(), w))
            .collect(),
    };
    Some(TrainingExample {
        features,
        request: frontier.request.clone(),
        programs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::frontier::FrontierEntry;
    use dc_lambda::expr::Expr;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::tint;

    fn frontier() -> Frontier {
        let prims = base_primitives();
        let mut f = Frontier::new(tint());
        f.insert(
            FrontierEntry {
                expr: Expr::parse("(+ 1 1)", &prims).unwrap(),
                log_likelihood: 0.0,
                log_prior: -1.0,
            },
            5,
        );
        f.insert(
            FrontierEntry {
                expr: Expr::parse("(+ 1 (+ 1 0))", &prims).unwrap(),
                log_likelihood: 0.0,
                log_prior: -4.0,
            },
            5,
        );
        f
    }

    #[test]
    fn map_replay_uses_only_the_best() {
        let ex = replay_example(vec![0.0], &frontier(), Objective::Map).unwrap();
        assert_eq!(ex.programs.len(), 1);
        assert_eq!(ex.programs[0].1, 1.0);
        assert_eq!(ex.programs[0].0.to_string(), "(+ 1 1)");
    }

    #[test]
    fn posterior_replay_weights_the_whole_beam() {
        let ex = replay_example(vec![0.0], &frontier(), Objective::Posterior).unwrap();
        assert_eq!(ex.programs.len(), 2);
        let total: f64 = ex.programs.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(ex.programs[0].1 > ex.programs[1].1);
    }

    #[test]
    fn empty_frontier_gives_no_example() {
        let f = Frontier::new(tint());
        assert!(replay_example(vec![0.0], &f, Objective::Map).is_none());
    }
}
