//! The recognition model `Q(ρ|x)` (§4): a neural network mapping task
//! features to a bigram transition tensor `Q_ijk` over the current library,
//! trained to perform MAP inference (`L_MAP`) or full posterior inference
//! (`L_post`), with either a bigram or a unigram output parameterization.
//!
//! The network runs **once per task**; enumeration then consumes the
//! predicted tensor exactly like a [`ContextualGrammar`], so neurally
//! guided search is not slowed by per-node network calls — the design
//! point the paper emphasizes.

use std::sync::Arc;

use dc_grammar::grammar::{generation_trace, ContextualGrammar, GenEvent, Grammar};
use dc_grammar::library::{logsumexp, BigramParent, Library, WeightVector};
use dc_lambda::expr::Expr;
use dc_lambda::types::Type;
use rand::Rng;

use crate::mlp::Mlp;

/// How the output distribution is parameterized (§4, Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Parameterization {
    /// One weight per library routine, independent of context (as in EC2).
    Unigram,
    /// A full (parent × argument-index × child) transition tensor.
    Bigram,
}

/// Which training objective the model optimizes (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// `L_MAP`: predict only the maximum-a-posteriori program per task.
    Map,
    /// `L_post`: match the full (beam-approximated) posterior.
    Posterior,
}

/// One supervised pair for the recognition model: a task's features plus
/// the program(s) that should receive probability mass.
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// The task featurization.
    pub features: Vec<f64>,
    /// The task's request type.
    pub request: Type,
    /// Weighted target programs. `L_MAP` uses a single weight-1 program;
    /// `L_post` uses the beam with normalized posterior weights.
    pub programs: Vec<(Expr, f64)>,
}

/// The neural recognition model.
#[derive(Debug, Clone)]
pub struct RecognitionModel {
    library: Arc<Library>,
    parameterization: Parameterization,
    objective: Objective,
    max_arity: usize,
    mlp: Mlp,
    /// Optional prior bias: the network predicts a *residual* on top of
    /// these (typically the fitted generative weights `θ`), so an
    /// untrained network degrades gracefully to grammar-guided search
    /// instead of misleading it. No gradient flows into the bias.
    prior_bias: Option<WeightVector>,
}

/// The argument slots per parent and the output width of a head with
/// `parameterization` over `library`.
fn head_shape(parameterization: Parameterization, library: &Library) -> (usize, usize) {
    let n = library.len();
    let max_arity = library.max_arity().max(1);
    let out_dim = match parameterization {
        Parameterization::Unigram => n + 1,
        Parameterization::Bigram => BigramParent::row_count(n) * max_arity * (n + 1),
    };
    (max_arity, out_dim)
}

impl RecognitionModel {
    /// Build a model for `library` over `feature_dim`-dimensional task
    /// features with one tanh hidden layer of `hidden_dim` units.
    pub fn new<R: Rng + ?Sized>(
        library: Arc<Library>,
        feature_dim: usize,
        hidden_dim: usize,
        parameterization: Parameterization,
        objective: Objective,
        learning_rate: f64,
        rng: &mut R,
    ) -> RecognitionModel {
        let (max_arity, out_dim) = head_shape(parameterization, &library);
        let mlp = Mlp::new(&[feature_dim, hidden_dim, out_dim], learning_rate, rng);
        RecognitionModel {
            library,
            parameterization,
            objective,
            max_arity,
            mlp,
            prior_bias: None,
        }
    }

    /// Install (or clear) the prior bias added to every slot's logits.
    ///
    /// # Panics
    /// Panics when the bias length disagrees with the library size.
    pub fn set_prior_bias(&mut self, bias: Option<WeightVector>) {
        if let Some(b) = &bias {
            assert_eq!(b.log_productions.len(), self.library.len());
        }
        self.prior_bias = bias;
    }

    fn bias_for(&self, production: Option<usize>) -> f64 {
        match (&self.prior_bias, production) {
            (Some(b), Some(j)) => b.log_productions[j],
            (Some(b), None) => b.log_variable,
            (None, _) => 0.0,
        }
    }

    /// The library this model predicts over.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// Rebuild the model for a grown library: hidden layers (the learned
    /// task featurization) are kept; the output head is re-initialized at
    /// the new library's size.
    pub fn rebuild_for_library<R: Rng + ?Sized>(
        &self,
        library: Arc<Library>,
        learning_rate: f64,
        rng: &mut R,
    ) -> RecognitionModel {
        let (max_arity, out_dim) = head_shape(self.parameterization, &library);
        RecognitionModel {
            library,
            parameterization: self.parameterization,
            objective: self.objective,
            max_arity,
            mlp: self.mlp.with_resized_output(out_dim, learning_rate, rng),
            prior_bias: None,
        }
    }

    /// Snapshot the model's mutable state (weights, moments, bias) for
    /// persistence. The library is saved separately — see
    /// [`crate::persist`] for the contract.
    pub fn to_saved(&self) -> crate::persist::SavedRecognitionModel {
        crate::persist::SavedRecognitionModel {
            parameterization: self.parameterization,
            objective: self.objective,
            max_arity: self.max_arity,
            mlp: self.mlp.clone(),
            prior_bias: self.prior_bias.clone(),
        }
    }

    /// Restore a model from its saved state against `library`.
    ///
    /// # Errors
    /// [`crate::persist::ModelLoadError`] when the library's size or
    /// arity disagrees with the dimensions the head was saved with.
    pub fn from_saved(
        saved: crate::persist::SavedRecognitionModel,
        library: Arc<Library>,
    ) -> Result<RecognitionModel, crate::persist::ModelLoadError> {
        use crate::persist::ModelLoadError;
        let n = library.len();
        let (library_arity, expected) = head_shape(saved.parameterization, &library);
        if saved.max_arity != library_arity {
            return Err(ModelLoadError::ArityMismatch {
                saved: saved.max_arity,
                library: library_arity,
            });
        }
        if saved.mlp.output_dim() != expected {
            return Err(ModelLoadError::HeadMismatch {
                saved: saved.mlp.output_dim(),
                expected,
            });
        }
        if let Some(b) = &saved.prior_bias {
            if b.log_productions.len() != n {
                return Err(ModelLoadError::BiasMismatch {
                    saved: b.log_productions.len(),
                    expected: n,
                });
            }
        }
        Ok(RecognitionModel {
            library,
            parameterization: saved.parameterization,
            objective: saved.objective,
            max_arity: saved.max_arity,
            mlp: saved.mlp,
            prior_bias: saved.prior_bias,
        })
    }

    /// The training objective in force.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The output parameterization in force.
    pub fn parameterization(&self) -> Parameterization {
        self.parameterization
    }

    fn slot_base(&self, parent: BigramParent, arg: usize) -> usize {
        let n = self.library.len();
        match self.parameterization {
            Parameterization::Unigram => 0,
            Parameterization::Bigram => {
                let row = parent.row(n);
                (row * self.max_arity + arg.min(self.max_arity - 1)) * (n + 1)
            }
        }
    }

    /// Run the network once and decode the logits into a contextual
    /// grammar for enumeration. This is `Q(·|x)` as a search distribution.
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the configured dimension.
    pub fn predict(&self, features: &[f64]) -> ContextualGrammar {
        let logits = self.mlp.forward(features).output().to_vec();
        let n = self.library.len();
        let mut cg = ContextualGrammar::uniform(Arc::clone(&self.library));
        let rows = BigramParent::row_count(n);
        for row in 0..rows {
            let parent = if row == n {
                BigramParent::Start
            } else if row == n + 1 {
                BigramParent::Var
            } else {
                BigramParent::Prod(row)
            };
            for arg in 0..self.max_arity.min(cg.max_arity) {
                let base = self.slot_base(parent, arg);
                let wv = cg.weights_mut(parent, arg);
                wv.log_productions.copy_from_slice(&logits[base..base + n]);
                wv.log_variable = logits[base + n];
                if let Some(bias) = &self.prior_bias {
                    for (w, b) in wv.log_productions.iter_mut().zip(&bias.log_productions) {
                        *w += b;
                    }
                    wv.log_variable += bias.log_variable;
                }
            }
        }
        cg
    }

    /// One stochastic training step on a single example; returns the loss.
    ///
    /// The loss is the negative log-probability the predicted tensor
    /// assigns to the target program(s), with the normalizer computed over
    /// the *type-feasible* candidates at each generation choice point —
    /// exactly the probability enumeration would assign.
    pub fn train_step(&mut self, example: &TrainingExample) -> f64 {
        // One-shot path: trace against a throwaway uniform grammar. The
        // epoch loop in [`RecognitionModel::train`] hoists both the grammar
        // and the traces out of the hot path instead.
        let scorer = Grammar::uniform(Arc::clone(&self.library));
        let traces = prepare_traces(&scorer, example);
        self.train_step_traced(&example.features, &traces)
    }

    /// The SGD inner step over precomputed generation traces. The trace
    /// events (type-feasibility per choice point) are weight-independent,
    /// so callers compute them once per example and replay them every
    /// epoch; only the logits and gradients here change between steps.
    fn train_step_traced(&mut self, features: &[f64], traces: &[(f64, Vec<GenEvent>)]) -> f64 {
        let trace = self.mlp.forward(features);
        let n = self.library.len();
        let mut grad = vec![0.0; trace.output().len()];
        let mut loss = 0.0;
        let mut terms: Vec<f64> = Vec::new();
        for (weight, events) in traces {
            let weight = *weight;
            let logits = trace.output();
            for ev in events {
                let base = self.slot_base(ev.parent, ev.arg);
                let var_logit = logits[base + n] + self.bias_for(None);
                terms.clear();
                terms.extend(
                    ev.feasible_prods
                        .iter()
                        .map(|&j| logits[base + j] + self.bias_for(Some(j))),
                );
                if ev.feasible_vars > 0 {
                    terms.push(var_logit + (ev.feasible_vars as f64).ln());
                }
                let z = logsumexp(&terms);
                let chosen_logit = match ev.chosen {
                    Some(j) => logits[base + j] + self.bias_for(Some(j)),
                    None => var_logit,
                };
                loss += weight * (z - chosen_logit);
                for &j in &ev.feasible_prods {
                    let p = (logits[base + j] + self.bias_for(Some(j)) - z).exp();
                    grad[base + j] += weight * p;
                }
                if ev.feasible_vars > 0 {
                    let p_var = (var_logit + (ev.feasible_vars as f64).ln() - z).exp();
                    grad[base + n] += weight * p_var;
                }
                match ev.chosen {
                    Some(j) => grad[base + j] -= weight,
                    None => grad[base + n] -= weight,
                }
            }
        }
        self.mlp.backward(&trace, &grad);
        loss
    }

    /// Train over the examples for `epochs` passes (order shuffled by the
    /// provided RNG); returns the mean loss of the final epoch.
    ///
    /// The weight-independent generation traces are computed once per
    /// example (in parallel, order-preserving) and replayed across epochs;
    /// the SGD steps themselves stay strictly sequential in shuffle order,
    /// so training is bit-for-bit identical at any thread count.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        examples: &[TrainingExample],
        epochs: usize,
        rng: &mut R,
    ) -> f64 {
        let mut last = 0.0;
        if examples.is_empty() {
            return last;
        }
        // Hoisted out of the epoch loop: one uniform grammar (the old code
        // rebuilt it on every step) and one trace per example (the old code
        // re-derived them `epochs` times).
        let scorer = Grammar::uniform(Arc::clone(&self.library));
        let prepared: Vec<Vec<(f64, Vec<GenEvent>)>> = {
            use rayon::prelude::*;
            examples
                .par_iter()
                .map(|ex| prepare_traces(&scorer, ex))
                .collect()
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for epoch in 0..epochs {
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            last = order
                .iter()
                .map(|&i| self.train_step_traced(&examples[i].features, &prepared[i]))
                .sum::<f64>()
                / examples.len() as f64;
            dc_telemetry::incr("recognition.epochs");
            dc_telemetry::event(
                dc_telemetry::Level::Debug,
                "recognition.epoch",
                &[
                    ("epoch", epoch.into()),
                    ("examples", examples.len().into()),
                    ("mean_loss", last.into()),
                ],
            );
        }
        dc_telemetry::add("recognition.examples_trained", examples.len() as u64);
        dc_telemetry::set_gauge("recognition.final_loss", last);
        last
    }
}

/// Compute the weight-independent generation traces for one example: the
/// feasible-candidate events of each target program, against a uniform
/// grammar over the model's library (feasibility depends only on types,
/// never on θ). Programs the grammar cannot generate contribute nothing.
fn prepare_traces(scorer: &Grammar, example: &TrainingExample) -> Vec<(f64, Vec<GenEvent>)> {
    example
        .programs
        .iter()
        .filter_map(|(expr, weight)| {
            generation_trace(scorer, &example.request, expr).map(|(_, events)| (*weight, events))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::grammar::ProgramPrior;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::tint;
    use rand::SeedableRng;

    fn tiny_library() -> Arc<Library> {
        let prims = base_primitives();
        Arc::new(Library::from_primitives(
            prims
                .iter()
                .filter(|p| ["+", "0", "1"].contains(&p.name.as_str()))
                .cloned(),
        ))
    }

    fn example(src: &str, features: Vec<f64>) -> TrainingExample {
        let prims = base_primitives();
        TrainingExample {
            features,
            request: tint(),
            programs: vec![(Expr::parse(src, &prims).unwrap(), 1.0)],
        }
    }

    #[test]
    fn predict_produces_usable_grammar() {
        let lib = tiny_library();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let model = RecognitionModel::new(
            lib,
            4,
            8,
            Parameterization::Bigram,
            Objective::Map,
            0.01,
            &mut rng,
        );
        let cg = model.predict(&[0.1, 0.2, 0.3, 0.4]);
        let prims = base_primitives();
        let e = Expr::parse("(+ 1 1)", &prims).unwrap();
        assert!(cg.log_prior(&tint(), &e).is_finite());
    }

    #[test]
    fn training_reduces_loss_and_shifts_mass() {
        let lib = tiny_library();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut model = RecognitionModel::new(
            Arc::clone(&lib),
            2,
            16,
            Parameterization::Bigram,
            Objective::Map,
            0.01,
            &mut rng,
        );
        // Feature [1,0] tasks are solved by (+ 1 1); [0,1] by 0.
        let examples = vec![
            example("(+ 1 1)", vec![1.0, 0.0]),
            example("0", vec![0.0, 1.0]),
        ];
        let first: f64 = examples
            .iter()
            .map(|e| {
                let mut m = model.clone();
                m.train_step(e)
            })
            .sum();
        let last = model.train(&examples, 300, &mut rng);
        assert!(last < first, "loss should fall: {first} -> {last}");
        // Conditioned on features, priors should now be task-appropriate.
        let prims = base_primitives();
        let plus = Expr::parse("(+ 1 1)", &prims).unwrap();
        let zero = Expr::parse("0", &prims).unwrap();
        let g_plus = model.predict(&[1.0, 0.0]);
        let g_zero = model.predict(&[0.0, 1.0]);
        assert!(g_plus.log_prior(&tint(), &plus) > g_zero.log_prior(&tint(), &plus));
        assert!(g_zero.log_prior(&tint(), &zero) > g_plus.log_prior(&tint(), &zero));
    }

    #[test]
    fn unigram_head_is_context_independent() {
        let lib = tiny_library();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let model = RecognitionModel::new(
            lib,
            3,
            8,
            Parameterization::Unigram,
            Objective::Map,
            0.01,
            &mut rng,
        );
        let cg = model.predict(&[0.5, 0.5, 0.5]);
        // Every slot carries identical weights.
        let w_start = cg.weights(BigramParent::Start, 0).clone();
        let w_prod = cg.weights(BigramParent::Prod(0), 1).clone();
        assert_eq!(w_start, w_prod);
    }

    #[test]
    fn posterior_examples_with_multiple_programs_train() {
        let lib = tiny_library();
        let prims = base_primitives();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut model = RecognitionModel::new(
            lib,
            2,
            8,
            Parameterization::Bigram,
            Objective::Posterior,
            0.01,
            &mut rng,
        );
        let ex = TrainingExample {
            features: vec![1.0, 0.0],
            request: tint(),
            programs: vec![
                (Expr::parse("(+ 1 0)", &prims).unwrap(), 0.7),
                (Expr::parse("(+ 0 1)", &prims).unwrap(), 0.3),
            ],
        };
        let l0 = model.train_step(&ex);
        for _ in 0..200 {
            model.train_step(&ex);
        }
        let l1 = model.train_step(&ex);
        assert!(l1 < l0);
    }
}
