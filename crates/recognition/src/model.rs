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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameterization {
    /// One weight per library routine, independent of context (as in EC2).
    Unigram,
    /// A full (parent × argument-index × child) transition tensor.
    Bigram,
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
    mlp: Mlp,
    /// Optional prior bias: the network predicts a *residual* on top of
    /// these (typically the fitted generative weights `θ`), so an
    /// untrained network degrades gracefully to grammar-guided search
    /// instead of misleading it. No gradient flows into the bias.
    prior_bias: Option<WeightVector>,
}

/// Error restoring a recognition model's network against a library.
#[derive(Debug)]
pub enum ModelLoadError {
    /// A stored tensor does not fit the network's shapes.
    Malformed(String),
    /// The network reads another number of features than the domain gives.
    InputMismatch {
        /// Input width of the saved network.
        saved: usize,
        /// The domain's feature width.
        expected: usize,
    },
    /// The saved output layer is the wrong size for the library and head.
    HeadMismatch {
        /// Output dimension of the saved network.
        saved: usize,
        /// Output dimension the library and head require.
        expected: usize,
    },
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelLoadError::Malformed(msg) => write!(f, "malformed network: {msg}"),
            ModelLoadError::InputMismatch { saved, expected } => write!(
                f,
                "saved network reads {saved} features, the domain gives {expected}"
            ),
            ModelLoadError::HeadMismatch { saved, expected } => write!(
                f,
                "saved recognition head has {saved} outputs, library requires {expected}"
            ),
        }
    }
}

impl std::error::Error for ModelLoadError {}

/// The output width of a head with `parameterization` over `library`:
/// `n + 1` logits (one per production, one for variables) per slot of
/// the bigram tensor, or for the one slot every context shares.
fn head_width(parameterization: Parameterization, library: &Library) -> usize {
    let n = library.len();
    match parameterization {
        Parameterization::Unigram => n + 1,
        Parameterization::Bigram => BigramParent::slot_count(library) * (n + 1),
    }
}

impl RecognitionModel {
    /// Build a model for `library` over `feature_dim`-dimensional task
    /// features with one tanh hidden layer of `hidden_dim` units.
    pub fn new<R: Rng + ?Sized>(
        library: Arc<Library>,
        feature_dim: usize,
        hidden_dim: usize,
        parameterization: Parameterization,
        learning_rate: f64,
        rng: &mut R,
    ) -> RecognitionModel {
        let out_dim = head_width(parameterization, &library);
        let mlp = Mlp::new(&[feature_dim, hidden_dim, out_dim], learning_rate, rng);
        RecognitionModel {
            library,
            parameterization,
            mlp,
            prior_bias: None,
        }
    }

    /// Restore a model over `library` from its network, as a checkpoint
    /// stores it. The head comes from `parameterization`; no prior bias is
    /// installed.
    ///
    /// # Errors
    /// [`ModelLoadError`] when a stored tensor does not fit the network's
    /// shapes, or the network's input is not `feature_dim` wide or its
    /// output is not the head's width over `library`.
    pub fn from_mlp(
        mlp: Mlp,
        library: Arc<Library>,
        parameterization: Parameterization,
        feature_dim: usize,
    ) -> Result<RecognitionModel, ModelLoadError> {
        mlp.check_shapes().map_err(ModelLoadError::Malformed)?;
        if mlp.input_dim() != feature_dim {
            return Err(ModelLoadError::InputMismatch {
                saved: mlp.input_dim(),
                expected: feature_dim,
            });
        }
        let expected = head_width(parameterization, &library);
        if mlp.output_dim() != expected {
            return Err(ModelLoadError::HeadMismatch {
                saved: mlp.output_dim(),
                expected,
            });
        }
        Ok(RecognitionModel {
            library,
            parameterization,
            mlp,
            prior_bias: None,
        })
    }

    /// The network: weights, biases and Adam moments, all a checkpoint
    /// stores of the model.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
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
    /// the new library's size, with no prior bias.
    pub fn rebuild_for_library<R: Rng + ?Sized>(
        &self,
        library: Arc<Library>,
        rng: &mut R,
    ) -> RecognitionModel {
        let out_dim = head_width(self.parameterization, &library);
        RecognitionModel {
            library,
            parameterization: self.parameterization,
            mlp: self.mlp.with_resized_output(out_dim, rng),
            prior_bias: None,
        }
    }

    /// The output parameterization in force.
    pub fn parameterization(&self) -> Parameterization {
        self.parameterization
    }

    /// Where the `n + 1` logits of bigram-tensor slot `slot` (see
    /// [`BigramParent::slot`]) start in the network's output.
    fn logit_offset(&self, slot: usize) -> usize {
        match self.parameterization {
            Parameterization::Unigram => 0,
            Parameterization::Bigram => slot * (self.library.len() + 1),
        }
    }

    /// Run the network once and decode the logits into a contextual
    /// grammar for enumeration. This is `Q(·|x)` as a search distribution.
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the configured dimension.
    pub fn predict(&self, features: &[f64]) -> ContextualGrammar {
        let trace = self.mlp.forward(features);
        let logits = trace.output();
        let n = self.library.len();
        let mut cg = ContextualGrammar::uniform(Arc::clone(&self.library));
        for (slot, wv) in cg.table.iter_mut().enumerate() {
            let base = self.logit_offset(slot);
            wv.log_productions.copy_from_slice(&logits[base..base + n]);
            wv.log_variable = logits[base + n];
            if let Some(bias) = &self.prior_bias {
                for (w, b) in wv.log_productions.iter_mut().zip(&bias.log_productions) {
                    *w += b;
                }
                wv.log_variable += bias.log_variable;
            }
        }
        cg
    }

    /// One SGD step over one example's precomputed generation traces;
    /// returns the loss: the negative log-probability the predicted
    /// tensor assigns to the target program(s), with the normalizer
    /// computed over the *type-feasible* candidates at each generation
    /// choice point — exactly the probability enumeration would assign.
    ///
    /// The trace events (type-feasibility per choice point) are
    /// weight-independent, so [`RecognitionModel::train`] computes them
    /// once per example and replays them every epoch; only the logits and
    /// gradients here change between steps.
    fn train_step_traced(&mut self, features: &[f64], traces: &[(f64, Vec<GenEvent>)]) -> f64 {
        let trace = self.mlp.forward(features);
        let n = self.library.len();
        let arg_slots = BigramParent::arg_slots(&self.library);
        let mut grad = vec![0.0; trace.output().len()];
        let mut loss = 0.0;
        let mut terms: Vec<f64> = Vec::new();
        for (weight, events) in traces {
            let weight = *weight;
            let logits = trace.output();
            for ev in events {
                let base = self.logit_offset(ev.parent.slot(ev.arg, n, arg_slots));
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
        let prepared: Vec<Vec<(f64, Vec<GenEvent>)>> =
            rayon::map(examples, |ex| prepare_traces(&scorer, ex));
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

    fn model(parameterization: Parameterization, features: usize, seed: u64) -> RecognitionModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        RecognitionModel::new(
            tiny_library(),
            features,
            8,
            parameterization,
            0.01,
            &mut rng,
        )
    }

    #[test]
    fn predict_produces_usable_grammar() {
        let cg = model(Parameterization::Bigram, 4, 0).predict(&[0.1, 0.2, 0.3, 0.4]);
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
            .map(|e| model.clone().train(std::slice::from_ref(e), 1, &mut rng))
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
        let cg = model(Parameterization::Unigram, 3, 2).predict(&[0.5, 0.5, 0.5]);
        // Every slot carries identical weights.
        let w_start = cg.weights(BigramParent::Start, 0).clone();
        let w_prod = cg.weights(BigramParent::Prod(0), 1).clone();
        assert_eq!(w_start, w_prod);
    }

    #[test]
    fn training_and_prediction_read_one_layout() {
        // The loss of one step is the negative log-prior the predicted
        // grammar gives the target; a slot read at different logits by
        // `train` and `predict` breaks the equality.
        let prims = base_primitives();
        let request = Type::arrow(tint(), tint());
        let program = Expr::parse("(lambda (+ (+ $0 1) (+ 0 $0)))", &prims).unwrap();
        let features = vec![0.3, -0.7];
        let ex = [TrainingExample {
            features: features.clone(),
            request: request.clone(),
            programs: vec![(program.clone(), 1.0)],
        }];
        for parameterization in [Parameterization::Bigram, Parameterization::Unigram] {
            let mut model = model(parameterization, 2, 4);
            let n = model.library().len();
            model.set_prior_bias(Some(WeightVector {
                log_variable: -0.4,
                log_productions: (0..n).map(|j| 0.3 * j as f64 - 0.2).collect(),
            }));
            let expected = -model.predict(&features).log_prior(&request, &program);
            assert!(expected.is_finite());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
            let loss = model.train(&ex, 1, &mut rng);
            assert!(
                (loss - expected).abs() < 1e-9,
                "{parameterization:?}: train {loss} vs predict {expected}"
            );
        }
    }

    #[test]
    fn posterior_examples_with_multiple_programs_train() {
        let prims = base_primitives();
        let mut model = model(Parameterization::Bigram, 2, 3);
        let ex = [TrainingExample {
            features: vec![1.0, 0.0],
            request: tint(),
            programs: vec![
                (Expr::parse("(+ 1 0)", &prims).unwrap(), 0.7),
                (Expr::parse("(+ 0 1)", &prims).unwrap(), 0.3),
            ],
        }];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let l0 = model.train(&ex, 1, &mut rng);
        let l1 = model.train(&ex, 201, &mut rng);
        assert!(l1 < l0);
    }

    #[test]
    fn model_round_trips_bit_for_bit() {
        let lib = tiny_library();
        let bias = WeightVector {
            log_variable: -0.25,
            log_productions: vec![0.1; lib.len()],
        };
        let mut model = model(Parameterization::Bigram, 2, 9);
        model.set_prior_bias(Some(bias.clone()));
        // Train a little so Adam moments are non-trivial.
        let ex = [example("(+ 1 1)", vec![1.0, 0.0])];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        model.train(&ex, 5, &mut rng);

        let json = serde_json::to_string(model.mlp()).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let mut loaded =
            RecognitionModel::from_mlp(back, Arc::clone(&lib), Parameterization::Bigram, 2)
                .unwrap();
        loaded.set_prior_bias(Some(bias));

        // Identical predictions and — because Adam moments survive —
        // identical continued-training trajectories.
        let prims = base_primitives();
        let probe = Expr::parse("(+ 1 0)", &prims).unwrap();
        let a = model.predict(&[0.3, 0.7]).log_prior(&tint(), &probe);
        let b = loaded.predict(&[0.3, 0.7]).log_prior(&tint(), &probe);
        assert_eq!(a.to_bits(), b.to_bits(), "predictions must be bit-equal");
        for _ in 0..3 {
            let l1 = model.train(&ex, 1, &mut rng);
            let l2 = loaded.train(&ex, 1, &mut rng);
            assert_eq!(l1.to_bits(), l2.to_bits(), "training must stay in lockstep");
        }
    }

    #[test]
    fn load_rejects_a_network_that_does_not_fit() {
        let lib = tiny_library();
        let mlp = model(Parameterization::Bigram, 2, 0).mlp().clone();
        let load = |library, parameterization, features| {
            RecognitionModel::from_mlp(mlp.clone(), library, parameterization, features)
        };
        assert!(load(Arc::clone(&lib), Parameterization::Bigram, 2).is_ok());
        // A bigger library than the head was sized for.
        let big = Arc::new(Library::from_primitives(base_primitives().iter().cloned()));
        assert!(matches!(
            load(big, Parameterization::Bigram, 2),
            Err(ModelLoadError::HeadMismatch { .. })
        ));
        // Another head over the same library.
        assert!(matches!(
            load(Arc::clone(&lib), Parameterization::Unigram, 2),
            Err(ModelLoadError::HeadMismatch { .. })
        ));
        // Another feature width.
        assert!(matches!(
            load(lib, Parameterization::Bigram, 3),
            Err(ModelLoadError::InputMismatch {
                saved: 2,
                expected: 3
            })
        ));
    }
}
