//! Saving and loading recognition-model weights.
//!
//! A [`SavedRecognitionModel`] captures everything mutable about a
//! [`crate::RecognitionModel`] — MLP weights, Adam moments, the output
//! parameterization, and the prior bias — but *not* the library, which is
//! persisted separately (as a `SavedGrammar`) and supplied again at load
//! time. Loading validates that the supplied library agrees with the
//! saved head dimensions, so a checkpoint cannot silently pair weights
//! with the wrong production set.

use dc_grammar::library::WeightVector;
use serde::{Deserialize, Serialize};

use crate::mlp::Mlp;
use crate::model::{Objective, Parameterization};

/// Serialized form of a [`crate::RecognitionModel`] minus its library.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedRecognitionModel {
    /// Output head parameterization.
    pub parameterization: Parameterization,
    /// Training objective.
    pub objective: Objective,
    /// Maximum production arity the bigram head was sized for.
    pub max_arity: usize,
    /// The network itself: weights, biases, and optimizer moments.
    pub mlp: Mlp,
    /// Installed prior bias (the generative weights `θ` the network
    /// predicts a residual on top of), if any.
    pub prior_bias: Option<WeightVector>,
}

/// Error restoring a recognition model against a library.
#[derive(Debug)]
pub enum ModelLoadError {
    /// The library's maximum arity disagrees with the saved head layout.
    ArityMismatch {
        /// Arity the head was saved with.
        saved: usize,
        /// Arity implied by the supplied library.
        library: usize,
    },
    /// The saved output layer is the wrong size for the library.
    HeadMismatch {
        /// Output dimension of the saved network.
        saved: usize,
        /// Output dimension the library requires.
        expected: usize,
    },
    /// The saved prior bias is the wrong length for the library.
    BiasMismatch {
        /// Length of the saved bias.
        saved: usize,
        /// Productions in the supplied library.
        expected: usize,
    },
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelLoadError::ArityMismatch { saved, library } => write!(
                f,
                "saved recognition head sized for max arity {saved}, library has {library}"
            ),
            ModelLoadError::HeadMismatch { saved, expected } => write!(
                f,
                "saved recognition head has {saved} outputs, library requires {expected}"
            ),
            ModelLoadError::BiasMismatch { saved, expected } => write!(
                f,
                "saved prior bias covers {saved} productions, library has {expected}"
            ),
        }
    }
}

impl std::error::Error for ModelLoadError {}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dc_grammar::library::Library;
    use dc_lambda::expr::Expr;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::tint;
    use rand::SeedableRng;

    use crate::model::{RecognitionModel, TrainingExample};
    use crate::{Objective, Parameterization};

    use super::*;

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
    fn model_round_trips_bit_for_bit() {
        let lib = tiny_library();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut model = RecognitionModel::new(
            Arc::clone(&lib),
            2,
            8,
            Parameterization::Bigram,
            Objective::Map,
            0.01,
            &mut rng,
        );
        model.set_prior_bias(Some(WeightVector {
            log_variable: -0.25,
            log_productions: vec![0.1; lib.len()],
        }));
        // Train a little so Adam moments are non-trivial.
        let ex = example("(+ 1 1)", vec![1.0, 0.0]);
        for _ in 0..5 {
            model.train_step(&ex);
        }

        let json = serde_json::to_string(&model.to_saved()).unwrap();
        let back: SavedRecognitionModel = serde_json::from_str(&json).unwrap();
        let mut loaded = RecognitionModel::from_saved(back, Arc::clone(&lib)).unwrap();

        // Identical predictions and — because Adam moments survive —
        // identical continued-training trajectories.
        let prims = base_primitives();
        let probe = Expr::parse("(+ 1 0)", &prims).unwrap();
        let a = model.predict(&[0.3, 0.7]).log_prior(&tint(), &probe);
        let b = loaded.predict(&[0.3, 0.7]).log_prior(&tint(), &probe);
        assert_eq!(a.to_bits(), b.to_bits(), "predictions must be bit-equal");
        for _ in 0..3 {
            let l1 = model.train_step(&ex);
            let l2 = loaded.train_step(&ex);
            assert_eq!(l1.to_bits(), l2.to_bits(), "training must stay in lockstep");
        }
    }

    #[test]
    fn load_rejects_mismatched_library() {
        let lib = tiny_library();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let model = RecognitionModel::new(
            Arc::clone(&lib),
            2,
            4,
            Parameterization::Bigram,
            Objective::Map,
            0.01,
            &mut rng,
        );
        let saved = model.to_saved();
        // A bigger library than the head was sized for must be rejected.
        let prims = base_primitives();
        let big = Arc::new(Library::from_primitives(prims.iter().cloned()));
        assert!(RecognitionModel::from_saved(saved, big).is_err());
    }
}
