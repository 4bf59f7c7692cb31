//! # dc-recognition
//!
//! The neural recognition model `Q(ρ|x)` of DreamCoder's dream-sleep phase
//! (§4 of the paper), implemented as a pure-Rust MLP (the paper used
//! PyTorch; see DESIGN.md for the substitution rationale).
//!
//! The model maps a task feature vector to the bigram transition tensor
//! `Q_ijk` — indexed by parent production, argument slot, and child — and
//! is trained under either the `L_MAP` or `L_post` objective with either a
//! bigram or unigram output head, the four regimes compared in Fig 6.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dc_grammar::Library;
//! use dc_lambda::primitives::base_primitives;
//! use dc_recognition::{Objective, Parameterization, RecognitionModel};
//! use rand::SeedableRng;
//!
//! let prims = base_primitives();
//! let library = Arc::new(Library::from_primitives(prims.iter().cloned()));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let model = RecognitionModel::new(
//!     library, 8, 16, Parameterization::Bigram, Objective::Map, 0.01, &mut rng,
//! );
//! let guide = model.predict(&[0.0; 8]); // a ContextualGrammar for search
//! assert_eq!(guide.library.len(), model.library().len());
//! ```

#![warn(missing_docs)]

pub mod dream;
pub mod mlp;
pub mod model;
pub mod persist;
pub mod tensor;

pub use dream::replay_example;
pub use mlp::{ForwardTrace, Mlp};
pub use model::{Objective, Parameterization, RecognitionModel, TrainingExample};
pub use persist::{ModelLoadError, SavedRecognitionModel};
pub use tensor::{Adam, Matrix};
