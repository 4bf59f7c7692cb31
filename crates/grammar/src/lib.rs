//! # dc-grammar
//!
//! Probabilistic grammars over typed λ-terms for DreamCoder-rs: the
//! generative model `P[ρ | D, θ]` of the paper, together with
//!
//! * [`enumeration`] — best-first typed enumeration in decreasing prior
//!   order (the wake-phase search engine);
//! * [`sample`] — the generative direction, used for dreaming;
//! * [`grammar::ContextualGrammar`] — the bigram transition tensor `Q_ijk`
//!   of §4, also the output format of the recognition model;
//! * [`inside_outside`] — MAP re-estimation of `θ` from frontiers;
//! * [`etalong`] — η-long normalization so rewritten programs can be
//!   scored by the generative model.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dc_grammar::{Grammar, Library};
//! use dc_grammar::enumeration::{enumerate_top, EnumerationConfig};
//! use dc_lambda::primitives::base_primitives;
//! use dc_lambda::types::tint;
//!
//! let prims = base_primitives();
//! let library = Arc::new(Library::from_primitives(prims.iter().cloned()));
//! let grammar = Grammar::uniform(library);
//! let programs = enumerate_top(&grammar, &tint(), &EnumerationConfig::default(), 10);
//! assert_eq!(programs.len(), 10);
//! ```

#![warn(missing_docs)]

pub mod enumeration;
pub mod etalong;
pub mod frontier;
pub mod grammar;
pub mod inside_outside;
pub mod library;
pub mod persist;
pub mod sample;

pub use etalong::eta_long;
pub use frontier::{Frontier, FrontierEntry};
pub use grammar::{
    generation_trace, log_prior, ContextualGrammar, GenEvent, Grammar, ProgramPrior,
};
pub use inside_outside::{fit_contextual_grammar, fit_grammar, DEFAULT_PSEUDOCOUNT};
pub use library::{logsumexp, BigramParent, Library, LibraryItem, WeightVector};
pub use persist::{
    load_frontier, load_grammar, save_frontier, save_grammar, LoadError, SavedFrontier,
    SavedFrontierEntry, SavedGrammar,
};
pub use sample::{sample_program, sample_program_with_retries};
