//! # dc-tasks
//!
//! Synthesis tasks and the eight DreamCoder evaluation domains (§5 of the
//! paper), together with every simulator substrate they require: a LOGO
//! turtle rasterizer, a block-tower stage, a probabilistic regex
//! interpreter, continuous-parameter fitting for symbolic regression, the
//! 60-law physics dataset, and the 1959-Lisp origami corpus.
//!
//! # Adding a domain
//!
//! A domain is its primitives, its tasks and its simulator; the shell
//! around them lives in [`domain`]. Build a [`Corpus`] once in the
//! domain's constructor (name, primitives, train and test tasks, the
//! request types to dream at; `domain::held_out_split` makes the usual
//! even/odd split), store it, and implement [`Domain`]'s two required
//! methods: `corpus` returns it, and `dream` turns a sampled program into
//! a task (`domain::dream_io` does this for I/O domains). Featurize to
//! [`FEATURE_DIM`] values, and add the constructor to [`domains::ALL`] so
//! that the CLI and the cross-domain tests see it.
//!
//! # Example
//!
//! ```
//! use dc_tasks::domain::Domain;
//! use dc_tasks::domains::list::ListDomain;
//!
//! let domain = ListDomain::new(0);
//! assert!(domain.train_tasks().len() >= 40);
//! let prims = domain.primitives();
//! let program = dc_lambda::Expr::parse(
//!     "(lambda (map (lambda (+ $0 1)) $0))", prims).unwrap();
//! let task = domain.train_tasks().iter().find(|t| t.name == "add1 to each").unwrap();
//! assert!(task.check(&program));
//! ```

#![warn(missing_docs)]

pub mod domain;
pub mod domains;
pub mod task;

pub use domain::{Corpus, Domain, FEATURE_DIM};
pub use task::{io_features, Example, IoOracle, Task, TaskOracle};
