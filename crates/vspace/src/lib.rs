//! # dc-vspace
//!
//! Version spaces, inverse β-reduction, and library compression — the
//! "abstraction sleep" phase of DreamCoder (§3 of the paper) and its key
//! algorithmic novelty.
//!
//! * [`space::SpaceArena`] — hash-consed version spaces with `⊎`, `∅`, `Λ`
//!   (Definition 3.1), intersection, and the `↓` downshift;
//! * [`invert`] — the `S_k`, `Iβ′`, `Iβn`, and `Iβ` operators of Fig 5;
//! * [`extract`] — minimum-description-length extraction `extract(v | D)`;
//! * [`compress`](mod@compress) — candidate proposal and the Eq. 4 objective, greedily
//!   growing the library until the score stops improving.
//!
//! # Example: refactoring exposes shared structure
//!
//! ```
//! use dc_vspace::space::SpaceArena;
//! use dc_lambda::expr::Expr;
//! use dc_lambda::primitives::base_primitives;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prims = base_primitives();
//! let e = Expr::parse("(+ 1 1)", &prims)?;
//! let mut arena = SpaceArena::new();
//! let space = arena.refactor(&e, 1);
//! // The space contains the rewrite ((λ (+ $0 $0)) 1) — "double".
//! let double = Expr::parse("((lambda (+ $0 $0)) 1)", &prims)?;
//! assert!(arena.contains(space, &double));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compress;
pub mod extract;
pub mod invert;
pub mod space;

pub use compress::{compress, joint_score, CompressionConfig, CompressionResult, CompressionStep};
pub use extract::{CandidateExtractor, Extraction, ExtractionMemo, Matcher};
pub use space::{SpaceArena, SpaceId, SpaceNode};
