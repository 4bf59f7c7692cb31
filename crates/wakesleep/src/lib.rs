//! # dc-wakesleep
//!
//! The wake/sleep driver of DreamCoder-rs: minibatched wake-phase search
//! (§2.4), abstraction sleep (§3, via `dc-vspace`), dream sleep (§4, via
//! `dc-recognition`), the experimental conditions/baselines of Fig 7, and
//! the metrics the paper plots (solve rates, library depth/size, solve
//! times).
//!
//! # Example
//!
//! ```no_run
//! use dc_tasks::domains::list::ListDomain;
//! use dc_wakesleep::{Condition, DreamCoder, DreamCoderConfig};
//!
//! let domain = ListDomain::new(0);
//! let mut dc = DreamCoder::new(&domain, DreamCoderConfig::default());
//! let summary = dc.run();
//! println!("solved {:.0}% of held-out tasks", 100.0 * summary.final_test_solved);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod report;
pub mod run;
pub mod sleep;
pub mod wake;

pub use checkpoint::{
    latest_checkpoint, prune_checkpoints, Checkpoint, CheckpointError, CHECKPOINT_VERSION,
};
pub use config::{Condition, DreamCoderConfig, RecognitionConfig};
pub use report::{forensics_report, forensics_table};
pub use run::{CycleStats, DreamCoder, RunSummary};
pub use sleep::{abstraction_sleep, dream_sleep, generate_fantasies, DreamStats};
pub use wake::{search_task, wake, Guide, SearchOutcome, SearchTrace, TaskSearchResult};
