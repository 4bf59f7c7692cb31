//! Configuration for a DreamCoder run.

use dc_grammar::enumeration::EnumerationConfig;
use dc_recognition::{Objective, Parameterization};
use dc_vspace::CompressionConfig;

/// Which components are enabled — the experimental conditions of Fig 7.
///
/// Each condition-dependent decision is one exhaustive `match`: the
/// recognition head in [`Condition::recognition_head`], what the sleep
/// phase learns in [`crate::DreamCoder::run`], and how the library grows in
/// [`crate::sleep::abstraction_sleep`]. A run dreams iff it has a
/// recognition model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Full DreamCoder: refactoring compression + bigram recognition.
    Full,
    /// Ablate the recognition model ("Abstraction only" / No Rec):
    /// refactoring compression alone.
    NoRecognition,
    /// Ablate library learning ("Dreaming only" / No Lib): the library
    /// stays the initial one, but θ is refit to the discovered programs
    /// each cycle and the bigram recognition model trains.
    NoCompression,
    /// Incorporate solutions wholesale instead of refactoring (Memorize).
    Memorize {
        /// Whether the recognition model still trains.
        with_recognition: bool,
    },
    /// EC-style compression: no refactoring (candidates only from surface
    /// subtrees, i.e. zero inverse-β steps), no recognition model.
    Ec,
    /// Minibatched EC2: subtree-based compression plus a *unigram*
    /// recognition model trained on the posterior objective.
    Ec2,
    /// Pure type-directed enumeration under the initial library with
    /// uniform θ: no learning at all.
    EnumerationOnly,
    /// RobustFill-style: train the recognition model on samples from the
    /// *initial* library with uniform θ; neither the library nor θ learns.
    NeuralOnly,
}

impl Condition {
    /// The recognition head this condition trains — output
    /// parameterization and training objective — or `None` when it
    /// trains no recognition model.
    pub fn recognition_head(&self) -> Option<(Parameterization, Objective)> {
        match self {
            Condition::Full
            | Condition::NoCompression
            | Condition::Memorize {
                with_recognition: true,
            }
            | Condition::NeuralOnly => Some((Parameterization::Bigram, Objective::Map)),
            Condition::Ec2 => Some((Parameterization::Unigram, Objective::Posterior)),
            Condition::NoRecognition
            | Condition::Memorize {
                with_recognition: false,
            }
            | Condition::Ec
            | Condition::EnumerationOnly => None,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Condition::Full => "DreamCoder",
            Condition::NoRecognition => "No Recognition",
            Condition::NoCompression => "No Library",
            Condition::Memorize {
                with_recognition: true,
            } => "Memorize + Rec",
            Condition::Memorize {
                with_recognition: false,
            } => "Memorize",
            Condition::Ec => "EC",
            Condition::Ec2 => "EC2 (batched)",
            Condition::EnumerationOnly => "Enumeration",
            Condition::NeuralOnly => "Neural synthesis",
        }
    }
}

/// Hyperparameters of the recognition model and dream sleep.
#[derive(Debug, Clone)]
pub struct RecognitionConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Training epochs per dream sleep.
    pub epochs: usize,
    /// Number of fantasy tasks to dream per cycle.
    pub fantasies: usize,
    /// Appendix Algorithm 3: instead of training on the sampled program
    /// itself (classic wake-sleep), enumerate briefly on each dreamed task
    /// and train on the maximum-a-posteriori program that solves it.
    pub map_fantasies: bool,
    /// Nats budget of each dream's MAP-fantasy search; `None` means
    /// [`crate::sleep::MAP_FANTASY_NATS`]. It is an `Option` only because
    /// `dcbench/` sets it as one.
    pub map_fantasy_budget: Option<f64>,
}

impl Default for RecognitionConfig {
    fn default() -> RecognitionConfig {
        RecognitionConfig {
            hidden_dim: 32,
            epochs: 30,
            fantasies: 40,
            map_fantasies: false,
            map_fantasy_budget: None,
        }
    }
}

/// Full configuration of a wake/sleep run.
#[derive(Debug, Clone)]
pub struct DreamCoderConfig {
    /// Experimental condition.
    pub condition: Condition,
    /// Number of wake/sleep cycles.
    pub cycles: usize,
    /// How many beam entries per task feed abstraction sleep (at most the
    /// paper's beam size `|B_x|` = 5; a single-CPU scaling knob — the
    /// paper compresses the full beams).
    pub compression_beam: usize,
    /// Tasks per wake minibatch (the paper's random minibatching; §2.4).
    pub minibatch: usize,
    /// Enumeration budget during waking, in nats.
    pub enumeration: EnumerationConfig,
    /// Enumeration budget when evaluating held-out tasks, in nats.
    pub test_enumeration: EnumerationConfig,
    /// Abstraction-sleep hyperparameters.
    pub compression: CompressionConfig,
    /// Dream-sleep hyperparameters.
    pub recognition: RecognitionConfig,
    /// RNG seed.
    pub seed: u64,
    /// Directory to write per-cycle checkpoints into (`None` disables
    /// checkpointing). See DESIGN.md §8.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// How many most-recent checkpoints to retain (older ones are pruned
    /// after each write; a value of 0 still keeps the newest).
    pub checkpoint_keep: usize,
    /// Has no effect: no result carries wall-clock time, so every seeded
    /// run is byte-reproducible (DESIGN.md §8). The field stays only
    /// because `dcbench/` sets it.
    pub deterministic_timing: bool,
}

impl Default for DreamCoderConfig {
    fn default() -> DreamCoderConfig {
        DreamCoderConfig {
            condition: Condition::Full,
            cycles: 5,
            compression_beam: 5,
            minibatch: 20,
            enumeration: EnumerationConfig {
                max_budget: 13.5,
                ..EnumerationConfig::default()
            },
            test_enumeration: EnumerationConfig {
                max_budget: 12.0,
                ..EnumerationConfig::default()
            },
            compression: CompressionConfig::default(),
            recognition: RecognitionConfig::default(),
            seed: 0,
            checkpoint_dir: None,
            checkpoint_keep: 3,
            deterministic_timing: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_budgets_are_nats_alone() {
        let config = DreamCoderConfig::default();
        for search in [&config.enumeration, &config.test_enumeration] {
            assert_eq!(search.timeout, None);
        }
        assert_eq!(config.enumeration.max_budget, 13.5);
        assert_eq!(config.test_enumeration.max_budget, 12.0);
        assert_eq!(config.recognition.map_fantasy_budget, None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Condition::Full.label(),
            Condition::NoRecognition.label(),
            Condition::NoCompression.label(),
            Condition::Memorize {
                with_recognition: true,
            }
            .label(),
            Condition::Memorize {
                with_recognition: false,
            }
            .label(),
            Condition::Ec.label(),
            Condition::Ec2.label(),
            Condition::EnumerationOnly.label(),
            Condition::NeuralOnly.label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
