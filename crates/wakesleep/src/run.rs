//! The full wake/sleep driver (§2.1): iterate waking, abstraction sleep,
//! and dream sleep over a domain, under any of the experimental
//! conditions of Fig 7, recording the metrics the paper plots.

use std::collections::BTreeMap;
use std::sync::Arc;

use dc_grammar::enumeration::EnumerationConfig;
use dc_grammar::frontier::Frontier;
use dc_grammar::grammar::Grammar;
use dc_grammar::library::LibraryItem;
use dc_recognition::RecognitionModel;
use dc_tasks::domain::Domain;
use dc_tasks::task::Task;
use dc_vspace::joint_score;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use crate::checkpoint::{self, Checkpoint, CheckpointError, TaskFrontier};
use crate::config::{Condition, DreamCoderConfig};
use crate::sleep::{abstraction_sleep, dream_sleep};
use crate::wake::{wake, Guide, SearchTrace, TaskSearchResult};
use dc_grammar::persist::{load_frontier, load_grammar, save_frontier, save_grammar};
use serde::Deserialize;

/// Beam size `|B_x|`: the programs kept per task (the paper's 5).
const BEAM_SIZE: usize = 5;

/// Adam learning rate of the recognition model.
const LEARNING_RATE: f64 = 0.01;

/// Per-cycle metrics (the data behind Fig 7A–D).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CycleStats {
    /// Wake/sleep cycle index (0-based).
    pub cycle: usize,
    /// Distinct training tasks solved so far (cumulative).
    pub train_solved: usize,
    /// Fraction of held-out test tasks solved this cycle.
    pub test_solved: f64,
    /// Library size (number of productions).
    pub library_size: usize,
    /// Library depth (layers of inventions-calling-inventions).
    pub library_depth: usize,
    /// Inventions added this cycle.
    pub new_inventions: Vec<String>,
    /// Per-task search forensics for this cycle's wake minibatch.
    /// Adding this field
    /// changed the checkpoint shape — see `CHECKPOINT_VERSION` v2.
    pub search_traces: Vec<SearchTrace>,
}

/// Summary of a complete run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// The condition's display label.
    pub condition: String,
    /// Domain name.
    pub domain: String,
    /// Metrics per cycle.
    pub cycles: Vec<CycleStats>,
    /// Names of all learned inventions, in discovery order.
    pub library: Vec<String>,
    /// Final held-out accuracy.
    pub final_test_solved: f64,
}

/// A DreamCoder learning run over one domain.
pub struct DreamCoder<'d> {
    domain: &'d dyn Domain,
    config: DreamCoderConfig,
    /// Current generative model `(D, θ)`.
    pub grammar: Grammar,
    /// Current recognition model, if the condition uses one.
    pub recognition: Option<RecognitionModel>,
    /// Best frontiers per train-task index.
    pub frontiers: BTreeMap<usize, Frontier>,
    rng: rand_chacha::ChaCha8Rng,
    /// Metrics for cycles completed so far (preloaded on resume); `run`
    /// starts at cycle `stats.len()`.
    stats: Vec<CycleStats>,
}

impl<'d> DreamCoder<'d> {
    /// Set up a run on `domain`.
    pub fn new(domain: &'d dyn Domain, config: DreamCoderConfig) -> DreamCoder<'d> {
        let library = domain.initial_library();
        let grammar = Grammar::uniform(Arc::clone(&library));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.seed);
        let recognition = config.condition.recognition_head().map(|(param, _)| {
            RecognitionModel::new(
                library,
                domain.feature_dim(),
                config.recognition.hidden_dim,
                param,
                LEARNING_RATE,
                &mut rng,
            )
        });
        DreamCoder {
            domain,
            config,
            grammar,
            recognition,
            frontiers: BTreeMap::new(),
            rng,
            stats: Vec::new(),
        }
    }

    /// Restore a run mid-trajectory from a [`Checkpoint`]: the grammar,
    /// stored frontiers, recognition weights, RNG state, and accumulated
    /// metrics all pick up exactly where the checkpointed run left off.
    /// `run` then continues at cycle `checkpoint.cycles_completed()`.
    ///
    /// The recognition head comes from the condition and, once a cycle
    /// has completed, the prior bias from the grammar: the run installs θ
    /// before every dream, and θ does not change between a dream and the
    /// cycle's checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the checkpoint was taken under
    /// a different domain, condition, or seed, lacks the network the
    /// condition trains, or references a train task the domain no longer
    /// has; [`CheckpointError::Grammar`] when stored programs fail to
    /// reload against the domain's primitive set;
    /// [`CheckpointError::Recognition`] when the network's shapes do not
    /// fit the domain's features, the library or the condition's head.
    pub fn resume(
        domain: &'d dyn Domain,
        config: DreamCoderConfig,
        ckpt: &Checkpoint,
    ) -> Result<DreamCoder<'d>, CheckpointError> {
        if ckpt.version != checkpoint::CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: ckpt.version,
            });
        }
        if ckpt.domain != domain.name() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for domain {:?}, resuming {:?}",
                ckpt.domain,
                domain.name()
            )));
        }
        if ckpt.condition != config.condition.label() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for condition {:?}, resuming {:?}",
                ckpt.condition,
                config.condition.label()
            )));
        }
        if ckpt.seed != config.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has seed {}, config has {}",
                ckpt.seed, config.seed
            )));
        }
        let grammar =
            load_grammar(&ckpt.grammar, domain.primitives()).map_err(CheckpointError::Grammar)?;
        let train = domain.train_tasks();
        let mut frontiers = BTreeMap::new();
        for tf in &ckpt.frontiers {
            let Some(task) = train.get(tf.task) else {
                return Err(CheckpointError::Mismatch(format!(
                    "checkpoint frontier references train task {} but the domain has {}",
                    tf.task,
                    train.len()
                )));
            };
            let frontier = load_frontier(&tf.frontier, task.request.clone(), domain.primitives())
                .map_err(CheckpointError::Grammar)?;
            frontiers.insert(tf.task, frontier);
        }
        let recognition = match config.condition.recognition_head() {
            Some((parameterization, _)) => {
                let mlp = ckpt.recognition.clone().ok_or_else(|| {
                    CheckpointError::Mismatch(
                        "condition uses a recognition model but the checkpoint stores none".into(),
                    )
                })?;
                let mut model = RecognitionModel::from_mlp(
                    mlp,
                    Arc::clone(&grammar.library),
                    parameterization,
                    domain.feature_dim(),
                )
                .map_err(CheckpointError::Recognition)?;
                if !ckpt.stats.is_empty() {
                    model.set_prior_bias(Some(grammar.weights.clone()));
                }
                Some(model)
            }
            None => None,
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.seed);
        rng.set_word_pos(u128::from(ckpt.rng_word_pos));
        dc_telemetry::incr("checkpoint.resumes");
        dc_telemetry::event(
            dc_telemetry::Level::Info,
            "checkpoint.resumed",
            &[
                ("domain", ckpt.domain.as_str().into()),
                ("cycles_completed", ckpt.cycles_completed().into()),
                ("frontiers", ckpt.frontiers.len().into()),
            ],
        );
        Ok(DreamCoder {
            domain,
            config,
            grammar,
            recognition,
            frontiers,
            rng,
            stats: ckpt.stats.clone(),
        })
    }

    /// Snapshot the run's full mutable state after the cycles completed
    /// so far (see DESIGN.md §8 for the format contract).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: checkpoint::CHECKPOINT_VERSION,
            domain: self.domain.name().to_owned(),
            condition: self.config.condition.label().to_owned(),
            seed: self.config.seed,
            grammar: save_grammar(&self.grammar),
            frontiers: self
                .frontiers
                .iter()
                .map(|(&task, f)| TaskFrontier {
                    task,
                    frontier: save_frontier(f),
                })
                .collect(),
            recognition: self.recognition.as_ref().map(|m| m.mlp().clone()),
            // A run cannot draw 2^64 words.
            rng_word_pos: self.rng.get_word_pos() as u64,
            stats: self.stats.clone(),
        }
    }

    /// Search `tasks` with [`wake`] under `config`, each guided by the
    /// recognition model's prediction for it when the condition has a
    /// model, by the generative grammar otherwise.
    fn search(&self, tasks: &[&Task], config: &EnumerationConfig) -> Vec<TaskSearchResult> {
        // `predict` decodes a full bigram tensor per task — parallelize it
        // like the search itself. `rayon::map` keeps task order, so the
        // guides (and everything downstream) are thread-count-invariant.
        let guides: Vec<Guide> = {
            let _span = dc_telemetry::span("wake.predict");
            rayon::map(tasks, |task| match &self.recognition {
                Some(model) => Guide::Recognition(model.predict(&task.features)),
                None => Guide::Generative(self.grammar.clone()),
            })
        };
        wake(tasks, &guides, &self.grammar, BEAM_SIZE, config)
    }

    /// One wake phase over a random minibatch; merges new solutions into
    /// the stored frontiers. Returns the minibatch outcome.
    fn wake_cycle(&mut self) -> Vec<(usize, TaskSearchResult)> {
        let train = self.domain.train_tasks();
        let mut indices: Vec<usize> = (0..train.len()).collect();
        indices.shuffle(&mut self.rng);
        indices.truncate(self.config.minibatch.max(1));
        let tasks: Vec<&Task> = indices.iter().map(|&i| &train[i]).collect();
        let results = self.search(&tasks, &self.config.enumeration);
        let paired: Vec<(usize, TaskSearchResult)> = indices.into_iter().zip(results).collect();
        for (i, result) in &paired {
            if result.frontier.is_empty() {
                continue;
            }
            let slot = self
                .frontiers
                .entry(*i)
                .or_insert_with(|| Frontier::new(result.frontier.request.clone()));
            for entry in &result.frontier.entries {
                slot.insert(entry.clone(), BEAM_SIZE);
            }
        }
        paired
    }

    /// One abstraction sleep over all stored frontiers.
    fn abstraction_cycle(&mut self) -> Vec<String> {
        if self.frontiers.is_empty() {
            return Vec::new();
        }
        let fronts: Vec<Frontier> = self
            .frontiers
            .values()
            .map(|f| {
                let mut f = f.clone();
                f.entries.truncate(self.config.compression_beam.max(1));
                f
            })
            .collect();
        let Some(result) = abstraction_sleep(
            &self.grammar.library,
            &fronts,
            &self.config.compression,
            self.config.condition,
        ) else {
            return Vec::new();
        };
        for (slot, f) in self.frontiers.values_mut().zip(result.frontiers) {
            *slot = f;
        }
        self.grammar = result.grammar;
        let new: Vec<String> = result
            .steps
            .iter()
            .map(|s| s.invention.name.clone())
            .collect();
        // The library changed: rebuild the recognition model's output head
        // over the new production set, keeping the learned hidden layers.
        // Dream sleep, which follows, installs the new θ as its bias.
        if let Some(old) = self.recognition.take() {
            self.recognition =
                Some(old.rebuild_for_library(Arc::clone(&self.grammar.library), &mut self.rng));
        }
        new
    }

    /// Re-fit θ to the stored beams (the θ update is free) and rescore
    /// them, so beam order, replay targets and checkpoints agree with it.
    /// The fit sums in frontier order, which is task-index order.
    fn refit_cycle(&mut self) {
        if self.frontiers.is_empty() {
            return;
        }
        let mut fronts: Vec<Frontier> = self.frontiers.values().cloned().collect();
        let (grammar, _) =
            joint_score(&self.grammar.library, &mut fronts, &self.config.compression);
        self.grammar = grammar;
        for (slot, f) in self.frontiers.values_mut().zip(fronts) {
            *slot = f;
        }
    }

    /// One dream sleep, when the run has a recognition model. The network
    /// predicts a residual on top of the current θ, which it takes as its
    /// prior bias first (see `RecognitionModel`).
    fn dream_cycle(&mut self) {
        let (Some(model), Some((_, objective))) = (
            self.recognition.as_mut(),
            self.config.condition.recognition_head(),
        ) else {
            return;
        };
        dc_telemetry::set_status("phase", "dream");
        let _dream = dc_telemetry::span("cycle.dream");
        model.set_prior_bias(Some(self.grammar.weights.clone()));
        let train = self.domain.train_tasks();
        // NeuralOnly (RobustFill-style) trains on samples from the *initial*
        // library: its grammar never changes, so this is the same call.
        // Replay order feeds SGD directly; the store iterates by task index.
        let solved: Vec<(&Task, &Frontier)> = self
            .frontiers
            .iter()
            .map(|(&i, f)| (&train[i], f))
            .collect();
        dream_sleep(
            model,
            self.domain,
            &self.grammar,
            &solved,
            objective,
            &self.config.recognition,
            &mut self.rng,
        );
    }

    /// Evaluate on held-out test tasks, through the same search as the
    /// wake phase; returns the fraction solved.
    fn evaluate(&self, tasks: &[Task], config: &EnumerationConfig) -> f64 {
        if tasks.is_empty() {
            return 0.0;
        }
        let tasks: Vec<&Task> = tasks.iter().collect();
        let results = self.search(&tasks, config);
        let solved = results.iter().filter(|r| !r.frontier.is_empty()).count();
        solved as f64 / tasks.len() as f64
    }

    /// Run the full wake/sleep loop, returning per-cycle metrics. After a
    /// [`DreamCoder::resume`], picks up at the first uncompleted cycle and
    /// the returned summary covers the whole trajectory, restored cycles
    /// included.
    pub fn run(&mut self) -> RunSummary {
        for cycle in self.stats.len()..self.config.cycles {
            // A requested interrupt (first Ctrl-C) is honored at cycle
            // granularity: the last completed cycle's checkpoint is the
            // resume point, so stopping between cycles loses nothing.
            if dc_telemetry::interrupt_requested() {
                dc_telemetry::event(
                    dc_telemetry::Level::Warn,
                    "run.interrupted",
                    &[("before_cycle", cycle.into())],
                );
                dc_telemetry::set_status("phase", "interrupted");
                break;
            }
            dc_telemetry::set_status("cycle", cycle);
            let cycle_timer = dc_telemetry::span("cycle.total");
            let search_traces;
            {
                dc_telemetry::set_status("phase", "wake");
                let _wake = dc_telemetry::span("cycle.wake");
                let results = self.wake_cycle();
                search_traces = results.iter().map(|(_, r)| r.trace.clone()).collect();
            }
            let mut new_inventions = Vec::new();
            {
                dc_telemetry::set_status("phase", "compression");
                let _compression = dc_telemetry::span("cycle.compression");
                match self.config.condition {
                    Condition::Full
                    | Condition::NoRecognition
                    | Condition::Memorize { .. }
                    | Condition::Ec
                    | Condition::Ec2 => new_inventions = self.abstraction_cycle(),
                    Condition::NoCompression => self.refit_cycle(),
                    Condition::EnumerationOnly | Condition::NeuralOnly => {}
                }
            }
            self.dream_cycle();
            dc_telemetry::set_status("phase", "eval");
            let eval_timer = dc_telemetry::span("cycle.eval");
            let test_solved =
                self.evaluate(self.domain.test_tasks(), &self.config.test_enumeration);
            drop(eval_timer);
            let stats = CycleStats {
                cycle,
                train_solved: self.frontiers.len(),
                test_solved,
                library_size: self.grammar.library.len(),
                library_depth: self.grammar.library.depth(),
                new_inventions,
                search_traces,
            };
            dc_telemetry::incr("cycle.count");
            dc_telemetry::set_gauge("library.size", stats.library_size as f64);
            dc_telemetry::set_gauge("library.depth", stats.library_depth as f64);
            dc_telemetry::set_gauge("train.solved", stats.train_solved as f64);
            dc_telemetry::set_gauge("test.solved_fraction", stats.test_solved);
            dc_telemetry::set_status("cycles_completed", cycle + 1);
            dc_telemetry::event(
                dc_telemetry::Level::Info,
                "cycle.complete",
                &[
                    ("cycle", cycle.into()),
                    (
                        "total_ms",
                        (cycle_timer.elapsed().as_millis() as u64).into(),
                    ),
                    ("train_solved", stats.train_solved.into()),
                    ("test_solved", stats.test_solved.into()),
                    ("library_size", stats.library_size.into()),
                    ("new_inventions", stats.new_inventions.len().into()),
                ],
            );
            drop(cycle_timer);
            self.stats.push(stats);
            if let Some(dir) = self.config.checkpoint_dir.clone() {
                let ckpt = self.checkpoint();
                match ckpt.write_atomic(&dir) {
                    Ok(_) => {
                        dc_telemetry::set_status(
                            "last_checkpoint_unix_ms",
                            dc_telemetry::unix_time_ms(),
                        );
                        if let Err(err) =
                            checkpoint::prune_checkpoints(&dir, self.config.checkpoint_keep)
                        {
                            dc_telemetry::event(
                                dc_telemetry::Level::Warn,
                                "checkpoint.prune_failed",
                                &[("error", err.to_string().into())],
                            );
                        }
                    }
                    // A failed checkpoint write must not kill the run: the
                    // in-memory state is intact, only crash-resumability at
                    // this cycle is lost.
                    Err(err) => dc_telemetry::event(
                        dc_telemetry::Level::Warn,
                        "checkpoint.write_failed",
                        &[("cycle", cycle.into()), ("error", err.to_string().into())],
                    ),
                }
            }
        }
        let final_test_solved = self.stats.last().map_or(0.0, |c| c.test_solved);
        if !dc_telemetry::interrupt_requested() {
            dc_telemetry::set_status("phase", "done");
        }
        RunSummary {
            condition: self.config.condition.label().to_owned(),
            domain: self.domain.name().to_owned(),
            cycles: self.stats.clone(),
            library: self
                .grammar
                .library
                .inventions()
                .map(LibraryItem::name)
                .collect(),
            final_test_solved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::library::WeightVector;
    use dc_tasks::domains::list::ListDomain;

    fn quick_config(condition: Condition) -> DreamCoderConfig {
        DreamCoderConfig {
            condition,
            cycles: 2,
            minibatch: 6,
            enumeration: EnumerationConfig {
                max_budget: 10.5,
                ..EnumerationConfig::default()
            },
            test_enumeration: EnumerationConfig {
                max_budget: 10.5,
                ..EnumerationConfig::default()
            },
            compression: dc_vspace::CompressionConfig {
                refactor_steps: 1,
                top_candidates: 20,
                max_inventions: 2,
                ..dc_vspace::CompressionConfig::default()
            },
            recognition: crate::config::RecognitionConfig {
                fantasies: 5,
                epochs: 3,
                ..crate::config::RecognitionConfig::default()
            },
            seed: 1,
            ..DreamCoderConfig::default()
        }
    }

    #[test]
    fn full_run_makes_progress_on_lists() {
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::new(&domain, quick_config(Condition::Full));
        let summary = dc.run();
        assert_eq!(summary.cycles.len(), 2);
        assert!(
            summary.cycles.last().unwrap().train_solved > 0,
            "should solve some easy training tasks"
        );
        assert!(summary.cycles.last().unwrap().test_solved > 0.0);
    }

    #[test]
    fn the_condition_picks_the_recognition_head() {
        use dc_recognition::{Objective, Parameterization};
        let domain = ListDomain::new(0);
        let head = |condition: Condition| {
            let dc = DreamCoder::new(&domain, quick_config(condition));
            let head = condition.recognition_head();
            assert_eq!(
                dc.recognition.map(|m| m.parameterization()),
                head.map(|(param, _)| param),
                "{condition:?}"
            );
            head
        };
        assert_eq!(
            head(Condition::Ec2),
            Some((Parameterization::Unigram, Objective::Posterior))
        );
        for condition in [
            Condition::Full,
            Condition::NoCompression,
            Condition::Memorize {
                with_recognition: true,
            },
            Condition::NeuralOnly,
        ] {
            assert_eq!(
                head(condition),
                Some((Parameterization::Bigram, Objective::Map)),
                "{condition:?}"
            );
        }
        for condition in [
            Condition::NoRecognition,
            Condition::Memorize {
                with_recognition: false,
            },
            Condition::Ec,
            Condition::EnumerationOnly,
        ] {
            assert_eq!(head(condition), None, "{condition:?}");
        }
    }

    #[test]
    fn memorize_grows_library_without_depth() {
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::new(
            &domain,
            quick_config(Condition::Memorize {
                with_recognition: false,
            }),
        );
        let summary = dc.run();
        let last = summary.cycles.last().unwrap();
        if last.train_solved > 0 {
            assert!(last.library_size > domain.initial_library().len());
            assert!(last.library_depth <= 1, "memorized routines never nest");
        }
    }

    /// Small nats budgets and few fantasies, for a quick seeded run.
    fn deterministic_config(condition: Condition, cycles: usize, seed: u64) -> DreamCoderConfig {
        DreamCoderConfig {
            condition,
            cycles,
            minibatch: 5,
            enumeration: EnumerationConfig {
                max_budget: 8.0,
                ..EnumerationConfig::default()
            },
            test_enumeration: EnumerationConfig {
                max_budget: 6.5,
                ..EnumerationConfig::default()
            },
            compression: dc_vspace::CompressionConfig {
                refactor_steps: 1,
                top_candidates: 10,
                max_inventions: 1,
                ..dc_vspace::CompressionConfig::default()
            },
            recognition: crate::config::RecognitionConfig {
                fantasies: 3,
                epochs: 2,
                hidden_dim: 8,
                ..crate::config::RecognitionConfig::default()
            },
            seed,
            ..DreamCoderConfig::default()
        }
    }

    #[test]
    fn seeded_full_runs_are_byte_identical() {
        // Regression test for the HashMap-iteration nondeterminism bugs:
        // two runs with the same seed must produce the same summary JSON.
        let run_once = || {
            let domain = ListDomain::new(0);
            let mut dc = DreamCoder::new(&domain, deterministic_config(Condition::Full, 2, 7));
            serde_json::to_string(&dc.run()).expect("summary serializes")
        };
        assert_eq!(run_once(), run_once(), "seeded runs diverged");
    }

    #[test]
    fn library_free_conditions_keep_the_initial_library_and_only_no_library_refits_theta() {
        let domain = ListDomain::new(0);
        let names = |library: &dc_grammar::library::Library| -> Vec<String> {
            library.items.iter().map(LibraryItem::name).collect()
        };
        let initial = names(&domain.initial_library());
        for condition in [
            Condition::NoCompression,
            Condition::EnumerationOnly,
            Condition::NeuralOnly,
        ] {
            let mut dc = DreamCoder::new(&domain, quick_config(condition));
            let summary = dc.run();
            assert_eq!(names(&dc.grammar.library), initial, "{condition:?}");
            assert!(summary.library.is_empty(), "{condition:?}");
            assert!(
                summary
                    .cycles
                    .iter()
                    .all(|c| c.library_size == initial.len()),
                "{condition:?}"
            );
            assert!(
                !dc.frontiers.is_empty(),
                "{condition:?} should solve some tasks"
            );
            // No Library refits θ to its frontiers; Enumeration and Neural
            // synthesis keep the initial, uniform θ.
            assert_eq!(
                dc.grammar.weights == WeightVector::uniform(initial.len()),
                condition != Condition::NoCompression,
                "{condition:?}: {:?}",
                dc.grammar.weights
            );
            // Regression test: the θ refit used to leave the stored beams
            // scored under the stale θ.
            for frontier in dc.frontiers.values() {
                for entry in &frontier.entries {
                    let expected = dc.grammar.log_prior(&frontier.request, &entry.expr);
                    assert!(
                        (entry.log_prior - expected).abs() < 1e-9,
                        "{condition:?}: stored prior {} disagrees with the grammar's {}",
                        entry.log_prior,
                        expected
                    );
                }
            }
        }
    }
}
