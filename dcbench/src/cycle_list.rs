//! `cycle_list`: [`DreamCoder::run`] on `list` under the full condition,
//! seeded, with deterministic timing and nats budgets for wake, test and
//! MAP-fantasy search: the configuration of the CI dream-determinism job
//! (seed 19, two cycles, minibatch 5, 11/8/6.5 nats), through the library
//! API.
//!
//! This is what users run. Search is guided by the recognition model's
//! bigram grammar, dreams are sampled, compression scores candidates, and
//! the recognition model trains.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dc_grammar::enumeration::EnumerationConfig;
use dc_recognition::RecognitionModel;
use dc_tasks::domains::list::ListDomain;
use dc_tasks::task::Task;
use dc_tasks::Domain;
use dc_wakesleep::{Condition, DreamCoder, DreamCoderConfig, RecognitionConfig};

use crate::probes::Telemetry;
use crate::{Fingerprint, Layers, Pass, Workload};

/// The prepared `cycle_list` workload.
pub struct CycleList {
    domain: ListDomain,
    config: DreamCoderConfig,
    /// The recognition model the last pass ended with, for the predict
    /// probe.
    model: RefCell<Option<RecognitionModel>>,
}

/// Seed of the list domain and of the run: the CI job's, fixed so the
/// work and the fingerprint do not depend on the benchmark's `--seed`.
const SEED: u64 = 19;

/// Rounds of the predict probe over every task.
const PREDICT_ROUNDS: usize = 50;

fn nats(max_budget: f64) -> EnumerationConfig {
    EnumerationConfig {
        max_budget,
        timeout: None,
        ..EnumerationConfig::default()
    }
}

impl CycleList {
    /// Build the domain and the run configuration.
    pub(crate) fn new() -> CycleList {
        CycleList {
            domain: ListDomain::new(SEED),
            config: DreamCoderConfig {
                condition: Condition::Full,
                cycles: 2,
                minibatch: 5,
                enumeration: nats(11.0),
                test_enumeration: nats(8.0),
                recognition: RecognitionConfig {
                    map_fantasies: true,
                    map_fantasy_budget: Some(6.5),
                    ..RecognitionConfig::default()
                },
                seed: SEED,
                deterministic_timing: true,
                ..DreamCoderConfig::default()
            },
            model: RefCell::new(None),
        }
    }

    fn all_tasks(&self) -> impl Iterator<Item = &Task> {
        self.domain
            .train_tasks()
            .iter()
            .chain(self.domain.test_tasks())
    }

    /// Mean microseconds per `RecognitionModel::predict` over every task,
    /// with the model the last pass trained.
    fn predict_probe(&self) -> f64 {
        let model = self.model.borrow();
        let Some(model) = model.as_ref() else {
            return 0.0;
        };
        let mut calls = 0u32;
        let started = Instant::now();
        for _ in 0..PREDICT_ROUNDS {
            for task in self.all_tasks() {
                std::hint::black_box(model.predict(&task.features));
                calls += 1;
            }
        }
        started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
    }
}

impl Workload for CycleList {
    fn pass(&self, _traced: bool) -> (Duration, Pass) {
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut dc = DreamCoder::new(&self.domain, self.config.clone());
            let summary = dc.run();
            (dc, summary)
        }));
        let wall = started.elapsed();

        let cycles = self.config.cycles as u64;
        let mut pass = Pass {
            attempted: cycles,
            ..Pass::default()
        };
        let Ok((dc, summary)) = run else {
            eprintln!("dcbench: cycle_list run panicked");
            pass.failed = cycles;
            return (wall, pass);
        };
        let mut fp = Fingerprint::default();
        let mut ok = summary.cycles.len() == self.config.cycles;
        for cycle in &summary.cycles {
            fp.u64(cycle.train_solved as u64);
            fp.f64(cycle.test_solved);
            fp.u64(cycle.library_size as u64);
            fp.u64(cycle.library_depth as u64);
            for name in &cycle.new_inventions {
                fp.str(name);
            }
            for trace in &cycle.search_traces {
                fp.str(&trace.task);
                fp.str(trace.outcome.label());
                fp.f64(trace.nats_frontier);
                fp.u64(trace.programs_enumerated as u64);
                fp.f64(trace.best_log_posterior.unwrap_or(f64::NAN));
                pass.programs += trace.programs_enumerated as u64;
            }
        }
        for name in &summary.library {
            fp.str(name);
        }
        let train = self.domain.train_tasks();
        let mut solved: Vec<usize> = dc.frontiers.keys().copied().collect();
        solved.sort_unstable();
        for &i in &solved {
            let (task, frontier) = (&train[i], &dc.frontiers[&i]);
            fp.u64(i as u64);
            for entry in &frontier.entries {
                fp.str(&entry.expr.to_string());
                fp.f64(entry.log_prior);
                fp.f64(entry.log_likelihood);
                let prior = dc.grammar.log_prior(&task.request, &entry.expr);
                ok &= task.check(&entry.expr) && prior.to_bits() == entry.log_prior.to_bits();
            }
            if let Some(best) = frontier.best() {
                pass.description_nats -= best.log_posterior();
            }
        }
        // What dream sleep learned: the bigram grammar the trained model
        // predicts for every task.
        if let Some(model) = &dc.recognition {
            for task in self.all_tasks() {
                for weights in &model.predict(&task.features).table {
                    fp.f64(weights.log_variable);
                    for &w in &weights.log_productions {
                        fp.f64(w);
                    }
                }
            }
        }
        let test_solved = summary.final_test_solved * self.domain.test_tasks().len() as f64;
        pass.tasks_solved = solved.len() as u64 + test_solved.round() as u64;
        pass.library_size = dc.grammar.library.len() as u64;
        pass.inventions = summary.library.len() as u64;
        if !ok {
            pass.failed = 1;
            eprintln!("dcbench: cycle_list check failed");
        }
        pass.fingerprint = fp.value();
        *self.model.borrow_mut() = dc.recognition;
        (wall, pass)
    }

    fn layers(&self, _traced: &Telemetry, _passes: f64) -> Layers {
        Layers {
            values: BTreeMap::from([("recognition.predict_us", self.predict_probe())]),
            program_stream: None,
        }
    }
}
