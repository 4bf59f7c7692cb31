//! The wake phase (§2.4): search for programs with high posterior
//! `P[ρ|x] ∝ P[x|ρ] P[ρ|D,θ]` for each task in the minibatch, guided
//! either by the generative grammar or by the recognition model's
//! predicted bigram tensor. Tasks search in parallel (the paper's
//! multi-CPU wake; see DESIGN.md).

use std::time::Instant;

use dc_grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dc_grammar::frontier::{Frontier, FrontierEntry};
use dc_grammar::grammar::{ContextualGrammar, Grammar, ProgramPrior};
use dc_tasks::task::Task;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// What guides the search for one task.
#[derive(Debug, Clone)]
pub enum Guide {
    /// Search in decreasing prior under the generative grammar.
    Generative(Grammar),
    /// Search under a task-conditioned bigram tensor `Q(·|x)`.
    Recognition(ContextualGrammar),
}

impl Guide {
    fn prior(&self) -> &dyn ProgramPrior {
        match self {
            Guide::Generative(g) => g,
            Guide::Recognition(c) => c,
        }
    }
}

/// Why one task's search ended the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchOutcome {
    /// At least one program hit the task's examples.
    Solved,
    /// The nats budget ran out with no hit.
    BudgetExhausted,
    /// The wall-clock deadline fired with no hit.
    Timeout,
    /// The task's evaluator panicked; the search was abandoned.
    EvalPanic,
}

impl SearchOutcome {
    /// Short display label (`solved`, `budget`, `timeout`, `panic`).
    pub fn label(&self) -> &'static str {
        match self {
            SearchOutcome::Solved => "solved",
            SearchOutcome::BudgetExhausted => "budget",
            SearchOutcome::Timeout => "timeout",
            SearchOutcome::EvalPanic => "panic",
        }
    }
}

/// Per-task, per-cycle search forensics: enough to explain *why* a task
/// was or wasn't solved without re-running the cycle. Recorded by every
/// wake search and surfaced in the per-cycle report JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Task name.
    pub task: String,
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Nats frontier completed: every program cheaper than this bound
    /// (under the guiding prior) was enumerated.
    pub nats_frontier: f64,
    /// Candidate programs enumerated.
    pub programs_enumerated: usize,
    /// Candidates actually run against the task's examples.
    pub programs_evaluated: usize,
    /// Candidate heads rejected by unification before enumeration.
    pub typed_out: u64,
    /// Best `log P[ρ|D,θ] + log P[x|ρ]` in the final beam, if any.
    pub best_log_posterior: Option<f64>,
    /// Syntactic depth of the best hit, if any.
    pub hit_depth: Option<usize>,
    /// Seconds until the first hit, if any (`None` under
    /// `deterministic_timing`, where wall-clock may not reach results).
    pub solve_time: Option<f64>,
}

impl SearchTrace {
    fn evaluator_panic(task: &Task) -> SearchTrace {
        SearchTrace {
            task: task.name.clone(),
            outcome: SearchOutcome::EvalPanic,
            nats_frontier: 0.0,
            programs_enumerated: 0,
            programs_evaluated: 0,
            typed_out: 0,
            best_log_posterior: None,
            hit_depth: None,
            solve_time: None,
        }
    }
}

/// Result of searching one task.
#[derive(Debug, Clone)]
pub struct TaskSearchResult {
    /// The beam of solutions found (possibly empty).
    pub frontier: Frontier,
    /// Search forensics for this task, including the seconds until the
    /// first solution (Appendix Fig 20) and the programs enumerated.
    pub trace: SearchTrace,
}

/// Search one task: enumerate programs under `guide`, score hits under the
/// generative `scorer` (frontier priors are always `log P[ρ|D,θ]`, per the
/// beam objective of Eq. 3).
pub fn search_task(
    task: &Task,
    guide: &Guide,
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> TaskSearchResult {
    let mut frontier = Frontier::new(task.request.clone());
    let mut solve_time = None;
    let started = Instant::now();
    let mut evaluated = 0usize;
    let stats = enumerate_programs_stats(guide.prior(), &task.request, config, &mut |expr, _ll| {
        evaluated += 1;
        let log_likelihood = task.oracle.log_likelihood(&expr);
        if log_likelihood.is_finite() {
            if solve_time.is_none() {
                solve_time = Some(started.elapsed().as_secs_f64());
            }
            let log_prior = scorer.log_prior(&task.request, &expr);
            frontier.insert(
                FrontierEntry {
                    expr,
                    log_likelihood,
                    log_prior,
                },
                beam_size,
            );
        }
        true
    });
    let best = frontier.best();
    let outcome = if best.is_some() {
        SearchOutcome::Solved
    } else if stats.timed_out {
        SearchOutcome::Timeout
    } else {
        SearchOutcome::BudgetExhausted
    };
    let trace = SearchTrace {
        task: task.name.clone(),
        outcome,
        nats_frontier: stats.frontier_nats,
        programs_enumerated: stats.programs,
        programs_evaluated: evaluated,
        typed_out: stats.typed_out,
        best_log_posterior: best.map(|e| e.log_posterior()),
        hit_depth: best.map(|e| e.expr.depth()),
        solve_time,
    };
    TaskSearchResult { frontier, trace }
}

/// Best-effort human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// [`search_task`] with per-task panic isolation: a panicking evaluator
/// (a poisoned oracle, an arithmetic edge case deep in a domain) yields
/// an **empty frontier** plus a telemetry event instead of unwinding
/// through the cycle and killing the whole run.
pub fn search_task_guarded(
    task: &Task,
    guide: &Guide,
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> TaskSearchResult {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        search_task(task, guide, scorer, beam_size, config)
    }));
    match attempt {
        Ok(result) => result,
        Err(payload) => {
            let message = panic_message(&*payload);
            dc_telemetry::incr("wake.task_panics");
            dc_telemetry::event(
                dc_telemetry::Level::Warn,
                "wake.task_panic",
                &[
                    ("task", task.name.as_str().into()),
                    ("message", message.into()),
                ],
            );
            TaskSearchResult {
                frontier: Frontier::new(task.request.clone()),
                trace: SearchTrace::evaluator_panic(task),
            }
        }
    }
}

/// Search a batch of tasks in parallel. Each task is panic-isolated via
/// [`search_task_guarded`], so one poisoned evaluator costs its own
/// frontier, not the cycle.
pub fn wake(
    tasks: &[&Task],
    guides: &[Guide],
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> Vec<TaskSearchResult> {
    assert_eq!(tasks.len(), guides.len(), "one guide per task");
    // Worker threads start with empty span stacks; carry the caller's
    // innermost span in by handle so per-task spans nest under the phase.
    let parent = dc_telemetry::current_span();
    (0..tasks.len())
        .into_par_iter()
        .map(|idx| {
            let _span = dc_telemetry::span_under_with_fields(
                parent,
                "wake.search",
                &[("task", idx.into())],
            );
            search_task_guarded(tasks[idx], &guides[idx], scorer, beam_size, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::library::Library;
    use dc_lambda::eval::Value;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist, Type};
    use dc_tasks::task::{Example, Task};
    use std::sync::Arc;
    use std::time::Duration;

    fn setup() -> Grammar {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        Grammar::uniform(lib)
    }

    fn list(vals: &[i64]) -> Value {
        Value::list(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn quick(timeout_ms: u64) -> EnumerationConfig {
        EnumerationConfig {
            timeout: Some(Duration::from_millis(timeout_ms)),
            ..EnumerationConfig::default()
        }
    }

    #[test]
    fn wake_solves_an_easy_task() {
        let g = setup();
        let task = Task::io(
            "head",
            Type::arrow(tlist(tint()), tint()),
            vec![
                Example {
                    inputs: vec![list(&[3, 1])],
                    output: Value::Int(3),
                },
                Example {
                    inputs: vec![list(&[7, 2, 2])],
                    output: Value::Int(7),
                },
            ],
            vec![],
        );
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 5, &quick(2000));
        assert!(!result.frontier.is_empty(), "head should be found quickly");
        let best = result.frontier.best().unwrap();
        assert!(task.check(&best.expr));
        assert!(result.trace.solve_time.is_some());
        assert!(result.trace.programs_enumerated > 0);
    }

    #[test]
    fn beams_are_bounded_and_sorted() {
        let g = setup();
        // Trivial task solvable by many programs: identity on lists.
        let task = Task::io(
            "identity",
            Type::arrow(tlist(tint()), tlist(tint())),
            vec![Example {
                inputs: vec![list(&[1, 2])],
                output: list(&[1, 2]),
            }],
            vec![],
        );
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 3, &quick(1500));
        assert!(result.frontier.len() <= 3);
        let lp: Vec<f64> = result
            .frontier
            .entries
            .iter()
            .map(|e| e.log_posterior())
            .collect();
        assert!(lp.windows(2).all(|w| w[0] >= w[1]), "beam must be sorted");
    }

    #[test]
    fn unsolvable_tasks_return_empty_frontiers() {
        let g = setup();
        // Output type mismatch with any reasonable small program: ask for a
        // constant that isn't reachable within the budget window.
        let task = Task::io(
            "impossible",
            Type::arrow(tlist(tint()), tint()),
            vec![
                Example {
                    inputs: vec![list(&[1])],
                    output: Value::Int(7919),
                },
                Example {
                    inputs: vec![list(&[2])],
                    output: Value::Int(104729),
                },
            ],
            vec![],
        );
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 5, &quick(300));
        assert!(result.frontier.is_empty());
        assert!(result.trace.solve_time.is_none());
    }

    #[test]
    fn a_panicking_oracle_degrades_to_an_empty_frontier() {
        use dc_lambda::expr::Expr;
        use dc_tasks::task::TaskOracle;

        struct PoisonedOracle;
        impl TaskOracle for PoisonedOracle {
            fn log_likelihood(&self, _program: &Expr) -> f64 {
                panic!("injected evaluator panic");
            }
        }

        let g = setup();
        let healthy = Task::io(
            "healthy",
            Type::arrow(tlist(tint()), tint()),
            vec![Example {
                inputs: vec![list(&[5, 1])],
                output: Value::Int(5),
            }],
            vec![],
        );
        let poisoned = Task {
            name: "poisoned".into(),
            request: Type::arrow(tlist(tint()), tint()),
            oracle: Arc::new(PoisonedOracle),
            features: vec![],
            examples: vec![],
        };
        // Quiet the default per-panic stderr backtrace for this test.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let tasks = [&healthy, &poisoned];
        let guides = vec![Guide::Generative(g.clone()), Guide::Generative(g.clone())];
        let results = wake(&tasks, &guides, &g, 5, &quick(2000));
        std::panic::set_hook(prev_hook);
        assert_eq!(results.len(), 2);
        assert!(
            !results[0].frontier.is_empty(),
            "healthy task must still be solved"
        );
        assert!(results[1].frontier.is_empty(), "poisoned task yields empty");
        assert!(results[1].trace.solve_time.is_none());
    }

    #[test]
    fn trace_typed_out_counts_only_the_search() {
        // Every hit is re-scored with `log_prior`, which offers candidate
        // heads again; those re-scoring rejections must not reach the
        // trace, which reports what the enumeration itself pruned.
        use dc_tasks::domain::Domain;
        use dc_tasks::domains::list::ListDomain;

        let domain = ListDomain::new(0);
        let g = Grammar::uniform(domain.initial_library());
        let guide = Guide::Generative(g.clone());
        let config = EnumerationConfig {
            max_budget: 9.0,
            timeout: None,
        };
        let mut solved = 0;
        for task in domain.train_tasks() {
            let result = search_task(task, &guide, &g, 5, &config);
            let bare = enumerate_programs_stats(&g, &task.request, &config, &mut |_, _| true);
            assert_eq!(result.trace.typed_out, bare.typed_out, "task {}", task.name);
            solved += usize::from(!result.frontier.is_empty());
        }
        assert!(solved > 0, "some list tasks are solved at 9 nats");
    }

    #[test]
    fn parallel_wake_matches_sequential() {
        let g = setup();
        let task = Task::io(
            "length",
            Type::arrow(tlist(tint()), tint()),
            vec![
                Example {
                    inputs: vec![list(&[3, 1, 4])],
                    output: Value::Int(3),
                },
                Example {
                    inputs: vec![list(&[])],
                    output: Value::Int(0),
                },
            ],
            vec![],
        );
        let tasks = [&task, &task];
        let guides = vec![Guide::Generative(g.clone()), Guide::Generative(g.clone())];
        let results = wake(&tasks, &guides, &g, 5, &quick(2000));
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(!r.frontier.is_empty());
        }
    }
}
