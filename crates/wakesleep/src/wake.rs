//! The wake phase (§2.4): search for programs with high posterior
//! `P[ρ|x] ∝ P[x|ρ] P[ρ|D,θ]` for each task in the minibatch, guided
//! either by the generative grammar or by the recognition model's
//! predicted bigram tensor. Tasks that share a generative grammar and a
//! request share one enumeration, as the paper's solver does; groups
//! search in parallel (the paper's multi-CPU wake; see DESIGN.md).

use dc_grammar::enumeration::{enumerate_programs_stats, EnumerationConfig, EnumerationStats};
use dc_grammar::frontier::{Frontier, FrontierEntry};
use dc_grammar::grammar::{ContextualGrammar, Grammar, ProgramPrior};
use dc_tasks::task::Task;
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
    /// The task's evaluator panicked; the search was abandoned.
    EvalPanic,
}

impl SearchOutcome {
    /// Short display label (`solved`, `budget`, `panic`).
    pub fn label(&self) -> &'static str {
        match self {
            SearchOutcome::Solved => "solved",
            SearchOutcome::BudgetExhausted => "budget",
            SearchOutcome::EvalPanic => "panic",
        }
    }
}

/// Per-task, per-cycle search forensics: enough to explain *why* a task
/// was or wasn't solved without re-running the cycle. Recorded by every
/// wake search and surfaced in the per-cycle report JSON.
///
/// Tasks in one search group (see [`wake`]) share one program stream:
/// `nats_frontier`, `programs_enumerated` and `typed_out` describe that
/// stream and are equal across the group. Every other field is the
/// task's own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Task name.
    pub task: String,
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Nats frontier completed: every program cheaper than this bound
    /// (under the guiding prior) was enumerated. Shared by the group.
    pub nats_frontier: f64,
    /// Candidate programs enumerated. Shared by the group.
    pub programs_enumerated: usize,
    /// Candidates actually run against this task's examples.
    pub programs_evaluated: usize,
    /// Candidate heads rejected by unification before enumeration.
    /// Shared by the group.
    pub typed_out: u64,
    /// Best `log P[ρ|D,θ] + log P[x|ρ]` in the final beam, if any.
    pub best_log_posterior: Option<f64>,
    /// Syntactic depth of the best hit, if any.
    pub hit_depth: Option<usize>,
    /// Programs enumerated up to and including the first hit, if any
    /// (Appendix Fig 20, counted in programs instead of seconds).
    pub programs_to_first_hit: Option<usize>,
    /// The first hit's description length `-log` prior under the guide,
    /// in nats, if any.
    pub first_hit_nats: Option<f64>,
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
            programs_to_first_hit: None,
            first_hit_nats: None,
        }
    }
}

/// Result of searching one task.
#[derive(Debug, Clone)]
pub struct TaskSearchResult {
    /// The beam of solutions found (possibly empty).
    pub frontier: Frontier,
    /// Search forensics for this task, including the programs enumerated
    /// before the first solution (Appendix Fig 20).
    pub trace: SearchTrace,
}

impl TaskSearchResult {
    /// The result of a search its evaluator panicked in: an empty beam.
    fn evaluator_panic(task: &Task) -> TaskSearchResult {
        TaskSearchResult {
            frontier: Frontier::new(task.request.clone()),
            trace: SearchTrace::evaluator_panic(task),
        }
    }
}

/// Search one task: [`wake`] on a group of one, without its span. A panic
/// in the task's oracle comes back as [`SearchOutcome::EvalPanic`].
pub fn search_task(
    task: &Task,
    guide: &Guide,
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> TaskSearchResult {
    let mut results = search_group(&[task], guide, scorer, beam_size, config);
    results.pop().expect("one result per task")
}

/// One task's side of a group search.
struct Member<'t> {
    task: &'t Task,
    frontier: Frontier,
    evaluated: usize,
    /// `(position in the stream, -log prior under the guide)` of the
    /// first hit.
    first_hit: Option<(usize, f64)>,
    panicked: bool,
}

impl Member<'_> {
    fn finish(self, stats: &EnumerationStats) -> TaskSearchResult {
        if self.panicked {
            return TaskSearchResult::evaluator_panic(self.task);
        }
        let best = self.frontier.best();
        let outcome = if best.is_some() {
            SearchOutcome::Solved
        } else {
            SearchOutcome::BudgetExhausted
        };
        let trace = SearchTrace {
            task: self.task.name.clone(),
            outcome,
            nats_frontier: stats.frontier_nats,
            programs_enumerated: stats.programs,
            programs_evaluated: self.evaluated,
            typed_out: stats.typed_out,
            best_log_posterior: best.map(|e| e.log_posterior()),
            hit_depth: best.map(|e| e.expr.depth()),
            programs_to_first_hit: self.first_hit.map(|(programs, _)| programs),
            first_hit_nats: self.first_hit.map(|(_, nats)| nats),
        };
        TaskSearchResult {
            frontier: self.frontier,
            trace,
        }
    }
}

/// Search `tasks`, which share `request` and `guide`, with one
/// enumeration under `guide`: every program is run against each task
/// still searching, and each hit is scored once under the generative
/// `scorer` (frontier priors are always `log P[ρ|D,θ]`, per the beam
/// objective of Eq. 3) into the beam of each task it hits.
///
/// A task whose oracle panics takes no further part and gets the
/// [`SearchOutcome::EvalPanic`] result; the stream stops once no task is
/// left. A panic outside the oracles gives every task that result.
fn search_group(
    tasks: &[&Task],
    guide: &Guide,
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> Vec<TaskSearchResult> {
    let request = &tasks[0].request;
    let searched = isolate_panics(
        "wake.task_panics",
        "wake.task_panic",
        || {
            let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
            ("task", names.join(", ").into())
        },
        || {
            let mut members: Vec<Member> = tasks
                .iter()
                .map(|&task| Member {
                    task,
                    frontier: Frontier::new(request.clone()),
                    evaluated: 0,
                    first_hit: None,
                    panicked: false,
                })
                .collect();
            let mut live = members.len();
            let stats =
                enumerate_programs_stats(guide.prior(), request, config, &mut |expr, ll| {
                    let mut log_prior = None;
                    for member in members.iter_mut().filter(|m| !m.panicked) {
                        member.evaluated += 1;
                        let task = member.task;
                        let Some(log_likelihood) = isolate_panics(
                            "wake.task_panics",
                            "wake.task_panic",
                            || ("task", task.name.as_str().into()),
                            || task.oracle.log_likelihood(&expr),
                        ) else {
                            member.panicked = true;
                            live -= 1;
                            continue;
                        };
                        if log_likelihood.is_finite() {
                            member.first_hit.get_or_insert((member.evaluated, -ll));
                            let log_prior =
                                *log_prior.get_or_insert_with(|| scorer.log_prior(request, &expr));
                            member.frontier.insert(
                                FrontierEntry {
                                    expr: expr.clone(),
                                    log_likelihood,
                                    log_prior,
                                },
                                beam_size,
                            );
                        }
                    }
                    live > 0
                });
            members
                .into_iter()
                .map(|member| member.finish(&stats))
                .collect()
        },
    );
    searched.unwrap_or_else(|| {
        tasks
            .iter()
            .map(|&task| TaskSearchResult::evaluator_panic(task))
            .collect()
    })
}

/// Run `attempt` with panic isolation: a panic in it is counted in
/// `counter` and reported as a warning `event` carrying the field that
/// `field` builds (only on a panic) and the panic message, and comes back
/// as `None` instead of unwinding through the caller.
pub(crate) fn isolate_panics<T>(
    counter: &'static str,
    event: &str,
    field: impl FnOnce() -> (&'static str, dc_telemetry::FieldValue),
    attempt: impl FnOnce() -> T,
) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            dc_telemetry::incr(counter);
            dc_telemetry::event(
                dc_telemetry::Level::Warn,
                event,
                &[field(), ("message", message.into())],
            );
        })
        .ok()
}

/// Split task indices into search groups, in first-task order: tasks
/// whose guides are the same generative grammar and whose requests are
/// equal form one group; each recognition-guided task is a group of one.
fn group_tasks(tasks: &[&Task], guides: &[Guide]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, task) in tasks.iter().enumerate() {
        let joins = |group: &&mut Vec<usize>| match (&guides[group[0]], &guides[idx]) {
            (Guide::Generative(a), Guide::Generative(b)) => {
                tasks[group[0]].request == task.request && a == b
            }
            _ => false,
        };
        match groups.iter_mut().find(joins) {
            Some(group) => group.push(idx),
            None => groups.push(vec![idx]),
        }
    }
    groups
}

/// Search a batch of tasks, each under its own guide; training and
/// held-out tasks both search here. Tasks are grouped first (generative
/// guides with equal grammars and equal requests share a group, formed
/// in task order; a recognition guide is a group of one), and each group
/// enumerates once and tests every program against each of its tasks.
/// Groups search in parallel, each in its own `wake.search` span whose
/// `tasks` field is the group's size. Results come back in task order,
/// so they do not depend on the thread count.
///
/// Each oracle call is panic-isolated: a panicking evaluator (a poisoned
/// oracle, an arithmetic edge case deep in a domain) costs its own task
/// an **empty frontier** and one `wake.task_panic` event, not its group
/// or the cycle.
pub fn wake(
    tasks: &[&Task],
    guides: &[Guide],
    scorer: &Grammar,
    beam_size: usize,
    config: &EnumerationConfig,
) -> Vec<TaskSearchResult> {
    assert_eq!(tasks.len(), guides.len(), "one guide per task");
    let groups = group_tasks(tasks, guides);
    // Worker threads start with empty span stacks; carry the caller's
    // innermost span in by handle so per-group spans nest under the phase.
    let parent = dc_telemetry::current_span();
    let searched: Vec<Vec<TaskSearchResult>> = rayon::map(&groups, |members| {
        let _span = dc_telemetry::span_under_with_fields(
            parent,
            "wake.search",
            &[("task", members[0].into()), ("tasks", members.len().into())],
        );
        let group: Vec<&Task> = members.iter().map(|&idx| tasks[idx]).collect();
        search_group(&group, &guides[members[0]], scorer, beam_size, config)
    });
    let mut results: Vec<Option<TaskSearchResult>> = vec![None; tasks.len()];
    for (members, group) in groups.iter().zip(searched) {
        for (&idx, result) in members.iter().zip(group) {
            results[idx] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|result| result.expect("every task is in one group"))
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

    fn setup() -> Grammar {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        Grammar::uniform(lib)
    }

    fn list(vals: &[i64]) -> Value {
        Value::list(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn nats(max_budget: f64) -> EnumerationConfig {
        EnumerationConfig {
            max_budget,
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
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 5, &nats(13.5));
        assert!(!result.frontier.is_empty(), "head should be found quickly");
        let best = result.frontier.best().unwrap();
        assert!(task.check(&best.expr));
        assert!(result.trace.programs_to_first_hit.is_some());
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
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 3, &nats(13.5));
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
        let result = search_task(&task, &Guide::Generative(g.clone()), &g, 5, &nats(10.5));
        assert!(result.frontier.is_empty());
        assert!(result.trace.programs_to_first_hit.is_none());
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
        let guide = Guide::Generative(g.clone());
        let solo = search_task(&healthy, &guide, &g, 5, &nats(13.5));
        // The two tasks share a grammar and a request, so they share one
        // search group and one program stream.
        let tasks = [&healthy, &poisoned];
        assert_eq!(
            group_tasks(&tasks, &[guide.clone(), guide.clone()]).len(),
            1
        );
        dc_telemetry::enable();
        let panics = dc_telemetry::counter("wake.task_panics");
        let before = panics.value();
        // Quiet the default per-panic stderr backtrace for this test.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results = wake(&tasks, &[guide.clone(), guide], &g, 5, &nats(13.5));
        std::panic::set_hook(prev_hook);
        assert_eq!(
            panics.value() - before,
            1,
            "one panic per poisoned task, not one per program"
        );
        assert_eq!(results.len(), 2);
        assert!(
            !results[0].frontier.is_empty(),
            "healthy task must still be solved"
        );
        assert_eq!(results[0].frontier, solo.frontier);
        assert_eq!(results[0].trace, solo.trace);
        assert_eq!(results[1].trace.outcome, SearchOutcome::EvalPanic);
        assert!(results[1].frontier.is_empty(), "poisoned task yields empty");
        assert!(results[1].trace.programs_to_first_hit.is_none());
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
        let config = nats(9.0);
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
    fn the_first_hit_is_counted_in_programs_and_nats() {
        // The first hit is the first program of the guide's stream whose
        // likelihood is finite: its 1-based position, and its `-log`
        // prior under the guide.
        use dc_tasks::domain::Domain;
        use dc_tasks::domains::list::ListDomain;

        let domain = ListDomain::new(0);
        let g = Grammar::uniform(domain.initial_library());
        let guide = Guide::Generative(g.clone());
        let config = nats(9.0);
        let mut solved = 0;
        for task in domain.train_tasks() {
            let mut position = 0;
            let mut first = None;
            enumerate_programs_stats(&g, &task.request, &config, &mut |expr, log_prior| {
                position += 1;
                if task.oracle.log_likelihood(&expr).is_finite() {
                    first = Some((position, -log_prior));
                }
                first.is_none()
            });
            let trace = search_task(task, &guide, &g, 5, &config).trace;
            assert_eq!(
                trace.programs_to_first_hit,
                first.map(|(n, _)| n),
                "task {}",
                task.name
            );
            assert_eq!(
                trace.first_hit_nats,
                first.map(|(_, nats)| nats),
                "task {}",
                task.name
            );
            solved += usize::from(first.is_some());
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
        let results = wake(&tasks, &guides, &g, 5, &nats(13.5));
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(!r.frontier.is_empty());
        }
    }
}
