//! `search_list`: wake-style search with [`dc_wakesleep::wake`] over all
//! 69 list tasks (train and test of `ListDomain::new(0)`) under a uniform
//! grammar, bounded by a nats budget with no timeout.
//!
//! Enumeration and type unification do almost all of the work; version
//! spaces and recognition do none. This is where a faster type layer has
//! to show.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dc_grammar::grammar::{candidate_heads, Grammar};
use dc_grammar::library::BigramParent;
use dc_lambda::eval::EvalCtx;
use dc_lambda::types::{tbool, tint, tlist, Context, Type};
use dc_tasks::domains::list::ListDomain;
use dc_tasks::task::Task;
use dc_tasks::Domain;
use dc_wakesleep::{wake, Guide, SearchOutcome};

use crate::probes::{ratio, timed_task, CountingPrior, OracleStats, Telemetry};
use crate::{Fingerprint, Layers, Pass, Workload};

/// Seed of the list domain's examples: a fixed corpus, so the work and
/// the fingerprint do not depend on the benchmark's `--seed`.
const DOMAIN_SEED: u64 = 0;

/// Beam size `|B_x|`, the paper's.
const BEAM: usize = 5;

/// Search budget in nats.
const MAX_BUDGET: f64 = 9.0;

/// Timed replays of the fixed holes in the type probe.
const TYPE_ROUNDS: usize = 2_000;

/// Fuel for re-running frontier programs on their examples (the list
/// tasks' own oracle fuel).
const CHECK_FUEL: u64 = 50_000;

/// The prepared `search_list` workload.
pub struct SearchList {
    grammar: Grammar,
    config: EnumerationConfig,
    tasks: Vec<Task>,
    /// The same tasks with timing oracles, for traced passes.
    timed: Vec<Task>,
    oracle: Arc<OracleStats>,
}

impl SearchList {
    /// Build the tasks, grammar and budget.
    pub(crate) fn new() -> SearchList {
        let domain = ListDomain::new(DOMAIN_SEED);
        let grammar = Grammar::uniform(domain.initial_library());
        let tasks: Vec<Task> = domain
            .train_tasks()
            .iter()
            .chain(domain.test_tasks())
            .cloned()
            .collect();
        let oracle = Arc::new(OracleStats::default());
        let timed = tasks.iter().map(|t| timed_task(t, &oracle)).collect();
        SearchList {
            grammar,
            config: EnumerationConfig {
                max_budget: MAX_BUDGET,
                timeout: None,
                ..EnumerationConfig::default()
            },
            tasks,
            timed,
            oracle,
        }
    }

    /// Distinct request types, in a fixed order.
    fn requests(&self) -> BTreeMap<String, Type> {
        self.tasks
            .iter()
            .map(|t| (t.request.to_string(), t.request.clone()))
            .collect()
    }

    /// Enumerate each distinct request once outside the search, counting
    /// holes and hashing every `(program, prior bits)` emitted. Returns
    /// holes per request and the program-stream fingerprint.
    pub fn program_stream(&self) -> (BTreeMap<String, u64>, Fingerprint) {
        let mut fp = Fingerprint::default();
        let mut holes = BTreeMap::new();
        for (name, request) in self.requests() {
            let prior = CountingPrior::new(&self.grammar);
            fp.str(&name);
            let stats = enumerate_programs_stats(&prior, &request, &self.config, &mut |e, ll| {
                fp.str(&e.to_string());
                fp.f64(ll);
                true
            });
            fp.u64(stats.programs as u64);
            holes.insert(name, prior.holes());
        }
        (holes, fp)
    }

    /// Replay `candidate_heads` on a fixed set of holes taken from the
    /// requests: for each request, its return type and the types of its
    /// arguments (plus `int`, `bool`, `list(int)`) under the environment
    /// of its arguments. Returns `(trials, ns per trial, feasible ratio)`
    /// for one replay of the holes. A trial is one unification the
    /// program makes: a head returned, or a rejection it counts in
    /// `enumeration.unification_failures`. One replay with telemetry on
    /// counts them; [`TYPE_ROUNDS`] replays with telemetry off are timed.
    fn replay_types(&self) -> (f64, f64, f64) {
        let mut holes: Vec<(Type, Vec<Type>, Type)> = Vec::new();
        for request in self.requests().into_values() {
            let mut env: Vec<Type> = request.arguments().into_iter().cloned().collect();
            env.reverse(); // innermost binder first
            let mut targets: BTreeMap<String, Type> = BTreeMap::new();
            for t in std::iter::once(request.returns())
                .chain(env.iter().map(Type::returns))
                .cloned()
                .chain([tint(), tbool(), tlist(tint())])
            {
                targets.insert(t.to_string(), t);
            }
            for target in targets.into_values() {
                holes.push((request.clone(), env.clone(), target));
            }
        }
        let replay = || -> u64 {
            let mut feasible = 0;
            for (request, env, target) in &holes {
                let mut ctx = Context::starting_after(request);
                let heads =
                    candidate_heads(&self.grammar, BigramParent::Start, 0, &mut ctx, env, target);
                feasible += std::hint::black_box(heads).len() as u64;
            }
            feasible
        };

        let before = Telemetry::read();
        dc_telemetry::enable();
        let feasible = replay() as f64;
        dc_telemetry::disable();
        let rejected = Telemetry::read()
            .since(&before)
            .counter("enumeration.unification_failures");
        let trials = feasible + rejected;

        let started = Instant::now();
        for _ in 0..TYPE_ROUNDS {
            replay();
        }
        let ns = started.elapsed().as_nanos() as f64 / TYPE_ROUNDS as f64;
        (trials, ratio(ns, trials), ratio(feasible, trials))
    }
}

/// Does `task`'s every example come out right when `expr` runs on it?
fn solves(task: &Task, expr: &dc_lambda::expr::Expr) -> bool {
    task.examples.iter().all(|ex| {
        EvalCtx::with_fuel(CHECK_FUEL)
            .run(expr, &ex.inputs)
            .is_ok_and(|v| v == ex.output)
    })
}

impl Workload for SearchList {
    fn pass(&self, traced: bool) -> (Duration, Pass) {
        let tasks: Vec<&Task> = if traced { &self.timed } else { &self.tasks }
            .iter()
            .collect();
        let guides = vec![Guide::Generative(self.grammar.clone()); tasks.len()];
        let started = Instant::now();
        let results = wake(&tasks, &guides, &self.grammar, BEAM, &self.config);
        let wall = started.elapsed();

        let mut pass = Pass {
            library_size: self.grammar.library.len() as u64,
            ..Pass::default()
        };
        let mut fp = Fingerprint::default();
        for (task, result) in tasks.iter().zip(&results) {
            let trace = &result.trace;
            pass.attempted += 1;
            pass.programs += trace.programs_enumerated as u64;
            fp.str(&task.name);
            fp.str(trace.outcome.label());
            fp.f64(trace.nats_frontier);
            fp.u64(trace.programs_enumerated as u64);
            let mut ok = trace.outcome != SearchOutcome::EvalPanic;
            for entry in &result.frontier.entries {
                fp.str(&entry.expr.to_string());
                fp.f64(entry.log_prior);
                fp.f64(entry.log_likelihood);
                let prior = self.grammar.log_prior(&task.request, &entry.expr);
                ok &= solves(task, &entry.expr) && prior.to_bits() == entry.log_prior.to_bits();
            }
            if let Some(best) = result.frontier.best() {
                pass.tasks_solved += 1;
                pass.description_nats -= best.log_posterior();
            }
            if !ok {
                pass.failed += 1;
                eprintln!("dcbench: search_list check failed on task {:?}", task.name);
            }
        }
        pass.fingerprint = fp.value();
        (wall, pass)
    }

    fn layers(&self, traced: &Telemetry, passes: f64) -> Layers {
        // Oracle totals cover the traced passes only: untraced passes use
        // the unwrapped tasks.
        let [calls, hits, oracle_ns] = self.oracle.read().map(|v| v as f64 / passes);
        let (holes_by_request, stream) = self.program_stream();
        let holes: u64 = self
            .tasks
            .iter()
            .map(|t| holes_by_request[&t.request.to_string()])
            .sum();
        let holes = holes as f64;
        let programs = traced.counter("enumeration.programs");
        let search_ns = traced.ns("enumeration.run_time") - oracle_ns;
        let (trials, ns_per_trial, feasible_ratio) = self.replay_types();
        Layers {
            values: BTreeMap::from([
                ("enumeration.holes", holes),
                ("enumeration.ns_per_program", ratio(search_ns, programs)),
                ("enumeration.ns_per_hole", ratio(search_ns, holes)),
                ("types.trials", trials),
                ("types.ns_per_trial", ns_per_trial),
                ("types.feasible_ratio", feasible_ratio),
                ("eval.calls", calls),
                ("eval.ns_per_call", ratio(oracle_ns, calls)),
                ("eval.hit_ratio", ratio(hits, calls)),
            ]),
            program_stream: Some(stream.value()),
        }
    }
}
