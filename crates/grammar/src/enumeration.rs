//! Best-first typed enumeration of programs in decreasing prior order.
//!
//! Implements the budget-interval iterative-deepening scheme of the
//! original DreamCoder solver: enumerate every program whose description
//! length (in nats, `-log P[ρ|D,θ]`) falls in `[lower, upper)`, then grow
//! the window. Programs therefore stream out in (approximately) decreasing
//! prior probability without any priority queue, and no program is emitted
//! twice.

use std::cell::Cell;
use std::time::{Duration, Instant};

use dc_lambda::expr::Expr;
use dc_lambda::types::{Context, Type};

use crate::grammar::{candidate_heads, commit_head, ProgramPrior};
use crate::library::BigramParent;

/// Upper bound of the first budget window, in nats.
pub const BUDGET_START: f64 = 6.0;

/// Window growth per round, in nats.
pub const BUDGET_STEP: f64 = 1.5;

/// Maximum syntactic nesting depth of enumerated programs.
pub const MAX_DEPTH: usize = 16;

/// Controls for an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationConfig {
    /// Give up beyond this description length.
    pub max_budget: f64,
    /// Wall-clock timeout for the whole run.
    pub timeout: Option<Duration>,
}

impl Default for EnumerationConfig {
    fn default() -> EnumerationConfig {
        EnumerationConfig {
            max_budget: 40.0,
            timeout: None,
        }
    }
}

/// Forensic record of one enumeration run: how deep the search got and
/// why it stopped, independent of what the caller did with the programs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnumerationStats {
    /// Programs emitted to the callback.
    pub programs: usize,
    /// Budget windows started.
    pub windows: u64,
    /// Candidate heads rejected by unification (typed out) — a measure
    /// of how much of the raw search space the type system pruned.
    pub typed_out: u64,
    /// Nats frontier actually completed: every program with description
    /// length below this bound was enumerated.
    pub frontier_nats: f64,
    /// The run stopped on its wall-clock deadline (as opposed to
    /// exhausting the budget or the callback ending it).
    pub timed_out: bool,
}

/// Enumerate closed programs of type `request` in decreasing prior order.
///
/// `callback(expr, log_prior)` is invoked for each program; return `false`
/// to stop the run early. Returns the number of programs emitted.
/// ([`enumerate_programs_stats`] additionally reports search forensics.)
pub fn enumerate_programs(
    prior: &dyn ProgramPrior,
    request: &Type,
    config: &EnumerationConfig,
    callback: &mut dyn FnMut(Expr, f64) -> bool,
) -> usize {
    enumerate_programs_stats(prior, request, config, callback).programs
}

/// [`enumerate_programs`], returning the full [`EnumerationStats`]
/// forensic record instead of just the program count.
pub fn enumerate_programs_stats(
    prior: &dyn ProgramPrior,
    request: &Type,
    config: &EnumerationConfig,
    callback: &mut dyn FnMut(Expr, f64) -> bool,
) -> EnumerationStats {
    let _span = dc_telemetry::span("enumeration.run_time");
    let mut stats = EnumerationStats::default();
    let started = Instant::now();
    let mut lower = 0.0;
    let mut upper = BUDGET_START;
    let deadline = config.timeout.map(|t| started + t);
    'outer: while lower < config.max_budget {
        stats.windows += 1;
        let mut ctx = Context::starting_after(request);
        let ticker = DeadlineTicker::new(deadline);
        let keep_going = enum_request(
            prior,
            &mut ctx,
            &[],
            BigramParent::Start,
            0,
            request,
            lower,
            upper.min(config.max_budget),
            MAX_DEPTH,
            &ticker,
            &mut |_, e, ll| {
                stats.programs += 1;
                callback(e, ll)
            },
        );
        stats.typed_out += ticker.typed_out.get();
        if !keep_going {
            // Either the deadline fired mid-window or the callback asked
            // to stop; the window is incomplete either way.
            stats.timed_out = ticker.expired.get();
            break 'outer;
        }
        stats.frontier_nats = upper.min(config.max_budget);
        if let Some(d) = deadline {
            if Instant::now() >= d {
                stats.timed_out = true;
                break 'outer;
            }
        }
        lower = upper;
        upper += BUDGET_STEP;
    }
    // One batched update per run, not per program: the inner loop stays
    // free of atomics even with telemetry enabled.
    if dc_telemetry::is_enabled() {
        dc_telemetry::add("enumeration.programs", stats.programs as u64);
        dc_telemetry::add("enumeration.budget_windows", stats.windows);
        dc_telemetry::add("enumeration.typed_out", stats.typed_out);
        dc_telemetry::incr("enumeration.runs");
    }
    stats
}

/// Poll the wall clock only every this many node expansions: per-node
/// `Instant::now()` costs more than the expansion itself deep in the tree.
const DEADLINE_CHECK_INTERVAL: u32 = 1024;

/// Amortized deadline checks, plus the window's typed-out tally. Once
/// expired, stays expired (the clock is never consulted again), so an
/// exhausted run unwinds quickly. Interior mutability lets the recursion
/// and its continuation closures share one ticker by plain `&` reference.
struct DeadlineTicker {
    deadline: Option<Instant>,
    countdown: Cell<u32>,
    expired: Cell<bool>,
    /// Candidate heads this window rejected by unification. Counted here
    /// rather than in [`candidate_heads`], which also serves re-scoring
    /// (`log_prior`) calls made from inside the enumeration callback.
    typed_out: Cell<u64>,
}

impl DeadlineTicker {
    fn new(deadline: Option<Instant>) -> DeadlineTicker {
        DeadlineTicker {
            deadline,
            countdown: Cell::new(DEADLINE_CHECK_INTERVAL),
            expired: Cell::new(false),
            typed_out: Cell::new(0),
        }
    }

    fn note_typed_out(&self, n: usize) {
        self.typed_out.set(self.typed_out.get() + n as u64);
    }

    #[inline]
    fn expired(&self) -> bool {
        if self.expired.get() {
            return true;
        }
        let Some(d) = self.deadline else {
            return false;
        };
        let left = self.countdown.get();
        if left > 0 {
            self.countdown.set(left - 1);
            return false;
        }
        self.countdown.set(DEADLINE_CHECK_INTERVAL);
        let hit = Instant::now() >= d;
        self.expired.set(hit);
        hit
    }
}

/// Enumerate programs for `request`; `ret(ctx, expr, log_prior)` receives
/// each. Returns `false` to propagate early exit.
///
/// `env` holds the bound-variable types innermost-first; it is built once
/// per λ-extension and passed down by slice (the old cons-list rebuilt a
/// `Vec` at every node underneath the binder).
#[allow(clippy::too_many_arguments)]
fn enum_request(
    prior: &dyn ProgramPrior,
    ctx: &mut Context,
    env: &[Type],
    parent: BigramParent,
    arg: usize,
    request: &Type,
    lower: f64,
    upper: f64,
    depth: usize,
    ticker: &DeadlineTicker,
    ret: &mut dyn FnMut(&mut Context, Expr, f64) -> bool,
) -> bool {
    if upper <= 0.0 || depth == 0 {
        return true;
    }
    if ticker.expired() {
        return false;
    }
    if let Some((a, b)) = ctx.resolve(request).as_arrow() {
        let (a, b) = (a.clone(), b.clone());
        let mut env2 = Vec::with_capacity(env.len() + 1);
        env2.push(a);
        env2.extend_from_slice(env);
        return enum_request(
            prior,
            ctx,
            &env2,
            parent,
            arg,
            &b,
            lower,
            upper,
            depth,
            ticker,
            &mut |c, body, ll| ret(c, Expr::abstraction(body), ll),
        );
    }
    let heads = candidate_heads(prior, parent, arg, ctx, env, request);
    ticker.note_typed_out(env.len() + prior.library().len() - heads.len());
    for head in heads {
        let mdl = -head.log_prob;
        if mdl >= upper {
            continue;
        }
        // Commit the head's unification into the live context, explore its
        // arguments, then roll back — where the old loop cloned the whole
        // `Context` per candidate.
        let cp = ctx.checkpoint();
        let Some(arg_types) = commit_head(prior, ctx, env, request, &head) else {
            ticker.note_typed_out(1);
            ctx.rollback(cp);
            continue;
        };
        let keep = enum_applications(
            prior,
            ctx,
            env,
            head.child_parent(),
            head.expr(prior.library()),
            head.log_prob,
            &arg_types,
            0,
            lower + head.log_prob,
            upper + head.log_prob,
            depth,
            ticker,
            ret,
        );
        ctx.rollback(cp);
        if !keep {
            return false;
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn enum_applications(
    prior: &dyn ProgramPrior,
    ctx: &mut Context,
    env: &[Type],
    parent: BigramParent,
    f: Expr,
    f_ll: f64,
    arg_types: &[Type],
    arg_index: usize,
    lower: f64,
    upper: f64,
    depth: usize,
    ticker: &DeadlineTicker,
    ret: &mut dyn FnMut(&mut Context, Expr, f64) -> bool,
) -> bool {
    let Some((first, rest)) = arg_types.split_first() else {
        if lower <= 0.0 && upper > 0.0 {
            return ret(ctx, f, f_ll);
        }
        return true;
    };
    enum_request(
        prior,
        ctx,
        env,
        parent,
        arg_index,
        first,
        0.0,
        upper,
        depth - 1,
        ticker,
        &mut |ctx2, arg_expr, arg_ll| {
            enum_applications(
                prior,
                ctx2,
                env,
                parent,
                Expr::application(f.clone(), arg_expr),
                f_ll + arg_ll,
                rest,
                arg_index + 1,
                lower + arg_ll,
                upper + arg_ll,
                depth,
                ticker,
                ret,
            )
        },
    )
}

/// Convenience: collect the first `n` enumerated programs with priors.
pub fn enumerate_top(
    prior: &dyn ProgramPrior,
    request: &Type,
    config: &EnumerationConfig,
    n: usize,
) -> Vec<(Expr, f64)> {
    let mut out = Vec::with_capacity(n);
    enumerate_programs(prior, request, config, &mut |e, ll| {
        out.push((e, ll));
        out.len() < n
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Grammar;
    use crate::library::Library;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn grammar() -> (Grammar, dc_lambda::PrimitiveSet) {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        (Grammar::uniform(lib), prims)
    }

    #[test]
    fn enumerates_in_decreasing_prior_order_within_window() {
        let (g, _) = grammar();
        let progs = enumerate_top(&g, &tint(), &EnumerationConfig::default(), 200);
        assert!(
            progs.len() >= 100,
            "expected many int programs, got {}",
            progs.len()
        );
        // Description length (=-ll) must be nondecreasing across windows
        // up to window granularity; check the coarse property: first
        // program is among the cheapest.
        let best = progs
            .iter()
            .map(|(_, ll)| *ll)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(progs[0].1 >= best - 6.0);
    }

    #[test]
    fn no_duplicates_across_budget_windows() {
        let (g, _) = grammar();
        let progs = enumerate_top(&g, &tint(), &EnumerationConfig::default(), 500);
        let mut seen = HashSet::new();
        for (e, _) in &progs {
            assert!(seen.insert(e.to_string()), "duplicate program {e}");
        }
    }

    #[test]
    fn all_enumerated_programs_typecheck() {
        let (g, _) = grammar();
        let t = Type::arrow(tlist(tint()), tint());
        let progs = enumerate_top(&g, &t, &EnumerationConfig::default(), 200);
        assert!(!progs.is_empty());
        let mut ctx = Context::new();
        for (e, _) in &progs {
            let it = e.infer_with(&mut Context::new(), &[]).unwrap_or_else(|_| {
                panic!("enumerated ill-typed program {e}");
            });
            let mut c2 = Context::starting_after(&it);
            let inst = t.instantiate(&mut c2);
            assert!(
                c2.unify(&it, &inst).is_ok(),
                "program {e} has type {it}, not {t}"
            );
        }
        let _ = &mut ctx;
    }

    #[test]
    fn enumerated_priors_match_log_prior() {
        let (g, _) = grammar();
        let t = tint();
        for (e, ll) in enumerate_top(&g, &t, &EnumerationConfig::default(), 100) {
            let direct = g.log_prior(&t, &e);
            assert_eq!(
                direct.to_bits(),
                ll.to_bits(),
                "prior mismatch for {e}: {direct} vs {ll}"
            );
        }
    }

    #[test]
    fn callback_can_stop_early() {
        let (g, _) = grammar();
        let mut count = 0;
        enumerate_programs(&g, &tint(), &EnumerationConfig::default(), &mut |_, _| {
            count += 1;
            count < 5
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn timeout_is_respected() {
        let (g, _) = grammar();
        let cfg = EnumerationConfig {
            timeout: Some(Duration::from_millis(50)),
            max_budget: 1000.0,
        };
        let started = Instant::now();
        let stats = enumerate_programs_stats(&g, &tint(), &cfg, &mut |_, _| true);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(stats.timed_out, "a 1000-nat budget must hit the deadline");
        assert!(stats.frontier_nats < cfg.max_budget);
    }

    #[test]
    fn stats_report_frontier_and_stop_reason() {
        let (g, _) = grammar();
        let cfg = EnumerationConfig {
            max_budget: 9.0,
            ..EnumerationConfig::default()
        };
        let mut emitted = 0usize;
        let stats = enumerate_programs_stats(&g, &tint(), &cfg, &mut |_, _| {
            emitted += 1;
            true
        });
        assert_eq!(stats.programs, emitted);
        assert!(stats.windows >= 2, "windows = {}", stats.windows);
        assert!(stats.typed_out > 0, "unification prunes some heads");
        // Ran to budget exhaustion: the whole budget is the frontier.
        assert!((stats.frontier_nats - cfg.max_budget).abs() < 1e-9);
        assert!(!stats.timed_out);

        // A callback stop mid-window leaves the frontier at the last
        // *completed* window and is not a timeout.
        let stats = enumerate_programs_stats(&g, &tint(), &cfg, &mut |_, _| false);
        assert!(!stats.timed_out);
        assert!(stats.frontier_nats < cfg.max_budget);
    }

    #[test]
    fn function_requests_produce_lambdas() {
        let (g, _) = grammar();
        let t = Type::arrow(tint(), tint());
        let progs = enumerate_top(&g, &t, &EnumerationConfig::default(), 50);
        for (e, _) in &progs {
            assert!(
                matches!(e, Expr::Abstraction(_)),
                "expected lambda, got {e}"
            );
        }
    }
}
