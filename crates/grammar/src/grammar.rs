//! Probabilistic grammars over typed λ-terms.
//!
//! A [`Grammar`] is the paper's `(D, θ)`: a [`Library`] plus log-weights,
//! defining `P[ρ | D, θ]` via a type-directed stochastic generation process
//! (Appendix 6 of the paper). A [`ContextualGrammar`] conditions weights on
//! the *bigram* context — which production is the parent and which argument
//! slot is being filled — which is also the output format of the neural
//! recognition model (§4).

use std::cell::Cell;
use std::sync::Arc;

use dc_lambda::expr::Expr;
use dc_lambda::types::{Context, Type};

use crate::library::{BigramParent, Library, WeightVector};

thread_local! {
    /// Heads rejected by unification since the last [`take_typed_out`] —
    /// the enumerator's forensic "typed out" tally. Thread-local because
    /// each enumeration run stays on one thread (rayon workers run whole
    /// tasks), so bracketing a run with take/take reads exactly its own
    /// rejections without touching shared atomics in the hot path.
    static TYPED_OUT: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` unification-rejected candidate heads on this thread.
pub(crate) fn note_typed_out(n: u64) {
    TYPED_OUT.with(|c| c.set(c.get() + n));
}

/// Read and reset this thread's typed-out tally.
pub(crate) fn take_typed_out() -> u64 {
    TYPED_OUT.with(|c| c.replace(0))
}

/// Anything that assigns (unnormalized) weights to productions given a
/// bigram context. Implemented by [`Grammar`] (ignores context) and
/// [`ContextualGrammar`] (a full transition tensor).
pub trait ProgramPrior {
    /// The shared library `D`.
    fn library(&self) -> &Arc<Library>;
    /// Weights used when filling argument `arg` of `parent`.
    fn weights(&self, parent: BigramParent, arg: usize) -> &WeightVector;
}

/// The unigram grammar `(D, θ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grammar {
    /// The library `D`.
    pub library: Arc<Library>,
    /// Weights `θ` (shared across contexts).
    pub weights: WeightVector,
}

impl Grammar {
    /// A uniform grammar over the given library.
    pub fn uniform(library: Arc<Library>) -> Grammar {
        let n = library.len();
        Grammar {
            library,
            weights: WeightVector::uniform(n),
        }
    }

    /// Log-prior of an eta-long program at the given request type
    /// (`log P[ρ | D, θ]`). Returns `-inf` for programs this grammar
    /// cannot generate.
    pub fn log_prior(&self, request: &Type, expr: &Expr) -> f64 {
        log_prior(self, request, expr)
    }
}

impl ProgramPrior for Grammar {
    fn library(&self) -> &Arc<Library> {
        &self.library
    }
    fn weights(&self, _parent: BigramParent, _arg: usize) -> &WeightVector {
        &self.weights
    }
}

/// A bigram ("contextual") grammar: one weight vector per (parent,
/// argument-index) pair, exactly the 3-index tensor `Q_ijk` of §4.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextualGrammar {
    /// The library `D`.
    pub library: Arc<Library>,
    /// Max arity tracked; argument indices clamp to `max_arity - 1`.
    pub max_arity: usize,
    /// Row-major `[parent_row][arg]` weight vectors.
    pub table: Vec<WeightVector>,
}

impl ContextualGrammar {
    /// A uniform contextual grammar.
    pub fn uniform(library: Arc<Library>) -> ContextualGrammar {
        let n = library.len();
        let max_arity = library.max_arity().max(1);
        let rows = BigramParent::row_count(n);
        let table = vec![WeightVector::uniform(n); rows * max_arity];
        ContextualGrammar {
            library,
            max_arity,
            table,
        }
    }

    /// Index into the table for a (parent, arg) context.
    pub fn slot(&self, parent: BigramParent, arg: usize) -> usize {
        let row = parent.row(self.library.len());
        let a = arg.min(self.max_arity - 1);
        row * self.max_arity + a
    }

    /// Mutable access to one context's weights.
    pub fn weights_mut(&mut self, parent: BigramParent, arg: usize) -> &mut WeightVector {
        let i = self.slot(parent, arg);
        &mut self.table[i]
    }

    /// Log-prior of an eta-long program under the bigram model.
    pub fn log_prior(&self, request: &Type, expr: &Expr) -> f64 {
        log_prior(self, request, expr)
    }
}

impl ProgramPrior for ContextualGrammar {
    fn library(&self) -> &Arc<Library> {
        &self.library
    }
    fn weights(&self, parent: BigramParent, arg: usize) -> &WeightVector {
        &self.table[self.slot(parent, arg)]
    }
}

/// The head of a candidate application: a bound variable or a library
/// production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// The de Bruijn index of a bound variable.
    Var(usize),
    /// A production index into the library.
    Prod(usize),
}

/// A feasible head, discovered by a trial that left the [`Context`] as it
/// was: it carries no cloned context, no instantiated argument types and
/// no expression. Expansion commits the head against the live context
/// with [`commit_head`] and builds its expression with
/// [`CandidateHead::expr`] — the one head protocol the enumerator, the
/// sampler and [`generation_trace`] share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateHead {
    /// Normalized log-probability of this choice.
    pub log_prob: f64,
    /// The chosen head.
    pub head: Head,
}

impl CandidateHead {
    /// Production index (`None` = a bound variable).
    pub fn production(&self) -> Option<usize> {
        match self.head {
            Head::Var(_) => None,
            Head::Prod(j) => Some(j),
        }
    }

    /// Bigram parent context for generating the arguments.
    pub fn child_parent(&self) -> BigramParent {
        match self.head {
            Head::Var(_) => BigramParent::Var,
            Head::Prod(j) => BigramParent::Prod(j),
        }
    }

    /// The head as an expression (`Expr::Index`, `Expr::Primitive` or
    /// `Expr::Invented`).
    pub fn expr(&self, library: &Library) -> Expr {
        match self.head {
            Head::Var(i) => Expr::Index(i),
            Head::Prod(j) => library.items[j].expr.clone(),
        }
    }

    /// Is `expr` this head? Compares without building the expression.
    fn is(&self, expr: &Expr, library: &Library) -> bool {
        match self.head {
            Head::Var(i) => matches!(expr, Expr::Index(k) if *k == i),
            Head::Prod(j) => library.items[j].expr == *expr,
        }
    }
}

/// Enumerate the feasible heads for a hole of type `request` (a non-arrow
/// type, resolved or not) in environment `env`, with normalized
/// log-probabilities. Asks `prior` for its weights exactly once.
///
/// `ctx` is only mutated transiently: every trial unification is undone
/// via checkpoint/rollback before returning, so on exit `ctx` is exactly
/// as it came in (including the fresh-variable counter). Every variable
/// `request` mentions must lie below its fresh-variable counter, as
/// [`Context::starting_after`] makes it. A production whose return type
/// cannot fit is rejected without instantiating it, and a rejection
/// allocates nothing.
pub fn candidate_heads(
    prior: &dyn ProgramPrior,
    parent: BigramParent,
    arg: usize,
    ctx: &mut Context,
    env: &[Type],
    request: &Type,
) -> Vec<CandidateHead> {
    let weights = prior.weights(parent, arg);
    let mut out = Vec::new();
    // Count unification failures locally; one batched counter update per
    // call keeps the hole-expansion hot path off shared atomics.
    let mut unify_failures = 0u64;
    // Bound variables.
    for (i, env_ty) in env.iter().enumerate() {
        if ctx.returns_unify(env_ty, request) {
            out.push(CandidateHead {
                log_prob: weights.log_variable,
                head: Head::Var(i),
            });
        } else {
            unify_failures += 1;
        }
    }
    // Library productions.
    for (j, item) in prior.library().items.iter().enumerate() {
        if item.scheme().return_fits(ctx, request) {
            out.push(CandidateHead {
                log_prob: weights.log_productions[j],
                head: Head::Prod(j),
            });
        } else {
            unify_failures += 1;
        }
    }
    if unify_failures > 0 {
        note_typed_out(unify_failures);
        // Cached handle: this records once per hole expansion, which is
        // the innermost loop of enumeration — a registry lookup here
        // blows the ≤5% instrumentation budget (DESIGN.md §10).
        static UNIFICATION_FAILURES: dc_telemetry::CachedCounter =
            dc_telemetry::CachedCounter::new("enumeration.unification_failures");
        UNIFICATION_FAILURES.add(unify_failures);
    }
    // Normalize in place (log-sum-exp) without the scratch Vec the old
    // implementation allocated per hole expansion.
    let max = out.iter().fold(f64::NEG_INFINITY, |m, c| m.max(c.log_prob));
    if max > f64::NEG_INFINITY {
        let z = max
            + out
                .iter()
                .map(|c| (c.log_prob - max).exp())
                .sum::<f64>()
                .ln();
        for c in &mut out {
            c.log_prob -= z;
        }
    }
    out
}

/// Commit to a head previously discovered by [`candidate_heads`] under the
/// *same* context state: instantiate its type, unify its return type with
/// `request`, and return the instantiated argument types. The unification
/// bindings stay in `ctx` (callers checkpoint before and roll back after
/// exploring the head's arguments).
///
/// Returns `None` when the head is not feasible — only possible when
/// `ctx` diverged from the state `candidate_heads` saw.
pub fn commit_head(
    prior: &dyn ProgramPrior,
    ctx: &mut Context,
    env: &[Type],
    request: &Type,
    head: &CandidateHead,
) -> Option<Vec<Type>> {
    let t = match head.head {
        Head::Prod(j) => prior.library().items[j].scheme().instantiate(ctx),
        Head::Var(i) => env[i].apply(ctx),
    };
    if !ctx.unify_ok(t.returns(), request) {
        return None;
    }
    Some(t.arguments().into_iter().cloned().collect())
}

/// A choice made during generation, with enough context to train a
/// recognition model (feasible set + chosen index).
#[derive(Debug, Clone, PartialEq)]
pub struct GenEvent {
    /// Bigram parent of the hole.
    pub parent: BigramParent,
    /// Which argument slot of the parent.
    pub arg: usize,
    /// Chosen production index; `None` means a bound variable was chosen.
    pub chosen: Option<usize>,
    /// Production indices that were feasible at this choice point.
    pub feasible_prods: Vec<usize>,
    /// How many bound variables were feasible.
    pub feasible_vars: usize,
}

/// Walk `expr` as the generative model would produce it, returning its
/// log-prior and the sequence of choice events, or `None` when the program
/// is not generable (not eta-long, or head not in the library).
pub fn generation_trace(
    prior: &dyn ProgramPrior,
    request: &Type,
    expr: &Expr,
) -> Option<(f64, Vec<GenEvent>)> {
    let mut ctx = Context::starting_after(request);
    let mut env = Vec::new();
    let mut events = Vec::new();
    let ll = walk(
        prior,
        &mut ctx,
        &mut env,
        BigramParent::Start,
        0,
        request,
        expr,
        &mut events,
    )?;
    Some((ll, events))
}

#[allow(clippy::too_many_arguments)]
fn walk(
    prior: &dyn ProgramPrior,
    ctx: &mut Context,
    env: &mut Vec<Type>,
    parent: BigramParent,
    arg: usize,
    request: &Type,
    expr: &Expr,
    events: &mut Vec<GenEvent>,
) -> Option<f64> {
    if let Some((a, b)) = ctx.resolve(request).as_arrow() {
        // Arrow requests deterministically produce abstractions.
        let (a, b) = (a.clone(), b.clone());
        return match expr {
            Expr::Abstraction(body) => {
                env.insert(0, a);
                let r = walk(prior, ctx, env, parent, arg, &b, body, events);
                env.remove(0);
                r
            }
            _ => None,
        };
    }
    // Decompose the application spine.
    let mut spine = Vec::new();
    let mut head = expr;
    while let Expr::Application(f, x) = head {
        spine.push(&**x);
        head = f;
    }
    spine.reverse();
    let heads = candidate_heads(prior, parent, arg, ctx, env, request);
    let feasible_prods: Vec<usize> = heads.iter().filter_map(CandidateHead::production).collect();
    let feasible_vars = heads.iter().filter(|c| c.production().is_none()).count();
    let chosen = *heads.iter().find(|c| c.is(head, prior.library()))?;
    // Committing binds the head's unification into `ctx`; on the `None`
    // paths below the whole trace is abandoned, so no rollback is needed.
    let arg_types = commit_head(prior, ctx, env, request, &chosen)?;
    if arg_types.len() != spine.len() {
        return None; // not eta-long
    }
    events.push(GenEvent {
        parent,
        arg,
        chosen: chosen.production(),
        feasible_prods,
        feasible_vars,
    });
    let mut ll = chosen.log_prob;
    for (k, (arg_expr, arg_ty)) in spine.iter().zip(arg_types.iter()).enumerate() {
        ll += walk(
            prior,
            ctx,
            env,
            chosen.child_parent(),
            k,
            arg_ty,
            arg_expr,
            events,
        )?;
    }
    Some(ll)
}

/// Log-prior of a program: `log P[ρ | prior]`, `-inf` if not generable.
pub fn log_prior(prior: &dyn ProgramPrior, request: &Type, expr: &Expr) -> f64 {
    generation_trace(prior, request, expr).map_or(f64::NEG_INFINITY, |(ll, _)| ll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::logsumexp;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist};

    fn setup() -> (Grammar, dc_lambda::PrimitiveSet) {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        (Grammar::uniform(lib), prims)
    }

    #[test]
    fn candidate_heads_filter_by_type() {
        let (g, _) = setup();
        let ctx = Context::new();
        let mut scratch = ctx.clone();
        let cands = candidate_heads(&g, BigramParent::Start, 0, &mut scratch, &[], &tint());
        assert_eq!(scratch, ctx, "trial unifications must be rolled back");
        // int-returning heads: length, index, +, -, *, mod, 0, 1, if, fix, car, fold...
        let names: Vec<String> = cands
            .iter()
            .map(|c| c.expr(&g.library).to_string())
            .collect();
        assert!(names.iter().any(|n| n == "+"));
        assert!(names.iter().any(|n| n == "0"));
        // `cons` returns a list, never an int.
        assert!(!names.iter().any(|n| n == "cons"));
        // Normalization: probabilities sum to 1.
        let z = logsumexp(&cands.iter().map(|c| c.log_prob).collect::<Vec<_>>());
        assert!(z.abs() < 1e-9);
    }

    #[test]
    fn variables_are_candidates() {
        let (g, _) = setup();
        let ctx = Context::new();
        let mut scratch = ctx.clone();
        let cands = candidate_heads(&g, BigramParent::Start, 0, &mut scratch, &[tint()], &tint());
        assert_eq!(scratch, ctx, "trial unifications must be rolled back");
        assert!(cands.iter().any(|c| c.head == Head::Var(0)));
    }

    #[test]
    fn log_prior_is_finite_for_well_typed_eta_long_programs() {
        let (g, prims) = setup();
        let e = Expr::parse("(lambda (+ $0 1))", &prims).unwrap();
        let lp = g.log_prior(&Type::arrow(tint(), tint()), &e);
        assert!(lp.is_finite());
        assert!(lp < 0.0);
    }

    #[test]
    fn log_prior_of_unparseable_shape_is_neg_inf() {
        let (g, prims) = setup();
        // Partial application `(+ 1)` is not eta-long at int -> int.
        let e = Expr::parse("(+ 1)", &prims).unwrap();
        assert_eq!(
            g.log_prior(&Type::arrow(tint(), tint()), &e),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn smaller_programs_have_higher_prior() {
        let (g, prims) = setup();
        let small = Expr::parse("(lambda $0)", &prims).unwrap();
        let big = Expr::parse("(lambda (+ $0 (+ 1 1)))", &prims).unwrap();
        let t = Type::arrow(tint(), tint());
        assert!(g.log_prior(&t, &small) > g.log_prior(&t, &big));
    }

    #[test]
    fn generation_trace_records_events() {
        let (g, prims) = setup();
        let e = Expr::parse("(lambda (+ $0 1))", &prims).unwrap();
        let (_, events) = generation_trace(&g, &Type::arrow(tint(), tint()), &e).unwrap();
        // Three choices: `+`, `$0`, `1`.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].parent, BigramParent::Start);
        let plus_idx = g
            .library
            .position(&Expr::parse("+", &prims).unwrap())
            .unwrap();
        assert_eq!(events[0].chosen, Some(plus_idx));
        assert_eq!(events[1].parent, BigramParent::Prod(plus_idx));
        assert_eq!(events[1].arg, 0);
        assert_eq!(events[1].chosen, None); // variable
        assert_eq!(events[2].arg, 1);
    }

    #[test]
    fn contextual_grammar_can_forbid_bigrams() {
        let (g, prims) = setup();
        let mut cg = ContextualGrammar::uniform(Arc::clone(&g.library));
        let plus = g
            .library
            .position(&Expr::parse("+", &prims).unwrap())
            .unwrap();
        let zero = g
            .library
            .position(&Expr::parse("0", &prims).unwrap())
            .unwrap();
        // Forbid `0` as either argument of `+`.
        for arg in 0..2 {
            cg.weights_mut(BigramParent::Prod(plus), arg)
                .log_productions[zero] = f64::NEG_INFINITY;
        }
        let t = tint();
        let add_zero = Expr::parse("(+ 0 1)", &prims).unwrap();
        let add_one = Expr::parse("(+ 1 1)", &prims).unwrap();
        assert_eq!(cg.log_prior(&t, &add_zero), f64::NEG_INFINITY);
        assert!(cg.log_prior(&t, &add_one).is_finite());
        // But `0` alone is still allowed (start context unaffected).
        let zero_e = Expr::parse("0", &prims).unwrap();
        assert!(cg.log_prior(&t, &zero_e).is_finite());
    }

    #[test]
    fn polymorphic_request_types_propagate() {
        let (g, prims) = setup();
        // map over a list of ints: the function argument must be int -> int.
        let e = Expr::parse("(lambda (map (lambda (+ $0 $0)) $0))", &prims).unwrap();
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        assert!(g.log_prior(&t, &e).is_finite());
    }
}
