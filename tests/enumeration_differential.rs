//! Pins the enumerator's output and forensics, and compares it with a
//! naive reference enumerator, so that a faster type layer is shown to
//! emit the same programs with the same priors and to account for the
//! same pruning.

use std::cell::Cell;
use std::sync::Arc;

use dreamcoder::grammar::enumeration::{enumerate_programs_stats, EnumerationConfig};
use dreamcoder::grammar::grammar::ProgramPrior;
use dreamcoder::grammar::library::{BigramParent, Library, WeightVector};
use dreamcoder::grammar::{ContextualGrammar, Grammar};
use dreamcoder::lambda::types::{tbool, tint, tlist, Context, Type};
use dreamcoder::lambda::{Expr, Invented};
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::Domain;

/// FNV-1a, so the pinned hash does not depend on the standard library's
/// hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A prior that counts `weights()` calls: the enumerator asks for weights
/// once per hole it expands, and the benchmark counts holes this way.
struct CountingPrior<'a> {
    inner: &'a dyn ProgramPrior,
    holes: Cell<u64>,
}

impl ProgramPrior for CountingPrior<'_> {
    fn library(&self) -> &Arc<Library> {
        self.inner.library()
    }

    fn weights(&self, parent: BigramParent, arg: usize) -> &WeightVector {
        self.holes.set(self.holes.get() + 1);
        self.inner.weights(parent, arg)
    }
}

/// What one enumeration run emitted and how much it pruned.
#[derive(Debug, PartialEq)]
struct Run {
    /// Every program and the bits of its prior, in emission order.
    programs: Vec<(String, u64)>,
    typed_out: u64,
    windows: u64,
    /// `weights()` calls.
    holes: u64,
}

fn config(max_budget: f64) -> EnumerationConfig {
    EnumerationConfig {
        max_budget,
        ..EnumerationConfig::default()
    }
}

fn counting(prior: &dyn ProgramPrior) -> CountingPrior<'_> {
    CountingPrior {
        inner: prior,
        holes: Cell::new(0),
    }
}

/// A run of the real enumerator.
fn enumerate(prior: &dyn ProgramPrior, request: &Type, max_budget: f64) -> Run {
    let counting = counting(prior);
    let mut programs = Vec::new();
    let stats = enumerate_programs_stats(&counting, request, &config(max_budget), &mut |e, ll| {
        programs.push((e.to_string(), ll.to_bits()));
        true
    });
    assert_eq!(stats.programs, programs.len());
    Run {
        programs,
        typed_out: stats.typed_out,
        windows: stats.windows,
        holes: counting.holes.get(),
    }
}

/// A run of the naive reference enumerator: the same budget windows,
/// search order and arithmetic as the real one, but it clones the context
/// for every head it tries and applies the substitution to the request at
/// every hole.
fn enumerate_reference(prior: &dyn ProgramPrior, request: &Type, max_budget: f64) -> Run {
    let counting = counting(prior);
    let config = config(max_budget);
    let typed_out = Cell::new(0);
    let mut programs = Vec::new();
    let mut windows = 0;
    let mut lower = 0.0;
    let mut upper = config.budget_start;
    while lower < config.max_budget {
        windows += 1;
        reference_request(
            &counting,
            &typed_out,
            &Context::starting_after(request),
            &[],
            BigramParent::Start,
            0,
            request,
            lower,
            upper.min(config.max_budget),
            config.max_depth,
            &mut |_, e, ll| programs.push((e.to_string(), ll.to_bits())),
        );
        lower = upper;
        upper += config.budget_step;
    }
    Run {
        programs,
        typed_out: typed_out.get(),
        windows,
        holes: counting.holes.get(),
    }
}

type Emit<'a> = &'a mut dyn FnMut(&Context, Expr, f64);

#[allow(clippy::too_many_arguments)]
fn reference_request(
    prior: &dyn ProgramPrior,
    typed_out: &Cell<u64>,
    ctx: &Context,
    env: &[Type],
    parent: BigramParent,
    arg: usize,
    request: &Type,
    lower: f64,
    upper: f64,
    depth: usize,
    emit: Emit<'_>,
) {
    if upper <= 0.0 || depth == 0 {
        return;
    }
    let request = request.apply(ctx);
    if let Some((a, b)) = request.as_arrow() {
        let env: Vec<Type> = std::iter::once(a.clone())
            .chain(env.iter().cloned())
            .collect();
        return reference_request(
            prior,
            typed_out,
            ctx,
            &env,
            parent,
            arg,
            b,
            lower,
            upper,
            depth,
            &mut |c, body, ll| emit(c, Expr::abstraction(body), ll),
        );
    }
    let weights = prior.weights(parent, arg);
    // (log-probability, head, its bigram parent, the context with the head
    // committed, its argument types)
    let mut heads = Vec::new();
    let mut try_head = |log_prob, expr, child, mut c: Context, t: Type| {
        if c.unify(t.returns(), &request).is_ok() {
            let args: Vec<Type> = t.arguments().into_iter().cloned().collect();
            heads.push((log_prob, expr, child, c, args));
        } else {
            typed_out.set(typed_out.get() + 1);
        }
    };
    for (i, ty) in env.iter().enumerate() {
        let head = Expr::Index(i);
        try_head(
            weights.log_variable,
            head,
            BigramParent::Var,
            ctx.clone(),
            ty.apply(ctx),
        );
    }
    for (j, item) in prior.library().items.iter().enumerate() {
        let mut c = ctx.clone();
        let t = item.ty().instantiate(&mut c);
        let (log_prob, head) = (weights.log_productions[j], item.expr.clone());
        try_head(log_prob, head, BigramParent::Prod(j), c, t);
    }
    let max = heads.iter().fold(f64::NEG_INFINITY, |m, h| m.max(h.0));
    if max > f64::NEG_INFINITY {
        let z = max + heads.iter().map(|h| (h.0 - max).exp()).sum::<f64>().ln();
        for h in &mut heads {
            h.0 -= z;
        }
    }
    for (log_prob, expr, child, c, args) in heads {
        if -log_prob >= upper {
            continue;
        }
        reference_applications(
            prior,
            typed_out,
            &c,
            env,
            child,
            expr,
            log_prob,
            &args,
            0,
            lower + log_prob,
            upper + log_prob,
            depth,
            emit,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn reference_applications(
    prior: &dyn ProgramPrior,
    typed_out: &Cell<u64>,
    ctx: &Context,
    env: &[Type],
    parent: BigramParent,
    f: Expr,
    f_ll: f64,
    arg_types: &[Type],
    arg_index: usize,
    lower: f64,
    upper: f64,
    depth: usize,
    emit: Emit<'_>,
) {
    let Some((first, rest)) = arg_types.split_first() else {
        if lower <= 0.0 && upper > 0.0 {
            emit(ctx, f, f_ll);
        }
        return;
    };
    reference_request(
        prior,
        typed_out,
        ctx,
        env,
        parent,
        arg_index,
        first,
        0.0,
        upper,
        depth - 1,
        &mut |c, arg_expr, arg_ll| {
            reference_applications(
                prior,
                typed_out,
                c,
                env,
                parent,
                Expr::application(f.clone(), arg_expr),
                f_ll + arg_ll,
                rest,
                arg_index + 1,
                lower + arg_ll,
                upper + arg_ll,
                depth,
                emit,
            )
        },
    );
}

fn assert_matches_reference(prior: &dyn ProgramPrior, request: &Type, max_budget: f64) {
    let real = enumerate(prior, request, max_budget);
    assert!(!real.programs.is_empty(), "nothing enumerated at {request}");
    assert_eq!(
        real,
        enumerate_reference(prior, request, max_budget),
        "at {request}"
    );
}

fn list_requests() -> [Type; 3] {
    [tlist(tint()), tint(), tbool()].map(|ret| Type::arrow(tlist(tint()), ret))
}

fn list_grammar() -> Grammar {
    Grammar::uniform(ListDomain::new(0).initial_library())
}

#[test]
fn enumeration_forensics_are_pinned() {
    let request = Type::arrow(tlist(tint()), tlist(tint()));
    let run = enumerate(&list_grammar(), &request, 9.0);
    let mut hash = Fnv::new();
    for (program, bits) in &run.programs {
        hash.bytes(program.as_bytes());
        hash.bytes(&bits.to_le_bytes());
    }
    // programs, typed_out, windows, holes, stream hash
    assert_eq!(
        [
            run.programs.len() as u64,
            run.typed_out,
            run.windows,
            run.holes,
            hash.0
        ],
        [44, 29_330, 3, 2_375, 0x258f_f37c_d256_34ef]
    );
}

#[test]
fn list_requests_match_the_reference() {
    for request in list_requests() {
        assert_matches_reference(&list_grammar(), &request, 7.5);
    }
}

/// The budget the `search_list` benchmark searches to.
#[test]
fn list_requests_match_the_reference_at_nine_nats() {
    for request in list_requests() {
        assert_matches_reference(&list_grammar(), &request, 9.0);
    }
}

#[test]
fn contextual_grammar_with_forbidden_bigrams_matches_the_reference() {
    let mut grammar = ContextualGrammar::uniform(ListDomain::new(0).initial_library());
    // Uneven weights, with every seventh (context, production) pair
    // forbidden.
    for (slot, weights) in grammar.table.iter_mut().enumerate() {
        weights.log_variable = -0.5 * (slot % 3) as f64;
        for (k, w) in weights.log_productions.iter_mut().enumerate() {
            *w = if (slot + k) % 7 == 0 {
                f64::NEG_INFINITY
            } else {
                -0.25 * ((3 * slot + k) % 5) as f64
            };
        }
    }
    for request in list_requests() {
        assert_matches_reference(&grammar, &request, 7.5);
    }
}

#[test]
fn library_with_an_invention_matches_the_reference() {
    let domain = ListDomain::new(0);
    let body = Expr::parse("(lambda (lambda (map $1 (cdr $0))))", domain.primitives())
        .expect("the invention parses");
    let mut library = (*domain.initial_library()).clone();
    library.push_invented(Invented::new("#map-cdr", body).expect("the invention typechecks"));
    let grammar = Grammar::uniform(Arc::new(library));
    for request in list_requests() {
        assert_matches_reference(&grammar, &request, 7.5);
    }
}
