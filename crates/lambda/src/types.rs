//! Hindley–Milner style polymorphic types and unification.
//!
//! Types are either variables (`t0`, `t1`, ...) or constructors applied to
//! argument types (`int`, `list(t0)`, `t0 -> t1`). Function types are the
//! binary constructor [`ARROW`]. A [`Context`] carries the current
//! substitution and a fresh-variable counter; unification is performed
//! against a context, mirroring the type machinery of the original
//! DreamCoder implementation.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{PoisonError, RwLock};

/// Name of the function-type constructor.
pub const ARROW: &str = "->";

/// Constructor names the builtin helpers use, interned at fixed ids so
/// that building `int`, `list(t0)` or an arrow never takes a lock.
const BUILTIN: [&str; 7] = [ARROW, "int", "real", "bool", "char", "str", "list"];

/// Names interned after [`BUILTIN`], at ids `BUILTIN.len()..`. Only ever
/// appended to, so a guard recovered from a poisoned lock is still valid.
/// The names are leaked: they come from the program's own domain
/// definitions, a handful per domain, never from input.
static INTERNED: RwLock<Vec<&'static str>> = RwLock::new(Vec::new());

/// An interned type-constructor name: equality is an id compare.
///
/// `Debug`, `Display` and `Hash` go through the name, so they do not
/// depend on the order in which names were interned.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TyCon(u32);

impl TyCon {
    /// The function-type constructor [`ARROW`].
    pub const ARROW: TyCon = TyCon(0);
    const INT: TyCon = TyCon(1);
    const REAL: TyCon = TyCon(2);
    const BOOL: TyCon = TyCon(3);
    const CHAR: TyCon = TyCon(4);
    const STR: TyCon = TyCon(5);
    const LIST: TyCon = TyCon(6);

    /// The constructor called `name`, interning it on first use.
    pub fn intern(name: &str) -> TyCon {
        if let Some(i) = BUILTIN.iter().position(|b| *b == name) {
            return TyCon::from_index(i);
        }
        let extra = |i: usize| TyCon::from_index(BUILTIN.len() + i);
        let names = INTERNED.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = names.iter().position(|n| *n == name) {
            return extra(i);
        }
        drop(names);
        let mut names = INTERNED.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have interned `name` between the two locks.
        let i = names.iter().position(|n| *n == name).unwrap_or_else(|| {
            names.push(Box::leak(name.into()));
            names.len() - 1
        });
        extra(i)
    }

    fn from_index(i: usize) -> TyCon {
        TyCon(u32::try_from(i).expect("fewer than 2^32 type constructors"))
    }

    /// The constructor's name.
    pub fn name(self) -> &'static str {
        let i = self.0 as usize;
        match BUILTIN.get(i) {
            Some(name) => name,
            None => INTERNED.read().unwrap_or_else(PoisonError::into_inner)[i - BUILTIN.len()],
        }
    }
}

impl fmt::Debug for TyCon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

impl fmt::Display for TyCon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Hash for TyCon {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

/// A (possibly polymorphic) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A type variable, identified by its index.
    Var(usize),
    /// A type constructor applied to zero or more arguments.
    Con(TyCon, Vec<Type>),
}

impl Type {
    /// A nullary type constructor such as `int`.
    pub fn con0(name: &str) -> Type {
        Type::Con(TyCon::intern(name), Vec::new())
    }

    /// A unary type constructor such as `list(int)`.
    pub fn con1(name: &str, arg: Type) -> Type {
        Type::Con(TyCon::intern(name), vec![arg])
    }

    /// The function type `alpha -> beta`.
    pub fn arrow(alpha: Type, beta: Type) -> Type {
        Type::Con(TyCon::ARROW, vec![alpha, beta])
    }

    /// Right-associative chain `t1 -> t2 -> ... -> ret`.
    ///
    /// # Panics
    /// Panics if `args` is used with an empty return chain (it is not; the
    /// function always terminates with `ret`).
    pub fn arrows(args: Vec<Type>, ret: Type) -> Type {
        args.into_iter()
            .rev()
            .fold(ret, |acc, a| Type::arrow(a, acc))
    }

    /// Is this type a function type?
    pub fn is_arrow(&self) -> bool {
        self.as_arrow().is_some()
    }

    /// If this is `a -> b`, return `(a, b)`.
    pub fn as_arrow(&self) -> Option<(&Type, &Type)> {
        match self {
            Type::Con(TyCon::ARROW, args) if args.len() == 2 => Some((&args[0], &args[1])),
            _ => None,
        }
    }

    /// The sequence of argument types of a (curried) function type.
    pub fn arguments(&self) -> Vec<&Type> {
        let mut out = Vec::new();
        let mut cur = self;
        while let Some((a, b)) = cur.as_arrow() {
            out.push(a);
            cur = b;
        }
        out
    }

    /// The final return type after stripping all arrows.
    pub fn returns(&self) -> &Type {
        let mut cur = self;
        while let Some((_, b)) = cur.as_arrow() {
            cur = b;
        }
        cur
    }

    /// Number of curried arguments (the arity of a function of this type).
    pub fn arity(&self) -> usize {
        self.arguments().len()
    }

    /// Collect the free type variables, in first-occurrence order.
    pub fn free_variables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            Type::Var(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Type::Con(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Apply a substitution encoded in `ctx`, resolving all bound variables.
    pub fn apply(&self, ctx: &Context) -> Type {
        match self {
            Type::Var(i) => match ctx.binding(*i) {
                Some(t) => t.apply(ctx),
                None => self.clone(),
            },
            Type::Con(name, args) => Type::Con(*name, args.iter().map(|a| a.apply(ctx)).collect()),
        }
    }

    /// Canonicalize variables to `t0, t1, ...` in order of appearance.
    pub fn canonicalize(&self) -> Type {
        let vars = self.free_variables();
        self.map_vars(&|i| position(&vars, i))
    }

    /// Replace every variable `t{i}` by `t{f(i)}`.
    fn map_vars(&self, f: &impl Fn(usize) -> usize) -> Type {
        match self {
            Type::Var(i) => Type::Var(f(*i)),
            Type::Con(name, args) => Type::Con(*name, args.iter().map(|a| a.map_vars(f)).collect()),
        }
    }

    /// Instantiate this (implicitly universally quantified) type with fresh
    /// variables drawn from `ctx`: the `k`-th distinct variable, in
    /// first-occurrence order, becomes the `k`-th fresh one.
    pub fn instantiate(&self, ctx: &mut Context) -> Type {
        let vars = self.free_variables();
        let base = ctx.allocate(vars.len());
        self.map_vars(&|i| base + position(&vars, i))
    }

    fn occurs(&self, var: usize, ctx: &Context) -> bool {
        match self {
            Type::Var(i) => {
                if *i == var {
                    return true;
                }
                match ctx.binding(*i) {
                    Some(t) => t.occurs(var, ctx),
                    None => false,
                }
            }
            Type::Con(_, args) => args.iter().any(|a| a.occurs(var, ctx)),
        }
    }

    /// Does each variable occur at most once in this type?
    fn is_linear(&self) -> bool {
        fn occurrences(ty: &Type) -> usize {
            match ty {
                Type::Var(_) => 1,
                Type::Con(_, args) => args.iter().map(occurrences).sum(),
            }
        }
        occurrences(self) == self.free_variables().len()
    }
}

/// Index of `var` in `vars`, which lists every variable of the type at hand.
fn position(vars: &[usize], var: usize) -> usize {
    vars.iter()
        .position(|v| *v == var)
        .expect("every variable of a type is among its free variables")
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Var(i) => write!(f, "t{i}"),
            Type::Con(name, args) => {
                if let Some((a, b)) = self.as_arrow() {
                    if a.is_arrow() {
                        write!(f, "({a}) -> {b}")
                    } else {
                        write!(f, "{a} -> {b}")
                    }
                } else if args.is_empty() {
                    write!(f, "{name}")
                } else {
                    write!(f, "{name}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

/// The builtin `int` type.
pub fn tint() -> Type {
    Type::Con(TyCon::INT, Vec::new())
}
/// The builtin `real` type (used by symbolic regression & physics).
pub fn treal() -> Type {
    Type::Con(TyCon::REAL, Vec::new())
}
/// The builtin `bool` type.
pub fn tbool() -> Type {
    Type::Con(TyCon::BOOL, Vec::new())
}
/// The builtin `char` type.
pub fn tchar() -> Type {
    Type::Con(TyCon::CHAR, Vec::new())
}
/// The builtin `str` type.
pub fn tstr() -> Type {
    Type::Con(TyCon::STR, Vec::new())
}
/// The builtin `list` type constructor.
pub fn tlist(elem: Type) -> Type {
    Type::Con(TyCon::LIST, vec![elem])
}
/// Type variable `t{i}`.
pub fn tvar(i: usize) -> Type {
    Type::Var(i)
}

/// Error produced when two types cannot be unified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnificationError {
    /// Rendered form of the first type.
    pub left: String,
    /// Rendered form of the second type.
    pub right: String,
}

impl fmt::Display for UnificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot unify {} with {}", self.left, self.right)
    }
}

impl std::error::Error for UnificationError {}

/// A unification context: the current substitution plus a supply of fresh
/// type variables.
///
/// Every binding insertion is recorded on an undo trail, so speculative
/// unification can be wound back with [`Context::checkpoint`] /
/// [`Context::rollback`] instead of cloning the whole substitution —
/// the enumerator's hot path relies on this.
///
/// Equality compares what a context does, its bindings and its counter,
/// not its storage.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Dense substitution: slot `i` holds the binding of `t{i}`. A
    /// rollback empties slots but keeps them allocated.
    substitution: Vec<Option<Type>>,
    next_variable: usize,
    /// Variables bound, in binding order. Unification only ever binds
    /// previously-unbound variables (bound ones are resolved first), so
    /// undoing is emptying their slots.
    trail: Vec<usize>,
}

impl PartialEq for Context {
    fn eq(&self, other: &Context) -> bool {
        let slots = self.substitution.len().max(other.substitution.len());
        self.next_variable == other.next_variable
            && (0..slots).all(|i| self.binding(i) == other.binding(i))
    }
}

impl Eq for Context {}

/// A point in a [`Context`]'s mutation history, produced by
/// [`Context::checkpoint`] and consumed by [`Context::rollback`].
///
/// Rollback is only valid on the same context the checkpoint came from,
/// and checkpoints must be unwound innermost-first (stack discipline).
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    trail_len: usize,
    next_variable: usize,
}

/// A type under the substitution, resolved through its outer variable
/// chain without borrowing the context.
enum Node<'t> {
    /// An unbound variable.
    Free(usize),
    /// A constructor type that is not a binding (the caller's own).
    Con(&'t Type),
    /// A variable whose binding is a constructor type.
    Bound(usize),
}

/// The answer of the read-only feasibility walk in [`Scheme::return_fits`].
enum Fit {
    Yes,
    No,
    /// The walk met an unbound request variable inside the request, which
    /// real unification would bind and possibly meet again.
    Unknown,
}

impl Context {
    /// An empty context with no bindings.
    pub fn new() -> Context {
        Context::default()
    }

    /// A context whose fresh variables start after every variable free in
    /// `ty` (so instantiating other types cannot collide with `ty`).
    pub fn starting_after(ty: &Type) -> Context {
        let next = ty.free_variables().into_iter().max().map_or(0, |m| m + 1);
        Context {
            next_variable: next,
            ..Context::default()
        }
    }

    /// Record the current substitution size and variable counter.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            trail_len: self.trail.len(),
            next_variable: self.next_variable,
        }
    }

    /// Undo every binding and fresh variable allocated since `cp` was
    /// taken. Bindings made before the checkpoint cannot mention
    /// variables allocated after it (they did not exist yet), so removal
    /// restores exactly the checkpointed substitution.
    pub fn rollback(&mut self, cp: Checkpoint) {
        debug_assert!(cp.trail_len <= self.trail.len(), "stale checkpoint");
        for var in self.trail.drain(cp.trail_len..) {
            self.substitution[var] = None;
        }
        self.next_variable = cp.next_variable;
    }

    /// The binding of `t{var}`, if any.
    fn binding(&self, var: usize) -> Option<&Type> {
        self.substitution.get(var).and_then(Option::as_ref)
    }

    /// Insert a binding, recording it on the undo trail.
    fn bind(&mut self, var: usize, ty: Type) {
        if var >= self.substitution.len() {
            self.substitution.resize_with(var + 1, || None);
        }
        let prior = self.substitution[var].replace(ty);
        debug_assert!(prior.is_none(), "rebinding variable t{var}");
        self.trail.push(var);
    }

    /// Allocate a fresh type variable.
    pub fn fresh_variable(&mut self) -> Type {
        Type::Var(self.fresh_variable_index())
    }

    /// Allocate a fresh type-variable index.
    pub fn fresh_variable_index(&mut self) -> usize {
        self.allocate(1)
    }

    /// Allocate `n` consecutive fresh variables, returning the first.
    fn allocate(&mut self, n: usize) -> usize {
        let first = self.next_variable;
        self.next_variable += n;
        first
    }

    /// Follow the substitution while `ty` is a bound variable. Only the
    /// outer variable chain is resolved: variables nested inside the
    /// result stay as they are (see [`Type::apply`] for the full
    /// rewrite).
    pub fn resolve<'a>(&'a self, ty: &'a Type) -> &'a Type {
        let mut cur = ty;
        while let Type::Var(i) = cur {
            match self.binding(*i) {
                Some(t) => cur = t,
                None => break,
            }
        }
        cur
    }

    fn node<'t>(&self, ty: &'t Type) -> Node<'t> {
        let Type::Var(mut var) = *ty else {
            return Node::Con(ty);
        };
        loop {
            match self.binding(var) {
                None => return Node::Free(var),
                Some(Type::Var(next)) => var = *next,
                Some(Type::Con(..)) => return Node::Bound(var),
            }
        }
    }

    /// The type a [`Node`] stands for.
    fn node_type<'a>(&'a self, node: &Node<'a>) -> Cow<'a, Type> {
        match *node {
            Node::Free(var) => Cow::Owned(Type::Var(var)),
            Node::Con(ty) => Cow::Borrowed(ty),
            Node::Bound(var) => Cow::Borrowed(self.binding(var).expect("bound variable")),
        }
    }

    /// Unify two types, extending the substitution.
    ///
    /// # Errors
    /// Returns [`UnificationError`] when the types clash or when binding
    /// would create an infinite type (occurs check).
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), UnificationError> {
        let mut error = None;
        if self.unify_with(a, b, &mut |ctx, x, y| error = Some(ctx.error(x, y))) {
            Ok(())
        } else {
            Err(error.expect("a failed unification reports its clash"))
        }
    }

    /// [`Context::unify`] as a yes/no answer: the failure path renders
    /// nothing and allocates nothing. On failure the substitution may be
    /// partly extended, as with `unify`.
    pub fn unify_ok(&mut self, a: &Type, b: &Type) -> bool {
        self.unify_with(a, b, &mut |_, _, _| {})
    }

    /// Unification that reports the clashing pair, walked, to `clash`.
    /// Clones only the type it binds, and a binding whose arguments it
    /// must unify further.
    fn unify_with<F: FnMut(&Context, &Type, &Type)>(
        &mut self,
        a: &Type,
        b: &Type,
        clash: &mut F,
    ) -> bool {
        match (self.node(a), self.node(b)) {
            (Node::Free(i), Node::Free(j)) if i == j => true,
            (Node::Free(i), other) => self.bind_node(i, &other, true, clash),
            (other, Node::Free(j)) => self.bind_node(j, &other, false, clash),
            (na, nb) => {
                {
                    let (ta, tb) = (self.node_type(&na), self.node_type(&nb));
                    let (Type::Con(n1, a1), Type::Con(n2, a2)) = (&*ta, &*tb) else {
                        unreachable!("non-free nodes are constructor types")
                    };
                    if n1 != n2 || a1.len() != a2.len() {
                        clash(self, &ta, &tb);
                        return false;
                    }
                }
                // Arguments borrowed from a binding would alias the
                // substitution the recursion extends, so such a side is
                // cloned; the caller's own types are not.
                let (owned_a, owned_b);
                let ta = match na {
                    Node::Con(ty) => ty,
                    _ => {
                        owned_a = self.node_type(&na).into_owned();
                        &owned_a
                    }
                };
                let tb = match nb {
                    Node::Con(ty) => ty,
                    _ => {
                        owned_b = self.node_type(&nb).into_owned();
                        &owned_b
                    }
                };
                let (Type::Con(_, a1), Type::Con(_, a2)) = (ta, tb) else {
                    unreachable!("non-free nodes are constructor types")
                };
                a1.iter().zip(a2).all(|(x, y)| self.unify_with(x, y, clash))
            }
        }
    }

    /// Bind the unbound `var` to the type `other` stands for, after the
    /// occurs check. `var_left` says which side of the unification `var`
    /// came from, for the clash report.
    fn bind_node<F: FnMut(&Context, &Type, &Type)>(
        &mut self,
        var: usize,
        other: &Node<'_>,
        var_left: bool,
        clash: &mut F,
    ) -> bool {
        let occurs = match *other {
            Node::Free(_) => false,
            Node::Con(ty) => ty.occurs(var, self),
            Node::Bound(j) => self.binding(j).is_some_and(|t| t.occurs(var, self)),
        };
        if occurs {
            let (v, o) = (Type::Var(var), self.node_type(other));
            if var_left {
                clash(self, &v, &o);
            } else {
                clash(self, &o, &v);
            }
            return false;
        }
        // A bound variable is bound to by name, not by copy: the two
        // resolve alike.
        let ty = match *other {
            Node::Free(j) | Node::Bound(j) => Type::Var(j),
            Node::Con(ty) => ty.clone(),
        };
        self.bind(var, ty);
        true
    }

    /// Could the return type of `ty` under the substitution unify with
    /// `request`? The trial is rolled back, so the context is left as it
    /// was.
    pub fn returns_unify(&mut self, ty: &Type, request: &Type) -> bool {
        let cp = self.checkpoint();
        let ok = self.unify_returns(ty, request);
        self.rollback(cp);
        ok
    }

    fn unify_returns(&mut self, ty: &Type, request: &Type) -> bool {
        match self.node(ty) {
            Node::Con(t) => match t.as_arrow() {
                Some((_, ret)) => self.unify_returns(ret, request),
                None => self.unify_ok(t, request),
            },
            Node::Bound(var) => match self.binding(var).and_then(Type::as_arrow) {
                // The return type lies inside a binding the unification
                // may extend the substitution around.
                Some((_, ret)) => {
                    let ret = ret.clone();
                    self.unify_returns(&ret, request)
                }
                None => self.unify_ok(ty, request),
            },
            Node::Free(_) => self.unify_ok(ty, request),
        }
    }

    /// Read-only feasibility of unifying an instance of the linear
    /// `template` with `request`: every template variable is fresh and
    /// occurs once, so it matches anything without constraining the rest.
    /// `top` marks the whole request, whose variable, if unbound, occurs
    /// nowhere else in it.
    fn fit(&self, template: &Type, request: &Type, top: bool) -> Fit {
        let Type::Con(c, targs) = template else {
            return Fit::Yes;
        };
        match self.resolve(request) {
            Type::Var(_) if top => Fit::Yes,
            Type::Var(_) => Fit::Unknown,
            Type::Con(d, rargs) => {
                if c != d || targs.len() != rargs.len() {
                    return Fit::No;
                }
                // A clash stays a clash in any extension of the
                // substitution, so it decides even after an unknown.
                let mut fit = Fit::Yes;
                for (t, r) in targs.iter().zip(rargs) {
                    match self.fit(t, r, false) {
                        Fit::No => return Fit::No,
                        Fit::Unknown => fit = Fit::Unknown,
                        Fit::Yes => {}
                    }
                }
                fit
            }
        }
    }

    fn error(&self, a: &Type, b: &Type) -> UnificationError {
        UnificationError {
            left: a.apply(self).to_string(),
            right: b.apply(self).to_string(),
        }
    }
}

/// A polymorphic type prepared for repeated instantiation, as a library
/// item's type is at every hole the enumerator expands.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// The type with its variables renamed `t0, t1, ...` in
    /// first-occurrence order.
    body: Type,
    /// Number of distinct variables in `body`.
    vars: usize,
    /// Each variable occurs at most once in the return type.
    linear_return: bool,
}

impl Scheme {
    /// Prepare `ty` for instantiation.
    pub fn new(ty: &Type) -> Scheme {
        let body = ty.canonicalize();
        Scheme {
            vars: body.free_variables().len(),
            linear_return: body.returns().is_linear(),
            body,
        }
    }

    /// Instantiate with fresh variables from `ctx`: the same type, with
    /// the same variable indices, as [`Type::instantiate`] on the type the
    /// scheme was made from.
    pub fn instantiate(&self, ctx: &mut Context) -> Type {
        let base = ctx.allocate(self.vars);
        self.body.map_vars(&|k| base + k)
    }

    /// Could the return type of an instance unify with `request`? The
    /// same answer as instantiating, unifying the return type and rolling
    /// back, and `ctx` is left as it was.
    ///
    /// Every variable `request` or the substitution mentions must lie
    /// below the fresh-variable counter, as [`Context::starting_after`]
    /// and [`Context::fresh_variable`] keep it. A linear return type is
    /// decided by a read-only walk, which instantiates nothing unless it
    /// meets an unbound variable inside the request; any other return
    /// type is checked against the request's outer constructor first.
    pub fn return_fits(&self, ctx: &mut Context, request: &Type) -> bool {
        let ret = self.body.returns();
        let fit = if self.linear_return {
            ctx.fit(ret, request, true)
        } else {
            match (ret, ctx.resolve(request)) {
                (Type::Con(c, a), Type::Con(d, b)) if c != d || a.len() != b.len() => Fit::No,
                _ => Fit::Unknown,
            }
        };
        match fit {
            Fit::Yes => true,
            Fit::No => false,
            Fit::Unknown => {
                let cp = ctx.checkpoint();
                // The return type alone, numbered as in a full instance.
                let base = ctx.allocate(self.vars);
                let ok = ctx.unify_ok(&ret.map_vars(&|k| base + k), request);
                ctx.rollback(cp);
                ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_structure() {
        let t = Type::arrow(tint(), Type::arrow(tlist(tvar(0)), tbool()));
        assert_eq!(t.to_string(), "int -> list(t0) -> bool");
        let nested = Type::arrow(Type::arrow(tint(), tint()), tint());
        assert_eq!(nested.to_string(), "(int -> int) -> int");
    }

    #[test]
    fn arity_and_returns() {
        let t = Type::arrows(vec![tint(), tbool(), tlist(tint())], tstr());
        assert_eq!(t.arity(), 3);
        assert_eq!(t.returns(), &tstr());
        assert_eq!(t.arguments().len(), 3);
        assert_eq!(tint().arity(), 0);
    }

    #[test]
    fn unify_simple() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        ctx.unify(&a, &tint()).unwrap();
        assert_eq!(a.apply(&ctx), tint());
    }

    #[test]
    fn unify_function_types() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        let b = ctx.fresh_variable();
        let f = Type::arrow(a.clone(), b.clone());
        let g = Type::arrow(tint(), tlist(tint()));
        ctx.unify(&f, &g).unwrap();
        assert_eq!(a.apply(&ctx), tint());
        assert_eq!(b.apply(&ctx), tlist(tint()));
    }

    #[test]
    fn unify_clash_fails() {
        let mut ctx = Context::new();
        assert!(ctx.unify(&tint(), &tbool()).is_err());
    }

    #[test]
    fn occurs_check_rejects_infinite_type() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        let f = Type::arrow(a.clone(), tint());
        assert!(ctx.unify(&a, &f).is_err());
    }

    #[test]
    fn occurs_check_through_substitution() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        let b = ctx.fresh_variable();
        ctx.unify(&a, &b).unwrap();
        // binding b to (a -> int) must fail: a == b transitively
        assert!(ctx.unify(&b, &Type::arrow(a.clone(), tint())).is_err());
    }

    #[test]
    fn instantiate_gives_fresh_variables() {
        let mut ctx = Context::new();
        let poly = Type::arrow(tvar(0), tvar(0));
        let inst1 = poly.instantiate(&mut ctx);
        let inst2 = poly.instantiate(&mut ctx);
        assert_ne!(inst1, inst2);
        // but each instance is still alpha -> alpha
        if let Some((l, r)) = inst1.as_arrow() {
            assert_eq!(l, r);
        } else {
            panic!("expected arrow");
        }
    }

    #[test]
    fn canonicalize_renumbers() {
        let t = Type::arrow(tvar(7), Type::arrow(tvar(3), tvar(7)));
        assert_eq!(
            t.canonicalize(),
            Type::arrow(tvar(0), Type::arrow(tvar(1), tvar(0)))
        );
    }

    #[test]
    fn rollback_restores_bindings_and_counter() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        ctx.unify(&a, &tint()).unwrap();
        let cp = ctx.checkpoint();
        let b = ctx.fresh_variable();
        ctx.unify(&b, &tlist(a.clone())).unwrap();
        assert_eq!(b.apply(&ctx), tlist(tint()));
        ctx.rollback(cp);
        // Post-checkpoint binding gone, pre-checkpoint binding intact.
        assert_eq!(b.apply(&ctx), b);
        assert_eq!(a.apply(&ctx), tint());
        // The variable counter rewound: the next fresh variable is `b` again.
        assert_eq!(ctx.fresh_variable(), b);
    }

    #[test]
    fn nested_checkpoints_unwind_in_stack_order() {
        let mut ctx = Context::new();
        let a = ctx.fresh_variable();
        let cp_outer = ctx.checkpoint();
        ctx.unify(&a, &tbool()).unwrap();
        let cp_inner = ctx.checkpoint();
        let b = ctx.fresh_variable();
        ctx.unify(&b, &tint()).unwrap();
        ctx.rollback(cp_inner);
        assert_eq!(a.apply(&ctx), tbool());
        assert_eq!(b.apply(&ctx), b);
        ctx.rollback(cp_outer);
        assert_eq!(a.apply(&ctx), a);
    }

    #[test]
    fn constructors_intern_by_name() {
        assert_eq!(Type::con0("int"), tint());
        assert_eq!(Type::con1("list", tbool()), tlist(tbool()));
        let t = Type::con1("interned-here", tint());
        assert_eq!(t, Type::con1("interned-here", tint()));
        assert_ne!(t, Type::con1("interned-too", tint()));
        assert_eq!(t.to_string(), "interned-here(int)");
        assert_eq!(
            format!("{t:?}"),
            r#"Con("interned-here", [Con("int", [])])"#
        );
    }

    #[test]
    fn starting_after_avoids_collisions() {
        let t = Type::arrow(tvar(4), tvar(2));
        let mut ctx = Context::starting_after(&t);
        let fresh = ctx.fresh_variable();
        assert_eq!(fresh, tvar(5));
    }
}
