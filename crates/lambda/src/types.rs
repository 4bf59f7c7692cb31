//! Hindley–Milner style polymorphic types and unification.
//!
//! Types are either variables (`t0`, `t1`, ...) or constructors applied to
//! argument types (`int`, `list(t0)`, `t0 -> t1`). Function types are the
//! binary constructor [`ARROW`]. A [`Context`] carries the current
//! substitution and a fresh-variable counter; unification is performed
//! against a context, mirroring the type machinery of the original
//! DreamCoder implementation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Name of the function-type constructor.
pub const ARROW: &str = "->";

/// A (possibly polymorphic) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A type variable, identified by its index.
    Var(usize),
    /// A type constructor applied to zero or more arguments.
    Con(Arc<str>, Vec<Type>),
}

impl Type {
    /// A nullary type constructor such as `int`.
    pub fn con0(name: &str) -> Type {
        Type::Con(Arc::from(name), Vec::new())
    }

    /// A unary type constructor such as `list(int)`.
    pub fn con1(name: &str, arg: Type) -> Type {
        Type::Con(Arc::from(name), vec![arg])
    }

    /// The function type `alpha -> beta`.
    pub fn arrow(alpha: Type, beta: Type) -> Type {
        Type::Con(Arc::from(ARROW), vec![alpha, beta])
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
        matches!(self, Type::Con(name, _) if &**name == ARROW)
    }

    /// If this is `a -> b`, return `(a, b)`.
    pub fn as_arrow(&self) -> Option<(&Type, &Type)> {
        match self {
            Type::Con(name, args) if &**name == ARROW && args.len() == 2 => {
                Some((&args[0], &args[1]))
            }
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

    /// Does the type contain any variables at all?
    pub fn is_polymorphic(&self) -> bool {
        match self {
            Type::Var(_) => true,
            Type::Con(_, args) => args.iter().any(Type::is_polymorphic),
        }
    }

    /// Apply a substitution encoded in `ctx`, resolving all bound variables.
    pub fn apply(&self, ctx: &Context) -> Type {
        match self {
            Type::Var(i) => match ctx.substitution.get(i) {
                Some(t) => t.apply(ctx),
                None => self.clone(),
            },
            Type::Con(name, args) => Type::Con(
                Arc::clone(name),
                args.iter().map(|a| a.apply(ctx)).collect(),
            ),
        }
    }

    /// Canonicalize variables to `t0, t1, ...` in order of appearance.
    pub fn canonicalize(&self) -> Type {
        let vars = self.free_variables();
        let mapping: HashMap<usize, usize> = vars
            .into_iter()
            .enumerate()
            .map(|(new, old)| (old, new))
            .collect();
        self.rename(&mapping)
    }

    fn rename(&self, mapping: &HashMap<usize, usize>) -> Type {
        match self {
            Type::Var(i) => Type::Var(*mapping.get(i).unwrap_or(i)),
            Type::Con(name, args) => Type::Con(
                Arc::clone(name),
                args.iter().map(|a| a.rename(mapping)).collect(),
            ),
        }
    }

    /// Instantiate this (implicitly universally quantified) type with fresh
    /// variables drawn from `ctx`.
    pub fn instantiate(&self, ctx: &mut Context) -> Type {
        let mut mapping = HashMap::new();
        for v in self.free_variables() {
            mapping.insert(v, ctx.fresh_variable_index());
        }
        self.rename(&mapping)
    }

    fn occurs(&self, var: usize, ctx: &Context) -> bool {
        match self {
            Type::Var(i) => {
                if *i == var {
                    return true;
                }
                match ctx.substitution.get(i) {
                    Some(t) => t.occurs(var, ctx),
                    None => false,
                }
            }
            Type::Con(_, args) => args.iter().any(|a| a.occurs(var, ctx)),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Var(i) => write!(f, "t{i}"),
            Type::Con(name, args) => {
                if &**name == ARROW && args.len() == 2 {
                    if args[0].is_arrow() {
                        write!(f, "({}) -> {}", args[0], args[1])
                    } else {
                        write!(f, "{} -> {}", args[0], args[1])
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
    Type::con0("int")
}
/// The builtin `real` type (used by symbolic regression & physics).
pub fn treal() -> Type {
    Type::con0("real")
}
/// The builtin `bool` type.
pub fn tbool() -> Type {
    Type::con0("bool")
}
/// The builtin `char` type.
pub fn tchar() -> Type {
    Type::con0("char")
}
/// The builtin `str` type.
pub fn tstr() -> Type {
    Type::con0("str")
}
/// The builtin `list` type constructor.
pub fn tlist(elem: Type) -> Type {
    Type::con1("list", elem)
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Context {
    substitution: HashMap<usize, Type>,
    next_variable: usize,
    /// Keys inserted into `substitution`, in insertion order. Unification
    /// only ever binds previously-unbound variables (bound ones are
    /// resolved by `walk` first), so undoing is plain key removal.
    trail: Vec<usize>,
}

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
            substitution: HashMap::new(),
            next_variable: next,
            trail: Vec::new(),
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
        while self.trail.len() > cp.trail_len {
            let key = self.trail.pop().expect("trail length checked");
            self.substitution.remove(&key);
        }
        self.next_variable = cp.next_variable;
    }

    /// Insert a binding, recording it on the undo trail.
    fn bind(&mut self, var: usize, ty: Type) {
        let prior = self.substitution.insert(var, ty);
        debug_assert!(prior.is_none(), "rebinding variable t{var}");
        self.trail.push(var);
    }

    /// Allocate a fresh type variable.
    pub fn fresh_variable(&mut self) -> Type {
        Type::Var(self.fresh_variable_index())
    }

    /// Allocate a fresh type-variable index.
    pub fn fresh_variable_index(&mut self) -> usize {
        let i = self.next_variable;
        self.next_variable += 1;
        i
    }

    /// Follow the substitution one step for a variable type.
    fn walk<'a>(&'a self, ty: &'a Type) -> &'a Type {
        let mut cur = ty;
        while let Type::Var(i) = cur {
            match self.substitution.get(i) {
                Some(t) => cur = t,
                None => break,
            }
        }
        cur
    }

    /// Unify two types, extending the substitution.
    ///
    /// # Errors
    /// Returns [`UnificationError`] when the types clash or when binding
    /// would create an infinite type (occurs check).
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), UnificationError> {
        let a = self.walk(a).clone();
        let b = self.walk(b).clone();
        match (&a, &b) {
            (Type::Var(i), Type::Var(j)) if i == j => Ok(()),
            (Type::Var(i), _) => {
                if b.occurs(*i, self) {
                    Err(self.error(&a, &b))
                } else {
                    self.bind(*i, b);
                    Ok(())
                }
            }
            (_, Type::Var(j)) => {
                if a.occurs(*j, self) {
                    Err(self.error(&a, &b))
                } else {
                    self.bind(*j, a);
                    Ok(())
                }
            }
            (Type::Con(n1, a1), Type::Con(n2, a2)) => {
                if n1 != n2 || a1.len() != a2.len() {
                    return Err(self.error(&a, &b));
                }
                for (x, y) in a1.iter().zip(a2.iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
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
    fn starting_after_avoids_collisions() {
        let t = Type::arrow(tvar(4), tvar(2));
        let mut ctx = Context::starting_after(&t);
        let fresh = ctx.fresh_variable();
        assert_eq!(fresh, tvar(5));
    }
}
