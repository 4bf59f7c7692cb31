//! λ-calculus expressions in de Bruijn notation.
//!
//! An [`Expr`] is an index (`$0`, `$1`, ...), a primitive, an *invented*
//! library routine (a named, closed expression produced by abstraction
//! sleep), an abstraction `(λ body)`, or an application `(f x)`. This is
//! exactly the term language of the paper (§3, Definition 3.1 minus the
//! version-space constructors, which live in `dc-vspace`).

use std::fmt;
use std::sync::Arc;

use crate::error::{EvalError, ParseError};
use crate::eval::{EvalCtx, Value};
use crate::types::{Context, Type};
use crate::MAX_DEPTH;

/// The implementation of a strict primitive: evaluated arguments in, value
/// out, with evaluator access for higher-order primitives.
pub type PrimitiveFn = dyn Fn(&[Value], &mut EvalCtx) -> Result<Value, EvalError> + Send + Sync;

/// Semantics of a primitive: either a constant value or a strict n-ary
/// function over evaluated arguments (which may re-enter the evaluator, e.g.
/// `map` applying its function argument).
#[derive(Clone)]
pub enum Semantics {
    /// A constant (e.g. the number `0`, the empty list `nil`).
    Constant(Value),
    /// A strict function of `arity` evaluated arguments.
    Function(Arc<PrimitiveFn>),
    /// Lazy conditional: `(if c a b)` evaluates `c`, then only one branch.
    If,
    /// Fixed point combinator: `(fix f) x` unrolls to `f (fix f) x`.
    Fix,
}

impl fmt::Debug for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::Constant(v) => write!(f, "Constant({v:?})"),
            Semantics::Function(_) => write!(f, "Function(..)"),
            Semantics::If => write!(f, "If"),
            Semantics::Fix => write!(f, "Fix"),
        }
    }
}

/// A named primitive with a (possibly polymorphic) type and semantics.
#[derive(Debug)]
pub struct Primitive {
    /// Surface name used for parsing and printing.
    pub name: String,
    /// Polymorphic type; variables are implicitly universally quantified.
    pub ty: Type,
    /// Evaluation semantics.
    pub sem: Semantics,
}

impl Primitive {
    /// Create a constant primitive.
    pub fn constant(name: &str, ty: Type, value: Value) -> Arc<Primitive> {
        Arc::new(Primitive {
            name: name.to_owned(),
            ty,
            sem: Semantics::Constant(value),
        })
    }

    /// Create a strict function primitive.
    pub fn function<F>(name: &str, ty: Type, f: F) -> Arc<Primitive>
    where
        F: Fn(&[Value], &mut EvalCtx) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        Arc::new(Primitive {
            name: name.to_owned(),
            ty,
            sem: Semantics::Function(Arc::new(f)),
        })
    }

    /// The number of arguments the primitive consumes before its semantics
    /// fire (the arity of its type).
    pub fn arity(&self) -> usize {
        self.ty.arity()
    }
}

impl PartialEq for Primitive {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}
impl Eq for Primitive {}
impl std::hash::Hash for Primitive {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

/// A library routine invented during abstraction sleep: a closed expression
/// with a canonical type, given a short name for printing.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Invented {
    /// Display name, e.g. `f7` or `#(lambda (map $0 ...))`.
    pub name: String,
    /// The closed body the routine abbreviates.
    pub body: Expr,
    /// Canonicalized inferred type of `body`.
    pub ty: Type,
}

impl Invented {
    /// Wrap a closed expression as an invented library routine.
    ///
    /// # Errors
    /// Fails if `body` does not typecheck.
    pub fn new(name: &str, body: Expr) -> Result<Arc<Invented>, crate::types::UnificationError> {
        let ty = body.infer()?.canonicalize();
        Ok(Arc::new(Invented {
            name: name.to_owned(),
            body,
            ty,
        }))
    }
}

/// A λ-calculus expression in de Bruijn notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Bound variable `$i`.
    Index(usize),
    /// A primitive from the base language.
    Primitive(Arc<Primitive>),
    /// A learned library routine.
    Invented(Arc<Invented>),
    /// `(λ body)`.
    Abstraction(Arc<Expr>),
    /// `(f x)`.
    Application(Arc<Expr>, Arc<Expr>),
}

impl Expr {
    /// `(λ body)`.
    pub fn abstraction(body: Expr) -> Expr {
        Expr::Abstraction(Arc::new(body))
    }

    /// `(f x)`.
    pub fn application(f: Expr, x: Expr) -> Expr {
        Expr::Application(Arc::new(f), Arc::new(x))
    }

    /// Apply `f` to each of `args` left to right.
    pub fn apply_all(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::application)
    }

    /// Number of nodes in the syntax tree. Inventions count as size 1
    /// (`size(ρ|D)` from §3.1 with the current library's members opaque).
    pub fn size(&self) -> usize {
        match self {
            Expr::Index(_) | Expr::Primitive(_) | Expr::Invented(_) => 1,
            Expr::Abstraction(b) => 1 + b.size(),
            Expr::Application(f, x) => 1 + f.size() + x.size(),
        }
    }

    /// Size when invented routines are expanded to base primitives.
    pub fn size_expanded(&self) -> usize {
        match self {
            Expr::Index(_) | Expr::Primitive(_) => 1,
            Expr::Invented(inv) => inv.body.size_expanded(),
            Expr::Abstraction(b) => 1 + b.size_expanded(),
            Expr::Application(f, x) => 1 + f.size_expanded() + x.size_expanded(),
        }
    }

    /// Maximum nesting depth of the syntax tree.
    pub fn depth(&self) -> usize {
        match self {
            Expr::Index(_) | Expr::Primitive(_) | Expr::Invented(_) => 1,
            Expr::Abstraction(b) => 1 + b.depth(),
            Expr::Application(f, x) => 1 + b_max(f.depth(), x.depth()),
        }
    }

    /// Iterate over all subexpressions, including `self`, preorder.
    pub fn subexpressions(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            out.push(e);
            match e {
                Expr::Abstraction(b) => stack.push(b),
                Expr::Application(f, x) => {
                    stack.push(x);
                    stack.push(f);
                }
                _ => {}
            }
        }
        out
    }

    /// Free de Bruijn indices, adjusted for binders above them.
    pub fn free_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_free(0, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_free(&self, depth: usize, out: &mut Vec<usize>) {
        match self {
            Expr::Index(i) if *i >= depth => out.push(i - depth),
            Expr::Abstraction(b) => b.collect_free(depth + 1, out),
            Expr::Application(f, x) => {
                f.collect_free(depth, out);
                x.collect_free(depth, out);
            }
            _ => {}
        }
    }

    /// True when the expression has no free de Bruijn indices.
    pub fn is_closed(&self) -> bool {
        self.free_indices().is_empty()
    }

    /// Shift free indices `>= cutoff` by `delta` (may be negative).
    /// Returns `None` if a variable would become negative.
    pub fn shift_from(&self, delta: i64, cutoff: usize) -> Option<Expr> {
        match self {
            Expr::Index(i) => {
                if *i < cutoff {
                    Some(self.clone())
                } else {
                    let j = *i as i64 + delta;
                    if j < cutoff as i64 {
                        None
                    } else {
                        Some(Expr::Index(j as usize))
                    }
                }
            }
            Expr::Primitive(_) | Expr::Invented(_) => Some(self.clone()),
            Expr::Abstraction(b) => Some(Expr::abstraction(b.shift_from(delta, cutoff + 1)?)),
            Expr::Application(f, x) => Some(Expr::application(
                f.shift_from(delta, cutoff)?,
                x.shift_from(delta, cutoff)?,
            )),
        }
    }

    /// Shift all free indices by `delta`.
    pub fn shift(&self, delta: i64) -> Option<Expr> {
        self.shift_from(delta, 0)
    }

    /// Substitute `value` for index `index` (capture-avoiding).
    pub fn substitute(&self, index: usize, value: &Expr) -> Expr {
        match self {
            Expr::Index(i) => {
                if *i == index {
                    value.clone()
                } else if *i > index {
                    // A binder was removed below this variable.
                    Expr::Index(i - 1)
                } else {
                    self.clone()
                }
            }
            Expr::Primitive(_) | Expr::Invented(_) => self.clone(),
            Expr::Abstraction(b) => {
                let shifted = value.shift(1).expect("shifting up cannot fail");
                Expr::abstraction(b.substitute(index + 1, &shifted))
            }
            Expr::Application(f, x) => {
                Expr::application(f.substitute(index, value), x.substitute(index, value))
            }
        }
    }

    /// Perform one leftmost-outermost β-reduction step, if any redex exists.
    pub fn beta_step(&self) -> Option<Expr> {
        match self {
            Expr::Application(f, x) => {
                if let Expr::Abstraction(body) = &**f {
                    return Some(body.substitute(0, x));
                }
                if let Some(f2) = f.beta_step() {
                    return Some(Expr::application(f2, (**x).clone()));
                }
                x.beta_step().map(|x2| Expr::application((**f).clone(), x2))
            }
            Expr::Abstraction(b) => b.beta_step().map(Expr::abstraction),
            _ => None,
        }
    }

    /// β-normal form, bounded by `fuel` reduction steps.
    /// Returns `None` if the bound is exhausted.
    pub fn beta_normal_form(&self, fuel: usize) -> Option<Expr> {
        let mut cur = self.clone();
        for _ in 0..fuel {
            match cur.beta_step() {
                Some(next) => cur = next,
                None => return Some(cur),
            }
        }
        if cur.beta_step().is_none() {
            Some(cur)
        } else {
            None
        }
    }

    /// Replace invented routines by their bodies, recursively.
    pub fn strip_inventions(&self) -> Expr {
        match self {
            Expr::Invented(inv) => inv.body.strip_inventions(),
            Expr::Abstraction(b) => Expr::abstraction(b.strip_inventions()),
            Expr::Application(f, x) => {
                Expr::application(f.strip_inventions(), x.strip_inventions())
            }
            _ => self.clone(),
        }
    }

    /// Infer the type of a closed expression.
    ///
    /// # Errors
    /// Returns a [`crate::types::UnificationError`] if the expression is
    /// ill-typed or contains unbound indices.
    pub fn infer(&self) -> Result<Type, crate::types::UnificationError> {
        let mut ctx = Context::new();
        let ty = self.infer_with(&mut ctx, &[])?;
        Ok(ty.apply(&ctx))
    }

    /// Infer a type under an environment of bound-variable types
    /// (innermost binder first).
    ///
    /// # Errors
    /// See [`Expr::infer`].
    pub fn infer_with(
        &self,
        ctx: &mut Context,
        env: &[Type],
    ) -> Result<Type, crate::types::UnificationError> {
        match self {
            Expr::Index(i) => match env.get(*i) {
                Some(t) => Ok(t.clone()),
                None => Err(crate::types::UnificationError {
                    left: format!("${i}"),
                    right: "unbound index".to_owned(),
                }),
            },
            Expr::Primitive(p) => Ok(p.ty.instantiate(ctx)),
            Expr::Invented(inv) => Ok(inv.ty.instantiate(ctx)),
            Expr::Abstraction(b) => {
                let arg = ctx.fresh_variable();
                let mut env2 = Vec::with_capacity(env.len() + 1);
                env2.push(arg.clone());
                env2.extend_from_slice(env);
                let ret = b.infer_with(ctx, &env2)?;
                Ok(Type::arrow(arg, ret).apply(ctx))
            }
            Expr::Application(f, x) => {
                let ft = f.infer_with(ctx, env)?;
                let xt = x.infer_with(ctx, env)?;
                let ret = ctx.fresh_variable();
                ctx.unify(&ft, &Type::arrow(xt, ret.clone()))?;
                Ok(ret.apply(ctx))
            }
        }
    }

    /// Parse an expression from DreamCoder-style surface syntax:
    /// `(lambda (+ $0 1))`, `(map (lambda (* $0 $0)) $0)`, `#(...)` for
    /// inline inventions.
    ///
    /// # Errors
    /// Returns [`ParseError`] on malformed syntax, unknown primitive names,
    /// or a program nested deeper than [`MAX_DEPTH`].
    pub fn parse(src: &str, lookup: &dyn PrimitiveLookup) -> Result<Expr, ParseError> {
        let tokens = tokenize(src)?;
        let mut pos = 0;
        let (expr, _) = parse_expr(&tokens, &mut pos, lookup, 0)?;
        if pos != tokens.len() {
            return Err(ParseError::new(format!(
                "trailing tokens after expression: {:?}",
                &tokens[pos..]
            )));
        }
        Ok(expr)
    }
}

fn b_max(a: usize, b: usize) -> usize {
    if a > b {
        a
    } else {
        b
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Index(i) => write!(f, "${i}"),
            Expr::Primitive(p) => write!(f, "{}", p.name),
            Expr::Invented(inv) => write!(f, "{}", inv.name),
            Expr::Abstraction(b) => write!(f, "(lambda {b})"),
            Expr::Application(_, _) => {
                // Print the whole application spine in one set of parens.
                let mut spine = Vec::new();
                let mut cur = self;
                while let Expr::Application(g, x) = cur {
                    spine.push(&**x);
                    cur = g;
                }
                write!(f, "({cur}")?;
                for arg in spine.iter().rev() {
                    write!(f, " {arg}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Resolves primitive and invention names during parsing.
pub trait PrimitiveLookup {
    /// Look up a primitive by surface name.
    fn primitive(&self, name: &str) -> Option<Arc<Primitive>>;
    /// Look up an invented routine by surface name (e.g. `f3`).
    fn invented(&self, _name: &str) -> Option<Arc<Invented>> {
        None
    }
}

/// A simple lookup over a slice of primitives.
impl PrimitiveLookup for [Arc<Primitive>] {
    fn primitive(&self, name: &str) -> Option<Arc<Primitive>> {
        self.iter().find(|p| p.name == name).cloned()
    }
}

impl PrimitiveLookup for Vec<Arc<Primitive>> {
    fn primitive(&self, name: &str) -> Option<Arc<Primitive>> {
        self.as_slice().primitive(name)
    }
}

fn tokenize(src: &str) -> Result<Vec<String>, ParseError> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(c.to_string());
            }
            '\'' => {
                // Quoted string constant token: 'text'
                let mut s = String::from("'");
                for c2 in chars.by_ref() {
                    if c2 == '\'' {
                        break;
                    }
                    s.push(c2);
                }
                s.push('\'');
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(s);
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    if tokens.is_empty() {
        return Err(ParseError::new("empty input"));
    }
    Ok(tokens)
}

/// Parse one expression sitting `nesting` brackets deep and return it with
/// its height. Both are bounded by [`MAX_DEPTH`]: nesting bounds this
/// recursion, and height bounds every later recursion over the tree,
/// including a long application spine that the loop below builds flat.
fn parse_expr(
    tokens: &[String],
    pos: &mut usize,
    lookup: &dyn PrimitiveLookup,
    nesting: usize,
) -> Result<(Expr, usize), ParseError> {
    if nesting > MAX_DEPTH {
        return Err(too_deep());
    }
    let tok = tokens
        .get(*pos)
        .ok_or_else(|| ParseError::new("unexpected end of input"))?
        .clone();
    *pos += 1;
    let (expr, height) = match tok.as_str() {
        "(" => {
            let head = tokens
                .get(*pos)
                .ok_or_else(|| ParseError::new("unexpected end of input after ("))?;
            if head == "lambda" || head == "λ" {
                *pos += 1;
                let (body, height) = parse_expr(tokens, pos, lookup, nesting + 1)?;
                expect(tokens, pos, ")")?;
                (Expr::abstraction(body), height + 1)
            } else {
                let (mut expr, mut height) = parse_expr(tokens, pos, lookup, nesting + 1)?;
                loop {
                    let next = tokens
                        .get(*pos)
                        .ok_or_else(|| ParseError::new("unclosed ("))?;
                    if next == ")" {
                        *pos += 1;
                        break;
                    }
                    let (arg, arg_height) = parse_expr(tokens, pos, lookup, nesting + 1)?;
                    expr = Expr::application(expr, arg);
                    height = height.max(arg_height) + 1;
                    if height > MAX_DEPTH {
                        return Err(too_deep());
                    }
                }
                (expr, height)
            }
        }
        ")" => return Err(ParseError::new("unexpected )")),
        "#" => {
            // `#(...)` invention literal: the body is the next expression.
            let (body, height) = parse_expr(tokens, pos, lookup, nesting + 1)?;
            let name = format!("#{body}");
            let inv = Invented::new(&name, body)
                .map_err(|e| ParseError::new(format!("ill-typed invention: {e}")))?;
            (Expr::Invented(inv), height + 1)
        }
        _ => (parse_atom(&tok, lookup)?, 0),
    };
    if height > MAX_DEPTH {
        return Err(too_deep());
    }
    Ok((expr, height))
}

fn too_deep() -> ParseError {
    ParseError::new(format!("program nested deeper than {MAX_DEPTH}"))
}

fn expect(tokens: &[String], pos: &mut usize, want: &str) -> Result<(), ParseError> {
    match tokens.get(*pos) {
        Some(t) if t == want => {
            *pos += 1;
            Ok(())
        }
        other => Err(ParseError::new(format!(
            "expected {want:?}, found {other:?}"
        ))),
    }
}

fn parse_atom(tok: &str, lookup: &dyn PrimitiveLookup) -> Result<Expr, ParseError> {
    if let Some(rest) = tok.strip_prefix('$') {
        let i: usize = rest
            .parse()
            .map_err(|_| ParseError::new(format!("bad de Bruijn index {tok:?}")))?;
        return Ok(Expr::Index(i));
    }
    if let Some(p) = lookup.primitive(tok) {
        return Ok(Expr::Primitive(p));
    }
    if let Some(inv) = lookup.invented(tok) {
        return Ok(Expr::Invented(inv));
    }
    Err(ParseError::new(format!("unknown primitive {tok:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::base_primitives;
    use crate::types::{tint, tlist};

    fn parse(s: &str) -> Expr {
        Expr::parse(s, &base_primitives()).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for src in [
            "(lambda (+ $0 1))",
            "(lambda (map (lambda (+ $0 $0)) $0))",
            "(lambda (if (is-nil $0) nil (cdr $0)))",
            "(lambda (fold $0 nil (lambda (lambda (cons $1 $0)))))",
            "0",
            "(+ 1 1)",
        ] {
            let e = parse(src);
            assert_eq!(e.to_string(), src, "round trip failed for {src}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let prims = base_primitives();
        assert!(Expr::parse("(unknown-prim 1)", &prims).is_err());
        assert!(Expr::parse("(lambda", &prims).is_err());
        assert!(Expr::parse(")", &prims).is_err());
        assert!(Expr::parse("", &prims).is_err());
        assert!(Expr::parse("(+ 1 1) extra", &prims).is_err());
    }

    #[test]
    fn size_counts_nodes() {
        let e = parse("(lambda (+ $0 1))");
        // lambda, app(+,$0,1) = app(app(+,$0),1): 1 + (1+ (1+1+1) +1) = 6
        assert_eq!(e.size(), 6);
    }

    #[test]
    fn infer_simple_types() {
        let e = parse("(lambda (+ $0 1))");
        assert_eq!(
            e.infer().unwrap().canonicalize(),
            Type::arrow(tint(), tint())
        );
        let m = parse("(lambda (map (lambda (+ $0 $0)) $0))");
        assert_eq!(
            m.infer().unwrap().canonicalize(),
            Type::arrow(tlist(tint()), tlist(tint()))
        );
    }

    #[test]
    fn infer_rejects_ill_typed() {
        let e = parse("(+ 1 nil)");
        assert!(e.infer().is_err());
        let unbound = Expr::Index(3);
        assert!(unbound.infer().is_err());
    }

    #[test]
    fn free_indices_respect_binders() {
        let e = parse("(lambda ($0 $1 $3))");
        assert_eq!(e.free_indices(), vec![0, 2]);
        assert!(parse("(lambda $0)").is_closed());
    }

    #[test]
    fn shift_and_substitute() {
        let e = Expr::Index(0);
        assert_eq!(e.shift(2).unwrap(), Expr::Index(2));
        assert_eq!(Expr::Index(2).shift(-1).unwrap(), Expr::Index(1));
        assert!(Expr::Index(0).shift(-1).is_none());

        // ((lambda $0) x) beta-reduces to x
        let prims = base_primitives();
        let one = Expr::parse("1", &prims).unwrap();
        let id = Expr::abstraction(Expr::Index(0));
        let app = Expr::application(id, one.clone());
        assert_eq!(app.beta_normal_form(10).unwrap(), one);
    }

    #[test]
    fn beta_normal_form_of_k_combinator() {
        let prims = base_primitives();
        let k = Expr::parse("(lambda (lambda $1))", &prims).unwrap();
        let app = Expr::apply_all(
            k,
            [
                Expr::parse("0", &prims).unwrap(),
                Expr::parse("1", &prims).unwrap(),
            ],
        );
        assert_eq!(app.beta_normal_form(10).unwrap().to_string(), "0");
    }

    #[test]
    fn substitution_shifts_replacement_under_binders() {
        // (lambda ($1 $0)) with $0 := $5 (free var) must become
        // (lambda ($6 $0)): the replacement is shifted under the binder.
        let body = Expr::abstraction(Expr::application(Expr::Index(1), Expr::Index(0)));
        let result = body.substitute(0, &Expr::Index(5));
        assert_eq!(
            result,
            Expr::abstraction(Expr::application(Expr::Index(6), Expr::Index(0)))
        );
    }

    #[test]
    fn strip_inventions_expands() {
        let prims = base_primitives();
        let e = Expr::parse("(#(lambda (+ $0 $0)) 1)", &prims).unwrap();
        let stripped = e.strip_inventions();
        assert_eq!(stripped.to_string(), "((lambda (+ $0 $0)) 1)");
        assert_eq!(
            stripped.beta_normal_form(10).unwrap().to_string(),
            "(+ 1 1)"
        );
    }

    #[test]
    fn depth_and_subexpressions() {
        let e = parse("(+ (+ 1 1) 0)");
        assert!(e.depth() >= 3);
        assert_eq!(e.subexpressions().len(), e.size());
    }
}
