//! Fuel-limited call-by-value evaluation of λ-expressions.
//!
//! Random programs sampled during dreaming routinely diverge (infinite
//! `fix` recursion, exponential blowups), so every evaluation carries a
//! step budget and aborts cleanly when it is exhausted.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::{Expr, Primitive, Semantics};
use crate::MAX_DEPTH;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// Machine integer.
    Int(i64),
    /// Floating point number (symbolic regression / physics).
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// Character (text domain).
    Char(char),
    /// String (text domain).
    Str(Arc<str>),
    /// Homogeneous list.
    List(Arc<Vec<Value>>),
    /// A λ-abstraction closed over its environment.
    Closure {
        /// The abstraction body.
        body: Arc<Expr>,
        /// Captured environment.
        env: Env,
    },
    /// A primitive partially applied to fewer arguments than its arity.
    Partial {
        /// The primitive being applied.
        prim: Arc<Primitive>,
        /// Arguments collected so far (≤ arity).
        args: Vec<Value>,
    },
    /// A domain-specific opaque value (turtle state, tower state, regex...).
    Opaque {
        /// Domain tag, e.g. `"logo"`.
        tag: &'static str,
        /// The payload; domains downcast it.
        data: Arc<dyn Any + Send + Sync>,
    },
}

impl Value {
    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Build an opaque domain value.
    pub fn opaque<T: Any + Send + Sync>(tag: &'static str, data: T) -> Value {
        Value::Opaque {
            tag,
            data: Arc::new(data),
        }
    }

    /// Extract an integer.
    ///
    /// # Errors
    /// Type error if the value is not an [`Value::Int`].
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(EvalError::type_error("int", other)),
        }
    }

    /// Extract a real; integers are promoted.
    ///
    /// # Errors
    /// Type error if the value is not numeric.
    pub fn as_real(&self) -> Result<f64, EvalError> {
        match self {
            Value::Real(r) => Ok(*r),
            Value::Int(i) => Ok(*i as f64),
            other => Err(EvalError::type_error("real", other)),
        }
    }

    /// Extract a boolean.
    ///
    /// # Errors
    /// Type error if the value is not a [`Value::Bool`].
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::type_error("bool", other)),
        }
    }

    /// Extract a character.
    ///
    /// # Errors
    /// Type error if the value is not a [`Value::Char`].
    pub fn as_char(&self) -> Result<char, EvalError> {
        match self {
            Value::Char(c) => Ok(*c),
            other => Err(EvalError::type_error("char", other)),
        }
    }

    /// Extract a string slice.
    ///
    /// # Errors
    /// Type error if the value is not a [`Value::Str`].
    pub fn as_str(&self) -> Result<&str, EvalError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(EvalError::type_error("str", other)),
        }
    }

    /// Extract a list.
    ///
    /// # Errors
    /// Type error if the value is not a [`Value::List`].
    pub fn as_list(&self) -> Result<&[Value], EvalError> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(EvalError::type_error("list", other)),
        }
    }

    /// Downcast an opaque value with the given tag.
    ///
    /// # Errors
    /// Type error on tag or payload-type mismatch.
    pub fn as_opaque<T: Any + Send + Sync>(&self, want_tag: &'static str) -> Result<&T, EvalError> {
        match self {
            Value::Opaque { tag, data } if *tag == want_tag => data
                .downcast_ref::<T>()
                .ok_or_else(|| EvalError::type_error(want_tag, self)),
            other => Err(EvalError::type_error(want_tag, other)),
        }
    }

    /// A short tag naming the runtime kind of this value (for diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Bool(_) => "bool",
            Value::Char(_) => "char",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Closure { .. } => "closure",
            Value::Partial { .. } => "partial",
            Value::Opaque { tag, .. } => tag,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Char(c) => write!(f, "{c:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(l) => f.debug_list().entries(l.iter()).finish(),
            Value::Closure { body, .. } => write!(f, "<closure {body}>"),
            Value::Partial { prim, args } => {
                write!(
                    f,
                    "<{}/{} applied to {}>",
                    prim.name,
                    prim.arity(),
                    args.len()
                )
            }
            Value::Opaque { tag, .. } => write!(f, "<{tag}>"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan()),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Opaque { tag: t1, data: d1 }, Value::Opaque { tag: t2, data: d2 }) => {
                t1 == t2 && Arc::ptr_eq(d1, d2)
            }
            _ => false,
        }
    }
}

/// A persistent environment: a cons-list of values, innermost binding first.
#[derive(Clone, Default)]
pub struct Env(Option<Arc<EnvNode>>);

struct EnvNode {
    head: Value,
    tail: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Extend with a new innermost binding. O(1); shares the tail.
    pub fn push(&self, v: Value) -> Env {
        Env(Some(Arc::new(EnvNode {
            head: v,
            tail: self.clone(),
        })))
    }

    /// Look up de Bruijn index `i`.
    pub fn lookup(&self, i: usize) -> Option<&Value> {
        let mut cur = self;
        let mut i = i;
        loop {
            let node = cur.0.as_deref()?;
            if i == 0 {
                return Some(&node.head);
            }
            i -= 1;
            cur = &node.tail;
        }
    }

    /// Number of bindings (O(n), for diagnostics).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = cur.0.as_deref() {
            n += 1;
            cur = &node.tail;
        }
        n
    }

    /// True when no bindings are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<env of {} bindings>", self.len())
    }
}

/// Evaluation context: the remaining fuel plus output-size guards.
#[derive(Debug)]
pub struct EvalCtx {
    fuel: u64,
    /// Native recursion depth, bounded by [`MAX_DEPTH`] so that deep `fix`
    /// unrollings stop before they overflow the stack.
    depth: usize,
    /// Maximum length of any list built during evaluation.
    pub max_list_len: usize,
    /// Maximum length of any string built during evaluation.
    pub max_str_len: usize,
}

impl EvalCtx {
    /// A context with the given step budget.
    pub fn with_fuel(fuel: u64) -> EvalCtx {
        EvalCtx {
            fuel,
            depth: 0,
            max_list_len: 10_000,
            max_str_len: 10_000,
        }
    }

    fn enter(&mut self) -> Result<(), EvalError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(EvalError::FuelExhausted)
        } else {
            Ok(())
        }
    }

    fn exit(&mut self) {
        self.depth -= 1;
    }

    /// Remaining fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Consume `n` fuel.
    ///
    /// # Errors
    /// [`EvalError::FuelExhausted`] when the budget runs out.
    pub fn burn(&mut self, n: u64) -> Result<(), EvalError> {
        if self.fuel < n {
            self.fuel = 0;
            Err(EvalError::FuelExhausted)
        } else {
            self.fuel -= n;
            Ok(())
        }
    }

    /// Evaluate an expression in an environment.
    ///
    /// # Errors
    /// Any runtime failure: fuel exhaustion, type confusion inside
    /// primitives, partial operations on empty data, etc.
    pub fn eval(&mut self, expr: &Expr, env: &Env) -> Result<Value, EvalError> {
        self.enter()?;
        let result = self.eval_inner(expr, env);
        self.exit();
        result
    }

    fn eval_inner(&mut self, expr: &Expr, env: &Env) -> Result<Value, EvalError> {
        self.burn(1)?;
        match expr {
            Expr::Index(i) => env
                .lookup(*i)
                .cloned()
                .ok_or_else(|| EvalError::runtime(format!("unbound index ${i}"))),
            Expr::Primitive(p) => self.primitive_value(p),
            Expr::Invented(inv) => {
                // Inventions are closed, so evaluate under the empty env.
                self.eval(&inv.body, &Env::new())
            }
            Expr::Abstraction(b) => Ok(Value::Closure {
                body: Arc::clone(b),
                env: env.clone(),
            }),
            Expr::Application(_, _) => {
                // Collect the application spine for lazy control primitives.
                let mut spine = Vec::new();
                let mut cur = expr;
                while let Expr::Application(f, x) = cur {
                    spine.push(&**x);
                    cur = f;
                }
                spine.reverse();
                // `if` is the one lazy form: evaluate its condition first.
                if let Expr::Primitive(p) = cur {
                    if matches!(p.sem, Semantics::If) && spine.len() >= 3 {
                        let cond = self.eval(spine[0], env)?.as_bool()?;
                        let branch = if cond { spine[1] } else { spine[2] };
                        let mut result = self.eval(branch, env)?;
                        for extra in &spine[3..] {
                            let arg = self.eval(extra, env)?;
                            result = self.apply(result, arg)?;
                        }
                        return Ok(result);
                    }
                }
                let mut fun = self.eval(cur, env)?;
                for arg_expr in &spine {
                    let arg = self.eval(arg_expr, env)?;
                    fun = self.apply(fun, arg)?;
                }
                Ok(fun)
            }
        }
    }

    fn primitive_value(&mut self, p: &Arc<Primitive>) -> Result<Value, EvalError> {
        match &p.sem {
            Semantics::Constant(v) => Ok(v.clone()),
            _ => Ok(Value::Partial {
                prim: Arc::clone(p),
                args: Vec::new(),
            }),
        }
    }

    /// Apply a function value to an argument value.
    ///
    /// # Errors
    /// Fails when `fun` is not a function, or when saturated primitive
    /// semantics fail.
    pub fn apply(&mut self, fun: Value, arg: Value) -> Result<Value, EvalError> {
        self.enter()?;
        let result = self.apply_inner(fun, arg);
        self.exit();
        result
    }

    fn apply_inner(&mut self, fun: Value, arg: Value) -> Result<Value, EvalError> {
        self.burn(1)?;
        match fun {
            Value::Closure { body, env } => self.eval(&body, &env.push(arg)),
            Value::Partial { prim, mut args } => {
                args.push(arg);
                if args.len() < prim.arity() {
                    return Ok(Value::Partial { prim, args });
                }
                match &prim.sem {
                    Semantics::Constant(_) => {
                        Err(EvalError::runtime("applied a constant primitive"))
                    }
                    Semantics::Function(f) => f(&args, self),
                    Semantics::If => {
                        // Reached only when `if` escapes first-order position
                        // (e.g. passed to map); args are already evaluated.
                        let cond = args[0].as_bool()?;
                        Ok(if cond {
                            args[1].clone()
                        } else {
                            args[2].clone()
                        })
                    }
                    Semantics::Fix => {
                        // (fix f) x  =  f (fix f) x
                        self.burn(1)?;
                        let f = args[0].clone();
                        let x = args[1].clone();
                        let recur = Value::Partial {
                            prim: Arc::clone(&prim),
                            args: vec![f.clone()],
                        };
                        let step = self.apply(f, recur)?;
                        self.apply(step, x)
                    }
                }
            }
            other => Err(EvalError::type_error("function", &other)),
        }
    }

    /// Evaluate a closed program applied to the given input values.
    ///
    /// # Errors
    /// See [`EvalCtx::eval`].
    pub fn run(&mut self, program: &Expr, inputs: &[Value]) -> Result<Value, EvalError> {
        // Cached handles: wake search runs every enumerated program on
        // each task of its group, so a registry lookup per run shows in
        // the ≤5% instrumentation budget (DESIGN.md §10).
        use dc_telemetry::CachedCounter;
        static RUNS: CachedCounter = CachedCounter::new("eval.runs");
        static FUEL_EXHAUSTED: CachedCounter = CachedCounter::new("eval.fuel_exhausted");
        static ERRORS: CachedCounter = CachedCounter::new("eval.errors");
        let result = self.run_inner(program, inputs);
        RUNS.incr();
        match &result {
            Ok(_) => {}
            Err(EvalError::FuelExhausted) => FUEL_EXHAUSTED.incr(),
            Err(_) => ERRORS.incr(),
        }
        result
    }

    fn run_inner(&mut self, program: &Expr, inputs: &[Value]) -> Result<Value, EvalError> {
        let mut v = self.eval(program, &Env::new())?;
        for inp in inputs {
            v = self.apply(v, inp.clone())?;
        }
        Ok(v)
    }
}

/// Convenience: run `program` on `inputs` with a fresh budget of `fuel`.
///
/// # Errors
/// See [`EvalCtx::eval`].
pub fn run_program(program: &Expr, inputs: &[Value], fuel: u64) -> Result<Value, EvalError> {
    EvalCtx::with_fuel(fuel).run(program, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::base_primitives;

    fn run(src: &str, inputs: &[Value]) -> Result<Value, EvalError> {
        let e = Expr::parse(src, &base_primitives()).unwrap();
        run_program(&e, inputs, 100_000)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("(+ 1 1)", &[]).unwrap(), Value::Int(2));
        assert_eq!(
            run("(* (+ 1 1) (+ 1 (+ 1 1)))", &[]).unwrap(),
            Value::Int(6)
        );
        assert_eq!(run("(- 0 1)", &[]).unwrap(), Value::Int(-1));
    }

    #[test]
    fn conditional_is_lazy() {
        // The dead branch divides by zero; laziness means no error.
        assert_eq!(run("(if true 1 (mod 1 0))", &[]).unwrap(), Value::Int(1));
        assert!(run("(if false 1 (mod 1 0))", &[]).is_err());
    }

    #[test]
    fn map_over_list() {
        let input = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let out = run("(lambda (map (lambda (+ $0 $0)) $0))", &[input]).unwrap();
        assert_eq!(
            out,
            Value::list(vec![Value::Int(2), Value::Int(4), Value::Int(6)])
        );
    }

    #[test]
    fn fold_builds_sum() {
        let input = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let out = run("(lambda (fold $0 0 (lambda (lambda (+ $0 $1)))))", &[input]).unwrap();
        assert_eq!(out, Value::Int(6));
    }

    #[test]
    fn fix_computes_recursion() {
        // length via fix: fix (\r l -> if nil? l then 0 else 1 + r (cdr l))
        let src = "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ 1 ($1 (cdr $0)))))) $0))";
        let input = Value::list(vec![Value::Int(5), Value::Int(5), Value::Int(5)]);
        assert_eq!(run(src, &[input]).unwrap(), Value::Int(3));
    }

    #[test]
    fn infinite_recursion_exhausts_fuel() {
        let src = "(lambda (fix (lambda (lambda ($1 $0))) $0))";
        let e = Expr::parse(src, &base_primitives()).unwrap();
        let err = run_program(&e, &[Value::Int(0)], 10_000).unwrap_err();
        assert!(matches!(err, EvalError::FuelExhausted));
    }

    #[test]
    fn car_of_empty_list_errors() {
        let empty = Value::list(vec![]);
        assert!(run("(lambda (car $0))", &[empty]).is_err());
    }

    #[test]
    fn env_lookup_and_sharing() {
        let env = Env::new().push(Value::Int(1)).push(Value::Int(2));
        assert_eq!(env.lookup(0), Some(&Value::Int(2)));
        assert_eq!(env.lookup(1), Some(&Value::Int(1)));
        assert_eq!(env.lookup(2), None);
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert!(Env::new().is_empty());
    }

    #[test]
    fn value_equality_semantics() {
        assert_eq!(Value::Real(1.0), Value::Real(1.0 + 1e-12));
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_eq!(Value::str("ab"), Value::str("ab"));
    }

    #[test]
    fn higher_order_primitive_value() {
        // Pass `+` itself to a function.
        let out = run("((lambda ($0 1 1)) +)", &[]).unwrap();
        assert_eq!(out, Value::Int(2));
    }

    #[test]
    fn partial_application_is_a_value() {
        let out = run("(map (+ 1) (cons 0 (cons 1 nil)))", &[]).unwrap();
        assert_eq!(out, Value::list(vec![Value::Int(1), Value::Int(2)]));
    }
}
