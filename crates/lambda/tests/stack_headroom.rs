//! Stack headroom for the evaluator's depth guard.
//!
//! Every thread in the workspace runs on the platform's default stack
//! (2 MiB for spawned threads). This test gives the worst-case evaluator
//! shapes half of that, 1 MiB, and checks that each one reaches
//! [`MAX_DEPTH`] and stops with `FuelExhausted` instead of overflowing. It
//! fails, by aborting, if evaluator frames or the constant grow past that
//! margin in an unoptimized build.

use dc_lambda::eval::{run_program, Value};
use dc_lambda::expr::Expr;
use dc_lambda::primitives::base_primitives;
use dc_lambda::{EvalError, MAX_DEPTH};

const HALF_DEFAULT_STACK: usize = 1024 * 1024;

/// Divergent `fix` recursions, one per way a recursive call can nest:
/// through `if`, a bare self-call, `fold`, `map` and an inline invention.
const SHAPES: [&str; 5] = [
    "(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ 1 ($1 $0))))) $0))",
    "(lambda (fix (lambda (lambda ($1 $0))) $0))",
    "(lambda (fix (lambda (lambda (fold $0 0 (lambda (lambda ($3 $2)))))) $0))",
    "(lambda (fix (lambda (lambda (car (map (lambda ($2 $1)) $0)))) $0))",
    "(lambda (fix (lambda (lambda (#(lambda (lambda ($1 $0))) $1 $0))) $0))",
];

#[test]
fn divergent_recursion_stops_at_max_depth_on_half_the_default_stack() {
    let prims = base_primitives();
    let programs: Vec<Expr> = SHAPES
        .iter()
        .map(|src| Expr::parse(src, &prims).unwrap())
        .collect();
    std::thread::Builder::new()
        .stack_size(HALF_DEFAULT_STACK)
        .spawn(move || {
            let inputs = [Value::list(vec![Value::Int(1), Value::Int(2)])];
            for (src, program) in SHAPES.iter().zip(&programs) {
                // Fuel far beyond what MAX_DEPTH levels burn: only the
                // depth guard can stop these.
                let result = run_program(program, &inputs, u64::MAX);
                assert_eq!(
                    result,
                    Err(EvalError::FuelExhausted),
                    "{src} should stop at depth {MAX_DEPTH}"
                );
            }
        })
        .expect("spawn 1 MiB thread")
        .join()
        .expect("headroom thread panicked");
}
