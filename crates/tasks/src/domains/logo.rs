//! The LOGO graphics domain (§5): inverse graphics, where each task is an
//! image and programs drive a simulated turtle/pen over a canvas.
//!
//! Substrate built here: the turtle machine (position, heading, pen
//! state, `embed` save/restore — the paper's "stack for saving/restoring
//! the pen state"), a segment rasterizer, and bitmap-exact likelihoods.
//! The paper's CNN image encoder is replaced by a downsampled-bitmap
//! featurizer (see DESIGN.md).

use std::collections::BTreeSet;
use std::sync::Arc;

use dc_lambda::error::EvalError;
use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::{Expr, Primitive};
use dc_lambda::primitives::{prim_int, PrimitiveSet};
use dc_lambda::types::{tint, Type};
use rand::RngCore;

use crate::domain::{held_out_split, Corpus, Domain, FEATURE_DIM};
use crate::task::{Task, TaskOracle};

/// Canvas resolution (pixels per side).
pub const CANVAS: usize = 32;
/// World coordinates covered by the canvas: `[-EXTENT, EXTENT]²`.
pub const EXTENT: f64 = 8.0;

/// A line segment drawn by the turtle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub from: (f64, f64),
    /// End point.
    pub to: (f64, f64),
}

/// The turtle-machine state threaded through LOGO programs.
#[derive(Debug, Clone)]
pub struct TurtleState {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Heading in radians (0 = +x axis).
    pub heading: f64,
    /// Is the pen down (drawing)?
    pub pen: bool,
    /// Segments drawn so far.
    pub segments: Vec<Segment>,
}

impl TurtleState {
    /// The initial state: origin, facing +x, pen down, blank canvas.
    pub fn new() -> TurtleState {
        TurtleState {
            x: 0.0,
            y: 0.0,
            heading: 0.0,
            pen: true,
            segments: Vec::new(),
        }
    }
}

impl Default for TurtleState {
    fn default() -> Self {
        TurtleState::new()
    }
}

fn turtle_value(t: TurtleState) -> Value {
    Value::opaque("turtle", t)
}

fn get_turtle(v: &Value) -> Result<TurtleState, EvalError> {
    Ok(v.as_opaque::<TurtleState>("turtle")?.clone())
}

/// Rasterize segments onto the `CANVAS²` bitmap: the set of lit pixels.
pub fn rasterize(segments: &[Segment]) -> BTreeSet<(u8, u8)> {
    let mut pixels = BTreeSet::new();
    let scale = CANVAS as f64 / (2.0 * EXTENT);
    for seg in segments {
        let dx = seg.to.0 - seg.from.0;
        let dy = seg.to.1 - seg.from.1;
        let len = (dx * dx + dy * dy).sqrt();
        let steps = ((len * scale * 2.0).ceil() as usize).max(1);
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let x = seg.from.0 + t * dx;
            let y = seg.from.1 + t * dy;
            let px = ((x + EXTENT) * scale).floor();
            let py = ((y + EXTENT) * scale).floor();
            if px >= 0.0 && py >= 0.0 && (px as usize) < CANVAS && (py as usize) < CANVAS {
                pixels.insert((px as u8, py as u8));
            }
        }
    }
    pixels
}

/// Downsample a pixel set to an 8×8 mean-occupancy grid (the recognition
/// model's view of the image).
pub fn bitmap_features(pixels: &BTreeSet<(u8, u8)>) -> Vec<f64> {
    let cell = CANVAS / 8;
    let mut grid = vec![0.0; FEATURE_DIM];
    for &(x, y) in pixels {
        let gx = (x as usize / cell).min(7);
        let gy = (y as usize / cell).min(7);
        grid[gy * 8 + gx] += 1.0;
    }
    let denom = (cell * cell) as f64;
    for g in &mut grid {
        *g /= denom;
    }
    grid
}

/// The `turtle` type.
pub fn tturtle() -> Type {
    Type::con0("turtle")
}
/// The `dist` type (lengths).
pub fn tdist() -> Type {
    Type::con0("dist")
}
/// The `angle` type.
pub fn tangle() -> Type {
    Type::con0("angle")
}

fn dist_value(d: f64) -> Value {
    Value::Real(d)
}

/// Run a `turtle -> turtle` function value on a state.
fn apply_turtle(
    ctx: &mut EvalCtx,
    f: &Value,
    state: TurtleState,
) -> Result<TurtleState, EvalError> {
    let out = ctx.apply(f.clone(), turtle_value(state))?;
    get_turtle(&out)
}

/// The LOGO base language: `fw`, `rt`, `pen-up`, `embed`, `logo-for`,
/// distance/angle constants and halving/doubling, plus small integers for
/// loop counts.
pub fn logo_primitives() -> PrimitiveSet {
    let mut s = PrimitiveSet::new();
    s.add(Primitive::function(
        "fw",
        Type::arrows(vec![tdist(), tturtle()], tturtle()),
        |args, _| {
            let d = args[0].as_real()?;
            let mut t = get_turtle(&args[1])?;
            let nx = t.x + d * t.heading.cos();
            let ny = t.y + d * t.heading.sin();
            if t.pen {
                t.segments.push(Segment {
                    from: (t.x, t.y),
                    to: (nx, ny),
                });
            }
            if t.segments.len() > 10_000 {
                return Err(EvalError::runtime("too many segments"));
            }
            t.x = nx;
            t.y = ny;
            Ok(turtle_value(t))
        },
    ))
    .add(Primitive::function(
        "rt",
        Type::arrows(vec![tangle(), tturtle()], tturtle()),
        |args, _| {
            let a = args[0].as_real()?;
            let mut t = get_turtle(&args[1])?;
            t.heading = (t.heading + a) % (2.0 * std::f64::consts::PI);
            Ok(turtle_value(t))
        },
    ))
    .add(Primitive::function(
        "pen-up",
        Type::arrows(
            vec![Type::arrow(tturtle(), tturtle()), tturtle()],
            tturtle(),
        ),
        |args, ctx| {
            let mut t = get_turtle(&args[1])?;
            let pen = t.pen;
            t.pen = false;
            let mut t2 = apply_turtle(ctx, &args[0], t)?;
            t2.pen = pen;
            Ok(turtle_value(t2))
        },
    ))
    .add(Primitive::function(
        "embed",
        Type::arrows(
            vec![Type::arrow(tturtle(), tturtle()), tturtle()],
            tturtle(),
        ),
        |args, ctx| {
            let t = get_turtle(&args[1])?;
            let (x, y, h, pen) = (t.x, t.y, t.heading, t.pen);
            let mut t2 = apply_turtle(ctx, &args[0], t)?;
            t2.x = x;
            t2.y = y;
            t2.heading = h;
            t2.pen = pen;
            Ok(turtle_value(t2))
        },
    ))
    .add(Primitive::function(
        "logo-for",
        Type::arrows(
            vec![tint(), Type::arrow(tturtle(), tturtle()), tturtle()],
            tturtle(),
        ),
        |args, ctx| {
            let n = args[0].as_int()?;
            if !(0..=64).contains(&n) {
                return Err(EvalError::runtime("logo-for count out of range"));
            }
            let mut t = get_turtle(&args[2])?;
            for _ in 0..n {
                ctx.burn(1)?;
                t = apply_turtle(ctx, &args[1], t)?;
            }
            Ok(turtle_value(t))
        },
    ))
    .add(Primitive::constant("unit-d", tdist(), dist_value(1.0)))
    .add(Primitive::function(
        "d-double",
        Type::arrow(tdist(), tdist()),
        |args, _| Ok(Value::Real(args[0].as_real()? * 2.0)),
    ))
    .add(Primitive::function(
        "d-half",
        Type::arrow(tdist(), tdist()),
        |args, _| Ok(Value::Real(args[0].as_real()? / 2.0)),
    ))
    .add(Primitive::constant(
        "a-quarter",
        tangle(),
        Value::Real(std::f64::consts::FRAC_PI_2),
    ))
    .add(Primitive::constant(
        "a-eighth",
        tangle(),
        Value::Real(std::f64::consts::FRAC_PI_4),
    ))
    .add(Primitive::constant(
        "a-third",
        tangle(),
        Value::Real(2.0 * std::f64::consts::PI / 3.0),
    ))
    .add(Primitive::function(
        "a-double",
        Type::arrow(tangle(), tangle()),
        |args, _| Ok(Value::Real(args[0].as_real()? * 2.0)),
    ))
    .add(Primitive::function(
        "a-half",
        Type::arrow(tangle(), tangle()),
        |args, _| Ok(Value::Real(args[0].as_real()? / 2.0)),
    ))
    .add(Primitive::function(
        "a-div",
        Type::arrows(vec![tangle(), tint()], tangle()),
        |args, _| {
            let n = args[1].as_int()?;
            if n <= 0 {
                return Err(EvalError::runtime("a-div by nonpositive"));
            }
            Ok(Value::Real(args[0].as_real()? / n as f64))
        },
    ))
    .add(Primitive::constant(
        "a-full",
        tangle(),
        Value::Real(2.0 * std::f64::consts::PI),
    ));
    for n in [1, 2, 3, 4, 5, 6, 7, 8] {
        s.add(prim_int(n));
    }
    s
}

/// Execute a `turtle -> turtle` program from the initial state.
///
/// # Errors
/// Propagates evaluation failures (fuel, type confusion).
pub fn run_logo_program(program: &Expr, fuel: u64) -> Result<TurtleState, EvalError> {
    let mut ctx = EvalCtx::with_fuel(fuel);
    let f = ctx.eval(program, &dc_lambda::eval::Env::new())?;
    apply_turtle(&mut ctx, &f, TurtleState::new())
}

/// Oracle comparing rasterized canvases exactly.
#[derive(Debug, Clone)]
pub struct LogoOracle {
    /// The target image.
    pub target: BTreeSet<(u8, u8)>,
}

impl TaskOracle for LogoOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        match run_logo_program(program, 100_000) {
            Ok(state) if rasterize(&state.segments) == self.target => 0.0,
            _ => f64::NEG_INFINITY,
        }
    }
}

/// A task whose image is `target`.
fn image_task(name: &str, request: Type, target: BTreeSet<(u8, u8)>) -> Task {
    Task {
        name: name.to_owned(),
        request,
        features: bitmap_features(&target),
        oracle: Arc::new(LogoOracle { target }),
        examples: Vec::new(),
    }
}

/// The LOGO inverse-graphics domain.
pub struct LogoDomain {
    corpus: Corpus,
}

/// The ground-truth programs whose renders form the task corpus —
/// polygons, lines, staircases, dashed figures, radial arrangements
/// (cf. Fig 8A's task gallery).
pub fn ground_truth_programs() -> Vec<(&'static str, String)> {
    let mut progs: Vec<(&'static str, String)> = vec![
        ("line", "(lambda (fw unit-d $0))".into()),
        ("long line", "(lambda (fw (d-double (d-double unit-d)) $0))".into()),
        ("right angle", "(lambda (fw unit-d (rt a-quarter (fw unit-d $0))))".into()),
        (
            "dashed line",
            "(lambda (logo-for 3 (lambda (fw unit-d (pen-up (lambda (fw unit-d $0)) $0))) $0))"
                .into(),
        ),
        (
            "staircase 3",
            "(lambda (logo-for 3 (lambda (fw unit-d (rt a-quarter (fw unit-d (rt (a-double (a-half a-quarter)) ... $0))))) $0))".into(),
        ),
    ];
    // Regular polygons with n sides: for n (fw 1; rt 2π/n).
    for (name, n) in [
        ("triangle", 3),
        ("square", 4),
        ("pentagon", 5),
        ("hexagon", 6),
        ("octagon", 8),
    ] {
        progs.push((
            name,
            format!("(lambda (logo-for {n} (lambda (rt (a-div a-full {n}) (fw unit-d $0))) $0))"),
        ));
    }
    // Small and double-sized squares.
    progs.push((
        "big square",
        "(lambda (logo-for 4 (lambda (rt (a-div a-full 4) (fw (d-double unit-d) $0))) $0))".into(),
    ));
    // A row of squares (embed + pen-up hop).
    progs.push((
        "two squares in a row",
        "(lambda (logo-for 2 (lambda (pen-up (lambda (fw (d-double unit-d) $0)) (embed (lambda (logo-for 4 (lambda (rt (a-div a-full 4) (fw unit-d $0))) $0)) $0))) $0))".into(),
    ));
    // Radial symmetry: spokes.
    progs.push((
        "four spokes",
        "(lambda (logo-for 4 (lambda (rt a-quarter (embed (lambda (fw unit-d $0)) $0))) $0))"
            .into(),
    ));
    progs.push((
        "eight spokes",
        "(lambda (logo-for 8 (lambda (rt a-eighth (embed (lambda (fw unit-d $0)) $0))) $0))".into(),
    ));
    // Staircase.
    progs.push((
        "staircase",
        "(lambda (logo-for 3 (lambda (fw unit-d (rt a-quarter (fw unit-d (rt (a-div a-full 4) (rt a-quarter (rt a-quarter $0))))))) $0))".into(),
    ));
    // Zigzag.
    progs.push((
        "zigzag",
        "(lambda (logo-for 3 (lambda (rt a-eighth (fw unit-d (rt (a-double (a-double a-eighth)) (fw unit-d (rt a-eighth (rt a-full $0))))))) $0))".into(),
    ));
    // Triangle fan (radially repeated triangles) — Fig 8's flower-like shapes.
    progs.push((
        "triangle fan",
        "(lambda (logo-for 4 (lambda (rt a-quarter (embed (lambda (logo-for 3 (lambda (rt (a-div a-full 3) (fw unit-d $0))) $0)) $0))) $0))".into(),
    ));
    progs.retain(|(_, src)| !src.contains("..."));
    progs
}

impl LogoDomain {
    /// Build the domain: renders each ground-truth program to make its
    /// task; even indices train, odd test.
    pub fn new(_seed: u64) -> LogoDomain {
        let primitives = logo_primitives();
        let (train, test) = held_out_split(ground_truth_programs(), 1, |(name, src)| {
            let program = Expr::parse(src, &primitives)
                .unwrap_or_else(|e| panic!("bad ground-truth LOGO program {name}: {e}"));
            let state = run_logo_program(&program, 200_000)
                .unwrap_or_else(|e| panic!("ground-truth LOGO program {name} crashed: {e}"));
            let target = rasterize(&state.segments);
            assert!(
                !target.is_empty(),
                "ground-truth LOGO program {name} draws nothing"
            );
            image_task(name, Type::arrow(tturtle(), tturtle()), target)
        });
        LogoDomain {
            corpus: Corpus {
                name: "logo",
                primitives,
                train,
                test,
                dream_requests: vec![Type::arrow(tturtle(), tturtle())],
            },
        }
    }
}

impl Domain for LogoDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, _rng: &mut dyn RngCore) -> Option<Task> {
        let state = run_logo_program(program, 50_000).ok()?;
        let target = rasterize(&state.segments);
        (target.len() >= 3).then(|| image_task("dream", request.clone(), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_draws_four_segments_and_returns_home() {
        let prims = logo_primitives();
        let square = Expr::parse(
            "(lambda (logo-for 4 (lambda (rt (a-div a-full 4) (fw unit-d $0))) $0))",
            &prims,
        )
        .unwrap();
        let state = run_logo_program(&square, 100_000).unwrap();
        assert_eq!(state.segments.len(), 4);
        assert!(
            state.x.abs() < 1e-9 && state.y.abs() < 1e-9,
            "square should close"
        );
    }

    #[test]
    fn pen_up_suppresses_drawing_and_restores_pen() {
        let prims = logo_primitives();
        let p = Expr::parse(
            "(lambda (fw unit-d (pen-up (lambda (fw unit-d $0)) (fw unit-d $0))))",
            &prims,
        )
        .unwrap();
        let state = run_logo_program(&p, 100_000).unwrap();
        // Drawn, hopped, drawn: two segments, displacement three units.
        assert_eq!(state.segments.len(), 2);
        assert!((state.x - 3.0).abs() < 1e-9);
    }

    #[test]
    fn embed_restores_position() {
        let prims = logo_primitives();
        let p = Expr::parse("(lambda (embed (lambda (fw unit-d $0)) $0))", &prims).unwrap();
        let state = run_logo_program(&p, 100_000).unwrap();
        assert_eq!(state.segments.len(), 1);
        assert!(state.x.abs() < 1e-9);
    }

    #[test]
    fn rasterization_is_deterministic_and_nonempty() {
        let segs = [Segment {
            from: (0.0, 0.0),
            to: (3.0, 0.0),
        }];
        let a = rasterize(&segs);
        let b = rasterize(&segs);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let f = bitmap_features(&a);
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn domain_tasks_accept_their_ground_truth() {
        let d = LogoDomain::new(0);
        assert!(d.train_tasks().len() + d.test_tasks().len() >= 10);
        let by_name: std::collections::HashMap<&str, &Task> = d
            .train_tasks()
            .iter()
            .chain(d.test_tasks())
            .map(|t| (t.name.as_str(), t))
            .collect();
        for (name, src) in ground_truth_programs() {
            if let Some(task) = by_name.get(name) {
                let program = Expr::parse(&src, d.primitives()).unwrap();
                assert!(task.check(&program), "{name} rejects its own ground truth");
            }
        }
    }

    #[test]
    fn different_shapes_are_distinguished() {
        let d = LogoDomain::new(0);
        let prims = d.primitives();
        let square = Expr::parse(
            "(lambda (logo-for 4 (lambda (rt (a-div a-full 4) (fw unit-d $0))) $0))",
            prims,
        )
        .unwrap();
        let triangle = Expr::parse(
            "(lambda (logo-for 3 (lambda (rt (a-div a-full 3) (fw unit-d $0))) $0))",
            prims,
        )
        .unwrap();
        let all: Vec<&Task> = d.train_tasks().iter().chain(d.test_tasks()).collect();
        let sq_task = all.iter().find(|t| t.name == "square").unwrap();
        assert!(sq_task.check(&square));
        assert!(!sq_task.check(&triangle));
    }

    #[test]
    fn infinite_logo_programs_fail_cleanly() {
        let prims = logo_primitives();
        // for-loop counts are bounded; a huge repetition is an error, not a hang.
        let p = Expr::parse(
            "(lambda (logo-for 8 (lambda (logo-for 8 (lambda (logo-for 8 (lambda (logo-for 8 (lambda (logo-for 8 (lambda (fw unit-d $0)) $0)) $0)) $0)) $0)) $0))",
            &prims,
        )
        .unwrap();
        // 8^5 = 32768 iterations: must terminate (fuel or segment cap), not hang.
        let r = run_logo_program(&p, 50_000);
        assert!(r.is_err());
    }
}
