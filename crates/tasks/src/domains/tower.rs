//! The block-towers domain (§5): planning problems where programs steer a
//! simulated hand that drops blocks onto a stage (the classic AI "copy
//! demo" — see Fig 9). Substrate built here: the stage simulator with
//! drop-to-rest stacking physics, hand movement, and `t-embed`
//! save/restore of the hand position.

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

/// A placed block: x position of its left edge, orientation, and the
/// height its bottom rests at (computed by the drop physics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Block {
    /// Left edge of the block.
    pub x: i64,
    /// Bottom height.
    pub y: i64,
    /// `true` = horizontal (3 wide × 1 tall); `false` = vertical (1 × 3).
    pub horizontal: bool,
}

impl Block {
    /// Width of the block.
    pub fn width(&self) -> i64 {
        if self.horizontal {
            3
        } else {
            1
        }
    }
    /// Height of the block.
    pub fn height(&self) -> i64 {
        if self.horizontal {
            1
        } else {
            3
        }
    }
}

/// The tower-building machine state.
#[derive(Debug, Clone, Default)]
pub struct TowerState {
    /// Hand x position.
    pub hand: i64,
    /// Blocks placed so far.
    pub blocks: Vec<Block>,
}

impl TowerState {
    /// Empty stage with the hand at the origin.
    pub fn new() -> TowerState {
        TowerState::default()
    }

    /// Drop a block at the hand: it rests on the ground or the highest
    /// block whose footprint overlaps.
    pub fn drop_block(&mut self, horizontal: bool) -> Result<(), EvalError> {
        if self.blocks.len() > 200 {
            return Err(EvalError::runtime("too many blocks"));
        }
        let mut b = Block {
            x: self.hand,
            y: 0,
            horizontal,
        };
        let (l, r) = (b.x, b.x + b.width());
        let rest = self
            .blocks
            .iter()
            .filter(|other| {
                let (ol, or) = (other.x, other.x + other.width());
                l < or && ol < r
            })
            .map(|other| other.y + other.height())
            .max()
            .unwrap_or(0);
        b.y = rest;
        self.blocks.push(b);
        Ok(())
    }

    /// The canonical (order-independent) block set.
    pub fn block_set(&self) -> BTreeSet<Block> {
        self.blocks.iter().copied().collect()
    }
}

fn tower_value(t: TowerState) -> Value {
    Value::opaque("tower", t)
}

fn get_tower(v: &Value) -> Result<TowerState, EvalError> {
    Ok(v.as_opaque::<TowerState>("tower")?.clone())
}

/// The `tower` machine-state type.
pub fn ttower() -> Type {
    Type::con0("tower")
}

fn apply_tower(ctx: &mut EvalCtx, f: &Value, state: TowerState) -> Result<TowerState, EvalError> {
    let out = ctx.apply(f.clone(), tower_value(state))?;
    get_tower(&out)
}

/// The towers base language: place-h/place-v, hand moves, loop, embed,
/// small integers (the same control flow as LOGO, per §5).
pub fn tower_primitives() -> PrimitiveSet {
    let mut s = PrimitiveSet::new();
    s.add(Primitive::function(
        "place-h",
        Type::arrow(ttower(), ttower()),
        |args, _| {
            let mut t = get_tower(&args[0])?;
            t.drop_block(true)?;
            Ok(tower_value(t))
        },
    ))
    .add(Primitive::function(
        "place-v",
        Type::arrow(ttower(), ttower()),
        |args, _| {
            let mut t = get_tower(&args[0])?;
            t.drop_block(false)?;
            Ok(tower_value(t))
        },
    ))
    .add(Primitive::function(
        "t-right",
        Type::arrows(vec![tint(), ttower()], ttower()),
        |args, _| {
            let n = args[0].as_int()?;
            let mut t = get_tower(&args[1])?;
            t.hand += n;
            if t.hand.abs() > 100 {
                return Err(EvalError::runtime("hand off stage"));
            }
            Ok(tower_value(t))
        },
    ))
    .add(Primitive::function(
        "t-left",
        Type::arrows(vec![tint(), ttower()], ttower()),
        |args, _| {
            let n = args[0].as_int()?;
            let mut t = get_tower(&args[1])?;
            t.hand -= n;
            if t.hand.abs() > 100 {
                return Err(EvalError::runtime("hand off stage"));
            }
            Ok(tower_value(t))
        },
    ))
    .add(Primitive::function(
        "t-for",
        Type::arrows(
            vec![tint(), Type::arrow(ttower(), ttower()), ttower()],
            ttower(),
        ),
        |args, ctx| {
            let n = args[0].as_int()?;
            if !(0..=32).contains(&n) {
                return Err(EvalError::runtime("t-for count out of range"));
            }
            let mut t = get_tower(&args[2])?;
            for _ in 0..n {
                ctx.burn(1)?;
                t = apply_tower(ctx, &args[1], t)?;
            }
            Ok(tower_value(t))
        },
    ))
    .add(Primitive::function(
        "t-embed",
        Type::arrows(vec![Type::arrow(ttower(), ttower()), ttower()], ttower()),
        |args, ctx| {
            let t = get_tower(&args[1])?;
            let hand = t.hand;
            let mut t2 = apply_tower(ctx, &args[0], t)?;
            t2.hand = hand;
            Ok(tower_value(t2))
        },
    ));
    for n in [1, 2, 3, 4, 5, 6] {
        s.add(prim_int(n));
    }
    s
}

/// Execute a `tower -> tower` program on the empty stage.
///
/// # Errors
/// Propagates evaluation failures.
pub fn run_tower_program(program: &Expr, fuel: u64) -> Result<TowerState, EvalError> {
    let mut ctx = EvalCtx::with_fuel(fuel);
    let f = ctx.eval(program, &dc_lambda::eval::Env::new())?;
    apply_tower(&mut ctx, &f, TowerState::new())
}

/// Oracle: exact match of the resulting block configuration (the paper's
/// tower "copy task").
#[derive(Debug, Clone)]
pub struct TowerOracle {
    /// Target block configuration.
    pub target: BTreeSet<Block>,
}

impl TaskOracle for TowerOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        match run_tower_program(program, 100_000) {
            Ok(state) if state.block_set() == self.target => 0.0,
            _ => f64::NEG_INFINITY,
        }
    }
}

/// Coarse occupancy-grid featurization of a block configuration.
pub fn tower_features(target: &BTreeSet<Block>) -> Vec<f64> {
    let mut grid = vec![0.0; FEATURE_DIM];
    for b in target {
        for dx in 0..b.width() {
            for dy in 0..b.height() {
                let gx = ((b.x + dx + 16).clamp(0, 31) / 4) as usize;
                let gy = ((b.y + dy).clamp(0, 31) / 4) as usize;
                grid[gy * 8 + gx] += 0.25;
            }
        }
    }
    grid
}

/// Ground-truth tower plans: walls, arches, bridges, staircases (Fig 9).
pub fn ground_truth_programs() -> Vec<(&'static str, String)> {
    let arch = "(t-embed (lambda (place-h (t-left 2 (place-v (t-right 2 (place-v $0)))))) $0)";
    vec![
        ("single block", "(lambda (place-h $0))".into()),
        ("two stacked", "(lambda (place-h (place-h $0)))".into()),
        ("tower of four", "(lambda (t-for 4 (lambda (place-h $0)) $0))".into()),
        ("vertical post", "(lambda (place-v $0))".into()),
        ("arch", format!("(lambda {arch})")),
        (
            "two arches",
            format!(
                "(lambda (t-for 2 (lambda (t-right 4 {arch})) $0))"
            ),
        ),
        (
            "three arches",
            format!(
                "(lambda (t-for 3 (lambda (t-right 4 {arch})) $0))"
            ),
        ),
        (
            "wall 2 high",
            "(lambda (t-for 2 (lambda (t-embed (lambda (t-for 3 (lambda (place-h (t-right 3 $0))) $0)) $0)) $0))".into(),
        ),
        (
            "wall 3 high",
            "(lambda (t-for 3 (lambda (t-embed (lambda (t-for 3 (lambda (place-h (t-right 3 $0))) $0)) $0)) $0))".into(),
        ),
        (
            "staircase",
            "(lambda (t-for 3 (lambda (place-h (place-h (t-right 3 $0)))) $0))".into(),
        ),
        (
            "row of posts",
            "(lambda (t-for 4 (lambda (place-v (t-right 2 $0))) $0))".into(),
        ),
        (
            "bridge",
            "(lambda (place-v (t-right 2 (place-v (t-left 1 (place-h (place-h $0)))))))".into(),
        ),
        (
            "tall tower",
            "(lambda (t-for 6 (lambda (place-h $0)) $0))".into(),
        ),
        (
            "twin towers",
            "(lambda (t-embed (lambda (t-for 3 (lambda (place-h $0)) $0)) (t-right 4 (t-for 3 (lambda (place-h $0)) $0))))".into(),
        ),
    ]
}

/// A task whose block configuration is `target`.
fn tower_task(name: &str, request: Type, target: BTreeSet<Block>) -> Task {
    Task {
        name: name.to_owned(),
        request,
        features: tower_features(&target),
        oracle: Arc::new(TowerOracle { target }),
        examples: Vec::new(),
    }
}

/// The towers domain.
pub struct TowerDomain {
    corpus: Corpus,
}

impl TowerDomain {
    /// Build the domain from ground-truth plans; even indices train.
    pub fn new(_seed: u64) -> TowerDomain {
        let primitives = tower_primitives();
        let (train, test) = held_out_split(ground_truth_programs(), 1, |(name, src)| {
            let program = Expr::parse(src, &primitives)
                .unwrap_or_else(|e| panic!("bad ground-truth tower program {name}: {e}"));
            let state = run_tower_program(&program, 200_000)
                .unwrap_or_else(|e| panic!("tower program {name} crashed: {e}"));
            let target = state.block_set();
            assert!(!target.is_empty(), "tower program {name} places no block");
            tower_task(name, Type::arrow(ttower(), ttower()), target)
        });
        TowerDomain {
            corpus: Corpus {
                name: "tower",
                primitives,
                train,
                test,
                dream_requests: vec![Type::arrow(ttower(), ttower())],
            },
        }
    }
}

impl Domain for TowerDomain {
    fn corpus(&self) -> &Corpus {
        &self.corpus
    }
    fn dream(&self, program: &Expr, request: &Type, _rng: &mut dyn RngCore) -> Option<Task> {
        let state = run_tower_program(program, 50_000).ok()?;
        let target = state.block_set();
        (1..=100)
            .contains(&target.len())
            .then(|| tower_task("dream", request.clone(), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_stack_on_each_other() {
        let prims = tower_primitives();
        let p = Expr::parse("(lambda (place-h (place-h $0)))", &prims).unwrap();
        let state = run_tower_program(&p, 10_000).unwrap();
        assert_eq!(state.blocks.len(), 2);
        assert_eq!(state.blocks[0].y, 0);
        assert_eq!(state.blocks[1].y, 1);
    }

    #[test]
    fn blocks_apart_rest_on_ground() {
        let prims = tower_primitives();
        let p = Expr::parse("(lambda (place-v (t-right 5 (place-v $0))))", &prims).unwrap();
        let state = run_tower_program(&p, 10_000).unwrap();
        assert!(state.blocks.iter().all(|b| b.y == 0));
    }

    #[test]
    fn arch_shape_is_correct() {
        let prims = tower_primitives();
        let (_, src) = &ground_truth_programs()[4];
        let p = Expr::parse(src, &prims).unwrap();
        let state = run_tower_program(&p, 10_000).unwrap();
        // Two vertical legs on the ground and one horizontal lintel on top.
        let legs: Vec<&Block> = state.blocks.iter().filter(|b| !b.horizontal).collect();
        let lintels: Vec<&Block> = state.blocks.iter().filter(|b| b.horizontal).collect();
        assert_eq!(legs.len(), 2);
        assert_eq!(lintels.len(), 1);
        assert!(legs.iter().all(|b| b.y == 0));
        assert_eq!(lintels[0].y, 3, "lintel must rest atop the legs");
    }

    #[test]
    fn embed_restores_hand() {
        let prims = tower_primitives();
        let p = Expr::parse(
            "(lambda (place-v (t-embed (lambda (place-v (t-right 5 $0))) (place-v $0))))",
            &prims,
        )
        .unwrap();
        let state = run_tower_program(&p, 10_000).unwrap();
        // Two blocks at hand=0 stacked, one at x=5 on the ground.
        let at0: Vec<&Block> = state.blocks.iter().filter(|b| b.x == 0).collect();
        assert_eq!(at0.len(), 2);
    }

    #[test]
    fn domain_tasks_accept_ground_truth_and_reject_wrong_plans() {
        let d = TowerDomain::new(0);
        assert!(d.train_tasks().len() + d.test_tasks().len() >= 10);
        let all: Vec<&Task> = d.train_tasks().iter().chain(d.test_tasks()).collect();
        let prims = d.primitives();
        for (name, src) in ground_truth_programs() {
            if let Some(task) = all.iter().find(|t| t.name == name) {
                let program = Expr::parse(&src, prims).unwrap();
                assert!(task.check(&program), "{name} rejects its ground truth");
            }
        }
        let single = Expr::parse("(lambda (place-h $0))", prims).unwrap();
        let arch_task = all.iter().find(|t| t.name == "arch").unwrap();
        assert!(!arch_task.check(&single));
    }

    #[test]
    fn features_distinguish_configurations() {
        let d = TowerDomain::new(0);
        let all: Vec<&Task> = d.train_tasks().iter().chain(d.test_tasks()).collect();
        let a = &all[0].features;
        let b = &all[1].features;
        assert_ne!(a, b);
    }
}
