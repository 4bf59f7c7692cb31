//! The [`Domain`] trait: everything wake/sleep needs to run on one of the
//! paper's eight problem-solving domains. A domain builds one [`Corpus`]
//! (name, base primitives, train/test tasks, dream requests) and says how
//! to turn a dreamed program into a dreamed task; this module holds the
//! shell every domain shares: the feature width, the held-out split and
//! the I/O dream.

use std::sync::Arc;

use dc_grammar::library::Library;
use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::Expr;
use dc_lambda::primitives::PrimitiveSet;
use dc_lambda::types::Type;
use rand::RngCore;

use crate::task::{io_features, Example, Task, TaskOracle};

/// Width of every task feature vector, the recognition model's input.
pub const FEATURE_DIM: usize = 64;

/// What a domain is made of: its base language, its task corpora and
/// the request types its dreams are sampled at.
pub struct Corpus {
    /// Short name, e.g. `"list"`.
    pub name: &'static str,
    /// The base language the learner starts with.
    pub primitives: PrimitiveSet,
    /// Training tasks (the corpus solved during waking).
    pub train: Vec<Task>,
    /// Held-out test tasks (Fig 7 reports accuracy on these).
    pub test: Vec<Task>,
    /// The request types dreams should be sampled at.
    pub dream_requests: Vec<Type>,
}

/// A problem-solving domain (§5 of the paper).
pub trait Domain: Send + Sync {
    /// The domain's primitives, tasks and dream requests.
    fn corpus(&self) -> &Corpus;

    /// Turn a dreamed program into a task by executing it on sampled
    /// inputs (§4 "Fantasies"). `None` when the program crashes or its
    /// outputs are degenerate.
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task>;

    /// Short name, e.g. `"list"`.
    fn name(&self) -> &str {
        self.corpus().name
    }

    /// The base language the learner starts with.
    fn primitives(&self) -> &PrimitiveSet {
        &self.corpus().primitives
    }

    /// The initial library over those primitives.
    fn initial_library(&self) -> Arc<Library> {
        Arc::new(Library::from_primitives(self.primitives().iter().cloned()))
    }

    /// Training tasks.
    fn train_tasks(&self) -> &[Task] {
        &self.corpus().train
    }

    /// Held-out test tasks.
    fn test_tasks(&self) -> &[Task] {
        &self.corpus().test
    }

    /// The request types dreams should be sampled at.
    fn dream_requests(&self) -> Vec<Type> {
        self.corpus().dream_requests.clone()
    }
}

/// Split templates 50/50 like the paper: each even-indexed template
/// yields `train_instances` training tasks, each odd-indexed one a single
/// held-out task. Instances are built in template order.
pub(crate) fn held_out_split<T>(
    templates: impl IntoIterator<Item = T>,
    train_instances: usize,
    mut instance: impl FnMut(&T) -> Task,
) -> (Vec<Task>, Vec<Task>) {
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for (i, template) in templates.into_iter().enumerate() {
        if i % 2 == 0 {
            train.extend((0..train_instances).map(|_| instance(&template)));
        } else {
            test.push(instance(&template));
        }
    }
    (train, test)
}

/// Dream an I/O task: run `program` on five inputs drawn by `input`
/// (all drawn before any runs), failing fast on a crash. Dreams whose
/// outputs are all identical teach the recognition model nothing and are
/// dropped. The task is scored by `oracle` over the examples.
pub(crate) fn dream_io(
    program: &Expr,
    request: &Type,
    rng: &mut dyn RngCore,
    mut input: impl FnMut(&mut dyn RngCore) -> Vec<Value>,
    oracle: fn(Vec<Example>) -> Arc<dyn TaskOracle>,
) -> Option<Task> {
    let inputs: Vec<Vec<Value>> = (0..5).map(|_| input(rng)).collect();
    let mut examples = Vec::with_capacity(inputs.len());
    for inputs in inputs {
        let output = EvalCtx::with_fuel(20_000).run(program, &inputs).ok()?;
        examples.push(Example { inputs, output });
    }
    if examples.windows(2).all(|w| w[0].output == w[1].output) {
        return None;
    }
    Some(Task {
        name: "dream".to_owned(),
        request: request.clone(),
        oracle: oracle(examples.clone()),
        features: io_features(&examples),
        examples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::exact_match;
    use dc_lambda::primitives::base_primitives;

    fn dream_on(src: &str, inputs: &[i64]) -> Option<Task> {
        let prims = base_primitives();
        let e = Expr::parse(src, &prims).unwrap();
        let mut next = inputs.iter().cycle();
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0);
        dream_io(
            &e,
            &Type::arrow(dc_lambda::types::tint(), dc_lambda::types::tint()),
            &mut rng,
            |_| vec![Value::Int(*next.next().unwrap())],
            exact_match,
        )
    }

    #[test]
    fn dreams_collect_examples_and_solve_themselves() {
        let task = dream_on("(lambda (+ $0 1))", &[1, 5]).unwrap();
        assert_eq!(task.examples.len(), 5);
        assert_eq!(task.examples[1].output, Value::Int(6));
        assert_eq!(task.features.len(), FEATURE_DIM);
        let prims = base_primitives();
        assert!(task.check(&Expr::parse("(lambda (+ 1 $0))", &prims).unwrap()));
    }

    #[test]
    fn crashing_dreams_fail() {
        assert!(dream_on("(lambda (car nil))", &[1, 2]).is_none());
    }

    #[test]
    fn degenerate_dreams_are_dropped() {
        assert!(dream_on("(lambda 0)", &[1, 2]).is_none());
        assert!(dream_on("(lambda $0)", &[3]).is_none());
        assert!(dream_on("(lambda $0)", &[3, 4]).is_some());
    }

    #[test]
    fn held_out_split_alternates_templates() {
        let mut n = 0;
        let (train, test) = held_out_split(["a", "b", "c"], 2, |name| {
            n += 1;
            Task::io(
                &format!("{name}{n}"),
                dc_lambda::types::tint(),
                vec![],
                vec![],
            )
        });
        let names = |tasks: &[Task]| tasks.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&train), ["a1", "a2", "c4", "c5"]);
        assert_eq!(names(&test), ["b3"]);
    }
}
