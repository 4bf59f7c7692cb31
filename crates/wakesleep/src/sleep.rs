//! The two sleep phases: *abstraction* (grow the library, §3) and
//! *dreaming* (train the recognition model on replays + fantasies, §4).

use std::sync::Arc;

use dc_grammar::enumeration::EnumerationConfig;
use dc_grammar::frontier::Frontier;
use dc_grammar::grammar::Grammar;
use dc_grammar::library::Library;
use dc_grammar::sample::sample_program_with_retries;
use dc_lambda::expr::{Expr, Invented};
use dc_lambda::types::Type;
use dc_recognition::{replay_example, Objective, RecognitionModel, TrainingExample};
use dc_tasks::domain::Domain;
use dc_tasks::task::Task;
use dc_vspace::{compress, joint_score, CompressionConfig, CompressionResult};
use rand::{Rng, SeedableRng};

use crate::config::Condition;
use crate::wake::{isolate_panics, search_task, Guide, SearchOutcome};

/// Max depth of sampled fantasy programs.
const SAMPLE_DEPTH: usize = 10;

/// Nats budget of each dream's MAP-fantasy search when the config sets
/// none.
pub const MAP_FANTASY_NATS: f64 = 6.5;

/// Run abstraction sleep under the given experimental condition, or
/// `None` when the condition grows no library.
///
/// * `Full` / `NoRecognition` — refactoring compression (the paper's).
/// * `Ec` / `Ec2` — compression with **zero** inverse-β steps: candidates
///   come only from surface subtrees of the solutions (EC-style).
/// * `Memorize` — incorporate each task's MAP solution wholesale.
/// * `NoCompression` / `EnumerationOnly` / `NeuralOnly` — `None`.
pub fn abstraction_sleep(
    library: &Arc<Library>,
    frontiers: &[Frontier],
    config: &CompressionConfig,
    condition: Condition,
) -> Option<CompressionResult> {
    match condition {
        Condition::Full | Condition::NoRecognition => Some(compress(library, frontiers, config)),
        Condition::Memorize { .. } => Some(memorize(library, frontiers, config)),
        Condition::Ec | Condition::Ec2 => {
            let cfg = CompressionConfig {
                refactor_steps: 0,
                ..config.clone()
            };
            Some(compress(library, frontiers, &cfg))
        }
        Condition::NoCompression | Condition::EnumerationOnly | Condition::NeuralOnly => None,
    }
}

/// The Memorize baseline (§5, cf. [8]): every solved task's best program
/// becomes a library routine verbatim — no refactoring, no sharing.
fn memorize(
    library: &Arc<Library>,
    frontiers: &[Frontier],
    config: &CompressionConfig,
) -> CompressionResult {
    let mut lib = (**library).clone();
    let mut steps = Vec::new();
    for f in frontiers {
        let Some(best) = f.best() else { continue };
        let body = best.expr.clone();
        if body.size() < 2 {
            continue; // single primitives teach nothing
        }
        // Never re-memorize a solution that already calls a memorized (or
        // otherwise invented) routine — Memorize stores raw solutions only.
        if body
            .subexpressions()
            .iter()
            .any(|e| matches!(e, Expr::Invented(_)))
        {
            continue;
        }
        let name = format!("#{body}");
        if lib.items.iter().any(|it| it.name() == name) {
            continue;
        }
        if let Ok(inv) = Invented::new(&name, body) {
            lib.push_invented(Arc::clone(&inv));
            steps.push(dc_vspace::CompressionStep {
                invention: inv,
                score_before: 0.0,
                score_after: 0.0,
            });
        }
    }
    let lib = Arc::new(lib);
    // Rewrite each frontier's best entry as a bare call to its memorized
    // routine, η-expanded so the grammar can score it.
    let mut new_frontiers: Vec<Frontier> = frontiers.to_vec();
    for f in &mut new_frontiers {
        for entry in &mut f.entries {
            let name = format!("#{}", entry.expr);
            if let Some(item) = lib.items.iter().find(|it| it.name() == name) {
                if let Some(long) = dc_grammar::eta_long(&item.expr, &f.request) {
                    entry.expr = long;
                }
            }
        }
    }
    let (grammar, _) = joint_score(&lib, &mut new_frontiers, config);
    CompressionResult {
        library: lib,
        grammar,
        frontiers: new_frontiers,
        steps,
    }
}

/// Statistics from one dream sleep.
#[derive(Debug, Clone, PartialEq)]
pub struct DreamStats {
    /// Replay examples used.
    pub replays: usize,
    /// Fantasy examples used.
    pub fantasies: usize,
    /// Mean loss of the final training epoch.
    pub final_loss: f64,
}

/// Run dream sleep: train `model` on replays of solved tasks, built
/// under `objective`, and on fantasies sampled from the generative model
/// and executed by the domain.
pub fn dream_sleep<R: Rng>(
    model: &mut RecognitionModel,
    domain: &dyn Domain,
    grammar: &Grammar,
    solved: &[(&Task, &Frontier)],
    objective: Objective,
    config: &crate::config::RecognitionConfig,
    rng: &mut R,
) -> DreamStats {
    let mut examples: Vec<TrainingExample> = Vec::new();
    for (task, frontier) in solved {
        if let Some(ex) = replay_example(task.features.clone(), frontier, objective) {
            examples.push(ex);
        }
    }
    let replays = examples.len();
    // The master RNG is consumed exactly once here regardless of thread
    // count, fantasy yield, or panics: a single u64 keys every per-slot
    // substream. Both the dreamed set and the post-dream RNG state are
    // therefore bit-identical across thread counts (DESIGN.md §9).
    let stream_key: u64 = rng.gen();
    let fantasies = {
        let _span = dc_telemetry::span("dream.fantasies");
        generate_fantasies(domain, grammar, config, stream_key)
    };
    let made = fantasies.len();
    examples.extend(fantasies);
    let final_loss = {
        let _span = dc_telemetry::span("dream.train");
        model.train(&examples, config.epochs, rng)
    };
    DreamStats {
        replays,
        fantasies: made,
        final_loss,
    }
}

/// Derive the ChaCha8 substream for one fantasy slot. The 32-byte seed
/// mixes a domain-separation tag, the cycle's master `stream_key`, and the
/// slot index, so a slot's randomness is a pure function of (key, slot) —
/// independent of scheduling, thread count, and sibling outcomes.
fn fantasy_substream(stream_key: u64, slot: u64) -> rand_chacha::ChaCha8Rng {
    let mut seed = [0u8; 32];
    seed[..16].copy_from_slice(b"dc-dream-fantasy");
    seed[16..24].copy_from_slice(&stream_key.to_le_bytes());
    seed[24..].copy_from_slice(&slot.to_le_bytes());
    rand_chacha::ChaCha8Rng::from_seed(seed)
}

/// Generate up to `config.fantasies` fantasy examples, fanned out across
/// threads by slot index (§4's dreaming, parallelized).
///
/// Slots run in waves of `config.fantasies`; each slot samples, dreams,
/// and (optionally) MAP-solves inside its own `fantasy_substream`, and
/// successes are kept in slot order. The result is a pure function of
/// `(grammar, config, stream_key)` at any thread count. Ten waves bound
/// the work at the serial loop's old `fantasies * 10` attempt budget.
pub fn generate_fantasies(
    domain: &dyn Domain,
    grammar: &Grammar,
    config: &crate::config::RecognitionConfig,
    stream_key: u64,
) -> Vec<TrainingExample> {
    let requests = domain.dream_requests();
    // A domain with no dream requests can't fantasize (and `gen_range`
    // over an empty range would panic): nothing to dream.
    if requests.is_empty() || config.fantasies == 0 {
        return Vec::new();
    }
    let mut examples: Vec<TrainingExample> = Vec::with_capacity(config.fantasies);
    for wave in 0..10u64 {
        let lo = wave * config.fantasies as u64;
        let slots: Vec<u64> = (lo..lo + config.fantasies as u64).collect();
        let parent = dc_telemetry::current_span();
        let produced: Vec<Option<TrainingExample>> = rayon::map(&slots, |&slot| {
            let _span = dc_telemetry::span_under(parent, "dream.fantasy");
            // A panicking domain evaluator (in `dream` or in the MAP
            // search's oracle) costs this slot, not the dream sleep.
            isolate_panics(
                "dream.fantasy_panics",
                "dream.fantasy_panic",
                || ("slot", slot.into()),
                || fantasy_attempt(domain, grammar, &requests, config, stream_key, slot),
            )
            .flatten()
        });
        examples.extend(produced.into_iter().flatten());
        if examples.len() >= config.fantasies {
            break;
        }
    }
    examples.truncate(config.fantasies);
    examples
}

/// One fantasy attempt in its own substream: sample a program, execute it
/// via `domain.dream`, and (with MAP fantasies) replace the target with
/// the cheapest program solving the dreamed task.
fn fantasy_attempt(
    domain: &dyn Domain,
    grammar: &Grammar,
    requests: &[Type],
    config: &crate::config::RecognitionConfig,
    stream_key: u64,
    slot: u64,
) -> Option<TrainingExample> {
    let mut rng = fantasy_substream(stream_key, slot);
    let request = &requests[rng.gen_range(0..requests.len())];
    let program = sample_program_with_retries(grammar, request, &mut rng, SAMPLE_DEPTH, 10)?;
    let task = domain.dream(&program, request, &mut rng)?;
    // Appendix Algorithm 3: with MAP fantasies, the training target is the
    // maximum-a-posteriori program found by a short enumeration on the
    // dreamed task, not the sampled program itself.
    // A MAP search whose oracle panicked costs the slot.
    let target = if config.map_fantasies {
        map_program_for(grammar, &task, config)?.unwrap_or(program)
    } else {
        program
    };
    Some(TrainingExample {
        features: task.features,
        request: request.clone(),
        programs: vec![(target, 1.0)],
    })
}

/// Algorithm 3's inner step: enumerate in decreasing prior order and keep
/// the program maximizing `P[x|rho] P[rho|D,theta]` for the dreamed task
/// (a wake search with a beam of one).
/// The search is bounded by `map_fantasy_budget` nats, or
/// [`MAP_FANTASY_NATS`] when that is unset. `None` when the task's oracle
/// panicked; `Some(None)` when nothing within the bound solves the task.
fn map_program_for(
    grammar: &Grammar,
    task: &Task,
    config: &crate::config::RecognitionConfig,
) -> Option<Option<Expr>> {
    let cfg = EnumerationConfig {
        max_budget: config.map_fantasy_budget.unwrap_or(MAP_FANTASY_NATS),
        ..EnumerationConfig::default()
    };
    let guide = Guide::Generative(grammar.clone());
    let result = search_task(task, &guide, grammar, 1, &cfg);
    if result.trace.outcome == SearchOutcome::EvalPanic {
        return None;
    }
    Some(result.frontier.best().map(|e| e.expr.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_grammar::frontier::FrontierEntry;
    use dc_lambda::primitives::base_primitives;
    use dc_lambda::types::{tint, tlist, Type};
    use dc_recognition::Parameterization;
    use dc_tasks::domains::list::ListDomain;
    use rand::SeedableRng;

    fn frontier_for(g: &Grammar, src: &str, request: Type) -> Frontier {
        let prims = base_primitives();
        let e = Expr::parse(src, &prims).unwrap();
        let mut f = Frontier::new(request.clone());
        f.insert(
            FrontierEntry {
                log_prior: g.log_prior(&request, &e),
                log_likelihood: 0.0,
                expr: e,
            },
            5,
        );
        f
    }

    #[test]
    fn memorize_adds_whole_programs() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let frontiers = vec![
            frontier_for(&g, "(lambda (map (lambda (+ $0 1)) $0))", t.clone()),
            frontier_for(&g, "(lambda (map (lambda (+ $0 $0)) $0))", t.clone()),
        ];
        let result = abstraction_sleep(
            &lib,
            &frontiers,
            &CompressionConfig::default(),
            Condition::Memorize {
                with_recognition: false,
            },
        )
        .expect("Memorize grows the library");
        assert_eq!(result.steps.len(), 2, "both solutions memorized verbatim");
        assert_eq!(result.library.len(), lib.len() + 2);
        // Memorized frontiers collapse to a single call of the routine.
        for f in &result.frontiers {
            assert!(f.entries[0].expr.size() <= 4, "got {}", f.entries[0].expr);
        }
    }

    #[test]
    fn only_library_growing_conditions_run_abstraction_sleep() {
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let frontiers = vec![frontier_for(&g, "(lambda (map (lambda (+ $0 1)) $0))", t)];
        let cfg = CompressionConfig {
            refactor_steps: 1,
            ..CompressionConfig::default()
        };
        let grows = |condition| abstraction_sleep(&lib, &frontiers, &cfg, condition).is_some();
        for condition in [
            Condition::Full,
            Condition::NoRecognition,
            Condition::Memorize {
                with_recognition: true,
            },
            Condition::Memorize {
                with_recognition: false,
            },
            Condition::Ec,
            Condition::Ec2,
        ] {
            assert!(grows(condition), "{condition:?}");
        }
        for condition in [
            Condition::NoCompression,
            Condition::EnumerationOnly,
            Condition::NeuralOnly,
        ] {
            assert!(!grows(condition), "{condition:?}");
        }
    }

    #[test]
    fn ec_condition_uses_no_refactoring() {
        // With refactor_steps = 0 the map body (a surface subtree) can
        // still be proposed, but refactoring-only candidates cannot.
        let prims = base_primitives();
        let lib = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let g = Grammar::uniform(Arc::clone(&lib));
        let t = tint();
        // (+ 1 1) and (+ 0 0) share "double" only via refactoring, so EC
        // must NOT find it.
        let frontiers = vec![
            frontier_for(&g, "(+ 1 1)", t.clone()),
            frontier_for(&g, "(+ 0 0)", t.clone()),
        ];
        let cfg = CompressionConfig {
            structure_penalty: 0.1,
            top_candidates: 50,
            ..CompressionConfig::default()
        };
        let result =
            abstraction_sleep(&lib, &frontiers, &cfg, Condition::Ec).expect("EC grows the library");
        assert!(
            result.steps.is_empty(),
            "EC should not discover refactoring-only abstractions: {:?}",
            result
                .steps
                .iter()
                .map(|s| s.invention.name.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn dream_sleep_survives_a_domain_with_no_dream_requests() {
        use dc_lambda::primitives::PrimitiveSet;
        use dc_lambda::types::Type;
        use rand::RngCore;

        /// A stub domain that offers no request types to dream at.
        struct Dreamless {
            prims: PrimitiveSet,
            tasks: Vec<Task>,
        }
        impl Domain for Dreamless {
            fn name(&self) -> &str {
                "dreamless"
            }
            fn primitives(&self) -> &PrimitiveSet {
                &self.prims
            }
            fn train_tasks(&self) -> &[Task] {
                &self.tasks
            }
            fn test_tasks(&self) -> &[Task] {
                &self.tasks
            }
            fn feature_dim(&self) -> usize {
                2
            }
            fn dream_requests(&self) -> Vec<Type> {
                Vec::new()
            }
            fn dream(&self, _: &Expr, _: &Type, _: &mut dyn RngCore) -> Option<Task> {
                None
            }
        }

        let domain = Dreamless {
            prims: base_primitives(),
            tasks: Vec::new(),
        };
        let lib = domain.initial_library();
        let g = Grammar::uniform(Arc::clone(&lib));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut model = RecognitionModel::new(
            Arc::clone(&lib),
            2,
            8,
            Parameterization::Bigram,
            0.01,
            &mut rng,
        );
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let f = frontier_for(&g, "(lambda (map (lambda (+ $0 1)) $0))", t.clone());
        let task = Task::io("replay", t, vec![], vec![0.0, 0.0]);
        let rcfg = crate::config::RecognitionConfig {
            fantasies: 10,
            epochs: 2,
            ..crate::config::RecognitionConfig::default()
        };
        // Former panic site: gen_range(0..0) on the empty request list.
        let stats = dream_sleep(
            &mut model,
            &domain,
            &g,
            &[(&task, &f)],
            Objective::Map,
            &rcfg,
            &mut rng,
        );
        assert_eq!(stats.fantasies, 0, "no requests means no fantasies");
        assert_eq!(stats.replays, 1, "replays still train");
        assert!(stats.final_loss.is_finite());
    }

    #[test]
    fn a_panicking_dream_evaluator_degrades_to_skipped_fantasies() {
        use dc_lambda::primitives::PrimitiveSet;
        use rand::RngCore;

        /// A stub domain whose dream executor always panics.
        struct PoisonedDreams {
            prims: PrimitiveSet,
            tasks: Vec<Task>,
        }
        impl Domain for PoisonedDreams {
            fn name(&self) -> &str {
                "poisoned-dreams"
            }
            fn primitives(&self) -> &PrimitiveSet {
                &self.prims
            }
            fn train_tasks(&self) -> &[Task] {
                &self.tasks
            }
            fn test_tasks(&self) -> &[Task] {
                &self.tasks
            }
            fn feature_dim(&self) -> usize {
                2
            }
            fn dream_requests(&self) -> Vec<Type> {
                vec![tint()]
            }
            fn dream(&self, _: &Expr, _: &Type, _: &mut dyn RngCore) -> Option<Task> {
                panic!("injected dream panic");
            }
        }

        let domain = PoisonedDreams {
            prims: base_primitives(),
            tasks: Vec::new(),
        };
        let lib = domain.initial_library();
        let g = Grammar::uniform(Arc::clone(&lib));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut model = RecognitionModel::new(
            Arc::clone(&lib),
            2,
            8,
            Parameterization::Bigram,
            0.01,
            &mut rng,
        );
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let f = frontier_for(&g, "(lambda (map (lambda (+ $0 1)) $0))", t.clone());
        let task = Task::io("replay", t, vec![], vec![0.0, 0.0]);
        let rcfg = crate::config::RecognitionConfig {
            fantasies: 5,
            epochs: 2,
            ..crate::config::RecognitionConfig::default()
        };
        // Quiet the default per-panic stderr backtrace for this test.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Former crash site: an unwinding `domain.dream` tore down the
        // whole sleep. Each panic now costs exactly its own slot.
        let stats = dream_sleep(
            &mut model,
            &domain,
            &g,
            &[(&task, &f)],
            Objective::Map,
            &rcfg,
            &mut rng,
        );
        std::panic::set_hook(prev_hook);
        assert_eq!(stats.fantasies, 0, "panicking dreams are skipped");
        assert_eq!(stats.replays, 1, "replays still train");
        assert!(stats.final_loss.is_finite());
    }

    #[test]
    fn dream_sleep_trains_on_replays_and_fantasies() {
        let domain = ListDomain::new(0);
        let lib = domain.initial_library();
        let g = Grammar::uniform(Arc::clone(&lib));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut model = RecognitionModel::new(
            Arc::clone(&lib),
            domain.feature_dim(),
            16,
            Parameterization::Bigram,
            0.01,
            &mut rng,
        );
        let t = Type::arrow(tlist(tint()), tlist(tint()));
        let f = frontier_for(&g, "(lambda (map (lambda (+ $0 1)) $0))", t);
        let task = &domain.train_tasks()[0];
        let rcfg = crate::config::RecognitionConfig {
            fantasies: 10,
            epochs: 3,
            ..crate::config::RecognitionConfig::default()
        };
        let stats = dream_sleep(
            &mut model,
            &domain,
            &g,
            &[(task, &f)],
            Objective::Map,
            &rcfg,
            &mut rng,
        );
        assert_eq!(stats.replays, 1);
        assert!(stats.fantasies > 0, "expected some fantasies to execute");
        assert!(stats.final_loss.is_finite());
    }
}
