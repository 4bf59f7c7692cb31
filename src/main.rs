//! `dreamcoder` — command-line driver for the DreamCoder-rs reproduction.
//!
//! ```sh
//! dreamcoder run --domain list --cycles 4 --condition full --wake-ms 700
//! dreamcoder domains
//! dreamcoder solve --domain list --task "add1 to each" --timeout-ms 3000
//! ```

use std::process::ExitCode;
use std::time::Duration;

use dreamcoder::grammar::enumeration::EnumerationConfig;
use dreamcoder::grammar::Grammar;
use dreamcoder::tasks::domains::list::ListDomain;
use dreamcoder::tasks::domains::logo::LogoDomain;
use dreamcoder::tasks::domains::origami::OrigamiDomain;
use dreamcoder::tasks::domains::physics::PhysicsDomain;
use dreamcoder::tasks::domains::regex::RegexDomain;
use dreamcoder::tasks::domains::symreg::SymRegDomain;
use dreamcoder::tasks::domains::text::TextDomain;
use dreamcoder::tasks::domains::tower::TowerDomain;
use dreamcoder::tasks::Domain;
use dreamcoder::wakesleep::{
    latest_checkpoint, search_task, Checkpoint, Condition, DreamCoder, DreamCoderConfig, Guide,
    RecognitionConfig,
};
use std::sync::Arc;

const DOMAINS: &[&str] = &[
    "list", "text", "logo", "tower", "regex", "symreg", "physics", "origami",
];

fn make_domain(name: &str, seed: u64) -> Option<Box<dyn Domain>> {
    Some(match name {
        "list" => Box::new(ListDomain::new(seed)),
        "text" => Box::new(TextDomain::new(seed)),
        "logo" => Box::new(LogoDomain::new(seed)),
        "tower" => Box::new(TowerDomain::new(seed)),
        "regex" => Box::new(RegexDomain::new(seed)),
        "symreg" => Box::new(SymRegDomain::new(seed)),
        "physics" => Box::new(PhysicsDomain::new(seed)),
        "origami" => Box::new(OrigamiDomain::new(seed)),
        _ => return None,
    })
}

fn parse_condition(name: &str) -> Option<Condition> {
    Some(match name {
        "full" => Condition::Full,
        "no-recognition" | "no-rec" => Condition::NoRecognition,
        "no-compression" | "no-lib" => Condition::NoCompression,
        "memorize" => Condition::Memorize {
            with_recognition: false,
        },
        "memorize-rec" => Condition::Memorize {
            with_recognition: true,
        },
        "ec" => Condition::Ec,
        "ec2" => Condition::Ec2,
        "enumeration" => Condition::EnumerationOnly,
        "neural" => Condition::NeuralOnly,
        _ => return None,
    })
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> Option<String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .cloned()
    }
    fn flag_u64(&self, name: &str, default: u64) -> u64 {
        self.flag(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
    fn flag_f64(&self, name: &str, default: f64) -> f64 {
        self.flag(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
    /// Boolean flag: present or not, takes no value.
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         dreamcoder run --domain <name> [--cycles N] [--condition full|no-rec|no-lib|memorize|ec|ec2|enumeration|neural]\n\
         \x20              [--wake-ms MS] [--test-ms MS] [--minibatch N] [--seed N] [--events FILE] [--threads N]\n\
         \x20              [--checkpoint-dir DIR] [--checkpoint-keep N] [--resume] [--summary-out FILE]\n\
         \x20              [--deterministic] [--wake-nats B] [--test-nats B]\n\
         \x20              [--map-fantasies] [--fantasy-nats B]\n\
         \x20              [--status-addr HOST:PORT] [--trace-out FILE] [--log-level debug|info|warn]\n\
         dreamcoder solve --domain <name> --task <task name> [--timeout-ms MS]\n\
         dreamcoder domains\n\
         \n\
         worker threads default to the machine's parallelism; cap them with\n\
         --threads N or the DC_THREADS env var (--threads wins).\n\
         \n\
         --checkpoint-dir writes a crash-safe checkpoint after every cycle;\n\
         --resume restarts from the newest one. --deterministic replaces the\n\
         wall-clock enumeration budgets with nats budgets (--wake-nats,\n\
         --test-nats) and zeroes timing metrics, making a seeded run byte-\n\
         reproducible (DESIGN.md \u{a7}8). --map-fantasies trains dreams on\n\
         each dreamed task's MAP program (Appendix Alg. 3); combined with\n\
         --deterministic that search is bounded by --fantasy-nats B.\n\
         \n\
         --status-addr serves live run introspection over HTTP while the\n\
         run is in flight: GET /metrics (Prometheus text), /status (JSON),\n\
         /healthz. --trace-out additionally records every span as a Chrome\n\
         trace-event file loadable in Perfetto / chrome://tracing.\n\
         --log-level (or the DC_LOG env var; the flag wins) sets the\n\
         minimum severity written to the --events JSONL file."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return usage();
    };
    let args = Args(argv);
    match cmd.as_str() {
        "domains" => {
            println!("available domains:");
            for name in DOMAINS {
                let d = make_domain(name, 0).expect("known");
                println!(
                    "  {name:<8} {:>3} train / {:>2} test tasks, {} primitives",
                    d.train_tasks().len(),
                    d.test_tasks().len(),
                    d.primitives().len()
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(domain_name) = args.flag("--domain") else {
                return usage();
            };
            if let Some(threads) = args.flag("--threads") {
                match threads.parse::<usize>() {
                    Ok(n) if n > 0 => rayon::set_max_threads(Some(n)),
                    _ => {
                        eprintln!("--threads must be a positive integer, got {threads:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let Some(domain) = make_domain(&domain_name, args.flag_u64("--seed", 0)) else {
                eprintln!("unknown domain {domain_name:?}; try `dreamcoder domains`");
                return ExitCode::FAILURE;
            };
            let condition = match args.flag("--condition") {
                None => Condition::Full,
                Some(c) => match parse_condition(&c) {
                    Some(c) => c,
                    None => {
                        eprintln!("unknown condition {c:?}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let deterministic = args.has("--deterministic");
            let (enumeration, test_enumeration) = if deterministic {
                // Nats budgets instead of wall clock: seeded runs become
                // byte-reproducible (DESIGN.md §8).
                (
                    EnumerationConfig {
                        timeout: None,
                        max_budget: args.flag_f64("--wake-nats", 11.0),
                    },
                    EnumerationConfig {
                        timeout: None,
                        max_budget: args.flag_f64("--test-nats", 9.0),
                    },
                )
            } else {
                (
                    EnumerationConfig {
                        timeout: Some(Duration::from_millis(args.flag_u64("--wake-ms", 700))),
                        ..EnumerationConfig::default()
                    },
                    EnumerationConfig {
                        timeout: Some(Duration::from_millis(args.flag_u64("--test-ms", 300))),
                        ..EnumerationConfig::default()
                    },
                )
            };
            let checkpoint_dir = args.flag("--checkpoint-dir").map(std::path::PathBuf::from);
            let recognition = RecognitionConfig {
                map_fantasies: args.has("--map-fantasies"),
                // Under --deterministic the MAP-fantasy enumeration is
                // bounded by nats, not wall clock (DESIGN.md §9).
                map_fantasy_budget: if deterministic {
                    Some(args.flag_f64("--fantasy-nats", 6.5))
                } else {
                    None
                },
                ..RecognitionConfig::default()
            };
            let config = DreamCoderConfig {
                condition,
                cycles: args.flag_u64("--cycles", 3) as usize,
                minibatch: args.flag_u64("--minibatch", 12) as usize,
                enumeration,
                test_enumeration,
                recognition,
                seed: args.flag_u64("--seed", 0),
                checkpoint_dir: checkpoint_dir.clone(),
                checkpoint_keep: args.flag_u64("--checkpoint-keep", 3) as usize,
                deterministic_timing: deterministic,
                ..DreamCoderConfig::default()
            };
            // Metrics are on for every run; `--events FILE` additionally
            // streams structured JSONL events to FILE at the severity
            // chosen by --log-level / DC_LOG (flag beats env beats info).
            dreamcoder::telemetry::enable();
            let log_level = dreamcoder::telemetry::resolve_level(
                args.flag("--log-level").as_deref(),
                std::env::var("DC_LOG").ok().as_deref(),
            );
            if let Some(events) = args.flag("--events") {
                if let Err(e) =
                    dreamcoder::telemetry::set_event_file(std::path::Path::new(&events), log_level)
                {
                    eprintln!("cannot open event log {events:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let telemetry_path = std::path::PathBuf::from("results/telemetry.json");
            let trace_out = args.flag("--trace-out").map(std::path::PathBuf::from);
            if trace_out.is_some() {
                dreamcoder::telemetry::enable_trace_collection();
            }
            // Ctrl-C finishes the current phase, then the run loop exits
            // cleanly (checkpoints, telemetry and the summary still land);
            // a panic anywhere still flushes events and profiles.
            dreamcoder::telemetry::install_sigint_handler();
            dreamcoder::telemetry::install_abort_flush(
                Some(telemetry_path.clone()),
                trace_out.clone(),
            );
            let status_server = match args.flag("--status-addr") {
                None => None,
                Some(addr) => match dreamcoder::telemetry::start_status_server(&addr) {
                    Ok(server) => {
                        eprintln!("[status server listening on {}]", server.addr());
                        Some(server)
                    }
                    Err(e) => {
                        eprintln!("cannot bind status server on {addr:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let mut dc = if args.has("--resume") {
                let Some(dir) = checkpoint_dir.as_deref() else {
                    eprintln!("--resume requires --checkpoint-dir");
                    return ExitCode::FAILURE;
                };
                match latest_checkpoint(dir) {
                    Err(e) => {
                        eprintln!("cannot scan checkpoint dir {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                    // Nothing to resume yet: start fresh (so the same
                    // command line works for the first and every later
                    // launch of a long run).
                    Ok(None) => {
                        eprintln!("no checkpoint in {}; starting a fresh run", dir.display());
                        DreamCoder::new(domain.as_ref(), config)
                    }
                    Ok(Some(path)) => {
                        let ckpt = match Checkpoint::read(&path) {
                            Ok(c) => c,
                            Err(e) => {
                                eprintln!("cannot read checkpoint {}: {e}", path.display());
                                return ExitCode::FAILURE;
                            }
                        };
                        eprintln!(
                            "resuming from {} (after cycle {})",
                            path.display(),
                            ckpt.cycles_completed
                        );
                        match DreamCoder::resume(domain.as_ref(), config, &ckpt) {
                            Ok(dc) => dc,
                            Err(e) => {
                                eprintln!("cannot resume: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
            } else {
                DreamCoder::new(domain.as_ref(), config)
            };
            let summary = dc.run();
            if let Some(out) = args.flag("--summary-out") {
                let json = match serde_json::to_string(&summary) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("cannot serialize summary: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = std::fs::write(&out, json) {
                    eprintln!("cannot write summary to {out:?}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[summary written to {out}]");
            }
            match dreamcoder::telemetry::export_to_file(&telemetry_path) {
                Ok(()) => println!("[telemetry written to {}]", telemetry_path.display()),
                Err(e) => eprintln!("could not write telemetry: {e}"),
            }
            if let Some(trace) = &trace_out {
                match dreamcoder::telemetry::export_chrome_trace(trace) {
                    Ok(()) => println!("[trace written to {}]", trace.display()),
                    Err(e) => eprintln!("could not write trace: {e}"),
                }
            }
            if let Some(server) = status_server {
                server.shutdown();
            }
            dreamcoder::telemetry::clear_event_sink();
            println!(
                "{} on {}: final held-out accuracy {:.1}%",
                summary.condition,
                summary.domain,
                100.0 * summary.final_test_solved
            );
            for c in &summary.cycles {
                println!(
                    "  cycle {}: train {} test {:.1}% |D|={} depth={}",
                    c.cycle,
                    c.train_solved,
                    100.0 * c.test_solved,
                    c.library_size,
                    c.library_depth
                );
                for inv in &c.new_inventions {
                    println!("    invented {inv}");
                }
            }
            if dreamcoder::telemetry::interrupt_requested() {
                // Conventional 128 + SIGINT so wrappers can tell a clean
                // early stop from a normal completion.
                eprintln!("[run interrupted; partial results written]");
                return ExitCode::from(130);
            }
            ExitCode::SUCCESS
        }
        "solve" => {
            let Some(domain_name) = args.flag("--domain") else {
                return usage();
            };
            let Some(task_name) = args.flag("--task") else {
                return usage();
            };
            let Some(domain) = make_domain(&domain_name, 0) else {
                eprintln!("unknown domain {domain_name:?}");
                return ExitCode::FAILURE;
            };
            let Some(task) = domain
                .train_tasks()
                .iter()
                .chain(domain.test_tasks())
                .find(|t| t.name == task_name)
            else {
                eprintln!("no task named {task_name:?}; available:");
                for t in domain.train_tasks().iter().chain(domain.test_tasks()) {
                    eprintln!("  {:?}", t.name);
                }
                return ExitCode::FAILURE;
            };
            let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
            let config = EnumerationConfig {
                timeout: Some(Duration::from_millis(args.flag_u64("--timeout-ms", 5000))),
                ..EnumerationConfig::default()
            };
            let result = search_task(
                task,
                &Guide::Generative(grammar.clone()),
                &grammar,
                5,
                &config,
            );
            match result.frontier.best() {
                Some(best) => {
                    println!(
                        "solved {:?} in {:.2}s after {} programs:\n  {}",
                        task.name,
                        result.trace.solve_time.unwrap_or_default(),
                        result.trace.programs_enumerated,
                        best.expr
                    );
                    ExitCode::SUCCESS
                }
                None => {
                    println!(
                        "not solved within budget ({} programs tried)",
                        result.trace.programs_enumerated
                    );
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
