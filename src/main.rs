//! `dreamcoder` — command-line driver for the DreamCoder-rs reproduction.
//!
//! ```sh
//! dreamcoder run --domain list --cycles 4 --condition full --wake-nats 13.5
//! dreamcoder domains
//! dreamcoder solve --domain list --task "add1 to each" --wake-nats 13.5
//! ```

use std::process::ExitCode;
use std::str::FromStr;

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
use dreamcoder::wakesleep::sleep::MAP_FANTASY_NATS;
use dreamcoder::wakesleep::{
    forensics_report, latest_checkpoint, search_task, Checkpoint, Condition, DreamCoder,
    DreamCoderConfig, Guide, RecognitionConfig,
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

/// A search bounded by `max_budget` nats.
fn nats(max_budget: f64) -> EnumerationConfig {
    EnumerationConfig {
        max_budget,
        ..EnumerationConfig::default()
    }
}

/// The flags `run` takes a value for.
const RUN_VALUES: &[&str] = &[
    "--domain",
    "--cycles",
    "--condition",
    "--wake-nats",
    "--test-nats",
    "--fantasy-nats",
    "--minibatch",
    "--seed",
    "--events",
    "--threads",
    "--checkpoint-dir",
    "--checkpoint-keep",
    "--summary-out",
    "--status-addr",
    "--trace-out",
    "--log-level",
];

/// The flags `run` takes alone.
const RUN_SWITCHES: &[&str] = &["--resume", "--map-fantasies"];

/// The flags `solve` takes a value for.
const SOLVE_VALUES: &[&str] = &["--domain", "--task", "--wake-nats"];

/// A subcommand's flags, checked against the ones it knows.
struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parse the tokens after a subcommand. An unknown token, or a value
    /// flag with no value after it, prints a message and gives `Err`.
    fn parse(
        tokens: &[String],
        value_flags: &[&'static str],
        switch_flags: &[&'static str],
    ) -> Result<Args, ()> {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if let Some(&name) = value_flags.iter().find(|&&f| f == token) {
                match tokens.next() {
                    Some(value) if !value.starts_with("--") => {
                        args.values.push((name, value.clone()));
                    }
                    _ => {
                        eprintln!("{name} needs a value");
                        return Err(());
                    }
                }
            } else if let Some(&name) = switch_flags.iter().find(|&&f| f == token) {
                args.switches.push(name);
            } else {
                eprintln!("unknown argument {token:?}");
                return Err(());
            }
        }
        Ok(args)
    }
    /// A value flag's first value, if the flag was given.
    fn flag(&self, name: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| value.clone())
    }
    /// A numeric flag's value, or `default` when the flag is absent. An
    /// unparsable value prints a message and gives `Err`.
    fn number<T: FromStr>(&self, name: &str, default: T) -> Result<T, ()> {
        let Some(value) = self.flag(name) else {
            return Ok(default);
        };
        value.parse().map_err(|_| {
            eprintln!("{name} must be a number, got {value:?}");
        })
    }
    /// Boolean flag: present or not, takes no value.
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

fn usage() -> ExitCode {
    let defaults = DreamCoderConfig::default();
    eprintln!(
        "usage:\n\
         dreamcoder run --domain <name> [--cycles N]\n\
         \x20              [--condition full|no-rec|no-lib|memorize|memorize-rec|ec|ec2|enumeration|neural]\n\
         \x20              [--wake-nats B] [--test-nats B] [--minibatch N] [--seed N] [--events FILE] [--threads N]\n\
         \x20              [--checkpoint-dir DIR] [--checkpoint-keep N] [--resume] [--summary-out FILE]\n\
         \x20              [--map-fantasies] [--fantasy-nats B]\n\
         \x20              [--status-addr HOST:PORT] [--trace-out FILE] [--log-level debug|info|warn]\n\
         dreamcoder solve --domain <name> --task <task name> [--wake-nats B]\n\
         dreamcoder domains\n\
         \n\
         worker threads default to the machine's parallelism; cap them with\n\
         --threads N or the DC_THREADS env var (--threads wins).\n\
         \n\
         every search is bounded by a description length in nats: --wake-nats\n\
         (default {wake}) for training tasks and for solve, --test-nats ({test})\n\
         for held-out tasks, and --fantasy-nats ({MAP_FANTASY_NATS}) for the MAP search of\n\
         --map-fantasies, which trains dreams on each dreamed task's MAP\n\
         program (Appendix Alg. 3). No result depends on the clock, so a\n\
         seeded run is byte-reproducible (DESIGN.md \u{a7}8).\n\
         \n\
         --checkpoint-dir writes a crash-safe checkpoint after every cycle;\n\
         --resume restarts from the newest one. Ctrl-C stops a run at the\n\
         next cycle boundary.\n\
         \n\
         --status-addr serves live run introspection over HTTP while the\n\
         run is in flight: GET /metrics (Prometheus text), /status (JSON),\n\
         /healthz. --trace-out additionally records every span as a Chrome\n\
         trace-event file loadable in Perfetto / chrome://tracing.\n\
         --log-level (or the DC_LOG env var; the flag wins) sets the\n\
         minimum severity written to the --events JSONL file.",
        wake = defaults.enumeration.max_budget,
        test = defaults.test_enumeration.max_budget,
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, tokens)) = argv.split_first() else {
        return usage();
    };
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
            let Ok(args) = Args::parse(tokens, RUN_VALUES, RUN_SWITCHES) else {
                return ExitCode::FAILURE;
            };
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
            let defaults = DreamCoderConfig::default();
            let (
                Ok(seed),
                Ok(cycles),
                Ok(minibatch),
                Ok(checkpoint_keep),
                Ok(wake_nats),
                Ok(test_nats),
                Ok(fantasy_nats),
            ) = (
                args.number("--seed", 0),
                args.number("--cycles", 3),
                args.number("--minibatch", 12),
                args.number("--checkpoint-keep", 3),
                args.number("--wake-nats", defaults.enumeration.max_budget),
                args.number("--test-nats", defaults.test_enumeration.max_budget),
                args.number("--fantasy-nats", MAP_FANTASY_NATS),
            )
            else {
                return ExitCode::FAILURE;
            };
            let Some(domain) = make_domain(&domain_name, seed) else {
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
            let checkpoint_dir = args.flag("--checkpoint-dir").map(std::path::PathBuf::from);
            let config = DreamCoderConfig {
                condition,
                cycles,
                minibatch,
                enumeration: nats(wake_nats),
                test_enumeration: nats(test_nats),
                recognition: RecognitionConfig {
                    map_fantasies: args.has("--map-fantasies"),
                    map_fantasy_budget: Some(fantasy_nats),
                    ..RecognitionConfig::default()
                },
                seed,
                checkpoint_dir: checkpoint_dir.clone(),
                checkpoint_keep,
                ..defaults
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
                            ckpt.cycles_completed()
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
            print!("{}", forensics_report(&summary));
            if dreamcoder::telemetry::interrupt_requested() {
                // Conventional 128 + SIGINT so wrappers can tell a clean
                // early stop from a normal completion.
                eprintln!("[run interrupted; partial results written]");
                return ExitCode::from(130);
            }
            ExitCode::SUCCESS
        }
        "solve" => {
            let Ok(args) = Args::parse(tokens, SOLVE_VALUES, &[]) else {
                return ExitCode::FAILURE;
            };
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
            let default_nats = DreamCoderConfig::default().enumeration.max_budget;
            let Ok(wake_nats) = args.number("--wake-nats", default_nats) else {
                return ExitCode::FAILURE;
            };
            let grammar = Grammar::uniform(Arc::clone(&domain.initial_library()));
            let result = search_task(
                task,
                &Guide::Generative(grammar.clone()),
                &grammar,
                5,
                &nats(wake_nats),
            );
            match result.frontier.best() {
                Some(best) => {
                    let trace = &result.trace;
                    println!(
                        "solved {:?}: first hit after {} programs, at {:.1} nats \
                         ({} programs searched):\n  {}",
                        task.name,
                        trace.programs_to_first_hit.unwrap_or_default(),
                        trace.first_hit_nats.unwrap_or_default(),
                        trace.programs_enumerated,
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
