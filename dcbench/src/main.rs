//! `dcbench` — run one benchmark workload and print its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path dcbench/Cargo.toml -- \
//!     --workload search_list --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics with telemetry off; `--trace 1` reports the
//! per-layer metrics from a traced run. The work fingerprint, thread count
//! and per-pass walls go to standard error.

use std::process::ExitCode;

use dcbench::{run, Kind, RunConfig};

/// Worker threads, or fewer on a machine with fewer cores: fixed, so runs
/// on different machines do the same parallel work.
const THREADS: usize = 2;

/// Stack for the thread that runs the workload: version-space
/// refactoring and extraction recurse deeply.
const STACK_BYTES: usize = 256 * 1024 * 1024;

struct Args {
    config: RunConfig,
    /// Accepted and recorded; every workload runs a fixed corpus, so all
    /// seeds do the same work (see `README.md`).
    seed: u64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        config: RunConfig {
            kind,
            seconds: number("--seconds")? as f64,
            trace,
        },
        seed: number("--seed")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { config, seed } = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "dcbench: {e}\nusage: dcbench --workload search_list|compress_gt|cycle_list \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = THREADS.min(available);
    rayon::set_max_threads(Some(threads));
    let kind = config.kind;
    let worker = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || run(&config))
        .expect("spawn the benchmark thread");
    let Ok(report) = worker.join() else {
        eprintln!("dcbench: the workload panicked");
        return ExitCode::FAILURE;
    };
    eprintln!(
        "dcbench: workload={} seed={seed} threads={threads} available_parallelism={available} \
         fingerprint={:016x}{} inventions={} pass_walls_s={:?}",
        kind.name(),
        report.fingerprint,
        report
            .program_stream
            .map(|s| format!(" program_stream={s:016x}"))
            .unwrap_or_default(),
        report.inventions,
        report.walls,
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
