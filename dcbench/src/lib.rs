//! # dcbench
//!
//! The repository benchmark: three seeded, nats-bounded workloads, each
//! run in its own process with a fixed worker-thread count.
//!
//! * [`search_list`] — wake-style search over every list task under a
//!   uniform grammar: enumeration and type unification.
//! * [`compress_gt`] — abstraction sleep on the tower and logo
//!   ground-truth corpora: refactoring, candidate rewrite and scoring.
//! * [`cycle_list`] — two deterministic wake/sleep cycles on `list`
//!   under the full condition: everything a user runs.
//!
//! A run repeats its workload for a fixed time and reports medians. Every
//! pass checks its outputs and hashes them into a [`Fingerprint`]; a run
//! whose passes disagree, or whose checks fail, is not correct. The
//! end-to-end metrics come from runs with telemetry off; a traced run
//! (`--trace 1`) repeats the workload with telemetry on and reports the
//! per-layer metrics instead. See `README.md` next to this crate.

pub mod compress_gt;
pub mod cycle_list;
pub mod fingerprint;
pub mod probes;
pub mod search_list;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use fingerprint::Fingerprint;
use probes::{ratio, Telemetry};

/// End-to-end metrics (name, unit), reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("programs_per_s", "1/s"),
    ("tasks_solved", "count"),
    ("library_size", "count"),
    ("description_nats", "nats"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (name, unit), reported with `--trace 1`. A layer a
/// workload does not exercise, or does not probe, reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("enumeration.programs", "count"),
    ("enumeration.holes", "count"),
    ("enumeration.ns_per_program", "ns"),
    ("enumeration.ns_per_hole", "ns"),
    ("enumeration.rejected_per_program", "ratio"),
    ("types.trials", "count"),
    ("types.ns_per_trial", "ns"),
    ("types.feasible_ratio", "ratio"),
    ("types.unification_failures", "count"),
    ("eval.calls", "count"),
    ("eval.ns_per_call", "ns"),
    ("eval.hit_ratio", "ratio"),
    ("eval.errors", "count"),
    ("eval.fuel_exhausted", "count"),
    ("grammar.log_prior_us", "us"),
    ("grammar.fit_ms", "ms"),
    ("vspace.nodes", "count"),
    ("vspace.refactor_ms", "ms"),
    ("compression.candidates_scored", "count"),
    ("compression.candidate_ms", "ms"),
    ("compression.rewrite_ms", "ms"),
    ("compression.score_ms", "ms"),
    ("compression.accept_ratio", "ratio"),
    ("recognition.predict_us", "us"),
    ("recognition.train_ms", "ms"),
    ("recognition.examples_trained", "count"),
    ("dream.fantasies", "count"),
    ("dream.fantasy_ms", "ms"),
    ("phase.wake_s", "s"),
    ("phase.compression_s", "s"),
    ("phase.dream_s", "s"),
    ("phase.eval_s", "s"),
    ("phase.coverage", "ratio"),
    ("trace_overhead", "ratio"),
    ("passes_traced", "count"),
];

/// Set-up is timed this many times before the passes and again after
/// each round of passes; `setup_s` is the median of them all. A set-up
/// takes well under 10 ms, so spreading the samples over the run costs
/// little and lets the median ride out short bursts of load on the
/// machine, as the passes' median does.
const SETUP_REPS: usize = 21;

/// Fewest measured passes per run, however long one pass takes.
const MIN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// See [`search_list`].
    SearchList,
    /// See [`compress_gt`].
    CompressGt,
    /// See [`cycle_list`].
    CycleList,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::SearchList, Kind::CompressGt, Kind::CycleList];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SearchList => "search_list",
            Kind::CompressGt => "compress_gt",
            Kind::CycleList => "cycle_list",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The work fingerprint and program-stream fingerprint a pass
    /// produces. They change only when the program's outputs change:
    /// a change that means to alter outputs updates them, and a change
    /// that claims a speed-up must leave them as they are.
    pub fn expected(self) -> (u64, Option<u64>) {
        match self {
            Kind::SearchList => (0x2c14_593f_4341_0bf9, Some(0x568c_6c47_001c_c528)),
            Kind::CompressGt => (0x04d1_5dd3_fb04_0cc1, None),
            Kind::CycleList => (0xf09c_c239_8618_d9f5, None),
        }
    }

    /// Build the workload's inputs.
    pub fn setup(self) -> Box<dyn Workload> {
        match self {
            Kind::SearchList => Box::new(search_list::SearchList::new()),
            Kind::CompressGt => Box::new(compress_gt::CompressGt::new()),
            Kind::CycleList => Box::new(cycle_list::CycleList::new()),
        }
    }
}

/// The checked outcome of one pass over a workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Hash of everything the pass produced.
    pub fingerprint: u64,
    /// Operations attempted: task searches, corpus compressions or cycles.
    pub attempted: u64,
    /// Operations that panicked or whose outputs failed their check.
    pub failed: u64,
    /// Programs the workload's main layer handled (enumerated, or corpus
    /// programs compressed).
    pub programs: u64,
    /// Tasks solved (for `compress_gt`: corpus programs rewritten to use
    /// a learned invention).
    pub tasks_solved: u64,
    /// Productions in the final library (summed over corpora).
    pub library_size: u64,
    /// Inventions accepted.
    pub inventions: u64,
    /// Description length of the results in nats: the negated log
    /// posterior of each solved task's best program, or the negated
    /// compression objective.
    pub description_nats: f64,
}

/// Per-layer numbers a workload's probes produced.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Metric values by [`PER_LAYER`] name.
    pub values: BTreeMap<&'static str, f64>,
    /// Hash of the enumerator's program stream, where probed.
    pub program_stream: Option<u64>,
}

/// A workload whose inputs are built and which can run passes.
pub trait Workload {
    /// Run the workload once. Returns the wall time of the calls into the
    /// program, and the outcome, checked and fingerprinted outside that
    /// time. `traced` passes run with telemetry on and may wrap inputs in
    /// the timing probes of [`probes`].
    fn pass(&self, traced: bool) -> (Duration, Pass);

    /// Per-layer metrics from the traced passes' telemetry (`traced`,
    /// per pass) and from probes that call the crates directly.
    fn layers(&self, traced: &Telemetry, passes: f64) -> Layers;
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub kind: Kind,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every pass produced the same, expected fingerprint and no
    /// operation failed.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// Metrics in declaration order: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The passes' fingerprint (the first pass's, if they disagree).
    pub fingerprint: u64,
    /// The program-stream fingerprint, on traced `search_list` runs.
    pub program_stream: Option<u64>,
    /// Inventions accepted in one pass.
    pub inventions: u64,
    /// Wall seconds of each measured pass (untraced ones on traced runs).
    pub walls: Vec<f64>,
}

impl Report {
    /// The report as the one-line JSON object the benchmark prints.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float as JSON (non-finite values, which no metric should
/// produce, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// The passes of one run.
#[derive(Default)]
struct Measured {
    /// Outcome of the untimed warm-up pass.
    warmup: Pass,
    /// (wall seconds, outcome) of each timed pass with telemetry off.
    untraced: Vec<(f64, Pass)>,
    /// The same for passes with telemetry on (traced runs only).
    traced: Vec<(f64, Pass)>,
    /// Peak resident set size in MB at the end of the warm-up pass. Later
    /// passes reuse the memory earlier ones freed, unevenly across
    /// threads, so their peaks say more about the allocator than the work.
    peak_rss_mb: f64,
    /// Telemetry recorded by the traced passes, in total.
    telemetry: Telemetry,
    /// Seconds of each set-up timed between rounds.
    setup_s: Vec<f64>,
}

/// Run an untimed warm-up pass, then timed passes until the next round
/// would overrun `budget`, and at least [`MIN_PASSES`] rounds. The first
/// pass in a process runs on a cold heap and caches and was the slowest
/// in most runs. On traced runs each round is an untraced pass followed
/// by a traced one, so drift in machine speed affects both sides of
/// `trace_overhead` alike. After each round, [`SETUP_REPS`] fresh set-ups
/// of `kind` are timed.
fn measure(kind: Kind, workload: &dyn Workload, budget: f64, trace: bool) -> Measured {
    let mut m = Measured {
        warmup: workload.pass(false).1,
        peak_rss_mb: peak_rss_mb(),
        ..Measured::default()
    };
    let started = Instant::now();
    let before = Telemetry::read();
    loop {
        let (wall, pass) = workload.pass(false);
        let mut round = wall.as_secs_f64();
        m.untraced.push((round, pass));
        if trace {
            // Recording is off outside traced passes, so the difference
            // between the readings before and after the loop is theirs.
            dc_telemetry::enable();
            let (wall, pass) = workload.pass(true);
            dc_telemetry::disable();
            round += wall.as_secs_f64();
            m.traced.push((wall.as_secs_f64(), pass));
        }
        m.setup_s.extend(time_setups(kind, SETUP_REPS));
        if m.untraced.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + round > budget {
            break;
        }
    }
    m.telemetry = Telemetry::read().since(&before);
    m
}

/// Seconds of each of `reps` fresh set-ups of `kind`; each workload is
/// dropped outside the clock.
fn time_setups(kind: Kind, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            let built = kind.setup();
            let seconds = started.elapsed().as_secs_f64();
            drop(built);
            seconds
        })
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics every workload reports from the traced passes'
/// counters and span histograms (`t` and `traced_wall` are per pass).
fn telemetry_layers(t: &Telemetry, traced_wall: f64) -> BTreeMap<&'static str, f64> {
    let ms = |name: &str| ratio(t.ns(name), t.samples(name)) / 1e6;
    let secs = |name: &str| t.ns(name) / 1e9;
    let programs = t.counter("enumeration.programs");
    let scored = t.counter("compression.candidates_scored");
    let phases = [
        "cycle.wake",
        "cycle.compression",
        "cycle.dream",
        "cycle.eval",
    ];
    let phase_total: f64 = phases.iter().map(|p| secs(p)).sum();
    BTreeMap::from([
        ("enumeration.programs", programs),
        (
            "enumeration.rejected_per_program",
            ratio(t.counter("enumeration.typed_out"), programs),
        ),
        (
            "types.unification_failures",
            t.counter("enumeration.unification_failures"),
        ),
        ("eval.errors", t.counter("eval.errors")),
        ("eval.fuel_exhausted", t.counter("eval.fuel_exhausted")),
        ("compression.candidates_scored", scored),
        ("compression.candidate_ms", ms("compression.candidate_time")),
        ("compression.rewrite_ms", ms("compression.rewrite_time")),
        ("compression.score_ms", ms("compression.score_time")),
        (
            "compression.accept_ratio",
            ratio(t.counter("compression.inventions_accepted"), scored),
        ),
        ("recognition.train_ms", t.ns("dream.train") / 1e6),
        (
            "recognition.examples_trained",
            t.counter("recognition.examples_trained"),
        ),
        ("dream.fantasies", t.samples("dream.fantasy")),
        ("dream.fantasy_ms", ms("dream.fantasy")),
        ("phase.wake_s", secs("cycle.wake")),
        ("phase.compression_s", secs("cycle.compression")),
        ("phase.dream_s", secs("cycle.dream")),
        ("phase.eval_s", secs("cycle.eval")),
        ("phase.coverage", ratio(phase_total, traced_wall)),
    ])
}

/// Set up, measure and check one workload.
pub fn run(config: &RunConfig) -> Report {
    let mut setup_s = time_setups(config.kind, SETUP_REPS);
    let workload = config.kind.setup();

    let Measured {
        warmup,
        untraced,
        traced,
        peak_rss_mb,
        telemetry,
        setup_s: between_rounds,
    } = measure(config.kind, &*workload, config.seconds, config.trace);
    setup_s.extend(between_rounds);
    let layers = config.trace.then(|| {
        let passes = traced.len() as f64;
        let per_pass = telemetry.per_pass(passes);
        let mean_traced_wall = traced.iter().map(|(w, _)| w).sum::<f64>() / passes;
        let mut layers = workload.layers(&per_pass, passes);
        for (name, value) in telemetry_layers(&per_pass, mean_traced_wall) {
            layers.values.entry(name).or_insert(value);
        }
        layers
    });

    let all: Vec<&Pass> = std::iter::once(&warmup)
        .chain(untraced.iter().chain(&traced).map(|(_, p)| p))
        .collect();
    let first = all[0].clone();
    let agree = all.iter().all(|p| p.fingerprint == first.fingerprint);
    if !agree {
        eprintln!(
            "dcbench: passes disagree: {:?}",
            all.iter()
                .map(|p| format!("{:016x}", p.fingerprint))
                .collect::<Vec<_>>()
        );
    }
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let walls: Vec<f64> = untraced.iter().map(|(w, _)| *w).collect();
    let wall_s = median(&walls);

    let mut program_stream = None;
    let metrics = match layers {
        Some(mut layers) => {
            let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
            let traced_wall = median(&traced_walls);
            layers.values.insert("trace_overhead", traced_wall / wall_s);
            layers.values.insert("passes_traced", traced.len() as f64);
            program_stream = layers.program_stream;
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.values.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        }
        None => {
            let values = [
                median(&setup_s),
                wall_s,
                first.programs as f64 / wall_s,
                first.tasks_solved as f64,
                first.library_size as f64,
                first.description_nats,
                peak_rss_mb,
                1.0 - failed as f64 / attempted.max(1) as f64,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
    };
    let (fingerprint, stream) = config.kind.expected();
    let expected =
        first.fingerprint == fingerprint && program_stream.is_none_or(|s| Some(s) == stream);
    if !expected {
        eprintln!("dcbench: outputs differ from the expected fingerprints");
    }
    Report {
        correct: agree && failed == 0 && expected,
        attempted,
        failed,
        metrics,
        fingerprint: first.fingerprint,
        program_stream,
        inventions: first.inventions,
        walls,
    }
}
