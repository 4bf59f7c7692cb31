//! Probes for the traced run. They wrap or call the crates' public
//! functions from the benchmark's side and read the counters and span
//! histograms that `dc-telemetry` already records; nothing here adds
//! tracing inside the program.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dc_grammar::grammar::ProgramPrior;
use dc_grammar::library::{BigramParent, Library, WeightVector};
use dc_lambda::expr::Expr;
use dc_tasks::task::{Task, TaskOracle};

/// Calls, hits and time spent in task oracles, shared by every
/// [`TimingOracle`] of one workload.
#[derive(Debug, Default)]
pub struct OracleStats {
    calls: AtomicU64,
    hits: AtomicU64,
    ns: AtomicU64,
}

impl OracleStats {
    /// `(calls, hits, ns)` so far.
    pub fn read(&self) -> [u64; 3] {
        [
            self.calls.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        ]
    }
}

/// A [`TaskOracle`] that times every call into the wrapped oracle.
pub struct TimingOracle {
    inner: Arc<dyn TaskOracle>,
    stats: Arc<OracleStats>,
}

impl TaskOracle for TimingOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        let started = Instant::now();
        let ll = self.inner.log_likelihood(program);
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.ns.fetch_add(ns, Ordering::Relaxed);
        if ll.is_finite() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        }
        ll
    }
}

/// `task` with its oracle wrapped in a [`TimingOracle`] reporting to `stats`.
pub fn timed_task(task: &Task, stats: &Arc<OracleStats>) -> Task {
    Task {
        oracle: Arc::new(TimingOracle {
            inner: Arc::clone(&task.oracle),
            stats: Arc::clone(stats),
        }),
        ..task.clone()
    }
}

/// A [`ProgramPrior`] that counts `weights()` calls. The enumerator asks
/// for weights once per hole it expands, so the count is the hole count.
pub struct CountingPrior<'a> {
    inner: &'a dyn ProgramPrior,
    holes: Cell<u64>,
}

impl<'a> CountingPrior<'a> {
    /// Wrap `inner` with a zeroed hole count.
    pub fn new(inner: &'a dyn ProgramPrior) -> CountingPrior<'a> {
        CountingPrior {
            inner,
            holes: Cell::new(0),
        }
    }

    /// Holes expanded so far.
    pub fn holes(&self) -> u64 {
        self.holes.get()
    }
}

impl ProgramPrior for CountingPrior<'_> {
    fn library(&self) -> &Arc<Library> {
        self.inner.library()
    }

    fn weights(&self, parent: BigramParent, arg: usize) -> &WeightVector {
        self.holes.set(self.holes.get() + 1);
        self.inner.weights(parent, arg)
    }
}

/// Counters the traced run reads, as registered by the crates.
const COUNTERS: [&str; 8] = [
    "enumeration.programs",
    "enumeration.typed_out",
    "enumeration.unification_failures",
    "eval.errors",
    "eval.fuel_exhausted",
    "compression.candidates_scored",
    "compression.inventions_accepted",
    "recognition.examples_trained",
];

/// Histograms (and the spans that feed them) the traced run reads.
const HISTOGRAMS: [&str; 10] = [
    "enumeration.run_time",
    "compression.candidate_time",
    "compression.rewrite_time",
    "compression.score_time",
    "dream.train",
    "dream.fantasy",
    "cycle.wake",
    "cycle.compression",
    "cycle.dream",
    "cycle.eval",
];

/// A reading of every counter and histogram in [`COUNTERS`] and
/// [`HISTOGRAMS`]; subtracting two readings gives the telemetry of the
/// passes between them.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    counters: Vec<f64>,
    hist_count: Vec<f64>,
    hist_ns: Vec<f64>,
}

impl Telemetry {
    /// Read the current totals.
    pub fn read() -> Telemetry {
        Telemetry {
            counters: COUNTERS
                .iter()
                .map(|n| dc_telemetry::counter(n).value() as f64)
                .collect(),
            hist_count: HISTOGRAMS
                .iter()
                .map(|n| dc_telemetry::histogram(n).count() as f64)
                .collect(),
            hist_ns: HISTOGRAMS
                .iter()
                .map(|n| dc_telemetry::histogram(n).sum_ns() as f64)
                .collect(),
        }
    }

    /// What was recorded since `earlier`.
    pub fn since(&self, earlier: &Telemetry) -> Telemetry {
        let sub = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Telemetry {
            counters: sub(&self.counters, &earlier.counters),
            hist_count: sub(&self.hist_count, &earlier.hist_count),
            hist_ns: sub(&self.hist_ns, &earlier.hist_ns),
        }
    }

    /// Every total divided by `passes`.
    pub fn per_pass(&self, passes: f64) -> Telemetry {
        let div = |a: &[f64]| a.iter().map(|x| x / passes).collect();
        Telemetry {
            counters: div(&self.counters),
            hist_count: div(&self.hist_count),
            hist_ns: div(&self.hist_ns),
        }
    }

    /// Counter total.
    ///
    /// # Panics
    /// When `name` is not in [`COUNTERS`].
    pub fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("counter is read by the traced run");
        self.counters[i]
    }

    fn hist(&self, name: &str) -> usize {
        HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .expect("histogram is read by the traced run")
    }

    /// Samples recorded into a histogram.
    pub fn samples(&self, name: &str) -> f64 {
        self.hist_count[self.hist(name)]
    }

    /// Nanoseconds recorded into a histogram.
    pub fn ns(&self, name: &str) -> f64 {
        self.hist_ns[self.hist(name)]
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
