//! End-to-end and per-layer benchmark of the PIM-Assembler workspace.
//!
//! One invocation runs one workload in a closed loop with one client: each
//! repetition sets the platform up, runs it from input file to output, and
//! checks the output against the software oracle before the next one
//! starts. Spans are recorded here, around the public calls into each
//! layer; the program itself is not instrumented. See `README.md` in this
//! directory for the metrics and the workloads.

pub mod assembly;
pub mod inputs;
pub mod ladder;
pub mod mapping;
pub mod metrics;
pub mod spec;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use metrics::{median, peak_rss_mb, Values, END_TO_END, PER_LAYER};
use spec::Spec;

/// Set-ups timed on their own before each repetition, on top of the one
/// the repetition makes, so `setup_s` is a median over many samples spread
/// across the whole run even when few repetitions fit in it.
const SETUPS_PER_REP: usize = 4;

/// Spans at the top of a run: their sum over the run's wall time is
/// `trace.coverage`.
const TOP_SPANS: [&str; 7] = [
    "genome.parse_s",
    "pipeline.feed_s",
    "pipeline.seal_s",
    "pipeline.advance_graph_s",
    "pipeline.finish_s",
    "genome.write_s",
    "mapping_stage.feed_s",
];

/// One workload, ready to run: inputs written, oracle computed.
pub trait Workload {
    /// Sets the platform up once and tears it down; returns the set-up
    /// time in seconds.
    ///
    /// # Errors
    ///
    /// Any error the program returns, as text.
    fn setup_only(&mut self) -> Result<f64, String>;

    /// One repetition: set up, run, check against the oracle.
    ///
    /// # Errors
    ///
    /// A program error or an oracle mismatch, as text.
    fn rep(&mut self, traced: bool) -> Result<Rep, String>;
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub device_time_ms: f64,
    pub device_energy_uj: f64,
    /// Exact counts (`cmd.*` of the stages the workload runs,
    /// `ledger.energy_pj`) that every repetition must repeat.
    pub counts: BTreeMap<String, u64>,
    /// Digest of the output (contigs or hits) in output order.
    pub digest: u64,
    /// Per-layer values; empty unless traced.
    pub layers: Values,
}

/// Wall-time spans recorded around calls into the program.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    pub values: Values,
    /// Duration of the latest span, in seconds.
    pub last_s: f64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, ..Spans::default() }
    }

    /// Runs `f`; when tracing, adds its duration to span `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.last_s = t.elapsed().as_secs_f64();
        *self.values.entry(name.to_string()).or_insert(0.0) += self.last_s;
        out
    }

    /// Sets `name` to `value` when tracing.
    pub fn set(&mut self, name: &str, value: f64) {
        if self.on {
            self.values.insert(name.to_string(), value);
        }
    }
}

/// How long and how one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics without tracing, per-layer metrics with it.
    pub values: Values,
    /// Untraced `run_s` samples.
    pub run_samples: Vec<f64>,
}

impl Outcome {
    /// The metric table this outcome reports.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line.
    pub fn json(&self, trace: bool) -> String {
        metrics::result_json(
            self.failed == 0,
            self.attempted,
            self.failed,
            Outcome::table(trace),
            &self.values,
        )
    }
}

/// Writes the inputs of `spec` for `seed` into `dir`, computes its oracle
/// and runs it.
///
/// # Errors
///
/// Input generation and oracle failures — the benchmark could not run at
/// all. Failures of the program under test are counted in the outcome.
pub fn run(spec: Spec, opts: &Options, dir: &Path) -> Result<Outcome, String> {
    Ok(match spec {
        Spec::Asm(s) => run_workload(&mut assembly::AsmWorkload::prepare(s, opts.seed, dir)?, opts),
        Spec::Map(s) => run_workload(&mut mapping::MapWorkload::prepare(s, opts.seed, dir)?, opts),
    })
}

/// Counts attempts and failures and holds the first repetition's exact
/// counts, which every later repetition must repeat.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<(BTreeMap<String, u64>, u64)>,
    /// Set-up times of the extra set-ups and of every repetition.
    setups: Vec<f64>,
}

impl Loop {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// Repeats for about `budget`, at least once, and stops at the first
    /// failure: a failure repeats on the same inputs.
    fn phase(&mut self, w: &mut dyn Workload, budget: Duration, traced: bool) -> Vec<Rep> {
        let start = Instant::now();
        let mut reps = Vec::new();
        let mut tries = 0u32;
        while self.failed == 0 {
            if tries > 0 && start.elapsed() + start.elapsed() / tries > budget {
                break;
            }
            tries += 1;
            for _ in 0..SETUPS_PER_REP {
                self.attempted += 1;
                match w.setup_only() {
                    Ok(s) => self.setups.push(s),
                    Err(e) => {
                        self.fail(e);
                        return reps;
                    }
                }
            }
            self.attempted += 1;
            let rep = match w.rep(traced) {
                Ok(rep) => rep,
                Err(e) => {
                    self.fail(e);
                    break;
                }
            };
            let key = (rep.counts.clone(), rep.digest);
            match &self.reference {
                None => self.reference = Some(key),
                Some(first) if *first != key => {
                    self.fail(format!(
                        "count drift: repetition {} differs from the first ({:?} vs {:?})",
                        self.attempted, key, first
                    ));
                    break;
                }
                Some(_) => {}
            }
            self.setups.push(rep.setup_s);
            reps.push(rep);
        }
        reps
    }
}

/// Runs a prepared workload for `opts.seconds`.
pub fn run_workload(w: &mut dyn Workload, opts: &Options) -> Outcome {
    let mut lp = Loop::default();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let (traced, untraced) = if opts.trace {
        // Traced first, so the peak-RSS probes inside the first traced
        // repetition see the high-water mark that repetition set.
        let traced = lp.phase(w, budget / 2, true);
        (traced, lp.phase(w, budget / 2, false))
    } else {
        (Vec::new(), lp.phase(w, budget, false))
    };
    let run_samples: Vec<f64> = untraced.iter().map(|r| r.run_s).collect();
    let values = if opts.trace {
        layer_values(&traced, &run_samples, lp.errors.is_empty())
    } else {
        let first = untraced.first().cloned().unwrap_or_default();
        Values::from([
            ("setup_s".into(), median(&lp.setups)),
            ("run_s".into(), median(&run_samples)),
            ("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0)),
            ("device_time_ms".into(), first.device_time_ms),
            ("device_energy_uj".into(), first.device_energy_uj),
        ])
    };
    Outcome { attempted: lp.attempted, failed: lp.failed, errors: lp.errors, values, run_samples }
}

/// Per-layer values: the median of each over the traced repetitions, the
/// first traced repetition's peak-RSS probes, the kernel ladder, and the
/// tracing overhead against the untraced median.
fn layer_values(traced: &[Rep], untraced_runs: &[f64], healthy: bool) -> Values {
    let mut values: Values = PER_LAYER.iter().map(|&(name, _)| (name.to_string(), 0.0)).collect();
    for (name, value) in values.iter_mut() {
        if name.starts_with("rss.") {
            *value = traced.first().and_then(|r| r.layers.get(name)).copied().unwrap_or(0.0);
        } else {
            let samples: Vec<f64> =
                traced.iter().filter_map(|r| r.layers.get(name)).copied().collect();
            *value = median(&samples);
        }
    }
    if let Some(first) = traced.first() {
        for (name, &count) in &first.counts {
            values.insert(name.clone(), count as f64);
        }
    }
    let traced_runs: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    if !traced_runs.is_empty() && !untraced_runs.is_empty() {
        values.insert("trace.overhead_s".into(), median(&traced_runs) - median(untraced_runs));
    }
    if healthy {
        values.extend(ladder::measure());
    }
    values
}

/// Adds the coverage of the top-level spans to a traced repetition's
/// layers.
pub fn add_coverage(layers: &mut Values, run_s: f64) {
    let covered: f64 = TOP_SPANS.iter().filter_map(|name| layers.get(*name)).sum();
    layers.insert("trace.coverage".into(), if run_s > 0.0 { covered / run_s } else { 0.0 });
    layers.insert("trace.unattributed_s".into(), run_s - covered);
}
