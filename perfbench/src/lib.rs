//! The repository benchmark: four workloads over the `mmdiag` diagnosis
//! stack, each run in its own process, each checking every labelling it
//! gets against a truth the program did not compute.
//!
//! A run does a fixed, seeded list of work (the seed and `--seconds` fix
//! it completely), times each operation with `mmdiag_trace::clock`, and
//! reports either the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run, see [`layers`]). See `README.md` for the
//! workloads, the metrics and the reference figures.

pub mod inputs;
pub mod layers;
pub mod measure;
mod online;
mod scale;
mod sweep;

use measure::{Metric, Report, Timings};
use mmdiag::topology::NodeId;
use mmdiag::trace::{export, TraceConfig, Tracer};
use std::path::PathBuf;

/// Set-up is repeated this many times per run; `setup_s` is the median.
/// `family-sweep`, whose set-up is short, repeats it more often.
pub const SETUP_REPS: usize = 3;
/// Every workload times at least this many operations per run, so the
/// tail percentile has ten samples beyond it.
pub const MIN_OPS: usize = 40;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PermScale,
    CubeScale,
    FamilySweep,
    OnlineEpochs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PermScale,
        Workload::CubeScale,
        Workload::FamilySweep,
        Workload::OnlineEpochs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PermScale => "perm-scale",
            Workload::CubeScale => "cube-scale",
            Workload::FamilySweep => "family-sweep",
            Workload::OnlineEpochs => "online-epochs",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Scales the fixed work list (whole rounds); see each workload.
    pub seconds: u64,
    /// Traced run: per-layer metrics and a Chrome trace.
    pub trace: bool,
    /// Toy instance sizes, for the smoke test.
    pub toy: bool,
    /// Where the traced run writes its Chrome trace.
    pub out_dir: PathBuf,
}

/// Operation outcomes and labelling checks of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    wrong: u64,
}

impl Tally {
    /// Record a labelling that must equal `truth`; `true` when it does.
    pub fn check(&mut self, what: &str, got: &[NodeId], truth: &[NodeId]) -> bool {
        let ok = got == truth;
        if !ok {
            self.wrong(&format!(
                "{what}: labelled {} faults, truth has {}",
                got.len(),
                truth.len()
            ));
        }
        ok
    }

    /// Record a wrong answer.
    pub fn wrong(&mut self, what: &str) {
        self.wrong += 1;
        if self.wrong <= 5 {
            eprintln!("perfbench: wrong result: {what}");
        }
    }

    pub fn is_correct(&self) -> bool {
        self.wrong == 0
    }
}

/// The end-to-end observations of one untraced (or traced) run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of every timed operation, failed ones included.
    pub times: Timings,
    /// Correct diagnoses (or epochs).
    pub ok: u64,
    /// Lookups and nodes of the correct diagnoses.
    pub lookups: u64,
    pub nodes: u64,
    /// Wall time of each set-up repetition.
    pub setup_ns: Vec<u64>,
    /// RSS before the first set-up.
    pub rss_before: u64,
    /// Peak RSS after one set-up, the timed work and its checks, read
    /// before the remaining set-up repetitions, which are dropped but
    /// leave the process's RSS higher.
    pub peak_rss: u64,
    /// Node count of the largest instance the run holds.
    pub largest_nodes: usize,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        let (_, tail) = self.times.tail_ms();
        let wall_s = self.times.total_ns() as f64 / 1e9;
        vec![
            Metric::new("setup_s", measure::median_s(&self.setup_ns), "s"),
            Metric::new("diagnoses_per_s", self.ok as f64 / wall_s, "1/s"),
            Metric::new("diagnosis_ms_p50", self.times.median_ms(), "ms"),
            Metric::new("diagnosis_ms_tail", tail, "ms"),
            Metric::new(
                "lookups_per_node",
                self.lookups as f64 / self.nodes.max(1) as f64,
                "lookups/node",
            ),
            Metric::new(
                "peak_rss_bytes_per_node",
                self.peak_rss.saturating_sub(self.rss_before) as f64
                    / self.largest_nodes.max(1) as f64,
                "B/node",
            ),
        ]
    }

    /// Context figures of the timed loop (the traced run prints these
    /// beside its per-layer metrics, for the tracing-overhead comparison).
    fn context(&self) -> String {
        let (p, tail) = self.times.tail_ms();
        format!(
            "{{\"samples\": {}, \"tail_percentile\": {p}, \"diagnosis_ms_p50\": {}, \
             \"diagnosis_ms_tail\": {tail}, \"diagnoses_per_s\": {}}}",
            self.times.len(),
            self.times.median_ms(),
            self.ok as f64 / (self.times.total_ns() as f64 / 1e9)
        )
    }
}

/// What a workload hands back to [`run`].
pub struct Outcome {
    pub tally: Tally,
    pub e2e: EndToEnd,
    pub layers: layers::Layers,
}

/// Check the pool stays within the machine and record every resolved
/// tuning knob, so no run is tuned by a file or variable nobody saw.
fn knobs_context() -> Result<String, String> {
    let k = mmdiag::exec::knobs();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = mmdiag::exec::default_threads();
    if pool > nproc {
        return Err(format!(
            "the pool would run {pool} workers on {nproc} CPUs; unset MMDIAG_POOL_THREADS \
             or set it to at most {nproc}"
        ));
    }
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    Ok(format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {pool}, \"sequential_cutover\": {}, \
         \"grow_cutover\": {}, \"env_pool_threads\": {}, \"env_cutover\": {}, \
         \"env_grow_cutover\": {}, \"env_trace\": {}}}",
        mmdiag::diagnosis::sequential_cutover(),
        mmdiag::diagnosis::grow_cutover(),
        opt(k.pool_threads),
        opt(k.cutover),
        opt(k.grow_cutover),
        k.trace
    ))
}

/// Run one workload and assemble its report. `Err` means the run could
/// not be carried out (bad environment, unreadable memory figures); a
/// wrong labelling is a report with `correct == false`.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let knobs = knobs_context()?;
    let tracer = if cfg.trace {
        Tracer::new(TraceConfig {
            shards: 2,
            shard_capacity: 1 << 18,
        })
    } else {
        Tracer::disabled()
    };
    let outcome = match cfg.workload {
        Workload::PermScale | Workload::CubeScale => scale::run(cfg, &tracer)?,
        Workload::FamilySweep => sweep::run(cfg, &tracer)?,
        Workload::OnlineEpochs => online::run(cfg, &tracer)?,
    };
    let mut report = Report {
        correct: outcome.tally.is_correct(),
        attempted: outcome.tally.attempted,
        failed: outcome.tally.failed,
        metrics: Vec::new(),
        context: vec![
            ("workload".into(), format!("\"{}\"", cfg.workload.name())),
            ("seed".into(), cfg.seed.to_string()),
            ("knobs".into(), knobs),
        ],
    };
    if cfg.trace {
        report.metrics = outcome.layers.metrics();
        report
            .context
            .push(("traced_loop".into(), outcome.e2e.context()));
        let path = write_trace(cfg, &tracer)?;
        report
            .context
            .push(("trace_file".into(), format!("\"{}\"", path.display())));
    } else {
        report.metrics = outcome.e2e.metrics();
        report.context.push((
            "tail_percentile".into(),
            outcome.e2e.times.tail_ms().0.to_string(),
        ));
        report
            .context
            .push(("samples".into(), outcome.e2e.times.len().to_string()));
    }
    Ok(report)
}

/// Export the run's spans as a Chrome trace, check it parses, write it.
fn write_trace(cfg: &Config, tracer: &Tracer) -> Result<PathBuf, String> {
    let events = tracer.drain();
    let doc = export::chrome_trace(&events, &[]);
    export::validate_json(&doc).map_err(|e| format!("exported trace is not valid JSON: {e}"))?;
    if tracer.dropped() > 0 {
        eprintln!(
            "perfbench: trace ring overflowed, {} oldest events dropped",
            tracer.dropped()
        );
    }
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!(
        "{}-seed{}.trace.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
