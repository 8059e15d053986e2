//! Per-layer measurements of the traced run.
//!
//! Every figure here comes from timing a call into one layer's public
//! functions from the benchmark's own code, inside a span of the run's
//! [`Tracer`] — the program itself is not instrumented. The span's
//! returned duration is the measured value, so the exported trace and the
//! printed metric are the same number.

use crate::inputs::{self, Rng};
use crate::measure::Metric;
use crate::Tally;
use mmdiag::diagnosis::{
    grow_from_certificate, probe_part, Certificate, Diagnosis, DiagnosisError, Workspace,
};
use mmdiag::syndrome::{OnDemandOracle, SyndromeSource, TesterBehavior};
use mmdiag::topology::{Cached, NodeId, Partitionable, Topology};
use mmdiag::trace::Tracer;
use mmdiag::{Diagnoser, EpochReport};
use std::hint::black_box;

/// Span category of every span the benchmark records.
pub const CAT: &str = "perfbench";

/// Nodes timed per instance by the `neighbors_into` measurement.
const NEIGHBOR_SAMPLE: usize = 1 << 14;
/// Distinct `(tester, pair)` triples per instance for the lookup timing.
const LOOKUP_TRIPLES: usize = 2048;
/// Lookups timed per instance (the triple list is replayed).
const LOOKUP_CALLS: usize = 1 << 16;

/// The kind of a monitoring epoch, as its report classifies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EpochKind {
    Incremental,
    Quiescent,
    Escalated,
}

impl EpochKind {
    fn of(report: &EpochReport) -> Self {
        if report.quiescent {
            EpochKind::Quiescent
        } else if report.escalation.is_some() {
            EpochKind::Escalated
        } else {
            EpochKind::Incremental
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Sum and count of one timed call.
#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    ns: u64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    fn mean_ms(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64 / 1e6
    }
}

/// One probe scan and, when a part certified, the growth from its
/// certificate.
struct Split {
    probe_ns: u64,
    probes: u64,
    probe_lookups: u64,
    /// Growth wall time, lookups and labelling.
    grow: Option<(u64, u64, Result<Diagnosis, DiagnosisError>)>,
}

/// The probe scan — `probe_part` in part order until a part certifies —
/// then `grow_from_certificate` on its certificate, each in a span.
fn probe_and_grow(
    tr: &Tracer,
    g: &(dyn Partitionable + Sync),
    s: &(dyn SyndromeSource + Sync),
    ws: &mut Workspace,
) -> Split {
    let bound = g.driver_fault_bound();
    let start = s.lookups();
    let probe_span = tr.span(CAT, "core.probe_scan");
    let mut certificate: Option<Certificate> = None;
    let mut probes = 0usize;
    for part in 0..g.part_count() {
        probes += 1;
        let probe = probe_part(g, s, part, bound, ws);
        if probe.certificate.is_some() {
            certificate = probe.certificate;
            break;
        }
    }
    let probe_lookups = s.lookups() - start;
    let probe_ns = probe_span.finish_with_value(probe_lookups);
    let grow = certificate.map(|certificate| {
        let grow_start = s.lookups();
        let grow_span = tr.span(CAT, "core.grow_from_certificate");
        let grown = grow_from_certificate(g, s, &certificate, probes, bound, start, ws);
        let grow_lookups = s.lookups() - grow_start;
        (
            grow_span.finish_with_value(grow_lookups),
            grow_lookups,
            grown,
        )
    });
    Split {
        probe_ns,
        probes: probes as u64,
        probe_lookups,
        grow,
    }
}

/// Accumulated per-layer observations of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    neighbors: Acc,
    neighbor_nodes: u64,
    cached_build: Acc,
    certified_partition: Acc,
    lookup: Acc,
    lookup_calls: u64,
    probe: Acc,
    parts_probed: u64,
    probe_lookups: u64,
    grow: Acc,
    grow_nodes: u64,
    grow_lookups: u64,
    tree_bytes: u64,
    seq_ns: u64,
    auto_ns: u64,
    seq_probes: u64,
    auto_probes: u64,
    seq_lookups: u64,
    auto_lookups: u64,
    exec_nodes: u64,
    overhead_ns: i128,
    overhead_samples: u64,
    ingest: [Acc; 3],
    parts_reused: u64,
    parts_reprobed: u64,
    epoch_lookups: u64,
    scratch_lookups: u64,
    regrow_ns: u64,
    regrow_ingest_ns: u64,
    /// `mem.rss_after_setup_per_node`, set by the workload.
    pub rss_after_setup_per_node: f64,
}

impl Layers {
    /// `Topology::neighbors_into` over a fixed seeded node sample.
    pub fn time_neighbors(&mut self, tr: &Tracer, g: &dyn Topology, rng: &mut Rng) {
        let sample = inputs::node_sample(g.node_count(), NEIGHBOR_SAMPLE, rng);
        let mut buf = Vec::new();
        let span = tr.span(CAT, "topology.neighbors_into");
        for &u in &sample {
            g.neighbors_into(u, &mut buf);
            black_box(&buf);
        }
        self.neighbors
            .add(span.finish_with_value(sample.len() as u64));
        self.neighbor_nodes += sample.len() as u64;
    }

    /// `Cached::new` — the CSR materialisation.
    pub fn time_cached_build(&mut self, tr: &Tracer, fam: &dyn Partitionable) -> Cached {
        let span = tr.span(CAT, "topology.cached_new");
        let cached = Cached::new(fam);
        self.cached_build
            .add(span.finish_with_value(fam.node_count() as u64));
        cached
    }

    /// A certified-partition step: `new_certified`, or the part-local
    /// capacity check where the family's partition is fixed.
    pub fn time_certified<R>(&mut self, tr: &Tracer, f: impl FnOnce() -> R) -> R {
        let span = tr.span(CAT, "topology.certified_partition");
        let out = f();
        self.certified_partition.add(span.finish());
        out
    }

    /// `SyndromeSource::lookup` over a fixed seeded list of valid
    /// `(tester, neighbour, neighbour)` triples.
    pub fn time_lookups(
        &mut self,
        tr: &Tracer,
        g: &dyn Topology,
        s: &(dyn SyndromeSource + Sync),
        rng: &mut Rng,
    ) {
        let mut triples = Vec::with_capacity(LOOKUP_TRIPLES);
        let mut buf = Vec::new();
        while triples.len() < LOOKUP_TRIPLES {
            let u = rng.below(g.node_count());
            g.neighbors_into(u, &mut buf);
            if buf.len() < 2 {
                continue;
            }
            let i = rng.below(buf.len());
            let j = (i + 1 + rng.below(buf.len() - 1)) % buf.len();
            triples.push((u, buf[i], buf[j]));
        }
        let span = tr.span(CAT, "syndrome.lookup");
        for k in 0..LOOKUP_CALLS {
            let (u, v, w) = triples[k % LOOKUP_TRIPLES];
            black_box(s.lookup(u, v, w));
        }
        self.lookup.add(span.finish_with_value(LOOKUP_CALLS as u64));
        self.lookup_calls += LOOKUP_CALLS as u64;
    }

    /// The layer split of one diagnosis, checked against `planted`:
    ///
    /// * the probe scan — `probe_part` in part order until a part
    ///   certifies — then `grow_from_certificate` on its certificate;
    /// * a sequential and an auto `Diagnoser::run` on the same syndrome
    ///   (backend comparison; the sequential run minus the probe + grow
    ///   calls is the session overhead).
    ///
    /// An untimed pass of all three first puts every timed call on equally
    /// warm caches and workspaces.
    #[allow(clippy::too_many_arguments)]
    pub fn diagnosis_layers(
        &mut self,
        tr: &Tracer,
        seq: &Diagnoser<'_>,
        auto: &Diagnoser<'_>,
        s: &(dyn SyndromeSource + Sync),
        planted: &[NodeId],
        ws: &mut Workspace,
        tally: &mut Tally,
    ) {
        let g = seq.topology();
        let untimed = (
            seq.run(s),
            auto.run(s),
            probe_and_grow(&Tracer::disabled(), g, s, ws),
        );
        black_box(&untimed);

        let split = probe_and_grow(tr, g, s, ws);
        self.probe.add(split.probe_ns);
        self.parts_probed += split.probes;
        self.probe_lookups += split.probe_lookups;
        let mut split_ns = None;
        if let Some((grow_ns, grow_lookups, grown)) = split.grow {
            self.grow.add(grow_ns);
            self.grow_nodes += g.node_count() as u64;
            self.grow_lookups += grow_lookups;
            match grown {
                Ok(d) => {
                    self.tree_bytes += std::mem::size_of_val(d.tree.edges()) as u64;
                    tally.check("probe+grow", &d.faults, planted);
                }
                Err(e) => tally.wrong(&format!("growth from a certificate failed: {e}")),
            }
            split_ns = Some(split.probe_ns + grow_ns);
        }

        let nodes = g.node_count() as u64;
        let before = s.lookups();
        let span = tr.span(CAT, "session.run_sequential");
        let seq_out = seq.run(s);
        let seq_ns = span.finish();
        let seq_lookups = s.lookups() - before;

        let before = s.lookups();
        let span = tr.span(CAT, "session.run_auto");
        let auto_out = auto.run(s);
        let auto_ns = span.finish();
        let auto_lookups = s.lookups() - before;

        match (seq_out, auto_out) {
            (Ok(a), Ok(b)) => {
                tally.check("sequential session", &a.diagnosis.faults, planted);
                tally.check("auto session", &b.diagnosis.faults, planted);
                self.seq_ns += seq_ns;
                self.auto_ns += auto_ns;
                self.seq_probes += a.diagnosis.probes as u64;
                self.auto_probes += b.diagnosis.probes as u64;
                self.seq_lookups += seq_lookups;
                self.auto_lookups += auto_lookups;
                self.exec_nodes += nodes;
                if let Some(split) = split_ns {
                    self.overhead_ns += i128::from(seq_ns) - i128::from(split);
                    self.overhead_samples += 1;
                }
            }
            (Err(_), Err(_)) if split_ns.is_none() => {} // cannot certify
            (a, b) => tally.wrong(&format!(
                "probe scan certified: {}; sequential and auto sessions: {:?} vs {:?}",
                split_ns.is_some(),
                a.map(|r| r.diagnosis.faults),
                b.map(|r| r.diagnosis.faults)
            )),
        }
    }

    /// One monitor epoch's report and its `ingest` wall time.
    pub fn record_epoch(&mut self, report: &EpochReport, ingest_ns: u64) {
        self.ingest[EpochKind::of(report).index()].add(ingest_ns);
        self.parts_reused += report.parts_reused as u64;
        self.parts_reprobed += report.parts_reprobed as u64;
        self.epoch_lookups += report.lookups;
    }

    /// The from-scratch comparison of one epoch: a sequential
    /// `Diagnoser::run` on the epoch's syndrome (lookups and labelling),
    /// and — for non-quiescent epochs — `grow_from_certificate` on the
    /// epoch's certificate against its ingest time.
    #[allow(clippy::too_many_arguments)]
    pub fn epoch_vs_scratch(
        &mut self,
        tr: &Tracer,
        seq: &Diagnoser<'_>,
        s: &(dyn SyndromeSource + Sync),
        planted: &[NodeId],
        regrow: Option<(&Certificate, u64)>,
        ws: &mut Workspace,
        tally: &mut Tally,
    ) {
        let g = seq.topology();
        let before = s.lookups();
        let span = tr.span(CAT, "session.run_from_scratch");
        let scratch = seq.run(s);
        span.finish();
        self.scratch_lookups += s.lookups() - before;
        match scratch {
            Ok(r) => {
                tally.check("from-scratch run", &r.diagnosis.faults, planted);
            }
            Err(e) => tally.wrong(&format!("from-scratch run failed: {e}")),
        }
        if let Some((certificate, ingest_ns)) = regrow {
            let start = s.lookups();
            let span = tr.span(CAT, "core.regrow_epoch_certificate");
            let grown =
                grow_from_certificate(g, s, certificate, 1, g.driver_fault_bound(), start, ws);
            self.regrow_ns += span.finish();
            self.regrow_ingest_ns += ingest_ns;
            match grown {
                Ok(d) => {
                    tally.check("regrowth", &d.faults, planted);
                }
                Err(e) => tally.wrong(&format!("regrowth failed: {e}")),
            }
        }
    }

    /// A short scripted monitoring session on `session`'s topology, for
    /// workloads whose own operations are one-shot diagnoses: per cycle an
    /// initial or carried-over labelling, a quiescent epoch, an onset
    /// outside the certified part (incremental), a quiescent epoch, an
    /// onset inside the certified part (escalation) and the recovery of
    /// both. Every epoch's labelling is checked against its fault set and
    /// compared with a from-scratch run.
    pub fn scripted_monitor(
        &mut self,
        tr: &Tracer,
        session: &Diagnoser<'_>,
        cycles: usize,
        rng: &mut Rng,
        tally: &mut Tally,
    ) {
        let g = session.topology();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let mut monitor = match session.monitor() {
            Ok(m) => m,
            Err(e) => return tally.wrong(&format!("cannot open a monitor: {e}")),
        };
        let mut ws = Workspace::new(n);
        let mut faults = inputs::scatter(n, bound.saturating_sub(2) / 2, rng);
        let mut delta = faults.clone();
        for _ in 0..cycles {
            let mut onsets = Vec::new();
            for step in 0..6 {
                match step {
                    1 | 3 => delta.clear(),
                    2 | 4 => {
                        let Some(certificate) = monitor.certificate() else {
                            return tally.wrong("monitor lost its certificate");
                        };
                        // Inside: a node of the certified probe tree (all
                        // in the certified part). Outside: any healthy
                        // node of another part.
                        let tree = certificate.tree.edges();
                        let v = loop {
                            let v = if step == 4 && !tree.is_empty() {
                                tree[rng.below(tree.len())].0
                            } else {
                                rng.below(n)
                            };
                            let inside = g.part_of(v) == certificate.part;
                            if inside == (step == 4) && !faults.contains(&v) {
                                break v;
                            }
                        };
                        onsets.push(v);
                        faults.push(v);
                        delta = vec![v];
                    }
                    5 => {
                        faults.retain(|v| !onsets.contains(v));
                        delta = onsets.clone();
                    }
                    _ => {}
                }
                faults.sort_unstable();
                let s = OnDemandOracle::new(n, &faults, TesterBehavior::AllZero);
                let span = tr.span(CAT, "monitor.ingest");
                let report = monitor.ingest(&s, &delta);
                let ingest_ns = span.finish();
                match report {
                    Ok(r) => {
                        tally.check("scripted epoch", &r.diagnosis.faults, &faults);
                        self.record_epoch(&r, ingest_ns);
                        let regrow = (!r.quiescent).then_some((&r.certificate, ingest_ns));
                        self.epoch_vs_scratch(tr, session, &s, &faults, regrow, &mut ws, tally);
                    }
                    Err(e) => return tally.wrong(&format!("scripted epoch failed: {e}")),
                }
            }
            delta.clear();
        }
    }

    /// Every per-layer metric, in the order of `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |num: f64, den: u64| num / den.max(1) as f64;
        let kind = |k: EpochKind| self.ingest[k.index()].mean_ms();
        vec![
            Metric::new(
                "topology.neighbors_ns_per_node",
                per(self.neighbors.ns as f64, self.neighbor_nodes),
                "ns/node",
            ),
            Metric::new(
                "topology.cached_build_ms",
                self.cached_build.mean_ms(),
                "ms",
            ),
            Metric::new(
                "topology.certified_partition_ms",
                self.certified_partition.mean_ms(),
                "ms",
            ),
            Metric::new(
                "syndrome.lookup_ns",
                per(self.lookup.ns as f64, self.lookup_calls),
                "ns",
            ),
            Metric::new("core.probe_ms", self.probe.mean_ms(), "ms"),
            Metric::new(
                "core.parts_probed",
                per(self.parts_probed as f64, self.probe.calls),
                "parts",
            ),
            Metric::new(
                "core.probe_lookups",
                per(self.probe_lookups as f64, self.probe.calls),
                "lookups",
            ),
            Metric::new("core.grow_ms", self.grow.mean_ms(), "ms"),
            Metric::new(
                "core.grow_ns_per_node",
                per(self.grow.ns as f64, self.grow_nodes),
                "ns/node",
            ),
            Metric::new(
                "core.grow_lookups",
                per(self.grow_lookups as f64, self.grow.calls),
                "lookups",
            ),
            Metric::new(
                "core.tree_bytes_per_node",
                per(self.tree_bytes as f64, self.grow_nodes),
                "B/node",
            ),
            Metric::new(
                "exec.auto_speedup",
                self.seq_ns as f64 / self.auto_ns.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "exec.probe_useful_ratio",
                per(self.seq_probes as f64, self.auto_probes),
                "ratio",
            ),
            Metric::new(
                "exec.extra_lookups_per_node",
                per(
                    self.auto_lookups as f64 - self.seq_lookups as f64,
                    self.exec_nodes,
                ),
                "lookups/node",
            ),
            Metric::new(
                "session.overhead_us",
                self.overhead_ns as f64 / self.overhead_samples.max(1) as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "monitor.ingest_ms.incremental",
                kind(EpochKind::Incremental),
                "ms",
            ),
            Metric::new(
                "monitor.ingest_ms.quiescent",
                kind(EpochKind::Quiescent),
                "ms",
            ),
            Metric::new(
                "monitor.ingest_ms.escalated",
                kind(EpochKind::Escalated),
                "ms",
            ),
            Metric::new(
                "monitor.parts_reused_ratio",
                per(
                    self.parts_reused as f64,
                    self.parts_reused + self.parts_reprobed,
                ),
                "ratio",
            ),
            Metric::new(
                "monitor.lookups_vs_scratch",
                per(self.epoch_lookups as f64, self.scratch_lookups),
                "ratio",
            ),
            Metric::new(
                "monitor.regrow_share",
                per(self.regrow_ns as f64, self.regrow_ingest_ns),
                "ratio",
            ),
            Metric::new(
                "mem.rss_after_setup_per_node",
                self.rss_after_setup_per_node,
                "B/node",
            ),
        ]
    }
}
