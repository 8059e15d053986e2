//! `online-epochs`: one `MonitorSession` on a certified hypercube,
//! sequential, replaying a seeded Poisson onset/recovery timeline
//! (`EpochTimeline::poisson`) of several hundred epochs, in whole rounds.
//! The initial full epoch belongs to set-up; every later epoch is one
//! timed operation, and its labelling must equal the timeline's
//! instantaneous fault set. A round after the first opens with the wrap
//! epoch — back from the last epoch's fault set to the first's, with
//! their symmetric difference as the delta.

use crate::layers::{Layers, CAT};
use crate::measure;
use crate::{Config, EndToEnd, Outcome, Tally, MIN_OPS, SETUP_REPS};
use mmdiag::diagnosis::Workspace;
use mmdiag::distsim::EpochTimeline;
use mmdiag::syndrome::{OnDemandOracle, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::{NodeId, Partitionable};
use mmdiag::trace::Tracer;
use mmdiag::{Diagnoser, MonitorSession};

/// Mean onsets and recoveries per epoch: about 40% of epochs are
/// quiescent and the live fault count hovers around four.
const ONSET_RATE: f64 = 0.5;
const RECOVERY_RATE: f64 = 0.45;
/// Epochs of the timeline (full size / toy size).
const TIMELINE_EPOCHS: usize = 1800;
const TOY_EPOCHS: usize = MIN_OPS + 1;
/// Timed epochs per requested second, rounded up to whole rounds.
const EPOCHS_PER_S: usize = 225;
/// Epochs between two probe/grow splits in the traced run.
const LAYER_STRIDE: usize = 25;

/// Set-up's last step: the initial full epoch.
fn initial_epoch(
    monitor: &mut MonitorSession<'_>,
    s: &OnDemandOracle,
    delta: &[NodeId],
    truth: &[NodeId],
    tally: &mut Tally,
) -> Result<(), String> {
    let report = monitor
        .ingest(s, delta)
        .map_err(|e| format!("initial epoch failed: {e}"))?;
    tally.check("initial epoch", &report.diagnosis.faults, truth);
    Ok(())
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let dim = if cfg.toy { 10 } else { 16 };
    let (length, rounds) = if cfg.toy {
        (TOY_EPOCHS, 1)
    } else {
        let timed = cfg.seconds as usize * EPOCHS_PER_S;
        (TIMELINE_EPOCHS, timed.div_ceil(TIMELINE_EPOCHS).max(1))
    };

    // Inputs first — the timeline, each epoch's streamed syndrome and
    // delta, and the timing buffer — so the memory they hold is not
    // charged to the program.
    let n = 1usize << dim;
    let bound = Hypercube::new(dim).driver_fault_bound();
    let timeline = EpochTimeline::poisson(
        n,
        length,
        ONSET_RATE,
        RECOVERY_RATE,
        bound,
        cfg.seed,
        TesterBehavior::AllZero,
    );
    let epochs: Vec<(OnDemandOracle, Vec<NodeId>)> = (0..length)
        .map(|e| {
            let faults = timeline.faults_at(e);
            (
                OnDemandOracle::from_fault_set(faults, timeline.behavior()),
                timeline.delta_at(e),
            )
        })
        .collect();
    let wrap: Vec<NodeId> = {
        let (first, last) = (timeline.faults_at(0), timeline.faults_at(length - 1));
        (0..n)
            .filter(|&v| first.contains(v) != last.contains(v))
            .collect()
    };
    let truth = |e: usize| timeline.faults_at(e).members();

    let mut e2e = EndToEnd {
        times: measure::Timings::with_capacity(rounds * length),
        rss_before: measure::rss_bytes()?,
        largest_nodes: n,
        ..EndToEnd::default()
    };
    // Set-up: certified partition, session, monitor, initial full epoch.
    // The run keeps this one; the other repetitions follow the
    // peak-memory reading below.
    let span = tr.span(CAT, "setup");
    let g = layers.time_certified(tr, || Hypercube::new_certified(dim));
    let session = Diagnoser::new(&g);
    let mut monitor = session.monitor().map_err(|e| e.to_string())?;
    initial_epoch(
        &mut monitor,
        &epochs[0].0,
        &epochs[0].1,
        truth(0),
        &mut tally,
    )?;
    e2e.setup_ns.push(span.finish());
    layers.rss_after_setup_per_node =
        measure::rss_bytes()?.saturating_sub(e2e.rss_before) as f64 / n as f64;

    for round in 0..rounds {
        for (e, (s, delta)) in epochs.iter().enumerate().skip(usize::from(round == 0)) {
            let delta = if e == 0 { &wrap } else { delta };
            let before = s.lookups();
            let span = tr.span(CAT, "monitor.ingest");
            let out = monitor.ingest(s, delta);
            e2e.times.push(span.finish());
            tally.attempted += 1;
            match out {
                Ok(report) => {
                    if tally.check("epoch", &report.diagnosis.faults, truth(e)) {
                        e2e.ok += 1;
                        e2e.lookups += s.lookups() - before;
                        e2e.nodes += n as u64;
                    }
                }
                Err(_) => tally.failed += 1,
            }
        }
    }

    // The peak of one set-up and the timed work, read before the set-ups
    // that are timed and discarded.
    e2e.peak_rss = measure::peak_rss_bytes()?;
    for _ in 1..SETUP_REPS {
        let span = tr.span(CAT, "setup");
        let g = layers.time_certified(tr, || Hypercube::new_certified(dim));
        let session = Diagnoser::new(&g);
        let mut monitor = session.monitor().map_err(|e| e.to_string())?;
        initial_epoch(
            &mut monitor,
            &epochs[0].0,
            &epochs[0].1,
            truth(0),
            &mut tally,
        )?;
        e2e.setup_ns.push(span.finish());
    }

    if tr.is_enabled() {
        let mut layer_rng = crate::inputs::Rng::new(cfg.seed, 2);
        layers.time_neighbors(tr, &g, &mut layer_rng);
        layers.time_lookups(tr, &g, &epochs[1].0, &mut layer_rng);
        drop(layers.time_cached_build(tr, &g));
        // A second monitor replays the timeline once; each epoch's ingest
        // is followed at once by its from-scratch run and its regrowth,
        // so the ratios compare calls made under the same conditions.
        let auto = Diagnoser::new(&g).auto();
        let mut ws = Workspace::new(n);
        let mut replay = session.monitor().map_err(|e| e.to_string())?;
        for (e, (s, delta)) in epochs.iter().enumerate() {
            let span = tr.span(CAT, "monitor.ingest");
            let out = replay.ingest(s, delta);
            let ns = span.finish();
            match out {
                Ok(r) => {
                    tally.check("replayed epoch", &r.diagnosis.faults, truth(e));
                    layers.record_epoch(&r, ns);
                    let regrow = (!r.quiescent).then_some((&r.certificate, ns));
                    layers.epoch_vs_scratch(tr, &session, s, truth(e), regrow, &mut ws, &mut tally);
                }
                Err(err) => tally.wrong(&format!("replayed epoch failed: {err}")),
            }
            if e % LAYER_STRIDE == LAYER_STRIDE - 1 {
                layers.diagnosis_layers(tr, &session, &auto, s, truth(e), &mut ws, &mut tally);
            }
        }
        // Escalations are rare on the timeline (a delta must touch the
        // certified part), so a scripted cycle guarantees samples of each
        // epoch kind.
        layers.scripted_monitor(tr, &session, 2, &mut layer_rng, &mut tally);
    }
    Ok(Outcome { tally, e2e, layers })
}
