//! `perm-scale` and `cube-scale`: two 10⁵–10⁶-node instances served
//! CSR-free by `ImplicitTopology`, syndromes streamed from `O(|F|)` state
//! by `OnDemandOracle` at the fault bound, diagnosed by `Diagnoser::auto()`
//! sessions — the production path at this size.
//!
//! Per instance the run plants two fault sets at the bound (one AllZero,
//! one Random tester behaviour) and diagnoses each of them repeatedly, the
//! instances interleaved, the first instance twice as often as the second
//! (so neither the median nor the tail rank falls between the two
//! instances' clusters of times). Every labelling must equal its planted
//! set, and each planted set's labelling passes the sampled verification
//! once, after the timed loop.

use crate::inputs::{self, Rng};
use crate::layers::{Layers, CAT};
use crate::measure;
use crate::{Config, EndToEnd, Outcome, Tally, Workload, MIN_OPS, SETUP_REPS};
use mmdiag::diagnosis::Workspace;
use mmdiag::implicit::ImplicitTopology;
use mmdiag::syndrome::{OnDemandOracle, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::{Hypercube, KAryNCube, Pancake, StarGraph};
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::Tracer;
use mmdiag::{Diagnoser, TopologySource, VerificationVerdict};

/// Planted fault sets per instance (AllZero, Random).
const SYNDROMES_PER_INSTANCE: usize = 2;
/// Diagnoses of each planted set per round, by instance.
const WEIGHTS: [usize; 2] = [2, 1];
/// Samples per part of the sampled verification.
const VERIFY_SAMPLES_PER_PART: usize = 2;

#[derive(Clone, Copy, Debug)]
enum Spec {
    Star(usize),
    Pancake(usize),
    Hypercube(usize),
    KAry(usize, usize),
}

fn specs(workload: Workload, toy: bool) -> [Spec; 2] {
    match (workload, toy) {
        (Workload::PermScale, false) => [Spec::Star(9), Spec::Pancake(9)],
        (Workload::PermScale, true) => [Spec::Star(7), Spec::Pancake(7)],
        (_, false) => [Spec::Hypercube(21), Spec::KAry(3, 13)],
        (_, true) => [Spec::Hypercube(12), Spec::KAry(3, 8)],
    }
}

/// Timed operations per run: one per requested second, at least
/// [`MIN_OPS`], in whole rounds.
fn op_count(seconds: u64, round: usize) -> usize {
    (seconds as usize).max(MIN_OPS).div_ceil(round) * round
}

type Topo = Box<dyn Partitionable + Sync>;

/// Permutation families have a fixed partition; their certified-partition
/// step is the part-local capacity check `new_certified` runs per
/// candidate dimension.
fn checked<T: Partitionable + Sync + 'static>(
    it: ImplicitTopology<T>,
    tr: &Tracer,
    layers: &mut Layers,
) -> Result<Topo, String> {
    if layers.time_certified(tr, || it.certifies()) {
        Ok(Box::new(it))
    } else {
        Err(format!(
            "{}: no part can certify the fault bound",
            it.name()
        ))
    }
}

fn open(spec: Spec, tr: &Tracer, layers: &mut Layers) -> Result<Diagnoser<'static>, String> {
    let topo: Topo = match spec {
        Spec::Star(n) => checked(ImplicitTopology::new(StarGraph::new(n)), tr, layers)?,
        Spec::Pancake(n) => checked(ImplicitTopology::new(Pancake::new(n)), tr, layers)?,
        Spec::Hypercube(n) => Box::new(ImplicitTopology::new(
            layers.time_certified(tr, || Hypercube::new_certified(n)),
        )),
        Spec::KAry(k, n) => Box::new(ImplicitTopology::new(
            layers.time_certified(tr, || KAryNCube::new_certified(k, n)),
        )),
    };
    Ok(Diagnoser::from_source(TopologySource::Owned(topo)).auto())
}

/// One set-up: certified partition, implicit topology, auto session and
/// one warm-up diagnosis per instance (which starts the pool and touches
/// the workspaces). Its wall time is added to `setup_ns`.
fn set_up(
    cfg: &Config,
    rep: usize,
    tr: &Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    setup_ns: &mut Vec<u64>,
) -> Result<Vec<Diagnoser<'static>>, String> {
    let mut warm_rng = Rng::new(cfg.seed, 100 + rep as u64);
    let span = tr.span(CAT, "setup");
    let mut sessions = Vec::new();
    for spec in specs(cfg.workload, cfg.toy) {
        let session = open(spec, tr, layers)?;
        let g = session.topology();
        let members = inputs::scatter(g.node_count(), g.driver_fault_bound(), &mut warm_rng);
        let s = OnDemandOracle::new(g.node_count(), &members, TesterBehavior::AllZero);
        match session.run(&s) {
            Ok(r) => {
                tally.check("warm-up", &r.diagnosis.faults, &members);
            }
            Err(e) => return Err(format!("{}: warm-up diagnosis failed: {e}", g.name())),
        }
        sessions.push(session);
    }
    setup_ns.push(span.finish());
    Ok(sessions)
}

/// One planted syndrome of the work list.
struct Planted {
    members: Vec<NodeId>,
    oracle: OnDemandOracle,
    /// The first labelling's certified part, for the verification.
    certified_part: Option<usize>,
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let round = WEIGHTS.iter().sum::<usize>() * SYNDROMES_PER_INSTANCE;
    let ops = op_count(cfg.seconds, round);
    let mut e2e = EndToEnd {
        times: measure::Timings::with_capacity(ops),
        rss_before: measure::rss_bytes()?,
        ..EndToEnd::default()
    };

    // The first set-up is the one the run keeps; the others follow the
    // peak-memory reading below.
    let sessions = set_up(cfg, 0, tr, &mut layers, &mut tally, &mut e2e.setup_ns)?;
    let nodes: Vec<usize> = sessions.iter().map(|s| s.topology().node_count()).collect();
    e2e.largest_nodes = nodes.iter().copied().max().unwrap_or(1);
    layers.rss_after_setup_per_node =
        measure::rss_bytes()?.saturating_sub(e2e.rss_before) as f64 / e2e.largest_nodes as f64;

    let mut rng = Rng::new(cfg.seed, 1);
    let mut planted: Vec<Vec<Planted>> = sessions
        .iter()
        .map(|session| {
            let g = session.topology();
            (0..SYNDROMES_PER_INSTANCE)
                .map(|d| {
                    let members = inputs::scatter(g.node_count(), g.driver_fault_bound(), &mut rng);
                    let behavior = inputs::behavior(d, &mut rng);
                    let oracle = OnDemandOracle::new(g.node_count(), &members, behavior);
                    Planted {
                        members,
                        oracle,
                        certified_part: None,
                    }
                })
                .collect()
        })
        .collect();

    for _ in 0..ops / round {
        for (i, session) in sessions.iter().enumerate() {
            for k in 0..WEIGHTS[i] * SYNDROMES_PER_INSTANCE {
                let p = &mut planted[i][k % SYNDROMES_PER_INSTANCE];
                let before = p.oracle.lookups();
                let span = tr.span(CAT, "diagnoser.run");
                let out = session.run(&p.oracle);
                e2e.times.push(span.finish());
                tally.attempted += 1;
                match out {
                    Ok(r) => {
                        if !tally.check("auto session", &r.diagnosis.faults, &p.members) {
                            continue;
                        }
                        e2e.ok += 1;
                        e2e.lookups += p.oracle.lookups() - before;
                        e2e.nodes += nodes[i] as u64;
                        p.certified_part.get_or_insert(r.diagnosis.certified_part);
                    }
                    Err(_) => tally.failed += 1,
                }
            }
        }
    }

    // Sampled verification of each planted set's labelling (every timed
    // labelling of it was checked equal to the planted set above).
    for (i, session) in sessions.iter().enumerate() {
        let verifier = Diagnoser::new(session.topology())
            .verify_sampled(VERIFY_SAMPLES_PER_PART, cfg.seed ^ i as u64);
        for p in &planted[i] {
            let Some(part) = p.certified_part else {
                continue;
            };
            match verifier.verify_claim(&p.oracle, &p.members, part) {
                VerificationVerdict::Sampled { agree: true, .. } => {}
                other => tally.wrong(&format!("sampled verification: {other:?}")),
            }
        }
    }

    // RSS keeps growing over set-ups although each is dropped before the
    // next; read before the other repetitions, the peak is that of one
    // set-up and the timed work (two more set-ups nearly doubled it on
    // `cube-scale`, and made it vary more from run to run).
    e2e.peak_rss = measure::peak_rss_bytes()?;
    for rep in 1..SETUP_REPS {
        drop(set_up(
            cfg,
            rep,
            tr,
            &mut layers,
            &mut tally,
            &mut e2e.setup_ns,
        )?);
    }

    if tr.is_enabled() {
        let mut layer_rng = Rng::new(cfg.seed, 2);
        for (i, session) in sessions.iter().enumerate() {
            let g = session.topology();
            layers.time_neighbors(tr, g, &mut layer_rng);
            layers.time_lookups(tr, g, &planted[i][0].oracle, &mut layer_rng);
            let seq = Diagnoser::new(g);
            let mut ws = Workspace::new(g.node_count());
            for p in &planted[i] {
                layers.diagnosis_layers(
                    tr, &seq, session, &p.oracle, &p.members, &mut ws, &mut tally,
                );
            }
            drop(ws);
            layers.scripted_monitor(tr, &seq, 1, &mut layer_rng, &mut tally);
            drop(layers.time_cached_build(tr, g));
        }
    }
    Ok(Outcome { tally, e2e, layers })
}
