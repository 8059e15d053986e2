//! `family-sweep`: all fourteen families at the catalog sizes that certify
//! (≤ 5 040 nodes, `Cached` CSR), one default sequential session per
//! instance reused over a fixed seeded list of syndromes with 0..=bound
//! faults and AllZero/Random testers.
//!
//! Three default constructors are kept although no diagnosis on them can
//! succeed: `Hypercube::new(10)`, `KAryNCube::new(4, 5)` and
//! `TwistedNCube::new(10)` advertise fault bound 10, but their minimal
//! partitions cannot certify it, so every diagnosis (fault-free included)
//! returns `NoPartCertified`. They are timed like every other instance
//! and counted as failed operations, so the change that makes them
//! certify has a number to move. Their certified counterparts
//! (`new_certified`) sit beside them.

use crate::inputs::{self, Rng};
use crate::layers::{Layers, CAT};
use crate::measure;
use crate::{Config, EndToEnd, Outcome, Tally};
use mmdiag::baselines::diagnose_naive;
use mmdiag::diagnosis::Workspace;
use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::*;
use mmdiag::topology::{NodeId, Partitionable};
use mmdiag::trace::Tracer;
use mmdiag::{Diagnoser, TopologySource};

/// Distinct syndromes per instance (full size / toy size).
const SYNDROMES: usize = 16;
const TOY_SYNDROMES: usize = 4;
/// Rounds over the whole list per requested second.
const ROUNDS_PER_S: u64 = 25;
/// Syndromes per instance given the probe/grow split in the traced run.
const LAYER_SYNDROMES: usize = 4;
/// Set-up repetitions (`setup_s` is their median). One set-up lasts
/// about 20 ms here, so the three of the other workloads left its median
/// to the few milliseconds they happened to meet; fifteen cost 0.3 s.
const SETUP_REPS: usize = 15;

type Family = Box<dyn Partitionable + Sync>;

/// The instances, with `true` for the three that cannot certify.
fn catalog(tr: &Tracer, layers: &mut Layers) -> Vec<(Family, bool)> {
    let ok = |f: Family| (f, false);
    vec![
        ok(Box::new(Hypercube::new(7))),
        ok(Box::new(CrossedCube::new(7))),
        ok(Box::new(TwistedCube::new(7))),
        ok(Box::new(TwistedNCube::new(7))),
        ok(Box::new(FoldedHypercube::new(8))),
        ok(Box::new(EnhancedHypercube::new(8, 3))),
        ok(Box::new(AugmentedCube::new(10))),
        ok(Box::new(ShuffleCube::new(10))),
        ok(Box::new(KAryNCube::new(4, 4))),
        ok(Box::new(AugmentedKAryNCube::new(4, 4))),
        ok(Box::new(StarGraph::new(6))),
        ok(Box::new(NKStar::new(6, 3))),
        ok(Box::new(Pancake::new(6))),
        ok(Box::new(Arrangement::new(6, 3))),
        ok(Box::new(Hypercube::new(8))),
        ok(Box::new(CrossedCube::new(8))),
        ok(Box::new(TwistedCube::new(8))),
        ok(Box::new(TwistedNCube::new(8))),
        ok(Box::new(FoldedHypercube::new(9))),
        ok(Box::new(EnhancedHypercube::new(9, 3))),
        ok(Box::new(KAryNCube::new(3, 6))),
        ok(Box::new(StarGraph::new(7))),
        ok(Box::new(NKStar::new(7, 3))),
        ok(Box::new(Pancake::new(7))),
        ok(Box::new(Arrangement::new(7, 3))),
        ok(Box::new(
            layers.time_certified(tr, || Hypercube::new_certified(10)),
        )),
        ok(Box::new(
            layers.time_certified(tr, || KAryNCube::new_certified(4, 5)),
        )),
        (Box::new(Hypercube::new(10)), true),
        (Box::new(KAryNCube::new(4, 5)), true),
        (Box::new(TwistedNCube::new(10)), true),
    ]
}

struct Instance {
    session: Diagnoser<'static>,
    /// One of the three constructors that cannot certify their bound.
    known_fault: bool,
}

/// One set-up: families (certified-partition search where used), CSR
/// builds, sessions and one fault-free warm-up diagnosis each. Its wall
/// time is added to `setup_ns`.
fn set_up(
    tr: &Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    setup_ns: &mut Vec<u64>,
) -> Result<Vec<Instance>, String> {
    let span = tr.span(CAT, "setup");
    let mut instances = Vec::new();
    for (fam, known_fault) in catalog(tr, layers) {
        let cached = layers.time_cached_build(tr, fam.as_ref());
        let session = Diagnoser::from_source(TopologySource::Owned(Box::new(cached)));
        let g = session.topology();
        let s = OracleSyndrome::new(FaultSet::empty(g.node_count()), TesterBehavior::AllZero);
        match session.run(&s) {
            Ok(r) => {
                tally.check("warm-up", &r.diagnosis.faults, &[]);
            }
            Err(e) if !known_fault => {
                return Err(format!("{}: warm-up diagnosis failed: {e}", g.name()))
            }
            Err(_) => {}
        }
        instances.push(Instance {
            session,
            known_fault,
        });
    }
    setup_ns.push(span.finish());
    Ok(instances)
}

struct Planted {
    members: Vec<NodeId>,
    oracle: OracleSyndrome,
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    // Inputs first — per instance, fault counts cycling through
    // 0..=bound, seeded placements, alternating tester behaviours — and
    // the timing buffer, so the memory they hold is not charged to the
    // program. The families themselves are arithmetic objects.
    let per_instance = if cfg.toy { TOY_SYNDROMES } else { SYNDROMES };
    let mut rng = Rng::new(cfg.seed, 1);
    let planted: Vec<Vec<Planted>> = catalog(&Tracer::disabled(), &mut Layers::default())
        .iter()
        .map(|(fam, _)| {
            let n = fam.node_count();
            (0..per_instance)
                .map(|k| {
                    let count = k % (fam.driver_fault_bound() + 1);
                    let members = inputs::scatter(n, count, &mut rng);
                    let behavior = inputs::behavior(k, &mut rng);
                    let oracle = OracleSyndrome::new(FaultSet::new(n, &members), behavior);
                    Planted { members, oracle }
                })
                .collect()
        })
        .collect();
    let rounds = if cfg.toy {
        1
    } else {
        (cfg.seconds * ROUNDS_PER_S).max(1) as usize
    };
    let mut e2e = EndToEnd {
        times: measure::Timings::with_capacity(rounds * planted.len() * per_instance),
        rss_before: measure::rss_bytes()?,
        ..EndToEnd::default()
    };

    // The first set-up is the one the run keeps; the others follow the
    // peak-memory reading below.
    let instances = set_up(tr, &mut layers, &mut tally, &mut e2e.setup_ns)?;
    let nodes: Vec<usize> = instances
        .iter()
        .map(|i| i.session.topology().node_count())
        .collect();
    e2e.largest_nodes = nodes.iter().copied().max().unwrap_or(1);
    layers.rss_after_setup_per_node =
        measure::rss_bytes()?.saturating_sub(e2e.rss_before) as f64 / e2e.largest_nodes as f64;

    for _ in 0..rounds {
        for (i, inst) in instances.iter().enumerate() {
            for p in &planted[i] {
                let before = p.oracle.lookups();
                let span = tr.span(CAT, "diagnoser.run");
                let out = inst.session.run(&p.oracle);
                e2e.times.push(span.finish());
                tally.attempted += 1;
                match out {
                    Ok(r) => {
                        if tally.check("sequential session", &r.diagnosis.faults, &p.members) {
                            e2e.ok += 1;
                            e2e.lookups += p.oracle.lookups() - before;
                            e2e.nodes += nodes[i] as u64;
                        }
                    }
                    Err(_) => tally.failed += 1,
                }
            }
        }
    }

    // Independent cross-check: one seeded syndrome per certifying
    // instance re-diagnosed by the full-table naive baseline.
    let mut pick = Rng::new(cfg.seed, 3);
    for (i, inst) in instances.iter().enumerate() {
        let p = &planted[i][pick.below(per_instance)];
        if inst.known_fault {
            continue;
        }
        let g = inst.session.topology();
        match diagnose_naive(g, &p.oracle, g.driver_fault_bound()) {
            Ok(base) => {
                tally.check("naive baseline", &base.faults, &p.members);
            }
            Err(e) => tally.wrong(&format!("{}: naive baseline failed: {e}", g.name())),
        }
    }

    // The peak of one set-up and the timed work, as on the scale
    // workloads: read before the set-ups that are timed and discarded.
    e2e.peak_rss = measure::peak_rss_bytes()?;
    for _ in 1..SETUP_REPS {
        drop(set_up(tr, &mut layers, &mut tally, &mut e2e.setup_ns)?);
    }

    if tr.is_enabled() {
        let mut layer_rng = Rng::new(cfg.seed, 2);
        for (i, inst) in instances.iter().enumerate() {
            let g = inst.session.topology();
            layers.time_neighbors(tr, g, &mut layer_rng);
            layers.time_lookups(tr, g, &planted[i][0].oracle, &mut layer_rng);
            let auto = Diagnoser::new(g).auto();
            let mut ws = Workspace::new(g.node_count());
            for p in planted[i].iter().take(LAYER_SYNDROMES) {
                layers.diagnosis_layers(
                    tr,
                    &inst.session,
                    &auto,
                    &p.oracle,
                    &p.members,
                    &mut ws,
                    &mut tally,
                );
            }
            if !inst.known_fault {
                layers.scripted_monitor(tr, &inst.session, 2, &mut layer_rng, &mut tally);
            }
        }
    }
    Ok(Outcome { tally, e2e, layers })
}
