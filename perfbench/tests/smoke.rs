//! Smoke test: every workload runs to its end at toy size, untraced and
//! traced, checks its outputs, and reports exactly the metrics
//! `BENCHMARK.json` names for that kind of run.

use perfbench::{run, Config, Workload};
use std::path::PathBuf;

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 1,
        trace,
        toy: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    }
}

/// The metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no `{section}` section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_runs_to_its_end_at_toy_size() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 6);
    assert!(per_layer.len() >= 20);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&config(workload, 7, trace))
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(report.correct, "{}: wrong labelling", workload.name());
            assert!(report.attempted >= 40, "{}", workload.name());
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.into()).collect();
            assert_eq!(
                &names,
                if trace { &per_layer } else { &end_to_end },
                "{} trace={trace}",
                workload.name()
            );
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            let line = report.result_json().expect("finite metrics");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            // The only failed operations are the three default
            // constructors of family-sweep that cannot certify.
            match workload {
                Workload::FamilySweep => assert_eq!(report.failed * 10, report.attempted),
                _ => assert_eq!(report.failed, 0, "{}", workload.name()),
            }
        }
    }
}

#[test]
fn lookups_repeat_exactly_for_a_seed_on_sequential_workloads() {
    for workload in [Workload::FamilySweep, Workload::OnlineEpochs] {
        let lookups = |seed| {
            let report = run(&config(workload, seed, false)).expect("run");
            report
                .metrics
                .iter()
                .find(|m| m.name == "lookups_per_node")
                .expect("lookups metric")
                .value
        };
        assert_eq!(lookups(3), lookups(3), "{}", workload.name());
        assert_ne!(lookups(3), lookups(4), "{}", workload.name());
    }
}
