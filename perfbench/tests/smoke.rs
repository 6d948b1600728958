//! Toy-size runs of every workload, plain and traced: each must check
//! out correct and print exactly the metric names BENCHMARK.json
//! declares.

use std::path::PathBuf;

use perfbench::layers::NAMES;
use perfbench::report::Report;
use perfbench::{Scale, Workload};

const END_TO_END: [&str; 5] =
    ["setup_s", "work_s", "robot_rounds_per_s", "op_ms.p50", "peak_rss_mb"];

fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn no_allocs() -> u64 {
    0
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

fn assert_clean(w: Workload, r: &Report) {
    assert!(r.correct, "{}: {:#?}", w.name(), r.notes);
    assert!(r.attempted > 0, "{}", w.name());
    assert_eq!(r.failed, 0, "{}", w.name());
    assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{}: {:?}", w.name(), r.metrics);
    assert!(r.to_json().starts_with("{\"correct\": true,"), "{}", r.to_json());
}

#[test]
fn every_workload_runs_at_toy_size_and_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = w.run(3, 0.05, Scale::Toy, &scratch());
        assert_clean(w, &r);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for name in END_TO_END {
            assert!(value(&r, name) > 0.0, "{} {name} must never be 0", w.name());
        }
    }
}

#[test]
fn every_workload_traces_at_toy_size_and_reports_every_layer() {
    for w in Workload::ALL {
        let r = w.run_traced(3, Scale::Toy, &scratch(), no_allocs);
        assert_clean(w, &r);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = NAMES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{}", w.name());
        assert_eq!(value(&r, "engine.observe_s"), 0.0, "{}: no observer is attached", w.name());
        assert!(value(&r, "engine.robot_rounds") > 0.0, "{}", w.name());
        let phases: f64 = [
            "engine.compute_s",
            "engine.targets_s",
            "engine.merge_detect_s",
            "engine.rebuild_s",
            "engine.activate_s",
            "engine.active_list_s",
            "engine.compact_s",
            "engine.invariants_s",
            "engine.observe_s",
            "engine.unattributed_s",
        ]
        .iter()
        .map(|n| value(&r, n))
        .sum();
        let round = value(&r, "engine.round_s");
        assert!(round > 0.0 && (phases - round).abs() <= 1e-9 * round.max(1.0), "{}", w.name());
    }
}

#[test]
fn traced_fsync_rounds_compare_one_and_two_threads() {
    let r = Workload::RoundsFsync1m.run_traced(2, Scale::Toy, &scratch(), no_allocs);
    assert_clean(Workload::RoundsFsync1m, &r);
    assert!(value(&r, "engine.scaling_eff.compute") > 0.0);
    assert!(value(&r, "engine.scaling_eff.round") > 0.0);
    assert!(value(&r, "core.decide_ns") != 0.0);
    assert!(value(&r, "engine.tiles") >= 1.0);
}

#[test]
fn traced_campaign_reports_the_service_layers() {
    let r = Workload::CampaignWeakSync.run_traced(1, Scale::Toy, &scratch(), no_allocs);
    assert_clean(Workload::CampaignWeakSync, &r);
    let scenarios = perfbench::campaign::spec(Scale::Toy).len() as f64;
    assert_eq!(value(&r, "serve.cache_hits"), scenarios);
    assert_eq!(value(&r, "serve.cache_misses"), scenarios);
    assert!(value(&r, "serve.leases") >= 1.0);
    let busy = value(&r, "campaign.busy_frac");
    assert!(busy > 0.0 && busy <= 1.0, "busy_frac {busy}");
    assert!(value(&r, "obs.events") >= 2.0 * scenarios, "a start and a finish per scenario");
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| text.contains(&format!("{{\"name\": \"{name}\""));
    for name in END_TO_END {
        assert!(declared(name), "{name} missing from BENCHMARK.json");
    }
    for (name, unit) in NAMES {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    assert_eq!(text.matches("{\"name\": ").count(), 4 + END_TO_END.len() + NAMES.len());
    for w in Workload::ALL {
        assert!(declared(w.name()), "{} missing from BENCHMARK.json", w.name());
    }
}
