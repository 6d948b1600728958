//! Per-layer metrics of the traced run: their fixed names and units,
//! the conversion of the engine's phase profile into them, and the
//! sequential timing of the controller on a fixed swarm snapshot.

use std::hint::black_box;

use gather_core::GatherController;
use grid_engine::{Controller, Engine, Phase, ProfileTotals, RoundCtx, View};

use crate::report::{metric, Metric};
use crate::{now, secs_since, AllocCounter};

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; one that does not apply to the workload reads 0
/// (see NOTES.md for which workload moves which metric).
pub const NAMES: [(&str, &str); 39] = [
    ("workloads.generate_s", "s"),
    ("engine.build_s", "s"),
    ("engine.tiles", "count"),
    ("engine.round_s", "s/round"),
    ("engine.compute_s", "s/round"),
    ("engine.compute_ns_per_robot", "ns"),
    ("engine.targets_s", "s/round"),
    ("engine.merge_detect_s", "s/round"),
    ("engine.rebuild_s", "s/round"),
    ("engine.shard_gap_s", "s/round"),
    ("engine.activate_s", "s/round"),
    ("engine.active_list_s", "s/round"),
    ("engine.compact_s", "s/round"),
    ("engine.compact_gap_s", "s/round"),
    ("engine.invariants_s", "s/round"),
    ("engine.observe_s", "s/round"),
    ("engine.unattributed_s", "s/round"),
    ("engine.scaling_eff.compute", "ratio"),
    ("engine.scaling_eff.round", "ratio"),
    ("engine.robot_rounds", "count"),
    ("engine.merges", "count"),
    ("engine.moved", "count"),
    ("engine.allocs_per_robot_round", "count"),
    ("engine.view_ns", "ns"),
    ("engine.trace_overhead", "ratio"),
    ("core.decide_ns", "ns"),
    ("core.merge_move_ns", "ns"),
    ("core.runner_ns", "ns"),
    ("core.decide_allocs", "count"),
    ("campaign.busy_frac", "ratio"),
    ("campaign.records_bytes", "bytes"),
    ("serve.leases", "count"),
    ("serve.worker_idle_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.cache_resubmit_s", "s"),
    ("obs.events", "count"),
    ("obs.event_bytes", "bytes"),
];

/// A per-layer metric by name; panics on a name not in [`NAMES`], so a
/// typo cannot silently add a metric.
pub fn layer(name: &'static str, value: f64) -> Metric {
    let (_, unit) = NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    metric(name, value, unit)
}

/// Put the metrics in [`NAMES`] order, adding every missing name as 0.
pub fn complete(metrics: &mut Vec<Metric>) {
    let mut out = Vec::with_capacity(NAMES.len());
    for (name, unit) in NAMES {
        let value = metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        out.push(metric(name, value, unit));
    }
    *metrics = out;
}

/// The phase metrics of a profiled stretch of rounds, each as seconds
/// per round, plus the unattributed rest of the round's wall time. The
/// nine phases and `engine.unattributed_s` add up to
/// `engine.round_s`; the two `_gap_s` metrics are imbalance *within*
/// phases and are not part of that sum.
pub fn phase_metrics(t: &ProfileTotals, robot_rounds: u64) -> Vec<Metric> {
    let rounds = t.rounds.max(1) as f64;
    let per_round = |ns: u64| ns as f64 / 1e9 / rounds;
    let phase = |p: Phase| per_round(t.phase_ns[p as usize]);
    let attributed: u64 = t.phase_ns.iter().sum();
    vec![
        layer("engine.round_s", per_round(t.wall_ns)),
        layer("engine.compute_s", phase(Phase::Compute)),
        layer(
            "engine.compute_ns_per_robot",
            t.phase_ns[Phase::Compute as usize] as f64 / robot_rounds.max(1) as f64,
        ),
        layer("engine.targets_s", phase(Phase::ApplyTargets)),
        layer("engine.merge_detect_s", phase(Phase::MergeDetect)),
        layer("engine.rebuild_s", phase(Phase::OccupancyRebuild)),
        layer("engine.shard_gap_s", per_round(t.shard_imbalance_ns)),
        layer("engine.activate_s", phase(Phase::Activate)),
        layer("engine.active_list_s", phase(Phase::ActiveList)),
        layer("engine.compact_s", phase(Phase::Compact)),
        layer("engine.compact_gap_s", per_round(t.compact_imbalance_ns)),
        layer("engine.invariants_s", phase(Phase::Invariants)),
        layer("engine.observe_s", phase(Phase::Observe)),
        layer("engine.unattributed_s", (t.wall_ns as f64 - attributed as f64) / 1e9 / rounds),
    ]
}

/// The controller's cost per robot on one fixed swarm snapshot, timed
/// sequentially on this thread: building the view, the full
/// `GatherController::decide`, and `gather_core::merge_move` alone.
/// Each of the three timings includes the view build, which is then
/// subtracted.
pub fn core_metrics(engine: &Engine<GatherController>, allocs: AllocCounter) -> Vec<Metric> {
    let swarm = &engine.swarm;
    let controller = &engine.controller;
    let radius = controller.radius();
    let ctx = RoundCtx { round: engine.round() };
    let n = swarm.len().max(1);

    let start = now();
    for id in 0..swarm.len() {
        black_box(View::new(swarm, id, radius).id());
    }
    let view_s = secs_since(start);

    let allocs_before = allocs();
    let start = now();
    for id in 0..swarm.len() {
        let view = View::new(swarm, id, radius);
        black_box(controller.decide(&view, ctx));
    }
    let decide_s = secs_since(start);
    let decide_allocs = allocs().saturating_sub(allocs_before);

    let start = now();
    for id in 0..swarm.len() {
        let view = View::new(swarm, id, radius);
        black_box(gather_core::merge_move(&view, controller.config()));
    }
    let merge_move_s = secs_since(start);

    let per_robot_ns = |s: f64| s * 1e9 / n as f64;
    let decide_ns = per_robot_ns(decide_s - view_s);
    let merge_move_ns = per_robot_ns(merge_move_s - view_s);
    vec![
        layer("engine.view_ns", per_robot_ns(view_s)),
        layer("core.decide_ns", decide_ns),
        layer("core.merge_move_ns", merge_move_ns),
        layer("core.runner_ns", decide_ns - merge_move_ns),
        layer("core.decide_allocs", decide_allocs as f64 / n as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, (name, unit)) in NAMES.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(NAMES[..i].iter().all(|(other, _)| other != name), "{name} twice");
        }
    }

    #[test]
    fn complete_orders_and_fills_every_name() {
        let mut m = vec![layer("obs.events", 7.0), layer("engine.tiles", 3.0)];
        complete(&mut m);
        assert_eq!(m.len(), NAMES.len());
        assert!(m.iter().zip(NAMES).all(|(m, (name, unit))| m.name == name && m.unit == unit));
        assert_eq!(m.iter().find(|x| x.name == "obs.events").unwrap().value, 7.0);
        assert_eq!(m.iter().find(|x| x.name == "serve.leases").unwrap().value, 0.0);
    }

    #[test]
    fn phases_and_unattributed_add_up_to_the_round() {
        let mut t = ProfileTotals { rounds: 4, wall_ns: 4_000, ..Default::default() };
        t.phase_ns[Phase::Compute as usize] = 3_000;
        t.phase_ns[Phase::Compact as usize] = 600;
        t.shard_imbalance_ns = 200;
        let m = phase_metrics(&t, 100);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        let phases: f64 = Phase::ALL
            .iter()
            .map(|p| match p {
                Phase::Activate => get("engine.activate_s"),
                Phase::Compute => get("engine.compute_s"),
                Phase::ApplyTargets => get("engine.targets_s"),
                Phase::MergeDetect => get("engine.merge_detect_s"),
                Phase::OccupancyRebuild => get("engine.rebuild_s"),
                Phase::Compact => get("engine.compact_s"),
                Phase::Observe => get("engine.observe_s"),
                Phase::Invariants => get("engine.invariants_s"),
                Phase::ActiveList => get("engine.active_list_s"),
            })
            .sum();
        let round = get("engine.round_s");
        assert!((phases + get("engine.unattributed_s") - round).abs() < 1e-15);
        assert!((round - 1e-6).abs() < 1e-15);
        assert_eq!(get("engine.compute_ns_per_robot"), 30.0);
        assert!((get("engine.shard_gap_s") - 5e-8).abs() < 1e-18);
    }
}
