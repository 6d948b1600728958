//! `rounds-fsync-1m` and `rounds-async-1m`: a fixed number of
//! `Engine::step` rounds of a 10⁶-robot `clusters` swarm on two engine
//! threads, from a freshly built engine each repetition.

use std::cell::RefCell;
use std::rc::Rc;

use gather_bench::SchedulerKind;
use gather_core::GatherController;
use gather_workloads::Family;
use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode, Point, ProfileTotals};

use crate::layers::{core_metrics, layer, phase_metrics};
use crate::report::{metric, Report};
use crate::stats::{failed_frac, median, scaling_eff};
use crate::{now, peak_rss_mb, repeat_timed, secs_since, AllocCounter, Scale};

/// Engine worker threads of the measured runs (the benchmark host has
/// two cores).
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fsync,
    Async,
}

impl Kind {
    pub fn scheduler(self) -> SchedulerKind {
        match self {
            Kind::Fsync => SchedulerKind::Fsync,
            Kind::Async => SchedulerKind::Async { s: 4 },
        }
    }

    /// Rounds per repetition: about 2.7 s of stepping either way.
    pub fn block(self) -> usize {
        match self {
            Kind::Fsync => 3,
            Kind::Async => 5,
        }
    }
}

/// Set-ups timed before the first measured repetition; every
/// repetition's own set-up is timed too, and the median of all is
/// reported.
const SETUP_REPS: usize = 5;

pub fn population(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Toy => 2_000,
    }
}

fn generate(scale: Scale, seed: u64) -> Vec<Point> {
    gather_workloads::family(Family::Clusters, population(scale), seed)
}

fn build(points: &[Point], kind: Kind, seed: u64, threads: usize) -> Engine<GatherController> {
    Engine::from_positions(
        points,
        OrientationMode::Scrambled(seed),
        GatherController::paper(),
        EngineConfig {
            threads,
            // The round loop alone, as the engine bench measures it.
            connectivity: ConnectivityCheck::Never,
            scheduler: kind.scheduler().to_policy(seed, points.len()),
            ..Default::default()
        },
    )
}

/// What a stretch of rounds did, summed over its rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    activated: u64,
    merged: u64,
    moved: u64,
    digest: u64,
}

/// Step `rounds` rounds, timing each; a failed step is recorded on the
/// report.
fn step(
    engine: &mut Engine<GatherController>,
    rounds: usize,
    report: &mut Report,
    round_times: &mut Vec<f64>,
) -> Work {
    let mut work = Work::default();
    for _ in 0..rounds {
        report.attempted += 1;
        let start = now();
        let stats = engine.step();
        round_times.push(secs_since(start));
        match stats {
            Ok(s) => {
                work.activated += s.activated as u64;
                work.merged += s.merged as u64;
                work.moved += s.moved as u64;
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("round {} failed: {e:?}", engine.round()));
            }
        }
    }
    work.digest = engine.swarm.position_digest();
    work
}

pub fn run(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Report {
    let mut report = Report { correct: true, ..Default::default() };
    let block = kind.block();
    let (mut setup, ()) = repeat_timed(SETUP_REPS, 0.0, || {
        let points = generate(scale, seed);
        std::hint::black_box(build(&points, kind, seed, THREADS));
    });
    let mut rep_times = Vec::new();
    let mut rep_rates = Vec::new();
    let mut round_times = Vec::new();
    let mut first: Option<u64> = None;
    // Fresh repetitions until `seconds` of rounds have passed; at least
    // two, so the post-run digests can be compared.
    loop {
        let start = now();
        let points = generate(scale, seed);
        let mut engine = build(&points, kind, seed, THREADS);
        setup.push(secs_since(start));
        let before = round_times.len();
        let work = step(&mut engine, block, &mut report, &mut round_times);
        let rep_s: f64 = round_times[before..].iter().sum();
        rep_rates.push(work.activated as f64 / rep_s);
        match first {
            None => first = Some(work.digest),
            Some(d) if d != work.digest => {
                report.failed += block as u64;
                report.fail(format!(
                    "post-run digest {:#018x} differs from the first repetition's {d:#018x}",
                    work.digest
                ));
            }
            Some(_) => {}
        }
        rep_times.push(rep_s);
        drop(engine);
        if rep_times.len() >= 2 && rep_times.iter().sum::<f64>() >= seconds {
            break;
        }
    }

    let round_ms = median(&round_times).unwrap_or(0.0) * 1e3;
    let throughput = median(&rep_rates).unwrap_or(0.0);
    report.metrics = vec![
        metric("setup_s", median(&setup).unwrap_or(0.0), "s"),
        metric("work_s", median(&rep_times).unwrap_or(0.0), "s"),
        metric("robot_rounds_per_s", throughput, "1/s"),
        metric("op_ms.p50", round_ms, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    report.note(format!(
        "{}: n={} {} repetitions of {block} rounds on {THREADS} threads; digest {:#018x}",
        kind.scheduler().name(),
        population(scale),
        rep_times.len(),
        first.unwrap_or(0)
    ));
    report.note(format!(
        "round_ms.p50 {round_ms:.3} ms ({} rounds); robot_rounds_per_s {throughput:.4e}; \
         failed_frac {:.4}",
        round_times.len(),
        failed_frac(report.failed, report.attempted)
    ));
    report
}

/// One profiled pass of a repetition's rounds from a fresh engine.
struct Profiled {
    totals: ProfileTotals,
    work: Work,
    wall_s: f64,
    /// Allocations while stepping (the engine build is not counted).
    allocs: u64,
}

fn profiled(
    points: &[Point],
    kind: Kind,
    seed: u64,
    threads: usize,
    report: &mut Report,
    allocs: AllocCounter,
) -> Profiled {
    let mut engine = build(points, kind, seed, threads);
    let totals = Rc::new(RefCell::new(ProfileTotals::default()));
    let sink = Rc::clone(&totals);
    engine.set_profiler(Box::new(move |p| sink.borrow_mut().add(p)));
    let mut round_times = Vec::new();
    let allocs_before = allocs();
    let work = step(&mut engine, kind.block(), report, &mut round_times);
    let allocs = allocs().saturating_sub(allocs_before);
    drop(engine);
    let totals = totals.borrow().clone();
    Profiled { totals, work, wall_s: round_times.iter().sum(), allocs }
}

pub fn traced(kind: Kind, seed: u64, scale: Scale, allocs: AllocCounter) -> Report {
    let mut report = Report { correct: true, ..Default::default() };

    let start = now();
    let points = generate(scale, seed);
    let generate_s = secs_since(start);
    let start = now();
    let mut engine = build(&points, kind, seed, THREADS);
    let build_s = secs_since(start);
    let tiles = engine.swarm.index().tile_count();
    report.metrics.extend(core_metrics(&engine, allocs));

    // Plain pass: the same rounds with no profiler, for the overhead.
    let mut plain_times = Vec::new();
    let plain = step(&mut engine, kind.block(), &mut report, &mut plain_times);
    drop(engine);
    let plain_s: f64 = plain_times.iter().sum();

    let two = profiled(&points, kind, seed, THREADS, &mut report, allocs);
    if two.work != plain {
        report
            .fail(format!("profiled rounds differ from plain rounds: {:?} vs {plain:?}", two.work));
    }
    report.metrics.extend(phase_metrics(&two.totals, two.work.activated));

    if kind == Kind::Fsync {
        let one = profiled(&points, kind, seed, 1, &mut report, allocs);
        if one.work.digest != two.work.digest {
            report.fail(format!(
                "1-thread digest {:#018x} differs from the {THREADS}-thread digest {:#018x}",
                one.work.digest, two.work.digest
            ));
        }
        let compute = |t: &ProfileTotals| t.phase_ns[grid_engine::Phase::Compute as usize] as f64;
        report.metrics.extend([
            layer(
                "engine.scaling_eff.compute",
                scaling_eff(compute(&one.totals), THREADS, compute(&two.totals)),
            ),
            layer("engine.scaling_eff.round", scaling_eff(one.wall_s, THREADS, two.wall_s)),
        ]);
        report.note(format!(
            "1 thread: round {:.4} s, compute {:.4} s; {THREADS} threads: round {:.4} s, \
             compute {:.4} s (per round)",
            one.wall_s / kind.block() as f64,
            compute(&one.totals) / 1e9 / kind.block() as f64,
            two.wall_s / kind.block() as f64,
            compute(&two.totals) / 1e9 / kind.block() as f64,
        ));
    }

    report.metrics.extend([
        layer("workloads.generate_s", generate_s),
        layer("engine.build_s", build_s),
        layer("engine.tiles", tiles as f64),
        layer("engine.robot_rounds", two.work.activated as f64),
        layer("engine.merges", two.work.merged as f64),
        layer("engine.moved", two.work.moved as f64),
        layer(
            "engine.allocs_per_robot_round",
            two.allocs as f64 / two.work.activated.max(1) as f64,
        ),
        layer("engine.trace_overhead", two.wall_s / plain_s - 1.0),
    ]);
    report.note(format!(
        "{} traced: {} rounds on {THREADS} threads, coverage {:.4}, digest {:#018x}",
        kind.scheduler().name(),
        two.totals.rounds,
        two.totals.coverage(),
        two.work.digest
    ));
    report
}
