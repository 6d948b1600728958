//! `gather-fsync`: the paper's controller under FSYNC on one engine
//! thread (the `RunSpec` default that campaigns use), each swarm run
//! until it gathers.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use gather_bench::{ControllerKind, Measurement, RunSpec};
use gather_core::GatherController;
use gather_workloads::Family;
use grid_engine::{Engine, EngineConfig, OrientationMode, Point, ProfileTotals};

use crate::layers::{core_metrics, layer, phase_metrics};
use crate::report::{metric, Report};
use crate::stats::{failed_frac, median};
use crate::{now, peak_rss_mb, repeat_timed, secs_since, AllocCounter, Scale};

/// The swarm set: four 4096-robot shapes plus the runner-heavy hollow
/// square at n=512 (at n=1024 and above it is known to stall under
/// FSYNC for some seeds; see NOTES.md).
pub fn swarm_set(scale: Scale) -> Vec<(Family, usize)> {
    let (big, hollow) = match scale {
        Scale::Full => (4096, 512),
        Scale::Toy => (64, 64),
    };
    vec![
        (Family::Line, big),
        (Family::Square, big),
        (Family::RandomBlob, big),
        (Family::Clusters, big),
        (Family::HollowSquare, hollow),
    ]
}

fn generate(set: &[(Family, usize)], seed: u64) -> Vec<Vec<Point>> {
    set.iter().map(|&(family, n)| gather_workloads::family(family, n, seed)).collect()
}

fn build(points: &[Point], seed: u64) -> Engine<GatherController> {
    Engine::from_positions(
        points,
        OrientationMode::Scrambled(seed),
        GatherController::paper(),
        EngineConfig { threads: 1, ..Default::default() },
    )
}

/// Round budget: every swarm of the set gathers in under 4n rounds on
/// the seeds measured (rounds/n is about 0.5, and up to 3.5 for the
/// hollow square), so a run that has not gathered by then counts as
/// failed instead of spending the default 500n-round budget.
pub fn budget(n: usize) -> u64 {
    4 * n as u64 + 2_000
}

/// Run `f` on every swarm of the set, twice over, on two threads side
/// by side: one copy in set order, the other in reverse, so both
/// threads stay busy to the end. Results come back in set order.
///
/// Every run still has one engine thread, as a campaign's scenarios
/// do. Two busy threads also keep the host steady: on the two-vCPU
/// benchmark host a lone thread's speed swung by up to half between
/// minutes, while two busy threads held within a few percent.
fn side_by_side<T: Send>(inputs: &[Vec<Point>], f: impl Fn(&[Point]) -> T + Sync) -> [Vec<T>; 2] {
    let f = &f;
    std::thread::scope(|scope| {
        let forward = scope.spawn(move || inputs.iter().map(|p| f(p)).collect::<Vec<_>>());
        let mut backward: Vec<T> = inputs.iter().rev().map(|p| f(p)).collect();
        backward.reverse();
        [forward.join().expect("gather thread panicked"), backward]
    })
}

/// Fold one run's profile totals into `into`.
fn add_totals(into: &mut ProfileTotals, t: &ProfileTotals) {
    into.rounds += t.rounds;
    into.wall_ns += t.wall_ns;
    for (a, b) in into.phase_ns.iter_mut().zip(t.phase_ns) {
        *a += b;
    }
    into.shard_imbalance_ns += t.shard_imbalance_ns;
    into.compact_imbalance_ns += t.compact_imbalance_ns;
}

/// One measured run of one swarm.
fn run_one(points: &[Point], seed: u64) -> Measurement {
    RunSpec::new(ControllerKind::Paper, points).seed(seed).budget(budget(points.len())).run()
}

/// Two runs of one swarm ended the same way (a profiler must not
/// perturb the simulation).
fn same_outcome(a: &Measurement, b: &Measurement) -> bool {
    (a.n, a.rounds, a.merges, a.gathered, a.connected, a.activations)
        == (b.n, b.rounds, b.merges, b.gathered, b.connected, b.activations)
}

/// Check one run: it must gather and stay connected.
fn check(report: &mut Report, family: Family, m: &Measurement) {
    report.attempted += 1;
    if !(m.gathered && m.connected) {
        report.failed += 1;
        report.fail(format!(
            "{} n={} ended after {} rounds gathered={} connected={}",
            family.name(),
            m.n,
            m.rounds,
            m.gathered,
            m.connected
        ));
    }
}

pub fn run(seed: u64, seconds: f64, scale: Scale) -> Report {
    let set = swarm_set(scale);
    let mut report = Report { correct: true, ..Default::default() };

    let (setup, inputs) = repeat_timed(7, 0.25, || {
        let inputs = generate(&set, seed);
        for points in &inputs {
            black_box(build(points, seed));
        }
        inputs
    });

    // Passes of two copies of the set side by side, until `seconds`
    // have passed (at least one pass).
    let mut set_times = Vec::new();
    let mut set_rates = Vec::new();
    let mut set_round_ms = Vec::new();
    let (mut rounds, mut robots, mut gathered) = (0u64, 0u64, 0u64);
    let mut first_rounds: Option<Vec<u64>> = None;
    let mut elapsed = 0.0;
    loop {
        let start = now();
        let copies = side_by_side(&inputs, |points| {
            let start = now();
            let m = run_one(points, seed);
            (m, secs_since(start))
        });
        let wall = secs_since(start);
        for copy in copies {
            let mut set_rounds = Vec::new();
            for (&(family, _), (m, _)) in set.iter().zip(&copy) {
                check(&mut report, family, m);
                rounds += m.rounds;
                robots += m.n as u64;
                gathered += u64::from(m.gathered);
                set_rounds.push(m.rounds);
            }
            match &first_rounds {
                None => first_rounds = Some(set_rounds),
                Some(first) if *first != set_rounds => {
                    report.fail(format!("rounds differ between sets: {first:?} vs {set_rounds:?}"))
                }
                Some(_) => {}
            }
            let set_s: f64 = copy.iter().map(|(_, dt)| dt).sum();
            let set_activations: u64 = copy.iter().map(|(m, _)| m.activations).sum();
            let set_round_count: u64 = copy.iter().map(|(m, _)| m.rounds).sum();
            set_times.push(set_s);
            set_rates.push(set_activations as f64 / set_s);
            set_round_ms.push(set_s * 1e3 / set_round_count.max(1) as f64);
        }
        elapsed += wall;
        if elapsed >= seconds {
            break;
        }
    }

    let time_to_gather = median(&set_times).unwrap_or(0.0);
    // One set's mean round time, pooled over its five swarms: a per-swarm
    // median would rest on two runs of one shape.
    let round_ms = median(&set_round_ms).unwrap_or(0.0);
    let throughput = median(&set_rates).unwrap_or(0.0);
    report.metrics = vec![
        metric("setup_s", median(&setup).unwrap_or(0.0), "s"),
        metric("work_s", time_to_gather, "s"),
        metric("robot_rounds_per_s", throughput, "1/s"),
        metric("op_ms.p50", round_ms, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let first = first_rounds.unwrap_or_default();
    report.note(format!(
        "gather-fsync: {} set(s) of {} swarms, two at a time; rounds per swarm {:?}",
        set_times.len(),
        set.len(),
        first
    ));
    report.note(format!(
        "time_to_gather_s {time_to_gather:.4} s; robot_rounds_per_s {throughput:.4e}; mean \
         round_ms {round_ms:.4} ms (each the median over {} sets)",
        set_times.len()
    ));
    report.note(format!(
        "rounds_per_n {:.4}; gathered_frac {:.4}; failed_frac {:.4}",
        rounds as f64 / robots.max(1) as f64,
        gathered as f64 / report.attempted.max(1) as f64,
        failed_frac(report.failed, report.attempted)
    ));
    report
}

pub fn traced(seed: u64, scale: Scale, allocs: AllocCounter) -> Report {
    let set = swarm_set(scale);
    let mut report = Report { correct: true, ..Default::default() };

    let start = now();
    let inputs = generate(&set, seed);
    let generate_s = secs_since(start);
    let start = now();
    let engines: Vec<_> = inputs.iter().map(|points| build(points, seed)).collect();
    let build_s = secs_since(start);
    let tiles: usize = engines.iter().map(|e| e.swarm.index().tile_count()).sum();
    // The controller timed on the round-0 square.
    let square = set.iter().position(|&(f, _)| f == Family::Square).expect("set has a square");
    report.metrics.extend(core_metrics(&engines[square], allocs));
    drop(engines);

    // The set side by side as in the plain run: once plain, once with
    // a profiler on every run. Both passes must end every run the same.
    let plain = side_by_side(&inputs, |points| {
        let start = now();
        let m = run_one(points, seed);
        (m, secs_since(start))
    });
    let allocs_before = allocs();
    let profiled = side_by_side(&inputs, |points| {
        let totals = Rc::new(RefCell::new(ProfileTotals::default()));
        let sink = Rc::clone(&totals);
        let start = now();
        let m = RunSpec::new(ControllerKind::Paper, points)
            .seed(seed)
            .budget(budget(points.len()))
            .profiler(Box::new(move |p| sink.borrow_mut().add(p)))
            .run();
        let dt = secs_since(start);
        let totals = totals.borrow().clone();
        (m, dt, totals)
    });
    let alloc_count = allocs().saturating_sub(allocs_before);

    let mut totals = ProfileTotals::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut robot_rounds, mut merges) = (0u64, 0u64);
    for (plain, profiled) in plain.iter().zip(&profiled) {
        for (&(family, _), ((p, p_s), (m, m_s, t))) in set.iter().zip(plain.iter().zip(profiled)) {
            check(&mut report, family, p);
            check(&mut report, family, m);
            if !same_outcome(m, p) {
                report.fail(format!("{}: profiled run differs from plain run", family.name()));
            }
            plain_s += p_s;
            traced_s += m_s;
            robot_rounds += m.activations;
            merges += m.merges as u64;
            add_totals(&mut totals, t);
        }
    }

    report.metrics.extend(phase_metrics(&totals, robot_rounds));
    report.metrics.extend([
        layer("workloads.generate_s", generate_s),
        layer("engine.build_s", build_s),
        layer("engine.tiles", tiles as f64),
        // Both copies did the same work: report one copy's counts.
        layer("engine.robot_rounds", (robot_rounds / 2) as f64),
        layer("engine.merges", (merges / 2) as f64),
        layer("engine.allocs_per_robot_round", alloc_count as f64 / robot_rounds.max(1) as f64),
        layer("engine.trace_overhead", traced_s / plain_s - 1.0),
    ]);
    report.note(format!(
        "gather-fsync traced: {} rounds profiled, coverage {:.4}; plain {plain_s:.3} s, \
         traced {traced_s:.3} s",
        totals.rounds,
        totals.coverage()
    ));
    report
}
