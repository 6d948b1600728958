//! `campaign-weak-sync`: the weak-scheduler sweep cut to n=256, run
//! in-process through the campaign service — `serve`, one `work`er
//! with two threads, and a closed-loop `submit` against a fresh result
//! cache — then resubmitted against the warm cache.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use gather_campaign::cli::{spec_from_flat_json, ServeArgs, SubmitArgs, WorkArgs};
use gather_campaign::{CampaignSpec, Scenario, ScenarioRecord, SubmitReport, WorkReport};
use gather_obs::{Event, Status};
use grid_engine::{ProfileTotals, PHASE_COUNT};

use crate::layers::{layer, phase_metrics};
use crate::report::{metric, Metric, Report};
use crate::stats::{busy_frac, failed_frac, median, percentile, tail_percentile};
use crate::{now, peak_rss_mb, repeat_timed, secs_since, AllocCounter, Scale};

/// The sweep this workload cuts down.
const WEAK_SYNC: &str = include_str!("../../examples/sweeps/weak_sync.json");

/// Worker threads of the one `work` client.
pub const THREADS: usize = 2;

/// Scenario seeds of the sweep: always `0..6`, 720 scenarios, whatever
/// the workload seed. The sweep's cost is dominated by rare stalled
/// scenarios (one at scenario seed 8 runs 156k rounds, about 20 s), so
/// a seed-dependent set of scenarios would make each run's cost a
/// lottery; and the order of the spec's axes, which sets how scenarios
/// are packed into leases, moved the cold wall time by up to 15 %.
const SCENARIO_SEEDS: std::ops::Range<u64> = 0..6;

/// `weak_sync.json` at n=256 with scenario seeds 0..6. The workload
/// seed does not change it: see [`SCENARIO_SEEDS`].
pub fn spec(scale: Scale) -> CampaignSpec {
    let mut spec = spec_from_flat_json(WEAK_SYNC).expect("weak_sync.json parses");
    spec.name = "weak-sync-bench".into();
    spec.sizes = vec![match scale {
        Scale::Full => 256,
        Scale::Toy => 16,
    }];
    spec.seeds = match scale {
        Scale::Full => SCENARIO_SEEDS.collect(),
        Scale::Toy => vec![0],
    };
    spec
}

/// The service's own set-up work for a submission: parse and cut the
/// spec, expand it, and derive every scenario's cache key (which
/// generates its swarm).
fn expand(scale: Scale) -> Vec<Scenario> {
    let scenarios = spec(scale).expand();
    for sc in &scenarios {
        std::hint::black_box(sc.config_digest());
    }
    scenarios
}

/// Everything one service session produced.
struct Session {
    expand_s: Vec<f64>,
    serve_start_s: f64,
    cold: SubmitReport,
    cold_s: f64,
    warm: SubmitReport,
    warm_s: f64,
    work: WorkReport,
    cold_bytes: Vec<u8>,
    warm_bytes: Vec<u8>,
    /// `(status, secs)` of every `scenario_finished` event of the cold run.
    finished: Vec<(Status, f64)>,
    event_lines: usize,
    event_bytes: u64,
    cache_bytes: u64,
}

fn wait_for_socket(socket: &Path) -> Result<(), String> {
    let start = now();
    while UnixStream::connect(socket).is_err() {
        if secs_since(start) > 10.0 {
            return Err(format!("service socket {} never came up", socket.display()));
        }
        thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Serve, work, submit cold, submit warm, and wait for the service and
/// its worker to drain.
fn session(scale: Scale, dir: &Path) -> Result<Session, String> {
    let (expand_s, scenarios) = repeat_timed(5, 0.25, || expand(scale));
    let spec = spec(scale);
    if scenarios.len() != spec.len() {
        return Err(format!("expanded {} scenarios, spec says {}", scenarios.len(), spec.len()));
    }

    let socket = dir.join("service.sock");
    let cache = dir.join("cache");
    let serve_args = ServeArgs {
        socket: socket.clone(),
        cache,
        jobs: Some(2),
        lease_ttl_ms: 60_000,
        quiet: true,
    };
    let start = now();
    let server = thread::spawn(move || gather_campaign::serve(&serve_args));
    wait_for_socket(&socket)?;
    let serve_start_s = secs_since(start);

    let work_args = WorkArgs {
        socket: socket.clone(),
        threads: THREADS,
        name: "perfbench".into(),
        lease: 8,
        // Poll the dry queue often, so the closed loop does not wait on
        // the worker's back-off between submissions.
        poll_ms: 5,
    };
    let worker = thread::spawn(move || gather_campaign::work(&work_args));

    let abs = |p: PathBuf| std::env::current_dir().map(|cwd| cwd.join(&p)).unwrap_or(p);
    let submit = |name: &str| -> Result<(SubmitReport, f64), String> {
        let args = SubmitArgs {
            socket: socket.clone(),
            spec: spec.clone(),
            out: abs(dir.join(format!("{name}.jsonl"))),
            events: Some(dir.join(format!("{name}.events"))),
            quiet: true,
        };
        let start = now();
        let report = gather_campaign::submit(&args)?;
        Ok((report, secs_since(start)))
    };
    let (cold, cold_s) = submit("cold")?;
    let (warm, warm_s) = submit("warm")?;
    let work = worker.join().map_err(|_| "worker thread panicked".to_string())??;
    server.join().map_err(|_| "service thread panicked".to_string())??;

    let read =
        |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("reading {name}: {e}"));
    let events = String::from_utf8(read("cold.events")?).map_err(|e| e.to_string())?;
    let mut finished = Vec::new();
    for line in events.lines() {
        if let Event::ScenarioFinished { status, secs, .. } = Event::from_json_line(line)? {
            finished.push((status, secs));
        }
    }
    Ok(Session {
        expand_s,
        serve_start_s,
        cold,
        cold_s,
        warm,
        warm_s,
        work,
        cold_bytes: read("cold.jsonl")?,
        warm_bytes: read("warm.jsonl")?,
        finished,
        event_lines: events.lines().count(),
        event_bytes: events.len() as u64,
        cache_bytes: dir_bytes(&dir.join("cache")),
    })
}

/// A fresh, empty scratch directory for one session (unique within
/// the process, so concurrent sessions never share a socket or cache).
fn fresh_dir(scratch: &Path) -> Result<PathBuf, String> {
    static SESSIONS: AtomicUsize = AtomicUsize::new(0);
    let n = SESSIONS.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("campaign-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run a session in a fresh scratch directory, removed afterwards.
fn session_in(scale: Scale, scratch: &Path) -> Result<Session, String> {
    let dir = fresh_dir(scratch)?;
    let result = session(scale, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The checks every session must pass; adds the attempted and failed
/// scenario deliveries (cold and warm) to the report.
fn check(report: &mut Report, s: &Session) {
    let total = s.cold.total as u64;
    report.attempted += 2 * total;
    report.failed += s.cold.panicked as u64;
    if s.cold.panicked > 0 {
        report.fail(format!("{} scenario(s) panicked", s.cold.panicked));
    }
    if s.cold.cached != 0 {
        report.fail(format!("the fresh cache served {} hit(s)", s.cold.cached));
    }
    if s.finished.len() as u64 != total {
        report.fail(format!("{} scenario_finished events for {total} scenarios", s.finished.len()));
    }
    let warm_ok = s.warm.total == s.cold.total
        && s.warm.cached == s.warm.total
        && s.warm.executed == 0
        && s.warm_bytes == s.cold_bytes;
    if !warm_ok {
        report.failed += total;
        report.fail(format!(
            "warm resubmit: {} cached / {} total, {} executed, output identical: {}",
            s.warm.cached,
            s.warm.total,
            s.warm.executed,
            s.warm_bytes == s.cold_bytes
        ));
    }
}

/// Robot activations summed over the cold output's records.
fn activations(s: &Session, report: &mut Report) -> u64 {
    let mut total = 0;
    for line in String::from_utf8_lossy(&s.cold_bytes).lines() {
        match ScenarioRecord::from_json_line(line) {
            Ok(rec) => total += rec.activations,
            Err(e) => report.fail(format!("unreadable record: {e}")),
        }
    }
    total
}

fn outcome_counts(s: &Session) -> [usize; 4] {
    let mut counts = [0; 4];
    for (status, _) in &s.finished {
        counts[*status as usize] += 1;
    }
    counts
}

pub fn run(scale: Scale, scratch: &Path) -> Report {
    let mut report = Report { correct: true, ..Default::default() };
    let s = match session_in(scale, scratch) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    check(&mut report, &s);
    let robot_rounds = activations(&s, &mut report);
    let scenario_secs: Vec<f64> = s.finished.iter().map(|&(_, secs)| secs).collect();
    let n = scenario_secs.len();
    let p50 = median(&scenario_secs).unwrap_or(0.0) * 1e3;
    report.metrics = vec![
        metric("setup_s", median(&s.expand_s).unwrap_or(0.0) + s.serve_start_s, "s"),
        metric("work_s", s.cold_s, "s"),
        metric("robot_rounds_per_s", robot_rounds as f64 / s.cold_s, "1/s"),
        metric("op_ms.p50", p50, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let [ok, stalled, disconnected, panicked] = outcome_counts(&s);
    let ms = |p| percentile(&scenario_secs, p).unwrap_or(0.0) * 1e3;
    report.note(format!(
        "campaign-weak-sync: {} scenarios (scenario seeds {SCENARIO_SEEDS:?}), service start \
         {:.5} s, cold {:.3} s, warm {:.4} s",
        s.cold.total, s.serve_start_s, s.cold_s, s.warm_s
    ));
    report.note(format!(
        "scenarios_per_s {:.3}; scenario_ms.p50 {p50:.3} ms, scenario_ms.p95 {:.3} ms ({n} \
         samples){}",
        s.cold.total as f64 / s.cold_s,
        ms(95),
        match tail_percentile(n) {
            Some(p) => format!(", tail p{p} {:.3} ms", ms(p)),
            None => String::new(),
        }
    ));
    report.note(format!(
        "outcomes: {ok} ok, {disconnected} disconnected, {stalled} stalled, {panicked} panicked; \
         gathered_frac {:.4}; failed_frac {:.4}",
        ok as f64 / n.max(1) as f64,
        failed_frac(report.failed, report.attempted)
    ));
    report
}

/// Every scenario of the spec, on `THREADS` threads, plain and then
/// profiled: the records must agree, and the profiles give the engine's
/// phase split over the whole campaign.
struct Batch {
    plain_s: f64,
    profiled_s: f64,
    totals: ProfileTotals,
    activations: u64,
    merges: u64,
    allocs: u64,
}

fn batch(scenarios: &[Scenario], report: &mut Report, allocs: AllocCounter) -> Batch {
    let run_all = |profiled: bool| -> (Vec<ScenarioRecord>, f64) {
        let start = now();
        let mut parts: Vec<Vec<(usize, ScenarioRecord)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        (t..scenarios.len())
                            .step_by(THREADS)
                            .map(|i| {
                                let sc = &scenarios[i];
                                (i, if profiled { sc.run_profiled() } else { sc.run() })
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scenario thread")).collect()
        });
        let secs = secs_since(start);
        let mut all: Vec<(usize, ScenarioRecord)> = parts.drain(..).flatten().collect();
        all.sort_by_key(|(i, _)| *i);
        (all.into_iter().map(|(_, r)| r).collect(), secs)
    };
    let (plain, plain_s) = run_all(false);
    let allocs_before = allocs();
    let (profiled, profiled_s) = run_all(true);
    let alloc_count = allocs().saturating_sub(allocs_before);

    let mut totals = ProfileTotals::default();
    let (mut activations, mut merges) = (0, 0);
    for (a, b) in plain.iter().zip(&profiled) {
        let mut stripped = b.clone();
        stripped.secs = 0.0;
        stripped.perf = None;
        if *a != stripped {
            report.fail(format!("{}: profiled record differs from plain record", a.id));
        }
        activations += b.activations;
        merges += b.merges as u64;
        if let Some(perf) = &b.perf {
            totals.rounds += perf.rounds;
            totals.wall_ns += (perf.wall_s * 1e9) as u64;
            for p in 0..PHASE_COUNT {
                totals.phase_ns[p] += (perf.phase_s[p] * 1e9) as u64;
            }
            totals.shard_imbalance_ns += (perf.shard_gap_s * 1e9) as u64;
        }
    }
    Batch { plain_s, profiled_s, totals, activations, merges, allocs: alloc_count }
}

pub fn traced(scale: Scale, scratch: &Path, allocs: AllocCounter) -> Report {
    let mut report = Report { correct: true, ..Default::default() };
    let s = match session_in(scale, scratch) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    check(&mut report, &s);
    let busy: f64 = s.finished.iter().map(|&(_, secs)| secs).sum();
    let mut metrics: Vec<Metric> = vec![
        layer("campaign.busy_frac", busy_frac(busy, THREADS, s.cold_s)),
        layer("campaign.records_bytes", s.cold_bytes.len() as f64),
        layer("serve.leases", s.work.leases as f64),
        layer("serve.worker_idle_s", THREADS as f64 * s.cold_s - busy),
        layer("serve.cache_hits", s.warm.cached as f64),
        layer("serve.cache_misses", (s.cold.total - s.cold.cached) as f64),
        layer("serve.cache_bytes", s.cache_bytes as f64),
        layer("serve.cache_resubmit_s", s.warm_s),
        layer("obs.events", s.event_lines as f64),
        layer("obs.event_bytes", s.event_bytes as f64),
    ];

    let scenarios = spec(scale).expand();
    let b = batch(&scenarios, &mut report, allocs);
    metrics.extend(phase_metrics(&b.totals, b.activations));
    metrics.extend([
        layer("engine.robot_rounds", b.activations as f64),
        layer("engine.merges", b.merges as f64),
        layer("engine.allocs_per_robot_round", b.allocs as f64 / b.activations.max(1) as f64),
        layer("engine.trace_overhead", b.profiled_s / b.plain_s - 1.0),
    ]);
    report.metrics = metrics;
    report.note(format!(
        "campaign traced: {} scenarios, {} leases; batch plain {:.3} s, profiled {:.3} s; \
         {} engine rounds profiled, coverage {:.4}",
        s.cold.total,
        s.work.leases,
        b.plain_s,
        b.profiled_s,
        b.totals.rounds,
        b.totals.coverage()
    ));
    report
}
