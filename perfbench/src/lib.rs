//! Benchmark of the gathering simulator: four workloads that exercise
//! the engine, the paper's controller and the campaign service from
//! outside, through the crates' public functions only.
//!
//! A plain run (`--trace 0`) times the workload with no tracing at all
//! and reports the end-to-end metrics; a traced run (`--trace 1`, the
//! `perfbench-traced` binary with its allocation counter) repeats the
//! work with the engine's phase profiler attached and reports the
//! per-layer metrics. See `NOTES.md` for what each workload and metric
//! is for.

pub mod campaign;
pub mod cli;
pub mod gather;
pub mod host;
pub mod layers;
pub mod report;
pub mod rounds;
pub mod stats;

use std::path::Path;
use std::time::Instant;

/// Start a stopwatch.
pub fn now() -> Instant {
    // audit: allow(wall-clock) the benchmark times calls into the
    // simulator from outside; no reading feeds back into a simulated result
    Instant::now()
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `f` at least `min_reps` times and for at least `min_secs` in
/// all, so even a millisecond set-up gets enough samples for a steady
/// median. Returns every sample's seconds and the last result.
pub fn repeat_timed<T>(min_reps: usize, min_secs: f64, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    loop {
        let start = now();
        let out = f();
        times.push(secs_since(start));
        if times.len() >= min_reps && times.iter().sum::<f64>() >= min_secs {
            return (times, out);
        }
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How big a workload's inputs are: the real sizes, or toy sizes that
/// exercise the same code paths in well under a second (tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Process-wide allocation counter of the traced binary, read before
/// and after a measured call.
pub type AllocCounter = fn() -> u64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GatherFsync,
    RoundsFsync1m,
    RoundsAsync1m,
    CampaignWeakSync,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GatherFsync,
        Workload::RoundsFsync1m,
        Workload::RoundsAsync1m,
        Workload::CampaignWeakSync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GatherFsync => "gather-fsync",
            Workload::RoundsFsync1m => "rounds-fsync-1m",
            Workload::RoundsAsync1m => "rounds-async-1m",
            Workload::CampaignWeakSync => "campaign-weak-sync",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload with tracing off for about `seconds` of
    /// measured work. Files (the campaign's socket, cache and outputs)
    /// go under `scratch` and are removed again.
    pub fn run(self, seed: u64, seconds: f64, scale: Scale, scratch: &Path) -> report::Report {
        match self {
            Workload::GatherFsync => gather::run(seed, seconds, scale),
            Workload::RoundsFsync1m => rounds::run(rounds::Kind::Fsync, seed, seconds, scale),
            Workload::RoundsAsync1m => rounds::run(rounds::Kind::Async, seed, seconds, scale),
            Workload::CampaignWeakSync => campaign::run(scale, scratch),
        }
    }

    /// The traced run: per-layer metrics, every name in
    /// [`layers::NAMES`] present.
    pub fn run_traced(
        self,
        seed: u64,
        scale: Scale,
        scratch: &Path,
        allocs: AllocCounter,
    ) -> report::Report {
        let mut report = match self {
            Workload::GatherFsync => gather::traced(seed, scale, allocs),
            Workload::RoundsFsync1m => rounds::traced(rounds::Kind::Fsync, seed, scale, allocs),
            Workload::RoundsAsync1m => rounds::traced(rounds::Kind::Async, seed, scale, allocs),
            Workload::CampaignWeakSync => campaign::traced(scale, scratch, allocs),
        };
        layers::complete(&mut report.metrics);
        report
    }
}
