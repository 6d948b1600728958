//! Command line shared by both binaries:
//!
//! ```text
//! perfbench        --workload NAME [--seed N] [--seconds S] [--trace 0]
//! perfbench-traced --workload NAME [--seed N] [--seconds S] --trace 1
//! ```
//!
//! Notes go to standard error. Standard output ends with two lines: the
//! host block `{"host": {...}}`, then the result object.

use std::path::PathBuf;

use crate::host::Host;
use crate::{AllocCounter, Scale, Workload};

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args { workload: Workload::GatherFsync, seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Where a run may write: `perfbench-scratch` inside the build
/// directory (`CARGO_TARGET_DIR`, else `.bench_build`), relative to the
/// working directory so socket paths stay short.
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base).join("perfbench-scratch")
}

/// Run the benchmark; returns the process exit code. `allocs` is the
/// traced binary's allocation counter and must be present exactly
/// when `--trace 1` is asked for.
pub fn main(allocs: Option<AllocCounter>) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let counter = match (args.trace, allocs) {
        (true, Some(counter)) => Some(counter),
        (false, None) => None,
        (true, None) => {
            eprintln!("error: --trace 1 runs in the perfbench-traced binary");
            return 2;
        }
        (false, Some(_)) => {
            eprintln!("error: --trace 0 runs in the perfbench binary");
            return 2;
        }
    };
    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: creating {}: {e}", scratch.display());
        return 1;
    }
    let host = Host::detect();
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match counter {
        Some(counter) => args.workload.run_traced(args.seed, Scale::Full, &scratch, counter),
        None => args.workload.run(args.seed, args.seconds, Scale::Full, &scratch),
    };
    for note in &report.notes {
        eprintln!("  {note}");
    }
    println!("{{\"host\": {}}}", host.to_json());
    println!("{}", report.to_json());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload rounds-async-1m --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::RoundsAsync1m);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse(&argv("--workload gather-fsync")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10.0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--seed 1")).unwrap_err().contains("--workload"));
        assert!(parse(&argv("--workload nope")).unwrap_err().contains("gather-fsync"));
        assert!(parse(&argv("--workload gather-fsync --trace 2")).is_err());
        assert!(parse(&argv("--workload gather-fsync --seconds 0")).is_err());
        assert!(parse(&argv("--workload gather-fsync --seed")).is_err());
        assert!(parse(&argv("--workload gather-fsync --bogus 1")).is_err());
    }
}
