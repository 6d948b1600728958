//! The host block stamped on every result: which machine, toolchain
//! and build produced a number. Two results are only comparable when
//! they come from the same kind of host.

use std::process::Command;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.into(),
        }
    }

    /// One flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}, \"profile\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(&self.profile),
        )
    }

    /// `Ok` when results from `self` and `other` may be compared; the
    /// error names every field that differs. The git revision is
    /// expected to differ (that is what a comparison is for) and is not
    /// checked.
    pub fn comparable(&self, other: &Host) -> Result<(), String> {
        let mut diffs = Vec::new();
        if self.nproc != other.nproc {
            diffs.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        for (name, a, b) in [
            ("cpu", &self.cpu, &other.cpu),
            ("rustc", &self.rustc, &other.rustc),
            ("profile", &self.profile, &other.profile),
        ] {
            if a != b {
                diffs.push(format!("{name} {a:?} vs {b:?}"));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!("results come from different hosts: {}", diffs.join("; ")))
        }
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu: "Some CPU @ 2.0GHz".into(),
            rustc: "rustc 1.95.0".into(),
            git_rev: "abc1234".into(),
            profile: "release".into(),
        }
    }

    #[test]
    fn same_host_with_another_revision_is_comparable() {
        let other = Host { git_rev: "def5678".into(), ..host() };
        assert_eq!(host().comparable(&other), Ok(()));
    }

    #[test]
    fn refuses_a_different_core_count_or_cpu_and_says_why() {
        let one_core = Host { nproc: 1, ..host() };
        let err = host().comparable(&one_core).unwrap_err();
        assert!(err.contains("nproc 2 vs 1"), "{err}");
        let other_cpu = Host { cpu: "Other CPU".into(), rustc: "rustc 1.80.0".into(), ..host() };
        let err = host().comparable(&other_cpu).unwrap_err();
        assert!(err.contains("cpu") && err.contains("rustc"), "{err}");
        let debug = Host { profile: "debug".into(), ..host() };
        assert!(host().comparable(&debug).unwrap_err().contains("profile"));
    }

    #[test]
    fn host_json_escapes_strings() {
        let h = Host { cpu: "A \"quoted\" CPU".into(), ..host() };
        let json = h.to_json();
        assert!(json.contains(r#""cpu": "A \"quoted\" CPU""#), "{json}");
        assert!(json.starts_with("{\"nproc\": 2,"), "{json}");
    }

    #[test]
    fn detect_fills_every_field() {
        let h = Host::detect();
        assert!(h.nproc >= 1);
        assert!(!h.cpu.is_empty() && !h.rustc.is_empty() && !h.git_rev.is_empty());
    }
}
