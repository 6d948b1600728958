#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the `perfbench`
package (release) into $CARGO_TARGET_DIR, default `.bench_build`; later
calls find it built. `--trace 0` runs the measured binary, `--trace 1`
the traced one, which alone carries an allocation counter. The last line
of standard output is the result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARIES = {"0": "perfbench", "1": "perfbench-traced"}


def trace_flag(argv):
    """The value given to --trace (default 0)."""
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            return argv[i + 1]
    return "0"


def main(argv):
    trace = trace_flag(argv)
    if trace not in BINARIES:
        print(f"error: --trace takes 0 or 1, not {trace!r}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", BINARIES[trace])
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
