#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds, summarise them, compare summaries.

Run from the repository root:

    python3 perfbench/spread.py run --workloads all --seeds 1-10 --out summary.json
    python3 perfbench/spread.py compare BASE.json NEW.json

`run` calls `perfbench/run.py` once per (workload, seed) with the
`run_seconds` of BENCHMARK.json, and writes a summary stamped with the
host block the runs printed: for every workload and metric the ten
values, their median, first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median.

`compare` refuses (exit 3, saying why) when the two summaries come from
hosts with a different core count, CPU, compiler or build profile.
Otherwise it prints each metric's change of median and flags the ones
worse than the bound BENCHMARK.json fixes (exit 1 if any).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("nproc", "cpu", "rustc", "profile")


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    """`1-10` or `1,4,9` -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def parse_output(stdout):
    """(host, result) from one run's standard output."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    host = None
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
    if host is None:
        raise ValueError("no host block before the result")
    return host, result


def spread_of(values):
    """median, q1, q3 and (q3 - q1) / median of a list of numbers."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def summarise(runs):
    """runs: list of (workload, seed, host, result) -> summary dict."""
    hosts = []
    for _, _, host, _ in runs:
        if host not in hosts:
            hosts.append(host)
    for other in hosts[1:]:
        why = host_mismatch(hosts[0], other)
        if why:
            raise ValueError("runs of one summary " + why)
    workloads = {}
    for workload, seed, _, result in runs:
        w = workloads.setdefault(
            workload, {"seeds": [], "correct": True, "attempted": 0, "failed": 0, "metrics": {}})
        w["seeds"].append(seed)
        w["correct"] = w["correct"] and result["correct"]
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            entry = w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    for w in workloads.values():
        for entry in w["metrics"].values():
            entry.update(spread_of(entry["values"]))
    return {"host": hosts[0] if hosts else None, "workloads": workloads}


def host_mismatch(a, b):
    """None when hosts a and b are comparable, else the reason."""
    if a is None or b is None:
        return "cannot be compared: a summary has no host block"
    diffs = [f"{k} {a.get(k)!r} vs {b.get(k)!r}" for k in HOST_KEYS if a.get(k) != b.get(k)]
    if diffs:
        return "come from different hosts: " + "; ".join(diffs)
    return None


def compare(base, new, bench):
    """Lines of a comparison report and whether any metric regressed.

    Raises ValueError when the hosts differ."""
    why = host_mismatch(base.get("host"), new.get("host"))
    if why:
        raise ValueError("refusing to compare: the summaries " + why)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    lines, regressed = [], False
    for workload, w in sorted(new["workloads"].items()):
        b = base["workloads"].get(workload)
        if b is None:
            lines.append(f"{workload}: not in the base summary")
            continue
        for name, m in sorted(w["metrics"].items()):
            spec = specs.get(name)
            if spec is None or name not in b["metrics"]:
                continue
            old, cur = b["metrics"][name]["median"], m["median"]
            change = (cur - old) / old if old else 0.0
            worse = change if spec["better"] == "lower" else -change
            flag = ""
            if worse > spec["bound"]:
                flag, regressed = "  REGRESSION", True
            lines.append(
                f"{workload:20} {name:20} {old:14.6g} -> {cur:14.6g} {m['unit']:6} "
                f"({change:+.1%}, bound {spec['bound']:.0%}){flag}")
    return lines, regressed


def cmd_run(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            host, result = parse_output(proc.stdout)
            runs.append((workload, seed, host, result))
            shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if args.trace == "0")
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", file=sys.stderr)
    summary = summarise(runs)
    for workload, w in summary["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:20} {name:30} median {m['median']:14.6g} {m['unit']:8} "
                  f"spread {m['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


def cmd_compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    try:
        lines, regressed = compare(base, new, load_benchmark())
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="all")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", default="0", choices=["0", "1"])
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
