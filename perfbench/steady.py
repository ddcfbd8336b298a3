"""Steadiness check: one workload, several seeds, two interleaved sets.

    python3 perfbench/steady.py --workload scan --seeds 1-10

Runs ``run.py`` once per seed in each of two sets, alternating sets seed by
seed, and prints for every end-to-end metric each set's median, quartiles
and min/max relative to the median.  It fails (exit 1) when

* a run fails or reports ``correct: false``;
* a metric's quartile spread (Q3 - Q1) / median exceeds its bound in
  BENCHMARK.json, or the second set's median is worse than the first's by
  more than the bound;
* the share of failed operations differs between the sets;
* the ruleset or detections digest differs between two runs of one seed.

``--traced`` adds a traced run per seed and prints the tracing overhead:
the traced run's end-to-end figures against the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
LINE = re.compile(
    r"^\[[^\]]+\] (?:digest (\w+): (\S+)|(\w+) = (\S+) \S+(?:  \(raw (\S+)\))?$)"
)


def seeds_arg(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result["digests"], result["logged"] = {}, {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match and match.group(1):
            result["digests"][match.group(1)] = match.group(2)
        elif match and match.group(3):
            result["logged"][match.group(3)] = float(match.group(4))
            if match.group(5):
                result["logged"]["raw " + match.group(3)] = float(match.group(5))
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs: list[list[dict]] = [[] for _ in range(SETS)]
    traced: list[dict] = []
    for seed in args.seeds:
        for index in range(SETS):
            runs[index].append(run_once(args.workload, seed, seconds, 0))
        if args.traced:
            traced.append(run_once(args.workload, seed, seconds, 1))
        print(f"seed {seed}: " + "  ".join(
            f"{m['name']}=" + "/".join(
                "%.4g" % r[-1]["metrics"][m["name"]]["value"] for r in runs)
            for m in bench["end_to_end"]), flush=True)

    problems: list[str] = []
    for index, results in enumerate(runs):
        for seed, result in zip(args.seeds, results):
            if not result["correct"]:
                problems.append(f"set {index + 1} seed {seed}: correct is false")
    shares = {r["failed"] / r["attempted"] for results in runs for r in results}
    if len(shares) > 1:
        problems.append(f"failed shares differ between runs: {sorted(shares)}")
    for position, seed in enumerate(args.seeds):
        group = [results[position] for results in runs] + (
            [traced[position]] if traced else [])
        for key in ("ruleset", "detections"):
            found = {r["digests"].get(key) for r in group}
            if len(found) != 1:
                problems.append(f"seed {seed}: {key} digests differ: {sorted(map(str, found))}")

    print(f"\n{args.workload}: {len(args.seeds)} seeds x {SETS} sets, "
          f"{seconds}s runs; spread = (Q3 - Q1) / median")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, results in enumerate(runs):
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            medians.append(median)
            print(f"  {name:20s} set {index + 1}: median {median:.5g} {metric['unit']}, "
                  f"Q1 {q1:.5g}, Q3 {q3:.5g}, spread {rel:.3f} (bound {bound}), "
                  f"min/max {min(values) / median:.3f}/{max(values) / median:.3f}")
            if rel > bound:
                problems.append(f"{name} set {index + 1}: spread {rel:.3f} > bound {bound}")
            raw = [r["logged"].get("raw " + name) for r in results]
            if None not in raw:
                print(f"  {'':20s}        raw median {statistics.median(raw):.5g}, "
                      f"spread {spread(raw)[3]:.3f}")
        for later in medians[1:]:
            worse = (medians[0] - later) / medians[0] if metric["better"] == "higher" \
                else (later - medians[0]) / medians[0]
            if worse > bound:
                problems.append(f"{name}: a later set's median is {worse:.3f} worse (bound {bound})")
        if traced:
            plain = statistics.median(r["metrics"][name]["value"] for r in runs[0])
            with_trace = statistics.median(r["logged"].get(name, float("nan")) for r in traced)
            print(f"  {name:20s} traced median {with_trace:.5g}: "
                  f"{(with_trace - plain) / plain:+.3f} against untraced")
    if traced:
        layers = [m["name"] for m in bench["per_layer"]]
        for name in ("trace.overhead_share", "trace.unexplained_share"):
            values = [r["metrics"][name]["value"] for r in traced if name in r["metrics"]]
            if values:
                print(f"  {name}: median {statistics.median(values):.4f}")
        missing = [n for n in layers if any(n not in r["metrics"] for r in traced)]
        if missing:
            problems.append(f"traced runs miss per-layer metrics: {missing}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
