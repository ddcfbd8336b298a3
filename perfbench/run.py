"""Benchmark of the generated-rule pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the directory holding ``src/``).  The last
line of standard output is one JSON object: ``correct`` (every output check
passed), ``attempted`` / ``failed`` operations, and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give raw (uncalibrated) twins of the
calibrated figures, the checks, the digests and, when traced, the self
time of every layer.  Exit status 0 means a complete, correct run.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import Calibrator, pin_to_one_cpu  # noqa: E402

WORKLOADS = ("generate", "scan", "yara-stream", "gateway")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long miniature inputs (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    calibrator = Calibrator().start()
    try:
        return _run(args, calibrator, cpu)
    finally:
        calibrator.stop()


def _run(args, calibrator: Calibrator, cpu: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import common
    import layers
    import wl_gateway
    import wl_generate
    import wl_scan
    from spans import SpanRecorder

    imported = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    recorder = SpanRecorder(run_id) if args.trace else None
    if recorder is not None:
        layers.install(recorder)
    ctx = common.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        calibrator=calibrator,
        recorder=recorder,
        out_dir=OUT_DIR,
        import_window=(_STARTED, imported),
        root=ROOT,
        smoke=args.smoke,
    )
    ctx.log(f"seed {args.seed}, {args.seconds:g}s window, pinned to vCPU {cpu}, "
            f"trace {'on' if recorder else 'off'}")
    module = {"generate": wl_generate, "scan": wl_scan, "yara-stream": wl_scan,
              "gateway": wl_gateway}[args.workload]
    try:
        outcome = module.run(ctx)
    finally:
        if recorder is not None:
            recorder.restore()
            spans_path = OUT_DIR / f"spans-{run_id}.jsonl"
            recorder.write_jsonl(spans_path)
            ctx.log(f"spans -> {spans_path.relative_to(ROOT)}")

    for name, unit, _ in common.END_TO_END:
        value = outcome.metrics.get(name)
        ok = value is not None and math.isfinite(value) and value > 0
        outcome.check(f"end-to-end metric {name} measured", ok, repr(value))
        raw = outcome.raw.get(name)
        twin = "" if raw is None else f"  (raw {raw:.6g})"
        ctx.log(f"{name} = {value:.6g} {unit}{twin}" if ok else f"{name} missing")
    if recorder is None:
        catalogue, source = common.END_TO_END, outcome.metrics
    else:
        catalogue, source = layers.PER_LAYER, outcome.layers
        for name, unit, _ in layers.PER_LAYER:
            value = source.get(name)
            ok = value is not None and math.isfinite(value)
            outcome.check(f"layer metric {name} measured", ok, repr(value))
            ctx.log(f"layer {name} = {value:.6g} {unit}" if ok else f"layer {name} missing")
    metrics = {name: {"value": source[name], "unit": unit} for name, unit, _ in catalogue
               if source.get(name) is not None}
    for name, value in sorted(outcome.digests.items()):
        ctx.log(f"digest {name}: {value}")
    for name, ok, detail in outcome.checks:
        if "metric" not in name or not ok:
            ctx.log(f"check {'ok  ' if ok else 'FAIL'} {name}  [{detail}]")
    correct = outcome.correct
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
