"""``rulellm serve`` with a calibration sampler in the server process.

    python3 perfbench/serve.py SLICES_JSON CPU [serve arguments ...]

Pins itself to vCPU ``CPU`` (-1: leave the affinity alone), starts the
kernel-slice sampler of :mod:`calib`, then runs ``repro.cli.main(["serve",
...])`` -- the program's own ``rulellm serve`` -- in this process.  When the
server exits (SIGTERM drains it), the slices are written to ``SLICES_JSON``
so the benchmark can calibrate the intervals the server was busy in: the
GIL serialises each slice with the server's work, as in the in-process
workloads.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    slices_path, cpu, serve_args = argv[0], int(argv[1]), argv[2:]
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    from calib import Calibrator

    calibrator = Calibrator().start()
    try:
        from repro.cli import main as cli_main

        return cli_main(["serve", *serve_args])
    finally:
        calibrator.stop()
        Path(slices_path).write_text(json.dumps(calibrator.samples()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
