"""Smoke tests of the benchmark: every workload at its miniature size.

Each test runs ``run.py --smoke`` (a few seconds) untraced and traced, and
checks the result line's shape against BENCHMARK.json and that every output
check passed.  The full-size runs are never collected here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_smoke(workload: str, trace: str) -> None:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalogue = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in catalogue}
    for metric in catalogue:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_catalogue_matches_benchmark_json() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import common
    import layers

    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(entry) for entry in common.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]


def test_refuses_without_program_sources(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
