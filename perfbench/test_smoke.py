"""Smoke test of the benchmark command at minimal length.

Checks that every workload emits every metric ``BENCHMARK.json`` names, with
its unit, in both the end-to-end and the traced mode, and that the command
refuses to run without the program source.  Run from the checkout root::

    python3 -m pytest perfbench/test_smoke.py -q

The first traced run trains the router (about half a minute per workload).
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [workload["name"] for workload in SPEC["workloads"]])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    result = run_benchmark(ROOT, workload, trace)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        assert all(last["metrics"][name]["value"] > 0 for name in last["metrics"])


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    result = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
