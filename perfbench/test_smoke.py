"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced through `run.py --tiny` and checks
that each metric of BENCHMARK.json prints by name with its unit, that the
outputs pass their checks, and that the traced run emits spans for the
layers each workload goes through.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5

ALL_LAYERS = {"gaussian", "device", "detection", "tomography", "config", "cli"}
LAYERS = {
    "tomo-default": ALL_LAYERS,
    "seed-sweep": ALL_LAYERS - {"cli"},
    "device-scan": {"device", "config", "cli", "detection"},
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]

    if trace:
        spans = json.loads(
            (ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1.spans.json").read_text()
        )
        layers = {span["name"].split(".")[0] for span in spans}
        assert LAYERS[workload] <= layers


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "tomo-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
