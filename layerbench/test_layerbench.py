"""The benchmark's own tests.

Every workload runs at the smoke size, traced and untraced; a planted wrong
pick must fail the oracle; and the benchmark must refuse to run where the
program is missing.  Run from the root of a checkout:

    python3 -m pytest -q layerbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-small-n", "replay-large-n", "queue-feedback")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "layerbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_size_passes_and_prints_every_declared_metric(workload, trace):
    res = result(bench("--workload", workload, "--size", "smoke", "--seconds", "0", "--trace", str(trace)))
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 1
    got = [(name, m["unit"]) for name, m in res["metrics"].items()]
    assert got == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_pick_fails_the_oracle(workload):
    args = ("--workload", workload, "--size", "smoke", "--trace", "0", "--plant-fault", "pick")
    short = result(bench(*args, "--seconds", "0"))
    assert short["correct"] is False
    assert short["failed"] >= 1
    # whole rounds: the failed share does not depend on the run's length
    longer = result(bench(*args, "--seconds", "2"))
    assert longer["attempted"] > short["attempted"]
    assert longer["failed"] * short["attempted"] == short["failed"] * longer["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-small-n", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
