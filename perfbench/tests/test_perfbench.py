"""Tests of the benchmark itself, in its smoke mode (tiny levels).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)

SELF_TIMES = [layer + "_s" for layer in tracing.LAYERS] + [
    "experiments.self_s", "cli.self_s", "trace.check_s"]


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_matches_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS)
    assert list(workloads.SMOKE) == list(workloads.WORKLOADS)
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    assert _units("per_layer") == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end_metrics(workload):
    result = _result(_run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.SMOKE[workload])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_per_layer_metrics_account_for_the_traced_pass(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer")
    # --seconds 0 runs exactly one traced pass, so no medians mix passes
    wall = metrics["trace.wall_s"]
    accounted = sum(metrics[name] for name in SELF_TIMES)
    assert all(metrics[name] >= 0 for name in SELF_TIMES)
    assert abs(accounted - wall) <= 0.05 * wall + 0.005, (accounted, wall)
    assert metrics["mesh.cells"] > 0 and metrics["basis.eval_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("infsup", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _converge_table():
    argv = workloads.SMOKE["converge-k1"][0]
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    want = reference[workloads.invocation_key(argv)]
    return argv, reference, {"header": list(want["header"]),
                             "rows": [list(r) for r in want["rows"]]}


def test_check_accepts_the_reference_and_roundoff():
    argv, reference, table = _converge_table()
    assert workloads.check_outputs(argv, table, reference) == []
    table["rows"][1][3] *= 1 + 1e-9
    assert workloads.check_outputs(argv, table, reference) == []


@pytest.mark.parametrize("column,factor", [(2, 1 + 1e-15), (3, 1 + 1e-4),
                                           (5, 1.001)])
def test_check_rejects_changed_outputs(column, factor):
    argv, reference, table = _converge_table()
    table["rows"][1][column] *= factor
    assert workloads.check_outputs(argv, table, reference)


def test_check_applies_the_sanity_gates():
    argv, reference, table = _converge_table()
    assert not math.isnan(table["rows"][-1][5])
    reference = {workloads.invocation_key(argv): json.loads(json.dumps(table))}
    table["rows"][-1][5] = 1.5
    reference[workloads.invocation_key(argv)]["rows"][-1][5] = 1.5
    errors = workloads.check_outputs(argv, table, reference)
    assert errors and "final order" in errors[0]
