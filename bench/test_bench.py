"""Tests of the benchmark itself: output contract, correctness gate, solver, tracer."""

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import tracing
import workloads
from stratlearn.backends import Verdict
from stratlearn.space import Strategy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


class FlipOne:
    """Backend proxy that answers SAT where problem 2 is UNSAT."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def num_problems(self):
        return self.inner.num_problems

    def solve(self, index, strategy, budget=None):
        outcome = self.inner.solve(index, strategy, budget)
        if index == 2 and outcome.verdict is Verdict.UNSAT:
            return dataclasses.replace(outcome, verdict=Verdict.SAT)
        return outcome


def test_names_match_the_code():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_unit_and_direction(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", trace, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        cell = result["metrics"][m["name"]]
        assert cell["unit"] == m["unit"]
        assert isinstance(cell["value"], (int, float)) and math.isfinite(cell["value"])
        assert any(m["name"] in line and f"({m['better']} is better)" in line for line in lines)


def _measure_args(name):
    return argparse.Namespace(workload=name, seed=0, seconds=0.3, trace=0, size="tiny")


@pytest.mark.parametrize("name", NAMES)
def test_flipped_verdict_is_counted_as_failed(name):
    result = child.measure(_measure_args(name), wrap=FlipOne)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok"] < 1.0


def test_unflipped_runs_pass_the_gate():
    result = child.measure(_measure_args("subprocess-cli"))
    assert result["correct"] is True and result["metrics"]["ops_ok"] == 1.0


def test_solver_reports_the_synthetic_metric(tmp_path):
    w = workloads.get("subprocess-cli")
    inputs = workloads.make_inputs(w, 0, tmp_path)
    land = inputs.landscape
    problem = str(tmp_path / "p3.problem")
    for values in (land.optimum, tuple(d.default_value for d in inputs.space.domains)):
        expected = land.metric(3, Strategy(values))
        for budget, code in ((None, 20), (expected, 20), (expected / 2, 0)):
            extra = [] if budget is None else ["--budget", repr(budget)]
            proc = subprocess.run(
                [sys.executable, "-S", "-E", str(workloads.SOLVER), problem, *values, *extra],
                capture_output=True, text=True, timeout=30,
            )
            assert proc.returncode == code
            assert proc.stdout.strip() == f"c metric: {expected!r}"


def test_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("stratlearn.engine", "no_such_function", "engine.gone"),
                           ("stratlearn.no_such_module", "run", "gone.run")),
    )
    tracer = tracing.Tracer()
    record = workloads.run_once(workloads.get("fit-heavy", "tiny"), 0, tmp_path, tracer=tracer)
    assert record.problems == []
    assert tracer.absent == {"stratlearn.engine.no_such_function", "stratlearn.no_such_module.run"}
    metrics = tracer.metrics()
    assert metrics["engine.epochs"] == 3 and metrics["forest.fit_s"] > 0


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
