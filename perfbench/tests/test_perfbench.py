"""Self-tests of the benchmark: declared names, tiny smoke runs, bare checkout.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402
from procs import ROOT, declared  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    assert set(run.END_TO_END) == declared_e2e
    assert [m["name"] for m in spec["per_layer"]] == list(layers.NAMES)
    assert all(layers.SHOULD_MOVE[name] for name in layers.NAMES)


def test_a_tick_that_publishes_nothing_is_a_failed_tick():
    published = {"tick": 3, "published_version": 4, "breaker": "closed"}
    assert stream.tick_problem(published) is None
    assert stream.tick_problem(dict(published, published_version=None))
    assert stream.tick_problem(dict(published, breaker="half_open"))


def test_an_entry_span_covers_only_what_runs_below_it():
    recorded = [
        (1, "stream.tick", 0.0, 10.0, -1, "", {}),
        (2, "stream.refit", 2.0, 5.0, 1, "", {}),
        (3, "svt.apply", 3.0, 4.0, 2, "", {}),
        (4, "batcher.submit", 20.0, 23.0, -1, "", {"batch": 5}),
        (5, "service.batch", 21.0, 22.0, -1, "", {}),
    ]
    entries = [recorded[0], recorded[3]]
    assert layers._entry_coverage(recorded, entries) == pytest.approx(4.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    completed = _bench("--workload", workload, "--seed", "3", "--seconds", "2",
                       "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-3000:]
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else layers.NAMES
    assert set(line["metrics"]) == set(expected)
    if trace == 0 and run.NOT_GATED[workload]:
        reported = [l for l in completed.stdout.splitlines() if "not gated" in l]
        assert all(f"{name}=" in reported[0] for name in run.NOT_GATED[workload])
    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
        if trace == 0:
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = _bench("--workload", "serve-hot", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
