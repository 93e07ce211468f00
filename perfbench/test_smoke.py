"""Smoke test of the benchmark: every workload on a level-1 mesh, in seconds.

    python3 -m pytest perfbench/test_smoke.py

Checks that run.py emits exactly the metrics BENCHMARK.json declares, each
with its declared unit, for tracing off and on. Level-1 meshes lie far
outside the workloads' oracle bounds, so the bound is lifted here; the
benchmark's own runs gate accuracy at the real levels.
"""

import json
import os
import re
from dataclasses import replace

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_the_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_declared_metric_is_emitted(spec, name, trace):
    workload = replace(run.WORKLOADS[name], level=1, oracle_bound=1.0)
    result = run.measure(workload, seed=1, seconds=0, trace=trace)["result"]

    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = spec["per_layer" if trace else "end_to_end"]
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for metric, entry in result["metrics"].items():
        assert NAME.fullmatch(metric), metric
        assert isinstance(entry["value"], (int, float)), metric
    json.dumps(result, allow_nan=False)
