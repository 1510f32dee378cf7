"""Self-test of the end-to-end benchmark, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest e2ebench/tests -q
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import specs  # noqa: E402
from repro.scenario import run as run_scenario  # noqa: E402

SCALE = 0.05
SEED = 7


def _args(workload, trace=1):
    return argparse.Namespace(workload=workload, seed=SEED, trace=trace)


def _rep(workload, traced, check=False):
    doc, error = run.run_rep(
        _args(workload), traced, check, time.perf_counter() + 120, scale=SCALE
    )
    assert doc is not None, error
    return doc


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_reps_repeat_exact_counts_and_digest(workload):
    first, second = _rep(workload, True), _rep(workload, True)
    counts = [run.layer_metrics(d) for d in (first, second)]
    for name in run.EXACT_COUNTS:
        assert counts[0][name] == counts[1][name], name
    assert first["digest"] == second["digest"]
    plain = _rep(workload, False, check=True)
    assert plain["digest"] == first["digest"]

    checks = [tuple(c) for c in plain["checks"]]
    _, _, doc = run.summarize(_args(workload), [plain], [first, second], checks, 0)
    assert doc["correct"], [c for c in checks if not c[1]]

    # A traced rep whose wrapper missed its layer fails a check.
    layer = run.HOOKED_LAYERS[workload][-1]
    unhooked = dict(first, phases={
        k: v for k, v in first["phases"].items() if k != layer
    })
    checks = [tuple(c) for c in plain["checks"]]
    _, _, doc = run.summarize(_args(workload), [plain], [unhooked], checks, 0)
    assert not doc["correct"]


def _corrupt(result):
    if hasattr(result, "latencies_ms"):
        return dataclasses.replace(
            result, latencies_ms=tuple(x + 1e-6 for x in result.latencies_ms)
        )
    if hasattr(result, "failures_per_array"):
        bumped = (result.failures_per_array[0] + 1,)
        return dataclasses.replace(
            result, failures_per_array=bumped + result.failures_per_array[1:]
        )
    return dataclasses.replace(result, losses=result.losses + 1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_result_fails_its_check(workload):
    scenario = specs.build_scenario(workload, SEED, SCALE)
    result = run_scenario(scenario)
    assert all(ok for _, ok, _ in specs.check_result(scenario, result))

    checks = specs.check_result(scenario, _corrupt(result))
    assert not all(ok for _, ok, _ in checks)
    plain = [_rep(workload, False, check=True)]
    _, _, doc = run.summarize(_args(workload, trace=0), plain, [], checks, 0)
    assert not doc["correct"]
    assert doc["failed"] / doc["attempted"] > 0


def test_benchmark_json_lists_the_metrics_run_py_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_host_slowdown_cancels_but_program_slowdown_shows():
    doc = _rep("fleet-lifecycle", False)
    slow_host = dict(
        doc,
        setup_s=2 * doc["setup_s"],
        run_s=2 * doc["run_s"],
        summary_s=2 * doc["summary_s"],
        calibration_s=2 * doc["calibration_s"],
    )
    slow_program = dict(doc, run_s=doc["run_s"] + run.timed_s(doc))

    def end_to_end(d):
        return run.summarize(_args("fleet-lifecycle", trace=0), [d], [], [], 0)[0]

    base = end_to_end(doc)
    assert end_to_end(slow_host)["work_per_s"] == pytest.approx(base["work_per_s"])
    assert end_to_end(slow_host)["setup_s"] == pytest.approx(base["setup_s"])
    assert end_to_end(slow_program)["work_per_s"] == pytest.approx(
        base["work_per_s"] / 2
    )
