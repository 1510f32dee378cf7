"""The four benchmark workloads: their scenarios and output checks.

Every workload is a ``repro.scenario.Scenario`` handed to the same
``repro.scenario.run`` call that each ``repro`` CLI subcommand makes,
with ``jobs=1``. Importing this module imports the ``repro`` package, so
the benchmark's set-up time includes it.

The output checks run after the timed region. Each returns
``(name, ok, detail)``; a check that raises counts as failed.
"""

import dataclasses
import random
import traceback

from repro.obs.ledger import result_digest
from repro.scenario import Scenario, run
from repro.sim.columnar import derive_chunk_seed
from repro.sim.fleet import FLEET_CHUNK_MISSIONS, simulate_fleet
from repro.sim.serve import AdaptiveThrottle, simulate_serve
from repro.workloads.arrivals import OpenLoop
from repro.workloads.generators import WorkloadSpec

#: Two-sided z of the Wilson intervals the Monte-Carlo kernels must
#: share. At 99.9% per interval, two agreeing kernels fail to overlap
#: with probability below 1e-5, so the check does not flake across seeds.
AGREEMENT_Z = 3.29


def _scaled(count, scale, floor):
    return max(floor, int(round(count * scale)))


def build_scenario(workload, seed, scale=1.0):
    """The workload's ``Scenario`` at *seed*; *scale* shrinks it for tests."""
    if workload == "serve-degraded-read":
        return Scenario(
            kind="serve",
            scheme="oi",
            faults=(0,),
            workload=WorkloadSpec(
                kind="uniform",
                n_requests=_scaled(100_000, scale, 200),
                write_fraction=0.0,
            ),
            arrival=OpenLoop(2000.0),
            trials=_scaled(10, scale, 2),
            seed=seed,
            jobs=1,
        )
    if workload == "serve-online-rebuild":
        return Scenario(
            kind="serve",
            scheme="oi",
            faults=(0,),
            workload=WorkloadSpec(
                kind="uniform",
                n_requests=_scaled(20_000, scale, 200),
                write_fraction=0.3,
            ),
            arrival=OpenLoop(200.0),
            throttle=AdaptiveThrottle(),
            rebuild_batches=_scaled(100, scale, 2),
            trials=_scaled(8, scale, 2),
            seed=seed,
            jobs=1,
        )
    if workload == "fleet-lifecycle":
        return Scenario(
            kind="fleet",
            scheme="oi",
            arrays=_scaled(20_000, scale, 200),
            trials=1,
            mttf_hours=10_000.0,
            horizon_hours=8_766.0,
            lambda_boost=1.0,
            rebuild_method="analytic",
            sparing="distributed",
            seed=seed,
            jobs=1,
        )
    if workload == "reliability-mc":
        return Scenario(
            kind="reliability",
            scheme="oi",
            mttf_hours=2_000.0,
            mttr_hours=40.0,
            horizon_hours=4_000.0,
            trials=_scaled(50_000, scale, 500),
            seed=seed,
            jobs=1,
        )
    raise ValueError(f"unknown workload {workload!r}")


def work_units(scenario, result):
    """Units of simulated work the rate metric divides by host time."""
    if scenario.kind == "serve":
        return result.requests
    if scenario.kind == "fleet":
        return result.missions
    return result.trials


def digest(result):
    """Exact fingerprint of the result, comparable across commits."""
    return result_digest(result.to_dict())


def exact_counts(scenario, result):
    """Simulated event counts that repeat exactly at a fixed seed."""
    if scenario.kind == "serve":
        device_ops = (
            result.device_reads + result.device_writes + result.rebuild_ops_done
        )
        return {"sim.device_ops": device_ops, "sim.failure_events": 0}
    if scenario.kind == "fleet":
        return {
            "sim.device_ops": 0,
            "sim.failure_events": sum(result.failures_per_array),
        }
    return {"sim.device_ops": 0, "sim.failure_events": 0}


# -- output checks ---------------------------------------------------------


def _serve_checks(scenario, result, rng):
    n = scenario.workload.n_requests
    yield (
        "requests == trials x n",
        result.requests == scenario.trials * n,
        f"{result.requests} vs {scenario.trials} x {n}",
    )
    yield (
        "reads + writes == requests",
        result.reads + result.writes == result.requests,
        f"{result.reads} + {result.writes} vs {result.requests}",
    )
    if scenario.throttle is not None:
        yield (
            "rebuild_complete",
            result.rebuild_complete,
            f"{result.rebuild_ops_done}/{result.rebuild_ops} rebuild ops",
        )
    picks = sorted(rng.sample(range(scenario.trials), min(2, scenario.trials)))
    for t in picks:
        replay = simulate_serve(
            scenario.layout,
            scenario.workload,
            scenario.faults,
            scenario.arrival,
            scenario.latency,
            scenario.throttle,
            scenario.sparing,
            scenario.rebuild_batches,
            seed=derive_chunk_seed(scenario.seed, t),
            kernel="event",
        )
        expected = result.latencies_ms[t * n:(t + 1) * n]
        yield (
            f"trial {t} == event-kernel replay (bit for bit)",
            replay.latencies_ms == expected,
            f"{len(replay.latencies_ms)} latencies",
        )


def _fleet_checks(scenario, result, rng):
    yield (
        "losses <= replays <= missions",
        result.raw_losses <= result.replays <= result.missions,
        f"{result.raw_losses} <= {result.replays} <= {result.missions}",
    )
    prefix = rng.randint(
        max(1, scenario.arrays // 10), max(1, scenario.arrays // 5)
    )
    chunk = FLEET_CHUNK_MISSIONS
    while chunk == FLEET_CHUNK_MISSIONS:
        chunk = rng.randint(200, 2000)
    again = simulate_fleet(
        scenario.layout,
        scenario.mttf_hours,
        scenario.horizon_hours,
        disk=scenario.disk,
        sparing=scenario.sparing,
        method=scenario.rebuild_method,
        batches=max(scenario.rebuild_batches, 8),
        lse_rate_per_byte=scenario.lse_rate_per_byte,
        arrays=prefix,
        trials=scenario.trials,
        lambda_boost=scenario.lambda_boost,
        seed=scenario.seed,
        chunk_missions=chunk,
    )
    yield (
        f"first {prefix} arrays re-chunked at {chunk}: failures_per_array",
        again.failures_per_array == result.failures_per_array[:prefix],
        f"{sum(again.failures_per_array)} failures",
    )
    yield (
        f"first {prefix} arrays re-chunked at {chunk}: repairs_per_array",
        again.repairs_per_array == result.repairs_per_array[:prefix],
        f"{sum(again.repairs_per_array)} repairs",
    )


def _reliability_checks(scenario, result, rng):
    yield (
        "losses == len(loss_times) <= trials",
        result.losses == len(result.loss_times) <= result.trials,
        f"{result.losses} losses, {result.trials} trials",
    )
    event = run(dataclasses.replace(scenario, mc_kernel="event"))
    lo, hi = result.prob_loss_interval(AGREEMENT_Z)
    elo, ehi = event.prob_loss_interval(AGREEMENT_Z)
    yield (
        "event kernel agrees within the Wilson intervals",
        lo <= ehi and elo <= hi,
        f"vectorized [{lo:.5f}, {hi:.5f}] event [{elo:.5f}, {ehi:.5f}]",
    )


_CHECKS = {
    "serve": _serve_checks,
    "fleet": _fleet_checks,
    "reliability": _reliability_checks,
}


def check_result(scenario, result):
    """Run the output checks for *result*; returns ``[(name, ok, detail)]``.

    The checks that re-run part of the workload pick their trials or
    array prefix from the scenario's seed, so a fixed seed checks the
    same slice every time.
    """
    rng = random.Random(scenario.seed)
    outcomes = []
    checks = _CHECKS[scenario.kind](scenario, result, rng)
    while True:
        try:
            name, ok, detail = next(checks)
        except StopIteration:
            break
        except Exception as exc:  # a check that raises has failed
            traceback.print_exc()
            outcomes.append(("check raised", False, repr(exc)))
            break
        outcomes.append((name, bool(ok), detail))
    return outcomes
