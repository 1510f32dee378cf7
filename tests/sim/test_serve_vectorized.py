"""The vectorized serve kernel: bit-identity, replay, kernel wiring.

Mirror of ``tests/sim/test_lifecycle_vectorized.py`` for the serving
simulator: both serve kernels read one sampling plane, so the kernel
flag (and the job count, and the throttle) may change wall clock only —
never a bit of :class:`ServeResult` or its merged telemetry.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.errors import SimulationError
from repro.obs.prof import PhaseProfiler, use_profiler
from repro.obs.telemetry import Telemetry
from repro.sim.parallel import simulate_serve_parallel
from repro.sim.serve import (
    SERVE_KERNELS,
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
    build_serve_tables,
    merge_serve_results,
    serve_batch_supported,
    serve_kernel,
    simulate_serve,
    simulate_serve_vectorized,
)
from repro.workloads.arrivals import ClosedLoop, OpenLoop
from repro.workloads.generators import WorkloadSpec

WORKLOADS = [
    WorkloadSpec(kind="uniform", n_requests=120),
    WorkloadSpec(kind="zipf", n_requests=120, skew=1.2, write_fraction=0.3),
    WorkloadSpec(kind="sequential", n_requests=120),
]

THROTTLES = {
    "none": lambda: None,
    "fixed": lambda: FixedRateThrottle(250.0),
    "idle": lambda: IdleSlotThrottle(),
    "adaptive": lambda: AdaptiveThrottle(target_p99_ms=15.0, window=40),
}


class TestKernelBitIdentity:
    """Both kernels consume one sampling plane: results are identical."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("failed", [(), (0,)])
    def test_single_trial_identity(self, fano_layout, workload, failed):
        kwargs = dict(
            workload=workload, failed_disks=failed,
            arrival=OpenLoop(400.0), seed=7,
        )
        event = simulate_serve(fano_layout, kernel="event", **kwargs)
        vec = simulate_serve(fano_layout, kernel="vectorized", **kwargs)
        assert event.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("name", ["fixed", "idle", "adaptive"])
    def test_throttled_replay_identity(self, fano_layout, name):
        """Rebuild-injecting configs replay the exact event walk.

        A fresh throttle instance per run: policies carry mutable state
        (rate traces, latency windows), which must not leak across runs.
        """
        kwargs = dict(
            workload=WorkloadSpec(n_requests=150),
            failed_disks=(0,), arrival=OpenLoop(300.0), seed=11,
        )
        event = simulate_serve(
            fano_layout, throttle=THROTTLES[name](), kernel="event", **kwargs
        )
        vec = simulate_serve(
            fano_layout, throttle=THROTTLES[name](), kernel="vectorized",
            **kwargs
        )
        assert event.rebuild_ops_done > 0
        assert event.to_dict() == vec.to_dict()

    def test_closed_loop_replay_identity(self, fano_layout):
        kwargs = dict(
            workload=WorkloadSpec(n_requests=100),
            arrival=ClosedLoop(8, think_s=0.002), seed=3,
        )
        event = simulate_serve(fano_layout, kernel="event", **kwargs)
        vec = simulate_serve(fano_layout, kernel="vectorized", **kwargs)
        assert event.to_dict() == vec.to_dict()

    def test_batched_trials_equal_merged_singles(self, fano_layout):
        from repro.sim.columnar import derive_chunk_seed

        batch = simulate_serve_vectorized(
            fano_layout, WorkloadSpec(n_requests=80), failed_disks=(0,),
            arrival=OpenLoop(500.0), trials=7, seed=21,
        )
        singles = merge_serve_results([
            simulate_serve(
                fano_layout, WorkloadSpec(n_requests=80), failed_disks=(0,),
                arrival=OpenLoop(500.0), seed=derive_chunk_seed(21, t),
                kernel="event",
            )
            for t in range(7)
        ])
        assert batch.to_dict() == singles.to_dict()

    def test_prebuilt_tables_change_nothing(self, fano_layout):
        tables = build_serve_tables(fano_layout, failed_disks=(0,))
        plain = simulate_serve_vectorized(
            fano_layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
            trials=4, seed=2,
        )
        shared = simulate_serve_vectorized(
            fano_layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
            trials=4, seed=2, tables=tables,
        )
        assert plain.to_dict() == shared.to_dict()


class TestParallelKernelContract:
    @pytest.mark.parametrize("throttle_name", ["none", "adaptive"])
    def test_kernel_and_jobs_never_change_the_result(
        self, fano_layout, throttle_name
    ):
        results = [
            simulate_serve_parallel(
                fano_layout, WorkloadSpec(n_requests=100),
                failed_disks=(0,), arrival=OpenLoop(400.0),
                throttle=THROTTLES[throttle_name](),
                trials=9, kernel=kernel, seed=13, jobs=jobs,
            ).to_dict()
            for kernel in ("event", "vectorized", "auto")
            for jobs in (1, 2, 4)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_chunking_never_changes_the_result(self, fano_layout):
        results = [
            simulate_serve_parallel(
                fano_layout, WorkloadSpec(n_requests=80),
                trials=10, chunk_trials=chunk, kernel="vectorized",
                seed=5, jobs=2,
            ).to_dict()
            for chunk in (1, 3, 16, None)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_unknown_kernel_is_rejected_up_front(self, fano_layout):
        with pytest.raises(SimulationError):
            simulate_serve_parallel(
                fano_layout, WorkloadSpec(n_requests=10), trials=2,
                kernel="warp",
            )


class TestTelemetryInvariance:
    @pytest.mark.parametrize("throttle_name", ["none", "fixed"])
    def test_metrics_and_events_identical_across_kernels(
        self, fano_layout, throttle_name
    ):
        captures = {}
        for kernel in ("event", "vectorized"):
            tel = Telemetry.collecting()
            result = simulate_serve_parallel(
                fano_layout, WorkloadSpec(n_requests=60),
                failed_disks=(0,), arrival=OpenLoop(300.0),
                throttle=THROTTLES[throttle_name](),
                trials=6, kernel=kernel, seed=4, telemetry=tel,
            )
            captures[kernel] = (result.to_dict(), tel)
        ev_result, ev_tel = captures["event"]
        vec_result, vec_tel = captures["vectorized"]
        assert ev_result == vec_result
        assert ev_tel.metrics.counters() == vec_tel.metrics.counters()
        ev_hists = {k: h.to_dict() for k, h in ev_tel.metrics.histograms()}
        vec_hists = {k: h.to_dict() for k, h in vec_tel.metrics.histograms()}
        assert ev_hists == vec_hists
        assert ev_tel.events.records == vec_tel.events.records
        assert ev_tel.events.records, "telemetry captured no events"


class TestKernelResolver:
    def test_names(self):
        assert SERVE_KERNELS == ("auto", "vectorized", "event")

    def test_auto_prefers_vectorized_when_numpy_present(self):
        assert serve_kernel("auto") == "vectorized"
        assert serve_kernel("vectorized") == "vectorized"
        assert serve_kernel("event") == "event"

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError):
            serve_kernel("fancy")


class TestBatchSupport:
    def test_open_loop_sweeps_when_nothing_decides(self, fano_layout):
        healthy = build_serve_tables(fano_layout, failed_disks=())
        degraded = build_serve_tables(fano_layout, failed_disks=(0,))
        assert serve_batch_supported(OpenLoop(100.0), None, healthy)
        # Degraded reads alone don't force replay — only rebuild traffic
        # (a throttle with pending ops) or adaptive decisions do.
        assert serve_batch_supported(OpenLoop(100.0), None, degraded)
        # A throttle over a healthy array has no ops to inject.
        assert serve_batch_supported(
            OpenLoop(100.0), FixedRateThrottle(100.0), healthy
        )

    def test_rebuild_adaptive_and_closed_loop_replay(self, fano_layout):
        degraded = build_serve_tables(fano_layout, failed_disks=(0,))
        assert not serve_batch_supported(
            OpenLoop(100.0), FixedRateThrottle(100.0), degraded
        )
        assert not serve_batch_supported(
            OpenLoop(100.0), AdaptiveThrottle(), degraded
        )
        assert not serve_batch_supported(ClosedLoop(4), None, degraded)


class TestProfilerSpans:
    def test_sweep_path_bills_sample_and_sweep(self, fano_layout):
        prof = PhaseProfiler()
        with use_profiler(prof):
            simulate_serve_vectorized(
                fano_layout, WorkloadSpec(n_requests=40), trials=3, seed=1
            )
        assert "sample" in prof.phases
        assert "sweep" in prof.phases
        assert "replay" not in prof.phases
        assert prof.counters["serve.trials"] == 3

    def test_replay_path_bills_replay(self, fano_layout):
        prof = PhaseProfiler()
        with use_profiler(prof):
            simulate_serve_vectorized(
                fano_layout, WorkloadSpec(n_requests=40), failed_disks=(0,),
                throttle=AdaptiveThrottle(target_p99_ms=15.0),
                trials=3, seed=1,
            )
        assert "sample" in prof.phases
        assert "replay" in prof.phases
        assert "merge" in prof.phases


# ---------------------------------------------------------------------------
# Golden serve digests: the sampler and both kernels, pinned bit for bit.
#
# The kernel-parity suites above compare the two kernels with each other,
# and both read the same sampled trace — so a change to the sampler that
# moved a single float would pass them. These digests were captured from
# the reference implementation; any change to the sampling plane, the
# sweep, the event walk or the result summary shows up here.

GOLDEN_KINDS = ("uniform", "zipf", "sequential")
GOLDEN_WRITE_FRACTIONS = (0.0, 0.3, 1.0)
GOLDEN_FAULTS = {"healthy": (), "f0": (0,), "f0f1": (0, 1)}
GOLDEN_SCHEMES = ("oi", "raid6")


def _golden_cases():
    """Case id -> simulate_serve_parallel keyword arguments (minus kernel).

    Every workload kind × write fraction × fault pattern runs open-loop
    with no throttle (the sweep path); a uniform 30%-write workload then
    adds closed-loop arrivals and an adaptive multi-batch rebuild (the
    replay path) on each fault pattern.
    """
    cases = {}
    for scheme_name in GOLDEN_SCHEMES:
        for kind in GOLDEN_KINDS:
            for wf in GOLDEN_WRITE_FRACTIONS:
                for fault_id, faults in GOLDEN_FAULTS.items():
                    cases[f"{scheme_name}-{kind}-w{wf}-{fault_id}-open"] = dict(
                        scheme=scheme_name, kind=kind, write_fraction=wf,
                        faults=faults, closed=False, adaptive=False,
                    )
        for fault_id, faults in GOLDEN_FAULTS.items():
            for closed, adaptive in ((True, False), (False, True),
                                     (True, True)):
                arrival_id = "closed" if closed else "open"
                throttle_id = "-adaptive" if adaptive else ""
                cases[f"{scheme_name}-uniform-w0.3-{fault_id}-"
                      f"{arrival_id}{throttle_id}"] = dict(
                    scheme=scheme_name, kind="uniform", write_fraction=0.3,
                    faults=faults, closed=closed, adaptive=adaptive,
                )
    return cases


GOLDEN_CASES = _golden_cases()


def _golden_run(case, kernel):
    from repro.schemes import build_scheme_layout

    layout = build_scheme_layout(case["scheme"])
    spec = WorkloadSpec(
        kind=case["kind"], n_requests=90, skew=1.1,
        write_fraction=case["write_fraction"], start=100,
    )
    arrival = ClosedLoop(6, think_s=0.001) if case["closed"] else OpenLoop(
        450.0
    )
    throttle = (
        AdaptiveThrottle(target_p99_ms=12.0, window=25)
        if case["adaptive"] else None
    )
    return simulate_serve_parallel(
        layout, spec, failed_disks=case["faults"], arrival=arrival,
        throttle=throttle, rebuild_batches=3 if case["adaptive"] else 1,
        trials=3, kernel=kernel, seed=29,
    )


def golden_serve_digests(case_id, kernel="vectorized"):
    """``(result digest, summary digest)`` of one golden case."""
    from repro.obs.ledger import result_digest

    result = _golden_run(GOLDEN_CASES[case_id], kernel)
    return result_digest(result.to_dict()), result_digest(result.summary())


GOLDEN_SERVE = {
    "oi-sequential-w0.0-f0-open": ('7e21155ed8396676', '656ff505b82ef2b5'),
    "oi-sequential-w0.0-f0f1-open": ('a716e94d6085f72e', '1db6f887f72311f7'),
    "oi-sequential-w0.0-healthy-open": ('99385739bd1a1df0', 'cb9bce7e6241d34f'),
    "oi-sequential-w0.3-f0-open": ('7e21155ed8396676', '656ff505b82ef2b5'),
    "oi-sequential-w0.3-f0f1-open": ('a716e94d6085f72e', '1db6f887f72311f7'),
    "oi-sequential-w0.3-healthy-open": ('99385739bd1a1df0', 'cb9bce7e6241d34f'),
    "oi-sequential-w1.0-f0-open": ('69379558ea950b93', '8087dc9ec8ee2e93'),
    "oi-sequential-w1.0-f0f1-open": ('a929214aea37932f', '2ef67f12e25d6ad0'),
    "oi-sequential-w1.0-healthy-open": ('31522d2efe94e44a', 'bfb813f18ada7741'),
    "oi-uniform-w0.0-f0-open": ('6fa2492eb22717b4', 'a43ecc1c8a327035'),
    "oi-uniform-w0.0-f0f1-open": ('c42bf899d5217b71', '07e7d20113220f5b'),
    "oi-uniform-w0.0-healthy-open": ('adad7f98f6eb905a', '6ab26e8b93542db9'),
    "oi-uniform-w0.3-f0-closed": ('3205bc83f7085db6', '0b5ee5d3a40741ab'),
    "oi-uniform-w0.3-f0-closed-adaptive": ('c134fa77ec94ffff', '822c7d67debda021'),
    "oi-uniform-w0.3-f0-open": ('49633aaad863d6a4', '7776bcc2552020fc'),
    "oi-uniform-w0.3-f0-open-adaptive": ('17393eab6f93399e', 'be103c4363391ce8'),
    "oi-uniform-w0.3-f0f1-closed": ('17143b1011cc9732', 'c434e85daf0356fb'),
    "oi-uniform-w0.3-f0f1-closed-adaptive": ('f8d42ca8f0402c3b', '5203487a125fa604'),
    "oi-uniform-w0.3-f0f1-open": ('2e6347ebf46127e6', '01f736856e301dd3'),
    "oi-uniform-w0.3-f0f1-open-adaptive": ('fe88c5c679d4f295', '54ca726c40eeb6db'),
    "oi-uniform-w0.3-healthy-closed": ('e7797378461f6216', '9847028632fde45f'),
    "oi-uniform-w0.3-healthy-closed-adaptive": ('e7797378461f6216', '9847028632fde45f'),
    "oi-uniform-w0.3-healthy-open": ('8457cab5ac06a608', '8e67a213d6280ea6'),
    "oi-uniform-w0.3-healthy-open-adaptive": ('8457cab5ac06a608', '8e67a213d6280ea6'),
    "oi-uniform-w1.0-f0-open": ('9cfa488646b632f2', 'c2f7afbbc75e476e'),
    "oi-uniform-w1.0-f0f1-open": ('0b76671df5496248', '44e4c6909d06c392'),
    "oi-uniform-w1.0-healthy-open": ('dba51dda189ac944', '91df416694d20e0e'),
    "oi-zipf-w0.0-f0-open": ('3c9b5f7794e62f66', '16fef375837bcba3'),
    "oi-zipf-w0.0-f0f1-open": ('506eecf82ba8dc1f', 'c165d91c40ba063f'),
    "oi-zipf-w0.0-healthy-open": ('2f68cc52fbeced42', '0c5697e41cea51c5'),
    "oi-zipf-w0.3-f0-open": ('78aa6f8768ee7d71', '2c6b2a1c05688cfd'),
    "oi-zipf-w0.3-f0f1-open": ('141a6801cf28b411', 'b1e2ace589d0540f'),
    "oi-zipf-w0.3-healthy-open": ('3722b9e80e8e75bc', 'd495fc29f8c4d120'),
    "oi-zipf-w1.0-f0-open": ('5e2816dcfb1462c3', '6e1b4a25c63842e2'),
    "oi-zipf-w1.0-f0f1-open": ('93b1c36c7f39b369', '8316bc3138a3b439'),
    "oi-zipf-w1.0-healthy-open": ('165081f8008dfc4e', 'bb6929e2ea331a4c'),
    "raid6-sequential-w0.0-f0-open": ('6db51ce809f6a885', '31d175128c41b5d7'),
    "raid6-sequential-w0.0-f0f1-open": ('165aaaf66b0ba6c4', 'f982c958f7dcfb59'),
    "raid6-sequential-w0.0-healthy-open": ('8519db2498298de6', '0e62fe5695d04d8b'),
    "raid6-sequential-w0.3-f0-open": ('6db51ce809f6a885', '31d175128c41b5d7'),
    "raid6-sequential-w0.3-f0f1-open": ('165aaaf66b0ba6c4', 'f982c958f7dcfb59'),
    "raid6-sequential-w0.3-healthy-open": ('8519db2498298de6', '0e62fe5695d04d8b'),
    "raid6-sequential-w1.0-f0-open": ('2d81d19d8714144e', '4a9e5e8d0f7924c8'),
    "raid6-sequential-w1.0-f0f1-open": ('ebf2933250bebc1a', 'f4bea4eb3a1db1fc'),
    "raid6-sequential-w1.0-healthy-open": ('927abe0f54f5da38', 'dbe55df0695ee2ed'),
    "raid6-uniform-w0.0-f0-open": ('cab293cbd157a1cf', '892e2501c31d89b5'),
    "raid6-uniform-w0.0-f0f1-open": ('31c151504dc1ceba', '233761e6e162663e'),
    "raid6-uniform-w0.0-healthy-open": ('ff49fa78700bda47', '41debc7e52f08072'),
    "raid6-uniform-w0.3-f0-closed": ('b82ac8ef99057f9f', '94649e292c5f3abb'),
    "raid6-uniform-w0.3-f0-closed-adaptive": ('c6aa3e6b8619ed9e', '0f4c8d98f7cef831'),
    "raid6-uniform-w0.3-f0-open": ('b54a55047675784c', 'bd7d4356fc5bb937'),
    "raid6-uniform-w0.3-f0-open-adaptive": ('6530effe76a81a66', 'a6aba66de2bd982b'),
    "raid6-uniform-w0.3-f0f1-closed": ('45c59ffeeaf742d6', 'ad9eb5164143d70b'),
    "raid6-uniform-w0.3-f0f1-closed-adaptive": ('d61bf9aad591f6d2', '50f2f69d5f8fb9eb'),
    "raid6-uniform-w0.3-f0f1-open": ('133894f10b7d2609', '218ca3e9215299b3'),
    "raid6-uniform-w0.3-f0f1-open-adaptive": ('e14eadaf42505cbd', '50ff1f8a34c30a5a'),
    "raid6-uniform-w0.3-healthy-closed": ('3567968ecfa08a30', '79d2fafbd6e3dafa'),
    "raid6-uniform-w0.3-healthy-closed-adaptive": ('3567968ecfa08a30', '79d2fafbd6e3dafa'),
    "raid6-uniform-w0.3-healthy-open": ('f04dc938171ab42f', '9a53b8f3b474ccf7'),
    "raid6-uniform-w0.3-healthy-open-adaptive": ('f04dc938171ab42f', '9a53b8f3b474ccf7'),
    "raid6-uniform-w1.0-f0-open": ('579173e567254e51', '0a1dd4c88ff6f2f3'),
    "raid6-uniform-w1.0-f0f1-open": ('957e3765c39a9e24', '8a1eedb709eb6879'),
    "raid6-uniform-w1.0-healthy-open": ('2c206b2091aa504f', 'af9502aebcd950f4'),
    "raid6-zipf-w0.0-f0-open": ('30504dd337d815d3', '869514a8bd0b2d0c'),
    "raid6-zipf-w0.0-f0f1-open": ('57664470ebbbb36f', '21943a0d5f5dc447'),
    "raid6-zipf-w0.0-healthy-open": ('f8e5708e3b62f4c5', '1ddba6f86567b183'),
    "raid6-zipf-w0.3-f0-open": ('10f87000f9cefb38', '149cc4c3deb7b1b9'),
    "raid6-zipf-w0.3-f0f1-open": ('c1e0f5c0e297385c', 'eeaf0dabbd57e7c1'),
    "raid6-zipf-w0.3-healthy-open": ('4718a0861eaa79da', 'a89c4b40b2fe962c'),
    "raid6-zipf-w1.0-f0-open": ('e76df9f7e75f1581', 'dfb9245c575a394d'),
    "raid6-zipf-w1.0-f0f1-open": ('0cf62f537a0bfa3c', 'a575c16a85f996bd'),
    "raid6-zipf-w1.0-healthy-open": ('dc05007e0e998016', '5bb49b4a40e08314'),
}


class TestGoldenServeDigests:
    """Sampler + kernels pinned across workloads, arrivals, faults, throttles."""

    def test_every_case_is_pinned(self):
        assert sorted(GOLDEN_SERVE) == sorted(GOLDEN_CASES)

    @pytest.mark.parametrize("kernel", ["vectorized", "event"])
    @pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
    def test_matches_golden_digest(self, case_id, kernel):
        assert golden_serve_digests(case_id, kernel) == GOLDEN_SERVE[case_id]
