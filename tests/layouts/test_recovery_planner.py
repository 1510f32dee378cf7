"""The generic recovery planner: peeling, plan validity, offloading."""

import hashlib
import itertools

import pytest

from repro.errors import DataLossError
from repro.layouts import Raid5Layout, Raid50Layout
from repro.layouts.recovery import (
    is_recoverable,
    lost_cells,
    plan_recovery,
    survivable_fraction,
)
from repro.schemes import build_scheme_layout, scheme_names


def validate_plan(layout, plan):
    """A plan must recover every lost cell, in dependency order, reading
    only cells that are available at each step."""
    lost = lost_cells(layout, plan.failed_disks)
    recovered = set()
    for step in plan.steps:
        stripe = layout.stripes[step.stripe_id]
        stripe_cells = set(stripe.cells())
        for target in step.targets:
            assert target in lost and target not in recovered
            assert target in stripe_cells
        assert len(step.targets) <= stripe.tolerance
        for source in step.sources:
            assert source.cell not in lost or source.cell in recovered
            # Direct sources read the cell itself; surrogates read only
            # online cells.
            for read in source.reads:
                assert read[0] not in plan.failed_disks
        for reuse in step.reuses:
            assert reuse in recovered
        # Sources + reuses supply exactly the width - tolerance values an
        # MDS decode needs, all drawn from non-target stripe cells.
        provided = {s.cell for s in step.sources} | set(step.reuses)
        assert provided <= stripe_cells - set(step.targets)
        assert len(provided) == stripe.width - stripe.tolerance
        recovered.update(step.targets)
    assert recovered == lost


class TestPeeling:
    def test_no_failures_is_recoverable(self):
        assert is_recoverable(Raid5Layout(4), [])

    def test_unknown_disk_rejected(self):
        with pytest.raises(ValueError):
            is_recoverable(Raid5Layout(4), [9])

    def test_empty_plan_for_no_failures(self):
        plan = plan_recovery(Raid5Layout(4), [])
        assert plan.steps == []
        assert plan.total_read_units == 0

    def test_unrecoverable_raises_data_loss(self):
        with pytest.raises(DataLossError):
            plan_recovery(Raid5Layout(4), [0, 1])

    def test_accepts_any_iterable(self, fano_layout):
        as_list = is_recoverable(fano_layout, [0, 1, 9])
        as_set = is_recoverable(fano_layout, {9, 0, 1})
        as_gen = is_recoverable(fano_layout, (d for d in (1, 9, 0)))
        assert as_list == as_set == as_gen is True

    def test_indexed_peeler_matches_rescan_reference(self, fano_layout):
        """The work-queue peeler agrees with the classic rescan loop."""
        import itertools
        import random

        def reference(layout, failed):
            lost = lost_cells(layout, failed)
            if not lost:
                return True
            pending = set(range(len(layout.stripes)))
            progress = True
            while lost and progress:
                progress = False
                for sid in sorted(pending):
                    stripe = layout.stripes[sid]
                    in_stripe = [c for c in stripe.cells() if c in lost]
                    if 0 < len(in_stripe) <= stripe.tolerance:
                        lost.difference_update(in_stripe)
                        pending.discard(sid)
                        progress = True
            return not lost

        rng = random.Random(0)
        patterns = list(itertools.combinations(range(21), 4))
        for pattern in rng.sample(patterns, 120):
            assert is_recoverable(fano_layout, pattern) == reference(
                fano_layout, pattern
            )
        for size in (5, 6, 7):
            for _ in range(40):
                pattern = tuple(rng.sample(range(21), size))
                assert is_recoverable(fano_layout, pattern) == reference(
                    fano_layout, pattern
                )

    def test_peeling_index_is_cached(self, fano_layout):
        assert fano_layout.peeling_index() is fano_layout.peeling_index()
        index = fano_layout.peeling_index()
        assert len(index.stripe_cells) == len(fano_layout.stripes)
        for stripe in fano_layout.stripes:
            assert index.stripe_cells[stripe.stripe_id] == stripe.cells()
            assert index.stripe_tolerance[stripe.stripe_id] == stripe.tolerance


class TestPlanValidity:
    @pytest.mark.parametrize("failed", [[0], [3], [0, 4], [2, 5, 8]])
    def test_raid50_plans_are_valid(self, failed):
        layout = Raid50Layout(3, 3)
        if not is_recoverable(layout, failed):
            pytest.skip("pattern not recoverable for this baseline")
        plan = plan_recovery(layout, failed)
        validate_plan(layout, plan)

    def test_oi_plans_are_valid(self, fano_layout):
        for failed in ([0], [0, 1], [0, 1, 2], [0, 3, 10], [4, 9, 20]):
            plan = plan_recovery(fano_layout, failed)
            validate_plan(fano_layout, plan)

    def test_plan_is_deterministic(self, fano_layout):
        a = plan_recovery(fano_layout, [2, 7])
        b = plan_recovery(fano_layout, [2, 7])
        assert [(s.stripe_id, s.targets) for s in a.steps] == [
            (s.stripe_id, s.targets) for s in b.steps
        ]

    def test_duplicate_failed_disks_coalesced(self, fano_layout):
        a = plan_recovery(fano_layout, [3, 3, 3])
        assert a.failed_disks == (3,)


class TestOffloading:
    def test_offload_reduces_peak_load(self, fano_layout):
        base = plan_recovery(fano_layout, [0], offload=False)
        tuned = plan_recovery(fano_layout, [0], offload=True)
        assert tuned.max_read_units < base.max_read_units

    def test_offload_never_loses_correctness(self, fano_layout):
        plan = plan_recovery(fano_layout, [0], offload=True)
        validate_plan(fano_layout, plan)

    def test_offload_is_noop_for_single_stripe_layouts(self):
        layout = Raid5Layout(5)
        a = plan_recovery(layout, [0], offload=False)
        b = plan_recovery(layout, [0], offload=True)
        assert a.max_read_units == b.max_read_units

    def test_surrogate_reads_increase_total_but_cut_peak(self, fano_layout):
        base = plan_recovery(fano_layout, [0], offload=False)
        tuned = plan_recovery(fano_layout, [0], offload=True)
        assert tuned.total_read_units >= base.total_read_units
        assert tuned.max_read_units < base.max_read_units

    def test_balance_flag_changes_repair_choice(self, fano_layout):
        greedy = plan_recovery(fano_layout, [0], balance=True, offload=False)
        naive = plan_recovery(fano_layout, [0], balance=False, offload=False)
        assert greedy.max_read_units <= naive.max_read_units


class TestSourceSelection:
    def test_mds_repair_reads_only_what_it_needs(self):
        from repro.layouts import FlatMDSLayout

        layout = FlatMDSLayout(9, parities=3)
        plan = plan_recovery(layout, [0])
        for step in plan.steps:
            stripe = layout.stripes[step.stripe_id]
            assert len(step.sources) + len(step.reuses) == (
                stripe.width - stripe.tolerance
            )

    def test_sources_prefer_least_loaded_disks(self):
        from repro.layouts import FlatMDSLayout

        layout = FlatMDSLayout(9, parities=3)
        plan = plan_recovery(layout, [0])
        loads = plan.read_units_per_disk()
        # With 9 stripes each skipping 2 of 8 survivors, balanced choice
        # keeps the spread within one unit.
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_lost_override_plans_partial_disk(self, fano_layout):
        lost = {(0, 0), (0, 1), (5, 3)}
        plan = plan_recovery(fano_layout, [0, 5], lost_override=lost)
        assert set(plan.recovered_cells) == lost
        # Reads may come from the "failed" disks' still-healthy cells:
        # lost_override semantics say only the listed cells are gone.
        assert plan.total_write_units == 3


class TestSurvivableFraction:
    def test_raid5_fractions(self):
        layout = Raid5Layout(5)
        assert survivable_fraction(layout, 1) == 1.0
        assert survivable_fraction(layout, 2) == 0.0

    def test_explicit_sample(self):
        layout = Raid50Layout(2, 3)
        fraction = survivable_fraction(layout, 2, sample=[(0, 3), (0, 1)])
        assert fraction == 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            survivable_fraction(Raid5Layout(4), 1, sample=[])


#: Per registry scheme: (sha256 prefix, plans, DataLossError patterns)
#: over :func:`golden_patterns` x the four ``balance``/``offload`` flag
#: pairs. The digest covers every step's stripe, targets, sources
#: (cell, via, reads), reuses and order, plus each pattern that raised
#: ``DataLossError``. Any change to a plan the planner emits moves it.
GOLDEN_PLANS = {
    "hierarchical": ("2844fbda1dc094c8", 564, 0),
    "lrc": ("1cb3aa96c8843b37", 392, 172),
    "mirror": ("2566c3bdd3f96ca0", 496, 68),
    "oi": ("cd6f0a1ee172da09", 6244, 0),
    "raid5": ("dc811b3734f96ac2", 84, 480),
    "raid50": ("9b8604daf3340496", 476, 88),
    "raid6": ("2b0ffe071527e729", 324, 240),
    "rep3": ("52b042f86075053b", 560, 4),
    "rs": ("e878d037cfc2c190", 564, 0),
    "xorbas": ("77c11694740516b6", 564, 0),
}

#: The same over :func:`partial_loss_patterns`, planned through
#: ``lost_override`` (the distributed-sparing path).
GOLDEN_PARTIAL_PLANS = {
    "hierarchical": ("2793ea37a8565c81", 160, 0),
    "lrc": ("60d1a9695546f43f", 152, 8),
    "mirror": ("e54e0ef910576a86", 152, 8),
    "oi": ("c06a262fe8a713fe", 136, 24),
    "raid5": ("aeee91a95a28eb47", 40, 120),
    "raid50": ("7da8493bc58182d1", 124, 36),
    "raid6": ("da054beead6608c1", 80, 80),
    "rep3": ("df4f8e62c5bfe817", 140, 20),
    "rs": ("4faa8a64c62bb5d4", 112, 48),
    "xorbas": ("ce6208da34d45d68", 112, 48),
}

#: Patterns per failure count for every scheme but ``oi``, which is
#: planned exhaustively.
GOLDEN_CAP = 60

GOLDEN_FLAGS = ((True, True), (True, False), (False, True), (False, False))


def golden_patterns(name, n_disks):
    """1-3 failure patterns: all of them for ``oi``; for the others an
    evenly strided fixed subset of ``GOLDEN_CAP`` per failure count."""
    patterns = []
    for k in (1, 2, 3):
        combos = list(itertools.combinations(range(n_disks), k))
        if name != "oi" and len(combos) > GOLDEN_CAP:
            combos = [
                combos[i * len(combos) // GOLDEN_CAP]
                for i in range(GOLDEN_CAP)
            ]
        patterns.extend(combos)
    return patterns


def partial_loss_patterns(layout, count=40):
    """Fixed lost-*cell* sets: every ``step``-th cell of the layout cycle
    from an offset, capped at up to three disks' worth of cells."""
    cells = [
        (disk, addr)
        for disk in range(layout.n_disks)
        for addr in range(layout.units_per_disk)
    ]
    patterns = []
    for i in range(count):
        step = 2 + i % 11
        size = 1 + (i * 7) % (3 * layout.units_per_disk)
        patterns.append(frozenset(cells[i % step::step][:size]))
    return patterns


def plan_digest(name, partial=False):
    """(digest, plans, loss patterns) of *name*'s golden plan set: whole-
    disk patterns, or with *partial* the ``lost_override`` cell sets."""
    layout = build_scheme_layout(name)
    digest = hashlib.sha256()
    plans = losses = 0
    if partial:
        patterns = [
            (tuple(sorted({disk for disk, _addr in lost})), lost)
            for lost in partial_loss_patterns(layout)
        ]
    else:
        patterns = [
            (pattern, None)
            for pattern in golden_patterns(name, layout.n_disks)
        ]
    for balance, offload in GOLDEN_FLAGS:
        for pattern, lost in patterns:
            try:
                plan = plan_recovery(
                    layout, pattern, balance=balance, offload=offload,
                    lost_override=lost,
                )
            except DataLossError:
                digest.update(repr(("loss", balance, offload, pattern)).encode())
                losses += 1
                continue
            steps = [
                (
                    step.stripe_id,
                    step.targets,
                    [(src.cell, src.via, src.reads) for src in step.sources],
                    step.reuses,
                )
                for step in plan.steps
            ]
            digest.update(repr((balance, offload)).encode())
            digest.update(repr((plan.failed_disks, steps)).encode())
            plans += 1
    return digest.hexdigest()[:16], plans, losses


class TestGoldenPlans:
    """Every plan of every registry scheme, pinned bit for bit."""

    def test_every_scheme_is_pinned(self):
        assert sorted(GOLDEN_PLANS) == sorted(scheme_names())
        assert sorted(GOLDEN_PARTIAL_PLANS) == sorted(scheme_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_plans_match_golden_digest(self, name):
        assert plan_digest(name) == GOLDEN_PLANS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_PARTIAL_PLANS))
    def test_partial_loss_plans_match_golden_digest(self, name):
        assert plan_digest(name, partial=True) == GOLDEN_PARTIAL_PLANS[name]
