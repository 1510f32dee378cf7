"""Generic recovery planning by iterative peeling, with load balancing.

Works for every :class:`~repro.layouts.base.Layout`: a stripe whose lost
cells number at most its tolerance can repair them from its surviving cells.
Peeling repeats until everything is recovered (plan) or no stripe is
eligible (data loss). The same peeling, stripped of cost accounting, is the
fault-tolerance oracle used by the exhaustive enumeration experiments (E6).

Load balancing happens at two levels, and both are what turns OI-RAID's
geometry into its recovery speedup:

1. **Repair-stripe choice** — a lost OI-RAID outer unit can be repaired by
   its outer stripe or its inner row; the planner picks greedily to keep
   the maximum per-disk read load low.
2. **Value sourcing (surrogate reads)** — any *surviving* value a repair
   needs can either be read directly from its disk or decoded from the
   *other* stripe containing it (reading that stripe's remaining units).
   Offloading hot disks this way is how a failed disk's group peers — the
   only disks that can serve its inner rows directly — shed load onto the
   rest of the array, engaging every surviving spindle.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import DefaultDict, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DataLossError
from repro.layouts.base import (
    Cell,
    DiskPeelingIndex,
    Layout,
    PeelingIndex,
)
from repro.obs.telemetry import ambient


def _check_disks(layout: Layout, disks: Iterable[int]) -> None:
    for disk in disks:
        if not 0 <= disk < layout.n_disks:
            raise ValueError(f"no such disk {disk} in {layout.name}")


def _check_cells(layout: Layout, cells: Iterable[Cell]) -> None:
    for disk, addr in cells:
        if not (
            0 <= disk < layout.n_disks and 0 <= addr < layout.units_per_disk
        ):
            raise ValueError(
                f"no such cell ({disk}, {addr}) in {layout.name}"
            )


def lost_cells(layout: Layout, failed_disks: Iterable[int]) -> Set[Cell]:
    """All cells of the layout cycle residing on the failed disks."""
    failed = set(failed_disks)
    _check_disks(layout, failed)
    return {
        (disk, addr)
        for disk in failed
        for addr in range(layout.units_per_disk)
    }


def _lost_counts(index: PeelingIndex, lost: Set[Cell]) -> Dict[int, int]:
    """Lost-cell count per stripe, restricted to stripes touching *lost*."""
    counts: Dict[int, int] = {}
    for cell in lost:
        for sid in index.cell_stripes[cell]:
            counts[sid] = counts.get(sid, 0) + 1
    return counts


def _peel(layout: Layout, lost: Set[Cell]) -> bool:
    """Run indexed peeling to exhaustion; mutates *lost*, True if emptied.

    Work-queue formulation of the classic rescan loop: per-stripe lost-cell
    counts make eligibility an O(1) check, and repairing a cell enqueues
    only the stripes containing that cell — so total work is linear in the
    number of (lost cell, containing stripe) incidences instead of
    O(passes x stripes).
    """
    index = layout.peeling_index()
    counts = _lost_counts(index, lost)
    tolerance = index.stripe_tolerance
    queue = deque(sid for sid, c in counts.items() if c <= tolerance[sid])
    queued = set(queue)
    while queue:
        sid = queue.popleft()
        queued.discard(sid)
        count = counts.get(sid, 0)
        if count == 0 or count > tolerance[sid]:
            continue  # stale entry: repaired or re-overloaded meanwhile
        for cell in index.stripe_cells[sid]:
            if cell not in lost:
                continue
            lost.discard(cell)
            for other in index.cell_stripes[cell]:
                counts[other] -= 1
                if (
                    other != sid
                    and 0 < counts[other] <= tolerance[other]
                    and other not in queued
                ):
                    queue.append(other)
                    queued.add(other)
    return not lost


def _peel_disks(index: DiskPeelingIndex, failed: Iterable[int]) -> bool:
    """Whole-disk-failure peeling on the integer-id index.

    Exactly :func:`_peel` restricted to losses that are whole disks, which
    lets the setup be table lookups: per-stripe lost counts come from each
    disk's precomputed contribution, and cell membership is a ``bytearray``
    indexed by cell id. This is the Monte-Carlo oracle's inner loop — the
    peel order differs from :func:`_peel` but the outcome cannot (peeling
    is confluent for these layouts; see :func:`is_recoverable`).
    """
    tolerance = index.stripe_tolerance
    counts = [0] * len(tolerance)
    lost = bytearray(index.n_cells)
    ones = b"\x01" * index.units_per_disk
    n_lost = 0
    for disk in failed:
        for sid, contribution in index.disk_stripe_counts[disk]:
            counts[sid] += contribution
    stack = []
    for disk in failed:
        base = disk * index.units_per_disk
        lost[base:base + index.units_per_disk] = ones
        n_lost += index.units_per_disk
        for sid, _contribution in index.disk_stripe_counts[disk]:
            if 0 < counts[sid] <= tolerance[sid]:
                stack.append(sid)
    stripe_cells = index.stripe_cells
    cell_stripes = index.cell_stripes
    while stack:
        sid = stack.pop()
        count = counts[sid]
        if count == 0 or count > tolerance[sid]:
            continue  # stale entry: repaired or re-overloaded meanwhile
        for cell in stripe_cells[sid]:
            if not lost[cell]:
                continue
            lost[cell] = 0
            n_lost -= 1
            for other in cell_stripes[cell]:
                remaining = counts[other] - 1
                counts[other] = remaining
                if other != sid and 0 < remaining <= tolerance[other]:
                    stack.append(other)
    return n_lost == 0


def cells_recoverable(layout: Layout, cells: Iterable[Cell]) -> bool:
    """True if an explicit lost-*cell* set is decodable by peeling.

    The cell-granular twin of :func:`is_recoverable`, for callers whose
    losses are finer than whole disks — latent sector errors discovered
    during a rebuild strand single units, and the lifecycle simulator asks
    whether the stranded unit plus the currently-failed disks' cells are
    jointly decodable.
    """
    lost = set(cells)
    _check_cells(layout, lost)
    if not lost:
        return True
    return _peel(layout, lost)


def is_recoverable(layout: Layout, failed_disks: Iterable[int]) -> bool:
    """True if the failure pattern is decodable by iterative peeling.

    Peeling is exact (not merely sufficient) for the layouts in this
    library: every stripe is MDS on its own cells, stripes share at most
    one cell pairwise, and no cell is parity in two stripes — so any
    decodable pattern is decodable greedily, in any order. *failed_disks*
    may be any iterable of disk ids (set, tuple, generator).
    """
    tel = ambient()
    if tel.enabled:
        tel.count("recovery.oracle_calls")
    failed = set(failed_disks)
    _check_disks(layout, failed)
    if not failed:
        return True
    return _peel_disks(layout.disk_peeling_index(), failed)


@dataclass(frozen=True)
class ValueSource:
    """How one surviving value a repair needs is obtained.

    Attributes:
        cell: the cell whose value is needed.
        via: ``None`` for a direct read of *cell*; otherwise the stripe id
            the value is decoded from.
        reads: the physical cell reads this source costs (``(cell,)`` when
            direct; the surrogate stripe's other cells otherwise).
    """

    cell: Cell
    via: Optional[int]
    reads: Tuple[Cell, ...]


@dataclass(frozen=True)
class RepairStep:
    """Repair *targets* using *stripe_id*.

    ``sources`` are the surviving values consumed (with their read costs);
    ``reuses`` are values produced by earlier steps (no disk reads).
    """

    stripe_id: int
    targets: Tuple[Cell, ...]
    sources: Tuple[ValueSource, ...]
    reuses: Tuple[Cell, ...]

    @property
    def reads(self) -> Tuple[Cell, ...]:
        """All physical reads of this step."""
        return tuple(c for s in self.sources for c in s.reads)


@dataclass
class RecoveryPlan:
    """An ordered, validated repair schedule for a failure pattern."""

    layout_name: str
    failed_disks: Tuple[int, ...]
    steps: List[RepairStep] = field(default_factory=list)

    @property
    def recovered_cells(self) -> List[Cell]:
        return [cell for step in self.steps for cell in step.targets]

    def read_units_per_disk(self) -> Dict[int, int]:
        """Units read from each surviving disk (the E5 load distribution)."""
        loads: Dict[int, int] = {}
        for step in self.steps:
            for disk, _addr in step.reads:
                loads[disk] = loads.get(disk, 0) + 1
        return loads

    @property
    def max_read_units(self) -> int:
        loads = self.read_units_per_disk()
        return max(loads.values()) if loads else 0

    @property
    def total_read_units(self) -> int:
        return sum(len(step.reads) for step in self.steps)

    @property
    def total_write_units(self) -> int:
        return len(self.recovered_cells)


def degraded_read_sources(plan: "RecoveryPlan") -> Dict[Cell, Tuple[int, ...]]:
    """Lost cell -> the sorted disks its repair step reads from.

    The serving simulator routes a degraded read of a lost cell to
    exactly the disks the recovery plan would touch to regenerate it, so
    the foreground fan-out and the rebuild traffic agree on sourcing.
    """
    sources: Dict[Cell, Tuple[int, ...]] = {}
    for step in plan.steps:
        reads = tuple(sorted({c[0] for c in step.reads}))
        for target in step.targets:
            sources[target] = reads
    return sources


def parity_disk_table(layout: Layout) -> Dict[Cell, Tuple[int, ...]]:
    """Cell -> sorted disks holding parity of its containing stripes.

    A read-modify-write of a cell must update every containing stripe's
    parity; this table (home disk excluded) is what the serving
    simulator fans writes out to. Pure function of the layout, so the
    result is memoized on the layout instance; treat it as read-only.
    """
    cached = getattr(layout, "_parity_disk_table", None)
    if cached is not None:
        return cached
    table: Dict[Cell, set] = {}
    for stripe in layout.stripes:
        pdisks = {c[0] for c in stripe.parity_cells()}
        for cell in stripe.cells():
            table.setdefault(cell, set()).update(pdisks - {cell[0]})
    result = {cell: tuple(sorted(disks)) for cell, disks in table.items()}
    layout._parity_disk_table = result
    return result


#: A stripe's cached score: ``(local peak, reads, deps)``.
_Score = Tuple[int, Optional[List[int]], Tuple[Tuple[int, int], ...]]


def _select_sources(
    pool: List[int],
    pool_disks: Tuple[Tuple[int, int], ...],
    n_fresh: int,
    loads: List[int],
    cell_disk: Sequence[int],
) -> _Score:
    """Score the fresh reads a stripe repair would make right now.

    An MDS stripe decodes from any ``width - tolerance`` known values, so
    a stripe with fewer losses than its tolerance can skip some survivors.
    Free values go first (cells already recovered by earlier steps; the
    caller turns those into reuses), then *n_fresh* reads from the
    least-loaded disks, ties by cell: *pool* is the stripe's static
    fresh-read pool (its never-lost cell ids, sorted), so one stable sort
    by current load ranks it. *pool_disks* pairs each pool disk with its
    number of pool cells.

    Returns ``(local peak, reads, deps)``. The local peak is the highest
    load a read disk reaches once the reads land (0 with no reads); *deps*
    pairs each read disk with its number of reads, and the result depends
    only on those disks' loads. Loads only grow while a plan is built, so
    the result stays valid until a dep disk gains load (a busier unchosen
    disk only sinks further in the ranking) or *n_fresh* changes. When
    the repair reads the whole pool the choice is fixed and only its
    order moves with the loads, so *reads* is ``None``: the caller sorts
    the pool if the stripe wins the round.
    """
    if n_fresh <= 0:
        return 0, [], ()
    if n_fresh >= len(pool):
        reads = None
        deps = pool_disks
    else:
        reads = sorted(pool, key=lambda c: loads[cell_disk[c]])
        del reads[n_fresh:]
        bump: Dict[int, int] = {}
        for cell in reads:
            disk = cell_disk[cell]
            bump[disk] = bump.get(disk, 0) + 1
        deps = tuple(bump.items())
    return _peak_after(deps, loads), reads, deps


def _peak_after(deps: Tuple[Tuple[int, int], ...], loads: List[int]) -> int:
    """Highest load among *deps* disks once their reads land (0 if none)."""
    peak = 0
    for disk, extra in deps:
        value = loads[disk] + extra
        if value > peak:
            peak = value
    return peak


def plan_recovery(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool = True,
    offload: bool = True,
    max_offload_rounds: int = 10_000,
    lost_override: Optional[Set[Cell]] = None,
) -> RecoveryPlan:
    """Build a repair schedule, or raise :class:`DataLossError`.

    ``balance`` controls the repair-stripe choice (greedy min-peak vs.
    first-eligible); ``offload`` enables the surrogate-read pass. The E10
    ablation and the baseline comparisons disable these selectively.

    ``lost_override`` plans for an explicit lost-cell set instead of whole
    disks — the distributed-sparing array uses this because relocated
    units make "which cells are lost" diverge from "which disks failed".
    Load accounting then attributes reads to the layout's *home* disks,
    so callers with relocations should treat per-disk loads as approximate.

    Single-disk patterns planned with the default flags are served from
    :meth:`Layout.single_failure_plan` — the per-layout cache alongside
    the peeling indexes — since they dominate planning traffic (rebuild
    clocks, lifecycle repair times, the serve fast path all start from
    one). Each hit returns a fresh :class:`RecoveryPlan` that shares the
    immutable steps, so callers may extend their copy freely.
    """
    failed = tuple(sorted(set(failed_disks)))
    cacheable = (
        len(failed) == 1
        and balance
        and offload
        and max_offload_rounds == 10_000
        and lost_override is None
    )
    tel = ambient()
    with tel.span("plan_recovery", failed=len(failed)):
        if cacheable:
            cached = layout.single_failure_plan(
                failed[0],
                lambda: _plan_recovery_impl(
                    layout, failed, balance, offload, max_offload_rounds,
                    None,
                ),
            )
            plan = RecoveryPlan(
                cached.layout_name, cached.failed_disks, list(cached.steps)
            )
        else:
            plan = _plan_recovery_impl(
                layout, failed, balance, offload, max_offload_rounds,
                lost_override,
            )
    if tel.enabled:
        tel.count("recovery.plans")
        tel.observe("recovery.plan_steps", len(plan.steps))
        tel.observe("recovery.plan_read_units", plan.total_read_units)
    return plan


def _plan_recovery_impl(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool,
    offload: bool,
    max_offload_rounds: int,
    lost_override: Optional[Set[Cell]],
) -> RecoveryPlan:
    failed = tuple(sorted(set(failed_disks)))
    plan = RecoveryPlan(layout.name, failed)
    # The planner runs on the integer cell ids of the disk peeling index:
    # ``was_lost`` / ``lost`` are per-cell flags, and a cell is recovered
    # once it was lost and is no longer. Cells turn back into
    # ``(disk, addr)`` pairs only in the emitted plan.
    index = layout.disk_peeling_index()
    units = index.units_per_disk
    was_lost = bytearray(index.n_cells)
    # Per-stripe lost-cell counts, over the stripes touching a loss.
    counts: Dict[int, int] = {}
    if lost_override is not None:
        all_lost = set(lost_override)
        _check_cells(layout, all_lost)
        for disk, addr in all_lost:
            cell = disk * units + addr
            was_lost[cell] = 1
            for sid in index.cell_stripes[cell]:
                counts[sid] = counts.get(sid, 0) + 1
        n_lost = len(all_lost)
    else:
        _check_disks(layout, failed)
        ones = b"\x01" * units
        for disk in failed:
            was_lost[disk * units:(disk + 1) * units] = ones
            for sid, lost_here in index.disk_stripe_counts[disk]:
                counts[sid] = counts.get(sid, 0) + lost_here
        n_lost = len(failed) * units
    if not n_lost:
        return plan
    lost = bytearray(was_lost)
    stripe_cells = index.stripe_cells
    tolerance = index.stripe_tolerance
    stripe_needed = index.stripe_needed
    cell_stripes = index.cell_stripes
    cell_disk = index.cell_disk
    cell_of = index.cells

    # Incremental eligibility: the counts, maintained as cells are
    # repaired, make "which stripes could repair right now" a set lookup
    # instead of a rescan of every candidate stripe per round. A stripe's
    # reuses are its repaired cells: ``start - counts``.
    start = dict(counts)
    eligible = {sid for sid, c in counts.items() if c <= tolerance[sid]}

    # Static fresh-read pools (never-lost cells) and their per-disk cell
    # counts, built the first time a stripe is scored.
    pools: Dict[int, Tuple[List[int], Tuple[Tuple[int, int], ...]]] = {}
    loads = [0] * layout.n_disks

    # Cached per-stripe scoring: stripe -> (local peak, reads, deps) from
    # _select_sources. A repair in the stripe changes its lost count and
    # reuses, so it is rescored before the next choice (``dirty``). A load
    # gain on one of its dep disks (``watchers`` maps disk -> stripes)
    # can only raise its local peak, so it is just marked ``stale``: the
    # cached score stays a lower bound, and is redone only if the stripe
    # reaches the front of the choice.
    scored: Dict[int, _Score] = {}
    watchers: DefaultDict[int, Set[int]] = defaultdict(set)
    stale: Set[int] = set()
    dirty = set(eligible)

    # With ``balance`` the choice is the argmin over eligible stripes of
    # ``(peak after the step, -lost cells, reads, stripe id)``, where the
    # peak after the step is the running peak or the stripe's local peak,
    # whichever is higher — so a new running peak never forces a rescore.
    # Every stripe whose local peak is at most the running peak ties on
    # the first term; those sit in the heap ``level`` keyed by the rest.
    # The others sit in ``above`` keyed by local peak first, and move to
    # ``level`` as the running peak reaches them. A heap item is live
    # while its entry is still the stripe's cached one (rescoring pushes
    # a fresh item). Without ``balance`` the lowest eligible id wins.
    level: List[tuple] = []
    above: List[tuple] = []

    def score(sid: int) -> _Score:
        static = pools.get(sid)
        if static is None:
            pool = [c for c in stripe_cells[sid] if not was_lost[c]]
            pool.sort()
            per_disk: Dict[int, int] = {}
            for cell in pool:
                disk = cell_disk[cell]
                per_disk[disk] = per_disk.get(disk, 0) + 1
            static = pools[sid] = (pool, tuple(per_disk.items()))
        pool, pool_disks = static
        old = scored.get(sid)
        if old is not None and old[1] is None:
            # Stale, and reads its whole pool: only the local peak moved.
            entry = (_peak_after(old[2], loads), None, old[2])
        else:
            needed = stripe_needed[sid]
            reused = start[sid] - counts[sid]
            entry = _select_sources(
                pool, pool_disks, needed - reused if reused < needed else 0,
                loads, cell_disk,
            )
            if old is None or old[2] != entry[2]:
                if old is not None:
                    for disk, _n in old[2]:
                        watchers[disk].discard(sid)
                for disk, _n in entry[2]:
                    watchers[disk].add(sid)
        scored[sid] = entry
        stale.discard(sid)
        if balance:
            reads = entry[1]
            item = (
                -counts[sid],
                len(pool) if reads is None else len(reads),
                sid,
                entry,
            )
            if entry[0] <= peak:
                heappush(level, item)
            else:
                heappush(above, (entry[0],) + item)
        return entry

    def forget(sid: int) -> None:
        dirty.add(sid)
        entry = scored.pop(sid, None)
        if entry is not None:
            for disk, _n in entry[2]:
                watchers[disk].discard(sid)

    raw_steps: List[
        Tuple[int, Tuple[Cell, ...], Tuple[Cell, ...], Tuple[Cell, ...]]
    ] = []
    peak = 0
    while n_lost:
        if not eligible:
            raise DataLossError(
                f"{layout.name}: failure of disks {list(failed)} is not "
                f"recoverable ({n_lost} cells stranded)"
            )
        if balance:
            for sid in dirty:
                if sid in eligible:
                    score(sid)
            while True:
                while above and above[0][0] <= peak:
                    heappush(level, heappop(above)[1:])
                heap = level if level else above
                item = heap[0]
                best = item[-2]
                entry = item[-1]
                if scored.get(best) is not entry:
                    heappop(heap)
                elif best in stale:
                    if entry[1] is None and _peak_after(
                        entry[2], loads
                    ) <= max(peak, entry[0]):
                        # Reads its whole pool and its peak term did not
                        # move: the key is still exact.
                        stale.discard(best)
                        break
                    heappop(heap)
                    score(best)
                else:
                    break
        else:
            best = min(eligible)
            entry = scored.get(best)
            if entry is None or best in stale:
                entry = score(best)
        dirty.clear()
        reads = entry[1]
        if reads is None:
            reads = pools[best][0]
            if len(reads) > 1:
                reads = sorted(reads, key=lambda c: loads[cell_disk[c]])
        cells = stripe_cells[best]
        repairable = [c for c in cells if lost[c]]
        if start[best] == counts[best]:
            reuse = ()
        else:
            reuse = tuple(map(cell_of.__getitem__, [
                c for c in cells if was_lost[c] and not lost[c]
            ][:stripe_needed[best]]))
        raw_steps.append((
            best,
            tuple(map(cell_of.__getitem__, repairable)),
            tuple(map(cell_of.__getitem__, reads)),
            reuse,
        ))
        for cell in reads:
            disk = cell_disk[cell]
            value = loads[disk] + 1
            loads[disk] = value
            if value > peak:
                peak = value
            stale.update(watchers[disk])
        for cell in repairable:
            lost[cell] = 0
            n_lost -= 1
            for other in cell_stripes[cell]:
                forget(other)
                counts[other] -= 1
                if 0 < counts[other] <= tolerance[other]:
                    eligible.add(other)
                elif counts[other] == 0:
                    eligible.discard(other)

    # Materialize sources (all direct initially).
    sources_per_step: List[List[ValueSource]] = [
        [ValueSource(cell, None, (cell,)) for cell in fresh]
        for _sid, _targets, fresh, _reuse in raw_steps
    ]

    if offload:
        _offload_pass(
            index, layout.n_disks, was_lost, sources_per_step,
            max_offload_rounds,
        )

    for (sid, targets, _fresh, reuse), sources in zip(
        raw_steps, sources_per_step
    ):
        plan.steps.append(RepairStep(sid, targets, tuple(sources), reuse))
    return plan


#: One offload move: the alternative ``(via, reads)`` sourcing, its
#: ``(disk, load change)`` pairs, and its change in total reads.
_Move = Tuple[
    Tuple[Optional[int], Tuple[Cell, ...]], Tuple[Tuple[int, int], ...], int
]


def _offload_pass(
    index: DiskPeelingIndex,
    n_disks: int,
    was_lost: bytearray,
    sources_per_step: List[List[ValueSource]],
    max_rounds: int,
) -> None:
    """Hill-climb value sourcing to minimize the peak per-disk read load.

    Each needed value may be read directly or decoded from another stripe
    containing it whose other cells were never lost; moves are accepted
    only if they strictly improve ``(peak load, number of disks at peak,
    total reads)``. A round tries every alternative of every source that
    reads a peak disk, in (step, source) order, and applies the best; the
    first of equal moves wins.

    Indexed: ``readers`` maps each disk to the sources reading it, so a
    round visits only the sources on peak disks; each ``(cell, via)``
    sourcing's moves and their per-disk deltas are built once; and a
    trial move is scored from the load-histogram buckets its delta
    touches.
    """
    units = index.units_per_disk
    cells = [src.cell for sources in sources_per_step for src in sources]
    # Per source slot, in (step, source) order: its (via, reads).
    slots = [(None, (cell,)) for cell in cells]
    loads = [0] * n_disks
    readers: DefaultDict[int, Set[int]] = defaultdict(set)
    for slot, (disk, _addr) in enumerate(cells):
        loads[disk] += 1
        readers[disk].add(slot)
    total = len(cells)
    # Load-value histogram: value -> disks at that value, zeros dropped.
    # A disk has load exactly when it has readers.
    hist: Dict[int, int] = {}
    for disk in readers:
        value = loads[disk]
        hist[value] = hist.get(value, 0) + 1

    move_cache: Dict[Tuple[Cell, Optional[int]], List[_Move]] = {}

    def moves_from(
        cell: Cell, via: Optional[int], reads: Tuple[Cell, ...]
    ) -> List[_Move]:
        """The moves away from sourcing *cell* via *via* (``None``:
        direct): to a direct read, or to a surrogate stripe none of whose
        other cells was lost."""
        key = (cell, via)
        moves = move_cache.get(key)
        if moves is not None:
            return moves
        moves = move_cache[key] = []
        cid = cell[0] * units + cell[1]
        options = [(None, (cell,))]
        for sid in index.cell_stripes[cid]:
            others = [c for c in index.stripe_cells[sid] if c != cid]
            if not any(was_lost[c] for c in others):
                options.append((sid, tuple([index.cells[c] for c in others])))
        for alt in options:
            if alt[0] == via:
                continue
            delta: Dict[int, int] = {}
            for disk, _a in reads:
                delta[disk] = delta.get(disk, 0) - 1
            for disk, _a in alt[1]:
                delta[disk] = delta.get(disk, 0) + 1
            moves.append((
                alt,
                tuple((d, c) for d, c in delta.items() if c),
                len(alt[1]) - len(reads),
            ))
        return moves

    def drained_score(
        delta: Tuple[Tuple[int, int], ...], tot: int
    ) -> Tuple[int, int, int]:
        """Score of a move that empties the peak bucket."""
        touched: Dict[int, int] = {}
        for disk, change in delta:
            old = loads[disk]
            new = old + change
            if old:
                touched[old] = touched.get(old, 0) - 1
            if new:
                touched[new] = touched.get(new, 0) + 1
        for value in sorted(hist.keys() | touched.keys(), reverse=True):
            at_value = hist.get(value, 0) + touched.get(value, 0)
            if at_value:
                return (value, at_value, tot)
        return (0, 0, 0)

    slot_moves: List[Optional[List[_Move]]] = [None] * len(slots)
    top = max(hist) if hist else 0
    current = (top, hist[top], total) if hist else (0, 0, 0)
    for _ in range(max_rounds):
        peak, at_peak, _total = current
        if peak == 0:
            break
        candidates: Set[int] = set()
        for disk, reading in readers.items():
            if loads[disk] == peak:
                candidates |= reading
        best_move = None
        best_score = current
        for slot in sorted(candidates):
            moves = slot_moves[slot]
            if moves is None:
                moves = slot_moves[slot] = moves_from(cells[slot], *slots[slot])
            for move in moves:
                delta = move[1]
                count = at_peak
                for disk, change in delta:
                    old = loads[disk]
                    new = old + change
                    if new > peak:
                        break  # raises the peak: never an improvement
                    if old == peak:
                        count -= 1
                    elif new == peak:
                        count += 1
                else:
                    if count:
                        trial_score = (peak, count, total + move[2])
                    else:
                        trial_score = drained_score(delta, total + move[2])
                    if trial_score < best_score:
                        best_score = trial_score
                        best_move = (slot, move)
        if best_move is None:
            break
        slot, (alt, delta, change_total) = best_move
        for disk, _addr in slots[slot][1]:
            readers[disk].discard(slot)
        for disk, _addr in alt[1]:
            readers[disk].add(slot)
        slots[slot] = alt
        slot_moves[slot] = None
        for disk, change in delta:
            old = loads[disk]
            new = old + change
            if old:
                remaining = hist[old] - 1
                if remaining:
                    hist[old] = remaining
                else:
                    del hist[old]
            if new:
                hist[new] = hist.get(new, 0) + 1
            loads[disk] = new
        total += change_total
        current = best_score

    slot = 0
    for sources in sources_per_step:
        for i, src in enumerate(sources):
            via, reads = slots[slot]
            if via is not None:
                sources[i] = ValueSource(src.cell, via, reads)
            slot += 1


def survivable_fraction(
    layout: Layout,
    n_failures: int,
    sample: Optional[Sequence[Sequence[int]]] = None,
) -> float:
    """Fraction of *n_failures*-disk patterns the layout survives."""
    import itertools

    if sample is None:
        patterns: List[Tuple[int, ...]] = list(
            itertools.combinations(range(layout.n_disks), n_failures)
        )
    else:
        patterns = [tuple(sorted(p)) for p in sample]
    if not patterns:
        raise ValueError("no failure patterns to evaluate")
    survived = sum(1 for p in patterns if is_recoverable(layout, p))
    return survived / len(patterns)
