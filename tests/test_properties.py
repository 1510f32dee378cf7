"""Property-based tests (hypothesis) on the library's core invariants."""

import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codes.raid5 import Raid5Codec
from repro.codes.reedsolomon import ReedSolomonCodec
from repro.core.oi_layout import oi_raid
from repro.design.catalog import find_bibd
from repro.design.difference import heffter_triples
from repro.layouts.recovery import is_recoverable, plan_recovery
from repro.results import result_from_dict
from repro.sim.serve import ServeResult
from repro.util.primes import is_prime, next_prime
from repro.util.stats import (
    coefficient_of_variation,
    percentile,
    percentile_of_sorted,
)

# One small layout reused across examples (construction is the slow part).
_FANO_OI = oi_raid(7, 3)

sts_orders = st.integers(min_value=1, max_value=14).map(lambda t: 6 * t + 1)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_heffter_always_solvable(t):
    triples = heffter_triples(t)
    assert triples is not None
    flat = sorted(x for tr in triples for x in tr)
    assert flat == list(range(1, 3 * t + 1))


@given(sts_orders)
@settings(max_examples=10, deadline=None)
def test_cyclic_sts_validates_for_any_order(v):
    from repro.design.steiner import steiner_triple_system

    design = steiner_triple_system(v)
    assert design.parameters == (v, v * (v - 1) // 6, (v - 1) // 2, 3, 1)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_next_prime_is_prime_and_minimal(n):
    p = next_prime(n)
    assert is_prime(p)
    assert all(not is_prime(q) for q in range(max(2, n), p))


@given(
    st.lists(
        st.binary(min_size=16, max_size=16), min_size=2, max_size=9
    )
)
@settings(max_examples=60)
def test_raid5_codec_recovers_any_position(buffers):
    codec = Raid5Codec(len(buffers) + 1)
    data = [np.frombuffer(b, dtype=np.uint8) for b in buffers]
    stripe = data + [codec.encode(data)]
    for lost in range(len(stripe)):
        erased = [u if i != lost else None for i, u in enumerate(stripe)]
        decoded = codec.decode(erased)
        assert np.array_equal(decoded[lost], stripe[lost])


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_rs_is_mds_for_random_erasures(k, m, data):
    codec = ReedSolomonCodec(k, m)
    rng = np.random.default_rng(k * 31 + m)
    units = [rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(k)]
    stripe = units + codec.encode(units)
    lost = data.draw(
        st.sets(
            st.integers(min_value=0, max_value=k + m - 1),
            min_size=1,
            max_size=m,
        )
    )
    erased = [u if i not in lost else None for i, u in enumerate(stripe)]
    decoded = codec.decode(erased)
    for a, b in zip(stripe, decoded):
        assert np.array_equal(a, b)


@given(
    st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=3)
)
@settings(max_examples=60, deadline=None)
def test_oi_any_three_failures_recoverable(failed):
    assert is_recoverable(_FANO_OI, sorted(failed))


@given(
    st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=3)
)
@settings(max_examples=25, deadline=None)
def test_oi_plans_cover_exactly_the_lost_cells(failed):
    plan = plan_recovery(_FANO_OI, sorted(failed))
    expected = len(failed) * _FANO_OI.units_per_disk
    assert plan.total_write_units == expected
    assert len(set(plan.recovered_cells)) == expected


@given(
    st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=2)
)
@settings(max_examples=15, deadline=None)
def test_oi_offload_never_increases_peak(failed):
    base = plan_recovery(_FANO_OI, sorted(failed), offload=False)
    tuned = plan_recovery(_FANO_OI, sorted(failed), offload=True)
    assert tuned.max_read_units <= base.max_read_units


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=100, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
@settings(max_examples=60)
def test_cv_is_scale_invariant(values):
    a = coefficient_of_variation(values)
    b = coefficient_of_variation([v * 7.5 for v in values])
    assert a == pytest.approx(b, rel=1e-9)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=60)
def test_percentile_within_range(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)


def reference_percentile(values, q):
    """The tuple-based percentile as first written: sort, interpolate, clamp."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    value = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
    return min(max(value, ordered[lo]), ordered[hi])


def float_bits(x):
    return struct.pack("<d", x)


# Signed zeros are folded (x + 0.0): -0.0 and 0.0 compare equal, so two
# sorts may order them differently and the sign of a zero result is not
# part of the contract.
_finite = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: x + 0.0
)
_tied = st.sampled_from([0.0, 1.0, 2.5, 5e-324, 1e-323, 7.0])


@given(
    st.lists(st.one_of(_finite, _tied), min_size=1, max_size=60),
    st.one_of(st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]),
              st.floats(min_value=0, max_value=100)),
)
@example([3.5], 37.0)
@example([2.0, 2.0, 2.0, 1.0], 50.0)
@example([1.0, 9.0], 0.0)
@example([1.0, 9.0], 100.0)
# Near-equal subnormals, and a span so wide that ``high - low``
# overflows to inf: only the clamp brings that result back to ``high``.
@example([5e-324, 1e-323], 33.3)
@example([2.225073858507201e-308, 2.2250738585072014e-308], 99.0)
@example([-1.5e308, 1.5e308], 50.0)
@settings(max_examples=200, deadline=None)
def test_percentile_of_sorted_is_the_reference_percentile(values, q):
    expected = reference_percentile(values, q)
    got = percentile_of_sorted(np.sort(np.array(values)), q)
    assert type(got) is float
    assert float_bits(got) == float_bits(float(expected))
    assert float_bits(percentile(list(values), q)) == float_bits(got)


def _result_of(latencies):
    n = len(latencies)
    return ServeResult(
        trials=1, requests=n, reads=n, writes=0, degraded_reads=0,
        degraded_writes=0, device_reads=n, device_writes=0,
        latencies_ms=tuple(latencies), rebuild_ops=0, rebuild_ops_done=0,
        rebuild_seconds_per_trial=(), foreground_seconds_per_trial=(1.0,),
    )


_latency_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.sampled_from([5.625, 11.25, 5e-324]),
    ),
    min_size=1, max_size=80,
)


class TestSortedLatencies:
    """Percentiles read one cached sorted array; nothing else may see it."""

    @given(_latency_lists)
    @settings(max_examples=100, deadline=None)
    def test_statistics_equal_the_tuple_definitions(self, latencies):
        result = _result_of(latencies)
        values = tuple(latencies)
        expected = {
            "p50_ms": reference_percentile(values, 50),
            "p95_ms": reference_percentile(values, 95),
            "p99_ms": reference_percentile(values, 99),
            "max_ms": max(values),
            "mean_ms": sum(values) / len(values),
        }
        for name, value in expected.items():
            got = getattr(result, name)
            assert type(got) is float, name
            assert float_bits(got) == float_bits(float(value)), name

    @given(_latency_lists)
    @settings(max_examples=30, deadline=None)
    def test_cache_never_leaks(self, latencies):
        fresh = _result_of(latencies)
        result = _result_of(latencies)
        result.p99_ms  # builds the cache
        assert "_sorted_latencies" in vars(result)
        assert result == fresh
        assert result.to_dict() == fresh.to_dict()
        assert "_sorted_latencies" not in result.to_dict()
        blob = pickle.dumps(result)
        assert blob == pickle.dumps(fresh)
        restored = pickle.loads(blob)
        assert "_sorted_latencies" not in vars(restored)
        assert restored == result
        reloaded = result_from_dict(result.to_dict())
        assert "_sorted_latencies" not in vars(reloaded)
        assert reloaded == result
        assert reloaded.summary() == result.summary()


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=83),
        st.binary(min_size=16, max_size=16),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=20, deadline=None)
def test_batch_write_equals_individual_writes(updates):
    from repro.core.array import OIRAIDArray

    a = OIRAIDArray(_FANO_OI, unit_bytes=16)
    b = OIRAIDArray(_FANO_OI, unit_bytes=16)
    for unit, payload in updates.items():
        a.write_unit(unit, payload)
    b.write_batch(dict(updates))
    assert a.verify() and b.verify()
    for unit in updates:
        assert bytes(a.read_unit(unit)) == bytes(b.read_unit(unit))


@given(
    st.integers(min_value=0, max_value=20),
    st.dictionaries(
        st.integers(min_value=0, max_value=83),
        st.binary(min_size=16, max_size=16),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=15, deadline=None)
def test_distributed_sparing_roundtrip_property(failed_disk, updates):
    from repro.core.sparing import DistributedSpareArray

    array = DistributedSpareArray(
        _FANO_OI, unit_bytes=16, spare_units_per_disk=3
    )
    for unit, payload in updates.items():
        array.write_unit(unit, payload)
    array.fail_disk(failed_disk)
    array.rebuild_distributed()
    for unit, payload in updates.items():
        assert bytes(array.read_unit(unit)) == payload
    array.replace_failed()
    array.copy_back()
    assert array.verify()
    for unit, payload in updates.items():
        assert bytes(array.read_unit(unit)) == payload


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=26),
)
@settings(max_examples=25, deadline=None)
def test_lse_resilient_read_property(disk, addr):
    """Any single unreadable sector on a healthy OI-RAID array is
    decodable and heals."""
    from repro.core.array import OIRAIDArray

    array = OIRAIDArray(_FANO_OI, unit_bytes=16)
    array.write_unit(0, b"\x5a" * 16)
    offset = addr * 16
    array.disks.disk(disk).inject_latent_error(offset, 16)
    value = array._read_cell_resilient(0, (disk, addr))
    assert value.size == 16
    # Healed: raw read works and matches.
    assert bytes(array._read_cell(0, (disk, addr))) == bytes(value)


@given(st.sampled_from([(7, 3), (9, 3), (13, 3), (13, 4)]))
@settings(max_examples=4, deadline=None)
def test_bibd_lambda_one_pair_coverage(params):
    v, k = params
    design = find_bibd(v, k)
    import itertools

    for p, q in itertools.combinations(range(v), 2):
        assert len(design.block_containing_pair(p, q)) == 1
