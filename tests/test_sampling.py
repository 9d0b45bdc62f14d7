from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from importlib import resources
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdn_lipschitz import (
    SampleSequence,
    build_network,
    jacobian_diag_batch,
    k_lower_trace,
    k_network,
    k_upper_sqrt,
)
from wdn_lipschitz.bounds import FlowBox, default_box
from wdn_lipschitz.errors import BoundsError, DimensionTooLarge, SampleCountTooLarge
from wdn_lipschitz.inp import JunctionDesc, NetworkDescription, PipeDesc, PumpDesc, ValveDesc
from wdn_lipschitz import sampling
from wdn_lipschitz.analytical import corner_derivatives
from wdn_lipschitz.sampling import (
    _DIRECTIONS_FILE,
    _DIRECTIONS_SHA256,
    SAMPLER_KINDS,
    _first_primes,
    _fold_digits,
    _halton_hulls,
    _scale_into_box,
    _sobol_hulls,
    _sobol_matrix,
    sobol_max_dimension,
)

from conftest import (
    FIXTURE_NAMES,
    make_box,
    make_random_network,
    make_single_pipe,
    synthetic_network,
)


def block_rows(rows: int | None):
    """Sample blocks of rows points while active; rows None keeps the
    default blocks."""
    if rows is None:
        return contextlib.nullcontext()
    return patch.object(sampling, "_block_rows", lambda kind, dim: rows)


def all_points(seq: SampleSequence, count: int) -> np.ndarray:
    """Points 1..count of seq as one (count, dimension) array."""
    return np.concatenate(list(seq.blocks(count)))


def cpu_count(cpus: int):
    """Traces split their points as on a machine of cpus CPUs while active."""
    return patch.object(sampling, "_cpu_count", lambda: cpus)


@contextlib.contextmanager
def segment_spy():
    """While active, records each segment a trace walks: its first index,
    the thread it runs on and numpy's error state there."""
    walked = []
    blocks = SampleSequence._blocks

    def spy(self, first, count, rows, **kwargs):
        walked.append((first, threading.current_thread(), np.geterr()))
        return blocks(self, first, count, rows, **kwargs)

    with patch.object(SampleSequence, "_blocks", spy):
        yield walked


def traced_peak(fn, *args, **kwargs) -> int:
    """The peak bytes tracemalloc sees, from every thread, while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def star_discrepancy_on_grid(points: np.ndarray, cells: int = 64) -> float:
    """Brute-force star discrepancy estimate on an anchored grid.

    D*(P) >= max over grid anchors (u, v) of |#{p < (u,v)}/N - u*v|.
    """
    n, d = points.shape
    assert d == 2
    anchors = np.arange(1, cells + 1) / cells
    below_x = points[:, 0][None, :] < anchors[:, None]   # (cells, n)
    below_y = points[:, 1][None, :] < anchors[:, None]
    worst = 0.0
    for i, u in enumerate(anchors):
        counts = (below_x[i] & below_y).sum(axis=1) / n   # (cells,)
        worst = max(worst, float(np.max(np.abs(counts - u * anchors))))
    return worst


class TestHalton:
    def test_first_three_points_in_2d(self):
        pts = all_points(SampleSequence("halton", 2), 3)
        expected = np.array([[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9]])
        assert pts == pytest.approx(expected, rel=1e-15)

    def test_dyadic_indices_in_1d(self):
        # 0-based index 2**m - 1 is the radical inverse of 2**m: exactly 2**-(m+1)
        pts = all_points(SampleSequence("halton", 1), 64).ravel()
        for m in range(1, 6):
            assert pts[2**m - 1] == 2.0 ** -(m + 1)

    def test_lower_grid_discrepancy_than_random(self):
        h = star_discrepancy_on_grid(all_points(SampleSequence("halton", 2), 1024))
        r = star_discrepancy_on_grid(all_points(SampleSequence("random", 2, 12345), 1024))
        assert h < r


@functools.lru_cache(maxsize=None)
def _reference_primes() -> tuple[int, ...]:
    """The first 5,002 primes, by trial division."""
    primes = []
    candidate = 2
    while len(primes) < 5002:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def _reference_halton(dim: int, count: int, block: int, first: int = 1):
    """The radical-inverse digit loop, one base at a time, over points
    first..first+count-1, cut into blocks of block points."""
    out = np.empty((count, dim))
    for k, base in enumerate(_reference_primes()[:dim]):
        idx = np.arange(first, first + count, dtype=np.int64)
        r = np.zeros(count)
        f = 1.0
        while idx.any():
            f /= base
            r += (idx % base) * f
            idx //= base
        out[:, k] = r
    return [out[done:done + block] for done in range(0, count, block)]


# at most eight blocks, so that the reference loop stays quick; dimension
# 320 reaches base 2,113, above the rows of most draws and the last index
# of many
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=320),
       block=st.integers(min_value=1, max_value=3000),
       whole=st.integers(min_value=0, max_value=7),
       extra=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(dim=5, block=1, whole=7, extra=0.0)
@example(dim=40, block=9, whole=7, extra=0.5)
@example(dim=320, block=1000, whole=2, extra=0.3)
@example(dim=289, block=None, whole=1, extra=0.01)
@example(dim=5002, block=None, whole=1, extra=0.01)
def test_halton_blocks_match_digit_loop(dim, block, whole, extra):
    # block None is the default block (test_default_block_is_capped_by_bytes)
    rows = block or {289: 7256, 5002: 419}[dim]
    count = whole * rows + int(extra * rows)
    with block_rows(block):
        got = list(SampleSequence("halton", dim).blocks(count))
    want = _reference_halton(dim, count, rows)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flags.c_contiguous
        assert np.array_equal(a, b)


# Blocks of at most 40 rows, so that nearly every base is above the rows
# and meets at most two runs (sampling._halton_two_runs), from first
# indices up to 2**62, where a run's high part has two or more digits in
# every base of 5,002 dimensions (the largest is 48,623).  The examples
# start on a multiple of four bases above the rows (no head run), and
# wrap the low digit of base 48,623 inside the first block.
@settings(max_examples=20, deadline=None)
@given(dim=st.integers(min_value=1, max_value=5002),
       rows=st.integers(min_value=1, max_value=40),
       first=st.one_of(st.integers(min_value=1, max_value=60_000),
                       st.integers(min_value=1, max_value=2 ** 62)),
       count=st.integers(min_value=1, max_value=120))
@example(dim=200, rows=16, first=1009 * 1013 * 1019 * 1021, count=37)
@example(dim=5002, rows=40, first=48623 * 2 ** 40 - 3, count=85)
def test_halton_two_run_fold_matches_digit_loop(dim, rows, first, count):
    count = min(count, 3 * rows)
    got = list(SampleSequence("halton", dim)._blocks(first, count, rows))
    want = _reference_halton(dim, count, rows, first)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flags.c_contiguous
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSobol:
    def test_first_three_points_in_1d(self):
        assert all_points(SampleSequence("sobol", 1), 3).ravel().tolist() == [0.5, 0.75, 0.25]

    def test_first_point_is_centre_in_any_dimension(self):
        for d in (1, 2, 7, 40):
            assert np.all(all_points(SampleSequence("sobol", d), 1)[0] == 0.5)

    def test_aligned_prefixes_are_dyadic_permutations(self):
        # the 2**k - 1 points after the skipped origin fill {1..2**k-1}/2**k
        for d in (1, 3, 5):
            for k in (3, 5, 7):
                pts = all_points(SampleSequence("sobol", d), 2**k - 1) * 2**k
                for col in range(d):
                    ints = np.sort(pts[:, col])
                    assert np.array_equal(ints, np.arange(1, 2**k)), (d, k)

    def test_matches_published_direction_numbers(self):
        # dimension 3 uses s=2, a=1, m=(1,3): second point must be (0.75, 0.25, 0.25)
        pts = all_points(SampleSequence("sobol", 3), 2)
        assert pts[1].tolist() == [0.75, 0.25, 0.25]

    def test_dimension_limit(self):
        limit = sobol_max_dimension()
        assert limit >= 1000
        with pytest.raises(DimensionTooLarge):
            SampleSequence("sobol", limit + 1)

    def test_point_count_limit(self, three_node):
        # a typed ValueError on every route: the closed-form hull would
        # serve any count, so it keeps the limit
        _, net, box = three_node
        assert issubclass(SampleCountTooLarge, ValueError)
        with pytest.raises(SampleCountTooLarge):
            SampleSequence("sobol", 2).blocks(2**32)
        for mode in ("max", "sqrt"):
            with pytest.raises(SampleCountTooLarge):
                k_lower_trace(net, box, "sobol", 2**32, mode=mode)
            with pytest.raises(SampleCountTooLarge):
                k_lower_trace(net, box, "halton", 2**63, mode=mode)

    def test_table_checksum_pinned(self):
        data = resources.files("wdn_lipschitz.data").joinpath(_DIRECTIONS_FILE).read_bytes()
        assert hashlib.sha256(data).hexdigest() == _DIRECTIONS_SHA256

    def test_direction_matrix_is_cached_read_only(self):
        # every Sobol trace of a dimension shares one matrix
        v = _sobol_matrix(5)
        assert _sobol_matrix(5) is v
        with pytest.raises(ValueError):
            v[0, 0] = 1

    def test_corrupt_table_detected(self, monkeypatch):
        from wdn_lipschitz import sampling
        monkeypatch.setattr(sampling, "_DIRECTIONS_SHA256", "0" * 64)
        sampling._direction_rows.cache_clear()
        sampling._sobol_matrix.cache_clear()
        try:
            with pytest.raises(RuntimeError):
                sampling._sobol_matrix(4)
        finally:
            monkeypatch.undo()
            sampling._direction_rows.cache_clear()
            sampling._sobol_matrix.cache_clear()


def _reference_sobol(dim: int, count: int, block: int):
    """The Gray-code loop, one point at a time: index i XORs the direction
    number of its lowest set bit into the state (Antonov & Saleev 1979)."""
    v = _sobol_matrix(dim)
    state = np.zeros(dim, dtype=np.uint32)
    for done in range(0, count, block):
        size = min(block, count - done)
        out = np.empty((size, dim))
        for index in range(done + 1, done + size + 1):
            state ^= v[(index & -index).bit_length() - 1]
            out[index - done - 1] = state
        out *= 0.5 ** 32
        yield out


# counts go up to three blocks plus 300 points, so they cross 128-row runs
# at every block size, and block edges fall both inside runs and on them
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=1111),
       block=st.integers(min_value=1, max_value=3000),
       count=st.integers(min_value=0, max_value=9300))
@example(dim=1, block=1, count=300)
@example(dim=7, block=7, count=390)
@example(dim=40, block=3000, count=6500)
@example(dim=119, block=None, count=8192 + 300)
@example(dim=289, block=None, count=8192 + 129)
@example(dim=1111, block=None, count=7550 + 131)
def test_sobol_blocks_match_gray_code_loop(dim, block, count):
    # block None is the default block (test_default_block_is_capped_by_bytes)
    rows = block or max(1, 2 ** 16 // dim)
    if block is not None:
        count = min(count, 3 * block + 300)
    with block_rows(block):
        got = list(SampleSequence("sobol", dim).blocks(count))
    want = list(_reference_sobol(dim, count, rows))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flags.c_contiguous
        assert np.array_equal(a, b)


class TestHaltonTables:
    def test_second_trace_builds_no_table(self, fixtures):
        _, net, box = fixtures["obcl"]
        _fold_digits.cache_clear()
        k_lower_trace(net, box, "halton", 10_000, mode="sqrt")
        built = _fold_digits.cache_info().misses
        assert built > 0
        k_lower_trace(net, box, "halton", 10_000, mode="sqrt")
        assert _fold_digits.cache_info().misses == built

    def test_shared_tables_are_read_only(self):
        table, _ = _fold_digits(3, 27)
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestRandom:
    def test_seed_determinism(self):
        assert np.array_equal(all_points(SampleSequence("random", 4, 9), 100),
                              all_points(SampleSequence("random", 4, 9), 100))

    def test_seeds_differ(self):
        a = all_points(SampleSequence("random", 4, 1), 1)
        b = all_points(SampleSequence("random", 4, 2), 1)
        assert not np.array_equal(a, b)

    def test_coordinate_mean_near_half(self):
        pts = all_points(SampleSequence("random", 3, 0), 100_000)
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.01


class TestSequences:
    @pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
    def test_points_live_in_half_open_cube(self, kind):
        pts = all_points(SampleSequence(kind, 5, seed=3), 2000)
        assert pts.shape == (2000, 5)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    @pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
    def test_block_size_does_not_change_points(self, kind):
        seq = SampleSequence(kind, 3, seed=5)
        whole = all_points(seq, 257)
        with block_rows(16):
            chunks = np.concatenate(list(seq.blocks(257)))
        assert np.array_equal(whole, chunks)

    def test_default_block_is_capped_by_bytes(self):
        # a random or Sobol block is one tile, at most 2**16 values
        assert next(SampleSequence("random", 289).blocks(10_000)).shape == (226, 289)
        assert next(SampleSequence("random", 5002).blocks(10_000)).shape == (13, 5002)
        assert next(SampleSequence("sobol", 289).blocks(10_000)).shape == (226, 289)
        assert next(SampleSequence("sobol", 1111).blocks(10_000)).shape == (58, 1111)
        assert next(SampleSequence("random", 2 ** 17).blocks(3)).shape == (1, 2 ** 17)
        # a Halton block: 8192 points up to dimension 256, then at most
        # 2**21 values
        assert next(SampleSequence("halton", 256).blocks(10_000)).shape == (8192, 256)
        assert next(SampleSequence("halton", 289).blocks(10_000)).shape == (7256, 289)
        assert next(SampleSequence("halton", 5002).blocks(10_000)).shape == (419, 5002)

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_blocks_are_new_arrays_and_a_walk_reuses_one(self, kind):
        # a caller may keep what blocks() yields; a trace's walk drops each
        # block before the next, so its blocks are written into one array
        sequence = SampleSequence(kind, 289, seed=1)
        rows = sampling._block_rows(kind, 289)
        first, second = itertools.islice(sequence.blocks(3 * rows), 2)
        assert not np.shares_memory(first, second)
        first, second = itertools.islice(sequence._blocks(1, 3 * rows, rows, reuse=True), 2)
        assert np.shares_memory(first, second)

    @pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
    def test_negative_seed_rejected_at_construction(self, kind):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SampleSequence(kind, 3, seed=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SampleSequence("sobolev", 2)


class TestKLower:
    def test_pipe_toy_hand_value(self):
        # R=1, mu=2, q in [0,1]; first three Sobol points are 0.5, 0.75, 0.25
        net = build_network(make_single_pipe(1.0, 2.0))
        box = make_box(net, {"P1": (0.0, 1.0)})
        est = k_lower_trace(net, box, "sobol", 3, mode="max")[0]
        assert est.value == 1.5
        assert est.method == "point_lower"
        assert est.effort == 3

    def test_under_approximates_analytical(self, fixtures):
        for name in FIXTURE_NAMES:
            _, net, box = fixtures[name]
            k = k_network(net, box).value
            for n in (10, 500):
                est = k_lower_trace(net, box, "sobol", n, mode="max")[0]
                assert est.value <= k, name

    def test_sqrt_mode_below_interval_sqrt_upper(self, fixtures):
        for name in ("three_node", "eight_node", "net2"):
            _, net, box = fixtures[name]
            upper = k_upper_sqrt(net, box, 1e-2).value
            est = k_lower_trace(net, box, "sobol", 2000, mode="sqrt")[0]
            assert est.value <= upper, name

    def test_monotone_in_n(self, three_node):
        _, net, box = three_node
        grid = tuple(range(1, 400))
        _, trace = k_lower_trace(net, box, "sobol", 400, mode="max",
                                 checkpoints=grid)
        values = [v for _, v in trace]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_checkpoints_equal_independent_runs(self, three_node):
        _, net, box = three_node
        with block_rows(64):
            _, trace = k_lower_trace(net, box, "halton", 300, mode="sqrt",
                                     checkpoints=(7, 63, 300))
        for n, value in trace:
            est = k_lower_trace(net, box, "halton", n, mode="sqrt")[0]
            assert est.value == value

    def test_sqrt_mode_dominates_max_mode(self, valve_net):
        _, net, box = valve_net
        for n in (11, 257):
            lo_max = k_lower_trace(net, box, "sobol", n, mode="max")[0]
            lo_sqrt = k_lower_trace(net, box, "sobol", n, mode="sqrt")[0]
            assert lo_sqrt.value >= lo_max.value

    def test_single_link_modes_coincide(self):
        net = build_network(make_single_pipe(2.5, 1.852))
        box = make_box(net, {"P1": (-6.0, 3.0)})
        for n in (1, 5, 100):
            a = k_lower_trace(net, box, "sobol", n, mode="max")[0]
            b = k_lower_trace(net, box, "sobol", n, mode="sqrt")[0]
            assert a.value == b.value

    def test_bitwise_determinism(self, valve_net):
        _, net, box = valve_net
        a = k_lower_trace(net, box, "random", 4096, mode="max", seed=42)[0]
        with block_rows(128):
            b = k_lower_trace(net, box, "random", 4096, mode="max", seed=42)[0]
        assert a.value == b.value

    def test_random_seeds_stay_below_analytical(self, three_node):
        _, net, box = three_node
        k = k_network(net, box).value
        values = {k_lower_trace(net, box, "random", 1000, seed=s)[0].value for s in (1, 2)}
        assert len(values) == 2
        assert all(v <= k for v in values)

    def test_rejects_nonpositive_n(self, three_node):
        _, net, box = three_node
        with pytest.raises(ValueError):
            k_lower_trace(net, box, "sobol", 0)[0]
        # a checkpoint outside 1..n is refused as well, not dropped
        for checkpoints in ((0, 50), (50, 1000), (-3,)):
            with pytest.raises(ValueError, match=r"checkpoints must lie in 1\.\.100"):
                k_lower_trace(net, box, "sobol", 100, checkpoints=checkpoints)

    @pytest.mark.parametrize("estimate", [k_lower_trace], ids=["k_lower_trace"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_checked_by_both_entry_points(self, three_node, estimate, n):
        _, net, box = three_node
        with pytest.raises(ValueError, match="n must be >= 1"):
            estimate(net, box, "sobol", n)


# k_lower_trace at checkpoints 10, 100, 1000 and 10000 (seed 0), as float.hex,
# frozen from the per-index Halton digit loop and the allocating scale and
# Jacobian pass that the run-structured, in-place pass replaced
FROZEN_TRACES = {
    ("net3", "random", "max"): (
        "0x1.704d5d6f7242ep-2", "0x1.9dc7650b34939p-2",
        "0x1.a26c305855054p-2", "0x1.a2c388cd5cb50p-2"),
    ("net3", "random", "sqrt"): (
        "0x1.afa7eb5556be0p-2", "0x1.e73d289a3872bp-2",
        "0x1.e78231222ff80p-2", "0x1.ed793131493adp-2"),
    ("net3", "halton", "max"): (
        "0x1.398ef5f0655d3p-3", "0x1.98c2ba83ba233p-3",
        "0x1.a229de00d1a0dp-2", "0x1.a22e0b8c1fc04p-2"),
    ("net3", "halton", "sqrt"): (
        "0x1.7c5838776a241p-3", "0x1.bcbcfe2006f9dp-3",
        "0x1.eefedc718a7a8p-2", "0x1.efb7d44fe0d9ap-2"),
    ("net3", "sobol", "max"): (
        "0x1.8492b06f80a48p-2", "0x1.9b4d1d71b228ap-2",
        "0x1.a270f48264d88p-2", "0x1.a2dbb7adb00f4p-2"),
    ("net3", "sobol", "sqrt"): (
        "0x1.c5286ad667dddp-2", "0x1.d74c6ddfe3d04p-2",
        "0x1.ef555df4cadf1p-2", "0x1.ef555df4cadf1p-2"),
    ("obcl", "random", "max"): (
        "0x1.6537a1bc1c1e3p-2", "0x1.a0e9a52acc2a5p-2",
        "0x1.a0eaa9726ea00p-2", "0x1.a10ab95786260p-2"),
    ("obcl", "random", "sqrt"): (
        "0x1.7793ca525ef36p-2", "0x1.b31b072618186p-2",
        "0x1.b858373c3be96p-2", "0x1.bae62a56d69a2p-2"),
    ("obcl", "halton", "max"): (
        "0x1.fb8c46ac08f52p-5", "0x1.77bd3013f8f71p-4",
        "0x1.2e45e7607cf05p-2", "0x1.a0eeffd25657bp-2"),
    ("obcl", "halton", "sqrt"): (
        "0x1.7f36b240e58ffp-3", "0x1.7f36b240e58ffp-3",
        "0x1.4d45d63ebb8dcp-2", "0x1.b86a6fb8472c3p-2"),
    ("obcl", "sobol", "max"): (
        "0x1.859140c91807bp-2", "0x1.9db516c5f75dbp-2",
        "0x1.a0d6b5cf82ce1p-2", "0x1.a1054b27b8205p-2"),
    ("obcl", "sobol", "sqrt"): (
        "0x1.992f59d4bc563p-2", "0x1.b4daf38466b7fp-2",
        "0x1.b8500db2d180cp-2", "0x1.b9789b65560f8p-2"),
}


@pytest.mark.parametrize("name, kind, mode", list(FROZEN_TRACES))
def test_traces_match_frozen_values(fixtures, name, kind, mode):
    _, net, box = fixtures[name]
    marks = (10, 100, 1000, 10_000)
    est, trace = k_lower_trace(net, box, kind, 10_000, mode=mode, checkpoints=marks)
    assert [n for n, _ in trace] == list(marks)
    assert [v.hex() for _, v in trace] == list(FROZEN_TRACES[name, kind, mode])
    assert est.value == trace[-1][1]


@pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
@pytest.mark.parametrize("mode", ["max", "sqrt"])
def test_trace_memory_stays_within_a_few_blocks(fixtures, kind, mode):
    # numpy reports its buffers to tracemalloc, from every thread.  The
    # block bound is in Halton blocks (7,256 points on obcl), per segment,
    # times the segments the trace walks; a Halton trace walks one.  Random and Sobol
    # blocks are one tile, and test_random_trace_memory_is_flat_in_links
    # bounds them by tiles.  A random max trace holds one sample block and
    # the two hull rows per segment.  A Halton or Sobol max trace takes its
    # hull in closed form on one thread and holds a few rows of n_links
    # values (22 to 28 float64 rows; Sobol's largest buffers are its 32
    # uint32 rows of direction numbers and one gathered copy of them), so a
    # single block-sized buffer fails its bound.  A sqrt trace holds one
    # sample block and one row-sum vector per segment, and evaluates in
    # place (a Halton trace 1.06 blocks, 1.21 while it also builds its
    # digit tables; 2.0 to 2.2 with a block-sized Jacobian buffer, 6.0
    # before the in-place pass).  One more block-sized buffer per segment
    # fails the bound.  The trace runs as on one, two and three CPUs.
    _, net, box = fixtures["obcl"]
    row_bytes = net.n_links * 8
    closed_form = mode == "max" and kind != "random"
    sobol_max_dimension()  # the direction table is parsed once per process
    for cpus in (1, 2, 3):
        with cpu_count(cpus), segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, kind, 20_000, mode=mode)
        segments = len(walked)
        assert segments == (0 if closed_form else 1 if kind == "halton" else cpus)
        halton_block = sampling._block_rows("halton", net.n_links) * row_bytes
        per_segment = 48 * row_bytes if closed_form else 1.5 * halton_block
        assert peak <= max(1, segments) * per_segment


# obcl's 289 links give random and Sobol blocks of 226 points; Halton
# blocks are 8192 points at any dimension up to 256, so Halton runs on
# three_node's 2 links, where 8,200 one-point blocks stay quick
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("mode", ["max", "sqrt"])
def test_traces_do_not_depend_on_block_size(fixtures, kind, mode):
    _, net, box = fixtures["three_node" if kind == "halton" else "obcl"]
    default = sampling._block_rows(kind, net.n_links)
    n = default + 8 if kind == "halton" else 2 * default + 5
    # on and next to the first edges of 7-point blocks and every default edge
    edges = [7, 14, 21, default, 2 * default]
    marks = tuple(sorted({m for e in edges for m in (e - 1, e, e + 1) if 1 <= m < n} | {1}))
    traces = []
    for rows in (1, 7, None):
        with block_rows(rows):
            est, trace = k_lower_trace(net, box, kind, n, mode=mode, seed=3,
                                       checkpoints=marks)
        assert [at for at, _ in trace] == list(marks)
        traces.append([v.hex() for _, v in trace] + [est.value.hex()])
    assert traces[0] == traces[1] == traces[2]


@pytest.fixture(scope="module")
def scale_network():
    """perfbench's 5,002-link scale network and its default flow box."""
    net = synthetic_network((4000, 2, 3, 5000, 2, 0), 5000)
    return net, default_box(net)


@pytest.mark.parametrize("mode", ["max", "sqrt"])
def test_random_trace_memory_is_flat_in_links(scale_network, mode):
    # A random block is one tile of at most 2**16 values (512 KiB); on
    # 5,002 links that is 13 points, where a block of up to 2**23 values
    # was 1,677 points (64 MiB).  The bound is per segment, times the
    # segments the trace walks.  A max trace holds per segment that block,
    # its two hull rows and the corner pass's rows of n_links values, which
    # each segment runs at its own cuts: at most 48 rows per segment, as in
    # test_trace_memory_stays_within_a_few_blocks (25 rows on one segment,
    # 14 to 22 per segment on two or three).  A sqrt segment holds the block,
    # evaluated in place, and the row-sum buffer of one tile's 13 points;
    # the width row is shared: one tile and at most 8 rows per segment (0.4
    # to 1.1 rows measured).  Neither bound grows with the point count or
    # the block count, and one more tile-sized buffer per segment fails the
    # sqrt bound.  The trace runs as on one, two and three CPUs.
    net, box = scale_network
    assert net.n_links == 5002
    tile_bytes = sampling._TILE_VALUES * 8
    row_bytes = net.n_links * 8
    per_segment = tile_bytes + (48 if mode == "max" else 8) * row_bytes
    for cpus in (1, 2, 3):
        with cpu_count(cpus), segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, "random", 3000, mode=mode,
                               checkpoints=(1, 13, 14, 1000))
        assert len(walked) == cpus
        assert peak <= len(walked) * per_segment


def test_halton_sqrt_trace_memory_in_blocks(scale_network):
    # A Halton block on 5,002 links is 419 points, at most 2**21 values
    # (16 MiB).  A sqrt trace writes every block of its walk into one
    # array and evaluates it in place; the rest is the tables of the 81
    # bases up to 419, a chunk of link-major scratch of about a tile and
    # the row sums: 1.06 x 2**21 values measured.  One more block-sized
    # buffer fails the bound.
    net, box = scale_network
    peak = traced_peak(k_lower_trace, net, box, "halton", 10_000, mode="sqrt")
    assert peak <= 1.25 * 2 ** 21 * 8


# obcl's 289 links: a random max trace segment keeps one float per cut,
# so any checkpoint count walks three segments on three CPUs.  A segment
# holds its block (one tile), its two hull rows and one corner pass at a
# time; the trace and the cuts are a few Python numbers per checkpoint.
# Bound: one tile and 16 rows per segment, plus one tile (measured: 3.2 to
# 3.5 tiles with 112, 113 or 1,000 checkpoints).  A hull kept per
# checkpoint, or one more tile-sized buffer per segment, fails it.
@pytest.mark.parametrize("checkpoints, segments", [(112, 3), (113, 3), (1000, 3)])
def test_random_max_trace_memory_does_not_grow_with_checkpoints(fixtures, checkpoints,
                                                                segments):
    _, net, box = fixtures["obcl"]
    tile_bytes = sampling._TILE_VALUES * 8
    row_bytes = net.n_links * 8
    n = 20_000
    marks = tuple(range(1, n, n // checkpoints))[:checkpoints]
    k_lower_trace(net, box, "random", 1)  # the corner pass's per-link tables
    with cpu_count(3), segment_spy() as walked:
        peak = traced_peak(k_lower_trace, net, box, "random", n, checkpoints=marks)
    assert len(walked) == segments
    assert peak <= segments * (tile_bytes + 16 * row_bytes) + tile_bytes


def test_sobol_sqrt_trace_memory_in_tiles(fixtures):
    # A segment of a Sobol sqrt trace on obcl's 289 links holds one block
    # of 226 points (one tile), evaluated in place, and its uint32 states
    # (half a tile), the 128-state run table, the run steps and a few rows:
    # 1.97 to 2.00 tiles per segment measured, with the direction matrix
    # cached beforehand (2.97 on one segment with a Jacobian tile buffer).
    # The bound is per segment, times the segments the trace walks; one
    # more tile-sized buffer per segment fails it.  The trace runs as on
    # one, two and three CPUs.
    _, net, box = fixtures["obcl"]
    tile_bytes = sampling._TILE_VALUES * 8
    row_bytes = net.n_links * 8
    _sobol_matrix(net.n_links)  # cached per dimension, once per process
    for cpus in (1, 2, 3):
        with cpu_count(cpus), segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, "sobol", 20_000, mode="sqrt",
                               checkpoints=(1, 226, 227, 10_000))
        assert len(walked) == cpus
        assert peak <= len(walked) * (2 * tile_bytes + 16 * row_bytes)


# obcl's 289 links: a tile is 226 points, a random or Sobol block is one
# tile and a Halton block 7,256 points.  Marks fall inside blocks, on and
# next to a block edge, and far apart, so that one cut between two marks
# would span many tiles and a block edge.
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_walk_cuts_are_at_most_one_tile(kind):
    dim = 289
    rows = sampling._tile_rows(dim)
    assert rows == 226
    block = sampling._block_rows(kind, dim)
    n = block + 3 * rows + 17
    marks = sorted({1, 100, block - 1, block, block + 1, block + rows + 50, n})
    sequence = SampleSequence(kind, dim, seed=2)
    cuts = []
    walk = sampling._prefix_walk(sequence.blocks(n), marks, lambda p: cuts.append(p.copy()))
    assert [(mark, sum(map(len, cuts))) for mark in walk] == [(m, m) for m in marks]
    assert all(1 <= len(cut) <= rows for cut in cuts)
    assert np.array_equal(np.concatenate(cuts), all_points(sequence, n))


# Each segment builds its blocks from its first index, so block i of a
# segment must hold rows first..first+count-1 of the sequence.  Random
# blocks rest on PCG64 drawing one 64-bit value per double, so that index
# first is (first - 1) * dim draws into numpy's own stream.
@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(SAMPLER_KINDS), dim=st.integers(1, 40),
       first=st.integers(1, 3000), count=st.integers(1, 300), rows=st.integers(1, 300),
       seed=st.integers(0, 2 ** 64 - 1))
@example(kind="random", dim=1, first=1, count=1, rows=1, seed=0)
@example(kind="random", dim=7, first=2, count=300, rows=7, seed=2 ** 64 - 1)
def test_blocks_from_any_first_index_match_the_stream(kind, dim, first, count, rows, seed):
    sequence = SampleSequence(kind, dim, seed)
    got = list(sequence._blocks(first, count, rows))
    assert [len(block) for block in got] == [min(rows, count - done)
                                             for done in range(0, count, rows)]
    if kind == "random":
        stream = np.random.Generator(np.random.PCG64(seed)).random((first + count - 1, dim))
    else:
        stream = all_points(sequence, first + count - 1)
    assert np.array_equal(np.concatenate(got).view(np.uint64),
                          stream[first - 1:].view(np.uint64))


# obcl's 289 links: a tile is 226 points, so 4,523 points (a multiple of
# none of 2, 3 and 5) make up to five segments of at least four tiles.
# Marks fall on and next to every segment edge of every count, and the
# middle edge and n are marked twice.  Halton traces walk one segment.
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("mode", ["max", "sqrt"])
def test_traces_do_not_depend_on_segment_count(fixtures, kind, mode):
    _, net, box = fixtures["obcl"]
    n = 4523
    edges = {n * s // k for k in (2, 3, 5) for s in range(1, k)}
    marks = tuple(sorted([*{m for e in edges for m in (e - 1, e, e + 1)}, 1, n // 2, n]))
    closed_form = mode == "max" and kind != "random"
    traces = []
    interval = sys.getswitchinterval()
    for cpus in (1, 2, 3, 5):
        # more segments than this machine may have cores, switching threads
        # often, and the shared per-process tables built while they run
        sampling._fold_digits.cache_clear()
        sampling._sobol_matrix.cache_clear()
        sys.setswitchinterval(1e-5)
        try:
            with cpu_count(cpus), segment_spy() as walked:
                est, trace = k_lower_trace(net, box, kind, n, mode=mode, seed=3,
                                           checkpoints=marks)
        finally:
            sys.setswitchinterval(interval)
        segments = 0 if closed_form else 1 if kind == "halton" else cpus
        assert sorted(first for first, _, _ in walked) == [n * s // segments + 1
                                                           for s in range(segments)]
        assert len({thread for _, thread, _ in walked}) == segments
        assert [thread for first, thread, _ in walked if first == 1] == (
            [threading.current_thread()] if segments else [])
        assert [at for at, _ in trace] == list(marks)
        traces.append([v.hex() for _, v in trace] + [est.value.hex()])
    assert all(trace == traces[0] for trace in traces)


def test_segment_count_rule():
    # one segment per CPU, each of at least four tiles' points; Halton
    # walks one
    count = sampling._segment_count
    with cpu_count(2):
        for kind in ("random", "sobol"):
            assert count(kind, 1000, 289) == 1      # a certify-sized trace
            assert count(kind, 1807, 289) == 1
            assert count(kind, 1808, 289) == 2
            assert count(kind, 10 ** 9, 289) == 2
            assert count(kind, 7, 2 ** 20) == 1      # a tile is one point
            assert count(kind, 8, 2 ** 20) == 2
        assert count("halton", 10 ** 9, 289) == 1
    with cpu_count(1):
        assert count("random", 10 ** 9, 289) == 1
    with cpu_count(5):
        assert count("sobol", 10 ** 9, 289) == 5


# a segment keeps one float per cut, so a trace with more checkpoints than
# a tile has values still walks one segment per CPU
def test_sqrt_trace_with_many_checkpoints_walks_every_cpu(fixtures):
    _, net, box = fixtures["obcl"]
    marks = tuple(range(1, sampling._TILE_VALUES + 2))
    traces = []
    for cpus in (1, 3):
        with cpu_count(cpus), segment_spy() as walked:
            est, trace = k_lower_trace(net, box, "sobol", 70_000, mode="sqrt",
                                       checkpoints=marks)
        assert len({thread for _, thread, _ in walked}) == len(walked) == cpus
        assert [at for at, _ in trace] == list(marks)
        traces.append([v.hex() for _, v in trace] + [est.value.hex()])
    assert traces[0] == traces[1]


def no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


class TestSegmentThreads:
    def test_one_segment_starts_no_thread(self, fixtures):
        _, net, box = fixtures["obcl"]
        with cpu_count(2), patch.object(threading, "Thread", no_thread):
            for kind in SAMPLER_KINDS:
                for mode in ("max", "sqrt"):
                    k_lower_trace(net, box, kind, 1000, mode=mode, checkpoints=(10, 100))

    @pytest.mark.parametrize("kind", ["halton", "sobol"])
    def test_sample_count_is_checked_before_any_thread(self, fixtures, kind):
        _, net, box = fixtures["obcl"]
        too_many = sampling._MAX_COUNT[kind] + 1
        before = threading.active_count()
        with cpu_count(3), patch.object(threading, "Thread", no_thread):
            with pytest.raises(SampleCountTooLarge):
                k_lower_trace(net, box, kind, too_many, mode="sqrt")
        assert threading.active_count() == before

    # a random sqrt trace of three segments on obcl, of 904 or 905 points,
    # four or five blocks each; a failing segment raises at its second block
    @pytest.mark.parametrize("failing", [{0}, {1}, {2}, {1, 2}, {0, 1, 2}])
    def test_segment_error_surfaces_after_every_thread_is_joined(self, fixtures, failing):
        _, net, box = fixtures["obcl"]
        n = 2714
        firsts = [n * s // 3 + 1 for s in range(3)]
        blocks = SampleSequence._blocks
        finished = set()

        def some_fail(self, first, count, rows, **kwargs):
            for i, block in enumerate(blocks(self, first, count, rows, **kwargs)):
                if i == 1 and firsts.index(first) in failing:
                    raise ValueError(f"segment {firsts.index(first)} failed")
                yield block
            finished.add(firsts.index(first))

        before = threading.active_count()
        with cpu_count(3), patch.object(SampleSequence, "_blocks", some_fail):
            with pytest.raises(ValueError, match=f"^segment {min(failing)} failed$"):
                k_lower_trace(net, box, "random", n, mode="sqrt")
        assert threading.active_count() == before
        assert finished == {0, 1, 2} - failing

    def test_success_leaves_no_thread(self, fixtures):
        _, net, box = fixtures["obcl"]
        before = threading.active_count()
        with cpu_count(3):
            for mode in ("max", "sqrt"):
                k_lower_trace(net, box, "random", 4000, mode=mode, checkpoints=(1, 2000))
        assert threading.active_count() == before

    def test_package_import_loads_no_executor(self):
        # segments run on plain threads; concurrent.futures costs a few ms
        # to import, and the package loads nothing that imports it
        code = ("import sys, wdn_lipschitz.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_a_caller_that_stops_early_leaves_no_thread(self, fixtures):
        # the corner pass fails at the first cut of the first segment, on
        # this thread, while the other segments, slowed down, still run;
        # the trace joins them before it raises
        _, net, box = fixtures["obcl"]
        blocks = SampleSequence._blocks

        def slow(self, first, count, rows, **kwargs):
            if first > 1:
                time.sleep(0.2)
            return blocks(self, first, count, rows, **kwargs)

        before = threading.active_count()
        with cpu_count(3), patch.object(SampleSequence, "_blocks", slow), \
                segment_spy() as walked, \
                patch.object(sampling, "corner_derivatives", side_effect=ValueError("stop")):
            with pytest.raises(ValueError, match="^stop$"):
                k_lower_trace(net, box, "random", 20_000, checkpoints=(1,))
            assert threading.active_count() == before
        assert len(walked) == 3

    def test_segments_run_in_the_callers_numpy_error_state(self, fixtures):
        # numpy keeps its error state per context, and a thread starts in an
        # empty one unless it is handed a copy
        _, net, box = fixtures["obcl"]
        with cpu_count(3), segment_spy() as walked, np.errstate(over="ignore", invalid="raise"):
            k_lower_trace(net, box, "random", 4000, mode="sqrt")
        assert len({thread for _, thread, _ in walked}) == 3
        assert all(state["over"] == "ignore" and state["invalid"] == "raise"
                   for _, _, state in walked)

    # three_node's 2 links: a tile is 32,768 points, so 400,000 points make
    # three segments, and nearly every sample of the wide pipe overflows
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_overflow_on_segments_raises_bounds_error(self, three_node, cpus):
        _, net, _ = three_node
        box = make_box(net, {"P1": (1.0, 1e200), "PU1": (1.0, 1e120)})
        before = threading.active_count()
        with cpu_count(cpus), segment_spy() as walked, np.errstate(over="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundsError, match="^sqrt-mode point estimate overflows a "
                                                  "float: the box is too wide$"):
                k_lower_trace(net, box, "random", 400_000, mode="sqrt", seed=4)
        assert threading.active_count() == before
        assert len(walked) == cpus


# endpoints up to 1e300, so that a width hi - lo stays finite; signed
# zeros, subnormals and equal endpoints drawn on purpose
_ENDPOINTS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0)),
    st.floats(min_value=-1e300, max_value=1e300))
_UNIT = st.one_of(st.sampled_from((0.0, float(np.nextafter(1.0, 0.0)))),
                  st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS, st.booleans()),
                     min_size=1, max_size=6),
       data=st.data())
def test_scale_into_box_needs_no_lower_clip(ends, data):
    lo = np.array([min(a, b) if wide else a for a, b, wide in ends])
    hi = np.array([max(a, b) if wide else a for a, b, wide in ends])
    box = FlowBox(link_ids=tuple(f"P{i}" for i in range(len(ends))),
                  kinds=("pipe",) * len(ends), lo=lo, hi=hi)
    rows = data.draw(st.integers(1, 4))
    p = np.array(data.draw(st.lists(_UNIT, min_size=rows * len(ends),
                                    max_size=rows * len(ends)))).reshape(rows, -1)
    width = hi - lo
    q = _scale_into_box(p.copy(), box, width)
    assert np.all(q >= lo) and np.all(q <= hi)
    clipped = np.clip(lo + p * width, lo, hi)
    assert np.array_equal(np.abs(q).view(np.uint64), np.abs(clipped).view(np.uint64))


@pytest.mark.parametrize("mode", ["max", "sqrt"])
@pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
def test_overflowing_width_is_a_bounds_error(kind, mode):
    # hi - lo = inf would scale every sample p > 0 to inf, which the clip
    # maps to hi: a flow that no sample drew.  The trace refuses the box
    # first, and numpy does not warn.
    net = build_network(make_single_pipe(1e-300, 2.0))
    box = make_box(net, {"P1": (-1e308, 1e308)})
    assert math.isfinite(k_network(net, box).value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundsError, match="^link 'P1': q_max - q_min overflows a float: "
                                              "the box is too wide$"):
            k_lower_trace(net, box, kind, 100, mode=mode)[0]


def _brute_force_trace(net, box, kind, seed, n, marks, mode):
    # every sampled point mapped into the box, then per point the largest
    # closed-form derivative over its links (or the root of the sum of
    # squares of its numpy Jacobian row) and a prefix max: the definition
    # the hull and the tile walk must reproduce
    q = all_points(SampleSequence(kind, net.n_links, seed), n)
    q = np.clip(box.lo + q * (box.hi - box.lo), box.lo, box.hi)
    if mode == "max":
        rows = [max(corner_derivatives(net, [abs(x) for x in point])) for point in q.tolist()]
    else:
        g = jacobian_diag_batch(net, q)
        rows = np.sqrt(np.einsum("ij,ij->i", g, g))
    running = np.maximum.accumulate(rows)
    return [float(running[m - 1]) for m in marks]


def _assert_trace_matches_brute_force(net, box, kind, seed, block, whole, extra, data, mode):
    # marks on every block edge, at 1 and n, and a few drawn between
    n = block * whole + extra
    edges = {block * k for k in range(1, whole + 1)}
    others = data.draw(st.lists(st.integers(1, n), max_size=4))
    marks = sorted(edges | set(others) | {1, n})
    with block_rows(block):
        est, trace = k_lower_trace(net, box, kind, n, mode=mode, seed=seed,
                                   checkpoints=tuple(marks))
    expected = _brute_force_trace(net, box, kind, seed, n, marks, mode)
    assert [at for at, _ in trace] == marks
    assert [v.hex() for _, v in trace] == [v.hex() for v in expected]
    assert est.value.hex() == expected[-1].hex()


# Networks from make_random_network have pipe and valve boxes that cross
# zero and pump boxes near zero flow; "some" and "all" collapse links to
# their upper bound, where every sample is the same flow.  Tiles of a few
# values put tile edges inside the cuts, and make a random trace walk up
# to three segments.
@settings(max_examples=80, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       seed=st.integers(0, 5), block=st.integers(1, 300), whole=st.integers(1, 5),
       extra=st.integers(0, 299), collapse=st.sampled_from(("none", "some", "all")),
       tile=st.integers(1, 200), data=st.data())
def test_max_trace_matches_brute_force(net_seed, kind, seed, block, whole, extra,
                                       collapse, tile, data):
    net, box = make_random_network(np.random.default_rng(net_seed))
    if collapse != "none":
        step = 2 if collapse == "some" else 1
        lo = box.lo.copy()
        lo[::step] = box.hi[::step]
        box = dataclasses.replace(box, lo=lo)
    with cpu_count(3), patch.object(sampling, "_TILE_VALUES", tile):
        _assert_trace_matches_brute_force(net, box, kind, seed, block, whole, extra, data,
                                          "max")


# the same walk over blocks cut at the marks and at tile edges, on up to
# three segments
@settings(max_examples=40, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       seed=st.integers(0, 5), block=st.integers(1, 300), whole=st.integers(1, 5),
       extra=st.integers(0, 299), tile=st.integers(1, 200), data=st.data())
def test_sqrt_trace_matches_brute_force(net_seed, kind, seed, block, whole, extra, tile, data):
    net, box = make_random_network(np.random.default_rng(net_seed))
    with cpu_count(3), patch.object(sampling, "_TILE_VALUES", tile):
        _assert_trace_matches_brute_force(net, box, kind, seed, block, whole, extra, data,
                                          "sqrt")


# Every hull flow lies in the box, and the max trace evaluates it with the
# corner pass that gives K, so no checkpoint exceeds K, with no tolerance.
# With every link collapsed to its upper bound, each sample is the corner.
# The explicit example is a network where numpy's pow, as a Jacobian batch
# evaluates it, is above libm's at that corner.
@settings(max_examples=60, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       seed=st.integers(0, 5), n=st.integers(1, 5000), collapse=st.booleans())
@example(net_seed=141, kind="random", seed=0, n=1, collapse=True)
def test_max_trace_never_exceeds_analytical(net_seed, kind, seed, n, collapse):
    net, box = make_random_network(np.random.default_rng(net_seed))
    if collapse:
        box = dataclasses.replace(box, lo=box.hi.copy())
    k = k_network(net, box).value
    marks = tuple(sorted({1, n // 7 + 1, n // 2 + 1, n}))
    est, trace = k_lower_trace(net, box, kind, n, mode="max", seed=seed, checkpoints=marks)
    assert all(v <= k for _, v in trace)
    assert est.value == k if collapse else est.value <= k


# On a degenerate box every sample is the corner itself, and the max trace
# evaluates it with the corner pass that gives K, so the two are equal.  The
# explicit example is a flow where numpy's pow, as a Jacobian batch
# evaluates it, is an ulp above libm's.
@settings(max_examples=300, deadline=None)
@given(mu=st.sampled_from((1.0, 1.852, 2.0, 3.0)), nu=st.floats(min_value=1.0, max_value=3.0),
       r_pipe=st.floats(min_value=1e-12, max_value=1e3),
       r_pump=st.floats(min_value=1e-12, max_value=1e3),
       r_valve=st.floats(min_value=1e-12, max_value=1e3),
       speed=st.floats(min_value=1e-8, max_value=1.0),
       openness=st.floats(min_value=1e-8, max_value=1.0),
       q_pipe=st.floats(min_value=-1e12, max_value=1e12),
       q_pump=st.floats(min_value=1e-12, max_value=1e12),
       q_valve=st.floats(min_value=-1e12, max_value=1e12))
@example(mu=1.852, nu=2.0, r_pipe=3.367289521778813e-05, r_pump=1e-12, r_valve=1e-12,
         speed=1.0, openness=1.0, q_pipe=0.0117257249691095, q_pump=1e-12, q_valve=0.0)
def test_point_stays_below_interval_on_degenerate_boxes(mu, nu, r_pipe, r_pump, r_valve,
                                                        speed, openness, q_pipe, q_pump,
                                                        q_valve):
    desc = NetworkDescription(
        flow_units="GPM", headloss_exponent=mu,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[],
        pipes=[PipeDesc("P1", "J1", "J2", r_pipe, mu)],
        pumps=[PumpDesc("M1", "J1", "J2", 100.0, r_pump, nu, speed)],
        valves=[ValveDesc("V1", "J2", "J1", r_valve, openness)],
    )
    net = build_network(desc)
    box = make_box(net, {"P1": (q_pipe, q_pipe), "M1": (q_pump, q_pump),
                         "V1": (q_valve, q_valve)})
    point_max = k_lower_trace(net, box, "sobol", 1, mode="max")[0].value
    point_sqrt = k_lower_trace(net, box, "sobol", 1, mode="sqrt")[0].value
    assert point_max == k_network(net, box).value
    assert point_sqrt <= k_upper_sqrt(net, box).value


def _hulls_of_points(kind, dim, marks):
    """points(n).min/max(axis=0) for each prefix n in marks, block by block,
    so that no more than one block of points is held."""
    p_min, p_max = np.full(dim, np.inf), np.full(dim, -np.inf)
    hulls, seen = [], 0
    for p in SampleSequence(kind, dim).blocks(marks[-1]):
        for mark in marks:
            if seen < mark <= seen + len(p):
                head = p[:mark - seen]
                hulls.append((np.minimum(p_min, head.min(axis=0)),
                              np.maximum(p_max, head.max(axis=0))))
        p_min = np.minimum(p_min, p.min(axis=0))
        p_max = np.maximum(p_max, p.max(axis=0))
        seen += len(p)
    return hulls


def _assert_hulls_match_points(kind, dim, marks):
    hulls = _sobol_hulls if kind == "sobol" else _halton_hulls
    got = list(hulls(dim, marks))
    assert [mark for mark, _ in got] == marks
    for (_, (p_min, p_max)), (q_min, q_max) in zip(got, _hulls_of_points(kind, dim, marks),
                                                 strict=True):
        assert np.array_equal(p_min, q_min) and np.array_equal(p_max, q_max)


# n on and next to a power of two or of one of the sequence's first bases;
# the oracle generates at most 10**7 values per draw, so the largest n falls
# as the dimension rises (10**5 up to dimension 100, 1,999 at 5,002)
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("halton", "sobol")), data=st.data())
def test_closed_form_hull_matches_points(kind, data):
    top = 1111 if kind == "sobol" else 5002
    dim = data.draw(st.one_of(st.integers(1, top), st.sampled_from((1, 2, top))), label="dim")
    cap = min(10 ** 5, 10 ** 7 // dim)
    base = data.draw(st.sampled_from([2, *_first_primes(dim)[:50]]), label="base")
    powers = [1]
    while powers[-1] * base <= cap:
        powers.append(powers[-1] * base)
    power = data.draw(st.sampled_from(powers[::-1]), label="power")
    n = min(cap, max(1, power + data.draw(st.integers(-1, 1), label="offset")))
    others = data.draw(st.lists(st.integers(1, n), max_size=4), label="marks")
    _assert_hulls_match_points(kind, dim, sorted({*others, n}))


@pytest.mark.parametrize("kind, dim, n", [
    ("sobol", 1, 10 ** 5), ("sobol", 97, 2 ** 16 + 1), ("sobol", 1111, 2 ** 13 - 1),
    ("halton", 97, 3 ** 10), ("halton", 289, 2 ** 15), ("halton", 5002, 1999)])
def test_closed_form_hull_matches_points_at_the_edges(kind, dim, n):
    _assert_hulls_match_points(kind, dim, [1, 2, 3, n // 2, n - 1, n])


@pytest.mark.parametrize("kind, n", [("sobol", 2 ** 32 - 1), ("halton", 10 ** 12)])
def test_closed_form_max_traces_generate_no_blocks(fixtures, monkeypatch, kind, n):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a closed-form max trace generated a sample block")

    monkeypatch.setattr(sampling, "_sobol_blocks", no_blocks)
    monkeypatch.setattr(sampling, "_halton_blocks", no_blocks)
    _, net, box = fixtures["obcl"]
    marks = tuple(10 ** k for k in range(1, len(str(n))))
    est, trace = k_lower_trace(net, box, kind, n, mode="max", checkpoints=marks)
    assert [at for at, _ in trace] == list(marks)
    values = [v for _, v in trace] + [est.value]
    assert all(a <= b for a, b in zip(values, values[1:]))
