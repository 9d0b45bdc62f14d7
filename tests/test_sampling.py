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
from wdn_lipschitz.inp import (JunctionDesc, NetworkDescription, PipeDesc, PumpDesc,
                               ReservoirDesc, ValveDesc)
from wdn_lipschitz import cli, sampling
from wdn_lipschitz.sampling import (
    _DIRECTIONS_FILE,
    _DIRECTIONS_SHA256,
    SAMPLER_KINDS,
    _first_primes,
    _fold_digits,
    _halton_extremes,
    _halton_hull,
    _scale_into_box,
    _sobol_hull,
    _sobol_matrix,
    sobol_max_dimension,
)

from conftest import (
    FIXTURE_NAMES,
    make_box,
    make_random_network,
    make_single_pipe,
    reference_link_derivative,
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

    def spy(self, first, count):
        walked.append((first, threading.current_thread(), np.geterr()))
        return blocks(self, first, count)

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

    def test_bases_are_cached_read_only(self):
        primes = _first_primes(289)
        assert _first_primes(289) is primes
        assert not primes.flags.writeable
        assert len(primes) == 289 and primes[:6].tolist() == [2, 3, 5, 7, 11, 13]
        assert primes[-1] == 1879


def _greedy_extremes(mark: int, base: int) -> tuple[int, int]:
    """The indices in 1..mark of the least and the greatest radical inverse
    in base, by the digit loop: the largest power of base within mark, and
    each digit, lowest first, as large as keeps the index within mark."""
    low = 1
    while low * base <= mark:
        low *= base
    high, power = 0, 1
    while True:
        high += min(base - 1, (mark - high) // power) * power
        if power > (mark - high) // base:   # no next digit can be nonzero
            return low, high
        power *= base


_LARGEST_INDEX = 2 ** 63 - 1


@st.composite
def _marks(draw, bases):
    """A mark from 1 to 2**63 - 1: any, or b**k - 1, b**k or b**k + 1 for a
    base b drawn from bases."""
    base = draw(st.sampled_from(bases))
    k = draw(st.integers(0, math.floor(math.log(_LARGEST_INDEX, base))))
    near = min(_LARGEST_INDEX, max(1, base ** k + draw(st.integers(-1, 1))))
    return draw(st.one_of(st.just(near), st.integers(1, _LARGEST_INDEX)))


# the largest index is always a mark: there B = 2**63 in base 2, one past int64
@settings(max_examples=60, deadline=None)
@given(dim=st.one_of(st.integers(1, 5002), st.sampled_from((1, 2, 5002))), data=st.data())
def test_closed_form_halton_indices_match_the_digit_loop(dim, data):
    bases = _first_primes(dim)
    few = bases[:8].tolist() + bases[-8:].tolist()
    marks = sorted([*data.draw(st.lists(_marks(few), max_size=4), label="marks"),
                    _LARGEST_INDEX])
    got = _halton_extremes(bases, marks)
    assert got.dtype == np.int64 and got.shape == (2, len(marks), dim)
    for row, mark in enumerate(marks):
        want = [_greedy_extremes(mark, base) for base in bases.tolist()]
        assert got[0, row].tolist() == [low for low, _ in want]
        assert got[1, row].tolist() == [high for _, high in want]


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
    rows = block or sampling._block_rows("halton", dim)
    count = whole * rows + int(extra * rows)
    with block_rows(block):
        got = list(SampleSequence("halton", dim).blocks(count))
    want = _reference_halton(dim, count, rows)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flags.c_contiguous
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Blocks of up to 4,096 rows from first indices up to 2**62, where the runs
# of a base up to the rows (sampling._halton_block's tables) have high parts
# of several digits, and each base takes its own number of levels.  The
# examples are obcl's 3,628-row blocks far out, and a walk whose last
# block is shorter than the rest, which folds with the spans and tables of
# the full blocks.
@settings(max_examples=20, deadline=None)
@given(dim=st.integers(min_value=1, max_value=320),
       rows=st.integers(min_value=1, max_value=4096),
       first=st.one_of(st.integers(min_value=1, max_value=60_000),
                       st.integers(min_value=1, max_value=2 ** 62)),
       whole=st.integers(min_value=0, max_value=2),
       extra=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(dim=289, rows=None, first=2 ** 62 - 12_345, whole=1, extra=0.0)
@example(dim=289, rows=3628, first=1, whole=1, extra=0.5)
@example(dim=61, rows=4096, first=3 ** 38 - 7, whole=2, extra=0.25)
def test_halton_tabled_runs_match_digit_loop(dim, rows, first, whole, extra):
    rows = rows or sampling._block_rows("halton", dim)
    count = max(1, whole * rows + int(extra * rows))
    with block_rows(rows):
        got = [block.copy() for block in SampleSequence("halton", dim)._blocks(first, count)]
    want = _reference_halton(dim, count, rows, first)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flags.c_contiguous
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    with block_rows(rows):
        got = [block.copy() for block in SampleSequence("halton", dim)._blocks(first, count)]
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

    def test_run_table_is_cached_read_only(self):
        # and one table of the states of 0..127 and one list of run steps
        table, steps = sampling._sobol_run_table(5)
        assert sampling._sobol_run_table(5)[0] is table
        assert table.shape == (128, 5) and steps.shape == (25, 5)
        for array in (table, steps):
            with pytest.raises(ValueError):
                array[0, 0] = 1

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


def clear_halton_tables():
    """Drop every cached Halton digit table and walk plan, so that the next
    trace builds the ones it needs."""
    sampling._digit_tables.clear()
    sampling._halton_plan.cache_clear()


@contextlib.contextmanager
def table_builds():
    """The (base, span) of each digit table built while active: a Halton
    sqrt trace folds digits only to build them."""
    built = []
    fold = sampling._fold

    def spy(idx, base):
        built.append((base, len(idx)))
        return fold(idx, base)

    with patch.object(sampling, "_fold", spy):
        yield built


class TestHaltonTables:
    def test_second_trace_builds_no_table(self, fixtures):
        _, net, box = fixtures["obcl"]
        clear_halton_tables()
        with table_builds() as built:
            k_lower_trace(net, box, "halton", 10_000, mode="sqrt")
        assert len(built) == len(sampling._digit_tables) > 0
        plans = sampling._halton_plan.cache_info().currsize
        assert plans > 0
        with table_builds() as built:
            k_lower_trace(net, box, "halton", 10_000, mode="sqrt")
        assert built == []
        assert sampling._halton_plan.cache_info().currsize == plans

    # obcl's 289 links: 100,000 points walk two or three segments that start
    # on a cold cache together, switching threads often; each table is built
    # once, and a second trace, all hits, takes no lock
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_segments_build_each_table_once(self, fixtures, cpus):
        _, net, box = fixtures["obcl"]
        clear_halton_tables()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with cpu_count(cpus), segment_spy() as walked, table_builds() as built:
                k_lower_trace(net, box, "halton", 100_000, mode="sqrt")
        finally:
            sys.setswitchinterval(interval)
        assert len(walked) == cpus
        assert sorted(built) == sorted(set(built)) == sorted(sampling._digit_tables)
        with cpu_count(cpus), patch.object(sampling, "_digit_tables_lock", None):
            k_lower_trace(net, box, "halton", 100_000, mode="sqrt")

    def test_shared_tables_are_read_only(self):
        table, _ = _fold_digits(3, 27)
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_walk_plan_is_cached_read_only(self):
        # every walk of obcl's 289 links in blocks of 3,628 points shares
        # one, and each of its bases, all below 3,628, has a table
        spans, tables, weights = sampling._halton_plan(289, 3628)
        assert sampling._halton_plan(289, 3628)[0] is spans
        assert len(spans) == len(tables) == len(weights) == 289
        for array in (spans, weights, *tables):
            with pytest.raises(ValueError):
                array[0] = 1


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
        # a Halton block: 4096 points up to dimension 256, then at most
        # 2**20 values
        assert next(SampleSequence("halton", 256).blocks(10_000)).shape == (4096, 256)
        assert next(SampleSequence("halton", 289).blocks(10_000)).shape == (3628, 289)
        assert next(SampleSequence("halton", 5002).blocks(10_000)).shape == (209, 5002)

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_blocks_are_new_arrays_and_a_walk_reuses_one(self, kind):
        # a caller may keep what blocks() yields; a trace's walk drops each
        # block before the next, so its blocks are written into one array
        sequence = SampleSequence(kind, 289, seed=1)
        rows = sampling._block_rows(kind, 289)
        first, second = itertools.islice(sequence.blocks(3 * rows), 2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, next(sequence.blocks(rows)))
        first, second = itertools.islice(sequence._blocks(1, 3 * rows), 2)
        assert np.shares_memory(first, second)

    @pytest.mark.parametrize("kind", ["random", "halton", "sobol"])
    def test_negative_seed_rejected_at_construction(self, kind):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SampleSequence(kind, 3, seed=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SampleSequence("sobolev", 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"^count must be >= 0$"):
            SampleSequence("halton", 2).blocks(-1)

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    @pytest.mark.parametrize("bad", [3.0, np.float64(3.0), True, np.bool_(True), "3", None],
                             ids=["float", "float64", "bool", "bool_", "str", "None"])
    def test_integer_arguments_checked_where_given(self, kind, bad):
        # a dimension or seed when the sequence is built, a count when
        # blocks is called, not at its first block
        for name, call in (("dimension", lambda: SampleSequence(kind, bad)),
                           ("seed", lambda: SampleSequence(kind, 3, seed=bad)),
                           ("count", lambda: SampleSequence(kind, 3).blocks(bad))):
            with patch.object(SampleSequence, "_blocks",
                              side_effect=AssertionError("a block was made")):
                with pytest.raises(TypeError, match=f"^{name} must be an integer, not "):
                    call()

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_numpy_integer_arguments_are_taken(self, kind):
        sequence = SampleSequence(kind, np.int64(3), seed=np.uint8(2))
        assert sequence == SampleSequence(kind, 3, seed=2)
        assert type(sequence.dimension) is int and type(sequence.seed) is int
        assert np.array_equal(all_points(sequence, np.int32(300)), all_points(sequence, 300))


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

    def test_rejects_unknown_mode(self, three_node):
        _, net, box = three_node
        with pytest.raises(ValueError, match=r"^unknown mode 'frobenius'$"):
            k_lower_trace(net, box, "halton", 10, mode="frobenius")

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


# SHA-256 of the max-mode `convergence` CSV of each fixture, for the two
# closed-form hulls, at marks on, below and above powers of two and up to
# each sequence's range; it pins the bits that FROZEN_TRACES, which stops
# at 1e4, does not reach
CLOSED_FORM_GRID = "1,2,3,7,8,9,10,1000,4523,65535,65536,1000000,1000000000,4294967295"
FROZEN_CLOSED_FORM_CSVS = {
    ("anytown", "halton"): "d2d620527d4478667a809e31aa07e511f00d15ec4b6c32d5fa7ecc33c182d51a",
    ("anytown", "sobol"): "043908bbba4b1a41fcf9cf6c75ec618c8842d0797d8a1adc9d1d29c9b12d62ee",
    ("eight_node", "halton"): "b00e631a07b5d5ff1e7f8160a8a18a43d283c659f4db353323709442cea9a2c4",
    ("eight_node", "sobol"): "295befaea28e5351f3b20b32d12e32b315de9a8373e5ff133d0d8c8895df2a8a",
    ("net2", "halton"): "74021aa0e8290f8a14d9a9ba1ae0c4a35ba28c74c16e834d7c449a1e43f66b23",
    ("net2", "sobol"): "f31c0eb9dae85c9cd5a7f520212bfbbed8509d01a7e5d8381f0a8430b275e1ab",
    ("net3", "halton"): "41bddfde472a2f5a545317d471996b2ae896dd3b673100692c160a00f9f4bd2f",
    ("net3", "sobol"): "d9bd80fc59a8f0506a242996dac09778f4682519686a370530aabbbaf7054934",
    ("obcl", "halton"): "7ab4e078ca623c72ab369eaacf728be3867621094406027096a10eaa9e66c21e",
    ("obcl", "sobol"): "8d234c2594da666a9647839f026683de12f6c771b8f8e46679a612d04f3dc881",
    ("three_node", "halton"): "d3bc6d93a8d1931d3f01f730337a8c7149aa8c835518adf36e56019a4848a34d",
    ("three_node", "sobol"): "e862ba7752752ad428c6a3dc82e95df9534787874ed896089f643d12bb2cde1f",
}


def test_closed_form_max_csvs_match_frozen_digests(fixture_dir, tmp_path):
    got = {}
    for name, kind in FROZEN_CLOSED_FORM_CSVS:
        grid = CLOSED_FORM_GRID + (",1000000000000" if kind == "halton" else "")
        out = tmp_path / f"{name}-{kind}.csv"
        assert cli.main(["convergence", str(fixture_dir / f"{name}.inp"),
                         "--bounds", str(fixture_dir / f"{name}_bounds.csv"),
                         "--samplers", kind, "--mode", "max", "--n-grid", grid,
                         "--out", str(out)]) == 0
        got[name, kind] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == FROZEN_CLOSED_FORM_CSVS


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
    # block bound is in Halton blocks (3,628 points on obcl), per segment,
    # times the segments the trace walks.  Random and Sobol blocks are one
    # tile, and test_random_trace_memory_is_flat_in_links bounds them by
    # tiles.  A random max trace holds one sample block and
    # the two hull rows per segment.  A Halton or Sobol max trace takes its
    # hull in closed form on one thread and holds a few rows of n_links
    # values (Halton 17.1 to 17.4 float64 rows; Sobol 10.8, or 27.8 where it
    # builds its 32 uint32 rows of direction numbers, with each mark's
    # states taken from the bits of mark + 1), so a single block-sized
    # buffer fails its bound.  A sqrt trace holds one
    # sample block and one row-sum vector per segment, and evaluates in
    # place (a Halton trace 1.15 blocks per segment, with its fold's
    # scratch rows, 1.43 on one segment while it also builds its digit
    # tables; 2.0 to 2.2 with a block-sized Jacobian buffer, 6.0 before
    # the in-place pass).  One
    # more block-sized buffer per segment fails the bound.  The trace runs
    # as on one, two and three CPUs.
    _, net, box = fixtures["obcl"]
    row_bytes = net.n_links * 8
    closed_form = mode == "max" and kind != "random"
    sobol_max_dimension()  # the direction table is parsed once per process
    for cpus in (1, 2, 3):
        with cpu_count(cpus), segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, kind, 20_000, mode=mode)
        segments = len(walked)
        assert segments == (0 if closed_form else cpus)
        halton_block = sampling._block_rows("halton", net.n_links) * row_bytes
        per_segment = 48 * row_bytes if closed_form else 1.5 * halton_block
        assert peak <= max(1, segments) * per_segment


# obcl's 289 links give random and Sobol blocks of 226 points; Halton
# blocks are 4096 points at any dimension up to 256, so Halton runs on
# three_node's 2 links, where 4,104 one-point blocks stay quick
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
    # A Halton block on 5,002 links is 209 points, at most 2**20 values
    # (8 MiB).  Each segment of a sqrt trace writes every block of its
    # walk into one array and evaluates it in place; the rest is the
    # tables of the 46 bases up to 209, shared by the segments, and per
    # segment a chunk of link-major scratch of about a tile and the row
    # sums: 1.09 to 1.11 x 2**20 values per segment measured.  The bound
    # is per segment, times the segments the trace walks, so on two CPUs
    # it is what scale-5k's Halton trace may hold; one more block-sized
    # buffer per segment fails it.  The trace runs as on one, two and
    # three CPUs.
    net, box = scale_network
    for cpus in (1, 2, 3):
        with cpu_count(cpus), segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, "halton", 10_000, mode="sqrt")
        assert len(walked) == cpus
        assert peak <= cpus * 1.25 * 2 ** 20 * 8


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


# A closed-form max trace reads its marks in chunks whose hull, both rows
# of each mark, is at most a tile, with one corner pass per chunk, so its
# memory does not grow with the checkpoints: one chunk's hull, its indices
# or states and its corner pass.  Measured: Halton 0.12 tiles with one
# checkpoint and 5.2 with 1,000 on obcl (113 marks a chunk), 1.6 and 5.0 on
# the scale network (6 marks a chunk); Sobol 0.11 and 5.2 on obcl.  Bound:
# eight tiles, for one checkpoint and for 1,000; one pass over all 1,000
# marks fails it.
@pytest.mark.parametrize("name, kind", [("obcl", "halton"), ("obcl", "sobol"),
                                        ("scale", "halton")])
def test_closed_form_max_trace_memory_does_not_grow_with_checkpoints(fixtures, scale_network,
                                                                     name, kind):
    net, box = scale_network if name == "scale" else fixtures[name][1:]
    n = 10 ** 6
    k_lower_trace(net, box, kind, 1)  # the cached bases or direction numbers
    for checkpoints in (1, 1000):
        marks = tuple(range(1, n, n // checkpoints))[:checkpoints]
        with segment_spy() as walked:
            peak = traced_peak(k_lower_trace, net, box, kind, n, checkpoints=marks)
        assert walked == []
        assert peak <= 8 * sampling._TILE_VALUES * 8


# Two pumps whose corner derivative 3 q**2 passes the float range above
# q = sqrt(max / 3): PU1 (the first coordinate) from 0.8 of its range up,
# PU2 from half of it.  Halton's first point is (1/2, 1/3) and Sobol's
# (1/2, 1/2); the hull first passes PU2's edge at mark 2 (Halton, 2/3) or
# 3 (Sobol, 3/4), and PU1's at mark 7.  Every mark is read in one corner
# pass, or one pass per mark, and the error is that of the first failing
# mark's first failing link, as when each mark had its own pass.
@pytest.mark.parametrize("tile", [None, 4])
@pytest.mark.parametrize("kind, message", [
    ("halton", "link 'PU2': |df/dq| at flow 9.805268588953863e+153 overflows a float"),
    ("sobol", "link 'PU2': |df/dq| at flow 1.1030927162573097e+154 overflows a float")])
def test_overflow_at_a_later_checkpoint_names_its_first_link(kind, message, tile):
    pump = functools.partial(PumpDesc, from_node="R1", to_node="J1", shutoff_head=1.0,
                             curve_coeff=1.0, curve_exponent=3.0, speed=1.0)
    net = build_network(NetworkDescription(
        headloss_exponent=2.0, junctions=[JunctionDesc("J1", 0.0)],
        reservoirs=[ReservoirDesc("R1", 0.0)], tanks=[], pipes=[],
        pumps=[pump(id="PU1"), pump(id="PU2")], valves=[]))
    edge = math.sqrt(sys.float_info.max / 3)
    box = make_box(net, {"PU1": (1.0, edge / 0.8), "PU2": (1.0, 1.9 * edge)})
    assert math.isfinite(k_lower_trace(net, box, kind, 1)[0].value)
    tiles = contextlib.nullcontext() if tile is None else patch.object(sampling, "_TILE_VALUES",
                                                                       tile)
    with tiles, pytest.raises(BoundsError) as got:
        k_lower_trace(net, box, kind, 10, checkpoints=(1, 2, 3, 7))
    assert str(got.value) == message


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
# tile and a Halton block 3,628 points.  n makes up to three segments of
# at least four tiles, and marks fall inside blocks, on and next to a
# block edge, and far apart, so that one cut between two marks would span
# many tiles and a block edge.  A recording fold keeps each segment's cuts
# and the points it had taken at each read.
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_walk_cuts_are_at_most_one_tile(kind):
    dim = 289
    rows = sampling._tile_rows(dim)
    assert rows == 226
    block = sampling._block_rows(kind, dim)
    n = block + 12 * rows + 17
    marks = sorted({1, 100, block - 1, block, block + 1, block + rows + 50, n})
    sequence = SampleSequence(kind, dim, seed=2)
    points = all_points(sequence, n)
    for cpus in (1, 2, 3):
        segments = []

        def fold():
            cuts, reads = [], []
            segments.append((cuts, reads))

            def read():
                reads.append(sum(map(len, cuts)))
                return 0.0

            return lambda p: cuts.append(p.copy()), read

        with cpu_count(cpus):
            trace = sampling._segment_walk(sequence, marks, fold)
        assert [mark for mark, _ in trace] == marks
        assert len(segments) == cpus
        edges = [n * s // cpus for s in range(cpus + 1)]
        firsts = [cuts[0][0].tobytes() for cuts, _ in segments]
        for lo, hi in zip(edges, edges[1:]):
            cuts, reads = segments[firsts.index(points[lo].tobytes())]
            assert all(1 <= len(cut) <= rows for cut in cuts)
            assert np.array_equal(np.concatenate(cuts), points[lo:hi])
            assert reads == ([m - lo for m in marks if lo < m <= hi]
                             + ([hi - lo] if hi < n else []))


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
    with block_rows(rows):
        got = [block.copy() for block in sequence._blocks(first, count)]
    assert [len(block) for block in got] == [min(rows, count - done)
                                             for done in range(0, count, rows)]
    if kind == "random":
        stream = np.random.Generator(np.random.PCG64(seed)).random((first + count - 1, dim))
    else:
        stream = all_points(sequence, first + count - 1)
    assert np.array_equal(np.concatenate(got).view(np.uint64),
                          stream[first - 1:].view(np.uint64))


def assert_segment_count_changes_no_bit(net, box, kind, mode, n, counts):
    """Run the trace of n points as on each CPU count of counts, with marks
    on and next to every segment edge of every count, n // 2 and n marked
    twice, and check the segments each walks and that every trace has the
    same bits."""
    edges = {n * s // k for k in counts for s in range(1, k)}
    marks = tuple(sorted([*{m for e in edges for m in (e - 1, e, e + 1)}, 1, n // 2, n]))
    closed_form = mode == "max" and kind != "random"
    traces = []
    interval = sys.getswitchinterval()
    for cpus in counts:
        # more segments than this machine may have cores, switching threads
        # often, and the shared per-process tables built while they run
        clear_halton_tables()
        sampling._sobol_matrix.cache_clear()
        sampling._sobol_run_table.cache_clear()
        sys.setswitchinterval(1e-5)
        try:
            with cpu_count(cpus), segment_spy() as walked:
                est, trace = k_lower_trace(net, box, kind, n, mode=mode, seed=3,
                                           checkpoints=marks)
        finally:
            sys.setswitchinterval(interval)
        segments = 0 if closed_form else cpus
        assert sorted(first for first, _, _ in walked) == [n * s // segments + 1
                                                           for s in range(segments)]
        assert len({thread for _, thread, _ in walked}) == segments
        assert [thread for first, thread, _ in walked if first == 1] == (
            [threading.current_thread()] if segments else [])
        assert [at for at, _ in trace] == list(marks)
        traces.append([v.hex() for _, v in trace] + [est.value.hex()])
    assert all(trace == traces[0] for trace in traces)


# obcl's 289 links: a tile is 226 points, so 4,523 points (a multiple of
# none of 2, 3 and 5) make up to five segments of at least four tiles.
# On two or more CPUs each Halton segment is one block of at most 3,628
# points; test_halton_sqrt_trace_on_scale_network_walks_segments walks
# several blocks per segment.
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("mode", ["max", "sqrt"])
def test_traces_do_not_depend_on_segment_count(fixtures, kind, mode):
    _, net, box = fixtures["obcl"]
    assert_segment_count_changes_no_bit(net, box, kind, mode, 4523, (1, 2, 3, 5))


# The scale network's 5,002 links: a Halton block is 209 points and a tile
# 13, so 1,301 points make up to three segments of three to seven blocks
# each, and in every block the bases from 210 up to its last index are
# folded by two runs (sampling._halton_two_runs).
def test_halton_sqrt_trace_on_scale_network_walks_segments(scale_network):
    net, box = scale_network
    assert sampling._block_rows("halton", net.n_links) == 209
    assert_segment_count_changes_no_bit(net, box, "halton", "sqrt", 1301, (1, 2, 3))


def test_segment_count_rule():
    # one segment per CPU, each of at least four tiles' points, whatever
    # the kind: Halton, random and Sobol traces walk alike
    count = sampling._segment_count
    with cpu_count(2):
        assert count(1000, 289) == 1      # a certify-sized trace
        assert count(1807, 289) == 1
        assert count(1808, 289) == 2
        assert count(10 ** 9, 289) == 2
        assert count(7, 2 ** 20) == 1      # a tile is one point
        assert count(8, 2 ** 20) == 2
    with cpu_count(1):
        assert count(10 ** 9, 289) == 1
    with cpu_count(5):
        assert count(10 ** 9, 289) == 5


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

        def some_fail(self, first, count):
            for i, block in enumerate(blocks(self, first, count)):
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

    # 10,000 points on three CPUs would walk three segments
    @pytest.mark.parametrize("n, checkpoints, what", [
        (1e4, (), "n"), (np.float64(1e4), (), "n"), (True, (), "n"), ("10000", (), "n"),
        (10_000, (10.5,), "a checkpoint"), (10_000, (10, False), "a checkpoint"),
        (10_000, (np.bool_(True),), "a checkpoint"), (10_000, (None,), "a checkpoint")])
    def test_counts_are_integers_checked_before_any_thread(self, fixtures, n, checkpoints,
                                                           what):
        _, net, box = fixtures["obcl"]
        with cpu_count(3), patch.object(threading, "Thread", no_thread), \
                patch.object(sampling, "SampleSequence",
                             side_effect=AssertionError("a sequence was built")):
            for kind in SAMPLER_KINDS:
                for mode in ("max", "sqrt"):
                    with pytest.raises(TypeError, match=f"^{what} must be an integer, not "):
                        k_lower_trace(net, box, kind, n, mode=mode, checkpoints=checkpoints)

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0), True, np.bool_(True), "1", None],
                             ids=["float", "float64", "bool", "bool_", "str", "None"])
    def test_seed_is_an_integer_checked_before_any_thread(self, fixtures, seed):
        _, net, box = fixtures["obcl"]
        with cpu_count(3), patch.object(threading, "Thread", no_thread), \
                patch.object(SampleSequence, "_blocks",
                             side_effect=AssertionError("a block was made")):
            for kind in SAMPLER_KINDS:
                for mode in ("max", "sqrt"):
                    with pytest.raises(TypeError, match="^seed must be an integer, not "):
                        k_lower_trace(net, box, kind, 10_000, mode=mode, seed=seed)

    def test_numpy_integer_counts_are_taken(self, fixtures):
        _, net, box = fixtures["obcl"]
        for kind in SAMPLER_KINDS:
            for mode in ("max", "sqrt"):
                est, trace = k_lower_trace(net, box, kind, np.int64(300), mode=mode,
                                           checkpoints=(np.uint16(10), np.int32(200)))
                assert type(est.effort) is int and est.effort == 300
                assert [type(at) for at, _ in trace] == [int, int]
                assert (est, trace) == k_lower_trace(net, box, kind, 300, mode=mode,
                                                     checkpoints=(10, 200))

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

        def slow(self, first, count):
            if first > 1:
                time.sleep(0.2)
            return blocks(self, first, count)

        before = threading.active_count()
        with cpu_count(3), patch.object(SampleSequence, "_blocks", slow), \
                segment_spy() as walked, \
                patch.object(sampling, "corner_of", side_effect=ValueError("stop")):
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
    # the hull and the tile walk must reproduce.  In max mode each mark's
    # value is also k_network over the box that points 1..mark span.
    q = all_points(SampleSequence(kind, net.n_links, seed), n)
    q = np.clip(box.lo + q * (box.hi - box.lo), box.lo, box.hi)
    if mode == "max":
        rows = [max(reference_link_derivative(net, pos, abs(x)) for pos, x in enumerate(point))
                for point in q.tolist()]
    else:
        g = jacobian_diag_batch(net, q)
        rows = np.sqrt(np.einsum("ij,ij->i", g, g))
    running = np.maximum.accumulate(rows)
    expected = [float(running[m - 1]) for m in marks]
    if mode == "max":
        spanned = [k_network(net, FlowBox(box.link_ids, box.kinds, q[:m].min(axis=0),
                                          q[:m].max(axis=0))).value for m in marks]
        assert [v.hex() for v in spanned] == [v.hex() for v in expected]
    return expected


def _assert_trace_matches_brute_force(net, box, kind, seed, block, whole, extra, data, mode):
    # marks on every block edge, at 1 and n, and a few drawn between (none
    # in an explicit example, whose data is None)
    n = block * whole + extra
    edges = {block * k for k in range(1, whole + 1)}
    others = [] if data is None else data.draw(st.lists(st.integers(1, n), max_size=4))
    marks = sorted(edges | set(others) | {1, n})
    with block_rows(block):
        est, trace = k_lower_trace(net, box, kind, n, mode=mode, seed=seed,
                                   checkpoints=tuple(marks))
    expected = _brute_force_trace(net, box, kind, seed, n, marks, mode)
    assert [at for at, _ in trace] == marks
    assert [v.hex() for _, v in trace] == [v.hex() for v in expected]
    assert est.value.hex() == expected[-1].hex()


def collapsed(box: FlowBox, collapse: str) -> FlowBox:
    """box with no link ("none"), every other link ("some") or every link
    ("all") collapsed to its upper bound, where every sample is the same
    flow."""
    if collapse == "none":
        return box
    step = 2 if collapse == "some" else 1
    lo = box.lo.copy()
    lo[::step] = box.hi[::step]
    return dataclasses.replace(box, lo=lo)


# Networks from make_random_network have pipe and valve boxes that cross
# zero and pump boxes near zero flow; "some" and "all" collapse links to
# their upper bound.  Tiles of a few values put tile edges inside the
# cuts, and make a random trace walk up to three segments.
@settings(max_examples=80, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       seed=st.integers(0, 5), block=st.integers(1, 300), whole=st.integers(1, 5),
       extra=st.integers(0, 299), collapse=st.sampled_from(("none", "some", "all")),
       tile=st.integers(1, 200), data=st.data())
def test_max_trace_matches_brute_force(net_seed, kind, seed, block, whole, extra,
                                       collapse, tile, data):
    net, box = make_random_network(np.random.default_rng(net_seed))
    with cpu_count(3), patch.object(sampling, "_TILE_VALUES", tile):
        _assert_trace_matches_brute_force(net, collapsed(box, collapse), kind, seed, block,
                                          whole, extra, data, "max")


# the same walk over blocks cut at the marks and at tile edges, on up to
# three segments, where each cut drops the rows its linear bound rules out
# (_sqrt_bound).  Network 9 has 10 links, two of them pumps with nu 1.18
# and 1.13, whose bound is a tangent; its Sobol trace drops most rows.
@settings(max_examples=40, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       seed=st.integers(0, 5), block=st.integers(1, 300), whole=st.integers(1, 5),
       extra=st.integers(0, 299), collapse=st.sampled_from(("none", "some", "all")),
       tile=st.integers(1, 200), data=st.data())
@example(net_seed=9, kind="sobol", seed=0, block=300, whole=5, extra=299, collapse="none",
         tile=200, data=None)
@example(net_seed=9, kind="random", seed=1, block=300, whole=5, extra=299, collapse="all",
         tile=200, data=None)
def test_sqrt_trace_matches_brute_force(net_seed, kind, seed, block, whole, extra, collapse,
                                        tile, data):
    net, box = make_random_network(np.random.default_rng(net_seed))
    with cpu_count(3), patch.object(sampling, "_TILE_VALUES", tile):
        _assert_trace_matches_brute_force(net, collapsed(box, collapse), kind, seed, block,
                                          whole, extra, data, "sqrt")


def _assert_bound_holds(net, box, kind, corners):
    """At 1,000 sampled points, the unit cube's two corners and 20 points
    mixing the two, drawn by the seed corners, the computed row sum is at
    most base + p @ slope + slack."""
    width = box.hi - box.lo
    base, slope, slack = sampling._sqrt_bound(net, box, width)
    top = 1 - 2.0 ** -53
    mixed = np.random.default_rng(corners).integers(0, 2, (20, net.n_links)) * top
    p = np.concatenate([all_points(SampleSequence(kind, net.n_links, 2), 1000),
                        np.zeros((1, net.n_links)), np.full((1, net.n_links), top), mixed])
    q = _scale_into_box(p.copy(), box, width)
    g = sampling._jacobian_diag_into(net, q, q)
    assert np.all(np.einsum("ij,ij->i", g, g) <= p @ slope + base + slack)


# The linear bound a sqrt trace drops rows by (_sqrt_bound), checked
# directly.  A quarter of make_random_network's pumps have nu below 1.5,
# where the bound is the tangent at hi (network 9 has two, and network 21
# one at nu 1.443); the collapsed links have w = 0.
@settings(max_examples=150, deadline=None)
@given(net_seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(SAMPLER_KINDS),
       collapse=st.sampled_from(("none", "some", "all")), corners=st.integers(0, 2 ** 32 - 1))
@example(net_seed=9, kind="sobol", collapse="none", corners=0)
@example(net_seed=21, kind="halton", collapse="some", corners=1)
def test_sqrt_bound_holds_at_every_point(net_seed, kind, collapse, corners):
    net, box = make_random_network(np.random.default_rng(net_seed))
    _assert_bound_holds(net, collapsed(box, collapse), kind, corners)


# A head-loss exponent below 1.5 makes a pipe's or a valve's square
# concave in |q| (2e = 0.4 here), so a box across or down to zero takes
# the larger end, and only a box above zero the tangent at hi, which is
# closest to the square on a narrow box.
@pytest.mark.parametrize("lo, hi", [(-10.0, 5.0), (-5.0, 10.0), (-3.0, 3.0), (0.0, 10.0),
                                    (2.0, 10.0), (1e-9, 10.0), (9.99, 10.0), (3.0, 3.0)])
def test_sqrt_bound_holds_on_concave_pipes(lo, hi):
    desc = dataclasses.replace(make_single_pipe(0.01, 1.2),
                               valves=[ValveDesc("V1", "J2", "J1", 0.02, 0.5)])
    net = build_network(desc)
    box = make_box(net, {"P1": (lo, hi), "V1": (-hi, -lo)})
    for kind in SAMPLER_KINDS:
        _assert_bound_holds(net, box, kind, 3)


@contextlib.contextmanager
def evaluated_rows():
    """While active, records the thread and the row count of each Jacobian
    pass a trace makes, the bound's pass over the box's ends first."""
    rows = []
    evaluate = sampling._jacobian_diag_into

    def spy(net, q, out):
        rows.append((threading.current_thread(), len(q)))
        return evaluate(net, q, out)

    with patch.object(sampling, "_jacobian_diag_into", spy):
        yield rows


# On obcl the bound rules out most points once a segment's best is set:
# about 11 % of a 20,000-point Sobol trace's rows are evaluated, on one,
# two or three segments.  Every value keeps its bits.
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sqrt_trace_evaluates_few_rows_on_obcl(fixtures, cpus):
    _, net, box = fixtures["obcl"]
    with cpu_count(cpus), evaluated_rows() as rows:
        est, trace = k_lower_trace(net, box, "sobol", 20_000, mode="sqrt",
                                   checkpoints=(1, 226, 227, 10_000))
    assert rows[0] == (threading.current_thread(), 2)
    assert len({thread for thread, _ in rows}) == cpus
    assert sum(count for _, count in rows[1:]) < 0.25 * 20_000
    with patch.object(sampling, "_sqrt_bound", lambda *args: None):
        assert k_lower_trace(net, box, "sobol", 20_000, mode="sqrt",
                             checkpoints=(1, 226, 227, 10_000)) == (est, trace)


# On the scale network's V-shaped boxes the bound stays above the best
# sum, so no row is dropped, and a segment bounds its cuts 2, 4, 7, 12,
# 21, ..., 2**k + k + 1: each bounded cut that drops nothing skips the
# next 1, 2, 4, ... cuts, so a segment of c cuts bounds about log2(c).
@pytest.mark.parametrize("cpus", [1, 2])
def test_sqrt_bound_backs_off_where_it_drops_nothing(scale_network, cpus):
    net, box = scale_network
    bounded = []
    drop = sampling._drop_rows

    def spy(q, *args):
        kept = drop(q, *args)
        bounded.append((threading.current_thread(), len(q), kept))
        return kept

    with cpu_count(cpus), evaluated_rows() as rows, patch.object(sampling, "_drop_rows", spy):
        k_lower_trace(net, box, "random", 3000, mode="sqrt")
    assert all(kept == count for _, count, kept in bounded)
    cuts = rows[1:]
    assert sum(count for _, count in cuts) == 3000
    threads = {thread for thread, _ in cuts}
    assert len(threads) == cpus
    for thread in threads:
        walked = sum(1 for t, _ in cuts if t is thread)
        assert walked > 100
        assert (sum(1 for t, _, _ in bounded if t is thread)
                == sum(1 for k in range(walked) if 2 ** k + k + 1 <= walked))


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
        headloss_exponent=mu,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[],
        pipes=[PipeDesc("P1", "J1", "J2", r_pipe)],
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
    # chunks of one mark, of two and of every mark
    hull_of = _sobol_hull if kind == "sobol" else _halton_hull
    want = _hulls_of_points(kind, dim, marks)
    for rows in (1, 2, len(marks)):
        chunks = [hull_of(dim, marks[start:start + rows])
                  for start in range(0, len(marks), rows)]
        assert [len(hull[0]) for hull in chunks] == [
            min(rows, len(marks) - start) for start in range(0, len(marks), rows)]
        got = [(p_min, p_max) for hull in chunks for p_min, p_max in zip(*hull)]
        for (p_min, p_max), (q_min, q_max) in zip(got, want, strict=True):
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


def _sobol_hulls_by_blocks(dim, marks):
    """The Sobol hull at each of the nondecreasing marks, walked the long
    way: points 1..marks[-1] in aligned dyadic blocks [a*2**k, (a+1)*2**k),
    cut at every mark, with running minima and maxima carried across the
    marks.  A block's states are its first state, the XOR of v[p] over the
    set bits p of its gray code, with the top k bits cleared or set."""
    v = _sobol_matrix(dim)
    p_min = np.full(dim, 2 ** 32 - 1, dtype=np.uint32)
    p_max = np.zeros(dim, dtype=np.uint32)
    hulls, first = [], 1
    for mark in marks:
        while first <= mark:
            k = (first & -first).bit_length() - 1
            while first + (1 << k) > mark + 1:
                k -= 1
            gray = first ^ (first >> 1)
            state = np.zeros(dim, dtype=np.uint32)
            for p in range(gray.bit_length()):
                if gray >> p & 1:
                    state ^= v[p]
            kept = np.uint32((1 << (32 - k)) - 1)
            p_min = np.minimum(p_min, state & kept)
            p_max = np.maximum(p_max, state | ~kept)
            first += 1 << k
        hulls.append(np.stack([p_min, p_max]) * 0.5 ** 32)
    return np.stack(hulls, axis=1)


# marks anywhere up to Sobol's last index, always with that index and a
# power of two, one below it and one above it
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 1111), power=st.integers(1, 31),
       others=st.lists(st.integers(1, 2 ** 32 - 1), max_size=6))
def test_sobol_hull_matches_the_dyadic_block_walk(dim, power, others):
    marks = sorted({*others, 2 ** power - 1, 2 ** power, 2 ** power + 1, 2 ** 32 - 1})
    want = _sobol_hulls_by_blocks(dim, marks)
    for rows in (1, 2, len(marks)):
        got = np.concatenate([_sobol_hull(dim, marks[start:start + rows])
                              for start in range(0, len(marks), rows)], axis=1)
        assert got.shape == (2, len(marks), dim)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, n", [("sobol", 2 ** 32 - 1), ("halton", 10 ** 12)])
def test_closed_form_max_traces_generate_no_blocks(fixtures, monkeypatch, kind, n):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a closed-form max trace generated a sample block")

    monkeypatch.setattr(sampling, "_sobol_fill", no_blocks)
    monkeypatch.setattr(sampling, "_halton_fill", no_blocks)
    _, net, box = fixtures["obcl"]
    marks = tuple(10 ** k for k in range(1, len(str(n))))
    est, trace = k_lower_trace(net, box, kind, n, mode="max", checkpoints=marks)
    assert [at for at, _ in trace] == list(marks)
    values = [v for _, v in trace] + [est.value]
    assert all(a <= b for a, b in zip(values, values[1:]))
