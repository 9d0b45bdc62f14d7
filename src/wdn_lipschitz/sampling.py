"""Point-based under-approximation of Lipschitz constants.

SampleSequence(kind, dimension, seed) yields deterministic points in the
half-open unit cube [0,1)^d, in blocks (``blocks(n)``).
A random or Sobol block is one tile of at most 2**16 values (512 KiB):
its cost is per value, so a trace generates, reduces or scales, and
evaluates each block while it is still in a core's cache.  A Halton
block costs a few numpy calls per block, one per base up to its rows and
per level of that base's high digits (one level for most bases), and a
few per tile of the bases above them, so it is larger than a tile: at
most 4096 points and 2**20 values (8 MiB; 209 points at 5,002 dimensions).
One generator makes every block (``SampleSequence._blocks``): it writes
each block of a walk into one array, allocated once per walk, and a
trace's walk drops each block before the next; ``blocks(n)`` yields a
copy of each, which a caller may keep.  Every
value depends only on its index, so block size never changes a point,
and a block can start at any index (see segments, below):

* ``random``: numpy's PCG64 generator with an explicit seed.  PCG64 draws
  exactly one 64-bit value per double however the draws are cut, so value
  k of the stream is draw k, and the blocks from point first start at
  PCG64(seed) advanced (jumped ahead, in O(log n)) by
  (first - 1) * dimension draws.  Segments rest on this;
* ``halton``: coordinate k of point j is the radical inverse of j+1 in the
  k-th prime base (Halton 1960), its digits folded low first: ``f /= b``,
  then ``r += digit * f``.  A block is built from runs of consecutive
  indices, not one digit loop per index.  For a base b up to the block's
  rows, the fold of the low k digits (b**k the largest power within the
  rows) is a table built once per process (a segment that misses it
  builds it under a lock, and a hit takes none; a walk's spans and tables
  are cached per dimension and block rows), and each run of equal high
  part is that table plus the fold of the run's few high digits, added in
  the same order.  A base's runs are one grid, written over its row and
  past its ends, with one add per level of high digits, the first fused
  with the table copy; the high digits of every run of every such base
  are taken one level at a time in one array.  A base above the rows
  meets at most two runs, the second from where its low digit wraps, so
  all such bases are folded together by whole-array steps: the low
  digit of row r, (first mod b) + r less b after the wrap, times
  fl(1/b), then, one level at a time, each high digit of the row's run
  times the weight, divided by b at each level.  A base above the block's
  last index leaves every index j one digit, j * (1/b), so all such bases
  take one multiply.  A digit that a shorter index lacks adds +0.0, which
  is exact, so every value has the bits of the plain digit loop.  Bases
  are folded link-major, at least 16 at a time or, where bases above the
  rows take two runs, up to a tile's values of them, and copied
  transposed into the C-contiguous block;
* ``sobol``: the classic 32-bit Gray-code construction driven by the shipped
  Joe-Kuo direction-number table (dimensions 2..1111; dimension 1 is the van
  der Corput sequence).  Generation starts at index 1, so the first point is
  (0.5, ..., 0.5) and the origin corner of the flow box is never sampled.
  The state of index i is the XOR of the direction numbers v[k] over the
  set bits k of gray(i) = i ^ (i >> 1) (Antonov & Saleev 1979).  Over an
  aligned run i = 128r + t, t < 128, gray(i) >> 7 = gray(r) and
  gray(i) & 127 = gray(t) ^ ((r & 1) << 6), so the state of i is the state
  of 128r XOR the state of t.  A block is built run by run: a table of the
  states of 0..127 (the XOR span of v[0..6]; built once per dimension, with
  the run steps), XORed with the run's first
  state, which steps to the next run by one XOR,
  v[6] ^ v[7 + trailing zeros of r+1].  States are uint32 and
  float(uint32) * 2**-32 is exact, so every value has the bits of the
  per-point loop.  Each run is XORed into one uint32 array of the block's
  rows, and the block is scaled from it once.

The table file is integrity-checked against a pinned SHA-256 before use.
Sobol indexes at most 2**32 - 1 points and Halton at most 2**63 - 1 (int64
digits); asking for more raises SampleCountTooLarge.

Estimates are running maxima over sample prefixes, so they are nondecreasing
in the sample count and identical wherever block edges fall.
A sample p maps into the flow box as ``p*w + lo``, then a clip at hi, with
``w = hi - lo`` computed once; the sum never falls below lo (see
``_scale_into_box``).

A ``max`` trace evaluates no Jacobian on sample points.  At each
checkpoint n it reads the hull of points 1..n, the per-coordinate minimum
and maximum of the unit samples, maps those two rows into the box and
reads K from their Corner record, made by the function that makes the
box's (analytical.corner_of), so point_max(n) is k_network over the box
that the scaled points 1..n span, bit for bit.  Each step of the map is
nondecreasing in p, so a coordinate's smallest and largest flow are the
images of its hull entries, and every entry is nondecreasing in ``|q_i|``.
So, with libm's ``pow`` monotone, the hull gives the largest derivative
over all sampled points, and never more than K, since each hull flow is a
sampled flow inside the box.  A random hull is reduced from the sample
blocks, one tile-sized block at a time, by segment (below).  Halton and
Sobol hulls are taken in closed form in O(d log n), with the bits of the
generated points (for Halton up to a bound on n, below): they generate
no points, and their cost does not depend on n.  They are taken for a
chunk of marks at a time, in whole arrays, the chunk's hull rows at most
a tile, and each chunk is read by one corner pass over its stacked rows,
so a trace makes one pass per chunk, and its memory does not grow with
the checkpoint count.

* Sobol: let K be the top bit of N = n + 1.  Then [0, n] is [0, 2**K)
  and, for each set bit k < K of N, the block [F_k, F_k + 2**k), F_k
  being N with bits 0..k cleared.  Each v[k] is m_k << (31-k) with m_k
  odd, so v[0..k-1] span every value whose low 32-k bits are zero, and
  gray is a bijection on [0, 2**K), so [1, 2**K) gives every nonzero
  multiple of 2**(32-K): its hull is 2**(32-K) and 2**32 - 2**(32-K).
  Since gray(F_k + t) = gray(F_k) ^ gray(t) for t < 2**k, a block's
  states are its first state XOR that span: they keep its low 32-k bits,
  and clearing or setting its top k bits gives the least and greatest
  state.  gray(F_k) agrees with gray(N) above bit k, has N's bit
  k+1 at bit k and is 0 below, so state(F_k) = A_{k+1} ^ (bit k+1 of N) *
  v[k], with A_j the XOR of v[p] over the set bits p >= j of gray(N);
  since bit k of N is set, that is A_k ^ v[k].  So one pass over k, from
  the chunk's top bit down, accumulates A and updates the minima and
  maxima of the marks with a block at k, in O(marks * d) memory, and no
  state passes from one mark to the next.
* Halton: the radical inverse orders indices by their reversed digits.  The
  minimum over [1, n] is at the largest power of b within n.  The maximum
  is at q*B + B - 1, with B the largest power of b within n + 1 and
  q = (n - (B - 1)) // B: its digits are b - 1 below B's position and
  (n + 1) // B - 1 at it, the digits the greedy choice, lowest first,
  each as large as keeps the index within n, would take
  (_halton_extremes has the proof).  Both indices of every mark of a chunk
  and every base are taken in whole arrays and folded in one fold, in the
  digit loop's own order.  Every other index's fold adds a term at least
  the minimum's, so the minimum has the generated bits at any n.  The
  exact radical inverses of distinct indices differ by at least
  b**-(K+1), K = floor(log_b n), and a fold errs by under
  (2K+3) * 2**-53, so the maximum has the generated bits wherever
  b**(K+1) * (2K+3) < 2**52: at every base of 5,002 dimensions up to
  n = 1e11.  Past that it is the fold of the index with the largest exact
  radical inverse, still a sampled point.

A trace that walks sample blocks (a random ``max`` trace, and a random,
Halton or Sobol ``sqrt`` trace) splits points 1..n into contiguous
segments, one per CPU the process may run on (os.sched_getaffinity, or
os.cpu_count where that is missing); there is no option for it.  Each
segment holds at least four tiles of points, so a shorter trace is one
segment, and starts no thread.  The first segment is walked on the
calling thread and each other one on a thread of its own (numpy releases
the GIL in its generators and array passes, such as a sqrt trace's
``power``; a Halton block's per-base calls hold it).  One loop walks a
segment (``_segment_walk``): it builds the segment's blocks from its
first index, cuts them at the marks inside it, at its own end, at block
ends and at tile edges, so each cut is at most one tile of 2**16 values
(512 KiB), and hands each cut to the trace's fold.  A fold, ``fold() ->
(take, read)``, starts one segment's state; ``take`` folds a cut in, and
``read`` gives one float at each cut that ends at a mark or the
segment's end.  The ``max`` fold holds two hull rows, and reads K from
that hull's Corner record, one corner pass per read.  The ``sqrt`` fold
scales a cut and evaluates its Jacobian in place, writes its row sums into
one vector of a tile's rows, so each cut's passes stay in cache, and reads
its largest sum.  Once that sum is above 0, it first takes a linear upper
bound of each row's sum, one matvec of the unit samples with a slope row
built once per trace (``_sqrt_bound``, which has the proof), in the same
vector, drops every row whose bound is below the best sum less a derived
slack, a row whose sum could not raise it, moves the rest to the front of
the cut and evaluates only those.  A bounded cut that drops nothing skips
bounding for the next 1, 2, 4, ... cuts, so where the bound rules out
nothing (the V-shaped boxes of a large generated network) it costs a
matvec on about log2 of the cuts.  Once every thread is joined, the
segments join in index order by max.  For ``max`` that is the value of
the joined hull: scaling is monotone and max(|min X|, |max X|) = max |X|,
so the joined hull's corner magnitude is, per link, the larger of the
segments', and each entry, nondecreasing in ``|q_i|`` (libm's ``pow``
monotone, the premise of ``point_max <= K``), has g_i(max(a, b)) =
max(g_i(a), g_i(b)).  So every trace has the same bits for any segment
count, and hence on any machine.  The sample count is checked once for
all n before any thread starts; once every segment thread is joined, the
first error in index order is raised unchanged, and no thread outlives
the trace (a ``max`` trace names the link and flow where its first
failing segment overflowed).  Memory is per segment: one block and a
row-sum vector (with a sqrt fold's kept rows moved at most 1/32 of a tile
at a time), or two hull rows and a Corner record, plus a float per
cut, so a trace's memory grows with the CPUs, one block per segment
(8 MiB for Halton on 5,002 links), for every kind.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import operator
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Callable, Iterator

import numpy as np

from .analytical import corner_of
from .bounds import FlowBox, check_box
from .estimates import METHOD_POINT_LOWER, MODE_MAX, MODE_SQRT, LipschitzEstimate
from .errors import BoundsError, DimensionTooLarge, SampleCountTooLarge, UsageError
from .network import Network, _jacobian_diag_into

KIND_RANDOM = "random"
KIND_HALTON = "halton"
KIND_SOBOL = "sobol"
SAMPLER_KINDS = (KIND_RANDOM, KIND_HALTON, KIND_SOBOL)

_DIRECTIONS_FILE = "joe_kuo_6_1111.txt"
_DIRECTIONS_SHA256 = "2afb7368f5ad2b6ab11ad628f3c44c2fa68914bb2fe2c3987b5164c3a782501c"
_SOBOL_BITS = 32
# the most points each sequence can index: Sobol's states are _SOBOL_BITS
# wide, and Halton takes its digits from int64 indices
_MAX_COUNT = {KIND_SOBOL: 2 ** _SOBOL_BITS - 1, KIND_HALTON: 2 ** 63 - 1}
# Sobol states are built by aligned runs of 2**7 indices
_SOBOL_RUN_BITS = 7
_SOBOL_RUN = 1 << _SOBOL_RUN_BITS
# a tile: at most this many values (512 KiB of float64), so that its passes
# stay in a core's cache.  A random or Sobol block is one tile, and the
# sample walk cuts any block into cuts of at most one tile.
_TILE_VALUES = 2 ** 16
# Halton folds at least this many bases link-major, then copies them into
# the block transposed, so the block is written C-contiguous
_HALTON_CHUNK = 16


# Cached per count and read-only, since every Halton fill and hull shares it
@lru_cache(maxsize=None)
def _first_primes(count: int) -> np.ndarray:
    """The first count primes, an int64 array."""
    # the count-th prime is below count * (ln count + ln ln count) for count >= 6
    limit = 13
    if count >= 6:
        limit = int(count * (math.log(count) + math.log(math.log(count))))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)[:count].astype(np.int64)
    primes.flags.writeable = False
    return primes


@lru_cache(maxsize=None)
def _direction_rows() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The (s, a, m) rows of the shipped table, checked against its SHA-256."""
    data = resources.files("wdn_lipschitz.data").joinpath(_DIRECTIONS_FILE).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _DIRECTIONS_SHA256:
        raise RuntimeError(
            f"direction-number table checksum mismatch: {digest} != {_DIRECTIONS_SHA256}"
        )
    # the pinned table has no blank line and s direction numbers per row
    rows = []
    for line in data.decode("ascii").splitlines()[1:]:
        _, s, a, *m = (int(tok) for tok in line.split())
        rows.append((s, a, tuple(m)))
    return tuple(rows)


def sobol_max_dimension() -> int:
    return len(_direction_rows()) + 1


# Cached per dimension and read-only, since every trace shares it
@lru_cache(maxsize=None)
def _sobol_matrix(dim: int) -> np.ndarray:
    """Direction numbers as a (bits, dim) uint32 matrix; SampleSequence has
    checked dim against the table."""
    rows = _direction_rows()
    v = np.zeros((_SOBOL_BITS, dim), dtype=np.uint32)
    # dimension 1: van der Corput in base 2
    for k in range(_SOBOL_BITS):
        v[k, 0] = 1 << (_SOBOL_BITS - 1 - k)
    for j in range(1, dim):
        s, a, m = rows[j - 1]
        col = [0] * _SOBOL_BITS
        for k in range(min(s, _SOBOL_BITS)):
            col[k] = m[k] << (_SOBOL_BITS - 1 - k)
        for k in range(s, _SOBOL_BITS):
            acc = col[k - s] ^ (col[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= col[k - i]
            col[k] = acc
        v[:, j] = col
    v.flags.writeable = False
    return v


def _sobol_state(v: np.ndarray, index: int) -> np.ndarray:
    """The Gray-code state of index, a new uint32 row: the XOR of v[k] over
    the set bits k of gray(index) = index ^ (index >> 1)."""
    gray = index ^ (index >> 1)
    return np.bitwise_xor.reduce(v[[k for k in range(gray.bit_length()) if gray >> k & 1]])


# Cached per dimension and read-only, as _sobol_matrix is
@lru_cache(maxsize=None)
def _sobol_run_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, steps) of the Sobol run walk in dim dimensions: the states of
    indices 0..127, and the step from a run's first state to the next's."""
    v = _sobol_matrix(dim)
    # the states of indices 0..127, by reflection: gray(h + j) = h ^ gray(h-1-j)
    table = np.zeros((_SOBOL_RUN, dim), dtype=np.uint32)
    for k in range(_SOBOL_RUN_BITS):
        h = 1 << k
        np.bitwise_xor(table[h - 1::-1], v[k], out=table[h:2 * h])
    # from the first state of run r to that of run r+1, r+1 with k trailing zeros
    steps = v[_SOBOL_RUN_BITS - 1] ^ v[_SOBOL_RUN_BITS:]
    table.flags.writeable = steps.flags.writeable = False
    return table, steps


def _sobol_fill(dim: int, size: int) -> Callable[[int, np.ndarray], np.ndarray]:
    """fill(first, out) for Sobol blocks of at most size points."""
    states = np.empty((size, dim), dtype=np.uint32)
    return partial(_sobol_block, _sobol_matrix(dim), *_sobol_run_table(dim), states)


def _sobol_block(v: np.ndarray, table: np.ndarray, steps: np.ndarray,
                 states: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
    """Sobol points first..first+len(out)-1, written into out and returned.

    The states of a run are table XOR the state of the run's first index
    (see the module docstring).  Each run is XORed into states, which has
    room for the block, and the block is scaled from it once.
    """
    size = len(out)
    run, lead = divmod(first, _SOBOL_RUN)
    base = _sobol_state(v, first - lead)
    written = 0
    while True:
        take = min(_SOBOL_RUN - lead, size - written)
        np.bitwise_xor(table[lead:lead + take], base, out=states[written:written + take])
        written += take
        if written == size:
            return np.multiply(states[:size], 0.5 ** _SOBOL_BITS, out=out)
        run += 1
        lead = 0
        base ^= steps[(run & -run).bit_length() - 1]


def _halton_fill(dim: int, size: int, last: int) -> Callable[[int, np.ndarray], np.ndarray]:
    """fill(first, out) for Halton blocks of at most size points, none past
    index last."""
    bases = _first_primes(dim)
    # room for _HALTON_CHUNK tabled bases, each in an odd row between two
    # slack rows (see _halton_block), or for up to a tile's values of the
    # bases that some block folds by two runs: above its rows, within last
    two_runs = np.count_nonzero((bases > size) & (bases <= last))
    chunk = np.empty((max(2 * _HALTON_CHUNK + 1, min(two_runs, _TILE_VALUES // max(1, size))),
                      size))
    return partial(_halton_block, bases, chunk=chunk, plan=_halton_plan(dim, size))


# Cached per (dimension, rows) and read-only, as the digit tables it holds are
@lru_cache(maxsize=None)
def _halton_plan(dim: int, size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """(spans, tables, weights) of the first dim bases that are up to size
    rows: span the largest power of the base within size, and the table and
    weight _fold_digits gives for it."""
    bases = _first_primes(dim)
    spans, tables, weights = [], [], []
    for base in bases[:np.searchsorted(bases, size, side="right")].tolist():
        span = base
        while span * base <= size:
            span *= base
        table, weight = _fold_digits(base, span)
        spans.append(span)
        tables.append(table)
        weights.append(weight)
    spans, weights = np.array(spans, dtype=np.int64), np.array(weights)
    spans.flags.writeable = weights.flags.writeable = False
    return spans, tuple(tables), weights


def _halton_block(bases: np.ndarray, first: int, out: np.ndarray, chunk: np.ndarray,
                  plan: tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]) -> np.ndarray:
    """Halton points first..first+len(out)-1, written into out (C-contiguous)
    and returned.  chunk is scratch rows of at least len(out) values, and
    plan is the walk's _halton_plan at chunk's row length, its largest
    block.  Every later block ends past that length, so the plan's bases
    are at most its last index; a shorter block, the walk's last, folds the
    same bases from the same tables.

    Bases above the block's last index leave every index j one digit,
    j * (1/base), and take one multiply.  The others are folded link-major
    in chunk and copied transposed: the plan's bases from their tables, in
    odd rows, (len(chunk) - 1) // 2 at a time, then the rest, which are
    above the rows, together, len(chunk) at a time (_halton_two_runs).

    A tabled base's indices fall into runs of equal high part j // span,
    the first run entered at lead = first mod span.  Each run is the table
    plus the run's weighted high digits, added level by level as _fold adds
    them, so a base's runs are one (runs, span) grid, written in place from
    lead values before its row: the even rows around it are slack for the
    outer runs' ends (lead < span <= the row length).  The first level is
    added as the table is copied, and each further level is one add.  The
    high digits of every run of every tabled base are taken together, one
    level at a time, in one flat array of the runs, base after base.  Each
    base takes as many levels as the high part of its last run has digits,
    and at least one: a missing high digit adds +0.0, which leaves r >= 0
    unchanged, so every value has the bits of the digit loop run on j
    itself.
    """
    size = len(out)
    last = first + size - 1
    spans, tables, weights = plan
    tabled, folded = len(spans), int(np.searchsorted(bases, last, side="right"))
    np.multiply(np.arange(first, last + 1, dtype=float)[:, None], 1.0 / bases[folded:],
                out=out[:, folded:])
    if tabled:
        base = bases[:tabled]
        low, top = first // spans, last // spans
        counts = top - low + 1
        ends = np.cumsum(counts)
        starts = ends - counts
        # run k of a base is its high part low + k, at flat position start + k
        run_base = np.repeat(base, counts)
        high = np.arange(ends[-1]) + np.repeat(low - starts, counts)
        weight = np.repeat(weights / base, counts)
        digits = [high % run_base * weight]
        levels = np.ones(tabled, dtype=np.int64)
        top //= base
        while top.any():
            levels += top > 0
            high //= run_base
            weight /= run_base
            digits.append(high % run_base * weight)
            top //= base
        digits = np.stack(digits)[..., None]
        runs = list(zip(tables, (first % spans).tolist(), levels.tolist(),
                        starts.tolist(), ends.tolist()))
        scratch, width, step = chunk.reshape(-1), chunk.shape[1], (len(chunk) - 1) // 2
        for start in range(0, tabled, step):
            stop = min(tabled, start + step)
            for row, (table, lead, level, begin, end) in enumerate(runs[start:stop]):
                at = (2 * row + 1) * width - lead
                grid = scratch[at:at + (end - begin) * len(table)].reshape(end - begin, -1)
                np.add(table, digits[0, begin:end], out=grid)
                for k in range(1, level):
                    grid += digits[k, begin:end]
            out[:, start:stop] = chunk[1:2 * (stop - start):2, :size].T
    for start in range(tabled, folded, len(chunk)):
        stop = min(folded, start + len(chunk))
        part = chunk[:stop - start, :size]
        _halton_two_runs(part, first, bases[start:stop])
        out[:, start:stop] = part.T
    return out


# (base, span) -> _fold_digits' table, cached across sequences and calls,
# and read-only, since every caller shares it.  A table holds span values,
# span at most a block's rows, for a base up to those rows (obcl's 289 bases
# at 3,628 rows: about 2.1 MiB).  A miss builds under the lock, so segments
# that start together build each table once; a hit takes no lock.
_digit_tables: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
_digit_tables_lock = threading.Lock()


def _fold_digits(base: int, span: int) -> tuple[np.ndarray, float]:
    """Radical inverses of 0..span-1 in base, and the weight of the last
    digit folded (see _fold), built once per process."""
    table = _digit_tables.get((base, span))
    if table is None:
        with _digit_tables_lock:
            table = _digit_tables.get((base, span))
            if table is None:
                r, f = _fold(np.arange(span), base)
                r.flags.writeable = False
                table = _digit_tables[base, span] = r, float(f)
    return table


def _fold(idx: np.ndarray, base: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radical inverses of the indices idx, digits folded low first:
    f /= base, then r += digit * f.  base is one base, or one per column of
    idx, ascending.  Also returns the weight f of each column's last digit
    folded.  idx is consumed (divided down to zero in place).  A step
    touches only the leading columns up to the last one with a digit left:
    a larger base runs out of digits sooner, and a column with none left
    would only add +0.0."""
    bases = np.reshape(base, -1)
    cols = idx.reshape(-1, bases.size)
    r = np.zeros(cols.shape)
    f = np.ones(bases.size)
    digit = np.empty_like(cols)
    live = bases.size
    while live:
        part, low = cols[:, :live], digit[:, :live]
        f[:live] /= bases[:live]
        np.divmod(part, bases[:live], out=(part, low))
        r[:, :live] += low * f[:live]
        left = np.flatnonzero(part.any(axis=0))
        live = int(left[-1]) + 1 if left.size else 0
    return r.reshape(idx.shape), f.reshape(np.shape(base))


def _halton_two_runs(out: np.ndarray, first: int, bases: np.ndarray) -> None:
    """Radical inverses of first, first+1, ... in each of the bases, one
    row of out per base, written in place.

    Every base is above the row length, so a row meets at most two runs of
    equal high part j // base, and the second, if any, is the row's tail,
    from where the low digit wraps: the low digit of entry r is
    (first mod base) + r, less base after the wrap.  Each entry gets the
    digit loop's ops in its order: the low digit times fl(1/base), then,
    one level at a time, its run's high digit times the weight, divided by
    base at each level.  A digit that an index lacks adds +0.0, which is
    exact.
    """
    bases = bases[:, None]
    weight = 1.0 / bases
    np.add(np.arange(out.shape[1], dtype=float), first % bases, out=out)
    wrapped = out >= bases
    kept = ~wrapped
    np.subtract(out, bases, out=out, where=wrapped)
    out *= weight
    # the high parts of the two runs, one column each
    high = first // bases + np.arange(2)
    while high.any():
        weight = weight / bases
        digit = (high % bases) * weight
        np.add(out, digit[:, :1], out=out, where=kept)
        np.add(out, digit[:, 1:], out=out, where=wrapped)
        high //= bases


def _sobol_hull(dim: int, marks: list[int]) -> np.ndarray:
    """The hulls of Sobol points 1..mark for each of the marks: a new
    (2, len(marks), dim) array, the per-coordinate minima, then the maxima,
    each from the binary digits of N = mark + 1: [1, 2**K), K the top bit
    of N, then one block [F_k, F_k + 2**k) per set bit k < K, whose first
    state is A_k ^ v[k] (the module docstring has the proof)."""
    v = _sobol_matrix(dim)
    ends = np.array(marks, dtype=np.uint64)[:, None] + 1
    # bits[i, k] is bit k of N; gray bit k of N is bit k ^ bit k+1
    bits = (ends >> np.arange(_SOBOL_BITS + 1, dtype=np.uint64) & 1).astype(bool)
    gray = bits[:, :-1] ^ bits[:, 1:]
    # K, the top bit of N
    top = _SOBOL_BITS - np.argmax(bits[:, ::-1], axis=1)
    step = (1 << (_SOBOL_BITS - top))[:, None]
    hull = np.empty((2, len(marks), dim), dtype=np.uint32)
    lo, hi = hull
    lo[...] = step
    hi[...] = 2 ** _SOBOL_BITS - step
    # the blocks below [0, 2**K): bit K itself is that block
    bits[np.arange(len(marks)), top] = False
    # acc is A_k, from the top K down (K = 32, N = 2**32, has no block and
    # needs no v[32]); a level that no mark has is skipped
    xored, blocked = gray.any(axis=0).tolist(), bits.any(axis=0).tolist()
    acc = np.zeros((len(marks), dim), dtype=np.uint32)
    state = np.empty_like(acc)
    for k in range(min(int(top.max()), _SOBOL_BITS - 1), -1, -1):
        if xored[k]:
            np.bitwise_xor(acc, v[k], out=acc, where=gray[:, k, None])
        if blocked[k]:
            kept = np.uint32((1 << (_SOBOL_BITS - k)) - 1)
            np.bitwise_xor(acc, v[k], out=state)
            np.minimum(lo, state & kept, out=lo, where=bits[:, k, None])
            np.maximum(hi, state | ~kept, out=hi, where=bits[:, k, None])
    return hull * 0.5 ** _SOBOL_BITS


def _halton_hull(dim: int, marks: list[int]) -> np.ndarray:
    """The hulls of Halton points 1..mark for each of the marks: a new
    (2, len(marks), dim) array, the per-coordinate minima, then the maxima,
    each folded from the index that attains it (_halton_extremes), all in
    one fold."""
    bases = _first_primes(dim)
    return _fold(_halton_extremes(bases, marks).reshape(-1, dim), bases)[0].reshape(
        2, len(marks), dim)


def _halton_extremes(bases: np.ndarray, marks: list[int]) -> np.ndarray:
    """The indices in 1..mark of the least and the greatest radical inverse
    in each base, for each mark: a new (2, len(marks), len(bases)) int64
    array, taken in closed form in whole arrays.

    The radical inverse orders indices by their digits read lowest first.
    With low = b**K the largest power of b within mark, every index in
    1..mark has a nonzero digit at a position up to K, so its radical
    inverse is at least b**-(K+1), which is low's: the least.  The greatest
    takes digit b - 1 at each position below P while it can: the least index
    with those digits is B - 1, B = b**P, so P is largest with B <= mark + 1.
    Position P then takes the largest digit q that keeps q*B + B - 1 within
    mark, q = (mark - (B - 1)) // B = (mark + 1) // B - 1, which is below
    b - 1 since b*B > mark + 1, and every digit above P is 0, as b*B > mark.
    So high = q*B + B - 1.  The powers are uint64, since B reaches 2**63 at
    mark = 2**63 - 1, and grow while p <= floor(x / b), that is p*b <= x;
    floor((mark + 1) / b) is taken as floor(mark / b), plus one where
    mark's low digit is b - 1, so no value passes 2**63.
    """
    wide = bases.astype(np.uint64)
    mark = np.array(marks, dtype=np.uint64)[:, None]
    quotient, digit = np.divmod(mark, wide)
    caps = np.stack([quotient, quotient + (digit == wide - 1)])
    power = np.ones(caps.shape, dtype=np.uint64)
    grow = power <= caps
    while grow.any():
        np.multiply(power, wide, out=power, where=grow)
        grow &= power <= caps
    # high = q*B + B - 1 = (q + 1)*B - 1, written over B; every index is
    # within mark, so int64 holds it
    top = power[1]
    top *= (mark - (top - 1)) // top + 1
    top -= 1
    return power.view(np.int64)


def _block_rows(kind: str, dim: int) -> int:
    """Points per sample block of this kind in dim dimensions (see the
    module docstring): one tile for random and Sobol, whose cost is per
    value; for Halton at most 4096 points and 2**20 values (8 MiB).  A
    Halton block costs a numpy call per base up to its rows and per level
    of its high digits, one level for most bases (at tile size a 289-link
    block would make 289 base passes for 226 points), a few per tile of
    the bases above them and a few per block, and those calls hold the GIL.
    Each segment holds one block, so a trace on two CPUs holds 16 MiB.
    Half this cap makes twice the calls per value and was slower on obcl;
    twice it was faster there, but doubles the memory.  Memory stays flat
    in the links."""
    if kind == KIND_HALTON:
        return max(1, min(4096, 2 ** 20 // dim))
    return _tile_rows(dim)


def _tile_rows(dim: int) -> int:
    """Points per tile in dim dimensions: at most _TILE_VALUES values, and
    at least one point."""
    return max(1, _TILE_VALUES // dim)


@dataclass(frozen=True)
class SampleSequence:
    """Deterministic point source in [0,1)^dimension.  dimension, seed and
    the count given to blocks are integers, numpy's too, but not bool: any
    other value raises TypeError where it is given."""

    kind: str
    dimension: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        for name in ("dimension", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.dimension < 1:
            raise UsageError(f"sequence dimension {self.dimension} is below 1: "
                             "a network with no links has no flow to sample")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind == KIND_SOBOL and self.dimension > sobol_max_dimension():
            raise DimensionTooLarge(self.dimension, sobol_max_dimension())

    def blocks(self, count: int) -> Iterator[np.ndarray]:
        """Points 1..count as (rows, dimension) arrays, in index order; each
        is a new array, which the caller may keep."""
        count = _integer("count", count)
        if count < 0:
            raise ValueError("count must be >= 0")
        check_sample_count(self.kind, count)
        return (block.copy() for block in self._blocks(1, count))

    def _blocks(self, first: int, count: int) -> Iterator[np.ndarray]:
        """Points first..first+count-1 in blocks of at most _block_rows
        points; the caller has checked that the sequence indexes them.  This
        is the one block generator: every block is a view of one array,
        allocated here once, that the next block overwrites, so a caller
        drops or copies each block before it asks for the next."""
        dim = self.dimension
        rows = _block_rows(self.kind, dim)
        size = min(rows, count)
        if self.kind == KIND_SOBOL:
            fill = _sobol_fill(dim, size)
        elif self.kind == KIND_HALTON:
            fill = _halton_fill(dim, size, first + count - 1)
        else:
            # one draw per value, so point first starts (first - 1) * dim
            # draws into the stream (see the module docstring)
            rng = np.random.Generator(np.random.PCG64(self.seed).advance((first - 1) * dim))
            fill = lambda _, out: rng.random(out=out)
        shared = np.empty((size, dim))
        for done in range(0, count, rows):
            yield fill(first + done, shared[:min(rows, count - done)])


def _integer(what: str, value) -> int:
    """value as an int by operator.index, so numpy integers are taken; a
    bool or a value with no __index__ raises TypeError naming what."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


def check_sample_count(kind: str, count: int) -> None:
    """Raise SampleCountTooLarge if a sequence of this kind cannot index
    count points."""
    limit = _MAX_COUNT.get(kind)
    if limit is not None and count > limit:
        raise SampleCountTooLarge(kind, count, limit)


def k_lower_trace(
    net: Network,
    box: FlowBox,
    sampler: str,
    n: int,
    mode: str = MODE_MAX,
    seed: int = 0,
    checkpoints: tuple[int, ...] = (),
) -> tuple[LipschitzEstimate, list[tuple[int, float]]]:
    """Best objective value over n sampled flow points (an under-estimate),
    and the running estimate at each requested prefix length.

    sampler is a kind name (SAMPLER_KINDS), sampled in one coordinate per
    link; seed seeds the random kind.  n, each checkpoint and seed are
    integers, not bool (else TypeError, before any point is generated).  A
    checkpoint m, in 1..n, equals an independent run with n=m because the
    estimate is a prefix maximum of a deterministic sequence.  A flow range
    hi - lo or an estimate past the float range raises BoundsError: the box
    is too wide.  Numpy's overflow warnings are off while the trace runs, so
    only that error reports it.  More points than the sequence can index
    raise SampleCountTooLarge.  A max trace over Halton or Sobol points
    takes its hull in closed form, so its cost does not depend on n.  Any
    other trace walks its points in segments, one per CPU, on threads that
    are joined before it returns or raises; its values do not depend on the
    segment count (see the module docstring).  A box made for another
    network raises BoundsError (bounds.check_box).
    """
    check_box(net, box)
    n, checkpoints = _integer("n", n), [_integer("a checkpoint", c) for c in checkpoints]
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in (MODE_MAX, MODE_SQRT):
        raise ValueError(f"unknown mode {mode!r}")
    if not all(1 <= c <= n for c in checkpoints):
        raise ValueError(f"checkpoints must lie in 1..{n}")
    sequence = SampleSequence(sampler, net.n_links, seed)
    check_sample_count(sampler, n)

    marks = [*sorted(checkpoints), n]
    # segment threads run in a copy of this context, so they inherit the
    # error state
    with np.errstate(over="ignore"):
        width = box.hi - box.lo
        wide = np.flatnonzero(~np.isfinite(width))
        if wide.size:
            raise BoundsError(f"link {box.link_ids[wide[0]]!r}: q_max - q_min overflows "
                              "a float: the box is too wide")
        route = _max_trace if mode == MODE_MAX else _sqrt_trace
        trace = route(net, box, width, sequence, marks)
    # the last mark is n: its value is the estimate, the rest are checkpoints
    value = trace.pop()[1]
    # the trace is nondecreasing, so a finite last value makes all finite
    if not math.isfinite(value):
        raise BoundsError(f"{mode}-mode point estimate overflows a float: the box is too wide")
    return LipschitzEstimate(value=value, method=METHOD_POINT_LOWER, mode=mode, effort=n), trace


def _scale_into_box(q: np.ndarray, box: FlowBox, width: np.ndarray) -> np.ndarray:
    # lo + p*w in place, with w = fl(hi - lo), then clipped at hi against
    # rounding drift.  No lower clip is needed: p >= 0 and w >= 0 give
    # fl(p*w) >= 0, and rounding is monotone, so fl(lo + p*w) >= fl(lo) = lo.
    # A lower clip could only change the sign of a zero flow, and every
    # Jacobian entry reads |q|.
    np.multiply(q, width, out=q)
    np.add(q, box.lo, out=q)
    np.minimum(q, box.hi, out=q)
    return q


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _segment_count(n: int, dim: int) -> int:
    """Segments for a walk over points 1..n in dim dimensions, of any kind:
    one per CPU, each of at least four tiles' points (see the module
    docstring)."""
    return max(1, min(_cpu_count(), n // (4 * _tile_rows(dim))))


def _segment_walk(sequence: SampleSequence, marks: list[int],
                  fold: Callable[[], tuple[Callable[[np.ndarray], None], Callable[[], float]]]
                  ) -> list[tuple[int, float]]:
    """(mark, value) for each mark of the nondecreasing marks, the value of
    points 1..mark.

    fold() starts one segment's state and returns (take, read): take gets
    the segment's points in order, one cut at a time, and read gives the
    value of the points taken so far.  Points 1..marks[-1] split into
    _segment_count contiguous segments.  Each builds its own blocks and
    cuts them at the marks inside it and its end unless it is the last,
    where read runs once each, and at block ends and tile edges, so each
    cut is at most one tile; no cut outlives its call to take.  The first
    is walked on this thread and each other one on a thread of its own.  Once every thread is joined, the first error
    in index order is raised, or the values join in index order by max.
    """
    n = marks[-1]
    count = _segment_count(n, sequence.dimension)
    rows = _tile_rows(sequence.dimension)
    edges = [n * s // count for s in range(count + 1)]
    inside = [[m for m in marks if lo < m <= hi] for lo, hi in zip(edges, edges[1:])]
    got: list = [None] * count

    def keep(s: int) -> None:
        lo, hi = edges[s], edges[s + 1]
        try:
            cuts = inside[s] + ([hi] if hi < n else [])
            take, read = fold()
            values = []
            seen = lo
            for block in sequence._blocks(lo + 1, hi - lo):
                start = 0
                while start < len(block):
                    stop = min(len(block), start + rows, cuts[len(values)] - seen)
                    take(block[start:stop])
                    start = stop
                    while len(values) < len(cuts) and cuts[len(values)] == seen + start:
                        values.append(read())
                seen += len(block)
            got[s] = values
        except BaseException as error:
            got[s] = error

    threads = []
    try:
        for s in range(1, count):
            # a copy of this context, so that numpy's error state holds there
            thread = threading.Thread(target=contextvars.copy_context().run, args=(keep, s))
            thread.start()
            threads.append(thread)
        keep(0)
    finally:
        for thread in threads:
            thread.join()
    trace: list[tuple[int, float]] = []
    carry = -math.inf
    for ms, values in zip(inside, got):
        if isinstance(values, BaseException):
            raise values
        values = [max(carry, value) for value in values]
        carry = values[-1]
        # zip stops before a segment's own end, which is no mark
        trace += zip(ms, values)
    return trace


def _max_trace(net: Network, box: FlowBox, width: np.ndarray, sequence: SampleSequence,
               marks: list[int]) -> list[tuple[int, float]]:
    """Largest sampled Jacobian entry at each mark: K over the hull of points
    1..mark, from the Corner record (analytical.corner_of) of the hull's two
    rows.  Halton and Sobol hulls are in closed form, a chunk of marks at a
    time, each chunk read by one corner pass; random ones are reduced by
    segment, each read at its own cuts (see the module docstring)."""

    def k_values(hull: np.ndarray) -> list[float]:
        # hull is (2, marks, dim), new, and scaled into the box in place
        return [record.k().value for record in corner_of(net, *_scale_into_box(hull, box, width))]

    if sequence.kind != KIND_RANDOM:
        hull = _sobol_hull if sequence.kind == KIND_SOBOL else _halton_hull
        # a chunk's hull, both rows of each of its marks, is at most a tile
        rows = max(1, _TILE_VALUES // (2 * sequence.dimension))
        return list(zip(marks, [value for start in range(0, len(marks), rows)
                                for value in k_values(hull(sequence.dimension,
                                                           marks[start:start + rows]))]))

    def fold():
        p_min = np.full(sequence.dimension, np.inf)
        p_max = np.full(sequence.dimension, -np.inf)

        def take(p: np.ndarray) -> None:
            np.minimum(p_min, p.min(axis=0), out=p_min)
            np.maximum(p_max, p.max(axis=0), out=p_max)

        return take, lambda: k_values(np.stack([p_min, p_max])[:, None])[0]

    return _segment_walk(sequence, marks, fold)


def _sqrt_trace(net: Network, box: FlowBox, width: np.ndarray, sequence: SampleSequence,
                marks: list[int]) -> list[tuple[int, float]]:
    """Largest Frobenius norm of a sampled Jacobian at each mark.  Each cut
    of the walk, at most one tile, is scaled and evaluated in place, and its
    row sums go to one buffer per segment (see the module docstring).  Once
    a segment's best sum is above 0, a cut first drops every row whose
    linear bound (_sqrt_bound) lies below best - slack, which could not
    raise best, and evaluates the rest, so every value has the bits of
    evaluating every point.  A bounded cut that drops no row skips bounding
    for the next 1, 2, 4, ... cuts, and one that drops a row starts that
    count again.  Segments join by max, before the root."""
    bound = _sqrt_bound(net, box, width)

    def fold():
        sums = np.empty(_tile_rows(net.n_links))
        best = 0.0
        skip, wait = 0, 1

        def take(q: np.ndarray) -> None:
            nonlocal best, skip, wait
            if skip:
                skip -= 1
            elif best > 0 and bound is not None:
                base, slope, slack = bound
                kept = _drop_rows(q, base, slope, best - slack, sums)
                if kept == len(q):
                    skip, wait = wait, 2 * wait
                else:
                    wait = 1
                if not kept:
                    return
                q = q[:kept]
            g = _jacobian_diag_into(net, _scale_into_box(q, box, width), q)
            best = max(best, float(np.einsum("ij,ij->i", g, g, out=sums[:len(q)]).max()))

        return take, lambda: best

    return [(mark, math.sqrt(best)) for mark, best in _segment_walk(sequence, marks, fold)]


def _drop_rows(q: np.ndarray, base: float, slope: np.ndarray, floor: float,
               scratch: np.ndarray) -> int:
    """Move the rows p of q whose bound base + p @ slope is at least floor
    to the front of q, in order, and return their count.  scratch has room
    for a value per row.  A kept row only moves up, so they are copied
    forward, at most _TILE_VALUES // 32 values at a time: a gather of every
    kept row would hold a second copy of most of the cut."""
    bound = np.matmul(q, slope, out=scratch[:len(q)])
    bound += base
    keep = bound >= floor
    kept = np.flatnonzero(keep)
    if len(kept) < len(q):
        step = max(1, _TILE_VALUES // 32 // q.shape[1])
        # the rows above the first dropped one stay where they are
        for at in range(int(np.argmin(keep)), len(kept), step):
            rows = kept[at:at + step]
            q[at:at + len(rows)] = q[rows]
    return len(kept)


# the bound is taken only where T, the sum over links of the larger end
# square, and every table factor c * post are this far inside the float
# range, where steps that underflow cost _sqrt_bound's proof under 2**-200 u T
_BOUND_RANGE = 2.0 ** 500


def _sqrt_bound(net: Network, box: FlowBox, width: np.ndarray
                ) -> tuple[float, np.ndarray, float] | None:
    """(base, slope, slack) with which a sqrt trace drops a unit sample p
    whose bound fl(fl(p @ slope) + base) is below fl(best - slack): then the
    computed row sum of p is below best.  None where an end value is not
    finite, or T or a table factor c post is outside _BOUND_RANGE; the trace
    then evaluates every point.

    Write h_i(x) for the computed square of Jacobian entry i at flow x, one
    _jacobian_diag_into pass over the box's two rows lo and hi, m_i =
    max(h_i(lo), h_i(hi)) and T = sum m_i.  Link i takes, in the unit
    sample p_i, base_i + p_i * slope_i:
    * convex (2e >= 1, e = deriv_expo): the chord, h(lo) + (h(hi) - h(lo)) p;
    * concave with lo > 0: the tangent at hi, h(hi) - s (1 - p), its slope
      s = 2e h(hi) (w/hi) (1 - 2**-30), w = fl(hi - lo), scaled down so
      that it is at most the exact tangent's;
    * any other: the constant m_i.
    base is fl(sum base_i) and slack = (n + 16) 2**-51 fl(T), n the links.

    Proof.  Premises: numpy's pow is within 1 ulp (the premise of
    point_sqrt <= interval_sqrt), every other step rounds to nearest, a sum
    in any order (einsum, matmul, sum), 2e in [0, 4] (inp keeps mu and nu
    in [1, 3]) and n < 2**32.  With u = 2**-53 and gamma_k = k u / (1 - k u),
    let phi_i(x) = (c_i post_i)**2 |x|**(2e) be the exact square.
    (1) _scale_into_box gives q_i in [lo, hi] within 3.01 u M of the exact
        x = lo + p w, M = max(|lo|, |hi|), and |lo + w - hi| <= 2 u M.
    (2) An entry takes pow and one or two multiplies, then a square, so a
        computed square is within a factor 1 +- gamma_9 of phi: the exact
        end values are at most (1 + gamma_9) m_i, and a row sum of n
        squares is at most (1 + gamma_(n+8)) sum phi_i(q_i).  Within
        _BOUND_RANGE, steps that underflow add in all under 2**-200 u T
        to a row sum or an end value, which the constants below absorb.
    (3) Per link, phi_i(q_i) <= base_i + p_i slope_i + 31 u m_i:
        convex: |x|**(2e) is convex for 2e >= 1, so phi(x) is below the
        exact chord from lo to lo + w; moving x and lo + w by (1) costs at
        most 5.01 u M phi'(1.0001 M) <= 20.1 u phi(M), as 2e <= 4, then
        gamma_9 m for the rounded end values and u m for the rounded slope;
        concave, lo > 0: phi is concave on (0, inf), so below its tangent at
        hi, phi(hi) - phi'(hi)(hi - q), with phi'(hi) = 2e phi(hi) / hi and
        hi - q >= w (1 - p) - 4.02 u hi by (1); s <= phi'(hi) w, since the
        computed 2e h(hi) (w/hi) is at most (1 + gamma_13) times it and
        (1 + gamma_13)(1 - 2**-30) < 1; 2e < 1, so this costs 4.02 u
        phi(hi), then gamma_9 m and u m for fl(h(hi) - s);
        other: phi is nondecreasing in |x| and |q| <= M, so phi(q) <=
        phi(M) <= (1 + gamma_9) m.
    (4) Summed, with L the exact sum of base_i + p_i slope_i, at most
        (1 + u) T: the computed row sum S <= L + (n + 40) u T.
    (5) Each |base_i| and |slope_i| is at most (1 + u) m_i and each p_i is
        in [0, 1), so the computed bound is at least L - (2n + 1) u T; best
        is a computed row sum, at most 1.01 T by (4), so fl(best - slack)
        <= best - slack + 1.01 u T.
    So a dropped row has S < best - slack + (3n + 43) u T <= best, as
    slack >= (n + 16) 2**-51 (1 - gamma_n) T >= (3n + 43) u T.
    """
    ends = np.stack([box.lo, box.hi])
    h = _jacobian_diag_into(net, ends, ends)
    h *= h
    low, high = h
    top = np.maximum(low, high)
    total = float(top.sum())
    if not (1 / _BOUND_RANGE <= total <= _BOUND_RANGE
            and float((net.deriv_coef * net.deriv_post).max()) <= _BOUND_RANGE):
        return None
    twice = 2 * net.deriv_expo
    convex = twice >= 1
    tangent = ~convex & (box.lo > 0)
    slope = np.zeros(net.n_links)
    np.subtract(high, low, out=slope, where=convex)
    # w / hi <= 1 where lo > 0, so the tangent slope cannot overflow
    np.divide(width, box.hi, out=slope, where=tangent)
    np.multiply(slope, twice * high * (1 - 2.0 ** -30), out=slope, where=tangent)
    base = np.where(convex, low, np.where(tangent, high - slope, top))
    slope.flags.writeable = False
    return float(base.sum()), slope, (net.n_links + 16) * 2.0 ** -51 * total
