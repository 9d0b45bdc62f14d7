"""Point-based under-approximation of Lipschitz constants.

SampleSequence(kind, dimension, seed) yields deterministic points in the
half-open unit cube [0,1)^d, in blocks (``blocks(n)``).
A random or Sobol block is one tile of at most 2**16 values (512 KiB):
its cost is per value, so a trace generates, reduces or scales, and
evaluates each block while it is still in a core's cache.  A Halton
block costs a few numpy calls per base up to its rows and a few per tile
of the bases above them, so it is larger than a tile: at most 8192
points and 2**21 values (16 MiB; 419 points at 5,002 dimensions).
A trace's walk writes every block into one array, allocated once per
walk; ``blocks(n)`` yields new arrays, which a caller may keep.  Every
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
  rows) is a table built once per process, and each run of equal high
  part is a slice of that table plus the fold of the run's few high
  digits, added in the same order.  A base above the rows meets at most
  two runs, the second from where its low digit wraps, so all such bases
  are folded together by whole-array steps: the low digit of row r,
  (first mod b) + r less b after the wrap, times fl(1/b), then, one level
  at a time, each high digit of the row's run times the weight, divided
  by b at each level.  A base above the block's last index leaves every
  index j one digit, j * (1/b), so all such bases take one multiply.  A
  digit that a shorter index lacks adds +0.0, which is exact, so every
  value has the bits of the plain digit loop.  Bases are folded
  link-major, 16 at a time or, where bases above the rows take two runs,
  up to a tile's values of them, and copied transposed into the
  C-contiguous block;
* ``sobol``: the classic 32-bit Gray-code construction driven by the shipped
  Joe-Kuo direction-number table (dimensions 2..1111; dimension 1 is the van
  der Corput sequence).  Generation starts at index 1, so the first point is
  (0.5, ..., 0.5) and the origin corner of the flow box is never sampled.
  The state of index i is the XOR of the direction numbers v[k] over the
  set bits k of gray(i) = i ^ (i >> 1) (Antonov & Saleev 1979).  Over an
  aligned run i = 128r + t, t < 128, gray(i) >> 7 = gray(r) and
  gray(i) & 127 = gray(t) ^ ((r & 1) << 6), so the state of i is the state
  of 128r XOR the state of t.  A block is built run by run: a table of the
  states of 0..127 (the XOR span of v[0..6]), XORed with the run's first
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
evaluates the closed form at each link's larger magnitude, by the corner
pass that gives K (analytical.corner_derivatives).  Each step of the map
is nondecreasing in p, so a coordinate's smallest and largest flow are the
images of its hull entries, and every entry is nondecreasing in ``|q_i|``.
So, with libm's ``pow`` monotone, the hull gives the largest derivative
over all sampled points, and never more than K, since each hull flow is a
sampled flow inside the box.  A random hull is reduced from the sample
blocks, one tile-sized block at a time, by segment (below).  Halton and
Sobol hulls are taken in closed form in O(d log n), with the bits of the
generated points (for Halton up to a bound on n, below): they generate
no points, and their cost does not depend on n.

* Sobol: [1, n] splits into at most 2 log2(n) aligned dyadic blocks
  [a*2**k, (a+1)*2**k).  A block's states are the state of a*2**k XOR the
  span of v[0..k-1].  Each v[k] is m_k << (31-k) with m_k odd, so that span
  is every value whose low 32-k bits are zero, and the block's least and
  greatest states are the first state with its top k bits cleared and set.
* Halton: the radical inverse orders indices by their reversed digits.  The
  minimum over [1, n] is at the largest power of b within n; the maximum
  takes the digits greedily, lowest first, each as large as keeps the index
  within n.  Both indices are folded in the digit loop's own order.  Every
  other index's fold adds a term at least the minimum's, so the minimum
  has the generated bits at any n.  The exact radical inverses of distinct
  indices differ by at least b**-(K+1), K = floor(log_b n), and a fold errs
  by under (2K+3) * 2**-53, so the maximum has the generated bits wherever
  b**(K+1) * (2K+3) < 2**52: at every base of 5,002 dimensions up to
  n = 1e11.  Past that it is the fold of the index with the largest exact
  radical inverse, still a sampled point.

A ``sqrt`` trace needs each point's sum of squares.  The sample walk cuts
every block at checkpoints, block ends and tile edges, so it hands each
consumer at most one tile of 2**16 values (512 KiB).  The trace scales a
cut and evaluates its Jacobian in place, and writes its row sums into one
vector of a tile's rows allocated once, so it holds one block, the walk's
one array, plus that vector, and each cut's passes stay in cache.  On
5,002 links a Halton sqrt trace holds about 17 MiB: one 16 MiB block.

A trace that walks random or Sobol sample blocks (a random ``max``
trace, and a random or Sobol ``sqrt`` trace) splits points 1..n into
contiguous segments, one per CPU the process may run on
(os.sched_getaffinity, or os.cpu_count where that is missing); there is
no option for it.  Each segment holds at least four tiles of points, so
a shorter trace is one segment, and starts no thread.  The first segment
is walked on the calling thread and each other one on a thread of its
own (numpy releases the GIL in its generators and array passes).  A
segment builds its blocks from its first index, walks them with the
marks inside it and its own end as cuts, and keeps one float per cut:
its largest row sum for ``sqrt``, the corner pass at its own hull for
``max``.  Once every thread is joined, the segments join in index order
by max.  For ``max`` that is the value of the joined hull: scaling is
monotone and max(|min X|, |max X|) = max |X|, so the joined hull's
corner magnitude is, per link, the larger of the segments', and each
entry, nondecreasing in ``|q_i|`` (libm's ``pow`` monotone, the premise
of ``point_max <= K``), has g_i(max(a, b)) = max(g_i(a), g_i(b)).  So
every trace has the same bits for any segment count, and hence on any
machine.  The sample count is checked once for all n before any thread
starts; once every segment thread is joined, the first error in index
order is raised unchanged, and no thread outlives the trace (a ``max``
trace names the link and flow where its first failing segment
overflowed).  Memory is per segment: one block and a row-sum vector, or
two hull rows and a corner pass, plus a float per cut.  A Halton trace
walks one segment: its blocks cost a few numpy calls per base, which
hold the GIL, and two segments were not reliably faster than one on two
CPUs.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Callable, Iterator

import numpy as np

from .analytical import corner_derivatives
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


def _first_primes(count: int) -> list[int]:
    # the count-th prime is below count * (ln count + ln ln count) for count >= 6
    limit = 13
    if count >= 6:
        limit = int(count * (math.log(count) + math.log(math.log(count))))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)[:count].tolist()


@lru_cache(maxsize=None)
def _direction_rows() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The (s, a, m) rows of the shipped table, checked against its SHA-256."""
    data = resources.files("wdn_lipschitz.data").joinpath(_DIRECTIONS_FILE).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _DIRECTIONS_SHA256:
        raise RuntimeError(
            f"direction-number table checksum mismatch: {digest} != {_DIRECTIONS_SHA256}"
        )
    rows = []
    for line in data.decode("ascii").splitlines()[1:]:
        fields = line.split()
        if not fields:
            continue
        s, a = int(fields[1]), int(fields[2])
        m = tuple(int(tok) for tok in fields[3:])
        if len(m) != s:
            raise RuntimeError("corrupt direction-number row")
        rows.append((s, a, m))
    return tuple(rows)


def sobol_max_dimension() -> int:
    return len(_direction_rows()) + 1


# Cached per dimension and read-only, since every trace shares it
@lru_cache(maxsize=None)
def _sobol_matrix(dim: int) -> np.ndarray:
    """Direction numbers as a (bits, dim) uint32 matrix."""
    rows = _direction_rows()
    if dim > len(rows) + 1:
        raise DimensionTooLarge(dim, len(rows) + 1)
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
    """Gray-code state of index: the XOR of v[k] over the set bits k of
    gray(index) = index ^ (index >> 1)."""
    gray = index ^ (index >> 1)
    return np.bitwise_xor.reduce(v[[k for k in range(_SOBOL_BITS) if gray >> k & 1]], axis=0)


def _sobol_blocks(dim: int, first: int, count: int, rows: int,
                  reuse: bool) -> Iterator[np.ndarray]:
    v = _sobol_matrix(dim)
    # the states of indices 0..127, by reflection: gray(h + j) = h ^ gray(h-1-j)
    table = np.zeros((_SOBOL_RUN, dim), dtype=np.uint32)
    for k in range(_SOBOL_RUN_BITS):
        h = 1 << k
        np.bitwise_xor(table[h - 1::-1], v[k], out=table[h:2 * h])
    # from the first state of run r to that of run r+1, r+1 with k trailing zeros
    steps = v[_SOBOL_RUN_BITS - 1] ^ v[_SOBOL_RUN_BITS:]
    states = np.empty((min(rows, count), dim), dtype=np.uint32)
    fill = partial(_sobol_block, v, table, steps, states)
    yield from _filled_blocks(fill, dim, first, count, rows, reuse)


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


def _halton_blocks(dim: int, first: int, count: int, rows: int,
                   reuse: bool) -> Iterator[np.ndarray]:
    bases = np.array(_first_primes(dim))
    size = min(rows, count)
    # room for _HALTON_CHUNK bases, or for up to a tile's values of the
    # bases that some block folds by two runs: above its rows, within the
    # walk's last index
    two_runs = np.count_nonzero((bases > size) & (bases < first + count))
    chunk = np.empty((max(_HALTON_CHUNK, min(two_runs, _TILE_VALUES // max(1, size))), size))
    fill = partial(_halton_block, bases, chunk=chunk)
    yield from _filled_blocks(fill, dim, first, count, rows, reuse)


def _halton_block(bases: np.ndarray, first: int, out: np.ndarray,
                  chunk: np.ndarray) -> np.ndarray:
    """Halton points first..first+len(out)-1, written into out (C-contiguous)
    and returned; chunk is scratch for len(chunk) bases of len(out) values.

    Bases above the block's last index leave every index j one digit,
    j * (1/base), and take one multiply.  The others are folded link-major
    in chunk, len(chunk) at a time, and copied transposed: a base up to the
    block's rows from its table, one at a time (_halton_runs), and the
    bases above the rows together (_halton_two_runs).
    """
    size = len(out)
    last = first + size - 1
    tabled, folded = np.searchsorted(bases, [size, last], side="right").tolist()
    np.multiply(np.arange(first, last + 1, dtype=float)[:, None], 1.0 / bases[folded:],
                out=out[:, folded:])
    for start in range(0, folded, len(chunk)):
        stop = min(folded, start + len(chunk))
        part = chunk[:stop - start, :size]
        split = max(0, min(tabled, stop) - start)
        for row, base in zip(part[:split], bases[start:start + split].tolist()):
            span = base
            while span * base <= size:
                span *= base
            table, weight = _fold_digits(base, span)
            _halton_runs(row, first, base, span, table, weight)
        if split < len(part):
            _halton_two_runs(part[split:], first, bases[start + split:stop])
        out[:, start:stop] = part.T
    return out


# Cached across sequences and calls, and read-only, since every caller
# shares it.  A table holds span values, span at most a block's rows, for a
# base up to those rows (obcl's 289 bases at 7,256 rows: about 2.5 MiB).
@lru_cache(maxsize=None)
def _fold_digits(base: int, span: int) -> tuple[np.ndarray, float]:
    """Radical inverses of 0..span-1 in base, and the weight of the last
    digit folded (see _fold)."""
    r, f = _fold(np.arange(span), base)
    r.flags.writeable = False
    return r, float(f)


def _fold(idx: np.ndarray, base: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radical inverses of the indices idx, digits folded low first:
    f /= base, then r += digit * f.  base is one base, or one per column of
    idx.  Also returns the weight f of the last digit folded.  idx is
    consumed (divided down to zero in place)."""
    r = np.zeros(idx.shape)
    f = np.ones(np.shape(base))
    while idx.any():
        f /= base
        r += (idx % base) * f
        idx //= base
    return r, f


def _halton_runs(row: np.ndarray, first: int, base: int, span: int,
                 table: np.ndarray, weight: float) -> None:
    """Radical inverses of first, first+1, ... in base, written into row.

    span is base**k, at most len(row), and table the fold of the low k
    digits of 0..span-1, with weight the weight of digit k.  The indices
    fall into runs of equal high part j // span; each run is a slice of the
    table plus the fold of its high digits, added digit by digit as
    _fold_digits adds them.  A missing high digit adds +0.0, which leaves
    r >= 0 unchanged, so every value has the bits of the digit loop run on
    j itself.
    """
    size = len(row)
    lead = first % span
    head = min(span - lead, size) if lead else 0
    whole = (size - head) // span
    tail = head + whole * span
    if head:
        row[:head] = table[lead:lead + head]
    body = row[head:tail].reshape(whole, span)
    if whole:
        body[...] = table
    if tail < size:
        row[tail:] = table[:size - tail]
    high = np.arange(first // span, (first + size - 1) // span + 1)
    skip = 1 if head else 0
    while high.any():
        weight /= base
        digit = (high % base) * weight
        if head:
            row[:head] += digit[0]
        if whole:
            body += digit[skip:skip + whole, None]
        if tail < size:
            row[tail:] += digit[-1]
        high //= base


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


def _sobol_hulls(dim: int, marks: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(mark, hull) for each mark of the nondecreasing marks: the
    per-coordinate minimum and maximum of Sobol points 1..mark, a new array
    of two rows, from one state per aligned dyadic block of indices (see
    the module docstring)."""
    v = _sobol_matrix(dim)
    low = np.full(dim, 2 ** _SOBOL_BITS - 1, dtype=np.uint32)
    high = np.zeros(dim, dtype=np.uint32)
    first = 1
    for mark in marks:
        while first <= mark:
            # the largest block [first, first + 2**k) aligned at first and
            # within mark; its states are the state of first XOR the span of
            # v[0..k-1], every value with the low 32-k bits clear
            k = (first & -first).bit_length() - 1
            while first + (1 << k) > mark + 1:
                k -= 1
            state = _sobol_state(v, first)
            kept = np.uint32((1 << (_SOBOL_BITS - k)) - 1)
            np.minimum(low, state & kept, out=low)
            np.maximum(high, state | ~kept, out=high)
            first += 1 << k
        yield mark, np.stack([low, high]) * 0.5 ** _SOBOL_BITS


def _halton_hulls(dim: int, marks: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(mark, hull) for each mark of the nondecreasing marks: the
    per-coordinate minimum and maximum of Halton points 1..mark, a new
    array of two rows, from the two indices that attain them in each base
    (see the module docstring)."""
    bases = np.array(_first_primes(dim))
    for mark in marks:
        # the smallest radical inverse is at the largest power of the base
        low = np.ones(dim, dtype=np.int64)
        grow = low <= mark // bases
        while grow.any():
            np.multiply(low, bases, out=low, where=grow)
            grow &= low <= mark // bases
        # the largest takes each digit, lowest first, as large as keeps the
        # index within mark; live while the next digit can be nonzero
        high = np.zeros(dim, dtype=np.int64)
        rest = np.full(dim, mark, dtype=np.int64)
        power = np.ones(dim, dtype=np.int64)
        live = np.ones(dim, dtype=bool)
        while live.any():
            step = np.where(live, np.minimum(bases - 1, rest // power) * power, 0)
            high += step
            rest -= step
            live &= power <= rest // bases
            np.multiply(power, bases, out=power, where=live)
        yield mark, _fold(np.stack([low, high]), bases)[0]


def _random_blocks(dim: int, first: int, count: int, rows: int, seed: int,
                   reuse: bool) -> Iterator[np.ndarray]:
    # one draw per value, so point first starts (first - 1) * dim draws into
    # the stream (see the module docstring)
    rng = np.random.Generator(np.random.PCG64(seed).advance((first - 1) * dim))
    yield from _filled_blocks(lambda _, out: rng.random(out=out), dim, first, count, rows,
                              reuse)


def _filled_blocks(fill: Callable[[int, np.ndarray], np.ndarray], dim: int, first: int,
                   count: int, rows: int, reuse: bool) -> Iterator[np.ndarray]:
    """Points first..first+count-1 in blocks of at most rows points, each
    fill(index, out): out filled with the points from index on.  out is a
    new array per block, or with reuse a view of one array allocated once,
    so that each block overwrites the last.  No block is held here across
    a yield, so a new block is made only once the caller dropped the last."""
    shared = np.empty((min(rows, count), dim)) if reuse else None
    for done in range(0, count, rows):
        size = min(rows, count - done)
        yield fill(first + done, np.empty((size, dim)) if shared is None else shared[:size])


def _block_rows(kind: str, dim: int) -> int:
    """Points per sample block of this kind in dim dimensions (see the
    module docstring): one tile for random and Sobol, whose cost is per
    value; for Halton at most 8192 points and 2**21 values (16 MiB).  A
    Halton block costs a few numpy calls per base up to its rows (at tile
    size a 289-link block would make 289 base passes for 226 points), and
    a few per tile of the bases above them.  Memory stays flat in the
    links."""
    if kind == KIND_HALTON:
        return max(1, min(8192, 2 ** 21 // dim))
    return _tile_rows(dim)


def _tile_rows(dim: int) -> int:
    """Points per tile in dim dimensions: at most _TILE_VALUES values, and
    at least one point."""
    return max(1, _TILE_VALUES // dim)


@dataclass(frozen=True)
class SampleSequence:
    """Deterministic point source in [0,1)^dimension."""

    kind: str
    dimension: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.dimension < 1:
            raise UsageError(f"sequence dimension {self.dimension} is below 1: "
                             "a network with no links has no flow to sample")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind == KIND_SOBOL and self.dimension > sobol_max_dimension():
            raise DimensionTooLarge(self.dimension, sobol_max_dimension())

    def blocks(self, count: int) -> Iterator[np.ndarray]:
        """Points 1..count as (rows, dimension) arrays, in index order."""
        if count < 0:
            raise ValueError("count must be >= 0")
        check_sample_count(self.kind, count)
        return self._blocks(1, count, _block_rows(self.kind, self.dimension))

    def _blocks(self, first: int, count: int, rows: int,
                reuse: bool = False) -> Iterator[np.ndarray]:
        """Points first..first+count-1 in blocks of at most rows points;
        the caller has checked that the sequence indexes them.  Blocks are
        new arrays, or with reuse views of one array that each block
        overwrites, for a caller that drops each block before the next."""
        if self.kind == KIND_SOBOL:
            return _sobol_blocks(self.dimension, first, count, rows, reuse)
        if self.kind == KIND_HALTON:
            return _halton_blocks(self.dimension, first, count, rows, reuse)
        return _random_blocks(self.dimension, first, count, rows, self.seed, reuse)


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
    link; seed seeds the random kind.  A checkpoint m, in 1..n, equals an
    independent run with n=m because the estimate is a prefix maximum of a
    deterministic sequence.  A flow range hi - lo or an estimate past the
    float range raises BoundsError: the box is too wide.  Numpy's overflow
    warnings are off while the trace runs, so only that error reports it.
    More points than the sequence can index raise SampleCountTooLarge.  A
    max trace over Halton or Sobol points takes its hull in closed form, so
    its cost does not depend on n.  Any other trace walks its points in
    segments, one per CPU, on threads that are joined before it returns or
    raises; its values do not depend on the segment count (see the module
    docstring).  A box made for another network raises BoundsError
    (bounds.check_box).
    """
    check_box(net, box)
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
        wide = np.flatnonzero(~np.isfinite(box.hi - box.lo))
        if wide.size:
            raise BoundsError(f"link {box.link_ids[wide[0]]!r}: q_max - q_min overflows "
                              "a float: the box is too wide")
        if mode == MODE_MAX:
            trace = _max_trace(net, box, sequence, marks)
        else:
            trace = _sqrt_trace(net, box, sequence, marks)
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


def _segment_count(kind: str, n: int, dim: int) -> int:
    """Segments for a walk over points 1..n of this kind in dim dimensions:
    one per CPU, each of at least four tiles' points, and one for Halton
    (see the module docstring)."""
    if kind == KIND_HALTON:
        return 1
    return max(1, min(_cpu_count(), n // (4 * _tile_rows(dim))))


def _segment_walk(sequence: SampleSequence, marks: list[int],
                  walk: Callable[[Iterator[np.ndarray], list[int]], Iterator[float]]
                  ) -> list[tuple[int, float]]:
    """(mark, value) for each mark of the nondecreasing marks, the value of
    points 1..mark.

    walk(blocks, cuts) yields one float per cut, the value of the blocks'
    points up to it.  Points 1..marks[-1] split into _segment_count
    contiguous segments, each walked over its own blocks with the marks
    inside it, and its end unless it is the last, as cuts.  The first is
    walked on this thread and each other one on a thread of its own.  Once
    every thread is joined, the first error in index order is raised, or
    the values join in index order by max.
    """
    n = marks[-1]
    count = _segment_count(sequence.kind, n, sequence.dimension)
    rows = _block_rows(sequence.kind, sequence.dimension)
    edges = [n * s // count for s in range(count + 1)]
    inside = [[m for m in marks if lo < m <= hi] for lo, hi in zip(edges, edges[1:])]
    got: list = [None] * count

    def keep(s: int) -> None:
        lo, hi = edges[s], edges[s + 1]
        try:
            cuts = [m - lo for m in inside[s]] + ([hi - lo] if hi < n else [])
            got[s] = list(walk(sequence._blocks(lo + 1, hi - lo, rows, reuse=True), cuts))
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


def _prefix_walk(blocks: Iterator[np.ndarray], marks: list[int],
                 take: Callable[[np.ndarray], None]) -> Iterator[int]:
    """Feed the blocks' points, numbered from 1 up to marks[-1], to take,
    cut at the nondecreasing marks, at block ends and at tile edges, so
    that each cut is at most one tile, and yield each mark once take has
    had the points up to it.  No cut outlives its call to take, and each
    block is dropped before the next is generated, so one block is held at
    a time, and the blocks may be views of one array."""
    seen = 0
    at = 0
    for block in blocks:
        rows = _tile_rows(block.shape[1])
        start = 0
        while start < len(block):
            stop = min(len(block), start + rows, marks[at] - seen)
            take(block[start:stop])
            start = stop
            while at < len(marks) and marks[at] == seen + start:
                yield marks[at]
                at += 1
        seen += len(block)
        del block


def _max_trace(net: Network, box: FlowBox, sequence: SampleSequence,
               marks: list[int]) -> list[tuple[int, float]]:
    """Largest sampled Jacobian entry at each mark: the corner pass that
    gives K, at the corner of the hull of points 1..mark, a new array of two
    rows scaled into the box in place.  Halton and Sobol hulls are in closed
    form; random ones are reduced by segment, each evaluated at its own
    cuts (see the module docstring)."""
    width = box.hi - box.lo

    def corner(hull: np.ndarray) -> float:
        q = _scale_into_box(hull, box, width)
        return max(corner_derivatives(net, np.abs(q).max(axis=0).tolist()))

    if sequence.kind != KIND_RANDOM:
        hulls = _sobol_hulls if sequence.kind == KIND_SOBOL else _halton_hulls
        return [(mark, corner(hull)) for mark, hull in hulls(sequence.dimension, marks)]

    def walk(blocks: Iterator[np.ndarray], cuts: list[int]) -> Iterator[float]:
        p_min = np.full(sequence.dimension, np.inf)
        p_max = np.full(sequence.dimension, -np.inf)

        def take(p: np.ndarray) -> None:
            np.minimum(p_min, p.min(axis=0), out=p_min)
            np.maximum(p_max, p.max(axis=0), out=p_max)

        for _ in _prefix_walk(blocks, cuts, take):
            yield corner(np.stack([p_min, p_max]))

    return _segment_walk(sequence, marks, walk)


def _sqrt_trace(net: Network, box: FlowBox, sequence: SampleSequence,
                marks: list[int]) -> list[tuple[int, float]]:
    """Largest Frobenius norm of a sampled Jacobian at each mark; it needs
    every point, so each cut of the walk, at most one tile, is scaled and
    evaluated in place, and its row sums go to one buffer per segment (see
    the module docstring).  Segments join by max, before the root."""
    width = box.hi - box.lo

    def walk(blocks: Iterator[np.ndarray], cuts: list[int]) -> Iterator[float]:
        sums = np.empty(_tile_rows(net.n_links))
        best = 0.0

        def take(q: np.ndarray) -> None:
            nonlocal best
            g = _jacobian_diag_into(net, _scale_into_box(q, box, width), q)
            best = max(best, float(np.einsum("ij,ij->i", g, g, out=sums[:len(q)]).max()))

        for _ in _prefix_walk(blocks, cuts, take):
            yield best

    return [(mark, math.sqrt(best)) for mark, best in _segment_walk(sequence, marks, walk)]
