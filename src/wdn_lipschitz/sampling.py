"""Point-based under-approximation of Lipschitz constants.

SampleSequence(kind, dimension, seed) yields deterministic points in the
half-open unit cube [0,1)^d, in blocks or as one array (``points(n)``):

* ``random``: numpy's PCG64 generator with an explicit seed;
* ``halton``: coordinate k of point j is the radical inverse of j+1 in the
  k-th prime base (Halton 1960), its digits folded low first: ``f /= b``,
  then ``r += digit * f``.  A block is built from runs of consecutive
  indices, not one digit loop per index.  For a base b up to the block's
  rows, the fold of the low k digits (b**k the largest power within the
  rows) is a table built once per sequence, and each run of equal high
  part is a slice of that table plus the fold of the run's few high
  digits, added in the same order.  A base above the rows meets at most
  two runs.  A base above the block's last index leaves every index j one
  digit, j * (1/b), so all such bases take one multiply.  A digit that a
  shorter index lacks adds +0.0, which is exact, so every value has the
  bits of the plain digit loop.  Bases are folded 16 at a time and copied
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
  states of 0..127 (the XOR span of v[0..6]), XORed with the run's first
  state, which steps to the next run by one XOR,
  v[6] ^ v[7 + trailing zeros of r+1].  States are uint32 and
  float(uint32) * 2**-32 is exact, so every value has the bits of the
  per-point loop.  A few runs at a time go through a small uint32 scratch.

The table file is integrity-checked against a pinned SHA-256 before use.

Estimates are running maxima over sample prefixes, so they are nondecreasing
in the sample count and identical for any block size or parallel schedule.
A sample p maps into the flow box as ``p*w + lo``, then a clip at hi, with
``w = hi - lo`` computed once; the sum never falls below lo (see
``_scale_into_box``).

A ``max`` trace evaluates no Jacobian on the blocks.  It keeps the
per-coordinate minimum and maximum of the unit samples, and at each
checkpoint maps those two hull rows into the box and takes their largest
Jacobian entry.  Each step of the map is nondecreasing in p, so a
coordinate's smallest and largest flow are the images of its hull entries,
and every Jacobian entry is nondecreasing in ``|q_i|``.  So the hull gives
the maximum over all sampled points bit for bit wherever numpy's ``pow`` is
monotone, and never more than that, since each hull entry is a sampled
flow.  It holds one sample block (at most 8192 points and 64 MiB).

A ``sqrt`` trace needs each point's sum of squares.  It walks each block
in tiles of at most 2**16 values (512 KiB): it scales a tile in place,
writes its Jacobian into one tile-sized buffer and its row sums into a
vector for the block, then takes the block's prefix maximum.  So it holds
one sample block plus one tile, and each tile's passes stay in cache.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

import numpy as np

from .bounds import FlowBox
from .estimates import METHOD_POINT_LOWER, MODE_MAX, MODE_SQRT, LipschitzEstimate
from .errors import BoundsError, DimensionTooLarge
from .network import Network, _jacobian_diag_into

KIND_RANDOM = "random"
KIND_HALTON = "halton"
KIND_SOBOL = "sobol"
SAMPLER_KINDS = (KIND_RANDOM, KIND_HALTON, KIND_SOBOL)

_DIRECTIONS_FILE = "joe_kuo_6_1111.txt"
_DIRECTIONS_SHA256 = "2afb7368f5ad2b6ab11ad628f3c44c2fa68914bb2fe2c3987b5164c3a782501c"
_SOBOL_BITS = 32
# Sobol states are built by aligned runs of 2**7 indices, a few runs at a
# time in a uint32 scratch of at most this many values (or one run)
_SOBOL_RUN_BITS = 7
_SOBOL_RUN = 1 << _SOBOL_RUN_BITS
_SOBOL_SCRATCH_VALUES = 2 ** 16
# a default block holds at most 8192 points and at most 2**23 float64
# values (64 MiB), so memory stays flat however many links the network has
_BLOCK_ROWS = 8192
_BLOCK_VALUES = 2 ** 23
# a sqrt trace evaluates a block in tiles of at most this many values
# (512 KiB of float64), so its Jacobian stays in a core's cache
_TILE_VALUES = 2 ** 16
# Halton folds this many bases link-major, then copies them into the block
# transposed, so the block is written C-contiguous
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


def _load_direction_table() -> list[tuple[int, int, list[int]]]:
    data = resources.files("wdn_lipschitz.data").joinpath(_DIRECTIONS_FILE).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _DIRECTIONS_SHA256:
        raise RuntimeError(
            f"direction-number table checksum mismatch: {digest} != {_DIRECTIONS_SHA256}"
        )
    rows = []
    lines = data.decode("ascii").splitlines()
    for line in lines[1:]:
        fields = line.split()
        if not fields:
            continue
        s, a = int(fields[1]), int(fields[2])
        m = [int(tok) for tok in fields[3:]]
        if len(m) != s:
            raise RuntimeError("corrupt direction-number row")
        rows.append((s, a, m))
    return rows


@lru_cache(maxsize=None)
def _direction_rows() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    return tuple((s, a, tuple(m)) for s, a, m in _load_direction_table())


def sobol_max_dimension() -> int:
    return len(_direction_rows()) + 1


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
    return v


def _sobol_state(v: np.ndarray, index: int) -> np.ndarray:
    """Gray-code state of index: the XOR of v[k] over the set bits k of
    gray(index) = index ^ (index >> 1)."""
    gray = index ^ (index >> 1)
    return np.bitwise_xor.reduce(v[[k for k in range(_SOBOL_BITS) if gray >> k & 1]], axis=0)


def _sobol_blocks(dim: int, count: int, block: int) -> Iterator[np.ndarray]:
    if count >= 2 ** _SOBOL_BITS:
        raise ValueError(f"at most {2 ** _SOBOL_BITS - 1} Sobol points supported")
    v = _sobol_matrix(dim)
    # the states of indices 0..127, by reflection: gray(h + j) = h ^ gray(h-1-j)
    table = np.zeros((_SOBOL_RUN, dim), dtype=np.uint32)
    for k in range(_SOBOL_RUN_BITS):
        h = 1 << k
        np.bitwise_xor(table[h - 1::-1], v[k], out=table[h:2 * h])
    # from the first state of run r to that of run r+1, r+1 with k trailing zeros
    steps = v[_SOBOL_RUN_BITS - 1] ^ v[_SOBOL_RUN_BITS:]
    runs = max(1, _SOBOL_SCRATCH_VALUES // table.size)
    scratch = np.empty((runs * _SOBOL_RUN, dim), dtype=np.uint32)
    for done in range(0, count, block):
        yield _sobol_block(v, table, steps, scratch, done + 1, min(block, count - done))


def _sobol_block(v: np.ndarray, table: np.ndarray, steps: np.ndarray,
                 scratch: np.ndarray, first: int, size: int) -> np.ndarray:
    """Sobol points first..first+size-1, C-contiguous.

    The states of a run are table XOR the state of the run's first index
    (see the module docstring).  They are XORed into scratch run by run,
    and scratch is scaled into the block whenever the next run might not
    fit.
    """
    out = np.empty((size, v.shape[1]))
    run, lead = divmod(first, _SOBOL_RUN)
    base = _sobol_state(v, first - lead)
    written = held = 0
    while True:
        take = min(_SOBOL_RUN - lead, size - written - held)
        np.bitwise_xor(table[lead:lead + take], base, out=scratch[held:held + take])
        held += take
        if written + held == size or held + _SOBOL_RUN > len(scratch):
            np.multiply(scratch[:held], 0.5 ** _SOBOL_BITS, out=out[written:written + held])
            written += held
            held = 0
            if written == size:
                return out
        run += 1
        lead = 0
        base ^= steps[(run & -run).bit_length() - 1]


def _halton_blocks(dim: int, count: int, block: int) -> Iterator[np.ndarray]:
    bases = _first_primes(dim)
    tables: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
    chunk = np.empty((_HALTON_CHUNK, min(block, count)))
    for done in range(0, count, block):
        yield _halton_block(bases, done + 1, min(block, count - done), tables, chunk)


def _halton_block(bases: list[int], first: int, size: int,
                  tables: dict[tuple[int, int], tuple[np.ndarray, float]],
                  chunk: np.ndarray) -> np.ndarray:
    """Halton points first..first+size-1, C-contiguous.

    tables caches each base's low-digit fold across the blocks of one
    sequence; chunk is scratch for _HALTON_CHUNK rows of size values.
    """
    last = first + size - 1
    out = np.empty((size, len(bases)))
    # a base above the last index leaves every index j one digit: j * (1/base)
    folded = bisect.bisect_right(bases, last)
    np.multiply(np.arange(first, last + 1, dtype=float)[:, None],
                1.0 / np.array(bases[folded:], dtype=float), out=out[:, folded:])
    for start in range(0, folded, _HALTON_CHUNK):
        part = bases[start:start + _HALTON_CHUNK]
        for row, base in zip(chunk, part):
            if base > size:
                # at most two runs: the low digit is built per run
                _halton_runs(row[:size], first, base, base, None, 1.0 / base)
                continue
            span = base
            while span * base <= size:
                span *= base
            if (base, span) not in tables:
                tables[base, span] = _fold_digits(base, span)
            table, weight = tables[base, span]
            _halton_runs(row[:size], first, base, span, table, weight)
        out[:, start:start + len(part)] = chunk[:len(part), :size].T
    return out


def _fold_digits(base: int, span: int) -> tuple[np.ndarray, float]:
    """Radical inverses of 0..span-1 in base, digits folded low first:
    f /= base, then r += digit * f.  Also returns the weight f of the
    last digit folded."""
    idx = np.arange(span)
    r = np.zeros(span)
    f = 1.0
    while idx.any():
        f /= base
        r += (idx % base) * f
        idx //= base
    return r, f


def _halton_runs(row: np.ndarray, first: int, base: int, span: int,
                 table: np.ndarray | None, weight: float) -> None:
    """Radical inverses of first, first+1, ... in base, written into row.

    span is base**k and table the fold of the low k digits of 0..span-1,
    with weight the weight of digit k.  The indices fall into runs of equal
    high part j // span; each run is a slice of the table plus the fold of
    its high digits, added digit by digit as _fold_digits adds them.  A
    missing high digit adds +0.0, which leaves r >= 0 unchanged, so every
    value has the bits of the digit loop run on j itself.  table None means
    k = 1 and span > len(row): the run's low digit times weight.
    """
    size = len(row)
    lead = first % span
    head = min(span - lead, size) if lead else 0
    whole = (size - head) // span
    tail = head + whole * span
    if head:
        row[:head] = (table[lead:lead + head] if table is not None
                      else np.arange(lead, lead + head) * weight)
    body = row[head:tail].reshape(whole, span)
    if whole:
        body[...] = table
    if tail < size:
        row[tail:] = (table[:size - tail] if table is not None
                      else np.arange(size - tail) * weight)
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


def _random_blocks(dim: int, count: int, block: int, seed: int) -> Iterator[np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    for done in range(0, count, block):
        yield rng.random((min(block, count - done), dim))


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
            raise ValueError("dimension must be >= 1")
        if self.kind == KIND_SOBOL and self.dimension > sobol_max_dimension():
            raise DimensionTooLarge(self.dimension, sobol_max_dimension())

    def blocks(self, count: int, block: int | None = None) -> Iterator[np.ndarray]:
        if count < 0:
            raise ValueError("count must be >= 0")
        if block is None:
            block = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // self.dimension))
        elif block < 1:
            raise ValueError("block must be >= 1")
        if self.kind == KIND_SOBOL:
            return _sobol_blocks(self.dimension, count, block)
        if self.kind == KIND_HALTON:
            return _halton_blocks(self.dimension, count, block)
        return _random_blocks(self.dimension, count, block, self.seed)

    def points(self, count: int) -> np.ndarray:
        parts = list(self.blocks(count))
        if not parts:
            return np.empty((0, self.dimension))
        return np.concatenate(parts, axis=0)


def k_lower(net: Network, box: FlowBox, sampler: str | SampleSequence, n: int,
            mode: str = MODE_MAX, seed: int = 0,
            block: int | None = None) -> LipschitzEstimate:
    """Best objective value over n sampled flow points (an under-estimate)."""
    estimate, _ = k_lower_trace(net, box, sampler, n, mode=mode, seed=seed,
                                block=block, checkpoints=())
    return estimate


def k_lower_trace(
    net: Network,
    box: FlowBox,
    sampler: str | SampleSequence,
    n: int,
    mode: str = MODE_MAX,
    seed: int = 0,
    block: int | None = None,
    checkpoints: tuple[int, ...] = (),
) -> tuple[LipschitzEstimate, list[tuple[int, float]]]:
    """k_lower plus the running estimate at each requested prefix length.

    A checkpoint at m equals an independent run with n=m because the
    estimate is a prefix maximum of a deterministic sequence.  An estimate
    past the float range raises BoundsError: the box is too wide.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in (MODE_MAX, MODE_SQRT):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(sampler, str):
        sampler = SampleSequence(sampler, net.n_links, seed)
    elif sampler.dimension != net.n_links:
        raise ValueError("sampler dimension does not match the network")

    pending = sorted(c for c in checkpoints if 1 <= c <= n)
    blocks = sampler.blocks(n, block)
    if mode == MODE_MAX:
        value, trace = _max_trace(net, box, blocks, pending)
    else:
        value, trace = _sqrt_trace(net, box, blocks, pending)
    # the trace is nondecreasing, so a finite last value makes all finite
    if not math.isfinite(value):
        raise BoundsError(f"{mode}-mode point estimate overflows a float: the box is too wide")
    estimate = LipschitzEstimate(
        value=value,
        method=METHOD_POINT_LOWER,
        mode=mode,
        effort=n,
    )
    return estimate, trace


def _scale_into_box(q: np.ndarray, box: FlowBox, width: np.ndarray) -> np.ndarray:
    # lo + p*w in place, with w = fl(hi - lo), then clipped at hi against
    # rounding drift.  No lower clip is needed: p >= 0 and w >= 0 give
    # fl(p*w) >= 0, and rounding is monotone, so fl(lo + p*w) >= fl(lo) = lo.
    # A lower clip could only change the sign of a zero flow, and every
    # Jacobian entry reads |q|.  (A width that overflowed to inf times p = 0
    # is NaN, with or without the lower clip.)
    np.multiply(q, width, out=q)
    np.add(q, box.lo, out=q)
    np.minimum(q, box.hi, out=q)
    return q


def _max_trace(net: Network, box: FlowBox, blocks: Iterator[np.ndarray],
               pending: list[int]) -> tuple[float, list[tuple[int, float]]]:
    """Largest sampled Jacobian entry, overall and at each pending prefix,
    from the per-column hull of the unit samples (see the module docstring)."""
    width = box.hi - box.lo
    p_min = np.full(len(width), np.inf)
    p_max = np.full(len(width), -np.inf)

    def hull_max() -> float:
        q = _scale_into_box(np.stack([p_min, p_max]), box, width)
        return float(_jacobian_diag_into(net, q, np.empty_like(q)).max())

    trace: list[tuple[int, float]] = []
    next_mark = 0
    seen = 0
    for p in blocks:
        start = 0
        while start < len(p):
            stop = len(p)
            if next_mark < len(pending):
                stop = min(stop, pending[next_mark] - seen)
            seg = p[start:stop]
            np.minimum(p_min, seg.min(axis=0), out=p_min)
            np.maximum(p_max, seg.max(axis=0), out=p_max)
            del seg  # a live view would keep this block alive into the next
            start = stop
            while next_mark < len(pending) and pending[next_mark] == seen + start:
                trace.append((pending[next_mark], hull_max()))
                next_mark += 1
        seen += len(p)
        del p  # so the next block is generated with this one freed
    return hull_max(), trace


def _sqrt_trace(net: Network, box: FlowBox, blocks: Iterator[np.ndarray],
                pending: list[int]) -> tuple[float, list[tuple[int, float]]]:
    """Largest Frobenius norm of a sampled Jacobian, overall and at each
    pending prefix; it needs every point, so each block is evaluated, one
    tile of rows at a time (see the module docstring)."""
    trace: list[tuple[int, float]] = []
    next_mark = 0
    best = 0.0
    seen = 0
    width = box.hi - box.lo
    rows = max(1, _TILE_VALUES // net.n_links)
    jacobian = np.empty((rows, net.n_links))
    for q in blocks:
        running = np.empty(len(q))
        for start in range(0, len(q), rows):
            tile = _scale_into_box(q[start:start + rows], box, width)
            g = _jacobian_diag_into(net, tile, jacobian[:len(tile)])
            np.einsum("ij,ij->i", g, g, out=running[start:start + len(tile)])
        del tile  # a live view would keep this block alive into the next
        np.maximum.accumulate(running, out=running)
        while next_mark < len(pending) and pending[next_mark] <= seen + len(running):
            at = pending[next_mark]
            next_mark += 1
            trace.append((at, math.sqrt(max(best, float(running[at - seen - 1])))))
        best = max(best, float(running[-1]))
        seen += len(running)
        del q  # so the next block is generated with this one freed
    return math.sqrt(best), trace
