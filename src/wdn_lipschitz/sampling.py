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

The table file is integrity-checked against a pinned SHA-256 before use.

Estimates are running maxima over sample prefixes, so they are nondecreasing
in the sample count and identical for any block size or parallel schedule.
A sample p maps into the flow box as ``p*w + lo``, then a clip, with
``w = hi - lo`` computed once.

A ``max`` trace evaluates no Jacobian on the blocks.  It keeps the
per-coordinate minimum and maximum of the unit samples, and at each
checkpoint maps those two hull rows into the box and takes their largest
Jacobian entry.  Each step of the map is nondecreasing in p, so a
coordinate's smallest and largest flow are the images of its hull entries,
and every Jacobian entry is nondecreasing in ``|q_i|``.  So the hull gives
the maximum over all sampled points bit for bit wherever numpy's ``pow`` is
monotone, and never more than that, since each hull entry is a sampled
flow.  It holds one sample block (at most 8192 points and 64 MiB).

A ``sqrt`` trace needs each point's sum of squares.  It scales each block
in place and writes its Jacobian into one buffer reused for every block, so
it holds one sample block and one Jacobian buffer of the same size.
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
from .errors import DimensionTooLarge
from .network import Network, _jacobian_diag_into

KIND_RANDOM = "random"
KIND_HALTON = "halton"
KIND_SOBOL = "sobol"
SAMPLER_KINDS = (KIND_RANDOM, KIND_HALTON, KIND_SOBOL)

_DIRECTIONS_FILE = "joe_kuo_6_1111.txt"
_DIRECTIONS_SHA256 = "2afb7368f5ad2b6ab11ad628f3c44c2fa68914bb2fe2c3987b5164c3a782501c"
_SOBOL_BITS = 32
# a default block holds at most 8192 points and at most 2**23 float64
# values (64 MiB), so memory stays flat however many links the network has
_BLOCK_ROWS = 8192
_BLOCK_VALUES = 2 ** 23
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
    """Direction numbers as a (bits, dim) uint64 matrix of 32-bit integers."""
    rows = _direction_rows()
    if dim > len(rows) + 1:
        raise DimensionTooLarge(dim, len(rows) + 1)
    v = np.zeros((_SOBOL_BITS, dim), dtype=np.uint64)
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


def _sobol_blocks(dim: int, count: int, block: int) -> Iterator[np.ndarray]:
    if count >= 2 ** _SOBOL_BITS:
        raise ValueError(f"at most {2 ** _SOBOL_BITS - 1} Sobol points supported")
    v = _sobol_matrix(dim)
    state = np.zeros(dim, dtype=np.uint64)
    for done in range(0, count, block):
        yield _sobol_block(v, state, done, min(block, count - done))


def _sobol_block(v: np.ndarray, state: np.ndarray, done: int, size: int) -> np.ndarray:
    """Sobol points done+1..done+size; state is the Gray-code state after
    point done, and is advanced in place."""
    out = np.empty((size, len(state)))
    for index in range(done + 1, done + size + 1):
        level = (index & -index).bit_length() - 1
        state ^= v[level]
        out[index - done - 1] = state
    out *= 0.5 ** _SOBOL_BITS
    return out


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
    estimate is a prefix maximum of a deterministic sequence.
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
    estimate = LipschitzEstimate(
        value=value,
        method=METHOD_POINT_LOWER,
        mode=mode,
        effort=n,
    )
    return estimate, trace


def _scale_into_box(q: np.ndarray, box: FlowBox, width: np.ndarray) -> np.ndarray:
    # lo + p*(hi-lo) in place, clipped against rounding drift past an endpoint
    np.multiply(q, width, out=q)
    np.add(q, box.lo, out=q)
    np.clip(q, box.lo, box.hi, out=q)
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
    pending prefix; it needs every point, so each block is evaluated."""
    trace: list[tuple[int, float]] = []
    next_mark = 0
    best = 0.0
    seen = 0
    width = box.hi - box.lo
    jacobian = None
    for q in blocks:
        _scale_into_box(q, box, width)
        if jacobian is None:
            jacobian = np.empty_like(q)
        g = _jacobian_diag_into(net, q, jacobian[:len(q)])
        running = np.maximum.accumulate(np.einsum("ij,ij->i", g, g))
        while next_mark < len(pending) and pending[next_mark] <= seen + len(running):
            at = pending[next_mark]
            next_mark += 1
            trace.append((at, math.sqrt(max(best, float(running[at - seen - 1])))))
        best = max(best, float(running[-1]))
        seen += len(running)
        del q  # so the next block is generated with this one freed
    return math.sqrt(best), trace
