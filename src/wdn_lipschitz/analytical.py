"""Closed-form Lipschitz constants and their certified interval brackets.

Each component of the hydraulic nonlinearity depends on one flow only, so
its Jacobian is diagonal, and each entry is nondecreasing in |q_i| (every
exponent is >= 1).  Hence each entry's supremum over the flow box sits at the
corner c, where c_i is the endpoint of larger magnitude.  corner_of(net,
lo, hi) makes every Corner record: from stacked pairs of flow rows, a box's
ends or sample hulls', one record per pair, it takes each link's larger
magnitude and makes one pass over the network's
derivative table (network.py), coef_i * pow(c_i, expo_i) * post_i with no
branch on class: libm's pow on each link, by map(math.pow, ...), then two
whole-array multiplies in that order, keeping the values read-only.
corner(net, box) checks the box and makes its record; the max point trace
makes one pass per chunk of checkpoints' sample hulls (Halton, Sobol) or
per checkpoint of a segment (random).  Every max-mode result reads a
record in whole arrays.  The sharp constant K is the largest value, overall
and per class (an empty class contributes 0).  The one-sided constant equals
K, because the log norm of a nonnegative diagonal matrix is its largest entry.

The interval route brackets the suprema of max_i |J_ii| (max mode, the
spectral norm) and sqrt(sum_i J_ii**2) (sqrt mode, the Frobenius norm, an
upper bound on it).  It widens each corner value by 4 ulps to absorb libm
error, in whole-array nextafter steps, and combines them with outward
rounding: one ulp after each square and each math.fsum (correctly rounded),
and square roots checked exactly in rationals.  The bracket is a few ulps
wide.  k_network, interval_bracket and k_upper_* each build one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import FlowBox, check_box
from .errors import BoundsError
from .estimates import (METHOD_ANALYTICAL, METHOD_INTERVAL_UPPER, MODE_MAX, MODE_SQRT,
                        LipschitzEstimate)
from .network import Network


def sqrt_down(x: float) -> float:
    # r <= sqrt(x) iff r*r <= x, checked exactly in rationals
    r = math.sqrt(x)
    if Fraction(r) * Fraction(r) > Fraction(x):
        return max(0.0, math.nextafter(r, -math.inf))
    return r


def sqrt_up(x: float) -> float:
    r = math.sqrt(x)
    if Fraction(r) * Fraction(r) < Fraction(x):
        return math.nextafter(r, math.inf)
    return r


@dataclass(frozen=True)
class Bracket:
    """lower <= sup over the box of the objective <= upper."""

    upper: float
    lower: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class Corner:
    """Each link's |J_ii| at the corner of a box or sample hull, its supremum
    there, read-only; class_ends are the stacked ends of the pipes and pumps."""

    values: np.ndarray
    class_ends: tuple[int, int]

    def k(self) -> LipschitzEstimate:
        """K over the box, one-sided too, with each class's in ``per_class``."""
        pumps, valves = self.class_ends
        parts = (self.values[:pumps], self.values[pumps:valves], self.values[valves:])
        per_class = {name: float(part.max(initial=0.0))
                     for name, part in zip(("pipes", "pumps", "valves"), parts)}
        return LipschitzEstimate(value=max(per_class.values()), method=METHOD_ANALYTICAL,
                                 mode=MODE_MAX, per_class=per_class)

    def enclosures(self) -> tuple[np.ndarray, np.ndarray]:
        """Certified (lowers, uppers) of each |J_ii|: an upper bounds it over the
        box, and a lower is below its corner value, so is attained in the box."""
        # Where the 4-ulp widening comes from: the longest chain is the pump's
        # (nu * r) * pow(m, nu-1) * pow(s, 2-nu), the table's coef, pow and post.
        # Its exponents are exact (Sterbenz: mu, nu in [1, 3]), each libm pow is
        # within 1 ulp and each of the 3 multiplies within half an ulp, so the
        # errors add to at most 2 + 1.5 = 3.5 ulps.  Pipes and valves have fewer
        # inexact operations.  This adds ulps of different intermediates, a first-order
        # count; the 200-bit mpmath property test in tests/test_bnb.py
        # (test_corner_enclosures_contain_exact_derivative) checks it, and
        # random draws stayed within 2.7 ulps.
        lowers = uppers = self.values
        with np.errstate(over="ignore"):   # a step past the float range is inf
            for _ in range(4):
                lowers, uppers = np.nextafter(lowers, -np.inf), np.nextafter(uppers, np.inf)
        return np.maximum(0.0, lowers), uppers

    def bracket(self, mode: str) -> Bracket:
        """Bracket lower <= sup_box F <= upper for the max or sqrt objective."""
        lowers, uppers = self.enclosures()
        if mode == MODE_MAX:
            # a network with no links has an empty max, 0, as in k
            lower, upper = float(lowers.max(initial=0.0)), float(uppers.max(initial=0.0))
        elif mode == MODE_SQRT:
            with np.errstate(over="ignore"):   # a square past the float range is inf
                squares_lo = np.maximum(0.0, np.nextafter(lowers * lowers, -np.inf))
                squares_hi = np.nextafter(uppers * uppers, np.inf)
            try:
                sum_lo, sum_hi = math.fsum(squares_lo.tolist()), math.fsum(squares_hi.tolist())
                lower = sqrt_down(max(0.0, math.nextafter(sum_lo, -math.inf)))
                # fsum rounds correctly, so a sum of exactly 0 (no links, as in
                # max mode) needs no outward step
                upper = sqrt_up(math.nextafter(sum_hi, math.inf)) if sum_hi else 0.0
            except OverflowError:   # fsum's partial sums, or Fraction(inf) in sqrt_up
                upper = math.inf
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if not math.isfinite(upper):
            raise BoundsError(f"{mode}-mode interval enclosure overflows a float: "
                              "the box is too wide")
        return Bracket(upper=upper, lower=lower)

    def interval(self, mode: str) -> LipschitzEstimate:
        """The certified upper bound of the mode's bracket."""
        result = self.bracket(mode)
        return LipschitzEstimate(value=result.upper, method=METHOD_INTERVAL_UPPER, mode=mode,
                                 gap=result.gap, effort=1)


def corner_of(net: Network, lo: np.ndarray, hi: np.ndarray) -> list[Corner]:
    """The Corners of the stacked flow rows lo and hi, shape (m, n_links),
    each pair a box's ends or a sample hull: one record per row, from one
    pass, of each link's |J_ii| at its larger magnitude, its supremum over
    [lo[r], hi[r]].  A row's record has the same bits in any stack.  A value
    past the float range raises BoundsError for the first such link in
    stacked order: the box is too wide.

    libm's pow makes every power (map(math.pow, ...)), and the products are
    whole-array multiplies in the per-link order, (coef * pow) * post, each
    correctly rounded as Python's own float multiply is.
    """
    magnitudes = np.abs(lo)
    np.maximum(magnitudes, np.abs(hi), out=magnitudes)
    flat = magnitudes.ravel().tolist()
    expos = net._expo_floats * len(magnitudes)
    try:
        powers = np.fromiter(map(math.pow, flat, expos), float, len(flat))
    except OverflowError:   # past the float range: named below
        powers = np.fromiter(map(_pow_or_inf, flat, expos), float, len(flat))
    with np.errstate(over="ignore", invalid="ignore"):   # a product past the range, below
        values = net.deriv_coef * powers.reshape(magnitudes.shape)
        values *= net.deriv_post
    wide = np.flatnonzero(~np.isfinite(values))
    if wide.size:
        raise BoundsError(f"link {net.link_ids[wide[0] % net.n_links]!r}: |df/dq| at flow "
                          f"{flat[wide[0]]!r} overflows a float")
    values.flags.writeable = False
    class_ends = (net.n_pipes, net.n_pipes + net.n_pumps)
    return [Corner(row, class_ends) for row in values]


def _pow_or_inf(m: float, expo: float) -> float:
    try:
        return math.pow(m, expo)
    except OverflowError:
        return math.inf


def corner(net: Network, box: FlowBox) -> Corner:
    """The box's Corner, from one check_box and one corner_of pass."""
    check_box(net, box)
    return corner_of(net, box.lo[None], box.hi[None])[0]


def k_network(net: Network, box: FlowBox) -> LipschitzEstimate:
    """Exact Lipschitz (and one-sided Lipschitz) constant over the box, with
    the constant of each link class in ``per_class``."""
    return corner(net, box).k()


def interval_bracket(net: Network, box: FlowBox, mode: str) -> Bracket:
    """Bracket lower <= sup_box F <= upper for the max or sqrt objective."""
    return corner(net, box).bracket(mode)


def _estimate(net: Network, box: FlowBox, gap_tol: float, max_boxes: int,
              mode: str) -> LipschitzEstimate:
    # gap_tol and max_boxes change no number (one box, a bracket a few ulps
    # wide); they stay, checked, for callers that pass them positionally
    if gap_tol <= 0:
        raise ValueError("gap_tol must be > 0")
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")
    return corner(net, box).interval(mode)


def k_upper_max(net: Network, box: FlowBox, gap_tol: float = 1e-3,
                max_boxes: int = 1) -> LipschitzEstimate:
    """Certified upper bound in max mode; within a few ulps of the sharp constant."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_MAX)


def k_upper_sqrt(net: Network, box: FlowBox, gap_tol: float = 1e-3,
                 max_boxes: int = 1) -> LipschitzEstimate:
    """Certified upper bound in sqrt (Frobenius) mode; >= the max-mode value."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_SQRT)
