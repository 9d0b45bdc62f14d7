"""Closed-form Lipschitz constants and their certified interval brackets.

Each component of the hydraulic nonlinearity depends on one flow only, so
its Jacobian is diagonal, and each entry is nondecreasing in |q_i| (every
exponent is >= 1).  Hence each entry's supremum over the flow box sits at the
corner c, where c_i is the endpoint of larger magnitude.  One pass,
corner_derivatives, serves all three max-mode routes: K and the interval
brackets below at c, and the max point trace at its sample hull's corner.
It reads the network's derivative table (network.py) and evaluates each
link's coef_i * pow(c_i, expo_i) * post_i with libm, with no branch on class.

The sharp constant K is the largest of these, overall and per class (an
empty class contributes 0); k_network returns both.  The one-sided constant
equals K, because the log norm of a nonnegative diagonal matrix is its
largest entry, so k_network's estimate is also the one-sided constant.

The interval route brackets the suprema of max_i |J_ii| (max mode, the
spectral norm) and sqrt(sum_i J_ii**2) (sqrt mode, the Frobenius norm, an
upper bound on it).  It widens each corner value by 4 ulps to absorb libm
error and combines them with outward rounding: one ulp after each square
and each math.fsum (correctly rounded), and square roots checked exactly in
rationals.  The bracket is a few ulps wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import FlowBox, check_box
from .errors import BoundsError
from .estimates import (METHOD_ANALYTICAL, METHOD_INTERVAL_UPPER, MODE_MAX, MODE_SQRT,
                        LipschitzEstimate)
from .network import Network


def corner_derivatives(net: Network, magnitudes: list[float]) -> list[float]:
    """Each link's |J_ii| at its flow magnitude; at FlowBox.corner_magnitudes,
    its supremum over the box.  A value past the float range raises
    BoundsError: the box is too wide."""
    values = []
    for link_id, m, coef, expo, post in zip(net.link_ids, magnitudes, net.deriv_coef.tolist(),
                                            net.deriv_expo.tolist(), net.deriv_post.tolist()):
        try:
            value = coef * math.pow(m, expo) * post
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise BoundsError(f"link {link_id!r}: |df/dq| at flow {m!r} overflows a float")
        values.append(value)
    return values


def k_network(net: Network, box: FlowBox) -> LipschitzEstimate:
    """Exact Lipschitz (and one-sided Lipschitz) constant over the box, with
    the constant of each link class in ``per_class``."""
    check_box(net, box)
    values = corner_derivatives(net, box.corner_magnitudes())
    pumps_end = net.n_pipes + net.n_pumps
    per_class = {
        "pipes": max(values[:net.n_pipes], default=0.0),
        "pumps": max(values[net.n_pipes:pumps_end], default=0.0),
        "valves": max(values[pumps_end:], default=0.0),
    }
    return LipschitzEstimate(
        value=max(per_class.values()),
        method=METHOD_ANALYTICAL,
        mode=MODE_MAX,
        per_class=per_class,
    )


def ulp_up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def ulp_down(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def sqrt_down(x: float) -> float:
    # r <= sqrt(x) iff r*r <= x, checked exactly in rationals
    r = math.sqrt(x)
    if Fraction(r) * Fraction(r) > Fraction(x):
        return max(0.0, ulp_down(r))
    return r


def sqrt_up(x: float) -> float:
    r = math.sqrt(x)
    if Fraction(r) * Fraction(r) < Fraction(x):
        return ulp_up(r)
    return r


@dataclass(frozen=True)
class Bracket:
    """lower <= sup over the box of the objective <= upper."""

    upper: float
    lower: float
    gap: float


def corner_enclosures(net: Network, box: FlowBox) -> tuple[list[float], list[float]]:
    """Certified (lowers, uppers) of each |J_ii| at the box corner.

    Each upper bounds its entry over the whole box; each lower is below the
    entry's value at the corner, so it is attained inside the box.  A box
    made for another network raises BoundsError (bounds.check_box).
    """
    # Where the 4-ulp widening comes from: the longest chain is the pump's
    # (nu * r) * pow(m, nu-1) * pow(s, 2-nu), the table's coef, pow and post.
    # Its exponents are exact (Sterbenz: mu, nu in [1, 3]), each libm pow is
    # within 1 ulp and each of the 3 multiplies within half an ulp, so the
    # errors add to at most 2 + 1.5 = 3.5 ulps.  Pipes and valves have fewer
    # inexact operations.  This adds ulps of different intermediates, a first-order
    # count; the 200-bit mpmath property test in tests/test_bnb.py
    # (test_corner_enclosures_contain_exact_derivative) checks it, and
    # random draws stayed within 2.7 ulps.
    check_box(net, box)
    values = corner_derivatives(net, box.corner_magnitudes())
    return [max(0.0, ulp_down(v, 4)) for v in values], [ulp_up(v, 4) for v in values]


def interval_bracket(net: Network, box: FlowBox, mode: str) -> Bracket:
    """Bracket lower <= sup_box F <= upper for the max or sqrt objective."""
    lowers, uppers = corner_enclosures(net, box)
    if mode == MODE_MAX:
        # a network with no links has an empty max, 0, as in k_network
        lower, upper = max(lowers, default=0.0), max(uppers, default=0.0)
    elif mode == MODE_SQRT:
        try:
            squares_lo = math.fsum(max(0.0, ulp_down(x * x)) for x in lowers)
            squares_hi = math.fsum(ulp_up(x * x) for x in uppers)
            lower = sqrt_down(max(0.0, ulp_down(squares_lo)))
            # fsum rounds correctly, so a sum of exactly 0 (no links, as in
            # max mode) needs no outward step
            upper = sqrt_up(ulp_up(squares_hi)) if squares_hi else 0.0
        except OverflowError:   # fsum's partial sums, or Fraction(inf) in sqrt_up
            upper = math.inf
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not math.isfinite(upper):
        raise BoundsError(f"{mode}-mode interval enclosure overflows a float: the box is too wide")
    return Bracket(upper=upper, lower=lower, gap=upper - lower)


def _estimate(net: Network, box: FlowBox, gap_tol: float, max_boxes: int,
              mode: str) -> LipschitzEstimate:
    # gap_tol and max_boxes change no number (one box, a bracket a few ulps
    # wide); they stay, checked, for callers that pass them positionally
    if gap_tol <= 0:
        raise ValueError("gap_tol must be > 0")
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")
    result = interval_bracket(net, box, mode)
    return LipschitzEstimate(
        value=result.upper,
        method=METHOD_INTERVAL_UPPER,
        mode=mode,
        gap=result.gap,
        effort=1,
    )


def k_upper_max(net: Network, box: FlowBox, gap_tol: float = 1e-3,
                max_boxes: int = 1) -> LipschitzEstimate:
    """Certified upper bound in max mode; within a few ulps of the sharp constant."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_MAX)


def k_upper_sqrt(net: Network, box: FlowBox, gap_tol: float = 1e-3,
                 max_boxes: int = 1) -> LipschitzEstimate:
    """Certified upper bound in sqrt (Frobenius) mode; >= the max-mode value."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_SQRT)
