"""Certified interval brackets on the Lipschitz constant, from one box corner.

The two objectives, as functions of the stacked flows q:

    max  mode   F(q) = max_i |df_i/dq_i (q_i)|          (spectral norm of the
                diagonal Jacobian; its supremum is the sharp constant)
    sqrt mode   F(q) = sqrt(sum_i (df_i/dq_i (q_i))**2)  (Frobenius norm;
                an upper bound on the spectral norm)

Both are separable, and each term is nondecreasing in |q_i|.  So both
suprema over the flow box sit at its corner c, where c_i is the endpoint of
larger magnitude on coordinate i.  The certificate evaluates each link's
derivative once at |c_i|, with the scalar expressions of the analytical
closed forms, and widens it outward by 4 ulps to absorb libm error.  The
upper end of the bracket is the outward-rounded objective over those widened
values; the lower end is the same computation rounded downward, which
encloses F(c) from below.  The bracket is a few ulps wide and costs one
O(n) pass.

Directed rounding is done here, with ulp nudges via math.nextafter: each
square and each math.fsum (correctly rounded) moves one ulp outward, and
sqrt_down/sqrt_up check the root exactly in rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytical import link_derivative
from .bounds import FlowBox
from .estimates import METHOD_INTERVAL_UPPER, MODE_MAX, MODE_SQRT, LipschitzEstimate
from .network import Network

TERMINATED_GAP = "gap"
# gap_tol is tighter than the few ulps that outward rounding leaves
TERMINATED_ROUNDING = "rounding_floor"

DEFAULT_MAX_BOXES = 1_000_000


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
    terminated_by: str


def corner_enclosures(net: Network, box: FlowBox) -> tuple[list[float], list[float]]:
    """Certified (lowers, uppers) of each |J_ii| at the box corner.

    Each upper bounds its entry over the whole box; each lower is below the
    entry's value at the corner, so it is attained inside the box.
    """
    values = [link_derivative(net, pos, m) for pos, m in enumerate(box.corner_magnitudes())]
    return [max(0.0, ulp_down(v, 4)) for v in values], [ulp_up(v, 4) for v in values]


def interval_bracket(net: Network, box: FlowBox, mode: str, gap_tol: float) -> Bracket:
    """Bracket lower <= sup_box F <= upper for the max or sqrt objective.

    terminated_by is "gap" when upper - lower <= gap_tol, and
    TERMINATED_ROUNDING when gap_tol is below the rounding floor; the
    bracket is valid either way.
    """
    if gap_tol <= 0:
        raise ValueError("gap_tol must be > 0")
    lowers, uppers = corner_enclosures(net, box)
    if mode == MODE_MAX:
        lower, upper = max(lowers), max(uppers)
    elif mode == MODE_SQRT:
        squares_lo = math.fsum(max(0.0, ulp_down(x * x)) for x in lowers)
        squares_hi = math.fsum(ulp_up(x * x) for x in uppers)
        lower = sqrt_down(max(0.0, ulp_down(squares_lo)))
        upper = sqrt_up(ulp_up(squares_hi))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not math.isfinite(upper):
        raise ValueError("interval enclosure overflows")
    gap = upper - lower
    return Bracket(upper=upper, lower=lower, gap=gap,
                   terminated_by=TERMINATED_GAP if gap <= gap_tol else TERMINATED_ROUNDING)


def _estimate(net: Network, box: FlowBox, gap_tol: float, max_boxes: int,
              mode: str) -> LipschitzEstimate:
    # max_boxes stays in the signature because report schema v1 records it;
    # the certificate evaluates a single box, so any budget >= 1 suffices
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")
    result = interval_bracket(net, box, mode, gap_tol)
    return LipschitzEstimate(
        value=result.upper,
        method=METHOD_INTERVAL_UPPER,
        mode=mode,
        gap=result.gap,
        effort=1,
    )


def k_upper_max(net: Network, box: FlowBox, gap_tol: float,
                max_boxes: int = DEFAULT_MAX_BOXES) -> LipschitzEstimate:
    """Certified upper bound in max mode; within a few ulps of the sharp constant."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_MAX)


def k_upper_sqrt(net: Network, box: FlowBox, gap_tol: float,
                 max_boxes: int = DEFAULT_MAX_BOXES) -> LipschitzEstimate:
    """Certified upper bound in sqrt (Frobenius) mode; >= the max-mode value."""
    return _estimate(net, box, gap_tol, max_boxes, MODE_SQRT)
