"""Closed-form Lipschitz and one-sided-Lipschitz constants.

Because each component of the hydraulic nonlinearity depends on one flow
only, its Jacobian over the flow box is diagonal and the sharp Lipschitz
constant is the largest supremum of a per-link derivative:

    pipes    K_P = mu * max_i R_i * c_i**(mu-1),  c_i = max(|q_min|, |q_max|)
    pumps    K_M = max_i nu_i * r_i * q_max_i**(nu_i-1) * s_i**(2-nu_i)
    valves   K_V = mu * max_i o_i * R_i * c_i**(mu-1)

    K = max(K_P, K_M, K_V)

The one-sided constant coincides with K: the log norm of a diagonal matrix
is its largest diagonal entry, and every diagonal entry here is nonnegative.

An empty link class contributes 0, so K stays well defined for networks
without valves (or without pumps, etc.).
"""

from __future__ import annotations

import math

from .bounds import FlowBox
from .estimates import METHOD_ANALYTICAL, MODE_MAX, LipschitzEstimate
from .network import Network


def link_derivative(net: Network, pos: int, magnitude: float) -> float:
    """|df/dq| of the link at stacked flow position ``pos``, at ``magnitude``.

    Every exponent here is >= 1, so the derivative is nondecreasing in |q|:
    at the corner magnitude it is the supremum over the link's interval.
    """
    if pos < net.n_pipes:
        return net.mu * float(net.pipe_resistance[pos]) * math.pow(magnitude, net.mu - 1.0)
    pos -= net.n_pipes
    if pos < net.n_pumps:
        nu = float(net.pump_exponent[pos])
        return (nu * float(net.pump_coeff[pos]) * math.pow(magnitude, nu - 1.0)
                * math.pow(float(net.pump_speed[pos]), 2.0 - nu))
    pos -= net.n_pumps
    return (net.mu * float(net.valve_openness[pos]) * float(net.valve_resistance[pos])
            * math.pow(magnitude, net.mu - 1.0))


def _class_max(net: Network, box: FlowBox, positions: range) -> float:
    corner = box.corner_magnitudes()
    return max((link_derivative(net, pos, corner[pos]) for pos in positions), default=0.0)


def k_pipes(net: Network, box: FlowBox) -> float:
    return _class_max(net, box, range(net.n_pipes))


def k_pumps(net: Network, box: FlowBox) -> float:
    return _class_max(net, box, range(net.n_pipes, net.n_pipes + net.n_pumps))


def k_valves(net: Network, box: FlowBox) -> float:
    return _class_max(net, box, range(net.n_pipes + net.n_pumps, net.n_links))


def k_network(net: Network, box: FlowBox) -> LipschitzEstimate:
    """Exact Lipschitz constant of the stacked nonlinearity over the box."""
    per_class = {
        "pipes": k_pipes(net, box),
        "pumps": k_pumps(net, box),
        "valves": k_valves(net, box),
    }
    return LipschitzEstimate(
        value=max(per_class.values()),
        method=METHOD_ANALYTICAL,
        mode=MODE_MAX,
        per_class=per_class,
    )


def osl_network(net: Network, box: FlowBox) -> LipschitzEstimate:
    """One-sided Lipschitz constant; identical to k_network by construction."""
    return k_network(net, box)

