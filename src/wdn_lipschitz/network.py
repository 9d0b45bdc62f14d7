"""Indexed network model and the hydraulic nonlinearity.

Every view of the model uses one stacked flow index and one stacked head
index.  Flows are stacked as pipes, then pumps, then valves, each class in
declaration order; a link's position is its LinkRef.flow_pos, and the
functions here take flows as one stacked array q of shape (n_links,).
Heads are stacked as junctions, then reservoirs, then tanks; a node's
position is Network.node_pos[node_id].  The DAE (dae.py) uses both
positions as they are.

The nonlinearity f maps the stacked flows to per-link head losses (head
gains for pumps, with the sign convention that a working pump produces a
negative value):

    pipe   f = R * q * |q|**(mu-1)
    pump   f = -s**2 * h_s + r * q**nu * s**(2-nu)        (q > 0 required)
    valve  f = o * R * q * |q|**(mu-1)

Each component depends on its own flow only, so the Jacobian is diagonal.
Network holds its entries as one per-link table, |df/dq| = coef * |q|**expo
* post, which the closed forms (analytical.py) and the batched Jacobian here
both read with no branch on link class:

    pipe   (mu*R) * |q|**(mu-1) * 1
    pump   (nu*r) * |q|**(nu-1) * s**(2-nu)
    valve  ((mu*o)*R) * |q|**(mu-1) * 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveFlow
from .inp import NetworkDescription, _validate

PIPE = "pipe"
PUMP = "pump"
VALVE = "valve"


@dataclass(frozen=True)
class LinkRef:
    kind: str
    flow_pos: int       # position in the stacked flow vector
    link_id: str
    from_node: str
    to_node: str


class Network:
    """Index-resolved, read-only view of a NetworkDescription."""

    def __init__(self, desc: NetworkDescription):
        self.desc = desc
        self.mu = desc.headloss_exponent
        (self.n_junctions, self.n_reservoirs, self.n_tanks,
         self.n_pipes, self.n_pumps, self.n_valves) = desc.component_counts()

        self.junction_ids = tuple(j.id for j in desc.junctions)
        self.reservoir_ids = tuple(r.id for r in desc.reservoirs)
        self.tank_ids = tuple(t.id for t in desc.tanks)
        # position in the stacked head vector; tanks are the positions
        # >= n_junctions + n_reservoirs
        self.node_pos = {node_id: i for i, node_id in
                         enumerate(self.junction_ids + self.reservoir_ids + self.tank_ids)}

        stacked = ([(PIPE, p) for p in desc.pipes] + [(PUMP, m) for m in desc.pumps]
                   + [(VALVE, v) for v in desc.valves])
        self.links = tuple(LinkRef(kind, pos, link.id, link.from_node, link.to_node)
                           for pos, (kind, link) in enumerate(stacked))
        self.link_ids = tuple(l.link_id for l in self.links)
        self.n_links = len(self.links)

        in_links: dict[str, list[LinkRef]] = {n: [] for n in self.node_pos}
        out_links: dict[str, list[LinkRef]] = {n: [] for n in self.node_pos}
        for link in self.links:
            out_links[link.from_node].append(link)
            in_links[link.to_node].append(link)
        self.in_links = {n: tuple(ls) for n, ls in in_links.items()}
        self.out_links = {n: tuple(ls) for n, ls in out_links.items()}

        self.pipe_resistance = np.array([p.resistance for p in desc.pipes], dtype=float)
        self.pump_shutoff = np.array([m.shutoff_head for m in desc.pumps], dtype=float)
        self.pump_coeff = np.array([m.curve_coeff for m in desc.pumps], dtype=float)
        self.pump_exponent = np.array([m.curve_exponent for m in desc.pumps], dtype=float)
        self.pump_speed = np.array([m.speed for m in desc.pumps], dtype=float)
        self.pump_ids = tuple(m.id for m in desc.pumps)
        self.valve_openness = np.array([v.openness for v in desc.valves], dtype=float)
        self.valve_resistance = np.array([v.resistance for v in desc.valves], dtype=float)
        self.tank_area = np.array([t.cross_section_area for t in desc.tanks], dtype=float)

        # the derivative table of the module docstring, in stacked flow
        # order; the pump post is libm's, for the numpy evaluator too
        mu = self.mu
        self.deriv_coef = np.concatenate([mu * self.pipe_resistance,
                                          self.pump_exponent * self.pump_coeff,
                                          mu * self.valve_openness * self.valve_resistance])
        self.deriv_expo = np.concatenate([np.full(self.n_pipes, mu - 1.0),
                                          self.pump_exponent - 1.0,
                                          np.full(self.n_valves, mu - 1.0)])
        posts = [math.pow(m.speed, 2.0 - m.curve_exponent) for m in desc.pumps]
        self.deriv_post = np.array([1.0] * self.n_pipes + posts + [1.0] * self.n_valves)


def build_network(desc: NetworkDescription) -> Network:
    """Resolve a description into an indexed Network (declaration order).

    A description built directly, not by parse_inp, gets parse_inp's checks.
    """
    _validate(desc)
    return Network(desc)


def _as_flows(net: Network, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (net.n_links,):
        raise ValueError(f"expected {net.n_links} flows, got shape {q.shape}")
    return q


def _check_flows(net: Network, q) -> np.ndarray:
    """q as stacked flows: one finite flow per link, every pump flow > 0."""
    q = _as_flows(net, q)
    if not np.all(np.isfinite(q)):
        raise ValueError("flow entries must be finite")
    for pump_id, flow in zip(net.pump_ids, q[net.n_pipes:net.n_pipes + net.n_pumps]):
        if flow <= 0.0:
            raise NonPositiveFlow(pump_id, float(flow))
    return q


def eval_f(net: Network, q: np.ndarray) -> np.ndarray:
    """Stacked nonlinearity at stacked flows q: pipe losses, pump gains, valve losses."""
    return eval_f_batch(net, _check_flows(net, q)[None, :])[0]


def eval_f_batch(net: Network, q: np.ndarray) -> np.ndarray:
    """Vectorised eval_f over rows of q (shape (m, n_links))."""
    q = np.asarray(q, dtype=float)
    n_p, n_m = net.n_pipes, net.n_pumps
    out = np.empty_like(q)
    v = q[:, :n_p]
    out[:, :n_p] = net.pipe_resistance * v * np.abs(v) ** (net.mu - 1.0)
    if n_m:
        qm = q[:, n_p:n_p + n_m]
        s = net.pump_speed
        out[:, n_p:n_p + n_m] = (-s * s * net.pump_shutoff
                                 + net.pump_coeff * qm ** net.pump_exponent
                                 * s ** (2.0 - net.pump_exponent))
    if net.n_valves:
        qv = q[:, n_p + n_m:]
        out[:, n_p + n_m:] = (net.valve_openness * net.valve_resistance
                              * qv * np.abs(qv) ** (net.mu - 1.0))
    return out


def eval_jacobian_diag(net: Network, q: np.ndarray) -> np.ndarray:
    """Diagonal of the Jacobian of f at stacked flows q (all entries >= 0)."""
    return jacobian_diag_batch(net, _check_flows(net, q)[None, :])[0]


def jacobian_diag_batch(net: Network, q: np.ndarray) -> np.ndarray:
    """Vectorised Jacobian diagonal over rows of q (shape (m, n_links)); rows
    are unchecked, as in _jacobian_diag_into."""
    q = np.asarray(q, dtype=float)
    return _jacobian_diag_into(net, q, np.empty_like(q))


def _jacobian_diag_into(net: Network, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """jacobian_diag_batch written into out (the shape of q), with no temporaries.

    Every entry is (coef * |q|**expo) * post from the derivative table; a
    product commutes exactly, so multiplying the power in place gives it the
    bits of that expression.  Rows are unchecked and |q| is read for every
    link, so a pump flow <= 0 gets the value at |q| (eval_jacobian_diag
    raises NonPositiveFlow for it).
    """
    np.abs(q, out=out)
    np.power(out, net.deriv_expo, out=out)
    out *= net.deriv_coef
    out *= net.deriv_post
    return out


def _net_inflow(net: Network, q: np.ndarray, node_id: str) -> float:
    """Inflow minus outflow at a node, summed exactly by math.fsum."""
    return math.fsum([q[l.flow_pos] for l in net.in_links[node_id]]
                     + [-q[l.flow_pos] for l in net.out_links[node_id]])


def tank_step(net: Network, tank_heads: np.ndarray, q: np.ndarray,
              dt: float) -> np.ndarray:
    """One tank-head update at stacked flows q: h + (dt/A) * (inflow - outflow)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    tank_heads = np.asarray(tank_heads, dtype=float)
    if tank_heads.shape != (net.n_tanks,):
        raise ValueError("tank head vector length mismatch")
    q = _as_flows(net, q)
    out = tank_heads.copy()
    for i, tank_id in enumerate(net.tank_ids):
        out[i] += dt / net.tank_area[i] * _net_inflow(net, q, tank_id)
    return out


def junction_residual(net: Network, q: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Mass balance residual per junction at stacked flows q: inflow - outflow - demand."""
    demand = np.asarray(demand, dtype=float)
    if demand.shape != (net.n_junctions,):
        raise ValueError("demand vector length mismatch")
    q = _as_flows(net, q)
    out = np.empty(net.n_junctions)
    for i, junction_id in enumerate(net.junction_ids):
        out[i] = _net_inflow(net, q, junction_id) - demand[i]
    return out
