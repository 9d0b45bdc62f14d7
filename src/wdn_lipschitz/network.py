"""Indexed network model and the hydraulic nonlinearity.

Every view of the model uses one stacked flow index and one stacked head
index.  Flows are stacked as pipes, then pumps, then valves, each class in
declaration order, and the functions here take flows as one stacked array
q of shape (n_links,).  Heads are stacked as junctions, then reservoirs,
then tanks; a node's position is Network.node_pos[node_id].  The link list
is held as columns in stacked flow order: link_ids, kinds, and the
read-only from_pos and to_pos, the head positions of each link's two ends.
The mass balances (tank_step, junction_residual) and the DAE rows (dae.py)
read those two position columns.

The nonlinearity f maps the stacked flows to per-link head losses (head
gains for pumps, with the sign convention that a working pump produces a
negative value).  Each component depends on its own flow only, so the
Jacobian is diagonal.  Network holds f and its derivative as one per-link
table, whose columns Network.__init__ builds per link class:

    f     = f_offset + f_coef * q * |q|**deriv_expo * deriv_post
    df/dq = deriv_coef * |q|**deriv_expo * deriv_post

           f_offset    f_coef   deriv_coef   deriv_expo   deriv_post
    pipe   0           R        mu*R         mu-1         1
    pump   -s*s*h_s    r        nu*r         nu-1         s**(2-nu)
    valve  0           o*R      (mu*o)*R     mu-1         1

A pump flow must be > 0, so its q * |q|**(nu-1) is q**nu.  eval_f, the
batched Jacobian here and the closed forms (analytical.py) read the table
with no branch on link class.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveFlow
from .inp import NetworkDescription, _validate

PIPE = "pipe"
PUMP = "pump"
VALVE = "valve"


class Network:
    """Index-resolved, read-only view of a NetworkDescription."""

    def __init__(self, desc: NetworkDescription):
        self.desc = desc
        self.mu = desc.headloss_exponent
        (self.n_junctions, self.n_reservoirs, self.n_tanks,
         self.n_pipes, self.n_pumps, self.n_valves) = desc.component_counts()

        # position in the stacked head vector; tanks are the positions
        # >= n_junctions + n_reservoirs
        self.node_pos = {node.id: i for i, node in
                         enumerate(desc.junctions + desc.reservoirs + desc.tanks)}

        stacked = desc.pipes + desc.pumps + desc.valves
        self.link_ids = tuple(link.id for link in stacked)
        self.kinds = (PIPE,) * self.n_pipes + (PUMP,) * self.n_pumps + (VALVE,) * self.n_valves
        self.n_links = len(stacked)
        # stacked head positions of the node each flow leaves and enters
        self.from_pos = np.array([self.node_pos[l.from_node] for l in stacked], dtype=np.int64)
        self.to_pos = np.array([self.node_pos[l.to_node] for l in stacked], dtype=np.int64)
        self.from_pos.flags.writeable = self.to_pos.flags.writeable = False
        self.tank_area = np.array([t.cross_section_area for t in desc.tanks], dtype=float)

        # the table of the module docstring, in stacked flow order; the pump
        # post is libm's, for the numpy evaluators too
        mu = self.mu
        pipes, pumps, valves = desc.pipes, desc.pumps, desc.valves
        self.f_offset = np.array([0.0] * self.n_pipes
                                 + [-m.speed * m.speed * m.shutoff_head for m in pumps]
                                 + [0.0] * self.n_valves, dtype=float)
        self.f_coef = np.array([p.resistance for p in pipes] + [m.curve_coeff for m in pumps]
                               + [v.openness * v.resistance for v in valves], dtype=float)
        self.deriv_coef = np.array([mu * p.resistance for p in pipes]
                                   + [m.curve_exponent * m.curve_coeff for m in pumps]
                                   + [mu * v.openness * v.resistance for v in valves],
                                   dtype=float)
        self.deriv_expo = np.array([mu - 1.0] * self.n_pipes
                                   + [m.curve_exponent - 1.0 for m in pumps]
                                   + [mu - 1.0] * self.n_valves)
        self.deriv_post = np.array([1.0] * self.n_pipes
                                   + [math.pow(m.speed, 2.0 - m.curve_exponent) for m in pumps]
                                   + [1.0] * self.n_valves)


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
    pumps = slice(net.n_pipes, net.n_pipes + net.n_pumps)
    for pump_id, flow in zip(net.link_ids[pumps], q[pumps]):
        if flow <= 0.0:
            raise NonPositiveFlow(pump_id, float(flow))
    return q


def eval_f(net: Network, q: np.ndarray) -> np.ndarray:
    """Stacked nonlinearity at stacked flows q: pipe losses, pump gains, valve losses."""
    return eval_f_batch(net, _check_flows(net, q)[None, :])[0]


def eval_f_batch(net: Network, q: np.ndarray) -> np.ndarray:
    """Vectorised eval_f over rows of q (shape (m, n_links)), in whole-array
    steps over the table.  Rows are unchecked, as in _jacobian_diag_into, so
    a pump flow <= 0 gets q * |q|**(nu-1) in place of q**nu."""
    q = np.asarray(q, dtype=float)
    out = np.abs(q)
    np.power(out, net.deriv_expo, out=out)
    out *= q
    out *= net.f_coef
    out *= net.deriv_post
    out += net.f_offset
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


def _net_inflows(net: Network, q: np.ndarray) -> list[float]:
    """Inflow minus outflow at every node, in stacked head order: one pass
    over the two position columns collects each node's signed flows, and
    math.fsum sums each node's exactly."""
    signed: list[list[float]] = [[] for _ in net.node_pos]
    for src, dst, flow in zip(net.from_pos.tolist(), net.to_pos.tolist(), q.tolist()):
        signed[src].append(-flow)
        signed[dst].append(flow)
    return [math.fsum(flows) for flows in signed]


def tank_step(net: Network, tank_heads: np.ndarray, q: np.ndarray,
              dt: float) -> np.ndarray:
    """One tank-head update at stacked flows q: h + (dt/A) * (inflow - outflow)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    tank_heads = np.asarray(tank_heads, dtype=float)
    if tank_heads.shape != (net.n_tanks,):
        raise ValueError("tank head vector length mismatch")
    inflow = _net_inflows(net, _as_flows(net, q))[net.n_junctions + net.n_reservoirs:]
    return tank_heads + dt / net.tank_area * np.array(inflow)


def junction_residual(net: Network, q: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Mass balance residual per junction at stacked flows q: inflow - outflow - demand."""
    demand = np.asarray(demand, dtype=float)
    if demand.shape != (net.n_junctions,):
        raise ValueError("demand vector length mismatch")
    inflow = _net_inflows(net, _as_flows(net, q))[:net.n_junctions]
    return np.array(inflow) - demand
