"""Indexed network model and the hydraulic nonlinearity.

Every view of the model uses one stacked flow index and one stacked head
index.  Flows are stacked as pipes, then pumps, then valves, each class in
declaration order, and the functions here take flows as one stacked array
q of shape (n_links,); eval_f and the Jacobians also take rows of them, of
shape (m, n_links).  Heads are stacked as junctions, then reservoirs,
then tanks; a node's position is Network.node_pos[node_id].  The link list
is held as columns in stacked flow order: link_ids, kinds, and the
read-only from_pos and to_pos, the head positions of each link's two ends.
The mass balances (tank_step, junction_residual) and the DAE rows (dae.py)
read those two position columns.  The description checked itself when it
was made and is frozen; Network's one check is that every table entry, a
product of the description's finite parameters, is finite, else
ParameterOutOfRange names the link.  Every array and mapping it holds is
read-only and no attribute can be rebound once it is built, so the table
stays the description's.

The nonlinearity f maps the stacked flows to per-link head losses (head
gains for pumps, with the sign convention that a working pump produces a
negative value).  Each component depends on its own flow only, so the
Jacobian is diagonal.  Network holds f and its derivative as one per-link
table, which Network.__init__ builds as one row per link, from one row
expression per link class:

    f     = f_offset + f_coef * q * |q|**deriv_expo * deriv_post
    df/dq = deriv_coef * |q|**deriv_expo * deriv_post

           f_offset    f_coef   deriv_coef   deriv_expo   deriv_post
    pipe   0           R        mu*R         mu-1         1
    pump   -s*s*h_s    r        nu*r         nu-1         s**(2-nu)
    valve  0           o*R      (mu*o)*R     mu-1         1

A pump flow must be > 0, so its q * |q|**(nu-1) is q**nu.  eval_f and
eval_jacobian_diag check every flow of every row in one vectorised pass;
jacobian_diag_batch checks none.  They and the closed forms (analytical.py)
read the table with no branch on link class, except that the Jacobian
evaluators multiply by deriv_post over the pump columns only: the pipe and
valve posts are 1.0, and x * 1.0 is x.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .errors import NonPositiveFlow, ParameterOutOfRange
from .inp import NetworkDescription

PIPE = "pipe"
PUMP = "pump"
VALVE = "valve"


class Network:
    """Index-resolved, read-only view of a NetworkDescription: once built,
    no attribute can be set or deleted."""

    _built = False

    def __init__(self, desc: NetworkDescription):
        self.desc = desc
        self.mu = desc.headloss_exponent
        (self.n_junctions, self.n_reservoirs, self.n_tanks,
         self.n_pipes, self.n_pumps, self.n_valves) = desc.component_counts()

        # position in the stacked head vector; tanks are the positions
        # >= n_junctions + n_reservoirs
        self.node_pos = MappingProxyType({node.id: i for i, node in enumerate(
            desc.junctions + desc.reservoirs + desc.tanks)})

        stacked = desc.pipes + desc.pumps + desc.valves
        self.link_ids = tuple(link.id for link in stacked)
        self.kinds = (PIPE,) * self.n_pipes + (PUMP,) * self.n_pumps + (VALVE,) * self.n_valves
        self.n_links = len(stacked)
        # stacked head positions of the node each flow leaves and enters
        self.from_pos = np.array([self.node_pos[l.from_node] for l in stacked], dtype=np.int64)
        self.to_pos = np.array([self.node_pos[l.to_node] for l in stacked], dtype=np.int64)
        self.tank_area = np.array([t.cross_section_area for t in desc.tanks], dtype=float)

        # the table of the module docstring, one row per link in stacked
        # flow order and one row expression per link class; the pump post is
        # libm's, for the numpy evaluators too.  Held transposed, so each
        # column is contiguous; (-1, 5) gives a linkless network five empty
        # columns.
        mu = self.mu
        posts = []
        for m in desc.pumps:
            try:
                posts.append(math.pow(m.speed, 2.0 - m.curve_exponent))
            except OverflowError:   # checked below, with every other entry
                posts.append(math.inf)
        table = np.array(
            [(0.0, p.resistance, mu * p.resistance, mu - 1.0, 1.0) for p in desc.pipes]
            + [(-m.speed * m.speed * m.shutoff_head, m.curve_coeff,
                m.curve_exponent * m.curve_coeff, m.curve_exponent - 1.0, post)
               for m, post in zip(desc.pumps, posts)]
            + [(0.0, v.openness * v.resistance, mu * v.openness * v.resistance, mu - 1.0, 1.0)
               for v in desc.valves], dtype=float).reshape(-1, 5).T.copy()
        # the description's parameters are finite, but a product of them may
        # overflow
        wide = np.flatnonzero(~np.isfinite(table).all(axis=0))
        if wide.size:
            raise ParameterOutOfRange(f"{self.kinds[wide[0]]} {self.link_ids[wide[0]]!r}: "
                                      "a derivative-table entry overflows a float")
        for column in (table, self.from_pos, self.to_pos, self.tank_area):
            column.flags.writeable = False
        self.f_offset, self.f_coef, self.deriv_coef, self.deriv_expo, self.deriv_post = table
        # the exponents as Python floats too, for the corner pass's libm pow
        self._expo_floats = tuple(self.deriv_expo.tolist())
        self._built = True

    def __setattr__(self, name, value):
        if self._built:
            raise AttributeError(f"a built Network is read-only: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"a built Network is read-only: cannot delete {name!r}")


def build_network(desc: NetworkDescription) -> Network:
    """Resolve a description into an indexed Network (declaration order)."""
    return Network(desc)


def _as_flows(net: Network, q, ndims=(1,)) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim not in ndims or q.shape[-1] != net.n_links:
        raise ValueError(f"expected {net.n_links} flows, got shape {q.shape}")
    return q


def _check_flows(net: Network, q) -> np.ndarray:
    """q as stacked flows, one vector or rows of them: every flow finite and
    every pump flow > 0, else the first bad pump in row-major order raises."""
    q = _as_flows(net, q, ndims=(1, 2))
    if not np.all(np.isfinite(q)):
        raise ValueError("flow entries must be finite")
    pumps = q[..., net.n_pipes:net.n_pipes + net.n_pumps]
    bad = np.flatnonzero(pumps <= 0.0)
    if bad.size:
        pump_id = net.link_ids[net.n_pipes + bad[0] % net.n_pumps]
        raise NonPositiveFlow(pump_id, float(pumps.flat[bad[0]]))
    return q


def eval_f(net: Network, q: np.ndarray) -> np.ndarray:
    """Stacked nonlinearity at stacked flows q, of shape (n_links,) or
    (m, n_links): pipe losses, pump gains, valve losses.  Every flow must be
    finite, and the first pump flow <= 0 in row-major order raises
    NonPositiveFlow; then the table is read in whole-array steps."""
    q = _check_flows(net, q)
    out = np.abs(q)
    np.power(out, net.deriv_expo, out=out)
    out *= q
    out *= net.f_coef
    out *= net.deriv_post
    out += net.f_offset
    return out


def eval_jacobian_diag(net: Network, q: np.ndarray) -> np.ndarray:
    """Diagonal of the Jacobian of f at stacked flows q, one vector or rows
    of them, checked as in eval_f (all entries >= 0)."""
    q = _check_flows(net, q)
    return _jacobian_diag_into(net, q, np.empty_like(q))


def jacobian_diag_batch(net: Network, q: np.ndarray) -> np.ndarray:
    """eval_jacobian_diag over rows of q (shape (m, n_links)) with no check,
    so a pump flow <= 0 gets the value at |q| (see _jacobian_diag_into)."""
    q = np.asarray(q, dtype=float)
    return _jacobian_diag_into(net, q, np.empty_like(q))


def _jacobian_diag_into(net: Network, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """jacobian_diag_batch written into out (the shape of q), with no temporaries.

    Every entry is (coef * |q|**expo) * post from the derivative table; a
    product commutes exactly, so multiplying the power in place gives it the
    bits of that expression.  Only the pump columns are multiplied by their
    post: a pipe's or a valve's is 1.0, and x * 1.0 is x.  Rows are
    unchecked and |q| is read for every link, so a pump flow <= 0 gets the
    value at |q| (eval_jacobian_diag raises NonPositiveFlow for it).
    """
    pumps = slice(net.n_pipes, net.n_pipes + net.n_pumps)
    np.abs(q, out=out)
    np.power(out, net.deriv_expo, out=out)
    out *= net.deriv_coef
    out[..., pumps] *= net.deriv_post[pumps]
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
