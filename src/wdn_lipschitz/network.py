"""Indexed network model and the hydraulic nonlinearity.

The stacked flow layout used everywhere in this package is: pipe flows in
declaration order, then pump flows, then valve flows.  The nonlinearity f
maps those flows to per-link head losses (head gains for pumps, with the
sign convention that a working pump produces a negative value):

    pipe   f = R * q * |q|**(mu-1)
    pump   f = -s**2 * h_s + r * q**nu * s**(2-nu)        (q > 0 required)
    valve  f = o * R * q * |q|**(mu-1)

Each component depends on its own flow only, so the Jacobian is diagonal.
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
    index: int          # index within its kind
    flow_pos: int       # position in the stacked flow vector
    link_id: str
    from_node: str
    to_node: str


class Network:
    """Immutable, index-resolved view of a NetworkDescription."""

    def __init__(self, desc: NetworkDescription):
        self.desc = desc
        self.mu = desc.headloss_exponent

        self.junction_ids = tuple(j.id for j in desc.junctions)
        self.reservoir_ids = tuple(r.id for r in desc.reservoirs)
        self.tank_ids = tuple(t.id for t in desc.tanks)

        self.node_kind: dict[str, tuple[str, int]] = {}
        for i, j in enumerate(desc.junctions):
            self.node_kind[j.id] = ("junction", i)
        for i, r in enumerate(desc.reservoirs):
            self.node_kind[r.id] = ("reservoir", i)
        for i, t in enumerate(desc.tanks):
            self.node_kind[t.id] = ("tank", i)

        links: list[LinkRef] = []
        pos = 0
        for i, p in enumerate(desc.pipes):
            links.append(LinkRef(PIPE, i, pos, p.id, p.from_node, p.to_node))
            pos += 1
        for i, m in enumerate(desc.pumps):
            links.append(LinkRef(PUMP, i, pos, m.id, m.from_node, m.to_node))
            pos += 1
        for i, v in enumerate(desc.valves):
            links.append(LinkRef(VALVE, i, pos, v.id, v.from_node, v.to_node))
            pos += 1
        self.links = tuple(links)
        self.link_ids = tuple(l.link_id for l in links)

        self.in_links: dict[str, tuple[LinkRef, ...]] = {n: () for n in self.node_kind}
        self.out_links: dict[str, tuple[LinkRef, ...]] = {n: () for n in self.node_kind}
        for link in links:
            self.out_links[link.from_node] += (link,)
            self.in_links[link.to_node] += (link,)

        self.pipe_resistance = np.array([p.resistance for p in desc.pipes], dtype=float)
        self.pump_shutoff = np.array([m.shutoff_head for m in desc.pumps], dtype=float)
        self.pump_coeff = np.array([m.curve_coeff for m in desc.pumps], dtype=float)
        self.pump_exponent = np.array([m.curve_exponent for m in desc.pumps], dtype=float)
        self.pump_speed = np.array([m.speed for m in desc.pumps], dtype=float)
        self.pump_ids = tuple(m.id for m in desc.pumps)
        self.valve_openness = np.array([v.openness for v in desc.valves], dtype=float)
        self.valve_resistance = np.array([v.resistance for v in desc.valves], dtype=float)
        self.tank_area = np.array([t.cross_section_area for t in desc.tanks], dtype=float)
        self.tank_elevation = np.array([t.elevation for t in desc.tanks], dtype=float)
        self.reservoir_head = np.array([r.head for r in desc.reservoirs], dtype=float)
        self.junction_demand = np.array([j.base_demand for j in desc.junctions], dtype=float)

    @property
    def n_junctions(self) -> int:
        return len(self.junction_ids)

    @property
    def n_reservoirs(self) -> int:
        return len(self.reservoir_ids)

    @property
    def n_tanks(self) -> int:
        return len(self.tank_ids)

    @property
    def n_pipes(self) -> int:
        return len(self.pipe_resistance)

    @property
    def n_pumps(self) -> int:
        return len(self.pump_coeff)

    @property
    def n_valves(self) -> int:
        return len(self.valve_resistance)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def component_counts(self) -> tuple[int, int, int, int, int, int]:
        return (self.n_junctions, self.n_reservoirs, self.n_tanks,
                self.n_pipes, self.n_pumps, self.n_valves)


def build_network(desc: NetworkDescription) -> Network:
    """Resolve a description into an indexed Network (declaration order).

    A description built directly, not by parse_inp, gets parse_inp's checks.
    """
    _validate(desc)
    return Network(desc)


@dataclass
class FlowVector:
    """Flows through pipes (v) and through pumps then valves (u)."""

    v: np.ndarray
    u: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.v, self.u])

    @classmethod
    def from_stacked(cls, net: Network, q: np.ndarray) -> "FlowVector":
        q = np.asarray(q, dtype=float)
        if q.shape != (net.n_links,):
            raise ValueError(f"expected {net.n_links} flows, got shape {q.shape}")
        return cls(v=q[: net.n_pipes].copy(), u=q[net.n_pipes:].copy())


def _check_flows(net: Network, flows: FlowVector) -> None:
    if flows.v.shape != (net.n_pipes,) or flows.u.shape != (net.n_pumps + net.n_valves,):
        raise ValueError("flow vector shape does not match the network")
    if not (np.all(np.isfinite(flows.v)) and np.all(np.isfinite(flows.u))):
        raise ValueError("flow entries must be finite")
    for i in range(net.n_pumps):
        if flows.u[i] <= 0.0:
            raise NonPositiveFlow(net.pump_ids[i], float(flows.u[i]))


def eval_f(net: Network, flows: FlowVector) -> np.ndarray:
    """Stacked nonlinearity: pipe losses, pump gains, valve losses."""
    _check_flows(net, flows)
    return eval_f_batch(net, flows.stacked()[None, :])[0]


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


def eval_jacobian_diag(net: Network, flows: FlowVector) -> np.ndarray:
    """Diagonal of the Jacobian of f at the given flows (all entries >= 0)."""
    _check_flows(net, flows)
    return jacobian_diag_batch(net, flows.stacked()[None, :])[0]


def jacobian_diag_batch(net: Network, q: np.ndarray) -> np.ndarray:
    """Vectorised Jacobian diagonal over rows of q (shape (m, n_links))."""
    q = np.asarray(q, dtype=float)
    return _jacobian_diag_into(net, q, np.empty_like(q))


def _jacobian_diag_into(net: Network, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """jacobian_diag_batch written into out (the shape of q), with no temporaries.

    Each class fills its own slice of out with its factors grouped as
    below.  A product commutes exactly, so multiplying the power in place
    by the leading factor gives every entry the bits of the expression:

        pipe   (mu*R) * |q|**(mu-1)
        pump   ((nu*r) * q**(nu-1)) * s**(2-nu)
        valve  ((mu*o)*R) * |q|**(mu-1)
    """
    n_p, n_m = net.n_pipes, net.n_pumps
    pipes = out[:, :n_p]
    np.abs(q[:, :n_p], out=pipes)
    np.power(pipes, net.mu - 1.0, out=pipes)
    pipes *= net.mu * net.pipe_resistance
    if n_m:
        pumps = out[:, n_p:n_p + n_m]
        np.power(q[:, n_p:n_p + n_m], net.pump_exponent - 1.0, out=pumps)
        pumps *= net.pump_exponent * net.pump_coeff
        pumps *= net.pump_speed ** (2.0 - net.pump_exponent)
    if net.n_valves:
        valves = out[:, n_p + n_m:]
        np.abs(q[:, n_p + n_m:], out=valves)
        np.power(valves, net.mu - 1.0, out=valves)
        valves *= net.mu * net.valve_openness * net.valve_resistance
    return out


def tank_step(net: Network, tank_heads: np.ndarray, flows: FlowVector,
              dt: float) -> np.ndarray:
    """One tank-head update: h + (dt/A) * (inflow - outflow) per tank."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    tank_heads = np.asarray(tank_heads, dtype=float)
    if tank_heads.shape != (net.n_tanks,):
        raise ValueError("tank head vector length mismatch")
    q = flows.stacked()
    out = tank_heads.copy()
    for i, tank_id in enumerate(net.tank_ids):
        net_in = math.fsum(
            [q[l.flow_pos] for l in net.in_links[tank_id]]
            + [-q[l.flow_pos] for l in net.out_links[tank_id]]
        )
        out[i] += dt / net.tank_area[i] * net_in
    return out


def junction_residual(net: Network, flows: FlowVector, demand: np.ndarray) -> np.ndarray:
    """Mass balance residual per junction: inflow - outflow - demand."""
    demand = np.asarray(demand, dtype=float)
    if demand.shape != (net.n_junctions,):
        raise ValueError("demand vector length mismatch")
    q = flows.stacked()
    out = np.empty(net.n_junctions)
    for i, junction_id in enumerate(net.junction_ids):
        out[i] = math.fsum(
            [q[l.flow_pos] for l in net.in_links[junction_id]]
            + [-q[l.flow_pos] for l in net.out_links[junction_id]]
        ) - demand[i]
    return out
