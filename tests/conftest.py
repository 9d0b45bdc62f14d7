from __future__ import annotations

import csv
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

from wdn_lipschitz import build_network, load_bounds, loads_bounds, parse_inp
from wdn_lipschitz.bounds import pump_max_flow
from wdn_lipschitz.inp import (
    JunctionDesc,
    NetworkDescription,
    PipeDesc,
    PumpDesc,
    ReservoirDesc,
    TankDesc,
    ValveDesc,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
FIXTURE_NAMES = ("three_node", "eight_node", "anytown", "net2", "net3", "obcl")

EXPECTED_COUNTS = {
    "three_node": (1, 1, 1, 1, 1, 0),
    "eight_node": (9, 1, 1, 10, 1, 0),
    "anytown": (19, 3, 0, 40, 1, 0),
    "net2": (35, 0, 1, 40, 0, 0),
    "net3": (92, 2, 3, 117, 2, 0),
    "obcl": (262, 1, 0, 288, 1, 0),
}


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def fixtures():
    """name -> (description, network, flow box) for all six fixtures."""
    loaded = {}
    for name in FIXTURE_NAMES:
        desc = parse_inp((FIXTURE_DIR / f"{name}.inp").read_text())
        net = build_network(desc)
        box = load_bounds(FIXTURE_DIR / f"{name}_bounds.csv", net)
        loaded[name] = (desc, net, box)
    return loaded


@pytest.fixture(scope="session")
def three_node(fixtures):
    return fixtures["three_node"]


def bounds_csv(table: dict[str, tuple[float, float]]) -> str:
    """A bounds file's text for {link_id: (q_min, q_max)}: values in repr
    form, ids quoted as CSV quotes them."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["link_id", "q_min", "q_max"])
    writer.writerows([link_id, repr(float(lo)), repr(float(hi))]
                     for link_id, (lo, hi) in table.items())
    return buffer.getvalue()


def make_box(net, table: dict[str, tuple[float, float]]):
    """The FlowBox for {link_id: (q_min, q_max)}, through the bounds loader."""
    return loads_bounds(bounds_csv(table), net)


def reference_link_derivative(net, pos: int, magnitude: float) -> float:
    """|df/dq| of the link at stacked flow position ``pos``, at ``magnitude``,
    written per link class from the network's description: the reference
    that the derivative table (Network.deriv_*) must reproduce bit for bit."""
    desc = net.desc
    if pos < net.n_pipes:
        return net.mu * desc.pipes[pos].resistance * math.pow(magnitude, net.mu - 1.0)
    pos -= net.n_pipes
    if pos < net.n_pumps:
        m = desc.pumps[pos]
        nu = m.curve_exponent
        return (nu * m.curve_coeff * math.pow(magnitude, nu - 1.0)
                * math.pow(m.speed, 2.0 - nu))
    v = desc.valves[pos - net.n_pumps]
    return net.mu * v.openness * v.resistance * math.pow(magnitude, net.mu - 1.0)


def corner_magnitudes(lo, hi) -> list[float]:
    """Per-link max(|lo|, |hi|): the flow magnitude at which each |J_ii| over
    [lo, hi] is largest."""
    return [max(abs(a), abs(b)) for a, b in zip(np.asarray(lo).tolist(),
                                                np.asarray(hi).tolist())]


def ulp_up(x: float, steps: int = 1) -> float:
    """x moved up by steps ulps, one math.nextafter at a time."""
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def ulp_down(x: float, steps: int = 1) -> float:
    """x moved down by steps ulps, one math.nextafter at a time."""
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def make_single_pipe(resistance: float = 1.0, mu: float = 2.0) -> NetworkDescription:
    return NetworkDescription(
        headloss_exponent=mu,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[],
        tanks=[],
        pipes=[PipeDesc("P1", "J1", "J2", resistance)],
        pumps=[],
        valves=[],
    )


def make_single_pump(shutoff_head: float, coeff: float, exponent: float,
                     speed: float = 1.0) -> NetworkDescription:
    """One pump PU1 from reservoir R1 to junction J1."""
    return NetworkDescription(
        headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0)],
        reservoirs=[ReservoirDesc("R1", 0.0)],
        tanks=[],
        pipes=[],
        pumps=[PumpDesc("PU1", "R1", "J1", shutoff_head, coeff, exponent, speed)],
        valves=[],
    )


def make_valve_network() -> NetworkDescription:
    """Small mixed network with a valve in every link class."""
    mu = 1.852
    return NetworkDescription(
        headloss_exponent=mu,
        junctions=[JunctionDesc("J1", 10.0, 40.0), JunctionDesc("J2", 12.0, 25.0),
                   JunctionDesc("J3", 9.0, 10.0)],
        reservoirs=[ReservoirDesc("R1", 120.0)],
        tanks=[TankDesc("T1", 80.0, 12.0, 450.0)],
        pipes=[PipeDesc("P1", "J1", "T1", 3.2e-5),
               PipeDesc("P2", "J2", "J1", 7.5e-6)],
        pumps=[PumpDesc("PU1", "R1", "J1", 260.0, 1.1e-4, 1.7, 1.0),
               PumpDesc("PU2", "R1", "J2", 310.0, 6.0e-5, 2.3, 0.8)],
        valves=[ValveDesc("V1", "J1", "J2", 4.0e-5, 0.6),
                ValveDesc("V2", "J2", "J3", 8.0e-5, 1.0)],
    )


@pytest.fixture(scope="session")
def valve_net():
    desc = make_valve_network()
    net = build_network(desc)
    table = {
        "P1": (-600.0, 800.0), "P2": (0.0, 350.0),
        "PU1": (5.0, 900.0), "PU2": (1.0, 450.0),
        "V1": (-300.0, 240.0), "V2": (-120.0, 400.0),
    }
    return desc, net, make_box(net, table)


def make_random_network(rng: np.random.Generator):
    """Random valid network + box, for fuzzing the estimator stack."""
    mu = float(rng.choice([1.0, 1.852, 2.0, 2.7]))
    n_j = int(rng.integers(2, 6))
    junctions = [JunctionDesc(f"J{i}", float(rng.uniform(0, 50))) for i in range(n_j)]
    names = [j.id for j in junctions]

    def pair():
        a, b = rng.choice(n_j, size=2, replace=False)
        return names[a], names[b]

    n_p = int(rng.integers(1, 6))
    n_m = int(rng.integers(0, 4))
    n_v = int(rng.integers(0, 4))
    pipes = []
    for i in range(n_p):
        a, b = pair()
        pipes.append(PipeDesc(f"P{i}", a, b, float(rng.lognormal(-8, 2))))
    pumps = []
    for i in range(n_m):
        a, b = pair()
        pumps.append(PumpDesc(
            f"PU{i}", a, b,
            shutoff_head=float(rng.uniform(50, 500)),
            curve_coeff=float(rng.lognormal(-9, 2)),
            curve_exponent=float(rng.uniform(1.0, 3.0)),
            speed=float(rng.uniform(0.2, 1.0)),
        ))
    valves = []
    for i in range(n_v):
        a, b = pair()
        valves.append(ValveDesc(f"V{i}", a, b, float(rng.lognormal(-8, 2)),
                                float(rng.uniform(0.05, 1.0))))

    desc = NetworkDescription(
        headloss_exponent=mu, junctions=junctions,
        reservoirs=[], tanks=[], pipes=pipes, pumps=pumps, valves=valves,
    )
    net = build_network(desc)

    table = {}
    for p in pipes + valves:
        hi = float(rng.uniform(1.0, 1500.0))
        lo = -hi if rng.random() < 0.7 else float(rng.uniform(0.0, hi))
        table[p.id] = (lo, hi)
    for m in pumps:
        q_cap = pump_max_flow(m.shutoff_head, m.curve_coeff, m.curve_exponent, m.speed)
        lo = float(rng.uniform(1e-6, 0.2 * q_cap))
        hi = float(rng.uniform(0.5, 0.95) * q_cap)
        table[m.id] = (min(lo, hi * 0.5), hi)
    return net, make_box(net, table)


def make_tank_network(rng: np.random.Generator):
    """Random valid network with reservoirs and tanks in which every pump and
    every valve has a tank at one end, for checking tank rows against
    tank_step.  make_random_network has no tanks, and its draw sequence is
    left alone because seeded tests depend on it."""
    mu = float(rng.choice([1.0, 1.852, 2.0, 2.7]))
    junctions = [JunctionDesc(f"J{i}", float(rng.uniform(0, 50)), float(rng.uniform(0, 20)))
                 for i in range(int(rng.integers(1, 5)))]
    reservoirs = [ReservoirDesc(f"R{i}", float(rng.uniform(100, 200)))
                  for i in range(int(rng.integers(0, 3)))]
    tanks = [TankDesc(f"T{i}", float(rng.uniform(50, 90)), float(rng.uniform(1, 20)),
                      float(rng.lognormal(5, 1)))
             for i in range(int(rng.integers(1, 4)))]
    nodes = [n.id for n in junctions + reservoirs + tanks]

    def ends(first: list[str]):
        a = first[int(rng.integers(len(first)))]
        b = str(rng.choice([n for n in nodes if n != a]))
        return (a, b) if rng.random() < 0.5 else (b, a)

    tank_ids = [t.id for t in tanks]
    pipes = [PipeDesc(f"P{i}", *ends(nodes), float(rng.lognormal(-8, 2)))
             for i in range(int(rng.integers(1, 6)))]
    pumps = [PumpDesc(f"PU{i}", *ends(tank_ids),
                      shutoff_head=float(rng.uniform(50, 500)),
                      curve_coeff=float(rng.lognormal(-9, 2)),
                      curve_exponent=float(rng.uniform(1.0, 3.0)),
                      speed=float(rng.uniform(0.2, 1.0)))
             for i in range(int(rng.integers(1, 4)))]
    valves = [ValveDesc(f"V{i}", *ends(tank_ids), float(rng.lognormal(-8, 2)),
                        float(rng.uniform(0.05, 1.0)))
              for i in range(int(rng.integers(1, 4)))]
    return build_network(NetworkDescription(
        headloss_exponent=mu, junctions=junctions,
        reservoirs=reservoirs, tanks=tanks, pipes=pipes, pumps=pumps, valves=valves,
    ))


def gen_fixtures():
    """scripts/gen_fixtures.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "scripts" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def synthetic_network(counts: tuple[int, ...], seed: int):
    """A network from scripts/gen_fixtures.py's generator (perfbench's scale
    network is counts (4000, 2, 3, 5000, 2, 0) at seed 5000)."""
    inp_text, _ = gen_fixtures().synthetic("synthetic", counts, seed)
    return build_network(parse_inp(inp_text))


def sample_interior(box, n: int, rng: np.random.Generator,
                    margin: float = 0.01) -> np.ndarray:
    """Random points inside the box, kept away from interval ends and from
    q = 0 on sign-changing coordinates (where relative derivative error is
    ill-conditioned)."""
    t = rng.uniform(margin, 1.0 - margin, size=(n, len(box.lo)))
    q = box.lo + t * (box.hi - box.lo)
    width = box.hi - box.lo
    for i in range(len(box.lo)):
        if box.lo[i] < 0.0 < box.hi[i]:
            floor = margin * width[i]
            col = q[:, i]
            small = np.abs(col) < floor
            col[small] = np.where(col[small] >= 0, floor, -floor)
    return np.clip(q, box.lo, box.hi)
