#!/usr/bin/env python3
"""Regenerate the benchmark fixtures in fixtures/.

three_node carries the exact benchmark parameters (pump h_s=393.7008,
r=3.746e-6, nu=2.59 and pipe resistance 2.346e-6 under Darcy-Weisbach); its
pump curve points are computed from the head model so the parser's fit
recovers the parameters to float precision, and its bounds file carries the
flow interval [0, 922.5] / [1, 922.5] used in the analysis examples.

The other five networks reuse the component counts of well-known EPANET
template networks (eight_node, anytown, net2, net3, obcl) but carry
synthetic topologies, parameters, and flow bounds: the published templates'
week-long simulation bounds are not reproducible here, so these files are
placeholder data for property-based testing, not reference values.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
sys.path.insert(0, str(REPO / "src"))

from wdn_lipschitz import build_network, load_bounds, parse_inp  # noqa: E402
from wdn_lipschitz.bounds import pump_max_flow  # noqa: E402

# component counts: junctions, reservoirs, tanks, pipes, pumps, valves
SYNTHETIC = {
    "eight_node": ((9, 1, 1, 10, 1, 0), 8801),
    "anytown": ((19, 3, 0, 40, 1, 0), 8802),
    "net2": ((35, 0, 1, 40, 0, 0), 8803),
    "net3": ((92, 2, 3, 117, 2, 0), 8804),
    "obcl": ((262, 1, 0, 288, 1, 0), 8805),
}


def three_node() -> tuple[str, str]:
    hs, r, nu = 393.7008, 3.746e-6, 2.59
    target_r = 2.346e-6
    friction, diameter = 0.02, 10.0
    length = target_r * diameter**5 / (0.0252 * friction)
    curve = [(0.0, hs)] + [(q, hs - r * math.pow(q, nu)) for q in (600.0, 1000.0)]

    inp = [
        "[TITLE]",
        "Three-node benchmark network",
        "",
        "[JUNCTIONS]",
        ";id  elevation  demand",
        "J1   656.168    500",
        "",
        "[RESERVOIRS]",
        ";id  head",
        "R1   700",
        "",
        "[TANKS]",
        ";id  elevation  init_level  min_level  max_level  diameter  min_vol",
        "T1   850        15          0          30         50        0",
        "",
        "[PIPES]",
        ";id  from  to  length  diameter  roughness",
        f"P1   J1    T1  {length!r}  {diameter!r}  {friction!r}",
        "",
        "[PUMPS]",
        ";id  from  to  properties",
        "PU1  R1    J1  HEAD PC1",
        "",
        "[CURVES]",
        ";curve  flow  head",
    ]
    inp += [f"PC1  {q!r}  {h!r}" for q, h in curve]
    inp += [
        "",
        "[OPTIONS]",
        "UNITS     GPM",
        "HEADLOSS  D-W",
        "",
        "[COORDINATES]",
        "R1  0  0",
        "J1  1  0",
        "T1  2  0",
        "",
    ]
    bounds = [
        "link_id,q_min,q_max",
        "P1,0.0,922.5",
        "PU1,1.0,922.5",
        "",
    ]
    return "\n".join(inp), "\n".join(bounds)


def synthetic(name: str, counts: tuple[int, ...], seed: int) -> tuple[str, str]:
    n_j, n_r, n_t, n_p, n_m, n_v = counts
    assert n_v == 0
    rng = np.random.default_rng(seed)

    junctions = [f"J{i+1}" for i in range(n_j)]
    reservoirs = [f"R{i+1}" for i in range(n_r)]
    tanks = [f"T{i+1}" for i in range(n_t)]

    lines_j = [f"{j}  {rng.uniform(580, 720):.3f}  {rng.uniform(40, 420):.2f}"
               for j in junctions]
    lines_r = [f"{r}  {rng.uniform(720, 830):.3f}" for r in reservoirs]
    lines_t = [
        f"{t}  {rng.uniform(650, 780):.3f}  {rng.uniform(8, 24):.3f}  0  "
        f"{rng.uniform(28, 40):.3f}  {rng.uniform(30, 62):.3f}  0"
        for t in tanks
    ]

    pumps = []
    curves = []
    pump_params = []
    for i in range(n_m):
        hs = float(rng.uniform(150, 420))
        nu = float(rng.uniform(1.1, 2.59))
        q_zero = float(rng.uniform(800, 1600))   # flow at zero head gain
        r = hs / math.pow(q_zero, nu)
        speed = 1.0 if i % 2 == 0 else 0.9
        source = reservoirs[i % n_r]
        target = junctions[int(rng.integers(0, max(1, n_j // 4)))]
        curve_id = f"PC{i+1}"
        qs = (0.0, round(0.5 * q_zero, 3), round(0.8 * q_zero, 3))
        curves += [f"{curve_id}  {q!r}  {(hs - r * math.pow(q, nu))!r}" for q in qs]
        extra = f"  SPEED {speed!r}" if speed != 1.0 else ""
        pumps.append(f"PU{i+1}  {source}  {target}  HEAD {curve_id}{extra}")
        pump_params.append((hs, r, nu, speed))

    # every pipe: id, from, to
    pipe_ends: list[tuple[str, str]] = []
    used_pairs: set[frozenset[str]] = set()

    def add_pipe(a: str, b: str) -> None:
        pipe_ends.append((a, b))
        used_pairs.add(frozenset((a, b)))

    # reservoirs beyond the pumped ones feed a junction through a pipe
    for i in range(n_m, n_r):
        add_pipe(reservoirs[i], junctions[int(rng.integers(0, n_j))])
    # each tank hangs off one junction (tanks touch pipes only)
    for i, t in enumerate(tanks):
        add_pipe(junctions[int(rng.integers(0, n_j))], t)
    # junction spanning tree
    for i in range(1, n_j):
        add_pipe(junctions[int(rng.integers(0, i))], junctions[i])
    # extra cross-connections
    while len(pipe_ends) < n_p:
        a, b = rng.choice(n_j, size=2, replace=False)
        pair = frozenset((junctions[a], junctions[b]))
        if pair in used_pairs:
            continue
        add_pipe(junctions[a], junctions[b])
    assert len(pipe_ends) == n_p, (name, len(pipe_ends), n_p)

    lines_p = []
    for i, (a, b) in enumerate(pipe_ends):
        length = rng.uniform(400, 4200)
        diameter = rng.uniform(8, 18)
        roughness = rng.uniform(80, 140)
        lines_p.append(f"P{i+1}  {a}  {b}  {length:.2f}  {diameter:.3f}  {roughness:.2f}")

    inp = ["[TITLE]", f"Synthetic {name} fixture (placeholder parameters)", ""]
    inp += ["[JUNCTIONS]", ";id  elevation  demand"] + lines_j + [""]
    if reservoirs:
        inp += ["[RESERVOIRS]", ";id  head"] + lines_r + [""]
    if tanks:
        inp += ["[TANKS]", ";id  elev  init  min  max  diameter  minvol"] + lines_t + [""]
    inp += ["[PIPES]", ";id  from  to  length  diameter  roughness"] + lines_p + [""]
    if pumps:
        inp += ["[PUMPS]"] + pumps + ["", "[CURVES]"] + curves + [""]
    inp += ["[OPTIONS]", "UNITS     GPM", "HEADLOSS  H-W", ""]

    cap = max((pump_max_flow(*p) for p in pump_params), default=700.0)
    bounds = ["link_id,q_min,q_max"]
    for i in range(n_p):
        hi = float(rng.uniform(0.1, 0.75) * cap)
        lo = -hi if rng.random() < 0.8 else 0.0
        bounds.append(f"P{i+1},{lo!r},{hi!r}")
    for i, params in enumerate(pump_params):
        hi = 0.85 * pump_max_flow(*params)
        bounds.append(f"PU{i+1},1.0,{hi!r}")
    bounds.append("")
    return "\n".join(inp), "\n".join(bounds)


def non_pipes_at_tanks(net) -> list[str]:
    """Ids of the pumps and valves with an end at a tank; the fixtures have
    none, since only pipes meet tanks in them."""
    at_tank = np.maximum(net.from_pos, net.to_pos) >= net.n_junctions + net.n_reservoirs
    return [link_id for link_id, kind, hit in zip(net.link_ids, net.kinds, at_tank.tolist())
            if hit and kind != "pipe"]


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    all_networks = {"three_node": three_node()}
    for name, (counts, seed) in SYNTHETIC.items():
        all_networks[name] = synthetic(name, counts, seed)

    expected = {"three_node": (1, 1, 1, 1, 1, 0)}
    expected.update({k: v[0] for k, v in SYNTHETIC.items()})

    for name, (inp_text, bounds_text) in all_networks.items():
        inp_path = FIXTURES / f"{name}.inp"
        bounds_path = FIXTURES / f"{name}_bounds.csv"
        inp_path.write_text(inp_text)
        bounds_path.write_text(bounds_text)

        desc = parse_inp(inp_text)
        assert desc.component_counts() == expected[name], (name, desc.component_counts())
        net = build_network(desc)
        box = load_bounds(bounds_path, net)
        assert not non_pipes_at_tanks(net), (name, non_pipes_at_tanks(net))
        from wdn_lipschitz import k_network
        est = k_network(net, box)
        print(f"{name:>11}: counts={desc.component_counts()}  K={est.value:.6g}  "
              f"per_class={ {k: round(v, 6) for k, v in est.per_class.items()} }")


if __name__ == "__main__":
    main()
