"""Difference-algebraic system assembly.

The square system  E z+ = A z + B_f f(z) + B_l l  is laid out as:

    z rows (columns of all matrices):
        x1 junction heads | x2 reservoir heads | x3 tank heads
        | v pipe flows | u pump+valve flows
    equation rows:
        pipe energy | pump+valve energy | tank update | junction mass
        balance | reservoir head pinning

    l = (junction demands, reservoir heads).

Sign conventions per row block:

    pipe i->j:      0 = -h_i + h_j + f_pipe(q)
    pump/valve:     0 = -h_i + h_j + f_link(q)      (no tank-head column:
                    the pump/valve block couples junction and reservoir
                    heads only, so a tank endpoint contributes nothing)
    tank:           h+ = h + (dt/A) * (inflow - outflow), over every link
                    at the tank, as in network.tank_step
                    (continuous mode: dh/dt = (1/A)(...), no carry-over)
    junction:       0 = -(inflow - outflow) + d
    reservoir:      0 = -x2 + h_R

Matrices are stored as deterministic, row-major-sorted triplets so that
serialized systems are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import Network

DISCRETE = "discrete"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class TripletMatrix:
    n_rows: int
    n_cols: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    values: tuple[float, ...]

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int,
                     entries: list[tuple[int, int, float]]) -> "TripletMatrix":
        merged: dict[tuple[int, int], float] = {}
        for r, c, val in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            merged[(r, c)] = merged.get((r, c), 0.0) + float(val)
        keys = sorted(k for k, val in merged.items() if val != 0.0)
        return cls(
            n_rows, n_cols,
            tuple(k[0] for k in keys),
            tuple(k[1] for k in keys),
            tuple(merged[k] for k in keys),
        )

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        for r, c, val in zip(self.rows, self.cols, self.values):
            out[r, c] = val
        return out

    def write_matrix_market(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{self.n_rows} {self.n_cols} {self.nnz}\n")
            for r, c, val in zip(self.rows, self.cols, self.values):
                fh.write(f"{r + 1} {c + 1} {val!r}\n")


def read_matrix_market(path: str | Path) -> TripletMatrix:
    with open(path) as fh:
        header = fh.readline()
        if "coordinate" not in header:
            raise ValueError("not a coordinate MatrixMarket file")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        n_rows, n_cols, nnz = (int(tok) for tok in line.split())
        entries = []
        for _ in range(nnz):
            r, c, val = fh.readline().split()
            entries.append((int(r) - 1, int(c) - 1, float(val)))
    return TripletMatrix.from_entries(n_rows, n_cols, entries)


@dataclass(frozen=True)
class DaeLayout:
    sizes: dict[str, int]           # n_j, n_r, n_t, n_p, n_mv
    z_offsets: dict[str, int]       # x1, x2, x3, v, u
    row_offsets: dict[str, int]     # pipes, pumps_valves, tanks, junctions, reservoirs
    time_mode: str
    dt: float | None

    @property
    def dim(self) -> int:
        return sum(self.sizes.values())

    def to_dict(self) -> dict:
        return {
            "sizes": dict(self.sizes),
            "z_offsets": dict(self.z_offsets),
            "row_offsets": dict(self.row_offsets),
            "time_mode": self.time_mode,
            "dt": self.dt,
        }


@dataclass(frozen=True)
class DaeSystem:
    e_z: TripletMatrix
    a_z: TripletMatrix
    b_f: TripletMatrix
    b_l: TripletMatrix
    layout: DaeLayout


def build_dae(net: Network, mode: str = DISCRETE, dt: float | None = None) -> DaeSystem:
    """Assemble the block system for the given network.

    Discrete mode requires dt > 0; continuous mode drops the tank carry-over
    term and the dt factor, leaving dh/dt = (1/A)(net inflow).
    """
    if mode not in (DISCRETE, CONTINUOUS):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == DISCRETE:
        if dt is None or dt <= 0:
            raise ValueError("discrete mode requires dt > 0")
    else:
        dt = None

    n_j, n_r, n_t = net.n_junctions, net.n_reservoirs, net.n_tanks
    n_p, n_mv = net.n_pipes, net.n_pumps + net.n_valves
    dim = n_j + n_r + n_t + n_p + n_mv

    z_off = {"x1": 0, "x2": n_j, "x3": n_j + n_r, "v": n_j + n_r + n_t,
             "u": n_j + n_r + n_t + n_p}
    row_off = {"pipes": 0, "pumps_valves": n_p, "tanks": n_p + n_mv,
               "junctions": n_p + n_mv + n_t, "reservoirs": n_p + n_mv + n_t + n_j}

    def head_column(node_id: str) -> tuple[str, int]:
        kind, idx = net.node_kind[node_id]
        block = {"junction": "x1", "reservoir": "x2", "tank": "x3"}[kind]
        return block, z_off[block] + idx

    def flow_column(link) -> int:
        if link.kind == "pipe":
            return z_off["v"] + link.index
        return z_off["u"] + (link.flow_pos - n_p)

    e_entries: list[tuple[int, int, float]] = []
    a_entries: list[tuple[int, int, float]] = []
    f_entries: list[tuple[int, int, float]] = []
    l_entries: list[tuple[int, int, float]] = []

    # pipe and pump/valve energy rows: 0 = -h_from + h_to + f
    for link in net.links:
        if link.kind == "pipe":
            row = row_off["pipes"] + link.index
            skip_tanks = False
        else:
            row = row_off["pumps_valves"] + (link.flow_pos - n_p)
            skip_tanks = True
        for node_id, sign in ((link.from_node, -1.0), (link.to_node, 1.0)):
            block, col = head_column(node_id)
            if skip_tanks and block == "x3":
                continue
            a_entries.append((row, col, sign))
        f_entries.append((row, link.flow_pos, 1.0))

    # tank rows
    for i, tank_id in enumerate(net.tank_ids):
        row = row_off["tanks"] + i
        col = z_off["x3"] + i
        e_entries.append((row, col, 1.0))
        if mode == DISCRETE:
            a_entries.append((row, col, 1.0))
            factor = dt / float(net.tank_area[i])
        else:
            factor = 1.0 / float(net.tank_area[i])
        for link in net.in_links[tank_id]:
            a_entries.append((row, flow_column(link), factor))
        for link in net.out_links[tank_id]:
            a_entries.append((row, flow_column(link), -factor))

    # junction mass-balance rows: 0 = -(in - out) + d
    for i, junction_id in enumerate(net.junction_ids):
        row = row_off["junctions"] + i
        for link in net.in_links[junction_id]:
            a_entries.append((row, flow_column(link), -1.0))
        for link in net.out_links[junction_id]:
            a_entries.append((row, flow_column(link), 1.0))
        l_entries.append((row, i, 1.0))

    # reservoir rows: 0 = -x2 + h_R
    for i in range(n_r):
        row = row_off["reservoirs"] + i
        a_entries.append((row, z_off["x2"] + i, -1.0))
        l_entries.append((row, n_j + i, 1.0))

    layout = DaeLayout(
        sizes={"n_j": n_j, "n_r": n_r, "n_t": n_t, "n_p": n_p, "n_mv": n_mv},
        z_offsets=z_off,
        row_offsets=row_off,
        time_mode=mode,
        dt=dt,
    )
    return DaeSystem(
        e_z=TripletMatrix.from_entries(dim, dim, e_entries),
        a_z=TripletMatrix.from_entries(dim, dim, a_entries),
        b_f=TripletMatrix.from_entries(dim, n_p + n_mv, f_entries),
        b_l=TripletMatrix.from_entries(dim, n_j + n_r, l_entries),
        layout=layout,
    )


def dae_residual(dae: DaeSystem, z: np.ndarray, z_next: np.ndarray,
                 f_values: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """A z + B_f f + B_l l - E z+  (zero when z satisfies the component laws)."""
    return (dae.a_z.to_dense() @ z + dae.b_f.to_dense() @ f_values
            + dae.b_l.to_dense() @ loads - dae.e_z.to_dense() @ z_next)


def export_dae(dae: DaeSystem, directory: str | Path) -> list[Path]:
    """Write e_z/a_z/b_f/b_l as MatrixMarket files plus layout.json."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, matrix in (("e_z", dae.e_z), ("a_z", dae.a_z),
                         ("b_f", dae.b_f), ("b_l", dae.b_l)):
        path = directory / f"{name}.mtx"
        matrix.write_matrix_market(path)
        written.append(path)
    layout_path = directory / "layout.json"
    with open(layout_path, "w", newline="\n") as fh:
        json.dump(dae.layout.to_dict(), fh, indent=2)
        fh.write("\n")
    written.append(layout_path)
    return written
