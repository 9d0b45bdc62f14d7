"""Difference-algebraic system assembly.

The square system  E z+ = A z + B_f f(z) + B_l l  is laid out as:

    z rows (columns of all matrices):
        x1 junction heads | x2 reservoir heads | x3 tank heads
        | v pipe flows | u pump+valve flows
    equation rows:
        pipe energy | pump+valve energy | tank update | junction mass
        balance | reservoir head pinning

    l = (junction demands, reservoir heads).

Both index sets are the network's stacked ones (network.py): head column
c is the node at Network.node_pos c, and energy row i, flow column v + i
and B_f column i belong to the link at flow_pos i.  So the pipe rows and
the pump+valve rows are one block of n_links rows, and v and u are one
block of n_links columns.

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

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import PIPE, Network

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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """This matrix times x, summed over the triplets (no dense copy)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise ValueError(f"expected a vector of {self.n_cols}, got shape {x.shape}")
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        return np.bincount(rows, weights=np.asarray(self.values) * x[cols],
                           minlength=self.n_rows)

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

    Discrete mode requires a finite dt > 0; continuous mode drops the tank
    carry-over term and the dt factor, leaving dh/dt = (1/A)(net inflow).
    """
    if mode not in (DISCRETE, CONTINUOUS):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == DISCRETE:
        if dt is None or not 0 < dt < math.inf:
            raise ValueError("discrete mode requires a finite dt > 0")
    else:
        dt = None

    n_j, n_r, n_t = net.n_junctions, net.n_reservoirs, net.n_tanks
    n_p, n_mv = net.n_pipes, net.n_pumps + net.n_valves
    n_heads = n_j + n_r + n_t
    dim = n_heads + n_p + n_mv

    z_off = {"x1": 0, "x2": n_j, "x3": n_j + n_r, "v": n_heads, "u": n_heads + n_p}
    row_off = {"pipes": 0, "pumps_valves": n_p, "tanks": n_p + n_mv,
               "junctions": n_p + n_mv + n_t, "reservoirs": n_p + n_mv + n_t + n_j}
    v = z_off["v"]

    e_entries: list[tuple[int, int, float]] = []
    a_entries: list[tuple[int, int, float]] = []
    f_entries: list[tuple[int, int, float]] = []
    l_entries: list[tuple[int, int, float]] = []

    # energy row flow_pos: 0 = -h_from + h_to + f; pump and valve rows skip
    # tank heads
    for link in net.links:
        for node_id, sign in ((link.from_node, -1.0), (link.to_node, 1.0)):
            col = net.node_pos[node_id]
            if link.kind == PIPE or col < z_off["x3"]:
                a_entries.append((link.flow_pos, col, sign))
        f_entries.append((link.flow_pos, link.flow_pos, 1.0))

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
            a_entries.append((row, v + link.flow_pos, factor))
        for link in net.out_links[tank_id]:
            a_entries.append((row, v + link.flow_pos, -factor))

    # junction mass-balance rows: 0 = -(in - out) + d
    for i, junction_id in enumerate(net.junction_ids):
        row = row_off["junctions"] + i
        for link in net.in_links[junction_id]:
            a_entries.append((row, v + link.flow_pos, -1.0))
        for link in net.out_links[junction_id]:
            a_entries.append((row, v + link.flow_pos, 1.0))
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
    return (dae.a_z.matvec(z) + dae.b_f.matvec(f_values)
            + dae.b_l.matvec(loads) - dae.e_z.matvec(z_next))


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
