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
c is stacked head position c, and energy row i, flow column v + i and B_f
column i belong to net.links[i].  So the pipe rows and the pump+valve rows
are one block of n_links rows, and v and u are one block of n_links
columns.  The energy, tank and junction rows come from one
pass over the links, each at its from_pos and to_pos.

Sign conventions per row block:

    pipe i->j:      0 = -h_i + h_j + f_pipe(q)
    pump/valve:     0 = -h_i + h_j + f_link(q)      (no tank-head column:
                    the pump/valve block couples junction and reservoir
                    heads only, so a tank endpoint contributes nothing)
    tank:           h+ = h + (dt/A) * (inflow - outflow), over every link
                    at the tank, the balance network.tank_step sums
                    (continuous mode: dh/dt = (1/A)(...), no carry-over)
    junction:       0 = -(inflow - outflow) + d
    reservoir:      0 = -x2 + h_R

Each matrix is a TripletMatrix: read-only numpy arrays of rows, columns and
values, one entry per nonzero cell, sorted row-major, merged by one sort-and-sum,
so the MatrixMarket export is byte-stable.  The package has no reader for it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .network import PIPE, Network

DISCRETE = "discrete"
CONTINUOUS = "continuous"


@dataclass(frozen=True, eq=False)
class TripletMatrix:
    """One entry per nonzero cell, sorted row-major, as read-only arrays."""
    n_rows: int
    n_cols: int
    rows: np.ndarray        # int64
    cols: np.ndarray        # int64
    values: np.ndarray      # float64

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int,
                     entries: list[tuple[int, int, float]]) -> "TripletMatrix":
        """Sum repeated cells in entry order, from 0.0, and drop zero cells."""
        rows, cols, values = np.fromiter(chain.from_iterable(entries), float).reshape(-1, 3).T
        outside = np.flatnonzero(~((0 <= rows) & (rows < n_rows) & (0 <= cols) & (cols < n_cols)))
        if outside.size:
            r, c, _ = entries[outside[0]]
            raise ValueError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        cells, inverse = np.unique(rows * n_cols + cols, return_inverse=True)
        sums = np.zeros(cells.size)
        with np.errstate(over="ignore", invalid="ignore"):   # as Python floats add
            np.add.at(sums, inverse, values)
        keep = sums != 0.0
        arrays = (*np.divmod(cells[keep], n_cols), sums[keep])
        for array in arrays:
            array.flags.writeable = False
        return cls(n_rows, n_cols, *arrays)

    @property
    def nnz(self) -> int:
        return self.values.size

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.values
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """This matrix times x, summed over the triplets (no dense copy)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise ValueError(f"expected a vector of {self.n_cols}, got shape {x.shape}")
        return np.bincount(self.rows, weights=self.values * x[self.cols],
                           minlength=self.n_rows)

    def write_matrix_market(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{self.n_rows} {self.n_cols} {self.nnz}\n")
            for r, c, val in zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()):
                fh.write(f"{r + 1} {c + 1} {val!r}\n")


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
    x3, v = z_off["x3"], z_off["v"]
    tank_rows, junction_rows = row_off["tanks"], row_off["junctions"]
    # flow coefficient of each tank row: dt/A, or 1/A in continuous mode
    tank_factor = [(1.0 if dt is None else dt) / float(area) for area in net.tank_area]

    e_entries: list[tuple[int, int, float]] = []
    a_entries: list[tuple[int, int, float]] = []
    f_entries: list[tuple[int, int, float]] = []

    for i, link in enumerate(net.links):
        col = v + i
        for pos, sign in ((link.from_pos, -1.0), (link.to_pos, 1.0)):
            # energy row i: 0 = -h_from + h_to + f; pump and valve rows
            # skip tank heads
            if link.kind == PIPE or pos < x3:
                a_entries.append((i, pos, sign))
            # mass balance: + inflow - outflow in a tank row, negated in a
            # junction row (0 = -(in - out) + d)
            if pos >= x3:
                a_entries.append((tank_rows + pos - x3, col, sign * tank_factor[pos - x3]))
            elif pos < n_j:
                a_entries.append((junction_rows + pos, col, -sign))
        f_entries.append((i, i, 1.0))

    # tank rows: h+ on the left, and the carried-over h in discrete mode
    for i in range(n_t):
        e_entries.append((tank_rows + i, x3 + i, 1.0))
        if mode == DISCRETE:
            a_entries.append((tank_rows + i, x3 + i, 1.0))

    # reservoir rows: 0 = -x2 + h_R; B_l adds each junction's demand and
    # each reservoir's head to its own row
    for i in range(n_r):
        a_entries.append((row_off["reservoirs"] + i, z_off["x2"] + i, -1.0))
    l_entries = [(junction_rows + i, i, 1.0) for i in range(n_j + n_r)]

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
        json.dump(asdict(dae.layout), fh, indent=2)
        fh.write("\n")
    written.append(layout_path)
    return written
