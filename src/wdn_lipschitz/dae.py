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
column i belong to stacked link i.  So the pipe rows and the pump+valve
rows are one block of n_links rows, and v and u are one block of n_links
columns.  The energy, tank and junction rows are one signed incidence,
-1 at each link's from_pos and +1 at its to_pos, filtered and scaled per
block in whole-array steps.  Every cell gets at most the two ends of one
link, so entry order cannot change a sum, and a self-loop's two ends
cancel exactly.

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
from pathlib import Path

import numpy as np

from .network import Network

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
    def from_entries(cls, n_rows: int, n_cols: int, rows, cols, values) -> "TripletMatrix":
        """Sum repeated cells in entry order, from 0.0, and drop zero cells."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        outside = np.flatnonzero(~((0 <= rows) & (rows < n_rows) & (0 <= cols) & (cols < n_cols)))
        if outside.size:
            raise ValueError(f"entry ({rows[outside[0]]},{cols[outside[0]]}) "
                             f"outside {n_rows}x{n_cols}")
        cells, inverse = np.unique(rows * n_cols + cols, return_inverse=True)
        sums = np.zeros(cells.size)
        with np.errstate(over="ignore", invalid="ignore"):   # as Python floats add
            np.add.at(sums, inverse, np.asarray(values, dtype=float))
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
    tank_factor = (1.0 if dt is None else dt) / net.tank_area

    # the signed incidence: -1 where a flow leaves a node, +1 where it enters
    n = net.n_links
    ends = np.concatenate([net.from_pos, net.to_pos])
    link = np.concatenate([np.arange(n), np.arange(n)])
    sign = np.repeat([-1.0, 1.0], n)
    # energy row i: 0 = -h_from + h_to + f; pump and valve rows skip tank heads
    energy = (link < n_p) | (ends < x3)
    # mass balance: + inflow - outflow in a tank row, negated in a junction
    # row (0 = -(in - out) + d)
    tank, junction = ends >= x3, ends < n_j
    tanks, reservoirs, loads = np.arange(n_t), np.arange(n_r), np.arange(n_j + n_r)
    # tank rows: h+ on the left, and the carried-over h in discrete mode;
    # reservoir rows: 0 = -x2 + h_R
    carried = np.arange(n_t if mode == DISCRETE else 0)
    a_blocks = [
        (link[energy], ends[energy], sign[energy]),
        (tank_rows + ends[tank] - x3, v + link[tank], sign[tank] * tank_factor[ends[tank] - x3]),
        (junction_rows + ends[junction], v + link[junction], -sign[junction]),
        (tank_rows + carried, x3 + carried, np.ones(carried.size)),
        (row_off["reservoirs"] + reservoirs, z_off["x2"] + reservoirs, -np.ones(n_r)),
    ]
    a_columns = [np.concatenate(column) for column in zip(*a_blocks)]

    layout = DaeLayout(
        sizes={"n_j": n_j, "n_r": n_r, "n_t": n_t, "n_p": n_p, "n_mv": n_mv},
        z_offsets=z_off,
        row_offsets=row_off,
        time_mode=mode,
        dt=dt,
    )
    return DaeSystem(
        e_z=TripletMatrix.from_entries(dim, dim, tank_rows + tanks, x3 + tanks, np.ones(n_t)),
        a_z=TripletMatrix.from_entries(dim, dim, *a_columns),
        b_f=TripletMatrix.from_entries(dim, n, np.arange(n), np.arange(n), np.ones(n)),
        # B_l adds each junction's demand and each reservoir's head to its own row
        b_l=TripletMatrix.from_entries(dim, n_j + n_r, junction_rows + loads, loads,
                                       np.ones(n_j + n_r)),
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
