"""The box domain of attainable flows, one closed interval per link.

Bounds files are CSV with header ``link_id,q_min,q_max`` and one row per
link.  Values are written with shortest round-trip decimal form, so a
save/load cycle is bit-exact.  Pump intervals must have a strictly positive
lower endpoint; pipe and valve intervals may cross zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BoundsError,
    DuplicateLink,
    InvertedInterval,
    MissingLink,
    NoPumps,
    PumpNonpositiveLower,
    UnknownLink,
)
from .network import PUMP, Network

PUMP_FLOW_FLOOR = 1e-6


@dataclass(frozen=True)
class FlowBox:
    """Per-link flow intervals, ordered to match the stacked flow layout."""

    link_ids: tuple[str, ...]
    kinds: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if not (len(self.link_ids) == len(self.kinds) == len(self.lo) == len(self.hi)):
            raise BoundsError("flow box field lengths disagree")
        for link_id, kind, lo, hi in zip(self.link_ids, self.kinds, self.lo, self.hi):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise BoundsError(f"link {link_id!r}: bounds must be finite")
            if lo > hi:
                raise InvertedInterval(link_id, float(lo), float(hi))
            if kind == PUMP and lo <= 0.0:
                raise PumpNonpositiveLower(link_id, float(lo))

    def __len__(self) -> int:
        return len(self.link_ids)

    def corner_magnitudes(self) -> list[float]:
        """Per-link max(|q_min|, |q_max|): the endpoint of largest magnitude."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi)).tolist()


def _box_from_mapping(net: Network, table: dict[str, tuple[float, float]]) -> FlowBox:
    lo = np.empty(net.n_links)
    hi = np.empty(net.n_links)
    for i, link in enumerate(net.links):
        if link.link_id not in table:
            raise MissingLink(link.link_id)
        lo[i], hi[i] = table[link.link_id]
    return FlowBox(
        link_ids=tuple(l.link_id for l in net.links),
        kinds=tuple(l.kind for l in net.links),
        lo=lo,
        hi=hi,
    )


def box_from_intervals(net: Network, table: dict[str, tuple[float, float]]) -> FlowBox:
    """Build a FlowBox from {link_id: (q_min, q_max)}; every link required."""
    known = set(net.link_ids)
    for link_id in table:
        if link_id not in known:
            raise UnknownLink(link_id)
    return _box_from_mapping(net, table)


def load_bounds(path: str | Path, net: Network) -> FlowBox:
    """Read a UTF-8 bounds CSV and validate it against the network; a file
    that cannot be read or decoded is a BoundsError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BoundsError(f"cannot read {path}: {exc}") from None
    return loads_bounds(text, net)


def loads_bounds(text: str, net: Network) -> FlowBox:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["link_id", "q_min", "q_max"]:
        raise BoundsError("bounds file must start with header 'link_id,q_min,q_max'")
    known = set(net.link_ids)
    table: dict[str, tuple[float, float]] = {}
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise BoundsError(f"bad bounds row: {row!r}")
        link_id = row[0].strip()
        if link_id in table:
            raise DuplicateLink(link_id)
        if link_id not in known:
            raise UnknownLink(link_id)
        try:
            lo, hi = float(row[1]), float(row[2])
        except ValueError:
            raise BoundsError(f"non-numeric bounds for link {link_id!r}") from None
        table[link_id] = (lo, hi)
    return _box_from_mapping(net, table)


def save_bounds(box: FlowBox, path: str | Path) -> None:
    """Write the box as CSV; floats use repr so load_bounds is the inverse."""
    with open(path, "w", newline="\n") as fh:
        fh.write("link_id,q_min,q_max\n")
        for link_id, lo, hi in zip(box.link_ids, box.lo, box.hi):
            fh.write(f"{link_id},{float(lo)!r},{float(hi)!r}\n")


def pump_max_flow(shutoff_head: float, coeff: float, exponent: float,
                  speed: float) -> float:
    """Flow at which the pump head relationship crosses zero: s*(h_s/r)**(1/nu)."""
    return speed * math.pow(shutoff_head / coeff, 1.0 / exponent)


def default_box(net: Network, floor: float = PUMP_FLOW_FLOOR) -> FlowBox:
    """Symmetric pipe/valve bounds capped by the largest pump maximum flow.

    Each pump gets [floor, its own maximum flow]; pipes and valves get
    [-Q, Q] where Q is the largest pump maximum flow in the network.
    """
    if net.n_pumps == 0:
        raise NoPumps()
    per_pump = [
        pump_max_flow(float(net.pump_shutoff[i]), float(net.pump_coeff[i]),
                      float(net.pump_exponent[i]), float(net.pump_speed[i]))
        for i in range(net.n_pumps)
    ]
    cap = max(per_pump)
    table: dict[str, tuple[float, float]] = {}
    for link in net.links:
        if link.kind == PUMP:
            table[link.link_id] = (floor, per_pump[link.flow_pos - net.n_pipes])
        else:
            table[link.link_id] = (-cap, cap)
    return _box_from_mapping(net, table)
