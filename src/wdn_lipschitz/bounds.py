"""The box domain of attainable flows, one closed interval per link.

Bounds files are CSV with header ``link_id,q_min,q_max`` and one row per
link.  A value in shortest round-trip decimal form (``repr``) loads bit
for bit, and an id holding ',' or '"' (legal in an INP id) is quoted as
CSV quotes it.  Pump intervals must have a strictly positive lower
endpoint; pipe and valve intervals may cross zero.

A FlowBox checks its intervals once, when it is made, and holds them as
read-only arrays.  A box belongs to the network it was made for: the
constants (analytical.py, sampling.py) first call check_box, which rejects
a box whose links differ from the network's.
"""

from __future__ import annotations

import csv
import io
import itertools
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
from .inp import _plain_float
from .network import PUMP, Network

PUMP_FLOW_FLOOR = 1e-6


@dataclass(frozen=True)
class FlowBox:
    """Per-link flow intervals, ordered to match the stacked flow layout.

    lo and hi are stored as read-only float64 copies of what is given.
    """

    link_ids: tuple[str, ...]
    kinds: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=np.float64), np.array(self.hi, dtype=np.float64)
        lo.flags.writeable = hi.flags.writeable = False
        for name, value in (("link_ids", tuple(self.link_ids)), ("kinds", tuple(self.kinds)),
                            ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)
        n = len(self.link_ids)
        if not len(self.kinds) == n or lo.shape != (n,) or hi.shape != (n,):
            raise BoundsError("flow box field lengths disagree")
        for link_id, kind, low, high in zip(self.link_ids, self.kinds, lo.tolist(), hi.tolist()):
            if not (math.isfinite(low) and math.isfinite(high)):
                raise BoundsError(f"link {link_id!r}: bounds must be finite")
            if low > high:
                raise InvertedInterval(link_id, low, high)
            if kind == PUMP and low <= 0.0:
                raise PumpNonpositiveLower(link_id, low)

    def __len__(self) -> int:
        return len(self.link_ids)

    def corner_magnitudes(self) -> list[float]:
        """Per-link max(|q_min|, |q_max|): the endpoint of largest magnitude."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi)).tolist()


def check_box(net: Network, box: FlowBox) -> None:
    """Raise BoundsError, naming the first link that differs, unless box has
    the network's link ids and kinds in its stacked order."""
    if (box.link_ids, box.kinds) == (net.link_ids, net.kinds):
        return
    pairs = itertools.zip_longest(zip(box.kinds, box.link_ids), zip(net.kinds, net.link_ids))
    pos, (ours, theirs) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    raise BoundsError(f"flow box does not fit the network at stacked link {pos}: "
                      f"the box has {_describe(ours)}, the network {_describe(theirs)}")


def _describe(link: tuple[str, str] | None) -> str:
    return "no link" if link is None else f"{link[0]} {link[1]!r}"


def load_bounds(path: str | Path, net: Network) -> FlowBox:
    """Read a UTF-8 bounds CSV (a leading byte-order mark is dropped) and
    validate it against the network; a file that cannot be read or decoded
    is a BoundsError."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BoundsError(f"cannot read {path}: {exc}") from None
    return loads_bounds(text, net)


def loads_bounds(text: str, net: Network) -> FlowBox:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["link_id", "q_min", "q_max"]:
        raise BoundsError("bounds file must start with header 'link_id,q_min,q_max'")
    position = {link_id: i for i, link_id in enumerate(net.link_ids)}
    lo = np.empty(net.n_links)
    hi = np.empty(net.n_links)
    seen = np.zeros(net.n_links, dtype=bool)
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise BoundsError(f"bad bounds row: {row!r}")
        link_id = row[0].strip()
        i = position.get(link_id)
        if i is None:
            raise UnknownLink(link_id)
        if seen[i]:
            raise DuplicateLink(link_id)
        try:
            lo[i], hi[i] = _plain_float(row[1]), _plain_float(row[2])
        except ValueError:
            raise BoundsError(f"non-numeric bounds for link {link_id!r}") from None
        seen[i] = True
    unseen = np.flatnonzero(~seen)
    if unseen.size:
        raise MissingLink(net.link_ids[unseen[0]])
    return FlowBox(link_ids=net.link_ids, kinds=net.kinds, lo=lo, hi=hi)


def pump_max_flow(shutoff_head: float, coeff: float, exponent: float,
                  speed: float) -> float:
    """Flow at which the pump head relationship crosses zero: s*(h_s/r)**(1/nu)."""
    return speed * math.pow(shutoff_head / coeff, 1.0 / exponent)


def default_box(net: Network) -> FlowBox:
    """Symmetric pipe/valve bounds capped by the largest pump maximum flow.

    Each pump gets [PUMP_FLOW_FLOOR, its own maximum flow]; pipes and
    valves get [-Q, Q] where Q is the largest pump maximum flow in the
    network.
    """
    if net.n_pumps == 0:
        raise NoPumps()
    per_pump = [pump_max_flow(m.shutoff_head, m.curve_coeff, m.curve_exponent, m.speed)
                for m in net.desc.pumps]
    cap = max(per_pump)
    lo = np.full(net.n_links, -cap)
    hi = np.full(net.n_links, cap)
    pumps = slice(net.n_pipes, net.n_pipes + net.n_pumps)
    lo[pumps] = PUMP_FLOW_FLOOR
    hi[pumps] = per_pump
    return FlowBox(link_ids=net.link_ids, kinds=net.kinds, lo=lo, hi=hi)
