"""Parser for a documented subset of the EPANET INP text format.

Supported sections: [JUNCTIONS], [RESERVOIRS], [TANKS], [PIPES], [PUMPS],
[VALVES], [CURVES], [OPTIONS], [COORDINATES].  Any other section is skipped
and recorded in the ``warnings`` list of the returned description.  A ``;``
starts a comment that runs to the end of the line.

Pipe resistance is derived from (length, diameter, roughness) with the
EPANET resistance formulas, applied to the file's raw numbers (no unit
conversion; the flow-unit option is recorded but not interpreted):

    Hazen-Williams   R = 4.727 * C**-1.852 * d**-4.871 * L      (exponent 1.852)
    Darcy-Weisbach   R = 0.0252 * f * d**-5 * L                 (exponent 2)
    Chezy-Manning    R = 4.66  * n**2 * d**-5.33 * L            (exponent 2)

For Darcy-Weisbach the roughness column is taken as a fixed friction factor
f; the flow-dependent Colebrook iteration is out of scope.

Pumps must reference a HEAD curve.  Curves are fitted to the head-gain model
``h(q) = h_s - r*q**nu``: a single-point curve uses the EPANET convention
(h_s = 4/3 of the design head, nu = 2); multi-point curves take h_s from the
zero-flow point when present (otherwise h_s is recovered by a one-dimensional
root solve on three points) and then fit (r, nu) by least squares on
``log(h_s - h) = log r + nu log q``.

Valves are general purpose valves written as ``id node1 node2 diameter GPV
resistance [openness]``; openness defaults to 1.

INP text is the package's only network input format.  A NetworkDescription
checks itself when it is made, by parse_inp, directly or through
dataclasses.replace: it rejects a duplicate id, a link to an undeclared node
and a parameter out of range.  It is frozen and holds its rows as tuples, so
it stays as checked.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import (
    DuplicateId,
    MalformedSection,
    MissingRequiredSection,
    ParameterOutOfRange,
    UnknownNodeRef,
)

# the description's row fields, in stacked order: the nodes as the heads
# are stacked, then the links as the flows are
COMPONENTS = ("junctions", "reservoirs", "tanks", "pipes", "pumps", "valves")
SUPPORTED_SECTIONS = (*(name.upper() for name in COMPONENTS), "CURVES", "OPTIONS", "COORDINATES")

HEADLOSS_EXPONENT = {"H-W": 1.852, "D-W": 2.0, "C-M": 2.0}


@dataclass(frozen=True)
class JunctionDesc:
    id: str
    elevation: float
    base_demand: float = 0.0


@dataclass(frozen=True)
class ReservoirDesc:
    id: str
    head: float


@dataclass(frozen=True)
class TankDesc:
    id: str
    elevation: float
    init_level: float
    cross_section_area: float


@dataclass(frozen=True)
class PipeDesc:
    id: str
    from_node: str
    to_node: str
    resistance: float
    exponent: float


@dataclass(frozen=True)
class PumpDesc:
    id: str
    from_node: str
    to_node: str
    shutoff_head: float
    curve_coeff: float
    curve_exponent: float
    speed: float = 1.0


@dataclass(frozen=True)
class ValveDesc:
    id: str
    from_node: str
    to_node: str
    resistance: float
    openness: float = 1.0


@dataclass(frozen=True)
class NetworkDescription:
    """Index-free, read-only description of a water distribution network.

    Each row field and warnings may be given as any sequence; it is stored
    as a tuple.  The description is checked once, here, however it is made
    (parse_inp, directly, dataclasses.replace).
    """

    flow_units: str
    headloss_exponent: float
    junctions: tuple[JunctionDesc, ...]
    reservoirs: tuple[ReservoirDesc, ...]
    tanks: tuple[TankDesc, ...]
    pipes: tuple[PipeDesc, ...]
    pumps: tuple[PumpDesc, ...]
    valves: tuple[ValveDesc, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for name in (*COMPONENTS, "warnings"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _validate(self)

    def component_counts(self) -> tuple[int, int, int, int, int, int]:
        """The row count of each of COMPONENTS, in its order."""
        return tuple(len(getattr(self, name)) for name in COMPONENTS)


def hazen_williams_resistance(length: float, diameter: float, roughness: float) -> float:
    return 4.727 * math.pow(roughness, -1.852) * math.pow(diameter, -4.871) * length


def darcy_weisbach_resistance(length: float, diameter: float, friction: float) -> float:
    return 0.0252 * friction * math.pow(diameter, -5.0) * length


def chezy_manning_resistance(length: float, diameter: float, roughness: float) -> float:
    return 4.66 * roughness * roughness * math.pow(diameter, -5.33) * length


_RESISTANCE = {
    "H-W": hazen_williams_resistance,
    "D-W": darcy_weisbach_resistance,
    "C-M": chezy_manning_resistance,
}


def fit_pump_curve(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Fit (shutoff_head, coeff, exponent) of h(q) = h_s - r*q**nu to curve points.

    Points must have nonnegative flows and heads strictly decreasing with flow.

    Three positive-flow points get a root-solved h_s and an exact fit, so it
    must reproduce each head within 1e-6 of the head spread.  On 20,000 exact power-law curves
    (nu in [1, 3]) rounding missed by at most about 4e-9 of the spread; every
    fit that missed by more than 1e-6 rested on a spurious shutoff-head root
    and had an exponent outside [1, 3].
    """
    pts = sorted(points)
    if len(pts) != len({q for q, _ in pts}):
        raise ValueError("curve has repeated flow values")
    if any(q < 0 for q, _ in pts):
        raise ValueError("curve flow values must be >= 0")
    heads = [h for _, h in pts]
    if any(h2 >= h1 for h1, h2 in zip(heads, heads[1:])):
        raise ValueError("curve heads must strictly decrease with flow")

    if len(pts) == 1:
        q_d, h_d = pts[0]
        if q_d <= 0 or h_d <= 0:
            raise ValueError("single-point curve needs positive design flow and head")
        h_s = 4.0 * h_d / 3.0
        return h_s, h_d / (3.0 * q_d * q_d), 2.0

    if pts[0][0] == 0.0:
        h_s = pts[0][1]
        rest = pts[1:]
    elif len(pts) == 3:
        h_s = _solve_shutoff_head(pts)
        rest = pts
    else:
        raise ValueError(
            "curve without a zero-flow point must have exactly three points"
        )

    if len(rest) == 1:
        q1, h1 = rest[0]
        return h_s, (h_s - h1) / (q1 * q1), 2.0

    # least squares for log(h_s - h) = log r + nu log q
    xs = [math.log(q) for q, _ in rest]
    ys = [math.log(h_s - h) for _, h in rest]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    nu = sxy / sxx
    r = math.exp(my - nu * mx)
    if pts[0][0] > 0.0:     # h_s was root-solved
        try:
            miss = max(abs(h_s - r * math.pow(q, nu) - h) for q, h in pts)
        except OverflowError:
            miss = math.inf
        if not miss <= 1e-6 * (heads[0] - heads[-1]):
            raise ValueError("curve is not consistent with a power-law head model")
    return h_s, r, nu


def _solve_shutoff_head(pts: list[tuple[float, float]]) -> float:
    """Recover h_s from three positive-flow points by bisection.

    The exponent inferred from points (1,2) must match the one from (2,3):
    phi(H) = log((H-h1)/(H-h2))/log(q1/q2) - log((H-h2)/(H-h3))/log(q2/q3).
    phi -> +inf as H -> h1+ and -> a finite/zero limit from one side as
    H -> inf, so a sign change brackets the root.  Only a strict one counts:
    once H passes about 1e16 times the head spread, both ratios round to 1
    and phi(H) is exactly 0 whether or not a root exists.
    """
    (q1, h1), (q2, h2), (q3, h3) = pts

    def phi(H: float) -> float:
        n12 = math.log((H - h1) / (H - h2)) / math.log(q1 / q2)
        n23 = math.log((H - h2) / (H - h3)) / math.log(q2 / q3)
        return n12 - n23

    lo = h1 + 1e-9 * max(1.0, abs(h1))
    hi = h1 + (h1 - h3)
    f_lo = phi(lo)
    f_hi = phi(hi)
    for _ in range(200):
        if f_lo * f_hi < 0.0:
            break
        hi = lo + 2.0 * (hi - lo)
        f_hi = phi(hi)
    else:
        raise ValueError("curve is not consistent with a power-law head model")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = phi(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _plain_float(token: str) -> float:
    """float(token) for an ASCII token with no '_': float() alone also reads
    PEP 515 underscores and any Unicode decimal digit.  Raises ValueError."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a plain number: {token!r}")
    return float(token)


class _Row:
    """One data row of a section: its tokens and where they came from."""

    __slots__ = ("section", "line_no", "tokens")

    def __init__(self, section: str, line_no: int, tokens: list[str]):
        self.section = section
        self.line_no = line_no
        self.tokens = tokens

    def error(self, reason: str) -> MalformedSection:
        return MalformedSection(self.section, self.line_no, " ".join(self.tokens), reason)

    def num(self, idx: int, what: str) -> float:
        try:
            value = _plain_float(self.tokens[idx])
        except ValueError:
            raise self.error(f"{what} is not a number") from None
        if not math.isfinite(value):
            raise self.error(f"{what} is not finite")
        return value


def _split_sections(text: str, warnings: list[str]) -> dict[str, list[_Row]]:
    """The rows of each supported section present, by upper-case name; each
    skipped section adds a warning."""
    sections: dict[str, list[_Row]] = {}
    name = rows = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition(";")[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise MalformedSection(line, line_no, raw, "unterminated section header")
            name = line[1:-1].strip().upper()
            rows = sections.setdefault(name, []) if name in SUPPORTED_SECTIONS else None
            if rows is None:
                warnings.append(f"skipped unsupported section [{name}]")
        elif name is None:
            raise MalformedSection("(preamble)", line_no, raw, "data before any section header")
        elif rows is not None:
            rows.append(_Row(name, line_no, line.split()))
    return sections


def parse_inp(text: str) -> NetworkDescription:
    """Parse INP text into a NetworkDescription, which checks itself."""
    warnings: list[str] = []
    sections = _split_sections(text, warnings)
    if "JUNCTIONS" not in sections:
        raise MissingRequiredSection("[JUNCTIONS]")

    def rows(name: str, lo: int, hi: int) -> Iterator[_Row]:
        for r in sections.get(name, ()):
            if not lo <= len(r.tokens) <= hi:
                raise r.error(f"expected {lo}..{hi} fields, got {len(r.tokens)}")
            yield r

    flow_units = "GPM"
    headloss_model = "H-W"
    for r in sections.get("OPTIONS", ()):
        if len(r.tokens) < 2:
            continue
        key, value = r.tokens[0].upper(), r.tokens[1].upper()
        if key == "UNITS":
            flow_units = value
        elif key == "HEADLOSS":
            if value not in HEADLOSS_EXPONENT:
                raise r.error(f"unsupported head-loss model {value!r}")
            headloss_model = value
    mu = HEADLOSS_EXPONENT[headloss_model]

    junctions = [
        JunctionDesc(r.tokens[0], r.num(1, "elevation"),
                     r.num(2, "demand") if len(r.tokens) > 2 else 0.0)
        for r in rows("JUNCTIONS", 2, 3)
    ]
    reservoirs = [ReservoirDesc(r.tokens[0], r.num(1, "head"))
                  for r in rows("RESERVOIRS", 2, 2)]

    tanks = []
    for r in rows("TANKS", 6, 7):
        elevation = r.num(1, "elevation")
        init_level = r.num(2, "initial level")
        r.num(3, "minimum level")
        r.num(4, "maximum level")
        diameter = r.num(5, "diameter")
        if len(r.tokens) > 6:
            r.num(6, "minimum volume")
        if diameter <= 0:
            raise ParameterOutOfRange(f"tank {r.tokens[0]!r}: diameter must be > 0")
        tanks.append(TankDesc(r.tokens[0], elevation, init_level,
                              math.pi * diameter * diameter / 4.0))

    resistance_fn = _RESISTANCE[headloss_model]
    pipes = []
    for r in rows("PIPES", 6, 8):
        pipe_id = r.tokens[0]
        length, diameter, roughness = (r.num(3, "length"), r.num(4, "diameter"),
                                       r.num(5, "roughness"))
        if len(r.tokens) > 6 and r.num(6, "minor loss") != 0.0:
            warnings.append(f"pipe {pipe_id!r}: minor loss ignored")
        if len(r.tokens) > 7 and r.tokens[7].upper() != "OPEN":
            raise r.error(f"unsupported pipe status {r.tokens[7]!r}")
        if length <= 0 or diameter <= 0 or roughness <= 0:
            raise ParameterOutOfRange(
                f"pipe {pipe_id!r}: length, diameter and roughness must be > 0"
            )
        try:
            resistance = resistance_fn(length, diameter, roughness)
        except OverflowError:
            raise ParameterOutOfRange(f"pipe {pipe_id!r}: resistance is not finite") from None
        pipes.append(PipeDesc(pipe_id, r.tokens[1], r.tokens[2], resistance, mu))

    curves: dict[str, list[tuple[float, float]]] = {}
    for r in rows("CURVES", 3, 3):
        curves.setdefault(r.tokens[0], []).append((r.num(1, "flow"), r.num(2, "head")))

    pumps = []
    for r in rows("PUMPS", 5, 7):
        curve_id: str | None = None
        speed = 1.0
        props = r.tokens[3:]
        for i in range(0, len(props), 2):
            key = props[i].upper()
            if key not in ("HEAD", "SPEED"):
                raise r.error(f"unsupported pump property {props[i]!r}")
            if i + 1 == len(props):
                raise r.error(f"pump property {props[i]!r} has no value")
            if key == "HEAD":
                curve_id = props[i + 1]
            else:
                speed = r.num(4 + i, "speed")
        if curve_id is None:
            raise r.error("pump needs a HEAD curve")
        if curve_id not in curves:
            raise r.error(f"unknown curve {curve_id!r}")
        try:
            h_s, coeff, nu = fit_pump_curve(curves[curve_id])
        except (ValueError, ArithmeticError) as exc:
            raise r.error(str(exc)) from None
        pumps.append(PumpDesc(r.tokens[0], r.tokens[1], r.tokens[2], h_s, coeff, nu, speed))

    valves = []
    for r in rows("VALVES", 6, 7):
        r.num(3, "diameter")
        if r.tokens[4].upper() != "GPV":
            raise r.error(f"unsupported valve type {r.tokens[4]!r} (only GPV)")
        resistance = r.num(5, "resistance")
        openness = r.num(6, "openness") if len(r.tokens) > 6 else 1.0
        valves.append(ValveDesc(r.tokens[0], r.tokens[1], r.tokens[2], resistance, openness))

    for r in rows("COORDINATES", 3, 3):
        r.num(1, "x")
        r.num(2, "y")

    return NetworkDescription(flow_units, mu, junctions, reservoirs, tanks, pipes, pumps,
                              valves, warnings)


def _validate(desc: NetworkDescription) -> None:
    """Reject a duplicate id, a link to an undeclared node, and a parameter
    out of range.  The closed form and the point route's hull rest on
    positive coefficients and exponents in [1, 3]; each check is written so
    that a NaN fails it."""
    nodes: set[str] = set()
    for section, items in (("[JUNCTIONS]", desc.junctions),
                           ("[RESERVOIRS]", desc.reservoirs), ("[TANKS]", desc.tanks)):
        for node in items:
            if node.id in nodes:
                raise DuplicateId(node.id, section)
            nodes.add(node.id)
    links: set[str] = set()
    for section, items in (("[PIPES]", desc.pipes), ("[PUMPS]", desc.pumps),
                           ("[VALVES]", desc.valves)):
        for link in items:
            if link.id in links:
                raise DuplicateId(link.id, section)
            links.add(link.id)
            for end in (link.from_node, link.to_node):
                if end not in nodes:
                    raise UnknownNodeRef(end, link.id)
    mu = desc.headloss_exponent
    if not 1.0 <= mu <= 3.0:
        raise ParameterOutOfRange(f"head-loss exponent {mu} outside [1, 3]")
    for p in desc.pipes:
        if not p.resistance > 0:
            raise ParameterOutOfRange(f"pipe {p.id!r}: resistance must be > 0")
        if not math.isfinite(p.resistance):
            raise ParameterOutOfRange(f"pipe {p.id!r}: resistance is not finite")
        if p.exponent != mu:
            raise ParameterOutOfRange(f"pipe {p.id!r}: exponent differs from network value")
    for m in desc.pumps:
        if not m.shutoff_head > 0:
            raise ParameterOutOfRange(f"pump {m.id!r}: shutoff head must be > 0")
        if not m.curve_coeff > 0:
            raise ParameterOutOfRange(f"pump {m.id!r}: curve coefficient must be > 0")
        if not 1.0 <= m.curve_exponent <= 3.0:
            raise ParameterOutOfRange(
                f"pump {m.id!r}: curve exponent {m.curve_exponent} outside [1, 3]"
            )
        if not 0.0 < m.speed <= 1.0:
            raise ParameterOutOfRange(f"pump {m.id!r}: speed {m.speed} outside (0, 1]")
    for v in desc.valves:
        if not v.resistance > 0:
            raise ParameterOutOfRange(f"valve {v.id!r}: resistance must be > 0")
        if not math.isfinite(v.resistance):
            raise ParameterOutOfRange(f"valve {v.id!r}: resistance is not finite")
        if not 0.0 < v.openness <= 1.0:
            raise ParameterOutOfRange(f"valve {v.id!r}: openness {v.openness} outside (0, 1]")
    for t in desc.tanks:
        if not t.cross_section_area > 0:
            raise ParameterOutOfRange(f"tank {t.id!r}: cross-section area must be > 0")
        if not math.isfinite(t.cross_section_area):
            raise ParameterOutOfRange(f"tank {t.id!r}: cross-section area is not finite")
