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

INP text is the package's only network input format.  Once every row is
read, parse_inp rejects a duplicate id, a link to an undeclared node and a
parameter out of range; build_network runs the same checks on a
description built directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DuplicateId,
    MalformedSection,
    MissingRequiredSection,
    ParameterOutOfRange,
    UnknownNodeRef,
)

SUPPORTED_SECTIONS = (
    "JUNCTIONS",
    "RESERVOIRS",
    "TANKS",
    "PIPES",
    "PUMPS",
    "VALVES",
    "CURVES",
    "OPTIONS",
    "COORDINATES",
)

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


@dataclass
class NetworkDescription:
    """Index-free description of a water distribution network.

    parse_inp returns one validated; build_network validates one built
    directly.
    """

    flow_units: str
    headloss_exponent: float
    junctions: list[JunctionDesc]
    reservoirs: list[ReservoirDesc]
    tanks: list[TankDesc]
    pipes: list[PipeDesc]
    pumps: list[PumpDesc]
    valves: list[ValveDesc]
    warnings: list[str] = field(default_factory=list, compare=False)

    def component_counts(self) -> tuple[int, int, int, int, int, int]:
        """(junctions, reservoirs, tanks, pipes, pumps, valves)."""
        return (
            len(self.junctions),
            len(self.reservoirs),
            len(self.tanks),
            len(self.pipes),
            len(self.pumps),
            len(self.valves),
        )


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

    if any(h >= h_s for _, h in rest):
        raise ValueError("curve heads must lie below the shutoff head")
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
    return h_s, r, nu


def _solve_shutoff_head(pts: list[tuple[float, float]]) -> float:
    """Recover h_s from three positive-flow points by bisection.

    The exponent inferred from points (1,2) must match the one from (2,3):
    phi(H) = log((H-h1)/(H-h2))/log(q1/q2) - log((H-h2)/(H-h3))/log(q2/q3).
    phi -> +inf as H -> h1+ and -> a finite/zero limit from one side as
    H -> inf, so a sign change brackets the root.
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
        if f_lo * f_hi <= 0.0:
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


def _strip(line: str) -> str:
    cut = line.find(";")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.warnings: list[str] = []
        self.sections: dict[str, list[tuple[int, list[str]]]] = {}

    def split_sections(self) -> None:
        current: str | None = None
        known_current = False
        for line_no, raw in enumerate(self.text.splitlines(), start=1):
            line = _strip(raw)
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise MalformedSection(line, line_no, raw, "unterminated section header")
                name = line[1:-1].strip().upper()
                current = name
                known_current = name in SUPPORTED_SECTIONS
                if known_current:
                    self.sections.setdefault(name, [])
                else:
                    self.warnings.append(f"skipped unsupported section [{name}]")
                continue
            if current is None:
                raise MalformedSection("(preamble)", line_no, raw, "data before any section header")
            if known_current:
                self.sections[current].append((line_no, line.split()))

    def rows(self, name: str) -> list[tuple[int, list[str]]]:
        return self.sections.get(name, [])


def _num(section: str, line_no: int, tokens: list[str], idx: int, what: str) -> float:
    try:
        value = float(tokens[idx])
    except ValueError:
        raise MalformedSection(section, line_no, " ".join(tokens), f"{what} is not a number") from None
    if not math.isfinite(value):
        raise MalformedSection(section, line_no, " ".join(tokens), f"{what} is not finite")
    return value


def _arity(section: str, line_no: int, tokens: list[str], lo: int, hi: int) -> None:
    if not lo <= len(tokens) <= hi:
        raise MalformedSection(
            section, line_no, " ".join(tokens),
            f"expected {lo}..{hi} fields, got {len(tokens)}",
        )


def parse_inp(text: str) -> NetworkDescription:
    """Parse INP text into a validated NetworkDescription."""
    parser = _Parser(text)
    parser.split_sections()

    if "JUNCTIONS" not in parser.sections:
        raise MissingRequiredSection("[JUNCTIONS]")

    flow_units = "GPM"
    headloss_model = "H-W"
    for line_no, tokens in parser.rows("OPTIONS"):
        if len(tokens) < 2:
            continue
        key = tokens[0].upper()
        if key == "UNITS":
            flow_units = tokens[1].upper()
        elif key == "HEADLOSS":
            model = tokens[1].upper()
            if model not in HEADLOSS_EXPONENT:
                raise MalformedSection(
                    "OPTIONS", line_no, " ".join(tokens),
                    f"unsupported head-loss model {model!r}",
                )
            headloss_model = model
    mu = HEADLOSS_EXPONENT[headloss_model]

    junctions = []
    for line_no, tokens in parser.rows("JUNCTIONS"):
        _arity("JUNCTIONS", line_no, tokens, 2, 3)
        elevation = _num("JUNCTIONS", line_no, tokens, 1, "elevation")
        demand = _num("JUNCTIONS", line_no, tokens, 2, "demand") if len(tokens) > 2 else 0.0
        junctions.append(JunctionDesc(tokens[0], elevation, demand))

    reservoirs = []
    for line_no, tokens in parser.rows("RESERVOIRS"):
        _arity("RESERVOIRS", line_no, tokens, 2, 2)
        reservoirs.append(ReservoirDesc(tokens[0], _num("RESERVOIRS", line_no, tokens, 1, "head")))

    tanks = []
    for line_no, tokens in parser.rows("TANKS"):
        _arity("TANKS", line_no, tokens, 6, 7)
        elevation = _num("TANKS", line_no, tokens, 1, "elevation")
        init_level = _num("TANKS", line_no, tokens, 2, "initial level")
        _num("TANKS", line_no, tokens, 3, "minimum level")
        _num("TANKS", line_no, tokens, 4, "maximum level")
        diameter = _num("TANKS", line_no, tokens, 5, "diameter")
        if diameter <= 0:
            raise ParameterOutOfRange(f"tank {tokens[0]!r}: diameter must be > 0")
        area = math.pi * diameter * diameter / 4.0
        tanks.append(TankDesc(tokens[0], elevation, init_level, area))

    resistance_fn = _RESISTANCE[headloss_model]
    pipes = []
    for line_no, tokens in parser.rows("PIPES"):
        _arity("PIPES", line_no, tokens, 6, 8)
        length = _num("PIPES", line_no, tokens, 3, "length")
        diameter = _num("PIPES", line_no, tokens, 4, "diameter")
        roughness = _num("PIPES", line_no, tokens, 5, "roughness")
        if len(tokens) > 6:
            minor = _num("PIPES", line_no, tokens, 6, "minor loss")
            if minor != 0.0:
                parser.warnings.append(f"pipe {tokens[0]!r}: minor loss ignored")
        if len(tokens) > 7 and tokens[7].upper() != "OPEN":
            raise MalformedSection(
                "PIPES", line_no, " ".join(tokens),
                f"unsupported pipe status {tokens[7]!r}",
            )
        if length <= 0 or diameter <= 0 or roughness <= 0:
            raise ParameterOutOfRange(
                f"pipe {tokens[0]!r}: length, diameter and roughness must be > 0"
            )
        pipes.append(PipeDesc(tokens[0], tokens[1], tokens[2],
                              resistance_fn(length, diameter, roughness), mu))

    curves: dict[str, list[tuple[float, float]]] = {}
    for line_no, tokens in parser.rows("CURVES"):
        _arity("CURVES", line_no, tokens, 3, 3)
        q = _num("CURVES", line_no, tokens, 1, "flow")
        h = _num("CURVES", line_no, tokens, 2, "head")
        curves.setdefault(tokens[0], []).append((q, h))

    pumps = []
    for line_no, tokens in parser.rows("PUMPS"):
        _arity("PUMPS", line_no, tokens, 5, 7)
        curve_id: str | None = None
        speed = 1.0
        rest = tokens[3:]
        i = 0
        while i < len(rest):
            key = rest[i].upper()
            if key == "HEAD" and i + 1 < len(rest):
                curve_id = rest[i + 1]
            elif key == "SPEED" and i + 1 < len(rest):
                try:
                    speed = float(rest[i + 1])
                except ValueError:
                    raise MalformedSection(
                        "PUMPS", line_no, " ".join(tokens), "speed is not a number"
                    ) from None
            else:
                raise MalformedSection(
                    "PUMPS", line_no, " ".join(tokens),
                    f"unsupported pump property {rest[i]!r}",
                )
            i += 2
        if curve_id is None:
            raise MalformedSection("PUMPS", line_no, " ".join(tokens), "pump needs a HEAD curve")
        if curve_id not in curves:
            raise MalformedSection(
                "PUMPS", line_no, " ".join(tokens), f"unknown curve {curve_id!r}"
            )
        try:
            h_s, r, nu = fit_pump_curve(curves[curve_id])
        except ValueError as exc:
            raise MalformedSection("PUMPS", line_no, " ".join(tokens), str(exc)) from None
        pumps.append(PumpDesc(tokens[0], tokens[1], tokens[2], h_s, r, nu, speed))

    valves = []
    for line_no, tokens in parser.rows("VALVES"):
        _arity("VALVES", line_no, tokens, 6, 7)
        _num("VALVES", line_no, tokens, 3, "diameter")
        if tokens[4].upper() != "GPV":
            raise MalformedSection(
                "VALVES", line_no, " ".join(tokens),
                f"unsupported valve type {tokens[4]!r} (only GPV)",
            )
        resistance = _num("VALVES", line_no, tokens, 5, "resistance")
        openness = _num("VALVES", line_no, tokens, 6, "openness") if len(tokens) > 6 else 1.0
        valves.append(ValveDesc(tokens[0], tokens[1], tokens[2], resistance, openness))

    for line_no, tokens in parser.rows("COORDINATES"):
        _arity("COORDINATES", line_no, tokens, 3, 3)
        _num("COORDINATES", line_no, tokens, 1, "x")
        _num("COORDINATES", line_no, tokens, 2, "y")

    desc = NetworkDescription(
        flow_units=flow_units,
        headloss_exponent=mu,
        junctions=junctions,
        reservoirs=reservoirs,
        tanks=tanks,
        pipes=pipes,
        pumps=pumps,
        valves=valves,
        warnings=parser.warnings,
    )
    _validate(desc)
    return desc


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
        if not 0.0 < v.openness <= 1.0:
            raise ParameterOutOfRange(f"valve {v.id!r}: openness {v.openness} outside (0, 1]")
    for t in desc.tanks:
        if not t.cross_section_area > 0:
            raise ParameterOutOfRange(f"tank {t.id!r}: cross-section area must be > 0")
