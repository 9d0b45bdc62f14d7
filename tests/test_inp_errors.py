"""Exact type and message of every parser error, one malformed snippet per
raise site: a reworked parser must reject each input the same way."""

from __future__ import annotations

import dataclasses

import pytest

from wdn_lipschitz import parse_inp
from wdn_lipschitz.errors import (
    DuplicateId,
    MalformedSection,
    MissingRequiredSection,
    ParameterOutOfRange,
    UnknownNodeRef,
)
from wdn_lipschitz.inp import PumpDesc, fit_pump_curve

BASE = """[JUNCTIONS]
J1 100 50
[RESERVOIRS]
R1 200
[TANKS]
T1 150 10 0 30 40
[PIPES]
P1 J1 T1 1000 12 100
[PUMPS]
PU1 R1 J1 HEAD C1
[VALVES]
V1 J1 T1 12 GPV 0.004 0.5
[CURVES]
C1 0 200
C1 400 150
C1 800 40
[COORDINATES]
J1 1 2
"""

JUNCTION = "J1 100 50"
TANK = "T1 150 10 0 30 40"
PIPE = "P1 J1 T1 1000 12 100"
PUMP = "PU1 R1 J1 HEAD C1"
VALVE = "V1 J1 T1 12 GPV 0.004 0.5"
CURVE = "C1 0 200\nC1 400 150\nC1 800 40\n"

# (id, text replaced in BASE, replacement, exception type, message)
CASES = [
    ("header-unterminated", "[TANKS]", "  [TANKS ; comment", MalformedSection,
     "[TANKS line 5: unterminated section header: '  [TANKS ; comment'"),
    ("data-before-header", "[JUNCTIONS]\n", "J0 1\n[JUNCTIONS]\n", MalformedSection,
     "(preamble) line 1: data before any section header: 'J0 1'"),
    ("arity-junctions-short", JUNCTION, "J1", MalformedSection,
     "JUNCTIONS line 2: expected 2..3 fields, got 1: 'J1'"),
    ("arity-junctions-long", JUNCTION, "J1 100 50 7", MalformedSection,
     "JUNCTIONS line 2: expected 2..3 fields, got 4: 'J1 100 50 7'"),
    ("arity-reservoirs", "R1 200", "R1 200 1", MalformedSection,
     "RESERVOIRS line 4: expected 2..2 fields, got 3: 'R1 200 1'"),
    ("arity-tanks", TANK, "T1 150 10 0 30", MalformedSection,
     "TANKS line 6: expected 6..7 fields, got 5: 'T1 150 10 0 30'"),
    ("arity-pipes", PIPE, "P1 J1 T1 1000 12 100 0 OPEN x", MalformedSection,
     "PIPES line 8: expected 6..8 fields, got 9: 'P1 J1 T1 1000 12 100 0 OPEN x'"),
    ("arity-pumps", PUMP, "PU1 R1 J1 HEAD", MalformedSection,
     "PUMPS line 10: expected 5..7 fields, got 4: 'PU1 R1 J1 HEAD'"),
    ("arity-valves", VALVE, "V1 J1 T1 12 GPV", MalformedSection,
     "VALVES line 12: expected 6..7 fields, got 5: 'V1 J1 T1 12 GPV'"),
    ("arity-curves", "C1 400 150", "C1 400", MalformedSection,
     "CURVES line 15: expected 3..3 fields, got 2: 'C1 400'"),
    ("arity-coordinates", "J1 1 2", "J1 1 2 3", MalformedSection,
     "COORDINATES line 18: expected 3..3 fields, got 4: 'J1 1 2 3'"),
    ("num-junction-elevation", JUNCTION, "J1 abc 50", MalformedSection,
     "JUNCTIONS line 2: elevation is not a number: 'J1 abc 50'"),
    ("num-junction-demand", JUNCTION, "J1 100 inf", MalformedSection,
     "JUNCTIONS line 2: demand is not finite: 'J1 100 inf'"),
    ("num-reservoir-head", "R1 200", "R1 nan", MalformedSection,
     "RESERVOIRS line 4: head is not finite: 'R1 nan'"),
    ("num-tank-elevation", TANK, "T1 x 10 0 30 40", MalformedSection,
     "TANKS line 6: elevation is not a number: 'T1 x 10 0 30 40'"),
    ("num-tank-initial", TANK, "T1 150 x 0 30 40", MalformedSection,
     "TANKS line 6: initial level is not a number: 'T1 150 x 0 30 40'"),
    ("num-tank-minimum", TANK, "T1 150 10 1e999 30 40", MalformedSection,
     "TANKS line 6: minimum level is not finite: 'T1 150 10 1e999 30 40'"),
    ("num-tank-maximum", TANK, "T1 150 10 0 x 40", MalformedSection,
     "TANKS line 6: maximum level is not a number: 'T1 150 10 0 x 40'"),
    ("num-tank-minimum-volume", TANK, "T1 150 10 0 30 40 abc", MalformedSection,
     "TANKS line 6: minimum volume is not a number: 'T1 150 10 0 30 40 abc'"),
    ("num-tank-diameter", TANK, "T1 150 10 0 30 -inf", MalformedSection,
     "TANKS line 6: diameter is not finite: 'T1 150 10 0 30 -inf'"),
    ("num-pipe-length", PIPE, "P1 J1 T1 1,000 12 100", MalformedSection,
     "PIPES line 8: length is not a number: 'P1 J1 T1 1,000 12 100'"),
    ("num-pipe-length-underscore", PIPE, "P1 J1 T1 1_0 12 100", MalformedSection,
     "PIPES line 8: length is not a number: 'P1 J1 T1 1_0 12 100'"),
    ("num-pipe-length-fullwidth", PIPE, "P1 J1 T1 \uff19\uff12\uff12.5 12 100",
     MalformedSection,
     "PIPES line 8: length is not a number: 'P1 J1 T1 \uff19\uff12\uff12.5 12 100'"),
    ("num-pipe-diameter", PIPE, "P1 J1 T1 1000 NaN 100", MalformedSection,
     "PIPES line 8: diameter is not finite: 'P1 J1 T1 1000 NaN 100'"),
    ("num-pipe-roughness", PIPE, "P1 J1 T1 1000 12 C", MalformedSection,
     "PIPES line 8: roughness is not a number: 'P1 J1 T1 1000 12 C'"),
    ("num-pipe-minor-loss", PIPE, "P1 J1 T1 1000 12 100 Infinity", MalformedSection,
     "PIPES line 8: minor loss is not finite: 'P1 J1 T1 1000 12 100 Infinity'"),
    ("num-curve-flow", "C1 400 150", "C1 q 150", MalformedSection,
     "CURVES line 15: flow is not a number: 'C1 q 150'"),
    ("num-curve-head", "C1 400 150", "C1 400 1e400", MalformedSection,
     "CURVES line 15: head is not finite: 'C1 400 1e400'"),
    ("num-valve-diameter", VALVE, "V1 J1 T1 d GPV 0.004 0.5", MalformedSection,
     "VALVES line 12: diameter is not a number: 'V1 J1 T1 d GPV 0.004 0.5'"),
    ("num-valve-resistance", VALVE, "V1 J1 T1 12 GPV inf 0.5", MalformedSection,
     "VALVES line 12: resistance is not finite: 'V1 J1 T1 12 GPV inf 0.5'"),
    ("num-valve-openness", VALVE, "V1 J1 T1 12 GPV 0.004 half", MalformedSection,
     "VALVES line 12: openness is not a number: 'V1 J1 T1 12 GPV 0.004 half'"),
    ("num-coordinate-x", "J1 1 2", "J1 x 2", MalformedSection,
     "COORDINATES line 18: x is not a number: 'J1 x 2'"),
    ("num-coordinate-y", "J1 1 2", "J1 1 -nan", MalformedSection,
     "COORDINATES line 18: y is not finite: 'J1 1 -nan'"),
    ("options-headloss", "[COORDINATES]", "[OPTIONS]\nheadloss x-y\n[COORDINATES]",
     MalformedSection, "OPTIONS line 18: unsupported head-loss model 'X-Y': 'headloss x-y'"),
    ("pipe-status", PIPE, "P1 J1 T1 1000 12 100 0 Closed", MalformedSection,
     "PIPES line 8: unsupported pipe status 'Closed': 'P1 J1 T1 1000 12 100 0 Closed'"),
    ("pump-speed", PUMP, "PU1 R1 J1 HEAD C1 SPEED fast", MalformedSection,
     "PUMPS line 10: speed is not a number: 'PU1 R1 J1 HEAD C1 SPEED fast'"),
    ("pump-speed-inf", PUMP, "PU1 R1 J1 HEAD C1 SPEED inf", MalformedSection,
     "PUMPS line 10: speed is not finite: 'PU1 R1 J1 HEAD C1 SPEED inf'"),
    ("pump-property", PUMP, "PU1 R1 J1 POWER 50", MalformedSection,
     "PUMPS line 10: unsupported pump property 'POWER': 'PU1 R1 J1 POWER 50'"),
    ("pump-property-without-value", PUMP, "PU1 R1 J1 HEAD C1 SPEED", MalformedSection,
     "PUMPS line 10: pump property 'SPEED' has no value: 'PU1 R1 J1 HEAD C1 SPEED'"),
    ("pump-head-without-value", PUMP, "PU1 R1 J1 HEAD C1 HEAD", MalformedSection,
     "PUMPS line 10: pump property 'HEAD' has no value: 'PU1 R1 J1 HEAD C1 HEAD'"),
    ("pump-without-head", PUMP, "PU1 R1 J1 SPEED 0.5", MalformedSection,
     "PUMPS line 10: pump needs a HEAD curve: 'PU1 R1 J1 SPEED 0.5'"),
    ("pump-unknown-curve", PUMP, "PU1 R1 J1 HEAD C9", MalformedSection,
     "PUMPS line 10: unknown curve 'C9': 'PU1 R1 J1 HEAD C9'"),
    ("curve-repeated-flow", CURVE, "C1 0 200\nC1 400 150\nC1 400 40\n", MalformedSection,
     "PUMPS line 10: curve has repeated flow values: 'PU1 R1 J1 HEAD C1'"),
    ("curve-negative-flow", CURVE, "C1 -1 200\nC1 400 150\n", MalformedSection,
     "PUMPS line 10: curve flow values must be >= 0: 'PU1 R1 J1 HEAD C1'"),
    ("curve-rising-head", CURVE, "C1 0 200\nC1 400 250\n", MalformedSection,
     "PUMPS line 10: curve heads must strictly decrease with flow: 'PU1 R1 J1 HEAD C1'"),
    ("curve-single-zero-flow-point", CURVE, "C1 0 200\n", MalformedSection,
     "PUMPS line 10: single-point curve needs positive design flow and head: "
     "'PU1 R1 J1 HEAD C1'"),
    ("curve-two-positive-points", CURVE, "C1 100 200\nC1 400 150\n", MalformedSection,
     "PUMPS line 10: curve without a zero-flow point must have exactly three points: "
     "'PU1 R1 J1 HEAD C1'"),
    ("valve-type", VALVE, "V1 J1 T1 12 PRV 20", MalformedSection,
     "VALVES line 12: unsupported valve type 'PRV' (only GPV): 'V1 J1 T1 12 PRV 20'"),
    ("missing-junctions", "[JUNCTIONS]\nJ1 100 50\n", "[PATTERNS]\nJ1 100 50\n",
     MissingRequiredSection, "required section [JUNCTIONS] is absent"),
    ("duplicate-node", "R1 200", "J1 200", DuplicateId, "duplicate id 'J1' in [RESERVOIRS]"),
    ("duplicate-link", "V1 J1 T1", "P1 J1 T1", DuplicateId, "duplicate id 'P1' in [VALVES]"),
    ("unknown-node", "P1 J1 T1", "P1 J1 T9", UnknownNodeRef,
     "undeclared node 'T9' (referenced by link 'P1')"),
    ("range-tank-diameter", TANK, "T1 150 10 0 30 0", ParameterOutOfRange,
     "tank 'T1': diameter must be > 0"),
    ("range-tank-area", TANK, "T1 150 10 0 30 1e-200", ParameterOutOfRange,
     "tank 'T1': cross-section area must be > 0"),
    ("range-tank-area-inf", TANK, "T1 150 10 0 30 1e200", ParameterOutOfRange,
     "tank 'T1': cross-section area is not finite"),
    ("range-pipe-length", PIPE, "P1 J1 T1 0 12 100", ParameterOutOfRange,
     "pipe 'P1': length, diameter and roughness must be > 0"),
    ("range-pipe-roughness", PIPE, "P1 J1 T1 1000 12 -5", ParameterOutOfRange,
     "pipe 'P1': length, diameter and roughness must be > 0"),
    ("range-pipe-resistance", PIPE, "P1 J1 T1 1e-320 12 100", ParameterOutOfRange,
     "pipe 'P1': resistance must be > 0"),
    ("range-pump-shutoff", CURVE, "C1 0 -10\nC1 100 -20\n", ParameterOutOfRange,
     "pump 'PU1': shutoff head must be > 0"),
    ("range-pump-coefficient", CURVE, "C1 0 10\nC1 1e200 5\n", ParameterOutOfRange,
     "pump 'PU1': curve coefficient must be > 0"),
    ("range-pump-exponent", CURVE, "C1 0 200\nC1 1 199\nC1 2 100\n", ParameterOutOfRange,
     "pump 'PU1': curve exponent 6.643856189774726 outside [1, 3]"),
    ("range-pump-exponent-three-points", CURVE, "C1 100 200\nC1 200 100\nC1 300 99\n",
     MalformedSection, "PUMPS line 10: curve is not consistent with a power-law head "
     "model: 'PU1 R1 J1 HEAD C1'"),
    # a spurious shutoff-head root from rounding noise: the fit (9.0e15,
    # 9.0e15, 0.0) predicts 50 for every head
    ("curve-spurious-shutoff-root", CURVE, "C1 150.85766543276267 45.49378046709595\n"
     "C1 323.839526505514 43.351708865456665\nC1 650.9379636951234 42.093590613710134\n",
     MalformedSection, "PUMPS line 10: curve is not consistent with a power-law head "
     "model: 'PU1 R1 J1 HEAD C1'"),
    ("range-pump-speed", PUMP, "PU1 R1 J1 HEAD C1 SPEED 1.5", ParameterOutOfRange,
     "pump 'PU1': speed 1.5 outside (0, 1]"),
    ("range-valve-resistance", VALVE, "V1 J1 T1 12 GPV 0 0.5", ParameterOutOfRange,
     "valve 'V1': resistance must be > 0"),
    ("range-valve-openness", VALVE, "V1 J1 T1 12 GPV 0.004 1.5", ParameterOutOfRange,
     "valve 'V1': openness 1.5 outside (0, 1]"),
]


def test_base_network_parses():
    assert parse_inp(BASE).component_counts() == (1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("old, new, exc_type, message",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_error_type_and_message(old, new, exc_type, message):
    assert BASE.count(old) == 1
    with pytest.raises(Exception) as err:
        parse_inp(BASE.replace(old, new))
    assert type(err.value) is exc_type
    assert str(err.value) == message


def declared_pump(old: str, new: str) -> PumpDesc:
    """The pump that BASE with old replaced by new declares, built in code."""
    curve = new if old == CURVE else CURVE
    points = [tuple(map(float, line.split()[1:])) for line in curve.splitlines()]
    tokens = (new if old == PUMP else PUMP).split()
    speed = float(tokens[tokens.index("SPEED") + 1]) if "SPEED" in tokens else 1.0
    return PumpDesc("PU1", "R1", "J1", *fit_pump_curve(points), speed)


@pytest.mark.parametrize("old, new, exc_type, message",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES
                          if case[0].startswith("range-pump-")
                          and case[3] is ParameterOutOfRange])
def test_replaced_pump_fails_as_parse_inp_does(old, new, exc_type, message):
    pump = declared_pump(old, new)
    desc = parse_inp(BASE)
    with pytest.raises(Exception) as err:
        dataclasses.replace(desc, pumps=(pump,))
    assert type(err.value) is exc_type
    assert str(err.value) == message
