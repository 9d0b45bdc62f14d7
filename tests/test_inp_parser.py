from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, power

from wdn_lipschitz import build_network, inp, parse_inp
from wdn_lipschitz.errors import (
    DuplicateId,
    MalformedSection,
    MissingRequiredSection,
    ParameterOutOfRange,
    UnknownNodeRef,
)
from wdn_lipschitz.inp import (
    darcy_weisbach_resistance,
    fit_pump_curve,
    hazen_williams_resistance,
)

from conftest import EXPECTED_COUNTS, FIXTURE_DIR, FIXTURE_NAMES, gen_fixtures, make_tank_network

mp.dps = 50

MINIMAL = """
[JUNCTIONS]
J1  100  50

[RESERVOIRS]
R1  200

[TANKS]
T1  150  10  0  30  40  0

[PIPES]
P1  J1  T1  1000  12  100

[PUMPS]
PU1  R1  J1  HEAD C1

[CURVES]
C1  0    200
C1  400  150
C1  800  40
"""


def test_minimal_network_counts():
    desc = parse_inp(MINIMAL)
    assert desc.component_counts() == (1, 1, 1, 1, 1, 0)


def test_empty_string_is_missing_junctions():
    with pytest.raises(MissingRequiredSection):
        parse_inp("")


def test_unknown_node_reference():
    bad = MINIMAL.replace("P1  J1  T1", "P1  J99  T1")
    with pytest.raises(UnknownNodeRef) as err:
        parse_inp(bad)
    assert err.value.node_id == "J99"


def test_duplicate_node_id():
    bad = MINIMAL.replace("R1  200", "J1  200")
    with pytest.raises(DuplicateId):
        parse_inp(bad)


def test_duplicate_link_id_across_sections():
    bad = MINIMAL.replace("PU1  R1  J1", "P1  R1  J1")
    with pytest.raises(DuplicateId):
        parse_inp(bad)


def test_fixture_corpus_parses_with_expected_counts():
    for name in FIXTURE_NAMES:
        desc = parse_inp((FIXTURE_DIR / f"{name}.inp").read_text())
        assert desc.component_counts() == EXPECTED_COUNTS[name], name


def test_fixtures_regenerate_byte_for_byte():
    # the committed fixtures are exactly what scripts/gen_fixtures.py writes
    gen = gen_fixtures()
    texts = {"three_node": gen.three_node()}
    texts.update({name: gen.synthetic(name, counts, seed)
                  for name, (counts, seed) in gen.SYNTHETIC.items()})
    assert sorted(texts) == sorted(FIXTURE_NAMES)
    for name, (inp_text, bounds_text) in texts.items():
        assert (FIXTURE_DIR / f"{name}.inp").read_bytes() == inp_text.encode(), name
        assert (FIXTURE_DIR / f"{name}_bounds.csv").read_bytes() == bounds_text.encode(), name


def test_fixture_check_flags_pumps_and_valves_at_tanks(fixtures, valve_net):
    # scripts/gen_fixtures.py keeps every fixture's tanks on pipes only
    gen = gen_fixtures()
    for name in FIXTURE_NAMES:
        assert gen.non_pipes_at_tanks(fixtures[name][1]) == [], name
    # a pipe at a tank is allowed
    assert gen.non_pipes_at_tanks(valve_net[1]) == []
    # every pump and valve of a tank network has a tank at one end
    net = make_tank_network(np.random.default_rng(0))
    assert gen.non_pipes_at_tanks(net) == list(net.link_ids[net.n_pipes:])
    assert net.n_pumps > 0


def test_comment_insertion_is_invisible():
    for name in FIXTURE_NAMES:
        text = (FIXTURE_DIR / f"{name}.inp").read_text()
        commented = "\n".join(line + "; junk" for line in text.splitlines())
        # repr shows every field, floats by their shortest round-trip digits
        assert repr(parse_inp(commented)) == repr(parse_inp(text)), name


def test_headloss_option_selects_exponent():
    assert parse_inp(MINIMAL).headloss_exponent == 1.852  # default H-W
    dw = MINIMAL + "\n[OPTIONS]\nHEADLOSS  D-W\n"
    assert parse_inp(dw).headloss_exponent == 2.0
    cm = MINIMAL + "\n[OPTIONS]\nHEADLOSS  C-M\n"
    assert parse_inp(cm).headloss_exponent == 2.0
    with pytest.raises(MalformedSection):
        parse_inp(MINIMAL + "\n[OPTIONS]\nHEADLOSS  X-Y\n")


def test_units_option_is_ignored():
    # numbers are read as written, in no unit system; UNITS, like any option
    # other than HEADLOSS, changes nothing
    assert parse_inp(MINIMAL + "\n[OPTIONS]\nUNITS  LPS\n") == parse_inp(MINIMAL)


def test_unsupported_section_is_skipped_with_warning():
    desc = parse_inp(MINIMAL + "\n[PATTERNS]\nPAT1  1.0 1.2\n")
    assert any("PATTERNS" in w for w in desc.warnings)
    assert desc.component_counts() == (1, 1, 1, 1, 1, 0)


def test_hazen_williams_resistance_oracle():
    # independent high-precision evaluation of 4.727 L / (C^1.852 d^4.871)
    length, diameter, roughness = 1200.0, 12.0, 110.0
    exact = mpf("4.727") * power(mpf(roughness), mpf("-1.852")) \
        * power(mpf(diameter), mpf("-4.871")) * mpf(length)
    got = hazen_williams_resistance(length, diameter, roughness)
    assert got == pytest.approx(float(exact), rel=1e-13)


def test_darcy_weisbach_resistance_hits_three_node_target():
    # the three_node fixture pipe was sized to produce R = 2.346e-6
    length = 2.346e-6 * 10.0**5 / (0.0252 * 0.02)
    got = darcy_weisbach_resistance(length, 10.0, 0.02)
    assert got == pytest.approx(2.346e-6, rel=1e-12)


def test_three_node_fixture_recovers_benchmark_parameters():
    desc = parse_inp((FIXTURE_DIR / "three_node.inp").read_text())
    assert desc.headloss_exponent == 2.0
    pump = desc.pumps[0]
    assert pump.shutoff_head == pytest.approx(393.7008, rel=0, abs=0)
    assert pump.curve_coeff == pytest.approx(3.746e-6, rel=1e-9)
    assert pump.curve_exponent == pytest.approx(2.59, rel=1e-9)
    assert desc.pipes[0].resistance == pytest.approx(2.346e-6, rel=1e-12)


def test_pump_curve_fit_with_zero_flow_point():
    h_s, r, nu = 250.0, 1e-5, 1.8
    pts = [(0.0, h_s)] + [(q, h_s - r * q**nu) for q in (300.0, 900.0)]
    fit_hs, fit_r, fit_nu = fit_pump_curve(pts)
    assert fit_hs == h_s
    assert fit_r == pytest.approx(r, rel=1e-9)
    assert fit_nu == pytest.approx(nu, rel=1e-9)


def test_pump_curve_fit_three_positive_points():
    h_s, r, nu = 180.0, 4e-6, 2.2
    pts = [(q, h_s - r * q**nu) for q in (200.0, 500.0, 1100.0)]
    fit_hs, fit_r, fit_nu = fit_pump_curve(pts)
    assert fit_hs == pytest.approx(h_s, rel=1e-6)
    assert fit_r == pytest.approx(r, rel=1e-4)
    assert fit_nu == pytest.approx(nu, rel=1e-5)


def assert_fit_reproduces_or_rejects(pts):
    # a three-point fit with a root-solved shutoff head is either returned
    # and reproduces every head within 1e-6 of the spread, or rejected
    try:
        h_s, r, nu = fit_pump_curve(pts)
    except ValueError:
        return
    tol = 1e-6 * (pts[0][1] - pts[-1][1])
    assert all(abs(h_s - r * math.pow(q, nu) - h) <= tol for q, h in pts)


@settings(max_examples=300, deadline=None)
@given(h_s=st.floats(1.0, 1e4), nu=st.floats(1.0, 3.0), fill=st.floats(0.05, 0.999),
       q_max=st.floats(1e-2, 1e5),
       ts=st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3, unique=True))
def test_power_law_curve_fit_reproduces_or_rejects(h_s, nu, fill, q_max, ts):
    r = fill * h_s / q_max ** nu
    pts = [(t * q_max, h_s - r * (t * q_max) ** nu) for t in sorted(ts)]
    assume(pts[0][1] > pts[1][1] > pts[2][1])
    assert_fit_reproduces_or_rejects(pts)


# a zero-flow point and two to five more on an exact power law, at flows
# down to 1e-5 of q_max: the least-squares fit is checked as the three-point
# fit is.  It is accepted unless two flows are too close for the log-log
# slope: flows one ulp apart can share a logarithm (MalformedSection in
# parse_inp).  A head within about 1e-11 of h_s, relative, makes the
# unweighted fit miss; the fit weighted by (h_s - h)**2 must then pass, as
# on the example, which the unweighted fit alone rejects
@settings(max_examples=300, deadline=None)
@example(h_s=200.0, nu=3.0, fill=0.5, q_max=100.0, ts=[1e-5, 0.5, 1.0])
@given(h_s=st.floats(1.0, 1e4), nu=st.floats(1.0, 3.0), fill=st.floats(0.05, 0.999),
       q_max=st.floats(1e-2, 1e5),
       ts=st.lists(st.floats(1e-5, 1.0), min_size=2, max_size=5, unique=True))
def test_power_law_curve_least_squares_fit_reproduces_heads(h_s, nu, fill, q_max, ts):
    r = fill * h_s / q_max ** nu
    pts = [(0.0, h_s)] + [(t * q_max, h_s - r * (t * q_max) ** nu) for t in sorted(ts)]
    assume(all(b[1] < a[1] for a, b in zip(pts, pts[1:])))
    try:
        fit_hs, fit_r, fit_nu = fit_pump_curve(pts)
    except (ValueError, ArithmeticError):
        assert min(b[0] / a[0] for a, b in zip(pts[1:], pts[2:])) < 1.001
        return
    assert fit_hs == h_s
    tol = 1e-6 * (pts[0][1] - pts[-1][1])
    assert all(abs(fit_hs - fit_r * math.pow(q, fit_nu) - h) <= tol for q, h in pts)


@settings(max_examples=300, deadline=None)
@given(qs=st.lists(st.floats(1e-3, 1e5), min_size=3, max_size=3, unique=True),
       hs=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3, unique=True))
def test_decreasing_curve_fit_reproduces_or_rejects(qs, hs):
    assert_fit_reproduces_or_rejects(list(zip(sorted(qs), sorted(hs, reverse=True))))


def test_pump_curve_single_point_convention():
    h_s, r, nu = fit_pump_curve([(600.0, 300.0)])
    assert h_s == pytest.approx(400.0)
    assert nu == 2.0
    assert r == pytest.approx(300.0 / (3 * 600.0**2))
    # the fitted curve passes through the design point
    assert h_s - r * 600.0**2 == pytest.approx(300.0)


def test_pump_speed_out_of_range():
    bad = MINIMAL.replace("HEAD C1", "HEAD C1 SPEED 1.2")
    with pytest.raises(ParameterOutOfRange):
        parse_inp(bad)


def test_pump_exponent_out_of_range():
    h_s, r, nu = 200.0, 1e-8, 3.4
    rows = "\n".join(f"C1  {q}  {h_s - r * q**nu}" for q in (0.0, 400.0, 900.0))
    bad = MINIMAL[: MINIMAL.index("[CURVES]")] + "[CURVES]\n" + rows + "\n"
    with pytest.raises(ParameterOutOfRange):
        parse_inp(bad)


def test_pump_without_curve_is_malformed():
    bad = MINIMAL.replace("HEAD C1", "POWER 50")
    with pytest.raises(MalformedSection):
        parse_inp(bad)


def test_non_numeric_field_is_malformed():
    bad = MINIMAL.replace("J1  100  50", "J1  abc  50")
    with pytest.raises(MalformedSection):
        parse_inp(bad)


def test_gpv_valves_parse_and_other_types_rejected():
    text = MINIMAL + "\n[VALVES]\nV1  J1  T1  12  GPV  0.004  0.5\n"
    desc = parse_inp(text)
    assert len(desc.valves) == 1
    assert desc.valves[0].resistance == 0.004
    assert desc.valves[0].openness == 0.5
    with pytest.raises(MalformedSection):
        parse_inp(MINIMAL + "\n[VALVES]\nV1  J1  T1  12  PRV  20\n")


def test_valve_openness_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        parse_inp(MINIMAL + "\n[VALVES]\nV1  J1  T1  12  GPV  0.004  1.5\n")


def test_closed_pipe_status_rejected():
    bad = MINIMAL.replace("P1  J1  T1  1000  12  100",
                          "P1  J1  T1  1000  12  100  0  Closed")
    with pytest.raises(MalformedSection):
        parse_inp(bad)


def test_negative_pipe_parameter_violates_assumptions():
    bad = MINIMAL.replace("P1  J1  T1  1000  12  100", "P1  J1  T1  1000  12  -5")
    with pytest.raises(ParameterOutOfRange):
        parse_inp(bad)


def test_warnings_do_not_affect_equality():
    desc = parse_inp(MINIMAL)
    noisy = parse_inp(MINIMAL + "\n[PATTERNS]\nx 1\n")
    assert noisy == desc
    assert noisy.warnings != desc.warnings


@pytest.mark.parametrize("model", ["H-W", "D-W", "C-M"])
def test_pipe_resistance_past_the_float_range_is_out_of_range(model):
    # d**-4.871 (or -5, -5.33) overflows at d = 1e-70
    bad = MINIMAL.replace("P1  J1  T1  1000  12  100", "P1  J1  T1  1000  1e-70  100")
    with pytest.raises(ParameterOutOfRange) as err:
        parse_inp(bad + f"\n[OPTIONS]\nHEADLOSS  {model}\n")
    assert str(err.value) == "pipe 'P1': resistance is not finite"


@pytest.mark.parametrize("kind", ["pipes", "valves"])
def test_built_description_with_infinite_resistance_is_rejected(kind):
    desc = parse_inp(MINIMAL + "\n[VALVES]\nV1  J1  T1  12  GPV  0.004\n")
    link = dataclasses.replace(getattr(desc, kind)[0], resistance=math.inf)
    with pytest.raises(ParameterOutOfRange) as err:
        dataclasses.replace(desc, **{kind: [link]})
    assert str(err.value) == f"{kind[:-1]} {link.id!r}: resistance is not finite"


def test_description_is_checked_once_where_it_is_made(monkeypatch):
    checked = []
    check = inp._validate

    def spy(desc):
        checked.append(desc)
        check(desc)

    monkeypatch.setattr(inp, "_validate", spy)
    desc = parse_inp(MINIMAL)
    assert len(checked) == 1 and checked[0] is desc
    net = build_network(desc)
    assert len(checked) == 1
    dataclasses.replace(net.desc, headloss_exponent=2.0)
    assert len(checked) == 2


def test_description_is_frozen_with_tuple_rows():
    desc = parse_inp(MINIMAL + "\n[PATTERNS]\n1 1.0\n")
    fields = ("junctions", "reservoirs", "tanks", "pipes", "pumps", "valves", "warnings")
    for name in fields:
        assert type(getattr(desc, name)) is tuple, name
    assert desc.warnings == ("skipped unsupported section [PATTERNS]",)
    for name in ("headloss_exponent", *fields):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(desc, name, getattr(desc, name))
    net = build_network(desc)
    with pytest.raises(TypeError):
        net.desc.pumps[0] = dataclasses.replace(desc.pumps[0], curve_exponent=9.0, speed=7.0)
    assert net.desc.pumps == desc.pumps


def test_curve_fit_arithmetic_error_is_malformed():
    # the one-point convention divides by q_d**2, which underflows to 0 here
    bad = MINIMAL[: MINIMAL.index("[CURVES]")] + "[CURVES]\nC1  1e-320  100\n"
    with pytest.raises(MalformedSection) as err:
        parse_inp(bad)
    assert str(err.value) == ("PUMPS line 15: float division by zero: "
                              "'PU1 R1 J1 HEAD C1'")
