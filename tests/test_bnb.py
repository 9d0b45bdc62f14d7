from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdn_lipschitz import (
    build_network,
    interval_bracket,
    jacobian_diag_batch,
    k_network,
    k_upper_max,
    k_upper_sqrt,
)
from wdn_lipschitz.analytical import (
    Bracket,
    corner,
    sqrt_down,
    sqrt_up,
)
from wdn_lipschitz.bounds import FlowBox
from wdn_lipschitz.errors import BoundsError
from wdn_lipschitz.inp import JunctionDesc, NetworkDescription, PipeDesc, PumpDesc, ValveDesc

from conftest import (
    FIXTURE_NAMES,
    corner_magnitudes,
    make_box,
    make_random_network,
    make_single_pipe,
    reference_link_derivative,
    ulp_down,
    ulp_up,
)

# frozen oracle for the pump entry bound on [100, 922.5]
PUMP_JAC_HI_AT_9225 = 0.50253240652737913   # 2.59 * 3.746e-6 * 922.5**1.59

# interval uppers (max mode, sqrt mode) on the shipped fixtures, frozen from
# the best-first branch-and-bound that the corner certificate replaced
FIXTURE_UPPERS = {
    "three_node": (float.fromhex("0x1.014bed766e387p-1"), float.fromhex("0x1.014e5eeb142abp-1")),
    "eight_node": (float.fromhex("0x1.42c6e4296550bp-3"), float.fromhex("0x1.4763f46b45e42p-3")),
    "anytown": (float.fromhex("0x1.a26c8a4afc8b9p-3"), float.fromhex("0x1.bb56418466e3ap-3")),
    "net2": (float.fromhex("0x1.338770ca50c7ep-6"), float.fromhex("0x1.c51a62d0980a4p-6")),
    "net3": (float.fromhex("0x1.a2eaf872d6802p-2"), float.fromhex("0x1.f985f450dffe4p-2")),
    "obcl": (float.fromhex("0x1.a10bf25e86cfep-2"), float.fromhex("0x1.d2359989eeacap-2")),
}


def single_pipe(resistance: float, mu: float, lo: float, hi: float):
    net = build_network(make_single_pipe(resistance, mu))
    return net, make_box(net, {"P1": (lo, hi)})


# exponents at and next to the ends of the admissible range [1, 3]
EDGE_EXPONENTS = (1.0, math.nextafter(1.0, 2.0), 1.852, 2.0, math.nextafter(3.0, 0.0), 3.0)


def is_normal(x) -> bool:
    return sys.float_info.min <= x <= sys.float_info.max


class TestDirectedRounding:
    """The outward rounding that the corner certificate performs."""

    def test_ulp_steps_move(self):
        assert ulp_up(1.0) > 1.0
        assert ulp_down(1.0) < 1.0
        assert ulp_up(0.0) > 0.0
        assert ulp_down(ulp_up(1.0)) == 1.0
        # the corner record steps whole arrays with numpy's nextafter, which
        # must be math.nextafter value for value, past the float range too
        xs = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, sys.float_info.max]
        with np.errstate(over="ignore"):
            assert np.nextafter(xs, np.inf).tolist() == [ulp_up(x) for x in xs]
        assert np.nextafter(xs, -np.inf).tolist() == [ulp_down(x) for x in xs]

    def test_sqrt_exact_on_squares(self):
        for x, root in ((9.0, 3.0), (16.0, 4.0)):
            assert sqrt_down(x) == root == sqrt_up(x)

    def test_sqrt_brackets_irrational(self):
        assert Fraction(sqrt_down(2.0)) ** 2 <= 2 <= Fraction(sqrt_up(2.0)) ** 2
        assert sqrt_down(2.0) < sqrt_up(2.0)

    @given(st.floats(min_value=0.0, max_value=1e150))
    def test_square_brackets_exact_product(self, x):
        # the sqrt-mode square of each enclosure
        exact = Fraction(x) ** 2
        assert Fraction(ulp_down(x * x)) <= exact <= Fraction(ulp_up(x * x))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=40))
    def test_fsum_brackets_exact_sum(self, xs):
        # fsum is correctly rounded, so one nudge each way certifies the sum
        total = math.fsum(xs)
        exact = sum(Fraction(x) for x in xs)
        assert Fraction(ulp_down(total)) <= exact <= Fraction(ulp_up(total))

    def test_fsum_of_tenths_brackets_exact(self):
        total = math.fsum([0.1] * 10)
        exact = Fraction(0.1) * 10
        assert Fraction(ulp_down(total)) <= exact <= Fraction(ulp_up(total))
        assert ulp_up(total) - ulp_down(total) <= 4 * math.ulp(1.0)

    def test_corner_enclosure_on_negative_box(self):
        # |df/dq| = 1.852 |q|**0.852 peaks at the corner q = -2
        net, box = single_pipe(1.0, 1.852, -2.0, -1.0)
        [lo], [hi] = corner(net, box).enclosures()
        with mpmath.workprec(200):
            exact = mpmath.mpf(1.852) * mpmath.mpf(2) ** (mpmath.mpf(1.852) - 1)
            assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)
            assert hi == pytest.approx(float(exact), rel=1e-14)

    @settings(max_examples=400, deadline=None)
    @given(mu=st.sampled_from(EDGE_EXPONENTS), nu=st.sampled_from(EDGE_EXPONENTS),
           coeff=st.floats(min_value=1e-12, max_value=1e3),
           speed=st.floats(min_value=1e-8, max_value=1.0),
           openness=st.floats(min_value=1e-8, max_value=1.0),
           q_pipe=st.floats(min_value=1e-30, max_value=1e30),
           q_pump=st.floats(min_value=1e-30, max_value=1e30),
           q_valve=st.floats(min_value=1e-30, max_value=1e30))
    def test_corner_enclosures_contain_exact_derivative(self, mu, nu, coeff, speed, openness,
                                                        q_pipe, q_pump, q_valve):
        desc = NetworkDescription(
            headloss_exponent=mu,
            junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
            reservoirs=[], tanks=[],
            pipes=[PipeDesc("P1", "J1", "J2", coeff)],
            pumps=[PumpDesc("M1", "J1", "J2", 100.0, coeff, nu, speed)],
            valves=[ValveDesc("V1", "J2", "J1", coeff, openness)],
        )
        net = build_network(desc)
        box = make_box(net, {"P1": (-q_pipe, q_pipe / 2), "M1": (q_pump, q_pump),
                             "V1": (-q_valve / 2, q_valve)})
        lowers, uppers = corner(net, box).enclosures()
        with mpmath.workprec(200):
            mu_, nu_, r = mpmath.mpf(mu), mpmath.mpf(nu), mpmath.mpf(coeff)
            exact = (
                mu_ * r * mpmath.mpf(q_pipe) ** (mu_ - 1),
                nu_ * r * mpmath.mpf(q_pump) ** (nu_ - 1) * mpmath.mpf(speed) ** (2 - nu_),
                mu_ * mpmath.mpf(openness) * r * mpmath.mpf(q_valve) ** (mu_ - 1),
            )
            for lo, hi, value in zip(lowers, uppers, exact):
                assume(is_normal(lo) and is_normal(hi) and is_normal(float(value)))
                assert mpmath.mpf(lo) <= value <= mpmath.mpf(hi)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_numpy_jacobian_at_corner_within_enclosures(self, seed):
        # point_sqrt <= interval_sqrt also rests on numpy's pow: at the box
        # corner each jacobian_diag_batch entry (pumps with speed != 1
        # included) lies in its libm enclosure and within 4 ulps of the
        # 200-bit value
        net, box = make_random_network(np.random.default_rng(seed))
        at = np.where(np.abs(box.lo) > np.abs(box.hi), box.lo, box.hi)
        entries = jacobian_diag_batch(net, at[None, :])[0].tolist()
        lowers, uppers = corner(net, box).enclosures()
        with mpmath.workprec(200):
            mu, desc, n_p, n_m = mpmath.mpf(net.mu), net.desc, net.n_pipes, net.n_pumps
            for pos, (entry, lo, hi) in enumerate(zip(entries, lowers, uppers)):
                assert lo <= entry <= hi
                q = abs(mpmath.mpf(at[pos]))
                if pos < n_p:
                    exact = mu * mpmath.mpf(desc.pipes[pos].resistance) * q ** (mu - 1)
                elif pos < n_p + n_m:
                    m = desc.pumps[pos - n_p]
                    nu = mpmath.mpf(m.curve_exponent)
                    exact = (nu * mpmath.mpf(m.curve_coeff) * q ** (nu - 1)
                             * mpmath.mpf(m.speed) ** (2 - nu))
                else:
                    v = desc.valves[pos - n_p - n_m]
                    exact = (mu * mpmath.mpf(v.openness) * mpmath.mpf(v.resistance)
                             * q ** (mu - 1))
                assert mpmath.mpf(ulp_down(entry, 4)) <= exact <= mpmath.mpf(ulp_up(entry, 4))

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(min_value=5e-324, allow_infinity=False),
           y=st.one_of(st.floats(min_value=0.0, max_value=2.0),
                       st.floats(min_value=-1.0, max_value=1.0)))
    def test_libm_pow_within_one_ulp(self, x, y):
        # the certificate's other premise: libm's pow, which the corner pass
        # calls, is within 1 ulp of the exact power.  y in [0, 2] covers the
        # derivative exponents mu - 1 and nu - 1, y in [-1, 1] the pump post
        # exponent 2 - nu; x is any positive float with a normal result
        with mpmath.workprec(200):
            exact = mpmath.power(mpmath.mpf(x), mpmath.mpf(y))
            assume(is_normal(exact))
            value = math.pow(x, y)
            assert abs(mpmath.mpf(value) - exact) <= math.ulp(value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_subbox_uppers_nest(self, seed):
        rng = np.random.default_rng(seed)
        net, outer = make_random_network(rng)
        ends = outer.lo + rng.uniform(0, 1, (2, net.n_links)) * (outer.hi - outer.lo)
        inner = FlowBox(outer.link_ids, outer.kinds,
                        np.clip(ends.min(axis=0), outer.lo, outer.hi),
                        np.clip(ends.max(axis=0), outer.lo, outer.hi))
        _, outer_uppers = corner(net, outer).enclosures()
        _, inner_uppers = corner(net, inner).enclosures()
        assert all(a <= b for a, b in zip(inner_uppers, outer_uppers))


class TestIntervalBracket:
    """Brackets on one-link networks with hand-known maxima."""

    def test_one_dimensional_known_maximum(self):
        # |df/dq| = 2|q| on [0, 1]
        net, box = single_pipe(1.0, 2.0, 0.0, 1.0)
        res = interval_bracket(net, box, "max")
        assert 2.0 <= res.upper <= 2.0 + 1e-6
        assert res.lower <= 2.0
        assert res.gap <= 1e-6

    def test_constant_objective_converges_immediately(self):
        # a linear head loss has the constant derivative R
        net, box = single_pipe(4.25, 1.0, -1.0, 2.0)
        res = interval_bracket(net, box, "max")
        assert res.lower <= 4.25 <= res.upper
        assert res.gap <= 8 * math.ulp(4.25)
        assert res.gap <= 1e-9
        assert k_upper_max(net, box, 1e-9).effort == 1

    def test_degenerate_box(self):
        net, box = single_pipe(1.0, 2.0, 0.5, 0.5)
        for mode in ("max", "sqrt"):
            res = interval_bracket(net, box, mode)
            assert res.lower <= 1.0 <= res.upper, mode
            assert res.gap <= 1e-9, mode

    def test_invalid_arguments(self, three_node):
        _, net, box = three_node
        with pytest.raises(ValueError):
            interval_bracket(net, box, "spectral")
        for fn in (k_upper_max, k_upper_sqrt):
            with pytest.raises(ValueError):
                fn(net, box, 0.0)
            with pytest.raises(ValueError):
                fn(net, box, -1e-3)
            with pytest.raises(ValueError):
                fn(net, box, 1e-3, max_boxes=0)


class TestCornerEnclosures:
    def test_monotone_pipe_entry(self):
        net, box = single_pipe(1.0, 2.0, 1.0, 2.0)
        [lo], [hi] = corner(net, box).enclosures()
        assert lo <= 4.0 <= hi
        assert lo == pytest.approx(4.0, rel=1e-13)
        assert hi == pytest.approx(4.0, rel=1e-13)

    def test_zero_crossing_pipe_entry(self):
        # the corner is the endpoint of larger magnitude, not the upper end
        net, box = single_pipe(1.0, 2.0, -3.0, 2.0)
        [lo], [hi] = corner(net, box).enclosures()
        assert lo <= 6.0 <= hi
        assert hi == pytest.approx(6.0, rel=1e-13)

    def test_pump_entry_bounds_oracle(self, three_node):
        _, net, _ = three_node
        box = make_box(net, {"P1": (0.0, 0.0), "PU1": (100.0, 922.5)})
        lo, hi = corner(net, box).enclosures()
        assert hi[1] == pytest.approx(PUMP_JAC_HI_AT_9225, rel=1e-12)
        assert lo[1] <= PUMP_JAC_HI_AT_9225 <= hi[1]

    def test_pointwise_values_inside_bounds(self, valve_net):
        _, net, box = valve_net
        rng = np.random.default_rng(67)
        qs = box.lo + rng.uniform(0, 1, (10_000, net.n_links)) * (box.hi - box.lo)
        gs = np.abs(jacobian_diag_batch(net, np.clip(qs, box.lo, box.hi)))
        _, uppers = corner(net, box).enclosures()
        assert np.all(gs <= np.array(uppers))


class TestUpperEstimates:
    def test_certification_on_all_fixtures(self, fixtures):
        for name in FIXTURE_NAMES:
            _, net, box = fixtures[name]
            k = k_network(net, box).value
            res = interval_bracket(net, box, "max")
            assert res.lower <= k <= res.upper, name
            # the max bracket is the largest corner value widened by 4 ulps
            assert res.upper == ulp_up(k, 4) and res.lower == ulp_down(k, 4), name
            # Sqrt bracket, first order in u = 2**-53, one ulp step being a
            # factor of at most 1 + 2u: the entries' 4-ulp nudges give
            # upper/lower ratios of 1 + 16u; squaring doubles that, and each
            # rounded and nudged square adds 3u either way (1 + 38u); fsum
            # and its nudge add 3u either way (1 + 44u); the root halves it
            # (1 + 22u), and sqrt_down and sqrt_up add 2u each (1 + 26u).
            # u * upper is below an ulp of upper, so the gap is within 26
            # ulps; one more covers the higher-order terms.  (The fixtures
            # measure 10 to 14.)
            res = interval_bracket(net, box, "sqrt")
            assert res.gap <= 27 * math.ulp(res.upper), name

    def test_uppers_match_frozen_values(self, fixtures):
        for name in FIXTURE_NAMES:
            _, net, box = fixtures[name]
            want_max, want_sqrt = FIXTURE_UPPERS[name]
            assert k_upper_max(net, box, 1e-9).value == want_max, name
            assert k_upper_sqrt(net, box, 1e-9).value == want_sqrt, name

    def test_upper_within_gap_of_analytical(self, fixtures):
        for name in FIXTURE_NAMES:
            _, net, box = fixtures[name]
            k = k_network(net, box).value
            est = k_upper_max(net, box)
            assert est.value == ulp_up(k, 4), name
            assert est.method == "interval_upper"
            assert est.mode == "max"
            assert est.gap is not None
            assert est.effort == 1

    def test_sqrt_dominates_max_everywhere(self, fixtures):
        for name in FIXTURE_NAMES:
            _, net, box = fixtures[name]
            um = k_upper_max(net, box)
            us = k_upper_sqrt(net, box)
            assert us.value >= um.value, name

    def test_obcl_sqrt_meets_tight_gap(self, fixtures):
        _, net, box = fixtures["obcl"]
        res = interval_bracket(net, box, "sqrt")
        assert res.gap <= 1e-9
        assert res.lower <= k_upper_sqrt(net, box, 1e-9).value == res.upper

    def test_single_link_modes_agree(self):
        net = build_network(make_single_pipe(2.0, 1.852))
        box = make_box(net, {"P1": (-10.0, 8.0)})
        k = k_network(net, box).value
        um = k_upper_max(net, box, 1e-9)
        us = k_upper_sqrt(net, box, 1e-9)
        assert um.value == pytest.approx(k, rel=1e-12)
        assert us.value == pytest.approx(k, rel=1e-12)
        assert us.value >= um.value

    def test_three_four_five_frobenius(self):
        desc = NetworkDescription(
            headloss_exponent=2.0,
            junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
            reservoirs=[], tanks=[],
            pipes=[PipeDesc("A", "J1", "J2", 1.5),
                   PipeDesc("B", "J2", "J1", 2.0)],
            pumps=[], valves=[],
        )
        net = build_network(desc)
        box = make_box(net, {"A": (-1.0, 1.0), "B": (0.0, 1.0)})
        # derivative ranges peak at 2*1.5*1 = 3 and 2*2*1 = 4
        us = k_upper_sqrt(net, box, 1e-9)
        um = k_upper_max(net, box, 1e-9)
        assert um.value == pytest.approx(4.0, abs=1e-8)
        assert us.value == pytest.approx(5.0, abs=1e-8)

    def test_three_node_tight_gap(self, three_node):
        _, net, box = three_node
        est = k_upper_max(net, box, 1e-6)
        k = k_network(net, box).value
        assert abs(est.value - k) <= 1e-6
        assert est.value == pytest.approx(0.5023, abs=5e-4)

    def test_three_node_sqrt_matches_reference_value(self, three_node):
        _, net, box = three_node
        est = k_upper_sqrt(net, box, 1e-6)
        assert est.value == pytest.approx(0.5023, abs=5e-4)

    def test_unit_pipe_toy(self):
        net = build_network(make_single_pipe(1.0, 2.0))
        box = make_box(net, {"P1": (-1.0, 1.0)})
        est = k_upper_max(net, box, 1e-6)
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_gap_monotonicity(self, fixtures):
        for name in ("three_node", "eight_node"):
            _, net, box = fixtures[name]
            uppers = []
            for gap in (1e-1, 1e-2, 1e-3, 1e-4):
                est = k_upper_max(net, box, gap)
                uppers.append(est.value)
            assert all(a >= b for a, b in zip(uppers, uppers[1:])), name

    def test_budget_estimate_still_valid(self, fixtures):
        _, net, box = fixtures["anytown"]
        k = k_network(net, box).value
        for fn in (k_upper_max, k_upper_sqrt):
            est = fn(net, box, 1e-9, max_boxes=1)
            assert est.value >= k
            assert est == fn(net, box, 1e-9)

    def test_certification_fuzz_random_networks(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            net, box = make_random_network(rng)
            k = k_network(net, box).value
            res = interval_bracket(net, box, "max")
            assert res.lower <= k <= res.upper

    def test_runs_are_reproducible(self, fixtures):
        _, net, box = fixtures["net3"]
        for mode in ("max", "sqrt"):
            first = interval_bracket(net, box, mode)
            second = interval_bracket(net, box, mode)
            assert first == second


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bracket_properties_on_random_networks(seed):
    rng = np.random.default_rng(seed)
    net, box = make_random_network(rng)
    k = k_network(net, box).value
    brackets = {mode: interval_bracket(net, box, mode) for mode in ("max", "sqrt")}
    for res in brackets.values():
        assert res.lower < res.upper
        assert res.gap / res.upper <= 1e-14
    assert brackets["max"].lower <= k <= brackets["max"].upper
    assert k_upper_sqrt(net, box, 1e-9).value >= k_upper_max(net, box, 1e-9).value

    q = box.lo + rng.uniform(0, 1, (2000, net.n_links)) * (box.hi - box.lo)
    g = np.abs(jacobian_diag_batch(net, np.clip(q, box.lo, box.hi)))
    assert g.max() <= brackets["max"].upper
    assert np.linalg.norm(g, axis=1).max() <= brackets["sqrt"].upper


def reference_enclosures(net, box) -> tuple[list[float], list[float]]:
    """Each corner value, from the per-class reference formula, widened by
    four math.nextafter steps each way."""
    values = [reference_link_derivative(net, pos, m)
              for pos, m in enumerate(corner_magnitudes(box.lo, box.hi))]
    return [max(0.0, ulp_down(v, 4)) for v in values], [ulp_up(v, 4) for v in values]


def reference_bracket(net, box, mode: str) -> Bracket:
    """The corner bracket one link at a time: the reference enclosures, then
    scalar squares and math.fsum.  Corner.bracket does the same in whole
    arrays and must give its bits."""
    lowers, uppers = reference_enclosures(net, box)
    if mode == "max":
        lower, upper = max(lowers, default=0.0), max(uppers, default=0.0)
    else:
        try:
            squares_lo = math.fsum(max(0.0, ulp_down(x * x)) for x in lowers)
            squares_hi = math.fsum(ulp_up(x * x) for x in uppers)
            lower = sqrt_down(max(0.0, ulp_down(squares_lo)))
            upper = sqrt_up(ulp_up(squares_hi)) if squares_hi else 0.0
        except OverflowError:
            upper = math.inf
    if not math.isfinite(upper):
        raise BoundsError(f"{mode}-mode interval enclosure overflows a float: the box is too wide")
    return Bracket(upper=upper, lower=lower)


def two_pipe_case(rng, lo_exp: float, hi_exp: float):
    """Two quadratic pipes (no pumps or valves) whose corner flows are drawn
    log-uniformly between 10**lo_exp and 10**hi_exp."""
    desc = NetworkDescription(
        headloss_exponent=2.0,
        junctions=[JunctionDesc("J1", 0.0), JunctionDesc("J2", 0.0)],
        reservoirs=[], tanks=[],
        pipes=[PipeDesc("A", "J1", "J2", 1.0), PipeDesc("B", "J2", "J1", 1.0)],
        pumps=[], valves=[],
    )
    net = build_network(desc)
    qa, qb = 10.0 ** rng.uniform(lo_exp, hi_exp, 2)
    return net, make_box(net, {"A": (-qa, qa / 2), "B": (0.0, qb)})


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       case=st.sampled_from(("drawn", "zero-width box", "pipes only", "sqrt squares overflow")))
def test_bracket_matches_per_link_reference(seed, case):
    rng = np.random.default_rng(seed)
    if case == "pipes only":
        net, box = two_pipe_case(rng, -3.0, 3.0)
    elif case == "sqrt squares overflow":
        # corner values 2q from 1e154 to 2e154: each finite, while their
        # squares pass the float range singly or only in fsum's sum
        net, box = two_pipe_case(rng, 153.7, 154.0)
    else:
        net, box = make_random_network(rng)
        if case == "zero-width box":
            # at zero flow a corner value can be 0, and its lower is clamped
            at = np.where(rng.uniform(0, 1, net.n_links) < 0.5, box.hi, 0.0)
            pumps = slice(net.n_pipes, net.n_pipes + net.n_pumps)   # pump flows stay > 0
            at[pumps] = box.hi[pumps]
            box = FlowBox(box.link_ids, box.kinds, at, at)
    record = corner(net, box)
    assert not record.values.flags.writeable
    hexes = [[v.hex() for v in bounds] for bounds in reference_enclosures(net, box)]
    assert [[v.hex() for v in bounds.tolist()] for bounds in record.enclosures()] == hexes
    for mode in ("max", "sqrt"):
        try:
            want = reference_bracket(net, box, mode)
        except BoundsError as exc:
            assert (case, mode) == ("sqrt squares overflow", "sqrt")
            with pytest.raises(BoundsError) as got:
                record.bracket(mode)
            assert str(got.value) == str(exc)
            continue
        assert case != "sqrt squares overflow" or mode == "max"
        got = record.bracket(mode)
        assert (got.upper.hex(), got.lower.hex()) == (want.upper.hex(), want.lower.hex()), mode
