"""Tests for the exact cylinder calculus: radius exponents, ball windows,
membership equivalence, and the ball-matching constructions."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmetrics import (
    CylinderIndex,
    MetricParams,
    RadiusLadder,
    agrees_on,
    alpha_ball_to_cylinder,
    alpha_match,
    alpha_sandwich_windows,
    alpha_window,
    ball_to_cylinder,
    ball_window,
    bowen_ball_to_cylinder,
    bowen_window,
    in_alpha_ball,
    in_ball,
    in_bowen_ball,
    in_neutralized_ball,
    make_space,
    neutralized_ball_to_cylinder,
    neutralized_match,
    neutralized_sandwich_windows,
    neutralized_window,
    open_ball_as_bowen,
    p_of_log_r,
    p_of_r,
    point_from_window,
    q_of_r,
    sample_point,
)
from shiftmetrics.errors import (
    AlphaTooLarge,
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    NoIntegerSolution,
    RadiiOutOfOrder,
    RadiusOutOfRange,
)

FULL2 = make_space(2)
P13 = MetricParams(a=1.3, b=1.3)
ONE13 = MetricParams(a=1.3, b=1.3, mode="one-sided")


class TestRadiusExponents:
    def test_frozen_example(self):
        assert p_of_r(0.1, 1.3) == 9  # 1.3^-9 ~ 0.0943 < 0.1 <= 1.3^-8 ~ 0.1226

    def test_boundary_power_is_strict_below(self):
        b = Fraction(13, 10)
        assert p_of_r(b**-5, b) == 6

    def test_boundary_power_float(self):
        # float path lands on the same side for an exactly representable case
        assert p_of_r(2.0**-7, 2.0) == 8

    def test_near_one(self):
        assert p_of_r(0.9999, 2.0) == 1
        # an exact radius whose float rounds to 1.0
        assert p_of_r(Fraction(10**20 - 1, 10**20), Fraction(2)) == 1

    def test_brackets_hold_on_a_sweep(self):
        for j in range(1, 60):
            r = 0.83**j
            for base in (1.3, 1.7, 2.0):
                p = p_of_r(r, base)
                assert base**-p < r <= base ** -(p - 1)

    def test_log_variant_agrees(self):
        for j in range(1, 50):
            r = 0.61**j
            assert p_of_log_r(math.log(r), 1.3) == p_of_r(r, 1.3)

    def test_log_variant_tiny_radius(self):
        # ln r = -800: far below float underflow
        p = p_of_log_r(-800.0, 1.3)
        assert -p * math.log(1.3) < -800.0 <= -(p - 1) * math.log(1.3)

    def test_q_is_p_with_other_base(self):
        assert q_of_r(0.1, 1.3) == p_of_r(0.1, 1.3)
        assert q_of_r(2.0**-40, 1.3) == 106

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.0, 1.5, math.nan])
    def test_radius_out_of_range(self, r):
        with pytest.raises(RadiusOutOfRange, match="radius must be finite and in"):
            p_of_r(r, 1.3)

    def test_bad_base(self):
        with pytest.raises(RadiusOutOfRange):
            p_of_r(0.5, 1.0)

    @pytest.mark.parametrize(
        "log_r,b,match",
        [
            (math.nan, 1.3, "ln\\(r\\) must be finite and negative"),
            (-math.inf, 1.3, "ln\\(r\\) must be finite and negative"),
            (-1.0, math.nan, "base must be finite and > 1"),
            (-1.0, math.inf, "base must be finite and > 1"),
        ],
    )
    def test_non_finite_log_radius_or_base(self, log_r, b, match):
        with pytest.raises(RadiusOutOfRange, match=match):
            p_of_log_r(log_r, b)

    @pytest.mark.parametrize("bracket", [p_of_r, q_of_r])
    def test_exact_radius_that_underflows(self, bracket):
        with pytest.raises(RadiusOutOfRange, match="underflows"):
            bracket(Fraction(1, 10**400), 2)

    def test_exact_subnormal_radius(self):
        r = Fraction(1, 10**320)
        p = p_of_r(r, Fraction(2))
        assert Fraction(2) ** -p < r <= Fraction(2) ** -(p - 1)


class TestWindows:
    def test_ball_window_frozen(self):
        w = ball_window(0.1, P13)
        assert (w.lo, w.hi) == (-8, 8)
        assert w.length == 17

    def test_ball_window_near_one(self):
        w = ball_window(0.99, MetricParams(a=2.0, b=2.0))
        assert (w.lo, w.hi) == (0, 0)

    def test_one_sided_ball_window(self):
        w = ball_window(0.1, ONE13)
        assert (w.lo, w.hi) == (0, 8)

    def test_bowen_window_frozen(self):
        w = bowen_window(10, 10, 0.1, P13)
        assert (w.lo, w.hi) == (-18, 18)

    def test_bowen_degenerate_is_ball(self):
        assert bowen_window(0, 0, 0.37, P13) == ball_window(0.37, P13)

    def test_neutralized_window_frozen(self):
        # depths 10/10, rate 0.05: radius e^-1, p(e^-1) = 4
        w = neutralized_window(10, 10, 0.05, P13)
        assert (w.lo, w.hi) == (-13, 13)

    def test_neutralized_zero_depth_rejected(self):
        with pytest.raises(RadiusOutOfRange):
            neutralized_window(0, 0, 0.05, P13)

    def test_alpha_window_frozen(self):
        w = alpha_window(10, 10, 0.1, 0.5, P13)
        assert (w.lo, w.hi) == (-16, 16)

    def test_alpha_zero_equals_bowen(self):
        for r in (0.7, 0.31, 2.0**-9):
            assert alpha_window(7, 4, 0.0, r, P13) == bowen_window(7, 4, r, P13)

    def test_alpha_window_display_form_in_regime(self):
        # closed form [-n - floor((n a + L)/ln a), m + floor((m a + L)/ln b)]
        n, m, alpha, r = 13, 9, 0.21, 0.15
        L = math.log(1.0 / r)
        w = alpha_window(n, m, alpha, r, P13)
        assert w.hi == m + math.floor((m * alpha + L) / math.log(1.3))
        assert w.lo == -n - math.floor((n * alpha + L) / math.log(1.3))

    def test_alpha_window_beyond_regime_uses_union(self):
        # alpha > ln a: interior forward shifts reach further backward than
        # the -n endpoint, so the union is wider than the display form
        p = MetricParams(a=1.2, b=1.9)
        n, m, alpha, r = 1, 25, 0.35, 0.5
        w = alpha_window(n, m, alpha, r, p)
        display_lo = -n - math.floor((n * alpha + math.log(1 / r)) / math.log(1.2))
        assert w.lo == -26 < -6 == display_lo

    def test_nesting_in_r(self):
        lad = RadiusLadder.geometric(1, 30)
        windows = [ball_window(r, P13) for r in lad]
        for wide, narrow in zip(windows[1:], windows[:-1]):
            assert wide.contains(narrow)

    def test_growth_ratio_limit(self):
        r = 2.0**-40
        w = ball_window(r, P13)
        ratio = (w.length + 1) / math.log(1.0 / r)  # p + q = length + 1
        assert ratio == pytest.approx(P13.k(), rel=0.01)

    def test_cylinder_index_validation(self):
        with pytest.raises(HypothesisViolated):
            CylinderIndex(3, 2)


class TestRadiusLadder:
    def test_geometric_default(self):
        lad = RadiusLadder.geometric(8, 40)
        assert len(lad) == 33
        assert lad.r_values[0] == 2.0**-8
        assert lad.r_values[-1] == 2.0**-40

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta(self, theta):
        with pytest.raises(HypothesisViolated, match=f"theta must be finite, got {theta}"):
            RadiusLadder.geometric(1, 5, theta=theta)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(HypothesisViolated, match=r"theta must lie in \(0, 1\)"):
            RadiusLadder.geometric(1, 5, theta=theta)

    @pytest.mark.parametrize("values", [
        (), (0.5, 0.5), (0.25, 0.5), (1.0, 0.5), (0.5, 0.0),
    ])
    def test_validation(self, values):
        with pytest.raises(HypothesisViolated):
            RadiusLadder(values)


class TestToCylinder:
    def test_horizon_guard(self):
        x = sample_point(FULL2, 5, seed=0)
        with pytest.raises(HorizonExceeded):
            ball_to_cylinder(x, 0.1, P13)  # needs [-8, 8]

    def test_all_variants_attach(self):
        x = sample_point(FULL2, 40, seed=0)
        assert ball_to_cylinder(x, 0.1, P13) == ball_window(0.1, P13)
        assert bowen_ball_to_cylinder(x, 3, 4, 0.1, P13) == bowen_window(3, 4, 0.1, P13)
        assert neutralized_ball_to_cylinder(x, 10, 10, 0.05, P13) == neutralized_window(10, 10, 0.05, P13)
        assert alpha_ball_to_cylinder(x, 5, 5, 0.1, 0.5, P13) == alpha_window(5, 5, 0.1, 0.5, P13)


def flip_outside(x, window, horizon):
    """Copy of x's window agreeing on [lo, hi], flipped just outside both ends."""
    sym = x.window(-horizon, horizon).copy()
    if window.hi + 1 <= horizon:
        sym[horizon + window.hi + 1] ^= 1
    if window.lo - 1 >= -horizon:
        sym[horizon + window.lo - 1] ^= 1
    return point_from_window(FULL2, sym)


def flip_inside(x, window, horizon, at):
    sym = x.window(-horizon, horizon).copy()
    sym[horizon + at] ^= 1
    return point_from_window(FULL2, sym)


class TestMembershipEquivalence:
    """The defining property: y is in the ball iff y agrees with x on the
    computed window.  Checked with engineered boundary points and random
    pairs, zero tolerance."""

    HORIZON = 80

    def _roundtrip(self, window, member):
        x = sample_point(FULL2, self.HORIZON, seed=101)
        y_in = flip_outside(x, window, self.HORIZON)
        assert agrees_on(x, y_in, window) and member(x, y_in)
        y_hi = flip_inside(x, window, self.HORIZON, window.hi)
        assert not agrees_on(x, y_hi, window) and not member(x, y_hi)
        y_lo = flip_inside(x, window, self.HORIZON, window.lo)
        assert not agrees_on(x, y_lo, window) and not member(x, y_lo)
        for seed in range(300, 340):
            y = sample_point(FULL2, self.HORIZON, seed=seed)
            assert agrees_on(x, y, window) == member(x, y)

    def test_ball(self):
        r = 0.1
        self._roundtrip(
            ball_window(r, P13), lambda x, y: in_ball(x, y, r, P13)
        )

    def test_bowen(self):
        n, m, r = 6, 3, 0.17
        self._roundtrip(
            bowen_window(n, m, r, P13),
            lambda x, y: in_bowen_ball(x, y, n, m, r, P13),
        )

    def test_neutralized(self):
        n, m, r = 8, 5, 0.07
        self._roundtrip(
            neutralized_window(n, m, r, P13),
            lambda x, y: in_neutralized_ball(x, y, n, m, r, P13),
        )

    def test_alpha(self):
        n, m, alpha, r = 7, 9, 0.12, 0.3
        self._roundtrip(
            alpha_window(n, m, alpha, r, P13),
            lambda x, y: in_alpha_ball(x, y, n, m, alpha, r, P13),
        )

    def test_alpha_beyond_display_regime(self):
        p = MetricParams(a=1.2, b=1.9)
        n, m, alpha, r = 1, 25, 0.35, 0.5
        self._roundtrip(
            alpha_window(n, m, alpha, r, p),
            lambda x, y: in_alpha_ball(x, y, n, m, alpha, r, p),
        )

    def test_one_sided_ball(self):
        r = 0.1
        self._roundtrip(
            ball_window(r, ONE13), lambda x, y: in_ball(x, y, r, ONE13)
        )

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
           st.sampled_from([0.1, 0.25, 0.04, 0.55]))
    @settings(max_examples=40, deadline=None)
    def test_randomized_ball_equivalence(self, s1, s2, r):
        x = sample_point(FULL2, 60, seed=s1)
        y = sample_point(FULL2, 60, seed=s2)
        w = ball_window(r, P13)
        assert agrees_on(x, y, w) == in_ball(x, y, r, P13)


#: (base, radius) pairs where ln r sits on or next to a multiple of ln b, so
#: only an exact bracket of r agrees with the distance itself
BOUNDARY_RADII = [(math.sqrt(2.0), 2.0**-27)] + [
    (b, b**-j) for b in (1.25, 1.5, 1.6) for j in range(1, 8)
]


class TestExactRadiusBracket:
    """A given radius is bracketed with p_of_r, as the distance is compared
    with it; only derived radii are bracketed from their logarithms."""

    @pytest.mark.parametrize("b, r", BOUNDARY_RADII)
    def test_ball_window_is_the_ball(self, b, r):
        params = MetricParams(a=b, b=b)
        window = ball_window(r, params)
        assert window.length == p_of_r(r, b) + q_of_r(r, b) - 1
        horizon = window.hi + 10
        x = sample_point(FULL2, horizon, seed=7)
        for t in range(-horizon, horizon + 1):
            y = flip_inside(x, window, horizon, t)
            assert agrees_on(x, y, window) == in_ball(x, y, r, params), t

    @pytest.mark.parametrize("b, r", BOUNDARY_RADII)
    def test_undiscounted_alpha_window_is_the_bowen_window(self, b, r):
        params = MetricParams(a=b, b=b)
        for n, m in [(0, 0), (0, 3), (2, 5), (6, 1)]:
            assert alpha_window(n, m, 0.0, r, params) == bowen_window(n, m, r, params)


class TestOpenBallAsBowen:
    def test_equal_radii(self):
        match = open_ball_as_bowen(0.3, 0.3, P13)
        assert (match.n, match.m) == (0, 0)

    def test_frozen_small_case(self):
        match = open_ball_as_bowen(0.5, 0.9, P13)
        assert match.m == 2  # p(0.5) = 3, p(0.9) = 1
        assert match.n == 2

    def test_out_of_order(self):
        with pytest.raises(RadiiOutOfOrder):
            open_ball_as_bowen(0.9, 0.5, P13)

    def test_ratio_limit(self):
        match = open_ball_as_bowen(2.0**-30, 0.9, P13)
        assert match.ratio == pytest.approx(P13.k(), rel=0.01)

    def test_window_identity(self):
        # the open ball window equals the Bowen window at (n, m, r1)
        r, r1 = 2.0**-12, 0.9
        match = open_ball_as_bowen(r, r1, P13)
        assert bowen_window(match.n, match.m, r1, P13) == ball_window(r, P13)

    def test_one_sided(self):
        match = open_ball_as_bowen(0.5, 0.9, ONE13)
        assert (match.n, match.m) == (0, 2)


class TestNeutralizedMatch:
    def test_frozen_instance(self):
        match = neutralized_match(2.0**-40, 0.05, P13)
        assert match.h == 152
        assert (match.m2, match.n2, match.j) == (77, 75, 2)
        assert match.m2 + match.n2 == match.h
        assert match.ambiguous_j  # h = 153, 154 give j = -1, -2

    def test_ratio_limit(self):
        match = neutralized_match(2.0**-40, 0.05, P13)
        k = P13.k()
        assert match.ratio == pytest.approx(k / (1 + 0.05 * k), rel=0.02)

    def test_rate_constraint(self):
        # 3/k ~ 0.3935 for a = b = 1.3
        with pytest.raises(ConstraintViolated):
            neutralized_match(2.0**-40, 0.5, P13)

    def test_radius_constraint(self):
        with pytest.raises(ConstraintViolated):
            neutralized_match(0.95, 0.05, P13)

    def test_sandwich_windows_frozen(self):
        match = neutralized_match(2.0**-40, 0.05, P13)
        inner, mid, outer = neutralized_sandwich_windows(match, 2.0**-40, 0.05, P13)
        assert inner.contains(mid) and mid.contains(outer)
        assert (mid.lo, mid.hi) == (-105, 105)

    def test_sandwich_membership(self):
        r, r2 = 2.0**-6, 0.05
        match = neutralized_match(r, r2, P13)
        inner, _, outer = neutralized_sandwich_windows(match, r, r2, P13)
        horizon = max(-inner.lo, inner.hi) + 2
        x = sample_point(FULL2, horizon, seed=9)
        hits = 0
        for seed in range(200):
            sym = x.window(-horizon, horizon).copy()
            cut = int(np.random.default_rng(seed).integers(0, 2 * horizon))
            sym[cut:] ^= 1  # agree with x up to an arbitrary cut, then differ
            y = point_from_window(FULL2, sym)
            in_inner = in_neutralized_ball(x, y, match.n2 + 2, match.m2, r2, P13)
            in_mid = in_ball(x, y, r, P13)
            in_outer = in_neutralized_ball(x, y, match.n2 - 2, match.m2, r2, P13)
            assert (not in_inner or in_mid) and (not in_mid or in_outer)
            hits += in_outer
        assert hits > 0  # the sample actually exercises the inclusions


class TestAlphaMatch:
    def test_frozen_instance(self):
        match = alpha_match(2.0**-40, 0.9, 0.1, P13)
        assert (match.m3, match.n3) == (76, 76)
        assert (match.j1, match.j2) == (0, 0)

    def test_ratio_limit(self):
        match = alpha_match(2.0**-40, 0.9, 0.1, P13)
        assert match.ratio == pytest.approx(P13.k_alpha(0.1), rel=0.01)

    def test_alpha_regime_gate(self):
        with pytest.raises(AlphaTooLarge):
            alpha_match(2.0**-40, 0.9, 0.3, P13)  # ln 1.3 ~ 0.2624
        with pytest.raises(AlphaTooLarge):
            alpha_match(2.0**-40, 0.9, -0.1, P13)
        with pytest.raises(AlphaTooLarge, match="alpha must be finite and in"):
            alpha_match(2.0**-40, 0.9, math.nan, P13)

    def test_radii_order(self):
        with pytest.raises(RadiiOutOfOrder):
            alpha_match(0.9, 0.5, 0.1, P13)

    def test_one_sided(self):
        match = alpha_match(2.0**-40, 0.9, 0.1, ONE13)
        assert match.n3 == 0 and match.m3 > 0
        assert match.ratio == pytest.approx(ONE13.k_alpha(0.1), rel=0.01)

    def test_sandwich_windows(self):
        r, r3, alpha = 2.0**-40, 0.9, 0.1
        match = alpha_match(r, r3, alpha, P13)
        inner, mid, outer = alpha_sandwich_windows(match, r, r3, alpha, P13)
        assert inner.contains(mid) and mid.contains(outer)

    def test_sandwich_membership(self):
        r, r3, alpha = 2.0**-7, 0.9, 0.1
        match = alpha_match(r, r3, alpha, P13)
        inner, _, _ = alpha_sandwich_windows(match, r, r3, alpha, P13)
        horizon = max(-inner.lo, inner.hi) + 2
        x = sample_point(FULL2, horizon, seed=21)
        for seed in range(150):
            sym = x.window(-horizon, horizon).copy()
            cut = int(np.random.default_rng(seed).integers(0, 2 * horizon))
            sym[cut:] ^= 1
            y = point_from_window(FULL2, sym)
            in_inner = in_alpha_ball(x, y, match.n3 + 1, match.m3 + 1, alpha, r3, P13)
            in_mid = in_ball(x, y, r, P13)
            in_outer = in_alpha_ball(x, y, match.n3 - 1, match.m3 - 1, alpha, r3, P13)
            assert (not in_inner or in_mid) and (not in_mid or in_outer)

    def test_ratio_beats_classical_at_positive_alpha(self):
        # positive alpha strictly shrinks the depth budget per unit of ln(1/r)
        m_classical = open_ball_as_bowen(2.0**-40, 0.9, P13)
        m_alpha = alpha_match(2.0**-40, 0.9, 0.1, P13)
        assert m_alpha.ratio < m_classical.ratio
