"""Tests for the two-parameter distance, chain metrization, and the
contraction-margin metric verifier."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    RhoOracle,
    SampleNotOrbitClosed,
    SampleOracle,
    from_words,
    mather_metric,
    orbit_closed_sample,
)
from shiftmetrics import (
    FiniteSample,
    MatherParams,
    MetricParams,
    check_quasi_metric,
    disagreement_times,
    frink_metrize,
    make_space,
    mather_n0,
    point_from_window,
    rho,
    sample_point,
    shift_point,
    shifted_rho_table,
    shifted_rho_tables,
    verify_hyperbolicity,
)
from shiftmetrics.errors import (
    DifferentSpaces,
    GammaTooLarge,
    HypothesisViolated,
    QuasiMetricViolated,
    SaturatedDistances,
)
from shiftmetrics.metrics import CHAIN_BETA, _d_tilde_from_tables

FULL2 = make_space(2)
GOLDEN = make_space(2, [[1, 1], [1, 0]])
P13 = MetricParams(a=1.3, b=1.3)


def pair_with_disagreements(plus, minus, horizon=20):
    """Two full-shift points whose first disagreements sit at +plus/-minus."""
    xs = np.zeros(2 * horizon + 1, dtype=np.int64)
    ys = xs.copy()
    ys[horizon + plus] = 1
    ys[horizon - minus] = 1
    return point_from_window(FULL2, xs), point_from_window(FULL2, ys)


class TestMetricParams:
    def test_k_two_sided_frozen(self):
        # 1/ln(1.3) + 1/ln(1.3)
        assert P13.k() == pytest.approx(7.622989373416803, abs=1e-9)

    def test_k_one_sided(self):
        p = MetricParams(a=1.3, b=1.3, mode="one-sided")
        assert p.k() == pytest.approx(1.0 / math.log(1.3), abs=1e-12)

    def test_k_alpha_frozen(self):
        assert P13.k_alpha(0.1) == pytest.approx(5.519308044735264, abs=1e-9)

    def test_k_alpha_zero_matches_k(self):
        assert P13.k_alpha(0.0) == pytest.approx(P13.k(), abs=1e-12)

    @pytest.mark.parametrize("kw", [dict(a=1.0, b=1.3), dict(a=1.3, b=0.9),
                                    dict(a=1.3, b=1.3, mode="sideways")])
    def test_validation(self, kw):
        with pytest.raises(HypothesisViolated):
            MetricParams(**kw)

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_bases_must_be_finite(self, field, value):
        kw = {"a": 1.3, "b": 1.3, field: value}
        with pytest.raises(HypothesisViolated, match=f"^{field} must be finite"):
            MetricParams(**kw)

    def test_one_sided_ignores_a(self):
        # a is unused in one-sided mode, so an out-of-range a is fine
        MetricParams(a=0.0, b=1.3, mode="one-sided")
        MetricParams(a=math.inf, b=1.3, mode="one-sided")

    def test_chain_regime_gate(self):
        MetricParams(a=2.0, b=2.0).require_chain_regime()  # closed endpoint
        with pytest.raises(HypothesisViolated):
            MetricParams(a=2.5, b=1.3).require_chain_regime()


class TestDisagreementTimes:
    def test_hand_built(self):
        x, y = pair_with_disagreements(3, 5)
        dt = disagreement_times(x, y)
        assert (dt.n_plus, dt.n_minus) == (3, 5)
        assert dt.resolved == (True, True)

    def test_index_zero_counts_both_ways(self):
        x, y = pair_with_disagreements(0, 0)  # only coordinate 0 differs
        dt = disagreement_times(x, y)
        assert (dt.n_plus, dt.n_minus) == (0, 0)

    def test_saturation_sentinel(self):
        xs = np.zeros(11, dtype=np.int64)
        x = point_from_window(FULL2, xs)
        dt = disagreement_times(x, x)
        assert dt.n_plus == dt.common_horizon + 1
        assert dt.resolved == (False, False)

    def test_different_spaces(self):
        x = sample_point(FULL2, 10, seed=0)
        y = sample_point(GOLDEN, 10, seed=0)
        with pytest.raises(DifferentSpaces):
            disagreement_times(x, y)


class TestRho:
    def test_frozen_value(self):
        x, y = pair_with_disagreements(3, 5)
        rv = rho(x, y, P13)
        assert rv.exact
        assert rv.value == pytest.approx(0.45516613563950836, abs=1e-15)

    def test_max_of_both_sides(self):
        p = MetricParams(a=1.5, b=1.3)
        x, y = pair_with_disagreements(4, 2)
        rv = rho(x, y, p)
        assert rv.value == pytest.approx(max(1.5**-2, 1.3**-4), abs=1e-15)
        assert rv.value == pytest.approx(1.5**-2, abs=1e-15)

    def test_one_sided_drops_backward(self):
        p = MetricParams(a=1.5, b=1.3, mode="one-sided")
        x, y = pair_with_disagreements(4, 2)
        assert rho(x, y, p).value == pytest.approx(1.3**-4, abs=1e-15)

    def test_self_distance_zero_exact(self):
        x = sample_point(FULL2, 15, seed=3)
        rv = rho(x, x, P13)
        assert rv.value == 0.0 and rv.exact

    def test_unresolved_side_dominated_is_exact(self):
        # backward disagreement only; forward saturates but cannot beat it
        xs = np.zeros(11, dtype=np.int64)
        ys = xs.copy()
        ys[5 - 1] = 1
        x, y = point_from_window(FULL2, xs), point_from_window(FULL2, ys)
        rv = rho(x, y, P13)
        assert rv.exact and rv.value == pytest.approx(1.3**-1)

    def test_unresolved_side_not_dominated_is_inexact(self):
        # a ~ 1: the saturated backward side could exceed the forward value
        p = MetricParams(a=1.1, b=2.0)
        xs = np.zeros(11, dtype=np.int64)
        ys = xs.copy()
        ys[5 + 5] = 1  # forward disagreement at +5 only
        x, y = point_from_window(FULL2, xs), point_from_window(FULL2, ys)
        rv = rho(x, y, p)
        assert not rv.exact
        assert rv.value == pytest.approx(2.0**-5)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ultrametric_inequality(self, s1, s2, s3):
        x = sample_point(FULL2, 40, seed=s1)
        y = sample_point(FULL2, 40, seed=s2)
        z = sample_point(FULL2, 40, seed=s3)
        rxy = rho(x, y, P13).value
        rxz = rho(x, z, P13).value
        rzy = rho(z, y, P13).value
        assert rxy <= max(rxz, rzy) + 1e-12

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shift_covariance_bounds(self, s1, s2):
        x = sample_point(GOLDEN, 40, seed=s1)
        y = sample_point(GOLDEN, 40, seed=s2)
        r0 = rho(x, y, P13).value
        rp = rho(shift_point(x, 1), shift_point(y, 1), P13).value
        rm = rho(shift_point(x, -1), shift_point(y, -1), P13).value
        assert rp <= P13.b * r0 + 1e-12
        assert rm <= P13.a * r0 + 1e-12

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_backward_shift_forward_time(self, s1, s2):
        # n+ grows by exactly 1 under the inverse shift iff the pair agrees
        # at coordinate -1; otherwise it drops to 0
        x = sample_point(FULL2, 40, seed=s1)
        y = sample_point(FULL2, 40, seed=s2)
        dt0 = disagreement_times(x, y)
        dt1 = disagreement_times(shift_point(x, -1), shift_point(y, -1))
        if not (dt0.resolved_plus and dt1.resolved_plus):
            return  # saturated somewhere: the identity is about resolved times
        if x[-1] == y[-1]:
            assert dt1.n_plus == dt0.n_plus + 1
        else:
            assert dt1.n_plus == 0


class TestUniformExpansivity:
    def test_m_unif_minimal_by_brute_force(self):
        # over all pairs of length-5 binary words on coordinates -2..2:
        # base distance > epsilon/2 = 1/4 forces a disagreement at |i| <= 1,
        # and some pair needs |i| = 1, so m_unif = 1 exactly and the chain
        # regime's bound is beta = 2**(1/m_unif)
        words = list(itertools.product((0, 1), repeat=5))
        m_unif = 0
        for u, v in itertools.combinations(words, 2):
            offsets = [abs(i - 2) for i in range(5) if u[i] != v[i]]
            d = 2.0 ** -min(offsets)
            if d > 0.25:
                m_unif = max(m_unif, min(offsets))
        assert m_unif == 1
        assert CHAIN_BETA == 2.0 ** (1 / m_unif)


class TestFiniteSample:
    def test_from_points_matches_rho(self):
        pts = [sample_point(FULL2, 30, seed=s) for s in (1, 2, 3)]
        fs = FiniteSample.from_points(pts, P13)
        assert fs.matrix.shape == (3, 3)
        assert np.all(np.diag(fs.matrix) == 0.0)
        assert np.array_equal(fs.matrix, fs.matrix.T)
        assert fs.matrix[0, 1] == pytest.approx(rho(pts[0], pts[1], P13).value)

    def test_from_words_whole_word_semantics(self):
        # words on coordinates -1..1; missing disagreements mean infinity
        words = [(0, 0, 0), (0, 1, 0), (0, 0, 1)]
        fs = from_words(words, lo=-1, params=P13)
        assert fs.matrix[0, 1] == pytest.approx(1.0)        # differ at 0
        assert fs.matrix[0, 2] == pytest.approx(1.3**-1)    # differ at +1 only
        assert fs.exact.all()

    def test_from_words_one_sided(self):
        p = MetricParams(a=1.3, b=1.3, mode="one-sided")
        words = [(1, 0, 0), (0, 0, 0)]  # differ at -1 only
        fs = from_words(words, lo=-1, params=p)
        assert fs.matrix[0, 1] == 0.0

    @pytest.mark.parametrize("mat", [
        [[0.0, 1.0]],                        # not square
        [[0.0, 1.0], [0.5, 0.0]],            # asymmetric
        [[0.1, 1.0], [1.0, 0.0]],            # nonzero diagonal
        [[0.0, -1.0], [-1.0, 0.0]],          # negative
        [[0.0, 1.0], [1.0 + 1e-7, 0.0]],     # asymmetric within allclose's rtol
        [[0.0, math.inf], [math.inf, 0.0]],  # infinite
    ])
    def test_matrix_validation(self, mat):
        with pytest.raises(HypothesisViolated):
            FiniteSample.from_matrix(mat)


class TestCheckQuasiMetric:
    def test_violation_example(self):
        fs = FiniteSample.from_matrix(
            [[0.0, 1.0, 0.3], [1.0, 0.0, 0.3], [0.3, 0.3, 0.0]]
        )
        viol = check_quasi_metric(fs, 2.0)
        assert (0, 1, 2) in viol

    def test_symbolic_sample_is_ultrametric(self):
        pts = [sample_point(GOLDEN, 40, seed=s) for s in range(12)]
        fs = FiniteSample.from_points(pts, P13)
        assert check_quasi_metric(fs, 1.0) == []

    def test_saturated_entries_refused(self):
        p = MetricParams(a=1.1, b=2.0)
        xs = np.zeros(11, dtype=np.int64)
        ys = xs.copy()
        ys[5 + 5] = 1
        pts = [point_from_window(FULL2, xs), point_from_window(FULL2, ys)]
        fs = FiniteSample.from_points(pts, p)
        with pytest.raises(SaturatedDistances):
            check_quasi_metric(fs, 2.0)


class TestFrinkMetrize:
    def test_gate_rejects_violating_input(self):
        fs = FiniteSample.from_matrix(
            [[0.0, 1.0, 0.3], [1.0, 0.0, 0.3], [0.3, 0.3, 0.0]]
        )
        with pytest.raises(QuasiMetricViolated):
            frink_metrize(fs)

    def test_chain_metric_equals_rho_on_symbolic_sample(self):
        # ultrametric input: no chain can undercut the direct edge
        pts = [sample_point(FULL2, 40, seed=s) for s in range(15)]
        fs = FiniteSample.from_points(pts, P13)
        D = frink_metrize(fs)
        np.testing.assert_allclose(D, fs.matrix, atol=1e-15)

    def test_strict_shortcut_within_quasi_regime(self):
        # a designed 4-point input passing the K=2 test whose shortest path
        # strictly undercuts one direct edge
        R = np.array(
            [
                [0.0, 0.5, 0.5, 1.0],
                [0.5, 0.0, 0.25, 0.5],
                [0.5, 0.25, 0.0, 0.25],
                [1.0, 0.5, 0.25, 0.0],
            ]
        )
        fs = FiniteSample.from_matrix(R)
        assert check_quasi_metric(fs, 2.0) == []
        D = frink_metrize(fs)
        assert D[0, 3] == pytest.approx(0.75)
        # sandwich: D <= rho <= 4 D
        assert np.all(D <= R + 1e-12)
        assert np.all(R <= 4.0 * D + 1e-12)


class TestMatherN0:
    def test_frozen_example(self):
        mp = mather_n0(P13, 0.05)
        assert mp.n0 == 36
        assert mp.k1 == pytest.approx(4.0 ** (-1 / 36) * 1.3, abs=1e-15)
        assert mp.k1 == pytest.approx(1.2508909879623886, abs=1e-12)
        assert mp.k1 == mp.k2

    def test_n0_is_minimal(self):
        mp = mather_n0(P13, 0.05)
        n = mp.n0 - 1
        assert not (4.0 ** (-1.0 / n) * 1.3 > 1.3 - 0.05)

    def test_weights_beat_margins(self):
        mp = mather_n0(MetricParams(a=1.4, b=1.7), 0.2)
        assert mp.k1 > 1.4 - 0.2
        assert mp.k2 > 1.7 - 0.2

    @pytest.mark.parametrize("gamma", [0.0, -0.1, 0.3, 1.0, math.nan, math.inf])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(GammaTooLarge, match="gamma must be finite and in"):
            mather_n0(P13, gamma)

    def test_chain_regime_enforced(self):
        with pytest.raises(HypothesisViolated):
            mather_n0(MetricParams(a=2.5, b=1.3), 0.05)


class TestShiftedRhoTable:
    def test_matches_direct_evaluation(self):
        x = sample_point(GOLDEN, 120, seed=11)
        y = sample_point(GOLDEN, 120, seed=12)
        tab = shifted_rho_table(x, y, P13, 30)
        for j in (-30, -7, -1, 0, 1, 13, 30):
            rv = rho(shift_point(x, j), shift_point(y, j), P13)
            assert rv.exact
            assert tab[30 + j] == pytest.approx(rv.value, abs=1e-15)

    def test_equal_points_give_zeros(self):
        x = sample_point(FULL2, 50, seed=4)
        tab = shifted_rho_table(x, x, P13, 10)
        assert np.all(tab == 0.0)

    def test_shift_budget_exceeds_horizon(self):
        x = sample_point(FULL2, 20, seed=1)
        y = sample_point(FULL2, 20, seed=2)
        with pytest.raises(SaturatedDistances):
            shifted_rho_table(x, y, P13, 25)

    def test_unresolved_shift_refused(self):
        # disagreements only at {-5, +3}: shifting to +7 leaves the forward
        # search empty inside the common window
        x, y = pair_with_disagreements(3, 5)
        with pytest.raises(SaturatedDistances):
            shifted_rho_table(x, y, P13, 10)


class TestOracles:
    def test_rho_oracle(self):
        x, y = pair_with_disagreements(3, 5)
        assert RhoOracle(P13).distance(x, y) == pytest.approx(1.3**-3)

    def test_sample_oracle_matches_rho_oracle(self):
        pts = [sample_point(FULL2, 40, seed=s) for s in (5, 6, 7)]
        mp = MatherParams(gamma=0.05, n0=3, k1=1.25, k2=1.25)
        closed = orbit_closed_sample(pts, n_shifts=3)
        so = SampleOracle(closed, frink_metrize(FiniteSample.from_points(closed, P13)))
        ro = RhoOracle(P13)
        for x, y in itertools.combinations(pts, 2):
            assert mather_metric(x, y, mp, so) == pytest.approx(
                mather_metric(x, y, mp, ro), abs=1e-12
            )

    def test_sample_oracle_missing_point(self):
        pts = [sample_point(FULL2, 40, seed=s) for s in (5, 6)]
        closed = orbit_closed_sample(pts, n_shifts=1)
        so = SampleOracle(closed, frink_metrize(FiniteSample.from_points(closed, P13)))
        with pytest.raises(SampleNotOrbitClosed):
            so.distance(shift_point(pts[0], 2), shift_point(pts[1], 2))


class TestVerifyHyperbolicity:
    def test_random_pairs_pass(self):
        mp = mather_n0(P13, 0.05)
        rng = np.random.default_rng(42)
        pts = [sample_point(GOLDEN, 120, seed=int(s))
               for s in rng.integers(0, 2**31, 30)]
        pairs = [(a, b) for a, b in itertools.combinations(pts, 2)]
        rep = verify_hyperbolicity(pairs, mp, P13)
        assert rep.passed
        assert rep.pairs_checked == len(pairs)
        assert rep.escape_pairs > 0
        assert rep.eps_prime >= rep.threshold
        assert rep.threshold == pytest.approx(
            0.25 * mp.k1 ** (-35) / 1.3, rel=1e-12
        )

    def test_generic_oracle_agrees_with_fast_path(self):
        # verify_hyperbolicity reads d~ at shifts -1, 0, +1 off each pair's
        # row of shifted_rho_tables; both generic oracles must give the
        # same three values through the definition of d~
        mp = MatherParams(gamma=0.05, n0=4, k1=1.2, k2=1.2)
        pts = [sample_point(FULL2, 60, seed=s) for s in (1, 2, 3, 4)]
        pairs = [(a, b) for a, b in itertools.combinations(pts, 2)]
        assert verify_hyperbolicity(pairs, mp, P13).passed
        closed = orbit_closed_sample(pts, n_shifts=5)
        oracles = (
            RhoOracle(P13),
            SampleOracle(closed, frink_metrize(FiniteSample.from_points(closed, P13))),
        )
        w1 = mp.k1 ** -np.arange(mp.n0, dtype=float)
        w2 = mp.k2 ** -np.arange(mp.n0, dtype=float)
        tables = shifted_rho_tables(pairs, P13, mp.n0 + 1)
        for t in (-1, 0, 1):
            fast = _d_tilde_from_tables(tables, t, mp, w1, w2)
            for (x, y), d in zip(pairs, fast):
                xs, ys = shift_point(x, t), shift_point(y, t)
                for oracle in oracles:
                    assert d == pytest.approx(mather_metric(xs, ys, mp, oracle), rel=1e-12)

    def test_short_horizon_refused(self):
        mp = mather_n0(P13, 0.05)  # n0 = 36
        x = sample_point(FULL2, 20, seed=1)
        y = sample_point(FULL2, 20, seed=2)
        with pytest.raises(SaturatedDistances):
            verify_hyperbolicity([(x, y)], mp, P13)
