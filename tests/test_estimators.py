"""Tests for the regression estimators and the identity verifier."""
import math

import numpy as np
import pytest

from shiftmetrics import (
    BernoulliMeasure,
    BundleEntry,
    MarkovMeasure,
    MetricParams,
    RadiusLadder,
    RelationReport,
    SlopeEstimate,
    alpha_estimation_entropy,
    average_over_typical,
    box_dimension,
    brin_katok_local,
    katok_entropy,
    make_space,
    neutralized_brin_katok,
    neutralized_topological,
    one_sided_suite,
    point_from_window,
    pointwise_dimension,
    relation_report,
    sample_typical,
    solve_relation_5_23,
    standard_bundle,
    topological_entropy_spanning,
    verify_identities,
)
from shiftmetrics.errors import (
    AlphaTooLarge,
    BadMeasure,
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    IncompatibleInputs,
    NoSolution,
)
from shiftmetrics.estimators import DEFAULT_R1, _fit_slope
from shiftmetrics.metrics import ONE_SIDED

PARAMS = MetricParams(1.3, 1.3)
ONE_SIDED_PARAMS = MetricParams(1.3, 1.3, mode=ONE_SIDED)
FULL2 = make_space(2)
GOLDEN = make_space(2, [[1, 1], [1, 0]])
UNIFORM2 = BernoulliMeasure((0.5, 0.5))
SKEWED = BernoulliMeasure((0.3, 0.7))
GOLDEN_MARKOV = MarkovMeasure(((0.5, 0.5), (1.0, 0.0)))

LN2 = math.log(2.0)
LN_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)
H_SKEWED = 0.6108643020548935
H_GOLDEN_MARKOV = (2.0 / 3.0) * LN2
K = PARAMS.k()
LADDER = RadiusLadder.geometric(8, 40)


def rel(err_value: float, target: float) -> float:
    return abs(err_value - target) / abs(target)


class TestBoxDimension:
    def test_full_shift_matches_scaled_entropy(self):
        est = box_dimension(FULL2, PARAMS, LADDER)
        assert rel(est.slope, K * LN2) < 1e-3
        assert not est.flagged and not est.saturated

    def test_golden_matches_scaled_entropy(self):
        est = box_dimension(GOLDEN, PARAMS, LADDER)
        assert rel(est.slope, K * LN_PHI) < 1e-3

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_alphabet_linearity(self, m):
        # N(r) = M^(window length), so slope / ln M depends only on the ladder
        est = box_dimension(make_space(m), PARAMS, LADDER)
        ref = box_dimension(FULL2, PARAMS, LADDER)
        assert est.slope / math.log(m) == pytest.approx(ref.slope / LN2, rel=1e-9)


class TestSpanningEntropy:
    def test_full_shift_exact(self):
        est = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 5))
        assert abs(est.slope - LN2) < 1e-12
        assert est.residual_rms < 1e-10

    def test_golden_matches_log_phi(self):
        est = topological_entropy_spanning(GOLDEN, PARAMS, DEFAULT_R1, range(10, 61, 5))
        assert rel(est.slope, LN_PHI) < 1e-5

    @pytest.mark.parametrize("r1", [0.5, 0.13])
    def test_reference_radius_only_moves_intercept(self, r1):
        base = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 5))
        other = topological_entropy_spanning(FULL2, PARAMS, r1, range(10, 61, 5))
        assert abs(base.slope - other.slope) < 1e-9

    def test_subsampling_stability(self):
        dense = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 5))
        sparse = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 10))
        assert abs(dense.slope - sparse.slope) <= dense.residual_rms + 1e-12

    @pytest.mark.parametrize("bad", [[5], [0, 3], []])
    def test_bad_depths_rejected(self, bad):
        with pytest.raises(HypothesisViolated):
            topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, bad)


class TestPointwiseDimension:
    def test_skewed_average_matches_scaled_entropy(self):
        est = average_over_typical(
            lambda p: pointwise_dimension(SKEWED, p, PARAMS, LADDER),
            SKEWED,
            horizon=110,
            n_points=100,
            seed=0,
        )
        assert rel(est.slope, K * H_SKEWED) < 0.01

    def test_saturation_drops_radii(self):
        x = sample_typical(SKEWED, 30, 0)
        est = pointwise_dimension(SKEWED, x, PARAMS, LADDER)
        assert est.saturated
        assert len(est.ladder) == len(tuple(LADDER.r_values))

    def test_all_radii_too_fine(self):
        x = sample_typical(SKEWED, 20, 0)
        with pytest.raises(HorizonExceeded):
            pointwise_dimension(SKEWED, x, PARAMS, RadiusLadder.geometric(30, 40))

    def test_point_outside_support(self):
        x = point_from_window(FULL2, [1] * 61)
        with pytest.raises(BadMeasure):
            pointwise_dimension(GOLDEN_MARKOV, x, PARAMS, LADDER)


class TestBrinKatok:
    def test_uniform_exact_per_point(self):
        for seed in range(5):
            x = sample_typical(UNIFORM2, 110, seed)
            est = brin_katok_local(UNIFORM2, x, PARAMS, DEFAULT_R1, range(20, 201, 12))
            assert abs(est.slope - LN2) < 1e-12

    def test_golden_markov_average(self):
        est = average_over_typical(
            lambda p: brin_katok_local(GOLDEN_MARKOV, p, PARAMS, DEFAULT_R1, range(20, 201, 12)),
            GOLDEN_MARKOV,
            horizon=110,
            n_points=100,
            seed=0,
        )
        assert rel(est.slope, H_GOLDEN_MARKOV) < 0.02

    def test_skewed_single_point(self):
        x = sample_typical(SKEWED, 170, 3)
        est = brin_katok_local(SKEWED, x, PARAMS, DEFAULT_R1, range(20, 321, 20))
        assert rel(est.slope, H_SKEWED) < 0.10

    def test_saturation_flag(self):
        x = sample_typical(SKEWED, 100, 1)
        est = brin_katok_local(SKEWED, x, PARAMS, DEFAULT_R1, range(20, 321, 20))
        assert est.saturated


class TestNeutralized:
    @pytest.mark.parametrize("r,freeze", [(0.05, 0.005), (0.2, 0.005)])
    def test_full_shift_scaling(self, r, freeze):
        est = neutralized_topological(FULL2, PARAMS, r, range(20, 121, 10))
        assert rel(est.slope, (1.0 + r * K) * LN2) < freeze

    def test_rate_bound_enforced(self):
        with pytest.raises(ConstraintViolated):
            neutralized_topological(FULL2, PARAMS, 0.5, range(20, 121, 10))
        with pytest.raises(ConstraintViolated):
            neutralized_topological(FULL2, PARAMS, -0.1, range(20, 121, 10))

    def test_zero_rate_degenerates_to_spanning(self):
        neutral = neutralized_topological(FULL2, PARAMS, 0.0, range(10, 61, 5))
        classic = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 5))
        assert neutral == classic

    def test_rate_monotonicity(self):
        rates = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
        slopes = [
            neutralized_topological(FULL2, PARAMS, r, range(20, 121, 10)).slope for r in rates
        ]
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
        for r, s in zip(rates, slopes):
            assert rel(s, (1.0 + r * K) * LN2) < 0.02

    def test_local_uniform_three_depths(self):
        x = sample_typical(UNIFORM2, 160, 0)
        est = neutralized_brin_katok(UNIFORM2, x, PARAMS, 0.05, range(20, 201, 90))
        assert rel(est.slope, (1.0 + 0.05 * K) * LN2) < 0.03

    def test_local_golden_markov_average(self):
        est = average_over_typical(
            lambda p: neutralized_brin_katok(GOLDEN_MARKOV, p, PARAMS, 0.05, range(20, 201, 12)),
            GOLDEN_MARKOV,
            horizon=145,
            n_points=100,
            seed=0,
        )
        assert rel(est.slope, (1.0 + 0.05 * K) * H_GOLDEN_MARKOV) < 0.02

    def test_local_rate_bound(self):
        x = sample_typical(UNIFORM2, 60, 0)
        with pytest.raises(ConstraintViolated):
            neutralized_brin_katok(UNIFORM2, x, PARAMS, 0.0, range(10, 41, 10))


class TestKatok:
    def test_uniform_exact(self):
        est = katok_entropy(UNIFORM2, PARAMS, 0.25, DEFAULT_R1, range(40, 201, 20))
        assert abs(est.slope - LN2) < 1e-9

    def test_delta_invariance_skewed(self):
        slopes = [
            katok_entropy(SKEWED, PARAMS, d, DEFAULT_R1, range(250, 701, 45)).slope
            for d in (0.1, 0.25, 0.4)
        ]
        for s in slopes:
            assert rel(s, H_SKEWED) < 0.02
        assert (max(slopes) - min(slopes)) / min(slopes) < 0.02

    def test_delta_invariance_golden_markov(self):
        slopes = [
            katok_entropy(GOLDEN_MARKOV, PARAMS, d, DEFAULT_R1, range(300, 901, 60)).slope
            for d in (0.1, 0.25, 0.4)
        ]
        for s in slopes:
            assert rel(s, H_GOLDEN_MARKOV) < 0.02
        assert (max(slopes) - min(slopes)) / min(slopes) < 0.02

    def test_shrinking_radius_variant(self):
        est = katok_entropy(
            GOLDEN_MARKOV, PARAMS, 0.25, DEFAULT_R1, range(300, 901, 60), r=0.05
        )
        assert rel(est.slope, (1.0 + 0.05 * K) * H_GOLDEN_MARKOV) < 0.02

    def test_delta_validation(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(HypothesisViolated):
                katok_entropy(UNIFORM2, PARAMS, bad, DEFAULT_R1, range(40, 201, 20))

    def test_nan_delta(self):
        with pytest.raises(HypothesisViolated, match="delta must be finite, got nan"):
            katok_entropy(UNIFORM2, PARAMS, math.nan, DEFAULT_R1, range(40, 201, 20))

    def test_rate_bound(self):
        with pytest.raises(ConstraintViolated):
            katok_entropy(UNIFORM2, PARAMS, 0.25, DEFAULT_R1, range(40, 201, 20), r=0.5)


class TestAlphaEstimation:
    def test_topological_full_shift(self):
        est = alpha_estimation_entropy(FULL2, PARAMS, 0.1, range(20, 121, 10))
        target = K * LN2 / PARAMS.k_alpha(0.1)
        assert rel(est.slope, target) < 0.01

    def test_zero_alpha_reduces_to_classical(self):
        discounted = alpha_estimation_entropy(FULL2, PARAMS, 0.0, range(10, 61, 5))
        classic = topological_entropy_spanning(FULL2, PARAMS, DEFAULT_R1, range(10, 61, 5))
        assert abs(discounted.slope - classic.slope) < 1e-12

    def test_alpha_bound(self):
        with pytest.raises(AlphaTooLarge):
            alpha_estimation_entropy(FULL2, PARAMS, 0.3, range(20, 121, 10))

    def test_measure_variant_needs_point(self):
        with pytest.raises(HypothesisViolated):
            alpha_estimation_entropy(SKEWED, PARAMS, 0.1, range(20, 121, 10))

    def test_measure_variant_average(self):
        est = average_over_typical(
            lambda p: alpha_estimation_entropy(
                GOLDEN_MARKOV, PARAMS, 0.1, range(20, 121, 10), x=p
            ),
            GOLDEN_MARKOV,
            horizon=120,
            n_points=100,
            seed=0,
        )
        target = K * H_GOLDEN_MARKOV / PARAMS.k_alpha(0.1)
        assert rel(est.slope, target) < 0.05


class TestAveraging:
    def test_point_slopes_are_the_direct_estimates(self):
        def estimator(p):
            return pointwise_dimension(SKEWED, p, PARAMS, LADDER)

        est = average_over_typical(estimator, SKEWED, horizon=110, n_points=10, seed=3)
        direct = [estimator(sample_typical(SKEWED, 110, 3 + i, None)).slope for i in range(10)]
        assert est.point_slopes == tuple(direct)
        assert est.slope == float(np.mean(direct))

    def test_seed_determinism(self):
        def run(seed):
            return average_over_typical(
                lambda p: brin_katok_local(GOLDEN_MARKOV, p, PARAMS, DEFAULT_R1, range(20, 101, 8)),
                GOLDEN_MARKOV,
                horizon=60,
                n_points=5,
                seed=seed,
            )

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_n_points_validation(self):
        with pytest.raises(HypothesisViolated):
            average_over_typical(lambda p: None, SKEWED, horizon=10, n_points=0)


class TestFitDiagnostics:
    def test_curved_data_is_flagged(self):
        xs = list(range(1, 9))
        est = _fit_slope([float(v) for v in xs], [float(v * v) for v in xs], tuple(xs), False)
        assert est.flagged
        assert est.spread > 0.2 * abs(est.slope)

    def test_linear_data_is_clean(self):
        xs = [float(v) for v in range(1, 9)]
        est = _fit_slope(xs, [2.0 * v + 1.0 for v in xs], tuple(range(1, 9)), False)
        assert not est.flagged
        assert est.slope == pytest.approx(2.0, abs=1e-12)
        assert est.residual_rms < 1e-12

    def test_negative_rms_rejected(self):
        with pytest.raises(ValueError):
            SlopeEstimate(1.0, 0.0, -1.0, (), False)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            RelationReport("x", 1.0, 1.0, 0.5, True, 0.1)

    def test_ordered_report_one_sided(self):
        assert relation_report("le", 0.9, 1.0, 0.02, ordered=True).rel_error == 0.0
        assert relation_report("le", 1.05, 1.0, 0.02, ordered=True).rel_error == pytest.approx(
            0.05
        )


class TestRelationSolver:
    def test_equal_bases_give_alpha_equals_two_r(self):
        # solvable iff alpha = 2r stays below ln a
        for r in np.linspace(0.005, 0.95 * math.log(1.3) / 2.0, 20):
            report = solve_relation_5_23(1.3, 1.3, {"r": float(r)})
            assert report.passed
            assert report.rel_error <= 1e-9
            assert report.value == pytest.approx(2.0 * r, rel=1e-12)

    def test_round_trip_skew_bases(self):
        fwd = solve_relation_5_23(1.3, 1.9, {"r": 0.1})
        back = solve_relation_5_23(1.3, 1.9, {"alpha": fwd.value})
        assert abs(back.value - 0.1) < 1e-9
        assert fwd.passed and back.passed

    def test_no_solution_when_alpha_leaves_range(self):
        with pytest.raises(NoSolution):
            solve_relation_5_23(1.3, 1.9, {"r": 0.3})

    @pytest.mark.parametrize(
        "given",
        [{}, {"r": 0.1, "alpha": 0.1}, {"x": 0.1}, {"r": 0.0}, {"r": -0.1}, {"alpha": 0.5}],
    )
    def test_hypothesis_violations(self, given):
        with pytest.raises(HypothesisViolated):
            solve_relation_5_23(1.3, 1.9, given)

    def test_bad_bases(self):
        with pytest.raises(HypothesisViolated):
            solve_relation_5_23(1.0, 1.9, {"r": 0.1})


class TestBundles:
    def test_full_shift_bundle_all_identities_pass(self):
        bundle = standard_bundle(FULL2, PARAMS, UNIFORM2)
        reports = verify_identities(bundle, h_top=LN2, h_mu=LN2)
        assert len(reports) == 14
        failed = [rep.name for rep in reports if not rep.passed]
        assert failed == []

    def test_golden_bundle_all_identities_pass(self):
        bundle = standard_bundle(GOLDEN, PARAMS, GOLDEN_MARKOV)
        reports = verify_identities(bundle, h_top=LN_PHI, h_mu=H_GOLDEN_MARKOV)
        assert len(reports) == 14
        failed = [rep.name for rep in reports if not rep.passed]
        assert failed == []

    def test_space_only_bundle(self):
        bundle = standard_bundle(FULL2, PARAMS)
        reports = verify_identities(bundle, h_top=LN2)
        assert {rep.name for rep in reports} == {
            "box-dimension = k * entropy",
            "spanning-entropy = oracle entropy",
            "neutralized-topological = (1 + r k) * entropy",
            "alpha-entropy * k_alpha = k * entropy",
        }
        assert all(rep.passed for rep in reports)

    def test_mixed_params_refused(self):
        est = SlopeEstimate(1.0, 0.0, 0.0, (), False)
        entries = [
            BundleEntry("entropy", est, PARAMS, "full:2"),
            BundleEntry("box_dimension", est, MetricParams(1.5, 1.5), "full:2"),
        ]
        with pytest.raises(IncompatibleInputs):
            verify_identities(entries, h_top=LN2)

    def test_mixed_spaces_refused(self):
        est = SlopeEstimate(1.0, 0.0, 0.0, (), False)
        entries = [
            BundleEntry("entropy", est, PARAMS, "full:2"),
            BundleEntry("box_dimension", est, PARAMS, "sft:2:1110"),
        ]
        with pytest.raises(IncompatibleInputs):
            verify_identities(entries, h_top=LN2)

    def test_duplicate_kind_refused(self):
        est = SlopeEstimate(1.0, 0.0, 0.0, (), False)
        entries = [
            BundleEntry("entropy", est, PARAMS, "full:2"),
            BundleEntry("entropy", est, PARAMS, "full:2"),
        ]
        with pytest.raises(IncompatibleInputs):
            verify_identities(entries, h_top=LN2)

    def test_measure_kind_needs_measure_entropy(self):
        est = SlopeEstimate(1.0, 0.0, 0.0, (), False)
        entries = [BundleEntry("katok", est, PARAMS, "full:2")]
        with pytest.raises(IncompatibleInputs):
            verify_identities(entries, h_top=LN2)

    def test_empty_bundle_refused(self):
        with pytest.raises(IncompatibleInputs):
            verify_identities([], h_top=LN2)

    def test_tolerance_override(self):
        est = SlopeEstimate(LN2 * 1.01, 0.0, 0.0, (), False)
        entries = [BundleEntry("entropy", est, PARAMS, "full:2")]
        default = verify_identities(entries, h_top=LN2)
        strict = verify_identities(
            entries, h_top=LN2, tolerances={"spanning-entropy = oracle entropy": 1e-6}
        )
        assert default[0].passed
        assert not strict[0].passed

    def test_unsupported_measure_refused(self):
        with pytest.raises(IncompatibleInputs):
            standard_bundle(GOLDEN, PARAMS, SKEWED)


class TestOneSidedSuite:
    def test_space_suite_frozen_targets(self):
        suite = one_sided_suite(FULL2, ONE_SIDED_PARAMS, range(10, 61, 5), alpha=0.1)
        assert rel(suite["box_dimension"].slope, LN2 / math.log(1.3)) < 0.02
        assert abs(suite["entropy"].slope - LN2) < 1e-12
        target = LN2 / (math.log(1.3) * ONE_SIDED_PARAMS.k_alpha(0.1))
        assert rel(suite["alpha_entropy"].slope, target) < 0.02

    def test_measure_suite_coincides_for_uniform(self):
        space = one_sided_suite(FULL2, ONE_SIDED_PARAMS, range(10, 61, 5), alpha=0.1)
        measure = one_sided_suite(
            UNIFORM2, ONE_SIDED_PARAMS, range(10, 61, 5), alpha=0.1, n_points=20
        )
        assert abs(measure["entropy"].slope - space["entropy"].slope) < 1e-12
        assert abs(measure["alpha_entropy"].slope - space["alpha_entropy"].slope) < 1e-12
        assert rel(measure["pointwise_dimension"].slope, LN2 / math.log(1.3)) < 0.02

    def test_two_sided_params_refused(self):
        with pytest.raises(HypothesisViolated):
            one_sided_suite(FULL2, PARAMS, range(10, 61, 5))
