"""Tests for the regression estimators and the identity verifier."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import EagerSlope, reference_average, reference_fit_slope
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
    make_space,
    neutralized_brin_katok,
    point_from_window,
    pointwise_dimension,
    relation_report,
    sample_typical,
    solve_relation_5_23,
    standard_bundle,
    verify_identities,
)
from shiftmetrics import (
    alpha_window,
    ball_window,
    bowen_window,
    estimators,
    measures,
    neutralized_window,
)
from shiftmetrics.errors import (
    AlphaTooLarge,
    BadMeasure,
    BatchTooLarge,
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    IncompatibleInputs,
    NoSolution,
)
from shiftmetrics.estimators import (
    DEFAULT_R1,
    DEFAULT_RATES,
    KINDS,
    TYPICAL_BATCH_BYTES,
    _average,
    _fit_rows,
    _fit_slope,
    estimate_kind,
    kind_ladder,
)
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
        est = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5))
        assert abs(est.slope - LN2) < 1e-12
        assert est.residual_rms < 1e-10

    def test_golden_matches_log_phi(self):
        est = estimate_kind("entropy", GOLDEN, PARAMS, None, range(10, 61, 5))
        assert rel(est.slope, LN_PHI) < 1e-5

    @pytest.mark.parametrize("r1", [0.5, 0.13])
    def test_reference_radius_only_moves_intercept(self, r1):
        base = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5))
        other = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5), r1=r1)
        assert abs(base.slope - other.slope) < 1e-9

    def test_subsampling_stability(self):
        dense = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5))
        sparse = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 10))
        assert abs(dense.slope - sparse.slope) <= dense.residual_rms + 1e-12

    @pytest.mark.parametrize("bad", [[5], [0, 3], []])
    def test_bad_depths_rejected(self, bad):
        with pytest.raises(HypothesisViolated):
            estimate_kind("entropy", FULL2, PARAMS, None, bad)


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


def neutralized_topological(r: float, depths=range(20, 121, 10)):
    return estimate_kind("neutralized_topological", FULL2, PARAMS, None, depths, rate=r)


class TestNeutralized:
    @pytest.mark.parametrize("r,freeze", [(0.05, 0.005), (0.2, 0.005)])
    def test_full_shift_scaling(self, r, freeze):
        est = neutralized_topological(r)
        assert rel(est.slope, (1.0 + r * K) * LN2) < freeze

    def test_rate_bound_enforced(self):
        with pytest.raises(ConstraintViolated):
            neutralized_topological(0.5)
        with pytest.raises(ConstraintViolated):
            neutralized_topological(-0.1)

    def test_zero_rate_degenerates_to_spanning(self):
        neutral = neutralized_topological(0.0, range(10, 61, 5))
        classic = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5))
        assert neutral == classic

    def test_rate_monotonicity(self):
        rates = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
        slopes = [neutralized_topological(r).slope for r in rates]
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
        for bad in (3.0 / K, -0.01):
            with pytest.raises(ConstraintViolated):
                neutralized_brin_katok(UNIFORM2, x, PARAMS, bad, range(10, 41, 10))

    def test_local_zero_rate_is_brin_katok_at_the_default_radius(self):
        for seed in range(3):
            x = sample_typical(GOLDEN_MARKOV, 210, seed, GOLDEN)
            depths = range(20, 201, 12)
            neutral = neutralized_brin_katok(GOLDEN_MARKOV, x, PARAMS, 0.0, depths)
            assert neutral == brin_katok_local(GOLDEN_MARKOV, x, PARAMS, DEFAULT_R1, depths)


class TestKatok:
    def test_uniform_exact(self):
        est = estimate_kind("katok", None, PARAMS, UNIFORM2, range(40, 201, 20), delta=0.25)
        assert abs(est.slope - LN2) < 1e-9

    def test_delta_invariance_skewed(self):
        slopes = [
            estimate_kind("katok", None, PARAMS, SKEWED, range(250, 701, 45), delta=d).slope
            for d in (0.1, 0.25, 0.4)
        ]
        for s in slopes:
            assert rel(s, H_SKEWED) < 0.02
        assert (max(slopes) - min(slopes)) / min(slopes) < 0.02

    def test_delta_invariance_golden_markov(self):
        slopes = [
            estimate_kind("katok", None, PARAMS, GOLDEN_MARKOV, range(300, 901, 60), delta=d).slope
            for d in (0.1, 0.25, 0.4)
        ]
        for s in slopes:
            assert rel(s, H_GOLDEN_MARKOV) < 0.02
        assert (max(slopes) - min(slopes)) / min(slopes) < 0.02

    def test_shrinking_radius_variant(self):
        depths = range(300, 901, 60)
        est = estimate_kind(
            "neutralized_katok", None, PARAMS, GOLDEN_MARKOV, depths, rate=0.05, delta=0.25
        )
        assert rel(est.slope, (1.0 + 0.05 * K) * H_GOLDEN_MARKOV) < 0.02

    def test_delta_validation(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(HypothesisViolated):
                estimate_kind("katok", None, PARAMS, UNIFORM2, range(40, 201, 20), delta=bad)

    def test_nan_delta(self):
        with pytest.raises(HypothesisViolated, match="delta must be finite, got nan"):
            estimate_kind("katok", None, PARAMS, UNIFORM2, range(40, 201, 20), delta=math.nan)

    def test_rate_bound(self):
        with pytest.raises(ConstraintViolated):
            estimate_kind(
                "neutralized_katok", None, PARAMS, UNIFORM2, range(40, 201, 20), rate=0.5
            )


class TestAlphaEstimation:
    @pytest.mark.parametrize(
        "a, b, alpha",
        [(1.3, 1.3, 0.1), (1.2, 1.9, 0.1), (1.9, 1.2, 0.1), (1.1, 2.0, 0.05),
         (1.5, 3.0, 0.3), (2.0, 1.05, 0.04)],
    )
    def test_topological_full_shift(self, a, b, alpha):
        # ln N = L ln 2 on full:2, so slope / ln 2 is the exact window-length
        # slope; with a != b it reaches k / k_alpha only if the depth split
        # balances n (ln a + alpha) = m (ln b + alpha)
        params = MetricParams(a, b)
        est = alpha_estimation_entropy(FULL2, params, alpha, range(20, 121, 10))
        assert rel(est.slope / LN2, params.k() / params.k_alpha(alpha)) < 0.01

    @given(st.floats(1.02, 4.2), st.floats(1.02, 4.2), st.floats(0.01, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_topological_identity_at_random_exponents(self, a, b, frac):
        # the paper's two-exponent regime: any admissible (a, b, alpha), not a grid
        params = MetricParams(a, b)
        alpha = frac * min(params.log_a, params.log_b)
        spec = KINDS["alpha_topological"]
        depths = kind_ladder("alpha_topological")
        est = estimate_kind("alpha_topological", FULL2, params, None, depths, alpha)
        assert spec.check(est.slope, params, alpha, LN2, spec.tolerance).passed

    def test_zero_alpha_reduces_to_classical(self):
        discounted = alpha_estimation_entropy(FULL2, PARAMS, 0.0, range(10, 61, 5))
        classic = estimate_kind("entropy", FULL2, PARAMS, None, range(10, 61, 5))
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


class TestKinds:
    def test_tolerance_and_side_follow_the_reading(self):
        # 2% for word and cover counts, 5% for masses at typical points;
        # covers and masses are of the measure
        assert {kind: spec.tolerance for kind, spec in KINDS.items()} == {
            "box_dimension": 0.02,
            "entropy": 0.02,
            "neutralized_topological": 0.02,
            "alpha_topological": 0.02,
            "pointwise_dimension": 0.05,
            "brin_katok": 0.05,
            "katok": 0.02,
            "neutralized_brin_katok": 0.05,
            "neutralized_katok": 0.02,
            "alpha_brin_katok": 0.05,
        }
        space_kinds = {kind for kind, spec in KINDS.items() if not spec.measure}
        assert space_kinds == {
            "box_dimension", "entropy", "neutralized_topological", "alpha_topological"
        }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_the_target_meets_its_own_identity(self, kind):
        spec, params = KINDS[kind], MetricParams(1.2, 1.9)
        rate = 0.1 if spec.rate else 0.0
        slope = spec.target(params, rate, LN2)
        assert spec.check(slope, params, rate, LN2, 0.0).rel_error == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "params", [MetricParams(1.2, 1.9), MetricParams(1.2, 1.9, mode=ONE_SIDED)], ids=repr
    )
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_ladder_windows_are_the_family_windows(self, kind, params):
        # depth t splits as n = floor(t theta) backward, m = t - n forward;
        # theta balances the discounted scales, and is 0 one-sided
        spec = KINDS[kind]
        rate = {None: 0.0, "r": 0.05, "alpha": 0.1}[spec.rate]
        steps = kind_ladder(kind)
        ladder = spec.ladder(params, steps, rate, DEFAULT_R1)
        theta = 0.5
        if params.mode == ONE_SIDED:
            theta = 0.0
        elif spec.family == "alpha":
            theta = (params.log_b + rate) / (params.log_a + params.log_b + 2 * rate)
        splits = [(math.floor(t * theta), t - math.floor(t * theta)) for t in steps]
        if spec.family == "ball":
            expected = [ball_window(r, params) for r in steps]
        elif spec.family == "alpha":
            expected = [alpha_window(n, m, rate, DEFAULT_R1, params) for n, m in splits]
        elif rate == 0.0:
            expected = [bowen_window(n, m, DEFAULT_R1, params) for n, m in splits]
        else:
            expected = [neutralized_window(n, m, rate, params) for n, m in splits]
        assert list(ladder.windows) == expected
        # a ball is read against ln(1/r) for words and ln r for masses
        assert ladder.sign == (-1.0 if spec.family == "ball" and spec.reads == "mass" else 1.0)

    @pytest.mark.parametrize("kind", [k for k, spec in KINDS.items() if spec.family == "bowen"])
    def test_bowen_scales_at_rate_zero_are_exactly_one(self, kind):
        for params in (PARAMS, MetricParams(1.2, 1.9), ONE_SIDED_PARAMS):
            lhs, rhs = KINDS[kind].scales(params, 0.0)
            assert (repr(lhs), repr(rhs)) == ("1.0", "1.0")

    @pytest.mark.parametrize("kind", ["entropy", "brin_katok"])
    def test_a_kind_without_a_rate_refuses_one(self, kind):
        mu = None if kind == "entropy" else SKEWED
        depths = range(20, 81, 12)
        for rate in (0.05, 3.0, -0.1):
            with pytest.raises(HypothesisViolated, match="takes no rate"):
                estimate_kind(kind, FULL2, PARAMS, mu, depths, rate, n_points=4)
        estimate_kind(kind, FULL2, PARAMS, mu, depths, 0.0, n_points=4)

    @pytest.mark.parametrize("kind", [k for k, spec in KINDS.items() if spec.rate is None])
    def test_every_method_of_a_kind_without_a_rate_refuses_one(self, kind):
        spec, depths = KINDS[kind], kind_ladder(kind)
        name = re.escape(repr(spec.name))
        calls = (
            lambda rate: spec.ladder(PARAMS, depths, rate, DEFAULT_R1),
            lambda rate: spec.scales(PARAMS, rate),
            lambda rate: spec.target(PARAMS, rate, H_GOLDEN_MARKOV),
            lambda rate: spec.check(0.6403, PARAMS, rate, H_GOLDEN_MARKOV, 0.02),
        )
        for call in calls:
            with pytest.raises(HypothesisViolated, match=f"identity {name} takes no rate"):
                call(0.05)
            call(0.0)

    def test_rate_from(self):
        shrinking, discounted = KINDS["neutralized_topological"], KINDS["alpha_topological"]
        assert shrinking.rate_from(r=0.2, alpha=0.01) == 0.2
        assert discounted.rate_from(r=0.2, alpha=0.01) == 0.01
        assert shrinking.rate_from(alpha=0.01) == DEFAULT_RATES["r"]
        assert discounted.rate_from(r=0.2) == DEFAULT_RATES["alpha"]
        # a rate of 0 is given, not missing
        assert shrinking.rate_from(r=0.0) == 0.0
        assert discounted.rate_from(alpha=0.0) == 0.0
        assert KINDS["katok"].rate_from(r=0.2, alpha=0.01) == 0.0
        assert KINDS["box_dimension"].rate_from() == 0.0

    def test_kinds_are_in_report_order(self):
        assert list(KINDS) == [
            "box_dimension",
            "entropy",
            "pointwise_dimension",
            "brin_katok",
            "katok",
            "neutralized_katok",
            "neutralized_topological",
            "neutralized_brin_katok",
            "alpha_topological",
            "alpha_brin_katok",
        ]
        assert "neutralized_katok" not in estimators.HEADLINE_KINDS
        assert len(estimators.HEADLINE_KINDS) == len(KINDS) - 1


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


class SamplerRan(Exception):
    pass


def _sampler_ran(*args, **kwargs):
    raise SamplerRan(args)


class TestBatchBound:
    """A batch of typical points past ``TYPICAL_BATCH_BYTES`` is refused
    before the sampler allocates it; the sampler is patched to raise, so no
    test here allocates a batch."""

    @pytest.fixture(autouse=True)
    def no_sampler(self, monkeypatch):
        monkeypatch.setattr(estimators, "sample_typical_windows", _sampler_ran)

    def estimate(self, n_points, horizon):
        ladder = kind_ladder("brin_katok")
        return estimate_kind(
            "brin_katok", GOLDEN, PARAMS, GOLDEN_MARKOV, ladder, horizon=horizon, n_points=n_points
        )

    def test_bound_is_sixteen_bytes_a_symbol(self):
        # 16 (2 h + 1) bytes for one point: h = 2^23 - 1 fits 2^28, h = 2^23 does not
        assert TYPICAL_BATCH_BYTES == 2**28
        with pytest.raises(SamplerRan):
            self.estimate(1, 2**23 - 1)
        with pytest.raises(BatchTooLarge):
            self.estimate(1, 2**23)

    def test_refusal_states_points_horizon_and_bound(self):
        with pytest.raises(BatchTooLarge) as exc:
            self.estimate(100, 10**9)
        message = str(exc.value)
        assert "100 typical points at horizon 1000000000" in message
        assert f"TYPICAL_BATCH_BYTES = {TYPICAL_BATCH_BYTES}" in message

    def test_bundle_refuses_too_many_points(self):
        with pytest.raises(BatchTooLarge, match="10000000 typical points at horizon 160"):
            standard_bundle(FULL2, PARAMS, SKEWED, n_points=10**7)


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
        assert not RelationReport("x", 1.0, 1.0, 0.5, tolerance=0.1).passed
        # the old positional form, with the verdict before the tolerance
        with pytest.raises(TypeError):
            RelationReport("x", 1.0, 1.0, 0.5, True, 0.1)

    def test_zero_target_compared_on_verify_tol(self):
        assert relation_report("zero", -3.96e-17, 0.0, 0.02).rel_error == pytest.approx(3.96e-5)
        assert not relation_report("zero", 0.031, 0.0, 0.02).passed

    def test_ordered_report_one_sided(self):
        assert relation_report("le", 0.9, 1.0, 0.02, ordered=True).rel_error == 0.0
        assert relation_report("le", 1.05, 1.0, 0.02, ordered=True).rel_error == pytest.approx(
            0.05
        )


def assert_same_estimate(new, ref):
    """Every field and diagnostic equal bit for bit, with the same type."""
    for name in EagerSlope._fields:
        a, b = getattr(new, name), getattr(ref, name)
        assert type(a) is type(b) and repr(a) == repr(b), name


class TestDerivedDiagnostics:
    """``spread``, ``flagged`` and ``passed`` are read off the stored numbers,
    and equal what the eager fit and average stored."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 13])
    @pytest.mark.parametrize("shape", ["noisy", "curved", "linear"])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_fit_matches_eager_fit(self, n, shape, direction):
        rng = np.random.default_rng(n)
        xs = [direction * float(v) for v in np.sort(rng.uniform(1.0, 40.0, n))]
        ys = {
            "noisy": [0.7 * x + float(e) for x, e in zip(xs, rng.normal(0.0, 0.3, n))],
            "curved": [x * x for x in xs],
            "linear": [2.0 * x + 1.0 for x in xs],
        }[shape]
        key = tuple(range(n))
        new, ref = _fit_slope(xs, ys, key, False), reference_fit_slope(xs, ys, key, False)
        assert_same_estimate(new, ref)

    @pytest.mark.parametrize("horizon, saturated", [(40, True), (60, True), (120, False)])
    def test_pointwise_ladder_matches_eager_fit(self, horizon, saturated):
        # x = ln r decreases along the ladder; a short horizon saturates it
        x = sample_typical(SKEWED, horizon, 5)
        est = pointwise_dimension(SKEWED, x, PARAMS, LADDER)
        assert est.points[0][0] > est.points[-1][0]
        assert est.saturated is saturated
        xs, ys = zip(*est.points)
        ref = reference_fit_slope(list(xs), list(ys), est.ladder, est.saturated)
        assert_same_estimate(est, ref)

    @pytest.mark.parametrize("n_points", [1, 100])
    def test_average_matches_eager_average(self, n_points):
        per_point = [
            brin_katok_local(GOLDEN_MARKOV, x, PARAMS, DEFAULT_R1, range(20, 101, 8))
            for x in (sample_typical(GOLDEN_MARKOV, 60, seed) for seed in range(n_points))
        ]
        assert_same_estimate(_average(per_point), reference_average(per_point))

    def test_average_spread_reads_point_slopes(self):
        est = _average([SlopeEstimate(s, 0.0, 0.0, (), False) for s in (1.0, 1.5, 0.25)])
        assert est.spread == 1.25 and est.flagged

    def test_diagnostics_are_not_fields(self):
        names = {f.name for f in dataclasses.fields(SlopeEstimate)}
        assert not names & {"spread", "flagged"}
        assert "passed" not in {f.name for f in dataclasses.fields(RelationReport)}
        with pytest.raises(TypeError):
            SlopeEstimate(1.0, 0.0, 0.0, (), False, spread=0.5)

    @pytest.mark.parametrize(
        "rel, passed", [(0.02, True), (0.0200001, False), (math.nan, False), (0.0, True)]
    )
    def test_relation_passes_iff_rel_at_most_tol(self, rel, passed):
        assert RelationReport("x", 1.0, 1.0, rel, tolerance=0.02).passed is passed


class TestOnePassPerLadder:
    """A cover ladder makes one transition-count merge, and an average
    gathers its batch's information costs once."""

    def test_katok_on_three_states_runs_one_merge(self, monkeypatch):
        merges = []
        merge = measures._transition_count_spectra

        def counting(mu, lengths):
            merges.append(tuple(lengths))
            return merge(mu, lengths)

        monkeypatch.setattr(measures, "_transition_count_spectra", counting)
        chain = MarkovMeasure(((0.2, 0.5, 0.3), (0.4, 0.1, 0.5), (0.3, 0.3, 0.4)))
        est = estimate_kind("katok", make_space(3), PARAMS, chain, range(4, 13))
        assert len(est.points) == 9
        assert merges == [tuple(range(5, 14))]

    @pytest.mark.parametrize("kind", ["pointwise_dimension", "brin_katok", "alpha_brin_katok"])
    def test_average_gathers_its_costs_once(self, kind, monkeypatch):
        gathers = []
        reader = estimators._information_reader

        def counting(mu, windows):
            gathers.append(windows.shape)
            return reader(mu, windows)

        monkeypatch.setattr(estimators, "_information_reader", counting)
        spec = KINDS[kind]
        ladder, rate = kind_ladder(kind), spec.rate_from()
        est = estimate_kind(kind, GOLDEN, PARAMS, GOLDEN_MARKOV, ladder, rate, n_points=40)
        assert len(gathers) == 1 and gathers[0][0] == 40
        assert len(est.point_slopes) == 40


class TestRowFits:
    """An average fits every typical row in one ``_fit_rows`` call, whose rows
    keep the bits of one-row fits, and builds one ``SlopeEstimate``."""

    @pytest.mark.parametrize("kind", ["pointwise_dimension", "brin_katok", "alpha_brin_katok"])
    def test_average_builds_one_estimate(self, kind, monkeypatch):
        built = []
        post_init = SlopeEstimate.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SlopeEstimate, "__post_init__", counting)
        spec = KINDS[kind]
        est = estimate_kind(
            kind, GOLDEN, PARAMS, GOLDEN_MARKOV, kind_ladder(kind), spec.rate_from(), n_points=40
        )
        assert len(built) == 1 and built[0] is est
        assert len(est.point_slopes) == 40

    @settings(max_examples=60, deadline=None)
    @given(
        n_windows=st.integers(2, 40),
        n_rows=st.integers(1, 120),
        falling=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_one_row_fits(self, n_windows, n_rows, falling, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(1.0, 600.0, n_windows))
        xs = (-xs if falling else xs).tolist()
        block = 0.7 * np.array(xs) + rng.normal(0.0, rng.uniform(0.01, 50.0), (n_rows, n_windows))
        fits = _fit_rows(xs, block)
        for row, ys in enumerate(block.tolist()):
            one = _fit_slope(xs, ys, (), False)
            ref = reference_fit_slope(xs, ys, (), False)
            for name, value in zip(fits._fields, fits):
                assert repr(float(value[row])) == repr(getattr(one, name)), name
                assert repr(float(value[row])) == repr(getattr(ref, name)), name

    def test_fewer_than_two_windows_refused_once(self):
        with pytest.raises(HorizonExceeded, match="got 1"):
            _fit_rows([1.0], np.zeros((5, 1)))


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

    @pytest.mark.parametrize("given", [{"r": 0.05}, {"alpha": 0.1}], ids=["r", "alpha"])
    @pytest.mark.parametrize("base", ["a", "b"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_base_refused(self, value, base, given):
        # an infinite a used to reach the solver as ln a = inf
        bases = {"a": 1.3, "b": 1.9, base: value}
        with pytest.raises(HypothesisViolated, match=f"{base} must be finite and > 1"):
            solve_relation_5_23(bases["a"], bases["b"], given)


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

    @pytest.mark.parametrize("params", [MetricParams(1.15, 1.15), ONE_SIDED_PARAMS])
    def test_points_hold_every_mass_window(self, params):
        # the deepest mass windows pass 160: pointwise dimension's reaches
        # 198 and neutralized brin-katok's 171 at a = b = 1.15, and 238 one-sided
        bundle = standard_bundle(FULL2, params, SKEWED, n_points=10)
        assert [entry.kind for entry in bundle if entry.estimate.saturated] == []

    def test_one_ladder_per_kind(self, monkeypatch):
        # the four mass kinds' windows used to be built twice: 14 calls for 10 kinds
        built, ladder = [], estimators.Kind.ladder

        def counted(spec, *args):
            built.append(spec.name)
            return ladder(spec, *args)

        monkeypatch.setattr(estimators.Kind, "ladder", counted)
        standard_bundle(GOLDEN, PARAMS, GOLDEN_MARKOV, n_points=5)
        assert built == [spec.name for spec in KINDS.values()]

    @pytest.mark.parametrize(
        "rates, error", [({"alpha": 5.0}, AlphaTooLarge), ({"r": 1.0}, ConstraintViolated)]
    )
    def test_bad_rate_refused_before_any_count(self, monkeypatch, rates, error):
        # a space-only bundle used to count words 3 times (alpha) or twice (r) first
        def counted(*args):
            raise AssertionError("word_counts ran before the ladders were checked")

        monkeypatch.setattr(estimators, "word_counts", counted)
        with pytest.raises(error):
            standard_bundle(FULL2, PARAMS, **rates)


def one_sided_slope(kind, mu=None, rate=0.0):
    """A kind's one-sided slope over LADDER or depths 10..60, at 20 typical points."""
    ladder = LADDER if KINDS[kind].depths is None else range(10, 61, 5)
    return estimate_kind(kind, FULL2, ONE_SIDED_PARAMS, mu, ladder, rate, n_points=20).slope


class TestOneSidedSuite:
    """The one-sided kinds, each estimated through ``estimate_kind``."""

    def test_space_suite_frozen_targets(self):
        assert rel(one_sided_slope("box_dimension"), LN2 / math.log(1.3)) < 0.02
        assert abs(one_sided_slope("entropy") - LN2) < 1e-12
        target = LN2 / (math.log(1.3) * ONE_SIDED_PARAMS.k_alpha(0.1))
        assert rel(one_sided_slope("alpha_topological", rate=0.1), target) < 0.02

    def test_measure_suite_coincides_for_uniform(self):
        entropy = one_sided_slope("brin_katok", UNIFORM2)
        assert abs(entropy - one_sided_slope("entropy")) < 1e-12
        alpha_entropy = one_sided_slope("alpha_brin_katok", UNIFORM2, 0.1)
        assert abs(alpha_entropy - one_sided_slope("alpha_topological", rate=0.1)) < 1e-12
        assert rel(one_sided_slope("pointwise_dimension", UNIFORM2), LN2 / math.log(1.3)) < 0.02
