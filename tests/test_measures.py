"""Tests for Bernoulli/Markov measures, word masses, and cover counts."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    Word,
    coordinate,
    cylinder_mass,
    log_word_mass,
    reference_is_admissible,
    reference_support_word_count,
    reference_supported_on,
)
from shiftmetrics import (
    BernoulliMeasure,
    MarkovMeasure,
    count_words,
    entropy_oracle,
    enumerate_log_masses,
    log_mass_spectrum,
    make_space,
    measure_from_json,
    measure_to_json,
    measures,
    minimal_cover_log_count,
    sample_typical,
    sample_typical_windows,
    stationary,
    support_word_count,
    supported_on,
    top_entropy_oracle,
)
from shiftmetrics.errors import (
    AllStatesDead,
    BadMeasure,
    HorizonExceeded,
    HypothesisViolated,
    InadmissibleWord,
    IncompatibleInputs,
    Reducible,
    WindowTooLarge,
)
from shiftmetrics.measures import _cover_from_sorted, _pq_cover_log_count, reversed_kernel

UNIFORM2 = BernoulliMeasure((0.5, 0.5))
SKEWED = BernoulliMeasure((0.3, 0.7))
GOLDEN_MARKOV = MarkovMeasure(((0.5, 0.5), (1.0, 0.0)))
POSITIVE_MARKOV = MarkovMeasure(((0.3, 0.7), (0.6, 0.4)))
THREE_STATE = MarkovMeasure(((0.2, 0.8, 0.0), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0)))
PATTERN_CHAIN = MarkovMeasure(((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.5, 0.0, 0.5)))
MARKOV_3 = MarkovMeasure(((0.2, 0.5, 0.3), (0.4, 0.1, 0.5), (0.3, 0.3, 0.4)))
GOLDEN_SPACE = make_space(2, [[1, 1], [1, 0]])


def assert_within_ulps(actual, expected, ulps):
    for a, e in zip(actual, expected, strict=True):
        assert abs(a - e) <= ulps * math.ulp(e), (a, e)


class TestStationary:
    def test_golden_chain_fixed_point(self):
        pi = stationary([[0.5, 0.5], [1.0, 0.0]])
        assert_within_ulps(pi, [2 / 3, 1 / 3], 1)

    @pytest.mark.parametrize(
        "P, pi, ulps",
        [
            (((0.9999, 1e-4), (3e-4, 0.9997)), (0.75, 0.25), 1),
            (((1 - 1e-6, 1e-6), (2e-6, 1 - 2e-6)), (2 / 3, 1 / 3), 1),
            (
                ((1 - 1e-9, 1e-9, 0.0), (0.0, 1 - 1e-9, 1e-9), (3e-9, 0.0, 1 - 3e-9)),
                (3 / 7, 3 / 7, 1 / 7),
                2,
            ),
        ],
    )
    def test_slowly_mixing_chains_are_exact(self, P, pi, ulps):
        # state reduction never subtracts, so its error does not grow with the
        # mixing time (a lazy power iteration stalls or stops short here)
        assert_within_ulps(MarkovMeasure(P).pi, pi, ulps)

    def test_symmetric_chain(self):
        assert np.allclose(stationary([[0.5, 0.5], [0.5, 0.5]]), [0.5, 0.5], atol=1e-12)

    def test_periodic_chain_converges(self):
        # plain power iteration would oscillate here; state reduction does not iterate
        assert np.allclose(stationary([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], atol=1e-10)

    def test_identity_is_reducible(self):
        with pytest.raises(Reducible):
            stationary([[1.0, 0.0], [0.0, 1.0]])

    def test_block_chain_is_reducible(self):
        with pytest.raises(Reducible):
            stationary([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, 0.5]],
            [[0.5, 0.6], [1.0, 0.0]],
            [[-0.1, 1.1], [1.0, 0.0]],
            [[math.nan, 1.0], [1.0, 0.0]],
        ],
    )
    def test_malformed_kernels_rejected(self, bad):
        with pytest.raises(BadMeasure):
            stationary(bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_kernel_named(self, entry):
        with pytest.raises(BadMeasure, match="transition kernel entries must be finite"):
            MarkovMeasure(((entry, 1.0), (1.0, 0.0)))

    def test_residual_invariant(self):
        rng = np.random.default_rng(11)
        P = rng.random((5, 5)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary(P)
        assert np.max(np.abs(pi @ P - pi)) < 1e-10
        assert abs(pi.sum() - 1.0) < 1e-12


class TestMeasureTypes:
    @pytest.mark.parametrize("weights", [(), (0.5, 0.6), (-0.1, 1.1), (0.5, 0.5, 0.5)])
    def test_bernoulli_validation(self, weights):
        with pytest.raises(BadMeasure):
            BernoulliMeasure(weights)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 0.5), (math.nan, math.nan), (math.inf, 0.5), (-math.inf, 1.0)]
    )
    def test_bernoulli_weights_must_be_finite(self, weights):
        with pytest.raises(BadMeasure, match="weights must be finite"):
            BernoulliMeasure(weights)

    def test_bernoulli_zero_weight_support(self):
        mu = BernoulliMeasure((1.0, 0.0))
        assert mu.support == (0,)
        assert mu.alphabet_size == 2

    def test_markov_pi_is_derived(self):
        assert np.allclose(GOLDEN_MARKOV.pi, (2 / 3, 1 / 3), atol=1e-10)
        with pytest.raises(BadMeasure):
            MarkovMeasure(((0.5, 0.5), (1.0, 0.0)), pi=(0.5, 0.5))


class TestEntropyOracle:
    def test_uniform(self):
        assert entropy_oracle(UNIFORM2) == pytest.approx(math.log(2), abs=1e-15)

    def test_skewed_frozen(self):
        assert entropy_oracle(SKEWED) == pytest.approx(0.6108643020548935, abs=1e-12)

    def test_golden_markov_frozen(self):
        assert entropy_oracle(GOLDEN_MARKOV) == pytest.approx(
            (2.0 / 3.0) * math.log(2), abs=1e-10
        )

    def test_zero_weight_convention(self):
        assert entropy_oracle(BernoulliMeasure((1.0, 0.0))) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_max_entropy_coincidence(self, m):
        mu = BernoulliMeasure((1.0 / m,) * m)
        assert entropy_oracle(mu) == pytest.approx(
            top_entropy_oracle(make_space(m)), abs=1e-12
        )


class TestCylinderMass:
    def test_uniform_length_five(self):
        assert cylinder_mass(UNIFORM2, Word((0, 1, 1, 0, 1), -2)) == pytest.approx(2.0**-5)

    @pytest.mark.parametrize("anchor", [-5, 0, 17])
    def test_markov_word_anchor_irrelevant(self, anchor):
        assert cylinder_mass(GOLDEN_MARKOV, Word((0, 1, 0), anchor)) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_zero_probability_word(self):
        assert cylinder_mass(GOLDEN_MARKOV, Word((1, 1), 0)) == 0.0
        assert log_word_mass(GOLDEN_MARKOV, [1, 1]) == -math.inf

    def test_empty_word(self):
        assert cylinder_mass(UNIFORM2, Word((), 0)) == 1.0

    def test_symbol_outside_alphabet(self):
        with pytest.raises(InadmissibleWord):
            cylinder_mass(UNIFORM2, Word((0, 2), 0))

    @pytest.mark.parametrize("mu,length", [(SKEWED, 3), (GOLDEN_MARKOV, 4), (THREE_STATE, 3)])
    def test_fixed_length_masses_sum_to_one(self, mu, length):
        m = mu.alphabet_size
        total = sum(
            cylinder_mass(mu, Word(tuple((idx // m**t) % m for t in range(length)), 0))
            for idx in range(m**length)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("mu", [SKEWED, GOLDEN_MARKOV, THREE_STATE])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kolmogorov_consistency_both_directions(self, mu, data):
        m = mu.alphabet_size
        word = data.draw(
            st.lists(st.integers(0, m - 1), min_size=1, max_size=8), label="word"
        )
        base = cylinder_mass(mu, Word(tuple(word), 0))
        right = sum(cylinder_mass(mu, Word(tuple(word) + (s,), 0)) for s in range(m))
        left = sum(cylinder_mass(mu, Word((s,) + tuple(word), 0)) for s in range(m))
        assert right == pytest.approx(base, abs=1e-12)
        assert left == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("mu", [SKEWED, GOLDEN_MARKOV, POSITIVE_MARKOV])
    def test_log_mass_matches_linear(self, mu):
        rng = np.random.default_rng(5)
        for _ in range(20):
            word = rng.integers(0, 2, size=rng.integers(1, 10)).tolist()
            mass = cylinder_mass(mu, Word(tuple(word), 0))
            lm = log_word_mass(mu, word)
            if mass > 0:
                assert lm == pytest.approx(math.log(mass), abs=1e-12)
            else:
                assert lm == -math.inf


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_typical(GOLDEN_MARKOV, 30, 42)
        b = sample_typical(GOLDEN_MARKOV, 30, 42)
        c = sample_typical(GOLDEN_MARKOV, 30, 43)
        assert a == b
        assert a != c

    def test_golden_support_never_breaks(self):
        for seed in range(300):
            w = sample_typical(GOLDEN_MARKOV, 40, seed).window()
            text = "".join(map(str, w.tolist()))
            assert "11" not in text, f"seed {seed} produced forbidden block: {text}"

    def test_center_symbol_frequency(self):
        n = 20_000
        hits = sum(coordinate(sample_typical(GOLDEN_MARKOV, 1, seed), 0) == 0 for seed in range(n))
        freq = hits / n
        sigma = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(freq - 2 / 3) < 3 * sigma

    def test_backward_pair_law(self):
        # joint law of (x_{-1}, x_0) must be the stationary pair law pi_i P_ij
        n = 20_000
        counts = {(i, j): 0 for i in range(2) for j in range(2)}
        for seed in range(n):
            x = sample_typical(GOLDEN_MARKOV, 1, seed)
            counts[(coordinate(x, -1), coordinate(x, 0))] += 1
        assert counts[(1, 1)] == 0
        for pair, prob in (((0, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 0), 1 / 3)):
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(counts[pair] / n - prob) < 3 * sigma, pair

    def test_reversed_kernel_rows(self):
        hat = reversed_kernel(GOLDEN_MARKOV)
        assert np.allclose(hat, [[0.5, 0.5], [1.0, 0.0]], atol=1e-10)
        assert np.allclose(hat.sum(axis=1), 1.0, atol=1e-12)

    def test_space_admissibility_enforced(self):
        x = sample_typical(GOLDEN_MARKOV, 25, 9, space=GOLDEN_SPACE)
        assert x.space == GOLDEN_SPACE
        with pytest.raises(IncompatibleInputs, match="measure support is not admissible"):
            sample_typical(UNIFORM2, 25, 0, space=GOLDEN_SPACE)

    @pytest.mark.parametrize("seed", range(20))
    def test_unsupported_measure_refused_for_every_seed(self, seed):
        # a draw that misses the word 11 would pass a row-by-row check
        with pytest.raises(IncompatibleInputs):
            sample_typical_windows(UNIFORM2, 1, [seed], GOLDEN_SPACE)

    def test_zero_weight_symbol_outside_the_space_is_refused(self):
        # symbol 2 is never drawn, but the measure's alphabet is not the space's
        mu = BernoulliMeasure((0.5, 0.5, 0.0))
        assert not supported_on(mu, make_space(2))
        with pytest.raises(IncompatibleInputs):
            sample_typical_windows(mu, 4, range(10), make_space(2))

    @pytest.mark.parametrize(
        "mu, space",
        [(UNIFORM2, GOLDEN_SPACE), (BernoulliMeasure((0.5, 0.5, 0.0)), make_space(2))],
    )
    def test_refusal_comes_before_any_draw(self, mu, space, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk ran before the support check")

        monkeypatch.setattr(measures, "_walk", walked)
        with pytest.raises(IncompatibleInputs):
            sample_typical_windows(mu, 1, range(20), space)

    @pytest.mark.parametrize("horizon", [1, 2, 160])
    @pytest.mark.parametrize(
        "mu, space",
        [
            (GOLDEN_MARKOV, GOLDEN_SPACE),
            # symbol 1 is trimmed; the measure never draws it
            (BernoulliMeasure((0.5, 0.0, 0.5)), make_space(3, [[1, 0, 1], [0, 0, 0], [1, 0, 1]])),
            # the SFT of the chain's positive pattern, so every edge is tight
            (PATTERN_CHAIN, make_space(3, [[0, 1, 1], [1, 0, 0], [1, 0, 1]])),
        ],
        ids=["golden-chain", "trimmed-bernoulli", "pattern-chain"],
    )
    def test_rows_in_a_supporting_space_are_admissible(self, mu, space, horizon):
        # the invariant behind certifying a batch once by its support
        assert supported_on(mu, space)
        windows = sample_typical_windows(mu, horizon, range(200), space)
        assert all(reference_is_admissible(space, row) for row in windows)

    def test_horizon_validation(self):
        with pytest.raises(HorizonExceeded):
            sample_typical(UNIFORM2, 0, 1)

    @pytest.mark.parametrize("mu", [SKEWED, GOLDEN_MARKOV])
    def test_none_seed_refused(self, mu):
        # None would draw OS entropy, and the point would not reproduce
        with pytest.raises(TypeError, match="seed must be an integer, got None"):
            sample_typical(mu, 4, None)

    @pytest.mark.parametrize("seed", [1.5, "3", np.float64(2.0), [1, 2]])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            sample_typical(GOLDEN_MARKOV, 4, seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {int(seed)}"):
            sample_typical(SKEWED, 4, seed)

    @pytest.mark.parametrize("mu", [SKEWED, GOLDEN_MARKOV])
    def test_numpy_integer_and_bool_seeds_accepted(self, mu):
        for seed in (np.int64(5), np.uint64(5), np.int16(5)):
            assert sample_typical(mu, 6, seed) == sample_typical(mu, 6, 5)
        assert sample_typical(mu, 6, True) == sample_typical(mu, 6, 1)
        assert sample_typical(mu, 6, False) == sample_typical(mu, 6, 0)


class TestMeasureJson:
    def test_bernoulli_round_trip(self):
        spec = {"type": "bernoulli", "weights": [0.3, 0.7]}
        mu = measure_from_json(json.dumps(spec))
        assert mu == SKEWED
        assert measure_to_json(mu) == spec

    def test_integer_entries_are_numbers(self):
        assert measure_from_json('{"type": "bernoulli", "weights": [1, 0]}').weights == (1.0, 0.0)
        assert measure_from_json({"type": "markov", "P": [[0, 1], [1, 0]]}).P == (
            (0.0, 1.0),
            (1.0, 0.0),
        )

    def test_markov_round_trip(self):
        spec = {"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]]}
        mu = measure_from_json(spec)
        assert isinstance(mu, MarkovMeasure)
        assert measure_to_json(mu) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]], "pi": [0.5, 0.5]},
            {"type": "poisson", "rate": 2.0},
            {"type": "bernoulli"},
            {"type": "bernoulli", "weights": [0.5, 0.5], "extra": 1},
            "not json at all {",
            [1, 2, 3],
            {"type": "bernoulli", "weights": 5},
            {"type": "bernoulli", "weights": None},
            {"type": "markov", "P": [1, 2]},
            {"type": "bernoulli", "weights": ["0.3", "0.7"]},
            {"type": "bernoulli", "weights": [True, False]},
            {"type": "markov", "P": [["0.5", "0.5"], [True, False]]},
            {"type": "markov", "P": [[0.5, 0.5], [1, [0.0]]]},
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(BadMeasure):
            measure_from_json(bad)


class TestSupportedOn:
    def test_golden_markov_on_golden_space(self):
        assert supported_on(GOLDEN_MARKOV, GOLDEN_SPACE)
        assert supported_on(GOLDEN_MARKOV, make_space(2))

    def test_full_support_bernoulli_needs_full_shift(self):
        assert supported_on(SKEWED, make_space(2))
        assert not supported_on(SKEWED, GOLDEN_SPACE)

    def test_restricted_support_fits_sft(self):
        assert supported_on(BernoulliMeasure((1.0, 0.0)), GOLDEN_SPACE)

    def test_alphabet_mismatch(self):
        assert not supported_on(THREE_STATE, make_space(2))

    def test_zero_weight_symbol_on_a_trimmed_state(self):
        # symbol 2 has an out-edge but no in-edge, so it is trimmed; the
        # measure never enters it, so its row of ln P does not count
        space = make_space(3, [[1, 1, 0], [1, 1, 0], [1, 0, 0]])
        assert space.alive_states == (0, 1)
        mu = BernoulliMeasure((0.5, 0.5, 0.0))
        assert supported_on(mu, space)
        assert reference_supported_on(mu, space)
        assert support_word_count(mu, 5) == reference_support_word_count(mu, 5) == 32


@st.composite
def random_measures(draw):
    """A Bernoulli measure (zero weights included) or an irreducible chain:
    the cycle 0 -> 1 -> ... -> 0 plus random edges, with random weights."""
    m = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        assume(sum(weights))
        return BernoulliMeasure(tuple(k / sum(weights) for k in weights))
    rows = []
    for i in range(m):
        ks = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        ks[(i + 1) % m] = max(ks[(i + 1) % m], 1)
        rows.append(tuple(k / sum(ks) for k in ks))
    return MarkovMeasure(tuple(rows))


@given(
    random_measures(),
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=m, max_size=m
        )
    ),
)
@settings(max_examples=300, deadline=None)
def test_support_checks_match_the_per_family_loops(mu, transition):
    try:
        space = make_space(len(transition), transition)
    except AllStatesDead:
        assume(False)
    assert supported_on(mu, space) == reference_supported_on(mu, space)
    assert supported_on(mu, make_space(mu.alphabet_size))
    for length in range(6):
        assert support_word_count(mu, length) == reference_support_word_count(mu, length)


class TestMassSpectrum:
    @pytest.mark.parametrize(
        "mu,lengths",
        [
            (SKEWED, (1, 2, 6, 11)),
            (GOLDEN_MARKOV, (1, 2, 3, 5, 9, 12)),
            (POSITIVE_MARKOV, (1, 2, 5, 10)),
            (THREE_STATE, (1, 2, 5, 13)),
            (MARKOV_3, (1, 2, 5, 11)),
        ],
    )
    def test_spectrum_multiset_equals_enumeration(self, mu, lengths):
        for length in lengths:
            lm, lc = log_mass_spectrum(mu, length)
            counts = np.round(np.exp(lc)).astype(int)
            expanded = np.sort(np.repeat(lm, counts))
            direct = np.sort(enumerate_log_masses(mu, length))
            assert expanded.shape == direct.shape, length
            assert np.allclose(expanded, direct, atol=1e-12), length

    def test_uniform_single_class(self):
        lm, lc = log_mass_spectrum(UNIFORM2, 30)
        assert lm.shape == (1,)
        assert lm[0] == pytest.approx(-30 * math.log(2))
        assert lc[0] == pytest.approx(30 * math.log(2))

    def test_spectrum_total_matches_word_count(self):
        for length in (4, 9, 14):
            _, lc = log_mass_spectrum(GOLDEN_MARKOV, length)
            total = float(np.logaddexp.reduce(lc))
            assert total == pytest.approx(
                math.log(count_words(GOLDEN_SPACE, length)), abs=1e-9
            )
            assert support_word_count(GOLDEN_MARKOV, length) == count_words(
                GOLDEN_SPACE, length
            )

    @pytest.mark.parametrize(
        "P",
        [((0.5, 0.5), (1.0, 0.0)), ((0.0, 1.0), (0.4, 0.6)), ((0.0, 1.0), (1.0, 0.0))],
    )
    def test_zero_self_transition_prunes_classes(self, P):
        # a zero self-transition leaves one zero count per run-count class:
        # about 2L classes at window length L, not about L^2 / 4
        lm, lc = log_mass_spectrum(MarkovMeasure(P), 1243)
        assert lm.size == lc.size <= 2 * 1243

    def test_unavailable_spectra(self):
        # past ENUMERATION_LIMIT classes: C(304, 3) type classes at L = 301, and
        # for the chain both 3 C(203, 4) transition-count classes and the
        # support words at L = 200
        assert log_mass_spectrum(BernoulliMeasure((0.2, 0.3, 0.5)), 5) is not None
        assert log_mass_spectrum(BernoulliMeasure((0.1, 0.2, 0.3, 0.4)), 301) is None
        assert log_mass_spectrum(THREE_STATE, 5) is not None
        assert log_mass_spectrum(THREE_STATE, 200) is None


def test_log_factorial_table_grows_and_stays_read_only(monkeypatch):
    # start from ln 0! alone, then grow, grow, and read a prefix
    monkeypatch.setattr(measures, "_LGFACT", measures._LGFACT[:1])
    for n in (5, 900, 10):
        table = measures._lgfact_table(n)
        expected = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable
        assert not measures._LGFACT.flags.writeable
    assert measures._LGFACT.size == 901


class TestMinimalCover:
    def test_uniform_frozen_counts(self):
        assert math.exp(minimal_cover_log_count(UNIFORM2, 10, 0.1)) == pytest.approx(
            922.0, abs=1e-6
        )
        assert math.exp(minimal_cover_log_count(UNIFORM2, 4, 0.25)) == pytest.approx(
            12.0, abs=1e-9
        )

    @pytest.mark.parametrize("mu,length", [(SKEWED, 12), (GOLDEN_MARKOV, 11), (UNIFORM2, 10)])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.25, 0.4, 0.9])
    def test_backends_agree(self, mu, length, delta):
        via_spectrum = minimal_cover_log_count(mu, length, delta)
        masses = enumerate_log_masses(mu, length)
        via_enumeration = _cover_from_sorted(masses, np.zeros(masses.shape), delta, length)
        via_queue = _pq_cover_log_count(mu, length, delta)
        assert via_spectrum == pytest.approx(via_enumeration, abs=1e-9)
        assert via_spectrum == pytest.approx(via_queue, abs=1e-9)

    @pytest.mark.parametrize(
        "length, order, dropped, left",
        [(8, "word", 3, "0.448"), (400, "class", 20, "0.27")],
        ids=["exact-route", "log-route"],
    )
    def test_truncated_spectrum_refused(self, length, order, dropped, left):
        # drop the classes of heaviest words (8 symbols: ln 219 was returned,
        # the words left) or heaviest classes (400 symbols: 400 ln 2)
        log_mass, log_count = log_mass_spectrum(SKEWED, length)
        weight = log_mass if order == "word" else log_mass + log_count
        kept = np.argsort(-weight)[dropped:]
        message = f"window length {length}: total mass {left}.* short of 1 - delta = 0.75"
        with pytest.raises(WindowTooLarge, match=message):
            _cover_from_sorted(log_mass[kept], log_count[kept], 0.25, length)

    def test_tiny_delta_takes_everything(self):
        total = math.log(support_word_count(GOLDEN_MARKOV, 9))
        assert minimal_cover_log_count(GOLDEN_MARKOV, 9, 1e-9) == pytest.approx(
            total, abs=1e-6
        )

    def test_monotone_in_delta(self):
        big = minimal_cover_log_count(SKEWED, 14, 0.1)
        small = minimal_cover_log_count(SKEWED, 14, 0.4)
        assert big >= small

    def test_long_window_rates_near_entropy(self):
        for mu, h in ((SKEWED, 0.6108643020548935), (GOLDEN_MARKOV, (2 / 3) * math.log(2))):
            rate = minimal_cover_log_count(mu, 400, 0.1) / 400
            assert h - 0.01 < rate < h + 0.05

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(measures, "ENUMERATION_LIMIT", 5000)
        with pytest.raises(WindowTooLarge, match="5000-node budget"):
            minimal_cover_log_count(THREE_STATE, 40, 0.1)

    def test_too_many_type_classes_fall_back_to_prefix_expansion(self, monkeypatch):
        # C(42, 2) = 861 type classes at L = 40 exceed the limit of 50
        monkeypatch.setattr(measures, "ENUMERATION_LIMIT", 50)
        with pytest.raises(WindowTooLarge, match="50-node budget"):
            minimal_cover_log_count(BernoulliMeasure((0.2, 0.3, 0.5)), 40, 0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2])
    def test_delta_validation(self, delta):
        with pytest.raises(HypothesisViolated, match=r"delta must lie in \(0, 1\)"):
            minimal_cover_log_count(UNIFORM2, 5, delta)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta(self, delta):
        with pytest.raises(HypothesisViolated, match=f"delta must be finite, got {delta}"):
            minimal_cover_log_count(UNIFORM2, 5, delta)
