"""Shift-space construction, word counts, entropy oracle, sampling, shifting."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import allows, coordinate, point_word, shift_point, trimmed_states
from shiftmetrics import errors, shiftspace
from shiftmetrics.shiftspace import (
    _strong_components,
    count_words,
    make_space,
    point_from_window,
    sample_point,
    sample_points,
    top_entropy_oracle,
)

GOLDEN = [[1, 1], [1, 0]]


@pytest.fixture(scope="module")
def full2():
    return make_space(2)


@pytest.fixture(scope="module")
def golden():
    return make_space(2, GOLDEN)


def brute_force_count(transition, length):
    """Independent oracle: enumerate words and filter by the transition."""
    M = len(transition)
    total = 0
    for w in itertools.product(range(M), repeat=length):
        if all(transition[w[t]][w[t + 1]] for t in range(length - 1)):
            total += 1
    return total


class TestMakeSpace:
    def test_full_shift_alive(self, full2):
        assert full2.is_full
        assert full2.alive_states == (0, 1)

    def test_golden_alive(self, golden):
        assert golden.alive_states == (0, 1)
        assert allows(golden, 0, 1) and allows(golden, 1, 0)
        assert not allows(golden, 1, 1)

    def test_dead_state_trimmed(self):
        # state 0 has no incoming edge and is removed; state 1 self-loops
        sp = make_space(2, [[0, 1], [0, 1]])
        assert sp.alive_states == (1,)
        assert count_words(sp, 1) == 1

    def test_all_states_dead(self):
        with pytest.raises(errors.AllStatesDead):
            make_space(2, [[0, 0], [0, 0]])

    def test_bad_matrix_shape(self):
        with pytest.raises(errors.BadMatrix):
            make_space(2, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])

    def test_bad_matrix_entries(self):
        with pytest.raises(errors.BadMatrix):
            make_space(2, [[1, 2], [1, 0]])

    def test_structural_equality(self, golden):
        assert golden == make_space(2, GOLDEN)
        assert golden != make_space(2)

    def test_full_shift_adjacency_is_all_true(self):
        for M in range(1, 8):
            sp = make_space(M)
            assert sp.adjacency.shape == (M, M) and sp.adjacency.all()
            assert not sp.adjacency.flags.writeable


SQUARE_01 = st.integers(min_value=1, max_value=7).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


@given(SQUARE_01)
@example([[0]])
@example([[0] * 7] * 7)
@example([[1] * 7] * 7)
@example([[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
@settings(max_examples=300, deadline=None)
def test_space_tables_match_the_input_oracle(transition):
    """Every table of a space against the one-state-at-a-time trim of its
    input matrix and ``allows`` read off that matrix."""
    M = len(transition)
    alive = trimmed_states(np.array(transition))
    if not alive:
        with pytest.raises(errors.AllStatesDead):
            make_space(M, transition)
        return
    sp = make_space(M, transition)
    assert sp.alive_states == alive
    expected = np.array([[allows(sp, i, j) for j in range(M)] for i in range(M)])
    assert np.array_equal(sp.adjacency, expected)
    for s in range(M):
        succ = sp._succ[s, : sp._n_succ[s]].tolist()
        pred = sp._pred[s, : sp._n_pred[s]].tolist()
        assert succ == [t for t in range(M) if allows(sp, s, t)]
        assert pred == [t for t in range(M) if allows(sp, t, s)]
    ending = [1] * len(alive)
    counts = [1]
    for length in range(1, 12):
        if length > 1:
            ending = [
                sum(e for s, e in zip(alive, ending) if allows(sp, s, t)) for t in alive
            ]
        counts.append(sum(ending))
    assert shiftspace.word_counts(sp, range(12)) == tuple(counts)


class TestCountWords:
    def test_full_shift_exact(self, full2):
        assert count_words(full2, 3) == 8
        assert count_words(full2, 0) == 1

    def test_golden_small_counts_match_brute_force(self, golden):
        # frozen oracle values from direct enumeration
        assert brute_force_count(GOLDEN, 3) == 5
        for L in range(1, 9):
            assert count_words(golden, L) == brute_force_count(GOLDEN, L)

    def test_length_one_is_alive_count(self, golden):
        assert count_words(golden, 1) == 2

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=12))
    def test_full_shift_power_law(self, M, L):
        assert count_words(make_space(M), L) == M**L

    def test_one_step_growth_bound(self, golden):
        for L in range(1, 30):
            assert count_words(golden, L + 1) <= 2 * count_words(golden, L)

    @pytest.mark.parametrize("transition", [None, GOLDEN, [[0, 1], [1, 0]]])
    def test_log_count_per_symbol_nonincreasing(self, transition):
        sp = make_space(2, transition)
        ratios = [math.log(count_words(sp, L)) / L for L in range(1, 41)]
        for r0, r1 in zip(ratios, ratios[1:]):
            assert r1 <= r0 + 1e-9


def regular_sft(m: int, d: int, rng) -> np.ndarray:
    """A random 0/1 matrix with ``d`` ones in every row and at least one in
    every column, so no state is trimmed and the spectral radius is ``d``."""
    while True:
        mat = np.zeros((m, m), dtype=np.int64)
        for row in mat:
            row[rng.choice(m, size=d, replace=False)] = 1
        if mat.sum(axis=0).all():
            return mat


class TestTopEntropyOracle:
    def test_full_shifts(self):
        assert top_entropy_oracle(make_space(2)) == pytest.approx(math.log(2), abs=1e-12)
        assert top_entropy_oracle(make_space(3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_golden_mean(self, golden):
        assert top_entropy_oracle(golden) == math.log((1 + math.sqrt(5)) / 2)

    @pytest.mark.parametrize("m", [16, 24, 32])
    def test_regular_sfts_give_ln_d(self, m):
        # an eigen-solve is exact only to a few eps * ||A||: up to 32 ulps of
        # ln 4 over 600 random draws at these sizes, so the bound is 1e-14
        # (45 ulps) rather than a fixed ulp count
        rng = np.random.default_rng(m)
        for _ in range(5):
            h = top_entropy_oracle(make_space(m, regular_sft(m, 4, rng)))
            assert h == pytest.approx(math.log(4), rel=0, abs=1e-14)

    def test_period_two_cycle(self):
        sp = make_space(2, [[0, 1], [1, 0]])
        assert top_entropy_oracle(sp) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "transition, h",
        [
            ([[1, 1], [0, 1]], 0.0),
            ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 0.0),
            ([[1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0]], math.log((1 + 5**0.5) / 2)),
        ],
    )
    def test_reducible_sfts(self, transition, h):
        # the spectral radius of a nonnegative matrix is an eigenvalue, so a
        # reducible SFT's entropy is read like any other's
        sp = make_space(len(transition), transition)
        assert len(sp.alive_states) == len(transition)
        assert top_entropy_oracle(sp) == pytest.approx(h, rel=0, abs=1e-12)

    def test_one_cycle_reads_zero_exactly(self):
        # the whole-matrix eigen-solve read -2.2e-16 on the 3-cycle
        sp = make_space(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert top_entropy_oracle(sp) == 0.0

    def test_golden_components_in_series(self):
        # components {0, 3} and {1, 2} are each a golden-mean graph, joined
        # by the edge 1 -> 3; the whole matrix read 4.5e-9 off ln phi
        sp = make_space(4, [[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0]])
        phi = math.log((1 + math.sqrt(5)) / 2)
        assert abs(top_entropy_oracle(sp) - phi) <= math.ulp(phi)

    def test_two_cycles_in_series_read_zero_exactly(self):
        # components {0, 3} and {1, 2} are 2-cycles; the whole matrix read 1.8e-8
        sp = make_space(4, [[0, 0, 0, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
        assert top_entropy_oracle(sp) == 0.0

    def test_irreducible_and_triangular_keep_their_bits(self, golden):
        # one component keeps the whole-matrix eigen-solve; self-loops read 1
        assert top_entropy_oracle(golden) == math.log((1 + math.sqrt(5)) / 2)
        assert top_entropy_oracle(make_space(2, [[1, 1], [0, 1]])) == 0.0

    def test_every_three_state_adjacency(self):
        # never negative; an irreducible adjacency that is not one cycle
        # reads the whole-matrix eigen-solve bit for bit
        for bits in range(1, 2**9):
            A = np.array([(bits >> k) & 1 for k in range(9)]).reshape(3, 3)
            try:
                sp = make_space(3, A.tolist())
            except errors.ShiftMetricsError:
                continue
            h = top_entropy_oracle(sp)
            assert h >= 0.0, A
            B = sp.adjacency[np.ix_(sp.alive_states, sp.alive_states)].astype(float)
            if len(_strong_components(B > 0)) == 1 and not (B.sum(axis=1) == 1).all():
                assert h == math.log(np.linalg.eigvals(B).real.max()), A

    def test_strong_components(self):
        # 0 <-> 3 and 1 <-> 2, one edge 1 -> 3 between, and 4 on its own
        positive = np.zeros((5, 5), dtype=bool)
        for s, t in ((0, 3), (3, 0), (1, 2), (2, 1), (1, 3)):
            positive[s, t] = True
        assert _strong_components(positive) == [[0, 3], [1, 2], [4]]
        assert _strong_components(np.ones((3, 3), dtype=bool)) == [[0, 1, 2]]

    def test_growth_rate_matches_counts(self, golden):
        # independent consistency: ln count(L)/L approaches the oracle
        h = top_entropy_oracle(golden)
        est = math.log(count_words(golden, 400)) / 400
        assert est == pytest.approx(h, rel=1e-2)


class TestIsAdmissible:
    #: state 3 has an in-edge (from 0) but no out-edge, so it is trimmed
    TRIMMED = [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]

    @pytest.mark.parametrize("symbol", ["x", 1.5, -1, 2, None, float("nan"), 1 + 0j])
    def test_non_symbols_are_not_admissible(self, golden, symbol):
        assert golden.is_admissible([0, symbol, 0]) is False
        assert golden.is_admissible([symbol]) is False

    def test_integer_valued_entries_count(self, golden):
        assert golden.is_admissible([1.0, np.int64(0), True]) is True
        assert golden.is_admissible([0, 1.0, True]) is False  # the factor 11
        assert golden.is_admissible(np.array([1, 0, 1], dtype=np.uint8)) is True
        assert golden.is_admissible([Fraction(1), 0]) is True
        assert golden.is_admissible([Fraction(1, 2), 0]) is False

    def test_dead_state_of_trimmed_sft(self):
        sp = make_space(4, self.TRIMMED)
        assert sp.alive_states == (0, 1, 2)
        assert sp.is_admissible([0, 1, 2, 1, 0])
        # 0 -> 3 is a 1 in the matrix, but state 3 is dead
        assert not sp.is_admissible([0, 3])
        assert not sp.is_admissible([3])

    def test_empty_word(self, golden):
        assert golden.is_admissible([]) is True
        assert golden.is_admissible(np.array([], dtype=np.int64)) is True

    def test_nested_and_ragged_words(self, golden):
        assert golden.is_admissible([[0, 1]]) is False
        assert golden.is_admissible([[0, 1], [0]]) is False


class TestSamplePoint:
    def test_deterministic(self, golden):
        x = sample_point(golden, 20, 42)
        y = sample_point(golden, 20, 42)
        assert x == y
        assert x != sample_point(golden, 20, 43)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_admissibility_property(self, seed):
        golden = make_space(2, GOLDEN)
        x = sample_point(golden, 12, seed)
        w = x.window()
        assert golden.is_admissible(list(w))

    def test_none_seed_refused(self, golden):
        # None would draw OS entropy, and the point would not reproduce
        with pytest.raises(TypeError, match="seed must be an integer, got None"):
            sample_points(golden, 4, [0, None])

    @pytest.mark.parametrize("seed", [1.5, "3", np.float64(2.0), [1, 2]])
    def test_non_integer_seed_refused(self, golden, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            sample_points(golden, 4, [seed])

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
    def test_negative_seed_refused(self, golden, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {int(seed)}"):
            sample_points(golden, 4, [seed])

    def test_numpy_integer_and_bool_seeds_accepted(self, golden):
        points = sample_points(golden, 6, [np.int64(5), np.uint64(5), np.int16(5), True, False])
        assert points[:3] == [sample_point(golden, 6, 5)] * 3
        assert points[3:] == [sample_point(golden, 6, 1), sample_point(golden, 6, 0)]

    def test_thousand_seeds_no_forbidden_factor(self, golden):
        for seed in range(1000):
            w = sample_point(golden, 8, seed).window()
            assert not any(w[t] == 1 and w[t + 1] == 1 for t in range(len(w) - 1))


class TestShiftPoint:
    def test_relabeling(self, full2):
        x = sample_point(full2, 10, 0)
        y = shift_point(x, 4)
        assert y.horizon == 6
        assert all(coordinate(y, t) == coordinate(x, t + 4) for t in range(-6, 7))
        # the shifted window is a read-only view, exactly [-6, 6]
        assert y.symbols.size == 13 and np.shares_memory(y.symbols, x.symbols)
        assert not y.symbols.flags.writeable

    def test_round_trip_on_common_window(self, full2):
        x = sample_point(full2, 10, 1)
        back = shift_point(shift_point(x, 1), -1)
        assert back.horizon == 8
        assert back.agrees_with(x, -8, 8)

    def test_horizon_exceeded(self, full2):
        x = sample_point(full2, 5, 2)
        with pytest.raises(errors.HorizonExceeded):
            shift_point(x, 6)
        assert shift_point(x, 5).horizon == 0

    def test_zero_shift_identity(self, full2):
        x = sample_point(full2, 5, 3)
        assert shift_point(x, 0) == x


class TestPointWindow:
    def test_point_from_window_validates(self, golden):
        with pytest.raises(errors.InadmissibleWord):
            point_from_window(golden, [0, 1, 1, 0, 0])
        x = point_from_window(golden, [0, 1, 0, 0, 1])
        assert x.horizon == 2 and coordinate(x, 0) == 0

    @pytest.mark.parametrize("word", [[0, 1.5, 0], (0, 1.5, 0), np.array([0.0, 1.5, 0.0])])
    def test_non_integer_symbol_is_refused_not_truncated(self, golden, word):
        with pytest.raises(errors.InadmissibleWord):
            point_from_window(golden, word)

    def test_integer_valued_entries_are_accepted(self, golden):
        for word in ([0, 1.0, 0], [Fraction(0), Fraction(1), 0], np.array([0.0, 1.0, 0.0])):
            x = point_from_window(golden, word)
            assert x.symbols.dtype == np.int64 and x.symbols.tolist() == [0, 1, 0]

    def test_word_extraction(self, full2):
        x = point_from_window(full2, [1, 0, 1])
        w = point_word(x, -1, 1)
        assert w.symbols == (1, 0, 1) and w.anchor == -1

    @pytest.mark.parametrize("symbols", [np.array([0, 1, 0, 1]), np.zeros((3, 3), dtype=np.int64)])
    def test_point_refuses_a_window_not_1d_of_odd_length(self, full2, symbols):
        with pytest.raises(errors.HorizonExceeded, match="1-D of odd length"):
            shiftspace.Point(full2, symbols)

    def test_point_reads_its_horizon_off_the_window(self, full2):
        x = shiftspace.Point(full2, np.array([0, 1, 0, 1, 1]))
        assert x.horizon == 2 and x.window(-2, 2).tolist() == [0, 1, 0, 1, 1]
        with pytest.raises(TypeError):
            shiftspace.Point(full2, np.array([0, 1, 0, 1, 1]), 7)

    def test_window_bounds_checked(self, full2):
        x = point_from_window(full2, [1, 0, 1])
        with pytest.raises(errors.HorizonExceeded):
            x.window(-2, 2)
