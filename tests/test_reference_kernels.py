"""Differential tests: the batch word counts and point walk, the
table-driven sampler, the vectorised admissibility check, the cylinder
windows of every estimator ladder and the exact cover kernels against the
scalar code they replaced, and the direct spectral solvers against a dense
eigensolver and against the power iterations they replaced.

The references below are kept here only as oracles.
``reference_count_words`` is the exact transfer-matrix power count made
afresh for each length; ``reference_walk`` draws each symbol of a seeded
point from its own uniform, one symbol at a time; ``reference_sample``
draws every symbol with ``rng.choice(m, p=law)`` in the order center,
forward, backward; ``reference_sample_window`` in ``reference.py`` is the
per-seed ``bisect_right`` walk that the batch sampler
``sample_typical_windows`` replaced, ``reference_block_log_mass`` the
one-block scalar mass that the batch information read replaced,
``reference_block_information`` the per-window gather that the reader of
one gather per batch replaced, and
``reference_point_fit`` reads one window's ladder through it; ``reference_is_admissible`` walks the word symbol by
symbol; ``reference_cover_length_at_radius`` and
``reference_cover_length_at_log_radius`` are the closed-form window lengths
the counting estimators used before every ladder was built from
``cylinders`` windows.  ``reference_from_points`` (one scalar ``rho`` call
per pair) in ``reference.py`` is the pair-at-a-time metric code that the
batch rho kernel replaced; ``table_single_disagreement_distances`` (a full
shifted table per position) is the reduction that the hyperbolicity
certificate's closed form replaced, and ``sampled_pair_distances`` with
``reference_verify_hyperbolicity`` (one binary search and one pair at a
time) checks sampled pairs against that certificate, and against
``shifted_rho_tables`` with ``sampled_hyperbolicity``, the batch form of the
same check;
``reference_check_quasi_metric`` searches every k's full
mask for violations, ``reference_frink_metrize`` runs the K-test,
Floyd-Warshall and the triangle recheck over every row, and
``reference_minimax_closure``, the min-max Floyd-Warshall loop, checks
the closure read off Prim's tree; ``reference_walk`` also pins each seed's uniforms to
``default_rng(seed)``.
``reference_markov_spectrum`` (one run-count class at
a time), ``reference_bernoulli_spectrum`` (three closed-form special cases)
and ``reference_merge_equal_mass`` (one reduction per tie group) are the
cover kernels that the broadcast spectrum, the type-class spectrum and the
``reduceat`` merge replaced, and ``enumerate_log_masses`` fed to
``_cover_from_sorted`` is the word-by-word cover that the transition-count
spectrum replaced; ``reference_transition_count_spectrum`` is the merge of
one length, with keys packed at that length, that one merge per call to the
longest length replaced.  The fast versions must agree exactly.
"""
import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    PAIR_CHUNK,
    allows,
    chunked_shifted_rho_tables,
    from_words,
    orbit_closed_sample,
    perron_bracket,
    power_stationary,
    power_top_entropy,
    reference_alive_states,
    reference_average,
    reference_bernoulli_spectrum,
    reference_block_information,
    reference_block_log_mass,
    reference_check_quasi_metric,
    reference_fit_slope,
    reference_frink_metrize,
    reference_from_points,
    reference_markov_spectrum,
    reference_merge_equal_mass,
    reference_minimax_closure,
    reference_sample_window,
    reference_shifted_rho_table,
    reference_transition_count_spectrum,
    reference_verify_hyperbolicity,
    sampled_hyperbolicity,
    sampled_pair_distances,
    shift_point,
    shifted_rho_tables,
    table_single_disagreement_distances,
)
from shiftmetrics import (
    BernoulliMeasure,
    FiniteSample,
    MarkovMeasure,
    MatherParams,
    MetricParams,
    RadiusLadder,
    check_quasi_metric,
    count_words,
    enumerate_log_masses,
    frink_metrize,
    log_mass_spectrum,
    make_space,
    mather_n0,
    minimal_cover_log_count,
    minimal_cover_log_counts,
    p_of_log_r,
    p_of_r,
    point_from_window,
    sample_point,
    sample_points,
    sample_typical,
    sample_typical_windows,
    stationary,
    top_entropy_oracle,
    verify_hyperbolicity,
    word_counts,
)
from shiftmetrics import measures
from shiftmetrics.errors import (
    BadMeasure,
    DifferentSpaces,
    HypothesisViolated,
    QuasiMetricViolated,
    SaturatedDistances,
    ShiftMetricsError,
    WindowTooLarge,
)
from shiftmetrics.cli import _synthetic_quasi_sample
from shiftmetrics.estimators import (
    DEFAULT_LADDER,
    DEFAULT_R1,
    KINDS,
    _mass_block,
    estimate_kind,
    kind_ladder,
)
from shiftmetrics.measures import (
    _bernoulli_spectrum,
    _cover_from_sorted,
    _information_reader,
    _markov_spectrum,
    _merge_equal_mass,
    _pq_cover_log_count,
    _transition_count_spectra,
    reversed_kernel,
)
from shiftmetrics.metrics import (
    ONE_SIDED,
    VERIFY_TOL,
    _hyperbolicity_report,
    _single_disagreement_distances,
)
from shiftmetrics.shiftspace import ShiftSpace

SEEDS = range(200)
HORIZON = 40
GOLDEN_SPACE = make_space(2, [[1, 1], [1, 0]])
#: the three-state chain of the benchmark's measure workload
MARKOV_3 = MarkovMeasure(((0.2, 0.5, 0.3), (0.4, 0.1, 0.5), (0.3, 0.3, 0.4)))
MEASURES = {
    "bernoulli(.3,.7)": BernoulliMeasure((0.3, 0.7)),
    "bernoulli(.2,.3,.5)": BernoulliMeasure((0.2, 0.3, 0.5)),
    "bernoulli(.5,0,.5)": BernoulliMeasure((0.5, 0.0, 0.5)),
    "markov(golden)": MarkovMeasure(((0.5, 0.5), (1.0, 0.0))),
    "markov(3)": MARKOV_3,
}
#: spaces the measures are supported on, for the ``space=`` variant
SPACES = {
    "bernoulli(.3,.7)": make_space(2),
    "bernoulli(.2,.3,.5)": make_space(3),
    "bernoulli(.5,0,.5)": make_space(3, [[1, 0, 1], [0, 0, 0], [1, 0, 1]]),
    "markov(golden)": GOLDEN_SPACE,
    "markov(3)": make_space(3),
}
#: four states; state 3 has an in-edge (from 0) but no out-edge, so it is trimmed
TRIMMED = make_space(4, [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])


def reference_sample(mu, horizon, seed):
    """The symbol-by-symbol ``rng.choice`` sampler (window -horizon..horizon)."""
    rng = np.random.default_rng(seed)
    m = mu.alphabet_size
    buf = np.empty(2 * horizon + 1, dtype=np.int64)
    if isinstance(mu, BernoulliMeasure):
        weights = np.asarray(mu.weights)
        buf[horizon] = rng.choice(m, p=weights)
        for t in range(1, horizon + 1):
            buf[horizon + t] = rng.choice(m, p=weights)
        for t in range(1, horizon + 1):
            buf[horizon - t] = rng.choice(m, p=weights)
    else:
        P = np.asarray(mu.P)
        hat = reversed_kernel(mu)
        buf[horizon] = rng.choice(m, p=np.asarray(mu.pi))
        for t in range(1, horizon + 1):
            buf[horizon + t] = rng.choice(m, p=P[buf[horizon + t - 1]])
        for t in range(1, horizon + 1):
            buf[horizon - t] = rng.choice(m, p=hat[buf[horizon - t + 1]])
    return buf


def reference_is_admissible(space: ShiftSpace, symbols) -> bool:
    """The symbol-by-symbol admissibility walk (it raises on a non-numeric symbol)."""
    seq = list(symbols)
    if any((not isinstance(int(c), int)) or c < 0 or c >= space.alphabet_size for c in seq):
        return False
    if any(c not in reference_alive_states(space) for c in seq):
        return False
    return all(allows(space, seq[t], seq[t + 1]) for t in range(len(seq) - 1))


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_sampler_reproduces_the_choice_stream(name):
    mu = MEASURES[name]
    for seed in SEEDS:
        expected = reference_sample(mu, HORIZON, seed).tobytes()
        for space in (None, SPACES[name]):
            x = sample_typical(mu, HORIZON, seed, space)
            assert x.symbols.dtype == np.int64
            assert x.symbols.tobytes() == expected, (name, seed, space)
            assert x.horizon == HORIZON and x.symbols.size == 2 * HORIZON + 1
            assert x.space == (space or make_space(mu.alphabet_size))


@pytest.mark.parametrize("horizon", [1, 2, 7])
def test_short_horizons(horizon):
    for mu in MEASURES.values():
        for seed in range(20):
            x = sample_typical(mu, horizon, seed)
            assert x.symbols.tobytes() == reference_sample(mu, horizon, seed).tobytes()


# ---------------------------------------------------------------------------
# the batch typical-point layer against the per-seed walk and scalar masses
# ---------------------------------------------------------------------------

#: a Bernoulli measure with a zero weight, the golden chain, and the
#: non-reversible three-state chain, whose backward kernel is not its forward one
BATCH_MEASURES = ("bernoulli(.5,0,.5)", "markov(golden)", "markov(3)")
BATCH_SEEDS = range(7, 47)
MASS_KINDS = [kind for kind, spec in KINDS.items() if spec.reads == "mass"]


@pytest.mark.parametrize("horizon", [1, 2, 160])
@pytest.mark.parametrize("name", BATCH_MEASURES)
def test_batch_windows_are_the_per_seed_walks(name, horizon):
    mu = MEASURES[name]
    for space in (None, SPACES[name]):
        windows = sample_typical_windows(mu, horizon, BATCH_SEEDS, space)
        assert windows.dtype == np.int64 and windows.shape == (len(BATCH_SEEDS), 2 * horizon + 1)
        assert not windows.flags.writeable
        for row, seed in zip(windows, BATCH_SEEDS):
            expected = reference_sample_window(mu, horizon, seed)
            assert row.tobytes() == expected.tobytes(), (seed, space)
    # the walk oracle is itself the rng.choice stream
    for seed in BATCH_SEEDS[:5]:
        expected = reference_sample(mu, horizon, seed).tobytes()
        assert reference_sample_window(mu, horizon, seed).tobytes() == expected


@pytest.mark.parametrize("name", BATCH_MEASURES)
def test_batch_seeds_are_integers_at_least_zero(name):
    mu = MEASURES[name]
    windows = sample_typical_windows(mu, 6, [np.int64(5), np.uint16(9), True, 2**40])
    for row, seed in zip(windows, (5, 9, 1, 2**40)):
        assert row.tobytes() == reference_sample_window(mu, 6, seed).tobytes()
    with pytest.raises(TypeError, match="seed must be an integer, got None"):
        sample_typical_windows(mu, 6, [0, None])
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_typical_windows(mu, 6, [3, np.int64(-1)])


@pytest.mark.parametrize("name", BATCH_MEASURES)
def test_batch_information_is_the_scalar_mass(name):
    mu = MEASURES[name]
    windows = sample_typical_windows(mu, 160, BATCH_SEEDS)
    information = _information_reader(mu, windows)
    for lo, hi in ((0, 1), (160, 161), (5, 7), (100, 221), (0, 321)):
        block = windows[:, lo:hi]
        expected = np.array([-reference_block_log_mass(mu, row) for row in block])
        assert information(lo, hi).tobytes() == expected.tobytes(), (lo, hi)
        assert reference_block_information(mu, block).tobytes() == expected.tobytes(), (lo, hi)


@pytest.mark.parametrize(
    "name, blocks",
    [("bernoulli(.5,0,.5)", [[0, 2, 2], [0, 1, 2]]), ("markov(golden)", [[0, 1, 0], [0, 1, 1]])],
)
def test_batch_information_of_a_null_cylinder(name, blocks):
    mu = MEASURES[name]
    information = _information_reader(mu, np.array(blocks))(0, 3)
    expected = np.array([-reference_block_log_mass(mu, np.array(b)) for b in blocks])
    assert information.tobytes() == expected.tobytes()
    assert math.isfinite(information[0]) and information[1] == math.inf


#: both families, each with a null cylinder: a zero weight, and a zero
#: transition on a chain of two and of three states
INFORMATION_MEASURES = (
    MEASURES["bernoulli(.3,.7)"],
    MEASURES["bernoulli(.5,0,.5)"],
    MEASURES["markov(golden)"],
    MARKOV_3,
    MarkovMeasure(((0.2, 0.8, 0.0), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0))),
)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.sampled_from(INFORMATION_MEASURES),
    horizon=st.integers(1, 200),
    rows=st.integers(1, 12),
    how=st.sampled_from(["sampled", "random", "one-symbol"]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
)
def test_costs_gathered_once_give_each_window_its_own_bits(mu, horizon, rows, how, seed, cuts):
    """The reader of one gather gives every window the bits of a gather of
    that window alone: sampled, random (null cylinders included) and
    one-symbol rows, windows of one symbol up to the whole row."""
    width = 2 * horizon + 1
    rng = np.random.default_rng(seed)
    if how == "sampled":
        windows = sample_typical_windows(mu, horizon, range(seed, seed + rows))
    elif how == "random":
        windows = rng.integers(0, mu.alphabet_size, (rows, width))
    else:
        windows = np.repeat(rng.integers(0, mu.alphabet_size, (rows, 1)), width, axis=1)
    information = _information_reader(mu, windows)
    spans = [(0, width), (horizon, horizon + 1)]
    for a, b in cuts:
        lo = min(int(a * width), width - 1)
        spans.append((lo, lo + 1 + min(int(b * (width - lo)), width - lo - 1)))
    for lo, hi in spans:
        expected = reference_block_information(mu, windows[:, lo:hi])
        assert information(lo, hi).tobytes() == expected.tobytes(), (lo, hi)


def test_a_window_off_the_support_is_refused():
    """The first ladder window that holds a null cylinder refuses the batch;
    a ladder short of it reads every row."""
    mu = MEASURES["markov(golden)"]
    windows = np.zeros((3, 21), dtype=np.int64)  # horizon 10, all zeros
    windows[1, 16:18] = 1  # the null step 1 -> 1 at coordinates 6, 7
    short = _ladder_of(range(2, 6))
    xs, block, saturated = _mass_block(mu, windows, short)
    assert len(xs) == 4 and block.shape == (3, 4) and not saturated
    assert np.isfinite(block).all()
    with pytest.raises(BadMeasure, match="the point leaves the support of the measure"):
        _mass_block(mu, windows, _ladder_of(range(2, 16)))


def _ladder_of(depths):
    """Bowen windows of the golden shift at the given depths."""
    return KINDS["brin_katok"].ladder(MetricParams(2.0, 2.0), depths, 0.0, DEFAULT_R1)


def reference_point_fit(mu, row, ladder):
    """One typical window's ladder fit, one scalar mass per ladder window."""
    horizon = (row.size - 1) // 2
    xs, ys, saturated = [], [], False
    for x, window in zip(ladder.xs, ladder.windows):
        if max(-window.lo, window.hi) > horizon:
            saturated = True
            continue
        block = row[horizon + window.lo : horizon + window.hi + 1]
        xs.append(x)
        ys.append(ladder.sign * -reference_block_log_mass(mu, block))
    return reference_fit_slope(xs, ys, ladder.key, saturated)


@pytest.mark.parametrize("kind", MASS_KINDS)
@pytest.mark.parametrize("name", BATCH_MEASURES)
def test_averaged_slopes_are_the_per_point_fits(name, kind):
    mu, spec, params = MEASURES[name], KINDS[kind], MetricParams(1.3, 1.3)
    rate = spec.rate_from()
    ladder = kind_ladder(kind)
    est = estimate_kind(
        kind, SPACES[name], params, mu, ladder, rate, horizon=160, n_points=6, seed=11
    )
    steps = spec.ladder(params, ladder, rate, DEFAULT_R1)
    ref = reference_average(
        [reference_point_fit(mu, reference_sample_window(mu, 160, s), steps) for s in range(11, 17)]
    )
    for field in ("slope", "intercept", "residual_rms", "saturated", "point_slopes"):
        assert repr(getattr(est, field)) == repr(getattr(ref, field)), field


def random_words(rng, space, n_words):
    """Integer words over -1..M, some out of range, some through dead states."""
    for _ in range(n_words):
        length = int(rng.integers(0, 10))
        if rng.random() < 0.5:
            # walk the transition matrix so that many words are admissible
            word = [int(rng.integers(0, space.alphabet_size))]
            for _ in range(length - 1):
                row = np.flatnonzero(space.transition[word[-1]])
                word.append(int(rng.choice(row)) if row.size else 0)
            yield word[:length]
        else:
            yield rng.integers(-1, space.alphabet_size + 1, size=length).tolist()


def test_admissibility_matches_the_scalar_walk():
    rng = np.random.default_rng(0)
    verdicts = []
    for word in random_words(rng, TRIMMED, 3000):
        expected = reference_is_admissible(TRIMMED, word)
        verdicts.append(expected)
        for form in (word, tuple(word), np.array(word, dtype=np.int64), [float(c) for c in word]):
            assert TRIMMED.is_admissible(form) is expected, (word, type(form))
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("space", [make_space(3), GOLDEN_SPACE, TRIMMED], ids=repr)
def test_admissibility_on_every_short_word(space):
    for length in range(4):
        for word in itertools.product(range(-1, space.alphabet_size + 1), repeat=length):
            assert space.is_admissible(word) is reference_is_admissible(space, word), word


def reference_cover_length_at_radius(params: MetricParams, r: float) -> int:
    """Window length of the cylinder equal to a radius-r ball."""
    if params.mode == ONE_SIDED:
        return p_of_r(r, params.b)
    return p_of_r(r, params.b) + p_of_r(r, params.a) - 1


def reference_cover_length_at_log_radius(params: MetricParams, log_r: float) -> int:
    if params.mode == ONE_SIDED:
        return p_of_log_r(log_r, params.b)
    return p_of_log_r(log_r, params.b) + p_of_log_r(log_r, params.a) - 1


def reference_length(kind: str, params: MetricParams, step, rate: float, r1: float) -> int:
    """The window length a kind's ladder step had: a radius-``step`` ball, or
    depth t = ``step`` past the fixed radius r1 or the shrinking e^{-t r}."""
    if KINDS[kind].depths is None:
        return reference_cover_length_at_radius(params, step)
    if KINDS[kind].rate == "r" and rate > 0.0:
        return reference_cover_length_at_log_radius(params, -step * rate) + step
    return reference_cover_length_at_radius(params, r1) + step


BASES = (1.05, 1.25, math.sqrt(2.0), 2.0, 3.0)
WINDOW_PARAMS = [MetricParams(a, b) for a in BASES for b in BASES] + [
    MetricParams(1.3, b, mode=ONE_SIDED) for b in BASES
]


def boundary_ladder(params: MetricParams) -> RadiusLadder:
    """The default dimension ladder plus every radius a**-j and b**-j that
    lies on a window boundary of the metric."""
    radii = set(RadiusLadder.geometric(*DEFAULT_LADDER))
    for base in {params.a, params.b}:
        radii.update(base**-j for j in range(1, 80))
    return RadiusLadder(tuple(sorted((r for r in radii if 0.0 < r < 1.0), reverse=True)))


@pytest.mark.parametrize(
    "params", WINDOW_PARAMS, ids=lambda p: f"{p.mode}-a{p.a:.3g}-b{p.b:.3g}"
)
def test_ladder_windows_have_the_closed_form_lengths(params):
    depths = range(1, 201)
    radii = boundary_ladder(params)
    bound = 3.0 / params.k()
    for kind, spec in KINDS.items():
        ladder = radii if spec.depths is None else depths
        rates = [0.0] if spec.rate != "r" else [q for q in (0.01, 0.05, 0.2) if q < bound]
        for r1, rate in itertools.product((0.9, 0.5), rates):
            windows = spec.ladder(params, ladder, rate, r1).windows
            lengths = [w.length for w in windows]
            expected = [reference_length(kind, params, step, rate, r1) for step in ladder]
            assert lengths == expected, (kind, r1, rate)


def seeded_sft(m: int, seed: int) -> ShiftSpace:
    """A random 0/1 subshift on m symbols; some states may be trimmed."""
    rng = np.random.default_rng(seed)
    return make_space(m, (rng.random((m, m)) < 0.2).astype(int))


COUNT_SPACES = {
    "full:3": make_space(3),
    "golden": GOLDEN_SPACE,
    "trimmed": TRIMMED,
    "sft:16": seeded_sft(16, 1),
    "sft:32": seeded_sft(32, 2),
}


def _mat_mul(A, B):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if a:
                for j in range(n):
                    out[i][j] += a * B[k][j]
    return out


def _mat_pow(A, e):
    n = len(A)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in A]
    while e > 0:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


def reference_count_words(space: ShiftSpace, length: int) -> int:
    """Sum of the entries of T^(length - 1), T the alive-state transitions."""
    if length == 0:
        return 1
    if space.is_full:
        return space.alphabet_size**length
    alive = reference_alive_states(space)
    sub = [[int(space.transition[s, t]) for t in alive] for s in alive]
    return sum(map(sum, _mat_pow(sub, length - 1)))


@pytest.mark.parametrize("name", sorted(COUNT_SPACES))
def test_word_counts_match_the_matrix_powers(name):
    space = COUNT_SPACES[name]
    rng = np.random.default_rng(len(name))
    lengths = [int(n) for n in rng.permutation(301)]
    lengths += lengths[:40]  # duplicates, requested again out of order
    counts = word_counts(space, lengths)
    assert len(counts) == len(lengths)
    # every length on the small spaces; a seeded dozen of them on M = 16, 32
    checked = lengths if space.alphabet_size < 16 else lengths[:36:3] + [300]
    expected = {n: reference_count_words(space, n) for n in checked}
    for n, count in zip(lengths, counts):
        if n in expected:
            assert count == expected[n], n
    for n in checked[:10]:
        assert count_words(space, n) == expected[n]
    assert word_counts(space, []) == ()


def reference_walk(space: ShiftSpace, horizon: int, seed: int) -> np.ndarray:
    """The symbol-by-symbol seeded walk: uniform start, then uniform steps
    forward over out-edges and backward over in-edges, both read off
    ``reference.allows`` rather than the sampler's neighbour tables."""
    u = np.random.default_rng(seed).random(2 * horizon + 1)
    alive = reference_alive_states(space)
    buf = [0] * (2 * horizon + 1)
    buf[horizon] = alive[int(u[0] * len(alive))]
    for t in range(1, horizon + 1):
        choices = [s for s in alive if allows(space, buf[horizon + t - 1], s)]
        buf[horizon + t] = choices[int(u[t] * len(choices))]
    for t in range(1, horizon + 1):
        choices = [s for s in alive if allows(space, s, buf[horizon - t + 1])]
        buf[horizon - t] = choices[int(u[horizon + t] * len(choices))]
    return np.array(buf, dtype=np.int64)


WALK_SPACES = {
    "full:2": make_space(2),
    "golden": GOLDEN_SPACE,
    "trimmed": TRIMMED,
    "sft:16": COUNT_SPACES["sft:16"],
}


#: seeds of one to seven 32-bit words around the word and pool boundaries of
#: NumPy's seed hash (four words fill its pool; more mix in afterwards)
LARGE_SEEDS = [
    2**32 - 1,
    2**32,
    2**64 - 1,
    2**64 + 5,
    2**127 + 12345,
    2**128 - 1,
    2**128,
    2**200,
]
#: NumPy integer seeds, which ``default_rng`` takes too
NUMPY_SEEDS = [np.int64(7), np.uint64(2**64 - 1), np.uint32(9), np.int8(3)]
#: more than 384 seeds in one walk, one-word and many-word seeds mixed
WALK_SEEDS = [*SEEDS, *LARGE_SEEDS, *NUMPY_SEEDS, *range(len(SEEDS), 384)]


@pytest.mark.parametrize("horizon", [0, 1, 7, 60, 192])
@pytest.mark.parametrize("name", sorted(WALK_SPACES))
def test_batch_walk_reproduces_the_scalar_walk(name, horizon):
    space = WALK_SPACES[name]
    points = sample_points(space, horizon, WALK_SEEDS)
    assert len(points) == len(WALK_SEEDS) > 384
    for seed, x in zip(WALK_SEEDS, points):
        assert x.symbols.dtype == np.int64
        assert x.symbols.tobytes() == reference_walk(space, horizon, seed).tobytes(), seed
        assert (x.horizon, x.space) == (horizon, space)
        assert x.symbols.size == 2 * horizon + 1
    for i in range(0, len(WALK_SEEDS), len(WALK_SEEDS) // 5):
        assert sample_point(space, horizon, WALK_SEEDS[i]) == points[i]


def has_positive_power(mat: np.ndarray) -> bool:
    """Primitivity: squaring the support until the exponent passes Wielandt's
    bound (m - 1)^2 + 1 leaves no zero."""
    m = mat.shape[0]
    power, exponent = (mat > 0).astype(np.int64), 1
    while exponent < (m - 1) ** 2 + 1:
        power = (power @ power > 0).astype(np.int64)
        exponent *= 2
    return bool(power.all())


def random_primitive(m: int, rng) -> np.ndarray:
    """A random 0/1 matrix with a positive power (and no trimmed state)."""
    while True:
        mat = (rng.random((m, m)) < max(0.15, 2.5 / m)).astype(np.int64)
        if has_positive_power(mat):
            return mat


@pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 32, 64])
def test_spectral_solvers_match_the_dense_eigensolver(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        mat = random_primitive(m, rng)
        radius = max(abs(np.linalg.eigvals(mat.astype(float))))
        assert top_entropy_oracle(make_space(m, mat)) == pytest.approx(math.log(radius), abs=1e-10)
        P = mat * rng.random((m, m))
        P /= P.sum(axis=1, keepdims=True)
        values, vectors = np.linalg.eig(P.T)
        pi = np.real(vectors[:, np.argmin(abs(values - 1.0))])
        np.testing.assert_allclose(stationary(P), pi / pi.sum(), rtol=0, atol=1e-10)


@st.composite
def square_matrices(draw, max_m, elements):
    m = draw(st.integers(min_value=2, max_value=max_m))
    entries = draw(st.lists(elements, min_size=m * m, max_size=m * m))
    return np.array(entries).reshape(m, m)


@settings(deadline=None)
@given(square_matrices(7, st.integers(min_value=0, max_value=1)))
def test_top_entropy_matches_the_certified_power_iteration(mat):
    assume(has_positive_power(mat))
    lo, hi = perron_bracket(mat)
    h = top_entropy_oracle(make_space(len(mat), mat))
    assert lo * (1 - 1e-13) <= math.exp(h) <= hi * (1 + 1e-13)
    assert h == pytest.approx(math.log((lo + hi) / 2), rel=1e-10)


def test_power_iteration_stopped_where_its_estimate_turned():
    # the eigenvalues are phi^2, phi^-2 and three others, so h = 2 ln phi;
    # the T + I estimates rise to 2.618181818... at step 6 and then fall, and
    # the successive-estimate rule stopped there, 5.6e-5 (relative) high
    mat = [[0, 1, 1, 0, 1], [1, 0, 0, 1, 0], [0, 1, 1, 0, 0], [0, 1, 1, 1, 1], [0, 1, 0, 1, 0]]
    space = make_space(5, mat)
    h = 2 * math.log((1 + math.sqrt(5)) / 2)
    assert top_entropy_oracle(space) == pytest.approx(h, rel=1e-14)
    assert power_top_entropy(space) == pytest.approx(h, rel=1e-4)
    assert power_top_entropy(space) != pytest.approx(h, rel=1e-5)


@settings(deadline=None)
@given(square_matrices(5, st.integers(min_value=0, max_value=9)))
def test_stationary_matches_the_lazy_power_iteration(weights):
    rows = weights.sum(axis=1, keepdims=True)
    assume(rows.all())
    m = len(weights)
    reach = np.linalg.matrix_power(weights + np.eye(m, dtype=np.int64) > 0, m - 1)
    assume(reach.all())  # strongly connected
    P = weights / rows
    pi = stationary(P)
    np.testing.assert_allclose(pi, power_stationary(P), rtol=0, atol=1e-9)
    assert np.max(np.abs(pi @ P - pi)) <= 1e-14


# ---------------------------------------------------------------------------
# rho matrices, shifted-distance tables and the hyperbolicity check
# ---------------------------------------------------------------------------

RHO_PARAMS = {
    "two-sided": MetricParams(1.3, 1.3),
    # a resolved side often fails to dominate what the other side could add
    "skewed": MetricParams(1.1, 2.0),
    "one-sided": MetricParams(1.3, 1.7, mode=ONE_SIDED),
}
FULL_2 = make_space(2)


def single_flips(horizon: int, flips) -> list:
    """Points of full:2 that are 0 on -horizon..horizon except at ``flips``:
    most pairs agree on all but one or two coordinates, so sides saturate."""
    points = [point_from_window(FULL_2, [0] * (2 * horizon + 1))]
    for coords in flips:
        window = np.zeros(2 * horizon + 1, dtype=np.int64)
        window[[horizon + t for t in coords]] = 1
        points.append(point_from_window(FULL_2, window))
    return points


def mixed_horizons(points, spread: int) -> list:
    """Each point shifted by its own amount in [-spread, spread]."""
    return [shift_point(p, (i % (2 * spread + 1)) - spread) for i, p in enumerate(points)]


SAMPLED = sample_points(GOLDEN_SPACE, 30, range(40))
FLIPS = single_flips(6, [(t,) for t in range(-6, 7)] + [(-6, 6), (-2, 3), (0, 5), (-4, -1)])
SAMPLES = {
    "sampled": SAMPLED,
    "saturated": FLIPS,
    "saturated-mixed": FLIPS + mixed_horizons(FLIPS, 4),
    "mixed-horizons": mixed_horizons(SAMPLED, 9),
    "duplicates": SAMPLED[:6] + SAMPLED[:6] + [SAMPLED[0]] * 3,
    "orbit-closed": orbit_closed_sample(SAMPLED[:6], 4),
    "empty": [],
    "one-point": SAMPLED[:1],
    "two-points": SAMPLED[:2],
}


def outcome(compute):
    """The computed array, or the class and message of the refusal."""
    try:
        return compute()
    except ShiftMetricsError as exc:
        return type(exc), str(exc)


def assert_bitwise(fast, slow):
    if isinstance(slow, tuple) or isinstance(fast, tuple):
        assert fast == slow
        return
    assert (fast.shape, fast.dtype) == (slow.shape, slow.dtype)
    assert fast.tobytes() == slow.tobytes()


def reference_tables(pairs, params, max_shift):
    rows = [reference_shifted_rho_table(x, y, params, max_shift) for x, y in pairs]
    return np.array(rows).reshape(len(pairs), 2 * max_shift + 1)


@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_rho_matrix_reproduces_the_scalar_rho(sample, params):
    points, p = SAMPLES[sample], RHO_PARAMS[params]
    fast = FiniteSample.from_points(points, p)
    slow = reference_from_points(points, p)
    assert_bitwise(fast.matrix, slow.matrix)
    assert_bitwise(fast.exact, slow.exact)


def test_saturated_samples_hold_both_exactness_flags():
    # the "saturated" families must exercise the exactness rule, not skip it
    for sample in ("saturated", "saturated-mixed"):
        exact = FiniteSample.from_points(SAMPLES[sample], RHO_PARAMS["skewed"]).exact
        assert exact.any() and not exact.all(), sample


def test_rho_matrix_names_the_first_pair_from_another_space():
    other = sample_points(FULL_2, 30, range(3))
    for points in (SAMPLED[:3] + other, other[:1] + SAMPLED[:4] + other[1:], SAMPLED[:1] + other):
        for params in RHO_PARAMS.values():
            fast = outcome(lambda: FiniteSample.from_points(points, params))
            slow = outcome(lambda: reference_from_points(points, params))
            assert fast[0] is DifferentSpaces
            assert fast == slow


@pytest.mark.parametrize("max_shift", [0, 1, 3, 6])
@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_shifted_tables_reproduce_the_binary_search(sample, params, max_shift):
    points, p = SAMPLES[sample], RHO_PARAMS[params]
    pairs = list(itertools.combinations(points[:16], 2)) + list(zip(points, points[::-1]))
    # every pair alone, then the whole list, which refuses at its first bad pair
    for pair in pairs:
        assert_bitwise(
            outcome(lambda: shifted_rho_tables([pair], p, max_shift)[0]),
            outcome(lambda: reference_shifted_rho_table(*pair, p, max_shift)),
        )
    slow = outcome(lambda: reference_tables(pairs, p, max_shift))
    assert_bitwise(outcome(lambda: shifted_rho_tables(pairs, p, max_shift)), slow)
    assert_bitwise(outcome(lambda: chunked_shifted_rho_tables(pairs, p, max_shift)), slow)


def unresolved_pair():
    """Disagreements only at -2 and +3: shifts past +3 find no forward
    disagreement and shifts below -2 no backward one."""
    return tuple(single_flips(10, [(-2, 3)]))


@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_shifted_table_refusals(params):
    p = RHO_PARAMS[params]
    cases = [
        (DifferentSpaces, SAMPLED[0], sample_point(FULL_2, 30, 0), 3),
        (SaturatedDistances, *sample_points(GOLDEN_SPACE, 4, range(2)), 5),  # horizon below the shift
        (SaturatedDistances, *unresolved_pair(), 5),
    ]
    for expected, x, y, max_shift in cases:
        fast = outcome(lambda: shifted_rho_tables([(x, y)], p, max_shift)[0])
        assert fast == outcome(lambda: reference_shifted_rho_table(x, y, p, max_shift))
        assert fast[0] is expected


def long_pair_list(first_bad: dict[int, tuple]) -> list:
    """Sampled pairs filling three blocks, with the pairs at the given
    indices replaced."""
    points = sample_points(GOLDEN_SPACE, 30, range(4 * PAIR_CHUNK + 40))
    pairs = list(zip(points[0::2], points[1::2]))
    for index, pair in first_bad.items():
        pairs[index] = pair
    return pairs


BAD_PAIRS = {
    "unresolved": unresolved_pair(),
    "spaces": (SAMPLED[0], sample_point(FULL_2, 30, 0)),
    "horizon": tuple(sample_points(GOLDEN_SPACE, 4, range(2))),
}


@pytest.mark.parametrize(
    "placement",
    [
        {3: "spaces", 7: "unresolved"},
        {3: "unresolved", 7: "spaces"},
        {PAIR_CHUNK + 5: "unresolved", PAIR_CHUNK + 9: "horizon"},
        {PAIR_CHUNK - 1: "horizon", PAIR_CHUNK: "spaces"},
        {2 * PAIR_CHUNK + 1: "spaces", 2 * PAIR_CHUNK + 2: "unresolved"},
    ],
    ids=lambda placement: "-".join(f"{k}{v}" for k, v in placement.items()),
)
@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_many_pairs_refuse_at_their_first_bad_pair(placement, params):
    p = RHO_PARAMS[params]
    pairs = long_pair_list({index: BAD_PAIRS[kind] for index, kind in placement.items()})
    fast = outcome(lambda: shifted_rho_tables(pairs, p, 8))
    assert isinstance(fast, tuple)
    assert fast == outcome(lambda: reference_tables(pairs, p, 8))
    assert outcome(lambda: chunked_shifted_rho_tables(pairs, p, 8)) == fast
    mp = MatherParams(gamma=0.05, n0=7, k1=1.2, k2=1.2)
    assert outcome(lambda: sampled_hyperbolicity(pairs, mp, p)) == fast
    assert outcome(lambda: reference_verify_hyperbolicity(pairs, mp, p)) == fast


def test_many_pairs_span_blocks():
    pairs = long_pair_list({})
    p = RHO_PARAMS["two-sided"]
    for kernel in (shifted_rho_tables, chunked_shifted_rho_tables):
        assert_bitwise(kernel(pairs, p, 8), reference_tables(pairs, p, 8))
        assert_bitwise(kernel([], p, 8), reference_tables([], p, 8))


@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_hyperbolicity_report_reproduces_the_pair_loop(params):
    # the package's reduction, fed sampled pairs with many disagreements,
    # against the pair-at-a-time fold
    p = RHO_PARAMS[params]
    mp = MatherParams(gamma=0.05, n0=4, k1=1.2, k2=1.2)
    points = sample_points(GOLDEN_SPACE, 60, range(2 * PAIR_CHUNK + 30))
    for pairs in (
        list(zip(points[0::2], points[1::2])),
        list(zip(mixed_horizons(points[:60], 6), points[60:120])),
        [(points[0], points[0]), (points[1], points[2])],
        [(points[0], points[0])],
    ):
        assert sampled_hyperbolicity(pairs, mp, p) == reference_verify_hyperbolicity(pairs, mp, p)


def test_hyperbolicity_report_at_the_cli_scale():
    p = RHO_PARAMS["two-sided"]
    mp = mather_n0(p, 0.05)
    points = sample_points(GOLDEN_SPACE, 4 * mp.n0 + 48, range(600))
    pairs = list(zip(points[0::2], points[1::2]))
    assert sampled_hyperbolicity(pairs, mp, p) == reference_verify_hyperbolicity(pairs, mp, p)


def test_hyperbolicity_refuses_an_empty_pair_list():
    mp = MatherParams(gamma=0.05, n0=4, k1=1.2, k2=1.2)
    with pytest.raises(HypothesisViolated, match="at least one pair"):
        sampled_hyperbolicity([], mp, RHO_PARAMS["two-sided"])


#: (a, b, gamma) of the hyperbolicity certificate, n0 from 5 to 263
CERTIFICATE_PARAMS = [
    (1.3, 1.3, 0.05),  # the CLI default, n0 = 36
    (1.2, 1.9, 0.05),
    (1.9, 1.2, 0.01),
    (2.0, 2.0, 0.5),
    (1.1, 1.1, 0.05),
    (1.5, 1.5, 0.1),
    (1.05, 1.7, 0.02),
]


def certificate(a, b, gamma):
    params = MetricParams(a, b)
    return mather_n0(params, gamma), params


def report_at(positions, mp, params):
    """The counts and margins of the single-disagreement pairs at ``positions``."""
    return _hyperbolicity_report(*_single_disagreement_distances(positions, mp, params), mp, params)


def counted(report):
    """Everything but the two worst margins, which are maxima over the
    positions checked."""
    return dataclasses.replace(
        report, pairs_checked=0, worst_lipschitz_margin=0.0, worst_sandwich_margin=0.0
    )


@pytest.mark.parametrize("a, b, gamma", CERTIFICATE_PARAMS)
def test_certificate_reproduces_the_table(a, b, gamma):
    mp, params = certificate(a, b, gamma)
    positions = np.arange(-(mp.n0 + 2), mp.n0 + 3)
    fast = _single_disagreement_distances(positions, mp, params)
    slow = table_single_disagreement_distances(positions, mp, params)
    for f, s in zip(fast, slow, strict=True):
        assert_bitwise(f, s)


@pytest.mark.parametrize("a, b, gamma", CERTIFICATE_PARAMS)
def test_certificate_positions_are_exhaustive(a, b, gamma):
    mp, params = certificate(a, b, gamma)
    reach = 6 * mp.n0 + 20
    positions = np.arange(-reach, reach + 1)
    # relative counts hold only where every value is a normal float: past
    # that, d~ = 0 beside a subnormal shifted d~ reads as a violation
    values = _single_disagreement_distances(positions, mp, params)
    normal = positions[np.min(values, axis=0) >= np.finfo(float).tiny]
    assert normal.min() < -2 * mp.n0 and normal.max() > 2 * mp.n0
    wide = report_at(normal, mp, params)
    report = verify_hyperbolicity(mp, params)
    assert report.pairs_checked == 2 * mp.n0 + 5
    assert counted(wide) == counted(report)
    assert wide.worst_lipschitz_margin >= report.worst_lipschitz_margin
    assert wide.worst_sandwich_margin >= report.worst_sandwich_margin


@pytest.mark.parametrize("a, b, gamma", CERTIFICATE_PARAMS[:3])
@pytest.mark.parametrize("space", ["full:2", "golden"])
def test_sampled_pairs_lie_inside_the_certificate(space, a, b, gamma):
    # a pair's rho and d~ are maxima over its disagreements of the
    # single-disagreement values, so no sampled pair can fail where they pass
    mp, params = certificate(a, b, gamma)
    points = sample_points(WALK_SPACES[space], 4 * mp.n0 + 48, range(200))
    pairs = list(zip(points[0::2], points[1::2]))
    for x, y in pairs:
        positions = np.flatnonzero(x.symbols != y.symbols) - x.horizon
        per_position = _single_disagreement_distances(positions, mp, params)
        assert_bitwise(
            np.array([v.max() for v in per_position]),
            np.array(sampled_pair_distances(x, y, mp, params)),
        )
    report = verify_hyperbolicity(mp, params)
    sampled = reference_verify_hyperbolicity(pairs, mp, params)
    assert sampled.pairs_checked == len(pairs)
    assert sampled.lipschitz_forward_violations == sampled.lipschitz_backward_violations == 0
    assert sampled.sandwich_violations == sampled.expansion_failures == 0
    assert sampled.eps_prime >= report.eps_prime


def test_expansion_failures_are_counted_below_the_additive_slack():
    # at (1.2, 1.9) the threshold is 3.1e-15, far below VERIFY_TOL, yet a
    # pair whose shifts do not separate it must still fail (i)
    mp, params = certificate(1.2, 1.9, 0.05)
    rho0, d0, dp, dm = _single_disagreement_distances(np.arange(-(mp.n0 + 2), mp.n0 + 3), mp, params)
    report = _hyperbolicity_report(rho0, d0, dp, dm, mp, params)
    assert 0.0 < report.threshold < VERIFY_TOL
    assert report.expansion_failures == 0
    stuck = _hyperbolicity_report(rho0, d0, 0.0 * dp, 0.0 * dm, mp, params)
    assert stuck.expansion_failures == stuck.pairs_checked == 2 * mp.n0 + 5


@pytest.mark.parametrize("a, b", [(1.3, 1.3), (1.2, 1.9)])
def test_faults_at_the_far_edge_are_counted(a, b):
    # the outermost positions hold values near b**-(n0 + 2) = 1.8e-21 at
    # (1.3, 1.3), far below VERIFY_TOL; a fault there must still count
    mp, params = certificate(a, b, 0.01)
    positions = np.arange(-(mp.n0 + 2), mp.n0 + 3)
    rho0, d0, dp, dm = _single_disagreement_distances(positions, mp, params)
    assert _hyperbolicity_report(rho0, d0, dp, dm, mp, params).sandwich_violations == 0
    # weighted runs that read 6 shifts past the window depth
    deep = dataclasses.replace(mp, n0=mp.n0 + 6)
    overrun = _hyperbolicity_report(
        *_single_disagreement_distances(positions, deep, params), mp, params
    )
    assert overrun.sandwich_violations == 4
    # d~ = 20 rho at the four outermost positions
    edge = [0, 1, -2, -1]
    inflated = d0.copy()
    inflated[edge] = 20.0 * rho0[edge]
    assert max(rho0[edge].max(), inflated[edge].max()) < VERIFY_TOL
    assert _hyperbolicity_report(rho0, inflated, dp, dm, mp, params).sandwich_violations == 4


@pytest.mark.parametrize("a, b, gamma, n0", [(1.3, 1.3, 6e-4, 3003), (1.2, 1.9, 2e-3, 1317)])
def test_underflowing_certificate_refused(a, b, gamma, n0):
    # values that underflow to 0 would make every count read 0
    mp, params = certificate(a, b, gamma)
    assert mp.n0 == n0
    with pytest.raises(HypothesisViolated, match=f"n0 = {n0} .*smallest normal 2.22507e-308"):
        verify_hyperbolicity(mp, params)


def test_deepest_normal_certificate_passes():
    # at (1.3, 1.3) every value is still a normal float at n0 = 2574
    mp, params = certificate(1.3, 1.3, 7e-4)
    report = verify_hyperbolicity(mp, params)
    assert report.pairs_checked == 2 * 2574 + 5
    assert report.threshold >= np.finfo(float).tiny
    assert report.lipschitz_forward_violations == report.lipschitz_backward_violations == 0
    assert report.sandwich_violations == report.expansion_failures == 0


def test_certificate_emits_no_warning():
    # far positions underflow to 0; every power has a nonpositive exponent,
    # and the certificate refuses the underflowed depth without a warning
    params = MetricParams(1.3, 1.3)
    mp = mather_n0(params, 1e-4)
    reach = 6 * mp.n0 + 20
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        report_at(np.arange(-reach, reach + 1), mp, params)
        with pytest.raises(HypothesisViolated, match="smallest normal"):
            verify_hyperbolicity(mp, params)


# ---------------------------------------------------------------------------
# the K-relaxed triangle test
# ---------------------------------------------------------------------------


def near_ultrametric(n: int, seed: int, factor: float = 3.0) -> np.ndarray:
    """A random ultrametric on n points with one pair raised ``factor``-fold:
    the rows of that pair are the only ones its closure cannot certify."""
    points = sample_points(GOLDEN_SPACE, 30, range(seed, seed + n))
    U = FiniteSample.from_points(points, RHO_PARAMS["two-sided"]).matrix
    i, j = np.argwhere(U > 0)[np.random.default_rng(seed).integers(np.count_nonzero(U))]
    R = U.copy()
    R[i, j] = R[j, i] = factor * U[i, j]
    return R


def violating_samples():
    """Symmetric random matrices (many violations), a passing symbolic
    sample, and a near-ultrametric matrix with one raised pair."""
    rng = np.random.default_rng(7)
    out = []
    for n in (3, 5, 12, 30):
        R = rng.random((n, n))
        R = np.maximum(R, R.T)
        np.fill_diagonal(R, 0.0)
        out.append(FiniteSample.from_matrix(R))
    out.append(FiniteSample.from_points(SAMPLED, RHO_PARAMS["skewed"]))
    out.append(FiniteSample.from_matrix(near_ultrametric(30, 4)))
    return out


QUASI_SAMPLES = violating_samples()
RANDOM, SYMBOLIC, NEAR_ULTRAMETRIC = QUASI_SAMPLES[:4], QUASI_SAMPLES[4], QUASI_SAMPLES[5]


@pytest.mark.parametrize("index", range(len(QUASI_SAMPLES)))
@pytest.mark.parametrize("K", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_quasi_metric_triples_keep_their_order(index, K):
    sample = QUASI_SAMPLES[index]
    assert check_quasi_metric(sample, K) == reference_check_quasi_metric(sample, K)


def test_quasi_metric_samples_fail_and_pass():
    # the random matrices must produce triples (the largest even at K = 4),
    # the symbolic sample none, and the raised pair of the near-ultrametric
    # matrix triples at K = 2 from its two rows only
    assert all(check_quasi_metric(sample, 1.0) for sample in RANDOM)
    assert check_quasi_metric(RANDOM[-1], 4.0)
    assert check_quasi_metric(SYMBOLIC, 1.0) == []
    triples = check_quasi_metric(NEAR_ULTRAMETRIC, 2.0)
    raised = {i for i, j, k in triples}
    assert len(raised) == 2 and check_quasi_metric(NEAR_ULTRAMETRIC, 4.0) == []
    R, C = NEAR_ULTRAMETRIC.matrix, NEAR_ULTRAMETRIC.closure
    assert set(np.flatnonzero((R > C).any(axis=1))) == raised


# ---------------------------------------------------------------------------
# the minimax closure and chain metrization
# ---------------------------------------------------------------------------


def rounded(n: int, seed: int, decimals: int) -> np.ndarray:
    """A random symmetric matrix rounded to ``decimals``, so entries tie."""
    R = np.round(np.random.default_rng(seed).random((n, n)), decimals)
    R = np.maximum(R, R.T)
    np.fill_diagonal(R, 0.0)
    return R


def word_samples():
    """Criterion 9's whole-word samples: every binary word of each length."""
    params = MetricParams(1.3, 1.3)
    return {
        f"words-{length}": from_words(
            [tuple((idx >> t) & 1 for t in range(length)) for idx in range(2**length)],
            -(length // 2),
            params,
        )
        for length in range(1, 8)
    }


FRINK_SAMPLES = {
    **{
        f"symbolic-{mode}": FiniteSample.from_points(
            sample_points(GOLDEN_SPACE, 60, range(100, 160)), params
        )
        for mode, params in RHO_PARAMS.items()
    },
    **{
        f"synthetic-{seed}": _synthetic_quasi_sample(60, np.random.default_rng(seed))
        for seed in (0, 3, 17)
    },
    **{f"random-{i}": sample for i, sample in enumerate(RANDOM)},
    **{f"size-{n}": FiniteSample.from_matrix(rounded(n, n, 2)) for n in range(4)},
    # ties: many equal links, some failing the K = 2 test and some passing
    **{f"ties-{d}": FiniteSample.from_matrix(rounded(25, d, d)) for d in (0, 1)},
    "ties-shifted": FiniteSample.from_matrix(rounded(25, 2, 1) + 1.0 - np.eye(25)),
    "near-ultrametric": NEAR_ULTRAMETRIC,
    # raised less than 2-fold: passes the K = 2 test, and a chain shortens it
    "near-ultrametric-1.5": FiniteSample.from_matrix(near_ultrametric(40, 9, 1.5)),
    **word_samples(),
}


@pytest.mark.parametrize("name", sorted(FRINK_SAMPLES))
def test_frink_metrize_reproduces_the_three_loops(name):
    sample = FRINK_SAMPLES[name]
    assert_bitwise(
        outcome(lambda: frink_metrize(sample)), outcome(lambda: reference_frink_metrize(sample))
    )


def test_frink_samples_reach_every_outcome():
    results = {name: outcome(lambda: frink_metrize(s)) for name, s in FRINK_SAMPLES.items()}
    assert isinstance(results["synthetic-0"], np.ndarray)
    assert results["random-3"][0] is QuasiMetricViolated
    assert results["near-ultrametric"][0] is QuasiMetricViolated
    assert isinstance(results["ties-shifted"], np.ndarray)
    D = results["near-ultrametric-1.5"]
    # the raised pair, shortened by a chain
    assert (D < FRINK_SAMPLES["near-ultrametric-1.5"].matrix).sum() == 2


@pytest.mark.parametrize("name", sorted(FRINK_SAMPLES))
def test_closure_is_the_minimax_chain(name):
    sample = FRINK_SAMPLES[name]
    C = sample.closure
    assert C.tobytes() == reference_minimax_closure(sample.matrix).tobytes()
    if name.startswith(("symbolic", "words")):
        assert C.tobytes() == sample.matrix.tobytes()


@pytest.mark.parametrize("i", [1, 7, 25, 49])
def test_cli_synthetic_samples_are_uncertified_whole(i):
    # the closure certifies none of their rows for Floyd-Warshall and all of
    # them at K = 2, so certifying the sample whole costs no scan it skipped;
    # symbolic samples are their own closure (`test_closure_is_the_minimax_chain`)
    sample = _synthetic_quasi_sample(200, np.random.default_rng(5_000_000 + i))
    R, C = sample.matrix, sample.closure
    assert (R > C).any(axis=1).all()
    assert (R <= 2.0 * C + VERIFY_TOL).all()


# ---------------------------------------------------------------------------
# exact cover kernels
# ---------------------------------------------------------------------------

#: two-state chains: each zero self-transition alone, both, and neither
TWO_STATE_CHAINS = {
    "p00=0": MarkovMeasure(((0.0, 1.0), (0.4, 0.6))),
    "p11=0": MEASURES["markov(golden)"],
    "positive": MarkovMeasure(((0.3, 0.7), (0.6, 0.4))),
    "flip": MarkovMeasure(((0.0, 1.0), (1.0, 0.0))),
}


@pytest.mark.parametrize("chain", sorted(TWO_STATE_CHAINS))
@pytest.mark.parametrize("length", [*range(1, 41), 301, 901, 1243])
def test_markov_spectrum_reproduces_the_run_length_loop(chain, length):
    mu = TWO_STATE_CHAINS[chain]
    fast_mass, fast_count = _markov_spectrum(mu, length)
    slow_mass, slow_count = reference_markov_spectrum(mu, length)
    assert_bitwise(fast_mass, slow_mass)
    assert_bitwise(fast_count, slow_count)


#: the Bernoulli families the closed-form spectrum covered
CLOSED_FORM_BERNOULLI = {
    "(.3,.7)": BernoulliMeasure((0.3, 0.7)),
    "(.7,.3)": BernoulliMeasure((0.7, 0.3)),
    "(.5,.5)": BernoulliMeasure((0.5, 0.5)),
    "uniform(3)": BernoulliMeasure((1 / 3, 1 / 3, 1 / 3)),
    "(1,0)": BernoulliMeasure((1.0, 0.0)),
    "(0,.4,.6)": BernoulliMeasure((0.0, 0.4, 0.6)),
}
#: measures it left to enumeration, with the longest enumerated window each
#: is checked at (4**10 words bounds the four-symbol case)
TYPE_CLASS_BERNOULLI = {
    "(.2,.3,.5)": (BernoulliMeasure((0.2, 0.3, 0.5)), 12),
    "(.25,.25,.5)": (BernoulliMeasure((0.25, 0.25, 0.5)), 12),
    "(.1,.2,.3,.4)": (BernoulliMeasure((0.1, 0.2, 0.3, 0.4)), 10),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_BERNOULLI))
@pytest.mark.parametrize("length", [*range(1, 41), 301, 901, 1243])
def test_type_classes_reproduce_the_closed_forms(name, length):
    mu = CLOSED_FORM_BERNOULLI[name]
    fast_mass, fast_count = _bernoulli_spectrum(mu, length)
    slow_mass, slow_count = reference_bernoulli_spectrum(mu, length)
    assert fast_mass.tobytes() == slow_mass.tobytes()
    assert fast_count.tobytes() == slow_count.tobytes()


@pytest.mark.parametrize("name", sorted(TYPE_CLASS_BERNOULLI))
def test_type_class_cover_equals_the_enumerated_cover(name):
    mu, longest = TYPE_CLASS_BERNOULLI[name]
    assert reference_bernoulli_spectrum(mu, 2) is None
    for length in range(1, longest + 1):
        masses = enumerate_log_masses(mu, length)
        for delta in (0.05, 0.25, 0.9):
            slow = _cover_from_sorted(masses, np.zeros(masses.shape), delta, length)
            assert minimal_cover_log_count(mu, length, delta) == slow, (length, delta)


def relabellings(P):
    """The chain under every permutation of its states."""
    P = np.asarray(P)
    return [P[np.ix_(perm, perm)] for perm in itertools.permutations(range(len(P)))]


#: chains on three or more states, each with the longest window its
#: transition-count cover is checked at against the enumerated cover; the
#: five-state chain's 25 edge counts need two int64 key words from L = 6
TRANSITION_COUNT_CHAINS = {
    **{
        f"markov(3)-relabelled-{i}": (MarkovMeasure(tuple(map(tuple, P))), 13)
        for i, P in enumerate(relabellings(MARKOV_3.P))
    },
    "three-state": (MarkovMeasure(((0.2, 0.8, 0.0), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0))), 13),
    "four-state-with-zero": (
        MarkovMeasure(
            (
                (0.1, 0.4, 0.0, 0.5),
                (0.3, 0.3, 0.2, 0.2),
                (0.25, 0.25, 0.25, 0.25),
                (0.6, 0.1, 0.2, 0.1),
            )
        ),
        10,
    ),
    "five-state": (
        MarkovMeasure(
            (
                (0.1, 0.2, 0.3, 0.15, 0.25),
                (0.3, 0.1, 0.2, 0.25, 0.15),
                (0.2, 0.2, 0.2, 0.2, 0.2),
                (0.05, 0.45, 0.1, 0.3, 0.1),
                (0.4, 0.1, 0.15, 0.05, 0.3),
            )
        ),
        7,
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSITION_COUNT_CHAINS))
def test_transition_count_cover_equals_the_enumerated_cover(name):
    mu, longest = TRANSITION_COUNT_CHAINS[name]
    for length in range(1, longest + 1):
        masses = enumerate_log_masses(mu, length)
        for delta in (0.05, 0.1, 0.25, 0.4, 0.9):
            slow = _cover_from_sorted(masses, np.zeros(masses.shape), delta, length)
            assert minimal_cover_log_count(mu, length, delta) == slow, (length, delta)


@st.composite
def chains_with_zeros(draw):
    """An irreducible chain on 3 to 5 states with random zero entries: the
    cycle 0 -> 1 -> ... -> 0 stays positive, any other entry may be 0."""
    m = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.uniform(0.05, 1.0, (m, m))
    P[rng.random((m, m)) < draw(st.floats(0.0, 0.6))] = 0.0
    P[np.arange(m), (np.arange(m) + 1) % m] += 0.1
    return MarkovMeasure(tuple(map(tuple, P / P.sum(axis=1, keepdims=True))))


#: the longest length drawn for each alphabet, so a merge stays small
SPECTRUM_LENGTHS = {3: 9, 4: 7, 5: 6}


@st.composite
def spectrum_requests(draw):
    """A chain, an unordered length list with repeats that holds 1, and an
    enumeration limit, small enough that some lengths pass it."""
    mu = draw(chains_with_zeros())
    top = SPECTRUM_LENGTHS[mu.alphabet_size]
    lengths = st.lists(st.integers(1, top), max_size=7)
    lengths = draw(lengths.flatmap(lambda drawn: st.permutations([1, *drawn])))
    limit = draw(st.sampled_from([30, 200, 3000, measures.ENUMERATION_LIMIT]))
    return mu, lengths, limit


def reference_covers(mu, lengths, delta):
    """Each length's cover count from its own per-length spectrum, prefix
    expansion past the limit, refusing at the first length that fails."""
    out = []
    for length in lengths:
        spectrum = reference_transition_count_spectrum(mu, length)
        if spectrum is None:
            out.append(_pq_cover_log_count(mu, length, delta))
        else:
            out.append(_cover_from_sorted(*spectrum, delta, length))
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(request=spectrum_requests())
def test_one_merge_gives_every_length_its_own_spectrum(request):
    mu, lengths, limit = request
    with mock.patch.object(measures, "ENUMERATION_LIMIT", limit):
        merged = dict(_transition_count_spectra(mu, lengths))
        expected = {length: reference_transition_count_spectrum(mu, length) for length in lengths}
    assert sorted(merged) == sorted(n for n, spectrum in expected.items() if spectrum is not None)
    for length, (log_mass, log_count) in merged.items():
        assert_bitwise(log_mass, expected[length][0])
        assert_bitwise(log_count, expected[length][1])


@settings(max_examples=60, deadline=None)
@given(request=spectrum_requests(), delta=st.sampled_from([0.05, 0.25, 0.5, 0.9]))
def test_one_merge_gives_every_length_its_own_cover(request, delta):
    """Covers of many lengths from one call: the per-length covers, bit for
    bit, or the refusal of the first length that fails, in the order given."""
    mu, lengths, limit = request
    with mock.patch.object(measures, "ENUMERATION_LIMIT", limit):
        try:
            expected = reference_covers(mu, lengths, delta)
        except WindowTooLarge as exc:
            with pytest.raises(WindowTooLarge) as caught:
                minimal_cover_log_counts(mu, lengths, delta)
            assert str(caught.value) == str(exc)
        else:
            assert minimal_cover_log_counts(mu, lengths, delta) == expected


def test_five_state_merge_repacks_nothing():
    """Keys packed at L = 7 take two int64 words where L = 5 takes one, and
    each length keeps the bits of its own merge."""
    mu, _ = TRANSITION_COUNT_CHAINS["five-state"]
    assert 5 * 5**25 <= 2**63 < 5 * 7**25
    merged = dict(_transition_count_spectra(mu, (7, 5, 6, 5)))
    assert sorted(merged) == [5, 6, 7]
    for length, (log_mass, log_count) in merged.items():
        slow_mass, slow_count = reference_transition_count_spectrum(mu, length)
        assert_bitwise(log_mass, slow_mass)
        assert_bitwise(log_count, slow_count)


@pytest.mark.parametrize("lengths", [(40, 301), (301, 40), (5, 301, 40)])
def test_first_refused_length_in_order_raises(lengths):
    first = next(n for n in lengths if n > 13)
    with pytest.raises(WindowTooLarge, match=f"at window length {first}:"):
        minimal_cover_log_counts(MARKOV_3, lengths, 0.25)


def test_a_merged_length_refuses_in_its_turn(monkeypatch):
    """A cover the merge reaches first still refuses in the order given."""
    cover = measures._cover_from_sorted

    def short_at_6_and_7(log_mass, log_count, delta, length):
        if length in (6, 7):
            raise measures._mass_shortfall(length, 0.5, delta)
        return cover(log_mass, log_count, delta, length)

    monkeypatch.setattr(measures, "_cover_from_sorted", short_at_6_and_7)
    for lengths, first in (((5, 7, 6), 7), ((6, 7), 6), ((8, 6), 6)):
        with pytest.raises(WindowTooLarge, match=f"window length {first}: total mass 0.5"):
            minimal_cover_log_counts(MARKOV_3, lengths, 0.25)
    assert minimal_cover_log_counts(MARKOV_3, (5, 8, 5), 0.25)[0] == cover(
        *reference_transition_count_spectrum(MARKOV_3, 5), 0.25, 5
    )


def test_no_cover_enumerates_words(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cover enumerated words")

    monkeypatch.setattr(measures, "enumerate_log_masses", refuse)
    cases = [(mu, 12) for mu in MEASURES.values()]
    cases += [(mu, longest) for mu, longest in TRANSITION_COUNT_CHAINS.values()]
    cases += [(TYPE_CLASS_BERNOULLI["(.1,.2,.3,.4)"][0], 10), (MarkovMeasure(((1.0,),)), 40)]
    for mu, length in cases:
        assert math.isfinite(minimal_cover_log_count(mu, length, 0.25))
    # past every class limit the cover goes to prefix expansion, which refuses
    with pytest.raises(WindowTooLarge, match="node budget at window length 301"):
        minimal_cover_log_count(MARKOV_3, 301, 0.25)


@pytest.mark.parametrize("name", sorted(TYPE_CLASS_BERNOULLI))
@pytest.mark.parametrize("length", [1, 7, 40, 120])
def test_type_class_count_is_the_composition_count(name, length):
    mu, _ = TYPE_CLASS_BERNOULLI[name]
    k = len(set(mu.weights) - {0.0})
    log_mass, log_count = _bernoulli_spectrum(mu, length)
    assert log_mass.shape == log_count.shape == (math.comb(length + k - 1, k - 1),)
    # the classes hold every word of the support exactly once
    total = float(np.logaddexp.reduce(log_count))
    assert total == pytest.approx(length * math.log(len(mu.support)), rel=1e-12)


def test_type_classes_past_the_limit_are_not_built(monkeypatch):
    mu = TYPE_CLASS_BERNOULLI["(.1,.2,.3,.4)"][0]
    # C(304, 3) = 4,594,600 classes exceed ENUMERATION_LIMIT = 2**22
    assert _bernoulli_spectrum(mu, 301) is None
    monkeypatch.setattr(measures, "ENUMERATION_LIMIT", math.comb(43, 3))
    assert _bernoulli_spectrum(mu, 40)[0].size == math.comb(43, 3)
    assert _bernoulli_spectrum(mu, 41) is None


def merge_inputs():
    """Enumerations (all-zero counts, large tie groups) and spectra."""
    out = {}
    for name, mu in (("bernoulli(.2,.3,.5)", MEASURES["bernoulli(.2,.3,.5)"]), ("markov(3)", MARKOV_3)):
        for length in (9, 12):
            masses = enumerate_log_masses(mu, length)
            out[f"{name}-enumerated-{length}"] = (masses, np.zeros(masses.shape))
    out["golden-spectrum-901"] = log_mass_spectrum(MEASURES["markov(golden)"], 901)
    out["bernoulli(.3,.7)-spectrum-1243"] = log_mass_spectrum(MEASURES["bernoulli(.3,.7)"], 1243)
    out["positive-spectrum-301"] = log_mass_spectrum(TWO_STATE_CHAINS["positive"], 301)
    return out


MERGE_INPUTS = merge_inputs()


@pytest.mark.parametrize("name", sorted(MERGE_INPUTS))
def test_merge_reproduces_the_per_group_reduction(name):
    log_mass, log_count = MERGE_INPUTS[name]
    fast_mass, fast_count = _merge_equal_mass(log_mass, log_count)
    slow_mass, slow_count = reference_merge_equal_mass(log_mass, log_count)
    assert_bitwise(fast_mass, slow_mass)
    assert_bitwise(fast_count, slow_count)


def test_merge_inputs_hold_tie_groups():
    # the enumerations must exercise the multi-entry groups, not only singletons
    for name, (log_mass, log_count) in MERGE_INPUTS.items():
        if "enumerated" in name:
            assert _merge_equal_mass(log_mass, log_count)[0].size < log_mass.size // 10, name


@pytest.mark.parametrize("delta", [0.05, 0.25, 0.9])
def test_golden_cover_equals_the_reference_spectrum_cover(delta):
    golden = MEASURES["markov(golden)"]
    slow = _cover_from_sorted(*reference_markov_spectrum(golden, 1243), delta, 1243)
    assert minimal_cover_log_count(golden, 1243, delta) == slow
