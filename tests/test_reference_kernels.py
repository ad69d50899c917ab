"""Differential tests: the batch word counts and point walk, the
table-driven sampler, the vectorised admissibility check and the cylinder
windows of every estimator ladder against the scalar code they replaced,
and the power-iteration spectral solvers against a dense eigensolver.

The references below are kept here only as oracles.
``reference_count_words`` is the exact transfer-matrix power count made
afresh for each length; ``reference_walk`` draws each symbol of a seeded
point from its own uniform, one symbol at a time; ``reference_sample``
draws every symbol with ``rng.choice(m, p=law)`` in the order center,
forward, backward; ``reference_is_admissible`` walks the word symbol by
symbol; ``reference_cover_length_at_radius`` and
``reference_cover_length_at_log_radius`` are the closed-form window lengths
the counting estimators used before every ladder was built from
``cylinders`` windows.  The fast versions must agree exactly.
"""
import itertools
import math

import numpy as np
import pytest

from shiftmetrics import (
    BernoulliMeasure,
    MarkovMeasure,
    MetricParams,
    RadiusLadder,
    count_words,
    make_space,
    p_of_log_r,
    p_of_r,
    q_of_log_r,
    q_of_r,
    sample_point,
    sample_points,
    sample_typical,
    stationary,
    top_entropy_oracle,
    word_counts,
)
from shiftmetrics.estimators import DEFAULT_LADDER, KINDS
from shiftmetrics.measures import reversed_kernel
from shiftmetrics.metrics import ONE_SIDED
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
    if any(c not in space._alive_pos for c in seq):
        return False
    return all(space.allows(seq[t], seq[t + 1]) for t in range(len(seq) - 1))


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_sampler_reproduces_the_choice_stream(name):
    mu = MEASURES[name]
    for seed in SEEDS:
        expected = reference_sample(mu, HORIZON, seed).tobytes()
        for space in (None, SPACES[name]):
            x = sample_typical(mu, HORIZON, seed, space)
            assert x.symbols.dtype == np.int64
            assert x.symbols.tobytes() == expected, (name, seed, space)
            assert (x.center, x.horizon) == (HORIZON, HORIZON)
            assert x.space == (space or make_space(mu.alphabet_size))


@pytest.mark.parametrize("horizon", [1, 2, 7])
def test_short_horizons(horizon):
    for mu in MEASURES.values():
        for seed in range(20):
            x = sample_typical(mu, horizon, seed)
            assert x.symbols.tobytes() == reference_sample(mu, horizon, seed).tobytes()


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
    return p_of_r(r, params.b) + q_of_r(r, params.a) - 1


def reference_cover_length_at_log_radius(params: MetricParams, log_r: float) -> int:
    if params.mode == ONE_SIDED:
        return p_of_log_r(log_r, params.b)
    return p_of_log_r(log_r, params.b) + q_of_log_r(log_r, params.a) - 1


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
    alive = space.alive_states
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
    forward over out-edges and backward over in-edges."""
    u = np.random.default_rng(seed).random(2 * horizon + 2)
    alive = space.alive_states
    buf = [0] * (2 * horizon + 1)
    buf[horizon] = alive[int(u[0] * len(alive))]
    for t in range(1, horizon + 1):
        choices = space.out_symbols(buf[horizon + t - 1])
        buf[horizon + t] = choices[int(u[t] * len(choices))]
    for t in range(1, horizon + 1):
        choices = space.in_symbols(buf[horizon - t + 1])
        buf[horizon - t] = choices[int(u[horizon + t] * len(choices))]
    return np.array(buf, dtype=np.int64)


WALK_SPACES = {
    "full:2": make_space(2),
    "golden": GOLDEN_SPACE,
    "trimmed": TRIMMED,
    "sft:16": COUNT_SPACES["sft:16"],
}


@pytest.mark.parametrize("horizon", [0, 1, 7, 60, 192])
@pytest.mark.parametrize("name", sorted(WALK_SPACES))
def test_batch_walk_reproduces_the_scalar_walk(name, horizon):
    space = WALK_SPACES[name]
    points = sample_points(space, horizon, SEEDS)
    assert len(points) == len(SEEDS)
    for seed, x in zip(SEEDS, points):
        assert x.symbols.dtype == np.int64
        assert x.symbols.tobytes() == reference_walk(space, horizon, seed).tobytes(), seed
        assert (x.center, x.horizon, x.space) == (horizon, horizon, space)
    for seed in SEEDS[:: len(SEEDS) // 4]:
        assert sample_point(space, horizon, seed) == points[seed]


def random_primitive(m: int, rng) -> np.ndarray:
    """A random 0/1 matrix with a positive power (and no trimmed state)."""
    while True:
        mat = (rng.random((m, m)) < max(0.15, 2.5 / m)).astype(np.int64)
        # square the support until the exponent passes Wielandt's bound (m - 1)^2 + 1
        power, exponent = mat, 1
        while exponent < (m - 1) ** 2 + 1:
            power = (power @ power > 0).astype(np.int64)
            exponent *= 2
        if power.all():
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
