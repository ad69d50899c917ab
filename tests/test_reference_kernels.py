"""Differential tests: the table-driven sampler, the vectorised
admissibility check and the cylinder windows of every estimator ladder
against the scalar code they replaced.

The references below are kept here only as oracles.  ``reference_sample``
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
    make_space,
    p_of_log_r,
    p_of_r,
    q_of_log_r,
    q_of_r,
    sample_typical,
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
