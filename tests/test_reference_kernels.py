"""Differential tests: the table-driven sampler and the vectorised
admissibility check against the scalar code they replaced.

The references below are kept here only as oracles.  ``reference_sample``
draws every symbol with ``rng.choice(m, p=law)`` in the order center,
forward, backward; ``reference_is_admissible`` walks the word symbol by
symbol.  The fast versions must agree bit for bit.
"""
import itertools

import numpy as np
import pytest

from shiftmetrics import BernoulliMeasure, MarkovMeasure, make_space, sample_typical
from shiftmetrics.measures import reversed_kernel
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
