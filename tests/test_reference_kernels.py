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
``cylinders`` windows.  ``reference_from_points`` (one scalar ``rho`` call
per pair), ``reference_shifted_rho_table`` (one binary search per pair) and
``reference_verify_hyperbolicity`` (one pair folded in at a time) in
``reference.py`` are the pair-at-a-time metric code that the batch rho
kernels replaced.  The fast versions must agree exactly.
"""
import itertools
import math

import numpy as np
import pytest

from reference import (
    orbit_closed_sample,
    reference_from_points,
    reference_shifted_rho_table,
    reference_verify_hyperbolicity,
)
from shiftmetrics import (
    BernoulliMeasure,
    FiniteSample,
    MarkovMeasure,
    MatherParams,
    MetricParams,
    RadiusLadder,
    count_words,
    make_space,
    mather_n0,
    p_of_log_r,
    p_of_r,
    point_from_window,
    q_of_log_r,
    q_of_r,
    sample_point,
    sample_points,
    sample_typical,
    shift_point,
    shifted_rho_table,
    shifted_rho_tables,
    stationary,
    top_entropy_oracle,
    verify_hyperbolicity,
    word_counts,
)
from shiftmetrics import metrics
from shiftmetrics.errors import DifferentSpaces, HypothesisViolated, SaturatedDistances, ShiftMetricsError
from shiftmetrics.estimators import DEFAULT_LADDER, KINDS
from shiftmetrics.measures import reversed_kernel
from shiftmetrics.metrics import ONE_SIDED, PAIR_CHUNK
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


def test_rho_matrix_makes_no_scalar_rho_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar rho called")

    monkeypatch.setattr(metrics, "rho", refuse)
    monkeypatch.setattr(metrics, "disagreement_times", refuse)
    FiniteSample.from_points(SAMPLED, RHO_PARAMS["two-sided"])


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
            outcome(lambda: shifted_rho_table(*pair, p, max_shift)),
            outcome(lambda: reference_shifted_rho_table(*pair, p, max_shift)),
        )
    assert_bitwise(
        outcome(lambda: shifted_rho_tables(pairs, p, max_shift)),
        outcome(lambda: reference_tables(pairs, p, max_shift)),
    )


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
        fast = outcome(lambda: shifted_rho_table(x, y, p, max_shift))
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
    mp = MatherParams(gamma=0.05, n0=7, k1=1.2, k2=1.2)
    assert outcome(lambda: verify_hyperbolicity(pairs, mp, p)) == fast
    assert outcome(lambda: reference_verify_hyperbolicity(pairs, mp, p)) == fast


def test_many_pairs_span_blocks():
    pairs = long_pair_list({})
    p = RHO_PARAMS["two-sided"]
    assert_bitwise(shifted_rho_tables(pairs, p, 8), reference_tables(pairs, p, 8))
    assert_bitwise(shifted_rho_tables([], p, 8), reference_tables([], p, 8))


@pytest.mark.parametrize("params", sorted(RHO_PARAMS))
def test_hyperbolicity_report_reproduces_the_pair_loop(params):
    p = RHO_PARAMS[params]
    mp = MatherParams(gamma=0.05, n0=4, k1=1.2, k2=1.2)
    points = sample_points(GOLDEN_SPACE, 60, range(2 * PAIR_CHUNK + 30))
    for pairs in (
        list(zip(points[0::2], points[1::2])),
        list(zip(mixed_horizons(points[:60], 6), points[60:120])),
        [(points[0], points[0]), (points[1], points[2])],
        [(points[0], points[0])],
    ):
        assert verify_hyperbolicity(pairs, mp, p) == reference_verify_hyperbolicity(pairs, mp, p)


def test_hyperbolicity_report_at_the_cli_scale():
    p = RHO_PARAMS["two-sided"]
    mp = mather_n0(p, 0.05)
    points = sample_points(GOLDEN_SPACE, 4 * mp.n0 + 48, range(600))
    pairs = list(zip(points[0::2], points[1::2]))
    assert verify_hyperbolicity(pairs, mp, p) == reference_verify_hyperbolicity(pairs, mp, p)


def test_hyperbolicity_refuses_an_empty_pair_list():
    mp = MatherParams(gamma=0.05, n0=4, k1=1.2, k2=1.2)
    with pytest.raises(HypothesisViolated, match="at least one pair"):
        verify_hyperbolicity([], mp, RHO_PARAMS["two-sided"])
