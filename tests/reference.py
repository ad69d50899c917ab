"""Slow reference implementations that the tests use as oracles.

None of this is library code: each function or class here is a second,
independent route to a value the package computes on a fast path, kept only
to cross-check that path.  The module name does not match ``test_*.py``, so
pytest does not collect it.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from shiftmetrics import (
    BernoulliMeasure,
    FiniteSample,
    MarkovMeasure,
    MatherParams,
    Measure,
    MetricParams,
    Point,
    Word,
    rho,
    shift_point,
)
from shiftmetrics.errors import BadMeasure, HypothesisViolated, SaturatedDistances, ShiftMetricsError
from shiftmetrics.measures import _require_symbols
from shiftmetrics.metrics import ONE_SIDED


class SampleNotOrbitClosed(ShiftMetricsError):
    """A shifted point required by the construction is missing from the
    finite sample."""


# ---------------------------------------------------------------------------
# chain-metric oracles for the contraction-margin metric
# ---------------------------------------------------------------------------


class RhoOracle:
    """Exact base-metric oracle: on symbolic samples the chain metrization
    returns rho itself (the ultrametric inequality makes every chain at
    least as long as the direct edge), so D = rho with no finite sample."""

    def __init__(self, params: MetricParams):
        self.params = params

    def distance(self, x: Point, y: Point) -> float:
        rv = rho(x, y, self.params)
        if not rv.exact:
            raise SaturatedDistances("pair is unresolved within its common window")
        return rv.value


class SampleOracle:
    """Chain metric D looked up on a precomputed orbit-closed point list.

    ``D[i, j]`` is the chain distance of ``points[i]`` and ``points[j]``.
    Lookup is by window content at the list's minimal horizon, so shifted
    copies of a stored point are found regardless of how much horizon the
    shifting consumed.
    """

    def __init__(self, points: Sequence[Point], D: np.ndarray):
        self.D = D
        self._depth = min(p.horizon for p in points)
        self._index = {self._key(p): i for i, p in enumerate(points)}

    def _key(self, p: Point):
        return p.window(-self._depth, self._depth).tobytes()

    def distance(self, x: Point, y: Point) -> float:
        if min(x.horizon, y.horizon) < self._depth:
            raise SampleNotOrbitClosed(
                f"query horizon < sample depth {self._depth}; shift budget exhausted"
            )
        try:
            i = self._index[self._key(x)]
            j = self._index[self._key(y)]
        except KeyError:
            raise SampleNotOrbitClosed(
                "a required shifted point is missing from the finite sample"
            ) from None
        return float(self.D[i, j])


def orbit_closed_sample(points: Sequence[Point], n_shifts: int) -> list[Point]:
    """The points with all their shifts |i| <= n_shifts, duplicates dropped."""
    seen = {}
    for p in points:
        for i in range(-n_shifts, n_shifts + 1):
            q = shift_point(p, i)
            seen.setdefault((q.horizon, q.window().tobytes()), q)
    return list(seen.values())


def mather_metric(x: Point, y: Point, mp: MatherParams, oracle) -> float:
    """d~(x, y) = max over 0 <= i < n0 of
    max(D(shift(x,-i), shift(y,-i)) / k1**i, D(shift(x,i), shift(y,i)) / k2**i).
    """
    best = 0.0
    for i in range(mp.n0):
        dm = oracle.distance(shift_point(x, -i), shift_point(y, -i)) / mp.k1**i
        dp = oracle.distance(shift_point(x, i), shift_point(y, i)) / mp.k2**i
        best = max(best, dm, dp)
    return best


# ---------------------------------------------------------------------------
# whole-word rho matrices
# ---------------------------------------------------------------------------


def from_words(words: Sequence[Sequence[int]], lo: int, params: MetricParams) -> FiniteSample:
    """Whole-word semantics: each word, occupying coordinates lo..lo+len-1
    (which must cover 0), is treated as a complete point of the finite
    product space, so absent disagreements mean true infinity and every
    entry is exact."""
    arrs = [np.asarray(w, dtype=np.int64) for w in words]
    L = len(arrs[0])
    if any(len(a) != L for a in arrs):
        raise HypothesisViolated("all words must share one length")
    if not (lo <= 0 <= lo + L - 1):
        raise HypothesisViolated("word window must cover coordinate 0")
    stack = np.stack(arrs)
    n = len(arrs)
    zero = -lo  # array index of coordinate 0
    mat = np.zeros((n, n))
    for i in range(n):
        mism = stack != stack[i]
        fw = mism[:, zero:]
        bw = mism[:, zero::-1]
        # first disagreement index or saturation -> contribution 0
        any_f = fw.any(axis=1)
        any_b = bw.any(axis=1)
        n_plus = np.where(any_f, np.argmax(fw, axis=1), 0)
        n_minus = np.where(any_b, np.argmax(bw, axis=1), 0)
        plus = np.where(any_f, params.b ** (-n_plus.astype(float)), 0.0)
        if params.mode == ONE_SIDED:
            mat[i] = plus
        else:
            minus = np.where(any_b, params.a ** (-n_minus.astype(float)), 0.0)
            mat[i] = np.maximum(plus, minus)
    mat = np.maximum(mat, mat.T)  # symmetric by construction; defensive
    np.fill_diagonal(mat, 0.0)
    return FiniteSample(mat, np.ones((n, n), dtype=bool))


# ---------------------------------------------------------------------------
# product-form cylinder masses
# ---------------------------------------------------------------------------


def cylinder_mass(mu: Measure, word: Word) -> float:
    """Exact mass of the cylinder fixing ``word`` (anchor irrelevant).

    Bernoulli: product of weights.  Markov: pi of the first symbol times the
    transition product.  Words using transitions of probability zero have
    mass 0; only symbols outside the alphabet raise ``InadmissibleWord``.
    """
    w = np.asarray(word.symbols, dtype=np.int64)
    _require_symbols(mu, w)
    if w.size == 0:
        return 1.0
    if isinstance(mu, BernoulliMeasure):
        return float(np.prod(np.asarray(mu.weights)[w]))
    if isinstance(mu, MarkovMeasure):
        P = np.asarray(mu.P)
        return float(mu.pi[w[0]] * np.prod(P[w[:-1], w[1:]]))
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")
