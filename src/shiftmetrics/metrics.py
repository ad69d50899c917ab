"""Two-parameter distances on shift spaces and their metrization pipeline.

The distance rho(x, y) = max(a**-n_minus, b**-n_plus) is built from the first
forward/backward disagreement coordinates of the pair.  On symbolic points it
is an ultrametric, so the chain construction below reproduces it exactly; the
chain machinery also accepts synthetic dissimilarities that only satisfy the
relaxed two-point triangle test.

The contraction-margin ("mather") metric d~ maximizes chain distances along a
finite orbit stretch with geometric weights k1, k2; `verify_hyperbolicity`
checks the one-step expansion inequality, the Lipschitz bounds, and the
comparability sandwich on sampled pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DifferentSpaces,
    GammaTooLarge,
    HypothesisViolated,
    QuasiMetricViolated,
    SampleNotOrbitClosed,
    SandwichViolated,
    SaturatedDistances,
)
from .shiftspace import Point, shift_point

TWO_SIDED = "two-sided"
ONE_SIDED = "one-sided"

#: default additive slack for exact-inequality verification
VERIFY_TOL = 1e-12


@dataclass(frozen=True)
class MetricParams:
    """Scale parameters of the distance rho.

    ``a`` weights the backward disagreement time and ``b`` the forward one;
    both must be finite and exceed 1.  ``epsilon`` is the separation threshold of the
    underlying base distance (fixed model: 2**-|i| with threshold 1/2).
    One-sided mode drops the backward term entirely.
    """

    a: float
    b: float
    epsilon: float = 0.5
    mode: str = TWO_SIDED

    def __post_init__(self):
        if self.mode not in (TWO_SIDED, ONE_SIDED):
            raise HypothesisViolated(f"mode must be two-sided or one-sided, got {self.mode!r}")
        if not (1.0 < self.b < math.inf):
            raise HypothesisViolated(f"b must be finite and > 1, got {self.b}")
        if self.mode == TWO_SIDED and not (1.0 < self.a < math.inf):
            raise HypothesisViolated(f"a must be finite and > 1, got {self.a}")
        if not (0.0 < self.epsilon < 1.0):
            raise HypothesisViolated(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def log_a(self) -> float:
        return math.log(self.a)

    @property
    def log_b(self) -> float:
        return math.log(self.b)

    def k(self) -> float:
        """Scale constant of the dimension/entropy identities."""
        if self.mode == ONE_SIDED:
            return 1.0 / self.log_b
        return 1.0 / self.log_a + 1.0 / self.log_b

    def k_alpha(self, alpha: float) -> float:
        """Discounted scale constant for the alpha-estimation calculus."""
        if self.mode == ONE_SIDED:
            return 1.0 / (self.log_b + alpha)
        return 1.0 / (self.log_a + alpha) + 1.0 / (self.log_b + alpha)

    def require_chain_regime(self) -> None:
        """The chain-metrization route needs a, b within the uniform
        expansivity bound beta = 2 (closed endpoint accepted; see README)."""
        beta = 2.0
        if self.b > beta or (self.mode == TWO_SIDED and self.a > beta):
            raise HypothesisViolated(
                f"chain metrization requires a, b <= {beta}; got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class DisagreementTimes:
    """First forward/backward coordinates where two windows differ.

    A saturated side reports the sentinel ``common_horizon + 1`` together
    with ``resolved_* = False``: no disagreement was found inside the common
    window, so the true time is only bounded below.
    """

    n_plus: int
    n_minus: int
    resolved_plus: bool
    resolved_minus: bool
    common_horizon: int

    @property
    def resolved(self) -> tuple[bool, bool]:
        return (self.resolved_plus, self.resolved_minus)


@dataclass(frozen=True)
class RhoValue:
    """Distance value plus exactness flag.

    ``exact`` is True when the value equals the distance of every extension
    of the two windows: either both disagreement times resolved, the windows
    are literally equal on the common window (value 0 by convention), or the
    resolved side already dominates anything the unresolved side could add.
    Otherwise the value is a lower bound on the true distance.
    """

    value: float
    exact: bool


def disagreement_times(x: Point, y: Point) -> DisagreementTimes:
    """Compute n_plus = min{t >= 0 : x_t != y_t} and the backward twin.

    Index 0 participates in both searches.  Sides with no disagreement in
    the common window saturate at ``common_horizon + 1``.
    """
    if x.space != y.space:
        raise DifferentSpaces(f"points live in {x.space!r} and {y.space!r}")
    hc = min(x.horizon, y.horizon)
    xw = x.window(-hc, hc)
    yw = y.window(-hc, hc)
    mism = xw != yw
    fw = np.flatnonzero(mism[hc:])
    bw = np.flatnonzero(mism[hc::-1])
    n_plus = int(fw[0]) if fw.size else hc + 1
    n_minus = int(bw[0]) if bw.size else hc + 1
    return DisagreementTimes(
        n_plus=n_plus,
        n_minus=n_minus,
        resolved_plus=bool(fw.size),
        resolved_minus=bool(bw.size),
        common_horizon=hc,
    )


def rho(x: Point, y: Point, params: MetricParams) -> RhoValue:
    """rho(x, y) = max(a**-n_minus, b**-n_plus), one-sided: b**-n_plus only.

    Saturated sides contribute 0, which makes the value a lower bound; the
    flag is still exact when the resolved side dominates the largest value
    the unresolved side could contribute.
    """
    dt = disagreement_times(x, y)
    sat = dt.common_horizon + 1
    plus = params.b ** (-dt.n_plus) if dt.resolved_plus else 0.0
    if params.mode == ONE_SIDED:
        # one-sided distance only sees forward coordinates, so forward-window
        # equality is equality as far as the sample can tell: 0, exact
        return RhoValue(plus, True) if dt.resolved_plus else RhoValue(0.0, True)
    minus = params.a ** (-dt.n_minus) if dt.resolved_minus else 0.0
    value = max(plus, minus)
    if not dt.resolved_plus and not dt.resolved_minus:
        # literally equal on the common window
        return RhoValue(0.0, True)
    exact_plus = dt.resolved_plus or value >= params.b ** (-sat)
    exact_minus = dt.resolved_minus or value >= params.a ** (-sat)
    return RhoValue(value, exact_plus and exact_minus)


def uniform_expansivity_bound(params: MetricParams) -> tuple[int, float]:
    """Return (m_unif, beta) for the fixed base model.

    Base distance 2**-min{|i| : x_i != y_i} with separation threshold
    epsilon = 1/2: any pair with distance > epsilon/2 = 1/4 disagrees at some
    |i| <= 1, so m_unif = 1 and the admissible scale bound is
    beta = 2**(1/m_unif) = 2.
    """
    if params.epsilon != 0.5:
        raise HypothesisViolated(
            f"the symbolic base model fixes epsilon = 1/2, got {params.epsilon}"
        )
    return 1, 2.0


class FiniteSample:
    """A finite point set (or raw dissimilarity matrix) with its rho matrix.

    ``matrix[i, j]`` is symmetric with zero diagonal; ``exact[i, j]`` records
    whether the entry is an exact distance or only a saturation bound.
    """

    def __init__(self, matrix: np.ndarray, exact: np.ndarray, points=None, params=None):
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise HypothesisViolated(f"dissimilarity matrix must be square, got {matrix.shape}")
        if not np.allclose(matrix, matrix.T, atol=0.0):
            raise HypothesisViolated("dissimilarity matrix must be exactly symmetric")
        if np.any(np.diag(matrix) != 0.0):
            raise HypothesisViolated("diagonal must be zero")
        if np.any(matrix < 0.0):
            raise HypothesisViolated("dissimilarities must be nonnegative")
        self.matrix = matrix
        self.exact = np.asarray(exact, dtype=bool)
        self.points = points
        self.params = params

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_points(cls, points: Sequence[Point], params: MetricParams) -> "FiniteSample":
        n = len(points)
        mat = np.zeros((n, n))
        exact = np.ones((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                rv = rho(points[i], points[j], params)
                mat[i, j] = mat[j, i] = rv.value
                exact[i, j] = exact[j, i] = rv.exact
        return cls(mat, exact, points=list(points), params=params)

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteSample":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix, np.ones(matrix.shape, dtype=bool))

    @classmethod
    def from_words(cls, words: Sequence[Sequence[int]], lo: int, params: MetricParams) -> "FiniteSample":
        """Whole-word semantics: each word, occupying coordinates
        lo..lo+len-1 (which must cover 0), is treated as a complete point of
        the finite product space, so absent disagreements mean true infinity
        and every entry is exact."""
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
        return cls(mat, np.ones((n, n), dtype=bool), params=params)


def check_quasi_metric(sample: FiniteSample, K: float, tol: float = VERIFY_TOL) -> list[tuple[int, int, int]]:
    """List triples (i, j, k) with rho(i,j) > K * max(rho(i,k), rho(k,j)) + tol.

    An empty list means the K-relaxed two-point triangle test holds.  K = 1
    is the ultrametric test.  Saturated entries are refused because a bound
    cannot certify an inequality.
    """
    if not sample.exact.all():
        bad = np.argwhere(~sample.exact)
        raise SaturatedDistances(
            f"{len(bad)} sample entries are only bounds (first: {tuple(bad[0])})"
        )
    R = sample.matrix
    n = len(sample)
    out = []
    for k in range(n):
        bound = K * np.maximum(R[:, k][:, None], R[None, k, :]) + tol
        viol = np.argwhere(R > bound)
        for i, j in viol:
            if i != j and i != k and j != k:
                out.append((int(i), int(j), int(k)))
    return out


def frink_metrize(
    sample: FiniteSample,
    require_quasi: bool = True,
    tol: float = VERIFY_TOL,
) -> np.ndarray:
    """Chain-infimum metrization: D(x,y) = min over chains of the rho-sum.

    On a finite sample this is the all-pairs shortest path through the rho
    matrix.  When the input satisfies the K=2 relaxed triangle test the
    classical chain bound guarantees D <= rho <= 4 D; both comparisons and
    the triangle inequality of D are asserted on the output.

    Parameters
    ----------
    sample : FiniteSample
    require_quasi : bool
        When True (default), refuse inputs failing the K=2 test.  Passing
        False skips the gate; the sandwich assertions still run.
    """
    if require_quasi:
        viol = check_quasi_metric(sample, 2.0, tol)
        if viol:
            raise QuasiMetricViolated(
                f"{len(viol)} triples fail the K=2 test (first: {viol[0]})"
            )
    elif not sample.exact.all():
        raise SaturatedDistances("sample contains saturated entries")
    D = sample.matrix.copy()
    n = len(sample)
    for k in range(n):
        np.minimum(D, D[:, k][:, None] + D[None, k, :], out=D)
    # triangle inequality of the shortest-path matrix (exact up to roundoff)
    for k in range(n):
        if np.any(D > D[:, k][:, None] + D[None, k, :] + tol):
            raise SandwichViolated("shortest-path output violated the triangle inequality")
    if np.any(D > sample.matrix + tol):
        raise SandwichViolated("D <= rho failed")
    if np.any(sample.matrix > 4.0 * D + tol):
        worst = float(np.max(sample.matrix - 4.0 * D))
        raise SandwichViolated(f"rho <= 4 D failed by {worst:.3e}")
    return D


# ---------------------------------------------------------------------------
# contraction-margin metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatherParams:
    """Window depth and geometric weights of the contraction-margin metric."""

    gamma: float
    n0: int
    k1: float
    k2: float

    def __post_init__(self):
        if self.n0 < 1:
            raise HypothesisViolated(f"n0 must be >= 1, got {self.n0}")


def mather_n0(params: MetricParams, gamma: float) -> MatherParams:
    """Smallest window depth n0 with 4**(-1/n0) * a > a - gamma (and same
    for b); the weights are k1 = 4**(-1/n0) * a, k2 = 4**(-1/n0) * b.

    Raises
    ------
    GammaTooLarge
        Unless 0 < gamma < min(a, b) - 1.
    """
    params.require_chain_regime()
    # the reduced margins a - gamma, b - gamma must themselves stay expanding
    if not (gamma > 0.0 and params.a - gamma > 1.0 and params.b - gamma > 1.0):
        limit = min(params.a, params.b) - 1.0
        raise GammaTooLarge(f"gamma must lie in (0, {limit:.6g}), got {gamma}")
    n0 = 1
    while not (
        4.0 ** (-1.0 / n0) * params.a > params.a - gamma
        and 4.0 ** (-1.0 / n0) * params.b > params.b - gamma
    ):
        n0 += 1
    scale = 4.0 ** (-1.0 / n0)
    return MatherParams(gamma=gamma, n0=n0, k1=scale * params.a, k2=scale * params.b)


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
    """Chain metric looked up on a precomputed orbit-closed finite sample.

    Lookup is by window content at the sample's minimal horizon, so shifted
    copies of a stored point are found regardless of how much horizon the
    shifting consumed.
    """

    def __init__(self, sample: FiniteSample, D: np.ndarray):
        if sample.points is None:
            raise SampleNotOrbitClosed("sample was built from a raw matrix, not points")
        self.sample = sample
        self.D = D
        self._depth = min(p.horizon for p in sample.points)
        self._index = {self._key(p): i for i, p in enumerate(sample.points)}

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


def orbit_closed_sample(
    points: Sequence[Point], params: MetricParams, n_shifts: int
) -> FiniteSample:
    """Augment the points with all shifts |i| <= n_shifts and drop duplicates."""
    seen = {}
    for p in points:
        for i in range(-n_shifts, n_shifts + 1):
            q = shift_point(p, i)
            seen.setdefault((q.horizon, q.window().tobytes()), q)
    return FiniteSample.from_points(list(seen.values()), params)


def mather_metric(x: Point, y: Point, mp: MatherParams, oracle) -> float:
    """d~(x, y) = max over 0 <= i < n0 of
    max(D(shift(x,-i), shift(y,-i)) / k1**i, D(shift(x,i), shift(y,i)) / k2**i).
    """
    best = 0.0
    for i in range(mp.n0):
        dm = oracle.distance(shift_point(x, -i), shift_point(y, -i)) / mp.k1**i
        dp = oracle.distance(shift_point(x, i), shift_point(y, i)) / mp.k2**i
        if dm > best:
            best = dm
        if dp > best:
            best = dp
    return best


def shifted_rho_table(
    x: Point, y: Point, params: MetricParams, max_shift: int
) -> np.ndarray:
    """rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift].

    One pass over the common window collects the disagreement set; shifted
    disagreement times follow by binary search, which makes the verification
    loop fast.  Raises ``SaturatedDistances`` if any shifted pair is
    unresolved (unless the pair is literally equal, which yields zeros).
    """
    if x.space != y.space:
        raise DifferentSpaces("pair from different spaces")
    hc = min(x.horizon, y.horizon)
    if max_shift > hc:
        raise SaturatedDistances(f"horizon {hc} cannot support shifts up to {max_shift}")
    xw = x.window(-hc, hc)
    yw = y.window(-hc, hc)
    diffs = np.flatnonzero(xw != yw) - hc  # disagreement coordinates, sorted
    js = np.arange(-max_shift, max_shift + 1)
    if diffs.size == 0:
        return np.zeros(js.size)
    half = hc - np.abs(js)
    idx_f = np.searchsorted(diffs, js, side="left")
    has_f = idx_f < diffs.size
    s_fwd = diffs[np.minimum(idx_f, diffs.size - 1)]
    ok_f = has_f & (s_fwd <= js + half)
    idx_b = np.searchsorted(diffs, js, side="right") - 1
    has_b = idx_b >= 0
    s_bwd = diffs[np.maximum(idx_b, 0)]
    ok_b = has_b & (s_bwd >= js - half)
    if params.mode == ONE_SIDED:
        if not ok_f.all():
            raise SaturatedDistances("a shifted pair is unresolved forward")
        return params.b ** (-(s_fwd - js).astype(float))
    if not (ok_f.all() and ok_b.all()):
        raise SaturatedDistances("a shifted pair is unresolved within its window")
    plus = params.b ** (-(s_fwd - js).astype(float))
    minus = params.a ** (-(js - s_bwd).astype(float))
    return np.maximum(plus, minus)


@dataclass(frozen=True)
class HyperbolicityReport:
    """Outcome of `verify_hyperbolicity` over a pair sample."""

    pairs_checked: int
    lipschitz_forward_violations: int
    lipschitz_backward_violations: int
    sandwich_violations: int
    expansion_failures: int
    escape_pairs: int
    eps_prime: float
    threshold: float
    worst_lipschitz_margin: float
    worst_sandwich_margin: float

    @property
    def passed(self) -> bool:
        return (
            self.lipschitz_forward_violations == 0
            and self.lipschitz_backward_violations == 0
            and self.sandwich_violations == 0
            and self.expansion_failures == 0
            and self.eps_prime > 0.0
        )


def _d_tilde_from_table(tab: np.ndarray, t: int, mp: MatherParams, w1: np.ndarray, w2: np.ndarray) -> float:
    n0 = mp.n0
    c = (tab.size - 1) // 2
    back = tab[c + t - n0 + 1 : c + t + 1][::-1]  # D(shift by t-i), i=0..n0-1
    fwd = tab[c + t : c + t + n0]
    return float(max(np.max(back * w1), np.max(fwd * w2)))


def verify_hyperbolicity(
    pairs: Sequence[tuple[Point, Point]],
    mp: MatherParams,
    params: MetricParams,
    oracle=None,
    tol: float = VERIFY_TOL,
) -> HyperbolicityReport:
    """Check, for every pair, with d~ the contraction-margin metric:

    (i)   max(d~(shift**-1) / (a - gamma), d~(shift) / (b - gamma))
          >= min(d~(x, y), eps'), with eps' calibrated as the largest value
          admitted by the sample and reported;
    (ii)  d~(shift(x), shift(y)) <= 16 b d~(x, y) and the backward twin with
          16 a;
    (iii) d~(x, y) / 4 <= rho(x, y) <= 4 d~(x, y).

    With the default exact oracle (chain metric = rho on symbolic samples)
    the shifted distances come from one disagreement scan per pair.
    """
    if oracle is None:
        oracle = RhoOracle(params)
    fast = isinstance(oracle, RhoOracle)
    n0 = mp.n0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)
    lip_f = lip_b = sandw = 0
    worst_lip = -math.inf
    worst_sand = -math.inf
    lhs_all = np.empty(len(pairs))
    d0_all = np.empty(len(pairs))
    for idx, (x, y) in enumerate(pairs):
        if fast:
            tab = shifted_rho_table(x, y, params, n0 + 1)
            d0 = _d_tilde_from_table(tab, 0, mp, w1, w2)
            dp = _d_tilde_from_table(tab, 1, mp, w1, w2)
            dm = _d_tilde_from_table(tab, -1, mp, w1, w2)
            rho0 = float(tab[(tab.size - 1) // 2])
        else:
            d0 = mather_metric(x, y, mp, oracle)
            dp = mather_metric(shift_point(x, 1), shift_point(y, 1), mp, oracle)
            dm = mather_metric(shift_point(x, -1), shift_point(y, -1), mp, oracle)
            rv = rho(x, y, params)
            if not rv.exact:
                raise SaturatedDistances("pair unresolved; enlarge the horizon")
            rho0 = rv.value
        bound_f = 16.0 * params.b * d0 + tol
        bound_b = 16.0 * params.a * d0 + tol
        if dp > bound_f:
            lip_f += 1
        if dm > bound_b:
            lip_b += 1
        worst_lip = max(worst_lip, dp - bound_f, dm - bound_b)
        if d0 / 4.0 > rho0 + tol or rho0 > 4.0 * d0 + tol:
            sandw += 1
        worst_sand = max(worst_sand, d0 / 4.0 - rho0, rho0 - 4.0 * d0)
        lhs_all[idx] = max(dm / (params.a - mp.gamma), dp / (params.b - mp.gamma))
        d0_all[idx] = d0
    threshold = 0.25 * min(
        mp.k1 ** (-(n0 - 1)) / params.a, mp.k2 ** (-(n0 - 1)) / params.b
    )
    escape = lhs_all + tol < d0_all
    if escape.any():
        eps_prime = float(np.min(lhs_all[escape]))
    else:
        eps_prime = threshold
    # the falsifiable form of (i): pairs below the a-priori threshold must
    # not escape, i.e. the inequality holds with eps' = threshold
    failures = int(np.sum(lhs_all + tol < np.minimum(d0_all, threshold)))
    return HyperbolicityReport(
        pairs_checked=len(pairs),
        lipschitz_forward_violations=lip_f,
        lipschitz_backward_violations=lip_b,
        sandwich_violations=sandw,
        expansion_failures=failures,
        escape_pairs=int(escape.sum()),
        eps_prime=eps_prime,
        threshold=threshold,
        worst_lipschitz_margin=worst_lip,
        worst_sandwich_margin=worst_sand,
    )
