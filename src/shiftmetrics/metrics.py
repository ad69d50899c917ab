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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DifferentSpaces,
    GammaTooLarge,
    HypothesisViolated,
    QuasiMetricViolated,
    SandwichViolated,
    SaturatedDistances,
)
from .shiftspace import Point

TWO_SIDED = "two-sided"
ONE_SIDED = "one-sided"

#: default additive slack for exact-inequality verification
VERIFY_TOL = 1e-12

#: Uniform expansivity bound of the symbolic base model.  The base distance
#: 2**-min{|i| : x_i != y_i} has separation threshold 1/2, and any pair at
#: base distance > 1/4 disagrees at some |i| <= 1, so m_unif = 1 and the
#: admissible scale bound is beta = 2**(1/m_unif) = 2.
CHAIN_BETA = 2.0


@dataclass(frozen=True)
class MetricParams:
    """Scale parameters of the distance rho.

    ``a`` weights the backward disagreement time and ``b`` the forward one;
    both must be finite and exceed 1.  One-sided mode drops the backward
    term entirely.
    """

    a: float
    b: float
    mode: str = TWO_SIDED

    def __post_init__(self):
        if self.mode not in (TWO_SIDED, ONE_SIDED):
            raise HypothesisViolated(f"mode must be two-sided or one-sided, got {self.mode!r}")
        if not (1.0 < self.b < math.inf):
            raise HypothesisViolated(f"b must be finite and > 1, got {self.b}")
        if self.mode == TWO_SIDED and not (1.0 < self.a < math.inf):
            raise HypothesisViolated(f"a must be finite and > 1, got {self.a}")

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
        expansivity bound ``CHAIN_BETA`` (closed endpoint accepted)."""
        if self.b > CHAIN_BETA or (self.mode == TWO_SIDED and self.a > CHAIN_BETA):
            raise HypothesisViolated(
                f"chain metrization requires a, b <= {CHAIN_BETA}; got a={self.a}, b={self.b}"
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


class FiniteSample:
    """A finite point set (or raw dissimilarity matrix) with its rho matrix.

    ``matrix[i, j]`` is symmetric with zero diagonal; ``exact[i, j]`` records
    whether the entry is an exact distance or only a saturation bound.
    """

    def __init__(self, matrix: np.ndarray, exact: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise HypothesisViolated(f"dissimilarity matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise HypothesisViolated("dissimilarities must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise HypothesisViolated("dissimilarity matrix must be exactly symmetric")
        if np.any(np.diag(matrix) != 0.0):
            raise HypothesisViolated("diagonal must be zero")
        if np.any(matrix < 0.0):
            raise HypothesisViolated("dissimilarities must be nonnegative")
        self.matrix = matrix
        self.exact = np.asarray(exact, dtype=bool)

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
        return cls(mat, exact)

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteSample":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix, np.ones(matrix.shape, dtype=bool))


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


def frink_metrize(sample: FiniteSample, tol: float = VERIFY_TOL) -> np.ndarray:
    """Chain-infimum metrization: D(x,y) = min over chains of the rho-sum.

    On a finite sample this is the all-pairs shortest path through the rho
    matrix.  Inputs failing the K=2 relaxed triangle test are refused; on
    the rest the classical chain bound guarantees D <= rho <= 4 D, and both
    comparisons and the triangle inequality of D are asserted on the output.
    """
    viol = check_quasi_metric(sample, 2.0, tol)
    if viol:
        raise QuasiMetricViolated(
            f"{len(viol)} triples fail the K=2 test (first: {viol[0]})"
        )
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
        raise GammaTooLarge(f"gamma must be finite and in (0, {limit:.6g}), got {gamma}")
    n0 = 1
    while not (
        4.0 ** (-1.0 / n0) * params.a > params.a - gamma
        and 4.0 ** (-1.0 / n0) * params.b > params.b - gamma
    ):
        n0 += 1
    scale = 4.0 ** (-1.0 / n0)
    return MatherParams(gamma=gamma, n0=n0, k1=scale * params.a, k2=scale * params.b)


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
    tol: float = VERIFY_TOL,
) -> HyperbolicityReport:
    """Check, for every pair, with d~ the contraction-margin metric:

    (i)   max(d~(shift**-1) / (a - gamma), d~(shift) / (b - gamma))
          >= min(d~(x, y), eps'), with eps' calibrated as the largest value
          admitted by the sample and reported;
    (ii)  d~(shift(x), shift(y)) <= 16 b d~(x, y) and the backward twin with
          16 a;
    (iii) d~(x, y) / 4 <= rho(x, y) <= 4 d~(x, y).

    On symbolic samples the chain metric is rho itself (the ultrametric
    inequality makes every chain at least as long as the direct edge), so
    every shifted distance comes from one disagreement scan per pair.
    """
    n0 = mp.n0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)
    lip_f = lip_b = sandw = 0
    worst_lip = -math.inf
    worst_sand = -math.inf
    lhs_all = np.empty(len(pairs))
    d0_all = np.empty(len(pairs))
    for idx, (x, y) in enumerate(pairs):
        tab = shifted_rho_table(x, y, params, n0 + 1)
        d0 = _d_tilde_from_table(tab, 0, mp, w1, w2)
        dp = _d_tilde_from_table(tab, 1, mp, w1, w2)
        dm = _d_tilde_from_table(tab, -1, mp, w1, w2)
        rho0 = float(tab[(tab.size - 1) // 2])
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
