"""Two-parameter distances on shift spaces and their metrization pipeline.

The distance rho(x, y) = max(a**-n_minus, b**-n_plus) is built from the first
forward/backward disagreement coordinates of the pair.  On symbolic points it
is an ultrametric, so the chain construction below reproduces it exactly; the
chain machinery also accepts synthetic dissimilarities that only satisfy the
relaxed two-point triangle test.

The contraction-margin ("mather") metric d~ maximizes chain distances along a
finite orbit stretch with geometric weights k1, k2; `verify_hyperbolicity`
checks the one-step expansion inequality, the Lipschitz bounds, and the
comparability sandwich on every pair, read off the pairs that differ at one
coordinate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DifferentSpaces,
    GammaTooLarge,
    HypothesisViolated,
    NoConvergence,
    QuasiMetricViolated,
    SandwichViolated,
    SaturatedDistances,
)
from .shiftspace import Point

TWO_SIDED = "two-sided"
ONE_SIDED = "one-sided"

#: most window depths ``mather_n0`` tries
POWER_ITER_CAP = 200_000

#: additive slack for exact-inequality verification
VERIFY_TOL = 1e-12

#: relative slack of every hyperbolicity count: its far pairs' values lie far
#: below VERIFY_TOL (b**-(n0 + 2) = 1.8e-21 at a = b = 1.3, gamma = 0.01)
VERIFY_RTOL = 1e-9

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


def _padded(windows: Sequence[np.ndarray], half: int) -> np.ndarray:
    """Stack odd-length windows centred on coordinate 0 into one array of
    width ``2 * half + 1``, padded with -1 outside each window."""
    out = np.full((len(windows), 2 * half + 1), -1)
    for row, w in zip(out, windows):
        h = (w.size - 1) // 2
        row[half - h : half + h + 1] = w
    return out


def _first_disagreement(mism: np.ndarray, hc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first True column of ``mism`` and whether it lies within
    that row's common horizon ``hc``; columns past it are padding."""
    n = mism.argmax(axis=1)
    return n, mism[np.arange(n.size), n] & (n <= hc)


def _rho_row(fw: np.ndarray, bw: np.ndarray, hc: np.ndarray, pow_b: np.ndarray, pow_a: np.ndarray | None):
    """rho values and exactness flags of one point against many, given the
    forward (coordinates 0, 1, ...) and backward (0, -1, ...) mismatches."""
    n_plus, res_p = _first_disagreement(fw, hc)
    plus = np.where(res_p, pow_b[n_plus], 0.0)
    if pow_a is None:
        # one-sided: forward-window equality is equality, 0 and exact
        return plus, True
    n_minus, res_m = _first_disagreement(bw, hc)
    minus = np.where(res_m, pow_a[n_minus], 0.0)
    value = np.maximum(plus, minus)
    sat = hc + 1
    exact = (res_p | (value >= pow_b[sat])) & (res_m | (value >= pow_a[sat]))
    # pairs literally equal on the common window are 0 and exact
    return value, exact | ~(res_p | res_m)


class FiniteSample:
    """A finite point set (or raw dissimilarity matrix) with its rho matrix.

    ``matrix[i, j]`` is symmetric with zero diagonal; ``exact[i, j]`` records
    whether the entry is an exact distance or only a saturation bound.
    ``matrix`` is a read-only copy of the input, so ``closure``, computed
    from it once, stays its closure.
    """

    def __init__(self, matrix: np.ndarray, exact: np.ndarray):
        matrix = np.array(matrix, dtype=float)
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
        matrix.setflags(write=False)
        self.matrix = matrix
        self.exact = np.asarray(exact, dtype=bool)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def closure(self) -> np.ndarray:
        """Minimax closure C(i,j) = min over chains i..j of the largest link.

        C is the largest ultrametric below the matrix (the single-linkage
        tree of Gower & Ross 1969), and it equals the matrix on symbolic
        samples.  It is read off Prim's minimum spanning tree in n vector
        steps: a vertex v joining the tree by an edge of weight w to u gets
        C(v, t) = max(w, C(u, t)) for every tree vertex t.  Only min and
        max are taken, so every entry is exactly one of the matrix's.  It is
        computed once per sample; `check_quasi_metric` and `frink_metrize`
        each compare it with the whole matrix to certify the sample at once.
        """
        R = self.matrix
        n = len(self)
        T = np.zeros((n, n))  # C with rows and columns in joining order
        if n < 2:
            return T
        position = np.zeros(n, dtype=np.intp)  # joining order of each vertex
        parent = np.zeros(n, dtype=np.intp)
        free = np.ones(n, dtype=bool)
        free[0] = False
        link = R[0].copy()  # lightest edge from each free vertex into the tree
        link[0] = np.inf
        for size in range(1, n):
            v = int(link.argmin())
            np.maximum(link[v], T[position[parent[v]], :size], out=T[size, :size])
            T[:size, size] = T[size, :size]
            position[v] = size
            free[v] = False
            link[v] = np.inf
            closer = free & (R[v] < link)
            parent[closer] = v
            link[closer] = R[v, closer]
        return T[np.ix_(position, position)]

    @classmethod
    def from_points(cls, points: Sequence[Point], params: MetricParams) -> "FiniteSample":
        """The rho matrix of ``points``; a side with no disagreement on a
        pair's common window adds 0, and the entry is flagged inexact unless
        the other side already reaches the most that side could add.  The
        windows are stacked into one array, padded with -1 outside each
        point's horizon, and each row i is compared with rows i+1..n-1 in one
        broadcast step, with powers from tables of ``b ** -k`` and ``a ** -k``.
        """
        n = len(points)
        mat = np.zeros((n, n))
        exact = np.ones((n, n), dtype=bool)
        if n < 2:
            return cls(mat, exact)
        # the first pair the row-major pair order meets is (0, j)
        for p in points[1:]:
            if p.space != points[0].space:
                raise DifferentSpaces(f"points live in {points[0].space!r} and {p.space!r}")
        horizons = np.array([p.horizon for p in points])
        H = int(horizons.max())
        stack = _padded([p.window() for p in points], H)
        pow_b = np.array([params.b**-k for k in range(H + 2)])
        pow_a = None if params.mode == ONE_SIDED else np.array([params.a**-k for k in range(H + 2)])
        for i in range(n - 1):
            h = int(horizons[i])
            cols = slice(H - h, H + h + 1)
            mism = stack[i + 1 :, cols] != stack[i, cols]
            hc = np.minimum(horizons[i + 1 :], h)
            row, row_exact = _rho_row(mism[:, h:], mism[:, h::-1], hc, pow_b, pow_a)
            mat[i, i + 1 :] = mat[i + 1 :, i] = row
            exact[i, i + 1 :] = exact[i + 1 :, i] = row_exact
        return cls(mat, exact)

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteSample":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix, np.ones(matrix.shape, dtype=bool))


def check_quasi_metric(sample: FiniteSample, K: float) -> list[tuple[int, int, int]]:
    """List triples (i, j, k) with rho(i,j) > K * max(rho(i,k), rho(k,j)) + VERIFY_TOL.

    An empty list means the K-relaxed two-point triangle test holds.  K = 1
    is the ultrametric test.  Saturated entries are refused because a bound
    cannot certify an inequality, and so is a K that is not finite and
    >= 0 (NaN would pass every sample, and a negative K voids the test).

    The minimax closure C (`FiniteSample.closure`) certifies the whole
    sample at once: max(rho(i,k), rho(k,j)) >= C(i,j) for every k, and
    rounding is monotone, so rho <= K * C + VERIFY_TOL everywhere leaves no
    triple.  On symbolic samples rho = C and nothing is scanned.  Otherwise
    every k is scanned, and the triples come in the order k, then (i, j)
    ascending.
    """
    if not (math.isfinite(K) and K >= 0.0):
        raise HypothesisViolated(f"K must be finite and >= 0, got {K}")
    if not sample.exact.all():
        bad = np.argwhere(~sample.exact)
        raise SaturatedDistances(
            f"{len(bad)} sample entries are only bounds (first: {tuple(int(v) for v in bad[0])})"
        )
    R = sample.matrix
    if (R <= K * sample.closure + VERIFY_TOL).all():
        return []
    out = []
    for k in range(len(sample)):
        viol = R > K * np.maximum(R[:, k][:, None], R[None, k, :]) + VERIFY_TOL
        for i, j in np.argwhere(viol):
            if i != j and i != k and j != k:
                out.append((int(i), int(j), int(k)))
    return out


def frink_metrize(sample: FiniteSample) -> np.ndarray:
    """Chain-infimum metrization: D(x,y) = min over chains of the rho-sum.

    On a finite sample this is the all-pairs shortest path through the rho
    matrix.  Inputs failing the K=2 relaxed triangle test are refused; on
    the rest the classical chain bound guarantees D <= rho <= 4 D, and both
    comparisons and the triangle inequality of D are asserted on the output.

    The minimax closure C of rho bounds every chain sum from below (a
    float sum of nonnegative terms is at least their maximum), so C <= D <=
    rho.  A sample with rho = C is therefore its own D, and its triangle
    inequality holds since C(i,j) <= max(D(i,k), D(k,j)) <= D(i,k) + D(k,j)
    in floats.  Any other sample runs Floyd-Warshall with pivots 0..n-1 in
    order over the whole matrix, and the triangle recheck after it.
    """
    viol = check_quasi_metric(sample, 2.0)
    if viol:
        raise QuasiMetricViolated(
            f"{len(viol)} triples fail the K=2 test (first: {viol[0]})"
        )
    R = sample.matrix
    D = R.copy()
    if not np.array_equal(R, sample.closure):
        for k in range(len(sample)):
            np.minimum(D, D[:, k][:, None] + D[k][None, :], out=D)
        # triangle inequality of the shortest-path matrix (exact up to roundoff)
        for k in range(len(sample)):
            if np.any(D > D[:, k][:, None] + D[k][None, :] + VERIFY_TOL):
                raise SandwichViolated("shortest-path output violated the triangle inequality")
    if np.any(D > R + VERIFY_TOL):
        raise SandwichViolated("D <= rho failed")
    if np.any(R > 4.0 * D + VERIFY_TOL):
        worst = float(np.max(R - 4.0 * D))
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

    n0 grows like ln 4 * max(a, b) / gamma, and the search stops at
    ``POWER_ITER_CAP`` depths.

    Raises
    ------
    GammaTooLarge
        Unless 0 < gamma < min(a, b) - 1.
    NoConvergence
        When no depth up to ``POWER_ITER_CAP`` qualifies (a tiny gamma).
    """
    params.require_chain_regime()
    # the reduced margins a - gamma, b - gamma must themselves stay expanding
    if not (gamma > 0.0 and params.a - gamma > 1.0 and params.b - gamma > 1.0):
        limit = min(params.a, params.b) - 1.0
        raise GammaTooLarge(f"gamma must be finite and in (0, {limit:.6g}), got {gamma}")
    for n0 in range(1, POWER_ITER_CAP + 1):
        scale = 4.0 ** (-1.0 / n0)
        if scale * params.a > params.a - gamma and scale * params.b > params.b - gamma:
            return MatherParams(gamma=gamma, n0=n0, k1=scale * params.a, k2=scale * params.b)
    raise NoConvergence(
        f"gamma = {gamma!r} needs a window depth n0 beyond the cap "
        f"POWER_ITER_CAP = {POWER_ITER_CAP}; use a larger gamma"
    )


@dataclass(frozen=True)
class HyperbolicityReport:
    """Counts and margins of `verify_hyperbolicity` over the single-disagreement
    pairs; the CLI's ``metric-verify`` relations are the verdict on them."""

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


def _single_disagreement_distances(
    positions: np.ndarray, mp: MatherParams, params: MetricParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho, and d~ at shifts 0, +1 and -1, of the pair that differs only at
    coordinate p, for each p of ``positions`` (two-sided rho).

    At shift j that pair's rho is b**-(p - j) for p >= j and a**-(j - p)
    behind.  d~ at shift t is the larger maximum of two weighted runs over
    i = 0..n0-1.  The backward run rho(shift t - i) * k1**-i grows by
    a / k1 = 4**(1/n0) per step while t - i > p and falls from i = t - p on;
    the forward run rho(shift t + i) * k2**-i grows by b / k2 up to
    i = p - t and falls after.  So each run's maximum is one of its two
    terms next to that switch, clipped to 0..n0-1, and the whole check is
    O(len(positions)).  Every power has a nonpositive exponent, so far
    positions underflow to 0 rather than overflow.
    """
    p = np.asarray(positions, dtype=np.int64)

    def rho_at(j) -> np.ndarray:
        ahead = -np.abs(p - j).astype(float)
        return np.where(p >= j, params.b**ahead, params.a**ahead)

    def run_max(t: int, k: float, sign: int) -> np.ndarray:
        # sign -1: the backward run, whose switch is i = t - p; +1: forward, i = p - t
        switch = sign * (p - t)
        i = np.clip([switch, switch + sign], 0, mp.n0 - 1)
        return (rho_at(t + sign * i) * k ** -i.astype(float)).max(axis=0)

    def d_tilde(t: int) -> np.ndarray:
        return np.maximum(run_max(t, mp.k1, -1), run_max(t, mp.k2, 1))

    return rho_at(0), d_tilde(0), d_tilde(1), d_tilde(-1)


def _hyperbolicity_report(
    rho0: np.ndarray,
    d0: np.ndarray,
    dp: np.ndarray,
    dm: np.ndarray,
    mp: MatherParams,
    params: MetricParams,
) -> HyperbolicityReport:
    """The counts and margins of the pairs with rho ``rho0`` and d~ ``d0``,
    ``dp``, ``dm`` at shifts 0, +1 and -1, one entry per pair."""
    up, down = 1.0 + VERIFY_RTOL, 1.0 - VERIFY_RTOL
    lip_f = int(np.sum(dp > 16.0 * params.b * d0 * up))
    lip_b = int(np.sum(dm > 16.0 * params.a * d0 * up))
    bound_f = 16.0 * params.b * d0 + VERIFY_TOL
    bound_b = 16.0 * params.a * d0 + VERIFY_TOL
    worst_lip = float(max(np.max(dp - bound_f), np.max(dm - bound_b)))
    sandw = int(np.sum((d0 / 4.0 > rho0 * up) | (rho0 > 4.0 * d0 * up)))
    worst_sand = float(max(np.max(d0 / 4.0 - rho0), np.max(rho0 - 4.0 * d0)))
    lhs = np.maximum(dm / (params.a - mp.gamma), dp / (params.b - mp.gamma))
    threshold = 0.25 * min(mp.k1 ** (1 - mp.n0) / params.a, mp.k2 ** (1 - mp.n0) / params.b)
    escape = lhs < d0 * down
    eps_prime = float(np.min(lhs[escape])) if escape.any() else threshold
    # the falsifiable form of (i): pairs below the a-priori threshold must
    # not escape, i.e. the inequality holds with eps' = threshold
    failures = int(np.sum(lhs < np.minimum(d0, threshold) * down))
    return HyperbolicityReport(
        pairs_checked=len(d0),
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


def verify_hyperbolicity(mp: MatherParams, params: MetricParams) -> HyperbolicityReport:
    """Check, for every pair of points of any subshift, with d~ the
    contraction-margin metric:

    (i)   max(d~(shift**-1) / (a - gamma), d~(shift) / (b - gamma))
          >= min(d~(x, y), eps'), with eps' the largest value the pairs
          admit, reported;
    (ii)  d~(shift(x), shift(y)) <= 16 b d~(x, y) and the backward twin with
          16 a;
    (iii) d~(x, y) / 4 <= rho(x, y) <= 4 d~(x, y).

    On symbolic points the chain metric is rho itself, and a pair's rho at
    any shift is the maximum, over its disagreement coordinates p, of one
    value per p.  So d~ at shifts 0 and +-1 and rho are maxima over p of
    the same quantities for the pair that differs only at p, and each
    inequality holds for every pair once it holds for every such pair.
    Past |p| = n0 + 2 every one of them is a fixed multiple of a power of b
    (or of a), so the 2 n0 + 5 pairs with |p| <= n0 + 2 decide every count
    and eps'; ``pairs_checked`` counts them.  The two worst margins are
    maxima over these pairs.

    One-sided rho is refused: it cannot see coordinates below 0, but the
    backward shifts of d~ read them, so d~ / 4 <= rho fails at p = -1.
    So is a depth n0 whose threshold or values fall below float64's smallest
    normal, where values that underflow to 0 would make every count read 0.
    """
    if params.mode == ONE_SIDED:
        raise HypothesisViolated(
            "hyperbolicity needs two-sided rho: the backward shifts of d~ read "
            "coordinates below 0, which one-sided rho cannot see"
        )
    reach = mp.n0 + 2
    distances = _single_disagreement_distances(np.arange(-reach, reach + 1), mp, params)
    report = _hyperbolicity_report(*distances, mp, params)
    tiny = np.finfo(float).tiny
    if report.threshold < tiny or min(v.min() for v in distances) < tiny:
        raise HypothesisViolated(
            f"the certificate at window depth n0 = {mp.n0} holds values below float64's "
            f"smallest normal {tiny:.6g}, where no relative count can fail; use a larger gamma"
        )
    return report
