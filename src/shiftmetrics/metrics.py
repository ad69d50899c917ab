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

#: pairs per block of the shifted-distance kernel (bounds its transient memory)
PAIR_CHUNK = 64

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


def _padded(windows: Sequence[np.ndarray], half: int, fill=-1) -> np.ndarray:
    """Stack odd-length windows centred on coordinate 0 into one array of
    width ``2 * half + 1``, padded with ``fill`` outside each window."""
    out = np.full((len(windows), 2 * half + 1), fill)
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
        computed once per sample and shared by `check_quasi_metric` and
        `frink_metrize`.
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


def _uncertified_rows(matrix: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Indices of the rows holding some entry above ``bound``."""
    return np.flatnonzero((matrix > bound).any(axis=1))


def check_quasi_metric(sample: FiniteSample, K: float) -> list[tuple[int, int, int]]:
    """List triples (i, j, k) with rho(i,j) > K * max(rho(i,k), rho(k,j)) + VERIFY_TOL.

    An empty list means the K-relaxed two-point triangle test holds.  K = 1
    is the ultrametric test.  Saturated entries are refused because a bound
    cannot certify an inequality, and so is a K that is not finite and
    >= 0 (NaN would pass every sample, and a negative K voids the test).

    The triples come in the order k, then (i, j) ascending, but only rows
    that the minimax closure C (`FiniteSample.closure`) cannot certify are
    scanned: max(rho(i,k), rho(k,j)) >= C(i,j) for every k, and rounding is
    monotone, so a row with rho(i,j) <= K * C(i,j) + VERIFY_TOL for all j
    holds no triple.  On symbolic samples rho = C and no row is scanned.
    """
    if not (math.isfinite(K) and K >= 0.0):
        raise HypothesisViolated(f"K must be finite and >= 0, got {K}")
    if not sample.exact.all():
        bad = np.argwhere(~sample.exact)
        raise SaturatedDistances(
            f"{len(bad)} sample entries are only bounds (first: {tuple(bad[0])})"
        )
    R = sample.matrix
    rows = _uncertified_rows(R, K * sample.closure + VERIFY_TOL)
    if rows.size == 0:
        return []
    scanned = R[rows]
    out = []
    for k in range(len(sample)):
        viol = scanned > K * np.maximum(scanned[:, k][:, None], R[None, k, :]) + VERIFY_TOL
        if not viol.any():
            continue
        for r, j in np.argwhere(viol):
            i = rows[r]
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
    rho and an entry with rho = C is never shortened.  Floyd-Warshall
    therefore runs, with pivots 0..n-1 in order, only on the rows holding
    some rho > C, and D is bit for bit the full shortest-path matrix.  The
    triangle inequality of D is checked on the same rows: on every other
    row D = C, and C(i,j) <= max(D(i,k), D(k,j)) <= D(i,k) + D(k,j) in
    floats.
    """
    viol = check_quasi_metric(sample, 2.0)
    if viol:
        raise QuasiMetricViolated(
            f"{len(viol)} triples fail the K=2 test (first: {viol[0]})"
        )
    R, C = sample.matrix, sample.closure
    rows = _uncertified_rows(R, C)
    scanned = R[rows]  # D on ``rows``; every other row of D is rho's
    where = np.full(len(sample), -1)
    where[rows] = np.arange(rows.size)

    def row(k: int) -> np.ndarray:
        return scanned[where[k]] if where[k] >= 0 else R[k]

    if rows.size:
        for k in range(len(sample)):
            np.minimum(scanned, scanned[:, k][:, None] + row(k)[None, :], out=scanned)
        # triangle inequality of the shortest-path matrix (exact up to roundoff)
        for k in range(len(sample)):
            if np.any(scanned > scanned[:, k][:, None] + row(k)[None, :] + VERIFY_TOL):
                raise SandwichViolated("shortest-path output violated the triangle inequality")
    D = R.copy()
    D[rows] = scanned
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


def shifted_rho_tables(
    pairs: Sequence[tuple[Point, Point]], params: MetricParams, max_shift: int
) -> np.ndarray:
    """Row k: rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift],
    (x, y) = ``pairs[k]``; all pairs are scanned at once (callers chunk).

    A running minimum and maximum over each pair's mismatch mask give the
    next and previous disagreement of every coordinate, and the shifted
    times follow.  The first pair, in order, that mixes spaces
    (``DifferentSpaces``), whose common horizon is below ``max_shift``, or
    whose shifts are unresolved (``SaturatedDistances``; a pair literally
    equal on its common window yields zeros instead) raises.
    """
    # a refused pair ends the scan; the unresolved pairs before it raise first
    refusal = None
    masks = []
    for x, y in pairs:
        if x.space != y.space:
            refusal = DifferentSpaces("pair from different spaces")
            break
        hc = min(x.horizon, y.horizon)
        if max_shift > hc:
            refusal = SaturatedDistances(f"horizon {hc} cannot support shifts up to {max_shift}")
            break
        masks.append(x.window(-hc, hc) != y.window(-hc, hc))
    js = np.arange(-max_shift, max_shift + 1)
    tables = np.zeros((len(masks), js.size))
    if masks:
        hcs = np.array([(mask.size - 1) // 2 for mask in masks])
        H = int(hcs.max())
        mism = _padded(masks, H, False)
        coords = np.arange(-H, H + 1, dtype=np.int32)
        # next disagreement at or after each shift j (and, two-sided, the
        # last one at or before it); each search reads only the columns it
        # can reach, and one further than ``half`` from j leaves j unresolved
        ahead = slice(H - max_shift, None)
        s_fwd = np.minimum.accumulate(
            np.where(mism[:, ahead], coords[ahead], H + 1)[:, ::-1], axis=1
        )[:, : -js.size - 1 : -1]
        half = hcs[:, None] - np.abs(js)
        ok = s_fwd <= js + half
        two_sided = params.mode != ONE_SIDED
        if two_sided:
            behind = slice(None, H + max_shift + 1)
            s_bwd = np.maximum.accumulate(
                np.where(mism[:, behind], coords[behind], -H - 1), axis=1
            )[:, -js.size :]
            ok &= s_bwd >= js - half
        differ = mism.any(axis=1)
        if (differ & ~ok.all(axis=1)).any():
            if two_sided:
                raise SaturatedDistances("a shifted pair is unresolved within its window")
            raise SaturatedDistances("a shifted pair is unresolved forward")
        tables = params.b ** (-(s_fwd - js).astype(float))
        if two_sided:
            tables = np.maximum(tables, params.a ** (-(js - s_bwd).astype(float)))
        tables[~differ] = 0.0
    if refusal is not None:
        raise refusal
    return tables


@dataclass(frozen=True)
class HyperbolicityReport:
    """Counts and margins of `verify_hyperbolicity` over a pair sample; the
    CLI's ``metric-verify`` relations are the verdict on them."""

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


def _d_tilde_from_tables(tables: np.ndarray, t: int, mp: MatherParams, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """d~ of each row's pair shifted by t, read off its shifted-rho table."""
    n0 = mp.n0
    c = (tables.shape[1] - 1) // 2
    back = tables[:, c + t - n0 + 1 : c + t + 1][:, ::-1]  # D(shift by t-i), i=0..n0-1
    fwd = tables[:, c + t : c + t + n0]
    return np.maximum(np.max(back * w1, axis=1), np.max(fwd * w2, axis=1))


def verify_hyperbolicity(
    pairs: Sequence[tuple[Point, Point]],
    mp: MatherParams,
    params: MetricParams,
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
    every shifted distance comes from one disagreement scan per pair.  Each
    block of ``PAIR_CHUNK`` pairs is reduced to its d~ at shifts 0 and +-1
    and its rho before the next block is scanned.
    """
    if len(pairs) == 0:
        raise HypothesisViolated("verify_hyperbolicity needs at least one pair")
    n0 = mp.n0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)
    d0, dp, dm, rho0 = (np.empty(len(pairs)) for _ in range(4))
    for start in range(0, len(pairs), PAIR_CHUNK):
        tables = shifted_rho_tables(pairs[start : start + PAIR_CHUNK], params, n0 + 1)
        block = slice(start, start + len(tables))
        d0[block] = _d_tilde_from_tables(tables, 0, mp, w1, w2)
        dp[block] = _d_tilde_from_tables(tables, 1, mp, w1, w2)
        dm[block] = _d_tilde_from_tables(tables, -1, mp, w1, w2)
        rho0[block] = tables[:, n0 + 1]
    bound_f = 16.0 * params.b * d0 + VERIFY_TOL
    bound_b = 16.0 * params.a * d0 + VERIFY_TOL
    lip_f = int(np.sum(dp > bound_f))
    lip_b = int(np.sum(dm > bound_b))
    worst_lip = float(max(np.max(dp - bound_f), np.max(dm - bound_b)))
    sandw = int(np.sum((d0 / 4.0 > rho0 + VERIFY_TOL) | (rho0 > 4.0 * d0 + VERIFY_TOL)))
    worst_sand = float(max(np.max(d0 / 4.0 - rho0), np.max(rho0 - 4.0 * d0)))
    lhs = np.maximum(dm / (params.a - mp.gamma), dp / (params.b - mp.gamma))
    threshold = 0.25 * min(
        mp.k1 ** (-(n0 - 1)) / params.a, mp.k2 ** (-(n0 - 1)) / params.b
    )
    escape = lhs + VERIFY_TOL < d0
    if escape.any():
        eps_prime = float(np.min(lhs[escape]))
    else:
        eps_prime = threshold
    # the falsifiable form of (i): pairs below the a-priori threshold must
    # not escape, i.e. the inequality holds with eps' = threshold
    failures = int(np.sum(lhs + VERIFY_TOL < np.minimum(d0, threshold)))
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
