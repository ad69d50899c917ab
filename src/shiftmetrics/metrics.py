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
    """`rho` values and exactness flags of one point against many, given the
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
        """The rho matrix of ``points``, entry for entry what `rho` gives.

        The windows are stacked into one array, padded with -1 outside each
        point's horizon, and each row i is compared with rows i+1..n-1 in one
        broadcast step.  The powers come from tables of ``b ** -k`` and
        ``a ** -k``, the same Python float powers `rho` takes.
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


def _shifted_blocks(pairs: Sequence[tuple[Point, Point]], params: MetricParams, max_shift: int):
    """Yield ``(start, tables)`` for blocks of ``PAIR_CHUNK`` pairs in order;
    row k of ``tables`` is the `shifted_rho_table` of pair ``start + k``."""
    for start in range(0, len(pairs), PAIR_CHUNK):
        yield start, _shifted_block(pairs[start : start + PAIR_CHUNK], params, max_shift)


def _shifted_block(block, params: MetricParams, max_shift: int) -> np.ndarray:
    # a refused pair ends the block; the pairs before it still raise first
    refusal = None
    masks = []
    for x, y in block:
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


def shifted_rho_tables(
    pairs: Sequence[tuple[Point, Point]], params: MetricParams, max_shift: int
) -> np.ndarray:
    """Row k: rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift],
    (x, y) = ``pairs[k]``.

    Blocks of ``PAIR_CHUNK`` pairs are scanned at once: a running minimum
    and maximum over each pair's mismatch mask give the next and previous
    disagreement of every coordinate, and the shifted disagreement times
    follow from them.  The first pair, in order, that mixes spaces
    (``DifferentSpaces``), whose common horizon is below ``max_shift``, or
    whose shifts are unresolved (``SaturatedDistances``; a pair literally
    equal on its common window yields zeros instead) raises what the
    one-pair case would.
    """
    out = np.empty((len(pairs), 2 * max_shift + 1))
    for start, tables in _shifted_blocks(pairs, params, max_shift):
        out[start : start + len(tables)] = tables
    return out


def shifted_rho_table(x: Point, y: Point, params: MetricParams, max_shift: int) -> np.ndarray:
    """rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift]."""
    return shifted_rho_tables([(x, y)], params, max_shift)[0]


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
    every shifted distance comes from one disagreement scan per pair.  Each
    block of pairs is reduced to its d~ at shifts 0 and +-1 and its rho
    before the next block is scanned.
    """
    if len(pairs) == 0:
        raise HypothesisViolated("verify_hyperbolicity needs at least one pair")
    n0 = mp.n0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)
    d0, dp, dm, rho0 = (np.empty(len(pairs)) for _ in range(4))
    for start, tables in _shifted_blocks(pairs, params, n0 + 1):
        block = slice(start, start + len(tables))
        d0[block] = _d_tilde_from_tables(tables, 0, mp, w1, w2)
        dp[block] = _d_tilde_from_tables(tables, 1, mp, w1, w2)
        dm[block] = _d_tilde_from_tables(tables, -1, mp, w1, w2)
        rho0[block] = tables[:, n0 + 1]
    bound_f = 16.0 * params.b * d0 + tol
    bound_b = 16.0 * params.a * d0 + tol
    lip_f = int(np.sum(dp > bound_f))
    lip_b = int(np.sum(dm > bound_b))
    worst_lip = float(max(np.max(dp - bound_f), np.max(dm - bound_b)))
    sandw = int(np.sum((d0 / 4.0 > rho0 + tol) | (rho0 > 4.0 * d0 + tol)))
    worst_sand = float(max(np.max(d0 / 4.0 - rho0), np.max(rho0 - 4.0 * d0)))
    lhs = np.maximum(dm / (params.a - mp.gamma), dp / (params.b - mp.gamma))
    threshold = 0.25 * min(
        mp.k1 ** (-(n0 - 1)) / params.a, mp.k2 ** (-(n0 - 1)) / params.b
    )
    escape = lhs + tol < d0
    if escape.any():
        eps_prime = float(np.min(lhs[escape]))
    else:
        eps_prime = threshold
    # the falsifiable form of (i): pairs below the a-priori threshold must
    # not escape, i.e. the inequality holds with eps' = threshold
    failures = int(np.sum(lhs + tol < np.minimum(d0, threshold)))
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
