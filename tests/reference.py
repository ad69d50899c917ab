"""Slow reference implementations that the tests use as oracles.

None of this is library code: each function or class here is a second,
independent route to a value the package computes on a fast path, kept only
to cross-check that path.  The module name does not match ``test_*.py``, so
pytest does not collect it.

The first section holds the scalar distance ``rho`` with its disagreement
times, ``shift_point`` and anchored ``Word``s: the package computes rho only
in batch (``FiniteSample.from_points``) or for single-disagreement pairs
(``verify_hyperbolicity``), and these are the pair-at-a-time definitions
those routes are checked against.  ``reference_shifted_rho_table``,
``sampled_pair_distances`` and ``reference_verify_hyperbolicity`` check
sampled pairs one at a time against the package's exhaustive
hyperbolicity check, and ``table_single_disagreement_distances`` reads
that check's per-position values off a full table of shifted distances.
``shifted_rho_tables`` is the batch form of the shifted table, and
``sampled_hyperbolicity`` folds its rows through the package's reduction,
fast enough for the 10^4 pairs of acceptance criterion 10; the
pair-at-a-time functions are its oracles.

The spaces-and-supports section reads a space's graph and a measure's
support off their inputs alone, as the oracles of ``ShiftSpace.adjacency``,
``supported_on`` and ``support_word_count``: the one-state-at-a-time trim
``trimmed_states`` (with ``reference_alive_states``), ``allows`` on the
input ``transition`` and the word check ``reference_is_admissible`` built on
it, and the per-family loops ``reference_supported_on`` and
``reference_support_word_count``.

The Perron section holds the power iterations that ``top_entropy_oracle``
and ``stationary`` replaced with a direct solve: ``power_top_entropy`` on
T + I and ``power_stationary`` on the lazy kernel (P + I)/2, with
``perron_bracket``, a power iteration whose stopping rule is a certified
bracket on the spectral radius.

The typical-point section holds the per-seed sampler walk
``reference_sample_window`` (one ``bisect_right`` per symbol, with its own
time-reversed kernel), the one-block scalar mass
``reference_block_log_mass`` and the per-window batch information
``reference_block_information``: the oracles of ``sample_typical_windows``
and of the information read off a batch's costs gathered once.  The
exact-cover section holds the closed-form spectra, the per-length
transition-count merge ``reference_transition_count_spectrum`` (the oracle
of the one merge per call that ``measures`` runs) and the per-group
equal-mass merge.

The last section holds the oracles of the window arithmetic in
``shiftmetrics.cylinders``: the per-shift union ``alpha_union_window`` that
``alpha_window`` reads off its end shifts, the three-valued membership tests ``in_ball``,
``in_bowen_ball``, ``in_neutralized_ball`` and ``in_alpha_ball`` (acceptance
criterion 11 checks every window against them), and the window-matching
lemmas ``open_ball_as_bowen``, ``neutralized_match`` and ``alpha_match``
with their sandwich windows (criterion 12 reads their limit ratios).
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from shiftmetrics import (
    BernoulliMeasure,
    CylinderIndex,
    FiniteSample,
    HyperbolicityReport,
    MarkovMeasure,
    MatherParams,
    Measure,
    MetricParams,
    Point,
    ShiftSpace,
    alpha_window,
    ball_window,
    neutralized_window,
    p_of_log_r,
    p_of_r,
    require_alpha_regime,
)
from shiftmetrics.cylinders import _reach
from shiftmetrics.errors import (
    BadMeasure,
    ConstraintViolated,
    DifferentSpaces,
    HorizonExceeded,
    HypothesisViolated,
    InadmissibleWord,
    NoConvergence,
    QuasiMetricViolated,
    SandwichViolated,
    SaturatedDistances,
    ShiftMetricsError,
)
from shiftmetrics import measures
from shiftmetrics.estimators import SPREAD_TOL
from shiftmetrics.measures import (
    _COVER_SLACK,
    _choice_cdf,
    _lgfact_table,
    _log_choose,
    _require_symbols,
)
from shiftmetrics.metrics import ONE_SIDED, VERIFY_RTOL, VERIFY_TOL, _hyperbolicity_report
from shiftmetrics.shiftspace import _seed_value


class SampleNotOrbitClosed(ShiftMetricsError):
    """A shifted point required by the construction is missing from the
    finite sample."""


class RadiiOutOfOrder(ShiftMetricsError):
    """Radius arguments must satisfy the documented ordering."""


class NoIntegerSolution(ShiftMetricsError):
    """No integer window-matching solution exists in the admissible
    interval; typically the radius is not small enough."""


# ---------------------------------------------------------------------------
# shifted points, anchored words and the scalar distance
# ---------------------------------------------------------------------------


def coordinate(x: Point, t: int) -> int:
    """The symbol of x at coordinate t; ``HorizonExceeded`` past its horizon."""
    return int(x.window(t, t)[0])


def shift_point(x: Point, i: int) -> Point:
    """Apply the shift map i times: new coordinate t holds old coordinate t + i.

    The window shrinks by |i| on both sides, and the new point's symbols are
    a read-only view of the old ones; shifting past the horizon raises
    ``HorizonExceeded``.
    """
    new_h = x.horizon - abs(i)
    if new_h < 0:
        raise HorizonExceeded(
            f"shift by {i} needs symbols beyond the horizon {x.horizon}"
        )
    symbols = x.window(i - new_h, i + new_h)
    symbols.setflags(write=False)
    return Point(x.space, symbols)


@dataclass(frozen=True)
class Word:
    """A finite admissible word anchored at an absolute index.

    ``symbols[t]`` is the symbol at coordinate ``anchor + t``.
    """

    symbols: tuple[int, ...]
    anchor: int

    def __len__(self) -> int:
        return len(self.symbols)


def point_word(x: Point, lo: int, hi: int) -> Word:
    """The word of x on coordinates lo..hi, anchored at lo."""
    return Word(tuple(int(c) for c in x.window(lo, hi)), lo)


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
# pair-at-a-time rho kernels
# ---------------------------------------------------------------------------


def reference_from_points(points: Sequence[Point], params: MetricParams) -> FiniteSample:
    """The rho matrix made of one scalar ``rho`` call per pair."""
    n = len(points)
    mat = np.zeros((n, n))
    exact = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            rv = rho(points[i], points[j], params)
            mat[i, j] = mat[j, i] = rv.value
            exact[i, j] = exact[j, i] = rv.exact
    return FiniteSample(mat, exact)


def reference_shifted_rho_table(
    x: Point, y: Point, params: MetricParams, max_shift: int
) -> np.ndarray:
    """rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift], by
    binary search in the pair's sorted disagreement coordinates."""
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


def _reduce_table(tab: np.ndarray, mp: MatherParams) -> tuple[float, float, float, float]:
    """rho, and d~ at shifts 0, +1 and -1, read off one pair's table of rho
    at shifts -(n0+1)..n0+1."""
    n0 = mp.n0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)
    c = n0 + 1

    def d_tilde(t: int) -> float:
        back = tab[c + t - n0 + 1 : c + t + 1][::-1]  # D(shift by t-i), i=0..n0-1
        fwd = tab[c + t : c + t + n0]
        return float(max(np.max(back * w1), np.max(fwd * w2)))

    return float(tab[c]), d_tilde(0), d_tilde(1), d_tilde(-1)


def sampled_pair_distances(
    x: Point, y: Point, mp: MatherParams, params: MetricParams
) -> tuple[float, float, float, float]:
    """rho(x, y), and d~ at shifts 0, +1 and -1, of a sampled pair."""
    return _reduce_table(reference_shifted_rho_table(x, y, params, mp.n0 + 1), mp)


#: pairs per block of ``sampled_hyperbolicity`` (bounds its transient memory)
PAIR_CHUNK = 64


def shifted_rho_tables(
    pairs: Sequence[tuple[Point, Point]], params: MetricParams, max_shift: int
) -> np.ndarray:
    """Row k: rho(shift(x,j), shift(y,j)) for j in [-max_shift, max_shift],
    (x, y) = ``pairs[k]``; all pairs are scanned at once (callers chunk).

    The batch form of ``reference_shifted_rho_table``: a running minimum and
    maximum over each pair's mismatch mask give the next and previous
    disagreement of every coordinate, and the shifted times follow.  The
    first pair, in order, that mixes spaces (``DifferentSpaces``), whose
    common horizon is below ``max_shift``, or whose shifts are unresolved
    (``SaturatedDistances``; a pair literally equal on its common window
    yields zeros instead) raises.
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
        mism = np.zeros((len(masks), 2 * H + 1), dtype=bool)
        for row, mask, hc in zip(mism, masks, hcs):
            row[H - hc : H + hc + 1] = mask
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


def chunked_shifted_rho_tables(
    pairs: Sequence[tuple[Point, Point]], params: MetricParams, max_shift: int
) -> np.ndarray:
    """``shifted_rho_tables`` called on blocks of ``PAIR_CHUNK`` pairs, as
    ``sampled_hyperbolicity`` calls it, and the blocks' rows collected."""
    out = np.empty((len(pairs), 2 * max_shift + 1))
    for start in range(0, len(pairs), PAIR_CHUNK):
        block = pairs[start : start + PAIR_CHUNK]
        out[start : start + len(block)] = shifted_rho_tables(block, params, max_shift)
    return out


def sampled_hyperbolicity(
    pairs: Sequence[tuple[Point, Point]], mp: MatherParams, params: MetricParams
) -> HyperbolicityReport:
    """The hyperbolicity counts and margins of sampled pairs, in batch: each
    block of ``PAIR_CHUNK`` pairs is reduced to its rho and its d~ at shifts
    0 and +-1 before the next block is scanned, and the package's reduction
    folds them.  ``reference_verify_hyperbolicity`` is its pair-at-a-time
    twin."""
    if len(pairs) == 0:
        raise HypothesisViolated("sampled_hyperbolicity needs at least one pair")
    n0 = mp.n0
    c = n0 + 1  # column of shift 0
    w1 = mp.k1 ** -np.arange(n0, dtype=float)
    w2 = mp.k2 ** -np.arange(n0, dtype=float)

    def d_tilde(tables: np.ndarray, t: int) -> np.ndarray:
        back = tables[:, c + t - n0 + 1 : c + t + 1][:, ::-1]  # D(shift by t-i), i=0..n0-1
        fwd = tables[:, c + t : c + t + n0]
        return np.maximum(np.max(back * w1, axis=1), np.max(fwd * w2, axis=1))

    rho0, d0, dp, dm = (np.empty(len(pairs)) for _ in range(4))
    for start in range(0, len(pairs), PAIR_CHUNK):
        tables = shifted_rho_tables(pairs[start : start + PAIR_CHUNK], params, n0 + 1)
        block = slice(start, start + len(tables))
        rho0[block] = tables[:, c]
        d0[block] = d_tilde(tables, 0)
        dp[block] = d_tilde(tables, 1)
        dm[block] = d_tilde(tables, -1)
    return _hyperbolicity_report(rho0, d0, dp, dm, mp, params)


def table_single_disagreement_distances(
    positions: np.ndarray, mp: MatherParams, params: MetricParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho, and d~ at shifts 0, +1 and -1, of the pair that differs only at
    each coordinate p of ``positions``, read off its full table of rho at
    shifts -(n0+1)..n0+1 (max(a**-n_minus, b**-n_plus), a side with no
    disagreement adding 0), one O(n0) reduction per row."""
    n0 = mp.n0
    gap = np.asarray(positions)[:, None] - np.arange(-(n0 + 1), n0 + 2)  # p - j
    ahead = np.where(gap >= 0, params.b ** -np.abs(gap).astype(float), 0.0)
    behind = np.where(gap <= 0, params.a ** -np.abs(gap).astype(float), 0.0)
    rows = [_reduce_table(tab, mp) for tab in np.maximum(ahead, behind)]
    return tuple(np.array(rows).T)


def reference_verify_hyperbolicity(
    pairs: Sequence[tuple[Point, Point]],
    mp: MatherParams,
    params: MetricParams,
    tol: float = VERIFY_TOL,
) -> HyperbolicityReport:
    """The hyperbolicity counts and margins of sampled pairs, one pair at a
    time, each pair's counts and margins folded in before the next pair's
    table is made.  The counts compare relatively, by ``VERIFY_RTOL``; the
    worst margins subtract ``tol``."""
    n0 = mp.n0
    up, down = 1.0 + VERIFY_RTOL, 1.0 - VERIFY_RTOL
    lip_f = lip_b = sandw = 0
    worst_lip = -math.inf
    worst_sand = -math.inf
    lhs_all = np.empty(len(pairs))
    d0_all = np.empty(len(pairs))
    for idx, (x, y) in enumerate(pairs):
        rho0, d0, dp, dm = sampled_pair_distances(x, y, mp, params)
        bound_f = 16.0 * params.b * d0
        bound_b = 16.0 * params.a * d0
        if dp > bound_f * up:
            lip_f += 1
        if dm > bound_b * up:
            lip_b += 1
        worst_lip = max(worst_lip, dp - (bound_f + tol), dm - (bound_b + tol))
        if d0 / 4.0 > rho0 * up or rho0 > 4.0 * d0 * up:
            sandw += 1
        worst_sand = max(worst_sand, d0 / 4.0 - rho0, rho0 - 4.0 * d0)
        lhs_all[idx] = max(dm / (params.a - mp.gamma), dp / (params.b - mp.gamma))
        d0_all[idx] = d0
    threshold = 0.25 * min(
        mp.k1 ** (-(n0 - 1)) / params.a, mp.k2 ** (-(n0 - 1)) / params.b
    )
    escape = lhs_all < d0_all * down
    eps_prime = float(np.min(lhs_all[escape])) if escape.any() else threshold
    failures = int(np.sum(lhs_all < np.minimum(d0_all, threshold) * down))
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
# the graph of a space and the support of a measure, read off their inputs
# ---------------------------------------------------------------------------


def trimmed_states(transition) -> tuple[int, ...]:
    """The states of a 0/1 matrix left once every state without an in- or an
    out-edge among the states left is removed, one state at a time."""
    mat = np.asarray(transition)
    alive = set(range(mat.shape[0]))
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            has_out = any(mat[s, t] for t in alive)
            has_in = any(mat[t, s] for t in alive)
            if not (has_out and has_in):
                alive.discard(s)
                changed = True
    return tuple(sorted(alive))


@functools.lru_cache(maxsize=256)
def reference_alive_states(space: ShiftSpace) -> tuple[int, ...]:
    """``trimmed_states`` of the input ``transition``; every symbol of a full
    shift.  Cached, since the scalar walks ask it once per symbol."""
    if space.transition is None:
        return tuple(range(space.alphabet_size))
    return trimmed_states(space.transition)


def allows(space: ShiftSpace, i: int, j: int) -> bool:
    """True when the two-letter word ij is admissible among alive states,
    computed from ``space.transition`` alone."""
    alive = reference_alive_states(space)
    if i not in alive or j not in alive:
        return False
    return space.transition is None or bool(space.transition[i, j])


def reference_is_admissible(space: ShiftSpace, word) -> bool:
    """Every symbol alive and every two-letter factor checked with ``allows``."""
    w = [int(c) for c in word]
    alive = reference_alive_states(space)
    return all(c in alive for c in w) and all(allows(space, i, j) for i, j in zip(w, w[1:]))


def reference_supported_on(mu: Measure, space: ShiftSpace) -> bool:
    """Every pair of support symbols (Bernoulli) or every positive entry of
    ``P`` (Markov) checked with ``allows``."""
    if mu.alphabet_size > space.alphabet_size:
        return False
    if isinstance(mu, BernoulliMeasure):
        sup = mu.support
        return all(allows(space, i, j) for i in sup for j in sup)
    P = np.asarray(mu.P)
    m = mu.alphabet_size
    return all(allows(space, i, j) for i in range(m) for j in range(m) if P[i, j] > 0)


def reference_support_word_count(mu: Measure, length: int) -> int:
    """|support|^length (Bernoulli), or the sum of the entries of the
    (length - 1)-th power of the positive pattern of ``P`` (Markov)."""
    if length == 0:
        return 1
    if isinstance(mu, BernoulliMeasure):
        return len(mu.support) ** length
    positive = (np.asarray(mu.P) > 0).tolist()
    m = mu.alphabet_size
    ending = [1] * m
    for _ in range(length - 1):
        ending = [sum(ending[s] for s in range(m) if positive[s][t]) for t in range(m)]
    return sum(ending)


# ---------------------------------------------------------------------------
# the Perron data by power iteration
# ---------------------------------------------------------------------------

#: Relative tolerance of ``power_top_entropy``.
ENTROPY_TOL = 1e-12
#: Stopping tolerance of ``power_stationary``.
STATIONARY_TOL = 1e-12
#: Step cap of both power iterations.
POWER_ITER_CAP = 200_000


def power_top_entropy(space: ShiftSpace) -> float:
    """ln of the spectral radius of the trimmed matrix T, by power iteration
    on T + I (the diagonal shift removes periodicity without moving the
    leading eigenvector) to a relative tolerance, then shifted back."""
    if space.is_full:
        return math.log(space.alphabet_size)
    alive = space.alive_states
    A = space.adjacency[np.ix_(alive, alive)].astype(float) + np.eye(len(alive))
    v = np.ones(A.shape[0])
    v /= v.sum()
    lam_prev = None
    for it in range(POWER_ITER_CAP):
        w = A @ v
        lam = w.sum() / v.sum()
        v = w / w.sum()
        if lam_prev is not None and abs(lam - lam_prev) <= ENTROPY_TOL * abs(lam) and it >= 5:
            return math.log(lam - 1.0)
        lam_prev = lam
    raise NoConvergence(
        f"power iteration did not reach rel tol {ENTROPY_TOL} in {POWER_ITER_CAP} iterations; "
        f"last={lam_prev}"
    )


def perron_bracket(transition, rel: float = 1e-12) -> tuple[float, float]:
    """Collatz-Wielandt bounds min_i (Av)_i / v_i <= rho(A) <= max_i (Av)_i / v_i
    of a primitive 0/1 matrix, for v from power iteration on A + I, once they
    are within ``rel`` of each other.  Unlike the stopping rule of
    ``power_top_entropy``, which compares two successive estimates and can stop
    where the estimates turn, the bracket holds for every positive v."""
    A = np.asarray(transition, dtype=float)
    v = np.ones(A.shape[0])
    for _ in range(POWER_ITER_CAP):
        w = A @ v
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= rel * hi:
            return float(lo), float(hi)
        v = (w + v) / (w + v).max()
    raise NoConvergence(f"Collatz-Wielandt bounds did not meet in {POWER_ITER_CAP} steps")


def power_stationary(P) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix, by power
    iteration on the lazy kernel (P + I)/2, which has the same fixed point
    but no periodicity, until successive iterates agree to
    ``STATIONARY_TOL``."""
    mat = np.asarray(P, dtype=float)
    n = mat.shape[0]
    lazy = 0.5 * (mat + np.eye(n))
    pi = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_CAP):
        nxt = pi @ lazy
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) <= STATIONARY_TOL:
            pi = nxt
            break
        pi = nxt
    else:
        raise NoConvergence(
            f"stationary iteration did not reach {STATIONARY_TOL} in {POWER_ITER_CAP} steps"
        )
    residual = np.max(np.abs(pi @ mat - pi))
    if residual > 1e-10:
        raise NoConvergence(f"stationary residual {residual} exceeds 1e-10")
    return pi


# ---------------------------------------------------------------------------
# typical points: the per-seed walk and product-form cylinder masses
# ---------------------------------------------------------------------------


def reference_block_log_mass(mu: Measure, w: np.ndarray) -> float:
    """ln of the (anchor-free, by stationarity) cylinder mass of one nonempty
    int64 block whose symbols are checked; -inf when the mass is 0."""
    if isinstance(mu, BernoulliMeasure):
        return float(mu._log_pi[w].sum())
    if isinstance(mu, MarkovMeasure):
        return float(mu._log_pi[w[0]] + mu._log_P[w[:-1], w[1:]].sum())
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def reference_block_information(mu: Measure, blocks: np.ndarray) -> np.ndarray:
    """-ln of the (anchor-free, by stationarity) cylinder mass of each row of
    a 2-D int64 array of nonempty blocks whose symbols are checked, +inf
    where the mass is 0: one gather of the block's own log costs, as the
    package read each ladder window before it gathered a batch's costs once."""
    if isinstance(mu, BernoulliMeasure):
        return -mu._log_pi[blocks].sum(axis=1)
    if isinstance(mu, MarkovMeasure):
        return -(mu._log_pi[blocks[:, 0]] + mu._log_P[blocks[:, :-1], blocks[:, 1:]].sum(axis=1))
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def log_word_mass(mu: Measure, symbols) -> float:
    """ln of the cylinder mass of a symbol block; -inf when the mass is 0.

    The block is anchor-free: stationarity makes the mass depend only on the
    symbols, never on where the window sits.
    """
    w = np.asarray(symbols, dtype=np.int64)
    if w.ndim != 1:
        raise InadmissibleWord(f"expected a 1-d symbol block, got shape {w.shape}")
    _require_symbols(mu, w)
    if w.size == 0:
        return 0.0
    return reference_block_log_mass(mu, w)


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


def reference_reversed_kernel(mu: MarkovMeasure) -> np.ndarray:
    """hat P_ij = pi_j P_ji / pi_i, rows renormalised, as the sampler builds it."""
    P = np.asarray(mu.P)
    pi = np.asarray(mu.pi)
    hat = (P.T * pi[None, :]) / pi[:, None]
    return hat / hat.sum(axis=1, keepdims=True)


def reference_sample_window(mu: Measure, horizon: int, seed) -> np.ndarray:
    """The stationary window of one seed, walked one symbol at a time: a
    ``bisect_right`` into the normalised CDF row of the law each uniform of
    ``default_rng(seed).random(2 * horizon + 1)`` is drawn from, in the
    order center, 1..horizon, -1..-horizon."""
    if horizon < 1:
        raise HorizonExceeded(f"horizon must be >= 1, got {horizon}")
    u = np.random.default_rng(_seed_value(seed)).random(2 * horizon + 1)
    draws = u.tolist()
    if isinstance(mu, BernoulliMeasure):
        row = _choice_cdf(mu.weights).tolist()
        walk = [bisect.bisect_right(row, v) for v in draws]
    elif isinstance(mu, MarkovMeasure):
        forward = _choice_cdf(mu.P).tolist()
        backward = _choice_cdf(reference_reversed_kernel(mu)).tolist()
        walk = [bisect.bisect_right(_choice_cdf(mu.pi).tolist(), draws[0])]
        for rows, steps in ((forward, draws[1 : horizon + 1]), (backward, draws[horizon + 1 :])):
            s = walk[0]
            for v in steps:
                s = bisect.bisect_right(rows[s], v)
                walk.append(s)
    else:
        raise BadMeasure(f"unsupported measure type {type(mu).__name__}")
    # walk = [center, 1..horizon, -1..-horizon]; lay it out as -horizon..horizon
    return np.array(walk[:horizon:-1] + walk[: horizon + 1], dtype=np.int64)


# ---------------------------------------------------------------------------
# eager slope fits: every diagnostic computed and stored with the slope
# ---------------------------------------------------------------------------


class EagerSlope(NamedTuple):
    """The fields of a slope estimate with its spread and flag stored."""

    slope: float
    intercept: float
    residual_rms: float
    ladder: tuple
    saturated: bool
    spread: float = 0.0
    flagged: bool = False
    points: tuple = ()
    point_slopes: tuple = ()


def reference_fit_slope(
    xs: Sequence[float],
    ys: Sequence[float],
    ladder: tuple,
    saturated: bool,
) -> EagerSlope:
    """Least-squares fit plus the x-sorted half-ladder spread, both halves
    fitted on every call."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise HorizonExceeded(f"need at least two usable ladder points, got {x.size}")
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    spread = 0.0
    if x.size >= 4:
        order = np.argsort(x)
        half = x.size // 2
        parts = []
        for sel in (order[:half], order[half:]):
            Ah = np.vstack([x[sel], np.ones(sel.size)]).T
            ch, *_ = np.linalg.lstsq(Ah, y[sel], rcond=None)
            parts.append(float(ch[0]))
        spread = abs(parts[1] - parts[0])
    flagged = spread > SPREAD_TOL * max(abs(slope), 1e-12)
    points = tuple(zip(xs, ys))
    return EagerSlope(slope, intercept, rms, ladder, saturated, spread, flagged, points)


def reference_average(estimates) -> EagerSlope:
    """Reduce per-point estimates in order, with the max-minus-min spread."""
    slopes = np.array([e.slope for e in estimates])
    spread = float(slopes.max() - slopes.min()) if len(estimates) > 1 else 0.0
    mean_slope = float(slopes.mean())
    return EagerSlope(
        slope=mean_slope,
        intercept=float(np.mean([e.intercept for e in estimates])),
        residual_rms=float(np.sqrt(np.mean([e.residual_rms**2 for e in estimates]))),
        ladder=estimates[0].ladder,
        saturated=any(e.saturated for e in estimates),
        spread=spread,
        flagged=spread > SPREAD_TOL * max(abs(mean_slope), 1e-12),
        point_slopes=tuple(e.slope for e in estimates),
    )


# ---------------------------------------------------------------------------
# the K-relaxed triangle test
# ---------------------------------------------------------------------------


def reference_check_quasi_metric(sample: FiniteSample, K: float) -> list[tuple[int, int, int]]:
    """Violating triples (i, j, k) from every k's full mask, k then (i, j) ascending."""
    if not sample.exact.all():
        bad = np.argwhere(~sample.exact)
        raise SaturatedDistances(
            f"{len(bad)} sample entries are only bounds (first: {tuple(bad[0])})"
        )
    R = sample.matrix
    out = []
    for k in range(len(sample)):
        bound = K * np.maximum(R[:, k][:, None], R[None, k, :]) + VERIFY_TOL
        for i, j in np.argwhere(R > bound):
            if i != j and i != k and j != k:
                out.append((int(i), int(j), int(k)))
    return out


def reference_minimax_closure(matrix: np.ndarray) -> np.ndarray:
    """min over chains of the largest link, by the min-max Floyd-Warshall loop."""
    C = np.array(matrix, dtype=float)
    for k in range(len(C)):
        np.minimum(C, np.maximum(C[:, k][:, None], C[None, k, :]), out=C)
    return C


def reference_frink_metrize(sample: FiniteSample) -> np.ndarray:
    """Chain metrization with three full n**3 loops: the K=2 test over every
    k, Floyd-Warshall over every row, and the triangle recheck of D over
    every row."""
    viol = reference_check_quasi_metric(sample, 2.0)
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
        if np.any(D > D[:, k][:, None] + D[None, k, :] + VERIFY_TOL):
            raise SandwichViolated("shortest-path output violated the triangle inequality")
    if np.any(D > sample.matrix + VERIFY_TOL):
        raise SandwichViolated("D <= rho failed")
    if np.any(sample.matrix > 4.0 * D + VERIFY_TOL):
        worst = float(np.max(sample.matrix - 4.0 * D))
        raise SandwichViolated(f"rho <= 4 D failed by {worst:.3e}")
    return D


# ---------------------------------------------------------------------------
# exact cover kernels: closed-form spectra and equal-mass merge
# ---------------------------------------------------------------------------


def reference_markov_spectrum(mu: MarkovMeasure, length: int):
    """Run-length classes of a two-state chain, one class at a time.

    Classes come in (start, end) blocks, then by run count, then by zero
    count ascending; classes of mass 0 are dropped after they are built.
    """
    if mu.alphabet_size != 2:
        return None
    logpi = np.log(np.asarray(mu.pi))
    with np.errstate(divide="ignore"):
        logP = np.log(np.asarray(mu.P))
    if length == 1:
        return logpi.copy(), np.zeros(2)
    L = length
    lgfact = _lgfact_table(L)

    def runs_count(n: np.ndarray, r: int) -> np.ndarray:
        # compositions of n symbols into r nonempty runs
        if r == 0:
            return np.where(n == 0, 0.0, -np.inf)
        return np.where(n >= r, _log_choose(lgfact, np.maximum(n - 1, 0), r - 1), -np.inf)

    def trans_term(count: np.ndarray, log_p: float) -> np.ndarray:
        if not math.isfinite(log_p):
            return np.where(count > 0, -np.inf, 0.0)
        return count * log_p

    masses, counts = [], []
    # (start, end) -> (zero-run count r0, one-run count r1, boundary counts)
    for s, e in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if s == e:
            v_max = (L - 1) // 2
            combos = [((v + 1, v) if s == 0 else (v, v + 1), v, v) for v in range(v_max + 1)]
        else:
            combos = [
                ((u, u), u if s == 0 else u - 1, u if s == 1 else u - 1)
                for u in range(1, L // 2 + 1)
            ]
        for (r0, r1), n01, n10 in combos:
            if r0 == 0:
                n0 = np.array([0])
            elif r1 == 0:
                n0 = np.array([L])
            else:
                n0 = np.arange(r0, L - r1 + 1)
            if n0.size == 0:
                continue
            n1 = L - n0
            log_count = runs_count(n0, r0) + runs_count(n1, r1)
            log_mass = (
                logpi[s]
                + trans_term(n0 - r0, logP[0, 0])
                + trans_term(np.full(n0.shape, n01), logP[0, 1])
                + trans_term(np.full(n0.shape, n10), logP[1, 0])
                + trans_term(n1 - r1, logP[1, 1])
            )
            keep = np.isfinite(log_count) & np.isfinite(log_mass)
            if keep.any():
                masses.append(log_mass[keep])
                counts.append(log_count[keep])
    return np.concatenate(masses), np.concatenate(counts)


def reference_transition_count_spectrum(mu: MarkovMeasure, length: int):
    """Transition-count classes of one window length >= 1, from a sorted merge
    of its own, with keys packed at radix ``length``; ``None`` when both their
    bound ``M C(L + e - 2, e - 1)`` and the support word count pass
    ``measures.ENUMERATION_LIMIT``."""
    m = mu.alphabet_size
    src, dst = np.nonzero(np.isfinite(mu._log_P))  # positive edges, row-major
    e = src.size
    if (
        m * math.comb(length + e - 2, e - 1) > measures.ENUMERATION_LIMIT
        and reference_support_word_count(mu, length) > measures.ENUMERATION_LIMIT
    ):
        return None
    # digits: the start (radix m), then each edge's count (radix L)
    word, place = [], []
    w, span = 0, 1
    for radix in [m] + [length] * e:
        if span * radix > 2**63:
            w, span = w + 1, 1
        word.append(w)
        place.append(span)
        span *= radix
    edge_word = np.array(word[1:])
    edge_place = np.array(place[1:], dtype=np.int64)
    first_edge = np.searchsorted(src, np.arange(m))
    degree = np.bincount(src, minlength=m)
    keys = np.zeros((m, w + 1), dtype=np.int64)
    keys[:, 0] = np.arange(m)
    last = np.arange(m)
    counts = np.ones(m)
    for _ in range(length - 1):
        reps = degree[last]
        edge = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - first_edge[last], reps)
        keys = np.repeat(keys, reps, axis=0)
        keys[np.arange(edge.size), edge_word[edge]] += edge_place[edge]
        order = np.argsort(keys[:, 0]) if w == 0 else np.lexsort(keys.T)
        keys, last, counts = keys[order], dst[edge[order]], np.repeat(counts, reps)[order]
        starts = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
        keys, last, counts = keys[starts], last[starts], np.add.reduceat(counts, starts)
    log_mass = mu._log_pi[keys[:, 0] % m]
    for j in range(e):
        log_mass += keys[:, edge_word[j]] // place[j + 1] % length * mu._log_P[src[j], dst[j]]
    return log_mass, np.log(counts)


def reference_bernoulli_spectrum(mu: BernoulliMeasure, length: int):
    """Closed-form classes of three Bernoulli families: one support symbol,
    uniform weights on the support, and a two-symbol support; ``None`` for
    every other measure."""
    sup = mu.support
    w = np.asarray(mu.weights)[list(sup)]
    if len(sup) == 1:
        return np.array([length * math.log(w[0])]), np.array([0.0])
    if np.max(w) - np.min(w) < 1e-15:
        # uniform on the support: a single class of |support|^length words
        return (
            np.array([length * math.log(w[0])]),
            np.array([length * math.log(len(sup))]),
        )
    if len(sup) == 2:
        lgfact = _lgfact_table(length)
        j = np.arange(length + 1)
        log_mass = (length - j) * math.log(w[0]) + j * math.log(w[1])
        log_count = _log_choose(lgfact, np.full(length + 1, length), j)
        return log_mass, log_count
    return None


def reference_merge_equal_mass(log_mass: np.ndarray, log_count: np.ndarray):
    """Sort classes by descending mass and merge ties group by group."""
    order = np.argsort(-log_mass)
    lm = log_mass[order]
    lc = log_count[order]
    if lm.size <= 1:
        return lm, lc
    keys = np.round(lm / _COVER_SLACK).astype(np.int64)
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    groups = np.split(np.arange(lm.size), boundaries)
    merged_lc = np.array([float(np.logaddexp.reduce(lc[g])) for g in groups])
    merged_tot = np.array([float(np.logaddexp.reduce(lm[g] + lc[g])) for g in groups])
    return merged_tot - merged_lc, merged_lc


# ---------------------------------------------------------------------------
# ball membership and window-matching lemmas (oracles of ``cylinders``)
# ---------------------------------------------------------------------------


def window_contains(wide: CylinderIndex, narrow: CylinderIndex) -> bool:
    """Window containment; the cylinder order is the reverse of this."""
    return wide.lo <= narrow.lo and wide.hi >= narrow.hi


def alpha_union_window(
    n: int, m: int, alpha: float, r: float, params: MetricParams
) -> CylinderIndex:
    """Fixed window of the alpha-estimation ball as the exact union over all
    shifts -n..m of the per-shift windows [i - behind, i + ahead] at radii
    e^{-|i|alpha} r (contiguous, since each contains its own shift i).

    For alpha < min(ln a, ln b) this is ``alpha_window``; outside that
    regime the interior shifts can reach further than the end shifts, and
    the union is still the ball's window.
    """
    if n < 0 or m < 0:
        raise HypothesisViolated(f"depths must be nonnegative, got n={n}, m={m}")
    if alpha < 0.0:
        raise HypothesisViolated(f"alpha must be >= 0, got {alpha}")
    reach = _reach(params, p_of_r, r)
    lr = math.log(r)
    pairs = [
        (i, reach if i == 0 or not alpha else _reach(params, p_of_log_r, lr - abs(i) * alpha))
        for i in range(-n, m + 1)
    ]
    return CylinderIndex(
        min(i - behind for i, (behind, _) in pairs), max(i + ahead for i, (_, ahead) in pairs)
    )


def _rho_below(x: Point, y: Point, bound: float, params: MetricParams):
    """True / False / None (undecidable within the available windows).

    An inexact value is a lower bound on the true distance, so "already at
    or above the threshold" is decidable even without full resolution.
    """
    rv = rho(x, y, params)
    if rv.value >= bound:
        return False
    return True if rv.exact else None


def _conjunction(checks) -> bool:
    """All-of over three-valued memberships: one False decides, otherwise
    any undecidable constraint makes the whole test undecidable."""
    undecided = False
    for c in checks:
        if c is False:
            return False
        undecided = undecided or c is None
    if undecided:
        raise HorizonExceeded(
            "membership undecidable: some constraint is unresolved below its bound"
        )
    return True


def in_ball(x: Point, y: Point, r: float, params: MetricParams) -> bool:
    return _conjunction([_rho_below(x, y, r, params)])


def in_bowen_ball(
    x: Point, y: Point, n: int, m: int, r: float, params: MetricParams
) -> bool:
    return _conjunction(
        _rho_below(shift_point(x, i), shift_point(y, i), r, params)
        for i in range(-n, m + 1)
    )


def in_neutralized_ball(
    x: Point, y: Point, n: int, m: int, r: float, params: MetricParams
) -> bool:
    return in_bowen_ball(x, y, n, m, math.exp(-(n + m) * r), params)


def in_alpha_ball(
    x: Point, y: Point, n: int, m: int, alpha: float, r: float, params: MetricParams
) -> bool:
    return _conjunction(
        _rho_below(
            shift_point(x, i), shift_point(y, i), math.exp(-abs(i) * alpha) * r, params
        )
        for i in range(-n, m + 1)
    )


# ---------------------------------------------------------------------------
# ball matching: expressing one ball family through another
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenBallMatch:
    """Depths (n, m) with B(x, r) = Bowen ball B(x, -n, m, r1), plus the
    growth ratio (n+m)/ln(1/r) whose r -> 0 limit is 1/ln a + 1/ln b."""

    n: int
    m: int
    ratio: float


def open_ball_as_bowen(r: float, r1: float, params: MetricParams) -> OpenBallMatch:
    """Depths n = q(r) - q(r1), m = p(r) - p(r1) converting the open r-ball
    into a Bowen ball at base radius r1."""
    if not (0.0 < r <= r1 < 1.0):
        raise RadiiOutOfOrder(f"need 0 < r <= r1 < 1, got r={r}, r1={r1}")
    m = p_of_r(r, params.b) - p_of_r(r1, params.b)
    n = 0 if params.mode == ONE_SIDED else p_of_r(r, params.a) - p_of_r(r1, params.a)
    return OpenBallMatch(n=n, m=m, ratio=(n + m) / math.log(1.0 / r))


@dataclass(frozen=True)
class NeutralizedMatch:
    """Solution (m2, n2) of the neutralized matching equations at rate r2.

    ``h = m2 + n2`` solves m2 = p(r) - p(e^{-h r2}) and
    n2 + j = q(r) - q(e^{-h r2}) for a residual j with |j| <= 2.
    ``ambiguous_j`` reports whether other admissible h values produce a
    different residual.  The ratio h/ln(1/r) tends to k/(1 + r2 k).
    """

    m2: int
    n2: int
    j: int
    h: int
    ratio: float
    ambiguous_j: bool


def neutralized_match(r: float, r2: float, params: MetricParams) -> NeutralizedMatch:
    """Find the smallest admissible h and split it into (m2, n2)."""
    k = params.k()
    if not (0.0 < r2 < 3.0 / k):
        raise ConstraintViolated(
            f"rate must lie in (0, 3/k) = (0, {3.0 / k:.6g}), got {r2}"
        )
    if not (0.0 < r < math.exp(-2.0 * r2)):
        raise ConstraintViolated(
            f"need r < e^(-2 r2) = {math.exp(-2.0 * r2):.6g}, got {r}"
        )
    L = math.log(1.0 / r)
    lo = (k * L - 2.0) / (1.0 + k * r2)
    hi = (k * L + 2.0) / (1.0 + k * r2)
    pr = p_of_r(r, params.b)
    qr = p_of_r(r, params.a)
    solutions = []
    for h in range(math.floor(lo) + 1, math.ceil(hi)):
        if not (lo < h < hi) or h < 1:
            continue
        ph = p_of_log_r(-h * r2, params.b)
        qh = p_of_log_r(-h * r2, params.a)
        m2 = pr - ph
        j = (pr + qr - ph - qh) - h
        n2 = qr - qh - j
        if abs(j) <= 2 and m2 >= 1 and n2 >= 1:
            solutions.append((h, m2, n2, j))
    if not solutions:
        raise NoIntegerSolution(
            f"no admissible integer depth for r={r}, r2={r2}; decrease r"
        )
    h, m2, n2, j = solutions[0]
    js = {s[3] for s in solutions}
    return NeutralizedMatch(
        m2=m2, n2=n2, j=j, h=h, ratio=h / L, ambiguous_j=len(js) > 1
    )


def neutralized_sandwich_windows(
    match: NeutralizedMatch, r: float, r2: float, params: MetricParams
) -> tuple[CylinderIndex, CylinderIndex, CylinderIndex]:
    """Windows of the inner/middle/outer sets in the neutralized sandwich

        B(x, -(n2+2), m2, e^{-(h+2) r2})  <=  B(x, r)  <=
        B(x, -(n2-2), m2, e^{-(h-2) r2})

    (window containment runs the opposite way).  Raises ConstraintViolated
    when n2 < 2 or h < 3, i.e. r was not small enough to form the outer set.
    """
    if match.n2 < 2 or match.h < 3:
        raise ConstraintViolated(
            f"sandwich needs n2 >= 2 and h >= 3, got n2={match.n2}, h={match.h}"
        )
    inner = neutralized_window(match.n2 + 2, match.m2, r2, params)
    mid = ball_window(r, params)
    outer = neutralized_window(match.n2 - 2, match.m2, r2, params)
    if not (window_contains(inner, mid) and window_contains(mid, outer)):
        raise ConstraintViolated(
            f"sandwich containment failed: {inner}, {mid}, {outer}"
        )
    return inner, mid, outer


@dataclass(frozen=True)
class AlphaMatch:
    """Depths (n3, m3) matching the open r-ball by alpha-estimation balls
    at base radius r3, with per-side residuals j1, j2 in [-1, 1]:

        m3 + j1 = p(r) - p(e^{-m3 alpha} r3)
        n3 + j2 = q(r) - q(e^{-n3 alpha} r3)

    The ratio (n3+m3)/ln(1/r) tends to 1/(ln a + alpha) + 1/(ln b + alpha).
    """

    m3: int
    n3: int
    j1: int
    j2: int
    ratio: float


def _alpha_side_match(target: int, L: float, L3: float, alpha: float, exponent, log_base: float):
    """Smallest positive integer m with exponent residual in [-1, 1]; ``target``
    is p(r) or q(r), ``exponent`` the same bracket on a log radius."""
    center = (L - L3) / (log_base + alpha)
    for m in range(max(1, math.floor(center) - 3), math.ceil(center) + 4):
        j = target - exponent(-m * alpha - L3) - m
        if abs(j) <= 1:
            return m, j
    raise NoIntegerSolution(
        f"no integer depth near {center:.3f} with residual in [-1, 1]"
    )


def alpha_match(r: float, r3: float, alpha: float, params: MetricParams) -> AlphaMatch:
    """Solve the two matching equations; one-sided mode solves only the
    forward one and reports n3 = 0, j2 = 0."""
    require_alpha_regime(alpha, params)
    if not (0.0 < r < r3 < 1.0):
        raise RadiiOutOfOrder(f"need 0 < r < r3 < 1, got r={r}, r3={r3}")
    L = math.log(1.0 / r)
    L3 = math.log(1.0 / r3)
    m3, j1 = _alpha_side_match(
        p_of_r(r, params.b), L, L3, alpha, lambda ls: p_of_log_r(ls, params.b), params.log_b
    )
    if params.mode == ONE_SIDED:
        n3, j2 = 0, 0
    else:
        n3, j2 = _alpha_side_match(
            p_of_r(r, params.a), L, L3, alpha, lambda ls: p_of_log_r(ls, params.a), params.log_a
        )
    return AlphaMatch(m3=m3, n3=n3, j1=j1, j2=j2, ratio=(m3 + n3) / L)


def alpha_sandwich_windows(
    match: AlphaMatch, r: float, r3: float, alpha: float, params: MetricParams
) -> tuple[CylinderIndex, CylinderIndex, CylinderIndex]:
    """Windows of the alpha sandwich

        B(x, -(n3+1), m3+1, alpha, r3)  <=  B(x, r)  <=
        B(x, -(n3-1), m3-1, alpha, r3).
    """
    if match.n3 < 1 or match.m3 < 1:
        raise ConstraintViolated(
            f"sandwich needs positive depths, got n3={match.n3}, m3={match.m3}"
        )
    inner = alpha_window(match.n3 + 1, match.m3 + 1, alpha, r3, params)
    mid = ball_window(r, params)
    outer = alpha_window(match.n3 - 1, match.m3 - 1, alpha, r3, params)
    if not (window_contains(inner, mid) and window_contains(mid, outer)):
        raise ConstraintViolated(
            f"sandwich containment failed: {inner}, {mid}, {outer}"
        )
    return inner, mid, outer
