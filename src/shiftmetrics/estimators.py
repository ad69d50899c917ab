"""Log-log slope estimators for dimensions and entropy-like growth rates.

Every limit quantity is realized as a least-squares slope over an explicit
ladder (radii for dimensions, window depths for entropies), with three
diagnostics attached: the fit residual, a first-half/second-half slope
spread (a limsup/liminf proxy; a large spread is flagged, never averaged
away), and a saturation bit set when any requested window exceeded the
available horizon.

Counting estimators are exact: balls are cylinders here, distinct cylinders
over one window are disjoint, so minimal covers and spanning cardinalities
are plain word counts.  Measure estimators reduce to exact cylinder masses.
``verify_identities`` then cross-checks the computed slopes against the
closed-form products of entropies and scale constants.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cylinders import (
    CylinderIndex,
    RadiusLadder,
    alpha_window,
    ball_window,
    bowen_window,
    neutralized_window,
    require_alpha_regime,
)
from .errors import (
    BadMeasure,
    BatchTooLarge,
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    IncompatibleInputs,
    NoSolution,
)
from .measures import (
    Measure,
    _information_reader,
    minimal_cover_log_counts,
    sample_typical,
    sample_typical_windows,
)
from .metrics import ONE_SIDED, VERIFY_TOL, MetricParams
from .shiftspace import Point, ShiftSpace, word_counts

#: Reference radius used wherever a fixed radius only shifts the intercept.
DEFAULT_R1 = 0.9
#: Relative half-vs-half slope spread beyond which an estimate is flagged.
SPREAD_TOL = 0.2
#: Relative tolerance for algebraically exact identities.
EXACT_TOL = 1e-9
#: Relative tolerance for word-count regressions.
COUNT_TOL = 0.02
#: Relative tolerance for measure (Monte-Carlo) regressions.
MEASURE_TOL = 0.05
#: Default radius ladder 2^-j_min .. 2^-j_max of the dimension estimators.
DEFAULT_LADDER = (8, 40)
#: Default shrinking rate ``r`` and discount rate ``alpha`` of the rated kinds.
DEFAULT_RATES = {"r": 0.05, "alpha": 0.1}
#: Most bytes the typical points of one average may take: a uniform and an
#: int64 symbol, 16 bytes, per coordinate of every point.  The uniforms are
#: gone when the information costs are gathered, so the windows plus their
#: float64 costs are still 16 bytes a coordinate.
TYPICAL_BATCH_BYTES = 2**28


@dataclass(frozen=True)
class SlopeEstimate:
    """Least-squares slope with fit diagnostics.

    ``saturated`` records that at least one requested window did not fit the
    available horizon and was dropped.  ``points`` holds the (x, y) pairs
    the fit used; ``point_slopes`` holds the per-point slopes an average
    over typical points reduced, in sampling order.  ``spread`` and
    ``flagged`` are read off these on demand.
    """

    slope: float
    intercept: float
    residual_rms: float
    ladder: tuple
    saturated: bool
    points: tuple = ()
    point_slopes: tuple = ()

    def __post_init__(self):
        if not self.residual_rms >= 0.0:
            raise ValueError(f"residual_rms must be >= 0, got {self.residual_rms}")

    @cached_property
    def spread(self) -> float:
        """Max minus min of ``point_slopes`` for an average; for a fit of 4 or
        more points, |first-half slope - second-half slope| with the halves
        taken in x order; else 0."""
        if self.point_slopes:
            slopes = np.array(self.point_slopes)
            return float(slopes.max() - slopes.min()) if len(slopes) > 1 else 0.0
        if len(self.points) < 4:
            return 0.0
        x, y = np.array(self.points, dtype=float).T
        order = np.argsort(x)
        half = x.size // 2
        halves = (order[:half], order[half:])
        low, high = (float(_fit_rows(x[sel], y[None, sel]).slope[0]) for sel in halves)
        return abs(high - low)

    @property
    def flagged(self) -> bool:
        """The spread exceeds ``SPREAD_TOL`` relative to the slope."""
        return self.spread > SPREAD_TOL * max(abs(self.slope), 1e-12)


@dataclass(frozen=True)
class RelationReport:
    """One verified identity: measured lhs vs closed-form rhs; it passes
    when ``rel_error <= tolerance``."""

    name: str
    lhs: float
    rhs: float
    rel_error: float
    _: KW_ONLY
    tolerance: float
    value: float | None = None

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tolerance


def relation_report(
    name: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    value: float | None = None,
    ordered: bool = False,
) -> RelationReport:
    """Build a report; ``ordered=True`` checks lhs <= rhs instead of equality.

    The error is relative to max(|rhs|, VERIFY_TOL), so a zero-entropy
    target compares rounding noise on an absolute scale.
    """
    scale = max(abs(rhs), VERIFY_TOL)
    if ordered:
        rel = max(0.0, (lhs - rhs) / scale)
    else:
        rel = abs(lhs - rhs) / scale
    return RelationReport(name, lhs, rhs, rel, tolerance=tolerance, value=value)


class _RowFits(NamedTuple):
    """The least-squares lines of one ladder, one per row of a (rows x
    windows) block: slope, intercept and residual rms arrays in row order."""

    slope: np.ndarray
    intercept: np.ndarray
    residual_rms: np.ndarray


def _fit_rows(xs: Sequence[float], block) -> _RowFits:
    """Fit every row of ``block`` against ``xs`` on one design matrix.

    Each row is its own ``np.linalg.lstsq`` solve, and its residual rms is
    read off that row's own residual vector, so every row's fit is, float
    for float, the fit of that row alone.  Fewer than two x values raise
    ``HorizonExceeded``.
    """
    x = np.asarray(xs, dtype=float)
    if x.size < 2:
        raise HorizonExceeded(f"need at least two usable ladder points, got {x.size}")
    A = np.vstack([x, np.ones_like(x)]).T
    fits = []
    for y in np.asarray(block, dtype=float):
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        resid = y - A @ coef
        fits.append((coef[0], coef[1], np.sqrt(np.mean(resid**2))))
    return _RowFits(*np.array(fits).T)


def _fit_slope(
    xs: Sequence[float],
    ys: Sequence[float],
    ladder: tuple,
    saturated: bool,
) -> SlopeEstimate:
    """The one-row case of ``_fit_rows``, which records the (x, y) pairs."""
    slope, intercept, rms = (float(field[0]) for field in _fit_rows(xs, [ys]))
    return SlopeEstimate(slope, intercept, rms, ladder, saturated, tuple(zip(xs, ys)))


def _depth_values(nm_range: Iterable[int]) -> tuple[int, ...]:
    vals = tuple(int(t) for t in nm_range)
    if not vals or any(t < 1 for t in vals):
        raise HypothesisViolated(f"window depths must be positive integers, got {vals!r}")
    if len(set(vals)) < 2:
        raise HypothesisViolated("need at least two distinct window depths for a slope")
    return vals


# ---------------------------------------------------------------------------
# ladders of cylinder windows, and the three ways of reading them
# ---------------------------------------------------------------------------


class _Ladder(NamedTuple):
    """The cylinder windows of an estimate's ladder, one per step.

    A reading maps each window to a log size that grows as the window
    widens: the ln word count (``"words"``), the ln minimal cover count
    (``"cover"``), or the information -ln mu of a point's cylinder
    (``"mass"``).  The fit is ``sign * log size`` against ``xs``; ``key`` is
    the ladder the estimate records.
    """

    xs: tuple[float, ...]
    windows: tuple[CylinderIndex, ...]
    sign: float
    key: tuple


def _ball_ladder(params: MetricParams, ladder, sign: float) -> _Ladder:
    """Open-ball windows over a radius ladder: sign +1 fits the log size
    against ln(1/r), sign -1 its negative (ln mu) against ln r."""
    radii = tuple(ladder)
    xs = tuple(math.log(1.0 / r) if sign > 0 else math.log(r) for r in radii)
    return _Ladder(xs, tuple(ball_window(r, params) for r in radii), sign, radii)


def _depth_ladder(
    params: MetricParams,
    nm_range: Iterable[int],
    window_of_depth: Callable[[int, int], CylinderIndex],
    theta: float = 0.5,
) -> _Ladder:
    """Windows of depth n + m = t with backward depth n = floor(t * theta)
    (one-sided: n = 0), fitted against t."""
    depths = _depth_values(nm_range)
    if params.mode == ONE_SIDED:
        theta = 0.0
    splits = ((math.floor(t * theta), t) for t in depths)
    windows = tuple(window_of_depth(n, t - n) for n, t in splits)
    return _Ladder(tuple(float(t) for t in depths), windows, 1.0, depths)


def _shrinking_ladder(
    params: MetricParams, r: float, nm_range: Iterable[int], r1: float
) -> _Ladder:
    """Bowen windows at the shrinking radius e^{-(n+m) r}, for 0 <= r < 3/k;
    at r = 0 they are the Bowen windows at the fixed radius r1."""
    bound = 3.0 / params.k()
    if not 0.0 <= r < bound:
        raise ConstraintViolated(
            f"shrinking rate r must satisfy 0 <= r < 3/k = {bound:.6g}, got {r}"
        )
    if r == 0.0:
        return _depth_ladder(params, nm_range, lambda n, m: bowen_window(n, m, r1, params))
    return _depth_ladder(params, nm_range, lambda n, m: neutralized_window(n, m, r, params))


def _alpha_ladder(
    params: MetricParams, alpha: float, nm_range: Iterable[int], r3: float
) -> _Ladder:
    """Depths split so that n (ln a + alpha) = m (ln b + alpha): the window
    length then grows like t k / k_alpha, the k_alpha of r + 1/k = 1/k_alpha
    (theta is exactly 0.5 when a = b)."""
    require_alpha_regime(alpha, params)
    theta = 0.5
    if params.mode != ONE_SIDED:
        fwd, bwd = params.log_b + alpha, params.log_a + alpha
        theta = fwd / (bwd + fwd)
    return _depth_ladder(
        params, nm_range, lambda n, m: alpha_window(n, m, alpha, r3, params), theta
    )


def _reach(ladder: _Ladder) -> int:
    """The horizon that holds every window of the ladder."""
    return max(max(-window.lo, window.hi) for window in ladder.windows)


def _read(ladder: _Ladder, log_sizes: Sequence[float]) -> SlopeEstimate:
    """Fit a ladder's log sizes, one per window in ladder order."""
    ys = [ladder.sign * y for y in log_sizes]
    return _fit_slope(ladder.xs, ys, ladder.key, False)


def _lengths(ladder: _Ladder) -> list[int]:
    """The length of each of a ladder's windows, in ladder order."""
    return [window.length for window in ladder.windows]


def _read_words(space: ShiftSpace, ladder: _Ladder) -> SlopeEstimate:
    """Fit the ln word count of a ladder's windows, every distinct window
    length counted in one pass."""
    lengths = sorted(set(_lengths(ladder)))
    log_counts = {n: math.log(c) for n, c in zip(lengths, word_counts(space, lengths))}
    return _read(ladder, [log_counts[n] for n in _lengths(ladder)])


def _mass_block(
    mu: Measure, windows: np.ndarray, ladder: _Ladder
) -> tuple[list[float], np.ndarray, bool]:
    """Read a ladder at every row of a (points x (2 horizon + 1)) window
    array, dropping windows beyond the horizon: the kept xs, the (points x
    kept windows) block of ``sign`` times the information -ln mu of each
    row's cylinder, and whether a window was dropped.

    The symbols are checked and the per-step costs gathered once, not per
    depth.
    """
    information = _information_reader(mu, windows)
    horizon = (windows.shape[1] - 1) // 2
    xs, columns = [], []
    saturated = False
    for xv, window in zip(ladder.xs, ladder.windows):
        if max(-window.lo, window.hi) > horizon:
            saturated = True
            continue
        column = information(horizon + window.lo, horizon + window.hi + 1)
        if np.isinf(column).any():
            raise BadMeasure("the point leaves the support of the measure")
        xs.append(xv)
        columns.append(ladder.sign * column)
    block = np.column_stack(columns) if columns else np.empty((len(windows), 0))
    return xs, block, saturated


def _mass_slope(mu: Measure, x: Point, ladder: _Ladder) -> SlopeEstimate:
    """Read a ladder at the point x: the one-row block, fitted with its points."""
    xs, block, saturated = _mass_block(mu, x.symbols[None, :], ladder)
    return _fit_slope(xs, block[0].tolist(), ladder.key, saturated)


def box_dimension(space: ShiftSpace, params: MetricParams, ladder: RadiusLadder) -> SlopeEstimate:
    """Box-counting dimension: slope of ln N(r) against ln(1/r).

    The minimal r-cover is exact: radius-r balls coincide with cylinders on
    a fixed window, distinct cylinders are disjoint, so N(r) is the number
    of admissible words on that window.  Upper and lower box dimensions
    coincide by this exactness.
    """
    return _read_words(space, KINDS["box_dimension"].ladder(params, ladder, 0.0, DEFAULT_R1))


def pointwise_dimension(
    mu: Measure, x: Point, params: MetricParams, ladder: RadiusLadder
) -> SlopeEstimate:
    """Pointwise dimension at x: slope of ln mu(B(x, r)) against ln r.

    Radii whose windows exceed the point's horizon are dropped and the
    estimate is marked saturated; if fewer than two radii fit, the call
    refuses with ``HorizonExceeded``.  The estimator reports what it sees:
    typicality of x is the caller's burden.
    """
    return _mass_slope(mu, x, KINDS["pointwise_dimension"].ladder(params, ladder, 0.0, DEFAULT_R1))


def brin_katok_local(
    mu: Measure,
    x: Point,
    params: MetricParams,
    r1: float,
    nm_range: Iterable[int],
) -> SlopeEstimate:
    """Local entropy at x: slope of -ln mu(Bowen ball) against n + m.

    Window depths that do not fit the horizon are dropped (saturated flag);
    fewer than two usable depths raise ``HorizonExceeded``.
    """
    return _mass_slope(mu, x, KINDS["brin_katok"].ladder(params, nm_range, 0.0, r1))


def neutralized_brin_katok(
    mu: Measure,
    x: Point,
    params: MetricParams,
    r: float,
    nm_range: Iterable[int],
) -> SlopeEstimate:
    """Local entropy at the shrinking radius e^{-(n+m) r}, 0 <= r < 3/k; r = 0 reads DEFAULT_R1."""
    steps = KINDS["neutralized_brin_katok"].ladder(params, nm_range, r, DEFAULT_R1)
    return _mass_slope(mu, x, steps)


def alpha_estimation_entropy(
    target: ShiftSpace | Measure,
    params: MetricParams,
    alpha: float,
    nm_range: Iterable[int],
    r3: float = DEFAULT_R1,
    x: Point | None = None,
) -> SlopeEstimate:
    """Entropy under per-iterate radius discounting e^{-|i| alpha}.

    Topological variant (``target`` is a space): slope of the ln word count
    over the discounted windows.  Measure variant (``target`` is a measure):
    slope of -ln mass of the discounted cylinder at the point ``x`` (which
    must carry a large enough horizon).  Requires
    0 <= alpha < min(ln a, ln b); alpha = 0 reduces both variants exactly
    to their classical fixed-radius counterparts.
    """
    if isinstance(target, ShiftSpace):
        return _read_words(target, KINDS["alpha_topological"].ladder(params, nm_range, alpha, r3))
    if x is None:
        raise HypothesisViolated("the measure variant needs a sampled point x")
    return _mass_slope(target, x, KINDS["alpha_brin_katok"].ladder(params, nm_range, alpha, r3))


def _typical_windows(
    mu: Measure, horizon: int, n_points: int, seed: int, space: ShiftSpace | None
) -> np.ndarray:
    """The windows of an average's typical points, seeds ``seed + index`` in
    index order, refused before any allocation past ``TYPICAL_BATCH_BYTES``."""
    if n_points < 1:
        raise HypothesisViolated(f"n_points must be >= 1, got {n_points}")
    size = 16 * n_points * (2 * horizon + 1)
    if size > TYPICAL_BATCH_BYTES:
        raise BatchTooLarge(
            f"{n_points} typical points at horizon {horizon} take {size} bytes, "
            f"past the TYPICAL_BATCH_BYTES = {TYPICAL_BATCH_BYTES} bound"
        )
    return sample_typical_windows(mu, horizon, range(seed, seed + n_points), space)


def _mean_fit(fits: _RowFits, ladder: tuple, saturated: bool) -> SlopeEstimate:
    """Reduce per-point fits in row order: the mean slope and intercept, the
    root mean square residual, and the slopes kept as ``point_slopes``."""
    rms = fits.residual_rms.tolist()
    return SlopeEstimate(
        slope=float(np.mean(fits.slope)),
        intercept=float(np.mean(fits.intercept)),
        # float ** 2, not the array square, which can differ in the last bit
        residual_rms=float(np.sqrt(np.mean([r**2 for r in rms]))),
        ladder=ladder,
        saturated=saturated,
        point_slopes=tuple(fits.slope.tolist()),
    )


def _average(estimates: Sequence[SlopeEstimate]) -> SlopeEstimate:
    """Reduce per-point estimates in order: their fields, through ``_mean_fit``."""
    fields = (np.array([getattr(e, name) for e in estimates]) for name in _RowFits._fields)
    return _mean_fit(
        _RowFits(*fields), estimates[0].ladder, any(e.saturated for e in estimates)
    )


def average_over_typical(
    estimator: Callable[[Point], SlopeEstimate],
    mu: Measure,
    horizon: int,
    n_points: int = 100,
    seed: int = 0,
    space: ShiftSpace | None = None,
) -> SlopeEstimate:
    """Average a per-point estimate over seeded typical points.

    Points are sampled with seeds ``seed + index`` and reduced in index
    order, so the result is deterministic; the per-point slopes are kept in
    ``point_slopes``.  The reported spread is the max-minus-min of the
    per-point slopes; the flag fires when that spread exceeds the usual
    tolerance relative to the mean.
    """
    if n_points < 1:
        raise HypothesisViolated(f"n_points must be >= 1, got {n_points}")
    points = (sample_typical(mu, horizon, seed + i, space) for i in range(n_points))
    return _average([estimator(x) for x in points])


def solve_relation_5_23(a: float, b: float, given: dict) -> RelationReport:
    """Solve the radius/rate exchange relation r + 1/k = 1/k_alpha.

    With ``given={"r": ...}`` the discount rate alpha is returned via the
    closed form (valid only while it stays below min(ln a, ln b), otherwise
    ``NoSolution``); with ``given={"alpha": ...}`` the unique shrinking rate
    r is returned.  The report's lhs/rhs are the two sides of the relation
    evaluated at the solved pair, so rel_error certifies the round trip.
    """
    params = MetricParams(a, b)  # refuses a base that is not finite and > 1
    if not isinstance(given, dict) or len(given) != 1 or not {"r", "alpha"} >= set(given):
        raise HypothesisViolated("given must be exactly one of {'r': ...} or {'alpha': ...}")
    la, lb = params.log_a, params.log_b
    k = params.k()
    alpha_max = min(la, lb)
    if "r" in given:
        r = float(given["r"])
        if not 0.0 < r < 3.0 / k:
            raise HypothesisViolated(
                f"shrinking rate must satisfy 0 < r < 3/k = {3.0 / k:.6g}, got {r}"
            )
        t = 1.0 / (r + 1.0 / k)
        alpha = (-t * (la + lb) + 2.0 + math.sqrt(t**2 * (la - lb) ** 2 + 4.0)) / (2.0 * t)
        if not alpha < alpha_max:
            raise NoSolution(
                f"solved rate alpha = {alpha:.6g} leaves the admissible range "
                f"[0, {alpha_max:.6g}) for a={a}, b={b}, r={r}"
            )
        solved = alpha
    else:
        alpha = float(given["alpha"])
        if not 0.0 < alpha < alpha_max:
            raise HypothesisViolated(
                f"discount rate must satisfy 0 < alpha < {alpha_max:.6g}, got {alpha}"
            )
        r = 1.0 / params.k_alpha(alpha) - 1.0 / k
        if not 0.0 < r < 3.0 / k:
            raise NoSolution(
                f"solved shrinking rate r = {r:.6g} leaves (0, 3/k = {3.0 / k:.6g})"
            )
        solved = r
    return relation_report(
        "radius-rate-exchange", r + 1.0 / k, 1.0 / params.k_alpha(alpha), EXACT_TOL, value=solved
    )


@dataclass(frozen=True)
class BundleEntry:
    """One estimate plus the provenance needed for identity checks."""

    kind: str
    estimate: SlopeEstimate
    params: MetricParams
    space_label: str
    rate: float = 0.0


@dataclass(frozen=True)
class Kind:
    """One bundle kind: the identity its slope satisfies, and how it is estimated.

    The kind's window family follows from its depths and rate: open balls
    (``"ball"``) for a kind without default depths, alpha-discounted windows
    (``"alpha"``) for the ``"alpha"`` rate, else Bowen windows at the
    shrinking radius e^{-(n+m) rate}, which are the Bowen windows at r1 when
    the rate is 0 (``"bowen"``).  The family fixes the ladder and both
    scales of the identity ``name``, ``slope * lhs = rhs * h``, with h the
    measure entropy when ``measure`` holds, else the topological one;
    ``formula`` spells out its ``target``, with ``{k}`` standing for the
    formula of k.  ``reads`` says how the windows are read: ``"words"`` on
    the space, ``"cover"`` on the measure, or ``"mass"`` at each typical
    point of the measure.
    """

    name: str
    formula: str
    reads: str
    rate: str | None  # the rate the kind takes: "r", "alpha" or none
    depths: tuple | None  # default (t_min, t_max, t_step); None: balls at DEFAULT_LADDER

    @property
    def family(self) -> str:
        """The kind's window family: ``"ball"``, ``"bowen"`` or ``"alpha"``."""
        if self.depths is None:
            return "ball"
        return "alpha" if self.rate == "alpha" else "bowen"

    @property
    def measure(self) -> bool:
        """Covers and masses are of the measure; only words are of the space."""
        return self.reads != "words"

    @property
    def tolerance(self) -> float:
        """The default relative tolerance: ``MEASURE_TOL`` for masses at
        typical points, ``COUNT_TOL`` for word and cover counts."""
        return MEASURE_TOL if self.reads == "mass" else COUNT_TOL

    def rate_from(self, r: float | None = None, alpha: float | None = None) -> float:
        """The rate a run gives this kind: 0.0 when it takes none, else the
        given ``r`` or ``alpha``, or its ``DEFAULT_RATES`` entry when None."""
        if self.rate is None:
            return 0.0
        given = r if self.rate == "r" else alpha
        return DEFAULT_RATES[self.rate] if given is None else given

    def _require_rate(self, rate: float) -> None:
        """Refuse a nonzero rate for a kind that takes none."""
        if self.rate is None and rate != 0.0:
            raise HypothesisViolated(f"the identity {self.name!r} takes no rate, got {rate}")

    def ladder(self, params: MetricParams, ladder, rate: float, r1: float) -> _Ladder:
        """Check the rate and ladder, and return the cylinder windows of every
        ladder step; a ball is read against ln(1/r) for words, ln r for masses."""
        self._require_rate(rate)
        if self.family == "ball":
            return _ball_ladder(params, ladder, 1.0 if self.reads == "words" else -1.0)
        if self.family == "alpha":
            return _alpha_ladder(params, rate, ladder, r1)
        return _shrinking_ladder(params, rate, ladder, r1)

    def scales(self, params: MetricParams, rate: float) -> tuple[float, float]:
        """The identity's (lhs, rhs) scales: (1, k) for balls, (1, 1 + rate k)
        for Bowen windows (exactly (1, 1) at rate 0), and (k_alpha, k) for
        alpha-discounted windows."""
        self._require_rate(rate)
        if self.family == "ball":
            return 1.0, params.k()
        if self.family == "alpha":
            return params.k_alpha(rate), params.k()
        return 1.0, 1.0 + rate * params.k()

    def target(self, params: MetricParams, rate: float, h: float) -> float:
        """The slope the identity predicts, ``rhs * h / lhs``."""
        lhs, rhs = self.scales(params, rate)
        return rhs * h / lhs

    def check(
        self, slope: float, params: MetricParams, rate: float, h: float, tolerance: float
    ) -> RelationReport:
        lhs, rhs = self.scales(params, rate)
        return relation_report(self.name, slope * lhs, rhs * h, tolerance)


#: Every bundle kind, in report order.  The default depths are calibrated so
#: each identity meets its default tolerance: up to 60 for exact counts, up
#: to 200 for local masses, and 300..900 for covering counts, where the slow
#: sqrt-scale correction to the cover growth needs long windows.
KINDS = {
    "box_dimension": Kind(
        "box-dimension = k * entropy", "({k}) * h_top",
        "words", None, None,
    ),
    "entropy": Kind(
        "spanning-entropy = oracle entropy", "ln(spectral radius)",
        "words", None, (10, 60, 5),
    ),
    "pointwise_dimension": Kind(
        "pointwise-dimension = k * measure-entropy", "({k}) * h_mu",
        "mass", None, None,
    ),
    "brin_katok": Kind(
        "brin-katok = measure-entropy", "entropy rate of the measure",
        "mass", None, (20, 200, 12),
    ),
    "katok": Kind(
        "katok = measure-entropy", "h_mu",
        "cover", None, (300, 900, 60),
    ),
    "neutralized_katok": Kind(
        "katok = (1 + r k) * measure-entropy", "(1 + r k) * h_mu",
        "cover", "r", (300, 900, 60),
    ),
    "neutralized_topological": Kind(
        "neutralized-topological = (1 + r k) * entropy", "(1 + r k) * h_top",
        "words", "r", (20, 120, 10),
    ),
    "neutralized_brin_katok": Kind(
        "neutralized-brin-katok = (1 + r k) * measure-entropy", "(1 + r k) * h_mu",
        "mass", "r", (20, 200, 12),
    ),
    "alpha_topological": Kind(
        "alpha-entropy * k_alpha = k * entropy", "k * h_top / k_alpha",
        "words", "alpha", (20, 120, 10),
    ),
    "alpha_brin_katok": Kind(
        "alpha-brin-katok * k_alpha = k * measure-entropy", "k * h_mu / k_alpha",
        "mass", "alpha", (20, 120, 10),
    ),
}
#: Kinds a bundle checks against their own identity, in report order; it
#: checks the shrinking-radius Katok slope only through its chains.
HEADLINE_KINDS = tuple(kind for kind in KINDS if kind != "neutralized_katok")
#: Ordering chains (name, smaller kind, larger kind), checked when both are bundled.
CHAINS = (
    ("pointwise-dimension <= box-dimension", "pointwise_dimension", "box_dimension"),
    ("chain: katok <= topological", "katok", "entropy"),
    ("chain: brin-katok <= katok", "brin_katok", "katok"),
    (
        "chain: neutralized katok <= neutralized topological",
        "neutralized_katok",
        "neutralized_topological",
    ),
    (
        "chain: neutralized brin-katok <= neutralized katok",
        "neutralized_brin_katok",
        "neutralized_katok",
    ),
)
#: Kinds estimated from a measure rather than from the space.
MEASURE_KINDS = frozenset(kind for kind, spec in KINDS.items() if spec.measure)
#: Each relation's default tolerance: its kind's own, and COUNT_TOL for every chain.
DEFAULT_TOLERANCES = {
    **{spec.name: spec.tolerance for spec in KINDS.values()},
    **{name: COUNT_TOL for name, _, _ in CHAINS},
}


def kind_ladder(
    kind: str,
    j_min: int | None = None,
    j_max: int | None = None,
    t_min: int | None = None,
    t_max: int | None = None,
    t_step: int | None = None,
) -> RadiusLadder | range:
    """A kind's radius ladder (dimensions) or window depths (entropies):
    the defaults, each bound overridable."""
    depths = KINDS[kind].depths
    if depths is None:
        lo, hi = (d if v is None else v for d, v in zip(DEFAULT_LADDER, (j_min, j_max)))
        return RadiusLadder.geometric(lo, hi)
    lo, hi, step = (d if v is None else v for d, v in zip(depths, (t_min, t_max, t_step)))
    if step < 1:
        raise HypothesisViolated(f"t-step must be >= 1, got {step}")
    if lo > hi:
        raise HypothesisViolated(f"the depth range is empty: --t-min {lo} > --t-max {hi}")
    return range(lo, hi + 1, step)


def _read_kind(
    reads: str,
    steps: _Ladder,
    space: ShiftSpace,
    mu: Measure | None,
    delta: float,
    windows: np.ndarray | None,
) -> SlopeEstimate:
    """Read a kind's ladder: word counts on the space, minimal covers of the
    measure, or masses averaged over the rows of ``windows``."""
    if reads == "words":
        return _read_words(space, steps)
    if reads == "cover":
        # minimal_cover_log_counts refuses a delta outside (0, 1), and takes
        # every window's cover count from one pass over the ladder
        return _read(steps, minimal_cover_log_counts(mu, _lengths(steps), delta))
    xs, block, saturated = _mass_block(mu, windows, steps)
    return _mean_fit(_fit_rows(xs, block), steps.key, saturated)


def estimate_kind(
    kind: str,
    space: ShiftSpace,
    params: MetricParams,
    mu: Measure | None,
    ladder: RadiusLadder | range,
    rate: float = 0.0,
    r1: float = DEFAULT_R1,
    delta: float = 0.25,
    horizon: int | None = None,
    n_points: int = 100,
    seed: int = 0,
) -> SlopeEstimate:
    """Estimate one bundle kind's slope over ``ladder``.

    Kinds estimated at typical points average over ``n_points`` points of
    ``mu`` in ``space``, sampled to ``horizon``, or when that is not given
    to the smallest horizon that holds every window of the ladder, plus 8.
    """
    spec = KINDS[kind]
    steps = spec.ladder(params, ladder, rate, r1)
    windows = None
    if spec.reads == "mass":
        horizon = _reach(steps) + 8 if horizon is None else horizon
        windows = _typical_windows(mu, horizon, n_points, seed, space)
    return _read_kind(spec.reads, steps, space, mu, delta, windows)


def identity_names(kinds: Iterable[str]) -> list[str]:
    """Names of the relations ``verify_identities`` reports on a bundle of these kinds."""
    kinds = set(kinds)
    return [KINDS[kind].name for kind in HEADLINE_KINDS if kind in kinds] + [
        name for name, small, large in CHAINS if {small, large} <= kinds
    ]


def verify_identities(
    bundle: Sequence[BundleEntry],
    h_top: float,
    h_mu: float | None = None,
    tolerances: dict[str, float] | None = None,
) -> list[RelationReport]:
    """Check every identity the bundled estimates allow.

    All entries must share parameters and space; mixed bundles refuse with
    ``IncompatibleInputs``.  Each report compares a measured slope (or a
    product with the scale constants k, k_alpha) against the closed-form
    side built from the supplied entropy oracles.
    """
    if not bundle:
        raise IncompatibleInputs("empty bundle")
    params = bundle[0].params
    label = bundle[0].space_label
    for entry in bundle:
        if entry.params != params or entry.space_label != label:
            raise IncompatibleInputs(
                f"bundle mixes runs: {entry.kind} used params={entry.params}, "
                f"space={entry.space_label!r}; expected params={params}, space={label!r}"
            )
    by_kind: dict[str, BundleEntry] = {}
    for entry in bundle:
        if entry.kind in by_kind:
            raise IncompatibleInputs(f"duplicate bundle entry of kind {entry.kind!r}")
        by_kind[entry.kind] = entry
    if h_mu is None and MEASURE_KINDS & set(by_kind):
        raise IncompatibleInputs("measure estimates present but no measure entropy oracle")
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    reports = []
    for kind in HEADLINE_KINDS:
        if kind in by_kind:
            spec, entry = KINDS[kind], by_kind[kind]
            h = h_mu if spec.measure else h_top
            reports.append(spec.check(entry.estimate.slope, params, entry.rate, h, tol[spec.name]))
    for name, small, large in CHAINS:
        if small in by_kind and large in by_kind:
            lhs, rhs = by_kind[small].estimate.slope, by_kind[large].estimate.slope
            reports.append(relation_report(name, lhs, rhs, tol[name], ordered=True))
    return reports


def standard_bundle(
    space: ShiftSpace,
    params: MetricParams,
    mu: Measure | None = None,
    r: float | None = None,
    alpha: float | None = None,
    delta: float = 0.25,
    seed: int = 0,
    n_points: int = 100,
) -> list[BundleEntry]:
    """Estimate every kind in ``KINDS`` at its default ladder and label it;
    the measure kinds only when ``mu`` is given, all at the same ``n_points``
    typical points, sampled once to horizon 160 or their deepest window.
    Each kind's rate is ``Kind.rate_from(r, alpha)``, and every kind's
    ladder is built and checked before any point is drawn or word counted."""
    label = space.label
    specs = {kind: spec for kind, spec in KINDS.items() if mu is not None or not spec.measure}
    rates = {kind: spec.rate_from(r, alpha) for kind, spec in specs.items()}
    steps = {k: s.ladder(params, kind_ladder(k), rates[k], DEFAULT_R1) for k, s in specs.items()}
    windows = None
    if mu is not None:
        depths = [_reach(steps[kind]) for kind, spec in specs.items() if spec.reads == "mass"]
        windows = _typical_windows(mu, max(160, *depths), n_points, seed, space)
    reads = (_read_kind(s.reads, steps[k], space, mu, delta, windows) for k, s in specs.items())
    return [BundleEntry(k, est, params, label, rate=rates[k]) for k, est in zip(specs, reads)]
