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
from dataclasses import dataclass
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
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    IncompatibleInputs,
    NoSolution,
)
from .measures import (
    Measure,
    log_word_mass,
    minimal_cover_log_count,
    sample_typical,
    supported_on,
)
from .metrics import ONE_SIDED, MetricParams
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


@dataclass(frozen=True)
class SlopeEstimate:
    """Least-squares slope with fit diagnostics.

    ``spread`` is the |first-half slope - second-half slope| of the ladder;
    ``flagged`` marks a spread above ``SPREAD_TOL`` relative to the slope.
    ``saturated`` records that at least one requested window did not fit the
    available horizon and was dropped.  ``points`` holds the (x, y) pairs
    the fit used; ``point_slopes`` holds the per-point slopes an average
    over typical points reduced, in sampling order.
    """

    slope: float
    intercept: float
    residual_rms: float
    ladder: tuple
    saturated: bool
    spread: float = 0.0
    flagged: bool = False
    points: tuple = ()
    point_slopes: tuple = ()

    def __post_init__(self):
        if not self.residual_rms >= 0.0:
            raise ValueError(f"residual_rms must be >= 0, got {self.residual_rms}")


@dataclass(frozen=True)
class RelationReport:
    """One verified identity: measured lhs vs closed-form rhs."""

    name: str
    lhs: float
    rhs: float
    rel_error: float
    passed: bool
    tolerance: float
    value: float | None = None

    def __post_init__(self):
        if self.passed != (self.rel_error <= self.tolerance):
            raise ValueError("passed must equal (rel_error <= tolerance)")


def relation_report(
    name: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    value: float | None = None,
    ordered: bool = False,
) -> RelationReport:
    """Build a report; ``ordered=True`` checks lhs <= rhs instead of equality."""
    scale = max(abs(rhs), 1e-300)
    if ordered:
        rel = max(0.0, (lhs - rhs) / scale)
    else:
        rel = abs(lhs - rhs) / scale
    return RelationReport(name, lhs, rhs, rel, rel <= tolerance, tolerance, value)


def _fit_slope(
    xs: Sequence[float],
    ys: Sequence[float],
    ladder: tuple,
    saturated: bool,
) -> SlopeEstimate:
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
    return SlopeEstimate(slope, intercept, rms, ladder, saturated, spread, flagged, points)


def _split_depth(params: MetricParams, total: int) -> tuple[int, int]:
    """Split n + m = total between backward and forward depth."""
    if params.mode == ONE_SIDED:
        return 0, total
    n = total // 2
    return n, total - n


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
) -> _Ladder:
    """Windows of depth n + m = t, fitted against t."""
    depths = _depth_values(nm_range)
    windows = tuple(window_of_depth(*_split_depth(params, t)) for t in depths)
    return _Ladder(tuple(float(t) for t in depths), windows, 1.0, depths)


def _bowen_ladder(params: MetricParams, r1: float, nm_range: Iterable[int]) -> _Ladder:
    return _depth_ladder(params, nm_range, lambda n, m: bowen_window(n, m, r1, params))


def _shrinking_ladder(
    params: MetricParams, r: float, nm_range: Iterable[int], r1: float | None = None
) -> _Ladder:
    """Bowen windows at the shrinking radius e^{-(n+m) r}, for 0 < r < 3/k.

    With a reference radius ``r1``, r = 0 is accepted too and gives the
    Bowen windows at the fixed radius r1.
    """
    bound = 3.0 / params.k()
    if not (0.0 < r < bound or (r == 0.0 and r1 is not None)):
        low = "0 <" if r1 is None else "0 <="
        raise ConstraintViolated(
            f"shrinking rate r must satisfy {low} r < 3/k = {bound:.6g}, got {r}"
        )
    if r == 0.0:
        return _bowen_ladder(params, r1, nm_range)
    return _depth_ladder(params, nm_range, lambda n, m: neutralized_window(n, m, r, params))


def _alpha_ladder(
    params: MetricParams, alpha: float, nm_range: Iterable[int], r3: float
) -> _Ladder:
    require_alpha_regime(alpha, params)
    return _depth_ladder(params, nm_range, lambda n, m: alpha_window(n, m, alpha, r3, params))


def _read(
    ladder: _Ladder, log_size: Callable[[CylinderIndex], float], horizon: float = math.inf
) -> SlopeEstimate:
    """Fit a ladder's log sizes.  Windows beyond ``horizon`` are dropped and
    the estimate is marked saturated."""
    xs, ys = [], []
    saturated = False
    for xv, window in zip(ladder.xs, ladder.windows):
        if max(-window.lo, window.hi) > horizon:
            saturated = True
            continue
        xs.append(xv)
        ys.append(ladder.sign * log_size(window))
    return _fit_slope(xs, ys, ladder.key, saturated)


def _read_words(space: ShiftSpace, ladder: _Ladder) -> SlopeEstimate:
    """Fit the ln word count of a ladder's windows, every distinct window
    length counted in one pass."""
    lengths = sorted({window.length for window in ladder.windows})
    log_counts = {n: math.log(c) for n, c in zip(lengths, word_counts(space, lengths))}
    return _read(ladder, lambda window: log_counts[window.length])


def _mass_slope(mu: Measure, x: Point, ladder: _Ladder) -> SlopeEstimate:
    """Read a ladder at the point x, dropping windows beyond its horizon."""

    def information(window: CylinderIndex) -> float:
        lm = log_word_mass(mu, x.window(window.lo, window.hi))
        if lm == -math.inf:
            raise BadMeasure("the point leaves the support of the measure")
        return -lm

    return _read(ladder, information, x.horizon)


def box_dimension(space: ShiftSpace, params: MetricParams, ladder: RadiusLadder) -> SlopeEstimate:
    """Box-counting dimension: slope of ln N(r) against ln(1/r).

    The minimal r-cover is exact: radius-r balls coincide with cylinders on
    a fixed window, distinct cylinders are disjoint, so N(r) is the number
    of admissible words on that window.  Upper and lower box dimensions
    coincide by this exactness.
    """
    return _read_words(space, _ball_ladder(params, ladder, 1.0))


def pointwise_dimension(
    mu: Measure, x: Point, params: MetricParams, ladder: RadiusLadder
) -> SlopeEstimate:
    """Pointwise dimension at x: slope of ln mu(B(x, r)) against ln r.

    Radii whose windows exceed the point's horizon are dropped and the
    estimate is marked saturated; if fewer than two radii fit, the call
    refuses with ``HorizonExceeded``.  The estimator reports what it sees:
    typicality of x is the caller's burden.
    """
    return _mass_slope(mu, x, _ball_ladder(params, ladder, -1.0))


def topological_entropy_spanning(
    space: ShiftSpace, params: MetricParams, r1: float, nm_range: Iterable[int]
) -> SlopeEstimate:
    """Topological entropy from minimal spanning cardinalities.

    The minimal number of radius-r1 Bowen balls spanning window depth
    n + m = t equals the exact count of admissible words on the associated
    cylinder window, so the slope of ln(count) against t is exact up to
    regression; the reference radius r1 only moves the intercept.
    """
    return _read_words(space, _bowen_ladder(params, r1, nm_range))


def neutralized_topological(
    space: ShiftSpace,
    params: MetricParams,
    r: float,
    nm_range: Iterable[int],
    r1: float = DEFAULT_R1,
) -> SlopeEstimate:
    """Entropy with Bowen balls of shrinking radius e^{-(n+m) r}.

    The radius decay enlarges the window once per unit of r per ln-base, so
    the slope approaches (1 + r k) times the classical entropy.  Requires
    0 <= r < 3/k; r = 0 degenerates to the classical fixed-radius estimator.
    """
    return _read_words(space, _shrinking_ladder(params, r, nm_range, r1))


def katok_entropy(
    mu: Measure,
    params: MetricParams,
    delta: float,
    r1: float,
    nm_range: Iterable[int],
    r: float = 0.0,
) -> SlopeEstimate:
    """Katok entropy: growth of the minimal (1 - delta)-mass cylinder cover.

    Cylinders over a fixed window partition the space, so the minimal cover
    is the greedy descending-mass count, computed exactly by the covering
    backend.  ``r > 0`` switches to the shrinking-radius variant (radius
    e^{-(n+m) r} instead of the fixed r1); the slope is then expected to be
    delta-independent as well.
    """
    return estimate_kind("katok", None, params, mu, nm_range, r, r1, delta)


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
    return _mass_slope(mu, x, _bowen_ladder(params, r1, nm_range))


def neutralized_brin_katok(
    mu: Measure,
    x: Point,
    params: MetricParams,
    r: float,
    nm_range: Iterable[int],
) -> SlopeEstimate:
    """Local entropy with shrinking radius e^{-(n+m) r}; needs 0 < r < 3/k."""
    return _mass_slope(mu, x, _shrinking_ladder(params, r, nm_range))


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
    ladder = _alpha_ladder(params, alpha, nm_range, r3)
    if isinstance(target, ShiftSpace):
        return _read_words(target, ladder)
    if x is None:
        raise HypothesisViolated("the measure variant needs a sampled point x")
    return _mass_slope(target, x, ladder)


def _typical_points(
    mu: Measure, horizon: int, n_points: int, seed: int, space: ShiftSpace | None
) -> list[Point]:
    """The typical points of an average: seeds ``seed + index``, in index order."""
    if n_points < 1:
        raise HypothesisViolated(f"n_points must be >= 1, got {n_points}")
    return [sample_typical(mu, horizon, seed + i, space) for i in range(n_points)]


def _average(estimates: list[SlopeEstimate]) -> SlopeEstimate:
    """Reduce per-point estimates in order (see ``average_over_typical``)."""
    slopes = np.array([e.slope for e in estimates])
    spread = float(slopes.max() - slopes.min()) if len(estimates) > 1 else 0.0
    mean_slope = float(slopes.mean())
    return SlopeEstimate(
        slope=mean_slope,
        intercept=float(np.mean([e.intercept for e in estimates])),
        residual_rms=float(np.sqrt(np.mean([e.residual_rms**2 for e in estimates]))),
        ladder=estimates[0].ladder,
        saturated=any(e.saturated for e in estimates),
        spread=spread,
        flagged=spread > SPREAD_TOL * max(abs(mean_slope), 1e-12),
        point_slopes=tuple(e.slope for e in estimates),
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
    points = _typical_points(mu, horizon, n_points, seed, space)
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


def _space_label(space: ShiftSpace) -> str:
    if space.is_full:
        return f"full:{space.alphabet_size}"
    bits = "".join(str(int(v)) for row in space.transition for v in row)
    return f"sft:{space.alphabet_size}:{bits}"


@dataclass(frozen=True)
class Identity:
    """``slope * lhs_scale(params, rate) = rhs_scale(params, rate) * h``, with h
    the measure entropy when ``measure`` is set, else the topological one.
    ``formula`` spells out the target ``rhs / lhs_scale``; ``{k}`` stands for
    the formula of k.  ``tolerance`` is the default relative tolerance."""

    name: str
    measure: bool
    lhs_scale: Callable[[MetricParams, float], float]
    rhs_scale: Callable[[MetricParams, float], float]
    formula: str
    tolerance: float

    def check(
        self, slope: float, params: MetricParams, rate: float, h: float, tolerance: float
    ) -> RelationReport:
        lhs = slope * self.lhs_scale(params, rate)
        return relation_report(self.name, lhs, self.rhs_scale(params, rate) * h, tolerance)


def _one(params: MetricParams, rate: float) -> float:
    return 1.0


def _k(params: MetricParams, rate: float) -> float:
    return params.k()


def _shrunk_k(params: MetricParams, rate: float) -> float:
    return 1.0 + rate * params.k()


def _k_alpha(params: MetricParams, rate: float) -> float:
    return params.k_alpha(rate)


@dataclass(frozen=True)
class Kind:
    """How one bundle kind is estimated, and the identity its slope satisfies.

    ``ladder(params, ladder, rate, r1)`` checks the rate and ladder and
    returns the cylinder windows of every ladder step; ``reads`` says how
    they are read: ``"words"`` on the space, ``"cover"`` on the measure, or
    ``"mass"`` at each typical point of the measure.
    """

    identity: Identity
    rate: str | None  # the rate the kind takes: "r", "alpha" or none
    depths: tuple | None  # default (t_min, t_max, t_step); None: DEFAULT_LADDER
    ladder: Callable[..., _Ladder]
    reads: str


#: Every bundle kind, in ``standard_bundle`` order.  The default depths are
#: calibrated so each identity meets its default tolerance: up to 60 for
#: exact counts, up to 200 for local masses, and 300..900 for covering
#: counts, where the slow sqrt-scale correction to the cover growth needs
#: long windows.
KINDS = {
    "box_dimension": Kind(
        Identity("box-dimension = k * entropy", False, _one, _k, "({k}) * h_top", COUNT_TOL),
        None,
        None,
        lambda p, radii, q, r1: _ball_ladder(p, radii, 1.0),
        "words",
    ),
    "entropy": Kind(
        Identity(
            "spanning-entropy = oracle entropy", False, _one, _one, "ln(spectral radius)", COUNT_TOL
        ),
        None,
        (10, 60, 5),
        lambda p, depths, q, r1: _bowen_ladder(p, r1, depths),
        "words",
    ),
    "neutralized_topological": Kind(
        Identity(
            "neutralized-topological = (1 + r k) * entropy",
            False,
            _one,
            _shrunk_k,
            "(1 + r k) * h_top",
            COUNT_TOL,
        ),
        "r",
        (20, 120, 10),
        lambda p, depths, q, r1: _shrinking_ladder(p, q, depths, r1),
        "words",
    ),
    "alpha_topological": Kind(
        Identity(
            "alpha-entropy * k_alpha = k * entropy",
            False,
            _k_alpha,
            _k,
            "k * h_top / k_alpha",
            COUNT_TOL,
        ),
        "alpha",
        (20, 120, 10),
        lambda p, depths, q, r1: _alpha_ladder(p, q, depths, r1),
        "words",
    ),
    "pointwise_dimension": Kind(
        Identity(
            "pointwise-dimension = k * measure-entropy", True, _one, _k, "({k}) * h_mu", MEASURE_TOL
        ),
        None,
        None,
        lambda p, radii, q, r1: _ball_ladder(p, radii, -1.0),
        "mass",
    ),
    "brin_katok": Kind(
        Identity(
            "brin-katok = measure-entropy",
            True,
            _one,
            _one,
            "entropy rate of the measure",
            MEASURE_TOL,
        ),
        None,
        (20, 200, 12),
        lambda p, depths, q, r1: _bowen_ladder(p, r1, depths),
        "mass",
    ),
    "katok": Kind(
        Identity("katok = measure-entropy", True, _one, _one, "h_mu", COUNT_TOL),
        None,
        (300, 900, 60),
        lambda p, depths, q, r1: _shrinking_ladder(p, q, depths, r1),
        "cover",
    ),
    "neutralized_brin_katok": Kind(
        Identity(
            "neutralized-brin-katok = (1 + r k) * measure-entropy",
            True,
            _one,
            _shrunk_k,
            "(1 + r k) * h_mu",
            MEASURE_TOL,
        ),
        "r",
        (20, 200, 12),
        lambda p, depths, q, r1: _shrinking_ladder(p, q, depths),
        "mass",
    ),
    "neutralized_katok": Kind(
        Identity(
            "katok = (1 + r k) * measure-entropy",
            True,
            _one,
            _shrunk_k,
            "(1 + r k) * h_mu",
            COUNT_TOL,
        ),
        "r",
        (300, 900, 60),
        lambda p, depths, q, r1: _shrinking_ladder(p, q, depths, r1),
        "cover",
    ),
    "alpha_brin_katok": Kind(
        Identity(
            "alpha-brin-katok * k_alpha = k * measure-entropy",
            True,
            _k_alpha,
            _k,
            "k * h_mu / k_alpha",
            MEASURE_TOL,
        ),
        "alpha",
        (20, 120, 10),
        lambda p, depths, q, r1: _alpha_ladder(p, q, depths, r1),
        "mass",
    ),
}
#: Kinds a bundle checks against their own identity, in report order; it
#: checks the shrinking-radius Katok slope only through its chains.
HEADLINE_KINDS = (
    "box_dimension",
    "entropy",
    "pointwise_dimension",
    "brin_katok",
    "katok",
    "neutralized_topological",
    "neutralized_brin_katok",
    "alpha_topological",
    "alpha_brin_katok",
)
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
MEASURE_KINDS = frozenset(kind for kind, spec in KINDS.items() if spec.identity.measure)
#: Each relation's default tolerance: its identity's own, and COUNT_TOL for every chain.
DEFAULT_TOLERANCES = {
    **{spec.identity.name: spec.identity.tolerance for spec in KINDS.values()},
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
    return range(lo, hi + 1, step)


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
    points: Sequence[Point] | None = None,
) -> SlopeEstimate:
    """Estimate one bundle kind's slope over ``ladder``.

    Kinds estimated at typical points average over ``points`` when given;
    otherwise over ``n_points`` points of ``mu`` in ``space``, sampled to
    ``horizon``, or when that is not given to the smallest horizon that
    holds every window of the ladder, plus 8.
    """
    spec = KINDS[kind]
    steps = spec.ladder(params, ladder, rate, r1)
    if spec.reads == "words":
        return _read_words(space, steps)
    if spec.reads == "cover":
        # minimal_cover_log_count refuses a delta outside (0, 1)
        return _read(steps, lambda window: minimal_cover_log_count(mu, window.length, delta))

    def estimator(x: Point) -> SlopeEstimate:
        return _mass_slope(mu, x, steps)

    if points is not None:
        return _average([estimator(x) for x in points])
    if horizon is None:
        horizon = max(max(-w.lo, w.hi) for w in steps.windows) + 8
    return average_over_typical(estimator, mu, horizon, n_points, seed, space)


def identity_names(kinds: Iterable[str]) -> list[str]:
    """Names of the relations ``verify_identities`` reports on a bundle of these kinds."""
    kinds = set(kinds)
    return [KINDS[kind].identity.name for kind in HEADLINE_KINDS if kind in kinds] + [
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
            identity = KINDS[kind].identity
            h = h_mu if identity.measure else h_top
            entry = by_kind[kind]
            reports.append(
                identity.check(entry.estimate.slope, params, entry.rate, h, tol[identity.name])
            )
    for name, small, large in CHAINS:
        if small in by_kind and large in by_kind:
            lhs, rhs = by_kind[small].estimate.slope, by_kind[large].estimate.slope
            reports.append(relation_report(name, lhs, rhs, tol[name], ordered=True))
    return reports


def require_supported(mu: Measure, space: ShiftSpace) -> None:
    """Refuse a measure that gives mass to a word the space does not admit."""
    if not supported_on(mu, space):
        raise IncompatibleInputs("measure support is not admissible in the space")


def standard_bundle(
    space: ShiftSpace,
    params: MetricParams,
    mu: Measure | None = None,
    r: float = DEFAULT_RATES["r"],
    alpha: float = DEFAULT_RATES["alpha"],
    delta: float = 0.25,
    seed: int = 0,
    n_points: int = 100,
) -> list[BundleEntry]:
    """Estimate every kind in ``KINDS`` at its default ladder and label it;
    the measure kinds only when ``mu`` is given, all at the same ``n_points``
    typical points, sampled once to horizon 160."""
    label = _space_label(space)
    points = None
    if mu is not None:
        require_supported(mu, space)
        points = _typical_points(mu, 160, n_points, seed, space)
    rates = {None: 0.0, "r": r, "alpha": alpha}
    entries = []
    for kind, spec in KINDS.items():
        if mu is None and kind in MEASURE_KINDS:
            continue
        rate = rates[spec.rate]
        est = estimate_kind(
            kind, space, params, mu, kind_ladder(kind), rate, DEFAULT_R1, delta, points=points
        )
        entries.append(BundleEntry(kind, est, params, label, rate=rate))
    return entries
