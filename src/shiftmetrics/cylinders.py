"""Exact cylinder calculus for the two-parameter distance.

Every metric ball of rho on a shift space is a cylinder set; this module
computes the fixed-coordinate windows exactly.  The radius exponents are

    p(r): the unique integer with b**-p < r <= b**-(p-1)   (forward side)
    q(r): the same bracket with base a                     (backward side)

and each ball constraint "rho(shift^i x, shift^i y) < s" fixes coordinates
[i - (q(s)-1), i + (p(s)-1)].  Ball variants differ only in which shifts i
participate and how the per-shift radius s depends on i:

    open ball           i = 0,           s = r
    Bowen ball          -n <= i <= m,    s = r
    neutralized ball    -n <= i <= m,    s = e^{-(n+m)r}
    alpha ball          -n <= i <= m,    s = e^{-|i|alpha} r

Windows are computed as the exact union of the per-shift windows, which
collapses to the familiar closed forms whenever those apply.  A given radius
r is bracketed exactly (``p_of_r``); only the derived radii e^{-(n+m)r} and
e^{-|i|alpha} r, which may underflow, are bracketed from their logarithms.
This module is the only place that turns radii and depths into windows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlphaTooLarge,
    ConstraintViolated,
    HorizonExceeded,
    HypothesisViolated,
    NoIntegerSolution,
    RadiiOutOfOrder,
    RadiusOutOfRange,
)
from .metrics import ONE_SIDED, MetricParams, rho
from .shiftspace import Point, shift_point


def p_of_r(r, b) -> int:
    """The unique integer p >= 1 with b**-p < r <= b**-(p-1).

    `b` may be a float or an exact rational (``fractions.Fraction``): the
    log-domain estimate of ``p_of_log_r`` is corrected with ``b ** -p``
    comparisons in whatever exact arithmetic the type supports, so the
    boundary r = b**-j lands on the strict side (p = j + 1) reliably.
    """
    if not (0 < r < 1):
        raise RadiusOutOfRange(f"radius must be finite and in (0, 1), got {r}")
    if float(r) == 0.0:
        raise RadiusOutOfRange(
            f"radius underflows to the float 0.0; radii below {math.ulp(0.0)!r} cannot be bracketed"
        )
    # an exact r within 2**-53 of 1 rounds to the float 1.0, whose ln is not negative
    p = p_of_log_r(math.log(float(r)), b) if float(r) < 1.0 else 1
    while b ** (-p) >= r:
        p += 1
    while p > 1 and b ** (-(p - 1)) < r:
        p -= 1
    return p


def p_of_log_r(log_r: float, b) -> int:
    """`p_of_r` decided on ln(r), for derived radii too small to represent."""
    if not (-math.inf < log_r < 0):
        raise RadiusOutOfRange(f"ln(r) must be finite and negative, got {log_r}")
    if not (1 < b < math.inf):
        raise RadiusOutOfRange(f"base must be finite and > 1, got {b}")
    lb = math.log(float(b))
    p = max(1, math.floor(-log_r / lb) + 1)
    while -p * lb >= log_r:
        p += 1
    while p > 1 and -(p - 1) * lb < log_r:
        p -= 1
    return p


def q_of_r(r, a) -> int:
    """Backward-side exponent: the unique q with a**-q < r <= a**-(q-1)."""
    return p_of_r(r, a)


def q_of_log_r(log_r: float, a) -> int:
    return p_of_log_r(log_r, a)


@dataclass(frozen=True)
class CylinderIndex:
    """Inclusive window [lo, hi] of fixed coordinates."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise HypothesisViolated(f"window [{self.lo}, {self.hi}] is empty")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "CylinderIndex") -> bool:
        """Window containment; the cylinder order is the reverse of this."""
        return self.lo <= other.lo and self.hi >= other.hi


@dataclass(frozen=True)
class RadiusLadder:
    """Strictly decreasing radii in (0, 1) discretizing a limit r -> 0."""

    r_values: tuple

    def __post_init__(self):
        rs = self.r_values
        if not rs:
            raise HypothesisViolated("empty radius ladder")
        if not all(0.0 < r < 1.0 for r in rs):
            raise HypothesisViolated("ladder radii must lie in (0, 1)")
        if any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])):
            raise HypothesisViolated("ladder radii must be strictly decreasing")

    @classmethod
    def geometric(cls, j_min: int, j_max: int) -> "RadiusLadder":
        """The dyadic radii 2^-j_min, ..., 2^-j_max."""
        if j_min > j_max or j_min < 1:
            raise HypothesisViolated("need 1 <= j_min <= j_max")
        return cls(tuple(0.5**j for j in range(j_min, j_max + 1)))

    def __iter__(self):
        return iter(self.r_values)

    def __len__(self):
        return len(self.r_values)


# ---------------------------------------------------------------------------
# window arithmetic
# ---------------------------------------------------------------------------


def _reach(params: MetricParams, bracket, radius) -> tuple[int, int]:
    """Coordinates (behind, ahead) of a shift fixed by rho(shift^i., shift^i.)
    < s, with ``bracket`` = ``p_of_r`` given s, or ``p_of_log_r`` given ln(s):
    (q(s) - 1, p(s) - 1), and (0, p(s) - 1) one-sided."""
    ahead = bracket(radius, params.b) - 1
    behind = 0 if params.mode == ONE_SIDED else bracket(radius, params.a) - 1
    return behind, ahead


def _union_window(shifts, reaches) -> CylinderIndex:
    """Union over shifts i of the per-shift windows [i - behind, i + ahead].

    The union is always a contiguous interval because each per-shift window
    contains its own shift index.
    """
    pairs = list(zip(shifts, reaches))
    return CylinderIndex(
        min(i - behind for i, (behind, _) in pairs), max(i + ahead for i, (_, ahead) in pairs)
    )


def ball_window(r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the open ball: [-(q(r)-1), p(r)-1] (one-sided: lo=0)."""
    return _union_window((0,), (_reach(params, p_of_r, r),))


def bowen_window(n: int, m: int, r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the (-n, m) Bowen ball: ball window widened by n, m."""
    _require_depths(n, m)
    reach = _reach(params, p_of_r, r)
    return _union_window((-n, m), (reach, reach))


def neutralized_window(n: int, m: int, r: float, params: MetricParams) -> CylinderIndex:
    """Bowen window at the depth-discounted radius e^{-(n+m)r}."""
    _require_depths(n, m)
    if r <= 0.0:
        raise RadiusOutOfRange(f"neutralization rate must be positive, got {r}")
    if n + m == 0:
        raise RadiusOutOfRange("n + m = 0 gives radius e^0 = 1, not < 1")
    reach = _reach(params, p_of_log_r, -(n + m) * r)
    return _union_window((-n, m), (reach, reach))


def alpha_window(n: int, m: int, alpha: float, r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the two-sided alpha-estimation ball.

    Exact union over shifts of the per-shift windows at radii e^{-|i|alpha}r.
    For alpha < min(ln a, ln b) this equals the closed form
    [-n - floor((n alpha + ln(1/r))/ln a), m + floor((m alpha + ln(1/r))/ln b)];
    outside that regime the interior shifts can reach further and the union
    is still the correct window.  At alpha = 0 it is the Bowen window.
    """
    _require_depths(n, m)
    if alpha < 0.0:
        raise HypothesisViolated(f"alpha must be >= 0, got {alpha}")
    reach = _reach(params, p_of_r, r)
    lr = math.log(r)
    shifts = range(-n, m + 1)
    reaches = (
        reach if i == 0 or not alpha else _reach(params, p_of_log_r, lr - abs(i) * alpha)
        for i in shifts
    )
    return _union_window(shifts, reaches)


def _require_depths(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise HypothesisViolated(f"depths must be nonnegative, got n={n}, m={m}")


def _attach(x: Point, window: CylinderIndex) -> CylinderIndex:
    if x.horizon < max(-window.lo, window.hi):
        raise HorizonExceeded(
            f"window [{window.lo}, {window.hi}] exceeds horizon {x.horizon}"
        )
    return window


def ball_to_cylinder(x: Point, r: float, params: MetricParams) -> CylinderIndex:
    """Cylinder of x equal to the open ball B_rho(x, r)."""
    return _attach(x, ball_window(r, params))


def bowen_ball_to_cylinder(
    x: Point, n: int, m: int, r: float, params: MetricParams
) -> CylinderIndex:
    """Cylinder of x equal to the Bowen ball over shifts -n..m at radius r."""
    return _attach(x, bowen_window(n, m, r, params))


def neutralized_ball_to_cylinder(
    x: Point, n: int, m: int, r: float, params: MetricParams
) -> CylinderIndex:
    """Cylinder of x equal to the Bowen ball at radius e^{-(n+m)r}."""
    return _attach(x, neutralized_window(n, m, r, params))


def alpha_ball_to_cylinder(
    x: Point, n: int, m: int, alpha: float, r: float, params: MetricParams
) -> CylinderIndex:
    """Cylinder of x equal to the two-sided alpha-estimation ball."""
    return _attach(x, alpha_window(n, m, alpha, r, params))


# ---------------------------------------------------------------------------
# direct membership (the independent definitions, used to cross-check)
# ---------------------------------------------------------------------------


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


def agrees_on(x: Point, y: Point, window: CylinderIndex) -> bool:
    """Whether y lies in the cylinder of x with the given fixed window."""
    return x.agrees_with(y, window.lo, window.hi)


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
    n = 0 if params.mode == ONE_SIDED else q_of_r(r, params.a) - q_of_r(r1, params.a)
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
    qr = q_of_r(r, params.a)
    solutions = []
    for h in range(math.floor(lo) + 1, math.ceil(hi)):
        if not (lo < h < hi) or h < 1:
            continue
        ph = p_of_log_r(-h * r2, params.b)
        qh = q_of_log_r(-h * r2, params.a)
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
    if not (inner.contains(mid) and mid.contains(outer)):
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


def require_alpha_regime(alpha: float, params: MetricParams) -> None:
    """alpha-estimation calculus requires 0 <= alpha < min(ln a, ln b)
    (one-sided: alpha < ln b)."""
    limit = params.log_b if params.mode == ONE_SIDED else min(params.log_a, params.log_b)
    if not (0.0 <= alpha < limit):
        raise AlphaTooLarge(
            f"alpha must be finite and in [0, {limit:.6g}), got {alpha}"
        )


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
            q_of_r(r, params.a), L, L3, alpha, lambda ls: q_of_log_r(ls, params.a), params.log_a
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
    if not (inner.contains(mid) and mid.contains(outer)):
        raise ConstraintViolated(
            f"sandwich containment failed: {inner}, {mid}, {outer}"
        )
    return inner, mid, outer
