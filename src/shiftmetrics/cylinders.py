"""Exact cylinder calculus for the two-parameter distance.

Every metric ball of rho on a shift space is a cylinder set; this module
computes the fixed-coordinate windows exactly.  The radius exponents are

    p(r): the unique integer with b**-p < r <= b**-(p-1)   (forward side)
    q(r): the same bracket with base a, p_of_r(r, a)       (backward side)

and each ball constraint "rho(shift^i x, shift^i y) < s" fixes coordinates
[i - (q(s)-1), i + (p(s)-1)].  Ball variants differ only in which shifts i
participate and how the per-shift radius s depends on i:

    open ball           i = 0,           s = r
    Bowen ball          -n <= i <= m,    s = r
    neutralized ball    -n <= i <= m,    s = e^{-(n+m)r}
    alpha ball          -n <= i <= m,    s = e^{-|i|alpha} r

Each window is read off its end shifts, [-n - behind(-n), m + ahead(m)]
with (behind, ahead) = (q(s)-1, p(s)-1) at that shift: for these four
families (the alpha ball in the regime ``alpha_window`` enforces) that is
the union of the per-shift windows.  A given radius
r is bracketed exactly (``p_of_r``); only the derived radii e^{-(n+m)r} and
e^{-|i|alpha} r, which may underflow, are bracketed from their logarithms.
This module is the only place that turns radii and depths into windows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AlphaTooLarge, HypothesisViolated, RadiusOutOfRange
from .metrics import ONE_SIDED, MetricParams


def p_of_r(r, b) -> int:
    """The unique integer p >= 1 with b**-p < r <= b**-(p-1).

    `b` may be a float or an exact rational (``fractions.Fraction``): the
    log-domain estimate of ``p_of_log_r`` is corrected with ``b ** -p``
    comparisons in whatever exact arithmetic the type supports, so the
    boundary r = b**-j lands on the strict side (p = j + 1) reliably.
    """
    _require_radius(r)
    # an exact r within 2**-53 of 1 rounds to the float 1.0, whose ln is not negative
    p = p_of_log_r(math.log(float(r)), b) if float(r) < 1.0 else 1
    while b ** (-p) >= r:
        p += 1
    while p > 1 and b ** (-(p - 1)) < r:
        p -= 1
    return p


def _require_radius(r) -> None:
    if not (0 < r < 1):
        raise RadiusOutOfRange(f"radius must be finite and in (0, 1), got {r}")
    if float(r) == 0.0:
        raise RadiusOutOfRange(
            f"radius underflows to the float 0.0; radii below {math.ulp(0.0)!r} cannot be bracketed"
        )


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


def ball_window(r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the open ball: [-(q(r)-1), p(r)-1] (one-sided: lo=0)."""
    behind, ahead = _reach(params, p_of_r, r)
    return CylinderIndex(-behind, ahead)


def bowen_window(n: int, m: int, r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the (-n, m) Bowen ball: ball window widened by n, m."""
    _require_depths(n, m)
    behind, ahead = _reach(params, p_of_r, r)
    return CylinderIndex(-n - behind, m + ahead)


def neutralized_window(n: int, m: int, r: float, params: MetricParams) -> CylinderIndex:
    """Bowen window at the depth-discounted radius e^{-(n+m)r}."""
    _require_depths(n, m)
    if r <= 0.0:
        raise RadiusOutOfRange(f"neutralization rate must be positive, got {r}")
    if n + m == 0:
        raise RadiusOutOfRange("n + m = 0 gives radius e^0 = 1, not < 1")
    behind, ahead = _reach(params, p_of_log_r, -(n + m) * r)
    return CylinderIndex(-n - behind, m + ahead)


def alpha_window(n: int, m: int, alpha: float, r: float, params: MetricParams) -> CylinderIndex:
    """Fixed window of the two-sided alpha-estimation ball, for
    0 <= alpha < min(ln a, ln b) (one-sided: alpha < ln b).

    In that regime a step away from shift 0 adds alpha < ln a to ln(1/s),
    so it moves the per-shift window's low end by at most q's one step, and
    the low end of the union is the one at shift -n; the high end is the one
    at shift m, and the window is the closed form
    [-n - floor((n alpha + ln(1/r))/ln a), m + floor((m alpha + ln(1/r))/ln b)].
    At alpha = 0 it is the Bowen window.
    """
    _require_depths(n, m)
    require_alpha_regime(alpha, params)
    _require_radius(r)

    def reach(i: int) -> tuple[int, int]:
        if i == 0 or not alpha:
            return _reach(params, p_of_r, r)
        return _reach(params, p_of_log_r, math.log(r) - abs(i) * alpha)

    return CylinderIndex(-n - reach(-n)[0], m + reach(m)[1])


def _require_depths(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise HypothesisViolated(f"depths must be nonnegative, got n={n}, m={m}")


def require_alpha_regime(alpha: float, params: MetricParams) -> None:
    """alpha-estimation calculus requires 0 <= alpha < min(ln a, ln b)
    (one-sided: alpha < ln b)."""
    limit = params.log_b if params.mode == ONE_SIDED else min(params.log_a, params.log_b)
    if not (0.0 <= alpha < limit):
        raise AlphaTooLarge(
            f"alpha must be finite and in [0, {limit:.6g}), got {alpha}"
        )
