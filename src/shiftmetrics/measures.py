"""Shift-invariant Bernoulli and Markov measures with exact cylinder masses.

Both families give closed-form masses for every cylinder, exact entropies,
and stationary two-sided sampling (backward steps use the time-reversed
kernel, so a sampled window is an exact stationary law, not an approximation).

The second half of the module is the covering backend used by the Katok-type
entropy estimators: the minimal number of window cylinders whose total mass
reaches ``1 - delta``.  Because cylinders of a fixed window partition the
space, the optimum is the greedy descending-mass count.  Three exact routes
are provided, tried in this order:

1. mass spectrum — group cylinders into equal-mass classes (symbol
   compositions for Bernoulli, run-length classes for binary Markov) and
   aggregate counts in the log domain; works at any window length,
2. full enumeration when the support admits at most ``2**22`` words,
3. best-first prefix expansion under a node budget (masses are
   monotone under extension, so words are emitted in exact descending
   order); past the budget the call refuses with ``WindowTooLarge``.
"""
from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMeasure,
    HorizonExceeded,
    HypothesisViolated,
    InadmissibleWord,
    NoConvergence,
    Reducible,
    WindowTooLarge,
)
from .shiftspace import Point, ShiftSpace, count_words, make_space, point_from_window

STATIONARY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
ENUMERATION_LIMIT = 2**22
#: Counts below this are recovered exactly by rounding exp(log_count).
_EXACT_COUNT_LIMIT = float(2**40)


def _strongly_connected(positive: np.ndarray) -> bool:
    """True when the digraph of positive entries is strongly connected."""
    n = positive.shape[0]
    for graph in (positive, positive.T):
        seen = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for t in np.flatnonzero(graph[s]):
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if len(seen) != n:
            return False
    return True


def stationary(P, tol: float = STATIONARY_TOL, max_iter: int = 200_000) -> np.ndarray:
    """Unique stationary vector of an irreducible row-stochastic matrix.

    Power iteration runs on the lazy kernel (P + I)/2, which has the same
    fixed point but no periodicity, until successive iterates agree to
    ``tol``.  Uniqueness is guarded by a strong-connectivity check on the
    positive-entry digraph; reducible input raises ``Reducible``.
    """
    mat = np.asarray(P, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise BadMeasure(f"transition kernel must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise BadMeasure(f"transition kernel entries must be finite, got {P!r}")
    if (mat < 0).any():
        raise BadMeasure("transition kernel entries must be nonnegative")
    rows = mat.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= ROW_SUM_TOL):
        raise BadMeasure(f"rows must sum to 1 within {ROW_SUM_TOL}, got sums {rows}")
    n = mat.shape[0]
    if n == 1:
        return np.array([1.0])
    if not _strongly_connected(mat > 0):
        raise Reducible("positive-entry digraph is not strongly connected")
    lazy = 0.5 * (mat + np.eye(n))
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ lazy
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) <= tol:
            pi = nxt
            break
        pi = nxt
    else:
        raise NoConvergence(f"stationary iteration did not reach {tol} in {max_iter} steps")
    residual = np.max(np.abs(pi @ mat - pi))
    if residual > 1e-10:
        raise NoConvergence(f"stationary residual {residual} exceeds 1e-10")
    return pi


@dataclass(frozen=True)
class BernoulliMeasure:
    """Product measure: independent symbols drawn from ``weights``."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise BadMeasure(f"weights must be a nonempty vector, got {self.weights!r}")
        if not np.isfinite(w).all():
            raise BadMeasure(f"weights must be finite, got {self.weights!r}")
        if (w < 0).any():
            raise BadMeasure("weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise BadMeasure(f"weights must sum to 1 within {ROW_SUM_TOL}, got {w.sum()!r}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def alphabet_size(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain measure; ``pi`` is always derived from ``P``."""

    P: tuple[tuple[float, ...], ...]
    pi: tuple[float, ...] = None

    def __post_init__(self):
        if self.pi is not None:
            raise BadMeasure("the stationary vector is derived from P; do not supply it")
        pi = stationary(self.P)
        mat = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", tuple(tuple(float(x) for x in row) for row in mat))
        object.__setattr__(self, "pi", tuple(float(x) for x in pi))

    @property
    def alphabet_size(self) -> int:
        return len(self.P)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(range(len(self.P)))


Measure = BernoulliMeasure | MarkovMeasure


@dataclass(frozen=True)
class MeasureReport:
    """Entropy value plus a note recording how it was computed."""

    entropy: float
    notes: str

    def __post_init__(self):
        if not self.entropy >= 0.0:
            raise BadMeasure(f"entropy must be nonnegative, got {self.entropy}")


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p * ln(p) with the 0 * ln 0 = 0 convention."""
    return np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)


def entropy_oracle(mu: Measure) -> MeasureReport:
    """Exact entropy of a built-in measure.

    Bernoulli: -sum p_i ln p_i.  Markov: -sum_i pi_i sum_j P_ij ln P_ij.
    Zero-probability terms contribute 0 by convention.
    """
    if isinstance(mu, BernoulliMeasure):
        h = float(-_xlogx(np.asarray(mu.weights)).sum())
        return MeasureReport(max(h, 0.0), "independent-symbol entropy -sum p ln p")
    if isinstance(mu, MarkovMeasure):
        P = np.asarray(mu.P)
        pi = np.asarray(mu.pi)
        h = float(-(pi @ _xlogx(P).sum(axis=1)))
        return MeasureReport(
            max(h, 0.0),
            "stationary transition entropy -sum pi_i P_ij ln P_ij; pi by power iteration",
        )
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def _require_symbols(mu: Measure, symbols: np.ndarray) -> None:
    if symbols.size and (symbols.min() < 0 or symbols.max() >= mu.alphabet_size):
        raise InadmissibleWord(
            f"symbols {symbols.tolist()!r} outside measure alphabet of size {mu.alphabet_size}"
        )


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
    with np.errstate(divide="ignore"):
        if isinstance(mu, BernoulliMeasure):
            logs = np.log(np.asarray(mu.weights))
            return float(logs[w].sum())
        if isinstance(mu, MarkovMeasure):
            logP = np.log(np.asarray(mu.P))
            logpi = np.log(np.asarray(mu.pi))
            return float(logpi[w[0]] + logP[w[:-1], w[1:]].sum())
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def reversed_kernel(mu: MarkovMeasure) -> np.ndarray:
    """Time-reversed transition kernel: hat P_ij = pi_j P_ji / pi_i."""
    P = np.asarray(mu.P)
    pi = np.asarray(mu.pi)
    hat = (P.T * pi[None, :]) / pi[:, None]
    # rows sum to 1 up to rounding; renormalize so sampling never drifts
    return hat / hat.sum(axis=1, keepdims=True)


def _choice_cdf(p) -> np.ndarray:
    """The CDF ``rng.choice(m, p=p)`` inverts, normalised as it does:
    ``cdf = p.cumsum(); cdf /= cdf[-1]`` (row by row for a matrix)."""
    cdf = np.asarray(p, dtype=float).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample_typical(mu: Measure, horizon: int, seed, space: ShiftSpace | None = None) -> Point:
    """Stationary two-sided sample on the window [-horizon, horizon].

    The symbol at 0 is drawn from the stationary law, forward symbols from
    the transition rows, and backward symbols from the time-reversed kernel,
    so every finite window has its exact stationary distribution.

    Exact-stream contract: the sampler consumes one uniform per symbol,
    ``u = default_rng(seed).random(2 * horizon + 1)``, in the draw order
    center, then coordinates 1..horizon, then -1..-horizon, and inverts each
    through ``rng.choice``'s normalised CDF of the law it is drawn from
    (``searchsorted(cdf, u, side="right")``).  The result is therefore
    deterministic per seed and identical to drawing each symbol with
    ``rng.choice(m, p=law)`` in that order.
    """
    if horizon < 1:
        raise HorizonExceeded(f"horizon must be >= 1, got {horizon}")
    u = np.random.default_rng(seed).random(2 * horizon + 1)
    if isinstance(mu, BernoulliMeasure):
        drawn = _choice_cdf(mu.weights).searchsorted(u, side="right")
        window = np.concatenate((drawn[:horizon:-1], drawn[: horizon + 1]))
    elif isinstance(mu, MarkovMeasure):
        forward = _choice_cdf(mu.P).tolist()
        backward = _choice_cdf(reversed_kernel(mu)).tolist()
        draws = u.tolist()
        walk = [bisect_right(_choice_cdf(mu.pi).tolist(), draws[0])]
        for rows, steps in ((forward, draws[1 : horizon + 1]), (backward, draws[horizon + 1 :])):
            s = walk[0]
            for v in steps:
                s = bisect_right(rows[s], v)
                walk.append(s)
        # walk = [center, 1..horizon, -1..-horizon]; lay it out as -horizon..horizon
        window = np.array(walk[:horizon:-1] + walk[: horizon + 1], dtype=np.int64)
    else:
        raise BadMeasure(f"unsupported measure type {type(mu).__name__}")
    if space is None:
        space = make_space(mu.alphabet_size)
    return point_from_window(space, window)


def supported_on(mu: Measure, space: ShiftSpace) -> bool:
    """True when every positive-probability transition is admissible."""
    if mu.alphabet_size > space.alphabet_size:
        return False
    if isinstance(mu, BernoulliMeasure):
        sup = mu.support
        return all(space.allows(i, j) for i in sup for j in sup)
    if isinstance(mu, MarkovMeasure):
        P = np.asarray(mu.P)
        return all(
            space.allows(i, j)
            for i in range(mu.alphabet_size)
            for j in range(mu.alphabet_size)
            if P[i, j] > 0
        )
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def measure_from_json(spec) -> Measure:
    """Parse ``{"type": "bernoulli", "weights": [...]}`` or
    ``{"type": "markov", "P": [[...], ...]}`` (dict or JSON text).

    The stationary vector is always computed here; supplying one is refused.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise BadMeasure(f"measure spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise BadMeasure(f"measure spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "bernoulli":
        extra = set(spec) - {"type", "weights"}
        if extra or "weights" not in spec:
            raise BadMeasure(f"bernoulli spec needs exactly 'weights', got keys {sorted(spec)}")
        return BernoulliMeasure(tuple(spec["weights"]))
    if kind == "markov":
        if "pi" in spec:
            raise BadMeasure("the stationary vector is derived from P; do not supply 'pi'")
        extra = set(spec) - {"type", "P"}
        if extra or "P" not in spec:
            raise BadMeasure(f"markov spec needs exactly 'P', got keys {sorted(spec)}")
        return MarkovMeasure(tuple(tuple(row) for row in spec["P"]))
    raise BadMeasure(f"unknown measure type {kind!r} (expected 'bernoulli' or 'markov')")


def measure_to_json(mu: Measure) -> dict:
    """Inverse of ``measure_from_json`` (the derived ``pi`` is not emitted)."""
    if isinstance(mu, BernoulliMeasure):
        return {"type": "bernoulli", "weights": list(mu.weights)}
    if isinstance(mu, MarkovMeasure):
        return {"type": "markov", "P": [list(row) for row in mu.P]}
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


# --------------------------------------------------------------------------
# Covering backend: minimal number of window cylinders of mass >= 1 - delta.
# --------------------------------------------------------------------------


def _lgfact_table(n: int) -> np.ndarray:
    """Table of ln k! for k = 0..n."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def _log_choose(lgfact: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    return lgfact[n] - lgfact[k] - lgfact[n - k]


def _bernoulli_spectrum(mu: BernoulliMeasure, length: int):
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


def _markov_spectrum(mu: MarkovMeasure, length: int):
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


def log_mass_spectrum(mu: Measure, length: int):
    """Equal-mass cylinder classes of a window of the given length.

    Returns ``(log_mass, log_count)`` arrays covering every positive-mass
    word exactly once, or ``None`` when no closed-form class structure is
    available (then callers fall back to enumeration or prefix expansion).
    Available for: any Bernoulli with at most two distinct support weights,
    uniform Bernoulli on any support, and two-symbol Markov chains
    (run-length classes).
    """
    if length < 0:
        raise InadmissibleWord(f"window length must be >= 0, got {length}")
    if length == 0:
        return np.array([0.0]), np.array([0.0])
    if isinstance(mu, BernoulliMeasure):
        return _bernoulli_spectrum(mu, length)
    if isinstance(mu, MarkovMeasure):
        return _markov_spectrum(mu, length)
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def support_word_count(mu: Measure, length: int) -> int:
    """Exact number of positive-mass words of the given length."""
    if length == 0:
        return 1
    if isinstance(mu, BernoulliMeasure):
        return len(mu.support) ** length
    if isinstance(mu, MarkovMeasure):
        P = np.asarray(mu.P)
        indicator = (P > 0).astype(int)
        return count_words(make_space(mu.alphabet_size, indicator), length)
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def _start_log_weights(mu: Measure) -> np.ndarray:
    with np.errstate(divide="ignore"):
        if isinstance(mu, BernoulliMeasure):
            return np.log(np.asarray(mu.weights))
        return np.log(np.asarray(mu.pi))


def _step_log_weights(mu: Measure) -> np.ndarray:
    with np.errstate(divide="ignore"):
        if isinstance(mu, BernoulliMeasure):
            w = np.log(np.asarray(mu.weights))
            return np.tile(w, (mu.alphabet_size, 1))
        return np.log(np.asarray(mu.P))


def enumerate_log_masses(mu: Measure, length: int) -> np.ndarray:
    """Log masses of every positive-mass word of the given length (unsorted)."""
    if length == 0:
        return np.array([0.0])
    start = _start_log_weights(mu)
    step = _step_log_weights(mu)
    masses = {
        s: np.array([float(start[s])])
        for s in range(mu.alphabet_size)
        if np.isfinite(start[s])
    }
    for _ in range(length - 1):
        nxt: dict[int, list[np.ndarray]] = {}
        for s, vals in masses.items():
            for t in range(mu.alphabet_size):
                if np.isfinite(step[s, t]):
                    nxt.setdefault(t, []).append(vals + step[s, t])
        masses = {t: np.concatenate(parts) for t, parts in nxt.items()}
    return np.concatenate(list(masses.values())) if masses else np.array([])


#: Relative slack on the 1 - delta coverage boundary.  Exact mass ties reach
#: the greedy through different float routes depending on the backend; the
#: slack makes all backends cross class boundaries at the same point.
_COVER_SLACK = 1e-9


def _merge_equal_mass(log_mass: np.ndarray, log_count: np.ndarray):
    """Sort classes by descending mass and merge classes tied within 1e-9."""
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


def _cover_from_sorted(log_mass: np.ndarray, log_count: np.ndarray, delta: float) -> float:
    """ln of the greedy descending-mass cover count over equal-mass classes."""
    lm, lc = _merge_equal_mass(log_mass, log_count)
    log_total_count = float(np.logaddexp.reduce(lc))
    if log_total_count <= math.log(_EXACT_COUNT_LIMIT):
        # small enough for exact integer counts and real ceilings
        counts = np.round(np.exp(lc))
        masses = np.exp(lm)
        target = (1.0 - delta) * (1.0 - _COVER_SLACK)
        cum = 0.0
        taken = 0.0
        for c, m in zip(counts, masses):
            block = c * m
            if cum + block < target:
                cum += block
                taken += c
                continue
            need = target - cum
            k = 1.0 if need <= 0.0 else min(c, math.ceil(need / m * (1.0 - _COVER_SLACK)))
            return math.log(taken + max(k, 1.0))
        return math.log(taken) if taken else -math.inf
    log_target = math.log1p(-delta) - _COVER_SLACK
    cum = np.logaddexp.accumulate(lm + lc)
    idx = int(np.searchsorted(cum, log_target))
    if idx >= cum.size:
        idx = cum.size - 1
    prior_count = -math.inf if idx == 0 else float(np.logaddexp.reduce(lc[:idx]))
    prior_mass = -math.inf if idx == 0 else float(cum[idx - 1])
    if prior_mass >= log_target:
        return prior_count
    # log(e^target - e^prior) via log1p; then divide by the class mass
    gap = log_target + math.log1p(-math.exp(min(prior_mass - log_target, -1e-300)))
    log_extra = min(gap - lm[idx], float(lc[idx]))
    return float(np.logaddexp(prior_count, max(log_extra, 0.0)))


def _pq_cover_log_count(mu: Measure, length: int, delta: float, node_budget: int) -> float:
    """Best-first prefix expansion; exact because extension never raises mass."""
    start = _start_log_weights(mu)
    step = _step_log_weights(mu)
    m = mu.alphabet_size
    heap: list[tuple[float, int, int, int]] = []
    serial = 0
    for s in range(m):
        if np.isfinite(start[s]):
            heap.append((-float(start[s]), serial, 1, s))
            serial += 1
    heapq.heapify(heap)
    target = (1.0 - delta) * (1.0 - _COVER_SLACK)
    covered = 0.0
    taken = 0
    pops = 0
    while heap:
        neg_lm, _, depth, last = heapq.heappop(heap)
        pops += 1
        if pops > node_budget:
            raise WindowTooLarge(
                f"prefix expansion exceeded the {node_budget}-node budget at window length {length}"
            )
        if depth == length:
            covered += math.exp(-neg_lm)
            taken += 1
            if covered >= target:
                return math.log(taken)
            continue
        for t in range(m):
            if np.isfinite(step[last, t]):
                heapq.heappush(heap, (neg_lm - float(step[last, t]), serial, depth + 1, t))
                serial += 1
    raise WindowTooLarge(
        f"total mass at window length {length} fell short of 1 - delta = {target}"
    )


def minimal_cover_log_count(
    mu: Measure, length: int, delta: float, node_budget: int = ENUMERATION_LIMIT
) -> float:
    """ln of the minimal number of window cylinders of total mass >= 1 - delta.

    Cylinders of a fixed window partition the space, so the minimum is
    achieved by taking cylinders in descending mass order.  The count is
    computed exactly via the mass spectrum when the measure admits one, via
    full enumeration when the support has at most ``node_budget`` words, and
    via best-first prefix expansion otherwise; ``WindowTooLarge`` signals
    that even the expansion exceeded its budget.
    """
    if not math.isfinite(delta):
        raise HypothesisViolated(f"delta must be finite, got {delta}")
    if not 0.0 < delta < 1.0:
        raise HypothesisViolated(f"delta must lie in (0, 1), got {delta}")
    if length < 0:
        raise InadmissibleWord(f"window length must be >= 0, got {length}")
    if length == 0:
        return 0.0
    spectrum = log_mass_spectrum(mu, length)
    if spectrum is not None:
        return _cover_from_sorted(spectrum[0], spectrum[1], delta)
    if support_word_count(mu, length) <= node_budget:
        log_masses = enumerate_log_masses(mu, length)
        return _cover_from_sorted(log_masses, np.zeros(log_masses.shape), delta)
    return _pq_cover_log_count(mu, length, delta, node_budget)
